"""Inverse-property loops as Cayley tables and their linearization.

Element 0 is always the identity; tables are reduced (row 0 and column 0
are the identity permutation).  `loop_algebra` produces the grouplike Hopf
quasigroup spanned by the loop elements.  `search_ip_loops` lists the IP
loops of an order up to isomorphism.
"""

from .errors import BudgetExceeded, MalformedTable, NotIPLoop
from .fields import QQ
from .report import VerificationReport, Witness
from .structures import HopfQuasigroup
from .tensors import SparseTensor, assoc_mismatches, quasi_mismatches

SEARCH_MAX_ORDER = 11


class LoopTable:
    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise MalformedTable("empty table")
        for r in rows:
            if len(r) != n:
                raise MalformedTable("table is not square")
            for v in r:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise MalformedTable(f"entry {v!r} out of range [0,{n})")
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, rows):
        """A table from a nonempty tuple of n row tuples, each of n ints in
        [0, n), that the caller has already checked."""
        self = cls.__new__(cls)
        self.n = len(rows)
        self.rows = rows
        return self

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, LoopTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LoopTable(order={self.n})"

    def mul(self, a, b):
        return self.rows[a][b]

    def inverse_of(self, a):
        """The two-sided inverse, or None if a has no such partner."""
        row = self.rows[a]
        try:
            b = row.index(0)
        except ValueError:
            return None
        if self.rows[b][a] != 0:
            return None
        return b


def _elem_law(rep, law_id, bad):
    """Add law_id to rep, failing at bad = (indices, got, want) unless bad
    is None; each side is one loop element with coefficient 1."""
    if bad is None:
        rep.add(law_id, True)
    else:
        indices, got, want = bad
        rep.add(law_id, False, Witness(indices, (((got,), "1"),),
                                       (((want,), "1"),)))


def _first_repeat(lines):
    """((i,), v, -1) for the first line i that is not a permutation, v its
    least repeated value; None when every line is one."""
    full = list(range(len(lines)))
    for i, line in enumerate(lines):
        line = sorted(line)
        if line != full:
            return (i,), next(v for v, w in zip(line[1:], line) if v == w), -1
    return None


def check_ip_loop(T):
    """Latin square, identity, two-sided inverses and the four IP laws."""
    n, rows = T.n, T.rows
    rep = VerificationReport()
    _elem_law(rep, "latin.rows", _first_repeat(rows))
    _elem_law(rep, "latin.cols", _first_repeat(tuple(zip(*rows))))
    _elem_law(rep, "identity", next(
        (((i, j), rows[i][j], a) for a in range(n)
         for i, j in ((0, a), (a, 0)) if rows[i][j] != a), None))
    inv = {a: T.inverse_of(a) for a in range(n)}
    _elem_law(rep, "inverse.exists", next(
        (((a,), -1, 0) for a, b in inv.items() if b is None), None))

    # For one a, each law composes two rows (or two columns) of the table
    # and compares the result with the identity b -> b: the Hopf quasigroup
    # identities of the loop algebra, with S(a) = a^-1.
    elems = [(a, b) for a, b in inv.items() if b is not None]
    q1l, q1r, q2l, q2r = quasi_mismatches(rows, elems)
    for law_id, law in (("ip.left_cancel", q1r),    # a(a^-1 b)
                        ("ip.left_return", q1l),    # a^-1(ab)
                        ("ip.right_return", q2r),   # (ba^-1)a
                        ("ip.right_cancel", q2l)):  # (ba)a^-1
        bad = next(law, None)
        if bad is not None:
            m, b, got, _ = bad
            bad = (elems[m][0], b), got, b
        _elem_law(rep, law_id, bad)
    return rep


def is_associative(T):
    """(ab)c = a(bc) for all triples; returns (flag, witness_triple), the
    witness the first failing triple in row-major order."""
    bad = next(assoc_mismatches(T.rows), None)
    if bad is None:
        return True, None
    return False, bad[:3]


def loop_algebra(T, field=QQ):
    """Span of the loop: grouplike coproduct, counit 1, antipode inversion."""
    rep = check_ip_loop(T)
    if not rep.ok:
        bad = rep.failing()[0]
        raise NotIPLoop(f"law {bad.law_id} fails with witness "
                        f"{bad.witness.indices if bad.witness else None}")
    n = T.n
    f = field
    rows = T.rows
    mu = SparseTensor._from_basis_map(f, (n, n, n), 2,
                                      [k for row in rows for k in row])
    delta = SparseTensor._from_nz(f, (n, n, n),
                                  {(i, i, i): f.one for i in range(n)})
    unit = SparseTensor._from_nz(f, (n,), {(0,): f.one})
    counit = SparseTensor._from_nz(f, (n,), {(i,): f.one for i in range(n)})
    anti = SparseTensor._from_basis_map(f, (n, n), 0,
                                        map(T.inverse_of, range(n)))
    return HopfQuasigroup(mu, unit, delta, counit, anti)


def inversion_maps(n):
    """One inversion map per conjugacy class of involutions, for order n.

    The inversion J of an IP loop is an involution fixing the identity 0,
    and a relabelling fixing 0 conjugates it.  Involutions of {1..n-1} with
    the same number k of fixed points are conjugate, so every IP loop of
    order n is isomorphic to one whose inversion is J_k: 1..k self-inverse,
    then (k+1 k+2)(k+3 k+4)... paired, for each k with n-1-k even.
    """
    maps = []
    for k in range((n - 1) % 2, n, 2):
        J = list(range(k + 1))
        for a in range(k + 1, n, 2):
            J += [a + 1, a]
        maps.append(tuple(J))
    return maps


def _row1_is_least(row, J, sigma, inv, y):
    """False if a relabelling that extends sigma gives row 1 a smaller image.

    sigma is a partial relabelling that fixes 0 and 1 and commutes with J,
    inv its inverse, both -1 where unset.  The image of row 1 under sigma
    is y -> sigma(row[sigma^-1(y)]), and it agrees with row before
    position y.  Walking on from y: where sigma^-1(y) is unset, each free
    element of y's kind (self-inverse or paired) is tried in turn; where
    sigma(row[x]) is unset, the least free label of its kind decides, as
    below row[y] the image is smaller, above it larger, and equal it is
    taken.  Labelling an element labels its inverse with the inverse label,
    so every partial sigma reached extends to a whole relabelling, and the
    walk never lists the relabellings themselves.  The walk labels sigma
    and inv in place and unsets, before it returns, every label it set.
    """
    n = len(row)
    trail = []  # the elements this call labelled, each with its inverse
    least = True
    while y < n:
        x = inv[y]
        if x < 0:
            kind = J[y] == y
            for x in range(2, n):
                if sigma[x] < 0 and (J[x] == x) == kind:
                    sigma[x], inv[y], sigma[J[x]], inv[J[y]] = y, x, J[y], J[x]
                    least = _row1_is_least(row, J, sigma, inv, y)
                    sigma[x] = sigma[J[x]] = inv[y] = inv[J[y]] = -1
                    if not least:
                        break
            break
        v = row[x]
        w = sigma[v]
        want = row[y]
        if w < 0:
            kind = J[v] == v
            for w in range(2, want + 1):
                if inv[w] < 0 and (J[w] == w) == kind:
                    break
            else:
                break
            if w < want:
                least = False
                break
            sigma[v], inv[w], sigma[J[v]], inv[J[w]] = w, v, J[w], J[v]
            trail.append(v)
        elif w != want:
            least = w > want
            break
        y += 1
    for v in trail:
        w = sigma[v]
        sigma[v] = sigma[J[v]] = inv[w] = inv[J[w]] = -1
    return least


def ip_tables(J):
    """Reduced IP-loop tables whose inversion is J, as row tuples: every
    such table whose row 1 is least under the relabellings below.

    Rows are filled top to bottom, columns left to right.  Row r has its
    one 0 at column J[r]; a row with J[r] < r is forced as the inverse
    permutation of row J[r] (a^-1(ab) = b), and a self-inverse row is an
    involution.  Each placed value is checked against (ba)J(a) = b on both
    the pairs it completes: r c = v with v < r needs v J(c) = r, and r c = v
    with v > r is refused if some earlier row b already has b J(c) = r.
    Inversion is an anti-automorphism, (ab)^-1 = J(b) J(a), so r c = v is
    also refused when the mirror cell (J(c), J(r)) is already placed and
    holds anything but J(v).  The one cell that is its own mirror is
    (r, J(r)), which holds 0 = J(0).  Every IP loop obeys both checks, so
    they cut only branches that complete to no table.

    A relabelling sigma that fixes 0 and 1 and commutes with J sends each
    such table to another one, whose row 1 is y -> sigma(T[1][sigma^-1(y)]).
    A complete row 1 is kept only if it is lexicographically least among
    these images, so the rows below the others are never filled.  Each
    orbit of tables under these sigma keeps the tables whose row 1 is least
    in it, so every isomorphism class with inversion J keeps at least one
    table, though not every labelled copy.
    """
    n = len(J)
    if n == 1:
        return [((0,),)]
    table = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    col_used = [1 << c for c in range(n)]  # bitmask of values in column c
    sigma = [-1] * n  # a relabelling that fixes 0, 1 and so J(1)
    for x in (0, 1, J[1]):
        sigma[x] = x
    inv = sigma[:]
    results = []

    def fill(r, c, row_used):
        if c == n:
            if r == n - 1:
                results.append(tuple(tuple(row) for row in table))
            elif r > 1 or _row1_is_least(table[1], J, sigma, inv, 1):
                fill(r + 1, 1, 1 << (r + 1))
            return
        row = table[r]
        jr = J[r]
        if c == jr:
            choices = (0,)
        elif jr < r:
            choices = (table[jr].index(c),)
        elif jr == r:
            choices = ((row.index(c),) if row_used >> c & 1
                       else range(c + 1, n))
        else:
            choices = range(1, n)
        jc = J[c]
        if jc < r or jc == r and jr < c:  # mirror cell placed: J(r c) there
            v = J[table[jc][jr]]
            choices = (v,) if v in choices else ()
        used = row_used | col_used[c]
        for v in choices:
            if used >> v & 1:
                continue
            if v < r:
                if table[v][jc] != r:
                    continue
            elif col_used[jc] >> r & 1:
                continue
            row[c] = v
            col_used[c] |= 1 << v
            fill(r, c + 1, row_used | 1 << v)
            col_used[c] ^= 1 << v
        row[c] = -1

    fill(1, 1, 1 << 1)
    return results


def _left_cycles(row):
    """Cycles of x -> row[x]: the one through 0 first, then the others
    ordered by length (ties by least element), each from that element."""
    seen = [False] * len(row)
    cycles = []
    for start in range(len(row)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = row[x]
        if cycle:
            cycles.append(cycle)
    return cycles[0], sorted(cycles[1:], key=len)


def canonical_form(table):
    """Lexicographically least relabelling fixing the identity element.

    `table` must be a reduced loop table: a Latin square whose row 0 and
    column 0 are the identity permutation.  The result is the least, in
    row-major order, of the tables sigma(x)sigma(y) = sigma(xy) over all
    permutations sigma with sigma(0) = 0, found by branch and bound.

    Row 0 and column 0 of every relabelling are the identity, so the
    comparison starts at row 1.  Fix a = sigma^-1(1) and walk row 1 left to
    right: cell (1, j) is sigma(a sigma^-1(j)), and an element with no label
    yet must take the next free label, since any other would make that cell
    larger.  So the labels follow the cycles of x -> ax: 0, a, a(a), ...
    first, then one cycle at a time, and a branch happens only where a cycle
    starts.  A cycle of length l started at label s puts s+1, ..., s+l-1, s
    in row 1, so the least row 1 takes the cycles in order of length: only
    the a whose cycle lengths are least, and only the cycles of the least
    remaining length with each of their elements as start, are tried.  Each
    such sigma has the least row 1; the rest of its table is compared with
    the best so far row by row, with early exit.

    Once a best table is known, a branch is cut after each cycle is
    labelled if row 2 must come out above the best's row 2 however the
    remaining elements are labelled.  Row 2 is read left to right over the
    labelled columns: a product with a label gives its cell exactly, and a
    product with none will get a label at least the next free one.  The
    first cell where that value or bound differs from the best's decides;
    a bound equal to the best's cell decides nothing.  Every table cut is
    larger than the best, so the least one is never lost.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n < 3:
        return tuple(rows)  # the only reduced table of its order
    shapes = []
    for a in range(1, n):
        zero, rest = _left_cycles(rows[a])
        shapes.append(([len(zero)] + [len(c) for c in rest], zero, rest))
    least = min(lengths for lengths, _, _ in shapes)
    sigma = [0] * n
    inv = [0] * n
    best = None

    def relabelled(i):
        src = rows[inv[i]]
        return tuple([sigma[src[k]] for k in inv])

    def compare():
        nonlocal best
        if best is None:
            best = tuple(relabelled(i) for i in range(n))
            return
        for i in range(2, n):
            row = relabelled(i)
            if row != best[i]:
                if row < best[i]:
                    best = best[:i] + tuple(
                        [row] + [relabelled(k) for k in range(i + 1, n)])
                return

    def row2_exceeds(free):
        # True if row 2 exceeds best's however the elements still without
        # a label get the labels free, free+1, ...: p has a label only if
        # sigma[p] < free and inv[sigma[p]] == p (sigma is reused across
        # branches), and a product p without one gets a label >= free
        src = rows[inv[2]]
        want = best[2]
        for j in range(1, free):
            p = src[inv[j]]
            w = sigma[p]
            if w >= free or inv[w] != p:
                return free > want[j]
            if w != want[j]:
                return w > want[j]
        return False

    def place(cycles, label):
        if not cycles:
            compare()
            return
        length = len(cycles[0])
        free = label + length
        for i, cycle in enumerate(cycles):
            if len(cycle) != length:
                break
            others = cycles[:i] + cycles[i + 1:]
            for start in range(length):
                for t in range(length):
                    x = cycle[(start + t) % length]
                    sigma[x] = label + t
                    inv[label + t] = x
                if others and best is not None and row2_exceeds(free):
                    continue
                place(others, free)

    for lengths, zero, rest in shapes:
        if lengths == least:
            for label, x in enumerate(zero):
                sigma[x] = label
                inv[label] = x
            place(rest, len(zero))
    return best


def search_ip_loops(n, want_nonassociative=False, limit=None):
    """Canonical reduced IP-loop tables of order n, one per isomorphism class.

    With want_nonassociative=True only nonassociative tables are returned,
    and with a limit only the first `limit` of them.  The search visits only
    the tables of `ip_tables(J)` for J in `inversion_maps(n)`, at least one
    per class, and deduplicates them by `canonical_form`; output is sorted
    lexicographically, so repeated runs are identical.  Associativity is an
    isomorphism invariant, so with want_nonassociative=True an associative
    table is dropped before it is canonicalised.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if limit is not None and limit < 0:
        raise ValueError("limit must not be negative")
    if n > SEARCH_MAX_ORDER:
        raise BudgetExceeded(
            f"exhaustive search is budgeted for order <= {SEARCH_MAX_ORDER}")
    if limit == 0:
        return []
    canon = sorted({canonical_form(t)
                    for J in inversion_maps(n) for t in ip_tables(J)
                    if not want_nonassociative
                    or next(assoc_mismatches(t), None)})
    return [LoopTable._trusted(rows) for rows in canon[:limit]]
