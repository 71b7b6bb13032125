"""Reference IP-loop search: every labelled reduced table of an order, every
labelled table with a given inversion, and the canonical form by brute
force over every relabelling and by branch and bound.

`enumerate_ip_tables` is the exhaustive backtracker that `search_ip_loops`
used before it fixed the inversion map to one involution per conjugacy
class.  It visits every labelled reduced IP-loop table (7,800 at order 8).
`ip_tables` is the backtracker for one inversion J as it was before it
kept only a least row 1: it yields every table with inversion J (8,856 at
order 10 over all J_k).  `canonical_form` tries all (n-1)! relabellings
fixing 0, as `hopfloop.loops.canonical_form` did before it became a branch
and bound.  `branch_and_bound_canonical_form` is that branch and bound as
it was before it bounded row 2 while a relabelling is still partial: it
compares every relabelling with the least row 1 in full, and is the
reference at orders 9 to 11, where brute force is out of reach.  All four
are kept here only as the slow paths of differential tests, not in the
package.

Tables are reduced: element 0 is the identity, row 0 and column 0 are the
identity permutation.  The backtracker fills rows top to bottom and prunes
with the inverse-property structure:

* ``a(a^-1 b) = b`` makes row ``a^-1`` the inverse permutation of row ``a``,
  so a row whose inverse element is already placed is forced outright;
* ``(ba)a^-1 = b`` is the column analogue, checked on every decidable
  triple after each completed row;
* inverses are two-sided, so a zero may only appear at or after the
  diagonal in a fresh row.
"""

from itertools import permutations


def enumerate_ip_tables(n):
    """All reduced IP-loop tables of order n, as tuples of row tuples."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [((0,),)]
    table = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    col_used = [1 << c for c in range(n)]  # bitmask of values in column c
    inv = [0] + [-1] * (n - 1)
    results = []

    def column_checks(r):
        # (b a) a^-1 = b on every triple decidable from rows 1..r
        for a in range(1, r + 1):
            ja = inv[a]
            for b in range(1, r + 1):
                x = table[b][a]
                if x <= r and table[x][ja] != b:
                    return False
        return True

    def complete_row(r):
        row = table[r]
        c0 = row.index(0)
        if c0 < r and inv[c0] != r:
            return False
        if c0 == r:
            for c in range(n):
                if row[row[c]] != c:
                    return False
        inv[r] = c0
        if not column_checks(r):
            inv[r] = -1
            return False
        return True

    def fill_row(r):
        if r == n:
            results.append(tuple(tuple(row) for row in table))
            return
        forced_from = 0
        for a in range(1, r):
            if inv[a] == r:
                forced_from = a
                break
        if forced_from:
            src = table[forced_from]
            row = table[r]
            placed = []
            ok = True
            for c in range(1, n):
                v = src.index(c)  # inverse permutation of src
                if col_used[c] >> v & 1:
                    ok = False
                    break
                row[c] = v
                col_used[c] |= 1 << v
                placed.append((c, v))
            if ok and complete_row(r):
                fill_row(r + 1)
                inv[r] = -1
            for c, v in placed:
                row[c] = -1
                col_used[c] ^= 1 << v
            return
        fill_cell(r, 1, 1 << r)  # value r already used at column 0

    def fill_cell(r, c, row_used):
        if c == n:
            if complete_row(r):
                fill_row(r + 1)
                inv[r] = -1
            return
        row = table[r]
        used = row_used | col_used[c]
        jc = inv[c] if c < r else -1
        for v in range(n):
            if used >> v & 1:
                continue
            if v == 0 and c < r:
                continue  # zero below the diagonal forces a row instead
            if jc >= 0 and v < r and table[v][jc] != r:
                continue  # (r c) c^-1 = r already violated
            row[c] = v
            col_used[c] |= 1 << v
            fill_cell(r, c + 1, row_used | 1 << v)
            row[c] = -1
            col_used[c] ^= 1 << v

    fill_row(1)
    return results


def ip_tables(J):
    """Every reduced IP-loop table whose inversion is J, as row tuples.

    Rows are filled top to bottom, columns left to right.  Row r has its
    one 0 at column J[r]; a row with J[r] < r is forced as the inverse
    permutation of row J[r] (a^-1(ab) = b), and a self-inverse row is an
    involution.  Each placed value is checked against (ba)J(a) = b on both
    the pairs it completes: r c = v with v < r needs v J(c) = r, and r c = v
    with v > r is refused if some earlier row b already has b J(c) = r.
    """
    n = len(J)
    if n == 1:
        return [((0,),)]
    table = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    col_used = [1 << c for c in range(n)]  # bitmask of values in column c
    results = []

    def fill(r, c, row_used):
        if c == n:
            if r == n - 1:
                results.append(tuple(tuple(row) for row in table))
            else:
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


def canonical_form(table):
    """Lexicographically least relabeling fixing the identity element."""
    n = len(table)
    rows = [tuple(row) for row in table]
    best = None
    for perm in permutations(range(1, n)):
        sigma = (0,) + perm
        inv = [0] * n
        for old, new in enumerate(sigma):
            inv[new] = old
        cand = []
        verdict = 0  # -1 better than best, 0 tied so far
        for i in range(n):
            src = rows[inv[i]]
            row = tuple(sigma[src[inv[j]]] for j in range(n))
            if best is not None and verdict == 0:
                if row > best[i]:
                    verdict = 1
                    break
                if row < best[i]:
                    verdict = -1
            cand.append(row)
        if verdict == 1:
            continue
        if best is None or verdict == -1:
            best = tuple(cand)
    return best


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


def branch_and_bound_canonical_form(table):
    """Lexicographically least relabeling fixing the identity element, of a
    reduced loop table.

    Fix a = sigma^-1(1): the labels of the least row 1 follow the cycles of
    x -> ax, the one through 0 first and then the others by length, so only
    the a whose cycle lengths are least are tried, and a branch happens only
    where a cycle of the least remaining length starts.  Every complete
    relabelling reached is compared with the best so far from row 2 on.
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

    def place(cycles, label):
        if not cycles:
            compare()
            return
        length = len(cycles[0])
        for i, cycle in enumerate(cycles):
            if len(cycle) != length:
                break
            others = cycles[:i] + cycles[i + 1:]
            for start in range(length):
                for t in range(length):
                    x = cycle[(start + t) % length]
                    sigma[x] = label + t
                    inv[label + t] = x
                place(others, label + length)

    for lengths, zero, rest in shapes:
        if lengths == least:
            for label, x in enumerate(zero):
                sigma[x] = label
                inv[label] = x
            place(rest, len(zero))
    return best
