"""Inverse-property loops as Cayley tables and their linearization.

Element 0 is always the identity; tables are reduced (row 0 and column 0
are the identity permutation).  `loop_algebra` produces the grouplike Hopf
quasigroup spanned by the loop elements.
"""

from .errors import BudgetExceeded, MalformedTable, NotIPLoop
from ._backend import canonical_form, enumerate_ip_tables
from .fields import QQ
from .report import LawAccumulator, VerificationReport
from .structures import AlgebraData, CoalgebraData, HopfQuasigroup
from .tensors import Mat, Ten3, Vec

SEARCH_MAX_ORDER = 8


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


def _elem(v):
    return {(v,): "1"}


class _ElemAccumulator(LawAccumulator):
    """LawAccumulator over loop elements rather than field scalars."""

    def __init__(self, report, law_id):
        super().__init__(report, QQ, law_id)

    def check_elems(self, indices, lhs, rhs):
        self.check(indices, _elem(lhs), _elem(rhs))


def check_ip_loop(T):
    """Latin square, identity, two-sided inverses and the four IP laws."""
    n = T.n
    rep = VerificationReport()

    full = list(range(n))
    rows_ok = _ElemAccumulator(rep, "latin.rows")
    cols_ok = _ElemAccumulator(rep, "latin.cols")
    for a in range(n):
        row = sorted(T.rows[a])
        if row != full:
            # witness: the first repeated value in the offending line
            dup = next(v for i, v in enumerate(row[1:], 1) if v == row[i - 1])
            rows_ok.check_elems((a,), dup, -1)
    for c in range(n):
        col = sorted(T.rows[a][c] for a in range(n))
        if col != full:
            dup = next(v for i, v in enumerate(col[1:], 1) if v == col[i - 1])
            cols_ok.check_elems((c,), dup, -1)
    rows_ok.finish()
    cols_ok.finish()

    ident = _ElemAccumulator(rep, "identity")
    for a in range(n):
        ident.check_elems((0, a), T.mul(0, a), a)
        ident.check_elems((a, 0), T.mul(a, 0), a)
    ident.finish()

    inv_ok = _ElemAccumulator(rep, "inverse.exists")
    inv = {}
    for a in range(n):
        b = T.inverse_of(a)
        if b is None:
            inv_ok.check_elems((a,), -1, 0)
        else:
            inv[a] = b
    inv_ok.finish()

    laws = {
        "ip.left_cancel": lambda a, ai, b: T.mul(a, T.mul(ai, b)),
        "ip.left_return": lambda a, ai, b: T.mul(ai, T.mul(a, b)),
        "ip.right_return": lambda a, ai, b: T.mul(T.mul(b, ai), a),
        "ip.right_cancel": lambda a, ai, b: T.mul(T.mul(b, a), ai),
    }
    for law_id, eval_law in laws.items():
        acc = _ElemAccumulator(rep, law_id)
        for a, ai in inv.items():
            for b in range(n):
                acc.check_elems((a, b), eval_law(a, ai, b), b)
        acc.finish()
    return rep


def is_associative(T):
    """(ab)c = a(bc) for all triples; returns (flag, witness_triple)."""
    n = T.n
    for a in range(n):
        for b in range(n):
            ab = T.mul(a, b)
            arow = T.rows[a]
            for c in range(n):
                if T.mul(ab, c) != arow[T.mul(b, c)]:
                    return False, (a, b, c)
    return True, None


def loop_algebra(T, field=QQ):
    """Span of the loop: grouplike coproduct, counit 1, antipode inversion."""
    rep = check_ip_loop(T)
    if not rep.ok:
        bad = rep.failing()[0]
        raise NotIPLoop(f"law {bad.law_id} fails with witness "
                        f"{bad.witness.indices if bad.witness else None}")
    n = T.n
    f = field
    mu = Ten3.from_entries(
        f, n, ((i, j, T.mul(i, j), f.one) for i in range(n) for j in range(n)))
    delta = Ten3.from_entries(f, n, ((i, i, i, f.one) for i in range(n)))
    unit = Vec.basis(f, n, 0)
    counit = Vec(f, (f.one,) * n)
    anti = Mat(f, (n, n), ((T.inverse_of(a), a, f.one) for a in range(n)))
    return HopfQuasigroup(AlgebraData(mu, unit),
                          CoalgebraData(delta, counit), anti)


def search_ip_loops(n, want_nonassociative=False, limit=None):
    """Canonical reduced IP-loop tables of order n, exhaustively enumerated.

    With want_nonassociative=True only nonassociative tables are returned.
    Output is deduplicated up to relabeling of non-identity elements and
    sorted lexicographically, so repeated runs are identical.
    """
    if n > SEARCH_MAX_ORDER:
        raise BudgetExceeded(
            f"exhaustive search is budgeted for order <= {SEARCH_MAX_ORDER}")
    canon = {canonical_form(t) for t in enumerate_ip_tables(n)}
    tables = []
    for rows in sorted(canon):
        T = LoopTable(rows)
        if want_nonassociative and is_associative(T)[0]:
            continue
        tables.append(T)
    if limit is not None:
        tables = tables[:limit]
    return tables
