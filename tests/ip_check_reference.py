"""`check_ip_loop` as it was before it compared whole rows: each IP law
evaluated with two `LoopTable.mul` calls per (a, b) pair.

Kept only as the reference of a differential test: reports must be
byte-identical in JSON.
"""

from instance_reference import _ElemAccumulator

from hopfloop.report import VerificationReport


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
                v = eval_law(a, ai, b)
                if v != b and not acc.failed:
                    acc.check_elems((a, b), v, b)
        acc.finish()
    return rep
