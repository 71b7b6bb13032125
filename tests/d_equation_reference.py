"""The D-equation evaluated one basis triple at a time, as a reference.

This is the direct reading of R12 R23 = R23 R12: for each basis triple
(l, m, n) in lexicographic order, apply R23 then R12 (and R12 then R23) to
e_l (x) e_m (x) e_n and compare the two sparse results.  It is slow (two
fresh dicts per triple) and is kept only so that `check_d_equation` can be
tested against it.

`first_failing_slab_flat` is the earlier slab picker of
`check_d_equation` on basis maps: it builds both sides of each slab as nd^2
flat ints, nd^3 in all, and is kept so that the picker that decides the
three pair identities can be tested against it.
"""

import operator

from instance_reference import LawAccumulator, sadd

from hopfloop.report import VerificationReport
from hopfloop.tensors import _composer


def check_d_equation_per_triple(R):
    f = R.field
    nd = R.m_dim
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "eq.d")

    def apply12(vec):
        out = {}
        for (l, m, n_), c in vec.items():
            for k, v in R._by_second[l * nd + m]:
                l2, m2 = divmod(k, nd)
                sadd(f, out, (l2, m2, n_), f.mul(c, v))
        return out

    def apply23(vec):
        out = {}
        for (l, m, n_), c in vec.items():
            for k, v in R._by_second[m * nd + n_]:
                m2, n2 = divmod(k, nd)
                sadd(f, out, (l, m2, n2), f.mul(c, v))
        return out

    for l in range(nd):
        for m in range(nd):
            for n_ in range(nd):
                r23, r12 = {}, {}
                for k, v in R._by_second[m * nd + n_]:
                    sadd(f, r23, (l,) + divmod(k, nd), v)
                for k, v in R._by_second[l * nd + m]:
                    sadd(f, r12, divmod(k, nd) + (n_,), v)
                acc.check((l, m, n_), apply12(r23), apply23(r12))
    acc.finish()
    return rep


def first_failing_slab_flat(r, nd):
    """The least l whose slab of eq.d fails, as (l,), or (), for the R
    with R(e_j) = e_r[j].  Both sides of slab l are flat ints
    x nd^2 + y nd + z over (m, n): R12 R23 e_lmn is r[l nd + m'] nd + z
    with (m', z) = divmod(r[m nd + n], nd), and R23 R12 e_lmn is
    x nd^2 + r[y' nd + n] with (x, y') = divmod(r[l nd + m], nd)."""
    inner = _composer([v // nd for v in r])
    zs = [v % nd for v in r]
    rows = [r[y * nd:(y + 1) * nd] for y in range(nd)]
    scaled = [[v * nd for v in row] for row in rows]
    xs = [[v // nd * nd * nd for v in row] for row in rows]
    for l in range(nd):
        lhs = list(map(operator.add, inner(scaled[l]), zs))
        rhs = [x + v for x, u in zip(xs[l], rows[l]) for v in rows[u % nd]]
        if lhs != rhs:
            return (l,)
    return ()
