"""The D-equation evaluated one basis triple at a time, as a reference.

This is the direct reading of R12 R23 = R23 R12: for each basis triple
(l, m, n) in lexicographic order, apply R23 then R12 (and R12 then R23) to
e_l (x) e_m (x) e_n and compare the two sparse results.  It is slow (two
fresh dicts per triple) and is kept only so that `check_d_equation` can be
tested against it.
"""

from instance_reference import LawAccumulator, sadd

from hopfloop.report import VerificationReport


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
