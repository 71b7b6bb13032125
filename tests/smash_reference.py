"""The smash product, smash coproduct and D-equation candidate built by
hand-written loops over their defining formulas, as a reference.

`hopfloop.smash` and `hopfloop.dimodules` declare these maps as chains and
materialize them with `laws.build`; the loops here sum one entry per term
of each formula, are never used by the package, and are kept only so that
the declarations can be tested against them.
"""

from hopfloop import (AlgebraData, CoalgebraData, HopfCoquasigroup,
                      HopfQuasigroup, Mat, RMap, Ten3, Vec)
from hopfloop.tensors import pair_index


def smash_product(inp):
    """The candidate on A (x) H, built term by term."""
    H, A, pairs = inp.H, inp.A, inp.act._pairs
    f = H.field
    nA, nH = A.dim, H.dim
    n = nA * nH
    split, anti = H.delta.split_pairs, H.antipode.column

    mu_entries = []
    for a in range(nA):
        for h in range(nH):
            i = pair_index(a, h, nH)
            for b in range(nA):
                for g in range(nH):
                    j = pair_index(b, g, nH)
                    for (h1, h2), c in split(h):
                        right = H.mu.mul_pairs(h2, g)
                        # a (h1 . b) (x) h2 g, one entry per term
                        for z, v in pairs(h1, b):
                            for x, w in A.mu.mul_pairs(a, z):
                                u = f.mul(v, w)
                                for y, v2 in right:
                                    mu_entries.append(
                                        (i, j, pair_index(x, y, nH),
                                         f.mul(c, f.mul(u, v2))))
    unit = [f.zero] * n
    for a, ca in A.unit.nonzero():
        for h, ch in H.unit.nonzero():
            unit[pair_index(a, h, nH)] = f.mul(ca, ch)

    delta_entries = []
    counit = [f.zero] * n
    for a in range(nA):
        for h in range(nH):
            i = pair_index(a, h, nH)
            counit[i] = f.mul(A.counit[a], H.counit[h])
            for (a1, a2), ca in A.delta.split_pairs(a):
                for (h1, h2), ch in split(h):
                    delta_entries.append(
                        (i, pair_index(a1, h1, nH), pair_index(a2, h2, nH),
                         f.mul(ca, ch)))

    s_entries = []
    for a in range(nA):
        sa = A.antipode.column(a)
        for h in range(nH):
            j = pair_index(a, h, nH)
            for (h1, h2), c in split(h):
                # S(h2) . S(a) (x) S(h1), one entry per term
                for z, s in anti(h2):
                    for t, w in sa:
                        sw = f.mul(s, w)
                        for x, v in pairs(z, t):
                            u = f.mul(sw, v)
                            for y, v1 in anti(h1):
                                s_entries.append((pair_index(x, y, nH), j,
                                                  f.mul(c, f.mul(u, v1))))

    return HopfQuasigroup(
        AlgebraData(Ten3.from_entries(f, n, mu_entries), Vec(f, unit)),
        CoalgebraData(Ten3.from_entries(f, n, delta_entries),
                      Vec(f, counit)),
        Mat(f, (n, n), s_entries))


def smash_coproduct(inp):
    """The candidate on H (x) C, built term by term."""
    H, C, pairs = inp.H, inp.C, inp.coact._pairs
    f = H.field
    nH, nC = H.dim, C.dim
    n = nH * nC
    mul = H.mu.mul_pairs

    mu_entries = []
    for h in range(nH):
        for g in range(nH):
            hg = mul(h, g)
            for c in range(nC):
                for d in range(nC):
                    cd = C.mu.mul_pairs(c, d)
                    for x, u in hg:
                        for y, v in cd:
                            mu_entries.append(
                                (pair_index(h, c, nC), pair_index(g, d, nC),
                                 pair_index(x, y, nC), f.mul(u, v)))
    unit = [f.zero] * n
    for h, ch in H.unit.nonzero():
        for c, cc in C.unit.nonzero():
            unit[pair_index(h, c, nC)] = f.mul(ch, cc)

    delta_entries = []
    counit = [f.zero] * n
    for h in range(nH):
        h_split = H.delta.split_pairs(h)
        for c in range(nC):
            i = pair_index(h, c, nC)
            counit[i] = f.mul(H.counit[h], C.counit[c])
            for (c1, c2), vc in C.delta.split_pairs(c):
                for (c10, c11), w in pairs(c1):
                    for (h1, h2), vh in h_split:
                        for y, u in mul(h2, c11):
                            delta_entries.append(
                                (i, pair_index(h1, c10, nC),
                                 pair_index(y, c2, nC),
                                 f.mul(vc, f.mul(w, f.mul(vh, u)))))

    s_entries = []
    for h in range(nH):
        for c in range(nC):
            j = pair_index(h, c, nC)
            for (c0, c1), v in pairs(c):
                # S(h c1) (x) S(c0), one entry per term
                for z, a in mul(h, c1):
                    for x, s in H.antipode.column(z):
                        u = f.mul(a, s)
                        for y, w in C.antipode.column(c0):
                            s_entries.append((pair_index(x, y, nC), j,
                                              f.mul(v, f.mul(u, w))))

    return HopfCoquasigroup(
        AlgebraData(Ten3.from_entries(f, n, mu_entries), Vec(f, unit)),
        CoalgebraData(Ten3.from_entries(f, n, delta_entries),
                      Vec(f, counit)),
        Mat(f, (n, n), s_entries))


def d_map(D):
    """m (x) n -> n^(1) . m (x) n^(0), built term by term."""
    f = D.field
    nd = D.dim
    return RMap(f, nd, (
        (pair_index(m2, n0, nd), pair_index(m, n, nd), f.mul(c, v))
        for n in range(nd) for (n0, h), c in D.coact._pairs(n)
        for m in range(nd) for m2, v in D.act._pairs(h, m)))
