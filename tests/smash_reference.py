"""The smash product, smash coproduct, D-equation candidate, free
dimodules and tensor product of dimodules built by hand-written loops over
their defining formulas, as a reference.

`hopfloop.smash` and `hopfloop.dimodules` declare these maps as chains and
materialize them with `laws.build`; the loops here sum one entry per term
of each formula, are never used by the package, and are kept only so that
the declarations can be tested against them.
"""

from conftest import vector
from instance_reference import nonzeros, value

from hopfloop import (ActionData, CoactionData, HopfCoquasigroup,
                      HopfQuasigroup, LongDimodule, RMap, SparseTensor)


def smash_product(inp):
    """The candidate on A (x) H, built term by term."""
    H, A, pairs = inp.H, inp.A, inp.act._by_first_two
    f = H.field
    nA, nH = A.dim, H.dim
    n = nA * nH
    split, anti = H.delta._by_first, H.antipode._by_second

    mu_entries = []
    for a in range(nA):
        for h in range(nH):
            i = a * nH + h
            for b in range(nA):
                for g in range(nH):
                    j = b * nH + g
                    for (h1, h2), c in split[h]:
                        right = H.mu._by_first_two[h2][g]
                        # a (h1 . b) (x) h2 g, one entry per term
                        for z, v in pairs[h1][b]:
                            for x, w in A.mu._by_first_two[a][z]:
                                u = f.mul(v, w)
                                for y, v2 in right:
                                    mu_entries.append(
                                        (i, j, x * nH + y,
                                         f.mul(c, f.mul(u, v2))))
    unit = [f.zero] * n
    for a, ca in nonzeros(A.unit):
        for h, ch in nonzeros(H.unit):
            unit[a * nH + h] = f.mul(ca, ch)

    delta_entries = []
    counit = [f.zero] * n
    for a in range(nA):
        for h in range(nH):
            i = a * nH + h
            counit[i] = f.mul(value(A.counit, a), value(H.counit, h))
            for (a1, a2), ca in A.delta._by_first[a]:
                for (h1, h2), ch in split[h]:
                    delta_entries.append(
                        (i, a1 * nH + h1, a2 * nH + h2,
                         f.mul(ca, ch)))

    s_entries = []
    for a in range(nA):
        sa = A.antipode._by_second[a]
        for h in range(nH):
            j = a * nH + h
            for (h1, h2), c in split[h]:
                # S(h2) . S(a) (x) S(h1), one entry per term
                for z, s in anti[h2]:
                    for t, w in sa:
                        sw = f.mul(s, w)
                        for x, v in pairs[z][t]:
                            u = f.mul(sw, v)
                            for y, v1 in anti[h1]:
                                s_entries.append((x * nH + y, j,
                                                  f.mul(c, f.mul(u, v1))))

    return HopfQuasigroup(
        SparseTensor(f, (n,) * 3, mu_entries), vector(f, unit),
        SparseTensor(f, (n,) * 3, delta_entries), vector(f, counit),
        SparseTensor(f, (n, n), s_entries))


def smash_coproduct(inp):
    """The candidate on H (x) C, built term by term."""
    H, C, pairs = inp.H, inp.C, inp.coact._by_first
    f = H.field
    nH, nC = H.dim, C.dim
    n = nH * nC
    mul = H.mu._by_first_two

    mu_entries = []
    for h in range(nH):
        for g in range(nH):
            hg = mul[h][g]
            for c in range(nC):
                for d in range(nC):
                    cd = C.mu._by_first_two[c][d]
                    for x, u in hg:
                        for y, v in cd:
                            mu_entries.append(
                                (h * nC + c, g * nC + d,
                                 x * nC + y, f.mul(u, v)))
    unit = [f.zero] * n
    for h, ch in nonzeros(H.unit):
        for c, cc in nonzeros(C.unit):
            unit[h * nC + c] = f.mul(ch, cc)

    delta_entries = []
    counit = [f.zero] * n
    for h in range(nH):
        h_split = H.delta._by_first[h]
        for c in range(nC):
            i = h * nC + c
            counit[i] = f.mul(value(H.counit, h), value(C.counit, c))
            for (c1, c2), vc in C.delta._by_first[c]:
                for (c10, c11), w in pairs[c1]:
                    for (h1, h2), vh in h_split:
                        for y, u in mul[h2][c11]:
                            delta_entries.append(
                                (i, h1 * nC + c10,
                                 y * nC + c2,
                                 f.mul(vc, f.mul(w, f.mul(vh, u)))))

    s_entries = []
    for h in range(nH):
        for c in range(nC):
            j = h * nC + c
            for (c0, c1), v in pairs[c]:
                # S(h c1) (x) S(c0), one entry per term
                for z, a in mul[h][c1]:
                    for x, s in H.antipode._by_second[z]:
                        u = f.mul(a, s)
                        for y, w in C.antipode._by_second[c0]:
                            s_entries.append((x * nC + y, j,
                                              f.mul(v, f.mul(u, w))))

    return HopfCoquasigroup(
        SparseTensor(f, (n,) * 3, mu_entries), vector(f, unit),
        SparseTensor(f, (n,) * 3, delta_entries), vector(f, counit),
        SparseTensor(f, (n, n), s_entries))


def d_map(D):
    """m (x) n -> n^(1) . m (x) n^(0), built term by term."""
    f = D.field
    nd = D.dim
    return RMap(f, nd, (
        (m2 * nd + n0, m * nd + n, f.mul(c, v))
        for n in range(nd) for (n0, h), c in D.coact._by_first[n]
        for m in range(nd) for m2, v in D.act._by_first_two[h][m]))


def build_from_quasimodule(H, act):
    """The dimodule on M (x) H: action on the M leg, coproduct on the H leg."""
    f, n, m_dim = H.field, H.dim, act.m_dim
    return LongDimodule(
        H,
        ActionData.from_entries(f, n, m_dim * n, (
            (h, m * n + k, m2 * n + k, c)
            for (h, m, m2), c in act.nz.items() for k in range(n))),
        CoactionData.from_entries(f, m_dim * n, n, (
            (m * n + k, m * n + k1, k2, c)
            for m in range(m_dim) for (k, k1, k2), c in H.delta.nz.items())))


def build_from_comodule(H, coact):
    """The dimodule on H (x) M: product on the H leg, coaction on the M leg."""
    f, n, m_dim = H.field, H.dim, coact.m_dim
    return LongDimodule(
        H,
        ActionData.from_entries(f, n, n * m_dim, (
            (h, k * m_dim + m, k2 * m_dim + m, c)
            for (h, k, k2), c in H.mu.nz.items() for m in range(m_dim))),
        CoactionData.from_entries(f, n * m_dim, n, (
            (k * m_dim + m, k * m_dim + m2, h1, c)
            for k in range(n) for (m, m2, h1), c in coact.nz.items())))


def diagonal_action(H, act1, act2):
    """Action on the flattened M (x) N through the coproduct of H."""
    f = H.field
    n2 = act2.m_dim
    return ActionData.from_entries(
        f, H.dim, act1.m_dim * n2,
        ((h, m * n2 + n, m2 * n2 + np, f.mul(c, f.mul(c1, c2)))
         for h in range(H.dim)
         for (h1, h2), c in H.delta._by_first[h]
         for m in range(act1.m_dim)
         for m2, c1 in act1._by_first_two[h1][m]
         for n in range(n2)
         for np, c2 in act2._by_first_two[h2][n]))


def tensor_coaction(H, co1, co2):
    """Coaction on the flattened M (x) N, last legs multiplied in H."""
    f = H.field
    n2 = co2.m_dim
    return CoactionData.from_entries(
        f, co1.m_dim * n2, H.dim,
        ((m * n2 + n, mp * n2 + np, k, f.mul(f.mul(c1, c2), c))
         for m in range(co1.m_dim)
         for (mp, h1), c1 in co1._by_first[m]
         for n in range(n2)
         for (np, h2), c2 in co2._by_first[n]
         for k, c in H.mu._by_first_two[h1][h2]))


def tensor_dimodule(D1, D2):
    """Diagonal action and multiplied coaction on the flattened product."""
    return LongDimodule(D1.H, diagonal_action(D1.H, D1.act, D2.act),
                        tensor_coaction(D1.H, D1.coact, D2.coact))
