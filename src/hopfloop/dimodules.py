"""Long dimodules, their constructions, lemma identities and the D-equation.

Both variants share one type with a tag: the action/coaction compatibility
law is the same tensor equation in both cases, only the constituent
preconditions differ (quasimodule + comodule over a Hopf quasigroup,
module + quasicomodule over a Hopf coquasigroup).
"""

from .actions import (ActionData, CoactionData, check_comodule, check_module,
                      check_quasicomodule, check_quasimodule, diagonal_action,
                      tensor_coaction)
from .errors import DimMismatch, HMismatch
from .fields import check_same_field
from .report import LawAccumulator, VerificationReport
from .structures import HopfQuasigroup
from .tensors import Mat, pair_index

OVER_QUASIGROUP = "quasigroup"
OVER_COQUASIGROUP = "coquasigroup"


class LongDimodule:
    __slots__ = ("H", "act", "coact", "variant")

    def __init__(self, H, act, coact, variant=None):
        if variant is None:
            variant = (OVER_QUASIGROUP if isinstance(H, HopfQuasigroup)
                       else OVER_COQUASIGROUP)
        if variant not in (OVER_QUASIGROUP, OVER_COQUASIGROUP):
            raise ValueError(f"unknown variant {variant!r}")
        if act.m_dim != coact.m_dim:
            raise DimMismatch("action and coaction carrier dims differ")
        if act.h_dim != H.dim or coact.h_dim != H.dim:
            raise DimMismatch("action/coaction dims do not match H")
        check_same_field(H.field, act.field)
        check_same_field(H.field, coact.field)
        self.H = H
        self.act = act
        self.coact = coact
        self.variant = variant

    @property
    def dim(self):
        return self.act.m_dim

    @property
    def field(self):
        return self.H.field

    def __repr__(self):
        return f"LongDimodule(dim={self.dim}, variant={self.variant})"


def check_compatibility(D):
    """rho(h.m) = h.m^(0) (x) m^(1) over all basis pairs (law ldm1)."""
    f = D.field
    add, mul, n, nh = f.add, f.mul, D.dim, D.H.dim
    act, coact = D.act._pairs, D.coact._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "ldm1")
    for h in range(nh):
        lhs, rhs = {}, {}
        for m in range(n):
            base = m * n * nh
            for x, v in act(h, m):
                for (y, k), c in coact(x):
                    key, t = base + y * nh + k, mul(v, c)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
            for (m0, h1), c in coact(m):
                for x, v in act(h, m0):
                    key, t = base + x * nh + h1, mul(c, v)
                    rhs[key] = add(rhs[key], t) if key in rhs else t
        acc.check_slab((h,), lhs, rhs, (n,), (n, nh))
    acc.finish()
    return rep


def check_long_dimodule(D):
    """Variant-specific constituent checks plus the compatibility law."""
    rep = VerificationReport()
    if D.variant == OVER_QUASIGROUP:
        rep.extend(check_quasimodule(D.H, D.act))
        rep.extend(check_comodule(D.H, D.coact))
    else:
        rep.extend(check_module(D.H, D.act))
        rep.extend(check_quasicomodule(D.H, D.coact))
    rep.extend(check_compatibility(D))
    return rep


def build_from_quasimodule(H, act):
    """The dimodule on M (x) H: action on the M leg, coproduct on the H leg."""
    f = H.field
    n = H.dim
    m_dim = act.m_dim
    act_entries = []
    for h in range(n):
        for m in range(m_dim):
            for m2, c in act._pairs(h, m):
                for k in range(n):
                    act_entries.append(
                        (h, pair_index(m, k, n), pair_index(m2, k, n), c))
    co_entries = []
    for m in range(m_dim):
        for k in range(n):
            for (k1, k2), c in H.delta.split_pairs(k):
                co_entries.append((pair_index(m, k, n),
                                   pair_index(m, k1, n), k2, c))
    return LongDimodule(
        H,
        ActionData.from_entries(f, n, m_dim * n, act_entries),
        CoactionData.from_entries(f, m_dim * n, n, co_entries))


def build_from_comodule(H, coact):
    """The dimodule on H (x) M: product on the H leg, coaction on the M leg."""
    f = H.field
    n = H.dim
    m_dim = coact.m_dim
    act_entries = []
    for h in range(n):
        for k in range(n):
            for k2, c in H.mu.mul_pairs(h, k):
                for m in range(m_dim):
                    act_entries.append(
                        (h, pair_index(k, m, m_dim),
                         pair_index(k2, m, m_dim), c))
    co_entries = []
    for k in range(n):
        for m in range(m_dim):
            for (m2, h1), c in coact._pairs(m):
                co_entries.append((pair_index(k, m, m_dim),
                                   pair_index(k, m2, m_dim), h1, c))
    return LongDimodule(
        H,
        ActionData.from_entries(f, n, n * m_dim, act_entries),
        CoactionData.from_entries(f, n * m_dim, n, co_entries))


def trivial_coaction_dimodule(H, act):
    """Pair a (quasi)module with the coaction m -> m (x) 1."""
    return LongDimodule(H, act, CoactionData.trivial(H, act.m_dim))


def trivial_action_dimodule(H, coact):
    """Pair a (quasi)comodule with the action h . m = counit(h) m."""
    return LongDimodule(H, ActionData.trivial(H, coact.m_dim), coact)


def unit_dimodule(H):
    """The one-dimensional dimodule carried by the ground field."""
    f = H.field
    coact = CoactionData.from_entries(
        f, 1, H.dim, ((0, 0, h, c) for h, c in H.unit.nonzero()))
    act = ActionData.from_entries(
        f, H.dim, 1, ((h, 0, 0, H.counit[h]) for h in range(H.dim)))
    return LongDimodule(H, act, coact)


def _same_structure(H, K):
    return H is K or (H.same_tensors(K) and H.field == K.field)


def tensor_dimodule(D1, D2):
    """Diagonal action and multiplied coaction on the flattened product."""
    if not _same_structure(D1.H, D2.H):
        raise HMismatch("dimodules live over different Hopf structures")
    if D1.variant != D2.variant:
        raise HMismatch("dimodule variants differ")
    return LongDimodule(
        D1.H,
        diagonal_action(D1.H, D1.act, D2.act),
        tensor_coaction(D1.H, D1.coact, D2.coact),
        D1.variant)


def check_lemma_identities(D):
    """The two derived identities every valid dimodule satisfies.

    Law ids carry the variant: ldmp1/ldmp2 over a Hopf quasigroup,
    ldmcp1/ldmcp2 over a Hopf coquasigroup.
    """
    f = D.field
    H = D.H
    add, mul, n, nh = f.add, f.mul, D.dim, H.dim
    rep = VerificationReport()
    suffix = "p" if D.variant == OVER_QUASIGROUP else "cp"
    acc1 = LawAccumulator(rep, f, f"ldm{suffix}1")
    acc2 = LawAccumulator(rep, f, f"ldm{suffix}2")
    act, coact, anti = D.act._pairs, D.coact._pairs, H.antipode.column

    def coacted(u, base):
        """rho(u) for u = {k: coeff} in M, keyed base + m' * nh + h."""
        out = {}
        for k, a in u.items():
            for (y, h), c in coact(k):
                key, t = base + y * nh + h, mul(a, c)
                out[key] = add(out[key], t) if key in out else t
        return out

    for m in range(n):
        # S(m^(1)) . m^(0) by k, and S(m^(1)_(2)) . m^(0) (x) m^(1)_(1)
        # by k * nh + h1
        plain, split = {}, {}
        for (m0, h), c in coact(m):
            for x, s in anti(h):
                for k, v in act(x, m0):
                    t = mul(c, mul(s, v))
                    plain[k] = add(plain[k], t) if k in plain else t
            for (h1, h2), c2 in H.delta.split_pairs(h):
                cc = mul(c, c2)
                for x, s in anti(h2):
                    for k, v in act(x, m0):
                        key, t = k * nh + h1, mul(cc, mul(s, v))
                        split[key] = add(split[key], t) if key in split else t
        acc1.check_slab((m,), coacted(plain, 0), split, (), (n, nh))
        # The instances (h, m) of ldm2 are walked m outside h: the slab of
        # this m holds them all and leaves the other m's instances empty.
        lhs, rhs = {}, {}
        for h in range(nh):
            base = (h * n + m) * n * nh
            hplain = {}
            for x, c in plain.items():
                for y, v in act(h, x):
                    t = mul(c, v)
                    hplain[y] = add(hplain[y], t) if y in hplain else t
            lhs.update(coacted(hplain, base))
            for xh, c in split.items():
                x, h1 = divmod(xh, nh)
                for y, v in act(h, x):
                    key, t = base + y * nh + h1, mul(c, v)
                    rhs[key] = add(rhs[key], t) if key in rhs else t
        acc2.check_slab((), lhs, rhs, (nh, n), (n, nh))
    acc1.finish()
    acc2.finish()
    return rep


def _identity_law(rep, f, law_id, n, terms):
    """A law saying a map sends every e_m of an n-dim space to e_m, from
    the (m, k, coeff) terms of the image of each e_m; one slab."""
    add, out = f.add, {}
    for m, k, t in terms:
        key = m * n + k
        out[key] = add(out[key], t) if key in out else t
    acc = LawAccumulator(rep, f, law_id)
    acc.check_slab((), out, {m * n + m: f.one for m in range(n)}, (n,), (n,))
    acc.finish()


def check_adjunction(H, D):
    """Unit/counit data of the free-dimodule construction, element-wise.

    The unit is the coaction of D viewed as a map into the dimodule built on
    M (x) H; checked to be a morphism of dimodules.  The triangular
    identities reduce to counitality on both the dimodule and the
    quasimodule sides.  D must live over H (HMismatch otherwise).
    """
    if not _same_structure(H, D.H):
        raise HMismatch("the dimodule lives over a different Hopf structure")
    f = H.field
    add, mul, n, nd = f.add, f.mul, H.dim, D.dim
    rep = VerificationReport()
    free = build_from_quasimodule(H, D.act)
    nf = free.dim
    coact = D.coact._pairs
    linear = LawAccumulator(rep, f, "adj.unit_linear")
    colinear = LawAccumulator(rep, f, "adj.unit_colinear")
    for m in range(nd):
        im = [(pair_index(m0, h1, n), c) for (m0, h1), c in coact(m)]
        # unit_linear walks m outside h, as ldm2 does
        lhs, rhs = {}, {}
        for h in range(n):
            base = (h * nd + m) * nf
            # eta(h . m)
            for m1, a in D.act._pairs(h, m):
                for (m0, h1), c in coact(m1):
                    key, t = base + pair_index(m0, h1, n), mul(a, c)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
            # h . eta(m)
            for j, b in im:
                for k, c in free.act._pairs(h, j):
                    key, t = base + k, mul(b, c)
                    rhs[key] = add(rhs[key], t) if key in rhs else t
        linear.check_slab((), lhs, rhs, (n, nd), (nf,))
        lhs, rhs = {}, {}
        for j, a in im:
            for (j2, h2), c in free.coact._pairs(j):
                key, t = j2 * n + h2, mul(a, c)
                lhs[key] = add(lhs[key], t) if key in lhs else t
        for (m0, h1), c in coact(m):
            for (m00, h2), v in coact(m0):
                key, t = pair_index(m00, h2, n) * n + h1, mul(c, v)
                rhs[key] = add(rhs[key], t) if key in rhs else t
        colinear.check_slab((m,), lhs, rhs, (), (nf, n))
    linear.finish()
    colinear.finish()
    _identity_law(rep, f, "adj.triangle1", nd, (
        (m, m0, mul(c, H.counit[h1]))
        for m in range(nd) for (m0, h1), c in coact(m)))
    # second triangle on the free dimodule over the underlying quasimodule:
    # (sigma (x) id) o (id (x) delta) with sigma = id (x) counit
    _identity_law(rep, f, "adj.triangle2", nf, (
        (i, pair_index(j // n, h1, n), mul(c, H.counit[j % n]))
        for i in range(nf) for (j, h1), c in free.coact._pairs(i)))
    return rep


class RMap(Mat):
    """A linear endomorphism of M (x) M as a matrix on flattened pairs:
    R(e_j) = sum_i R[i, j] e_i."""

    def __init__(self, field, m_dim, entries):
        super().__init__(field, (m_dim * m_dim,) * 2, entries)
        self.m_dim = m_dim

    @property
    def dim(self):
        return self.m_dim * self.m_dim

    def is_identity(self):
        one = self.field.one
        return self.nz == {(j, j): one for j in range(self.dim)}


def d_map(D):
    """The candidate D-equation solution m (x) n -> n^(1) . m (x) n^(0)."""
    f = D.field
    nd = D.dim
    return RMap(f, nd, (
        (pair_index(m2, n0, nd), pair_index(m, n, nd), f.mul(c, v))
        for n in range(nd) for (n0, h), c in D.coact._pairs(n)
        for m in range(nd) for m2, v in D.act._pairs(h, m)))


def check_d_equation(R):
    """R12 R23 = R23 R12 on M (x) M (x) M, exactly.

    Both sides are read off R's nonzeros as two sparse contractions,

        (R12 R23)[xyz, lmn] = sum_m' R[(x, y), (l, m')] R[(m', z), (m, n)]
        (R23 R12)[xyz, lmn] = sum_y' R[(y, z), (y', n)] R[(x, y'), (l, m)],

    one slab of fixed l at a time: a slab maps the flat int of
    ((m, n), (x, y, z)) to its entry, so memory is one slab and never the
    whole nd^3 x nd^3 product.  Every slab is evaluated; the witness is the
    least (l, m, n) whose images differ, with both images keyed by
    (x, y, z) triples.
    """
    f = R.field
    add, mul = f.add, f.mul
    nd = R.m_dim
    nd2, nd3 = nd * nd, nd * nd * nd
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "eq.d")

    # A slab key is mn * nd^3 + xyz, both flattened row-major.  Group
    # R[(a, z), (m, n)] by a and R[(y, z), (b, n)] by b, each term carrying
    # its part of the key.
    by_out_first = [[] for _ in range(nd)]
    by_in_first = [[] for _ in range(nd)]
    for (i, j), v in R.nz.items():
        by_out_first[i // nd].append((j * nd3 + i % nd, v))
        by_in_first[j // nd].append((j % nd * nd3 + i, v))

    def slab(terms):
        out = {}
        for base, c, group in terms:
            for t, v in group:
                k = base + t
                p = mul(c, v)
                out[k] = add(out[k], p) if k in out else p
        return out

    for l in range(nd):
        lhs = slab((xy * nd, c, by_out_first[m2])
                   for m2 in range(nd)
                   for xy, c in R.column(pair_index(l, m2, nd)))
        rhs = slab((m * nd * nd3 + xy // nd * nd2, c, by_in_first[xy % nd])
                   for m in range(nd)
                   for xy, c in R.column(pair_index(l, m, nd)))
        acc.check_slab((l,), lhs, rhs, (nd, nd), (nd, nd, nd))
    acc.finish()
    return rep
