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
from .report import LawAccumulator, VerificationReport
from .structures import HopfQuasigroup
from .tensors import Mat, pair_index, sadd

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
    act, coact = D.act._pairs, D.coact._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "ldm1")
    for h in range(D.H.dim):
        for m in range(D.dim):
            lhs, rhs = {}, {}
            for x, v in act(h, m):
                for mh, c in coact(x):
                    sadd(f, lhs, mh, f.mul(v, c))
            for (m0, h1), c in coact(m):
                for x, v in act(h, m0):
                    sadd(f, rhs, (x, h1), f.mul(c, v))
            acc.check((h, m), lhs, rhs)
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


def tensor_dimodule(D1, D2):
    """Diagonal action and multiplied coaction on the flattened product."""
    if D1.H is not D2.H and not (
            D1.H.same_tensors(D2.H) and D1.H.field == D2.H.field):
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
    rep = VerificationReport()
    suffix = "p" if D.variant == OVER_QUASIGROUP else "cp"
    acc1 = LawAccumulator(rep, f, f"ldm{suffix}1")
    acc2 = LawAccumulator(rep, f, f"ldm{suffix}2")

    act, anti = D.act._pairs, H.antipode.column

    def inner(m):
        """S(m^(1)) . m^(0) and its split form S(m^(1)_(2)) . m^(0) (x) m^(1)_(1)."""
        plain, split = {}, {}
        for (m0, h), c in D.coact._pairs(m):
            for x, s in anti(h):
                for k, v in act(x, m0):
                    sadd(f, plain, (k,), f.mul(c, f.mul(s, v)))
            for (h1, h2), c2 in H.delta.split_pairs(h):
                cc = f.mul(c, c2)
                for x, s in anti(h2):
                    for k, v in act(x, m0):
                        sadd(f, split, (k, h1), f.mul(cc, f.mul(s, v)))
        return plain, split

    for m in range(D.dim):
        plain, split = inner(m)
        acc1.check((m,), D.coact.coact(plain), split)
        for h in range(H.dim):
            hplain, rhs = {}, {}
            for (x,), c in plain.items():
                for y, v in act(h, x):
                    sadd(f, hplain, (y,), f.mul(c, v))
            for (x, h1), c in split.items():
                for y, v in act(h, x):
                    sadd(f, rhs, (y, h1), f.mul(c, v))
            lhs = D.coact.coact(hplain)
            acc2.check((h, m), lhs, rhs)
    acc1.finish()
    acc2.finish()
    return rep


def check_adjunction(H, D):
    """Unit/counit data of the free-dimodule construction, element-wise.

    The unit is the coaction of D viewed as a map into the dimodule built on
    M (x) H; checked to be a morphism of dimodules.  The triangular
    identities reduce to counitality on both the dimodule and the
    quasimodule sides.
    """
    f = H.field
    rep = VerificationReport()
    n = H.dim
    free = build_from_quasimodule(H, D.act)
    coact = D.coact._pairs

    def eta(u):  # (m, coeff) pairs of M -> sparse element of M (x) H
        out = {}
        for m, a in u:
            for (m0, h1), c in coact(m):
                sadd(f, out, (pair_index(m0, h1, n),), f.mul(a, c))
        return out

    linear = LawAccumulator(rep, f, "adj.unit_linear")
    colinear = LawAccumulator(rep, f, "adj.unit_colinear")
    for m in range(D.dim):
        im = {(pair_index(m0, h1, n),): c for (m0, h1), c in coact(m)}
        for h in range(n):
            him = {}
            for (j,), b in im.items():
                for k, c in free.act._pairs(h, j):
                    sadd(f, him, (k,), f.mul(b, c))
            linear.check((h, m), eta(D.act._pairs(h, m)), him)
        lhs = free.coact.coact(im)
        rhs = {}
        for (m0, h1), c in coact(m):
            for (m00, h2), v in coact(m0):
                sadd(f, rhs, (pair_index(m00, h2, n), h1), f.mul(c, v))
        colinear.check((m,), lhs, rhs)
    linear.finish()
    colinear.finish()

    tri1 = LawAccumulator(rep, f, "adj.triangle1")
    for m in range(D.dim):
        out = {}
        for (m0, h1), c in coact(m):
            sadd(f, out, (m0,), f.mul(c, H.counit[h1]))
        tri1.check((m,), out, {(m,): f.one})
    tri1.finish()

    # second triangle on the free dimodule over the underlying quasimodule
    tri2 = LawAccumulator(rep, f, "adj.triangle2")
    for i in range(free.dim):
        # (sigma (x) id) o (id (x) delta) with sigma = id (x) counit
        collapsed = {}
        for (j, h1), c in free.coact._pairs(i):
            m0, k1 = divmod(j, n)
            sadd(f, collapsed, (pair_index(m0, h1, n),),
                 f.mul(c, H.counit[k1]))
        tri2.check((i,), collapsed, {(i,): f.one})
    tri2.finish()
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
    """R12 R23 = R23 R12 on M (x) M (x) M, exactly, streamed basis triple
    by basis triple; a witness is keyed by (l, m, n) triples."""
    f = R.field
    nd = R.m_dim
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "eq.d")

    def apply12(vec):
        out = {}
        for (l, m, n_), c in vec.items():
            for k, v in R.column(pair_index(l, m, nd)):
                l2, m2 = divmod(k, nd)
                sadd(f, out, (l2, m2, n_), f.mul(c, v))
        return out

    def apply23(vec):
        out = {}
        for (l, m, n_), c in vec.items():
            for k, v in R.column(pair_index(m, n_, nd)):
                m2, n2 = divmod(k, nd)
                sadd(f, out, (l, m2, n2), f.mul(c, v))
        return out

    for l in range(nd):
        for m in range(nd):
            for n_ in range(nd):
                r23, r12 = {}, {}
                for k, v in R.column(pair_index(m, n_, nd)):
                    sadd(f, r23, (l,) + divmod(k, nd), v)
                for k, v in R.column(pair_index(l, m, nd)):
                    sadd(f, r12, divmod(k, nd) + (n_,), v)
                acc.check((l, m, n_), apply12(r23), apply23(r12))
    acc.finish()
    return rep
