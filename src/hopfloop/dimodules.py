"""Long dimodules, their constructions, lemma identities and the D-equation.

Both variants share one type with a tag: the action/coaction compatibility
law is the same tensor equation in both cases, only the constituent
preconditions differ (quasimodule + comodule over a Hopf quasigroup,
module + quasicomodule over a Hopf coquasigroup).

The compatibility, lemma and adjunction laws are declarations of
`hopfloop.laws` on legs H and A, A the dimodule's carrier M, checked by
`laws.evaluate`.  ldmp2, ldmcp2 and adj.unit_linear walk m outside h
(slab=1) and report (h, m); the adjunction laws read the free dimodule's
M (x) H as the legs (AH), whose witness index is one flat int.

The action and coaction of the free dimodules on M (x) H, legs (AH), and
H (x) M, legs (HA), and of the tensor product M (x) N, legs (AB), N the
second carrier B, are constructions of `hopfloop.laws` built by
`laws.build`, as is `d_map`, m (x) n -> n^(1) . m (x) n^(0) on legs (AA).

eq.d is contracted by hand in `check_d_equation`: R is input data, not a
chain of structure maps.  When R sends basis vectors to basis vectors, as
the d_map of a dimodule with permutation action and grading coaction does,
the D-equation is first decided on integer tables, and only the least
failing slab is contracted for its witness.
"""

import operator
from math import isqrt

from .actions import (ActionData, CoactionData, _require_action_dims,
                      _require_coaction_dims, check_comodule, check_module,
                      check_quasicomodule, check_quasimodule)
from .errors import DimMismatch, HMismatch
from .fields import check_same_field
from .laws import build, construction, evaluate, law
from .report import VerificationReport, slab_witness
from .structures import HopfQuasigroup
from .tensors import SparseTensor, _composer

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


COMPATIBILITY = (
    law("ldm1", "HA", "AH", "act@0 coact@0", "coact@1 act@0"),)


def _lemma(suffix):
    # rho(S(m^(1)).m^(0)) = S(m^(1)_(2)).m^(0) (x) m^(1)_(1), and the same
    # with h acting on both sides
    return (
        law(f"ldm{suffix}1", "A", "AH", "coact@0 S@1 swap@0 act@0 coact@0",
            "coact@0 delta@1 S@2 swap@1 swap@0 act@0"),
        law(f"ldm{suffix}2", "HA", "AH",
            "coact@1 S@2 swap@1 act@1 act@0 coact@0",
            "coact@1 delta@2 S@3 swap@2 swap@1 act@1 act@0", slab=1))


LEMMA = {OVER_QUASIGROUP: _lemma("p"), OVER_COQUASIGROUP: _lemma("cp")}

ADJUNCTION = (
    # eta(h.m) = h.eta(m), eta = rho: M -> M (x) H
    law("adj.unit_linear", "HA", "(AH)", "act@0 coact@0", "coact@1 act@0",
        slab=1),
    # (eta (x) id) rho = (id (x) delta) eta
    law("adj.unit_colinear", "A", "(AH)H", "coact@0 delta@1",
        "coact@0 coact@0"),
    law("adj.triangle1", "A", "A", "coact@0 eps@1", ""),
    # (id (x) eps (x) id)(id (x) delta) = id on M (x) H
    law("adj.triangle2", "(AH)", "(AH)", "delta@1 eps@1", ""),
)


def check_compatibility(D):
    """rho(h.m) = h.m^(0) (x) m^(1) over all basis pairs (law ldm1)."""
    return evaluate(COMPATIBILITY, D.H, act=D.act, coact=D.coact)


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


FREE_ON_MODULE = (
    construction("free_mh.act", "H(AH)", "(AH)", "act@0"),
    construction("free_mh.coact", "(AH)", "(AH)H", "delta@1"))
FREE_ON_COMODULE = (
    construction("free_hm.act", "H(HA)", "(HA)", "mu@0"),
    construction("free_hm.coact", "(HA)", "(HA)H", "coact@1"))
TENSOR = (
    construction("tensor.act", "H(AB)", "(AB)",
                 "delta@0 swap@1 act@0 act_B@1"),
    construction("tensor.coact", "(AB)", "(AB)H",
                 "coact@0 coact_B@2 swap@1 mu@2"))


def _dimodule(maps, H, variant=None, **carriers):
    """The dimodule whose action and coaction are `maps` over H."""
    act, coact = (build(con, H, cls=cls, **carriers)
                  for con, cls in zip(maps, (ActionData, CoactionData)))
    return LongDimodule(H, act, coact, variant)


def build_from_quasimodule(H, act):
    """The dimodule on M (x) H: action on the M leg, coproduct on the H leg."""
    _require_action_dims(H, act)
    return _dimodule(FREE_ON_MODULE, H, act=act)


def build_from_comodule(H, coact):
    """The dimodule on H (x) M: product on the H leg, coaction on the M leg."""
    _require_coaction_dims(H, coact)
    return _dimodule(FREE_ON_COMODULE, H, coact=coact)


def trivial_coaction_dimodule(H, act):
    """Pair a (quasi)module with the coaction m -> m (x) 1."""
    return LongDimodule(H, act, CoactionData.trivial(H, act.m_dim))


def trivial_action_dimodule(H, coact):
    """Pair a (quasi)comodule with the action h . m = counit(h) m."""
    return LongDimodule(H, ActionData.trivial(H, coact.m_dim), coact)


def unit_dimodule(H):
    """The one-dimensional dimodule carried by the ground field: the
    trivial action and coaction on a carrier of dim 1."""
    return LongDimodule(H, ActionData.trivial(H, 1),
                        CoactionData.trivial(H, 1))


def _same_structure(H, K):
    return H is K or H.same_tensors(K)


def tensor_dimodule(D1, D2):
    """Diagonal action and multiplied coaction on the flattened product."""
    if not _same_structure(D1.H, D2.H):
        raise HMismatch("dimodules live over different Hopf structures")
    if D1.variant != D2.variant:
        raise HMismatch("dimodule variants differ")
    return _dimodule(TENSOR, D1.H, D1.variant, act=D1.act, coact=D1.coact,
                     act_B=D2.act, coact_B=D2.coact)


def check_lemma_identities(D):
    """The two derived identities of the lemma, on every basis tuple.

    Law ids carry the variant: ldmp1/ldmp2 over a Hopf quasigroup,
    ldmcp1/ldmcp2 over a Hopf coquasigroup.  The two pairs are the same
    equations.  Every valid dimodule over a Hopf quasigroup satisfies
    ldmp1 and ldmp2: their derivation uses the coassociativity of the
    coaction.  A quasicomodule lacks it, and a valid dimodule over a Hopf
    coquasigroup may fail ldmcp1 and ldmcp2 (the free H (x) M dimodule
    over the dual of a nonassociative loop algebra does).
    """
    return evaluate(LEMMA[D.variant], D.H, act=D.act, coact=D.coact)


def check_adjunction(H, D):
    """Unit/counit data of the free-dimodule construction, element-wise.

    The unit is the coaction of D viewed as a map into the free dimodule
    on M (x) H, action on the M leg and coproduct on the H leg; each law
    is read on M and H directly, and the free dimodule is not built.
    adj.unit_linear says the unit is linear: it is ldm1 walked m outside
    h.  adj.unit_colinear says it is colinear: it is comod.coassoc with
    its sides swapped.  The triangular identities are counitality on the
    dimodule side, adj.triangle1 (comod.counital), and on the free side,
    adj.triangle2.  D must live over H (HMismatch otherwise).
    """
    if not _same_structure(H, D.H):
        raise HMismatch("the dimodule lives over a different Hopf structure")
    return evaluate(ADJUNCTION, H, act=D.act, coact=D.coact)


class RMap(SparseTensor):
    """A linear endomorphism of M (x) M as a matrix on flattened pairs:
    R(e_j) = sum_i R[i, j] e_i."""

    def __init__(self, field, m_dim, entries):
        super().__init__(field, (m_dim * m_dim,) * 2, entries)

    @property
    def m_dim(self):
        return isqrt(self.dims[0])

    @property
    def dim(self):
        return self.dims[0]

    def is_identity(self):
        one = self.field.one
        return self.nz == {(j, j): one for j in range(self.dim)}


D_MAP = construction("d_map", "(AA)", "(AA)",
                     "coact@1 swap@1 swap@0 act@0")


def d_map(D):
    """The candidate D-equation solution m (x) n -> n^(1) . m (x) n^(0)."""
    return build(D_MAP, D.H, act=D.act, coact=D.coact, cls=RMap).transpose()


def _first_failing_slab(r, nd):
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


def _first_witness(R, slabs):
    """The witness of eq.d at the first of `slabs` that fails, or None;
    no later slab is contracted."""
    f = R.field
    add, mul = f.add, f.mul
    nd = R.m_dim
    nd2, nd3 = nd * nd, nd * nd * nd

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

    columns = R._by_second
    for l in slabs:
        lhs = slab((xy * nd, c, by_out_first[m2])
                   for m2 in range(nd)
                   for xy, c in columns[l * nd + m2])
        rhs = slab((m * nd * nd3 + xy // nd * nd2, c, by_in_first[xy % nd])
                   for m in range(nd)
                   for xy, c in columns[l * nd + m])
        if lhs != rhs:
            witness = slab_witness(f, (l,), lhs, rhs, (nd, nd), (nd, nd, nd))
            if witness is not None:
                return witness
    return None


def check_d_equation(R):
    """R12 R23 = R23 R12 on M (x) M (x) M, exactly.

    Both sides are read off R's nonzeros as two sparse contractions,

        (R12 R23)[xyz, lmn] = sum_m' R[(x, y), (l, m')] R[(m', z), (m, n)]
        (R23 R12)[xyz, lmn] = sum_y' R[(y, z), (y', n)] R[(x, y'), (l, m)],

    one slab of fixed l at a time: a slab maps the flat int of
    ((m, n), (x, y, z)) to its entry, so memory is one slab and never the
    whole nd^3 x nd^3 product.  The witness is the least (l, m, n) whose
    images differ, with both images keyed by (x, y, z) triples.

    When R is a basis map (`R.basis_map(0)`), each image is one basis
    triple with coefficient one, so the slabs are first compared as lists
    of ints, and only the least failing slab, or none, is contracted: it
    is the first slab that fails in the contraction, which alone gives the
    verdict and the witness.  Any other R contracts the slabs in order up
    to the first that fails.
    """
    nd = R.m_dim
    r = R.basis_map(0)
    slabs = range(nd) if r is None else _first_failing_slab(r, nd)
    witness = _first_witness(R, slabs) if slabs else None
    rep = VerificationReport()
    rep.add("eq.d", witness is None, witness)
    return rep
