"""Long dimodules, their constructions, lemma identities and the D-equation.

One type serves both sides, its `variant` read from H: the action/coaction
compatibility law is the same tensor equation on both, only the constituent
preconditions differ (quasimodule + comodule over a Hopf quasigroup,
module + quasicomodule over a Hopf coquasigroup).  A dimodule is refused
when it is made unless its action and coaction fit H and one carrier
(`laws.legs`), and a bundle naming the other side of its H when it is read.

The compatibility, lemma and adjunction laws are declarations of
`hopfloop.laws` on legs H and A, A the dimodule's carrier M, checked by
`laws.evaluate`.  ldmp2, ldmcp2 and adj.unit_linear walk m outside h
(slab=1) and report (h, m); the adjunction laws read the free dimodule's
M (x) H as the legs (AH), whose witness index is one flat int.

The action and coaction of the free dimodules on M (x) H, legs (AH), and
H (x) M, legs (HA), and of the tensor product M (x) N, legs (AB), N the
second carrier B, are constructions of `hopfloop.laws` built by
`laws.build`, as is `d_map`, m (x) n -> n^(1) . m (x) n^(0) on legs (AA),
a matrix in (out, in) order.  When the action and the coaction send each
input to one basis tuple with coefficient one, `build` reads R off
integer rows with no field product, and R holds its basis_map(0).

eq.d is contracted by hand in `check_d_equation`: R is input data, not a
chain of structure maps.  When R sends basis vectors to basis vectors, as
the d_map of a dimodule with permutation action and grading coaction does,
the D-equation is decided on integer tables, from three identities on
pairs of basis indices, and the witness of the least failing slab is read
off the same integers.
"""

from itertools import compress, count
from math import isqrt
from operator import ne

from .actions import (ActionData, CoactionData, check_comodule, check_module,
                      check_quasicomodule, check_quasimodule)
from .errors import HMismatch, HopfloopError
from .laws import build, construction, evaluate, law, legs
from .report import VerificationReport, slab_witness
from .structures import HopfQuasigroup
from .tensors import SparseTensor, _composer

OVER_QUASIGROUP = "quasigroup"
OVER_COQUASIGROUP = "coquasigroup"


class LongDimodule:
    __slots__ = ("H", "act", "coact")

    def __init__(self, H, act, coact):
        legs(H, act=act, coact=coact)
        self.H = H
        self.act = act
        self.coact = coact

    @property
    def variant(self):
        return (OVER_QUASIGROUP if isinstance(self.H, HopfQuasigroup)
                else OVER_COQUASIGROUP)

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


def _dimodule(maps, H, **carriers):
    """The dimodule whose action and coaction are `maps` over H."""
    act, coact = (build(con, H, cls=cls, **carriers)
                  for con, cls in zip(maps, (ActionData, CoactionData)))
    return LongDimodule(H, act, coact)


def build_from_quasimodule(H, act):
    """The dimodule on M (x) H: action on the M leg, coproduct on the H leg."""
    return _dimodule(FREE_ON_MODULE, H, act=act)


def build_from_comodule(H, coact):
    """The dimodule on H (x) M: product on the H leg, coaction on the M leg."""
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


def tensor_dimodule(D1, D2):
    """Diagonal action and multiplied coaction on the flattened product."""
    if not D1.H.same_tensors(D2.H):
        raise HMismatch("dimodules live over different Hopf structures")
    if D1.variant != D2.variant:
        raise HMismatch("dimodule variants differ")
    return _dimodule(TENSOR, D1.H, act=D1.act, coact=D1.coact,
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
    adj.triangle2, all of the quasigroup side.  D must live over H
    (HMismatch otherwise) and over a Hopf quasigroup (HopfloopError).
    """
    if not H.same_tensors(D.H):
        raise HMismatch("the dimodule lives over a different Hopf structure")
    if D.variant == OVER_COQUASIGROUP:
        raise HopfloopError("no adjunction over a Hopf coquasigroup")
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
        return self.basis_map(0) == tuple(range(self.dim))


D_MAP = construction("d_map", "(AA)", "(AA)",
                     "coact@1 swap@1 swap@0 act@0")


def d_map(D):
    """The candidate D-equation solution m (x) n -> n^(1) . m (x) n^(0),
    built by the construction D_MAP.  When the action and the coaction
    send each input to one basis tuple, with coefficient one, R is read
    off integer rows and holds its `basis_map(0)`, and no field product
    is formed (`laws.build`)."""
    return build(D_MAP, D.H, act=D.act, coact=D.coact, cls=RMap)


def _first_failing_slab(r, nd):
    """The least l whose slab of eq.d fails, as (l,), or (), for the R
    with R(e_j) = e_r[j].

    Write R(e_m (x) e_n) = e_a(m,n) (x) e_b(m,n), (a, b) =
    divmod(r[m nd + n], nd).  R12 R23 e_lmn is the triple
    (a(l, a(m,n)), b(l, a(m,n)), b(m,n)) and R23 R12 e_lmn is
    (a(l,m), a(b(l,m), n), b(b(l,m), n)), so slab l holds exactly when,
    for every (m, n),

    (1) a(l, a(m,n)) = a(l, m): column a(m,n) of a equals column m at l;
    (2) b(l, a(m,n)) = a(b(l,m), n): row b(l,.) read through row a(m,.)
        is row a(b(l,m),.);
    (3) b(m,n) = b(b(l,m), n): row b(b(l,m),.) of b is row m.

    (1) fails first at the least index where two columns it equates
    differ; (2) and (3) depend on l only through row b(l,.), so they are
    decided once per distinct row.  Rows and columns are interned to int
    ids, and a d_map of basis (co)actions has one distinct row of b, so
    the check is O(nd^2) where comparing the nd^3 triples is not.
    """
    q = tuple([v // nd for v in r])
    s = tuple([v % nd for v in r])
    a = [q[m * nd:(m + 1) * nd] for m in range(nd)]
    b = [s[m * nd:(m + 1) * nd] for m in range(nd)]
    after = list(map(_composer, a))
    # (1); a column's id, and below a row's, is the index of its first copy
    columns = list(zip(*a))
    cid = tuple(map({}.setdefault, columns, count()))
    first = nd
    for x, f in zip(cid, after):
        for y in set(f(cid)):
            if y != x:
                differs = list(map(ne, columns[x], columns[y]))
                first = min(first, differs.index(True))
    # (3), then (2), once per distinct row b(l,.)
    rid = tuple(map({}.setdefault, b, count()))
    holds = {}
    for l in range(first):
        k = rid[l]
        if k not in holds:
            row = b[k]
            holds[k] = _composer(row)(rid) == rid and all(
                [f(row) == a[y] for f, y in zip(after, row)])
        if not holds[k]:
            return (l,)
    return (first,) if first < nd else ()


def _basis_witness(f, r, nd, l):
    """The witness of eq.d at the failing slab l for the R with
    R(e_j) = e_r[j].  Each side of e_lmn is one basis triple with
    coefficient one, the flat int x nd^2 + y nd + z: R12 R23 e_lmn is
    r[l nd + m'] nd + z with (m', z) = divmod(r[m nd + n], nd), and
    R23 R12 e_lmn is x nd^2 + r[y' nd + n] with (x, y') =
    divmod(r[l nd + m], nd).  Only the least differing (m, n) goes to
    `slab_witness`.  It stays beside `_first_witness`: contracting slab l
    there gives the same witness, but makes R's nonzeros, which a basis R
    never needs, and took 3 to 11 times as long on carrier dims 7 to 144."""
    row = r[l * nd:(l + 1) * nd]
    lhs = [row[v // nd] * nd + v % nd for v in r]
    rhs = [u // nd * nd * nd + v for u in row
           for v in r[u % nd * nd:(u % nd + 1) * nd]]
    mn = next(compress(count(), map(ne, lhs, rhs)))
    key = mn * nd ** 3
    return slab_witness(f, (l,), {key + lhs[mn]: f.one},
                        {key + rhs[mn]: f.one}, (nd, nd), (nd, nd, nd))


def _first_witness(R):
    """The witness of eq.d at the first slab that fails, or None; no later
    slab is contracted."""
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
    for l in range(nd):
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

    When R is a basis map (`R.basis_map(0)`), R(e_m (x) e_n) =
    e_a(m,n) (x) e_b(m,n) and each image is one basis triple with
    coefficient one, so slab l holds exactly when three identities hold
    for every pair (m, n) (`_first_failing_slab`):

        (1) a(l, a(m,n)) = a(l, m)
        (2) b(l, a(m,n)) = a(b(l,m), n)
        (3) b(m,n) = b(b(l,m), n).

    These are decided on integer rows and columns in O(nd^2) on a d_map,
    and the witness of the least failing slab, the first slab that fails
    in the contraction, is read off r (`_basis_witness`).  Any other R
    contracts the slabs in order up to the first that fails.  The d_map of
    a basis dimodule holds r from when it is made (`d_map`), so nothing
    is transposed or sorted here, and R's nonzeros are never made.
    """
    nd = R.m_dim
    r = R.basis_map(0)
    if r is None:
        witness = _first_witness(R)
    else:
        slabs = _first_failing_slab(r, nd)
        witness = _basis_witness(R.field, r, nd, *slabs) if slabs else None
    rep = VerificationReport()
    rep.add("eq.d", witness is None, witness)
    return rep
