"""Hopf quasigroups and coquasigroups as structure-constant tensors.

A structure is its five maps over one exact field, each a plain
`SparseTensor`: the product mu and coproduct delta of dims (n, n, n), the
unit and counit of dims (n,), and the antipode matrix of dims (n, n).
Each of its 22 laws is declared as an equation between two chains of mu,
delta, S, eta and eps (`hopfloop.laws`) and checked by `laws.evaluate` over
every basis tuple, with a witness on the first mismatch per law.

Four law families are first read on integer tables when the tensors they
read are basis maps, each input going to one basis vector with coefficient
one, as on loop algebras, their duals and the smash (co)products built
from them:

* assoc, when mu is a basis map (a magma algebra);
* quasi*, when mu and S are basis maps, delta is grouplike
  (delta(e_i) = e_i (x) e_i) and the counit is 1 on every basis vector;
* coassoc, when the transpose of delta is a basis map (the dual is a
  magma algebra);
* coq*, when the dual meets the quasi* condition: delta and S transpose to
  basis maps, e_i e_j = [i = j] e_i and the unit is the sum of the basis.

bialg.delta_mult holds outright when mu is a basis map and delta is
grouplike, or dually.  One rule covers all of these: the tables only pick
the slabs that can fail, the first failing one or none, and `evaluate`
gives every verdict and witness from the declarations, as it does for
every other structure.
"""

from itertools import compress
from operator import ne

from .errors import DimMismatch
from .fields import check_same_field
from .laws import evaluate, law
from .report import VerificationReport
from .tensors import (SparseTensor, assoc_mismatches, assoc_sides,
                      mismatches, quasi_rows)


class HopfStructure:
    """A Hopf quasigroup or coquasigroup: its five maps mu, unit, delta,
    counit and antipode on one space of dim `dim` over `field`."""

    def __init__(self, mu, unit, delta, counit, antipode):
        for name, t in (("mu", mu), ("delta", delta)):
            if len(t.dims) != 3 or len(set(t.dims)) != 1:
                raise DimMismatch(f"{name} dims {t.dims} are not (n, n, n)")
        n = mu.dims[0]
        if unit.dims != (n,):
            raise DimMismatch("mu/unit dims differ")
        check_same_field(mu.field, unit.field)
        if counit.dims != delta.dims[:1]:
            raise DimMismatch("delta/counit dims differ")
        check_same_field(delta.field, counit.field)
        if delta.dims[0] != n:
            raise DimMismatch("algebra/coalgebra dims differ")
        if antipode.dims != (n, n):
            raise DimMismatch("antipode matrix dims")
        check_same_field(mu.field, delta.field)
        check_same_field(mu.field, antipode.field)
        self.mu, self.unit, self.delta = mu, unit, delta
        self.counit, self.antipode = counit, antipode
        self.dim, self.field = n, mu.field

    def same_tensors(self, other):
        return (self.mu == other.mu and self.delta == other.delta
                and self.unit == other.unit and self.counit == other.counit
                and self.antipode == other.antipode)


class HopfQuasigroup(HopfStructure):
    """Coassociative coalgebra, possibly nonassociative algebra."""


class HopfCoquasigroup(HopfStructure):
    """Associative algebra, possibly non-coassociative coalgebra."""


# --- checkers ---------------------------------------------------------------
#
# Every law is declared below as an equation between two chains of mu,
# delta, S, eta, eps and swap on legs of H (see hopfloop.laws) and checked
# by laws.evaluate, one slab of fixed first input at a time: the i of
# assoc's (i, j, k), the h of quasi's (h, g).  Its witness is the least
# failing instance.  Two shortcuts read the shape of the tensors first.
#
# The table paths (see the module docstring for when they apply) read one
# cached view, SparseTensor.basis_map: mu.basis_map(2), delta.basis_map(0)
# (the product of the dual), antipode.basis_map(0) and (1).  Both sides of
# every instance are then single basis vectors, so a law's failing slabs
# are found by composing and comparing integer rows (tensors.assoc_sides,
# tensors.quasi_rows).  The tables only pick slabs: `evaluate` is given the
# first failing slab, or none, as `firsts`, and the declaration decides
# that slab, so verdict and witness are the ones the walk over every slab
# gives.  Mismatches are produced lazily and never stored.
#
# * assoc and quasi*: the first mismatch is in the first failing slab, the
#   i of assoc's (i, j, k), the h of quasi's (h, g), and no later row is
#   compared.
# * coassoc and coq*: each is the transpose of a law of the dual (assoc,
#   and quasi_k.side for coq_k.side), and two maps are equal exactly when
#   their transposes are, so the law holds exactly when the dual law holds
#   on the transposed tables.  A mismatch l != r of the dual law at some
#   input makes slabs l and r of the law differ, so the first failing slab
#   is the least min(l, r) over every mismatch.
#
# The shape check: bialg.delta_mult holds when mu is a basis map and delta
# grouplike, or dually (_delta_mult_holds), and then no slab of it is
# evaluated.  On the smash coproduct of the duals of two loop algebras, of
# dim n, delta transposes to a basis map and mu is diagonal, and the
# declared right side would visit about n^3 products per slab, nearly all
# zero.

UNITAL_COUNITAL = (
    law("unit.left", "H", "H", "eta@0 mu@0", ""),
    law("unit.right", "H", "H", "eta@1 mu@0", ""),
    law("counit.left", "H", "H", "delta@0 eps@0", ""),
    law("counit.right", "H", "H", "delta@0 eps@1", ""),
)

BIALGEBRA = (
    law("bialg.delta_mult", "HH", "HH", "mu@0 delta@0",
        "delta@0 delta@2 swap@1 mu@0 mu@1"),
    law("bialg.counit_mult", "HH", "", "mu@0 eps@0", "eps@0 eps@0"),
    law("bialg.delta_unit", "", "HH", "eta@0 delta@0", "eta@0 eta@1"),
    law("bialg.counit_unit", "", "", "eta@0 eps@0", ""),
)

# by the informational flag
ASSOC = {flag: law("assoc", "HHH", "H", "mu@0 mu@0", "mu@1 mu@0", flag)
         for flag in (False, True)}
COASSOC = {flag: law("coassoc", "H", "HHH", "delta@0 delta@0",
                     "delta@0 delta@1", flag)
           for flag in (False, True)}

QUASI = (
    law("quasi1.left", "HH", "H", "delta@0 S@0 mu@1 mu@0", "eps@0"),
    law("quasi1.right", "HH", "H", "delta@0 S@1 mu@1 mu@0", "eps@0"),
    law("quasi2.left", "HH", "H", "swap@0 delta@1 mu@0 S@1 mu@0",
        "swap@0 eps@1"),
    law("quasi2.right", "HH", "H", "swap@0 delta@1 S@1 mu@0 mu@0",
        "swap@0 eps@1"),
)

COQ = (
    law("coq1.left", "H", "HH", "delta@0 delta@1 S@0 mu@0", "eta@0"),
    law("coq1.right", "H", "HH", "delta@0 delta@1 S@1 mu@0", "eta@0"),
    law("coq2.left", "H", "HH", "delta@0 delta@0 S@2 mu@1", "eta@1"),
    law("coq2.right", "H", "HH", "delta@0 delta@0 S@1 mu@1", "eta@1"),
)

ANTIPODE = (
    law("antipode.conv_left", "H", "H", "delta@0 S@0 mu@0", "eps@0 eta@0"),
    law("antipode.conv_right", "H", "H", "delta@0 S@1 mu@0", "eps@0 eta@0"),
    law("antipode.antimult", "HH", "H", "mu@0 S@0", "S@0 S@1 swap@0 mu@0"),
    law("antipode.anticomult", "H", "HH", "delta@0 S@0 S@1",
        "S@0 delta@0 swap@0"),
)


def _first_slab(items):
    """The slabs to evaluate of the law with the (first, ...) mismatches
    `items`, in slab order: the first's slab, or none."""
    bad = next(items, None)
    return () if bad is None else (bad[0],)


def _least_slab(sides):
    """The slabs to evaluate of the transposed law whose dual law compares
    the two lists of rows of each pair in `sides`: the least min(l, r)
    over every place where rows hold l != r, its first failing slab, or
    none.  Each differing row pair is compared in C, and the scan stops
    at slab 0."""
    least = None
    for left, right in sides:
        if left != right:
            for lrow, rrow in zip(left, right):
                if lrow != rrow:
                    m = min(map(min, compress(zip(lrow, rrow),
                                              map(ne, lrow, rrow))))
                    if least is None or m < least:
                        if m == 0:
                            return (0,)
                        least = m
    return () if least is None else (least,)


def check_unital_counital(H):
    """Unit and counit laws over every basis vector."""
    return evaluate(UNITAL_COUNITAL, H)


def check_associativity(H, informational=False):
    """(xy)z = x(yz) over all basis triples, with a witness triple."""
    rows, firsts = H.mu.basis_map(2), None
    if rows is not None:
        firsts = [_first_slab(assoc_mismatches(rows))]
    return evaluate((ASSOC[informational],), H, firsts=firsts)


def check_coassociativity(H, informational=False):
    """(delta (x) id) delta = (id (x) delta) delta over all basis vectors."""
    rows, firsts = H.delta.basis_map(0), None
    if rows is not None:
        # delta is coassociative exactly when its transpose, the product
        # of the dual, is associative
        firsts = [_least_slab(assoc_sides(rows))]
    return evaluate((COASSOC[informational],), H, firsts=firsts)


def _delta_mult_holds(H):
    """Whether the shapes of mu and delta decide bialg.delta_mult, which
    then holds.  When e_i e_j = e_k for every pair and delta is grouplike,
    delta(e_i e_j) = e_k (x) e_k = (e_i (x) e_i)(e_j (x) e_j).  The law is
    self-dual: its transpose is bialg.delta_mult of the dual, whose product
    is the transpose of delta and whose coproduct is the transpose of mu.
    So it also holds when delta transposes to a basis map and mu is
    diagonal, the dual of the first shape."""
    return ((H.mu.basis_map(2) is not None and H.delta.is_diagonal())
            or (H.delta.basis_map(0) is not None and H.mu.is_diagonal()))


def check_bialgebra_compat(H):
    """Delta and epsilon are algebra homomorphisms."""
    firsts = [(), None, None, None] if _delta_mult_holds(H) else None
    return evaluate(BIALGEBRA, H, firsts=firsts)


def _table_maps(rows, s, diag, ones):
    """(rows, s) when the quasi identities read from them compose basis
    maps: rows and s basis-map views, the tensor `diag` diagonal and the
    tensor `ones`, of dims (n,), 1 on every basis vector; else None.  For
    quasi* these are mu.basis_map(2), S.basis_map(0), delta and the
    counit; for coq*, the same views of dualize(H) read from H:
    delta.basis_map(0), S.basis_map(1), mu and the unit, since the coq
    identities of H are the transposes of the quasi identities of its dual
    and each holds exactly when its dual holds."""
    one = ones.field.one
    if (rows is None or s is None or not diag.is_diagonal()
            or len(ones.nz) != ones.dims[0]
            or any(c != one for c in ones.nz.values())):
        return None
    return rows, s


def _quasi_maps(H):
    return _table_maps(H.mu.basis_map(2), H.antipode.basis_map(0), H.delta,
                       H.counit)


def _coq_maps(H):
    return _table_maps(H.delta.basis_map(0), H.antipode.basis_map(1), H.mu,
                       H.unit)


def _quasi_sides(maps):
    """Per quasi law (1.left, 1.right, 2.left, 2.right), the pair of its
    rows h -> (the law's basis image at (h, g) for each g) and the rows
    h -> (g for each g) they must equal."""
    rows, s = maps
    expected = [tuple(range(len(rows)))] * len(rows)
    return [(side, expected)
            for side in quasi_rows(rows, list(enumerate(s)))]


def check_quasi_identities(H):
    """The four composite cancellation identities of a Hopf quasigroup.

    Coassociativity is a prerequisite and is reported first.
    """
    rep = check_coassociativity(H)
    maps, firsts = _quasi_maps(H), None
    if maps is not None:
        firsts = [_first_slab(mismatches(*law_sides))
                  for law_sides in _quasi_sides(maps)]
    rep.extend(evaluate(QUASI, H, firsts=firsts))
    return rep


def check_coq_identities(H):
    """The four composite identities of a Hopf coquasigroup.

    Associativity of the product is a prerequisite and is reported first.
    """
    rep = check_associativity(H)
    maps, firsts = _coq_maps(H), None
    if maps is not None:
        firsts = [_least_slab([law_sides])
                  for law_sides in _quasi_sides(maps)]
    rep.extend(evaluate(COQ, H, firsts=firsts))
    return rep


def check_antipode_basic(H):
    """Convolution identities plus anti(co)multiplicativity of the antipode."""
    return evaluate(ANTIPODE, H)


def check_hopf_quasigroup(H):
    """Full Hopf quasigroup suite; associativity reported as informational."""
    rep = VerificationReport()
    rep.extend(check_unital_counital(H))
    rep.extend(check_bialgebra_compat(H))
    rep.extend(check_quasi_identities(H))
    rep.extend(check_antipode_basic(H))
    rep.extend(check_associativity(H, informational=True))
    return rep


def check_hopf_coquasigroup(H):
    """Full Hopf coquasigroup suite; coassociativity is informational."""
    rep = VerificationReport()
    rep.extend(check_unital_counital(H))
    rep.extend(check_bialgebra_compat(H))
    rep.extend(check_coq_identities(H))
    rep.extend(check_antipode_basic(H))
    rep.extend(check_coassociativity(H, informational=True))
    return rep


def dualize(H):
    """Structure on the dual basis; an involution on the stored tensors.

    new_mu[i, j, k] = delta[k, i, j], new_delta[i, j, k] = mu[j, k, i],
    unit and counit swap roles, shared as they are, the antipode
    transposes.
    """
    f = H.field
    n = H.dim
    mu = SparseTensor._from_nz(
        f, (n, n, n), {(i, j, k): c for (k, i, j), c in H.delta.nz.items()})
    delta = SparseTensor._from_nz(
        f, (n, n, n), {(i, j, k): c for (j, k, i), c in H.mu.nz.items()})
    cls = HopfCoquasigroup if isinstance(H, HopfQuasigroup) else HopfQuasigroup
    return cls(mu, H.counit, delta, H.unit, H.antipode.transpose())
