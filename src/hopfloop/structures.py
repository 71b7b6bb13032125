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
from them.  The tables are cached views, `SparseTensor.basis_map`:
mu.basis_map(2), delta.basis_map(0) (the product of the dual),
antipode.basis_map(0) and (1).  Both sides of every instance are then
single basis vectors, compared lazily as integer rows
(`tensors.assoc_mismatches`, `tensors.quasi_mismatches`) and never
stored.  The tables only pick the slabs `evaluate` walks, as `firsts`,
and the declaration decides each slab walked, so every verdict and
witness is the one the walk over every slab gives.

* assoc, when mu is a basis map (a magma algebra), and quasi*, when mu and
  S are basis maps, delta is grouplike (delta(e_i) = e_i (x) e_i) and the
  counit is 1 on every basis vector.  The first mismatch lies in the
  law's first failing slab, the i of assoc's (i, j, k), the h of quasi's
  (h, g): that slab alone is walked, and no later row is compared.
* coassoc, when the transpose of delta is a basis map (the dual is a
  magma algebra), and coq*, when the dual meets the quasi* condition:
  delta and S transpose to basis maps, e_i e_j = [i = j] e_i and the unit
  is the sum of the basis.  Each is the transpose of a law of the dual
  (assoc, and quasi_k.side for coq_k.side), and two maps are equal
  exactly when their transposes are, so the law holds exactly when the
  dual law holds on the transposed tables.  A dual mismatch says only
  that the law fails, and a slab of the dual law is not one of the law's
  own, so a failing law is walked from slab 0 and a holding one not at
  all.

bialg.delta_mult holds outright, and no slab of it is walked, when mu is a
basis map and delta is grouplike, or dually (`_delta_mult_holds`).
"""

from .errors import DimMismatch
from .fields import check_same_field
from .laws import evaluate, law
from .report import VerificationReport
from .tensors import assoc_mismatches, quasi_mismatches


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
        return self is other or (
            self.mu == other.mu and self.delta == other.delta
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
# failing instance.  The table paths and the shape check of the module
# docstring only choose the slabs walked.  The shape check pays on the
# smash coproduct of the duals of two loop algebras, of dim n: delta
# transposes to a basis map and mu is diagonal, and the declared right
# side of bialg.delta_mult would visit about n^3 products per slab, nearly
# all zero.

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


def _dual_slabs(items):
    """The slabs to evaluate of the transposed law whose dual law has the
    mismatches `items`: none if there are none, else every slab."""
    return () if next(items, None) is None else None


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
        firsts = [_dual_slabs(assoc_mismatches(rows))]
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


def _quasi_firsts(pick, rows, s, diag, ones):
    """`pick` applied to each quasi identity's stream of `quasi_mismatches`
    on the tables rows and s, or None unless they compose basis maps: rows
    and s basis-map views, the tensor `diag` diagonal and the tensor `ones`
    1 on each basis vector.  quasi* reads H's own mu.basis_map(2),
    S.basis_map(0), delta and counit; coq* reads those of dualize(H) off H,
    delta.basis_map(0), S.basis_map(1), mu and the unit, as the module
    docstring says."""
    if (rows is None or s is None or not diag.is_diagonal()
            or not ones.is_forward((0,))):
        return None
    return [pick(stream)
            for stream in quasi_mismatches(rows, list(enumerate(s)))]


def check_quasi_identities(H):
    """The four composite cancellation identities of a Hopf quasigroup.

    Coassociativity is a prerequisite and is reported first.
    """
    rep = check_coassociativity(H)
    firsts = _quasi_firsts(_first_slab, H.mu.basis_map(2),
                           H.antipode.basis_map(0), H.delta, H.counit)
    rep.extend(evaluate(QUASI, H, firsts=firsts))
    return rep


def check_coq_identities(H):
    """The four composite identities of a Hopf coquasigroup.

    Associativity of the product is a prerequisite and is reported first.
    """
    rep = check_associativity(H)
    firsts = _quasi_firsts(_dual_slabs, H.delta.basis_map(0),
                           H.antipode.basis_map(1), H.mu, H.unit)
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
    mu, delta = H.delta.permuted((1, 2, 0)), H.mu.permuted((2, 0, 1))
    cls = HopfCoquasigroup if isinstance(H, HopfQuasigroup) else HopfQuasigroup
    return cls(mu, H.counit, delta, H.unit, H.antipode.transpose())
