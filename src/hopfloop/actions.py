"""Actions and coactions as standalone tensors, with the module-layer checks.

An ActionData stores h . e_m = sum_{m'} rho[h, m, m'] e_{m'}; a CoactionData
stores rho(e_m) = sum_{m',h} rho[m, m', h] e_{m'} (x) e_h.  Both are sparse
tensors that reference dimensions only, so the same tensor can be checked
against different candidate Hopf structures.

Each law below is a declaration of `hopfloop.laws`: its domain and output
legs ("H" for the Hopf structure, "A" for the space acted or coacted on)
and its two sides as chains of structure maps, evaluated by
`laws.evaluate`.
"""

from .errors import DimMismatch
from .fields import check_same_field
from .laws import evaluate, law
from .tensors import SparseTensor


class ActionData(SparseTensor):
    """h . e_m = sum_{m'} rho[h, m, m'] e_{m'}, dims (H_dim, M_dim, M_dim)."""

    @classmethod
    def from_entries(cls, field, h_dim, m_dim, entries):
        return cls(field, (h_dim, m_dim, m_dim), entries)

    @property
    def h_dim(self):
        return self.dims[0]

    @property
    def m_dim(self):
        return self.dims[1]

    @classmethod
    def trivial(cls, H, m_dim):
        """h . m = counit(h) m."""
        f = H.field
        return cls.from_entries(
            f, H.dim, m_dim,
            ((h, m, m, c) for (h,), c in H.counit.nz.items()
             for m in range(m_dim)))

    @classmethod
    def from_mu(cls, H):
        """H acting on itself by its own multiplication."""
        return cls(H.field, H.mu.dims,
                   (key + (c,) for key, c in H.mu.nz.items()))

    def _pairs(self, h, m):
        """Nonzeros of h . e_m as (m', coeff) pairs."""
        return self._by_first_two[h][m]


class CoactionData(SparseTensor):
    """rho(e_m) = sum_{m',h} rho[m, m', h] e_{m'} (x) e_h, dims
    (M_dim, M_dim, H_dim)."""

    @classmethod
    def from_entries(cls, field, m_dim, h_dim, entries):
        return cls(field, (m_dim, m_dim, h_dim), entries)

    @property
    def m_dim(self):
        return self.dims[0]

    @property
    def h_dim(self):
        return self.dims[2]

    @classmethod
    def trivial(cls, H, m_dim):
        """m -> m (x) 1."""
        return cls.from_entries(
            H.field, m_dim, H.dim,
            ((m, m, h, c) for m in range(m_dim)
             for (h,), c in H.unit.nz.items()))

    @classmethod
    def from_delta(cls, H):
        """H coacting on itself by its own comultiplication."""
        return cls(H.field, H.delta.dims,
                   (key + (c,) for key, c in H.delta.nz.items()))

    @classmethod
    def graded(cls, H, grading):
        """Grouplike grading e_m -> e_m (x) e_{grading[m]}."""
        f = H.field
        return cls.from_entries(
            f, len(grading), H.dim,
            ((m, m, g, f.one) for m, g in enumerate(grading)))

    @classmethod
    def dual_of_action(cls, act):
        """The coaction over the dual structure induced by an action.

        The carrier stays the same: rho(m) = sum_i (h_i . m) (x) h^i over
        dual bases, i.e. coact[m, m', h] = act[h, m, m'].  Pair the result
        with the dualized Hopf structure; (quasi)module laws for the action
        become the corresponding (quasi)comodule laws for this coaction.
        """
        return cls.from_entries(
            act.field, act.m_dim, act.h_dim,
            ((m, m2, h, c) for (h, m, m2), c in act.nz.items()))

    def _pairs(self, m):
        """Nonzeros of rho(e_m) as ((m', h), coeff) pairs."""
        return self._by_first[m]


def _require_action_dims(H, act):
    check_same_field(H.field, act.field)
    if act.h_dim != H.dim:
        raise DimMismatch(f"action H_dim {act.h_dim} != structure dim {H.dim}")


def _require_coaction_dims(H, coact):
    check_same_field(H.field, coact.field)
    if coact.h_dim != H.dim:
        raise DimMismatch(f"coaction H_dim {coact.h_dim} != structure dim {H.dim}")


def _require_target(T, data, message):
    """T, the (co)algebra or structure acted on, shares the field of the
    (co)action `data` and has its carrier dim."""
    check_same_field(data.field, T.field)
    if T.dim != data.m_dim:
        raise DimMismatch(message)


QUASIMODULE = (
    law("qm.unital", "A", "A", "eta@0 act@0", ""),
    law("qm2.left", "HA", "A", "delta@0 S@1 act@1 act@0", "eps@0"),
    law("qm2.right", "HA", "A", "delta@0 act@1 S@0 act@0", "eps@0"))
MODULE = (
    law("mod.unital", "A", "A", "eta@0 act@0", ""),
    law("mod.assoc", "HHA", "A", "act@1 act@0", "mu@0 act@0"))
COMODULE = (
    law("comod.counital", "A", "A", "coact@0 eps@1", ""),
    law("comod.coassoc", "A", "AHH", "coact@0 coact@0", "coact@0 delta@1"))
QUASICOMODULE = (
    law("cqm.counital", "A", "A", "coact@0 eps@1", ""),
    law("cqm2.left", "A", "AH", "coact@0 S@1 coact@0 mu@1", "eta@1"),
    law("cqm2.right", "A", "AH", "coact@0 coact@0 S@1 mu@1", "eta@1"))
QM_ALGEBRA = (
    # (h_(1).a)(h_(2).b) = h.(ab);  h.1 = eps(h) 1
    law("qmalg.mult", "HAA", "A", "delta@0 swap@1 act@2 act@0 mu_A@0",
        "mu_A@1 act@0"),
    law("qmalg.unit", "H", "A", "eta_A@1 act@0", "eps@0 eta_A@0"))
QM_COALGEBRA = (
    # delta(h.c) = h_(1).c_(1) (x) h_(2).c_(2);  eps(h.c) = eps(h) eps(c)
    law("qmcoalg.comult", "HA", "AA", "act@0 delta_A@0",
        "delta@0 delta_A@2 swap@1 act@2 act@0"),
    law("qmcoalg.counit", "HA", "", "act@0 eps_A@0", "eps@0 eps_A@0"))
ANTIPODE_LINEAR = (
    law("antipode.linear", "HA", "A", "act@0 S_A@0", "S_A@1 act@0"),)
COQM_ALGEBRA = (
    # rho(ab) = a^(0) b^(0) (x) a^(1) b^(1);  rho(1) = 1 (x) 1
    law("coqmalg.mult", "AA", "AH", "mu_A@0 coact@0",
        "coact@1 coact@0 swap@1 mu_A@0 mu@1"),
    law("coqmalg.unit", "", "AH", "eta_A@0 coact@0", "eta_A@0 eta@1"))
COQM_COALGEBRA = (
    # c^(0)_(1) (x) c^(0)_(2) (x) c^(1)
    #     = c_(1)^(0) (x) c_(2)^(0) (x) c_(1)^(1) c_(2)^(1);
    # eps(c^(0)) c^(1) = eps(c) 1
    law("coqmcoalg.comult", "A", "AAH", "coact@0 delta_A@0",
        "delta_A@0 coact@1 coact@0 swap@1 mu@2"),
    law("coqmcoalg.counit", "A", "H", "coact@0 eps_A@0", "eps_A@0 eta@0"))
ANTIPODE_COLINEAR = (
    law("antipode.colinear", "A", "AH", "S_A@0 coact@0", "coact@0 S_A@0"),)


def check_quasimodule(H, act):
    """Unitality plus the two antipode-cancellation laws of the action."""
    _require_action_dims(H, act)
    return evaluate(QUASIMODULE, H, act=act)


def check_module(H, act):
    """Strict unital associative module laws (the coquasigroup-side input)."""
    _require_action_dims(H, act)
    return evaluate(MODULE, H, act=act)


def check_comodule(H, coact):
    """Counital and coassociative right comodule laws."""
    _require_coaction_dims(H, coact)
    return evaluate(COMODULE, H, coact=coact)


def check_quasicomodule(H, coact):
    """Counitality plus the two antipode-cancellation laws of the coaction."""
    _require_coaction_dims(H, coact)
    return evaluate(QUASICOMODULE, H, coact=coact)


def diagonal_action(H, act1, act2):
    """Action on the flattened M (x) N through the coproduct of H."""
    _require_action_dims(H, act1)
    _require_action_dims(H, act2)
    f = H.field
    n2 = act2.m_dim
    return ActionData.from_entries(
        f, H.dim, act1.m_dim * n2,
        ((h, m * n2 + n, m2 * n2 + np, f.mul(c, f.mul(c1, c2)))
         for h in range(H.dim)
         for (h1, h2), c in H.delta.split_pairs(h)
         for m in range(act1.m_dim)
         for m2, c1 in act1._pairs(h1, m)
         for n in range(n2)
         for np, c2 in act2._pairs(h2, n)))


def tensor_coaction(H, co1, co2):
    """Coaction on the flattened M (x) N, last legs multiplied in H."""
    _require_coaction_dims(H, co1)
    _require_coaction_dims(H, co2)
    f = H.field
    n2 = co2.m_dim
    return CoactionData.from_entries(
        f, co1.m_dim * n2, H.dim,
        ((m * n2 + n, mp * n2 + np, k, f.mul(f.mul(c1, c2), c))
         for m in range(co1.m_dim)
         for (mp, h1), c1 in co1._pairs(m)
         for n in range(n2)
         for (np, h2), c2 in co2._pairs(n)
         for k, c in H.mu.mul_pairs(h1, h2)))


def check_qm_algebra(H, alg, act):
    """Action respects the product and unit of the target algebra."""
    _require_action_dims(H, act)
    _require_target(alg, act, "algebra dim != action M_dim")
    return evaluate(QM_ALGEBRA, H, alg, act=act)


def check_qm_coalgebra(H, coalg, act):
    """Action respects the coproduct and counit of the target coalgebra."""
    _require_action_dims(H, act)
    _require_target(coalg, act, "coalgebra dim != action M_dim")
    return evaluate(QM_COALGEBRA, H, coalg, act=act)


def check_antipode_linear(H, A, act):
    """S of the acted-on Hopf structure commutes with the action."""
    _require_action_dims(H, act)
    _require_target(A, act, "structure dim != action M_dim")
    return evaluate(ANTIPODE_LINEAR, H, A, act=act)


def check_coqm_algebra(H, alg, coact):
    """Coaction is an algebra map into A (x) H."""
    _require_coaction_dims(H, coact)
    _require_target(alg, coact, "algebra dim != coaction M_dim")
    return evaluate(COQM_ALGEBRA, H, alg, coact=coact)


def check_coqm_coalgebra(H, coalg, coact):
    """Coaction and coproduct of C commute in the comodule-coalgebra sense."""
    _require_coaction_dims(H, coact)
    _require_target(coalg, coact, "coalgebra dim != coaction M_dim")
    return evaluate(COQM_COALGEBRA, H, coalg, coact=coact)


def check_antipode_colinear(H, C, coact):
    """S of the coacted-on Hopf structure is a comodule map."""
    _require_coaction_dims(H, coact)
    _require_target(C, coact, "structure dim != coaction M_dim")
    return evaluate(ANTIPODE_COLINEAR, H, C, coact=coact)
