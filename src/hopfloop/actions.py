"""Actions and coactions as standalone tensors, with the module-layer checks.

An ActionData stores h . e_m = sum_{m'} rho[h, m, m'] e_{m'}; a CoactionData
stores rho(e_m) = sum_{m',h} rho[m, m', h] e_{m'} (x) e_h.  Both are sparse
tensors that reference dimensions only, so the same tensor can be checked
against different candidate Hopf structures.
"""

from .errors import DimMismatch
from .fields import check_same_field
from .report import LawAccumulator, VerificationReport
from .structures import tensor2, tensor_mul
from .tensors import SparseTensor, sadd, sscale


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
            ((h, m, m, H.counit[h]) for h in range(H.dim)
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
            ((m, m, h, c) for m in range(m_dim) for h, c in H.unit.nonzero()))

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

    def coact(self, mu):
        """Apply to a sparse element of M; result keyed (m', h)."""
        f = self.field
        out = {}
        for (m,), a in mu.items():
            for (mh, c) in self._pairs(m):
                sadd(f, out, mh, f.mul(a, c))
        return out


def _require_action_dims(H, act):
    check_same_field(H.field, act.field)
    if act.h_dim != H.dim:
        raise DimMismatch(f"action H_dim {act.h_dim} != structure dim {H.dim}")


def _require_coaction_dims(H, coact):
    check_same_field(H.field, coact.field)
    if coact.h_dim != H.dim:
        raise DimMismatch(f"coaction H_dim {coact.h_dim} != structure dim {H.dim}")


def _unital(rep, f, law_id, H, act):
    """1 . m = m over every basis vector of M."""
    acc = LawAccumulator(rep, f, law_id)
    one = H.unit.nonzero()
    for m in range(act.m_dim):
        out = {}
        for u, a in one:
            for k, c in act._pairs(u, m):
                sadd(f, out, (k,), f.mul(a, c))
        acc.check((m,), out, {(m,): f.one})
    acc.finish()


def check_quasimodule(H, act):
    """Unitality plus the two antipode-cancellation laws of the action."""
    _require_action_dims(H, act)
    f = H.field
    split, anti, pairs = H.delta.split_pairs, H.antipode.column, act._pairs
    rep = VerificationReport()
    _unital(rep, f, "qm.unital", H, act)
    left = LawAccumulator(rep, f, "qm2.left")
    right = LawAccumulator(rep, f, "qm2.right")
    for h in range(H.dim):
        dh = split(h)
        eps = H.counit[h]
        for m in range(act.m_dim):
            expected = {(m,): eps} if eps != f.zero else {}
            lhs, rhs = {}, {}
            for (h1, h2), c in dh:
                # h1 . (S(h2) . m)
                for x, a in anti(h2):
                    for k, b in pairs(x, m):
                        ab = f.mul(c, f.mul(a, b))
                        for k2, v in pairs(h1, k):
                            sadd(f, lhs, (k2,), f.mul(ab, v))
                # S(h1) . (h2 . m)
                for x, a in anti(h1):
                    for k, b in pairs(h2, m):
                        ab = f.mul(c, f.mul(a, b))
                        for k2, v in pairs(x, k):
                            sadd(f, rhs, (k2,), f.mul(ab, v))
            left.check((h, m), lhs, expected)
            right.check((h, m), rhs, expected)
    left.finish()
    right.finish()
    return rep


def check_module(H, act):
    """Strict unital associative module laws (the coquasigroup-side input)."""
    _require_action_dims(H, act)
    f = H.field
    pairs = act._pairs
    rep = VerificationReport()
    _unital(rep, f, "mod.unital", H, act)
    assoc = LawAccumulator(rep, f, "mod.assoc")
    for h in range(H.dim):
        for g in range(H.dim):
            hg = H.mu.mul_pairs(h, g)
            for m in range(act.m_dim):
                lhs, rhs = {}, {}
                for k, b in pairs(g, m):
                    for k2, v in pairs(h, k):
                        sadd(f, lhs, (k2,), f.mul(b, v))
                for x, a in hg:
                    for k, v in pairs(x, m):
                        sadd(f, rhs, (k,), f.mul(a, v))
                assoc.check((h, g, m), lhs, rhs)
    assoc.finish()
    return rep


def _counital(f, H, rm):
    """(id (x) counit) of a coaction value given as ((m, h), coeff) pairs."""
    out = {}
    for (m1, h), c in rm:
        sadd(f, out, (m1,), f.mul(c, H.counit[h]))
    return out


def check_comodule(H, coact):
    """Counital and coassociative right comodule laws."""
    _require_coaction_dims(H, coact)
    f = H.field
    rep = VerificationReport()
    counital = LawAccumulator(rep, f, "comod.counital")
    coassoc = LawAccumulator(rep, f, "comod.coassoc")
    for m in range(coact.m_dim):
        rm = coact._pairs(m)
        counital.check((m,), _counital(f, H, rm), {(m,): f.one})
        lhs, rhs = {}, {}
        for (m1, h), c in rm:
            for (m2, h2), c2 in coact._pairs(m1):
                sadd(f, lhs, (m2, h2, h), f.mul(c, c2))
            for (a, b), c2 in H.delta.split_pairs(h):
                sadd(f, rhs, (m1, a, b), f.mul(c, c2))
        coassoc.check((m,), lhs, rhs)
    counital.finish()
    coassoc.finish()
    return rep


def check_quasicomodule(H, coact):
    """Counitality plus the two antipode-cancellation laws of the coaction."""
    _require_coaction_dims(H, coact)
    f = H.field
    mul, anti = H.mu.mul_pairs, H.antipode.column
    rep = VerificationReport()
    counital = LawAccumulator(rep, f, "cqm.counital")
    left = LawAccumulator(rep, f, "cqm2.left")
    right = LawAccumulator(rep, f, "cqm2.right")
    one = H.unit.nonzero()
    for m in range(coact.m_dim):
        rm = coact._pairs(m)
        counital.check((m,), _counital(f, H, rm), {(m,): f.one})
        expected = {(m, u): b for u, b in one}
        lhs, rhs = {}, {}
        for (m0, h), c in rm:
            sh = anti(h)
            for (m00, h0), c2 in coact._pairs(m0):
                cc = f.mul(c, c2)
                # h0 S(h)
                for x, a in sh:
                    for y, v in mul(h0, x):
                        sadd(f, lhs, (m00, y), f.mul(cc, f.mul(a, v)))
                # S(h0) h
                for x, a in anti(h0):
                    for y, v in mul(x, h):
                        sadd(f, rhs, (m00, y), f.mul(cc, f.mul(a, v)))
        left.check((m,), lhs, expected)
        right.check((m,), rhs, expected)
    counital.finish()
    left.finish()
    right.finish()
    return rep


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
    if alg.dim != act.m_dim:
        raise DimMismatch("algebra dim != action M_dim")
    f = H.field
    amul, pairs = alg.mu.mul_pairs, act._pairs
    rep = VerificationReport()
    mult = LawAccumulator(rep, f, "qmalg.mult")
    for h in range(H.dim):
        dh = H.delta.split_pairs(h)
        for a in range(alg.dim):
            for b in range(alg.dim):
                lhs, rhs = {}, {}
                # (h1 . a)(h2 . b)
                for (h1, h2), c in dh:
                    for x, u in pairs(h1, a):
                        for y, v in pairs(h2, b):
                            uv = f.mul(c, f.mul(u, v))
                            for k, w in amul(x, y):
                                sadd(f, lhs, (k,), f.mul(uv, w))
                # h . (ab)
                for x, u in amul(a, b):
                    for k, w in pairs(h, x):
                        sadd(f, rhs, (k,), f.mul(u, w))
                mult.check((h, a, b), lhs, rhs)
    mult.finish()
    unit = LawAccumulator(rep, f, "qmalg.unit")
    one_a = alg.unit.nonzero()
    one_sparse = {(i,): c for i, c in one_a}
    for h in range(H.dim):
        lhs = {}
        for x, u in one_a:
            for k, w in pairs(h, x):
                sadd(f, lhs, (k,), f.mul(u, w))
        unit.check((h,), lhs, sscale(f, one_sparse, H.counit[h]))
    unit.finish()
    return rep


def check_qm_coalgebra(H, coalg, act):
    """Action respects the coproduct and counit of the target coalgebra."""
    _require_action_dims(H, act)
    if coalg.dim != act.m_dim:
        raise DimMismatch("coalgebra dim != action M_dim")
    f = H.field
    csplit, pairs = coalg.delta.split_pairs, act._pairs
    rep = VerificationReport()
    comult = LawAccumulator(rep, f, "qmcoalg.comult")
    counit = LawAccumulator(rep, f, "qmcoalg.counit")
    for h in range(H.dim):
        dh = H.delta.split_pairs(h)
        for cidx in range(coalg.dim):
            hc = pairs(h, cidx)
            lhs = {}
            lhs_eps = f.zero
            for x, v in hc:
                for jk, w in csplit(x):
                    sadd(f, lhs, jk, f.mul(v, w))
                lhs_eps = f.add(lhs_eps, f.mul(v, coalg.counit[x]))
            rhs = {}
            for (h1, h2), c in dh:
                for (c1, c2), c2v in csplit(cidx):
                    cc = f.mul(c, c2v)
                    for x, v1 in pairs(h1, c1):
                        for y, v2 in pairs(h2, c2):
                            sadd(f, rhs, (x, y), f.mul(cc, f.mul(v1, v2)))
            comult.check((h, cidx), lhs, rhs)
            rhs_eps = f.mul(H.counit[h], coalg.counit[cidx])
            counit.check((h, cidx),
                         {(): lhs_eps} if lhs_eps != f.zero else {},
                         {(): rhs_eps} if rhs_eps != f.zero else {})
    comult.finish()
    counit.finish()
    return rep


def check_antipode_linear(H, A, act):
    """S of the acted-on Hopf structure commutes with the action."""
    _require_action_dims(H, act)
    if A.dim != act.m_dim:
        raise DimMismatch("structure dim != action M_dim")
    f = H.field
    anti, pairs = A.antipode.column, act._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "antipode.linear")
    for h in range(H.dim):
        for a in range(A.dim):
            lhs, rhs = {}, {}
            for x, v in pairs(h, a):
                for y, s in anti(x):
                    sadd(f, lhs, (y,), f.mul(v, s))
            for x, s in anti(a):
                for k, w in pairs(h, x):
                    sadd(f, rhs, (k,), f.mul(s, w))
            acc.check((h, a), lhs, rhs)
    acc.finish()
    return rep


def check_coqm_algebra(H, alg, coact):
    """Coaction is an algebra map into A (x) H."""
    _require_coaction_dims(H, coact)
    if alg.dim != coact.m_dim:
        raise DimMismatch("algebra dim != coaction M_dim")
    f = H.field
    rep = VerificationReport()
    mult = LawAccumulator(rep, f, "coqmalg.mult")
    for a in range(alg.dim):
        ra = coact._pairs(a)
        for b in range(alg.dim):
            lhs = {}
            for x, u in alg.mu.mul_pairs(a, b):
                for mh, c in coact._pairs(x):
                    sadd(f, lhs, mh, f.mul(u, c))
            rhs = tensor_mul(f, alg.mu, H.mu, ra, coact._pairs(b))
            mult.check((a, b), lhs, rhs)
    mult.finish()
    unit = LawAccumulator(rep, f, "coqmalg.unit")
    one_a = {(i,): c for i, c in alg.unit.nonzero()}
    unit.check((), coact.coact(one_a), tensor2(f, one_a, H.unit_sparse()))
    unit.finish()
    return rep


def check_coqm_coalgebra(H, coalg, coact):
    """Coaction and coproduct of C commute in the comodule-coalgebra sense."""
    _require_coaction_dims(H, coact)
    if coalg.dim != coact.m_dim:
        raise DimMismatch("coalgebra dim != coaction M_dim")
    f = H.field
    csplit, pairs = coalg.delta.split_pairs, coact._pairs
    rep = VerificationReport()
    comult = LawAccumulator(rep, f, "coqmcoalg.comult")
    counit = LawAccumulator(rep, f, "coqmcoalg.counit")
    one = H.unit_sparse()
    for cidx in range(coalg.dim):
        lhs, lhs_eps = {}, {}
        for (c0, h), c in pairs(cidx):
            for (c1, c2), c2v in csplit(c0):
                sadd(f, lhs, (c1, c2, h), f.mul(c, c2v))
            sadd(f, lhs_eps, (h,), f.mul(c, coalg.counit[c0]))
        rhs = {}
        for (c1, c2), cv in csplit(cidx):
            for (c10, h1), v1 in pairs(c1):
                for (c20, h2), v2 in pairs(c2):
                    cc = f.mul(cv, f.mul(v1, v2))
                    for k, c in H.mu.mul_pairs(h1, h2):
                        sadd(f, rhs, (c10, c20, k), f.mul(cc, c))
        comult.check((cidx,), lhs, rhs)
        counit.check((cidx,), lhs_eps,
                     sscale(f, one, coalg.counit[cidx]))
    comult.finish()
    counit.finish()
    return rep


def check_antipode_colinear(H, C, coact):
    """S of the coacted-on Hopf structure is a comodule map."""
    _require_coaction_dims(H, coact)
    if C.dim != coact.m_dim:
        raise DimMismatch("structure dim != coaction M_dim")
    f = H.field
    anti, pairs = C.antipode.column, coact._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "antipode.colinear")
    for cidx in range(C.dim):
        lhs, rhs = {}, {}
        for x, s in anti(cidx):
            for mh, c in pairs(x):
                sadd(f, lhs, mh, f.mul(s, c))
        for (c0, h), c in pairs(cidx):
            for x, v in anti(c0):
                sadd(f, rhs, (x, h), f.mul(c, v))
        acc.check((cidx,), lhs, rhs)
    acc.finish()
    return rep
