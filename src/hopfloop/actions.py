"""Actions and coactions as standalone tensors, with the module-layer checks.

An ActionData stores h . e_m = sum_{m'} rho[h, m, m'] e_{m'}; a CoactionData
stores rho(e_m) = sum_{m',h} rho[m, m', h] e_{m'} (x) e_h.  Both are sparse
tensors that reference dimensions only, so the same tensor can be checked
against different candidate Hopf structures.

The law checkers work one slab at a time, as in `hopfloop.structures`: a
slab holds the instances of a law that share a fixed first index, as one
dict per side keyed by the flat int inst * prod(out_dims) + out, terms
summed in place with d[k] = add(d[k], t) if k in d else t, and
LawAccumulator.check_slab compares the two sides once per slab.  A law
with one instance per basis vector of M whose other side is the identity
(the unit and counit laws) is one slab of every instance.
"""

from .errors import DimMismatch
from .fields import check_same_field
from .report import LawAccumulator, VerificationReport
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


def _unital(rep, f, law_id, H, act):
    """1 . m = m over every basis vector of M."""
    mul, pairs = f.mul, act._pairs
    _identity_law(rep, f, law_id, act.m_dim, (
        (m, k, mul(a, c)) for m in range(act.m_dim)
        for u, a in H.unit.nonzero() for k, c in pairs(u, m)))


def _counital(rep, f, law_id, H, coact):
    """(id (x) counit) rho(m) = m over every basis vector of M."""
    mul = f.mul
    _identity_law(rep, f, law_id, coact.m_dim, (
        (m, m1, mul(c, H.counit[h])) for m in range(coact.m_dim)
        for (m1, h), c in coact._pairs(m)))


def check_quasimodule(H, act):
    """Unitality plus the two antipode-cancellation laws of the action."""
    _require_action_dims(H, act)
    f = H.field
    add, mul, n = f.add, f.mul, act.m_dim
    split, anti, pairs = H.delta.split_pairs, H.antipode.column, act._pairs
    rep = VerificationReport()
    _unital(rep, f, "qm.unital", H, act)
    left = LawAccumulator(rep, f, "qm2.left")
    right = LawAccumulator(rep, f, "qm2.right")
    for h in range(H.dim):
        dh = split(h)
        eps = H.counit[h]
        expected = {m * n + m: eps for m in range(n)}
        lhs, rhs = {}, {}
        for m in range(n):
            base = m * n
            for (h1, h2), c in dh:
                # h1 . (S(h2) . m)
                for x, a in anti(h2):
                    for k, b in pairs(x, m):
                        ab = mul(c, mul(a, b))
                        for k2, v in pairs(h1, k):
                            key, t = base + k2, mul(ab, v)
                            lhs[key] = add(lhs[key], t) if key in lhs else t
                # S(h1) . (h2 . m)
                for x, a in anti(h1):
                    for k, b in pairs(h2, m):
                        ab = mul(c, mul(a, b))
                        for k2, v in pairs(x, k):
                            key, t = base + k2, mul(ab, v)
                            rhs[key] = add(rhs[key], t) if key in rhs else t
        left.check_slab((h,), lhs, expected, (n,), (n,))
        right.check_slab((h,), rhs, expected, (n,), (n,))
    left.finish()
    right.finish()
    return rep


def check_module(H, act):
    """Strict unital associative module laws (the coquasigroup-side input)."""
    _require_action_dims(H, act)
    f = H.field
    add, mul, n = f.add, f.mul, act.m_dim
    pairs = act._pairs
    rep = VerificationReport()
    _unital(rep, f, "mod.unital", H, act)
    assoc = LawAccumulator(rep, f, "mod.assoc")
    for h in range(H.dim):
        lhs, rhs = {}, {}
        for g in range(H.dim):
            hg = H.mu.mul_pairs(h, g)
            for m in range(n):
                base = (g * n + m) * n
                for k, b in pairs(g, m):
                    for k2, v in pairs(h, k):
                        key, t = base + k2, mul(b, v)
                        lhs[key] = add(lhs[key], t) if key in lhs else t
                for x, a in hg:
                    for k, v in pairs(x, m):
                        key, t = base + k, mul(a, v)
                        rhs[key] = add(rhs[key], t) if key in rhs else t
        assoc.check_slab((h,), lhs, rhs, (H.dim, n), (n,))
    assoc.finish()
    return rep


def check_comodule(H, coact):
    """Counital and coassociative right comodule laws."""
    _require_coaction_dims(H, coact)
    f = H.field
    add, mul, n, nh = f.add, f.mul, coact.m_dim, H.dim
    rep = VerificationReport()
    _counital(rep, f, "comod.counital", H, coact)
    coassoc = LawAccumulator(rep, f, "comod.coassoc")
    for m in range(n):
        lhs, rhs = {}, {}
        for (m1, h), c in coact._pairs(m):
            for (m2, h2), c2 in coact._pairs(m1):
                key, t = (m2 * nh + h2) * nh + h, mul(c, c2)
                lhs[key] = add(lhs[key], t) if key in lhs else t
            for (a, b), c2 in H.delta.split_pairs(h):
                key, t = (m1 * nh + a) * nh + b, mul(c, c2)
                rhs[key] = add(rhs[key], t) if key in rhs else t
        coassoc.check_slab((m,), lhs, rhs, (), (n, nh, nh))
    coassoc.finish()
    return rep


def check_quasicomodule(H, coact):
    """Counitality plus the two antipode-cancellation laws of the coaction."""
    _require_coaction_dims(H, coact)
    f = H.field
    add, mul, n, nh = f.add, f.mul, coact.m_dim, H.dim
    hmul, anti = H.mu.mul_pairs, H.antipode.column
    rep = VerificationReport()
    _counital(rep, f, "cqm.counital", H, coact)
    left = LawAccumulator(rep, f, "cqm2.left")
    right = LawAccumulator(rep, f, "cqm2.right")
    one = H.unit.nonzero()
    for m in range(n):
        expected = {m * nh + u: b for u, b in one}
        lhs, rhs = {}, {}
        for (m0, h), c in coact._pairs(m):
            sh = anti(h)
            for (m00, h0), c2 in coact._pairs(m0):
                cc, base = mul(c, c2), m00 * nh
                # h0 S(h)
                for x, a in sh:
                    for y, v in hmul(h0, x):
                        key, t = base + y, mul(cc, mul(a, v))
                        lhs[key] = add(lhs[key], t) if key in lhs else t
                # S(h0) h
                for x, a in anti(h0):
                    for y, v in hmul(x, h):
                        key, t = base + y, mul(cc, mul(a, v))
                        rhs[key] = add(rhs[key], t) if key in rhs else t
        left.check_slab((m,), lhs, expected, (), (n, nh))
        right.check_slab((m,), rhs, expected, (), (n, nh))
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
    _require_target(alg, act, "algebra dim != action M_dim")
    f = H.field
    add, mul, n = f.add, f.mul, alg.dim
    amul, pairs = alg.mu.mul_pairs, act._pairs
    rep = VerificationReport()
    mult = LawAccumulator(rep, f, "qmalg.mult")
    for h in range(H.dim):
        dh = H.delta.split_pairs(h)
        lhs, rhs = {}, {}
        for ab in range(n * n):
            (a, b), base = divmod(ab, n), ab * n
            # (h1 . a)(h2 . b)
            for (h1, h2), c in dh:
                for x, u in pairs(h1, a):
                    for y, v in pairs(h2, b):
                        uv = mul(c, mul(u, v))
                        for k, w in amul(x, y):
                            key, t = base + k, mul(uv, w)
                            lhs[key] = add(lhs[key], t) if key in lhs else t
            # h . (ab)
            for x, u in amul(a, b):
                for k, w in pairs(h, x):
                    key, t = base + k, mul(u, w)
                    rhs[key] = add(rhs[key], t) if key in rhs else t
        mult.check_slab((h,), lhs, rhs, (n, n), (n,))
    mult.finish()
    unit = LawAccumulator(rep, f, "qmalg.unit")
    one_a = alg.unit.nonzero()
    lhs = {}
    for h in range(H.dim):
        for x, u in one_a:
            for k, w in pairs(h, x):
                key, t = h * n + k, mul(u, w)
                lhs[key] = add(lhs[key], t) if key in lhs else t
    unit.check_slab((), lhs, {h * n + i: mul(c, H.counit[h])
                              for h in range(H.dim) for i, c in one_a},
                    (H.dim,), (n,))
    unit.finish()
    return rep


def check_qm_coalgebra(H, coalg, act):
    """Action respects the coproduct and counit of the target coalgebra."""
    _require_action_dims(H, act)
    _require_target(coalg, act, "coalgebra dim != action M_dim")
    f = H.field
    add, mul, n = f.add, f.mul, coalg.dim
    csplit, pairs, ceps = coalg.delta.split_pairs, act._pairs, coalg.counit
    rep = VerificationReport()
    comult = LawAccumulator(rep, f, "qmcoalg.comult")
    counit = LawAccumulator(rep, f, "qmcoalg.counit")
    for h in range(H.dim):
        dh = H.delta.split_pairs(h)
        lhs, rhs, lhs_eps, rhs_eps = {}, {}, {}, {}
        for cidx in range(n):
            base = cidx * n * n
            eps = f.zero
            for x, v in pairs(h, cidx):
                for (j, k), w in csplit(x):
                    key, t = base + j * n + k, mul(v, w)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
                eps = add(eps, mul(v, ceps[x]))
            lhs_eps[cidx] = eps
            for (h1, h2), c in dh:
                for (c1, c2), c2v in csplit(cidx):
                    cc = mul(c, c2v)
                    for x, v1 in pairs(h1, c1):
                        for y, v2 in pairs(h2, c2):
                            key, t = base + x * n + y, mul(cc, mul(v1, v2))
                            rhs[key] = add(rhs[key], t) if key in rhs else t
            rhs_eps[cidx] = mul(H.counit[h], ceps[cidx])
        comult.check_slab((h,), lhs, rhs, (n,), (n, n))
        counit.check_slab((h,), lhs_eps, rhs_eps, (n,), ())
    comult.finish()
    counit.finish()
    return rep


def check_antipode_linear(H, A, act):
    """S of the acted-on Hopf structure commutes with the action."""
    _require_action_dims(H, act)
    _require_target(A, act, "structure dim != action M_dim")
    f = H.field
    add, mul, n = f.add, f.mul, A.dim
    anti, pairs = A.antipode.column, act._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "antipode.linear")
    for h in range(H.dim):
        lhs, rhs = {}, {}
        for a in range(n):
            base = a * n
            for x, v in pairs(h, a):
                for y, s in anti(x):
                    key, t = base + y, mul(v, s)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
            for x, s in anti(a):
                for k, w in pairs(h, x):
                    key, t = base + k, mul(s, w)
                    rhs[key] = add(rhs[key], t) if key in rhs else t
        acc.check_slab((h,), lhs, rhs, (n,), (n,))
    acc.finish()
    return rep


def check_coqm_algebra(H, alg, coact):
    """Coaction is an algebra map into A (x) H."""
    _require_coaction_dims(H, coact)
    _require_target(alg, coact, "algebra dim != coaction M_dim")
    f = H.field
    add, mul, n, nh = f.add, f.mul, alg.dim, H.dim
    amul, hmul, pairs = alg.mu.mul_pairs, H.mu.mul_pairs, coact._pairs
    rep = VerificationReport()
    mult = LawAccumulator(rep, f, "coqmalg.mult")
    for a in range(n):
        ra = pairs(a)
        lhs, rhs = {}, {}
        for b in range(n):
            base = b * n * nh
            # rho(ab)
            for x, u in amul(a, b):
                for (y, k), c in pairs(x):
                    key, t = base + y * nh + k, mul(u, c)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
            # rho(a) rho(b), multiplied leg by leg in A and in H
            for (a1, h1), ca in ra:
                for (b1, g1), cb in pairs(b):
                    ab = amul(a1, b1)
                    if not ab:
                        continue
                    coeff = mul(ca, cb)
                    for x, cx in ab:
                        for y, cy in hmul(h1, g1):
                            key, t = base + x * nh + y, mul(coeff, mul(cx, cy))
                            rhs[key] = add(rhs[key], t) if key in rhs else t
        mult.check_slab((a,), lhs, rhs, (n,), (n, nh))
    mult.finish()
    unit = LawAccumulator(rep, f, "coqmalg.unit")
    one_a, one_h = alg.unit.nonzero(), H.unit.nonzero()
    lhs = {}
    for i, a in one_a:
        for (y, k), c in pairs(i):
            key, t = y * nh + k, mul(a, c)
            lhs[key] = add(lhs[key], t) if key in lhs else t
    unit.check_slab((), lhs, {i * nh + j: mul(a, b) for i, a in one_a
                              for j, b in one_h}, (), (n, nh))
    unit.finish()
    return rep


def check_coqm_coalgebra(H, coalg, coact):
    """Coaction and coproduct of C commute in the comodule-coalgebra sense."""
    _require_coaction_dims(H, coact)
    _require_target(coalg, coact, "coalgebra dim != coaction M_dim")
    f = H.field
    add, mul, n, nh = f.add, f.mul, coalg.dim, H.dim
    csplit, pairs = coalg.delta.split_pairs, coact._pairs
    rep = VerificationReport()
    comult = LawAccumulator(rep, f, "coqmcoalg.comult")
    counit = LawAccumulator(rep, f, "coqmcoalg.counit")
    one = H.unit.nonzero()
    for cidx in range(n):
        lhs, lhs_eps = {}, {}
        for (c0, h), c in pairs(cidx):
            for (c1, c2), c2v in csplit(c0):
                key, t = (c1 * n + c2) * nh + h, mul(c, c2v)
                lhs[key] = add(lhs[key], t) if key in lhs else t
            t = mul(c, coalg.counit[c0])
            lhs_eps[h] = add(lhs_eps[h], t) if h in lhs_eps else t
        rhs = {}
        for (c1, c2), cv in csplit(cidx):
            for (c10, h1), v1 in pairs(c1):
                for (c20, h2), v2 in pairs(c2):
                    cc, base = mul(cv, mul(v1, v2)), (c10 * n + c20) * nh
                    for k, c in H.mu.mul_pairs(h1, h2):
                        key, t = base + k, mul(cc, c)
                        rhs[key] = add(rhs[key], t) if key in rhs else t
        comult.check_slab((cidx,), lhs, rhs, (), (n, n, nh))
        eps = coalg.counit[cidx]
        counit.check_slab((cidx,), lhs_eps, {u: mul(b, eps) for u, b in one},
                          (), (nh,))
    comult.finish()
    counit.finish()
    return rep


def check_antipode_colinear(H, C, coact):
    """S of the coacted-on Hopf structure is a comodule map."""
    _require_coaction_dims(H, coact)
    _require_target(C, coact, "structure dim != coaction M_dim")
    f = H.field
    add, mul, n, nh = f.add, f.mul, C.dim, H.dim
    anti, pairs = C.antipode.column, coact._pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "antipode.colinear")
    for cidx in range(n):
        lhs, rhs = {}, {}
        for x, s in anti(cidx):
            for (y, k), c in pairs(x):
                key, t = y * nh + k, mul(s, c)
                lhs[key] = add(lhs[key], t) if key in lhs else t
        for (c0, h), c in pairs(cidx):
            for x, v in anti(c0):
                key, t = x * nh + h, mul(c, v)
                rhs[key] = add(rhs[key], t) if key in rhs else t
        acc.check_slab((cidx,), lhs, rhs, (), (n, nh))
    acc.finish()
    return rep
