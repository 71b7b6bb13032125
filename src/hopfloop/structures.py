"""Hopf quasigroups and coquasigroups as structure-constant tensors.

A structure bundles the product tensor mu, coproduct tensor delta, unit and
counit vectors and the antipode matrix over one exact field.  All law
checkers below quantify over every basis tuple and compare both sides
exactly, recording a witness on the first mismatch per law.
"""

from .errors import DimMismatch
from .fields import check_same_field
from .report import LawAccumulator, VerificationReport
from .tensors import Ten3, Vec


class AlgebraData:
    """Unital, not necessarily associative algebra: product tensor + unit."""

    def __init__(self, mu, unit):
        if mu.dim != unit.dim:
            raise DimMismatch("mu/unit dims differ")
        check_same_field(mu.field, unit.field)
        self.mu = mu
        self.unit = unit

    @property
    def dim(self):
        return self.mu.dim

    @property
    def field(self):
        return self.mu.field


class CoalgebraData:
    """Counital, not necessarily coassociative coalgebra.

    The counit is stored as a vector of its values on basis elements.
    """

    def __init__(self, delta, counit):
        if delta.dim != counit.dim:
            raise DimMismatch("delta/counit dims differ")
        check_same_field(delta.field, counit.field)
        self.delta = delta
        self.counit = counit

    @property
    def dim(self):
        return self.delta.dim

    @property
    def field(self):
        return self.delta.field


class HopfStructure:
    """Shared data layout of Hopf quasigroups and coquasigroups."""

    def __init__(self, alg, coalg, antipode):
        if alg.dim != coalg.dim:
            raise DimMismatch("algebra/coalgebra dims differ")
        if antipode.nrows != alg.dim or antipode.ncols != alg.dim:
            raise DimMismatch("antipode matrix dims")
        check_same_field(alg.field, coalg.field)
        check_same_field(alg.field, antipode.field)
        self.alg = alg
        self.coalg = coalg
        self.antipode = antipode

    @property
    def dim(self):
        return self.alg.dim

    @property
    def field(self):
        return self.alg.field

    @property
    def mu(self):
        return self.alg.mu

    @property
    def unit(self):
        return self.alg.unit

    @property
    def delta(self):
        return self.coalg.delta

    @property
    def counit(self):
        return self.coalg.counit

    def same_tensors(self, other):
        return (self.mu == other.mu and self.delta == other.delta
                and self.unit == other.unit and self.counit == other.counit
                and self.antipode == other.antipode)

    # -- sparse element operations (dict keyed by 1-tuples of basis index) --

    def unit_sparse(self):
        return {(i,): c for i, c in self.unit.nonzero()}


class HopfQuasigroup(HopfStructure):
    """Coassociative coalgebra, possibly nonassociative algebra."""


class HopfCoquasigroup(HopfStructure):
    """Associative algebra, possibly non-coassociative coalgebra."""


# --- checkers ---------------------------------------------------------------
#
# Every law is checked one slab at a time.  A slab holds all instances that
# share a fixed first input (the i of assoc's (i, j, k), the h of quasi's
# (h, g); a law with one instance per basis vector has one-instance slabs,
# except the unit and counit laws, which have one slab of every instance),
# as one dict per side keyed by the flat int inst * prod(out_dims) + out,
# where inst is the rest of the instance and out the basis tuple of the
# output, both row-major.  Terms are summed in place with
# d[k] = add(d[k], t) if k in d else t, zeros are left in, and
# LawAccumulator.check_slab compares the two sides once per slab.
# Structure constants are read from the cached views mu.mul_table[i][j],
# delta.split_pairs(i) and antipode.column(j) (S(e_j) = sum_i c e_i).


def check_unital_counital(H):
    """Unit and counit laws over every basis vector."""
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    table, split, counit = H.mu.mul_table, H.delta.split_pairs, H.counit
    rep = VerificationReport()
    one = H.unit.nonzero()
    e = {i * n + i: f.one for i in range(n)}
    left, right = {}, {}
    for i in range(n):
        base = i * n
        for u, a in one:
            for k, c in table[u][i]:
                key, t = base + k, mul(a, c)
                left[key] = add(left[key], t) if key in left else t
            for k, c in table[i][u]:
                key, t = base + k, mul(a, c)
                right[key] = add(right[key], t) if key in right else t
    for law_id, side in (("unit.left", left), ("unit.right", right)):
        acc = LawAccumulator(rep, f, law_id)
        acc.check_slab((), side, e, (n,), (n,))
        acc.finish()
    left, right = {}, {}
    for i in range(n):
        base = i * n
        for (j, k), c in split(i):
            key, t = base + k, mul(c, counit[j])
            left[key] = add(left[key], t) if key in left else t
            key, t = base + j, mul(c, counit[k])
            right[key] = add(right[key], t) if key in right else t
    for law_id, side in (("counit.left", left), ("counit.right", right)):
        acc = LawAccumulator(rep, f, law_id)
        acc.check_slab((), side, e, (n,), (n,))
        acc.finish()
    return rep


def check_associativity(H, informational=False):
    """(xy)z = x(yz) over all basis triples, with a witness triple."""
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    table = H.mu.mul_table
    # e_x e_k = sum c e_y as (k * n, y, c) terms, per x
    terms = [[(k * n, y, c) for k in range(n) for y, c in table[x][k]]
             for x in range(n)]
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "assoc", informational)
    for i in range(n):
        ti = table[i]
        left, right = {}, {}
        for j in range(n):
            base = j * n * n
            # (e_i e_j) e_k
            for x, a in ti[j]:
                for kn, y, b in terms[x]:
                    key, t = base + kn + y, mul(a, b)
                    left[key] = add(left[key], t) if key in left else t
            # e_i (e_j e_k)
            for kn, x, a in terms[j]:
                for y, b in ti[x]:
                    key, t = base + kn + y, mul(a, b)
                    right[key] = add(right[key], t) if key in right else t
        acc.check_slab((i,), left, right, (n, n), (n,))
    acc.finish()
    return rep


def check_coassociativity(H, informational=False):
    """(delta (x) id) delta = (id (x) delta) delta over all basis vectors."""
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    split = H.delta.split_pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "coassoc", informational)
    for i in range(n):
        left, right = {}, {}
        for (j, k), c in split(i):
            for (a, b), c2 in split(j):
                key, t = (a * n + b) * n + k, mul(c, c2)
                left[key] = add(left[key], t) if key in left else t
            for (a, b), c2 in split(k):
                key, t = (j * n + a) * n + b, mul(c, c2)
                right[key] = add(right[key], t) if key in right else t
        acc.check_slab((i,), left, right, (), (n, n, n))
    acc.finish()
    return rep


def check_bialgebra_compat(H):
    """Delta and epsilon are algebra homomorphisms."""
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    nn = n * n
    table, split, counit = H.mu.mul_table, H.delta.split_pairs, H.counit
    rep = VerificationReport()
    dm = LawAccumulator(rep, f, "bialg.delta_mult")
    cm = LawAccumulator(rep, f, "bialg.counit_mult")
    # Delta(e_i) Delta(e_j) = sum (e_a e_c) (x) (e_b e_d) over the terms
    # (a, b) of Delta(e_i) and (c, d) of Delta(e_j).  Only the pairs with
    # e_a e_c != 0 are visited: the c of each a with a nonzero product, and
    # the terms of every Delta(e_j) grouped by their first leg c.
    nonzero = [[(c, ac) for c, ac in enumerate(table[a]) if ac]
               for a in range(n)]
    by_first_leg = [[] for _ in range(n)]
    for j in range(n):
        for (c, d), cb in split(j):
            by_first_leg[c].append((j, d, cb))
    for i in range(n):
        ti, eps_i = table[i], counit[i]
        dprod, ddelta, eprod, eps = {}, {}, {}, {}
        for j in range(n):
            base = j * nn
            for x, a in ti[j]:
                for (p, q), c in split(x):
                    key, t = base + p * n + q, mul(a, c)
                    dprod[key] = add(dprod[key], t) if key in dprod else t
                t = mul(a, counit[x])
                eprod[j] = add(eprod[j], t) if j in eprod else t
            eps[j] = mul(eps_i, counit[j])
        for (a, b), ca in split(i):
            tb = table[b]
            for c, ac in nonzero[a]:
                for j, d, cb in by_first_leg[c]:
                    coeff, bd, base = mul(ca, cb), tb[d], j * nn
                    for x, cx in ac:
                        for y, cy in bd:
                            key = base + x * n + y
                            t = mul(coeff, mul(cx, cy))
                            ddelta[key] = (add(ddelta[key], t)
                                           if key in ddelta else t)
        dm.check_slab((i,), dprod, ddelta, (n,), (n, n))
        cm.check_slab((i,), eprod, eps, (n,), ())
    dm.finish()
    cm.finish()
    one = H.unit.nonzero()
    du = LawAccumulator(rep, f, "bialg.delta_unit")
    delta_one = {}
    for u, a in one:
        for (p, q), c in split(u):
            key, t = p * n + q, mul(a, c)
            delta_one[key] = add(delta_one[key], t) if key in delta_one else t
    du.check_slab((), delta_one,
                  {u * n + v: mul(a, b) for u, a in one for v, b in one},
                  (), (n, n))
    du.finish()
    cu = LawAccumulator(rep, f, "bialg.counit_unit")
    eps_one = f.zero
    for u, a in one:
        eps_one = add(eps_one, mul(a, counit[u]))
    cu.check_slab((), {0: eps_one}, {0: f.one}, (), ())
    cu.finish()
    return rep


def check_quasi_identities(H):
    """The four composite cancellation identities of a Hopf quasigroup.

    Coassociativity is a prerequisite and is reported first.
    """
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    table, split = H.mu.mul_table, H.delta.split_pairs
    anti = [H.antipode.column(j) for j in range(n)]
    rep = VerificationReport()
    rep.extend(check_coassociativity(H))
    accs = [LawAccumulator(rep, f, name) for name in
            ("quasi1.left", "quasi1.right", "quasi2.left", "quasi2.right")]
    for h in range(n):
        eps_h = H.counit[h]
        expected = {g * n + g: eps_h for g in range(n)}
        slabs = q1l, q1r, q2l, q2r = {}, {}, {}, {}
        for (h1, h2), c in split(h):
            # c times each antipode coefficient, once per coproduct term
            s1 = [(x, mul(c, a)) for x, a in anti[h1]]
            s2 = [(x, mul(c, a)) for x, a in anti[h2]]
            t1, t2 = table[h1], table[h2]
            for g in range(n):
                base, tg = g * n, table[g]
                # S(h1)(h2 g)
                for y, b in t2[g]:
                    for x, a in s1:
                        ab = mul(a, b)
                        for k, v in table[x][y]:
                            key, t = base + k, mul(ab, v)
                            q1l[key] = add(q1l[key], t) if key in q1l else t
                # h1 (S(h2) g)
                for x, a in s2:
                    for y, b in table[x][g]:
                        ab = mul(a, b)
                        for k, v in t1[y]:
                            key, t = base + k, mul(ab, v)
                            q1r[key] = add(q1r[key], t) if key in q1r else t
                # (g h1) S(h2)
                for x, a in tg[h1]:
                    tx = table[x]
                    for y, b in s2:
                        ab = mul(a, b)
                        for k, v in tx[y]:
                            key, t = base + k, mul(ab, v)
                            q2l[key] = add(q2l[key], t) if key in q2l else t
                # (g S(h1)) h2
                for y, b in s1:
                    for x, a in tg[y]:
                        ab = mul(a, b)
                        for k, v in table[x][h2]:
                            key, t = base + k, mul(ab, v)
                            q2r[key] = add(q2r[key], t) if key in q2r else t
        for acc, slab in zip(accs, slabs):
            acc.check_slab((h,), slab, expected, (n,), (n,))
    for acc in accs:
        acc.finish()
    return rep


def check_coq_identities(H):
    """The four composite identities of a Hopf coquasigroup.

    Associativity of the product is a prerequisite and is reported first.
    """
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    table, split = H.mu.mul_table, H.delta.split_pairs
    anti = [H.antipode.column(j) for j in range(n)]
    rep = VerificationReport()
    rep.extend(check_associativity(H))
    accs = [LawAccumulator(rep, f, name) for name in
            ("coq1.left", "coq1.right", "coq2.left", "coq2.right")]
    one = H.unit.nonzero()
    for h in range(n):
        one_h = {u * n + h: a for u, a in one}
        h_one = {h * n + u: a for u, a in one}
        slabs = c1l, c1r, c2l, c2r = {}, {}, {}, {}
        for (h1, h2), c in split(h):
            # S(h1) h2(1) (x) h2(2)  and  h1 S(h2(1)) (x) h2(2)
            s1, t1 = anti[h1], table[h1]
            for (a, b), c2 in split(h2):
                cc = mul(c, c2)
                for x, sx in s1:
                    for y, v in table[x][a]:
                        key, t = y * n + b, mul(cc, mul(sx, v))
                        c1l[key] = add(c1l[key], t) if key in c1l else t
                for x, sx in anti[a]:
                    for y, v in t1[x]:
                        key, t = y * n + b, mul(cc, mul(sx, v))
                        c1r[key] = add(c1r[key], t) if key in c1r else t
            # h1(1) (x) h1(2) S(h2)  and  h1(1) (x) S(h1(2)) h2
            s2 = anti[h2]
            for (a, b), c2 in split(h1):
                cc, tb = mul(c, c2), table[b]
                for x, sx in s2:
                    for y, v in tb[x]:
                        key, t = a * n + y, mul(cc, mul(sx, v))
                        c2l[key] = add(c2l[key], t) if key in c2l else t
                for x, sx in anti[b]:
                    for y, v in table[x][h2]:
                        key, t = a * n + y, mul(cc, mul(sx, v))
                        c2r[key] = add(c2r[key], t) if key in c2r else t
        for acc, slab, expected in zip(accs, slabs,
                                       (one_h, one_h, h_one, h_one)):
            acc.check_slab((h,), slab, expected, (), (n, n))
    for acc in accs:
        acc.finish()
    return rep


def check_antipode_basic(H):
    """Convolution identities plus anti(co)multiplicativity of the antipode."""
    f = H.field
    add, mul, n = f.add, f.mul, H.dim
    table, split = H.mu.mul_table, H.delta.split_pairs
    anti = [H.antipode.column(j) for j in range(n)]
    rep = VerificationReport()
    one = H.unit.nonzero()
    cv_l = LawAccumulator(rep, f, "antipode.conv_left")
    cv_r = LawAccumulator(rep, f, "antipode.conv_right")
    anti_co = LawAccumulator(rep, f, "antipode.anticomult")
    for h in range(n):
        eps_h = H.counit[h]
        expected = ({u: mul(a, eps_h) for u, a in one}
                    if eps_h != f.zero else {})
        left, right, lhs, rhs = {}, {}, {}, {}
        for (h1, h2), c in split(h):
            s1, s2 = anti[h1], anti[h2]
            for x, a in s1:
                for k, v in table[x][h2]:
                    t = mul(c, mul(a, v))
                    left[k] = add(left[k], t) if k in left else t
            t1 = table[h1]
            for x, a in s2:
                for k, v in t1[x]:
                    t = mul(c, mul(a, v))
                    right[k] = add(right[k], t) if k in right else t
            # (S (x) S)(delta h)
            for a, c1 in s1:
                for b, c2 in s2:
                    key, t = a * n + b, mul(c, mul(c1, c2))
                    lhs[key] = add(lhs[key], t) if key in lhs else t
        # flip(delta(S h))
        for x, a in anti[h]:
            for (p, q), c in split(x):
                key, t = q * n + p, mul(a, c)
                rhs[key] = add(rhs[key], t) if key in rhs else t
        cv_l.check_slab((h,), left, expected, (), (n,))
        cv_r.check_slab((h,), right, expected, (), (n,))
        anti_co.check_slab((h,), lhs, rhs, (), (n, n))
    cv_l.finish()
    cv_r.finish()
    anti_mul = LawAccumulator(rep, f, "antipode.antimult")
    for i in range(n):
        si, ti = anti[i], table[i]
        lhs, rhs = {}, {}
        for j in range(n):
            base = j * n
            for x, a in ti[j]:
                for y, c in anti[x]:
                    key, t = base + y, mul(a, c)
                    lhs[key] = add(lhs[key], t) if key in lhs else t
            for x, a in anti[j]:
                tx = table[x]
                for y, b in si:
                    ab = mul(a, b)
                    for k, c in tx[y]:
                        key, t = base + k, mul(ab, c)
                        rhs[key] = add(rhs[key], t) if key in rhs else t
        anti_mul.check_slab((i,), lhs, rhs, (n,), (n,))
    anti_mul.finish()
    anti_co.finish()
    return rep


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
    unit and counit swap roles, the antipode transposes.
    """
    f = H.field
    n = H.dim
    mu = Ten3._from_nz(
        f, (n, n, n), {(i, j, k): c for (k, i, j), c in H.delta.nz.items()})
    delta = Ten3._from_nz(
        f, (n, n, n), {(i, j, k): c for (j, k, i), c in H.mu.nz.items()})
    alg = AlgebraData(mu, Vec(f, H.counit.data))
    coalg = CoalgebraData(delta, Vec(f, H.unit.data))
    anti = H.antipode.transpose()
    cls = HopfCoquasigroup if isinstance(H, HopfQuasigroup) else HopfQuasigroup
    return cls(alg, coalg, anti)
