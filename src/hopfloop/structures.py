"""Hopf quasigroups and coquasigroups as structure-constant tensors.

A structure bundles the product tensor mu, coproduct tensor delta, unit and
counit vectors and the antipode matrix over one exact field.  All law
checkers below quantify over every basis tuple and compare both sides
exactly, recording a witness on the first mismatch per law.

Four law families are decided on integer tables when the tensors they read
are basis maps, each input going to one basis vector with coefficient one,
as on loop algebras, their duals and the smash (co)products built from
them:

* assoc, when mu is a basis map (a magma algebra);
* quasi*, when mu and S are basis maps, delta is grouplike
  (delta(e_i) = e_i (x) e_i) and the counit is 1 on every basis vector;
* coassoc, when the transpose of delta is a basis map (the dual is a
  magma algebra);
* coq*, when the dual meets the quasi* condition: delta and S transpose to
  basis maps, e_i e_j = [i = j] e_i and the unit is the sum of the basis.

The input selects the path; every other structure takes the slab loops.
Both paths give the same report, witnesses included.
"""

from collections import deque

from .errors import DimMismatch
from .fields import check_same_field
from .report import LawAccumulator, VerificationReport
from .tensors import Ten3, Vec, assoc_mismatches, mismatches, quasi_rows


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
#
# The table paths (see the module docstring for when they apply) read the
# basis-map views mu.mul_rows, delta.comul_rows, antipode.column_map and
# antipode.row_map instead.  Both sides of every instance are then single
# basis vectors, so a law is decided by composing and comparing integer
# rows (tensors.assoc_mismatches, tensors.quasi_rows), every row of it.
#
# Mismatches are produced lazily and never stored: every row is still
# compared, but a law keeps only its first mismatch or least slab index.
#
# * assoc and quasi*: the first mismatching instance is the witness, and
#   its two sides are its two basis vectors.
# * coassoc and coq*: each is the transpose of a law of the dual (assoc,
#   and quasi_k.side for coq_k.side), and two maps are equal exactly when
#   their transposes are, so the law holds exactly when the dual law holds
#   on the transposed tables.  A mismatch l != r of the dual law at some
#   input makes slabs l and r of the law differ, so the first failing slab
#   is the least min(l, r).  Only that slab is built, by the helper the
#   slab loop uses (_coassoc_slab, _coq_slabs), and compared as usual, so
#   the witness is the slab loop's.


def _first(items):
    """The first of the iterator `items`, or None; the rest are produced
    (every row compared) but not kept."""
    first = next(items, None)
    deque(items, maxlen=0)
    return first


def _least_slab(items):
    """The least min(l, r) over the (..., l, r) mismatches `items`, or
    None: the first slab of the transposed law that fails."""
    return min((min(lhs, rhs) for *_, lhs, rhs in items), default=None)


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
    f, n = H.field, H.dim
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "assoc", informational)
    rows = H.mu.mul_rows
    if rows is not None:
        # the first failing triple, and both its sides, single basis vectors
        bad = _first(assoc_mismatches(rows))
        if bad is not None:
            i, j, k, lhs, rhs = bad
            acc.check_slab((i, j, k), {lhs: f.one}, {rhs: f.one}, (), (n,))
        acc.finish()
        return rep
    add, mul, table = f.add, f.mul, H.mu.mul_table
    # e_x e_k = sum c e_y as (k * n, y, c) terms, per x
    terms = [[(k * n, y, c) for k in range(n) for y, c in table[x][k]]
             for x in range(n)]
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


def _coassoc_slab(H, i):
    """Both sides of coassoc on e_i, keyed by the flat (a, b, k)."""
    f, n = H.field, H.dim
    add, mul, split = f.add, f.mul, H.delta.split_pairs
    left, right = {}, {}
    for (j, k), c in split(i):
        for (a, b), c2 in split(j):
            key, t = (a * n + b) * n + k, mul(c, c2)
            left[key] = add(left[key], t) if key in left else t
        for (a, b), c2 in split(k):
            key, t = (j * n + a) * n + b, mul(c, c2)
            right[key] = add(right[key], t) if key in right else t
    return left, right


def check_coassociativity(H, informational=False):
    """(delta (x) id) delta = (id (x) delta) delta over all basis vectors."""
    n = H.dim
    rep = VerificationReport()
    acc = LawAccumulator(rep, H.field, "coassoc", informational)
    rows, slabs = H.delta.comul_rows, range(n)
    if rows is not None:
        # delta is coassociative exactly when its transpose, the product
        # of the dual, is associative, and a mismatch l != r there makes
        # slabs l and r differ: only the least such slab is built.
        least = _least_slab(assoc_mismatches(rows))
        slabs = () if least is None else (least,)
    for i in slabs:
        acc.check_slab((i,), *_coassoc_slab(H, i), (), (n, n, n))
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


def _table_maps(rows, s, diag, ones):
    """(rows, s) when the quasi identities read from them compose basis
    maps: rows and s basis-map views, the tensor `diag` diagonal and the
    vector `ones` 1 on every basis vector; else None.  For quasi* these are
    mu.mul_rows, S.column_map, delta and the counit; for coq*, the same
    views of dualize(H) read from H: delta.comul_rows, S.row_map, mu and
    the unit, since the coq identities of H are the transposes of the quasi
    identities of its dual and each holds exactly when its dual holds."""
    if (rows is None or s is None or not diag.is_diagonal()
            or any(c != ones.field.one for c in ones.data)):
        return None
    return rows, s


def _quasi_maps(H):
    return _table_maps(H.mu.mul_rows, H.antipode.column_map, H.delta,
                       H.counit)


def _coq_maps(H):
    return _table_maps(H.delta.comul_rows, H.antipode.row_map, H.mu, H.unit)


def _quasi_mismatches(maps):
    """Per quasi law (1.left, 1.right, 2.left, 2.right), a lazy iterator of
    every (h, g, l, r) where the law's basis image l at (h, g) is not
    r = g."""
    rows, s = maps
    expected = [tuple(range(len(rows)))] * len(rows)
    return [mismatches(law, expected)
            for law in quasi_rows(rows, list(enumerate(s)))]


def check_quasi_identities(H):
    """The four composite cancellation identities of a Hopf quasigroup.

    Coassociativity is a prerequisite and is reported first.
    """
    f, n = H.field, H.dim
    rep = VerificationReport()
    rep.extend(check_coassociativity(H))
    accs = [LawAccumulator(rep, f, name) for name in
            ("quasi1.left", "quasi1.right", "quasi2.left", "quasi2.right")]
    maps = _quasi_maps(H)
    if maps is not None:
        for acc, bad in zip(accs, map(_first, _quasi_mismatches(maps))):
            if bad is not None:
                h, g, lhs, rhs = bad
                acc.check_slab((h, g), {lhs: f.one}, {rhs: f.one}, (), (n,))
            acc.finish()
        return rep
    add, mul = f.add, f.mul
    table, split = H.mu.mul_table, H.delta.split_pairs
    anti = [H.antipode.column(j) for j in range(n)]
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


def _coq_slabs(H, anti, h):
    """Per coq law, both sides of its slab h, keyed by the flat output."""
    f, n = H.field, H.dim
    add, mul = f.add, f.mul
    table, split = H.mu.mul_table, H.delta.split_pairs
    one = H.unit.nonzero()
    one_h = {u * n + h: a for u, a in one}
    h_one = {h * n + u: a for u, a in one}
    c1l, c1r, c2l, c2r = {}, {}, {}, {}
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
    return ((c1l, one_h), (c1r, one_h), (c2l, h_one), (c2r, h_one))


def check_coq_identities(H):
    """The four composite identities of a Hopf coquasigroup.

    Associativity of the product is a prerequisite and is reported first.
    """
    f, n = H.field, H.dim
    anti = [H.antipode.column(j) for j in range(n)]
    rep = VerificationReport()
    rep.extend(check_associativity(H))
    accs = [LawAccumulator(rep, f, name) for name in
            ("coq1.left", "coq1.right", "coq2.left", "coq2.right")]
    maps = _coq_maps(H)
    if maps is not None:
        # Only the least slab of each failing law is built, as in coassoc.
        for law, (acc, bad) in enumerate(zip(accs, _quasi_mismatches(maps))):
            h = _least_slab(bad)
            if h is not None:
                slab, expected = _coq_slabs(H, anti, h)[law]
                acc.check_slab((h,), slab, expected, (), (n, n))
    else:
        for h in range(n):
            for acc, (slab, expected) in zip(accs, _coq_slabs(H, anti, h)):
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
