"""The law checkers of Hopf (co)quasigroups, one instance at a time.

These are the checkers `hopfloop.structures` had before it evaluated laws
one slab at a time: every basis tuple builds fresh sparse dicts with
`sadd` and is compared on its own.  They are slow and are kept only so that
the slab checkers can be tested against them, report for report.
"""

from instance_reference import (LawAccumulator, nonzeros, sadd, sscale,
                                tensor2, tensor_mul, unit_sparse, value)

from hopfloop.report import VerificationReport


def counit_scalar(H, u):
    f = H.field
    s = f.zero
    for (i,), a in u.items():
        s = f.add(s, f.mul(a, value(H.counit, i)))
    return s


def split_sparse_tensor(f, delta, u):
    """Coproduct of a 1-leg sparse element as a 2-leg sparse element."""
    out = {}
    for (i,), a in u.items():
        for (j, k), c in delta.split_pairs(i):
            sadd(f, out, (j, k), f.mul(a, c))
    return out


def check_unital_counital(H):
    """Unit and counit laws over every basis vector."""
    f = H.field
    mul, split = H.mu.mul_pairs, H.delta.split_pairs
    rep = VerificationReport()
    one = nonzeros(H.unit)
    ul = LawAccumulator(rep, f, "unit.left")
    ur = LawAccumulator(rep, f, "unit.right")
    for i in range(H.dim):
        left, right = {}, {}
        for u, a in one:
            for k, c in mul(u, i):
                sadd(f, left, (k,), f.mul(a, c))
            for k, c in mul(i, u):
                sadd(f, right, (k,), f.mul(a, c))
        e = {(i,): f.one}
        ul.check((i,), left, e)
        ur.check((i,), right, e)
    ul.finish()
    ur.finish()
    cl = LawAccumulator(rep, f, "counit.left")
    cr = LawAccumulator(rep, f, "counit.right")
    for i in range(H.dim):
        left, right = {}, {}
        for (j, k), c in split(i):
            sadd(f, left, (k,), f.mul(c, value(H.counit, j)))
            sadd(f, right, (j,), f.mul(c, value(H.counit, k)))
        e = {(i,): f.one}
        cl.check((i,), left, e)
        cr.check((i,), right, e)
    cl.finish()
    cr.finish()
    return rep


def check_associativity(H, informational=False):
    """(xy)z = x(yz) over all basis triples, with a witness triple."""
    f = H.field
    mul = H.mu.mul_pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "assoc", informational)
    for i in range(H.dim):
        for j in range(H.dim):
            ij = mul(i, j)
            for k in range(H.dim):
                left, right = {}, {}
                for x, a in ij:
                    for y, b in mul(x, k):
                        sadd(f, left, (y,), f.mul(a, b))
                for x, a in mul(j, k):
                    for y, b in mul(i, x):
                        sadd(f, right, (y,), f.mul(a, b))
                acc.check((i, j, k), left, right)
    acc.finish()
    return rep


def check_coassociativity(H, informational=False):
    """(delta (x) id) delta = (id (x) delta) delta over all basis vectors."""
    f = H.field
    split = H.delta.split_pairs
    rep = VerificationReport()
    acc = LawAccumulator(rep, f, "coassoc", informational)
    for i in range(H.dim):
        left, right = {}, {}
        for (j, k), c in split(i):
            for (a, b), c2 in split(j):
                sadd(f, left, (a, b, k), f.mul(c, c2))
            for (a, b), c2 in split(k):
                sadd(f, right, (j, a, b), f.mul(c, c2))
        acc.check((i,), left, right)
    acc.finish()
    return rep


def check_bialgebra_compat(H):
    """Delta and epsilon are algebra homomorphisms."""
    f = H.field
    mul, split, counit = H.mu.mul_pairs, H.delta.split_pairs, H.counit
    rep = VerificationReport()
    dm = LawAccumulator(rep, f, "bialg.delta_mult")
    cm = LawAccumulator(rep, f, "bialg.counit_mult")
    for i in range(H.dim):
        di = split(i)
        for j in range(H.dim):
            prod = mul(i, j)
            dprod = {}
            lhs = f.zero
            for x, a in prod:
                for jk, c in split(x):
                    sadd(f, dprod, jk, f.mul(a, c))
                lhs = f.add(lhs, f.mul(a, value(counit, x)))
            dm.check((i, j), dprod, tensor_mul(f, H.mu, H.mu, di, split(j)))
            rhs = f.mul(value(counit, i), value(counit, j))
            cm.check((i, j), {(): lhs} if lhs != f.zero else {},
                     {(): rhs} if rhs != f.zero else {})
    dm.finish()
    cm.finish()
    one = unit_sparse(H)
    du = LawAccumulator(rep, f, "bialg.delta_unit")
    du.check((), split_sparse_tensor(f, H.delta, one), tensor2(f, one, one))
    du.finish()
    cu = LawAccumulator(rep, f, "bialg.counit_unit")
    s = counit_scalar(H, one)
    cu.check((), {(): s} if s != f.zero else {}, {(): f.one})
    cu.finish()
    return rep


def check_quasi_identities(H):
    """The four composite cancellation identities of a Hopf quasigroup.

    Coassociativity is a prerequisite and is reported first.
    """
    f = H.field
    mul, split, anti = H.mu.mul_pairs, H.delta.split_pairs, H.antipode.column
    rep = VerificationReport()
    rep.extend(check_coassociativity(H))
    accs = {name: LawAccumulator(rep, f, name) for name in
            ("quasi1.left", "quasi1.right", "quasi2.left", "quasi2.right")}
    for h in range(H.dim):
        dh = split(h)
        eps_h = value(H.counit, h)
        for g in range(H.dim):
            expected = {(g,): eps_h} if eps_h != f.zero else {}
            q1l, q1r, q2l, q2r = {}, {}, {}, {}
            for (h1, h2), c in dh:
                s1, s2 = anti(h1), anti(h2)
                # S(h1)(h2 g)
                for y, b in mul(h2, g):
                    for x, a in s1:
                        ab = f.mul(c, f.mul(a, b))
                        for k, v in mul(x, y):
                            sadd(f, q1l, (k,), f.mul(ab, v))
                # h1 (S(h2) g)
                for x, a in s2:
                    for y, b in mul(x, g):
                        ab = f.mul(c, f.mul(a, b))
                        for k, v in mul(h1, y):
                            sadd(f, q1r, (k,), f.mul(ab, v))
                # (g h1) S(h2)
                for x, a in mul(g, h1):
                    for y, b in s2:
                        ab = f.mul(c, f.mul(a, b))
                        for k, v in mul(x, y):
                            sadd(f, q2l, (k,), f.mul(ab, v))
                # (g S(h1)) h2
                for y, b in s1:
                    for x, a in mul(g, y):
                        ab = f.mul(c, f.mul(a, b))
                        for k, v in mul(x, h2):
                            sadd(f, q2r, (k,), f.mul(ab, v))
            accs["quasi1.left"].check((h, g), q1l, expected)
            accs["quasi1.right"].check((h, g), q1r, expected)
            accs["quasi2.left"].check((h, g), q2l, expected)
            accs["quasi2.right"].check((h, g), q2r, expected)
    for acc in accs.values():
        acc.finish()
    return rep


def check_coq_identities(H):
    """The four composite identities of a Hopf coquasigroup.

    Associativity of the product is a prerequisite and is reported first.
    """
    f = H.field
    mul, split, anti = H.mu.mul_pairs, H.delta.split_pairs, H.antipode.column
    rep = VerificationReport()
    rep.extend(check_associativity(H))
    accs = {name: LawAccumulator(rep, f, name) for name in
            ("coq1.left", "coq1.right", "coq2.left", "coq2.right")}
    one = nonzeros(H.unit)
    for h in range(H.dim):
        one_h = {(u, h): a for u, a in one}
        h_one = {(h, u): a for u, a in one}
        c1l, c1r, c2l, c2r = {}, {}, {}, {}
        for (h1, h2), c in split(h):
            # S(h1) h2(1) (x) h2(2)  and  h1 S(h2(1)) (x) h2(2)
            s1 = anti(h1)
            for (a, b), c2 in split(h2):
                cc = f.mul(c, c2)
                for x, sx in s1:
                    for y, v in mul(x, a):
                        sadd(f, c1l, (y, b), f.mul(cc, f.mul(sx, v)))
                for x, sx in anti(a):
                    for y, v in mul(h1, x):
                        sadd(f, c1r, (y, b), f.mul(cc, f.mul(sx, v)))
            # h1(1) (x) h1(2) S(h2)  and  h1(1) (x) S(h1(2)) h2
            s2 = anti(h2)
            for (a, b), c2 in split(h1):
                cc = f.mul(c, c2)
                for x, sx in s2:
                    for y, v in mul(b, x):
                        sadd(f, c2l, (a, y), f.mul(cc, f.mul(sx, v)))
                for x, sx in anti(b):
                    for y, v in mul(x, h2):
                        sadd(f, c2r, (a, y), f.mul(cc, f.mul(sx, v)))
        accs["coq1.left"].check((h,), c1l, one_h)
        accs["coq1.right"].check((h,), c1r, one_h)
        accs["coq2.left"].check((h,), c2l, h_one)
        accs["coq2.right"].check((h,), c2r, h_one)
    for acc in accs.values():
        acc.finish()
    return rep


def check_antipode_basic(H):
    """Convolution identities plus anti(co)multiplicativity of the antipode."""
    f = H.field
    mul, split, anti = H.mu.mul_pairs, H.delta.split_pairs, H.antipode.column
    rep = VerificationReport()
    one = unit_sparse(H)
    cv_l = LawAccumulator(rep, f, "antipode.conv_left")
    cv_r = LawAccumulator(rep, f, "antipode.conv_right")
    anti_co = LawAccumulator(rep, f, "antipode.anticomult")
    for h in range(H.dim):
        dh = split(h)
        expected = sscale(f, one, value(H.counit, h))
        left, right, lhs = {}, {}, {}
        for (h1, h2), c in dh:
            s1, s2 = anti(h1), anti(h2)
            for x, a in s1:
                for k, v in mul(x, h2):
                    sadd(f, left, (k,), f.mul(c, f.mul(a, v)))
            for x, a in s2:
                for k, v in mul(h1, x):
                    sadd(f, right, (k,), f.mul(c, f.mul(a, v)))
            # (S (x) S)(delta h)
            for a, c1 in s1:
                for b, c2 in s2:
                    sadd(f, lhs, (a, b), f.mul(c, f.mul(c1, c2)))
        cv_l.check((h,), left, expected)
        cv_r.check((h,), right, expected)
        # flip(delta(S h))
        rhs = {}
        for x, a in anti(h):
            for (p, q), c in split(x):
                sadd(f, rhs, (q, p), f.mul(a, c))
        anti_co.check((h,), lhs, rhs)
    cv_l.finish()
    cv_r.finish()
    anti_mul = LawAccumulator(rep, f, "antipode.antimult")
    for i in range(H.dim):
        si = anti(i)
        for j in range(H.dim):
            lhs, rhs = {}, {}
            for x, a in mul(i, j):
                for y, c in anti(x):
                    sadd(f, lhs, (y,), f.mul(a, c))
            for x, a in anti(j):
                for y, b in si:
                    ab = f.mul(a, b)
                    for k, c in mul(x, y):
                        sadd(f, rhs, (k,), f.mul(ab, c))
            anti_mul.check((i, j), lhs, rhs)
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
