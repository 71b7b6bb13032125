"""dequation: a seeded stream of Long dimodules through the law checks and
the D-equation.

Each instance builds one dimodule, then runs check_long_dimodule,
check_lemma_identities, d_map and check_d_equation.  The deck holds free
dimodules on M (x) H over C2, S3 and L7 and on H (x) M over their duals,
trivial (co)action, tensor and unit dimodules, and dimodules whose laws
fail.  Carrier dimensions run from 1 to 49 on both sides of 8, where the
D-equation check changes code path.  The seed picks the actions, gradings
and corrupted entries; the dimensions stay fixed so a deck costs the same
on every seed.

Oracle: over a group or loop algebra with a permutation action and a
grading coaction, every law compares single basis elements, so
oracle.perm_dimodule_verdicts decides it on integers.  A trivial-action
dimodule over a dual group algebra is decided by
oracle.trivial_action_dual_verdicts.  Every other dimodule is valid by
construction and, by the paper's master property, passes everything.
"""

import random
from itertools import permutations

import oracle
from common import perm_action

ALL_PASS = {"ldm": True, "lemma": True, "eq_d": True}


class Instance:
    __slots__ = ("kind", "label", "build", "args", "oracle")

    def __init__(self, label, build, args, expect):
        self.kind, self.label = "dimodule", label
        self.build, self.args, self.oracle = build, args, expect


def setup(ctx):
    hl, Q, rng = ctx.hl, ctx.Q, random.Random(ctx.seed)
    c2, c3, c4 = oracle.cyclic(2), oracle.cyclic(3), oracle.cyclic(4)
    s3, l7 = oracle.s3(), oracle.LOOP7_ROWS
    H2, HS3, H7 = (hl.loop_algebra(hl.LoopTable(t), field=Q)
                   for t in (c2, s3, l7))
    H2d, HS3d, H7d = hl.dualize(H2), hl.dualize(HS3), hl.dualize(H7)
    ident3 = (0, 1, 2)

    def involution(table):
        return rng.choice([p for p in oracle.automorphisms(table)
                           if oracle.invert_perm(p) == p])

    # S3 acting on three points, its lex-ordered permutations conjugated by a
    # seeded relabelling of the points
    sigma = rng.choice(sorted(permutations(range(3))))
    s3_pts = [oracle.compose(sigma, oracle.compose(
        f, oracle.invert_perm(sigma))) for f in sorted(permutations(range(3)))]

    def perm_case(table, perms, grading):
        return lambda: oracle.perm_dimodule_verdicts(table, perms, grading)[0]

    def valid():
        return ALL_PASS

    deck = []

    def add(label, build, args, expect):
        deck.append(Instance(label, build, args, expect))

    c2_c3 = [ident3, involution(c3)]
    add("free M(x)H C2.C3", hl.build_from_quasimodule,
        (H2, perm_action(hl, Q, c2_c3)),
        perm_case(c2, *oracle.free_on_module(c2, c2_c3)))
    add("free M(x)H S3.pts3", hl.build_from_quasimodule,
        (HS3, perm_action(hl, Q, s3_pts)),
        perm_case(s3, *oracle.free_on_module(s3, s3_pts)))
    add("free M(x)H L7.L7", hl.build_from_quasimodule,
        (H7, hl.ActionData.from_mu(H7)),
        perm_case(l7, *oracle.free_on_module(l7, l7)))
    add("free H(x)M C2d.C3", hl.build_from_comodule,
        (H2d, hl.CoactionData.dual_of_action(
            perm_action(hl, Q, [ident3, involution(c3)]))), valid)
    add("free H(x)M S3d.S3", hl.build_from_comodule,
        (HS3d, hl.CoactionData.dual_of_action(hl.ActionData.from_mu(HS3))),
        valid)
    add("free H(x)M L7d.pts2", hl.build_from_comodule,
        (H7d, hl.CoactionData.dual_of_action(hl.ActionData.trivial(H7, 2))),
        valid)

    c2_c4 = [(0, 1, 2, 3), involution(c4)]
    grading3 = [rng.randrange(2) for _ in range(3)]
    d_tc = hl.trivial_coaction_dimodule(H2, perm_action(hl, Q, c2_c4))
    d_ta = hl.trivial_action_dimodule(H2, hl.CoactionData.graded(H2, grading3))
    add("trivial coaction C2.C4", hl.trivial_coaction_dimodule,
        (H2, perm_action(hl, Q, c2_c4)), perm_case(c2, c2_c4, [0] * 4))
    add("trivial action C2.g3", hl.trivial_action_dimodule,
        (H2, hl.CoactionData.graded(H2, grading3)),
        perm_case(c2, [ident3] * 2, grading3))
    add("trivial coaction L7.L7", hl.trivial_coaction_dimodule,
        (H7, hl.ActionData.from_mu(H7)), perm_case(l7, l7, [0] * 7))
    add("trivial action C2d.C3", hl.trivial_action_dimodule,
        (H2d, hl.CoactionData.dual_of_action(
            perm_action(hl, Q, [ident3, involution(c3)]))), valid)
    add("tensor C2", hl.tensor_dimodule, (d_tc, d_ta), perm_case(
        c2, *oracle.tensor(c2, c2_c4, [0] * 4, [ident3] * 2, grading3)))
    add("unit S3", hl.unit_dimodule, (HS3,), perm_case(s3, [(0,)] * 6, [0]))
    add("unit L7d", hl.unit_dimodule, (H7d,), valid)

    # law-failing dimodules: gradings that the action does not preserve
    inversion = [ident3, (0, 2, 1)]
    bad_grading = [rng.randrange(2), 0, 1]
    bad_grading[1], bad_grading[2] = rng.sample((0, 1), 2)
    d_bad = hl.LongDimodule(H2, perm_action(hl, Q, inversion),
                            hl.CoactionData.graded(H2, bad_grading))
    add("bad C2.C3", hl.LongDimodule,
        (H2, perm_action(hl, Q, inversion),
         hl.CoactionData.graded(H2, bad_grading)),
        perm_case(c2, inversion, bad_grading))
    add("bad tensor C2", hl.tensor_dimodule, (d_bad, d_ta), perm_case(
        c2, *oracle.tensor(c2, inversion, bad_grading, [ident3] * 2,
                           grading3)))
    s3_grading = [rng.randrange(6) for _ in range(2)]
    s3_grading.append(rng.choice([g for g in range(6) if g != s3_grading[0]]))
    add("bad S3.pts3", hl.LongDimodule,
        (HS3, perm_action(hl, Q, s3_pts), hl.CoactionData.graded(
            HS3, s3_grading)), perm_case(s3, s3_pts, s3_grading))

    # a coaction over the dual of C2 with one counit-slice entry doubled
    c2_perms = [ident3, involution(c3)]
    entries = {(m, p[m], h): 1 for h, p in enumerate(c2_perms)
               for m in range(3)}
    m0 = rng.randrange(3)
    entries[(m0, m0, 0)] = 2
    bad_co = hl.CoactionData.from_entries(
        Q, 3, 2, [(m, m2, h, Q.from_int(c))
                  for (m, m2, h), c in entries.items()])
    add("bad C2d counit", hl.LongDimodule,
        (H2d, hl.ActionData.trivial(H2d, 3), bad_co),
        lambda: oracle.trivial_action_dual_verdicts(entries, 3))
    return deck


def expected(inst):
    return inst.oracle()


def outcome(ctx, inst, raw):
    D, reports = raw
    return {"verdicts": {"ldm": reports[0].ok, "lemma": reports[1].ok,
                         "eq_d": reports[2].ok},
            "reports": list(reports), "built": [D]}


def run_plain(ctx, inst):
    hl = ctx.hl
    D = inst.build(*inst.args)
    ldm = hl.check_long_dimodule(D)
    lemma = hl.check_lemma_identities(D)
    eq_d = hl.check_d_equation(hl.d_map(D))
    return D, (ldm, lemma, eq_d)


def run_traced(ctx, inst, tr):
    hl = ctx.hl
    D = tr.call("dimodules.build", inst.build, *inst.args)
    ldm = hl.VerificationReport()
    if D.variant == hl.OVER_QUASIGROUP:
        parts = (hl.check_quasimodule, D.act), (hl.check_comodule, D.coact)
    else:
        parts = (hl.check_module, D.act), (hl.check_quasicomodule, D.coact)
    with tr.span("dimodules.ldm"):
        for fn, data in parts:
            ldm.extend(tr.call("actions.module", fn, D.H, data))
        ldm.extend(tr.call("dimodules.compat", hl.check_compatibility, D))
    lemma = tr.call("dimodules.lemma", hl.check_lemma_identities, D)
    R = tr.call("dimodules.d_map", hl.d_map, D)
    eq_d = tr.call("dimodules.eq_d_small" if D.dim <= 8 else
                   "dimodules.eq_d_large", hl.check_d_equation, R)
    return D, (ldm, lemma, eq_d)
