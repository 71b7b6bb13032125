"""sweep: smash and cosmash theorem roundtrips on grouplike inputs.

One deck holds every pair H in {C2, V4, C4}, A in {C3, C4, C5, V4} with a
seeded action of H on A by automorphisms (pi_{h^-1} = pi_h^-1, involutive
for self-inverse h), the family of the soundness sweep.  Each pair gives a
smash instance (theorem_smash_roundtrip); the pairs in COSMASH also give a
cosmash instance (dualize the input, then theorem_cosmash_roundtrip).  Both
end in the JSON report.  The cosmash subset keeps every carrier size,
including both dim-20 candidates, the slowest of the family, while a deck
stays short enough to be run several times in one run.  Fixing the pairs
and seeding only the actions keeps the cost of a deck steady across seeds
while both verdicts occur.

Oracle: for a permutation action on a group algebra the governing condition
holds exactly when pi_g o pi_h = pi_{gh}, checked on the Cayley tables.
The theorem says the candidate verdict agrees.
"""

import random

import oracle
from common import perm_action, report_json

H_TABLES = (("C2", oracle.cyclic(2)), ("V4", oracle.klein()),
            ("C4", oracle.cyclic(4)))
A_TABLES = (("C3", oracle.cyclic(3)), ("C4", oracle.cyclic(4)),
            ("C5", oracle.cyclic(5)), ("V4", oracle.klein()))
COSMASH = {("C2", "C3"), ("C2", "C4"), ("C2", "C5"), ("C2", "V4"),
           ("V4", "C3"), ("V4", "C5"), ("C4", "V4"), ("C4", "C5")}


class Instance:
    __slots__ = ("kind", "label", "inp", "th", "perms")

    def __init__(self, kind, label, inp, th, perms):
        self.kind, self.label, self.inp = kind, label, inp
        self.th, self.perms = th, perms


def random_action(rng, th, auts):
    """Automorphisms pi_h with pi_{h^-1} = pi_h^-1 for every h."""
    assign = {0: auts[0]}
    involutions = [p for p in auts if oracle.invert_perm(p) == p]
    for h in range(1, len(th)):
        if h in assign:
            continue
        hi = oracle.inverse(th, h)
        if hi == h:
            assign[h] = rng.choice(involutions)
        else:
            assign[h] = rng.choice(auts)
            assign[hi] = oracle.invert_perm(assign[h])
    return [assign[h] for h in range(len(th))]


def setup(ctx):
    hl, rng = ctx.hl, random.Random(ctx.seed)
    alg = {name: hl.loop_algebra(hl.LoopTable(t), field=ctx.Q)
           for name, t in H_TABLES + A_TABLES}
    deck = []
    for hname, th in H_TABLES:
        for aname, ta in A_TABLES:
            perms = random_action(rng, th, oracle.automorphisms(ta))
            inp = hl.SmashInput(alg[hname], alg[aname],
                                perm_action(hl, ctx.Q, perms))
            for kind in ("smash", "cosmash"):
                if kind == "smash" or (hname, aname) in COSMASH:
                    deck.append(Instance(kind, f"{hname}>{aname}", inp, th,
                                         perms))
    return deck


def expected(inst):
    hom = oracle.is_hom(inst.th, inst.perms)
    return {"candidate": hom, "condition": hom}


def outcome(ctx, inst, raw):
    rt, doc, built = raw
    return {"verdicts": {"candidate": rt.candidate_ok,
                         "condition": rt.condition_ok},
            "reports": [doc], "built": built}


def run_plain(ctx, inst):
    hl, inp = ctx.hl, inst.inp
    if inst.kind == "smash":
        rt = hl.theorem_smash_roundtrip(inp)
    else:
        rt = hl.theorem_cosmash_roundtrip(hl.CosmashInput(
            hl.dualize(inp.H), hl.dualize(inp.A),
            hl.CoactionData.dual_of_action(inp.act)))
    return rt, report_json(rt)[0], []


def run_traced(ctx, inst, tr):
    """The roundtrip split into its public parts, in the library's order."""
    hl, inp = ctx.hl, inst.inp
    if inst.kind == "smash":
        return _roundtrip(
            tr, hl, inp, [],
            (hl.check_quasimodule, hl.check_qm_algebra,
             hl.check_qm_coalgebra), (inp.H, inp.A, inp.act),
            hl.check_cocommu, ("smash.build_product", hl.build_smash_product),
            (("structures.quasi", hl.check_quasi_identities),
             ("structures.assoc", hl.structures.check_associativity)),
            hl.check_modass)
    H = tr.call("structures.dualize", hl.dualize, inp.H)
    C = tr.call("structures.dualize", hl.dualize, inp.A)
    co = tr.call("actions.dual_of_action", hl.CoactionData.dual_of_action,
                 inp.act)
    return _roundtrip(
        tr, hl, hl.CosmashInput(H, C, co), [H, C, co],
        (hl.check_quasicomodule, hl.check_coqm_algebra,
         hl.check_coqm_coalgebra), (H, C, co),
        hl.check_commu, ("smash.build_coproduct", hl.build_smash_coproduct),
        (("structures.coq", hl.check_coq_identities),
         ("structures.coassoc", hl.structures.check_coassociativity)),
        hl.check_comodcoass)


def _roundtrip(tr, hl, inp, built, validate, args, hypothesis, builder,
               specific, condition):
    """theorem_{smash,cosmash}_roundtrip: validate (the module check, then
    the two module-(co)algebra checks), the standing hypothesis, the
    candidate, its full suite, and the governing condition."""
    H, other, data = args
    hyp = hl.VerificationReport()
    with tr.span("smash.validate"):
        hyp.extend(tr.call("actions.module", validate[0], H, data))
        for fn in validate[1:]:
            hyp.extend(tr.call("actions.modalg", fn, H, other, data))
    hyp.extend(tr.call("smash.condition", hypothesis, inp))
    if not hyp.ok:
        raise hl.errors.HypothesisNotMet(
            "standing hypotheses fail: "
            + ", ".join(law.law_id for law in hyp.failing()))
    candidate = tr.call(builder[0], builder[1], inp)
    built.append(candidate)
    (main_name, main), (info_name, info) = specific
    cand = hl.VerificationReport()
    cand.extend(tr.call("structures.unital_counital",
                        hl.check_unital_counital, candidate))
    cand.extend(tr.call("structures.bialg", hl.check_bialgebra_compat,
                        candidate))
    cand.extend(tr.call(main_name, main, candidate))
    cand.extend(tr.call("structures.antipode", hl.check_antipode_basic,
                        candidate))
    cand.extend(tr.call(info_name, info, candidate, informational=True))
    rt = hl.RoundtripReport(cand, tr.call("smash.condition", condition, inp),
                            hyp)
    doc, _ = tr.call("report.to_json", report_json, rt)
    return rt, doc, built
