"""Smash products of Hopf quasigroups and smash coproducts of Hopf
coquasigroups, with checkers for the hypotheses under which the built
candidate is itself a valid structure.

Builders never validate their output; feed the candidate to the structure
checkers.  The roundtrip functions package both directions: the candidate's
full suite verdict against the single condition that governs it.

The conditions (cocommu, modass, commu, comodcoass) are declarations of
`hopfloop.laws`, evaluated by `laws.evaluate`; on their legs "A" is the
algebra A acted on or the coalgebra C coacted on.
"""

from .actions import (check_coqm_algebra, check_coqm_coalgebra,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule)
from .errors import DimMismatch, HypothesisNotMet, InvalidInput
from .fields import check_same_field
from .laws import evaluate, law
from .report import VerificationReport
from .structures import (AlgebraData, CoalgebraData, HopfCoquasigroup,
                         HopfQuasigroup, check_hopf_coquasigroup,
                         check_hopf_quasigroup)
from .tensors import Mat, Ten3, Vec, pair_index


COCOMMU = (
    law("cocommu", "HA", "HA", "delta@0 act@1", "delta@0 swap@0 act@1"),)
MODASS = (
    law("modass", "HHA", "A", "S@1 act@1 act@0", "S@1 mu@0 act@0"),
    law("modass.strict", "HHA", "A", "act@1 act@0", "mu@0 act@0",
        informational=True))
COMMU = (law("commu", "AH", "AH", "coact@0 mu@1", "coact@0 swap@1 mu@1"),)
COMODCOASS = (
    law("comodcoass", "A", "AHH", "coact@0 coact@0 S@1",
        "coact@0 delta@1 S@1"),)


class SmashInput:
    """A Hopf quasigroup H acting on a Hopf quasigroup A."""

    __slots__ = ("H", "A", "act")

    def __init__(self, H, A, act):
        if act.h_dim != H.dim or act.m_dim != A.dim:
            raise DimMismatch("action dims do not match H and A")
        check_same_field(H.field, A.field)
        check_same_field(H.field, act.field)
        self.H = H
        self.A = A
        self.act = act

    def validate(self):
        """A must be a quasimodule algebra and coalgebra under the action."""
        rep = VerificationReport()
        rep.extend(check_quasimodule(self.H, self.act))
        rep.extend(check_qm_algebra(self.H, self.A, self.act))
        rep.extend(check_qm_coalgebra(self.H, self.A, self.act))
        return rep


class CosmashInput:
    """A Hopf coquasigroup C coacting over a Hopf coquasigroup H."""

    __slots__ = ("H", "C", "coact")

    def __init__(self, H, C, coact):
        if coact.h_dim != H.dim or coact.m_dim != C.dim:
            raise DimMismatch("coaction dims do not match H and C")
        check_same_field(H.field, C.field)
        check_same_field(H.field, coact.field)
        self.H = H
        self.C = C
        self.coact = coact

    def validate(self):
        rep = VerificationReport()
        rep.extend(check_quasicomodule(self.H, self.coact))
        rep.extend(check_coqm_algebra(self.H, self.C, self.coact))
        rep.extend(check_coqm_coalgebra(self.H, self.C, self.coact))
        return rep


def check_cocommu(inp):
    """h_(1) (x) h_(2).a = h_(2) (x) h_(1).a for all basis h, a."""
    return evaluate(COCOMMU, inp.H, act=inp.act)


def check_modass(inp):
    """g.(S(h).a) = (gS(h)).a over all triples.

    Also reports, informationally, whether the stronger plain associativity
    g.(h.a) = (gh).a holds (law id modass.strict): the main law is the
    associativity of the action only up to the antipodal twist.
    """
    return evaluate(MODASS, inp.H, act=inp.act)


def build_smash_product(inp):
    """The candidate structure on A (x) H.

    Product (a(x)h)(b(x)g) = a(h_(1).b) (x) h_(2)g, tensor-product
    coproduct and counit, antipode S(a(x)h) = S(h_(2)).S(a) (x) S(h_(1)).
    Raises InvalidInput unless the input validates; no axioms of the
    candidate are checked here.
    """
    val = inp.validate()
    if not val.ok:
        raise InvalidInput(
            "not a quasimodule Hopf quasigroup: "
            + ", ".join(l.law_id for l in val.failing()))
    return _smash_product(inp)


def _smash_product(inp):
    """build_smash_product on an input already validated."""
    H, A, pairs = inp.H, inp.A, inp.act._pairs
    f = H.field
    nA, nH = A.dim, H.dim
    n = nA * nH
    split, anti = H.delta.split_pairs, H.antipode.column

    mu_entries = []
    for a in range(nA):
        for h in range(nH):
            i = pair_index(a, h, nH)
            for b in range(nA):
                for g in range(nH):
                    j = pair_index(b, g, nH)
                    for (h1, h2), c in split(h):
                        right = H.mu.mul_pairs(h2, g)
                        # a (h1 . b) (x) h2 g, one entry per term
                        for z, v in pairs(h1, b):
                            for x, w in A.mu.mul_pairs(a, z):
                                u = f.mul(v, w)
                                for y, v2 in right:
                                    mu_entries.append(
                                        (i, j, pair_index(x, y, nH),
                                         f.mul(c, f.mul(u, v2))))
    unit = [f.zero] * n
    for a, ca in A.unit.nonzero():
        for h, ch in H.unit.nonzero():
            unit[pair_index(a, h, nH)] = f.mul(ca, ch)

    delta_entries = []
    counit = [f.zero] * n
    for a in range(nA):
        for h in range(nH):
            i = pair_index(a, h, nH)
            counit[i] = f.mul(A.counit[a], H.counit[h])
            for (a1, a2), ca in A.delta.split_pairs(a):
                for (h1, h2), ch in split(h):
                    delta_entries.append(
                        (i, pair_index(a1, h1, nH), pair_index(a2, h2, nH),
                         f.mul(ca, ch)))

    s_entries = []
    for a in range(nA):
        sa = A.antipode.column(a)
        for h in range(nH):
            j = pair_index(a, h, nH)
            for (h1, h2), c in split(h):
                # S(h2) . S(a) (x) S(h1), one entry per term
                for z, s in anti(h2):
                    for t, w in sa:
                        sw = f.mul(s, w)
                        for x, v in pairs(z, t):
                            u = f.mul(sw, v)
                            for y, v1 in anti(h1):
                                s_entries.append((pair_index(x, y, nH), j,
                                                  f.mul(c, f.mul(u, v1))))

    return HopfQuasigroup(
        AlgebraData(Ten3.from_entries(f, n, mu_entries), Vec(f, unit)),
        CoalgebraData(Ten3.from_entries(f, n, delta_entries),
                      Vec(f, counit)),
        Mat(f, (n, n), s_entries))


def check_commu(inp):
    """c^(0) (x) c^(1)h = c^(0) (x) hc^(1) for all basis c, h."""
    return evaluate(COMMU, inp.H, coact=inp.coact)


def check_comodcoass(inp):
    """c^(0)(0) (x) S(c^(0)(1)) (x) c^(1) = c^(0) (x) S(c^(1)_(1)) (x) c^(1)_(2)."""
    return evaluate(COMODCOASS, inp.H, coact=inp.coact)


def build_smash_coproduct(inp):
    """The candidate structure on H (x) C.

    Tensor-product algebra and counit; coproduct
    Delta(h(x)c) = h_(1) (x) c_(1)^(0) (x) h_(2)c_(1)^(1) (x) c_(2) and
    antipode S(h(x)c) = S(hc^(1)) (x) S(c^(0)).  Raises InvalidInput
    unless the input validates; no axioms of the candidate are checked here.
    """
    val = inp.validate()
    if not val.ok:
        raise InvalidInput(
            "not a quasicomodule Hopf coquasigroup: "
            + ", ".join(l.law_id for l in val.failing()))
    return _smash_coproduct(inp)


def _smash_coproduct(inp):
    """build_smash_coproduct on an input already validated."""
    H, C, pairs = inp.H, inp.C, inp.coact._pairs
    f = H.field
    nH, nC = H.dim, C.dim
    n = nH * nC
    mul = H.mu.mul_pairs

    mu_entries = []
    for h in range(nH):
        for g in range(nH):
            hg = mul(h, g)
            for c in range(nC):
                for d in range(nC):
                    cd = C.mu.mul_pairs(c, d)
                    for x, u in hg:
                        for y, v in cd:
                            mu_entries.append(
                                (pair_index(h, c, nC), pair_index(g, d, nC),
                                 pair_index(x, y, nC), f.mul(u, v)))
    unit = [f.zero] * n
    for h, ch in H.unit.nonzero():
        for c, cc in C.unit.nonzero():
            unit[pair_index(h, c, nC)] = f.mul(ch, cc)

    delta_entries = []
    counit = [f.zero] * n
    for h in range(nH):
        h_split = H.delta.split_pairs(h)
        for c in range(nC):
            i = pair_index(h, c, nC)
            counit[i] = f.mul(H.counit[h], C.counit[c])
            for (c1, c2), vc in C.delta.split_pairs(c):
                for (c10, c11), w in pairs(c1):
                    for (h1, h2), vh in h_split:
                        for y, u in mul(h2, c11):
                            delta_entries.append(
                                (i, pair_index(h1, c10, nC),
                                 pair_index(y, c2, nC),
                                 f.mul(vc, f.mul(w, f.mul(vh, u)))))

    s_entries = []
    for h in range(nH):
        for c in range(nC):
            j = pair_index(h, c, nC)
            for (c0, c1), v in pairs(c):
                # S(h c1) (x) S(c0), one entry per term
                for z, a in mul(h, c1):
                    for x, s in H.antipode.column(z):
                        u = f.mul(a, s)
                        for y, w in C.antipode.column(c0):
                            s_entries.append((pair_index(x, y, nC), j,
                                              f.mul(v, f.mul(u, w))))

    return HopfCoquasigroup(
        AlgebraData(Ten3.from_entries(f, n, mu_entries), Vec(f, unit)),
        CoalgebraData(Ten3.from_entries(f, n, delta_entries),
                      Vec(f, counit)),
        Mat(f, (n, n), s_entries))


class RoundtripReport:
    """Both directions of a smash-construction theorem instance.

    `candidate_ok` is the full-suite verdict on the built structure,
    `condition_ok` the verdict of the governing condition; the theorem says
    they always agree when the standing hypotheses hold.
    """

    __slots__ = ("candidate_ok", "condition_ok", "candidate_report",
                 "condition_report", "hypothesis_report")

    def __init__(self, candidate_report, condition_report,
                 hypothesis_report):
        self.candidate_report = candidate_report
        self.condition_report = condition_report
        self.hypothesis_report = hypothesis_report
        self.candidate_ok = candidate_report.ok
        self.condition_ok = condition_report.ok

    @property
    def equivalent(self):
        return self.candidate_ok == self.condition_ok

    def to_dict(self):
        return {
            "equivalent": self.equivalent,
            "candidate_ok": self.candidate_ok,
            "condition_ok": self.condition_ok,
            "candidate": self.candidate_report.to_dict(),
            "condition": self.condition_report.to_dict(),
            "hypotheses": self.hypothesis_report.to_dict(),
        }


def theorem_smash_roundtrip(inp):
    """Candidate-valid <=> action antipodally associative, given cocommu.

    Raises HypothesisNotMet when the standing hypotheses (quasimodule Hopf
    quasigroup invariants plus cocommu) fail; the equivalence is not
    claimed outside them.
    """
    hyp = VerificationReport()
    hyp.extend(inp.validate())
    hyp.extend(check_cocommu(inp))
    if not hyp.ok:
        raise HypothesisNotMet(
            "standing hypotheses fail: "
            + ", ".join(l.law_id for l in hyp.failing()))
    candidate = _smash_product(inp)  # inp.validate() passed above
    return RoundtripReport(check_hopf_quasigroup(candidate),
                           check_modass(inp), hyp)


def theorem_cosmash_roundtrip(inp):
    """Candidate-valid <=> twisted comodule coassociativity, given commu."""
    hyp = VerificationReport()
    hyp.extend(inp.validate())
    hyp.extend(check_commu(inp))
    if not hyp.ok:
        raise HypothesisNotMet(
            "standing hypotheses fail: "
            + ", ".join(l.law_id for l in hyp.failing()))
    candidate = _smash_coproduct(inp)  # inp.validate() passed above
    return RoundtripReport(check_hopf_coquasigroup(candidate),
                           check_comodcoass(inp), hyp)
