"""Smash products of Hopf quasigroups and smash coproducts of Hopf
coquasigroups, with checkers for the hypotheses under which the built
candidate is itself a valid structure.

An input is refused when it is made unless its (co)action fits H and the
target (`laws.legs`).  Builders never validate their output; feed the
candidate to the structure checkers.  The roundtrip functions package both
directions: the candidate's full suite verdict against the single
condition that governs it.

The conditions (cocommu, modass, commu, comodcoass) are declarations of
`hopfloop.laws`, evaluated by `laws.evaluate`; on their legs "A" is the
algebra A acted on or the coalgebra C coacted on.  The maps of the
candidates are constructions, chains on the legs (AH) of A (x) H and (HA)
of H (x) C built by `laws.build`: S comes out as a matrix in (out, in)
order, and a map whose inputs are all basis maps, as mu and S of the
smash product of loop algebras under a permutation action are, comes out
holding its basis map, so the candidate's checkers never search for it.
"""

from .actions import (check_coqm_algebra, check_coqm_coalgebra,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule)
from .errors import HypothesisNotMet, InvalidInput
from .laws import build, construction, evaluate, law, legs
from .report import VerificationReport
from .structures import (HopfCoquasigroup, HopfQuasigroup,
                         check_hopf_coquasigroup, check_hopf_quasigroup)


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

# mu, eta, delta, eps and S of the candidates, on the legs (AH) of A (x) H
# and (HA) of H (x) C
SMASH_PRODUCT = (
    construction("smash.mu", "(AH)(AH)", "(AH)",
                 "delta@1 swap@2 act@1 mu_A@0 mu@1"),
    construction("smash.eta", "", "(AH)", "eta_A@0 eta@1"),
    construction("smash.delta", "(AH)", "(AH)(AH)",
                 "delta_A@0 delta@2 swap@1"),
    construction("smash.eps", "(AH)", "", "eps_A@0 eps@0"),
    construction("smash.S", "(AH)", "(AH)",
                 "delta@1 S@1 S@2 S_A@0 swap@1 swap@0 act@0"))
SMASH_COPRODUCT = (
    construction("cosmash.mu", "(HA)(HA)", "(HA)", "swap@1 mu@0 mu_A@1"),
    construction("cosmash.eta", "", "(HA)", "eta@0 eta_A@1"),
    construction("cosmash.delta", "(HA)", "(HA)(HA)",
                 "delta@0 delta_A@2 coact@2 swap@1 mu@2"),
    construction("cosmash.eps", "(HA)", "", "eps@0 eps_A@0"),
    construction("cosmash.S", "(HA)", "(HA)",
                 "coact@1 swap@1 mu@0 S@0 S_A@1"))


def _structure(kind, maps, H, A, act=None, coact=None):
    """The structure `kind` whose mu, eta, delta, eps and S are the
    constructions `maps` over H, A and the (co)action."""
    return kind(*(build(con, H, A, act, coact) for con in maps))


def _require(rep, error, what):
    """Raise error("what: <the failing law ids>") unless `rep` is ok."""
    if not rep.ok:
        raise error(f"{what}: " + ", ".join(e.law_id for e in rep.failing()))


class SmashInput:
    """A Hopf quasigroup H acting on a Hopf quasigroup A."""

    __slots__ = ("H", "A", "act")

    def __init__(self, H, A, act):
        legs(H, A, act=act)
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
        legs(H, C, coact=coact)
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
    _require(inp.validate(), InvalidInput,
             "not a quasimodule Hopf quasigroup")
    return _structure(HopfQuasigroup, SMASH_PRODUCT, inp.H, inp.A,
                      act=inp.act)


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
    _require(inp.validate(), InvalidInput,
             "not a quasicomodule Hopf coquasigroup")
    return _structure(HopfCoquasigroup, SMASH_COPRODUCT, inp.H, inp.C,
                      coact=inp.coact)


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
    _require(hyp, HypothesisNotMet, "standing hypotheses fail")
    # inp.validate() passed above
    candidate = _structure(HopfQuasigroup, SMASH_PRODUCT, inp.H, inp.A,
                           act=inp.act)
    return RoundtripReport(check_hopf_quasigroup(candidate),
                           check_modass(inp), hyp)


def theorem_cosmash_roundtrip(inp):
    """Candidate-valid <=> twisted comodule coassociativity, given commu."""
    hyp = VerificationReport()
    hyp.extend(inp.validate())
    hyp.extend(check_commu(inp))
    _require(hyp, HypothesisNotMet, "standing hypotheses fail")
    # inp.validate() passed above
    candidate = _structure(HopfCoquasigroup, SMASH_COPRODUCT, inp.H, inp.C,
                           coact=inp.coact)
    return RoundtripReport(check_hopf_coquasigroup(candidate),
                           check_comodcoass(inp), hyp)
