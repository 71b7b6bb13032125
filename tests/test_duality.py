"""Metamorphic test of duality: each law's verdict on X equals its dual
law's verdict on dualize(X).

The dual of a law is the law between the transposed maps, and two maps are
equal exactly when their transposes are, so the pairs below hold on every
structure, failing ones included, whatever the checker's evaluation path.
Both the checkers and the per-instance references are held to it.

For an action of H on A, the dual input is the coaction
`CoactionData.dual_of_action` of dualize(H) on the same A: A itself is not
dualized.

The inputs are random structures and actions over Q and GF(5), and every
structure and smash bundle of the golden corpus (tests/golden/in).
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

import instance_reference
import structures_reference as ref
from test_module_laws import action_inputs
from test_structures import magma_algebras, random_structures

import hopfloop
from hopfloop import (ActionData, CoactionData, CosmashInput, SmashInput,
                      check_hopf_coquasigroup, check_hopf_quasigroup, dualize,
                      fileio)
from hopfloop.errors import ParseError

DUAL_LAWS = (
    ("assoc", "coassoc"),
    ("quasi1.left", "coq1.left"), ("quasi1.right", "coq1.right"),
    ("quasi2.left", "coq2.left"), ("quasi2.right", "coq2.right"),
    ("unit.left", "counit.left"), ("unit.right", "counit.right"),
    ("bialg.counit_mult", "bialg.delta_unit"),
    ("antipode.antimult", "antipode.anticomult"),
    ("bialg.delta_mult", "bialg.delta_mult"),
    ("bialg.counit_unit", "bialg.counit_unit"),
    ("antipode.conv_left", "antipode.conv_left"),
    ("antipode.conv_right", "antipode.conv_right"),
)


def verdicts(X, suites):
    """law id -> passed, over both full suites."""
    return {e.law_id: e.passed
            for suite in suites for e in suite(X).entries}


def assert_dual_verdicts(X):
    D = dualize(X)
    for suites in ((check_hopf_quasigroup, check_hopf_coquasigroup),
                   (ref.check_hopf_quasigroup, ref.check_hopf_coquasigroup)):
        on_x, on_d = verdicts(X, suites), verdicts(D, suites)
        for law, dual in DUAL_LAWS:
            assert on_x[law] == on_d[dual], (law, dual)
            assert on_x[dual] == on_d[law], (dual, law)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(random_structures(), magma_algebras()))
def test_dual_laws_agree_on_dual_structures(X):
    assert_dual_verdicts(X)


ACTION_DUAL_LAWS = (
    ("qm.unital", "cqm.counital"),
    ("qm2.left", "cqm2.left"), ("qm2.right", "cqm2.right"),
    ("mod.unital", "comod.counital"), ("mod.assoc", "comod.coassoc"),
    ("qmalg.mult", "coqmalg.mult"), ("qmalg.unit", "coqmalg.unit"),
    ("qmcoalg.comult", "coqmcoalg.comult"),
    ("qmcoalg.counit", "coqmcoalg.counit"),
    ("antipode.linear", "antipode.colinear"),
    ("cocommu", "commu"),
)


def action_verdicts(checkers, H, A, act):
    """law id -> passed, over the action laws of (H, A, act) and the
    coaction laws of its dual, as decided by the module `checkers`."""
    D, co = dualize(H), CoactionData.dual_of_action(act)
    reports = (checkers.check_quasimodule(H, act),
               checkers.check_module(H, act),
               checkers.check_qm_algebra(H, A, act),
               checkers.check_qm_coalgebra(H, A, act),
               checkers.check_antipode_linear(H, A, act),
               checkers.check_cocommu(SmashInput(H, A, act)),
               checkers.check_quasicomodule(D, co),
               checkers.check_comodule(D, co),
               checkers.check_coqm_algebra(D, A, co),
               checkers.check_coqm_coalgebra(D, A, co),
               checkers.check_antipode_colinear(D, A, co),
               checkers.check_commu(CosmashInput(D, A, co)))
    return {e.law_id: e.passed for rep in reports for e in rep.entries}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(action_inputs())
def test_dual_action_laws_agree(inp):
    for checkers in (hopfloop, instance_reference):
        verdicts = action_verdicts(checkers, *inp)
        for law, dual in ACTION_DUAL_LAWS:
            assert verdicts[law] == verdicts[dual], (law, dual)


# --- the golden inputs -------------------------------------------------------

GOLDEN_IN = Path(__file__).parent / "golden" / "in"


def golden_inputs(pattern, load):
    """Every golden input file matching `pattern`, read by `load`, the
    unparsable ones (junk.hq, dup.hq) left out."""
    inputs = []
    for path in sorted(GOLDEN_IN.glob(pattern)):
        try:
            inputs.append(load(str(path)))
        except ParseError:
            pass
    return inputs


def test_dual_laws_agree_on_golden_structures():
    structures = golden_inputs("*.hq", fileio.load_structure)
    assert len(structures) == 14
    for X in structures:
        assert_dual_verdicts(X)


def test_dual_action_laws_agree_on_golden_bundles():
    """Each smash bundle as (H, A, act); the cosmash bundle (H, C, coact)
    as the action of dualize(H) on C whose dual coaction is coact."""
    bundles = golden_inputs("*smash*.bundle", fileio.load_smash_bundle)
    assert len(bundles) == 4
    for inp in bundles:
        if isinstance(inp, SmashInput):
            H, A, act = inp.H, inp.A, inp.act
        else:
            H, A = dualize(inp.H), inp.C
            act = ActionData.from_entries(
                H.field, H.dim, A.dim,
                ((h, m, k, c) for (m, k, h), c in inp.coact.nz.items()))
            assert CoactionData.dual_of_action(act) == inp.coact
        for checkers in (hopfloop, instance_reference):
            verdicts = action_verdicts(checkers, H, A, act)
            for law, dual in ACTION_DUAL_LAWS:
                assert verdicts[law] == verdicts[dual], (law, dual)
