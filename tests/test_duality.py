"""Metamorphic test of duality: each law's verdict on X equals its dual
law's verdict on dualize(X).

The dual of a law is the law between the transposed maps, and two maps are
equal exactly when their transposes are, so the pairs below hold on every
structure, failing ones included, whatever the checker's evaluation path.
Both the checkers and the per-instance reference are held to it.
"""

from hypothesis import given, settings, strategies as st

import structures_reference as ref
from test_structures import magma_algebras, random_structures

from hopfloop import check_hopf_coquasigroup, check_hopf_quasigroup, dualize

DUAL_LAWS = (
    ("assoc", "coassoc"),
    ("quasi1.left", "coq1.left"), ("quasi1.right", "coq1.right"),
    ("quasi2.left", "coq2.left"), ("quasi2.right", "coq2.right"),
    ("unit.left", "counit.left"), ("unit.right", "counit.right"),
    ("bialg.counit_mult", "bialg.delta_unit"),
    ("antipode.antimult", "antipode.anticomult"),
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
