import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import structures_reference as ref
from conftest import cyclic, inversion_action, klein, loop7, s3_table

from hopfloop import (GF, AlgebraData, CoactionData, CoalgebraData,
                      CosmashInput, Mat, QQ, SmashInput, Ten3, Vec,
                      build_smash_coproduct, build_smash_product,
                      check_antipode_basic, check_bialgebra_compat,
                      check_coq_identities, check_hopf_coquasigroup,
                      check_hopf_quasigroup, check_quasi_identities,
                      check_unital_counital, dualize, loop_algebra)
from hopfloop.structures import HopfQuasigroup


def test_group_algebras_full_suite():
    for table in (cyclic(2), cyclic(3), s3_table()):
        H = loop_algebra(table)
        rep = check_hopf_quasigroup(H)
        assert rep.ok, rep
        # groups give genuinely associative products
        assert rep.law("assoc").passed


def test_group_algebra_gf5():
    H = loop_algebra(s3_table(), field=GF(5))
    assert check_hopf_quasigroup(H).ok
    assert check_hopf_coquasigroup(dualize(H)).ok


def test_loop7_algebra_quasi_but_not_associative():
    H = loop_algebra(loop7())
    rep = check_hopf_quasigroup(H)
    assert rep.ok
    assoc = rep.law("assoc")
    assert assoc.informational and not assoc.passed
    assert assoc.witness is not None
    for law in ("quasi1.left", "quasi1.right", "quasi2.left", "quasi2.right"):
        assert rep.law(law).passed


def test_antipode_basic_laws():
    rep = check_antipode_basic(loop_algebra(s3_table()))
    for law in ("antipode.conv_left", "antipode.conv_right",
                "antipode.antimult", "antipode.anticomult"):
        assert rep.law(law).passed


def test_zero_antipode_fails_convolution():
    H = loop_algebra(cyclic(2))
    broken = HopfQuasigroup(H.alg, H.coalg, Mat(QQ, (2, 2), ()))
    rep = check_antipode_basic(broken)
    conv = rep.law("antipode.conv_left")
    assert not conv.passed
    # the identity basis element already witnesses the failure
    assert conv.witness.indices == (0,)


def test_dualize_involution_and_coq_suite():
    for table in (cyclic(2), s3_table(), loop7()):
        H = loop_algebra(table)
        D = dualize(H)
        rep = check_hopf_coquasigroup(D)
        assert rep.ok, rep
        back = dualize(D)
        assert back.same_tensors(H)
        assert isinstance(back, HopfQuasigroup)


def test_dual_of_nonassociative_loop_is_noncoassociative():
    D = dualize(loop_algebra(loop7()))
    rep = check_hopf_coquasigroup(D)
    assert rep.ok
    coassoc = rep.law("coassoc")
    assert coassoc.informational and not coassoc.passed


def test_unital_counital_and_bialgebra():
    H = loop_algebra(cyclic(3))
    assert check_unital_counital(H).ok
    assert check_bialgebra_compat(H).ok


def test_quasi_checker_reports_witness_on_corruption():
    H = loop_algebra(cyclic(2))
    # swap the antipode: S(e_1) = e_1 is wrong only for... C2 is self-inverse,
    # so corrupt mu instead: make e_1 * e_1 = e_1
    bad_mu = [key + (c,) for key, c in H.mu.nz.items() if key != (1, 1, 0)]
    bad_mu.append((1, 1, 1, QQ.one))
    broken = HopfQuasigroup(
        AlgebraData(Ten3.from_entries(QQ, 2, bad_mu), H.unit), H.coalg,
        H.antipode)
    rep = check_quasi_identities(broken)
    assert not rep.ok
    bad = rep.failing()[0]
    assert bad.witness is not None


def test_coq_identities_on_function_algebra():
    rep = check_coq_identities(dualize(loop_algebra(cyclic(3))))
    for law in ("coq1.left", "coq1.right", "coq2.left", "coq2.right"):
        assert rep.law(law).passed


# --- differential tests against the per-instance reference -----------------

SCALARS = {
    QQ: (0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)),
    GF(5): (0, 1, 2, 3, 4),
}
BUMPS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
S3 = loop_algebra(s3_table())


def assert_same_as_reference(H):
    for new, old in ((check_hopf_quasigroup, ref.check_hopf_quasigroup),
                     (check_hopf_coquasigroup, ref.check_hopf_coquasigroup)):
        assert (json.dumps(new(H).to_dict())
                == json.dumps(old(H).to_dict()))


@st.composite
def random_structures(draw):
    """Structure data of dim 1-4 over Q or GF(5); no law is assumed."""
    f = draw(st.sampled_from(list(SCALARS)))
    n = draw(st.integers(1, 4))
    scalar = st.sampled_from(SCALARS[f])
    idx = st.integers(0, n - 1)

    def entries(order):
        return draw(st.lists(st.tuples(*[idx] * order, scalar),
                             max_size=2 * n * n))

    def vec():
        return Vec(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    return HopfQuasigroup(
        AlgebraData(Ten3(f, (n,) * 3, entries(3)), vec()),
        CoalgebraData(Ten3(f, (n,) * 3, entries(3)), vec()),
        Mat(f, (n, n), entries(2)))


@st.composite
def s3_perturbations(draw):
    """Q[S3] or its dual with one structure constant moved by a bump."""
    H = draw(st.sampled_from((S3, dualize(S3))))
    parts = {"mu": H.mu, "delta": H.delta, "unit": H.unit,
             "counit": H.counit, "antipode": H.antipode}
    name = draw(st.sampled_from(sorted(parts)))
    bump = draw(st.sampled_from(BUMPS))
    idx = st.integers(0, H.dim - 1)
    t = parts[name]
    if isinstance(t, Vec):
        i = draw(idx)
        parts[name] = Vec(QQ, [c + bump if k == i else c
                               for k, c in enumerate(t.data)])
    else:
        key = draw(st.tuples(*[idx] * len(t.dims)))
        parts[name] = type(t)(QQ, t.dims, [k + (c,) for k, c in t.nz.items()]
                              + [key + (bump,)])
    return type(H)(AlgebraData(parts["mu"], parts["unit"]),
                   CoalgebraData(parts["delta"], parts["counit"]),
                   parts["antipode"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_structures())
def test_checkers_match_reference_random(H):
    assert_same_as_reference(H)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s3_perturbations())
def test_checkers_match_reference_on_perturbed_s3(H):
    assert_same_as_reference(H)


def test_checkers_match_reference_on_fixtures():
    for table in (cyclic(2), klein(), s3_table(), loop7()):
        for field in (QQ, GF(5)):
            H = loop_algebra(table, field=field)
            assert_same_as_reference(H)
            assert_same_as_reference(dualize(H))
    inp = SmashInput(loop_algebra(cyclic(2)), loop_algebra(cyclic(3)),
                     inversion_action())
    assert_same_as_reference(build_smash_product(inp))
    assert_same_as_reference(build_smash_coproduct(CosmashInput(
        dualize(inp.H), dualize(inp.A),
        CoactionData.dual_of_action(inp.act))))
