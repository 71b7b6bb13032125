from conftest import cyclic, loop7, s3_table

from hopfloop import (GF, Mat, QQ, check_antipode_basic,
                      check_bialgebra_compat, check_coq_identities,
                      check_hopf_coquasigroup, check_hopf_quasigroup,
                      check_quasi_identities, check_unital_counital, dualize,
                      loop_algebra)
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
    from hopfloop import AlgebraData
    from hopfloop.tensors import Ten3
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
