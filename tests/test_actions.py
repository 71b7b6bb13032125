import pytest

from conftest import (cyclic, inversion_action, klein, loop7, perm_action,
                      s3_table)

from hopfloop import (GF, ActionData, CoactionData, CosmashInput, QQ,
                      SmashInput, check_antipode_colinear,
                      check_antipode_linear, check_comodule,
                      check_coqm_algebra, check_coqm_coalgebra, check_module,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule, dualize,
                      loop_algebra, tensor_dimodule, trivial_action_dimodule,
                      trivial_coaction_dimodule)
from hopfloop.errors import DimMismatch, FieldMismatch


def _bad_action(field=QQ):
    """C2 'action' on the C3 algebra whose generator is not a bijection."""
    one = field.one
    return ActionData.from_entries(field, 2, 3, [
        (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
        (1, 0, 0, one), (1, 1, 1, one), (1, 2, 1, one)])


def test_mu_action_is_quasimodule():
    H = loop_algebra(loop7())
    assert check_quasimodule(H, ActionData.from_mu(H)).ok


def test_trivial_action_quasimodule():
    H = loop_algebra(s3_table())
    assert check_quasimodule(H, ActionData.trivial(H, 4)).ok


def test_inversion_action_full_positive_profile(H2, H3):
    act = inversion_action()
    assert check_quasimodule(H2, act).ok
    assert check_module(H2, act).ok
    assert check_qm_algebra(H2, H3, act).ok
    assert check_qm_coalgebra(H2, H3, act).ok
    assert check_antipode_linear(H2, H3, act).ok


def test_non_bijective_action_fails_algebra_laws(H2, H3):
    bad = _bad_action()
    rep = check_qm_algebra(H2, H3, bad)
    assert not rep.ok
    assert rep.law("qmalg.mult").witness is not None
    rep2 = check_antipode_linear(H2, H3, bad)
    assert not rep2.ok
    assert rep2.law("antipode.linear").witness is not None


def test_quasimodule_law_failure_witness(H2):
    # generator acting by a non-involution permutation of C4 basis breaks
    # h.(S(h).m) = m
    bad = perm_action(QQ, 2, [(0, 1, 2, 3), (0, 2, 3, 1)])
    rep = check_quasimodule(H2, bad)
    assert not rep.ok
    assert not rep.law("qm2.left").passed


def test_delta_coaction_comodule(H3):
    assert check_comodule(H3, CoactionData.from_delta(H3)).ok


def test_graded_coaction_comodule_but_not_coqm_coalgebra(H3):
    # a nontrivial grouplike grading is a fine comodule, but the twisted
    # coalgebra law forces the grading to be idempotent, so it must fail
    co = CoactionData.graded(H3, [0, 1, 2])
    assert check_comodule(H3, co).ok
    rep = check_coqm_coalgebra(H3, H3, co)
    assert not rep.ok


def test_dual_coaction_positive_profile(H2, H3):
    H2d, H3d = dualize(H2), dualize(H3)
    co = CoactionData.dual_of_action(inversion_action())
    assert check_quasicomodule(H2d, co).ok
    assert check_comodule(H2d, co).ok
    assert check_coqm_algebra(H2d, H3d, co).ok
    assert check_coqm_coalgebra(H2d, H3d, co).ok
    assert check_antipode_colinear(H2d, H3d, co).ok


def test_dual_of_bad_action_fails_colinearity(H2, H3):
    H2d, H3d = dualize(H2), dualize(H3)
    co = CoactionData.dual_of_action(_bad_action())
    rep = check_antipode_colinear(H2d, H3d, co)
    assert not rep.ok
    assert rep.law("antipode.colinear").witness is not None


def test_trivial_coaction_quasicomodule(H2):
    H2d = dualize(H2)
    assert check_quasicomodule(H2d, CoactionData.trivial(H2d, 3)).ok


def test_diagonal_action_closure():
    H = loop_algebra(loop7())
    D = trivial_coaction_dimodule(H, ActionData.from_mu(H))
    diag = tensor_dimodule(D, D).act
    assert diag.m_dim == 49
    assert check_quasimodule(H, diag).ok


def test_tensor_coaction_closure(H2):
    H2d = dualize(H2)
    D = trivial_action_dimodule(
        H2d, CoactionData.dual_of_action(inversion_action()))
    tens = tensor_dimodule(D, D).coact
    assert tens.m_dim == 9
    assert check_quasicomodule(H2d, tens).ok


def test_dim_mismatch_guard(H2):
    other = loop_algebra(klein())
    with pytest.raises(DimMismatch):
        check_quasimodule(other, inversion_action())



TARGET_CHECKS = ((check_qm_algebra, "algebra"),
                 (check_qm_coalgebra, "coalgebra"),
                 (check_antipode_linear, "structure"))
COTARGET_CHECKS = ((check_coqm_algebra, "algebra"),
                   (check_coqm_coalgebra, "coalgebra"),
                   (check_antipode_colinear, "structure"))


def test_target_guards(H2):
    act = inversion_action()
    H2d, co = dualize(H2), CoactionData.dual_of_action(act)
    gf5, klein4 = loop_algebra(cyclic(3), field=GF(5)), loop_algebra(klein())
    for check, target in TARGET_CHECKS:
        with pytest.raises(FieldMismatch):
            check(H2, gf5, act)
        with pytest.raises(DimMismatch,
                           match=f"^{target} dim != action M_dim$"):
            check(H2, klein4, act)
    for check, target in COTARGET_CHECKS:
        with pytest.raises(FieldMismatch):
            check(H2d, dualize(gf5), co)
        with pytest.raises(DimMismatch,
                           match=f"^{target} dim != coaction M_dim$"):
            check(H2d, dualize(klein4), co)


def test_smash_inputs_refuse_mixed_fields(H2, H3):
    act, gf5 = inversion_action(), GF(5)
    H3_gf5 = loop_algebra(cyclic(3), field=gf5)
    with pytest.raises(FieldMismatch):
        SmashInput(H2, H3_gf5, act)
    with pytest.raises(FieldMismatch):
        SmashInput(H2, H3, inversion_action(gf5))
    H2d = dualize(H2)
    with pytest.raises(FieldMismatch):
        CosmashInput(H2d, dualize(H3_gf5), CoactionData.dual_of_action(act))
    with pytest.raises(DimMismatch,
                       match="^action dims do not match H and A$"):
        SmashInput(H2, H2, act)
    with pytest.raises(DimMismatch,
                       match="^coaction dims do not match H and C$"):
        CosmashInput(H2d, H2d, CoactionData.dual_of_action(act))
