import pytest

from conftest import inversion_action, loop7

from hopfloop import (ActionData, CoactionData, LongDimodule,
                      OVER_COQUASIGROUP, OVER_QUASIGROUP,
                      build_from_comodule, build_from_quasimodule,
                      check_adjunction, check_d_equation,
                      check_lemma_identities,
                      check_long_dimodule, d_map, dualize, loop_algebra,
                      tensor_dimodule, trivial_action_dimodule,
                      trivial_coaction_dimodule, unit_dimodule)
from hopfloop.errors import DimMismatch, HMismatch


def free_dimodule(H2):
    return build_from_quasimodule(H2, inversion_action())


def test_variant_inferred_from_structure(H2):
    D = trivial_coaction_dimodule(H2, inversion_action())
    assert D.variant == OVER_QUASIGROUP
    H2d = dualize(H2)
    Dd = trivial_action_dimodule(
        H2d, CoactionData.dual_of_action(inversion_action()))
    assert Dd.variant == OVER_COQUASIGROUP


def test_free_dimodule_valid(H2):
    D = free_dimodule(H2)
    assert D.dim == 6
    assert check_long_dimodule(D).ok
    assert check_lemma_identities(D).ok
    assert check_adjunction(H2, D).ok


def test_comodule_side_dimodule(H2):
    H2d = dualize(H2)
    co = CoactionData.dual_of_action(inversion_action())
    D = build_from_comodule(H2d, co)
    assert D.variant == OVER_COQUASIGROUP
    assert check_long_dimodule(D).ok
    rep = check_lemma_identities(D)
    assert rep.ok
    assert {e.law_id for e in rep.entries} == {"ldmcp1", "ldmcp2"}


def test_quasigroup_lemma_law_ids(H2):
    rep = check_lemma_identities(free_dimodule(H2))
    assert {e.law_id for e in rep.entries} == {"ldmp1", "ldmp2"}


def test_trivial_dimodules_and_identity_r(H2):
    act = inversion_action()
    Dt = trivial_coaction_dimodule(H2, act)
    assert check_long_dimodule(Dt).ok
    assert d_map(Dt).is_identity()
    Dc = trivial_action_dimodule(H2, CoactionData.graded(H2, [0, 1, 1]))
    assert check_long_dimodule(Dc).ok
    assert d_map(Dc).is_identity()


def test_unit_dimodule(H2):
    D = unit_dimodule(H2)
    assert D.dim == 1
    assert check_long_dimodule(D).ok
    assert d_map(D).is_identity()


def test_tensor_dimodule(H2):
    act = inversion_action()
    D1 = trivial_coaction_dimodule(H2, act)
    D2 = trivial_action_dimodule(H2, CoactionData.graded(H2, [0, 1, 1]))
    T = tensor_dimodule(D1, D2)
    assert T.dim == 9
    assert check_long_dimodule(T).ok
    assert check_d_equation(d_map(T)).ok


def test_tensor_dimodule_h_mismatch(H2, H3):
    D1 = trivial_coaction_dimodule(H2, inversion_action())
    D2 = trivial_coaction_dimodule(H3, ActionData.trivial(H3, 2))
    with pytest.raises(HMismatch):
        tensor_dimodule(D1, D2)


def test_d_equation_small_carrier(H2):
    assert check_d_equation(d_map(free_dimodule(H2))).ok


def test_d_equation_streaming_path():
    H7 = loop_algebra(loop7())
    D = build_from_quasimodule(H7, ActionData.from_mu(H7))
    assert D.dim == 49
    assert check_long_dimodule(D).ok
    assert check_d_equation(d_map(D)).ok


def test_d_equation_failure_witness(H2):
    # an incompatible pairing can break the D-equation; if it happens the
    # checker must carry a basis-triple witness
    from hopfloop.dimodules import RMap
    f = H2.field
    # hand-built non-solution: swap that is not a Yang-Baxter-type map
    R = RMap(f, 2, [(1, 0, f.one), (0, 1, f.one), (2, 2, f.one),
                    (3, 3, f.one)])
    rep = check_d_equation(R)
    assert not rep.ok
    witness = rep.law("eq.d").witness
    assert witness is not None
    assert len(witness.indices) == 3
    # the same (l, m, n) key shape as on large carriers
    assert witness.lhs and witness.rhs
    assert all(len(key) == 3 for key, _ in witness.lhs + witness.rhs)


def test_compatibility_failure(H2):
    bad = LongDimodule(H2, inversion_action(),
                       CoactionData.graded(H2, [0, 1, 0]))
    rep = check_long_dimodule(bad)
    assert not rep.ok
    assert not rep.law("ldm1").passed
    assert rep.law("ldm1").witness is not None


def test_lemma_falsification_quasigroup_side(H2):
    bad = LongDimodule(H2, inversion_action(),
                       CoactionData.graded(H2, [0, 1, 0]))
    rep = check_lemma_identities(bad)
    assert not rep.ok
    failed = rep.failing()
    assert failed and all(e.witness is not None for e in failed)
    assert {e.law_id for e in failed} <= {"ldmp1", "ldmp2"}


def test_lemma_falsification_coquasigroup_side(H2):
    H2d = dualize(H2)
    # corrupt the dual coaction by rescaling one entry
    co = CoactionData.dual_of_action(inversion_action())
    f = H2d.field
    entries = []
    for m in range(3):
        for m2 in range(3):
            for h in range(2):
                c = co.data[m][m2][h]
                if c != f.zero:
                    entries.append((m, m2, h, c))
    entries[0] = (entries[0][0], entries[0][1], entries[0][2],
                  f.from_int(2))
    bad = CoactionData.from_entries(f, 3, 2, entries)
    D = LongDimodule(H2d, ActionData.trivial(H2d, 3), bad,
                     OVER_COQUASIGROUP)
    rep = check_lemma_identities(D)
    assert not rep.ok
    assert {e.law_id for e in rep.failing()} <= {"ldmcp1", "ldmcp2"}


def test_dim_guards(H2, H3):
    with pytest.raises(DimMismatch):
        LongDimodule(H2, inversion_action(), CoactionData.trivial(H2, 4))
    with pytest.raises(DimMismatch):
        LongDimodule(H3, inversion_action(), CoactionData.trivial(H3, 3))
