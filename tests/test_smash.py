from itertools import product

import pytest

from conftest import (cyclic, inversion_action, klein, loop7, perm_action,
                      s3_table, vector)
from instance_reference import tensor_mul

from hopfloop import (ActionData, CoactionData, CosmashInput, QQ,
                      SmashInput, SparseTensor, build_smash_coproduct,
                      build_smash_product,
                      check_cocommu, check_commu, check_comodcoass,
                      check_hopf_coquasigroup, check_hopf_quasigroup,
                      check_modass, dualize, loop_algebra,
                      theorem_cosmash_roundtrip, theorem_smash_roundtrip)
from hopfloop.errors import HypothesisNotMet, InvalidInput


def smash_c2_c3(H2, H3):
    return SmashInput(H2, H3, inversion_action())


def v4_on_c3_bad():
    """All three involutions of V4 act by inversion: not a homomorphism."""
    H4 = loop_algebra(klein())
    A3 = loop_algebra(cyclic(3))
    inv = (0, 2, 1)
    act = perm_action(QQ, 4, [(0, 1, 2), inv, inv, inv])
    return SmashInput(H4, A3, act)


def test_invariants_hold_on_inversion_fixture(H2, H3):
    assert smash_c2_c3(H2, H3).validate().ok


def test_cocommu_grouplike_always_passes(H2, H3):
    assert check_cocommu(smash_c2_c3(H2, H3)).ok


def test_cocommu_failure_on_noncocommutative():
    # the dual of a noncommutative group algebra is non-cocommutative;
    # pair it with its own multiplication action
    Hd = dualize(loop_algebra(s3_table()))
    inp = SmashInput(Hd, Hd, ActionData.from_mu(Hd))
    rep = check_cocommu(inp)
    assert not rep.ok
    assert rep.law("cocommu").witness is not None


def test_modass_with_strict_form(H2, H3):
    rep = check_modass(smash_c2_c3(H2, H3))
    assert rep.ok
    strict = rep.law("modass.strict")
    assert strict.informational and strict.passed


def test_modass_failure_witness():
    rep = check_modass(v4_on_c3_bad())
    assert not rep.ok
    assert len(rep.law("modass").witness.indices) == 3
    assert not rep.law("modass.strict").passed


def test_modass_nonassociative_self_action():
    H7 = loop_algebra(loop7())
    rep = check_modass(SmashInput(H7, H7, ActionData.from_mu(H7)))
    assert not rep.ok


def test_build_smash_product_valid(H2, H3):
    cand = build_smash_product(smash_c2_c3(H2, H3))
    assert cand.dim == 6
    assert check_hopf_quasigroup(cand).ok


def test_build_rejects_invalid_input(H2, H3):
    one = QQ.one
    nonbij = ActionData.from_entries(QQ, 2, 3, [
        (0, 0, 0, one), (0, 1, 1, one), (0, 2, 2, one),
        (1, 0, 0, one), (1, 1, 1, one), (1, 2, 1, one)])
    with pytest.raises(InvalidInput):
        build_smash_product(SmashInput(H2, H3, nonbij))


def test_trivial_action_degeneracy(H2, H3):
    cand = build_smash_product(SmashInput(H2, H3, ActionData.trivial(H2, 3)))
    f = QQ
    for a in range(3):
        for h in range(2):
            i = a * 2 + h
            assert cand.counit[i,] == f.mul(H3.counit[a,], H2.counit[h,])
            for b in range(3):
                for g in range(2):
                    j = b * 2 + g
                    got = dict(cand.mu._by_first_two[i][j])
                    want = {}
                    for x, u in H3.mu._by_first_two[a][b]:
                        for y, v in H2.mu._by_first_two[h][g]:
                            want[x * 2 + y] = f.mul(u, v)
                    assert got == want


def test_roundtrip_positive(H2, H3):
    rt = theorem_smash_roundtrip(smash_c2_c3(H2, H3))
    assert rt.equivalent and rt.candidate_ok and rt.condition_ok


def test_roundtrip_negative_both_false():
    rt = theorem_smash_roundtrip(v4_on_c3_bad())
    assert rt.equivalent
    assert not rt.candidate_ok and not rt.condition_ok
    assert rt.candidate_report.failing()


def test_roundtrip_refuses_broken_hypotheses():
    Hd = dualize(loop_algebra(s3_table()))
    inp = SmashInput(Hd, Hd, ActionData.from_mu(Hd))
    with pytest.raises(HypothesisNotMet):
        theorem_smash_roundtrip(inp)


def cosmash_fixture(H2, H3):
    return CosmashInput(dualize(H2), dualize(H3),
                        CoactionData.dual_of_action(inversion_action()))


def test_cosmash_invariants_and_hypotheses(H2, H3):
    inp = cosmash_fixture(H2, H3)
    assert inp.validate().ok
    assert check_commu(inp).ok
    assert check_comodcoass(inp).ok


def test_build_smash_coproduct_valid(H2, H3):
    cand = build_smash_coproduct(cosmash_fixture(H2, H3))
    assert cand.dim == 6
    assert check_hopf_coquasigroup(cand).ok


def test_cosmash_roundtrip_positive(H2, H3):
    rt = theorem_cosmash_roundtrip(cosmash_fixture(H2, H3))
    assert rt.equivalent and rt.candidate_ok and rt.condition_ok


def test_cosmash_roundtrip_negative():
    inp = v4_on_c3_bad()
    dual = CosmashInput(dualize(inp.H), dualize(inp.A),
                        CoactionData.dual_of_action(inp.act))
    rt = theorem_cosmash_roundtrip(dual)
    assert rt.equivalent
    assert not rt.candidate_ok and not rt.condition_ok
    assert not rt.condition_report.law("comodcoass").passed


def test_comodcoass_failure_witness():
    inp = v4_on_c3_bad()
    dual = CosmashInput(dualize(inp.H), dualize(inp.A),
                        CoactionData.dual_of_action(inp.act))
    rep = check_comodcoass(dual)
    assert not rep.ok
    assert rep.law("comodcoass").witness is not None


def test_roundtrip_report_serialization(H2, H3):
    rt = theorem_smash_roundtrip(smash_c2_c3(H2, H3))
    d = rt.to_dict()
    assert d["equivalent"] is True
    assert set(d) == {"equivalent", "candidate_ok", "condition_ok",
                      "candidate", "condition", "hypotheses"}


def rebase(H, P, Q):
    """H in the basis b_j = sum_i P[i][j] e_i, Q the inverse of P."""
    f, R = H.field, range(H.dim)
    mu = [(a, b, c, P[i][a] * P[j][b] * v * Q[c][k])
          for (i, j, k), v in H.mu.nz.items() for a in R for b in R for c in R]
    delta = [(a, b, c, P[i][a] * v * Q[b][j] * Q[c][k])
             for (i, j, k), v in H.delta.nz.items()
             for a in R for b in R for c in R]
    anti = [(c, a, Q[c][k] * v * P[i][a])
            for (k, i), v in H.antipode.nz.items() for a in R for c in R]
    return type(H)(
        SparseTensor(f, (H.dim,) * 3, mu),
        vector(f, [sum(Q[c][i] * H.unit[i,] for i in R) for c in R]),
        SparseTensor(f, (H.dim,) * 3, delta),
        vector(f, [sum(P[i][a] * H.counit[i,] for i in R) for a in R]),
        SparseTensor(f, H.antipode.dims, anti))


def test_smash_product_sums_terms_sharing_a_leg(H2):
    # k[C2] in the basis {e0, e0 + e1} acting trivially on k[C2]: the smash
    # product is the tensor-product algebra, and the coproduct of e0 + e1
    # has terms that share their second leg
    Ht = rebase(H2, ((1, 1), (0, 1)), ((1, -1), (0, 1)))
    inp = SmashInput(Ht, H2, ActionData.trivial(Ht, 2))
    cand = build_smash_product(inp)
    for a, h, b, g in product(range(2), repeat=4):
        want = tensor_mul(QQ, H2.mu, Ht.mu, [((a, h), 1)], [((b, g), 1)])
        assert dict(cand.mu._by_first_two[2 * a + h][2 * b + g]) == {
            2 * x + y: c for (x, y), c in want.items()}
    assert theorem_smash_roundtrip(inp).equivalent


def test_smash_coproduct_sums_terms_sharing_legs(H2, H3):
    # the C2-on-C3 inversion fixture with C in the basis {e0, e0 + e1, e2}:
    # coproduct terms of the candidate coincide after the coaction
    P, Q = ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, -1, 0), (0, 1, 0),
                                               (0, 0, 1))
    co = CoactionData.dual_of_action(inversion_action())
    R = range(3)
    co = CoactionData.from_entries(
        QQ, 3, 2, [(a, b, h, P[m][a] * v * Q[b][m2])
                   for (m, m2, h), v in co.nz.items() for a in R for b in R])
    rt = theorem_cosmash_roundtrip(
        CosmashInput(dualize(H2), rebase(dualize(H3), P, Q), co))
    assert rt.condition_ok and rt.candidate_ok
