import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cyclic, inversion_action, loop7, perm_action
from d_equation_reference import check_d_equation_per_triple
from test_acceptance import _dimodule_fixture_set

from hopfloop import (GF, QQ, ActionData, CoactionData, LongDimodule,
                      OVER_COQUASIGROUP, OVER_QUASIGROUP, RMap,
                      build_from_comodule, build_from_quasimodule,
                      check_adjunction, check_comodule, check_d_equation,
                      check_lemma_identities,
                      check_long_dimodule, check_quasimodule, d_map,
                      dualize, loop_algebra, search_ip_loops,
                      tensor_dimodule, trivial_action_dimodule,
                      trivial_coaction_dimodule, unit_dimodule)
from hopfloop.errors import DimMismatch, FieldMismatch, HMismatch


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
    # factors of dims 4 and 3, so that e_m (x) e_n is e_(3m + n): g acts
    # as (0 1)(2 3) on the first and grades the second by [0, 1, 1]
    swap = (1, 0, 3, 2)
    D1 = trivial_coaction_dimodule(H2, perm_action(QQ, 2, [(0, 1, 2, 3), swap]))
    T = tensor_dimodule(D1, D2)
    assert T.dim == 12
    one = QQ.one
    assert T.act.nz == {(h, 3 * m + n, 3 * (swap[m] if h else m) + n): one
                        for h in range(2) for m in range(4)
                        for n in range(3)}
    assert T.coact.nz == {(3 * m + n, 3 * m + n, (0, 1, 1)[n]): one
                          for m in range(4) for n in range(3)}
    assert check_long_dimodule(T).ok
    assert check_d_equation(d_map(T)).ok


def test_tensor_dimodule_h_mismatch(H2, H3):
    D1 = trivial_coaction_dimodule(H2, inversion_action())
    D2 = trivial_coaction_dimodule(H3, ActionData.trivial(H3, 2))
    with pytest.raises(HMismatch):
        tensor_dimodule(D1, D2)


def test_adjunction_refuses_other_dims(H2, H3):
    # the free dimodule over Q[C2] checked against Q[C3]
    with pytest.raises(HMismatch):
        check_adjunction(H3, free_dimodule(H2))


def test_adjunction_refuses_other_field(H2):
    # the free dimodule over Q[C2] checked against GF(5)[C2]
    with pytest.raises(HMismatch):
        check_adjunction(loop_algebra(cyclic(2), field=GF(5)),
                         free_dimodule(H2))


def test_carrier_legs_of_two_dims_are_refused(H2):
    """An action of dims (2, 2, 3) or a coaction of dims (2, 3, 2) over
    Q[C2] has carrier legs of two dims: each checker, builder and
    dimodule that reads it raises DimMismatch, rather than reading fibres
    of the wrong length or building a dimodule of the wrong dim."""
    act = ActionData(QQ, (2, 2, 3), [(h, m, m, 1) for h in range(2)
                                     for m in range(2)])
    coact = CoactionData(QQ, (2, 3, 2), [(m, m, 0, 1) for m in range(2)])
    D_act = LongDimodule(H2, act, CoactionData.trivial(H2, 2))
    D_coact = LongDimodule(H2, ActionData.trivial(H2, 2), coact)
    for call, args in ((check_quasimodule, (H2, act)),
                       (check_comodule, (H2, coact)),
                       (build_from_quasimodule, (H2, act)),
                       (build_from_comodule, (H2, coact)),
                       (check_long_dimodule, (D_act,)),
                       (check_long_dimodule, (D_coact,))):
        with pytest.raises(DimMismatch) as exc:
            call(*args)
        assert str(exc.value) == ("action or coaction dims do not match "
                                  "legs H, A, B of dims 2, 2, 0")


def test_d_equation_small_carrier(H2):
    assert check_d_equation(d_map(free_dimodule(H2))).ok
    # the zero space: a basis map with no slab, and the equation holds
    assert check_d_equation(RMap(QQ, 0, ())).ok


def test_d_equation_dim49_free_dimodule():
    H7 = loop_algebra(loop7())
    D = build_from_quasimodule(H7, ActionData.from_mu(H7))
    assert D.dim == 49
    assert check_long_dimodule(D).ok
    assert check_d_equation(d_map(D)).ok


def test_ldmcp_fails_on_a_valid_dimodule():
    """ldmcp1 and ldmcp2 are not identities of every valid dimodule over a
    Hopf coquasigroup: the derivation of ldmp1 uses the coassociativity of
    the coaction, which a quasicomodule lacks.  The free H (x) M dimodule
    over the dual of Q[L7] passes ldm and eq.d and fails both."""
    H7 = loop_algebra(loop7())
    D = build_from_comodule(dualize(H7), CoactionData.dual_of_action(
        ActionData.from_mu(H7)))
    assert (D.dim, D.variant) == (49, OVER_COQUASIGROUP)
    assert check_long_dimodule(D).ok
    assert check_d_equation(d_map(D)).ok
    assert [(e.law_id, e.passed, e.witness.indices)
            for e in check_lemma_identities(D).entries] == [
        ("ldmcp1", False, (9,)), ("ldmcp2", False, (1, 9))]


def test_free_dimodules_over_nonassociative_order8_loops():
    """Over the three nonassociative IP loops L of order 8, the free
    M (x) H dimodule Q[L] (x) Q[L] passes every dimodule law and solves
    the D-equation; its H (x) M dual passes ldm and eq.d and fails
    ldmcp1 and ldmcp2, as over L7."""
    loops = search_ip_loops(8, want_nonassociative=True)
    assert len(loops) == 3
    for T in loops:
        H = loop_algebra(T)
        D = build_from_quasimodule(H, ActionData.from_mu(H))
        assert D.dim == 64
        assert check_long_dimodule(D).ok
        assert check_lemma_identities(D).ok
        assert check_adjunction(H, D).ok
        assert check_d_equation(d_map(D)).ok
        dual = build_from_comodule(dualize(H), CoactionData.dual_of_action(
            ActionData.from_mu(H)))
        assert check_long_dimodule(dual).ok
        assert check_d_equation(d_map(dual)).ok
        assert {e.law_id for e in check_lemma_identities(dual).failing()} \
            == {"ldmcp1", "ldmcp2"}


def test_d_equation_failure_witness(H2):
    # hand-built non-solution: the swap of e_0 (x) e_0 and e_0 (x) e_1
    f = H2.field
    R = RMap(f, 2, [(1, 0, f.one), (0, 1, f.one), (2, 2, f.one),
                    (3, 3, f.one)])
    rep = check_d_equation(R)
    assert not rep.ok
    witness = rep.law("eq.d").witness
    # R12 R23 e_000 = e_011 but R23 R12 e_000 = e_010
    assert witness.indices == (0, 0, 0)
    assert witness.lhs == (((0, 1, 1), "1"),)
    assert witness.rhs == (((0, 1, 0), "1"),)


def test_d_equation_failure_witness_gf5():
    # identity plus R(e_1 (x) e_0) += e_2 (x) e_2 and R(e_2 (x) e_2) +=
    # 3 e_2 (x) e_1: every triple with l = 0 commutes, (1, 0, 2) is the
    # first that does not
    f = GF(5)
    R = RMap(f, 3, [(j, j, 1) for j in range(9)] + [(8, 3, 1), (7, 8, 3)])
    rep = check_d_equation(R)
    assert not rep.ok
    witness = rep.law("eq.d").witness
    assert witness.indices == (1, 0, 2)
    assert witness.lhs == (((1, 0, 2), "1"), ((2, 2, 2), "1"))
    assert witness.rhs == (((1, 0, 2), "1"), ((2, 2, 1), "3"),
                           ((2, 2, 2), "1"))


# --- differential tests against the per-triple reference ------------------

SCALARS = {
    QQ: (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
         Fraction(-3, 2)),
    GF(5): (0, 1, 2, 3, 4),
}


@st.composite
def rmaps(draw):
    """Random sparse RMaps on carriers of dim 1-4, some near a multiple of
    the identity."""
    f = draw(st.sampled_from(list(SCALARS)))
    nd = draw(st.integers(1, 4))
    d = nd * nd
    entries = draw(st.lists(
        st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                  st.sampled_from(SCALARS[f])),
        max_size=2 * d))
    if draw(st.booleans()):
        c = draw(st.sampled_from([c for c in SCALARS[f] if c != 0]))
        entries += [(j, j, c) for j in range(d)]
    return RMap(f, nd, entries)


def assert_same_as_reference(R):
    assert (check_d_equation(R).to_dict()
            == check_d_equation_per_triple(R).to_dict())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rmaps())
@example(RMap(GF(5), 3, [(j, j, 1) for j in range(9)]))  # the identity
# failing, and two products in one entry of R23 R12 cancel to zero
@example(RMap(QQ, 2, [(0, 0, 1), (1, 0, -1), (1, 1, -1), (1, 2, -1),
                      (3, 3, 1)]))
def test_d_equation_matches_reference_random(R):
    assert_same_as_reference(R)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_d_equation_matches_reference_on_d_maps(field):
    H2 = loop_algebra(cyclic(2), field=field)
    # a grading the action does not preserve: not a dimodule
    bad = LongDimodule(H2, inversion_action(field),
                       CoactionData.graded(H2, [0, 1, 0]))
    verdicts = []
    for D in _dimodule_fixture_set(field) + [bad]:
        R = d_map(D)
        assert_same_as_reference(R)
        verdicts.append(check_d_equation(R).ok)
    assert verdicts == [True] * (len(verdicts) - 1) + [False]


# --- basis-map R: decided on integer tables -------------------------------

def basis_rmap(f, nd, r):
    """The RMap with R(e_j) = e_r[j]."""
    return RMap(f, nd, [(i, j, f.one) for j, i in enumerate(r)])


@st.composite
def basis_rmaps(draw):
    """RMaps sending every e_j to one e_r[j] with coefficient one, on
    carriers of dim 1-4: a permutation of the pairs, an arbitrary map of
    them, or the identity with two images swapped, which may fail only on
    a late slab."""
    f = draw(st.sampled_from(list(SCALARS)))
    nd = draw(st.integers(1, 4))
    d = nd * nd
    kind = draw(st.sampled_from(["permutation", "map", "swap"]))
    if kind == "permutation":
        r = draw(st.permutations(range(d)))
    elif kind == "map":
        r = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    else:
        r = list(range(d))
        a, b = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        r[a], r[b] = r[b], r[a]
    return basis_rmap(f, nd, r)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(basis_rmaps())
@example(basis_rmap(QQ, 1, [0]))
@example(basis_rmap(GF(5), 3, [0, 1, 2, 3, 4, 5, 6, 8, 7]))
def test_d_equation_on_basis_maps_matches_reference(R):
    assert R.basis_map(0) is not None
    assert_same_as_reference(R)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(basis_rmaps(), st.data())
def test_d_equation_off_basis_maps_matches_reference(R, data):
    """One entry changed: a coefficient 2, a second entry in one column, or
    one column zeroed.  Each leaves basis mode."""
    f, d = R.field, R.dim
    j = data.draw(st.integers(0, d - 1))
    i = R.basis_map(0)[j]
    nz = dict(R.nz)
    kinds = ["coefficient", "zero"] + (["second"] if d > 1 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "coefficient":
        nz[i, j] = f.from_int(2)
    elif kind == "zero":
        del nz[i, j]
    else:
        nz[(i + data.draw(st.integers(1, d - 1))) % d, j] = f.one
    R = RMap(f, R.m_dim, [key + (c,) for key, c in nz.items()])
    assert R.basis_map(0) is None
    assert_same_as_reference(R)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_d_equation_on_permutation_dimodules_matches_reference(field):
    """The d_maps of permutation dimodules over C2 and of their tensor
    products, carrier dim at most 12, gradings preserved or not: all
    basis maps, some solutions and some not."""
    H2 = loop_algebra(cyclic(2), field=field)
    inv = inversion_action(field)
    factors = [LongDimodule(H2, inv, CoactionData.graded(H2, g))
               for g in product(range(2), repeat=3)]
    graded = [trivial_action_dimodule(H2, CoactionData.graded(H2, g))
              for g in ([0], [1], [0, 1], [1, 1, 0], [0, 1, 1, 0])]
    verdicts = set()
    for D in factors + [tensor_dimodule(A, B)
                        for A in factors for B in graded]:
        assert D.dim <= 12
        R = d_map(D)
        assert R.basis_map(0) is not None
        assert_same_as_reference(R)
        verdicts.add(check_d_equation(R).ok)
    assert verdicts == {True, False}


def test_d_equation_basis_map_memory_and_witness_dim49():
    """The d_map of the free M (x) H dimodule over Q[L7], dim 49, solves
    the D-equation; with the images of columns 2399 and 2400 swapped it
    fails on the last slab only.  Either way the integer tables keep one
    slab of each side: each check is traced on its second call, once the
    cached views exist, and stays under 2 MiB, where the nd^3 tables of
    both sides would take several."""
    H7 = loop_algebra(loop7())
    R = d_map(build_from_quasimodule(H7, ActionData.from_mu(H7)))
    r = list(R.basis_map(0))
    r[2399], r[2400] = r[2400], r[2399]
    swapped = basis_rmap(R.field, R.m_dim, r)
    for X, ok in ((R, True), (swapped, False)):
        check_d_equation(X)
        tracemalloc.start()
        try:
            rep = check_d_equation(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok == ok and peak < 2 * 2 ** 20, (ok, peak)
    witness = rep.law("eq.d").witness
    assert witness.indices == (48, 5, 6)
    assert witness.lhs == (((34, 48, 6), "1"),)
    assert witness.rhs == (((13, 47, 6), "1"),)


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
    # an action or coaction over Q[C2] given with Q[C3]
    with pytest.raises(DimMismatch):
        build_from_quasimodule(H3, inversion_action())
    with pytest.raises(DimMismatch):
        build_from_comodule(dualize(H3), CoactionData.dual_of_action(
            inversion_action()))


def test_mixed_fields_refused(H2):
    H5 = loop_algebra(cyclic(2), field=GF(5))
    with pytest.raises(FieldMismatch):
        LongDimodule(H2, ActionData.trivial(H5, 2),
                     CoactionData.trivial(H2, 2))
    with pytest.raises(FieldMismatch):
        LongDimodule(H2, ActionData.trivial(H2, 2),
                     CoactionData.trivial(H5, 2))


def test_m_major_witnesses(H2):
    """ldmp2 and adj.unit_linear walk m outside h and report (h, m): the
    witness is their first failing instance in m-major order, not the
    least (h, m)."""
    one = QQ.one
    # g swaps e0 and e1, rho(e0) = e0 (x) 1 and rho(e1) = e0 (x) g:
    # ldmp2 fails at (1, 0), (0, 1) and (1, 1)
    D = LongDimodule(H2, perm_action(QQ, 2, [(0, 1), (1, 0)]),
                     CoactionData.from_entries(
                         QQ, 2, 2, [(0, 0, 0, one), (1, 0, 1, one)]))
    assert check_lemma_identities(D).law("ldmp2").witness.indices == (1, 0)
    # 1 . e1 = e0, g . e0 = e1 and rho(e1) = e1 (x) g: adj.unit_linear
    # fails at (1, 0) and (0, 1)
    D = LongDimodule(H2, ActionData.from_entries(
                         QQ, 2, 2, [(1, 0, 1, one), (0, 1, 0, one)]),
                     CoactionData.from_entries(QQ, 2, 2, [(1, 1, 1, one)]))
    linear = check_adjunction(H2, D).law("adj.unit_linear")
    assert linear.witness.indices == (1, 0)


def test_d_equation_goes_past_a_slab_with_a_cancelled_sum():
    """The two dicts of slab 0 of this R differ only by a sum that cancels
    to a stored zero, so slab 0 holds, and the contraction goes on to the
    failing slab 1."""
    R = RMap(QQ, 2, [(0, 1, -1), (0, 3, 1), (1, 1, -1), (3, 3, -1)])
    rep = check_d_equation(R)
    assert rep.law("eq.d").witness.indices == (1, 1, 1)
    assert rep.to_dict() == check_d_equation_per_triple(R).to_dict()


def test_d_equation_stops_after_the_first_failing_slab(monkeypatch):
    """The dim-49 d_map of the free M (x) H dimodule over Q[L7] with the
    coefficient of its column 0 set to 2 is not a basis map, so every slab
    is contracted until one fails: slab 0 fails, and no later slab is
    contracted."""
    H7 = loop_algebra(loop7())
    R = d_map(build_from_quasimodule(H7, ActionData.from_mu(H7)))
    nz = dict(R.nz)
    nz[R.basis_map(0)[0], 0] = R.field.from_int(2)
    R = RMap(R.field, R.m_dim, [key + (c,) for key, c in nz.items()])
    assert R.basis_map(0) is None
    columns = []

    class Counted(tuple):
        def __getitem__(self, j):
            columns.append(j)
            return tuple.__getitem__(self, j)

    monkeypatch.setitem(vars(R), "_by_second", Counted(R._by_second))
    rep = check_d_equation(R)
    # each side of slab l reads the columns (l, m) = l nd + m of R, and
    # no other slab is contracted
    assert columns == list(range(R.m_dim)) * 2
    witness = rep.law("eq.d").witness
    assert witness.indices == (0, 0, 1)
    assert witness.lhs == (((0, 7, 1), "1"),)
    assert witness.rhs == (((0, 7, 1), "2"),)
