import inspect

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cyclic, inversion_action, klein, loop7, perm_action,
                      s3_table)

import hopfloop
from hopfloop import (GF, ActionData, CoactionData, CosmashInput,
                      HopfQuasigroup, LongDimodule, QQ, SmashInput,
                      SparseTensor, build_from_comodule,
                      build_from_quasimodule, check_antipode_colinear,
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


@st.composite
def entries(draw, field, dims):
    """Distinct in-range (index..., coeff) entries of a tensor of dims
    `dims`, some coefficients zero over GF(2)."""
    if not all(dims):
        return []
    keys = st.tuples(*[st.integers(0, d - 1) for d in dims])
    scalars = st.sampled_from(["1", "2", "-1", "3"]).map(field.parse)
    return [key + (c,) for key, c in draw(
        st.dictionaries(keys, scalars, max_size=20)).items()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_relabelled_maps_equal_their_entry_builds(data):
    """dual_of_action, from_mu and from_delta, each one relabelling of
    legs, equal the tensors from_entries builds from the relabelled
    entries, by == and by type: on drawn maps, and on the product a loop
    algebra holds only as its basis map."""
    f = data.draw(st.sampled_from([QQ, GF(2), GF(5)]))
    h, m, n = (data.draw(st.integers(0, 3)) for _ in range(3))
    act = ActionData.from_entries(f, h, m, data.draw(entries(f, (h, m, m))))
    dual = CoactionData.dual_of_action(act)
    assert type(dual) is CoactionData and dual == CoactionData.from_entries(
        f, m, h, [(j, k, i, c) for (i, j, k), c in act.nz.items()])
    mu, delta = (SparseTensor(f, (n,) * 3, data.draw(entries(f, (n,) * 3)))
                 for _ in range(2))
    zero = SparseTensor(f, (n,), ())
    drawn = HopfQuasigroup(mu, zero, delta, zero, SparseTensor(f, (n, n), ()))
    for H in (drawn, loop_algebra(cyclic(3), field=f)):
        for got, cls, T in ((ActionData.from_mu(H), ActionData, H.mu),
                            (CoactionData.from_delta(H), CoactionData,
                             H.delta)):
            assert type(got) is cls and got == cls.from_entries(
                f, H.dim, H.dim, [key + (c,) for key, c in T.nz.items()])


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



TARGET_CHECKS = (check_qm_algebra, check_qm_coalgebra, check_antipode_linear)
COTARGET_CHECKS = (check_coqm_algebra, check_coqm_coalgebra,
                   check_antipode_colinear)


def _legs_message(nA):
    """The one refusal of a (co)action or target that does not fit the
    legs H and B of dims 2 and 0 and the carrier A of dim nA."""
    return ("action, coaction or target dims do not match legs H, A, B of "
            f"dims 2, {nA}, 0")


def test_target_guards(H2):
    act = inversion_action()
    H2d, co = dualize(H2), CoactionData.dual_of_action(act)
    gf5, klein4 = loop_algebra(cyclic(3), field=GF(5)), loop_algebra(klein())
    for check in TARGET_CHECKS:
        with pytest.raises(FieldMismatch):
            check(H2, gf5, act)
        with pytest.raises(DimMismatch, match=f"^{_legs_message(3)}$"):
            check(H2, klein4, act)
    for check in COTARGET_CHECKS:
        with pytest.raises(FieldMismatch):
            check(H2d, dualize(gf5), co)
        with pytest.raises(DimMismatch, match=f"^{_legs_message(3)}$"):
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
    with pytest.raises(DimMismatch, match=f"^{_legs_message(3)}$"):
        SmashInput(H2, H2, act)
    with pytest.raises(DimMismatch, match=f"^{_legs_message(3)}$"):
        CosmashInput(H2d, H2d, CoactionData.dual_of_action(act))


# Every public entry point that takes an action or a coaction, as a call of
# H, the target T and the map X; an entry point that takes no target
# ignores T, and a dimodule pairs X with the trivial other map.
def _no_target(call):
    return lambda H, T, X: call(H, X)


ON_ACTION = {
    "check_quasimodule": _no_target(check_quasimodule),
    "check_module": _no_target(check_module),
    "build_from_quasimodule": _no_target(build_from_quasimodule),
    "trivial_coaction_dimodule": _no_target(trivial_coaction_dimodule),
    "LongDimodule": lambda H, T, X: LongDimodule(
        H, X, CoactionData.trivial(H, X.m_dim)),
    "check_qm_algebra": check_qm_algebra,
    "check_qm_coalgebra": check_qm_coalgebra,
    "check_antipode_linear": check_antipode_linear,
    "SmashInput": SmashInput}
ON_COACTION = {
    "check_comodule": _no_target(check_comodule),
    "check_quasicomodule": _no_target(check_quasicomodule),
    "build_from_comodule": _no_target(build_from_comodule),
    "trivial_action_dimodule": _no_target(trivial_action_dimodule),
    "LongDimodule": lambda H, T, X: LongDimodule(
        H, ActionData.trivial(H, X.m_dim), X),
    "check_coqm_algebra": check_coqm_algebra,
    "check_coqm_coalgebra": check_coqm_coalgebra,
    "check_antipode_colinear": check_antipode_colinear,
    "CosmashInput": CosmashInput}
TAKES_TARGET = {"check_qm_algebra", "check_qm_coalgebra",
                "check_antipode_linear", "SmashInput", "check_coqm_algebra",
                "check_coqm_coalgebra", "check_antipode_colinear",
                "CosmashInput"}


def _bad_inputs(kind, case):
    """The target and map of `case` over Q[C2], with the exception and
    message it must raise: a map over GF(5), a map whose H leg has dim 3,
    a map whose carrier legs have dims 2 and 3, or a fitting map, of
    carrier dim 3, with a target of dim 4 or over GF(5)."""
    H3, gf5 = loop_algebra(cyclic(3)), GF(5)
    on_act = kind == "act"
    if case == "field":
        X = (inversion_action(gf5) if on_act else
             CoactionData.trivial(loop_algebra(cyclic(2), field=gf5), 3))
    elif case == "h-dim":
        X = (ActionData if on_act else CoactionData).trivial(H3, 3)
    elif case == "non-square":
        X = (ActionData(QQ, (2, 2, 3), [(h, m, m, 1) for h in range(2)
                                        for m in range(2)]) if on_act else
             CoactionData(QQ, (2, 3, 2), [(m, m, 0, 1) for m in range(2)]))
    else:
        X = (inversion_action() if on_act
             else CoactionData.trivial(loop_algebra(cyclic(2)), 3))
    T = {"target-dim": loop_algebra(klein()),
         "target-field": loop_algebra(cyclic(3), field=gf5)}.get(case, H3)
    if case in ("field", "target-field"):
        return T, X, FieldMismatch, "cannot mix QQ and GF(5)"
    return T, X, DimMismatch, _legs_message(2 if case == "non-square" else 3)


REFUSALS = [(kind, name, case)
            for kind, table in (("act", ON_ACTION), ("coact", ON_COACTION))
            for name in table
            for case in ("field", "h-dim", "non-square")
            + (("target-dim", "target-field") if name in TAKES_TARGET
               else ())]


@pytest.mark.parametrize("kind, name, case", REFUSALS)
def test_every_entry_point_refuses_maps_off_its_legs(H2, kind, name, case):
    """Each entry point that takes an action or a coaction refuses, with
    one exception type and message, a map over another field, a map of
    another H dim, a map whose carrier legs differ, and a target of
    another dim or field."""
    T, X, error, message = _bad_inputs(kind, case)
    call = (ON_ACTION if kind == "act" else ON_COACTION)[name]
    with pytest.raises(error) as exc:
        call(H2, T, X)
    assert str(exc.value) == message


def test_refusal_table_covers_every_entry_point():
    """The table above holds every public callable with a parameter act
    or coact, so a new entry point cannot go untested."""
    public = {name: getattr(hopfloop, name) for name in hopfloop.__all__}
    takes_map = {name for name, obj in public.items() if callable(obj)
                 and {"act", "coact"} & set(inspect.signature(obj).parameters)}
    assert takes_map == set(ON_ACTION) | set(ON_COACTION)
