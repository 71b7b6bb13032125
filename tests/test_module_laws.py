"""The action, smash and dimodule laws against the per-instance reference.

Every law of `hopfloop.actions`, `hopfloop.smash` and `hopfloop.dimodules`
is evaluated one slab at a time; `instance_reference` keeps the checkers
that compared one basis tuple at a time.  On random inputs over Q and
GF(5), failing ones included, the two must give byte-identical JSON
reports.
"""

import json

from hypothesis import given, settings, strategies as st

import instance_reference as ref
from conftest import cyclic, inversion_action, klein, perm_action, vector
from test_structures import SCALARS

from hopfloop import (GF, QQ, ActionData, CoactionData, CosmashInput,
                      HopfQuasigroup, LongDimodule, SmashInput, SparseTensor,
                      build_from_quasimodule, check_adjunction,
                      check_antipode_colinear, check_antipode_linear,
                      check_cocommu, check_commu, check_comodcoass,
                      check_comodule, check_compatibility,
                      check_coqm_algebra, check_coqm_coalgebra,
                      check_lemma_identities, check_modass, check_module,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule, dualize,
                      loop_algebra, trivial_coaction_dimodule)

TABLES = {1: cyclic(1), 2: cyclic(2), 3: cyclic(3), 4: klein()}


@st.composite
def structures(draw, f, n):
    """A Hopf structure of dim n over f: random tensors, or a group
    algebra or its dual."""
    kind = draw(st.sampled_from(("random", "group", "dual")))
    if kind != "random":
        H = loop_algebra(TABLES[n], field=f)
        return H if kind == "group" else dualize(H)
    scalar = st.sampled_from(SCALARS[f])
    idx = st.integers(0, n - 1)

    def entries(order):
        return draw(st.lists(st.tuples(*[idx] * order, scalar),
                             max_size=2 * n * n))

    def vec():
        return vector(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    return HopfQuasigroup(
        SparseTensor(f, (n,) * 3, entries(3)), vec(),
        SparseTensor(f, (n,) * 3, entries(3)), vec(),
        SparseTensor(f, (n, n), entries(2)))


@st.composite
def actions(draw, f, nh, nm):
    """An action of an nh-dim structure on an nm-dim space: random, or
    each basis element acting by a permutation (the first by the
    identity), possibly with one entry bumped."""
    scalar = st.sampled_from(SCALARS[f])
    if draw(st.booleans()):
        idx = st.tuples(st.integers(0, nh - 1), st.integers(0, nm - 1),
                        st.integers(0, nm - 1))
        return ActionData.from_entries(f, nh, nm, [
            key + (c,) for key, c in draw(st.lists(
                st.tuples(idx, scalar), max_size=2 * nh * nm))])
    act = perm_action(f, nh, [tuple(range(nm))] + [
        tuple(draw(st.permutations(range(nm)))) for _ in range(1, nh)])
    if draw(st.booleans()):
        bump = draw(st.tuples(st.integers(0, nh - 1), st.integers(0, nm - 1),
                              st.integers(0, nm - 1), scalar))
        act = ActionData.from_entries(
            f, nh, nm, [k + (c,) for k, c in act.nz.items()] + [bump])
    return act


@st.composite
def action_inputs(draw, max_dim=3):
    """(H, A, act): H and A of dim 1 to max_dim over Q or GF(5)."""
    f = draw(st.sampled_from((QQ, GF(5))))
    nh, na = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    return (draw(structures(f, nh)), draw(structures(f, na)),
            draw(actions(f, nh, na)))


def assert_same(new, old, *args):
    assert (json.dumps(new(*args).to_dict())
            == json.dumps(old(*args).to_dict())), new.__name__


ACTION_CHECKERS = (
    (check_quasimodule, ref.check_quasimodule),
    (check_module, ref.check_module))
TARGET_CHECKERS = (
    (check_qm_algebra, ref.check_qm_algebra),
    (check_qm_coalgebra, ref.check_qm_coalgebra),
    (check_antipode_linear, ref.check_antipode_linear))
COACTION_CHECKERS = (
    (check_comodule, ref.check_comodule),
    (check_quasicomodule, ref.check_quasicomodule))
COTARGET_CHECKERS = (
    (check_coqm_algebra, ref.check_coqm_algebra),
    (check_coqm_coalgebra, ref.check_coqm_coalgebra),
    (check_antipode_colinear, ref.check_antipode_colinear))


def assert_action_laws_same(H, A, act):
    """Every action law on (H, A, act), and every coaction law on the dual
    structure and the induced coaction."""
    D, co = dualize(H), CoactionData.dual_of_action(act)
    for new, old in ACTION_CHECKERS:
        assert_same(new, old, H, act)
    for new, old in TARGET_CHECKERS:
        assert_same(new, old, H, A, act)
    for new, old in COACTION_CHECKERS:
        assert_same(new, old, D, co)
    for new, old in COTARGET_CHECKERS:
        assert_same(new, old, D, A, co)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(action_inputs())
def test_action_laws_match_reference(inp):
    assert_action_laws_same(*inp)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(action_inputs())
def test_smash_laws_match_reference(inp):
    H, A, act = inp
    smash = SmashInput(H, A, act)
    cosmash = CosmashInput(dualize(H), A, CoactionData.dual_of_action(act))
    for new, old in ((check_cocommu, ref.check_cocommu),
                     (check_modass, ref.check_modass)):
        assert_same(new, old, smash)
    for new, old in ((check_commu, ref.check_commu),
                     (check_comodcoass, ref.check_comodcoass)):
        assert_same(new, old, cosmash)


@st.composite
def dimodules(draw):
    """A Long dimodule over a structure of dim 1-3: a random or permutation
    action with a random coaction, the trivial coaction, or the free
    dimodule on the action."""
    H, _, act = draw(action_inputs())
    kind = draw(st.sampled_from(("random", "trivial", "free")))
    if kind == "trivial":
        return trivial_coaction_dimodule(H, act)
    if kind == "free":
        return build_from_quasimodule(H, act)
    co = CoactionData.dual_of_action(
        draw(actions(H.field, H.dim, act.m_dim)))
    return LongDimodule(H, act, co)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dimodules())
def test_dimodule_laws_match_reference(D):
    assert_same(check_compatibility, ref.check_compatibility, D)
    assert_same(check_lemma_identities, ref.check_lemma_identities, D)
    assert_same(check_adjunction, ref.check_adjunction, D.H, D)


def test_module_laws_match_reference_on_fixtures():
    """The inversion action of C2 on C3, which passes every law, and a
    bumped copy, over both fields and their duals."""
    for f in (QQ, GF(5)):
        H2, H3 = (loop_algebra(cyclic(n), field=f) for n in (2, 3))
        good = inversion_action(f)
        bad = ActionData.from_entries(
            f, 2, 3, [k + (c,) for k, c in good.nz.items()] + [(1, 2, 0, 2)])
        for act in (good, bad):
            assert_action_laws_same(H2, H3, act)
            for D in (trivial_coaction_dimodule(H2, act),
                      build_from_quasimodule(H2, act)):
                assert_same(check_lemma_identities,
                            ref.check_lemma_identities, D)
                assert_same(check_adjunction, ref.check_adjunction, H2, D)
            assert_same(check_modass, ref.check_modass,
                        SmashInput(H2, H3, act))


# --- the reference's own helpers ---------------------------------------------


def test_accumulator_records_first_witness_only():
    rep = ref.VerificationReport()
    acc = ref.LawAccumulator(rep, QQ, "law.y")
    acc.check((0, 1), {(0,): QQ.one}, {})
    acc.check((2, 3), {}, {(1,): QQ.one})
    acc.finish()
    entry = rep.law("law.y")
    assert not entry.passed
    assert entry.witness.indices == (0, 1)
    assert entry.witness.lhs == (((0,), "1"),)
    assert entry.witness.rhs == ()
    assert rep.failing() == [entry]
    assert not rep.ok


def test_sparse_helpers_drop_zeros():
    acc = {}
    ref.sadd(QQ, acc, (0,), QQ.one)
    ref.sadd(QQ, acc, (0,), QQ.neg(QQ.one))
    assert acc == {}
    d = {(1,): QQ.parse("2")}
    assert ref.sscale(QQ, d, QQ.zero) == {}
