"""The law evaluator of `hopfloop.laws` on its own, `laws.build` against
the hand-built references of the maps it makes, with a guard that every
construction of the package has one, and a metamorphic test
of the 25 action, coaction and smash-condition laws, the 22 Hopf
(co)quasigroup laws and the dimodule laws under relabelling.

The unit tests declare small laws of their own, so that each kind of step
(swap, eta and eps on rank-0 legs, the empty chain) and each slab shape
(rank-0 domain or output, a first failure past the first slab, a walked
leg other than the first, leg groups) is checked against witnesses worked
out by hand or read off the tensors directly.
"""

import importlib
import json
import pkgutil
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import instance_reference as ref
import smash_reference as sref
from conftest import (cyclic, inversion_action, loop7, perm_action,
                      s3_table, vector)
from test_module_laws import action_inputs, actions, dimodules, structures
from test_structures import SCALARS, random_structures, s3_perturbations

import hopfloop
from hopfloop import (GF, QQ, ActionData, CoactionData, CosmashInput,
                      LongDimodule, SmashInput, SparseTensor,
                      build_from_comodule, build_from_quasimodule,
                      check_adjunction,
                      check_antipode_colinear, check_antipode_linear,
                      check_cocommu, check_commu, check_comodcoass,
                      check_comodule, check_coqm_algebra,
                      check_coqm_coalgebra, check_hopf_coquasigroup,
                      check_hopf_quasigroup, check_lemma_identities,
                      check_long_dimodule, check_modass, check_module,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule, d_map,
                      dualize, loop_algebra, tensor_dimodule)
from hopfloop.actions import COQM_ALGEBRA, QM_COALGEBRA
from hopfloop.laws import Construction, build, construction, evaluate, law
from hopfloop.smash import SMASH_COPRODUCT, SMASH_PRODUCT, _structure
from hopfloop.structures import (HopfCoquasigroup, HopfQuasigroup,
                                 check_associativity)


def entry(rep, law_id):
    return rep.law(law_id).to_dict()


# --- declarations ------------------------------------------------------------


WRONG_DECLARATIONS = [
    # domain, out, lhs, slab, the part of the declaration at fault
    ("HA", "A", "act@1", 0, "act@1"),              # act needs HA at leg 1
    ("HA", "A", "mu@0 act@0", 0, "mu@0"),          # mu needs HH
    ("HA", "HA", "swap@1", 0, "swap@1"),           # swap needs two legs
    ("HA", "A", "eps@3 act@0", 0, "eps@3"),        # no leg 3
    ("HA", "HA", "act@0", 0, "'act@0'"),           # ends in A, not HA
    ("HA", "A", "mul@0", 0, "mul@0"),              # no map mul
    ("HA", "A", "act0", 0, "act0"),                # no @
    ("HB", "HB", "", 0, "'HB'"),                   # no leg B
    ("H(A", "A", "act@0", 0, "'H(A'"),             # unbalanced group
    ("HA", "A)", "act@0", 0, "'A)'"),              # unbalanced group
    ("((AH))", "(AH)", "", 0, "'((AH))'"),         # nested group
    ("H()A", "A", "act@0", 0, "'H()A'"),           # empty group
    ("HA", "A", "act@0", 2, "leg 2"),              # no leg 2 to walk
    ("HA", "A", "act@0", -1, "leg -1"),            # no leg -1 to walk
]


WRONG_CONSTRUCTIONS = [
    # domain, out, chain, None (a construction walks leg 0), the fault
    ("(AH)", "(AH)", "delta@1 S@1 antipode@0", None, "antipode@0"),
    ("(AH)", "(AH)", "delta@1 act@1", None, "act@1"),   # act needs HA
    ("(AA)", "(AA)", "coact@1 swap@1 swap@0", None,      # ends in HAA
     "'coact@1 swap@1 swap@0'"),
    ("HC", "HC", "", None, "'HC'"),                      # no leg C
]


@pytest.mark.parametrize(
    "domain, out, chain, slab, fault",
    WRONG_DECLARATIONS + WRONG_CONSTRUCTIONS,
    ids=["-".join(case[:3]) + (f"-slab{case[3]}" if case[3] else "")
         for case in WRONG_DECLARATIONS]
    + ["construction-" + "-".join(case[:3]) for case in WRONG_CONSTRUCTIONS])
def test_declaration_on_wrong_legs_fails(domain, out, chain, slab, fault):
    """The error names the law or construction and the step, leg string or
    walked leg at fault."""
    with pytest.raises(ValueError, match="^bad: ") as exc:
        if slab is None:
            construction("bad", domain, out, chain)
        else:
            law("bad", domain, out, chain, "", slab=slab)
    assert fault in str(exc.value)


# --- steps -------------------------------------------------------------------


def test_swap_step():
    """Cocommutativity of Delta, delta = swap o delta, with a swap; and a
    double swap is the identity."""
    twice = law("swap.twice", "HA", "HA", "swap@0 swap@0", "")
    cocomm = law("cocomm", "H", "HH", "delta@0", "delta@0 swap@0")
    H = loop_algebra(s3_table())
    D = dualize(H)
    act = ActionData.trivial(H, 3)
    assert evaluate((twice, cocomm), H, act=act).ok
    rep = evaluate((twice, cocomm), D, act=ActionData.trivial(D, 3))
    assert rep.law("swap.twice").passed
    # the least k whose coproduct is not symmetric, read off the tensor
    split = [{} for _ in range(D.dim)]
    for (k, i, j), c in D.delta.nz.items():
        split[k][i, j] = c
    k = next(k for k, d in enumerate(split)
             if d != {(j, i): c for (i, j), c in d.items()})
    w = rep.law("cocomm").witness
    assert w.indices == (k,)
    assert dict(w.lhs) == {key: str(c) for key, c in split[k].items()}
    assert dict(w.rhs) == {(j, i): str(c) for (i, j), c in split[k].items()}


def test_unit_and_counit_on_rank0_legs():
    """eps(1) = 1 as a law of rank-0 domain and output, and as
    eta = eta eps eta with a rank-1 output."""
    scalar = law("eps.eta", "", "", "eta@0 eps@0", "")
    rank1 = law("eta.eps.eta", "", "H", "eta@0", "eta@0 eps@0 eta@0")
    H = loop_algebra(cyclic(2))
    act = ActionData.trivial(H, 3)
    assert evaluate((scalar, rank1), H, act=act).ok
    bad = type(H)(H.mu, H.unit, H.delta, vector(QQ, [2, 0]), H.antipode)
    rep = evaluate((scalar, rank1), bad, act=act)
    assert entry(rep, "eps.eta") == {
        "law": "eps.eta", "pass": False, "witness": {
            "indices": [], "lhs": [[[], "2"]], "rhs": [[[], "1"]]}}
    assert entry(rep, "eta.eps.eta")["witness"] == {
        "indices": [], "lhs": [[[0], "1"]], "rhs": [[[0], "2"]]}


def test_empty_chain_is_the_identity():
    H = loop_algebra(cyclic(2))
    act = inversion_action()
    both = law("id", "HA", "HA", "", "")
    unital = law("unital", "A", "A", "eta@0 act@0", "")
    assert evaluate((both, unital), H, act=act).ok
    # the unit acting as the cycle (0 1 2): 1.e_0 = e_1
    cyc = perm_action(QQ, 2, [(1, 2, 0), (0, 2, 1)])
    assert entry(evaluate((unital,), H, act=cyc), "unital")["witness"] == {
        "indices": [0], "lhs": [[[1], "1"]], "rhs": [[[0], "1"]]}


def test_structure_law_without_action():
    """A law of H alone needs no action, coaction or target: assoc on the
    order-7 loop, whose least nonassociative triple is the witness."""
    assoc = law("assoc", "HHH", "H", "mu@0 mu@0", "mu@1 mu@0")
    assert evaluate((assoc,), loop_algebra(s3_table())).ok
    t, H = loop7().rows, loop_algebra(loop7())
    n = len(t)
    i, j, k = next((i, j, k) for i in range(n) for j in range(n)
                   for k in range(n) if t[t[i][j]][k] != t[i][t[j][k]])
    rep = evaluate((assoc,), H)
    assert entry(rep, "assoc") == {
        "law": "assoc", "pass": False, "witness": {
            "indices": [i, j, k], "lhs": [[[t[t[i][j]][k]], "1"]],
            "rhs": [[[t[i][t[j][k]]], "1"]]}}
    assert rep.to_dict() == check_associativity(H).to_dict()


def test_chosen_first_indices():
    """`firsts` evaluates only the slabs named, per law, and every slab
    for None: slab 0 of the order-7 loop's assoc holds, since e_0 is its
    unit, and the law fails in a later one.  With no slab named, the law
    passes and the fibres of mu are not built."""
    assoc = law("assoc", "HHH", "H", "mu@0 mu@0", "mu@1 mu@0")
    H = loop_algebra(loop7())
    assert evaluate((assoc,), H, firsts=[()]).ok
    assert "_by_first_two" not in vars(H.mu)
    assert evaluate((assoc,), H, firsts=[(0,)]).ok
    assert evaluate((assoc,), H, firsts=[None]) == evaluate((assoc,), H)
    w = evaluate((assoc,), H, firsts=[(5, 3)]).law("assoc").witness
    assert w.indices[0] == 5


def test_firsts_past_a_passing_slab():
    """Named slabs are evaluated in the order given: a passing slab 0 and
    then a failing one give that slab's witness, the least failing
    instance of the whole walk when the failing slab is the walk's first,
    and the first slab that fails decides."""
    assoc = law("assoc", "HHH", "H", "mu@0 mu@0", "mu@1 mu@0")
    H = loop_algebra(loop7())
    full = evaluate((assoc,), H).law("assoc")
    i = full.witness.indices[0]
    assert i > 0
    assert evaluate((assoc,), H, firsts=[(0, i)]).law("assoc") == full
    later = evaluate((assoc,), H, firsts=[(0, 5)]).law("assoc").witness
    assert later == evaluate((assoc,), H, firsts=[(5,)]).law("assoc").witness
    assert later.indices[0] == 5 and later != full.witness


def cancelling_counit(delta_00_11):
    """Q[C2] with counit 1 on both basis vectors and delta(e_1) = e_1 (x)
    e_1, delta(e_0) = e_0 (x) e_0 + e_0 (x) e_1 + c e_1 (x) e_1: then
    (eps (x) id)delta(e_0) = e_0 + (1 + c) e_1, whose e_1 term is an
    explicit zero for c = -1."""
    H = loop_algebra(cyclic(2))
    delta = SparseTensor(QQ, (2, 2, 2), [
        (0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1),
        (0, 1, 1, QQ.from_int(delta_00_11))])
    return type(H)(H.mu, H.unit, delta, vector(QQ, [1, 1]), H.antipode)


def test_terms_cancelling_to_zero_pass():
    """A side whose terms cancel keeps their zero sum in its slab, and the
    law still holds: walked (the counit law on the first of (h, g), g
    outermost) and of rank-0 domain (on the unit e_0).  With c = -2 the
    terms no longer cancel and both fail at e_0."""
    walked = law("counit.walked", "HH", "HH", "delta@0 eps@0", "", slab=1)
    unit = law("counit.unit", "", "H", "eta@0 delta@0 eps@0", "eta@0")
    assert evaluate((walked, unit), cancelling_counit(-1)).ok
    rep = evaluate((walked, unit), cancelling_counit(-2))
    assert entry(rep, "counit.walked")["witness"] == {
        "indices": [0, 0], "lhs": [[[0, 0], "1"], [[1, 0], "-1"]],
        "rhs": [[[0, 0], "1"]]}
    assert entry(rep, "counit.unit")["witness"] == {
        "indices": [], "lhs": [[[0], "1"], [[1], "-1"]], "rhs": [[[0], "1"]]}


def test_walk_leg_and_leg_groups():
    """h.m = eps(h) m walked m outside h, on the domain (HA): over C2 on
    C3, 1 acts as the swap of e1 and e2 and g as the swap of e0 and e1,
    failing at (0, 1), (0, 2), (1, 0) and (1, 1); m-major, (1, 0) comes
    first, reported as its flat index 1 * 3 + 0.  An output group keys
    the sides by flat indices too: rho(e_1) = e_1 (x) g against e_1 (x)
    1."""
    H = loop_algebra(cyclic(2))
    act = perm_action(QQ, 2, [(0, 2, 1), (1, 0, 2)])
    walked = law("walked", "(HA)", "A", "act@0", "eps@0", slab=1)
    assert entry(evaluate((walked,), H, act=act), "walked")["witness"] == {
        "indices": [3], "lhs": [[[1], "1"]], "rhs": [[[0], "1"]]}
    grouped = law("grouped", "A", "(AH)", "coact@0", "eta@1")
    rep = evaluate((grouped,), H, coact=CoactionData.graded(H, [0, 1, 0]))
    assert entry(rep, "grouped")["witness"] == {
        "indices": [1], "lhs": [[[3], "1"]], "rhs": [[[2], "1"]]}


# --- slab shapes -------------------------------------------------------------


def test_rank0_domain():
    """coqmalg.unit, rho(1) = 1 (x) 1, has the one instance ()."""
    H, A = loop_algebra(cyclic(2)), loop_algebra(cyclic(3))
    good = CoactionData.graded(H, [0, 0, 0])
    bad = CoactionData.graded(H, [1, 0, 0])
    assert evaluate(COQM_ALGEBRA, H, A, coact=good).ok
    assert entry(evaluate(COQM_ALGEBRA, H, A, coact=bad), "coqmalg.unit") \
        == {"law": "coqmalg.unit", "pass": False, "witness": {
            "indices": [], "lhs": [[[0, 1], "1"]], "rhs": [[[0, 0], "1"]]}}


def test_rank0_output_and_failure_in_second_slab():
    """qmcoalg.counit, eps(h.c) = eps(h) eps(c), maps to scalars; the bump
    1.e_2 = e_1 + e_0 breaks it only in the slab h = 1."""
    H, A = loop_algebra(cyclic(2)), loop_algebra(cyclic(3))
    good = inversion_action()
    bad = ActionData.from_entries(
        QQ, 2, 3, [k + (c,) for k, c in good.nz.items()] + [(1, 2, 0, 1)])
    assert evaluate(QM_COALGEBRA, H, A, act=good).ok
    assert entry(evaluate(QM_COALGEBRA, H, A, act=bad), "qmcoalg.counit") \
        == {"law": "qmcoalg.counit", "pass": False, "witness": {
            "indices": [1, 2], "lhs": [[[], "2"]], "rhs": [[[], "1"]]}}


# --- constructions -----------------------------------------------------------


@st.composite
def construction_inputs(draw):
    """(H, A, act, coact) over Q or GF(5), H and A of dim 1 to 3: random
    tensors or group algebras or their duals, and an action and a coaction
    that are random, with coefficients that may cancel, or permutations,
    possibly bumped."""
    f = draw(st.sampled_from((QQ, GF(5))))
    nh, na = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (draw(structures(f, nh)), draw(structures(f, na)),
            draw(actions(f, nh, na)),
            CoactionData.dual_of_action(draw(actions(f, nh, na))))


def cancelling_input():
    """H of dim 2 with h e_0 = h, h e_1 = -h and delta(e_1) = e_0 (x) e_1
    + e_1 (x) e_1, on A of dim 1, where e_1 acts as -1 and the coaction is
    e_0 -> e_0 (x) (e_0 + e_1): the terms of the smash mu at h = e_1, and
    of the whole cosmash delta and S and d_map, sum to zero."""
    f = QQ
    H = HopfQuasigroup(
        SparseTensor(f, (2,) * 3, [(0, 0, 0, 1), (0, 1, 0, -1),
                                   (1, 0, 1, 1), (1, 1, 1, -1)]),
        vector(f, [1, 0]),
        SparseTensor(f, (2,) * 3,
                     [(0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)]),
        vector(f, [1, 1]),
        SparseTensor(f, (2, 2), [(0, 0, 1), (1, 1, 1)]))
    A = loop_algebra(cyclic(1))
    return (H, A, ActionData(f, (2, 1, 1), [(0, 0, 0, 1), (1, 0, 0, -1)]),
            CoactionData(f, (1, 1, 2), [(0, 0, 0, 1), (0, 0, 1, 1)]))


def built(H, A, act, coact):
    """The smash product, smash coproduct and d_map of the inputs."""
    return (_structure(HopfQuasigroup, SMASH_PRODUCT, H, A, act=act),
            _structure(HopfCoquasigroup, SMASH_COPRODUCT, H, A, coact=coact),
            d_map(LongDimodule(H, act, coact)))


def smash_maps(H, A, act, coact):
    """map id -> (the map built from its chain, its hand-built reference),
    over the ten smash and cosmash maps and d_map."""
    smash, cosmash, R = built(H, A, act, coact)
    refs = (sref.smash_product(SmashInput(H, A, act)),
            sref.smash_coproduct(CosmashInput(H, A, coact)))
    maps = {"d_map": (R, sref.d_map(LongDimodule(H, act, coact)))}
    for prefix, new, old in zip(("smash", "cosmash"), (smash, cosmash), refs):
        for name, attr in (("mu", "mu"), ("eta", "unit"), ("delta", "delta"),
                           ("eps", "counit"), ("S", "antipode")):
            maps[f"{prefix}.{name}"] = getattr(new, attr), getattr(old, attr)
    return maps


def dimodule_maps(H, act, coact, act_B, coact_B):
    """map id -> (the map built from its chain, its hand-built reference),
    over the action and coaction of the free dimodules on M (x) H and
    H (x) M and of the tensor product M (x) N, M the carrier of `act` and
    `coact` and N that of `act_B` and `coact_B`."""
    M, N = LongDimodule(H, act, coact), LongDimodule(H, act_B, coact_B)
    dimodules = {
        "free_mh": (build_from_quasimodule(H, act),
                    sref.build_from_quasimodule(H, act)),
        "free_hm": (build_from_comodule(H, coact),
                    sref.build_from_comodule(H, coact)),
        "tensor": (tensor_dimodule(M, N), sref.tensor_dimodule(M, N))}
    return {f"{prefix}.{name}": (getattr(new, name), getattr(old, name))
            for prefix, (new, old) in dimodules.items()
            for name in ("act", "coact")}


def assert_maps_match(maps, zero):
    """Each built map equals its reference, type and dims included, and
    stores no zero."""
    for map_id, (new, old) in maps.items():
        assert new == old, map_id
        assert zero not in new.nz.values(), map_id


@settings(max_examples=200, deadline=None, derandomize=True)
@given(construction_inputs())
@example(cancelling_input())
def test_build_matches_hand_built_references(inp):
    """The ten smash and cosmash maps and d_map, built from their chains,
    equal the hand-built references, type included, and no stored entry
    of a sparse one is zero."""
    H, A, act, coact = inp
    maps = smash_maps(H, A, act, coact)
    assert_maps_match(maps, H.field.zero)
    assert maps["d_map"][0].m_dim == A.dim


@st.composite
def carriers(draw, f, nh):
    """An action and a coaction of a structure of dim nh on a carrier of
    dim 0 to 3, with random coefficients that may cancel."""
    nm = draw(st.integers(0, 3))
    scalar = st.sampled_from(SCALARS[f])

    def entries(*legs):
        if not nm:
            return []
        idx = {"H": st.integers(0, nh - 1), "M": st.integers(0, nm - 1)}
        return draw(st.lists(st.tuples(*(idx[leg] for leg in legs), scalar),
                             max_size=2 * nh * nm))

    return (ActionData.from_entries(f, nh, nm, entries("H", "M", "M")),
            CoactionData.from_entries(f, nm, nh, entries("M", "M", "H")))


@st.composite
def dimodule_inputs(draw):
    """(H, act, coact, act_B, coact_B) over Q or GF(5): H of dim 1 to 3,
    and two carriers whose dims may differ."""
    f = draw(st.sampled_from((QQ, GF(5))))
    nh = draw(st.integers(1, 3))
    return (draw(structures(f, nh)), *draw(carriers(f, nh)),
            *draw(carriers(f, nh)))


def cancelling_dimodule_input():
    """The H of `cancelling_input` on two copies of its carrier: in the
    tensor product, the terms of e_1 . (e_0 (x) e_0) and of the whole
    coaction sum to zero."""
    H, _, act, coact = cancelling_input()
    return H, act, coact, act, coact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dimodule_inputs())
@example(cancelling_dimodule_input())
def test_dimodule_maps_match_hand_built_references(inp):
    """The six maps of the free and tensor-product dimodules, built from
    their chains, equal the hand-built references, type and dims
    included, and no stored entry is zero."""
    assert_maps_match(dimodule_maps(*inp), inp[0].field.zero)


def declared_constructions():
    """The map ids of every `laws.Construction` at module level in the
    package, alone or in a tuple or dict."""
    found = set()
    for info in pkgutil.iter_modules(hopfloop.__path__):
        module = importlib.import_module(f"hopfloop.{info.name}")
        for value in vars(module).values():
            values = (value.values() if isinstance(value, dict)
                      else value if isinstance(value, tuple) else (value,))
            found.update(x.map_id for x in values
                         if isinstance(x, Construction))
    return found


def test_every_construction_has_a_hand_reference():
    """The differential tests above compare every construction of the
    package with a hand-built reference, and no other map id: a new
    construction cannot land without one."""
    H, A, act, coact = cancelling_input()
    compared = (set(smash_maps(H, A, act, coact))
                | set(dimodule_maps(*cancelling_dimodule_input())))
    assert declared_constructions() == compared


def test_build_on_rank0_legs():
    """A map of no legs is a scalar keyed (); eps(1) = 2 where the counit
    is bumped, and 0, which is not stored, where it vanishes at 1."""
    scalar = construction("eps.eta", "", "", "eta@0 eps@0")
    H = loop_algebra(cyclic(2))
    assert build(scalar, H).nz == {(): 1}
    for counit, nz in (([2, 0], {(): 2}), ([0, 1], {})):
        bumped = type(H)(H.mu, H.unit, H.delta, vector(QQ, counit),
                         H.antipode)
        assert build(scalar, bumped).nz == nz


def test_build_drops_terms_that_cancel():
    smash, cosmash, R = built(*cancelling_input())
    assert {(i, j) for i, j, _ in smash.mu.nz} == {(0, 0), (0, 1)}
    assert not cosmash.delta.nz and not cosmash.antipode.nz and not R.nz
    maps = dimodule_maps(*cancelling_dimodule_input())
    assert set(maps["tensor.act"][0].nz) == {(0, 0, 0)}
    assert not maps["tensor.coact"][0].nz


# --- dims 2, 3 and 5 ---------------------------------------------------------


def test_pairwise_different_dims_match_reference():
    """H of dim 2 acting on a module M of dim 3 and on an algebra A of dim
    5, passing and bumped, against the per-instance reference: a leg read
    with the wrong dim would key or index the wrong entries."""
    H, A = loop_algebra(cyclic(2)), loop_algebra(cyclic(5))
    D = dualize(H)
    on_m = perm_action(QQ, 2, [(0, 1, 2), (0, 2, 1)])
    on_a = perm_action(QQ, 2, [(0, 1, 2, 3, 4), (0, 4, 3, 2, 1)])
    for act, bump in ((on_m, (1, 2, 0, 3)), (on_a, (1, 4, 2, 3))):
        bumped = ActionData.from_entries(
            QQ, 2, act.m_dim, [k + (c,) for k, c in act.nz.items()] + [bump])
        for a in (act, bumped):
            co = CoactionData.dual_of_action(a)
            cases = [(check_quasimodule, ref.check_quasimodule, (H, a)),
                     (check_module, ref.check_module, (H, a)),
                     (check_comodule, ref.check_comodule, (D, co)),
                     (check_quasicomodule, ref.check_quasicomodule, (D, co))]
            if a.m_dim == A.dim:
                cases += [
                    (check_qm_algebra, ref.check_qm_algebra, (H, A, a)),
                    (check_qm_coalgebra, ref.check_qm_coalgebra, (H, A, a)),
                    (check_antipode_linear, ref.check_antipode_linear,
                     (H, A, a)),
                    (check_coqm_algebra, ref.check_coqm_algebra, (D, A, co)),
                    (check_coqm_coalgebra, ref.check_coqm_coalgebra,
                     (D, A, co)),
                    (check_antipode_colinear, ref.check_antipode_colinear,
                     (D, A, co)),
                    (check_cocommu, ref.check_cocommu, (SmashInput(H, A, a),)),
                    (check_modass, ref.check_modass, (SmashInput(H, A, a),)),
                    (check_commu, ref.check_commu,
                     (CosmashInput(D, A, co),)),
                    (check_comodcoass, ref.check_comodcoass,
                     (CosmashInput(D, A, co),))]
            for new, old, args in cases:
                assert (json.dumps(new(*args).to_dict())
                        == json.dumps(old(*args).to_dict())), new.__name__


# --- relabelling -------------------------------------------------------------


def relabel(X, p, q=None):
    """X with basis vector i of H renamed p[i]: a structure, or an action
    or coaction whose carrier has basis vector m renamed q[m]."""
    f = X.field
    if isinstance(X, ActionData):
        return ActionData(f, X.dims, ((p[h], q[m], q[k], c)
                                      for (h, m, k), c in X.nz.items()))
    if isinstance(X, CoactionData):
        return CoactionData(f, X.dims, ((q[m], q[k], p[h], c)
                                        for (m, k, h), c in X.nz.items()))
    n = X.dim

    def ten3(t):
        return SparseTensor(f, (n,) * 3, ((p[i], p[j], p[k], c)
                                          for (i, j, k), c in t.nz.items()))

    def vec(v):
        return SparseTensor(f, (n,), ((p[i], c) for (i,), c in v.nz.items()))

    return type(X)(
        ten3(X.mu), vec(X.unit),
        ten3(X.delta), vec(X.counit),
        SparseTensor(f, (n, n), ((p[i], p[j], c)
                                 for (i, j), c in X.antipode.nz.items())))


def law_verdicts(H, A, act):
    """law id -> passed over the 25 laws: the action laws of (H, A, act),
    the coaction laws of its dual (A kept) and the four smash
    conditions."""
    D, co = dualize(H), CoactionData.dual_of_action(act)
    smash, cosmash = SmashInput(H, A, act), CosmashInput(D, A, co)
    reports = (check_quasimodule(H, act), check_module(H, act),
               check_qm_algebra(H, A, act), check_qm_coalgebra(H, A, act),
               check_antipode_linear(H, A, act), check_cocommu(smash),
               check_modass(smash), check_comodule(D, co),
               check_quasicomodule(D, co), check_coqm_algebra(D, A, co),
               check_coqm_coalgebra(D, A, co),
               check_antipode_colinear(D, A, co), check_commu(cosmash),
               check_comodcoass(cosmash))
    verdicts = {e.law_id: e.passed for rep in reports for e in rep.entries}
    assert len(verdicts) == 25
    return verdicts


@settings(max_examples=100, deadline=None, derandomize=True)
@given(action_inputs(), st.randoms(use_true_random=False))
def test_relabelling_keeps_every_verdict(inp, rng):
    H, A, act = inp
    p = rng.sample(range(H.dim), H.dim)
    q = rng.sample(range(A.dim), A.dim)
    assert (law_verdicts(relabel(H, p), relabel(A, q), relabel(act, p, q))
            == law_verdicts(H, A, act))


def test_relabelling_covers_failing_verdicts():
    """A bumped inversion action fails some of the 25 laws; relabelled by
    every permutation pair drawn below, its verdicts stay."""
    rng = random.Random(5)
    H, A = loop_algebra(cyclic(2)), loop_algebra(cyclic(3))
    act = ActionData.from_entries(
        QQ, 2, 3, [k + (c,) for k, c in inversion_action().nz.items()]
        + [(1, 2, 0, 1)])
    base = law_verdicts(H, A, act)
    assert not all(base.values())
    for _ in range(5):
        p, q = rng.sample(range(2), 2), rng.sample(range(3), 3)
        assert law_verdicts(relabel(H, p), relabel(A, q),
                            relabel(act, p, q)) == base


def structure_verdicts(H):
    """(suite, law id) -> passed over both full structure suites."""
    return {(suite.__name__, e.law_id): e.passed
            for suite in (check_hopf_quasigroup, check_hopf_coquasigroup)
            for e in suite(H).entries}


@pytest.mark.parametrize("inputs, fields", [
    (random_structures(), {"QQ", "GF(5)"}), (s3_perturbations(), {"QQ"})],
    ids=["random", "s3"])
def test_relabelling_keeps_structure_verdicts(inputs, fields):
    """Relabelling a structure by a random permutation keeps every verdict
    of both suites; each of the 22 laws fails on some drawn input over
    each field drawn."""
    failed = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(inputs, st.randoms(use_true_random=False))
    def relabelled(H, rng):
        verdicts = structure_verdicts(H)
        p = rng.sample(range(H.dim), H.dim)
        assert structure_verdicts(relabel(H, p)) == verdicts
        failed.update((repr(H.field), law_id)
                      for (_, law_id), ok in verdicts.items() if not ok)

    relabelled()
    ids = {law_id for _, law_id in structure_verdicts(loop_algebra(cyclic(2)))}
    assert len(ids) == 22
    assert failed == {(f, law_id) for f in fields for law_id in ids}


def dimodule_verdicts(D):
    """law id -> passed over the constituent, compatibility, lemma and
    adjunction laws of D."""
    return {e.law_id: e.passed
            for rep in (check_long_dimodule(D), check_lemma_identities(D),
                        check_adjunction(D.H, D))
            for e in rep.entries}


def test_relabelling_keeps_dimodule_verdicts():
    """Relabelling H by a random permutation and the carrier by another
    keeps every verdict of the dimodule checkers; ldm1 and each lemma and
    adjunction law of the quasigroup side fail on some drawn input over
    each field."""
    failed = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dimodules(), st.randoms(use_true_random=False))
    def relabelled(D, rng):
        verdicts = dimodule_verdicts(D)
        p = rng.sample(range(D.H.dim), D.H.dim)
        q = rng.sample(range(D.dim), D.dim)
        moved = LongDimodule(relabel(D.H, p), relabel(D.act, p, q),
                             relabel(D.coact, p, q), D.variant)
        assert dimodule_verdicts(moved) == verdicts
        failed.update((repr(D.field), law_id)
                      for law_id, ok in verdicts.items() if not ok)

    relabelled()
    ids = ("ldm1", "ldmp1", "ldmp2", "adj.unit_linear", "adj.unit_colinear",
           "adj.triangle1", "adj.triangle2")
    assert failed >= {(f, law_id) for f in ("QQ", "GF(5)") for law_id in ids}
