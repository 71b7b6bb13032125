"""Free legs bound from a map's nonzeros, against the per-instance checkers.

Every compiled law and construction binds a free leg from the nonzeros of
the first map that reads it, and loops over a range only for a leg that no
map reads.  The inputs below are those where this differs most from a walk
over every index: the duals of loop algebras (a diagonal mu, and a unit
that sums the basis), smash coproduct candidates like the benchmark's,
and random maps with empty fibres and with terms that cancel, over Q and
GF(5).  Every law report must equal the per-instance reference law for law
and witness for witness, and every construction its hand-built loop.  The
generated code is checked too: its range loops bind only unread legs.
"""

import ast
import importlib
import pkgutil
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import instance_reference as ref
import smash_reference as sref
from chein import chein_double, symmetric_group
from conftest import (automorphisms, cyclic, klein, loop7, perm_action,
                      s3_table, vector)
from test_laws import (assert_maps_match, cancelling_input, dimodule_maps,
                       smash_maps)
from test_module_laws import (COACTION_CHECKERS, COTARGET_CHECKERS,
                              assert_action_laws_same, assert_same)
from test_structures import assert_same_as_reference

import hopfloop
from hopfloop import (GF, QQ, ActionData, CoactionData, CosmashInput,
                      HopfQuasigroup, LongDimodule, SmashInput, SparseTensor,
                      build_from_comodule, build_smash_coproduct,
                      check_adjunction, check_commu, check_comodcoass,
                      check_compatibility, check_hopf_coquasigroup,
                      check_lemma_identities, dualize, loop_algebra)
from hopfloop.laws import SIGNATURES, Construction, Law

FIELDS = (QQ, GF(5))


def regular_coaction(H):
    """The coaction of the dual of H on H's carrier dual to left
    multiplication: every fibre of it one basis term."""
    return CoactionData.dual_of_action(ActionData.from_mu(H))


def test_duals_of_loop_algebras_match_reference():
    """The structure laws of k[L] and its dual, the action and coaction
    laws of left multiplication and its dual, and, for small L, the
    dimodule laws of the free H (x) M dimodule over the dual."""
    tables = (cyclic(2), cyclic(3), klein(), cyclic(5), s3_table(), loop7(),
              chein_double(symmetric_group(3)))
    for table in tables:
        for f in FIELDS:
            H = loop_algebra(table, field=f)
            D = dualize(H)
            assert D.mu.is_diagonal() and len(D.unit.nz) == H.dim
            assert_same_as_reference(H)
            assert_same_as_reference(D)
            if H.dim <= 7:
                assert_action_laws_same(H, H, ActionData.from_mu(H))
            if H.dim <= 5:
                free = build_from_comodule(D, regular_coaction(H))
                assert_same(check_compatibility, ref.check_compatibility,
                            free)
                assert_same(check_lemma_identities,
                            ref.check_lemma_identities, free)
                assert free.coact == sref.build_from_comodule(
                    D, regular_coaction(H)).coact


def sweep_inputs(rng):
    """An action of Q[H] on Q[A] by automorphisms with pi_{h^-1} =
    pi_h^-1, H and A as in the benchmark's sweep: the governing condition
    holds for some draws and fails for others."""
    for H in (cyclic(2), klein(), cyclic(4)):
        for A in (cyclic(3), cyclic(4), cyclic(5), klein()):
            auts = automorphisms(A)
            involutions = [p for p in auts
                           if all(p[p[x]] == x for x in range(A.n))]
            perms = {0: auts[0]}
            for h in range(1, H.n):
                if h not in perms:
                    hi = H.rows[h].index(0)
                    p = rng.choice(involutions if hi == h else auts)
                    perms[h] = p
                    perms[hi] = tuple(sorted(range(A.n), key=p.__getitem__))
            yield SmashInput(loop_algebra(H), loop_algebra(A),
                             perm_action(QQ, H.n, [perms[h]
                                                   for h in range(H.n)]))


def test_cosmash_candidates_match_reference():
    """The smash coproduct candidates of the sweep pairs equal their hand
    loop, and their structure laws and the coaction laws of their inputs
    equal the reference; some candidates pass and some fail."""
    verdicts = set()
    for inp in sweep_inputs(random.Random(7)):
        H, A = dualize(inp.H), dualize(inp.A)
        co = CoactionData.dual_of_action(inp.act)
        cos = CosmashInput(H, A, co)
        candidate = build_smash_coproduct(cos)
        assert candidate.mu.is_diagonal()
        reference = sref.smash_coproduct(cos)
        for name in ("mu", "unit", "delta", "counit", "antipode"):
            assert getattr(candidate, name) == getattr(reference, name), name
        assert_same_as_reference(candidate)
        verdicts.add(check_hopf_coquasigroup(candidate).ok)
        for new, old in COACTION_CHECKERS:
            assert_same(new, old, H, co)
        for new, old in COTARGET_CHECKERS:
            assert_same(new, old, H, A, co)
        assert_same(check_commu, ref.check_commu, cos)
        assert_same(check_comodcoass, ref.check_comodcoass, cos)
    assert verdicts == {True, False}


@st.composite
def sparse_maps(draw, f, dims, n_in, cls=SparseTensor):
    """A `cls` of `dims`, its first n_in legs the input: a few entries,
    so that most fibres are empty, each maybe with a partner of the
    opposite sign on the same input, so that terms through the two
    cancel, or at the same index, so that the entry itself cancels."""
    scalar = st.sampled_from((1, -1, 2, Fraction(1, 2)) if f == QQ
                             else (1, 2, 3, 4))
    index = st.tuples(*[st.integers(0, d - 1) for d in dims])
    entries = []
    for key, c in draw(st.lists(st.tuples(index, scalar), max_size=3)):
        entries.append(key + (c,))
        partner = draw(st.sampled_from(("none", "fibre", "entry")))
        if partner != "none":
            other = (key if partner == "entry" else key[:n_in]
                     + draw(st.tuples(*[st.integers(0, d - 1)
                                        for d in dims[n_in:]])))
            entries.append(other + (f.neg(c),))
    return cls(f, dims, entries)


@st.composite
def sparse_structures(draw, f, n):
    def vec():
        return vector(f, draw(st.lists(st.sampled_from((0, 0, 1, f.neg(1))),
                                       min_size=n, max_size=n)))

    return HopfQuasigroup(draw(sparse_maps(f, (n,) * 3, 2)), vec(),
                          draw(sparse_maps(f, (n,) * 3, 1)), vec(),
                          draw(sparse_maps(f, (n, n), 1)).transpose())


@st.composite
def sparse_inputs(draw):
    """(H, A, act, coact) over Q or GF(5), H and A of dim 1 to 4, every
    map sparse."""
    f = draw(st.sampled_from(FIELDS))
    nh, na = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (draw(sparse_structures(f, nh)), draw(sparse_structures(f, na)),
            draw(sparse_maps(f, (nh, na, na), 2, ActionData)),
            draw(sparse_maps(f, (na, na, nh), 1, CoactionData)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_inputs())
@example(cancelling_input())
def test_sparse_inputs_match_reference(inp):
    """Structure, action, coaction, smash and dimodule laws, and every
    construction, on sparse random inputs."""
    H, A, act, coact = inp
    assert_same_as_reference(H)
    assert_action_laws_same(H, A, act)
    D = LongDimodule(H, act, coact)
    for new, old in ((check_compatibility, ref.check_compatibility),
                     (check_lemma_identities, ref.check_lemma_identities)):
        assert_same(new, old, D)
    assert_same(check_adjunction, ref.check_adjunction, H, D)
    assert_maps_match(smash_maps(H, A, act, coact), H.field.zero)
    assert_maps_match(dimodule_maps(H, act, coact, act, coact), H.field.zero)


# --- the generated code ------------------------------------------------------


def declared():
    """Every `Law` and `Construction` at module level in the package, alone
    or inside tuples and dicts."""
    found = {}

    def walk(value):
        if isinstance(value, (Law, Construction)):
            found[id(value)] = value
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, tuple):
            for item in value:
                walk(item)

    for info in pkgutil.iter_modules(hopfloop.__path__):
        for value in vars(importlib.import_module(
                f"hopfloop.{info.name}")).values():
            walk(value)
    return list(found.values())


def read_legs(chain, n):
    """The domain legs, of n, that a step of `chain` reads."""
    legs, read = list(range(n)), set()
    for name, p in chain:
        if name == "swap":
            legs[p:p + 2] = legs[p + 1], legs[p]
            continue
        n_in, n_out = map(len, SIGNATURES[name])
        read.update(leg for leg in legs[p:p + n_in] if type(leg) is int)
        legs[p:p + n_in] = [None] * n_out
    return read


def range_legs(nodes):
    """The indices of the domain legs bound by `for x<i> in range(...)`
    in the statements `nodes`."""
    return [int(node.target.id[1:]) for top in nodes
            for node in ast.walk(top)
            if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and node.iter.func.id == "range"]


def test_range_loops_bind_only_unread_legs():
    """In the emitted source of every declared law and construction, each
    range loop binds a domain leg that no step of its side reads, and each
    such leg, but a law's walked one, has one."""
    laws = [x for x in declared() if isinstance(x, Law)]
    constructions = [x for x in declared() if isinstance(x, Construction)]
    assert len(laws) > 50 and len(constructions) == 17
    sides = []
    for lw in laws:
        # the body of `for x<slab> in slabs`: lhs = {}, ..., rhs = {}, ...
        body = ast.parse(lw.check.source).body[0].body[0].body
        cut = next(i for i, node in enumerate(body)
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "rhs")
        sides += [(body[:cut], lw.lhs, lw.domain, {lw.slab}),
                  (body[cut:], lw.rhs, lw.domain, {lw.slab})]
    sides += [(ast.parse(con.nest.source).body[0].body, con.chain,
               con.domain, set()) for con in constructions]
    for nodes, chain, domain, walked in sides:
        bound = range_legs(nodes)
        unread = set(range(len(domain))) - read_legs(chain, len(domain))
        assert len(bound) == len(set(bound)), chain
        assert set(bound) == unread - walked, chain
