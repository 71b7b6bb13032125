import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import structures_reference as ref
from conftest import (cyclic, inversion_action, klein, loop7, perm_action,
                      s3_table, vector)

from hopfloop import (GF, CoactionData, CosmashInput, QQ, SmashInput,
                      SparseTensor, build_smash_coproduct,
                      build_smash_product,
                      check_antipode_basic, check_bialgebra_compat,
                      check_coq_identities, check_hopf_coquasigroup,
                      check_hopf_quasigroup, check_quasi_identities,
                      check_unital_counital, dualize, loop_algebra)
from hopfloop.errors import DimMismatch, FieldMismatch, HopfloopError
from hopfloop.smash import SMASH_COPRODUCT, SMASH_PRODUCT, _structure
from hopfloop.structures import (HopfCoquasigroup, HopfQuasigroup,
                                 _delta_mult_holds, _quasi_firsts,
                                 check_associativity,
                                 check_coassociativity)


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
    broken = HopfQuasigroup(H.mu, H.unit, H.delta, H.counit,
                            SparseTensor(QQ, (2, 2), ()))
    rep = check_antipode_basic(broken)
    conv = rep.law("antipode.conv_left")
    assert not conv.passed
    # the identity basis element already witnesses the failure
    assert conv.witness.indices == (0,)


Q2, F2, Q3 = (loop_algebra(cyclic(2)), loop_algebra(cyclic(2), field=GF(5)),
              loop_algebra(cyclic(3)))
WIDE = SparseTensor(QQ, (2, 3), ())


@pytest.mark.parametrize("changed, error, message", [
    ({"unit": Q3.unit}, DimMismatch, "mu/unit dims differ"),
    ({"unit": F2.unit}, FieldMismatch, "cannot mix QQ and GF(5)"),
    ({"counit": Q3.counit}, DimMismatch, "delta/counit dims differ"),
    ({"delta": Q3.delta, "counit": Q3.counit}, DimMismatch,
     "algebra/coalgebra dims differ"),
    ({"antipode": WIDE}, DimMismatch, "antipode matrix dims"),
    ({"delta": F2.delta}, FieldMismatch, "cannot mix GF(5) and QQ"),
    ({"antipode": F2.antipode}, FieldMismatch, "cannot mix QQ and GF(5)"),
    ({"unit": Q3.unit, "antipode": WIDE}, DimMismatch,
     "mu/unit dims differ"),
    ({"antipode": SparseTensor(QQ, (2, 2, 2), [(0, 0, 0, 1), (1, 1, 1, 1)])},
     DimMismatch, "antipode matrix dims"),
    ({"mu": SparseTensor(QQ, (2, 3, 2), [(0, 0, 0, 1)])}, DimMismatch,
     "mu dims (2, 3, 2) are not (n, n, n)"),
    ({"delta": SparseTensor(QQ, (2, 2, 3), [(0, 0, 0, 1)])}, DimMismatch,
     "delta dims (2, 2, 3) are not (n, n, n)"),
    ({"mu": SparseTensor(QQ, (2, 2), [(0, 0, 1)])}, DimMismatch,
     "mu dims (2, 2) are not (n, n, n)"),
], ids=["unit-dims", "unit-field", "counit-dims", "mu-delta-dims",
        "antipode-dims", "delta-field", "antipode-field", "unit-first",
        "antipode-not-a-matrix", "mu-not-cubical", "delta-not-cubical",
        "mu-rank-2"])
def test_constructor_refuses_mismatched_maps(changed, error, message):
    """Q[C2]'s five maps with some replaced: the first failing check
    decides the exception type and message.  A rank-3 antipode is refused
    as one of the wrong dims, and a mu or delta not of dims (n, n, n),
    whatever its rank, before any other check reads its dims."""
    maps = {name: getattr(Q2, name)
            for name in ("mu", "unit", "delta", "counit", "antipode")}
    maps.update(changed)
    with pytest.raises(HopfloopError) as exc:
        HopfQuasigroup(**maps)
    assert (type(exc.value), str(exc.value)) == (error, message)


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
        SparseTensor(QQ, (2,) * 3, bad_mu), H.unit, H.delta, H.counit,
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
        return vector(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    return HopfQuasigroup(
        SparseTensor(f, (n,) * 3, entries(3)), vec(),
        SparseTensor(f, (n,) * 3, entries(3)), vec(),
        SparseTensor(f, (n, n), entries(2)))


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
    key = draw(st.tuples(*[idx] * len(t.dims)))
    parts[name] = type(t)(QQ, t.dims, [k + (c,) for k, c in t.nz.items()]
                          + [key + (bump,)])
    return type(H)(parts["mu"], parts["unit"],
                   parts["delta"], parts["counit"],
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


# --- the integer-table paths ------------------------------------------------
#
# assoc, coassoc, quasi* and coq* compose integer rows when the tensors they
# read are basis maps.  The strategies below give such inputs, and every
# report must match the per-instance reference byte for byte.

GROUPS = (cyclic(2), cyclic(3), klein(), cyclic(5))


def magma_algebra(f, t, s):
    """Span of the magma t: e_i e_j = e_t[i][j], delta(e_i) = e_i (x) e_i,
    counit 1, unit e_0 and S(e_h) = e_s[h]."""
    n = len(t)
    return HopfQuasigroup(
        SparseTensor(f, (n,) * 3, [(i, j, t[i][j], f.one)
                                   for i in range(n) for j in range(n)]),
        SparseTensor(f, (n,), [(0, f.one)]),
        SparseTensor(f, (n,) * 3, [(i, i, i, f.one) for i in range(n)]),
        vector(f, [f.one] * n),
        SparseTensor(f, (n, n), [(s[h], h, f.one) for h in range(n)]))


def _quasi_path(H):
    """The four lazy mismatch streams the quasi* table path reads on H, or
    None when it does not read H."""
    return _quasi_firsts(iter, H.mu.basis_map(2), H.antipode.basis_map(0),
                         H.delta, H.counit)


def _coq_path(H):
    """The same for the coq* table path, which reads the dual's tables."""
    return _quasi_firsts(iter, H.delta.basis_map(0), H.antipode.basis_map(1),
                         H.mu, H.unit)


@st.composite
def magma_algebras(draw):
    """A random table of order <= 5 or a group table with one cell
    changed, over Q, GF(2) or GF(5); the antipode is the inversion
    a -> the b with ab = 0 (if any), a permutation, or any map."""
    f = draw(st.sampled_from((QQ, GF(2), GF(5))))
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        t = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                   max_size=n), min_size=n, max_size=n))
    else:
        t = [list(row) for row in draw(st.sampled_from(GROUPS)).rows]
        n = len(t)
        t[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(0, n - 1))
    inversion = [row.index(0) if 0 in row else 0 for row in t]
    s = draw(st.one_of(st.just(inversion), st.permutations(range(n)),
                       st.lists(st.integers(0, n - 1), min_size=n,
                                max_size=n)))
    return magma_algebra(f, t, s)


@st.composite
def smash_candidates(draw):
    """The smash product of Q[H] and Q[A] (dim <= 8) under any permutation
    action, or the smash coproduct of their duals; built without the
    validation, so the actions need not be by automorphisms."""
    H, A = draw(st.sampled_from(((cyclic(2), cyclic(2)),
                                 (cyclic(2), cyclic(3)),
                                 (cyclic(2), klein()),
                                 (cyclic(3), cyclic(2)))))
    perms = [tuple(range(A.n))] + [
        draw(st.permutations(range(A.n))) for _ in range(1, H.n)]
    inp = SmashInput(loop_algebra(H), loop_algebra(A),
                     perm_action(QQ, H.n, perms))
    if draw(st.booleans()):
        return _structure(HopfQuasigroup, SMASH_PRODUCT, inp.H, inp.A,
                          act=inp.act)
    return _structure(HopfCoquasigroup, SMASH_COPRODUCT, dualize(inp.H),
                      dualize(inp.A),
                      coact=CoactionData.dual_of_action(inp.act))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(magma_algebras())
def test_table_paths_match_reference_on_magma_algebras(H):
    assert H.mu.basis_map(2) is not None and _quasi_path(H) is not None
    D = dualize(H)
    assert D.delta.basis_map(0) is not None and _coq_path(D) is not None
    assert_same_as_reference(H)
    assert_same_as_reference(D)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(smash_candidates())
def test_table_paths_match_reference_on_smash_candidates(X):
    if isinstance(X, HopfQuasigroup):
        assert X.mu.basis_map(2) is not None and _quasi_path(X) is not None
    else:
        assert X.delta.basis_map(0) is not None and _coq_path(X) is not None
    assert_same_as_reference(X)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(s3_perturbations())
def test_bumped_tensors_leave_the_table_paths(H):
    """Q[S3] takes the assoc and quasi table paths and its dual the coassoc
    and coq ones; a bump to any tensor such a path reads sends it to the
    declared law.  Both decide bialg.delta_mult by shape, and a bump to mu
    or delta sends it to its declaration."""
    quasi = isinstance(H, HopfQuasigroup)
    base = S3 if quasi else dualize(S3)
    maps = _quasi_path if quasi else _coq_path
    rows = H.mu.basis_map(2) if quasi else H.delta.basis_map(0)
    bumped = {part for part in ("mu", "delta", "unit", "counit", "antipode")
              if getattr(H, part) != getattr(base, part)}
    assert maps(base) is not None
    assert (rows is None) == (("mu" if quasi else "delta") in bumped)
    assert (maps(H) is None) == bool(bumped - {"unit" if quasi else "counit"})
    assert _delta_mult_holds(base)
    assert _delta_mult_holds(H) == (not bumped & {"mu", "delta"})
    assert_same_as_reference(H)


def test_table_paths_keep_no_mismatch_list():
    """On a dim-48 magma algebra where most triples fail, the table paths
    keep only the first mismatch: a list of every mismatch would take
    megabytes.  Each checker is traced on its second call, once the cached
    views exist; the failing slabs, hence the witnesses, are small (1 is
    the product of one pair only)."""
    n = 48
    rng = random.Random(48)
    t = [[rng.randrange(2, n) for _ in range(n)] for _ in range(n)]
    t[0][0], t[2][3] = 0, 1
    H = magma_algebra(QQ, t, range(n))
    D = dualize(H)
    for check, X in ((check_associativity, H), (check_quasi_identities, H),
                     (check_coassociativity, D), (check_coq_identities, D)):
        check(X)
        tracemalloc.start()
        try:
            rep = check(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rep.ok and peak < 2 ** 19, (check, peak)


def test_table_path_witnesses_on_failing_magma_dual():
    """The dual of the dim-48 magma algebra above: its coproduct sends e_l
    to the sum of e_i (x) e_j over t[i][j] = l, so e_1 goes to e_2 (x) e_3
    alone, and coassoc fails first at 1 with the terms of t[i][j] = 2
    against those of t[i][j] = 3.  Every coq law fails first at 0, where
    the unit, the sum of the basis, meets e_0 (x) e_0."""
    n = 48
    rng = random.Random(48)
    t = [[rng.randrange(2, n) for _ in range(n)] for _ in range(n)]
    t[0][0], t[2][3] = 0, 1
    D = dualize(magma_algebra(QQ, t, range(n)))
    preimages = {l: [(i, j) for i in range(n) for j in range(n)
                     if t[i][j] == l] for l in (2, 3)}
    w = check_coassociativity(D).law("coassoc").witness
    assert w.indices == (1,)
    assert w.lhs == tuple(sorted(((i, j, 3), "1") for i, j in preimages[2]))
    assert w.rhs == tuple(sorted(((2, i, j), "1") for i, j in preimages[3]))
    assert (len(w.lhs), len(w.rhs)) == (47, 51)
    rep = check_coq_identities(D)
    for law_id, rhs in (("coq1", lambda k: (k, 0)), ("coq2", lambda k: (0, k))):
        for side in ("left", "right"):
            w = rep.law(f"{law_id}.{side}").witness
            assert w.indices == (0,)
            assert w.lhs == (((0, 0), "1"),)
            assert w.rhs == tuple((rhs(k), "1") for k in range(n))


def test_dim_zero_structure_matches_reference():
    """The empty structure: every view is empty, every law holds."""
    f = QQ
    H = HopfQuasigroup(SparseTensor(f, (0, 0, 0), ()), vector(f, ()),
                       SparseTensor(f, (0, 0, 0), ()), vector(f, ()),
                       SparseTensor(f, (0, 0), ()))
    assert H.mu.basis_map(2) == H.delta.basis_map(0) == ()
    assert_same_as_reference(H)
    assert_same_as_reference(dualize(H))
