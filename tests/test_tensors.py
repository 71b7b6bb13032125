import ast
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tensors_reference as ref
from conftest import cyclic
from tensors_reference import find_basis_map

import hopfloop
from hopfloop import GF, QQ, SparseTensor, loop_algebra
from hopfloop.errors import DimMismatch
from hopfloop.tensors import quasi_mismatches


def test_rank1_groupings():
    """The two groupings the laws read from a tensor of dims (n,): as a
    counit, `_by_first`, one ((), coeff) pair or none per index; as a
    unit, `_nonzeros`, the (i, coeff) pairs.  Both in index order, whatever
    the order of the entries, and neither holds a zero."""
    two = QQ.from_int(2)
    v = SparseTensor(QQ, (4,), [(3, two), (2, QQ.zero), (1, QQ.one)])
    assert v._by_first == ((), (((), QQ.one),), (), (((), two),))
    assert v._nonzeros == ((1, QQ.one), (3, two))
    empty = SparseTensor(QQ, (0,), [])
    assert empty._by_first == () and empty._nonzeros == ()


def test_getitem_refuses_malformed_keys():
    """Only a full, in-range index tuple reads an entry: a bare int, a
    short tuple or an out-of-range index raises instead of reading 0."""
    H = loop_algebra(cyclic(3))
    assert H.counit[2,] == QQ.one and H.unit[1,] == QQ.zero
    assert H.mu[1, 2, 0] == QQ.one and H.mu[1, 2, 1] == QQ.zero
    for t, key in [(H.counit, 0), (H.counit, ()), (H.counit, (3,)),
                   (H.counit, (-1,)), (H.mu, 0), (H.mu, (0, 1)),
                   (H.mu, (5, 5, 5)), (H.mu, (0, 0, 0, 0)),
                   (H.antipode, 0)]:
        with pytest.raises(IndexError):
            t[key]


def test_mat_transpose_and_columns():
    a = SparseTensor(QQ, (2, 3), [(0, 0, 1), (0, 2, 2), (1, 2, 3)])
    assert a.rows == ((1, 0, 2), (0, 0, 3))
    assert a.transpose().rows == ((1, 0), (0, 0), (2, 3))
    assert a.transpose().transpose() == a
    assert a._by_second[2] == ((0, 2), (1, 3))
    assert a._by_second[1] == ()


def test_ten3_sparse_views():
    entries = [(0, 0, 1, QQ.parse("2")), (1, 0, 0, QQ.one)]
    t = SparseTensor(QQ, (2, 2, 2), entries)
    assert list(t._by_first_two[0][0]) == [(1, QQ.parse("2"))]
    assert list(t._by_first_two[0][1]) == []
    assert dict(t._by_first[1]) == {(0, 0): QQ.one}


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sparse_tensor_sums_repeated_keys(field):
    half = field.parse("1/2")
    t = SparseTensor(field, (2, 2, 2), [
        (0, 1, 1, half), (0, 1, 1, half), (1, 0, 0, field.one),
        (1, 0, 0, field.neg(field.one)), (1, 1, 0, field.zero)])
    assert t.nz == {(0, 1, 1): field.one}
    assert t[0, 1, 1] == field.one and t[1, 0, 0] == field.zero
    assert t == SparseTensor(field, (2, 2, 2), [(0, 1, 1, field.one)])
    assert t._by_first_two[0][1] == ((1, field.one),)
    assert t._by_first[1] == ()


def test_sparse_tensor_dense_view_and_bounds():
    t = SparseTensor(QQ, (1, 2, 3), [(0, 1, 2, 7)])
    assert t.data == (((0, 0, 0), (0, 0, 7)),)
    for bad in [(0, 2, 0, 1), (0, 0, -1, 1), (0, 0, 1)]:
        with pytest.raises(DimMismatch):
            SparseTensor(QQ, (1, 2, 3), [bad])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_from_nz_matches_constructor(data):
    """_from_nz on distinct in-range keys equals the summing, range-checking
    constructor on the same entries, zeros dropped, in the same order."""
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1,
                                    max_size=3)))
    nz = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, d - 1) for d in dims]),
        st.sampled_from(["0", "1", "2", "6", "7", "-3", "1/2"]).map(
            field.parse), max_size=20))
    fast = SparseTensor._from_nz(field, dims, nz)
    slow = SparseTensor(field, dims, [key + (c,) for key, c in nz.items()])
    assert type(fast) is SparseTensor and fast == slow
    assert list(fast.nz.items()) == list(slow.nz.items())
    assert fast._by_first == slow._by_first


def test_basis_map_nests_by_the_other_legs():
    """basis_map(out) holds, for each input on the other legs, nested in
    their order, the index on leg `out` of its one basis image."""
    a = SparseTensor(QQ, (2, 3), [(1, 0, 1), (0, 1, 1), (1, 2, 1)])
    assert a.basis_map(0) == (1, 0, 1)
    assert a.transpose().basis_map(1) == (1, 0, 1)
    assert a.basis_map(1) is None          # row 1 holds two entries
    b = SparseTensor(QQ, (3, 2), [(0, 1, 1), (1, 0, 1), (2, 0, 1)])
    assert b.basis_map(1) == (1, 0, 0) and b.basis_map(0) is None
    # t[i, j, k] = 1 for k = i on dims (2, 3, 2)
    t = SparseTensor(QQ, (2, 3, 2), [(i, j, i, 1)
                                     for i in range(2) for j in range(3)])
    assert t.basis_map(2) == ((0, 0, 0), (1, 1, 1))
    assert t.basis_map(0) == ((0, 1), (0, 1), (0, 1))
    assert t.basis_map(1) is None          # 6 entries for 4 inputs (i, k)
    u = SparseTensor(QQ, (3, 2, 2), [(i + j, i, j, 1)
                                     for i in range(2) for j in range(2)])
    assert u.basis_map(0) == ((0, 1), (1, 2))
    v = SparseTensor(QQ, (2, 2, 2), [(i, j * i, j, 1)
                                     for i in range(2) for j in range(2)])
    assert v.basis_map(1) == ((0, 0), (0, 1))
    H = loop_algebra(cyclic(3))
    assert H.mu.basis_map(2) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert H.delta.basis_map(0) is None    # grouplike: e_0 (x) e_1 in none


@pytest.mark.parametrize("entries", [
    [(0, 0, 1), (1, 1, 2)],                # a coefficient other than 1
    [(0, 0, 1)],                           # input e_1 has no image
    [(0, 0, 1), (1, 0, 1), (1, 1, 1)],     # input e_0 has two images
], ids=["coefficient", "missing", "doubled"])
def test_basis_map_none_off_basis_maps(entries):
    for field in (QQ, GF(5)):
        a = SparseTensor(field, (2, 2), entries)
        assert a.basis_map(0) is None
        t = SparseTensor(field, (2, 2, 2),
                         [(i, j, k, c) for i, k, c in entries for j in (0, 1)])
        assert t.basis_map(2) is None


def test_basis_map_on_dims_zero():
    assert SparseTensor(QQ, (0, 0), ()).basis_map(0) == ()
    assert SparseTensor(QQ, (0, 0), ()).basis_map(1) == ()
    t = SparseTensor(QQ, (0, 0, 0), ())
    assert t.basis_map(0) == t.basis_map(1) == t.basis_map(2) == ()


def test_basis_map_is_cached_per_leg():
    H = loop_algebra(cyclic(3))
    rows, cols = H.antipode.basis_map(0), H.antipode.basis_map(1)
    assert rows == (0, 2, 1) and cols == (0, 2, 1)
    assert H.antipode.basis_map(0) is rows
    assert H.antipode.basis_map(1) is cols
    assert H.mu.basis_map(2) is H.mu.basis_map(2)
    off = SparseTensor(QQ, (2, 2), [(0, 0, 2), (1, 1, 1)])
    assert off.basis_map(0) is None and off._basis_maps == {0: None}


NOT_ONE = {QQ: (2, -1, Fraction(1, 2)), GF(5): (2, 3, 4), GF(2): (0,)}


@st.composite
def near_basis_maps(draw):
    """A tensor of rank 1-3 and dims 0-3 that is a basis map to a drawn leg
    `out`, as it is or with one input changed: a coefficient other than
    one (zero over GF(2)), the input missing, its entry repeated (summed
    to 2, or to 0 over GF(2)), or a second image, which may be the same
    one."""
    f = draw(st.sampled_from(list(NOT_ONE)))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    out = draw(st.integers(0, len(dims) - 1))
    inputs = list(product(*map(range, dims[:out] + dims[out + 1:])))
    entries = [x[:out] + (draw(st.integers(0, dims[out] - 1)),) + x[out:]
               + (f.one,) for x in inputs] if dims[out] else []
    change = draw(st.sampled_from(
        ["none", "coefficient", "missing", "repeat", "second"]))
    if inputs and not dims[out]:
        change = "missing"  # no input has an image
    elif entries and change != "none":
        i = draw(st.integers(0, len(entries) - 1))
        key = entries[i][:-1]
        if change == "coefficient":
            entries[i] = key + (draw(st.sampled_from(NOT_ONE[f])),)
        elif change == "missing":
            del entries[i]
        elif change == "repeat":
            entries.append(entries[i])
        else:
            k = draw(st.integers(0, dims[out] - 1))
            entries.append(key[:out] + (k,) + key[out + 1:] + (f.one,))
    return SparseTensor(f, dims, entries), out, change


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_basis_maps())
def test_basis_map_matches_reference(drawn):
    """basis_map(out) agrees with the per-key reference on every leg."""
    t, out, change = drawn
    for leg in range(len(t.dims)):
        assert t.basis_map(leg) == find_basis_map(t, leg)
    if change == "none":
        assert t.basis_map(out) is not None


@st.composite
def summed_tensors(draw):
    """A tensor of rank 1-3 and dims 0-3 over Q, GF(2) or GF(5), built
    from entries in drawn order, some keys repeated and some of those
    summing to zero."""
    f = draw(st.sampled_from([QQ, GF(2), GF(5)]))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    if not all(dims):
        return SparseTensor(f, dims, [])
    keys = st.tuples(*[st.integers(0, d - 1) for d in dims])
    scalar = st.sampled_from(["1", "2", "-1", "3"] + (
        ["1/2", "-1/2"] if f != GF(2) else [])).map(f.parse)
    entries = [key + (c,) for key, c in draw(
        st.lists(st.tuples(keys, scalar), max_size=30))]
    # each drawn entry again, or its negative, so that it doubles or
    # cancels
    for e in draw(st.lists(st.sampled_from(entries), max_size=6)
                  if entries else st.just([])):
        entries.append(e[:-1] + (draw(st.sampled_from(
            [e[-1], f.neg(e[-1])])),))
    return SparseTensor(f, dims, draw(st.permutations(entries)))


class Relabelled(SparseTensor):
    """A subclass of no meaning, to see which type `permuted` returns."""


@settings(max_examples=300, deadline=None, derandomize=True)
@given(summed_tensors())
def test_permuted_matches_per_key_reference(t):
    """For every order of the legs, permuted(order) equals the tensor
    built key by key with leg p of each key taken from leg order[p] (so
    a rank-1 key stays a tuple), keeps its type unless `cls` names
    another, and is undone by the inverse order."""
    sub = Relabelled._from_nz(t.field, t.dims, dict(t.nz))
    for order in permutations(range(len(t.dims))):
        expected = SparseTensor(t.field, [t.dims[i] for i in order], [
            tuple(key[i] for i in order) + (c,) for key, c in t.nz.items()])
        inverse = tuple(sorted(range(len(order)), key=order.__getitem__))
        assert t.permuted(order) == expected
        assert t.permuted(order).permuted(inverse) == t
        assert type(sub.permuted(order)) is Relabelled
        assert sub.permuted(order).permuted(inverse) == sub
        assert sub.permuted(order, SparseTensor) == expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(summed_tensors())
def test_fibres_match_sorted_reference(t):
    """Each view, grouped in the order of nz, holds per fibre exactly the
    pairs of the sorted grouping: the same fibres, the same (index,
    coeff) pairs in each, and no zero."""
    assert (tuple(tuple(sorted(fibre)) for fibre in t._by_first)
            == ref.by_first(t))
    views = {1: ("_nonzeros", ref.nonzeros), 2: ("_by_second", ref.by_second),
             3: ("_by_first_two", ref.by_first_two)}
    name, reference = views[len(t.dims)]
    view, expected = getattr(t, name), reference(t)
    if name == "_by_first_two":
        view = tuple(tuple(tuple(sorted(fibre)) for fibre in row)
                     for row in view)
    elif name == "_by_second":
        view = tuple(tuple(sorted(fibre)) for fibre in view)
    assert view == expected
    assert t.field.zero not in t.nz.values()


VIEW_CACHES = {"_basis_maps", "_by_first", "_by_first_two", "_by_second",
               "_forward", "_nonzeros"}


def cache_writes(tree):
    """The lines of `tree` that write a view cache of a SparseTensor: an
    assignment or deletion whose target is such an attribute or an item
    of one, a mutating method called on one, or the cache's name as a
    string, as setattr and vars() writes need."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                   else [node.target] if isinstance(
                       node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute) and target.attr in VIEW_CACHES:
                yield node.lineno
        if (isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Attribute) and node.value.attr in VIEW_CACHES
                and node.attr in ("update", "setdefault", "pop", "popitem",
                                  "clear", "__setitem__")):
            yield node.lineno
        if isinstance(node, ast.Constant) and node.value in VIEW_CACHES:
            yield node.lineno


def test_view_caches_are_written_only_in_tensors():
    """Only `tensors.py` writes the cached views of a SparseTensor, so a
    view is always the one its nonzeros give: a builder that knows a
    tensor's basis map hands it over through `_from_basis_map`."""
    for write in ("R._basis_maps[0] = r", "R._by_second = ()",
                  "R._basis_maps.setdefault(0, r)", "del R._nonzeros",
                  "vars(R)['_by_first'] = ()"):
        assert any(cache_writes(ast.parse(write))), write
    assert not any(cache_writes(ast.parse("r = R.basis_map(0)")))
    found = {path.name for path in Path(hopfloop.__file__).parent.glob("*.py")
             if any(cache_writes(ast.parse(path.read_text())))}
    assert found == {"tensors.py"}


def test_from_nz_adopts_the_dict_it_is_given():
    """A dict with no zero becomes the tensor's nz; one with a zero is
    copied without it, and the caller's dict is left as it was."""
    nz = {(0, 1): QQ.one, (1, 0): Fraction(1, 2)}
    assert SparseTensor._from_nz(QQ, (2, 2), nz).nz is nz
    zeroed = {(0, 1): QQ.one, (1, 1): QQ.zero}
    t = SparseTensor._from_nz(QQ, (2, 2), zeroed)
    assert t.nz == {(0, 1): QQ.one} and len(zeroed) == 2


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_from_basis_map_holds_its_row(field):
    """The matrix with column j the basis vector e_flat[j] equals the one
    built entry by entry, and its basis_map(0) is the row itself."""
    flat = [2, 0, 2, 1]
    t = SparseTensor._from_basis_map(field, (3, 4), 0, flat)
    assert t == SparseTensor(field, (3, 4), [(k, j, field.one)
                                             for j, k in enumerate(flat)])
    assert t._basis_maps == {0: (2, 0, 2, 1)}
    assert t.basis_map(0) == find_basis_map(t, 0)
    assert t.basis_map(1) is None


FIBRES = {1: ((), (0,)), 2: ((), (0,), (1,)), 3: ((), (0,), (1,), (0, 1))}


@pytest.mark.parametrize("dims, out, flat", [
    ((3, 4), 0, [2, 0, 2, 1]), ((4, 3), 1, [1, 1, 0, 2]),
    ((2, 3, 3), 2, [0, 2, 1, 1, 1, 0]), ((2, 2, 3), 1, [1, 0, 0, 1, 1, 1]),
    ((3,), 0, [2]), ((0, 0), 0, []), ((2, 0, 3), 2, [])])
def test_tensor_from_a_row_equals_the_one_from_entries(dims, out, flat):
    """A tensor made from a row reads as the one made from its entries,
    whether nz is read first or not: ==, repr, data, rows, every fibre
    view and the transpose.  It makes nz only when that is read, and
    holds the row as its basis map on leg `out`."""
    rest = dims[:out] + dims[out + 1:]
    entries = [x[:out] + (k,) + x[out:] + (QQ.one,)
               for x, k in zip(product(*map(range, rest)), flat)]
    expected = SparseTensor(QQ, dims, entries)
    reads = [lambda t: t, repr, lambda t: t.data, lambda t: t.rows]
    reads += [lambda t, by=by: list(t.fibres(by)) for by in FIBRES[len(dims)]]
    if len(dims) == 2:
        reads.append(lambda t: t.transpose())
    for nz_first in (False, True):
        for read in reads:
            t = SparseTensor._from_basis_map(QQ, dims, out, flat)
            assert "nz" not in vars(t)
            if nz_first:
                assert t.nz == expected.nz
            assert read(t) == read(expected)
            assert t.basis_map(out) == find_basis_map(expected, out)


@st.composite
def tables_with_inverses(draw):
    """A square table of order 1-6, a Latin square (an isotope of the
    cyclic group) or any table, and a list of (h, s) pairs for some of
    its h in drawn order, s any element."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        p, q, r = (draw(st.permutations(range(n))) for _ in range(3))
        t = [[p[(q[i] + r[j]) % n] for j in range(n)] for i in range(n)]
    else:
        row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        t = draw(st.lists(row, min_size=n, max_size=n))
    hs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return t, [(h, draw(st.integers(0, n - 1))) for h in hs]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables_with_inverses())
def test_quasi_mismatches_match_elementwise_reference(drawn):
    """Every item of all four streams, in order, is the (m, g, got, g)
    of an element-by-element evaluation of S(h)(hg), h(S(h)g), (gh)S(h)
    and (gS(h))h, h and S(h) the m-th pair, for each g that it misses."""
    t, inverse = drawn
    t = tuple(map(tuple, t))
    sides = (lambda h, s, g: t[s][t[h][g]], lambda h, s, g: t[h][t[s][g]],
             lambda h, s, g: t[t[g][h]][s], lambda h, s, g: t[t[g][s]][h])
    streams = quasi_mismatches(t, inverse)
    assert len(streams) == 4
    for stream, side in zip(streams, sides):
        expected = [(m, g, side(h, s, g), g)
                    for m, (h, s) in enumerate(inverse)
                    for g in range(len(t)) if side(h, s, g) != g]
        assert list(stream) == expected
