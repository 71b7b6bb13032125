from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cyclic
from tensors_reference import find_basis_map

from hopfloop import GF, QQ, SparseTensor, loop_algebra
from hopfloop.errors import DimMismatch


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
