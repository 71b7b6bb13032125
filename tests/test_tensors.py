import random

import pytest

from conftest import s3_table

from hopfloop import GF, QQ, Mat, Ten3, Vec, contract_mul, loop_algebra
from hopfloop.errors import DimMismatch
from hopfloop.tensors import SparseTensor, pair_index, sadd, sscale


def test_pair_index_roundtrip():
    for i in range(5):
        for j in range(7):
            assert divmod(pair_index(i, j, 7), 7) == (i, j)


def test_vec_basics():
    v = Vec.basis(QQ, 3, 1)
    assert v[1] == QQ.one and v[0] == QQ.zero
    assert v.nonzero() == [(1, QQ.one)]
    assert Vec.zeros(QQ, 3).nonzero() == []


def test_mat_transpose_and_columns():
    a = Mat(QQ, (2, 3), [(0, 0, 1), (0, 2, 2), (1, 2, 3)])
    assert a.rows == ((1, 0, 2), (0, 0, 3))
    assert a.transpose().rows == ((1, 0), (0, 0), (2, 3))
    assert a.transpose().transpose() == a
    assert a.column(2) == ((0, 2), (1, 3))
    assert a.column(1) == ()


def test_contract_mul_group_oracle():
    # in the S3 loop algebra the contraction of mu against two basis
    # vectors must reproduce the Cayley table entry
    table = s3_table()
    H = loop_algebra(table)
    for i in range(6):
        for j in range(6):
            out = contract_mul(H.mu, Vec.basis(QQ, 6, i), Vec.basis(QQ, 6, j))
            assert out.nonzero() == [(table.mul(i, j), QQ.one)]


def test_ten3_sparse_views():
    entries = [(0, 0, 1, QQ.parse("2")), (1, 0, 0, QQ.one)]
    t = Ten3.from_entries(QQ, 2, entries)
    assert list(t.mul_pairs(0, 0)) == [(1, QQ.parse("2"))]
    assert list(t.mul_pairs(0, 1)) == []
    assert dict(t.split_pairs(1)) == {(0, 0): QQ.one}


def test_contract_mul_bilinear_random_gf7():
    f = GF(7)
    rng = random.Random(20260826)
    n = 4
    entries = [(i, j, rng.randrange(n), f.from_int(rng.randrange(1, 7)))
               for i in range(n) for j in range(n)]
    t = Ten3.from_entries(f, n, entries)

    def rand_vec():
        return Vec(f, [f.from_int(rng.randrange(7)) for _ in range(n)])

    for _ in range(25):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        a = f.from_int(rng.randrange(1, 7))
        lhs = contract_mul(t, Vec(f, [f.add(f.mul(a, u[i]), v[i])
                                      for i in range(n)]), w)
        t1 = contract_mul(t, u, w)
        t2 = contract_mul(t, v, w)
        rhs = Vec(f, [f.add(f.mul(a, t1[i]), t2[i]) for i in range(n)])
        assert lhs == rhs


def test_sparse_helpers_drop_zeros():
    acc = {}
    sadd(QQ, acc, (0,), QQ.one)
    sadd(QQ, acc, (0,), QQ.neg(QQ.one))
    assert acc == {}
    d = {(1,): QQ.parse("2")}
    assert sscale(QQ, d, QQ.zero) == {}


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_sparse_tensor_sums_repeated_keys(field):
    half = field.parse("1/2")
    t = Ten3.from_entries(field, 2, [
        (0, 1, 1, half), (0, 1, 1, half), (1, 0, 0, field.one),
        (1, 0, 0, field.neg(field.one)), (1, 1, 0, field.zero)])
    assert t.nz == {(0, 1, 1): field.one}
    assert t[0, 1, 1] == field.one and t[1, 0, 0] == field.zero
    assert t == Ten3.from_entries(field, 2, [(0, 1, 1, field.one)])
    assert t.mul_pairs(0, 1) == ((1, field.one),)
    assert t.split_pairs(1) == ()


def test_sparse_tensor_dense_view_and_bounds():
    t = SparseTensor(QQ, (1, 2, 3), [(0, 1, 2, 7)])
    assert t.data == (((0, 0, 0), (0, 0, 7)),)
    for bad in [(0, 2, 0, 1), (0, 0, -1, 1), (0, 0, 1)]:
        with pytest.raises(DimMismatch):
            SparseTensor(QQ, (1, 2, 3), [bad])
