"""Property tests over random small sparse structures over Q and GF(5)."""

import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import vector

from hopfloop import (GF, QQ, HopfCoquasigroup, HopfQuasigroup, SparseTensor,
                      dualize)
from hopfloop.fileio import load_structure, serialize_structure, write_text

SCALARS = {
    QQ: (0, 1, -1, 2, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
    GF(5): (0, 1, 2, 3, 4),
}


@st.composite
def structures(draw):
    """Hopf (co)quasigroup data of dim 1-4; no law is assumed to hold."""
    f = draw(st.sampled_from(list(SCALARS)))
    n = draw(st.integers(1, 4))
    scalar = st.sampled_from(SCALARS[f])
    idx = st.integers(0, n - 1)

    def entries(order):
        return draw(st.lists(st.tuples(*[idx] * order, scalar),
                             max_size=2 * n * n))

    def vec():
        return vector(f, draw(st.lists(scalar, min_size=n, max_size=n)))

    cls = draw(st.sampled_from((HopfQuasigroup, HopfCoquasigroup)))
    return cls(SparseTensor(f, (n,) * 3, entries(3)), vec(),
               SparseTensor(f, (n,) * 3, entries(3)), vec(),
               SparseTensor(f, (n, n), entries(2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structures())
def test_dualize_is_an_involution(H):
    back = dualize(dualize(H))
    assert type(back) is type(H)
    assert back.field == H.field
    assert back.same_tensors(H)
    assert type(dualize(H)) is not type(H)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structures())
def test_serialize_load_roundtrip(H):
    text = serialize_structure(H)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.txt")
        write_text(path, text)
        loaded = load_structure(path)
    assert serialize_structure(loaded) == text
    assert type(loaded) is type(H)
    assert loaded.field == H.field
    assert loaded.same_tensors(H)
