"""The basis-map view found one nonzero at a time, as a reference.

This is the earlier `SparseTensor._find_basis_map`: it places each nonzero
at the flat index of its other legs, computed with a Python stride loop,
and gives up on a coefficient other than one or a second nonzero for one
input.  It is kept only so that `SparseTensor.basis_map` can be tested
against it.
"""

from math import prod

from hopfloop.tensors import _nested


def find_basis_map(T, out):
    dims, one = T.dims, T.field.one
    rest = dims[:out] + dims[out + 1:]
    size = prod(rest)
    if len(T.nz) != size:
        return None
    flat = [None] * size
    for key, c in T.nz.items():
        x = 0
        for i, d in zip(key[:out] + key[out + 1:], rest):
            x = x * d + i
        if c != one or flat[x] is not None:
            return None
        flat[x] = key[out]
    return _nested(flat, rest)
