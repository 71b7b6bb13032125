"""The basis-map view found one nonzero at a time, and the fibre views in
sorted order, as references.

`find_basis_map` places each nonzero at the flat index of its other legs,
computed with a Python stride loop, and gives up on a coefficient other
than one or a second nonzero for one input.  It is kept only so that
`SparseTensor.basis_map`, which asks `is_forward` of the other legs and
reads leg `out` off the sorted keys, can be tested against it.
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


# The fibre views as the tensor built them before they were grouped in the
# order of nz: each fibre sorted by the rest of its index.  Kept only so
# that the views can be tested against them fibre by fibre.


def by_first(T):
    out = [[] for _ in range(T.dims[0])]
    for key, c in sorted(T.nz.items()):
        out[key[0]].append((key[1:], c))
    return tuple(map(tuple, out))


def nonzeros(T):
    return tuple((i, c) for (i,), c in sorted(T.nz.items()))


def by_first_two(T):
    n0, n1 = T.dims[0], T.dims[1]
    out = [[] for _ in range(n0 * n1)]
    for (i, j, k), c in sorted(T.nz.items()):
        out[i * n1 + j].append((k, c))
    return tuple(tuple(map(tuple, out[i * n1:(i + 1) * n1]))
                 for i in range(n0))


def by_second(T):
    out = [[] for _ in range(T.dims[1])]
    for (i, j), c in sorted(T.nz.items()):
        out[j].append((i, c))
    return tuple(map(tuple, out))
