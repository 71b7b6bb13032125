"""Exact sparse tensors, the one storage type of every structure constant.

A SparseTensor holds a field, a dims tuple and a dict of its nonzero
entries keyed by index tuple.  Zeros are never stored, and an index tuple
given more than once at construction is summed exactly, so builders pass
one entry per term and never accumulate themselves.  Memory is O(nnz).

The law checkers read fibres: the nonzeros grouped by one or two index
legs, as (rest of the index, coeff) pairs in sorted order.  Each grouping is
built once from the nonzeros on first use and held in nested tuples, so a
lookup is one or two subscripts and never hashes an index tuple.

Index conventions, used identically everywhere:

* as a multiplication, ``e_i * e_j = sum_k T[i, j, k] e_k``;
* as a comultiplication, ``delta(e_i) = sum_{j,k} T[i, j, k] e_j (x) e_k``;
* as a matrix, ``S(e_j) = sum_i S[i, j] e_i``;
* the tensor product of spaces of dims (m, n) is flattened row-major,
  ``(i, j) -> i * n + j``.

Vec, the values of a unit or counit, stays a dense tuple.
"""

from functools import cached_property

from .errors import DimMismatch
from .fields import check_same_field


def pair_index(i, j, dim_second):
    return i * dim_second + j


class Vec:
    __slots__ = ("field", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = tuple(data)

    @property
    def dim(self):
        return len(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __eq__(self, other):
        return (isinstance(other, Vec) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Vec({self.field!r}, {list(self.data)})"

    @classmethod
    def zeros(cls, field, n):
        return cls(field, (field.zero,) * n)

    @classmethod
    def basis(cls, field, n, i):
        data = [field.zero] * n
        data[i] = field.one
        return cls(field, data)

    def nonzero(self):
        z = self.field.zero
        return [(i, c) for i, c in enumerate(self.data) if c != z]


class SparseTensor:
    """An immutable tensor of shape `dims` over `field`, nonzeros only."""

    def __init__(self, field, dims, entries):
        """entries: (i_1, ..., i_r, coeff) tuples; repeats are summed."""
        dims = tuple(dims)
        add, nz = field.add, {}
        for e in entries:
            key, c = e[:-1], e[-1]
            nz[key] = add(nz[key], c) if key in nz else c
        nz = {key: c for key, c in nz.items() if c != field.zero}
        if any(len(key) != len(dims) for key in nz) or any(
                min(leg) < 0 or max(leg) >= d
                for leg, d in zip(zip(*nz), dims)):
            raise DimMismatch(f"an entry's index lies outside dims {dims}")
        self.field = field
        self.dims = dims
        self.nz = nz

    def __getitem__(self, key):
        return self.nz.get(key, self.field.zero)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.dims == other.dims and self.nz == other.nz)

    def __repr__(self):
        return (f"{type(self).__name__}({self.field!r}, dims={self.dims}, "
                f"nnz={len(self.nz)})")

    @property
    def data(self):
        """Every entry, zeros included, as nested tuples.  Built on each
        access for inspection; the package itself never reads it."""
        z, dims, nz = self.field.zero, self.dims, self.nz

        def block(prefix):
            if len(prefix) == len(dims):
                return nz.get(prefix, z)
            return tuple(block(prefix + (i,))
                         for i in range(dims[len(prefix)]))

        return block(())

    rows = data

    # Fibres: the nonzeros grouped by leading legs, each group a tuple of
    # (rest of the index, coeff) pairs in sorted order.

    @cached_property
    def _by_first(self):
        """[i] -> ((j, k, ...), coeff) pairs."""
        out = [[] for _ in range(self.dims[0])]
        for key, c in sorted(self.nz.items()):
            out[key[0]].append((key[1:], c))
        return tuple(map(tuple, out))

    @cached_property
    def _by_first_two(self):
        """[i][j] -> (k, coeff) pairs, for an order-3 tensor."""
        n0, n1 = self.dims[0], self.dims[1]
        out = [[] for _ in range(n0 * n1)]
        for (i, j, k), c in sorted(self.nz.items()):
            out[i * n1 + j].append((k, c))
        return tuple(tuple(map(tuple, out[i * n1:(i + 1) * n1]))
                     for i in range(n0))

    @cached_property
    def _by_second(self):
        """[j] -> (i, coeff) pairs, for a matrix."""
        out = [[] for _ in range(self.dims[1])]
        for (i, j), c in sorted(self.nz.items()):
            out[j].append((i, c))
        return tuple(map(tuple, out))


class Mat(SparseTensor):
    """A matrix; column j lists the image of e_j."""

    @property
    def nrows(self):
        return self.dims[0]

    @property
    def ncols(self):
        return self.dims[1]

    def column(self, j):
        """Nonzero entries of column j as (row, coeff) pairs."""
        return self._by_second[j]

    def transpose(self):
        return Mat(self.field, self.dims[::-1],
                   ((j, i, c) for (i, j), c in self.nz.items()))


class Ten3(SparseTensor):
    """A cubical order-3 tensor: a product or a coproduct."""

    @classmethod
    def from_entries(cls, field, n, entries):
        """Build from an iterable of (i, j, k, coeff), zeros elsewhere."""
        return cls(field, (n, n, n), entries)

    @property
    def dim(self):
        return self.dims[0]

    def mul_pairs(self, i, j):
        """Product view: nonzeros of e_i * e_j as (k, coeff) pairs."""
        return self._by_first_two[i][j]

    def split_pairs(self, i):
        """Coproduct view: nonzeros of delta(e_i) as ((j, k), coeff) pairs."""
        return self._by_first[i]


def contract_mul(T, u, v):
    """Evaluate the bilinear product housed in T: w[k] = sum u[i]v[j]T[i, j, k]."""
    if u.dim != T.dim or v.dim != T.dim:
        raise DimMismatch("contract_mul dims")
    check_same_field(T.field, u.field)
    check_same_field(T.field, v.field)
    f = T.field
    out = [f.zero] * T.dim
    for i, a in u.nonzero():
        for j, b in v.nonzero():
            ab = f.mul(a, b)
            for k, c in T.mul_pairs(i, j):
                out[k] = f.add(out[k], f.mul(ab, c))
    return Vec(f, out)


# --- sparse elements -------------------------------------------------------
#
# Intermediate values in law checks are sparse linear combinations of basis
# tensors, represented as dicts mapping an index tuple to a nonzero scalar.


def sadd(field, acc, key, coeff):
    """Accumulate coeff at key, dropping exact zeros."""
    if coeff == field.zero:
        return
    cur = acc.get(key)
    if cur is None:
        acc[key] = coeff
    else:
        s = field.add(cur, coeff)
        if s == field.zero:
            del acc[key]
        else:
            acc[key] = s


def sscale(field, d, coeff):
    if coeff == field.zero:
        return {}
    return {k: field.mul(c, coeff) for k, c in d.items()}
