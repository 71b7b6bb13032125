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
* as a matrix, ``S(e_j) = sum_i S[i, j] e_i``: column j lists the image
  of e_j;
* the tensor product of spaces of dims (m, n) is flattened row-major,
  ``(i, j) -> i * n + j``.

A tensor that sends every input to one basis vector with coefficient one
also has a basis-map view, `basis_map(out)`: the output index on leg `out`
of each input on the other legs, as plain ints nested by those legs, and
None for any other tensor.  The product of a magma algebra is
`mu.basis_map(2)`, the coproduct of its dual read through the transpose
`delta.basis_map(0)`, and an antipode that sends basis vectors to basis
vectors `S.basis_map(0)`, or `S.basis_map(1)` for its transpose.  Laws
over such maps are decided by composing and comparing integer rows
(`assoc_mismatches`, `quasi_rows`).

A unit or counit is a tensor of dims (n,): read as a counit, its fibres
are those of `_by_first`, one ((), coeff) pair or none per basis vector;
read as a unit, its one fibre is `_nonzeros`, every (i, coeff) pair.
"""

from functools import cached_property
from math import prod
from operator import itemgetter

from .errors import DimMismatch


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

    @classmethod
    def _from_nz(cls, field, dims, nz):
        """Build from a dict of distinct index tuples, each inside dims.

        Zeros are dropped; unlike the constructor, nothing is summed or
        range-checked, so callers guarantee both.
        """
        self = cls.__new__(cls)
        zero = field.zero
        self.field = field
        self.dims = tuple(dims)
        self.nz = {key: c for key, c in nz.items() if c != zero}
        return self

    def __getitem__(self, key):
        """The entry at the full index tuple `key`; IndexError on any other
        key, so that a short or out-of-range key never reads as zero."""
        dims = self.dims
        if not (type(key) is tuple and len(key) == len(dims) and all(
                type(i) is int and 0 <= i < d for i, d in zip(key, dims))):
            raise IndexError(f"{key!r} is not an index of dims {dims}")
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
    def _nonzeros(self):
        """(i, coeff) pairs of a rank-1 tensor, in index order."""
        return tuple((i, c) for (i,), c in sorted(self.nz.items()))

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

    def basis_map(self, out):
        """This tensor as a map from its other legs to leg `out`: the k with
        e_x -> e_k for each input x, nested by the other legs as the fibres
        are ([x] -> k on a matrix, [x][y] -> k on an order-3 tensor).  None
        unless every input goes to one basis vector with coefficient one.
        Cached per `out`."""
        views = self._basis_maps
        if out not in views:
            views[out] = self._find_basis_map(out)
        return views[out]

    @cached_property
    def _basis_maps(self):
        return {}

    def _find_basis_map(self, out):
        dims, one = self.dims, self.field.one
        rest = dims[:out] + dims[out + 1:]
        size = prod(rest)
        if len(self.nz) != size:
            return None
        flat = [None] * size
        for key, c in self.nz.items():
            x = 0
            for i, d in zip(key[:out] + key[out + 1:], rest):
                x = x * d + i
            if c != one or flat[x] is not None:
                return None
            flat[x] = key[out]
        return _nested(flat, rest)

    def transpose(self):
        """The transpose of a matrix."""
        nz = {(j, i): c for (i, j), c in self.nz.items()}
        return type(self)._from_nz(self.field, self.dims[::-1], nz)

    def is_diagonal(self):
        """T[i, ..., i] = 1 for every i and no other nonzero: a grouplike
        coproduct, or the product of a function algebra."""
        one, nz, n, r = self.field.one, self.nz, self.dims[0], len(self.dims)
        return len(nz) == n and all(nz.get((i,) * r) == one for i in range(n))


def _nested(flat, dims):
    """The row-major list `flat` over `dims` as nested tuples, grouped
    from the last leg out."""
    flat = tuple(flat)
    for k in range(len(dims) - 1, 0, -1):
        d = dims[k]
        flat = tuple([flat[i * d:(i + 1) * d] for i in range(prod(dims[:k]))])
    return flat


# --- basis maps as integer tables -------------------------------------------
#
# A table row is a tuple of basis indices; t[i][j] is the image of (i, j).
# A law over basis maps compares two lists of rows, and the common case,
# where they agree, is one list comparison.


def _composer(inner):
    """The map outer -> (outer[inner[0]], outer[inner[1]], ...), outer a
    tuple: the row of outer after inner, built in one C call."""
    if len(inner) < 2:
        # itemgetter of one index returns the item, of none raises
        return itemgetter(slice(inner[0], inner[0] + 1) if inner
                          else slice(0))
    return itemgetter(*inner)


def mismatches(left, right):
    """(m, x, left[m][x], right[m][x]) for every x at which row m of `left`
    and of `right` differ; by m, then x.  Lazy, so a caller may stop at
    the first."""
    if left != right:
        for m, (lrow, rrow) in enumerate(zip(left, right)):
            if lrow != rrow:
                for x, (a, b) in enumerate(zip(lrow, rrow)):
                    if a != b:
                        yield m, x, a, b


def assoc_sides(t):
    """Per i, the rows j -> ((ij)k for each k) and j -> (i(jk) for each k)
    of the product table t, as a pair of lists of rows; lazy, one i at a
    time."""
    after = [_composer(row) for row in t]
    for ti in t:
        yield [t[x] for x in ti], [after_j(ti) for after_j in after]


def assoc_mismatches(t):
    """(i, j, k, (ij)k, i(jk)) for every triple where the two differ in the
    product table t, in row-major order; lazy, one i at a time."""
    for i, (left, right) in enumerate(assoc_sides(t)):
        for j, k, a, b in mismatches(left, right):
            yield i, j, k, a, b


def quasi_rows(t, inverse):
    """The rows g -> S(h)(hg), h(S(h)g), (gh)S(h), (gS(h))h for a product
    table t and each (h, S(h)) pair of the list `inverse`, as four lists of
    rows: the Hopf quasigroup identities when the coproduct is grouplike,
    and the IP laws of a loop."""
    cols = tuple(zip(*t))
    after_row = [_composer(row) for row in t]
    after_col = [_composer(col) for col in cols]
    return ([after_row[h](t[sh]) for h, sh in inverse],
            [after_row[sh](t[h]) for h, sh in inverse],
            [after_col[h](cols[sh]) for h, sh in inverse],
            [after_col[sh](cols[h]) for h, sh in inverse])

