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

A tensor that sends every input to one basis vector with coefficient one
also has a basis-map view, the output index of each input as a plain int,
and None for any other tensor: the product of a magma algebra, the
coproduct of its dual read through the transpose, an antipode that sends
basis vectors to basis vectors.  Laws over such maps are decided by
composing and comparing integer rows (`assoc_mismatches`, `quasi_rows`).

A unit or counit is a tensor of dims (n,): read as a counit, its fibres
are those of `_by_first`, one ((), coeff) pair or none per basis vector;
read as a unit, its one fibre is `_nonzeros`, every (i, coeff) pair.
"""

from functools import cached_property
from math import prod
from operator import itemgetter

from .errors import DimMismatch


def pair_index(i, j, dim_second):
    return i * dim_second + j


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

    def _basis_map(self, out):
        """This tensor as a map from its other legs to leg `out`: a tuple
        over the other legs' row-major flat index x, holding the k with
        x -> e_k.  None unless every input goes to exactly one basis vector
        with coefficient one."""
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
        return tuple(flat)


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

    @cached_property
    def column_map(self):
        """s[j] = i when S(e_j) = e_i for every j, else None."""
        return self._basis_map(0)

    @cached_property
    def row_map(self):
        """s[i] = j when row i holds one entry, a one in column j, for
        every i (the column map of the transpose), else None."""
        return self._basis_map(1)

    def transpose(self):
        return type(self)._from_nz(self.field, self.dims[::-1],
                            {(j, i): c for (i, j), c in self.nz.items()})


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

    @cached_property
    def mul_rows(self):
        """Product view as integer rows: mul_rows[i][j] = k when
        e_i e_j = e_k for every pair, else None."""
        return self._rows(2)

    @cached_property
    def comul_rows(self):
        """Coproduct view through the transpose: comul_rows[a][b] = i when
        e_a (x) e_b occurs in exactly one delta(e_i), with coefficient one,
        for every pair; else None.  It is the mul_rows of the dual."""
        return self._rows(0)

    def _rows(self, out):
        flat, n = self._basis_map(out), self.dims[0]
        if flat is None:
            return None
        return tuple(flat[i * n:(i + 1) * n] for i in range(n))

    def is_diagonal(self):
        """T[i, i, i] = 1 for every i and no other nonzero: a grouplike
        coproduct, or the product of a function algebra."""
        one, nz = self.field.one, self.nz
        return len(nz) == self.dims[0] and all(
            nz.get((i, i, i)) == one for i in range(self.dims[0]))


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

