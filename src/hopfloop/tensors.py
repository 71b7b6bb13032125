"""Exact sparse tensors, the one storage type of every structure constant.

A SparseTensor holds a field, a dims tuple and a dict of its nonzero
entries keyed by index tuple.  Zeros are never stored, and an index tuple
given more than once at construction is summed exactly, so builders pass
one entry per term and never accumulate themselves.  Memory is O(nnz).

The law checkers read fibres: the nonzeros grouped by the input legs a
step has already bound, as (rest of the index, coeff) pairs in the order
of `nz`, the rest one int when one leg is left.  `fibres(by)` names the
view of the legs `by`: the items of `nz` for none (`_nonzeros` for a
rank-1 tensor), `_by_first` for the first, `_by_second` for the second
(of a matrix or an order-3 tensor) and `_by_first_two` for both.  A
step binds its free legs from the rest, so it walks only the nonzeros
(Kjolstad et al., "The Tensor Algebra Compiler", OOPSLA 2017).  Each
grouping is built in one pass over the nonzeros on first use and held in
nested tuples, so a lookup is one or two subscripts and never hashes an
index tuple.  Exact sums do not depend on the order of their terms, and a
witness sorts its sides, so only a unit's few nonzeros are sorted.

A builder that makes a fresh dict of distinct in-range keys hands it to
`_from_nz`, and the tensor takes ownership of it: the dict becomes `nz`
unless it holds a zero.

Index conventions, used identically everywhere:

* as a multiplication, ``e_i * e_j = sum_k T[i, j, k] e_k``;
* as a comultiplication, ``delta(e_i) = sum_{j,k} T[i, j, k] e_j (x) e_k``;
* as a matrix, ``S(e_j) = sum_i S[i, j] e_i``: column j lists the image
  of e_j;
* the tensor product of spaces of dims (m, n) is flattened row-major,
  ``(i, j) -> i * n + j``.

Whether a tensor, read as a map from its legs `ins` to the others, sends
each input to one basis tuple with coefficient one is `is_forward(ins)`,
the one such test, which `laws.build` asks of every map a construction
reads.  When it holds on every leg but `out`, `basis_map(out)` reads off
the keys the output index on leg `out` of each input on the other legs,
as plain ints nested by those legs; it is None otherwise.  The product
of a magma algebra is `mu.basis_map(2)`, the coproduct of its dual read
through the transpose `delta.basis_map(0)`, and an antipode that sends
basis vectors to basis vectors `S.basis_map(0)`, or `S.basis_map(1)` for
its transpose.  On such maps, composing and comparing integer rows
(`assoc_mismatches`, `quasi_mismatches`) picks the slabs a law's check
walks, and the law's declaration decides each slab walked.

A builder that knows such a map's row, the output index of each input in
row-major order, hands it to `_from_basis_map(field, dims, out, row)`:
the tensor holds the row as its `basis_map(out)` from the start and makes
`nz` from it, cached, only when something reads it, so a reader of the
row alone, as `eq.d` on a basis R is, never makes the dict.

Every relabelling of legs, a transpose or a dual, is `permuted(order)`:
leg p of the result is leg order[p] of the tensor.

A unit or counit is a tensor of dims (n,): read as a counit, its fibres
are those of `_by_first`, one ((), coeff) pair or none per basis vector;
read as a unit, or as a counit whose leg no earlier step bound, its one
fibre is `_nonzeros`, every (i, coeff) pair in index order.
"""

from functools import cached_property
from itertools import chain, product
from math import prod
from operator import add, itemgetter

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
        """Build from a fresh dict of distinct index tuples, each inside
        dims, and take ownership of it.

        The tensor keeps the dict itself as `nz` when it holds no zero, so
        the caller must not change it afterwards; otherwise the zeros are
        dropped from a copy.  Unlike the constructor, nothing is summed or
        range-checked, so callers guarantee both.
        """
        self = cls.__new__(cls)
        zero = field.zero
        self.field = field
        self.dims = tuple(dims)
        self.nz = (nz if zero not in nz.values()
                   else {key: c for key, c in nz.items() if c != zero})
        return self

    @classmethod
    def _from_basis_map(cls, field, dims, out, flat):
        """The tensor of dims `dims` that sends input x, the x-th index of
        its other legs in row-major order, to e_flat[x] on leg `out` with
        coefficient one.  It holds `flat`, nested, as its `basis_map(out)`
        rather than searching for it, and makes `nz` only when something
        reads it.  Callers guarantee that len(flat) is the number of
        inputs and that each flat[x] lies in range(dims[out])."""
        self = cls.__new__(cls)
        self.field = field
        self.dims = dims = tuple(dims)
        self._basis_maps = {out: _nested(flat, dims[:out] + dims[out + 1:])}
        self._forward = {(*range(out), *range(out + 1, len(dims))): True}
        return self

    @cached_property
    def nz(self):
        # set in __init__ and _from_nz, so only a tensor made by
        # _from_basis_map gets here, from the basis map it was made from:
        # input x, row-major over the legs other than `out`, has the key
        # x with flat[x] put in at leg `out`
        (out, rows), = self._basis_maps.items()
        for _ in range(len(self.dims) - 2):
            rows = chain.from_iterable(rows)
        inputs = product(*map(range, self.dims[:out] + self.dims[out + 1:]))
        keys = (map(add, zip(rows), inputs) if out == 0
                else map(add, inputs, zip(rows)) if out == len(self.dims) - 1
                else (x[:out] + (k,) + x[out:] for x, k in zip(inputs, rows)))
        return dict.fromkeys(keys, self.field.one)

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

    # Fibres: the nonzeros grouped by some of their legs, each group a
    # tuple of (rest of the index, coeff) pairs in the order of nz.

    def fibres(self, by):
        """The view of the nonzeros grouped by the legs `by`, (0,), (1,) or
        (0, 1), or of every nonzero for (); a matrix is read by its
        second leg only."""
        if not by:
            return self._nonzeros if len(self.dims) == 1 else self.nz.items()
        return (self._by_first if by == (0,) else self._by_second
                if by == (1,) else self._by_first_two)

    @cached_property
    def _by_first(self):
        """[i] -> ((j, k, ...), coeff) pairs."""
        out = [[] for _ in range(self.dims[0])]
        for key, c in self.nz.items():
            out[key[0]].append((key[1:], c))
        return tuple(map(tuple, out))

    @cached_property
    def _nonzeros(self):
        """(i, coeff) pairs of a rank-1 tensor, in index order."""
        return tuple((i, c) for (i,), c in sorted(self.nz.items()))

    @cached_property
    def _by_first_two(self):
        """[i][j] -> (k, coeff) pairs, for an order-3 tensor.  Only an i
        with nonzeros gets a row of its own, the others share one row of
        empty fibres, so a diagonal tensor costs O(n), not n^2 empty
        lists.  A fibre grows by tuple concatenation, cheap for the one or
        few pairs a fibre of a structure map holds."""
        n1 = self.dims[1]
        empty = ((),) * n1
        out = [empty] * self.dims[0]
        for (i, j, k), c in self.nz.items():
            row = out[i]
            if row is empty:
                row = out[i] = list(empty)
            row[j] += ((k, c),)
        return tuple([row if row is empty else tuple(row) for row in out])

    @cached_property
    def _by_second(self):
        """[j] -> (i, coeff) pairs for a matrix, ((i, k), coeff) pairs for
        an order-3 tensor."""
        out = [[] for _ in range(self.dims[1])]
        if len(self.dims) == 2:
            for (i, j), c in self.nz.items():
                out[j].append((i, c))
        else:
            for (i, j, k), c in self.nz.items():
                out[j].append(((i, k), c))
        return tuple(map(tuple, out))

    def basis_map(self, out):
        """This tensor as a map from its other legs to leg `out`: the k with
        e_x -> e_k for each input x, nested by the other legs as the fibres
        are ([x] -> k on a matrix, [x][y] -> k on an order-3 tensor).  None
        unless `is_forward` holds on the other legs; then the keys, sorted
        by the other legs, list every input once, in row-major order, and
        the row is their leg `out`.  Cached per `out`."""
        views = self._basis_maps
        if out not in views:
            dims = self.dims
            ins = (*range(out), *range(out + 1, len(dims)))
            row = None
            if self.is_forward(ins):
                keys = list(self.nz)
                if ins:
                    keys.sort(key=itemgetter(*ins))
                row = _nested(map(itemgetter(out), keys),
                              dims[:out] + dims[out + 1:])
            views[out] = row
        return views[out]

    @cached_property
    def _basis_maps(self):
        return {}

    def is_forward(self, ins):
        """Whether this tensor, read as a map from its legs `ins` to the
        others, sends each input to one basis tuple, with coefficient
        one.  A tensor with as many nonzeros as inputs is checked in one
        pass of C-level calls over its values and keys; any other is
        refused in O(1).  Cached per `ins`."""
        known = self._forward
        if ins not in known:
            nz = self.nz
            n = len(nz)
            known[ins] = (
                n == prod(self.dims[i] for i in ins)
                and list(nz.values()).count(self.field.one) == n
                and (n < 2 or len(set(map(itemgetter(*ins), nz))) == n))
        return known[ins]

    @cached_property
    def _forward(self):
        return {}

    def permuted(self, order, cls=None):
        """The tensor, of type `cls` or else this one's, whose leg p is leg
        order[p] of this one: each key relabelled in one C-level pass."""
        nz = self.nz
        keys = map(itemgetter(*order), nz) if len(order) > 1 else nz
        return (cls or type(self))._from_nz(
            self.field, [self.dims[i] for i in order],
            dict(zip(keys, nz.values())))

    def transpose(self):
        """The transpose of a matrix."""
        return self.permuted((1, 0))

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


def assoc_mismatches(t):
    """(i, j, k, (ij)k, i(jk)) for every triple where the two differ in the
    product table t, in row-major order; lazy, one i at a time."""
    after = [_composer(row) for row in t]
    for i, ti in enumerate(t):
        left, right = [t[x] for x in ti], [after_j(ti) for after_j in after]
        for j, k, a, b in mismatches(left, right):
            yield i, j, k, a, b


def quasi_mismatches(t, inverse):
    """The four lazy `mismatches` of the rows g -> S(h)(hg), h(S(h)g),
    (gh)S(h) and (gS(h))h against g -> g in a product table t, row m for
    the m-th (h, S(h)) pair of `inverse`: the Hopf quasigroup identities
    when the coproduct is grouplike, and the IP laws of a loop."""
    cols = tuple(zip(*t))
    after_row = [_composer(row) for row in t]
    after_col = [_composer(col) for col in cols]
    expected = [tuple(range(len(t)))] * len(inverse)
    return [mismatches(sides, expected) for sides in (
        [after_row[h](t[sh]) for h, sh in inverse],
        [after_row[sh](t[h]) for h, sh in inverse],
        [after_col[h](cols[sh]) for h, sh in inverse],
        [after_col[sh](cols[h]) for h, sh in inverse])]
