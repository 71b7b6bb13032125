"""Dense exact vectors, matrices and order-3 tensors, plus sparse helpers.

Index conventions, used identically everywhere:

* as a multiplication, ``e_i * e_j = sum_k T[i][j][k] e_k``;
* as a comultiplication, ``delta(e_i) = sum_{j,k} T[i][j][k] e_j (x) e_k``;
* the tensor product of spaces of dims (m, n) is flattened row-major,
  ``(i, j) -> i * n + j``.

All containers are immutable after construction.  Contractions iterate over
cached nonzero entries, so grouplike (sparse) structures stay cheap even at
dimension 49.
"""

from .errors import DimMismatch
from .fields import check_same_field


def pair_index(i, j, dim_second):
    return i * dim_second + j


def unpair_index(k, dim_second):
    return divmod(k, dim_second)


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


class Mat:
    __slots__ = ("field", "rows", "_cols")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimMismatch("ragged matrix")
        self.field = field
        self.rows = rows
        self._cols = None

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Mat({self.field!r}, {self.nrows}x{self.ncols})"

    @classmethod
    def zeros(cls, field, n, m):
        return cls(field, ((field.zero,) * m,) * n)

    @classmethod
    def identity(cls, field, n):
        return cls(field, tuple(
            tuple(field.one if i == j else field.zero for j in range(n))
            for i in range(n)))

    def column(self, j):
        """Nonzero entries of column j as (row, coeff) pairs."""
        if self._cols is None:
            z = self.field.zero
            cols = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for k, c in enumerate(row):
                    if c != z:
                        cols[k].append((i, c))
            self._cols = cols
        return self._cols[j]

    def apply(self, v):
        if v.dim != self.ncols:
            raise DimMismatch(f"matrix {self.nrows}x{self.ncols} on dim-{v.dim} vector")
        check_same_field(self.field, v.field)
        f = self.field
        out = [f.zero] * self.nrows
        for j, c in v.nonzero():
            for i, a in self.column(j):
                out[i] = f.add(out[i], f.mul(a, c))
        return Vec(f, out)

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise DimMismatch("matmul dims")
        check_same_field(self.field, other.field)
        f = self.field
        out = [[f.zero] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            for k, a in enumerate(row):
                if a == f.zero:
                    continue
                orow = other.rows[k]
                for j, b in enumerate(orow):
                    if b != f.zero:
                        out[i][j] = f.add(out[i][j], f.mul(a, b))
        return Mat(f, out)

    def transpose(self):
        return Mat(self.field, tuple(zip(*self.rows)) if self.rows else ())


class Ten3:
    __slots__ = ("field", "data", "_mul_view", "_split_view")

    def __init__(self, field, data):
        data = tuple(tuple(tuple(r) for r in plane) for plane in data)
        n = len(data)
        for plane in data:
            if len(plane) != n or any(len(r) != n for r in plane):
                raise DimMismatch("Ten3 must be cubical")
        self.field = field
        self.data = data
        self._mul_view = None
        self._split_view = None

    @property
    def dim(self):
        return len(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __eq__(self, other):
        return (isinstance(other, Ten3) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Ten3({self.field!r}, dim={self.dim})"

    @classmethod
    def from_entries(cls, field, n, entries):
        """Build from an iterable of (i, j, k, coeff), zeros elsewhere."""
        data = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, c in entries:
            data[i][j][k] = c
        return cls(field, data)

    def mul_pairs(self, i, j):
        """Product view: nonzeros of e_i * e_j as (k, coeff) pairs."""
        if self._mul_view is None:
            z = self.field.zero
            self._mul_view = tuple(
                tuple(tuple((k, c) for k, c in enumerate(row) if c != z)
                      for row in plane)
                for plane in self.data)
        return self._mul_view[i][j]

    def split_pairs(self, i):
        """Coproduct view: nonzeros of delta(e_i) as ((j, k), coeff) pairs."""
        if self._split_view is None:
            z = self.field.zero
            view = []
            for plane in self.data:
                nz = []
                for j, row in enumerate(plane):
                    for k, c in enumerate(row):
                        if c != z:
                            nz.append(((j, k), c))
                view.append(tuple(nz))
            self._split_view = tuple(view)
        return self._split_view[i]


def contract_mul(T, u, v):
    """Evaluate the bilinear product housed in T: w[k] = sum u[i]v[j]T[i][j][k]."""
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


def kron(A, B):
    """Kronecker product with row-major pair flattening (i,j) -> i*dim(B)+j."""
    check_same_field(A.field, B.field)
    f = A.field
    nb, mb = B.nrows, B.ncols
    out = [[f.zero] * (A.ncols * mb) for _ in range(A.nrows * nb)]
    for i, arow in enumerate(A.rows):
        for k, a in enumerate(arow):
            if a == f.zero:
                continue
            for j, brow in enumerate(B.rows):
                for l, b in enumerate(brow):
                    if b != f.zero:
                        out[i * nb + j][k * mb + l] = f.mul(a, b)
    return Mat(f, out)


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


def sparse_to_vec(field, n, d):
    out = [field.zero] * n
    for (i,), c in d.items():
        out[i] = c
    return Vec(field, out)


def vec_to_sparse(v):
    return {(i,): c for i, c in v.nonzero()}
