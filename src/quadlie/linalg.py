"""Exact dense linear algebra over a Field.

Matrices are small (desk scale, n below ~40) and everything is computed
exactly. Row reduction (and with it rank, inverse, solve and the
determinant), the matrix product, matvec and Krylov chains go through the
kernels in quadlie._fast, which serve Q (Fraction entries) and F_p (ints
mod p) alike. All of them compute on ints for both: over Q on one integer
image of each operand, with one Fraction built per entry of the result,
and none at all for rank and det. Over Q, scale is one image times the
scalar, and equality of matrices and subspaces, symmetry and the rebuild
check of coords compare Fraction slots through _fast.same_rows rather
than Fraction.__eq__ per entry; over F_p they stay list comparisons.
Row reduction, rank, det and the minimal polynomial share one
elimination: rank and det read only its forward pass, the number
of pivot rows and their pivots' product signed by the order of their
pivot columns, and rref also reduces each pivot row against those below.

Scalars are coerced once, where data enters: the public constructor,
from_cols, diagonal, from_json, the public Subspace constructor and the
right-hand side of solve run Field.of. Results built here from entries that
are already field elements go through the trusted Matrix._wrap and
Subspace._wrap instead, and each subspace is reduced once: image_basis and
sum_with row-reduce their canonical rows straight through the kernel,
kernel_basis builds its echelon basis off one rref, and meet_kernel keeps
rows that are already in echelon form as they are.
Subspace.coords reads coordinates off the echelon basis at its pivot
columns, checked by one product; membership, inclusion and restriction are
that one reading.

No elimination is written out above the kernels: krylov builds the chain
v, A v, ..., A^k v, combine takes a linear combination as one product, and
the minimal polynomial is one _fast.fp_minpoly, the first power of A that
the lower powers span, checked by poly_at_matrix, the one evaluator of a
polynomial at a matrix: one _fast.fp_poly_at, Horner on the integer image
of A, with no Matrix product.
"""

from __future__ import annotations

from .errors import ValidationError, json_list
from .exact_field import Polynomial
from . import _fast


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, rows):
        self.field = field
        self.data = [[field.of(c) for c in row] for row in rows]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise ValidationError("ragged matrix rows")

    @classmethod
    def _wrap(cls, field, rows):
        """Trusted constructor: rows of equal length whose entries are already
        canonical field elements, or over Q ints when the matrix only goes
        into the kernels (a product, rref, kernel_basis), which read both
        through _fast.integer_image: liecore passes its integer equation
        rows so. Takes ownership of rows without copying."""
        m = object.__new__(cls)
        m.field = field
        m.data = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        return cls._wrap(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def diagonal(cls, field, entries):
        m = cls.zeros(field, len(entries), len(entries))
        for i, c in enumerate(entries):
            m.data[i][i] = field.of(c)
        return m

    @classmethod
    def from_cols(cls, field, cols):
        n = len(cols[0]) if cols else 0
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @classmethod
    def block_diagonal(cls, field, blocks):
        n = sum(b.nrows for b in blocks)
        m = sum(b.ncols for b in blocks)
        out = cls.zeros(field, n, m)
        r = c = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out.data[r + i][c + j] = b.data[i][j]
            r += b.nrows
            c += b.ncols
        return out

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.nrows)]

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def copy(self):
        return Matrix._wrap(self.field, [list(row) for row in self.data])

    def __eq__(self, other):
        """Entrywise equality: over Q through _fast.same_rows, which reads
        the Fraction slots rather than dispatching to Fraction.__eq__."""
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.data == other.data if self.field.p
                 else _fast.same_rows(self.data, other.data))
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in row) for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def transpose(self):
        return Matrix._wrap(self.field, [list(col) for col in zip(*self.data)])

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValidationError("matrix shapes differ")

    def __add__(self, other):
        self._same_shape(other)
        F = self.field
        return Matrix._wrap(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
        self._same_shape(other)
        F = self.field
        return Matrix._wrap(
            F,
            [
                [F.sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __neg__(self):
        F = self.field
        return Matrix._wrap(F, [[F.neg(a) for a in row] for row in self.data])

    def scale(self, c):
        """c times the matrix; over Q one integer image times c."""
        F = self.field
        c = F.of(c)
        if not F.p:
            return Matrix._wrap(F, _fast.scale_rows(self.data, c))
        return Matrix._wrap(F, [[F.mul(c, a) for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValidationError("inner dimensions differ")
            rows = _fast.fp_matmul(
                self.data, self.nrows, self.ncols,
                other.data, other.nrows, other.ncols, self.field.p,
            )
            return Matrix._wrap(self.field, rows)
        raise TypeError("matrix multiplication needs a Matrix")

    def matvec(self, v):
        if len(v) != self.ncols:
            raise ValidationError("vector length mismatch")
        return _fast.fp_matvec(self.data, v, self.field.p)

    def is_zero(self):
        return all(not c for row in self.data for c in row)

    def is_symmetric(self):
        if not self.is_square:
            return False
        if not self.field.p:
            return _fast.same_rows(self.data, list(zip(*self.data)))
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def rref(self):
        """Canonical reduced row echelon form: (R, pivot columns, rank), the
        pivot rows of rank's forward elimination, each reduced again against
        the rows below it."""
        rows, pivots, rank = _fast.fp_rref(self.data, self.ncols, self.field.p)
        return Matrix._wrap(self.field, rows), tuple(pivots), rank

    def rank(self):
        """Rank from the forward elimination of rref alone."""
        return _fast.fp_rank(self.data, self.ncols, self.field.p)[0]

    def inverse(self):
        if not self.is_square:
            raise ValidationError("inverse of a non-square matrix")
        F = self.field
        n = self.nrows
        aug = Matrix._wrap(
            F,
            [
                self.data[i] + [F.one if j == i else F.zero for j in range(n)]
                for i in range(n)
            ],
        )
        R, pivots, rank = aug.rref()
        if rank < n or pivots[:n] != tuple(range(n)):
            raise ValidationError("matrix is singular")
        return Matrix._wrap(F, [row[n:] for row in R.data])

    def det(self):
        """The pivot product of rank's forward elimination, signed by the
        order of its pivot columns; zero on a singular matrix."""
        if not self.is_square:
            raise ValidationError("determinant of a non-square matrix")
        return _fast.fp_rank(self.data, self.ncols, self.field.p)[1]

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent."""
        F = self.field
        if len(rhs) != self.nrows:
            raise ValidationError("right-hand side length mismatch")
        aug = Matrix._wrap(F, [row + [F.of(c)] for row, c in zip(self.data, rhs)])
        R, pivots, rank = aug.rref()
        if self.ncols in pivots:
            return None
        x = [F.zero] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = R.data[r][self.ncols]
        return x

    def to_json(self):
        F = self.field
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [F.to_str(c) for row in self.data for c in row],
        }

    @classmethod
    def from_json(cls, field, doc):
        r, c = doc["rows"], doc["cols"]
        ent = json_list(doc["entries"], "matrix 'entries'")
        if not all(type(k) is int and k >= 0 for k in (r, c)) or (r == 0) != (c == 0):
            # Matrix reads its column count off its rows, so 0 x c cannot
            # exist, and r x 0 would be r empty rows no verb can use
            raise ValidationError(f"impossible matrix shape {r!r} x {c!r}")
        if len(ent) != r * c:
            raise ValidationError("matrix entry count does not match its shape")
        return cls(field, [ent[i * c : (i + 1) * c] for i in range(r)])


class Subspace:
    """Row space held in reduced echelon form, so == is structural equality
    and the coordinates of a member are its entries at the pivot columns."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = _echelon(field, Matrix(field, vectors).data if vectors else [])

    @classmethod
    def _wrap(cls, field, ambient_dim, rows):
        """Trusted constructor: rows of equal length whose entries are already
        canonical field elements (over Q also ints, as liecore passes its
        integer brackets); they are row-reduced, not coerced."""
        return cls._echelon_wrap(field, ambient_dim, _echelon(field, rows))

    @classmethod
    def _echelon_wrap(cls, field, ambient_dim, basis):
        """Trusted constructor: basis is already the nonzero rows of a
        reduced echelon form, of canonical field elements."""
        s = object.__new__(cls)
        s.field = field
        s.ambient_dim = ambient_dim
        s.basis = basis
        return s

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls._wrap(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        # the rows of I are their own reduced echelon form
        return cls._echelon_wrap(field, ambient_dim, Matrix.identity(field, ambient_dim).data)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        rows = [list(v) for v in self.basis] or [[self.field.zero] * self.ambient_dim]
        return Matrix._wrap(self.field, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and (self.basis == other.basis if self.field.p
                 else _fast.same_rows(self.basis, other.basis))
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def coords(self, vecs):
        """Coefficient rows of vecs, vectors of canonical field elements, in
        the echelon basis, or None when one of them lies outside.

        Each basis row has a leading 1 at its pivot and zeros at the other
        pivots, so a member's coefficients are its entries at the pivot
        columns; one product C S checks that they rebuild every vector.
        """
        vecs = [list(v) for v in vecs]
        if not self.basis:
            return [[] for _ in vecs] if not any(c for v in vecs for c in v) else None
        if not vecs:
            return []
        F = self.field
        pivots = [next(j for j, c in enumerate(row) if c) for row in self.basis]
        C = [[v[j] for j in pivots] for v in vecs]
        rebuilt = (Matrix._wrap(F, C) * Matrix._wrap(F, self.basis)).data
        if not (rebuilt == vecs if F.p else _fast.same_rows(rebuilt, vecs)):
            return None
        return C

    def coords_of(self, v):
        """Coefficients of v in the echelon basis, or None if outside."""
        c = self.coords([v])
        return None if c is None else c[0]

    def contains(self, v):
        """Membership of v, a vector of canonical field elements."""
        return self.coords([v]) is not None

    def is_subspace_of(self, other):
        return other.coords(self.basis) is not None

    def restrict(self, A):
        """Matrix of A on this A-invariant subspace, in the echelon basis:
        column j holds the coordinates of A b_j, read from the rows of
        one product S A^T, S the basis."""
        if not self.basis:
            return Matrix._wrap(self.field, [])
        C = self.coords((Matrix._wrap(self.field, self.basis) * A.transpose()).data)
        if C is None:
            raise ValidationError("subspace is not invariant under the map")
        return Matrix._wrap(self.field, C).transpose()

    def sum_with(self, other):
        return Subspace._wrap(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other):
        """Intersection with other: the vectors of self that the constraints
        of other kill, one meet_kernel."""
        return self.meet_kernel(other.constraints())

    def meet_kernel(self, C):
        """{v in self : C v = 0}, for C with ambient_dim columns.

        With S the matrix of the echelon basis, v = y S lies in the meet
        exactly when (C S^T) y = 0, so this is the kernel of the small
        matrix C S^T mapped back through S. S is in reduced echelon form,
        so the entries of y S at the pivot columns of S are y itself: the
        echelon basis of the kernel maps to the echelon basis of the meet,
        and nothing is reduced again.
        """
        F = self.field
        if not self.basis:
            return self
        S = Matrix._wrap(F, self.basis)
        ys = kernel_basis(C * S.transpose()).basis
        rows = (Matrix._wrap(F, ys) * S).data if ys else []
        return Subspace._echelon_wrap(F, self.ambient_dim, rows)

    def constraints(self):
        """Matrix C with self = {v : C v = 0}."""
        if not self.basis:
            return Matrix.identity(self.field, self.ambient_dim)
        ker = kernel_basis(self.matrix())
        if not ker.basis:
            return Matrix.zeros(self.field, 1, self.ambient_dim)
        return ker.matrix()


def _echelon(field, rows):
    """Nonzero rows of the reduced echelon form of canonical rows."""
    if not rows:
        return []
    R, _, rank = _fast.fp_rref(rows, len(rows[0]), field.p)
    return R[:rank]


def kernel_basis(A):
    """Canonical echelon basis of {v : A v = 0}. A is reduced once, columns
    reversed, so each pivot column lies right of the free columns it solves
    for: the vectors below, by free column, are the kernel's echelon form."""
    F, n = A.field, A.ncols
    R, rev, _ = Matrix._wrap(F, [row[::-1] for row in A.data]).rref()
    pivots = [n - 1 - c for c in rev]
    vectors = []
    for j in range(n):
        if j not in pivots:
            v = [F.zero] * n
            v[j] = F.one
            for r, c in enumerate(pivots):
                v[c] = F.neg(R.data[r][n - 1 - j])
            vectors.append(v)
    return Subspace._echelon_wrap(F, n, vectors)


def image_basis(A):
    """Column space of A as a canonical Subspace."""
    return Subspace._wrap(A.field, A.nrows, A.cols())


def poly_at_matrix(p, A):
    """Evaluate a polynomial at a square matrix: one _fast.fp_poly_at,
    Horner on the integer image of A with the coefficients over one
    denominator, so a polynomial of degree d >= 1 costs d - 1 int products,
    a constant none, and over Q one Fraction is built per result entry."""
    return Matrix._wrap(A.field, _fast.fp_poly_at(p.coeffs, A.data, A.field.p))


def krylov(A, v, k):
    """The chain [v, A v, ..., A^k v], one _fast.fp_krylov: over Q it runs
    on one integer image of A and of v, not on k Fraction matvecs.

    v must have A.ncols entries, and A must be square once k > 1.
    """
    if len(v) != A.ncols or (k > 1 and not A.is_square):
        raise ValidationError("vector length mismatch")
    return _fast.fp_krylov(A.data, v, k, A.field.p)


def combine(F, coeffs, vecs):
    """sum_i coeffs[i] vecs[i], one row times the rows of vecs."""
    return (Matrix._wrap(F, [coeffs]) * Matrix._wrap(F, vecs)).data[0]


def minimal_polynomial(A):
    """Monic least-degree annihilator of a square matrix.

    One _fast.fp_minpoly: the first power of A that the lower powers span,
    found by one incremental elimination of the powers as they are formed,
    so a map of degree d costs d - 1 products. The result is re-verified by
    evaluating it at A with poly_at_matrix.
    """
    if not A.is_square:
        raise ValidationError("minimal polynomial of a non-square matrix")
    F = A.field
    m = Polynomial._wrap(F, _fast.fp_minpoly(A.data, F.p))
    if not poly_at_matrix(m, A).is_zero():
        raise ValidationError("annihilator verification failed")
    return m


def primary_component(A, pi, k):
    """Kernel of pi(A)^k, the primary component for an irreducible factor.

    pi^k is formed as a polynomial and evaluated once by poly_at_matrix.
    For irreducible pi and k >= 1 the kernel is nonzero exactly when pi
    divides the minimal polynomial of A, so that is checked on the kernel.
    Invariance under A is checked by reading the coordinates of the images
    of the basis, the rows of one product S A^T, in the component S.
    """
    pik = Polynomial.one(A.field)
    for _ in range(k):
        pik = pik * pi
    comp = kernel_basis(poly_at_matrix(pik, A))
    if not comp.dim:
        raise ValidationError("factor does not divide the minimal polynomial")
    if comp.coords((Matrix._wrap(A.field, comp.basis) * A.transpose()).data) is None:
        raise ValidationError("primary component is not invariant")
    return comp

