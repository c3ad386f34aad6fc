"""Exact dense linear algebra over a Field.

Matrices are small (desk scale, n below ~40) and everything is computed
exactly. Row reduction (and with it rank, inverse, solve and the
determinant) and the matrix product go through the one kernel pair in
quadlie._fast, which serves Q (Fraction entries) and F_p (ints mod p) alike
and computes on ints for both: over Q fraction-free, on rows scaled to
integers, with one Fraction built per entry of the result.

Scalars are coerced once, where data enters: the public constructor,
from_cols, diagonal, from_json, the public Subspace constructor and the
right-hand side of solve run Field.of. Results built here from entries that
are already field elements go through the trusted Matrix._wrap and
Subspace._wrap instead; kernel_basis, image_basis, sum_with and contains
row-reduce their canonical rows straight through the kernel, and
meet_kernel keeps rows that are already in echelon form as they are.
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
        canonical field elements. Takes ownership of rows without copying."""
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
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in row) for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def transpose(self):
        return Matrix._wrap(self.field, [list(col) for col in zip(*self.data)])

    def __add__(self, other):
        F = self.field
        return Matrix._wrap(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
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
        F = self.field
        c = F.of(c)
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
        F = self.field
        if len(v) != self.ncols:
            raise ValidationError("vector length mismatch")
        nz = [(j, c) for j, c in enumerate(v) if c]
        out = [sum([row[j] * c for j, c in nz], F.zero) for row in self.data]
        return [c % F.p for c in out] if F.p else out

    def is_zero(self):
        return all(not c for row in self.data for c in row)

    def is_symmetric(self):
        return self.is_square and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def rref(self):
        """Canonical reduced row echelon form: (R, pivot columns, rank)."""
        rows, pivots, rank, _ = _fast.fp_rref(self.data, self.ncols, self.field.p)
        return Matrix._wrap(self.field, rows), tuple(pivots), rank

    def rank(self):
        return self.rref()[2]

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
        if not self.is_square:
            raise ValidationError("determinant of a non-square matrix")
        _, _, rank, det = _fast.fp_rref(self.data, self.ncols, self.field.p)
        return det if rank == self.nrows else self.field.zero

    def solve(self, rhs):
        """One exact solution of self * x = rhs, or None if inconsistent."""
        F = self.field
        aug = Matrix._wrap(F, [self.data[i] + [F.of(rhs[i])] for i in range(self.nrows)])
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
        if not all(type(k) is int and k >= 0 for k in (r, c)) or (r == 0 and c):
            # a 0 x c matrix cannot exist: Matrix reads its column count off its rows
            raise ValidationError(f"impossible matrix shape {r!r} x {c!r}")
        if len(ent) != r * c:
            raise ValidationError("matrix entry count does not match its shape")
        return cls(field, [ent[i * c : (i + 1) * c] for i in range(r)])


class Subspace:
    """Row space held in reduced echelon form, so == is structural equality."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = _echelon(field, Matrix(field, vectors).data if vectors else [])

    @classmethod
    def _wrap(cls, field, ambient_dim, rows):
        """Trusted constructor: rows of equal length whose entries are already
        canonical field elements; they are row-reduced, not coerced."""
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
        return cls._wrap(field, ambient_dim, Matrix.identity(field, ambient_dim).data)

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
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains(self, v):
        """Membership of v, a vector of canonical field elements."""
        if all(not c for c in v):
            return True
        if not self.basis:
            return False
        return len(_echelon(self.field, self.basis + [list(v)])) == self.dim

    def is_subspace_of(self, other):
        return all(other.contains(v) for v in self.basis)

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

    def coords_of(self, v):
        """Coefficients of v in the echelon basis, or None if outside."""
        if not self.basis:
            return [] if all(not c for c in v) else None
        M = self.matrix().transpose()
        return M.solve(list(v))


def _echelon(field, rows):
    """Nonzero rows of the reduced echelon form of canonical rows."""
    if not rows:
        return []
    R, _, rank, _ = _fast.fp_rref(rows, len(rows[0]), field.p)
    return R[:rank]


def kernel_basis(A):
    """Canonical echelon basis of {v : A v = 0}."""
    R, pivots, rank = A.rref()
    F = A.field
    free = [j for j in range(A.ncols) if j not in pivots]
    vectors = []
    for j in free:
        v = [F.zero] * A.ncols
        v[j] = F.one
        for r, c in enumerate(pivots):
            v[c] = F.neg(R.data[r][j])
        vectors.append(v)
    return Subspace._wrap(F, A.ncols, vectors)


def image_basis(A):
    """Column space of A as a canonical Subspace."""
    return Subspace._wrap(A.field, A.nrows, A.cols())


def poly_at_matrix(p, A):
    """Evaluate a polynomial at a square matrix (Horner).

    Horner starts from the leading coefficient times A, so a polynomial of
    degree d >= 1 costs d - 1 products, and a constant none.
    """
    F = A.field
    n = A.nrows
    if not p.coeffs:
        return Matrix.zeros(F, n, n)
    *lower, lead = p.coeffs
    if not lower:
        acc = Matrix.zeros(F, n, n)
        lower = [lead]
    elif lead == F.one:
        acc = A.copy()
    else:
        acc = Matrix._wrap(F, [[F.mul(lead, a) for a in row] for row in A.data])
    for k, c in enumerate(reversed(lower)):
        if k:
            acc = acc * A
        for i in range(n):
            acc.data[i][i] = F.add(acc.data[i][i], c)
    return acc


def _poly_at_unit(p, A, i):
    """p(A) e_i by Horner on the vector, without forming p(A)."""
    F = A.field
    acc = [F.zero] * A.nrows
    for c in reversed(p.coeffs):
        acc = A.matvec(acc)
        acc[i] = F.add(acc[i], c)
    return acc


def _vector_annihilator(A, u):
    """Monic least-degree polynomial a with a(A) u = 0, for u nonzero.

    One forward elimination over the Krylov sequence u, A u, A^2 u, ...:
    each new vector is reduced against the rows kept so far, and each kept
    row carries its coefficients in the sequence, so the first vector that
    reduces to zero gives the annihilator. Over F_p the entries stay
    unreduced between the reads that need them reduced.
    """
    F = A.field
    p = F.p
    n = A.nrows
    rows = []  # (pivot, row scaled to 1 at the pivot, its coefficients)
    w = u
    k = 0
    while True:
        vec = w
        co = [F.zero] * (n + 1)
        co[k] = F.one
        for piv, row, rco in rows:
            f = vec[piv] % p if p else vec[piv]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
                co = [a - f * b for a, b in zip(co, rco)]
        if p:
            vec = [a % p for a in vec]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            if p:
                co = [a % p for a in co]
            return Polynomial._wrap(F, co[: k + 1])
        inv = F.inv(vec[piv])
        if p:
            rows.append((piv, [a * inv % p for a in vec], [a * inv % p for a in co]))
        else:
            rows.append((piv, [a * inv for a in vec], [a * inv for a in co]))
        w = A.matvec(w)
        k += 1


def minimal_polynomial(A):
    """Monic least-degree annihilator of a square matrix.

    Built one basis vector at a time: with m the annihilator of e_0, ...,
    e_(i-1) so far, u = m(A) e_i is skipped when zero, and otherwise m
    becomes m * ann(u), which is lcm(m, ann(e_i)) because ann(u) is
    ann(e_i) / gcd(ann(e_i), m). Each ann(u) is one forward elimination of
    the Krylov sequence of u. The result is re-verified by evaluating it
    at A.
    """
    if not A.is_square:
        raise ValidationError("minimal polynomial of a non-square matrix")
    F = A.field
    n = A.nrows
    m = Polynomial.one(F)
    for i in range(n):
        if m.degree == n:
            break
        u = _poly_at_unit(m, A, i)
        if any(u):
            m = m * _vector_annihilator(A, u)
    if not poly_at_matrix(m, A).is_zero():
        raise ValidationError("annihilator verification failed")
    return m


def primary_component(A, pi, k):
    """Kernel of pi(A)^k, the primary component for an irreducible factor.

    pi^k is formed as a polynomial and evaluated once by poly_at_matrix.
    For irreducible pi and k >= 1 the kernel is nonzero exactly when pi
    divides the minimal polynomial of A, so that is checked on the kernel.
    Invariance under A is checked by one echelon of the basis together with
    its images: the rank must stay the dimension.
    """
    pik = Polynomial.one(A.field)
    for _ in range(k):
        pik = pik * pi
    comp = kernel_basis(poly_at_matrix(pik, A))
    if not comp.dim:
        raise ValidationError("factor does not divide the minimal polynomial")
    images = [A.matvec(v) for v in comp.basis]
    if len(_echelon(A.field, comp.basis + images)) != comp.dim:
        raise ValidationError("primary component is not invariant")
    return comp

