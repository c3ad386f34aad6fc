"""Symmetric bilinear forms: radicals, complements, skewness, isotropy.

An OrthogonalSpace is a dimension plus a symmetric Gram matrix B over an
exact field; phi(x, y) = x^T B y in the ambient coordinates. A SkewEndo
wraps a matrix A with A^T B = -B A, the matrix form of a phi-skew map.
"""

from __future__ import annotations

from . import _fast
from .errors import ValidationError
from .exact_field import Field, solve_binary, sqrt_in_field, square_class
from .linalg import Matrix, Subspace, kernel_basis


class OrthogonalSpace:
    """A symmetric Gram matrix B over an exact field, phi(x, y) = x^T B y.
    identity_gram holds exactly when B is I, and times_gram skips B then."""

    __slots__ = ("field", "dim", "gram", "regular", "identity_gram")

    def __init__(self, gram):
        if not gram.is_square:
            raise ValidationError("Gram matrix must be square")
        if not gram.is_symmetric():
            raise ValidationError("Gram matrix must be symmetric")
        self.field = gram.field
        self.dim = gram.nrows
        self.gram = gram
        self.regular = gram.rank() == gram.nrows
        self.identity_gram = gram == Matrix.identity(gram.field, gram.nrows)

    @classmethod
    def _wrap(cls, gram):
        """Trusted constructor for a Gram that is symmetric and regular by
        construction; identity_gram is still read off it."""
        S = object.__new__(cls)
        S.field, S.dim, S.gram, S.regular = gram.field, gram.nrows, gram, True
        S.identity_gram = gram == Matrix.identity(gram.field, gram.nrows)
        return S

    @classmethod
    def standard(cls, field, n):
        """The form v . v on F^n, whose Gram I is regular unchecked."""
        return cls._wrap(Matrix.identity(field, n))

    def __repr__(self):
        return f"OrthogonalSpace(dim {self.dim}, {'regular' if self.regular else 'degenerate'})"

    def times_gram(self, R):
        """R B, for a Matrix R with dim columns: the one product with a
        space's Gram in the library. identity_gram is read off the Gram when
        the space is built, whatever built it; there B is I and R itself is
        returned, not a copy, so callers only read the result."""
        if self.identity_gram:
            if R.ncols != self.dim:
                raise ValidationError("inner dimensions differ")
            return R
        return R * self.gram

    def bilin(self, x, y):
        """phi(x, y) = (x B) . y, by times_gram and one dot product; x and y
        must have length dim."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValidationError("vector length mismatch")
        (xB,) = self.times_gram(Matrix._wrap(self.field, [x])).data
        return _fast.fp_matvec([xB], y, self.field.p)[0]

    def quad(self, x):
        return self.bilin(x, x)

    def restrict_gram(self, rows):
        """Gram matrix of the form restricted to the given basis rows."""
        R = Matrix._wrap(self.field, rows)
        return self.times_gram(R) * R.transpose()

    def to_json(self):
        return {"field": self.field.spec(), "gram": self.gram.to_json()}

    @classmethod
    def from_json(cls, doc, field=None):
        """The space of a document's "field" and "gram", checked as the
        constructor checks it; field, when given, stands in for the
        document's own. The one reader and writer (to_json) of these two
        keys: seeds (OscillatorData) and quadratic Lie algebras
        (QuadraticLieAlgebra) add their "delta" or "algebra" beside them
        and parse it after the space."""
        F = field or Field.parse(doc["field"])
        return cls(Matrix.from_json(F, doc["gram"]))


def radical(space):
    """V-perp: the kernel of the Gram matrix. Zero exactly when regular."""
    return kernel_basis(space.gram)


def ortho_complement(space, U):
    """All vectors phi-orthogonal to the subspace U."""
    if U.dim == 0:
        return Subspace.full(space.field, space.dim)
    return kernel_basis(space.times_gram(U.matrix()))


def hyperbolic_split(space, z):
    """(x, rest) for an isotropic z of a regular space: x isotropic with
    phi(x, z) = 1, found by one solve against z B and corrected by
    -(q(x)/2) z, and rest the orthogonal complement of the plane (x, z),
    the canonical echelon kernel of [x; z] B. rest is regular."""
    F = space.field
    x = space.times_gram(Matrix._wrap(F, [z])).solve([F.one])
    if x is None:
        raise ValidationError("regular form has no hyperbolic partner")
    corr = F.half(space.quad(x))
    x = [F.sub(xi, F.mul(corr, zi)) for xi, zi in zip(x, z)]
    return x, kernel_basis(space.times_gram(Matrix._wrap(F, [x, z])))


def is_skew(space, A):
    """Check A^T B + B A = 0; on failure also return the first offending
    index pair in row-major order.

    One product suffices: with M = A^T B, which is A^T itself when B is
    I, and B symmetric, B A = M^T, so the (i, j) entry of
    the sum is M[i][j] + M[j][i]. The sum is symmetric, so its first
    nonzero entry in row-major order has j >= i (an entry with j < i
    mirrors one in an earlier row), and the scan reads only those. Over Q
    it reads the integer image of M, so each sum is of ints.
    """
    return _skew_check(space, A)[:2]


def _skew_check(space, A):
    """is_skew's (ok, bad) and the product M = A^T B it scans."""
    if not (A.is_square and A.nrows == space.dim):
        raise ValidationError("endomorphism dimension mismatch")
    p = space.field.p
    M = space.times_gram(A.transpose())
    rows = M.data if p else _fast.integer_image(M.data, 0)[0]
    for i, row in enumerate(rows):
        for j in range(i, len(row)):
            if _fast.nonzero(row[j] + rows[j][i], p):
                return False, (i, j), M
    return True, None, M


class SkewEndo:
    """A phi-skew map: its matrix and the space it acts on.

    The public constructor checks skewness once, where a map enters; _wrap
    takes a map that is skew by construction, with its Omega. A SkewEndo is
    treated as immutable: its matrix is not changed after construction.
    That is what lets split hold the map's primary decomposition, computed
    by skewcanon.primary_split on first use and shared by every later
    reader, and omega the matrix Omega = A^T B, phi(A x, y) = x Omega y^T,
    which the double extension and its certificates read.
    """

    __slots__ = ("space", "matrix", "omega", "split")

    def __init__(self, space, matrix):
        ok, bad, omega = _skew_check(space, matrix)
        if not ok:
            raise ValidationError(f"matrix is not skew-adjoint, offending entry {bad}")
        self.space = space
        self.matrix = matrix
        self.omega = omega
        self.split = None

    @classmethod
    def _wrap(cls, space, matrix, omega):
        """Trusted constructor for a map skew by construction, with its
        Omega = A^T B already formed; nothing is checked."""
        f = object.__new__(cls)
        f.space, f.matrix, f.omega, f.split = space, matrix, omega, None
        return f

    @property
    def field(self):
        return self.space.field

    def __repr__(self):
        return f"SkewEndo(dim {self.space.dim})"


def skew_basis(space):
    """Basis of the space of B-skew matrices, dimension n(n-1)/2 for regular B.
    The equations and the kernel rows are built from canonical Gram entries
    and are wrapped, not coerced again."""
    F = space.field
    B = space.gram.data
    n = space.dim
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [F.zero] * (n * n)
            for k in range(n):
                row[k * n + i] = F.add(row[k * n + i], B[k][j])
                row[k * n + j] = F.add(row[k * n + j], B[i][k])
            rows.append(row)
    ker = kernel_basis(Matrix._wrap(F, rows))
    return [Matrix._wrap(F, [v[i * n : (i + 1) * n] for i in range(n)]) for v in ker.basis]


def diagonalize_form(space):
    """Congruence diagonalization: P invertible with P^T B P = diag(d).

    Deterministic pivoting: take the first nonzero diagonal entry, else fix
    a zero diagonal with the first usable off-diagonal entry (needs 2 != 0).
    Zeros in d span exactly the radical.
    """
    F = space.field
    n = space.dim
    C = [list(row) for row in space.gram.data]
    P = Matrix.identity(F, n)

    def col_op_add(dst, src, c):
        # basis change b_dst += c * b_src, applied to C on both sides and to P
        for i in range(n):
            C[i][dst] = F.add(C[i][dst], F.mul(c, C[i][src]))
        for j in range(n):
            C[dst][j] = F.add(C[dst][j], F.mul(c, C[src][j]))
        for i in range(n):
            P.data[i][dst] = F.add(P.data[i][dst], F.mul(c, P.data[i][src]))

    def col_swap(a, b):
        for i in range(n):
            C[i][a], C[i][b] = C[i][b], C[i][a]
        for j in range(n):
            C[a][j], C[b][j] = C[b][j], C[a][j]
        for i in range(n):
            P.data[i][a], P.data[i][b] = P.data[i][b], P.data[i][a]

    for i in range(n):
        if not C[i][i]:
            j = next((t for t in range(i + 1, n) if C[t][t]), -1)
            if j >= 0:
                col_swap(i, j)
            else:
                j = next((t for t in range(i + 1, n) if C[i][t]), -1)
                if j >= 0:
                    col_op_add(i, j, F.one)
        if not C[i][i]:
            continue
        inv = F.inv(C[i][i])
        for j in range(i + 1, n):
            if C[i][j]:
                col_op_add(j, i, F.neg(F.mul(C[i][j], inv)))
    d = [C[i][i] for i in range(n)]
    check = space.times_gram(P.transpose()) * P
    if check != Matrix.diagonal(F, d):
        raise ValidationError("diagonalization certificate failed")
    return P, d


class IsotropyReport:
    __slots__ = (
        "field",
        "dim",
        "verdict",
        "witt_index",
        "witt_lower_bound",
        "aniso_dim",
        "signature",
        "witness",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))

    def __repr__(self):
        return (
            f"IsotropyReport({self.verdict}, witt={self.witt_index}, "
            f"sig={self.signature})"
        )

    def to_json(self):
        F = self.field
        return {
            "field": F.spec(),
            "dim": self.dim,
            "verdict": self.verdict,
            "witt_index": self.witt_index,
            "witt_lower_bound": self.witt_lower_bound,
            "anisotropic_dim": self.aniso_dim,
            "signature": list(self.signature) if self.signature else None,
            "witness": [F.to_str(c) for c in self.witness] if self.witness else None,
        }


# the isotropic vector search over Q: the largest coordinate height tried,
# and the most vectors one search may try
ISOTROPY_HEIGHT_BOUND = 10
ISOTROPY_SEARCH_CAP = 200000


def _fp_isotropic_vector(P, d):
    """Isotropic vector of a regular F_p form with P^T B P = diag(d), Witt
    index at least one: P (1, t) with d_0 + d_1 t^2 = 0 in rank two, and
    P (x, y, 1, 0, ...) with d_0 x^2 + d_1 y^2 = -d_2 from rank three on."""
    F = P.field
    n = len(d)
    if n == 2:
        coords = [F.one, sqrt_in_field(F, F.neg(F.div(d[0], d[1])))]
    else:
        x, y = solve_binary(F, d[0], d[1], F.neg(d[2]))
        coords = [x, y, F.one] + [F.zero] * (n - 3)
    return P.matvec(coords)


def _q_box_isotropic(space):
    """First isotropic vector with coordinates in [-h, h], h growing to
    ISOTROPY_HEIGHT_BOUND."""
    field = space.field
    n = space.dim
    count = 0
    for h in range(1, ISOTROPY_HEIGHT_BOUND + 1):
        rng = list(range(-h, h + 1))
        stack = [[]]
        while stack:
            prefix = stack.pop()
            if len(prefix) == n:
                if any(prefix) and max(abs(c) for c in prefix) == h:
                    count += 1
                    if count > ISOTROPY_SEARCH_CAP:
                        return None
                    if not space.quad([field.of(c) for c in prefix]):
                        return [field.of(c) for c in prefix]
                continue
            for c in reversed(rng):
                stack.append(prefix + [c])
    return None


def _q_find_isotropic(space, P, d):
    """Isotropic vector for a regular rational space with P^T B P = diag(d),
    or None.

    Tries the exact two-coordinate criterion on the diagonalization first
    (d_i + d_j t^2 = 0 solvable iff -d_i/d_j is a square), then a bounded
    box search in the given coordinates.
    """
    field = space.field
    n = space.dim
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] and d[j] and (d[i] > 0) != (d[j] > 0):
                r = sqrt_in_field(field, -d[i] / d[j])
                if r is not None:
                    coords = [field.zero] * n
                    coords[i] = field.one
                    coords[j] = r
                    return P.matvec(coords)
    return _q_box_isotropic(space)


def _signature(d):
    """(positive, negative) entry counts of a rational diagonal form. By
    Sylvester's law the form of dimension n is definite exactly when n is
    one of the two counts."""
    return sum(1 for c in d if c > 0), sum(1 for c in d if c < 0)


def _fp_witt_index(F, d):
    """Exact Witt index of a regular F_p form diag(d): in even dimension 2m
    it is m when the discriminant is in the square class of (-1)^m, else
    m - 1; in odd dimension it is (n - 1) // 2."""
    n = len(d)
    if n % 2:
        return (n - 1) // 2
    disc = F.one
    for c in d:
        disc = F.mul(disc, c)
    m = n // 2
    sign = F.one if m % 2 == 0 else F.neg(F.one)
    return m if square_class(F, disc) == square_class(F, sign) else m - 1


def is_definite(space):
    """Whether the form is definite, without searching for isotropic vectors
    and without diagonalizing.

    Over Q: positive or negative definite, by Sylvester's criterion on the
    leading principal minors D_k (_fast.leading_minors): positive when
    every D_k > 0, negative when sign D_k = (-1)^k, and not definite once
    a minor is zero. Over F_p, where no form is ordered, "definite" means
    anisotropic, Witt index 0 of a regular form, as in the block kind
    definite_semisimple: every regular form of dimension <= 1 is, none of
    dimension >= 3 is, and one of dimension 2 is exactly when -det is a
    nonsquare. The zero space is definite, and a degenerate form is not.
    """
    n = space.dim
    p = space.field.p
    if p:
        if n != 2:
            return n < 2 and space.regular
        (a, b), (c, d) = space.gram.data
        return pow((b * c - a * d) % p, (p - 1) // 2, p) == p - 1
    minors = _fast.leading_minors(space.gram.data)
    if len(minors) < n:
        return False
    pos = [m > 0 for m in minors]
    return all(pos) or not any(pos[::2]) and all(pos[1::2])


def isotropy_report(space):
    """Witt-type analysis of a regular space.

    Over F_p the Witt index and anisotropic dimension are exact (standard
    finite-field form theory; any regular form of dim >= 3 is isotropic),
    and an isotropic form's witness is built from the diagonalization for
    every p. Over Q the verdict is three-valued: definite forms are
    recognized by the sign test of is_definite, isotropic ones come with a
    witness vector, and the remainder is honestly 'undecided'. The rational
    Witt index is computed by splitting off hyperbolic planes
    (hyperbolic_split) while witnesses can be found, each remainder
    regular and diagonalized once; the split stops at a definite
    remainder. Only this report and
    oscillator.witt1_certify run the bounded witness search; a caller that
    needs definiteness alone asks is_definite.
    """
    if not space.regular:
        raise ValidationError("isotropy analysis requires a regular form")
    F = space.field
    n = space.dim

    if F.p:
        P, d = diagonalize_form(space)
        witt = _fp_witt_index(F, d)
        witness = _fp_isotropic_vector(P, d) if witt > 0 else None
        if witness is not None and space.quad(witness):
            raise ValidationError("isotropy witness verification failed")
        return IsotropyReport(
            field=F,
            dim=n,
            verdict="isotropic" if witt > 0 else "anisotropic",
            witt_index=witt,
            witt_lower_bound=witt,
            aniso_dim=n - 2 * witt,
            signature=None,
            witness=witness,
        )

    # over Q: split hyperbolic planes while witnesses are found, until the
    # remainder is definite
    splits = 0
    cur = space
    E = Matrix.identity(F, n)  # columns embed current coordinates in ambient
    signature = first_witness = None
    while True:
        P, d = diagonalize_form(cur)
        sig = _signature(d)
        signature = signature or sig
        if cur.dim in sig:
            witt, aniso = splits, cur.dim
            break
        w = _q_find_isotropic(cur, P, d)
        if w is None:
            witt, aniso = None, None
            break
        if first_witness is None:
            first_witness = E.matvec(w)
        rows = hyperbolic_split(cur, w)[1].basis
        if rows:
            E = E * Matrix._wrap(F, rows).transpose()
            cur = OrthogonalSpace._wrap(cur.restrict_gram(rows))
        else:
            cur = OrthogonalSpace._wrap(Matrix._wrap(F, []))
        splits += 1

    if first_witness is not None and space.quad(first_witness):
        raise ValidationError("isotropy witness verification failed")
    if first_witness is not None:
        verdict = "isotropic"
    else:
        verdict = "anisotropic-definite" if witt == 0 else "undecided"
    return IsotropyReport(
        field=F,
        dim=n,
        verdict=verdict,
        witt_index=witt,
        witt_lower_bound=splits,
        aniso_dim=aniso,
        signature=signature,
        witness=first_witness,
    )
