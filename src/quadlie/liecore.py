"""Lie algebras by a sparse bracket table, exact series, invariant forms.

Everything here is basis-bound: an algebra is its table of nonzero brackets
[e_i, e_j] for i < j over an exact field, subspaces are echelonized row
spaces, and every advertised identity (Jacobi, invariance, series duality)
is checked by exact linear algebra rather than assumed. Antisymmetry holds
by construction: [e_j, e_i] is read as the negative of the stored entry.

Every operation that reads the brackets reads them from one integer image
of the table (_build_integer_image), built once per algebra: bracket,
bracket_span, is_homomorphism, the Jacobi and invariance checks, the
centralizers behind centre and the upper central series, and the
equations of invariant_forms_basis. Its format stays inside this module.
Vectors become ints and ints field elements through the kernels' own
helpers, _fast.integer_image and _fast.field_image. The int equation rows
handed to Matrix._wrap and Subspace._wrap stay ints over Q, which the
kernels read through the same integer image, and are reduced mod p over F_p.
"""

from itertools import combinations

from ._fast import field_image, integer_image, nonzero
from .errors import ValidationError, json_list
from .linalg import Matrix, Subspace, kernel_basis
from .quadspace import OrthogonalSpace, ortho_complement


class LieAlgebra:
    """table[(i, j)] = coordinates of [e_i, e_j] for i < j, nonzero only.

    Each vector is coerced once, where it enters; absent pairs bracket to
    zero and [e_j, e_i] = -[e_i, e_j]. The table is treated as immutable:
    its integer image (_build_integer_image) is built on first use and
    kept, and it is the only form the brackets are computed in.
    The Jacobi identity is not checked here, so candidate tables can be
    inspected with jacobi_check first.
    """

    __slots__ = ("field", "dim", "table", "_image")

    def __init__(self, field, dim, brackets):
        if type(dim) is not int or dim < 0:
            raise ValidationError(f"impossible algebra dimension {dim!r}")
        table = {}
        for (i, j), vec in brackets.items():
            if not 0 <= i < j < dim:
                raise ValidationError("bracket keys must satisfy 0 <= i < j < dim")
            if len(vec) != dim:
                raise ValidationError("bracket vectors must have length dim")
            vec = [field.of(c) for c in vec]
            if any(vec):
                table[(i, j)] = vec
        self.field = field
        self.dim = dim
        self.table = table
        self._image = None

    @classmethod
    def _wrap(cls, field, dim, table):
        """Trusted constructor: table maps keys i < j below dim to nonzero
        vectors of length dim whose entries are already canonical field
        elements, as the validating constructor would have stored them.
        Takes ownership of table without copying or coercing, and checks
        nothing: Jacobi is the caller's to know or to check."""
        L = object.__new__(cls)
        L.field = field
        L.dim = dim
        L.table = table
        L._image = None
        return L

    @classmethod
    def from_brackets(cls, field, dim, brackets):
        """Build from a sparse {(i, j): vector} map given for i < j."""
        return cls(field, dim, brackets)

    @classmethod
    def abelian(cls, field, dim):
        return cls(field, dim, {})

    def _integer_image(self):
        """(d, right) of _build_integer_image, built once per algebra."""
        if self._image is None:
            self._image = _build_integer_image(self)
        return self._image

    def bracket(self, x, y):
        """[x, y] for canonical vectors x, y.

        x and y are brought to integers over their common denominator s,
        the bracket is taken on the integer image, and the result is
        divided once by d s^2 (reduced mod p over F_p).
        """
        p = self.field.p
        d, right = self._integer_image()
        (xs, ys), s = integer_image([x, y], p)
        return field_image(_apply(xs, _right_action(right, ys), self.dim), d * s * s, p)

    def ad(self, x):
        """Matrix of y -> [x, y]; its columns are the [x, e_j]."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix._wrap(self.field, [list(row) for row in zip(*cols)])

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def to_json(self):
        F = self.field
        return {
            "dim": self.dim,
            "brackets": [
                {"i": i, "j": j, "v": [F.to_str(c) for c in vec]}
                for (i, j), vec in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, field, doc):
        brackets = {
            (entry["i"], entry["j"]): json_list(entry["v"], "a bracket vector 'v'")
            for entry in json_list(doc["brackets"], "'brackets'")
        }
        return cls(field, doc["dim"], brackets)

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field.spec()})"


def _build_integer_image(L):
    """(d, right): d is the common denominator of the table (1 over F_p)
    and right[j] = {i: d [e_i, e_j]} the integer maps x -> d [x, e_j],
    nonzero columns only.

    Negatives are plain int negatives, so over F_p the entries lie in
    (-p, p) and every result is reduced mod p by its reader.
    """
    vecs, d = integer_image(list(L.table.values()), L.field.p)
    right = [{} for _ in range(L.dim)]
    for (i, j), vec in zip(L.table, vecs):
        right[j][i] = vec
        right[i][j] = [-c for c in vec]
    return d, right


def _right_action(right, y):
    """{r: d [e_r, y]} for an int vector y, on the integer maps right."""
    cols = {}
    for m, ym in enumerate(y):
        if not ym:
            continue
        for r, vec in right[m].items():
            col = cols.get(r)
            if col is None:
                cols[r] = [ym * v for v in vec]
            else:
                cols[r] = [a + ym * v for a, v in zip(col, vec)]
    return cols


def _apply(x, cols, n):
    """sum of x[r] cols[r]: d [x, y] from cols = _right_action(right, y)."""
    acc = [0] * n
    for r, col in cols.items():
        c = x[r]
        if c:
            acc = [a + c * v for a, v in zip(acc, col)]
    return acc


def jacobi_check(L):
    """(True, None) or (False, first offending basis triple i < j < k).

    Runs on the integer image: every term of the identity is quadratic in
    the table, so scaling the table by d scales each Jacobi sum by d^2 and
    leaves its zero pattern alone.
    """
    p = L.field.p
    _, right = L._integer_image()
    for i, j, k in combinations(range(L.dim), 3):
        acc = [0] * L.dim
        # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
        for u, m in ((right[j].get(i), k), (right[k].get(j), i), (right[i].get(k), j)):
            if u is None:
                continue
            cols = right[m]  # [u, e_m] = sum of u[r] [e_r, e_m]
            for r, c in enumerate(u):
                if c and r in cols:
                    acc = [a + c * b for a, b in zip(acc, cols[r])]
        if any(nonzero(a, p) for a in acc):
            return False, (i, j, k)
    return True, None


def invariance_check(L, space):
    """(True, None) or (False, (i, (j, k))) for the first failure of invariance.

    Invariance is phi([e_i,e_j], e_k) + phi(e_j, [e_i,e_k]) = 0 for all i,
    j, k. The condition is symmetric in j, k and each of its nonzero terms
    involves a stored bracket, so the full check runs over the stored
    brackets, in both orders, against every k. The least failing
    (i, (j, k)), j <= k, is the first nonzero entry of
    ad(e_i)^T B + B ad(e_i) in row-major order. It runs on the integer
    image of the table and the integer image of the Gram, each with its
    own denominator: the condition is linear in each.
    """
    p = L.field.p
    n = L.dim
    gram, _ = integer_image(space.gram.data, p)
    # pb[i][j][r] = phi(e_r, [e_i, e_j]) for each stored pair, in both orders
    pb = [{} for _ in range(n)]
    _, right = L._integer_image()
    for j, cols in enumerate(right):
        for i, vec in cols.items():
            nz = [(m, c) for m, c in enumerate(vec) if c]
            pb[i][j] = [sum([row[m] * c for m, c in nz]) for row in gram]
    zero = [0] * n
    fails = [
        (i, (min(j, k), max(j, k)))
        for i, row in enumerate(pb)
        for j, g in row.items()
        for k in range(n)
        if nonzero(g[k] + row.get(k, zero)[j], p)
    ]
    return (False, min(fails)) if fails else (True, None)


def is_homomorphism(L1, L2, M):
    """[M e_i, M e_j] = M [e_i, e_j] on every basis pair i < j of L1.

    (True, None), or (False, (i, j)) for the first failing pair. Runs on
    ints: with M' = D M (D the common denominator of M, 1 over F_p) and
    the integer images d1 T1, d2 T2 of the two tables, the condition is
    d1 [M' e_i, M' e_j]_{d2 T2} = D d2 M' (d1 T1)(e_i, e_j). The left side
    is quadratic in M and the right side linear, so the factors d1 and
    D d2 bring both to the one scale D^2 d1 d2. Over F_p the two sides
    are compared mod p.
    """
    p = L1.field.p
    d1, right1 = L1._integer_image()
    d2, right2 = L2._integer_image()
    rows, D = integer_image(M.data, p)
    images = [list(col) for col in zip(*rows)]  # M' e_j
    acts = [_right_action(right2, u) for u in images]  # d2 [x, M' e_j] from x
    s = D * d2
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            lhs = _apply(images[i], acts[j], L2.dim)
            t = right1[j].get(i)  # d1 [e_i, e_j]
            if t is None:
                bad = any(nonzero(a, p) for a in lhs)
            else:
                nz = [(r, c) for r, c in enumerate(t) if c]
                rhs = [sum([row[r] * c for r, c in nz]) for row in rows]
                bad = any(nonzero(d1 * a - s * b, p) for a, b in zip(lhs, rhs))
            if bad:
                return False, (i, j)
    return True, None


class QuadraticLieAlgebra:
    """A Lie algebra with a regular invariant symmetric form on its basis,
    checked where it enters: by the constructor, which from_json calls."""

    __slots__ = ("algebra", "space")

    def __init__(self, algebra, space):
        if space.dim != algebra.dim:
            raise ValidationError("form and algebra dimensions differ")
        if not space.regular:
            raise ValidationError("quadratic structure needs a regular form")
        ok, triple = jacobi_check(algebra)
        if not ok:
            raise ValidationError(f"Jacobi identity fails on basis triple {triple}")
        ok, bad = invariance_check(algebra, space)
        if not ok:
            i, entry = bad
            raise ValidationError(
                f"form is not invariant: ad(e_{i}) fails at entry {entry}"
            )
        self.algebra = algebra
        self.space = space

    @classmethod
    def _wrap(cls, algebra, space):
        """Trusted constructor for a structure quadratic by construction."""
        Q = object.__new__(cls)
        Q.algebra, Q.space = algebra, space
        return Q

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def to_json(self):
        return {**self.space.to_json(), "algebra": self.algebra.to_json()}

    @classmethod
    def from_json(cls, doc, field=None):
        space = OrthogonalSpace.from_json(doc, field)
        return cls(LieAlgebra.from_json(space.field, doc["algebra"]), space)

    def __repr__(self):
        return f"QuadraticLieAlgebra(dim {self.dim} over {self.field.spec()})"


# ---------------------------------------------------------------------------
# subspace products and series


def bracket_span(L, U, W):
    """Echelonized span of all [u, w] for generators u of U, w of W.

    With U = W = L this is derived_algebra(L). Otherwise it runs on the
    integer image: the generators of U and of W are scaled to integers,
    which keeps the span, and the integer brackets (reduced mod p over F_p;
    over Q ints, which Subspace._wrap takes) are row-reduced once. When W
    is U, the pairs a < b span all: [u, u] = 0 and [w, u] = -[u, w].
    """
    if U.dim == W.dim == L.dim:
        return derived_algebra(L)
    F = L.field
    _, right = L._integer_image()
    us, _ = integer_image(U.basis, F.p)
    if W is U:
        vecs = []
        for b in range(1, len(us)):
            cols = _right_action(right, us[b])
            vecs.extend(_apply(u, cols, L.dim) for u in us[:b])
    else:
        ws, _ = integer_image(W.basis, F.p)
        acts = [_right_action(right, w) for w in ws]
        vecs = [_apply(u, cols, L.dim) for u in us for cols in acts]
    if F.p:
        vecs = [[a % F.p for a in v] for v in vecs]
    return Subspace._wrap(F, L.dim, vecs)


def derived_algebra(L):
    """L^2 = [L, L]: the span of the stored brackets."""
    return Subspace._wrap(L.field, L.dim, list(L.table.values()))


def _centralizer_mod(L, S):
    """{x : [x, e_j] in S for every j}, a kernel over the integer maps
    x -> d [x, e_j] (reduced mod p over F_p; over Q ints, which
    Matrix._wrap takes), which scaling by d keeps."""
    F = L.field
    n = L.dim
    _, right = L._integer_image()
    C = S.constraints() if S.dim else None  # S = 0 needs the maps themselves
    rows = []
    for cols in right:
        N = [[0] * n for _ in range(n)]  # x -> d [x, e_j]
        for i, vec in cols.items():
            for r, c in enumerate(vec):
                N[r][i] = c % F.p if F.p else c
        rows.extend((C * Matrix._wrap(F, N)).data if C else N)
    return kernel_basis(Matrix._wrap(F, rows))


def centre(L):
    return _centralizer_mod(L, Subspace.zero(L.field, L.dim))


def _stable_series(first, step):
    """[first, step(first), step(step(first)), ...] up to the term step fixes."""
    series = [first]
    while True:
        nxt = step(series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def lower_central_series(L):
    """[L, [L,L], [[L,L],L], ...] down to the stable term, listed once."""
    full = Subspace.full(L.field, L.dim)
    return _stable_series(full, lambda S: bracket_span(L, S, full))


def derived_series(L):
    full = Subspace.full(L.field, L.dim)
    return _stable_series(full, lambda S: bracket_span(L, S, S))


def upper_central_series(L):
    """[Z_1, Z_2, ...] ascending, stopping at the stable term."""
    return _stable_series(centre(L), lambda S: _centralizer_mod(L, S))


def is_nilpotent(L):
    return lower_central_series(L)[-1].dim == 0


def nilpotency_index(L):
    """Largest k with L^k != 0; raises on non-nilpotent input."""
    series = lower_central_series(L)
    if series[-1].dim != 0:
        raise ValidationError("algebra is not nilpotent")
    return len(series) - 1


def is_solvable(L):
    return derived_series(L)[-1].dim == 0


# ---------------------------------------------------------------------------
# invariant symmetric forms


def invariant_forms_basis(L):
    """Basis of symmetric S with S([x,y],z) + S(y,[x,z]) = 0, echelonized.

    Unknowns are the upper-triangle entries of S; one linear equation per
    basis triple (i, j, k), with integer coefficients read off the integer
    image: each equation is d times its field form (reduced mod p over
    F_p), so the kernel is the same. The returned matrices are the
    canonical kernel basis unpacked back into full symmetric form.
    """
    F = L.field
    n = L.dim
    if n == 0:
        return []
    pos = {}
    for p in range(n):
        for q in range(p, n):
            pos[(p, q)] = len(pos)
    unknowns = len(pos)

    def slot(p, q):
        return pos[(p, q)] if p <= q else pos[(q, p)]

    # the condition for (i, j, k) is symmetric in j, k: each stored
    # [e_i, e_j] = v (either order) adds S(v, e_k) to the equation of
    # (i, min(j, k), max(j, k)); at k = j its two equal terms are halved
    _, right = L._integer_image()
    eqs = {}
    for j, cols in enumerate(right):
        for i, v in cols.items():
            for k in range(n):
                row = eqs.setdefault((i, min(j, k), max(j, k)), [0] * unknowns)
                for m, c in enumerate(v):
                    if c:
                        row[slot(m, k)] += c
    # in (i, j, k) order: the kernel does not depend on it, the cost over Q
    # does; ints over Q, which Matrix._wrap takes
    rows = [[c % F.p for c in row] if F.p else row for _, row in sorted(eqs.items())]
    rows = [row for row in rows if any(row)]
    if not rows:
        sols = Subspace.full(F, unknowns)
    else:
        sols = kernel_basis(Matrix._wrap(F, rows))
    out = []
    for v in sols.basis:
        S = Matrix.zeros(F, n, n)
        for (p, q), idx in pos.items():
            S.data[p][q] = v[idx]
            S.data[q][p] = v[idx]
        out.append(S)
    return out


def quadratic_dimension(L):
    return len(invariant_forms_basis(L))


def form_in_span(forms, S):
    """Coordinates of the symmetric matrix S in the given list, or None."""
    if not forms:
        return None
    F = S.field
    n = S.nrows
    cols = [[M.data[p][q] for p in range(n) for q in range(p, n)] for M in forms]
    target = [S.data[p][q] for p in range(n) for q in range(p, n)]
    A = Matrix.from_cols(F, cols)
    return A.solve(target)


def dq_lower_bound_check(Q):
    """(holds, d_q, bound) with bound = 1 + r(r+1)/2, r = dim of the centre.

    With a regular invariant form the centre is (L^2)-perp, so r is also
    the codimension of L^2. Abelian input is rejected: there the bound
    fails already at dimension 2 and the counting argument behind it
    needs brackets to separate the constructed forms.
    """
    L = Q.algebra
    L2 = derived_algebra(L)
    if L2.dim == 0:
        raise ValidationError("lower bound check applies to non-abelian algebras")
    r = L.dim - L2.dim
    dq = quadratic_dimension(L)
    bound = 1 + r * (r + 1) // 2
    return dq >= bound, dq, bound


# ---------------------------------------------------------------------------
# recognizers


def is_reduced(Q):
    """Z(L) contained in L^2; accepts a quadratic or a bare algebra."""
    L = Q.algebra if isinstance(Q, QuadraticLieAlgebra) else Q
    L2 = derived_algebra(L)
    return centre(L).is_subspace_of(L2)


def is_heisenberg(L):
    """(True, basis) when L^2 = Z(L) is a line; basis is (v_*, w_*, z).

    The returned vectors satisfy [v_i, w_j] = delta_ij z with all other
    pair brackets zero, found by symplectic elimination of the induced
    alternating form on L / Z(L) and verified exactly before returning.
    """
    F = L.field
    n = L.dim
    L2 = derived_algebra(L)
    Z = centre(L)
    if L2.dim != 1 or Z.dim != 1 or L2 != Z:
        return False, None
    z = L2.basis[0]

    def omega(x, y):
        coords = L2.coords_of(L.bracket(x, y))
        if coords is None:
            raise ValidationError("bracket escapes the derived line")
        return coords[0]

    # complement of the line: unit vectors away from its pivot
    pivot = next(i for i, c in enumerate(z) if c)
    rest = []
    for i in range(n):
        if i != pivot:
            rest.append(L.basis_vector(i))
    pairs = []
    while rest:
        a = rest.pop(0)
        hit = next((idx for idx, b in enumerate(rest) if omega(a, b)), None)
        if hit is None:
            # a is central modulo the line, impossible when Z is the line
            return False, None
        b = rest.pop(hit)
        d = omega(a, b)
        b = [F.div(c, d) for c in b]
        cleaned = []
        for c in rest:
            ca, cb = omega(c, a), omega(c, b)
            vec = list(c)
            for r in range(n):
                vec[r] = F.add(vec[r], F.sub(F.mul(ca, b[r]), F.mul(cb, a[r])))
            cleaned.append(vec)
        rest = cleaned
        pairs.append((a, b))
    vs = [p[0] for p in pairs]
    ws = [p[1] for p in pairs]
    zero = [F.zero] * n
    for i, v in enumerate(vs):
        for j, w in enumerate(ws):
            expect = z if i == j else zero
            if L.bracket(v, w) != expect:
                raise ValidationError("symplectic basis certificate failed")
            if i < j and (any(L.bracket(vs[i], vs[j])) or any(L.bracket(ws[i], ws[j]))):
                raise ValidationError("symplectic basis certificate failed")
    return True, (vs, ws, z)


def series_duality_check(Q, max_k=1):
    """Exact check of (L^{k+1})-perp = Z_k(L) for k = 1..max_k.

    Both series are stable past their last listed term, so indices clamp.
    k = 1 is the classical statement for any quadratic algebra; larger k
    is meaningful for the double-extension class and is requested by its
    verifier. Returns the list of verified k values; raises on failure.
    """
    L = Q.algebra
    lower = lower_central_series(L)
    upper = upper_central_series(L)
    checked = []
    for k in range(1, max_k + 1):
        Lk1 = lower[min(k, len(lower) - 1)]
        Zk = upper[min(k - 1, len(upper) - 1)]
        if ortho_complement(Q.space, Lk1) != Zk:
            raise ValidationError(f"series duality fails at k = {k}")
        checked.append(k)
    return checked
