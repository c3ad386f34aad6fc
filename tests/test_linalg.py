import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadlie import _fast
from quadlie.errors import ValidationError
from quadlie import linalg
from quadlie.exact_field import Field, Polynomial, poly_lcm
from quadlie.linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    minimal_polynomial,
    poly_at_matrix,
    primary_component,
)

Q = Field.parse("Q")
F3 = Field.parse("Fp:3")
F5 = Field.parse("Fp:5")
F7 = Field.parse("Fp:7")
F_BIG = Field.parse("Fp:2305843009213693951")  # 2^61 - 1


def jordan(field, n, lam=0):
    A = Matrix.zeros(field, n, n)
    lam = field.of(lam)
    for i in range(n):
        A.data[i][i] = lam
        if i + 1 < n:
            A.data[i][i + 1] = field.one
    return A


def random_matrix(field, rng, n, m=None):
    m = n if m is None else m
    return Matrix(field, [[field.random(rng) for _ in range(m)] for _ in range(n)])


def random_invertible(field, rng, n):
    while True:
        A = random_matrix(field, rng, n)
        if A.det() != field.zero:
            return A


# ------------------------------------------------------------------ matrix

def test_constructor_coerces_and_validates():
    A = Matrix(Q, [[1, "1/2"], [0, 3]])
    assert A.data[0][1] == Fraction(1, 2)
    with pytest.raises(ValidationError):
        Matrix(Q, [[1, 2], [3]])


def test_mul_inverse_det():
    A = Matrix(Q, [[2, 1], [1, 1]])
    assert A.det() == 1
    Ainv = A.inverse()
    assert A * Ainv == Matrix.identity(Q, 2)


def test_singular_inverse_raises():
    A = Matrix(Q, [[1, 2], [2, 4]])
    with pytest.raises(ValidationError):
        A.inverse()


def test_rref_canonical_and_idempotent():
    A = Matrix(Q, [[0, 2, 4], [1, 1, 1]])
    R, pivots, rank = A.rref()
    assert rank == 2 and pivots == (0, 1)
    assert R == Matrix(Q, [[1, 0, -1], [0, 1, 2]])
    R2, _, _ = R.rref()
    assert R2 == R


def _cofactor_det(field, rows):
    if not rows:
        return field.one
    det = field.zero
    for j, c in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = field.mul(c, _cofactor_det(field, minor))
        det = field.add(det, term) if j % 2 == 0 else field.sub(det, term)
    return det


@given(st.integers(0, 10**6), st.sampled_from([Q, F5, F_BIG]))
@settings(max_examples=40)
def test_rref_rank_matches_det(seed, field):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    A = random_matrix(field, rng, n)
    B = random_matrix(field, rng, n)
    _, _, rank = A.rref()
    assert (rank == n) == (A.det() != 0)
    assert (A * B).det() == field.mul(A.det(), B.det())
    if n <= 4:
        assert A.det() == _cofactor_det(field, A.data)
    if rank == n:
        assert A * A.inverse() == Matrix.identity(field, n)


def _canonical(field, entries):
    if field.is_rational:
        return all(type(c) is Fraction for c in entries)
    return all(type(c) is int and 0 <= c < field.p for c in entries)


@pytest.mark.parametrize("field", [Q, F5])
def test_results_stay_canonical(field):
    # results are built without coercion, so they must come out canonical
    A = Matrix(field, [[2, "-1/2"], [1, 3]])
    B = Matrix(field, [[-4, 0], [7, -1]])
    results = [
        Matrix.zeros(field, 2, 3),
        Matrix.identity(field, 2),
        A.copy(),
        A.transpose(),
        A + B,
        A - B,
        -A,
        A.scale(-3),
        A * B,
        A.rref()[0],
        Matrix(field, [[1, 2, 3], [-2, -4, 5]]).rref()[0],
        A.inverse(),
        Matrix(field, [[0, 0], [1, 2]]) * B,
    ]
    for M in results:
        assert _canonical(field, [c for row in M.data for c in row]), M
    assert _canonical(field, A.solve([1, -2]))
    assert _canonical(field, [A.det(), Matrix.zeros(field, 2).det()])


def test_fp_matmul_shape_error():
    with pytest.raises(ValueError):
        _fast.fp_matmul([[1, 2]], 1, 2, [[1], [2], [3]], 3, 1, 5)


def _gauss_jordan(rows, ncols):
    """Reference for fp_rref over Q: Gauss-Jordan on Fractions."""
    m = [list(row) for row in rows]
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            det = -det
        piv = m[r][c]
        det *= piv
        m[r] = [a / piv for a in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if f and i != r:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, r, det


def _triple_loop_product(a, b, m):
    """Reference for fp_matmul over Q."""
    return [
        [sum((arow[j] * b[j][c] for j in range(len(b))), Fraction(0)) for c in range(m)]
        for arow in a
    ]


_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60)),
)


@st.composite
def _rational_matrices(draw, n, m):
    """n x m, with zero, repeated and proportional rows; the tests draw
    wide, tall, empty and 0-column shapes."""
    base = draw(st.lists(st.lists(_rationals, min_size=m, max_size=m), min_size=1, max_size=4))
    rows = []
    for _ in range(n):
        row = draw(st.sampled_from(base + [[Fraction(0)] * m]))
        scale = draw(st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(59, 2)]))
        rows.append([scale * c for c in row])
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 7), st.data())
def test_rational_rref_matches_gauss_jordan(nrows, ncols, data):
    rows = data.draw(_rational_matrices(nrows, ncols))
    before = [list(row) for row in rows]
    got = _fast.fp_rref(rows, ncols, 0)
    assert rows == before
    assert got == _gauss_jordan(before, ncols)
    assert all(type(c) is Fraction for row in got[0] for c in row)
    assert type(got[3]) is Fraction


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_rational_matmul_matches_triple_loop(n, k, m, data):
    a = data.draw(_rational_matrices(n, k))
    b = data.draw(_rational_matrices(k, m))
    before = ([list(row) for row in a], [list(row) for row in b])
    got = _fast.fp_matmul(a, n, k, b, k, m, 0)
    assert (a, b) == before
    assert got == _triple_loop_product(a, b, m)
    assert all(type(c) is Fraction for row in got for c in row)


def test_solve_columns():
    A = Matrix(Q, [[1, 2], [3, 4]])
    b = [Q.of(5), Q.of(11)]
    x = A.solve(b)
    assert A.matvec(x) == b
    assert Matrix(Q, [[1, 1], [1, 1]]).solve([Q.zero, Q.one]) is None


def test_block_diagonal_and_from_cols():
    A = Matrix.block_diagonal(Q, [Matrix(Q, [[1]]), Matrix(Q, [[2, 0], [0, 3]])])
    assert A.nrows == 3 and A.data[1][1] == 2 and A.data[0][1] == 0
    B = Matrix.from_cols(Q, [[1, 0], [7, 1]])
    assert B.col(1) == [Q.of(7), Q.one]


# ---------------------------------------------------------------- kernels

def test_kernel_oracle_jordan():
    K = kernel_basis(jordan(Q, 3))
    assert K.dim == 1
    assert K.basis[0] == [Q.one, Q.zero, Q.zero]


def test_kernel_is_canonical_under_row_scaling():
    A = Matrix(Q, [[1, 2, 3]])
    B = Matrix(Q, [[2, 4, 6]])
    assert kernel_basis(A).basis == kernel_basis(B).basis


# --------------------------------------------------------------- subspaces

def test_subspace_reduction_membership():
    S = Subspace(Q, 3, [[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    assert S.dim == 2
    assert S.contains([Q.of(3), Q.of(3), Q.of(-1)])
    assert not S.contains([Q.one, Q.zero, Q.zero])


def test_subspace_coords_roundtrip():
    rng = random.Random(3)
    S = Subspace(F5, 4, [[1, 0, 2, 0], [0, 1, 0, 3]])
    for _ in range(10):
        c = [F5.random(rng) for _ in range(S.dim)]
        v = [sum(c[k] * S.basis[k][j] for k in range(S.dim)) % 5 for j in range(4)]
        assert S.coords_of(v) == c


def test_subspace_intersect_sum():
    U = Subspace(Q, 3, [[1, 0, 0], [0, 1, 0]])
    W = Subspace(Q, 3, [[0, 1, 0], [0, 0, 1]])
    assert U.intersect(W).dim == 1
    assert U.sum_with(W).dim == 3
    assert U.intersect(W).basis[0] == [Q.zero, Q.one, Q.zero]


# ------------------------------------------------------- minimal polynomial

def test_minpoly_oracles():
    x = Polynomial.x(Q)
    assert minimal_polynomial(jordan(Q, 3)) == x * x * x
    A = Matrix.block_diagonal(Q, [jordan(Q, 2, 1), jordan(Q, 2, 1)])
    one = Polynomial.one(Q)
    assert minimal_polynomial(A) == (x - one) * (x - one)
    assert minimal_polynomial(Matrix.identity(F5, 4)) == Polynomial(F5, [4, 1])


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_minpoly_annihilates_and_is_minimal(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    A = random_matrix(F5, rng, n)
    m = minimal_polynomial(A)
    assert m.is_monic and m.degree <= n
    assert poly_at_matrix(m, A).is_zero()
    if m.degree > 0:
        trunc = Polynomial(F5, m.coeffs[:-1])
        if not trunc.is_zero:
            assert not poly_at_matrix(trunc, A).is_zero()


def test_primary_component_splits_dimensions():
    A = Matrix.block_diagonal(Q, [jordan(Q, 2, 0), jordan(Q, 3, 1)])
    x = Polynomial.x(Q)
    U0 = primary_component(A, x, 2)
    U1 = primary_component(A, x - Polynomial.one(Q), 3)
    assert U0.dim == 2 and U1.dim == 3
    assert U0.intersect(U1).dim == 0


@pytest.mark.parametrize("field", [Q, F3])
def test_primary_component_of_a_quadratic_factor_squared(field):
    # companion block of (x^2 + 1)^2 = x^4 + 2x^2 + 1 beside the eigenvalue 2,
    # conjugated; x^2 + 1 is irreducible over Q and over F3
    C = Matrix(field, [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -2], [0, 0, 1, 0]])
    D = Matrix.block_diagonal(field, [C, Matrix(field, [[2]])])
    P = Matrix(field, [[1 if j >= i else 0 for j in range(5)] for i in range(5)])
    A = P.inverse() * D * P
    pi = Polynomial(field, [1, 0, 1])
    piA = A * A + Matrix.identity(field, 5)
    U = primary_component(A, pi, 2)
    assert U.dim == 4
    assert U == kernel_basis(piA * piA)


# ------------------------------------------------------------- invariants

@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_minpoly_similarity_invariant(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    A = random_matrix(F5, rng, n)
    P = random_invertible(F5, rng, n)
    assert minimal_polynomial(P.inverse() * A * P) == minimal_polynomial(A)


# ------------------------------------------- oracles for the one-elimination paths

def krylov_lcm_minpoly(A):
    """The minimal polynomial the slow way: for each unit vector, a fresh
    solve of the Krylov matrix at every step, merged by poly_lcm."""
    F = A.field
    n = A.nrows
    m = Polynomial.one(F)
    for i in range(n):
        krylov = [[F.one if j == i else F.zero for j in range(n)]]
        while True:
            w = A.matvec(krylov[-1])
            sol = Matrix._wrap(F, [list(row) for row in zip(*krylov)]).solve(w)
            if sol is not None:
                ann = Polynomial._wrap(F, [F.neg(c) for c in sol] + [F.one])
                m = poly_lcm(m, ann)
                break
            krylov.append(w)
    return m


def _structured_matrix(field, rng, n, kind):
    """An n x n matrix with the minimal polynomial shapes that stress the
    annihilator: nilpotent, repeated eigenvalues, repeated factors."""
    if kind == "random" or n == 0:
        return random_matrix(field, rng, n)
    if kind == "nilpotent":
        A = Matrix._wrap(field, [[field.random(rng) if j > i else field.zero for j in range(n)]
                                 for i in range(n)])
    else:
        blocks = []
        left = n
        while left:
            size = rng.randint(1, left)
            if kind == "jordan":
                # eigenvalues from {0, 1}: repeated eigenvalues, often in several blocks
                blocks.append(jordan(field, size, rng.randint(0, 1)))
            else:
                # companion matrices of one polynomial, repeated: repeated factors
                c = [field.random(rng) for _ in range(size)]
                blocks.append(Matrix._wrap(field, [
                    [field.one if j + 1 == i else field.zero for j in range(size - 1)]
                    + [field.neg(c[i])] for i in range(size)]))
                if size <= left - size:
                    blocks.append(blocks[-1])
                    left -= size
            left -= size
        A = Matrix.block_diagonal(field, blocks)
    P = random_invertible(field, rng, n)
    return P.inverse() * A * P


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([Q, F3, F5, F7, F_BIG]),
    st.integers(0, 6),
    st.sampled_from(["random", "nilpotent", "jordan", "companion"]),
    st.integers(0, 10**6),
)
def test_minpoly_matches_krylov_solve_lcm(field, n, kind, seed):
    A = _structured_matrix(field, random.Random(seed), n, kind)
    assert minimal_polynomial(A) == krylov_lcm_minpoly(A)


def stacked_meet(S, C):
    """{v in S : C v = 0} as the kernel of S's constraints stacked on C."""
    return kernel_basis(Matrix._wrap(S.field, S.constraints().data + C.data))


def _random_subspace(field, rng, n):
    k = rng.randint(0, n + 1)
    vecs = [[field.random(rng) for _ in range(n)] for _ in range(k)]
    if vecs and rng.random() < 0.3:
        vecs.append(list(vecs[0]))  # a dependent generator
    return Subspace._wrap(field, n, vecs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Q, F3, F5, F_BIG]), st.integers(1, 6), st.integers(0, 10**6))
def test_meet_kernel_and_intersect_match_the_constraint_stack(field, n, seed):
    rng = random.Random(seed)
    S = _random_subspace(field, rng, n)
    C = random_matrix(field, rng, rng.randint(1, n + 1), n)
    if rng.random() < 0.3:
        C = Matrix.zeros(field, 1, n)
    got = S.meet_kernel(C)
    assert got == stacked_meet(S, C)
    assert got.basis == Subspace._wrap(field, n, got.basis).basis  # already echelon
    W = _random_subspace(field, rng, n)
    assert S.intersect(W) == stacked_meet(S, W.constraints())
    assert S.intersect(W) == W.intersect(S)


def test_meet_kernel_of_the_zero_and_full_spaces():
    C = Matrix(F5, [[1, 2, 0]])
    assert Subspace.zero(F5, 3).meet_kernel(C).dim == 0
    assert Subspace.full(F5, 3).meet_kernel(C) == kernel_basis(C)


def test_invariance_certificate_fires_on_a_tampered_kernel(monkeypatch):
    A = jordan(Q, 2, 0)  # A e_1 = e_0, A e_0 = 0
    x = Polynomial.x(Q)
    assert primary_component(A, x, 2).dim == 2
    # a kernel routine that drops e_0 leaves span{e_1}, which A moves
    monkeypatch.setattr(linalg, "kernel_basis", lambda M: Subspace(Q, 2, [[0, 1]]))
    with pytest.raises(ValidationError, match="primary component is not invariant"):
        primary_component(A, x, 2)


@pytest.mark.parametrize("field", [Q, F5])
def test_poly_at_matrix_zero_constant_and_non_monic(field):
    A = Matrix(field, [[1, 2], [3, 4]])
    assert poly_at_matrix(Polynomial.zero(field), A) == Matrix.zeros(field, 2, 2)
    assert poly_at_matrix(Polynomial(field, [3]), A) == Matrix.diagonal(field, [3, 3])
    assert poly_at_matrix(Polynomial(field, [3]), Matrix.zeros(field, 0, 0)).nrows == 0
    # 2 x^2 + 1: leading coefficient other than one
    p = Polynomial(field, [1, 0, 2])
    assert poly_at_matrix(p, A) == (A * A).scale(2) + Matrix.identity(field, 2)
    # the result is fresh: mutating it leaves A alone
    before = A.copy()
    poly_at_matrix(Polynomial.x(field), A).data[0][0] = field.zero
    assert A == before
