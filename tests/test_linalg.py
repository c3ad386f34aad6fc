import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

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


def test_shape_errors():
    A = Matrix(Q, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError, match="inner dimensions differ"):
        A * A
    with pytest.raises(TypeError, match="matrix multiplication needs a Matrix"):
        A * 2
    with pytest.raises(ValidationError, match="vector length mismatch"):
        A.matvec([Q.one, Q.one])
    with pytest.raises(ValidationError, match="inverse of a non-square matrix"):
        A.inverse()
    with pytest.raises(ValidationError, match="determinant of a non-square matrix"):
        A.det()
    with pytest.raises(ValidationError, match="minimal polynomial of a non-square matrix"):
        minimal_polynomial(A)
    with pytest.raises(ValueError, match="the matrix is not square"):
        _fast.fp_minpoly([[1, 2, 3], [4, 5, 6]], 7)
    # x - 1 does not divide the minimal polynomial x^2 of a nilpotent J_2
    x = Polynomial.x(Q)
    with pytest.raises(ValidationError, match="factor does not divide the minimal polynomial"):
        primary_component(jordan(Q, 2), x - Polynomial.one(Q), 1)


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

# small entries mixed with huge, pairwise coprime denominators, so that a
# row's common denominator is a product of several of them
_mixed_rationals = st.one_of(
    _rationals,
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from([10**40 + 1, 3**80, 2**127 - 1, 7**50 * 11]),
    ),
)


@st.composite
def _rational_matrices(draw, n, m, entries=_rationals):
    """n x m, with zero, repeated and proportional rows; the tests draw
    wide, tall, empty and 0-column shapes."""
    base = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=4))
    rows = []
    for _ in range(n):
        row = draw(st.sampled_from(base + [[Fraction(0)] * m]))
        scale = draw(st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(59, 2)]))
        rows.append([scale * c for c in row])
    return rows


@st.composite
def _rational_vectors(draw):
    """0-4 vectors of one length 0-5: zero vectors, and entries with small
    and huge pairwise coprime denominators."""
    k = draw(st.integers(0, 5))
    vec = st.one_of(
        st.just([Fraction(0)] * k),
        st.lists(_mixed_rationals, min_size=k, max_size=k),
    )
    return draw(st.lists(vec, max_size=4))


@settings(max_examples=200, deadline=None)
@given(_rational_vectors())
def test_integer_image_round_trips_over_q(vecs):
    before = [list(v) for v in vecs]
    ints, d = _fast.integer_image(vecs, 0)
    assert vecs == before
    assert type(d) is int and d >= 1
    assert all(type(a) is int for v in ints for a in v)
    # d is the least common denominator: a larger one leaves a factor
    # common to d and every numerator
    assert gcd(d, *[a for v in ints for a in v]) == 1
    back = [_fast.field_image(v, d, 0) for v in ints]
    assert back == before
    assert all(type(c) is Fraction for v in back for c in v)


def _fraction_parts(xs):
    return [(type(x), x.numerator, x.denominator, hash(x)) for x in xs]


@settings(max_examples=200, deadline=None)
@given(_rational_vectors(), st.data())
def test_image_helpers_make_what_the_fraction_constructor_makes(vecs, data):
    # Matrix._wrap also carries int entries over Q, alone or mixed in
    ints_too = data.draw(st.sampled_from(["none", "some", "all"]))
    vecs = [
        [c.numerator if c.denominator == 1 and ints_too != "none"
         and (ints_too == "all" or data.draw(st.booleans())) else c for c in v]
        for v in vecs
    ]
    ints, d = _fast.integer_image(vecs, 0)
    assert type(d) is int and d >= 1
    assert gcd(d, *[a for v in ints for a in v]) == 1
    for v, row in zip(vecs, ints):
        want = _fraction_parts(Fraction(a, d) for a in row)
        assert _fraction_parts(_fast.field_image(row, d, 0)) == want
        # fp_rref divides by pivots of either sign
        assert _fraction_parts(_fast.field_image([-a for a in row], -d, 0)) == want
        assert _fast.field_image(row, d, 0) == v
    # any ints over any nonzero d, huge ones included
    big = st.integers(-(10**40), 10**40)
    row = data.draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9), big), max_size=6))
    d = data.draw(st.one_of(st.integers(1, 9), big, st.sampled_from([2**127 - 1, -(3**80)])))
    assume(d != 0)
    got = _fast.field_image(row, d, 0)
    assert _fraction_parts(got) == _fraction_parts(Fraction(a, d) for a in row)


@pytest.mark.parametrize("a", [0, 1, -1, 10 ** 3999, -(10 ** 3999) - 7])
def test_int_fraction_is_what_the_fraction_constructor_makes(a):
    # Field.of reads every integer scalar over Q through int_fraction
    want = Fraction(a)
    for got in (_fast.int_fraction(a), Field.parse("Q").of(a)):
        assert type(got) is Fraction and got == want and hash(got) == hash(want)
        assert (got._numerator, got._denominator) == (want._numerator, want._denominator)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.data())
def test_leading_minors_are_the_leading_determinants(n, data):
    # repeated and proportional rows end the list early; random ones rarely
    full = st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    rows = data.draw(st.one_of(_rational_matrices(n, n), full))
    before = [list(row) for row in rows]
    ints, d = _fast.integer_image(rows, 0)
    want = []
    for k in range(1, n + 1):
        minor = _cofactor_det(Q, [row[:k] for row in ints[:k]])
        if not minor:
            break
        want.append(minor)
    assert _fast.leading_minors(rows) == want
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 2**61 - 1]), st.integers(0, 4), st.integers(0, 5), st.data())
def test_integer_image_is_the_identity_over_fp(p, n, k, data):
    vecs = data.draw(_fp_rows(p, n, k))
    ints, d = _fast.integer_image(vecs, p)
    assert ints is vecs and d == 1
    assert [_fast.field_image(v, d, p) for v in ints] == vecs
    # any int comes back reduced, as the signed sums of liecore need
    wide = data.draw(st.lists(st.integers(-3 * p, 3 * p), max_size=5))
    assert _fast.field_image(wide, 1, p) == [a % p for a in wide]
    assert [bool(_fast.nonzero(a, p)) for a in wide] == [a % p != 0 for a in wide]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 7), st.data())
def test_rational_rref_matches_gauss_jordan(nrows, ncols, data):
    rows = data.draw(_rational_matrices(nrows, ncols))
    before = [list(row) for row in rows]
    got = _fast.fp_rref(rows, ncols, 0)
    rank, det = _fast.fp_rank(rows, ncols, 0)
    assert rows == before
    want = _gauss_jordan(before, ncols)
    assert got == want[:3] and rank == want[2]
    assert all(type(c) is Fraction for row in got[0] for c in row)
    if nrows == ncols:
        # the swap-signed pivot product is the determinant at full rank
        assert type(det) is Fraction
        assert det == (want[3] if rank == nrows else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_rational_matmul_matches_triple_loop(n, k, m, data):
    entries = data.draw(st.sampled_from([_rationals, _mixed_rationals]))
    a = data.draw(_rational_matrices(n, k, entries))
    b = data.draw(_rational_matrices(k, m, entries))
    before = ([list(row) for row in a], [list(row) for row in b])
    got = _fast.fp_matmul(a, n, k, b, k, m, 0)
    assert (a, b) == before
    assert got == _triple_loop_product(a, b, m)
    assert all(type(c) is Fraction for row in got for c in row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.data())
def test_rational_matvec_matches_matmul_on_a_column(n, k, data):
    entries = data.draw(st.sampled_from([_rationals, _mixed_rationals]))
    a = data.draw(_rational_matrices(n, k, entries))
    (v,) = data.draw(_rational_matrices(1, k, entries))
    if data.draw(st.booleans()):
        v = [Fraction(0)] * k
    before = ([list(row) for row in a], list(v))
    got = Matrix._wrap(Q, a).matvec(v)
    assert (a, v) == before
    assert got == [sum((x * c for x, c in zip(row, v)), Fraction(0)) for row in a]
    assert got == [row[0] for row in _fast.fp_matmul(a, n, k, [[c] for c in v], k, 1, 0)]
    assert all(type(c) is Fraction for c in got)


def _field_matvec(F, rows, v):
    """Reference for one Krylov step: A v entry by entry in field arithmetic."""
    out = []
    for row in rows:
        acc = F.zero
        for x, c in zip(row, v):
            acc = F.add(acc, F.mul(x, c))
        out.append(acc)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 5, 2**61 - 1]), st.integers(0, 5), st.integers(0, 5), st.data())
def test_fp_matvec_is_the_first_krylov_step(p, n, k, data):
    F = Field(p)
    if p:
        rows = data.draw(_fp_rows(p, n, k))
        (v,) = data.draw(_fp_rows(p, 1, k))  # zero, half-zero, dense or mixed
    else:
        entries = data.draw(st.sampled_from([_rationals, _mixed_rationals]))
        rows = data.draw(_rational_matrices(n, k, entries))
        (v,) = data.draw(_rational_matrices(1, k, entries))
        sparse = [c if j % 2 else Fraction(0) for j, c in enumerate(v)]
        v = data.draw(st.sampled_from([v, sparse, [Fraction(0)] * k]))
    before = ([list(row) for row in rows], list(v))
    got = _fast.fp_matvec(rows, v, p)
    assert (rows, v) == before
    assert got == _field_matvec(F, rows, v)
    assert got == _fast.fp_krylov(rows, v, 1, p)[1]
    assert all(type(c) is type(F.zero) for c in got)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 5, 2**61 - 1]), st.integers(0, 5), st.data())
def test_krylov_matches_repeated_matvecs(p, n, data):
    F = Field(p)
    if p:
        A = data.draw(_fp_rows(p, n, n))
        (v,) = data.draw(_fp_rows(p, 1, n))
    else:
        entries = data.draw(st.sampled_from([_rationals, _mixed_rationals]))
        A = data.draw(_rational_matrices(n, n, entries))
        (v,) = data.draw(_rational_matrices(1, n, entries))
    if data.draw(st.booleans()):
        v = [F.zero] * n
    before = ([list(row) for row in A], list(v))
    M = Matrix._wrap(F, A)
    for k in range(n + 1):
        chain = linalg.krylov(M, v, k)
        assert (A, v) == before
        want = [v]
        for _ in range(k):
            want.append(_field_matvec(F, A, want[-1]))
        assert chain == want
        assert all(type(c) is type(F.zero) for w in chain for c in w)
    with pytest.raises(ValidationError, match="vector length mismatch"):
        linalg.krylov(M, v + [F.one], 1)
    if n:
        with pytest.raises(ValidationError, match="vector length mismatch"):
            linalg.krylov(M, v[1:], 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 5, 2**61 - 1]), st.integers(0, 5), st.integers(0, 5), st.data())
def test_rank_and_det_match_rref(p, n, m, data):
    F = Field(p)
    if p:
        rows = data.draw(_fp_rows(p, n, m))
    else:
        rows = data.draw(_rational_matrices(n, m, data.draw(
            st.sampled_from([_rationals, _mixed_rationals]))))
    before = [list(row) for row in rows]
    M = Matrix._wrap(F, rows)
    _, pivots, rank = _fast.fp_rref(rows, M.ncols, p)
    assert M.rank() == rank == M.rref()[2] == _fast.fp_rank(rows, M.ncols, p)[0]
    if M.is_square:
        det = _fast.fp_rank(rows, M.ncols, p)[1]
        assert M.det() == det
        assert (det == F.zero) == (rank < n)
        assert type(M.det()) is type(F.zero)
    assert rows == before


def test_rank_and_det_of_empty_zero_and_deficient_matrices():
    for F in (Q, F5):
        empty = Matrix._wrap(F, [])
        assert (empty.rank(), empty.det()) == (0, F.one)
        zero = Matrix.zeros(F, 3, 2)
        assert zero.rank() == 0
        assert Matrix.zeros(F, 3, 3).det() == F.zero
        D = Matrix(F, [[1, 2, 3], [2, 4, 6], [0, 1, "1/2"]])
        rank, det = _fast.fp_rank(D.data, 3, F.p)
        assert D.rank() == rank == _fast.fp_rref(D.data, 3, F.p)[2] == 2
        assert D.det() == det == F.zero
        S = Matrix(F, [[0, 2], [3, 1]])
        assert (S.rank(), S.det()) == (2, F.of(-6))


_PRIMES = (3, 7, 2**61 - 1)


@st.composite
def _fp_rows(draw, p, n, k):
    """n rows of length k over F_p: all-zero, half-zero (k // 2 or k - k // 2
    zeros), full, or mixed."""
    entry = st.integers(0, p - 1)
    nonzero = st.integers(1, p - 1)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "half", "half+", "full", "mixed"]))
        if kind == "zero":
            row = [0] * k
        elif kind == "mixed":
            row = draw(st.lists(entry, min_size=k, max_size=k))
        else:
            zeros = {"half": k // 2, "half+": k - k // 2, "full": 0}[kind]
            row = [0] * zeros + draw(st.lists(nonzero, min_size=k - zeros, max_size=k - zeros))
            row = draw(st.permutations(row))
        rows.append(list(row))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PRIMES), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_fp_matmul_matches_triple_loop(p, n, k, m, data):
    a = data.draw(_fp_rows(p, n, k))
    b = data.draw(_fp_rows(p, k, m))
    before = ([list(row) for row in a], [list(row) for row in b])
    got = _fast.fp_matmul(a, n, k, b, k, m, p)
    assert (a, b) == before
    assert got == [
        [sum(a[i][j] * b[j][c] for j in range(k)) % p for c in range(m)]
        for i in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PRIMES), st.integers(1, 6), st.integers(0, 6), st.data())
def test_fp_matvec_matches_matmul_on_a_column(p, n, k, data):
    F = Field(p)
    a = data.draw(_fp_rows(p, n, k))
    (v,) = data.draw(_fp_rows(p, 1, k))  # sparse, half-zero and dense vectors
    got = Matrix._wrap(F, a).matvec(v)
    assert got == [row[0] for row in _fast.fp_matmul(a, n, k, [[c] for c in v], k, 1, p)]


# The three eliminations that _fast's one row reduction replaced, kept as
# oracles: Gauss-Jordan over F_p, fraction-free Gauss-Jordan over Q, and the
# incremental elimination of the powers in the minimal polynomial.


def _eliminate_fp(rows, ncols, p):
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            det = -det
        piv = m[r][c]
        det *= piv
        if piv != 1:
            inv = pow(piv, p - 2, p)
            m[r] = [a * inv % p for a in m[r]]
        prow = m[r]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        pivots.append(c)
        r += 1
    return m, pivots, r, det % p


def _eliminate_rational(rows, ncols):
    m = []
    num = []
    den = []
    for row in rows:
        (ints,), d = _fast.integer_image([row], 0)
        g = gcd(*ints)
        if g > 1:
            ints = [a // g for a in ints]
        m.append(ints)
        num.append(g)
        den.append(d)
    nrows = len(m)
    pivots = []
    det_num = det_den = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            num[r], num[i] = num[i], num[r]
            den[r], den[i] = den[i], den[r]
            det_num = -det_num
        prow = m[r]
        piv = prow[c]
        det_num *= piv * num[r]
        det_den *= den[r]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], prow)]
            k = gcd(*row)
            if k > 1:
                row = [x // k for x in row]
            m[i] = row
            num[i] *= k
            den[i] *= a
        pivots.append(c)
        r += 1
    return m, pivots, r, Fraction(det_num, det_den)


def _gauss_jordan_rref(rows, ncols, p):
    """(rows, pivots, rank, swap-signed pivot product), as fp_rref was."""
    if p:
        return _eliminate_fp(rows, ncols, p)
    m, pivots, r, det = _eliminate_rational(rows, ncols)
    out = [_fast.field_image(m[i], m[i][c], 0) for i, c in enumerate(pivots)]
    out.extend([Fraction(0)] * ncols for _ in range(r, len(m)))
    return out, pivots, r, det


def _incremental_minpoly(rows, p):
    n = len(rows)
    size = n * n
    ahat, D = _fast.integer_image(rows, p)
    cols = list(zip(*ahat))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced = []
    for d in range(n + 1):
        if d == 1:
            power = ahat
        elif d:
            power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in power]
            if p:
                power = [[a % p for a in row] for row in power]
        v = [a for row in power for a in row] + [0] * (n + 1)
        v[size + d] = 1
        for c, u in reduced:
            f = v[c]
            if not f:
                continue
            if p:
                v = [(a - f * b) % p for a, b in zip(v, u)]
            else:
                piv = u[c]
                g = gcd(piv, f)
                a, b = piv // g, f // g
                v = [a * x - b * y for x, y in zip(v, u)]
                k = gcd(*v)
                if k > 1:
                    v = [x // k for x in v]
        c = next((j for j in range(size) if v[j]), None)
        if c is None:
            tags = v[size : size + d + 1]
            if p:
                return tags
            return _fast.field_image([t * D**j for j, t in enumerate(tags)], tags[d] * D**d, 0)
        if p and v[c] != 1:
            inv = pow(v[c], p - 2, p)
            v = [a * inv % p for a in v]
        reduced.append((c, v))
    raise ValueError("n + 1 independent powers: the matrix is not square")


_ORACLE_FIELDS = (3, 7, 2**61 - 1, 0)


@st.composite
def _elimination_rows(draw, p, n, m):
    """n rows of length m over F_p, or over Q with int-only, Fraction, mixed
    or huge-denominator entries: independent rows, or rows drawn from a few
    base rows, the zero row and their multiples, so that zero, repeated
    and proportional rows are common."""
    if p:
        entry = st.integers(0, p - 1)
        scales = [1, 2, p - 1]
    else:
        small = st.integers(-9, 9)
        entry = draw(st.sampled_from(
            [small, _rationals, st.one_of(small, _rationals), _mixed_rationals]))
        scales = [1, -3, Fraction(-3, 7), Fraction(59, 2)]
    if draw(st.booleans()):
        if p:
            return draw(_fp_rows(p, n, m))
        return draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    base = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=4))
    base.append([0] * m)
    rows = []
    for _ in range(n):
        row = draw(st.sampled_from(base))
        s = draw(st.sampled_from(scales))
        rows.append([c * s % p if p else c * s for c in row] if s != 1 else list(row))
    return rows


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), st.integers(0, 6), st.integers(0, 6), st.data())
def test_one_elimination_matches_gauss_jordan_byte_for_byte(p, n, m, data):
    if data.draw(st.booleans(), label="square"):
        m = n
    rows = data.draw(_elimination_rows(p, n, m))
    before = repr(rows)
    want, want_pivots, want_rank, want_product = _gauss_jordan_rref(rows, m, p)
    got = _fast.fp_rref(rows, m, p)
    rank, det = _fast.fp_rank(rows, m, p)
    assert repr(rows) == before
    assert repr(got) == repr((want, want_pivots, want_rank))
    assert rank == want_rank
    if n == m:
        zero = 0 if p else Fraction(0)
        assert repr(det) == repr(want_product if rank == n else zero)
        assert repr(Matrix._wrap(Field(p), rows).det()) == repr(det)
    # no output row is an input row, so a caller may change either
    assert not {id(row) for row in got[0]} & {id(row) for row in rows}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), st.integers(0, 6), st.data())
def test_minpoly_matches_the_incremental_elimination_byte_for_byte(p, n, data):
    rows = data.draw(_elimination_rows(p, n, n))
    before = repr(rows)
    got = _fast.fp_minpoly(rows, p)
    assert repr(rows) == before
    assert repr(got) == repr(_incremental_minpoly(rows, p))


def test_add_and_sub_refuse_different_shapes():
    A = Matrix(F5, [[1, 2], [3, 4]])
    B = Matrix(F5, [[1, 2, 3]])
    for x, y in ((A, B), (B, A)):
        with pytest.raises(ValidationError, match="matrix shapes differ"):
            x + y
        with pytest.raises(ValidationError, match="matrix shapes differ"):
            x - y
    assert (A + A).data == [[2, 4], [1, 3]] and (A - A).is_zero()


def test_solve_refuses_a_right_hand_side_of_the_wrong_length():
    A = Matrix(F5, [[1, 2], [3, 4]])
    for rhs in ([1], [1, 2, 3]):
        with pytest.raises(ValidationError, match="right-hand side length mismatch"):
            A.solve(rhs)
    x = A.solve([1, 2])
    assert A.matvec(x) == [1, 2]


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


def _two_reduction_kernel_basis(A):
    """kernel_basis as it was, kept as an oracle: the kernel vectors read
    off rref(A), each with its 1 at a free column, reduced a second time."""
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


def _full_rank(rows, perm):
    """rows made unit upper triangular on the columns perm[:k], k the
    smaller of their number and length: 1 at perm[i] and 0 at perm[j],
    j < i, in row i < k, so the rank is k."""
    rows = [list(row) for row in rows]
    for i in range(min(len(rows), len(perm))):
        for j in perm[:i]:
            rows[i][j] = 0
        rows[i][perm[i]] = 1
    return rows


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), st.integers(0, 7), st.integers(1, 7),
       st.sampled_from(["drawn", "zero", "full"]), st.data())
def test_kernel_basis_matches_the_two_reduction_oracle_byte_for_byte(p, n, m, kind, data):
    # int rows over Q go in through the trusted Matrix._wrap, as liecore's do
    rows = data.draw(_elimination_rows(p, n, m))
    if kind == "zero":
        rows = [[0] * m for _ in range(n)]
    elif kind == "full":
        rows = _full_rank(rows, data.draw(st.permutations(range(m))))
    A = Matrix._wrap(Field(p), rows)
    before = repr(rows)
    got = kernel_basis(A)
    assert repr(rows) == before
    want = _two_reduction_kernel_basis(A)
    assert got.ambient_dim == want.ambient_dim == A.ncols
    assert repr(got.basis) == repr(want.basis)
    if kind == "full":
        assert got.dim == A.ncols - min(n, A.ncols)


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


def _solve_coords(S, v):
    """Coordinates the old way: solve on the transposed echelon basis."""
    if not S.basis:
        return [] if not any(v) else None
    return Matrix._wrap(S.field, S.basis).transpose().solve(v)


@given(st.integers(0, 10**6), st.sampled_from([Q, F5]))
@settings(max_examples=40, deadline=None)
def test_subspace_coords_match_solve(seed, F):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    S = Subspace(F, n, [[F.random(rng, 2) for _ in range(n)] for _ in range(rng.randint(0, n))])
    members = []
    for _ in range(3):
        c = [F.random(rng, 3) for _ in range(S.dim)]
        v = [F.zero] * n
        for ck, row in zip(c, S.basis):
            v = [F.add(a, F.mul(ck, b)) for a, b in zip(v, row)]
        members.append(v)
    others = [[F.random(rng) for _ in range(n)] for _ in range(3)]
    for v in members + others + [[F.zero] * n]:
        want = _solve_coords(S, v)
        assert S.coords_of(v) == want
        assert S.coords([v]) == (None if want is None else [want])
        assert S.contains(v) == (want is not None)
    assert all(S.coords_of(v) is not None for v in members)
    assert S.coords(members) == [_solve_coords(S, v) for v in members]
    assert S.coords([]) == []
    assert Subspace.zero(F, n).coords([[F.zero] * n]) == [[]]

    # restrict: the columns are the coordinates of the images
    A = random_matrix(F, rng, n)
    W = linalg.image_basis(A)
    R = W.restrict(A)
    assert R.cols() == [_solve_coords(W, A.matvec(b)) for b in W.basis]
    if W.dim:
        B = Matrix._wrap(F, W.basis)
        assert A * B.transpose() == B.transpose() * R


def test_from_json_refuses_a_shape_with_one_zero_side():
    for r, c in ((5, 0), (0, 3)):
        with pytest.raises(ValidationError, match="impossible matrix shape"):
            Matrix.from_json(Q, {"rows": r, "cols": c, "entries": []})
    assert Matrix.from_json(Q, {"rows": 0, "cols": 0, "entries": []}).nrows == 0


def test_subspace_restrict_refuses_a_non_invariant_subspace():
    for F in (Q, F5):
        S = Subspace(F, 3, [[0, 1, 0]])  # jordan shifts e_1 onto e_0
        with pytest.raises(ValidationError, match="subspace is not invariant under the map"):
            S.restrict(jordan(F, 3))
        assert Subspace(F, 3, [[1, 0, 0]]).restrict(jordan(F, 3)) == Matrix.zeros(F, 1, 1)


def test_subspace_restrict_to_the_zero_subspace():
    R = Subspace.zero(Q, 3).restrict(jordan(Q, 3))
    assert (R.nrows, R.ncols) == (0, 0)


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


def krylov_loop_minpoly(A):
    """The minimal polynomial as linalg computed it before fp_minpoly, kept
    as an oracle: one basis vector at a time, with m the annihilator of
    e_0, ..., e_(i-1) so far, u = m(A) e_i is skipped when zero, and
    otherwise m becomes m * ann(u), ann(u) read off one fp_rref of the
    Krylov columns u, A u, ..., A^n u."""
    F = A.field
    n = A.nrows
    m = Polynomial.one(F)
    for i in range(n):
        if m.degree == n:
            break
        e = [F.zero] * n
        e[i] = F.one
        u = linalg.combine(F, m.coeffs, linalg.krylov(A, e, m.degree))
        if any(u):
            R, _, k = _fast.fp_rref(list(zip(*linalg.krylov(A, u, n))), n + 1, F.p)
            m = m * Polynomial._wrap(F, [F.neg(R[r][k]) for r in range(k)] + [F.one])
    return m


def _minpoly_case(field, rng, n, kind):
    """Seeded matrices for the minimal polynomial oracle: _structured_matrix's
    kinds, a scalar matrix and, from n = 3 on, a plain block-diagonal one of
    a Jordan block, a companion block and a scalar block, none conjugated
    (below n = 3, _structured_matrix's conjugated companion blocks)."""
    if kind == "scalar":
        return Matrix.diagonal(field, [field.random(rng)] * n)
    if kind == "block_diagonal":
        if n < 3:
            return _structured_matrix(field, rng, n, "companion")
        k = rng.randint(1, n - 2)
        c = [field.random(rng) for _ in range(n - k - 1)]
        companion = Matrix._wrap(field, [
            [field.one if j + 1 == i else field.zero for j in range(n - k - 2)]
            + [field.neg(c[i])] for i in range(n - k - 1)])
        return Matrix.block_diagonal(field, [
            jordan(field, k, rng.randint(0, 2)), companion,
            Matrix.diagonal(field, [field.random(rng)])])
    return _structured_matrix(field, rng, n, kind)


@pytest.mark.parametrize("field", [Q, F3, F5, F7, F_BIG], ids=lambda F: F.spec())
@pytest.mark.parametrize("kind", ["random", "nilpotent", "jordan", "companion", "scalar",
                                  "block_diagonal"])
def test_minpoly_matches_the_krylov_loop(field, kind):
    rng = random.Random(f"{field.spec()} {kind}")
    for n in range(8):
        for _ in range(4):
            A = _minpoly_case(field, rng, n, kind)
            assert minimal_polynomial(A) == krylov_loop_minpoly(A)


def test_minpoly_refuses_a_wrong_dependency(monkeypatch):
    A = jordan(Q, 3)
    assert minimal_polynomial(A) == Polynomial(Q, [0, 0, 0, 1])
    real = _fast.fp_minpoly

    def wrong(rows, p):
        # x^3 + 1 in place of x^3: its value at the nilpotent J is I
        c = real(rows, p)
        return [Fraction(1)] + c[1:]

    monkeypatch.setattr(_fast, "fp_minpoly", wrong)
    with pytest.raises(ValidationError, match="annihilator verification failed"):
        minimal_polynomial(A)


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


# --------------------------------------- oracles for the one-image rational paths
# The code that each rational kernel replaced, kept as oracles: fp_matmul
# imaging a row of a at a time, poly_at_matrix's Horner loop on Matrix
# products, _forward imaging a row at a time, and the comparisons through
# Fraction.__eq__. Each new path must give the same bytes.


def _per_row_matmul(a, n, k, b, k2, m, p):
    if not k:
        return [[0 if p else _fast._ZERO] * m for _ in range(n)]
    if p:
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(arow, col)) % p for col in cols] for arow in a]
    bints, D = _fast.integer_image(b, 0)
    cols = list(zip(*bints))
    out = []
    for arow in a:
        (ints,), d = _fast.integer_image([arow], 0)
        out.append(_fast.field_image([sum(x * y for x, y in zip(ints, col)) for col in cols],
                                     d * D, 0))
    return out


def _matrix_horner(p, A):
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


def _per_row_forward(rows, ncols, p):
    reduced = []
    num = den = 1
    for row in rows:
        if p:
            v, c, k, a = _fast._reduce(row, reduced, ncols, p)
        else:
            (v,), d = _fast.integer_image([row], 0)
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
            v, c, k, a = _fast._reduce(v, reduced, ncols, 0)
            k *= g
            a *= d
        if c is not None:
            reduced.append((c, v))
            num *= v[c] * k
            den *= a
    return reduced, num, den


def _eq_matrices(A, B):
    return isinstance(B, Matrix) and A.field == B.field and A.data == B.data


def _eq_is_symmetric(A):
    return A.is_square and all(
        A.data[i][j] == A.data[j][i] for i in range(A.nrows) for j in range(i))


def _eq_coords(S, vecs):
    vecs = [list(v) for v in vecs]
    if not S.basis:
        return [[] for _ in vecs] if not any(c for v in vecs for c in v) else None
    if not vecs:
        return []
    F = S.field
    pivots = [next(j for j, c in enumerate(row) if c) for row in S.basis]
    C = [[v[j] for j in pivots] for v in vecs]
    if (Matrix._wrap(F, C) * Matrix._wrap(F, S.basis)).data != vecs:
        return None
    return C


_FIELDS = (Q, F3, F7, F_BIG)


@st.composite
def _field_rows(draw, F, n, m, ints=True):
    """n x m rows over F. Over Q: small or huge denominators, rows scaled
    by negative fractions, and with ints=True integral entries as ints, in
    some rows or all, as Matrix._wrap carries them."""
    if F.p:
        return draw(_fp_rows(F.p, n, m))
    entries = draw(st.sampled_from([_rationals, _mixed_rationals]))
    rows = draw(_rational_matrices(n, m, entries))
    kind = draw(st.sampled_from(["none", "some", "all"])) if ints else "none"
    if kind == "none":
        return rows
    return [[c.numerator if c.denominator == 1 else c for c in row]
            if kind == "all" or draw(st.booleans()) else row for row in rows]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.data())
def test_one_image_matmul_matches_the_per_row_product(F, n, k, m, data):
    a = data.draw(_field_rows(F, n, k))
    b = data.draw(_field_rows(F, k, m))
    before = repr((a, b))
    got = _fast.fp_matmul(a, n, k, b, k, m, F.p)
    assert repr((a, b)) == before
    assert repr(got) == repr(_per_row_matmul(a, n, k, b, k, m, F.p))


@st.composite
def _polynomials(draw, F):
    """Polynomials of degree -1 (zero) to 5 over F, constants included,
    monic or not."""
    degree = draw(st.integers(-1, 5))
    if degree < 0:
        return Polynomial.zero(F)
    if F.p:
        coeffs = draw(st.lists(st.integers(0, F.p - 1), min_size=degree + 1,
                               max_size=degree + 1))
        lead = st.integers(1, F.p - 1)
    else:
        coeffs = draw(st.lists(_mixed_rationals, min_size=degree + 1, max_size=degree + 1))
        lead = st.one_of(st.just(1), st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                               st.integers(1, 9)))
    coeffs[-1] = draw(st.one_of(st.just(1), lead))
    return Polynomial(F, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(0, 6), st.data())
def test_horner_kernel_matches_the_matrix_horner(F, n, data):
    # poly_at_matrix takes canonical entries: no ints over Q
    A = Matrix._wrap(F, data.draw(_field_rows(F, n, n, ints=False)))
    p = data.draw(_polynomials(F))
    before = repr(A.data)
    got = poly_at_matrix(p, A)
    assert repr(A.data) == before
    assert repr(got.data) == repr(_matrix_horner(p, A).data)
    assert (got.nrows, got.ncols) == (n, n)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(0, 6), st.integers(0, 7), st.data())
def test_one_image_forward_matches_the_per_row_forward(F, n, m, data):
    rows = data.draw(_field_rows(F, n, m))
    reduced, num, den = _fast._forward(rows, m, F.p)
    want, wnum, wden = _per_row_forward(rows, m, F.p)
    # the same primitive pivot rows; over Q the pivot product's value
    assert repr(reduced) == repr(want)
    if F.p:
        assert (num, den) == (wnum, wden)
    else:
        assert Fraction(num, den) == Fraction(wnum, wden)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), _mixed_rationals, st.data())
def test_one_image_scale_matches_the_entrywise_products(n, m, c, data):
    rows = data.draw(_field_rows(Q, n, m))
    want = [[Q.mul(Q.of(c), a) for a in row] for row in rows]
    assert repr(Matrix._wrap(Q, rows).scale(c).data) == repr(want)


def _perturbed(F, rows, data):
    """rows with one entry changed, over Q often in its denominator alone."""
    rows = [list(row) for row in rows]
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if not cells:
        return rows
    i, j = data.draw(st.sampled_from(cells))
    x = rows[i][j]
    if F.p:
        rows[i][j] = (x + data.draw(st.integers(1, F.p - 1))) % F.p
    else:
        x = Fraction(x)
        den = x.denominator * data.draw(st.sampled_from([2, 3, 10**40 + 1]))
        num = x.numerator if x.numerator else 1
        rows[i][j] = Fraction(num, den)
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(0, 5), st.integers(1, 5), st.data())
def test_comparisons_match_fraction_eq(F, n, m, data):
    rows = data.draw(_field_rows(F, n, m))
    kind = data.draw(st.sampled_from(["copied", "coerced", "perturbed"]))
    if kind == "copied":
        other = [list(row) for row in rows]
    elif kind == "coerced":
        other = [[F.of(c) for c in row] for row in rows]  # ints made Fractions
    else:
        other = _perturbed(F, rows, data)
    A, B = Matrix._wrap(F, rows), Matrix._wrap(F, other)
    assert (A == B) == _eq_matrices(A, B)
    assert (B == A) == _eq_matrices(B, A)
    # symmetric matrices, and the same with one entry changed
    sym = (A.transpose() * A).data if n else []
    for M in (Matrix._wrap(F, sym), Matrix._wrap(F, _perturbed(F, sym, data)), A):
        assert M.is_symmetric() == _eq_is_symmetric(M)
    # subspaces of the rows and of the changed rows, and coordinates
    S, T = Subspace._wrap(F, m, rows), Subspace._wrap(F, m, other)
    assert (S == T) == (S.basis == T.basis)
    for vecs in (rows, other, (A * A.transpose() * A).data if n else []):
        assert repr(S.coords(vecs)) == repr(_eq_coords(S, vecs))


def test_comparisons_read_values_not_types():
    # Matrix._wrap carries ints over Q; they equal the Fractions Matrix makes
    assert Matrix._wrap(Q, [[1]]) == Matrix(Q, [[1]])
    assert Matrix(Q, [[1]]) == Matrix._wrap(Q, [[1]])
    assert Matrix._wrap(Q, [[1, Fraction(1, 2)], [Fraction(1, 2), 3]]).is_symmetric()
    assert Matrix._wrap(Q, [[0, 2], [Fraction(2), 0]]).is_symmetric()
    # one denominator apart, in either slot order, is unequal
    A = Matrix(Q, [[1, "1/2"], ["3/4", 5]])
    for i, j, c in ((0, 1, "1/3"), (1, 0, "3/8"), (1, 1, "5/2")):
        B = A.copy()
        B.data[i][j] = Q.of(c)
        assert A != B and B != A
    assert not Matrix(Q, [[0, "1/2"], ["1/3", 0]]).is_symmetric()
    assert not Matrix._wrap(Q, [[0, 1], [Fraction(1, 2), 0]]).is_symmetric()
    # shape counts, even with the same entries in row-major order
    assert Matrix(Q, [[1, 2, 3, 4]]) != Matrix(Q, [[1, 2], [3, 4]])
    assert not _fast.same_rows([[Fraction(1)], []], [[Fraction(1)]])
    assert not _fast.same_rows([[1], [2, 3]], [[1, 2], [3]])
    S = Subspace(Q, 2, [[1, "1/2"]])
    assert S == Subspace._wrap(Q, 2, [[2, 1]])
    assert S != Subspace(Q, 2, [[1, "1/3"]])
    assert S.coords([[2, 1]]) == [[2]] and S.coords([[2, Fraction(1, 2)]]) is None
