import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadlie import quadspace
from quadlie.errors import ValidationError
from quadlie.exact_field import Field, square_class
from quadlie.linalg import Matrix, Subspace
from quadlie.quadspace import (
    OrthogonalSpace,
    _fp_witt_index,
    _signature,
    SkewEndo,
    diagonalize_form,
    hyperbolic_split,
    is_definite,
    is_skew,
    isotropy_report,
    ortho_complement,
    radical,
    skew_basis,
)

Q = Field.parse("Q")
F5 = Field.parse("Fp:5")


def antidiag(field, entries):
    n = len(entries)
    A = Matrix.zeros(field, n, n)
    for i, c in enumerate(entries):
        A.data[i][n - 1 - i] = field.of(c)
    return A


def random_symmetric(field, rng, n):
    A = Matrix.zeros(field, n, n)
    for i in range(n):
        for j in range(i, n):
            c = field.random(rng)
            A.data[i][j] = c
            A.data[j][i] = c
    return A


# ------------------------------------------------------------------ spaces

def test_space_validation():
    with pytest.raises(ValidationError):
        OrthogonalSpace(Matrix(Q, [[0, 1], [2, 0]]))
    V = OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.zero]))
    assert not V.regular
    assert OrthogonalSpace.standard(Q, 3).regular


@pytest.mark.parametrize("field", [Q, Field.parse("Fp:3"), F5, Field.parse("Fp:7")],
                         ids=["Q", "F3", "F5", "F7"])
@pytest.mark.parametrize("n", range(5))
def test_identity_gram_is_read_off_the_gram(field, n):
    # whatever constructor built the space, the mark is the Gram being I
    R = Matrix(field, [[i + 2 * j + 1 for j in range(n)] for i in range(2)])
    for space in (OrthogonalSpace(Matrix.identity(field, n)), OrthogonalSpace.standard(field, n)):
        assert space.identity_gram and space.regular
        assert space.times_gram(R) is R
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        for c in ((field.zero, field.of(2)) if i == j else (field.one,)):
            G = Matrix.identity(field, n)
            G.data[i][j] = G.data[j][i] = c
            space = OrthogonalSpace(G)
            assert not space.identity_gram
            assert space.regular == (G.rank() == n)
            assert space.times_gram(R) == R * G


def test_bilin_quad_restrict():
    V = OrthogonalSpace(antidiag(Q, [1, 1]))
    e0, e1 = [Q.one, Q.zero], [Q.zero, Q.one]
    assert V.bilin(e0, e1) == 1
    assert V.quad(e0) == 0
    assert V.restrict_gram([[1, 1]]) == Matrix(Q, [[2]])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, F5]), st.integers(0, 4), st.integers(0, 10**6), st.booleans())
def test_bilin_is_the_product(field, n, seed, zero):
    # oracle: phi(x, y) is the one entry of x B y^T, zero vectors included
    rng = random.Random(seed)
    V = OrthogonalSpace(random_symmetric(field, rng, n))
    x = [field.zero if zero else field.random(rng) for _ in range(n)]
    y = [field.random(rng) for _ in range(n)]
    want = (Matrix._wrap(field, [x]) * V.gram * Matrix._wrap(field, [y]).transpose()).data
    assert V.bilin(x, y) == (want[0][0] if n else field.zero)
    assert V.quad(x) == V.bilin(x, x)
    for bad in (y[:-1] if n else [field.one], y + [field.one]):
        with pytest.raises(ValidationError, match="length"):
            V.bilin(bad, y)
        with pytest.raises(ValidationError, match="length"):
            V.bilin(x, bad)


def test_radical_oracle():
    V = OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.zero, Q.of(3)]))
    R = radical(V)
    assert R.dim == 1 and R.basis[0] == [Q.zero, Q.one, Q.zero]


def test_ortho_complement_oracle():
    V = OrthogonalSpace.standard(Q, 3)
    U = Subspace(Q, 3, [[1, 0, 0]])
    C = ortho_complement(V, U)
    assert C.dim == 2
    assert all(row[0] == Q.zero for row in C.basis)
    assert ortho_complement(V, Subspace.zero(Q, 3)).dim == 3


# ------------------------------------------------------------------- skews

def test_skew_check_and_endo():
    V = OrthogonalSpace.standard(Q, 2)
    rot = Matrix(Q, [[0, -1], [1, 0]])
    ok, bad = is_skew(V, rot)
    assert ok and bad is None
    # the endo keeps the check's product Omega = A^T B for its readers
    W = OrthogonalSpace(Matrix(Q, [[2, "1/2"], ["1/2", 3]]))
    for space in (V, W):
        A = skew_basis(space)[0]
        assert SkewEndo(space, A).omega == A.transpose() * space.gram
    with pytest.raises(ValidationError):
        SkewEndo(V, Matrix.identity(Q, 2))


def _two_product_skew_scan(space, A):
    """Reference for is_skew: A^T B + B A formed in full, scanned row-major."""
    M = A.transpose() * space.gram + space.gram * A
    for i in range(M.nrows):
        for j in range(M.ncols):
            if M.data[i][j]:
                return False, (i, j)
    return True, None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([Q, F5]), st.integers(1, 5), st.integers(0, 10**6), st.integers(0, 3))
def test_is_skew_matches_the_two_product_scan(field, n, seed, perturbations):
    rng = random.Random(seed)
    V = OrthogonalSpace(random_symmetric(field, rng, n))
    A = Matrix.zeros(field, n, n)
    for M in skew_basis(V):
        A = A + M.scale(field.of(f"{rng.randint(-6, 6)}/{rng.choice((1, 2, 3, 7))}"))
    assert is_skew(V, A) == (True, None)
    for _ in range(perturbations):
        i, j = rng.randrange(n), rng.randrange(n)
        A.data[i][j] = field.add(A.data[i][j], field.random(rng))
    assert is_skew(V, A) == _two_product_skew_scan(V, A)


def test_skew_basis_dimension():
    V = OrthogonalSpace.standard(F5, 3)
    basis = skew_basis(V)
    assert len(basis) == 3
    for A in basis:
        assert is_skew(V, A)[0]
    # hyperbolic plane: skews are scalars of diag(1, -1)
    W = OrthogonalSpace(antidiag(Q, [1, 1]))
    basis = skew_basis(W)
    assert len(basis) == 1
    assert is_skew(W, basis[0])[0]


# ----------------------------------------------------------- diagonalization

def test_diagonalize_oracle_hyperbolic():
    V = OrthogonalSpace(antidiag(Q, [1, 1]))
    P, d = diagonalize_form(V)
    assert P.transpose() * V.gram * P == Matrix.diagonal(Q, list(d))
    assert sorted(square_class(Q, c) for c in d) == [-2, 2]


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_diagonalize_certificate(seed):
    rng = random.Random(seed)
    F = F5 if seed % 2 else Q
    n = rng.randint(1, 5)
    V = OrthogonalSpace(random_symmetric(F, rng, n))
    P, d = diagonalize_form(V)
    assert P.det() != F.zero
    assert P.transpose() * V.gram * P == Matrix.diagonal(F, list(d))
    assert sum(1 for c in d if c != F.zero) == V.gram.rank()


# ----------------------------------------------------------------- isotropy

def test_isotropy_hyperbolic_plane_Q():
    rep = isotropy_report(OrthogonalSpace(antidiag(Q, [1, 1])))
    assert rep.verdict == "isotropic"
    assert rep.witt_index == 1 and rep.aniso_dim == 0
    assert rep.signature == (1, 1)


def test_isotropy_definite_Q():
    rep = isotropy_report(OrthogonalSpace.standard(Q, 2))
    assert rep.verdict == "anisotropic-definite"
    assert rep.witt_index == 0 and rep.witness is None


def test_isotropy_indefinite_Q_with_witness():
    rep = isotropy_report(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(-1), Q.one])))
    assert rep.verdict == "isotropic"
    assert rep.witt_index == 1 and rep.aniso_dim == 1
    V = OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(-1), Q.one]))
    assert V.quad(rep.witness) == 0


def test_isotropy_undecided_Q():
    # x^2 = 2 y^2 has no rational point, but the form is indefinite:
    # the bounded search must come back empty-handed and say so
    rep = isotropy_report(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(-2)])))
    assert rep.verdict == "undecided"
    assert rep.witt_index is None
    assert rep.witt_lower_bound == 0


def test_space_shape_errors():
    with pytest.raises(ValidationError, match="Gram matrix must be square"):
        OrthogonalSpace(Matrix(Q, [[1, 0]]))
    with pytest.raises(ValidationError, match="inner dimensions differ"):
        OrthogonalSpace.standard(Q, 2).times_gram(Matrix(Q, [[1, 0, 0]]))
    with pytest.raises(ValidationError, match="endomorphism dimension mismatch"):
        SkewEndo(OrthogonalSpace.standard(Q, 2), Matrix.zeros(Q, 3, 3))
    with pytest.raises(ValidationError, match="regular form has no hyperbolic partner"):
        hyperbolic_split(OrthogonalSpace(antidiag(Q, [1, 1])), [Q.zero, Q.zero])
    with pytest.raises(ValidationError, match="isotropy analysis requires a regular form"):
        isotropy_report(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.zero])))


def test_isotropy_report_documents():
    rep = isotropy_report(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(-1), Q.one])))
    assert rep.to_json() == {
        "field": "Q", "dim": 3, "verdict": "isotropic", "witt_index": 1,
        "witt_lower_bound": 1, "anisotropic_dim": 1, "signature": [2, 1],
        "witness": ["1", "1", "0"],
    }
    doc = isotropy_report(OrthogonalSpace(Matrix.diagonal(F5, [F5.one, F5.of(2)]))).to_json()
    assert (doc["verdict"], doc["signature"], doc["witness"]) == ("anisotropic", None, None)


def test_tampered_gram_product_fails_the_diagonalization(monkeypatch):
    space = OrthogonalSpace(Matrix(Q, [[0, 1], [1, 0]]))
    real = OrthogonalSpace.times_gram
    monkeypatch.setattr(OrthogonalSpace, "times_gram", lambda self, R: real(self, R).scale(2))
    with pytest.raises(ValidationError, match="diagonalization certificate failed"):
        diagonalize_form(space)


def test_tampered_fp_witness_fails_the_isotropy_check(monkeypatch):
    # the first column of P, whose q is d_0 != 0
    monkeypatch.setattr(quadspace, "_fp_isotropic_vector", lambda P, d: [row[0] for row in P.data])
    with pytest.raises(ValidationError, match="isotropy witness verification failed"):
        isotropy_report(OrthogonalSpace.standard(F5, 3))


def test_tampered_q_witness_fails_the_isotropy_check(monkeypatch):
    # (1, 1) has q = 2 on the hyperbolic plane; split off all the same, it
    # leaves nothing, and the first witness is checked at the end
    monkeypatch.setattr(quadspace, "_q_find_isotropic", lambda space, P, d: [Q.one, Q.one])
    with pytest.raises(ValidationError, match="isotropy witness verification failed"):
        isotropy_report(OrthogonalSpace(antidiag(Q, [1, 1])))


def test_isotropy_search_cap_answers_undecided(monkeypatch):
    # the box search stops at its cap, short of the height bound, with the
    # same honest verdict
    monkeypatch.setattr(quadspace, "ISOTROPY_SEARCH_CAP", 5)
    rep = isotropy_report(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(-2)])))
    assert (rep.verdict, rep.witt_index, rep.witness) == ("undecided", None, None)


def test_isotropy_fp_oracles():
    rep = isotropy_report(OrthogonalSpace.standard(F5, 3))
    assert rep.verdict == "isotropic"
    assert rep.witt_index == 1 and rep.aniso_dim == 1
    V = OrthogonalSpace(V_gram := Matrix.diagonal(F5, [F5.one, F5.of(-1)]))
    rep = isotropy_report(V)
    assert rep.witt_index == 1 and rep.aniso_dim == 0
    assert OrthogonalSpace(V_gram).quad(rep.witness) == 0
    rep = isotropy_report(OrthogonalSpace(Matrix.diagonal(F5, [F5.one, F5.of(2)])))
    assert rep.verdict == "anisotropic"
    assert rep.witt_index == 0 and rep.aniso_dim == 2


@given(st.sampled_from([5, 101, 2**61 - 1]), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_isotropy_fp_witness_and_bounds(p, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    V = OrthogonalSpace(random_symmetric(Field.parse(f"Fp:{p}"), rng, n))
    if not V.regular:
        return
    rep = isotropy_report(V)
    assert 2 * rep.witt_index + rep.aniso_dim == n
    # a witness exactly for the isotropic forms, however large p^n is
    if rep.witt_index > 0:
        assert V.quad(rep.witness) == 0
        assert any(c for c in rep.witness)
    else:
        assert rep.witness is None


@st.composite
def small_grams(draw):
    """A symmetric Gram matrix: dimension 0 to 4 over F_3, F_5, F_7, and
    0 to 3 over Q, where an undecided isotropy report stays fast."""
    F = Field.parse(draw(st.sampled_from(["Fp:3", "Fp:5", "Fp:7", "Q"])))
    n = draw(st.integers(0, 3 if F.p == 0 else 4))
    G = Matrix.zeros(F, n, n)
    for i in range(n):
        for j in range(i, n):
            c = F.of(draw(st.integers(-4, 4)))
            G.data[i][j] = G.data[j][i] = c
    return OrthogonalSpace(G)


@given(small_grams())
@settings(max_examples=200, deadline=None)
def test_is_definite_matches_isotropy_report(V):
    # definite over Q and anisotropic over F_p, exactly as the full report
    # says, and never true of a degenerate form
    if not V.regular:
        assert not is_definite(V)
        return
    verdict = isotropy_report(V).verdict
    assert is_definite(V) == (verdict in ("anisotropic", "anisotropic-definite"))


def _definite_by_diagonalization(V):
    """is_definite as it was: one diagonalization, then the signature over Q
    or the Witt index over F_p."""
    _, d = diagonalize_form(V)
    if V.field.p:
        return all(d) and _fp_witt_index(V.field, d) == 0
    return V.dim in _signature(d)


@given(st.integers(0, 6), st.sampled_from(["definite", "flip", "zero", "raw"]), st.data())
@settings(max_examples=200, deadline=None)
def test_sylvester_criterion_matches_the_diagonalization(n, kind, data):
    # P^T D P is definite when D is and P invertible; one flipped or zero
    # entry of D, a raw symmetric matrix or a singular P is not
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    P = Matrix(Q, [data.draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)])
    sign = data.draw(st.sampled_from([1, -1]))
    d = [sign * data.draw(st.integers(1, 3)) for _ in range(n)]
    if n and kind in ("flip", "zero"):
        d[data.draw(st.integers(0, n - 1))] *= -1 if kind == "flip" else 0
    G = P.transpose() * Matrix.diagonal(Q, d) * P
    if kind == "raw":
        G = random_symmetric(Q, random.Random(data.draw(st.integers(0, 10**6))), n)
    V = OrthogonalSpace(G)
    assert is_definite(V) == _definite_by_diagonalization(V)


@pytest.mark.parametrize("p", [3, 5])
def test_fp_definiteness_matches_the_diagonalization_exhaustively(p):
    F = Field.prime(p)
    for n in range(4):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product(range(p), repeat=len(cells)):
            G = Matrix.zeros(F, n, n)
            for (i, j), c in zip(cells, values):
                G.data[i][j] = G.data[j][i] = c
            V = OrthogonalSpace(G)
            assert is_definite(V) == _definite_by_diagonalization(V), (p, G)
