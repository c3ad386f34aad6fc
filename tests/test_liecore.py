"""Lie algebra core: series, centre, invariant forms, quadratic dimension."""

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie._fast import integer_image
from quadlie.errors import ValidationError
from quadlie.exact_field import Field
from quadlie.liecore import (
    LieAlgebra,
    QuadraticLieAlgebra,
    _apply,
    _right_action,
    centre,
    derived_algebra,
    derived_series,
    dq_lower_bound_check,
    form_in_span,
    invariance_check,
    invariant_forms_basis,
    is_heisenberg,
    is_homomorphism as _is_homomorphism,
    is_nilpotent,
    is_reduced,
    is_solvable,
    jacobi_check,
    lower_central_series,
    nilpotency_index,
    quadratic_dimension,
    bracket_span,
    series_duality_check,
    upper_central_series,
)
from quadlie.linalg import Matrix, Subspace, kernel_basis
from quadlie.oscillator import build_double_extension, from_lambda_tuple
from quadlie.quadspace import OrthogonalSpace, is_skew, ortho_complement

Q = Field.parse("Q")
F5 = Field.parse("Fp:5")
P61 = Field.parse("Fp:2305843009213693951")  # 2^61 - 1


def heisenberg(field, m=1):
    """2m+1 dimensional: [x_i, y_i] = z, basis x_1..x_m, y_1..y_m, z."""
    n = 2 * m + 1
    brackets = {}
    for i in range(m):
        v = [0] * n
        v[n - 1] = 1
        brackets[(i, m + i)] = v
    return LieAlgebra.from_brackets(field, n, brackets)


def sl2_like(field):
    # basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
    return LieAlgebra.from_brackets(
        field, 3, {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]}
    )


def n23(field):
    """Free 2-step nilpotent seed extension: basis (d, b1, b2, b3, d*)."""
    L = LieAlgebra.from_brackets(
        field,
        5,
        {(0, 1): [0, 0, 1, 0, 0], (0, 2): [0, 0, 0, -1, 0], (1, 2): [0, 0, 0, 0, 1]},
    )
    G = Matrix.zeros(field, 5, 5)
    G.data[0][4] = G.data[4][0] = field.one
    G.data[1][3] = G.data[3][1] = field.one
    G.data[2][2] = field.one
    return QuadraticLieAlgebra(L, OrthogonalSpace(G))


def n32(field):
    """Two-chain seed extension: basis (d, a1, a2, a3, a4, d*)."""
    L = LieAlgebra.from_brackets(
        field,
        6,
        {
            (0, 1): [0, 0, 1, 0, 0, 0],
            (0, 4): [0, 0, 0, -1, 0, 0],
            (1, 4): [0, 0, 0, 0, 0, 1],
        },
    )
    G = Matrix.zeros(field, 6, 6)
    G.data[0][5] = G.data[5][0] = field.one
    for i in (1, 2):
        G.data[i][i + 2] = G.data[i + 2][i] = field.one
    return QuadraticLieAlgebra(L, OrthogonalSpace(G))


def conjugate(L, P):
    """Transport structure constants through the basis change P."""
    field = L.field
    Pi = P.inverse()
    brackets = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            x = [P.data[r][i] for r in range(L.dim)]
            y = [P.data[r][j] for r in range(L.dim)]
            v = Pi.matvec(L.bracket(x, y))
            if any(c != field.zero for c in v):
                brackets[(i, j)] = v
    return LieAlgebra.from_brackets(field, L.dim, brackets)


def unit(rng, field):
    """A random fraction that is a unit over Q and over F5."""
    units = (1, 2, 3, 4, 6, 7, 8)
    return field.of(f"{rng.choice(units)}/{rng.choice(units)}")


def random_invertible(rng, field, n):
    while True:
        M = Matrix(field, [[field.of(rng.randrange(5)) for _ in range(n)] for _ in range(n)])
        if M.rank() == n:
            return M


def test_jacobi_failure_reports_triple():
    bad = LieAlgebra.from_brackets(Q, 3, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]})
    ok, triple = jacobi_check(bad)
    assert not ok
    assert triple == (0, 1, 2)


def _fraction_jacobi_check(L):
    """Reference for jacobi_check: each term through L.bracket, in field arithmetic."""
    F = L.field
    e = [L.basis_vector(m) for m in range(L.dim)]
    for i, j, k in combinations(range(L.dim), 3):
        acc = [F.zero] * L.dim
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            term = L.bracket(L.bracket(e[x], e[y]), e[z])
            acc = [F.add(a, b) for a, b in zip(acc, term)]
        if any(acc):
            return False, (i, j, k)
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Q, F5]),
       st.sampled_from([heisenberg, sl2_like, n23, n32]), st.booleans())
def test_jacobi_check_matches_fraction_oracle(seed, field, build, perturb):
    rng = random.Random(seed)
    L = build(field)
    L = getattr(L, "algebra", L)
    n = L.dim
    P = random_invertible(rng, field, n)
    P = P * Matrix.diagonal(field, [unit(rng, field) for _ in range(n)])
    L = conjugate(L, P)  # fractional structure constants over Q
    if perturb:
        brackets = dict(L.table)
        key = rng.choice(list(combinations(range(n), 2)))
        vec = list(brackets.get(key, [field.zero] * n))
        r = rng.randrange(n)
        vec[r] = field.add(vec[r], unit(rng, field))
        brackets[key] = vec
        L = LieAlgebra.from_brackets(field, n, brackets)
    assert jacobi_check(L) == _fraction_jacobi_check(L)


def _fraction_bracket(L, x, y):
    """Reference for LieAlgebra.bracket: the table loop in field arithmetic."""
    F = L.field
    out = [F.zero] * L.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            if i < j:
                vec, c = L.table.get((i, j)), F.mul(xi, yj)
            else:
                vec, c = L.table.get((j, i)), F.neg(F.mul(xi, yj))
            if vec is None:
                continue
            for r, v in enumerate(vec):
                if v:
                    out[r] = F.add(out[r], F.mul(c, v))
    return out


def _fraction_is_homomorphism(L1, L2, M):
    """Reference for _is_homomorphism: both sides in field arithmetic."""
    images = M.cols()
    zero = [L1.field.zero] * L1.dim
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            lhs = _fraction_bracket(L2, images[i], images[j])
            if lhs != M.matvec(L1.table.get((i, j), zero)):
                return False, (i, j)
    return True, None


def rotation(field):
    """A solvable, non-nilpotent extension: two rotation planes."""
    return build_double_extension(from_lambda_tuple(field, (1, 2)))


def scrambled(rng, field, build):
    """(L, L0, P): L0 = build(field), and L the same algebra on the basis
    of the columns of P, which are scaled by fractions, so that over Q the
    table of L and the entries of P have denominators."""
    L0 = build(field)
    L0 = getattr(L0, "algebra", L0)
    n = L0.dim
    P = random_invertible(rng, field, n) * Matrix.diagonal(
        field, [unit(rng, field) for _ in range(n)]
    )
    return conjugate(L0, P), L0, P


def random_vector(rng, field, n):
    return [unit(rng, field) if rng.random() < 0.7 else field.zero for _ in range(n)]


def canonical(field, vec):
    """Entries of the field's own kind (Fraction over Q), reduced over F_p."""
    return all(type(c) is type(field.zero) and field.of(c) == c for c in vec)


KERNEL_FIELDS = [Q, F5, P61]
KERNEL_ALGEBRAS = [heisenberg, sl2_like, n23, n32, rotation]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KERNEL_FIELDS),
       st.sampled_from(KERNEL_ALGEBRAS))
def test_bracket_matches_fraction_oracle(seed, field, build):
    rng = random.Random(seed)
    L, _, _ = scrambled(rng, field, build)
    n = L.dim
    e = [L.basis_vector(i) for i in range(n)]
    pairs = [(e[i], e[j]) for i in range(n) for j in range(n)]
    pairs += [(random_vector(rng, field, n), random_vector(rng, field, n)) for _ in range(6)]
    for x, y in pairs:
        got = L.bracket(x, y)
        assert got == _fraction_bracket(L, x, y)
        assert canonical(field, got)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KERNEL_FIELDS),
       st.sampled_from(KERNEL_ALGEBRAS))
def test_bracket_span_matches_fraction_oracle(seed, field, build):
    rng = random.Random(seed)
    L, _, _ = scrambled(rng, field, build)
    n = L.dim

    def subspace(k):
        return Subspace(field, n, [random_vector(rng, field, n) for _ in range(k)])

    U, W = subspace(rng.randint(0, n)), subspace(rng.randint(1, n))
    full = Subspace.full(field, n)
    for A, B in ((U, W), (W, W), (W, full), (full, full)):
        S = bracket_span(L, A, B)
        assert S == Subspace(field, n, [_fraction_bracket(L, a, b)
                                        for a in A.basis for b in B.basis])
        assert all(canonical(field, v) for v in S.basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KERNEL_FIELDS),
       st.sampled_from(KERNEL_ALGEBRAS), st.booleans())
def test_is_homomorphism_matches_fraction_oracle(seed, field, build, perturb):
    rng = random.Random(seed)
    L, L0, P = scrambled(rng, field, build)
    n = L.dim
    # e_i -> P e_i carries L onto L0, and P^-1 carries L0 back onto L
    for L1, L2, M in ((L, L0, P), (L0, L, P.inverse())):
        if perturb:
            M = M.copy()
            i, j = rng.randrange(n), rng.randrange(n)
            M.data[i][j] = field.add(M.data[i][j], unit(rng, field))
        got = _is_homomorphism(L1, L2, M)
        assert got == _fraction_is_homomorphism(L1, L2, M)
        if not perturb:
            assert got == (True, None)


def _fraction_right_brackets(L):
    """[{i: [e_i, e_j]} for each j] in field elements, nonzero columns only."""
    maps = [{} for _ in range(L.dim)]
    for (i, j), vec in L.table.items():
        maps[j][i] = vec
        maps[i][j] = [L.field.neg(c) for c in vec]
    return maps


def _fraction_centralizer_mod(L, S):
    """Reference for the centralizers behind centre and upper_central_series:
    {x : [x, e_j] in S for every j} from the maps in field elements."""
    F = L.field
    C = S.constraints() if S.dim else None
    rows = []
    for cols in _fraction_right_brackets(L):
        N = Matrix.zeros(F, L.dim)  # x -> [x, e_j]
        for i, vec in cols.items():
            for r, c in enumerate(vec):
                N.data[r][i] = c
        rows.extend((C * N).data if C else N.data)
    return kernel_basis(Matrix._wrap(F, rows))


def _fraction_upper_central_series(L):
    series = [_fraction_centralizer_mod(L, Subspace.zero(L.field, L.dim))]
    while True:
        nxt = _fraction_centralizer_mod(L, series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def _fraction_invariant_forms_basis(L):
    """Reference for invariant_forms_basis: the equations in field elements."""
    F = L.field
    n = L.dim
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    pos = {key: idx for idx, key in enumerate(pairs)}
    eqs = {}
    for j, cols in enumerate(_fraction_right_brackets(L)):
        for i, v in cols.items():
            for k in range(n):
                row = eqs.setdefault((i, min(j, k), max(j, k)), [F.zero] * len(pos))
                for m, c in enumerate(v):
                    if c:
                        s = pos[(min(m, k), max(m, k))]
                        row[s] = F.add(row[s], c)
    rows = [row for _, row in sorted(eqs.items()) if any(row)]
    sols = kernel_basis(Matrix._wrap(F, rows)) if rows else Subspace.full(F, len(pos))
    out = []
    for v in sols.basis:
        S = Matrix.zeros(F, n, n)
        for (p, q), idx in pos.items():
            S.data[p][q] = S.data[q][p] = v[idx]
        out.append(S)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(KERNEL_FIELDS),
       st.sampled_from(KERNEL_ALGEBRAS))
def test_centre_series_and_forms_match_fraction_oracle(seed, field, build):
    rng = random.Random(seed)
    L, _, _ = scrambled(rng, field, build)
    upper = _fraction_upper_central_series(L)
    assert centre(L) == upper[0]
    assert upper_central_series(L) == upper
    assert all(canonical(field, v) for S in upper for v in S.basis)
    forms = invariant_forms_basis(L)
    assert forms == _fraction_invariant_forms_basis(L)
    assert all(canonical(field, row) for S in forms for row in S.data)


def _oracle_series(L, against_full):
    """Reference for derived_series (against_full false) and
    lower_central_series: spans of the brackets of every ordered pair of
    generators, in field arithmetic, down to the stable term."""
    full = Subspace.full(L.field, L.dim)
    series = [full]
    while True:
        S = series[-1]
        nxt = Subspace(L.field, L.dim, [
            _fraction_bracket(L, u, w)
            for u in S.basis
            for w in (full if against_full else S).basis
        ])
        if nxt == S:
            return series
        series.append(nxt)


def _integer_bracket_span(L, U, W):
    """bracket_span as it was, kept as an oracle: the brackets of the
    generators on the integer image, also when U and W are all of L."""
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


def _integer_series(L, against_full):
    """derived_series (against_full false) or lower_central_series as they
    were, each term one _integer_bracket_span, the first too."""
    full = Subspace.full(L.field, L.dim)
    series = [full]
    while True:
        S = series[-1]
        nxt = _integer_bracket_span(L, S, full if against_full else S)
        if nxt == S:
            return series
        series.append(nxt)


@pytest.mark.parametrize("field", [Q, F5])
@pytest.mark.parametrize("build", KERNEL_ALGEBRAS)
def test_series_match_ordered_pair_oracle(field, build):
    L0 = build(field)
    L0 = getattr(L0, "algebra", L0)
    L, _, _ = scrambled(random.Random(17), field, build)
    for alg in (L0, L):
        derived, lower = derived_series(alg), lower_central_series(alg)
        assert derived == _oracle_series(alg, False)
        assert lower == _oracle_series(alg, True)
        # the first term after L is derived_algebra, byte for byte the span
        # of every generator bracket on the integer image
        for got, want in ((derived, _integer_series(alg, False)),
                          (lower, _integer_series(alg, True))):
            assert repr([S.basis for S in got]) == repr([S.basis for S in want])


def test_quadratic_constructor_rejects_bad_jacobi():
    bad = LieAlgebra.from_brackets(Q, 3, {(0, 1): [1, 0, 0], (0, 2): [0, 1, 0]})
    with pytest.raises(ValidationError, match="Jacobi"):
        QuadraticLieAlgebra(bad, OrthogonalSpace.standard(Q, 3))


def test_bracket_table_is_sparse_and_checked():
    L = LieAlgebra.from_brackets(
        Q, 3, {(0, 1): ["0", "0", "1/2"], (0, 2): [0, 0, 0], (1, 2): ["0", "0", "0"]}
    )
    assert L.table == {(0, 1): [Q.zero, Q.zero, Q.of("1/2")]}
    e = [L.basis_vector(i) for i in range(3)]
    assert L.bracket(e[1], e[0]) == [Q.zero, Q.zero, Q.of("-1/2")]
    assert L.ad(e[1]).col(0) == [Q.zero, Q.zero, Q.of("-1/2")]
    assert derived_algebra(L) == lower_central_series(L)[1]
    for bad in (
        {(1, 1): [0, 0, 1]},
        {(2, 1): [0, 0, 1]},
        {(-1, 1): [0, 0, 1]},
        {(0, 3): [0, 0, 1]},
        {(0, 1): [0, 1]},
        {(0, 1): [0, 0, 0, 1]},
    ):
        with pytest.raises(ValidationError):
            LieAlgebra.from_brackets(Q, 3, bad)
    # a string where a list belongs is not read one character per entry
    for doc in (
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "v": "002"}]},
        {"dim": 3, "brackets": "[]"},
    ):
        with pytest.raises(ValidationError, match="must be a JSON list"):
            LieAlgebra.from_json(Q, doc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Q, F5]), st.sampled_from([n23, n32]),
       st.booleans())
def test_invariance_check_matches_skew_ad(seed, field, build, invariant):
    # oracle: the form is invariant exactly when every ad(e_i) is skew for it
    rng = random.Random(seed)
    N = build(field)
    n = N.dim
    # columns scaled by fractions: over Q the rows of the Gram then have
    # different denominators
    P = random_invertible(rng, field, n) * Matrix.diagonal(
        field, [unit(rng, field) for _ in range(n)]
    )
    L = conjugate(N.algebra, P)
    G = P.transpose() * N.space.gram * P
    if not invariant:
        i, j = rng.randrange(n), rng.randrange(n)
        E = Matrix.zeros(field, n, n)
        # a non-integer perturbation: over Q the Gram and the table then
        # have different denominators
        E.data[i][j] = E.data[j][i] = field.of(f"{rng.randrange(1, 5)}/7")
        G = G + E
    space = OrthogonalSpace(G)
    skew = [is_skew(space, L.ad(L.basis_vector(k))) for k in range(n)]
    first = next(((k, bad) for k, (ok, bad) in enumerate(skew) if not ok), None)
    assert invariance_check(L, space) == (first is None, first)
    if first is None:
        assert form_in_span(invariant_forms_basis(L), G) is not None
    if not space.regular:
        return
    if first is None:
        assert QuadraticLieAlgebra(L, space).algebra is L
    else:
        k, bad = first
        msg = f"form is not invariant: ad(e_{k}) fails at entry {bad}"
        with pytest.raises(ValidationError, match=re.escape(msg)):
            QuadraticLieAlgebra(L, space)


def test_invariance_is_checked_in_both_bracket_orders():
    # [e0, e1] = e2, [e0, e2] = -e1: every condition with i = 0 holds for the
    # standard form, and the first failure sits in ad(e_1) at (0, 2)
    L = LieAlgebra.from_brackets(Q, 3, {(0, 1): [0, 0, 1], (0, 2): [0, -1, 0]})
    space = OrthogonalSpace.standard(Q, 3)
    assert is_skew(space, L.ad(L.basis_vector(0)))[0]
    assert invariance_check(L, space) == (False, (1, (0, 2)))
    assert is_skew(space, L.ad(L.basis_vector(1))) == (False, (0, 2))


def test_quadratic_constructor_rejects_noninvariant_form():
    with pytest.raises(ValidationError, match="invariant"):
        QuadraticLieAlgebra(heisenberg(Q), OrthogonalSpace.standard(Q, 3))


def test_heisenberg_series():
    H = heisenberg(Q)
    assert [S.dim for S in lower_central_series(H)] == [3, 1, 0]
    assert [S.dim for S in derived_series(H)] == [3, 1, 0]
    assert [S.dim for S in upper_central_series(H)] == [1, 3]
    assert centre(H).dim == 1
    assert is_nilpotent(H) and is_solvable(H)
    assert nilpotency_index(H) == 2


def test_abelian_series():
    A = LieAlgebra.abelian(Q, 4)
    assert [S.dim for S in lower_central_series(A)] == [4, 0]
    assert [S.dim for S in upper_central_series(A)] == [4]
    assert centre(A).dim == 4
    assert nilpotency_index(A) == 1


def test_sl2_like_is_perfect():
    # the derived series lists the stable term once: perfect stops at [L]
    L = sl2_like(Q)
    assert [S.dim for S in derived_series(L)] == [3]
    assert not is_solvable(L)
    assert not is_nilpotent(L)
    with pytest.raises(ValidationError):
        nilpotency_index(L)


def test_is_heisenberg():
    ok, basis = is_heisenberg(heisenberg(Q))
    assert ok
    vs, ws, z = basis
    assert len(vs) == len(ws) == 1
    ok2, _ = is_heisenberg(heisenberg(F5, m=2))
    assert ok2
    assert not is_heisenberg(LieAlgebra.abelian(Q, 3))[0]
    assert not is_heisenberg(sl2_like(Q))[0]


def test_invariant_forms_abelian_dimension():
    # every symmetric form is invariant when the bracket vanishes
    for n in (1, 2, 3, 4):
        basis = invariant_forms_basis(LieAlgebra.abelian(Q, n))
        assert len(basis) == n * (n + 1) // 2


def test_quadratic_dimension_heisenberg():
    assert quadratic_dimension(heisenberg(Q)) == 3


def test_quadratic_dimension_extensions():
    assert quadratic_dimension(n23(Q).algebra) == 4
    assert quadratic_dimension(n32(Q).algebra) == 7


def test_extension_oracles():
    N = n23(Q)
    assert N.dim == 5
    assert centre(N.algebra).dim == 2
    assert nilpotency_index(N.algebra) == 3
    assert is_reduced(N)
    M = n32(Q)
    assert nilpotency_index(M.algebra) == 2
    assert is_reduced(M)


def test_not_reduced_abelian():
    A = QuadraticLieAlgebra(LieAlgebra.abelian(Q, 2), OrthogonalSpace.standard(Q, 2))
    assert not is_reduced(A)


def test_series_duality():
    assert series_duality_check(n23(Q), max_k=3) == [1, 2, 3]
    assert series_duality_check(n32(Q), max_k=2) == [1, 2]


def sl2_killing(field):
    """sl2_like with its Killing form: perfect, so L^2 = L and Z(L) = 0."""
    killing = Matrix(field, [[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    return QuadraticLieAlgebra(sl2_like(field), OrthogonalSpace(killing))


def rotation_quadratic(field):
    return build_double_extension(from_lambda_tuple(field, (1, 2)))


def scrambled_quadratic(rng, field, build):
    """build(field) on the basis of the columns of a random P, with the
    Gram P^T G P; the constructor certifies the form invariant again."""
    Q0 = build(field)
    L, _, P = scrambled(rng, field, lambda F: Q0.algebra)
    return QuadraticLieAlgebra(L, OrthogonalSpace(P.transpose() * Q0.space.gram * P))


QUADRATIC_ALGEBRAS = [n23, n32, rotation_quadratic, sl2_killing]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Q, F5]),
       st.sampled_from(QUADRATIC_ALGEBRAS), st.booleans())
def test_derived_perp_is_centre(seed, field, build, scramble):
    # a regular invariant form makes Z(L) = (L^2)-perp, which recovery and
    # the d_q bound read instead of solving for the centre
    Qs = scrambled_quadratic(random.Random(seed), field, build) if scramble else build(field)
    L = Qs.algebra
    L2 = derived_algebra(L)
    series = derived_series(L)
    assert L2 == (series[1] if len(series) > 1 else series[0])  # perfect: L^2 = L
    Z = centre(L)
    assert ortho_complement(Qs.space, L2) == Z
    assert ortho_complement(Qs.space, Z) == L2
    if L2.dim:
        r = Z.dim
        assert dq_lower_bound_check(Qs)[2] == 1 + r * (r + 1) // 2


def test_dq_lower_bound():
    holds, dq, bound = dq_lower_bound_check(n32(Q))
    assert (holds, dq, bound) == (True, 7, 7)
    holds, dq, bound = dq_lower_bound_check(n23(Q))
    assert holds and dq == 4 and bound == 4


def test_dq_lower_bound_rejects_abelian():
    A = QuadraticLieAlgebra(LieAlgebra.abelian(Q, 2), OrthogonalSpace.standard(Q, 2))
    with pytest.raises(ValidationError):
        dq_lower_bound_check(A)


def test_form_in_span():
    N = n23(Q)
    forms = invariant_forms_basis(N.algebra)
    assert form_in_span(forms, N.space.gram) is not None
    # E22 pairs the image of ad(d) with itself and breaks invariance
    S = Matrix.zeros(Q, 5, 5)
    S.data[2][2] = Q.one
    assert form_in_span(forms, S) is None


def test_invariant_forms_contain_gram():
    for Nq in (n23(Q), n32(Q), n23(F5)):
        forms = invariant_forms_basis(Nq.algebra)
        assert form_in_span(forms, Nq.space.gram) is not None


def test_json_round_trip():
    N = n32(Q)
    doc = N.to_json()
    back = QuadraticLieAlgebra.from_json(doc)
    assert back.algebra.table == N.algebra.table
    assert back.space.gram == N.space.gram


def test_algebra_dimension_must_be_a_natural_number():
    # the shape rule Matrix.from_json applies: an int, not a bool or a float
    doc = QuadraticLieAlgebra(LieAlgebra.abelian(Q, 1),
                              OrthogonalSpace(Matrix.identity(Q, 1))).to_json()
    for dim in (True, 1.0):
        doc["algebra"]["dim"] = dim
        with pytest.raises(ValidationError, match="impossible algebra dimension"):
            QuadraticLieAlgebra.from_json(doc)
    with pytest.raises(ValidationError, match="impossible algebra dimension"):
        LieAlgebra.from_json(Q, {"dim": -1, "brackets": []})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_dq_invariant_under_base_change(seed):
    rng = random.Random(seed)
    L = n32(F5).algebra
    P = random_invertible(rng, F5, 6)
    assert quadratic_dimension(conjugate(L, P)) == 7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_centre_dim_invariant_under_base_change(seed):
    rng = random.Random(seed)
    L = n23(F5).algebra
    P = random_invertible(rng, F5, 5)
    assert centre(conjugate(L, P)).dim == 2
