"""Double extensions by a line: structure, classification, isomorphism."""

import functools
import hashlib
import json
import random
from array import array
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import exact_field, liecore, oscillator, quadspace, skewcanon
from quadlie.errors import CapabilityError, ValidationError
from quadlie.exact_field import Field, Polynomial, hilbert_symbol, sqrt_in_field, square_class
from quadlie.linalg import Matrix, kernel_basis
from quadlie.liecore import LieAlgebra, QuadraticLieAlgebra
from quadlie.oscillator import (
    IsoWitness,
    OscillatorData,
    _census_components,
    _census_generators,
    _coefficient_action,
    _image_tables,
    _norm_equation,
    _root_matrix,
    _weight_spaces,
    build_double_extension,
    classify_nilpotent,
    decide_isometric,
    from_lambda_tuple,
    local_criteria,
    lorentz_normalize,
    phi_ts_form,
    phi_ts_isometry,
    recover_double_extension,
    skew_census,
    verify_iso_witness,
    verify_structure,
    witt1_certify,
)
from quadlie.quadspace import OrthogonalSpace, SkewEndo, is_skew, skew_basis
from test_cli import canon_corpus

Q = Field.parse("Q")
F3 = Field.parse("Fp:3")
F5 = Field.parse("Fp:5")
F7 = Field.parse("Fp:7")


def mk(field, gram_rows, delta_rows):
    space = OrthogonalSpace(Matrix(field, gram_rows))
    return OscillatorData(space, Matrix(field, delta_rows))


def n23_data(field=Q):
    """Seed with a single nilpotent chain of length three."""
    return mk(
        field,
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 0], [1, 0, 0], [0, -1, 0]],
    )


def n32_data(field=Q):
    """Seed with two chains of length two, paired across the form."""
    return mk(
        field,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]],
    )


def zero_data(field, n):
    return mk(field, Matrix.identity(field, n).data, Matrix.zeros(field, n, n).data)


def scramble_data(rng, data):
    """Same seed in a random core basis."""
    F = data.field
    n = data.dim_v
    span = F.p or 5
    while True:
        P = Matrix(F, [[F.of(rng.randrange(span)) for _ in range(n)] for _ in range(n)])
        if P.rank() == n:
            break
    B2 = P.transpose() * data.space.gram * P
    A2 = P.inverse() * data.delta.matrix * P
    return OscillatorData(OrthogonalSpace(B2), A2)


def scramble_quadratic(rng, Qx):
    """The same quadratic algebra presented in a random basis."""
    F = Qx.field
    n = Qx.dim
    span = F.p or 5
    while True:
        P = Matrix(F, [[F.of(rng.randrange(span)) for _ in range(n)] for _ in range(n)])
        if P.rank() == n:
            break
    Pi = P.inverse()
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            x = [P.data[r][i] for r in range(n)]
            y = [P.data[r][j] for r in range(n)]
            v = Pi.matvec(Qx.algebra.bracket(x, y))
            if any(v):
                brackets[(i, j)] = v
    L = LieAlgebra.from_brackets(F, n, brackets)
    G = P.transpose() * Qx.space.gram * P
    return QuadraticLieAlgebra(L, OrthogonalSpace(G))


def random_skew(rng, space):
    F = space.field
    basis = skew_basis(space)
    A = Matrix.zeros(F, space.dim, space.dim)
    for M in basis:
        c = F.of(rng.randrange(F.p))
        if not c:
            continue
        for i in range(space.dim):
            for j in range(space.dim):
                A.data[i][j] = F.add(A.data[i][j], F.mul(c, M.data[i][j]))
    return A


# --- construction -----------------------------------------------------------


def test_build_brackets():
    L = build_double_extension(n23_data())
    assert L.dim == 5
    t = L.algebra.table
    assert t[(0, 1)] == [Q.of(c) for c in (0, 0, 1, 0, 0)]
    assert t[(0, 2)] == [Q.of(c) for c in (0, 0, 0, -1, 0)]
    assert t[(1, 2)] == [Q.of(c) for c in (0, 0, 0, 0, 1)]
    assert (0, 4) not in t
    G = L.space.gram
    assert G.data[0][4] == Q.one and G.data[0][0] == Q.zero
    assert G.data[2][2] == Q.one


@pytest.mark.parametrize("field", [Q, F5])
def test_build_double_extension_coerces_nothing(field, monkeypatch):
    """Every entry of the extension is already canonical, so building it
    runs no Field.of; its table is the one the validating constructor
    stores, in the same order."""
    seeds = [
        n23_data(field),
        n32_data(field),
        zero_data(field, 2),
        from_lambda_tuple(field, (1, 2)),
        scramble_data(random.Random(3), n23_data(field)),
    ]
    calls = []
    of = Field.of

    def counted(self, v):
        calls.append(v)
        return of(self, v)

    for data in seeds:
        monkeypatch.setattr(Field, "of", counted)
        built = build_double_extension(data)
        monkeypatch.undo()
        table = built.algebra.table
        again = LieAlgebra.from_brackets(field, built.dim, table).table
        assert list(again.items()) == list(table.items())
    assert calls == []


def test_rejects_degenerate_core():
    with pytest.raises(ValidationError):
        mk(Q, [[0, 0], [0, 1]], [[0, 0], [0, 0]])


def test_rejects_nonskew_seed():
    with pytest.raises(ValidationError):
        mk(Q, [[1, 0], [0, 1]], [[0, 1], [1, 0]])


def test_from_lambda_tuple_rejects_zero():
    with pytest.raises(ValidationError):
        from_lambda_tuple(Q, (1, 0))


def test_embedding_and_axes():
    d = from_lambda_tuple(Q, (1,))
    assert d.embed([Q.of(3), Q.of(4)]) == [Q.zero, Q.of(3), Q.of(4), Q.zero]
    assert d.delta_axis() == [Q.one, Q.zero, Q.zero, Q.zero]
    assert d.star_axis() == [Q.zero, Q.zero, Q.zero, Q.one]


def test_data_json_round_trip():
    d = n32_data()
    back = OscillatorData.from_json(d.to_json())
    assert back.space.gram == d.space.gram
    assert back.delta.matrix == d.delta.matrix


# --- structure reports ------------------------------------------------------


def test_structure_n23():
    rep = verify_structure(n23_data())
    assert rep["dim"] == 5
    assert rep["nilpotent"] and rep["solvable"] and not rep["abelian"]
    assert rep["nilpotency_index"] == 3
    assert rep["lower_dims"] == [5, 3, 2, 0]
    assert rep["upper_dims"] == [2, 3, 5]
    assert rep["derived_dims"] == [5, 3, 0]
    # delta cubes to zero here, so the second derived term dies
    assert rep["second_derived"] == "zero"
    assert rep["heisenberg"] is None


def test_structure_n32():
    rep = verify_structure(n32_data())
    assert rep["dim"] == 6
    assert rep["nilpotency_index"] == 2
    assert rep["second_derived"] == "zero"


def test_structure_rotation():
    rep = verify_structure(from_lambda_tuple(Q, (1, 2)))
    assert rep["dim"] == 6
    assert not rep["nilpotent"]
    assert rep["second_derived"] == "line"
    assert rep["heisenberg"]["pairs"] == 2


def test_structure_zero_seed():
    rep = verify_structure(zero_data(F5, 2))
    assert rep["abelian"]
    assert rep["nilpotency_index"] == 1
    assert rep["lower_dims"] == [4, 0]
    assert rep["upper_dims"] == [4]


def test_structure_empty_core():
    d = OscillatorData(OrthogonalSpace(Matrix(Q, [])), Matrix(Q, []))
    rep = verify_structure(d)
    assert rep["dim"] == 2
    assert rep["abelian"]
    assert rep["nilpotency_index"] == 1


def test_structure_random_seeds():
    rng = random.Random(7)
    for field in (F3, F5):
        for n in (2, 3, 4):
            space = OrthogonalSpace.standard(field, n)
            for _ in range(6):
                d = OscillatorData(space, random_skew(rng, space))
                rep = verify_structure(d)
                assert rep["dim"] == n + 2 and rep["solvable"]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_structure_rotation_family(lams):
    rep = verify_structure(from_lambda_tuple(Q, lams))
    assert not rep["nilpotent"]
    assert rep["second_derived"] == "line"
    assert rep["heisenberg"]["pairs"] == len(lams)


# --- nilpotent classification ----------------------------------------------


def test_classify_n23():
    rep = classify_nilpotent(n23_data())
    assert rep["min_poly_degree"] == 3
    assert rep["sizes"] == [3]
    assert rep["key"] == (("zero_odd", 3, ("0", "1"), "-1"),)


def test_classify_n32():
    rep = classify_nilpotent(n32_data())
    assert rep["min_poly_degree"] == 2
    assert rep["sizes"] == [4]
    assert rep["key"][0][0] == "zero_even"


def test_classify_rejects_invertible_seed():
    with pytest.raises(ValidationError):
        classify_nilpotent(from_lambda_tuple(Q, (1,)))


def test_classify_size_constraints():
    # odd sizes bounded by the degree, even sizes are multiples of four
    rep = classify_nilpotent(n32_data(F5))
    k = rep["min_poly_degree"]
    for s in rep["sizes"]:
        assert (s % 2 == 1 and s <= k) or (s % 4 == 0 and s <= 2 * k)


def test_classify_scramble_invariant():
    rng = random.Random(11)
    for base in (n23_data(F5), n32_data(F5), n23_data(Q)):
        key = classify_nilpotent(base)["key"]
        for _ in range(4):
            assert classify_nilpotent(scramble_data(rng, base))["key"] == key


# --- locality ----------------------------------------------------------------


def test_local_rotation_q():
    rep = local_criteria(from_lambda_tuple(Q, (1, 2)))
    assert rep["local"] and rep["agree"]
    assert rep["dq"] == 2
    assert rep["stable_lines"] is None
    assert rep["plane_spanned_by_canonical_forms"]


def test_local_rotation_f5():
    d = mk(
        F5,
        Matrix.identity(F5, 4).data,
        [[0, 1, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
    )
    rep = local_criteria(d)
    assert rep["local"]
    assert rep["stable_lines"] == 1
    assert rep["dq"] == 2


def test_not_local_zero_seed():
    rep = local_criteria(zero_data(F5, 4))
    assert not rep["local"] and rep["agree"]
    assert rep["stable_lines"] == 3906
    assert rep["dq"] == 21


def test_not_local_nilpotent_seed():
    rep = local_criteria(n23_data())
    assert not rep["local"]
    assert not rep["seed_invertible"]
    assert rep["dq"] == 4


@pytest.mark.parametrize(
    "data",
    [from_lambda_tuple(Field.parse("Fp:101"), (1, 2)), from_lambda_tuple(F5, (1, 2, 2))],
    ids=["rotation-F101", "rotation-F5-core-6"],
)
def test_local_stable_lines_on_large_line_counts(data):
    # about 10^10 and 97,656 lines: the count comes from the weight spaces
    rep = local_criteria(data)
    assert rep["local"] and rep["agree"]
    assert rep["stable_lines"] == 1


def _enumerated_line_count(L):
    """Number of lines K x with [L, x] in K x over F_p, by enumerating every
    line: the oracle for the weight-space count of local_criteria."""
    p, d = L.field.p, L.dim
    ads = [L.ad(L.basis_vector(i)) for i in range(d)]
    count = 0
    for lead in range(d):
        for tail in product(range(p), repeat=d - lead - 1):
            x = [0] * lead + [1] + list(tail)
            ws = (M.matvec(x) for M in ads)
            if all(all(w[r] == w[lead] * x[r] % p for r in range(d)) for w in ws):
                count += 1
    return count


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 4), st.integers(0, 10**6))
def test_stable_lines_match_enumeration(p, n, seed):
    # at most (7^6 - 1) / 6 = 19,608 lines to enumerate
    F = Field.parse(f"Fp:{p}")
    rng = random.Random(seed)
    space = OrthogonalSpace.standard(F, n)
    data = scramble_data(rng, OscillatorData(space, random_skew(rng, space)))
    rep = local_criteria(data)
    assert rep["stable_lines"] == _enumerated_line_count(build_double_extension(data).algebra)

    # an extension's ad-stable lines are all central; e_0 acting on F^n by a
    # random D gives nonzero weights and several weight spaces
    D = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    brackets = {(0, j + 1): [0] + [D[r][j] for r in range(n)] for j in range(n)}
    L = LieAlgebra.from_brackets(F, n + 1, brackets)
    count = sum((p**W.dim - 1) // (p - 1) for W in _weight_spaces(L))
    assert count == _enumerated_line_count(L)


def test_local_empty_core_rejected():
    d = OscillatorData(OrthogonalSpace(Matrix(Q, [])), Matrix(Q, []))
    with pytest.raises(ValidationError):
        local_criteria(d)


# --- isomorphism witnesses ---------------------------------------------------


def test_witness_identity():
    d = from_lambda_tuple(Q, (1, 2))
    w = IsoWitness(Matrix.identity(Q, 4), [Q.zero] * 4, Q.one, Q.one, Q.zero)
    rep = verify_iso_witness(d, d, w)
    assert rep["verdict"] == "isometric-isomorphism"
    assert all(rep["conditions"].values())


def test_witness_doubled_seed():
    d1 = from_lambda_tuple(Q, (2, 4, 6))
    d2 = from_lambda_tuple(Q, (1, 2, 3))
    w = (Matrix.identity(Q, 6), [Q.zero] * 6, Q.of(Fraction(1, 2)), Q.of(2), Q.zero)
    rep = verify_iso_witness(d1, d2, w)
    assert rep["verdict"] == "isometric-isomorphism"
    assert rep["extended"].nrows == 8


def test_witness_isomorphism_not_isometry():
    # same seed, target form doubled: lambda*mu = 2 cannot be repaired
    d1 = from_lambda_tuple(Q, (1,))
    d2 = mk(Q, [[2, 0], [0, 2]], [[0, 1], [-1, 0]])
    w = (Matrix.identity(Q, 2), [Q.zero] * 2, Q.of(2), Q.one, Q.zero)
    rep = verify_iso_witness(d1, d2, w)
    assert rep["verdict"] == "isomorphism"
    assert not rep["isometric"]
    assert not rep["conditions"]["lambda_mu_is_one"]


def test_witness_translation_part():
    d = from_lambda_tuple(Q, (1,))
    z = [Q.one, Q.zero]
    balanced = (Matrix.identity(Q, 2), z, Q.one, Q.one, Q.of(Fraction(-1, 2)))
    rep = verify_iso_witness(d, d, balanced)
    assert rep["verdict"] == "isometric-isomorphism"
    unbalanced = (Matrix.identity(Q, 2), z, Q.one, Q.one, Q.zero)
    rep = verify_iso_witness(d, d, unbalanced)
    assert rep["verdict"] == "isomorphism"
    assert not rep["conditions"]["seed_norm_balances"]


def test_witness_invalid_reasons():
    d = from_lambda_tuple(Q, (1, 2))
    z = [Q.zero] * 4
    rep = verify_iso_witness(d, d, (Matrix.zeros(Q, 4, 4), z, Q.one, Q.one, Q.zero))
    assert rep["verdict"] == "invalid" and rep["reason"] == "f is singular"
    rep = verify_iso_witness(d, d, (Matrix.identity(Q, 4), z, Q.zero, Q.one, Q.zero))
    assert rep["reason"] == "lambda and mu must be nonzero"
    # swapping the two rotation planes cannot commute with distinct speeds
    f = Matrix(Q, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    rep = verify_iso_witness(d, d, (f, z, Q.one, Q.one, Q.zero))
    assert rep["reason"] == "f does not intertwine the seed maps"
    two = Matrix.identity(Q, 4).scale(Q.of(2))
    rep = verify_iso_witness(d, d, (two, z, Q.one, Q.one, Q.zero))
    assert rep["reason"] == "f does not scale the core form"


def test_witness_core_mismatch():
    d1 = from_lambda_tuple(Q, (1,))
    d2 = from_lambda_tuple(Q, (1, 2))
    w = (Matrix.identity(Q, 2), [Q.zero] * 2, Q.one, Q.one, Q.zero)
    assert verify_iso_witness(d1, d2, w)["reason"] == "core dimensions differ"
    with pytest.raises(ValidationError):
        verify_iso_witness(d1, from_lambda_tuple(F5, (1,)), w)


def test_witness_json_round_trip():
    w = IsoWitness(
        Matrix.identity(Q, 2), [Q.one, Q.zero], Q.of(Fraction(1, 2)), Q.of(2), Q.zero
    )
    back = IsoWitness.from_json(Q, w.to_json())
    assert back.f == w.f and back.z == w.z
    assert (back.lam, back.mu, back.nu) == (w.lam, w.mu, w.nu)


# --- the isometry decision ---------------------------------------------------


def check_yes(d1, d2, mu=None):
    dec = decide_isometric(d1, d2)
    assert dec["verdict"] == "yes"
    if mu is not None:
        assert dec["mu"] == mu
    rep = verify_iso_witness(d1, d2, dec["witness"])
    assert rep["verdict"] == "isometric-isomorphism"
    return dec


def test_decide_split_regime():
    d1 = mk(F5, [[0, 1], [1, 0]], [[2, 0], [0, 3]])
    d2 = mk(F5, [[0, 1], [1, 0]], [[1, 0], [0, 4]])
    check_yes(d1, d2, mu=F5.of(2))
    check_yes(d1, d1, mu=F5.one)


def test_decide_definite_scaled_tuple():
    d1 = from_lambda_tuple(Q, (2, 4, 6))
    d2 = from_lambda_tuple(Q, (1, 2, 3))
    check_yes(d1, d2, mu=Q.of(2))


def test_decide_definite_no():
    dec = decide_isometric(from_lambda_tuple(Q, (1, 1)), from_lambda_tuple(Q, (1, 2)))
    assert dec["verdict"] == "no"


def test_tampered_block_model_fails_the_witness_certificate(monkeypatch):
    # mu delta_2's paired block is moved to the model whose Gram is doubled,
    # a valid pair of its own: the identity block map no longer scales phi
    d1 = mk(F5, [[0, 1], [1, 0]], [[2, 0], [0, 3]])
    d2 = mk(F5, [[0, 1], [1, 0]], [[1, 0], [0, 4]])
    real = oscillator.canonical_pair
    two = F5.of(2)

    def doubled(f):
        cp = real(f)
        if f is d1.delta:
            return cp
        [b] = cp.blocks
        vecs = [[F5.mul(two, c) for c in b.vectors[0]]] + b.vectors[1:]
        block = skewcanon.CanonicalBlock(b.kind, b.size, b.factor, b.n, b.matrix,
                                         b.gram.scale(two), vectors=vecs)
        out = skewcanon.CanonicalPair(f, [block], cp.residual, Matrix._wrap(F5, vecs).transpose())
        out.verify()
        return out

    monkeypatch.setattr(oscillator, "canonical_pair", doubled)
    with pytest.raises(ValidationError, match="constructed witness failed verification"):
        decide_isometric(d1, d2)


def test_tampered_norm_solution_fails_the_witness_certificate(monkeypatch):
    # (alpha + 1, beta) moves a plane map off the norm equation
    real = oscillator._norm_equation

    def moved(F, m, c):
        status, pair = real(F, m, c)
        if status == "solved":
            pair = (F.add(pair[0], F.one), pair[1])
        return status, pair

    monkeypatch.setattr(oscillator, "_norm_equation", moved)
    with pytest.raises(ValidationError, match="constructed witness failed verification"):
        decide_isometric(from_lambda_tuple(Q, (2, 4, 6)), from_lambda_tuple(Q, (1, 2, 3)))


def _identity_witness(n):
    return IsoWitness(Matrix.identity(Q, n), [Q.zero] * n, Q.one, Q.one, Q.zero)


def test_witness_needs_a_nonzero_core_and_invertible_seeds():
    with pytest.raises(ValidationError, match="witness verification needs a nonzero core"):
        verify_iso_witness(zero_data(Q, 0), zero_data(Q, 0), _identity_witness(0))
    with pytest.raises(ValidationError, match="witness verification needs invertible seed maps"):
        verify_iso_witness(zero_data(Q, 2), zero_data(Q, 2), _identity_witness(2))


def test_phi_ts_needs_nonzero_s():
    data = from_lambda_tuple(Q, (1,))
    for ts1, ts2 in (((0, 0), (0, 1)), ((0, 1), (1, 0))):
        with pytest.raises(ValidationError, match="the form parameter s must be nonzero"):
            phi_ts_isometry(data, ts1, ts2)


def test_witt1_certify_on_an_empty_core():
    report = witt1_certify(zero_data(Q, 0))
    assert (report["verdict"], report["reason"]) == ("not-certified", "empty core")


def test_seed_rechecks_a_skew_map_of_another_space():
    rotation = Matrix(Q, [[0, -1], [1, 0]])
    f = SkewEndo(OrthogonalSpace.standard(Q, 2), rotation)
    space = OrthogonalSpace.standard(Q, 2)
    d = OscillatorData(space, f)
    assert d.delta is not f and d.delta.space is space and d.delta.matrix == rotation
    # the rotation is skew for I but not for diag(1, 2)
    with pytest.raises(ValidationError, match="not skew"):
        OscillatorData(OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.of(2)])), f)


def test_tampered_homomorphism_check_fails_the_isomorphism(monkeypatch):
    monkeypatch.setattr(oscillator, "is_homomorphism", lambda L1, L2, M: (False, (0, 1)))
    with pytest.raises(ValidationError, match=r"diagonal map failed re-derivation at pair \(0, 1\)"):
        phi_ts_isometry(from_lambda_tuple(Q, (1,)), (0, 1), (0, 1))


def _doubled_form(built):
    """built with its Gram doubled: the same algebra, still quadratic."""
    return QuadraticLieAlgebra._wrap(built.algebra, OrthogonalSpace._wrap(built.space.gram.scale(2)))


def test_tampered_source_form_fails_the_transported_isometry(monkeypatch):
    # the identity witness states an isometry; the source extension's Gram
    # doubled makes the transported form disagree
    d1, d2 = from_lambda_tuple(Q, (1,)), from_lambda_tuple(Q, (1,))
    assert verify_iso_witness(d1, d2, _identity_witness(2))["verdict"] == "isometric-isomorphism"
    real = oscillator.build_double_extension
    monkeypatch.setattr(oscillator, "build_double_extension",
                        lambda d: _doubled_form(real(d)) if d is d1 else real(d))
    with pytest.raises(ValidationError, match="isometry conditions disagree with the transported form"):
        verify_iso_witness(d1, d2, _identity_witness(2))


def test_tampered_phi_ts_forms_fail_the_diagonal_isometry(monkeypatch):
    # s doubled in both forms: the nu of the untampered pair, (t - t') / 2s',
    # no longer carries one to the other when t != t'
    data = from_lambda_tuple(Q, (1,))
    assert phi_ts_isometry(data, (1, 1), (0, 1))["verdict"] == "witness"
    real = oscillator.phi_ts_form
    monkeypatch.setattr(oscillator, "phi_ts_form", lambda data, t, s: real(data, t, Q.mul(2, s)))
    with pytest.raises(ValidationError, match="diagonal map failed the isometry check"):
        phi_ts_isometry(data, (1, 1), (0, 1))


def test_tampered_rebuilt_form_fails_the_recovery_isometry(monkeypatch):
    presented = build_double_extension(from_lambda_tuple(Q, (1, 2)))
    real = oscillator.build_double_extension
    monkeypatch.setattr(oscillator, "build_double_extension", lambda d: _doubled_form(real(d)))
    with pytest.raises(ValidationError, match="recovery base change failed the isometry check"):
        recover_double_extension(presented)


def test_tampered_inverse_fails_the_census_generators(monkeypatch):
    # s = 2 / q(v) read as 2: the reflection in e_1 - e_2, q = 2, is no
    # longer an isometry
    space = OrthogonalSpace.standard(F5, 3)
    assert len(_census_generators(space)) == 2
    monkeypatch.setattr(Field, "inv", lambda self, a: 1)
    with pytest.raises(ValidationError, match="census generator is not an isometry"):
        _census_generators(space)


def test_decide_gram_scaling():
    d1 = from_lambda_tuple(Q, (1,))
    d2 = mk(Q, [[2, 0], [0, 2]], [[0, 1], [-1, 0]])
    check_yes(d1, d2, mu=Q.one)
    d3 = mk(Q, [[3, 0], [0, 3]], [[0, 1], [-1, 0]])
    dec = decide_isometric(d1, d3)
    assert dec["verdict"] == "no"
    assert dec["reason"] == "plane norm classes differ at every admissible scale"


# rotations by 1 and 2 on the positive and negative planes of diag(1, 1, -1, -1)
INDEFINITE_ROTATIONS = mk(
    Q,
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
)


@pytest.mark.parametrize(
    "d1, d2, verdict, reason",
    [
        (from_lambda_tuple(Q, (1, 1, 2)), from_lambda_tuple(Q, (1, 2, 2)),
         "no", "plane multiplicities differ"),
        (from_lambda_tuple(Q, (1, 2)), from_lambda_tuple(Q, (1, 3)),
         "no", "scaled spectra cannot be aligned"),
        (from_lambda_tuple(Q, (1,)), mk(Q, [[1, 0], [0, 2]], [[0, -2], [1, 0]]),
         "no", "required scale squared 1/2 is not a square"),
        (mk(Q, [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]), from_lambda_tuple(Q, (1,)),
         "no", "plane norm classes differ at every admissible scale"),
        (INDEFINITE_ROTATIONS, INDEFINITE_ROTATIONS,
         "undecided", "outside the split and definite regimes"),
        (from_lambda_tuple(Field.parse("Fp:7"), (1,)), from_lambda_tuple(Field.parse("Fp:7"), (1,)),
         "undecided", "outside the split and definite regimes"),
    ],
    ids=["multiplicities", "unaligned", "non-square-scale", "opposite-signs",
         "indefinite-core", "F7-irreducible"],
)
def test_decide_pinned_verdicts(d1, d2, verdict, reason):
    dec = decide_isometric(d1, d2)
    assert (dec["verdict"], dec["reason"], dec["witness"]) == (verdict, reason, None)


def test_decide_shape_mismatch():
    d1 = from_lambda_tuple(Q, (1,))
    d2 = mk(Q, [[0, 1], [1, 0]], [[1, 0], [0, -1]])
    dec = decide_isometric(d1, d2)
    assert dec["verdict"] == "no"
    assert "factor shapes" in dec["reason"]


def test_decide_core_dimensions_differ():
    dec = decide_isometric(from_lambda_tuple(Q, (1,)), from_lambda_tuple(Q, (1, 2)))
    assert dec == {"verdict": "no", "reason": "core dimensions differ", "witness": None}


def _paired_chains(F, lam, sizes):
    """Paired +-lam chains of the given lengths, one model block each."""
    blocks = [skewcanon._paired_model(F, n, F.of(lam)) for n in sizes]
    return OscillatorData(OrthogonalSpace(Matrix.block_diagonal(F, [B for _, B in blocks])),
                          Matrix.block_diagonal(F, [A for A, _ in blocks]))


def test_decide_skips_a_scale_whose_blocks_differ():
    # both minimal polynomials are (x - 2)^2 (x + 2)^2, so the scales 1 and
    # -1 = 4 match them; the chain lengths (2, 2) and (2, 1, 1) do not
    dec = decide_isometric(_paired_chains(F5, 2, (2, 2)), _paired_chains(F5, 2, (2, 1, 1)))
    assert dec == {"verdict": "no", "reason": "no scale matches the canonical blocks",
                   "scales_tried": ["1", "4"], "witness": None}


def test_decide_quartic_undecided():
    rows = [[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]]
    d = mk(Q, Matrix.identity(Q, 4).data, rows)
    dec = decide_isometric(d, d)
    assert dec["verdict"] == "undecided"


def test_decide_rejects_bad_input():
    d = from_lambda_tuple(Q, (1,))
    with pytest.raises(ValidationError):
        decide_isometric(d, from_lambda_tuple(F5, (1,)))
    with pytest.raises(ValidationError):
        decide_isometric(d, zero_data(Q, 2))


@settings(max_examples=10, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=2),
    st.integers(2, 3),
)
def test_decide_scaling_family(lams, c):
    d1 = from_lambda_tuple(Q, [c * v for v in lams])
    d2 = from_lambda_tuple(Q, lams)
    check_yes(d1, d2, mu=Q.of(c))


def _extended_matrix_by_inverse(d1, d2, w, zBf):
    """The induced map with its delta* row read as phi_2(delta_2 z,
    f delta_1^{-1} e_j) = (delta_2 z)^T B_2 f delta_1^{-1}; zBf is unused."""
    F = d1.field
    n = d1.space.dim
    dz = d2.delta.matrix.matvec(w.z)
    star = Matrix._wrap(F, [dz]) * d2.space.gram * w.f * d1.delta.matrix.inverse()
    rows = [[w.mu] + [F.zero] * (n + 1)]
    rows += [[c] + list(row) + [F.zero] for c, row in zip(w.z, w.f.data)]
    rows.append([w.nu] + star.data[0] + [w.lam])
    return Matrix._wrap(F, rows)


def _hyperbolic_split(F, lams):
    # hyperbolic planes (e_i, e_{i+k}) with delta = diag(lams, -lams)
    k = len(lams)
    gram = [[int(j == (i + k) % (2 * k)) for j in range(2 * k)] for i in range(2 * k)]
    diag = list(lams) + [-c for c in lams]
    return mk(F, gram, [[diag[i] if i == j else 0 for j in range(2 * k)] for i in range(2 * k)])


def _rescaled_witnesses():
    """Witnesses (c f, z, c^2/mu, mu, nu) grown from the "yes" witnesses of
    decide_isometric: (a) and (b) hold, and seeded z and nu, balanced on
    every other seed, make some of them isometric and some not."""
    rng = random.Random(37)
    pairs = [
        (from_lambda_tuple(Q, (2, 4, 6)), from_lambda_tuple(Q, (1, 2, 3))),
        (from_lambda_tuple(Q, (1,)), mk(Q, [[2, 0], [0, 2]], [[0, 1], [-1, 0]])),
        (from_lambda_tuple(Q, (3, 6)), scramble_data(rng, from_lambda_tuple(Q, (1, 2)))),
        (_hyperbolic_split(F5, (2,)), _hyperbolic_split(F5, (1,))),
        (_hyperbolic_split(F5, (1, 2)), scramble_data(rng, _hyperbolic_split(F5, (2, 4)))),
        (_hyperbolic_split(F7, (3,)), scramble_data(rng, _hyperbolic_split(F7, (1,)))),
        (_hyperbolic_split(F7, (1, 3)), scramble_data(rng, _hyperbolic_split(F7, (2, 6)))),
    ]
    out = []
    for d1, d2 in pairs:
        F = d1.field
        dec = decide_isometric(d1, d2)
        assert dec["verdict"] == "yes"
        f, mu = dec["witness"].f, dec["witness"].mu
        for c, seed in product((1, 2, 3), range(3)):
            c = F.of(c)
            z = [F.of(rng.randrange(-3, 4)) for _ in range(d1.dim_v)]
            nu = F.of(rng.randrange(-3, 4))
            if seed % 2 == 0:
                nu = F.div(F.neg(d2.space.bilin(z, z)), F.mul(F.of(2), mu))
            w = IsoWitness(f.scale(c), z, F.div(F.mul(c, c), mu), mu, nu)
            out.append((d1, d2, w))
    return out


def test_extended_matrix_star_row_matches_the_inverse_row():
    for d1, d2, w in _rescaled_witnesses():
        zBf = (Matrix._wrap(d1.field, [w.z]) * d2.space.gram * w.f).data[0]
        assert oscillator._extended_matrix(d1, d2, w, zBf) == _extended_matrix_by_inverse(
            d1, d2, w, zBf)


def test_witness_verdicts_match_the_inverse_row(monkeypatch):
    witnesses = _rescaled_witnesses()
    mine = [verify_iso_witness(d1, d2, w) for d1, d2, w in witnesses]
    monkeypatch.setattr(oscillator, "_extended_matrix", _extended_matrix_by_inverse)
    for (d1, d2, w), rep in zip(witnesses, mine):
        oracle = verify_iso_witness(d1, d2, w)
        assert (rep["verdict"], rep["conditions"]) == (oracle["verdict"], oracle["conditions"])
        # the cross terms mu phi_2(delta_2 z, f delta_1^{-1} e_j) + phi_2(z, f e_j),
        # read off the inverse row, vanish: (a) leaves them no way to fail
        F = d1.field
        zBf = (Matrix._wrap(F, [w.z]) * d2.space.gram * w.f).data[0]
        star = oracle["extended"].data[-1][1:-1]
        assert not any(F.add(F.mul(w.mu, a), b) for a, b in zip(star, zBf))
    verdicts = {rep["verdict"] for rep in mine}
    assert verdicts == {"isomorphism", "isometric-isomorphism"}


def _sympy_norm_status(m, c):
    """Status of alpha^2 + m beta^2 = c from sympy alone: diophantine on
    u^2 + (num m den m) v^2 = (num c den c) w^2, read on the grid [-3, 3]."""
    import sympy
    from sympy.solvers.diophantine import diophantine

    if sqrt_in_field(Q, c) is not None or sqrt_in_field(Q, c / m) is not None:
        return "solved"
    U, V, W = sympy.symbols("u v w", integer=True)
    M, C = m.numerator * m.denominator, c.numerator * c.denominator
    nontrivial = False
    for sol in diophantine(U**2 + M * V**2 - C * W**2):
        exprs = [sympy.sympify(e) for e in sol]
        syms = sorted(set().union(*[e.free_symbols for e in exprs]), key=str)
        for point in product(range(-3, 4), repeat=len(syms)):
            vals = {t: sympy.Integer(a) for t, a in zip(syms, point)}
            u, v, w = [int(e.xreplace(vals)) for e in exprs]
            nontrivial = nontrivial or any((u, v, w))
            if w:
                return "solved"
    return "unknown" if nontrivial else "unsolvable"


positive_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(positive_rationals, positive_rationals.map(lambda x: x * x)),
    positive_rationals,
)
def test_norm_equation_matches_sympy(m, c):
    status, pair = _norm_equation(Q, m, c)
    assert status == _sympy_norm_status(m, c)
    if status == "solved":
        alpha, beta = pair
        assert alpha * alpha + m * beta * beta == c
    elif status == "unsolvable":
        M, C = square_class(Q, m), square_class(Q, c)
        assert pair and all(hilbert_symbol(-M, C, q) == -1 for q in pair)


def test_norm_equation_classical(monkeypatch):
    assert _norm_equation(Q, Q.one, Q.of(3)) == ("unsolvable", [2, 3])
    assert _norm_equation(Q, Q.of(3), Q.of(5)) == ("unsolvable", [3, 5])
    assert _norm_equation(Q, Q.of("4/9"), Q.of(21)) == ("unsolvable", [3, 7])
    # cores of opposite definite sign give c < 0: the real place obstructs
    assert _norm_equation(Q, Q.one, Q.of(-1)) == ("unsolvable", [0, 2])
    for m, c in ((1, 2), (1, "13/5"), (2, 3), ("4/9", "5/4"), (7, 11), (5, 6)):
        m, c = Q.of(m), Q.of(c)
        status, (alpha, beta) = _norm_equation(Q, m, c)
        assert status == "solved" and beta and alpha * alpha + m * beta * beta == c
    # the square-root shortcuts
    assert _norm_equation(Q, Q.of(2), Q.of("9/4")) == ("solved", (Q.of("3/2"), Q.zero))
    assert _norm_equation(Q, Q.of(2), Q.of(8)) == ("solved", (Q.zero, Q.of(2)))
    # u^2 + 17 v^2 = 13 w^2 takes three descent steps, on (13, -17), on
    # (-3, 13) (the swap of (13, -3)) and on (-3, 3), before (-3, 1)
    real = exact_field._lagrange_descent
    calls = []
    monkeypatch.setattr(exact_field, "_lagrange_descent",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    status, (alpha, beta) = _norm_equation(Q, Q.of(17), Q.of(13))
    assert status == "solved" and alpha * alpha + 17 * beta * beta == 13
    steps = [(a, b) for a, b in calls if abs(a) <= abs(b) and 1 not in (a, b)]
    assert steps == [(13, -17), (-3, 13), (-3, 3)]
    monkeypatch.undo()
    # every equation is solved exactly or refused by Hilbert symbols
    for m, c in product([Fraction(n, d) for n in range(1, 25) for d in (1, 4, 6)], repeat=2):
        status, pair = _norm_equation(Q, m, c)
        if status == "solved":
            alpha, beta = pair
            assert alpha * alpha + m * beta * beta == c
        else:
            assert status == "unsolvable" and pair


# --- the Lorentzian catalogue ------------------------------------------------


def test_lorentz_normalize():
    k = lorentz_normalize(Q, (5, 5))
    assert k.lam == (Q.one, Q.one)
    assert k.form_params == (Q.zero, Q.one)
    assert lorentz_normalize(Q, (2, 4, 6)) == lorentz_normalize(Q, (1, 2, 3))
    assert lorentz_normalize(Q, (1, 1)) != lorentz_normalize(Q, (1, 2))


def test_lorentz_keys_compare_only_with_keys():
    assert lorentz_normalize(Q, (1,)) != (1,)


def test_lorentz_form_parameter_classes():
    # t shifts freely, s matters up to squares
    assert lorentz_normalize(Q, (1, 2), (0, 1)) == lorentz_normalize(Q, (1, 2), (5, 4))
    assert lorentz_normalize(Q, (1, 2), (0, 1)) != lorentz_normalize(Q, (1, 2), (0, 2))


def test_lorentz_rejects():
    with pytest.raises(ValidationError):
        lorentz_normalize(F5, (1, 2))
    with pytest.raises(ValidationError):
        lorentz_normalize(Q, (1, -2))
    with pytest.raises(ValidationError):
        lorentz_normalize(Q, (1, 2), (1, 0))


# --- the invariant form family -----------------------------------------------


def test_phi_ts_form_matches_extension():
    d = from_lambda_tuple(Q, (1, 2))
    built = build_double_extension(d)
    assert phi_ts_form(d, 0, 1).gram == built.space.gram
    tilted = phi_ts_form(d, 3, 1)
    assert tilted.gram.data[0][0] == Q.of(3)
    assert tilted.regular
    with pytest.raises(ValidationError):
        phi_ts_form(d, 1, 0)


def test_phi_ts_isometry_translation():
    d = from_lambda_tuple(Q, (1, 2))
    rep = phi_ts_isometry(d, (4, 1), (0, 1))
    assert rep["verdict"] == "witness"
    assert rep["nu"] == Q.of(2)


def test_phi_ts_isometry_square_scale():
    d = from_lambda_tuple(Q, (1, 2))
    rep = phi_ts_isometry(d, (0, 1), (0, 4))
    assert rep["verdict"] == "witness"
    assert rep["c"] == Q.of(Fraction(1, 2))
    assert rep["map"].nrows == 6


def test_phi_ts_isometry_sign_obstruction():
    d = from_lambda_tuple(Q, (1, 2))
    rep = phi_ts_isometry(d, (0, 1), (0, -1))
    assert rep["verdict"] == "no"


def test_phi_ts_isometry_class_level():
    d = from_lambda_tuple(Q, (1, 2))
    rep = phi_ts_isometry(d, (0, 1), (0, 2))
    assert rep["verdict"] == "class-level"
    assert rep["scale_class"] == "2"


def test_phi_ts_isometry_f5():
    d = mk(
        F5,
        Matrix.identity(F5, 4).data,
        [[0, 1, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
    )
    assert phi_ts_isometry(d, (0, 1), (0, 4))["verdict"] == "witness"
    assert phi_ts_isometry(d, (0, 1), (0, 2))["verdict"] == "class-level"


def test_phi_ts_isometry_computes_no_invariant_form_basis(monkeypatch):
    # each form is invariant by construction; the span is never formed
    calls = []
    real = oscillator.invariant_forms_basis
    monkeypatch.setattr(oscillator, "invariant_forms_basis", lambda L: calls.append(L) or real(L))
    d = from_lambda_tuple(Q, (1, 2))
    assert phi_ts_isometry(d, (4, 1), (0, 4))["verdict"] == "witness"
    assert calls == []


def test_phi_ts_isometry_builds_one_extension(monkeypatch):
    built = []
    real = oscillator.build_double_extension
    monkeypatch.setattr(oscillator, "build_double_extension", lambda d: built.append(d) or real(d))
    d = from_lambda_tuple(Q, (1, 2))
    assert phi_ts_isometry(d, (4, 1), (0, 4))["verdict"] == "witness"
    assert built == [d]


# --- recovery ----------------------------------------------------------------


def test_recover_round_trip():
    d = from_lambda_tuple(Q, (1, 2))
    rec = recover_double_extension(build_double_extension(d))
    assert rec.dim_v == 4
    assert rec.recovery["verified"]
    check_yes(d, rec)


def test_recover_scrambled_rotation():
    rng = random.Random(3)
    d = from_lambda_tuple(Q, (1, 2))
    Qx = build_double_extension(d)
    for _ in range(3):
        rec = recover_double_extension(scramble_quadratic(rng, Qx))
        check_yes(d, rec)


def test_recover_scrambled_prime_field():
    rng = random.Random(5)
    d = mk(
        F5,
        Matrix.identity(F5, 4).data,
        [[0, 1, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
    )
    Qx = build_double_extension(d)
    for _ in range(3):
        rec = recover_double_extension(scramble_quadratic(rng, Qx))
        check_yes(d, rec)


def test_integer_image_is_built_once_per_algebra(monkeypatch):
    built = []
    real_build = liecore._build_integer_image

    def build(L):
        built.append(L)  # keeps L alive, so ids stay distinct
        return real_build(L)

    brackets = []
    real_bracket = LieAlgebra.bracket

    def bracket(self, x, y):
        brackets.append(self)
        return real_bracket(self, x, y)

    monkeypatch.setattr(liecore, "_build_integer_image", build)
    monkeypatch.setattr(LieAlgebra, "bracket", bracket)
    d = from_lambda_tuple(Q, (1, 2))
    Qx = scramble_quadratic(random.Random(11), build_double_extension(d))
    assert any(L is Qx.algebra for L in built)
    brackets.clear()
    rec = recover_double_extension(Qx)
    assert any(L is Qx.algebra for L in brackets)
    check_yes(d, rec)
    assert len(built) == len({id(L) for L in built})


def test_recovery_certifies_ad_x_on_the_core(monkeypatch):
    # recovery brackets through LieAlgebra.bracket only for ad x; adding x
    # itself moves [x, v] off the core, since x pairs with the centre
    real_bracket = LieAlgebra.bracket

    def bracket(self, x, y):
        return [a + b for a, b in zip(real_bracket(self, x, y), x)]

    d = from_lambda_tuple(Q, (1, 2))
    Qx = scramble_quadratic(random.Random(11), build_double_extension(d))
    monkeypatch.setattr(LieAlgebra, "bracket", bracket)
    with pytest.raises(ValidationError, match="ad x does not preserve the carved core"):
        recover_double_extension(Qx)


def test_recover_needs_small_centre():
    # a nilpotent seed inflates the centre, which recovery must refuse
    Qx = build_double_extension(n23_data())
    with pytest.raises(ValidationError, match="not a double extension.*centre"):
        recover_double_extension(Qx)


def test_recover_names_the_centre_of_the_zero_algebra():
    # dim 0: the derived series stops at its first term, which is L^2 = L
    empty = QuadraticLieAlgebra(LieAlgebra.abelian(Q, 0), OrthogonalSpace(Matrix(Q, [])))
    with pytest.raises(ValidationError, match="centre has dimension 0, not 1"):
        recover_double_extension(empty)


def test_recover_diagnostics():
    sl2 = LieAlgebra.from_brackets(
        Q, 3, {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]}
    )
    killing = Matrix(Q, [[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    with pytest.raises(ValidationError, match="not a double extension.*solvable"):
        recover_double_extension(QuadraticLieAlgebra(sl2, OrthogonalSpace(killing)))
    flat = QuadraticLieAlgebra(
        LieAlgebra.abelian(Q, 2), OrthogonalSpace.standard(Q, 2)
    )
    with pytest.raises(ValidationError, match="not a double extension.*centre"):
        recover_double_extension(flat)
    point = QuadraticLieAlgebra(
        LieAlgebra.abelian(Q, 1), OrthogonalSpace.standard(Q, 1)
    )
    with pytest.raises(ValidationError, match="not a double extension.*isotropic"):
        recover_double_extension(point)


def skew_derivations(Qn):
    """Basis of the derivations of Qn.algebra that are skew for its form,
    as matrices acting on columns: the kernel of D[e_i, e_j] = [D e_i, e_j]
    + [e_i, D e_j] and G D + (G D)^T = 0 in the entries D[r][s]."""
    F, n = Qn.field, Qn.dim
    L, G = Qn.algebra, Qn.space.gram
    e = [L.basis_vector(i) for i in range(n)]
    c = [[L.bracket(e[a], e[b]) for b in range(n)] for a in range(n)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for r in range(n):
                row = [F.zero] * (n * n)
                for s in range(n):
                    row[r * n + s] = F.add(row[r * n + s], c[i][j][s])
                    row[s * n + i] = F.sub(row[s * n + i], c[s][j][r])
                    row[s * n + j] = F.sub(row[s * n + j], c[i][s][r])
                rows.append(row)
    for a in range(n):
        for b in range(a, n):
            row = [F.zero] * (n * n)
            for s in range(n):
                row[s * n + b] = F.add(row[s * n + b], G.data[a][s])
                row[s * n + a] = F.add(row[s * n + a], G.data[b][s])
            rows.append(row)
    return [
        Matrix(F, [v[r * n:(r + 1) * n] for r in range(n)])
        for v in kernel_basis(Matrix(F, rows)).basis
    ]


def double_extend(Qn, D):
    """Double extension of the quadratic algebra Qn by its skew derivation
    D, on the basis (D, Qn's basis, D*): [D, x] = D x and
    [x, y] = [x, y]_Qn + phi(D x, y) D*, with D paired to D*."""
    F, n = Qn.field, Qn.dim
    L = Qn.algebra
    e = [L.basis_vector(i) for i in range(n)]
    brackets = {}
    for i in range(n):
        brackets[(0, i + 1)] = [F.zero] + D.col(i) + [F.zero]
        for j in range(i + 1, n):
            phi = Qn.space.bilin(D.col(i), e[j])
            brackets[(i + 1, j + 1)] = [F.zero] + L.bracket(e[i], e[j]) + [phi]
    G = Matrix.zeros(F, n + 2)
    G.data[0][n + 1] = G.data[n + 1][0] = F.one
    for i in range(n):
        G.data[i + 1][1:n + 1] = Qn.space.gram.row(i)
    return QuadraticLieAlgebra(
        LieAlgebra.from_brackets(F, n + 2, brackets), OrthogonalSpace(G)
    )


@pytest.mark.parametrize(
    "field, seed", [(Q, 0), (Q, 1), (F5, 0), (F5, 1)], ids=["Q-0", "Q-1", "F5-0", "F5-1"]
)
def test_recover_rejects_core_brackets_off_the_centre_line(field, seed):
    # extending the non-abelian 5-dimensional n23 extension once more, by a
    # random skew derivation, leaves (for these draws) a 1-dimensional
    # isotropic centre; the carved core then brackets into the old algebra,
    # not onto the centre line
    rng = random.Random(seed)
    Qn = build_double_extension(n23_data(field))
    D = Matrix.zeros(field, Qn.dim)
    for B in skew_derivations(Qn):
        D = D + B.scale(rng.randrange(-3, 4))
    Qx = double_extend(Qn, D)
    with pytest.raises(ValidationError, match="core brackets leave the centre line"):
        recover_double_extension(Qx)


# --- Witt index certificates --------------------------------------------------


def test_witt1_certified_rational():
    rep = witt1_certify(from_lambda_tuple(Q, (1, 2)))
    assert rep["verdict"] == "certified"
    assert rep["witt_index"] == 1
    axis, star = rep["hyperbolic_plane"]
    assert axis[0] == Q.one and star[-1] == Q.one
    assert rep["label"] is None


def test_witt1_prime_field_label():
    # diag(1, 3) is the norm form of the quadratic extension of F5
    d = mk(F5, [[1, 0], [0, 3]], [[0, 2], [1, 0]])
    rep = witt1_certify(d)
    assert rep["verdict"] == "certified"
    assert rep["label"] == "formula-level only"


def test_witt1_prime_field_isotropic_core():
    # a definite-looking form in dimension four is isotropic over F5
    d = mk(
        F5,
        Matrix.identity(F5, 4).data,
        [[0, 1, 0, 0], [4, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
    )
    rep = witt1_certify(d)
    assert rep["verdict"] == "not-certified"
    assert rep["reason"] == "core form is isotropic"


def test_witt1_rejections():
    rep = witt1_certify(n23_data())
    assert rep["verdict"] == "not-certified"
    assert rep["reason"] == "seed map is singular"
    hyp = mk(Q, [[0, 1], [1, 0]], [[1, 0], [0, -1]])
    rep = witt1_certify(hyp)
    assert rep["verdict"] == "not-certified"
    assert rep["reason"] == "core form is isotropic"


def test_witt1_undecided():
    d = mk(Q, [[1, 0], [0, -2]], [[0, 2], [1, 0]])
    rep = witt1_certify(d)
    assert rep["verdict"] == "undecided"


# --- census -------------------------------------------------------------------


def test_census_dim2():
    c = skew_census(F3, 2)
    assert c["total"] == 3
    assert len(c["buckets"]) == 2
    assert sum(c["buckets"].values()) == 3


def test_census_dim3():
    c = skew_census(F3, 3)
    assert c["total"] == 27
    assert len(c["buckets"]) == 4
    assert len(c["nilpotent_degrees"]) == 2
    assert set(c["representatives"]) == set(c["buckets"])


def test_census_dim4():
    c = skew_census(F3, 4)
    assert c["total"] == 729
    assert len(c["buckets"]) == 10
    assert len(c["nilpotent_degrees"]) == 4
    assert sum(c["buckets"].values()) == 729


def test_census_deterministic():
    a = json.dumps(skew_census(F3, 3), sort_keys=True, default=repr)
    b = json.dumps(skew_census(F3, 3), sort_keys=True, default=repr)
    assert a == b


def test_census_caps():
    with pytest.raises(CapabilityError):
        skew_census(Q, 2)
    with pytest.raises(CapabilityError):
        skew_census(F3, 5)
    F11 = Field.parse("Fp:11")
    with pytest.raises(CapabilityError):
        skew_census(F11, 2)
    c = skew_census(F11, 2, unsafe=True)
    assert c["total"] == 11
    with pytest.raises(ValidationError):
        skew_census(F3, -1)


def test_census_past_sys_maxsize_is_refused_before_its_power():
    # k = 499999500000 coefficients: p^k would have about 8e11 bits
    with pytest.raises(CapabilityError, match=r"census of 3\^499999500000 maps: cannot allocate"):
        skew_census(F3, 10**6, unsafe=True)


def test_census_factors_each_minimal_polynomial_once(monkeypatch):
    factored, minpolys = [], set()
    real_factor, real_minpoly = exact_field._factor_fp, skewcanon.minimal_polynomial

    def factor(f):
        factored.append(f)
        return real_factor(f)

    def minpoly(A):
        m = real_minpoly(A)
        minpolys.add(m)
        return m

    monkeypatch.setattr(exact_field, "_factor_fp", factor)
    monkeypatch.setattr(skewcanon, "minimal_polynomial", minpoly)
    exact_field._factor_cached.cache_clear()
    skew_census(F3, 3)
    assert len(factored) == len(set(factored)) == len(minpolys)
    assert set(factored) == minpolys


def _census_map_by_map(F, n):
    """The census with one canonical_pair per enumerated map: the oracle
    for the orbit sweep of skew_census."""
    space = OrthogonalSpace.standard(F, n)
    basis = skew_basis(space)
    buckets, reps, nilpotent = {}, {}, {}
    for coeffs in product(range(F.p), repeat=len(basis)):
        M = Matrix.zeros(F, n, n)
        for c, B in zip(coeffs, basis):
            M = M + B.scale(c)
        f = SkewEndo(space, M)
        cp = skewcanon.canonical_pair(f)
        res = tuple((r.kind, tuple(str(p0) for p0 in r.factors), r.dim) for r in cp.residual)
        key = repr((cp.block_signature(), res))
        buckets[key] = buckets.get(key, 0) + 1
        if key not in reps:
            reps[key] = M.data
            m = skewcanon.primary_split(f).minpoly
            if not any(m.coeff(i) for i in range(m.degree)):
                nilpotent[key] = m.degree
    return {
        "field": F.spec(),
        "dim": n,
        "total": F.p ** len(basis),
        "buckets": buckets,
        "representatives": reps,
        "nilpotent_degrees": nilpotent,
    }


@pytest.mark.parametrize("p, n, full, scaled", [
    (3, 4, 11, 0), (5, 3, 4, 2), (7, 3, 4, 4), (5, 4, 36, 34), (7, 4, 96, 240)])
def test_census_runs_one_canonical_pair_per_scaling_class(monkeypatch, p, n, full, scaled):
    calls = {"canonical_pair": 0, "scaled_pair": 0}
    for name in calls:
        def counted(*args, _real=getattr(oscillator, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(oscillator, name, counted)
    skew_census(Field.parse(f"Fp:{p}"), n)
    assert calls == {"canonical_pair": full, "scaled_pair": scaled}


@pytest.mark.parametrize("p, n", [(3, n) for n in range(5)] + [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_census_orbits_match_map_by_map(p, n):
    F = Field.parse(f"Fp:{p}")
    # unsorted keys: bucket insertion order must match as well
    assert json.dumps(skew_census(F, n)) == json.dumps(_census_map_by_map(F, n))


def _combination(F, n, coeffs, basis):
    M = Matrix.zeros(F, n, n)
    for c, B in zip(coeffs, basis):
        M = M + B.scale(c)
    return M


def _assert_conjugates(basis, g, T):
    """Row j of T is the coordinate row of g B_j g^T over skew_basis."""
    F, n = g.field, g.nrows
    assert len(T) == len(basis)
    for row, B in zip(T, basis):
        assert _combination(F, n, row, basis) == g * B * g.transpose()


def _census_reflections(space):
    """The reflections that joined the census orbits before the two
    generators replaced them, kept as the oracle of _census_generators: in
    e_1, in each e_i - e_(i+1), and in the first of (1, ..., 1),
    (1, 2, 0, ...), (1, 1, 1, 0, ...) that fits, has q != 0 and is not
    listed yet. Each is I - (2 / q(v)) v v^T on int rows mod p."""
    F, n = space.field, space.dim
    p = F.p
    E = Matrix.identity(F, n)
    vecs = E.data[:1] + [[(a - b) % p for a, b in zip(E.data[i], E.data[i + 1])]
                         for i in range(n - 1)]
    for head in ([1] * n, [1, 2], [1, 1, 1]):
        v = [c % p for c in head] + [0] * (n - len(head))
        if 0 < len(head) <= n and sum(c * c for c in v) % p and v not in vecs:
            vecs.append(v)
            break
    out = []
    for v in vecs:
        s = 2 * F.inv(sum(c * c for c in v) % p)
        g = Matrix._wrap(F, [[((i == j) - s * a * b) % p for j, b in enumerate(v)]
                             for i, a in enumerate(v)])
        assert g.transpose() * g == E and g * g == E
        out.append(g)
    return out


@pytest.mark.parametrize("p, n", [(3, n) for n in range(5)] + [(5, 3), (7, 3)])
def test_census_root_matrix_follows_skew_basis(p, n):
    # digit j, least significant first, is the coefficient of B_(k-1-j)
    F = Field.parse(f"Fp:{p}")
    basis = skew_basis(OrthogonalSpace.standard(F, n))
    k = len(basis)
    for x in range(p ** k):
        digits = [x // p ** j % p for j in range(k)]
        want = _combination(F, n, digits, basis[::-1])
        assert _root_matrix(F, n, digits) == want


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (3, 4), (5, 3), (5, 4), (7, 4)])
def test_census_reflections_act_on_coefficients(p, n):
    F = Field.parse(f"Fp:{p}")
    space = OrthogonalSpace.standard(F, n)
    basis = skew_basis(space)
    reflections = _census_reflections(space)
    # over F3 at n = 3, (1, 1, 1) is isotropic and (1, 2, 0) is e_1 - e_2
    assert len(reflections) == (n if (p, n) == (3, 3) else n + 1)
    generators = _census_generators(space)
    assert len(generators) == 2
    if n == 4:
        # the reflection in (1, 1, 1, 1) takes b out of the signed permutations
        assert any(sum(map(bool, row)) > 1 for row in generators[1].data)
    # the symmetric reflections and the generators, which are not symmetric
    for g in reflections + generators:
        _assert_conjugates(basis, g, _coefficient_action(space, g))


@pytest.mark.parametrize("p, n", [(3, 3), (5, 4), (7, 4), (11, 5)])
def test_coefficient_action_closed_form_is_skew_for_any_g(p, n):
    # entry (b, a) of g X_rs g^T is minus entry (a, b) whatever g is, so
    # _coefficient_action reads only a < b and checks nothing there; its
    # rows are the conjugates' coordinates for g that are no isometry too
    F = Field.parse(f"Fp:{p}")
    space = OrthogonalSpace.standard(F, n)
    basis = skew_basis(space)
    rng = random.Random(p * 100 + n)
    for _ in range(5):
        g = Matrix(F, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        assert g.transpose() * g != Matrix.identity(F, n)
        G = g.data
        for r in range(n):
            for s in range(r + 1, n):
                image = [[(G[a][r] * G[b][s] - G[a][s] * G[b][r]) % p for b in range(n)]
                         for a in range(n)]
                assert all((image[a][b] + image[b][a]) % p == 0
                           for a in range(n) for b in range(n))
        _assert_conjugates(basis, g, _coefficient_action(space, g))


@pytest.mark.parametrize("p, n, sample", [(3, n, None) for n in range(5)] + [
    (5, n, None) for n in range(4)] + [(7, n, None) for n in range(4)] + [
    (11, 2, None), (5, 4, 2000), (7, 4, 2000)])
def test_census_image_tables(p, n, sample):
    # n = 1 (k = 0) and n = 2 (k = 1) give h = 0
    F = Field.parse(f"Fp:{p}")
    space = OrthogonalSpace.standard(F, n)
    basis = skew_basis(space)
    k = len(basis)
    generators = _census_generators(space)
    actions = [_coefficient_action(space, g) for g in generators]
    for g, T in zip(generators, actions):
        _assert_conjugates(basis, g, T)
    h, FH, FL, tables = _image_tables(p, k, actions)
    assert h == k // 2 and len(tables) == len(actions)
    indices = range(p ** k) if sample is None else random.Random(p * 10 + n).sample(
        range(p ** k), sample)

    def digits(x):
        return [x // p ** (k - 1 - i) % p for i in range(k)]

    for T, (PH, PL) in zip(actions, tables):
        for x in indices:
            a, b = divmod(PH[x // p ** h] + PL[x % p ** h], (2 * p) ** h)
            want = [sum(c * row[j] for c, row in zip(digits(x), T)) % p for j in range(k)]
            assert digits(FH[a] + FL[b]) == want


@pytest.mark.parametrize("p, n", list(product((3, 5, 7, 11), range(1, 6))))
def test_census_reflections_are_distinct(p, n):
    space = OrthogonalSpace.standard(Field.parse(f"Fp:{p}"), n)
    reflections = _census_reflections(space)
    assert len({tuple(map(tuple, g.data)) for g in reflections}) == len(reflections)
    # the generators are distinct, and neither is I
    generators = _census_generators(space)
    assert len(generators) == min(len(reflections), 2)
    distinct = {tuple(map(tuple, g.data)) for g in generators + [Matrix.identity(space.field, n)]}
    assert len(distinct) == len(generators) + 1


def _census_ids(space, group):
    k = space.dim * (space.dim - 1) // 2
    comp = array("q", [0]) * space.field.p ** k
    _census_components(space.field.p, k, [_coefficient_action(space, g) for g in group], comp)
    return comp


@pytest.mark.parametrize("p, n", list(product((3, 5, 7), range(5))))
def test_census_generators_join_the_reflection_components(p, n):
    # the same component id at every index: the two generators conjugate
    # the skew maps as the whole reflection list does
    space = OrthogonalSpace.standard(Field.parse(f"Fp:{p}"), n)
    assert _census_ids(space, _census_generators(space)) == _census_ids(
        space, _census_reflections(space))


@pytest.mark.parametrize("p, n", [(3, n) for n in range(5)] + [(5, 3), (7, 3)])
def test_census_pairs_match_on_the_unmarked_identity_gram(p, n):
    # a space whose Gram is I skips its products with I; with the mark
    # taken off, the same Gram multiplies, and every pair must come out the same
    F = Field.parse(f"Fp:{p}")
    marked, plain = OrthogonalSpace.standard(F, n), OrthogonalSpace(Matrix.identity(F, n))
    assert marked.identity_gram and plain.identity_gram
    plain.identity_gram = False
    for rows in skew_census(F, n)["representatives"].values():
        M = Matrix(F, rows)
        want = skewcanon.canonical_pair(SkewEndo(plain, M)).to_json()
        assert skewcanon.canonical_pair(SkewEndo(marked, M)).to_json() == want


def _mat_mul(p, a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a)


def _rank_mod(p, rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                t = rows[i][c]
                rows[i] = [(x - t * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@functools.cache
def _orbit_oracle(p, n):
    """(|O(n, p)|, number of conjugation orbits on the skew maps of the
    standard form), by plain integer arithmetic mod p.

    The group is the closure of every reflection I - (2 / q(v)) v v^T
    (Cartan-Dieudonne), and the orbits are counted by Burnside's lemma:
    g fixes the skew maps A with g A = A g, a subspace of dimension
    k - rank, k = n(n - 1)/2, so the count is the mean of p^(k - rank).
    """
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = set()
    for v in product(range(p), repeat=n):
        q = sum(c * c for c in v) % p
        if q:
            c = 2 * pow(q, -1, p)
            gens.add(tuple(tuple((eye[i][j] - c * v[i] * v[j]) % p for j in range(n))
                           for i in range(n)))
    group, frontier = {eye}, [eye]
    while frontier:
        frontier = [h for h in {_mat_mul(p, g, s) for g in frontier for s in gens}
                    if h not in group]
        group.update(frontier)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    skew = []
    for i, j in pairs:
        A = [[0] * n for _ in range(n)]
        A[i][j], A[j][i] = 1, p - 1
        skew.append(A)
    fixed = 0
    for g in group:
        # column t: the entries of g A_t - A_t g
        cols = [[x - y for ra, rb in zip(_mat_mul(p, g, A), _mat_mul(p, A, g))
                 for x, y in zip(ra, rb)] for A in skew]
        fixed += p ** (len(pairs) - _rank_mod(p, list(zip(*cols))))
    assert fixed % len(group) == 0
    return len(group), fixed // len(group)


@pytest.mark.parametrize("p, n, order, orbits", [
    (3, 1, 2, 1), (3, 3, 48, 4), (3, 4, 1152, 11), (5, 3, 240, 6), (7, 3, 672, 8),
])
def test_orbit_oracle_counts(p, n, order, orbits):
    assert _orbit_oracle(p, n) == (order, orbits)


@pytest.mark.parametrize("p, n", [(p, n) for p in (3, 5, 7) for n in (1, 2, 3)] + [
    pytest.param(3, 4, marks=pytest.mark.xfail(strict=True, reason=(
        "the census key leaves out ResidualPart.mult: bucket ((), (('untreated', "
        "('x^2 + 1',), 4),)) merges maps with minimal polynomial x^2 + 1 and "
        "(x^2 + 1)^2, so 11 orbits fall into 10 buckets"))),
])
def test_census_buckets_are_orbits(p, n):
    buckets = skew_census(Field.parse(f"Fp:{p}"), n)["buckets"]
    assert len(buckets) == _orbit_oracle(p, n)[1]


# sha256 of each census document serialized with sorted keys and indent 2;
# a change in any bucket, count or representative changes the digest
CENSUS_DIGESTS = {
    (3, 4): "853e5a8341305f2b0feed1e78cdce392cbf171f0b4b7dca4cb84ae2fb6ada545",
    (5, 3): "65d0ef3b8583668c4f87726c65a82173d5c039d95f16be3382f6a1994107d72f",
    (5, 4): "f34ccf42158159c778d0589b4fa1814b9980d7c33ea630de7e0eb5f9f1e99a67",
    (7, 3): "8213f3c0ef99172ee12faab21e32e09352090abfc8aa9a9049bd18c6c38bfd49",
    (7, 4): "ed1bf2d80d46e55ad71c78d1713386bce9eba5cbe6cd93a43bc9d850cb5f2303",
}


@pytest.mark.parametrize("p, n", sorted(CENSUS_DIGESTS))
def test_census_frozen_digest(p, n):
    doc = skew_census(Field.parse(f"Fp:{p}"), n)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_DIGESTS[(p, n)]


# --- frozen library results -----------------------------------------------------


def _plain(x):
    """JSON-ready form of a library result: objects by their to_json,
    scalars by their printed value."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if x is None or isinstance(x, (bool, str)):
        return x
    return str(x)


def _outcome(call):
    try:
        return _plain(call())
    except (ValidationError, CapabilityError) as exc:
        return {"error": type(exc).__name__, "text": str(exc)}


def _random_seed(rng, F, n):
    """A = B^-1 S for a random regular symmetric B and antisymmetric S."""
    while True:
        B = Matrix.zeros(F, n, n)
        for i in range(n):
            for j in range(i, n):
                B.data[i][j] = B.data[j][i] = F.random(rng, 3)
        if B.det() != F.zero:
            break
    S = Matrix.zeros(F, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            S.data[i][j] = F.random(rng, 3)
            S.data[j][i] = F.neg(S.data[i][j])
    return OscillatorData(OrthogonalSpace(B), B.inverse() * S)


def _library_results(d):
    def decide():
        d2 = OscillatorData(d.space, d.delta.matrix.scale(2))
        out = decide_isometric(d, d2)
        return {k: out.get(k) for k in ("verdict", "reason", "witness")}

    def recover():
        r = recover_double_extension(build_double_extension(d))
        return [r.delta.matrix, r.space.gram, r.recovery["base_change"]]

    return {
        "canonical_pair": _outcome(lambda: skewcanon.canonical_pair(d.delta)),
        "verify_structure": _outcome(lambda: verify_structure(d)),
        "local_criteria": _outcome(lambda: local_criteria(d)),
        "phi_ts_square": _outcome(lambda: phi_ts_isometry(d, (0, 1), (1, 4))),
        "phi_ts_ratio": _outcome(lambda: phi_ts_isometry(d, (1, 2), (0, 1))),
        "decide_isometric": _outcome(decide),
        "recover": _outcome(recover),
    }


# sha256 over the sorted-key JSON of _library_results on 100 seeded random
# seeds: Q, F3, F5 and F7 in turn, core dimensions 1 to 5
LIBRARY_DIGEST = "d564caa9eba77fe7f2838d5c5be44bf64189b0d05249fcbf104cdd1acfad24dc"


def test_library_results_frozen():
    fields = [Q, F3, F5, Field.parse("Fp:7")]
    docs = []
    for seed in range(100):
        rng = random.Random(seed)
        F = fields[seed % 4]
        d = _random_seed(rng, F, 1 + (seed // 4) % 5)
        docs.append(_library_results(d))
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LIBRARY_DIGEST


def _direct_check_seeds():
    """The canon_corpus() seeds and the 100 seeds behind LIBRARY_DIGEST."""
    fields = [Q, F3, F5, F7]
    seeds = list(canon_corpus().values())
    for seed in range(100):
        seeds.append(_random_seed(random.Random(seed), fields[seed % 4], 1 + (seed // 4) % 5))
    return seeds


def test_extensions_pass_the_direct_checks():
    # build_double_extension checks nothing, as Medina and Revoy's theorem
    # makes every extension of a certified seed quadratic; the direct
    # checks agree on the corpus seeds and the seeds of LIBRARY_DIGEST, as
    # the validating constructor does on each trusted space: the extension
    # form, the (t, s) forms and the core carved out by recovery
    for d in _direct_check_seeds():
        built = build_double_extension(d)
        assert liecore.jacobi_check(built.algebra) == (True, None)
        assert liecore.invariance_check(built.algebra, built.space) == (True, None)
        for t, s in ((0, 1), (1, 2), (3, -1)):
            assert liecore.invariance_check(built.algebra, phi_ts_form(d, t, s)) == (True, None)
        trusted = [built.space, phi_ts_form(d, 1, 2)]
        try:
            trusted.append(recover_double_extension(built).space)
        except ValidationError:
            pass  # a singular seed leaves a centre larger than a line
        for space in trusted:
            checked = OrthogonalSpace(space.gram)
            assert (space.regular, space.identity_gram) == (
                checked.regular, checked.identity_gram)


def _assert_trusted_skew(f):
    # a map wrapped as skew by construction passes the skew check, and its
    # Omega is the one the validating constructor forms
    assert is_skew(f.space, f.matrix) == (True, None)
    assert f.omega == SkewEndo(f.space, f.matrix).omega


def test_trusted_skew_maps_pass_the_skew_check():
    # mu f by scaled_map and scaled_pair, at every mu of F_p^x and at 2 and
    # -1/3 over Q, and the delta recovery reads off a built extension
    for d in _direct_check_seeds():
        F = d.field
        mus = [F.of(mu) for mu in (range(1, F.p) if F.p else (2, Fraction(-1, 3)))]
        cp = skewcanon.canonical_pair(d.delta)
        for mu in mus:
            _assert_trusted_skew(skewcanon.scaled_map(d.delta, mu))
            _assert_trusted_skew(skewcanon.scaled_pair(cp, mu).endo)
        try:
            rec = recover_double_extension(build_double_extension(d))
        except ValidationError as exc:
            # a singular seed leaves a centre larger than a line
            assert "centre has dimension" in str(exc)
            continue
        _assert_trusted_skew(rec.delta)


@functools.cache
def _census_pairs(p, n):
    """The census document at (p, n) and every canonical pair it builds,
    by canonical_pair on a root map or by scaled_pair."""
    pairs = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("canonical_pair", "scaled_pair"):
            def kept(*args, _real=getattr(oscillator, name)):
                pairs.append(_real(*args))
                return pairs[-1]
            mp.setattr(oscillator, name, kept)
        doc = skew_census(Field.parse(f"Fp:{p}"), n)
    return doc, pairs


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 3)])
def test_census_maps_pass_the_skew_check(p, n):
    _, pairs = _census_pairs(p, n)
    assert pairs
    for cp in pairs:
        _assert_trusted_skew(cp.endo)


def test_canonical_pair_component_forms_are_regular(monkeypatch):
    # a self-paired component of a regular space is orthogonal to every
    # other one, so canonical_pair wraps its restricted form as regular
    spaces = []
    real = skewcanon.is_definite
    monkeypatch.setattr(skewcanon, "is_definite", lambda sub: spaces.append(sub) or real(sub))
    endos = [d.delta for d in _direct_check_seeds()]
    endos += [cp.endo for p, n in [(3, 4), (5, 3), (7, 3)] for cp in _census_pairs(p, n)[1]]
    for f in endos:
        skewcanon.canonical_pair(f)
    assert len(spaces) > 50
    for sub in spaces:
        checked = OrthogonalSpace(sub.gram)
        assert (sub.regular, sub.identity_gram) == (checked.regular, checked.identity_gram)


def test_wrapped_spaces_and_rotation_maps_match_the_validating_constructors(monkeypatch):
    # the Gram I, the rests of isotropy_report's hyperbolic splits and
    # spectral_form's kernel parts are regular by construction, and a
    # rotation seed's map is skew for I
    spaces = [OrthogonalSpace.standard(F, n) for F in (Q, F3, F5, F7) for n in range(5)]
    for module in (quadspace, skewcanon):
        real = module.diagonalize_form
        monkeypatch.setattr(module, "diagonalize_form",
                            lambda sub, _real=real: spaces.append(sub) or _real(sub))
    for d in _direct_check_seeds():
        for space in (d.space, build_double_extension(d).space):
            quadspace.isotropy_report(space)
        try:
            skewcanon.spectral_form(d.delta)
        except (CapabilityError, ValidationError):
            pass
    assert len(spaces) > 300
    for sub in spaces:
        checked = OrthogonalSpace(sub.gram)
        assert (sub.regular, sub.identity_gram) == (checked.regular, checked.identity_gram)
    for F in (Q, F5, F7):
        for lams in ((1,), (1, 2), (2, 2, 3)):
            _assert_trusted_skew(from_lambda_tuple(F, lams).delta)


def test_decided_pairs_have_no_untreated_part(monkeypatch):
    # split seeds give paired blocks and definite rational seeds
    # definite_semisimple blocks, for delta_1 and for mu delta_2 alike
    pairs = []
    real = oscillator.canonical_pair

    def kept(f):
        pairs.append(real(f))
        return pairs[-1]

    monkeypatch.setattr(oscillator, "canonical_pair", kept)
    for d in _direct_check_seeds():
        _outcome(lambda: decide_isometric(d, OscillatorData(d.space, d.delta.matrix.scale(2))))
    rng = random.Random(43)
    for F, lams, scale in [(Q, (1,), 3), (Q, (1, 2), 2), (Q, (1, 1), 1), (Q, (2, 2, 3), -2),
                           (Q, (1, 3, 5), Fraction(1, 2)), (F5, (1, 2), 2), (F7, (1, 3, 2), 3)]:
        d = from_lambda_tuple(F, lams)
        for _ in range(3):
            decide_isometric(d, scramble_data(rng, from_lambda_tuple(F, [scale * c for c in lams])))
    assert {b.kind for cp in pairs for b in cp.blocks} == {"paired", "definite_semisimple"}
    untreated = [cp for cp in pairs if any(r.kind == "untreated" for r in cp.residual)]
    assert not untreated


def test_nilpotent_block_sizes_follow_from_the_chains():
    # odd blocks have size at most deg m_delta, even ones a size divisible
    # by four and at most 2 deg m_delta, with no check in classify_nilpotent
    seeds = [d for d in canon_corpus().values()
             if all(pi == Polynomial.x(d.field)
                    for pi, _ in skewcanon.primary_split(d.delta).factors)]
    rng = random.Random(7)
    for base in (n23_data(F5), n32_data(F5), n23_data(Q), n32_data(Q)):
        seeds += [base] + [scramble_data(rng, base) for _ in range(3)]
    for p, n in [(3, 4), (5, 3), (7, 3)]:
        F = Field.parse(f"Fp:{p}")
        doc, _ = _census_pairs(p, n)
        space = OrthogonalSpace.standard(F, n)
        seeds += [OscillatorData(space, Matrix(F, doc["representatives"][key]))
                  for key in doc["nilpotent_degrees"]]
    assert len(seeds) > 30
    for d in seeds:
        rep = classify_nilpotent(d)
        k = rep["min_poly_degree"]
        assert all((s % 2 == 1 and s <= k) or (s % 4 == 0 and s <= 2 * k) for s in rep["sizes"])
