"""Canonical pairs for skew maps: block models, invariance, certificates."""

import random
from itertools import product

import pytest

from quadlie.errors import CapabilityError, ValidationError
from quadlie.exact_field import (
    Field,
    Polynomial,
    solve_binary,
    sqrt_in_field,
    square_class,
    square_class_representative,
)
from quadlie.linalg import Matrix, Subspace, combine, krylov, primary_component
from quadlie import oscillator, skewcanon
from quadlie.oscillator import OscillatorData, decide_isometric, from_lambda_tuple, witt1_certify
from quadlie.quadspace import OrthogonalSpace, SkewEndo, diagonalize_form, skew_basis
from quadlie.skewcanon import (
    CanonicalBlock,
    CanonicalPair,
    caalim_convert,
    canonical_pair,
    canonical_pair_nonzero,
    canonical_pair_zero,
    primary_split,
    spectral_form,
)

Q = Field.parse("Q")
F3 = Field.parse("Fp:3")
F5 = Field.parse("Fp:5")
F7 = Field.parse("Fp:7")


def jordan(field, n, lam=0):
    A = Matrix.zeros(field, n, n)
    lam = field.of(lam)
    for i in range(n):
        A.data[i][i] = lam
        if i + 1 < n:
            A.data[i][i + 1] = field.one
    return A


def paired_pair(field, n, lam):
    """J_n(lam) against its negative transpose, paired by an antidiagonal."""
    J = jordan(field, n, lam)
    A = Matrix.block_diagonal(field, [J, J.transpose().scale(field.of(-1))])
    B = Matrix.zeros(field, 2 * n, 2 * n)
    for i in range(n):
        B.data[i][n + i] = field.one
        B.data[n + i][i] = field.one
    return A, B


def raw_zero_pair(field, k0, mu):
    """Single nilpotent chain of odd length k0 with antidiagonal (-1)^i mu."""
    A = jordan(field, k0, 0)
    B = Matrix.zeros(field, k0, k0)
    c = field.of(mu)
    for i in range(k0):
        B.data[i][k0 - 1 - i] = c
        c = field.neg(c)
    return A, B


def skew(field, A, B):
    if not isinstance(A, Matrix):
        A = Matrix(field, A)
    if not isinstance(B, Matrix):
        B = Matrix(field, B)
    return SkewEndo(OrthogonalSpace(B), A)


def random_invertible(field, rng, n):
    while True:
        P = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
        if P.det() != field.zero:
            return P


def scramble(f, P):
    A = P.inverse() * f.matrix * P
    B = P.transpose() * f.space.gram * P
    return SkewEndo(OrthogonalSpace(B), A)


def check_block_vectors(f, block):
    """Re-derive the block certificate from scratch."""
    F = f.field
    vecs = block.vectors
    for r, v in enumerate(vecs):
        img = f.matrix.matvec(v)
        model = [F.zero] * len(v)
        for s, w in enumerate(vecs):
            c = block.matrix.data[s][r]
            if c != F.zero:
                model = [F.add(mi, F.mul(c, wi)) for mi, wi in zip(model, w)]
        assert img == model
    for r in range(len(vecs)):
        for s in range(len(vecs)):
            assert f.space.bilin(vecs[r], vecs[s]) == block.gram.data[r][s]


# --------------------------------------------------------------- splitting

def test_primary_split_star_pairing():
    A = Matrix.block_diagonal(
        Q, [Matrix(Q, [[0]]), Matrix.diagonal(Q, [Q.one, Q.of(-1)]),
            Matrix(Q, [[0, -1], [1, 0]])])
    B = Matrix.block_diagonal(
        Q, [Matrix(Q, [[1]]),
            Matrix(Q, [[0, 1], [1, 0]]), Matrix.identity(Q, 2)])
    f = skew(Q, A, B)
    split = primary_split(f)
    facs = {str(p): i for i, (p, _) in enumerate(split.factors)}
    assert set(facs) == {"x", "x - 1", "x + 1", "x^2 + 1"}
    assert split.pairing[facs["x - 1"]] == facs["x + 1"]
    assert split.pairing[facs["x"]] == facs["x"]
    assert split.pairing[facs["x^2 + 1"]] == facs["x^2 + 1"]
    assert not split.unpaired
    dims = {str(split.factors[i][0]): c.dim for i, c in enumerate(split.components)}
    assert dims == {"x": 1, "x - 1": 1, "x + 1": 1, "x^2 + 1": 2}


def test_four_part_split_dims_and_isotropy():
    # x^2 + 2 is irreducible mod 5, so its component is self-paired there
    A = Matrix.block_diagonal(
        F5, [Matrix(F5, [[0]]), Matrix.diagonal(F5, [F5.one, F5.of(-1)]),
             Matrix(F5, [[0, -2], [1, 0]])])
    B = Matrix.block_diagonal(
        F5, [Matrix(F5, [[1]]),
             Matrix(F5, [[0, 1], [1, 0]]), Matrix.diagonal(F5, [F5.one, F5.of(2)])])
    f = skew(F5, A, B)
    # canonical_pair's coarsening: the zero part, one +-1 pair, one
    # self-paired factor, and no radical part on a regular space
    pair = canonical_pair(f)
    assert [(b.kind, b.size) for b in pair.blocks] == [
        ("zero_odd", 1), ("paired", 2), ("definite_semisimple", 2)]
    assert sum(b.size for b in pair.blocks) == f.space.dim
    # each half of the pair (x - 1 and x + 1) is totally isotropic
    paired = pair.blocks[1]
    for half in (paired.vectors[:1], paired.vectors[1:]):
        for x in half:
            for y in half:
                assert f.space.bilin(x, y) == F5.zero


def test_cross_pair_equidimensional_check():
    # a +1 eigenvector and a -1 Jordan pair cannot be skew: the pairing
    # identity has no room, so the constructor itself must refuse
    A = Matrix.diagonal(Q, [Q.one, Q.one, Q.of(-1)])
    B = Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValidationError):
        skew(Q, A, B)


# ------------------------------------------------------ nonzero eigenvalues

def test_nonzero_peeler_rejects_other_factors():
    A = Matrix.block_diagonal(
        Q, [Matrix(Q, [[0]]), Matrix.diagonal(Q, [Q.one, Q.of(-1)]),
            Matrix(Q, [[0, -1], [1, 0]])])
    B = Matrix.block_diagonal(
        Q, [Matrix(Q, [[1]]),
            Matrix(Q, [[0, 1], [1, 0]]), Matrix.identity(Q, 2)])
    split = primary_split(skew(Q, A, B))
    facs = {str(p): i for i, (p, _) in enumerate(split.factors)}
    for name in ("x", "x^2 + 1"):
        with pytest.raises(ValidationError):
            canonical_pair_nonzero(split, facs[name])
    blocks = canonical_pair_nonzero(split, facs["x - 1"])
    assert [(b.kind, b.size) for b in blocks] == [("paired", 2)]


def test_paired_block_split_eigenvalue():
    f = skew(Q, Matrix.diagonal(Q, [Q.one, Q.of(-1)]), Matrix(Q, [[0, 1], [1, 0]]))
    pair = canonical_pair(f)
    assert pair.verify()
    assert len(pair.blocks) == 1 and not pair.residual
    b = pair.blocks[0]
    assert b.kind == "paired" and b.size == 2
    assert b.factor.degree == 1
    check_block_vectors(f, b)


def test_paired_chain_recovery_after_scramble():
    rng = random.Random(11)
    A, B = paired_pair(F5, 3, 2)
    f = skew(F5, A, B)
    base = canonical_pair(f).block_signature()
    assert base[0][0] == "paired" and base[0][1] == 6
    for _ in range(5):
        g = scramble(f, random_invertible(F5, rng, 6))
        pair = canonical_pair(g)
        assert pair.verify()
        assert pair.block_signature() == base


def test_mixed_sizes_at_one_eigenvalue():
    A1, B1 = paired_pair(F7, 2, 3)
    A2, B2 = paired_pair(F7, 1, 3)
    f = skew(F7, Matrix.block_diagonal(F7, [A1, A2]),
             Matrix.block_diagonal(F7, [B1, B2]))
    pair = canonical_pair(f)
    sizes = sorted(b.size for b in pair.blocks)
    assert sizes == [2, 4]
    assert all(b.kind == "paired" for b in pair.blocks)
    assert pair.verify()


# --------------------------------------------------------------- zero part

def test_bordered_oracle_dim3():
    # adjoint-type chain on a 3-dim space: one odd chain, mu class -1
    A = Matrix(Q, [[0, 0, 0], [1, 0, 0], [0, -1, 0]])
    B = Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    f = skew(Q, A, B)
    pair = canonical_pair(f)
    assert pair.verify()
    assert len(pair.blocks) == 1
    b = pair.blocks[0]
    assert b.kind == "zero_odd" and b.size == 3 and b.form == "bordered"
    assert b.mu_class == -1
    assert b.matrix == A and b.gram == B  # the input already is the model


def test_zero_even_pair():
    A, B = paired_pair(Q, 2, 0)
    f = skew(Q, A, B)
    pair = canonical_pair(f)
    assert pair.verify()
    assert [b.kind for b in pair.blocks] == ["zero_even"]
    assert pair.blocks[0].size == 4
    check_block_vectors(f, pair.blocks[0])


def test_zero_map_square_classes():
    f = skew(Q, Matrix.zeros(Q, 3, 3), Matrix.diagonal(Q, [Q.one, Q.of(2), Q.of(-8)]))
    pair = canonical_pair(f)
    assert pair.verify()
    classes = sorted(b.mu_class for b in pair.blocks)
    assert classes == [-2, 1, 2]
    assert all(b.kind == "zero_odd" and b.size == 1 for b in pair.blocks)


def test_repeated_odd_sizes_fp_congruence():
    # diag(2,2) and diag(1,1) are congruent over F_3 even though 2 is not
    # a square: per-chain classes would disagree, the group form must not
    fa = skew(F3, Matrix.zeros(F3, 2, 2), Matrix.diagonal(F3, [F3.of(2), F3.of(2)]))
    fb = skew(F3, Matrix.zeros(F3, 2, 2), Matrix.identity(F3, 2))
    sa = canonical_pair(fa).block_signature()
    sb = canonical_pair(fb).block_signature()
    assert sa == sb


def test_raw_bordered_conversion_roundtrip():
    A, B = raw_zero_pair(F7, 5, 1)
    f = skew(F7, A, B)
    blocks = canonical_pair_zero(primary_split(f))
    assert len(blocks) == 1
    b = blocks[0]
    assert b.kind == "zero_odd" and b.form == "bordered" and b.size == 5
    check_block_vectors(f, b)
    raw = caalim_convert(b)
    assert raw.form == "raw"
    assert raw.matrix == jordan(F7, 5, 0)
    anti = raw.gram
    c = raw.mu
    for i in range(5):
        assert anti.data[i][4 - i] == (c if i % 2 == 0 else F7.neg(c))
    check_block_vectors(f, raw)
    back = caalim_convert(raw)
    assert back.form == "bordered"
    assert back.matrix == b.matrix and back.gram == b.gram
    check_block_vectors(f, back)
    with pytest.raises(ValidationError):
        caalim_convert(canonical_pair(skew(
            Q, Matrix.diagonal(Q, [Q.one, Q.of(-1)]),
            Matrix(Q, [[0, 1], [1, 0]]))).blocks[0])


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("size", [1, 3])
def test_fp_odd_groups_standardize_exhaustively(p, size):
    # every tuple of unit scalars on m chains of one odd size: the group
    # form diag(mus) standardizes to (1, ..., 1, delta), delta the class
    # representative, and the signature is the determinant's square class;
    # square diagonal values and all-nonsquare groups (the solve_binary
    # branch) both occur
    F = Field.prime(p)
    units = [F.of(c) for c in range(1, p)]
    for m in range(2, 5 if size == 1 else 4):
        if size == 1 and m == 4 and p == 7:
            continue
        by_class = {}
        for mus in product(units, repeat=m):
            pieces = [raw_zero_pair(F, size, mu) for mu in mus]
            f = skew(F, Matrix.block_diagonal(F, [a for a, _ in pieces]),
                     Matrix.block_diagonal(F, [b for _, b in pieces]))
            pair = canonical_pair(f)
            assert [(b.kind, b.size) for b in pair.blocks] == [("zero_odd", size)] * m
            got = [b.mu for b in pair.blocks]
            assert sum(mu != F.one for mu in got) <= 1
            assert all(mu == square_class_representative(F, mu) for mu in got)
            det = F.one
            for mu in mus:
                det = F.mul(det, mu)
            by_class.setdefault(square_class(F, det), set()).add(pair.block_signature())
        assert all(len(sigs) == 1 for sigs in by_class.values())
        assert len(set.union(*by_class.values())) == len(by_class) == 2


def test_odd_chain_scramble_recovery():
    rng = random.Random(5)
    A1, B1 = raw_zero_pair(F5, 3, 1)
    A2, B2 = raw_zero_pair(F5, 3, 2)
    A3, B3 = raw_zero_pair(F5, 1, 1)
    f = skew(F5, Matrix.block_diagonal(F5, [A1, A2, A3]),
             Matrix.block_diagonal(F5, [B1, B2, B3]))
    base = canonical_pair(f).block_signature()
    for _ in range(5):
        g = scramble(f, random_invertible(F5, rng, 7))
        pair = canonical_pair(g)
        assert pair.verify()
        assert pair.block_signature() == base


# ------------------------------------------------------ semisimple quadratic

def test_definite_semisimple_rotation():
    f = skew(Q, Matrix(Q, [[0, -1], [1, 0]]), Matrix.identity(Q, 2))
    pair = canonical_pair(f)
    assert pair.verify()
    assert len(pair.blocks) == 1
    b = pair.blocks[0]
    assert b.kind == "definite_semisimple" and b.size == 2
    assert str(b.factor) == "x^2 + 1"
    check_block_vectors(f, b)
    assert [r.kind for r in pair.residual] == ["definite_semisimple"]
    # mirrored descriptor contributes no rows to the assembly
    MA, MB = pair.assembly()
    assert MA.nrows == 2 and MB.nrows == 2


def test_spectral_form_rotation_plus_kernel():
    A = Matrix.block_diagonal(Q, [Matrix(Q, [[0, -1], [1, 0]]), Matrix(Q, [[0]])])
    B = Matrix.diagonal(Q, [Q.one, Q.one, Q.of(3)])
    f = skew(Q, A, B)
    Ac, Bc, P = spectral_form(f)
    assert P.inverse() * A * P == Ac
    assert P.transpose() * B * P == Bc
    # kernel plane first, then the companion plane of x^2 + 1
    assert Ac.col(0) == [Q.zero] * 3
    assert Ac.data[2][1] == Q.one and Ac.data[1][2] == Q.of(-1)
    assert Bc.data[0][1] == Q.zero and Bc.data[1][2] == Q.zero


@pytest.mark.parametrize(
    "lams", [(1,), (1, 1), (1, 2), (2, 1), (3, 3), (1, 1, 2), (2, 1, 1), (1, 2, 3)]
)
def test_definite_canonical_pair_matches_spectral_form(lams):
    # spectral_form takes the planes of a definite seed from its canonical
    # pair, and with no kernel the two base changes and assemblies agree
    rng = random.Random(sum(lams) * 10 + len(lams))
    f = from_lambda_tuple(Q, lams).delta
    n = f.matrix.nrows
    while True:
        P = Matrix(Q, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if P.rank() == n:
            break
    scrambled = scramble(f, P)
    negated = SkewEndo(OrthogonalSpace(scrambled.space.gram.scale(-1)), scrambled.matrix)
    for g in (f, scrambled, negated):
        pair = canonical_pair(g)
        S, D, P = spectral_form(g)
        assert {b.kind for b in pair.blocks} == {"definite_semisimple"}
        assert pair.basis_change == P
        assert pair.assembly() == (S, D)
        assert [d for b in pair.blocks for d in b.mu_data] == [D.data[i][i] for i in range(0, n, 2)]


def test_spectral_form_refuses_quartic():
    A = Matrix(Q, [
        [0, 1, 1, 0],
        [-1, 0, 0, 0],
        [-1, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    f = skew(Q, A, Matrix.identity(Q, 4))
    with pytest.raises(CapabilityError) as err:
        spectral_form(f)
    assert "x^4" in str(err.value)
    pair = canonical_pair(f)
    assert pair.verify()
    assert not pair.blocks
    assert [r.kind for r in pair.residual] == ["untreated"]
    assert pair.residual[0].dim == 4


def test_spectral_form_rejects_isotropic():
    f = skew(Q, Matrix.diagonal(Q, [Q.one, Q.of(-1)]), Matrix(Q, [[0, 1], [1, 0]]))
    with pytest.raises(ValidationError):
        spectral_form(f)


# --------------------------------------------------- one split, all parts

def mixed_q_seed():
    """Odd and even zero chains next to a +-3 pair of chain length 2, scrambled."""
    parts = [raw_zero_pair(Q, 1, 2), paired_pair(Q, 2, 0), paired_pair(Q, 2, 3)]
    f = skew(Q, Matrix.block_diagonal(Q, [a for a, _ in parts]),
             Matrix.block_diagonal(Q, [b for _, b in parts]))
    P = Matrix(Q, [
        [1, -1, 0, 0, -1, -1, -1, 1, 1],
        [0, 1, 0, 0, -1, 0, 0, -1, 1],
        [0, 1, 1, 1, -1, -1, 1, 1, 1],
        [1, 0, 1, 1, 1, -1, 0, 0, -1],
        [0, 0, 0, 0, 1, -1, -1, 1, 1],
        [0, -1, -1, 1, -1, 1, 0, 0, -1],
        [1, 1, 1, 1, 1, -1, 1, 0, -1],
        [1, 0, 0, 0, 1, -1, -1, 1, 1],
        [1, -1, -1, 1, 1, 0, 0, 1, -1],
    ])
    return scramble(f, P)


# canonical_pair(mixed_q_seed()).to_json(), frozen before the peelers
# shared one primary split
MIXED_Q_BLOCKS = [
    {"factor": ["-3", "1"], "kind": "paired", "mu_class": None, "size": 4},
    {"factor": ["0", "1"], "form": "bordered", "kind": "zero_odd", "mu": "2",
     "mu_class": "2", "size": 1},
    {"factor": ["0", "1"], "kind": "zero_even", "mu_class": None, "size": 4},
]
MIXED_Q_BASIS_CHANGE = [
    "0", "0", "-1", "0", "0", "-1", "1", "0", "0",
    "-3/2", "0", "1", "3/2", "0", "0", "1", "0", "1/2",
    "0", "1", "-1/3", "1/2", "1/2", "-3/2", "1", "1", "1/2",
    "0", "1", "-2/3", "-1/2", "1/2", "1/2", "-1", "0", "-1/2",
    "3/4", "0", "-1", "-3/4", "1/2", "0", "-1/2", "0", "-1/4",
    "-1/2", "5/3", "-4/3", "1/2", "1", "-2", "2", "1", "1/2",
    "3/2", "-1", "-1", "-3/2", "0", "0", "0", "0", "-1/2",
    "-1", "1/3", "1/3", "1", "0", "-1", "2", "1", "1",
    "5/4", "1/3", "-5/3", "-5/4", "1/2", "0", "-1/2", "0", "-3/4",
]


def test_mixed_q_seed_frozen_json():
    doc = canonical_pair(mixed_q_seed()).to_json()
    assert doc["blocks"] == MIXED_Q_BLOCKS
    assert doc["residual"] == []
    assert doc["basis_change"] == {"rows": 9, "cols": 9, "entries": MIXED_Q_BASIS_CHANGE}


def definite_q_seed(lams):
    """Rotation planes with the given scalars, in a scrambled basis."""
    d = from_lambda_tuple(Q, lams)
    P = Matrix(Q, [[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 2]])
    f = scramble(d.delta, P)
    return OscillatorData(f.space, f)


def _pair_then_spectral():
    f = definite_q_seed((1, 2)).delta
    pair = canonical_pair(f)
    assert [b.kind for b in pair.blocks] == ["definite_semisimple"] * 2
    spectral_form(f)


def _mixed_pair():
    pair = canonical_pair(mixed_q_seed())
    assert {b.kind for b in pair.blocks} == {"paired", "zero_odd", "zero_even"}


def _definite_decision():
    # scale 2 carries the (1, 2) rotations onto the (2, 4) ones
    out = decide_isometric(from_lambda_tuple(Q, (2, 4)), definite_q_seed((1, 2)))
    assert out["verdict"] == "yes" and out["mu"] == 2


def test_canonical_pair_computes_one_minimal_polynomial(monkeypatch):
    calls = []
    real = skewcanon.minimal_polynomial

    def counted(A):
        calls.append(tuple(map(tuple, A.data)))
        return real(A)

    for module in (skewcanon, oscillator):
        monkeypatch.setattr(module, "minimal_polynomial", counted)
    # one per map, however many readers share the map's split
    for run, maps in [
        (_mixed_pair, 1),
        (_pair_then_spectral, 1),
        (lambda: witt1_certify(definite_q_seed((1, 3))), 1),
        (_definite_decision, 2),  # d1 and d2; d2 scaled by 2 derives its split
    ]:
        calls.clear()
        run()
        assert len(calls) == len(set(calls)) == maps


def test_scaled_map_split_matches_a_fresh_split():
    A7, B7 = paired_pair(F7, 2, 3)
    rot = Matrix(F7, [[0, -1], [1, 0]])  # x^2 + 1 is irreducible mod 7
    f7 = skew(F7, Matrix.block_diagonal(F7, [A7, rot]),
              Matrix.block_diagonal(F7, [B7, Matrix.identity(F7, 2)]))
    f7 = scramble(f7, random_invertible(F7, random.Random(0), 6))
    # the eigenvalue 1 sits in the radical, with no partner -1
    degenerate = skew(Q, Matrix.diagonal(Q, [0, 0, 1]), Matrix.diagonal(Q, [1, 1, 0]))
    # x^3 - x + 1 on the zero form: mu^2 = 1 from x^1, and only mu = -1
    # matches the constant term
    cubic = skew(Q, _companion(Q, [1, -1, 0]), Matrix.zeros(Q, 3, 3))
    cases = [
        (mixed_q_seed(), ["2", "-3", "1/2"]),
        (definite_q_seed((1, 2)).delta, ["2", "-1"]),
        (degenerate, ["3"]),
        (f7, [2, 3, 6]),
    ]
    for f, scales in cases:
        F = f.field
        for mu in map(F.of, scales):
            g = skewcanon.scaled_map(f, mu)
            assert g.matrix == f.matrix.scale(mu)
            fresh = primary_split(SkewEndo(f.space, f.matrix.scale(mu)))
            for attr in ("minpoly", "factors", "components", "pairing", "unpaired"):
                assert getattr(g.split, attr) == getattr(fresh, attr)
            assert g.split.endo is g
    with pytest.raises(ValidationError):
        skewcanon.scaled_map(f7, F7.zero)


def _census_key(cp):
    res = tuple((r.kind, tuple(str(p0) for p0 in r.factors), r.dim) for r in cp.residual)
    return repr((cp.block_signature(), res))


def test_scaled_pair_keys_match_full_pairs_exhaustively():
    # every skew map of the standard form over (F3, 2 <= n <= 4) and
    # (F5, F7, 2 <= n <= 3), at every scale mu = 2 .. p - 1
    kinds, count = set(), 0
    for p, dims in ((3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))):
        F = Field.parse(f"Fp:{p}")
        for n in dims:
            space = OrthogonalSpace.standard(F, n)
            basis = skew_basis(space)
            for coeffs in product(range(p), repeat=len(basis)):
                M = Matrix.zeros(F, n, n)
                for c, B in zip(coeffs, basis):
                    M = M + B.scale(c)
                pair = canonical_pair(SkewEndo(space, M))
                for mu in range(2, p):
                    scaled = skewcanon.scaled_pair(pair, mu)
                    assert scaled.endo.matrix == M.scale(mu)
                    fresh = canonical_pair(SkewEndo(space, M.scale(mu)))
                    assert _census_key(scaled) == _census_key(fresh)
                    kinds.update(part.kind for part in scaled.blocks + scaled.residual)
                    count += 1
    assert count == 2899
    assert kinds == {"paired", "zero_even", "zero_odd", "definite_semisimple", "untreated"}


def test_scaled_pair_keys_match_full_pairs_over_q():
    cases = [(mixed_q_seed(), ["2", "-3", "1/2"]), (definite_q_seed((1, 2)).delta, ["2", "-1"]),
             (_companion_pair(Q, [1, -1, 0]), ["3", "-1/2"])]
    for f, scales in cases:
        pair = canonical_pair(f)
        for mu in map(Q.of, scales):
            fresh = canonical_pair(SkewEndo(f.space, f.matrix.scale(mu)))
            assert _census_key(skewcanon.scaled_pair(pair, mu)) == _census_key(fresh)
    with pytest.raises(ValidationError, match="scale must be nonzero"):
        skewcanon.scaled_pair(pair, 0)


def _shifted_paired_model(monkeypatch):
    # the model at lambda + 1: the chain vectors no longer realize it
    real = skewcanon._paired_model
    monkeypatch.setattr(skewcanon, "_paired_model",
                        lambda F, n, lam: real(F, n, F.add(lam, F.one)))


def test_tampered_scaled_block_fails_the_block_certificate(monkeypatch):
    # the pair certificate is the only one scaled_pair runs, and it covers
    # every block
    A, B = paired_pair(F5, 2, 1)
    pair = canonical_pair(skew(F5, A, B))
    assert [b.kind for b in skewcanon.scaled_pair(pair, 2).blocks] == ["paired"]
    _shifted_paired_model(monkeypatch)
    with pytest.raises(ValidationError, match="canonical certificate failed on the map"):
        skewcanon.scaled_pair(pair, 2)


def test_tampered_canonical_block_fails_the_pair_certificate(monkeypatch):
    A, B = paired_pair(F5, 2, 1)
    f = skew(F5, A, B)
    assert [b.kind for b in canonical_pair(f).blocks] == ["paired"]
    _shifted_paired_model(monkeypatch)
    with pytest.raises(ValidationError, match="canonical certificate failed on the map"):
        canonical_pair(f)


def _companion(field, coeffs):
    """The companion matrix of the monic q = x^k + sum coeffs[i] x^i."""
    k = len(coeffs)
    C = Matrix.zeros(field, k, k)
    for i in range(k):
        if i + 1 < k:
            C.data[i + 1][i] = field.one
        C.data[i][k - 1] = field.neg(field.of(coeffs[i]))
    return C


def _companion_pair(field, coeffs):
    """The companion C of q against -C^T, paired by an antidiagonal: the
    minimal polynomial is lcm(q, q*)."""
    k = len(coeffs)
    C = _companion(field, coeffs)
    A = Matrix.block_diagonal(field, [C, C.transpose().scale(field.of(-1))])
    B = Matrix.zeros(field, 2 * k, 2 * k)
    for i in range(k):
        B.data[i][k + i] = B.data[k + i][i] = field.one
    return skew(field, A, B)


# -------------------------------------------------------- tampered certificates

def _bumped(M, i, j):
    F = M.field
    out = M.copy()
    out.data[i][j] = F.add(out.data[i][j], F.one)
    return out


def _with(block, **changes):
    fields = {k: getattr(block, k) for k in CanonicalBlock.__slots__}
    fields.update(changes)
    return CanonicalBlock(**fields)


def test_tampered_block_vectors_fail_the_map_check():
    f = mixed_q_seed()
    for block in canonical_pair(f).blocks:
        skewcanon._verify_block(f, block)
        vecs = [list(v) for v in block.vectors]
        vecs[0][0] = Q.add(vecs[0][0], Q.one)
        with pytest.raises(ValidationError, match="map action mismatch"):
            skewcanon._verify_block(f, _with(block, vectors=vecs))


def test_tampered_model_gram_fails_the_gram_check():
    f = mixed_q_seed()
    for block in canonical_pair(f).blocks:
        with pytest.raises(ValidationError, match="block certificate failed: Gram mismatch"):
            skewcanon._verify_block(f, _with(block, gram=_bumped(block.gram, 0, block.size - 1)))


def test_tampered_converted_block_fails_the_model():
    A, B = raw_zero_pair(Q, 3, 2)
    f = scramble(skew(Q, A, B), Matrix(Q, [[1, 1, 0], [0, 1, 1], [1, 0, 2]]))
    [block] = canonical_pair_zero(primary_split(f))
    assert block.form == "bordered"
    assert caalim_convert(block).form == "raw"
    for changed in ({"gram": _bumped(block.gram, 0, 2)}, {"matrix": _bumped(block.matrix, 1, 0)}):
        with pytest.raises(ValidationError, match="chain conversion does not match the model"):
            caalim_convert(_with(block, **changed))


def test_block_edges():
    A, B = raw_zero_pair(Q, 3, 2)
    [block] = canonical_pair_zero(primary_split(skew(Q, A, B)))
    assert block.mu_data is None  # plane scalars belong to definite blocks
    with pytest.raises(ValidationError, match="block does not carry a chain convention"):
        caalim_convert(_with(block, form=None))
    # an invertible map has no zero part
    A, B = paired_pair(F5, 2, 1)
    assert canonical_pair_zero(primary_split(skew(F5, A, B))) == []


def test_degenerate_forms_are_refused():
    f = skew(Q, [[0, 0], [0, 0]], [[1, 0], [0, 0]])
    split = primary_split(f)
    for build in (canonical_pair_zero, lambda s: canonical_pair_nonzero(s, 0)):
        with pytest.raises(ValidationError, match="canonical pairs require a regular form"):
            build(split)
    with pytest.raises(ValidationError, match="spectral form requires a regular form"):
        spectral_form(f)


def test_tampered_components_fail_the_decomposition_check(monkeypatch):
    A, B = paired_pair(F5, 1, 2)  # components x - 2 and x + 2, one line each
    assert [c.dim for c in primary_split(skew(F5, A, B)).components] == [1, 1]
    first = []

    def same_line(A, pi, k):
        # every factor gets the first component: the dimensions add up to n
        # but the sum is one line
        first.append(first[0] if first else primary_component(A, pi, k))
        return first[-1]

    monkeypatch.setattr(skewcanon, "primary_component", same_line)
    with pytest.raises(ValidationError, match="primary components do not decompose the space"):
        primary_split(skew(F5, A, B))


def test_tampered_meet_fails_the_peel_check(monkeypatch):
    A, B = paired_pair(F5, 2, 1)
    f = skew(F5, A, B)
    split = primary_split(f)
    assert len(canonical_pair_nonzero(split, 0)) == 1
    # a meet that keeps the whole part: the peeled block leaves no dimension
    monkeypatch.setattr(Subspace, "meet_kernel", lambda S, C: S)
    with pytest.raises(ValidationError, match="peeled block is not regular inside the part"):
        canonical_pair_nonzero(split, 0)


def test_tampered_basis_change_fails_the_pair_certificate():
    pair = canonical_pair(mixed_q_seed())
    assert pair.verify()
    bad = CanonicalPair(pair.endo, pair.blocks, pair.residual, _bumped(pair.basis_change, 0, 0))
    with pytest.raises(ValidationError, match="canonical certificate failed on the map"):
        bad.verify()


def test_singular_basis_change_fails_the_pair_certificate():
    # the zero map satisfies A P = P M for every P: only the rank check
    # stands between a singular P and the certificate
    f = skew(Q, Matrix.zeros(Q, 2), Matrix.identity(Q, 2))
    pair = canonical_pair(f)
    P = Matrix(Q, [[1, 1], [0, 0]])
    assert f.matrix * P == P * pair.assembly()[0]
    with pytest.raises(ValidationError, match="canonical certificate failed on the map"):
        CanonicalPair(f, pair.blocks, pair.residual, P).verify()


def test_tampered_spectral_form_fails_its_certificate(monkeypatch):
    A = Matrix.block_diagonal(Q, [Matrix(Q, [[0, -1], [1, 0]]), Matrix(Q, [[0]])])
    f = skew(Q, A, Matrix.diagonal(Q, [Q.one, Q.one, Q.of(3)]))
    spectral_form(f)
    definite_block, diagonalize_form = skewcanon._definite_block, skewcanon.diagonalize_form

    def bumped_plane(*args):
        block = definite_block(*args)
        return _with(block, matrix=_bumped(block.matrix, 0, 0))

    monkeypatch.setattr(skewcanon, "_definite_block", bumped_plane)
    with pytest.raises(ValidationError, match="spectral certificate failed on the map"):
        spectral_form(f)
    monkeypatch.setattr(skewcanon, "_definite_block", definite_block)

    def doubled_kernel(space):
        P0, d0 = diagonalize_form(space)
        return P0, [Q.add(d, d) for d in d0]

    monkeypatch.setattr(skewcanon, "diagonalize_form", doubled_kernel)
    with pytest.raises(ValidationError, match="spectral certificate failed on the form"):
        spectral_form(f)


# ------------------------------------------------------------ invariance

def test_signature_invariance_mixed_assembly():
    rng = random.Random(2026)
    A1, B1 = paired_pair(F3, 2, 1)
    A2, B2 = raw_zero_pair(F3, 3, 1)
    A3, B3 = paired_pair(F3, 2, 0)
    A = Matrix.block_diagonal(F3, [A1, A2, A3])
    B = Matrix.block_diagonal(F3, [B1, B2, B3])
    f = skew(F3, A, B)
    base = canonical_pair(f)
    assert base.verify()
    kinds = sorted(b.kind for b in base.blocks)
    assert kinds == ["paired", "zero_even", "zero_odd"]
    for _ in range(8):
        g = scramble(f, random_invertible(F3, rng, 11))
        pair = canonical_pair(g)
        assert pair.verify()
        assert pair.block_signature() == base.block_signature()


def test_rational_scramble_distinct_odd_sizes():
    rng = random.Random(7)
    A1, B1 = raw_zero_pair(Q, 3, 2)
    A2, B2 = raw_zero_pair(Q, 1, -3)
    A3, B3 = paired_pair(Q, 2, 2)
    A = Matrix.block_diagonal(Q, [A1, A2, A3])
    B = Matrix.block_diagonal(Q, [B1, B2, B3])
    f = skew(Q, A, B)
    base = canonical_pair(f)
    assert base.verify()
    assert sorted(b.mu_class for b in base.blocks if b.kind == "zero_odd") == [-3, 2]
    for _ in range(4):
        P = random_invertible(Q, rng, 8)
        pair = canonical_pair(scramble(f, P))
        assert pair.verify()
        assert pair.block_signature() == base.block_signature()


def test_degenerate_form_rejected():
    # the zero map is skew for any symmetric form, degenerate ones included
    space = OrthogonalSpace(Matrix.diagonal(Q, [Q.one, Q.zero]))
    f = SkewEndo(space, Matrix.zeros(Q, 2, 2))
    with pytest.raises(ValidationError):
        canonical_pair(f)


# ------------------------------------- oracles for the zero part, peeled as before

def _group_standardize_by_peeling(F, mus):
    """_fp_group_standardize as it was before it kept the part left as rows
    with their values, kept as an oracle: each pass diagonalizes the
    restricted Gram of the part left on an OrthogonalSpace and peels the
    unit vector off with _peel."""
    m = len(mus)
    space = OrthogonalSpace(Matrix.diagonal(F, mus))
    cols = []
    S = Subspace.full(F, m)
    for _ in range(m - 1):
        P0, d0 = diagonalize_form(OrthogonalSpace(space.restrict_gram(S.basis)))
        lifted = (P0.transpose() * Matrix._wrap(F, S.basis)).data
        x = None
        for i, di in enumerate(d0):
            r = sqrt_in_field(F, di)
            if r is not None:
                x = combine(F, [F.inv(r)], [lifted[i]])
                break
        if x is None:
            x = combine(F, list(solve_binary(F, d0[0], d0[1], F.one)), lifted[:2])
        assert space.quad(x) == F.one
        cols.append(x)
        [S] = skewcanon._peel(space, [S], [x])
    last = S.basis[0]
    val = space.quad(last)
    rep = square_class_representative(F, val)
    r = sqrt_in_field(F, F.div(val, rep))
    cols.append(combine(F, [F.inv(r)], [last]))
    return Matrix._wrap(F, cols).transpose(), [F.one] * (m - 1) + [rep]


def _zero_blocks_by_peeling(split):
    """_zero_blocks as it was before _kernel_generators, kept as an oracle:
    chains of length 1 too are taken one _zero_odd_generator and one _peel
    at a time, and groups standardized by _group_standardize_by_peeling."""
    f = split.endo
    space, F = f.space, f.field
    A = f.matrix
    x = Polynomial.x(F)
    kernels = [c for (pi, _), c in zip(split.factors, split.components) if pi == x]
    if not kernels:
        return []
    S = kernels[0]
    blocks, odd_pending = [], {}
    while S.dim > 0:
        k0 = skewcanon._chain_length(A, S)
        if k0 % 2 == 0:
            block = skewcanon._zero_even_step(f, S, k0)
            blocks.append(block)
            span = block.vectors
        else:
            w, mu_raw = skewcanon._zero_odd_generator(f, S, k0)
            odd_pending.setdefault(k0, []).append((w, mu_raw))
            span = krylov(A, w, k0 - 1)
        [S] = skewcanon._peel(space, [S], span)
    for k0 in sorted(odd_pending):
        group = odd_pending[k0]
        if F.p != 0 and len(group) > 1:
            g, nus = _group_standardize_by_peeling(F, [mu for _, mu in group])
            mixed = (g.transpose() * Matrix._wrap(F, [w for w, _ in group])).data
            blocks += [skewcanon._emit_odd_block(f, mixed[i], nu, k0) for i, nu in enumerate(nus)]
        else:
            for w, mu_raw in group:
                rep = square_class_representative(F, mu_raw)
                scale = sqrt_in_field(F, F.div(mu_raw, rep))
                blocks.append(skewcanon._emit_odd_block(f, combine(F, [F.inv(scale)], [w]), rep, k0))
    return blocks


def _pairs_both_ways(monkeypatch, maps):
    """canonical_pair(f).to_json() of each map, and the same with the zero
    part peeled as before; each map is split afresh on each side."""
    got = [canonical_pair(SkewEndo(f.space, f.matrix)).to_json() for f in maps]
    with monkeypatch.context() as m:
        m.setattr(skewcanon, "_zero_blocks", _zero_blocks_by_peeling)
        want = [canonical_pair(SkewEndo(f.space, f.matrix)).to_json() for f in maps]
    return got, want


def _census_maps(F, n):
    # every skew map of the standard form of F_p^n, as the census enumerates them
    space = OrthogonalSpace.standard(F, n)
    basis = skew_basis(space)
    for coeffs in product(range(F.p), repeat=len(basis)):
        M = Matrix.zeros(F, n, n)
        for c, X in zip(coeffs, basis):
            if c:
                M = M + X.scale(c)
        yield SkewEndo(space, M)


@pytest.mark.parametrize("p, n", [(3, n) for n in range(5)] + [(5, n) for n in range(4)]
                         + [(7, n) for n in range(4)])
def test_kernel_generators_match_the_peel_loop_on_census_maps(monkeypatch, p, n):
    got, want = _pairs_both_ways(monkeypatch, list(_census_maps(Field.prime(p), n)))
    assert got == want


def _random_regular_gram(F, rng, n):
    while True:
        B = Matrix.zeros(F, n, n)
        for i in range(n):
            for j in range(i, n):
                B.data[i][j] = B.data[j][i] = F.of(rng.randint(-2, 2))
        if B.det() != F.zero and B != Matrix.identity(F, n):
            return B


@pytest.mark.parametrize("field", [Q, F3, F5, F7], ids=lambda F: F.spec())
def test_kernel_generators_match_the_peel_loop_on_seeded_grams(monkeypatch, field):
    # regular Grams other than I, with skew maps of wide kernels: the
    # all-isotropic repair w = s_0 + s_j and the nonsquare groups occur
    rng = random.Random(f"kernel {field.spec()}")
    maps = []
    for n in range(1, 7):
        for _ in range(12):
            space = OrthogonalSpace(_random_regular_gram(field, rng, n))
            M = Matrix.zeros(field, n, n)
            for X in skew_basis(space):
                if rng.random() < 0.3:
                    M = M + X.scale(rng.randint(1, 4))
            maps.append(SkewEndo(space, M))
    got, want = _pairs_both_ways(monkeypatch, maps)
    assert got == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_group_standardize_matches_the_peel_loop_on_every_tuple(p):
    F = Field.prime(p)
    units = [F.of(c) for c in range(1, p)]
    for m in range(2, 5):
        for mus in product(units, repeat=m):
            g, nus = skewcanon._fp_group_standardize(F, list(mus))
            want_g, want_nus = _group_standardize_by_peeling(F, list(mus))
            assert (g, nus) == (want_g, want_nus)


def _conversion_matrix(F, n):
    """Columns express the bordered basis in raw-chain coordinates.

    Raw position i holds f^{2n-i} w; the bordered order is the lower half
    of the chain, then f^n w, then the upper half with alternating signs.
    """
    size = 2 * n + 1
    T = Matrix.zeros(F, size)
    for r in range(n):
        T.data[n + 1 + r][r] = F.one
    T.data[n][n] = F.one
    sign = F.neg(F.one)
    for j in range(n):
        T.data[n - 1 - j][n + 1 + j] = sign
        sign = F.neg(sign)
    return T


@pytest.mark.parametrize("field", [Q, F7], ids=lambda F: F.spec())
@pytest.mark.parametrize("n", range(5))
def test_odd_block_basis_is_the_conversion_of_the_chain(field, n):
    # a scrambled single chain of length 2n + 1, so the chain vectors are dense
    A, B = raw_zero_pair(field, 2 * n + 1, 3)
    f = scramble(skew(field, A, B), random_invertible(field, random.Random(n), 2 * n + 1))
    w = next(b for b in Subspace.full(field, 2 * n + 1).basis
             if any(krylov(f.matrix, b, 2 * n)[2 * n]))
    chain = krylov(f.matrix, w, 2 * n)
    mu = f.space.bilin(w, chain[2 * n])
    block = skewcanon._emit_odd_block(f, w, mu, 2 * n + 1)
    T = _conversion_matrix(field, n)
    assert block.vectors == (T.transpose() * Matrix._wrap(field, chain[::-1])).data
    # and caalim_convert is the conjugation by T, back to the raw chain
    raw = caalim_convert(block)
    assert raw.matrix == T * block.matrix * T.transpose()
    assert raw.gram == T * block.gram * T.transpose()
    assert raw.vectors == (T * Matrix._wrap(field, block.vectors)).data == chain[::-1]
    assert caalim_convert(raw).vectors == block.vectors


def test_tampered_kernel_generator_fails_the_pair_certificate(monkeypatch):
    # +-2 on e_0, e_1 beside a kernel line e_2: a generator moved off the
    # kernel by e_0 still carries its own scalar but f does not kill it
    A, B = paired_pair(F5, 1, 2)
    A = Matrix.block_diagonal(F5, [A, Matrix.zeros(F5, 1, 1)])
    B = Matrix.block_diagonal(F5, [B, Matrix.identity(F5, 1)])
    f = skew(F5, A, B)
    assert sorted(b.kind for b in canonical_pair(f).blocks) == ["paired", "zero_odd"]
    real = skewcanon._kernel_generators

    def moved(F, rows, H):
        out = []
        for w, _ in real(F, rows, H):
            w = [F.add(a, b) for a, b in zip(w, [F.one, F.zero, F.zero])]
            out.append((w, f.space.quad(w)))
        return out

    monkeypatch.setattr(skewcanon, "_kernel_generators", moved)
    with pytest.raises(ValidationError, match="canonical certificate failed on the map"):
        canonical_pair(skew(F5, A, B))


def test_tampered_odd_block_scalar_fails_the_block_and_pair_certificates(monkeypatch):
    # the kernel line e_2 carries mu = 1; emitted with 2 mu, the block's Gram
    # entry no longer matches phi(w, w)
    A, B = paired_pair(F5, 1, 2)
    A = Matrix.block_diagonal(F5, [A, Matrix.zeros(F5, 1, 1)])
    B = Matrix.block_diagonal(F5, [B, Matrix.identity(F5, 1)])
    pair = canonical_pair(skew(F5, A, B))
    real = skewcanon._emit_odd_block
    monkeypatch.setattr(skewcanon, "_emit_odd_block",
                        lambda f, w, mu, k0: real(f, w, f.field.add(mu, mu), k0))
    with pytest.raises(ValidationError, match="block certificate failed: Gram mismatch"):
        canonical_pair_zero(primary_split(skew(F5, A, B)))
    with pytest.raises(ValidationError, match="canonical certificate failed on the form"):
        canonical_pair(skew(F5, A, B))
    with pytest.raises(ValidationError, match="canonical certificate failed on the form"):
        skewcanon.scaled_pair(pair, F5.of(2))


def test_tampered_unit_vector_fails_the_group_certificate(monkeypatch):
    # over F7 both values 3 are nonsquares, so the first unit vector is
    # a s_0 + b s_1 from solve_binary; with 2a in place of a its value is
    # 1 + 3 a^2 d_0, neither 1 nor 0
    mus = [F7.of(3), F7.of(3)]
    skewcanon._fp_group_standardize(F7, mus)
    real = skewcanon.solve_binary

    def doubled(F, d0, d1, c):
        a, b = real(F, d0, d1, c)
        return F.add(a, a), b

    monkeypatch.setattr(skewcanon, "solve_binary", doubled)
    with pytest.raises(ValidationError, match="group standardization certificate failed"):
        skewcanon._fp_group_standardize(F7, mus)
