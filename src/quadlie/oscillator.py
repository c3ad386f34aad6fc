"""One dimensional double extensions of orthogonal spaces.

Everything here is built from a seed pair: a regular space (V, phi) and a
phi-skew map delta. The extended algebra lives on the basis
(delta, v_1..v_n, delta*) with

    [delta, x] = delta(x),   [x, y] = phi(delta(x), y) delta*,

delta* central, and the invariant form phi_delta restricting to phi on V
and pairing delta with delta* hyperbolically. The operations below pull
structure out of that seed: central series against the delta-power
predictions, nilpotent classification keys, locality tests, isomorphism
witnesses and decisions, and the two parameter family of invariant forms.
"""

import sys
from array import array
from operator import mul

from .errors import CapabilityError, ValidationError, json_list
from .exact_field import (
    Polynomial,
    conic_point,
    factor_poly,
    hilbert_obstructions,
    poly_star,
    sqrt_in_field,
    square_class,
)
from .linalg import (
    Matrix,
    Subspace,
    image_basis,
    kernel_basis,
    minimal_polynomial,
    poly_at_matrix,
)
from .quadspace import (
    OrthogonalSpace,
    SkewEndo,
    hyperbolic_split,
    is_definite,
    isotropy_report,
    ortho_complement,
)
from .skewcanon import canonical_pair, primary_split, scaled_map, scaled_pair
from .liecore import (
    LieAlgebra,
    QuadraticLieAlgebra,
    bracket_span,
    centre,
    derived_algebra,
    derived_series,
    form_in_span,
    invariant_forms_basis,
    is_heisenberg,
    is_homomorphism,
    lower_central_series,
    upper_central_series,
)


class OscillatorData:
    """Seed of a double extension: a regular space and a skew map on it.

    The extension basis convention is fixed once and for all: index 0 is
    delta, indices 1..n are the space V, index n+1 is delta*. recovery,
    when set, records how the seed was carved out of a presented algebra.
    The space is checked regular here, and delta skew unless it is
    already a SkewEndo on this space, which makes the extension quadratic.
    """

    __slots__ = ("space", "delta", "recovery")

    def __init__(self, space, delta):
        if not space.regular:
            raise ValidationError("double extensions need a regular core form")
        if isinstance(delta, SkewEndo):
            if delta.space is not space:
                delta = SkewEndo(space, delta.matrix)
        else:
            delta = SkewEndo(space, delta)
        self.space = space
        self.delta = delta
        self.recovery = None

    @property
    def field(self):
        return self.space.field

    @property
    def dim_v(self):
        return self.space.dim

    @property
    def dim(self):
        return self.space.dim + 2

    def embed(self, v):
        """A vector of V in the coordinates of the extension."""
        F = self.field
        return [F.zero] + list(v) + [F.zero]

    def delta_axis(self):
        F = self.field
        return [F.one] + [F.zero] * (self.space.dim + 1)

    def star_axis(self):
        F = self.field
        return [F.zero] * (self.space.dim + 1) + [F.one]

    def to_json(self):
        return {**self.space.to_json(), "delta": self.delta.matrix.to_json()}

    @classmethod
    def from_json(cls, doc, field=None):
        space = OrthogonalSpace.from_json(doc, field)
        return cls(space, Matrix.from_json(space.field, doc["delta"]))

    def __repr__(self):
        return f"OscillatorData(dim V = {self.space.dim} over {self.field.spec()})"


def from_lambda_tuple(field, lams):
    """Seed with identity form and one rotation plane per tuple entry.

    Plane i carries delta(x_i) = -lam_i y_i, delta(y_i) = lam_i x_i, so the
    minimal polynomial collects the factors x^2 + lam_i^2.
    """
    lams = [field.of(c) for c in lams]
    if any(not c for c in lams):
        raise ValidationError("rotation scalars must be nonzero")
    n = 2 * len(lams)
    A = Matrix.zeros(field, n, n)
    for i, lam in enumerate(lams):
        A.data[2 * i][2 * i + 1] = lam
        A.data[2 * i + 1][2 * i] = field.neg(lam)
    space = OrthogonalSpace.standard(field, n)
    # skew for B = I by construction, with Omega = A^T
    return OscillatorData(space, SkewEndo._wrap(space, A, A.transpose()))


def _core_brackets(omega, shift):
    """[v_i, v_j] = phi(delta v_i, v_j) delta* for i < j, nonzero only, with
    the core at indices shift..shift+n-1 and delta* last, at shift+n; the
    coefficient is entry (i, j) of the n x n matrix Omega = A^T B."""
    F = omega.field
    n = omega.nrows
    out = {}
    for i, row in enumerate(omega.data):
        for j in range(i + 1, n):
            if row[j]:
                vec = [F.zero] * (shift + n + 1)
                vec[shift + n] = row[j]
                out[(shift + i, shift + j)] = vec
    return out


def build_double_extension(data):
    """The quadratic algebra d(V, phi, delta) on the basis (delta, V, delta*).

    Quadratic by Medina and Revoy, as the seed checked delta skew on a
    regular core: the Jacobi sum on (delta, x, y) is phi(delta^2 x, y) -
    phi(delta^2 y, x) = 0, delta^2 being phi-symmetric, and the rest follows
    from delta* central and paired with delta. So nothing is checked here.
    """
    F = data.field
    A = data.delta.matrix
    table = {
        (0, j + 1): [F.zero] + col + [F.zero]
        for j, col in enumerate(A.cols())
        if any(col)
    }
    table.update(_core_brackets(data.delta.omega, 1))
    # every entry is already canonical: nothing is coerced again
    L = LieAlgebra._wrap(F, data.space.dim + 2, table)
    return QuadraticLieAlgebra._wrap(L, OrthogonalSpace._wrap(_extension_gram(data, F.zero, F.one)))


def _extension_gram(data, t, s):
    """Gram of phi_{t,s} on (delta, V, delta*): t at delta, s pairing delta
    with delta* and scaling phi on V."""
    F = data.field
    n = data.space.dim
    G = Matrix.zeros(F, n + 2, n + 2)
    G.data[0][0] = t
    G.data[0][n + 1] = G.data[n + 1][0] = s
    for i, row in enumerate(data.space.gram.data):
        G.data[i + 1][1 : n + 1] = row if s == F.one else [F.mul(s, c) for c in row]
    return G


# ---------------------------------------------------------------------------
# structure verification against the delta-power predictions


def _embedded(data, sub, with_star):
    vecs = [data.embed(v) for v in sub.basis]
    if with_star:
        vecs.append(data.star_axis())
    return Subspace._wrap(data.field, data.dim, vecs)


def verify_structure(data):
    """Check the computed series of the extension term by term.

    For delta^k nonzero the predictions are A^{k+1} = im(delta^k) + K delta*
    and Z_k = ker(delta^k) + K delta*; once delta^k vanishes the lower
    series is zero and the upper one is everything. Each Z_k must be the
    orthogonal complement of A^{k+1}. The algebra is nilpotent exactly when
    delta is, with index deg m_delta. The second derived term is K delta*
    when delta^3 is nonzero and zero otherwise (the brackets of A^2 with
    itself evaluate through phi(delta^3 ., .)), the third is always zero,
    so the extension is always solvable. For invertible delta the derived
    algebra V + K delta* is Heisenberg and a basis with
    phi(delta(v_i), w_j) = delta_ij is extracted and checked entry by entry.

    Raises ValidationError on the first mismatch; returns a report dict.
    """
    F = data.field
    n = data.space.dim
    A = data.delta.matrix
    Q = build_double_extension(data)
    L = Q.algebra
    dim = L.dim

    lower = lower_central_series(L)
    upper = upper_central_series(L)
    ders = derived_series(L)
    m = minimal_polynomial(A)
    depth = max(2, m.degree + 1)

    powers = [A]  # delta^k at index k - 1, one product per step
    while len(powers) < max(depth, 3):
        powers.append(powers[-1] * A)
    for k in range(1, depth + 1):
        D = powers[k - 1]
        if D.is_zero():
            pred_low = Subspace.zero(F, dim)
            pred_up = Subspace.full(F, dim)
        else:
            pred_low = _embedded(data, image_basis(D), with_star=True)
            pred_up = _embedded(data, kernel_basis(D), with_star=True)
        got_low = lower[min(k, len(lower) - 1)]
        got_up = upper[min(k - 1, len(upper) - 1)]
        if got_low != pred_low:
            raise ValidationError(f"lower series mismatch at step {k + 1}")
        if got_up != pred_up:
            raise ValidationError(f"upper series mismatch at step {k}")
        if ortho_complement(Q.space, got_up) != got_low:
            raise ValidationError(f"series duality fails at step {k}")

    delta_nilpotent = not any(m.coeff(i) for i in range(m.degree))
    if (lower[-1].dim == 0) != delta_nilpotent:
        raise ValidationError("nilpotency of the extension disagrees with the seed")
    index = None
    if delta_nilpotent:
        index = len(lower) - 1
        # an empty or zero seed still leaves a one-step abelian algebra
        if index != max(1, m.degree):
            raise ValidationError("nilpotency index differs from deg m_delta")

    # derived tail: [A^2, A^2] lands in K delta* and is nonzero iff delta^3 is
    second = ders[2] if len(ders) > 2 else Subspace.zero(F, dim)
    star_line = Subspace._wrap(F, dim, [data.star_axis()])
    cube_nonzero = not powers[2].is_zero()
    expected_second = star_line if cube_nonzero else Subspace.zero(F, dim)
    if second != expected_second:
        raise ValidationError("second derived term disagrees with delta^3")
    if ders[-1].dim != 0 or len(ders) > 4:
        raise ValidationError("extension failed to be solvable in three steps")

    heis = None
    if n and A.rank() == n:
        heis = _heisenberg_certificate(data)

    return {
        "dim": dim,
        "abelian": A.is_zero(),
        "nilpotent": delta_nilpotent,
        "nilpotency_index": index,
        "solvable": True,
        "lower_dims": [s.dim for s in lower],
        "upper_dims": [s.dim for s in upper],
        "derived_dims": [s.dim for s in ders],
        "second_derived": "line" if cube_nonzero else "zero",
        "series_depth_checked": depth,
        "heisenberg": heis,
    }


def _heisenberg_certificate(data):
    """Symplectic basis of the derived algebra of an invertible seed.

    Returns vectors v_*, w_* of V with phi(delta(v_i), w_j) = delta_ij and
    phi(delta(v_i), v_j) = phi(delta(w_i), w_j) = 0: is_heisenberg checks
    these brackets on the same Omega, and those relations make the vectors
    independent modulo the derived line, the star axis, so they span V.
    """
    F = data.field
    n = data.space.dim
    # phi(delta x, y) = x Omega y^T with Omega = A^T B
    omega = data.delta.omega
    # the derived algebra on basis (v_1..v_n, delta*)
    H = LieAlgebra._wrap(F, n + 1, _core_brackets(omega, 0))
    ok, cert = is_heisenberg(H)
    if not ok:
        raise ValidationError("derived algebra of an invertible seed must be Heisenberg")
    vs, ws, _ = cert
    return {"pairs": len(vs), "vs": [v[:n] for v in vs], "ws": [w[:n] for w in ws]}


# ---------------------------------------------------------------------------
# nilpotent classification


def classify_nilpotent(data):
    """Canonical block key for a nilpotent seed map.

    Requires m_delta = x^k. The blocks are those of the certified
    canonical pair, all on the zero component: sizes odd or divisible by
    four, odd sizes <= k and even sizes <= 2k. skewcanon builds them so,
    and nothing checks it again: a chain of length k0, at most k, gives a
    zero_odd block of size k0 when k0 is odd and a zero_even block of size
    2 k0 when k0 is even. The sorted signature tuple,
    which carries the mu square classes of the odd blocks, is the key
    invariant under isometric base change.
    """
    split = primary_split(data.delta)
    x = Polynomial.x(data.field)
    if any(pi != x for pi, _ in split.factors):
        raise ValidationError("classification needs a nilpotent seed map")
    k = split.factors[0][1] if split.factors else 0
    blocks = canonical_pair(data.delta).blocks
    return {
        "min_poly_degree": k,
        "blocks": blocks,
        "key": tuple(b.signature() for b in blocks),
        "sizes": [b.size for b in blocks],
    }


# ---------------------------------------------------------------------------
# locality


def _weight_spaces(L):
    """The joint weight spaces {x : [e_i, x] = c_i x for every i}, c in F^d;
    a line is an ideal exactly when it lies in one of them.

    Every weight vanishes on [L, L], so the search starts in the ideal
    ann([L, L]), where the ad e_i commute: each space is split by the next
    ad e_i along the roots in F of the minimal polynomial of its restriction.
    """
    F = L.field
    rows = [row for y in derived_algebra(L).basis for row in L.ad(y).data]
    spaces = [kernel_basis(Matrix._wrap(F, rows)) if rows else Subspace.full(F, L.dim)]
    for i in range(L.dim):
        ad = L.ad(L.basis_vector(i))
        split = []
        for W in spaces:
            B = W.matrix()
            R = W.restrict(ad)
            for pi, _ in factor_poly(minimal_polynomial(R)):
                if pi.degree == 1:  # the root -pi(0) lies in F
                    K = kernel_basis(poly_at_matrix(pi, R))
                    split.append(Subspace._wrap(F, L.dim, (K.matrix() * B).data))
        spaces = split
    return spaces


def local_criteria(data):
    """Five equivalent descriptions of locality, each computed on its own.

    (a) a unique minimal ideal: exactly one joint weight space of ad L,
        and it is a line (the ad-stable lines are the lines inside the
        weight spaces);
    (b) the seed axis complements the derived algebra;
    (c) the centre is a line;
    (d) delta is invertible;
    (e) the invariant forms make a plane.

    All five must agree; when they hold, the invariant plane is checked to
    be spanned by the seed-axis form and the extension form.
    """
    F = data.field
    n = data.space.dim
    if n == 0:
        raise ValidationError("locality needs a nonzero core")
    A = data.delta.matrix
    Q = build_double_extension(data)
    L = Q.algebra
    dim = L.dim

    d_inv = A.rank() == n

    L2 = derived_algebra(L)
    axis = Subspace._wrap(F, dim, [data.delta_axis()])
    b_split = (not A.is_zero()) and L2.dim + 1 == dim and L2.sum_with(axis).dim == dim

    c_centre = centre(L).dim == 1

    forms = invariant_forms_basis(L)
    dq = len(forms)
    e_plane = dq == 2

    weights = _weight_spaces(L)
    a_unique = len(weights) == 1 and weights[0].dim == 1

    votes = {
        "unique_minimal_ideal": a_unique,
        "axis_complements_derived": b_split,
        "centre_is_line": c_centre,
        "seed_invertible": d_inv,
        "invariant_plane": e_plane,
    }
    if len(set(votes.values())) != 1:
        raise ValidationError(f"locality criteria disagree: {votes}")

    span_ok = None
    if a_unique:
        E = Matrix.zeros(F, dim, dim)
        E.data[0][0] = F.one
        span_ok = (
            form_in_span(forms, E) is not None
            and form_in_span(forms, Q.space.gram) is not None
        )
        if not span_ok:
            raise ValidationError("invariant plane misses the canonical forms")

    report = dict(votes)
    report["agree"] = True
    report["local"] = a_unique
    report["dq"] = dq
    report["stable_lines"] = sum((F.p**W.dim - 1) // (F.p - 1) for W in weights) if F.p else None
    report["plane_spanned_by_canonical_forms"] = span_ok
    return report


# ---------------------------------------------------------------------------
# isomorphism witnesses


class IsoWitness:
    """The data (f, z, lam, mu, nu) of a morphism between two extensions.

    The induced map sends delta_1 to mu delta_2 + z + nu delta_2*, a core
    vector x to f(x) + phi_2(delta_2 z, f delta_1^{-1} x) delta_2*, and
    delta_1* to lam delta_2*. z lives in the target core.
    """

    __slots__ = ("f", "z", "lam", "mu", "nu")

    def __init__(self, f, z, lam, mu, nu):
        self.f = f
        self.z = list(z)
        self.lam = lam
        self.mu = mu
        self.nu = nu

    def to_json(self):
        F = self.f.field
        return {
            "f": self.f.to_json(),
            "z": [F.to_str(c) for c in self.z],
            "lambda": F.to_str(self.lam),
            "mu": F.to_str(self.mu),
            "nu": F.to_str(self.nu),
        }

    @classmethod
    def from_json(cls, field, doc):
        return cls(
            Matrix.from_json(field, doc["f"]),
            [field.of(c) for c in json_list(doc["z"], "witness 'z'")],
            field.of(doc["lambda"]),
            field.of(doc["mu"]),
            field.of(doc["nu"]),
        )

    def __repr__(self):
        return f"IsoWitness(mu={self.mu}, lam={self.lam})"


def _extended_matrix(d1, d2, w, zBf):
    """Matrix of the induced map on (delta, V, delta*) coordinates.

    The delta column is (mu, z, nu), the core block is f, and lam closes
    the corner. Entry j of the delta* row is phi_2(delta_2 z, f delta_1^{-1}
    e_j) = -phi_2(z, delta_2 f delta_1^{-1} e_j) by skewness, and condition
    (a), f delta_1 = mu delta_2 f, makes delta_2 f delta_1^{-1} = f / mu:
    the row is -zBf / mu for the row zBf = z^T B_2 f, with no inverse.
    """
    F = d1.field
    n = d1.space.dim
    c = F.neg(F.inv(w.mu))
    rows = [[w.mu] + [F.zero] * (n + 1)]
    rows += [[a] + list(row) + [F.zero] for a, row in zip(w.z, w.f.data)]
    rows.append([w.nu] + [F.mul(c, a) for a in zBf] + [w.lam])
    return Matrix._wrap(F, rows)


def _check_isomorphism(L1, L2, M, what):
    """Certify M as a bracket homomorphism L1 -> L2: every basis pair is
    re-derived. The rank is not read: every caller builds M invertible
    from facts it has already checked (a block triangular witness with
    mu, lam and f invertible, a hyperbolic plane beside a basis of its
    complement, a triangular map with nonzero diagonal)."""
    ok, bad = is_homomorphism(L1, L2, M)
    if not ok:
        raise ValidationError(f"{what} failed re-derivation at pair {bad}")


def verify_iso_witness(d1, d2, witness):
    """Check a witness tuple exactly and grade it.

    Verdicts: 'invalid' with a reason, 'isomorphism', or
    'isometric-isomorphism'; a witness whose f is not n x n or whose z
    has not n entries, n the core dimension, raises ValidationError. The
    intertwining and scaling conditions on (f, lam, mu) are checked first;
    the induced map is then rebuilt and certified as an invertible bracket
    homomorphism, and the stated isometry conditions are compared against
    the transported Gram matrix. The one product z^T B_2 f gives the delta*
    row of the induced map, and with it the cross terms
    mu phi_2(delta_2 z, f delta_1^{-1} e_j) + phi_2(z, f e_j) vanish once
    (a) holds, so that condition is reported true, not recomputed; its row
    z^T B_2 also gives the seed-norm term phi_2(z, z).
    """
    if d1.field != d2.field:
        raise ValidationError("witnesses need a common base field")
    F = d1.field
    n = d1.space.dim
    if isinstance(witness, tuple):
        witness = IsoWitness(*witness)
    if n == 0:
        raise ValidationError("witness verification needs a nonzero core")
    if d2.space.dim != n:
        return {"verdict": "invalid", "reason": "core dimensions differ"}
    if (witness.f.nrows, witness.f.ncols, len(witness.z)) != (n, n, n):
        raise ValidationError("witness shape does not match the core")
    A1, A2 = d1.delta.matrix, d2.delta.matrix
    if A1.rank() != n or A2.rank() != n:
        raise ValidationError("witness verification needs invertible seed maps")
    if not witness.lam or not witness.mu:
        return {"verdict": "invalid", "reason": "lambda and mu must be nonzero"}
    if witness.f.rank() != n:
        return {"verdict": "invalid", "reason": "f is singular"}

    # a) f delta_1 = mu delta_2 f
    if witness.f * A1 != (A2 * witness.f).scale(witness.mu):
        return {"verdict": "invalid", "reason": "f does not intertwine the seed maps"}
    # b) phi_2(f., f.) = lam mu phi_1
    lam_mu = F.mul(witness.lam, witness.mu)
    if d2.space.times_gram(witness.f.transpose()) * witness.f != d1.space.gram.scale(lam_mu):
        return {"verdict": "invalid", "reason": "f does not scale the core form"}

    Q1 = build_double_extension(d1)
    Q2 = build_double_extension(d2)
    zB = d2.space.times_gram(Matrix._wrap(F, [witness.z]))
    zBf = (zB * witness.f).data[0]
    M = _extended_matrix(d1, d2, witness, zBf)
    _check_isomorphism(Q1.algebra, Q2.algebra, M, "induced map")

    lm_one = lam_mu == F.one
    # phi_2(z, z) = (z^T B_2) . z, off the row that gave zBf
    diag_ok = not F.add(F.mul(F.of(2), F.mul(witness.mu, witness.nu)), zB.matvec(witness.z)[0])
    stated = lm_one and diag_ok
    transported = Q2.space.times_gram(M.transpose()) * M == Q1.space.gram
    if stated != transported:
        raise ValidationError("isometry conditions disagree with the transported form")

    return {
        "verdict": "isometric-isomorphism" if transported else "isomorphism",
        "isometric": transported,
        "extended": M,
        "conditions": {
            "lambda_mu_is_one": lm_one,
            "cross_terms_vanish": True,  # by (a), see _extended_matrix
            "seed_norm_balances": diag_ok,
        },
    }


# ---------------------------------------------------------------------------
# isometric isomorphism decision


def _linear_roots(factors):
    roots = []
    for pi, _ in factors:
        if pi.degree != 1:
            return None
        roots.append(pi.field.neg(pi.coeff(0)))
    return roots


def _factor_shape(factors):
    return sorted((pi.degree, k) for pi, k in factors)


def decide_isometric(d1, d2):
    """Decide isometric isomorphism of two extensions with invertible seeds.

    Two regimes supply candidate scales mu. Split seeds (both minimal
    polynomials products of linear factors) try every root ratio; rational
    seeds on cores that both pass quadspace.is_definite, with factors
    x^2 + m, align their scaled spectra and try the positive mu. The
    gate reads definiteness alone and searches for no isotropic vector. Each
    candidate is settled the same way: the canonical pair of mu delta_2
    must have the block signature of delta_1's, and then every block pair
    is mapped, split blocks by the identity and definite_semisimple blocks
    plane by plane through norm equations, which Hilbert symbols settle
    and integer conic descent solves. The assembled
    block map is returned as an exact witness. Anything else is answered
    'undecided' ("outside the split and definite regimes") rather than
    guessed. Each seed's minimal polynomial goes through factor_poly,
    whose cache serves every repeat.

    Every canonical pair here is made of blocks, with no untreated part:
    split seeds have only linear factors with nonzero roots, which become
    paired blocks; a definite rational seed's invertible skew delta has
    delta^2 negative definite, so each factor is x^2 + m, m > 0, of
    multiplicity one and self-paired on a definite restricted form, which
    becomes a definite_semisimple block. The same holds for mu delta_2.
    """
    if d1.field != d2.field:
        raise ValidationError("decision needs a common base field")
    F = d1.field
    n = d1.space.dim
    if n == 0 or d2.space.dim == 0:
        raise ValidationError("decision needs nonzero cores")
    A1, A2 = d1.delta.matrix, d2.delta.matrix
    if A1.rank() != n or A2.rank() != d2.space.dim:
        raise ValidationError("decision needs invertible seed maps")
    if d2.space.dim != n:
        return {"verdict": "no", "reason": "core dimensions differ", "witness": None}

    s1 = primary_split(d1.delta)
    s2 = primary_split(d2.delta)
    f1, f2 = s1.factors, s2.factors
    if _factor_shape(f1) != _factor_shape(f2):
        return {
            "verdict": "no",
            "reason": "minimal polynomials have different factor shapes",
            "witness": None,
        }

    r1 = _linear_roots(f1)
    r2 = _linear_roots(f2)
    tried = []
    if r1 is not None and r2 is not None:
        scales = sorted({F.div(a, b) for a in r1 for b in r2}, key=F.sort_key)
        no = {"reason": "no scale matches the canonical blocks", "scales_tried": tried}
    else:
        if F.p or not (is_definite(d1.space) and is_definite(d2.space)):
            return {
                "verdict": "undecided",
                "reason": "outside the split and definite regimes",
                "witness": None,
            }
        scales = _definite_scales(F, s1, s2)
        if isinstance(scales, dict):
            return scales
        no = {"reason": "plane norm classes differ at every admissible scale"}

    cp1 = canonical_pair(d1.delta)
    sig1 = cp1.block_signature()
    for mu in scales:
        if s2.minpoly.shift_scale(mu) != s1.minpoly:
            continue
        cp2 = canonical_pair(scaled_map(d2.delta, mu))
        tried.append(F.to_str(mu))
        if cp2.block_signature() != sig1:
            continue
        maps = [_block_map(b1, b2) for b1, b2 in zip(cp1.blocks, cp2.blocks)]
        if all(g is not None for g in maps):
            g = Matrix.block_diagonal(F, maps)
            return _scaled_witness(d1, d2, mu, cp2.basis_change * g * cp1.basis_change.inverse())
    return {"verdict": "no", **no, "witness": None}


def _norm_equation(F, m, c):
    """Solve alpha^2 + m beta^2 = c over the rationals, m > 0, c != 0.

    Returns ('solved', (alpha, beta)) or ('unsolvable', qs) with qs the
    places where the Hilbert symbol (-M, C) is -1, M and C the squarefree
    classes of m and c, and 0 the real place, which obstructs exactly when
    c < 0. Local solvability everywhere means a solution exists
    (Hasse-Minkowski), and exact_field.conic_point builds it from
    u^2 + M v^2 = C w^2 by integer descent and checks that point; the
    plane map built from (alpha, beta) is checked again by condition (b)
    of the witness certificate.
    """
    r = sqrt_in_field(F, c)
    if r is not None:
        return "solved", (r, F.zero)
    r = sqrt_in_field(F, F.div(c, m))
    if r is not None:
        return "solved", (F.zero, r)
    M, C = square_class(F, m), square_class(F, c)
    qs = hilbert_obstructions(-M, C)
    if qs:
        return "unsolvable", qs
    # m = M t_m^2 and c = C t_c^2; w != 0 since M > 0
    t_m, t_c = sqrt_in_field(F, m / M), sqrt_in_field(F, c / C)
    u, w, v = conic_point(C, -M)
    return "solved", (t_c * u / w, t_c * v / (t_m * w))


def _definite_scales(F, split1, split2):
    """The candidate scale [root] for definite rational seeds, whose
    factors are x^2 + m, or the verdict when a factor is beyond quadratic
    or the scaled spectra cannot match. -root is no second candidate: at
    -root the planes (v, -root A_2 v) carry the same scalars q(v), so
    _plane_map answers as it does at root."""
    for pi, _ in split1.factors + split2.factors:
        if pi.degree > 2:
            return {
                "verdict": "undecided",
                "reason": f"irreducible factor beyond quadratic: {pi}",
                "witness": None,
            }

    def spectrum(split):
        # (m, planes) per factor x^2 + m; numeric order: a positive square
        # scale preserves it, so ascending lists pair correctly; the
        # deterministic key would not
        pairs = zip(split.factors, split.components)
        return sorted(((pi.coeff(0), comp.dim // 2) for (pi, _), comp in pairs),
                      key=lambda t: t[0])

    s1 = spectrum(split1)
    s2 = spectrum(split2)
    if [c for _, c in s1] != [c for _, c in s2]:
        return {
            "verdict": "no",
            "reason": "plane multiplicities differ",
            "witness": None,
        }
    ratios = {F.to_str(F.div(a, b)) for (a, _), (b, _) in zip(s1, s2)}
    if len(ratios) != 1:
        return {
            "verdict": "no",
            "reason": "scaled spectra cannot be aligned",
            "witness": None,
        }
    musq = F.div(s1[0][0], s2[0][0])
    root = sqrt_in_field(F, musq)
    if root is None:
        return {
            "verdict": "no",
            "reason": f"required scale squared {F.to_str(musq)} is not a square",
            "witness": None,
        }
    return [root]


def _block_map(b1, b2):
    """The map of canonical block b1 onto b2, blocks of equal signature, in
    their model coordinates; None when no such isometry was found. Equal
    signatures pin identical model blocks for the split kinds, so their
    map is the identity, which _scaled_witness verifies with the rest."""
    if b1.kind == "definite_semisimple":
        return _plane_map(b1, b2)
    return Matrix.identity(b1.factor.field, b1.matrix.nrows)


def _plane_map(b1, b2):
    """Map the planes of definite_semisimple block b1 onto those of b2.

    Both blocks hold planes of one factor x^2 + m, each with companion
    C = [[0, -m], [1, 0]] and Gram diag(d, m d), d its entry of mu_data. A
    source plane with scalar a goes onto the first free target plane with
    scalar b for which alpha^2 + m beta^2 = a / b is solvable, through
    alpha I + beta C, which commutes with C. Returns None when a source
    plane finds no target.

    This plane-by-plane search is incomplete when the block holds several
    planes: such a block is a Hermitian form over Q(sqrt(-m)), and a rank-2
    definite one is classified by its determinant, not by its diagonal
    entries. On the repeated-lambda Q seeds answered "no" here, no source
    plane's norm equation is solvable against any target plane at either
    scale, yet the ratio of the plane-scalar products is a norm: an
    isometry exists, but it mixes planes. No matching, greedy or bipartite,
    can find it, so a "no" from here may be wrong.
    """
    F = b1.factor.field
    m = b1.mu
    g = Matrix.zeros(F, b1.size, b1.size)
    avail = list(range(b2.n))
    targets = b2.mu_data
    for i, a in enumerate(b1.mu_data):
        for j in avail:
            status, pair = _norm_equation(F, m, F.div(a, targets[j]))
            if status == "solved":
                alpha, beta = pair
                g.data[2 * j][2 * i] = alpha
                g.data[2 * j][2 * i + 1] = F.neg(F.mul(m, beta))
                g.data[2 * j + 1][2 * i] = beta
                g.data[2 * j + 1][2 * i + 1] = alpha
                avail.remove(j)
                break
        else:
            return None
    return g


def _scaled_witness(d1, d2, mu, f):
    """The 'yes' answer for f at scale mu: the witness (f, 0, 1/mu, mu, 0),
    verified as an isometric isomorphism."""
    F = d1.field
    w = IsoWitness(f, [F.zero] * d1.space.dim, F.inv(mu), mu, F.zero)
    rep = verify_iso_witness(d1, d2, w)
    if rep["verdict"] != "isometric-isomorphism":
        raise ValidationError("constructed witness failed verification")
    return {"verdict": "yes", "mu": mu, "witness": w, "report": rep}


# ---------------------------------------------------------------------------
# the normalized rotation key and the (t, s) family of forms


class LorentzKey:
    """Normalized rotation data: the scale-reduced tuple plus form parameters.

    Keys compare equal when the tuples match and the form parameters are
    related by the diagonal automorphisms, which shift t freely and move s
    by nonzero squares.
    """

    __slots__ = ("field", "lam", "form_params")

    def __init__(self, field, lam, form_params):
        self.field = field
        self.lam = tuple(lam)
        self.form_params = tuple(form_params)

    def __eq__(self, other):
        if not isinstance(other, LorentzKey):
            return NotImplemented
        if self.field != other.field or self.lam != other.lam:
            return False
        s, s2 = self.form_params[1], other.form_params[1]
        return sqrt_in_field(self.field, self.field.div(s, s2)) is not None

    def __repr__(self):
        return f"LorentzKey({self.lam}, form={self.form_params})"

    def to_json(self):
        return {
            "lambda": [self.field.to_str(c) for c in self.lam],
            "t": self.field.to_str(self.form_params[0]),
            "s": self.field.to_str(self.form_params[1]),
        }


def lorentz_normalize(field, lam, form_params=None):
    """Sort a positive rotation tuple and scale it to start at one."""
    if field.p:
        raise ValidationError("rotation tuples need an ordered base field")
    vals = [field.of(c) for c in lam]
    if not vals:
        raise ValidationError("rotation tuple is empty")
    if any(v <= 0 for v in vals):
        raise ValidationError("rotation tuple entries must be positive")
    vals.sort()
    first = vals[0]
    norm = [field.div(v, first) for v in vals]
    if form_params is None:
        form_params = (field.zero, field.one)
    t, s = field.of(form_params[0]), field.of(form_params[1])
    if not s:
        raise ValidationError("the form parameter s must be nonzero")
    return LorentzKey(field, norm, (t, s))


def phi_ts_form(data, t, s):
    """The invariant form with parameters (t, s) on the extension.

    t sits at the seed-axis square, s scales both the hyperbolic pairing
    and the core block; s = 0 would kill regularity and is rejected, and
    any other s keeps the form regular, as the core is. The form is
    invariant by construction: phi_{t,s} = s phi_delta + t e_0 e_0^T, with
    phi_delta invariant (Medina and Revoy), and no bracket has a
    delta-component, so the t-term pairs with none. Nothing is checked.
    """
    F = data.field
    t, s = F.of(t), F.of(s)
    if not s:
        raise ValidationError("the form parameter s must be nonzero")
    return OrthogonalSpace._wrap(_extension_gram(data, t, s))


def phi_ts_isometry(data, ts1, ts2):
    """Compare two members of the (t, s) family on the same extension.

    The diagonal automorphisms delta |-> delta + nu delta*, x |-> c x,
    delta* |-> c^2 delta* carry phi_{t,s} to phi_{t', s'} exactly when
    c^2 = s/s' and nu = (t - t')/(2 s'). A square ratio yields a checked
    witness; a nonsquare ratio is reported at the level of square classes;
    a negative ratio over a definite rational core is a proof that no
    isometric automorphism exists. The extension is built once, for the
    isomorphism check; both forms are invariant by construction
    (phi_ts_form).
    """
    F = data.field
    n = data.space.dim
    t1, s1 = F.of(ts1[0]), F.of(ts1[1])
    t2, s2 = F.of(ts2[0]), F.of(ts2[1])
    if not s1 or not s2:
        raise ValidationError("the form parameter s must be nonzero")
    gamma = F.div(s1, s2)
    nu = F.div(F.sub(t1, t2), F.mul(F.of(2), s2))

    if F.p == 0 and gamma < 0 and is_definite(data.space):
        return {
            "verdict": "no",
            "reason": "a definite core cannot reverse the sign of s",
            "nu": nu,
            "scale": gamma,
            "map": None,
        }

    c = sqrt_in_field(F, gamma)
    if c is None:
        return {
            "verdict": "class-level",
            "reason": "the scale s/s' is not a square",
            "nu": nu,
            "scale": gamma,
            "scale_class": F.to_str(square_class(F, gamma)),
            "map": None,
        }

    dim = n + 2
    M = Matrix.zeros(F, dim, dim)
    M.data[0][0] = F.one
    M.data[n + 1][0] = nu
    for i in range(n):
        M.data[i + 1][i + 1] = c
    M.data[n + 1][n + 1] = gamma

    Q = build_double_extension(data)
    _check_isomorphism(Q.algebra, Q.algebra, M, "diagonal map")
    S1, S2 = phi_ts_form(data, t1, s1), phi_ts_form(data, t2, s2)
    if S2.times_gram(M.transpose()) * M != S1.gram:
        raise ValidationError("diagonal map failed the isometry check")
    return {
        "verdict": "witness",
        "nu": nu,
        "scale": gamma,
        "c": c,
        "map": M,
    }


# ---------------------------------------------------------------------------
# recognizing a double extension inside a presented algebra


def recover_double_extension(Q):
    """Carve the seed (V, phi, delta) out of a presented quadratic algebra.

    The hypotheses are diagnosed in order, each with its own message: the
    algebra must be solvable with a one dimensional isotropic centre, and
    the bracket of the carved core must stay on the centre line. The form
    is invariant and regular, so the centre is read off as (L^2)-perp, and
    L^2, its orthogonal, then has codimension one; hyperbolic_split pairs z
    with an isotropic x, and the core orthogonal to (x, z) is regular.
    delta = ad x on the core is checked to stay in the core, and the form
    is invariant, so phi(delta u, v) = -phi(u, delta v): delta is skew by
    construction and is not checked again. The returned seed records the base change,
    checked to transport its extension onto Q exactly.
    """
    L = Q.algebra
    F = Q.field
    series = derived_series(L)
    if series[-1].dim:
        raise ValidationError("not a double extension: the algebra is not solvable")
    # L^2 is series[1], or L itself at dim 0, where the series stops at once
    Z = ortho_complement(Q.space, series[1] if len(series) > 1 else series[0])
    if Z.dim != 1:
        raise ValidationError(
            f"not a double extension: centre has dimension {Z.dim}, not 1"
        )
    z = list(Z.basis[0])
    if Q.space.quad(z):
        raise ValidationError("not a double extension: the centre is not isotropic")

    x, core = hyperbolic_split(Q.space, z)
    core_vecs = core.basis
    space = OrthogonalSpace._wrap(Q.space.restrict_gram(core_vecs))

    # column j of delta: the coordinates of [x, v_j] in the core basis
    C = core.coords([L.bracket(x, v) for v in core_vecs])
    if C is None:
        raise ValidationError(
            "not a double extension: ad x does not preserve the carved core"
        )
    delta = Matrix._wrap(F, C).transpose()

    # every [v_i, v_j] on the centre line
    if not bracket_span(L, core, core).is_subspace_of(Z):
        raise ValidationError(
            "not a double extension: core brackets leave the centre line"
        )

    data = OscillatorData(space, SkewEndo._wrap(space, delta, space.times_gram(delta.transpose())))
    built = build_double_extension(data)

    # base change (delta, V, delta*) -> (x, core vectors, z), columns in Q
    U = Matrix._wrap(F, [list(row) for row in zip(x, *core_vecs, z)])
    _check_isomorphism(built.algebra, L, U, "recovery base change")
    if Q.space.times_gram(U.transpose()) * U != built.space.gram:
        raise ValidationError("recovery base change failed the isometry check")

    data.recovery = {
        "base_change": U,
        "x": x,
        "z": z,
        "core_basis": core_vecs,
        "verified": True,
    }
    return data


# ---------------------------------------------------------------------------
# Witt index one certificates


def witt1_certify(data):
    """Certify that the extension form has Witt index exactly one.

    Needs an invertible seed on an anisotropic core: the plane spanned by
    delta and delta* is hyperbolic and everything orthogonal to it is the
    core, so the total Witt index is one. The seed is also checked to be
    semisimple with star-fixed even factors, which is what anisotropy
    forces. Over the rationals an 'undecided' isotropy verdict propagates;
    over a prime field the anisotropy part is exact but the conclusion is
    labeled formula-level, since every regular form in dimension three or
    more is isotropic there and the certificate carries no extra content.
    """
    F = data.field
    n = data.space.dim
    A = data.delta.matrix
    report = {
        "witt_index": None,
        "verdict": "not-certified",
        "reason": None,
        "hyperbolic_plane": None,
        "label": None,
    }
    if n == 0:
        report["reason"] = "empty core"
        return report
    if A.rank() != n:
        report["reason"] = "seed map is singular"
        return report
    rep = isotropy_report(data.space)
    if rep.verdict == "undecided":
        report["verdict"] = "undecided"
        report["reason"] = "core isotropy is undecided"
        return report
    if rep.verdict == "isotropic":
        report["reason"] = "core form is isotropic"
        report["core_witness"] = rep.witness
        return report

    factors = primary_split(data.delta).factors
    for pi, k in factors:
        if k != 1:
            raise ValidationError("anisotropic cores force squarefree minimal polynomials")
        if pi.degree % 2 or poly_star(pi) != pi:
            raise ValidationError("anisotropic cores force star-fixed even factors")

    report["witt_index"] = 1
    report["verdict"] = "certified"
    report["hyperbolic_plane"] = (data.delta_axis(), data.star_axis())
    report["core_verdict"] = rep.verdict
    report["seed_factors"] = [str(pi) for pi, _ in factors]
    if F.p:
        report["label"] = "formula-level only"
    return report


# ---------------------------------------------------------------------------
# census

CENSUS_MAX_DIM = 4  # largest core dimension enumerated without unsafe
CENSUS_MAX_P = 7  # largest prime enumerated without unsafe


def _census_generators(space):
    """Two isometries of the standard form of F_p^n that join the census
    orbits, as int rows mod p, each checked exactly: g^T g = I.

    They are built from the reflections g_i = I - (2 / q(v)) v v^T in v =
    e_1, in each e_i - e_(i+1) (which swaps e_i and e_(i+1)), and in the
    first of (1, ..., 1), (1, 2, 0, ...), (1, 1, 1, 0, ...) that fits, has
    q(v) != 0 and is not listed yet; q(v) = v . v. Of a list g_0 ... g_(m-1)
    with m >= 3 they are a = g_0 g_1 and b = (g_1 ... g_(m-2)) g_(m-1)
    g_(m-2); a shorter list is returned as it is. At every capped (p, n),
    a and b conjugate the skew maps as the whole list does (at odd n they
    lose -I, which conjugates trivially), so the sweep reads 2 images per
    map instead of m. Only isometry matters for exactness: a smaller group
    gives finer components, each still counted by its size.
    """
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
    gs = []
    for v in vecs:
        s = 2 * F.inv(sum(c * c for c in v) % p)
        gs.append(Matrix._wrap(F, [[((i == j) - s * a * b) % p for j, b in enumerate(v)]
                                   for i, a in enumerate(v)]))
    if len(gs) >= 3:
        b = gs[1]
        for g in gs[2:-1]:
            b = b * g
        gs = [gs[0] * gs[1], b * gs[-1] * gs[-2]]
    for g in gs:
        if g.transpose() * g != E:
            raise ValidationError("census generator is not an isometry")
    return gs


def _skew_pairs(n):
    """The coordinates of a skew map on the standard form of F_p^n: (r, s)
    with r < s, the coefficient of X_rs = E_rs - E_sr, in the order of
    quadspace.skew_basis."""
    return [(r, s) for r in range(n) for s in range(r + 1, n)]


def _root_matrix(field, n, digits):
    """The skew map of an index with base-p digits, least significant
    first: digit j is the coefficient of X_rs for the (r, s) at k - 1 - j
    of _skew_pairs."""
    p = field.p
    rows = [[0] * n for _ in range(n)]
    for (r, s), c in zip(reversed(_skew_pairs(n)), digits):
        rows[r][s], rows[s][r] = c, -c % p
    return Matrix._wrap(field, rows)


def _coefficient_action(space, g):
    """Rows (r, s): the coordinates of g X_rs g^T over the X_ab, a < b, for g
    an isometry of the standard form, so that g^T = g^-1. Entry (a, b) of
    g X_rs g^T is g_ar g_bs - g_as g_br mod p, and only a < b is read:
    entry (b, a) is minus entry (a, b) for every g, so g X_rs g^T is skew
    whatever g is, and no check of that could fail. What the census needs
    of g is that it is an isometry, which _census_generators checks."""
    p, n = space.field.p, space.dim
    G = g.data
    pairs = _skew_pairs(n)
    return [[(G[a][r] * G[b][s] - G[a][s] * G[b][r]) % p for a, b in pairs]
            for r, s in pairs]


def _image_tables(p, k, actions):
    """Lookup tables that read the index of x T mod p, for each action T.

    An index x = hi p^h + lo, h = k // 2, splits into its upper k - h and
    lower h base-p digits. PH[hi] and PL[lo] are the images of those two
    digit blocks, reduced mod p per coordinate and packed in base 2p with
    coordinate j at (2p)^(k-1-j). Every packed digit is below p, so
    PH[hi] + PL[lo] never carries; FH and FL read its upper k - h and lower
    h base-2p digits back, mod p, as the two parts of the image's index:

        a, b = divmod(PH[hi] + PL[lo], (2p)^h);  y = FH[a] + FL[b]

    Every table is built one digit at a time in itertools.product order.
    Returns h, FH, FL and the (PH, PL) of each action.
    """
    h = k // 2
    packing = [(2 * p) ** (k - 1 - j) for j in range(k)]

    def packed_images(rows):
        vecs = [[0] * k]
        for row in rows:
            vecs = [[(c + d * t) % p for c, t in zip(v, row)] for v in vecs for d in range(p)]
        return [sum(map(mul, v, packing)) for v in vecs]

    def index_parts(coords):
        out = [0]
        for j in coords:
            w = p ** (k - 1 - j)
            out = [y + d % p * w for y in out for d in range(2 * p)]
        return out

    tables = [(packed_images(T[: k - h]), packed_images(T[k - h:])) for T in actions]
    return h, index_parts(range(k - h)), index_parts(range(k - h, k)), tables


def _census_components(p, k, actions, comp):
    """Label each index of comp, an array of p^k zeros, with its component
    id: from each index not yet labelled, in ascending order, everything
    reached through the actions gets the next id, 1 first. An image's
    index is four reads of _image_tables, one per half of the index's
    digits and one per half of the packed image, not k dot products.
    Returns the (root, size) of each component, in id order."""
    h, FH, FL, tables = _image_tables(p, k, actions)
    low, unit = p ** h, (2 * p) ** h
    components = []
    for root in range(len(comp)):
        if comp[root]:
            continue
        cid = len(components) + 1
        comp[root] = cid
        stack, size = [root], 0
        while stack:
            hi, lo = divmod(stack.pop(), low)
            size += 1
            for PH, PL in tables:
                a, b = divmod(PH[hi] + PL[lo], unit)
                y = FH[a] + FL[b]
                if not comp[y]:
                    comp[y] = cid
                    stack.append(y)
        components.append((root, size))
    return components


def skew_census(field, dim, unsafe=False):
    """Bucket every skew map on the standard form by its canonical key.

    Enumerates all matrices skew for the identity Gram over a prime field
    and groups them by the canonical block signature, keeping one
    representative per bucket. Capped at CENSUS_MAX_DIM and CENSUS_MAX_P
    unless unsafe is set; the enumeration is p^(dim(dim-1)/2) strong, and a
    size whose component ids cannot be allocated is a CapabilityError.

    The key is read from one canonical pair per scaling class of
    components of conjugate maps. Maps are indexed by their coefficient
    tuples over the X_rs = E_rs - E_sr, r < s (the order of skew_basis), in
    itertools.product order, and conjugation by an isometry g is linear on
    those tuples. The set-up is closed-form on ints: the two
    _census_generators, their _coefficient_action and each _root_matrix
    are written entry by entry, with no skew basis or echelon reading.
    _census_components then labels every index with its component under
    the two generators, so the sweep reads 2 images per map. Conjugate
    maps have the same canonical key (Wall), so counting each component by
    its size is exact; the generators need only be isometries, since a
    smaller group gives finer components. The space is
    OrthogonalSpace.standard, so the canonical pairs skip their products
    with the identity Gram. A root map's matrix holds c and -c in mirrored
    entries, skew for the identity Gram, so it is wrapped with Omega = M^T
    and not checked.

    Scaling commutes with conjugation, so mu C is a component for each
    component C and scalar mu. When mu^-1 root, its digits scaled mod p, lies
    in an earlier component C for some mu in 2..p-1, the new component is
    mu C, and if C was itself nu C0 for a component C0 with a canonical pair,
    the key is read off scaled_pair(pair of C0, nu mu). Every other root runs
    canonical_pair. Either pair is certified once, as a whole, which
    certifies each of its blocks. Bucket order, counts, representatives and
    nilpotent degrees are those of a map-by-map pass.
    """
    if not field.p:
        raise CapabilityError("census enumeration needs a finite field")
    if dim < 0:
        raise ValidationError(f"census dimension must be nonnegative, got {dim}")
    if not unsafe and (dim > CENSUS_MAX_DIM or field.p > CENSUS_MAX_P):
        raise CapabilityError(
            f"census capped at dim {CENSUS_MAX_DIM}, p {CENSUS_MAX_P}; "
            "pass unsafe to override"
        )
    p, k = field.p, dim * (dim - 1) // 2
    total = 1
    for _ in range(k):  # p^k, stopped once past sys.maxsize and any bytearray
        total *= p
        if total > sys.maxsize:
            break
    try:
        comp = array("q", [0]) * total  # component id of each index, 0 while unseen
    except (OverflowError, MemoryError):
        raise CapabilityError(
            f"census of {p}^{k} maps: cannot allocate its seen flags"
        ) from None
    space = OrthogonalSpace.standard(field, dim)
    components = _census_components(
        p, k, [_coefficient_action(space, g) for g in _census_generators(space)], comp
    )
    places = [p ** j for j in range(k)]  # digit j counts p^j, last basis map first
    inverses = [(mu, field.inv(mu)) for mu in range(2, p)]

    # component id -> (the canonical pair of a root, the scale from that root)
    classes = [None]
    buckets = {}
    reps = {}
    nilpotent = {}
    for cid, (root, size) in enumerate(components, 1):
        digits, x = [], root
        for _ in range(k):
            x, cj = divmod(x, p)
            digits.append(cj)
        M = None
        for mu, inv in inverses:
            earlier = comp[sum(inv * cj % p * w for cj, w in zip(digits, places))]
            if earlier < cid:
                base, nu = classes[earlier]
                scale = field.mul(nu, mu)
                cp = scaled_pair(base, scale)
                break
        else:
            M = _root_matrix(field, dim, digits)
            cp = base = canonical_pair(SkewEndo._wrap(space, M, M.transpose()))
            scale = field.one
        classes.append((base, scale))
        sig = cp.block_signature()
        res = tuple(
            (r.kind, tuple(str(p0) for p0 in r.factors), r.dim) for r in cp.residual
        )
        key = repr((sig, res))
        buckets[key] = buckets.get(key, 0) + size
        if key not in reps:
            if M is None:
                M = _root_matrix(field, dim, digits)
            reps[key] = [row[:] for row in M.data]
            m = primary_split(base.endo).minpoly
            if not any(m.coeff(i) for i in range(m.degree)):
                nilpotent[key] = m.degree
    return {
        "field": field.spec(),
        "dim": dim,
        "total": total,
        "buckets": buckets,
        "representatives": reps,
        "nilpotent_degrees": nilpotent,
    }
