"""Simultaneous canonical forms for skew endomorphisms of orthogonal spaces.

The objects here are pairs (A, B): A is the matrix of an endomorphism f
of V, B the Gram matrix of a symmetric bilinear form phi on V, tied by
the skew relation A^T B = -B A. A base change P acts by similarity on A
and congruence on B at once; the goal is a P bringing both to block
models simultaneously. Everything is exact, and every returned P is
checked entry by entry against the models before it leaves this module.
"""

from .errors import CapabilityError, ValidationError
from .exact_field import (
    Polynomial,
    factor_poly,
    poly_star,
    solve_binary,
    square_class,
    square_class_representative,
    sqrt_in_field,
)
from .linalg import (
    Matrix,
    Subspace,
    combine,
    krylov,
    minimal_polynomial,
    poly_at_matrix,
    primary_component,
)
from .quadspace import (
    OrthogonalSpace,
    SkewEndo,
    diagonalize_form,
    is_definite,
    radical,
)

__all__ = [
    "PrimarySplit",
    "CanonicalBlock",
    "ResidualPart",
    "CanonicalPair",
    "primary_split",
    "scaled_map",
    "scaled_pair",
    "canonical_pair_nonzero",
    "canonical_pair_zero",
    "canonical_pair",
    "spectral_form",
    "caalim_convert",
]


# ---------------------------------------------------------------------------
# chain lengths on the shared kernels; chains are
# linalg.krylov and combinations linalg.combine, and vectors here are lists
# of canonical field elements that are never coerced again


def _chain_length(N, S):
    """Least k with N^k S = 0, found by applying N to the basis of S: the
    nonzero rows of one product with N^T per step."""
    Nt = N.transpose()
    vecs = S.basis
    k = 0
    while vecs:
        if k == S.dim:
            raise ValidationError("map is not nilpotent on the part")
        vecs = [w for w in (Matrix._wrap(N.field, vecs) * Nt).data if any(w)]
        k += 1
    return k


# ---------------------------------------------------------------------------
# primary decomposition and the eigenvalue pairing


class PrimarySplit:
    """Primary decomposition of f together with the eigenvalue pairing.

    endo        the skew map f that was split
    minpoly     the minimal polynomial of f
    factors     [(pi, mult)] for the minimal polynomial, sorted
    components  generalized eigenspaces ker pi(f)^mult, same order
    pairing     partial involution i -> j matching pi_i to the factor
                with negated roots, where that factor is present
    unpaired    indices with no partner; their components lie inside the
                radical of phi, so for regular forms this is empty

    primary_split keeps the split on f, so every reader of one map's
    factors or components shares this one object; it is read-only, and
    chain generators taken from its component bases are not copied.
    """

    __slots__ = ("endo", "minpoly", "factors", "components", "pairing", "unpaired")

    def __init__(self, endo, minpoly, factors, components, pairing, unpaired):
        self.endo = endo
        self.minpoly = minpoly
        self.factors = factors
        self.components = components
        self.pairing = pairing
        self.unpaired = unpaired

    def __repr__(self):
        facs = ", ".join(f"({p})^{k}" for p, k in self.factors)
        return f"PrimarySplit([{facs}], unpaired={list(self.unpaired)})"


def primary_split(f):
    """Split V into generalized eigenspaces of f and pair them by sign.

    The pairing sends the factor with root c to the factor with root -c
    (star conjugation); components whose partner factor is absent are
    reported unpaired and verified to sit inside the radical of phi. The
    split is computed once per map: it is kept on f and returned again on
    later calls. When the minimal polynomial m has one irreducible factor
    pi, m = pi^k already vanishes at A (minimal_polynomial checked it), so
    the one component is V itself and no kernel is formed.
    """
    if f.split is not None:
        return f.split
    A, space, F = f.matrix, f.space, f.field
    n = A.nrows
    if n == 0:
        f.split = PrimarySplit(f, Polynomial.one(F), [], [], {}, ())
        return f.split
    m = minimal_polynomial(A)
    factors = factor_poly(m)
    if len(factors) == 1:
        # m = pi^k, which minimal_polynomial checked to vanish at A: V itself
        return _keep_split(f, m, factors, [Subspace.full(F, n)])
    components = [primary_component(A, pi, k) for pi, k in factors]

    # one echelon over every component basis: the sum is direct and fills V
    total = Subspace._wrap(F, n, [v for comp in components for v in comp.basis])
    if sum(comp.dim for comp in components) != n or total.dim != n:
        raise ValidationError("primary components do not decompose the space")

    return _keep_split(f, m, factors, components)


def _keep_split(f, m, factors, components):
    """Pair the factors of f's primary split by star, check that unpaired
    components sit in the radical and keep the split on f. poly_star is an
    involution on monic polynomials, so the pairing is one with no check."""
    index = {tuple(pi.coeffs): i for i, (pi, _) in enumerate(factors)}
    pairing = {}
    unpaired = []
    for i, (pi, _) in enumerate(factors):
        j = index.get(tuple(poly_star(pi).coeffs))
        if j is None:
            unpaired.append(i)
        else:
            pairing[i] = j

    rad = radical(f.space) if unpaired else None
    for i in unpaired:
        # skewness forces partnerless components into the radical
        if not components[i].is_subspace_of(rad):
            raise ValidationError("unpaired primary component escapes the radical")
    f.split = PrimarySplit(f, m, factors, components, pairing, tuple(unpaired))
    return f.split


def scaled_map(f, mu):
    """mu f for a nonzero scalar mu, with its primary split derived from f's.

    With pi' = pi.shift_scale(mu), pi'(mu A) = mu^deg pi(A), so mu f has the
    components of f, its factors are the shift_scale(mu) images, re-sorted
    with their components, and the pairing is found again by star. The
    derived minimal polynomial needs no check: m(A) = 0, which
    minimal_polynomial certified, gives m'(mu A) = mu^deg m(A) = 0, and m'
    is minimal, since one of lower degree would rescale to one for A. Nor
    does mu f: it is skew because f is, with Omega = mu Omega_f.

    decide_isometric takes canonical_pair(scaled_map(f, mu)), not
    scaled_pair: the two share blocks and key but not always the base
    change, and the witness is built from this one (see scaled_pair).
    """
    if not mu:
        raise ValidationError("scale must be nonzero")
    split = primary_split(f)
    g = SkewEndo._wrap(f.space, f.matrix.scale(mu), f.omega.scale(mu))
    m = split.minpoly.shift_scale(mu)
    pairs = sorted(
        (((pi.shift_scale(mu), k), comp) for (pi, k), comp in zip(split.factors, split.components)),
        key=lambda t: t[0][0].sort_key(),
    )
    _keep_split(g, m, [fk for fk, _ in pairs], [comp for _, comp in pairs])
    return g


# ---------------------------------------------------------------------------
# block models


def _jordan(F, n, lam):
    J = Matrix.zeros(F, n)
    for i in range(n):
        J.data[i][i] = lam
        if i + 1 < n:
            J.data[i][i + 1] = F.one
    return J


def _paired_model(F, n, lam):
    """(diag(J_n(lam), -J_n(lam)^T), antidiag(I_n, I_n)) of size 2n."""
    J = _jordan(F, n, lam)
    A = Matrix.block_diagonal(F, [J, -J.transpose()])
    B = Matrix.zeros(F, 2 * n)
    for i in range(n):
        B.data[i][n + i] = F.one
        B.data[n + i][i] = F.one
    return A, B


def _raw_model(F, n, mu):
    """Single-chain model of size 2n+1: (J(0), alternating antidiagonal mu)."""
    size = 2 * n + 1
    A = _jordan(F, size, F.zero)
    B = Matrix.zeros(F, size)
    sign = F.one
    for i in range(size):
        B.data[i][size - 1 - i] = F.mul(sign, mu)
        sign = F.neg(sign)
    return A, B


def _bordered_model(F, n, mu):
    """Reordered single-chain model of size 2n+1.

    A carries a shift on the first n vectors, a 1 feeding the middle one,
    and the negated dual shift below; B is (-1)^n mu times the permutation
    pairing the two halves plus a lone middle entry.
    """
    size = 2 * n + 1
    A = Matrix.zeros(F, size)
    for r in range(1, n):
        A.data[r - 1][r] = F.one
    if n >= 1:
        A.data[n][0] = F.one
        A.data[n + 1][n] = F.neg(F.one)
    for j in range(n - 1):
        A.data[n + 2 + j][n + 1 + j] = F.neg(F.one)
    c = mu if n % 2 == 0 else F.neg(mu)
    B = Matrix.zeros(F, size)
    B.data[n][n] = c
    for r in range(n):
        B.data[r][n + 1 + r] = c
        B.data[n + 1 + r][r] = c
    return A, B


class CanonicalBlock:
    """One model block together with the ambient vectors that realize it.

    kind is 'paired', 'zero_even', 'zero_odd' or 'definite_semisimple'.
    matrix/gram hold the model pair; vectors, when present, are ambient
    columns P_r with f(P_r) = sum_s matrix[s][r] P_s and phi(P_r, P_s) =
    gram[r][s]. For zero_odd blocks mu is the normalized square-class
    representative, and form records which chain convention ('raw' or
    'bordered') matrix/gram use; a definite_semisimple block of x^2 + mu
    keeps that mu.

    Nothing derived is stored. mu_class, the square class of mu, is
    computed when read, and over Q that factors an integer. Keys and the
    block order read it for zero_odd blocks only, so deciding isometry of
    a definite seed never factors a rotation scalar; to_json, which prints
    every class, does. mu_data, the plane scalars d of a
    definite_semisimple block, is read off its Gram diag(d, mu d, ...).
    """

    __slots__ = ("kind", "size", "factor", "n", "mu", "form", "matrix", "gram", "vectors")

    def __init__(self, kind, size, factor, n, matrix, gram, vectors=None, mu=None, form=None):
        self.kind = kind
        self.size = size
        self.factor = factor
        self.n = n
        self.matrix = matrix
        self.gram = gram
        self.vectors = vectors
        self.mu = mu
        self.form = form

    @property
    def mu_class(self):
        return None if self.mu is None else square_class(self.factor.field, self.mu)

    @property
    def mu_data(self):
        if self.kind != "definite_semisimple":
            return None
        return [self.gram.data[i][i] for i in range(0, self.size, 2)]

    def _odd_class(self):
        """The class of mu as a string for zero_odd blocks, the one kind
        whose blocks of one factor and size it tells apart; else None."""
        return str(self.mu_class) if self.kind == "zero_odd" else None

    def signature(self):
        """Hashable key invariant under isometric base change.

        zero_odd blocks contribute their mu square class. The plane
        scalars of a definite_semisimple block stay out: rescaling a
        plane generator moves its scalar by a norm of the quadratic
        extension, so over a finite field any two scalars are equivalent
        and keeping them would split classes that are in fact one.
        """
        return (self.kind, self.size, tuple(self.factor.to_json()), self._odd_class())

    def sort_key(self):
        return (self.factor.sort_key(), self.size, self.kind, self._odd_class())

    def to_json(self):
        F = self.factor.field
        doc = {
            "kind": self.kind,
            "size": self.size,
            "factor": self.factor.to_json(),
            "mu_class": None if self.mu is None else str(self.mu_class),
        }
        if self.mu is not None:
            doc["mu"] = F.to_str(self.mu)
        if self.form is not None:
            doc["form"] = self.form
        if self.kind == "definite_semisimple":
            doc["plane_scalars"] = [F.to_str(d) for d in self.mu_data]
        return doc

    def __repr__(self):
        return f"CanonicalBlock({self.kind}, size={self.size}, factor={self.factor})"


def _certify(f, Vt, M, G, on_map, on_form):
    """The one pair certificate: A V = V M and V^T B V = G entry for entry,
    V = Vt^T, and rank V = n when V is square, which makes A V = V M the
    check V^-1 A V = M with no inverse formed."""
    V = Vt.transpose()
    if f.matrix * V != V * M or (V.is_square and V.rank() != V.nrows):
        raise ValidationError(on_map)
    if f.space.times_gram(Vt) * V != G:
        raise ValidationError(on_form)


def _verify_block(f, block):
    """_certify that block.vectors, the columns of V, realize (block.matrix,
    block.gram); returns the block."""
    _certify(f, Matrix._wrap(f.field, block.vectors), block.matrix, block.gram,
             "block certificate failed: map action mismatch",
             "block certificate failed: Gram mismatch")
    return block


# ---------------------------------------------------------------------------
# paired chains, shared by the +-lambda blocks and the even zero blocks


def _paired_chain(space, L, R, pos, neg, k):
    """Generators (v, w) of a dual pair of chains of length k + 1.

    v is the first vector of pos that L^k does not kill. The first vector
    of neg pairing with L^k v is resolved by _chain_dual into the w whose
    R-chain is dual to the L-chain of v.
    """
    for v in pos:
        top = krylov(L, v, k)[k]
        if any(top):
            break
    else:
        raise ValidationError("no vector of full chain length")
    w = next((b for b in neg if space.bilin(top, b)), None)
    if w is None:
        raise ValidationError("regular form fails to pair the chains")
    return v, _chain_dual(space, L, R, v, w, k)


def _chain_dual(space, L, R, v, w, k):
    """Solve for w' in span{R^i w} with phi(L^t v, w') = delta_{t,k}.

    The pairings phi(L^t v, R^i w) are one product, (chain of v) B (chain
    of w)^T, and the coefficients of w' are its solution against e_k.
    phi(L^t v, R^i w) = (-1)^i phi(L^{t+i} v, w) and phi(L^s v, w) = 0 for
    s > k make the system triangular, invertible exactly when phi(L^k v, w)
    is nonzero, so the solution is unique. w' does not depend on the scale
    of w.
    """
    F = space.field
    W = Matrix._wrap(F, krylov(R, w, k))
    P = space.times_gram(Matrix._wrap(F, krylov(L, v, k))) * W.transpose()
    if P.data[k][0] == F.zero:
        raise ValidationError("dual chain lost its pairing")
    return combine(F, P.solve([F.zero] * k + [F.one]), W.data)


def _paired_basis(L, R, v, w, k):
    """Columns of the paired model: L^k v, ..., L v, v, then w, -R w, R^2 w, ..."""
    return krylov(L, v, k)[::-1] + krylov(-R, w, k)


def _peel(space, parts, span):
    """Split the f-stable span of a block off each f-stable part.

    Each part keeps its meet with the orthogonal complement, the kernel of
    U G for U the span's rows and G the Gram matrix; a kernel reads only
    the row space of U G, so U needs no echelon form. Together the parts
    lose exactly len(span) dimensions when the span is an independent,
    regular block inside them; a dependent span loses fewer and fails the
    same check.
    """
    C = space.times_gram(Matrix._wrap(space.field, span))
    rest = [S.meet_kernel(C) for S in parts]
    if sum(S.dim for S in rest) != sum(S.dim for S in parts) - len(span):
        raise ValidationError("peeled block is not regular inside the part")
    return rest


# ---------------------------------------------------------------------------
# chains at a nonzero eigenvalue


def canonical_pair_nonzero(split, i):
    """The blocks of _nonzero_blocks, each certified against the ambient
    data."""
    return [_verify_block(split.endo, b) for b in _nonzero_blocks(split, i)]


def _nonzero_blocks(split, i):
    """Peel the +-lambda part of a primary split into paired chain blocks.

    split.factors[i] must be a monic linear factor x - lambda with lambda
    nonzero; the zero eigenvalue has its own entry point. Its component
    and that of its star partner x + lambda are the lambda and -lambda
    parts. Each pass takes the longest chains left and splits them off as
    a block (diag(J_n(lambda), -J_n(lambda)^T), antidiag(I_n, I_n)); both
    parts keep their orthogonal rest. The caller certifies the blocks.
    """
    f = split.endo
    space, F = f.space, f.field
    A = f.matrix
    if not space.regular:
        raise ValidationError("canonical pairs require a regular form")
    pi, mult = split.factors[i]
    if pi.degree != 1 or not pi.is_monic:
        raise ValidationError("expected a monic linear factor")
    lam = F.neg(pi.coeff(0))
    if lam == F.zero:
        raise ValidationError("zero eigenvalue: use the nilpotent entry point")
    j = split.pairing.get(i)
    if j is None or split.factors[j][1] != mult:
        raise ValidationError("skewness forces equal multiplicities at +-lambda")

    L = poly_at_matrix(pi, A)
    R = poly_at_matrix(split.factors[j][0], A)  # the star partner x + lambda
    pos, neg = split.components[i], split.components[j]
    blocks = []
    while pos.dim or neg.dim:
        n = _chain_length(L, pos)
        if n == 0 or _chain_length(R, neg) != n:
            raise ValidationError("restricted multiplicities out of step")
        v, w = _paired_chain(space, L, R, pos.basis, neg.basis, n - 1)
        Ablk, Bblk = _paired_model(F, n, lam)
        block = CanonicalBlock("paired", 2 * n, pi, n, Ablk, Bblk,
                               vectors=_paired_basis(L, R, v, w, n - 1))
        blocks.append(block)
        pos, neg = _peel(space, [pos, neg], block.vectors)
    return blocks


# ---------------------------------------------------------------------------
# the nilpotent part


def canonical_pair_zero(split):
    """The blocks of _zero_blocks, each certified against the ambient data."""
    return [_verify_block(split.endo, b) for b in _zero_blocks(split)]


def _zero_blocks(split):
    """Canonical blocks for the generalized kernel of a split map.

    The generalized kernel is the component of the factor x in split.
    Chains of even length k0 come in dual pairs and produce one block of
    size 2*k0 modeled exactly like a paired block at lambda = 0. Chains
    of odd length 2n+1 are self-dual, each carrying a scalar mu, and the
    mu values of all chains of one length form a diagonal quadratic form
    that is the actual invariant, well defined only up to congruence.
    Over a finite field each such group is therefore renormalized to
    (1, ..., 1, delta) with delta the determinant-class representative,
    by mixing the straightened generators; that makes equal-signature
    outputs for congruent inputs. Over the rationals deciding congruence
    is out of reach here, so each block keeps its own squarefree
    square-class representative: canonical per block, and canonical per
    pair whenever odd chain lengths do not repeat. Blocks are emitted in
    the bordered convention; canonical_pair re-sorts them globally. The
    caller certifies the blocks.

    The chains are peeled longest first. Once _chain_length is 1, f kills
    the part left, and its generators are read off the Gram H of that
    part's basis in one pass (_kernel_generators) instead of one
    _zero_odd_generator and one _peel per generator; H is the Gram that the
    degeneracy check formed when nothing was peeled before.
    """
    f = split.endo
    space, F = f.space, f.field
    A = f.matrix
    if not space.regular:
        raise ValidationError("canonical pairs require a regular form")
    x = Polynomial.x(F)
    kernels = [c for (pi, _), c in zip(split.factors, split.components) if pi == x]
    if not kernels:
        return []
    S = kernels[0]
    H = space.restrict_gram(S.basis) if S.dim else None
    if H is not None and H.rank() < H.nrows:
        raise ValidationError("zero component carries a degenerate form")

    blocks = []
    odd_pending = {}
    while S.dim > 0:
        k0 = _chain_length(A, S)
        if k0 == 1:
            # f kills the part left: its generators are read off its Gram
            if H is None:
                H = space.restrict_gram(S.basis)
            odd_pending[1] = _kernel_generators(F, S.basis, H.data)
            break
        if k0 % 2 == 0:
            block = _zero_even_step(f, S, k0)
            blocks.append(block)
            span = block.vectors
        else:
            w, mu_raw = _zero_odd_generator(f, S, k0)
            odd_pending.setdefault(k0, []).append((w, mu_raw))
            span = krylov(A, w, k0 - 1)
        [S] = _peel(space, [S], span)
        H = None

    for k0 in sorted(odd_pending):
        group = odd_pending[k0]
        if F.p != 0 and len(group) > 1:
            gens = [w for w, _ in group]
            mus = [mu for _, mu in group]
            g, nus = _fp_group_standardize(F, mus)
            # generator i of the standardized group: sum_j g[j][i] gens[j]
            mixed = (g.transpose() * Matrix._wrap(F, gens)).data
            for i, nu in enumerate(nus):
                blocks.append(_emit_odd_block(f, mixed[i], nu, k0))
        else:
            for w, mu_raw in group:
                rep = square_class_representative(F, mu_raw)
                scale = sqrt_in_field(F, F.div(mu_raw, rep))
                if scale is None:
                    raise ValidationError("square-class normalization failed")
                blocks.append(_emit_odd_block(f, combine(F, [F.inv(scale)], [w]), rep, k0))
    return blocks


def _kernel_generators(F, rows, H):
    """The generators (w, mu) that peeling one chain of length 1 at a time
    takes from a part that f kills, read off H, the Gram of its echelon
    basis rows, with no product, meet or restrict_gram per generator.

    Each pick is _zero_odd_generator's at k0 = 1: the first row s_i with
    H_ii != 0, w = s_i and mu = H_ii, or, when every H_ii is 0, the repair
    w = s_0 + s_j for the first j with H_0j != 0, and mu = 2 H_0j. The
    part left is {y S : r . y = 0}, r the row of H at w's coordinates,
    which r . y(w) = mu keeps nonzero. Its echelon basis, which _peel would
    find, is closed form: with l the last column where r is nonzero, the
    rows s_t - c_t s_l for t != l, c_t = r_t / r_l (0 beyond l), and their
    Gram is H with row and column l eliminated by the same c.
    """
    H = [list(row) for row in H]
    gens = []
    while rows:
        i = next((i for i in range(len(rows)) if H[i][i]), None)
        if i is not None:
            w, mu, r = rows[i], H[i][i], H[i]
        else:
            j = next((j for j, c in enumerate(H[0]) if c), None)
            if j is None:
                raise ValidationError("regular form fails to pair the chain")
            w = [F.add(a, b) for a, b in zip(rows[0], rows[j])]
            mu = F.add(H[0][j], H[0][j])
            r = [F.add(a, b) for a, b in zip(H[0], H[j])]
        gens.append((w, mu))
        l = max(t for t, c in enumerate(r) if c)
        inv = F.inv(r[l])
        c = [F.mul(rt, inv) for rt in r]
        keep = [t for t in range(len(rows)) if t != l]
        rows = [[F.sub(a, F.mul(c[t], b)) for a, b in zip(rows[t], rows[l])] if c[t]
                else rows[t] for t in keep]
        K = [[F.sub(a, F.mul(c[t], b)) for a, b in zip(H[t], H[l])] for t in keep]
        H = [[F.sub(row[b], F.mul(c[b], row[l])) for b in keep] for row in K]
    return gens


def _fp_group_standardize(F, mus):
    """Congruence g with g^T diag(mus) g = diag(1, ..., 1, delta) over F_p.

    delta is the square-class representative of the determinant. Exists
    because every regular form over F_p of dimension at least 2 reaches
    every nonzero value. The part left is kept as its basis rows s_i and
    their values d_i, since its Gram stays diagonal: the first square d_i
    gives the unit vector s_i / sqrt(d_i) and drops row i; when every d_i
    is a nonsquare, solve_binary's (a, b) with a^2 d_0 + b^2 d_1 = 1 gives
    x = a s_0 + b s_1 (a and b nonzero, as neither value is a square), and
    s_0 + t s_1 with t = -a d_0 / (b d_1), the one row of their span
    orthogonal to x, replaces rows 0 and 1 with value d_0 + t^2 d_1. The
    identity g^T diag(mus) g = diag(nus) is verified exactly before return,
    which checks every unit vector with it.
    """
    m = len(mus)
    rows = Matrix.identity(F, m).data
    ds = list(mus)
    cols = []
    for _ in range(m - 1):
        for i, d in enumerate(ds):
            root = sqrt_in_field(F, d)
            if root is not None:
                inv = F.inv(root)
                x = [F.mul(inv, c) for c in rows.pop(i)]
                del ds[i]
                break
        else:
            # every value is a nonsquare; combine the first two
            d0, d1 = ds[0], ds[1]
            a, b = solve_binary(F, d0, d1, F.one)
            x = [F.add(F.mul(a, u), F.mul(b, v)) for u, v in zip(rows[0], rows[1])]
            t = F.neg(F.div(F.mul(a, d0), F.mul(b, d1)))
            rows[0:2] = [[F.add(u, F.mul(t, v)) for u, v in zip(rows[0], rows[1])]]
            ds[0:2] = [F.add(d0, F.mul(F.mul(t, t), d1))]
        cols.append(x)

    [last] = rows
    val = ds[0]
    if val == F.zero:
        raise ValidationError("degenerate leftover in group standardization")
    rep = square_class_representative(F, val)
    inv = F.inv(sqrt_in_field(F, F.div(val, rep)))
    cols.append([F.mul(inv, c) for c in last])
    nus = [F.one] * (m - 1) + [rep]

    g = Matrix._wrap(F, cols).transpose()
    gtB = Matrix._wrap(F, [[F.mul(mu, c) for mu, c in zip(mus, x)] for x in cols])
    if gtB * g != Matrix.diagonal(F, nus):
        raise ValidationError("group standardization certificate failed")
    return g, nus


def _zero_even_step(f, S, k0):
    """Peel one dual pair of chains of even length k0.

    The raw generators need not span isotropic chains: with k = k0 - 1
    odd, phi(v, f^m v) can survive for even m. A correction
    v += (X_m/2) f^{k-m} w' shifts that one value by -X_m and crosses
    nothing above m, so sweeping m downward clears the v-chain; the dual
    pairing is re-solved after each step because low cross products move.
    The mirrored sweep on w' uses corrections along v and needs no
    re-solve: by then the v-chain pairs to zero with itself.
    """
    space, F = f.space, f.field
    A = f.matrix
    k = k0 - 1
    v, w1 = _paired_chain(space, A, A, S.basis, S.basis, k)

    cv, cw = krylov(A, v, k), krylov(A, w1, k)
    for m in range(k - 1, -1, -2):
        Xm = space.bilin(v, cv[m])
        if Xm != F.zero:
            v = combine(F, [F.one, F.half(Xm)], [v, cw[k - m]])
            w1 = _chain_dual(space, A, A, v, w1, k)
            cv, cw = krylov(A, v, k), krylov(A, w1, k)
    for m in range(k - 1, -1, -2):
        Ym = space.bilin(w1, cw[m])
        if Ym != F.zero:
            w1 = combine(F, [F.one, F.neg(F.half(Ym))], [w1, cv[k - m]])
            cw = krylov(A, w1, k)

    Ablk, Bblk = _paired_model(F, k0, F.zero)
    return CanonicalBlock("zero_even", 2 * k0, Polynomial.x(F), k0, Ablk, Bblk,
                          vectors=_paired_basis(A, A, v, w1, k))


def _zero_odd_generator(f, S, k0):
    """Straightened generator of one self-dual chain of odd length k0.

    Returns (w, mu) with f^k0 w = 0, phi(w, f^{k0-1} w) = mu nonzero and
    every lower self-product zero; no normalization of mu happens here.
    """
    space, F = f.space, f.field
    A = f.matrix
    k = k0 - 1
    n = k // 2

    v = None
    fallback = None
    for b in S.basis:
        img = krylov(A, b, k)[k]
        if not any(img):
            continue
        if fallback is None:
            fallback = b
        if space.bilin(b, img) != F.zero:
            v = b
            break
    if v is None:
        # self-product vanishes on every full-length basis vector; mix in
        # a partner that pairs against the top of the first one
        u = fallback
        if u is None:
            raise ValidationError("no vector of full chain length")
        top = krylov(A, u, k)[k]
        w = next((b for b in S.basis if space.bilin(b, top)), None)
        if w is None:
            raise ValidationError("regular form fails to pair the chain")
        # phi(w, f^k w) = 0 too, as for every basis vector, so u + w has
        # the self-product 2 phi(w, f^k u)
        v = combine(F, [F.one, F.one], [u, w])
        if space.bilin(v, krylov(A, v, k)[k]) == F.zero:
            raise ValidationError("chain generator repair failed")

    # clear phi(w, f^{k-2j} w) for j = 1..n; the top product is untouched
    w = v
    chain = krylov(A, w, k)
    for j in range(1, n + 1):
        low = space.bilin(w, chain[k - 2 * j])
        if low != F.zero:
            top = space.bilin(w, chain[k])
            c = F.div(low, F.add(top, top))
            w = combine(F, [F.one, F.neg(c)], [w, chain[2 * j]])
            chain = krylov(A, w, k)
    return w, space.bilin(w, chain[k])


def _emit_odd_block(f, w, mu, k0):
    """Bordered block for a straightened generator with top value mu.

    Its vectors are the chain of w in the bordered order of _bordered. mu
    is not checked against phi(w, f^(k0-1) w) here: it is an entry of the
    block's Gram, which the pair certificate of canonical_pair and
    scaled_pair, or _verify_block in canonical_pair_zero, compares against
    the form.
    """
    F = f.field
    n = (k0 - 1) // 2
    A, B = _bordered_model(F, n, mu)
    return CanonicalBlock(
        "zero_odd", k0, Polynomial.x(F), n, A, B,
        vectors=_bordered(F, krylov(f.matrix, w, k0 - 1)), mu=mu, form="bordered",
    )


# ---------------------------------------------------------------------------
# chain convention conversion for odd zero blocks


def _bordered(F, chain):
    """The bordered order of a chain w, f w, ..., f^(2n) w: f^(n-1) w, ...,
    w, then f^n w, then f^(n+1+j) w signed (-1)^(j+1). This is the one
    encoding of the order, and a signed permutation that is its own
    inverse: applied to the bordered vectors it gives the chain back."""
    n = len(chain) // 2
    upper = [[F.neg(a) for a in v] if j % 2 == 0 else v for j, v in enumerate(chain[n + 1:])]
    return chain[:n][::-1] + [chain[n]] + upper


def caalim_convert(block):
    """Re-express an odd zero block in the other chain convention.

    A raw block (single shift chain, alternating antidiagonal Gram)
    becomes the bordered model, and vice versa. The block is checked
    against the closed-form model of its own convention, and the
    reordering _bordered carries that model onto the other one, which is
    returned as built. Attached ambient vectors are reordered along:
    raw position i holds f^(2n-i) w, so the raw vectors read backwards
    are the chain.
    """
    if block.kind != "zero_odd":
        raise ValidationError("conversion applies to odd zero blocks")
    if block.form not in ("raw", "bordered"):
        raise ValidationError("block does not carry a chain convention")
    F = block.factor.field
    n = block.n
    models = {"raw": _raw_model(F, n, block.mu), "bordered": _bordered_model(F, n, block.mu)}
    A, B = models[block.form]
    if block.matrix != A or block.gram != B:
        raise ValidationError("chain conversion does not match the model")

    new_form = "bordered" if block.form == "raw" else "raw"
    vectors = block.vectors
    if vectors is not None:
        vectors = (_bordered(F, vectors[::-1]) if new_form == "bordered"
                   else _bordered(F, vectors)[::-1])
    return CanonicalBlock(
        "zero_odd", block.size, block.factor, n, *models[new_form],
        vectors=vectors, mu=block.mu, form=new_form,
    )


# ---------------------------------------------------------------------------
# residual descriptors and the full assembly


class ResidualPart:
    """A factor group outside the exact block models.

    kind 'definite_semisimple' parts mirror a block that did get built
    and hold only its kind, factors, mult and dim; 'untreated' parts keep
    their echelon basis and the restricted pair exactly as found. Only
    untreated parts contribute rows to the assembled canonical pair.
    """

    __slots__ = ("kind", "factors", "mult", "dim", "vectors", "matrix", "gram")

    def __init__(self, kind, factors, mult, dim, vectors=None, matrix=None, gram=None):
        self.kind = kind
        self.factors = factors
        self.mult = mult
        self.dim = dim
        self.vectors = vectors
        self.matrix = matrix
        self.gram = gram

    def to_json(self):
        return {
            "kind": self.kind,
            "dim": self.dim,
            "mult": self.mult,
            "factors": [p.to_json() for p in self.factors],
        }

    def __repr__(self):
        return f"ResidualPart({self.kind}, dim={self.dim})"


class CanonicalPair:
    """The canonical pair: sorted blocks, base change, residual report.

    basis_change is invertible, and P^-1 A P, P^T B P equal the
    block-diagonal assembly of the model blocks followed by the untreated
    residual parts, entry for entry; verify() checks that.
    """

    __slots__ = ("endo", "blocks", "residual", "basis_change")

    def __init__(self, endo, blocks, residual, basis_change):
        self.endo = endo
        self.blocks = blocks
        self.residual = residual
        self.basis_change = basis_change

    def block_signature(self):
        return tuple(b.signature() for b in self.blocks)

    def assembly(self):
        F = self.endo.field
        parts = self.blocks + [r for r in self.residual if r.kind == "untreated"]
        return (Matrix.block_diagonal(F, [b.matrix for b in parts]),
                Matrix.block_diagonal(F, [b.gram for b in parts]))

    def verify(self):
        """The pair certificate, which canonical_pair runs before it
        returns: _certify on basis_change against assembly()."""
        _certify(self.endo, self.basis_change.transpose(), *self.assembly(),
                 "canonical certificate failed on the map",
                 "canonical certificate failed on the form")
        return True

    def to_json(self):
        return {
            "blocks": [b.to_json() for b in self.blocks],
            "residual": [r.to_json() for r in self.residual],
            "basis_change": self.basis_change.to_json(),
        }

    def __repr__(self):
        return f"CanonicalPair({len(self.blocks)} blocks, {len(self.residual)} residual)"


def _definite_block(f, comp, pi):
    """The definite_semisimple block of a component of x^2 + mu whose form
    is anisotropic: planes span{v, f v}, v the first basis vector of the
    part left, each with companion [[0, -mu], [1, 0]] and Gram
    diag(d, mu d), d = q(v). The caller certifies the block."""
    space, F = f.space, f.field
    mu = pi.coeff(0)
    vectors, ds = [], []
    S = comp
    while S.dim:
        v = S.basis[0]
        vectors += [v, f.matrix.matvec(v)]
        ds.append(space.quad(v))
        [S] = _peel(space, [S], vectors[-2:])
    A, B = _definite_model(F, mu, ds)
    return CanonicalBlock("definite_semisimple", comp.dim, pi, comp.dim // 2, A, B,
                          vectors=vectors, mu=mu)


def _definite_model(F, mu, ds):
    """(companion [[0, -mu], [1, 0]] per plane, Gram diag(d, mu d) per
    plane scalar d in ds)."""
    piece = Matrix._wrap(F, [[F.zero, F.neg(mu)], [F.one, F.zero]])
    diag = [e for d in ds for e in (d, F.mul(mu, d))]
    return Matrix.block_diagonal(F, [piece] * len(ds)), Matrix.diagonal(F, diag)


def _untreated(f, factors, mult, sub):
    """The untreated residual part on sub, kept as found: its echelon
    basis and the restriction of the pair."""
    return ResidualPart(
        "untreated", factors, mult, sub.dim, [list(b) for b in sub.basis],
        sub.restrict(f.matrix), f.space.restrict_gram(sub.basis),
    )


def canonical_pair(f):
    """Full canonical pair of f: exact blocks where the models apply,
    residual descriptors elsewhere.

    One primary split of f feeds every part. Star pairs its factors, and
    the split coarsens into mutually orthogonal parts, each read once:

    zero part      the component of x, split into blocks by
                   canonical_pair_zero
    +-lambda pairs each pair of linear factors x - lambda, x + lambda,
                   split into blocks by canonical_pair_nonzero
    self-paired    a nonlinear factor fixed by star; when it is quadratic
                   with multiplicity 1 and its restricted form passes
                   quadspace.is_definite (definite over Q, anisotropic
                   over F_p), a definite_semisimple block (companion
                   planes, diagonal Gram), else one untreated residual
                   part with its restricted pair
    cross-paired   two nonlinear factors swapped by star, kept together
                   in one untreated residual part, since splitting them
                   would break the block diagonality of the Gram

    There is no radical part: primary_split refuses an unpaired component
    outside the radical, which is zero on the regular spaces accepted
    here, so every factor has a partner. No isotropic vector is searched
    for. Blocks sort by (factor, size, kind, class). The pair is certified
    once, before return, and nothing else is: M and G are block-diagonal,
    so A V = V M and V^T B V = G on one block's columns are that block's
    certificate, and a caller has nothing left to verify. A self-paired
    component is orthogonal to every other component of the regular space,
    so its restricted form is regular by construction and is not checked.
    """
    space, F = f.space, f.field
    if not space.regular:
        raise ValidationError("canonical pairs require a regular form")
    ps = primary_split(f)
    x = Polynomial.x(F)

    blocks = []
    residual = []
    for i, (pi, k) in enumerate(ps.factors):
        j = ps.pairing[i]
        if pi == x:
            blocks.extend(_zero_blocks(ps))
        elif pi.degree == 1:
            if j < i:
                continue  # orbit already emitted at its partner
            blocks.extend(_nonzero_blocks(ps, i))
        elif j == i:
            comp = ps.components[i]
            sub = OrthogonalSpace._wrap(space.restrict_gram(comp.basis))
            if pi.degree == 2 and k == 1 and is_definite(sub):
                blocks.append(_definite_block(f, comp, pi))
                residual.append(ResidualPart("definite_semisimple", [pi], k, comp.dim))
            else:
                residual.append(_untreated(f, [pi], k, comp))
        elif i < j:
            pj = ps.factors[j][0]
            group = ps.components[i].sum_with(ps.components[j])
            factors = sorted([pi, pj], key=lambda q: q.sort_key())
            residual.append(_untreated(f, factors, k, group))

    return _assemble(f, blocks, residual)


def _assemble(f, blocks, residual):
    """Sort blocks by (factor, size, kind, class) and residual parts by
    (first factor, dim), take their columns as the base change and certify
    the pair, which certifies every block."""
    blocks.sort(key=lambda b: b.sort_key())
    residual.sort(key=lambda r: (r.factors[0].sort_key(), r.dim))

    untreated = [r for r in residual if r.kind == "untreated"]
    cols = [v for part in blocks + untreated for v in part.vectors]
    if len(cols) != f.matrix.nrows:
        raise ValidationError("canonical columns do not span the space")
    pair = CanonicalPair(f, blocks, residual, Matrix._wrap(f.field, cols).transpose())
    pair.verify()
    return pair


def scaled_pair(pair, mu):
    """The canonical pair of mu f, for a nonzero scalar mu, rescaled from
    the canonical pair of f with no new split, chain or factorization.

    Each block's vectors are moved into the model of the scaled block:

    paired, zero_even   columns P_0..P_(n-1), Q_0..Q_(n-1) at lambda become
                        mu^-i P_i and mu^i Q_i, the model at mu lambda with
                        the same Gram. canonical_pair emits a +- pair at the
                        factor that sorts first; when x + mu lambda does,
                        X_j = (-1)^j Q'_(n-1-j), Y_j = (-1)^j P'_(n-1-j) are
                        the model at -mu lambda instead.
    zero_odd            the generator w (column n - 1, or 0 when n = 0) of
                        length 2n + 1 becomes mu^-n w for mu f, which keeps
                        phi(w, f^2n w) and so the block's scalar: a group
                        normalized to (1, ..., 1, delta) stays normalized.
    definite_semisimple the planes (v, f v) of x^2 + m become (v, mu f v),
                        of x^2 + mu^2 m with Gram diag(d, mu^2 m d).
    untreated           vectors and Gram stay; the restricted matrix is
                        scaled by mu and the factors by shift_scale(mu).

    Blocks and residual parts are re-sorted, then certified as
    canonical_pair certifies its own: once, by CanonicalPair.verify on the
    pair, which implies each block's certificate. mu f is skew because f
    is, with Omega = mu Omega_f, and is not checked again.

    The result is a certified pair of mu f with the blocks and key of
    canonical_pair(scaled_map(f, mu)), but not always its base change. So
    the census, which reads keys, takes this one, and decide_isometric,
    whose witness bytes are built from the base change, takes the other.
    Three merges were measured at 383c27b and refused: the census on
    canonical_pair(scaled_map(...)) cost 8-10 % more CPU; the decision on a
    fresh split in place of scaled_map was slower in 5 of 5 alternating
    runs; and the decision on scaled_pair would move witness bytes, as
    225 of 528 seed-and-scale comparisons with paired blocks gave another
    base change.
    """
    f = pair.endo
    F = f.field
    mu = F.of(mu)
    if not mu:
        raise ValidationError("scale must be nonzero")
    g = SkewEndo._wrap(f.space, f.matrix.scale(mu), f.omega.scale(mu))
    blocks = [_scaled_block(g, b, mu) for b in pair.blocks]
    residual = []
    for r in pair.residual:
        factors = sorted((pi.shift_scale(mu) for pi in r.factors), key=lambda q: q.sort_key())
        if r.kind == "untreated":
            residual.append(ResidualPart("untreated", factors, r.mult, r.dim, r.vectors,
                                         r.matrix.scale(mu), r.gram))
        else:
            residual.append(ResidualPart(r.kind, factors, r.mult, r.dim))
    return _assemble(g, blocks, residual)


def _scaled_block(g, block, mu):
    """The block of g = mu f that scaled_pair reads off block, a block of f;
    the caller certifies it."""
    F = g.field
    n = block.n
    factor = block.factor.shift_scale(mu)
    up = [F.one]  # up[i] = mu^i, down[i] = mu^-i
    for _ in range(n):
        up.append(F.mul(up[-1], mu))
    down = [F.inv(c) for c in up]

    def rescaled(terms):
        # new column r is c * old column i for (c, i) = terms[r]
        return [[F.mul(c, a) for a in block.vectors[i]] for c, i in terms]

    if block.kind == "zero_odd":
        [w] = rescaled([(down[n], max(n - 1, 0))])
        return _emit_odd_block(g, w, block.mu, block.size)
    if block.kind == "definite_semisimple":
        m = factor.coeff(0)
        A, B = _definite_model(F, m, block.mu_data)
        return CanonicalBlock(block.kind, block.size, factor, n, A, B, mu=m,
                              vectors=rescaled([(mu if i % 2 else F.one, i)
                                                for i in range(block.size)]))
    star = poly_star(factor)
    if star.sort_key() < factor.sort_key():
        factor = star

        def signed(c, j):
            return F.neg(c) if j % 2 else c

        terms = ([(signed(up[n - 1 - j], j), 2 * n - 1 - j) for j in range(n)]
                 + [(signed(down[n - 1 - j], j), n - 1 - j) for j in range(n)])
    else:
        terms = [(down[i], i) for i in range(n)] + [(up[i], n + i) for i in range(n)]
    A, B = _paired_model(F, n, F.neg(factor.coeff(0)))
    return CanonicalBlock(block.kind, block.size, factor, n, A, B, vectors=rescaled(terms))


# ---------------------------------------------------------------------------
# spectral form on anisotropic spaces


def spectral_form(f):
    """Companion-plane normal form for a skew map on an anisotropic space.

    The space must pass quadspace.is_definite: a definite form over Q, an
    anisotropic one over F_p. An indefinite rational form is refused even
    when it is anisotropic, since recognizing that would take a search for
    isotropic vectors. Anisotropy forces the map to be semisimple with
    even factors. A factor of degree above 2 is a capability limit,
    reported with the factor list. The kernel part comes first, its
    restricted form diagonalized; every x^2 + mu component follows,
    factors ascending, as the definite_semisimple block canonical_pair
    builds for it (_definite_block: planes with Gram diag(d, mu d)). The
    kernel is not handed to canonical_pair_zero, so no kernel scalar is
    normalized to its square class and nothing is factored.

    Returns (A_canon, B_canon, P), certified by _certify.
    """
    space, F = f.space, f.field
    if not space.regular:
        raise ValidationError("spectral form requires a regular form")
    if not is_definite(space):
        raise ValidationError("spectral form requires an anisotropic space")
    ps = primary_split(f)
    big = [pi for pi, _ in ps.factors if pi.degree > 2]
    if big:
        raise CapabilityError(
            "factors beyond quadratics are not constructed: "
            + ", ".join(str(p) for p in big)
        )

    x = Polynomial.x(F)
    cols, amats, grams = [], [], []
    # factors ascend by degree, so the kernel part comes first
    for (pi, _), comp in zip(ps.factors, ps.components):
        if pi == x:
            # orthogonal to the other components, so regular
            P0, d0 = diagonalize_form(OrthogonalSpace._wrap(space.restrict_gram(comp.basis)))
            cols.extend((P0.transpose() * Matrix._wrap(F, comp.basis)).data)
            amats.append(Matrix.zeros(F, comp.dim))
            grams.append(Matrix.diagonal(F, d0))
        else:
            b = _definite_block(f, comp, pi)
            cols.extend(b.vectors)
            amats.append(b.matrix)
            grams.append(b.gram)

    Pt = Matrix._wrap(F, cols)
    A_canon = Matrix.block_diagonal(F, amats)
    B_canon = Matrix.block_diagonal(F, grams)
    _certify(f, Pt, A_canon, B_canon,
             "spectral certificate failed on the map",
             "spectral certificate failed on the form")
    return A_canon, B_canon, Pt.transpose()
