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
    minimal_polynomial,
    poly_at_matrix,
    primary_component,
)
from .quadspace import (
    OrthogonalSpace,
    diagonalize_form,
    isotropy_report,
    radical,
)

__all__ = [
    "PrimarySplit",
    "FourPartSplit",
    "CanonicalBlock",
    "ResidualPart",
    "CanonicalPair",
    "primary_split",
    "four_part_split",
    "canonical_pair_nonzero",
    "canonical_pair_zero",
    "canonical_pair",
    "spectral_form",
    "caalim_convert",
]


# ---------------------------------------------------------------------------
# chains, combinations and restrictions, all on the shared kernels; vectors
# here are lists of canonical field elements and are never coerced again


def _chain(A, v, k):
    """[v, A v, ..., A^k v]."""
    out = [v]
    for _ in range(k):
        out.append(A.matvec(out[-1]))
    return out


def _combine(F, coeffs, vecs):
    """sum_i coeffs[i] vecs[i], one row times the rows of vecs."""
    return (Matrix._wrap(F, [coeffs]) * Matrix._wrap(F, vecs)).data[0]


def _chain_length(N, S):
    """Least k with N^k S = 0, found by applying N to the basis of S."""
    vecs = S.basis
    k = 0
    while vecs:
        if k == S.dim:
            raise ValidationError("map is not nilpotent on the part")
        vecs = [w for w in (N.matvec(v) for v in vecs) if any(w)]
        k += 1
    return k


def _restricted_matrix(A, S):
    """Matrix of A acting on the invariant subspace S, in S's echelon basis."""
    cols = []
    for b in S.basis:
        c = S.coords_of(A.matvec(b))
        if c is None:
            raise ValidationError("subspace is not invariant under the map")
        cols.append(c)
    return Matrix._wrap(A.field, cols).transpose()


def _pairs_to_zero(space, U, W):
    if U.dim == 0 or W.dim == 0:
        return True
    F = space.field
    return (Matrix._wrap(F, U.basis) * space.gram * Matrix._wrap(F, W.basis).transpose()).is_zero()


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
    later calls.
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
    components = [primary_component(A, pi, k) for pi, k in factors]

    # one echelon over every component basis: the sum is direct and fills V
    total = Subspace._wrap(F, n, [v for comp in components for v in comp.basis])
    if sum(comp.dim for comp in components) != n or total.dim != n:
        raise ValidationError("primary components do not decompose the space")

    index = {tuple(pi.coeffs): i for i, (pi, _) in enumerate(factors)}
    pairing = {}
    unpaired = []
    for i, (pi, _) in enumerate(factors):
        j = index.get(tuple(poly_star(pi).coeffs))
        if j is None:
            unpaired.append(i)
        else:
            pairing[i] = j
    for i, j in pairing.items():
        if pairing.get(j) != i:
            raise ValidationError("eigenvalue pairing is not an involution")

    rad = radical(space) if unpaired else None
    for i in unpaired:
        # skewness forces partnerless components into the radical
        if not components[i].is_subspace_of(rad):
            raise ValidationError("unpaired primary component escapes the radical")
    f.split = PrimarySplit(f, m, factors, components, pairing, tuple(unpaired))
    return f.split


class FourPartSplit:
    """The orthogonal coarsening of the primary split into four parts.

    zero_part          generalized kernel (factor x)
    self_paired_part   components of nonlinear factors fixed by star
    cross_paired_part  sums of component pairs swapped by star
    radical_part       unpaired components, inside the radical of phi
    """

    __slots__ = (
        "split",
        "zero_part",
        "self_paired_part",
        "cross_paired_part",
        "radical_part",
        "self_paired_indices",
        "cross_pairs",
    )

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def four_part_split(f):
    """Coarsen the primary split into zero / self-paired / cross-paired /
    radical parts and verify they are mutually orthogonal."""
    space, F = f.space, f.field
    n = f.matrix.nrows
    ps = primary_split(f)
    x = Polynomial.x(F)

    zero = Subspace.zero(F, n)
    zero_part, self_part, cross_part, rad_part = zero, zero, zero, zero
    self_idx, cross_pairs = [], []
    for i, (pi, _) in enumerate(ps.factors):
        if i in ps.pairing:
            j = ps.pairing[i]
            if j == i:
                if pi == x:
                    zero_part = ps.components[i]
                else:
                    self_idx.append(i)
                    self_part = self_part.sum_with(ps.components[i])
            elif i < j:
                cross_pairs.append((i, j))
                cross_part = cross_part.sum_with(ps.components[i])
                cross_part = cross_part.sum_with(ps.components[j])
        else:
            rad_part = rad_part.sum_with(ps.components[i])

    parts = [zero_part, self_part, cross_part, rad_part]
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            if not _pairs_to_zero(space, parts[a], parts[b]):
                raise ValidationError("four-part split is not orthogonal")
    # each member of a swapped pair is totally isotropic on its own
    for i, j in cross_pairs:
        for idx in (i, j):
            comp = ps.components[idx]
            if comp.dim and not space.restrict_gram(comp.basis).is_zero():
                raise ValidationError("cross-paired component is not totally isotropic")
    return FourPartSplit(
        split=ps,
        zero_part=zero_part,
        self_paired_part=self_part,
        cross_paired_part=cross_part,
        radical_part=rad_part,
        self_paired_indices=self_idx,
        cross_pairs=cross_pairs,
    )


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
    representative, mu_raw the value the construction produced, and form
    records which chain convention ('raw' or 'bordered') matrix/gram use.
    definite_semisimple blocks keep their plane scalars in mu_data.
    """

    __slots__ = (
        "kind",
        "size",
        "factor",
        "n",
        "mu",
        "mu_raw",
        "mu_class",
        "form",
        "mu_data",
        "matrix",
        "gram",
        "vectors",
    )

    def __init__(self, kind, size, factor, n, matrix, gram, vectors=None,
                 mu=None, mu_raw=None, mu_class=None, form=None, mu_data=None):
        self.kind = kind
        self.size = size
        self.factor = factor
        self.n = n
        self.matrix = matrix
        self.gram = gram
        self.vectors = vectors
        self.mu = mu
        self.mu_raw = mu_raw
        self.mu_class = mu_class
        self.form = form
        self.mu_data = mu_data

    def signature(self):
        """Hashable key invariant under isometric base change.

        zero_odd blocks contribute their mu square class. The plane
        scalars of a definite_semisimple block stay out: rescaling a
        plane generator moves its scalar by a norm of the quadratic
        extension, so over a finite field any two scalars are equivalent
        and keeping them would split classes that are in fact one.
        """
        fac = tuple(self.factor.field.to_str(c) for c in self.factor.coeffs)
        extra = str(self.mu_class) if self.kind == "zero_odd" else None
        return (self.kind, self.size, fac, extra)

    def sort_key(self):
        return (self.factor.sort_key(), self.size, self.kind, str(self.mu_class))

    def to_json(self):
        F = self.factor.field
        doc = {
            "kind": self.kind,
            "size": self.size,
            "factor": [F.to_str(c) for c in self.factor.coeffs],
            "mu_class": None if self.mu_class is None else str(self.mu_class),
        }
        if self.mu is not None:
            doc["mu"] = F.to_str(self.mu)
        if self.form is not None:
            doc["form"] = self.form
        if self.mu_data is not None:
            doc["plane_scalars"] = [F.to_str(d) for d in self.mu_data]
        return doc

    def __repr__(self):
        return f"CanonicalBlock({self.kind}, size={self.size}, factor={self.factor})"


def _verify_block(f, block):
    """Entry-exact check that block.vectors realize (block.matrix, block.gram):
    A V = V M and V^T B V = G, with the vectors as the columns of V."""
    Vt = Matrix._wrap(f.field, block.vectors)
    V = Vt.transpose()
    if f.matrix * V != V * block.matrix:
        raise ValidationError("block certificate failed: map action mismatch")
    if Vt * f.space.gram * V != block.gram:
        raise ValidationError("block certificate failed: Gram mismatch")


# ---------------------------------------------------------------------------
# paired chains, shared by the +-lambda blocks and the even zero blocks


def _paired_chain(space, L, R, pos, neg, k):
    """Generators (v, w) of a dual pair of chains of length k + 1.

    v is the first vector of pos that L^k does not kill. The first vector
    of neg pairing with L^k v is resolved by _chain_dual into the w whose
    R-chain is dual to the L-chain of v.
    """
    for v in pos:
        top = _chain(L, v, k)[k]
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

    phi(L^t v, R^i w) = (-1)^i phi(L^{t+i} v, w) and phi(L^s v, w) = 0 for
    s > k make the system triangular with invertible diagonal. w' does not
    depend on the scale of w.
    """
    F = space.field
    D = [space.bilin(u, w) for u in _chain(L, v, k)]
    if D[k] == F.zero:
        raise ValidationError("dual chain lost its pairing")
    alphas = [F.inv(D[k])]
    for j in range(1, k + 1):
        t = k - j
        acc = F.zero
        sign = F.one
        for i in range(j):
            acc = F.add(acc, F.mul(F.mul(sign, alphas[i]), D[t + i]))
            sign = F.neg(sign)
        alphas.append(F.neg(F.div(acc, F.mul(sign, D[k]))))
    return _combine(F, alphas, _chain(R, w, k))


def _paired_basis(L, R, v, w, k):
    """Columns of the paired model: L^k v, ..., L v, v, then w, -R w, R^2 w, ..."""
    return _chain(L, v, k)[::-1] + _chain(-R, w, k)


def _peel(space, parts, span):
    """Split the f-stable span of a block off each f-stable part.

    The span must be independent, and each part keeps its meet with the
    orthogonal complement, the kernel of U G for U the span and G the Gram
    matrix; together they lose exactly len(span) dimensions, which is what
    a regular block inside the parts leaves.
    """
    U = Subspace._wrap(space.field, space.dim, span)
    if U.dim != len(span):
        raise ValidationError("chain vectors are dependent")
    C = U.matrix() * space.gram
    rest = [S.meet_kernel(C) for S in parts]
    if sum(S.dim for S in rest) != sum(S.dim for S in parts) - len(span):
        raise ValidationError("peeled block is not regular inside the part")
    return rest


# ---------------------------------------------------------------------------
# chains at a nonzero eigenvalue


def canonical_pair_nonzero(split, i):
    """Peel the +-lambda part of a primary split into paired chain blocks.

    split.factors[i] must be a monic linear factor x - lambda with lambda
    nonzero; the zero eigenvalue has its own entry point. Its component
    and that of its star partner x + lambda are the lambda and -lambda
    parts. Each pass takes the longest chains left and splits them off as
    a block (diag(J_n(lambda), -J_n(lambda)^T), antidiag(I_n, I_n)),
    certified exactly against the ambient data; both parts keep their
    orthogonal rest.
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
        _verify_block(f, block)
        blocks.append(block)
        pos, neg = _peel(space, [pos, neg], block.vectors)
    return blocks


# ---------------------------------------------------------------------------
# the nilpotent part


def canonical_pair_zero(split):
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
    the bordered convention; canonical_pair re-sorts them globally.
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
    if S.dim and space.restrict_gram(S.basis).det() == F.zero:
        raise ValidationError("zero component carries a degenerate form")

    blocks = []
    odd_pending = {}
    while S.dim > 0:
        k0 = _chain_length(A, S)
        if k0 % 2 == 0:
            block = _zero_even_step(f, S, k0)
            _verify_block(f, block)
            blocks.append(block)
            span = block.vectors
        else:
            w, mu_raw = _zero_odd_generator(f, S, k0)
            odd_pending.setdefault(k0, []).append((w, mu_raw))
            span = _chain(A, w, k0 - 1)
        [S] = _peel(space, [S], span)

    for k0 in sorted(odd_pending):
        group = odd_pending[k0]
        if F.p != 0 and len(group) > 1:
            gens = [w for w, _ in group]
            mus = [mu for _, mu in group]
            g, nus = _fp_group_standardize(F, mus)
            # generator i of the standardized group: sum_j g[j][i] gens[j]
            mixed = (g.transpose() * Matrix._wrap(F, gens)).data
            for i, nu in enumerate(nus):
                block = _emit_odd_block(f, mixed[i], nu, group[i][1], k0)
                _verify_block(f, block)
                blocks.append(block)
        else:
            for w, mu_raw in group:
                rep = square_class_representative(F, mu_raw)
                scale = sqrt_in_field(F, F.div(mu_raw, rep))
                if scale is None:
                    raise ValidationError("square-class normalization failed")
                block = _emit_odd_block(f, _combine(F, [F.inv(scale)], [w]), rep, mu_raw, k0)
                _verify_block(f, block)
                blocks.append(block)
    return blocks


def _fp_group_standardize(F, mus):
    """Congruence g with g^T diag(mus) g = diag(1, ..., 1, delta) over F_p.

    delta is the square-class representative of the determinant. Exists
    because every regular form over F_p of dimension at least 2 reaches
    every nonzero value: each unit vector is a square diagonal value's
    basis vector over its root, or, when every diagonal value is a
    nonsquare, the point solve_binary finds on the first two. The identity
    is verified exactly before return.
    """
    m = len(mus)
    diag = Matrix.diagonal(F, mus)

    def q(xv, yv):
        acc = F.zero
        for idx in range(m):
            acc = F.add(acc, F.mul(mus[idx], F.mul(xv[idx], yv[idx])))
        return acc

    cols = []
    S = Subspace.full(F, m)
    for _ in range(m - 1):
        sub = OrthogonalSpace(Matrix._wrap(F, [[q(a, b) for b in S.basis] for a in S.basis]))
        P0, d0 = diagonalize_form(sub)
        # the diagonalizing basis of sub, in ambient coordinates
        lifted = (P0.transpose() * Matrix._wrap(F, S.basis)).data

        x = None
        for i, di in enumerate(d0):
            r = sqrt_in_field(F, di)
            if r is not None:
                x = _combine(F, [F.inv(r)], [lifted[i]])
                break
        if x is None:
            # every diagonal value is a nonsquare; combine the first two
            x = _combine(F, list(solve_binary(F, d0[0], d0[1], F.one)), lifted[:2])
        if q(x, x) != F.one:
            raise ValidationError("unit vector construction failed")
        cols.append(x)
        S = S.meet_kernel(Matrix._wrap(F, [[F.mul(mus[idx], x[idx]) for idx in range(m)]]))
        if S.dim != m - len(cols):
            raise ValidationError("group standardization lost a dimension")

    last = S.basis[0]
    val = q(last, last)
    if val == F.zero:
        raise ValidationError("degenerate leftover in group standardization")
    rep = square_class_representative(F, val)
    r = sqrt_in_field(F, F.div(val, rep))
    cols.append(_combine(F, [F.inv(r)], [last]))
    nus = [F.one] * (m - 1) + [rep]

    g = Matrix._wrap(F, cols).transpose()
    if g.transpose() * diag * g != Matrix.diagonal(F, nus):
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

    cv, cw = _chain(A, v, k), _chain(A, w1, k)
    for m in range(k - 1, -1, -2):
        Xm = space.bilin(v, cv[m])
        if Xm != F.zero:
            v = _combine(F, [F.one, F.half(Xm)], [v, cw[k - m]])
            w1 = _chain_dual(space, A, A, v, w1, k)
            cv, cw = _chain(A, v, k), _chain(A, w1, k)
    for m in range(k - 1, -1, -2):
        Ym = space.bilin(w1, cw[m])
        if Ym != F.zero:
            w1 = _combine(F, [F.one, F.neg(F.half(Ym))], [w1, cv[k - m]])
            cw = _chain(A, w1, k)

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
        img = _chain(A, b, k)[k]
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
        top = _chain(A, u, k)[k]
        w = next((b for b in S.basis if space.bilin(b, top)), None)
        if w is None:
            raise ValidationError("regular form fails to pair the chain")
        v = w
        if space.bilin(w, _chain(A, w, k)[k]) == F.zero:
            v = _combine(F, [F.one, F.one], [u, w])
        if space.bilin(v, _chain(A, v, k)[k]) == F.zero:
            raise ValidationError("chain generator repair failed")

    # clear phi(w, f^{k-2j} w) for j = 1..n; the top product is untouched
    w = v
    chain = _chain(A, w, k)
    for j in range(1, n + 1):
        low = space.bilin(w, chain[k - 2 * j])
        if low != F.zero:
            top = space.bilin(w, chain[k])
            c = F.div(low, F.add(top, top))
            w = _combine(F, [F.one, F.neg(c)], [w, chain[2 * j]])
            chain = _chain(A, w, k)
    return w, space.bilin(w, chain[k])


def _emit_odd_block(f, w, mu, mu_raw, k0):
    """Bordered block for a straightened generator with top value mu."""
    space, F = f.space, f.field
    A = f.matrix
    k = k0 - 1
    n = k // 2
    chain = _chain(A, w, k)
    if space.bilin(w, chain[k]) != mu:
        raise ValidationError("odd block generator does not carry its scalar")
    Araw, Braw = _raw_model(F, n, mu)
    raw = CanonicalBlock(
        "zero_odd", k0, Polynomial.x(F), n, Araw, Braw, vectors=chain[::-1],
        mu=mu, mu_raw=mu_raw, mu_class=square_class(F, mu), form="raw",
    )
    return caalim_convert(raw)


# ---------------------------------------------------------------------------
# chain convention conversion for odd zero blocks


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


def caalim_convert(block):
    """Re-express an odd zero block in the other chain convention.

    A raw block (single shift chain, alternating antidiagonal Gram)
    becomes the bordered model, and vice versa. Attached ambient vectors
    are transported along, and the converted pair is checked against the
    closed-form target model before anything is returned.
    """
    if block.kind != "zero_odd":
        raise ValidationError("conversion applies to odd zero blocks")
    F = block.factor.field
    n = block.n
    T = _conversion_matrix(F, n)
    Tinv = T.inverse()
    if block.form == "raw":
        newA = Tinv * block.matrix * T
        newB = T.transpose() * block.gram * T
        targetA, targetB = _bordered_model(F, n, block.mu)
        new_form = "bordered"
    elif block.form == "bordered":
        newA = T * block.matrix * Tinv
        newB = Tinv.transpose() * block.gram * Tinv
        targetA, targetB = _raw_model(F, n, block.mu)
        new_form = "raw"
    else:
        raise ValidationError("block does not carry a chain convention")
    if newA != targetA or newB != targetB:
        raise ValidationError("chain conversion does not match the model")

    vectors = None
    if block.vectors is not None:
        # new vector r is sum_i M[i][r] old_i
        M = T if block.form == "raw" else Tinv
        vectors = (M.transpose() * Matrix._wrap(F, block.vectors)).data
    return CanonicalBlock(
        "zero_odd", block.size, block.factor, n, targetA, targetB,
        vectors=vectors, mu=block.mu, mu_raw=block.mu_raw,
        mu_class=block.mu_class, form=new_form,
    )


# ---------------------------------------------------------------------------
# residual descriptors and the full assembly


class ResidualPart:
    """A factor group outside the exact block models.

    kind 'definite_semisimple' parts mirror a block that did get built
    and carry its plane scalars; 'untreated' parts keep their echelon
    basis and the restricted pair exactly as found. Only untreated parts
    contribute rows to the assembled canonical pair.
    """

    __slots__ = ("kind", "factors", "mult", "dim", "vectors", "matrix", "gram", "mu_data")

    def __init__(self, kind, factors, mult, dim, vectors, matrix, gram, mu_data=None):
        self.kind = kind
        self.factors = factors
        self.mult = mult
        self.dim = dim
        self.vectors = vectors
        self.matrix = matrix
        self.gram = gram
        self.mu_data = mu_data

    def to_json(self):
        F = self.factors[0].field
        return {
            "kind": self.kind,
            "dim": self.dim,
            "mult": self.mult,
            "factors": [[F.to_str(c) for c in p.coeffs] for p in self.factors],
        }

    def __repr__(self):
        return f"ResidualPart({self.kind}, dim={self.dim})"


class CanonicalPair:
    """The canonical pair: sorted blocks, base change, residual report.

    basis_change is invertible, and P^-1 A P, P^T B P equal the
    block-diagonal assembly of the model blocks followed by the untreated
    residual parts, entry for entry; verify() recomputes that check.
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
        untreated = [r for r in self.residual if r.kind == "untreated"]
        mats = [b.matrix for b in self.blocks] + [r.matrix for r in untreated]
        grams = [b.gram for b in self.blocks] + [r.gram for r in untreated]
        mats = [m for m in mats if m.nrows]
        grams = [g for g in grams if g.nrows]
        if not mats:
            return Matrix(F, []), Matrix(F, [])
        return Matrix.block_diagonal(F, mats), Matrix.block_diagonal(F, grams)

    def verify(self):
        A = self.endo.matrix
        B = self.endo.space.gram
        P = self.basis_change
        MA, MB = self.assembly()
        if P.inverse() * A * P != MA:
            raise ValidationError("canonical certificate failed on the map")
        if P.transpose() * B * P != MB:
            raise ValidationError("canonical certificate failed on the form")
        return True

    def to_json(self):
        return {
            "blocks": [b.to_json() for b in self.blocks],
            "residual": [r.to_json() for r in self.residual],
            "basis_change": self.basis_change.to_json(),
        }

    def __repr__(self):
        return f"CanonicalPair({len(self.blocks)} blocks, {len(self.residual)} residual)"


def _definite_planes(f, comp, pi):
    """Split an anisotropic component of x^2 + mu into f-stable planes."""
    space, F = f.space, f.field
    A = f.matrix
    if pi.degree != 2 or pi.coeff(1) != F.zero:
        raise ValidationError("expected an even quadratic factor")
    mu = pi.coeff(0)
    vectors, ds = [], []
    S = comp
    while S.dim > 0:
        v = next((b for b in S.basis if space.quad(b)), None)
        if v is None:
            raise ValidationError("anisotropic component contains an isotropic line")
        fv = A.matvec(v)
        vectors.extend([v, fv])
        ds.append(space.quad(v))
        U = Subspace._wrap(F, A.nrows, [v, fv])
        if U.dim != 2:
            raise ValidationError("spectral plane collapsed")
        S = S.meet_kernel(U.matrix() * space.gram)
    piece = Matrix._wrap(F, [[F.zero, F.neg(mu)], [F.one, F.zero]])
    Ablk = Matrix.block_diagonal(F, [piece] * len(ds))
    diag = []
    for d in ds:
        diag.extend([d, F.mul(mu, d)])
    Bblk = Matrix.diagonal(F, diag)
    return vectors, Ablk, Bblk, ds


def _is_anisotropic(space):
    if space.dim == 0:
        return True
    return isotropy_report(space).verdict in ("anisotropic", "anisotropic-definite")


def canonical_pair(f):
    """Full canonical pair of f: exact blocks where the models apply,
    residual descriptors elsewhere.

    One primary split of f feeds every part. The zero component and
    every +-lambda pair of linear factors split into certified blocks,
    read off that split by the two chain peelers. A nonlinear self-paired component whose
    restricted form is anisotropic and whose factor is quadratic becomes
    a definite_semisimple block (companion planes, diagonal Gram); every
    other nonlinear component is reported untreated with its restricted
    pair. Cross-paired component pairs stay together in one residual
    part, since splitting them would break the block diagonality of the
    Gram. Blocks sort by (factor, size, kind, class); the global base
    change is certified entry-exact before return.
    """
    space, F = f.space, f.field
    A = f.matrix
    n = A.nrows
    if not space.regular:
        raise ValidationError("canonical pairs require a regular form")
    ps = primary_split(f)
    x = Polynomial.x(F)

    blocks = []
    residual = []
    for i, (pi, k) in enumerate(ps.factors):
        j = ps.pairing.get(i)
        if j is None:
            raise ValidationError("regular forms cannot have unpaired components")
        if pi == x:
            blocks.extend(canonical_pair_zero(ps))
        elif pi.degree == 1:
            if j < i:
                continue  # orbit already emitted at its partner
            blocks.extend(canonical_pair_nonzero(ps, i))
        elif j == i:
            comp = ps.components[i]
            sub = OrthogonalSpace(space.restrict_gram(comp.basis))
            if pi.degree == 2 and k == 1 and _is_anisotropic(sub):
                vecs, Ablk, Bblk, ds = _definite_planes(f, comp, pi)
                blk = CanonicalBlock(
                    "definite_semisimple", comp.dim, pi, comp.dim // 2,
                    Ablk, Bblk, vectors=vecs, mu=pi.coeff(0),
                    mu_class=square_class(F, pi.coeff(0)), mu_data=ds,
                )
                _verify_block(f, blk)
                blocks.append(blk)
                residual.append(ResidualPart(
                    "definite_semisimple", [pi], k, comp.dim,
                    None, Ablk, Bblk, mu_data=ds,
                ))
            else:
                residual.append(ResidualPart(
                    "untreated", [pi], k, comp.dim,
                    [list(b) for b in comp.basis],
                    _restricted_matrix(A, comp),
                    space.restrict_gram(comp.basis),
                ))
        elif i < j:
            pj = ps.factors[j][0]
            group = ps.components[i].sum_with(ps.components[j])
            residual.append(ResidualPart(
                "untreated", sorted([pi, pj], key=lambda q: q.sort_key()),
                k, group.dim,
                [list(b) for b in group.basis],
                _restricted_matrix(A, group),
                space.restrict_gram(group.basis),
            ))

    blocks.sort(key=lambda b: b.sort_key())
    residual.sort(key=lambda r: (r.factors[0].sort_key(), r.dim))

    cols = []
    for b in blocks:
        cols.extend(b.vectors)
    for r in residual:
        if r.kind == "untreated":
            cols.extend(r.vectors)
    if len(cols) != n:
        raise ValidationError("canonical columns do not span the space")
    P = Matrix._wrap(F, cols).transpose()
    pair = CanonicalPair(f, blocks, residual, P)
    pair.verify()
    return pair


# ---------------------------------------------------------------------------
# spectral form on anisotropic spaces


def spectral_form(f):
    """Companion-plane normal form for a skew map on an anisotropic space.

    Anisotropy forces the map to be semisimple with even factors: the
    kernel part is diagonalized and every x^2 + mu component splits into
    planes with Gram diag(d, mu d), kernel part first, factors ascending.
    Quadratic factors only; a larger irreducible factor is a capability
    limit, reported with the factor list. Over the rationals anisotropy
    itself must be certain, which in practice means a definite form.

    Returns (A_canon, B_canon, P) with the certificate checked.
    """
    space, F = f.space, f.field
    A = f.matrix
    n = A.nrows
    if not space.regular:
        raise ValidationError("spectral form requires a regular form")
    if not _is_anisotropic(space):
        raise ValidationError("spectral form requires an anisotropic space")
    if n == 0:
        return Matrix(F, []), Matrix(F, []), Matrix(F, [])

    ps = primary_split(f)
    big = [pi for pi, _ in ps.factors if pi.degree > 2]
    if big:
        raise CapabilityError(
            "factors beyond quadratics are not constructed: "
            + ", ".join(str(p) for p in big)
        )
    for pi, k in ps.factors:
        if k != 1:
            raise ValidationError("anisotropic spaces force a squarefree minimal polynomial")

    x = Polynomial.x(F)
    parts = list(zip(ps.factors, ps.components))
    cols, amats, grams = [], [], []
    for (pi, _), comp in parts:
        if pi != x:
            continue
        sub = OrthogonalSpace(space.restrict_gram(comp.basis))
        P0, d0 = diagonalize_form(sub)
        cols.extend((P0.transpose() * Matrix._wrap(F, comp.basis)).data)
        amats.append(Matrix.zeros(F, comp.dim))
        grams.append(Matrix.diagonal(F, d0))

    for (pi, _), comp in parts:
        if pi == x:
            continue
        if pi.degree == 1:
            raise ValidationError("anisotropic spaces admit no nonzero eigenvalues")
        if pi.coeff(1) != F.zero:
            raise ValidationError("cross-paired factors cannot appear on an anisotropic space")
        vecs, Ablk, Bblk, _ = _definite_planes(f, comp, pi)
        cols.extend(vecs)
        amats.append(Ablk)
        grams.append(Bblk)

    P = Matrix._wrap(F, cols).transpose()
    A_canon = Matrix.block_diagonal(F, amats)
    B_canon = Matrix.block_diagonal(F, grams)
    if P.inverse() * A * P != A_canon:
        raise ValidationError("spectral certificate failed on the map")
    if P.transpose() * space.gram * P != B_canon:
        raise ValidationError("spectral certificate failed on the form")
    return A_canon, B_canon, P
