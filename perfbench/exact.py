"""Plain exact arithmetic the benchmark uses to make inputs and check answers.

Nothing here imports quadlie: inputs are built and answers re-checked with
Python ints mod p (p > 0) or Fractions (p == 0), so a defect in the code
under test cannot also hide in its own check. Matrices are lists of rows.
"""

from fractions import Fraction


def norm(c, p):
    """Reduce a scalar into the field: int mod p, or Fraction over Q."""
    if p:
        if isinstance(c, Fraction):
            return c.numerator * pow(c.denominator, p - 2, p) % p
        return c % p
    return Fraction(c)


def matmul(a, b, p):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row, orow = a[i], out[i]
        for t in range(k):
            c = row[t]
            if c:
                brow = b[t]
                for j in range(m):
                    orow[j] += c * brow[j]
        if p:
            out[i] = [c % p for c in orow]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def inverse(a, p):
    """Inverse by Gauss-Jordan, or None when a is singular."""
    n = len(a)
    m = [[norm(c, p) for c in row] + [norm(int(i == j), p) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        inv = pow(m[c][c], p - 2, p) if p else 1 / m[c][c]
        m[c] = [x * inv % p if p else x * inv for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def same(a, b, p):
    """Entry-wise equality of two matrices over the field."""
    return len(a) == len(b) and all(
        len(r) == len(s) and all(norm(x, p) == norm(y, p) for x, y in zip(r, s))
        for r, s in zip(a, b)
    )


def random_invertible(rng, n, p, span):
    """Dense random invertible matrix with its inverse.

    Entries are drawn as in the acceptance tests: uniform mod p, or
    integers in [1 - span, span] over Q.
    """
    while True:
        if p:
            P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        else:
            P = [[rng.randint(1 - span, span) for _ in range(n)] for _ in range(n)]
        Pi = inverse(P, p)
        if Pi is not None:
            return [[norm(c, p) for c in row] for row in P], Pi


def bracket(table, dim, x, y, p):
    """[x, y] from sparse structure constants {(i, j): vector}, i < j."""
    out = [0] * dim
    for (i, j), vec in table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for r in range(dim):
                out[r] += c * vec[r]
    return [norm(c, p) for c in out]


def extension_constants(gram, delta, p):
    """Structure constants and Gram of the double extension of (gram, delta).

    Basis (delta, v_1..v_n, delta*): [delta, v_j] = delta(v_j) and
    [v_i, v_j] = phi(delta v_i, v_j) delta*, the construction the paper
    defines; the form pairs delta with delta* and restricts to phi.
    """
    n = len(gram)
    dim = n + 2
    table = {}
    for j in range(n):
        col = [delta[i][j] for i in range(n)]
        if any(col):
            table[(0, j + 1)] = [0] + col + [0]
    at_g = matmul(transpose(delta), gram, p)
    for i in range(n):
        for j in range(i + 1, n):
            c = norm(at_g[i][j], p)
            if c:
                vec = [0] * dim
                vec[n + 1] = c
                table[(i + 1, j + 1)] = vec
    G = [[0] * dim for _ in range(dim)]
    G[0][n + 1] = G[n + 1][0] = 1
    for i in range(n):
        G[i + 1][1 : n + 1] = gram[i]
    return table, G


def is_isometric_isomorphism(t1, g1, t2, g2, M, p):
    """True when M (columns: images of basis 1 in basis 2) is an invertible
    bracket homomorphism from algebra 1 to algebra 2 carrying g2 to g1."""
    dim = len(M)
    if inverse(M, p) is None:
        return False
    if not same(matmul(matmul(transpose(M), g2, p), M, p), g1, p):
        return False
    cols = transpose(M)
    unit = identity(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = bracket(t2, dim, cols[i], cols[j], p)
            rhs = [sum(M[r][s] * c for s, c in enumerate(bracket(t1, dim, unit[i], unit[j], p)))
                   for r in range(dim)]
            if not same([lhs], [rhs], p):
                return False
    return True
