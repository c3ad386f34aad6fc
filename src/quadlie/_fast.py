"""Mod-p kernels: row reduction and matrix product on flat int lists.

Matrices are flat row-major int lists with entries already reduced into
[0, p); results are reduced the same way. Python ints make every prime
exact, however large.
"""

BACKEND = "pure"


def fp_rref(mat, nrows, ncols, p):
    """Reduced row echelon form. Returns (flat matrix, pivot columns, rank)."""
    m = list(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if m[i * ncols + c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            for j in range(ncols):
                m[r * ncols + j], m[pr * ncols + j] = m[pr * ncols + j], m[r * ncols + j]
        inv = pow(m[r * ncols + c], p - 2, p)
        if inv != 1:
            for j in range(ncols):
                m[r * ncols + j] = m[r * ncols + j] * inv % p
        for i in range(nrows):
            f = m[i * ncols + c]
            if i == r or not f:
                continue
            for j in range(ncols):
                m[i * ncols + j] = (m[i * ncols + j] - f * m[r * ncols + j]) % p
        pivots.append(c)
        r += 1
    return m, pivots, r


def fp_matmul(a, n, k, b, k2, m, p):
    """Flat (n x k) times (k x m) product mod p."""
    if k != k2:
        raise ValueError("inner dimensions differ")
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        orow = i * m
        for t in range(k):
            av = arow[t]
            if not av:
                continue
            brow = t * m
            for j in range(m):
                out[orow + j] = (out[orow + j] + av * b[brow + j]) % p
    return out
