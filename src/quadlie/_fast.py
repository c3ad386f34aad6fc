"""Row reduction and matrix product over F_p and Q, on lists of rows.

p is the characteristic: an odd prime means F_p, with int entries already
reduced into [0, p); p == 0 means Q, with Fraction entries. Results are
canonical field elements of the same kind. Python ints make every prime
exact, however large.
"""

from fractions import Fraction

BACKEND = "pure"


def fp_rref(rows, ncols, p):
    """Reduced row echelon form: (rows, pivot columns, rank, pivot product).

    The pivot product is signed by the row swaps, so for a square input of
    full rank it is the determinant. The input rows are left untouched.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots = []
    det = 1 if p else Fraction(1)
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
            if p:
                inv = pow(piv, p - 2, p)
                m[r] = [a * inv % p for a in m[r]]
            else:
                inv = 1 / piv
                m[r] = [a * inv for a in m[r]]
        prow = m[r]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            if p:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
            else:
                m[i] = [a - f * b for a, b in zip(m[i], prow)]
        pivots.append(c)
        r += 1
    return m, pivots, r, det % p if p else det


def fp_matmul(a, n, k, b, k2, m, p):
    """(n x k) times (k x m) product, both given as lists of rows."""
    if k != k2:
        raise ValueError("inner dimensions differ")
    zero = 0 if p else Fraction(0)
    out = []
    for arow in a:
        orow = [zero] * m
        for av, brow in zip(arow, b):
            if av:
                orow = [o + av * bv for o, bv in zip(orow, brow)]
        out.append([o % p for o in orow] if p else orow)
    return out
