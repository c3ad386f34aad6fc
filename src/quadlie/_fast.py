"""Row reduction, matrix product and matvec over F_p and Q, on lists of rows.

p is the characteristic: an odd prime means F_p, with int entries already
reduced into [0, p); p == 0 means Q, with Fraction entries. Results are
canonical field elements of the same kind. All arithmetic is on Python
ints, which makes every prime exact, however large. Over Q row reduction
and the product bring each row to integers over the lcm of its
denominators, do the work on those integers, and build one Fraction per
entry of the result.

Over F_p each entry of a product is one C-level dot product,
sum(map(mul, row, col)) % p, and fp_matvec takes its entries the same way.
A dot product also multiplies the zeros, so a sparse product pays for
them: a 30 x 30 product at 5 % density runs about 6x slower than a sum
over the nonzero entries. The benchmark workloads multiply maps of n <= 6,
and there such a sum, chosen per row or per call by counting zeros, cost
the census 5-7 % of its throughput and saved nothing on the round trip
(BENCH_17.json).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

BACKEND = "pure"

_ZERO = Fraction(0)


def _integer_row(row):
    """(integers, denominator): row == [a / denominator for a in integers]."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def fp_rref(rows, ncols, p):
    """Reduced row echelon form: (rows, pivot columns, rank, pivot product).

    The pivot product is signed by the row swaps, so for a square input of
    full rank it is the determinant. The input rows are left untouched.
    """
    if not p:
        return _rref_rational(rows, ncols)
    m = [list(row) for row in rows]
    nrows = len(m)
    pivots = []
    det = 1
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
            inv = pow(piv, p - 2, p)
            m[r] = [a * inv % p for a in m[r]]
        prow = m[r]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        pivots.append(c)
        r += 1
    return m, pivots, r, det % p


def _rref_rational(rows, ncols):
    """fp_rref over Q, fraction-free.

    Until it pivots, row i of the Gauss-Jordan elimination on the input is
    m[i] * num[i] / den[i], with m[i] an int row of content 1. Eliminating
    column c from m[i] with pivot row m[r] gives ((pivot/g) m[i] - (f/g)
    m[r]) / k, where f = m[i][c], g = gcd(pivot, f) and k is the content;
    the Gauss-Jordan row is that times k / (pivot/g) of its old scale, so
    num[i] takes k and den[i] takes pivot/g. Each pivot of the elimination,
    m[r][c] * num[r] / den[r], is thus exact, and so is their signed
    product. The pivot rows are divided by their pivots once, at the end.
    """
    m = []
    num = []
    den = []
    for row in rows:
        ints, d = _integer_row(row)
        g = gcd(*ints)
        if g > 1:
            ints = [a // g for a in ints]
        m.append(ints)
        num.append(g)
        den.append(d)
    nrows = len(m)
    pivots = []
    det_num = det_den = 1
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
            num[r], num[i] = num[i], num[r]
            den[r], den[i] = den[i], den[r]
            det_num = -det_num
        prow = m[r]
        piv = prow[c]
        det_num *= piv * num[r]
        det_den *= den[r]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            row = [a * x - b * y for x, y in zip(m[i], prow)]
            k = gcd(*row)  # 0 on a row that cancels: it never pivots again
            if k > 1:
                row = [x // k for x in row]
            m[i] = row
            num[i] *= k
            den[i] *= a
        pivots.append(c)
        r += 1
    out = []
    for i, c in enumerate(pivots):
        piv = m[i][c]
        out.append([Fraction(x, piv) if x else _ZERO for x in m[i]])
    out.extend([_ZERO] * ncols for _ in range(r, nrows))
    return out, pivots, r, Fraction(det_num, det_den)


def fp_matmul(a, n, k, b, k2, m, p):
    """(n x k) times (k x m) product, both given as lists of rows.

    Over F_p each output entry is one dot product of a row of a with a
    column of b (b transposed once per call); k == 0 gives n x m zeros.

    Over Q the rows of b are brought to integers, each row of a is put over
    one common denominator, and each output entry is one Fraction of an
    integer dot product.
    """
    if k != k2:
        raise ValueError("inner dimensions differ")
    if p:
        if not k:
            return [[0] * m for _ in range(n)]
        cols = list(zip(*b))
        return [[sum(map(mul, arow, col)) % p for col in cols] for arow in a]
    bints = [_integer_row(brow) for brow in b]
    out = []
    for arow in a:
        # a[j] * b[j] == (a[j] / d_j) * ints_j, each a[j] / d_j over one denominator
        terms = [
            (av.numerator, av.denominator * d, ints)
            for av, (ints, d) in zip(arow, bints)
            if av
        ]
        den = lcm(*[t[1] for t in terms])
        orow = [0] * m
        for av, d, ints in terms:
            av *= den // d
            orow = [o + av * bv for o, bv in zip(orow, ints)]
        out.append([Fraction(o, den) if o else _ZERO for o in orow])
    return out


def fp_matvec(rows, v, p):
    """The rows (a list of rows) times the column v: one entry per row.

    Over F_p each entry is one dot product, as in fp_matmul; over Q it sums
    over the nonzero entries of v.
    """
    if p:
        return [sum(map(mul, row, v)) % p for row in rows]
    nz = [(j, c) for j, c in enumerate(v) if c]
    return [sum([row[j] * c for j, c in nz], _ZERO) for row in rows]
