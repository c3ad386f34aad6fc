"""Row reduction, rank, matrix product, matvec and Krylov chains over F_p
and Q, on lists of rows.

p is the characteristic: an odd prime means F_p, with int entries already
reduced into [0, p); p == 0 means Q, with Fraction entries. Results are
canonical field elements of the same kind. All arithmetic is on Python
ints, which makes every prime exact, however large. Over Q every kernel
brings its inputs to integers over common denominators once (each
Fraction read by one as_integer_ratio call), works on those integers, and
builds one Fraction per entry that a caller reads: row reduction is
fraction-free, fp_rank runs its elimination but builds no reduced row,
and a product, matvec or Krylov entry is one integer sum divided once.

Over F_p each entry of a product is one C-level dot product,
sum(map(mul, row, col)) % p, and fp_matvec and fp_krylov take their
entries the same way; over Q so do the product and the Krylov chain, on
the integer images. A dot product also multiplies the zeros, so a sparse
product pays for them: a 30 x 30 product at 5 % density runs about 6x
slower than a sum over the nonzero entries. The benchmark workloads
multiply maps of n <= 6, and there such a sum, chosen per row or per call
by counting zeros, cost the census 5-7 % of its throughput and saved
nothing on the round trip (BENCH_17.json).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

BACKEND = "pure"

_ZERO = Fraction(0)


def _integer_row(row):
    """(integers, denominator): row == [a / denominator for a in integers]."""
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in ratios])
    return [a * (den // d) for a, d in ratios], den


def _fractions(ints, den):
    """[a / den for a in ints], zeros as the shared zero."""
    return [Fraction(a, den) if a else _ZERO for a in ints]


def fp_rref(rows, ncols, p):
    """Reduced row echelon form: (rows, pivot columns, rank, pivot product).

    The pivot product is signed by the row swaps, so for a square input of
    full rank it is the determinant. The input rows are left untouched.
    """
    m, pivots, r, det = _eliminate(rows, ncols, p)
    if p:
        return m, pivots, r, det
    out = [_fractions(m[i], m[i][c]) for i, c in enumerate(pivots)]
    out.extend([_ZERO] * ncols for _ in range(r, len(m)))
    return out, pivots, r, det


def fp_rank(rows, ncols, p):
    """(rank, pivot product) of fp_rref, from the same elimination, without
    building the reduced rows over Q."""
    _, _, r, det = _eliminate(rows, ncols, p)
    return r, det


def _eliminate(rows, ncols, p):
    """The one elimination behind fp_rref and fp_rank."""
    return _eliminate_fp(rows, ncols, p) if p else _eliminate_rational(rows, ncols)


def _eliminate_fp(rows, ncols, p):
    """fp_rref over F_p: Gauss-Jordan on residues."""
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


def _eliminate_rational(rows, ncols):
    """The elimination of fp_rref over Q, fraction-free: (m, pivots, rank,
    pivot product), with the pivot rows of m not yet divided by their pivots.

    Until it pivots, row i of the Gauss-Jordan elimination on the input is
    m[i] * num[i] / den[i], with m[i] an int row of content 1. Eliminating
    column c from m[i] with pivot row m[r] gives ((pivot/g) m[i] - (f/g)
    m[r]) / k, where f = m[i][c], g = gcd(pivot, f) and k is the content;
    the Gauss-Jordan row is that times k / (pivot/g) of its old scale, so
    num[i] takes k and den[i] takes pivot/g. Each pivot of the elimination,
    m[r][c] * num[r] / den[r], is thus exact, and so is their signed
    product. fp_rref divides the pivot rows by their pivots once, at the
    end; fp_rank, which reads only the rank and the product, never does.
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
    return m, pivots, r, Fraction(det_num, det_den)


def fp_matmul(a, n, k, b, k2, m, p):
    """(n x k) times (k x m) product, both given as lists of rows.

    Each output entry is one dot product of a row of a with a column of b
    (b transposed once per call); k == 0 gives n x m zeros. Over Q the rows
    of b are brought to integers once, b[j] = ints_j / d_j, and each row of
    a is put over one denominator den with the integer coefficients
    den a[j] / d_j, so an output entry is one Fraction of an integer dot
    product.
    """
    if k != k2:
        raise ValueError("inner dimensions differ")
    if not k:
        return [[0 if p else _ZERO] * m for _ in range(n)]
    if p:
        cols = list(zip(*b))
        return [[sum(map(mul, arow, col)) % p for col in cols] for arow in a]
    bints, dens = zip(*[_integer_row(brow) for brow in b])
    cols = list(zip(*bints))
    out = []
    for arow in a:
        # a zero entry takes denominator 1, so den is the lcm over the others
        terms = [
            (x, q * d) if x else (0, 1)
            for (x, q), d in zip([av.as_integer_ratio() for av in arow], dens)
        ]
        den = lcm(*[t for _, t in terms])
        ints = [x * (den // t) for x, t in terms]
        out.append(_fractions([sum(map(mul, ints, col)) for col in cols], den))
    return out


def fp_matvec(rows, v, p):
    """The rows (a list of rows) times the column v: one entry per row.

    Over F_p each entry is one dot product, as in fp_matmul. Over Q the
    support of v is put over integers once, v = ints / d_v there; each row
    is then one integer sum over that support, over the lcm of the row's
    denominators there, and one Fraction.
    """
    if p:
        return [sum(map(mul, row, v)) % p for row in rows]
    support = [j for j, c in enumerate(v) if c]
    vints, dv = _integer_row([v[j] for j in support])
    out = []
    for row in rows:
        ratios = [row[j].as_integer_ratio() for j in support]
        den = lcm(*[q for _, q in ratios])
        s = sum([x * (den // q) * c for (x, q), c in zip(ratios, vints)])
        out.append(Fraction(s, den * dv) if s else _ZERO)
    return out


def fp_krylov(rows, v, k, p):
    """The chain [v, A v, ..., A^k v] for the square A given by its rows.

    Over F_p each step is one fp_matvec. Over Q, A = Ahat / D over the
    common denominator D of its entries and v = vhat / d_v, so
    A^t v = Ahat^t vhat / (D^t d_v): the chain runs on ints, each entry one
    C-level dot product, and each vector after v is one Fraction per entry.
    """
    chain = [v]
    if p:
        for _ in range(k):
            chain.append(fp_matvec(rows, chain[-1], p))
        return chain
    if not k:
        return chain
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    D = lcm(*[q for row in ratios for _, q in row])
    ahat = [[a * (D // q) for a, q in row] for row in ratios]
    w, scale = _integer_row(v)
    for _ in range(k):
        w = [sum(map(mul, row, w)) for row in ahat]
        scale *= D
        chain.append(_fractions(w, scale))
    return chain
