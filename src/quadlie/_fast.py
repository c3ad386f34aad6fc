"""Row reduction, rank, matrix product, matvec, Krylov chains and minimal
polynomials over F_p and Q, on lists of rows.

p is the characteristic: an odd prime means F_p, with int entries already
reduced into [0, p); p == 0 means Q, with Fraction entries. Results are
canonical field elements of the same kind. All arithmetic is on Python
ints, which makes every prime exact, however large.

One helper converts in each direction, for the kernels here, the Lie
algebra layer and rational factoring alike. integer_image puts vectors over
Q on one common denominator, reading each Fraction's two slots
(_numerator, _denominator) directly rather than through Fraction's
Python-level properties, and leaves vectors over F_p as they are.
field_image divides the int results once, or reduces them mod p: each
nonzero rational entry is built as object.__new__(Fraction) with its slots
set after one gcd, the value, normal form and hash of Fraction(a, d)
without the constructor's dispatch, and int_fraction does the same for
Field.of's integer scalars. These are the only readers and makers of
Fraction internals in quadlie; the slot layout is checked by the tests.
Row reduction is fraction-free, fp_rank builds no reduced row, fp_matvec is
the first step of fp_krylov, fp_minpoly eliminates the powers of a matrix
one at a time as they are formed, stopping at the first dependent one, and
leading_minors is Bareiss elimination without row exchanges, the leading
principal minors of a rational matrix for Sylvester's criterion.

Each entry of a product or a Krylov step is one C-level dot product,
sum(map(mul, row, col)), reduced mod p over F_p. A dot product also
multiplies the zeros, so a sparse product pays for them: a 30 x 30 product
at 5 % density runs about 6x slower than a sum over the nonzero entries.
The benchmark workloads multiply maps of n <= 6, and there such a sum,
chosen per row or per call by counting zeros, cost the census 5-7 % of its
throughput and saved nothing on the round trip (BENCH_17.json).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

BACKEND = "pure"

_ZERO = Fraction(0)


def integer_image(vecs, p):
    """(ints, d) with vecs == [[a / d for a in v] for v in ints]: over Q, d
    is the least common denominator of all entries (1 if there are none);
    over F_p, vecs as they are and d = 1."""
    if p:
        return vecs, 1
    try:
        d = lcm(*{x._denominator for v in vecs for x in v})
    except AttributeError:  # int entries, which Matrix._wrap allows over Q
        d = lcm(*{x.denominator for v in vecs for x in v})
        return [[x.numerator * (d // x.denominator) for x in v] for v in vecs], d
    if d == 1:
        return [[x._numerator for x in v] for v in vecs], 1
    return [[x._numerator * (d // x._denominator) for x in v] for v in vecs], d


def field_image(ints, d, p):
    """ints / d in the field: over Q one Fraction per nonzero entry, in
    lowest terms with a positive denominator (d may be negative), and the
    shared zero for the others; over F_p (d = 1) each int reduced mod p."""
    if p:
        return [a % p for a in ints]
    if d < 0:
        ints = [-a for a in ints]
        d = -d
    out = []
    for a in ints:
        if a:
            g = gcd(a, d)
            x = object.__new__(Fraction)
            x._numerator = a // g
            x._denominator = d // g
            out.append(x)
        else:
            out.append(_ZERO)
    return out


def int_fraction(a):
    """Fraction(a) of an int a, built as field_image builds its entries."""
    x = object.__new__(Fraction)
    x._numerator = a
    x._denominator = 1
    return x


def nonzero(a, p):
    """Whether the int a (over Q also a Fraction) is nonzero in the field."""
    return a % p if p else a


def fp_rref(rows, ncols, p):
    """Reduced row echelon form: (rows, pivot columns, rank, pivot product).

    The pivot product is signed by the row swaps, so for a square input of
    full rank it is the determinant. The input rows are left untouched.
    """
    m, pivots, r, det = _eliminate(rows, ncols, p)
    if p:
        return m, pivots, r, det
    out = [field_image(m[i], m[i][c], 0) for i, c in enumerate(pivots)]
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
        (ints,), d = integer_image([row], 0)
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
    (b transposed once per call); k == 0 gives n x m zeros. Over Q, b is
    put over one denominator D and each row of a over its own d, so an
    output entry is one integer dot product divided by d D.
    """
    if k != k2:
        raise ValueError("inner dimensions differ")
    if not k:
        return [[0 if p else _ZERO] * m for _ in range(n)]
    if p:
        cols = list(zip(*b))
        return [[sum(map(mul, arow, col)) % p for col in cols] for arow in a]
    bints, D = integer_image(b, 0)
    cols = list(zip(*bints))
    out = []
    for arow in a:
        (ints,), d = integer_image([arow], 0)
        out.append(field_image([sum(map(mul, ints, col)) for col in cols], d * D, 0))
    return out


def fp_matvec(rows, v, p):
    """The rows (a list of rows) times the column v: one entry per row,
    the first step of fp_krylov."""
    return fp_krylov(rows, v, 1, p)[1]


def fp_krylov(rows, v, k, p):
    """The chain [v, A v, ..., A^k v] for A given by its rows; A must be
    square once k > 1.

    With A = Ahat / D and v = vhat / d_v the integer images,
    A^t v = Ahat^t vhat / (D^t d_v): the chain runs on ints, each entry one
    C-level dot product, and each vector after v is one field_image (over
    F_p, D = d_v = 1 and each step is reduced mod p before the next).
    """
    chain = [v]
    if not k:
        return chain
    ahat, D = integer_image(rows, p)
    (w,), scale = integer_image([v], p)
    for _ in range(k):
        w = [sum(map(mul, row, w)) for row in ahat]
        scale *= D
        chain.append(field_image(w, scale, p))
        if p:
            w = chain[-1]
    return chain


def fp_minpoly(rows, p):
    """Coefficients (c_0, ..., c_(d-1), 1), as a list, of the minimal
    polynomial of a square matrix A given by its rows: A^d is the first
    power that I, A, ..., A^(d-1) span, and A^d = -sum_j c_j A^j.

    The powers run on the integer image Ahat = D A (D = 1 over F_p, where
    each power is reduced mod p), each flattened to n^2 ints and carrying a
    unit tag for its exponent. Every power is reduced against the rows
    before it as soon as it is formed, so the loop stops at the first power
    that reduces to zero, and a map of degree d forms d - 1 products where
    fp_rref on all n + 1 powers would need n - 1: hence an incremental
    elimination of its own. Over F_p the pivot rows are scaled to a leading
    1; over Q the elimination is fraction-free with content division, as
    in _eliminate_rational. The tags of the zero row are a dependency
    sum_j t_j Ahat^j = 0 with t_d nonzero, so c_j = t_j D^j / (t_d D^d).
    """
    n = len(rows)
    size = n * n
    ahat, D = integer_image(rows, p)
    cols = list(zip(*ahat))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced = []  # (pivot column, row): n^2 power entries, then n + 1 tags
    for d in range(n + 1):
        if d == 1:
            power = ahat
        elif d:
            power = [[sum(map(mul, row, col)) for col in cols] for row in power]
            if p:
                power = [[a % p for a in row] for row in power]
        v = [a for row in power for a in row] + [0] * (n + 1)
        v[size + d] = 1
        for c, u in reduced:
            f = v[c]
            if not f:
                continue
            if p:
                v = [(a - f * b) % p for a, b in zip(v, u)]
            else:
                piv = u[c]
                g = gcd(piv, f)
                a, b = piv // g, f // g
                v = [a * x - b * y for x, y in zip(v, u)]
                k = gcd(*v)
                if k > 1:
                    v = [x // k for x in v]
        c = next((j for j in range(size) if v[j]), None)
        if c is None:
            tags = v[size : size + d + 1]
            if p:
                return tags  # t_d = 1: the pivot rows carry no tag d
            return field_image([t * D**j for j, t in enumerate(tags)], tags[d] * D**d, 0)
        if p and v[c] != 1:
            inv = pow(v[c], p - 2, p)
            v = [a * inv % p for a in v]
        reduced.append((c, v))
    raise ValueError("n + 1 independent powers: the matrix is not square")


def leading_minors(rows):
    """The leading principal minors d^k D_k of the integer image (ints, d)
    of a square rational matrix, k = 1, 2, ..., up to the first zero one,
    which ends the list. Scaling by d > 0 keeps every sign of D_k.

    Bareiss elimination without row exchanges: after step k the trailing
    entries are (k+1) x (k+1) minors of the image, each update
    (piv a_ij - a_ik a_kj) divided exactly by the previous pivot, and the
    pivot of step k is the k-th leading minor.
    """
    m, _ = integer_image(rows, 0)
    minors = []
    prev = 1
    for k in range(len(m)):
        prow = m[k]
        piv = prow[k]
        if not piv:
            break
        minors.append(piv)
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = piv
    return minors
