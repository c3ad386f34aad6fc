"""Row reduction, rank, matrix product, scaling, matvec, Krylov chains,
minimal polynomials, polynomials at a matrix and row comparison over F_p
and Q, on lists of rows.

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
Over Q each kernel takes one integer image of each operand and builds
Fractions only for the results it returns: fp_matmul, scale_rows, fp_krylov
and fp_poly_at (Horner on D A with the coefficients over one denominator)
divide each result row once, and _forward images all rows at once. The
comparisons of rational certificates read the slots too: same_rows, with
no Fraction.__eq__ per entry. Over F_p, matrix equality stays the list
==, and scaling the entrywise product in linalg.

All row arithmetic is in _reduce, which clears the pivot columns of the
rows reduced so far from one int row: mod p over F_p, fraction-free with
content division over Q. _forward feeds the rows through it one at a
time; fp_rank is that forward pass, its determinant the pivot product
signed by the permutation that sorts the pivot columns, and fp_rref sorts
the pivot rows and reduces each again against those below it. Over Q
_forward divides each row of the one image by its content first.
fp_minpoly feeds the powers of a matrix through _reduce as they are
formed, stopping at the first dependent one. leading_minors is Bareiss
elimination without row exchanges, the leading principal minors of a
rational matrix for Sylvester's criterion. fp_matvec is the first step of
fp_krylov.

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


def same_rows(a, b):
    """Whether two lists of rational rows hold the same rows, entry by
    entry, read off the Fraction slots: each entry is in lowest terms, so
    equal values have equal slots. Int entries, which Matrix._wrap allows
    over Q, are compared by value."""
    if len(a) != len(b):
        return False
    try:
        for u, v in zip(a, b):
            if len(u) != len(v):
                return False
            for x, y in zip(u, v):
                if x is not y and (x._numerator != y._numerator
                                   or x._denominator != y._denominator):
                    return False
    except AttributeError:
        return all(
            len(u) == len(v) and all(
                x.numerator == y.numerator and x.denominator == y.denominator
                for x, y in zip(u, v))
            for u, v in zip(a, b))
    return True


def fp_rref(rows, ncols, p):
    """Reduced row echelon form: (rows, pivot columns, rank).

    The pivot rows of _forward, sorted by column, each reduced again
    against the rows below it, last to first. The input rows are left
    untouched.
    """
    out = []
    pivots = []
    below = []
    for c, u in sorted(_forward(rows, ncols, p)[0], reverse=True):
        if below:
            u = _reduce(u, below, 0, p)[0]
        below.append((c, u))
        pivots.append(c)
        # over F_p a copy: _reduce hands back an input row it leaves as it is
        out.append(list(u) if p else field_image(u, u[c], 0))
    out.reverse()
    pivots.reverse()
    r = len(pivots)
    for _ in range(r, len(rows)):
        out.append([0 if p else _ZERO] * ncols)
    return out, pivots, r


def fp_rank(rows, ncols, p):
    """(rank, det): det is the determinant of a square input.

    The pivot rows of _forward are an echelon form once sorted by column,
    so a full-rank input's determinant is their pivots' product signed by
    the permutation that sorts them; a deficient one's is zero.
    """
    reduced, num, den = _forward(rows, ncols, p)
    r = len(reduced)
    if r < len(rows):
        return r, 0 if p else _ZERO
    for i, (c, _) in enumerate(reduced):
        for b, _ in reduced[i + 1 :]:
            if b < c:
                num = -num
    return r, num % p if p else Fraction(num, den)


def _forward(rows, ncols, p):
    """Each row reduced against the pivot rows before it: the pivot rows,
    in input order as (pivot column, int row) pairs, and the product num /
    den of their pivots in the field.

    Over Q all rows share one integer image over D, and each row starts as
    its image divided by its content g, so the row in the field is g / D
    times the int row.
    """
    reduced = []
    num = den = 1
    if p:
        for row in rows:
            v, c, k, a = _reduce(row, reduced, ncols, p)
            if c is not None:
                reduced.append((c, v))
                num *= v[c] * k
                den *= a
        return reduced, num, den
    ints, D = integer_image(rows, 0)
    for v in ints:
        g = gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        v, c, k, a = _reduce(v, reduced, ncols, 0)
        if c is not None:
            reduced.append((c, v))
            num *= v[c] * k * g
            den *= a * D
    return reduced, num, den


def _reduce(v, reduced, width, p):
    """(v, c, k, a): the int row v with each pivot column of reduced cleared,
    in turn, and c its first nonzero column among the first width (None if
    there is none); v k / a is the row that subtracting multiples of the
    pivot rows from the given one leaves in the field.

    Over F_p the update is v - v[c] u mod p, and a new pivot row is scaled
    to a leading 1 (k is its pivot before, a = 1). Over Q it is
    fraction-free: with f = v[c], piv = u[c] and g = gcd(piv, f), the row
    becomes ((piv/g) v - (f/g) u) / content, so k takes the content and a
    takes piv/g.
    """
    k = a = 1
    for c, u in reduced:
        f = v[c]
        if not f:
            continue
        if p:
            v = [(x - f * y) % p for x, y in zip(v, u)]
        else:
            piv = u[c]
            g = gcd(piv, f)
            s, f = piv // g, f // g
            v = [s * x - f * y for x, y in zip(v, u)]
            g = gcd(*v)  # 0 on a row that cancels
            if g > 1:
                v = [x // g for x in v]
            k *= g
            a *= s
    for c in range(width):
        if v[c]:
            break
    else:
        return v, None, k, a
    if p and v[c] != 1:
        k = v[c]
        inv = pow(k, p - 2, p)
        v = [x * inv % p for x in v]
    return v, c, k, a


def fp_matmul(a, n, k, b, k2, m, p):
    """(n x k) times (k x m) product, both given as lists of rows.

    Each output entry is one dot product of a row of a with a column of b
    (b transposed once per call); k == 0 gives n x m zeros. Over Q, a is
    put over one denominator d and b over one D, each read once, so an
    output row is one row of integer dot products divided by d D.
    """
    if k != k2:
        raise ValueError("inner dimensions differ")
    if not k:
        return [[0 if p else _ZERO] * m for _ in range(n)]
    if p:
        cols = list(zip(*b))
        return [[sum(map(mul, arow, col)) % p for col in cols] for arow in a]
    aints, d = integer_image(a, 0)
    bints, D = integer_image(b, 0)
    cols = list(zip(*bints))
    d *= D
    return [field_image([sum(map(mul, row, col)) for col in cols], d, 0) for row in aints]


def scale_rows(rows, c):
    """c times the rational rows, c a Fraction: one integer image of the
    rows times c's numerator, each row divided once by d times c's
    denominator."""
    ints, d = integer_image(rows, 0)
    num = c._numerator
    d *= c._denominator
    return [field_image([a * num for a in row], d, 0) for row in ints]


def fp_poly_at(coeffs, rows, p):
    """sum_j c_j A^j for the coefficients (c_0, ..., c_d) of a polynomial
    and a square A given by its rows, by Horner: a polynomial of degree
    d >= 1 costs d - 1 products, a constant none.

    Over F_p, H starts as c_d A (A itself when c_d = 1) and each step is
    H <- H A + c_j I, reduced mod p. Over Q it runs on integer images:
    with A = Ahat / D and c_j = chat_j / e, the value is H / (e D^d) for
    the int matrix H = sum_j chat_j D^(d-j) Ahat^j, which starts as
    chat_d Ahat + chat_(d-1) D I and steps H <- H Ahat + chat_j D^(d-j) I,
    and each result row is one field_image.
    """
    n = len(rows)
    if not coeffs:
        return [[0 if p else _ZERO] * n for _ in range(n)]
    if p:
        *lower, lead = coeffs
        if not lower:
            h = [[0] * n for _ in range(n)]
            lower = [lead]
        elif lead == 1:
            h = [list(row) for row in rows]
        else:
            h = [[lead * a % p for a in row] for row in rows]
        cols = list(zip(*rows))
        for k, c in enumerate(reversed(lower)):
            if k:
                h = [[sum(map(mul, row, col)) % p for col in cols] for row in h]
            for i in range(n):
                h[i][i] = (h[i][i] + c) % p
        return h
    (c,), e = integer_image([coeffs], 0)
    d = len(c) - 1
    if not d:
        return [field_image([c[0] if i == j else 0 for j in range(n)], e, 0) for i in range(n)]
    ahat, D = integer_image(rows, 0)
    cols = list(zip(*ahat))
    h = [[c[d] * a for a in row] for row in ahat]
    scale = 1  # D^(d - j) once chat_j is added
    for j in range(d - 1, -1, -1):
        if j < d - 1:
            h = [[sum(map(mul, row, col)) for col in cols] for row in h]
        scale *= D
        for i in range(n):
            h[i][i] += c[j] * scale
    e *= scale
    return [field_image(row, e, 0) for row in h]


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
    fp_rref on all n + 1 powers would need n - 1. Each power is one
    _reduce, the row update of fp_rref and fp_rank. The tags of the zero
    row are a dependency sum_j t_j Ahat^j = 0 with t_d nonzero, so
    c_j = t_j D^j / (t_d D^d).
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
        v, c, _, _ = _reduce(v, reduced, size, p)
        if c is None:
            tags = v[size : size + d + 1]
            if p:
                return tags  # t_d = 1: the pivot rows carry no tag d
            return field_image([t * D**j for j, t in enumerate(tags)], tags[d] * D**d, 0)
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
