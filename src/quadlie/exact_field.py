"""Exact scalars over Q and F_p (p an odd prime) and univariate polynomials.

Scalars are plain values: fractions.Fraction for Q, ints in [0, p) for F_p.
A Field instance carries the arithmetic so the same code runs over either
field. Characteristic 2 is rejected everywhere; halving is used throughout
the form algorithms.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from ._fast import int_fraction, integer_image
from .errors import CapabilityError, ValidationError, json_list

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the 13 bases above is deterministic below this composite,
# the least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86 (2017)); from it on _is_prime runs Baillie-PSW instead.
_MR_DETERMINISTIC = 3317044064679887385961981

# Largest decimal exponent |e| a scalar string such as "1e300" may carry.
# Fraction builds 10**|e| exactly, so without a bound one short string
# ("1e1000000") stalls the parse; 10**1000 takes microseconds.
SCALAR_EXPONENT_BOUND = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _exponent_in_range(s):
    m = _EXPONENT.search(s)
    if m is None:
        return True
    digits = m.group(1).replace("_", "").lstrip("0")
    # the length test first: the exponent string itself may be huge
    return (len(digits) <= len(str(SCALAR_EXPONENT_BOUND))
            and int(digits or "0") <= SCALAR_EXPONENT_BOUND)


# Ints up to this many bits (602 decimal digits) are printed by str():
# below 640, the least limit sys.set_int_max_str_digits accepts.
_STR_BITS = 2000


def _int_str(n):
    """Decimal digits of the int n, whatever sys.get_int_max_str_digits says.

    Larger ints are split at a power of ten into halves printed apart.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _is_prime(n):
    """Primality: Miller-Rabin to the bases _MR_BASES below
    _MR_DETERMINISTIC, where it is exact; Baillie-PSW (Miller-Rabin to base
    2 and a strong Lucas test) from there on, with no known counterexample."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < _MR_DETERMINISTIC:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    """Miller-Rabin round to base a for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with Selfridge's parameters, for odd n free of
    small factors: D the first of 5, -7, 9, -11, ... with (D / n) = -1,
    P = 1 and Q = (1 - D) / 4; with n + 1 = d 2^s, n passes when U_d = 0
    or V_(d 2^r) = 0 for some r < s, all mod n."""
    if isqrt(n) ** 2 == n:
        return False  # no D would ever be found
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(t):
        return (t + n if t % 2 else t) // 2

    # (U_k, V_k, Q^k) from k = 1, left to right over the bits of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and with P = 1
    # U_(k+1) = (U_k + V_k) / 2, V_(k+1) = (D U_k + V_k) / 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half((U + V) % n), half((D * U + V) % n), Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


# Work one _factor_int may do after trial division, counted in Pollard-rho
# steps of three modular squarings each. A primality test of a b-bit
# cofactor is charged 4b steps, twelve Miller-Rabin rounds of b squarings:
# Baillie-PSW, which runs from 82 bits on, costs less than that, and the
# thirteen rounds below 82 bits take at most about 1100 squarings.
# The bound caps work, not digits: a 60-digit semiprime of two 30-digit
# primes would need about 10^15 rho steps and is refused in milliseconds;
# so is a 2500-digit integer, whose first primality test alone is over the
# bound. Within it, cofactors up to 2048 bits are tested and prime factors
# up to about 10^7 are found (rho finds q in about sqrt(q) steps); trial
# division has removed every prime below 10^5 already.
FACTOR_STEP_BOUND = 1 << 13


def _spend(budget, steps, n):
    """budget - steps, or CapabilityError when steps exceed the budget."""
    if steps > budget:
        raise CapabilityError(
            f"integer factorization capped at {FACTOR_STEP_BOUND} steps "
            f"({n.bit_length()}-bit cofactor)"
        )
    return budget - steps


def _pollard_rho(n, budget):
    """A nontrivial factor of n and the steps left of budget.

    n is odd, composite and free of small factors.
    """
    seed = 1
    while True:
        seed += 1
        x = y = seed % n
        c = seed
        d = 1
        while d == 1:
            budget = _spend(budget, 1, n)
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, budget


def _factor_int(n):
    """Prime factorization of n >= 1 as a dict prime -> exponent.

    Raises CapabilityError past FACTOR_STEP_BOUND steps of work.
    """
    if n < 1:
        raise ValidationError(f"cannot factor {n}: not a positive integer")
    out = {}
    for q in (2, 3, 5, 7, 11, 13):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 17
    while q * q <= n and q < 100000:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 2
    budget = FACTOR_STEP_BOUND
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()  # > 1: rho's factors are proper, and so are square roots
        budget = _spend(budget, 4 * m.bit_length(), m)
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d, budget = _pollard_rho(m, budget)
        stack.extend([d, m // d])
    return out


def _squarefree_part(n):
    """The squarefree integer s with n = s * (square), keeping the sign."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s = 1
    for q, e in _factor_int(n).items():
        if e % 2:
            s *= q
    return sign * s


# Fractions are immutable, so Q's zero and one are shared, not rebuilt per read
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class Field:
    """Arithmetic context. p == 0 means Q; otherwise an odd prime p."""

    __slots__ = ("p",)

    def __init__(self, p=0):
        if p:
            if p == 2:
                raise ValidationError("characteristic 2 is not supported")
            if not _is_prime(p):
                raise ValidationError(f"{p} is not prime")
        self.p = p

    @classmethod
    def prime(cls, p):
        """F_p; p below 2 is refused rather than read as the rationals."""
        if p < 2:
            raise ValidationError(f"{p} is not prime")
        return cls(p)

    @classmethod
    def parse(cls, spec):
        """Parse a field spec string, 'Q' or 'Fp:<p>'; a spec with a prime
        that is not one keeps the reason it is refused."""
        if spec == "Q":
            return cls(0)
        if isinstance(spec, str) and spec.startswith("Fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                pass
            else:
                return cls.prime(p)
        raise ValidationError(f"unrecognized field spec {spec!r}")

    def spec(self):
        return "Q" if self.p == 0 else f"Fp:{self.p}"

    @property
    def is_rational(self):
        return self.p == 0

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.spec()!r})"

    # element construction

    def of(self, v):
        if isinstance(v, str):
            # one parser for both fields: F_p reduces the rational Q reads;
            # a plain ASCII integer or a/b, which carries no exponent, skips
            # both regular expressions, the bound's and Fraction's
            digits = v[1:] if v[:1] == "-" else v
            num, slash, den = digits.partition("/")
            plain = digits.isascii() and num.isdigit() and (den.isdigit() or not slash)
            if not (plain or _exponent_in_range(v)):
                raise ValidationError(
                    f"scalar exponent beyond {SCALAR_EXPONENT_BOUND} in magnitude: {v!r}"
                )
            try:
                if not plain:
                    v = Fraction(v)
                elif slash:
                    v = Fraction(int(v[: -len(den) - 1]), int(den))
                else:
                    v = int(v)
            except (ValueError, ZeroDivisionError):
                pass  # rejected below, the string named in the message
        if self.p == 0:
            if type(v) is int:  # not bool, which JSON true/false arrive as
                return int_fraction(v)
            if isinstance(v, Fraction):
                return v
            raise ValidationError(f"not a rational scalar: {v!r}")
        if type(v) is int:
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ValidationError(f"denominator divisible by {self.p}")
            return v.numerator * pow(v.denominator, self.p - 2, self.p) % self.p
        raise ValidationError(f"not an F_{self.p} scalar: {v!r}")

    @property
    def zero(self):
        return _Q_ZERO if self.p == 0 else 0

    @property
    def one(self):
        return _Q_ONE if self.p == 0 else 1

    # arithmetic

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p == 0 else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def half(self, a):
        return self.div(a, self.of(2))

    def to_str(self, a):
        """str(a), also where str() refuses an int beyond the process's
        digit limit (sys.get_int_max_str_digits): _int_str prints it."""
        try:
            return str(a)
        except ValueError:
            if not isinstance(a, Fraction):
                return _int_str(a)
            num = _int_str(a.numerator)
            return num if a.denominator == 1 else f"{num}/{_int_str(a.denominator)}"

    def sort_key(self, a):
        # total order used only to make outputs deterministic
        if self.p == 0:
            return (a.numerator, a.denominator)
        return (a, 1)

    def random(self, rng, span=5):
        if self.p == 0:
            return Fraction(rng.randint(-span, span))
        return rng.randrange(self.p)


def square_class(field, c):
    """Square-class key of a nonzero scalar.

    Over F_p: 'square' or 'nonsquare' by Euler's criterion. Over Q: the
    squarefree integer representative of c modulo squares, e.g. -18 -> -2.
    """
    if not c:
        raise ValidationError("square class of zero is undefined")
    if field.p == 0:
        c = Fraction(c)
        return _squarefree_part(c.numerator * c.denominator)
    return "square" if pow(c, (field.p - 1) // 2, field.p) == 1 else "nonsquare"


def _split_power(n, p):
    """(e, u) with n = p^e u and p not dividing u; n a nonzero int."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def hilbert_symbol(a, b, p):
    """The Hilbert symbol (a, b)_p of nonzero integers a and b.

    It is 1 when z^2 = a x^2 + b y^2 has a nonzero solution over Q_p and -1
    otherwise. p is a prime, or 0 for the real place. Serre's formula (A
    Course in Arithmetic, III.1.2, Theorem 1): with a = p^s u, b = p^t v
    and u, v units, (a, b)_p = (-1)^(s t e(p)) (u/p)^t (v/p)^s for odd p,
    and (-1)^(e(u) e(v) + s w(v) + t w(u)) for p = 2, where e(x) = (x - 1)/2
    and w(x) = (x^2 - 1)/8 mod 2.
    """
    if not a or not b:
        raise ValidationError("the Hilbert symbol needs nonzero integers")
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime")
    s, u = _split_power(a, p)
    t, v = _split_power(b, p)
    if p == 2:
        e = (u - 1) // 2 * ((v - 1) // 2) + s * ((v * v - 1) // 8) + t * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    sign = -1 if s * t * ((p - 1) // 2) % 2 else 1
    if t % 2 and pow(u, (p - 1) // 2, p) != 1:
        sign = -sign
    if s % 2 and pow(v, (p - 1) // 2, p) != 1:
        sign = -sign
    return sign


def hilbert_obstructions(a, b):
    """The places where (a, b) is -1, ascending, the real place 0 first.

    a and b are nonzero integers. An empty list means z^2 = a x^2 + b y^2
    has a nonzero rational solution (Hasse-Minkowski). Only the real place
    and the primes dividing 2ab can give -1, and by the product formula they
    do so an even number of times; an odd count raises ValidationError.
    Raises CapabilityError where factoring ab does (FACTOR_STEP_BOUND).
    """
    places = [0] + sorted(_factor_int(abs(2 * a * b)))
    out = [v for v in places if hilbert_symbol(a, b, v) == -1]
    if len(out) % 2:
        raise ValidationError(f"Hilbert symbols of ({a}, {b}) break the product formula")
    return out


def conic_point(a, b):
    """A nonzero integer point (z, x, y) of z^2 = a x^2 + b y^2.

    a and b are squarefree nonzero integers with hilbert_obstructions(a, b)
    empty. Lagrange descent (Cremona and Rusin, Math. Comp. 72 (2003)):
    with |a| <= |b|, take r = sqrt(a) mod |b|, |r| <= |b|/2, write
    r^2 - a = b b0 d^2 with b0 squarefree, so |b0| < |b|; a point (W, X, Y)
    of (a, b0) gives (r W + a X, r X + W, b0 d Y) for (a, b) by the
    multiplicativity of the norm from Q(sqrt(a)). Raises ValidationError
    when a step finds no point, as it must on an obstructed pair, and when
    the point fails the equation.
    """
    if not a or not b:
        raise ValidationError("a conic needs nonzero coefficients")
    z, x, y = _lagrange_descent(a, b)
    if not (z or x or y) or z * z != a * x * x + b * y * y:
        raise ValidationError(f"conic point certificate failed for ({a}, {b})")
    return z, x, y


def _lagrange_descent(a, b):
    if abs(a) > abs(b):
        z, y, x = _lagrange_descent(b, a)
        return z, x, y
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if abs(b) == 1:
        raise ValidationError(f"z^2 = {a} x^2 + {b} y^2 has no real point")
    # r^2 = a mod |b| by CRT over the primes of the squarefree |b|; every
    # residue mod 2 is its own root, and r = 0 at primes dividing a
    n, r = abs(b), 0
    for q, e in _factor_int(n).items():
        if e > 1:
            raise ValidationError(f"{b} is not squarefree")
        rq = a % q if q == 2 else sqrt_in_field(Field.prime(q), a % q)
        if rq is None:
            raise ValidationError(f"{a} is not a square mod {q}: ({a}, {b}) has no point")
        m = n // q
        r += rq * m * pow(m, -1, q)
    r %= n
    if 2 * r > n:
        r -= n
    t = (r * r - a) // b
    b0 = _squarefree_part(t)
    d = isqrt(t // b0)
    w, x, y = _lagrange_descent(a, b0)
    return r * w + a * x, r * x + w, b0 * d * y


def least_nonsquare(field):
    """The smallest nonsquare in F_p; undefined over Q (every class has many)."""
    if field.p == 0:
        raise ValidationError("least nonsquare is a finite-field notion")
    p = field.p
    # Field guarantees an odd prime p, and F_p* has (p - 1) / 2 nonsquares
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) != 1)


def square_class_representative(field, c):
    """Canonical scalar in the square class of c.

    Over Q the squarefree integer itself (as a Fraction); over F_p either
    1 or the least nonsquare. c / representative is always a square in the
    field, so normalizing a value to its representative needs only an
    in-field square root.
    """
    cls = square_class(field, c)
    if field.p == 0:
        return Fraction(cls)
    return field.one if cls == "square" else field.of(least_nonsquare(field))


def sqrt_in_field(field, c):
    """An exact square root of c, or None when c is not a square."""
    if not c:
        return field.zero
    if field.p == 0:
        c = Fraction(c)
        if c < 0:
            return None
        rn, rd = isqrt(c.numerator), isqrt(c.denominator)
        if rn * rn == c.numerator and rd * rd == c.denominator:
            return Fraction(rn, rd)
        return None
    p = field.p
    if pow(c, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks, p - 1 = q 2^s with q odd; the smaller root is returned
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = pow(least_nonsquare(field), q, p)
    t, r = pow(c, q, p), pow(c, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(z, 1 << (s - i - 1), p)
        s, z, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def solve_binary(field, a, b, c):
    """(x, y) with a x^2 + b y^2 = c over F_p, a and b nonzero: x is the least
    of 0, ..., p - 1 with (c - a x^2) / b a square, y its sqrt_in_field root.
    One exists, since a regular binary form over F_p reaches every value."""
    for x in range(field.p):
        y = sqrt_in_field(field, field.div(field.sub(c, field.mul(a, x * x)), b))
        if y is not None:
            return x, y
    raise ValidationError(f"{a} x^2 + {b} y^2 = {c} has no solution over F_{field.p}")


class Polynomial:
    """Univariate polynomial, coefficients ascending (coeffs[i] is on x^i).

    The coefficients are canonical field elements: Fraction over Q, ints in
    [0, p) over F_p, with no trailing zero. The public constructor (and
    from_json) coerces through Field.of, so that is where data enters.
    Results of arithmetic on polynomials that are already canonical
    go through the trusted Polynomial._wrap, which only trims; every
    operation computes on the plain values with one reduction mod p.
    Polynomials are immutable and hashable, which lets factor_poly keep
    the factorization of each distinct input (FACTOR_CACHE_SIZE of them).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _wrap(cls, field, coeffs):
        """Trusted constructor: a list of canonical field elements. Trims
        trailing zeros (consuming the list) and coerces nothing."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls, field):
        return cls._wrap(field, [])

    @classmethod
    def one(cls, field):
        return cls._wrap(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls._wrap(field, [field.zero, field.one])

    @property
    def degree(self):
        # zero polynomial gets degree -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def lc(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = self.field.p
        if p:
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            out = [x + y for x, y in zip(a, b)]
        return Polynomial._wrap(self.field, out + list(a[len(b):]))

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        p = self.field.p
        if p:
            out = [(x - y) % p for x, y in zip(a, b)] + [-y % p for y in b[len(a):]]
        else:
            out = [x - y for x, y in zip(a, b)] + [-y for y in b[len(a):]]
        return Polynomial._wrap(self.field, out + list(a[len(b):]))

    def __neg__(self):
        p = self.field.p
        if p:
            return Polynomial._wrap(self.field, [-c % p for c in self.coeffs])
        return Polynomial._wrap(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial._wrap(F, [])
        out = [F.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        if F.p:
            out = [c % F.p for c in out]
        return Polynomial._wrap(F, out)

    def scale(self, c):
        F = self.field
        c = F.of(c)
        if F.p:
            return Polynomial._wrap(F, [c * a % F.p for a in self.coeffs])
        return Polynomial._wrap(F, [c * a for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        p = F.p
        b = other.coeffs
        d = len(b) - 1
        ilc = F.inv(b[-1])
        # over F_p the remainder stays unreduced until an entry is read
        rem = list(self.coeffs)
        quo = [F.zero] * max(0, len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d] * ilc
            if p:
                c %= p
            if not c:
                continue
            quo[i] = c
            for j, y in enumerate(b, i):
                rem[j] -= c * y
        rem = [r % p for r in rem[:d]] if p else rem[:d]
        return Polynomial._wrap(F, quo), Polynomial._wrap(F, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self):
        p = self.field.p
        if p:
            out = [i * c % p for i, c in enumerate(self.coeffs)]
        else:
            out = [i * c for i, c in enumerate(self.coeffs)]
        return Polynomial._wrap(self.field, out[1:])

    def eval(self, c):
        F = self.field
        c = F.of(c)
        acc = F.zero
        for a in reversed(self.coeffs):
            acc = F.add(F.mul(acc, c), a)
        return acc

    def shift_scale(self, mu):
        """The monic-compatible rescale mu^deg * p(x/mu); coeff a_j -> a_j mu^(d-j)."""
        F = self.field
        mu = F.of(mu)
        out = []
        m = F.one
        for a in reversed(self.coeffs):
            out.append(F.mul(a, m))
            m = F.mul(m, mu)
        return Polynomial._wrap(F, out[::-1])

    def pow_mod(self, e, modulus):
        result = Polynomial.one(self.field)
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def sort_key(self):
        F = self.field
        return (self.degree, tuple(F.sort_key(c) for c in self.coeffs))

    def __str__(self):
        """Signed rendering, highest degree first: x^2 - 3*x + 2."""
        if self.is_zero:
            return "0"
        F = self.field
        out = ""
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            neg = F.p == 0 and c < 0
            mag = F.to_str(F.neg(c) if neg else c)
            if i == 0:
                term = mag
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if mag == "1" else f"{mag}*{xs}"
            if not out:
                out = f"-{term}" if neg else term
            else:
                out += f" - {term}" if neg else f" + {term}"
        return out

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self):
        """The polynomial document: its coefficients as field strings,
        constant term first. The one writer of the format; canonical
        blocks, residual parts and their signatures all call it."""
        return [self.field.to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field, data):
        return cls(field, json_list(data, "polynomial coefficients"))


def poly_gcd(a, b):
    """Monic gcd with Bezout pair: returns (g, u, v) with u*a + v*b = g."""
    if a.is_zero and b.is_zero:
        raise ValidationError("gcd of two zero polynomials")
    F = a.field
    r0, r1 = a, b
    u0, u1 = Polynomial.one(F), Polynomial.zero(F)
    v0, v1 = Polynomial.zero(F), Polynomial.one(F)
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    c = F.inv(r0.lc())
    return r0.scale(c), u0.scale(c), v0.scale(c)


def poly_lcm(a, b):
    if a.is_zero or b.is_zero:
        return Polynomial.zero(a.field)
    g, _, _ = poly_gcd(a, b)
    return ((a * b) // g).monic()


def poly_star(p):
    """The monic q with q(x) = (-1)^deg p * p(-x); an involution on monics.

    Roots get negated: star pairs the factor of eigenvalue c with that of -c.
    """
    if not p.is_monic:
        raise ValidationError("star is defined for monic polynomials")
    q = p.field.p
    out = list(p.coeffs)
    # sign (-1)^(d-i): negate every other coefficient below the leading one
    for i in range(p.degree - 1, -1, -2):
        out[i] = -out[i] % q if q else -out[i]
    return Polynomial._wrap(p.field, out)


# factorization over F_p

FACTOR_SEED = 0  # seed of the randomized equal-degree splitting
Q_FACTOR_DEGREE_BOUND = 16  # largest degree factored over Q


def _fp_pth_root(f):
    # f' == 0 over F_p means f(x) = h(x^p) and f = h(x)^p coefficientwise
    return Polynomial._wrap(f.field, list(f.coeffs[:: f.field.p]))


def _squarefree(f):
    """[(g, m)] with g monic squarefree, product g^m = f (up to lc), over
    F_p; Q splits the primitive integer polynomial (_z_squarefree)."""
    p = f.field.p
    out = []
    n = 1
    f = f.monic()
    while f.degree > 0:
        d = f.derivative()
        if not d.is_zero:
            g, _, _ = poly_gcd(f, d)
            h = f // g
            i = 1
            while not h.is_one:
                gg, _, _ = poly_gcd(g, h)
                hh = h // gg
                if hh.degree > 0:
                    out.append((hh.monic(), i * n))
                g, h = g // gg, gg
                i += 1
            if g.is_one:
                return out
            f = g
        f = _fp_pth_root(f).monic()
        n *= p
    return out


def _fp_ddf(f):
    """Distinct-degree split of a monic squarefree f: [(product, degree)]."""
    F = f.field
    p = F.p
    out = []
    x = Polynomial.x(F)
    h = x
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(p, f)
        g, _, _ = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _fp_edf(f, d, rng):
    """Equal-degree split: f monic squarefree, all factors of degree d."""
    F = f.field
    p = F.p
    if f.degree == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        r = Polynomial._wrap(F, [rng.randrange(p) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g, _, _ = poly_gcd(r, f)
        if 0 < g.degree < f.degree:
            break
        s = r.pow_mod(e, f) - Polynomial.one(F)
        g, _, _ = poly_gcd(s, f)
        if 0 < g.degree < f.degree:
            break
    return _fp_edf(g.monic(), d, rng) + _fp_edf((f // g).monic(), d, rng)


def _factor_fp(f):
    rng = random.Random(FACTOR_SEED)
    out = []
    for g, m in _squarefree(f):
        for h, d in _fp_ddf(g):
            for irr in _fp_edf(h.monic(), d, rng):
                out.append((irr.monic(), m))
    return out


# factorization over Q: monic shift, factor mod q, linear Hensel lift, recombine.
# The lift corrects the factors with Polynomial arithmetic over F_q; the
# lifted factors themselves are int coefficient lists (ascending) in Z[x].


def _z_prod(polys):
    """Product over Z of int coefficient lists."""
    out = [1]
    for b in polys:
        a, out = out, [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return out


def _hensel_lift(f_int, modular, target):
    """Lift the monic factors of a monic f mod q to mod m = q^k >= target.

    modular holds the pairwise coprime monic factors of f mod q, as
    Polynomials over F_q. Linear lifting: with s_i = (prod_{j != i} g_j)^-1
    mod g_i, found once by poly_gcd, the s_i prod_{j != i} g_j sum to 1, so
    each step takes e = (f - prod g_i) / m mod q and adds m ((e s_i) mod g_i)
    to each g_i. Returns (the lifted factors, m).
    """
    Fq = modular[0].field
    s = []
    for i, g in enumerate(modular):
        rest = Polynomial.one(Fq)
        for h in modular[:i] + modular[i + 1:]:
            rest = rest * h
        one, u, _ = poly_gcd(rest, g)
        if not one.is_one:
            raise ValidationError("modular factors are not coprime")
        s.append(u)
    lifted = [list(g.coeffs) for g in modular]
    m = Fq.p
    while m < target:
        prod = _z_prod(lifted)
        e = Polynomial._wrap(Fq, [(a - b) // m % Fq.p for a, b in zip(f_int, prod)])
        for g, gq, si in zip(lifted, modular, s):
            for j, c in enumerate((e * si % gq).coeffs):
                g[j] += m * c
        m *= Fq.p
    return lifted, m


def _balanced(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _z_poly_divides(g, f):
    """f / g over Z for int lists, g nonzero, or None when g does not
    divide f there; f = [] is the zero polynomial."""
    if not f:
        return []
    rem = list(f)
    dg = len(g) - 1
    # a g longer than f leaves quo empty and all of f as the remainder
    quo = [0] * (len(rem) - dg)
    for i in range(len(rem) - dg - 1, -1, -1):
        c, r = divmod(rem[i + dg], g[-1])
        if r:
            return None
        quo[i] = c
        if c:
            for j, y in enumerate(g):
                rem[i + j] -= c * y
    if any(rem[:dg]):
        return None
    return quo


def _z_primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    if not a:
        return a
    g = gcd(*a)
    g = -g if a[-1] < 0 else g
    return [c // g for c in a]


def _z_gcd(a, b):
    """Primitive gcd of int lists, by the primitive pseudo-remainder
    sequence: each remainder of lc(b) a - c x^s b steps, content removed."""
    a, b = _z_primitive(a), _z_primitive(b)
    while b:
        r = a
        while len(r) >= len(b):
            c, s = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r[:-1]]
            for j, y in enumerate(b[:-1], s):
                r[j] -= c * y
            while r and not r[-1]:
                r.pop()
        a, b = b, _z_primitive(r)
    return a


def _z_squarefree(f):
    """[(g, m)] for a primitive int list f with positive leading
    coefficient: g primitive, squarefree, of positive degree and leading
    coefficient, the product of g^m is f, m ascending.

    Yun's algorithm: with a = gcd(f, f'), b = f / a, c = f' / a, each step
    takes d = c - b', the part g = gcd(b, d) of multiplicity i, and
    b, c = b / g, d / g. Every divisor is primitive, so by Gauss's lemma
    each division is exact over Z.
    """
    df = [j * c for j, c in enumerate(f)][1:]
    a = _z_gcd(f, df)
    b, c = _z_poly_divides(a, f), _z_poly_divides(a, df)
    out = []
    i = 1
    while len(b) > 1:
        d = [x - j * y for j, (x, y) in enumerate(zip(c, b[1:]), 1)]
        while d and not d[-1]:
            d.pop()
        g = _z_gcd(b, d)
        b, c = _z_poly_divides(g, b), _z_poly_divides(g, d)
        if len(g) > 1:
            out.append((g, i))
        i += 1
    return out


def _factor_monic_squarefree_z(f_int):
    """Irreducible monic integer factors of a monic squarefree f over Z."""
    n = len(f_int) - 1
    if n <= 1:
        return [f_int]
    # prime with squarefree reduction; skips the finitely many bad ones
    q = 3
    while True:
        Fq = Field(q) if _is_prime(q) else None
        if Fq is not None:
            fq = Polynomial(Fq, f_int)
            if fq.degree == n:
                d = fq.derivative()
                if not d.is_zero and poly_gcd(fq, d)[0].is_one:
                    break
        q += 2
    modular = sorted((g for g, _ in _factor_fp(fq)), key=Polynomial.sort_key)
    if len(modular) == 1:
        return [f_int]
    # Landau-Mignotte: factor coefficients are below 2^n * l2norm(f)
    norm = isqrt(sum(c * c for c in f_int)) + 1
    target = 2 * (2**n) * norm + 1
    lifted, m = _hensel_lift(f_int, modular, target)

    from itertools import combinations

    remaining = list(range(len(lifted)))
    f_cur = list(f_int)
    out = []
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for subset in combinations(remaining, size):
            g = [_balanced(c, m) for c in _z_prod(lifted[i] for i in subset)]
            quo = _z_poly_divides(g, f_cur)
            if quo is not None:
                out.append(g)
                f_cur = quo
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            size += 1
    if len(f_cur) > 1:
        out.append(f_cur)
    return out


def _factor_q(f):
    if f.degree > Q_FACTOR_DEGREE_BOUND:
        raise CapabilityError(
            f"rational factorization capped at degree {Q_FACTOR_DEGREE_BOUND}"
        )
    F = f.field
    out = []
    # squarefree split of the primitive integer polynomial, then Zassenhaus
    # on each part, shifted to a monic integer polynomial
    (ints,), _ = integer_image([f.coeffs], 0)
    for ints, mult in _z_squarefree(_z_primitive(ints)):
        ell = ints[-1]
        n = len(ints) - 1
        shifted = [ints[j] * ell ** (n - 1 - j) if j < n else 1 for j in range(n + 1)]
        for gi in _factor_monic_squarefree_z(shifted):
            # undo y = ell*x and re-normalize monic over Q
            dg = len(gi) - 1
            coeffs = [Fraction(gi[j]) * Fraction(ell) ** j for j in range(dg + 1)]
            out.append((Polynomial(F, coeffs).monic(), mult))
    return out


FACTOR_CACHE_SIZE = 4096  # distinct polynomials whose factorization is kept


def factor_poly(p):
    """Factor into monic irreducibles: returns [(factor, multiplicity)].

    The product of factor^multiplicity equals p up to its leading
    coefficient. Randomized splitting over F_p is seeded with FACTOR_SEED
    so results are reproducible. Over Q the primitive integer polynomial
    is split squarefree over Z (_z_squarefree), and each part is made a
    monic integer polynomial, factored mod a small prime q, lifted linearly
    to mod q^k past the Landau-Mignotte bound with corrections computed
    over F_q, and recombined by exact division over Z. The degree is
    capped at Q_FACTOR_DEGREE_BOUND; exceeding it raises CapabilityError.
    Each distinct p is factored once per process (a call that raises is not
    cached); every call returns a new list.
    """
    return list(_factor_cached(p))


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor_cached(p):
    if p.is_zero:
        raise ValidationError("cannot factor the zero polynomial")
    if p.degree == 0:
        return ()
    if p.field.p == 0:
        out = _factor_q(p)
    else:
        out = _factor_fp(p)
    out.sort(key=lambda t: t[0].sort_key())
    return tuple(out)
