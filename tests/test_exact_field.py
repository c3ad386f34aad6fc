"""Field contexts, polynomials, factorization, square classes."""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadlie import exact_field
from quadlie.errors import CapabilityError, ValidationError
from quadlie.exact_field import (
    FACTOR_STEP_BOUND,
    Q_FACTOR_DEGREE_BOUND,
    SCALAR_EXPONENT_BOUND,
    Field,
    Polynomial,
    _factor_int,
    factor_poly,
    hilbert_obstructions,
    hilbert_symbol,
    least_nonsquare,
    poly_gcd,
    poly_lcm,
    poly_star,
    square_class,
    square_class_representative,
    sqrt_in_field,
)

Q = Field.parse("Q")
F5 = Field.parse("Fp:5")
F7 = Field.parse("Fp:7")


def poly(field, *coeffs):
    return Polynomial(field, list(coeffs))


# ---------------------------------------------------------------- fields

def test_parse_roundtrip():
    assert Q.spec() == "Q" and Q.p == 0
    assert F5.spec() == "Fp:5" and F5.p == 5
    with pytest.raises(ValidationError):
        Field.parse("Fp:4")
    with pytest.raises(ValidationError):
        Field.parse("R")


def test_rational_ops_are_fractions():
    a = Q.of("2/3")
    assert a == Fraction(2, 3)
    assert Q.add(a, Q.of(1)) == Fraction(5, 3)
    assert Q.inv(a) == Fraction(3, 2)
    assert Q.half(Q.of(5)) == Fraction(5, 2)
    for bad in ("1/0", "abc"):
        with pytest.raises(ValidationError):
            Q.of(bad)


def test_fp_ops_stay_reduced():
    a = F5.of(7)
    assert a == 2
    assert F5.mul(F5.of(3), F5.of(4)) == 2
    assert F5.inv(F5.of(2)) == 3
    assert F5.half(F5.of(1)) == 3  # 2*3 = 6 = 1
    # fraction strings, as Q documents write them
    assert F5.of("1/2") == 3
    assert F5.of("-3/4") == 3  # 4*3 = 12 = 2 = -3
    with pytest.raises(ValidationError):
        F5.of("1/10")


def test_booleans_and_floats_are_not_scalars():
    # JSON true/false arrive as bool, an int subclass; neither reads as 1 or 0
    for F in (Q, F5):
        for bad in (True, False, 1.0):
            with pytest.raises(ValidationError):
                F.of(bad)
        assert F.of(1) == F.one and F.of(0) == F.zero


def _outcome(F, v):
    try:
        return F.of(v)
    except ValidationError:
        return ValidationError


@settings(max_examples=300)
@given(st.one_of(
    st.text(alphabet="0123456789/-+. e_", max_size=6),
    st.sampled_from(["1/-2", "2/ 3", "abc", "1.5", "1e3", " 3/4 ", "1/0", "5/5", "1/10"]),
    st.tuples(st.sampled_from(["1", "-2.5", "7.", "3_0"]), st.sampled_from("eE"),
              st.integers(-10**8, 10**8)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
))
def test_fp_reads_scalar_strings_as_q_does(s):
    # a string raises ValidationError over both fields, or reads over F_p as
    # its rational value reduced mod p (which raises when p divides the
    # reduced denominator)
    q = _outcome(Q, s)
    for F in (F5, Field.parse("Fp:7")):
        expect = ValidationError if q is ValidationError else _outcome(F, q)
        assert _outcome(F, s) == expect


def test_huge_scalar_exponents_are_refused():
    B = SCALAR_EXPONENT_BOUND
    assert Q.of("1e3") == 1000
    assert Q.of("1.5") == Fraction(3, 2)
    assert Q.of("-2.5e-3") == Fraction(-1, 400)
    assert Q.of(f"1e{B}") == 10**B and Q.of(f"1e-{B}") == Fraction(1, 10**B)
    assert F7.of(f"2E+{B}") == F7.of(2 * 10**B)
    start = time.process_time()
    # each of these took seconds to parse, or could not finish, without the bound
    for s in (f"1e{B + 1}", f"1e-{B + 1}", "1e1000000", "-3.5E+40000000",
              "1e-999999999", "1e" + "9" * 5000, "1e1_000_000", " 1e+40000000 "):
        for F in (Q, F5, F7):
            with pytest.raises(ValidationError, match="exponent"):
                F.of(s)
    assert time.process_time() - start < 1.0


def test_char_two_rejected():
    with pytest.raises(ValidationError):
        Field.parse("Fp:2")


# ------------------------------------------------------------ square classes

def test_square_class_oracles():
    # 4 = 2^2, -18 = -2 * 3^2: hand-reduced squarefree parts
    assert square_class(Q, Q.of(4)) == 1
    assert square_class(Q, Q.of(-18)) == -2
    assert square_class(Q, Q.of(Fraction(8, 2))) == 1
    assert square_class(F5, F5.of(2)) == "nonsquare"
    assert square_class(F5, F5.of(4)) == "square"


def test_least_nonsquare():
    assert least_nonsquare(F5) == 2
    assert least_nonsquare(F7) == 3
    with pytest.raises(ValidationError):
        least_nonsquare(Q)


def test_square_class_representative_divides_to_square():
    for F, vals in ((Q, [Q.of(v) for v in (4, -18, Fraction(2, 9), -1, 50)]),
                    (F5, [F5.of(v) for v in (1, 2, 3, 4)])):
        for c in vals:
            rep = square_class_representative(F, c)
            assert sqrt_in_field(F, F.div(c, rep)) is not None


def test_sqrt_in_field():
    assert sqrt_in_field(Q, Q.of(Fraction(9, 4))) == Fraction(3, 2)
    assert sqrt_in_field(Q, Q.of(2)) is None
    assert sqrt_in_field(F5, F5.of(4)) in (2, 3)
    assert sqrt_in_field(F5, F5.of(2)) is None


def test_sqrt_in_field_is_least_root():
    # p - 1 of 2-adic valuation 1, 2, 3, 4, 5, 6 and 8
    for p in (3, 7, 5, 13, 17, 41, 97, 193, 257, 8191):
        F = Field.parse(f"Fp:{p}")
        least = {r * r % p: r for r in range(p - 1, -1, -1)}
        for c in range(p):
            assert sqrt_in_field(F, c) == least.get(c)
    big = Field.parse("Fp:2305843009213693951")  # 2^61 - 1
    for c in (2, 3, big.of(-3), 10**17 + 3):
        r = sqrt_in_field(big, c)
        if r is None:
            assert pow(c, (big.p - 1) // 2, big.p) == big.p - 1
        else:
            assert r * r % big.p == c and r <= big.p - r


# ---------------------------------------------------------- Hilbert symbols

# nonzero ints with their powers of 2 and 3 drawn apart, negatives included
hilbert_ints = st.builds(
    lambda sign, e2, e3, u: sign * 2**e2 * 3**e3 * u,
    st.sampled_from([1, -1]), st.integers(0, 7), st.integers(0, 5), st.integers(1, 300),
)


def _places(*ints):
    """The real place 0 and every prime dividing 2 * prod(ints)."""
    primes = {2}
    for n in ints:
        primes |= set(_factor_int(abs(n)))
    return [0] + sorted(primes)


def test_hilbert_symbol_values():
    # Serre III.1: (-1, -1) is -1 exactly at 2 and at the real place
    assert [hilbert_symbol(-1, -1, v) for v in (0, 2, 3, 5)] == [-1, -1, 1, 1]
    assert hilbert_symbol(-1, 3, 3) == -1  # -1 is not a square mod 3
    assert hilbert_symbol(2, 5, 5) == -1 and hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(2, 3, 2) == -1 and hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(5, 7, 2) == 1 and hilbert_symbol(3, 7, 2) == -1
    assert hilbert_symbol(-12, 18, 3) == hilbert_symbol(-3, 2, 3)  # squares drop out
    assert hilbert_obstructions(-1, -1) == [0, 2]
    assert hilbert_obstructions(-1, 3) == [2, 3]  # x^2 + y^2 = 3 z^2
    assert hilbert_obstructions(-2, 3) == []  # 1 + 2 = 3
    assert hilbert_obstructions(-3, 5) == [3, 5]  # 5 is inert in Q(sqrt(-3))
    for bad in ((0, 3, 3), (3, 0, 2), (2, 3, 4), (2, 3, 1)):
        with pytest.raises(ValidationError):
            hilbert_symbol(*bad)
    with pytest.raises(ValidationError):  # factoring 0 never returned
        hilbert_obstructions(0, 3)


@settings(max_examples=200)
@given(hilbert_ints, hilbert_ints, hilbert_ints)
def test_hilbert_symbol_identities(a, b, c):
    for v in _places(a, b, c, (1 - a) or 1):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, -a, v) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1
        # bilinear: (a, bc) = (a, b)(a, c)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
    # the product formula; every other place gives 1
    product = 1
    for v in _places(a, b):
        product *= hilbert_symbol(a, b, v)
    assert product == 1
    assert all(hilbert_symbol(a, b, q) == 1 for q in (5, 7, 11, 13) if (a * b) % q)


def test_hilbert_obstructions_check_the_product_formula(monkeypatch):
    # a symbol that is -1 at 3 alone breaks the product formula
    monkeypatch.setattr(exact_field, "hilbert_symbol", lambda a, b, v: -1 if v == 3 else 1)
    with pytest.raises(ValidationError, match="product formula"):
        hilbert_obstructions(-1, 3)


def test_factor_int_work_is_bounded():
    assert _factor_int(1000003 * 10000019 * (2**61 - 1) * 3**4) == {
        3: 4, 1000003: 1, 10000019: 1, 2**61 - 1: 1}
    p30, q30 = sympy.nextprime(10**29), sympy.nextprime(10**30)
    assert _factor_int(p30 * 12) == {2: 2, 3: 1, p30: 1}
    # a 60-digit semiprime needs about 10^15 rho steps; a 2500-digit
    # cofactor's primality test alone is over the bound
    start = time.process_time()
    for n in (p30 * q30, (10**1500 - 1) * 10**1000 * 7, sympy.nextprime(2**2100)):
        with pytest.raises(CapabilityError, match=f"capped at {FACTOR_STEP_BOUND} steps"):
            _factor_int(n)
        with pytest.raises(CapabilityError):
            square_class(Q, Q.of(Fraction(1, n)))
    assert time.process_time() - start < 5.0


# ------------------------------------------------------------- polynomials

def test_poly_arith_basics():
    p = poly(Q, -1, 0, 1)  # x^2 - 1
    q = poly(Q, -1, 1)     # x - 1
    quo, rem = p.divmod(q)
    assert quo == poly(Q, 1, 1) and rem.is_zero
    assert p.eval(Q.of(3)) == 8
    assert p.derivative() == poly(Q, 0, 2)


def test_poly_from_json_rejects_a_string():
    assert Polynomial.from_json(Q, ["1", "2", "3"]) == poly(Q, 1, 2, 3)
    # a string would be read one character per coefficient: "123" as 3x^2 + 2x + 1
    for F in (Q, F5):
        with pytest.raises(ValidationError, match="JSON list"):
            Polynomial.from_json(F, "123")


def test_poly_star_oracle():
    # star of x^2+3x+2 flips odd coefficients
    p = poly(Q, 2, 3, 1)
    assert poly_star(p) == poly(Q, 2, -3, 1)
    with pytest.raises(ValidationError):
        poly_star(poly(Q, 2, 3, 2))  # not monic


@given(st.lists(st.integers(-9, 9), min_size=0, max_size=6))
def test_poly_star_involution(coeffs):
    p = Polynomial(Q, [Q.of(c) for c in coeffs] + [Q.one])
    assert poly_star(poly_star(p)) == p


def test_poly_gcd_oracles():
    g, u, v = poly_gcd(poly(Q, -1, 0, 1), poly(Q, -1, 1))
    assert g == poly(Q, -1, 1)
    assert u.is_zero and v == poly(Q, 1)
    g, u, v = poly_gcd(poly(Q, 1, 0, 1), poly(Q, -1, 0, 1))
    assert g.is_one
    assert u == poly(Q, Fraction(1, 2)) and v == poly(Q, Fraction(-1, 2))


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_poly_gcd_bezout(ac, bc):
    a = Polynomial(F7, [F7.of(c) for c in ac] + [F7.one])
    b = Polynomial(F7, [F7.of(c) for c in bc] + [F7.one])
    g, u, v = poly_gcd(a, b)
    assert u * a + v * b == g
    assert (a % g).is_zero and (b % g).is_zero


F_BIG = Field.parse("Fp:2305843009213693951")  # 2^61 - 1


def _assert_canonical(P):
    F = P.field
    cs = P.coeffs
    assert not cs or cs[-1]
    if F.p:
        assert all(type(c) is int and 0 <= c < F.p for c in cs)
    else:
        assert all(isinstance(c, Fraction) for c in cs)
    assert P == Polynomial(F, list(cs))


@given(st.data())
@settings(max_examples=60)
def test_poly_results_stay_canonical(data):
    F = data.draw(st.sampled_from([Q, F5, F_BIG]))
    if F.p:
        scalars = st.integers(-(2**70), 2**70)
    else:
        scalars = st.fractions(max_denominator=9)
    a = Polynomial(F, data.draw(st.lists(scalars, max_size=6)))
    b = Polynomial(F, data.draw(st.lists(scalars, max_size=5)))
    c = data.draw(scalars)
    results = [a + b, a - b, b - a, -a, a * b, a.scale(c), a.monic(), a.derivative()]
    if not b.is_zero:
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        results += [q, r]
    if not a.is_zero:
        results.append(poly_star(a.monic()))
    if not (a.is_zero and b.is_zero):
        g, u, v = poly_gcd(a, b)
        assert u * a + v * b == g
        results += [g, u, v]
    for P in results:
        _assert_canonical(P)


def test_poly_lcm():
    a = poly(Q, -1, 1)
    b = poly(Q, 1, 1)
    assert poly_lcm(a, b) == poly(Q, -1, 0, 1)


def test_shift_scale():
    # mu^deg p(x/mu) keeps monicity and moves roots by mu
    p = poly(Q, 2, -3, 1)  # (x-1)(x-2)
    q = p.shift_scale(Q.of(2))
    assert q == poly(Q, 8, -6, 1)  # (x-2)(x-4)


# ------------------------------------------------------------ factorization

def test_factor_rational_oracle():
    p = poly(Q, -1, 0, 0, 0, 1)  # x^4 - 1
    facs = factor_poly(p)
    got = sorted((tuple(f.coeffs), k) for f, k in facs)
    assert got == sorted([
        ((Q.of(-1), Q.one), 1),
        ((Q.one, Q.one), 1),
        ((Q.one, Q.zero, Q.one), 1),
    ])


def test_factor_fp_oracles():
    facs = factor_poly(poly(F5, 1, 0, 1))  # x^2+1 = (x+2)(x+3) mod 5
    got = sorted(tuple(f.coeffs) for f, _ in facs)
    assert got == [(2, 1), (3, 1)]
    facs = factor_poly(poly(F5, 0, 0, 0, 1))  # x^3
    assert facs == [(poly(F5, 0, 1), 3)]


def _sympy_factor_multiset(p, field):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(p.coeffs))
    if field.p:
        factors = sympy.factor_list(sympy.Poly(expr, x, modulus=field.p))[1]
        out = []
        for fac, k in factors:
            cs = [int(c) % field.p for c in reversed(fac.all_coeffs())]
            out.append((tuple(cs), k))
        return sorted(out)
    factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))[1]
    out = []
    for fac, k in factors:
        fac = fac.monic()
        cs = [Fraction(str(c)) for c in reversed(fac.all_coeffs())]
        out.append((tuple(cs), k))
    return sorted(out)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_against_sympy():
    rng = random.Random(7)
    for F in (Q, F5, F7):
        for _ in range(25):
            deg = rng.randint(1, 6)
            if F.p:
                coeffs = [F.of(rng.randrange(F.p)) for _ in range(deg)]
            else:
                coeffs = [Q.of(rng.randint(-5, 5)) for _ in range(deg)]
            p = Polynomial(F, coeffs + [F.one])
            ours = sorted((tuple(f.coeffs), k) for f, k in factor_poly(p))
            assert ours == _sympy_factor_multiset(p, F), p


def _rational_products(rng, count):
    """Products of 1-5 non-monic rational factors of degree 1-4, total
    degree <= 16; each new factor has coefficient heights up to 10, 10^2 or
    10^3, and about a quarter of the factors repeat an earlier one."""
    out = []
    while len(out) < count:
        factors = []
        for _ in range(rng.randint(1, 5)):
            if factors and rng.random() < 0.25:
                factors.append(rng.choice(factors))
                continue
            deg, h = rng.randint(1, 4), rng.choice((10, 100, 1000))
            cs = [Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(deg)]
            lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, h), rng.randint(1, h))
            factors.append(Polynomial(Q, cs + [lead]))
        if sum(f.degree for f in factors) > Q_FACTOR_DEGREE_BOUND:
            continue
        p = Polynomial.one(Q)
        for f in factors:
            p = p * f
        out.append(p)
    return out


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_rational_products_against_sympy():
    # multifactor lifting and recombination: random products, not the
    # almost always irreducible random polynomials above
    for p in _rational_products(random.Random(14), 210):
        ours = sorted((tuple(f.coeffs), k) for f, k in factor_poly(p))
        assert ours == _sympy_factor_multiset(p, Q), p


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_rational_fixed_cases():
    swinnerton_dyer = poly(Q, 1, 0, -10, 0, 1)  # irreducible, splits mod every prime
    assert factor_poly(swinnerton_dyer) == [(swinnerton_dyer, 1)]
    x12 = poly(Q, -1, *[0] * 11, 1)
    assert len(factor_poly(x12)) == 6  # the cyclotomics of 1, 2, 3, 4, 6, 12
    deg16 = swinnerton_dyer * poly(Q, 1, 0, 0, 0, 1)
    for f in (poly(Q, -2, 0, 1), poly(Q, -2, 0, 1), poly(Q, 1, 1, 1), poly(Q, 3, 1),
              poly(Q, Fraction(-1, 2), 1)):
        deg16 = deg16 * f
    assert deg16.degree == Q_FACTOR_DEGREE_BOUND
    for p in (x12, deg16):
        ours = sorted((tuple(f.coeffs), k) for f, k in factor_poly(p))
        assert ours == _sympy_factor_multiset(p, Q), p
    with pytest.raises(CapabilityError, match="capped at degree"):
        factor_poly(poly(Q, -1, *[0] * Q_FACTOR_DEGREE_BOUND, 1))


def test_factor_cache_returns_fresh_lists():
    p = poly(F7, 1, 0, 0, 1)  # x^3 + 1
    first = factor_poly(p)
    second = factor_poly(p)
    assert first == second and first is not second
    first.clear()
    assert second and factor_poly(p) == second


@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
@settings(max_examples=40)
def test_factor_remultiplies(coeffs):
    p = Polynomial(F7, [F7.of(c) for c in coeffs] + [F7.one])
    prod = Polynomial.one(F7)
    for f, k in factor_poly(p):
        for _ in range(k):
            prod = prod * f
    assert prod == p
