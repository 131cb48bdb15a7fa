"""Tests for the exact rational layer: Bernoulli and Euler numbers,
special values of zeta and the quartic L-function, the pi-power
bookkeeping type, and integer factoring.

Every table in the library is checked against an independent oracle:
Bernoulli numbers against the Akiyama-Tanigawa scheme, zeta and L
values against truncated Dirichlet series evaluated in floating point,
and factoring against plain multiplication.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest

from spinchi.exactq import (
    _TRIAL_BOUND,
    Factored,
    FactoredInteger,
    PiExact,
    PiPowerMismatchError,
    ResidualPiPowerError,
    bernoulli,
    bernoulli_poly,
    euler_number,
    factor,
    format_factored,
    gamma_half,
    gen_bernoulli_mod4,
    is_prime,
    l_psi_exact_odd,
    primes_up_to,
    zeta_even_exact,
    zeta_negative_odd,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Bernoulli number by the Akiyama-Tanigawa triangle.

    The triangle natively produces the B_1 = +1/2 convention; the
    library uses B_1 = -1/2, so the caller must flip that single value.
    """
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def zeta_series_float(s: int, terms: int) -> float:
    """zeta(s) for integer s >= 2 by direct summation.

    The truncated sum is corrected with the first Euler-Maclaurin tail
    terms so that the result is good to far better than 1e-12 already
    for a modest number of terms.
    """
    partial = math.fsum(k ** -float(s) for k in range(1, terms))
    tail = (
        terms ** (1.0 - s) / (s - 1.0)
        + 0.5 * terms ** (-float(s))
        + s / 12.0 * terms ** (-1.0 - s)
    )
    return partial + tail


def l_psi_series_float(ell: int, pairs: int) -> float:
    """L(psi, ell) = sum_{j>=0} (-1)^j (2j+1)^(-ell) by direct summation.

    Alternating series with the terminal half-term correction: the
    error is bounded by half the difference of consecutive terms.
    """
    body = math.fsum((-1.0) ** j * (2 * j + 1) ** -float(ell) for j in range(pairs))
    correction = 0.5 * (-1.0) ** pairs * (2 * pairs + 1) ** -float(ell)
    return body + correction


def pi_exact_to_mpf(x: PiExact) -> mpmath.mpf:
    mpmath.mp.dps = 60
    num = mpmath.mpf(x.coeff.numerator) / x.coeff.denominator
    return num * mpmath.pi ** (mpmath.mpf(x.half_pi_power) / 2)


# ---------------------------------------------------------------------------
# Bernoulli and Euler numbers
# ---------------------------------------------------------------------------

def test_bernoulli_matches_akiyama_tanigawa():
    for n in range(0, 40):
        expected = bernoulli_akiyama_tanigawa(n)
        if n == 1:
            expected = -expected
        assert bernoulli(n) == expected, n


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


def test_bernoulli_poly_basics():
    # B_n(0) = B_n, B_n(1) = B_n for n != 1, and d/dx via the
    # difference property B_n(x+1) - B_n(x) = n x^(n-1).
    for n in range(0, 12):
        assert bernoulli_poly(n, Fraction(0)) == bernoulli(n)
    rng = random.Random(1001)
    for _ in range(50):
        n = rng.randrange(1, 10)
        x = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        lhs = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
        assert lhs == n * x ** (n - 1)


def test_gen_bernoulli_mod4_table():
    table = {1: Fraction(-1, 2), 3: Fraction(3, 2), 5: Fraction(-25, 2),
             7: Fraction(427, 2), 9: Fraction(-12465, 2)}
    for n, value in table.items():
        assert gen_bernoulli_mod4(n) == value


def test_gen_bernoulli_mod4_definition():
    # 4^(n-1) * (B_n(1/4) - B_n(3/4)) recomputed from the polynomial.
    for n in range(1, 40):
        direct = Fraction(4) ** (n - 1) * (
            bernoulli_poly(n, Fraction(1, 4)) - bernoulli_poly(n, Fraction(3, 4))
        )
        assert gen_bernoulli_mod4(n) == direct


def test_euler_numbers_frozen():
    expected = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385, 10: -50521}
    for n, value in expected.items():
        assert euler_number(n) == value


def test_euler_numbers_against_secant_series():
    # sec(x) = sum |E_2k| x^(2k) / (2k)! inside the radius pi/2.
    x = 0.5
    partial = math.fsum(
        abs(euler_number(2 * k)) * x ** (2 * k) / math.factorial(2 * k)
        for k in range(0, 16)
    )
    assert abs(partial - 1.0 / math.cos(x)) < 1e-14


def test_euler_number_rejects_odd_index():
    with pytest.raises(ValueError):
        euler_number(3)


# ---------------------------------------------------------------------------
# special values
# ---------------------------------------------------------------------------

def test_zeta_negative_odd_values():
    assert zeta_negative_odd(1) == Fraction(-1, 12)
    assert zeta_negative_odd(2) == Fraction(1, 120)
    assert zeta_negative_odd(3) == Fraction(-1, 252)
    for j in range(1, 20):
        assert zeta_negative_odd(j) == -bernoulli(2 * j) / (2 * j)


def test_zeta_even_exact_values():
    assert zeta_even_exact(1) == PiExact(Fraction(1, 6), 4)
    assert zeta_even_exact(2) == PiExact(Fraction(1, 90), 8)
    assert zeta_even_exact(3) == PiExact(Fraction(1, 945), 12)


def test_zeta_even_matches_series():
    for j in range(1, 21):
        s = 2 * j
        terms = 10 ** 6 if s == 2 else 10 ** 4
        numeric = zeta_series_float(s, terms)
        exact = float(pi_exact_to_mpf(zeta_even_exact(j)))
        assert abs(exact - numeric) <= 1e-12 * abs(numeric), j


def test_l_psi_matches_series():
    for ell in range(1, 16, 2):
        numeric = l_psi_series_float(ell, 10 ** 5)
        exact = float(pi_exact_to_mpf(l_psi_exact_odd(ell)))
        assert abs(exact - numeric) <= 1e-10 * abs(numeric), ell


def test_l_psi_exact_frozen():
    # L(psi,1) = pi/4, L(psi,3) = pi^3/32, L(psi,5) = 5 pi^5 / 1536.
    assert l_psi_exact_odd(1) == PiExact(Fraction(1, 4), 2)
    assert l_psi_exact_odd(3) == PiExact(Fraction(1, 32), 6)
    assert l_psi_exact_odd(5) == PiExact(Fraction(5, 1536), 10)


def test_gamma_half_values():
    assert gamma_half(2) == PiExact(Fraction(1))
    assert gamma_half(4) == PiExact(Fraction(1))
    assert gamma_half(6) == PiExact(Fraction(2))
    assert gamma_half(1) == PiExact(Fraction(1), 1)
    assert gamma_half(3) == PiExact(Fraction(1, 2), 1)
    assert gamma_half(5) == PiExact(Fraction(3, 4), 1)
    # recurrence Gamma(x+1) = x Gamma(x) with x = j/2
    for j in range(1, 25):
        assert gamma_half(j + 2) == gamma_half(j) * Fraction(j, 2)


def _pi_power(half: int) -> PiExact:
    return PiExact(Fraction(1), half)


def test_zeta_functional_equation_even_argument():
    # zeta(2j) * pi^(-j) Gamma(j) * pi^(-(2j+1)/2) Gamma(j + 1/2)
    # collapses to |zeta(1-2j)| with every pi power cancelling.
    for j in range(1, 16):
        lhs = (
            zeta_even_exact(j)
            * _pi_power(-2 * j) * gamma_half(2 * j)
            * _pi_power(-(2 * j + 1)) * gamma_half(2 * j + 1)
        )
        assert lhs.is_rational
        assert lhs.as_rational() == abs(zeta_negative_odd(j))


def test_l_psi_functional_equation():
    # L(psi, ell) * pi^(-ell) * Gamma(ell) = |B_{psi,ell}| / (2^ell ell).
    for ell in range(1, 16, 2):
        lhs = l_psi_exact_odd(ell) * _pi_power(-2 * ell) * gamma_half(2 * ell)
        assert lhs.is_rational
        assert lhs.as_rational() == abs(gen_bernoulli_mod4(ell)) / (Fraction(2) ** ell * ell)


def test_zeta_even_argument_at_integer():
    # zeta(ell) * pi^(-ell) * Gamma(ell) = 2^(ell-1) |zeta(1-ell)| for even ell.
    for ell in range(2, 21, 2):
        lhs = zeta_even_exact(ell // 2) * _pi_power(-2 * ell) * gamma_half(2 * ell)
        assert lhs.is_rational
        assert lhs.as_rational() == Fraction(2) ** (ell - 1) * abs(zeta_negative_odd(ell // 2))


# ---------------------------------------------------------------------------
# PiExact arithmetic
# ---------------------------------------------------------------------------

def _random_pi_exact(rng: random.Random, half_power: int | None = None) -> PiExact:
    coeff = Fraction(rng.randrange(-40, 41), rng.randrange(1, 30))
    if half_power is None:
        half_power = rng.randrange(-8, 9)
    return PiExact(coeff, half_power)


def test_pi_exact_zero_is_canonical():
    assert PiExact(Fraction(0), 6) == PiExact(Fraction(0), 0)
    assert PiExact(Fraction(0), 6).half_pi_power == 0


def test_pi_exact_ring_laws():
    rng = random.Random(20240)
    for _ in range(300):
        x = _random_pi_exact(rng)
        y = _random_pi_exact(rng)
        z = _random_pi_exact(rng)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        h = rng.randrange(-6, 7)
        a = _random_pi_exact(rng, h)
        b = _random_pi_exact(rng, h)
        assert a + b == b + a
        assert x * (a + b) == x * a + x * b
        assert a - b == a + (-b)


def test_pi_exact_mixed_scalar_ops():
    x = PiExact(Fraction(3, 2), 4)
    assert 2 * x == PiExact(Fraction(3), 4)
    assert x * Fraction(1, 3) == PiExact(Fraction(1, 2), 4)
    assert x / 3 == PiExact(Fraction(1, 2), 4)
    assert 6 / x == PiExact(Fraction(4), -4)
    assert x ** 3 == PiExact(Fraction(27, 8), 12)
    assert x ** 0 == PiExact(Fraction(1), 0)
    assert x ** -2 == PiExact(Fraction(4, 9), -8)
    assert abs(PiExact(Fraction(-5), 2)) == PiExact(Fraction(5), 2)


def test_pi_exact_addition_requires_matching_power():
    with pytest.raises(PiPowerMismatchError):
        PiExact(Fraction(1), 2) + PiExact(Fraction(1), 4)
    # adding a plain rational only works against a pi^0 value
    assert PiExact(Fraction(1, 2), 0) + Fraction(1, 2) == PiExact(Fraction(1), 0)
    with pytest.raises(PiPowerMismatchError):
        PiExact(Fraction(1, 2), 2) + Fraction(1, 2)
    # zero is absorbed regardless of nominal power
    assert PiExact(Fraction(1), 2) + PiExact(Fraction(0), 0) == PiExact(Fraction(1), 2)


def test_pi_exact_rational_extraction():
    assert PiExact(Fraction(7, 3), 0).as_rational() == Fraction(7, 3)
    with pytest.raises(ResidualPiPowerError):
        PiExact(Fraction(7, 3), 2).as_rational()
    assert not PiExact(Fraction(7, 3), 2).is_rational
    assert PiExact(Fraction(0), 0).is_rational


def test_pi_exact_to_float():
    x = PiExact(Fraction(1, 6), 4)
    assert abs(x.to_float() - math.pi ** 2 / 6) < 1e-15
    # half powers go through sqrt(pi)
    y = PiExact(Fraction(1), 1)
    assert abs(y.to_float() - math.sqrt(math.pi)) < 1e-15


def test_pi_exact_str():
    assert str(PiExact(Fraction(1, 6), 4)) == "1/6 * pi^2"
    assert str(PiExact(Fraction(3), 0)) == "3"
    assert str(PiExact(Fraction(1, 4), 1)) == "1/4 * pi^(1/2)"
    assert str(PiExact(Fraction(0), 0)) == "0"


# ---------------------------------------------------------------------------
# primes and factoring
# ---------------------------------------------------------------------------

def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    sieve = primes_up_to(10 ** 4)
    assert len(sieve) == 1229
    assert all(is_prime(p) for p in sieve[:100])


def test_is_prime_small_and_carmichael():
    known = set(primes_up_to(2000))
    for n in range(-5, 2000):
        assert is_prime(n) == (n in known), n
    # classic Fermat pseudoprimes must be rejected
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


def test_factored_integer_roundtrip_random():
    rng = random.Random(77)
    pool = primes_up_to(200) + [10007, 2 ** 31 - 1, 999999937]
    for _ in range(60):
        chosen: dict[int, int] = {}
        for _ in range(rng.randrange(1, 5)):
            p = rng.choice(pool)
            chosen[p] = chosen.get(p, 0) + rng.randrange(1, 4)
        n = rng.choice((-1, 1))
        for p, e in chosen.items():
            n *= p ** e
        fi = FactoredInteger.of(n)
        assert fi.value == n
        assert dict(fi.factors) == chosen


def test_factored_integer_examples():
    c = 2 ** 89 * 5 ** 2 * 17
    assert str(FactoredInteger.of(c)) == "2^89 * 5^2 * 17"
    assert str(FactoredInteger.of(-12)) == "-2^2 * 3"
    assert str(FactoredInteger.of(1)) == "1"
    assert str(FactoredInteger.of(-1)) == "-1"
    with pytest.raises(ValueError):
        FactoredInteger.of(0)


def test_factored_integer_at_the_trial_bound():
    top = primes_up_to(_TRIAL_BOUND)[-1]
    above = [n for n in range(_TRIAL_BOUND + 1, _TRIAL_BOUND + 100) if is_prime(n)][:2]
    below_square = next(n for n in range(_TRIAL_BOUND ** 2 - 1, 0, -1) if is_prime(n))
    cases = {
        1: (),
        -1: (),
        top ** 2: ((top, 2),),
        -top * above[0]: ((top, 1), (above[0], 1)),
        above[0]: ((above[0], 1),),
        below_square: ((below_square, 1),),
        above[0] ** 2: ((above[0], 2),),
        2 ** 5 * above[0] * above[1]: ((2, 5), (above[0], 1), (above[1], 1)),
    }
    for n, factors in cases.items():
        fi = FactoredInteger.of(n)
        assert fi.factors == factors, n
        assert fi.value == n


def test_factored_rationals():
    x = Factored.of(Fraction(-17, 2 ** 11))
    assert x == Factored(-1, ((2, -11), (17, 1)))
    assert x.value == Fraction(-17, 2 ** 11)
    assert str(x) == "-17 / 2^11"
    assert str(Factored.of(Fraction(1, 8))) == "1 / 2^3"
    assert str(Factored.of(-1)) == "-1"
    assert str(Factored.of(6) / Factored.of(6)) == "1"
    with pytest.raises(ValueError):
        Factored.of(0)
    rng = random.Random(5)
    for _ in range(100):
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
                for _ in range(2))
        fa, fb = Factored.of(a), Factored.of(b)
        assert fa * fb == Factored.of(a * b)
        assert fa / fb == Factored.of(a / b)
        assert (fa / fb).value == a / b
        assert str(fa) == format_factored(a)
        assert [p for p, _ in fa.factors] == sorted({p for p, _ in fa.factors})


def test_factor_handles_rationals():
    assert format_factored(Fraction(17, 2 ** 11)) == "17 / 2^11"
    assert format_factored(Fraction(-8)) == "-2^3"
    assert format_factored(Fraction(0)) == "0"
    num, den = factor(Fraction(17, 2048))
    assert num.value == 17 and den.value == 2048
    whole = factor(Fraction(512))
    assert isinstance(whole, FactoredInteger) and whole.value == 512
