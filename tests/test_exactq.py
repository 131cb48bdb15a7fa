"""Tests for the exact rational layer: Bernoulli and Euler numbers,
special values of zeta and the quartic L-function, the pi-power
bookkeeping type, integer factoring, and the contract of ``Value``, the
immutable base of the eleven runtime value types.

Every table in the library is checked against an independent oracle:
Bernoulli numbers against the Akiyama-Tanigawa scheme (in ``oracles``), zeta and L
values against truncated Dirichlet series evaluated in floating point,
and factoring against plain multiplication.
"""
from __future__ import annotations

import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from spinchi import exactq, oracles
from spinchi.clifford import CoefficientRing, Signature
from spinchi.euler import (EulerResult, L2Profile, SArithmeticSign, chi_closed,
                           l2_profile, s_arithmetic_sign)
from spinchi.exactq import (
    _TRIAL_BOUND,
    FactoredInteger,
    PiExact,
    ResidualPiPowerError,
    Value,
    bernoulli,
    decimal_str,
    euler_number,
    format_factored,
    gamma_half,
    gen_bernoulli_mod4,
    is_prime,
    l_psi_exact_odd,
    primes_up_to,
    zeta_even_exact,
    zeta_negative_odd,
    zigzag,
)
from spinchi.ggroups import SpinGroupDescriptor
from spinchi.oracles import bernoulli_akiyama_tanigawa, bernoulli_poly
from spinchi.profinite import CommensurabilityReport, profinitely_commensurable
from spinchi.qforms import (DiagonalForm, LocalInvariants, Place, hasse_invariant,
                            local_invariants)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

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
    for n, expected in enumerate(bernoulli_akiyama_tanigawa(120)):
        assert bernoulli(n) == expected, n


def test_zigzag_frozen_values():
    # OEIS A000111
    expected = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792,
                2702765, 22368256, 199360981, 1903757312, 19391512145]
    assert [zigzag(n) for n in range(len(expected))] == expected
    with pytest.raises(ValueError):
        zigzag(-1)


def test_zigzag_blocks_are_powers_of_two():
    # Asking for n = 0..N in turn builds one triangle per power of two
    # up to 2N, so the total work is O(N^2) additions.  bernoulli(n) reads
    # A_(n-1) for even n >= 2, so the blocks have sizes 2, 4, ..., 1024.
    exactq._zigzag_block.cache_clear()
    bernoulli.cache_clear()
    for n in range(1001):
        bernoulli(n)
    info = exactq._zigzag_block.cache_info()
    assert info.currsize == info.misses == 10
    assert len(exactq._zigzag_block(1024)) == 1024
    assert exactq._zigzag_block.cache_info().misses == 10


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


def test_euler_numbers_satisfy_defining_recurrence():
    # the defining recurrence sum_{k=0}^{n/2} C(n, 2k) E_{2k} = 0, even n >= 2
    assert euler_number(0) == 1
    for n in range(2, 121, 2):
        assert sum(math.comb(n, 2 * k) * euler_number(2 * k)
                   for k in range(n // 2 + 1)) == 0, n


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

def _random_pi_exact(rng: random.Random) -> PiExact:
    coeff = Fraction(rng.randrange(-40, 41), rng.randrange(1, 30))
    return PiExact(coeff, rng.randrange(-8, 9))


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
        if y.coeff:
            q = Fraction(rng.randrange(-40, 41), rng.randrange(1, 30))
            assert x / y == x * y.inverse()
            assert (x / y) * y == x
            assert q / y == PiExact(q) / y


def test_pi_exact_mixed_scalar_ops():
    x = PiExact(Fraction(3, 2), 4)
    assert 2 * x == PiExact(Fraction(3), 4)
    assert x * Fraction(1, 3) == PiExact(Fraction(1, 2), 4)
    assert x / 3 == PiExact(Fraction(1, 2), 4)
    assert 6 / x == PiExact(Fraction(4), -4)


def test_pi_exact_rational_extraction():
    assert PiExact(Fraction(7, 3), 0).as_rational() == Fraction(7, 3)
    with pytest.raises(ResidualPiPowerError):
        PiExact(Fraction(7, 3), 2).as_rational()
    assert not PiExact(Fraction(7, 3), 2).is_rational
    assert PiExact(Fraction(0), 0).is_rational


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


def test_factored_integer_above_the_trial_bound():
    # Primes in (_TRIAL_BOUND, 10^6] are found by Pollard-Brent, not by
    # trial division; the factorization is the same.
    def prime_near(n: int, step: int) -> int:
        while not is_prime(n):
            n += step
        return n

    p = prime_near(_TRIAL_BOUND + 1, 1)
    q = prime_near(31_337, 1)
    r = prime_near(10 ** 6, -1)
    s = prime_near(10 ** 6 + 1, 1)
    assert _TRIAL_BOUND < p < q < r < 10 ** 6 < s
    cases = {
        p * q: {p: 1, q: 1},
        r ** 2: {r: 2},
        p ** 3 * r: {p: 3, r: 1},
        2 ** 5 * p * q * r: {2: 5, p: 1, q: 1, r: 1},
        -r * s: {r: 1, s: 1},
    }
    rng = random.Random(13)
    pool = [n for n in range(_TRIAL_BOUND + 1, 10 ** 6, 997) if is_prime(n)]
    for _ in range(40):
        chosen: dict[int, int] = {}
        for _ in range(rng.randrange(1, 4)):
            x = rng.choice(pool)
            chosen[x] = chosen.get(x, 0) + rng.randrange(1, 3)
        cases[math.prod(x ** e for x, e in chosen.items())] = chosen
    for n, chosen in cases.items():
        fi = FactoredInteger.of(n)
        assert fi.factors == tuple(sorted(chosen.items())), n
        assert fi.value == n


def test_factoring_tests_and_splits_only_pieces_above_the_trial_square(monkeypatch):
    # Trial division leaves no prime <= _TRIAL_BOUND in the cofactor, so a
    # piece below _TRIAL_BOUND^2 is prime without Miller-Rabin, and
    # Pollard-Brent is only handed composites at least that large.
    tested, split = [], []
    real_is_prime, real_split = exactq.is_prime, exactq._pollard_brent

    def is_prime_spy(n: int) -> bool:
        tested.append(n)
        return real_is_prime(n)

    def split_spy(n: int) -> int:
        split.append(n)
        return real_split(n)

    monkeypatch.setattr(exactq, "is_prime", is_prime_spy)
    monkeypatch.setattr(exactq, "_pollard_brent", split_spy)
    cases = {
        2 ** 5 * 10007 * 31337 * 999983: {2: 5, 10007: 1, 31337: 1, 999983: 1},
        10007 ** 3 * 999983: {10007: 3, 999983: 1},
        999999937 ** 2 * 1000000007: {999999937: 2, 1000000007: 1},
    }
    for n, chosen in cases.items():
        fi = FactoredInteger.of(n)
        assert fi.factors == tuple(sorted(chosen.items())), n
        assert fi.value == n
    fi = FactoredInteger.of(zigzag(47))
    assert fi.value == zigzag(47)
    assert all(real_is_prime(p) for p, _ in fi.factors)
    assert [p for p, _ in fi.factors] == sorted({p for p, _ in fi.factors})
    assert tested and split
    assert all(n >= _TRIAL_BOUND ** 2 for n in tested), sorted(tested)
    assert all(n >= _TRIAL_BOUND ** 2 and not real_is_prime(n) for n in split), split


def test_factored_zigzag_numbers():
    # The integers chi is built from: A_i for odd i <= 67, even i <= 42.
    for i in (*range(1, 68, 2), *range(2, 43, 2)):
        fi = FactoredInteger.of(zigzag(i))
        assert fi.value == zigzag(i), i
        primes = [p for p, _ in fi.factors]
        assert primes == sorted(set(primes)), i
        assert all(is_prime(p) for p in primes), i


def test_factored_integer_products():
    # products add exponents and multiply signs, with the primes ascending
    assert FactoredInteger.of(-1) * FactoredInteger.of(-1) == FactoredInteger.of(1)
    assert FactoredInteger.of(12) * FactoredInteger.of(-1) == FactoredInteger(-1, ((2, 2), (3, 1)))
    with pytest.raises(TypeError):
        FactoredInteger.of(6) * 2
    rng = random.Random(5)
    for _ in range(100):
        a, b = (rng.choice((-1, 1)) * rng.choice((1, rng.randrange(1, 10 ** 6)))
                for _ in range(2))
        fa, fb = FactoredInteger.of(a), FactoredInteger.of(b)
        product = fa * fb
        assert product == FactoredInteger.of(a * b), (a, b)
        assert product.value == a * b
        assert [p for p, _ in product.factors] == sorted({p for p, _ in product.factors})
        assert str(fa) == format_factored(a)


def test_format_factored_rationals():
    assert format_factored(Fraction(-17, 2 ** 11)) == "-17 / 2^11"
    assert format_factored(Fraction(17, 2 ** 11)) == "17 / 2^11"
    assert format_factored(Fraction(1, 8)) == "1 / 2^3"
    assert format_factored(Fraction(-8)) == "-2^3"
    assert format_factored(-1) == "-1"
    assert format_factored(Fraction(0)) == "0"


def test_decimal_str_across_the_digit_limit():
    # 10^4300 - 1 has exactly 4300 digits (plain str); 10^4300 and the
    # 119k-digit value need the Decimal rebuild under the default limit.
    big = 3 ** 250000 + 12345
    cases = [10 ** 4300 - 1, 10 ** 4300, big, 0, 1, 2 ** 128, 2 ** 129 - 1]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = {n: (decimal_str(n), decimal_str(-n)) for n in cases}
        sys.set_int_max_str_digits(0)
        for n in cases:
            assert got[n] == (str(n), str(-n)), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(got[big][0]) > 100_000


@pytest.mark.parametrize("call, error", [
    (lambda: bernoulli(-1), ValueError),
    (lambda: bernoulli_poly(-1, 0), ValueError),
    (lambda: gen_bernoulli_mod4(0), ValueError),
    (lambda: zeta_negative_odd(0), ValueError),
    (lambda: zeta_even_exact(0), ValueError),
    (lambda: l_psi_exact_odd(2), ValueError),
    (lambda: gamma_half(0), ValueError),
    (lambda: PiExact(1.5), TypeError),
    (lambda: PiExact(1) ** 0.5, TypeError),
    (lambda: PiExact(0).inverse(), ZeroDivisionError),
    (lambda: oracles.squarefree_rep(0), ValueError),
    (lambda: CoefficientRing().from_int(1), NotImplementedError),
])
def test_invalid_inputs_raise(call, error):
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# Value: the immutable base of the runtime value types

VALUES = {
    PiExact: lambda: PiExact(Fraction(-3, 4), 5),
    FactoredInteger: lambda: FactoredInteger.of(-360),
    Place: lambda: Place(7),
    DiagonalForm: lambda: DiagonalForm((1, Fraction(-2, 3), 5)),
    LocalInvariants: lambda: local_invariants(DiagonalForm((1, -2, 5)), None),
    SpinGroupDescriptor: lambda: SpinGroupDescriptor(3, 2),
    Signature: lambda: Signature(3, 2),
    EulerResult: lambda: chi_closed(8, 2),
    L2Profile: lambda: l2_profile(3, 3),
    SArithmeticSign: lambda: s_arithmetic_sign(3, 3, (2, 5)),
    CommensurabilityReport: lambda: profinitely_commensurable(8, 2, 4, 6),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_contract(cls):
    a = VALUES[cls]()
    assert type(a) is cls and isinstance(a, Value) and not hasattr(a, "__dict__")
    values = [getattr(a, name) for name in cls._fields]
    b = cls(*values)
    assert a == b and b is not a and not a != b
    if cls is SArithmeticSign:  # witt_by_place is a dict, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(values))
    name = cls._fields[0]
    for mutate in (lambda: setattr(a, name, values[0]), lambda: delattr(a, name),
                   lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert getattr(a, name) is values[0]
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a
    text = repr(a)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}={value!r}" in text for name, value in zip(cls._fields, values))
    with pytest.raises(TypeError):
        cls(*values, None)


def test_value_types_of_different_classes_are_unequal():
    assert Signature(3, 2) != SpinGroupDescriptor(3, 2)
    assert SpinGroupDescriptor(3, 2) != Signature(3, 2)
    assert Signature(3, 2).__eq__((3, 2)) is NotImplemented
    assert len({Signature(3, 2), SpinGroupDescriptor(3, 2), Signature(3, 2)}) == 2


def test_value_validation_is_unchanged():
    for call in (lambda: Place(4), lambda: Signature(0, 0),
                 lambda: SpinGroupDescriptor(1, 1), lambda: DiagonalForm(())):
        with pytest.raises(ValueError):
            call()
    assert PiExact(0, 3).half_pi_power == 0
    assert PiExact(0, 3) == PiExact(Fraction(0))
    assert PiExact(2).coeff == Fraction(2) and PiExact(2).half_pi_power == 0
    assert Place() == Place(None) and Place().is_infinite
    assert DiagonalForm((1, 2)).entries == (Fraction(1), Fraction(2))


def test_diagonal_form_value_ignores_reps_and_memo():
    f, g = DiagonalForm((3, Fraction(-1, 2))), DiagonalForm((3, Fraction(-1, 2)))
    hasse_invariant(g, 3)
    assert g._memo and not f._memo
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == "DiagonalForm(entries=(Fraction(3, 1), Fraction(-1, 2)))"
    assert g.reps == (3, -2)
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and clone.reps == g.reps and not clone._memo
