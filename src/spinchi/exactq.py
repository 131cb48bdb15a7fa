"""Exact scalar arithmetic.

Everything downstream (volumes, Euler characteristics, local invariants)
reduces to exact rational numbers, rational multiples of half-integer
powers of pi, and factored integers.  This module provides those scalars:

* Bernoulli numbers and polynomials, with the convention B_1 = -1/2
  (generating function t/(e^t - 1)).
* Generalized Bernoulli numbers B_{psi,n} for the nontrivial quadratic
  character psi mod 4.
* Exact special values zeta(1-2j), zeta(2j), L(psi, odd), Gamma(j/2).
* ``PiExact``: a rational multiple of pi^(k/2), closed under the ring
  operations we need; additions across different pi powers are refused
  rather than approximated.
* ``FactoredInteger`` and ``factor``: signed prime factorizations of
  integers; ``Factored``: signed factorizations of rationals, closed
  under multiplication and division, so a product of factored pieces
  never has to be factored again.

All functions are pure; memoization uses ``functools.lru_cache`` (safe
under CPython threading).
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class PiPowerMismatchError(ValueError):
    """Addition of PiExact values living at different powers of pi."""


class ResidualPiPowerError(ArithmeticError):
    """A value expected to be rational still carries a power of pi."""


# ---------------------------------------------------------------------------
# Bernoulli machinery


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, with B_1 = -1/2.

    Uses the defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 for
    n >= 1.  B_n = 0 for odd n >= 3.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def bernoulli_poly(n: int, x: Scalar) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    return sum(
        (math.comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1)),
        start=Fraction(0),
    )


def gen_bernoulli_mod4(n: int) -> Fraction:
    """Generalized Bernoulli number B_{psi,n} for psi the character mod 4.

    Defined as 4^(n-1) * (B_n(1/4) - B_n(3/4)), and computed as
    -n E_(n-1) / 2 for odd n and 0 for even n.  The first odd values are
    -1/2, 3/2, -25/2, 427/2, -12465/2.
    """
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    if n % 2 == 0:
        return Fraction(0)
    return Fraction(-n * euler_number(n - 1), 2)


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Euler number E_n (secant numbers: E_0=1, E_2=-1, E_4=5, ...).

    Defined for even n by sum_{k=0}^{n/2} C(n, 2k) E_{2k} = 0.
    """
    if n < 0 or n % 2:
        raise ValueError("Euler numbers are indexed by even n >= 0 here")
    if n == 0:
        return 1
    return -sum(math.comb(n, 2 * k) * euler_number(2 * k) for k in range(n // 2))


# ---------------------------------------------------------------------------
# Exact pi-power scalars


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact scalar, got {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class PiExact:
    """coeff * pi^(half_pi_power / 2), with exact rational coeff.

    Zero is canonical: coeff 0 forces half_pi_power 0, so dataclass
    equality is semantic equality.
    """

    coeff: Fraction
    half_pi_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "half_pi_power", 0)

    @property
    def is_rational(self) -> bool:
        return self.half_pi_power == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ResidualPiPowerError(
                f"value carries pi^({self.half_pi_power}/2), not rational"
            )
        return self.coeff

    def __mul__(self, other: "PiExact | Scalar") -> "PiExact":
        if isinstance(other, PiExact):
            return PiExact(self.coeff * other.coeff,
                           self.half_pi_power + other.half_pi_power)
        return PiExact(self.coeff * _as_fraction(other), self.half_pi_power)

    __rmul__ = __mul__

    def inverse(self) -> "PiExact":
        if self.coeff == 0:
            raise ZeroDivisionError("inverse of zero")
        return PiExact(1 / self.coeff, -self.half_pi_power)

    def __truediv__(self, other: "PiExact | Scalar") -> "PiExact":
        if isinstance(other, PiExact):
            return self * other.inverse()
        return PiExact(self.coeff / _as_fraction(other), self.half_pi_power)

    def __rtruediv__(self, other: Scalar) -> "PiExact":
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "PiExact":
        if not isinstance(exponent, int):
            raise TypeError("PiExact powers must be integers")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PiExact(self.coeff ** exponent, self.half_pi_power * exponent)

    def __add__(self, other: "PiExact") -> "PiExact":
        if not isinstance(other, PiExact):
            other = PiExact(_as_fraction(other))
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.half_pi_power != other.half_pi_power:
            raise PiPowerMismatchError(
                f"cannot add pi^({self.half_pi_power}/2) to "
                f"pi^({other.half_pi_power}/2)"
            )
        return PiExact(self.coeff + other.coeff, self.half_pi_power)

    __radd__ = __add__

    def __neg__(self) -> "PiExact":
        return PiExact(-self.coeff, self.half_pi_power)

    def __sub__(self, other: "PiExact") -> "PiExact":
        return self + (-other)

    def __abs__(self) -> "PiExact":
        return PiExact(abs(self.coeff), self.half_pi_power)

    def to_float(self, pi: float = math.pi) -> float:
        """Numeric value; pass a high-precision pi for sharper answers."""
        return (pi ** (self.half_pi_power / 2)) * self.coeff.numerator / self.coeff.denominator

    def __str__(self) -> str:
        if self.half_pi_power == 0:
            return str(self.coeff)
        half = self.half_pi_power
        pi_part = f"pi^{half // 2}" if half % 2 == 0 else f"pi^({half}/2)"
        if half == 2:
            pi_part = "pi"
        return f"{self.coeff} * {pi_part}"


# ---------------------------------------------------------------------------
# Special values


def zeta_negative_odd(j: int) -> Fraction:
    """zeta(1 - 2j) = -B_{2j} / (2j), exactly.  j >= 1.

    zeta(-1) = -1/12, zeta(-3) = 1/120, zeta(-5) = -1/252, ...
    """
    if j < 1:
        raise ValueError("need j >= 1")
    return -bernoulli(2 * j) / (2 * j)


def zeta_even_exact(j: int) -> PiExact:
    """zeta(2j) = (-1)^(j+1) B_{2j} (2 pi)^(2j) / (2 (2j)!), as PiExact."""
    if j < 1:
        raise ValueError("need j >= 1")
    coeff = (-1) ** (j + 1) * bernoulli(2 * j) * Fraction(2) ** (2 * j - 1) \
        / math.factorial(2 * j)
    return PiExact(coeff, 4 * j)


def l_psi_exact_odd(ell: int) -> PiExact:
    """L(psi, ell) for odd ell >= 1 and psi the character mod 4.

    L(psi, 2k+1) = (-1)^k E_{2k} pi^(2k+1) / (4^(k+1) (2k)!).
    L(psi,1) = pi/4, L(psi,3) = pi^3/32, L(psi,5) = 5 pi^5 / 1536.
    """
    if ell < 1 or ell % 2 == 0:
        raise ValueError("need odd ell >= 1")
    k = (ell - 1) // 2
    coeff = Fraction((-1) ** k * euler_number(2 * k),
                     4 ** (k + 1) * math.factorial(2 * k))
    return PiExact(coeff, 2 * ell)


def gamma_half(j: int) -> PiExact:
    """Gamma(j/2) for integer j >= 1, exactly.

    Even j: (j/2 - 1)!.  Odd j = 2n+1: (2n)! / (4^n n!) * sqrt(pi).
    """
    if j < 1:
        raise ValueError("need j >= 1")
    if j % 2 == 0:
        return PiExact(Fraction(math.factorial(j // 2 - 1)), 0)
    n = (j - 1) // 2
    return PiExact(Fraction(math.factorial(2 * n),
                            4 ** n * math.factorial(n)), 1)


# ---------------------------------------------------------------------------
# Primes and factoring

_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_RANDOM_ROUNDS = 24  # above the deterministic bound
_TRIAL_BOUND = 10 ** 6


def _primes(bound: int) -> Iterator[int]:
    """The primes <= bound in ascending order, by a sieve over odd numbers."""
    if bound < 2:
        return iter(())
    size = (bound + 1) // 2
    odd_flags = bytearray([1]) * size  # odd_flags[i]: is 2i + 1 prime
    odd_flags[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if odd_flags[i]:
            p = 2 * i + 1
            odd_flags[p * p // 2:: p] = bytes(len(range(p * p // 2, size, p)))
    return itertools.chain((2,), itertools.compress(range(1, bound + 1, 2), odd_flags))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    return list(_primes(bound))


@lru_cache(maxsize=1)
def _trial_primes() -> array:
    """The primes <= _TRIAL_BOUND, sieved on first use.

    Kept as a C array (0.3 MB) rather than a list of int objects (3 MB):
    every process that factors anything holds it for its lifetime.
    """
    return array("I", _primes(_TRIAL_BOUND))


def _mr_witness(a: int, n: int, d: int, r: int) -> bool:
    # True if a proves n composite.
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality.

    Deterministic below 3.3e24 (witness set 2..37); above that, the fixed
    witnesses plus 24 seeded random rounds, so the error probability is
    below 4^-24.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(_EXTRA_RANDOM_ROUNDS)]
    return not any(_mr_witness(a, n, d, r) for a in witnesses)


def _pollard_brent(n: int) -> int:
    # Nontrivial factor of odd composite n (Brent's cycle variant).
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@dataclass(frozen=True)
class FactoredInteger:
    """Signed prime factorization; ``factors`` is ((p, e), ...) by prime."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, n: int) -> "FactoredInteger":
        if n == 0:
            raise ValueError("cannot factor 0")
        sign = 1 if n > 0 else -1
        n = abs(n)
        found: dict[int, int] = {}
        primes = _trial_primes()
        for p in primes[:bisect.bisect_right(primes, math.isqrt(n))]:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                found[p] = e
                if p * p > n:
                    break
        # n has no prime factor <= min(sqrt(n), _TRIAL_BOUND) left, so
        # below _TRIAL_BOUND^2 it is 1 or a prime.
        if n >= _TRIAL_BOUND ** 2:
            _factor_into(n, found)
        elif n > 1:
            found[n] = 1
        return cls(sign, tuple(sorted(found.items())))

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p ** e
        return v

    def __str__(self) -> str:
        body = " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )
        if not body:
            body = "1"
        return ("-" if self.sign < 0 else "") + body


def factor(x: Scalar):
    """Factor a nonzero integer or Rational.

    Integers give one ``FactoredInteger``; non-integral rationals give a
    ``(numerator, denominator)`` pair of them.
    """
    if isinstance(x, Fraction):
        if x == 0:
            raise ValueError("cannot factor 0")
        if x.denominator == 1:
            return FactoredInteger.of(x.numerator)
        return FactoredInteger.of(x.numerator), FactoredInteger.of(x.denominator)
    if isinstance(x, int) and not isinstance(x, bool):
        return FactoredInteger.of(x)
    raise TypeError(f"cannot factor {x!r}")


@dataclass(frozen=True)
class Factored:
    """Signed factorization of a nonzero rational.

    ``factors`` is ((p, e), ...) by ascending prime, every e nonzero; the
    primes of the denominator carry negative exponents.  Products and
    quotients add and subtract exponents, so nothing is factored twice.
    """

    sign: int
    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, x: Scalar) -> "Factored":
        x = Fraction(x)
        if x == 0:
            raise ValueError("cannot factor 0")
        num = FactoredInteger.of(x.numerator)
        exponents = dict(num.factors)
        if x.denominator > 1:
            exponents.update((p, -e) for p, e in
                             FactoredInteger.of(x.denominator).factors)
        return cls(num.sign, tuple(sorted(exponents.items())))

    def __mul__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        exponents = dict(self.factors)
        for p, e in other.factors:
            exponents[p] = exponents.get(p, 0) + e
        return Factored(self.sign * other.sign,
                        tuple(sorted((p, e) for p, e in exponents.items() if e)))

    def __truediv__(self, other: "Factored") -> "Factored":
        if not isinstance(other, Factored):
            return NotImplemented
        return self * Factored(other.sign, tuple((p, -e) for p, e in other.factors))

    @property
    def value(self) -> Fraction:
        num, den = self.sign, 1
        for p, e in self.factors:
            if e > 0:
                num *= p ** e
            else:
                den *= p ** -e
        return Fraction(num, den)

    def __str__(self) -> str:
        num = FactoredInteger(self.sign, tuple((p, e) for p, e in self.factors if e > 0))
        den = tuple((p, -e) for p, e in self.factors if e < 0)
        return f"{num} / {FactoredInteger(1, den)}" if den else str(num)


def format_factored(x: Scalar) -> str:
    """Render an exact value as a signed prime power product.

    0 -> "0"; integers -> "2^89 * 5^2 * 17"; non-integral rationals get a
    " / " between numerator and denominator factorizations.
    """
    x = Fraction(x)
    return "0" if x == 0 else str(Factored.of(x))
