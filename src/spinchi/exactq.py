"""Exact scalar arithmetic.

Everything downstream (volumes, Euler characteristics, local invariants)
reduces to exact rational numbers, rational multiples of half-integer
powers of pi, and factored integers.  This module provides those scalars:

* The Euler zigzag numbers A_n from one integer triangle, and the
  Bernoulli numbers (B_1 = -1/2, generating function t/(e^t - 1)) and
  the Euler numbers read off them.
* Generalized Bernoulli numbers B_{psi,n} for the nontrivial quadratic
  character psi mod 4.
* Exact special values zeta(1-2j), zeta(2j), L(psi, odd), Gamma(j/2).
* ``PiExact``: a rational multiple of pi^(k/2).  Its nonzero values are
  a group under * and /; it has no addition, so no sum across pi powers
  is ever approximated.
* ``FactoredInteger``: the one factorization type, a signed prime
  factorization of a nonzero integer.  Products add exponents, so a
  product of factored pieces never has to be factored again.  One trial
  loop to min(sqrt(n), 10^4), then one work-list of cofactors, each kept
  as prime or split by Pollard-Brent; no large prime table.
* ``decimal_str``: the decimal digits of an integer of any size.
* ``Value``: the immutable base of the runtime value types, written by
  hand: a generated frozen class ``exec``s six methods at import, ~1 ms.

All functions are pure; memoization uses ``functools.lru_cache`` (safe
under CPython threading).
"""
from __future__ import annotations

import decimal
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Union

Scalar = Union[int, Fraction]


class ResidualPiPowerError(ArithmeticError):
    """A value expected to be rational still carries a power of pi."""


class Value:
    """Immutable value: ``==``, ``hash`` and ``repr`` over ``_fields``.

    A subclass validates, then sets each field once, or shares this
    positional ``__init__``.  Pickle and copy rebuild through ``__init__``.
    """

    __slots__ = ()  # each subclass sets __slots__ and its _fields, a tuple of names

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()


# ---------------------------------------------------------------------------
# Bernoulli machinery


@lru_cache(maxsize=None)
def _zigzag_block(size: int) -> tuple[int, ...]:
    # A_0 .. A_(size-1) by the Seidel-Entringer boustrophedon: row r holds
    # E(r, k) = E(r, k-1) + E(r-1, r-k), E(r, 0) = 0, and A_r = E(r, r).
    row, out = [1], [1]
    for _ in range(1, size):
        row = list(itertools.accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return tuple(out)


def zigzag(n: int) -> int:
    """Euler zigzag number A_n (OEIS A000111): 1, 1, 1, 2, 5, 16, 61, 272, ...

    A_(2j) = |E_(2j)| are the secant numbers and A_(2j-1) = T_j the
    tangent numbers.  Blocks are computed to the next power of two above
    n and cached, so asking for n = 1..N in turn costs O(N^2) additions.
    """
    if n < 0:
        raise ValueError("zigzag index must be >= 0")
    return _zigzag_block(1 << n.bit_length())[n]


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, with B_1 = -1/2.

    B_(2j) = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) with T_j = A_(2j-1) the
    tangent numbers (``zigzag``).  B_n = 0 for odd n >= 3.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    j = n // 2
    return Fraction((-1) ** (j - 1) * n * zigzag(n - 1), 4 ** j * (4 ** j - 1))


def gen_bernoulli_mod4(n: int) -> Fraction:
    """Generalized Bernoulli number B_{psi,n} for psi the character mod 4.

    Defined as 4^(n-1) * (B_n(1/4) - B_n(3/4)) (``oracles.bernoulli_poly``)
    and computed as -n E_(n-1) / 2 for odd n, 0 for even n.  The first
    odd values are -1/2, 3/2, -25/2, 427/2, -12465/2.
    """
    if n < 1:
        raise ValueError("generalized Bernoulli index must be >= 1")
    if n % 2 == 0:
        return Fraction(0)
    return Fraction(-n * euler_number(n - 1), 2)


def euler_number(n: int) -> int:
    """Euler number E_n = (-1)^(n/2) A_n for even n: 1, -1, 5, -61, ...

    The secant numbers, defined by sum_{k=0}^{n/2} C(n, 2k) E_{2k} = 0.
    """
    if n < 0 or n % 2:
        raise ValueError("Euler numbers are indexed by even n >= 0 here")
    return (-1) ** (n // 2) * zigzag(n)


# ---------------------------------------------------------------------------
# Exact pi-power scalars


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact scalar, got {value!r}")
    return Fraction(value)


class PiExact(Value):
    """coeff * pi^(half_pi_power / 2), with exact rational coeff.

    Zero is canonical: coeff 0 forces half_pi_power 0, so field equality
    is semantic equality.
    """

    __slots__ = _fields = ("coeff", "half_pi_power")

    def __init__(self, coeff: Scalar, half_pi_power: int = 0) -> None:
        coeff = _as_fraction(coeff)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "half_pi_power", half_pi_power if coeff else 0)

    @property
    def is_rational(self) -> bool:
        return self.half_pi_power == 0

    def as_rational(self, what: str = "value") -> Fraction:
        """The rational coeff; ResidualPiPowerError names ``what`` otherwise."""
        if not self.is_rational:
            raise ResidualPiPowerError(f"{what} leaves pi^({self.half_pi_power}/2)")
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

    L(psi, 2k+1) = A_(2k) pi^(2k+1) / (4^(k+1) (2k)!), A_(2k) = |E_(2k)|.
    L(psi,1) = pi/4, L(psi,3) = pi^3/32, L(psi,5) = 5 pi^5 / 1536.
    """
    if ell < 1 or ell % 2 == 0:
        raise ValueError("need odd ell >= 1")
    k = (ell - 1) // 2
    coeff = Fraction(zigzag(2 * k), 4 ** (k + 1) * math.factorial(2 * k))
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
_TRIAL_BOUND = 10 ** 4


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by a sieve over odd numbers."""
    if bound < 2:
        return []
    size = (bound + 1) // 2
    odd_flags = bytearray([1]) * size  # odd_flags[i]: is 2i + 1 prime
    odd_flags[0] = 0
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if odd_flags[i]:
            p = 2 * i + 1
            odd_flags[p * p // 2:: p] = bytes(len(range(p * p // 2, size, p)))
    return [2, *itertools.compress(range(1, bound + 1, 2), odd_flags)]


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    """The primes <= _TRIAL_BOUND, sieved on first use."""
    return tuple(primes_up_to(_TRIAL_BOUND))


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
    for p in _MR_WITNESSES:
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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


class FactoredInteger(Value):
    """Signed prime factorization of a nonzero integer.

    ``factors`` is ((p, e), ...) by ascending prime, every e >= 1; ``*``
    adds exponents.
    """

    __slots__ = _fields = ("sign", "factors")

    @classmethod
    def of(cls, n: int) -> "FactoredInteger":
        if n == 0:
            raise ValueError("cannot factor 0")
        found: dict[int, int] = {}
        rest = abs(n)
        limit = math.isqrt(rest)
        for p in _trial_primes():
            if p > limit:
                break
            if rest % p == 0:
                while rest % p == 0:
                    rest //= p
                    found[p] = found.get(p, 0) + 1
                limit = math.isqrt(rest)
        # No prime <= min(sqrt(rest), _TRIAL_BOUND) divides rest, nor any
        # piece Pollard-Brent splits off it, so a piece below
        # _TRIAL_BOUND^2 is prime.
        pieces = [rest] if rest > 1 else []
        while pieces:
            m = pieces.pop()
            if m < _TRIAL_BOUND ** 2 or is_prime(m):
                found[m] = found.get(m, 0) + 1
            else:
                d = _pollard_brent(m)
                pieces += (d, m // d)
        return cls(1 if n > 0 else -1, tuple(sorted(found.items())))

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p ** e
        return v

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        if not isinstance(other, FactoredInteger):
            return NotImplemented
        exponents = dict(self.factors)
        for p, e in other.factors:
            exponents[p] = exponents.get(p, 0) + e
        return FactoredInteger(self.sign * other.sign, tuple(sorted(exponents.items())))

    def __str__(self) -> str:
        body = " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )
        if not body:
            body = "1"
        return ("-" if self.sign < 0 else "") + body


def format_factored(x: Scalar) -> str:
    """Render an exact value as a signed prime power product.

    0 -> "0"; integers -> "2^89 * 5^2 * 17"; non-integral rationals get a
    " / " between numerator and denominator factorizations.
    """
    x = Fraction(x)
    if x == 0:
        return "0"
    num = FactoredInteger.of(x.numerator)
    return f"{num} / {FactoredInteger.of(x.denominator)}" if x.denominator > 1 else str(num)


def decimal_str(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit.

    Below the limit this is plain ``str``.  Above it, n is split by
    powers of 2 and rebuilt exactly as a ``Decimal`` (hi * 2^w + lo,
    each 2^w built once), whose str has no limit and the same digits.
    """
    try:
        return str(n)
    except ValueError:
        pass
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= 128
                         else two_to(w >> 1) * two_to(w - (w >> 1)))
        return powers[w]

    def rebuild(x: int, w: int) -> decimal.Decimal:  # 0 <= x < 2^w
        if w <= 128:
            return decimal.Decimal(x)
        half = w >> 1
        hi, lo = x >> half, x & ((1 << half) - 1)
        return rebuild(hi, w - half) * two_to(half) + rebuild(lo, half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(rebuild(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits
