"""Euler characteristics of the level-4 congruence subgroups of Spin(m, n).

Everything is for the principal congruence subgroup of level 4 in
Spin(m, n)(Z), acting on a symmetric space of dimension m * n.  Writing
d = m + n, l = floor(d/2), k = floor(m/2), the closed formula is

    chi = 0                                  if m, n both odd, else
    chi = (-1)^(mn/2) * R(d) * C(l, k) * prod_{j=1}^{l-1} (2^(2j)-1) |zeta(1-2j)|

with the dimension-only factor

    R(d) = 2^(5l^2 - 4l)    * (2^l - 1)       * |zeta(1-l)|    d = 0 mod 4
    R(d) = 2^(5l^2 - 5l + 1) * |B_{psi,l}| / l                 d = 2 mod 4
    R(d) = 2^(5l^2)         * (2^(d-1) - 1)  * |zeta(2-d)|     d odd.

R(d) and the j-product depend on d alone, so they are cached per d, both
exactly and factored: the factorization of chi is assembled from the
cached factored pieces (each (2^(2j)-1)|zeta(1-2j)| and |E_(l-1)|
factored once) and C(l, k), and the full value is never factored.

``adelic_assembly_exact`` recomputes chi from first principles as a
product of local volumes: the normalized compact-dual volume, the
2-adic congruence subgroup volume 2^(-d(d-1)), and the odd-prime Euler
product expressed through zeta/L special values.  The pi powers must
cancel exactly; a residual power raises ``ResidualPiPowerError`` and
means a bug, not an input error.  ``adelic_assembly_float`` walks the
actual Euler product over primes up to a bound in log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .exactq import (
    Factored,
    PiExact,
    ResidualPiPowerError,
    euler_number,
    l_psi_exact_odd,
    primes_up_to,
    zeta_even_exact,
    zeta_negative_odd,
)
from .ggroups import SpinGroupDescriptor, spin_order_fp, vol_compact_dual, weyl_ratio
from .qforms import DiagonalForm, Place, witt_index, witt_index_rational

CASE_ZERO = "zero"      # m, n both odd
CASE_0MOD4 = "0mod4"
CASE_2MOD4 = "2mod4"
CASE_ODD = "odd"


def _case_tag(m: int, n: int) -> str:
    if m % 2 and n % 2:
        return CASE_ZERO
    d = m + n
    if d % 2:
        return CASE_ODD
    return CASE_0MOD4 if d % 4 == 0 else CASE_2MOD4


@dataclass(frozen=True)
class EulerResult:
    descriptor: SpinGroupDescriptor
    value: Fraction
    case: str

    @property
    def sign(self) -> int:
        if self.value == 0:
            return 0
        return 1 if self.value > 0 else -1

    @property
    def factored(self) -> str:
        """The value as a signed prime power product, e.g. "2^89 * 5^2 * 17".

        Assembled from the factored pieces ``chi_closed`` computes the
        value from, which the descriptor determines.
        """
        if self.value == 0:
            return "0"
        desc = self.descriptor
        return str(Factored.of(self.sign * math.comb(desc.l, desc.k))
                   * _dimension_factored(desc.d))


def r_factor(d: int) -> Fraction:
    """The dimension-only factor R(d), d >= 3."""
    if d < 3:
        raise ValueError("need d >= 3")
    l = d // 2
    if d % 2 == 0 and l % 2 != (0 if d % 4 == 0 else 1):
        raise AssertionError("parity bookkeeping broke")
    if d % 4 == 0:
        # l even: zeta(1 - l) is a negative-odd-argument value
        return (Fraction(2) ** (5 * l * l - 4 * l) * (2 ** l - 1)
                * abs(zeta_negative_odd(l // 2)))
    if d % 2 == 0:
        # |B_{psi,l}| / l = |E_(l-1)| / 2
        return Fraction(2) ** (5 * l * l - 5 * l) * abs(euler_number(l - 1))
    return (Fraction(2) ** (5 * l * l) * (2 ** (d - 1) - 1)
            * abs(zeta_negative_odd((d - 1) // 2)))


def _odd_zeta_product(l: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, l):
        out *= (2 ** (2 * j) - 1) * abs(zeta_negative_odd(j))
    return out


@lru_cache(maxsize=None)
def _dimension_value(d: int) -> Fraction:
    """R(d) * prod_{j<l} (2^(2j)-1)|zeta(1-2j)|; chi = +-C(l, k) times this."""
    return r_factor(d) * _odd_zeta_product(d // 2)


@lru_cache(maxsize=None)
def _zeta_piece(j: int) -> Factored:
    """(2^(2j) - 1) |zeta(1 - 2j)|, factored."""
    return Factored.of(2 ** (2 * j) - 1) * Factored.of(abs(zeta_negative_odd(j)))


@lru_cache(maxsize=None)
def _dimension_factored(d: int) -> Factored:
    """_dimension_value(d), assembled from factored pieces.

    R(d) is a power of 2 times one piece: (2^l-1)|zeta(1-l)| is
    _zeta_piece(l/2) and (2^(d-1)-1)|zeta(2-d)| is _zeta_piece(l).
    """
    l = d // 2
    if d % 4 == 0:
        out = Factored(1, ((2, 5 * l * l - 4 * l),)) * _zeta_piece(l // 2)
    elif d % 2 == 0:
        out = Factored(1, ((2, 5 * l * l - 5 * l),)) * Factored.of(abs(euler_number(l - 1)))
    else:
        out = Factored(1, ((2, 5 * l * l),)) * _zeta_piece(l)
    for j in range(1, l):
        out *= _zeta_piece(j)
    return out


def chi_closed(m: int, n: int) -> EulerResult:
    """chi of the level-4 congruence subgroup of Spin(m, n), exactly."""
    desc = SpinGroupDescriptor(m, n)
    case = _case_tag(m, n)
    if case == CASE_ZERO:
        return EulerResult(desc, Fraction(0), case)
    sign = -1 if (m * n // 2) % 2 else 1
    value = sign * math.comb(desc.l, desc.k) * _dimension_value(desc.d)
    return EulerResult(desc, value, case)


def chi_sign(m: int, n: int) -> int:
    """0 if m, n both odd, else (-1)^(m n / 2)."""
    SpinGroupDescriptor(m, n)
    if m % 2 and n % 2:
        return 0
    return -1 if (m * n // 2) % 2 else 1


# ---------------------------------------------------------------------------
# Adelic assembly


def _odd_euler_product_exact(m: int, n: int) -> PiExact:
    """prod over odd p of |G(F_p)| p^(-dim G), via zeta/L special values.

    d odd:        prod_{j=1}^{l} zeta(2j) (1 - 2^(-2j))
    d = 0 mod 4:  zeta(l) (1 - 2^(-l)) * prod_{j=1}^{l-1} zeta(2j) (1 - 2^(-2j))
    d = 2 mod 4:  L(psi, l)            * prod_{j=1}^{l-1} zeta(2j) (1 - 2^(-2j))
    """
    d = m + n
    l = d // 2
    out = PiExact(Fraction(1), 0)
    for j in range(1, l):
        out = out * zeta_even_exact(j) * (1 - Fraction(1, 2 ** (2 * j)))
    if d % 2:
        return out * zeta_even_exact(l) * (1 - Fraction(1, 2 ** (2 * l)))
    if d % 4 == 0:
        return out * zeta_even_exact(l // 2) * (1 - Fraction(1, 2 ** l))
    return out * l_psi_exact_odd(l)


def adelic_assembly_exact(m: int, n: int) -> Fraction:
    """chi as (-1)^(mn/2) * 2 C(l,k) * vol(dual)^-1 * 2^(d(d-1)) * Euler product.

    m, n not both odd.  The pi powers cancel identically; if they do not,
    ResidualPiPowerError propagates (an internal invariant violation).
    """
    desc = SpinGroupDescriptor(m, n)
    if m % 2 and n % 2:
        raise ValueError("chi = 0 for m, n both odd; no assembly defined")
    sign = -1 if (m * n // 2) % 2 else 1
    total = (_odd_euler_product_exact(m, n)
             * weyl_ratio(desc)
             * Fraction(2) ** (desc.d * (desc.d - 1))
             / vol_compact_dual(desc.d))
    return sign * total.as_rational()


@lru_cache(maxsize=None)
def _log_prime_sum(d: int, type_exponent: int, prime_bound: int) -> float:
    """sum over odd p <= bound of [dim G * log p - log |G(F_p)|].

    dim G = d(d-1)/2.  The order only depends on d and the plus/minus
    type pattern, keyed here by (n + d/2) mod 2 for even d (0 for odd d),
    so different (m, n) with the same key share the cached sum.
    """
    if d % 2 == 0:
        n = 2 if (2 + d // 2) % 2 == type_exponent else 1
    else:
        n = 1
    desc = SpinGroupDescriptor(d - n, n)
    dim_g = d * (d - 1) // 2
    total = 0.0
    for p in primes_up_to(prime_bound)[1:]:
        total += dim_g * math.log(p) - math.log(spin_order_fp(desc, p))
    return total


def adelic_assembly_float(m: int, n: int, prime_bound: int = 10 ** 5) -> float:
    """Floating-point chi from the genuine Euler product over p <= bound.

    Independent of the zeta/L special values: each odd local factor is
    |Spin(F_p)| / p^dim G via ``spin_order_fp``.  The tail beyond 10^5
    is below 1e-6 relative.  Requires prime_bound >= 100.
    """
    desc = SpinGroupDescriptor(m, n)
    if m % 2 and n % 2:
        return 0.0
    if prime_bound < 100:
        raise ValueError("prime_bound too small to be meaningful")
    d = desc.d
    dual = vol_compact_dual(d)
    log_dual = (math.log(dual.coeff.numerator) - math.log(dual.coeff.denominator)
                + dual.half_pi_power / 2 * math.log(math.pi))
    type_exponent = (n + d // 2) % 2 if d % 2 == 0 else 0
    log_abs = (math.log(2 * math.comb(desc.l, desc.k))
               + d * (d - 1) * math.log(2.0)
               - log_dual
               + _log_prime_sum(d, type_exponent, prime_bound))
    sign = -1.0 if (m * n // 2) % 2 else 1.0
    return sign * math.exp(log_abs)


# ---------------------------------------------------------------------------
# L2 profile


@dataclass(frozen=True)
class L2Profile:
    """Distilled L2-invariants of the congruence subgroup.

    Exactly one of two shapes: delta = 0 gives a single nonzero L2-Betti
    number |chi| in middle degree mn/2 (ns_range empty, ns_value None,
    torsion_sign 0); delta = 1 gives all L2-Betti numbers zero,
    Novikov-Shubin value delta on the middle range, and sign
    (-1)^((mn-1)/2) for the L2-torsion.
    """

    descriptor: SpinGroupDescriptor
    delta: int
    betti_degree: Optional[int]
    betti_value: Fraction
    ns_range: Optional[tuple[int, int]]
    ns_value: Optional[int]
    torsion_sign: int


def l2_profile(m: int, n: int) -> L2Profile:
    desc = SpinGroupDescriptor(m, n)
    delta = desc.delta
    dim_x = desc.dim_x
    if delta == 0:
        return L2Profile(
            descriptor=desc,
            delta=0,
            betti_degree=dim_x // 2,
            betti_value=abs(chi_closed(m, n).value),
            ns_range=None,
            ns_value=None,
            torsion_sign=0,
        )
    return L2Profile(
        descriptor=desc,
        delta=1,
        betti_degree=None,
        betti_value=Fraction(0),
        ns_range=((dim_x - delta) // 2, (dim_x + delta) // 2 - 1),
        ns_value=delta,
        torsion_sign=-1 if ((dim_x - 1) // 2) % 2 else 1,
    )


# ---------------------------------------------------------------------------
# Multiplicativity combinators and S-arithmetic signs


def chi_free_product(a: Fraction | int, b: Fraction | int) -> Fraction:
    """chi(G * H) = chi(G) + chi(H) - 1."""
    return Fraction(a) + Fraction(b) - 1


def chi_direct_product(a: Fraction | int, b: Fraction | int) -> Fraction:
    """chi(G x H) = chi(G) chi(H)."""
    return Fraction(a) * Fraction(b)


def rho_product(chi: Fraction | int, rho: Fraction | int) -> Fraction:
    """chi(G x H) = chi(G) * rho for rho an arbitrary rational weight."""
    return Fraction(chi) * Fraction(rho)


@dataclass(frozen=True)
class SArithmeticSign:
    descriptor: SpinGroupDescriptor
    primes: tuple[int, ...]
    witt_by_place: dict
    rank_s: int
    rank_rational: int
    sign: int
    ep_vanishes: bool


def s_arithmetic_sign(m: int, n: int, primes: Iterable[int]) -> SArithmeticSign:
    """Sign of the Euler characteristic of the S-arithmetic extension.

    S-rank is the sum over the archimedean place and p in S of the local
    Witt indices of <1^m, (-1)^n>.  The sign is (-1)^(dim X / 2) times
    (-1)^(Q-rank) when dim X = m n is even; odd dim X forces chi = 0
    (reported as sign 0 with ep_vanishes set).
    """
    desc = SpinGroupDescriptor(m, n)
    ps = tuple(sorted(set(primes)))
    form = desc.form()
    witt = {"oo": witt_index(form, None)}
    for p in ps:
        witt[str(p)] = witt_index(form, Place(p))
    rank_s = sum(witt.values())
    rank_q = witt_index_rational(form)
    if desc.dim_x % 2:
        return SArithmeticSign(desc, ps, witt, rank_s, rank_q, 0, True)
    sign = (-1 if (desc.dim_x // 2) % 2 else 1) * (-1 if rank_q % 2 else 1)
    return SArithmeticSign(desc, ps, witt, rank_s, rank_q, sign, False)
