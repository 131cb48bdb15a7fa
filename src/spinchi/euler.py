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

With the zigzag numbers A_i (``exactq.zigzag``), (2^(2j)-1)|zeta(1-2j)|
= A_(2j-1) / 4^j and |B_{psi,l}| / l = A_(l-1) / 2, so chi is the integer

    chi = (-1)^(mn/2) * C(l, k) * 2^a * A_t * prod_{j=1}^{l-1} A_(2j-1)

with (a, t) = (4l^2 - 4l, l - 1) for even d and (4l^2 - l, d - 2) for
odd d.  ``EulerResult`` is the ledger chi = lead * D(d): lead = sign *
C(l, k) is all of chi's dependence on m at fixed d, and D(d) = 2^a * A_t
* prod A_(2j-1) is cached per d with its value and its factorization
(each A_i factored once), so the full value is never factored.

``adelic_assembly_exact`` recomputes chi from first principles as a
product of local volumes: the normalized compact-dual volume vol(d) =
2^((3d-d^2)/2) prod_{j=2}^{d} pi^(j/2) / Gamma(j/2), the 2-adic
congruence subgroup volume 2^(-d(d-1)), and the odd-prime Euler product
of zeta/L special values, one factor per degree e of ``order_degrees``.
It is held as a ledger, one rational entry per degree: the Euler factor
of degree e over its share of 1/vol.  By Legendre duplication a pair
degree e = 2i takes vol's factors j = 2i, 2i + 1 and leaves A_(2i-1) /
16^i, and the typed degree e = l of even d = 2l takes j = 2l alone and
leaves A_(l-1) / 2^(l+1), so chi = sign * 2 C(l, k) * 2^((3d^2-5d)/2) *
prod entries.  An entry left with a power of pi raises
``ResidualPiPowerError`` naming its degree: a bug, not an input error.
Entries are cached per degree, and the pair entries' products per count
as an integer over a power of 2, extended from the last one built.
``adelic_assembly_float`` takes the factor 2^(d(d-1)) / vol whole, and
walks the actual odd-prime Euler product up to a bound in log space: one
sum per degree of the group order, stopping where no later term can
change the float, cached with the primes for the last few bounds.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .exactq import (
    FactoredInteger,
    PiExact,
    Value,
    gamma_half,
    l_psi_exact_odd,
    primes_up_to,
    zeta_even_exact,
    zigzag,
)
from .ggroups import (SpinGroupDescriptor, check_signature, order_degrees,
                      vol_compact_dual, weyl_ratio)
from .qforms import witt_index

CASE_ZERO = "zero"      # m, n both odd
CASE_0MOD4 = "0mod4"
CASE_2MOD4 = "2mod4"
CASE_ODD = "odd"


@lru_cache(maxsize=None)
def _zigzag_factored(i: int) -> FactoredInteger:
    return FactoredInteger.of(zigzag(i))


class _DimensionPart:
    """D(d) = 2^a * prod A_i over i in (t, 1, 3, ..., 2l-3), one per d.

    Value and factorization are built on first use (A_i factored once each).
    """

    def __init__(self, d: int) -> None:
        l = d // 2
        if d % 2:
            self.case, self.a, t = CASE_ODD, 4 * l * l - l, d - 2
        else:
            self.case = CASE_0MOD4 if d % 4 == 0 else CASE_2MOD4
            self.a, t = 4 * l * l - 4 * l, l - 1
        self.indices = (t, *range(1, 2 * l - 1, 2))

    @cached_property
    def value(self) -> int:
        return 2 ** self.a * math.prod(zigzag(i) for i in self.indices)

    @cached_property
    def factored(self) -> FactoredInteger:
        return math.prod((_zigzag_factored(i) for i in self.indices),
                         start=FactoredInteger(1, ((2, self.a),)))


_dimension_part = lru_cache(maxsize=None)(_DimensionPart)


class EulerResult(Value):
    """The ledger chi = lead * D(d): only lead = sign * C(l, k) depends on m."""

    __slots__ = _fields = ("descriptor", "sign", "lead")

    def __init__(self, descriptor: SpinGroupDescriptor, sign: int, lead: int) -> None:
        object.__setattr__(self, "descriptor", descriptor)  # hot: one per chi_closed
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "lead", lead)

    @property
    def dimension(self) -> _DimensionPart:
        return _dimension_part(self.descriptor.d)

    @property
    def value(self) -> int:
        return self.lead * self.dimension.value if self.lead else 0

    @property
    def case(self) -> str:
        return self.dimension.case if self.lead else CASE_ZERO

    @property
    def factored(self) -> str:
        """The value as a signed prime power product, e.g. "2^89 * 5^2 * 17"."""
        return str(FactoredInteger.of(self.lead) * self.dimension.factored) if self.lead else "0"


def r_factor(d: int) -> int:
    """The dimension-only factor R(d) = 2^(a + l(l-1)) A_t, d >= 3."""
    if d < 3:
        raise ValueError("need d >= 3")
    l = d // 2
    part = _dimension_part(d)
    return 2 ** (part.a + l * (l - 1)) * zigzag(part.indices[0])


def _sign(m: int, n: int) -> int:  # chi_sign once SpinGroupDescriptor(m, n) has checked (m, n)
    return 0 if m % 2 and n % 2 else (-1 if (m * n // 2) % 2 else 1)


def chi_sign(m: int, n: int) -> int:
    """0 if m, n both odd, else (-1)^(m n / 2)."""
    check_signature(m, n)
    return _sign(m, n)


def chi_closed(m: int, n: int) -> EulerResult:
    """chi of the level-4 congruence subgroup of Spin(m, n), exactly."""
    desc = SpinGroupDescriptor(m, n)
    sign = _sign(m, n)
    return EulerResult(desc, sign, sign * math.comb(desc.l, desc.k))


# ---------------------------------------------------------------------------
# Adelic assembly


@lru_cache(maxsize=1024)
def _ledger_entry(e: int, twisted: bool, lone: bool) -> tuple[int, int]:
    """(a, s): degree e's entry a / 2^s, lone for the typed degree of even d."""
    entry = l_psi_exact_odd(e) if twisted else zeta_even_exact(e // 2) * (1 - Fraction(1, 2 ** e))
    for j in (2 * e,) if lone else (e, e + 1):
        entry = entry * gamma_half(j) / PiExact(Fraction(1), j)
    entry = entry.as_rational(f"degree {e}")
    s = entry.denominator.bit_length() - 1
    if entry.denominator != 1 << s:
        raise ArithmeticError(f"degree {e} leaves {entry}, not an integer over a power of 2")
    return entry.numerator, s


_prefix_top = 0  # last count built, a miss extends it if shorter; any value gives the same a, s


@lru_cache(maxsize=256)
def _prefix(count: int) -> tuple[int, int]:
    """(a, s): the product a / 2^s of the pair entries of degrees 2, ..., 2 count."""
    global _prefix_top
    start = _prefix_top if _prefix_top < count else 0
    num, shift = _prefix(start) if start else (1, 0)
    for i in range(start + 1, count + 1):
        a, s = _ledger_entry(2 * i, False, False)
        num, shift = num * a, shift + s
    _prefix_top = count
    return num, shift


def adelic_ledger(m: int, n: int) -> tuple[tuple[int, bool, Fraction], ...]:
    """(degree e, twisted, entry) per degree of ``order_degrees(m, n)``.  m, n not both odd."""
    if not chi_sign(m, n):
        raise ValueError("chi = 0 for m, n both odd; no assembly defined")
    degrees = order_degrees(m, n)[1]
    typed = len(degrees) - 1 if (m + n) % 2 == 0 else -1  # the lone degree of even d
    entries = [_ledger_entry(e, twisted, i == typed) for i, (e, twisted) in enumerate(degrees)]
    return tuple((e, tw, Fraction(a, 1 << s)) for (e, tw), (a, s) in zip(degrees, entries))


def adelic_assembly_exact(m: int, n: int) -> Fraction:
    """chi as (-1)^(mn/2) * 2 C(l,k) * vol(dual)^-1 * 2^(d(d-1)) * Euler product,
    through the ``adelic_ledger`` entries.  m, n not both odd."""
    desc = SpinGroupDescriptor(m, n)
    sign = _sign(m, n)
    if not sign:
        raise ValueError("chi = 0 for m, n both odd; no assembly defined")
    d, l = desc.d, desc.l
    num, shift = _prefix(l - 1 + d % 2)
    if d % 2 == 0:
        a, s = _ledger_entry(*order_degrees(m, n)[1][-1], True)
        num, shift = num * a, shift + s
    value, exp = sign * weyl_ratio(desc).numerator * num, (3 * d * d - 5 * d) // 2 - shift
    return Fraction(value << exp) if exp >= 0 else Fraction(value, 1 << -exp)


@lru_cache(maxsize=256)
def _dual_factor(d: int) -> PiExact:
    """2^(d(d-1)) / vol(compact dual): the float's local volumes of d alone."""
    return Fraction(2) ** (d * (d - 1)) / vol_compact_dual(d)


@lru_cache(maxsize=4)
def _odd_primes(bound: int) -> tuple[int, ...]:
    """The odd primes <= bound, sieved once per bound (the last four bounds)."""
    return tuple(primes_up_to(bound)[1:])


@lru_cache(maxsize=256)
def _degree_log_sum(e: int, twisted: bool, prime_bound: int) -> float:
    """sum over odd p <= bound of -log(1 - t(p) p^(-e)).

    t(p) = (-1/p) if twisted, else 1.  This is e log p - log(p^e - t(p)),
    the share of one order factor p^e - t(p) (``ggroups.order_degrees``)
    in the log Euler product; every d and type with that factor shares it.
    It stops once x = p^(-e) < ulp(total) / 8: every later |log1p(-t x)|
    is below a quarter ulp, so the sum is the full walk's, bit for bit.
    """
    total = 0.0
    for p in _odd_primes(prime_bound):
        x = p ** -e
        if x < math.ulp(total) / 8:
            break
        t = -1 if twisted and p % 4 == 3 else 1
        total -= math.log1p(-t * x)
    return total


def adelic_assembly_float(m: int, n: int, prime_bound: int = 10 ** 5) -> float:
    """Floating-point chi from the genuine Euler product over odd p <= B.

    Only the odd-prime product differs from the exact assembly: it takes
    p^dim G / |Spin(F_p)| from the order formula p^a prod_e (p^e - t_e(p))
    of ``ggroups.order_degrees``, not from zeta/L values.  The primes
    p > B = prime_bound change log|chi| by at most
    sum_e 1.01 / ((e-1) B^(e-1)) over those degrees e, which is below
    2.03 / B for every d (2.03e-5 at the default bound); the relative
    error is at most expm1 of that.  Requires prime_bound >= 100.
    Raises OverflowError once |chi| exceeds the float range (d >= 27).
    """
    desc = SpinGroupDescriptor(m, n)
    if prime_bound < 100:
        raise ValueError("prime_bound too small to be meaningful")
    sign = _sign(m, n)
    if not sign:
        return 0.0
    factor = weyl_ratio(desc) * _dual_factor(desc.d)
    log_abs = (math.log(factor.coeff.numerator) - math.log(factor.coeff.denominator)
               + factor.half_pi_power / 2 * math.log(math.pi)
               + sum(_degree_log_sum(e, twisted, prime_bound)
                     for e, twisted in order_degrees(m, n)[1]))
    return sign * math.exp(log_abs)


# ---------------------------------------------------------------------------
# L2 profile


class L2Profile(Value):
    """Distilled L2-invariants of the congruence subgroup.

    Exactly one of two shapes: delta = 0 gives a single nonzero L2-Betti
    number |chi| in middle degree mn/2 (ns_range empty, ns_value None,
    torsion_sign 0); delta = 1 gives all L2-Betti numbers zero,
    Novikov-Shubin value delta on the middle range, and sign
    (-1)^((mn-1)/2) for the L2-torsion.
    """

    __slots__ = _fields = ("descriptor", "delta", "betti_degree", "betti_value",
                           "ns_range", "ns_value", "torsion_sign")
    descriptor: SpinGroupDescriptor
    delta: int
    betti_degree: Optional[int]
    betti_value: int
    ns_range: Optional[tuple[int, int]]
    ns_value: Optional[int]
    torsion_sign: int

    @classmethod
    def of(cls, res: EulerResult) -> "L2Profile":
        """The profile of the group whose chi is ``res``."""
        desc = res.descriptor
        delta, dim_x = desc.delta, desc.dim_x
        if delta == 0:
            return cls(desc, 0, dim_x // 2, abs(res.value), None, None, 0)
        return cls(desc, 1, None, 0, ((dim_x - delta) // 2, (dim_x + delta) // 2 - 1),
                   delta, -1 if ((dim_x - 1) // 2) % 2 else 1)


def l2_profile(m: int, n: int) -> L2Profile:
    return L2Profile.of(chi_closed(m, n))


# ---------------------------------------------------------------------------
# Multiplicativity combinators and S-arithmetic signs


def chi_free_product(a: Fraction | int, b: Fraction | int) -> Fraction:
    """chi(G * H) = chi(G) + chi(H) - 1."""
    return Fraction(a) + Fraction(b) - 1


def chi_direct_product(a: Fraction | int, b: Fraction | int) -> Fraction:
    """chi(G x H) = chi(G) chi(H); as ``rho_product(chi, rho)``, chi(G) * rho
    for rho an arbitrary rational weight."""
    return Fraction(a) * Fraction(b)


rho_product = chi_direct_product


class SArithmeticSign(Value):
    __slots__ = _fields = ("descriptor", "primes", "witt_by_place", "rank_s",
                           "rank_rational", "sign", "ep_vanishes")
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
    rank_q = min(m, n)  # <1, -1> is a hyperbolic plane, the rest is definite
    witt = {"oo": rank_q}
    for p in ps:
        witt[str(p)] = witt_index(form, p)
    rank_s = sum(witt.values())
    if desc.dim_x % 2:
        return SArithmeticSign(desc, ps, witt, rank_s, rank_q, 0, True)
    sign = (-1 if (desc.dim_x // 2) % 2 else 1) * (-1 if rank_q % 2 else 1)
    return SArithmeticSign(desc, ps, witt, rank_s, rank_q, sign, False)
