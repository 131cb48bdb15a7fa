"""Group-theoretic data for Spin(m, n): Weyl ratios, finite orders, volumes.

``spin_order_fp`` evaluates the classical order formulas for the F_p
points (p odd, d = m + n >= 3, where Spin -> SO is onto with kernel and
cokernel of equal size, so |Spin(F_p)| = |SO(F_p)|):

  d = 2l + 1:  p^(l^2)  * prod_{j=1}^{l} (p^(2j) - 1)
  d = 2l:      p^(l(l-1)) * (p^l - t) * prod_{j=1}^{l-1} (p^(2j) - 1)

with t = +1 for plus type and t = -1 for minus type (``qforms.fp_type``).
``order_degrees(m, n)`` holds this degree list with the type resolved,
and ``spin_order_fp`` and both Euler products in ``euler`` read it.

``oracles.so_order_bruteforce`` checks these formulas by enumeration, and
``oracles.weyl_order`` the Weyl ratio.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exactq import PiExact, Value, gamma_half, is_prime, running
from .qforms import DiagonalForm, fp_type_twisted


def check_signature(m: int, n: int) -> None:
    """Raise ValueError unless m, n >= 1 and m + n >= 3."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if m + n < 3:
        raise ValueError("need m + n >= 3")


class SpinGroupDescriptor(Value):
    """Spin(m, n) with m, n >= 1 and d = m + n >= 3."""

    __slots__ = _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        check_signature(m, n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def l(self) -> int:
        return self.d // 2

    @property
    def k(self) -> int:
        return self.m // 2

    @property
    def k2(self) -> int:
        return self.n // 2

    @property
    def dim_x(self) -> int:
        """Dimension of the associated symmetric space, m * n."""
        return self.m * self.n

    @property
    def delta(self) -> int:
        """l - k - k2: 1 when m, n are both odd, else 0."""
        return self.l - self.k - self.k2

    def form(self) -> DiagonalForm:
        return DiagonalForm.pm(self.m, self.n)


def weyl_ratio(desc: SpinGroupDescriptor) -> Fraction:
    """|W(compact dual)| / |W(maximal compact)| = 2 * C(l, k).

    For m, n not both odd this equals the quotient of the compact-dual
    Weyl order by that of W(B/D_k) x W(B/D_k2); the binomial form is the
    source of truth and is what gets used in the Euler characteristic.
    """
    return Fraction(2 * math.comb(desc.l, desc.k))


def order_degrees(m: int, n: int) -> tuple[int, tuple[tuple[int, bool], ...]]:
    """(a, ((e, twisted), ...)) with |Spin(F_p)| = p^a prod_e (p^e - t_e(p)).

    t_e(p) = (-1/p) where twisted, else 1: only the typed degree e = l of
    even d = 2l, when ``fp_type_twisted(m, n)``.  a + sum e = d(d-1)/2.
    """
    l, odd = divmod(m + n, 2)
    if odd:
        return l * l, tuple((2 * j, False) for j in range(1, l + 1))
    return l * (l - 1), (*((2 * j, False) for j in range(1, l)),
                         (l, fp_type_twisted(m, n)))


def spin_order_fp(desc: SpinGroupDescriptor, p: int) -> int:
    """|Spin(m, n)(F_p)| for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    a, degrees = order_degrees(desc.m, desc.n)  # t = (-1/p) where twisted
    return p ** a * math.prod(p ** e - (-1 if twisted and p % 4 == 3 else 1)
                              for e, twisted in degrees)


@running(PiExact(Fraction(2), 2), 2, 64)
def vol_compact_dual(vol: PiExact, d: int) -> PiExact:
    """Normalized volume 2^((3d - d^2)/2) prod_{j=2}^{d} pi^(j/2) / Gamma(j/2)
    of the compact dual group for dimension d, a rational times a half-integer
    power of pi: vol(2) = 2 pi, vol(d) = vol(d - 1) 2^(2-d) pi^(d/2) / Gamma(d/2)."""
    return vol * PiExact(Fraction(2) ** (2 - d), d) / gamma_half(d)
