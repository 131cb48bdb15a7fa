"""Tests for Weyl orders, finite spin group orders, and dual volumes.

The order formulas are checked against ``oracles.so_order_bruteforce``
(a naive count of matrices fixing the form with determinant one) on
every case small enough to enumerate, and against hand-checkable
classical orders.
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from spinchi import exactq, ggroups, qforms
from spinchi.exactq import PiExact, gamma_half
from spinchi.ggroups import (
    SpinGroupDescriptor,
    spin_order_fp,
    vol_compact_dual,
    weyl_ratio,
)
from spinchi.oracles import so_order_bruteforce, weyl_order
from spinchi.qforms import DiagonalForm


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_invariants():
    desc = SpinGroupDescriptor(8, 2)
    assert desc.d == 10 and desc.l == 5 and desc.k == 4 and desc.k2 == 1
    assert desc.dim_x == 16
    assert desc.delta == 0
    assert desc.form() == DiagonalForm.pm(8, 2)
    odd = SpinGroupDescriptor(5, 5)
    assert odd.delta == 1 and odd.dim_x == 25
    assert SpinGroupDescriptor(2, 1).delta == 0  # d odd, one factor odd
    assert SpinGroupDescriptor(3, 3).delta == 1


def test_descriptor_delta_is_both_odd_flag():
    for m in range(1, 9):
        for n in range(1, 9):
            if m + n < 3:
                continue
            desc = SpinGroupDescriptor(m, n)
            assert desc.delta == (1 if (m % 2 and n % 2) else 0)
            assert desc.delta in (0, 1)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SpinGroupDescriptor(0, 3)
    with pytest.raises(ValueError):
        SpinGroupDescriptor(1, 1)


# ---------------------------------------------------------------------------
# Weyl groups
# ---------------------------------------------------------------------------

def test_weyl_orders():
    assert weyl_order("B", 1) == 2
    assert weyl_order("B", 2) == 8
    assert weyl_order("B", 5) == 2 ** 5 * 120
    assert weyl_order("D", 1) == 1
    assert weyl_order("D", 4) == 192
    with pytest.raises(ValueError):
        weyl_order("A", 2)
    with pytest.raises(ValueError):
        weyl_order("B", 0)


def test_weyl_ratio_examples():
    assert weyl_ratio(SpinGroupDescriptor(8, 2)) == 10
    assert weyl_ratio(SpinGroupDescriptor(4, 6)) == 20
    assert weyl_ratio(SpinGroupDescriptor(2, 2)) == 4
    assert weyl_ratio(SpinGroupDescriptor(2, 1)) == 2


def test_weyl_ratio_matches_weyl_order_quotients():
    # For even m, n the ratio 2*C(l,k) equals |W(B_l or D_l)| divided by
    # |W_k| * |W_k2| with the right series on each factor.
    for m in range(2, 9, 2):
        for n in range(2, 9, 2):
            desc = SpinGroupDescriptor(m, n)
            l, k, k2 = desc.l, desc.k, desc.k2
            if desc.d % 2:
                continue
            top = weyl_order("D", l)
            bottom = weyl_order("D", k) if k else 1
            bottom *= weyl_order("D", k2) if k2 else 1
            # D_l against D_k x D_k2 contributes 2^(l-1)/(2^(k-1) 2^(k2-1))
            # = 2 * 2^(l-k-k2) ... with l = k + k2 this is exactly 2 C(l,k)
            assert Fraction(top, bottom) == Fraction(2) * math.comb(l, k)
            assert weyl_ratio(desc) == 2 * math.comb(l, k)
    # odd d: B_l against B_k x B_k2 with l = k + k2
    for m, n in ((2, 1), (4, 1), (2, 3), (4, 3), (6, 1)):
        desc = SpinGroupDescriptor(m, n)
        top = weyl_order("B", desc.l)
        bottom = (weyl_order("B", desc.k) if desc.k else 1) \
            * (weyl_order("B", desc.k2) if desc.k2 else 1)
        assert Fraction(top, bottom) == 2 * math.comb(desc.l, desc.k) \
            * Fraction(2) ** (desc.l - desc.k - desc.k2 - 1)
        assert weyl_ratio(desc) == 2 * math.comb(desc.l, desc.k)


# ---------------------------------------------------------------------------
# orders over F_p
# ---------------------------------------------------------------------------

def test_spin_order_classical_values():
    # |SO(3)(F_p)| = p(p^2-1), |SO(5)(F_p)| = p^4 (p^2-1)(p^4-1)
    assert spin_order_fp(SpinGroupDescriptor(2, 1), 3) == 24
    assert spin_order_fp(SpinGroupDescriptor(2, 1), 5) == 120
    assert spin_order_fp(SpinGroupDescriptor(2, 1), 7) == 336
    assert spin_order_fp(SpinGroupDescriptor(4, 1), 3) == 51840
    assert spin_order_fp(SpinGroupDescriptor(2, 2), 3) == 576
    assert spin_order_fp(SpinGroupDescriptor(3, 1), 3) == 720
    # b(3,1) is minus type at p = 3 but plus type at p = 5, where it
    # has the same order as the split b(2,2)
    assert spin_order_fp(SpinGroupDescriptor(3, 1), 5) == 14400
    assert spin_order_fp(SpinGroupDescriptor(2, 2), 5) == 14400


def test_spin_order_type_dependence():
    # d = 2 mod 4: the type is psi(p), so the order depends on p mod 4
    desc = SpinGroupDescriptor(8, 2)
    l = 5
    for p in (3, 5, 7, 13):
        t = 1 if p % 4 == 1 else -1
        expected = p ** (l * (l - 1)) * (p ** l - t)
        for j in range(1, l):
            expected *= p ** (2 * j) - 1
        assert spin_order_fp(desc, p) == expected
    # d = 0 mod 4 with n even: always plus type
    desc2 = SpinGroupDescriptor(6, 2)
    for p in (3, 5, 7):
        expected = p ** 12 * (p ** 4 - 1)
        for j in range(1, 4):
            expected *= p ** (2 * j) - 1
        assert spin_order_fp(desc2, p) == expected


def test_spin_order_tests_primality_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return exactq.is_prime(n)

    monkeypatch.setattr(ggroups, "is_prime", counting_is_prime)
    monkeypatch.setattr(qforms, "is_prime", counting_is_prime)
    for m, n in ((8, 2), (6, 2), (3, 1), (4, 1)):
        for p in (3, 5, 7, 13):
            calls.clear()
            spin_order_fp(SpinGroupDescriptor(m, n), p)
            assert calls == [p], (m, n, p)


def test_spin_order_rejects_bad_primes():
    with pytest.raises(ValueError):
        spin_order_fp(SpinGroupDescriptor(2, 1), 2)
    with pytest.raises(ValueError):
        spin_order_fp(SpinGroupDescriptor(2, 1), 9)


def test_spin_order_matches_bruteforce():
    cases = [
        (SpinGroupDescriptor(2, 1), 3),
        (SpinGroupDescriptor(2, 1), 5),
        (SpinGroupDescriptor(2, 1), 7),
        (SpinGroupDescriptor(1, 2), 3),
        (SpinGroupDescriptor(2, 2), 3),
        (SpinGroupDescriptor(3, 1), 3),
        (SpinGroupDescriptor(1, 3), 3),
    ]
    for desc, p in cases:
        assert spin_order_fp(desc, p) == so_order_bruteforce(desc.form(), p), \
            (desc, p)


def test_bruteforce_so_1_1():
    # SO(1,1)(F_3) is the split torus of order p - 1 = 2
    assert so_order_bruteforce(DiagonalForm.pm(1, 1), 3) == 2
    # definite plane: SO(2)(F_3) is the nonsplit torus of order p + 1 = 4
    assert so_order_bruteforce(DiagonalForm.pm(2, 0), 3) == 4


def test_bruteforce_guard_rails():
    with pytest.raises(ValueError):
        so_order_bruteforce(DiagonalForm.pm(3, 2), 7)  # 7^25 over budget
    with pytest.raises(ValueError):
        so_order_bruteforce(DiagonalForm((Fraction(3), Fraction(1))), 3)
    with pytest.raises(ValueError):
        so_order_bruteforce(DiagonalForm.pm(2, 1), 6)


def test_order_euler_factor_identity_dim10():
    # p^45 / |G(F_p)| for d = 10 equals the Euler factor product
    # (1 - psi(p) p^-5)^(-1) prod_{j=1}^{4} (1 - p^-2j)^(-1), exactly.
    desc = SpinGroupDescriptor(8, 2)
    for p in (3, 5, 7, 11, 13):
        lhs = Fraction(p ** 45, spin_order_fp(desc, p))
        psi = 1 if p % 4 == 1 else -1
        rhs = 1 / (1 - Fraction(psi, p ** 5))
        for j in range(1, 5):
            rhs *= 1 / (1 - Fraction(1, p ** (2 * j)))
        assert lhs == rhs


def test_order_euler_factor_identity_odd_d():
    # p^(dim G) / |G(F_p)| = prod_{j=1}^{l} (1 - p^-2j)^(-1) for d = 2l+1
    for desc in (SpinGroupDescriptor(2, 1), SpinGroupDescriptor(4, 1),
                 SpinGroupDescriptor(4, 3)):
        l = desc.l
        dim_g = desc.d * (desc.d - 1) // 2
        for p in (3, 5, 11):
            lhs = Fraction(p ** dim_g, spin_order_fp(desc, p))
            rhs = Fraction(1)
            for j in range(1, l + 1):
                rhs *= 1 / (1 - Fraction(1, p ** (2 * j)))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# compact dual volumes
# ---------------------------------------------------------------------------

def test_vol_compact_dual_small_cases():
    # d = 2: 2^((6-4)/2) * pi / Gamma(1) = 2 pi
    assert vol_compact_dual(2) == PiExact(Fraction(2), 2)
    # d = 3: 2^0 * pi/Gamma(1) * pi^(3/2)/Gamma(3/2) = 2 pi^(5/2) / sqrt(pi) x ...
    expected3 = PiExact(Fraction(1), 0)
    for j in (2, 3):
        expected3 = expected3 * PiExact(Fraction(1), j) / gamma_half(j)
    assert vol_compact_dual(3) == expected3
    assert vol_compact_dual(3) == PiExact(Fraction(2), 4)  # 2 pi^2


def test_vol_compact_dual_power_bookkeeping():
    # total pi half-power is sum_{j=2}^d j minus one per odd j in 3..d
    for d in range(2, 13):
        value = vol_compact_dual(d)
        odd_count = sum(1 for j in range(3, d + 1) if j % 2)
        expected_half = sum(range(2, d + 1)) - odd_count
        assert value.half_pi_power == expected_half
        assert value.coeff > 0


def test_vol_compact_dual_rejects_small_d():
    with pytest.raises(ValueError):
        vol_compact_dual(1)
