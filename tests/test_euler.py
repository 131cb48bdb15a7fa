"""Tests for the Euler characteristic of the level-4 congruence subgroup.

The closed formula is pinned to hand-factored frozen values and checked
against the adelic assembly (an independent recomputation from local
volumes, where every power of pi must cancel) on every signature in a
dimension sweep, and against the genuine floating-point Euler product
over primes.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from spinchi.euler import (
    CASE_0MOD4,
    CASE_2MOD4,
    CASE_ODD,
    CASE_ZERO,
    adelic_assembly_exact,
    adelic_assembly_float,
    chi_closed,
    chi_direct_product,
    chi_free_product,
    chi_sign,
    l2_profile,
    r_factor,
    rho_product,
    s_arithmetic_sign,
)
from spinchi.exactq import format_factored, is_prime, zeta_negative_odd


def _odd_product(l: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, l):
        out *= (2 ** (2 * j) - 1) * abs(zeta_negative_odd(j))
    return out


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_chi_frozen_values():
    assert chi_closed(8, 2).value == Fraction(2 ** 89 * 25 * 17)
    assert chi_closed(4, 6).value == Fraction(2 ** 90 * 25 * 17)
    assert chi_closed(2, 1).value == Fraction(-8)
    assert chi_closed(1, 2).value == Fraction(-8)
    assert chi_closed(2, 2).value == Fraction(512)
    assert chi_closed(4, 1).value == Fraction(2 ** 15)
    assert chi_closed(2, 3).value == Fraction(-(2 ** 16))
    assert chi_closed(3, 3).value == 0
    assert chi_closed(5, 5).value == 0


def test_chi_factored_strings():
    assert chi_closed(8, 2).factored == "2^89 * 5^2 * 17"
    assert chi_closed(4, 6).factored == "2^90 * 5^2 * 17"
    assert chi_closed(2, 1).factored == "-2^3"
    assert chi_closed(3, 3).factored == "0"


def test_chi_factored_matches_factoring_the_value():
    # The assembled factorization against factoring the value from scratch.
    for d in range(3, 25):
        for m in range(1, d):
            res = chi_closed(m, d - m)
            assert res.factored == format_factored(res.value), (m, d - m)


def test_chi_factored_multiplies_back(parse_factored):
    primes_seen = set()
    for d in range(3, 51):
        for m in range(1, d):
            res = chi_closed(m, d - m)
            if res.value == 0:
                assert res.factored == "0"
                continue
            sign, num, den = parse_factored(res.factored)
            value = Fraction(sign)
            for p, e in num:
                value *= p ** e
            for p, e in den:
                value /= p ** e
            assert value == res.value, (m, d - m)
            for part in (num, den):
                primes = [p for p, _ in part]
                assert primes == sorted(set(primes)), (m, d - m)
                primes_seen.update(primes)
            assert not {p for p, _ in num} & {p for p, _ in den}
    assert all(is_prime(p) for p in primes_seen)


def test_chi_case_tags():
    assert chi_closed(8, 2).case == CASE_2MOD4
    assert chi_closed(4, 6).case == CASE_2MOD4
    assert chi_closed(2, 2).case == CASE_0MOD4
    assert chi_closed(2, 1).case == CASE_ODD
    assert chi_closed(3, 3).case == CASE_ZERO


def test_r_factor_frozen_values():
    assert r_factor(10) == Fraction(2 ** 100 * 5)
    assert r_factor(8) == Fraction(2 ** 61)
    assert r_factor(5) == Fraction(2 ** 17)
    assert r_factor(4) == Fraction(2 ** 10)
    assert r_factor(3) == Fraction(8)
    with pytest.raises(ValueError):
        r_factor(2)


def test_odd_product_frozen_value():
    assert _odd_product(5) == Fraction(17, 2 ** 11)


def test_chi_decomposes_through_r_factor():
    # chi(8,2) = + R(10) * C(5,4) * prod_{j<=4} (2^2j - 1)|zeta(1-2j)|
    assert chi_closed(8, 2).value == r_factor(10) * 5 * _odd_product(5)
    assert chi_closed(4, 6).value == r_factor(10) * 10 * _odd_product(5)
    assert chi_closed(2, 1).value == -r_factor(3) * 1 * _odd_product(1)


def test_chi_sign_values():
    assert chi_sign(2, 1) == -1
    assert chi_sign(2, 2) == 1
    assert chi_sign(8, 2) == 1
    assert chi_sign(2, 3) == -1
    assert chi_sign(3, 3) == 0
    assert chi_sign(6, 2) == 1   # mn/2 even whenever m, n are both even
    assert chi_sign(6, 1) == -1  # mn/2 = 3


def test_chi_symmetry_and_sign_consistency():
    for m in range(1, 9):
        for n in range(1, 9):
            if m + n < 3 or m + n > 11:
                continue
            res = chi_closed(m, n)
            assert res.value == chi_closed(n, m).value, (m, n)
            assert res.sign == chi_sign(m, n)
            if m % 2 and n % 2:
                assert res.value == 0
            else:
                assert res.value != 0


# ---------------------------------------------------------------------------
# adelic assembly
# ---------------------------------------------------------------------------

def test_adelic_assembly_matches_closed_formula():
    for d in range(3, 11):
        for m in range(1, d):
            n = d - m
            if m % 2 and n % 2:
                continue
            assert adelic_assembly_exact(m, n) == chi_closed(m, n).value, (m, n)


def test_adelic_assembly_rejects_both_odd():
    with pytest.raises(ValueError):
        adelic_assembly_exact(3, 3)


def test_adelic_assembly_float_tracks_exact():
    for m, n in ((2, 1), (2, 2), (4, 2), (4, 1)):
        exact = float(chi_closed(m, n).value)
        approx = adelic_assembly_float(m, n, prime_bound=10 ** 4)
        assert abs(approx - exact) <= 1e-3 * abs(exact), (m, n)


def test_adelic_assembly_float_edge_cases():
    assert adelic_assembly_float(3, 3) == 0.0
    with pytest.raises(ValueError):
        adelic_assembly_float(2, 1, prime_bound=50)


# ---------------------------------------------------------------------------
# L2 profile
# ---------------------------------------------------------------------------

def test_l2_profile_single_betti_case():
    prof = l2_profile(8, 2)
    assert prof.delta == 0
    assert prof.betti_degree == 8
    assert prof.betti_value == Fraction(2 ** 89 * 25 * 17)
    assert prof.ns_range is None and prof.ns_value is None
    assert prof.torsion_sign == 0


def test_l2_profile_vanishing_case():
    prof = l2_profile(5, 5)
    assert prof.delta == 1
    assert prof.betti_degree is None
    assert prof.betti_value == 0
    assert prof.ns_range == (12, 12)
    assert prof.ns_value == 1
    assert prof.torsion_sign == 1
    prof2 = l2_profile(1, 3)
    assert prof2.ns_range == (1, 1)
    assert prof2.torsion_sign == -1


def test_l2_profile_consistency_sweep():
    for m in range(1, 8):
        for n in range(1, 8):
            if m + n < 3:
                continue
            prof = l2_profile(m, n)
            chi = chi_closed(m, n)
            assert prof.delta == prof.descriptor.delta
            if prof.delta == 0:
                # the lone middle Betti number must reproduce chi with
                # the alternating sign of its degree
                assert prof.betti_value == abs(chi.value)
                sign = -1 if prof.betti_degree % 2 else 1
                assert sign * prof.betti_value == chi.value
            else:
                assert chi.value == 0
                assert prof.betti_value == 0
                lo, hi = prof.ns_range
                assert lo == hi == (m * n - 1) // 2
                assert prof.torsion_sign == (-1 if ((m * n - 1) // 2) % 2 else 1)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_product_combinators():
    assert chi_free_product(-8, -8) == -17
    assert chi_free_product(1, 1) == 1
    assert chi_direct_product(-8, 512) == -4096
    assert chi_direct_product(chi_closed(2, 1).value, 0) == 0
    assert rho_product(-8, Fraction(3, 2)) == -12
    assert rho_product(chi_closed(2, 2).value, Fraction(1, 512)) == 1


# ---------------------------------------------------------------------------
# S-arithmetic signs
# ---------------------------------------------------------------------------

def test_s_arithmetic_sign_frozen_cases():
    res = s_arithmetic_sign(4, 1, [2])
    assert res.witt_by_place == {"oo": 1, "2": 1}
    assert res.rank_s == 2
    assert res.rank_rational == 1
    assert res.sign == -1
    assert not res.ep_vanishes

    res2 = s_arithmetic_sign(2, 3, [2])
    assert res2.witt_by_place == {"oo": 2, "2": 2}
    assert res2.rank_s == 4
    assert res2.rank_rational == 2
    assert res2.sign == -1
    assert not res2.ep_vanishes


def test_s_arithmetic_sign_odd_dimension_vanishes():
    res = s_arithmetic_sign(3, 3, [2, 5])
    assert res.sign == 0
    assert res.ep_vanishes


def test_s_arithmetic_sign_empty_s_matches_chi_sign_for_even_signatures():
    # with S empty and m, n even the formula reproduces the sign of chi
    # (both are +1 there; odd-d signatures genuinely differ, see the
    # (2,1) case where chi < 0 but the rank formula gives +1)
    for m, n in ((2, 2), (4, 2), (6, 2), (8, 2), (4, 6)):
        res = s_arithmetic_sign(m, n, [])
        assert set(res.witt_by_place) == {"oo"}
        assert res.rank_s == res.witt_by_place["oo"]
        assert res.sign == chi_sign(m, n), (m, n)


def test_s_arithmetic_sign_normalizes_primes():
    res = s_arithmetic_sign(4, 1, [3, 2, 2])
    assert res.primes == (2, 3)
    assert set(res.witt_by_place) == {"oo", "2", "3"}
