"""Tests for the Euler characteristic of the level-4 congruence subgroup.

The closed formula is pinned to hand-factored frozen values and checked
against the adelic assembly (an independent recomputation from local
volumes, where every power of pi must cancel) on every signature in a
dimension sweep, and against the genuine floating-point Euler product
over primes.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from spinchi import euler, ggroups, oracles
from spinchi.euler import (
    CASE_0MOD4,
    CASE_2MOD4,
    CASE_ODD,
    CASE_ZERO,
    adelic_assembly_exact,
    adelic_assembly_float,
    adelic_ledger,
    chi_closed,
    chi_direct_product,
    chi_free_product,
    chi_sign,
    l2_profile,
    r_factor,
    rho_product,
    s_arithmetic_sign,
)
from spinchi.exactq import (
    PiExact,
    ResidualPiPowerError,
    euler_number,
    format_factored,
    is_prime,
    primes_up_to,
    zeta_negative_odd,
    zigzag,
)
from spinchi.ggroups import SpinGroupDescriptor, order_degrees, spin_order_fp, vol_compact_dual


def _odd_product(l: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, l):
        out *= (2 ** (2 * j) - 1) * abs(zeta_negative_odd(j))
    return out


def _r_factor_three_cases(d: int) -> Fraction:
    """R(d) by the three-case table in zeta and Euler-number values."""
    l = d // 2
    if d % 4 == 0:
        return (Fraction(2) ** (5 * l * l - 4 * l) * (2 ** l - 1)
                * abs(zeta_negative_odd(l // 2)))
    if d % 2 == 0:
        # |B_{psi,l}| / l = |E_(l-1)| / 2
        return Fraction(2) ** (5 * l * l - 5 * l) * abs(euler_number(l - 1))
    return (Fraction(2) ** (5 * l * l) * (2 ** (d - 1) - 1)
            * abs(zeta_negative_odd((d - 1) // 2)))


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_chi_frozen_values():
    frozen = {(8, 2): 2 ** 89 * 25 * 17, (4, 6): 2 ** 90 * 25 * 17,
              (2, 1): -8, (1, 2): -8, (2, 2): 512, (4, 1): 2 ** 15,
              (2, 3): -(2 ** 16), (3, 3): 0, (5, 5): 0}
    for (m, n), want in frozen.items():
        value = chi_closed(m, n).value
        assert type(value) is int and value == want, (m, n)


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


def test_zigzag_pieces_match_three_case_formula():
    for d in range(3, 61):
        want = _r_factor_three_cases(d)
        assert r_factor(d) == want, d
        value = chi_closed(d - 2, 2).dimension.value  # the ledger's per-d part
        assert isinstance(value, int), d
        assert value == want * _odd_product(d // 2), d


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


def test_sign_rule_read_from_chi_sign(monkeypatch):
    # chi_sign, chi_closed and both assemblies take their sign from one rule,
    # euler._sign, which chi_sign wraps with the signature check.
    true_signs = {(m, n): chi_sign(m, n) for m, n in ((8, 2), (2, 1), (2, 2), (4, 3))}
    rule = euler._sign
    monkeypatch.setattr(euler, "_sign", lambda m, n: -rule(m, n))
    for (m, n), true_sign in true_signs.items():
        assert chi_sign(m, n) == -true_sign
        assert chi_closed(m, n).value * true_sign < 0
        assert euler.adelic_assembly_exact(m, n) * true_sign < 0
        assert euler.adelic_assembly_float(m, n, 1000) * true_sign < 0


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

def _signatures(d_max: int):
    """Every (m, n) with 3 <= m + n <= d_max, m and n not both odd."""
    return [(m, d - m) for d in range(3, d_max + 1) for m in range(1, d)
            if not (m % 2 and (d - m) % 2)]


def test_adelic_assembly_matches_closed_formula():
    for m, n in _signatures(100):
        assert adelic_assembly_exact(m, n) == chi_closed(m, n).value, (m, n)


def test_ledger_matches_the_direct_referee():
    # The referee takes the whole Euler product over the j-loop volume and
    # makes it rational once; the ledger makes each degree rational alone.
    for m, n in _signatures(40):
        assert adelic_assembly_exact(m, n) == oracles.adelic_assembly_direct(m, n), (m, n)


def test_ledger_rows_are_the_closed_formula_factors():
    # pair degree e = 2i: A_(2i-1) / 16^i; typed degree e = l of d = 2l:
    # A_(l-1) / 2^(l+1); with the sign, 2 C(l, k) and 2^((3d^2 - 5d)/2)
    # their product is chi
    for m, n in _signatures(40):
        d, rows = m + n, adelic_ledger(m, n)
        assert [e for e, _, _ in rows] == [e for e, _ in order_degrees(m, n)[1]]
        for i, (e, _, entry) in enumerate(rows, 1):
            typed = d % 2 == 0 and i == len(rows)
            assert entry == Fraction(zigzag(e - 1), 2 ** (e + 1) if typed else 4 ** e), (m, n, e)
        product = math.prod((entry for _, _, entry in rows), start=Fraction(1))
        lead = chi_sign(m, n) * 2 * math.comb(d // 2, m // 2)
        assert lead * 2 ** ((3 * d * d - 5 * d) // 2) * product == chi_closed(m, n).value


def test_ledger_entries_built_once_and_volume_takes_one_factor_per_d(monkeypatch, cold_ledger):
    # Each entry is built once, whatever the signature that first asks for
    # it, and vol_compact_dual(d) extends vol(d - 1) by one Gamma factor.
    built, factors = [], []
    for name in ("zeta_even_exact", "l_psi_exact_odd"):
        special = getattr(euler, name)
        monkeypatch.setattr(euler, name, lambda x, f=special: built.append(x) or f(x))
    gamma = ggroups.gamma_half
    monkeypatch.setattr(ggroups, "gamma_half", lambda j: factors.append(j) or gamma(j))
    ggroups.vol_compact_dual.cache_clear()
    euler._dual_factor.cache_clear()
    for d in range(3, 41):
        for m in range(1, d):
            if not (m % 2 and (d - m) % 2):
                adelic_assembly_exact(m, d - m)
                adelic_ledger(m, d - m)
                if d <= 24:
                    adelic_assembly_float(m, d - m, 1000)
        vol_compact_dual(d)
    info = euler._ledger_entry.cache_info()
    # 19 pair degrees 2..38 and 19 typed degrees 2..20, each built once
    assert info.misses == info.currsize == len(built) == 38, (info, built)
    assert euler._prefix.cache_info().misses == 19
    assert factors == list(range(3, 41))


def test_cached_ledger_equals_a_cold_recomputation():
    # entries are (a, s) for a / 2^s; rows show them as fractions
    for m, n in _signatures(40):
        rows = adelic_ledger(m, n)
        for i, (e, twisted, entry) in enumerate(rows, 1):
            key = (e, twisted, (m + n) % 2 == 0 and i == len(rows))
            a, s = euler._ledger_entry(*key)
            assert (a, s) == euler._ledger_entry.__wrapped__(*key), (m, n, e)
            assert entry == Fraction(a, 2 ** s), (m, n, e)
    for count in range(20):
        num, shift = euler._prefix(count)
        pairs = (euler._ledger_entry.__wrapped__(2 * i, False, False) for i in range(1, count + 1))
        assert Fraction(num, 2 ** shift) == math.prod((Fraction(a, 2 ** s) for a, s in pairs),
                                                      start=Fraction(1)), count
    for d in range(2, 41):
        assert vol_compact_dual(d) == oracles.vol_compact_dual_direct(d), d


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_cold_calls_recurse_a_bounded_depth(cold_ledger):
    # A cold assembly at d = 300 and a cold vol(300) need 150 prefixes and
    # 298 volume factors; under a recursion limit 60 frames above the
    # caller, neither may recurse once per degree.
    want_chi, want_vol = chi_closed(298, 2).value, oracles.vol_compact_dual_direct(300)
    ggroups.vol_compact_dual.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        assert adelic_assembly_exact(298, 2) == want_chi
        assert vol_compact_dual(300) == want_vol
    finally:
        sys.setrecursionlimit(limit)


def test_float_assembly_caches_stay_bounded_over_a_prime_bound_sweep():
    # A caller sweeping the prime bound B must not grow the per-B caches
    # without limit, and eviction must not change a value.
    caches = (euler._odd_primes, euler._degree_log_sum)
    bounds = range(100, 400)
    warm = {}
    for bound in bounds:
        warm[bound] = adelic_assembly_float(4, 2, bound)
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize <= info.maxsize, (bound, info)
    for bound in bounds:
        for cache in caches:
            cache.cache_clear()
        assert adelic_assembly_float(4, 2, bound) == warm[bound], bound


def test_adelic_assembly_rejects_both_odd():
    with pytest.raises(ValueError):
        adelic_assembly_exact(3, 3)
    with pytest.raises(ValueError):
        adelic_ledger(3, 3)
    with pytest.raises(ValueError):
        oracles.adelic_assembly_direct(3, 3)


def test_adelic_assembly_float_tracks_exact():
    for m, n in ((2, 1), (2, 2), (4, 2), (4, 1)):
        exact = float(chi_closed(m, n).value)
        approx = adelic_assembly_float(m, n, prime_bound=10 ** 4)
        assert abs(approx - exact) <= 1e-3 * abs(exact), (m, n)


def test_adelic_assembly_float_edge_cases():
    assert adelic_assembly_float(3, 3) == 0.0
    with pytest.raises(ValueError):
        adelic_assembly_float(2, 1, prime_bound=50)
    with pytest.raises(ValueError):
        adelic_assembly_float(3, 3, prime_bound=50)


def _tail_bound(d: int, bound: int) -> float:
    _, degrees = order_degrees(d - 1, 1)
    return sum(1.01 / ((e - 1) * bound ** (e - 1)) for e, _ in degrees)


def test_adelic_assembly_float_tail_bound():
    # The primes above the bound shift log|chi| by at most _tail_bound.
    for bound in (100, 1000, 10 ** 5):
        for d in range(3, 13):
            assert _tail_bound(d, bound) <= 2.03 / bound
            for m in range(1, d):
                n = d - m
                if m % 2 and n % 2:
                    continue
                exact = chi_closed(m, n).value
                rel = abs(Fraction(adelic_assembly_float(m, n, bound)) / exact - 1)
                assert rel <= math.expm1(_tail_bound(d, bound)), (m, n, bound)
    # the tail is not below 1e-6 at 10^5: (2,2) has two degree-2 factors
    exact = chi_closed(2, 2).value
    assert abs(Fraction(adelic_assembly_float(2, 2)) / exact - 1) > 1e-6


def test_log_prime_sum_matches_spin_order_fp():
    # spin_order_fp stays the reference for the cached per-degree sums
    bound = 2000
    primes = primes_up_to(bound)[1:]
    for d in range(3, 31):
        dim_g = d * (d - 1) // 2
        # for even d, n = 1 and n = 2 give the two types
        for n in ((1,) if d % 2 else (1, 2)):
            desc = SpinGroupDescriptor(d - n, n)
            want = math.fsum(dim_g * math.log(p) - math.log(spin_order_fp(desc, p))
                             for p in primes)
            got = sum(euler._degree_log_sum(e, twisted, bound)
                      for e, twisted in order_degrees(desc.m, desc.n)[1])
            assert abs(got - want) <= 1e-9 * abs(want), (desc, got, want)


def test_degree_log_sum_equals_the_full_walk():
    # The early stop at ulp(total)/8 leaves every sum bit-identical.
    for bound in (100, 2000, 10 ** 5):
        primes = primes_up_to(bound)[1:]
        for twisted in (False, True):
            for e in range(1, 41):
                total = 0.0
                for p in primes:
                    t = -1 if twisted and p % 4 == 3 else 1
                    total -= math.log1p(-t * p ** -e)
                assert euler._degree_log_sum(e, twisted, bound) == total, (e, twisted, bound)


def test_a_wrong_special_value_is_named_by_its_degree(monkeypatch, cold_ledger):
    # zeta(6) feeds the pair degree 6 first at d = 7: an extra half power
    # of pi is refused there, and a doubled value shows in that row alone.
    zeta = euler.zeta_even_exact
    monkeypatch.setattr(euler, "zeta_even_exact",
                        lambda j: PiExact(zeta(j).coeff, zeta(j).half_pi_power + (j == 3)))
    with pytest.raises(ResidualPiPowerError, match=r"^degree 6 leaves pi\^\(1/2\)$"):
        adelic_assembly_exact(1, 6)
    euler._ledger_entry.cache_clear()
    monkeypatch.setattr(euler, "zeta_even_exact", lambda j: zeta(j) * (2 if j == 3 else 1))
    rows = adelic_ledger(1, 6)
    assert [entry for _, _, entry in rows] == [Fraction(1, 16), Fraction(1, 128), Fraction(1, 128)]
    assert adelic_assembly_exact(1, 6) == 2 * chi_closed(1, 6).value


def test_only_an_odd_typed_degree_is_twisted():
    # _ledger_entry reads zeta(e) at e // 2 for every untwisted
    # degree and L(psi, e) for a twisted one.  Even d with chi != 0 forces
    # m, n even, so twisted <=> n + l odd <=> l odd.
    for d in range(3, 41):
        for m in range(1, d):
            n = d - m
            if m % 2 and n % 2:
                continue
            for e, twisted in order_degrees(m, n)[1]:
                assert twisted == (e % 2 == 1), (m, n, e)


def test_fp_type_is_read_from_order_degrees_alone(monkeypatch):
    # Flipping the type in ggroups must reach spin_order_fp and both
    # assemblies: none of them may decide the twist on its own.
    desc = SpinGroupDescriptor(8, 2)
    before = spin_order_fp(desc, 3)
    chi = chi_closed(8, 2).value
    resolved = ggroups.fp_type_twisted
    monkeypatch.setattr(ggroups, "fp_type_twisted", lambda m, n: not resolved(m, n))
    assert spin_order_fp(desc, 3) != before
    assert abs(adelic_assembly_float(8, 2) - chi) > 1e-3 * abs(chi)
    try:
        assert adelic_assembly_exact(8, 2) != chi
    except ResidualPiPowerError:
        pass


def test_one_signature_check_per_call(monkeypatch):
    # SpinGroupDescriptor checks (m, n); the sign rule does not check again.
    checked = []
    check = ggroups.check_signature

    def counting(m, n):
        checked.append((m, n))
        check(m, n)

    monkeypatch.setattr(ggroups, "check_signature", counting)
    monkeypatch.setattr(euler, "check_signature", counting)
    for fn in (chi_closed, chi_sign, adelic_assembly_exact, adelic_assembly_float):
        for m, n in ((8, 2), (2, 1)):
            checked.clear()
            fn(m, n)
            assert checked == [(m, n)], (fn.__name__, m, n)


def test_chi_closed_builds_one_descriptor(monkeypatch):
    built = []

    def counting(m, n):
        built.append((m, n))
        return SpinGroupDescriptor(m, n)

    monkeypatch.setattr(euler, "SpinGroupDescriptor", counting)
    for m, n in ((8, 2), (3, 3), (4, 1)):
        built.clear()
        chi_closed(m, n)
        assert built == [(m, n)]
        built.clear()
        euler.adelic_assembly_float(m, n, 1000)
        assert built == [(m, n)]
    built.clear()
    adelic_assembly_exact(8, 2)
    assert built == [(8, 2)]
    for m, n in ((0, 3), (1, 1), (2, -1)):
        for fn in (chi_closed, chi_sign, adelic_assembly_exact, adelic_assembly_float):
            with pytest.raises(ValueError):
                fn(m, n)


# ---------------------------------------------------------------------------
# L2 profile
# ---------------------------------------------------------------------------

def test_l2_profile_single_betti_case():
    prof = l2_profile(8, 2)
    assert prof.delta == 0
    assert prof.betti_degree == 8
    assert type(prof.betti_value) is int
    assert prof.betti_value == 2 ** 89 * 25 * 17
    assert prof.ns_range is None and prof.ns_value is None
    assert prof.torsion_sign == 0


def test_l2_profile_vanishing_case():
    prof = l2_profile(5, 5)
    assert prof.delta == 1
    assert prof.betti_degree is None
    assert type(prof.betti_value) is int and prof.betti_value == 0
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
