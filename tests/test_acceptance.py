"""Acceptance gate: eleven numbered criteria, one test each.

Every criterion records a PASS/FAIL line through the ``criterion_report``
fixture (printed in the terminal summary) and also fails the ordinary
pytest way, with its time budget enforced.  The criteria pin the
headline exact values, the independence checks between the closed
formula and the adelic assembly, the brute-force oracles for finite
orders and Hilbert symbols, the Clifford/2-adic machinery, the
dimension-14 sweep, and the combinator corollary.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from spinchi.clifford import (
    ZZ,
    CliffordElement,
    ModularRing,
    PrimeField,
    Signature,
    blade_from_indices,
    clifford_exp,
    clifford_log,
    is_spin_element,
)
from spinchi.euler import (
    adelic_assembly_exact,
    adelic_assembly_float,
    chi_closed,
    chi_direct_product,
    chi_free_product,
    rho_product,
    s_arithmetic_sign,
)
from spinchi.exactq import gen_bernoulli_mod4, zeta_negative_odd
from spinchi.ggroups import SpinGroupDescriptor, spin_order_fp, weyl_ratio
from spinchi.oracles import hilbert_bruteforce, so_order_bruteforce
from spinchi.qforms import DiagonalForm, hilbert_symbol, witt_index
from spinchi.euler import r_factor
from spinchi.profinite import sweep_theorem_frank_dim

C_VALUE = Fraction(2 ** 89 * 5 ** 2 * 17)


def _finish(report, number, label, problems, started, budget):
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget}s")
    detail = "; ".join(problems)
    report(number, f"{label} [{elapsed:.2f}s]", not problems, detail)
    assert not problems, detail


def test_criterion_01_exact_chi_twin_values(criterion_report):
    started = time.perf_counter()
    problems = []
    if chi_closed(8, 2).value != C_VALUE:
        problems.append(f"chi(8,2) = {chi_closed(8, 2).value}")
    if chi_closed(4, 6).value != 2 * C_VALUE:
        problems.append(f"chi(4,6) = {chi_closed(4, 6).value}")
    _finish(criterion_report, 1,
            "chi(8,2) = 2^89*5^2*17 and chi(4,6) = 2^90*5^2*17",
            problems, started, 1.0)


def test_criterion_02_intermediate_constants(criterion_report):
    started = time.perf_counter()
    problems = []
    if r_factor(10) != Fraction(2 ** 100 * 5):
        problems.append(f"R(10) = {r_factor(10)}")
    product = Fraction(1)
    for j in range(1, 5):
        product *= (2 ** (2 * j) - 1) * abs(zeta_negative_odd(j))
    if product != Fraction(17, 2 ** 11):
        problems.append(f"odd zeta product = {product}")
    if weyl_ratio(SpinGroupDescriptor(8, 2)) != 10:
        problems.append("Weyl ratio (8,2)")
    if weyl_ratio(SpinGroupDescriptor(4, 6)) != 20:
        problems.append("Weyl ratio (4,6)")
    _finish(criterion_report, 2,
            "R(10), the odd zeta product 17/2^11, Weyl ratios 10 and 20",
            problems, started, 5.0)


def test_criterion_03_generalized_bernoulli_table(criterion_report):
    started = time.perf_counter()
    problems = []
    table = {1: Fraction(-1, 2), 3: Fraction(3, 2), 5: Fraction(-25, 2),
             7: Fraction(427, 2), 9: Fraction(-12465, 2)}
    for ell, want in table.items():
        got = gen_bernoulli_mod4(ell)
        if got != want:
            problems.append(f"B_psi({ell}) = {got}, wanted {want}")
    _finish(criterion_report, 3,
            "generalized Bernoulli numbers mod 4 for ell in {1,3,5,7,9}",
            problems, started, 5.0)


def test_criterion_04_closed_equals_adelic_assembly(criterion_report):
    started = time.perf_counter()
    problems = []
    cases = 0
    for d in range(3, 13):
        for m in range(1, d):
            n = d - m
            closed = chi_closed(m, n).value
            if m % 2 and n % 2:
                if closed != 0:
                    problems.append(f"chi({m},{n}) != 0 in the vanishing case")
                continue
            cases += 1
            assembled = adelic_assembly_exact(m, n)
            if closed != assembled:
                problems.append(f"({m},{n}): {closed} vs {assembled}")
    if cases != 45:
        problems.append(f"expected 45 assembled cases, got {cases}")
    _finish(criterion_report, 4,
            "closed formula == exact adelic assembly for 3 <= d <= 12",
            problems, started, 10.0)


def test_criterion_05_float_assembly_accuracy(criterion_report):
    started = time.perf_counter()
    problems = []
    for d in range(4, 11):
        for m in range(1, d):
            n = d - m
            approx = adelic_assembly_float(m, n, prime_bound=10 ** 5)
            exact = chi_closed(m, n).value
            if m % 2 and n % 2:
                if approx != 0.0:
                    problems.append(f"({m},{n}): expected exact 0.0")
                continue
            rel = abs(approx - float(exact)) / abs(float(exact))
            if rel > 1e-3:
                problems.append(f"({m},{n}): rel err {rel:.2e}")
    _finish(criterion_report, 5,
            "float Euler product within 1e-3 for 4 <= d <= 10 at bound 1e5",
            problems, started, 60.0)


def test_criterion_06_finite_order_bruteforce(criterion_report):
    started = time.perf_counter()
    problems = []
    cases = {3: [(2, 1), (1, 2)], 4: [(3, 1), (2, 2), (1, 3)]}
    for d, p in ((3, 3), (3, 5), (3, 7), (4, 3)):
        for m, n in cases[d]:
            formula = spin_order_fp(SpinGroupDescriptor(m, n), p)
            counted = so_order_bruteforce(DiagonalForm.pm(m, n), p)
            if formula != counted:
                problems.append(f"({m},{n}) p={p}: {formula} vs {counted}")
    _finish(criterion_report, 6,
            "order formulas match brute-force counts at (d,p) in "
            "{(3,3),(3,5),(3,7),(4,3)}",
            problems, started, 120.0)


def test_criterion_07_clifford_suite(criterion_report):
    started = time.perf_counter()
    problems = []
    # conjugation sign on every blade, every d <= 10
    for d in range(1, 11):
        sig = Signature((d + 1) // 2, d // 2)
        for blade in range(1 << d):
            card = blade.bit_count()
            want = -1 if (card * (card + 1) // 2) % 2 else 1
            got = CliffordElement.blade(sig, ZZ, blade).conjugate().coefficient(blade)
            if got != want:
                problems.append(f"conjugation sign d={d} blade={blade:#x}")
    # anti-automorphism and associativity, 500 random cases each
    rng = random.Random(90210)

    def rand_el(sig, ring):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            coeffs[rng.randrange(1 << sig.d)] = ring.from_int(rng.randint(-9, 9))
        return CliffordElement(sig, ring, coeffs)

    sig = Signature(3, 3)
    for i in range(500):
        ring = ZZ if i % 2 else PrimeField(7)
        x, y = rand_el(sig, ring), rand_el(sig, ring)
        if (x * y).conjugate() != y.conjugate() * x.conjugate():
            problems.append(f"anti-automorphism case {i}")
            break
    for i in range(500):
        ring = ZZ if i % 2 else PrimeField(7)
        x, y, z = rand_el(sig, ring), rand_el(sig, ring), rand_el(sig, ring)
        if (x * y) * z != x * (y * z):
            problems.append(f"associativity case {i}")
            break
    _finish(criterion_report, 7,
            "conjugation signs exhaustive d <= 10; 500 random "
            "anti-automorphism and associativity cases",
            problems, started, 10.0)


def test_criterion_08_two_adic_exp_log(criterion_report):
    started = time.perf_counter()
    problems = []
    rng = random.Random(40826)
    for d, bits in ((3, 8), (4, 8), (5, 6)):
        sig = Signature((d + 1) // 2, d // 2)
        mod = 1 << bits
        ring = ModularRing(mod)
        pairs = list(itertools.combinations(range(1, d + 1), 2))
        for case in range(50):
            coeffs = {blade_from_indices(pair): 4 * rng.randrange(mod // 4)
                      for pair in pairs if rng.random() < 0.7}
            x = CliffordElement(sig, ZZ, coeffs)
            g = clifford_exp(x, bits)
            if not is_spin_element(g):
                problems.append(f"(d={d},N={bits}) case {case}: exp not in spin")
                break
            back = clifford_log(g, bits)
            x_mod = CliffordElement(sig, ring,
                                    {b: c % mod for b, c in coeffs.items()})
            if back != x_mod:
                problems.append(f"(d={d},N={bits}) case {case}: log(exp) != id")
                break
            if clifford_exp(back, bits) != g:
                problems.append(f"(d={d},N={bits}) case {case}: exp(log) != id")
                break
    _finish(criterion_report, 8,
            "exp/log two-sided inverses mod 2^N with spin membership, "
            "50 cases at (3,8),(4,8),(5,6)",
            problems, started, 30.0)


def test_criterion_09_hilbert_witt_and_srank(criterion_report):
    started = time.perf_counter()
    problems = []
    rng = random.Random(1009)

    def squarefree(bound=150):
        while True:
            n = rng.randrange(1, bound) * rng.choice((-1, 1))
            a, d = abs(n), 2
            ok = True
            while d * d <= a:
                if a % (d * d) == 0:
                    ok = False
                    break
                d += 1
            if ok:
                return n

    places = [None, 2, 3, 5, 7, 11, 13]
    for case in range(200):
        a, b = squarefree(), squarefree()
        # product formula over the support of a and b
        support = {None, 2}
        for value in (a, b):
            value = abs(value)
            d = 2
            while d * d <= value:
                if value % d == 0:
                    support.add(d)
                    while value % d == 0:
                        value //= d
                d += 1
            if value > 1:
                support.add(value)
        if math.prod(hilbert_symbol(a, b, v) for v in support) != 1:
            problems.append(f"product formula fails at ({a},{b})")
            break
        v = places[case % len(places)]
        if hilbert_symbol(a, b, v) != hilbert_bruteforce(a, b, v):
            problems.append(f"brute-force disagreement at ({a},{b})_{v}")
            break
    if witt_index(DiagonalForm.pm(4, 1), 2) != 1:
        problems.append("witt(b(4,1), Q_2) != 1")
    if witt_index(DiagonalForm.pm(2, 3), 2) != 2:
        problems.append("witt(b(2,3), Q_2) != 2")
    first = s_arithmetic_sign(4, 1, [2])
    second = s_arithmetic_sign(2, 3, [2])
    if (first.sign, first.rank_s) != (-1, 2):
        problems.append(f"S-sign (4,1): {(first.sign, first.rank_s)}")
    if (second.sign, second.rank_s) != (-1, 4):
        problems.append(f"S-sign (2,3): {(second.sign, second.rank_s)}")
    _finish(criterion_report, 9,
            "Hilbert product formula + brute force on 200 pairs; Witt "
            "indices over Q_2; S-arithmetic signs and ranks",
            problems, started, 60.0)


def test_criterion_10_dimension_sweep(criterion_report):
    started = time.perf_counter()
    problems = []
    report = sweep_theorem_frank_dim(14)
    if report.violations:
        problems.append(f"{len(report.violations)} violations: "
                        f"{report.violations[:3]}")
    classes = [set(cls) for cls in report.classes]
    if not any({(8, 2), (4, 6)} <= cls for cls in classes):
        problems.append("missing the (8,2)/(4,6) class")
    if not any({(5, 5), (1, 9)} <= cls for cls in classes):
        problems.append("missing a both-odd class containing (5,5),(1,9)")
    _finish(criterion_report, 10,
            "d <= 14 sweep: no dim-mod-4 / delta / sign violations; "
            "twin classes discovered",
            problems, started, 30.0)


def test_criterion_11_combinator_corollary(criterion_report):
    started = time.perf_counter()
    problems = []
    c = chi_closed(8, 2).value
    two_c_sq = chi_direct_product(c, chi_closed(4, 6).value)
    if two_c_sq != 2 * C_VALUE ** 2:
        problems.append(f"chi of the direct product = {two_c_sq}")
    free_rank = 2 * C_VALUE ** 2
    chi_free_group = 1 - free_rank
    balanced = chi_free_product(two_c_sq, chi_free_group)
    if balanced != 0:
        problems.append(f"balanced free product chi = {balanced}")
    unbalanced = chi_free_product(chi_direct_product(c, c), chi_free_group)
    if unbalanced != -C_VALUE ** 2:
        problems.append(f"unbalanced free product chi = {unbalanced}")
    # the rho weighting that witnesses chi(4,6) = 2 chi(8,2)
    rho = Fraction(7, 3)
    if 2 * rho_product(c, rho) != rho_product(chi_closed(4, 6).value, rho):
        problems.append("rho weighting inconsistent with the factor 2")
    _finish(criterion_report, 11,
            "combinators reproduce 2c^2, 0 and -c^2 from c = 2^89*5^2*17",
            problems, started, 5.0)
