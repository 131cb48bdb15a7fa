"""Tests for profinite commensurability reports and the dimension sweeps.

The sweep outcomes at d_max = 14 and 20 are frozen (pair count, number
of multi-member classes and of equivalent pairs, zero violations); the specific discoveries the
sweep must make, such as the (8,2)/(4,6) class and a class of vanishing
chi containing (5,5) and (1,9), are asserted explicitly.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from spinchi import profinite
from spinchi.euler import chi_closed
from spinchi.profinite import (
    _equivalent_pairs,
    ChiMismatchPair,
    CommensurabilityReport,
    profinitely_commensurable,
    sweep_euler_not_profinite,
    sweep_theorem_frank_dim,
)
from spinchi.qforms import PM_RANK_LIMIT, genus_classes, genus_first_failure


# ---------------------------------------------------------------------------
# single-pair reports
# ---------------------------------------------------------------------------

def test_report_for_the_dim10_twin_pair():
    rep = profinitely_commensurable(8, 2, 4, 6)
    assert rep.locally_equivalent
    assert rep.witness == "all p <= 100 pass"
    assert rep.csp_unconditional
    assert "Kneser" in rep.csp_note
    assert rep.dim_mod4_consistent
    assert rep.delta_consistent
    assert rep.verdict == "profinitely commensurable"
    chi_a, chi_b = rep.chi_both
    assert chi_a.value * 2 == chi_b.value  # chi ratio 2, not an invariant


def test_report_for_an_inequivalent_pair():
    rep = profinitely_commensurable(8, 2, 9, 1)
    assert not rep.locally_equivalent
    assert rep.witness == "p=3"
    assert rep.verdict == "not locally equivalent"


def test_report_for_the_both_odd_pair():
    rep = profinitely_commensurable(5, 5, 1, 9)
    assert rep.locally_equivalent
    assert rep.delta_consistent
    assert rep.chi_both[0].value == rep.chi_both[1].value == 0
    # b(1,9) has rational Witt index 1, so Kneser does not apply
    assert not rep.csp_unconditional
    assert "congruence kernel" in rep.verdict


def test_report_rank_mismatch():
    rep = profinitely_commensurable(2, 2, 2, 3)
    assert not rep.locally_equivalent
    assert rep.witness == "rank"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_d14_frozen_outcome():
    # d_max: pair count, classes, equivalent pairs, chi-ratio notes and
    # sweep_euler_not_profinite pairs
    frozen = {14: (364, 30, 61, 39, 30), 20: (1140, 54, 220, 150, 128)}
    for d_max, (pairs, classes, equivalent, notes, mismatches) in frozen.items():
        report = sweep_theorem_frank_dim(d_max)
        assert report.d_max == d_max
        assert report.pair_count == pairs
        assert len(report.classes) == classes
        assert len(report.equivalent_pairs) == equivalent
        assert len(report.chi_ratio_notes) == notes
        assert report.violations == ()
        assert all(len(cls) > 1 for cls in report.classes)
        assert len(sweep_euler_not_profinite(d_max)) == mismatches


def test_sweep_discovers_the_required_classes():
    report = sweep_theorem_frank_dim(14)
    classes = [set(cls) for cls in report.classes]
    assert any({(8, 2), (4, 6)} <= cls for cls in classes)
    assert any({(5, 5), (1, 9)} <= cls for cls in classes)
    assert ((4, 6), (8, 2)) in report.equivalent_pairs or \
        ((8, 2), (4, 6)) in report.equivalent_pairs


def test_sweep_classes_agree_with_pairwise_criterion():
    report = sweep_theorem_frank_dim(9)
    for cls in report.classes:
        for a in cls:
            for b in cls:
                assert genus_first_failure(*a, *b) is None, (a, b)
    # genus_classes partitions the rank-d signatures into the classes of
    # the pairwise rule, each listed by increasing m
    for d in range(2, 41):
        classes = genus_classes(d)
        members = [s for cls in classes for s in cls]
        assert sorted(members) == [(m, d - m) for m in range(1, d)], d
        assert all(cls == sorted(cls) for cls in classes), d
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes), d
        home = {s: i for i, cls in enumerate(classes) for s in cls}
        for a in members:
            for b in members:
                assert (home[a] == home[b]) == (genus_first_failure(*a, *b) is None), (a, b)


def test_equivalent_pairs_match_the_all_pairs_filter():
    # referee: every pair of equal d, filtered by the pairwise rule, in
    # the order of itertools.combinations
    for d_max in range(3, 31):
        referee = [(a, b) for d in range(3, d_max + 1)
                   for a, b in itertools.combinations([(m, d - m) for m in range(1, d)], 2)
                   if genus_first_failure(*a, *b) is None]
        assert _equivalent_pairs(d_max) == referee, d_max
    with pytest.raises(ValueError):
        _equivalent_pairs(2)


def test_sweep_ratio_notes_are_the_chi_ratios():
    # The sweep reads each ratio off the two leads; compare the full values.
    report = sweep_theorem_frank_dim(14)
    assert report.chi_ratio_notes
    for note in report.chi_ratio_notes:
        pair, ratio = note.split(": chi ratio ")
        a, b = (tuple(map(int, s.strip("()").split(","))) for s in pair.split("/"))
        want = Fraction(chi_closed(*a).value, chi_closed(*b).value)
        assert Fraction(ratio.split()[0]) == want, note


def test_sweep_ratio_notes_include_a_non_power_of_2():
    # (1,6) and (5,2) at d = 7 are locally equivalent with chi ratio 1/3,
    # so the power-of-2 pattern is recorded as false in general
    report = sweep_theorem_frank_dim(9)
    flagged = [note for note in report.chi_ratio_notes
               if "not a power of 2" in note]
    assert flagged, report.chi_ratio_notes
    assert any("(1, 6)" in note and "(5, 2)" in note for note in flagged)


def test_sweep_reports_a_broken_genus_rule(monkeypatch):
    # A genus rule that puts (8, 2) and (7, 3) in one class breaks all
    # three constraints: dim X 16 vs 21, delta 0 vs 1, sign +1 vs 0.
    real = profinite.genus_classes
    monkeypatch.setattr(profinite, "genus_classes",
                        lambda d: [[(8, 2), (7, 3)]] if d == 10 else real(d))
    report = sweep_theorem_frank_dim(10)
    assert report.violations == ("(8, 2)/(7, 3): dim X not equal mod 4",
                                 "(8, 2)/(7, 3): delta mismatch",
                                 "(8, 2)/(7, 3): sign mismatch")
    assert ((8, 2), (7, 3)) in report.equivalent_pairs


def test_report_rejects_ranks_above_the_limit_before_any_chi(monkeypatch):
    def no_chi(m, n):
        raise AssertionError(f"chi built for ({m}, {n})")

    monkeypatch.setattr(profinite, "chi_closed", no_chi)
    for args in ((PM_RANK_LIMIT, 1, 8, 2), (8, 2, 1, PM_RANK_LIMIT)):
        with pytest.raises(ValueError, match=f"m \\+ n <= {PM_RANK_LIMIT}"):
            profinitely_commensurable(*args)


def test_sweep_rejects_small_dmax():
    with pytest.raises(ValueError):
        sweep_theorem_frank_dim(2)
    with pytest.raises(ValueError):
        sweep_euler_not_profinite(2)


def test_chi_is_not_a_profinite_invariant():
    mismatches = sweep_euler_not_profinite(10)
    wanted = [entry for entry in mismatches
              if {entry.first, entry.second} == {(4, 6), (8, 2)}]
    assert len(wanted) == 1
    entry = wanted[0]
    assert type(entry.chi_first) is int and type(entry.chi_second) is int
    assert Fraction(entry.chi_first, entry.chi_second) in (Fraction(2), Fraction(1, 2))
    # signs still agree on every witnessing pair
    for item in mismatches:
        assert (item.chi_first > 0) == (item.chi_second > 0)


def test_chi_mismatch_exists_already_at_d7():
    mismatches = sweep_euler_not_profinite(9)
    assert any({entry.first, entry.second} == {(1, 6), (5, 2)}
               for entry in mismatches)
    entry = next(e for e in mismatches if {e.first, e.second} == {(1, 6), (5, 2)})
    ratio = Fraction(entry.chi_first, entry.chi_second)
    assert ratio in (Fraction(3), Fraction(1, 3))


def test_local_equivalence_is_an_equivalence_relation():
    descs = [(m, 9 - m) for m in range(1, 9)]
    for a in descs:
        assert genus_first_failure(*a, *a) is None
    for a in descs:
        for b in descs:
            assert (genus_first_failure(*a, *b) is None) == \
                (genus_first_failure(*b, *a) is None)
            for c in descs:
                if genus_first_failure(*a, *b) is None and \
                        genus_first_failure(*b, *c) is None:
                    assert genus_first_failure(*a, *c) is None
