"""Profinite commensurability of the congruence spin groups, at desk scale.

Two groups Spin(m, n), Spin(m2, n2) with m + n = m2 + n2 have isomorphic
congruence completions iff the forms <1^m,(-1)^n>, <1^m2,(-1)^n2> are
Z_p-equivalent at every finite place.  Upgrading that to the full
profinite completion needs trivial congruence kernels, which Kneser's
criterion gives when both rational Witt indices are >= 2; below that the
conclusion is recorded as conditional rather than claimed.

The sweeps walk the pairs inside each class of ``genus_classes(d)``,
d <= d_max, and check what every locally-equivalent pair must satisfy:
dim X mod 4, delta and sign(chi) all agree.  Violations are collected,
never silently dropped; an entry in the violations list is a bug by
theorem.  The chi values themselves are not profinite invariants, and
``sweep_euler_not_profinite`` lists the witnessing pairs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .euler import chi_closed
from .exactq import Value
from .ggroups import SpinGroupDescriptor
from .qforms import PM_RANK_LIMIT, genus_classes, genus_first_failure


class CommensurabilityReport(Value):
    __slots__ = _fields = ("pair", "locally_equivalent", "witness", "csp_unconditional",
                           "csp_note", "dim_mod4_consistent", "delta_consistent",
                           "chi_both", "verdict")


def profinitely_commensurable(m: int, n: int, m2: int, n2: int,
                              ) -> CommensurabilityReport:
    """Decide congruence-completion isomorphism for the pair, with caveats.

    Local equivalence is ``genus_first_failure``'s closed rule, which
    covers every finite place; its first failing place is the witness.
    """
    if max(m + n, m2 + n2) > PM_RANK_LIMIT:
        raise ValueError(f"need m + n <= {PM_RANK_LIMIT}, got {max(m + n, m2 + n2)}")
    first = SpinGroupDescriptor(m, n)
    second = SpinGroupDescriptor(m2, n2)
    failure = genus_first_failure(m, n, m2, n2)
    equal = failure is None
    # the rule holds at every p; the text is kept so the CLI JSON is unchanged
    witness = "all p <= 100 pass" if equal else failure

    w1, w2 = min(m, n), min(m2, n2)  # <1, -1> is a hyperbolic plane, the rest definite
    unconditional = w1 >= 2 and w2 >= 2
    csp_note = (
        f"rational Witt indices {w1} and {w2}: "
        + ("both >= 2, congruence kernels trivial (Kneser)" if unconditional
           else "some < 2, congruence kernel not controlled here")
    )
    if not equal:
        verdict = "not locally equivalent"
    elif unconditional:
        verdict = "profinitely commensurable"
    else:
        verdict = ("locally equivalent "
                   "(commensurability conditional on congruence kernel)")
    return CommensurabilityReport(
        (first, second), equal, witness, unconditional, csp_note,
        (first.dim_x - second.dim_x) % 4 == 0, first.delta == second.delta,
        (chi_closed(m, n), chi_closed(m2, n2)), verdict)


@dataclass(frozen=True)
class SweepReport:
    d_max: int
    pair_count: int
    equivalent_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    classes: tuple[tuple[tuple[int, int], ...], ...]
    violations: tuple[str, ...]
    chi_ratio_notes: tuple[str, ...]


def _equivalent_pairs(d_max: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Locally equivalent signature pairs (a, b) of equal d in 3..d_max.

    Ordered by d, then by a, then by b, with a before b in the order
    (1, d-1), (2, d-2), ..., (d-1, 1).
    """
    if d_max < 3:
        raise ValueError("need d_max >= 3")
    return [pair for d in range(3, d_max + 1)
            for pair in sorted(ab for cls in genus_classes(d)
                               for ab in itertools.combinations(cls, 2))]


def sweep_theorem_frank_dim(d_max: int) -> SweepReport:
    """Check dim-mod-4, delta and sign constraints on all equivalent pairs.

    Walks the pairs inside each class of ``genus_classes(d)``, d <= d_max,
    so the checks cross-check the classes.  Classes are the local-equivalence
    classes with more than one member.  The chi-ratio notes record the
    observed power-of-2 pattern for delta = 0 classes; they are data, not
    assertions.
    """
    equivalent = _equivalent_pairs(d_max)
    chi = {s: chi_closed(*s) for s in {s for pair in equivalent for s in pair}}
    violations: list[str] = []
    notes: list[str] = []
    for a, b in equivalent:
        if (a[0] * a[1] - b[0] * b[1]) % 4:
            violations.append(f"{a}/{b}: dim X not equal mod 4")
        ca, cb = chi[a], chi[b]
        if ca.descriptor.delta != cb.descriptor.delta:
            violations.append(f"{a}/{b}: delta mismatch")
        if ca.sign != cb.sign:
            violations.append(f"{a}/{b}: sign mismatch")
        if ca.lead and cb.lead:
            # equal d, so D(d) cancels: chi(a) / chi(b) = lead(a) / lead(b)
            ratio = Fraction(ca.lead, cb.lead)
            two_power = abs(ratio.numerator * ratio.denominator).bit_count() == 1
            notes.append(f"{a}/{b}: chi ratio {ratio}"
                         + ("" if two_power else " (not a power of 2)"))
    return SweepReport(
        d_max=d_max,
        pair_count=math.comb(d_max, 3),  # sum of C(d - 1, 2) over d = 3..d_max
        equivalent_pairs=tuple(equivalent),
        classes=tuple(tuple(cls) for d in range(3, d_max + 1)
                      for cls in genus_classes(d) if len(cls) > 1),
        violations=tuple(violations),
        chi_ratio_notes=tuple(notes),
    )


@dataclass(frozen=True)
class ChiMismatchPair:
    first: tuple[int, int]
    second: tuple[int, int]
    chi_first: int
    chi_second: int


def sweep_euler_not_profinite(d_max: int) -> list[ChiMismatchPair]:
    """Locally-equivalent pairs whose (nonzero) chi values differ.

    Each entry shows chi is not determined by the profinite completion.
    Empty lists are a legitimate outcome for small d_max.
    """
    equivalent = _equivalent_pairs(d_max)
    chi = {s: chi_closed(*s).value for s in {s for pair in equivalent for s in pair}}
    return [ChiMismatchPair(a, b, chi[a], chi[b]) for a, b in equivalent
            if chi[a] and chi[b] and chi[a] != chi[b]]
