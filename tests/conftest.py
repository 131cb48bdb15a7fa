"""Shared test plumbing.

The acceptance tests register one line per criterion; the terminal
summary prints them after the run so `pytest -v` ends with an explicit
PASS/FAIL line for each numbered criterion.  ``parse_factored`` reads a
printed factorization back, so tests can multiply it out themselves.
"""
from __future__ import annotations

import pytest

_CRITERION_LINES: list[tuple[int, str]] = []


@pytest.fixture
def criterion_report():
    def record(number: int, label: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        _CRITERION_LINES.append((number, f"{status} criterion {number}: {label}{suffix}"))
    return record


def _parse_factored(text: str) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Split "-2^3 * 5 / 3^2" into its sign and the numerator's and the
    denominator's (base, exponent) pairs, in printed order."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition(" / ")

    def powers(part: str) -> list[tuple[int, int]]:
        if part in ("", "1"):
            return []
        return [(int(base), int(exp or 1))
                for base, _, exp in (term.partition("^") for term in part.split(" * "))]

    return sign, powers(num), powers(den)


@pytest.fixture
def parse_factored():
    return _parse_factored


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)
