"""Brute-force oracles, independent of the closed formulas they check.

``spinchi verify oracles`` and the tests compare ``qforms.hilbert_symbol``
against ``hilbert_bruteforce``.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=None)
def _squares_mod(modulus: int) -> frozenset[int]:
    return frozenset(x * x % modulus for x in range(modulus))


def hilbert_bruteforce(a: int, b: int, prime: Optional[int]) -> int:
    """(a, b)_v by exhaustive search for z^2 = a x^2 + b y^2.

    Squarefree a, b only.  Modulus p^4 (2^6 at p = 2) makes every
    primitive solution Hensel-liftable, so the search is exact.  A
    primitive triple can be scaled so some coordinate is 1, hence three
    sweeps, each linear in the modulus.  ``prime`` None is the real place.
    """
    if prime is None:
        return -1 if a < 0 and b < 0 else 1
    modulus = 64 if prime == 2 else prime ** 4
    squares = _squares_mod(modulus)
    for y in range(modulus):
        if (a + b * y * y) % modulus in squares:  # x normalized to 1
            return 1
    for x in range(modulus):
        if (b + a * x * x) % modulus in squares:  # y normalized to 1
            return 1
    a_squares = {a * s % modulus for s in squares}
    for y in range(modulus):
        if (1 - b * y * y) % modulus in a_squares:  # z normalized to 1
            return 1
    return -1
