"""Reference values the benchmark checks spinchi's outputs against.

Stdlib only, and independent of spinchi's own code paths: Bernoulli
numbers come from the Akiyama-Tanigawa algorithm and Euler numbers from
Seidel's boustrophedon, where spinchi uses the defining recurrences.
Nothing here imports spinchi, so importing this module does not warm
any of spinchi's caches.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _bernoulli_table(limit: int) -> tuple[Fraction, ...]:
    """B_0..B_limit by the Akiyama-Tanigawa algorithm (so B_1 = +1/2)."""
    a: list[Fraction] = []
    out = []
    for m in range(limit + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return tuple(out)


def bernoulli_even(n: int) -> Fraction:
    """B_n for even n >= 2."""
    return _bernoulli_table(-(-n // 64) * 64)[n]


@lru_cache(maxsize=None)
def _zigzag(limit: int) -> tuple[int, ...]:
    """Up/down numbers A_0..A_limit; |E_2k| = A_2k (secant numbers)."""
    row, out = [1], [1]
    for _ in range(limit):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return tuple(out)


def secant_number(n: int) -> int:
    """|E_n| for even n >= 0."""
    return _zigzag(n)[n]


def _abs_zeta_neg_odd(j: int) -> Fraction:
    # |zeta(1 - 2j)| = |B_2j| / 2j
    return abs(bernoulli_even(2 * j)) / (2 * j)


@lru_cache(maxsize=None)
def chi(m: int, n: int) -> Fraction:
    """Euler characteristic of the level-4 subgroup of Spin(m, n), d >= 3.

    The closed formula of the paper: 0 when m, n are both odd, else
    (-1)^(mn/2) R(d) C(l, k) prod_{j<l} (2^2j - 1)|zeta(1-2j)|, with
    |B_psi,l| / l = |E_(l-1)| / 2 in the d = 2 mod 4 case.
    """
    if m % 2 and n % 2:
        return Fraction(0)
    d = m + n
    l, k = d // 2, m // 2
    if d % 4 == 0:
        r = Fraction(2) ** (5 * l * l - 4 * l) * (2 ** l - 1) * _abs_zeta_neg_odd(l // 2)
    elif d % 2 == 0:
        r = Fraction(2) ** (5 * l * l - 5 * l + 1) * Fraction(secant_number(l - 1), 2)
    else:
        r = Fraction(2) ** (5 * l * l) * (2 ** (d - 1) - 1) * _abs_zeta_neg_odd((d - 1) // 2)
    value = r * math.comb(l, k)
    for j in range(1, l):
        value *= (2 ** (2 * j) - 1) * _abs_zeta_neg_odd(j)
    return -value if (m * n // 2) % 2 else value


def chi_sign(m: int, n: int) -> int:
    if m % 2 and n % 2:
        return 0
    return -1 if (m * n // 2) % 2 else 1


def case_tag(m: int, n: int) -> str:
    if m % 2 and n % 2:
        return "zero"
    d = m + n
    if d % 2:
        return "odd"
    return "0mod4" if d % 4 == 0 else "2mod4"


def same_genus(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """<1^m,(-1)^n> and <1^m2,(-1)^n2> in one genus (Conway-Sloane).

    Odd unimodular forms of equal rank: equal n mod 2 (the odd places)
    and equal m - n mod 8 (the 2-adic oddity); at equal rank the two
    together say n = n2 mod 4.
    """
    return sum(a) == sum(b) and (a[1] - b[1]) % 4 == 0


def parse_factored(text: str) -> Fraction:
    """Value of a printed factorization such as "-2^89 * 5^2 * 17 / 3"."""
    text = text.strip()
    if text == "0":
        return Fraction(0)
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = text.split(" / ")
    if len(parts) > 2:
        raise ValueError(f"malformed factorization {text!r}")
    values = []
    for part in parts:
        value, last = 1, 1
        for term in part.split(" * "):
            base, _, exp = term.partition("^")
            p, e = int(base), int(exp) if exp else 1
            if p <= last or e < 1:
                raise ValueError(f"factor {term!r} out of order in {text!r}")
            value *= p ** e
            last = p
        values.append(value)
    return sign * Fraction(values[0], values[1] if len(values) > 1 else 1)


def blade_sign(j: int, k: int, m: int) -> int:
    """Sign of e(J) e(K) in Cl(m, n), from explicit index lists.

    Counts the transpositions that sort the concatenated index list and
    one -1 for each repeated generator with negative square (index > m).
    """
    left = [i for i in range(j.bit_length()) if j >> i & 1]
    right = [i for i in range(k.bit_length()) if k >> i & 1]
    swaps = sum(1 for a in left for b in right if a > b)
    neg = sum(1 for i in left if k >> i & 1 and i >= m)
    return -1 if (swaps + neg) % 2 else 1


def product_coefficient(x: dict, y: dict, blade: int, m: int, modulus: int) -> int:
    """Coefficient of ``blade`` in x * y, summed term by term mod ``modulus``."""
    total = 0
    for b1, c1 in x.items():
        c2 = y.get(b1 ^ blade)
        if c2:
            total += blade_sign(b1, b1 ^ blade, m) * c1 * c2
    return total % modulus


def prime_divisors(n: int) -> list[int]:
    """Primes dividing a nonzero integer, by trial division (small inputs)."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_rational_square(x: Fraction) -> bool:
    return (x >= 0 and math.isqrt(x.numerator) ** 2 == x.numerator
            and math.isqrt(x.denominator) ** 2 == x.denominator)
