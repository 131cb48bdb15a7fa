"""Local and global invariants of diagonal quadratic forms over Q.

Places are the archimedean place and the primes.  For a diagonal form
<a_1, ..., a_k> we compute, per place: the square class of the
discriminant, the Hasse invariant prod_{i<j} (a_i, a_j)_v, the Witt
index and the anisotropic dimension.

Q_v^* / squares is an F_2-vector space.  Every local function works on
the code of a class there, a small int (``square_class_key``), of
r = num * den for a = num / den; ``DiagonalForm`` holds one r per entry.
For r = p^alpha u, u a unit, bit 0 is alpha mod 2 (the sign at oo); bit
1 is set at odd p iff u is a non-residue, at 2 it is eps(u) = (u-1)/2,
and bit 2 at 2 is omega(u) = (u^2-1)/8 mod 2.  Codes multiply by XOR.
Serre's formulas (A Course in Arithmetic, III.1), for odd p and
a = p^alpha u, b = p^beta w,

    (a, b)_p = (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha,

and (a, b)_2 = (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)),
are bilinear in the bits: one 64-entry table per class of place
(oo, 2, p = 1 and p = 3 mod 4) holds the Hilbert symbol.

The Hasse invariant takes one pass by suffix products,

    prod_{i<j} (a_i, a_j) = prod_i (a_i, a_{i+1} ... a_k),

and the last suffix is the discriminant's code.  A Q_p-form is fixed by
its dimension, discriminant and Hasse invariant, and is isotropic from
dimension 5 on, so its Witt index is a closed function of those three.
A form keeps what one pass gives per place, and its index over Q.
Places are validated once and cached (256 places); the code of an integer
at a place is memoised in ``_key`` (1024 pairs, about 0.25 MiB when full).
No local function factors anything.

By Hasse-Minkowski the Witt index over Q is the least local index.
``witt_index_rational`` factors the entries, to find the primes dividing
them, only for forms that its closed bounds and its pair rule leave
open, and each distinct |entry| once per process (``_prime_divisors``,
1024 integers); ``is_isotropic_rational`` never factors from dimension 5 on.

The +-1 forms <1^m, (-1)^n> are odd unimodular Z-lattices, and their
genus at the finite places is fixed by the rank d = m + n and n mod 4
(``genus_first_failure``); ``genus_classes`` lists the classes of rank d.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactq import FactoredInteger, Scalar, Value, is_prime

PM_RANK_LIMIT = 10 ** 5
"""Largest rank m + n that ``DiagonalForm.pm`` builds and ``compare`` accepts."""


class Place(Value):
    """A place of Q: ``Place(None)`` is archimedean, ``Place(p)`` is p-adic."""

    __slots__ = _fields = ("prime",)

    def __init__(self, prime: Optional[int] = None) -> None:
        if prime is not None and not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip().lower()
        if text in ("oo", "inf", "infinity", "real"):
            return cls(None)
        return cls(int(text))

    def __str__(self) -> str:
        return "oo" if self.prime is None else str(self.prime)


INFINITE_PLACE = Place(None)


_place = lru_cache(maxsize=256)(Place)  # a ValueError is never cached: it recurs


def _as_place(v: "Place | int | None") -> Place:
    return v if isinstance(v, Place) else _place(v)


# ---------------------------------------------------------------------------
# Square-class codes of nonzero integers: p is a prime, or None for the real place


def _rep(a: Scalar) -> int:
    """num * den, a nonzero integer in the square class of the rational a."""
    if type(a) is not int:
        num, den = a.as_integer_ratio()
        a = num * den
    if not a:
        raise ValueError("need a nonzero value")
    return a


_TWO_ADIC_UNIT = b"\0\0\0\6\0\4\0\2"  # u mod 8 -> eps(u) << 1 | omega(u) << 2


@lru_cache(maxsize=1024)
def _key(n: int, p: Optional[int]) -> int:
    """Square-class code of a nonzero integer at p, memoised."""
    if p is None:
        return int(n < 0)
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v & 1 | _TWO_ADIC_UNIT[n >> v & 7]
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v & 1 | (pow(n, (p - 1) // 2, p) != 1) << 1


# (a, b)_v = 1 - 2 * _PAIRING[slot][x << 3 | y] for the codes x, y of a, b,
# where the slot is p % 4 at a prime and 0 at the real place.
_PAIRING = tuple(bytes(bit(x, y) & 1 for x in range(8) for y in range(8)) for bit in (
    lambda x, y: x & y,  # oo: both negative
    lambda x, y: x & y >> 1 ^ x >> 1 & y,  # p = 1 mod 4: (w|p)^alpha (u|p)^beta
    lambda x, y: x >> 1 & y >> 1 ^ x & y >> 2 ^ x >> 2 & y,  # 2
    lambda x, y: x & y ^ x & y >> 1 ^ x >> 1 & y,  # p = 3 mod 4: times (-1)^(alpha beta)
))
_MINUS_ONE = (1, 0, 2, 2)  # the code of -1, by the same slots


def _hasse_disc(reps: Sequence[int], p: int) -> tuple[int, int]:
    """(Hasse parity, discriminant code) at a prime p, by suffix products."""
    table = _PAIRING[p % 4]
    parity = suffix = 0
    for n in reversed(reps):
        x = _key(n, p)
        parity ^= table[x << 3 | suffix]
        suffix ^= x
    return parity, suffix


def hilbert_symbol(a: Scalar, b: Scalar, v: "Place | int | None") -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution in Q_v."""
    p = v.prime if isinstance(v, Place) else _place(v).prime  # inline: the hot path
    if type(a) is not int:
        num, den = a.as_integer_ratio()
        a = num * den
    if type(b) is not int:
        num, den = b.as_integer_ratio()
        b = num * den
    if not (a and b):
        raise ValueError("need a nonzero value")
    return 1 - 2 * _PAIRING[0 if p is None else p % 4][_key(a, p) << 3 | _key(b, p)]


def square_class_key(a: Scalar, v: "Place | int | None") -> int:
    """Code of the square class of ``a`` in Q_v^* / squares (module docstring)."""
    return _key(_rep(a), _as_place(v).prime)


class DiagonalForm(Value):
    """Nondegenerate diagonal quadratic form sum a_i x_i^2 over Q."""

    __slots__ = ("entries", "reps", "_memo")
    _fields = ("entries",)  # reps and the memo stay out of ==, hash and repr
    entries: tuple[Fraction, ...]
    reps: tuple[int, ...]  # num * den
    # place -> (Hasse parity, disc code, Witt index), and "Q" -> the rational index
    _memo: dict

    def __init__(self, entries: Sequence[Scalar]) -> None:
        entries = tuple(e if isinstance(e, Fraction) else Fraction(e)
                        for e in entries)
        if not entries:
            raise ValueError("need at least one entry")
        reps = tuple(e.numerator * e.denominator for e in entries)
        if 0 in reps:
            raise ValueError("entries must be nonzero")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def pm(cls, m: int, n: int) -> "DiagonalForm":
        """The form <1^m, (-1)^n>, of rank m + n <= ``PM_RANK_LIMIT``."""
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")
        if m + n > PM_RANK_LIMIT:
            raise ValueError(f"need m + n <= {PM_RANK_LIMIT}, got {m + n}")
        return cls((Fraction(1),) * m + (Fraction(-1),) * n)

    @classmethod
    def parse(cls, text: str) -> "DiagonalForm":
        """Comma-separated rationals, or the shortcut ``b(m,n)``."""
        text = text.strip()
        if text.startswith("b(") and text.endswith(")"):
            try:
                m, n = (int(part) for part in text[2:-1].split(","))
            except ValueError:
                raise ValueError(f"expected b(m,n) with two integers, not {text!r}") from None
            return cls.pm(m, n)
        return cls(tuple(Fraction(part.strip()) for part in text.split(",")))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def signature(self) -> tuple[int, int]:
        pos = sum(r > 0 for r in self.reps)
        return pos, self.dim - pos

    def disc(self) -> Fraction:
        return Fraction(math.prod(e.numerator for e in self.entries),
                        math.prod(e.denominator for e in self.entries))

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


class LocalInvariants(Value):
    """Complete Q_v-equivalence data of a form."""

    __slots__ = _fields = ("place", "dimension", "disc_class", "hasse", "signature")
    place: Place
    dimension: int
    disc_class: int
    hasse: int
    signature: Optional[tuple[int, int]]  # archimedean place only


def _local(form: DiagonalForm, p: Optional[int]) -> tuple[int, int, int]:
    """(Hasse parity, disc code, Witt index) of ``form`` at p, computed once."""
    data = form._memo.get(p)
    if data is None:
        if p is None:  # s negative entries: Hasse (-1)^(s(s-1)/2), disc (-1)^s
            pos, neg = form.signature()
            data = (neg * (neg - 1) // 2 & 1, neg & 1, min(pos, neg))
        else:
            parity, disc = _hasse_disc(form.reps, p)
            data = (parity, disc, _local_index(form.dim, parity, disc, p))
        form._memo[p] = data
    return data


def hasse_invariant(form: DiagonalForm, v: "Place | int | None") -> int:
    return 1 - 2 * _local(form, _as_place(v).prime)[0]


def local_invariants(form: DiagonalForm, v: "Place | int | None") -> LocalInvariants:
    place = _as_place(v)
    parity, disc, _ = _local(form, place.prime)
    return LocalInvariants(place, form.dim, disc, 1 - 2 * parity,
                           form.signature() if place.is_infinite else None)


def qp_equivalent(f: DiagonalForm, g: DiagonalForm,
                  v: "Place | int | None") -> bool:
    """Equivalence over Q_v: (dim, disc class, Hasse), signature at oo."""
    place = _as_place(v)
    if f.dim != g.dim:
        return False
    if place.is_infinite:
        return f.signature() == g.signature()
    return _local(f, place.prime)[:2] == _local(g, place.prime)[:2]


# ---------------------------------------------------------------------------
# Isotropy and Witt decomposition


def _local_index(dim: int, parity: int, disc: int, p: int) -> int:
    """Witt index over Q_p from (dim, disc code, Hasse parity), in closed form.

    k = dim // 2 planes, plus <c>, c = (-1)^k disc, in odd dimension, have
    disc (-1)^k and Hasse (-1, -1)^(k(k-1)/2) ((-1)^k, c).  The index is k
    if both agree, else k - 1 (forms of dimension >= 5 are isotropic), but
    k - 2 for the anisotropic 4-space: even dim, equal disc, other Hasse.
    """
    k, table, minus_one = dim // 2, _PAIRING[p % 4], _MINUS_ONE[p % 4]
    split = k * (k - 1) // 2 & table[minus_one << 3 | minus_one]  # Hasse of k planes
    if dim % 2:
        c = disc ^ (k & 1) * minus_one
        return k - (parity != split ^ (k & table[minus_one << 3 | c]))
    if disc != (k & 1) * minus_one:
        return k - 1
    return k - 2 * (parity != split)


def witt_index(form: DiagonalForm, v: "Place | int | None") -> int:
    """Number of hyperbolic planes split off over Q_v."""
    return _local(form, _as_place(v).prime)[2]


def anisotropic_dim(form: DiagonalForm, v: "Place | int | None") -> int:
    return form.dim - 2 * witt_index(form, v)


def _is_square(n: int) -> bool:
    return n > 0 and math.isqrt(n) ** 2 == n


@lru_cache(maxsize=1024)
def _prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in FactoredInteger.of(n).factors)


def _relevant_primes(reps: Sequence[int]) -> set[int]:
    primes = {2}
    for n in set(map(abs, reps)):
        primes.update(_prime_divisors(n))
    return primes


def witt_index_rational(form: DiagonalForm) -> int:
    """Witt index over Q: the least local Witt index (Hasse-Minkowski).

    Off S = {oo, 2, p | an entry} the form is unimodular, of index dim // 2
    less one in even dimension unless (-1)^(dim/2) disc is a rational
    square; with the real index that bounds the answer.  Q_p-forms of
    dimension >= 5 are isotropic, so no local index is below (dim - 3) // 2:
    a bound at that floor, or at dim <= 2, is the answer.  A pair a, -a s^2
    in dimension 3 or 4 splits off a plane.  Only the rest factor, for S.
    """
    index = form._memo.get("Q")
    if index is None:
        index = form._memo["Q"] = _rational_index(form)
    return index


def _rational_index(form: DiagonalForm) -> int:
    reps, dim = form.reps, form.dim  # rational squares are integer squares here
    unsplit = dim % 2 == 0 and not _is_square((-1) ** (dim // 2) * math.prod(reps))
    bound = min(_local(form, None)[2], dim // 2 - unsplit)
    floor = (dim - 3) // 2
    if dim <= 2 or bound <= floor:
        return bound
    if dim <= 4:
        for i, j in itertools.combinations(range(dim), 2):
            if _is_square(-reps[i] * reps[j]):
                # one plane; the rest <c> or <c, d> holds another iff -cd is a square
                rest = [r for k, r in enumerate(reps) if k not in (i, j)]
                return 1 + (len(rest) == 2 and _is_square(-rest[0] * rest[1]))
    for p in _relevant_primes(reps):
        bound = min(bound, _local(form, p)[2])
        if bound == floor:
            break
    return bound


def is_isotropic_rational(form: DiagonalForm) -> bool:
    """Isotropy over Q: Meyer's theorem (indefinite suffices) from
    dimension 5 on, otherwise a positive ``witt_index_rational``."""
    if form.dim >= 5:
        return witt_index(form, None) > 0
    return witt_index_rational(form) > 0


# ---------------------------------------------------------------------------
# Forms over F_p and genus comparison


def fp_type_twisted(m: int, n: int) -> bool:
    """Whether the F_p type of <1^m, (-1)^n> depends on p.  d = m + n even.

    False: plus type at every odd p.  True: the type is (-1/p), plus for
    p = 1 mod 4 and minus for p = 3 mod 4.  See ``fp_type``.
    """
    d = m + n
    if d % 2 or m < 0 or n < 0:
        raise ValueError("need m, n >= 0 with even d")
    return (n + d // 2) % 2 == 1


def fp_type(m: int, n: int, p: int) -> int:
    """Type of the reduction of <1^m, (-1)^n> mod an odd prime p.

    +1 (plus type, split even orthogonal group) iff disc * (-1)^(d/2)
    = (-1)^(n + d/2) is a square mod p; -1 otherwise.  d = m + n even.
    """
    twisted = fp_type_twisted(m, n)
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    return -1 if twisted and p % 4 == 3 else 1


def genus_classes(d: int) -> list[list[tuple[int, int]]]:
    """Genus classes of the signatures (m, d - m), 1 <= m < d: at fixed d,
    n = n2 mod 4 is m = m2 mod 4.  Least m first, in and across classes."""
    return [[(m, d - m) for m in range(r, d, 4)] for r in range(1, min(d, 5))]


def genus_first_failure(m: int, n: int, m2: int, n2: int) -> Optional[str]:
    """First failing finite place as a string, or None if genus-equal.

    Both forms are odd unimodular Z-lattices (Conway-Sloane, SPLAG ch. 15).
    They are Z_p-equivalent at every finite p iff the ranks agree
    ("rank"); the determinants (-1)^n, (-1)^n2 agree in Q_p^*/squares at
    every odd p, i.e. n = n2 mod 2, first failing at p = 3, the least p
    where -1 is not a square ("p=3"); and at p = 2 the determinants mod 8
    and the oddities m - n mod 8 agree, which at equal rank and parity
    means n = n2 mod 4 ("p=2").
    """
    for mm, nn in ((m, n), (m2, n2)):
        if mm < 1 or nn < 1:
            raise ValueError("need m, n >= 1")
    if m + n != m2 + n2:
        return "rank"
    if (n - n2) % 2:
        return "p=3"
    if (n - n2) % 4:
        return "p=2"
    return None
