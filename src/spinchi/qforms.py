"""Local and global invariants of diagonal quadratic forms over Q.

Places are the archimedean place and the primes.  For a diagonal form
<a_1, ..., a_k> we compute, per place: the square class of the
discriminant, the Hasse invariant prod_{i<j} (a_i, a_j)_v, the Witt
index and the anisotropic dimension.  Rational (global) isotropy is
decided by checking every completion, which only needs the places
dividing 2 * prod(entries): everywhere else the form is unimodular of
dimension >= 3 and automatically isotropic.

Hilbert symbols use the standard closed formulas (Serre, A Course in
Arithmetic, III.1): for odd p and a = p^alpha u, b = p^beta w,

    (a, b)_p = (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha,

and for p = 2, with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2,

    (a, b)_2 = (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)).

The +-1 forms <1^m, (-1)^n> are odd unimodular Z-lattices, and their
genus at the finite places is fixed by the rank d = m + n and n mod 4
(``genus_first_failure``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactq import factor, is_prime

Scalar = int | Fraction


@dataclass(frozen=True)
class Place:
    """A place of Q: ``Place(None)`` is archimedean, ``Place(p)`` is p-adic."""

    prime: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

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


def _as_place(v: "Place | int | None") -> Place:
    if isinstance(v, Place):
        return v
    return Place(v)


def _int_rep(a: Scalar) -> int:
    """Integer in the same square class: num * den for a fraction."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("need a nonzero value")
    return a.numerator * a.denominator


def squarefree_rep(a: Scalar) -> int:
    """The squarefree integer representing the square class of ``a``."""
    fi = factor(_int_rep(a))
    out = fi.sign
    for p, e in fi.factors:
        if e % 2:
            out *= p
    return out


def _val_unit(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: Scalar, b: Scalar, v: "Place | int | None") -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution in Q_v."""
    place = _as_place(v)
    a, b = _int_rep(a), _int_rep(b)
    if place.is_infinite:
        return -1 if a < 0 and b < 0 else 1
    p = place.prime
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        exponent = ((u - 1) // 2) * ((w - 1) // 2) \
            + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if exponent % 2 else 1
    exponent = alpha * beta * ((p - 1) // 2)
    sign = -1 if exponent % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


def square_class_key(a: Scalar, v: "Place | int | None") -> tuple:
    """Canonical key for the square class of ``a`` in Q_v^* / squares."""
    place = _as_place(v)
    n = _int_rep(a)
    if place.is_infinite:
        return (1 if n > 0 else -1,)
    p = place.prime
    val, u = _val_unit(abs(n), p)
    u *= 1 if n > 0 else -1
    if p == 2:
        return (val % 2, u % 8)
    return (val % 2, _legendre(u, p))


@dataclass(frozen=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form sum a_i x_i^2 over Q."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = tuple(Fraction(e) for e in self.entries)
        if not entries:
            raise ValueError("need at least one entry")
        if any(e == 0 for e in entries):
            raise ValueError("entries must be nonzero")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def pm(cls, m: int, n: int) -> "DiagonalForm":
        """The form with m entries +1 followed by n entries -1."""
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")
        return cls((Fraction(1),) * m + (Fraction(-1),) * n)

    @classmethod
    def parse(cls, text: str) -> "DiagonalForm":
        """Comma-separated rationals, or the shortcut ``b(m,n)``."""
        text = text.strip()
        if text.startswith("b(") and text.endswith(")"):
            m, n = (int(part) for part in text[2:-1].split(","))
            return cls.pm(m, n)
        return cls(tuple(Fraction(part.strip()) for part in text.split(",")))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def signature(self) -> tuple[int, int]:
        pos = sum(1 for e in self.entries if e > 0)
        return pos, self.dim - pos

    def disc(self) -> Fraction:
        return math.prod(self.entries, start=Fraction(1))

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


@dataclass(frozen=True)
class LocalInvariants:
    """Complete Q_v-equivalence data of a form."""

    place: Place
    dimension: int
    disc_class: tuple
    hasse: int
    signature: Optional[tuple[int, int]]  # archimedean place only


def hasse_invariant(form: DiagonalForm, v: "Place | int | None") -> int:
    place = _as_place(v)
    sign = 1
    entries = form.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            sign *= hilbert_symbol(entries[i], entries[j], place)
    return sign


def local_invariants(form: DiagonalForm, v: "Place | int | None") -> LocalInvariants:
    place = _as_place(v)
    return LocalInvariants(
        place=place,
        dimension=form.dim,
        disc_class=square_class_key(form.disc(), place),
        hasse=hasse_invariant(form, place),
        signature=form.signature() if place.is_infinite else None,
    )


def qp_equivalent(f: DiagonalForm, g: DiagonalForm,
                  v: "Place | int | None") -> bool:
    """Equivalence over Q_v: (dim, disc class, Hasse), signature at oo."""
    place = _as_place(v)
    if f.dim != g.dim:
        return False
    if place.is_infinite:
        return f.signature() == g.signature()
    return (square_class_key(f.disc(), place) == square_class_key(g.disc(), place)
            and hasse_invariant(f, place) == hasse_invariant(g, place))


# ---------------------------------------------------------------------------
# Isotropy and Witt decomposition


def _sf_mul(a: int, b: int) -> int:
    return squarefree_rep(a * b)


def _local_isotropic(dim: int, disc: int, hasse: int, place: Place) -> bool:
    """Isotropy over Q_p from the invariant triple (finite places)."""
    if dim >= 5:
        return True
    if dim == 4:
        return not (square_class_key(disc, place) == square_class_key(1, place)
                    and hasse == -hilbert_symbol(-1, -1, place))
    if dim == 3:
        return hasse == hilbert_symbol(-1, -disc, place)
    if dim == 2:
        return square_class_key(disc, place) == square_class_key(-1, place)
    return False


def witt_index(form: DiagonalForm, v: "Place | int | None") -> int:
    """Number of hyperbolic planes split off over Q_v."""
    place = _as_place(v)
    if place.is_infinite:
        pos, neg = form.signature()
        return min(pos, neg)
    dim = form.dim
    disc = squarefree_rep(form.disc())
    hasse = hasse_invariant(form, place)
    index = 0
    while dim >= 2 and _local_isotropic(dim, disc, hasse, place):
        # peel one hyperbolic plane: disc flips sign, the Hasse invariant
        # picks up (-1, new disc)_p
        dim -= 2
        disc = _sf_mul(disc, -1)
        hasse *= hilbert_symbol(-1, disc, place)
        index += 1
    return index


def anisotropic_dim(form: DiagonalForm, v: "Place | int | None") -> int:
    return form.dim - 2 * witt_index(form, v)


def _relevant_primes(form: DiagonalForm) -> list[int]:
    primes = {2}
    for e in form.entries:
        fi = factor(_int_rep(e))
        primes.update(p for p, _ in fi.factors)
    return sorted(primes)


def is_isotropic_rational(form: DiagonalForm) -> bool:
    """Hasse-Minkowski: isotropic over Q iff over R and every Q_p.

    Only p | 2 * prod(entries) need checking; elsewhere the invariants
    are trivial and dimension >= 3 forms are isotropic, while the
    dimension <= 2 cases are decided globally anyway.
    """
    dim = form.dim
    if dim <= 1:
        return False
    pos, neg = form.signature()
    if min(pos, neg) == 0:
        return False
    disc = squarefree_rep(form.disc())
    if dim == 2:
        return disc == -1
    if dim >= 5:
        return True
    for p in _relevant_primes(form):
        place = Place(p)
        if not _local_isotropic(dim, disc, hasse_invariant(form, place), place):
            return False
    return True


def witt_index_rational(form: DiagonalForm) -> int:
    """Witt index over Q, by peeling hyperbolic planes at invariant level."""
    dim = form.dim
    pos, neg = form.signature()
    disc = squarefree_rep(form.disc())
    places = [Place(p) for p in _relevant_primes(form)]
    hasse = {place: hasse_invariant(form, place) for place in places}
    index = 0
    while dim >= 2:
        if min(pos, neg) == 0:
            break
        if dim == 2:
            if disc != -1:
                break
        elif dim <= 4:
            if not all(_local_isotropic(dim, disc, hasse[pl], pl) for pl in places):
                break
        dim -= 2
        pos -= 1
        neg -= 1
        disc = _sf_mul(disc, -1)
        for pl in places:
            hasse[pl] *= hilbert_symbol(-1, disc, pl)
        index += 1
    return index


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


def genus_equal_finite_places(m: int, n: int, m2: int, n2: int) -> bool:
    """Z_p-equivalence of <1^m,(-1)^n> and <1^m2,(-1)^n2> at all finite p.

    The closed rule of ``genus_first_failure``: equal rank and n = n2 mod 4.
    """
    return genus_first_failure(m, n, m2, n2) is None


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
