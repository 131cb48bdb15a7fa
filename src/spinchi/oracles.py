"""Reference implementations, independent of the fast code they check.

Only ``cli`` (for ``spinchi verify``) and the tests import this module.
``spinchi verify oracles`` and the tests compare ``qforms.hilbert_symbol``
against ``hilbert_bruteforce``, and the Hasse invariants, Witt indices,
Q_p-equivalence and rational isotropy of ``qforms`` against the pairwise
referee below (``hasse_pairwise``, ``witt_index_peel``,
``qp_equivalent_pairwise``, ``witt_index_rational_peel``).
``spinchi verify clifford`` and the tests compare Clifford products
against the term-by-term sums of ``product_coefficient`` (signs from
``blade_mul``, which counts inversions and shares no code with
``sign_mask`` or the packed kernel), and ``is_spin_element`` against
``is_spin_element_conjugates``, which forms every conjugate g e_i gbar.
Criterion 6, ``spinchi verify oracles`` and the tests count |SO(F_p)|
with ``so_order_bruteforce``.  The tests check ``ggroups.weyl_ratio``
against quotients of ``weyl_order``, ``exactq.bernoulli`` against the
Akiyama-Tanigawa triangle ``bernoulli_akiyama_tanigawa``, and
``exactq.gen_bernoulli_mod4`` against the defining sum ``bernoulli_poly``,
which reads that triangle, not the zigzag numbers of ``exactq``.  They
check ``euler.adelic_assembly_exact``, a product of per-degree ledger
entries, against ``adelic_assembly_direct``, the whole odd-prime Euler
product times 2^(d(d-1)) over ``vol_compact_dual_direct``, the volume
taken one Gamma factor at a time, where ``ggroups.vol_compact_dual``
extends vol(d - 1).  The tests probe tangent vectors over ``DualNumbers``:
1 + eps X is spin for X in the span of ``lie_algebra_basis``, whose
torsion part is ``two_torsion``'s; ``bracket`` is x y - y x.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .clifford import Blade, CliffordElement, CoefficientRing, Signature
from .exactq import (FactoredInteger, PiExact, Scalar, gamma_half, is_prime,
                     l_psi_exact_odd, zeta_even_exact)
from .ggroups import SpinGroupDescriptor, order_degrees, weyl_ratio
from .qforms import DiagonalForm


@lru_cache(maxsize=16)
def _squares_mod(modulus: int) -> frozenset[int]:
    return frozenset(x * x % modulus for x in range(modulus))


def hilbert_bruteforce(a: int, b: int, prime: Optional[int]) -> int:
    """(a, b)_v by exhaustive search for z^2 = a x^2 + b y^2.

    Squarefree a, b only.  Modulus p^4 (2^6 at p = 2) makes every
    primitive solution Hensel-liftable, so the search is exact.  If p | x
    and p | y, then p^2 | z^2 = a x^2 + b y^2 and the triple is not
    primitive, so x or y can be scaled to 1: two sweeps, each linear in
    the modulus.  ``prime`` None is the real place.
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
    return -1


# ---------------------------------------------------------------------------
# Pairwise referee for the local and rational invariants of diagonal forms
#
# The O(d^2) Hasse product and the Witt peel on squarefree representatives,
# with Serre's closed Hilbert formulas on whole integers.  It shares no code
# with the square-class keys of ``qforms``.


@lru_cache(maxsize=1 << 16)
def squarefree_rep(a: Fraction | int) -> int:
    """The squarefree integer representing the square class of ``a``."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("need a nonzero value")
    fi = FactoredInteger.of(a.numerator * a.denominator)
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
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert_closed(a: int, b: int, prime: Optional[int]) -> int:
    """(a, b)_v for nonzero integers by the closed formulas on v_p and units."""
    if prime is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _val_unit(a, prime)
    beta, w = _val_unit(b, prime)
    if prime == 2:
        exponent = ((u - 1) // 2) * ((w - 1) // 2) \
            + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if exponent % 2 else 1
    sign = -1 if alpha * beta * ((prime - 1) // 2) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, prime)
    if alpha % 2:
        sign *= _legendre(w, prime)
    return sign


def hasse_pairwise(entries: Sequence, prime: Optional[int]) -> int:
    """prod_{i<j} (a_i, a_j)_v, one Hilbert symbol per pair."""
    reps = [squarefree_rep(a) for a in entries]
    sign = 1
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            sign *= hilbert_closed(reps[i], reps[j], prime)
    return sign


def _is_local_square(n: int, prime: int) -> bool:
    """Whether the squarefree integer n is a square in Q_prime."""
    if prime == 2:
        return n % 8 == 1
    return n % prime != 0 and _legendre(n, prime) == 1


def _isotropic_pairwise(dim: int, disc: int, hasse: int, prime: int) -> bool:
    if dim >= 5:
        return True
    if dim == 4:
        return not (_is_local_square(disc, prime)
                    and hasse == -hilbert_closed(-1, -1, prime))
    if dim == 3:
        return hasse == hilbert_closed(-1, -disc, prime)
    return _is_local_square(-disc, prime)  # dim == 2: callers pass dim >= 2


def _disc_rep(entries: Sequence) -> int:
    return squarefree_rep(math.prod(a.numerator * a.denominator for a in entries))


def qp_equivalent_pairwise(f: Sequence, g: Sequence, prime: Optional[int]) -> bool:
    """Equivalence over Q_v of two diagonal forms given by their entries."""
    if len(f) != len(g):
        return False
    if prime is None:
        return sum(a > 0 for a in f) == sum(a > 0 for a in g)
    return (_is_local_square(squarefree_rep(_disc_rep(f) * _disc_rep(g)), prime)
            and hasse_pairwise(f, prime) == hasse_pairwise(g, prime))


def witt_index_peel(entries: Sequence, prime: Optional[int]) -> int:
    """Witt index over Q_v, peeling planes on squarefree representatives."""
    dim = len(entries)
    if prime is None:
        pos = sum(a > 0 for a in entries)
        return min(pos, dim - pos)
    disc = _disc_rep(entries)
    hasse = hasse_pairwise(entries, prime)
    index = 0
    while dim >= 2 and _isotropic_pairwise(dim, disc, hasse, prime):
        dim -= 2
        disc = squarefree_rep(-disc)
        hasse *= hilbert_closed(-1, disc, prime)
        index += 1
    return index


def witt_index_rational_peel(entries: Sequence) -> int:
    """Witt index over Q: the peel at every place dividing 2 * prod(entries)."""
    dim = len(entries)
    pos = sum(a > 0 for a in entries)
    neg = dim - pos
    disc = _disc_rep(entries)
    primes = {2}
    for a in entries:
        primes.update(p for p, _ in FactoredInteger.of(squarefree_rep(a)).factors)
    hasse = {p: hasse_pairwise(entries, p) for p in primes}
    index = 0
    while dim >= 2 and min(pos, neg) > 0:
        if dim == 2:
            if disc != -1:
                break
        elif dim <= 4:
            if not all(_isotropic_pairwise(dim, disc, hasse[p], p) for p in primes):
                break
        dim -= 2
        pos -= 1
        neg -= 1
        disc = squarefree_rep(-disc)
        for p in primes:
            hasse[p] *= hilbert_closed(-1, disc, p)
        index += 1
    return index


# ---------------------------------------------------------------------------
# Weyl group orders and Bernoulli polynomials, by their definitions


def weyl_order(series: str, rank: int) -> int:
    """Order of the Weyl group of type B_rank or D_rank.

    |W(B_l)| = 2^l l!, |W(D_l)| = 2^(l-1) l!; D_1 is the trivial group.
    """
    if rank < 1:
        raise ValueError("need rank >= 1")
    if series == "B":
        return 2 ** rank * math.factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    raise ValueError(f"unknown series {series!r}, expected 'B' or 'D'")


def bernoulli_akiyama_tanigawa(n_max: int) -> list[Fraction]:
    """B_0, ..., B_n_max by the Akiyama-Tanigawa triangle, with B_1 = -1/2.

    After step m the first entry of the row is B_m.  The triangle
    natively produces B_1 = +1/2; that single value is flipped to the
    convention of ``exactq.bernoulli``.
    """
    row = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(-row[0] if m == 1 else row[0])
    return out


def bernoulli_poly(n: int, x: Scalar) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    b = bernoulli_akiyama_tanigawa(n)
    return sum(
        (math.comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1)),
        start=Fraction(0),
    )


# ---------------------------------------------------------------------------
# The adelic assembly, as the product of its local volumes


def vol_compact_dual_direct(d: int) -> PiExact:
    """2^((3d - d^2)/2) * prod_{j=2}^{d} pi^(j/2) / Gamma(j/2), one j at a time."""
    out = PiExact(Fraction(2) ** ((3 * d - d * d) // 2), 0)
    for j in range(2, d + 1):
        out = out * PiExact(Fraction(1), j) / gamma_half(j)
    return out


def adelic_assembly_direct(m: int, n: int) -> Fraction:
    """chi as sign * 2 C(l, k) * 2^(d(d-1)) / vol * the odd-prime Euler product.

    The product over the degrees e of ``order_degrees(m, n)`` of L(psi, e)
    where twisted, else zeta(e) (1 - 2^(-e)), taken whole and made
    rational once, with no per-degree ledger.  m, n not both odd.
    """
    if m % 2 and n % 2:
        raise ValueError("chi = 0 for m, n both odd; no assembly defined")
    desc = SpinGroupDescriptor(m, n)
    out = PiExact(Fraction(2) ** (desc.d * (desc.d - 1)), 0) / vol_compact_dual_direct(desc.d)
    for e, twisted in order_degrees(m, n)[1]:
        out = out * (l_psi_exact_odd(e) if twisted
                     else zeta_even_exact(e // 2) * (1 - Fraction(1, 2 ** e)))
    sign = -1 if (m * n // 2) % 2 else 1
    return sign * weyl_ratio(desc) * out.as_rational()


# ---------------------------------------------------------------------------
# Finite orthogonal groups, by enumeration

SO_ORDER_BUDGET = 10 ** 8
"""Largest p^(d^2) that ``so_order_bruteforce`` accepts."""


def so_order_bruteforce(form: DiagonalForm, p: int) -> int:
    """|SO(form)(F_p)| by direct enumeration.  Oracle, not for large inputs.

    Counts solutions of M^T B M = B, det M = 1 column by column, pruned
    by the Gram conditions; deliberately naive, independent of the order
    formulas of ``ggroups.spin_order_fp`` that it checks.  Requires every
    entry to be a p-adic unit so the reduction mod p is nondegenerate.
    Refuses when p^(d^2) exceeds ``SO_ORDER_BUDGET``.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    d = form.dim
    if p ** (d * d) > SO_ORDER_BUDGET:
        raise ValueError(f"p^(d^2) = {p ** (d * d)} exceeds budget {SO_ORDER_BUDGET}")
    q = []
    for e in form.entries:
        if e.numerator % p == 0 or e.denominator % p == 0:
            raise ValueError(f"entry {e} is not a unit at {p}")
        q.append(e.numerator * pow(e.denominator, -1, p) % p)

    vectors = list(itertools.product(range(p), repeat=d))
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for vec in vectors:
        norm = sum(qi * x * x for qi, x in zip(q, vec)) % p
        by_norm.setdefault(norm, []).append(vec)

    def det_mod_p(cols: list[tuple[int, ...]]) -> int:
        mat = [list(row) for row in zip(*cols)]
        det = 1
        for i in range(d):
            pivot = next((r for r in range(i, d) if mat[r][i] % p), None)
            if pivot is None:
                return 0
            if pivot != i:
                mat[i], mat[pivot] = mat[pivot], mat[i]
                det = -det
            det = det * mat[i][i] % p
            inv = pow(mat[i][i], -1, p)
            for r in range(i + 1, d):
                factor = mat[r][i] * inv % p
                if factor:
                    mat[r] = [(x - factor * y) % p
                              for x, y in zip(mat[r], mat[i])]
        return det % p

    count = 0
    chosen: list[tuple[int, ...]] = []
    weighted: list[tuple[int, ...]] = []   # q_i * (chosen col)_i, for dot products

    def extend(col: int) -> None:
        nonlocal count
        if col == d:
            if det_mod_p(chosen) == 1:
                count += 1
            return
        for vec in by_norm.get(q[col], ()):
            if all(sum(wi * x for wi, x in zip(w, vec)) % p == 0
                   for w in weighted):
                chosen.append(vec)
                weighted.append(tuple(qi * x % p for qi, x in zip(q, vec)))
                extend(col + 1)
                chosen.pop()
                weighted.pop()

    extend(0)
    return count


# ---------------------------------------------------------------------------
# Clifford products and spin membership, term by term


def blade_mul(j: Blade, k: Blade, sig: Signature) -> tuple[int, Blade]:
    """(sign, blade) with e(J) e(K) = sign * e(J xor K).

    The sign is (-1)^inversions times the product of squares of repeated
    indices; inversions counts pairs (a, b) in J x K with a > b.
    """
    inv = 0
    kk = k
    while kk:
        low = kk & -kk
        inv += (j >> low.bit_length()).bit_count()
        kk ^= low
    neg_squares = ((j & k) >> sig.m).bit_count()
    sign = -1 if (inv + neg_squares) & 1 else 1
    return sign, j ^ k


def product_coefficient(x: CliffordElement, y: CliffordElement, blade: Blade):
    """The coefficient of ``blade`` in x y: the sum of x_J y_K e(J) e(K)
    over J xor K = blade, signs from ``blade_mul``, reduced after every term."""
    ring = x.ring
    total = ring.zero
    for b1, c1 in x.coeffs.items():
        c2 = y.coeffs.get(b1 ^ blade)
        if c2 is not None:
            sign, _ = blade_mul(b1, b1 ^ blade, x.sig)
            total = ring.from_int(total + sign * (c1 * c2))
    return total


def product_termwise(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """x y, one ``product_coefficient`` per blade J xor K it can reach."""
    blades = {b1 ^ b2 for b1 in x.coeffs for b2 in y.coeffs}
    return CliffordElement(x.sig, x.ring, {b: product_coefficient(x, y, b) for b in blades})


def is_spin_element_conjugates(g: CliffordElement) -> bool:
    """Spin membership by forming g gbar and each conjugate g e_i gbar.

    Raises ValueError on odd-blade support, as ``is_spin_element`` does.
    """
    if not g.is_even():
        raise ValueError("spin elements live in the even subalgebra")
    gbar = g.conjugate()
    if g * gbar != CliffordElement.one(g.sig, g.ring):
        return False
    for i in range(1, g.sig.d + 1):
        h = g * CliffordElement.generator(g.sig, g.ring, i) * gbar
        if any(b.bit_count() != 1 for b in h.coeffs):
            return False
    return True


# ---------------------------------------------------------------------------
# Tangent vectors: dual numbers and the Lie algebra of the spin group


class Dual(tuple):
    """a + eps*b with eps^2 = 0, stored as the pair (a, b)."""

    __slots__ = ()

    def __new__(cls, a, b):
        return tuple.__new__(cls, (a, b))

    def __add__(self, other):
        return Dual(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        return Dual(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return Dual(-self[0], -self[1])

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self[0] * other[0], self[0] * other[1] + self[1] * other[0])
        return Dual(self[0] * other, self[1] * other)

    __rmul__ = __mul__


class DualNumbers(CoefficientRing):
    """base[eps]/(eps^2); elements are ``Dual`` pairs (a, b) meaning a + eps*b."""

    def __init__(self, base: CoefficientRing):
        self.base = base
        self.name = f"{base.name}[eps]"
        self.zero = Dual(base.zero, base.zero)
        self.one = Dual(base.one, base.zero)

    def from_int(self, k):
        """Reduce both parts of a pair (a, b), or read an int k as (k, 0)."""
        a, b = k if isinstance(k, tuple) else (k, 0)
        return Dual(self.base.from_int(a), self.base.from_int(b))


def two_torsion(ring: CoefficientRing) -> tuple:
    """Generators of {a : 2a = 0}: N/2 in Z/N for even N, none in Z or Q."""
    if isinstance(ring, DualNumbers):
        z, gens = ring.base.zero, two_torsion(ring.base)
        return tuple(Dual(g, z) for g in gens) + tuple(Dual(z, g) for g in gens)
    modulus = getattr(ring, "modulus", 1)  # Z and Q have none
    return () if modulus % 2 else (modulus // 2,)


def lie_algebra_basis(sig: Signature, ring: CoefficientRing) -> list[CliffordElement]:
    """Spanning set of the Lie algebra of the spin group over the ring.

    All grade-2 blades, plus a * e(J) for each generator a of the
    2-torsion of the ring and each even blade of grade != 2.  Over rings
    without 2-torsion (Z, Q, F_p for odd p) the grade-2 part is all of it.
    """
    out = [CliffordElement.blade(sig, ring, 1 << i | 1 << j)
           for i, j in itertools.combinations(range(sig.d), 2)]
    for a in two_torsion(ring):
        out += [CliffordElement.blade(sig, ring, blade, a) for blade in range(1 << sig.d)
                if blade.bit_count() % 2 == 0 and blade.bit_count() != 2]
    return out


def bracket(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    return x * y - y * x
