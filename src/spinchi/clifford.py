"""Clifford algebras of diagonal forms x_1^2+..+x_m^2 - x_{m+1}^2-..-x_d^2.

Blades are bitmasks: bit i-1 set means the generator e_i is present, so
e({1,2}) is the mask 0b11.  The sign of e(J) e(K) is the parity of the
inversions of the concatenation plus one -1 per repeated index with
negative square; a product folds both into one sign mask per left blade
J, so each term costs an AND and a popcount.

Z, Q, F_p and Z/N share one coefficient protocol (``CoefficientRing``):
elements combine with their own +, - and *, and the ring's ``from_int``
maps any result to its one stored form.  ``CliffordElement`` applies it
once, in its constructor, before dropping zeros; so a product sums raw
terms per output blade and is reduced once.  Nothing else is assumed, so
a ring of pairs, such as ``oracles.DualNumbers``, runs the same code.

Over Z, Z/N and F_p (rings whose ``zero`` is an int, and which store
every element as an int) a product with at least ``PACKED_MIN_TERMS``
term products, whose denser operand fills at least a quarter of the 2^d
blades, runs the packed kernel; every other product (Q, rings of pairs,
sparse operands) runs the sign-mask loop.  The kernel walks the sparser
operand x and packs the denser one, y; when x is the right operand it
computes x y as the reversal of rev(y) rev(x).  y becomes two
non-negative ints P and Q, one slot of w bits per blade, holding the
positive and the negative parts of its coefficients; w is the bit length
of |supp y| * max|x| * max|y|, plus one, rounded up to whole bytes, so
no slot of a sum below ever carries into the next (every slot is a
sub-sum of the same terms).  Each left blade J splits at h = d // 2 into
its low part L and high part H, and e(J) = e(L) e(H).  Giant steps walk
the high parts of x in Gray-code order, keeping (P, Q) = e(H) y: a step
to H xor e_k is left multiplication by e_k, which swaps the slots K with
e_k e(K) = -e(K xor e_k) between P and Q (one character mask) and moves
slot K to K xor e_k (a mask, two shifts, an or), then swaps P and Q when
e(H xor e_k) = -e_k e(H); both signs are parities of sign_mask(e_k) & K
and & H.  Baby sums add c P and c Q (c Q and c P for c < 0) to the
accumulator pair A_L for each coefficient c of x on L | H.  A Horner
fold adds e_k A_(L | e_k) to A_L for k = h - 1 down to 0, leaving x y in
A_0 after at most 2^(d-h) + 2^h moves, not one per left blade; its
difference plus 2^(w-1) in each slot is unpacked once.  The masks depend
only on d, m and w and are built on first use and cached.

The 2-adic exponential and logarithm check their input up front (4 times
the integral Lie algebra for exp, 1 + 4*C_0 for log, else
TwoAdicIntegralityError), then run the truncated series over Z/2^K,
dividing by k exactly: shift out v_2(k), multiply by the inverse of the
odd part.  K exceeds the requested precision by the most bits a
division can cost, so the result reduced mod 2^bits is exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Any, Iterable

from .exactq import Value, is_prime

Blade = int

# Fewest term products |supp x| * |supp y| of an integer product that
# take the packed kernel; below it the sign-mask loop was as fast or
# faster at d = 6..10, since packing and unpacking cost 2^d slots.
PACKED_MIN_TERMS = 4096


class TwoAdicIntegralityError(ArithmeticError):
    """A 2-adically non-integral coefficient where an integer was required."""


class Signature(Value):
    """Diagonal form of signature (m, n): e_i^2 = +1 for i <= m, else -1."""

    __slots__ = _fields = ("m", "n")

    def __init__(self, m: int, n: int) -> None:
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m, n >= 0 with m + n >= 1")
        if m + n > 63:
            raise ValueError("at most 63 generators supported")
        super().__init__(m, n)

    @property
    def d(self) -> int:
        return self.m + self.n


def blade_from_indices(indices: Iterable[int]) -> Blade:
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError("generator indices start at 1")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError("repeated index in blade")
        mask |= bit
    return mask


def blade_indices(blade: Blade) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(blade.bit_length()) if blade >> i & 1)


def blade_str(blade: Blade) -> str:
    return "e{" + ",".join(str(i) for i in blade_indices(blade)) + "}"


def sign_mask(j: Blade, m: int) -> int:
    """S with e(J) e(K) = (-1)^popcount(S & K) e(J xor K) for every K.

    Bit i of S is the parity of the bits of J above i (the inversions
    e_{i+1} makes with J), xor bit i of J when i >= m (e_{i+1}^2 = -1).
    """
    return _gray_rank(j >> 1) ^ (j >> m << m)


def _gray_rank(blade: Blade) -> int:
    """Position of ``blade`` in the binary reflected Gray code."""
    for shift in (1, 2, 4, 8, 16, 32):
        blade ^= blade >> shift
    return blade


@lru_cache(maxsize=8)
def _slot_masks(d: int, m: int, width: int) -> tuple[tuple[tuple[int, int, int, int], ...], int]:
    """Masks for 2^d little-endian slots of ``width`` bytes.

    Per generator bit k: ``sign_mask(e_k, m)``, the slots L with
    e_k e(L) = -e(L xor e_k), the slots with bit k set, and the shift of
    2^k slots in bits; then the bias, 2^(8 width - 1) in every slot.
    Flips over 2^(i+1) slots repeat those over 2^i, complemented when
    bit i of the sign mask is set.
    """
    ones, zeros = b"\xff" * width, bytes(width)
    complement = bytes.maketrans(b"\x00\xff", b"\xff\x00")
    steps = []
    for k in range(d):
        bit = 1 << k
        s = sign_mask(bit, m)
        flip = zeros
        for i in range(d):
            flip += flip.translate(complement) if s >> i & 1 else flip
        high = (zeros * bit + ones * bit) * (1 << (d - k - 1))
        steps.append((s, int.from_bytes(flip, "little"), int.from_bytes(high, "little"),
                      (8 * width) << k))
    bias = (bytes(width - 1) + b"\x80") * (1 << d)
    return tuple(steps), int.from_bytes(bias, "little")


def _left_mul(p: int, q: int, step: tuple[int, int, int, int]) -> tuple[int, int]:
    """e_k (P - Q) for the masks ``step`` of generator k: swap the flipped
    slots between P and Q, then move each slot L to L xor e_k."""
    _, flip, high, shift = step
    t = (p ^ q) & flip
    p, q = p ^ t, q ^ t
    hp, hq = p & high, q & high
    return hp >> shift | (p ^ hp) << shift, hq >> shift | (q ^ hq) << shift


def _packed_product(x: dict[Blade, int], y: dict[Blade, int], sig: Signature) -> dict[Blade, int]:
    """Unreduced coefficients of x y for int coefficients, by the packed
    kernel of the module docstring; x and y must be nonempty."""
    reverse = len(x) > len(y)
    if reverse:
        x, y = ({b: -c if b.bit_count() & 2 else c for b, c in z.items()} for z in (y, x))
    d, m, n, h = sig.d, sig.m, 1 << sig.d, sig.d // 2
    bound = len(y) * max(map(abs, x.values())) * max(map(abs, y.values()))
    width = (bound.bit_length() + 8) // 8
    steps, bias = _slot_masks(d, m, width)
    halves = bytearray(n * width), bytearray(n * width)
    for b, c in y.items():
        halves[c < 0][b * width:(b + 1) * width] = abs(c).to_bytes(width, "little")
    p, q = (int.from_bytes(half, "little") for half in halves)
    low = (1 << h) - 1
    by_high: dict[Blade, list] = {}
    for b, c in x.items():
        by_high.setdefault(b & ~low, []).append((b & low, c))
    acc = [(0, 0)] * (1 << h)
    j = 0
    for high in sorted(by_high, key=_gray_rank):
        diff = j ^ high
        while diff:
            bit = diff & -diff
            diff ^= bit
            step = steps[bit.bit_length() - 1]
            p, q = _left_mul(p, q, step)
            if (step[0] & j).bit_count() & 1:
                p, q = q, p
            j ^= bit
        for lo, c in by_high[high]:
            a_p, a_q = acc[lo]
            acc[lo] = (a_p + c * p, a_q + c * q) if c > 0 else (a_p - c * q, a_q - c * p)
    for k in reversed(range(h)):
        for lo in range(1 << k):
            up_p, up_q = _left_mul(*acc[lo | 1 << k], steps[k])
            acc[lo] = acc[lo][0] + up_p, acc[lo][1] + up_q
    raw = (acc[0][0] + bias - acc[0][1]).to_bytes(n * width, "little")
    half = 1 << (8 * width - 1)
    out = {}
    for blade in range(n):
        c = int.from_bytes(raw[blade * width:(blade + 1) * width], "little") - half
        if c:
            out[blade] = -c if reverse and blade.bit_count() & 2 else c
    return out


# ---------------------------------------------------------------------------
# Coefficient rings


class CoefficientRing:
    """Commutative ring with identity whose elements are Python numbers.

    Elements combine with their own +, - and *; ``from_int`` maps any
    such result, or an int, to the ring's one stored form, so equality of
    stored forms is equality in the ring.  A ring whose ``zero`` is an
    int stores every element as an int, which the packed product relies
    on.
    """

    name = "ring"
    zero: Any
    one: Any

    def from_int(self, k):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        # structural: two Z/8 instances are the same ring
        return isinstance(other, CoefficientRing) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


def _integral(k) -> int:
    """k as an int: an int, or a Fraction with denominator 1."""
    if isinstance(k, Fraction):
        if k.denominator == 1:
            return k.numerator
    elif isinstance(k, int):
        return int(k)
    raise TypeError(f"{k!r} is not an integer")


class IntegerRing(CoefficientRing):
    name = "Z"
    zero = 0
    one = 1

    def from_int(self, k):
        return k if type(k) is int else _integral(k)


class RationalRing(IntegerRing):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)


class ModularRing(CoefficientRing):
    """Z/modulus, elements stored as ints in [0, modulus)."""

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        self.name = f"Z/{modulus}"
        self.zero = 0
        self.one = 1

    def from_int(self, k):
        return (k if type(k) is int else _integral(k)) % self.modulus


class PrimeField(ModularRing):
    """F_p = Z/p, elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("p must be prime")
        super().__init__(p)
        self.p = p
        self.name = f"F_{p}"


ZZ = IntegerRing()
QQ = RationalRing()


# ---------------------------------------------------------------------------
# Elements


class CliffordElement:
    """Finite coefficient dictionary blade -> ring element (no zeros stored)."""

    __slots__ = ("sig", "ring", "coeffs")

    def __init__(self, sig: Signature, ring: CoefficientRing,
                 coeffs: dict[Blade, Any] | None = None):
        self.sig = sig
        self.ring = ring
        canon, zero, d = ring.from_int, ring.zero, sig.d
        clean: dict[Blade, Any] = {}
        for blade, c in (coeffs or {}).items():
            if blade >> d:
                raise ValueError(f"blade {blade:#x} outside dimension {d}")
            c = canon(c)
            if c != zero:
                clean[blade] = c
        self.coeffs = clean

    @classmethod
    def scalar(cls, sig: Signature, ring: CoefficientRing, value) -> "CliffordElement":
        return cls(sig, ring, {0: value})

    @classmethod
    def one(cls, sig: Signature, ring: CoefficientRing) -> "CliffordElement":
        return cls.scalar(sig, ring, ring.one)

    @classmethod
    def blade(cls, sig: Signature, ring: CoefficientRing, blade: Blade,
              coeff=None) -> "CliffordElement":
        return cls(sig, ring, {blade: ring.one if coeff is None else coeff})

    @classmethod
    def generator(cls, sig: Signature, ring: CoefficientRing, i: int) -> "CliffordElement":
        return cls.blade(sig, ring, blade_from_indices([i]))

    def coefficient(self, blade: Blade):
        return self.coeffs.get(blade, self.ring.zero)

    @property
    def support(self) -> tuple[Blade, ...]:
        return tuple(sorted(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_even(self) -> bool:
        return all(b.bit_count() % 2 == 0 for b in self.coeffs)

    def _compat(self, other: "CliffordElement") -> None:
        if self.sig != other.sig or self.ring != other.ring:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._compat(other)
        out = dict(self.coeffs)
        zero = self.ring.zero
        for b, c in other.coeffs.items():
            out[b] = out.get(b, zero) + c
        return CliffordElement(self.sig, self.ring, out)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.sig, self.ring, {b: -c for b, c in self.coeffs.items()})

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __mul__(self, other) -> "CliffordElement":
        if not isinstance(other, CliffordElement):
            return self.scale(other)
        self._compat(other)
        m, zero = self.sig.m, self.ring.zero
        sizes = len(self.coeffs), len(other.coeffs)
        if (type(zero) is int and sizes[0] * sizes[1] >= PACKED_MIN_TERMS
                and 4 * max(sizes) >= 1 << self.sig.d):
            return CliffordElement(self.sig, self.ring,
                                   _packed_product(self.coeffs, other.coeffs, self.sig))
        right = other.coeffs.items()
        out: dict[Blade, Any] = {}
        get = out.get
        for b1, c1 in self.coeffs.items():
            s = sign_mask(b1, m)
            for b2, c2 in right:
                b = b1 ^ b2
                if (s & b2).bit_count() & 1:
                    out[b] = get(b, zero) - c1 * c2
                else:
                    out[b] = get(b, zero) + c1 * c2
        return CliffordElement(self.sig, self.ring, out)

    def __rmul__(self, other) -> "CliffordElement":
        # ring scalars commute with everything
        return self.scale(other)

    def scale(self, c) -> "CliffordElement":
        return CliffordElement(self.sig, self.ring, {b: c * v for b, v in self.coeffs.items()})

    def _signed_map(self, flips) -> "CliffordElement":
        """Negate the blades of grade c with flips(c) odd."""
        return CliffordElement(self.sig, self.ring, {
            b: -c if flips(b.bit_count()) & 1 else c
            for b, c in self.coeffs.items()})

    def iota(self) -> "CliffordElement":
        """Anti-automorphism reversing products of generators."""
        return self._signed_map(lambda c: c * (c - 1) // 2)

    def grade_involution(self) -> "CliffordElement":
        """Automorphism e_i -> -e_i."""
        return self._signed_map(lambda c: c)

    def conjugate(self) -> "CliffordElement":
        """Clifford conjugation: iota composed with the grade involution."""
        return self._signed_map(lambda c: c * (c + 1) // 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return (self.sig == other.sig and self.ring == other.ring
                and self.coeffs == other.coeffs)

    __hash__ = None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{self.coeffs[b]}*{blade_str(b)}" for b in self.support)

    def __repr__(self) -> str:
        return f"<{self} over {self.ring.name}, sig=({self.sig.m},{self.sig.n})>"


# ---------------------------------------------------------------------------
# Spin condition


def is_spin_element(g: CliffordElement) -> bool:
    """Membership in Spin: g in the even part, g gbar = 1, and conjugation
    by g maps each generator into the span of the generators.

    One full product checks g gbar = 1; in a finite free algebra over a
    commutative ring that also gives gbar g = 1.  The grade-1 part w_i of
    v_i = g e_i gbar has coefficient e_j^2 <(e_i gbar)(e_j g)>_0 on e_j,
    since the scalar part is cyclic.  As e_j g = -conj(gbar e_j) and
    e(K) conj(e(K)) = -(-1)^(number of negative generators in K) for odd
    K, that is a dot product of the vectors e_i gbar and gbar e_j over the
    odd blades.  Then v_i lies in the span of the generators iff
    g e_i = w_i g, or conjugated, e_i gbar = gbar w_i = sum_j w_ij gbar e_j:
    if v_i = w_i then w_i g = g e_i gbar g = g e_i, and if g e_i = w_i g
    then v_i = w_i g gbar = w_i.  Beyond g gbar no product is formed:
    e_i e(K) = +-e(K xor e_i) by ``sign_mask(e_i)``, so e_i gbar is a signed
    permutation of gbar's coefficients, and as gbar is even, e(K) e_i is
    e_i e(K) negated when e_i is in K.

    Raises ValueError on odd-blade support (not even a candidate).
    """
    if not g.is_even():
        raise ValueError("spin elements live in the even subalgebra")
    sig, ring, zero, canon = g.sig, g.ring, g.ring.zero, g.ring.from_int
    gbar = g.conjugate()
    if g * gbar != CliffordElement.one(sig, ring):
        return False
    odd = [b for b in range(1 << sig.d) if b.bit_count() & 1]
    left, right = [], []
    for k in range(sig.d):
        bit, s = 1 << k, sign_mask(1 << k, sig.m)
        row = [(b, gbar.coeffs.get(b ^ bit, zero), (s & (b ^ bit)).bit_count() & 1) for b in odd]
        left.append([canon(-c) if neg else c for _, c, neg in row])
        right.append([-c if neg == b >> k & 1 else c for b, c, neg in row])
    weighted = [[-c if (b >> sig.m).bit_count() & 1 else c for b, c in zip(odd, r)]
                for r in right]
    columns = list(zip(*right))
    for u in left:
        w = [sum(map(mul, u, r), zero) * (1 if j < sig.m else -1)
             for j, r in enumerate(weighted)]
        if [canon(sum(map(mul, w, col), zero)) for col in columns] != u:
            return False
    return True


# ---------------------------------------------------------------------------
# 2-adic exponential and logarithm


def _lift(x: CliffordElement, bits: int, scalar: int, what: str) -> CliffordElement:
    """x over Z/2^K, K = bits + floor(log2 bits), once every coefficient,
    e{} included, is an integer = scalar on e{} and 0 elsewhere mod 4."""
    if bits < 1:
        raise ValueError("need bits >= 1")
    for c in x.coeffs.values():
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise TypeError("exp/log need integer or rational coefficients")
    if not x.is_even():
        raise ValueError(f"{what} is defined on the even part")
    for b, c in {0: 0, **x.coeffs}.items():
        if c.denominator != 1 or (c.numerator - (b == 0) * scalar) % 4:
            raise TwoAdicIntegralityError(
                f"coefficient {c} of {blade_str(b)}: {what} needs {scalar} mod 4*C_0")
    ring = ModularRing(1 << (bits + bits.bit_length() - 1))
    return CliffordElement(x.sig, ring, {b: c.numerator for b, c in x.coeffs.items()})


def _divide_exact(y: CliffordElement, k: int) -> CliffordElement:
    """y / k over Z/2^K for y divisible by 2^v, v = v_2(k): shift out 2^v
    (leaving y/2^v known mod 2^(K-v)), times the inverse of k / 2^v."""
    v = (k & -k).bit_length() - 1
    inv = pow(k >> v, -1, y.ring.modulus)
    return CliffordElement(y.sig, y.ring, {b: (c >> v) * inv for b, c in y.coeffs.items()})


def clifford_exp(x: CliffordElement, bits: int) -> CliffordElement:
    """exp(x) mod 2^bits for x in 4 * (integral even Lie algebra).

    Requires even support and every coefficient an integer divisible
    by 4; then x^k/k! is 2-adically integral and the series is stable
    past k = bits, so the truncated sum is exact mod 2^bits.  It runs
    term_k = term_(k-1) * x / k over Z/2^K, K = bits + floor(log2 bits):
    an error in 2^(K-D) Z grows to 2^(K-D+2) Z times x (in 4 C_0) and
    loses v_2(k) bits in the division, so the deficit D after step k is
    the largest v_2(k!/(j-1)!) - 2(k-j) over j <= k, at most log2 k since
    v_2(n!) <= n - 1 and 2^v_2(C(k, n)) <= k for n = k-j+1.
    """
    x = _lift(x, bits, 0, "exp")
    acc = term = CliffordElement.one(x.sig, x.ring)
    for k in range(1, bits + 1):
        term = _divide_exact(term * x, k)
        acc = acc + term
    return CliffordElement(acc.sig, ModularRing(1 << bits), acc.coeffs)


def clifford_log(g: CliffordElement, bits: int) -> CliffordElement:
    """log(g) mod 2^bits for g = 1 mod 4 in the even subalgebra.

    Input coefficients may live over Z or Z/2^N; they are lifted to
    integers.  The alternating series sum (-1)^(k-1) (g-1)^k / k is
    stable past k = bits because v_2((g-1)^k / k) >= 2k - log2(k).
    The powers (g-1)^k are exact over Z/2^K, K = bits + floor(log2 bits),
    and dividing by k costs v_2(k) <= log2 bits of those bits.
    """
    g = _lift(g, bits, 1, "log")
    a = acc = power = g - CliffordElement.one(g.sig, g.ring)
    for k in range(2, bits + 1):
        power = power * a
        acc = acc + _divide_exact(power, k if k & 1 else -k)  # (-1)^(k-1) / k
    return CliffordElement(acc.sig, ModularRing(1 << bits), acc.coeffs)
