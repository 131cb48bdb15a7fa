"""Tests for the Clifford algebra layer.

The blade product is checked exhaustively against a naive oracle that
bubble-sorts the concatenated index sequence and cancels repeated
indices; the involutions are checked against products of generators in
reversed order.  Element products, by either kernel, are checked against
the term-by-term sums of ``spinchi.oracles`` and ``is_spin_element``
against the referee that forms every conjugate.  Randomized loops cover
the algebra laws and the spin conditions; the 2-adic exponential and
logarithm are verified to be two-sided inverses landing inside the spin
group.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from spinchi import clifford, oracles
from spinchi.clifford import (
    QQ,
    ZZ,
    CliffordElement,
    IntegerRing,
    ModularRing,
    PrimeField,
    RationalRing,
    Signature,
    TwoAdicIntegralityError,
    blade_from_indices,
    blade_indices,
    blade_str,
    clifford_exp,
    clifford_log,
    is_spin_element,
    sign_mask,
)
from spinchi.oracles import DualNumbers, blade_mul, bracket, lie_algebra_basis, two_torsion


# ---------------------------------------------------------------------------
# oracle: sorting generators one transposition at a time
# ---------------------------------------------------------------------------

def naive_blade_product(left: tuple[int, ...], right: tuple[int, ...],
                        m: int) -> tuple[int, tuple[int, ...]]:
    """Multiply e(left) e(right) by bubble sort.

    Each transposition of distinct generators flips the sign; a repeated
    index is cancelled against its square (+1 for index <= m, else -1).
    """
    seq = list(left) + list(right)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            if seq[i] > m:
                sign = -sign
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def test_blade_mul_matches_naive_oracle_exhaustively():
    for d in range(1, 6):
        for m in range(d + 1):
            sig = Signature(m, d - m)
            for j in range(1 << d):
                for k in range(1 << d):
                    sign, blade = blade_mul(j, k, sig)
                    want_sign, want_idx = naive_blade_product(
                        blade_indices(j), blade_indices(k), m)
                    assert blade == blade_from_indices(want_idx)
                    assert sign == want_sign, (m, d - m, j, k)


def test_sign_mask_matches_blade_mul_exhaustively():
    # the product kernel's rule: one mask per left blade, then AND + popcount
    for d in range(1, 7):
        for m in range(d + 1):
            sig = Signature(m, d - m)
            for j in range(1 << d):
                s = sign_mask(j, m)
                for k in range(1 << d):
                    sign = -1 if (s & k).bit_count() & 1 else 1
                    assert (sign, j ^ k) == blade_mul(j, k, sig), (m, d - m, j, k)


def test_sign_mask_high_generators():
    # the suffix parity must reach bit 62 of a 63-generator blade
    sig = Signature(30, 33)
    rng = random.Random(63)
    for _ in range(300):
        j, k = rng.getrandbits(63), rng.getrandbits(63)
        sign = -1 if (sign_mask(j, sig.m) & k).bit_count() & 1 else 1
        assert (sign, j ^ k) == blade_mul(j, k, sig)


def test_blade_helpers():
    assert blade_from_indices([3, 1]) == 0b101
    assert blade_indices(0b101) == (1, 3)
    assert blade_str(0b101) == "e{1,3}"
    assert blade_str(0) == "e{}"
    with pytest.raises(ValueError):
        blade_from_indices([1, 1])
    with pytest.raises(ValueError):
        blade_from_indices([0])


def test_signature_validation():
    assert Signature(2, 0).d == 2
    assert Signature(0, 3).d == 3
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(40, 40)


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

def test_ring_structural_equality():
    assert ModularRing(64) == ModularRing(64)
    assert ModularRing(64) != ModularRing(32)
    assert PrimeField(5) != ModularRing(5)
    assert IntegerRing() == ZZ
    assert RationalRing() != IntegerRing()
    assert DualNumbers(ModularRing(8)) == DualNumbers(ModularRing(8))
    assert hash(ModularRing(64)) == hash(ModularRing(64))
    assert repr(DualNumbers(ModularRing(8))) == "Z/8[eps]"
    with pytest.raises(ValueError):
        ModularRing(1)


def test_ring_axioms_random():
    # elements combine with their own operators; from_int gives the one
    # stored form, so equal ring elements reduce to equal values
    rng = random.Random(4242)
    rings = [ZZ, QQ, PrimeField(7), ModularRing(64), DualNumbers(ModularRing(16))]
    for ring in rings:
        f = ring.from_int
        for _ in range(60):
            a, b, c = (f(rng.randrange(-50, 50)) for _ in range(3))
            assert f(a + b) == f(b + a)
            assert f(a * b) == f(b * a)
            assert f(f(a * b) * c) == f(a * f(b * c))
            assert f(a * (b + c)) == f(a * b + a * c)
            assert f(a + -a) == f(a - a) == ring.zero
            assert f(a * ring.one) == a


def test_ring_two_torsion():
    assert two_torsion(ZZ) == ()
    assert two_torsion(PrimeField(7)) == ()
    assert two_torsion(PrimeField(2)) == (1,)
    assert two_torsion(ModularRing(64)) == (32,)
    assert two_torsion(ModularRing(9)) == ()
    dual = DualNumbers(ModularRing(8))
    assert set(two_torsion(dual)) == {(4, 0), (0, 4)}


def test_dual_numbers_eps_squares_to_zero():
    dual = DualNumbers(ZZ)
    eps = dual.from_int((0, 1))
    assert dual.from_int(eps * eps) == dual.zero
    assert dual.from_int((2, 3)) * dual.from_int((5, 7)) == (10, 29)


def test_prime_field_rejects_composites():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            PrimeField(p)
    assert PrimeField(2).name == "F_2"
    assert PrimeField(5).modulus == 5


def test_constructor_stores_canonical_coefficients():
    # the constructor reduces every coefficient with from_int, then drops
    # zeros, so equality and is_zero see ring elements, not representatives
    sig = Signature(2, 0)
    z8 = ModularRing(8)
    assert CliffordElement(sig, z8, {0: 9}) == CliffordElement(sig, z8, {0: 1})
    x = CliffordElement(sig, z8, {0b11: 8})
    assert x.is_zero()
    assert x.coeffs == {}
    dual = DualNumbers(ModularRing(16))
    y = CliffordElement(sig, dual, {0b11: (17, 33), 0: 5})
    assert y.coeffs == {0b11: (1, 1), 0: (5, 0)}
    assert all(type(c) is type(dual.one) for c in y.coeffs.values())
    assert 2 * y == y.scale(2) == CliffordElement(sig, dual, {0b11: (2, 2), 0: 10})


def test_integer_rings_store_ints():
    # Z and Z/N store every coefficient as an int, which the packed product
    # relies on: an integral Fraction becomes its numerator, anything else
    # is refused
    sig = Signature(2, 0)
    for ring in (ZZ, ModularRing(8), PrimeField(5)):
        x = CliffordElement(sig, ring, {0: Fraction(6, 2), 0b11: True})
        assert x.coeffs == {0: 3, 0b11: 1}
        assert all(type(c) is int for c in x.coeffs.values())
        for bad in (Fraction(1, 2), 0.5, 2.0, "3"):
            with pytest.raises(TypeError):
                CliffordElement(sig, ring, {0: bad})


# ---------------------------------------------------------------------------
# elements and involutions
# ---------------------------------------------------------------------------

def _random_element(rng: random.Random, sig: Signature, ring,
                    terms: int = 3, span: int = 9) -> CliffordElement:
    coeffs = {}
    for _ in range(terms):
        blade = rng.randrange(1 << sig.d)
        coeffs[blade] = ring.from_int(rng.randrange(-span, span + 1))
    return CliffordElement(sig, ring, coeffs)


def _generator_product(sig: Signature, ring, indices) -> CliffordElement:
    out = CliffordElement.one(sig, ring)
    for i in indices:
        out = out * CliffordElement.generator(sig, ring, i)
    return out


def test_involutions_match_reversed_products_exhaustively():
    # iota(e_{i1} ... e_{ic}) is the product in reversed order; the grade
    # involution flips each generator; conjugation composes the two.
    for sig in (Signature(5, 5), Signature(2, 8), Signature(10, 0)):
        for blade in range(1 << sig.d):
            idx = blade_indices(blade)
            x = CliffordElement.blade(sig, ZZ, blade)
            assert x.iota() == _generator_product(sig, ZZ, reversed(idx))
            sign = -1 if len(idx) % 2 else 1
            assert x.grade_involution() == x.scale(sign)
            assert x.conjugate() == _generator_product(
                sig, ZZ, reversed(idx)).scale(sign)


def test_involution_composition_laws():
    rng = random.Random(999)
    sig = Signature(3, 3)
    for _ in range(100):
        x = _random_element(rng, sig, ZZ, terms=4)
        assert x.iota().iota() == x
        assert x.grade_involution().grade_involution() == x
        assert x.conjugate() == x.iota().grade_involution()
        assert x.conjugate().conjugate() == x


def test_product_laws_random():
    rng = random.Random(31337)
    for ring in (ZZ, PrimeField(7)):
        sig = Signature(4, 2)
        for _ in range(200):
            x = _random_element(rng, sig, ring)
            y = _random_element(rng, sig, ring)
            z = _random_element(rng, sig, ring)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert (x * y).iota() == y.iota() * x.iota()
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
            assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()


def _product_cases(rng: random.Random):
    """(x, y) pairs: random supports at d <= 7 over every ring; dense
    operands at d = 8..10 over Z/2^11, F_p and Z (negative and > 2^64
    coefficients); d = 1 with m in {0, d}; all coefficients N - 1; and
    sparse x dense in both orders."""
    dual = DualNumbers(ModularRing(16))
    for ring in (ZZ, QQ, PrimeField(7), ModularRing(64), dual):
        def coeff():
            a, b = rng.randrange(-200, 201), rng.randrange(-200, 201)
            return ring.from_int((a, b) if ring is dual else a)
        for _ in range(40):
            d = rng.randint(1, 7)
            sig = Signature(m := rng.randint(0, d), d - m)
            terms = rng.choice((3, 12, 1 << d))
            yield tuple(CliffordElement(sig, ring, {rng.randrange(1 << d): coeff()
                                                    for _ in range(terms)}) for _ in range(2))
    for ring in (ZZ, ModularRing(2), PrimeField(3)):
        for m in (0, 1):
            sig = Signature(m, 1 - m)
            for a, b, c, e in itertools.product((0, 1, -1), repeat=4):
                yield (CliffordElement(sig, ring, {0: a, 1: b}),
                       CliffordElement(sig, ring, {0: c, 1: e}))
    big = 1 << 70
    for d in (8, 9, 10):
        sig = Signature(m := rng.randint(0, d), d - m)
        blades = range(1 << d)
        for ring, lo, hi in ((ModularRing(1 << 11), 1, (1 << 11) - 1), (PrimeField(5), 1, 4),
                             (PrimeField(65537), 1, 65536), (ZZ, -big, big)):
            dense = [CliffordElement(sig, ring, {b: rng.randint(lo, hi) for b in blades})
                     for _ in range(2)]
            yield tuple(dense)
            sparse = CliffordElement(sig, ring, {b: rng.randint(lo, hi)
                                                 for b in rng.sample(blades, d)})
            yield sparse, dense[0]
            yield dense[1], sparse
        for modulus in (1 << 11, 5):
            ring = ModularRing(modulus)
            top = CliffordElement(sig, ring, {b: modulus - 1 for b in blades})
            yield top, top


def test_product_matches_termwise_blade_mul_sum():
    # the product sums raw terms per blade and reduces once, by the
    # sign-mask loop or the packed kernel; the oracle reduces after every
    # term and takes its signs from blade_mul.  Dense operands at d >= 8
    # are checked on sampled blades, the corners 0 and 2^d - 1 among them.
    rng = random.Random(8080)
    for x, y in _product_cases(rng):
        ring, d = x.ring, x.sig.d
        z = x * y
        if d <= 7:
            assert z == oracles.product_termwise(x, y), (ring, x.sig)
        else:
            for b in [0, (1 << d) - 1] + rng.sample(range(1 << d), 6):
                assert z.coefficient(b) == oracles.product_coefficient(x, y, b), (ring, x.sig, b)
        # every stored coefficient is reduced, as the ring stores it
        assert all(ring.from_int(c) == c for c in z.coeffs.values())
        assert all(type(c) is type(ring.one) for c in z.coeffs.values())


def test_packed_kernel_matches_sign_mask_loop(monkeypatch):
    # both kernels on every integer case up to d = 9, whichever one __mul__
    # would pick: the packed one called directly, the loop with the
    # threshold out of reach
    rng = random.Random(8081)
    cases = [(x, y) for x, y in _product_cases(rng)
             if type(x.ring.zero) is int and x.coeffs and y.coeffs and x.sig.d <= 9]
    monkeypatch.setattr(clifford, "PACKED_MIN_TERMS", float("inf"))
    for x, y in cases:
        packed = CliffordElement(x.sig, x.ring, clifford._packed_product(x.coeffs, y.coeffs, x.sig))
        assert packed == x * y, (x.ring, x.sig)


def test_two_level_packed_product_matches_sign_mask_loop(monkeypatch):
    # the walk splits each left blade at h = d // 2 (h = 0 at d = 1): x with
    # one term, x on the low blades only (one giant step), x on the high
    # blades only (one baby sum per step), and dense x; both operand
    # orders, so the reversed path walks the other operand
    rng = random.Random(8082)
    big = 1 << 70
    monkeypatch.setattr(clifford, "PACKED_MIN_TERMS", float("inf"))
    for d in range(1, 11):
        low = (1 << (d // 2)) - 1
        blades = range(1 << d)
        shapes = ([rng.randrange(1 << d)], [b for b in blades if not b & ~low],
                  [b for b in blades if not b & low], blades)
        for m, (ring, span) in itertools.product((0, d), ((ZZ, big), (ModularRing(1 << 11), 1 << 11),
                                                          (PrimeField(5), 5))):
            sig = Signature(m, d - m)
            def coeffs(support):  # nonzero in the ring, of either sign
                return {b: rng.choice((-1, 1)) * rng.randrange(1, span) for b in support}
            y = CliffordElement(sig, ring, coeffs(blades))
            for support in shapes:
                x = CliffordElement(sig, ring, coeffs(support))
                for a, b in ((x, y), (y, x)):
                    packed = clifford._packed_product(a.coeffs, b.coeffs, sig)
                    assert CliffordElement(sig, ring, packed) == a * b, (ring, sig, len(x.coeffs))


def test_slot_masks_match_per_blade_parities():
    # the flip mask built by doubling against its definition: slot L flips
    # under e_k iff sign_mask(e_k, m) & L has odd parity
    for d in range(1, 11):
        for m in range(d + 1):
            for width in (1, 2, 5):
                steps, bias = clifford._slot_masks.__wrapped__(d, m, width)
                assert bias == int.from_bytes((bytes(width - 1) + b"\x80") * (1 << d), "little")
                for k, (s, flip, high, shift) in enumerate(steps):
                    assert s == sign_mask(1 << k, m)
                    want = b"".join(b"\xff" * width if (s & blade).bit_count() & 1 else bytes(width)
                                    for blade in range(1 << d))
                    assert flip == int.from_bytes(want, "little"), (d, m, width, k)
                    slots = (b"\xff" * width if blade >> k & 1 else bytes(width)
                             for blade in range(1 << d))
                    assert high == int.from_bytes(b"".join(slots), "little")
                    assert shift == 8 * width << k


def test_element_basics():
    sig = Signature(2, 1)
    x = CliffordElement(sig, ZZ, {0: -1, 0b11: 3})
    assert str(x) == "-1*e{} + 3*e{1,2}"
    assert x.coefficient(0b11) == 3
    assert x.coefficient(0b100) == 0
    assert x.support == (0, 0b11)
    assert x.is_even()
    assert (x - x).is_zero()
    assert str(x - x) == "0"
    assert x.scale(2) == CliffordElement(sig, ZZ, {0: -2, 0b11: 6})
    assert 2 * x == x.scale(2)
    assert x * 3 == x.scale(3)
    assert (x == 3) is False
    assert repr(x) == "<-1*e{} + 3*e{1,2} over Z, sig=(2,1)>"
    with pytest.raises(ValueError):
        CliffordElement(sig, ZZ, {0b1000: 1})  # blade outside dimension
    with pytest.raises(ValueError):
        x + CliffordElement(Signature(3, 1), ZZ, {0: 1})


def test_generators_obey_the_defining_relations():
    sig = Signature(2, 2)
    one = CliffordElement.one(sig, ZZ)
    es = [CliffordElement.generator(sig, ZZ, i) for i in range(1, 5)]
    for i, e in enumerate(es, start=1):
        square = one if i <= sig.m else -one
        assert e * e == square
    for i in range(4):
        for j in range(i + 1, 4):
            assert es[i] * es[j] + es[j] * es[i] == CliffordElement(sig, ZZ, {})


# ---------------------------------------------------------------------------
# spin membership
# ---------------------------------------------------------------------------

def test_spin_membership_examples():
    sig = Signature(3, 0)
    assert is_spin_element(CliffordElement.blade(sig, ZZ, 0b11))
    # rational rotation (3/5, 4/5) on the e1-e2 plane
    sig2 = Signature(2, 0)
    g = CliffordElement(sig2, QQ, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    assert is_spin_element(g)
    # hyperbolic rotation in signature (1,1)
    sigh = Signature(1, 1)
    h = CliffordElement(sigh, QQ, {0: Fraction(5, 4), 0b11: Fraction(3, 4)})
    assert is_spin_element(h)
    # norm failures
    assert not is_spin_element(CliffordElement.scalar(sig, ZZ, 2))
    bad = CliffordElement(Signature(2, 2), QQ,
                          {0b0011: Fraction(1), 0b1100: Fraction(1)})
    assert not is_spin_element(bad)
    with pytest.raises(ValueError):
        is_spin_element(CliffordElement.generator(sig, ZZ, 1))


def test_spin_elements_multiply_and_invert():
    sig = Signature(2, 0)
    g = CliffordElement(sig, QQ, {0: Fraction(3, 5), 0b11: Fraction(4, 5)})
    h = CliffordElement(sig, QQ, {0: Fraction(5, 13), 0b11: Fraction(12, 13)})
    assert is_spin_element(g * h)
    assert is_spin_element(g.conjugate())  # inverse of a spin element
    assert g * g.conjugate() == CliffordElement.one(sig, QQ)


def test_spin_test_agrees_with_conjugate_referee():
    # is_spin_element (one full product, dot products, g e_i = w_i g)
    # against the referee that forms every conjugate g e_i gbar
    rng = random.Random(4096)
    cases = []
    for d in range(2, 10):
        for _ in range(3 if d < 8 else 1):
            sig = Signature(m := rng.randint(0, d), d - m)
            g = clifford_exp(_random_lie_multiple_of_4(rng, sig, 8), 8)
            even = [b for b in range(1 << d) if b.bit_count() % 2 == 0]
            blade = rng.choice(even)
            cases += [g, g + CliffordElement.blade(sig, g.ring, blade, rng.choice((64, 128))),
                      g + CliffordElement.blade(sig, g.ring, blade, rng.randrange(1, 256))]
    base = ModularRing(16)
    dual = DualNumbers(base)
    for sig in (Signature(2, 2), Signature(3, 1), Signature(4, 0)):
        one = CliffordElement.one(sig, dual)
        for x in lie_algebra_basis(sig, base):
            cases.append(one + CliffordElement(sig, dual, {b: (0, c) for b, c in x.coeffs.items()}))
        cases += [one + CliffordElement(sig, dual, {b: (0, 1)}) for b in (0, 0b1111)]
    # g = 3/5 + 4/5 e{1..6}: g gbar = 1, but g e_1 gbar has a grade-5 part
    sig6, top = Signature(6, 0), 0b111111
    norm_only = [CliffordElement(sig6, QQ, {0: Fraction(3, 5), top: Fraction(4, 5)}),
                 CliffordElement(sig6, PrimeField(13), {0: 3 * 8, top: 4 * 8})]  # 1/5 = 8
    for g in norm_only:
        assert g * g.conjugate() == CliffordElement.one(sig6, g.ring)
    cases += norm_only
    verdicts = [is_spin_element(g) for g in cases]
    assert verdicts == [oracles.is_spin_element_conjugates(g) for g in cases]
    assert True in verdicts and False in verdicts
    assert not any(is_spin_element(g) for g in norm_only)
    odd = CliffordElement.generator(Signature(3, 1), ZZ, 1)
    for spin_test in (is_spin_element, oracles.is_spin_element_conjugates):
        with pytest.raises(ValueError):
            spin_test(odd)


def test_spin_test_on_exp_output_and_perturbed_copies_over_z_mod_256():
    # e_i gbar and gbar e_i are signed permutations of gbar: on exp outputs
    # over Z/2^8, and on copies perturbed by 64 e(J) with |J| = 6, which keep
    # g gbar = 1 but give g e_i gbar a grade-5 part, by 128 e(J) with
    # |J| = 2, which stay in Spin, and by a unit on a grade-4 blade
    rng = random.Random(4097)
    checked_conjugates = False
    for sig in (Signature(6, 0), Signature(0, 6), Signature(3, 4), Signature(8, 0), Signature(0, 8)):
        g = clifford_exp(_random_lie_multiple_of_4(rng, sig, 8), 8)
        grade = {c: [b for b in range(1 << sig.d) if b.bit_count() == c] for c in (2, 4, 6)}
        copies = [g + CliffordElement.blade(sig, g.ring, rng.choice(grade[6]), 64),
                  g + CliffordElement.blade(sig, g.ring, rng.choice(grade[2]), 128),
                  g + CliffordElement.blade(sig, g.ring, rng.choice(grade[4]), 2 * rng.randrange(128) + 1)]
        verdicts = [is_spin_element(h) for h in [g] + copies]
        assert verdicts == [oracles.is_spin_element_conjugates(h) for h in [g] + copies], sig
        assert verdicts[:3] == [True, False, True], sig
        norm_one = copies[0] * copies[0].conjugate() == CliffordElement.one(sig, g.ring)
        checked_conjugates |= norm_one
    assert checked_conjugates


# ---------------------------------------------------------------------------
# Lie algebra
# ---------------------------------------------------------------------------

def test_lie_basis_over_torsion_free_rings():
    basis = lie_algebra_basis(Signature(3, 2), QQ)
    assert len(basis) == 10  # C(5,2)
    assert all(len(x.support) == 1 and x.support[0].bit_count() == 2
               for x in basis)


def test_lie_basis_gains_torsion_blades_mod_2n():
    ring = ModularRing(8)
    basis = lie_algebra_basis(Signature(2, 2), ring)
    # 6 grade-2 blades plus 4*e{} and 4*e{1,2,3,4}
    assert len(basis) == 8
    torsion = [x for x in basis if any(c == 4 for c in x.coeffs.values())]
    assert sorted(x.support[0].bit_count() for x in torsion) == [0, 4]


def test_bracket_closes_on_grade_two():
    sig = Signature(3, 1)
    basis = lie_algebra_basis(sig, ZZ)
    for x in basis:
        for y in basis:
            b = bracket(x, y)
            assert all(blade.bit_count() == 2 for blade in b.coeffs)


def test_bracket_laws_random():
    rng = random.Random(555)
    sig = Signature(3, 2)
    basis = lie_algebra_basis(sig, QQ)
    for _ in range(100):
        def rand_lie():
            out = CliffordElement(sig, QQ, {})
            for x in rng.sample(basis, 3):
                out = out + x.scale(Fraction(rng.randrange(-5, 6)))
            return out
        x, y, z = rand_lie(), rand_lie(), rand_lie()
        assert bracket(x, y) == -bracket(y, x)
        jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
            + bracket(z, bracket(x, y))
        assert jac.is_zero()


def test_dual_number_tangents_of_lie_basis_are_spin():
    # Over R[eps]/(eps^2) with R = Z/16, 1 + eps*X must satisfy the spin
    # conditions exactly when X is in the Lie algebra, including its
    # 2-torsion part.
    base = ModularRing(16)
    dual = DualNumbers(base)
    sig = Signature(2, 2)
    one = CliffordElement.one(sig, dual)
    for x in lie_algebra_basis(sig, base):
        tangent = CliffordElement(
            sig, dual, {b: (base.zero, c) for b, c in x.coeffs.items()})
        assert is_spin_element(one + tangent), str(x)
    # a grade-4 blade with unit coefficient is NOT tangent to spin
    quad = CliffordElement(sig, dual, {0b1111: (0, 1)})
    assert not is_spin_element(one + quad)
    # neither is a unit scalar direction
    assert not is_spin_element(one + CliffordElement(sig, dual, {0: (0, 1)}))


# ---------------------------------------------------------------------------
# 2-adic exponential and logarithm
# ---------------------------------------------------------------------------

def _random_lie_multiple_of_4(rng: random.Random, sig: Signature,
                              bits: int) -> CliffordElement:
    coeffs = {}
    for i in range(1, sig.d + 1):
        for j in range(i + 1, sig.d + 1):
            if rng.random() < 0.6:
                coeffs[blade_from_indices([i, j])] = 4 * rng.randrange(1 << (bits - 2))
    return CliffordElement(sig, ZZ, coeffs)


def test_exp_log_identity_elements():
    sig = Signature(2, 1)
    zero = CliffordElement(sig, ZZ, {})
    assert clifford_exp(zero, 8) == CliffordElement.one(sig, ModularRing(256))
    one = CliffordElement.one(sig, ZZ)
    assert clifford_log(one, 8) == CliffordElement(sig, ModularRing(256), {})


def test_exp_log_roundtrip_and_spin_membership():
    rng = random.Random(2026)
    for sig, bits in ((Signature(2, 1), 6), (Signature(2, 2), 8)):
        mod_ring = ModularRing(1 << bits)
        for _ in range(10):
            x = _random_lie_multiple_of_4(rng, sig, bits)
            g = clifford_exp(x, bits)
            assert g.ring == mod_ring
            assert is_spin_element(g)
            x_reduced = CliffordElement(
                sig, mod_ring, {b: c % (1 << bits) for b, c in x.coeffs.items()})
            assert clifford_log(g, bits) == x_reduced
            assert clifford_exp(clifford_log(g, bits), bits) == g


def test_exp_is_multiplicative_on_commuting_blades():
    sig = Signature(2, 2)
    bits = 10
    a = CliffordElement(sig, ZZ, {blade_from_indices([1, 2]): 4})
    b = CliffordElement(sig, ZZ, {blade_from_indices([3, 4]): 8})
    assert bracket(a, b).is_zero()
    lhs = clifford_exp(a + b, bits)
    assert lhs == clifford_exp(a, bits) * clifford_exp(b, bits)


def test_exp_first_terms():
    # exp(4 e12) = 1 + 4 e12 + 16/2 e12^2 + ... with e12^2 = -1 in (2,0):
    # scalar part 1 - 8 + 256/24 - ..., blade part 4 - 64/6 + ...
    sig = Signature(2, 0)
    x = CliffordElement(sig, ZZ, {0b11: 4})
    g = clifford_exp(x, 8)
    series_scalar = sum(Fraction((-16) ** k, math.factorial(2 * k)) for k in range(5))
    series_blade = sum(Fraction(4) * Fraction((-16) ** k, math.factorial(2 * k + 1))
                       for k in range(5))
    assert g.coefficient(0) == _mod_reduce(series_scalar, 256)
    assert g.coefficient(0b11) == _mod_reduce(series_blade, 256)


def _mod_reduce(q: Fraction, mod: int) -> int:
    return q.numerator * pow(q.denominator, -1, mod) % mod


def test_exp_domain_errors():
    sig = Signature(2, 1)
    with pytest.raises(TwoAdicIntegralityError):
        clifford_exp(CliffordElement(sig, ZZ, {0b11: 2}), 8)
    with pytest.raises(TwoAdicIntegralityError):
        clifford_exp(CliffordElement(sig, QQ, {0b11: Fraction(4, 3)}), 8)
    with pytest.raises(ValueError):
        clifford_exp(CliffordElement(sig, ZZ, {0b1: 4}), 8)
    with pytest.raises(ValueError):
        clifford_exp(CliffordElement(sig, ZZ, {0b11: 4}), 0)
    with pytest.raises(TypeError):
        clifford_exp(CliffordElement(sig, DualNumbers(ZZ), {0b11: (4, 0)}), 8)


def test_log_domain_errors():
    sig = Signature(2, 1)
    with pytest.raises(TwoAdicIntegralityError):
        clifford_log(CliffordElement(sig, ZZ, {0: 1, 0b11: 2}), 8)
    with pytest.raises(TwoAdicIntegralityError):
        clifford_log(CliffordElement(sig, ZZ, {0: 3}), 8)
    with pytest.raises(ValueError):
        clifford_log(CliffordElement(sig, ZZ, {0: 1, 0b1: 4}), 8)


def test_log_rejects_a_scalar_not_1_mod_4():
    # an absent scalar is 0, not 1 mod 4: both inputs must fail on e{}
    sig = Signature(2, 2)
    for coeffs in ({}, {0b11: 4}):
        for bits in (1, 8):
            with pytest.raises(TwoAdicIntegralityError, match=r"of e\{\}"):
                clifford_log(CliffordElement(sig, ZZ, coeffs), bits)


# oracle: the series over Q as spinchi ran them before the Z/2^K kernel

def _q_reduce(x: CliffordElement, bits: int) -> CliffordElement:
    mod = 1 << bits
    assert all(c.denominator % 2 for c in x.coeffs.values())
    return CliffordElement(x.sig, ModularRing(mod), {
        b: c.numerator * pow(c.denominator, -1, mod) % mod for b, c in x.coeffs.items()})


def _q_exp(x: CliffordElement, bits: int) -> CliffordElement:
    x = CliffordElement(x.sig, QQ, {b: Fraction(c) for b, c in x.coeffs.items()})
    acc = term = CliffordElement.one(x.sig, QQ)
    for k in range(1, bits + 1):
        term = (term * x).scale(Fraction(1, k))
        acc = acc + term
    return _q_reduce(acc, bits)


def _q_log(g: CliffordElement, bits: int) -> CliffordElement:
    g = CliffordElement(g.sig, QQ, {b: Fraction(c) for b, c in g.coeffs.items()})
    a = g - CliffordElement.one(g.sig, QQ)
    acc, power = CliffordElement(g.sig, QQ, {}), CliffordElement.one(g.sig, QQ)
    for k in range(1, bits + 1):
        power = power * a
        acc = acc + power.scale(Fraction((-1) ** (k - 1), k))
    return _q_reduce(acc, bits)


def _assert_same(got: CliffordElement, want: CliffordElement) -> None:
    assert got.ring == want.ring and got.sig == want.sig
    assert got.coeffs == want.coeffs


def test_exp_log_match_rational_series():
    # every bits in 1..17 covers the largest division losses (k = 8, 16)
    rng = random.Random(1717)
    for d in range(2, 7):
        for bits in range(1, 18):
            sig = Signature(m := rng.randint(0, d), d - m)
            even = [b for b in range(1 << d) if b.bit_count() % 2 == 0]
            x = CliffordElement(sig, ZZ, {b: 4 * rng.choice((-3, -1, 1, 3, 5, 2, -6))
                                          for b in even if rng.random() < 0.6})
            _assert_same(clifford_exp(x, bits), _q_exp(x, bits))
            g = x + CliffordElement.one(sig, ZZ)
            _assert_same(clifford_log(g, bits), _q_log(g, bits))
            lie = _random_lie_multiple_of_4(rng, sig, max(bits, 3))
            _assert_same(clifford_exp(lie, bits), _q_exp(lie, bits))


def test_exp_log_match_rational_series_on_modular_and_rational_input():
    sig = Signature(2, 1)
    g = CliffordElement(sig, ModularRing(64), {0: 1, 0b11: 4})
    _assert_same(clifford_log(g, 6), _q_log(g, 6))
    sig = Signature(3, 2)
    x = CliffordElement(sig, QQ, {0b11: Fraction(8, 2), 0b1100: Fraction(-12),
                                  0b11110: Fraction(4)})
    for bits in (5, 9, 16):
        _assert_same(clifford_exp(x, bits), _q_exp(x, bits))
        g = x + CliffordElement.one(sig, QQ)
        _assert_same(clifford_log(g, bits), _q_log(g, bits))


def test_log_accepts_modular_input():
    sig = Signature(2, 1)
    ring = ModularRing(64)
    g = CliffordElement(sig, ring, {0: 1, 0b11: 4})
    x = clifford_log(g, 6)
    assert clifford_exp(x, 6) == g
