"""Tests for local and global invariants of diagonal quadratic forms.

The Hilbert symbol is checked against ``spinchi.oracles.hilbert_bruteforce``,
which searches for solutions of z^2 = a x^2 + b y^2 modulo p^4 (2^6 at
p = 2) with one coordinate normalized to a unit; by the strong form of
Hensel's lemma any such solution lifts to Q_p when a and b are
squarefree, and every Q_p-solution reduces to one, so the oracle is
exact.  The square-class kernel behind the Hasse invariants, Witt
indices, Q_p-equivalence and rational isotropy is checked against the
pairwise referee in ``spinchi.oracles`` (the O(d^2) Hasse product and
the Witt peel on squarefree representatives).  The 2-adic part of the
genus criterion is validated against an exhaustive search for a change
of basis modulo 8 at small rank, and the closed genus rule against
Q_p-invariants at every p <= 100.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import pytest

from spinchi import euler, oracles, qforms
from spinchi.exactq import FactoredInteger, primes_up_to
from spinchi.oracles import (
    hilbert_bruteforce,
    hilbert_closed,
    squarefree_rep,
)
from spinchi.qforms import (
    INFINITE_PLACE,
    DiagonalForm,
    Place,
    anisotropic_dim,
    fp_type,
    genus_first_failure,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic_rational,
    local_invariants,
    qp_equivalent,
    square_class_key,
    witt_index,
    witt_index_rational,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def naive_squarefree(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        if count % 2:
            out *= d
        d += 1
    return sign * out * n


def _det_odd(columns: list[tuple[int, ...]]) -> bool:
    # exact integer determinant of a small matrix, reduced mod 2
    r = len(columns)
    mat = [[columns[j][i] for j in range(r)] for i in range(r)]
    if r == 1:
        det = mat[0][0]
    elif r == 2:
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    else:
        det = 0
        for j in range(r):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            det += (-1) ** j * mat[0][j] * _det_of(minor)
    return det % 2 == 1


def _det_of(mat: list[list[int]]) -> int:
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j]
               * _det_of([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


def congruence_equivalent(qa: tuple[int, ...], qb: tuple[int, ...],
                          modulus: int) -> bool:
    """Search for U over Z/modulus with U^T diag(qa) U = diag(qb).

    U must be invertible, i.e. have odd determinant when the modulus is
    a power of 2.  Exhaustive column-by-column search with orthogonality
    pruning; rank is assumed tiny.
    """
    r = len(qa)
    assert len(qb) == r
    vectors = list(itertools.product(range(modulus), repeat=r))

    def pair(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return sum(q * x * y for q, x, y in zip(qa, u, v)) % modulus

    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for v in vectors:
        by_norm.setdefault(pair(v, v), []).append(v)

    columns: list[tuple[int, ...]] = []

    def extend(i: int) -> bool:
        if i == r:
            return _det_odd(columns)
        for v in by_norm.get(qb[i] % modulus, []):
            if all(pair(u, v) == 0 for u in columns):
                columns.append(v)
                if extend(i + 1):
                    return True
                columns.pop()
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# places and square classes
# ---------------------------------------------------------------------------

def test_place_parsing_and_validation():
    assert Place.parse("oo").is_infinite
    assert Place.parse("infinity").is_infinite
    assert Place.parse("2") == Place(2)
    assert str(Place(13)) == "13"
    assert str(INFINITE_PLACE) == "oo"
    with pytest.raises(ValueError):
        Place(4)
    with pytest.raises(ValueError):
        Place.parse("15")


def test_squarefree_rep():
    assert squarefree_rep(12) == 3
    assert squarefree_rep(-18) == -2
    assert squarefree_rep(Fraction(4, 9)) == 1
    assert squarefree_rep(Fraction(-3, 2)) == -6
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 5000) * rng.choice((-1, 1))
        assert squarefree_rep(n) == naive_squarefree(n)


def test_square_class_key_respects_square_scaling():
    rng = random.Random(12)
    places = [None, 2, 3, 5, 7]
    for _ in range(200):
        a = rng.randrange(1, 300) * rng.choice((-1, 1))
        t = rng.randrange(1, 30)
        v = rng.choice(places)
        assert square_class_key(a, v) == square_class_key(a * t * t, v)
        assert square_class_key(Fraction(a, t), v) == square_class_key(a * t, v)


def test_square_class_key_separates_representatives():
    # Q_2: eight classes; odd p: four; R: two.
    reps2 = [1, 3, 5, 7, 2, 6, 10, 14]
    keys = {square_class_key(r, 2) for r in reps2} | \
        {square_class_key(-r, 2) for r in reps2}
    assert len({square_class_key(r, 2) for r in reps2}) == 8
    assert len(keys) == 8  # negatives fall into the same eight classes
    for p in (3, 5, 7, 11):
        nonres = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        reps = [1, nonres, p, p * nonres]
        assert len({square_class_key(r, p) for r in reps}) == 4
    assert square_class_key(3, None) != square_class_key(-3, None)
    assert square_class_key(5, None) == square_class_key(20, None)


def test_square_class_key_matches_hilbert_pairing():
    # keys agree iff the quotient pairs trivially with every class rep
    rng = random.Random(13)
    for p, reps in ((2, [1, 3, 5, 7, 2, 6, 10, 14]),
                    (3, [1, 2, 3, 6]), (5, [1, 2, 5, 10]), (7, [1, 3, 7, 21])):
        for _ in range(60):
            a = rng.randrange(1, 200) * rng.choice((-1, 1))
            b = rng.randrange(1, 200) * rng.choice((-1, 1))
            same_key = square_class_key(a, p) == square_class_key(b, p)
            pairs_trivially = all(hilbert_symbol(a * b, t, p) == 1 for t in reps)
            assert same_key == pairs_trivially, (a, b, p)


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------

def _random_squarefree(rng: random.Random, bound: int = 120) -> int:
    while True:
        n = rng.randrange(1, bound) * rng.choice((-1, 1))
        if naive_squarefree(n) == n:
            return n


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(-1, -1, None) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, 5) == 1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(5, 5, 5) == 1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(1, -1, 2) == 1


def test_hilbert_symbol_matches_bruteforce():
    rng = random.Random(2718)
    for prime in (None, 2, 3, 5, 7):
        for _ in range(25):
            a = _random_squarefree(rng)
            b = _random_squarefree(rng)
            want = hilbert_bruteforce(a, b, prime)
            assert hilbert_symbol(a, b, prime) == want, (a, b, prime)
            assert hilbert_closed(a, b, prime) == want, (a, b, prime)


def test_hilbert_symbol_properties():
    rng = random.Random(161803)
    places = [None, 2, 3, 5, 7, 11]
    for _ in range(500):
        v = rng.choice(places)
        a = _random_squarefree(rng)
        b = _random_squarefree(rng)
        c = _random_squarefree(rng)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) == \
            hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, a, v) == hilbert_symbol(a, -1, v)
        t = rng.randrange(1, 20)
        assert hilbert_symbol(a * t * t, b, v) == hilbert_symbol(a, b, v)


def test_hilbert_product_formula():
    rng = random.Random(31415)
    for _ in range(200):
        a = _random_squarefree(rng)
        b = _random_squarefree(rng)
        places = {None, 2}
        for n in (a, b):
            d = 2
            n = abs(n)
            while d * d <= n:
                if n % d == 0:
                    places.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                places.add(n)
        product = 1
        for v in places:
            product *= hilbert_symbol(a, b, v)
        assert product == 1, (a, b)


def _square_class_reps(primes) -> dict:
    """One squarefree representative per class of Q_v^* / squares: 2 at
    oo, 8 at 2, 4 at each odd p in ``primes``."""
    classes = {None: [1, -1], 2: [1, 3, 5, 7, 2, 6, 10, 14]}
    for p in primes:
        nonres = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        classes[p] = [1, nonres, p, p * nonres]
    return classes


def test_hilbert_pairing_on_every_pair_of_square_classes():
    # Distinct codes, the XOR product and the symbol on every pair of
    # classes pin every entry of the pairing tables.
    for v, reps in _square_class_reps((3, 5, 7, 11, 13)).items():
        codes = [square_class_key(a, v) for a in reps]
        assert len(set(codes)) == len(reps), (v, codes)
        for (a, x), (b, y) in itertools.product(zip(reps, codes), repeat=2):
            assert square_class_key(a * b, v) == x ^ y, (a, b, v)
            want = hilbert_bruteforce(a, b, v)
            assert hilbert_symbol(a, b, v) == want, (a, b, v)
            assert hilbert_closed(a, b, v) == want, (a, b, v)


def test_hilbert_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


# ---------------------------------------------------------------------------
# forms and local invariants
# ---------------------------------------------------------------------------

def test_diagonal_form_construction():
    f = DiagonalForm.parse("1,1,-1")
    assert f.dim == 3 and f.signature() == (2, 1) and f.disc() == -1
    g = DiagonalForm.parse("b(4,1)")
    assert g == DiagonalForm.pm(4, 1)
    assert g.signature() == (4, 1)
    h = DiagonalForm.parse("1/2,-3")
    assert h.entries == (Fraction(1, 2), Fraction(-3))
    assert str(DiagonalForm.pm(1, 2)) == "1,-1,-1"
    with pytest.raises(ValueError):
        DiagonalForm((Fraction(0),))
    with pytest.raises(ValueError):
        DiagonalForm(())
    assert DiagonalForm.pm(qforms.PM_RANK_LIMIT - 1, 1).dim == qforms.PM_RANK_LIMIT
    with pytest.raises(ValueError):
        DiagonalForm.pm(qforms.PM_RANK_LIMIT, 1)
    with pytest.raises(ValueError):
        DiagonalForm.pm(-1, 2)
    with pytest.raises(ValueError):
        DiagonalForm.parse("b(99999999999999999999,1)")


def test_hasse_invariant_examples():
    assert hasse_invariant(DiagonalForm.pm(2, 0), 2) == 1
    assert hasse_invariant(DiagonalForm.pm(0, 2), 2) == -1
    assert hasse_invariant(DiagonalForm.pm(0, 2), None) == -1
    assert hasse_invariant(DiagonalForm.pm(1, 1), 2) == 1
    assert hasse_invariant(DiagonalForm((Fraction(2), Fraction(3))), 2) == -1


def test_local_invariants_fields():
    inv = local_invariants(DiagonalForm.pm(2, 1), None)
    assert inv.signature == (2, 1)
    assert inv.dimension == 3
    inv2 = local_invariants(DiagonalForm.pm(2, 1), 2)
    assert inv2.signature is None
    assert inv2.hasse == 1


def test_qp_equivalence_random_invariance():
    rng = random.Random(55)
    for _ in range(100):
        dim = rng.randrange(2, 6)
        entries = [Fraction(_random_squarefree(rng, 40)) for _ in range(dim)]
        f = DiagonalForm(tuple(entries))
        scaled = [e * rng.randrange(1, 10) ** 2 for e in entries]
        rng.shuffle(scaled)
        g = DiagonalForm(tuple(scaled))
        for v in (None, 2, 3, 5):
            assert qp_equivalent(f, g, v), (f, g, v)
    assert not qp_equivalent(DiagonalForm.pm(2, 0), DiagonalForm.pm(0, 2), None)
    assert qp_equivalent(DiagonalForm.pm(2, 0), DiagonalForm.pm(0, 2), 5)
    assert not qp_equivalent(DiagonalForm.pm(2, 0), DiagonalForm.pm(1, 1), 2)
    assert not qp_equivalent(DiagonalForm.pm(2, 1), DiagonalForm.pm(2, 0), 2)


def test_witt_index_frozen_cases():
    assert witt_index(DiagonalForm.pm(4, 1), 2) == 1
    assert witt_index(DiagonalForm.pm(2, 3), 2) == 2
    assert witt_index(DiagonalForm.pm(4, 4), None) == 4
    assert witt_index(DiagonalForm.pm(4, 0), 2) == 0  # four squares: anisotropic
    assert witt_index(DiagonalForm.pm(1, 1), 3) == 1
    assert anisotropic_dim(DiagonalForm.pm(4, 0), 2) == 4
    assert anisotropic_dim(DiagonalForm.pm(4, 1), 2) == 3


def test_witt_index_properties_random():
    rng = random.Random(808)
    for _ in range(80):
        dim = rng.randrange(1, 7)
        f = DiagonalForm(tuple(Fraction(_random_squarefree(rng, 30))
                               for _ in range(dim)))
        for v in (None, 2, 3, 5, 7):
            w = witt_index(f, v)
            a = anisotropic_dim(f, v)
            assert 2 * w + a == dim
            assert w >= 0
            if v is not None:
                assert a <= 4  # no anisotropic Q_p-form beyond dimension 4
        wq = witt_index_rational(f)
        assert 0 <= wq <= witt_index(f, None)
        for v in (2, 3, 5, 7):
            assert wq <= witt_index(f, v)
        assert is_isotropic_rational(f) == (wq >= 1)


def test_rational_isotropy_known_cases():
    assert is_isotropic_rational(DiagonalForm.parse("1,-1"))
    assert not is_isotropic_rational(DiagonalForm.parse("1,-3"))
    assert is_isotropic_rational(DiagonalForm.parse("1,1,-2"))
    assert not is_isotropic_rational(DiagonalForm.parse("1,1,-3"))
    assert not is_isotropic_rational(DiagonalForm.pm(4, 0))
    assert not is_isotropic_rational(DiagonalForm.pm(0, 5))
    assert is_isotropic_rational(DiagonalForm.pm(4, 1))
    assert is_isotropic_rational(DiagonalForm.parse("1,1,1,1,-7"))


def _has_small_zero(entries, box: range) -> bool:
    """Whether sum e_i x_i^2 = 0 at a nonzero point of box^dim.

    Meet in the middle: map each first-half sum to whether some nonzero
    first half reaches it, then look up the negated second-half sums; a
    zero second half must meet a nonzero first half, so 0 stays excluded.
    """
    half = len(entries) // 2
    first: dict[int, bool] = {}
    for xs in itertools.product(box, repeat=half):
        s = sum(e * x * x for e, x in zip(entries, xs))
        first[s] = first.get(s, False) or any(xs)
    for ys in itertools.product(box, repeat=len(entries) - half):
        s = -sum(e * y * y for e, y in zip(entries[half:], ys))
        if s in first and (any(ys) or first[s]):
            return True
    return False


def test_rational_isotropy_against_point_search():
    # whenever a small zero exists the decision procedure must say yes
    rng = random.Random(99)
    found = 0
    for _ in range(60):
        dim = rng.randrange(2, 5)
        f = DiagonalForm(tuple(Fraction(rng.choice(
            (1, -1, 2, -2, 3, -3, 5, -5, 7, -7))) for _ in range(dim)))
        if _has_small_zero([int(e) for e in f.entries], range(-6, 7)):
            found += 1
            assert is_isotropic_rational(f), f
    assert found > 10  # the search should not have been vacuous


# ---------------------------------------------------------------------------
# the square-class kernel against the pairwise referee
# ---------------------------------------------------------------------------

# A_69's 41-digit cofactor, 20210499584198062453 * 3090850068576441179447
A69_COFACTOR_FORM = "62467624025782717275851531008059486003491,1,-1"


def _assert_matches_referee(f: DiagonalForm, g: DiagonalForm, places) -> None:
    entries = f.entries
    for v in places:
        assert hasse_invariant(f, v) == oracles.hasse_pairwise(entries, v), (f, v)
        assert witt_index(f, v) == oracles.witt_index_peel(entries, v), (f, v)
        assert qp_equivalent(f, g, v) == \
            oracles.qp_equivalent_pairwise(entries, g.entries, v), (f, g, v)
    w = oracles.witt_index_rational_peel(entries)
    assert witt_index_rational(f) == w, f
    assert is_isotropic_rational(f) == (w >= 1), f


def _check_random_forms_against_referee(rng: random.Random, count: int,
                                        dims: tuple[int, int]) -> None:
    # Entries +-(1..30)/(1..30), at oo, at every prime dividing
    # 2 * prod(num * den), and at 3, 5, 7.  The partner for qp_equivalent
    # is a shuffled copy scaled by squares or a fresh form.
    small_primes = primes_up_to(30)

    def draw(dim: int) -> DiagonalForm:
        return DiagonalForm(tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
            for _ in range(dim)))

    equivalences = set()
    for _ in range(count):
        f = draw(rng.randint(*dims))
        scaled = [e * Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2
                  for e in f.entries]
        rng.shuffle(scaled)
        g = DiagonalForm(tuple(scaled)) if rng.random() < 0.5 else draw(f.dim)
        primes = {2, 3, 5, 7} | {p for p in small_primes if any(
            e.numerator * e.denominator % p == 0 for e in f.entries)}
        places = [None, *sorted(primes)]
        _assert_matches_referee(f, g, places)
        equivalences.update(qp_equivalent(f, g, p) for p in primes)
    assert equivalences == {True, False}


def test_local_invariants_match_pairwise_referee_on_random_forms():
    _check_random_forms_against_referee(random.Random(20261018), 2000, (1, 6))
    # <1> and <1^5> share disc and Hasse at every p: only the dimension differs
    f, g = DiagonalForm.parse("1"), DiagonalForm.parse("1,1,1,1,1")
    _assert_matches_referee(f, g, (None, 2, 3, 5))
    assert not any(qp_equivalent(f, g, v) for v in (None, 2, 3, 5))


def test_local_invariants_match_pairwise_referee_in_dimensions_7_to_12():
    # The closed local index compares with k = dim // 2 hyperbolic planes,
    # k = 3..6 here; at p = 2 their Hasse invariant (-1, -1)_2^(k(k-1)/2)
    # is -1 for k = 3, 6 and +1 for k = 4, 5.
    _check_random_forms_against_referee(random.Random(20261019), 400, (7, 12))


def test_closed_local_index_matches_the_peel_in_every_state():
    # One representative per square class at 2, 3, 5, 7: every tuple in
    # dimension 1 and 2, and <1^(dim-3), a, b, c> with a <= b <= c from
    # dimension 3 to 12, which reaches every (disc, Hasse) state there.
    for p, reps in _square_class_reps((3, 5, 7)).items():
        if p is None:
            continue
        for dim in range(1, 13):
            tuples = (itertools.product(reps, repeat=dim) if dim <= 2 else
                      ((1,) * (dim - 3) + abc
                       for abc in itertools.combinations_with_replacement(reps, 3)))
            states = set()
            for entries in tuples:
                f = DiagonalForm(entries)
                assert witt_index(f, p) == oracles.witt_index_peel(f.entries, p), (f, p)
                states.add(_hasse_and_disc_class(f, p))
            if dim >= 3:
                assert len(states) == 2 * len(reps), (p, dim, states)


def test_witt_index_is_one_closed_step_per_place(monkeypatch):
    # <1^50000, (-1)^49999> at 2, 3, 5: one closed _local_index call per
    # place, none for the rational index; the values are those that
    # `spinchi srank 50000 49999 2 3 5` prints.
    calls = []
    local_index = qforms._local_index
    monkeypatch.setattr(qforms, "_local_index",
                        lambda *args: calls.append(args) or local_index(*args))
    form = DiagonalForm.pm(50000, 49999)
    for p in (2, 3, 5):
        assert witt_index(form, p) == 49999
    assert witt_index(form, None) == 49999
    assert witt_index_rational(form) == 49999
    assert [args[3] for args in calls] == [2, 3, 5], calls


def _hasse_and_disc_class(form: DiagonalForm, v) -> tuple:
    inv = local_invariants(form, v)
    return inv.hasse, inv.disc_class


def test_memo_answers_match_a_fresh_form_in_any_order():
    # Each form keeps its local data per place and its rational index; in
    # any order of queries every answer must equal a fresh form's and the
    # referee's, and the kept data must not change equality, hash or repr.
    rng = random.Random(20261020)

    def draw(dim: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                              rng.randint(1, 30)) for _ in range(dim))

    for _ in range(300):
        entries = draw(rng.randint(1, 8))
        f, g = DiagonalForm(entries), DiagonalForm(draw(len(entries)))
        w = oracles.witt_index_rational_peel(entries)
        queries = [(witt_index_rational, w), (is_isotropic_rational, w >= 1)]
        for v in (None, 2, 3, 5, 7):
            queries += [
                (functools.partial(witt_index, v=v), oracles.witt_index_peel(entries, v)),
                (functools.partial(hasse_invariant, v=v), oracles.hasse_pairwise(entries, v)),
                (functools.partial(qp_equivalent, g=g, v=v),
                 oracles.qp_equivalent_pairwise(entries, g.entries, v)),
                (functools.partial(_hasse_and_disc_class, v=v),
                 (oracles.hasse_pairwise(entries, v), square_class_key(f.disc(), v))),
            ]
        rng.shuffle(queries)
        for query, want in queries:
            assert query(f) == query(DiagonalForm(entries)) == want, (query, f)
        fresh = DiagonalForm(entries)
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)


def test_each_form_and_place_takes_one_pass(monkeypatch):
    # One O(dim) pass per form and prime, however many functions ask; the
    # rational index is computed once for isotropy and index together.
    passes, rational = [], []
    hasse_disc, rational_index = qforms._hasse_disc, qforms._rational_index
    monkeypatch.setattr(qforms, "_hasse_disc",
                        lambda reps, p: passes.append(p) or hasse_disc(reps, p))
    monkeypatch.setattr(qforms, "_rational_index",
                        lambda form: rational.append(form) or rational_index(form))
    res = euler.s_arithmetic_sign(50000, 49999, (2, 3, 5))
    assert sorted(passes) == [2, 3, 5]
    assert res.witt_by_place == {"oo": 49999, "2": 49999, "3": 49999, "5": 49999}
    assert res.rank_rational == 49999
    passes.clear()
    form = DiagonalForm.parse("b(2000,1)")
    assert (witt_index(form, 3), anisotropic_dim(form, 3)) == (1000, 1)
    assert passes == [3]
    passes.clear()
    rational.clear()
    form = DiagonalForm.parse("1,1,-3")
    assert not is_isotropic_rational(form)
    assert witt_index_rational(form) == 0
    assert (witt_index(form, 2), witt_index(form, 3)) == (0, 0)
    assert len(rational) == 1 and sorted(passes) == [2, 3]
    with pytest.raises(ValueError, match="4 is not prime"):
        euler.s_arithmetic_sign(5, 3, (2, 4))


def test_place_cache_keeps_every_error():
    # A validated place is reused; a bad one raises on every call.
    assert qforms._as_place(7) is qforms._as_place(7)
    form = DiagonalForm.pm(2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            hilbert_symbol(2, 3, 4)
        with pytest.raises(ValueError, match="^4 is not prime$"):
            hilbert_symbol(0, 3, 4)  # the place is checked before the values
        with pytest.raises(ValueError, match="1 is not prime"):
            witt_index(form, 1)
        with pytest.raises(ValueError, match="0 is not prime"):
            square_class_key(3, 0)
        with pytest.raises(ValueError, match="^need a nonzero value$"):
            hilbert_symbol(0, 3, 5)
        with pytest.raises(ValueError, match="^need a nonzero value$"):
            hilbert_symbol(2, Fraction(0), None)
        with pytest.raises(ValueError, match="need a nonzero value"):
            square_class_key(Fraction(0), 2)


def test_memoised_square_class_code_is_the_plain_one():
    # Places vary fastest, so a cache keyed on n alone would answer with
    # the code of the previous place.
    rng = random.Random(23)
    values = [s * n for n in range(1, 2001) for s in (1, -1)]
    values += [rng.choice((1, -1)) * rng.getrandbits(60) or 1 for _ in range(500)]
    for n in values:
        for p in (None, 2, 3, 5, 7, 11, 13, 10007):
            assert qforms._key(n, p) == qforms._key.__wrapped__(n, p), (n, p)


def test_local_invariants_match_pairwise_referee_on_pm_forms(monkeypatch):
    # Every <1^m, (-1)^n> with d = m + n <= 40 at 2, 3, 5.  The partner
    # of the same rank has n + s (mod d + 1) negative entries, s cycling
    # through 1 (the discriminants differ at 2 and 3), 2 (the Hasse
    # invariants differ at 2) and 4 (equivalent at every p).  The
    # referee's Hasse product is a pure function of (entries, place);
    # caching it keeps its O(d^2) cost to one pass per form and place.
    monkeypatch.setattr(oracles, "hasse_pairwise",
                        functools.cache(oracles.hasse_pairwise))
    for d in range(1, 41):
        for n in range(d + 1):
            k = (n + (1, 2, 4)[n % 3]) % (d + 1)
            _assert_matches_referee(DiagonalForm.pm(d - n, n),
                                    DiagonalForm.pm(d - k, k), (2, 3, 5))


def test_local_functions_never_factor(monkeypatch):
    def refuse(n):
        raise AssertionError(f"FactoredInteger.of({n}) called by a local function")

    monkeypatch.setattr(FactoredInteger, "of", refuse)
    forms = [DiagonalForm.parse(A69_COFACTOR_FORM), DiagonalForm.pm(3, 2),
             DiagonalForm.parse("6/35,-10/21,15/2,-1/77")]
    for v in (2, 3, None):
        for f in forms:
            for a in f.entries:
                square_class_key(a, v)
                hilbert_symbol(a, f.entries[0], v)
            hasse_invariant(f, v)
            local_invariants(f, v)
            assert qp_equivalent(f, f, v)
            witt_index(f, v)
        assert witt_index(forms[0], v) == 1


def test_hyperbolic_pair_decides_isotropy_without_factoring(monkeypatch):
    # <N, 1, -1> holds the plane <1, -1>, so A_69's cofactor N is never
    # factored; nor are the entries of <a, -a s^2> pairs in dimension 4,
    # of the plane <N, -4N>, or of an indefinite form of dimension 5
    # (Meyer).  The rest after a plane is definite, so each index is 1.
    # Real index 1 in dimension 5 meets the local floor (5 - 3) // 2.
    def refuse(n):
        raise AssertionError(f"FactoredInteger.of({n}) called")

    monkeypatch.setattr(FactoredInteger, "of", refuse)
    qforms._prime_divisors.cache_clear()  # no prime set from an earlier test
    cofactor = A69_COFACTOR_FORM.split(",")[0]
    for text in (A69_COFACTOR_FORM, f"{cofactor},-4/9,3,1/9",
                 f"{cofactor},3,{cofactor},-{cofactor}",
                 f"{cofactor},-{4 * int(cofactor)}"):
        form = DiagonalForm.parse(text)
        assert is_isotropic_rational(form), text
        assert witt_index_rational(form) == 1, text
    assert is_isotropic_rational(DiagonalForm.parse(f"{cofactor},1,-3,5,-7"))
    assert witt_index_rational(DiagonalForm.parse(f"{cofactor},1,-3,5,7")) == 1


# ---------------------------------------------------------------------------
# reductions mod p and the genus criterion
# ---------------------------------------------------------------------------

def test_fp_type_examples():
    for p in (3, 5, 7, 11, 13):
        assert fp_type(8, 4, p) == 1
        assert fp_type(6, 2, p) == 1
    assert fp_type(8, 2, 5) == 1
    assert fp_type(8, 2, 13) == 1
    assert fp_type(8, 2, 3) == -1
    assert fp_type(8, 2, 7) == -1
    with pytest.raises(ValueError):
        fp_type(2, 1, 3)
    with pytest.raises(ValueError):
        fp_type(4, 2, 2)


def test_fp_type_is_legendre_of_signed_disc():
    for m in range(1, 7):
        for n in range(1, 7):
            if (m + n) % 2:
                continue
            d = m + n
            for p in (3, 5, 7, 11):
                signed_disc = (-1) ** (n + d // 2) % p
                legendre = 1 if pow(signed_disc, (p - 1) // 2, p) == 1 else -1
                assert fp_type(m, n, p) == legendre


def test_rational_witt_index_of_pm_forms_is_min():
    # <1, -1> is a hyperbolic plane and the rest is definite
    for d in range(1, 41):
        for m in range(d + 1):
            form = DiagonalForm.pm(m, d - m)
            assert witt_index_rational(form) == min(m, d - m), (m, d)
            if d <= 8:
                assert oracles.witt_index_rational_peel(form.entries) == min(m, d - m), (m, d)


def test_genus_criterion_examples():
    assert genus_first_failure(8, 2, 4, 6) is None
    assert genus_first_failure(5, 5, 1, 9) is None
    assert genus_first_failure(8, 2, 9, 1) == "p=3"
    assert genus_first_failure(2, 2, 2, 3) == "rank"
    assert genus_first_failure(6, 2, 4, 4) == "p=2"
    assert genus_first_failure(6, 2, 4, 4) is not None
    with pytest.raises(ValueError):
        genus_first_failure(0, 2, 1, 1)


def test_genus_criterion_is_reflexive_and_symmetric():
    pairs = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    for m, n in pairs:
        assert genus_first_failure(m, n, m, n) is None
    rng = random.Random(3)
    for _ in range(60):
        m, n = rng.choice(pairs)
        m2, n2 = rng.choice(pairs)
        assert (genus_first_failure(m, n, m2, n2) is None) == \
            (genus_first_failure(m2, n2, m, n) is None)


@functools.cache
def _pm_local_invariants(m: int, n: int, p: int):
    return local_invariants(DiagonalForm.pm(m, n), p)


def test_genus_rule_against_qp_invariants_up_to_100():
    # Z_p-equivalence implies Q_p-equivalence, and for +-1 forms the
    # converse holds too: the closed rule must agree with a sweep of the
    # Q_p invariants (dimension, discriminant class, Hasse) over p <= 100.
    primes = primes_up_to(100)
    sigs = {d: [(m, d - m) for m in range(1, d)] for d in range(3, 14)}
    pairs = [(a, b) for d in range(3, 13) for a in sigs[d]
             for b in sigs[d] + sigs[d + 1]]
    pairs += [(b, a) for a, b in pairs if sum(a) != sum(b)]
    for a, b in pairs:
        failing = [p for p in primes
                   if _pm_local_invariants(*a, p) != _pm_local_invariants(*b, p)]
        witness = genus_first_failure(*a, *b)
        assert (witness is None) == (not failing), (a, b, witness, failing)
        if witness is not None and witness.startswith("p="):
            assert int(witness[2:]) in failing, (a, b, witness, failing)


def test_two_adic_criterion_against_mod8_search_rank2_and_3():
    # The determinant-mod-8 plus oddity-mod-8 criterion must agree with
    # an exhaustive change-of-basis search modulo 8 on unit forms.
    forms_by_rank = {
        2: [(1, 1), (1, -1), (-1, -1)],
        3: [(1, 1, 1), (1, 1, -1), (1, -1, -1), (-1, -1, -1)],
    }
    for rank, forms in forms_by_rank.items():
        for qa, qb in itertools.combinations(forms, 2):
            ma = sum(1 for q in qa if q > 0)
            mb = sum(1 for q in qb if q > 0)
            det_equal = (math_prod(qa) - math_prod(qb)) % 8 == 0
            oddity_equal = ((2 * ma - rank) - (2 * mb - rank)) % 8 == 0
            predicted = det_equal and oddity_equal
            assert predicted == congruence_equivalent(qa, qb, 8), (qa, qb)


def math_prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def test_two_adic_criterion_positive_case_rank4():
    # <1,1,1,1> and <-1,-1,-1,-1> share determinant 1 and oddity 4 mod 8,
    # and an explicit mod-8 equivalence does exist.
    qa = (1, 1, 1, 1)
    qb = (-1, -1, -1, -1)
    assert (math_prod(qa) - math_prod(qb)) % 8 == 0
    assert (4 - (-4)) % 8 == 0
    assert congruence_equivalent(qa, qb, 8)
