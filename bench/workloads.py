"""The four benchmark workloads: operations on spinchi and their checks.

Each workload is a list of ``Op``s.  An op calls into spinchi, and its
check turns the result into one message per failed operation (an empty
list is a pass).  One call may stand for many operations: the table call
is one operation per row, a sweep one per signature pair.

Ops with ``known_defect`` set are probes of a documented defect: the
frontier ``chi --factored`` queries that run past their deadline, and
``adelic_assembly_float`` overflowing at d >= 28.  They always run.
Hitting the named defect is reported as a known-defect operation;
completing with a wrong answer is a failure like any other.

Only ``clifford_2adic`` and the random-form half of ``local_global`` draw
on the seed.  ``family_table`` and ``genus_sweep`` are fixed families
(the signature table and the sweeps over all pairs), so the seed does
not vary them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import signal
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import oracles


class DeadlineExceeded(BaseException):
    """Raised in the worker when an operation runs past its deadline.

    A BaseException, so that no ``except Exception`` inside spinchi can
    swallow it.
    """


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    count: int = 1                       # operations this call stands for
    deadline_s: float = 60.0
    known_defect: Optional[type] = None  # exception that is the documented defect


@dataclass
class Plan:
    ops: list[Op]
    pairs_enumerated: int = 0            # signature pairs the sweeps walk


# ---------------------------------------------------------------------------
# running a plan


def _alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op: Op):
    """(result, exception) of one op under its deadline."""
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    try:
        return op.run(), None
    except (DeadlineExceeded, Exception) as exc:  # any error fails the op, not the run
        return None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def execute(plan: Plan, tracer=None) -> dict:
    """Run and check every op; return outcome counts, failures and timing.

    A probe that hits its documented defect counts as known_defect only;
    one that completes is checked and counted like any other operation.
    """
    signal.signal(signal.SIGALRM, _alarm)
    ops = {"attempted": 0, "failed": 0, "probes": 0, "known_defect": 0}
    failures: list[str] = []
    cut_ops: set[int] = set()
    start = time.perf_counter()
    for index, op in enumerate(plan.ops):
        if tracer:
            tracer.op = index
        result, exc = run_op(op)
        if isinstance(exc, DeadlineExceeded):
            cut_ops.add(index)
        if op.known_defect:
            ops["probes"] += op.count
            if isinstance(exc, op.known_defect):
                ops["known_defect"] += op.count
                continue
        if exc is None:
            try:
                msgs = op.check(result)[:op.count]
            except Exception as err:  # a malformed result fails its check
                exc = err
        if exc is not None:
            msgs = [f"{op.name}: {type(exc).__name__}: {exc}"] * op.count
        ops["attempted"] += op.count
        ops["failed"] += len(msgs)
        failures += msgs[:3]
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.op = -1
    return {"ops": ops, "failures": failures[:20], "cut_ops": cut_ops, "wall_s": wall_s}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from spinchi import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _precompute_chi(signatures) -> None:
    """Fill the reference chi cache when the plan is built, before timing."""
    for m, n in signatures:
        oracles.chi(m, n)


def _all_failed(op_name: str, count: int, why: str) -> list[str]:
    return [f"{op_name}: {why}"] * count


# ---------------------------------------------------------------------------
# family_table

TABLE_D_MAX = 30
TABLE_FIELDS = "m,n,d,dimX,delta,chi,chi_rational,sign,case"
TWIN_VALUES = {(8, 2): "2^89 * 5^2 * 17", (4, 6): "2^90 * 5^2 * 17"}
FRONTIER = ((40, 2), (48, 2))
FRONTIER_DEADLINE_S = 1.0


def check_table_row(m: int, n: int, row: dict) -> Optional[str]:
    """Why the CSV row for (m, n) is wrong, or None."""
    try:
        if (int(row["d"]), int(row["dimX"]), int(row["delta"])) != (
                m + n, m * n, 1 if m % 2 and n % 2 else 0):
            return "d, dimX or delta"
        value = Fraction(row["chi_rational"])
        if value != oracles.chi(m, n):
            return f"chi_rational {value} is not the closed-formula value"
        if oracles.parse_factored(row["chi"]) != value:
            return f"factorization {row['chi']} does not multiply back to {value}"
        if int(row["sign"]) != oracles.chi_sign(m, n) or row["case"] != oracles.case_tag(m, n):
            return "sign or case"
        if (m, n) in TWIN_VALUES and row["chi"] != TWIN_VALUES[(m, n)]:
            return f"twin value {row['chi']} != {TWIN_VALUES[(m, n)]}"
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"unparsable row: {exc}"
    return None


def check_table(result, d_max: int = TABLE_D_MAX) -> list[str]:
    expected = [(m, d - m) for d in range(3, d_max + 1) for m in range(1, d)]
    code, text = result
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != TABLE_FIELDS:
        return _all_failed("table", len(expected), f"exit {code} or bad header")
    names = TABLE_FIELDS.split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        try:
            rows[(int(row["m"]), int(row["n"]))] = row
        except (ValueError, KeyError):
            continue
    failures = []
    for m, n in expected:
        why = check_table_row(m, n, rows[(m, n)]) if (m, n) in rows else "row missing"
        if why:
            failures.append(f"table row ({m},{n}): {why}")
    if len(lines) - 1 != len(expected) and not failures:
        failures.append(f"table: {len(lines) - 1} rows, expected {len(expected)}")
    return failures


def check_factored_chi(m: int, n: int, result) -> list[str]:
    code, text = result
    try:
        ok = code == 0 and oracles.parse_factored(text) == oracles.chi(m, n)
    except ValueError:
        ok = False
    return [] if ok else [f"chi {m} {n} --factored: got {text.strip()[:60]!r}"]


def family_table(seed: int) -> Plan:
    d_max = TABLE_D_MAX
    _precompute_chi([(m, d - m) for d in range(3, d_max + 1) for m in range(1, d)])
    _precompute_chi(FRONTIER)
    ops = [Op("table", lambda: _run_cli(["table", "--d-max", str(d_max), "--csv"]),
              check_table, count=sum(d - 1 for d in range(3, d_max + 1)))]
    for m, n in FRONTIER:
        ops.append(Op(f"chi {m} {n} --factored",
                      lambda m=m, n=n: _run_cli(["chi", str(m), str(n), "--factored"]),
                      lambda r, m=m, n=n: check_factored_chi(m, n, r),
                      deadline_s=FRONTIER_DEADLINE_S, known_defect=DeadlineExceeded))
    return Plan(ops)


# ---------------------------------------------------------------------------
# genus_sweep

SWEEP_D_MAX = 20
REQUIRED_CLASSES = ({(8, 2), (4, 6)}, {(5, 5), (1, 9)})


def _pairs(d_max: int):
    for d in range(3, d_max + 1):
        yield from itertools.combinations([(m, d - m) for m in range(1, d)], 2)


def check_frank_dim(report, d_max: int = SWEEP_D_MAX) -> list[str]:
    pairs = list(_pairs(d_max))
    if report.pair_count != len(pairs):
        return _all_failed("sweep_theorem_frank_dim", len(pairs),
                           f"pair_count {report.pair_count} != {len(pairs)}")
    found = set(report.equivalent_pairs)
    failures = [f"frank_dim pair {a}/{b}: genus verdict wrong" for a, b in pairs
                if ((a, b) in found) != oracles.same_genus(a, b)]
    failures += [f"frank_dim violation: {v}" for v in report.violations]
    classes = [set(cls) for cls in report.classes]
    for want in REQUIRED_CLASSES:
        if not any(want <= cls for cls in classes):
            failures.append(f"frank_dim: class containing {sorted(want)} not found")
    return failures[:len(pairs)]


def check_not_profinite(found_pairs, d_max: int = SWEEP_D_MAX) -> list[str]:
    pairs = list(_pairs(d_max))
    found = {(p.first, p.second): (p.chi_first, p.chi_second) for p in found_pairs}
    failures = []
    for a, b in pairs:
        ca, cb = oracles.chi(*a), oracles.chi(*b)
        want = oracles.same_genus(a, b) and ca and cb and ca != cb
        got = found.get((a, b))
        if bool(want) != (got is not None) or (got is not None and got != (ca, cb)):
            failures.append(f"not_profinite pair {a}/{b}: listed {got is not None}, expected {bool(want)}")
    if len(found) != len(found_pairs) and not failures:
        failures.append("not_profinite: duplicate pairs")
    return failures


def genus_sweep(seed: int) -> Plan:
    from spinchi import profinite
    n_pairs = sum(1 for _ in _pairs(SWEEP_D_MAX))
    _precompute_chi(mn for pair in _pairs(SWEEP_D_MAX) for mn in pair)
    ops = [Op("sweep_theorem_frank_dim",
              lambda: profinite.sweep_theorem_frank_dim(SWEEP_D_MAX),
              check_frank_dim, count=n_pairs),
           Op("sweep_euler_not_profinite",
              lambda: profinite.sweep_euler_not_profinite(SWEEP_D_MAX),
              check_not_profinite, count=n_pairs)]
    return Plan(ops, pairs_enumerated=2 * n_pairs)


# ---------------------------------------------------------------------------
# clifford_2adic

EXP_DIMS = (8, 9)
EXP_BITS = 8
DENSE_DIM = 10
DENSE_MODULI = (("ModularRing", 256), ("PrimeField", 5))
SAMPLED_BLADES = 8
ASSOC_TERMS = 6


def check_exp(g, bits: int = EXP_BITS) -> list[str]:
    mod = 1 << bits
    ok = (getattr(g.ring, "modulus", None) == mod and g.is_even()
          and all((c - (1 if b == 0 else 0)) % 4 == 0 for b, c in g.coeffs.items()))
    return [] if ok else ["clifford_exp: result is not 1 mod 4 in the even part over Z/2^bits"]


def check_log(back, x_coeffs: dict, bits: int = EXP_BITS) -> list[str]:
    mod = 1 << bits
    want = {b: c % mod for b, c in x_coeffs.items() if c % mod}
    return [] if dict(back.coeffs) == want else ["clifford_log(clifford_exp(x)) != x mod 2^bits"]


def check_dense(z, expected: dict, assoc) -> list[str]:
    """``expected``: sampled coefficients of the product, summed term by term."""
    for b, want in expected.items():
        if z.coefficient(b) != want:
            return [f"dense product over {z.ring}: coefficient of blade {b:#x} wrong"]
    xs, ys, zs = assoc
    if (xs * ys) * zs != xs * (ys * zs):
        return [f"dense product over {z.ring}: associativity fails on sampled terms"]
    return []


def clifford_2adic(seed: int) -> Plan:
    from spinchi import clifford as cl
    rng = random.Random(seed)
    ops: list[Op] = []
    for d in EXP_DIMS:
        sig = cl.Signature(m := rng.randint(1, d - 1), d - m)
        coeffs = {cl.blade_from_indices(ij): 4 * rng.choice((-3, -2, -1, 1, 2, 3))
                  for ij in itertools.combinations(range(1, d + 1), 2)}
        x = cl.CliffordElement(sig, cl.ZZ, coeffs)
        state: dict = {}

        def run_exp(x=x, state=state):
            state["g"] = cl.clifford_exp(x, EXP_BITS)
            return state["g"]

        ops += [
            Op(f"clifford_exp d={d}", run_exp, check_exp),
            Op(f"is_spin_element d={d}", lambda state=state: cl.is_spin_element(state["g"]),
               lambda ok, d=d: [] if ok is True else [f"is_spin_element d={d}: not spin"]),
            Op(f"clifford_log d={d}", lambda state=state: cl.clifford_log(state["g"], EXP_BITS),
               lambda back, c=coeffs: check_log(back, c)),
        ]
    for ring_name, modulus in DENSE_MODULI:
        ring = getattr(cl, ring_name)(modulus)
        sig = cl.Signature(m := rng.randint(1, DENSE_DIM - 1), DENSE_DIM - m)
        x, y = (cl.CliffordElement(sig, ring, {b: rng.randrange(1, modulus)
                                               for b in range(1 << DENSE_DIM)})
                for _ in range(2))
        expected = {b: oracles.product_coefficient(x.coeffs, y.coeffs, b, m, modulus)
                    for b in rng.sample(range(1 << DENSE_DIM), SAMPLED_BLADES)}
        assoc = tuple(cl.CliffordElement(sig, ring, {b: src.coeffs[b] for b in
                                                     rng.sample(range(1 << DENSE_DIM), ASSOC_TERMS)})
                      for src in (x, y, x))
        ops.append(Op(f"dense product d={DENSE_DIM} over {ring}", lambda x=x, y=y: x * y,
                      lambda z, e=expected, a=assoc: check_dense(z, e, a)))
    return Plan(ops)


# ---------------------------------------------------------------------------
# local_global

EXACT_D_MAX = 26
FLOAT_D_MAX = 12
FLOAT_PRIME_BOUND = 10 ** 5
FLOAT_REL_TOL = Fraction(1, 1000)
OVERFLOW_PROBES = ((26, 2), (28, 2))
RANDOM_FORMS = 1000
FORM_DIMS = (2, 6)
ENTRY_MAX = 30


def _signatures(d_max: int):
    for d in range(3, d_max + 1):
        for m in range(1, d):
            if not (m % 2 and (d - m) % 2):
                yield m, d - m


def check_exact(m: int, n: int, result) -> list[str]:
    assembled, closed = result
    want = oracles.chi(m, n)
    return [] if assembled == closed == want else [f"adelic_assembly_exact({m},{n}) != chi_closed"]


def check_float(m: int, n: int, got) -> list[str]:
    want = oracles.chi(m, n)
    try:
        ok = abs(Fraction(got) - want) <= FLOAT_REL_TOL * abs(want)
    except (TypeError, ValueError, OverflowError):
        ok = False
    return [] if ok else [f"adelic_assembly_float({m},{n}) = {got!r} not within 1e-3"]


def random_form(rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, ENTRY_MAX), rng.randint(1, ENTRY_MAX))
                 for _ in range(rng.randint(*FORM_DIMS)))


def form_places(entries) -> list[Optional[int]]:
    primes = {2}
    for e in entries:
        primes.update(oracles.prime_divisors(e.numerator * e.denominator))
    return [None, *sorted(primes)]


def check_form(entries, result) -> list[str]:
    witt, iso, w_rat = result
    dim = len(entries)
    pos = sum(1 for e in entries if e > 0)
    ok = (witt[None] == min(pos, dim - pos)
          and all(0 <= w <= dim // 2 for w in witt.values())
          and 0 <= w_rat <= min(witt.values())
          and iso == (w_rat >= 1))
    if dim == 2:
        ok = ok and iso == oracles.is_rational_square(-entries[0] * entries[1])
    if dim >= 5:
        ok = ok and iso == (0 < pos < dim)
    return [] if ok else [f"form {','.join(map(str, entries))}: witt {witt}, iso {iso}, Q-index {w_rat}"]


def check_hilbert(pairs, symbols) -> list[str]:
    if len(symbols) != len(pairs):
        return _all_failed("Hilbert symbols", len(pairs), "one row per pair expected")
    return [f"Hilbert product formula fails for {a}, {b}"
            for (a, b), row in zip(pairs, symbols) if math.prod(row) != 1]


def local_global(seed: int) -> Plan:
    from spinchi import euler, qforms
    _precompute_chi([*_signatures(EXACT_D_MAX), *OVERFLOW_PROBES])
    ops: list[Op] = []
    for m, n in _signatures(EXACT_D_MAX):
        ops.append(Op(f"adelic_assembly_exact({m},{n})",
                      lambda m=m, n=n: (euler.adelic_assembly_exact(m, n), euler.chi_closed(m, n).value),
                      lambda r, m=m, n=n: check_exact(m, n, r)))
    for m, n in _signatures(FLOAT_D_MAX):
        ops.append(Op(f"adelic_assembly_float({m},{n})",
                      lambda m=m, n=n: euler.adelic_assembly_float(m, n, FLOAT_PRIME_BOUND),
                      lambda r, m=m, n=n: check_float(m, n, r)))
    for m, n in OVERFLOW_PROBES:
        ops.append(Op(f"adelic_assembly_float({m},{n})",
                      lambda m=m, n=n: euler.adelic_assembly_float(m, n, FLOAT_PRIME_BOUND),
                      lambda r, m=m, n=n: check_float(m, n, r), known_defect=OverflowError))
    rng = random.Random(seed)
    for _ in range(RANDOM_FORMS):
        entries = random_form(rng)
        places = form_places(entries)

        def run_form(entries=entries, places=places):
            form = qforms.DiagonalForm(entries)
            witt = {p: qforms.witt_index(form, qforms.Place(p)) for p in places}
            return witt, qforms.is_isotropic_rational(form), qforms.witt_index_rational(form)

        pairs = list(itertools.combinations(entries, 2))
        pair_places = [form_places(pair) for pair in pairs]

        def run_hilbert(pairs=pairs, pair_places=pair_places):
            return [[qforms.hilbert_symbol(a, b, p) for p in pl]
                    for (a, b), pl in zip(pairs, pair_places)]

        ops += [Op(f"witt indices of <{','.join(map(str, entries))}>", run_form,
                   lambda r, e=entries: check_form(e, r)),
                Op(f"Hilbert symbols of <{','.join(map(str, entries))}>", run_hilbert,
                   lambda r, p=pairs: check_hilbert(p, r), count=len(pairs))]
    return Plan(ops)


WORKLOADS = {
    "family_table": family_table,
    "genus_sweep": genus_sweep,
    "clifford_2adic": clifford_2adic,
    "local_global": local_global,
}
