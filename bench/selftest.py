"""Self-test of the benchmark's checks: corrupted results must fail.

    python3 bench/selftest.py

Feeds each checker a correct result (which must pass) and corrupted
ones (a chi off by one, a wrong factorization, a flipped Hilbert sign, a
missing genus class, a wrong Clifford coefficient, ...), each of which
must be reported as a failed operation.  Then runs small plans through
the worker's own loop to show that a corrupted result, an unexpected
exception and a missed deadline count as failed operations, and that a
probe hitting its documented defect counts as a known defect.  Finally
checks that BENCHMARK.json names exactly the metrics run.py reports.
Exits non-zero if any check misbehaves.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from fractions import Fraction

import run
import workloads as wl
from oracles import chi, product_coefficient

sys.path.insert(0, str(run.ROOT / "src"))

PROBLEMS: list[str] = []


def expect(label: str, failures: list[str], should_fail: bool) -> None:
    if bool(failures) != should_fail:
        PROBLEMS.append(f"{label}: expected {'failure' if should_fail else 'pass'}, got {failures[:2]}")


def check_family_table() -> None:
    from spinchi.exactq import format_factored
    d_max = 10
    code, text = wl._run_cli(["table", "--d-max", str(d_max), "--csv"])
    expect("table", wl.check_table((code, text), d_max), False)
    row = next(line for line in text.splitlines() if line.startswith("8,2,"))
    fields = row.split(",")
    off_by_one = fields.copy()
    off_by_one[6] = str(Fraction(fields[6]) + 1)
    unprimed = fields.copy()   # multiplies back, but 25 is not a prime
    unprimed[5] = "2^89 * 17 * 25"
    for label, bad in (("chi off by one", off_by_one), ("twin value misprinted", unprimed)):
        expect(f"table, {label}", wl.check_table((code, text.replace(row, ",".join(bad))), d_max), True)
    other = next(line for line in text.splitlines() if line.startswith("6,2,"))
    wrong = other.split(",")
    wrong[5] = "2^3 * 7"
    expect("table, wrong factorization",
           wl.check_table((code, text.replace(other, ",".join(wrong))), d_max), True)
    doubled = other.split(",")   # a wrong chi whose factorization multiplies back to it
    doubled[6] = str(2 * Fraction(doubled[6]))
    doubled[5] = format_factored(Fraction(doubled[6]))
    expect("table, chi doubled consistently",
           wl.check_table((code, text.replace(other, ",".join(doubled))), d_max), True)
    expect("table, row dropped", wl.check_table((code, text.replace(row + "\n", "")), d_max), True)
    expect("table, exit code", wl.check_table((2, text), d_max), True)
    expect("chi --factored", wl.check_factored_chi(8, 2, (0, "2^89 * 5^2 * 17\n")), False)
    expect("chi --factored, wrong", wl.check_factored_chi(8, 2, (0, "2^89 * 5^2 * 19\n")), True)


def check_genus_sweep() -> None:
    from spinchi import profinite
    d_max = 10
    report = profinite.sweep_theorem_frank_dim(d_max)
    expect("frank_dim", wl.check_frank_dim(report, d_max), False)
    pairs = report.equivalent_pairs
    expect("frank_dim, pair dropped",
           wl.check_frank_dim(dataclasses.replace(report, equivalent_pairs=pairs[1:]), d_max), True)
    expect("frank_dim, violation",
           wl.check_frank_dim(dataclasses.replace(report, violations=("x",)), d_max), True)
    no_twin = tuple(c for c in report.classes if (8, 2) not in c)
    expect("frank_dim, class missing",
           wl.check_frank_dim(dataclasses.replace(report, classes=no_twin), d_max), True)
    found = profinite.sweep_euler_not_profinite(d_max)
    expect("not_profinite", wl.check_not_profinite(found, d_max), False)
    bad = dataclasses.replace(found[0], chi_first=found[0].chi_first + 1)
    expect("not_profinite, chi off by one", wl.check_not_profinite([bad, *found[1:]], d_max), True)
    expect("not_profinite, pair dropped", wl.check_not_profinite(found[1:], d_max), True)


def check_clifford() -> None:
    from spinchi import clifford as cl
    sig = cl.Signature(3, 2)
    x = cl.CliffordElement(sig, cl.ZZ, {0b11: 4, 0b1100: -8})
    g = cl.clifford_exp(x, wl.EXP_BITS)
    expect("exp", wl.check_exp(g), False)
    expect("exp, odd blade", wl.check_exp(g + cl.CliffordElement(sig, g.ring, {0b1: 4})), True)
    back = cl.clifford_log(g, wl.EXP_BITS)
    expect("log", wl.check_log(back, x.coeffs), False)
    expect("log, flipped", wl.check_log(back, {0b11: 4, 0b1100: 8}), True)
    ring = cl.ModularRing(256)
    a = cl.CliffordElement(sig, ring, {b: (3 * b + 1) % 256 for b in range(32)})
    c = cl.CliffordElement(sig, ring, {b: (5 * b + 7) % 256 for b in range(32)})
    assoc = (a, c, a)
    expected = {b: product_coefficient(a.coeffs, c.coeffs, b, sig.m, 256) for b in range(32)}
    z = a * c
    expect("dense", wl.check_dense(z, expected, assoc), False)
    wrong = z + cl.CliffordElement(sig, ring, {0b101: 1})
    expect("dense, wrong coefficient", wl.check_dense(wrong, expected, assoc), True)
    expect("dense, not associative", wl.check_dense(z, expected, (Skew(1), Skew(2), Skew(3))), True)


class Skew:
    """A non-associative product (subtraction), for the associativity check."""

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return Skew(self.v - other.v)

    def __eq__(self, other):
        return self.v == other.v


def check_local_global() -> None:
    want = chi(8, 2)
    expect("exact", wl.check_exact(8, 2, (want, want)), False)
    expect("exact, off by one", wl.check_exact(8, 2, (want + 1, want)), True)
    expect("float", wl.check_float(8, 2, float(want) * (1 + 1e-6)), False)
    expect("float, 1% off", wl.check_float(8, 2, float(want) * 1.01), True)
    expect("float, inf", wl.check_float(8, 2, float("inf")), True)
    pairs = [(Fraction(2), Fraction(3)), (Fraction(-1), Fraction(-1))]
    # (2,3) is -1 at 3 and at 2; (-1,-1) is -1 at oo and at 2
    good = [[1, -1, -1], [-1, -1]]
    expect("hilbert", wl.check_hilbert(pairs, good), False)
    expect("hilbert, flipped sign", wl.check_hilbert(pairs, [[1, -1, 1], [-1, -1]]), True)
    entries = (Fraction(1), Fraction(-1))
    witt = {None: 1, 2: 1}
    expect("form", wl.check_form(entries, (witt, True, 1)), False)
    expect("form, isotropy flipped", wl.check_form(entries, (witt, False, 1)), True)
    ternary = (Fraction(1), Fraction(1), Fraction(-1))
    expect("form, isotropic with Q-index 0", wl.check_form(ternary, (witt, True, 0)), True)


def check_worker_loop() -> None:
    def spin():
        while True:
            time.sleep(0.01)

    plan = wl.Plan([
        wl.Op("corrupted", lambda: (chi(8, 2) + 1, chi(8, 2)), lambda r: wl.check_exact(8, 2, r)),
        wl.Op("raises", lambda: 1 / 0, lambda r: []),
        wl.Op("hangs", spin, lambda r: [], deadline_s=0.1),
        wl.Op("known hang", spin, lambda r: [], deadline_s=0.1, known_defect=wl.DeadlineExceeded),
        wl.Op("wrong defect", lambda: 1 / 0, lambda r: [], known_defect=OverflowError),
        wl.Op("fixed defect", lambda: float(chi(8, 2)), lambda r: wl.check_float(8, 2, r),
              known_defect=OverflowError),
        wl.Op("malformed", lambda: None, lambda r: wl.check_exact(8, 2, r), count=3),
    ])
    done = wl.execute(plan)
    want = {"attempted": 8, "failed": 7, "probes": 3, "known_defect": 1}
    if done["ops"] != want:
        PROBLEMS.append(f"worker loop counted {done['ops']}, expected {want}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [[n, u, b] for n, u, b in run.END_TO_END]
    layer = [[n, u, b] for n, u, b, *_ in run.PER_LAYER + run.RUN_LEVEL]
    if [[m["name"], m["unit"], m["better"]] for m in spec["end_to_end"]] != e2e:
        PROBLEMS.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] != layer:
        PROBLEMS.append("BENCHMARK.json per_layer differs from run.PER_LAYER + run.RUN_LEVEL")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        PROBLEMS.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def main() -> int:
    for check in (check_family_table, check_genus_sweep, check_clifford,
                  check_local_global, check_worker_loop, check_benchmark_json):
        check()
    for problem in PROBLEMS:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: FAIL" if PROBLEMS else "selftest: ok")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
