"""spinchi benchmark: times the public entry points from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Runs fresh worker processes (bench/worker.py) one after another, never
two at once, for about S seconds: a single closed-loop client.  Every
worker starts with cold lru_caches, as a command-line user does.  Each
metric is the median over the workers of the run.  With --trace 1,
traced and untraced workers alternate; the traced ones give the
per-layer metrics and the difference of the two medians is the tracing
overhead.  Extra workers that only import spinchi add samples of the
set-up time.

Prints one "name value unit" line per metric, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.
``attempted`` and ``failed`` count the checked operations; the probes of
known defects are reported beside them as ``known_defect_ops`` and in
``failed_op_share``.  Exits non-zero without a result when spinchi is
missing or a worker crashes.  See bench/README.md for the design.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("family_table", "genus_sweep", "clifford_2adic", "local_global")
SETUP_SAMPLES_FIRST = 5      # set-up-only workers before the first iteration
SETUP_SAMPLES_EACH = 4       # and after each iteration
HARD_LIMIT_S = 170           # a run never outlives this, whatever --seconds says

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def _layer(prefix: str, kind: str):
    return lambda layers, w: layers[f"{prefix}.{kind}"]


def _genus_checks_per_pair(layers, worker):
    pairs = worker["pairs_enumerated"]
    return layers["qforms.genus_first_failure.calls"] / pairs if pairs else 0.0


def _calls(prefix):
    return (f"{prefix}.calls", "count", "lower", _layer(prefix, "calls"))


def _self(prefix):
    return (f"{prefix}.self_s", "s", "lower", _layer(prefix, "self_s"))


def _hits(prefix):
    return (f"{prefix}.cache_hit_ratio", "ratio", "higher", _layer(prefix, "cache_hit_ratio"))


# (name, unit, better, value from one traced worker); the move each one
# should cause is recorded in bench/README.md
PER_LAYER = (
    _calls("exactq.FactoredInteger.of"), _self("exactq.FactoredInteger.of"),
    ("exactq.FactoredInteger.of.input_bits", "bit", "lower",
     _layer("exactq.FactoredInteger.of", "extra")),
    _self("exactq.format_factored"),
    _calls("exactq.is_prime"), _self("exactq.is_prime"),
    _calls("exactq.bernoulli"), _hits("exactq.bernoulli"), _self("exactq.primes_up_to"),
    _calls("clifford.CliffordElement.__mul__"), _self("clifford.CliffordElement.__mul__"),
    ("clifford.term_products", "count", "lower",
     _layer("clifford.CliffordElement.__mul__", "extra")),
    _self("clifford.clifford_exp"), _self("clifford.clifford_log"),
    _self("clifford.is_spin_element"),
    _calls("qforms.hilbert_symbol"), _self("qforms.hilbert_symbol"),
    _calls("qforms.hasse_invariant"), _self("qforms.hasse_invariant"),
    _calls("qforms.genus_first_failure"), _self("qforms.genus_first_failure"),
    _calls("qforms.square_class_key"),
    _self("qforms.witt_index_rational"), _self("qforms.is_isotropic_rational"),
    _calls("ggroups.spin_order_fp"), _self("ggroups.spin_order_fp"),
    _hits("ggroups.vol_compact_dual"),
    _calls("euler.chi_closed"), _self("euler.chi_closed"),
    _self("euler.adelic_assembly_exact"), _self("euler.adelic_assembly_float"),
    _self("profinite.sweep_theorem_frank_dim"), _self("profinite.sweep_euler_not_profinite"),
    ("profinite.genus_checks_per_pair", "1/pair", "lower", _genus_checks_per_pair),
    _calls("cli.main"), _self("cli.main"),
)
# computed by this script from whole workers rather than from spans
RUN_LEVEL = (
    ("trace_overhead_s", "s", "lower"),
    ("failed_op_share", "ratio", "lower"),
    ("known_defect_ops", "count", "lower"),
)


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, trace: bool, run_id: int,
               setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--run-id", str(run_id)]
    if trace:
        cmd += ["--trace", "1", "--spans-out", str(OUT / f"{workload}.spans.tsv")]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("hard time limit reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"worker for {workload} passed the hard time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker for {workload} printed no result") from exc


def prepare() -> float:
    """Check spinchi is there, compile its bytecode and import it once."""
    if not (ROOT / "src" / "spinchi" / "__init__.py").is_file():
        raise BenchError("src/spinchi not found: run from a spinchi checkout")
    OUT.mkdir(exist_ok=True)
    for path in (ROOT / "src" / "spinchi", BENCH):
        if not compileall.compile_dir(str(path), quiet=1):
            raise BenchError(f"could not compile {path}")
    deadline = time.monotonic() + HARD_LIMIT_S
    run_worker(WORKLOADS[0], 0, False, 0, True, deadline)
    return deadline


def measure(workload: str, seed: int, seconds: float, trace: bool,
            hard_deadline: float) -> tuple[dict, dict]:
    """Run workers for about ``seconds``; return (metrics, op totals)."""
    end = time.monotonic() + seconds
    setups = [run_worker(workload, seed, False, 0, True, hard_deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES_FIRST)]
    plain: list[dict] = []
    traced: list[dict] = []
    cost = {False: 0.0, True: 0.0}    # longest iteration, with its set-up samples
    while True:
        want_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        worker = run_worker(workload, seed, want_trace, len(plain) + len(traced) + 1,
                            False, hard_deadline)
        (traced if want_trace else plain).append(worker)
        setups.append(worker["setup_s"])
        setups += [run_worker(workload, seed, False, 0, True, hard_deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES_EACH)]
        cost[want_trace] = max(cost[want_trace], time.monotonic() - t0)
        next_trace = trace and len(traced) < len(plain)
        if time.monotonic() + cost[next_trace] > end and (traced or not trace):
            break

    workers = plain + traced
    totals = {key: sum(w["ops"][key] for w in workers) for key in workers[0]["ops"]}
    totals["failures"] = [msg for w in workers for msg in w["failures"]][:20]
    totals["correct"] = totals["failed"] == 0
    if any(w["ops"] != workers[0]["ops"] for w in workers):
        totals["correct"] = False
        totals["failures"].append("operation outcomes differ between workers of one run")

    if not trace:
        metrics = {
            "wall_s": statistics.median(w["wall_s"] for w in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in plain),
        }
        return metrics, totals

    metrics = {}
    for name, _, _, value in PER_LAYER:
        values = [value(w["layers"], w) for w in traced]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                totals["correct"] = False
                totals["failures"].append(f"count {name} differs between workers: {values}")
    metrics["trace_overhead_s"] = (statistics.median(w["wall_s"] for w in traced)
                                   - statistics.median(w["wall_s"] for w in plain))
    metrics["failed_op_share"] = failed_op_share(totals)
    metrics["known_defect_ops"] = totals["known_defect"] // len(workers)
    return metrics, totals


def failed_op_share(totals: dict) -> float:
    """Failed operations, known-defect probes included, over all attempted."""
    failed = totals["failed"] + totals["known_defect"]
    return failed / (totals["attempted"] + totals["known_defect"])


def units(trace: bool) -> dict[str, str]:
    if not trace:
        return {name: unit for name, unit, _ in END_TO_END}
    return {name: unit for name, unit, *_ in PER_LAYER + RUN_LEVEL}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unit_of = units(trace)
    try:
        hard_deadline = prepare()
        if len(names) > 1:
            hard_deadline += HARD_LIMIT_S * (len(names) - 1)
        results = {name: measure(name, args.seed, args.seconds, trace, hard_deadline)
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for workload, (metrics, totals) in results.items():
        for name, value in metrics.items():
            print(f"{workload}  {name}  {value:.6g}  {unit_of[name]}")
        print(f"{workload}  attempted {totals['attempted']}  failed {totals['failed']}"
              f"  known_defect_ops {totals['known_defect']} of {totals['probes']} probes"
              f"  failed_op_share {failed_op_share(totals):.6g} ratio")
        for msg in totals["failures"]:
            print(f"{workload}  FAILED  {msg}", file=sys.stderr)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(t["correct"] for _, t in results.values()),
        "attempted": sum(t["attempted"] for _, t in results.values()),
        "failed": sum(t["failed"] for _, t in results.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit_of[name]}
                    for w, (metrics, _) in results.items() for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
