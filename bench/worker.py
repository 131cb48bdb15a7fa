"""One benchmark iteration in a fresh process, so every lru_cache starts cold.

    python3 bench/worker.py --workload NAME --seed N [--trace 1] [--setup-only]

Times ``import spinchi, spinchi.cli`` first, before anything else is
imported, so the standard-library modules spinchi needs are loaded
inside the timed part as they are for a command-line user; run.py
compiles the bytecode beforehand.  Then builds the workload's inputs
from the seed, runs each operation under its deadline and checks it, and
prints one JSON line.  The process is thrown away afterwards.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    t0 = time.perf_counter()
    import spinchi  # noqa: F401
    import spinchi.cli  # noqa: F401
    setup_s = time.perf_counter() - t0

    import argparse
    import json
    import resource

    import tracing
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plan = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracer.install()

    done = workloads.execute(plan, tracer)
    out = {
        "setup_s": setup_s,
        "wall_s": done["wall_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": done["ops"],
        "failures": done["failures"],
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(done["cut_ops"])
        out["pairs_enumerated"] = plan.pairs_enumerated
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
