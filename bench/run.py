"""Run one benchmark workload against the ddrns sources of this checkout.

    python3 bench/run.py --workload robust-cubic-k0 --seed 1 --seconds 30 --trace 0

The workload runs whole rounds in this process until the next round would
end past --seconds (at least one round).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
each metric the median over the rounds.  With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json; with ``--trace 1`` ddrns is traced
from outside and the metrics are the per-layer ones.  The per-round record
is also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
RESULTS = BENCH / "results"


def limit_blas_threads():
    """At most one BLAS thread per CPU this process may run on; must run
    before numpy is imported."""
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = ncpu


def round_metrics(rnd, tracer) -> dict:
    """End-to-end and per-layer figures of one round."""
    s = rnd.seconds
    out = {
        "wall_s": rnd.wall_s,
        "setup_s": rnd.setup_s,
        "solve_s": s["solve"],
        "mesh.build_s": s["mesh"],
        "mesh.cells": rnd.n_cells,
        "operators.complex_s": s["complex"],
        "solver.init_s": s["solver_init"],
        "solver.newton_its": rnd.newton_its,
        "verify.errors_s": s["errors"],
    }
    out["trace.wall_s"] = out["wall_s"]
    out.update(tracer.metrics())
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds of `workload` for about `seconds`; return the record."""
    from tracing import NullTracer, Tracer

    rounds = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace else NullTracer()
        with tracer:
            rnd = workload(seed, tracer)
        rounds.append((rnd, round_metrics(rnd, tracer)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name == "peak_rss_mb":
            value = peak_rss_mb
        else:
            value = statistics.median(m[name] for _, m in rounds)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(r.correct for r, _ in rounds),
        "attempted": sum(r.attempted for r, _ in rounds),
        "failed": sum(r.failed for r, _ in rounds),
        "metrics": metrics,
        "peak_rss_mb": peak_rss_mb,
        "rounds": [{"seconds": dict(r.seconds), "checks": r.checks,
                    "metrics": m} for r, m in rounds],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SOURCE / "ddrns" / "__init__.py").is_file():
        print(f"no ddrns sources under {SOURCE}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SOURCE))
    from workloads import REFERENCE_CASES, WORKLOADS
    cases = {**WORKLOADS, **REFERENCE_CASES}
    if args.workload not in cases:
        print(f"unknown workload {args.workload!r}; one of "
              + ", ".join(cases), file=sys.stderr)
        return 2

    record = measure(cases[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                **record}, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
