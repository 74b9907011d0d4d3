#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload robust-cubic-k0 --seeds 801-810 --tag pr8 \\
        --claim "median setup_s on robust-cubic-k0 at least 35% below the parent's"

For each seed, `bench/run.py` of both checkouts runs the workload once
untraced (``--trace 0``), each from its own directory; which side runs
first alternates from seed to seed.  Then each side runs seed 1 once
traced (``--trace 1``).  Per workload the file records the seeds, the side
that ran first, every run's end-to-end metrics, their medians, the
parent's interquartile range, the number of pairs the change wins, the
metric's bound from BENCHMARK.json with the no-regression reading against
it, whether a gain is shown (:func:`summarise`), and the traced per-layer
figures.  A run that
exits with an error is listed under ``crashed`` by seed and counted in
``failed`` for its side; its pair is left out of the metrics, and the
other pairs are measured as usual.  It also records, for both sides, the
commit and whether the checkout has uncommitted changes
(:func:`tree_state`), and the line counts of ``src/`` and ``tests/``.
Workloads already in an existing BENCH_<tag>.json are kept, so several
invocations fill one file.

The ``machine`` block names the platform and times two fixed calibration
kernels before and after the pairs (:func:`calibrate`), so that files made
in different sessions can be put on one scale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'801-810' or '801,805,809' (ranges and lists may be mixed)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict | None:
    """One bench/run.py invocation; its last output line as a dict, or
    None when it exits with an error (its standard error goes to ours)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                         text=True)
    if out.returncode:
        print(f"{checkout}: {' '.join(cmd[1:])} exited {out.returncode}\n"
              f"{out.stderr}", file=sys.stderr, flush=True)
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def calibrate(repeats: int = 5) -> dict:
    """Best-of-repeats seconds of two fixed kernels: a dense 600 x 600
    matmul, and the splu of the 7-point Laplacian on a 20^3 grid (8000
    unknowns), the kind of factorisation the Newton steps make."""
    A = np.random.default_rng(0).standard_normal((600, 600))
    L1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(20, 20))
    eye = sp.identity(20)
    lap = (sp.kron(sp.kron(L1, eye), eye) + sp.kron(sp.kron(eye, L1), eye)
           + sp.kron(sp.kron(eye, eye), L1)).tocsc()

    def best(kernel):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return round(min(times), 5)
    return {"matmul_600_s": best(lambda: A @ A),
            "splu_laplace3d_20_s": best(lambda: spla.splu(lap))}


def tree_state(checkout: Path) -> dict:
    """The commit checked out (``git rev-parse HEAD``) and whether the
    work tree has uncommitted changes, each None outside a git work
    tree."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout,
                             capture_output=True, text=True)
        return None if out.returncode else out.stdout.strip()
    status = git("status", "--porcelain")
    return {"head": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def line_count(checkout: Path, pattern: str) -> int:
    """Lines of the files of a checkout that match a glob pattern."""
    return sum(len(p.read_text().splitlines()) for p in checkout.glob(pattern))


def summarise(metric: dict, better: str, bound: float) -> dict:
    """Medians, parent IQR and change wins of one metric's paired runs, the
    no-regression reading against the metric's relative bound, and the
    claim reading.

    within_bound: the change's median is no worse than the parent's by
    more than the bound.  resolved: the parent's IQR over its median is
    within the bound, or every change run beats every parent run; a
    metric whose runs spread wider than its bound cannot show that it did
    not get worse.  gain_shown: the change wins at least nine tenths of
    the pairs, ties counting for neither side, and its median is better
    than the parent's by more than the parent's IQR.
    """
    p, c = metric["parent_runs"], metric["change_runs"]
    pm, cm = statistics.median(p), statistics.median(c)
    # the metrics signed so that lower is better
    sign = 1 if better == "lower" else -1
    sp, sc = [sign * x for x in p], [sign * x for x in c]
    wins = sum(ci < pi for pi, ci in zip(sp, sc))
    iqr = float(np.percentile(p, 75) - np.percentile(p, 25))
    return {"parent_median": round(pm, 4), "change_median": round(cm, 4),
            "relative_change": round((cm - pm) / pm, 4), "change_wins": wins,
            "parent_iqr": round(iqr, 4), "bound": bound,
            "within_bound": bool(sign * (cm - pm) <= bound * abs(pm)),
            "resolved": bool(iqr <= bound * abs(pm) or max(sc) < min(sp)),
            "gain_shown": bool(wins >= 0.9 * len(p) and sign * (pm - cm) > iqr),
            "parent_runs": p, "change_runs": c}


def measure(checkouts: dict, workload: str, seeds: list[int], seconds: float,
            spec: dict) -> dict:
    metrics = {m["name"]: {"parent_runs": [], "change_runs": []}
               for m in spec["end_to_end"]}
    first, correct, failed = {}, True, dict.fromkeys(SIDES, 0)
    crashed = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first[str(seed)] = order[0]
        recs = {side: run(checkouts[side], workload, seed, seconds, trace=0)
                for side in order}
        for side, rec in recs.items():
            if rec is None:
                # a crashed run counts as a failed one; its pair is dropped
                crashed[side].append(seed)
                failed[side] += 1
                continue
            correct &= bool(rec["correct"])
            failed[side] += rec["failed"]
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{n}={rec['metrics'][n]['value']:.4g}" for n in metrics),
                file=sys.stderr, flush=True)
        if None in recs.values():
            continue
        for side, rec in recs.items():
            for name, runs in metrics.items():
                value = rec["metrics"][name]["value"]
                runs[f"{side}_runs"].append(round(value, 4))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    traced = {}
    for side in SIDES:
        rec = run(checkouts[side], workload, 1, seconds, trace=1)
        traced[side] = rec and {n: round(v["value"], 4)
                                for n, v in rec["metrics"].items()}
    return {"seeds": seeds, "first": first, "all_correct": correct,
            "failed": failed, "crashed": crashed,
            "metrics": {n: summarise(m, *rules[n])
                        for n, m in metrics.items() if m["parent_runs"]},
            "traced_seed1": traced}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--tag", required=True)
    p.add_argument("--claim", default="")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, default=Path("."))
    args = p.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    path = args.out / f"BENCH_{args.tag}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    machine = record.get("machine")
    record.update({
        "tag": args.tag,
        "claim": args.claim or record.get("claim", ""),
        "machine": {
            "platform": (f"{os.cpu_count()}-CPU {platform.system()} "
                         f"{platform.machine()}, Python "
                         f"{platform.python_version()}, numpy {np.__version__}, "
                         f"scipy {scipy.__version__}"),
            # calibration of each invocation, before and after its pairs
            "calibration": (machine.get("calibration", [])
                            if isinstance(machine, dict) else []),
        },
        "command": ("python3 bench/run.py --workload <w> --seed <n> "
                    f"--seconds {args.seconds:g} --trace <t>"),
        "trees": {side: tree_state(c) for side, c in checkouts.items()},
        # tests_lines shows code moved into tests/ rather than deleted
        "src_lines": {side: line_count(c, "src/ddrns/*.py")
                      for side, c in checkouts.items()},
        "tests_lines": {side: line_count(c, "tests/*.py")
                        for side, c in checkouts.items()},
    })
    calibration = {"workloads": args.workload, "before": calibrate()}
    record["machine"]["calibration"].append(calibration)
    workloads = record.setdefault("workloads", {})
    for workload in args.workload:
        workloads[workload] = measure(checkouts, workload, args.seeds,
                                      args.seconds, spec)
        path.write_text(json.dumps(record, indent=1) + "\n")
    calibration["after"] = calibrate()
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
