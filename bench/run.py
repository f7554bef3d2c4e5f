"""finnet benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a finnet checkout; finnet is imported from ./src.
Workloads (see bench/workloads.py): census, dynamics, intervene.

The benchmark is closed-loop and single-process per measurement: it starts
SETUP_RUNS fresh worker processes that only set up (for setup_s), then one
fresh worker that sets up, runs passes of the workload's fixed task list
for --seconds, and checks every output. BLAS is pinned to one thread in
every worker, so the figures measure finnet rather than the scheduler.

With --trace 0 the last stdout line carries the end-to-end metrics:
wall_s (time to run the task list once: the sum of each task's median
time across passes), task_p50_ms and
task_p95_ms (over every task run), ok_frac (tasks that ran and passed
their checks, over tasks attempted), setup_s (median over the set-up
runs) and peak_rss_mb (ru_maxrss of the measuring worker, read before
any checker code loads). Times are in seconds at a fixed reference
machine speed (bench/speed.py); the raw seconds are in the detail line.
With --trace 1 the last line carries the per-layer metrics of
bench/tracing.py, whose times are raw. The line before the last holds
sample counts, raw times, failures, known-failure probes and the input
properties of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 4
TIME_LIMIT_S = 170.0
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def task_list_time(res: dict) -> float:
    """Sum over the task list of each task's median time across passes.

    A pass's total picks up every burst of machine noise during it; taking
    each task's median first drops a burst that hit one pass only.
    """
    k = res["tasks_per_pass"]
    runs = res["task_s"]
    return sum(statistics.median(runs[i::k]) for i in range(k))


def end_to_end(res: dict, setups: list[float]) -> dict:
    lat_ms = [1e3 * s for s in res["task_s"]]
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {
        "wall_s": _metric(task_list_time(res), "s"),
        "task_p50_ms": _metric(q[49], "ms"),
        "task_p95_ms": _metric(q[94], "ms"),
        "ok_frac": _metric((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="finnet benchmark")
    parser.add_argument("--workload", required=True, choices=("census", "dynamics", "intervene"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finnet" / "__init__.py").is_file():
        print(f"error: no finnet sources under {ROOT / 'src'}; run from a finnet checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_runs = [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(BENCH / ".work", ignore_errors=True)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]

    if args.trace:
        metrics = {name: _metric(value, unit) for name, (value, unit) in res["layers"].items()}
    else:
        metrics = end_to_end(res, setups)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": {"wall_s": len(res["pass_wall_s"]), "task_ms": len(res["task_s"]),
                    "setup_s": len(setups)},
        "pass_wall_s": res["pass_wall_s"],
        "raw_pass_wall_s": res["raw_pass_wall_s"],
        "raw_setup_s": [r["raw_setup_s"] for r in setup_runs],
        "failures": res["failures"],
        "known_failure_probes": res["probes"],
        "distinct_outputs_checked": res["distinct_outputs_checked"],
        "properties": res["properties"],
    }
    if args.trace:
        detail["functions"] = res["functions"]
    print(json.dumps(detail))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
