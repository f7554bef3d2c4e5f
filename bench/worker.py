"""One workload in one fresh process: set-up, timed passes, checks.

    python3 bench/worker.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/worker.py --workload census --seed 1 --setup-only

Prints one JSON object on its last stdout line; bench/run.py turns it into
the benchmark result. Passes of the workload's fixed task list repeat until
--seconds have been spent (and at least MIN_TASKS tasks ran). Each task is
timed alone; its output is digested outside the timed region and every
distinct output is checked once, after the last pass, so the checkers'
imports and oracles stay out of the timed passes and the peak RSS.
"""

import time

_T0 = time.perf_counter()   # set-up starts before numpy and finnet are imported

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_TASKS = 200             # so at least 10 task latencies lie beyond p95
MIN_TRACE_PASSES = 2
SETUP_REFERENCE_RUNS = 15


@dataclass
class Pass:
    """Task latencies of one pass: raw seconds and reference seconds."""

    raw: list[float]
    norm: list[float]


class Runner:
    """Runs passes of a workload and keeps one copy of each distinct output."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.outputs: dict[tuple[str, str], object] = {}
        self.instances: list[tuple[str, str | None, str | None]] = []   # (task, digest, error)

    def run_pass(self, tracer=None) -> Pass:
        latencies, refs = [], []
        for task in self.wl.tasks:
            refs.append(speed.reference_time())
            if tracer is not None:
                tracer.task = task.name
            digest, output, error = run_task(task, latencies)
            if tracer is not None:
                tracer.task = None
            if error is None:
                self.outputs.setdefault((task.name, digest), output)
            self.instances.append((task.name, digest, error))
        refs.append(speed.reference_time())
        return Pass(raw=latencies, norm=speed.normalise(latencies, refs))

    def run_passes(self, seconds: float, min_passes: int, tracer=None) -> list[Pass]:
        passes = []
        end = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < end:
            passes.append(self.run_pass(tracer))
        return passes

    def check(self) -> tuple[dict, dict]:
        """Check every distinct output; returns (problems per output, facts per task)."""
        by_name = {t.name: t for t in self.wl.tasks}
        verdicts, facts = {}, {}
        for (name, digest), output in self.outputs.items():
            verdicts[(name, digest)] = check_output(by_name[name], output, facts.setdefault(name, {}))
        return verdicts, facts


def run_task(task, latencies: list | None = None):
    """Time one task; returns (digest, output, error). error is 'Type: message'."""
    t0 = time.perf_counter()
    try:
        raw = task.run()
    except (Exception, SystemExit) as e:
        if latencies is not None:
            latencies.append(time.perf_counter() - t0)
        return None, None, f"{type(e).__name__}: {e}"
    if latencies is not None:
        latencies.append(time.perf_counter() - t0)
    try:
        digest, output = task.collect(raw)
    except Exception as e:
        return None, None, f"{type(e).__name__}: {e}"
    return digest, output, None


def check_output(task, output, facts) -> list[str]:
    try:
        return task.check(output, facts)
    except Exception as e:      # a checker crash is a failed check, never a pass
        return [f"check raised {type(e).__name__}: {e}"]


def outcome(runner: Runner, verdicts: dict) -> dict:
    failures: dict[str, int] = {}
    for name, digest, error in runner.instances:
        problems = [error] if error else verdicts[(name, digest)]
        for p in problems[:1]:
            key = f"{name}: {p}"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(1 for name, digest, error in runner.instances
                 if error or verdicts[(name, digest)])
    return {"attempted": len(runner.instances), "failed": failed,
            "failures": [{"task": k, "count": v} for k, v in failures.items()],
            "distinct_outputs_checked": len(verdicts)}


def run_probes(wl: workloads.Workload) -> tuple[list[dict], bool]:
    """Known failures: run once, outside timing, and record what happens."""
    records, correct = [], True
    for probe in wl.probes:
        digest, output, error = run_task(probe)
        if error is not None:
            kind, _, message = error.partition(": ")
            records.append({"task": probe.name, "outcome": "failed",
                            "error_type": kind, "message": message[:300]})
            continue
        problems = check_output(probe, output, {})
        correct &= not problems
        records.append({"task": probe.name, "outcome": "failed check" if problems else "passed",
                        "problems": problems[:3]})
    return records, correct


def median_latency_by_task(runner: Runner, passes: list[Pass]) -> dict[str, float]:
    names = [t.name for t in runner.wl.tasks]
    return {name: statistics.median(p.norm[i] for p in passes) for i, name in enumerate(names)}


def measure(wl: workloads.Workload, seconds: float, trace: bool) -> dict:
    runner = Runner(wl)
    result: dict = {}
    if not trace:
        passes = runner.run_passes(seconds, math.ceil(MIN_TASKS / len(wl.tasks)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        passes = runner.run_passes(seconds / 2, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced = runner.run_passes(seconds / 2, MIN_TRACE_PASSES, tracer)
        traced_wall = sum(sum(p.raw) for p in traced)
        stats, root = tracer.summary()
        unwrapped = traced_wall - root
        self_total = sum(s[2] for s in stats.values())
        if unwrapped < -1e-6 or abs(self_total + unwrapped - traced_wall) > 1e-6 * traced_wall:
            raise RuntimeError("span self times plus the unwrapped remainder do not add up "
                               "to the traced wall time")
        result["traced_pass_wall_s"] = [sum(p.norm) for p in traced]
        result["trace_stats"] = (stats, tracer.counts, len(traced), unwrapped)
    result["pass_wall_s"] = [sum(p.norm) for p in passes]
    result["raw_pass_wall_s"] = [sum(p.raw) for p in passes]
    result["task_s"] = [x for p in passes for x in p.norm]
    result["tasks_per_pass"] = len(wl.tasks)

    verdicts, facts = runner.check()
    result.update(outcome(runner, verdicts))
    probes, probes_ok = run_probes(wl)
    result["probes"] = probes
    result["correct"] = result["failed"] == 0 and probes_ok
    result["properties"] = wl.properties(facts, median_latency_by_task(runner, passes))
    if trace:
        stats, counts, n_traced, unwrapped = result.pop("trace_stats")
        report_bytes = sum(f.get("report_bytes", 0) for f in facts.values())
        extra = {
            "cli.report_bytes": report_bytes,
            "trace.overhead_frac": statistics.median(result["traced_pass_wall_s"])
            / statistics.median(result["pass_wall_s"]) - 1.0,
            "trace.unwrapped_ms": 1e3 * unwrapped / n_traced,
        }
        result["layers"] = tracing.layer_metrics(stats, counts, n_traced, extra)
        result["functions"] = tracing.function_table(stats, n_traced)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        raw_setup_s = time.perf_counter() - _T0
        setup_s = raw_setup_s * speed.factor([speed.reference_time() for _ in range(SETUP_REFERENCE_RUNS)])
        result = {} if args.setup_only else measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"], result["raw_setup_s"] = setup_s, raw_setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
