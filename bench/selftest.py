"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, for every workload, that the same seed gives an identical task
list, identical outputs (CLI reports compared without wall_time_s) and
identical check outcomes; that a second seed runs cleanly; that run.py
prints every metric BENCHMARK.json names, with its unit, in both modes;
and that run.py fails without a result where no finnet sources exist.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

SEED, OTHER_SEED = 5, 6


def one_pass(name: str, seed: int, scratch: Path):
    """Build the workload in a fresh directory, run one pass, check it."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        wl = workloads.build(name, seed, workdir)
        runner = worker.Runner(wl)
        runner.run_pass()
        verdicts, _ = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests = [(task, digest, error) for task, digest, error in runner.instances]
    outcomes = {task: verdicts.get((task, digest), [error]) for task, digest, error in runner.instances}
    return [t.name for t in wl.tasks], digests, outcomes


def run_bench(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            names_a, digests_a, outcomes_a = one_pass(name, SEED, scratch)
            names_b, digests_b, outcomes_b = one_pass(name, SEED, scratch)
            if names_a != names_b:
                errors.append(f"{name}: task list differs between two builds of seed {SEED}")
            if digests_a != digests_b:
                diff = [a[0] for a, b in zip(digests_a, digests_b) if a != b]
                errors.append(f"{name}: outputs differ on the same seed: {diff[:5]}")
            if outcomes_a != outcomes_b:
                errors.append(f"{name}: check outcomes differ on the same seed")
            _, _, outcomes_c = one_pass(name, OTHER_SEED, scratch)
            bad = {t: p for t, p in {**outcomes_a, **outcomes_c}.items() if p}
            if bad:
                errors.append(f"{name}: failed checks: {dict(list(bad.items())[:5])}")
            print(f"{name}: {len(names_a)} tasks, deterministic and clean", flush=True)

        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_bench(["--workload", "dynamics", "--seed", str(SEED),
                                     "--seconds", "1", "--trace", trace], ROOT)
            if code != 0:
                errors.append(f"run.py --trace {trace} exited {code}")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                errors.append(f"--trace {trace}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            print(f"run.py --trace {trace}: {len(got)} metrics", flush=True)

        scratch.mkdir(exist_ok=True)        # run.py clears it when it ends
        bare = Path(tempfile.mkdtemp(dir=scratch))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, lines = run_bench(["--workload", "census", "--seed", str(SEED),
                                 "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or any(line.startswith('{"correct"') for line in lines):
            errors.append("run.py did not fail in a directory without finnet sources")
        print(f"run.py without sources: exit {code}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
