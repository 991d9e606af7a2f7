"""Benchmark of llp_lab's oracle sweeps, noisy-parity recovery and learner trials.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload consistency-sweep --seed 1 --seconds 15 --trace 0

Each workload runs in its own fresh, single-threaded interpreter with a
fixed environment (see `worker_env`).  With --trace 0 the last line of
standard output is the result with the end-to-end metrics; the line before
it holds the raw (unadjusted) figures.  With --trace 1 the result holds the
per-layer metrics of a separate traced run.  Results and traces are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("consistency-sweep", "noisy-parity", "trials-learners")

SETUP_PROBES = 2  # extra fresh interpreters that only time set-up
IMPORT_PROBES = 3
BUDGET_S = 170.0  # every process this run starts ends within this


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    """The environment of every workload process.

    Python and library settings from outside are dropped, so they cannot
    change the work: no LLP_LAB_THREADS pool, a fixed hash seed, the
    checkout's src first on the path, one BLAS thread.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "LLP_LAB")) and not k.endswith("_NUM_THREADS")
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    def __init__(self) -> None:
        self.deadline = time.monotonic() + BUDGET_S
        self.env = worker_env()

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            # run() kills the child on timeout and waits for it to end
            return subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker took longer than {BUDGET_S:.0f} s in all") from exc

    def worker(self, *args: str) -> dict:
        proc = self._run([sys.executable, str(HERE / "worker.py"), *args])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def import_times(self) -> tuple[float, float]:
        """Adjusted ms of `import llp_lab`, and the scipy part of it, in fresh interpreters."""
        code = (
            "import sys, statistics; import llp_lab; sys.path.insert(0, sys.argv[1]); import speed; "
            "print(statistics.median(speed.time_slice() for _ in range(9)))"
        )
        total, scipy = [], []
        for _ in range(IMPORT_PROBES):
            proc = self._run([sys.executable, "-X", "importtime", "-c", code, str(HERE)])
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise BenchError("import probe failed")
            factor = speed.scale(float(proc.stdout.split()[-1]))
            llp_us, scipy_us = parse_importtime(proc.stderr)
            total.append(llp_us / 1000 * factor)
            scipy.append(scipy_us / 1000 * factor)
        return statistics.median(total), statistics.median(scipy)


def parse_importtime(text: str) -> tuple[int, int]:
    """Cumulative microseconds of llp_lab, and of scipy's outermost imports."""
    llp_us = 0
    scipy: list[tuple[int, int]] = []  # (indent, cumulative)
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if name == "llp_lab":
            llp_us = cumulative
        elif name == "scipy" or name.startswith("scipy."):
            scipy.append((indent, cumulative))
    if scipy:
        top = min(i for i, _ in scipy)
        return llp_us, sum(c for i, c in scipy if i == top)
    return llp_us, 0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [runner.worker(*common, "--setup-only")["setup"] for _ in range(SETUP_PROBES)]
    main = runner.worker(*common, "--seconds", str(args.seconds))
    setups.append(main["setup"])
    metrics = {
        "ops_per_s": metric(main["ops_per_s"], "1/s"),
        "op_p50_ms": metric(main["op_p50_ms"], "ms"),
        "op_p90_ms": metric(main["op_p90_ms"], "ms"),
        "setup_s": metric(statistics.median(s["adj_s"] for s in setups), "s"),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
    }
    raw = {
        "raw": {
            "ops_per_s": main["raw_ops_per_s"],
            "op_p50_ms": main["raw_op_p50_ms"],
            "op_p90_ms": main["raw_op_p90_ms"],
            "setup_s": statistics.median(s["raw_s"] for s in setups),
        },
        "reference_ms": main["ref_median_ms"],
        "passes": main["passes"],
        "pass_size": main["pass_size"],
        "errors": main["errors"],
    }
    return main, {"metrics": metrics, "detail": raw}


def traced(runner: Runner, args) -> tuple[dict, dict]:
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    main = runner.worker(
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1", "--trace-out", str(trace_file),
    )
    metrics = {name: metric(value, unit) for name, (value, unit) in main["layers"].items()}
    llp_ms, scipy_ms = runner.import_times()
    metrics["import.llp_lab_ms"] = metric(llp_ms, "ms")
    metrics["import.scipy_ms"] = metric(scipy_ms, "ms")
    metrics["traced.ops_per_s"] = metric(main["ops_per_s"], "1/s")
    return main, {"metrics": metrics, "detail": {"trace_file": str(trace_file.relative_to(ROOT))}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "llp_lab" / "__init__.py").is_file():
        print(f"no llp_lab package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so no set-up pays for compiling the sources
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)

    runner = Runner()
    try:
        main_run, parts = (traced if args.trace else end_to_end)(runner, args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = main_run["problems"]
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": parts["metrics"],
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, **parts["detail"]}, indent=2) + "\n")
    print(json.dumps(parts["detail"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
