"""One workload in one fresh interpreter: set up, measure, check, report.

Started by run.py with a fixed environment; prints one JSON object as its
last line of standard output.  Set-up (import, input generation and one
warm-up operation) is timed first, then whole passes run until the next
pass would end past --seconds.  A reference slice runs before every
operation; see speed.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="time set-up and stop")
    ap.add_argument("--toy", action="store_true", help="tiny inputs, one pass (tests)")
    ap.add_argument("--trace-out", help="file for the traced run's spans")
    return ap.parse_args(argv)


def set_up(args):
    """Import, build inputs, run one warm-up operation; returns the timing too."""
    before = [speed.time_slice() for _ in range(8)]
    start = time.perf_counter()
    llp_lab = importlib.import_module("llp_lab")
    workloads = importlib.import_module("workloads")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, toy=args.toy)
    wl.op(wl.warmup_slot)
    raw = time.perf_counter() - start
    after = [speed.time_slice() for _ in range(8)]
    ref = statistics.median(before[1:] + after)  # the very first slice runs cold
    source = Path(llp_lab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"llp_lab imported from {source}, not from {ROOT / 'src'}")
    timing = {"raw_s": raw, "adj_s": raw * speed.scale(ref), "ref_s": ref}
    return wl, tracer, timing


def measure(wl, tracer, seconds: float, once: bool) -> dict:
    raw: list[float] = []
    refs: list[float] = []
    failed = 0
    errors: dict[str, int] = {}
    passes = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for slot in range(wl.pass_size):
            refs.append(speed.time_slice())
            if tracer:
                tracer.begin_op(len(raw))
            t0 = time.perf_counter()
            try:
                result = wl.op(slot)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                raw.append(time.perf_counter() - t0)
                kind = type(exc).__name__
                if kind not in errors:
                    traceback.print_exc(file=sys.stderr)
                errors[kind] = errors.get(kind, 0) + 1
                failed += 1
                continue
            raw.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            if wl.check(slot, result):
                failed += 1
                errors["bad output"] = errors.get("bad output", 0) + 1
        passes += 1
        now = time.perf_counter()
        if once or (now - started) + (now - pass_start) > seconds:
            break
    refs.append(speed.time_slice())
    adj = speed.adjust_ops(raw, refs)
    return {"raw": raw, "adj": adj, "refs": refs, "failed": failed, "errors": errors, "passes": passes}


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, weight i being the Beta(p(n+1),
    (1-p)(n+1)) mass of [(i-1)/n, i/n].  Operation costs spread over three
    decades leave gaps between neighbouring latencies, where the plain
    sample quantile jumps from one operation to the next; this estimate
    moves smoothly.  The Beta masses come from Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    steps = max(8, 8000 // n // 2 * 2)  # even, per interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / n / steps
        inner = sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append((density(lo) + inner + density(lo + 1 / n)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in ms."""
    return harrell_davis(times, 0.5) * 1000, harrell_davis(times, 0.9) * 1000


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, tracer, setup = set_up(args)
    out: dict = {"workload": args.workload, "seed": args.seed, "setup": setup}
    if not args.setup_only:
        if tracer:
            tracer.reset()
        run = measure(wl, tracer, args.seconds, args.toy)
        n = len(run["raw"])
        done = n - run["failed"]
        p50, p90 = percentiles_ms(run["adj"])
        p50_raw, p90_raw = percentiles_ms(run["raw"])
        out.update(
            attempted=n,
            failed=run["failed"],
            errors=run["errors"],
            problems=wl.verdict(),
            passes=run["passes"],
            pass_size=wl.pass_size,
            ops_per_s=done / sum(run["adj"]),
            op_p50_ms=p50,
            op_p90_ms=p90,
            raw_ops_per_s=done / sum(run["raw"]),
            raw_op_p50_ms=p50_raw,
            raw_op_p90_ms=p90_raw,
            ref_median_ms=statistics.median(run["refs"]) * 1000,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            factor = speed.scale(statistics.median(run["refs"]))
            out["layers"] = tracer.layer_metrics(n, factor)
            if args.trace_out:
                tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
