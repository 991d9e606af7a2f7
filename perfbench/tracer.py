"""Per-layer tracing from outside the library.

`Tracer.install` replaces, in each `llp_lab` module, the names that module
calls in another layer (and a few of its own entry points) with timing
wrappers.  Each wrapper opens a span (name, start, end, parent) on a stack,
so a layer's self time is its span minus the spans of the calls it made.
Spans live in memory and are written out when the run ends.  Calls made
hundreds of thousands of times per pass (point evaluation, oracle calls,
witness checks, true proportions, and each step of an iteration) are only
summed, not stored one by one, to keep memory flat.

Nothing is patched unless a traced run asks for it, so the end-to-end
figures always come from untraced code.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

PLAIN, HOT, ITER = "plain", "hot", "iter"

# (module, attribute, span name, kind): the boundaries the tracer wraps.
# Missing attributes are skipped, so a later refactor degrades a metric to
# 0 instead of breaking the run.
BOUNDARIES = (
    ("llp_lab.hypotheses", "evaluate", "hypotheses.evaluate", HOT),
    ("llp_lab.hypotheses", "enumerate_class", "hypotheses.enumerate_class", ITER),
    ("llp_lab.core", "draw_counts", "core.draw_counts", PLAIN),
    ("llp_lab.core", "draw_points", "core.draw_points", PLAIN),
    ("llp_lab.sampling", "evaluate", "hypotheses.evaluate", HOT),
    ("llp_lab.sampling", "enumerate_class", "hypotheses.enumerate_class", ITER),
    ("llp_lab.sampling", "draw_counts", "core.draw_counts", PLAIN),
    ("llp_lab.sampling", "true_proportion", "sampling.true_proportion", HOT),
    ("llp_lab.sampling", "achievable_proportions", "sampling.achievable_proportions", PLAIN),
    ("llp_lab.learners", "distinct_labelings", "hypotheses.distinct_labelings", ITER),
    ("llp_lab.learners", "achievable_proportions", "sampling.achievable_proportions", PLAIN),
    ("llp_lab.reductions", "evaluate", "hypotheses.evaluate", HOT),
    ("llp_lab.reductions", "hits_exactly", "reductions.hits_exactly", HOT),
    ("llp_lab.reductions", "draw_counts", "core.draw_counts", PLAIN),
    ("llp_lab.reductions", "make_distribution", "core.make_distribution", PLAIN),
    ("llp_lab.reductions", "draw_labeled_points", "sampling.draw", PLAIN),
    ("llp_lab.oracles", "evaluate", "hypotheses.evaluate", HOT),
    ("llp_lab.oracles", "enumerate_class", "hypotheses.enumerate_class", ITER),
    ("llp_lab.oracles", "_count_table", "oracles.table_build", PLAIN),
    ("llp_lab.trials", "resolve_m", "trials.resolve_m", PLAIN),
    ("llp_lab.trials", "clopper_pearson", "trials.clopper_pearson", PLAIN),
    ("llp_lab.trials", "draw_sample", "sampling.draw", PLAIN),
    ("llp_lab.trials", "draw_labeled_points", "sampling.draw", PLAIN),
    ("llp_lab.trials", "true_proportion", "sampling.true_proportion", HOT),
    ("llp_lab.trials", "random_hypothesis", "hypotheses.random_hypothesis", PLAIN),
    ("llp_lab.trials", "improper_learner", "learners.improper", PLAIN),
    ("llp_lab.trials", "erm_proportion_matcher", "learners.erm", PLAIN),
    ("llp_lab.trials", "gap_learner", "learners.gap", PLAIN),
    ("llp_lab.trials", "subset_sum_learner", "learners.subset_sum", PLAIN),
    ("llp_lab.trials", "window_learner", "learners.window", PLAIN),
    ("llp_lab.trials", "halfspace_sweep_learner", "learners.halfspace_sweep", PLAIN),
    # entry points the benchmark itself calls
    ("llp_lab", "consistency_via_llp", "reductions.consistency_via_llp", PLAIN),
    ("llp_lab", "noisy_parity_via_llp", "reductions.noisy_parity_via_llp", PLAIN),
    ("llp_lab", "run_trials", "trials.run_trials", PLAIN),
    ("llp_lab", "report_to_json", "trials.report_to_json", PLAIN),
    ("llp_lab", "report_to_csv", "trials.report_to_csv", PLAIN),
)

LEARNERS = ("improper", "erm", "gap", "subset_sum", "window")
WORK_KEYS = ("labelings", "dp_cells", "candidates")


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up calls)."""
        self.stack: list[list] = []  # [start, child seconds, span id]
        self.depth: dict[str, int] = defaultdict(int)
        # name -> [calls, inclusive seconds of outermost spans, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.checked: set = set()
        self.next_id = 0
        self.op = -1

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self.next_id += 1
        frame = [0.0, 0.0, self.next_id]
        self.stack.append(frame)
        self.depth[name] += 1
        frame[0] = self.clock()
        return frame

    def _leave(self, frame: list, name: str, store: bool, count: bool) -> None:
        end = self.clock()
        self.stack.pop()
        dur = end - frame[0]
        st = self.stats[name]
        st[0] += count
        self.depth[name] -= 1
        if not self.depth[name]:
            st[1] += dur
        st[2] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if store:
            parent = self.stack[-1][2] if self.stack else 0
            self.spans.append((self.op, frame[2], parent, name, frame[0], end))

    def wrap(self, name: str, fn, kind: str = PLAIN, after=None):
        store = kind != HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, name, store, True)
            if after is not None:
                after(args, result)
            if kind == ITER:
                return self._iterate(name, result)
            return result

        return traced

    def _iterate(self, name: str, iterable):
        it = iter(iterable)
        while True:
            frame = self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._leave(frame, name, False, False)
            yield item

    # -- operations ----------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self.checked.clear()

    def end_op(self) -> None:
        self.counters["distinct_checks"] += len(self.checked)

    def _note_check(self, args, result) -> None:
        inst, h = args[0], args[1]
        self.checked.add((id(inst), h))

    def _note_work(self, args, outcome) -> None:
        for key, value in getattr(outcome, "work", {}).items():
            self.counters[key] += value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, name, kind in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            after = None
            if name == "reductions.hits_exactly":
                after = self._note_check
            elif name.startswith("learners."):
                after = self._note_work
            setattr(module, attr, self.wrap(name, fn, kind, after))

        package = importlib.import_module("llp_lab")
        make = package.make_brute_oracle

        @functools.wraps(make)
        def make_traced(*args, **kwargs):
            oracle = make(*args, **kwargs)
            return dataclasses.replace(oracle, solve=self.wrap("oracles.solve", oracle.solve, HOT))

        package.make_brute_oracle = make_traced

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops: int, factor: float) -> dict[str, tuple[float, str]]:
        """Per-operation figures; times are scaled by `factor` (speed adjustment)."""
        st = self.stats

        def calls(name):
            return st[name][0] / ops

        def ms(seconds):
            return seconds * 1000 * factor / ops

        def incl(name):
            return ms(st[name][1])

        def own(*names):
            return ms(sum(st[n][2] for n in names))

        solves = st["oracles.solve"][0]
        checks = st["reductions.hits_exactly"][0]
        out = {
            "oracles.solve_calls": (calls("oracles.solve"), "count/op"),
            "oracles.solve_us": (
                st["oracles.solve"][2] * 1e6 * factor / solves if solves else 0.0, "us"
            ),
            "oracles.table_builds": (calls("oracles.table_build"), "count/op"),
            "oracles.table_build_ms": (incl("oracles.table_build"), "ms/op"),
            "reductions.hits_exactly_calls": (calls("reductions.hits_exactly"), "count/op"),
            "reductions.hits_exactly_ms": (incl("reductions.hits_exactly"), "ms/op"),
            "reductions.verify_useful_ratio": (
                self.counters["distinct_checks"] / checks if checks else 1.0, "ratio"
            ),
            "reductions.self_ms": (
                own("reductions.consistency_via_llp", "reductions.noisy_parity_via_llp"), "ms/op"
            ),
            "hypotheses.evaluate_calls": (calls("hypotheses.evaluate"), "count/op"),
            "hypotheses.evaluate_ms": (incl("hypotheses.evaluate"), "ms/op"),
            "hypotheses.enumerate_class_calls": (calls("hypotheses.enumerate_class"), "count/op"),
            "hypotheses.distinct_labelings_ms": (incl("hypotheses.distinct_labelings"), "ms/op"),
            "sampling.achievable_proportions_calls": (
                calls("sampling.achievable_proportions"), "count/op"
            ),
            "sampling.achievable_proportions_ms": (incl("sampling.achievable_proportions"), "ms/op"),
            "sampling.true_proportion_calls": (calls("sampling.true_proportion"), "count/op"),
            "sampling.true_proportion_ms": (incl("sampling.true_proportion"), "ms/op"),
            "sampling.draw_ms": (incl("sampling.draw"), "ms/op"),
            "core.draw_counts_ms": (incl("core.draw_counts"), "ms/op"),
        }
        for learner in LEARNERS:
            out[f"learners.{learner}_ms"] = (incl(f"learners.{learner}"), "ms/op")
        for key in WORK_KEYS:
            out[f"learners.{key}"] = (self.counters[key] / ops, "count/op")
        out.update(
            {
                "trials.self_ms": (own("trials.run_trials"), "ms/op"),
                "trials.resolve_m_ms": (incl("trials.resolve_m"), "ms/op"),
                "trials.clopper_pearson_ms": (incl("trials.clopper_pearson"), "ms/op"),
                "trials.report_json_ms": (own("trials.report_to_json"), "ms/op"),
                "trials.report_csv_ms": (own("trials.report_to_csv"), "ms/op"),
            }
        )
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"totals": {n: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                                            for n, s in sorted(self.stats.items())},
                                 "counters": dict(self.counters)}) + "\n")
