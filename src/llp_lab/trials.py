"""Seeded Monte Carlo runs estimating a learner's proportion-guarantee rate.

A trial draws a sample for a (possibly per-trial random) target, runs the
configured learner, and scores success exactly: |p_h - p_c| <= epsilon with
both proportions computed as Fractions.  Each trial derives its own RNG seed
from the master seed and trial index, so serial and pooled execution produce
identical reports, byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from scipy.stats import beta as _beta_dist

from .core import (
    FiniteDistribution,
    _random_cut,
    derive_seed,
    distribution_from_json,
    distribution_to_json,
    parse_rational,
    rational_to_json,
)
from .bounds import (
    gap_sample_size,
    hoeffding_sample_size,
    uniform_convergence_sample_size,
)
from .errors import InvalidParams, LlpError
from .hypotheses import (
    ClassDescriptor,
    Hypothesis,
    class_descriptor_from_json,
    class_descriptor_to_json,
    hypothesis_from_json,
    hypothesis_to_json,
    random_hypothesis,
    vc_dimension,
)
from .learners import (
    LearnerOutcome,
    erm_proportion_matcher,
    gap_learner,
    gap_values,
    halfspace_sweep_learner,
    improper_learner,
    noisy_parity_uniform_learner,
    subset_sum_learner,
    window_learner,
)
from .sampling import (
    draw_labeled_points,
    draw_sample,
    llp_success,
    proportion_gap,
    smallest_gap,
    true_proportion,
)

__all__ = [
    "LEARNER_IDS",
    "M_MODES",
    "TrialConfig",
    "TrialRow",
    "TrialReport",
    "resolve_m",
    "run_trials",
    "run_single_trial",
    "clopper_pearson",
    "emit_report",
    "report_to_csv",
    "report_to_json",
    "report_from_json",
    "config_to_json",
    "config_from_json",
]

LEARNER_IDS = (
    "improper",
    "erm",
    "gap",
    "subset_sum",
    "window",
    "halfspace_sweep",
    "noisy_distinguisher",
)

M_MODES = ("explicit", "hoeffding", "gap", "uniform-convergence")

# learner ids that need a class descriptor to run
_NEEDS_DESC = ("erm", "gap", "window")


@dataclass(frozen=True)
class TrialConfig:
    """Everything one Monte Carlo estimate depends on, seed included."""

    learner: str
    epsilon: Fraction
    delta: Fraction
    trials: int
    seed: int
    distribution: FiniteDistribution
    desc: ClassDescriptor | None = None
    target: Hypothesis | None = None
    m: int | None = None
    m_mode: str = "explicit"
    eta: Fraction | None = None
    eta_prime: Fraction | None = None
    record_ms: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", parse_rational(self.epsilon))
        object.__setattr__(self, "delta", parse_rational(self.delta))
        if self.eta is not None:
            object.__setattr__(self, "eta", parse_rational(self.eta))
        if self.eta_prime is not None:
            object.__setattr__(self, "eta_prime", parse_rational(self.eta_prime))
        if self.learner not in LEARNER_IDS:
            raise InvalidParams(f"unknown learner {self.learner!r}")
        if self.m_mode not in M_MODES:
            raise InvalidParams(f"unknown m_mode {self.m_mode!r}")
        if self.trials < 1:
            raise InvalidParams(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.epsilon <= 1 or not 0 < self.delta < 1:
            raise InvalidParams(
                f"need 0 <= epsilon <= 1 and 0 < delta < 1, got {self.epsilon}, {self.delta}"
            )
        if self.m_mode == "explicit" and (self.m is None or self.m < 1):
            raise InvalidParams(f"explicit m must be >= 1, got {self.m}")
        if self.learner in _NEEDS_DESC and self.desc is None:
            raise InvalidParams(f"learner {self.learner!r} needs a class descriptor")
        if self.target is None and self.desc is None:
            raise InvalidParams("random targets need a class descriptor to draw from")
        if self.learner == "noisy_distinguisher" and (
            self.eta is None or self.eta_prime is None
        ):
            raise InvalidParams("the noisy distinguisher needs eta and eta_prime")


def resolve_m(config: TrialConfig, values: dict[Fraction, Hypothesis] | None = None) -> int:
    """Sample size per trial, either explicit or computed from a bound.

    "uniform-convergence" substitutes the explicit support size for the VC
    dimension when the class has none (finite subsets), since the bound is
    meaningless at d = infinity but the support caps what the class can do.
    `values`, when given, holds the class's achievable proportions under
    the distribution (`gap_values`), and the "gap" mode reads its gap from
    them instead of enumerating the class again.
    """
    if config.m_mode == "explicit":
        assert config.m is not None
        return config.m
    if config.m_mode == "hoeffding":
        return hoeffding_sample_size(config.epsilon, config.delta)
    if config.m_mode == "gap":
        assert config.desc is not None
        if values is None:
            beta = proportion_gap(config.desc, config.distribution)
        else:
            beta = smallest_gap(values)
        return gap_sample_size(beta, config.delta)
    assert config.desc is not None
    d = vc_dimension(config.desc)
    if d == float("inf"):
        from .core import ExplicitDistribution

        if not isinstance(config.distribution, ExplicitDistribution):
            raise InvalidParams("no finite dimension and no explicit support to fall back on")
        d = len(config.distribution.atoms)
    return uniform_convergence_sample_size(int(d), config.epsilon, config.delta, 0)


@dataclass(frozen=True)
class TrialRow:
    """One trial's exact outcome; error rows mark the failure cause."""

    trial: int
    seed: int
    p_c: Fraction | None
    p_h: Fraction | None
    residual: Fraction | None
    success: bool
    ms: int = 0
    error: str | None = None


@dataclass(frozen=True)
class TrialReport:
    config: TrialConfig
    rows: tuple[TrialRow, ...]

    @property
    def successes(self) -> int:
        return sum(r.success for r in self.rows)

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, len(self.rows))

    @property
    def mean_residual(self) -> Fraction:
        scored = [r.residual for r in self.rows if r.residual is not None]
        if not scored:
            return Fraction(0)
        return sum(scored, Fraction(0)) / len(scored)

    @property
    def ci95(self) -> tuple[float, float]:
        return clopper_pearson(self.successes, len(self.rows))


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval for a success rate."""
    if not 0 <= successes <= trials or trials < 1:
        raise InvalidParams(f"bad counts {successes}/{trials}")
    alpha = 1 - confidence
    lo = 0.0 if successes == 0 else float(_beta_dist.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(_beta_dist.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


def _dispatch(
    config: TrialConfig, sample, trial_seed: int, values: dict[Fraction, Hypothesis] | None
) -> LearnerOutcome:
    if config.learner == "improper":
        return improper_learner(sample)
    if config.learner == "erm":
        return erm_proportion_matcher(config.desc, sample)
    if config.learner == "gap":
        return gap_learner(config.desc, config.distribution, sample.p_hat, values=values)
    if config.learner == "subset_sum":
        return subset_sum_learner(sample)
    if config.learner == "window":
        if config.desc is None or config.desc.k is None:
            raise InvalidParams("the window learner needs a window class with a span bound")
        return window_learner(sample, config.desc.k)
    if config.learner == "halfspace_sweep":
        return halfspace_sweep_learner(sample, derive_seed(trial_seed, "sweep"))
    raise InvalidParams(f"unknown learner {config.learner!r}")


def run_single_trial(
    config: TrialConfig, m: int, index: int, values: dict[Fraction, Hypothesis] | None = None
) -> TrialRow:
    """One seeded trial; an LlpError becomes an error row, not a crash.

    Any other exception is a bug in a learner or below it and propagates.
    `values` is the gap learner's `gap_values` for the config, when the
    run has built them once for all its trials.
    """
    trial_seed = derive_seed(config.seed, "trial", index)
    started = time.perf_counter() if config.record_ms else 0.0
    try:
        target = config.target
        if target is None:
            assert config.desc is not None
            target = random_hypothesis(
                config.desc, random.Random(derive_seed(trial_seed, "target"))
            )
        if config.learner == "noisy_distinguisher":
            points, labels = draw_labeled_points(
                config.distribution, m, derive_seed(trial_seed, "sample"), target
            )
            noise = random.Random(derive_seed(trial_seed, "noise"))
            assert config.eta is not None and config.eta_prime is not None
            flip = _random_cut(config.eta)  # noise.random() < flip exactly when < eta
            noisy_positives = sum(1 - lab if noise.random() < flip else lab for lab in labels)
            n = len(points[0]) if points else 1
            outcome = noisy_parity_uniform_learner(
                Fraction(noisy_positives, m), config.eta_prime, n
            )
        else:
            sample = draw_sample(
                config.distribution, m, derive_seed(trial_seed, "sample"), target
            )
            outcome = _dispatch(config, sample, trial_seed, values)
        p_c = true_proportion(target, config.distribution)
        p_h = true_proportion(outcome.hypothesis, config.distribution)
        success = llp_success(outcome.hypothesis, target, config.distribution, config.epsilon)
        ms = round((time.perf_counter() - started) * 1000) if config.record_ms else 0
        return TrialRow(index, trial_seed, p_c, p_h, abs(p_c - p_h), success, ms)
    except LlpError as exc:
        ms = round((time.perf_counter() - started) * 1000) if config.record_ms else 0
        return TrialRow(
            index, trial_seed, None, None, None, False, ms,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_trials(config: TrialConfig) -> TrialReport:
    """All trials, serial or pooled; the report is identical either way.

    LLP_LAB_THREADS > 1 fans trials out to a process pool; results are
    assembled in trial order and each trial's randomness depends only on
    (master seed, index), so the pool size never shows in the output.  The
    gap learner's achievable proportions depend on the config alone, so
    they are built once here and handed to `resolve_m` and every trial.
    """
    values = _shared_gap_values(config)
    m = resolve_m(config, values)
    resolved = replace(config, m=m, m_mode="explicit")
    trial = partial(run_single_trial, resolved, m, values=values)
    workers = int(os.environ.get("LLP_LAB_THREADS", "1") or "1")
    indices = range(config.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(trial, indices))
    else:
        rows = tuple(map(trial, indices))
    return TrialReport(resolved, rows)


def _shared_gap_values(config: TrialConfig) -> dict[Fraction, Hypothesis] | None:
    if config.learner != "gap":
        return None
    assert config.desc is not None
    # The build is deterministic, so a failure here recurs where it was met
    # before: in resolve_m, or in each trial as that trial's error row.
    try:
        return gap_values(config.desc, config.distribution)
    except LlpError:
        return None


# ---------------------------------------------------------------------------
# serialization


def config_to_json(config: TrialConfig) -> dict:
    out: dict = {
        "learner": config.learner,
        "epsilon": rational_to_json(config.epsilon),
        "delta": rational_to_json(config.delta),
        "trials": config.trials,
        "seed": config.seed,
        "distribution": distribution_to_json(config.distribution),
        "m_mode": config.m_mode,
        "record_ms": config.record_ms,
    }
    if config.desc is not None:
        out["class"] = class_descriptor_to_json(config.desc)
    if config.target is not None:
        out["target"] = hypothesis_to_json(config.target)
    if config.m is not None:
        out["m"] = config.m
    if config.eta is not None:
        out["eta"] = rational_to_json(config.eta)
    if config.eta_prime is not None:
        out["eta_prime"] = rational_to_json(config.eta_prime)
    return out


def config_from_json(obj: dict) -> TrialConfig:
    return TrialConfig(
        learner=obj["learner"],
        epsilon=parse_rational(obj["epsilon"]),
        delta=parse_rational(obj["delta"]),
        trials=obj["trials"],
        seed=obj["seed"],
        distribution=distribution_from_json(obj["distribution"]),
        desc=class_descriptor_from_json(obj["class"]) if "class" in obj else None,
        target=hypothesis_from_json(obj["target"]) if "target" in obj else None,
        m=obj.get("m"),
        m_mode=obj.get("m_mode", "explicit"),
        eta=parse_rational(obj["eta"]) if "eta" in obj else None,
        eta_prime=parse_rational(obj["eta_prime"]) if "eta_prime" in obj else None,
        record_ms=obj.get("record_ms", False),
    )


def _row_to_json(row: TrialRow) -> dict:
    def rat(q: Fraction | None) -> dict | None:
        return None if q is None else rational_to_json(q)

    return {
        "trial": row.trial,
        "seed": row.seed,
        "p_c": rat(row.p_c),
        "p_h": rat(row.p_h),
        "residual": rat(row.residual),
        "success": row.success,
        "ms": row.ms,
        "error": row.error,
    }


def _row_from_json(obj: dict) -> TrialRow:
    def rat(v: dict | None) -> Fraction | None:
        return None if v is None else Fraction(v["num"], v["den"])

    return TrialRow(
        obj["trial"], obj["seed"], rat(obj["p_c"]), rat(obj["p_h"]),
        rat(obj["residual"]), obj["success"], obj["ms"], obj["error"],
    )


def report_to_json(report: TrialReport) -> dict:
    return {
        "config": config_to_json(report.config),
        "rows": [_row_to_json(r) for r in report.rows],
        "aggregate": {
            "trials": len(report.rows),
            "successes": report.successes,
            "success_rate": rational_to_json(report.success_rate),
            "mean_residual": rational_to_json(report.mean_residual),
            "ci95": list(report.ci95),
        },
    }


def report_from_json(obj: dict) -> TrialReport:
    return TrialReport(
        config_from_json(obj["config"]),
        tuple(_row_from_json(r) for r in obj["rows"]),
    )


CSV_COLUMNS = ("trial", "seed", "p_c_num", "p_c_den", "p_h_num", "p_h_den", "residual", "success", "ms")


def report_to_csv(report: TrialReport) -> str:
    """Fixed-column CSV; rationals split into numerator and denominator."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow(
            [
                r.trial,
                r.seed,
                "" if r.p_c is None else r.p_c.numerator,
                "" if r.p_c is None else r.p_c.denominator,
                "" if r.p_h is None else r.p_h.numerator,
                "" if r.p_h is None else r.p_h.denominator,
                "" if r.residual is None else str(r.residual),
                int(r.success),
                r.ms,
            ]
        )
    return out.getvalue()


def emit_report(report: TrialReport, format: str, path: str | os.PathLike) -> None:
    """Write the report as `format` ("csv" or "json") to `path`."""
    if format == "csv":
        text = report_to_csv(report)
    elif format == "json":
        text = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    else:
        raise InvalidParams(f"unknown report format {format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
