"""Seeded Monte Carlo runs estimating a learner's proportion-guarantee rate.

A trial draws a sample for a (possibly per-trial random) target, runs the
configured learner, and scores success exactly: |p_h - p_c| <= epsilon with
both proportions computed as Fractions.  Each trial derives its own RNG seed
from the master seed and trial index, so serial and pooled execution produce
identical reports, byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress
from typing import Callable, NamedTuple, TypeVar

from .core import (
    DISTRIBUTION,
    RATIONAL,
    REQUIRED,
    ExplicitDistribution,
    FiniteDistribution,
    Sample,
    _coin_flips,
    derive_seed,
    from_fields,
    json_list,
    parse_rational,
    rational_to_json,
    record,
    to_fields,
)
from .bounds import (
    gap_sample_size,
    hoeffding_sample_size,
    uniform_convergence_sample_size,
)
from .errors import InvalidParams, LlpError, MalformedEncoding
from .hypotheses import (
    DESCRIPTOR,
    HYPOTHESIS,
    ClassDescriptor,
    Hypothesis,
    random_hypothesis,
    vc_dimension,
)
from .learners import (
    LearnerOutcome,
    _GapValues,
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
    _scored,
    _support_domain,
    draw_labeled_points,
    draw_sample,
    proportion_gap,
    true_proportion,
)

__all__ = [
    "LEARNER_IDS",
    "M_MODES",
    "SAMPLE_LEARNERS",
    "run_learner",
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


class SampleLearner(NamedTuple):
    """A learner that picks its hypothesis from a sample and its p-hat; `seeded` if it reads `seed`."""

    needs_desc: bool
    run: Callable[..., LearnerOutcome]  # (desc, dist, sample, seed, values)
    seeded: bool = False


def _gap(desc, dist, sample, seed, values):
    if dist is None:
        raise InvalidParams("the gap learner needs a distribution")
    return gap_learner(desc, dist, sample.p_hat, values=values)


def _window(desc, dist, sample, seed, values):
    if desc.k is None:
        raise InvalidParams("the window learner needs a window class with a span bound")
    return window_learner(sample, desc.k)


# Each entry looks its learner up among this module's globals when it runs,
# so replacing a learner here (as a tracer or a test does) takes effect.
SAMPLE_LEARNERS = {
    "improper": SampleLearner(False, lambda desc, dist, sample, seed, values: improper_learner(sample)),
    "erm": SampleLearner(True, lambda desc, dist, sample, seed, values: erm_proportion_matcher(desc, sample)),
    "gap": SampleLearner(True, _gap),
    "subset_sum": SampleLearner(False, lambda desc, dist, sample, seed, values: subset_sum_learner(sample)),
    "window": SampleLearner(True, _window),
    "halfspace_sweep": SampleLearner(
        False, lambda desc, dist, sample, seed, values: halfspace_sweep_learner(sample, seed), seeded=True
    ),
}

# the noisy distinguisher reads noisy labels, not a Sample (see run_single_trial)
LEARNER_IDS = (*SAMPLE_LEARNERS, "noisy_distinguisher")

M_MODES = ("explicit", "hoeffding", "gap", "uniform-convergence")
# The most trials a run may have.  The report's exact interval sums binomial
# tails in integers of about 55 * trials bits, so its cost grows as trials**2:
# about 0.7 s at this count, 2.8 s at 10,000 (one core of a 2-core x86-64 VM).
MAX_TRIALS = 5000


def run_learner(
    learner: str, desc: ClassDescriptor | None, dist: FiniteDistribution | None,
    sample: Sample, seed: int, values: dict[Fraction, Hypothesis] | None = None,
) -> LearnerOutcome:
    """Run a learner of SAMPLE_LEARNERS; `seed` feeds the halfspace sweep.

    `values` is the gap learner's `gap_values`, when built once for many
    calls.  Raises InvalidParams for an unknown learner, and for a missing
    class, distribution (gap) or window span bound (window).
    """
    entry = SAMPLE_LEARNERS.get(learner)
    if entry is None:
        raise InvalidParams(f"unknown sample learner {learner!r}")
    if entry.needs_desc and desc is None:
        raise InvalidParams(f"learner {learner!r} needs a class descriptor")
    return entry.run(desc, dist, sample, seed, values)


@record
class TrialConfig:
    """Everything one Monte Carlo estimate depends on, seed included.

    Epsilon may be 0, unlike `LLPTask`'s, which lies in (0, 1): a trial at
    epsilon = 0 succeeds only when the hypothesis's true proportion equals
    the target's exactly, the rate criterion 12 estimates for the noisy
    distinguisher.  The "gap" and "uniform-convergence" sizes are read off
    the class, so those m modes need `desc`.
    """

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
        if type(self.trials) is not int or type(self.seed) is not int or not (self.m is None or type(self.m) is int):
            raise InvalidParams(f"trials, seed and m must be ints, got {self.trials!r}, {self.seed!r}, {self.m!r}")
        if type(self.record_ms) is not bool:
            raise InvalidParams(f"record_ms must be true or false, got {self.record_ms!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise InvalidParams(f"trials must be in 1..{MAX_TRIALS}, got {self.trials}")
        if not 0 <= self.epsilon <= 1 or not 0 < self.delta < 1:
            raise InvalidParams(
                f"need 0 <= epsilon <= 1 and 0 < delta < 1, got {self.epsilon}, {self.delta}"
            )
        if self.m_mode == "explicit" and (self.m is None or self.m < 1):
            raise InvalidParams(f"explicit m must be >= 1, got {self.m}")
        entry = SAMPLE_LEARNERS.get(self.learner)
        if entry is not None and entry.needs_desc and self.desc is None:
            raise InvalidParams(f"learner {self.learner!r} needs a class descriptor")
        if self.target is None and self.desc is None:
            raise InvalidParams("random targets need a class descriptor to draw from")
        if self.learner == "noisy_distinguisher":
            if self.eta is None or self.eta_prime is None:
                raise InvalidParams("the noisy distinguisher needs eta and eta_prime")
            if _support_domain(self.distribution)[0] != "bits":  # type: ignore[index]
                raise InvalidParams("the noisy distinguisher needs a distribution over bit vectors")
        if self.m_mode in ("gap", "uniform-convergence") and self.desc is None:
            raise InvalidParams(f"m_mode {self.m_mode!r} needs a class descriptor")


def resolve_m(config: TrialConfig, values: dict[Fraction, Hypothesis] | None = None) -> int:
    """Sample size per trial, either explicit or computed from a bound.

    "uniform-convergence" substitutes the explicit support size for the VC
    dimension when the class has none (finite subsets), since the bound is
    meaningless at d = infinity but the support caps what the class can do.
    `values`, when given, holds the class's achievable proportions under
    the distribution (`gap_values`), and the "gap" mode reads their cached
    `gap` instead of enumerating the class again; a plain dict is wrapped
    as `gap_learner` wraps one.
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
            beta = _GapValues.of(values).gap
        return gap_sample_size(beta, config.delta)
    assert config.desc is not None
    d = vc_dimension(config.desc)
    if d == float("inf"):
        if not isinstance(config.distribution, ExplicitDistribution):
            raise InvalidParams("no finite dimension and no explicit support to fall back on")
        d = len(config.distribution.atoms)
    return uniform_convergence_sample_size(int(d), config.epsilon, config.delta, 0)


@record
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


@record
class TrialReport:
    """`run_trials`' result: the resolved config and one row per trial, in trial order."""

    config: TrialConfig
    rows: tuple[TrialRow, ...]

    @cached_property
    def successes(self) -> int:
        """The successful rows, counted once per report."""
        return sum(r.success for r in self.rows)

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, len(self.rows))

    @property
    def mean_residual(self) -> Fraction:
        """The mean residual of the scored rows, 0 when none is: their numerators over the lcm of the denominators."""
        scored = [r.residual for r in self.rows if r.residual is not None]
        if not scored:
            return Fraction(0)
        d = math.lcm(*(q.denominator for q in scored))
        return Fraction(sum(q.numerator * (d // q.denominator) for q in scored), d * len(scored))

    @property
    def ci95(self) -> tuple[float, float]:
        """`clopper_pearson(successes, trials)`, read from a memo of the 1024 pairs used last (`_ci95`)."""
        return _ci95(self.successes, len(self.rows))


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial confidence interval for a success rate.

    With X ~ Bin(trials, p) and alpha = 1 - confidence, the lower bound is
    the p at which P(X >= successes) equals the exact rational value of the
    double `alpha / 2`, and the upper bound is the p at which
    P(X >= successes + 1) equals the double `1 - alpha / 2`.  Each bound is
    the double nearest that exact quantile, ties to even, so the interval
    is a function of its arguments alone.  The lower bound is 0.0 when
    successes = 0, and the upper bound 1.0 when successes = trials.

    Raises InvalidParams unless successes and trials are ints (not bools)
    with 0 <= successes <= trials and 1 <= trials <= MAX_TRIALS, and
    confidence is a float strictly inside (0, 1).
    """
    for count in (successes, trials):
        if isinstance(count, bool) or not isinstance(count, int):
            raise InvalidParams(f"counts must be ints, got {count!r}")
    if not 0 <= successes <= trials or not 1 <= trials <= MAX_TRIALS:
        raise InvalidParams(f"bad counts {successes}/{trials} (trials must be in 1..{MAX_TRIALS})")
    if not isinstance(confidence, float) or not 0.0 < confidence < 1.0:
        raise InvalidParams(f"confidence must be a float inside (0, 1), got {confidence!r}")
    alpha = 1 - confidence
    lo = 0.0 if successes == 0 else _tail_quantile(trials, successes, alpha / 2)
    hi = 1.0 if successes == trials else _tail_quantile(trials, successes + 1, 1 - alpha / 2)
    return lo, hi


@lru_cache(maxsize=1024, typed=True)
def _ci95(successes: int, trials: int) -> tuple[float, float]:
    """`clopper_pearson(successes, trials)`, kept for the 1024 pairs used last.

    The interval is a function of the two counts alone, and runs of one
    config repeat them.  The key is typed, so a bool or a float count
    misses and `clopper_pearson` refuses it; `clopper_pearson` is looked up
    at call time, so a replacement sees every miss.  The public function
    stays unmemoized.
    """
    return clopper_pearson(successes, trials)


# The ulp index of a double in [0, 1]: consecutive doubles have consecutive
# indices, and the last bit of an index is the last bit of the significand.
_ONE = struct.unpack("<q", struct.pack("<d", 1.0))[0]


def _double(index: int) -> float:
    return struct.unpack("<d", struct.pack("<q", index))[0]


def _midpoint(index: int) -> tuple[int, int]:
    """(num, den) with num / den the midpoint of doubles index and index + 1, den a power of 2.

    Double j is sig * 2**(e - 1075) with e its biased exponent (1 for
    subnormals) and sig its significand with the hidden bit, and double
    j + 1 is (sig + 1) * 2**(e - 1075) even across a binade, so the
    midpoint is (2 * sig + 1) / 2**(1076 - e).
    """
    biased = index >> 52
    sig = index & ((1 << 52) - 1) | (1 << 52 if biased else 0)
    return 2 * sig + 1, 1 << (1076 - max(biased, 1))


def _tail_quantile(n: int, k: int, target: float) -> float:
    """The double nearest the p with P(X >= k) = target, X ~ Bin(n, p), 1 <= k <= n.

    The tail increases strictly in p, from 0 at p = 0 to 1 at p = 1, so the
    answer is the double of the least index j whose midpoint with double
    j + 1 lies above the quantile, or 1.0 when there is none.  A float
    Newton search (`_float_quantile`) and one Newton step on the exact tail
    give a start index; exact comparisons at midpoints then gallop from it
    and bisect, so the answer does not depend on the start.

    No midpoint is ever the quantile, so no tie is left to break.  Above
    2**-1022 a midpoint is a / 2**e with a odd and a > 2**53, and every term
    of the tail there has the factor a**k, which a target's odd numerator,
    below 2**53, cannot have; below, the tail is at most n * 2**-1022, far
    under any target (at least 2**-54, as confidence < 1 is a double).
    """
    t_num, t_den = target.as_integer_ratio()

    def residual(num: int, den: int) -> tuple[int, int]:
        """(r, scale) with P(X >= k) - target = r / scale at p = num / den, den a power of 2."""
        exp = den.bit_length() - 1
        scale = t_den << exp * n
        # sum the shorter tail: P(X >= k), or 1 - P(X <= k - 1)
        if n - k + 1 <= k:
            return _tail_sum(n, k, num, den - num) * t_den - (t_num << exp * n), scale
        return ((t_den - t_num) << exp * n) - _tail_sum(n, n - k + 1, den - num, num) * t_den, scale

    def above(j: int) -> bool:
        return residual(*_midpoint(j))[0] > 0

    # The float tail is off by a relative 1e-12 or so at a few thousand
    # trials, tens of ulps in p; a Newton step on the exact residual, with
    # the float slope k * comb(n, k) * p**(k - 1) * (1 - p)**(n - k), gets
    # within about an ulp.
    p = _float_quantile(n, k, target)
    if p < 1.0:
        r, scale = residual(*p.as_integer_ratio())
        log_slope = math.log(k * math.comb(n, k)) + (k - 1) * math.log(p) + (n - k) * math.log1p(-p)
        p = min(max(p - r / scale / math.exp(log_slope), 0.0), 1.0)
    start = struct.unpack("<q", struct.pack("<d", p))[0]
    # gallop away from the start until `above` flips, then bisect; the
    # indices -1 and _ONE stand for "not above" and "above" unevaluated
    up = start < _ONE and not above(start)
    near, step = start, 1
    while True:
        far = min(start + step, _ONE) if up else max(start - step, -1)
        if far in (-1, _ONE) or above(far) == up:
            break
        near, step = far, 2 * step
    lo, hi = (near, far) if up else (far, near)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return _double(hi)


def _float_quantile(n: int, k: int, target: float) -> float:
    """A float estimate of the p with P(X >= k) = target, X ~ Bin(n, p), 1 <= k <= n.

    Works on the small tail, the one on the far side of the mode: P(X >= k)
    when target <= 1/2, else P(X <= k - 1) = 1 - target, which is
    P(n - X >= n - k + 1) under the chance q = 1 - p.  So both cases solve
    P(Y >= j) = goal <= 1/2 for Y ~ Bin(n, q).  Newton's method runs on
    log P(Y >= j) as a function of log q, which is increasing and concave:
    from the left each step stays left of the root, and from the right one
    step crosses it.  A bracket [lo, hi] of q holds the root, q stays
    strictly inside (0, 1), and a step leaving the bracket is replaced by
    its midpoint.  The search stops once a step is below the float tail's
    own error, a relative 1e-12, or the bracket holds no double between its
    ends.  A target of 1.0 (1 - alpha / 2 rounded up) has the quantile 1.
    """
    if target == 1.0:
        return 1.0
    mirror = target > 0.5
    j, goal = (n - k + 1, 1.0 - target) if mirror else (k, target)
    log_goal = math.log(goal)
    # d P(Y >= j) / dq = j * comb(n, j) * q**(j - 1) * (1 - q)**(n - j)
    log_top = math.log(j * math.comb(n, j))
    lo, hi = 0.0, 1.0
    q = j / (n + 1)
    while True:
        mass = _float_mass(n, q, j)
        if mass < goal:
            lo = q
        else:
            hi = q
        if mass > 0.0:
            # d log P(Y >= j) / d log q, then the Newton step in log q
            slope = math.exp(log_top + j * math.log(q) + (n - j) * math.log1p(-q)) / mass
            step = (log_goal - math.log(mass)) / slope
            if abs(step) < 1e-12:
                break
            nxt = q * math.exp(step)
        else:
            # the float tail underflowed (at the smallest targets past
            # about 5,000 trials): bisect
            nxt = lo
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
            if not lo < nxt < hi:
                break
        q = nxt
    return 1.0 - q if mirror else q


def _tail_sum(n: int, k: int, a: int, b: int) -> int:
    """The sum of comb(n, j) * a**j * b**(n - j) over k <= j <= n, by Horner from j = n down."""
    total = w = 1  # w = comb(n, j) * b**(n - j), by the ratio of consecutive binomials
    for j in range(n - 1, k - 1, -1):
        w = w * b * (j + 1) // (n - j)
        total = total * a + w
    return total * a**k


def _float_mass(n: int, p: float, first: int) -> float:
    """P(X >= first) for X ~ Bin(n, p), 0 < p < 1, in floats: a search estimate only.

    Sums outward from the tail's largest term, whose logarithm is the one
    costly step; the other terms follow by the ratio of consecutive terms.
    """
    odds = p / (1.0 - p)
    top = max(first, int((n + 1) * p))
    log_top = math.log(math.comb(n, top)) + top * math.log(p) + (n - top) * math.log1p(-p)
    total = term = 1.0
    for j in range(top, n):
        term *= (n - j) / (j + 1) * odds
        total += term
        if term < total * 1e-17:
            break
    term = 1.0
    for j in range(top, first, -1):
        term *= j / (n - j + 1) / odds
        total += term
        if term < total * 1e-17:
            break
    return math.exp(log_top) * total


def run_single_trial(
    config: TrialConfig, m: int, index: int, values: dict[Fraction, Hypothesis] | None = None,
    p_c: Fraction | None = None,
) -> TrialRow:
    """One seeded trial; an LlpError becomes an error row, not a crash.

    Any other exception is a bug in a learner or below it and propagates.
    `values` is the gap learner's `gap_values` for the config, and `p_c`
    the fixed target's true proportion, when the run has computed them
    once for all its trials.
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
            _, labels = draw_labeled_points(
                config.distribution, m, derive_seed(trial_seed, "sample"), target
            )
            assert config.eta is not None and config.eta_prime is not None
            flips = _coin_flips(config.eta, m, random.Random(derive_seed(trial_seed, "noise")))
            flipped_positives = sum(compress(flips, labels))
            # positives + flipped negatives - flipped positives
            noisy_positives = sum(labels) + sum(flips) - 2 * flipped_positives
            _, n = _support_domain(config.distribution)  # type: ignore[misc]  # ("bits", n), checked by TrialConfig
            outcome = noisy_parity_uniform_learner(
                Fraction(noisy_positives, m), config.eta_prime, n
            )
        else:
            sample = draw_sample(
                config.distribution, m, derive_seed(trial_seed, "sample"), target
            )
            # only a seeded learner reads its seed, so only its seed is derived
            seed = derive_seed(trial_seed, "sweep") if SAMPLE_LEARNERS[config.learner].seeded else 0
            outcome = run_learner(config.learner, config.desc, config.distribution, sample, seed, values)
        if p_c is None:
            p_c = true_proportion(target, config.distribution)
        p_h = true_proportion(outcome.hypothesis, config.distribution)
        residual, success = _scored(p_h, p_c, config.epsilon)  # config.epsilon is a Fraction already
        ms = round((time.perf_counter() - started) * 1000) if config.record_ms else 0
        return TrialRow(index, trial_seed, p_c, p_h, residual, success, ms)
    except LlpError as exc:
        ms = round((time.perf_counter() - started) * 1000) if config.record_ms else 0
        return TrialRow(
            index, trial_seed, None, None, None, False, ms,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_trials(config: TrialConfig) -> TrialReport:
    """All trials, serial or pooled; the report is identical either way.

    LLP_LAB_THREADS > 1 fans trials out to a process pool of at most one
    worker per trial; results are assembled in trial order and each
    trial's randomness depends only on (master seed, index), so the pool
    size never shows in the output.  A value that is not an integer raises
    InvalidParams.  The gap learner's achievable proportions (with the
    count ladder the first trial builds on them, and their gap) depend on
    the class and the distribution alone, so they are built once per
    (desc, distribution) per process and kept for the 16 pairs used last
    (`_gap_values`); a fixed target's true proportion is built once per
    run.  Both are handed to `resolve_m` and every trial.
    """
    threads = os.environ.get("LLP_LAB_THREADS", "1") or "1"
    try:
        workers = min(int(threads), config.trials)
    except ValueError:
        raise InvalidParams(f"LLP_LAB_THREADS must be an integer, got {threads!r}") from None
    values = _gap_values(config.desc, config.distribution) if config.learner == "gap" else None
    p_c = _shared(true_proportion, config.target, config.distribution) if config.target is not None else None
    m = resolve_m(config, values)
    resolved = replace(config, m=m, m_mode="explicit")
    trial = partial(run_single_trial, resolved, m, values=values, p_c=p_c)
    indices = range(config.trials)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # about 30 ms to import, paid only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(trial, indices))
    else:
        rows = tuple(map(trial, indices))
    return TrialReport(resolved, rows)


_T = TypeVar("_T")


def _shared(build: Callable[..., _T], *args: object) -> _T | None:
    """`build(*args)` for every trial of a run, or None if it raises LlpError.

    The build is deterministic, so a failure here recurs where it was met
    before: in resolve_m, or in each trial as that trial's error row.
    """
    try:
        return build(*args)
    except LlpError:
        return None


@lru_cache(maxsize=16)
def _gap_values(desc: ClassDescriptor, dist: FiniteDistribution) -> dict[Fraction, Hypothesis] | None:
    """`gap_values(desc, dist)` for every run over (desc, dist), or None if it raises LlpError.

    Kept for the 16 pairs used last, as `core._coin_cut` keeps its cuts.  A
    failure is kept as None too, and recurs where it was met before (see
    `_shared`).  `gap_values` is looked up at call time, so a replacement
    sees every miss.
    """
    return _shared(gap_values, desc, dist)


# ---------------------------------------------------------------------------
# serialization


_CONFIG = (
    ("learner", "learner", None, REQUIRED),
    ("epsilon", "epsilon", RATIONAL, REQUIRED),
    ("delta", "delta", RATIONAL, REQUIRED),
    ("trials", "trials", None, REQUIRED),
    ("seed", "seed", None, REQUIRED),
    ("distribution", "distribution", DISTRIBUTION, REQUIRED),
    ("m_mode", "m_mode", None, "explicit"),
    ("record_ms", "record_ms", None, False),
    ("class", "desc", DESCRIPTOR, None),
    ("target", "target", HYPOTHESIS, None),
    ("m", "m", None, None),
    ("eta", "eta", RATIONAL, None),
    ("eta_prime", "eta_prime", RATIONAL, None),
)
# a row writes every field, an unscored proportion as null
_RATIONAL_OR_NULL = (lambda q: None if q is None else rational_to_json(q), lambda v: None if v is None else parse_rational(v))
_ROW = (
    ("trial", "trial", None, REQUIRED),
    ("seed", "seed", None, REQUIRED),
    ("p_c", "p_c", _RATIONAL_OR_NULL, REQUIRED),
    ("p_h", "p_h", _RATIONAL_OR_NULL, REQUIRED),
    ("residual", "residual", _RATIONAL_OR_NULL, REQUIRED),
    ("success", "success", None, REQUIRED),
    ("ms", "ms", None, REQUIRED),
    ("error", "error", None, REQUIRED),
)
_ROW_CODEC = (partial(to_fields, _ROW), lambda obj: TrialRow(**from_fields(_ROW, obj, "report row")))


def config_to_json(config: TrialConfig) -> dict:
    return to_fields(_CONFIG, config)


def config_from_json(obj: dict) -> TrialConfig:
    return TrialConfig(**from_fields(_CONFIG, obj, "config"))


_REPORT = (
    ("config", "config", (config_to_json, config_from_json), REQUIRED),
    ("rows", "rows", json_list(_ROW_CODEC, "report rows"), REQUIRED),
)


def report_to_json(report: TrialReport) -> dict:
    out = to_fields(_REPORT, report)
    out["aggregate"] = {
        "trials": len(report.rows),
        "successes": report.successes,
        "success_rate": rational_to_json(report.success_rate),
        "mean_residual": rational_to_json(report.mean_residual),
        "ci95": list(report.ci95),
    }
    return out


def report_from_json(obj: dict) -> TrialReport:
    """The report `report_to_json` wrote; MalformedEncoding for a bad field or a row count other than `trials`.

    A run writes one row per trial, so a report of fewer or more rows would
    aggregate another trial count than its config names.  A config names
    at least one trial, so a report of no rows, which has no success rate
    to write back, is refused too.
    """
    fields = from_fields(_REPORT, obj, "report")
    rows, trials = len(fields["rows"]), fields["config"].trials
    if rows != trials:
        raise MalformedEncoding(f"a report of {trials} trials needs {trials} rows, got {rows}")
    return TrialReport(**fields)


CSV_COLUMNS = ("trial", "seed", "p_c_num", "p_c_den", "p_h_num", "p_h_den", "residual", "success", "ms")


def report_to_csv(report: TrialReport) -> str:
    """Fixed-column CSV; rationals split into numerator and denominator.

    The residual stays one field, written as `str` of a Fraction writes it
    ("a/b", or "a" when b is 1) from its numerator and denominator.  Lines
    are joined directly: every field is an int, an empty string or an
    "a/b" string, none of which `csv.writer` would quote, so the text is
    what it writes with lineterminator "\\n".
    """
    lines = [",".join(CSV_COLUMNS)]
    for r in report.rows:
        p_c, p_h, residual = r.p_c, r.p_h, r.residual
        res = (
            "" if residual is None
            else f"{residual.numerator}" if residual.denominator == 1
            else f"{residual.numerator}/{residual.denominator}"
        )
        lines.append(
            f"{r.trial},{r.seed},"
            f"{'' if p_c is None else p_c.numerator},{'' if p_c is None else p_c.denominator},"
            f"{'' if p_h is None else p_h.numerator},{'' if p_h is None else p_h.denominator},"
            f"{res},{int(r.success)},{r.ms}"
        )
    return "\n".join(lines) + "\n"


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
