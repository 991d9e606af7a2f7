"""The trial loop and its reports held to the naive code they replaced.

`run_trials` shares each run's fixed work across its trials (a fixed
target's proportion, the gap learner's values and their count ladder),
derives the sweep seed only for a learner that reads it, and builds one
Sample per draw, whose draw order waits until it is read.  The reference
here runs every trial from scratch: `draw_sample`, `run_learner` with the
trial's derived sweep seed, both true proportions and `llp_success`.  The
reports' `mean_residual` is held to the `Fraction` sum, and the CSV to
`csv.writer`.
"""

import csv
import io
import random
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    ConstantRandom,
    FiniteSubset,
    LlpError,
    Parity,
    TrialConfig,
    TrialReport,
    TrialRow,
    UniformCube,
    derive_seed,
    draw_labeled_points,
    draw_sample,
    llp_success,
    normalized,
    random_hypothesis,
    report_to_csv,
    resolve_m,
    run_trials,
    true_proportion,
)
from llp_lab.core import _unpack_bits
from llp_lab.learners import noisy_parity_uniform_learner
from llp_lab.sampling import _support_domain
from llp_lab.trials import CSV_COLUMNS, LEARNER_IDS, run_learner
from wire_values import reports


def _reference_rows(config: TrialConfig, m: int) -> tuple[TrialRow, ...]:
    """Every trial from scratch, nothing shared between them."""
    dist = config.distribution
    rows = []
    for index in range(config.trials):
        trial_seed = derive_seed(config.seed, "trial", index)
        try:
            target = config.target
            if target is None:
                target = random_hypothesis(config.desc, random.Random(derive_seed(trial_seed, "target")))
            if config.learner == "noisy_distinguisher":
                _, labels = draw_labeled_points(dist, m, derive_seed(trial_seed, "sample"), target)
                rng = random.Random(derive_seed(trial_seed, "noise"))
                noisy = sum(label ^ (rng.random() < config.eta) for label in labels)
                n = _support_domain(dist)[1]
                h = noisy_parity_uniform_learner(F(noisy, m), config.eta_prime, n).hypothesis
            else:
                sample = draw_sample(dist, m, derive_seed(trial_seed, "sample"), target)
                h = run_learner(config.learner, config.desc, dist, sample, derive_seed(trial_seed, "sweep")).hypothesis
            p_c, p_h = true_proportion(target, dist), true_proportion(h, dist)
            rows.append(TrialRow(index, trial_seed, p_c, p_h, abs(p_h - p_c), llp_success(h, target, dist, config.epsilon)))
        except LlpError as exc:
            rows.append(TrialRow(index, trial_seed, None, None, None, False, error=f"{type(exc).__name__}: {exc}"))
    return tuple(rows)


# learner -> the class ids it runs on; None runs without a class
_CLASSES = {
    "improper": (None, "parity", "finite_subset", "window"),
    "erm": ("parity", "monotone_disjunction", "monotone_conjunction", "finite_subset", "window"),
    "gap": ("monotone_disjunction", "finite_subset", "window"),
    "subset_sum": (None, "finite_subset"),
    "window": ("window",),
    "halfspace_sweep": (None, "parity", "monotone_conjunction"),
    "noisy_distinguisher": ("parity",),
}
_NAT_CLASSES = ("finite_subset", "window")


@st.composite
def _runs(draw):
    """Trial configs for every learner id, with fixed and random targets, mostly on the learner's own domain.

    One draw in four puts the distribution on the other domain, which
    makes error rows, as do the sweep's collisions and unreachable counts.
    """
    learner = draw(st.sampled_from(LEARNER_IDS))
    class_id = draw(st.sampled_from(_CLASSES[learner]))
    n = draw(st.integers(1, 3))
    nat = class_id in _NAT_CLASSES or (class_id is None and learner == "subset_sum")
    if learner != "noisy_distinguisher" and draw(st.integers(0, 3)) == 0:
        nat = not nat
    if nat:
        support = draw(st.lists(st.integers(1, 2**n), min_size=1, max_size=6, unique=True))
    else:
        support = [_unpack_bits(v, n) for v in draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True))]
    if not nat and draw(st.booleans()):
        dist = UniformCube(n)
    else:
        dist = normalized((x, draw(st.integers(1, 9))) for x in support)
    desc = None
    if class_id == "finite_subset":
        desc = ClassDescriptor("finite_subset", n, ground_set=tuple(sorted(draw(st.sets(st.integers(1, 2**n), max_size=4)))))
    elif class_id == "window":
        desc = ClassDescriptor("window", n, k=draw(st.integers(0, 2)))
    elif class_id is not None:
        desc = ClassDescriptor(class_id, n)
    if desc is None or draw(st.booleans()):  # a fixed target
        if desc is not None:
            target = random_hypothesis(desc, random.Random(draw(st.integers(0, 99))))
        elif draw(st.booleans()):
            target = ConstantRandom(draw(st.fractions(0, 1, max_denominator=8)))
        elif nat:
            target = FiniteSubset(tuple(x for x in sorted(support) if draw(st.booleans())))
        else:
            target = Parity(_unpack_bits(draw(st.integers(0, 2**n - 1)), n))
    else:
        target = None
    m_mode = "explicit"
    if learner == "improper" and draw(st.booleans()):
        m_mode = "hoeffding"
    elif learner == "gap" and draw(st.booleans()):
        m_mode = "gap"
    extra = {}
    if learner == "noisy_distinguisher":
        extra = {"eta": draw(st.sampled_from((F(0), F(1, 10), F(1, 4)))), "eta_prime": F(1, 4)}
    return TrialConfig(
        learner=learner, epsilon=draw(st.sampled_from((F(0), F(1, 10), F(1, 4)))), delta=F(1, 4),
        trials=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**64 - 1)), distribution=dist,
        desc=desc, target=target, m=draw(st.integers(1, 60)) if m_mode == "explicit" else None, m_mode=m_mode,
        **extra,
    )


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_run_trials_rows_match_trials_run_from_scratch(config):
    try:
        m = resolve_m(config)
    except LlpError as exc:
        try:
            run_trials(config)
        except LlpError as got:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            raise AssertionError(f"run_trials did not raise {exc!r}")
        return
    report = run_trials(config)
    assert report.config.m == m
    assert report.rows == _reference_rows(config, m)


def _csv_reference(report) -> str:
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


# residuals 0 and 1 are whole: written "0" and "1", with no "/1"
_WHOLE_RESIDUALS = TrialReport(
    TrialConfig(
        learner="improper", epsilon=F(1, 10), delta=F(1, 4), trials=3, seed=0,
        distribution=UniformCube(1), target=Parity((1,)), m=4,
    ),
    (
        TrialRow(0, 5, F(1, 2), F(1, 2), F(0), True, 3),
        TrialRow(1, 6, F(1), F(0), F(1), False),
        TrialRow(2, 7, F(1, 2), F(3, 4), F(1, 4), False),
    ),
)


@settings(max_examples=300, deadline=None)
@given(reports)
@example(_WHOLE_RESIDUALS)
def test_report_csv_is_what_csv_writer_writes(report):
    assert report_to_csv(report) == _csv_reference(report)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_mean_residual_is_the_fraction_mean_of_the_scored_rows(report):
    scored = [r.residual for r in report.rows if r.residual is not None]
    want = sum(scored, F(0)) / len(scored) if scored else F(0)
    got = report.mean_residual
    assert type(got) is F and got == want
    assert report.successes == sum(r.success for r in report.rows)
