"""The memos of a configuration's fixed work, held to the work they keep.

`run_trials` keeps the gap learner's values per (desc, distribution)
(`trials._gap_values`), an explicit distribution keeps its atoms' JSON
parts (`_json_atoms`), and a report's interval comes from a memo over
(successes, trials) (`trials._ci95`).  Each must give what the unmemoized
code gives, warm or cold, and none may skip a check.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llp_lab.trials as trials
from llp_lab import (
    ClassDescriptor,
    InvalidParams,
    TrialConfig,
    TrialReport,
    TrialRow,
    UniformCube,
    clopper_pearson,
    config_from_json,
    config_to_json,
    distribution_to_json,
    make_distribution,
    normalized,
    point_to_json,
    random_hypothesis,
    report_to_csv,
    report_to_json,
    resolve_m,
    run_trials,
)
from llp_lab.core import _unpack_bits
from llp_lab.errors import LlpError
from llp_lab.learners import _GapValues
from llp_lab.trials import MAX_TRIALS, _ci95, _gap_values
from wire_values import distributions


@st.composite
def _gap_runs(draw):
    """Gap-learner configs on every class it runs on, some on the other domain (error rows or errors)."""
    class_id = draw(st.sampled_from(("monotone_disjunction", "finite_subset", "window")))
    n = draw(st.integers(1, 3))
    nat = (class_id != "monotone_disjunction") ^ (draw(st.integers(0, 3)) == 0)
    if nat:
        support = draw(st.lists(st.integers(1, 2**n), min_size=1, max_size=6, unique=True))
    else:
        support = [_unpack_bits(v, n) for v in draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True))]
    if not nat and draw(st.booleans()):
        dist = UniformCube(n)
    else:
        dist = normalized((x, draw(st.integers(1, 9))) for x in support)
    if class_id == "finite_subset":
        desc = ClassDescriptor("finite_subset", n, ground_set=tuple(sorted(draw(st.sets(st.integers(1, 2**n), max_size=4)))))
    elif class_id == "window":
        desc = ClassDescriptor("window", n, k=draw(st.integers(0, 2)))
    else:
        desc = ClassDescriptor(class_id, n)
    target = random_hypothesis(desc, random.Random(draw(st.integers(0, 99)))) if draw(st.booleans()) else None
    m_mode = draw(st.sampled_from(("explicit", "gap")))
    return TrialConfig(
        learner="gap", epsilon=draw(st.sampled_from((F(0), F(1, 10), F(1, 4)))), delta=draw(st.sampled_from((F(1, 4), F(1, 10)))),
        trials=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**64 - 1)), distribution=dist,
        desc=desc, target=target, m=draw(st.integers(1, 60)) if m_mode == "explicit" else None, m_mode=m_mode,
    )


def _outcome(config):
    """Everything a run shows: the report's repr, JSON and CSV, or the error's type and text."""
    try:
        report = run_trials(config)
    except LlpError as exc:
        return type(exc).__name__, str(exc)
    return repr(report), json.dumps(report_to_json(report), sort_keys=True), report_to_csv(report)


@settings(max_examples=200, deadline=None)
@given(_gap_runs())
def test_a_warm_memo_gives_what_a_cleared_one_gives(config):
    # warm: the memos hold what earlier examples left in them
    warm = _outcome(config)
    # an equal config built anew hits the memo by value
    assert _outcome(config_from_json(json.loads(json.dumps(config_to_json(config))))) == warm
    _gap_values.cache_clear()
    _ci95.cache_clear()
    assert _outcome(config) == warm


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(0, 1, max_denominator=30), unique=True, max_size=12))
def test_the_kept_gap_is_the_smallest_difference_of_the_values(values):
    ordered = sorted(values)
    want = min((b - a for a, b in zip(ordered, ordered[1:])), default=F(0))
    kept = _GapValues(dict.fromkeys(values))
    assert kept.gap == want and _GapValues.of(dict.fromkeys(values)).gap == want
    assert _GapValues.of(kept) is kept


@settings(max_examples=200, deadline=None)
@given(_gap_runs())
def test_resolve_m_reads_the_same_gap_from_kept_values(config):
    config = replace(config, m=None, m_mode="gap")

    def outcome(*values):
        try:
            return resolve_m(config, *values)
        except LlpError as exc:
            return type(exc).__name__, str(exc)

    values = _gap_values(config.desc, config.distribution)
    want = outcome()
    if values is not None:
        assert outcome(values) == outcome(dict(values)) == want


def _gap_config(**overrides):
    base = dict(
        learner="gap", epsilon=F(1, 10), delta=F(1, 10), trials=3, seed=5,
        distribution=make_distribution([(1, F(1, 7)), (2, F(2, 7)), (3, F(4, 7))]),
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2, 3)), m_mode="gap",
    )
    return TrialConfig(**{**base, **overrides})


def test_a_replaced_gap_values_sees_every_miss_and_a_failure_is_kept(monkeypatch):
    calls = []

    def counting(desc, dist):
        calls.append((desc, dist))
        return real(desc, dist)

    real = trials.gap_values
    monkeypatch.setattr(trials, "gap_values", counting)
    _gap_values.cache_clear()
    config = _gap_config()
    first = run_trials(config)
    assert run_trials(replace(config, seed=6)).config.m == first.config.m
    assert len(calls) == 1
    # a cube distribution under a class of naturals: the build fails, and
    # every run fails as the unmemoized one does, in resolve_m
    bad = _gap_config(distribution=UniformCube(2))
    errors = []
    for _ in range(2):
        with pytest.raises(LlpError) as exc:
            run_trials(bad)
        errors.append((type(exc.value), str(exc.value)))
    assert len(calls) == 2 and errors[0] == errors[1]
    assert _gap_values(bad.desc, bad.distribution) is None
    _gap_values.cache_clear()


def test_the_memos_are_bounded():
    assert _gap_values.cache_info().maxsize == 16
    assert _ci95.cache_info().maxsize == 1024


def _distribution_to_json_reference(dist):
    """`distribution_to_json` as it was before the atoms' JSON was kept: one comprehension per call."""
    if isinstance(dist, UniformCube):
        return {"kind": "uniform_cube", "n": dist.n}
    return {
        "kind": "explicit",
        "atoms": [
            {"point": point_to_json(p), "num": w.numerator, "den": w.denominator}
            for p, w in dist.atoms
        ],
    }


@settings(max_examples=300, deadline=None)
@given(distributions)
def test_distribution_to_json_is_the_comprehension_and_every_call_is_fresh(dist):
    want = _distribution_to_json_reference(dist)
    first = distribution_to_json(dist)
    assert first == want and json.dumps(first) == json.dumps(want)
    first["kind"] = "changed"
    for atom in first.get("atoms", ()):
        atom["point"]["nat"] = -1
        atom["num"] = 0
    first.get("atoms", []).append({})
    assert distribution_to_json(dist) == want


def _ci95_of(successes, n):
    win = TrialRow(0, 0, F(0), F(0), F(0), True)
    loss = TrialRow(0, 0, F(0), F(0), F(1), False)
    return TrialReport(None, (win,) * successes + (loss,) * (n - successes)).ci95


def _spied(monkeypatch):
    """`trials.clopper_pearson` wrapped: every miss of `_ci95` is recorded with its result."""
    seen = {}
    real = trials.clopper_pearson

    def spy(successes, n):
        assert (successes, n) not in seen, f"({successes}, {n}) computed twice"
        seen[successes, n] = real(successes, n)
        return seen[successes, n]

    monkeypatch.setattr(trials, "clopper_pearson", spy)
    _ci95.cache_clear()
    return seen


def test_report_intervals_are_clopper_pearson_for_every_count_up_to_200(monkeypatch):
    seen = _spied(monkeypatch)
    for n in range(1, 201):
        for s in range(n + 1):
            assert _ci95_of(s, n) == seen[s, n]  # a miss
            assert _ci95_of(s, n) == seen[s, n]  # a hit
    assert len(seen) == 201 * 202 // 2 - 1
    # an evicted pair is computed again, and equal to what it was
    monkeypatch.setattr(trials, "clopper_pearson", clopper_pearson)
    assert _ci95_of(0, 1) == seen[0, 1] == clopper_pearson(0, 1)
    _ci95.cache_clear()


def test_report_intervals_are_clopper_pearson_on_sampled_counts_up_to_max_trials(monkeypatch):
    rng = random.Random(36)
    pairs = [(0, MAX_TRIALS), (MAX_TRIALS, MAX_TRIALS), (MAX_TRIALS - 3, MAX_TRIALS)]
    for _ in range(8):
        n = rng.randint(201, MAX_TRIALS)
        pairs.append((rng.choice((rng.randint(0, n), rng.randint(0, 20), n - rng.randint(0, 20))), n))
    seen = _spied(monkeypatch)
    for s, n in pairs:
        assert _ci95(s, n) == seen[s, n]
        assert _ci95(s, n) == seen[s, n]
    monkeypatch.undo()
    for s, n in pairs[:3]:
        assert seen[s, n] == clopper_pearson(s, n)
    _ci95.cache_clear()


@pytest.mark.parametrize("successes, n", [(True, 2), (1.0, 2), (1, 2.0), (F(1), 2)])
def test_a_memoized_pair_does_not_let_an_int_stand_in_skip_the_check(successes, n):
    _ci95(1, 2)
    assert _ci95.cache_info().currsize >= 1
    with pytest.raises(InvalidParams, match="counts must be ints"):
        clopper_pearson(successes, n)
    with pytest.raises(InvalidParams, match="counts must be ints"):
        _ci95(successes, n)


def test_a_report_whose_success_count_is_a_float_is_still_refused():
    row = TrialRow(0, 0, F(0), F(0), F(0), 1.0)
    _ci95(1, 1)
    with pytest.raises(InvalidParams, match="counts must be ints"):
        TrialReport(None, (row,)).ci95
