"""`clopper_pearson` against a naive exact binomial tail, its reference.

Each non-trivial bound must be the double nearest the exact quantile: the
exact tail straddles the target between the bound and its neighbouring
double, and the bound lies on the near side of their exact midpoint (ties
to even).  The reference sums every term with `math.comb`, independent of
the library's Horner evaluation and float search.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import llp_lab
from llp_lab import clopper_pearson, trials
from llp_lab.errors import InvalidParams
from llp_lab.trials import MAX_TRIALS, TrialConfig

ALPHA = 1 - 0.95


def naive_tail(n: int, k: int, p: float | Fraction) -> Fraction:
    """P(X >= k) for X ~ Bin(n, p), as a plain sum of exact terms over p's denominator."""
    num, den = Fraction(p).as_integer_ratio()
    terms = (math.comb(n, j) * num**j * (den - num) ** (n - j) for j in range(k, n + 1))
    return Fraction(sum(terms), den**n)


def nearest_failure(n: int, k: int, target: float, bound: float) -> str | None:
    """Why `bound` is not the double nearest the p with P(X >= k) = target, or None."""
    t = Fraction(target)
    at = naive_tail(n, k, bound)
    if at == t:
        return None
    below = at < t  # the quantile lies above the bound
    other = math.nextafter(bound, 2.0 if below else -1.0)
    at_other = naive_tail(n, k, other)
    if (at_other < t) if below else (at_other > t):
        return f"the tail does not cross {target} between {bound!r} and {other!r}"
    at_mid = naive_tail(n, k, (Fraction(bound) + Fraction(other)) / 2)
    if at_mid == t:
        return None if (bound / math.ulp(bound)) % 2 == 0 else f"tie not to even at {bound!r}"
    if (at_mid < t) if below else (at_mid > t):
        return f"{other!r} is nearer the quantile than {bound!r}"
    return None


def interval_failures(successes: int, trials: int) -> list[str]:
    lo, hi = clopper_pearson(successes, trials)
    problems = []
    if successes == 0:
        assert lo == 0.0
    else:
        problems.append(nearest_failure(trials, successes, ALPHA / 2, lo))
    if successes == trials:
        assert hi == 1.0
    else:
        problems.append(nearest_failure(trials, successes + 1, 1 - ALPHA / 2, hi))
    return [f"{successes}/{trials}: {p}" for p in problems if p is not None]


def test_every_bound_up_to_30_trials_is_nearest():
    problems = [p for n in range(1, 31) for k in range(n + 1) for p in interval_failures(k, n)]
    assert problems == []


def test_nearest_at_criterion_05_scale():
    assert interval_failures(1900, 2000) == []


def test_largest_supported_trial_count():
    """At MAX_TRIALS: exact near the edge, and the costliest k (n / 2) agrees with its mirror.

    The naive reference is too slow to check k = n / 2 here, so that case
    checks the symmetry lo(k) = 1 - hi(n - k) of the exact quantiles, which
    their two roundings keep to within an ulp of the lower bound.
    """
    n = MAX_TRIALS
    assert interval_failures(n - 3, n) == []
    assert interval_failures(n, n) == []
    lo, hi = clopper_pearson(n // 2, n)
    assert lo < 0.5 < hi
    assert abs(lo - (1 - hi)) <= math.ulp(lo)


@pytest.mark.parametrize(
    "successes, trials, lower",
    [(6, 6, 0.5407418735600995), (17, 25, 0.4649992825026277)],
)
def test_pinned_lower_bounds(successes, trials, lower):
    assert clopper_pearson(successes, trials)[0] == lower


@pytest.mark.parametrize("n", [1, 2, 7, 25])
def test_a_bound_rounded_to_the_wrong_side_fails(n):
    """The check has teeth: the other double around each quantile is refused."""
    for k in range(1, n + 1):
        lo = clopper_pearson(k, n)[0]
        t = Fraction(ALPHA / 2)
        wrong = math.nextafter(lo, 2.0 if naive_tail(n, k, lo) < t else -1.0)
        assert nearest_failure(n, k, ALPHA / 2, wrong) is not None


def test_other_confidences_are_nearest():
    for confidence in (0.5, 0.9, 0.99, 1 - 2**-40):
        alpha = 1 - confidence
        for k, n in ((1, 3), (4, 9), (9, 9)):
            lo, hi = clopper_pearson(k, n, confidence)
            assert nearest_failure(n, k, alpha / 2, lo) is None
            if k < n:
                assert nearest_failure(n, k + 1, 1 - alpha / 2, hi) is None


def test_sampled_bounds_past_30_trials_are_nearest():
    """Seeded (k, n) pairs with 31 <= n <= 300, at two confidences."""
    rng = random.Random(31)
    problems = []
    for _ in range(40):
        n = rng.randint(31, 300)
        k = rng.randint(0, n)
        for confidence in (0.95, 0.5):
            alpha = 1 - confidence
            lo, hi = clopper_pearson(k, n, confidence)
            if k > 0:
                problems.append(nearest_failure(n, k, alpha / 2, lo))
            if k < n:
                problems.append(nearest_failure(n, k + 1, 1 - alpha / 2, hi))
    assert [p for p in problems if p is not None] == []


# The most float tail evaluations one bound's search may make.  Measured: 7
# over every (k, n) with n <= 300 at confidences 0.001, 0.5, 0.95, 0.99,
# 1 - 2**-40 and 1 - 2**-53, and 8 over 80,000 seeded bounds with n <= 5000
# at seven confidences.  A bisection over the ulps of [0, 1] makes 62.
FLOAT_EVALUATIONS_PER_BOUND = 8


def test_float_search_makes_few_tail_evaluations(monkeypatch):
    calls = []
    float_mass = trials._float_mass

    def counted(*args):
        calls.append(args)
        return float_mass(*args)

    monkeypatch.setattr(trials, "_float_mass", counted)
    rng = random.Random(62)
    cases = [(k, n) for n in range(1, 31) for k in range(n + 1)]
    cases += [(rng.randint(0, n), n) for n in (rng.randint(31, 2000) for _ in range(20))]
    most = 0
    for k, n in cases:
        for confidence in (0.95, 0.5, 1 - 2**-40):
            alpha = 1 - confidence
            for j, target in ((k, alpha / 2), (k + 1, 1 - alpha / 2)):
                if 1 <= j <= n:
                    calls.clear()
                    trials._tail_quantile(n, j, target)
                    most = max(most, len(calls))
    assert 0 < most <= FLOAT_EVALUATIONS_PER_BOUND


def test_midpoint_is_the_mean_of_adjacent_doubles():
    """Subnormals, every binade edge below 1.0, and seeded indices in between."""
    rng = random.Random(1075)
    edges = [e << 52 for e in range(1, 1023)]
    indices = {0, 1, 2**52 - 2, trials._ONE - 1, *edges, *(e - 1 for e in edges)}
    indices.update(rng.randrange(trials._ONE) for _ in range(2000))
    for j in sorted(indices):
        num, den = trials._midpoint(j)
        assert den & (den - 1) == 0
        assert Fraction(num, den) == (Fraction(trials._double(j)) + Fraction(trials._double(j + 1))) / 2, j


@pytest.mark.parametrize(
    "args",
    [
        (2.5, 5),  # float count
        (2, 5.0),
        (True, 2),  # a bool is not a count
        (1, True),
        (5, 10, 1.5),  # confidence above 1
        (5, 10, -1.0),  # confidence below 0
        (5, 10, 0.0),
        (5, 10, 1.0),
        (5, 10, float("nan")),
        (5, 10, 1),  # confidence not a float
        (5, 10, Fraction(19, 20)),
        (6, 5),  # more successes than trials
        (0, 0),
        (1, MAX_TRIALS + 1),  # past the supported range
    ],
)
def test_refuses_bad_arguments(args):
    with pytest.raises(InvalidParams):
        clopper_pearson(*args)


def test_trial_config_refuses_more_than_max_trials():
    kw = dict(learner="improper", epsilon=0, delta=Fraction(1, 10), seed=0,
              distribution=llp_lab.make_distribution([(1, 1)]), target=llp_lab.FiniteSubset((1,)), m=1)
    assert TrialConfig(trials=MAX_TRIALS, **kw).trials == MAX_TRIALS
    with pytest.raises(InvalidParams):
        TrialConfig(trials=MAX_TRIALS + 1, **kw)


def test_import_loads_neither_scipy_nor_numpy():
    src = str(Path(llp_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # the process pool is imported only when run_trials uses one
    code = "import sys, llp_lab; print(sorted({'scipy', 'numpy', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
