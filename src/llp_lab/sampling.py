"""Labeled drawing, exact proportions, and the label-proportion success test.

The training signal in this setting is a sample plus the exact fraction of
its points the hidden target labels 1; success of a learner means the
returned hypothesis has true positive proportion within epsilon of the
target's.  Everything here keeps those proportions as exact Fractions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Collection, Iterable

from .core import (
    DISTRIBUTION,
    RATIONAL,
    REQUIRED,
    ExplicitDistribution,
    FiniteDistribution,
    Point,
    Sample,
    UniformCube,
    _coin_flips,
    _draw,
    _drawn,
    _sample_packed,
    _unpack,
    derive_seed,
    from_fields,
    parse_rational,
    sample_from_json,
    sample_to_json,
    record,
    to_fields,
)
from .errors import IntractableExactProportion, InvalidParams
from .hypotheses import (
    DEFAULT_BUDGET,
    DESCRIPTOR,
    ClassDescriptor,
    Hypothesis,
    _closed_proportion,
    _coin_bias,
    _count_table,
    enumerate_class,
    labeler,
    positive_weight,
)

__all__ = [
    "draw_labeled_points",
    "draw_sample",
    "true_proportion",
    "empirical_proportion",
    "llp_success",
    "achievable_proportions",
    "proportion_gap",
    "smallest_gap",
    "LLPTask",
    "task_to_json",
    "task_from_json",
    "CUBE_ENUM_MAX",
]

# Largest cube dimension for which exact proportions are computed by
# enumeration when no closed form applies.
CUBE_ENUM_MAX = 20


def _support_domain(dist: FiniteDistribution) -> tuple[str, int | None] | None:
    if isinstance(dist, UniformCube):
        return ("bits", dist.n)
    return dist.weighted.domain


def true_proportion(h: Hypothesis, dist: FiniteDistribution) -> Fraction:
    """Exact mass of the positively labeled region.

    Under an explicit distribution it is the empirical proportion on its
    `weighted` sample (p for the randomized baseline).  On a uniform cube
    it is the kind's closed form where there is one (p for the baseline, 0
    or 1/2 for parities, the constant of an empty disjunction or
    conjunction); other hypotheses are enumerated, which is refused above
    CUBE_ENUM_MAX dimensions.
    """
    if isinstance(dist, ExplicitDistribution):
        return empirical_proportion(h, dist.weighted)
    closed = _closed_proportion(h, dist.n)
    if closed is not None:
        return closed
    if dist.n > CUBE_ENUM_MAX:
        raise IntractableExactProportion(
            f"no closed form for {type(h).__name__} on a {dist.n}-cube"
        )
    # the packed cube vectors are 0 .. 2^n - 1
    label = labeler(h, ("bits", dist.n))
    hits = sum(1 for x in range(2**dist.n) if label(x))
    return Fraction(hits, 2**dist.n)


def empirical_proportion(h: Hypothesis, sample: Sample) -> Fraction:
    """Positively labeled fraction of the sample, with multiplicity.

    For the randomized baseline this is its parameter p (the proportion it
    realizes in expectation regardless of the points, `_coin_bias`);
    deterministic hypotheses are counted exactly.  An empty sample has
    proportion 0.
    """
    bias = _coin_bias(h)
    if bias is not None:
        return bias
    if sample.m == 0:
        return Fraction(0)
    return Fraction(positive_weight(h, sample.domain, sample.packed_counts), sample.m)


def llp_success(h: Hypothesis, target: Hypothesis, dist: FiniteDistribution, epsilon) -> bool:
    """True iff the true proportions of h and the target differ by <= epsilon (`_scored`)."""
    eps = parse_rational(epsilon)
    return _scored(true_proportion(h, dist), true_proportion(target, dist), eps)[1]


def _scored(p_h: Fraction, p_c: Fraction, epsilon: Fraction) -> tuple[Fraction, bool]:
    """The residual |p_h - p_c| and whether it is at most epsilon: the one success test.

    `llp_success` and every trial of `trials.run_trials` score by it.  In
    integers: with p_h = a/b, p_c = c/d and epsilon = e/f, the residual is
    |ad - cb| / bd, one Fraction built, and it is at most epsilon iff
    |ad - cb| * f <= e * bd.  The tests keep the Fraction form, subtracting
    and comparing, as the reference.
    """
    b, d = p_h.denominator, p_c.denominator
    num, den = abs(p_h.numerator * d - p_c.numerator * b), b * d
    return Fraction(num, den), num * epsilon.denominator <= epsilon.numerator * den


def _random_labels(bias: Fraction, m: int, seed: int) -> bytes:
    """The labels of a target flipping a coin of this bias for each of the m draws under `seed`, as 0/1 bytes."""
    return _coin_flips(bias, m, random.Random(derive_seed(seed, "labels")))


def draw_labeled_points(
    dist: FiniteDistribution, m: int, seed: int, target: Hypothesis
) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    """m seeded i.i.d. draws with their target labels: `_draw`, then the labels.

    The points are the draw's packed points (`Sample._order()`) unpacked:
    in draw order, or grouped by atom for a binomial draw.  Proper targets
    are labeled once per distinct point, by the labeling kernel.  A
    constant-random target (`_coin_bias`) flips one coin per example
    (`_random_labels`), the `random()` calls of `evaluate` from a seed
    derived from `seed`, read in bulk by `_coin_flips`.
    """
    sample = _draw(dist, m, seed)
    points = _unpack(sample.domain, sample._order())
    bias = _coin_bias(target)
    if bias is not None:
        return points, tuple(_random_labels(bias, m, seed))
    if not points:
        return points, ()
    label = labeler(target, sample.domain)
    labels = {x: int(label(x)) for x, _ in sample.packed_counts}
    return points, tuple(map(labels.__getitem__, sample._order()))


def draw_sample(dist: FiniteDistribution, m: int, seed: int, target: Hypothesis) -> Sample:
    """Sample of m draws carrying the exact positive fraction under `target`.

    Fully reproducible: identical (dist, m, seed, target) gives an identical
    Sample object, field for field.  The draws are `_draw`'s, the points
    of `draw_labeled_points`, and one Sample is built from them; no drawn
    point is re-checked (an explicit distribution's atoms are checked once, by
    `ExplicitDistribution.weighted`).  A proper target's positives are
    weighed by the labeling kernel, each distinct point labeled once; a
    constant-random target's are the coins `draw_labeled_points` flips for
    it (`_random_labels`).
    """
    domain, counts, draws, atoms = _drawn(dist, m, seed)
    bias = _coin_bias(target)
    if bias is None:
        positives = positive_weight(target, domain, counts)
    else:
        positives = _random_labels(bias, m, seed).count(1)
    return _sample_packed(domain, counts, m, Fraction(positives, m or 1), draws, atoms)


def achievable_proportions(
    desc: ClassDescriptor, dist: FiniteDistribution, budget: int = DEFAULT_BUDGET
) -> dict[Fraction, Hypothesis]:
    """Every true-proportion value the class can realize under `dist`.

    Maps each value to its encoding-minimal witness, the values in order
    of their witnesses.  Under an explicit distribution they are the count
    table (`_count_table`) of its sample of size D (`weighted`), count c
    giving c / D.  That table comes from one superset-sum transform over
    the cube cells for a disjunction or conjunction class with at most 8
    cells per atom, and from the class's distinct labelings, each weighed,
    otherwise, parities included; both give the same values and
    witnesses.  On a uniform cube the class is enumerated.
    """
    if isinstance(dist, ExplicitDistribution):
        weighted = dist.weighted
        return {Fraction(c, weighted.m): h for c, h in _count_table(desc, weighted, budget).items()}
    out: dict[Fraction, Hypothesis] = {}
    for h in enumerate_class(desc, budget):
        out.setdefault(true_proportion(h, dist), h)
    return out


def proportion_gap(desc: ClassDescriptor, dist: FiniteDistribution, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Smallest distance between distinct achievable proportion values.

    Zero when the class realizes fewer than two values (no separation to
    exploit).
    """
    return smallest_gap(achievable_proportions(desc, dist, budget))


def _ladder(values: Collection[Fraction]) -> tuple[int, list[int]]:
    """(D, the values as counts out of D, ascending), D the lcm of their denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, sorted(v.numerator * (d // v.denominator) for v in values)


def _ladder_gap(d: int, counts: list[int]) -> Fraction:
    """The least difference of a `_ladder`'s sorted counts over its D, zero for fewer than two."""
    return Fraction(min(map(int.__sub__, counts[1:], counts), default=0), d)


def smallest_gap(values: Iterable[Fraction]) -> Fraction:
    """Smallest distance between the values, zero for fewer than two or a repeated one.

    In integers: on the lcm D of their denominators the values are whole
    counts out of D (`_ladder`), so the gap is the least difference of the
    sorted counts over D (`_ladder_gap`), and one Fraction is built.  The
    tests keep the Fraction form, sorting and subtracting the values, as
    the reference.
    """
    return _ladder_gap(*_ladder(list(values)))


@record
class LLPTask:
    """One learning task: a class, accuracy targets, and the training input.

    Epsilon lies in (0, 1): it is the accuracy a learner is asked for, and
    a requested accuracy of 0 would leave no room for sampling error.
    `TrialConfig` differs on purpose and accepts epsilon = 0, which scores
    a trial as a success only when the proportions match exactly.
    """

    desc: ClassDescriptor | None
    epsilon: Fraction
    delta: Fraction
    sample: Sample
    distribution: FiniteDistribution | None = None
    eta_prime: Fraction | None = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise InvalidParams(f"epsilon {self.epsilon} outside (0, 1)")
        if not 0 < self.delta < 1:
            raise InvalidParams(f"delta {self.delta} outside (0, 1)")


_TASK = (
    ("epsilon", "epsilon", RATIONAL, REQUIRED),
    ("delta", "delta", RATIONAL, REQUIRED),
    ("sample", "sample", (sample_to_json, sample_from_json), REQUIRED),
    ("class", "desc", DESCRIPTOR, None),
    ("distribution", "distribution", DISTRIBUTION, None),
    ("eta_prime", "eta_prime", RATIONAL, None),
)


def task_to_json(task: LLPTask) -> dict:
    return to_fields(_TASK, task)


def task_from_json(obj: dict) -> LLPTask:
    return LLPTask(**from_fields(_TASK, obj, "task"))
