"""Labeled drawing, exact proportions, and the label-proportion success test.

The training signal in this setting is a sample plus the exact fraction of
its points the hidden target labels 1; success of a learner means the
returned hypothesis has true positive proportion within epsilon of the
target's.  Everything here keeps those proportions as exact Fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    COUNT_DRAW_MIN,
    ExplicitDistribution,
    FiniteDistribution,
    Point,
    Sample,
    UniformCube,
    _pack,
    _sample_trusted,
    derive_seed,
    distribution_from_json,
    distribution_to_json,
    draw_counts,
    parse_rational,
    points_from_counts,
    rational_to_json,
    sample_from_json,
    sample_to_json,
)
from .errors import IntractableExactProportion
from .hypotheses import (
    ClassDescriptor,
    ConstantRandom,
    Hypothesis,
    MonotoneConjunction,
    MonotoneDisjunction,
    Parity,
    class_descriptor_from_json,
    class_descriptor_to_json,
    enumerate_class,
    evaluate,
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
    return dist.packed[0]


def true_proportion(h: Hypothesis, dist: FiniteDistribution) -> Fraction:
    """Exact mass of the positively labeled region.

    The randomized baseline has proportion p under any distribution.  On a
    uniform cube, parities have a closed form (0 for the trivial mask, 1/2
    otherwise); other hypotheses are enumerated, which is refused above
    CUBE_ENUM_MAX dimensions.
    """
    if isinstance(h, ConstantRandom):
        return h.p
    if isinstance(dist, ExplicitDistribution):
        return Fraction(positive_weight(h, *dist.packed))
    label = labeler(h, ("bits", dist.n))
    if isinstance(h, Parity):
        return Fraction(0) if h.trivial else Fraction(1, 2)
    if isinstance(h, MonotoneDisjunction) and not h.vars:
        return Fraction(0)
    if isinstance(h, MonotoneConjunction) and not h.vars:
        return Fraction(1)
    if dist.n > CUBE_ENUM_MAX:
        raise IntractableExactProportion(
            f"no closed form for {type(h).__name__} on a {dist.n}-cube"
        )
    # the packed cube vectors are 0 .. 2^n - 1
    hits = sum(1 for x in range(2**dist.n) if label(x))
    return Fraction(hits, 2**dist.n)


def empirical_proportion(h: Hypothesis, sample: Sample) -> Fraction:
    """Positively labeled fraction of the sample, with multiplicity.

    For the randomized baseline this is its parameter p (the proportion it
    realizes in expectation regardless of the points); deterministic
    hypotheses are counted exactly.  An empty sample has proportion 0.
    """
    if isinstance(h, ConstantRandom):
        return h.p
    if sample.m == 0:
        return Fraction(0)
    return Fraction(positive_weight(h, sample.domain, sample.packed_counts), sample.m)


def llp_success(h: Hypothesis, target: Hypothesis, dist: FiniteDistribution, epsilon) -> bool:
    """True iff the true proportions of h and the target differ by <= epsilon."""
    eps = parse_rational(epsilon)
    return abs(true_proportion(h, dist) - true_proportion(target, dist)) <= eps


def draw_labeled_points(
    dist: FiniteDistribution, m: int, seed: int, target: Hypothesis
) -> tuple[tuple[Point, ...], tuple[int, ...]]:
    """m seeded i.i.d. draws with their target labels.

    Proper targets are labeled once per unique point, by the labeling
    kernel; a constant-random target flips one coin per example from a seed
    derived from `seed`.
    """
    if isinstance(dist, ExplicitDistribution) and m >= COUNT_DRAW_MIN and not isinstance(target, ConstantRandom):
        counts = draw_counts(dist, m, seed)
        label = labeler(target, dist.packed[0])
        points: list[Point] = []
        labels: list[int] = []
        for point, c in counts:
            points.extend([point] * c)
            labels.extend([int(label(_pack(point)))] * c)
        return tuple(points), tuple(labels)
    from .core import draw_points  # local import keeps module surface tidy

    points_t = draw_points(dist, m, seed)
    if isinstance(target, ConstantRandom):
        rng = random.Random(derive_seed(seed, "labels"))
        return points_t, tuple(evaluate(target, p, rng) for p in points_t)
    if not points_t:
        return points_t, ()
    label = labeler(target, _support_domain(dist))
    memo: dict[Point, int] = {}
    labels_l = []
    for p in points_t:
        lab = memo.get(p)
        if lab is None:
            lab = memo[p] = int(label(_pack(p)))
        labels_l.append(lab)
    return points_t, tuple(labels_l)


def draw_sample(dist: FiniteDistribution, m: int, seed: int, target: Hypothesis) -> Sample:
    """Sample of m draws carrying the exact positive fraction under `target`.

    Fully reproducible: identical (dist, m, seed, target) gives an identical
    Sample object, field for field.
    """
    if isinstance(dist, ExplicitDistribution) and m >= COUNT_DRAW_MIN and not isinstance(target, ConstantRandom):
        counts = draw_counts(dist, m, seed)
        positives = positive_weight(target, dist.packed[0], ((_pack(p), c) for p, c in counts))
        return _sample_trusted(points_from_counts(counts), Fraction(positives, m), counts)
    points, labels = draw_labeled_points(dist, m, seed, target)
    return Sample(points, Fraction(sum(labels), m) if m else Fraction(0))


def achievable_proportions(
    desc: ClassDescriptor, dist: FiniteDistribution, budget: int = 1 << 20
) -> dict[Fraction, Hypothesis]:
    """Every true-proportion value the class can realize under `dist`.

    Maps each value to its encoding-minimal witness; enumeration order makes
    the first witness seen the minimal one.
    """
    out: dict[Fraction, Hypothesis] = {}
    for h in enumerate_class(desc, budget):
        out.setdefault(true_proportion(h, dist), h)
    return out


def proportion_gap(desc: ClassDescriptor, dist: FiniteDistribution, budget: int = 1 << 20) -> Fraction:
    """Smallest distance between distinct achievable proportion values.

    Zero when the class realizes fewer than two values (no separation to
    exploit).
    """
    return smallest_gap(achievable_proportions(desc, dist, budget))


def smallest_gap(values: Iterable[Fraction]) -> Fraction:
    """Smallest distance between distinct values, zero for fewer than two."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return Fraction(0)
    return min(b - a for a, b in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class LLPTask:
    """One learning task: a class, accuracy targets, and the training input."""

    desc: ClassDescriptor | None
    epsilon: Fraction
    delta: Fraction
    sample: Sample
    distribution: FiniteDistribution | None = None
    eta_prime: Fraction | None = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon {self.epsilon} outside (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta {self.delta} outside (0, 1)")


def task_to_json(task: LLPTask) -> dict:
    out: dict = {
        "epsilon": rational_to_json(task.epsilon),
        "delta": rational_to_json(task.delta),
        "sample": sample_to_json(task.sample),
    }
    if task.desc is not None:
        out["class"] = class_descriptor_to_json(task.desc)
    if task.distribution is not None:
        out["distribution"] = distribution_to_json(task.distribution)
    if task.eta_prime is not None:
        out["eta_prime"] = rational_to_json(task.eta_prime)
    return out


def task_from_json(obj: dict) -> LLPTask:
    return LLPTask(
        desc=class_descriptor_from_json(obj["class"]) if "class" in obj else None,
        epsilon=parse_rational(obj["epsilon"]),
        delta=parse_rational(obj["delta"]),
        sample=sample_from_json(obj["sample"]),
        distribution=distribution_from_json(obj["distribution"]) if "distribution" in obj else None,
        eta_prime=parse_rational(obj["eta_prime"]) if "eta_prime" in obj else None,
    )
