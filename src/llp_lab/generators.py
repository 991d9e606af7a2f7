"""Seeded random instances for the decision problems and learning tasks.

Exact-cover instances plant a cover with probability 1/2 so generated suites
exercise both YES and NO branches; everything is a pure function of the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    ExplicitDistribution,
    FiniteDistribution,
    Point,
    _unpack_bits,
    derive_seed,
    make_distribution,
    parse_rational,
)
from .errors import InvalidParams
from .hypotheses import _CLASSES, ClassDescriptor, Hypothesis, class_domain, random_hypothesis
from .reductions import ConsistencyInstance, EPSCInstance, X3CInstance
from .sampling import LLPTask, draw_sample

__all__ = [
    "gen_x3c",
    "gen_epsc",
    "gen_consistency",
    "gen_distribution",
    "gen_task",
]


def gen_x3c(universe_size: int, n_triples: int, seed: int) -> X3CInstance:
    """Random 3-cover instance; half the time an exact cover is planted."""
    if universe_size % 3 != 0 or universe_size < 3:
        raise InvalidParams(f"universe size must be a positive multiple of 3, got {universe_size}")
    if n_triples < 1:
        raise InvalidParams(f"need at least one triple, got {n_triples}")
    rng = random.Random(derive_seed(seed, "x3c", universe_size, n_triples))
    universe = tuple(range(1, universe_size + 1))
    t = universe_size // 3
    triples: list[frozenset[int]] = []
    if n_triples >= t and rng.random() < 0.5:
        order = rng.sample(universe, universe_size)
        triples.extend(frozenset(order[3 * i : 3 * i + 3]) for i in range(t))
    while len(triples) < n_triples:
        triples.append(frozenset(rng.sample(universe, 3)))
    rng.shuffle(triples)
    return X3CInstance(universe, tuple(triples))


def gen_epsc(universe_size: int, n_subsets: int, seed: int) -> EPSCInstance:
    """Random subsets (each element kept with probability 1/2), random k."""
    if universe_size < 1 or n_subsets < 1:
        raise InvalidParams("need a nonempty universe and at least one subset")
    rng = random.Random(derive_seed(seed, "epsc", universe_size, n_subsets))
    universe = tuple(range(1, universe_size + 1))
    subsets = tuple(
        frozenset(e for e in universe if rng.random() < 0.5) for _ in range(n_subsets)
    )
    return EPSCInstance(universe, subsets, rng.randint(0, universe_size))


def gen_consistency(
    desc: ClassDescriptor,
    n_points: int,
    seed: int,
    max_mult: int = 3,
    nat_range: int = 30,
) -> ConsistencyInstance:
    """Random distinct points with small multiplicities and a random k."""
    if n_points < 1 or max_mult < 1:
        raise InvalidParams("need n_points >= 1 and max_mult >= 1")
    rng = random.Random(derive_seed(seed, "consistency", n_points, max_mult))
    points: tuple[Point, ...]
    if class_domain(desc) == "bits":
        if n_points > 2**desc.n:
            raise InvalidParams(f"{n_points} distinct points do not fit a {desc.n}-cube")
        codes = rng.sample(range(2**desc.n), n_points)
        points = tuple(sorted(_unpack_bits(c, desc.n) for c in codes))
    else:
        if n_points > nat_range:
            raise InvalidParams(f"{n_points} distinct naturals need a wider range")
        points = tuple(sorted(rng.sample(range(1, nat_range + 1), n_points)))
    if "ground_set" in _CLASSES[desc.class_id].options and desc.ground_set is None:
        # enumeration needs a finite universe; the observed points are the
        # only ones a subset hypothesis can usefully contain
        desc = ClassDescriptor(desc.class_id, desc.n, desc.restriction, desc.k, points)  # type: ignore[arg-type]
    mults = tuple(rng.randint(1, max_mult) for _ in points)
    k = rng.randint(0, sum(mults))
    return ConsistencyInstance(desc, points, mults, k)


def gen_distribution(desc: ClassDescriptor, support: int, seed: int, nat_range: int = 30) -> ExplicitDistribution:
    """Random explicit distribution over the class's point domain.

    Weights are uniform random integers normalized exactly, so they are
    honest Fractions summing to one.
    """
    if support < 1:
        raise InvalidParams(f"support must be >= 1, got {support}")
    rng = random.Random(derive_seed(seed, "distribution", support))
    if class_domain(desc) == "bits":
        if support > 2**desc.n:
            raise InvalidParams(f"{support} distinct points do not fit a {desc.n}-cube")
        codes = rng.sample(range(2**desc.n), support)
        points: list[Point] = [_unpack_bits(c, desc.n) for c in codes]
    else:
        if support > nat_range:
            raise InvalidParams(f"{support} distinct naturals need a wider range")
        points = list(rng.sample(range(1, nat_range + 1), support))
    raw = [rng.randint(1, 100) for _ in points]
    total = sum(raw)
    return make_distribution(
        (p, Fraction(w, total)) for p, w in zip(points, raw)
    )


def gen_task(
    desc: ClassDescriptor,
    dist: FiniteDistribution,
    m: int,
    epsilon,
    delta,
    seed: int,
) -> tuple[LLPTask, Hypothesis]:
    """A random target from the class plus a drawn task for it.

    Returns the target alongside the task so harnesses can score the result;
    the task itself carries only what a learner is entitled to see.
    """
    rng = random.Random(derive_seed(seed, "task-target"))
    target = random_hypothesis(desc, rng)
    sample = draw_sample(dist, m, derive_seed(seed, "task-sample"), target)
    task = LLPTask(desc, parse_rational(epsilon), parse_rational(delta), sample, dist)
    return task, target
