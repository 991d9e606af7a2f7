"""Exact proportions, success predicate, achievable-value tables, tasks."""

import bisect
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    ConstantRandom,
    FiniteSubset,
    IntractableExactProportion,
    LLPTask,
    MonotoneConjunction,
    Parity,
    Sample,
    UniformCube,
    achievable_proportions,
    draw_labeled_points,
    draw_sample,
    empirical_proportion,
    enumerate_class,
    evaluate,
    gap_learner,
    llp_success,
    make_distribution,
    proportion_gap,
    task_from_json,
    task_to_json,
    true_proportion,
    uniform_over,
)
from llp_lab.core import COUNT_DRAW_MIN, draw_counts, draw_points, points_from_counts
from llp_lab.sampling import _scored, smallest_gap
from wire_values import tasks

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])


def test_true_proportion_nontrivial_parity_is_half():
    assert true_proportion(Parity((0, 0, 0, 0, 0, 0, 0, 1)), UniformCube(8)) == F(1, 2)
    assert true_proportion(Parity((1,) * 8), UniformCube(8)) == F(1, 2)


def test_true_proportion_trivial_parity_is_zero():
    assert true_proportion(Parity((0,) * 8), UniformCube(8)) == 0


def test_true_proportion_empty_subset_is_zero():
    assert true_proportion(FiniteSubset(()), TWO_ATOM) == 0


def test_true_proportion_sums_weights_over_positives():
    assert true_proportion(FiniteSubset((2,)), TWO_ATOM) == F(7, 10)


def test_true_proportion_constant_random_is_p():
    assert true_proportion(ConstantRandom(F(3, 7)), TWO_ATOM) == F(3, 7)


def test_parity_closed_form_matches_enumeration():
    for n in range(1, 9):
        cube = UniformCube(n)
        for mask in itertools.product((0, 1), repeat=n):
            h = Parity(mask)
            positives = sum(
                evaluate(h, x) for x in itertools.product((0, 1), repeat=n)
            )
            assert true_proportion(h, cube) == F(positives, 2**n)


def test_true_proportion_cube_enumeration_cap():
    with pytest.raises(IntractableExactProportion):
        true_proportion(MonotoneConjunction(21, (1,)), UniformCube(21))
    assert true_proportion(MonotoneConjunction(21, ()), UniformCube(21)) == 1


def test_empirical_proportion_counts_with_multiplicity():
    sample = Sample((5, 9, 5, 12, 9, 12, 12, 9, 12, 12), F(1, 2))
    assert empirical_proportion(FiniteSubset((5, 9)), sample) == F(5, 10)
    assert empirical_proportion(FiniteSubset(()), sample) == 0


def test_empirical_proportion_of_target_equals_p_hat():
    target = FiniteSubset((2,))
    sample = draw_sample(TWO_ATOM, 37, seed=6, target=target)
    assert empirical_proportion(target, sample) == sample.p_hat


def test_llp_success_reflexive():
    h = FiniteSubset((1,))
    assert llp_success(h, h, TWO_ATOM, F(0))


def test_llp_success_trivial_vs_nontrivial_parity():
    cube = UniformCube(6)
    trivial = Parity((0,) * 6)
    nontrivial = Parity((1, 0, 0, 0, 0, 0))
    assert not llp_success(trivial, nontrivial, cube, F(1, 4))
    assert llp_success(trivial, nontrivial, cube, F(1, 2))


def test_llp_success_exact_rational_comparison():
    assert llp_success(FiniteSubset((2,)), FiniteSubset((1,)), TWO_ATOM, F(1, 2))
    assert not llp_success(FiniteSubset((2,)), FiniteSubset((1,)), TWO_ATOM, F(39, 100))


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10**30)


@settings(max_examples=400, deadline=None)
@given(_UNIT, _UNIT, _UNIT)
@example(F(2, 7), F(2, 7), F(0))  # p_h = p_c
@example(F(1, 2), F(1, 5), F(3, 10))  # a residual of exactly epsilon
@example(F(7, 10**30 - 1), F(0), F(7, 10**30 - 1))  # exactly epsilon, at the largest denominators
@example(F(1), F(0), F(99, 100))  # a residual of 1
@example(F(0), F(1), F(1))
def test_scored_matches_the_fraction_form(p_h, p_c, epsilon):
    """`_scored` in integers gives the residual and flag of Fraction subtraction and comparison."""
    residual, success = _scored(p_h, p_c, epsilon)
    want = abs(p_h - p_c)
    assert type(residual) is F and residual == want
    assert success is (want <= epsilon)


def test_draw_labeled_points_labels_match_target():
    target = Parity((1, 1, 0))
    points, labels = draw_labeled_points(UniformCube(3), 64, seed=9, target=target)
    assert len(points) == len(labels) == 64
    assert all(evaluate(target, x) == lab for x, lab in zip(points, labels))


def test_draw_labeled_points_at_count_draw_min_uses_the_count_sampler():
    dist = make_distribution([((0, 1), F(1, 6)), ((1, 0), F(1, 3)), ((1, 1), F(1, 2))])
    target = Parity((1, 0))
    points, labels = draw_labeled_points(dist, COUNT_DRAW_MIN, seed=4, target=target)
    assert points == points_from_counts(draw_counts(dist, COUNT_DRAW_MIN, 4))
    assert labels == tuple(evaluate(target, x) for x in points)


BITS_DIST = make_distribution([((0, 1), F(1, 6)), ((1, 0), F(1, 3)), ((1, 1), F(1, 2))])


@pytest.mark.parametrize(
    "dist, m",
    [(UniformCube(2), 300), (BITS_DIST, 37), (BITS_DIST, COUNT_DRAW_MIN), (BITS_DIST, 0), (UniformCube(2), 0)],
    ids=["cube", "small", "count-draw-min", "explicit-empty", "cube-empty"],
)
@pytest.mark.parametrize("target", [Parity((1, 0)), ConstantRandom(F(1, 3))], ids=["proper", "constant-random"])
@pytest.mark.parametrize("seed", [0, 7])
def test_the_three_draws_agree(dist, m, target, seed):
    # draw_sample, draw_points and draw_labeled_points make one draw, and the
    # labels behind a sample's p_hat are the ones draw_labeled_points returns
    sample = draw_sample(dist, m, seed, target)
    points, labels = draw_labeled_points(dist, m, seed, target)
    assert sample.points == draw_points(dist, m, seed) == points
    assert len(labels) == m and sample.positive_count == sum(labels)
    if isinstance(target, Parity):
        assert labels == tuple(evaluate(target, x) for x in points)
    checked = Sample(points, F(sum(labels), m) if m else F(0))
    assert sample == checked and checked == sample and hash(sample) == hash(checked)


def test_achievable_proportions_two_atom_subsets():
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    table = achievable_proportions(desc, TWO_ATOM)
    assert set(table) == {F(0), F(3, 10), F(7, 10), F(1)}
    assert table[F(7, 10)] == FiniteSubset((2,))


def test_proportion_gap_two_atom_subsets():
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    assert proportion_gap(desc, TWO_ATOM) == F(3, 10)


def test_proportion_gap_uniform_pair():
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    assert proportion_gap(desc, uniform_over([1, 2])) == F(1, 2)


def _smallest_gap_reference(values):
    """`smallest_gap` as Fractions: sort the values and subtract each from the next."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return F(0)
    return min(b - a for a, b in zip(ordered, ordered[1:]))


# lists drawn from a small pool repeat values; ints are rationals too
_GAP_POOLS = st.lists(
    st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.integers(-3, 3),
        st.fractions(min_value=0, max_value=1, max_denominator=2**70),
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(_GAP_POOLS.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40) if pool else st.just([])))
@example([])
@example([F(1, 3)])
@example([F(1, 3), F(1, 3)])
@example([F(-1, 2), F(1, 3), 1])
def test_smallest_gap_matches_the_fraction_form(values):
    gap = smallest_gap(iter(values))
    assert gap == _smallest_gap_reference(values)
    assert type(gap) is F


@given(tasks)
@example(
    LLPTask(
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
        epsilon=F(1, 10),
        delta=F(1, 20),
        sample=draw_sample(TWO_ATOM, 10, seed=4, target=FiniteSubset((2,))),
        distribution=TWO_ATOM,
    )
)
def test_task_construction_and_round_trip(task):
    assert task_from_json(task_to_json(task)) == task


def test_task_rejects_out_of_range_parameters():
    sample = draw_sample(TWO_ATOM, 4, seed=0, target=FiniteSubset(()))
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    with pytest.raises(ValueError):
        LLPTask(desc=desc, epsilon=F(0), delta=F(1, 20), sample=sample)
    with pytest.raises(ValueError):
        LLPTask(desc=desc, epsilon=F(1, 10), delta=F(1), sample=sample)


# ---------------------------------------------------------------------------
# an explicit distribution as an integer-weighted sample, against Fraction masses

# big primes, so that two of them put the lcm of the denominators past 2^64
BIG_DENS = (2**61 - 1, 10**19 + 7, 2**64 + 13)


@st.composite
def _explicit_cases(draw):
    """A class and an explicit distribution over points it may or may not label.

    Bit vectors come with a parity, disjunction or conjunction class;
    naturals with a window or a grounded finite subset, over points that may
    fall outside its domain.  All but the last weight are a / (d * k) with
    0 < a < d, so they sum below 1, and the last is what is left.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        class_id = draw(st.sampled_from(("parity", "monotone_disjunction", "monotone_conjunction")))
        desc = ClassDescriptor(class_id, n)
        values = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=min(2**n, 7), unique=True))
        points = [tuple(v >> (n - 1 - i) & 1 for i in range(n)) for v in values]
    else:
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            desc = ClassDescriptor("window", n, k=draw(st.integers(0, 3)))
        else:
            ground = draw(st.lists(st.integers(0, 2**n + 1), max_size=4, unique=True))
            desc = ClassDescriptor("finite_subset", n, ground_set=tuple(sorted(ground)))
        points = draw(st.lists(st.integers(0, 2**n + 1), min_size=1, max_size=6, unique=True))
    k = len(points)
    weights = []
    for _ in range(k - 1):
        d = draw(st.one_of(st.sampled_from(BIG_DENS), st.integers(2, 12)))
        weights.append(F(min(draw(st.integers(1, 5)), d - 1), d * k))
    weights.append(1 - sum(weights))
    return desc, make_distribution(zip(points, weights))


def _mass(h, dist):
    """The reference true proportion: the Fraction masses of the atoms h labels 1."""
    return sum((w for p, w in dist.atoms if evaluate(h, p)), F(0))


def _reference_draw_counts(dist, m, seed):
    """The reference `draw_counts`: Fraction masses, one division and one subtraction per atom."""
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining = m
    rem_weight = F(1)
    out = []
    for i, (point, w) in enumerate(dist.atoms):
        if i == len(dist.atoms) - 1:
            c = remaining
        else:
            c = int(rng.binomial(remaining, float(w / rem_weight))) if remaining else 0
        if c:
            out.append((point, c))
        remaining -= c
        rem_weight -= w
    return tuple(out)


def _reference_draw_points(dist, m, seed):
    """The reference small explicit draw: a CDF summed from `float` of each Fraction mass."""
    cum = list(itertools.accumulate(float(w) for _, w in dist.atoms))
    cum[-1] = math.inf
    rand = random.Random(seed).random
    return tuple(dist.atoms[bisect.bisect_right(cum, rand())][0] for _ in range(m))


@settings(max_examples=300, deadline=None)
@given(_explicit_cases(), st.lists(st.fractions(0, 1, max_denominator=60), max_size=3),
       st.sampled_from((0, 1, 2, 17, COUNT_DRAW_MIN)) | st.integers(0, 5000), st.integers(0, 2**64 - 1))
@example(
    (ClassDescriptor("window", 2, k=1), make_distribution([(3, 1)])), [F(1, 2)], 7, 0,
)
@example(
    (
        ClassDescriptor("parity", 2),
        make_distribution([((0, 1), F(1, 2**61 - 1)), ((1, 0), F(1, 10**19 + 7)),
                           ((1, 1), 1 - F(1, 2**61 - 1) - F(1, 10**19 + 7))]),
    ),
    [F(1, 3)], 5000, 2**63,
)
def test_weighted_sample_paths_match_the_fraction_masses(case, p_hats, m, seed):
    desc, dist = case
    members = list(enumerate_class(desc))
    for h in members:
        assert true_proportion(h, dist) == _mass(h, dist)
    reference = {}
    for h in members:
        reference.setdefault(_mass(h, dist), h)
    values = achievable_proportions(desc, dist)
    assert list(values.items()) == list(reference.items())
    ordered = sorted(values)
    midpoints = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    for p_hat in p_hats + ordered + midpoints:
        want = min(values, key=lambda v: (abs(v - p_hat), v))
        got = gap_learner(desc, dist, p_hat, values=values)
        assert (got.hypothesis, got.achieved, got.residual) == (values[want], want, abs(want - p_hat))
        assert got.work == {"candidates": len(values)}
    assert draw_counts(dist, m, seed) == _reference_draw_counts(dist, m, seed)
    assert draw_points(dist, m % 40, seed) == _reference_draw_points(dist, m % 40, seed)
    assert "points" not in dist.weighted.__dict__
    assert dist.weighted.m == math.lcm(*(w.denominator for _, w in dist.atoms))
