"""Exact proportions, success predicate, achievable-value tables, tasks."""

import itertools
from fractions import Fraction as F

import pytest

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
    evaluate,
    llp_success,
    make_distribution,
    proportion_gap,
    task_from_json,
    task_to_json,
    true_proportion,
    uniform_over,
)
from llp_lab.core import COUNT_DRAW_MIN, draw_counts, points_from_counts

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


def test_task_construction_and_round_trip():
    task = LLPTask(
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
        epsilon=F(1, 10),
        delta=F(1, 20),
        sample=draw_sample(TWO_ATOM, 10, seed=4, target=FiniteSubset((2,))),
        distribution=TWO_ATOM,
    )
    assert task_from_json(task_to_json(task)) == task


def test_task_rejects_out_of_range_parameters():
    sample = draw_sample(TWO_ATOM, 4, seed=0, target=FiniteSubset(()))
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    with pytest.raises(ValueError):
        LLPTask(desc=desc, epsilon=F(0), delta=F(1, 20), sample=sample)
    with pytest.raises(ValueError):
        LLPTask(desc=desc, epsilon=F(1, 10), delta=F(1), sample=sample)
