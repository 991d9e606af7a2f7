"""Learner behavior: worked examples, tie-breaks, and brute-force agreement."""

import itertools
import random
from fractions import Fraction as F

import pytest

from llp_lab import (
    ClassDescriptor,
    ConstantRandom,
    DegenerateSample,
    DomainMismatch,
    FiniteSubset,
    InvalidNoiseBound,
    MonotoneDisjunction,
    Parity,
    Sample,
    UnreachableCount,
    Window,
    empirical_proportion,
    enumerate_class,
    erm_proportion_matcher,
    evaluate,
    gap_learner,
    improper_learner,
    make_distribution,
    noisy_parity_uniform_learner,
    positive_count,
    ranking_key,
    subset_sum_learner,
    true_proportion,
    halfspace_sweep_learner,
    window_learner,
)

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])
SUBSETS_12 = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))


def test_learner_preconditions_raise_typed_errors():
    bits = Sample(((0, 1), (1, 1)), F(1, 2))
    with pytest.raises(DomainMismatch):
        subset_sum_learner(bits)
    with pytest.raises(DomainMismatch):
        window_learner(bits, 2)
    with pytest.raises(DomainMismatch):
        halfspace_sweep_learner(Sample((1, 2), F(1, 2)), seed=0)
    with pytest.raises(DegenerateSample):
        halfspace_sweep_learner(Sample((), F(0)), seed=0)


def test_improper_learner_returns_revealed_proportion():
    for k, m in [(0, 5), (5, 5), (3, 7)]:
        sample = Sample(tuple(range(1, m + 1)), F(k, m))
        out = improper_learner(sample)
        assert out.hypothesis == ConstantRandom(F(k, m))
        assert out.improper
        assert out.residual == 0
        assert true_proportion(out.hypothesis, TWO_ATOM) == F(k, m)


def test_gap_learner_picks_nearest_achievable_value():
    out = gap_learner(SUBSETS_12, TWO_ATOM, F(6, 10))
    assert out.hypothesis == FiniteSubset((2,))
    assert out.achieved == F(7, 10)
    assert out.residual == F(1, 10)


def test_gap_learner_exact_match():
    out = gap_learner(SUBSETS_12, TWO_ATOM, F(0))
    assert out.hypothesis == FiniteSubset(())
    assert out.residual == 0


def test_gap_learner_tie_prefers_smaller_value():
    out = gap_learner(SUBSETS_12, TWO_ATOM, F(1, 2))
    assert out.achieved == F(3, 10)
    assert out.hypothesis == FiniteSubset((1,))
    assert out.residual == F(1, 5)


def test_erm_realizable_task_has_zero_residual():
    rng = random.Random(7)
    desc = ClassDescriptor("monotone_conjunction", 3)
    for _ in range(20):
        h = rng.choice(list(enumerate_class(desc)))
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(8))
        k = sum(evaluate(h, x) for x in pts)
        out = erm_proportion_matcher(desc, Sample(pts, F(k, 8)))
        assert out.residual == 0


def test_erm_uniform_parity_sample_hits_half():
    pts = ((0, 0), (0, 1), (1, 0), (1, 1))
    out = erm_proportion_matcher(ClassDescriptor("parity", 2), Sample(pts, F(1, 2)))
    assert out.residual == 0
    assert out.hypothesis != Parity((0, 0))


def test_erm_unreachable_count_residual():
    desc = ClassDescriptor("monotone_disjunction", 2)
    # repeated all-zero point: every disjunction labels 0 of 2
    out = erm_proportion_matcher(desc, Sample(((0, 0), (0, 0)), F(1, 2)))
    assert out.residual == F(1, 2)
    assert out.hypothesis == MonotoneDisjunction(2, ())
    # repeated point with a positive bit: counts 0 or 2 achievable, never 1
    out2 = erm_proportion_matcher(desc, Sample(((0, 1), (0, 1)), F(1, 2)))
    assert out2.residual == F(1, 2)
    assert out2.hypothesis == MonotoneDisjunction(2, ())


def test_erm_achieved_matches_reevaluation():
    rng = random.Random(11)
    for class_id in ("parity", "monotone_disjunction", "monotone_conjunction"):
        desc = ClassDescriptor(class_id, 3)
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(9))
        sample = Sample(pts, F(4, 9))
        out = erm_proportion_matcher(desc, sample)
        assert out.achieved == empirical_proportion(out.hypothesis, sample)
        assert out.residual == abs(out.achieved - sample.p_hat)


def test_subset_sum_worked_example():
    sample = Sample((5, 5, 9, 9, 9, 12, 12, 12, 12, 12), F(1, 2))
    out = subset_sum_learner(sample)
    assert out.hypothesis == FiniteSubset((5, 9))
    assert out.residual == 0
    assert out.work["dp_cells"] <= (sample.m + 1) * 3


def test_subset_sum_full_set_for_p_hat_one():
    sample = Sample((3, 3, 8, 17), F(1))
    out = subset_sum_learner(sample)
    assert out.hypothesis == FiniteSubset((3, 8, 17))
    assert out.residual == 0


def test_subset_sum_zero_target():
    out = subset_sum_learner(Sample((4, 4, 6, 6), F(0)))
    assert out.hypothesis == FiniteSubset(())
    assert out.residual == 0


def test_subset_sum_tie_prefers_smaller_sum():
    out = subset_sum_learner(Sample((4, 4, 6, 6), F(1, 4)))
    assert out.hypothesis == FiniteSubset(())
    assert out.achieved == 0
    assert out.residual == F(1, 4)


def test_window_k0_forces_singletons():
    out = window_learner(Sample((3, 9, 20), F(1, 3)), 0)
    assert out.hypothesis == Window(0, (3,))
    assert out.residual == 0


def test_window_span_excludes_wide_pairs():
    out = window_learner(Sample((3, 5, 9), F(2, 3)), 2)
    assert out.hypothesis == Window(2, (3, 5))
    assert out.residual == 0


def test_window_empty_for_zero_target():
    out = window_learner(Sample((3, 5, 9), F(0)), 2)
    assert out.hypothesis == Window(2, ())
    assert out.residual == 0


def test_window_candidate_budget():
    rng = random.Random(13)
    for _ in range(30):
        k = rng.randint(0, 6)
        m = rng.randint(1, 30)
        pts = tuple(rng.randint(1, 40) for _ in range(m))
        out = window_learner(Sample(pts, F(rng.randint(0, m), m)), k)
        assert out.work["candidates"] <= m * 2**k + 1


def test_window_matches_brute_enumeration():
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randint(0, 5)
        m = rng.randint(1, 14)
        pts = tuple(rng.randint(1, 12) for _ in range(m))
        sample = Sample(pts, F(rng.randint(0, m), m))
        out = window_learner(sample, k)
        uniq = sorted(set(pts))
        best = None
        for r in range(len(uniq) + 1):
            for combo in itertools.combinations(uniq, r):
                if combo and combo[-1] - combo[0] > k:
                    continue
                h = Window(k, combo)
                key = ranking_key(
                    abs(F(positive_count(h, sample), m) - sample.p_hat),
                    positive_count(h, sample),
                    h,
                )
                if best is None or key < best[0]:
                    best = (key, h)
        assert out.residual == best[0][0]
        assert out.hypothesis == best[1]


def test_halfspace_all_positive_extreme():
    sample = Sample(((0, 0), (1, 0), (0, 1)), F(1))
    out = halfspace_sweep_learner(sample, seed=5)
    assert out.residual == 0
    assert all(evaluate(out.hypothesis, x) == 1 for x in sample.points)


def test_halfspace_splits_the_square():
    sample = Sample(((0, 0), (0, 1), (1, 0), (1, 1)), F(1, 2))
    out = halfspace_sweep_learner(sample, seed=5)
    assert out.residual == 0
    assert sum(evaluate(out.hypothesis, x) for x in sample.points) == 2


def test_halfspace_duplicate_block_unreachable():
    sample = Sample(((1, 0),) * 4, F(1, 4))
    with pytest.raises(UnreachableCount):
        halfspace_sweep_learner(sample, seed=5)


def test_halfspace_retry_counter_bounded():
    sample = Sample(((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)), F(1, 4))
    out = halfspace_sweep_learner(sample, seed=2)
    assert 1 <= out.work["draws"] <= 3


def test_noisy_parity_threshold_below():
    out = noisy_parity_uniform_learner(F(12, 100), F(1, 5), 4)
    assert out.hypothesis == Parity((0, 0, 0, 0))


def test_noisy_parity_threshold_at_half():
    for eta_prime in (F(0), F(1, 5), F(49, 100)):
        out = noisy_parity_uniform_learner(F(1, 2), eta_prime, 3)
        assert out.hypothesis == Parity((1, 0, 0))


def test_noisy_parity_noiseless_trivial():
    out = noisy_parity_uniform_learner(F(0), F(0), 5)
    assert out.hypothesis == Parity((0,) * 5)


def test_noisy_parity_rejects_bad_bound():
    with pytest.raises(InvalidNoiseBound):
        noisy_parity_uniform_learner(F(1, 4), F(1, 2), 4)
    with pytest.raises(InvalidNoiseBound):
        noisy_parity_uniform_learner(F(1, 4), F(-1, 10), 4)


def test_learners_are_deterministic():
    sample = Sample((5, 5, 9, 9, 9, 12, 12, 12, 12, 12), F(3, 10))
    assert subset_sum_learner(sample) == subset_sum_learner(sample)
    bits = Sample(((0, 1), (1, 0), (1, 1)), F(1, 3))
    desc = ClassDescriptor("parity", 2)
    assert erm_proportion_matcher(desc, bits) == erm_proportion_matcher(desc, bits)
    assert halfspace_sweep_learner(bits, seed=9) == halfspace_sweep_learner(bits, seed=9)
