"""Learner behavior: worked examples, tie-breaks, and brute-force agreement."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from llp_lab import (
    ClassDescriptor,
    CollisionPersistent,
    ConstantRandom,
    DegenerateSample,
    DomainMismatch,
    FiniteSubset,
    Halfspace,
    InvalidNoiseBound,
    MonotoneConjunction,
    MonotoneDisjunction,
    Parity,
    Sample,
    TrialConfig,
    UniformCube,
    UnreachableCount,
    Window,
    brute_subset_sum,
    derive_seed,
    empirical_proportion,
    encode,
    enumerate_class,
    erm_proportion_matcher,
    evaluate,
    gap_learner,
    improper_learner,
    make_distribution,
    noisy_parity_uniform_learner,
    positive_count,
    ranking_key,
    run_trials,
    subset_sum_learner,
    true_proportion,
    halfspace_sweep_learner,
    window_learner,
)
from llp_lab import learners
from llp_lab.learners import _best_ranked, _suffix_reach, _window_candidates

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


def _set_reach(mults, cap):
    """Reference DP over sets: suffix reach sets, and the cells it extends."""
    reach = [set() for _ in range(len(mults) + 1)]
    reach[-1] = {0}
    cells = 0
    for i in range(len(mults) - 1, -1, -1):
        a = mults[i]
        reach[i] = reach[i + 1] | {s + a for s in reach[i + 1] if s + a <= cap}
        cells += len(reach[i + 1])
    return reach, cells


@st.composite
def repeated_multiplicity_samples(draw):
    """Up to 16 unique naturals whose multiplicities repeat, and a target t."""
    pool = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    points = sorted(draw(st.sets(st.integers(0, 100), max_size=16)))
    mults = [draw(st.sampled_from(pool)) for _ in points]
    m = sum(mults)
    t = draw(st.one_of(st.just(0), st.just(m), st.integers(0, m)))
    return points, mults, t


@settings(max_examples=300, deadline=None)
@given(repeated_multiplicity_samples())
@example(([3, 7], [2, 2], 1))  # sums 0 and 2 tie around t = 1
@example(([1, 2, 5], [4, 4, 4], 0))
@example(([1, 2, 5], [4, 4, 4], 12))
@example(([], [], 0))
def test_subset_sum_matches_brute_force(case):
    points, mults, t = case
    m = sum(mults)
    pts = tuple(p for p, c in zip(points, mults) for _ in range(c))
    sample = Sample(pts, F(t, m) if m else F(0))
    out = subset_sum_learner(sample)
    ref = brute_subset_sum(mults, t)
    best_sum = sum(mults[i] for i in ref.witness)
    assert out.achieved == (F(best_sum, m) if m else 0)
    assert out.hypothesis == FiniteSubset(tuple(points[i] for i in ref.witness))
    assert out.residual == (F(ref.optimum, m) if m else 0)
    assert out.work["dp_cells"] == _set_reach(mults, m)[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=12), st.integers(0, 60))
@example([3, 5, 4], 12)  # cap = the total: no bit to clear, no mask
@example([3, 5, 4], 40)  # cap above the total
@example([3, 5, 4], 7)  # cap below the total: sums 8, 9 and 12 cleared
def test_suffix_reach_matches_set_dp_below_the_cap(mults, cap):
    reach = _suffix_reach(tuple(mults), cap)
    ref, _ = _set_reach(mults, cap)
    assert reach == [sum(1 << s for s in sums) for sums in ref]


RANKED_KINDS = st.one_of(
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(Parity),
    st.sets(st.integers(1, 2)).map(lambda v: MonotoneDisjunction(2, tuple(sorted(v)))),
    st.sets(st.integers(1, 2)).map(lambda v: MonotoneConjunction(2, tuple(sorted(v)))),
    st.sets(st.integers(0, 3)).map(lambda e: FiniteSubset(tuple(sorted(e)))),
    st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda ke: Window(ke[0], (ke[1],))),
    st.integers(-2, 2).map(lambda c: Halfspace((F(c), F(1)), F(1, 2))),
)


@st.composite
def ranked_streams(draw):
    """A sample size m (0 included), a target count and a candidate stream
    whose counts fall in a narrow range, so that (residual, count) ties are
    common and only the encoding can break them."""
    m = draw(st.integers(0, 5))
    t = draw(st.integers(0, m))
    counts = st.integers(max(0, t - 1), min(m, t + 1))
    stream = draw(st.lists(st.tuples(counts, RANKED_KINDS), min_size=1, max_size=12))
    return m, t, stream


@settings(max_examples=400, deadline=None)
@given(ranked_streams())
@example((2, 1, [(1, Parity((1, 0))), (1, Parity((0, 1)))]))
@example((0, 0, [(0, Window(1, (2,))), (0, FiniteSubset((1,))), (0, Parity((1, 1)))]))
def test_best_ranked_matches_ranking_key(case):
    m, t, stream = case
    stream = sorted(stream, key=lambda c: encode(c[1]))  # `_best_ranked`'s precondition
    sample = Sample(tuple(range(m)), F(t, m)) if m else Sample((), F(0))

    def key(candidate):
        count, h = candidate
        return ranking_key(F(abs(count - t), m) if m else F(0), count, h)

    count, h = min(stream, key=key)
    out = _best_ranked(iter(stream), sample, "candidates")
    assert out.hypothesis == h
    assert out.achieved == (F(count, m) if m else 0)
    assert out.residual == key((count, h))[0]
    assert out.work == {"candidates": len(stream)}


def _mask_parity(mask):
    return Parity(tuple((mask >> (2 - i)) & 1 for i in range(3)))


def _window_2(elems):
    return Window(2, elems)


@st.composite
def built_streams(draw):
    """As `ranked_streams`, but the candidates carry raw witnesses (3-bit
    parity masks, or element tuples of span <= 2) and a build turns them
    into hypotheses."""
    m = draw(st.integers(0, 5))
    t = draw(st.integers(0, m))
    counts = st.integers(max(0, t - 1), min(m, t + 1))
    if draw(st.booleans()):
        witnesses, build = st.integers(0, 7), _mask_parity
    else:
        witnesses = st.tuples(st.integers(0, 4), st.sets(st.integers(1, 2))).map(
            lambda vs: (vs[0], *sorted(vs[0] + d for d in vs[1]))
        )
        build = _window_2
    stream = draw(st.lists(st.tuples(counts, witnesses), min_size=1, max_size=12))
    return m, t, stream, build


@settings(max_examples=400, deadline=None)
@given(built_streams())
@example((2, 1, [(1, 0b011), (1, 0b101), (1, 0b001)], _mask_parity))
@example((3, 0, [(0, (3, 4)), (0, (1,)), (0, (1, 3))], _window_2))
def test_best_ranked_builds_witnesses_and_matches_ranking_key(case):
    m, t, stream, build = case
    stream = sorted(stream, key=lambda c: encode(build(c[1])))  # `_best_ranked`'s precondition
    sample = Sample(tuple(range(m)), F(t, m)) if m else Sample((), F(0))
    built = [(count, build(w)) for count, w in stream]

    def key(candidate):
        count, h = candidate
        return ranking_key(F(abs(count - t), m) if m else F(0), count, h)

    count, h = min(built, key=key)
    out = _best_ranked(iter(stream), sample, "labelings", build)
    assert out.hypothesis == h
    assert out.achieved == (F(count, m) if m else 0)
    assert out.residual == key((count, h))[0]
    assert out.work == {"labelings": len(stream)}


def test_best_ranked_builds_only_the_winner_without_ties():
    calls = []

    def build(mask):
        calls.append(mask)
        return _mask_parity(mask)

    sample = Sample((0, 1, 2, 3), F(2, 4))
    out = _best_ranked(iter([(0, 7), (4, 6), (1, 5), (3, 4), (2, 3)]), sample, "labelings", build)
    assert out.hypothesis == _mask_parity(3) and calls == [3]
    # masks 3, 5 and 7 tie on (residual, count): the first wins, and no other is built
    calls.clear()
    out = _best_ranked(iter([(2, 3), (1, 4), (2, 5), (3, 6), (2, 7)]), sample, "labelings", build)
    assert out.hypothesis == _mask_parity(3) and calls == [3]
    assert out.work == {"labelings": 5}


def test_learners_hand_best_ranked_streams_in_ascending_encoding(monkeypatch):
    """The precondition of `_best_ranked`, checked on every stream ERM gives
    it and on the window learner's reference stream (`_window_candidates`):
    built encodings ascend strictly."""
    streams = []

    def spy(candidates, sample, work, build=None):
        stream = list(candidates)
        streams.append([encode(w if build is None else build(w)) for _, w in stream])
        return _best_ranked(iter(stream), sample, work, build)

    monkeypatch.setattr(learners, "_best_ranked", spy)
    rng = random.Random(23)
    window_streams = []
    for _ in range(150):
        k = rng.randint(0, 6)
        m = rng.randint(0, 16)
        pts = tuple(rng.randint(1, 14) for _ in range(m))
        sample = Sample(pts, F(rng.randint(0, m), m) if m else F(0))
        candidates = _window_candidates(*learners._nat_sample_items(sample), k)
        window_streams.append([encode(Window(k, elems)) for _, elems in candidates])
    descs = [
        ClassDescriptor("parity", 5),
        ClassDescriptor("parity", 6, restriction=3),
        ClassDescriptor("monotone_disjunction", 4),
        ClassDescriptor("monotone_conjunction", 4),
        ClassDescriptor("finite_subset", 1, ground_set=(2, 3, 5, 7)),
    ]
    for desc in descs:
        for m in (0, 1, 6, 20):
            if desc.class_id == "finite_subset":
                pts = tuple(rng.choice(desc.ground_set) for _ in range(m))
            else:
                pts = tuple(tuple(rng.randint(0, 1) for _ in range(desc.n)) for _ in range(m))
            erm_proportion_matcher(desc, Sample(pts, F(rng.randint(0, m), m) if m else F(0)))
    assert len(streams) == 4 * len(descs)
    for codes in window_streams + streams:
        assert all(a < b for a, b in zip(codes, codes[1:]))


@st.composite
def window_cases(draw):
    """A span bound k and a sample of up to 60 naturals, dense (1-5, so
    multiplicities and wide tails) or sparse (1-200, so many equal counts)."""
    k = draw(st.integers(0, 8))
    top = draw(st.sampled_from((5, 200)))
    pts = draw(st.lists(st.integers(1, top), max_size=60))
    m = len(pts)
    return k, Sample(tuple(pts), F(draw(st.integers(0, m)), m) if m else F(0))


@settings(max_examples=400, deadline=None)
@given(window_cases())
@example((0, Sample((), F(0))))
@example((0, Sample((1, 1), F(1, 2))))  # counts 0 and 2 tie for 1: the smaller wins
@example((0, Sample((1, 2), F(1, 2))))  # two windows of count 1: the first value's
@example((1, Sample((1, 2), F(1, 2))))  # count 1 is reached before the tail joins
@example((3, Sample((1, 2, 2, 4, 5, 5, 5), F(4, 7))))
@example((3, Sample((1, 2, 2, 3, 4), F(1))))  # one span: the first value's reach holds bit m
def test_window_learner_matches_ranking_its_candidates(case):
    """The reach computation gives what ranking every candidate gives: the
    same window, proportions and candidate count."""
    k, sample = case
    candidates = _window_candidates(*learners._nat_sample_items(sample), k)
    want = _best_ranked(candidates, sample, "candidates", lambda elems: Window(k, elems))
    assert window_learner(sample, k) == want


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


def test_halfspace_reachable_count_is_not_called_unreachable():
    # 500 points of the 10-cube, mostly distinct, so every count is a subset
    # sum of the multiplicities; this trial's sample still defeats 4 normals
    cfg = TrialConfig(
        learner="halfspace_sweep", epsilon=F(1, 10), delta=F(1, 10), trials=10,
        seed=derive_seed(1009, "t", 5), distribution=UniformCube(10),
        target=Parity((1,) + (0,) * 9), m=500,
    )
    rows = run_trials(cfg).rows
    assert rows[4].error.startswith(f"{CollisionPersistent.__name__}: count 243 of 500")
    assert not any(r.error and r.error.startswith(UnreachableCount.__name__) for r in rows)


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
