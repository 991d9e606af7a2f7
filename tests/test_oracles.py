"""Brute-force ground-truth solvers and their agreement with the learners."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    BudgetExceeded,
    ClassDescriptor,
    ConsistencyInstance,
    EPSCInstance,
    FiniteSubset,
    MonotoneDisjunction,
    Sample,
    X3CInstance,
    brute_consistency,
    brute_epsc,
    brute_llp_oracle,
    brute_subset_sum,
    brute_x3c,
    enumerate_class,
    erm_proportion_matcher,
    evaluate,
    hits_exactly,
    make_brute_oracle,
    positive_count,
    subset_sum_learner,
)
from llp_lab.oracles import BRUTE_BUDGET, _best_count, _count_table, _matches, _nearest_count


def test_brute_oracle_realizable_residual_zero():
    desc = ClassDescriptor("parity", 3)
    target = next(h for h in enumerate_class(desc) if h.mask == (1, 1, 0))
    pts = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1))
    k = sum(evaluate(target, x) for x in pts)
    sample = Sample(pts, F(k, 4))
    h = brute_llp_oracle(desc, sample, F(k, 4), F(1, 10), F(1, 20))
    assert positive_count(h, sample) == k


def test_brute_oracle_matches_erm_witness():
    rng = random.Random(23)
    desc = ClassDescriptor("monotone_disjunction", 3)
    for _ in range(40):
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(6))
        claim = F(rng.randint(0, 6), 6)
        sample = Sample(pts, claim)
        got = brute_llp_oracle(desc, sample, claim, F(1, 10), F(1, 20))
        assert got == erm_proportion_matcher(desc, sample).hypothesis


def test_brute_oracle_reject_mode():
    desc = ClassDescriptor("monotone_disjunction", 2)
    sample = Sample(((0, 0), (0, 0)), F(1, 2))
    # count 1 of 2 is not achievable on a repeated all-zero point
    assert brute_llp_oracle(desc, sample, F(1, 2), F(1, 10), F(1, 20), mode="reject") is None
    got = brute_llp_oracle(desc, sample, F(0), F(1, 10), F(1, 20), mode="reject")
    assert got == MonotoneDisjunction(2, ())


def test_make_brute_oracle_caches_per_sample():
    desc = ClassDescriptor("parity", 2)
    oracle = make_brute_oracle(desc)
    sample = Sample(((0, 1), (1, 0), (1, 1)), F(1, 3))
    first = oracle.solve(sample, F(1, 3), F(1, 10), F(1, 20))
    second = oracle.solve(sample, F(2, 3), F(1, 10), F(1, 20))
    assert first != second
    assert oracle.sample_size(F(1, 2), F(1, 20)) >= 1


def test_brute_consistency_k0_always_achievable():
    inst = ConsistencyInstance(
        ClassDescriptor("monotone_disjunction", 2), points=((0, 1), (1, 0)), mults=(1, 1), k=0
    )
    report = brute_consistency(inst)
    assert report.decision is True
    assert report.witness == MonotoneDisjunction(2, ())


def test_brute_consistency_weighted_counts():
    desc = ClassDescriptor("monotone_disjunction", 2)
    inst = ConsistencyInstance(desc, points=((0, 1), (1, 0)), mults=(1, 2), k=2)
    report = brute_consistency(inst)
    assert report.decision is True
    assert report.witness == MonotoneDisjunction(2, (1,))
    assert hits_exactly(inst, report.witness)


def test_brute_consistency_k_above_total_is_trivially_no():
    # weighted total is 3, so k=4 cannot be hit by any hypothesis
    desc = ClassDescriptor("monotone_disjunction", 2)
    inst = ConsistencyInstance(desc, points=((0, 1), (1, 0)), mults=(1, 2), k=4)
    report = brute_consistency(inst)
    assert report.decision is False
    assert report.witness is None


def test_brute_consistency_no_case():
    desc = ClassDescriptor("monotone_conjunction", 2)
    # conjunctions on (1,1) with mult 2: achievable weighted counts are 0 and 2
    inst = ConsistencyInstance(desc, points=((1, 1),), mults=(2,), k=1)
    report = brute_consistency(inst)
    assert report.decision is False
    assert report.witness is None


def test_brute_epsc_empty_subfamily():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=0)
    assert brute_epsc(inst).decision is True


def test_brute_epsc_full_union():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=3)
    report = brute_epsc(inst)
    assert report.decision is True
    assert report.witness == (0, 1)


def test_brute_epsc_unreachable_size():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (2, 3)), k=1)
    assert brute_epsc(inst).decision is False


def test_brute_x3c_single_triple():
    inst = X3CInstance(universe=(1, 2, 3), triples=((1, 2, 3),))
    report = brute_x3c(inst)
    assert report.decision is True and report.witness == (0,)


def test_brute_x3c_partition():
    inst = X3CInstance(universe=(1, 2, 3, 4, 5, 6), triples=((1, 2, 3), (4, 5, 6)))
    report = brute_x3c(inst)
    assert report.decision is True and report.witness == (0, 1)


def test_brute_x3c_uncoverable():
    inst = X3CInstance(universe=(1, 2, 3, 4, 5, 6), triples=((1, 2, 3), (3, 4, 5)))
    assert brute_x3c(inst).decision is False


def test_brute_subset_sum_ties_and_witnesses():
    report = brute_subset_sum((2, 3, 5), 5)
    assert report.optimum == 0
    # witness is a bitmask over item indices; {2,3} beats {5} per tie-break
    assert report.witness == (0, 1)
    assert brute_subset_sum((2, 3, 5), 0).witness == ()
    near = brute_subset_sum((4, 6), 1)
    assert near.optimum == 1 and near.witness == ()


def test_brute_subset_sum_budget():
    with pytest.raises(BudgetExceeded):
        brute_subset_sum(tuple(range(1, 26)), 10)


def test_subset_sum_learner_agrees_with_brute():
    rng = random.Random(29)
    for _ in range(120):
        u = rng.randint(1, 10)
        mults = [rng.randint(1, 4) for _ in range(u)]
        points = sorted(rng.sample(range(1, 40), u))
        m = sum(mults)
        raw = tuple(p for p, a in zip(points, mults) for _ in range(a))
        t = rng.randint(0, m)
        out = subset_sum_learner(Sample(raw, F(t, m)))
        report = brute_subset_sum(mults, t)
        assert abs(out.achieved * m - t) == report.optimum
        expected = tuple(points[i] for i in report.witness)
        assert out.hypothesis == FiniteSubset(expected)


def test_brute_witnesses_reverify():
    inst = EPSCInstance(universe=(1, 2, 3, 4), subsets=((1, 2), (2, 3), (4,)), k=3)
    report = brute_epsc(inst)
    assert report.decision is True
    union = set()
    for idx in report.witness:
        union |= set(inst.subsets[idx])
    assert len(union) == inst.k


def test_budget_exceeded_on_oversized_class():
    desc = ClassDescriptor("parity", 10)
    sample = Sample(((0,) * 10,), F(0))
    with pytest.raises(BudgetExceeded):
        brute_llp_oracle(desc, sample, F(0), F(1, 10), F(1, 20), budget=100)


@st.composite
def _count_claims(draw):
    counts = draw(st.sets(st.integers(min_value=0, max_value=80), min_size=1, max_size=20))
    m = draw(st.integers(min_value=0, max_value=80))
    claimed = draw(
        st.one_of(
            st.fractions(min_value=-1, max_value=2, max_denominator=400),
            # exact counts and midpoints between neighbours, where ties sit
            st.integers(min_value=-4, max_value=2 * m + 4).map(lambda j: F(j, 2 * m) if m else F(j)),
        )
    )
    return counts, m, claimed


def _reference_match(best: int, m: int, claimed: F) -> bool:
    return (F(best, m) if m else F(0)) == claimed


@given(_count_claims())
def test_nearest_count_agrees_with_best_count(case):
    counts, m, claimed = case
    best = _nearest_count(sorted(counts), m, claimed)
    assert best == _best_count(dict.fromkeys(counts), m, claimed)
    assert _matches(best, m, claimed) == _reference_match(best, m, claimed)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(*[st.integers(min_value=0, max_value=1)] * 3), max_size=9),
    st.data(),
)
def test_brute_oracle_solve_agrees_with_reference(points, data):
    # the whole solve path in both modes against the table scan it replaced
    desc = ClassDescriptor("monotone_disjunction", 3)
    sample = Sample(tuple(points), F(0))
    m = sample.m
    table = _count_table(desc, sample, BRUTE_BUDGET)
    oracles = {mode: make_brute_oracle(desc, mode) for mode in ("arbitrary", "reject")}
    for _ in range(5):
        claimed = data.draw(
            st.one_of(
                st.integers(min_value=-1, max_value=2 * m + 1).map(lambda j: F(j, 2 * m) if m else F(j)),
                st.fractions(min_value=-1, max_value=2, max_denominator=50),
            )
        )
        best = _best_count(table, m, claimed)
        assert oracles["arbitrary"].solve(sample, claimed, F(1, 10), F(1, 20)) == table[best]
        want = table[best] if _reference_match(best, m, claimed) else None
        assert oracles["reject"].solve(sample, claimed, F(1, 10), F(1, 20)) == want
