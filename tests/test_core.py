"""Distributions, samples, seeded draws, and rational plumbing."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llp_lab import (
    COUNT_DRAW_MIN,
    DomainMismatch,
    DuplicateSupportPoint,
    EmptySupport,
    FiniteSubset,
    NonPositiveWeight,
    Parity,
    Sample,
    UniformCube,
    WeightsDoNotSumToOne,
    derive_seed,
    distribution_from_json,
    distribution_to_json,
    draw_counts,
    draw_points,
    draw_sample,
    make_distribution,
    normalized,
    parse_rational,
    point_domain,
    point_from_json,
    point_to_json,
    sample_from_json,
    sample_to_json,
    support,
    uniform_over,
    weight_of,
)
from llp_lab.core import _sample_trusted

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])


def test_make_distribution_single_atom():
    dist = make_distribution([(1, F(1))])
    assert support(dist) == (1,)
    assert weight_of(dist, 1) == 1


def test_make_distribution_two_atoms():
    assert support(TWO_ATOM) == (1, 2)
    assert weight_of(TWO_ATOM, 1) == F(3, 10)
    assert weight_of(TWO_ATOM, 2) == F(7, 10)


def test_make_distribution_rejects_bad_total():
    with pytest.raises(WeightsDoNotSumToOne):
        make_distribution([(1, F(1, 2)), (2, F(1, 3))])


def test_make_distribution_rejects_empty():
    with pytest.raises(EmptySupport):
        make_distribution([])


def test_make_distribution_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        make_distribution([(1, F(0)), (2, F(1))])
    with pytest.raises(NonPositiveWeight):
        make_distribution([(1, F(-1, 2)), (2, F(3, 2))])


def test_make_distribution_rejects_duplicate_point():
    with pytest.raises(DuplicateSupportPoint):
        make_distribution([(1, F(1, 2)), (1, F(1, 2))])


def test_make_distribution_rejects_float_weight():
    with pytest.raises(TypeError):
        make_distribution([(1, 0.5), (2, 0.5)])


def test_normalized_scales_weights():
    dist = normalized([(1, 2), (2, 3)])
    assert weight_of(dist, 1) == F(2, 5)
    assert weight_of(dist, 2) == F(3, 5)


def test_uniform_over():
    dist = uniform_over([4, 7, 9])
    assert all(weight_of(dist, x) == F(1, 3) for x in (4, 7, 9))


def test_weight_of_missing_point_is_zero():
    assert weight_of(TWO_ATOM, 3) == 0


def test_sample_p_hat_must_be_multiple_of_inverse_m():
    Sample((1, 2, 3), F(1, 3))
    with pytest.raises(ValueError):
        Sample((1, 2, 3), F(1, 2))


def test_sample_rejects_float_p_hat():
    with pytest.raises(TypeError):
        Sample((1, 2), 0.5)


def test_sample_rejects_mixed_domains():
    with pytest.raises(DomainMismatch):
        Sample((1, (0, 1)), F(0))


def test_empty_sample():
    s = Sample((), F(0))
    assert s.counts == ()
    with pytest.raises(ValueError):
        Sample((), F(1))


def test_sample_counts_aggregate_with_multiplicity():
    s = Sample((5, 9, 5, 12), F(1, 2))
    assert s.counts == ((5, 2), (9, 1), (12, 1))


def test_point_domain():
    assert point_domain(3) == ("nat", None)
    assert point_domain((0, 1, 0)) == ("bits", 3)


def test_draw_sample_constant_zero_target_gives_zero_p_hat():
    s = draw_sample(TWO_ATOM, 5, seed=11, target=FiniteSubset(()))
    assert s.p_hat == 0
    assert len(s.points) == 5


def test_draw_sample_single_atom_forces_outcome():
    dist = make_distribution([(1, F(1))])
    s = draw_sample(dist, 4, seed=3, target=FiniteSubset((1,)))
    assert s.points == (1, 1, 1, 1)
    assert s.p_hat == 1


def test_draw_sample_p_hat_matches_replayed_labels():
    cube = UniformCube(8)
    target = Parity((0, 0, 0, 0, 0, 0, 0, 1))
    s = draw_sample(cube, 1000, seed=42, target=target)
    labeled = sum(x[-1] for x in s.points)
    assert s.p_hat == F(labeled, 1000)


def test_draw_sample_deterministic():
    a = draw_sample(TWO_ATOM, 50, seed=9, target=FiniteSubset((2,)))
    b = draw_sample(TWO_ATOM, 50, seed=9, target=FiniteSubset((2,)))
    assert a == b


def test_draw_points_seed_sensitivity():
    a = draw_points(TWO_ATOM, 30, seed=1)
    b = draw_points(TWO_ATOM, 30, seed=2)
    assert a != b


def test_draw_counts_matches_draw_points():
    # the bulk path must stay the law of the per-point path
    m = COUNT_DRAW_MIN
    counts = dict(draw_counts(TWO_ATOM, m, seed=5))
    assert sum(counts.values()) == m
    assert set(counts) <= {1, 2}
    assert all(c >= 1 for c in counts.values())
    pts = draw_points(TWO_ATOM, m, seed=5)
    assert {p: pts.count(p) for p in set(pts)} == counts


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed("a", 1)


def test_parse_rational_forms():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(2) == F(2)
    assert parse_rational(F(1, 3)) == F(1, 3)
    assert parse_rational({"num": 7, "den": 9}) == F(7, 9)


def test_parse_rational_rejects_floats():
    with pytest.raises(TypeError):
        parse_rational(0.1)


def test_point_json_round_trip():
    for p in (7, (0, 1, 1)):
        assert point_from_json(point_to_json(p)) == p


def test_distribution_json_round_trip():
    for dist in (TWO_ATOM, UniformCube(6)):
        assert distribution_from_json(distribution_to_json(dist)) == dist


def test_sample_json_round_trip():
    s = draw_sample(TWO_ATOM, 10, seed=1, target=FiniteSubset((2,)))
    assert sample_from_json(sample_to_json(s)) == s


@given(st.integers(), st.integers(min_value=1))
def test_parse_rational_string_round_trip(num, den):
    q = F(num, den)
    assert parse_rational(str(q)) == q


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
def test_sample_counts_are_a_multiset_of_points(raw):
    p_hat = F(0)
    s = Sample(tuple(raw), p_hat)
    total = 0
    for point, count in s.counts:
        assert count == raw.count(point)
        total += count
    assert total == len(raw)


def test_empirical_deviation_hoeffding_scale():
    # mean |p_hat - p| over seeded draws stays within coin-flip noise
    target = FiniteSubset((2,))
    dev = F(0)
    runs = 200
    for seed in range(runs):
        s = draw_sample(TWO_ATOM, 500, seed=seed, target=target)
        dev += abs(s.p_hat - F(7, 10))
    assert dev / runs <= F(2, 100)


@st.composite
def _proportion_claims(draw):
    m = draw(st.integers(min_value=0, max_value=12))
    p_hat = draw(
        st.one_of(
            st.fractions(min_value=-1, max_value=2, max_denominator=30),
            st.integers(min_value=-1, max_value=2),
            st.integers(min_value=-2, max_value=2 * m + 2).map(lambda j: F(j, 2 * m) if m else F(j)),
        )
    )
    return m, p_hat


@given(_proportion_claims())
def test_sample_trusted_agrees_with_sample(case):
    # the integer check in the sweep constructor against Sample's own checks
    m, p_hat = case
    points = tuple(range(m))
    try:
        want = Sample(points, p_hat)
    except ValueError:
        want = None
    try:
        got = _sample_trusted(points, p_hat)
    except ValueError:
        got = None
    assert got == want
    assert got is None or got.domain == want.domain


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), max_size=12))
def test_sample_trusted_keeps_the_domain_and_packed_counts(points):
    points = tuple(points)
    want = Sample(points, F(0))
    got = _sample_trusted(points, F(0), want.counts)
    assert got.domain == want.domain == (("bits", 3) if points else None)
    assert got.packed_counts == want.packed_counts
