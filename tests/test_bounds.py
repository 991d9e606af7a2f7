"""Sample-size formulas and the uniform-convergence audit."""

import math
import sys
from fractions import Fraction as F

import pytest

from llp_lab import (
    ClassDescriptor,
    InvalidParams,
    Parity,
    UniformCube,
    ZeroGap,
    audit_satisfied_fraction,
    empirical_generalization_audit,
    gap_sample_size,
    hoeffding_sample_size,
    uniform_convergence_bound,
    uniform_convergence_sample_size,
)


def test_hoeffding_known_values():
    assert hoeffding_sample_size(0.1, 0.05) == 185
    assert hoeffding_sample_size(0.1, 0.1) == 150
    assert hoeffding_sample_size(0.5, 2 / math.e**2) == 4


def test_hoeffding_accepts_rational_inputs():
    assert hoeffding_sample_size(F(1, 10), F(1, 20)) == 185


def test_hoeffding_rejects_out_of_range():
    for eps, delta in [(0, 0.1), (1.5, 0.1), (0.1, 0), (0.1, 1)]:
        with pytest.raises(InvalidParams):
            hoeffding_sample_size(eps, delta)


def test_hoeffding_monotone_in_both_parameters():
    grid = [0.05, 0.1, 0.2, 0.4]
    for delta in grid:
        sizes = [hoeffding_sample_size(eps, delta) for eps in grid]
        assert sizes == sorted(sizes, reverse=True)
    for eps in grid:
        sizes = [hoeffding_sample_size(eps, delta) for delta in grid]
        assert sizes == sorted(sizes, reverse=True)


def test_gap_sample_size_composes_hoeffding():
    assert gap_sample_size(0.2, 0.05) == hoeffding_sample_size(0.1, 0.05) == 185
    assert gap_sample_size(1, 0.05) == 8
    assert gap_sample_size(F(3, 10), 0.1) == 67
    # near the smallest epsilon whose size is a finite double
    tiny = F(1, 10**150)
    assert gap_sample_size(2 * tiny, F(1, 10)) == hoeffding_sample_size(tiny, F(1, 10))
    assert hoeffding_sample_size(tiny, F(1, 10)) == math.ceil(math.log(20) / (2 * 1e-150 * 1e-150))


def test_gap_sample_size_rejects_zero_gap():
    for zero in (0, 0.0, F(0)):
        with pytest.raises(ZeroGap):
            gap_sample_size(zero, 0.05)


def test_uniform_convergence_bound_value():
    got = uniform_convergence_bound(1, 1000, 0.05)
    want = math.sqrt(8 * (1 + math.log(1000)) / 1000) + math.sqrt(2 * math.log(80) / 1000)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.345135989320807, abs=1e-12)


def test_hoeffding_names_a_positive_input_that_rounds_to_zero_as_given():
    # each once reported the rounded double: "need 0 < epsilon, delta < 1, got 0.0, 0.1"
    tiny = F(1, 10**400)
    for call, detail in [
        (lambda: hoeffding_sample_size(tiny, F(1, 10)), f"for {tiny}, 1/10 does not"),
        (lambda: hoeffding_sample_size(F(1, 10), tiny), f"for 1/10, {tiny} does not"),
        (lambda: gap_sample_size(tiny, F(1, 10)), f"for {tiny / 2}, 1/10 does not"),
    ]:
        with pytest.raises(InvalidParams, match=detail):
            call()
    for eps, delta in [(0, 0.1), (0.0, 0.1), (F(0), 0.1), (-tiny, 0.1)]:  # not positive: out of range
        with pytest.raises(InvalidParams, match="need 0 < epsilon, delta < 1"):
            hoeffding_sample_size(eps, delta)


def _parent_uniform_convergence_bound(d, m, delta):
    """The bound as written before the overflow fixes: ln(e m / d) taken of e * m / d as a double, times 8 d, over m.

    A step that overflows gives inf.  From d of about 2.2e307 on, `8 * d`
    does not convert to a double and raises OverflowError, read as inf too.
    """
    try:
        return math.sqrt(8 * d * math.log(math.e * m / d) / m) + math.sqrt(2 * math.log(4 / delta) / m)
    except OverflowError:
        return math.inf


def test_uniform_convergence_bound_is_finite_where_e_m_overflows():
    # e * 1e308 is past the largest double: this was inf
    got = uniform_convergence_bound(1, 10**308, 0.1)
    assert math.isfinite(got) and 0 < got < uniform_convergence_bound(1, 10**307, 0.1)
    want = math.sqrt(8 * (1 + math.log(1e308)) / 1e308) + math.sqrt(2 * math.log(40) / 1e308)
    assert got == pytest.approx(want, rel=1e-12)
    assert math.isinf(_parent_uniform_convergence_bound(1, 10**308, 0.1))


def test_uniform_convergence_bound_is_finite_where_8_d_log_overflows():
    # 8 * 1e307 * ln(17 e) is past the largest double: this was inf
    got = uniform_convergence_bound(10**307, 17 * 10**307, 0.1)
    want = math.sqrt(8 * math.log(17 * math.e) / 17) + math.sqrt(2 * math.log(40) / 1.7e308)
    assert got == pytest.approx(want, rel=1e-12) and 1.34 < got < 1.35
    assert math.isinf(_parent_uniform_convergence_bound(10**307, 17 * 10**307, 0.1))


def test_uniform_convergence_bound_keeps_every_finite_value_bit_for_bit():
    ms = [1, 2, 3, 10, 1000, 10**6, 10**18, 10**100, 10**300, 6 * 10**307, 66 * 10**306, 67 * 10**306, 10**308, 17 * 10**307]
    largest = int(sys.float_info.max)
    finite = overflowed = 0
    for d in (1, 2, 3, 7, 50, 10**6, 10**200, 10**300, 10**305, 10**306, 10**307, 3 * 10**307, 10**308):
        for m in [m for m in ms + [d, 3 * d] if d <= m <= largest]:
            for delta in (1e-300, 0.01, 0.05, F(1, 10), 0.5, 0.99):
                got, parent = uniform_convergence_bound(d, m, delta), _parent_uniform_convergence_bound(d, m, float(delta))
                assert math.isfinite(got)
                if math.isfinite(parent):
                    assert got == parent
                    finite += 1
                else:  # only where e * m / d or 8 d ln(e m / d) overflows: the value, to rounding
                    log_ratio = 1 + math.log(m / d)
                    assert math.e * m / d == math.inf or 8 * log_ratio * d == math.inf
                    want = math.sqrt(8 * log_ratio * (d / m)) + math.sqrt(2 * math.log(4 / float(delta)) / m)
                    assert got == pytest.approx(want, rel=1e-12)
                    overflowed += 1
    assert finite > 300 and overflowed > 0


def test_uniform_convergence_bound_at_m_equals_d():
    got = uniform_convergence_bound(1, 1, 0.5)
    assert got == pytest.approx(math.sqrt(8) + math.sqrt(2 * math.log(8)), rel=1e-12)


def test_uniform_convergence_bound_rejects_m_below_d():
    with pytest.raises(InvalidParams):
        uniform_convergence_bound(3, 2, 0.1)


def test_uniform_convergence_bound_decreasing_tail():
    for d in (1, 2, 5):
        values = [uniform_convergence_bound(d, m, 0.05) for m in range(3 * d, 40 * d)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_uniform_convergence_sample_size_known_value():
    assert uniform_convergence_sample_size(2, 0.3, 0.1, 0) == 2187
    assert uniform_convergence_sample_size(1, 0.4, 0.05, 0) == 723
    # a size past 10**200 is still a double, so the scan reaches it
    assert uniform_convergence_sample_size(2, F(1, 10**100), F(1, 10)) > 10**200


def test_uniform_convergence_sample_size_minimality():
    for d, eps, delta in [(1, 0.4, 0.05), (2, 0.3, 0.1), (3, 0.1, 0.05)]:
        m = uniform_convergence_sample_size(d, eps, delta, 0)
        assert uniform_convergence_bound(d, m, delta) <= eps
        if m > 3 * d:
            assert uniform_convergence_bound(d, m - 1, delta) > eps
        # direct scan over the monotone tail confirms the search
        scan = next(
            mm
            for mm in range(3 * d, m + 1)
            if uniform_convergence_bound(d, mm, delta) <= eps
        )
        assert scan == m


def test_uniform_convergence_sample_size_rejects_slack_at_epsilon():
    with pytest.raises(InvalidParams):
        uniform_convergence_sample_size(1, 0.1, 0.05, 0.1)


def test_audit_singleton_class_never_violates():
    desc = ClassDescriptor("parity", 3, restriction=0)
    target = Parity((0, 0, 0))
    reports = empirical_generalization_audit(
        desc, UniformCube(3), target, m=20, delta=0.1, trials=10, seed=0
    )
    assert len(reports) == 10
    assert all(r.d == 1 for r in reports)  # clamped for the bound
    assert all(r.observed_gap == 0 for r in reports)
    assert audit_satisfied_fraction(reports) == 1


def test_audit_fraction_tracks_bound():
    desc = ClassDescriptor("parity", 4, restriction=2)
    target = Parity((0, 1, 0, 0))
    m = uniform_convergence_sample_size(2, 0.5, 0.1, 0)
    reports = empirical_generalization_audit(
        desc, UniformCube(4), target, m=m, delta=0.1, trials=50, seed=3
    )
    bound = uniform_convergence_bound(2, m, 0.1)
    for r in reports:
        assert r.m == m and r.d == 2
        assert r.bound_value == pytest.approx(bound)
    assert audit_satisfied_fraction(reports) >= F(9, 10)
