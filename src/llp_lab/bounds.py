"""Sample-size formulas and the uniform-convergence audit.

Bound values are informational floats; the quantities they are compared
against (observed proportions and gaps) stay exact rationals.  Natural
logarithms throughout.  A size or bound whose arithmetic leaves the
doubles (a square that underflows to 0, a quotient that overflows, an int
too large for a float) raises InvalidParams.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .core import FiniteDistribution, derive_seed, record
from .errors import InvalidParams, ZeroGap
from .hypotheses import ClassDescriptor, Hypothesis, enumerate_class, vc_dimension
from .sampling import draw_sample, empirical_proportion, true_proportion

__all__ = [
    "hoeffding_sample_size",
    "gap_sample_size",
    "uniform_convergence_bound",
    "uniform_convergence_sample_size",
    "BoundReport",
    "empirical_generalization_audit",
    "audit_satisfied_fraction",
]


def _unfit(what: str, *args: object) -> InvalidParams:
    return InvalidParams(f"{what} for {', '.join(map(str, args))} does not fit a double")


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Smallest m with 2 exp(-2 m epsilon^2) <= delta: ceil(ln(2/delta) / (2 epsilon^2)).

    Enough draws for the revealed fraction to sit within epsilon of the true
    proportion with probability 1 - delta.  InvalidParams when epsilon or
    delta is not in (0, 1) as a double, and when the size is not a finite
    double (epsilon below about 1e-154, or delta below about 1e-308).  A
    positive input that rounds to 0.0 is named as given, not as the 0.0 it
    became.
    """
    given = epsilon, delta
    try:
        epsilon = float(epsilon)
        delta = float(delta)
        if epsilon == 0 < given[0] or delta == 0 < given[1]:
            raise _unfit("the Hoeffding sample size", *given)
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise InvalidParams(f"need 0 < epsilon, delta < 1, got {epsilon}, {delta}")
        return math.ceil(math.log(2 / delta) / (2 * epsilon * epsilon))
    except (OverflowError, ZeroDivisionError):
        raise _unfit("the Hoeffding sample size", epsilon, delta) from None


def gap_sample_size(beta: float, delta: float) -> int:
    """Draws needed to land within beta/2 of the true proportion, w.p. 1 - delta.

    beta is the smallest distance between distinct achievable proportion
    values; within beta/2 the nearest achievable value is the right one.
    ZeroGap for a gap of exactly 0; a positive gap too small for a finite
    size raises InvalidParams, as `hoeffding_sample_size` does.  Halving
    before the conversion to a double gives the size that halving after it
    gives, wherever that size is finite.
    """
    if beta == 0:
        raise ZeroGap("no separation between achievable proportions")
    return hoeffding_sample_size(beta / 2, delta)


def uniform_convergence_bound(d: int, m: int, delta: float) -> float:
    """sqrt(8 d ln(e m / d) / m) + sqrt(2 ln(4/delta) / m), for m >= d >= 1.

    Where e * m / d overflows as a double (m from about 6.6e307 on), its
    log is taken as 1 + ln(m / d); everywhere else as ln(e * m / d).  Where
    8 d ln(e m / d) overflows (d from about 1e306 on, near m), the first term's
    square is taken as 8 ln(e m / d) (d / m); everywhere else as that
    product over m.  So every bound that was finite keeps its last bit.
    InvalidParams when d or m is too large for a double.
    """
    delta = float(delta)
    if d < 1 or not 0 < delta < 1:
        raise InvalidParams(f"need d >= 1 and 0 < delta < 1, got d={d}, delta={delta}")
    if m < d:
        raise InvalidParams(f"need m >= d, got m={m}, d={d}")
    try:
        ratio = math.e * m / d
        log_ratio = math.log(ratio) if ratio < math.inf else 1 + math.log(m / d)
        spread = 8 * log_ratio * d  # 8 * d * log_ratio bit for bit, but 8 * d is never made a double
        return math.sqrt(spread / m if spread < math.inf else 8 * log_ratio * (d / m)) + math.sqrt(
            2 * math.log(4 / delta) / m
        )
    except OverflowError:
        raise _unfit("the uniform-convergence bound", f"d={d}", f"m={m}", delta) from None


def uniform_convergence_sample_size(
    d: int, epsilon: float, delta: float, erm_slack: float = 0.0
) -> int:
    """Smallest m >= 3d with uniform_convergence_bound(d, m, delta) <= epsilon - erm_slack.

    The bound is decreasing from 3d onward, so a doubling scan followed by
    binary search finds the exact threshold.  InvalidParams when the scan
    passes the largest double before the bound reaches the target.
    """
    epsilon = float(epsilon)
    erm_slack = float(erm_slack)
    if not 0 <= erm_slack < epsilon:
        raise InvalidParams(f"need 0 <= erm_slack < epsilon, got {erm_slack}, {epsilon}")
    target = epsilon - erm_slack
    lo = 3 * d
    if uniform_convergence_bound(d, lo, delta) <= target:
        return lo
    hi = lo
    while uniform_convergence_bound(d, hi, delta) > target:
        hi *= 2
        if hi > sys.float_info.max:
            raise _unfit("the uniform-convergence sample size", d, epsilon, delta)
    # invariant: bound(lo) > target >= bound(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if uniform_convergence_bound(d, mid, delta) > target:
            lo = mid
        else:
            hi = mid
    return hi


@record
class BoundReport:
    """One audit trial: the bound parameters and the worst observed gap."""

    trial: int
    d: int
    m: int
    delta: float
    bound_value: float
    observed_gap: Fraction

    @property
    def satisfied(self) -> bool:
        return self.observed_gap <= self.bound_value


def empirical_generalization_audit(
    desc: ClassDescriptor,
    dist: FiniteDistribution,
    target: Hypothesis,
    m: int,
    delta: float,
    trials: int,
    seed: int,
) -> list[BoundReport]:
    """Measure, per trial, the worst |true deviation - empirical deviation|.

    For every hypothesis h in the class the deviation is taken between
    |p_h - p_c| on the distribution and |p-hat_h - p-hat_c| on a fresh
    m-point sample; the report compares the maximum over h against the
    uniform-convergence bound.  Proportions are exact; only the bound is a
    float.
    """
    d = vc_dimension(desc)
    if d == math.inf:
        raise InvalidParams("the audit needs a class of finite VC dimension")
    d = max(int(d), 1)  # degenerate classes still get a (loose) valid bound
    bound = uniform_convergence_bound(d, m, delta)
    hypotheses = list(enumerate_class(desc))
    p_c = true_proportion(target, dist)
    true_dev = [abs(true_proportion(h, dist) - p_c) for h in hypotheses]
    reports = []
    for trial in range(trials):
        sample = draw_sample(dist, m, derive_seed(seed, "audit", trial), target)
        worst = Fraction(0)
        for h, dev in zip(hypotheses, true_dev):
            emp_dev = abs(empirical_proportion(h, sample) - sample.p_hat)
            gap = abs(dev - emp_dev)
            if gap > worst:
                worst = gap
        reports.append(BoundReport(trial, int(d), m, float(delta), bound, worst))
    return reports


def audit_satisfied_fraction(reports: list[BoundReport]) -> Fraction:
    if not reports:
        raise InvalidParams("no reports to aggregate")
    return Fraction(sum(r.satisfied for r in reports), len(reports))
