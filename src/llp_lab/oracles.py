"""Exhaustive solvers used as ground truth and as stand-in proportion oracles.

Deliberately naive searches with hard budget caps: a partial search would
poison every test that trusts these as reference answers, so anything too
large raises BudgetExceeded instead of truncating.  All tie-breaks follow
the learners' global ranking (residual, positive count, canonical encoding)
so equivalence tests can assert exact witness equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import numpy as np

from .core import Sample
from .errors import BudgetExceeded
from .hypotheses import (
    ClassDescriptor,
    Hypothesis,
    class_size,
    enumerate_class,
    hypothesis_to_json,
    positive_weight,
)
from .reductions import (
    ConsistencyInstance,
    EPSCInstance,
    LLPOracle,
    X3CInstance,
    hits_exactly,
)

__all__ = [
    "BRUTE_BUDGET",
    "BruteForceReport",
    "brute_llp_oracle",
    "make_brute_oracle",
    "brute_consistency",
    "brute_epsc",
    "brute_x3c",
    "brute_subset_sum",
]

BRUTE_BUDGET = 1 << 24


@dataclass(frozen=True)
class BruteForceReport:
    """What a brute-force search decided and how much it looked at."""

    decision: bool | None
    witness: object | None
    examined: int
    optimum: int | None = None

    def to_json(self) -> dict:
        if isinstance(self.witness, (Sample, dict)):
            raise TypeError(f"unserializable witness {self.witness!r}")
        witness: object | None
        if self.witness is None:
            witness = None
        elif isinstance(self.witness, tuple):
            witness = list(self.witness)
        else:
            witness = hypothesis_to_json(self.witness)  # type: ignore[arg-type]
        return {
            "decision": self.decision,
            "witness": witness,
            "examined": self.examined,
            "optimum": self.optimum,
        }


# ---------------------------------------------------------------------------
# exhaustive proportion matching (the stand-in oracle)


def _count_table(
    desc: ClassDescriptor, sample: Sample, budget: int
) -> dict[int, Hypothesis]:
    """Positive count -> encoding-minimal hypothesis achieving it.

    Enumeration is ascending in canonical encoding, so the first hypothesis
    seen with a given count is the smallest one, which is exactly what the
    global tie-break needs.
    """
    table: dict[int, Hypothesis] = {}
    domain, counts = sample.domain, sample.packed_counts
    for h in enumerate_class(desc, budget):
        table.setdefault(positive_weight(h, domain, counts), h)
    return table


def _best_count(table: dict[int, Hypothesis], m: int, claimed: Fraction) -> int:
    """Reference answer to a claim: the count nearest claimed * m, ties to the smaller.

    Scans the whole table in Fraction arithmetic; `_nearest_count` is the
    integer bisection the oracle uses, and tests check it against this.
    """
    return min(table, key=lambda c: (abs(Fraction(c, m) - claimed) if m else Fraction(0), c))


def _nearest_count(sorted_counts: list[int], m: int, claimed: Fraction) -> int:
    """The count `_best_count` picks, found by bisection in integers.

    For a claim p/q the distance of count c is |c*q - p*m| / (m*q), so only
    the largest count below p*m/q and the smallest at or above it can win;
    a tie goes to the smaller one.  With m = 0 every distance is 0 and the
    smallest count wins.
    """
    if not m:
        return sorted_counts[0]
    p, q = claimed.numerator, claimed.denominator
    target = p * m
    i = bisect_left(sorted_counts, -(-target // q))
    if i == len(sorted_counts):
        return sorted_counts[-1]
    above = sorted_counts[i]
    if i == 0:
        return above
    below = sorted_counts[i - 1]
    return below if target - below * q <= above * q - target else above


def _matches(count: int, m: int, claimed: Fraction) -> bool:
    """count / m == claimed, in integers (an empty sample's proportion is 0)."""
    if not m:
        return claimed.numerator == 0
    return count * claimed.denominator == claimed.numerator * m


def brute_llp_oracle(
    desc: ClassDescriptor,
    sample: Sample,
    claimed_p_hat: Fraction,
    epsilon: Fraction,
    delta: Fraction,
    mode: str = "arbitrary",
    budget: int = BRUTE_BUDGET,
) -> Hypothesis | None:
    """Full-enumeration proportion matcher over a finite class.

    Returns the hypothesis whose positive fraction on the sample is closest
    to the claimed one, ties broken by count then encoding.  In "reject"
    mode a claim that no hypothesis matches exactly returns None instead;
    both behaviors are legitimate for an oracle fed a wrong proportion.
    epsilon and delta are part of the call contract but an exhaustive
    search has no use for them.  One call of a fresh `make_brute_oracle`.
    """
    return make_brute_oracle(desc, mode, budget).solve(sample, claimed_p_hat, epsilon, delta)


def erm_oracle_sample_size(desc: ClassDescriptor, epsilon, delta) -> int:
    """Draws after which exhaustive matching meets the proportion guarantee.

    For a finite class, Hoeffding plus a union bound gives
    sup_h |p_hat_h - p_h| <= eps/2 with probability 1 - delta once
    m >= 2 ln(2|H|/delta) / eps^2; an exact empirical match then has true
    proportion within eps of the target's.
    """
    eps = float(epsilon)
    d = float(delta)
    if not (0 < eps and 0 < d < 1):
        raise ValueError(f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}")
    return math.ceil(2 * math.log(2 * class_size(desc) / d) / eps**2)


def make_brute_oracle(
    desc: ClassDescriptor, mode: str = "arbitrary", budget: int = BRUTE_BUDGET
) -> LLPOracle:
    """Package the exhaustive matcher as a proportion oracle.

    The count table depends only on the sample's points, and reduction
    sweeps re-claim many proportions over one drawn tuple, so the latest
    table and its sorted counts are kept and reused while the same points
    object keeps arriving.  Each claim then costs O(log T) integer work,
    T the number of distinct counts: a bisection for the nearest count and,
    in "reject" mode, one cross-multiplied equality test.
    """
    if mode not in ("arbitrary", "reject"):
        raise ValueError(f"unknown mode {mode!r}")
    memo: dict[str, object] = {"points": None, "table": None, "counts": None}

    def solve(
        sample: Sample, claimed: Fraction, epsilon: Fraction, delta: Fraction
    ) -> Hypothesis | None:
        if memo["points"] is not sample.points:
            built = _count_table(desc, sample, budget)
            memo.update(points=sample.points, table=built, counts=sorted(built))
        table: dict[int, Hypothesis] = memo["table"]  # type: ignore[assignment]
        if not isinstance(claimed, Fraction):
            claimed = Fraction(claimed)
        best = _nearest_count(memo["counts"], sample.m, claimed)  # type: ignore[arg-type]
        if mode == "reject" and not _matches(best, sample.m, claimed):
            return None
        return table[best]

    return LLPOracle(solve, lambda eps, d: erm_oracle_sample_size(desc, eps, d))


# ---------------------------------------------------------------------------
# decision problems


def brute_consistency(inst: ConsistencyInstance, budget: int = BRUTE_BUDGET) -> BruteForceReport:
    """Scan the whole class for a hypothesis hitting exactly k."""
    examined = 0
    for h in enumerate_class(inst.desc, budget):
        examined += 1
        if hits_exactly(inst, h):
            return BruteForceReport(True, h, examined)
    return BruteForceReport(False, None, examined)


def brute_epsc(inst: EPSCInstance, budget: int = BRUTE_BUDGET) -> BruteForceReport:
    """Try all subfamilies, smallest first, for a union of size exactly k."""
    s = len(inst.subsets)
    if s > 24 or 1 << s > budget:
        raise BudgetExceeded(f"{s} subsets means {1 << s} subfamilies")
    examined = 0
    for r in range(s + 1):
        for picks in combinations(range(s), r):
            examined += 1
            union: set[int] = set()
            for i in picks:
                union |= inst.subsets[i]
            if len(union) == inst.k:
                return BruteForceReport(True, picks, examined)
    return BruteForceReport(False, None, examined)


def brute_x3c(inst: X3CInstance, budget: int = BRUTE_BUDGET) -> BruteForceReport:
    """Try all size-t subcollections for an exact cover."""
    s = len(inst.triples)
    t = inst.t
    if t > s:
        return BruteForceReport(False, None, 0)
    if math.comb(s, t) > budget:
        raise BudgetExceeded(f"comb({s},{t}) candidate subcollections")
    universe = set(inst.universe)
    examined = 0
    for picks in combinations(range(s), t):
        examined += 1
        union: set[int] = set()
        total = 0
        for i in picks:
            union |= inst.triples[i]
            total += 3
        if total == len(union) == len(universe):
            return BruteForceReport(True, picks, examined)
    return BruteForceReport(False, None, examined)


# ---------------------------------------------------------------------------
# subset sum


def brute_subset_sum(counts: Iterable[int], t: int, budget: int = BRUTE_BUDGET) -> BruteForceReport:
    """All-subsets reference for the nat-domain proportion learner's DP.

    Enumerates every subset sum with a doubling concat (index = inclusion
    bitmask, bit i for item i), takes the minimum of (|sum - t|, sum), and
    picks the witness whose sorted item-index list is lexicographically
    least, matching the DP learner's greedy include-earliest rule.
    """
    items = list(counts)
    if any(not isinstance(a, int) or a < 1 for a in items):
        raise ValueError(f"counts must be positive integers, got {items!r}")
    if t < 0:
        raise ValueError(f"target must be nonnegative, got {t}")
    u = len(items)
    if u > 24 or 1 << u > budget:
        raise BudgetExceeded(f"{u} items means {1 << u} subsets")
    sums = np.zeros(1, dtype=np.int64)
    for a in items:
        sums = np.concatenate([sums, sums + a])
    gaps = np.abs(sums - t)
    best_gap = int(gaps.min())
    at_gap = sums[gaps == best_gap]
    best_sum = int(at_gap.min())
    candidates = np.nonzero(sums == best_sum)[0]
    for i in range(u):
        with_bit = candidates[(candidates >> i) & 1 == 1]
        if with_bit.size and with_bit.size < candidates.size:
            candidates = with_bit
    mask = int(candidates[0])
    witness = tuple(i for i in range(u) if (mask >> i) & 1)
    return BruteForceReport(None, witness, 1 << u, optimum=best_gap)
