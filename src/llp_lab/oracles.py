"""Exhaustive solvers used as ground truth and as stand-in proportion oracles.

Deliberately naive searches with hard budget caps: a partial search would
poison every test that trusts these as reference answers, so anything too
large raises BudgetExceeded instead of truncating.  All tie-breaks follow
the learners' global ranking (residual, positive count, canonical encoding)
so equivalence tests can assert exact witness equality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .bounds import _unfit
from .core import Sample, record
from .errors import BudgetExceeded, InvalidParams
from .hypotheses import (
    ClassDescriptor,
    Hypothesis,
    _count_table,
    _nearest_count,
    class_size,
    enumerate_class,
    hypothesis_to_json,
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


@record
class BruteForceReport:
    """What a brute-force search decided and how much it looked at."""

    decision: bool | None
    witness: object | None
    examined: int
    optimum: int | None = None

    def to_json(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        elif witness is not None:
            witness = hypothesis_to_json(witness)  # type: ignore[arg-type]  # TypeError unless a hypothesis
        return {
            "decision": self.decision,
            "witness": witness,
            "examined": self.examined,
            "optimum": self.optimum,
        }


# ---------------------------------------------------------------------------
# exhaustive proportion matching (the stand-in oracle)


def _best_count(table: dict[int, Hypothesis], m: int, claimed: Fraction) -> int:
    """Reference answer to a claim: the count nearest claimed * m, ties to the smaller.

    Scans the whole table in Fraction arithmetic; `_nearest_count` is the
    integer bisection the oracle uses, and tests check it against this.
    """
    return min(table, key=lambda c: (abs(Fraction(c, m) - claimed) if m else Fraction(0), c))


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
    proportion within eps of the target's.  InvalidParams when the size
    is not a finite double, as the sizes of `bounds` raise it.
    """
    try:
        eps = float(epsilon)
        d = float(delta)
        if not (0 < eps and 0 < d < 1):
            raise InvalidParams(f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}")
        return math.ceil(2 * math.log(2 * class_size(desc) / d) / eps**2)
    except (OverflowError, ZeroDivisionError):
        raise _unfit("the ERM oracle sample size", epsilon, delta) from None


def make_brute_oracle(
    desc: ClassDescriptor, mode: str = "arbitrary", budget: int = BRUTE_BUDGET
) -> LLPOracle:
    """Package the exhaustive matcher as a proportion oracle.

    The count table depends only on the sample's multiset, and reduction
    sweeps re-claim many proportions over one sample, so the latest table
    and its sorted counts are kept and reused while samples with the same
    key (`Sample._table_key`) keep arriving: (domain, packed counts), or
    for a masked sample (the noisy-parity sweep's) (domain, draws, keep
    bitset), so its packed counts are never built here.  A sweep's claim samples
    share one packed-counts object, or one draws object and keep, and the
    identity test settles it; equal keys from distinct samples still match
    by value.  The domain is part of the key: equal packed ints from bit
    vectors of different lengths are different points, and the rebuild
    raises DomainMismatch where the class does not fit.  `_count_table`
    hands the table to the class's row, which walks the class's distinct
    labelings and weighs each, except for two forms of sample that give
    the same items in the same order another way: for a nonempty masked
    sample of a parity class, each labeling of the span of its draws'
    columns, ANDed with the keep bitset, is weighed by a popcount; for a
    disjunction or conjunction class whose 2^n cube cells are at most 8
    per distinct sample point, one superset-sum transform of the
    multiplicities over the cells gives every member's count at once.  A
    table holds one witness per count, and a numbered class's witnesses
    come from the process's member store (`hypotheses._class_member`):
    each member is built once, so a fresh oracle over a class already met
    builds none.

    Each `solve` then costs O(log T) integer work, T the number of
    distinct counts: a bisection for the nearest count (`_nearest_count`,
    the rule ERM ranks by, so ERM's answer is the oracle's answer to the
    claim p_hat) and, in "reject" mode, one cross-multiplied equality test.

    `sweep(sample, ...)` answers a whole ladder j/m, j = 0..m, over the
    base `sample` (`LLPOracle`) from the same table as
    at most 2T + 1 runs, so a ladder costs O(T) after the table where
    claim-by-claim `solve` costs O(m log T).  In "arbitrary" mode count
    c_i answers the claims up to min(m, (c_i + c_(i+1)) // 2), so a tie
    goes to the smaller count, as in `_nearest_count`; in "reject" mode
    claim j gets count j's hypothesis when j is a count and None otherwise.
    """
    if mode not in ("arbitrary", "reject"):
        raise InvalidParams(f"unknown mode {mode!r}")
    reject = mode == "reject"
    held: tuple | None = None  # the key of the sample `table` and `counts` were built from
    table: dict[int, Hypothesis] = {}
    counts: list[int] = []

    def hold(sample: Sample) -> None:
        nonlocal held, table, counts
        key = sample._table_key
        if key != held:  # a tuple compares its items by identity first
            table = _count_table(desc, sample, budget)
            held, counts = key, sorted(table)

    def solve(
        sample: Sample, claimed: Fraction, epsilon: Fraction, delta: Fraction
    ) -> Hypothesis | None:
        hold(sample)
        if not isinstance(claimed, Fraction):
            claimed = Fraction(claimed)
        best = _nearest_count(counts, sample.m, claimed)
        if reject and not _matches(best, sample.m, claimed):
            return None
        return table[best]

    def sweep(sample: Sample, epsilon: Fraction, delta: Fraction) -> Iterator[tuple[int, int, Hypothesis | None]]:
        hold(sample)
        m = sample.m
        answers, ladder = table, counts  # a later `hold` may replace them
        if not m:  # the single claim 0 matches any count
            yield 0, 0, answers[ladder[0]]
            return
        first = 0
        if reject:
            for c in ladder:
                if c > first:
                    yield first, c - 1, None
                yield c, c, answers[c]
                first = c + 1
            if first <= m:
                yield first, m, None
            return
        for c, above in zip(ladder, ladder[1:] + [2 * m]):  # 2m past the top count sends it to m
            last = min(m, (c + above) // 2)
            yield first, last, answers[c]
            first = last + 1

    sweep.solve = solve  # type: ignore[attr-defined]
    return LLPOracle(solve, lambda eps, d: erm_oracle_sample_size(desc, eps, d), sweep)


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


def _subset_sums(items: list[int]) -> list[int]:
    """Every subset sum of `items`, indexed by inclusion bitmask (bit i for item i)."""
    sums = [0]
    for a in items:
        sums += [s + a for s in sums]
    return sums


def _include_earliest(masks: list[int], bits: int) -> int:
    """The mask a greedy pick keeps: with bit 0 if any mask has it, then bit 1, and so on."""
    for i in range(bits):
        with_bit = [x for x in masks if x >> i & 1]
        if with_bit:
            masks = with_bit
    return masks[0]


def brute_subset_sum(counts: Iterable[int], t: int, budget: int = BRUTE_BUDGET) -> BruteForceReport:
    """All-subsets reference for the nat-domain proportion learner's DP.

    Covers all 2**u subsets by meeting in the middle (Horowitz & Sahni,
    JACM 21(2), 1974): every sum of the first h = u // 2 items and every sum
    of the rest, each list indexed by inclusion bitmask.  The optimum is the
    least (|sum - t|, sum) over all pairs, found by bisecting the sorted
    right-half sums once per left-half sum.  The witness is the greedy
    include-earliest subset of that sum, matching the DP learner's rule: the
    left-half mask picked over bits 0..h-1 among those that reach it, then
    the right-half mask.  Independent of the learner's reach DP, which it
    checks.
    """
    items = list(counts)
    if any(type(a) is not int or a < 1 for a in items):
        raise InvalidParams(f"counts must be positive integers, got {items!r}")
    if type(t) is not int or t < 0:
        raise InvalidParams(f"target must be a nonnegative integer, got {t!r}")
    u = len(items)
    if u > 24 or 1 << u > budget:
        raise BudgetExceeded(f"{u} items means {1 << u} subsets")
    h = u // 2
    left, right = _subset_sums(items[:h]), _subset_sums(items[h:])
    reach = set(right)
    ranked = sorted(reach)
    best = (t, 0)  # (|sum - t|, sum), here of the empty subset
    for a in set(left):
        i = bisect_right(ranked, t - a)  # the nearest right sums: ranked[i - 1] <= t - a < ranked[i]
        if i:
            best = min(best, (t - a - ranked[i - 1], a + ranked[i - 1]))
        if i < len(ranked):
            best = min(best, (a + ranked[i] - t, a + ranked[i]))
    best_gap, best_sum = best
    lmask = _include_earliest([x for x, a in enumerate(left) if best_sum - a in reach], h)
    rest = best_sum - left[lmask]
    rmask = _include_earliest([x for x, b in enumerate(right) if b == rest], u - h)
    mask = lmask | rmask << h
    witness = tuple(i for i in range(u) if mask >> i & 1)
    return BruteForceReport(None, witness, 1 << u, optimum=best_gap)
