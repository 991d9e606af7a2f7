"""Learners that match a revealed positive fraction.

Each learner returns a LearnerOutcome whose `achieved` field reproduces
exactly under `empirical_proportion` (or `true_proportion` for the
distribution-based gap learner).  Ties are always broken the same way:
smaller residual, then smaller positive count, then lexicographically
smallest canonical encoding (`ranking_key`).  ERM gets it from the brute
oracle's rule: the first witness per count of candidates ascending in
encoding, then the count nearest the target.  The subset-sum and window
learners read the same pick off subset-sum reach bitsets: the reachable
count nearest the target, then the lexicographically least witness.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import add, or_, sub
from typing import Callable, Iterable, Iterator, Sequence

from .core import Sample, record
from .errors import (
    CollisionPersistent,
    DegenerateSample,
    DomainMismatch,
    InvalidNoiseBound,
    InvalidParams,
    UnreachableCount,
)
from .hypotheses import (
    ClassDescriptor,
    ConstantRandom,
    FiniteSubset,
    Halfspace,
    Hypothesis,
    Parity,
    Window,
    DEFAULT_BUDGET,
    _bitset_weigher,
    _labeling_bitsets,
    _least_per_count,
    _nearest_count,
)
from .sampling import _ladder, _ladder_gap, achievable_proportions

__all__ = [
    "LearnerOutcome",
    "improper_learner",
    "gap_learner",
    "gap_values",
    "erm_proportion_matcher",
    "subset_sum_learner",
    "window_learner",
    "halfspace_sweep_learner",
    "noisy_parity_uniform_learner",
    "HALFSPACE_RETRIES",
]

HALFSPACE_RETRIES = 3


@record
class LearnerOutcome:
    """A returned hypothesis plus the exact proportion it achieves.

    `residual` is |achieved - requested proportion|.  `work` holds the
    learner's own effort counters (labelings examined, DP cells touched,
    candidates scanned, or draws used).  `improper` marks outputs outside
    the proper class.
    """

    hypothesis: Hypothesis
    achieved: Fraction
    residual: Fraction
    work: dict[str, int] = field(default_factory=dict)
    improper: bool = False


def improper_learner(sample: Sample) -> LearnerOutcome:
    """Return the constant-random baseline tuned to the revealed fraction.

    Its true proportion equals the revealed p-hat exactly, so the residual
    is 0; accuracy against the hidden target reduces to how close p-hat is
    to the target's true proportion.  The sample checked p-hat when it was
    built, so the baseline is not checked again.
    """
    h = ConstantRandom._at(sample.p_hat)
    return LearnerOutcome(h, sample.p_hat, Fraction(0), {"candidates": 1}, improper=True)


class _GapValues(dict):
    """`gap_values`: achievable true proportion -> witness, with `ladder` and `gap` built on first read.

    `ladder` is (D, the values as counts out of D, ascending), D the lcm of
    their denominators (`sampling._ladder`): what `gap_learner` snaps p_hat on.
    `gap` is `smallest_gap` of the values, read off that ladder
    (`sampling._ladder_gap`) with no second lcm or sort: what `resolve_m`'s
    "gap" mode sizes the sample by.  `of` wraps a plain dict.
    """

    @cached_property
    def ladder(self) -> tuple[int, list[int]]:
        return _ladder(self)

    @cached_property
    def gap(self) -> Fraction:
        return _ladder_gap(*self.ladder)

    @classmethod
    def of(cls, values: dict[Fraction, Hypothesis]) -> _GapValues:
        return values if isinstance(values, cls) else cls(values)


def gap_values(
    desc: ClassDescriptor, dist, budget: int = DEFAULT_BUDGET
) -> dict[Fraction, Hypothesis]:
    """The values `gap_learner` snaps to: achievable true proportion -> witness.

    They depend only on the class and the distribution, so a run of many
    gap trials over one (desc, dist) builds them once and passes them to
    every `gap_learner` call, which reuses the count ladder the first
    call builds on them; `run_trials` keeps them for later runs of the
    same (desc, dist) as well.
    """
    return _GapValues(achievable_proportions(desc, dist, budget))


def gap_learner(
    desc: ClassDescriptor,
    dist,
    p_hat: Fraction,
    budget: int = DEFAULT_BUDGET,
    values: dict[Fraction, Hypothesis] | None = None,
) -> LearnerOutcome:
    """Snap the revealed fraction to the nearest achievable true proportion.

    Works from the known distribution: take the distinct achievable values
    (`values`, else `gap_values(desc, dist, budget)`), pick the one closest
    to p_hat, the smaller on a tie, and return its encoding-minimal witness.
    On the lcm D of their denominators the values are counts v * D out of
    D, so the pick is `_nearest_count`; being distinct, they need no
    encoding tie-break.  The counts are the values' `ladder`, kept on
    `gap_values`' dict and built here for any other.  The residual is
    taken in integers, one Fraction: |count * q - p * D| / (D * q) for
    p_hat = p/q.
    """
    values = gap_values(desc, dist, budget) if values is None else _GapValues.of(values)
    d, counts = values.ladder
    count = _nearest_count(counts, d, p_hat)
    best = Fraction(count, d)
    p, q = p_hat.as_integer_ratio()
    return LearnerOutcome(values[best], best, Fraction(abs(count * q - p * d), d * q), {"candidates": len(values)})


def erm_proportion_matcher(
    desc: ClassDescriptor, sample: Sample, budget: int = DEFAULT_BUDGET
) -> LearnerOutcome:
    """Minimize |count/m - p_hat| over the achievable labelings of the sample.

    Iterates the distinct labelings rather than raw hypotheses, so the work
    is bounded by the growth function instead of the class size.  Each
    labeling comes from the kernel under `distinct_labelings` as an int
    bitset over the unique points, and its positive count is read off the
    multiplicities (`_bitset_weigher`).  The pairs ascend
    in witness encoding; `_best_ranked` keeps the first witness per count
    and takes the count nearest the positive count, so the result is what
    the brute oracle's count table answers to the claim p_hat.  Only the
    winner's witness (a parity mask, a disjunction's or conjunction's
    value, or the hypothesis) becomes a hypothesis, a numbered member
    taken from the member store (`hypotheses._class_member`).
    """
    pairs, build = _labeling_bitsets(desc, sample, budget)
    weigh = _bitset_weigher([c for _, c in sample.packed_counts])
    return _best_ranked(((weigh(vec), w) for vec, w in pairs), sample, "labelings", build)


def _best_ranked(
    candidates: Iterable[tuple[int, object]],
    sample: Sample,
    work: str,
    build: Callable[[object], Hypothesis] | None = None,
) -> LearnerOutcome:
    """The (count, witness) candidate first under `ranking_key`.

    The candidates must arrive in ascending encoding.  `_least_per_count`
    keeps the first, encoding-least witness of each count, and
    `_nearest_count` picks the count nearest the sample's positive count,
    the smaller on a tie: the brute oracle's rule for the claim p_hat.
    `build` runs once, on the winner's witness (returned as it is when
    None).  The outcome is `_at_count`'s; `work[work]` is the number of
    candidates examined.
    """
    first, examined = _least_per_count(candidates)
    count = _nearest_count(sorted(first), sample.m, sample.p_hat)
    w = first[count]
    return _at_count(w if build is None else build(w), count, sample, {work: examined})  # type: ignore[arg-type]


def _at_count(h: Hypothesis, count: int, sample: Sample, work: dict[str, int]) -> LearnerOutcome:
    """`h` labeling `count` of the sample's m points positive: achieved count / m, residual |count - positive count| / m.

    In integers, one Fraction each; an empty sample (count and positive
    count 0) gives 0 for both.
    """
    m = sample.m or 1
    return LearnerOutcome(h, Fraction(count, m), Fraction(abs(count - sample.positive_count), m), work)


def _nat_sample_items(sample: Sample) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct points and their multiplicities: a natural is its own packed form."""
    if sample.domain not in (None, ("nat", None)):
        raise DomainMismatch("this learner needs natural-number points")
    packed = sample.packed_counts
    return tuple(zip(*packed)) if packed else ((), ())  # type: ignore[return-value]


def _suffix_reach(mults: tuple[int, ...]) -> list[int]:
    """Subset sums of each suffix of `mults`, as bitsets.

    Bit s of `reach[i]` is set iff some subset of mults[i:] sums to s.
    Each set is the next one shift-or'ed by the item's multiplicity; no
    sum passes the total of `mults`, so the sets need no mask.
    """
    reach = [0] * (len(mults) + 1)
    reach[-1] = 1
    for i in range(len(mults) - 1, -1, -1):
        below = reach[i + 1]
        reach[i] = below | below << mults[i]
    return reach


def _nearest_bit(reach: int, t: int) -> int:
    """The set bit of `reach` nearest t, the smaller on a tie; bit 0 must be set.

    With t the sample's positive count and p_hat = t/m this is
    `_nearest_count`'s rule over the counts the bits stand for.
    """
    below = (reach & ((2 << t) - 1)).bit_length() - 1
    above = reach >> t
    if above:
        nearest_above = t + (above & -above).bit_length() - 1
        if nearest_above - t < t - below:
            return nearest_above
    return below


def _least_subset(
    points: Sequence[int], mults: Sequence[int], reach: list[int], total: int
) -> list[int]:
    """The lexicographically least list of points whose mults sum to total.

    `reach` is `_suffix_reach(mults)`, and bit total of `reach[0]` must be
    set.  Greedily, each point is taken when the rest
    of the total stays reachable from the points after it; the remainder
    reaching 0 ends the list, since every multiplicity is positive.
    """
    elems: list[int] = []
    for i, a in enumerate(mults):
        if a <= total and reach[i + 1] >> (total - a) & 1:
            elems.append(points[i])
            total -= a
    assert total == 0
    return elems


def subset_sum_learner(sample: Sample) -> LearnerOutcome:
    """Pick the subset of unique points whose multiplicities sum nearest t.

    Reachability is a DP over the sums 0..m, held as bitsets: `reach[i]`
    has bit s set iff some subset of the items i.. sums to s, and is built
    from `reach[i+1]` by one shift-or with item i's multiplicity.  The chosen
    sum is the set bit of `reach[0]` nearest t, the smaller on a tie
    (`_nearest_bit`).  The witness is rebuilt greedily with bit tests
    (`_least_subset`), so it is the lexicographically smallest element list
    among subsets achieving that sum.  `work` reports `dp_cells`, the number
    of reachable (item, sum) cells the DP extended: the sum over i of the
    population count of `reach[i+1]`, at most (m+1) * u, one
    `int.bit_count` per item.  No sum passes m, the total of the
    multiplicities, so the bitsets need no cap.
    """
    points, mults = _nat_sample_items(sample)
    reach = _suffix_reach(mults)
    cells = sum(map(int.bit_count, reach[1:]))
    best_sum = _nearest_bit(reach[0], sample.positive_count)
    elems = _least_subset(points, mults, reach, best_sum)
    return _at_count(FiniteSubset(tuple(elems)), best_sum, sample, {"dp_cells": cells})


def window_learner(sample: Sample, k: int) -> LearnerOutcome:
    """Best span-k window over the sample's values, by subset-sum reach.

    The candidates are the empty window plus, for each unique value v taken
    as the leftmost positive, every subset of its tail, the unique values
    within (v, v+k], joined with v (`_window_candidates` lists them in
    ascending encoding).  The counts reachable with v leftmost are the
    tail's subset sums shifted by v's multiplicity; each tail, of at most
    k values, is folded into one int (`r |= r << a` per value), with no
    suffix list and no mask, since no sum passes m.  Their union with 0
    for the empty window holds every candidate count, and the count is
    the one nearest the positive count, the smaller on a tie
    (`_nearest_bit`).  Its witness is the encoding-least candidate of that
    count: the first v whose reach holds it, then the lexicographically
    least subset of that one tail (`_least_subset` on its
    `_suffix_reach`), which is what ranking the candidates one by one
    keeps.  `work` reports `candidates`, their number 1 + sum of 2^|tail|
    over the unique values, in closed form.
    """
    points, mults = _nat_sample_items(sample)
    ends = [bisect_right(points, v + k, i + 1) for i, v in enumerate(points)]
    reaches = []
    for i, e in enumerate(ends):
        r = 1
        for a in mults[i + 1 : e]:
            r |= r << a
        reaches.append(r << mults[i])
    count = _nearest_bit(reduce(or_, reaches, 1), sample.positive_count)
    elems: tuple[int, ...] = ()
    if count:
        i = next(i for i, r in enumerate(reaches) if r >> count & 1)
        tail = slice(i + 1, ends[i])
        rest = _least_subset(points[tail], mults[tail], _suffix_reach(mults[tail]), count - mults[i])
        elems = (points[i], *rest)
    candidates = 1 + sum(1 << (e - i - 1) for i, e in enumerate(ends))
    return _at_count(Window(k, elems), count, sample, {"candidates": candidates})


def _window_candidates(
    points: tuple[int, ...], mults: tuple[int, ...], k: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every (count, elements) candidate of `window_learner`, ascending in encoding.

    The empty window, then each unique value v in turn with a preorder of
    its tail's subsets whose children pop ascending.  The reference that
    `window_learner`'s reach computation is checked against: ranked by
    `_best_ranked`, it gives the same outcome.
    """
    yield 0, ()
    for i, v in enumerate(points):
        tail = [(points[j], mults[j]) for j in range(i + 1, len(points)) if points[j] <= v + k]
        # depth first, each subset of the tail before its extensions, ascending
        stack = [((v,), mults[i], 0)]
        while stack:
            elems, count, start = stack.pop()
            yield count, elems
            for j in range(len(tail) - 1, start - 1, -1):
                stack.append(((*elems, tail[j][0]), count + tail[j][1], j + 1))


def halfspace_sweep_learner(sample: Sample, seed: int) -> LearnerOutcome:
    """Randomized sweep: project on a random rational normal, cut at a midpoint.

    Draws a normal with 8n-bit dyadic coordinates and projects each packed
    point on it as `Halfspace`'s labeler does, adding the numerators at the
    point's set bits (coordinate 1 the high bit).  Over the distinct
    projections q_0 < ... < q_last, `above` holds the count strictly above
    each cut, from m down to 0, and `cuts` the cuts' numerators over
    2 * denom: 2 q_0 - 2, then q_j + q_j+1, then 2 q_last + 2, so the
    threshold is the midpoint of adjacent projections, or sits one step
    past an extreme for all-or-nothing counts.  The first cut with exactly
    t points (with multiplicity) above it is taken.  When t falls strictly
    inside a block of equal projections the normal is redrawn, up to
    `HALFSPACE_RETRIES` times.  A halfspace labels whole points, so it can
    reach t only if t is a subset sum of the sample's multiplicities: when
    every draw fails, the error is UnreachableCount if that subset-sum
    bitset proves t is not one, else CollisionPersistent (another normal
    might still realize t).
    """
    if sample.domain is None:
        raise DegenerateSample("the sweep learner needs a nonempty sample")
    kind, n = sample.domain
    if kind != "bits":
        raise DomainMismatch("the sweep learner needs bit-vector points")
    B = 8 * n
    t = sample.positive_count
    rng = random.Random(seed)
    denom = 1 << B
    for attempt in range(HALFSPACE_RETRIES + 1):
        nums = [rng.getrandbits(B) for _ in range(n)]
        terms = [(1 << n - 1 - i, a) for i, a in enumerate(nums)]
        groups: dict[int, int] = {}  # projection -> multiplicity
        for x, c in sample.packed_counts:
            proj = sum(a for bit, a in terms if x & bit)
            groups[proj] = groups.get(proj, 0) + c
        ordered = sorted(groups)
        above = list(accumulate(map(groups.__getitem__, ordered), sub, initial=sample.m))
        if t in above:
            cuts = [2 * ordered[0] - 2, *map(add, ordered, ordered[1:]), 2 * ordered[-1] + 2]
            threshold = Fraction(cuts[above.index(t)], 2 * denom)
            normal = tuple(Fraction(a, denom) for a in nums)
            return _at_count(Halfspace(normal, threshold), t, sample, {"draws": attempt + 1})
    reachable = _suffix_reach(tuple(c for _, c in sample.packed_counts))[0] >> t & 1
    failure = CollisionPersistent if reachable else UnreachableCount
    raise failure(f"count {t} of {sample.m} not realizable after {HALFSPACE_RETRIES + 1} draws")


def noisy_parity_uniform_learner(
    p_hat_noisy: Fraction, eta_prime, n: int
) -> LearnerOutcome:
    """Distinguish the trivial parity from the rest under label noise.

    Under the uniform cube a nontrivial parity shows a noisy positive rate
    near 1/2 while the trivial one stays near the noise rate, so thresholding
    the revealed noisy fraction at (eta' + 1/2)/2 picks a side.  Returns the
    all-zero mask below the threshold, else the canonical nontrivial parity
    (only the first bit set).
    """
    bound = Fraction(eta_prime)
    if not 0 <= bound < Fraction(1, 2):
        raise InvalidNoiseBound(f"eta' {bound} outside [0, 1/2)")
    if not 0 <= p_hat_noisy <= 1:
        raise InvalidParams(f"noisy fraction {p_hat_noisy} outside [0, 1]")
    threshold = (bound + Fraction(1, 2)) / 2
    if p_hat_noisy < threshold:
        h = Parity((0,) * n)
        clean = Fraction(0)
    else:
        h = Parity((1,) + (0,) * (n - 1))
        clean = Fraction(1, 2)
    return LearnerOutcome(h, clean, abs(clean - p_hat_noisy), {"candidates": 2})
