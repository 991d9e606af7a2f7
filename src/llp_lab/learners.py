"""Learners that match a revealed positive fraction.

Each learner returns a LearnerOutcome whose `achieved` field reproduces
exactly under `empirical_proportion` (or `true_proportion` for the
distribution-based gap learner).  Ties are always broken the same way:
smaller residual, then smaller positive count, then lexicographically
smallest canonical encoding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Sample
from .errors import (
    CollisionPersistent,
    DegenerateSample,
    DomainMismatch,
    InvalidNoiseBound,
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
    distinct_labelings,
    encode,
)
from .sampling import achievable_proportions

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
    "halfspace_precision_bits",
]

HALFSPACE_RETRIES = 3


@dataclass(frozen=True)
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


def _target_count(sample: Sample) -> int:
    return sample.positive_count


def improper_learner(sample: Sample) -> LearnerOutcome:
    """Return the constant-random baseline tuned to the revealed fraction.

    Its true proportion equals the revealed p-hat exactly, so the residual
    is 0; accuracy against the hidden target reduces to how close p-hat is
    to the target's true proportion.
    """
    h = ConstantRandom(sample.p_hat)
    return LearnerOutcome(h, sample.p_hat, Fraction(0), {"candidates": 1}, improper=True)


def gap_values(
    desc: ClassDescriptor,
    dist,
    ground_set: tuple[int, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[Fraction, Hypothesis]:
    """The values `gap_learner` snaps to: achievable true proportion -> witness.

    They depend only on the class and the distribution, so a run of many
    gap trials over one (desc, dist) builds them once and passes them to
    every `gap_learner` call.  `ground_set` replaces the class's ground set.
    """
    if ground_set is not None:
        desc = ClassDescriptor(
            desc.class_id, desc.n, desc.restriction, desc.k, tuple(sorted(ground_set))
        )
    return achievable_proportions(desc, dist, budget)


def gap_learner(
    desc: ClassDescriptor,
    dist,
    p_hat: Fraction,
    ground_set: tuple[int, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
    values: dict[Fraction, Hypothesis] | None = None,
) -> LearnerOutcome:
    """Snap the revealed fraction to the nearest achievable true proportion.

    Works from the known distribution: enumerate the class, collect the
    distinct achievable proportion values, pick the value closest to p_hat
    (ties resolved to the smaller value), and return its encoding-minimal
    witness.  `values`, when given, is `gap_values(desc, dist, ground_set,
    budget)` built earlier, and replaces the enumeration.
    """
    if values is None:
        values = gap_values(desc, dist, ground_set, budget)
    best_value = min(values, key=lambda v: (abs(v - p_hat), v))
    h = values[best_value]
    return LearnerOutcome(
        h, best_value, abs(best_value - p_hat), {"candidates": len(values)}
    )


def erm_proportion_matcher(
    desc: ClassDescriptor, sample: Sample, budget: int = DEFAULT_BUDGET
) -> LearnerOutcome:
    """Minimize |count/m - p_hat| over the achievable labelings of the sample.

    Iterates the distinct-labeling stream rather than raw hypotheses, so the
    work is bounded by the growth function instead of the class size.
    """
    mults = tuple(c for _, c in sample.counts)
    m = sample.m
    t = _target_count(sample)
    best: tuple[Fraction, int, str] | None = None
    best_h: Hypothesis | None = None
    best_count = 0
    examined = 0
    for labeling, witness in distinct_labelings(desc, sample, budget):
        examined += 1
        count = sum(c for bit, c in zip(labeling, mults) if bit)
        residual = Fraction(abs(count - t), m) if m else Fraction(0)
        key = (residual, count, encode(witness))
        if best is None or key < best:
            best = key
            best_h = witness
            best_count = count
    assert best_h is not None and best is not None
    achieved = Fraction(best_count, m) if m else Fraction(0)
    return LearnerOutcome(best_h, achieved, best[0], {"labelings": examined})


def _nat_sample_items(sample: Sample) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if sample.domain not in (None, ("nat", None)):
        raise DomainMismatch("this learner needs natural-number points")
    points = tuple(p for p, _ in sample.counts)  # type: ignore[misc]
    mults = tuple(c for _, c in sample.counts)
    return points, mults  # type: ignore[return-value]


def subset_sum_learner(sample: Sample) -> LearnerOutcome:
    """Pick the subset of unique points whose multiplicities sum nearest t.

    Reachability is a DP over sums 0..m processed item by item (at most
    (m+1) * u cell touches, reported in `work`); the witness is rebuilt
    greedily so it is the lexicographically smallest element list among
    subsets achieving the chosen sum.
    """
    points, mults = _nat_sample_items(sample)
    m = sample.m
    t = _target_count(sample)
    u = len(points)
    cells = 0
    # reach[i] = sums achievable using items i.. (suffixes enable the greedy
    # lex-minimal reconstruction below)
    reach: list[set[int]] = [set() for _ in range(u + 1)]
    reach[u] = {0}
    for i in range(u - 1, -1, -1):
        grown = set(reach[i + 1])
        a = mults[i]
        for s in reach[i + 1]:
            if s + a <= m:
                grown.add(s + a)
        cells += len(reach[i + 1])
        reach[i] = grown
    best_sum = min(reach[0], key=lambda s: (abs(s - t), s))
    elems: list[int] = []
    current = best_sum
    for i in range(u):
        a = mults[i]
        if a <= current and (current - a) in reach[i + 1]:
            elems.append(points[i])
            current -= a
    assert current == 0
    achieved = Fraction(best_sum, m) if m else Fraction(0)
    residual = abs(achieved - sample.p_hat)
    return LearnerOutcome(FiniteSubset(tuple(elems)), achieved, residual, {"dp_cells": cells})


def window_learner(sample: Sample, k: int) -> LearnerOutcome:
    """Best span-k window over the sample's values.

    Candidates are the empty window plus, for each unique value v taken as
    the leftmost positive, every subset of the unique values within
    (v, v+k] joined with v: O(2^k) candidates per unique value.
    """
    points, mults = _nat_sample_items(sample)
    m = sample.m
    t = _target_count(sample)
    best_key: tuple[Fraction, int, str] | None = None
    best_h: Hypothesis | None = None
    best_count = 0
    examined = 0

    def consider(elems: tuple[int, ...], count: int) -> None:
        nonlocal best_key, best_h, best_count, examined
        examined += 1
        h = Window(k, elems)
        residual = Fraction(abs(count - t), m) if m else Fraction(0)
        key = (residual, count, encode(h))
        if best_key is None or key < best_key:
            best_key, best_h, best_count = key, h, count

    consider((), 0)
    for i, v in enumerate(points):
        tail = [(points[j], mults[j]) for j in range(i + 1, len(points)) if points[j] <= v + k]

        def extend(prefix: list[int], count: int, start: int) -> None:
            consider((v, *prefix), count)
            for j in range(start, len(tail)):
                prefix.append(tail[j][0])
                extend(prefix, count + tail[j][1], j + 1)
                prefix.pop()

        extend([], mults[i], 0)
    assert best_h is not None and best_key is not None
    achieved = Fraction(best_count, m) if m else Fraction(0)
    return LearnerOutcome(best_h, achieved, best_key[0], {"candidates": examined})


def halfspace_precision_bits(n: int) -> int:
    return 8 * n


def halfspace_sweep_learner(
    sample: Sample,
    seed: int,
    retries: int = HALFSPACE_RETRIES,
    precision_bits: int | None = None,
) -> LearnerOutcome:
    """Randomized sweep: project on a random rational normal, cut at a midpoint.

    Draws a normal with B-bit dyadic coordinates, sorts the distinct
    projection values, and looks for a boundary where exactly t points (with
    multiplicity) land strictly above; the threshold is the midpoint of the
    adjacent projections (or sits past the extremes for all-or-nothing
    counts).  When t falls strictly inside a block of equal projections the
    normal is redrawn, up to `retries` times: a block of one repeated point
    can never be split (UnreachableCount), distinct points sharing a
    projection might be (CollisionPersistent).
    """
    if sample.domain is None:
        raise DegenerateSample("the sweep learner needs a nonempty sample")
    kind, n = sample.domain
    if kind != "bits":
        raise DomainMismatch("the sweep learner needs bit-vector points")
    B = precision_bits if precision_bits is not None else halfspace_precision_bits(n)
    m = sample.m
    t = _target_count(sample)
    rng = random.Random(seed)
    denom = 1 << B
    failure: type[Exception] = UnreachableCount
    for attempt in range(retries + 1):
        nums = [rng.getrandbits(B) for _ in range(n)]
        groups: dict[int, tuple[int, int]] = {}  # projection -> (mult, distinct points)
        for point, c in sample.counts:
            proj = sum(nums[i] for i in range(n) if point[i])  # type: ignore[index]
            mult, kinds = groups.get(proj, (0, 0))
            groups[proj] = (mult + c, kinds + 1)
        ordered = sorted(groups.items())  # ascending projection
        above = m
        boundaries = [(m, None)]  # (count strictly above, index of gap below q_j)
        for j, (proj, (mult, _)) in enumerate(ordered):
            above -= mult
            boundaries.append((above, j))
        hit = next((gap for count, gap in boundaries if count == t), -1)
        if hit != -1 or t == m:
            if t == m:
                threshold = Fraction(ordered[0][0] - 1, denom)
            elif hit == len(ordered) - 1:
                threshold = Fraction(ordered[-1][0] + 1, denom)
            else:
                q_low = ordered[hit][0]  # type: ignore[index]
                q_high = ordered[hit + 1][0]  # type: ignore[index]
                threshold = Fraction(q_low + q_high, 2 * denom)
            normal = tuple(Fraction(c, denom) for c in nums)
            h = Halfspace(normal, threshold)
            achieved = Fraction(t, m) if m else Fraction(0)
            return LearnerOutcome(
                h, achieved, abs(achieved - sample.p_hat), {"draws": attempt + 1}
            )
        # classify this attempt's failure: which block straddles t?
        above = m
        for proj, (mult, kinds) in ordered:
            if above - mult < t < above:
                failure = UnreachableCount if kinds == 1 else CollisionPersistent
                break
            above -= mult
    raise failure(f"count {t} of {m} not realizable after {retries + 1} draws")


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
        raise ValueError(f"noisy fraction {p_hat_noisy} outside [0, 1]")
    threshold = (bound + Fraction(1, 2)) / 2
    if p_hat_noisy < threshold:
        h = Parity((0,) * n)
        clean = Fraction(0)
    else:
        h = Parity((1,) + (0,) * (n - 1))
        clean = Fraction(1, 2)
    return LearnerOutcome(h, clean, abs(clean - p_hat_noisy), {"candidates": 2})
