"""Reductions between proportion-learning, consistency search, and exact cover.

Each harness takes an explicit seed and records every oracle invocation
(the proportion fed and the response) so runs can be audited and replayed.
Witness checks are always performed directly on the original instance, never
trusted from the oracle.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from .core import (
    ExplicitDistribution,
    Point,
    Sample,
    _pack,
    _random_cut,
    _sample_trusted,
    check_same_domain,
    derive_seed,
    draw_counts,
    iter_cube,
    make_distribution,
    point_from_json,
    point_to_json,
    points_from_counts,
)
from .errors import (
    DegenerateSample,
    DomainMismatch,
    InvalidAuxiliaryCount,
    InvalidNoiseBound,
    NoCandidateAccepted,
    OracleReject,
)
from .hypotheses import (
    ClassDescriptor,
    Hypothesis,
    Parity,
    class_descriptor_from_json,
    class_descriptor_to_json,
    evaluate,
    hypothesis_to_json,
    labeler,
    positive_weight,
)
from .sampling import draw_labeled_points

__all__ = [
    "LLPOracle",
    "OracleCall",
    "X3CInstance",
    "EPSCInstance",
    "ConsistencyInstance",
    "NoisyParitySetup",
    "PacRun",
    "ConsistencyRun",
    "NoisyParityRun",
    "llp_to_pac",
    "consistency_via_llp",
    "noisy_parity_via_llp",
    "noisy_parity_sample_size",
    "conditional_positive_distribution",
    "x3c_to_epsc",
    "epsc_to_disjunction_consistency",
    "epsc_to_conjunction_consistency",
]


# ---------------------------------------------------------------------------
# the oracle contract


@dataclass(frozen=True)
class LLPOracle:
    """A proportion learner offered as a black box.

    `solve(sample, claimed_p_hat, epsilon, delta)` returns a hypothesis or
    None (a refusal).  `sample_size(epsilon, delta)` is the oracle's own
    declared requirement: feed it at least that many draws and, when the
    claimed proportion is the sample's true one, the returned hypothesis has
    true proportion within epsilon of the target's with probability
    1 - delta.
    """

    solve: Callable[[Sample, Fraction, Fraction, Fraction], Hypothesis | None]
    sample_size: Callable[[Fraction, Fraction], int]


@dataclass(frozen=True)
class OracleCall:
    """Transcript line: the proportion fed and what came back."""

    claimed: Fraction
    response: Hypothesis | None
    accepted: bool | None = None

    def to_json(self) -> dict:
        return {
            "claimed_num": self.claimed.numerator,
            "claimed_den": self.claimed.denominator,
            "response": None if self.response is None else hypothesis_to_json(self.response),
            "accepted": self.accepted,
        }


# ---------------------------------------------------------------------------
# instance types


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: universe of size 3t, subsets of size exactly 3."""

    universe: tuple[int, ...]
    triples: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", tuple(frozenset(s) for s in self.triples))
        u = set(self.universe)
        if len(u) != len(self.universe) or len(u) % 3 != 0 or not u:
            raise ValueError("universe must be distinct and of size 3t, t >= 1")
        for s in self.triples:
            if len(s) != 3 or not s <= u:
                raise ValueError(f"triple {sorted(s)} is not a 3-subset of the universe")

    @property
    def t(self) -> int:
        return len(self.universe) // 3

    def to_json(self) -> dict:
        return {
            "universe": sorted(self.universe),
            "triples": [sorted(s) for s in self.triples],
        }

    @staticmethod
    def from_json(obj: dict) -> "X3CInstance":
        return X3CInstance(
            tuple(obj["universe"]), tuple(frozenset(s) for s in obj["triples"])
        )


@dataclass(frozen=True)
class EPSCInstance:
    """Does some subfamily union to exactly k elements?

    `k` outside 0..|universe| is legal and trivially unsatisfiable; cover
    instances translated from too few triples land there.
    """

    universe: tuple[int, ...]
    subsets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsets", tuple(frozenset(s) for s in self.subsets))
        u = set(self.universe)
        if len(u) != len(self.universe) or not u:
            raise ValueError("universe must be nonempty and distinct")
        for s in self.subsets:
            if not s <= u:
                raise ValueError(f"subset {sorted(s)} not inside the universe")
        if not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")

    def to_json(self) -> dict:
        return {
            "universe": sorted(self.universe),
            "subsets": [sorted(s) for s in self.subsets],
            "k": self.k,
        }

    @staticmethod
    def from_json(obj: dict) -> "EPSCInstance":
        return EPSCInstance(
            tuple(obj["universe"]), tuple(frozenset(s) for s in obj["subsets"]), obj["k"]
        )


@dataclass(frozen=True)
class ConsistencyInstance:
    """Is some class member positive on exactly k of the weighted points?

    `k` outside 0..total is legal and trivially unsatisfiable, mirroring
    EPSCInstance so the cover reduction chain stays total.
    """

    desc: ClassDescriptor
    points: tuple[Point, ...]
    mults: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.points) != len(self.mults) or not self.points:
            raise ValueError("points and mults must align and be nonempty")
        if list(self.points) != sorted(set(self.points)):
            raise ValueError("points must be unique and sorted")
        if any(a < 1 for a in self.mults):
            raise ValueError("multiplicities must be >= 1")
        if not isinstance(self.k, int):
            raise ValueError(f"k must be an integer, got {self.k!r}")

    @property
    def total(self) -> int:
        return sum(self.mults)

    @cached_property
    def packed(self) -> tuple[tuple[str, int | None] | None, tuple[tuple[int, int], ...]]:
        """(domain, (packed point, multiplicity) pairs), the points checked once on first use."""
        return check_same_domain(self.points), tuple(zip(map(_pack, self.points), self.mults))

    def to_json(self) -> dict:
        return {
            "class": class_descriptor_to_json(self.desc),
            "points": [point_to_json(p) for p in self.points],
            "mult": list(self.mults),
            "k": self.k,
        }

    @staticmethod
    def from_json(obj: dict) -> "ConsistencyInstance":
        return ConsistencyInstance(
            class_descriptor_from_json(obj["class"]),
            tuple(point_from_json(p) for p in obj["points"]),
            tuple(obj["mult"]),
            obj["k"],
        )


def hits_exactly(inst: ConsistencyInstance, h: Hypothesis) -> bool:
    """Direct witness check: weighted positive count equals k."""
    return positive_weight(h, *inst.packed) == inst.k


# ---------------------------------------------------------------------------
# proportion oracle -> exact learning of a labeled sample


@dataclass(frozen=True)
class PacRun:
    hypothesis: Hypothesis
    reweighted: ExplicitDistribution
    epsilon: Fraction
    drawn: int
    transcript: tuple[OracleCall, ...]


def reweighted_distribution(
    labeled: Iterable[tuple[Point, int]]
) -> tuple[ExplicitDistribution, dict[Point, int], int, int]:
    """Per-point weights m/(km+m-k) on positives and 1/(km+m-k) on negatives.

    Duplicated input points collapse first; conflicting labels are rejected.
    The smallest achievable positive-region mass difference under this
    reweighting is at least 1/m^2, which is what makes a tiny epsilon force
    exact agreement on the support.
    """
    label_of: dict[Point, int] = {}
    for point, lab in labeled:
        if lab not in (0, 1):
            raise ValueError(f"label {lab!r} must be 0 or 1")
        if label_of.setdefault(point, lab) != lab:
            raise ValueError(f"point {point!r} appears with both labels")
    m = len(label_of)
    if m == 0:
        raise DegenerateSample("no points to learn from")
    k = sum(label_of.values())
    den = k * m + m - k
    dist = make_distribution(
        (p, Fraction(m if lab else 1, den)) for p, lab in label_of.items()
    )
    return dist, label_of, m, k


def llp_to_pac(
    labeled: Iterable[tuple[Point, int]],
    oracle: LLPOracle,
    delta: Fraction,
    seed: int,
) -> PacRun:
    """Learn a labeled sample exactly through a proportion oracle.

    Reweight so positives carry m times the mass of negatives, set
    epsilon' = 1/(2 m^2) (below the reweighted grid spacing), draw the
    oracle's declared number of points, and hand over the drawn sample's own
    exact positive fraction.  A hypothesis meeting the proportion guarantee
    at this epsilon' must match the target's proportion exactly.
    """
    dist, label_of, m, _ = reweighted_distribution(labeled)
    eps = Fraction(1, 2 * m * m)
    m_prime = oracle.sample_size(eps, Fraction(delta))
    counts = draw_counts(dist, m_prime, derive_seed(seed, "pac-draw"))
    positives = sum(c for p, c in counts if label_of[p])
    p_hat = Fraction(positives, m_prime)
    sample = _sample_trusted(points_from_counts(counts), p_hat, counts)
    response = oracle.solve(sample, p_hat, eps, Fraction(delta))
    call = OracleCall(p_hat, response, accepted=response is not None)
    if response is None:
        raise OracleReject("oracle refused the reweighted sample")
    return PacRun(response, dist, eps, m_prime, (call,))


# ---------------------------------------------------------------------------
# proportion oracle -> consistency decision


@dataclass(frozen=True)
class ConsistencyRun:
    decision: bool
    witness: Hypothesis | None
    drawn: int
    transcript: tuple[OracleCall, ...]


def consistency_via_llp(
    inst: ConsistencyInstance,
    oracle: LLPOracle,
    delta: Fraction,
    seed: int,
) -> ConsistencyRun:
    """Decide exact-count consistency by sweeping all m+1 claimed proportions.

    Points are drawn with mass proportional to multiplicity, epsilon is
    1/(2 |X|) so a proportion guarantee pins the exact weighted count, and
    each returned hypothesis is accepted only after `hits_exactly` verifies
    it on the instance itself: acceptances are sound unconditionally.  The
    oracle is still asked about every claim, but a sweep returns the same
    few hypotheses over and over, so each distinct response is checked once
    and its verdict reused.
    """
    X = inst.total
    dist = make_distribution(
        (p, Fraction(a, X)) for p, a in zip(inst.points, inst.mults)
    )
    eps = Fraction(1, 2 * X)
    delta = Fraction(delta)
    m = oracle.sample_size(eps, delta)
    counts = draw_counts(dist, m, derive_seed(seed, "consistency-draw"))
    points = points_from_counts(counts)
    verdicts: dict[Hypothesis, bool] = {}
    transcript: list[OracleCall] = []
    for j in range(m + 1):
        claim = Fraction(j, m)
        sample = _sample_trusted(points, claim, counts)
        response = oracle.solve(sample, claim, eps, delta)
        if response is None:
            transcript.append(OracleCall(claim, None))
            continue
        ok = verdicts.get(response)
        if ok is None:
            ok = verdicts[response] = hits_exactly(inst, response)
        transcript.append(OracleCall(claim, response, accepted=ok))
        if ok:
            return ConsistencyRun(True, response, m, tuple(transcript))
    return ConsistencyRun(False, None, m, tuple(transcript))


# ---------------------------------------------------------------------------
# proportion oracle -> parity learning under classification noise


@dataclass(frozen=True)
class NoisyParitySetup:
    """Uniform-cube parity learning with label noise.

    `target` is the hidden parity over n bits, `eta` the true flip rate,
    `eta_prime` a known upper bound with eta <= eta_prime < 1/2.  When
    `restriction` is set, the target's support must sit in the first
    `restriction` coordinates (the class the oracle will search).
    """

    n: int
    target: Parity
    eta: Fraction
    eta_prime: Fraction
    restriction: int | None = None

    def __post_init__(self) -> None:
        if self.target.n != self.n:
            raise DomainMismatch(f"target over {self.target.n} bits, setup says {self.n}")
        if not 0 <= self.eta <= self.eta_prime or not self.eta_prime < Fraction(1, 2):
            raise InvalidNoiseBound(
                f"need 0 <= eta <= eta' < 1/2, got {self.eta}, {self.eta_prime}"
            )
        if self.restriction is not None and any(self.target.mask[self.restriction :]):
            raise DomainMismatch(
                f"target uses coordinates past the first {self.restriction}"
            )


@dataclass(frozen=True)
class NoisyParityRun:
    hypothesis: Parity
    filtered_size: int
    transcript: tuple[OracleCall, ...]


def noisy_parity_sample_size(
    oracle: LLPOracle, eta_prime: Fraction, delta: Fraction
) -> int:
    """Enough noisy examples for the filter-and-sweep argument to go through.

    Takes the max of: 8 ln(6/delta) (so the filtered half is large enough),
    four times the oracle's declared need at epsilon' = (1/2 - eta')/2 and
    delta' = delta/3, and the smallest m with m (1/2 - eta')^2 / 2 >=
    ln(6 m / delta) (a per-candidate disagreement test failing with
    probability at most delta/(3m)).
    """
    eps = (Fraction(1, 2) - Fraction(eta_prime)) / 2
    if eps <= 0:
        raise InvalidNoiseBound(f"eta' {eta_prime} leaves no margin")
    d = float(delta)
    m = max(math.ceil(8 * math.log(6 / d)), 4 * oracle.sample_size(eps, Fraction(delta) / 3))
    margin = float(2 * eps) ** 2 / 2
    while m * margin < math.log(6 * m / d):
        m *= 2
    return m


def conditional_positive_distribution(setup: NoisyParitySetup) -> ExplicitDistribution:
    """Law of an example given its noisy label is 1 (nontrivial target only).

    Mass eta / 2^(n-1) on each point the target labels 0 and
    (1 - eta) / 2^(n-1) on each point it labels 1; with a nontrivial parity
    both regions have 2^(n-1) points, so this normalizes exactly.
    """
    if setup.target.trivial:
        raise ValueError("conditioning degenerates for the trivial parity")
    if setup.eta == 0:
        entries = [
            (x, Fraction(1, 2 ** (setup.n - 1)))
            for x in iter_cube(setup.n)
            if evaluate(setup.target, x)
        ]
        return make_distribution(entries)
    half = 2 ** (setup.n - 1)
    return make_distribution(
        (x, Fraction(1 - setup.eta, half) if evaluate(setup.target, x) else Fraction(setup.eta, half))
        for x in iter_cube(setup.n)
    )


def noisy_parity_via_llp(
    setup: NoisyParitySetup,
    m: int,
    oracle: LLPOracle,
    delta: Fraction,
    seed: int,
) -> NoisyParityRun:
    """Recover a parity from noisy labels using only a proportion oracle.

    Draw m uniform examples, flip each label with probability eta, keep the
    examples whose noisy label is 1 (conditionally i.i.d. from the law in
    `conditional_positive_distribution`), and sweep claimed proportions
    j/M over the filtered sample.  A candidate is accepted when its
    disagreement with the noisy labels over all m examples is strictly
    below (eta' + 1/2)/2; the true parity sits near eta, impostors near 1/2.
    """
    from .core import UniformCube

    eps = (Fraction(1, 2) - setup.eta_prime) / 2
    sub_delta = Fraction(delta) / 3
    rng = random.Random(derive_seed(seed, "noisy-draw"))
    points, clean = draw_labeled_points(
        UniformCube(setup.n), m, derive_seed(seed, "noisy-points"), setup.target
    )
    flip = _random_cut(setup.eta)  # rng.random() < flip exactly when < eta
    noisy = tuple(lab ^ 1 if rng.random() < flip else lab for lab in clean)
    kept = tuple(p for p, lab in zip(points, noisy) if lab)
    M = len(kept)
    kept_counts = tuple(sorted(Counter(kept).items()))
    # ((packed point, noisy label), count), packed once for every candidate
    noisy_counter = [((_pack(p), lab), c) for (p, lab), c in Counter(zip(points, noisy)).items()]
    domain = ("bits", setup.n) if points else None
    threshold = (setup.eta_prime + Fraction(1, 2)) / 2
    disagreement_memo: dict[Hypothesis, Fraction] = {}

    def disagreement(h: Hypothesis) -> Fraction:
        got = disagreement_memo.get(h)
        if got is None:
            label = labeler(h, domain)
            bad = sum(c for (x, lab), c in noisy_counter if label(x) != lab)
            got = disagreement_memo[h] = Fraction(bad, m)
        return got

    claims = [Fraction(0)] if M == 0 else [Fraction(j, M) for j in range(M + 1)]
    transcript: list[OracleCall] = []
    for claim in claims:
        sample = _sample_trusted(kept, claim, kept_counts)
        response = oracle.solve(sample, claim, eps, sub_delta)
        if response is None:
            transcript.append(OracleCall(claim, None))
            continue
        ok = isinstance(response, Parity) and disagreement(response) < threshold
        transcript.append(OracleCall(claim, response, accepted=ok))
        if ok:
            return NoisyParityRun(response, M, tuple(transcript))  # type: ignore[arg-type]
    raise NoCandidateAccepted(f"no parity beat disagreement {threshold} over {m} examples")


# ---------------------------------------------------------------------------
# instance transforms: exact cover -> exact union size -> consistency


def x3c_to_epsc(inst: X3CInstance, ell: int | None = None) -> EPSCInstance:
    """Pad each triple with its own block of ell fresh elements.

    With ell > |U|, a subfamily unions to exactly |U| + ell*t only by being
    an exact cover: fewer than t subsets fall short of the auxiliary mass,
    more than t overshoot it, and t subsets reach it only when their triples
    are disjoint and exhaust the universe.
    """
    u_size = len(inst.universe)
    if ell is None:
        ell = u_size + 1
    if ell <= u_size:
        raise InvalidAuxiliaryCount(f"need ell > |U| = {u_size}, got {ell}")
    base = max(inst.universe) + 1
    subsets = []
    for i, triple in enumerate(inst.triples):
        aux = frozenset(base + i * ell + j for j in range(ell))
        subsets.append(triple | aux)
    universe = tuple(inst.universe) + tuple(
        base + i * ell + j for i in range(len(inst.triples)) for j in range(ell)
    )
    return EPSCInstance(tuple(sorted(universe)), tuple(subsets), u_size + ell * inst.t)


def _epsc_points(inst: EPSCInstance, positive_bit: int) -> ConsistencyInstance:
    elements = sorted(inst.universe)
    patterns = Counter(
        tuple(positive_bit if e in s else 1 - positive_bit for s in inst.subsets)
        for e in elements
    )
    points = tuple(sorted(patterns))
    mults = tuple(patterns[p] for p in points)
    n = len(inst.subsets)
    k = inst.k if positive_bit == 1 else len(elements) - inst.k
    class_id = "monotone_disjunction" if positive_bit == 1 else "monotone_conjunction"
    return ConsistencyInstance(ClassDescriptor(class_id, n), points, mults, k)


def epsc_to_disjunction_consistency(inst: EPSCInstance) -> ConsistencyInstance:
    """Element i becomes a bit vector with bit j set iff i lies in subset j.

    A disjunction over J labels exactly the elements of the union of the
    J-indexed subsets, so a disjunction positive on exactly k weighted
    points is precisely a subfamily with union size k.  Elements sharing a
    membership pattern collapse into one point with multiplicity.
    """
    if not inst.subsets:
        raise ValueError("need at least one subset to build bit vectors")
    return _epsc_points(inst, 1)


def epsc_to_conjunction_consistency(inst: EPSCInstance) -> ConsistencyInstance:
    """Complement encoding: bit j is 0 iff the element lies in subset j.

    A conjunction over J is positive exactly on elements outside the union,
    so the count flips to |U| - k.
    """
    if not inst.subsets:
        raise ValueError("need at least one subset to build bit vectors")
    return _epsc_points(inst, 0)
