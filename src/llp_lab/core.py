"""Input spaces, exact-rational distributions, and sample containers.

Points are either bit vectors (tuples of 0/1 ints) or natural numbers (plain
ints); the two domains never mix inside one distribution or sample.  Every
probability mass and every proportion is a `fractions.Fraction`: floating
point appears only inside the samplers' threshold arithmetic, never in a
reported weight or proportion.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainMismatch,
    DuplicateSupportPoint,
    EmptySupport,
    NonPositiveWeight,
    WeightsDoNotSumToOne,
)

__all__ = [
    "Bits",
    "Point",
    "ExplicitDistribution",
    "UniformCube",
    "FiniteDistribution",
    "Sample",
    "make_distribution",
    "normalized",
    "uniform_over",
    "support",
    "weight_of",
    "iter_cube",
    "bits_from_string",
    "bits_to_string",
    "point_domain",
    "check_same_domain",
    "derive_seed",
    "draw_points",
    "draw_counts",
    "points_from_counts",
    "parse_rational",
    "rational_to_json",
    "rational_from_json",
    "point_to_json",
    "point_from_json",
    "distribution_to_json",
    "distribution_from_json",
    "sample_to_json",
    "sample_from_json",
    "COUNT_DRAW_MIN",
]

Bits = tuple[int, ...]
Point = Bits | int

# Explicit-distribution draws of at least this size go through the
# count-based sampler (one binomial per atom) instead of per-point draws.
COUNT_DRAW_MIN = 4096


# ---------------------------------------------------------------------------
# points


def bits_from_string(s: str) -> Bits:
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"not a bit string: {s!r}")
    return tuple(int(ch) for ch in s)


def bits_to_string(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def _pack(point: Point) -> int:
    """A bit vector as an n-bit int, coordinate 1 the high bit; a natural as itself.

    Bit order matches `iter_cube`: the packed form of the i-th cube vector
    is i.  The labeling kernel in `hypotheses` works on packed points.
    """
    if isinstance(point, tuple):
        x = 0
        for b in point:
            x = x << 1 | b
        return x
    return point


def point_domain(point: Point) -> tuple[str, int | None]:
    """Return ("bits", n) for a bit vector, ("nat", None) for a natural."""
    if isinstance(point, tuple):
        if not point or any(b not in (0, 1) for b in point):
            raise ValueError(f"not a valid bit vector: {point!r}")
        return ("bits", len(point))
    if isinstance(point, int) and not isinstance(point, bool) and point >= 0:
        return ("nat", None)
    raise ValueError(f"not a valid point: {point!r}")


def check_same_domain(points: Iterable[Point]) -> tuple[str, int | None] | None:
    """Validate that all points live in one domain; return it (None if empty)."""
    dom: tuple[str, int | None] | None = None
    for p in points:
        d = point_domain(p)
        if dom is None:
            dom = d
        elif d != dom:
            raise DomainMismatch(f"mixed point domains: {dom} vs {d}")
    return dom


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class ExplicitDistribution:
    """Finitely supported distribution given by (point, weight) atoms.

    Atoms are stored sorted by point, weights are positive Fractions that sum
    to exactly 1, and support points are pairwise distinct.  Use
    `make_distribution` to construct with validation.
    """

    atoms: tuple[tuple[Point, Fraction], ...]

    @cached_property
    def packed(self) -> tuple[tuple[str, int | None] | None, tuple[tuple[int, Fraction], ...]]:
        """(domain, atoms with packed points), the support checked once on first use."""
        return check_same_domain(p for p, _ in self.atoms), tuple((_pack(p), w) for p, w in self.atoms)


@dataclass(frozen=True)
class UniformCube:
    """Uniform distribution over all bit vectors of length n."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"cube dimension must be a positive int, got {self.n!r}")


FiniteDistribution = ExplicitDistribution | UniformCube


def _as_exact_weight(w: object) -> Fraction:
    # Floats are refused: Fraction(0.3) would silently capture the binary
    # approximation rather than the intended mass.
    if isinstance(w, float):
        raise TypeError(f"weight {w!r} is a float; pass a Fraction, int, or string")
    return Fraction(w)  # type: ignore[arg-type]


def make_distribution(entries: Iterable[tuple[Point, object]]) -> ExplicitDistribution:
    """Build an explicit distribution, validating support and total mass."""
    atoms: list[tuple[Point, Fraction]] = []
    for point, w in entries:
        point_domain(point)
        weight = _as_exact_weight(w)
        if weight <= 0:
            raise NonPositiveWeight(f"weight {weight} for point {point!r}")
        atoms.append((point, weight))
    if not atoms:
        raise EmptySupport("a distribution needs at least one atom")
    check_same_domain(p for p, _ in atoms)
    atoms.sort(key=lambda a: a[0])
    for (p1, _), (p2, _) in zip(atoms, atoms[1:]):
        if p1 == p2:
            raise DuplicateSupportPoint(f"point {p1!r} appears twice")
    total = sum(w for _, w in atoms)
    if total != 1:
        raise WeightsDoNotSumToOne(f"weights sum to {total}, not 1")
    return ExplicitDistribution(tuple(atoms))


def normalized(entries: Iterable[tuple[Point, object]]) -> ExplicitDistribution:
    """Divide positive weights by their total, then build the distribution."""
    pairs = [(p, _as_exact_weight(w)) for p, w in entries]
    total = sum(w for _, w in pairs)
    if total <= 0:
        raise NonPositiveWeight(f"total weight {total}")
    return make_distribution((p, w / total) for p, w in pairs)


def uniform_over(points: Sequence[Point]) -> ExplicitDistribution:
    return normalized((p, 1) for p in points)


def support(dist: FiniteDistribution) -> tuple[Point, ...]:
    if isinstance(dist, UniformCube):
        return tuple(iter_cube(dist.n))
    return tuple(p for p, _ in dist.atoms)


def weight_of(dist: FiniteDistribution, point: Point) -> Fraction:
    if isinstance(dist, UniformCube):
        dom = point_domain(point)
        if dom != ("bits", dist.n):
            raise DomainMismatch(f"point {point!r} outside {{0,1}}^{dist.n}")
        return Fraction(1, 2**dist.n)
    for p, w in dist.atoms:
        if p == point:
            return w
    return Fraction(0)


def iter_cube(n: int) -> Iterator[Bits]:
    """All bit vectors of length n in ascending lexicographic order."""
    for value in range(2**n):
        yield tuple((value >> (n - 1 - i)) & 1 for i in range(n))


# ---------------------------------------------------------------------------
# samples


@dataclass(frozen=True)
class Sample:
    """An unlabeled multiset of points plus the revealed positive fraction.

    `p_hat` times the sample size must be an integer: the fraction is the
    exact count of positively labeled examples over m, not an estimate.
    """

    points: tuple[Point, ...]
    p_hat: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.p_hat, Fraction):
            object.__setattr__(self, "p_hat", parse_rational(self.p_hat))
        m = len(self.points)
        if not 0 <= self.p_hat <= 1:
            raise ValueError(f"p_hat {self.p_hat} outside [0, 1]")
        if m > 0 and (self.p_hat * m).denominator != 1:
            raise ValueError(f"p_hat {self.p_hat} times m={m} is not an integer")
        if m == 0 and self.p_hat != 0:
            raise ValueError("empty sample must carry p_hat = 0")
        self.__dict__["domain"] = check_same_domain(self.points)

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def positive_count(self) -> int:
        return int(self.p_hat * self.m)

    @cached_property
    def counts(self) -> tuple[tuple[Point, int], ...]:
        """Unique points with multiplicities, sorted canonically."""
        return tuple(sorted(Counter(self.points).items()))

    @cached_property
    def domain(self) -> tuple[str, int | None] | None:
        """The points' common domain, None when empty.

        The constructor checks every point and caches the result, so that
        labeling the sample never re-checks a point.  A `_sample_trusted`
        sample reads it off the first point's shape on first use.
        """
        if not self.points:
            return None
        first = self.points[0]
        return ("bits", len(first)) if isinstance(first, tuple) else ("nat", None)

    @cached_property
    def packed_counts(self) -> tuple[tuple[int, int], ...]:
        """`counts` with each point packed (`_pack`), for the labeling kernel."""
        return tuple((_pack(p), c) for p, c in self.counts)


def points_from_counts(counts: Iterable[tuple[Point, int]]) -> tuple[Point, ...]:
    parts: list[Point] = []
    for point, c in counts:
        parts.extend([point] * c)
    return tuple(parts)


def _sample_trusted(
    points: tuple[Point, ...],
    p_hat: Fraction,
    counts: tuple[tuple[Point, int], ...] | None = None,
) -> Sample:
    """Sample over a tuple whose points are already known to be valid.

    Skips the per-point domain walk, so sweeps that re-claim many
    proportions over one drawn tuple stay linear in the number of claims
    instead of claims times points.  Callers must only pass tuples produced
    by this module's drawing helpers or already held by a validated Sample.
    The proportion gets Sample's checks, done on its lowest-terms numerator
    and denominator: 0 <= p_hat <= 1, p_hat * m is a whole count (the
    denominator divides m), and p_hat = 0 when the sample is empty.
    `counts`, when given, must be the points' sorted multiplicities and
    fills the `counts` cache.
    """
    if not isinstance(p_hat, Fraction):
        p_hat = Fraction(p_hat)
    num, den = p_hat.numerator, p_hat.denominator
    m = len(points)
    if not 0 <= num <= den or m % den or (m == 0 and num):
        raise ValueError(f"p_hat {p_hat} invalid for m={m}")
    sample = object.__new__(Sample)
    object.__setattr__(sample, "points", points)
    object.__setattr__(sample, "p_hat", p_hat)
    if counts is not None:
        sample.__dict__["counts"] = counts
    return sample


# ---------------------------------------------------------------------------
# seeded drawing


def _random_cut(p: Fraction) -> float:
    """A float c with x < c exactly when x < p, for every x from `random.Random.random()`.

    random() returns k / 2**53 for an integer 0 <= k < 2**53, and for such k,
    k < p * 2**53 holds exactly when k < ceil(p * 2**53).  Clamped to
    [0, 2**53], that ceiling divided by 2**53 is an exact float, so one
    float comparison per draw replaces the exact but slow Fraction one.
    """
    return min(max(math.ceil(p * 2**53), 0), 2**53) / 2**53


def derive_seed(*parts: object) -> int:
    """Stable 64-bit child seed from any mix of ints and strings."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def draw_counts(dist: ExplicitDistribution, m: int, seed: int) -> tuple[tuple[Point, int], ...]:
    """Multiplicity vector of m i.i.d. draws, via one binomial per atom.

    Atoms that receive no draws are dropped, so the result obeys the same
    invariants as Sample.counts (sorted, every count >= 1).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining = m
    rem_weight = Fraction(1)
    out: list[tuple[Point, int]] = []
    for i, (point, w) in enumerate(dist.atoms):
        if i == len(dist.atoms) - 1:
            c = remaining
        else:
            c = int(rng.binomial(remaining, float(w / rem_weight))) if remaining else 0
        if c:
            out.append((point, c))
        remaining -= c
        rem_weight -= w
    return tuple(out)


def _draw_points_small(dist: ExplicitDistribution, m: int, rng: random.Random) -> tuple[Point, ...]:
    cum: list[float] = []
    total = 0.0
    for _, w in dist.atoms:
        total += float(w)
        cum.append(total)
    pts = [p for p, _ in dist.atoms]
    last = len(pts) - 1
    return tuple(pts[min(bisect_right(cum, rng.random()), last)] for _ in range(m))


def draw_points(dist: FiniteDistribution, m: int, seed: int) -> tuple[Point, ...]:
    """m i.i.d. draws; identical (dist, m, seed) gives identical output.

    Explicit distributions switch to the count-based sampler at
    m >= COUNT_DRAW_MIN, in which case points come out grouped by atom in
    canonical order.  The dispatch depends only on the arguments, so
    reproducibility is unaffected.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if isinstance(dist, UniformCube):
        rng = random.Random(seed)
        n = dist.n
        return tuple(
            tuple((v >> (n - 1 - i)) & 1 for i in range(n))
            for v in (rng.getrandbits(n) for _ in range(m))
        )
    if m >= COUNT_DRAW_MIN:
        return points_from_counts(draw_counts(dist, m, seed))
    return _draw_points_small(dist, m, random.Random(seed))


# ---------------------------------------------------------------------------
# JSON forms


def parse_rational(value: object) -> Fraction:
    """Exact rational from "3/10", "0.3", an int, a Fraction, or {num, den}."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"rational {value!r} is a float; pass a string for exactness")
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(value["num"], value["den"])
    raise TypeError(f"not a rational: {value!r}")


def rational_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def point_to_json(point: Point) -> dict:
    kind, _ = point_domain(point)
    if kind == "bits":
        return {"bits": bits_to_string(point)}  # type: ignore[arg-type]
    return {"nat": point}


def point_from_json(obj: dict) -> Point:
    if "bits" in obj:
        return bits_from_string(obj["bits"])
    if "nat" in obj:
        value = obj["nat"]
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"bad nat point: {value!r}")
        return value
    raise ValueError(f"not a point object: {obj!r}")


def distribution_to_json(dist: FiniteDistribution) -> dict:
    if isinstance(dist, UniformCube):
        return {"kind": "uniform_cube", "n": dist.n}
    return {
        "kind": "explicit",
        "atoms": [
            {"point": point_to_json(p), "num": w.numerator, "den": w.denominator}
            for p, w in dist.atoms
        ],
    }


def distribution_from_json(obj: dict) -> FiniteDistribution:
    if obj.get("kind") == "uniform_cube":
        return UniformCube(obj["n"])
    if obj.get("kind") == "explicit":
        return make_distribution(
            (point_from_json(a["point"]), Fraction(a["num"], a["den"]))
            for a in obj["atoms"]
        )
    raise ValueError(f"unknown distribution kind: {obj.get('kind')!r}")


def sample_to_json(sample: Sample) -> dict:
    return {
        "points": [point_to_json(p) for p in sample.points],
        "p_hat_num": sample.p_hat.numerator,
        "p_hat_den": sample.p_hat.denominator,
    }


def sample_from_json(obj: dict) -> Sample:
    return Sample(
        tuple(point_from_json(p) for p in obj["points"]),
        Fraction(obj["p_hat_num"], obj["p_hat_den"]),
    )
