"""Reductions between proportion-learning, consistency search, and exact cover.

Each harness takes an explicit seed and records every oracle invocation
(the proportion fed and the response) so runs can be audited and replayed.
Witness checks are always performed directly on the original instance, never
trusted from the oracle.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, partial
from typing import NamedTuple

from .core import (
    POINT,
    REQUIRED,
    ExplicitDistribution,
    Point,
    Sample,
    _claim_samples,
    _coin_flips,
    _draw_cube,
    _draw_packed,
    _pack,
    _sample_packed,
    check_same_domain,
    derive_seed,
    from_fields,
    iter_cube,
    json_list,
    make_distribution,
    parse_rational,
    record,
    to_fields,
)
from .errors import (
    DegenerateSample,
    DomainMismatch,
    InvalidAuxiliaryCount,
    InvalidNoiseBound,
    InvalidParams,
    NoCandidateAccepted,
    OracleReject,
)
from .hypotheses import (
    DESCRIPTOR,
    ClassDescriptor,
    Hypothesis,
    Parity,
    _Planes,
    _check_domain,
    evaluate,
    hypothesis_to_json,
    positive_weight,
)

__all__ = [
    "LLPOracle",
    "OracleCall",
    "Transcript",
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


@record
class LLPOracle:
    """A proportion learner offered as a black box.

    `solve(sample, claimed_p_hat, epsilon, delta)` returns a hypothesis or
    None (a refusal).  `sample_size(epsilon, delta)` is the oracle's own
    declared requirement: feed it at least that many draws and, when the
    claimed proportion is the sample's true one, the returned hypothesis has
    true proportion within epsilon of the target's with probability
    1 - delta.

    A sweep calls `solve` once per claim j/m, in order, each time with a
    fresh sample copied from one base sample (`core._claim_samples`), so
    the claims share its packed-counts object, or a masked base's kept
    draws, whose packed counts are built once for all of them.  `solve`
    should read the sample's own form, `sample.packed_counts`,
    `sample.domain` and `sample.m`: `points` and `counts` are views of it,
    built on first read, O(m) for each fresh sample.

    `sweep(sample, epsilon, delta)`, optional, answers a whole claim ladder
    over the base `sample` at once (its `p_hat` is not read): it yields
    runs (first_j, last_j, response), lazily and in claim order, covering
    j = 0..m (just 0 when m = 0), and claim j/m of a run must get the
    response `solve` would give it on that claim's sample.  `_sweep` reads
    it when set and stops at the first run it accepts; without it, every
    claim goes through `solve`.  A sweep speaks
    for one solve, named by its `solve` attribute: an oracle built with any
    other solve, as `dataclasses.replace(oracle, solve=wrapper)` builds one,
    drops the sweep, so a wrapped solve still sees every claim.
    """

    solve: Callable[[Sample, Fraction, Fraction, Fraction], Hypothesis | None]
    sample_size: Callable[[Fraction, Fraction], int]
    sweep: Callable[[Sample, Fraction, Fraction], Iterable[tuple[int, int, Hypothesis | None]]] | None = None

    def __post_init__(self) -> None:
        if self.sweep is not None and getattr(self.sweep, "solve", None) is not self.solve:
            object.__setattr__(self, "sweep", None)


class OracleCall(NamedTuple):
    """Transcript line: the proportion fed and what came back (`accepted` None on a refusal).

    A named tuple: immutable, hashable, equal to the plain tuple (claimed, response, accepted).
    """

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


@record
class Transcript:
    """A sweep's transcript: its lines, stored as runs of equal consecutive lines.

    `runs` holds one (end, response, accepted) per run: run i covers the
    claims j from the previous run's end (0 for the first run) up to `end`,
    exclusive, and line j is `OracleCall(Fraction(j, den), response,
    accepted)`.  The ends must increase.  Construction makes the runs
    canonical, in time linear in the runs: adjacent runs with equal
    (response, accepted) merge, and `den` is 1 when there is at most one
    line, since claim 0 is 0 over any `den`.  So two transcripts are equal,
    and hash alike, exactly when their lines are, and neither comparing,
    hashing nor `repr` builds a line.  The lines are read by `len`,
    indexing (negative too; a bisection over the run ends), iteration and
    `tuple(t)`.
    """

    den: int
    runs: tuple[tuple[int, Hypothesis | None, bool | None], ...]

    def __post_init__(self) -> None:
        runs: list[tuple[int, Hypothesis | None, bool | None]] = []
        for run in self.runs:
            if runs and runs[-1][2] == run[2] and runs[-1][1] == run[1]:
                runs[-1] = run
            else:
                runs.append(run)
        object.__setattr__(self, "runs", tuple(runs))
        if len(self) <= 1:
            object.__setattr__(self, "den", 1)

    def __len__(self) -> int:
        return self.runs[-1][0] if self.runs else 0

    def __getitem__(self, index: int) -> OracleCall:
        j = operator.index(index)
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError("transcript index out of range")
        _, response, accepted = self.runs[bisect_right(self.runs, j, key=operator.itemgetter(0))]
        return OracleCall(Fraction(j, self.den), response, accepted)

    def __iter__(self) -> Iterator[OracleCall]:
        j = 0
        for end, response, accepted in self.runs:
            for j in range(j, end):
                yield OracleCall(Fraction(j, self.den), response, accepted)
            j = end


def _sweep(
    oracle: LLPOracle, sample: Sample, eps: Fraction, delta: Fraction, accepts: Callable[[Hypothesis], bool]
) -> tuple[Hypothesis | None, Transcript]:
    """Ask about every claim j/m over the base `sample` in turn; return the first accepted response.

    Returns it (None if none passed) and the transcript up to it, built
    from one list of (end, response, accepted) runs.  The claims come as
    runs from `oracle.sweep` when the oracle has one, and otherwise one at
    a time from `solve` over `core._claim_samples`.  An accepted run is cut
    at its first claim.  `accepts` sees each distinct response once: one
    identical to the previous run's extends that run, and any other is
    looked up by value first.
    """
    if oracle.sweep is None:
        solve = oracle.solve
        ladder: Iterable[tuple[int, int, Hypothesis | None]] = (
            (j, j, solve(claimed, claim, eps, delta))
            for j, (claim, claimed) in enumerate(_claim_samples(sample))
        )
    else:
        ladder = oracle.sweep(sample, eps, delta)
    verdicts: dict[Hypothesis, bool] = {}
    runs: list[tuple[int, Hypothesis | None, bool | None]] = []
    for first, final, response in ladder:
        if runs and response is runs[-1][1]:  # same verdict, not an acceptance
            runs[-1] = (final + 1, response, runs[-1][2])
            continue
        ok = None if response is None else verdicts.get(response)
        if ok is None and response is not None:
            ok = verdicts[response] = accepts(response)
        if ok:
            runs.append((first + 1, response, ok))
            return response, Transcript(sample.m, tuple(runs))
        runs.append((final + 1, response, ok))
    return None, Transcript(sample.m, tuple(runs))


# ---------------------------------------------------------------------------
# instance types


# instance fields: a set is written sorted, and its instance makes it a frozenset
_UNIVERSE = (sorted, json_list(None, "instance universe")[1])
_SETS = json_list((sorted, json_list(None, "instance set")[1]), "instance sets")
_X3C = (("universe", "universe", _UNIVERSE, REQUIRED), ("triples", "triples", _SETS, REQUIRED))
_EPSC = (
    ("universe", "universe", _UNIVERSE, REQUIRED),
    ("subsets", "subsets", _SETS, REQUIRED),
    ("k", "k", None, REQUIRED),
)
_CONSISTENCY = (
    ("class", "desc", DESCRIPTOR, REQUIRED),
    ("points", "points", json_list(POINT, "consistency points"), REQUIRED),
    ("mult", "mults", json_list(None, "consistency mult"), REQUIRED),
    ("k", "k", None, REQUIRED),
)


@record
class X3CInstance:
    """Exact cover by 3-sets: universe of size 3t, subsets of size exactly 3."""

    universe: tuple[int, ...]
    triples: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        u = {x for x in self.universe if type(x) is int}
        if len(u) != len(self.universe) or len(u) % 3 != 0 or not u:
            raise InvalidParams("universe must be distinct ints, of size 3t, t >= 1")
        for s in self.triples:
            if any(type(x) is not int for x in s) or len(set(s)) != 3 or not u.issuperset(s):
                raise InvalidParams(f"triple {list(s)} is not a 3-subset of the universe")
        object.__setattr__(self, "triples", tuple(frozenset(s) for s in self.triples))

    @property
    def t(self) -> int:
        return len(self.universe) // 3

    def to_json(self) -> dict:
        return to_fields(_X3C, self)

    @staticmethod
    def from_json(obj: dict) -> "X3CInstance":
        return X3CInstance(**from_fields(_X3C, obj, "X3C instance"))


@record
class EPSCInstance:
    """Does some subfamily union to exactly k elements?

    `k` outside 0..|universe| is legal and trivially unsatisfiable; cover
    instances translated from too few triples land there.
    """

    universe: tuple[int, ...]
    subsets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        u = {x for x in self.universe if type(x) is int}
        if len(u) != len(self.universe) or not u:
            raise InvalidParams("universe must be nonempty and distinct ints")
        for s in self.subsets:
            if any(type(x) is not int for x in s) or not u.issuperset(s):
                raise InvalidParams(f"subset {list(s)} not inside the universe")
        object.__setattr__(self, "subsets", tuple(frozenset(s) for s in self.subsets))
        if not isinstance(self.k, int):
            raise InvalidParams(f"k must be an integer, got {self.k!r}")

    def to_json(self) -> dict:
        return to_fields(_EPSC, self)

    @staticmethod
    def from_json(obj: dict) -> "EPSCInstance":
        return EPSCInstance(**from_fields(_EPSC, obj, "EPSC instance"))


@record
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
            raise InvalidParams("points and mults must align and be nonempty")
        # one type of point (bit vectors or naturals) before sorting compares them
        if len({type(p) for p in self.points}) > 1 or list(self.points) != sorted(set(self.points)):
            raise InvalidParams("points must be of one domain, unique and sorted")
        if any(type(a) is not int or a < 1 for a in self.mults):
            raise InvalidParams(f"multiplicities must be ints >= 1, got {self.mults!r}")
        if not isinstance(self.k, int):
            raise InvalidParams(f"k must be an integer, got {self.k!r}")

    @property
    def total(self) -> int:
        return sum(self.mults)

    @cached_property
    def packed(self) -> tuple[tuple[str, int | None] | None, tuple[tuple[int, int], ...]]:
        """(domain, (packed point, multiplicity) pairs), the points checked once on first use."""
        return check_same_domain(self.points), tuple(zip(map(_pack, self.points), self.mults))

    def to_json(self) -> dict:
        return to_fields(_CONSISTENCY, self)

    @staticmethod
    def from_json(obj: dict) -> "ConsistencyInstance":
        return ConsistencyInstance(**from_fields(_CONSISTENCY, obj, "consistency instance"))


def hits_exactly(inst: ConsistencyInstance, h: Hypothesis) -> bool:
    """Direct witness check: weighted positive count equals k."""
    return positive_weight(h, *inst.packed) == inst.k


# ---------------------------------------------------------------------------
# proportion oracle -> exact learning of a labeled sample


@record
class PacRun:
    """`llp_to_pac`'s result: the hypothesis, the reweighted distribution, epsilon', the points drawn, the one call."""

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
            raise InvalidParams(f"label {lab!r} must be 0 or 1")
        if label_of.setdefault(point, lab) != lab:
            raise InvalidParams(f"point {point!r} appears with both labels")
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
    oracle's declared number of points packed (`_draw_packed` on the
    distribution's `weighted` packed counts and size),
    and hand over the drawn sample's own exact positive fraction.  A
    hypothesis meeting the proportion guarantee at this epsilon' must match
    the target's proportion exactly.
    """
    dist, label_of, m, _ = reweighted_distribution(labeled)
    eps = Fraction(1, 2 * m * m)
    m_prime = oracle.sample_size(eps, Fraction(delta))
    packed = _draw_packed(dist.weighted.packed_counts, dist.weighted.m, m_prime, derive_seed(seed, "pac-draw"))
    positive = {_pack(p) for p, lab in label_of.items() if lab}
    p_hat = Fraction(sum(c for x, c in packed if x in positive), m_prime)
    sample = _sample_packed(dist.weighted.domain, packed, m_prime, p_hat)
    response = oracle.solve(sample, p_hat, eps, Fraction(delta))
    call = OracleCall(p_hat, response, accepted=response is not None)
    if response is None:
        raise OracleReject("oracle refused the reweighted sample")
    return PacRun(response, dist, eps, m_prime, (call,))


# ---------------------------------------------------------------------------
# proportion oracle -> consistency decision


@record
class ConsistencyRun:
    """`consistency_via_llp`'s result: the decision, its witness or None, the points drawn and the oracle calls."""

    decision: bool
    witness: Hypothesis | None
    drawn: int
    transcript: Transcript


def consistency_via_llp(
    inst: ConsistencyInstance,
    oracle: LLPOracle,
    delta: Fraction,
    seed: int,
) -> ConsistencyRun:
    """Decide exact-count consistency by sweeping all m+1 claimed proportions.

    Points are drawn with mass proportional to multiplicity, by `_draw_packed`
    straight off the packed points and multiplicities (total X); epsilon is
    1/(2 |X|) so a proportion guarantee pins the exact weighted count, and
    each returned hypothesis is accepted only after `hits_exactly` verifies
    it on the instance itself: acceptances are sound unconditionally.  The
    oracle is asked about every claim (`_sweep`) until a response passes,
    and each distinct response is checked once.
    """
    X = inst.total
    eps = Fraction(1, 2 * X)
    delta = Fraction(delta)
    m = oracle.sample_size(eps, delta)
    domain, packed = inst.packed
    counts = _draw_packed(packed, X, m, derive_seed(seed, "consistency-draw"))
    sample = _sample_packed(domain, counts, m, Fraction(0))
    witness, transcript = _sweep(oracle, sample, eps, delta, partial(hits_exactly, inst))
    return ConsistencyRun(witness is not None, witness, m, transcript)


# ---------------------------------------------------------------------------
# proportion oracle -> parity learning under classification noise


@record
class NoisyParitySetup:
    """Uniform-cube parity learning with label noise.

    `target` is the hidden parity over n bits, `eta` the true flip rate,
    `eta_prime` a known upper bound with eta <= eta_prime < 1/2; both are
    read by `parse_rational`, so a float rate raises its TypeError.  When
    `restriction` is set, the target's support must sit in the first
    `restriction` coordinates (the class the oracle will search).
    """

    n: int
    target: Parity
    eta: Fraction
    eta_prime: Fraction
    restriction: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", parse_rational(self.eta))
        object.__setattr__(self, "eta_prime", parse_rational(self.eta_prime))
        if not isinstance(self.target, Parity):
            raise InvalidParams(f"noisy-parity target must be a parity, got {type(self.target).__name__}")
        if self.target.n != self.n:
            raise DomainMismatch(f"target over {self.target.n} bits, setup says {self.n}")
        if not 0 <= self.eta <= self.eta_prime or not self.eta_prime < Fraction(1, 2):
            raise InvalidNoiseBound(
                f"need 0 <= eta <= eta' < 1/2, got {self.eta}, {self.eta_prime}"
            )
        if self.restriction is not None:
            if type(self.restriction) is not int or not 0 <= self.restriction <= self.n:
                raise InvalidParams(f"restriction must be an int in 0..{self.n}, got {self.restriction!r}")
            if any(self.target.mask[self.restriction :]):
                raise DomainMismatch(f"target uses coordinates past the first {self.restriction}")


@record
class NoisyParityRun:
    """`noisy_parity_via_llp`'s result: the accepted parity, the number of kept draws and the oracle calls."""

    hypothesis: Parity
    filtered_size: int
    transcript: Transcript


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
    both regions have 2^(n-1) points, so this normalizes exactly.  Points
    of mass 0 (the target's zeros when eta = 0) are left out of the support.
    """
    if setup.target.trivial:
        raise InvalidParams("conditioning degenerates for the trivial parity")
    half = 2 ** (setup.n - 1)
    masses = (Fraction(setup.eta, half), Fraction(1 - setup.eta, half))
    entries = ((x, masses[evaluate(setup.target, x)]) for x in iter_cube(setup.n))
    return make_distribution((x, w) for x, w in entries if w)


def _parity_labels(columns: Mapping[int, int] | Sequence[int], mask: int) -> int:
    """The labeling bitset of the parity whose packed mask is `mask`: the XOR of its columns."""
    vec = 0
    while mask:
        low = mask & -mask
        vec ^= columns[low.bit_length() - 1]
        mask ^= low
    return vec


def _disagreement_counter(n: int, columns: Mapping[int, int] | Sequence[int], noisy: int) -> Callable[[Parity], int]:
    """parity -> the number of draws whose noisy label it contradicts.

    Bitsets over the draws: bit i of `columns[b]` (plane b of the draws,
    `_Planes`, so only the columns a mask reads are built) is bit b of
    draw i, and bit i of `noisy` is draw i's noisy label.  A parity's
    labeling L is the XOR of its mask's columns (`_parity_labels`), and
    the disagreement is popcount(L XOR noisy).  A parity over other than n
    coordinates raises DomainMismatch, as `labeler` would.
    """
    domain = ("bits", n)

    def count(h: Parity) -> int:
        _check_domain("Parity", ("bits", h.n), domain)
        return (_parity_labels(columns, h.packed) ^ noisy).bit_count()

    return count


def noisy_parity_via_llp(
    setup: NoisyParitySetup,
    m: int,
    oracle: LLPOracle,
    delta: Fraction,
    seed: int,
) -> NoisyParityRun:
    """Recover a parity from noisy labels using only a proportion oracle.

    Draw m >= 1 uniform examples, flip each label with probability eta,
    keep the examples whose noisy label is 1 (conditionally i.i.d. from the
    law in `conditional_positive_distribution`), and sweep claimed
    proportions j/M over the filtered sample (`_sweep`) with
    eps = (1/2 - eta') / 2.  A candidate is accepted when its disagreement
    with the noisy labels over all m examples is strictly below
    (eta' + 1/2)/2; the true parity sits near eta, impostors near 1/2.
    With eta' = a/b both are integers: eps = (b - 2a) / 4b, and the test
    is dis * 4b < (2a + b) * m.  The draws (`_draw_cube`, one byte each up
    to 8 bits) and the flips (`_coin_flips`) each read their generator in
    one call.  Labels are bitsets over the draws, bit i for draw i: the
    noisy labels are the XOR of the target's columns with the flips'
    bitset, M is their popcount, and a candidate's disagreement is one
    more XOR and popcount (`_disagreement_counter`).  The draws and the
    flips are transposed by one mechanism, `_Planes`, whose planes are
    built on first read: the flips' one plane is their bitset, and of the
    draws' columns only those of the target's and the candidates' masks
    are built, which saves work when the masks read fewer than n
    coordinates (a restriction narrower than n).  The oracle's sample
    is masked (`_sample_packed` with `keep`): all m draws, the noisy bitset
    as the ones kept, and the columns.  So no kept list or histogram is
    built unless the oracle reads one: the brute-force oracle's parity
    table weighs each labeling of the masked columns by popcount
    (`_count_table`, the parity row's `table`).
    """
    if m < 1:
        raise InvalidParams(f"noisy parity needs m >= 1 examples, got {m}")
    a, b = setup.eta_prime.as_integer_ratio()
    eps = Fraction(b - 2 * a, 4 * b)
    sub_delta = Fraction(delta) / 3
    domain = ("bits", setup.n)
    draws = _draw_cube(setup.n, m, derive_seed(seed, "noisy-points"))
    flips = _coin_flips(setup.eta, m, random.Random(derive_seed(seed, "noisy-draw")))
    columns = _Planes(draws, setup.n)
    noisy = _parity_labels(columns, setup.target.packed) ^ _Planes(flips, 1)[0]
    M = noisy.bit_count()
    disagreements = _disagreement_counter(setup.n, columns, noisy)

    def accepts(h: Hypothesis) -> bool:  # disagreements / m < (2a + b) / 4b, in integers
        return isinstance(h, Parity) and disagreements(h) * 4 * b < (2 * a + b) * m

    sample = _sample_packed(domain if M else None, None, M, Fraction(0), draws, keep=noisy, planes=columns)
    response, transcript = _sweep(oracle, sample, eps, sub_delta, accepts)
    if response is None:
        threshold = Fraction(2 * a + b, 4 * b)
        raise NoCandidateAccepted(f"no parity beat disagreement {threshold} over {m} examples")
    return NoisyParityRun(response, M, transcript)  # type: ignore[arg-type]


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
    if not inst.subsets:
        raise InvalidParams("need at least one subset to build bit vectors")
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
    return _epsc_points(inst, 1)


def epsc_to_conjunction_consistency(inst: EPSCInstance) -> ConsistencyInstance:
    """Complement encoding: bit j is 0 iff the element lies in subset j.

    A conjunction over J is positive exactly on elements outside the union,
    so the count flips to |U| - k.
    """
    return _epsc_points(inst, 0)
