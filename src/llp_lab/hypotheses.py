"""Hypothesis classes: evaluation, canonical encodings, enumeration, VC data.

Seven hypothesis kinds share one tagged union: parities, monotone
disjunctions, monotone conjunctions, finite subsets of the naturals,
bounded-span windows, rational halfspaces, and the improper
constant-random baseline.

Canonical encodings drive the deterministic tie-break used by every learner
and oracle in the package: among candidates with equal residual, prefer the
smaller positive count, then the lexicographically smallest encoding.  For
list-shaped hypotheses the element codes are order-preserving and
prefix-free, so comparing encodings equals comparing sorted element lists.
Candidate streams ascend in encoding, so one rule ranks for every learner
and oracle: `_least_per_count` keeps the first witness of each count and
`_nearest_count` picks the count; `ranking_key` is their reference.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    RATIONAL,
    REQUIRED,
    Bits,
    Point,
    Sample,
    _KIND,
    _pack,
    _unpack_bits,
    bits_from_string,
    bits_to_string,
    from_fields,
    json_list,
    point_domain,
    record,
    to_fields,
)
from .errors import BudgetExceeded, DomainMismatch, InfiniteClass, MalformedEncoding

__all__ = [
    "Parity",
    "MonotoneDisjunction",
    "MonotoneConjunction",
    "FiniteSubset",
    "Window",
    "Halfspace",
    "ConstantRandom",
    "Hypothesis",
    "ClassDescriptor",
    "CLASS_IDS",
    "INFINITE_VC",
    "DEFAULT_BUDGET",
    "evaluate",
    "labeler",
    "positive_weight",
    "positive_count",
    "domain_kind",
    "class_domain",
    "vc_dimension",
    "class_size",
    "enumerate_class",
    "distinct_labelings",
    "random_hypothesis",
    "encode",
    "decode",
    "encoding_size",
    "ranking_key",
    "sauer_bound",
    "hypothesis_to_json",
    "hypothesis_from_json",
]

INFINITE_VC = math.inf
DEFAULT_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# the tagged union


@record
class Parity:
    """x maps to <mask, x> mod 2.  The all-zero mask is the trivial parity."""

    mask: Bits

    def __post_init__(self) -> None:
        if not self.mask or any(b not in (0, 1) for b in self.mask):
            raise ValueError(f"bad parity mask: {self.mask!r}")

    @property
    def n(self) -> int:
        return len(self.mask)

    @property
    def trivial(self) -> bool:
        return not any(self.mask)


def _check_vars(n: int, vars: tuple[int, ...]) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"bad dimension {n!r}")
    if any(type(v) is not int or not 1 <= v <= n for v in vars) or list(vars) != sorted(set(vars)):
        raise ValueError(f"vars must be strictly increasing in 1..{n}: {vars!r}")


@record
class MonotoneDisjunction:
    """OR over the listed 1-based variables; the empty disjunction is constant 0."""

    n: int
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vars(self.n, self.vars)


@record
class MonotoneConjunction:
    """AND over the listed 1-based variables; the empty conjunction is constant 1."""

    n: int
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vars(self.n, self.vars)


def _check_nat_elems(elems: tuple[int, ...]) -> None:
    if any(not (isinstance(e, int) and e >= 0) for e in elems):
        raise ValueError(f"elements must be naturals: {elems!r}")
    if list(elems) != sorted(set(elems)):
        raise ValueError(f"elements must be strictly increasing: {elems!r}")


@record
class FiniteSubset:
    """Indicator of a finite set of naturals."""

    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_nat_elems(self.elems)


@record
class Window:
    """Indicator of a finite set of naturals whose span is at most k."""

    k: int
    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"bad span bound {self.k!r}")
        _check_nat_elems(self.elems)
        if self.elems and self.elems[-1] - self.elems[0] > self.k:
            raise ValueError(
                f"span {self.elems[-1] - self.elems[0]} exceeds k={self.k}: {self.elems!r}"
            )


@record
class Halfspace:
    """x maps to 1 iff <normal, x> is strictly greater than the threshold."""

    normal: tuple[Fraction, ...]
    threshold: Fraction

    def __post_init__(self) -> None:
        if not self.normal or any(not isinstance(c, Fraction) for c in self.normal):
            raise ValueError("normal must be a nonempty tuple of Fractions")
        if not isinstance(self.threshold, Fraction):
            raise ValueError("threshold must be a Fraction")

    @property
    def n(self) -> int:
        return len(self.normal)


@record
class ConstantRandom:
    """Improper baseline: labels any point 1 with probability p, ignoring the point."""

    p: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.p, Fraction):
            object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p {self.p} outside [0, 1]")


Hypothesis = (
    Parity
    | MonotoneDisjunction
    | MonotoneConjunction
    | FiniteSubset
    | Window
    | Halfspace
    | ConstantRandom
)

CLASS_IDS = (
    "parity",
    "monotone_disjunction",
    "monotone_conjunction",
    "finite_subset",
    "window",
    "halfspace",
)


# ---------------------------------------------------------------------------
# descriptors


@record
class ClassDescriptor:
    """Names a concrete finite-or-parametric hypothesis class.

    `n` is the bit dimension for bit-vector classes and sets the natural
    domain {1..2^n} for windows.  `restriction` limits parities to their
    first `restriction` coordinates.  `k` is the window span bound.
    `ground_set` is the enumeration universe for finite subsets.
    """

    class_id: str
    n: int
    restriction: int | None = None
    k: int | None = None
    ground_set: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.class_id not in CLASS_IDS:
            raise ValueError(f"unknown class_id {self.class_id!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"bad dimension {self.n!r}")
        if self.restriction is not None:
            if self.class_id != "parity" or type(self.restriction) is not int or not 0 <= self.restriction <= self.n:
                raise ValueError(f"restriction {self.restriction!r} invalid for {self.class_id}")
        if self.class_id == "window":
            if type(self.k) is not int or self.k < 0:
                raise ValueError("window class needs a span bound k >= 0")
        elif self.k is not None:
            raise ValueError(f"k only applies to windows, not {self.class_id}")
        if self.ground_set is not None:
            if self.class_id != "finite_subset":
                raise ValueError("ground_set only applies to finite subsets")
            _check_nat_elems(self.ground_set)


# ---------------------------------------------------------------------------
# evaluation


def domain_kind(h: Hypothesis) -> tuple[str, int | None]:
    """("bits", n), ("nat", None), or ("any", None) for the improper baseline."""
    match h:
        case Parity():
            return ("bits", h.n)
        case MonotoneDisjunction() | MonotoneConjunction():
            return ("bits", h.n)
        case Halfspace():
            return ("bits", h.n)
        case FiniteSubset() | Window():
            return ("nat", None)
        case ConstantRandom():
            return ("any", None)
    raise TypeError(f"not a hypothesis: {h!r}")


def _check_point(h: Hypothesis, x: Point) -> None:
    want = domain_kind(h)
    if want[0] == "any":
        return
    got = point_domain(x)
    if got != want:
        raise DomainMismatch(f"{type(h).__name__} over {want} applied to point {x!r}")


def evaluate(h: Hypothesis, x: Point, rng: random.Random | None = None) -> int:
    """Label of x under h, always 0 or 1.

    The checked per-point reference: every call checks x's domain against
    h's.  Bulk counting over a sample, a distribution or an instance goes
    through the labeling kernel (`labeler`, `positive_weight`) instead,
    which checks a container's domain once; tests pit the two against each
    other.  The constant-random baseline needs an explicit seeded `rng`;
    every proper hypothesis is deterministic and ignores it.
    """
    _check_point(h, x)
    match h:
        case Parity():
            return sum(m & b for m, b in zip(h.mask, x)) & 1  # type: ignore[arg-type]
        case MonotoneDisjunction():
            return int(any(x[v - 1] for v in h.vars))  # type: ignore[index]
        case MonotoneConjunction():
            return int(all(x[v - 1] for v in h.vars))  # type: ignore[index]
        case FiniteSubset() | Window():
            return int(x in h.elems)
        case Halfspace():
            proj = sum((c for c, b in zip(h.normal, x) if b), Fraction(0))  # type: ignore[arg-type]
            return int(proj > h.threshold)
        case ConstantRandom():
            if rng is None:
                raise ValueError("constant_random evaluation needs an explicit rng")
            return int(rng.random() < h.p)
    raise TypeError(f"not a hypothesis: {h!r}")


def _var_mask(n: int, vars: tuple[int, ...]) -> int:
    return sum(1 << (n - v) for v in vars)


def _check_domain(name: str, want: tuple[str, int | None], domain: tuple[str, int | None] | None) -> None:
    """DomainMismatch unless points over `domain` (None: no points) fit a `name` over `want`."""
    if domain is not None and domain != want:
        raise DomainMismatch(f"{name} over {want} applied to points over {domain}")


def labeler(h: Hypothesis, domain: tuple[str, int | None] | None) -> Callable[[int], int]:
    """The labeling kernel: h as a 0/1 predicate on packed points.

    Points are packed by `core._pack`: a bit vector becomes an n-bit int
    with coordinate 1 as the high bit (the order of `iter_cube` and
    `_unpack_bits`), a natural stays as it is.  The domain is checked
    here, once per container: `domain` is the one the container validated
    when it was built (`Sample.domain`, an explicit distribution's on its
    `weighted` sample, a cube's ("bits", n)), and DomainMismatch is raised
    when it differs from `domain_kind(h)`, as `evaluate` would on the
    container's first point.
    `domain` None stands for an empty container and is not checked.  The
    randomized baseline has no fixed labeling and is refused.
    """
    if isinstance(h, ConstantRandom):
        raise ValueError("the randomized baseline has no deterministic labeling")
    _check_domain(type(h).__name__, domain_kind(h), domain)
    match h:
        case Parity():
            mask = _pack(h.mask)
            return lambda x: (mask & x).bit_count() & 1
        case MonotoneDisjunction():
            mask = _var_mask(h.n, h.vars)
            return lambda x: x & mask != 0
        case MonotoneConjunction():
            mask = _var_mask(h.n, h.vars)
            return lambda x: x & mask == mask
        case FiniteSubset() | Window():
            return frozenset(h.elems).__contains__
        case Halfspace():
            # <normal, x> > threshold, scaled by a common denominator so the
            # sum over the set bits is exact integer arithmetic
            den = math.lcm(h.threshold.denominator, *(c.denominator for c in h.normal))
            terms = [(1 << (h.n - 1 - i), int(c * den)) for i, c in enumerate(h.normal) if c]
            cut = int(h.threshold * den)
            return lambda x: sum(w for bit, w in terms if x & bit) > cut
    raise TypeError(f"not a hypothesis: {h!r}")


def positive_weight(
    h: Hypothesis, domain: tuple[str, int | None] | None, pairs: Iterable[tuple[int, object]]
):
    """Sum of the multiplicities of the packed points h labels 1.

    `pairs` holds (packed point, multiplicity) from a container over
    `domain`; see `labeler` for the packing and the domain check.  Returns
    0 when nothing is labeled 1.
    """
    label = labeler(h, domain)
    return sum(w for x, w in pairs if label(x))


def positive_count(h: Hypothesis, sample: Sample) -> int:
    """Number of sample points labeled 1, with multiplicity (proper h only)."""
    return positive_weight(h, sample.domain, sample.packed_counts)


def class_domain(desc: ClassDescriptor) -> str:
    """"bits" or "nat": the point domain every member of the class lives on."""
    if desc.class_id in ("parity", "monotone_disjunction", "monotone_conjunction", "halfspace"):
        return "bits"
    return "nat"


# ---------------------------------------------------------------------------
# VC dimension and class sizes


def _keff(desc: ClassDescriptor) -> int:
    """The coordinates a class member may use: a parity's restriction, else n."""
    return desc.restriction if desc.restriction is not None else desc.n


def vc_dimension(desc: ClassDescriptor) -> int | float:
    """VC dimension, or INFINITE_VC for finite subsets of the naturals."""
    match desc.class_id:
        case "parity" | "monotone_disjunction" | "monotone_conjunction":
            return _keff(desc)
        case "finite_subset":
            return INFINITE_VC
        case "window":
            return desc.k  # type: ignore[return-value]
        case "halfspace":
            return desc.n + 1
    raise ValueError(desc.class_id)


def _window_domain(desc: ClassDescriptor) -> range:
    return range(1, 2**desc.n + 1)


def class_size(desc: ClassDescriptor) -> int:
    """Exact number of hypotheses, or InfiniteClass if there is no finite count."""
    match desc.class_id:
        case "parity" | "monotone_disjunction" | "monotone_conjunction":
            return 2 ** _keff(desc)
        case "finite_subset":
            if desc.ground_set is None:
                raise InfiniteClass("finite subsets need a ground_set to enumerate")
            return 2 ** len(desc.ground_set)
        case "window":
            dom = _window_domain(desc)
            total = 1  # the empty window
            for v in dom:
                reach = min(v + desc.k, dom.stop - 1) - v  # type: ignore[operator]
                total += 2**reach
            return total
        case "halfspace":
            raise InfiniteClass("rational halfspaces are not enumerable")
    raise ValueError(desc.class_id)


def _sized(desc: ClassDescriptor, budget: int) -> int:
    """`class_size(desc)`, or BudgetExceeded when it exceeds `budget`."""
    size = class_size(desc)
    if size > budget:
        raise BudgetExceeded(f"class size {size} exceeds budget {budget}")
    return size


def _subsets_lex(universe: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All subsets of a sorted universe, ascending in sorted-list lex order."""

    def rec(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        for i in range(start, len(universe)):
            prefix.append(universe[i])
            yield from rec(prefix, i + 1)
            prefix.pop()

    return rec([], 0)


def enumerate_class(desc: ClassDescriptor, budget: int = DEFAULT_BUDGET) -> Iterator[Hypothesis]:
    """Every hypothesis once, ascending in canonical encoding order.

    Raises BudgetExceeded up front when the class size exceeds `budget`, and
    InfiniteClass for halfspaces or un-grounded finite subsets.
    """
    size = _sized(desc, budget)

    def gen() -> Iterator[Hypothesis]:
        match desc.class_id:
            case "parity" | "monotone_disjunction" | "monotone_conjunction":
                for value in range(size):
                    yield _class_member(desc, value)
            case "finite_subset":
                for elems in _subsets_lex(tuple(sorted(desc.ground_set))):  # type: ignore[arg-type]
                    yield FiniteSubset(elems)
            case "window":
                yield Window(desc.k, ())  # type: ignore[arg-type]
                dom = _window_domain(desc)
                for v in dom:
                    tail = tuple(u for u in range(v + 1, min(v + desc.k, dom.stop - 1) + 1))  # type: ignore[operator]
                    for extra in _subsets_lex(tail):
                        yield Window(desc.k, (v,) + extra)  # type: ignore[arg-type]

    return gen()


def _class_member(desc: ClassDescriptor, value: int) -> Hypothesis:
    """Member number `value` of a parity, disjunction or conjunction class.

    `enumerate_class` yields these for value 0, 1, ..., in that order: the
    value's high bit is coordinate 1, over keff bits for parities (the
    restriction, or n) and n bits otherwise.  The fields are valid by
    construction, so they are set without the constructor's checks.
    """
    n = desc.n
    if desc.class_id == "parity":
        member = object.__new__(Parity)
        keff = _keff(desc)
        member.__dict__["mask"] = _unpack_bits(value, keff) + (0,) * (n - keff)
    else:
        member = object.__new__(_FOLDS[desc.class_id][0])
        member.__dict__.update(n=n, vars=tuple(j + 1 for j in range(n) if (value >> (n - 1 - j)) & 1))
    return member


def random_hypothesis(desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
    """One hypothesis drawn uniformly from the class (halfspaces excluded)."""
    match desc.class_id:
        case "parity" | "monotone_disjunction" | "monotone_conjunction":
            # one randrange(2) per coordinate, coordinate 1 first: the member's high bit
            return _class_member(desc, sum(rng.randrange(2) << b for b in reversed(range(_keff(desc)))))
        case "finite_subset":
            if desc.ground_set is None:
                raise InfiniteClass("finite subsets need a ground_set")
            return FiniteSubset(tuple(e for e in sorted(desc.ground_set) if rng.randrange(2)))
        case "window":
            dom = _window_domain(desc)
            if rng.randrange(class_size(desc)) == 0:
                return Window(desc.k, ())  # type: ignore[arg-type]
            v = rng.randrange(dom.start, dom.stop)
            tail = [u for u in range(v + 1, min(v + desc.k, dom.stop - 1) + 1)]  # type: ignore[operator]
            return Window(desc.k, (v,) + tuple(u for u in tail if rng.randrange(2)))  # type: ignore[arg-type]
        case "halfspace":
            raise InfiniteClass("no uniform draw over rational halfspaces")
    raise ValueError(desc.class_id)


# ---------------------------------------------------------------------------
# canonical encodings

_TAG = {
    "parity": "000",
    "monotone_disjunction": "001",
    "monotone_conjunction": "010",
    "finite_subset": "011",
    "window": "100",
    "halfspace": "101",
    "constant_random": "110",
}
_TAG_REV = {v: k for k, v in _TAG.items()}


def _nat_code(v: int) -> str:
    """Order-preserving prefix-free code: (L-1) ones, a zero, then L value bits."""
    length = max(v.bit_length(), 1)
    return "1" * (length - 1) + "0" + format(v, f"0{length}b")


def _read_nat(bits: str, pos: int) -> tuple[int, int]:
    ones = 0
    while pos + ones < len(bits) and bits[pos + ones] == "1":
        ones += 1
    length = ones + 1
    end = pos + ones + 1 + length
    if pos + ones >= len(bits) or end > len(bits):
        raise MalformedEncoding("truncated natural")
    return int(bits[pos + ones + 1 : end], 2), end


def _fraction_code(q: Fraction) -> str:
    sign = "1" if q < 0 else "0"
    return sign + _nat_code(abs(q.numerator)) + _nat_code(q.denominator)


def _read_fraction(bits: str, pos: int) -> tuple[Fraction, int]:
    if pos >= len(bits):
        raise MalformedEncoding("truncated fraction")
    sign = -1 if bits[pos] == "1" else 1
    num, pos = _read_nat(bits, pos + 1)
    den, pos = _read_nat(bits, pos)
    if den == 0:
        raise MalformedEncoding("zero denominator")
    return Fraction(sign * num, den), pos


def _membership_bits(n: int, vars: tuple[int, ...]) -> str:
    chars = ["0"] * n
    for v in vars:
        chars[v - 1] = "1"
    return "".join(chars)


def encode(h: Hypothesis) -> str:
    """Canonical bit string: a 3-bit tag followed by the payload."""
    match h:
        case Parity():
            return _TAG["parity"] + bits_to_string(h.mask)
        case MonotoneDisjunction():
            return _TAG["monotone_disjunction"] + _membership_bits(h.n, h.vars)
        case MonotoneConjunction():
            return _TAG["monotone_conjunction"] + _membership_bits(h.n, h.vars)
        case FiniteSubset():
            return _TAG["finite_subset"] + "".join(_nat_code(e) for e in h.elems)
        case Window():
            return _TAG["window"] + _nat_code(h.k) + "".join(_nat_code(e) for e in h.elems)
        case Halfspace():
            body = _nat_code(h.n) + "".join(_fraction_code(c) for c in h.normal)
            return _TAG["halfspace"] + body + _fraction_code(h.threshold)
        case ConstantRandom():
            return _TAG["constant_random"] + _nat_code(h.p.numerator) + _nat_code(h.p.denominator)
    raise TypeError(f"not a hypothesis: {h!r}")


def encoding_size(h: Hypothesis) -> int:
    """Representation size in bits; this is the size term of complexity bounds."""
    return len(encode(h))


def _read_nat_list(bits: str, pos: int) -> tuple[int, ...]:
    elems = []
    while pos < len(bits):
        e, pos = _read_nat(bits, pos)
        elems.append(e)
    return tuple(elems)


def decode(bits: str) -> Hypothesis:
    """Inverse of `encode`; raises MalformedEncoding on anything invalid."""
    if len(bits) < 3 or any(ch not in "01" for ch in bits):
        raise MalformedEncoding(f"bad encoding {bits!r}")
    kind = _TAG_REV.get(bits[:3])
    body = bits[3:]
    try:
        match kind:
            case "parity":
                if not body:
                    raise MalformedEncoding("empty parity mask")
                return Parity(bits_from_string(body))
            case "monotone_disjunction" | "monotone_conjunction":
                if not body:
                    raise MalformedEncoding("empty membership vector")
                vars = tuple(j + 1 for j, ch in enumerate(body) if ch == "1")
                cls = MonotoneDisjunction if kind == "monotone_disjunction" else MonotoneConjunction
                return cls(len(body), vars)
            case "finite_subset":
                return FiniteSubset(_read_nat_list(body, 0))
            case "window":
                k, pos = _read_nat(body, 0)
                return Window(k, _read_nat_list(body, pos))
            case "halfspace":
                n, pos = _read_nat(body, 0)
                normal = []
                for _ in range(n):
                    c, pos = _read_fraction(body, pos)
                    normal.append(c)
                threshold, pos = _read_fraction(body, pos)
                if pos != len(body):
                    raise MalformedEncoding("trailing bits after halfspace")
                return Halfspace(tuple(normal), threshold)
            case "constant_random":
                num, pos = _read_nat(body, 0)
                den, pos = _read_nat(body, pos)
                if pos != len(body) or den == 0:
                    raise MalformedEncoding("bad constant_random payload")
                return ConstantRandom(Fraction(num, den))
    except ValueError as exc:
        raise MalformedEncoding(str(exc)) from exc
    raise MalformedEncoding(f"unknown tag {bits[:3]!r}")


def ranking_key(residual: Fraction, count: int, h: Hypothesis) -> tuple[Fraction, int, str]:
    """Shared tie-break: residual, then positive count, then encoding.

    The reference for `_least_per_count` followed by `_nearest_count`.
    """
    return (residual, count, encode(h))


def _least_per_count(candidates: Iterable[tuple[int, object]]) -> tuple[dict[int, object], int]:
    """count -> the first witness with that count, and the number of candidates.

    The candidates must arrive in ascending encoding, so each count keeps
    its encoding-least witness, the one `ranking_key` puts first.
    """
    first: dict[int, object] = {}
    examined = 0
    for examined, (count, w) in enumerate(candidates, 1):
        if count not in first:
            first[count] = w
    return first, examined


def _nearest_count(sorted_counts: list[int], m: int, claimed: Fraction) -> int:
    """The count nearest claimed * m, the smaller on a tie, by bisection in integers.

    For a claim p/q the distance of count c is |c*q - p*m| / (m*q), so only
    the largest count below p*m/q and the smallest at or above it can win;
    a tie goes to the smaller one.  With m = 0 every distance is 0 and the
    smallest count wins.  `oracles._best_count` is the Fraction reference.
    """
    if not m:
        return sorted_counts[0]
    p, q = claimed.as_integer_ratio()
    target = p * m
    i = bisect_left(sorted_counts, -(-target // q))
    if i == len(sorted_counts):
        return sorted_counts[-1]
    above = sorted_counts[i]
    if i == 0:
        return above
    below = sorted_counts[i - 1]
    return below if target - below * q <= above * q - target else above


def sauer_bound(d: int, m: int) -> float:
    """Growth-function cap (e*m/d)^d, valid for m >= d >= 1."""
    if d < 1 or m < d:
        raise ValueError(f"need m >= d >= 1, got d={d}, m={m}")
    return (math.e * m / d) ** d


# ---------------------------------------------------------------------------
# the column-bitset kernel: labelings and weights as int bitsets over points

# _BIT_DIGITS[b] maps a byte to b"1" when its bit b is set, else to b"0"
_BIT_DIGITS = tuple(bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8))


def _bit_planes(values: Sequence[int], width: int) -> list[int]:
    """The transpose of `values`: planes[b] has bit j set iff values[j] has bit b set.

    One plane for each b < width.  For packed points (`core._pack`) plane b
    is the column of coordinate n - b; for multiplicities it is a bit plane
    of the weights.  The work is done a byte at a time in C: each 8-bit
    slice of every value, values[0] last so that it lands on bit 0, goes
    into one `bytes`, and `bytes.translate` spells each of its 8 bits as a
    string of b"0"/b"1" digits that `int(..., 2)` reads.
    """
    if not values:
        return [0] * width
    last_first = values[::-1]
    planes: list[int] = []
    for shift in range(0, width, 8):
        sliced = map(int.__rshift__, last_first, repeat(shift)) if shift else last_first
        row = bytes(map((255).__and__, sliced))
        for digits in _BIT_DIGITS[: width - shift]:
            planes.append(int(row.translate(digits), 2))
    return planes


def _bitset_weigher(weights: Sequence[int]) -> Callable[[int], int]:
    """bitset -> the sum of weights[j] over its set bits j, by bit planes.

    With P_b the plane of bit b of the weights (`_bit_planes`), the weight
    of `vec` is the sum over b of popcount(vec & P_b) << b: one AND and one
    popcount per bit of the largest weight, whatever the number of items.
    No tables: building them cost more than the few weighs an oracle's
    count table or a noisy-parity check makes.
    """
    top_first = _bit_planes(weights, max(weights, default=0).bit_length())[::-1]

    def weigh(vec: int) -> int:
        total = 0
        for plane in top_first:  # Horner: double, then add the next bit's popcount
            total += total + (vec & plane).bit_count()
        return total

    return weigh


# each class the kernel folds: its member type and the fold of its columns
_FOLDS: dict[str, tuple[type, Callable[[int, int], int]]] = {
    "monotone_disjunction": (MonotoneDisjunction, operator.or_),
    "monotone_conjunction": (MonotoneConjunction, operator.and_),
}


def _fold_walk(fold: Callable[[int, int], int], columns: Sequence[int], unit: int) -> Iterator[int]:
    """fold(unit, columns[b] for each set bit b of value), for value = 0, 1, ..., 2^k - 1.

    A stack holds the partial folds over the set bits of the current value,
    highest bit first.  Going from value - 1 to value clears its trailing
    ones, which pops as many entries, and sets the next bit, which pushes
    one: O(k) memory and amortized O(1) folds per value.
    """
    stack = [unit]
    yield unit
    for value in range(1, 1 << len(columns)):
        low = (value & -value).bit_length() - 1
        if low:
            del stack[-low:]
        top = fold(stack[-1], columns[low])
        stack.append(top)
        yield top


# ---------------------------------------------------------------------------
# distinct labelings on a sample


def _generic_labelings(
    desc: ClassDescriptor, sample: Sample, budget: int
) -> list[tuple[int, Hypothesis]]:
    bits = [(x, 1 << j) for j, (x, _) in enumerate(sample.packed_counts)]
    best: dict[int, Hypothesis] = {}
    for h in enumerate_class(desc, budget):
        label = labeler(h, sample.domain)
        vec = sum(bit for x, bit in bits if label(x))
        if vec not in best:  # enumeration is in encoding order, first wins
            best[vec] = h
    return list(best.items())


def _parity_labelings(columns: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """Achievable parity labelings as (bitset, mask), in ascending mask.

    columns[b] is the labeling of the parity whose keff-bit mask is 1 << b
    (value bit b, coordinate keff - b): plane n - keff + b of the transposed
    points.  The span grows from bit 0 up.  `pairs` holds every
    labeling of the masks below 2^b, each with its least mask, in ascending
    mask.  A column in the span of the lower ones adds no labeling, since a
    smaller mask already gives each one it reaches; any other doubles the
    list.  So the first mask to reach a labeling is the encoding-minimal
    one, as full enumeration would pick.  Raises BudgetExceeded when the
    2^rank labelings exceed `budget`.
    """
    if budget < 1:
        raise BudgetExceeded(f"1 labeling exceeds budget {budget}")
    pivots: dict[int, int] = {}  # leading bit length -> independent column
    pairs = [(0, 0)]
    for b, column in enumerate(columns):
        vec = column
        while vec and (pivot := pivots.get(vec.bit_length())):  # leading-bit elimination
            vec ^= pivot
        if not vec:
            continue
        if 2 * len(pairs) > budget:
            raise BudgetExceeded(f"at least {2 * len(pairs)} labelings exceed budget {budget}")
        pivots[vec.bit_length()] = vec
        bit = 1 << b
        pairs += [(v ^ column, w | bit) for v, w in pairs]
    return pairs


def _labeling_bitsets(
    desc: ClassDescriptor, sample: Sample, budget: int
) -> tuple[list[tuple[int, object]], Callable[[object], Hypothesis]]:
    """The one walk of a class over a sample: (bitset, witness) pairs and a build.

    ERM, the brute oracle's count table and `distinct_labelings` read it.
    Bit j of a bitset is the label of the sample's j-th unique point
    (`packed_counts` order).  `build` turns a witness into the
    encoding-minimal hypothesis realizing that labeling.  For parities the
    witness is the least keff-bit mask (coordinate 1 high) of the span grown
    over the transposed points (`_parity_labelings`).  A disjunction or
    conjunction member ORs or ANDs the columns of its coordinates: value bit
    b is plane b of the points, so `_fold_walk` yields the labelings in
    class order, and the first value to give each one is its witness.
    `_class_member` builds both.  Windows and finite subsets label with
    `labeler` per hypothesis of `enumerate_class` and carry the hypothesis.
    For every class the pairs ascend in witness encoding.  BudgetExceeded
    (class size over `budget`) comes before DomainMismatch, as in a scan of
    the class, except that parities check the domain first and cap their
    2^rank labelings instead.
    """
    points = [x for x, _ in sample.packed_counts]
    build = partial(_class_member, desc)
    if desc.class_id == "parity":
        _check_domain("Parity", ("bits", desc.n), sample.domain)
        keff = _keff(desc)
        return _parity_labelings(_bit_planes(points, desc.n)[desc.n - keff :], budget), build  # type: ignore[return-value]
    if desc.class_id in _FOLDS:  # disjunctions and conjunctions
        _sized(desc, budget)
        member, fold = _FOLDS[desc.class_id]
        _check_domain(member.__name__, ("bits", desc.n), sample.domain)
        unit = (1 << len(points)) - 1 if member is MonotoneConjunction else 0
        first: dict[int, int] = {}
        for value, vec in enumerate(_fold_walk(fold, _bit_planes(points, desc.n), unit)):
            first.setdefault(vec, value)  # first in encoding order wins
        return list(first.items()), build  # type: ignore[return-value]
    return _generic_labelings(desc, sample, budget), lambda h: h  # type: ignore[return-value]


def distinct_labelings(
    desc: ClassDescriptor, sample: Sample, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], Hypothesis]]:
    """Every achievable labeling of the sample's unique points, once each.

    Labeling coordinates follow the unique points in canonical sorted order.
    The witness attached to a labeling is the encoding-minimal hypothesis
    realizing it, so optimizing over this stream reproduces exactly what a
    full scan of the class would select under the shared tie-break.

    Labelings come in ascending encoding of their witnesses, for every
    class.  An empty sample yields the single empty labeling.  The budget
    caps the underlying enumeration: the class size, or for parities the
    2^rank labelings of the span.  This is a view of the kernel
    `_labeling_bitsets`, which holds each labeling as an int bitset and
    each parity witness as a mask: it decodes them into 0/1 tuples and
    hypotheses.  Learners rank the bitsets directly.
    """
    pairs, build = _labeling_bitsets(desc, sample, budget)
    r = len(sample.packed_counts)
    return iter([(tuple((vec >> j) & 1 for j in range(r)), build(w)) for vec, w in pairs])


def _count_table(desc: ClassDescriptor, sample: Sample, budget: int) -> dict[int, Hypothesis]:
    """Positive count -> encoding-minimal hypothesis achieving it.

    The class must fit `budget` (BudgetExceeded before any domain check).
    The kernel's labelings (`_labeling_bitsets`), which ascend in witness
    encoding, are weighed by the bit planes of the sample's multiplicities
    (`_bitset_weigher`); `_least_per_count` keeps the first witness per
    count, which is the encoding-minimal one, and only those become
    hypotheses.  The tests hold this to a scan of `enumerate_class` with
    `positive_weight`.
    """
    _sized(desc, budget)
    pairs, build = _labeling_bitsets(desc, sample, budget)
    weigh = _bitset_weigher([c for _, c in sample.packed_counts])
    first, _ = _least_per_count((weigh(vec), w) for vec, w in pairs)
    return {count: build(w) for count, w in first.items()}


# ---------------------------------------------------------------------------
# JSON forms


_DESCRIPTOR = (
    ("class_id", "class_id", None, REQUIRED),
    ("n", "n", None, REQUIRED),
    ("restriction", "restriction", None, None),
    ("k", "k", None, None),
    ("ground_set", "ground_set", json_list(None, "class ground_set"), None),
)
_VARS = (("n", "n", None, REQUIRED), ("vars", "vars", json_list(None, "hypothesis vars"), REQUIRED))
_ELEMS = ("elems", "elems", json_list(None, "hypothesis elems"), REQUIRED)
# kind -> the hypothesis type and its fields, each read into the type's constructor
_HYPOTHESES = {
    "parity": (Parity, (("mask", "mask", (bits_to_string, bits_from_string), REQUIRED),)),
    "monotone_disjunction": (MonotoneDisjunction, _VARS),
    "monotone_conjunction": (MonotoneConjunction, _VARS),
    "finite_subset": (FiniteSubset, (_ELEMS,)),
    "window": (Window, (("k", "k", None, REQUIRED), _ELEMS)),
    "halfspace": (Halfspace, (
        ("normal", "normal", json_list(RATIONAL, "halfspace normal"), REQUIRED),
        ("threshold", "threshold", RATIONAL, REQUIRED),
    )),
    "constant_random": (ConstantRandom, (("p", "p", RATIONAL, REQUIRED),)),
}


def class_descriptor_to_json(desc: ClassDescriptor) -> dict:
    return to_fields(_DESCRIPTOR, desc)


def class_descriptor_from_json(obj: dict) -> ClassDescriptor:
    return ClassDescriptor(**from_fields(_DESCRIPTOR, obj, "class"))


def hypothesis_to_json(h: Hypothesis) -> dict:
    for kind, (cls, fields) in _HYPOTHESES.items():
        if type(h) is cls:
            return {"kind": kind, **to_fields(fields, h)}
    raise TypeError(f"not a hypothesis: {h!r}")


def hypothesis_from_json(obj: dict) -> Hypothesis:
    kind = from_fields(_KIND, obj, "hypothesis")["kind"]
    for name, (cls, fields) in _HYPOTHESES.items():  # compared, not looked up: kind may be an unhashable list
        if kind == name:
            return cls(**from_fields(fields, obj, f"{name} hypothesis"))
    raise MalformedEncoding(f"unknown hypothesis kind: {kind!r}")


DESCRIPTOR = (class_descriptor_to_json, class_descriptor_from_json)
HYPOTHESIS = (hypothesis_to_json, hypothesis_from_json)
