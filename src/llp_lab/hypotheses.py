"""Hypothesis classes: evaluation, canonical encodings, enumeration, VC data.

Seven hypothesis kinds, each one record class in the `Hypothesis` union:
parities, monotone disjunctions, monotone conjunctions, finite subsets of
the naturals, bounded-span windows, rational halfspaces, and the improper
constant-random baseline.  The class holds all its kind needs (`_Kind`
names it).  Six class ids, each one row of `_CLASSES` (`_Row`), whose keys
are `CLASS_IDS`.  The public functions read the kind or the row, so adding
a kind is one class joined to the union, and adding a class id one row.

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
import struct
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, repeat
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
    parse_rational,
    point_domain,
    record,
    to_fields,
)
from .errors import BudgetExceeded, DomainMismatch, InfiniteClass, InvalidParams, MalformedEncoding, NotAHypothesis

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
# the kinds


class _Kind:
    """Every hypothesis kind subclasses this and gives the fronts what they read.

    `_tag` + `_payload()` is the encoding, which the classmethod `_read`
    inverts; `_name` and `_fields` are the JSON kind and field table;
    `_domain()` is the point domain, n-bit vectors unless overridden;
    `_label(x, rng)` labels a checked point (`evaluate`, the reference)
    and `_labeler()` is the packed predicate (`labeler`), written apart;
    `_cube_proportion()` is the closed-form share of the uniform cube, or None;
    `_bias()` is the chance of a 1 for a kind that labels each example by
    its own coin flip, whatever the point, and None for a deterministic one.
    """

    def _domain(self) -> tuple[str, int | None]:
        return ("bits", self.n)  # type: ignore[attr-defined]

    def _cube_proportion(self) -> Fraction | None:
        return None

    def _bias(self) -> Fraction | None:
        return None


@record
class Parity(_Kind):
    """x maps to <mask, x> mod 2.  The all-zero mask is the trivial parity."""

    mask: Bits

    _tag, _name = "000", "parity"
    _fields = (("mask", "mask", (bits_to_string, bits_from_string), REQUIRED),)

    def __post_init__(self) -> None:
        if not self.mask or any(type(b) is not int or b not in (0, 1) for b in self.mask):
            raise ValueError(f"bad parity mask: {self.mask!r}")

    @property
    def n(self) -> int:
        return len(self.mask)

    @property
    def trivial(self) -> bool:
        return not any(self.mask)

    @cached_property
    def packed(self) -> int:
        """The mask `_pack`ed, coordinate 1 the high bit; a class member is built with it."""
        return _pack(self.mask)

    def _label(self, x: Bits, rng: random.Random | None) -> int:
        return sum(m & b for m, b in zip(self.mask, x)) & 1

    def _labeler(self) -> Callable[[int], int]:
        mask = self.packed
        return lambda x: (mask & x).bit_count() & 1

    def _cube_proportion(self) -> Fraction:
        return Fraction(0) if self.trivial else Fraction(1, 2)

    def _payload(self) -> str:
        return bits_to_string(self.mask)

    @classmethod
    def _read(cls, payload: str) -> Parity:
        if not payload:
            raise MalformedEncoding("empty parity mask")
        return cls(bits_from_string(payload))


class _Monotone(_Kind):
    """A monotone formula over the 1-based `vars` of n bits.

    The two kinds differ in the fold of the listed bits, `_fold`, in its
    start `_unit` (the empty formula's label) and in the packed predicate.
    """

    _fields = (("n", "n", None, REQUIRED), ("vars", "vars", json_list(None, "hypothesis vars"), REQUIRED))

    def __post_init__(self) -> None:
        n, vars = self.n, self.vars
        if type(n) is not int or n < 1:
            raise ValueError(f"bad dimension {n!r}")
        if any(type(v) is not int or not 1 <= v <= n for v in vars) or list(vars) != sorted(set(vars)):
            raise ValueError(f"vars must be strictly increasing in 1..{n}: {vars!r}")

    @cached_property
    def packed(self) -> int:
        """The variable mask `_var_mask(n, vars)`, variable v at bit n - v; a class member is built with it."""
        return _var_mask(self.n, self.vars)

    def _label(self, x: Bits, rng: random.Random | None) -> int:
        return int(reduce(self._fold, (x[v - 1] for v in self.vars), self._unit))

    def _cube_proportion(self) -> Fraction | None:
        return None if self.vars else Fraction(self._unit)

    def _payload(self) -> str:
        chars = ["0"] * self.n
        for v in self.vars:
            chars[v - 1] = "1"
        return "".join(chars)

    @classmethod
    def _read(cls, payload: str) -> _Monotone:
        if not payload:
            raise MalformedEncoding("empty membership vector")
        return cls(len(payload), tuple(j + 1 for j, ch in enumerate(payload) if ch == "1"))  # type: ignore[call-arg]


def _var_mask(n: int, vars: tuple[int, ...]) -> int:
    return sum(1 << (n - v) for v in vars)


@record
class MonotoneDisjunction(_Monotone):
    """OR over the listed 1-based variables; the empty disjunction is constant 0."""

    n: int
    vars: tuple[int, ...]

    _tag, _name, _fold, _unit = "001", "monotone_disjunction", operator.or_, 0

    def _labeler(self) -> Callable[[int], int]:
        mask = self.packed
        return lambda x: x & mask != 0


@record
class MonotoneConjunction(_Monotone):
    """AND over the listed 1-based variables; the empty conjunction is constant 1."""

    n: int
    vars: tuple[int, ...]

    _tag, _name, _fold, _unit = "010", "monotone_conjunction", operator.and_, 1

    def _labeler(self) -> Callable[[int], int]:
        mask = self.packed
        return lambda x: x & mask == mask


class _Elems(_Kind):
    """The indicator of the naturals `elems`; a window puts its span bound before them."""

    _fields = (("elems", "elems", json_list(None, "hypothesis elems"), REQUIRED),)

    def __post_init__(self) -> None:
        elems = self.elems
        if any(type(e) is not int or e < 0 for e in elems):
            raise ValueError(f"elements must be naturals: {elems!r}")
        if list(elems) != sorted(set(elems)):
            raise ValueError(f"elements must be strictly increasing: {elems!r}")

    def _domain(self) -> tuple[str, int | None]:
        return ("nat", None)

    def _label(self, x: int, rng: random.Random | None) -> int:
        return int(x in self.elems)

    def _labeler(self) -> Callable[[int], bool]:
        return frozenset(self.elems).__contains__

    def _payload(self) -> str:
        return "".join(_nat_code(e) for e in self.elems)

    @classmethod
    def _read(cls, payload: str) -> _Elems:
        return cls(_read_nat_list(payload, 0))  # type: ignore[call-arg]


@record
class FiniteSubset(_Elems):
    """Indicator of a finite set of naturals."""

    elems: tuple[int, ...]

    _tag, _name = "011", "finite_subset"


@record
class Window(_Elems):
    """Indicator of a finite set of naturals whose span is at most k."""

    k: int
    elems: tuple[int, ...]

    _tag, _name = "100", "window"
    _fields = (("k", "k", None, REQUIRED), *_Elems._fields)

    def __post_init__(self) -> None:
        if type(self.k) is not int or self.k < 0:
            raise ValueError(f"bad span bound {self.k!r}")
        super().__post_init__()
        if self.elems and self.elems[-1] - self.elems[0] > self.k:
            raise ValueError(
                f"span {self.elems[-1] - self.elems[0]} exceeds k={self.k}: {self.elems!r}"
            )

    def _payload(self) -> str:
        return _nat_code(self.k) + super()._payload()

    @classmethod
    def _read(cls, payload: str) -> Window:
        k, pos = _read_nat(payload, 0)
        return cls(k, _read_nat_list(payload, pos))


@record
class Halfspace(_Kind):
    """x maps to 1 iff <normal, x> is strictly greater than the threshold."""

    normal: tuple[Fraction, ...]
    threshold: Fraction

    _tag, _name = "101", "halfspace"
    _fields = (
        ("normal", "normal", json_list(RATIONAL, "halfspace normal"), REQUIRED),
        ("threshold", "threshold", RATIONAL, REQUIRED),
    )

    def __post_init__(self) -> None:
        if not self.normal or any(not isinstance(c, Fraction) for c in self.normal):
            raise ValueError("normal must be a nonempty tuple of Fractions")
        if not isinstance(self.threshold, Fraction):
            raise ValueError("threshold must be a Fraction")

    @property
    def n(self) -> int:
        return len(self.normal)

    def _label(self, x: Bits, rng: random.Random | None) -> int:
        proj = sum((c for c, b in zip(self.normal, x) if b), Fraction(0))
        return int(proj > self.threshold)

    def _labeler(self) -> Callable[[int], bool]:
        # <normal, x> > threshold, scaled by a common denominator so the
        # sum over the set bits is exact integer arithmetic
        den = math.lcm(self.threshold.denominator, *(c.denominator for c in self.normal))
        terms = [(1 << (self.n - 1 - i), int(c * den)) for i, c in enumerate(self.normal) if c]
        cut = int(self.threshold * den)
        return lambda x: sum(w for bit, w in terms if x & bit) > cut

    def _payload(self) -> str:
        body = _nat_code(self.n) + "".join(_fraction_code(c) for c in self.normal)
        return body + _fraction_code(self.threshold)

    @classmethod
    def _read(cls, payload: str) -> Halfspace:
        n, pos = _read_nat(payload, 0)
        normal = []
        for _ in range(n):
            c, pos = _read_fraction(payload, pos)
            normal.append(c)
        threshold, pos = _read_fraction(payload, pos)
        if pos != len(payload):
            raise MalformedEncoding("trailing bits after halfspace")
        return cls(tuple(normal), threshold)


@record
class ConstantRandom(_Kind):
    """Improper baseline: labels any point 1 with probability p, ignoring the point.

    p is read by `core.parse_rational`, so a float is refused.
    """

    p: Fraction

    _tag, _name = "110", "constant_random"
    _fields = (("p", "p", RATIONAL, REQUIRED),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", parse_rational(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"p {self.p} outside [0, 1]")

    def _domain(self) -> tuple[str, int | None]:
        return ("any", None)

    def _label(self, x: Point, rng: random.Random | None) -> int:
        if rng is None:
            raise InvalidParams("constant_random evaluation needs an explicit rng")
        return int(rng.random() < self.p)

    def _labeler(self) -> Callable[[int], int]:
        raise InvalidParams("the randomized baseline has no deterministic labeling")

    def _cube_proportion(self) -> Fraction:
        return self.p

    def _bias(self) -> Fraction:
        return self.p

    @classmethod
    def _at(cls, p: Fraction) -> ConstantRandom:
        """The baseline at a p already checked to be a Fraction in [0, 1], such as a sample's p_hat."""
        h = object.__new__(cls)
        h.__dict__["p"] = p
        return h

    def _payload(self) -> str:
        return _nat_code(self.p.numerator) + _nat_code(self.p.denominator)

    @classmethod
    def _read(cls, payload: str) -> ConstantRandom:
        num, pos = _read_nat(payload, 0)
        den, pos = _read_nat(payload, pos)
        if pos != len(payload) or den == 0:
            raise MalformedEncoding("bad constant_random payload")
        return cls(Fraction(num, den))


Hypothesis = Parity | MonotoneDisjunction | MonotoneConjunction | FiniteSubset | Window | Halfspace | ConstantRandom
_KINDS = Hypothesis.__args__


def _checked(h: Hypothesis) -> Hypothesis:
    """h itself, or NotAHypothesis: the one check the fronts make of their argument."""
    if isinstance(h, _Kind):
        return h
    raise NotAHypothesis(f"not a hypothesis: {h!r}")


# ---------------------------------------------------------------------------
# descriptors


@record
class ClassDescriptor:
    """Names a concrete finite-or-parametric hypothesis class.

    `n` is the bit dimension for bit-vector classes and sets the natural
    domain {1..2^n} for windows.  `restriction` limits parities to their
    first `restriction` coordinates.  `k` is the window span bound.
    `ground_set` is the enumeration universe for finite subsets.  Which
    of these options a class takes is its row's `options`.
    """

    class_id: str
    n: int
    restriction: int | None = None
    k: int | None = None
    ground_set: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.class_id not in CLASS_IDS:
            raise ValueError(f"unknown class_id {self.class_id!r}")
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"bad dimension {self.n!r}")
        takes = _CLASSES[self.class_id].options
        for option in ("restriction", "k", "ground_set"):
            if getattr(self, option) is not None and option not in takes:
                raise ValueError(f"{option} does not apply to {self.class_id}")
        if self.restriction is not None and (type(self.restriction) is not int or not 0 <= self.restriction <= self.n):
            raise ValueError(f"restriction {self.restriction!r} invalid for {self.class_id}")
        if "k" in takes and (type(self.k) is not int or self.k < 0):  # a span bound has no default
            raise ValueError(f"{self.class_id} class needs a span bound k >= 0")
        if self.ground_set is not None:
            FiniteSubset(self.ground_set)  # a ground set's checks are a finite subset's


# ---------------------------------------------------------------------------
# evaluation


def domain_kind(h: Hypothesis) -> tuple[str, int | None]:
    """("bits", n), ("nat", None), or ("any", None) for the improper baseline."""
    return _checked(h)._domain()


def evaluate(h: Hypothesis, x: Point, rng: random.Random | None = None) -> int:
    """Label of x under h, always 0 or 1.

    The checked per-point reference: every call checks x's domain against
    h's.  Bulk counting over a sample, a distribution or an instance goes
    through the labeling kernel (`labeler`, `positive_weight`) instead,
    which checks a container's domain once; tests pit the two against each
    other.  The constant-random baseline needs an explicit seeded `rng`;
    every proper hypothesis is deterministic and ignores it.
    """
    want = domain_kind(h)
    if want[0] != "any" and point_domain(x) != want:
        raise DomainMismatch(f"{type(h).__name__} over {want} applied to point {x!r}")
    return h._label(x, rng)


def _check_domain(name: str, want: tuple[str, int | None], domain: tuple[str, int | None] | None) -> None:
    """DomainMismatch unless points over `domain` (None: no points) fit a `name` over `want` ("any" fits all)."""
    if domain is not None and domain != want and want[0] != "any":
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
    label = _checked(h)._labeler()
    _check_domain(type(h).__name__, h._domain(), domain)
    return label


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


def _coin_bias(h: Hypothesis) -> Fraction | None:
    """The chance of a 1 if h labels each example by its own coin flip, whatever the point, else None.

    p for the randomized baseline; None for every proper hypothesis, whose
    labels the kernel (`labeler`) gives.
    """
    return _checked(h)._bias()


def _closed_proportion(h: Hypothesis, n: int) -> Fraction | None:
    """h's closed-form proportion on the uniform n-cube, or None; DomainMismatch as from `labeler`."""
    _check_domain(type(h).__name__, domain_kind(h), ("bits", n))
    return h._cube_proportion()


# ---------------------------------------------------------------------------
# the class fronts: each reads the class id's row


def class_domain(desc: ClassDescriptor) -> str:
    """"bits" or "nat": the point domain every member of the class lives on."""
    return _CLASSES[desc.class_id].domain


def vc_dimension(desc: ClassDescriptor) -> int | float:
    """VC dimension, or INFINITE_VC for finite subsets of the naturals."""
    return _CLASSES[desc.class_id].vc(desc)


def class_size(desc: ClassDescriptor) -> int:
    """Exact number of hypotheses, or InfiniteClass if there is no finite count."""
    return _CLASSES[desc.class_id].size(desc)


def _sized(desc: ClassDescriptor, budget: int) -> int:
    """`class_size(desc)`, or BudgetExceeded when it exceeds `budget`."""
    size = class_size(desc)
    if size > budget:
        raise BudgetExceeded(f"class size {size} exceeds budget {budget}")
    return size


def enumerate_class(desc: ClassDescriptor, budget: int = DEFAULT_BUDGET) -> Iterator[Hypothesis]:
    """Every hypothesis once, ascending in canonical encoding order.

    Raises BudgetExceeded up front when the class size exceeds `budget`, and
    InfiniteClass for halfspaces or un-grounded finite subsets.
    """
    _sized(desc, budget)
    return _CLASSES[desc.class_id].members(desc)


def random_hypothesis(desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
    """One hypothesis drawn uniformly from the class (halfspaces excluded)."""
    return _CLASSES[desc.class_id].draw(desc, rng)


@lru_cache(maxsize=4096)
def _class_member(row: _Numbered, n: int, keff: int, value: int) -> Hypothesis:
    """Member number `value` of the parity, disjunction or conjunction class `row` over n bits, keff of them free.

    The one store of numbered members (hash-consing): each is built once
    per process by `row.member_at` and kept while it is among the 4096
    used last, keyed by the row and three ints.  A member is a frozen
    record whose `packed` is set when it is built, so its callers share
    it: the count tables, the walk's `build` (ERM's winner and
    `distinct_labelings`) and `random_hypothesis`.  `enumerate_class`
    builds its members afresh, so a scan of a large class neither fills
    the store nor evicts from it; it yields member `value` for value 0, 1,
    ...: the value's high bit is coordinate 1, over keff bits for parities
    (the restriction, or n) and n bits otherwise.
    """
    return row.member_at(n, keff, value)


# ---------------------------------------------------------------------------
# canonical encodings


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


def _read_nat_list(bits: str, pos: int) -> tuple[int, ...]:
    elems = []
    while pos < len(bits):
        e, pos = _read_nat(bits, pos)
        elems.append(e)
    return tuple(elems)


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


def encode(h: Hypothesis) -> str:
    """Canonical bit string: a 3-bit tag followed by the payload."""
    return _checked(h)._tag + h._payload()


def encoding_size(h: Hypothesis) -> int:
    """Representation size in bits; this is the size term of complexity bounds."""
    return len(encode(h))


def decode(bits: str) -> Hypothesis:
    """Inverse of `encode`; raises MalformedEncoding on anything invalid."""
    if len(bits) < 3 or any(ch not in "01" for ch in bits):
        raise MalformedEncoding(f"bad encoding {bits!r}")
    for kind in _KINDS:
        if kind._tag == bits[:3]:
            try:
                return kind._read(bits[3:])
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
        raise InvalidParams(f"need m >= d >= 1, got d={d}, m={m}")
    return (math.e * m / d) ** d


# ---------------------------------------------------------------------------
# the column-bitset kernel: labelings and weights as int bitsets over points

# _BIT_DIGITS[b] maps a byte to b"1" when its bit b is set, else to b"0":
# runs of 2^b zeros and 2^b ones, repeated
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))
_LANE = (1 << 64) - 1


def _plane_rows(values: Sequence[int], width: int) -> list[bytes]:
    """The rows `_Planes` reads: row k holds byte k of every value, values[0] last.

    Built in C so that values[0] lands on bit 0: `bytes` of the values
    when they fit a byte, and otherwise one
    `struct.pack` of little-endian 64-bit lanes per 64 bits of width,
    whose byte k of every value is the slice raw[k::8].  No values give
    one zero byte per row, which reads as an empty plane.
    """
    if not values:
        return [b"\0"] * -(-width // 8)
    last_first = values[::-1]
    if width <= 8:
        return [bytes(last_first)]
    rows = []
    for shift in range(0, width, 64):
        lanes = map(int.__rshift__, last_first, repeat(shift)) if shift else last_first
        if width - shift > 64:
            lanes = map(_LANE.__and__, lanes)
        raw = struct.pack(f"<{len(values)}Q", *lanes)
        rows += (raw[k::8] for k in range(min(8, -(-(width - shift) // 8))))
    return rows


class _Planes(dict):
    """The transpose of `values`, b -> plane b for b < width: bit j of plane b is bit b of values[j].

    For packed points (`core._pack`) plane b is the column of coordinate
    n - b; for multiplicities it is a bit plane of the weights; for one
    0/1 flag per draw the one plane is their bitset.  The byte rows
    (`_plane_rows`) are built at once, and each plane when first read:
    `bytes.translate` spells the bits b of a row as a string of b"0"/b"1"
    digits that `int(..., 2)` reads, so a caller pays only for the planes
    it reads (`read`).
    """

    def __init__(self, values: Sequence[int], width: int) -> None:
        self.rows, self.width = _plane_rows(values, width), width

    def __missing__(self, b: int) -> int:
        if not 0 <= b < self.width:
            raise KeyError(b)
        plane = self[b] = int(self.rows[b >> 3].translate(_BIT_DIGITS[b & 7]), 2)
        return plane

    def read(self, bits: Iterable[int]) -> list[int]:
        """The planes b for b in `bits`, in that order."""
        return list(map(self.__getitem__, bits))


def _bitset_weigher(weights: Sequence[int]) -> Callable[[int], int]:
    """bitset -> the sum of weights[j] over its set bits j, by items or bit planes, whichever are fewer.

    With no more items than bits in the largest weight (a few points of
    large multiplicity, as in a consistency instance's oracle sample), a
    weigh adds the weights at the set bits, one step per item, and nothing
    is built beforehand.  Otherwise, with P_b plane b of the weights
    (`_Planes`, every plane read once, highest first), the weight of `vec`
    is the sum over b of popcount(vec & P_b) << b: one AND and one popcount
    per bit of the largest weight.  No tables: building them cost more than
    the few weighs an oracle's count table or a noisy-parity check makes.
    """
    width = max(weights, default=0).bit_length()
    if len(weights) <= width:

        def weigh_items(vec: int) -> int:
            total = 0
            for w in weights:
                if vec & 1:
                    total += w
                vec >>= 1
            return total

        return weigh_items
    top_first = _Planes(weights, width).read(reversed(range(width)))

    def weigh(vec: int) -> int:
        total = 0
        for plane in top_first:  # Horner: double, then add the next bit's popcount
            total += total + (vec & plane).bit_count()
        return total

    return weigh


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


def _butterfly(cells: list[int]) -> list[int]:
    """The 2^k cells, in place, as their superset sums.

    Cell v becomes the sum of the cells whose index holds every bit of v.
    Each of the k rounds pairs cell i with cell i + 2^(k-1), whose index
    differs in the top bit, and writes (lo + hi, hi) to cells 2i and
    2i + 1.  That rotates every index one bit left, so the next round's top
    bit is the next bit down, and after k rounds each bit has been summed
    over once and the indices are back in place.  A round is a few slices
    and maps, run in C.
    """
    half = len(cells) >> 1
    for _ in range(half.bit_length()):
        lo, hi = cells[:half], cells[half:]
        cells[::2] = map(operator.add, lo, hi)
        cells[1::2] = hi
    return cells


# ---------------------------------------------------------------------------
# distinct labelings on a sample


def _generic_labelings(members: Iterable[Hypothesis], sample: Sample) -> list[tuple[int, Hypothesis]]:
    bits = [(x, 1 << j) for j, (x, _) in enumerate(sample.packed_counts)]
    best: dict[int, Hypothesis] = {}
    for h in members:
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

    ERM and `distinct_labelings` read it, and the count tables' walk
    (`_Row.table`, after `_count_table` has sized the class) reads the
    same row's `walk`; the class id's row names the walk.
    Bit j of a bitset is the label of the sample's j-th unique point
    (`packed_counts` order).  `build` turns a witness into the
    encoding-minimal hypothesis realizing that labeling.  For parities the
    witness is the least keff-bit mask (coordinate 1 high) of the span grown
    over the transposed points (`_parity_labelings`).  A disjunction or
    conjunction member ORs or ANDs the columns of its coordinates: value bit
    b is plane b of the points, so `_fold_walk` yields the labelings in
    class order, and the first value to give each one is its witness.
    Both are taken from the member store (`_class_member`).  Windows and
    finite subsets label with `labeler` per member of the class and carry
    the hypothesis.
    For every class the pairs ascend in witness encoding.  BudgetExceeded
    (class size over `budget`) comes before DomainMismatch, as in a scan of
    the class, except that parities check the domain first and cap their
    2^rank labelings instead.
    """
    return _CLASSES[desc.class_id].labelings(desc, sample, budget)


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
    """Positive count -> encoding-minimal hypothesis achieving it, in ascending witness encoding.

    The class must fit `budget` (BudgetExceeded before any domain check);
    it is sized once, here, and its row builds the table (`table`).  Every
    row can walk the class's distinct labelings (`_labeling_bitsets`) and
    weigh each against the multiplicities (`_bitset_weigher`); that walk
    is the reference, and two rows have a second way for one form of
    sample, with the same items in the same order:
    - a disjunction or conjunction class whose 2^n cells are at most
      `_CELLS_PER_POINT` (8) per distinct sample point gets every member's
      count at once from one superset-sum transform (`_butterfly`);
    - a parity class over a nonempty masked sample (`core._Kept`: all of a
      draw's points and a bitset `keep` of the ones it holds, from noisy
      parity) weighs each labeling of the draws' columns ANDed with
      `keep` by its popcount, so no histogram of the kept draws is built.
    Every other sample, a dense plain parity sample included, walks.  Per
    count, the first value or witness in ascending encoding is kept
    (`_least_per_count`), and only those become hypotheses; a numbered
    class's come from the member store (`_class_member`), so a later table
    asking for the same member gets the same frozen object.  The tests
    hold the ways to the walk and to a scan of `enumerate_class` with
    `positive_weight`.
    """
    _sized(desc, budget)
    return _CLASSES[desc.class_id].table(desc, sample, budget)


# ---------------------------------------------------------------------------
# the class ids


# A disjunction or conjunction count table is taken from the superset-sum
# transform when the class's 2^n cells are at most this many per distinct
# sample point, and from the walk otherwise; see `_Numbered.table`.
_CELLS_PER_POINT = 8


def _keff(desc: ClassDescriptor) -> int:
    """The coordinates a class member may use: a parity's restriction, else n."""
    return desc.restriction if desc.restriction is not None else desc.n


def _subsets_lex(universe: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All subsets of a sorted universe, ascending in sorted-list lex order."""

    def rec(prefix: list[int], start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        for i in range(start, len(universe)):
            prefix.append(universe[i])
            yield from rec(prefix, i + 1)
            prefix.pop()

    return rec([], 0)


class _Row:
    """A class id: the point `domain` of its members, the descriptor `options` it takes.

    Its methods take a descriptor of the class: `vc`, `size` (or
    InfiniteClass), `members` ascending in encoding (after `size` was
    checked), a uniform `draw`, `walk`, the (bitset, witness) pairs and
    their build for a class already sized, by default a scan of the
    members, `labelings`, the walk of `_labeling_bitsets`: by default the
    class sized against the budget, then `walk`, and `table`, the count
    table of `_count_table` for a class already sized.
    """

    def __init__(self, domain: str, *options: str) -> None:
        self.domain, self.options = domain, options

    def labelings(self, desc: ClassDescriptor, sample: Sample, budget: int):
        _sized(desc, budget)
        return self.walk(desc, sample, budget)

    def walk(self, desc: ClassDescriptor, sample: Sample, budget: int):
        return _generic_labelings(self.members(desc), sample), lambda h: h

    def table(self, desc: ClassDescriptor, sample: Sample, budget: int) -> dict[int, Hypothesis]:
        """The count table from the walk, each distinct labeling weighed: the reference every row's table matches."""
        pairs, build = self.walk(desc, sample, budget)
        weigh = _bitset_weigher([c for _, c in sample.packed_counts])
        first, _ = _least_per_count((weigh(vec), w) for vec, w in pairs)
        return {count: build(w) for count, w in first.items()}


class _Numbered(_Row):
    """2^keff members of the kind `member`, numbered by value: `member_at` builds one, `_class_member` keeps it.

    As it stands, a disjunction or conjunction row: the labelings fold the
    points' columns with the member kind's fold, and a dense sample's
    table sums the points over supersets.
    """

    def __init__(self, member: type, *options: str) -> None:
        super().__init__("bits", *options)
        self.member = member

    vc = staticmethod(_keff)

    def size(self, desc: ClassDescriptor) -> int:
        return 2 ** _keff(desc)

    def members(self, desc: ClassDescriptor) -> Iterator[Hypothesis]:
        return map(partial(self.member_at, desc.n, _keff(desc)), range(self.size(desc)))

    def draw(self, desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
        keff = _keff(desc)
        # one randrange(2) per coordinate, coordinate 1 first: the member's high bit
        return _class_member(self, desc.n, keff, sum(rng.randrange(2) << b for b in reversed(range(keff))))

    def member_at(self, n: int, keff: int, value: int) -> Hypothesis:
        # value is the member's variable mask (`packed`): variable j is in the formula when bit n - j is set
        member = object.__new__(self.member)
        member.__dict__.update(n=n, vars=tuple(compress(range(1, n + 1), _unpack_bits(value, n))), packed=value)
        return member

    def table(self, desc: ClassDescriptor, sample: Sample, budget: int) -> dict[int, Hypothesis]:
        """The count table from every member's count at once, one transform over the 2^n cells, or the walk.

        The transform is taken while the 2^n cells are at most
        `_CELLS_PER_POINT` per distinct point u: it costs O(u + n * 2^n),
        with the cell sums in C.  Timed over random samples at n 1-10, it
        beats the walk, which folds all 2^n values in Python, up to that
        density.  The sample's multiplicities are added into a vector over
        the cube and summed over supersets (`_butterfly`).  At value v that
        sum is the weight of the points holding all of v's variables: a
        conjunction's count.  A disjunction labels 0 exactly the points
        holding none of its variables, so for it each point is added at its
        complement, and its count is the total weight less the sum at v.
        Each count's least value becomes its member through the store
        (`_class_member`).
        """
        n = desc.n
        if 1 << n > _CELLS_PER_POINT * len(sample.packed_counts):
            return super().table(desc, sample, budget)
        _check_domain(self.member.__name__, ("bits", n), sample.domain)
        flip = 0 if self.member._unit else (1 << n) - 1
        cells = [0] * (1 << n)
        for x, c in sample.packed_counts:
            cells[x ^ flip] += c
        sums = _butterfly(cells)
        first, _ = _least_per_count(zip([sums[0] - s for s in sums] if flip else sums, range(1 << n)))
        return {count: _class_member(self, n, n, value) for count, value in first.items()}

    def walk(self, desc: ClassDescriptor, sample: Sample, budget: int):
        _check_domain(self.member.__name__, ("bits", desc.n), sample.domain)
        points = [x for x, _ in sample.packed_counts]
        unit = (1 << len(points)) - 1 if self.member._unit else 0
        first: dict[int, int] = {}
        columns = _Planes(points, desc.n).read(range(desc.n))
        for value, vec in enumerate(_fold_walk(self.member._fold, columns, unit)):
            first.setdefault(vec, value)  # first in encoding order wins
        return list(first.items()), partial(_class_member, self, desc.n, _keff(desc))


class _Parities(_Numbered):
    """Parities: a member is a keff-bit mask, the labelings are the span of the points' columns (planes n - keff .. n - 1)."""

    def member_at(self, n: int, keff: int, value: int) -> Hypothesis:
        member = object.__new__(Parity)
        packed = value << (n - keff)  # the keff-bit value, then n - keff zeros
        member.__dict__.update(mask=_unpack_bits(packed, n), packed=packed)
        return member

    def labelings(self, desc: ClassDescriptor, sample: Sample, budget: int):
        return self.walk(desc, sample, budget)  # the span caps its 2^rank labelings, not the class size

    def table(self, desc: ClassDescriptor, sample: Sample, budget: int) -> dict[int, Hypothesis]:
        """The count table of a nonempty masked sample by popcounts over its draws, or the walk.

        A labeling of the masked columns (each of the draws' planes
        n - keff .. n - 1 ANDed with `keep`) is a labeling of all the draws
        ANDed with `keep`, so its popcount is its count on the kept draws.
        The span (`_parity_labelings`) yields each labeling with its least
        mask, in ascending mask, so the first mask per count is the
        encoding-least member with that count.  Any other sample, masked
        and empty or plain, walks the span of its distinct points.
        """
        kept = sample._kept
        if kept is None or not sample.m:
            return _Row.table(self, desc, sample, budget)
        _check_domain("Parity", ("bits", desc.n), sample.domain)
        n, keff = desc.n, _keff(desc)
        columns = [plane & kept.keep for plane in kept.planes.read(range(n - keff, n))]  # type: ignore[attr-defined]
        first, _ = _least_per_count((vec.bit_count(), mask) for vec, mask in _parity_labelings(columns, budget))
        return {count: _class_member(self, n, keff, mask) for count, mask in first.items()}

    def walk(self, desc: ClassDescriptor, sample: Sample, budget: int):
        _check_domain("Parity", ("bits", desc.n), sample.domain)
        n, keff = desc.n, _keff(desc)
        columns = _Planes([x for x, _ in sample.packed_counts], n).read(range(n - keff, n))
        return _parity_labelings(columns, budget), partial(_class_member, self, n, keff)


class _Subsets(_Row):
    """Finite subsets of the naturals, enumerable over a ground set."""

    def vc(self, desc: ClassDescriptor) -> float:
        return INFINITE_VC

    def size(self, desc: ClassDescriptor) -> int:
        if desc.ground_set is None:
            raise InfiniteClass("finite subsets need a ground_set to enumerate")
        return 2 ** len(desc.ground_set)

    def members(self, desc: ClassDescriptor) -> Iterator[Hypothesis]:
        return map(FiniteSubset, _subsets_lex(tuple(sorted(desc.ground_set))))  # type: ignore[arg-type]

    def draw(self, desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
        if desc.ground_set is None:
            raise InfiniteClass("finite subsets need a ground_set")
        return FiniteSubset(tuple(e for e in sorted(desc.ground_set) if rng.randrange(2)))


class _Windows(_Row):
    """Windows of span at most k over the naturals 1..2^n: the empty one, then by least element."""

    def vc(self, desc: ClassDescriptor) -> int:
        return desc.k  # type: ignore[return-value]

    def tail(self, desc: ClassDescriptor, v: int) -> range:
        """The naturals a window whose least element is v may also hold."""
        return range(v + 1, min(v + desc.k, 2**desc.n) + 1)  # type: ignore[operator]

    def size(self, desc: ClassDescriptor) -> int:
        top, total = 2**desc.n, 1  # the empty window
        for v in range(1, top + 1):
            total += 2 ** (min(v + desc.k, top) - v)  # type: ignore[operator]
        return total

    def members(self, desc: ClassDescriptor) -> Iterator[Hypothesis]:
        yield Window(desc.k, ())  # type: ignore[arg-type]
        for v in range(1, 2**desc.n + 1):
            for extra in _subsets_lex(tuple(self.tail(desc, v))):
                yield Window(desc.k, (v,) + extra)  # type: ignore[arg-type]

    def draw(self, desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
        if rng.randrange(self.size(desc)) == 0:
            return Window(desc.k, ())  # type: ignore[arg-type]
        v = rng.randrange(1, 2**desc.n + 1)
        return Window(desc.k, (v,) + tuple(u for u in self.tail(desc, v) if rng.randrange(2)))  # type: ignore[arg-type]


class _Halfspaces(_Row):
    """Rational halfspaces: no count, no enumeration, no uniform draw."""

    def vc(self, desc: ClassDescriptor) -> int:
        return desc.n + 1

    def size(self, desc: ClassDescriptor) -> int:
        raise InfiniteClass("rational halfspaces are not enumerable")

    members = size

    def draw(self, desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
        raise InfiniteClass("no uniform draw over rational halfspaces")


_CLASSES = {
    "parity": _Parities(Parity, "restriction"),
    "monotone_disjunction": _Numbered(MonotoneDisjunction),
    "monotone_conjunction": _Numbered(MonotoneConjunction),
    "finite_subset": _Subsets("nat", "ground_set"),
    "window": _Windows("nat", "k"),
    "halfspace": _Halfspaces("bits"),
}
CLASS_IDS = tuple(_CLASSES)


# ---------------------------------------------------------------------------
# JSON forms


_DESCRIPTOR = (
    ("class_id", "class_id", None, REQUIRED),
    ("n", "n", None, REQUIRED),
    ("restriction", "restriction", None, None),
    ("k", "k", None, None),
    ("ground_set", "ground_set", json_list(None, "class ground_set"), None),
)


def class_descriptor_to_json(desc: ClassDescriptor) -> dict:
    return to_fields(_DESCRIPTOR, desc)


def class_descriptor_from_json(obj: dict) -> ClassDescriptor:
    return ClassDescriptor(**from_fields(_DESCRIPTOR, obj, "class"))


def hypothesis_to_json(h: Hypothesis) -> dict:
    return {"kind": _checked(h)._name, **to_fields(h._fields, h)}


def hypothesis_from_json(obj: dict) -> Hypothesis:
    name = from_fields(_KIND, obj, "hypothesis")["kind"]
    for kind in _KINDS:  # compared, not looked up: the name may be an unhashable list
        if name == kind._name:
            return kind(**from_fields(kind._fields, obj, f"{kind._name} hypothesis"))
    raise MalformedEncoding(f"unknown hypothesis kind: {name!r}")


DESCRIPTOR = (class_descriptor_to_json, class_descriptor_from_json)
HYPOTHESIS = (hypothesis_to_json, hypothesis_from_json)
