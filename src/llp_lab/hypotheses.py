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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .core import (
    Bits,
    Point,
    Sample,
    _pack,
    bits_from_string,
    bits_to_string,
    point_domain,
    rational_from_json,
    rational_to_json,
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


@dataclass(frozen=True)
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
    if any(not 1 <= v <= n for v in vars) or list(vars) != sorted(set(vars)):
        raise ValueError(f"vars must be strictly increasing in 1..{n}: {vars!r}")


@dataclass(frozen=True)
class MonotoneDisjunction:
    """OR over the listed 1-based variables; the empty disjunction is constant 0."""

    n: int
    vars: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vars(self.n, self.vars)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FiniteSubset:
    """Indicator of a finite set of naturals."""

    elems: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_nat_elems(self.elems)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
            if self.class_id != "parity" or not 0 <= self.restriction <= self.n:
                raise ValueError(f"restriction {self.restriction!r} invalid for {self.class_id}")
        if self.class_id == "window":
            if self.k is None or self.k < 0:
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


def labeler(h: Hypothesis, domain: tuple[str, int | None] | None) -> Callable[[int], int]:
    """The labeling kernel: h as a 0/1 predicate on packed points.

    Points are packed by `core._pack`: a bit vector becomes an n-bit int
    with coordinate 1 as the high bit (the order of `iter_cube` and
    `_mask_to_tuple`), a natural stays as it is.  The domain is checked
    here, once per container: `domain` is the one the container validated
    when it was built (`Sample.domain`, `ExplicitDistribution.packed`, a
    cube's ("bits", n)), and DomainMismatch is raised when it differs from
    `domain_kind(h)`, as `evaluate` would on the container's first point.
    `domain` None stands for an empty container and is not checked.  The
    randomized baseline has no fixed labeling and is refused.
    """
    if isinstance(h, ConstantRandom):
        raise ValueError("the randomized baseline has no deterministic labeling")
    want = domain_kind(h)
    if domain is not None and domain != want:
        raise DomainMismatch(f"{type(h).__name__} over {want} applied to points over {domain}")
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
    """Sum of the weights (multiplicities or masses) of the packed points h labels 1.

    `pairs` holds (packed point, weight) from a container over `domain`;
    see `labeler` for the packing and the domain check.  Returns int 0
    when nothing is labeled 1.
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


def vc_dimension(desc: ClassDescriptor) -> int | float:
    """VC dimension, or INFINITE_VC for finite subsets of the naturals."""
    match desc.class_id:
        case "parity":
            return desc.restriction if desc.restriction is not None else desc.n
        case "monotone_disjunction" | "monotone_conjunction":
            return desc.n
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
        case "parity":
            keff = desc.restriction if desc.restriction is not None else desc.n
            return 2**keff
        case "monotone_disjunction" | "monotone_conjunction":
            return 2**desc.n
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
    size = class_size(desc)
    if size > budget:
        raise BudgetExceeded(f"class size {size} exceeds budget {budget}")

    def gen() -> Iterator[Hypothesis]:
        match desc.class_id:
            case "parity":
                keff = desc.restriction if desc.restriction is not None else desc.n
                pad = (0,) * (desc.n - keff)
                for value in range(2**keff):
                    yield Parity(tuple((value >> (keff - 1 - i)) & 1 for i in range(keff)) + pad)
            case "monotone_disjunction" | "monotone_conjunction":
                cls = MonotoneDisjunction if desc.class_id == "monotone_disjunction" else MonotoneConjunction
                for value in range(2**desc.n):
                    vars = tuple(j + 1 for j in range(desc.n) if (value >> (desc.n - 1 - j)) & 1)
                    yield cls(desc.n, vars)
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


def random_hypothesis(desc: ClassDescriptor, rng: random.Random) -> Hypothesis:
    """One hypothesis drawn uniformly from the class (halfspaces excluded)."""
    match desc.class_id:
        case "parity":
            keff = desc.restriction if desc.restriction is not None else desc.n
            bits = tuple(rng.randrange(2) for _ in range(keff)) + (0,) * (desc.n - keff)
            return Parity(bits)
        case "monotone_disjunction":
            return MonotoneDisjunction(
                desc.n, tuple(v for v in range(1, desc.n + 1) if rng.randrange(2))
            )
        case "monotone_conjunction":
            return MonotoneConjunction(
                desc.n, tuple(v for v in range(1, desc.n + 1) if rng.randrange(2))
            )
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
    """Shared tie-break: residual, then positive count, then encoding."""
    return (residual, count, encode(h))


def sauer_bound(d: int, m: int) -> float:
    """Growth-function cap (e*m/d)^d, valid for m >= d >= 1."""
    if d < 1 or m < d:
        raise ValueError(f"need m >= d >= 1, got d={d}, m={m}")
    return (math.e * m / d) ** d


# ---------------------------------------------------------------------------
# distinct labelings on a sample


def _generic_labelings(
    desc: ClassDescriptor, sample: Sample, budget: int
) -> list[tuple[tuple[int, ...], Hypothesis]]:
    best: dict[tuple[int, ...], Hypothesis] = {}
    order: list[tuple[int, ...]] = []
    packed = tuple(x for x, _ in sample.packed_counts)
    for h in enumerate_class(desc, budget):
        lab = tuple(map(int, map(labeler(h, sample.domain), packed)))
        if lab not in best:  # enumeration is in encoding order, first wins
            best[lab] = h
            order.append(lab)
    return [(lab, best[lab]) for lab in order]


def _mask_to_tuple(mask: int, keff: int, n: int) -> Bits:
    return tuple((mask >> (keff - 1 - i)) & 1 for i in range(keff)) + (0,) * (n - keff)


def _parity_labelings(
    desc: ClassDescriptor, points: tuple[Point, ...], budget: int
) -> list[tuple[tuple[int, ...], Hypothesis]]:
    """Achievable parity labelings via elimination over GF(2).

    The labelings form the span of the per-coordinate rows; witnesses are
    reduced against a kernel basis so each one is the encoding-minimal mask
    realizing its labeling, matching what full enumeration would pick.
    """
    keff = desc.restriction if desc.restriction is not None else desc.n
    r = len(points)
    basis: list[tuple[int, int]] = []  # (labeling vector, mask combo)
    kernel: list[int] = []
    for i in range(keff):
        vec = 0
        for j, pt in enumerate(points):
            if pt[i]:  # type: ignore[index]
                vec |= 1 << j
        mask = 1 << (keff - 1 - i)
        # reduce by current basis (leading-bit elimination)
        for bv, bm in basis:
            high = 1 << (bv.bit_length() - 1)
            if vec & high:
                vec ^= bv
                mask ^= bm
        if vec:
            basis.append((vec, mask))
            basis.sort(key=lambda t: -t[0])
        else:
            kernel.append(mask)
    if 2 ** len(basis) > budget:
        raise BudgetExceeded(f"2^{len(basis)} labelings exceed budget {budget}")
    # fully reduce the kernel: unique pivot bit per vector, pivots descending
    kernel_rref: list[int] = []
    for vec in kernel:
        for kb in sorted(kernel_rref, reverse=True):
            high = 1 << (kb.bit_length() - 1)
            if vec & high:
                vec ^= kb
        if vec:
            kernel_rref.append(vec)
    kernel_rref.sort(reverse=True)
    for i in range(len(kernel_rref)):
        high = 1 << (kernel_rref[i].bit_length() - 1)
        for j in range(len(kernel_rref)):
            if j != i and kernel_rref[j] & high:
                kernel_rref[j] ^= kernel_rref[i]
    kernel_rref.sort(reverse=True)  # pivots from coordinate 1 downward

    out: list[tuple[tuple[int, ...], Hypothesis]] = []
    rank = len(basis)
    for combo in range(2**rank):
        vec = 0
        mask = 0
        for i in range(rank):
            if (combo >> i) & 1:
                vec ^= basis[i][0]
                mask ^= basis[i][1]
        for kb in kernel_rref:  # lex-minimal coset representative
            high = 1 << (kb.bit_length() - 1)
            if mask & high:
                mask ^= kb
        lab = tuple((vec >> j) & 1 for j in range(r))
        out.append((lab, Parity(_mask_to_tuple(mask, keff, desc.n))))
    return out


def distinct_labelings(
    desc: ClassDescriptor, sample: Sample, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[int, ...], Hypothesis]]:
    """Every achievable labeling of the sample's unique points, once each.

    Labeling coordinates follow the unique points in canonical sorted order.
    The witness attached to a labeling is the encoding-minimal hypothesis
    realizing it, so optimizing over this stream reproduces exactly what a
    full scan of the class would select under the shared tie-break.

    An empty sample yields the single empty labeling.  The budget caps the
    underlying enumeration (class size, or 2^rank for parities).
    """
    if desc.class_id == "parity":
        if sample.domain not in (None, ("bits", desc.n)):
            raise DomainMismatch(f"points over {sample.domain} outside {{0,1}}^{desc.n}")
        pairs = _parity_labelings(desc, tuple(p for p, _ in sample.counts), budget)
    else:
        pairs = _generic_labelings(desc, sample, budget)
    return iter(pairs)


# ---------------------------------------------------------------------------
# JSON forms


def class_descriptor_to_json(desc: ClassDescriptor) -> dict:
    out: dict = {"class_id": desc.class_id, "n": desc.n}
    if desc.restriction is not None:
        out["restriction"] = desc.restriction
    if desc.k is not None:
        out["k"] = desc.k
    if desc.ground_set is not None:
        out["ground_set"] = list(desc.ground_set)
    return out


def class_descriptor_from_json(obj: dict) -> ClassDescriptor:
    return ClassDescriptor(
        class_id=obj["class_id"],
        n=obj["n"],
        restriction=obj.get("restriction"),
        k=obj.get("k"),
        ground_set=tuple(obj["ground_set"]) if obj.get("ground_set") is not None else None,
    )


def hypothesis_to_json(h: Hypothesis) -> dict:
    match h:
        case Parity():
            return {"kind": "parity", "mask": bits_to_string(h.mask)}
        case MonotoneDisjunction():
            return {"kind": "monotone_disjunction", "n": h.n, "vars": list(h.vars)}
        case MonotoneConjunction():
            return {"kind": "monotone_conjunction", "n": h.n, "vars": list(h.vars)}
        case FiniteSubset():
            return {"kind": "finite_subset", "elems": list(h.elems)}
        case Window():
            return {"kind": "window", "k": h.k, "elems": list(h.elems)}
        case Halfspace():
            return {
                "kind": "halfspace",
                "normal": [rational_to_json(c) for c in h.normal],
                "threshold": rational_to_json(h.threshold),
            }
        case ConstantRandom():
            return {"kind": "constant_random", "p": rational_to_json(h.p)}
    raise TypeError(f"not a hypothesis: {h!r}")


def hypothesis_from_json(obj: dict) -> Hypothesis:
    match obj.get("kind"):
        case "parity":
            return Parity(bits_from_string(obj["mask"]))
        case "monotone_disjunction":
            return MonotoneDisjunction(obj["n"], tuple(obj["vars"]))
        case "monotone_conjunction":
            return MonotoneConjunction(obj["n"], tuple(obj["vars"]))
        case "finite_subset":
            return FiniteSubset(tuple(obj["elems"]))
        case "window":
            return Window(obj["k"], tuple(obj["elems"]))
        case "halfspace":
            return Halfspace(
                tuple(rational_from_json(c) for c in obj["normal"]),
                rational_from_json(obj["threshold"]),
            )
        case "constant_random":
            return ConstantRandom(rational_from_json(obj["p"]))
    raise ValueError(f"unknown hypothesis kind: {obj.get('kind')!r}")
