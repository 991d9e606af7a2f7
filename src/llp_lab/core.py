"""Input spaces, exact-rational distributions, and sample containers.

Points are either bit vectors (tuples of 0/1 ints) or natural numbers (plain
ints); the two domains never mix inside one distribution or sample.  Every
probability mass and every proportion is a `fractions.Fraction`: floating
point appears only inside the samplers' threshold arithmetic, never in a
reported weight or proportion.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
from dataclasses import _FIELD_INITVAR, _HAS_DEFAULT_FACTORY  # dataclass's markers of InitVars and factories
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from operator import attrgetter, itemgetter
from reprlib import recursive_repr
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from ._pcg64 import PCG64
from .errors import (
    DomainMismatch,
    DuplicateSupportPoint,
    EmptySupport,
    InvalidParams,
    MalformedEncoding,
    NonPositiveWeight,
    UnsupportedRecord,
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

_R = TypeVar("_R", bound=type)


# ---------------------------------------------------------------------------
# records


def _frozen_setattr(self: object, name: str, value: object) -> None:
    """The `__setattr__` of every record and sample: no attribute can be set."""
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self: object, name: str) -> None:
    """The `__delattr__` of every record and sample: no attribute can be deleted."""
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls: _R) -> _R:
    """`cls` as a frozen dataclass that compiles only its `__init__`.

    `dataclass(frozen=True)` compiles six methods per class with `exec`,
    most of what importing the package cost.  Here `dataclass` only reads
    the fields (`init=False, eq=False, repr=False`): `fields`, `replace`,
    `astuple` and `is_dataclass` work as on any dataclass, and
    `__dataclass_params__` reads `init=False, frozen=False`.  `__init__`
    is compiled once per class (`_record_init`).  `__setattr__` and
    `__delattr__` are `_frozen_setattr` and `_frozen_delattr`, shared by
    every record: they raise dataclass's FrozenInstanceError for every
    name, for a subclass too (dataclass lets a subclass set a non-field
    name).  `__eq__`, `__hash__` and `__repr__` are closures, one code
    object each for every record, over an `attrgetter` of the field names
    (a single field wrapped in a 1-tuple).  They behave as Python 3.11's
    dataclass methods: `==` compares the field tuples of two instances of
    the very same class (else `NotImplemented`), the hash is that of the
    field tuple, and the repr is `QualName(f=value!r, ...)`, "..." on
    recursion.  A field option these methods do not honour (`compare`,
    `hash`, `repr`, `init`, `kw_only`, an `InitVar`) raises
    `UnsupportedRecord`, a `TypeError`, and so does a class that defines
    `__init__`, `__setattr__` or `__delattr__` itself.
    """
    cls = dataclass(cls, init=False, eq=False, repr=False)
    own = fields(cls)
    if not all(f.compare and f.repr and f.hash is None for f in own):
        raise UnsupportedRecord(f"record {cls.__qualname__} has a field with compare, hash or repr set")
    initvar = any(f._field_type is _FIELD_INITVAR for f in cls.__dataclass_fields__.values())  # type: ignore[attr-defined]
    if initvar or not all(f.init and not f.kw_only for f in own):
        raise UnsupportedRecord(f"record {cls.__qualname__} has a field with init or kw_only set, or an InitVar")
    if {"__init__", "__setattr__", "__delattr__"} & vars(cls).keys():
        raise UnsupportedRecord(f"record {cls.__qualname__} defines __init__, __setattr__ or __delattr__")
    names = tuple(f.name for f in own)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)
    template = "(" + ", ".join(f"{name}={{!r}}" for name in names) + ")"

    def __eq__(self: object, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self: object) -> int:
        return hash(key(self))

    def __repr__(self: object) -> str:
        return self.__class__.__qualname__ + template.format(*key(self))

    cls.__init__ = _record_init(cls, own)  # type: ignore[misc]
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr  # type: ignore[assignment]
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, recursive_repr()(__repr__)
    return cls


def _record_init(cls: type, own: tuple[Field, ...]) -> Callable[..., None]:
    """dataclass's `__init__` for the fields `own` of `cls`, compiled once.

    It writes the fields straight into the instance's `__dict__` (faster
    than `object.__setattr__`, though CPython 3.11 then reads the fields
    through that dict rather than its inline values), then calls
    `__post_init__` if the class has one.  Its signature is
    dataclass's: the field names in order, the defaults in `__defaults__`
    (a `default_factory`'s as dataclass's own marker) and the field types
    as annotations.  A field without a default after one with a default
    raises dataclass's message as UnsupportedRecord.  As in dataclass's
    generated code, its globals are the class's module and the factories
    (`_dflt_<name>`) are cells of the wrapper it is made in.
    """
    names = [f.name for f in own]
    cells: dict[str, object] = {}
    defaults: list[object] = []
    body = ["  __dataclass_dict__ = self.__dict__"]
    for f in own:
        value = f.name
        if f.default_factory is not MISSING:
            cells["_HAS_DEFAULT_FACTORY"] = _HAS_DEFAULT_FACTORY
            cells[f"_dflt_{f.name}"] = f.default_factory
            value = f"_dflt_{f.name}() if {f.name} is _HAS_DEFAULT_FACTORY else {f.name}"
            defaults.append(_HAS_DEFAULT_FACTORY)
        elif f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise UnsupportedRecord(f"non-default argument {f.name!r} follows default argument")
        body.append(f"  __dataclass_dict__[{f.name!r}] = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    head = [f"def __create_fn__({', '.join(cells)}):", f" def __init__({', '.join(['self', *names])}):"]
    module = sys.modules.get(cls.__module__)
    namespace: dict[str, Callable[..., Callable[..., None]]] = {}
    exec("\n".join([*head, *body, " return __init__"]), vars(module) if module else {}, namespace)
    init = namespace["__create_fn__"](**cells)
    init.__defaults__ = tuple(defaults) or None
    init.__annotations__ = {**{f.name: f.type for f in own}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


# ---------------------------------------------------------------------------
# points


def bits_from_string(s: str) -> Bits:
    if not isinstance(s, str) or not s or any(ch not in "01" for ch in s):
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


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def _unpack_bits(value: int, n: int) -> Bits:
    """The n-bit vector whose packed form is `value` (`_pack` inverted), high bit first.

    `value` must be below 2^n.  `format` spells it as n binary digits and
    `translate` turns each digit byte into its bit, both in C.
    """
    return tuple(format(value, f"0{n}b").encode().translate(_DIGIT_BITS)) if n else ()


def _unpack(domain: tuple[str, int | None] | None, values: Sequence[int]) -> tuple[Point, ...]:
    """Points from their packed forms (`_pack` inverted), in order.

    A natural is its own packed form.  Each distinct bit vector is built
    once, so the memo holds at most 2^n entries however many values repeat.
    """
    if domain is None or domain[0] == "nat":
        return tuple(values)
    n = domain[1]
    vectors = {v: _unpack_bits(v, n) for v in set(values)}  # type: ignore[arg-type]
    return tuple(map(vectors.__getitem__, values))


def point_domain(point: Point) -> tuple[str, int | None]:
    """Return ("bits", n) for a bit vector, ("nat", None) for a natural.

    A bit is the int 0 or 1, as in a parity mask: a bool is neither a bit
    nor a natural.  Anything else raises InvalidParams (a ValueError).
    """
    if isinstance(point, tuple):
        if not point or any(type(b) is not int or b not in (0, 1) for b in point):
            raise InvalidParams(f"not a valid bit vector: {point!r}")
        return ("bits", len(point))
    if isinstance(point, int) and not isinstance(point, bool) and point >= 0:
        return ("nat", None)
    raise InvalidParams(f"not a valid point: {point!r}")


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


@record
class ExplicitDistribution:
    """Finitely supported distribution given by (point, weight) atoms.

    Atoms are stored sorted by point, weights are positive Fractions that sum
    to exactly 1, and support points are pairwise distinct.  Use
    `make_distribution` to construct with validation.  What the samplers
    and the encoder read is built on first use and cached: `weighted`, the
    atoms as integer multiplicities, `cdf`, the float CDF small draws
    bisect with its byte table, `_atom_points`, the packed points a small
    draw's indices pick, and `_json_atoms`, the atoms' JSON parts.
    """

    atoms: tuple[tuple[Point, Fraction], ...]

    @cached_property
    def weighted(self) -> Sample:
        """A sample of size D, the lcm of the weights' denominators.

        Atom (p, w) becomes packed p with multiplicity w * D, so true
        proportions are empirical ones here.  The support is checked once, on
        first use.  Its `points` are never read: D can be astronomically large.
        """
        d = math.lcm(*(w.denominator for _, w in self.atoms))
        packed = tuple((_pack(p), w.numerator * (d // w.denominator)) for p, w in self.atoms)
        return _sample_packed(check_same_domain(p for p, _ in self.atoms), packed, d, Fraction(0))

    @cached_property
    def cdf(self) -> tuple[list[float], tuple[bytes, dict[int, bytes]] | None]:
        """The cuts of a small draw and their `_cut_table` (None from 255 atoms on).

        Cut i is the float sum of the first i + 1 masses of `weighted`, each
        an int / int division; the last cut is inf, since the float total
        may fall short of 1 and past it the last atom is drawn.  A draw
        takes the atom at `bisect_right(cuts, random())`.
        """
        weighted = self.weighted
        cuts = list(accumulate(w / weighted.m for _, w in weighted.packed_counts))
        cuts[-1] = math.inf
        return cuts, (_cut_table(cuts) if len(cuts) < 255 else None)

    @cached_property
    def _atom_points(self) -> list[int]:
        """The packed points of `weighted`, in order: atom i of a small draw is point i, shared by its samples and never changed."""
        return [x for x, _ in self.weighted.packed_counts]

    @cached_property
    def _json_atoms(self) -> tuple[tuple[dict, int, int], ...]:
        """(point JSON, num, den) per atom: what `distribution_to_json` copies into each encoding."""
        return tuple((point_to_json(p), w.numerator, w.denominator) for p, w in self.atoms)


@record
class UniformCube:
    """Uniform distribution over all bit vectors of length n."""

    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise InvalidParams(f"cube dimension must be a positive int, got {self.n!r}")


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
        yield _unpack_bits(value, n)


# ---------------------------------------------------------------------------
# samples


class Sample:
    """An unlabeled multiset of points plus the revealed positive fraction.

    `p_hat` times the sample size must be an integer: the fraction is the
    exact count of positively labeled examples over m, not an estimate.
    Every sample holds one form: its points' `domain` (None when empty),
    `packed_counts` (each distinct point `_pack`ed, with its multiplicity,
    sorted), the size `m`, `p_hat`, and `_draws`, the packed points in draw
    order, or None when the sorted order is the order.  A small explicit
    draw keeps its order as each draw's atom index (`_atom_draws`) and
    builds `_draws` from it on first read.  A masked sample (`_kept`)
    holds all of a draw's packed points and a bitset of the ones it keeps:
    its `packed_counts` and `_draws` are the kept draws', built on first
    read.  `Sample(points, p_hat)` checks every point and packs them in
    the given order; the drawing helpers build the same form unchecked,
    through `_sample_packed`.  `points` and `counts` are views of it,
    built on first read.  Samples are immutable.  Two samples are equal
    when their points and p_hat are; two samples without draw order
    compare, hash and print without building their points.
    """

    domain: tuple[str, int | None] | None
    packed_counts: tuple[tuple[int, int], ...]
    m: int
    p_hat: Fraction
    _kept: _Kept | None = None  # a masked sample's draws and keep bitset (`_sample_packed`)

    def __init__(self, points: Sequence[Point], p_hat: Fraction) -> None:
        domain = check_same_domain(points)
        draws = tuple(map(_pack, points))
        self.__dict__.update(_sample_packed(domain, _packed_counts(draws), len(draws), p_hat, draws).__dict__)

    __setattr__, __delattr__ = _frozen_setattr, _frozen_delattr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        if (self.m, self.p_hat, self.domain, self.packed_counts) != (
            other.m, other.p_hat, other.domain, other.packed_counts
        ):
            return False
        # equal multisets; the orders differ only if one of them is a draw order
        return self._draws is other._draws or self._order() == other._order()

    def __hash__(self) -> int:
        return hash((self.m, self.p_hat))

    def __repr__(self) -> str:
        if self._draws is None:
            return f"Sample(m={self.m!r}, p_hat={self.p_hat!r}, packed_counts={self.packed_counts!r})"
        return f"Sample(points={self.points!r}, p_hat={self.p_hat!r})"

    @cached_property
    def packed_counts(self) -> tuple[tuple[int, int], ...]:  # type: ignore[no-redef]
        """A masked sample's packed counts, read only when there is no `packed_counts` entry: the kept draws'."""
        return self._kept.packed_counts  # type: ignore[union-attr]

    @property
    def _table_key(self) -> tuple:
        """What a count table over this sample depends on: (domain, packed counts), or a masked sample's (domain, draws, keep), so its packed counts are not built."""
        kept = self._kept
        return (self.domain, self.packed_counts) if kept is None else (self.domain, kept.draws, kept.keep)

    @cached_property
    def _draws(self) -> tuple[int, ...]:
        """The draw order, read only when there is no `_draws` entry: a masked sample's kept draws, or a small draw's atoms at its index bytes."""
        if self._kept is not None:
            return self._kept.order
        atoms, index = self._atom_draws
        return tuple(map(atoms.__getitem__, index))

    def _order(self) -> tuple[int, ...]:
        """The packed points in order: `_draws`, else the counts expanded."""
        draws = self._draws
        return points_from_counts(self.packed_counts) if draws is None else draws  # type: ignore[return-value]

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points in draw order, else sorted: `_order()` unpacked."""
        return _unpack(self.domain, self._order())

    @property
    def positive_count(self) -> int:
        """p_hat * m, in integers: the numerator times m over the denominator, which divides m."""
        return self.p_hat.numerator * self.m // self.p_hat.denominator

    @cached_property
    def counts(self) -> tuple[tuple[Point, int], ...]:
        """Unique points with multiplicities, sorted canonically."""
        packed = self.packed_counts
        return tuple(zip(_unpack(self.domain, [x for x, _ in packed]), [c for _, c in packed]))


def points_from_counts(counts: Iterable[tuple[Point, int]]) -> tuple[Point, ...]:
    parts: list[Point] = []
    for point, c in counts:
        parts.extend([point] * c)
    return tuple(parts)


def _packed_counts(draws: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The sorted (packed point, multiplicity) pairs of packed draws."""
    counts = Counter(draws)
    points = sorted(counts)  # sorting the bare points beats sorting the pairs
    return tuple(zip(points, map(counts.__getitem__, points)))


# byte b"0" or b"1" -> 0 or 1, so that a bitset's digits select draws
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class _Kept:
    """A masked sample's multiset: the packed `draws` whose bit in `keep` is set (bit i for draw i).

    `planes` is the draws' `hypotheses._Planes`, read by the count table.
    Every claim sample of a sweep shares one `_Kept`, so its two views, the
    kept draws in draw order (`order`) and their `packed_counts`, are each
    built at most once, on first read.
    """

    def __init__(self, draws: Sequence[int], keep: int, planes: object) -> None:
        # bytes are immutable already; anything else is copied so the sample stays frozen
        self.draws, self.keep, self.planes = draws if isinstance(draws, bytes) else tuple(draws), keep, planes

    @cached_property
    def order(self) -> tuple[int, ...]:
        flags = format(self.keep, f"0{len(self.draws)}b").encode()[::-1].translate(_DIGIT_FLAGS)
        return tuple(compress(self.draws, flags))

    @cached_property
    def packed_counts(self) -> tuple[tuple[int, int], ...]:
        return _packed_counts(self.order)


def _sample_packed(
    domain: tuple[str, int | None] | None,
    packed_counts: tuple[tuple[int, int], ...] | None,
    m: int,
    p_hat: Fraction,
    draws: Sequence[int] | None = None,
    atoms: list[int] | None = None,
    keep: int | None = None,
    planes: object = None,
) -> Sample:
    """The trusted Sample constructor: packed counts from a known domain.

    No point is checked, so callers pass only what a drawing helper built
    (or `Sample`, after checking its points): `packed_counts` sorted by
    packed point (`_pack`), each count >= 1, summing to m, every point in
    `domain` (None when m is 0), and, when given, `draws`, the same points
    packed in draw order, kept as a tuple.  With `atoms`, `draws` is
    instead the bytes of each draw's index into `atoms`, kept as they are
    until `Sample._draws` is read.  With `keep`, the sample is masked: it
    holds the draws i whose bit i of `keep` is set, m of them, out of all
    of `draws` (bytes kept as they are, any other sequence as a tuple,
    with `planes`, their `_Planes`), and
    `packed_counts` is None: it and `_draws` are built from the kept draws
    on first read.  The proportion gets the one
    check every sample goes through, done on its lowest-terms numerator and
    denominator: 0 <= p_hat <= 1, p_hat * m is a whole count (the
    denominator divides m), and p_hat = 0 when the sample is empty.
    """
    p_hat = parse_rational(p_hat)
    num, den = p_hat.numerator, p_hat.denominator
    if not 0 <= num <= den or m % den or (m == 0 and num):
        raise InvalidParams(f"p_hat {p_hat} invalid for m={m}: not j/m for a whole j in [0, m], or 0 when m = 0")
    sample = object.__new__(Sample)
    fields = sample.__dict__
    fields.update(domain=domain, m=m, p_hat=p_hat)
    if keep is not None:
        fields["_kept"] = _Kept(draws, keep, planes)  # type: ignore[arg-type]
        return sample
    fields["packed_counts"] = packed_counts
    if atoms is None:
        fields["_draws"] = None if draws is None else tuple(draws)
    else:
        fields["_atom_draws"] = atoms, draws
    return sample


def _claim_samples(sample: Sample) -> Iterator[tuple[Fraction, Sample]]:
    """Each claim j/m, j = 0..m (just 0 when m = 0), lazily, with a sample carrying it.

    `sample` is the base, fresh from `_sample_packed`.  Each claim's
    sample is a fresh Sample holding a copy of the base's attributes with
    `p_hat` set, so the samples share the packed counts and draw order, or
    a masked base's `_Kept`, but no cache of `points` or `counts`; j/m is
    valid for m by construction.
    """
    state = sample.__dict__
    den = sample.m or 1
    new = object.__new__
    for j in range(sample.m + 1):
        claim = Fraction(j, den)
        claimed = new(Sample)
        fields = claimed.__dict__
        fields.update(state)
        fields["p_hat"] = claim
        yield claim, claimed


# ---------------------------------------------------------------------------
# seeded drawing


def _cut_count(p: Fraction | float) -> int:
    """C = ceil(p * 2**53) clamped to [0, 2**53]: for 0 <= k < 2**53, k < C exactly when k / 2**53 < p.

    p is a Fraction or a float, inf included: a float times 2**53 is exact.
    """
    return max(math.ceil(min(p, 1) * 2**53), 0)


def _random_cut(p: Fraction) -> float:
    """A float c with x < c exactly when x < p, for every x from `random.Random.random()`.

    random() returns k / 2**53 for an integer 0 <= k < 2**53, and for such k,
    k < p * 2**53 holds exactly when k < ceil(p * 2**53).  Clamped to
    [0, 2**53], that ceiling (`_cut_count`) divided by 2**53 is an exact
    float, so one float comparison per draw replaces the exact but slow
    Fraction one.  The one cut of `_coin_flips`.
    """
    return _cut_count(p) / 2**53


def _lanes(pattern: bytes, m: int) -> int:
    """The int whose m lanes of len(pattern) bytes each hold `pattern`, little-endian."""
    return int.from_bytes(pattern * m, "little")


_SPLIT = 255  # a byte-table entry whose bucket a cut splits


def _byte_level(counts: Sequence[int], lo: int, width: int) -> bytes:
    """Entry t: the `bisect_right` index of every k in [lo + t * width, lo + (t + 1) * width), or `_SPLIT`.

    `counts` are the cuts' `_cut_count`s, ascending: the values below count
    i lie below cut i.  Cuts at or below lo are below every value of the
    range; a count strictly inside a bucket makes its entry `_SPLIT`, and
    the buckets above it get its index.
    """
    first = bisect_right(counts, lo)
    table = bytearray([first]) * 256
    for i in range(first, bisect_left(counts, lo + 256 * width)):
        t, inside = divmod(counts[i] - lo, width)
        if inside:
            table[t] = _SPLIT
            t += 1
        table[t:] = bytes([i + 1]) * (256 - t)  # buckets wholly at or above the cut
    return bytes(table)


class _SecondBytes(dict):
    """Split top-byte bucket t -> its table over the second byte (`_byte_level`), built on first lookup."""

    def __init__(self, counts: list[int]) -> None:
        super().__init__()
        self.counts = counts

    def __missing__(self, t: int) -> bytes:
        table = self[t] = _byte_level(self.counts, t << 45, 2**37)
        return table


def _cut_table(cuts: Sequence[float]) -> tuple[bytes, dict[int, bytes]]:
    """The `bisect_right` indices into `cuts` of the random() values, by their top byte, then their second.

    random() returns k / 2**53.  Bucket t of the first table holds the k
    whose top byte, k >> 45, is t; a bucket that a cut splits (`_SPLIT`)
    has a second table, over byte k >> 37 & 255, under t in the dict,
    built when a draw first lands there.  A cut c splits the values at
    k = `_cut_count(c)`.  In both tables an entry is the index of every
    value of its bucket, or `_SPLIT` where a cut falls strictly inside it.
    `cuts` is sorted, and an index runs up to len(cuts), so at most 254
    cuts fit below `_SPLIT`.
    """
    if len(cuts) >= _SPLIT:
        raise InvalidParams(f"a byte table holds at most {_SPLIT - 1} cuts, got {len(cuts)}")
    counts = [_cut_count(c) for c in cuts]
    return _byte_level(counts, 0, 2**45), _SecondBytes(counts)


def _cut_draws(cuts: Sequence[float], table: tuple[bytes, dict[int, bytes]], m: int, rng: random.Random) -> bytes:
    """Byte i is `bisect_right(cuts, rng.random())` for the i-th call; `table` is `_cut_table(cuts)`.

    One `getrandbits(64 * m)` reads the 2m words that m `random()` calls
    would, lowest first, and leaves `rng` where they would.  random() reads
    words a then b and returns k / 2**53 with k = (a >> 5) * 2**26 + (b >> 6),
    so lane i (8 bytes, a low) holds call i's pair, and its bytes 3 and 2,
    the top two bytes of a, are k's top two bytes.  One `translate` of the
    top bytes gives every draw's index.  A draw in a split bucket reads its
    second byte's table, and only where a cut splits that too is it decided
    by one `bisect_right` on the value random() would return.
    """
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
    first, second = table
    tops = raw[3::8]
    index = bytearray(tops.translate(first))
    i = index.find(_SPLIT)
    if i >= 0:
        seconds = raw[2::8]
        while i >= 0:
            j = second[tops[i]][seconds[i]]
            if j == _SPLIT:
                lane = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
                j = bisect_right(cuts, ((lane & 0xFFFFFFFF) >> 5 << 26 | lane >> 38) / 2**53)
            index[i] = j
            i = index.find(_SPLIT, i + 1)
    return bytes(index)


_COIN = b"\x01" + bytes(255)  # index 0, below the cut, is heads


@lru_cache(maxsize=16)
def _coin_cut(p: Fraction) -> tuple[tuple[float], tuple[bytes, dict[int, bytes]]]:
    """The one cut `_random_cut(p)` and its `_cut_table`, kept for the 16 biases used last.

    Its second-byte tables fill as draws land in split buckets, and every
    later call with the same bias reads them.
    """
    cuts = (_random_cut(p),)
    return cuts, _cut_table(cuts)


def _coin_flips(p: Fraction, m: int, rng: random.Random) -> bytes:
    """m coins of bias p as 0/1 bytes: byte i is `rng.random() < p` for the i-th call.

    The draws' indices against the one cut of p (`_coin_cut`, `_cut_draws`),
    0 below it and 1 at or above, turned into coins by one more
    `translate`.  The generator is left where m `random()` calls leave it.
    """
    return _cut_draws(*_coin_cut(p), m, rng).translate(_COIN)


_SEED_PARTS = (int, str)


def derive_seed(*parts: object) -> int:
    """Stable 64-bit child seed from any mix of ints and strings.

    The first 8 bytes, big-endian, of the SHA-256 of the parts' `str`
    joined by "\x1f".  Any other part, a bool included, raises
    InvalidParams.  The text does not say which parts were ints, so
    `derive_seed(1, "a") == derive_seed("1", "a")`, and a str part holding
    "\x1f" reads as two parts; typing the parts in the text would end
    that, but would move every derived seed, so it is left to a change
    that regenerates its outputs on purpose.  The hash comes
    from the interpreter's built-in module (`_sha256`, `_sha2` from 3.12)
    when it has one, as `random` takes its `_sha512`: `hashlib` would load
    OpenSSL's libcrypto, a few ms of every import and about 4 MB of memory,
    for this one digest.  The digest is the same either way.
    """
    for part in parts:  # an exact int or str passes on the first test
        if type(part) not in _SEED_PARTS and (isinstance(part, bool) or not isinstance(part, _SEED_PARTS)):
            raise InvalidParams(f"seed parts must be ints or strs, got {part!r}")
    text = "\x1f".join(map(str, parts))
    digest = sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_seed(seed: int) -> None:
    """InvalidParams unless `seed` is an int >= 0 (a bool is not): the one seed check of every draw route.

    `random.Random` would take a float or a str, and draws for -s what it
    draws for s; `PCG64` would raise an untyped error on the first two.
    """
    if type(seed) is not int or seed < 0:
        raise InvalidParams(f"seed must be an int >= 0, got {seed!r}")


def _draw_packed(
    packed_counts: tuple[tuple[int, int], ...], total: int, m: int, seed: int
) -> tuple[tuple[int, int], ...]:
    """Packed counts of m i.i.d. draws from packed points with integer multiplicities, one binomial per atom.

    `packed_counts` is a sample's (packed point, multiplicity) pairs and
    `total` their sum: an instance's points and X, or an explicit
    distribution's `weighted` pairs and D.  Atom (x, w) draws
    binomial(draws left, w / weight left), int / int and so correctly
    rounded: scaling every multiplicity by one factor changes no draw.  The
    binomials are numpy's `Generator(PCG64(seed)).binomial`, reproduced bit
    for bit by `_pcg64.PCG64`; numpy's n is an int64, so m must be below
    2**63.  The last atom takes the rest; atoms drawn 0 times are dropped,
    so the result is sorted with counts >= 1, as `_sample_packed` requires.
    """
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    if m >= 1 << 63:
        raise InvalidParams(f"m must be below 2**63, numpy's binomial range, got {m}")
    binomial = PCG64(seed).binomial
    remaining, rem_weight = m, total
    out: list[tuple[int, int]] = []
    for x, w in packed_counts[:-1]:
        if not remaining:
            break
        c = binomial(remaining, w / rem_weight)
        if c:
            out.append((x, c))
        remaining -= c
        rem_weight -= w
    if remaining:
        out.append((packed_counts[-1][0], remaining))
    return tuple(out)


def draw_counts(dist: ExplicitDistribution, m: int, seed: int) -> tuple[tuple[Point, int], ...]:
    """m i.i.d. draws as Sample.counts: `_draw_packed` on `dist.weighted`'s packed counts and size, unpacked.

    The counts are numpy's `Generator(PCG64(seed)).binomial` draws, bit for
    bit.  InvalidParams unless the seed is an int >= 0 and 0 <= m < 2**63.
    """
    _check_seed(seed)
    return _sample_packed(
        dist.weighted.domain, _draw_packed(dist.weighted.packed_counts, dist.weighted.m, m, seed), m, Fraction(0)
    ).counts


def _draw_small(dist: ExplicitDistribution, m: int, seed: int) -> list[int]:
    """m draws, packed, by one `random()` and one bisection of the cuts `dist.cdf` each.

    The small draw of a distribution of 255 atoms or more, whose indices
    do not fit a byte, and the per-draw reference the byte draws of `_draw`
    are tested against.
    """
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    cuts, packed = dist.cdf[0], dist._atom_points
    rand = random.Random(seed).random
    return [packed[bisect_right(cuts, rand())] for _ in range(m)]


# _CUBE_SHIFTS[s] maps a byte x to x >> s
_CUBE_SHIFTS = tuple(bytes(x >> s for x in range(256)) for s in range(8))


def _draw_cube(n: int, m: int, seed: int) -> Sequence[int]:
    """m draws from UniformCube(n), packed, read off one `getrandbits` call.

    The drawn int is the packed form (`_pack`) of the drawn vector, and
    draw i is the i-th `getrandbits(n)` of `random.Random(seed)`.  That call
    reads w = ceil(n / 32) 32-bit words, least significant first, and
    shifts the last one right by 32w - n.  `getrandbits(32 * w * m)` fills
    its words in the same order, so lane i (32w bits) holds draw i's words.
    For n <= 8 a draw is the top byte of its one word shifted right by
    8 - n: the draws are `bytes`, byte 3 of every 4 turned by one
    `translate`.  Wider draws are a list of ints, and one mask-and-shift
    over the whole int makes every lane's shift.  The generator ends where
    m calls would leave it; n = 0 reads no word and gives m zero bytes.
    """
    if m < 0:
        raise InvalidParams(f"m must be >= 0, got {m}")
    if n == 0:
        return bytes(m)
    if n <= 8:
        tops = random.Random(seed).getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        return tops.translate(_CUBE_SHIFTS[8 - n])
    w = -(-n // 32)
    size = 4 * w  # bytes per lane
    big = random.Random(seed).getrandbits(32 * w * m)
    shift = 32 * w - n
    if shift:
        top = _lanes(bytes(size - 4) + ((1 << (32 - shift)) - 1).to_bytes(4, "little"), m)
        low = _lanes(b"\xff" * (size - 4) + bytes(4), m) if w > 1 else 0
        big = (big & low) | ((big >> shift) & top)
    raw = big.to_bytes(size * m, "little")
    if w > 2:
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, size * m, size)]
    lanes = array("I" if w == 1 else "Q", raw)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes.tolist()


def _drawn(
    dist: FiniteDistribution, m: int, seed: int
) -> tuple[tuple[str, int | None] | None, tuple[tuple[int, int], ...], Sequence[int] | None, list[int] | None]:
    """m i.i.d. draws as `_sample_packed`'s domain, packed counts, draws and atoms.

    The one choice of draw routine: `_draw_cube` for a cube; for an
    explicit distribution, at least COUNT_DRAW_MIN draws go through
    `_draw_packed` (one binomial per atom) on `dist.weighted`'s packed
    counts and size.  Fewer draw atom indices as bytes (`_cut_draws` on
    `dist.cdf`): the counts are each index's `bytes.count`, and the draw
    order is the index bytes into the packed atoms, the list cached on the
    distribution (`_atom_points`) that every such sample shares.  A
    distribution of 255 atoms or more has no byte table and draws by
    `_draw_small`, the same draws one `random()` at a time.
    The binomial draw has no draw order, so its points come out grouped by
    atom in canonical order.  The choice depends only on the arguments, so
    reproducibility is unaffected.  The seed is checked first, the same on
    every route (`_check_seed`).
    """
    _check_seed(seed)
    if isinstance(dist, UniformCube):
        domain, draws = ("bits", dist.n), _draw_cube(dist.n, m, seed)
    elif m >= COUNT_DRAW_MIN:
        return dist.weighted.domain, _draw_packed(dist.weighted.packed_counts, dist.weighted.m, m, seed), None, None
    elif dist.cdf[1] is None:
        domain, draws = dist.weighted.domain, _draw_small(dist, m, seed)
    else:
        index = _cut_draws(*dist.cdf, m, random.Random(seed))
        atoms = dist._atom_points
        counts = tuple(filter(itemgetter(1), zip(atoms, map(index.count, range(len(atoms))))))
        return (dist.weighted.domain if m else None), counts, index, atoms
    return (domain if m else None), _packed_counts(draws), draws, None


def _draw(dist: FiniteDistribution, m: int, seed: int) -> Sample:
    """m i.i.d. draws (`_drawn`) as a sample with p_hat 0; identical arguments give identical draws."""
    domain, counts, draws, atoms = _drawn(dist, m, seed)
    return _sample_packed(domain, counts, m, Fraction(0), draws, atoms)


def draw_points(dist: FiniteDistribution, m: int, seed: int) -> tuple[Point, ...]:
    """m i.i.d. draws, the points of `_draw`: in draw order, or grouped by atom for a binomial draw."""
    return _draw(dist, m, seed).points


# ---------------------------------------------------------------------------
# JSON forms: each a table of fields (key, attribute, codec, default), written
# by `to_fields` and read by `from_fields`.  A codec is a (write, read) pair, or
# None for a value written and read as it is, which its constructor checks.

REQUIRED = object()  # the default of a field that must be present
Codec = tuple[Callable, Callable]
Field = tuple[str, str, Codec | None, object]


def to_fields(fields: Sequence[Field], value: object) -> dict:
    """The JSON object of `value`'s attributes; an optional field whose value is None is left out."""
    out = {}
    for key, attr, codec, default in fields:
        v = getattr(value, attr)
        if v is not None or default is REQUIRED:
            out[key] = v if codec is None else codec[0](v)
    return out


def from_fields(fields: Sequence[Field], obj: object, what: str) -> dict:
    """attribute -> value read from the JSON object `obj`, an absent optional key as its default.

    MalformedEncoding, naming the record `what` and the key, if `obj` is not an object or lacks a required key.
    """
    if not isinstance(obj, dict):
        raise MalformedEncoding(f"{what} must be a JSON object, got {obj!r}")
    out = {}
    for key, attr, codec, value in fields:  # value: the default, until read
        if key in obj:
            value = obj[key] if codec is None else codec[1](obj[key])
        elif value is REQUIRED:
            raise MalformedEncoding(f"{what} field {key!r} is required")
        out[attr] = value
    return out


def json_list(item: Codec | None, what: str) -> Codec:
    """The codec of a list of `item`s (None: as they are), read as a tuple; `what` names it in errors."""
    write, read = item or (None, None)

    def read_list(value: object) -> tuple:
        if not isinstance(value, list):
            raise MalformedEncoding(f"{what} must be a list, got {value!r}")
        return tuple(value if read is None else map(read, value))

    return (list if write is None else lambda xs: list(map(write, xs))), read_list


def parse_rational(value: object) -> Fraction:
    """Exact rational from "3/10", "0.3", an int, a Fraction, or {num, den}: the one rational reader.

    InvalidParams for a zero denominator, a {num, den} that is not two ints,
    a bool or any other type; a float keeps its TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"rational {value!r} is a float; pass a string for exactness")
    parts = (value["num"], value["den"]) if isinstance(value, dict) and value.keys() == {"num", "den"} else (value,)
    if type(value) is str or all(type(part) is int for part in parts):
        try:
            return Fraction(*parts)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidParams(f"not a rational: {value!r}")


def rational_to_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


rational_from_json = parse_rational
RATIONAL = (rational_to_json, parse_rational)


def point_to_json(point: Point) -> dict:
    kind, _ = point_domain(point)
    if kind == "bits":
        return {"bits": bits_to_string(point)}  # type: ignore[arg-type]
    return {"nat": point}


def point_from_json(obj: dict) -> Point:
    if isinstance(obj, dict) and "bits" in obj:
        return bits_from_string(obj["bits"])
    nat = obj.get("nat") if isinstance(obj, dict) else None
    if type(nat) is not int or nat < 0:
        raise MalformedEncoding(f"not a point object: {obj!r}")
    return nat


POINT = (point_to_json, point_from_json)
_KIND = (("kind", "kind", None, REQUIRED),)
_CUBE = (("n", "n", None, REQUIRED),)
# an atom's weight and a sample's p_hat read as the {num, den} of a rational
_ATOM = (("point", "point", POINT, REQUIRED), ("num", "num", None, REQUIRED), ("den", "den", None, REQUIRED))
_SAMPLE = (
    ("points", "points", json_list(POINT, "sample points"), REQUIRED),
    ("p_hat_num", "num", None, REQUIRED),
    ("p_hat_den", "den", None, REQUIRED),
)


def distribution_to_json(dist: FiniteDistribution) -> dict:
    """The distribution's JSON object, a fresh one on every call.

    An explicit distribution's atoms are encoded once and kept on it
    (`_json_atoms`); each call builds a new list of new atom dicts from
    them, point dicts included, so changing one encoding leaves the next
    as it was.
    """
    if isinstance(dist, UniformCube):
        return {"kind": "uniform_cube", "n": dist.n}
    return {
        "kind": "explicit",
        "atoms": [{"point": point.copy(), "num": num, "den": den} for point, num, den in dist._json_atoms],
    }


def _atom_from_json(obj: dict) -> tuple[Point, Fraction]:
    fields = from_fields(_ATOM, obj, "distribution atom")
    return fields.pop("point"), parse_rational(fields)


def distribution_from_json(obj: dict) -> FiniteDistribution:
    kind = from_fields(_KIND, obj, "distribution")["kind"]
    if kind == "uniform_cube":
        return UniformCube(**from_fields(_CUBE, obj, "distribution"))
    if kind == "explicit":
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
            raise MalformedEncoding(f"distribution atoms must be a list of JSON objects, got {atoms!r}")
        return make_distribution(map(_atom_from_json, atoms))
    raise MalformedEncoding(f"unknown distribution kind: {kind!r}")


DISTRIBUTION = (distribution_to_json, distribution_from_json)


def sample_to_json(sample: Sample) -> dict:
    return {
        "points": [point_to_json(p) for p in sample.points],
        "p_hat_num": sample.p_hat.numerator,
        "p_hat_den": sample.p_hat.denominator,
    }


def sample_from_json(obj: dict) -> Sample:
    fields = from_fields(_SAMPLE, obj, "sample")
    return Sample(fields.pop("points"), parse_rational(fields))
