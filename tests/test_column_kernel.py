"""The column-bitset kernel against `enumerate_class` with `labeler` and `positive_weight`.

`hypotheses._Planes` transposes a list of ints into bit columns, each
built when first read; `_labeling_bitsets` walks a class over a sample as
distinct labelings (the GF(2) span of the columns for parities, OR and AND folds of them for
disjunctions and conjunctions, one `labeler` per member for windows and
finite subsets); `_bitset_weigher` weighs a labeling by a direct sum when
there are no more items than bits in the largest multiplicity, else by the
bit planes of the multiplicities.  The brute oracle's count table, ERM's
labelings and the noisy-parity disagreement count run on them.  Each test holds one of
those callers to the per-hypothesis scan it replaced.  Sizes are drawn
around the byte chunks and 64-bit lanes of the transpose on purpose: n in
{1, 7, 8, 9, 16, 17}, widths 63-65 and 127-129, 0, 1, 7, 8, 9, 64 or 65
unique points, and multiplicities that cross 255/256.  Classes over 16 or
17 coordinates are parities restricted to a few of them, so that the
reference scan stays small.  The count table, the oracle and the error
tests also draw windows and grounded finite subsets over natural-number
samples, whose points may fall outside the class's ground.

Each class row builds its own count table (`table`); the walk-and-weigh
table of `_Row.table` is the reference.  Disjunctions and conjunctions
have a second way: when the class's 2^n cube cells are at most 8 per
distinct sample point, their row reads every member's count from one
superset-sum transform of the cells.  A differential test holds the
transform (forced past the size rule) and `_count_table` to the walk on
all three numbered rows, at keff 0-10, any restriction, 0 to 2^keff points
and multiplicities of 1-3, 255-257 and past 2^64, with examples on both
sides of the size rule and at it, and holds a parity's table, which always
walks a plain sample, to the class scan too; other tests pin which way the
rule takes and that the class is still sized before the domain is checked.
"""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab import (
    BudgetExceeded,
    ClassDescriptor,
    DomainMismatch,
    InfiniteClass,
    MonotoneDisjunction,
    NoCandidateAccepted,
    NoisyParitySetup,
    LLPOracle,
    Parity,
    enumerate_class,
    erm_proportion_matcher,
    make_brute_oracle,
    noisy_parity_via_llp,
    ranking_key,
)
from llp_lab import hypotheses
from llp_lab.core import _sample_packed
from llp_lab.hypotheses import (
    _CLASSES,
    _Planes,
    _Row,
    _bitset_weigher,
    _generic_labelings,
    _labeling_bitsets,
    class_size,
    labeler,
    positive_weight,
)
from llp_lab.oracles import BRUTE_BUDGET, _best_count, _count_table, _matches
from llp_lab.reductions import _disagreement_counter

CUBE_CLASSES = ("parity", "monotone_disjunction", "monotone_conjunction")
NAT_CLASSES = ("window", "finite_subset")
BYTE_EDGES = (1, 7, 8, 9, 16, 17)
LANE_EDGES = (63, 64, 65, 127, 128, 129, 150)
UNIQUE_EDGES = (0, 1, 7, 8, 9, 64, 65)
WEIGHT_EDGES = (1, 255, 256, 257, 511, 512, 65535, 65536)


def _unique_counts(limit):
    return st.one_of(st.sampled_from([u for u in UNIQUE_EDGES if u <= limit]), st.integers(0, limit))


def _weights():
    return st.one_of(st.integers(1, 3), st.sampled_from(WEIGHT_EDGES), st.integers(1, 70000))


def _set_bits(vec):
    return [j for j in range(vec.bit_length()) if vec >> j & 1]


@st.composite
def _cube_cases(draw, weights=_weights()):
    """A parity, disjunction or conjunction class and a trusted sample of packed counts."""
    class_id = draw(st.sampled_from(CUBE_CLASSES))
    if class_id == "parity":
        n = draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(1, 17)))
        restriction = draw(st.integers(0, min(n, 6)))
        if n <= 9 and draw(st.booleans()):
            restriction = None
        desc = ClassDescriptor("parity", n, restriction=restriction)
    else:
        desc = ClassDescriptor(class_id, draw(st.one_of(st.sampled_from(BYTE_EDGES[:4]), st.integers(1, 9))))
    u = draw(_unique_counts(min(65, 2**desc.n)))
    points = sorted(draw(st.lists(st.integers(0, 2**desc.n - 1), min_size=u, max_size=u, unique=True)))
    mults = draw(st.lists(weights, min_size=u, max_size=u))
    packed = tuple(zip(points, mults))
    domain = ("bits", desc.n) if packed else None
    return desc, _sample_packed(domain, packed, sum(mults), F(0))


def _nat_desc(draw, class_id, n):
    """A window class over 1..2^n, or a finite-subset class grounded on a few naturals."""
    if class_id == "window":
        return ClassDescriptor("window", n, k=draw(st.integers(0, 3)))
    ground = draw(st.lists(st.integers(0, 2**n + 1), max_size=7, unique=True))
    return ClassDescriptor("finite_subset", n, ground_set=tuple(sorted(ground)))


@st.composite
def _nat_cases(draw, weights=_weights()):
    """A window or grounded finite-subset class and a trusted sample of naturals.

    The points range over 0..2^n + 1, so some fall outside a window's domain
    1..2^n or a finite subset's ground set.
    """
    n = draw(st.integers(1, 4))
    desc = _nat_desc(draw, draw(st.sampled_from(NAT_CLASSES)), n)
    u = draw(_unique_counts(2**n + 2))
    points = sorted(draw(st.lists(st.integers(0, 2**n + 1), min_size=u, max_size=u, unique=True)))
    mults = draw(st.lists(weights, min_size=u, max_size=u))
    packed = tuple(zip(points, mults))
    domain = ("nat", None) if packed else None
    return desc, _sample_packed(domain, packed, sum(mults), F(0))


def _walk_table(desc, sample, budget=BRUTE_BUDGET):
    """The reference count table: the class row's walk, each distinct labeling weighed (`_Row.table`)."""
    return _Row.table(_CLASSES[desc.class_id], desc, sample, budget)


def _transform_table(desc, sample):
    """A disjunction's or conjunction's table from the transform, whatever the density: the size rule set past any sample."""
    with mock.patch.object(hypotheses, "_CELLS_PER_POINT", 2**desc.n):
        return _CLASSES[desc.class_id].table(desc, sample, BRUTE_BUDGET)


def _reference_table(desc, sample, budget=BRUTE_BUDGET):
    """The count table as the library built it before the kernel: one scan of the class."""
    table = {}
    for h in enumerate_class(desc, budget):
        table.setdefault(positive_weight(h, sample.domain, sample.packed_counts), h)
    return table


# ---------------------------------------------------------------------------
# the transpose and the weigher


def _transpose_case(data):
    """A width and values that fit it, as `bytes` one time in two when they fit a byte."""
    width = data.draw(st.one_of(st.sampled_from((0,) + BYTE_EDGES + (24, 25) + LANE_EDGES), st.integers(0, 150)))
    u = data.draw(_unique_counts(65))
    values = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=u, max_size=u))
    if width <= 8 and data.draw(st.booleans()):
        values = bytes(values)  # the form of coin flips and one-byte cube draws
    return width, values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bit_planes_transpose_values(data):
    width, values = _transpose_case(data)
    planes = _Planes(values, width).read(range(width))
    assert len(planes) == width
    for b, plane in enumerate(planes):
        assert plane == sum(1 << j for j, v in enumerate(values) if v >> b & 1)


def test_bit_digit_tables_map_each_byte_to_its_bit():
    # the tables are built from runs of 2^b zeros and ones; this is the per-byte rule they replace
    assert hypotheses._BIT_DIGITS == tuple(bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_planes_built_on_first_read_are_the_bit_planes(data):
    width, values = _transpose_case(data)
    planes = [sum(1 << j for j, v in enumerate(values) if v >> b & 1) for b in range(width)]
    columns = _Planes(values, width)
    reads = data.draw(st.lists(st.integers(0, width - 1), max_size=2 * width)) if width else []
    for b in reads + list(range(width)):  # any order, a plane read again from its entry
        assert columns[b] == planes[b]
    assert sorted(columns) == list(range(width))
    fresh = _Planes(values, width)
    assert fresh.read(reversed(reads)) == [planes[b] for b in reversed(reads)]
    assert sorted(fresh) == sorted(set(reads))  # a plane read in bulk is kept for the next reader too
    for b in (-1, width):
        with pytest.raises(KeyError):
            columns[b]


def _weigher_example(u, top, vecs=(0b1011, 0x5555_5555_5555_5555_5)):
    """u weights, the first `top` and the rest 1..3: at most as many items as bits of `top` sum directly."""
    return example(weights=[top, *(1 + j % 3 for j in range(u - 1))][:u], vecs=list(vecs))


@settings(max_examples=200, deadline=None)
@given(
    weights=_unique_counts(65).flatmap(lambda u: st.lists(_weights(), min_size=u, max_size=u)),
    vecs=st.lists(st.integers(0, 2**65 - 1), min_size=1, max_size=8),
)
@_weigher_example(0, 0)  # the empty list
@_weigher_example(7, 255)  # 8 bits: one item fewer, as many, one more
@_weigher_example(8, 255)
@_weigher_example(9, 255)
@_weigher_example(3, 2**64, (0b101, 0b111))  # weights of 2^64 and above
@_weigher_example(65, 2**64)
@_weigher_example(66, 2**64)
@_weigher_example(66, 2**70 + 12345)
@example(weights=[2**64 + j for j in range(66)], vecs=[2**66 - 1, 2**65 | 3])
def test_weigher_sums_the_weights_of_the_set_bits(weights, vecs):
    u = len(weights)
    weigh = _bitset_weigher(weights)
    for vec in [v & (2**u - 1) for v in vecs] + [0, 2**u - 1]:
        assert weigh(vec) == sum(weights[j] for j in _set_bits(vec))


# ---------------------------------------------------------------------------
# the brute oracle: count table, solve and ladder


def _table_example(desc, domain, packed):
    """A count table case on fixed packed counts."""
    return example(case=(desc, _sample_packed(domain, packed, sum(c for _, c in packed), F(0))))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_cube_cases(), _nat_cases()))
# fewer points than bits in the largest multiplicity, as many, and one more: direct sums, then bit planes
@_table_example(ClassDescriptor("monotone_disjunction", 3), ("bits", 3), ((1, 300), (6, 5)))
@_table_example(ClassDescriptor("parity", 3), ("bits", 3), ((1, 7), (2, 1), (5, 3)))
@_table_example(ClassDescriptor("monotone_conjunction", 2), ("bits", 2), ((0, 7), (1, 2), (2, 5), (3, 1)))
@_table_example(ClassDescriptor("monotone_conjunction", 4), ("bits", 4), ((3, 2**64), (7, 2**70 + 1), (15, 9)))
@_table_example(ClassDescriptor("monotone_disjunction", 3), ("bits", 3), tuple((x, 1 + x % 3) for x in range(8)))
@_table_example(ClassDescriptor("window", 3, k=2), ("nat", None), ((2, 1000), (5, 3), (9, 70000)))
@_table_example(ClassDescriptor("finite_subset", 3, ground_set=(1, 2, 5)), ("nat", None), ((1, 1), (2, 1), (5, 1), (7, 1)))
def test_count_table_matches_the_class_scan(case):
    desc, sample = case
    table = _count_table(desc, sample, BRUTE_BUDGET)
    assert list(table.items()) == list(_reference_table(desc, sample).items())


@pytest.mark.parametrize(
    "desc, domain",
    [
        (ClassDescriptor("parity", 3), ("bits", 3)),
        (ClassDescriptor("monotone_disjunction", 3), ("bits", 3)),
        (ClassDescriptor("monotone_conjunction", 3), ("bits", 3)),
        (ClassDescriptor("finite_subset", 3, ground_set=(1, 2, 5)), ("nat", None)),
        (ClassDescriptor("window", 3, k=2), ("nat", None)),
    ],
)
def test_a_count_table_sizes_its_class_once(monkeypatch, desc, domain):
    sizes = []
    size = hypotheses.class_size
    monkeypatch.setattr(hypotheses, "class_size", lambda d: sizes.append(d) or size(d))
    _count_table(desc, _sample_packed(domain, ((1, 2), (2, 1), (5, 3)), 6, F(0)), BRUTE_BUDGET)
    assert sizes == [desc]


# ---------------------------------------------------------------------------
# the count table's two paths: one transform of the cube cells, or the walk

MULTIPLICITIES = {"small": (1, 2, 3), "byte": (255, 256, 257), "huge": (2**64, 2**64 + 1, 2**70 + 12345)}


def _numbered_sample(desc, u, seed, regime):
    """u distinct points of the class's n-cube, drawn by `seed`, with multiplicities from `regime` (or all of them)."""
    rng = random.Random(seed)
    points = sorted(rng.sample(range(2**desc.n), u))
    choices = MULTIPLICITIES[regime] if regime in MULTIPLICITIES else sum(MULTIPLICITIES.values(), ())
    mults = [rng.choice(choices) for _ in points]
    return _sample_packed(("bits", desc.n) if points else None, tuple(zip(points, mults)), sum(mults), F(0))


def _rule_edge(keff):
    """The fewest distinct points at which a disjunction or conjunction table takes the transform: ceil(2^n / _CELLS_PER_POINT)."""
    return -(-(2**keff) // hypotheses._CELLS_PER_POINT)


@st.composite
def _numbered_cases(draw):
    """A parity (keff 0-10, restriction anywhere in 0..n), disjunction or conjunction class and 0..2^keff points.

    The number of points is drawn around the size rule one time in two: one
    fewer than its edge, the edge, one more, or 0, 1 and 2^keff.
    """
    class_id = draw(st.sampled_from(CUBE_CLASSES))
    if class_id == "parity":
        n = draw(st.integers(1, 12))
        restriction = draw(st.integers(0, min(n, 10)))
        if n <= 10 and draw(st.booleans()):
            restriction = None
    else:
        n, restriction = draw(st.integers(1, 10)), None
    desc = ClassDescriptor(class_id, n, restriction=restriction)
    keff = n if restriction is None else restriction
    edge = _rule_edge(keff)
    edges = sorted({u for u in (0, 1, edge - 1, edge, edge + 1, 2**keff) if 0 <= u <= 2**keff})
    u = draw(st.one_of(st.sampled_from(edges), st.integers(0, 2**keff)))
    regime = draw(st.sampled_from(sorted(MULTIPLICITIES) + ["mixed"]))
    return desc, _numbered_sample(desc, u, draw(st.integers(0, 2**32)), regime)


def _paths_example(desc, u, regime="mixed", seed=1):
    return example(case=(desc, _numbered_sample(desc, u, seed, regime)))


@settings(max_examples=250, deadline=None)
@given(_numbered_cases())
# 16 cells: one point takes the walk, two sit exactly at the rule, three take the transform
@_paths_example(ClassDescriptor("monotone_conjunction", 4), 1)
@_paths_example(ClassDescriptor("monotone_conjunction", 4), 2, "huge")
@_paths_example(ClassDescriptor("monotone_conjunction", 4), 3, "byte")
@_paths_example(ClassDescriptor("monotone_disjunction", 3), 1, "small")  # 8 cells, one point: at the rule
@_paths_example(ClassDescriptor("monotone_disjunction", 6), 7, "huge")  # 64 cells: the walk, then at the rule
@_paths_example(ClassDescriptor("monotone_disjunction", 6), 8)
@_paths_example(ClassDescriptor("monotone_disjunction", 10), 1024, "byte")
@_paths_example(ClassDescriptor("parity", 9, restriction=5), 3, "byte")  # 32 cells: walk, at the rule, transform
@_paths_example(ClassDescriptor("parity", 9, restriction=5), 4, "huge")
@_paths_example(ClassDescriptor("parity", 9, restriction=5), 5, "small")
@_paths_example(ClassDescriptor("parity", 10), 128)
@_paths_example(ClassDescriptor("parity", 12, restriction=10), 1024, "huge")
@_paths_example(ClassDescriptor("parity", 5, restriction=0), 1)  # keff 0: one cell, one member
@_paths_example(ClassDescriptor("parity", 5, restriction=0), 9, "byte", seed=7)
# empty samples: every member counts 0
@_paths_example(ClassDescriptor("monotone_conjunction", 2), 0)
@_paths_example(ClassDescriptor("monotone_disjunction", 1), 0)
@_paths_example(ClassDescriptor("parity", 4, restriction=2), 0)
def test_the_transform_table_matches_the_walk(case):
    desc, sample = case
    walk = list(_walk_table(desc, sample).items())
    assert list(_count_table(desc, sample, BRUTE_BUDGET).items()) == walk
    if desc.class_id == "parity":  # no transform: the table walks, and the walk matches the class scan
        assert walk == list(_reference_table(desc, sample).items())
    else:
        assert list(_transform_table(desc, sample).items()) == walk


@pytest.mark.parametrize("class_id", CUBE_CLASSES)
@pytest.mark.parametrize("n, u", [(1, 0), (1, 1), (3, 1), (4, 1), (4, 2), (6, 7), (6, 8), (6, 9)])
def test_a_count_table_takes_the_transform_at_most_8_cells_a_point(monkeypatch, class_id, n, u):
    desc = ClassDescriptor(class_id, n)
    sample = _numbered_sample(desc, u, 3, "mixed")
    walk = list(_walk_table(desc, sample).items())
    paths = []
    butterfly, row_table = hypotheses._butterfly, _Row.table
    monkeypatch.setattr(hypotheses, "_butterfly", lambda cells: paths.append("transform") or butterfly(cells))
    monkeypatch.setattr(_Row, "table", lambda *a: paths.append("walk") or row_table(*a))
    table = list(_count_table(desc, sample, BRUTE_BUDGET).items())
    assert table == walk == list(_reference_table(desc, sample).items())
    # a parity walks a plain sample at any density
    assert paths == ["transform" if class_id != "parity" and 2**n <= 8 * u else "walk"]


@pytest.mark.parametrize("class_id", CUBE_CLASSES)
def test_the_transform_path_sizes_the_class_before_it_checks_the_domain(class_id):
    desc = ClassDescriptor(class_id, 3)
    # 8 points: the transform for a disjunction or conjunction, the walk for a parity
    sample = _sample_packed(("bits", 4), tuple((x, 1) for x in range(8)), 8, F(0))
    with pytest.raises(BudgetExceeded):
        _count_table(desc, sample, 7)
    with pytest.raises(DomainMismatch):
        _count_table(desc, sample, 8)
    with pytest.raises(DomainMismatch):
        _CLASSES[class_id].table(desc, sample, BRUTE_BUDGET)


def _reference_answer(table, m, claim, mode):
    best = _best_count(table, m, claim)
    if mode == "reject" and not _matches(best, m, claim):
        return None
    return table[best]


def _at_most(data, items, size):
    """`items`, or `size` of them drawn when there are more (the reference scans the table per claim)."""
    items = sorted(items)
    return items if len(items) <= size else data.draw(st.lists(st.sampled_from(items), min_size=size, max_size=size))


def _small_weights():
    return st.one_of(st.integers(1, 3), st.sampled_from((255, 256, 257)))


@pytest.mark.parametrize("mode", ["arbitrary", "reject"])
@settings(max_examples=160, deadline=None)
@given(case=st.one_of(_cube_cases(weights=_small_weights()), _nat_cases(weights=_small_weights())), data=st.data())
def test_brute_oracle_solve_and_ladder_match_the_class_scan(mode, case, data):
    desc, sample = case
    m = sample.m
    table = _reference_table(desc, sample)
    oracle = make_brute_oracle(desc, mode)
    claims = {F(0)}
    if m:
        claims |= {F(c, m) for c in table} | {F(2 * c + 1, 2 * m) for c in table if c < m}  # ties at midpoints
        claims |= {F(j, m) for j in data.draw(st.lists(st.integers(0, m), max_size=6))}
    for claim in _at_most(data, claims, 30):
        assert oracle.solve(sample, claim, F(1, 10), F(1, 10)) == _reference_answer(table, m, claim, mode)
    runs = list(oracle.sweep(_sample_packed(sample.domain, sample.packed_counts, m, F(0)), F(1, 10), F(1, 10)))
    assert [first for first, _, _ in runs] == [0] + [last + 1 for _, last, _ in runs[:-1]]
    assert runs[-1][1] == m
    for first, last, response in _at_most(data, runs, 30):
        for j in {first, last, (first + last) // 2}:
            assert response == _reference_answer(table, m, F(j, m) if m else F(0), mode)


# ---------------------------------------------------------------------------
# ERM's labelings


@settings(max_examples=200, deadline=None)
@given(_cube_cases())
def test_labeling_bitsets_match_the_generic_scan(case):
    desc, sample = case
    pairs, build = _labeling_bitsets(desc, sample, BRUTE_BUDGET)
    got = [(vec, build(w)) for vec, w in pairs]
    assert got == _generic_labelings(enumerate_class(desc, BRUTE_BUDGET), sample)


@settings(max_examples=100, deadline=None)
@given(case=_cube_cases(), data=st.data())
def test_erm_matches_the_class_scan_with_large_multiplicities(case, data):
    desc, sample = case
    m = sample.m
    t = data.draw(st.integers(0, m))
    sample = _sample_packed(sample.domain, sample.packed_counts, m, F(t, m) if m else F(0))
    best = None
    for h in enumerate_class(desc):
        count = positive_weight(h, sample.domain, sample.packed_counts)
        key = ranking_key(F(abs(count - t), m) if m else F(0), count, h)
        if best is None or key < best[0]:
            best = (key, h)
    (residual, count, _), h = best
    out = erm_proportion_matcher(desc, sample)
    assert (out.hypothesis, out.residual, out.achieved) == (h, residual, F(count, m) if m else 0)


# ---------------------------------------------------------------------------
# errors where the scans raise them


def _raised(fn):
    """The error class `fn` raises, or None."""
    try:
        fn()
    except (BudgetExceeded, DomainMismatch, InfiniteClass) as exc:
        return type(exc)
    return None


@settings(max_examples=340, deadline=None)
@given(st.data())
def test_budget_and_domain_errors_match_the_scans(data):
    class_id = data.draw(st.sampled_from(CUBE_CLASSES + NAT_CLASSES))
    n = data.draw(st.integers(1, 5))
    if class_id in NAT_CLASSES:
        desc = _nat_desc(data.draw, class_id, n)
        if class_id == "finite_subset" and data.draw(st.booleans()):
            desc = ClassDescriptor("finite_subset", n)  # no ground set: InfiniteClass
            size = 1
        else:
            size = class_size(desc)
    else:
        restriction = data.draw(st.one_of(st.none(), st.integers(0, n))) if class_id == "parity" else None
        desc = ClassDescriptor(class_id, n, restriction=restriction)
        size = 2 ** (n if restriction is None else restriction)
    budget = data.draw(st.one_of(st.sampled_from((size - 1, size, 1)), st.integers(0, size + 2)))
    domain = data.draw(st.sampled_from([("bits", n), ("bits", n + 1), ("nat", None)]))
    points = sorted(data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=6, unique=True)))
    sample = _sample_packed(domain, tuple((x, 1) for x in points), len(points), F(0))

    table = _raised(lambda: _count_table(desc, sample, budget))
    assert table == _raised(lambda: _reference_table(desc, sample, budget))
    kernel = _raised(lambda: _labeling_bitsets(desc, sample, budget))
    if class_id != "parity":
        assert kernel == _raised(lambda: _generic_labelings(enumerate_class(desc, budget), sample))
    elif domain != ("bits", n):
        assert kernel is DomainMismatch
    else:  # parities are budgeted by the number of labelings, 2^rank
        found = len(_generic_labelings(enumerate_class(desc, BRUTE_BUDGET), sample))
        assert (kernel is BudgetExceeded) == (found > budget)


# ---------------------------------------------------------------------------
# the noisy-parity disagreement count


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_disagreement_count_matches_the_labeler(data):
    n = data.draw(st.one_of(st.sampled_from(BYTE_EDGES), st.integers(1, 17)))
    u = data.draw(_unique_counts(65))
    points = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=u + 1))
    draws = data.draw(st.lists(st.sampled_from(points), max_size=3 * u))  # repeats on purpose
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(draws), max_size=len(draws)))
    noisy = sum(lab << i for i, lab in enumerate(labels))  # bit i: draw i's noisy label
    count = _disagreement_counter(n, _Planes(draws, n), noisy)
    for _ in range(4):
        mask = data.draw(st.integers(0, 2**n - 1))
        h = Parity(tuple(mask >> (n - 1 - i) & 1 for i in range(n)))
        label = labeler(h, ("bits", n))
        assert count(h) == sum(label(x) != lab for x, lab in zip(draws, labels))
    wrong = Parity((1,) * (n + 1))
    with pytest.raises(DomainMismatch):
        labeler(wrong, ("bits", n))
    with pytest.raises(DomainMismatch):
        count(wrong)


def _fixed_oracle(response):
    return LLPOracle(lambda sample, claimed, eps, delta: response, lambda eps, delta: 1)


def test_noisy_parity_refuses_a_parity_of_the_wrong_length_and_rejects_other_kinds():
    setup = NoisyParitySetup(4, Parity((1, 0, 0, 0)), F(1, 10), F(1, 5))
    with pytest.raises(DomainMismatch):
        noisy_parity_via_llp(setup, 40, _fixed_oracle(Parity((1, 0, 0))), F(1, 10), seed=3)
    with pytest.raises(NoCandidateAccepted):
        noisy_parity_via_llp(setup, 40, _fixed_oracle(MonotoneDisjunction(4, (1,))), F(1, 10), seed=3)
    run = noisy_parity_via_llp(setup, 40, _fixed_oracle(Parity((1, 0, 0, 0))), F(1, 10), seed=3)
    assert run.hypothesis == Parity((1, 0, 0, 0))
