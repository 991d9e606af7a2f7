"""ERM and `distinct_labelings` against a scan of the whole class.

The library walks labelings as int bitsets from the column-bitset kernel
(for parities the GF(2) span of the transposed points, grown from the
last coordinate up in ascending mask; the column fold for disjunctions
and conjunctions) or, for windows and finite subsets, from `labeler`; it
weighs them against the multiplicities and builds a witness
only for the candidate it keeps.  The reference here does none of that:
it enumerates every hypothesis, labels each unique point with
`evaluate`, and ranks with `ranking_key`.
Unique-point counts around the transpose's byte chunks (0, 7, 8, 9, 64,
65) are drawn on purpose.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    Sample,
    distinct_labelings,
    encode,
    enumerate_class,
    erm_proportion_matcher,
    evaluate,
    ranking_key,
)
from test_point_form import _tuple_counts

CHUNK_EDGES = (0, 7, 8, 9, 64, 65)


def _reference_labelings(desc, sample):
    """labeling -> encoding-minimal witness, over the whole class."""
    uniq = [p for p, _ in _tuple_counts(sample)]
    found = {}
    for h in enumerate_class(desc):
        lab = tuple(evaluate(h, x) for x in uniq)
        if lab not in found or encode(h) < encode(found[lab]):
            found[lab] = h
    return found


def _reference_erm(desc, sample):
    """(key, hypothesis) first under `ranking_key` over the whole class."""
    m, t = sample.m, sample.positive_count
    best = None
    for h in enumerate_class(desc):
        count = sum(c for p, c in _tuple_counts(sample) if evaluate(h, p))
        key = ranking_key(F(abs(count - t), m) if m else F(0), count, h)
        if best is None or key < best[0]:
            best = (key, h)
    return best


def _check(desc, sample):
    labelings = list(distinct_labelings(desc, sample))
    want = _reference_labelings(desc, sample)
    assert dict(labelings) == want
    assert len(labelings) == len(want)
    (residual, count, _), h = _reference_erm(desc, sample)
    out = erm_proportion_matcher(desc, sample)
    assert out.hypothesis == h
    assert out.residual == residual
    assert out.achieved == (F(count, sample.m) if sample.m else 0)
    assert out.work == {"labelings": len(want)}


def _unique_counts(limit):
    edges = st.sampled_from([u for u in CHUNK_EDGES if u <= limit])
    return st.one_of(edges, st.integers(0, limit))


@st.composite
def _samples(draw, values, limit):
    """A sample over `values` (a list of points) with a chosen number of
    unique points, multiplicities 1..3 and any revealed count."""
    u = draw(_unique_counts(min(limit, len(values))))
    chosen = draw(st.lists(st.sampled_from(values), min_size=u, max_size=u, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=u, max_size=u))
    points = tuple(p for p, c in zip(chosen, mults) for _ in range(c))
    m = len(points)
    return Sample(points, F(draw(st.integers(0, m)), m) if m else F(0))


def _cube(n):
    return [tuple((v >> (n - 1 - i)) & 1 for i in range(n)) for v in range(2**n)]


@st.composite
def _cube_cases(draw):
    class_id = draw(st.sampled_from(("parity", "monotone_disjunction", "monotone_conjunction")))
    n = draw(st.integers(1, 7))
    restriction = None
    if class_id == "parity":
        restriction = draw(st.one_of(st.none(), st.integers(0, n)))
    return ClassDescriptor(class_id, n, restriction=restriction), draw(_samples(_cube(n), 65))


@st.composite
def _nat_cases(draw):
    if draw(st.booleans()):
        desc = ClassDescriptor("window", draw(st.integers(1, 3)), k=draw(st.integers(0, 3)))
    else:
        ground = draw(st.lists(st.integers(0, 80), max_size=6, unique=True))
        desc = ClassDescriptor("finite_subset", 1, ground_set=tuple(sorted(ground)))
    return desc, draw(_samples(list(range(81)), 65))


@settings(max_examples=250, deadline=None)
@given(_cube_cases())
def test_erm_and_labelings_match_the_class_scan_on_cube_samples(case):
    _check(*case)


@settings(max_examples=150, deadline=None)
@given(_nat_cases())
def test_erm_and_labelings_match_the_class_scan_on_nat_samples(case):
    _check(*case)


def test_empty_sample_has_one_labeling_and_the_minimal_witness():
    for desc in (
        ClassDescriptor("parity", 3),
        ClassDescriptor("parity", 3, restriction=0),
        ClassDescriptor("monotone_conjunction", 2),
        ClassDescriptor("window", 2, k=1),
        ClassDescriptor("finite_subset", 1, ground_set=(2, 5)),
    ):
        _check(desc, Sample((), F(0)))
        assert [lab for lab, _ in distinct_labelings(desc, Sample((), F(0)))] == [()]
