"""The bit-packed labeling kernel against `evaluate`, its per-point reference.

Every count the kernel makes must equal the naive sum of weights over the
points `evaluate` labels 1, and a domain mismatch must raise exactly where
`evaluate` would.  The noise threshold `_random_cut` is checked against the
exact Fraction comparison it replaces.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ConsistencyInstance,
    ClassDescriptor,
    ConstantRandom,
    DomainMismatch,
    FiniteSubset,
    Halfspace,
    MonotoneConjunction,
    MonotoneDisjunction,
    Parity,
    Sample,
    UniformCube,
    Window,
    empirical_proportion,
    evaluate,
    iter_cube,
    make_distribution,
    positive_count,
    true_proportion,
)
from llp_lab.core import _pack, _random_cut, check_same_domain
from llp_lab.hypotheses import labeler, positive_weight
from llp_lab.reductions import hits_exactly

small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def bit_hypotheses(draw, n):
    kind = draw(st.sampled_from(["parity", "disjunction", "conjunction", "halfspace"]))
    vars = tuple(sorted(draw(st.sets(st.integers(1, n)))))
    if kind == "parity":
        return Parity(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    if kind == "disjunction":
        return MonotoneDisjunction(n, vars)
    if kind == "conjunction":
        return MonotoneConjunction(n, vars)
    normal = tuple(draw(st.lists(small_fractions, min_size=n, max_size=n)))
    return Halfspace(normal, draw(small_fractions))


@st.composite
def nat_hypotheses(draw):
    elems = tuple(sorted(draw(st.sets(st.integers(0, 12), max_size=5))))
    if draw(st.booleans()):
        return FiniteSubset(elems)
    k = draw(st.integers(0, 4))
    return Window(k, tuple(e for e in elems if e - (elems[0] if elems else 0) <= k))


def hypotheses_any():
    return st.one_of(
        st.integers(1, 5).flatmap(bit_hypotheses),
        nat_hypotheses(),
    )


@st.composite
def point_lists(draw):
    """Points of one domain: n-bit vectors for a random n, or naturals."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        point = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    else:
        point = st.integers(0, 12)
    return draw(st.lists(point, max_size=12))


weights = st.one_of(st.integers(1, 5), st.builds(F, st.integers(1, 9), st.integers(1, 7)))


def _reference(h, pairs):
    """Weight of the points evaluate labels 1, or the error evaluate raises."""
    try:
        return sum(w for p, w in pairs if evaluate(h, p))
    except DomainMismatch:
        return DomainMismatch


def _kernel(h, pairs):
    domain = check_same_domain(p for p, _ in pairs)
    try:
        return positive_weight(h, domain, [(_pack(p), w) for p, w in pairs])
    except DomainMismatch:
        return DomainMismatch


@settings(max_examples=400)
@given(hypotheses_any(), point_lists(), st.data())
def test_kernel_count_matches_evaluate(h, points, data):
    pairs = [(p, data.draw(weights)) for p in points]
    assert _kernel(h, pairs) == _reference(h, pairs)


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), bit_hypotheses(n))), st.data())
def test_kernel_labels_match_evaluate_on_matching_points(n_h, data):
    n, h = n_h
    points = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple), max_size=10))
    label = labeler(h, ("bits", n))
    assert [int(label(_pack(p))) for p in points] == [evaluate(h, p) for p in points]
    sample = Sample(tuple(points), F(0))
    assert positive_count(h, sample) == sum(evaluate(h, p) for p in points)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), bit_hypotheses(n))))
def test_cube_proportion_matches_evaluate(n_h):
    n, h = n_h
    hits = sum(evaluate(h, x) for x in iter_cube(n))
    assert true_proportion(h, UniformCube(n)) == F(hits, 2**n)


@settings(max_examples=200)
@given(hypotheses_any(), point_lists(), st.data())
def test_distribution_and_sample_proportions_match_evaluate(h, points, data):
    unique = sorted(set(points))
    if not unique:
        return
    raw = [data.draw(st.integers(1, 9)) for _ in unique]
    dist = make_distribution((p, F(w, sum(raw))) for p, w in zip(unique, raw))
    want = _reference(h, dist.atoms)
    if want is DomainMismatch:
        with pytest.raises(DomainMismatch):
            true_proportion(h, dist)
        with pytest.raises(DomainMismatch):
            empirical_proportion(h, Sample(tuple(points), F(0)))
        return
    assert true_proportion(h, dist) == want
    assert empirical_proportion(h, Sample(tuple(points), F(0))) == F(
        sum(evaluate(h, p) for p in points), len(points)
    )


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), bit_hypotheses(n))), st.data())
def test_hits_exactly_matches_evaluate(n_h, data):
    n, h = n_h
    points = sorted(set(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple), min_size=1, max_size=8))))
    mults = [data.draw(st.integers(1, 4)) for _ in points]
    count = sum(a for p, a in zip(points, mults) if evaluate(h, p))
    k = data.draw(st.sampled_from([count, count + 1]))
    inst = ConsistencyInstance(ClassDescriptor("monotone_disjunction", n), tuple(points), tuple(mults), k)
    assert hits_exactly(inst, h) == (k == count)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.data())))
def test_halfspace_point_on_the_threshold_labels_zero(n_data):
    n, data = n_data
    normal = tuple(data.draw(st.lists(small_fractions, min_size=n, max_size=n)))
    x = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    h = Halfspace(normal, sum((c for c, b in zip(normal, x) if b), F(0)))
    assert evaluate(h, x) == 0
    assert not labeler(h, ("bits", n))(_pack(x))
    assert positive_weight(h, ("bits", n), [(_pack(x), 3)]) == 0


def test_pack_follows_cube_order():
    assert [_pack(x) for x in iter_cube(4)] == list(range(16))
    assert _pack(7) == 7


def test_empty_container_is_never_checked():
    assert positive_weight(Parity((1, 0)), None, []) == 0
    assert positive_count(FiniteSubset((1,)), Sample((), F(0))) == 0


def test_constant_random_is_refused():
    with pytest.raises(ValueError):
        labeler(ConstantRandom(F(1, 2)), ("bits", 2))
    with pytest.raises(ValueError):
        positive_count(ConstantRandom(F(1, 2)), Sample(((0, 1),), F(0)))


# ---------------------------------------------------------------------------
# the exact noise threshold

TWO53 = 2**53


@st.composite
def noise_rates(draw):
    """Any rational, or one within a hair of a multiple of 2^-53."""
    if draw(st.booleans()):
        return draw(st.builds(F, st.integers(-(2**60), 2**60), st.integers(1, 2**58)))
    k = draw(st.integers(-2, TWO53 + 2))
    hair = draw(st.sampled_from([F(0), F(1, 2**80), -F(1, 2**80), F(1, 3 * TWO53), -F(1, 3 * TWO53)]))
    return F(k, TWO53) + hair


@settings(max_examples=1000)
@given(noise_rates(), st.integers(0, TWO53 - 1))
def test_random_cut_agrees_with_the_fraction_comparison(eta, k):
    x = k / TWO53
    assert F(x) == F(k, TWO53)  # random() values are exact multiples of 2^-53
    cut = _random_cut(eta)
    assert (x < cut) == (x < eta)
    near = min(max(round(float(eta) * TWO53), 0), TWO53 - 1)
    for j in (near - 1, near, near + 1):
        if 0 <= j < TWO53:
            assert (j / TWO53 < cut) == (j / TWO53 < eta)


def test_random_cut_on_real_draws():
    rng = random.Random(5)
    draws = [rng.random() for _ in range(2000)]
    for eta in (F(1, 10), F(1, 3), F(0), F(1), F(2, 7)):
        cut = _random_cut(eta)
        assert [x < cut for x in draws] == [x < eta for x in draws]
