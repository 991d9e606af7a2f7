"""Packed draws and trusted samples against the tuple path they replaced.

The references below draw n-tuples, label them with `evaluate` and build
checked `Sample`s; the library draws packed ints, labels them with the
kernel and builds trusted samples from packed counts.  Both must agree on
every field, byte and transcript line.
"""

import dataclasses
import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    DomainMismatch,
    FiniteSubset,
    Halfspace,
    MonotoneConjunction,
    MonotoneDisjunction,
    NoCandidateAccepted,
    NoisyParitySetup,
    Parity,
    Sample,
    UniformCube,
    Window,
    consistency_via_llp,
    derive_seed,
    draw_labeled_points,
    draw_points,
    draw_sample,
    erm_proportion_matcher,
    evaluate,
    gen_consistency,
    make_brute_oracle,
    noisy_parity_via_llp,
    normalized,
    sample_to_json,
)
from llp_lab import oracles
from llp_lab.reductions import NoisyParityRun, OracleCall
from test_reductions import _transcript_of


def _tuple_points(n, m, seed):
    """The cube draw as n-tuples: one getrandbits(n) per draw, high bit first."""
    rng = random.Random(seed)
    return tuple(
        tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        for v in (rng.getrandbits(n) for _ in range(m))
    )


def _tuple_labeled(n, m, seed, target):
    points = _tuple_points(n, m, seed)
    return points, tuple(int(evaluate(target, p)) for p in points)


@st.composite
def _cube_targets(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    kind = draw(st.sampled_from(("parity", "disjunction", "conjunction", "halfspace")))
    if kind == "parity":
        return n, Parity(tuple(draw(bits)))
    if kind in ("disjunction", "conjunction"):
        chosen = tuple(i + 1 for i, b in enumerate(draw(bits)) if b)
        cls = MonotoneDisjunction if kind == "disjunction" else MonotoneConjunction
        return n, cls(n, chosen)
    coords = st.fractions(min_value=-2, max_value=2, max_denominator=8)
    normal = tuple(draw(st.lists(coords, min_size=n, max_size=n)))
    return n, Halfspace(normal, draw(coords))


@settings(max_examples=150, deadline=None)
@given(
    _cube_targets(),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
)
def test_packed_draw_sample_matches_the_tuple_path(case, m, seed, counts_first):
    n, target = case
    points, labels = _tuple_labeled(n, m, seed, target)
    want = Sample(points, F(sum(labels), m) if m else F(0))
    got = draw_sample(UniformCube(n), m, seed, target)
    # a trusted sample builds `counts` and `points` lazily, in either order
    if counts_first:
        assert got.counts == want.counts
    assert got.points == want.points
    assert got.counts == want.counts
    assert got == want
    assert got == Sample(draw_points(UniformCube(n), m, seed), want.p_hat)
    assert got.packed_counts == want.packed_counts
    assert got.domain == want.domain
    assert got.m == want.m == m
    assert sample_to_json(draw_sample(UniformCube(n), m, seed, target)) == sample_to_json(want)


@settings(max_examples=150, deadline=None)
@given(
    _cube_targets(),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_packed_labeled_draw_matches_the_tuple_path(case, m, seed):
    n, target = case
    assert draw_points(UniformCube(n), m, seed) == _tuple_points(n, m, seed)
    assert draw_labeled_points(UniformCube(n), m, seed, target) == _tuple_labeled(n, m, seed, target)


@st.composite
def _explicit_targets(draw):
    """An explicit distribution over naturals or over n-bit vectors, with a
    proper target over the same domain."""
    weights = st.integers(1, 9)
    if draw(st.booleans()):
        atoms = draw(st.lists(st.integers(0, 40), min_size=1, max_size=20, unique=True))
        chosen = tuple(sorted(draw(st.sets(st.sampled_from(atoms)))))
        target = FiniteSubset(chosen) if draw(st.booleans()) else Window(40, chosen)
    else:
        n, target = draw(_cube_targets(max_n=6))
        values = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=20, unique=True))
        atoms = [tuple((v >> (n - 1 - i)) & 1 for i in range(n)) for v in values]
    return normalized((a, draw(weights)) for a in atoms), target


@settings(max_examples=150, deadline=None)
@given(
    _explicit_targets(),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.booleans(),
)
def test_packed_explicit_draw_sample_matches_the_tuple_path(case, m, seed, counts_first):
    dist, target = case
    points = draw_points(dist, m, seed)
    want = Sample(points, F(sum(evaluate(target, p) for p in points), m) if m else F(0))
    got = draw_sample(dist, m, seed, target)
    assert "points" not in vars(got) and "counts" not in vars(got)
    if counts_first:
        assert got.counts == want.counts
    assert got.points == want.points
    assert got.counts == want.counts
    assert got == want
    assert got.packed_counts == want.packed_counts
    assert got.domain == want.domain
    assert got.m == want.m == m
    assert sample_to_json(draw_sample(dist, m, seed, target)) == sample_to_json(want)


def _noisy_parity_reference(setup, m, oracle, delta, seed):
    """The sweep on tuples: checked Samples and a disagreement count per claim."""
    eps = (F(1, 2) - setup.eta_prime) / 2
    rng = random.Random(derive_seed(seed, "noisy-draw"))
    points, clean = _tuple_labeled(setup.n, m, derive_seed(seed, "noisy-points"), setup.target)
    noisy = tuple(lab ^ 1 if rng.random() < setup.eta else lab for lab in clean)
    kept = tuple(p for p, lab in zip(points, noisy) if lab)
    M = len(kept)
    threshold = (setup.eta_prime + F(1, 2)) / 2
    transcript = []
    for claim in [F(0)] if M == 0 else [F(j, M) for j in range(M + 1)]:
        response = oracle.solve(Sample(kept, claim), claim, eps, F(delta) / 3)
        if response is None:
            transcript.append(OracleCall(claim, None))
            continue
        bad = sum(evaluate(response, p) != lab for p, lab in zip(points, noisy))
        ok = isinstance(response, Parity) and F(bad, m) < threshold
        transcript.append(OracleCall(claim, response, accepted=ok))
        if ok:
            return NoisyParityRun(response, M, _transcript_of(transcript))
    raise NoCandidateAccepted("no parity accepted")


def _outcome(run, *args):
    try:
        return run(*args)
    except NoCandidateAccepted:
        return NoCandidateAccepted


@st.composite
def _noisy_setups(draw, noises):
    """n from 1 to 10, on both sides of the one-byte cube draw, and a restriction or none."""
    n = draw(st.integers(min_value=1, max_value=10))
    restriction = draw(st.none() | st.integers(min_value=0, max_value=n))
    free = n if restriction is None else restriction
    mask = tuple(draw(st.lists(st.integers(0, 1), min_size=free, max_size=free))) + (0,) * (n - free)
    setup = NoisyParitySetup(n, Parity(mask), *draw(st.sampled_from(noises)), restriction=restriction)
    return setup, ClassDescriptor("parity", n, restriction=restriction)


@settings(max_examples=60, deadline=None)
@given(
    _noisy_setups(((F(0), F(0)), (F(1, 10), F(1, 5)), (F(1, 5), F(1, 4)), (F(1, 4), F(2, 5)))),
    st.integers(min_value=1, max_value=200),
    st.sampled_from(("arbitrary", "reject")),
    st.integers(min_value=0, max_value=2**32),
    st.booleans(),
)
def test_noisy_parity_matches_the_tuple_sweep(setup_desc, m, mode, seed, per_claim):
    setup, desc = setup_desc
    oracle = make_brute_oracle(desc, mode)
    if per_claim:  # another solve drops the sweep: one solve per claim, on the kept draws
        oracle = dataclasses.replace(oracle, solve=partial(oracle.solve))
        assert oracle.sweep is None
    got = _outcome(noisy_parity_via_llp, setup, m, oracle, F(1, 10), seed)
    want = _outcome(_noisy_parity_reference, setup, m, make_brute_oracle(desc, mode), F(1, 10), seed)
    assert got == want


@pytest.mark.parametrize("class_id", ["parity", "monotone_disjunction", "monotone_conjunction"])
def test_erm_on_a_drawn_cube_sample_never_unpacks(class_id):
    sample = draw_sample(UniformCube(3), 200, 5, Parity((1, 0, 1)))
    erm_proportion_matcher(ClassDescriptor(class_id, 3), sample)
    assert "points" not in vars(sample) and "counts" not in vars(sample)


# ---------------------------------------------------------------------------
# the brute-force oracle's table memo, keyed on (domain, packed counts)


@pytest.fixture
def builds(monkeypatch):
    calls = []
    build = oracles._count_table

    def counting(desc, sample, budget):
        calls.append(sample.domain)
        return build(desc, sample, budget)

    monkeypatch.setattr(oracles, "_count_table", counting)
    return calls


def test_consistency_sweep_builds_one_table(builds):
    desc = ClassDescriptor("monotone_disjunction", 3)
    inst = gen_consistency(desc, 6, 11, max_mult=3)
    run = consistency_via_llp(inst, make_brute_oracle(desc), F(1, 20), 4)
    assert len(run.transcript) > 1 and len(builds) == 1


def test_noisy_parity_sweep_builds_one_table(builds):
    setup = NoisyParitySetup(5, Parity((1, 0, 1, 1, 0)), F(1, 10), F(1, 5))
    oracle = make_brute_oracle(ClassDescriptor("parity", 5))
    run = noisy_parity_via_llp(setup, 400, oracle, F(1, 10), 3)
    assert len(run.transcript) > 1 and len(builds) == 1
    # another solve drops the sweep; its per-claim samples share one key, so one table serves them all
    fresh = make_brute_oracle(ClassDescriptor("parity", 5))
    per_claim = dataclasses.replace(fresh, solve=partial(fresh.solve))
    assert per_claim.sweep is None
    assert noisy_parity_via_llp(setup, 400, per_claim, F(1, 10), 3) == run and len(builds) == 2


def test_distinct_samples_over_equal_points_share_one_table(builds):
    desc = ClassDescriptor("parity", 4)
    oracle = make_brute_oracle(desc)
    target = Parity((0, 1, 1, 0))
    drawn = draw_sample(UniformCube(4), 30, 8, target)
    checked = Sample(draw_points(UniformCube(4), 30, 8), F(3, 30))
    assert drawn is not checked and drawn.points == checked.points
    for sample in (drawn, checked, Sample(checked.points, F(0))):
        oracle.solve(sample, sample.p_hat, F(1, 10), F(1, 10))
    assert builds == [("bits", 4)]


@pytest.mark.parametrize("widths", [(4, 8), (8, 4)])
def test_equal_packed_points_of_two_widths_build_two_tables(builds, widths):
    fits, other = widths
    oracle = make_brute_oracle(ClassDescriptor("parity", fits))
    a = Sample(((0,) * (fits - 1) + (1,), (0,) * fits), F(1, 2))
    b = Sample(((0,) * (other - 1) + (1,), (0,) * other), F(1, 2))
    assert a.packed_counts == b.packed_counts
    oracle.solve(a, F(1, 2), F(1, 10), F(1, 10))
    with pytest.raises(DomainMismatch):
        oracle.solve(b, F(1, 2), F(1, 10), F(1, 10))
    assert builds == [("bits", fits), ("bits", other)]
