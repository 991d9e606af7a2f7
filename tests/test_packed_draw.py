"""The packed binomial draw against the point-then-pack paths it replaced.

`core._draw_packed` draws packed counts straight off packed points and
their integer multiplicities, given with their total.  `consistency_via_llp`
gives it the instance's own pairs and total X; `draw_counts`, `draw_sample`'s
large branch and `llp_to_pac` give it an explicit distribution's `weighted`
packed counts and size (total D, the lcm of the weights' denominators).  The references below draw as those
callers drew before: points from the distribution's atoms, one binomial per
atom over the D-scaled weights, then packed.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    FiniteSubset,
    LLPOracle,
    Parity,
    consistency_via_llp,
    derive_seed,
    draw_sample,
    evaluate,
    gen_consistency,
    llp_to_pac,
    make_brute_oracle,
    reweighted_distribution,
)
from llp_lab import core, reductions
from llp_lab.core import (
    COUNT_DRAW_MIN,
    _draw_packed,
    _pack,
    _sample_packed,
    check_same_domain,
    draw_counts,
    make_distribution,
)
from llp_lab.errors import InvalidParams
from llp_lab.reductions import OracleCall
from test_core import _pack_counts


def _point_draw_counts(dist, m, seed):
    """The binomial loop as it ran on points: the atoms' points, the D-scaled integer weights."""
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining, rem_weight = m, dist.weighted.m
    out = []
    for (point, _), (_, w) in zip(dist.atoms[:-1], dist.weighted.packed_counts):
        c = int(rng.binomial(remaining, w / rem_weight)) if remaining else 0
        if c:
            out.append((point, c))
        remaining -= c
        rem_weight -= w
    if remaining:
        out.append((dist.atoms[-1][0], remaining))
    return tuple(out)


@st.composite
def _multiplicities(draw):
    """Sorted distinct points (naturals or bit vectors) with multiplicities up to 10^6.

    Every multiplicity is a multiple of one shared factor g, so the
    distribution's total D is X / g or less, below the instance's X.
    """
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        n = draw(st.integers(3, 5))
        values = draw(st.lists(st.integers(0, 2**n - 1), min_size=k, max_size=k, unique=True))
        points = [tuple(v >> (n - 1 - i) & 1 for i in range(n)) for v in sorted(values)]
    else:
        points = sorted(draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k, unique=True)))
    g = draw(st.sampled_from((1, 2, 6, 1000)) | st.integers(1, 10**6))
    mults = [g * draw(st.integers(1, 10**6 // g)) for _ in points]
    return tuple(points), tuple(mults)


def _distribution(points, mults):
    X = sum(mults)
    return make_distribution((p, F(a, X)) for p, a in zip(points, mults))


SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(_multiplicities(), st.sampled_from((0, 1, COUNT_DRAW_MIN, 10**6)) | st.integers(0, 10**6), SEEDS)
@example(((7,), (5,)), 0, 0)
@example(((7,), (5,)), 10**6, 3)
@example((((0, 1, 1),), (10**6,)), 1, 2**64 - 1)
@example(((1, 2, 3), (6 * 10**5, 3 * 10**5, 10**5)), 10**6, 11)
@example(((1, 2, 3), (6 * 10**5, 3 * 10**5, 10**5)), 2**63 - 1, 11)  # numpy's largest binomial n
def test_packed_draw_on_raw_multiplicities_matches_the_fraction_distribution(case, m, seed):
    points, mults = case
    X = sum(mults)
    packed = tuple(zip(map(_pack, points), mults))
    dist = _distribution(points, mults)
    assert dist.weighted.m == X // math.gcd(*mults)
    got = _draw_packed(packed, X, m, seed)
    assert got == _pack_counts(draw_counts(dist, m, seed)) == _pack_counts(_point_draw_counts(dist, m, seed))
    assert draw_counts(dist, m, seed) == _point_draw_counts(dist, m, seed)
    assert sum(c for _, c in got) == m and all(c >= 1 for _, c in got)


BITS = st.lists(st.integers(0, 1), min_size=8, max_size=8)


@settings(max_examples=100, deadline=None)
@given(_multiplicities(), st.integers(COUNT_DRAW_MIN, 10**6), st.integers(1, 10**6), SEEDS, BITS)
@example(((7,), (5,)), COUNT_DRAW_MIN, 1, 0, [1] * 8)
@example(((2, 9, 40), (4, 6, 2)), 10**6, 10**6, 5, [0, 1, 1, 0, 0, 0, 0, 0])
def test_large_draw_sample_and_llp_to_pac_match_the_point_then_pack_path(case, m, m_pac, seed, bits):
    points, mults = case
    dist = _distribution(points, mults)
    domain = check_same_domain(points)
    labels = bits[: len(points)]
    if domain[0] == "bits":
        target = Parity(tuple(bits[: domain[1]]))
    else:
        target = FiniteSubset(tuple(p for p, lab in zip(points, labels) if lab))

    counts = _point_draw_counts(dist, m, seed)
    positives = sum(c for p, c in counts if evaluate(target, p))
    want = _sample_packed(domain, _pack_counts(counts), m, F(positives, m))
    got = draw_sample(dist, m, seed, target)
    assert (got.m, got.p_hat, got.domain, got.packed_counts) == (want.m, want.p_hat, want.domain, want.packed_counts)
    assert got == want and "points" not in got.__dict__

    labeled = list(zip(points, labels))
    seen = []

    def solve(sample, p_hat, eps, delta):
        seen.append(sample)
        return target

    run = llp_to_pac(labeled, LLPOracle(solve, lambda eps, delta: m_pac), F(1, 20), seed)
    rdist, label_of, _, _ = reweighted_distribution(labeled)
    counts = _point_draw_counts(rdist, m_pac, derive_seed(seed, "pac-draw"))
    p_hat = F(sum(c for p, c in counts if label_of[p]), m_pac)
    [sample] = seen
    assert (sample.m, sample.p_hat, sample.domain, sample.packed_counts) == (
        m_pac, p_hat, domain, _pack_counts(counts))
    assert run.drawn == m_pac and run.transcript == (OracleCall(p_hat, target, accepted=True),)


def _criterion_11_instances():
    """The 100 instances of acceptance criterion 11, with the seed each is run at."""
    master = 1009
    for i in range(100):
        rng = random.Random(derive_seed(master, "c11", i))
        desc = ClassDescriptor(("monotone_disjunction", "monotone_conjunction")[i % 2], rng.randint(1, 4))
        inst = gen_consistency(desc, rng.randint(1, min(10, 2**desc.n)), derive_seed(master, "c11", "gen", i))
        yield inst, derive_seed(master, "c11", "run", i)


def test_consistency_via_llp_builds_no_distribution(monkeypatch):
    cases = list(_criterion_11_instances())

    def runs():
        # a transcript's repr lists its runs; comparing the runs is comparing the lines
        return [
            (run.decision, run.witness, run.drawn, repr(run.transcript))
            for inst, seed in cases
            for mode in ("arbitrary", "reject")
            for run in [consistency_via_llp(inst, make_brute_oracle(inst.desc, mode), F(1, 20), seed)]
        ]

    want = runs()

    def refuse(*args, **kwargs):
        raise AssertionError("the consistency draw went through a Fraction distribution")

    monkeypatch.setattr(reductions, "make_distribution", refuse)
    monkeypatch.setattr(reductions, "draw_counts", refuse, raising=False)
    monkeypatch.setattr(core, "draw_counts", refuse)
    assert runs() == want


def test_every_count_draw_refuses_m_from_2_to_the_63():
    # numpy's binomial raises OverflowError there, so no reference reproduces a count
    inst = next(_criterion_11_instances())[0]
    too_many = LLPOracle(lambda *args: None, lambda eps, delta: 2**63)
    dist = _distribution((3, 5), (1, 2))
    calls = [
        lambda: _draw_packed(((1, 1), (2, 1)), 2, 2**63, 0),
        lambda: draw_counts(dist, 2**63, 1),
        lambda: draw_sample(dist, 2**64, 1, FiniteSubset((3,))),
        lambda: consistency_via_llp(inst, too_many, F(1, 20), 0),
        lambda: llp_to_pac([(1, 1), (2, 0)], too_many, F(1, 20), 0),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="below 2\\*\\*63") as raised:
            call()
        assert isinstance(raised.value, ValueError)
    assert sum(c for _, c in draw_counts(dist, 2**63 - 1, 1)) == 2**63 - 1
