"""The one claim sweep behind both oracle reductions.

`consistency_via_llp` and `noisy_parity_via_llp` sweep claims j/m through
`reductions._sweep`, whose samples come from `core._claim_samples`: one
checked base sample, copied into a fresh Sample per claim.  These tests
watch the sweep from the oracle's side (every sample it is handed) and
compare both reductions with the reference sweeps kept in
`test_reductions.py` and `test_packed.py`.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    ConsistencyInstance,
    LLPOracle,
    MonotoneDisjunction,
    NoCandidateAccepted,
    NoisyParitySetup,
    Parity,
    consistency_via_llp,
    derive_seed,
    evaluate,
    gen_consistency,
    hits_exactly,
    make_brute_oracle,
    noisy_parity_via_llp,
)
from llp_lab.core import (
    _claim_samples,
    _pack,
    _sample_packed,
    draw_counts,
    make_distribution,
)
from llp_lab.reductions import OracleCall
from test_core import _pack_counts
from test_packed import _noisy_parity_reference, _noisy_setups, _tuple_labeled
from test_reductions import _consistency_reference


class Keeper:
    """A brute-force oracle that keeps every (sample, claim) it is asked about."""

    def __init__(self, desc, mode="arbitrary", size=None, script=None):
        self.inner = make_brute_oracle(desc, mode)
        self.size = size
        self.script = script
        self.calls = []

    def solve(self, sample, claimed, epsilon, delta):
        self.calls.append((sample, claimed))
        if self.script is not None:
            return self.script(claimed)
        return self.inner.solve(sample, claimed, epsilon, delta)

    def sample_size(self, epsilon, delta):
        return self.inner.sample_size(epsilon, delta) if self.size is None else self.size

    @property
    def oracle(self):
        return LLPOracle(self.solve, self.sample_size)


def _check_kept(keeper, transcript, domain, packed_counts, m, draws=None):
    """Every kept sample is its own object, carries its line's claim and the shared counts."""
    samples = [sample for sample, _ in keeper.calls]
    assert len(samples) == len(transcript)
    assert len({id(s) for s in samples}) == len(samples)
    assert [claim for _, claim in keeper.calls] == [line.claimed for line in transcript]
    shared = samples[0].packed_counts
    assert shared == packed_counts
    for sample, line in zip(samples, transcript):
        assert sample.p_hat == line.claimed
        assert sample.packed_counts is shared
        assert (sample.domain, sample.m) == (domain, m)
        want = _sample_packed(domain, packed_counts, m, line.claimed, draws)
        assert sample.points == want.points
        assert sample.counts == want.counts


def _instance(class_id, n, points, seed):
    desc = ClassDescriptor(class_id, n)
    return gen_consistency(desc, min(points, 2**n), seed, max_mult=2)


def _consistency_counts(inst, m, seed):
    X = inst.total
    dist = make_distribution((p, F(a, X)) for p, a in zip(inst.points, inst.mults))
    return _pack_counts(draw_counts(dist, m, derive_seed(seed, "consistency-draw")))


# ---------------------------------------------------------------------------
# (a) the samples an oracle is handed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_consistency_sweep_hands_the_oracle_fresh_samples(seed):
    inst = _instance("monotone_disjunction", 3, 4, seed)
    keeper = Keeper(inst.desc, size=40)
    run = consistency_via_llp(inst, keeper.oracle, F(1, 20), seed)
    _check_kept(keeper, run.transcript, inst.packed[0], _consistency_counts(inst, 40, seed), 40)


def test_reading_one_claims_points_builds_no_other_claims_points():
    inst = _instance("monotone_conjunction", 3, 5, 9)
    keeper = Keeper(inst.desc, size=30)
    first = keeper.solve

    def solve(sample, claimed, epsilon, delta):
        if claimed == 0:
            assert sample.points and sample.counts  # build them on this claim only
        return first(sample, claimed, epsilon, delta)

    run = consistency_via_llp(inst, LLPOracle(solve, keeper.sample_size), F(1, 20), 9)
    samples = [sample for sample, _ in keeper.calls]
    assert "points" in vars(samples[0]) and "counts" in vars(samples[0])
    assert len(samples) > 1
    assert all("points" not in vars(s) and "counts" not in vars(s) for s in samples[1:])
    _check_kept(keeper, run.transcript, inst.packed[0], _consistency_counts(inst, 30, 9), 30)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_parity_sweep_hands_the_oracle_fresh_samples_in_draw_order(seed):
    n, m = 4, 120
    setup = NoisyParitySetup(n, Parity((1, 0, 1, 0)), F(1, 10), F(1, 5))
    keeper = Keeper(ClassDescriptor("parity", n), size=10)
    run = noisy_parity_via_llp(setup, m, keeper.oracle, F(1, 10), seed)
    # the reduction's draw and filter, on tuples
    rng = random.Random(derive_seed(seed, "noisy-draw"))
    points, clean = _tuple_labeled(n, m, derive_seed(seed, "noisy-points"), setup.target)
    noisy = [lab ^ 1 if rng.random() < setup.eta else lab for lab in clean]
    kept = tuple(p for p, lab in zip(points, noisy) if lab)
    draws = [_pack(p) for p in kept]
    counts = tuple(sorted(Counter(draws).items()))
    _check_kept(keeper, run.transcript, ("bits", n), counts, len(kept), draws)
    assert all(sample.points == kept for sample, _ in keeper.calls)


def test_a_new_response_after_a_rejected_one_gets_its_own_check(monkeypatch):
    from llp_lab import reductions

    checked = []

    def counting(inst, h):
        checked.append(h)
        return hits_exactly(inst, h)

    monkeypatch.setattr(reductions, "hits_exactly", counting)
    inst = ConsistencyInstance(
        ClassDescriptor("monotone_disjunction", 2), points=((0, 1), (1, 0)), mults=(1, 1), k=1
    )
    a, b = MonotoneDisjunction(2, (1, 2)), MonotoneDisjunction(2, (1,))  # a hits 2, b hits 1
    script = {F(j, 6): h for j, h in enumerate([a, a, None, a, b, b, a])}
    keeper = Keeper(inst.desc, size=6, script=script.__getitem__)
    run = consistency_via_llp(inst, keeper.oracle, F(1, 20), 0)
    assert checked == [a, b]
    assert run.decision is True and run.witness == b
    assert [line.accepted for line in run.transcript] == [False, False, None, False, True]
    assert run == _consistency_reference(inst, keeper.oracle, F(1, 20), 0)


# ---------------------------------------------------------------------------
# (b) both reductions against the reference sweeps


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(("monotone_disjunction", "monotone_conjunction", "parity")),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(("arbitrary", "reject")),
    st.integers(min_value=0, max_value=2**32),
)
def test_consistency_sweep_asks_what_the_reference_asks(class_id, n, points, mode, seed):
    inst = _instance(class_id, n, points, seed)
    got_keeper, want_keeper = Keeper(inst.desc, mode), Keeper(inst.desc, mode)
    got = consistency_via_llp(inst, got_keeper.oracle, F(1, 20), seed)
    want = _consistency_reference(inst, want_keeper.oracle, F(1, 20), seed)
    assert got == want
    assert [c for _, c in got_keeper.calls] == [c for _, c in want_keeper.calls]
    assert [s.packed_counts for s, _ in got_keeper.calls] == [
        s.packed_counts for s, _ in want_keeper.calls
    ]


def _outcome(run, *args):
    try:
        return run(*args)
    except NoCandidateAccepted:
        return NoCandidateAccepted


@settings(max_examples=20, deadline=None)
@given(
    _noisy_setups(((F(0), F(0)), (F(1, 10), F(1, 5)), (F(1, 4), F(2, 5)))),
    st.integers(min_value=1, max_value=150),
    st.sampled_from(("arbitrary", "reject")),
    st.integers(min_value=0, max_value=2**32),
)
def test_noisy_parity_sweep_asks_what_the_reference_asks(setup_desc, m, mode, seed):
    setup, desc = setup_desc
    got_keeper, want_keeper = Keeper(desc, mode), Keeper(desc, mode)
    got = _outcome(noisy_parity_via_llp, setup, m, got_keeper.oracle, F(1, 10), seed)
    want = _outcome(_noisy_parity_reference, setup, m, want_keeper.oracle, F(1, 10), seed)
    assert got == want
    assert [c for _, c in got_keeper.calls] == [c for _, c in want_keeper.calls]
    assert [s.points for s, _ in got_keeper.calls] == [s.points for s, _ in want_keeper.calls]


@pytest.mark.parametrize("per_claim", [False, True])
@pytest.mark.parametrize("m", [1, 2, 40, 300])
@pytest.mark.parametrize("n", range(1, 11))
def test_noisy_parity_verdicts_match_a_recount_over_the_tuple_draws(n, m, per_claim):
    seed = 100 * n + m
    mask = tuple(random.Random(seed).getrandbits(1) for _ in range(n))
    setup = NoisyParitySetup(n, Parity(mask), F(1, 10), F(1, 5))
    desc, mode = ClassDescriptor("parity", n), ("arbitrary", "reject")[n % 2]
    oracle = make_brute_oracle(desc, mode)
    if per_claim:  # another solve drops the sweep: one solve per claim
        oracle = dataclasses.replace(oracle, solve=partial(oracle.solve))
    # the reduction's draw and flips, on tuples, and every verdict recounted with `evaluate`
    rng = random.Random(derive_seed(seed, "noisy-draw"))
    points, clean = _tuple_labeled(n, m, derive_seed(seed, "noisy-points"), setup.target)
    noisy = [lab ^ 1 if rng.random() < setup.eta else lab for lab in clean]
    threshold = (setup.eta_prime + F(1, 2)) / 2

    def verdict(h):
        if h is None:
            return None
        bad = sum(evaluate(h, p) != lab for p, lab in zip(points, noisy))
        return isinstance(h, Parity) and F(bad, m) < threshold

    try:
        run = noisy_parity_via_llp(setup, m, oracle, F(1, 10), seed)
    except NoCandidateAccepted:
        with pytest.raises(NoCandidateAccepted):
            _noisy_parity_reference(setup, m, make_brute_oracle(desc, mode), F(1, 10), seed)
        return
    M = sum(noisy)
    assert run.filtered_size == M
    lines = list(run.transcript)
    assert [line.claimed for line in lines] == [F(j, max(M, 1)) for j in range(len(lines))]
    assert [line.accepted for line in lines] == [verdict(line.response) for line in lines]
    assert [line.accepted for line in lines].count(True) == 1 and lines[-1].accepted
    assert run.hypothesis == lines[-1].response


# ---------------------------------------------------------------------------
# (c) transcript lines


def test_oracle_call_is_an_immutable_hashable_line():
    h = MonotoneDisjunction(3, (1, 3))
    line = OracleCall(claimed=F(2, 7), response=h, accepted=True)
    assert line == OracleCall(F(2, 7), h, True) == (F(2, 7), h, True)
    assert OracleCall(F(1, 3), None).accepted is None
    assert OracleCall(F(1, 3), None) == (F(1, 3), None, None)
    assert hash(line) == hash(OracleCall(F(2, 7), h, True))
    assert len({line, OracleCall(F(2, 7), h, True), OracleCall(F(2, 7), h, False)}) == 2
    with pytest.raises(AttributeError):
        line.accepted = False  # type: ignore[misc]
    assert line.to_json() == {
        "claimed_num": 2,
        "claimed_den": 7,
        "response": {"kind": "monotone_disjunction", "n": 3, "vars": [1, 3]},
        "accepted": True,
    }
    assert OracleCall(F(0), None).to_json() == {
        "claimed_num": 0,
        "claimed_den": 1,
        "response": None,
        "accepted": None,
    }


# ---------------------------------------------------------------------------
# (d) the empty sample


def test_claim_samples_cover_every_claim_and_an_empty_sample_has_one():
    counts = ((1, 2), (6, 1))
    claims = [claim for claim, _ in _claim_samples(_sample_packed(("bits", 3), counts, 3, F(0)))]
    assert claims == [F(0), F(1, 3), F(2, 3), F(1)]
    ((claim, sample),) = list(_claim_samples(_sample_packed(None, (), 0, F(0), [])))
    assert claim == 0 and sample.p_hat == 0
    assert (sample.domain, sample.m, sample.points, sample.counts) == (None, 0, (), ())


def test_noisy_parity_with_nothing_kept_asks_one_claim_over_an_empty_sample():
    setup = NoisyParitySetup(3, Parity((0, 0, 0)), F(0), F(0))
    keeper = Keeper(ClassDescriptor("parity", 3))
    run = noisy_parity_via_llp(setup, 40, keeper.oracle, F(1, 10), seed=2)
    assert run.filtered_size == 0
    assert tuple(run.transcript) == (OracleCall(F(0), Parity((0, 0, 0)), True),)
    ((sample, claim),) = keeper.calls
    assert claim == 0
    assert (sample.domain, sample.m, sample.packed_counts, sample.points) == (None, 0, (), ())
