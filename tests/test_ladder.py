"""The brute-force oracle's claim ladder and the run-length transcript.

`make_brute_oracle` answers a whole ladder of claims j/m, j = 0..m, as runs
(first_j, last_j, response) through `LLPOracle.sweep`, and
`reductions._sweep` stores what it reads as a `Transcript` of runs.  The
per-claim `solve` path stays the reference: these tests expand every run
and compare it claim by claim with `solve`, and run both reductions with
and without the ladder.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    LLPOracle,
    MonotoneDisjunction,
    NoCandidateAccepted,
    NoisyParitySetup,
    Parity,
    Transcript,
    consistency_via_llp,
    gen_consistency,
    make_brute_oracle,
    noisy_parity_via_llp,
)
from llp_lab import reductions
from llp_lab.core import _claim_samples, _sample_packed
from llp_lab.reductions import OracleCall
from test_reductions import _consistency_reference

CUBE_CLASSES = ("parity", "monotone_disjunction", "monotone_conjunction")
MODES = ("arbitrary", "reject")


def _per_claim(oracle, domain, packed_counts, m):
    """What `solve` answers to each claim j/m, over the sweep's own samples."""
    samples = _claim_samples(_sample_packed(domain, packed_counts, m, F(0)))
    return [oracle.solve(sample, claim, F(1, 10), F(1, 10)) for claim, sample in samples]


def _expanded(oracle, domain, packed_counts, m):
    """The ladder's runs, checked to tile 0..m in order, one response per claim."""
    lines, nxt = [], 0
    for first, last, response in oracle.sweep(_sample_packed(domain, packed_counts, m, F(0)), F(1, 10), F(1, 10)):
        assert first == nxt and first <= last
        lines += [response] * (last - first + 1)
        nxt = last + 1
    assert nxt == m + 1
    return lines


@st.composite
def cube_samples(draw):
    """A cube class and packed counts over it, empty or single-point now and then."""
    n = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.lists(st.integers(0, 2**n - 1), unique=True, max_size=2**n).map(sorted))
    counts = tuple((p, draw(st.integers(1, 20))) for p in points)
    return ClassDescriptor(draw(st.sampled_from(CUBE_CLASSES)), n), counts


@settings(max_examples=150, deadline=None)
@given(cube_samples(), st.sampled_from(MODES))
def test_ladder_answers_every_claim_as_solve_does(drawn, mode):
    desc, counts = drawn
    m = sum(c for _, c in counts)
    domain = ("bits", desc.n) if m else None
    got = _expanded(make_brute_oracle(desc, mode), domain, counts, m)
    want = _per_claim(make_brute_oracle(desc, mode), domain, counts, m)
    assert len(got) == len(want) == m + 1
    assert all(g is w or g == w for g, w in zip(got, want))
    assert got == want


@pytest.mark.parametrize("mode", MODES)
def test_ladder_on_an_empty_sample_is_one_claim_zero(mode):
    desc = ClassDescriptor("parity", 3)
    oracle = make_brute_oracle(desc, mode)
    (run,) = oracle.sweep(_sample_packed(None, (), 0, F(0)), F(1, 10), F(1, 10))
    assert run == (0, 0, Parity((0, 0, 0)))
    assert [run[2]] == _per_claim(make_brute_oracle(desc, mode), None, (), 0)


@pytest.mark.parametrize("mode", MODES)
def test_ladder_with_a_single_distinct_count(mode):
    # every parity is 0 on the zero vector, so the table holds the one count 0
    desc = ClassDescriptor("parity", 3)
    runs = list(make_brute_oracle(desc, mode).sweep(_sample_packed(("bits", 3), ((0, 5),), 5, F(0)), F(1, 10), F(1, 10)))
    want = [(0, 5, Parity((0, 0, 0)))] if mode == "arbitrary" else [(0, 0, Parity((0, 0, 0))), (1, 5, None)]
    assert runs == want
    assert _expanded(make_brute_oracle(desc, mode), ("bits", 3), ((0, 5),), 5) == _per_claim(
        make_brute_oracle(desc, mode), ("bits", 3), ((0, 5),), 5
    )


def test_ladder_ties_go_to_the_smaller_count():
    # disjunctions over one bit on 2 zeros and 2 ones: counts 0 and 2, claim 1/4 is a tie
    desc = ClassDescriptor("monotone_disjunction", 1)
    oracle = make_brute_oracle(desc)
    runs = list(oracle.sweep(_sample_packed(("bits", 1), ((0, 2), (1, 2)), 4, F(0)), F(1, 10), F(1, 10)))
    assert runs == [(0, 1, MonotoneDisjunction(1, ())), (2, 4, MonotoneDisjunction(1, (1,)))]


# ---------------------------------------------------------------------------
# both reductions, with and without the ladder


def _reading_oracle(desc, mode, runs):
    """A brute-force oracle whose ladder records each run it hands out."""
    inner = make_brute_oracle(desc, mode)

    def sweep(*args):
        for run in inner.sweep(*args):
            runs.append(run)
            yield run

    sweep.solve = inner.solve  # the ladder still speaks for the inner solve
    return LLPOracle(inner.solve, inner.sample_size, sweep)


def _per_claim_oracle(desc, mode, asked):
    inner = make_brute_oracle(desc, mode)

    def solve(sample, claimed, epsilon, delta):
        asked.append(claimed)
        return inner.solve(sample, claimed, epsilon, delta)

    return LLPOracle(solve, inner.sample_size)


def _check_same_stop(got, want, asked, runs):
    assert isinstance(got.transcript, Transcript)
    assert list(got.transcript) == list(want.transcript)
    assert len(got.transcript) == len(want.transcript) == len(asked)
    assert [line.claimed for line in want.transcript] == asked
    accepted = [line.claimed for line in got.transcript if line.accepted]
    assert accepted == [line.claimed for line in want.transcript if line.accepted]
    assert len(accepted) <= 1
    # the ladder was read up to the run holding the last line, and no further
    j = len(got.transcript) - 1
    assert runs and runs[-1][0] <= j <= runs[-1][1]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(CUBE_CLASSES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10),
    st.sampled_from(MODES),
    st.integers(min_value=0, max_value=2**32),
)
def test_consistency_gives_the_same_lines_with_and_without_the_ladder(class_id, n, points, mode, seed):
    desc = ClassDescriptor(class_id, n)
    inst = gen_consistency(desc, min(points, 2**n), seed, max_mult=3)
    runs, asked = [], []
    got = consistency_via_llp(inst, _reading_oracle(desc, mode, runs), F(1, 20), seed)
    want = consistency_via_llp(inst, _per_claim_oracle(desc, mode, asked), F(1, 20), seed)
    assert got == want
    assert (got.decision, got.witness, got.drawn) == (want.decision, want.witness, want.drawn)
    _check_same_stop(got, want, asked, runs)


def _noisy(setup, m, oracle, seed):
    try:
        return noisy_parity_via_llp(setup, m, oracle, F(1, 10), seed)
    except NoCandidateAccepted:
        return None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
    st.integers(min_value=1, max_value=150),
    st.sampled_from(((F(0), F(0)), (F(1, 10), F(1, 5)), (F(1, 4), F(2, 5)))),
    st.sampled_from(MODES),
    st.integers(min_value=0, max_value=2**32),
)
def test_noisy_parity_gives_the_same_lines_with_and_without_the_ladder(n, data, m, noise, mode, seed):
    mask = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    setup = NoisyParitySetup(n, Parity(mask), *noise)
    desc = ClassDescriptor("parity", n)
    runs, asked = [], []
    got = _noisy(setup, m, _reading_oracle(desc, mode, runs), seed)
    want = _noisy(setup, m, _per_claim_oracle(desc, mode, asked), seed)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        _check_same_stop(got, want, asked, runs)


def test_a_replaced_solve_drops_the_ladder_and_sees_every_claim():
    desc = ClassDescriptor("monotone_disjunction", 3)
    oracle = make_brute_oracle(desc)
    assert oracle.sweep is not None and oracle.sweep.solve is oracle.solve
    asked = []

    def wrapped(sample, claimed, epsilon, delta):
        asked.append(claimed)
        return oracle.solve(sample, claimed, epsilon, delta)

    traced = dataclasses.replace(oracle, solve=wrapped)
    assert traced.sweep is None
    assert dataclasses.replace(oracle, sample_size=lambda e, d: 40).sweep is oracle.sweep
    inst = gen_consistency(desc, 6, 11, max_mult=3)
    run = consistency_via_llp(inst, traced, F(1, 20), 4)
    assert asked == [line.claimed for line in run.transcript]
    assert run == consistency_via_llp(inst, oracle, F(1, 20), 4)


# ---------------------------------------------------------------------------
# the run-length transcript


H1, H2 = MonotoneDisjunction(3, (1,)), MonotoneDisjunction(3, (2, 3))
LINES = (
    OracleCall(F(0), None),
    OracleCall(F(1, 5), None),
    OracleCall(F(2, 5), H1, False),
    OracleCall(F(3, 5), H1, False),
    OracleCall(F(4, 5), H1, False),
    OracleCall(F(1), H2, True),
)


def _transcript():
    return Transcript(5, ((2, None, None), (5, H1, False), (6, H2, True)))


def test_transcript_reads_as_the_tuple_of_its_lines():
    t = _transcript()
    assert len(t) == 6
    assert t[0] == LINES[0] and t[-1] == LINES[-1] and t[2] == t[-4] == LINES[2]
    assert all(t[j] == LINES[j] for j in range(-6, 6))
    assert tuple(t) == LINES and list(t) == list(LINES)
    assert isinstance(t[3], OracleCall) and t[3].claimed.denominator == 5
    assert LINES[5] in t and list(reversed(t)) == list(reversed(LINES))
    for bad in (6, -7):
        with pytest.raises(IndexError):
            t[bad]


def test_transcript_equals_and_hashes_by_its_canonical_runs():
    t = _transcript()
    assert t == _transcript() and hash(t) == hash(_transcript())
    split = Transcript(5, ((1, None, None), (2, None, None), (3, H1, False), (5, H1, False), (6, H2, True)))
    assert split.runs == t.runs and split == t and hash(split) == hash(t)
    assert repr(t) == f"Transcript(den=5, runs=((2, None, None), (5, {H1!r}, False), (6, {H2!r}, True)))"
    changed = Transcript(5, ((2, None, None), (5, H1, False), (6, H2, False)))
    assert t != changed and tuple(changed) == LINES[:5] + (OracleCall(F(1), H2, False),)
    # a transcript equals transcripts only: its lines are read through tuple(t)
    assert t != LINES and LINES != t and tuple(t) == LINES
    assert len({t, LINES}) == 2


def test_empty_and_single_claim_transcripts():
    assert tuple(Transcript(1, ())) == () and len(Transcript(1, ())) == 0
    assert Transcript(5, ()) == Transcript(1, ()) and Transcript(5, ()).den == 1
    single = Transcript(7, ((1, Parity((0, 0)), True),))
    assert single.den == 1 and single == Transcript(1, ((1, Parity((0, 0)), True),))
    assert tuple(single) == (OracleCall(F(0), Parity((0, 0)), True),)
    assert single[0].claimed == 0 and single[0].claimed.denominator == 1


RESPONSES = (None, H1, H2, MonotoneDisjunction(3, (1,)))  # the last equals H1, another object


@st.composite
def _lines(draw, max_len=8):
    size = draw(st.integers(0, max_len))
    return [(draw(st.sampled_from(RESPONSES)), draw(st.sampled_from((None, False, True)))) for _ in range(size)]


def _runs(data, den, lines):
    """A transcript of `lines`, each run of equal lines cut at random places."""
    runs = []
    for j, (response, ok) in enumerate(lines):
        if runs and runs[-1][1:] == (response, ok) and data.draw(st.booleans()):
            runs[-1] = (j + 1, response, ok)
        else:
            runs.append((j + 1, response, ok))
    return Transcript(den, tuple(runs))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_transcript_equality_is_line_wise_equality(data):
    lines = data.draw(_lines())
    other = lines if data.draw(st.booleans()) else data.draw(_lines())
    den = data.draw(st.integers(1, 6))
    a = _runs(data, den, lines)
    b = _runs(data, data.draw(st.sampled_from((den, data.draw(st.integers(1, 6))))), other)
    want = tuple(a) == tuple(b)
    assert (a == b) is want and (b == a) is want
    assert (a != b) is not want
    if want:
        assert hash(a) == hash(b)


def _no_line(monkeypatch):
    def no_line(*args):
        raise AssertionError("a transcript line was built")

    monkeypatch.setattr(reductions, "OracleCall", no_line)


def test_transcript_equality_builds_no_line(monkeypatch):
    _no_line(monkeypatch)
    big = 10**12
    a = Transcript(7, ((5, H1, False), (big, H1, False)))
    assert a == Transcript(7, ((big, MonotoneDisjunction(3, (1,)), False),))
    assert a != Transcript(8, ((big, H1, False),))
    assert a != Transcript(7, ((big, H1, None),))
    assert a != Transcript(7, ((big - 1, H1, False), (big, H2, False)))
    assert a != Transcript(7, ((big + 1, H1, False),))
    assert Transcript(3, ((1, H1, True),)) == Transcript(5, ((1, H1, True),))
    assert Transcript(3, ()) == Transcript(5, ())


def test_hashing_a_run_builds_no_line(monkeypatch):
    desc = ClassDescriptor("monotone_disjunction", 3)
    run = consistency_via_llp(gen_consistency(desc, 6, 11, max_mult=3), make_brute_oracle(desc), F(1, 20), 4)
    assert len(run.transcript) > 1
    _no_line(monkeypatch)
    assert hash(run) == hash(dataclasses.replace(run))
    assert len({run.transcript, Transcript(run.transcript.den, run.transcript.runs)}) == 1
    assert "OracleCall" not in repr(run)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_transcript_json_matches_the_reference_sweep_line_for_line(mode, seed):
    desc = ClassDescriptor("monotone_conjunction", 3)
    inst = gen_consistency(desc, 5, seed, max_mult=3)
    got = consistency_via_llp(inst, make_brute_oracle(desc, mode), F(1, 20), seed)
    want = _consistency_reference(inst, make_brute_oracle(desc, mode), F(1, 20), seed)
    assert [line.to_json() for line in got.transcript] == [line.to_json() for line in want.transcript]
