"""Bulk reads of the Mersenne Twister against the per-call loops they replaced.

`core._draw_cube` reads m cube draws off one `getrandbits` call, and
`core._cut_draws` reads m `random()` values off another, for the coins of
`core._coin_flips` and the small explicit draws of `core._draw`.  The
references below make one `getrandbits(n)` or one `random()` call per
example.  Both sides must give the same values and leave the generator at
the same place.
"""

import math
import random
import types
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    ConstantRandom,
    NoisyParitySetup,
    Parity,
    TrialConfig,
    Sample,
    UniformCube,
    derive_seed,
    draw_labeled_points,
    evaluate,
    make_brute_oracle,
    make_distribution,
    noisy_parity_via_llp,
    random_hypothesis,
)
from llp_lab import core, reductions, trials
from llp_lab.core import (
    COUNT_DRAW_MIN,
    _coin_flips,
    _cut_draws,
    _cut_table,
    _draw,
    _draw_cube,
    _draw_small,
    _random_cut,
    _unpack,
    _unpack_bits,
)
from llp_lab.errors import InvalidParams
from llp_lab.trials import run_single_trial

TWO53 = 2**53
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def _cube_reference(n, m, seed):
    getrandbits = random.Random(seed).getrandbits
    return [getrandbits(n) for _ in range(m)]


def _check_cube(n, m, seed):
    """The draws are the per-call loop's, one byte each up to 8 bits and a list of ints above."""
    got = _draw_cube(n, m, seed)
    assert list(got) == _cube_reference(n, m, seed)
    assert type(got) is (bytes if n <= 8 else list)
    return got


@pytest.mark.parametrize("n", range(131))
def test_cube_draws_match_the_per_call_loop_at_every_width(n):
    for m in (0, 1, 2, 3, 50):
        _check_cube(n, m, 1000 * n + m)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from((0, 1, 8, 31, 32, 33, 63, 64, 65, 96, 97, 128)), st.integers(0, 130)),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_cube_draws_match_the_per_call_loop(n, m, seed):
    got = _check_cube(n, m, seed)
    assert all(type(x) is int for x in got)


SPECIAL_RATES = (F(0), F(1, 2), F(1, TWO53), 1 - F(1, TWO53), F(1), F(1, 10), F(-1, 3), F(4, 3))


@st.composite
def _rates(draw):
    """A special rate, j/256 or next to it, a multiple of 2^-53, or any fraction a little past [0, 1]."""
    kind = draw(st.sampled_from(("special", "byte", "grid", "any")))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL_RATES))
    if kind == "byte":  # the cut on a bucket's edge, or just inside one
        return F(draw(st.integers(0, 256)), 256) + draw(st.sampled_from((0, F(1, TWO53), -F(1, TWO53))))
    if kind == "grid":
        return F(draw(st.integers(-2, TWO53 + 2)), TWO53)
    den = draw(st.integers(1, 2**60))
    return F(draw(st.integers(-den // 8, den + den // 8)), den)


def _check_flips(p, m, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    got = _coin_flips(p, m, rng)
    draws = [ref.random() for _ in range(m)]
    cut = _random_cut(p)
    assert got == bytes(x < cut for x in draws)
    assert got == bytes(x < p for x in draws)
    assert rng.random() == ref.random()  # the stream goes on where m calls leave it
    assert rng.getstate() == ref.getstate()
    return draws


@settings(max_examples=300, deadline=None)
@given(_rates(), st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=2**64 - 1))
def test_coin_flips_match_one_random_call_per_coin(p, m, seed):
    _check_flips(p, m, seed)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.data(),
)
def test_coin_flips_at_a_rate_on_a_drawn_value(m, seed, data):
    """p next to one of the drawn values: that coin sits on the cut."""
    rng = random.Random(seed)
    x = [rng.random() for _ in range(m)][data.draw(st.integers(0, m - 1))]
    hair = data.draw(st.sampled_from((F(0), F(1, TWO53), -F(1, TWO53), F(1, 2**80), -F(1, 2**80))))
    _check_flips(F(x) + hair, m, seed)


def test_a_kept_cut_table_decides_the_next_calls_at_its_bias():
    """The second call at one bias reads the second-byte tables the first call built."""
    p = F(3, 10)  # its cut splits top-byte bucket 76
    core._coin_cut.cache_clear()
    _check_flips(p, 3000, 41)
    _, (first, second) = kept = core._coin_cut(p)
    assert first[76] == core._SPLIT and 76 in second  # a draw landed there and built its table
    for seed in (42, 43):
        _check_flips(p, 3000, seed)
        assert core._coin_cut(p) is kept
    assert core._coin_cut.cache_info().currsize == 1


def test_no_coin_reads_no_word():
    rng = random.Random(3)
    assert _coin_flips(F(1, 2), 0, rng) == b""
    assert rng.getstate() == random.Random(3).getstate()


# ---------------------------------------------------------------------------
# byte tables and small explicit draws


def _bucket_ends(lo, width):
    """The least and the greatest random() value k / 2**53 with lo <= k < lo + width."""
    return lo / TWO53, (lo + width - 1) / TWO53


def _edges(size):
    """Cuts on j / size, and the floats next to them."""
    edges = st.integers(0, size).map(lambda j: j / size)
    return edges | edges.map(lambda c: math.nextafter(c, 0)) | edges.map(lambda c: math.nextafter(c, 2))


_CUTS = st.lists(st.floats(0, 1) | _edges(256) | _edges(65536), max_size=254).map(sorted)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CUTS, _CUTS.filter(bool).map(lambda cuts: cuts[:-1] + [math.inf])), st.integers(0, 3000), SEEDS)
def test_cut_draws_are_bisections_of_random_calls(cuts, m, seed):
    table = _cut_table(cuts)
    rng, ref = random.Random(seed), random.Random(seed)
    assert _cut_draws(cuts, table, m, rng) == bytes(bisect_right(cuts, ref.random()) for _ in range(m))
    assert rng.getstate() == ref.getstate()
    # a bucket is split exactly when its ends have different indices, and
    # each split top-byte bucket has a table over the second byte
    top, second = table
    for t in range(256):
        first, last = (bisect_right(cuts, x) for x in _bucket_ends(t * 2**45, 2**45))
        assert top[t] == (first if first == last else 255)
        if top[t] == 255:
            assert len(second[t]) == 256
            for s in range(256):
                first, last = (bisect_right(cuts, x) for x in _bucket_ends(t * 2**45 + s * 2**37, 2**37))
                assert second[t][s] == (first if first == last else 255)


def test_a_byte_table_holds_at_most_254_cuts():
    assert len(_cut_table([0.5] * 254)[0]) == 256
    with pytest.raises(InvalidParams, match="at most 254 cuts"):
        _cut_table([0.5] * 255)


def _distribution(weights, bits):
    points = [_unpack_bits(i, 9) if bits else 3 * i for i in range(len(weights))]
    total = sum(weights)
    return make_distribution((x, F(w, total)) for x, w in zip(points, weights))


@st.composite
def _small_distributions(draw):
    """Explicit distributions of 1-300 atoms: any weights, cuts on j/256, or a run of tiny masses.

    Tiny masses (weight ratios up to 2^60) put many cuts, some of them equal
    as floats, inside one bucket.
    """
    kind = draw(st.sampled_from(("any", "grid", "tiny")))
    if kind == "any":
        n = draw(st.sampled_from((1, 2, 253, 254, 255, 256, 300)) | st.integers(1, 300))
        top = draw(st.sampled_from((1, 2**8, 2**60)))
        weights = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    elif kind == "grid":  # each j/256 segment one atom, or split in two
        ends = draw(st.lists(st.integers(1, 255), unique=True, max_size=80))
        bounds = [0, *sorted(ends), 256]
        weights = []
        for lo, hi in zip(bounds, bounds[1:]):
            w = (hi - lo) * 2**20
            split = draw(st.sampled_from((0, 0, 0, 1)) | st.integers(0, w - 1))
            weights += [split, w - split] if split else [w]
    else:
        big = draw(st.lists(st.integers(2**59, 2**60), min_size=1, max_size=10))
        run = draw(st.lists(st.integers(1, 4), min_size=1, max_size=60))
        at = draw(st.integers(0, len(big)))
        weights = big[:at] + run + big[at:]
    return _distribution(weights, draw(st.booleans()))


def _check_small_draw(dist, m, seed):
    assert (dist.cdf[1] is None) == (len(dist.atoms) >= 255)  # past 254 atoms no byte table
    got = _draw(dist, m, seed)
    want = Sample(_unpack(dist.weighted.domain, _draw_small(dist, m, seed)), F(0))
    assert repr(got) == repr(want)  # before anything else builds the draw order
    assert got.packed_counts == want.packed_counts
    assert got._draws == want._draws
    assert got.points == want.points
    assert got == want


@settings(max_examples=200, deadline=None)
@given(_small_distributions(), st.sampled_from((0, 1, 2, COUNT_DRAW_MIN - 1)) | st.integers(0, COUNT_DRAW_MIN - 1), SEEDS)
def test_small_explicit_draws_match_one_random_call_per_draw(dist, m, seed):
    _check_small_draw(dist, m, seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), SEEDS, st.booleans(), st.data())
def test_small_explicit_draws_with_a_cut_on_a_drawn_value(m, seed, bits, data):
    """The first atom's mass is one of the drawn values: that draw sits on the cut and takes the second atom."""
    rng = random.Random(seed)
    x = F([rng.random() for _ in range(m)][data.draw(st.integers(0, m - 1))])
    if x:
        tail = data.draw(st.sampled_from((1, 2, 7)))
        _check_small_draw(_distribution([x.numerator * tail] + [x.denominator - x.numerator] * tail, bits), m, seed)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((UniformCube(5), make_distribution([(3, F(1, 3)), (7, F(2, 3))]))),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**64 - 1),
    _rates().filter(lambda p: 0 <= p <= 1),
)
def test_constant_random_labels_are_evaluate_calls(dist, m, seed, p):
    target = ConstantRandom(p)
    points, labels = draw_labeled_points(dist, m, seed, target)
    rng = random.Random(derive_seed(seed, "labels"))
    assert labels == tuple(evaluate(target, x, rng) for x in points)


@pytest.mark.parametrize("eta", [F(0), F(1, 10), F(1, 3)])
def test_noisy_distinguisher_counts_the_per_call_noisy_positives(monkeypatch, eta):
    config = TrialConfig(
        learner="noisy_distinguisher", epsilon=F(1, 10), delta=F(1, 10), trials=1, m=200,
        seed=11, distribution=UniformCube(5), desc=ClassDescriptor("parity", 5), eta=eta, eta_prime=F(2, 5),
    )
    seen = []
    learner = trials.noisy_parity_uniform_learner
    monkeypatch.setattr(
        trials, "noisy_parity_uniform_learner", lambda p, *rest: seen.append(p) or learner(p, *rest)
    )
    for index in range(6):
        run_single_trial(config, 200, index)
        trial_seed = derive_seed(config.seed, "trial", index)
        target = random_hypothesis(config.desc, random.Random(derive_seed(trial_seed, "target")))
        _, labels = draw_labeled_points(config.distribution, 200, derive_seed(trial_seed, "sample"), target)
        noise = random.Random(derive_seed(trial_seed, "noise"))
        assert seen[-1] == F(sum(1 - lab if noise.random() < eta else lab for lab in labels), 200)


# ---------------------------------------------------------------------------
# one call per stream


class _CountingRandom(random.Random):
    calls: list = []

    def getrandbits(self, k):
        self.calls.append(("getrandbits", k))
        return super().getrandbits(k)

    def random(self):
        self.calls.append(("random",))
        return super().random()


@pytest.mark.parametrize("mode", ["arbitrary", "reject"])
def test_a_noisy_parity_run_reads_each_stream_in_one_call(monkeypatch, mode):
    setup = NoisyParitySetup(8, Parity((1, 0, 1, 1, 0, 0, 0, 0)), F(1, 10), F(1, 5), restriction=4)
    oracle = make_brute_oracle(ClassDescriptor("parity", 8, restriction=4), mode)
    want = noisy_parity_via_llp(setup, 2444, oracle, F(1, 10), 7)
    calls = []
    counting = types.SimpleNamespace(Random=type("Counting", (_CountingRandom,), {"calls": calls}))
    monkeypatch.setattr(core, "random", counting)
    monkeypatch.setattr(reductions, "random", counting)
    assert noisy_parity_via_llp(setup, 2444, oracle, F(1, 10), 7) == want
    assert sorted(calls) == [("getrandbits", 32 * 2444), ("getrandbits", 64 * 2444)]
