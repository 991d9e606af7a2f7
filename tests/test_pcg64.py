"""The standard-library PCG64 binomial against numpy's, draw for draw and state for state.

`_pcg64.PCG64(seed)` must reproduce `numpy.random.Generator(PCG64(seed))`:
the seeded state and increment, every uniform double, and every binomial
together with the generator state it leaves.  numpy is a test-only
dependency; it stays here as the reference.  Random seeds almost never
reach a binomial's rare branches, so both generators are also set to
forged states whose next uniforms the test picks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab._pcg64 import _M64, _M128, _MULT, PCG64

SEEDS = st.integers(0, 2**64 - 1)


def _numpy_state(gen):
    state = gen.bit_generator.state["state"]
    return state["state"], state["inc"]


@st.composite
def _draws(draw):
    """(n, p) pairs over every regime: p at 0, 1/2, 1 and 1e-12, n * p at 30 and just past it."""
    n = draw(st.integers(0, 10**9) | st.integers(0, 200) | st.sampled_from((0, 1, 30, 60, 61, 10**9)))
    edges = [0.0, 0.5, 1.0, 1e-12, 1 - 1e-12]
    if n:
        at_30 = min(30.0 / n, 1.0)
        edges += [at_30, math.nextafter(at_30, 1.0), 1.0 - at_30, math.nextafter(1.0 - at_30, 0.0)]
    p = draw(st.sampled_from(edges) | st.floats(0.0, 1.0) | st.floats(0.0, min(1.0, 64.0 / max(n, 1))))
    return n, p


@settings(max_examples=600, deadline=None)
@given(SEEDS, st.lists(_draws(), min_size=1, max_size=6))
@example(1, [(60, 0.5), (240, 0.125), (30, 1.0), (10**9, 1e-12)])
@example(2**31, [(61, 0.5), (10**9, 0.5), (10**9, 1 - 1e-12)])
@example(2**32 + 5, [(3000, 30 / 3000), (3000, math.nextafter(30 / 3000, 1.0)), (0, 0.3)])
@example(2**64 - 1, [(1, 1.0), (1, 0.0), (10**6, 0.999999), (50, 0.4)])
@example(7, [(2**63 - 1, 0.5), (2**63 - 1, 1e-12), (2**62, 0.999), (2**53 + 1, 0.3), (2**53 - 1, 2e-15)])
def test_binomial_matches_numpy_call_by_call(seed, draws):
    gen = np.random.Generator(np.random.PCG64(seed))
    mine = PCG64(seed)
    assert (mine.state, mine.inc) == _numpy_state(gen)
    for n, p in draws:
        assert mine.binomial(n, p) == int(gen.binomial(n, p)), (n, p)
        assert (mine.state, mine.inc) == _numpy_state(gen), (n, p)


@settings(max_examples=200, deadline=None)
@given(SEEDS | st.integers(2**64, 2**200))
@example(0)
@example(1)
@example(2**32 - 1)
@example(2**32)
@example(2**64 - 1)
@example(2**128)
@example(2**96)
@example(2**128 - 1)
@example(2**128 + 2**32)
@example(2**192 + 1)  # zero words between the bottom and the top one
@example(2**256 - 1)
def test_seeding_and_uniforms_match_numpy(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    mine = PCG64(seed)
    assert (mine.state, mine.inc) == _numpy_state(gen)
    assert [mine.random() for _ in range(5)] == gen.random(5).tolist()
    assert (mine.state, mine.inc) == _numpy_state(gen)


def _state_for(u, hi):
    """The 128-bit state with high half `hi` whose XSL-RR output gives the uniform u (its low 11 bits 0)."""
    out = int(u * 2**53) << 11
    rot = hi >> 58
    return hi << 64 | ((out << rot | out >> (64 - rot)) & _M64) ^ hi


def _forged(u1, u2):
    """A (state, increment) whose next two uniforms are u1 and u2, each cut to its top 53 bits.

    The two states after it are chosen outright, and the LCG gives the rest:
    increment = s2 - s1 * mult, and the start (s1 - increment) / mult, all
    mod 2**128.  An increment is odd, so when it would be even, s2's high
    half flips its low bit, which its rotation does not read.
    """
    s1 = _state_for(u1, 0x9E3779B97F4A7C15)
    s2 = _state_for(u2, 0xD1B54A32D192ED03)
    if not (s2 - s1 * _MULT) & 1:
        s2 = _state_for(u2, 0xD1B54A32D192ED02)
    inc = (s2 - s1 * _MULT) & _M128
    return (s1 - inc) * pow(_MULT, -1, 1 << 128) & _M128, inc


def _at(state, inc):
    """Our generator and numpy's, both set to (state, inc)."""
    mine = object.__new__(PCG64)
    mine.state, mine.inc = state, inc
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return mine, np.random.Generator(bits)


# (n, p, u1, u2, want): want is (the draw, the uniforms it read), or None where
# the first try is refused and the draw goes on to uniforms the LCG picks.
_FORGED = [
    # inversion at n * p = 1: the walk restarts past int(1 + 10 * sqrt(1.99)) = 15 (at 9 sd it would be 13)
    (100, 0.01, 1 - 2**-40, 0.0, (14, 1)),  # between 9 and 10 sd: kept
    (100, 0.01, 1 - 2**-44, 0.0, (15, 1)),  # at the bound: kept
    (100, 0.01, 1 - 2**-48, 0.0, (0, 2)),  # past it: a restart, and the second uniform gives 0
    # BTPE at n = 1000, p = 0.4: m = 400, u * p4 cut at p1 = 31.5, p2 = 43.05, p3 = 44.44 (p4 = 45.86)
    (1000, 0.4, 0.3, 0.5, (398, 2)),  # triangle
    (1000, 0.4, 0.8, 0.2, (397, 2)),  # parallelogram, |y - m| = 3: the exact ratio accepts
    (1000, 0.4, 0.81284, 0.99, None),  # parallelogram, v > 1
    (1000, 0.4, 0.95, 0.5, (363, 2)),  # left tail
    (1000, 0.4, 0.95, 0.0, None),  # left tail, v = 0
    (1000, 0.4, 0.99, 0.9, (432, 2)),  # right tail
    (1000, 0.4, 0.99, 0.5, None),  # right tail, refused
    # |y - m| = 20 and 21 through the parallelogram, v between the exact ratio f(y) / f(m)
    # (0.43326 at 420, 0.39793 at 421) and the Stirling bound's (0.43356, 0.39820): the exact
    # ratio, taken up to |y - m| = 20, refuses; the squeeze and Stirling test, taken from 21, accepts
    (1000, 0.4, 0.891999, 0.33803, None),  # y = 420
    (1000, 0.4, 0.732064, 0.4249, None),  # y = 380
    (1000, 0.4, 0.895997, 0.3184, (421, 2)),
    (1000, 0.4, 0.728066, 0.40247, (379, 2)),
    (1000, 0.6, 0.895997, 0.3184, (579, 2)),  # p > 1/2 draws n - binomial(n, 1 - p)
]


@pytest.mark.parametrize("n, p, u1, u2, want", _FORGED)
def test_binomial_matches_numpy_from_forged_states(n, p, u1, u2, want):
    state, inc = _forged(u1, u2)
    probe, _ = _at(state, inc)
    assert [probe.random(), probe.random()] == [int(u1 * 2**53) / 2**53, int(u2 * 2**53) / 2**53]
    mine, gen = _at(state, inc)
    got = mine.binomial(n, p)
    assert got == int(gen.binomial(n, p))
    assert (mine.state, mine.inc) == _numpy_state(gen)
    steps = [(state * _MULT + inc) & _M128]
    steps.append((steps[0] * _MULT + inc) & _M128)
    if want is None:
        assert mine.state not in steps
    else:
        assert (got, mine.state) == (want[0], steps[want[1] - 1])
