"""The standard-library PCG64 binomial against numpy's, draw for draw and state for state.

`_pcg64.PCG64(seed)` must reproduce `numpy.random.Generator(PCG64(seed))`:
the seeded state and increment, every uniform double, and every binomial
together with the generator state it leaves.  numpy is a test-only
dependency; it stays here as the reference.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab._pcg64 import PCG64

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
def test_seeding_and_uniforms_match_numpy(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    mine = PCG64(seed)
    assert (mine.state, mine.inc) == _numpy_state(gen)
    assert [mine.random() for _ in range(5)] == gen.random(5).tolist()
    assert (mine.state, mine.inc) == _numpy_state(gen)
