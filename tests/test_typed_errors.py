"""A ratchet on untyped raises in `src/llp_lab`.

ROADMAP item 4 aims for typed errors at every boundary: bad input raises an
`LlpError` subclass (`InvalidParams` is also a `ValueError`, for callers
that catch one).  Each module's count of `raise ValueError` and
`raise TypeError` may fall but never rise above its ceiling here; lower the
ceiling when a change types more of them.
"""

import ast
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import llp_lab
from llp_lab import (
    ClassDescriptor,
    ConsistencyInstance,
    NoisyParitySetup,
    Parity,
    Sample,
    UniformCube,
    brute_subset_sum,
    draw_points,
    make_brute_oracle,
    make_distribution,
    noisy_parity_uniform_learner,
    noisy_parity_via_llp,
)
from llp_lab.core import _coin_flips, _draw_cube, _draw_small, _pack, _sample_packed, check_same_domain, draw_counts
from llp_lab.errors import InvalidParams
from llp_lab.oracles import erm_oracle_sample_size

# modules not named here have a ceiling of 0
CEILINGS = {"core": 10, "hypotheses": 28, "reductions": 8, "oracles": 1, "learners": 0}
UNTYPED = ("ValueError", "TypeError")


def _untyped_raises(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id in UNTYPED
    return count


def test_the_count_reads_raise_statements_only():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise TypeError\n"
        "# raise ValueError in a comment\n"
        "s = 'raise TypeError in a string'\n"
        "def g():\n"
        "    raise InvalidParams('typed')\n"
    )
    assert _untyped_raises(source) == 2


def test_untyped_raises_do_not_rise():
    modules = sorted(Path(llp_lab.__file__).parent.glob("*.py"))
    assert {p.stem for p in modules} >= set(CEILINGS)
    counts = {p.stem: _untyped_raises(p.read_text()) for p in modules}
    over = {name: (n, CEILINGS.get(name, 0)) for name, n in counts.items() if n > CEILINGS.get(name, 0)}
    assert not over, f"untyped raises above their ceiling (count, ceiling): {over}"


def test_oracle_and_learner_input_checks_raise_invalid_params():
    desc = ClassDescriptor("parity", 3)
    calls = [
        lambda: erm_oracle_sample_size(desc, 0, F(1, 10)),
        lambda: erm_oracle_sample_size(desc, F(1, 10), 1),
        lambda: make_brute_oracle(desc, "lenient"),
        lambda: brute_subset_sum([0], 1),
        lambda: brute_subset_sum([1], -1),
        lambda: noisy_parity_uniform_learner(F(3, 2), F(1, 10), 3),
    ]
    for call in calls:
        with pytest.raises(InvalidParams) as raised:
            call()
        assert isinstance(raised.value, ValueError)


def test_negative_draw_sizes_raise_invalid_params():
    one = make_distribution([(3, 1)])
    two = make_distribution([(3, F(1, 3)), (5, F(2, 3))])
    calls = [
        lambda: draw_counts(one, -1, 0),
        lambda: draw_counts(two, -1, 0),
        lambda: _draw_small(two, -1, 0),
        lambda: _draw_cube(3, -1, 0),
        lambda: _coin_flips(F(1, 2), -1, random.Random(0)),
        lambda: draw_points(two, -1, 0),
        lambda: draw_points(UniformCube(3), -1, 0),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="m must be >= 0") as raised:
            call()
        assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize(
    "points, p_hat",
    [((1, 2, 3), F(1, 2)), ((1,), F(3, 2)), ((1,), F(-1)), ((), F(1)), ((), F(1, 2)), ([(0, 1), (1, 1)], "1/3")],
)
def test_sample_p_hat_checks_raise_invalid_params(points, p_hat):
    # Sample and the trusted constructor share one check
    domain = check_same_domain(points)
    packed = tuple(sorted(Counter(map(_pack, points)).items()))
    for call in (lambda: Sample(points, p_hat), lambda: _sample_packed(domain, packed, len(points), p_hat)):
        with pytest.raises(InvalidParams, match="invalid for m=") as raised:
            call()
        assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("m", [0, -1])
def test_noisy_parity_needs_one_example(m):
    setup = NoisyParitySetup(3, Parity((1, 0, 1)), F(1, 10), F(1, 5))
    oracle = make_brute_oracle(ClassDescriptor("parity", 3))
    with pytest.raises(InvalidParams, match="m >= 1") as raised:
        noisy_parity_via_llp(setup, m, oracle, F(1, 10), 0)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize(
    "points, mults, k",
    [
        ((1, 2), (1,), 0),
        ((), (), 0),
        ((2, 1), (1, 1), 0),
        ((1, 1), (1, 1), 0),
        ((1, 2), (0, 1), 0),
        ((1, 2), (F(3, 2), 2), 1),
        ((1, 2), (1.5, 2), 1),
        ((1, 2), (F(2), 2), 1),
        ((1, 2), (True, 2), 1),
        ((1, 2), (1, 2), F(1)),
    ],
)
def test_consistency_instance_checks_raise_invalid_params(points, mults, k):
    with pytest.raises(InvalidParams) as raised:
        ConsistencyInstance(ClassDescriptor("finite_subset", 2, ground_set=(1, 2)), points, mults, k)
    assert isinstance(raised.value, ValueError)
