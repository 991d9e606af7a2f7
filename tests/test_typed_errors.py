"""A ratchet on untyped raises in `src/llp_lab`.

ROADMAP item 4 aims for typed errors at every boundary: bad input raises an
`LlpError` subclass (`InvalidParams` is also a `ValueError`, for callers
that catch one).  Each module's count of `raise ValueError` and
`raise TypeError` may fall but never rise above its ceiling here; lower the
ceiling when a change types more of them.  The JSON decoders are fuzzed: on
any input each returns a value or raises a typed error.
"""

import ast
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings

import llp_lab
import wire_values as wv
from llp_lab import (
    ClassDescriptor,
    ConsistencyInstance,
    EPSCInstance,
    FiniteSubset,
    LlpError,
    NoisyParitySetup,
    Parity,
    Sample,
    UniformCube,
    X3CInstance,
    brute_subset_sum,
    class_descriptor_from_json,
    class_descriptor_to_json,
    conditional_positive_distribution,
    config_from_json,
    derive_seed,
    config_to_json,
    distribution_from_json,
    distribution_to_json,
    draw_labeled_points,
    draw_sample,
    evaluate,
    hypothesis_from_json,
    hypothesis_to_json,
    make_brute_oracle,
    make_distribution,
    noisy_parity_uniform_learner,
    noisy_parity_via_llp,
    parse_rational,
    point_from_json,
    point_to_json,
    rational_from_json,
    rational_to_json,
    report_from_json,
    report_to_json,
    reweighted_distribution,
    sample_from_json,
    sample_to_json,
    task_from_json,
    task_to_json,
)
from llp_lab.core import (
    COUNT_DRAW_MIN,
    _coin_flips,
    _cut_draws,
    _cut_table,
    _draw,
    _draw_cube,
    _draw_packed,
    _draw_small,
    _pack,
    _sample_packed,
    check_same_domain,
)
from llp_lab._pcg64 import PCG64
from llp_lab.bounds import (
    gap_sample_size,
    hoeffding_sample_size,
    uniform_convergence_bound,
    uniform_convergence_sample_size,
)
from llp_lab.errors import InvalidParams, MalformedEncoding
from llp_lab.oracles import erm_oracle_sample_size

# modules not named here have a ceiling of 0
CEILINGS = {"core": 2, "hypotheses": 15, "learners": 0}
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


def test_bad_points_raise_invalid_params_and_bools_are_not_bits():
    calls = [
        lambda: evaluate(Parity((1, 0)), (True, False)),
        lambda: Sample(((True, False),), 0),
        lambda: Sample(((1, 2),), 0),
        lambda: Sample(((),), 0),
        lambda: Sample((True,), 0),
        lambda: Sample((-1,), 0),
        lambda: check_same_domain([(0, 1), (1, True)]),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="not a valid") as raised:
            call()
        assert isinstance(raised.value, ValueError)
    assert evaluate(Parity((1, 0)), (1, 0)) == 1


def test_negative_draw_sizes_raise_invalid_params():
    one = make_distribution([(3, 1)])
    two = make_distribution([(3, F(1, 3)), (5, F(2, 3))])
    calls = [
        lambda: _draw_packed(one.weighted.packed_counts, one.weighted.m, -1, 0),
        lambda: _draw_packed(two.weighted.packed_counts, two.weighted.m, -1, 0),
        lambda: _draw_small(two, -1, 0),
        lambda: _draw_cube(3, -1, 0),
        lambda: _coin_flips(F(1, 2), -1, random.Random(0)),
        lambda: _cut_draws([0.5], _cut_table([0.5]), -1, random.Random(0)),
        lambda: draw_labeled_points(two, -1, 0, FiniteSubset((3,))),
        lambda: draw_labeled_points(UniformCube(3), -1, 0, Parity((1, 0, 1))),
    ]
    for call in calls:
        with pytest.raises(InvalidParams, match="m must be >= 0") as raised:
            call()
        assert isinstance(raised.value, ValueError)


# every draw route: the byte and wide cube draws, the byte-table, bisecting
# (255 atoms or more) and binomial draws of an explicit distribution, and m = 0
_NATS = make_distribution([(3, F(1, 3)), (5, F(2, 3))])
_WIDE = make_distribution([(x, F(1, 300)) for x in range(300)])
_ROUTES = [
    (UniformCube(3), 10, Parity((1, 0, 1))),
    (UniformCube(40), 10, Parity((1,) * 40)),
    (_NATS, 10, FiniteSubset((3,))),
    (_WIDE, 10, FiniteSubset((3,))),
    (_NATS, COUNT_DRAW_MIN, FiniteSubset((3,))),
    (_NATS, 0, FiniteSubset((3,))),
    (UniformCube(3), 0, Parity((1, 0, 1))),
]


@pytest.mark.parametrize("seed", [-1, -5, 3.0, "3", True, False, None, 2.0**64])
def test_every_draw_route_refuses_a_seed_that_is_not_an_int_at_least_0(seed):
    # random.Random would draw for -5 what it draws for 5, and would take a float, a str or None
    for dist, m, target in _ROUTES:
        calls = [
            lambda: _draw(dist, m, seed),
            lambda: draw_sample(dist, m, seed, target),
            lambda: draw_labeled_points(dist, m, seed, target),
        ]
        for call in calls:
            with pytest.raises(InvalidParams, match="seed must be an int >= 0") as raised:
                call()
            assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("seed", [-1, 3.0, "3", True, False, None, 2.0**64, F(3)])
def test_pcg64_refuses_a_seed_that_is_not_an_int_at_least_0(seed):
    # a bool once seeded as 0 or 1, and a float raised an untyped TypeError
    with pytest.raises(InvalidParams, match="seed must be an int >= 0") as raised:
        PCG64(seed)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("part", [True, False, 1.0, None, F(1, 2), b"a", (1,), ["a"]])
def test_derive_seed_refuses_a_part_that_is_not_an_int_or_a_str(part):
    # a bool once hashed as "True" or "False", and any object as its str
    for parts in ((part,), (1, part), (part, "a")):
        with pytest.raises(InvalidParams, match="seed parts must be ints or strs") as raised:
            derive_seed(*parts)
        assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize("dist, m, target", _ROUTES)
def test_every_draw_route_takes_an_int_seed_at_least_0(dist, m, target):
    for seed in (0, 5, 2**64, 2**200):
        points, labels = draw_labeled_points(dist, m, seed, target)
        assert draw_sample(dist, m, seed, target).m == len(points) == len(labels) == m
        if not isinstance(dist, UniformCube):
            assert sum(c for _, c in _draw_packed(dist.weighted.packed_counts, dist.weighted.m, m, seed)) == m


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
        (((0, 1), 3), (1, 1), 0),  # mixed domains were sorted first, a TypeError
    ],
)
def test_consistency_instance_checks_raise_invalid_params(points, mults, k):
    with pytest.raises(InvalidParams) as raised:
        ConsistencyInstance(ClassDescriptor("finite_subset", 2, ground_set=(1, 2)), points, mults, k)
    assert isinstance(raised.value, ValueError)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: X3CInstance((1, 2), ()), "universe must be distinct ints, of size 3t"),
        (lambda: X3CInstance((1, 2, 3), (frozenset({1, 2}),)), "is not a 3-subset"),
        (lambda: EPSCInstance((), (), 0), "universe must be nonempty"),
        (lambda: EPSCInstance((1, 2), (frozenset({3}),), 1), "not inside the universe"),
        (lambda: EPSCInstance((1, 2), (), "1"), "k must be an integer"),
    ],
)
def test_cover_instance_checks_raise_invalid_params(build, match):
    with pytest.raises(InvalidParams, match=match) as raised:
        build()
    assert isinstance(raised.value, ValueError)


def test_conflicting_labels_raise_invalid_params():
    with pytest.raises(InvalidParams, match="appears with both labels") as raised:
        reweighted_distribution([((0, 1), 1), ((0, 1), 0)])
    assert isinstance(raised.value, ValueError)


def test_conditioning_on_the_trivial_parity_raises_invalid_params():
    setup = NoisyParitySetup(3, Parity((0, 0, 0)), F(1, 10), F(1, 5))
    with pytest.raises(InvalidParams, match="trivial parity") as raised:
        conditional_positive_distribution(setup)
    assert isinstance(raised.value, ValueError)


# each decoder with the encoder and values whose encodings the fuzz test changes
DECODERS = {
    "point_from_json": (point_from_json, point_to_json, wv.points),
    "rational_from_json": (rational_from_json, rational_to_json, wv.rationals),
    # a rational as a string or as a {num, den} object
    "parse_rational": (parse_rational, lambda q: str(q) if q.denominator % 2 else rational_to_json(q), wv.rationals),
    "distribution_from_json": (distribution_from_json, distribution_to_json, wv.distributions),
    "sample_from_json": (sample_from_json, sample_to_json, wv.samples),
    "class_descriptor_from_json": (class_descriptor_from_json, class_descriptor_to_json, wv.descriptors),
    "hypothesis_from_json": (hypothesis_from_json, hypothesis_to_json, wv.hypotheses),
    "task_from_json": (task_from_json, task_to_json, wv.tasks),
    "config_from_json": (config_from_json, config_to_json, wv.configs),
    "report_from_json": (report_from_json, report_to_json, wv.reports),
    "X3CInstance.from_json": (X3CInstance.from_json, X3CInstance.to_json, wv.x3c_instances),
    "EPSCInstance.from_json": (EPSCInstance.from_json, EPSCInstance.to_json, wv.epsc_instances),
    "ConsistencyInstance.from_json": (ConsistencyInstance.from_json, ConsistencyInstance.to_json, wv.consistency_instances),
}


@pytest.mark.parametrize("name", DECODERS)
def test_decoders_return_a_value_or_raise_a_typed_error(name):
    # every decoder here once leaked KeyError, TypeError or AttributeError
    decode, encode, values = DECODERS[name]

    @settings(max_examples=300, deadline=None)
    @given(wv.json_trees | wv.one_field_changed(values.map(encode)))
    def check(obj):
        try:
            decode(obj)
        except (LlpError, ValueError):
            pass
        except TypeError as exc:  # the one untyped refusal left: a float where a rational belongs
            assert "is a float; pass a string for exactness" in str(exc)

    check()


@pytest.mark.parametrize(
    "name, obj",
    [
        ("class_descriptor_from_json", {"class_id": "parity", "n": True}),
        ("class_descriptor_from_json", {"class_id": "finite_subset", "n": 1, "ground_set": [False, True]}),
        ("hypothesis_from_json", {"kind": "window", "k": True, "elems": [1]}),
        ("hypothesis_from_json", {"kind": "monotone_disjunction", "n": True, "vars": [1]}),
        ("hypothesis_from_json", {"kind": "finite_subset", "elems": [False, True]}),
    ],
)
def test_decoders_refuse_a_bool_where_an_int_belongs(name, obj):
    # each once decoded, as the int the bool stands for
    with pytest.raises(ValueError):
        DECODERS[name][0](obj)


@pytest.mark.parametrize("bits", ["01x", "", "0 1", "2", 101, None])
def test_malformed_bit_strings_raise_malformed_encoding(bits):
    # a bad bit string once raised a bare ValueError from every decoder that reads one
    calls = [
        lambda: point_from_json({"bits": bits}),
        lambda: sample_from_json({"points": [{"bits": "01"}, {"bits": bits}], "p_hat_num": 0, "p_hat_den": 1}),
        lambda: hypothesis_from_json({"kind": "parity", "mask": bits}),
    ]
    for call in calls:
        with pytest.raises(MalformedEncoding) as raised:
            call()
        assert isinstance(raised.value, ValueError)


def test_a_trials_config_refuses_a_bool_dimension():
    obj = {
        "learner": "erm", "epsilon": "1/10", "delta": "1/10", "trials": 2, "seed": 3, "m": 4,
        "distribution": {"kind": "uniform_cube", "n": 1}, "class": {"class_id": "parity", "n": True},
    }
    with pytest.raises(ValueError, match="bad dimension True"):
        config_from_json(obj)


_PARITY_3 = ClassDescriptor("parity", 3)


@pytest.mark.parametrize(
    "call",
    [
        # each once leaked ZeroDivisionError (a square that underflows to 0),
        # OverflowError (a size past the largest double) or, for a positive
        # gap, ZeroGap
        lambda: hoeffding_sample_size(F(1, 10**170), F(1, 10)),
        lambda: hoeffding_sample_size(F(1, 10**160), F(1, 10)),
        lambda: hoeffding_sample_size(F(1, 10), 1e-309),
        lambda: hoeffding_sample_size(F(10**400), F(1, 10)),
        lambda: gap_sample_size(F(1, 10**170), F(1, 10)),
        lambda: gap_sample_size(F(1, 10**160), F(1, 10)),
        lambda: gap_sample_size(F(1, 10**400), F(1, 10)),
        lambda: uniform_convergence_sample_size(2, F(1, 10**160), F(1, 10)),
        lambda: uniform_convergence_bound(1, 10**400, F(1, 10)),
        lambda: erm_oracle_sample_size(_PARITY_3, F(1, 10**170), F(1, 10)),
        lambda: erm_oracle_sample_size(_PARITY_3, F(1, 10**160), F(1, 10)),
        lambda: erm_oracle_sample_size(_PARITY_3, 1e200, F(1, 10)),
        lambda: erm_oracle_sample_size(ClassDescriptor("parity", 1100), F(1, 10), F(1, 10)),
    ],
)
def test_sample_sizes_that_do_not_fit_a_double_raise_invalid_params(call):
    with pytest.raises(InvalidParams):
        call()


def test_a_report_with_more_or_fewer_rows_than_trials_does_not_decode():
    report = {
        "config": {
            "learner": "improper", "epsilon": "1/10", "delta": "1/10", "trials": 3, "seed": 1, "m": 4,
            "distribution": {"kind": "uniform_cube", "n": 1}, "target": {"kind": "parity", "mask": "1"},
        },
        "rows": [],
    }
    # it once decoded, and encoding it again raised ZeroDivisionError
    with pytest.raises(MalformedEncoding, match="a report of 3 trials needs 3 rows, got 0"):
        report_from_json(report)
    row = {"trial": 0, "seed": 2, "p_c": "1/2", "p_h": "1/2", "residual": "0", "success": True, "ms": 0, "error": None}
    # a short or a long one once decoded, and its aggregate reported its row count, not the config's 3 trials
    for count in (1, 2, 4):
        report["rows"] = [dict(row, trial=t) for t in range(count)]
        with pytest.raises(MalformedEncoding, match=f"a report of 3 trials needs 3 rows, got {count}"):
            report_from_json(report)
    report["rows"] = [dict(row, trial=t) for t in range(3)]
    decoded = report_from_json(report)
    assert len(decoded.rows) == decoded.config.trials == 3
    assert report_to_json(decoded)["aggregate"]["successes"] == 3
