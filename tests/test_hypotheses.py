"""Hypothesis classes: evaluation, encodings, enumeration, labelings."""

import ast
import math
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from llp_lab import (
    BudgetExceeded,
    CLASS_IDS,
    ClassDescriptor,
    ConstantRandom,
    FiniteSubset,
    Halfspace,
    InfiniteClass,
    InvalidParams,
    LlpError,
    MalformedEncoding,
    MonotoneConjunction,
    MonotoneDisjunction,
    NotAHypothesis,
    Parity,
    Sample,
    Window,
    class_descriptor_from_json,
    class_descriptor_to_json,
    class_domain,
    class_size,
    decode,
    distinct_labelings,
    domain_kind,
    encode,
    encoding_size,
    enumerate_class,
    evaluate,
    hypothesis_from_json,
    hypothesis_to_json,
    iter_cube,
    positive_count,
    random_hypothesis,
    ranking_key,
    sauer_bound,
    vc_dimension,
)
from llp_lab import hypotheses as hypotheses_module
from llp_lab.core import _pack
from llp_lab.hypotheses import INFINITE_VC, _var_mask, labeler, positive_weight
from test_point_form import _tuple_points
from wire_values import descriptors, hypotheses


def test_parity_evaluation_by_hand():
    assert evaluate(Parity((1, 0, 1)), (1, 1, 1)) == 0
    assert evaluate(Parity((1, 0, 1)), (1, 1, 0)) == 1


def test_empty_disjunction_is_false_everywhere():
    h = MonotoneDisjunction(3, ())
    assert all(evaluate(h, x) == 0 for x in [(0, 0, 0), (1, 1, 1)])


def test_empty_conjunction_is_true_everywhere():
    h = MonotoneConjunction(3, ())
    assert all(evaluate(h, x) == 1 for x in [(0, 0, 0), (1, 1, 1)])


def test_disjunction_and_conjunction_semantics():
    x = (1, 0, 1)
    assert evaluate(MonotoneDisjunction(3, (2,)), x) == 0
    assert evaluate(MonotoneDisjunction(3, (2, 3)), x) == 1
    assert evaluate(MonotoneConjunction(3, (1, 3)), x) == 1
    assert evaluate(MonotoneConjunction(3, (1, 2)), x) == 0


def test_finite_subset_membership():
    h = FiniteSubset((5, 9))
    assert evaluate(h, 5) == 1 and evaluate(h, 9) == 1 and evaluate(h, 12) == 0


def test_halfspace_strict_comparison():
    h = Halfspace((F(1), F(1)), F(1))
    assert evaluate(h, (1, 1)) == 1
    assert evaluate(h, (1, 0)) == 0  # exactly on the boundary is negative


def test_constant_random_seeded_evaluation():
    assert evaluate(ConstantRandom(F(1)), 3, random.Random(0)) == 1
    assert evaluate(ConstantRandom(F(0)), 3, random.Random(0)) == 0
    hp = ConstantRandom(F(1, 2))
    assert evaluate(hp, 3, random.Random(7)) == evaluate(hp, 3, random.Random(7))


def test_parity_linearity():
    rng = random.Random(0)
    n = 10
    for _ in range(1000):
        a = Parity(tuple(rng.randint(0, 1) for _ in range(n)))
        x = tuple(rng.randint(0, 1) for _ in range(n))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        xy = tuple(xi ^ yi for xi, yi in zip(x, y))
        assert evaluate(a, xy) == evaluate(a, x) ^ evaluate(a, y)


def test_window_span_constraint_enforced():
    Window(2, (3, 5))
    with pytest.raises(ValueError):
        Window(2, (3, 6))


@given(st.sets(st.integers(min_value=1, max_value=40), max_size=6), st.integers(min_value=0, max_value=10))
def test_window_construction_matches_span_check(elems, k):
    elems = tuple(sorted(elems))
    feasible = not elems or elems[-1] - elems[0] <= k
    if feasible:
        assert Window(k, elems).elems == elems
    else:
        with pytest.raises(ValueError):
            Window(k, elems)


def test_vc_dimension_values():
    assert vc_dimension(ClassDescriptor("parity", 10, restriction=3)) == 3
    assert vc_dimension(ClassDescriptor("parity", 10)) == 10
    assert vc_dimension(ClassDescriptor("window", 5, k=7)) == 7
    assert vc_dimension(ClassDescriptor("monotone_disjunction", 5)) == 5
    assert vc_dimension(ClassDescriptor("monotone_conjunction", 4)) == 4
    assert vc_dimension(ClassDescriptor("halfspace", 6)) == 7
    assert vc_dimension(ClassDescriptor("finite_subset", 1)) is INFINITE_VC


def test_enumerate_parities_n2():
    hs = list(enumerate_class(ClassDescriptor("parity", 2)))
    assert sorted(h.mask for h in hs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_disjunctions_n3():
    hs = list(enumerate_class(ClassDescriptor("monotone_disjunction", 3)))
    assert len(hs) == 8
    assert len(set(hs)) == 8


def test_enumerate_finite_subsets_over_ground_set():
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2, 3))
    hs = list(enumerate_class(desc))
    assert len(hs) == 8
    assert class_size(desc) == 8


def _window_size_loop(n, k):
    """The window class's size as a loop over least elements: the reference."""
    top, total = 2**n, 1  # the empty window
    for v in range(1, top + 1):
        total += 2 ** (min(v + k, top) - v)
    return total


def test_window_size_closed_form_matches_the_loop():
    for n in range(1, 11):
        for k in range(13):
            assert class_size(ClassDescriptor("window", n, k=k)) == _window_size_loop(n, k), (n, k)
    assert [len(list(enumerate_class(ClassDescriptor("window", 2, k=k)))) for k in range(6)] == [
        _window_size_loop(2, k) for k in range(6)
    ]


def test_window_class_past_its_budget_is_refused_at_once():
    # sized in closed form: no loop over the 2^40 least elements before the refusal
    with pytest.raises(BudgetExceeded):
        enumerate_class(ClassDescriptor("window", 40, k=3), budget=10)


def test_enumerate_finite_subset_without_ground_set_fails():
    with pytest.raises(InfiniteClass):
        list(enumerate_class(ClassDescriptor("finite_subset", 1)))


def test_enumeration_is_sorted_by_encoding():
    for desc in [
        ClassDescriptor("parity", 3),
        ClassDescriptor("parity", 5, restriction=3),
        ClassDescriptor("monotone_disjunction", 3),
        ClassDescriptor("monotone_conjunction", 3),
        ClassDescriptor("finite_subset", 1, ground_set=(2, 5, 9)),
        ClassDescriptor("window", 2, k=2),
    ]:
        members = list(enumerate_class(desc))
        codes = [encode(h) for h in members]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes) == class_size(desc)
        # the class id's row and each member's kind agree on the domain
        assert {domain_kind(h)[0] for h in members} == {class_domain(desc)}
        rng = random.Random(7)
        assert {random_hypothesis(desc, rng) for _ in range(50)} <= set(members)


def test_restricted_parity_enumeration():
    desc = ClassDescriptor("parity", 6, restriction=2)
    hs = list(enumerate_class(desc))
    assert len(hs) == 4
    assert all(h.mask[2:] == (0, 0, 0, 0) for h in hs)


def test_a_parity_carries_its_packed_mask():
    # class members are built with it; constructed and decoded parities compute it on first read
    rng = random.Random(3)
    for n in range(1, 8):
        for restriction in (None, *range(n + 1)):
            desc = ClassDescriptor("parity", n, restriction=restriction)
            members = [*enumerate_class(desc), random_hypothesis(desc, rng)]
            sample = Sample(tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(5)), F(0))
            members += [witness for _, witness in distinct_labelings(desc, sample)]
            for h in members:
                assert h.packed == _pack(h.mask)
                for same in (Parity(h.mask), decode(encode(h)), hypothesis_from_json(hypothesis_to_json(h))):
                    assert "packed" not in vars(same) and same.packed == _pack(h.mask)
                    assert same == h and hash(same) == hash(h) and repr(same) == repr(h) == f"Parity(mask={h.mask!r})"


@pytest.mark.parametrize("kind", [MonotoneDisjunction, MonotoneConjunction])
def test_a_monotone_member_carries_its_packed_mask(kind):
    # class members are built with it; constructed, decoded, JSON-read and unpickled ones compute it on first read
    rng = random.Random(5)
    for n in range(1, 8):
        desc = ClassDescriptor(kind._name, n)
        members = [*enumerate_class(desc), random_hypothesis(desc, rng)]
        sample = Sample(tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(5)), F(0))
        members += [witness for _, witness in distinct_labelings(desc, sample)]
        for h in members:
            assert type(h) is kind and vars(h)["packed"] == _var_mask(n, h.vars)
            built = kind(n, h.vars)
            copies = (decode(encode(h)), hypothesis_from_json(hypothesis_to_json(h)), pickle.loads(pickle.dumps(built)))
            for same in (built, *copies):
                assert "packed" not in vars(same) and same.packed == _var_mask(n, h.vars)
                assert same == h and hash(same) == hash(h) and repr(same) == repr(h) == f"{kind.__name__}(n={n}, vars={h.vars!r})"
                assert hypothesis_to_json(same) == hypothesis_to_json(h)
            unpickled = pickle.loads(pickle.dumps(h))
            assert unpickled == h and hash(unpickled) == hash(h) and unpickled.packed == h.packed


def test_distinct_labelings_parity_dedupes():
    desc = ClassDescriptor("parity", 2)
    sample = Sample(((0, 0), (1, 1)), F(0))
    labelings = dict(distinct_labelings(desc, sample))
    # masks 00 and 11 both produce (0, 0) on these points; it appears once
    assert set(labelings) == {(0, 0), (0, 1)}


def test_distinct_labelings_disjunction_n1():
    desc = ClassDescriptor("monotone_disjunction", 1)
    sample = Sample(((0,), (1,)), F(0))
    labelings = dict(distinct_labelings(desc, sample))
    assert set(labelings) == {(0, 0), (0, 1)}
    assert labelings[(0, 1)] == MonotoneDisjunction(1, (1,))


def test_distinct_labelings_empty_sample():
    desc = ClassDescriptor("parity", 2)
    out = list(distinct_labelings(desc, Sample((), F(0))))
    assert len(out) == 1 and out[0][0] == ()


def test_distinct_labelings_witnesses_reproduce_labels():
    rng = random.Random(1)
    for class_id in ("parity", "monotone_disjunction", "monotone_conjunction"):
        desc = ClassDescriptor(class_id, 4)
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(6))
        sample = Sample(pts, F(0))
        uniq = sorted(set(pts))
        for labeling, witness in distinct_labelings(desc, sample):
            assert labeling == tuple(evaluate(witness, x) for x in uniq)


def test_distinct_labelings_first_witness_is_encoding_minimal():
    desc = ClassDescriptor("parity", 3)
    sample = Sample(((0, 0, 0), (1, 1, 0)), F(0))
    for labeling, witness in distinct_labelings(desc, sample):
        candidates = [
            h
            for h in enumerate_class(desc)
            if tuple(evaluate(h, x) for x in sorted(set(_tuple_points(sample)))) == labeling
        ]
        assert witness == min(candidates, key=encode)


def test_parity_labelings_match_generic_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        restriction = rng.choice([None, rng.randint(0, n)])
        desc = ClassDescriptor("parity", n, restriction=restriction)
        pts = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 8)))
        sample = Sample(pts, F(0))
        uniq = sorted(set(pts))
        via_gf2 = {lab for lab, _ in distinct_labelings(desc, sample)}
        via_enum = {tuple(evaluate(h, x) for x in uniq) for h in enumerate_class(desc)}
        assert via_gf2 == via_enum


def test_sauer_bound_caps_labelings():
    rng = random.Random(2)
    descs = [
        ClassDescriptor("parity", 4),
        ClassDescriptor("monotone_disjunction", 4),
        ClassDescriptor("monotone_conjunction", 4),
        ClassDescriptor("parity", 6, restriction=2),
    ]
    for _ in range(25):
        for desc in descs:
            m = rng.randint(1, 12)
            pts = tuple(tuple(rng.randint(0, 1) for _ in range(desc.n)) for _ in range(m))
            sample = Sample(pts, F(0))
            count = sum(1 for _ in distinct_labelings(desc, sample))
            d = vc_dimension(desc)
            u = len(set(pts))
            assert count <= (sauer_bound(d, u) if u >= d else 2**u)


def test_sauer_bound_formula():
    assert sauer_bound(2, 4) == pytest.approx((math.e * 4 / 2) ** 2)
    for d, m in [(0, 4), (3, 2)]:
        with pytest.raises(InvalidParams):
            sauer_bound(d, m)


def test_encode_decode_round_trip_random():
    rng = random.Random(3)
    descs = [
        ClassDescriptor("parity", 5),
        ClassDescriptor("monotone_disjunction", 5),
        ClassDescriptor("monotone_conjunction", 5),
        ClassDescriptor("finite_subset", 1, ground_set=tuple(range(1, 12))),
        ClassDescriptor("window", 4, k=4),
    ]
    for desc in descs:
        for _ in range(200):
            h = random_hypothesis(desc, rng)
            assert decode(encode(h)) == h
            assert encoding_size(h) == len(encode(h))
    for _ in range(200):
        n = rng.randint(1, 4)
        h = Halfspace(
            tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)),
            F(rng.randint(-20, 20), rng.randint(1, 9)),
        )
        assert decode(encode(h)) == h
    cr = ConstantRandom(F(3, 7))
    assert decode(encode(cr)) == cr


def test_encode_parity_is_tag_plus_mask():
    code = encode(Parity((1, 0, 1)))
    assert code.endswith("101")
    assert set(code) <= {"0", "1"}


def test_decode_rejects_malformed():
    with pytest.raises(MalformedEncoding):
        decode("")
    with pytest.raises(MalformedEncoding):
        decode(encode(Parity((1, 0, 1)))[:3])  # tag with an empty mask
    with pytest.raises(MalformedEncoding):
        decode("2" + encode(Parity((1, 0, 1))))
    with pytest.raises(MalformedEncoding):
        decode(encode(Window(3, (2, 4)))[:-1])  # truncated varint list
    with pytest.raises(MalformedEncoding):
        decode(encode(Halfspace((F(1, 3),), F(2))) + "01")  # trailing bits


def test_ranking_key_orders_residual_then_count_then_encoding():
    a = ranking_key(F(0), 1, Parity((0, 1)))
    b = ranking_key(F(0), 2, Parity((0, 1)))
    c = ranking_key(F(1, 2), 0, Parity((0, 0)))
    assert a < b < c
    d = ranking_key(F(0), 1, Parity((1, 0)))
    assert (a < d) == (encode(Parity((0, 1))) < encode(Parity((1, 0))))


def test_class_descriptor_validation():
    with pytest.raises(ValueError):
        ClassDescriptor("parity", 3, restriction=4)
    with pytest.raises(ValueError):
        ClassDescriptor("no_such_class", 3)
    assert "constant_random" not in CLASS_IDS


@given(descriptors)
@example(ClassDescriptor("parity", 6, restriction=2))
@example(ClassDescriptor("window", 3, k=3))
@example(ClassDescriptor("finite_subset", 1, ground_set=(1, 5, 7)))
@example(ClassDescriptor("halfspace", 4))
def test_class_descriptor_json_round_trip(desc):
    assert class_descriptor_from_json(class_descriptor_to_json(desc)) == desc


@given(hypotheses)
@example(Parity((1, 0, 1)))
@example(MonotoneDisjunction(3, (1, 3)))
@example(MonotoneConjunction(2, ()))
@example(FiniteSubset((3, 7)))
@example(Window(4, (2, 5)))
@example(Halfspace((F(1, 3), F(-2)), F(1, 7)))
@example(ConstantRandom(F(3, 7)))
def test_hypothesis_json_round_trip(h):
    assert hypothesis_from_json(hypothesis_to_json(h)) == h


# one hypothesis of each kind, and the points of a small domain it lives on
KINDS = [
    Parity((1, 0, 1)),
    MonotoneDisjunction(3, (1, 3)),
    MonotoneConjunction(3, (2, 3)),
    FiniteSubset((2, 5, 7)),
    Window(3, (4, 6, 7)),
    Halfspace((F(1, 2), F(-1), F(2, 3)), F(1, 3)),
    ConstantRandom(F(1, 3)),
]


@pytest.mark.parametrize("h", KINDS, ids=lambda h: type(h).__name__)
def test_each_kind_labels_alike_and_its_fronts_refuse_a_non_hypothesis(h):
    domain = domain_kind(h)
    if isinstance(h, ConstantRandom):
        with pytest.raises(InvalidParams):
            evaluate(h, (0, 1))  # no rng
        with pytest.raises(InvalidParams):
            labeler(h, ("bits", 2))
    else:
        points = list(iter_cube(domain[1])) if domain[0] == "bits" else list(range(12))
        label = labeler(h, domain)
        assert [int(label(_pack(x))) for x in points] == [evaluate(h, x) for x in points]
    fake = hypothesis_to_json(h)  # a hypothesis's JSON form is not a hypothesis
    sample = Sample((1, 2), F(1, 2))
    fronts = [
        lambda: domain_kind(fake),
        lambda: evaluate(fake, 1),
        lambda: labeler(fake, None),
        lambda: positive_weight(fake, None, []),
        lambda: positive_count(fake, sample),
        lambda: encode(fake),
        lambda: encoding_size(fake),
        lambda: ranking_key(F(0), 0, fake),
        lambda: hypothesis_to_json(fake),
    ]
    for front in fronts:
        with pytest.raises(NotAHypothesis, match="not a hypothesis") as raised:
            front()
        assert isinstance(raised.value, LlpError) and isinstance(raised.value, TypeError)


def test_a_parity_mask_refuses_bools():
    # True once passed the 0/1 check and encoded as "000TrueFalse"
    with pytest.raises(ValueError, match="bad parity mask"):
        Parity((True, False))


def test_constant_random_reads_p_as_a_rational():
    assert ConstantRandom("1/3").p == F(1, 3)
    assert ConstantRandom(1).p == F(1)
    with pytest.raises(TypeError, match="is a float"):
        ConstantRandom(0.1)
    with pytest.raises(InvalidParams):
        ConstantRandom(True)


def test_no_match_statement_in_hypotheses():
    # a new kind joins its class and a new class id its row, not a new branch
    tree = ast.parse(Path(hypotheses_module.__file__).read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Match)]


def test_no_kind_test_for_the_baseline_outside_hypotheses():
    # what the randomized baseline needs is on its kind class (`_bias`), not an isinstance in its callers
    found = []
    for path in Path(hypotheses_module.__file__).parent.glob("*.py"):
        if path.name == "hypotheses.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                if "ConstantRandom" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found
