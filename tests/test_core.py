"""Distributions, samples, seeded draws, and rational plumbing."""

import dataclasses
import hashlib
import importlib
import inspect
import pickle
import pkgutil
import types
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import llp_lab
from llp_lab import (
    COUNT_DRAW_MIN,
    DomainMismatch,
    DuplicateSupportPoint,
    EmptySupport,
    FiniteSubset,
    NonPositiveWeight,
    Parity,
    Sample,
    UniformCube,
    UnsupportedRecord,
    WeightsDoNotSumToOne,
    derive_seed,
    distribution_from_json,
    distribution_to_json,
    draw_counts,
    draw_points,
    draw_sample,
    make_distribution,
    normalized,
    parse_rational,
    point_domain,
    point_from_json,
    point_to_json,
    sample_from_json,
    sample_to_json,
    support,
    uniform_over,
    weight_of,
)
from llp_lab.bounds import BoundReport
from llp_lab.core import _pack, _sample_packed, _unpack, _unpack_bits
from llp_lab.learners import LearnerOutcome
from llp_lab.oracles import BruteForceReport, make_brute_oracle
from llp_lab.reductions import (
    ConsistencyRun,
    NoisyParityRun,
    NoisyParitySetup,
    OracleCall,
    PacRun,
    Transcript,
)
from wire_values import (
    configs,
    consistency_instances,
    descriptors,
    distributions,
    epsc_instances,
    hypotheses,
    points,
    reports,
    rows,
    samples,
    tasks,
    x3c_instances,
)

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])


def _pack_counts(counts):
    """(point, count) pairs with each point packed; sorted pairs stay sorted."""
    return tuple((_pack(p), c) for p, c in counts)


def test_make_distribution_single_atom():
    dist = make_distribution([(1, F(1))])
    assert support(dist) == (1,)
    assert weight_of(dist, 1) == 1


def test_make_distribution_two_atoms():
    assert support(TWO_ATOM) == (1, 2)
    assert weight_of(TWO_ATOM, 1) == F(3, 10)
    assert weight_of(TWO_ATOM, 2) == F(7, 10)


def test_make_distribution_rejects_bad_total():
    with pytest.raises(WeightsDoNotSumToOne):
        make_distribution([(1, F(1, 2)), (2, F(1, 3))])


def test_make_distribution_rejects_empty():
    with pytest.raises(EmptySupport):
        make_distribution([])


def test_make_distribution_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        make_distribution([(1, F(0)), (2, F(1))])
    with pytest.raises(NonPositiveWeight):
        make_distribution([(1, F(-1, 2)), (2, F(3, 2))])


def test_make_distribution_rejects_duplicate_point():
    with pytest.raises(DuplicateSupportPoint):
        make_distribution([(1, F(1, 2)), (1, F(1, 2))])


def test_make_distribution_rejects_float_weight():
    with pytest.raises(TypeError):
        make_distribution([(1, 0.5), (2, 0.5)])


def test_normalized_scales_weights():
    dist = normalized([(1, 2), (2, 3)])
    assert weight_of(dist, 1) == F(2, 5)
    assert weight_of(dist, 2) == F(3, 5)


def test_uniform_over():
    dist = uniform_over([4, 7, 9])
    assert all(weight_of(dist, x) == F(1, 3) for x in (4, 7, 9))


def test_weight_of_missing_point_is_zero():
    assert weight_of(TWO_ATOM, 3) == 0


def test_sample_p_hat_must_be_multiple_of_inverse_m():
    Sample((1, 2, 3), F(1, 3))
    with pytest.raises(ValueError):
        Sample((1, 2, 3), F(1, 2))


def test_sample_rejects_float_p_hat():
    with pytest.raises(TypeError):
        Sample((1, 2), 0.5)


def test_sample_rejects_mixed_domains():
    with pytest.raises(DomainMismatch):
        Sample((1, (0, 1)), F(0))


def test_empty_sample():
    s = Sample((), F(0))
    assert s.counts == ()
    with pytest.raises(ValueError):
        Sample((), F(1))


def test_sample_counts_aggregate_with_multiplicity():
    s = Sample((5, 9, 5, 12), F(1, 2))
    assert s.counts == ((5, 2), (9, 1), (12, 1))


def test_point_domain():
    assert point_domain(3) == ("nat", None)
    assert point_domain((0, 1, 0)) == ("bits", 3)


def _unpack_bits_reference(value, n):
    """The per-bit unpacking `_unpack_bits` replaced: bit n - 1 - i of value is coordinate i + 1."""
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def test_unpack_bits_matches_the_per_bit_reference():
    # zero, all ones, the high bit alone and with the low bit, and alternating bits, for n = 0..70
    for n in range(71):
        values = {0, 2**n - 1}
        if n:
            values |= {2 ** (n - 1), 2 ** (n - 1) | 1, (2**n - 1) // 3, 2**n - 1 - (2**n - 1) // 3}
        for value in sorted(values):
            bits = _unpack_bits(value, n)
            assert type(bits) is tuple and all(type(b) is int for b in bits)
            assert bits == _unpack_bits_reference(value, n), (value, n)
            assert _pack(bits) == value


def test_draw_sample_constant_zero_target_gives_zero_p_hat():
    s = draw_sample(TWO_ATOM, 5, seed=11, target=FiniteSubset(()))
    assert s.p_hat == 0
    assert len(s.points) == 5


def test_draw_sample_single_atom_forces_outcome():
    dist = make_distribution([(1, F(1))])
    s = draw_sample(dist, 4, seed=3, target=FiniteSubset((1,)))
    assert s.points == (1, 1, 1, 1)
    assert s.p_hat == 1


def test_draw_sample_p_hat_matches_replayed_labels():
    cube = UniformCube(8)
    target = Parity((0, 0, 0, 0, 0, 0, 0, 1))
    s = draw_sample(cube, 1000, seed=42, target=target)
    labeled = sum(x[-1] for x in s.points)
    assert s.p_hat == F(labeled, 1000)


def test_draw_sample_deterministic():
    a = draw_sample(TWO_ATOM, 50, seed=9, target=FiniteSubset((2,)))
    b = draw_sample(TWO_ATOM, 50, seed=9, target=FiniteSubset((2,)))
    assert a == b


def test_draw_points_seed_sensitivity():
    a = draw_points(TWO_ATOM, 30, seed=1)
    b = draw_points(TWO_ATOM, 30, seed=2)
    assert a != b


def test_draw_counts_matches_draw_points():
    # the bulk path must stay the law of the per-point path
    m = COUNT_DRAW_MIN
    counts = dict(draw_counts(TWO_ATOM, m, seed=5))
    assert sum(counts.values()) == m
    assert set(counts) <= {1, 2}
    assert all(c >= 1 for c in counts.values())
    pts = draw_points(TWO_ATOM, m, seed=5)
    assert {p: pts.count(p) for p in set(pts)} == counts


def test_derive_seed_is_stable_and_order_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed("a", 1)


@given(st.lists(st.integers() | st.text(max_size=8), max_size=5))
@example([])
@example([2001, "trial", 17])
def test_derive_seed_is_the_sha256_prefix(parts):
    # whichever module supplies the hash, the seed is hashlib's SHA-256 formula
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    assert derive_seed(*parts) == int.from_bytes(digest[:8], "big")


def test_parse_rational_forms():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(2) == F(2)
    assert parse_rational(F(1, 3)) == F(1, 3)
    assert parse_rational({"num": 7, "den": 9}) == F(7, 9)


def test_parse_rational_rejects_floats():
    with pytest.raises(TypeError):
        parse_rational(0.1)


@given(points)
@example(7)
@example((0, 1, 1))
def test_point_json_round_trip(p):
    assert point_from_json(point_to_json(p)) == p


@given(distributions)
@example(TWO_ATOM)
@example(UniformCube(6))
def test_distribution_json_round_trip(dist):
    assert distribution_from_json(distribution_to_json(dist)) == dist


@given(samples)
@example(draw_sample(TWO_ATOM, 10, seed=1, target=FiniteSubset((2,))))
def test_sample_json_round_trip(s):
    assert sample_from_json(sample_to_json(s)) == s


@given(st.integers(), st.integers(min_value=1))
def test_parse_rational_string_round_trip(num, den):
    q = F(num, den)
    assert parse_rational(str(q)) == q


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
def test_sample_counts_are_a_multiset_of_points(raw):
    p_hat = F(0)
    s = Sample(tuple(raw), p_hat)
    total = 0
    for point, count in s.counts:
        assert count == raw.count(point)
        total += count
    assert total == len(raw)


def test_empirical_deviation_hoeffding_scale():
    # mean |p_hat - p| over seeded draws stays within coin-flip noise
    target = FiniteSubset((2,))
    dev = F(0)
    runs = 200
    for seed in range(runs):
        s = draw_sample(TWO_ATOM, 500, seed=seed, target=target)
        dev += abs(s.p_hat - F(7, 10))
    assert dev / runs <= F(2, 100)


@st.composite
def _proportion_claims(draw):
    m = draw(st.integers(min_value=0, max_value=12))
    p_hat = draw(
        st.one_of(
            st.fractions(min_value=-1, max_value=2, max_denominator=30),
            st.integers(min_value=-1, max_value=2),
            st.integers(min_value=-2, max_value=2 * m + 2).map(lambda j: F(j, 2 * m) if m else F(j)),
        )
    )
    return m, p_hat


@given(_proportion_claims())
def test_sample_trusted_agrees_with_sample(case):
    # the integer check in the trusted constructor against Sample's own checks
    m, p_hat = case
    points = tuple(range(m))
    try:
        want = Sample(points, p_hat)
    except ValueError:
        want = None
    try:
        got = _sample_packed(("nat", None) if m else None, tuple((x, 1) for x in points), m, p_hat)
    except ValueError:
        got = None
    assert got == want
    assert got is None or got.domain == want.domain


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), max_size=12))
def test_sample_trusted_keeps_the_domain_and_packed_counts(points):
    points = tuple(points)
    want = Sample(points, F(0))
    got = _sample_packed(("bits", 3) if points else None, _pack_counts(want.counts), len(points), F(0))
    assert got.domain == want.domain == (("bits", 3) if points else None)
    assert got.packed_counts == want.packed_counts
    assert got.counts == want.counts


def test_comparing_and_printing_a_weighted_sample_builds_no_points():
    w = make_distribution([(1, F(1, 1000)), (2, F(999, 1000))]).weighted
    assert w == w
    assert w == make_distribution([(1, F(1, 1000)), (2, F(999, 1000))]).weighted
    assert w != make_distribution([(1, F(2, 1000)), (2, F(998, 1000))]).weighted
    assert hash(w) == hash((1000, F(0)))
    # equal packed counts over different domains are different points
    one = [_sample_packed(domain, ((1, 1),), 1, F(0)) for domain in (("nat", None), ("bits", 2), ("bits", 3))]
    assert [a == b for a in one for b in one] == [a.points == b.points for a in one for b in one]
    assert repr(w) == "Sample(m=1000, p_hat=Fraction(0, 1), packed_counts=((1, 1), (2, 999)))"
    assert "points" not in w.__dict__
    assert repr(Sample((2, 1), F(1, 2))) == "Sample(points=(2, 1), p_hat=Fraction(1, 2))"
    with pytest.raises(AttributeError):
        w.p_hat = F(1)
    with pytest.raises(AttributeError):
        del Sample((2, 1), F(1, 2)).points


_DOMAINS = st.sampled_from([("nat", None), ("bits", 2), ("bits", 3)])


@given(
    st.lists(st.integers(0, 3), max_size=6),
    st.lists(st.integers(0, 3), max_size=6),
    st.integers(0, 6),
    st.integers(0, 6),
    _DOMAINS,
    _DOMAINS,
)
def test_sample_equality_is_equality_of_points_and_p_hat(left, right, j, k, left_domain, right_domain):
    # each multiset as a checked sample from a tuple and from a list in its
    # given order, a trusted sample in its given draw order and a trusted
    # sample without draw order, against comparing (points, p_hat); values
    # are naturals or the bit vectors of width 2 or 3 that pack to them, so
    # equal packed ints from different domains must stay unequal
    def forms(values, j, domain):
        points = tuple(values) if domain[0] == "nat" else _unpack(domain, values)
        p_hat = F(min(j, len(points)), len(points)) if points else F(0)
        packed = tuple(sorted(Counter(values).items()))
        domain = domain if points else None
        return [
            Sample(points, p_hat),
            Sample(list(points), p_hat),
            _sample_packed(domain, packed, len(points), p_hat, values),
            _sample_packed(domain, packed, len(points), p_hat),
        ]

    samples = forms(left, j, left_domain) + forms(right, k, right_domain)
    for a in samples:
        assert type(a.points) is tuple
        for b in samples:
            equal = a == b
            assert equal == ((a.points, a.p_hat) == (b.points, b.p_hat))
            assert not equal or hash(a) == hash(b)


# ---------------------------------------------------------------------------
# records: frozen dataclasses with shared __eq__, __hash__ and __repr__

MODULES = [importlib.import_module(f"llp_lab.{m.name}") for m in pkgutil.iter_modules(llp_lab.__path__)]
RECORDS = {
    cls
    for module in MODULES
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
}
_TRANSCRIPT = Transcript(3, ((1, None, None), (3, Parity((1, 0)), True)))
# one value of every record class at least; the generated ones add more
FIXED_RECORDS = [
    UniformCube(3),
    make_distribution([(1, F(1, 2)), (2, F(1, 2))]),
    llp_lab.MonotoneDisjunction(3, (1,)),
    llp_lab.MonotoneConjunction(3, (1,)),
    Parity((1, 0, 1)),
    FiniteSubset((1, 2)),
    llp_lab.Window(2, (1, 2)),
    llp_lab.Halfspace((F(1, 2), F(1)), F(1, 3)),
    llp_lab.ConstantRandom(F(1, 2)),
    llp_lab.ClassDescriptor("parity", 3, restriction=2),
    BoundReport(1, 2, 30, 0.5, float("nan"), F(1, 3)),
    LearnerOutcome(Parity((1,)), F(1), F(0), {"labelings": 3}),
    BruteForceReport(True, FiniteSubset((1,)), 3),
    make_brute_oracle(llp_lab.ClassDescriptor("parity", 2)),
    _TRANSCRIPT,
    PacRun(Parity((1, 0)), make_distribution([((1, 0), 1)]), F(1, 8), 40, (OracleCall(F(0), None),)),
    ConsistencyRun(True, Parity((1, 0)), 7, _TRANSCRIPT),
    NoisyParitySetup(3, Parity((1, 0, 0)), F(1, 10), F(1, 5), restriction=1),
    NoisyParityRun(Parity((1, 0, 0)), 12, _TRANSCRIPT),
    llp_lab.X3CInstance((1, 2, 3), (frozenset({1, 2, 3}),)),
    llp_lab.EPSCInstance((1, 2, 3), (frozenset({1, 2}), frozenset({3})), 2),
    llp_lab.ConsistencyInstance(llp_lab.ClassDescriptor("parity", 2), ((0, 1), (1, 1)), (1, 2), 2),
    llp_lab.LLPTask(None, F(1, 10), F(1, 20), Sample((1, 2, 2), F(2, 3))),
    llp_lab.TrialConfig("improper", F(1), F(1, 10), 2, 3, UniformCube(2), target=Parity((1, 0)), m=4),
]
FIXED_RECORDS += [llp_lab.run_trials(FIXED_RECORDS[-1])]
FIXED_RECORDS += FIXED_RECORDS[-1].rows


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a record holding a dict is unhashable, as its field tuple is
        return type(exc)


def _check_record(x):
    """x's repr, == and hash against the dataclass formulas over `dataclasses.fields`."""
    cls = type(x)
    names = [f.name for f in dataclasses.fields(x)]
    values = tuple(getattr(x, name) for name in names)
    assert repr(x) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert _hash_or_error(x) == _hash_or_error(values)
    same = dataclasses.replace(x)
    assert same is not x and same == x and not same != x
    assert _hash_or_error(same) == _hash_or_error(x)
    assert x.__eq__(values) is NotImplemented and x != values
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    # a copy with one field set to a fresh object: equal exactly when the field tuples are
    for name in names:
        other = object.__new__(cls)
        object.__setattr__(other, "__dict__", {**x.__dict__, name: object()})
        assert (x == other) is False and (other == x) is False


def test_every_record_class_has_values():
    assert len(RECORDS) == 26
    assert {type(x) for x in FIXED_RECORDS} == RECORDS


@pytest.mark.parametrize("x", FIXED_RECORDS, ids=lambda x: type(x).__name__)
def test_records_match_the_dataclass_formulas(x):
    _check_record(x)


@given(
    st.one_of(
        distributions, hypotheses, descriptors, tasks, configs, rows, reports,
        x3c_instances, epsc_instances, consistency_instances,
    )
)
def test_generated_records_match_the_dataclass_formulas(x):
    _check_record(x)


def test_records_share_one_code_object_per_method():
    # dataclass(frozen=True, eq=True, repr=True) would exec-compile these five per class, in "<string>"
    for method in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        codes = {vars(cls)[method].__code__ for cls in RECORDS}
        assert len(codes) == 1 and "<string>" not in {code.co_filename for code in codes}
    for method in ("__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert {vars(cls)[method].__code__.co_filename for cls in RECORDS} == {llp_lab.core.__file__}
    # __repr__ is reprlib's recursion guard around the shared repr
    inner = {
        cell.cell_contents.__code__
        for cls in RECORDS
        for cell in vars(cls)["__repr__"].__closure__
        if isinstance(cell.cell_contents, types.FunctionType)
    }
    assert len(inner) == 1 and inner.pop().co_filename == llp_lab.core.__file__
    # only __init__ is compiled, once per record
    for cls in RECORDS:
        compiled = {
            name
            for name, value in vars(cls).items()
            if isinstance(value, types.FunctionType) and value.__code__.co_filename == "<string>"
        }
        assert compiled == {"__init__"}, cls
    assert len({id(vars(cls)["__init__"]) for cls in RECORDS}) == len(RECORDS)


def test_records_of_different_classes_with_equal_fields_differ():
    disjunction, conjunction = llp_lab.MonotoneDisjunction(3, (1,)), llp_lab.MonotoneConjunction(3, (1,))
    assert dataclasses.astuple(disjunction) == dataclasses.astuple(conjunction)
    assert disjunction != conjunction and len({disjunction, conjunction}) == 2
    assert disjunction.__eq__(conjunction) is NotImplemented


def test_a_recursive_record_repr_is_cut_short():
    outcome = LearnerOutcome(Parity((1,)), F(1), F(0))
    outcome.work["self"] = outcome
    assert repr(outcome) == (
        "LearnerOutcome(hypothesis=Parity(mask=(1,)), achieved=Fraction(1, 1), residual=Fraction(0, 1), "
        "work={'self': ...}, improper=False)"
    )


OPTIONS = "a field with compare, hash or repr set"
INIT = "a field with init or kw_only set, or an InitVar"


@pytest.mark.parametrize(
    "option",  # (annotation of field b, its field options, the refusal)
    [
        (int, {"compare": False}, OPTIONS),
        (int, {"hash": True}, OPTIONS),
        (int, {"hash": False}, OPTIONS),
        (int, {"repr": False}, OPTIONS),
        (int, {"init": False}, INIT),
        (int, {"kw_only": True}, INIT),
        (dataclasses.InitVar[int], {}, INIT),
    ],
)
def test_record_refuses_field_options_it_does_not_implement(option):
    annotation, options, message = option
    with pytest.raises(UnsupportedRecord, match=message) as raised:
        namespace = {"__annotations__": {"a": int, "b": annotation}, "b": dataclasses.field(default=0, **options)}
        llp_lab.core.record(type("Bad", (), namespace))

    assert isinstance(raised.value, TypeError)


def test_record_refuses_a_default_before_a_required_field_and_methods_it_writes():
    with pytest.raises(UnsupportedRecord, match="non-default argument 'b' follows default argument"):
        llp_lab.core.record(type("Bad", (), {"__annotations__": {"a": int, "b": int}, "a": 0}))
    for method in ("__init__", "__setattr__", "__delattr__"):
        with pytest.raises(UnsupportedRecord, match="defines __init__, __setattr__ or __delattr__"):
            llp_lab.core.record(type("Bad", (), {"__annotations__": {"a": int}, method: getattr(object, method)}))


def test_every_record_class_has_its_own_docstring():
    # without one, dataclass writes "Name(...)" from the signature it sees when processing the class
    for cls in RECORDS:
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls


# ---------------------------------------------------------------------------
# record construction against the dataclass reference

# one value of each record class; its fields are the arguments of the call shapes
SPECIMENS = {type(x): x for x in reversed(FIXED_RECORDS)}


def _dataclass_reference(cls):
    """`cls`'s fields as a plain `dataclass(frozen=True)` with the same annotations and defaults.

    Its `__post_init__` runs `cls`'s on a twin record built from the
    reference's `__dict__` and copies back what that wrote, so that the
    reference validates and normalizes as the record does.
    """
    namespace = {"__annotations__": {}, "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    for f in dataclasses.fields(cls):
        namespace["__annotations__"][f.name] = f.type
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f.name] = dataclasses.field(default_factory=f.default_factory)
    if hasattr(cls, "__post_init__"):

        def __post_init__(self):
            twin = object.__new__(cls)
            twin.__dict__.update(self.__dict__)
            cls.__post_init__(twin)
            self.__dict__.update(twin.__dict__)

        namespace["__post_init__"] = __post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


REFERENCES = {cls: _dataclass_reference(cls) for cls in SPECIMENS}
SPECIMEN_CLASSES = sorted(SPECIMENS, key=lambda c: c.__qualname__)


def _field_values(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


def _construct(cls, args, kwargs):
    try:
        return _field_values(cls(*args, **kwargs))
    except Exception as exc:  # the exception's type is what must match
        return type(exc)


@st.composite
def _call_shapes(draw, cls):
    """Arguments for `cls`: positional, keyword or left out, with now and then
    a missing required one, an extra positional, a duplicate or an unknown keyword."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = _field_values(SPECIMENS[cls])
    npos = draw(st.integers(0, len(names)))
    args = list(values[:npos])
    kwargs = {}
    for name, value in zip(names[npos:], values[npos:]):
        how = draw(st.sampled_from(["keyword", "keyword", "omit"]))
        if how == "keyword":
            kwargs[name] = value
    if npos == len(names) and draw(st.booleans()):
        args.append(object())  # an extra argument
    if npos and draw(st.booleans()):
        kwargs[names[draw(st.integers(0, npos - 1))]] = values[0]  # a duplicate argument
    if draw(st.booleans()):
        kwargs[draw(st.sampled_from(["bogus", "self_", "_dflt_" + names[0]]))] = 1  # an unknown keyword
    return args, kwargs


@pytest.mark.parametrize("cls", SPECIMEN_CLASSES, ids=lambda c: c.__qualname__)
def test_record_signatures_match_the_dataclass_reference(cls):
    reference = REFERENCES[cls]
    assert inspect.signature(cls.__init__) == inspect.signature(reference.__init__)
    assert list(inspect.signature(cls).parameters.values()) == list(inspect.signature(reference).parameters.values())
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__match_args__ == reference.__match_args__
    assert [(f.name, f.type, f.default, f.default_factory) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default, f.default_factory) for f in dataclasses.fields(reference)
    ]


@pytest.mark.parametrize("cls", SPECIMEN_CLASSES, ids=lambda c: c.__qualname__)
@given(data=st.data())
def test_record_construction_matches_the_dataclass_reference(cls, data):
    args, kwargs = data.draw(_call_shapes(cls))
    got = _construct(cls, args, kwargs)
    assert got == _construct(REFERENCES[cls], args, kwargs)
    if not isinstance(got, type):
        names = [f.name for f in dataclasses.fields(cls)]
        assert got == _field_values(dataclasses.replace(SPECIMENS[cls], **dict(zip(names, got))))


@pytest.mark.parametrize("cls", SPECIMEN_CLASSES, ids=lambda c: c.__qualname__)
def test_record_construction_calls_post_init_once_and_each_factory_per_instance(cls, monkeypatch):
    x = SPECIMENS[cls]
    values = _field_values(x)
    required = {
        f.name: v
        for f, v in zip(dataclasses.fields(cls), values)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    if hasattr(cls, "__post_init__"):
        calls = []
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self) or original(self))
        made = cls(*values)
        assert len(calls) == 1 and calls[0] is made
        monkeypatch.undo()
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            first, second = getattr(cls(**required), f.name), getattr(cls(**required), f.name)
            assert first == f.default_factory() and first is not second


@pytest.mark.parametrize(
    # an oracle holds closures, which do not pickle
    "x", [x for x in FIXED_RECORDS if not isinstance(x, llp_lab.LLPOracle)], ids=lambda x: type(x).__name__
)
def test_records_survive_a_pickle_round_trip(x):
    # LLP_LAB_THREADS > 1 sends configs to workers and rows back by pickle
    same = pickle.loads(pickle.dumps(x))
    assert type(same) is type(x) and repr(same) == repr(x)
    if not any(v != v for v in _field_values(x)):  # a NaN field comes back as another NaN
        assert same == x and _hash_or_error(same) == _hash_or_error(x)
