"""Hypothesis strategies: valid values of every JSON wire form, and JSON trees.

The round-trip tests draw values from here and check `from_json(to_json(x))
== x`; the decoder fuzz test feeds the decoders arbitrary JSON trees and the
encodings of these values with one field deleted or replaced.  Strategies are
built once, at import: building them afresh inside each draw cost more than
the decoding they feed.
"""

from fractions import Fraction as F

from hypothesis import strategies as st

from llp_lab import (
    CLASS_IDS,
    ClassDescriptor,
    ConsistencyInstance,
    ConstantRandom,
    EPSCInstance,
    FiniteSubset,
    Halfspace,
    LLPTask,
    MonotoneConjunction,
    MonotoneDisjunction,
    Parity,
    Sample,
    TrialConfig,
    UniformCube,
    Window,
    X3CInstance,
    normalized,
)
from llp_lab.core import _unpack_bits
from llp_lab.trials import M_MODES, MAX_TRIALS, SAMPLE_LEARNERS, TrialReport, TrialRow

WIDTHS = st.integers(1, 6)
rationals = st.fractions(max_denominator=60)
unit = st.fractions(min_value=0, max_value=1, max_denominator=60)
open_unit = unit.filter(lambda q: 0 < q < 1)
nats = st.integers(0, 10**6)
# width n -> lists of n-bit vectors drawn as ints, with and without repeats
_VECTORS = {
    (n, unique): st.lists(st.integers(0, 2**n - 1), max_size=8, unique=unique) for n in range(1, 9) for unique in (0, 1)
}
_NATS = {unique: st.lists(nats, max_size=8, unique=unique) for unique in (0, 1)}


def _points(draw, unique: bool, n: int | None) -> list:
    """Points over one domain: n-bit vectors, naturals when n is 0, either when n is None."""
    if n is None:
        n = draw(st.integers(0, 6))
    if not n:
        return draw(_NATS[unique])
    return [_unpack_bits(v, n) for v in draw(_VECTORS[n, unique])]


points = nats | st.builds(_unpack_bits, st.integers(0, 255), st.integers(1, 8))


@st.composite
def _distributions(draw):
    if draw(st.booleans()):
        return UniformCube(draw(st.integers(1, 12)))
    support = _points(draw, True, None) or [0]
    weights = draw(st.lists(st.integers(1, 20), min_size=len(support), max_size=len(support)))
    return normalized(zip(support, weights))


@st.composite
def _samples(draw):
    pts = _points(draw, False, None)
    return Sample(pts, F(draw(st.integers(0, len(pts))), len(pts) or 1))


@st.composite
def _descriptors(draw):
    class_id = draw(st.sampled_from(CLASS_IDS))
    n = draw(WIDTHS)
    extra = {}
    if class_id == "parity" and draw(st.booleans()):
        extra["restriction"] = draw(st.integers(0, n))
    if class_id == "window":
        extra["k"] = draw(st.integers(0, 5))
    if class_id == "finite_subset" and draw(st.booleans()):
        extra["ground_set"] = tuple(sorted(draw(_NATS[1])))
    return ClassDescriptor(class_id, n, **extra)


@st.composite
def _hypotheses(draw):
    kind = draw(st.integers(0, 6))
    n = draw(WIDTHS)
    if kind == 0:
        return Parity(_unpack_bits(draw(st.integers(0, 2**n - 1)), n))
    if kind in (1, 2):
        vars = tuple(v for v in range(1, n + 1) if draw(st.booleans()))
        return (MonotoneDisjunction, MonotoneConjunction)[kind - 1](n, vars)
    if kind == 5:
        return Halfspace(tuple(draw(st.lists(rationals, min_size=n, max_size=n))), draw(rationals))
    if kind == 6:
        return ConstantRandom(draw(unit))
    elems = tuple(sorted(draw(_NATS[1])))
    if kind == 3:
        return FiniteSubset(elems)
    return Window((elems[-1] - elems[0] if elems else 0) + draw(st.integers(0, 3)), elems)


distributions = _distributions()
samples = _samples()
descriptors = _descriptors()
hypotheses = _hypotheses()
tasks = st.builds(
    LLPTask,
    desc=st.none() | descriptors,
    epsilon=open_unit,
    delta=open_unit,
    sample=samples,
    distribution=st.none() | distributions,
    eta_prime=st.none() | rationals,
)
_MAYBE = {
    "desc": st.none() | descriptors,
    "target": st.none() | hypotheses,
    "m": st.none() | st.integers(1, 500),
    "rational": st.none() | rationals,
}


@st.composite
def _configs(draw, trials=st.integers(1, MAX_TRIALS)):
    desc = draw(_MAYBE["desc"])
    learners = [name for name, entry in SAMPLE_LEARNERS.items() if desc is not None or not entry.needs_desc]
    m_mode = draw(st.sampled_from(M_MODES))
    return TrialConfig(
        learner=draw(st.sampled_from(learners)),
        epsilon=draw(unit),
        delta=draw(open_unit),
        trials=draw(trials),
        seed=draw(st.integers(0, 2**64)),
        distribution=draw(distributions),
        desc=desc,
        target=draw(hypotheses if desc is None else _MAYBE["target"]),
        m=draw(st.integers(1, 500) if m_mode == "explicit" else _MAYBE["m"]),
        m_mode=m_mode,
        eta=draw(_MAYBE["rational"]),
        eta_prime=draw(_MAYBE["rational"]),
        record_ms=draw(st.booleans()),
    )


configs = _configs()
rows = st.builds(
    TrialRow,
    trial=st.integers(0, 100),
    seed=st.integers(0, 2**64),
    p_c=st.none() | unit,
    p_h=st.none() | unit,
    residual=st.none() | unit,
    success=st.booleans(),
    ms=st.integers(0, 10**6),
    error=st.none() | st.text(max_size=10),
)
# a report holds one row per trial of its config
reports = st.lists(rows, min_size=1, max_size=5).flatmap(
    lambda drawn: st.builds(TrialReport, _configs(st.just(len(drawn))), st.just(tuple(drawn)))
)


@st.composite
def _x3c_instances(draw):
    t = draw(st.integers(1, 3))
    universe = sorted(draw(st.sets(st.integers(-50, 50), min_size=3 * t, max_size=3 * t)))
    triples = draw(st.lists(st.sets(st.sampled_from(universe), min_size=3, max_size=3), max_size=5))
    return X3CInstance(tuple(universe), tuple(map(frozenset, triples)))


@st.composite
def _epsc_instances(draw):
    universe = sorted(draw(st.sets(st.integers(-50, 50), min_size=1, max_size=8)))
    subsets = draw(st.lists(st.sets(st.sampled_from(universe)), max_size=5))
    return EPSCInstance(tuple(universe), tuple(map(frozenset, subsets)), draw(st.integers(-3, 12)))


@st.composite
def _consistency_instances(draw):
    desc = draw(descriptors)
    bits = desc.class_id in ("parity", "monotone_disjunction", "monotone_conjunction", "halfspace")
    pts = sorted(_points(draw, True, desc.n if bits else 0)) or [(0,) * desc.n if bits else 0]
    mults = draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    return ConsistencyInstance(desc, tuple(pts), tuple(mults), draw(st.integers(-3, 80)))


x3c_instances = _x3c_instances()
epsc_instances = _epsc_instances()
consistency_instances = _consistency_instances()

# JSON trees whose keys and strings are often the wire forms' own, so that
# they get past the first checks more often than random text would
WORDS = st.sampled_from(
    [
        "kind", "n", "num", "den", "bits", "nat", "point", "points", "atoms", "p_hat_num", "p_hat_den",
        "class_id", "restriction", "k", "ground_set", "mask", "vars", "elems", "normal", "threshold", "p",
        "epsilon", "delta", "sample", "class", "distribution", "eta", "eta_prime", "learner", "trials",
        "seed", "m", "m_mode", "record_ms", "target", "config", "rows", "universe", "triples", "subsets",
        "mult", "explicit", "uniform_cube", "parity", "window", "halfspace", "finite_subset",
        "monotone_disjunction", "monotone_conjunction", "constant_random", "improper", "1/2", "101",
    ]
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False) | st.text(max_size=8) | WORDS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(WORDS | st.text(max_size=4), kids, max_size=5),
    max_leaves=10,
)


@st.composite
def one_field_changed(draw, encodings):
    """An encoding with one object field or list item, at any depth, deleted or replaced by a JSON tree."""
    obj = draw(encodings)
    spots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in list(items):
            spots.append((node, key))
            walk(child)

    walk(obj)
    if not spots:
        return draw(json_trees)
    node, key = spots[draw(st.integers(0, len(spots) - 1))]
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_trees)
    return obj
