"""The store of numbered class members (`hypotheses._class_member`).

A member of a parity, disjunction or conjunction class is built once per
process and shared: the count tables (the walk and the transform), ERM's
winner, the witnesses of `distinct_labelings` and `random_hypothesis` all take it from
one `lru_cache` of at most 4096 members, keyed by the row, n, keff and the
member's value.  `enumerate_class` builds its members afresh.  The tests
hold every shared member to a fresh `row.member_at` build of the same value,
check that sharing is safe (a second request gets the same frozen object),
and that the store keeps its bound and is left alone by enumeration.
"""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from unittest import mock

import pytest

from llp_lab import (
    ClassDescriptor,
    decode,
    distinct_labelings,
    encode,
    enumerate_class,
    erm_proportion_matcher,
    hypothesis_to_json,
    random_hypothesis,
)
from llp_lab.core import _sample_packed
from llp_lab import hypotheses
from llp_lab.hypotheses import _CLASSES, _Row, _class_member, _keff
from llp_lab.oracles import BRUTE_BUDGET, _count_table

NUMBERED = ("parity", "monotone_disjunction", "monotone_conjunction")
STORE_BOUND = 4096


def _descriptors():
    """Every numbered class at n = 1-8, parities also restricted to each of 0..n coordinates."""
    for class_id in NUMBERED:
        for n in range(1, 9):
            yield ClassDescriptor(class_id, n)
            if class_id == "parity":
                for r in range(n + 1):
                    yield ClassDescriptor(class_id, n, restriction=r)


def _sample(desc, rng):
    """A trusted sample of up to 12 distinct points, multiplicities 1-4, and a valid p_hat."""
    points = sorted(rng.sample(range(2**desc.n), rng.randint(0, min(12, 2**desc.n))))
    mults = [rng.randint(1, 4) for _ in points]
    m = sum(mults)
    p_hat = F(rng.randint(0, m), m) if m else F(0)
    return _sample_packed(("bits", desc.n) if points else None, tuple(zip(points, mults)), m, p_hat)


def _walk_table(desc, sample):
    """The reference count table: the class row's walk, each distinct labeling weighed."""
    return _Row.table(_CLASSES[desc.class_id], desc, sample, BRUTE_BUDGET)


def _dense_table(desc, sample):
    """The row's own table with the size rule set past any sample: the transform for a disjunction or conjunction."""
    with mock.patch.object(hypotheses, "_CELLS_PER_POINT", 2**desc.n):
        return _CLASSES[desc.class_id].table(desc, sample, BRUTE_BUDGET)


def _check_against_a_fresh_build(desc, h):
    """h is member `value` of the class, as `row.member_at` builds it anew."""
    keff = _keff(desc)
    value = h.packed >> (desc.n - keff)
    assert 0 <= value < 2**keff and value << (desc.n - keff) == h.packed
    fresh = _CLASSES[desc.class_id].member_at(desc.n, keff, value)
    assert fresh is not h
    assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)
    assert encode(h) == encode(fresh) and hypothesis_to_json(h) == hypothesis_to_json(fresh)
    assert vars(h) == vars(fresh)  # the fields and `packed`, set at build
    assert h.packed == fresh.packed == decode(encode(h)).packed  # the decoded copy computes its own


def test_shared_members_match_fresh_builds():
    rng = random.Random(20261020)
    checked = 0
    for desc in _descriptors():
        for _ in range(3):
            sample = _sample(desc, rng)
            members = [
                *_dense_table(desc, sample).values(),
                *_walk_table(desc, sample).values(),
                *_count_table(desc, sample, BRUTE_BUDGET).values(),
                erm_proportion_matcher(desc, sample).hypothesis,
                *(h for _, h in distinct_labelings(desc, sample)),
                *(random_hypothesis(desc, rng) for _ in range(4)),
            ]
            for h in members:
                _check_against_a_fresh_build(desc, h)
            checked += len(members)
    assert checked > 5000


@pytest.mark.parametrize("class_id", NUMBERED)
def test_a_second_request_gets_the_same_object(class_id):
    desc = ClassDescriptor(class_id, 6)
    first = random_hypothesis(desc, random.Random(5))
    assert random_hypothesis(desc, random.Random(5)) is first
    sample = _sample(desc, random.Random(7))
    walk, dense = _walk_table(desc, sample), _dense_table(desc, sample)
    assert walk.keys() == dense.keys() and all(walk[c] is dense[c] for c in walk)
    row = _CLASSES[class_id]
    assert _class_member(row, 6, 6, 9) is _class_member(row, 6, 6, 9)


@pytest.mark.parametrize("class_id", NUMBERED)
def test_a_shared_member_refuses_setattr_and_delattr(class_id):
    h = random_hypothesis(ClassDescriptor(class_id, 4), random.Random(11))
    before = dict(vars(h))
    for name in (*vars(h), "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(h, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(h, name)
    assert vars(h) == before
    assert _class_member(_CLASSES[class_id], 4, 4, h.packed) is h


def test_the_store_holds_at_most_its_bound():
    row = _CLASSES["parity"]
    for value in range(2**13):  # 8192 distinct parities over 13 bits
        _class_member(row, 13, 13, value)
    info = _class_member.cache_info()
    assert info.maxsize == STORE_BOUND and info.currsize == STORE_BOUND
    # the members used last are kept, the first ones were evicted
    hits, misses = info.hits, info.misses
    _class_member(row, 13, 13, 2**13 - 1)
    assert _class_member.cache_info().hits == hits + 1
    _class_member(row, 13, 13, 0)
    assert _class_member.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "desc",
    [ClassDescriptor("parity", 12), ClassDescriptor("parity", 9, restriction=4), ClassDescriptor("monotone_conjunction", 10)],
)
def test_enumerate_class_leaves_the_store_untouched(desc):
    before = _class_member.cache_info()
    members = list(enumerate_class(desc))
    assert len(members) == 2 ** _keff(desc)
    assert _class_member.cache_info() == before
