"""A sample's one point form against the tuple views it replaced.

`Sample` used to cache two tuple copies of its points beside its packed
form: `points`, the points in draw order (else sorted), and `counts`, the
distinct points with their multiplicities.  Now the package unpacks the
draw order only where it hands out tuple points: `sample_to_json`, the
repr and `draw_labeled_points`.  `_tuple_points` and `_tuple_counts` keep
the old views' definitions as references, unpacking each point bit by bit
and expanding the counts on their own.  These tests hold the three outputs
to them on every draw route:
- cube draws up to 8 bits (bytes) and wider (ints);
- the byte-table small explicit draw, and `_draw_small` from 255 atoms on;
- the binomial draw at m >= COUNT_DRAW_MIN;
- distributions over naturals;
- masked samples and the claim samples of `_claim_samples`.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

from llp_lab import (
    COUNT_DRAW_MIN,
    ConstantRandom,
    FiniteSubset,
    Parity,
    UniformCube,
    draw_labeled_points,
    draw_sample,
    make_distribution,
    point_to_json,
    sample_from_json,
    sample_to_json,
)
from llp_lab.core import _claim_samples, _draw, _draw_cube, _sample_packed
from llp_lab.hypotheses import _Planes


def _unpacked(domain, x):
    """Packed point x as its point: a natural as itself, n bits with coordinate 1 the high bit."""
    if domain[0] == "nat":
        return x
    n = domain[1]
    return tuple(x >> (n - 1 - i) & 1 for i in range(n))


def _tuple_points(sample):
    """The former `Sample.points`: the points in draw order, else sorted, each point repeated by its count."""
    draws = sample._draws
    order = [x for x, c in sample.packed_counts for _ in range(c)] if draws is None else draws
    return tuple(_unpacked(sample.domain, x) for x in order)


def _tuple_counts(sample):
    """The former `Sample.counts`: the distinct points with their multiplicities, sorted."""
    return tuple((_unpacked(sample.domain, x), c) for x, c in sample.packed_counts)


def _old_repr(sample):
    """The former repr, which printed the `points` view of a sample with a draw order."""
    if sample._draws is None:
        return f"Sample(m={sample.m!r}, p_hat={sample.p_hat!r}, packed_counts={sample.packed_counts!r})"
    return f"Sample(points={_tuple_points(sample)!r}, p_hat={sample.p_hat!r})"


def _check(sample):
    """The codec and the repr of `sample` against the references, and the two views against each other."""
    points = _tuple_points(sample)
    assert Counter(points) == dict(_tuple_counts(sample)) and len(points) == sample.m
    encoded = sample_to_json(sample)
    assert encoded["points"] == [point_to_json(p) for p in points]
    assert sample_from_json(encoded) == sample
    assert repr(sample) == _old_repr(sample)


def _bits(n, k):
    """k distinct n-bit vectors with the weights 1..k, normalized."""
    step = max(1, 2**n // k)
    pairs = [(_unpacked(("bits", n), (i * step) % 2**n), i + 1) for i in range(k)]
    total = sum(w for _, w in pairs)
    return make_distribution((p, F(w, total)) for p, w in pairs)


def _nats(k):
    """Naturals 0, 3, 6, ... with the weights 1..k, normalized."""
    total = k * (k + 1) // 2
    return make_distribution((3 * i, F(i + 1, total)) for i in range(k))


def _parity(n):
    return Parity((1,) + (0,) * (n - 1))


# (distribution, target, sizes): each route with a proper target of its domain
ROUTES = {
    "cube-bytes": [(UniformCube(n), _parity(n), (0, 1, 13, 300)) for n in (1, 2, 5, 8)],
    "cube-ints": [(UniformCube(n), _parity(n), (0, 1, 13, 300)) for n in (9, 16, 31, 32, 33, 40, 64, 70)],
    "small-bytes": [(_bits(6, k), _parity(6), (0, 1, 7, 100, COUNT_DRAW_MIN - 1)) for k in (1, 2, 20, 64)]
    + [(_nats(k), FiniteSubset((0, 3)), (0, 1, 7, 100)) for k in (1, 2, 20, 254)],
    "draw-small": [(_nats(k), FiniteSubset((3,)), (1, 50, 400)) for k in (255, 300)]
    + [(_bits(9, 256), _parity(9), (1, 50))],
    "binomial": [
        (_bits(6, 20), _parity(6), (COUNT_DRAW_MIN, 5000)),
        (_nats(30), FiniteSubset((3,)), (COUNT_DRAW_MIN, 5000)),
    ],
}
CASES = [
    pytest.param(dist, target, m, id=f"{route}-{i}-m{m}")
    for route, rows in ROUTES.items()
    for i, (dist, target, sizes) in enumerate(rows)
    for m in sizes
]


@pytest.mark.parametrize(("dist", "target", "m"), CASES)
def test_draws_hand_out_the_points_of_the_old_view(dist, target, m):
    for seed in (0, 7):
        drawn = _draw(dist, m, seed)
        labeled = draw_sample(dist, m, seed, target)
        assert labeled == _sample_packed(drawn.domain, drawn.packed_counts, m, labeled.p_hat, drawn._order())
        _check(drawn)
        _check(labeled)
        for h in (target, ConstantRandom(F(1, 3))):
            points, labels = draw_labeled_points(dist, m, seed, h)
            assert type(points) is tuple and len(labels) == m
            assert points == _tuple_points(drawn) == _tuple_points(labeled)


def test_a_binomial_draw_has_no_draw_order_and_hands_out_its_points_grouped():
    dist = _nats(5)
    sample = _draw(dist, COUNT_DRAW_MIN, 3)
    assert sample._draws is None
    points = draw_labeled_points(dist, COUNT_DRAW_MIN, 3, FiniteSubset(()))[0]
    assert points == tuple(p for p, c in _tuple_counts(sample) for _ in range(c))
    assert repr(sample).startswith("Sample(m=4096, p_hat=Fraction(0, 1), packed_counts=((0, ")


@pytest.mark.parametrize("n", [0, 1, 4, 8, 9, 12])
def test_masked_samples_and_their_claims_match_the_old_views(n):
    m = 90
    for seed in (1, 2):
        draws = _draw_cube(n, m, seed)
        for keep in (0, (1 << m) - 1, (1 << m) // 7, int.from_bytes(bytes(range(11)), "little")):  # 88 bits, below m
            M = keep.bit_count()
            domain = ("bits", n) if M else None
            base = _sample_packed(domain, None, M, F(0), draws, keep=keep, planes=_Planes(draws, n))
            kept = [x for i, x in enumerate(draws) if keep >> i & 1]
            assert _tuple_points(base) == tuple(_unpacked(("bits", n), x) for x in kept)
            # a 0-bit point is no JSON point, so n = 0 checks the repr alone
            claims = list(_claim_samples(base))
            assert [claim for claim, _ in claims] == [F(j, M or 1) for j in range(M + 1)]
            for _, sample in claims[:3] + claims[-2:]:
                if n:
                    _check(sample)
                else:
                    assert repr(sample) == _old_repr(sample)


@pytest.mark.parametrize(
    ("dist", "m"),
    [(UniformCube(3), 40), (UniformCube(20), 40), (_bits(5, 12), 60), (_nats(300), 30), (_nats(8), COUNT_DRAW_MIN)],
)
def test_claim_samples_of_every_draw_route_match_the_old_views(dist, m):
    base = _draw(dist, m, 11)
    claims = list(_claim_samples(base))
    assert len(claims) == m + 1
    for claim, sample in claims[:3] + claims[-3:]:
        assert sample.p_hat == claim
        _check(sample)
        assert _tuple_points(sample) == _tuple_points(base)
