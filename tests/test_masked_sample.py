"""The masked sample against the histogram sample it stands for.

`noisy_parity_via_llp` hands its oracle a masked sample: all m cube draws,
the noisy-label bitset as the draws it keeps, and the draws' `_Planes`
(`core._sample_packed` with `keep`).  Its `packed_counts` and draw order
are built from the kept draws on first read, and the brute-force oracle's
parity table (the parity row's `table` in `hypotheses`) weighs each
labeling of the masked columns by popcount instead of reading them.  These tests hold it
to the kept draws as a plain sample: every view against
`Sample(kept points, p_hat)`, the count table and its errors against
`_count_table` over the histogram.  Draws are bytes up to 8 bits and lists past them, and
lists at any width too; keep masks are 0, all ones or random, and fixed
examples reach keff 12, 14 and 16, the widths of the paper's noisy-parity
reduction past the benchmark's keff 4.  One oracle meets several keep
masks over one draw.
"""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llp_lab import ClassDescriptor, Sample, make_brute_oracle
from llp_lab.core import _draw_cube, _sample_packed, _unpack
from llp_lab.hypotheses import _Planes
from llp_lab.oracles import BRUTE_BUDGET, _count_table
from test_point_form import _tuple_points

MODES = ("arbitrary", "reject")


@st.composite
def masked_draws(draw, max_n=10):
    """(n, draws, keep): a cube draw of n bits, as `_draw_cube` gives it or as a list, and a keep mask."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, 300))
    draws = _draw_cube(n, m, draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        draws = list(draws)
    keep = draw(st.sampled_from((0, (1 << m) - 1)) | st.integers(0, (1 << m) - 1))
    return n, draws, keep


def _masked(n, draws, keep, p_hat=F(0)):
    M = keep.bit_count()
    return _sample_packed(("bits", n) if M else None, None, M, p_hat, draws, keep=keep, planes=_Planes(draws, n))


def _kept(draws, keep):
    return [x for i, x in enumerate(draws) if keep >> i & 1]


def _histogram(n, draws, keep, p_hat=F(0)):
    """The unmasked sample of the kept draws, in draw order."""
    kept = _kept(draws, keep)
    return _sample_packed(("bits", n) if kept else None, tuple(sorted(Counter(kept).items())), len(kept), p_hat, kept)


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except Exception as exc:  # an error is an outcome too: its type and text must match
        return "error", type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(masked_draws(), st.data())
def test_each_view_equals_the_sample_of_the_kept_points(drawn, data):
    n, draws, keep = drawn
    kept = _kept(draws, keep)
    M = len(kept)
    p_hat = F(data.draw(st.integers(0, M)), M) if M else F(0)
    got = _masked(n, draws, keep, p_hat)
    # a 0-bit point is no valid Sample point, so the n = 0 reference is the unmasked trusted form
    want = Sample(_unpack(("bits", n), kept), p_hat) if n else _histogram(n, draws, keep, p_hat)
    assert (got.m, got.domain, got.p_hat) == (want.m, want.domain, want.p_hat)
    assert got.packed_counts == want.packed_counts
    assert _tuple_points(got) == _tuple_points(want)
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    if M:
        assert got != _masked(n, draws, keep, F(M - 1, M) if p_hat == 1 else F(1))


def test_a_masked_sample_does_not_share_a_list_of_draws():
    draws = list(_draw_cube(9, 50, 4))
    sample = _masked(9, draws, (1 << 50) - 1)
    key, want = sample._table_key, _histogram(9, list(draws), (1 << 50) - 1)
    draws.reverse()
    assert sample._table_key == key and sample == want and sample._order() == want._order()


@settings(max_examples=200, deadline=None)
@given(masked_draws(max_n=12), st.data())
@example((3, b"\x01\x02\x05", 0), None)  # nothing kept: domain None and the empty sample's table
@example((11, list(range(40)), (1 << 40) - 1), None)  # 2^11 cells: the reference walks the class
# wide parities: every third of 300 draws kept, so the span reaches its full rank 2^keff
@example((12, _draw_cube(12, 300, 12), (1 << 300) // 7), None)
@example((14, _draw_cube(14, 300, 14), (1 << 300) // 7), None)
@example((16, _draw_cube(16, 300, 16), (1 << 300) // 7), None)
def test_the_masked_table_equals_the_histogram_table(drawn, data):
    n, draws, keep = drawn
    width = max(n, 1) if data is None else data.draw(st.sampled_from((max(n, 1), n + 1, max(n - 1, 1))))
    restriction = None if data is None else data.draw(st.none() | st.integers(0, width))
    keff = width if restriction is None else restriction
    desc = ClassDescriptor("parity", width, restriction=restriction)
    budget = BRUTE_BUDGET if data is None else data.draw(st.sampled_from((BRUTE_BUDGET, 2**keff, 2**keff - 1, 0)))
    masked, histogram = _masked(n, draws, keep), _histogram(n, draws, keep)
    got, want = _outcome(_count_table, desc, masked, budget), _outcome(_count_table, desc, histogram, budget)
    assert got == want
    if got[0] == "value":
        assert list(got[1].items()) == list(want[1].items())  # items and order
        for mode in MODES:
            runs = list(make_brute_oracle(desc, mode, budget).sweep(masked, F(1, 10), F(1, 10)))
            assert runs == list(make_brute_oracle(desc, mode, budget).sweep(histogram, F(1, 10), F(1, 10)))


@pytest.mark.parametrize("mode", MODES)
def test_one_oracle_rebuilds_its_table_for_another_keep_over_the_same_draws(mode):
    draws = _draw_cube(5, 200, 11)
    desc = ClassDescriptor("parity", 5)
    oracle = make_brute_oracle(desc, mode)
    for keep in (0, (1 << 200) - 1, 0xF0F0 << 90, 1 << 199, (1 << 200) - 1):
        want = list(make_brute_oracle(desc, mode).sweep(_histogram(5, draws, keep), F(1, 10), F(1, 10)))
        assert list(oracle.sweep(_masked(5, draws, keep), F(1, 10), F(1, 10))) == want
