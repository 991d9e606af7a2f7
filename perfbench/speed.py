"""Speed adjustment: a fixed reference slice timed between operations.

On a shared machine the same operation can take up to 1.8 times longer from
one second to the next.  The reference slice is a short, fixed piece of exact-Fraction
Python, the same kind of work the library does, and it makes no library
call.  Each operation's wall time is scaled by NOMINAL_REF_S divided by the
reference time measured around it, so a machine running slow for a while
reports the same adjusted time as one running at full speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Reference-slice time the adjusted figures are scaled to.  On the 2-core
# x86-64 VM (Python 3.11.7) the benchmark was calibrated on, the slice took
# about 1.2 ms in fast phases and 2.1 ms in slow ones.  Changing this
# constant rescales every adjusted figure.
NOMINAL_REF_S = 0.0015

# Slices on each side of an operation whose median scales it.
WINDOW = 2

_EXPECTED = (Fraction(0), 136)


def reference_slice() -> tuple[Fraction, int]:
    """Fixed exact-rational work: build, subtract, compare and hash Fractions."""
    half = Fraction(1, 2)
    best = Fraction(1)
    seen: dict[Fraction, int] = {}
    for i in range(1, 201):
        q = Fraction(i * 7 % 13 + 1, i % 29 + 5)
        d = abs(q - half)
        if d < best:
            best = d
        seen[d] = seen.get(d, 0) + 1
    return best, len(seen)


def time_slice() -> float:
    """Wall time of one reference slice, checking that it did its work."""
    start = time.perf_counter()
    got = reference_slice()
    elapsed = time.perf_counter() - start
    if got != _EXPECTED:
        raise RuntimeError(f"reference slice computed {got!r}")
    return elapsed


def scale(ref_s: float) -> float:
    """Factor turning a raw time into an adjusted one."""
    return NOMINAL_REF_S / ref_s


def adjust_ops(raw: list[float], refs: list[float]) -> list[float]:
    """Adjusted time of each operation.

    `refs[i]` is the slice timed just before operation i and `refs[-1]` the
    one after the last operation, so there is one more slice than there are
    operations.  Operation i is scaled by the median of the slices within
    WINDOW places of it, which ignores a single slice that was preempted.
    """
    if len(refs) != len(raw) + 1:
        raise ValueError(f"{len(raw)} operations need {len(raw) + 1} slices, got {len(refs)}")
    out = []
    for i, t in enumerate(raw):
        near = refs[max(0, i - WINDOW + 1) : i + WINDOW + 1]
        out.append(t * scale(statistics.median(near)))
    return out
