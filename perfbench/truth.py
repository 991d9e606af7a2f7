"""Answers the benchmark computes apart from the library, to check its outputs.

Nothing here calls an `llp_lab` function: points are plain tuples or ints,
hypotheses are read through their public fields (`mask`, `vars`, `elems`)
and evaluated by the benchmark's own code, and weights are the
distribution's exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm


def eval_parity(mask: tuple[int, ...], x: tuple[int, ...]) -> int:
    return sum(m & b for m, b in zip(mask, x)) & 1


def eval_or(vars: tuple[int, ...], x: tuple[int, ...]) -> int:
    return int(any(x[v - 1] for v in vars))


def eval_and(vars: tuple[int, ...], x: tuple[int, ...]) -> int:
    return int(all(x[v - 1] for v in vars))


def label(h, x) -> int:
    """Label of point x under a proper hypothesis, by its kind's definition."""
    kind = type(h).__name__
    if kind == "Parity":
        return eval_parity(h.mask, x)
    if kind == "MonotoneDisjunction":
        return eval_or(h.vars, x)
    if kind == "MonotoneConjunction":
        return eval_and(h.vars, x)
    if kind in ("FiniteSubset", "Window"):
        return int(x in h.elems)
    raise ValueError(f"no reference evaluation for {kind}")


def weighted_count(points, mults, evaluate) -> int:
    return sum(a for p, a in zip(points, mults) if evaluate(p))


# ---------------------------------------------------------------------------
# consistency


def consistent(kind: str, n: int, points, mults, k: int) -> bool:
    """Does some OR (or AND) over a variable set hit exactly k weighted points?

    Enumerates all 2^n variable sets directly.
    """
    ev = eval_or if kind == "monotone_disjunction" else eval_and
    for chosen in product((0, 1), repeat=n):
        vars = tuple(i + 1 for i in range(n) if chosen[i])
        if weighted_count(points, mults, lambda p: ev(vars, p)) == k:
            return True
    return False


def witness_hits(h, points, mults, k: int) -> bool:
    return weighted_count(points, mults, lambda p: label(h, p)) == k


# ---------------------------------------------------------------------------
# proportions under a distribution


def cube(n: int):
    return product((0, 1), repeat=n)


def proportion(h, atoms=None, cube_n: int | None = None) -> Fraction:
    """Exact positive mass of h under explicit atoms or the uniform n-cube."""
    if cube_n is not None:
        return Fraction(sum(label(h, x) for x in cube(cube_n)), 2**cube_n)
    return sum((w for p, w in atoms if label(h, p)), Fraction(0))


def subset_sums(weights) -> set[Fraction]:
    """Every sum of a sub-multiset of the weights (a small list)."""
    sums = {Fraction(0)}
    for w in weights:
        sums |= {s + w for s in sums}
    return sums


def subset_sum_reach(weights) -> tuple[int, int]:
    """(bitset of reachable numerators, common denominator) for many weights.

    Bit s is set when some subset of the weights sums to s / denominator.
    """
    den = lcm(*(w.denominator for w in weights))
    reach = 1
    for w in weights:
        reach |= reach << (w.numerator * (den // w.denominator))
    return reach, den


def disjunction_values(n: int, atoms) -> set[Fraction]:
    out = set()
    for chosen in product((0, 1), repeat=n):
        vars = tuple(i + 1 for i in range(n) if chosen[i])
        out.add(sum((w for p, w in atoms if eval_or(vars, p)), Fraction(0)))
    return out


def window_values(k: int, domain_max: int, atoms) -> set[Fraction]:
    """Masses of all windows of span k over the naturals 1..domain_max."""
    weight = dict(atoms)
    out = {Fraction(0)}
    for v in range(1, domain_max + 1):
        tail = [u for u in range(v + 1, min(v + k, domain_max) + 1)]
        for picks in product((0, 1), repeat=len(tail)):
            elems = [v] + [u for u, keep in zip(tail, picks) if keep]
            out.add(sum((weight.get(e, Fraction(0)) for e in elems), Fraction(0)))
    return out
