"""Exact ball counts from structure, without enumeration.

Free factors are trees, so sphere sizes follow the branching recurrence;
products convolve factor spheres; a folded subgroup graph counts its
accepted reduced words by dynamic programming. These counters are exact
integer arithmetic throughout. They cross-check the enumeration paths at
small radius and extend growth tables to radii far beyond any enumeration
budget (supermultiplicativity checks need balls of radius s+t+c).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import UnsupportedConfigurationError
from .subgroups import (
    BudgetedEnumerationOracle,
    CyclicOracle,
    ProductOracle,
    PullbackOracle,
    StallingsGraph,
    StallingsOracle,
    SubgroupOracle,
    power_lengths,
)
from .words import Element, GroupDescriptor, inverse_byte


def free_sphere_counts(rank: int, n_max: int) -> list[int]:
    """|S(n)| in a free group: 1, 2k, 2k(2k-1), 2k(2k-1)^2, ..."""
    out = [1]
    if n_max >= 1:
        out.append(2 * rank)
    for _ in range(2, n_max + 1):
        out.append(out[-1] * (2 * rank - 1))
    return out[: n_max + 1]


def free_ball_counts(rank: int, n_max: int) -> list[int]:
    return list(accumulate(free_sphere_counts(rank, n_max)))


def _convolve(factor_spheres: Iterable[Sequence[int]], n_max: int) -> list[int]:
    """Sphere sizes of a product from the sphere sizes of its factors."""
    spheres = [1] + [0] * n_max
    for factor in factor_spheres:
        merged = [0] * (n_max + 1)
        for i, a in enumerate(spheres):
            if a:
                for j in range(n_max + 1 - i):
                    merged[i + j] += a * factor[j]
        spheres = merged
    return spheres


def product_sphere_counts(ranks: tuple[int, ...], n_max: int) -> list[int]:
    """Sphere sizes of a product: convolution of factor spheres."""
    return _convolve((free_sphere_counts(rank, n_max) for rank in ranks), n_max)


def ball_counts(group: GroupDescriptor, n_max: int) -> list[int]:
    """|B(n)| for the whole group, exact for any product of free factors."""
    return list(accumulate(product_sphere_counts(group.ranks, n_max)))


def stallings_ball_counts(graph: StallingsGraph, n_max: int) -> list[int]:
    """Count elements of a free-factor subgroup by ambient word length.

    Walks the folded graph counting reduced words (no letter followed by
    its inverse) that return to the basepoint. States are (vertex, last
    letter byte), 0 standing for "no letter yet".
    """
    counts = [1]
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(n_max):
        new: dict[tuple[int, int], int] = defaultdict(int)
        for (v, last), c in states.items():
            for b, w in graph.transitions[v].items():
                if last and b == inverse_byte(last):
                    continue
                new[(w, b)] += c
        states = dict(new)
        at_base = sum(c for (v, _), c in states.items() if v == 0)
        counts.append(counts[-1] + at_base)
    return counts


def cyclic_ball_counts(generator: Element, n_max: int) -> list[int]:
    """|{k : |g^k| <= n}| per n, via |g^k| = tails + |k| * core."""
    tails, core = power_lengths(generator)
    if core == 0:
        return [1] * (n_max + 1)
    return [1 + 2 * max(0, (n - tails) // core) for n in range(n_max + 1)]


def relative_ball_counts(oracle: SubgroupOracle, n_max: int) -> list[int]:
    """Exact relative growth for oracle shapes with a counting formula.

    Raises for budgeted oracles and non-identity pullbacks, where no exact
    counter is available; callers fall back to enumeration there.
    """
    if isinstance(oracle, StallingsOracle):
        return stallings_ball_counts(oracle.graph, n_max)
    if isinstance(oracle, CyclicOracle):
        return cyclic_ball_counts(oracle.generator, n_max)
    if isinstance(oracle, ProductOracle):
        factor_spheres = []
        for sub in oracle.factor_oracles:
            balls = relative_ball_counts(sub, n_max)
            factor_spheres.append([b - a for a, b in zip([0] + balls, balls)])
        return list(accumulate(_convolve(factor_spheres, n_max)))
    if isinstance(oracle, PullbackOracle):
        if oracle.is_diagonal:
            # |(w, ..., w)| = m |w|
            m = oracle.group.num_factors
            base = free_ball_counts(oracle.group.ranks[0], n_max // m)
            return [base[n // m] for n in range(n_max + 1)]
        raise UnsupportedConfigurationError(
            "no exact counting formula for a general pullback; enumerate instead"
        )
    if isinstance(oracle, BudgetedEnumerationOracle):
        raise UnsupportedConfigurationError(
            "budgeted oracles have no exact counts; enumerate instead"
        )
    raise UnsupportedConfigurationError(f"no counting rule for {type(oracle).__name__}")
