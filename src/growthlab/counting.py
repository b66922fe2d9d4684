"""Exact ball counts from closed forms, without enumeration.

Free factors are trees, so sphere sizes follow the branching recurrence;
a product's come from the product of its factors' generating functions,
and a product of subgroups convolves its factors' sphere counts. Each
subgroup oracle counts its own spheres (SubgroupOracle.sphere_counts)
and relative_ball_counts sums them.
All of it is exact integer arithmetic. It cross-checks the enumeration at
small radius and extends growth tables far past any enumeration budget
(supermultiplicativity checks need balls of radius s+t+c).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Protocol, Sequence

from .words import GroupDescriptor


class SphereCounter(Protocol):  # what relative_ball_counts asks of an oracle
    def sphere_counts(self, radius: int) -> list[int]: ...


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


def convolve_spheres(factor_spheres: Iterable[Sequence[int]], n_max: int) -> list[int]:
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
    """Sphere sizes of a product, from its generating function.

    F_k's spheres have the generating function (1+x)/(1-(2k-1)x), so a
    product's is the product of its factors': each factor multiplies the
    series by 1+x and divides it by 1-(2k-1)x, two passes that each add a
    small multiple of the previous term, n_max additions where the
    convolution makes n_max^2 / 2 big-integer products.
    """
    spheres = [1] + [0] * n_max
    for rank in ranks:
        for n in range(n_max, 0, -1):
            spheres[n] += spheres[n - 1]
        for n in range(1, n_max + 1):
            spheres[n] += (2 * rank - 1) * spheres[n - 1]
    return spheres


def ball_counts(group: GroupDescriptor, n_max: int) -> list[int]:
    """|B(n)| for the whole group, exact for any product of free factors."""
    return list(accumulate(product_sphere_counts(group.ranks, n_max)))


def relative_ball_counts(oracle: SphereCounter, n_max: int) -> list[int]:
    """|B_H(n)| for n = 0..n_max, accumulated from the oracle's sphere counts.

    Raises UnsupportedConfigurationError where the oracle has no exact count
    (budgeted oracles, folded graphs with nontrivial labels); callers
    enumerate instead.
    """
    return list(accumulate(oracle.sphere_counts(n_max)))
