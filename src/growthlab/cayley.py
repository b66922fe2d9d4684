"""Cayley ball enumeration, growth tables, and subgroup distortion.

Balls are generated from structure, not searched. A free factor's Cayley
graph is a tree: its sphere n+1 is every sphere-n word extended by each
letter that does not cancel the word's last letter, and generated parent
by parent in letter order it comes out shortlex sorted. A product's
sphere n is the union over i_1 + ... + i_m = n of the products of factor
spheres, which are disjoint, so the only work left is one sort per
sphere. Elements are kept in packed byte form; the finished ball is
shortlex sorted, which makes every ball of smaller radius a prefix slice.

Relative balls of a subgroup H hold H's elements by their ambient word
length, so the ambient metric stays the definition. Each oracle generates
its own members sphere by sphere from its structure (reduced closed paths
of a folded graph, powers of one element, products and graphs of factor
subgroups), never by filtering the whole-group ball and never by searching
in subgroup generators. Oracles may answer "unknown"; such elements are
excluded from the ball and tallied separately so no count silently
pretends precision.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, Sequence

from .counting import ball_counts
from .errors import BallBudgetError, InvariantViolationError, SearchDepthError
from .subgroups import SubgroupOracle, WholeGroupOracle, oracle_for_generators
from .words import Element, GroupDescriptor, invert_packed, multiply_packed, packed_length

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Ball:
    """All elements within a radius, shortlex sorted, in packed form.

    relative_ball builds every ball from its spheres, the whole group's
    too. For n = 0..radius, counts_by_radius[n] is |B(n)| and
    unknown_by_radius[n] counts the ambient-ball elements up to radius n
    whose membership the oracle could not decide.
    """

    group: GroupDescriptor
    packed: tuple[bytes, ...]
    counts_by_radius: tuple[int, ...]
    unknown_by_radius: tuple[int, ...]

    @property
    def radius(self) -> int:
        return len(self.counts_by_radius) - 1

    @property
    def unknown_count(self) -> int:
        return self.unknown_by_radius[-1]

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Element]:
        for p in self.packed:
            yield Element(self.group, p)

    def elements(self) -> tuple[Element, ...]:
        return tuple(self)

    def sphere_counts(self) -> tuple[int, ...]:
        balls = self.counts_by_radius
        return (balls[0],) + tuple(
            balls[n] - balls[n - 1] for n in range(1, self.radius + 1)
        )

    def up_to(self, radius: int) -> "Ball":
        """The sub-ball of smaller radius (a prefix of the sorted elements)."""
        if radius > self.radius:
            raise ValueError(f"ball only covers radius {self.radius}")
        if radius == self.radius:
            return self
        return Ball(
            self.group,
            self.packed[: self.counts_by_radius[radius]],
            self.counts_by_radius[: radius + 1],
            self.unknown_by_radius[: radius + 1],
        )


def ball_sizes(group: GroupDescriptor, radius: int, budget: int = DEFAULT_BUDGET) -> list[int]:
    """|B(n)| for n = 0..radius; BallBudgetError unless B(radius) fits the budget.

    The sizes are closed forms; radius_reached is the last radius that fits.
    Counting a product's balls costs about radius^2 big-integer products,
    so count to doubling horizons: an overflowing request stops near the
    radius where it overflows, not at the radius it asked for.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    horizon = 0
    while True:
        sizes = ball_counts(group, horizon)
        if sizes[-1] > budget:
            raise BallBudgetError(
                radius_reached=bisect.bisect_right(sizes, budget) - 1,
                target_radius=radius,
                budget=budget,
            )
        if horizon == radius:
            return sizes
        horizon = min(2 * horizon + 1, radius)


def enumerate_ball(
    group: GroupDescriptor,
    radius: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Ball:
    """Exact ball of the whole group: the relative ball of H = G.

    WholeGroupOracle generates it from the factor trees, and the budget is
    checked against the closed-form ball sizes before any element is built.
    """
    return relative_ball(group, WholeGroupOracle(group), radius, budget=budget)


def relative_ball(
    group: GroupDescriptor,
    oracle: SubgroupOracle,
    radius: int,
    *,
    budget: int = DEFAULT_BUDGET,
    ambient: Ball | None = None,
) -> Ball:
    """Subgroup elements of ambient length <= radius, from the oracle's structure.

    The oracle generates its members sphere by sphere and tallies what it
    cannot decide. The budget still caps the ambient ball's closed-form
    size, so a request fails where whole-group enumeration would. An
    ambient ball, if given, must cover the request; it is not needed.
    """
    if oracle.group != group:
        raise ValueError("oracle is over a different group")
    if ambient is not None and (ambient.group != group or ambient.radius < radius):
        raise ValueError("supplied ambient ball does not cover the request")
    ball_sizes(group, radius, budget)
    spheres, unknown = oracle.relative_spheres(radius)
    return Ball(
        group,
        tuple(chain.from_iterable(spheres)),
        tuple(accumulate(map(len, spheres))),
        tuple(accumulate(unknown)),
    )


def growth_sequence(
    group: GroupDescriptor,
    radius: int,
    *,
    oracle: SubgroupOracle | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Ball:
    """The ball whose counts_by_radius is the growth table (the oracle's
    relative ball, when given).

    A whole-group ball is checked against the closed-form ball sizes at
    every radius; a mismatch means the enumeration itself is broken, so it
    raises.
    """
    if oracle is not None:
        return relative_ball(group, oracle, radius, budget=budget)
    ball = enumerate_ball(group, radius, budget=budget)
    counts = ball.counts_by_radius
    exact = tuple(ball_counts(group, radius))
    if counts != exact:
        n = next(n for n in range(radius + 1) if counts[n : n + 1] != exact[n : n + 1])
        raise InvariantViolationError(
            f"enumerated |B({n})| differs from the closed form {exact[n]}"
        )
    return ball


def subgroup_word_length(
    generators: Sequence[Element],
    target: Element,
    *,
    depth_cap: int = 64,
) -> int:
    """|target|_Y by iterative deepening over products of the generators.

    Exact without storing subgroup balls. Search is pruned by the admissible
    bound that one step changes ambient length by at most max |y|_X, and by
    never undoing the previous step.
    """
    group = target.group
    nf = group.num_factors
    steps: list[bytes] = []
    undo: list[int] = []
    for g in generators:
        steps.append(invert_packed(g.packed, nf))  # left-division steps
        steps.append(g.packed)
        undo.extend([len(steps) - 1, len(steps) - 2])
    max_step = max((packed_length(s, nf) for s in steps), default=0)
    identity = group.identity().packed

    def dfs(residual: bytes, depth: int, last: int) -> bool:
        if residual == identity:
            return True
        if depth == 0 or packed_length(residual, nf) > depth * max_step:
            return False
        for i, s in enumerate(steps):
            if last >= 0 and i == undo[last]:
                continue
            if dfs(multiply_packed(s, residual, nf), depth - 1, i):
                return True
        return False

    for depth in range(depth_cap + 1):
        if dfs(target.packed, depth, -1):
            return depth
    raise SearchDepthError(target.render(), depth_cap)


@dataclass(frozen=True)
class DistortionTable:
    """max |h|_Y over h in H with |h|_X <= n, per radius n."""

    values: tuple[int, ...]
    unknown: tuple[int, ...]

    def rows(self) -> list[tuple[int, int]]:
        return list(enumerate(self.values))


def distortion(
    group: GroupDescriptor,
    generators: Sequence[Element],
    radius: int,
    *,
    budget: int = DEFAULT_BUDGET,
    oracle: SubgroupOracle | None = None,
) -> DistortionTable:
    """Distortion of H = <generators> inside its ambient group.

    Members come from the oracle's relative ball, generated from its
    structure, then each gets its exact generator-word length. Without an
    oracle it takes oracle_for_generators's, as the CLI does: when the
    generators' fold conflicts on every factor membership falls back to
    budgeted enumeration, and elements it cannot certify are excluded but
    tallied in `unknown`.
    """
    if oracle is None:
        oracle = oracle_for_generators(group, generators)
    rel = relative_ball(group, oracle, radius, budget=budget)
    offset = group.num_factors - 1
    values = [0] * (radius + 1)
    for p in rel.packed:
        n = len(p) - offset
        y_len = subgroup_word_length(generators, Element(group, p))
        if y_len > values[n]:
            values[n] = y_len
    best = 0
    out = []
    for v in values:
        best = max(best, v)
        out.append(best)
    return DistortionTable(tuple(out), rel.unknown_by_radius)
