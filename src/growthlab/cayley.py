"""Cayley ball enumeration, growth tables, and subgroup distortion.

Balls are generated from structure, not searched. A free factor's Cayley
graph is a tree: its sphere n+1 is every sphere-n word extended by each
letter that does not cancel the word's last letter, and generated parent
by parent in letter order it comes out shortlex sorted. Each sphere is a
letter matrix, a word per row, until relative_ball converts it to packed
words, the one place where a sphere becomes words. A product's sphere n
is the union over i_1 + ... + i_m = n of the products of factor spheres,
which are disjoint, so the only work left is one sort per sphere.
Elements are kept in packed byte form; the finished ball is shortlex
sorted, which makes every ball of smaller radius a prefix slice.

Relative balls of a subgroup H hold H's elements by their ambient word
length, so the ambient metric stays the definition. Each oracle generates
its own members sphere by sphere from its structure (reduced closed paths
of a folded graph, powers of one element, products and graphs of factor
subgroups), never by filtering the whole-group ball and never by searching
in subgroup generators. Oracles may answer "unknown"; such elements are
excluded from the ball and tallied separately so no count silently
pretends precision. A growth table, of the whole group or of a subgroup,
needs only the sphere sizes: relative_counts generates and checks the
spheres one at a time as relative_ball does, and keeps no member.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate, chain, zip_longest
from typing import Iterable, Iterator, Sequence

from .counting import ball_counts
from .errors import (
    BallBudgetError,
    InvariantViolationError,
    SearchBudgetError,
    UnsupportedConfigurationError,
)
from .subgroups import SubgroupOracle, WholeGroupOracle, oracle_for_generators
from .words import Element, GroupDescriptor, invert_packed, multiply_packed, packed_length, sphere_words

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
        return tuple(b - a for a, b in zip((0, *balls), balls))

    def up_to(self, radius: int) -> "Ball":
        """The sub-ball of smaller radius (a prefix of the sorted elements)."""
        if not 0 <= radius <= self.radius:
            raise ValueError(f"ball only covers radius 0 to {self.radius}, not {radius}")
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
    Counting to a horizon takes time and memory that grow with it (a
    table's digits grow about quadratically in its radius on any group of
    exponential growth), so count to doubling horizons: an overflowing
    request stops near the radius where it overflows, not at the radius it
    asked for, however large that is.
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

    WholeGroupOracle generates it from the factor trees, relative_ball
    checks each sphere against its closed-form size, and the budget is
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
    cannot decide; each sphere becomes packed words here (sphere_words)
    and nowhere else. Every ball passes through here, so each sphere's
    size is checked against the oracle's own exact count (_checked_sizes).
    The budget still caps the ambient ball's closed-form size, so a
    request fails where whole-group enumeration would. An ambient ball,
    if given, must cover the request; it is not needed.
    """
    if oracle.group != group:
        raise ValueError("oracle is over a different group")
    if ambient is not None and (ambient.group != group or ambient.radius < radius):
        raise ValueError("supplied ambient ball does not cover the request")
    ball_sizes(group, radius, budget)
    spheres, unknown = oracle.relative_spheres(radius)
    spheres = [sphere_words(s) for s in spheres]
    sizes = _checked_sizes(oracle, radius, map(len, spheres))
    members = tuple(chain.from_iterable(spheres))
    return Ball(group, members, tuple(accumulate(sizes)), tuple(accumulate(unknown)))


def relative_counts(
    group: GroupDescriptor,
    oracle: SubgroupOracle,
    radius: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """relative_ball(...)'s counts_by_radius and unknown_by_radius, keeping no member.

    Unlike counting.relative_ball_counts, which sums the oracle's exact
    counts, this generates the spheres and checks each one: the budget is
    charged as relative_ball charges it, before any sphere is built, and
    each sphere's size is checked against the oracle's exact count as it
    arrives. Only the size is kept, so a free group's spheres stay letter
    matrices and at most two of them are held at once.
    """
    if oracle.group != group:
        raise ValueError("oracle is over a different group")
    ball_sizes(group, radius, budget)
    spheres, unknown = oracle.relative_spheres(radius)
    sizes = _checked_sizes(oracle, radius, map(len, spheres))
    return tuple(accumulate(sizes)), tuple(accumulate(unknown))


def _checked_sizes(oracle: SubgroupOracle, radius: int, sizes: Iterable[int]) -> list[int]:
    """The generated sphere sizes 0..radius, each checked as it arrives.

    The oracle's exact counts (sphere_counts) are computed without the
    generated spheres. A size that differs from its count, or a sphere too
    many or too few, means the generator is broken: InvariantViolationError
    names the first ball it spoils. Oracles without exact counts (folded
    graphs with nontrivial labels, budgeted oracles, and products holding
    one) are not checked.
    """
    try:
        exact = oracle.sphere_counts(radius)
    except UnsupportedConfigurationError:  # no exact counts to check against
        return list(sizes)
    for n, (size, want) in enumerate(zip_longest(sizes, exact)):
        if size != want:
            n = min(n, len(exact) - 1)
            raise InvariantViolationError(
                f"enumerated |B({n})| differs from the closed form {sum(exact[: n + 1])}"
            )
    return exact  # every size equals its count


def subgroup_word_length(
    generators: Sequence[Element],
    target: Element,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """|target|_Y by iterative deepening over products of the generators.

    Exact without storing subgroup balls, and iterative: one explicit stack
    of (residual, steps left, last step). The steps come in inverse pairs,
    so step i ^ 1 undoes step i and is never taken right after it. One step
    changes ambient length by at most max |y|_X, so the first depth tried
    is ceil(|target|_X / max |y|_X) and a child is pushed only while its
    length is at most (steps left) * max |y|_X. Every residual popped, over
    all depths, counts against the budget; past it, or at once when every
    generator is trivial and the target is not, SearchBudgetError.
    """
    nf = target.group.num_factors
    # left-division steps, each generator's inverse then itself
    steps = [s for g in generators for s in (invert_packed(g.packed, nf), g.packed)]
    max_step = max((packed_length(s, nf) for s in steps), default=0)
    length = packed_length(target.packed, nf)
    if length and not max_step:
        raise SearchBudgetError(target.render(), budget)
    depth = -(-length // max_step) if length else 0
    popped = 0
    while True:
        stack = [(target.packed, depth, -1)]
        while stack:
            residual, left, last = stack.pop()
            popped += 1
            if popped > budget:
                raise SearchBudgetError(target.render(), budget)
            if len(residual) == nf - 1:  # the identity
                return depth
            reach = (left - 1) * max_step + nf - 1  # longest packed child worth pushing
            for i in reversed(range(len(steps))):  # popped in step order
                if i ^ 1 != last:
                    child = multiply_packed(steps[i], residual, nf)
                    if len(child) <= reach:
                        stack.append((child, left - 1, i))
        depth += 1


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
    structure, then each gets its exact generator-word length from one
    subgroup_word_length search. The budget caps the ambient ball's
    closed-form size and, separately, each member's search. Without an
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
        y_len = subgroup_word_length(generators, Element(group, p), budget=budget)
        values[n] = max(values[n], y_len)
    return DistortionTable(tuple(accumulate(values, max)), rel.unknown_by_radius)
