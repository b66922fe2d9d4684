"""Ball enumeration, growth tables, and distortion."""

from dataclasses import fields
from itertools import accumulate, chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.cayley import (
    Ball,
    distortion,
    enumerate_ball,
    growth_sequence,
    relative_ball,
    subgroup_word_length,
)
from growthlab import cayley
from growthlab.counting import ball_counts, relative_ball_counts
from growthlab.errors import BallBudgetError, SearchDepthError, UnsupportedConfigurationError
from growthlab.subgroups import (
    BudgetedEnumerationOracle,
    CyclicOracle,
    ProductOracle,
    StallingsOracle,
    WholeGroupOracle,
    diagonal_oracle,
    oracle_for_generators,
    parse_subgroup,
    power_lengths,
)
from growthlab.words import (
    SEP,
    Element,
    GroupDescriptor,
    free_group,
    invert_word,
    parse_element,
    product_group,
    reduce_letter_bytes,
)

F1 = free_group(1)
F2 = free_group(2)
F2xF2 = product_group(2, 2)


def el(text, group=F2):
    return parse_element(group, text)


def brute_force_ball(group, radius):
    """Reduce every letter string of length <= radius, factor by factor."""
    letters = [
        (i, b) for i, rank in enumerate(group.ranks) for b in range(1, 2 * rank + 1)
    ]
    seen = set()
    for n in range(radius + 1):
        for string in product(letters, repeat=n):
            seen.add(
                SEP.join(
                    reduce_letter_bytes(b for j, b in string if j == i)
                    for i in range(group.num_factors)
                )
            )
    return sorted(seen, key=lambda p: (len(p), p))


@st.composite
def small_balls(draw):
    """A product of one to three free factors of rank 1..3, and a radius."""
    ranks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    # keep the brute force to a few thousand letter strings
    radius = draw(st.integers(0, 4 if 2 * sum(ranks) <= 8 else 3))
    return GroupDescriptor(ranks), radius


def filtered_ball(group, oracle, radius):
    """Reference relative ball: ask the oracle about every ambient element."""
    offset = group.num_factors - 1
    kept, unknown = [], [0] * (radius + 1)
    for p in enumerate_ball(group, radius).packed:
        got = oracle.contains_packed(p)
        if got is True:
            kept.append(p)
        elif got is None:
            unknown[len(p) - offset] += 1
    return tuple(kept), tuple(accumulate(unknown))


def reference_counts_by_radius(ball):
    """Ball.counts_by_radius as it was computed, one element at a time."""
    offset = ball.group.num_factors - 1
    counts = [0] * (ball.radius + 1)
    for p in ball.packed:
        counts[len(p) - offset] += 1
    total = 0
    out = []
    for c in counts:
        total += c
        out.append(total)
    return tuple(out)


def reduced_words(rank, max_size=4):
    letters = st.integers(1, 2 * rank)
    return st.lists(letters, max_size=max_size).map(reduce_letter_bytes)


def elements(group, max_size=4):
    parts = [reduced_words(rank, max_size) for rank in group.ranks]
    return st.tuples(*parts).map(lambda ws: Element(group, SEP.join(ws)))


@st.composite
def free_oracles(draw, rank):
    """An oracle over F_rank: generator list, cyclic, or budgeted."""
    group = free_group(rank)
    kind = draw(st.sampled_from(["stallings", "cyclic", "budgeted"]))
    if kind == "cyclic":
        return CyclicOracle(group, draw(elements(group)))
    gens = draw(st.lists(elements(group), max_size=3))
    if kind == "budgeted":
        return BudgetedEnumerationOracle(group, gens, radius=draw(st.integers(0, 3)))
    return StallingsOracle(group, gens)


def apply(images, word):
    """The image of a reduced word under the homomorphism a -> images[0], b -> images[1]."""
    return reduce_letter_bytes(
        chain.from_iterable(
            images[(b - 1) // 2] if b % 2 else invert_word(images[(b - 1) // 2]) for b in word
        )
    )


@st.composite
def oracles(draw):
    """Every oracle kind, over F1-F3 and small products, with a radius <= 6."""
    kind = draw(
        st.sampled_from(["whole", "stallings", "cyclic", "prod", "diag", "graph", "generators"])
    )
    if kind == "whole":
        group = draw(st.sampled_from([F1, F2, free_group(3), F2xF2, product_group(1, 2)]))
        oracle = WholeGroupOracle(group)
    elif kind == "stallings":
        group = free_group(draw(st.integers(1, 3)))
        if draw(st.booleans()):
            # a subgroup of one factor of a product
            group = draw(st.sampled_from([F2xF2, product_group(1, 2)]))
        factor = draw(st.integers(0, group.num_factors - 1))
        target = tuple(i == factor for i in range(group.num_factors))
        gens = draw(st.lists(elements(group).filter(
            lambda g: all(not p or on for p, on in zip(g.packed.split(SEP), target))
        ), max_size=3))
        oracle = StallingsOracle(group, gens)
    elif kind == "cyclic":
        group = draw(st.sampled_from([F2, F2xF2]))
        oracle = CyclicOracle(group, draw(elements(group)))
    elif kind == "prod":
        group = draw(st.sampled_from([F2xF2, product_group(1, 2), product_group(1, 1, 1)]))
        oracle = ProductOracle(group, [draw(free_oracles(rank)) for rank in group.ranks])
    elif kind == "diag":
        group = draw(st.sampled_from([F2xF2, product_group(1, 1, 1)]))
        oracle = diagonal_oracle(group)
    elif kind == "graph":
        # {(k, phi(k)) : k in K}: generators k of K and seeded images of a, b
        group = draw(st.sampled_from([F2xF2, product_group(2, 1)]))
        images = [
            draw(st.lists(reduced_words(rank, 2), min_size=2, max_size=2))
            for rank in group.ranks[1:]
        ]
        words = draw(st.lists(reduced_words(2, 3), max_size=3))
        gens = [SEP.join([k] + [apply(imgs, k) for imgs in images]) for k in words]
        oracle = StallingsOracle(group, [Element(group, g) for g in gens])
    else:
        # any generator list: folded when some factor has no conflict, else budgeted
        group = draw(st.sampled_from([F2xF2, product_group(1, 2)]))
        gens = draw(st.lists(elements(group, 3), max_size=3))
        oracle = oracle_for_generators(group, gens)
        if isinstance(oracle, BudgetedEnumerationOracle):
            # the default of 8 generators would enumerate far past radius 6
            oracle = BudgetedEnumerationOracle(group, gens, radius=draw(st.integers(0, 3)))
    return group, oracle, draw(st.integers(0, 6))


class TestEnumerateBall:
    def test_free_rank_two_counts(self):
        ball = enumerate_ball(F2, 5)
        assert ball.counts_by_radius == (1, 5, 17, 53, 161, 485)

    def test_rank_one_counts(self):
        ball = enumerate_ball(F1, 6)
        assert ball.counts_by_radius == (1, 3, 5, 7, 9, 11, 13)

    def test_sphere_counts(self):
        ball = enumerate_ball(F2, 4)
        assert ball.sphere_counts() == (1, 4, 12, 36, 108)

    def test_elements_are_distinct_and_within_radius(self):
        ball = enumerate_ball(F2xF2, 3)
        elems = ball.elements()
        assert len(set(elems)) == len(elems)
        assert all(g.length() <= 3 for g in elems)

    def test_shortlex_sorted(self):
        ball = enumerate_ball(F2, 3)
        keys = [g.sort_key() for g in ball]
        assert keys == sorted(keys)

    def test_radius_zero(self):
        ball = enumerate_ball(F2, 0)
        assert ball.elements() == (F2.identity(),)

    def test_membership_lookup(self):
        ball = enumerate_ball(F2, 4)
        assert el("abAB") in ball
        assert el("ababa") not in ball
        assert el("(a,b)", F2xF2) not in ball

    def test_up_to_is_a_prefix(self):
        ball = enumerate_ball(F2, 5)
        small = ball.up_to(3)
        assert small.counts_by_radius == (1, 5, 17, 53)
        assert small.packed == ball.packed[: len(small.packed)]

    @pytest.mark.parametrize(
        "group,radius", [(F1, 8), (F2, 6), (free_group(3), 5), (F2xF2, 4)]
    )
    def test_is_the_whole_group_oracle_relative_ball(self, group, radius):
        got = enumerate_ball(group, radius)
        want = relative_ball(group, WholeGroupOracle(group), radius)
        for field in fields(got):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_budget_error_carries_progress(self):
        with pytest.raises(BallBudgetError) as exc:
            enumerate_ball(F2, 10, budget=100)
        assert exc.value.radius_reached < 10
        assert exc.value.budget == 100

    def test_budget_error_at_huge_radius_stops_counting_early(self):
        # |B(4)| = 713 and |B(5)| = 2305 in F2 x F2; counting to radius
        # 10^4 would take minutes
        with pytest.raises(BallBudgetError) as exc:
            enumerate_ball(F2xF2, 10_000, budget=1000)
        assert exc.value.radius_reached == 4

    @settings(max_examples=40, deadline=None)
    @given(small_balls())
    def test_matches_brute_force_reduction(self, case):
        group, radius = case
        assert list(enumerate_ball(group, radius).packed) == brute_force_ball(group, radius)

    @settings(max_examples=40, deadline=None)
    @given(small_balls(), st.integers(min_value=0, max_value=2000))
    def test_budget_error_reports_last_radius_that_fits(self, case, budget):
        group, radius = case
        counts = ball_counts(group, radius)
        fits = [n for n, size in enumerate(counts) if size <= budget]
        if len(fits) == radius + 1:
            assert len(enumerate_ball(group, radius, budget=budget)) == counts[-1]
            return
        with pytest.raises(BallBudgetError) as exc:
            enumerate_ball(group, radius, budget=budget)
        assert exc.value.radius_reached == (fits[-1] if fits else -1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4))
    def test_every_element_within_one_of_a_neighbor(self, r):
        # spheres are exactly distance one from the previous sphere
        ball = enumerate_ball(F2, r)
        gens = F2.symmetric_generators()
        for g in ball:
            n = g.length()
            if n == 0:
                continue
            assert any((g * s).length() == n - 1 for s in gens)


class TestRelativeBall:
    def test_cyclic_line(self):
        rel = relative_ball(F2, CyclicOracle(F2, el("a")), 3)
        assert rel.counts_by_radius == (1, 3, 5, 7)
        assert [g.render() for g in rel.up_to(1)] == ["1", "a", "A"]

    def test_squares_subgroup(self):
        rel = relative_ball(F2, StallingsOracle(F2, [el("aa"), el("bb")]), 2)
        names = sorted(g.render() for g in rel)
        assert names == ["1", "AA", "BB", "aa", "bb"]

    def test_diagonal(self):
        rel = relative_ball(F2xF2, diagonal_oracle(F2xF2), 4)
        assert rel.counts_by_radius[4] == 17
        assert all(
            g.component(0) == g.component(1) for g in rel
        )

    def test_reuses_supplied_ambient_ball(self):
        ambient = enumerate_ball(F2, 5)
        rel = relative_ball(F2, CyclicOracle(F2, el("ab")), 4, ambient=ambient)
        assert rel.counts_by_radius == (1, 1, 3, 3, 5)

    def test_unknown_tally_for_budgeted_oracle(self):
        orc = BudgetedEnumerationOracle(F2xF2, [el("(a,b)", F2xF2), el("(b,a)", F2xF2)], radius=2)
        rel = relative_ball(F2xF2, orc, 3)
        assert rel.unknown_count > 0
        # everything kept is certain; nothing unknown is counted
        assert all(orc.contains(g) is True for g in rel)

    def test_wrong_radius_ambient_rejected(self):
        ambient = enumerate_ball(F2, 2)
        with pytest.raises(ValueError):
            relative_ball(F2, CyclicOracle(F2, el("a")), 4, ambient=ambient)

    @settings(max_examples=300, deadline=None)
    @given(oracles())
    def test_matches_filtering_the_ambient_ball(self, case):
        group, oracle, radius = case
        rel = relative_ball(group, oracle, radius)
        assert (rel.packed, rel.unknown_by_radius) == filtered_ball(group, oracle, radius)
        try:
            counts = relative_ball_counts(oracle, radius)
        except UnsupportedConfigurationError:
            return
        assert list(rel.counts_by_radius) == counts

    @settings(max_examples=200, deadline=None)
    @given(oracles())
    def test_counts_by_radius_match_counting_each_element(self, case):
        group, oracle, radius = case
        rel = relative_ball(group, oracle, radius)
        assert rel.counts_by_radius == reference_counts_by_radius(rel)
        for n in range(radius + 1):
            assert rel.up_to(n).counts_by_radius == reference_counts_by_radius(rel.up_to(n))

    @pytest.mark.parametrize(
        "group,make",
        [
            (F2, lambda: parse_subgroup(F2, "aab,bAb")),
            (F2xF2, lambda: parse_subgroup(F2xF2, "(ab,1),(b,1)")),
            (F2, lambda: parse_subgroup(F2, "cyclic:abA")),
            (F2xF2, lambda: parse_subgroup(F2xF2, "cyclic:(ab,B)")),
            (F2xF2, lambda: parse_subgroup(F2xF2, "prod(aa,bb;cyclic:ab)")),
            (F2xF2, lambda: parse_subgroup(F2xF2, "diag")),
            (F2xF2, lambda: parse_subgroup(F2xF2, "(aa,bb),(b,ab)")),
            (F2xF2, lambda: BudgetedEnumerationOracle(
                F2xF2, [el("(a,b)", F2xF2), el("(b,a)", F2xF2)], radius=3
            )),
            (F2xF2, lambda: WholeGroupOracle(F2xF2)),
        ],
    )
    def test_generates_without_ambient_ball_or_membership_queries(self, monkeypatch, group, make):
        oracle = make()
        want = filtered_ball(group, oracle, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("relative_ball must not filter")

        monkeypatch.setattr(cayley, "enumerate_ball", refuse)
        for cls in (StallingsOracle, CyclicOracle, ProductOracle,
                    BudgetedEnumerationOracle, WholeGroupOracle):
            monkeypatch.setattr(cls, "contains_packed", refuse)
        rel = relative_ball(group, oracle, 6)
        assert (rel.packed, rel.unknown_by_radius) == want

    def test_budget_counts_the_ambient_ball(self):
        # 17 members of <aa,bb> fit, but |B(4)| = 161 in F2 does not
        oracle = StallingsOracle(F2, [el("aa"), el("bb")])
        with pytest.raises(BallBudgetError) as exc:
            relative_ball(F2, oracle, 4, budget=100)
        assert (exc.value.radius_reached, exc.value.target_radius) == (3, 4)


class TestGrowthSequence:
    def test_whole_group_table(self):
        ball = growth_sequence(F2, 6)
        assert ball.counts_by_radius == (1, 5, 17, 53, 161, 485, 1457)
        assert ball.packed == enumerate_ball(F2, 6).packed
        assert ball.radius == 6

    def test_subgroup_table_tracks_oracle(self):
        oracle = parse_subgroup(F2, "cyclic:a")
        ball = growth_sequence(F2, 4, oracle=oracle)
        assert ball.counts_by_radius == (1, 3, 5, 7, 9)
        assert ball.packed == relative_ball(F2, oracle, 4).packed
        assert ball.unknown_by_radius == (0, 0, 0, 0, 0)


class TestSubgroupWordLength:
    def test_identity_is_zero(self):
        assert subgroup_word_length([el("aa")], F2.identity()) == 0

    def test_powers_of_a_generator(self):
        gens = [el("aa")]
        assert subgroup_word_length(gens, el("aa")) == 1
        assert subgroup_word_length(gens, el("AAAA")) == 2
        assert subgroup_word_length(gens, el("a" * 10)) == 5

    def test_two_generator_combination(self):
        gens = [el("aa"), el("bb")]
        assert subgroup_word_length(gens, el("aabbAA")) == 3

    def test_depth_cap_raises(self):
        with pytest.raises(SearchDepthError):
            subgroup_word_length([el("aa")], el("a" * 12), depth_cap=5)


class TestDistortion:
    def test_undistorted_generator(self):
        table = distortion(F2, [el("a")], 5)
        assert table.values == (0, 1, 2, 3, 4, 5)

    def test_square_generator_halves_length(self):
        table = distortion(F2, [el("aa")], 6)
        assert table.values == (0, 0, 1, 1, 2, 2, 3)

    def test_rows_are_monotone(self):
        table = distortion(F2, [el("ab"), el("ba")], 4)
        assert all(a <= b for a, b in zip(table.values, table.values[1:]))

    def test_diagonal_of_product(self):
        gens = [el("(a,a)", F2xF2), el("(b,b)", F2xF2)]
        table = distortion(F2xF2, gens, 4, oracle=diagonal_oracle(F2xF2))
        # ambient length 2n reaches diagonal word length n
        assert table.values == (0, 0, 1, 1, 2)

    @pytest.mark.parametrize(
        "ranks, word",
        [((2, 2), "(a,bA)"), ((2, 2), "(baB,a)"), ((1, 2), "(a,ab)"), ((1, 1, 1), "(a,1,A)")],
    )
    def test_cyclic_over_products(self, ranks, word):
        # |g^k| = tails + |k| core, so the longest power within length n
        # is g^k with k = (n - tails) // core, once g itself fits
        group = product_group(*ranks)
        oracle = parse_subgroup(group, f"cyclic:{word}")
        tails, core = power_lengths(el(word, group))
        table = distortion(group, oracle.generators, 7, oracle=oracle)
        assert table.values == tuple(
            (n - tails) // core if n >= tails + core else 0 for n in range(8)
        )
