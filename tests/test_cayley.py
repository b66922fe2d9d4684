"""Ball enumeration, growth tables, and distortion."""

import time
from dataclasses import fields
from itertools import accumulate, chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.cayley import (
    Ball,
    ball_sizes,
    distortion,
    enumerate_ball,
    relative_ball,
    relative_counts,
    subgroup_word_length,
)
from growthlab import cayley, subgroups
from growthlab.counting import ball_counts, relative_ball_counts
from growthlab.errors import (
    BallBudgetError,
    InvariantViolationError,
    SearchBudgetError,
    UnsupportedConfigurationError,
)
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
    invert_packed,
    invert_word,
    multiply_packed,
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
    """A product of one to three free factors of rank 1..4, and a radius."""
    ranks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    # keep the brute force to at most 24^3 letter strings
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


def breadth_first_word_lengths(generators, targets):
    """|h|_Y of each target h in <Y>: the products of k generators, k = 0, 1, ...,
    each new one kept in a seen set."""
    group = generators[0].group
    nf = group.num_factors
    steps = [g.packed for g in generators] + [invert_packed(g.packed, nf) for g in generators]
    frontier = seen = {group.identity().packed}
    lengths = {}
    k = 0
    while True:
        lengths.update((p, k) for p in frontier & set(targets))
        if len(lengths) == len(set(targets)):
            return lengths
        frontier = {multiply_packed(s, p, nf) for p in frontier for s in steps} - seen
        assert frontier, "a target is not in the subgroup"
        seen = seen | frontier
        k += 1


@st.composite
def word_searches(draw):
    """A generator list over F2, F1 x F1 or F2 x F1, with a duplicate, an
    inverse or a trivial generator sometimes added, and a small radius."""
    group, top = draw(
        st.sampled_from([(F2, 3), (product_group(1, 1), 3), (product_group(2, 1), 2)])
    )
    gens = draw(st.lists(elements(group, 2), min_size=1, max_size=3))
    extra = draw(st.sampled_from(["none", "duplicate", "inverse", "trivial"]))
    if extra == "duplicate":
        gens.append(draw(st.sampled_from(gens)))
    elif extra == "inverse":
        g = draw(st.sampled_from(gens))
        gens.append(Element(group, invert_packed(g.packed, group.num_factors)))
    elif extra == "trivial":
        gens.insert(draw(st.integers(0, len(gens))), group.identity())
    return group, gens, draw(st.integers(0, top))


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

    @pytest.mark.parametrize("radius", [-2, -1, 4])
    def test_up_to_refuses_a_radius_outside_the_ball(self, radius):
        # a negative radius must not slice the tuples from their end
        with pytest.raises(ValueError, match=f"radius 0 to 3, not {radius}"):
            enumerate_ball(F2, 3).up_to(radius)

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
        # |B(4)| = 713 and |B(5)| = 2305 in F2 x F2; counting straight to
        # radius 10^4 takes only about 0.04 s, so the horizons are pinned
        # by test_budget_error_counts_to_doubling_horizons
        with pytest.raises(BallBudgetError) as exc:
            enumerate_ball(F2xF2, 10_000, budget=1000)
        assert exc.value.radius_reached == 4

    def test_ball_sizes_refuse_a_negative_radius(self):
        with pytest.raises(ValueError, match="^radius must be nonnegative$"):
            ball_sizes(F2, -1)

    def test_budget_error_counts_to_doubling_horizons(self, monkeypatch):
        # ball_sizes counts to horizons 0, 1, 3, 7, ...: an overflowing
        # request stops within about twice the radius where it overflows
        horizons = []

        def recording(group, n_max):
            horizons.append(n_max)
            return ball_counts(group, n_max)

        monkeypatch.setattr(cayley, "ball_counts", recording)
        with pytest.raises(BallBudgetError) as exc:
            enumerate_ball(F2xF2, 10_000, budget=1000)
        reached = exc.value.radius_reached
        assert reached == 4
        assert horizons and max(horizons) <= 2 * (reached + 1) + 1, horizons

    @settings(max_examples=40, deadline=None)
    @given(small_balls())
    def test_matches_brute_force_reduction(self, case):
        group, radius = case
        ball = enumerate_ball(group, radius)
        assert list(ball.packed) == brute_force_ball(group, radius)
        # the counts-only path generates and checks the same spheres
        counts, _ = relative_counts(group, WholeGroupOracle(group), radius)
        assert counts == ball.counts_by_radius == tuple(ball_counts(group, radius))

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


class TestEnumerateCounts:
    def test_budget_is_charged_before_any_sphere(self, monkeypatch):
        def refuse(rank, radius):
            raise AssertionError("a sphere was generated")

        monkeypatch.setattr(subgroups, "free_spheres", refuse)
        with pytest.raises(BallBudgetError) as exc:
            relative_counts(F2, WholeGroupOracle(F2), 6, budget=100)
        assert (exc.value.radius_reached, exc.value.target_radius) == (3, 6)


@st.composite
def whole_factor_products(draw):
    """A product oracle with whole free factors, whose spheres come one at a time."""
    group = draw(st.sampled_from([F2xF2, product_group(1, 2), product_group(1, 1, 1)]))
    factors = [
        draw(st.just(WholeGroupOracle(free_group(rank))) | free_oracles(rank))
        for rank in group.ranks
    ]
    return group, ProductOracle(group, factors), draw(st.integers(0, 6))


class TestRelativeCounts:
    @settings(max_examples=300, deadline=None)
    @given(oracles() | whole_factor_products())
    def test_equals_the_relative_balls_counts(self, case):
        # the whole group over F1 to F3 and products, Stallings, diag,
        # cyclic, product, labelled and budgeted oracles
        group, oracle, radius = case
        rel = relative_ball(group, oracle, radius)
        counts = relative_counts(group, oracle, radius)
        assert counts == (rel.counts_by_radius, rel.unknown_by_radius)

    def test_oracle_over_another_group_is_refused(self):
        with pytest.raises(ValueError, match="oracle is over a different group"):
            relative_counts(F2, WholeGroupOracle(F1), 2)

    def test_budget_is_charged_as_for_the_ball(self):
        # 17 members of <aa,bb> fit, but |B(4)| = 161 in F2 does not
        oracle = StallingsOracle(F2, [el("aa"), el("bb")])
        with pytest.raises(BallBudgetError) as exc:
            relative_counts(F2, oracle, 4, budget=100)
        assert (exc.value.radius_reached, exc.value.target_radius) == (3, 4)


class TestRelativeBall:
    @pytest.mark.parametrize(
        "oracle", [WholeGroupOracle(F1), CyclicOracle(F2xF2, el("(a,b)", F2xF2))]
    )
    def test_oracle_over_another_group_is_refused(self, oracle):
        with pytest.raises(ValueError, match="oracle is over a different group"):
            relative_ball(F2, oracle, 2)

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


class TestWholeGroupCheck:
    """WholeGroupOracle checks each sphere it generates against its closed
    form, so every whole-group ball is checked, whichever caller asks."""

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda spheres: spheres[2].pop(), r"\|B\(2\)\| differs from the closed form 49"),
            (
                lambda spheres: spheres[1].append(spheres[1][0]),
                r"\|B\(1\)\| differs from the closed form 9",
            ),
            (lambda spheres: spheres.pop(), r"\|B\(3\)\| differs from the closed form 217"),
            (
                lambda spheres: spheres.append(spheres[-1]),
                r"\|B\(3\)\| differs from the closed form 217",
            ),
        ],
        ids=["word-lost", "word-repeated", "sphere-lost", "sphere-extra"],
    )
    def test_corrupted_product_spheres_raise(self, monkeypatch, corrupt, message):
        product_spheres = subgroups.product_spheres

        def corrupted(factors):
            spheres = list(product_spheres(factors))
            corrupt(spheres)
            return iter(spheres)

        monkeypatch.setattr(subgroups, "product_spheres", corrupted)
        with pytest.raises(InvariantViolationError, match=message):
            enumerate_ball(F2xF2, 3)
        with pytest.raises(InvariantViolationError, match=message):
            relative_ball(F2xF2, WholeGroupOracle(F2xF2), 3)
        with pytest.raises(InvariantViolationError, match=message):
            relative_counts(F2xF2, WholeGroupOracle(F2xF2), 3)


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

    def test_non_member_exhausts_the_budget(self):
        with pytest.raises(SearchBudgetError) as exc:
            subgroup_word_length([el("aa")], el("a"), budget=100)
        assert (exc.value.element_text, exc.value.budget) == ("a", 100)

    def test_budget_counts_every_residual_popped(self):
        # a^12 over <a^2> pops a^12, a^10, ..., 1 at depth 6, its first
        assert subgroup_word_length([el("aa")], el("a" * 12), budget=7) == 6
        with pytest.raises(SearchBudgetError):
            subgroup_word_length([el("aa")], el("a" * 12), budget=6)

    @pytest.mark.parametrize("gens", [[], [F2.identity()], [F2.identity(), el("aA")]])
    def test_trivial_generators_fail_at_once(self, gens):
        # no depth can reach a nontrivial target, so the search must not
        # spend its budget deepening (one pop per depth: seconds for 10^7)
        start = time.perf_counter()
        with pytest.raises(SearchBudgetError):
            subgroup_word_length(gens, el("ab"), budget=10**7)
        assert time.perf_counter() - start < 0.5
        assert subgroup_word_length(gens, F2.identity(), budget=1) == 0

    def test_no_depth_cap(self):
        assert subgroup_word_length([el("a")], el("a" * 2000)) == 2000

    @staticmethod
    def check_against_breadth_first(group, gens, radius):
        members = relative_ball(group, oracle_for_generators(group, gens), radius).packed
        want = breadth_first_word_lengths(gens, members)
        for p in members:
            assert subgroup_word_length(gens, Element(group, p)) == want[p]

    @settings(max_examples=150, deadline=None)
    @given(word_searches())
    def test_matches_breadth_first_reference(self, case):
        self.check_against_breadth_first(*case)

    # ab,ba,aab and ab,ba,ab are not bases of the subgroup they generate
    @pytest.mark.parametrize("spec,radius", [("ab,ba,aab", 3), ("ab,ba,ab", 3), ("aab,bba", 5)])
    def test_named_lists_match_breadth_first_reference(self, spec, radius):
        self.check_against_breadth_first(F2, [el(w) for w in spec.split(",")], radius)


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
