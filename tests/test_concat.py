"""Connector kits, the concatenation map, fibers, supermultiplicativity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import concat
from growthlab.cayley import Ball, enumerate_ball, relative_ball
from growthlab.concat import (
    DEFAULT_PAIR_BUDGET,
    AmbiguityReport,
    CellStats,
    ConnectorKit,
    _fit_envelope,
    _junction_scores,
    _junctions,
    _select,
    _worse_junctions,
    build_connector_kit,
    concat_apply,
    fiber_size,
    have_common_power,
    measure_ambiguity,
    primitive_root,
    select_connector,
)
from growthlab.counting import free_ball_counts, relative_ball_counts
from growthlab.errors import (
    AmbiguityBudgetError,
    DependenceError,
    GroupMismatchError,
    InvariantViolationError,
)
from growthlab.hyperbolic import gromov_product
from growthlab.rate import FuncSpec, RateHypothesis, check_hypothesis
from growthlab.subgroups import (
    StallingsOracle,
    SubgroupOracle,
    diagonal_oracle,
    parse_subgroup,
)
from growthlab.words import (
    Element,
    GroupDescriptor,
    factor_columns,
    free_group,
    multiply_packed,
    parse_element,
    parse_word_bytes,
    product_group,
)

F1 = free_group(1)
F2 = free_group(2)
F3 = free_group(3)
F2xF2 = product_group(2, 2)
F1xF2 = product_group(1, 2)
ONE = F2.identity()


def el(text, group=F2):
    return parse_element(group, text)


def random_element(rng, group, max_len=6):
    gens = group.symmetric_generators()
    g = group.identity()
    for _ in range(rng.randrange(max_len + 1)):
        g = g * rng.choice(gens)
    return g


# measure_ambiguity's grid loop before the one-pass kernel, kept verbatim
# (with its run counter _max_fiber and the domain resolver _resolve_domain
# it used) as the reference the kernel must match.
def _resolve_domain(
    domain: GroupDescriptor | SubgroupOracle, radius: int, ambient: Ball | None
) -> tuple[GroupDescriptor, str, Ball]:
    """Group, printable name, and the ball of the domain up to the radius.

    A supplied ambient ball serves group domains; a subgroup generates its own.
    """
    if isinstance(domain, GroupDescriptor):
        if ambient is not None and ambient.group == domain and ambient.radius >= radius:
            return domain, domain.spec(), ambient.up_to(radius)
        return domain, domain.spec(), enumerate_ball(domain, radius)
    return domain.group, domain.spec_string(), relative_ball(domain.group, domain, radius)


def _max_fiber(images: list[bytes], max_len: int) -> tuple[int, bytes]:
    """Largest run in the sorted image list; ties pick the shortlex-least key."""
    images.sort()
    best_n, best_key = 0, b""
    i, total = 0, len(images)
    while i < total:
        key = images[i]
        if len(key) > max_len:
            raise InvariantViolationError(
                "concatenation image left the containment ball"
            )
        j = i + 1
        while j < total and images[j] == key:
            j += 1
        n = j - i
        if n > best_n or (
            n == best_n and (len(key), key) < (len(best_key), best_key)
        ):
            best_n, best_key = n, key
        i = j
    return best_n, best_key


def reference_measure_ambiguity(
    kit, domain, s_max, t_max, *, budget=DEFAULT_PAIR_BUDGET, ambient=None
):
    group, name, ball = _resolve_domain(domain, max(s_max, t_max), ambient)
    if kit is not None and kit.group != group:
        raise GroupMismatchError("kit and domain groups differ")
    nf = group.num_factors
    c = kit.c if kit is not None else 0
    connector = kit.spec if kit is not None else "naive"
    fit_t = min(3, t_max)
    counts = ball.counts_by_radius
    packed = ball.packed

    if kit is not None:
        xs = [p.packed for p in kit.pieces]
        us = packed[: counts[s_max]]
        u_pieces = [[multiply_packed(up, x, nf) for x in xs] for up in us]
        lefts = [_junction_scores(kit, up, nf, left=True) for up in us]
        rights = [
            _junction_scores(kit, vp, nf, left=False) for vp in packed[: counts[t_max]]
        ]
        # the choice depends on u only through its left scores, so one row
        # of choices per distinct left vector; the rows never hold more
        # entries than the grid's top cell has pairs
        picks: dict[tuple[int, ...], list[int]] = {}
        for left in lefts:
            if left not in picks:
                picks[left] = [_select(left, right)[0] for right in rights]

    cells: list[CellStats] = []
    used = 0
    off = nf - 1
    for s in range(s_max + 1):
        for t in range(t_max + 1):
            n_u, n_v = counts[s], counts[t]
            pairs = n_u * n_v
            if used + pairs > budget:
                slope, intercept, violations = _fit_envelope(cells, fit_t)
                partial = AmbiguityReport(
                    name, connector, c, s_max, t_max, fit_t,
                    tuple(cells), slope, intercept, violations, complete=False,
                )
                raise AmbiguityBudgetError(used + pairs, budget, partial)
            used += pairs
            vs = packed[:n_v]
            if kit is None:
                images = [multiply_packed(up, vp, nf) for up in packed[:n_u] for vp in vs]
            else:
                images = []
                for ux, left in zip(u_pieces[:n_u], lefts):
                    images += [
                        multiply_packed(ux[k], vp, nf) for k, vp in zip(picks[left], vs)
                    ]
            fiber, key = _max_fiber(images, s + t + c + off)
            cells.append(
                CellStats(s, t, s + t + c, pairs, fiber, Element(group, key))
            )

    slope, intercept, violations = _fit_envelope(cells, fit_t)
    return AmbiguityReport(
        name, connector, c, s_max, t_max, fit_t,
        tuple(cells), slope, intercept, violations,
    )


def grid_outcome(measure, kit, domain, s_max, t_max, budget):
    """The report, or the budget error's fields with its partial report."""
    try:
        return measure(kit, domain, s_max, t_max, budget=budget)
    except AmbiguityBudgetError as exc:
        return ("budget", exc.pairs_needed, exc.budget, exc.partial)


def assert_matches_reference(kit, domain, s_max, t_max, budget=DEFAULT_PAIR_BUDGET):
    got = grid_outcome(measure_ambiguity, kit, domain, s_max, t_max, budget)
    assert got == grid_outcome(reference_measure_ambiguity, kit, domain, s_max, t_max, budget)
    report = got if isinstance(got, AmbiguityReport) else got[3]
    for cell in report.cells:
        assert fiber_size(kit, domain, cell.s, cell.t, cell.argmax) == cell.max_fiber
    return report


# subgroup domains per group; None stands for the whole group. "(a,a),(b,b)"
# folds to the diagonal, while "(a,1),(1,a)" conflicts on both factors, so
# it gets a budgeted oracle, which generates its ball first
DOMAINS = {
    F1: [None, "cyclic:aa"],
    F2: [None, "aa,bb", "aab,bAb", "cyclic:ab"],
    F3: [None, "ab,c"],
    F2xF2: [None, "diag", "prod(aa,b;ab)", "(a,a),(b,b)", "(a,1),(1,a)"],
    F1xF2: [None, "cyclic:(a,ab)"],
}


def random_kit(rng, group):
    """A kit of short random elements and exponent, or None after dependent draws."""
    for _ in range(5):
        g, h = random_element(rng, group, 4), random_element(rng, group, 4)
        try:
            return build_connector_kit(group, g, h, rng.randint(1, 3))
        except (DependenceError, ValueError):
            continue
    return None


@pytest.fixture(scope="module")
def kit2():
    return build_connector_kit(F2, el("a"), el("b"), 2)


class TestPrimitiveRoot:
    def test_power_decomposition(self):
        root, e = primitive_root(parse_word_bytes("ababab", 2))
        assert (root, e) == (parse_word_bytes("ab", 2), 3)

    def test_primitive_word(self):
        root, e = primitive_root(parse_word_bytes("aab", 2))
        assert (root, e) == (parse_word_bytes("aab", 2), 1)

    def test_conjugated_power(self):
        # b a^3 b^-1 = (b a b^-1)^3
        root, e = primitive_root(parse_word_bytes("baaaB", 2))
        assert (root, e) == (parse_word_bytes("baB", 2), 3)


class TestCommonPower:
    def test_powers_of_one_root(self):
        assert have_common_power(el("aa"), el("aaa")) is True
        assert have_common_power(el("abab"), el("BABA")) is True

    def test_distinct_conjugates_are_free(self):
        # conjugate elements need not share any power
        assert have_common_power(el("ab"), el("ba")) is False
        assert have_common_power(el("a"), el("bab") * el("bb")) is False

    def test_product_componentwise(self):
        g = el("(a,b)", F2xF2)
        assert have_common_power(g, el("(aa,bb)", F2xF2)) is True
        assert have_common_power(g, el("(aa,bbb)", F2xF2)) is False
        assert have_common_power(el("(a,1)", F2xF2), el("(1,b)", F2xF2)) is False
        assert have_common_power(el("(a,1)", F2xF2), el("(a,b)", F2xF2)) is False

    def test_elements_of_two_groups_are_refused(self):
        with pytest.raises(GroupMismatchError, match="^elements of different groups$"):
            have_common_power(el("a"), el("(a,1)", F2xF2))

    @pytest.mark.parametrize("g, h", [(ONE, el("a")), (el("a"), ONE)], ids=["g", "h"])
    def test_identity_is_refused(self, g, h):
        with pytest.raises(ValueError, match="^common-power check needs nontrivial elements$"):
            have_common_power(g, h)


class TestKitConstruction:
    def test_generator_kit(self, kit2):
        assert [p.render() for p in kit2.pieces] == ["aa", "AA", "bb", "BB"]
        assert kit2.c == 2

    def test_reduced_length_kit(self):
        kit = build_connector_kit(F2, el("ab"), el("ba"), 1)
        assert kit.c == 2
        assert [p.render() for p in kit.pieces] == ["ab", "BA", "ba", "AB"]

    def test_dependent_pair_rejected(self):
        with pytest.raises(DependenceError):
            build_connector_kit(F2, el("a"), el("a"), 2)
        with pytest.raises(DependenceError):
            build_connector_kit(F2, el("ab"), el("ababab"), 1)

    def test_trivial_elements_rejected(self):
        with pytest.raises(ValueError):
            build_connector_kit(F2, ONE, el("b"), 2)

    def test_elements_outside_the_group_are_refused(self):
        with pytest.raises(
            GroupMismatchError, match="^kit elements must live in the stated group$"
        ):
            build_connector_kit(F2xF2, el("a"), el("(b,1)", F2xF2), 1)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            build_connector_kit(F2, el("a"), el("b"), 0)

    def test_coinciding_pieces_rejected_behind_root_check(self, monkeypatch):
        # identical pieces cannot form a kit even if the root check missed them
        monkeypatch.setattr(concat, "have_common_power", lambda g, h: False)
        with pytest.raises(DependenceError, match="coincide"):
            build_connector_kit(F2, el("a"), el("a"), 2)

    def test_product_group_kit(self):
        kit = build_connector_kit(
            F2xF2, el("(a,a)", F2xF2), el("(b,b)", F2xF2), 1
        )
        assert kit.c == 2


class TestSelectConnector:
    def test_opposed_powers_pick_fresh_letter(self, kit2):
        x, score = select_connector(kit2, el("AAA"), el("aaa"))
        assert x.render() == "bb"
        assert score == 0.0

    def test_identity_pair_takes_first_piece(self, kit2):
        x, score = select_connector(kit2, ONE, ONE)
        assert x.render() == "aa"
        assert score == 0.0

    def test_symmetric_case(self, kit2):
        x, score = select_connector(kit2, el("BBB"), el("bbb"))
        assert x.render() == "aa"
        assert score == 0.0

    def test_score_is_the_junction_gromov_product(self, kit2):
        rng = random.Random(13)
        for _ in range(60):
            u, v = random_element(rng, F2), random_element(rng, F2)
            x, score = select_connector(kit2, u, v)
            assert score == max(
                gromov_product(u.inverse(), x, ONE),
                gromov_product(v, x.inverse(), ONE),
            )

    def test_mismatch_rejected(self, kit2):
        with pytest.raises(GroupMismatchError):
            select_connector(kit2, el("(a,a)", F2xF2), ONE)


class TestConcatApply:
    def test_frozen_example(self, kit2):
        w = concat_apply(kit2, el("AAA"), el("aaa"))
        assert w.render() == "AAAbbaaa"
        assert w.length() == 8

    def test_identity_pair(self, kit2):
        assert concat_apply(kit2, ONE, ONE).render() == "aa"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_image_containment(self, kit2, seed):
        rng = random.Random(seed)
        u, v = random_element(rng, F2), random_element(rng, F2)
        w = concat_apply(kit2, u, v)
        assert w.length() <= u.length() + v.length() + kit2.c

    def test_fixed_piece_preimage_is_unique(self, kit2):
        # given the image, u, and the piece, v is forced
        rng = random.Random(17)
        for _ in range(40):
            u, v = random_element(rng, F2), random_element(rng, F2)
            x, _ = select_connector(kit2, u, v)
            w = u * x * v
            assert (u * x).inverse() * w == v


class TestMeasureAmbiguity:
    def test_single_pair_cell(self, kit2):
        rep = measure_ambiguity(kit2, F2, 0, 0)
        assert rep.cell(0, 0).max_fiber == 1

    def test_missing_cell_is_a_key_error(self, kit2):
        rep = measure_ambiguity(kit2, F2, 1, 1)
        with pytest.raises(KeyError) as exc:
            rep.cell(2, 0)
        assert exc.value.args == ((2, 0),)

    def test_kit_of_another_group_is_refused(self, kit2):
        with pytest.raises(GroupMismatchError, match="^kit and domain groups differ$"):
            measure_ambiguity(kit2, F2xF2, 1, 1)
        with pytest.raises(GroupMismatchError, match="^kit and domain groups differ$"):
            fiber_size(kit2, F2xF2, 1, 1, F2xF2.identity())

    def test_target_outside_the_domain_is_refused(self, kit2):
        with pytest.raises(GroupMismatchError, match="^target outside the domain group$"):
            fiber_size(kit2, F2, 1, 1, F2xF2.identity())

    def test_small_grid_frozen_values(self, kit2):
        rep = measure_ambiguity(kit2, F2, 2, 2)
        grid = {(c.s, c.t): c.max_fiber for c in rep.cells}
        assert grid == {
            (0, 0): 1, (0, 1): 1, (0, 2): 1,
            (1, 0): 1, (1, 1): 2, (1, 2): 2,
            (2, 0): 1, (2, 1): 2, (2, 2): 3,
        }
        assert rep.cell(2, 2).argmax.render() == "aaaa"
        assert (rep.slope, rep.intercept) == (1, 1)
        assert rep.violations == ()

    def test_cells_record_radius_and_pairs(self, kit2):
        rep = measure_ambiguity(kit2, F2, 1, 2)
        cell = rep.cell(1, 2)
        assert cell.radius == 1 + 2 + kit2.c
        assert cell.pairs == 5 * 17

    def test_naive_baseline_identity_fiber(self):
        for t in range(5):
            assert fiber_size(None, F2, 2 * t, t, ONE) == free_ball_counts(2, t)[t]

    def test_naive_grid_has_no_connector(self):
        rep = measure_ambiguity(None, F2, 1, 1)
        assert rep.connector == "naive"
        assert rep.c == 0
        # uv = 1 has 5 solutions over B(1) x B(1)
        assert rep.cell(1, 1).max_fiber == 5
        assert rep.cell(1, 1).argmax.is_identity()

    def test_relative_domain(self):
        orc = StallingsOracle(F2, [el("aa"), el("bb")])
        kit = build_connector_kit(F2, el("aa"), el("bb"), 1)
        rep = measure_ambiguity(kit, orc, 4, 4)
        assert rep.domain == "aa,bb"
        assert rep.max_fiber_by_t() == [1, 1, 2, 2, 3]
        assert rep.violations == ()

    def test_diagonal_domain_with_in_subgroup_kit(self):
        diag = diagonal_oracle(F2xF2)
        kit = build_connector_kit(
            F2xF2, el("(a,a)", F2xF2), el("(b,b)", F2xF2), 1
        )
        rep = measure_ambiguity(kit, diag, 4, 4)
        assert rep.max_fiber_by_t() == [1, 1, 2, 2, 3]

    def test_budget_carries_partial_report(self, kit2):
        with pytest.raises(AmbiguityBudgetError) as exc:
            measure_ambiguity(kit2, F2, 2, 2, budget=30)
        partial = exc.value.partial
        assert isinstance(partial, AmbiguityReport)
        assert not partial.complete
        assert len(partial.cells) >= 1

    def test_fiber_size_matches_grid(self, kit2):
        rep = measure_ambiguity(kit2, F2, 2, 2)
        for cell in rep.cells:
            assert fiber_size(kit2, F2, cell.s, cell.t, cell.argmax) == cell.max_fiber

    def test_fiber_size_of_off_image_element_is_zero(self, kit2):
        # b cannot be hit: every image contains a connector block
        assert fiber_size(kit2, F2, 2, 2, el("b")) == 0


    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_kernel_matches_reference(self, seed):
        rng = random.Random(seed)
        group = rng.choice(list(DOMAINS))
        kit = random_kit(rng, group) if rng.random() < 0.8 else None
        spec = rng.choice(DOMAINS[group])
        domain = group if spec is None else parse_subgroup(group, spec)
        budget = rng.choice([DEFAULT_PAIR_BUDGET, rng.randrange(400)])
        assert_matches_reference(kit, domain, rng.randint(0, 3), rng.randint(0, 3), budget)

    @pytest.mark.parametrize(
        "group,kit,spec",
        [
            (F2, ("a", "b", 2), None),
            (F2, None, None),
            (F2, ("ab", "ba", 1), "aab,bAb"),
            (F2, ("a", "b", 1), "cyclic:ab"),
            (F3, ("ab", "c", 2), None),
            (F2xF2, ("(a,a)", "(b,b)", 1), None),
            (F2xF2, ("(a,a)", "(b,b)", 1), "diag"),
            (F1xF2, None, None),
            (F2xF2, ("(a,a)", "(b,b)", 1), "(a,a),(b,b)"),
        ],
    )
    def test_full_grids_match_reference(self, group, kit, spec):
        if kit is not None:
            g, h, n = kit
            kit = build_connector_kit(group, el(g, group), el(h, group), n)
        domain = group if spec is None else parse_subgroup(group, spec)
        assert assert_matches_reference(kit, domain, 3, 3).complete

    @pytest.mark.parametrize(
        "group,g,h,n,grid",
        [
            (F2, "aaaaaaaaaaaa", "b", 2, (2, 2)),
            (F3, "abcabca", "c", 3, (2, 1)),
            (F2xF2, "(aababab,ab)", "(b,aaa)", 3, (1, 2)),
        ],
    )
    def test_long_kits_past_int64_match_reference(self, group, g, h, n, grid):
        kit = build_connector_kit(group, el(g, group), el(h, group), n)
        # image keys stay below 2 B^(s+t+c+nf-1), here past 64 bits
        base = 2 * max(group.ranks) + 1
        assert 2 * base ** (sum(grid) + kit.c + group.num_factors - 1) >= 2**63
        report = assert_matches_reference(kit, group, *grid)
        assert report.complete

    @pytest.mark.parametrize(
        "domain,radius,pairs_needed,last,kept",
        [
            # cells (0,0) .. (4,0) fit: 617 pairs; (4,1) would bring 1422
            (F2, 4, 1422, (4, 0), 9),
            # |B_H(s)| = 1, 1, 5, 5, 17, ...: rows 0..9 take 948; (10,0) would bring 1433
            (StallingsOracle(F2, [el("aa"), el("bb")]), 9, 1433, (9, 1), 20),
        ],
        ids=["F2", "aa_bb"],
    )
    def test_group_budget_is_settled_before_enumerating(
        self, kit2, monkeypatch, domain, radius, pairs_needed, last, kept
    ):
        radii = []
        monkeypatch.setattr(
            concat,
            "relative_ball",
            lambda group, oracle, r: radii.append(r) or relative_ball(group, oracle, r),
        )
        with pytest.raises(AmbiguityBudgetError) as exc:
            measure_ambiguity(kit2, domain, 30, 1, budget=1000)
        assert radii == [radius]
        assert exc.value.pairs_needed == pairs_needed
        assert [(c.s, c.t) for c in exc.value.partial.cells][-1] == last
        assert len(exc.value.partial.cells) == kept

    def test_starved_group_grid_has_no_cells(self, kit2):
        with pytest.raises(AmbiguityBudgetError) as exc:
            measure_ambiguity(kit2, F2, 40, 40, budget=0)
        assert exc.value.partial.cells == ()
        assert exc.value.pairs_needed == 1

class TestConnectorScore:
    @staticmethod
    def max_selected_score(kit, ball):
        """Largest selected junction score over all pairs of the ball."""
        layout = factor_columns(ball.packed, kit.group.num_factors)
        _, left, right = _junctions(kit, ball.packed, layout)
        return int(_worse_junctions(left, right).min(axis=2).max()) / 2

    def test_generator_kit_always_finds_a_clean_piece(self, kit2):
        # u blocks at most one piece and v at most one, so the chosen
        # junctions never cancel at all
        assert self.max_selected_score(kit2, enumerate_ball(F2, 3)) == 0.0

    def test_score_non_increasing_in_exponent(self):
        ball = enumerate_ball(F2, 3)
        scores = []
        for n in (1, 2, 3):
            kit = build_connector_kit(F2, el("ab"), el("ba"), n)
            scores.append(self.max_selected_score(kit, ball))
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))

    @pytest.mark.parametrize(
        "group,g,h,n",
        [(F2, "a", "b", 1), (F2, "a", "b", 2), (F2, "ab", "ba", 1), (F2xF2, "(a,a)", "(b,b)", 1)],
    )
    def test_vectorised_pick_matches_select(self, group, g, h, n):
        kit = build_connector_kit(group, el(g, group), el(h, group), n)
        nf = group.num_factors
        ball = enumerate_ball(group, 3)
        _, left, right = _junctions(kit, ball.packed, factor_columns(ball.packed, nf))
        rights = [_junction_scores(kit, v, nf, left=False) for v in ball.packed]
        assert right.tolist() == [list(r) for r in rights]
        worse = _worse_junctions(left, right)
        picks, scores = worse.argmin(axis=2), worse.min(axis=2)
        ties = 0
        for i, u in enumerate(ball.packed):
            lefts = _junction_scores(kit, u, nf, left=True)
            assert tuple(left[i]) == lefts
            for j, r in enumerate(rights):
                assert (picks[i, j], scores[i, j]) == _select(lefts, r)
                ties += [max(a, b) for a, b in zip(lefts, r)].count(scores[i, j]) > 1
        assert ties > 0  # the first-minimum tie-break is exercised

    @pytest.mark.parametrize("group", [F2, F2xF2])
    def test_naive_junctions_never_cancel(self, group):
        ball = enumerate_ball(group, 2)
        nf = group.num_factors
        prods, left, right = _junctions(
            ConnectorKit.naive(group), ball.packed, factor_columns(ball.packed, nf)
        )
        assert prods == list(ball.packed)
        assert left.shape == (len(ball.packed), 1) and not left.any()
        assert right.shape == (len(ball.packed), 1) and not right.any()

class TestSupermultiplicativity:
    """beta(s)beta(t) <= l(t) beta(s+t+c) is rate's combination check with
    epsilon l, the constant shift c and threshold 0."""

    @staticmethod
    def check(counts, c, l, **bounds):
        hyp = RateHypothesis(epsilon=l, shift=FuncSpec(c), threshold=0)
        return check_hypothesis(counts, hyp, **bounds)

    def test_plain_form_fails_without_connectors(self):
        table = enumerate_ball(F2, 4).counts_by_radius
        res = self.check(table, 0, FuncSpec(1))
        assert not res.ok
        first = res.violations[0]
        assert (first.kind, first.m, first.n) == ("combine", 1, 1)
        assert first.lhs == 25 and first.rhs == 17

    def test_shifted_form_holds_on_free_group(self):
        table = free_ball_counts(2, 18)
        res = self.check(table, 2, FuncSpec(1, 1), m_max=8, n_max=8)
        # 19 positivity and 18 monotonicity checks, then 9 x 9 pairs
        assert res.ok and res.checked == 19 + 18 + 81

    def test_holds_on_squares_subgroup(self):
        orc = StallingsOracle(F2, [el("aa"), el("bb")])
        table = relative_ball_counts(orc, 18)
        assert self.check(table, 2, FuncSpec(1, 1), m_max=8, n_max=8).ok

    def test_trivial_growth_passes_any_envelope(self):
        assert self.check((1,) * 9, 0, FuncSpec(1)).ok

    def test_insufficient_range_rejected(self):
        table = enumerate_ball(F2, 4).counts_by_radius
        with pytest.raises(ValueError):
            self.check(table, 2, FuncSpec(1), m_max=8, n_max=8)

    def test_fractional_envelope_is_exact(self):
        # (25/17 - 10^-20) beta(2) is just under 25 at (1,1): still a
        # violation, although a float epsilon would round the gap away
        eps = Fraction(25, 17) - Fraction(1, 10**20)
        res = self.check(enumerate_ball(F2, 2).counts_by_radius, 0, FuncSpec(eps))
        assert [(v.m, v.n, v.lhs, v.rhs) for v in res.violations] == [(1, 1, 25, eps * 17)]
