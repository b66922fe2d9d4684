"""Membership oracles: folded graphs with labels, cyclic powers, products."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.cayley import enumerate_ball, relative_ball
from growthlab.errors import (
    BudgetError,
    GroupMismatchError,
    OracleBudgetError,
    UnsupportedConfigurationError,
)
from growthlab.subgroups import (
    BudgetedEnumerationOracle,
    CyclicOracle,
    FoldConflict,
    ProductOracle,
    StallingsOracle,
    WholeGroupOracle,
    _by_sphere,
    cyclic_core,
    diagonal_oracle,
    fold_graph,
    oracle_for_generators,
    parse_subgroup,
)
from growthlab.words import (
    Element,
    GroupDescriptor,
    free_group,
    parse_element,
    parse_word_bytes,
    product_group,
    reduce_letter_bytes,
)

F2 = free_group(2)
F2xF2 = product_group(2, 2)
F2xF1 = product_group(2, 1)


def el(text, group=F2):
    return parse_element(group, text)


def brute_products(generators, max_factors):
    """All products of at most max_factors generators or inverses."""
    group = generators[0].group
    alphabet = []
    for g in generators:
        alphabet.append(g)
        alphabet.append(g.inverse())
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(max_factors):
        nxt = []
        for u in frontier:
            for s in alphabet:
                v = u * s
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def random_element(rng, group, max_len=6):
    gens = group.symmetric_generators()
    g = group.identity()
    for _ in range(rng.randrange(max_len + 1)):
        g = g * rng.choice(gens)
    return g


class TestStallings:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unlabelled_spheres_need_no_sort(self, data):
        # generators that read w on some factors (the folded one and its
        # copies) and 1 on the rest fold with every label trivial
        group = data.draw(st.sampled_from([
            F2, free_group(3), F2xF2, product_group(2, 1, 2), product_group(2, 2, 2),
            product_group(1, 2, 2),
        ]))
        nf = group.num_factors
        placed = data.draw(st.sets(st.integers(0, nf - 1), min_size=1))
        rank = min(group.ranks[j] for j in placed)
        words = data.draw(st.lists(
            st.lists(st.integers(1, 2 * rank), max_size=4).map(reduce_letter_bytes),
            max_size=3,
        ))
        gens = [
            Element(group, b"\x00".join(w if j in placed else b"" for j in range(nf)))
            for w in words
        ]
        orc = StallingsOracle(group, gens)
        assert not orc.graph.labels
        radius = data.draw(st.integers(0, 8))
        closed = itertools.chain.from_iterable(orc._closed_words(radius // orc.spread))
        want = _by_sphere(map(orc._member, closed), radius, nf)
        assert orc.relative_spheres(radius) == (want, [0] * (radius + 1))

    def test_squares_subgroup(self):
        orc = StallingsOracle(F2, [el("aa"), el("bb")])
        assert orc.contains(el("aa")) is True
        assert orc.contains(el("aabb")) is True
        assert orc.contains(el("AAbb")) is True
        assert orc.contains(el("a")) is False
        assert orc.contains(el("ab")) is False
        assert orc.contains(F2.identity()) is True

    def test_single_generator_matches_cyclic(self):
        rng = random.Random(5)
        for _ in range(20):
            z = random_element(rng, F2, 4)
            if z.is_identity():
                continue
            st_orc = StallingsOracle(F2, [z])
            cy_orc = CyclicOracle(F2, z)
            for _ in range(30):
                g = random_element(rng, F2, 6)
                assert st_orc.contains(g) == cy_orc.contains(g), (z.render(), g.render())

    def test_conjugated_subgroup(self):
        # <bab^-1> contains exactly conjugated powers of a
        orc = StallingsOracle(F2, [el("baB")])
        assert orc.contains(el("baB")) is True
        assert orc.contains(el("baaaB")) is True
        assert orc.contains(el("a")) is False
        assert orc.contains(el("bAB")) is True

    def test_random_subgroups_against_brute_force(self):
        rng = random.Random(11)
        trials = 0
        while trials < 20:
            g1 = random_element(rng, F2, 5)
            g2 = random_element(rng, F2, 5)
            if g1.is_identity() or g2.is_identity():
                continue
            trials += 1
            orc = StallingsOracle(F2, [g1, g2])
            members = brute_products([g1, g2], 5)
            for h in members:
                assert orc.contains(h) is True, (g1.render(), g2.render(), h.render())
            # anything the oracle rejects must be absent from the closure sample
            for _ in range(50):
                g = random_element(rng, F2, 8)
                if orc.contains(g) is False:
                    assert g not in members

    def test_budgeted_true_implies_graph_true(self):
        rng = random.Random(19)
        for _ in range(10):
            g1, g2 = random_element(rng, F2, 4), random_element(rng, F2, 4)
            if g1.is_identity() or g2.is_identity():
                continue
            graph_orc = StallingsOracle(F2, [g1, g2])
            bud = BudgetedEnumerationOracle(F2, [g1, g2], radius=5)
            for _ in range(40):
                g = random_element(rng, F2, 6)
                b = bud.contains(g)
                assert b in (True, None)
                if b is True:
                    assert graph_orc.contains(g) is True

    def test_rejects_mixed_factor_generators(self):
        # (1,a) folds to an empty loop labelled a over factor 0, and (a,1)
        # to one labelled a over factor 1: no factor's fold is a graph
        with pytest.raises(UnsupportedConfigurationError):
            StallingsOracle(F2xF2, [el("(a,1)", F2xF2), el("(1,a)", F2xF2)])

    def test_second_factor_subgroup_of_product(self):
        orc = StallingsOracle(F2xF2, [el("(1,a)", F2xF2), el("(1,b)", F2xF2)])
        assert orc.contains(el("(1,abA)", F2xF2)) is True
        assert orc.contains(el("(a,b)", F2xF2)) is False


# Pinned fold_graph results as canonical_key() parts:
# (rank, generator words, vertex count, edges as (from, letter byte, to)).
FOLD_GOLDEN = [
    (2, [], 1, ()),
    (2, ["aa", "aaa"], 1, (
        (0, 1, 0), (0, 2, 0),
    )),
    (2, ["abAB", "baBA"], 4, (
        (0, 1, 1), (0, 3, 2), (1, 2, 0), (1, 3, 3), (2, 1, 3), (2, 4, 0), (3, 2, 2),
        (3, 4, 1),
    )),
    (2, ["baB"], 2, (
        (0, 3, 1), (1, 1, 1), (1, 2, 1), (1, 4, 0),
    )),
    (2, ["ab", "ab"], 2, (
        (0, 1, 1), (0, 4, 1), (1, 2, 0), (1, 3, 0),
    )),
    (2, ["a", "b"], 1, (
        (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0),
    )),
    (3, ["a", "b", "c"], 1, (
        (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (0, 5, 0), (0, 6, 0),
    )),
    (2, ["aa", "bb", "ab"], 2, (
        (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 1, 0), (1, 2, 0), (1, 3, 0),
        (1, 4, 0),
    )),
    (2, ["aabA", "bbaB"], 5, (
        (0, 1, 1), (0, 3, 2), (1, 1, 3), (1, 2, 0), (1, 4, 3), (2, 2, 4), (2, 3, 4),
        (2, 4, 0), (3, 2, 1), (3, 3, 1), (4, 1, 2), (4, 4, 2),
    )),
    (2, ["abab", "bAbA"], 6, (
        (0, 1, 1), (0, 3, 2), (0, 4, 3), (1, 2, 0), (1, 3, 4), (1, 4, 5), (2, 2, 5),
        (2, 4, 0), (3, 2, 4), (3, 3, 0), (4, 1, 3), (4, 4, 1), (5, 1, 2), (5, 3, 1),
    )),
    (2, ["abbaB"], 5, (
        (0, 1, 1), (0, 3, 2), (1, 2, 0), (1, 3, 3), (2, 2, 4), (2, 4, 0), (3, 3, 4),
        (3, 4, 1), (4, 1, 2), (4, 4, 3),
    )),
    (2, ["aaBBa", "abAB"], 7, (
        (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 1, 4), (1, 2, 0), (1, 3, 5), (2, 1, 0),
        (2, 3, 6), (3, 1, 5), (3, 4, 0), (4, 2, 1), (4, 4, 6), (5, 2, 3), (5, 4, 1),
        (6, 3, 4), (6, 4, 2),
    )),
    (3, ["abcABC"], 6, (
        (0, 1, 1), (0, 5, 2), (1, 2, 0), (1, 3, 3), (2, 3, 4), (2, 6, 0), (3, 4, 1),
        (3, 5, 5), (4, 1, 5), (4, 4, 2), (5, 2, 4), (5, 6, 3),
    )),
    (3, ["aBcb", "cabC"], 6, (
        (0, 1, 1), (0, 4, 2), (0, 5, 3), (1, 2, 0), (1, 4, 4), (2, 3, 0), (2, 6, 4),
        (3, 1, 5), (3, 4, 5), (3, 6, 0), (4, 3, 1), (4, 5, 2), (5, 2, 3), (5, 3, 3),
    )),
    (2, ["aabb", "abab", "bbaa"], 8, (
        (0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4), (1, 1, 5), (1, 2, 0), (1, 3, 6),
        (2, 1, 0), (2, 2, 7), (3, 3, 7), (3, 4, 0), (4, 2, 6), (4, 3, 0), (4, 4, 5),
        (5, 2, 1), (5, 3, 4), (6, 1, 4), (6, 4, 1), (7, 1, 2), (7, 4, 3),
    )),
    (2, ["abaB", "aba"], 3, (
        (0, 1, 1), (0, 2, 2), (0, 3, 0), (0, 4, 0), (1, 2, 0), (1, 3, 2), (2, 1, 0),
        (2, 4, 1),
    )),
]


class TestFoldingConfluence:
    @pytest.mark.parametrize(
        "rank,words,vertices,edges",
        FOLD_GOLDEN,
        ids=[",".join(words) or "empty" for _, words, _, _ in FOLD_GOLDEN],
    )
    def test_folded_graph_is_pinned(self, rank, words, vertices, edges):
        graph = fold_graph([parse_word_bytes(w, rank) for w in words])
        assert graph.num_vertices == vertices
        assert graph.canonical_key() == (vertices, edges)

    def test_generator_order_is_irrelevant(self):
        rng = random.Random(23)
        for _ in range(15):
            gens = [random_element(rng, F2, 5) for _ in range(3)]
            gens = [g for g in gens if not g.is_identity()]
            if not gens:
                continue
            loops = [g.packed for g in gens]
            key = fold_graph(loops).canonical_key()
            for _ in range(4):
                rng.shuffle(loops)
                assert fold_graph(loops).canonical_key() == key

    def test_inverting_generators_preserves_graph(self):
        rng = random.Random(29)
        for _ in range(15):
            g1, g2 = random_element(rng, F2, 5), random_element(rng, F2, 5)
            if g1.is_identity() or g2.is_identity():
                continue
            a = fold_graph([g1.packed, g2.packed])
            b = fold_graph([g1.inverse().packed, g2.inverse().packed])
            assert a.canonical_key() == b.canonical_key()

    def test_nielsen_move_preserves_graph(self):
        # {u, v} and {u, uv} generate the same subgroup
        rng = random.Random(31)
        for _ in range(15):
            u, v = random_element(rng, F2, 5), random_element(rng, F2, 5)
            if u.is_identity() or v.is_identity() or (u * v).is_identity():
                continue
            a = fold_graph([u.packed, v.packed])
            b = fold_graph([u.packed, (u * v).packed])
            assert a.canonical_key() == b.canonical_key()

    def test_whole_group_folds_to_a_point(self):
        g = fold_graph([el("a").packed, el("b").packed])
        assert g.num_vertices == 1


class TestCyclic:
    def test_core_splits_conjugated_word(self):
        z, c = cyclic_core(parse_word_bytes("baB", 2))
        assert z == parse_word_bytes("b", 2)
        assert c == parse_word_bytes("a", 2)

    def test_core_of_cyclically_reduced_word(self):
        z, c = cyclic_core(parse_word_bytes("ab", 2))
        assert z == b""
        assert c == parse_word_bytes("ab", 2)

    def test_powers_and_non_powers(self):
        orc = CyclicOracle(F2, el("ab"))
        assert orc.contains(el("abab")) is True
        assert orc.contains(el("BABA")) is True
        assert orc.contains(F2.identity()) is True
        assert orc.contains(el("aba")) is False
        assert orc.contains(el("ba")) is False

    def test_conjugated_generator(self):
        orc = CyclicOracle(F2, el("baB"))
        assert orc.contains(el("baaB")) is True
        assert orc.contains(el("bAAAB")) is True
        assert orc.contains(el("aa")) is False

    def test_trivial_generator_gives_trivial_subgroup(self):
        orc = CyclicOracle(F2, F2.identity())
        assert orc.contains(F2.identity()) is True
        assert orc.contains(el("a")) is False

    @given(st.integers(min_value=-8, max_value=8))
    def test_every_power_is_a_member(self, k):
        z = el("aBab")
        orc = CyclicOracle(F2, z)
        assert orc.contains(z**k) is True

    def test_product_group_cyclic(self):
        orc = CyclicOracle(F2xF2, el("(ab,b)", F2xF2))
        assert orc.contains(el("(abab,bb)", F2xF2)) is True
        assert orc.contains(el("(ab,bb)", F2xF2)) is False


class TestProductAndPullback:
    def test_product_oracle_componentwise(self):
        orc = ProductOracle(
            F2xF2,
            [CyclicOracle(F2, el("a")), StallingsOracle(F2, [el("bb")])],
        )
        assert orc.contains(el("(aaa,bb)", F2xF2)) is True
        assert orc.contains(el("(aaa,b)", F2xF2)) is False
        assert orc.contains(el("(b,bb)", F2xF2)) is False

    @pytest.mark.parametrize("group,count", [(F2xF2, 1), (F2, 2)])
    def test_product_needs_one_oracle_per_factor(self, group, count):
        with pytest.raises(UnsupportedConfigurationError, match="one factor oracle per ambient"):
            ProductOracle(group, [CyclicOracle(F2, el("a"))] * count)

    @pytest.mark.parametrize(
        "rank,message",
        [
            (2, "factor oracle 1 is over free:2, expected free:1"),
            (1, "factor oracle 0 is over free:1, expected free:2"),
        ],
    )
    def test_product_factor_oracle_over_the_wrong_group(self, rank, message):
        # both factor oracles over free:rank, against F2xF1's free:2 and free:1
        group = free_group(rank)
        with pytest.raises(UnsupportedConfigurationError, match=message):
            ProductOracle(F2xF1, [CyclicOracle(group, el("a", group))] * 2)

    def test_diagonal_membership(self):
        orc = diagonal_oracle(F2xF2)
        assert orc.contains(el("(ab,ab)", F2xF2)) is True
        assert orc.contains(el("(ab,ba)", F2xF2)) is False
        assert orc.contains(F2xF2.identity()) is True

    def test_diagonal_needs_equal_ranks(self):
        with pytest.raises(UnsupportedConfigurationError):
            diagonal_oracle(F2xF1)

    def test_twisted_graph_membership(self):
        # phi swaps the generators; members are (w, phi(w))
        orc = StallingsOracle(F2xF2, [el("(a,b)", F2xF2), el("(b,a)", F2xF2)])
        assert orc.contains(el("(ab,ba)", F2xF2)) is True
        assert orc.contains(el("(ab,ab)", F2xF2)) is False

    def test_pullback_with_base(self):
        # only squares in the source factor, diagonal images
        orc = StallingsOracle(F2xF2, [el("(aa,aa)", F2xF2), el("(bb,bb)", F2xF2)])
        assert orc.spread == 2 and not orc.graph.labels
        assert orc.contains(el("(aabb,aabb)", F2xF2)) is True
        assert orc.contains(el("(ab,ab)", F2xF2)) is False
        assert orc.contains(el("(aa,bb)", F2xF2)) is False

    def test_non_injective_image_refutes_with_a_proof(self):
        # phi(a) = phi(b) = a kills b a^-1, yet a member is still fixed by its
        # first word: the only one whose first word is ab is (ab, phi(ab)) =
        # (ab,aa), so False for (ab,ba) is a proof
        orc = StallingsOracle(F2xF2, [el("(a,a)", F2xF2), el("(b,a)", F2xF2)])
        assert orc.contains(el("(ab,aa)", F2xF2)) is True
        assert orc.contains(el("(ab,ba)", F2xF2)) is False


# (ambient group, generators, factor folded without conflict or None)
FOLD_FACTORS = [
    (F2xF2, "(a,a),(b,b)", 0),
    (F2xF2, "(B,B),(a,a)", 0),
    (F2xF2, "(a,a),(1,b)", 1),
    (F2xF2, "(ab,1),(B,a)", 0),
    (F2xF2, "(1,a),(1,b)", 1),
    (F2xF2, "(a,1),(1,a)", None),
    (F2xF2, "(ab,a),(ba,b),(a,bb),(b,ab)", None),
]


class TestLabelledFolding:
    @pytest.mark.parametrize("group,spec,factor", FOLD_FACTORS)
    def test_first_factor_without_conflict(self, group, spec, factor):
        gens = [el(g, group) for g in spec.replace("),(", ");(").split(";")]
        orc = oracle_for_generators(group, gens)
        if factor is None:
            assert isinstance(orc, BudgetedEnumerationOracle)
            with pytest.raises(FoldConflict):
                StallingsOracle(group, gens)
        else:
            assert isinstance(orc, StallingsOracle) and orc.factor == factor
        assert orc.spec_string() == spec

    @pytest.mark.parametrize("spec", ["(a,a),(b,b)", "(B,B),(a,a)"])
    def test_diagonal_generators_give_the_diagonal_ball(self, spec):
        orc = parse_subgroup(F2xF2, spec)
        diag = diagonal_oracle(F2xF2)
        for radius in (2, 4, 6, 7):
            assert relative_ball(F2xF2, orc, radius) == relative_ball(F2xF2, diag, radius)
            assert orc.sphere_counts(radius) == diag.sphere_counts(radius)

    def test_labels_read_the_image(self):
        # over factor 1, a reads a in factor 0 and b reads nothing
        orc = parse_subgroup(F2xF2, "(a,a),(1,b)")
        assert orc.contains(el("(a,abAba)", F2xF2)) is True
        assert orc.contains(el("(aa,abAba)", F2xF2)) is False
        assert orc.contains(el("(a,ba)", F2xF2)) is True
        assert orc.contains(el("(1,a)", F2xF2)) is False
        with pytest.raises(UnsupportedConfigurationError, match="labelled"):
            orc.sphere_counts(4)

    def test_conflicting_labels_on_one_edge(self):
        # a read with labels a and b over factor 0 puts (1, a^-1 b) in H
        a, b = parse_word_bytes("a", 2), parse_word_bytes("b", 2)
        with pytest.raises(FoldConflict):
            fold_graph([a, a], [b"\x00" + a, b"\x00" + b], 2)
        orc = StallingsOracle(F2xF2, [el("(a,a)", F2xF2), el("(a,b)", F2xF2)])
        assert orc.factor == 1
        assert orc.contains(el("(aa,ab)", F2xF2)) is True

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_folded_lists_are_exact(self, data):
        group = data.draw(st.sampled_from([F2xF2, F2xF1, product_group(1, 1, 1)]))
        words = [
            st.lists(st.integers(1, 2 * rank), max_size=3).map(reduce_letter_bytes)
            for rank in group.ranks
        ]
        element = st.tuples(*words).map(lambda ws: Element(group, b"\x00".join(ws)))
        gens = data.draw(st.lists(element, min_size=1, max_size=3))
        try:
            orc = StallingsOracle(group, gens)
        except FoldConflict:
            return
        radius = 4
        spheres, unknown = orc.relative_spheres(radius)
        ball = enumerate_ball(group, radius)
        filtered = [p for p in ball.packed if orc.contains_packed(p)]
        assert [p for sphere in spheres for p in sphere] == filtered
        assert unknown == [0] * (radius + 1)
        if not orc.graph.labels:
            assert orc.sphere_counts(radius) == list(map(len, spheres))
        budgeted = BudgetedEnumerationOracle(group, gens, radius=3)
        assert all(orc.contains_packed(p) for p in budgeted.known)


class TestBudgeted:
    def test_never_answers_false(self):
        orc = BudgetedEnumerationOracle(F2, [el("aa"), el("bb")], radius=4)
        rng = random.Random(37)
        for _ in range(200):
            g = random_element(rng, F2, 7)
            assert orc.contains(g) is not False

    def test_finds_short_members(self):
        orc = BudgetedEnumerationOracle(F2, [el("aa"), el("bb")], radius=3)
        assert orc.contains(el("aabb")) is True
        assert orc.contains(el("AAbb")) is True
        assert orc.contains(el("a")) is None

    def test_element_cap_is_a_budget_error(self):
        # radius 1 holds 5 elements of <aa,bb>, radius 2 another 12; building
        # the oracle enumerates nothing, so the overrun comes when it is asked
        orc = BudgetedEnumerationOracle(F2, [el("aa"), el("bb")], radius=4, element_cap=10)
        with pytest.raises(OracleBudgetError) as exc:
            orc.contains(el("aa"))
        assert isinstance(exc.value, BudgetError)
        assert (exc.value.cap, exc.value.radius_reached, exc.value.target_radius) == (10, 1, 4)
        # a failed enumeration is not kept, so asking again fails again
        with pytest.raises(OracleBudgetError):
            orc.known
        with pytest.raises(OracleBudgetError):
            BudgetedEnumerationOracle(F2, [el("aa"), el("bb")], radius=4, element_cap=0).known
        assert len(BudgetedEnumerationOracle(F2, [el("aa"), el("bb")], radius=2, element_cap=17).known) == 17

    def test_mixed_factor_generators_supported(self):
        orc = BudgetedEnumerationOracle(
            F2xF2, [el("(a,b)", F2xF2), el("(b,a)", F2xF2)], radius=3
        )
        assert orc.contains(el("(ab,ba)", F2xF2)) is True
        assert orc.contains(el("(a,a)", F2xF2)) is None


class TestParseSubgroup:
    def test_generator_list(self):
        orc = parse_subgroup(F2, "aa,bb")
        assert isinstance(orc, StallingsOracle)
        assert orc.contains(el("aabb")) is True

    def test_cyclic_form(self):
        orc = parse_subgroup(F2, "cyclic:ab")
        assert isinstance(orc, CyclicOracle)
        assert orc.contains(el("abab")) is True

    def test_diag_form(self):
        orc = parse_subgroup(F2xF2, "diag")
        assert orc.contains(el("(ba,ba)", F2xF2)) is True

    def test_prod_form(self):
        orc = parse_subgroup(F2xF2, "prod(cyclic:a;bb)")
        assert isinstance(orc, ProductOracle)
        assert orc.contains(el("(aa,bb)", F2xF2)) is True
        assert orc.contains(el("(b,bb)", F2xF2)) is False

    def test_mixed_factor_generators_fall_back_to_budgeted(self):
        # (a,b),(b,a) folds over factor 0; (a,1),(1,a) conflicts on both
        assert isinstance(parse_subgroup(F2xF2, "(a,b),(b,a)"), StallingsOracle)
        orc = parse_subgroup(F2xF2, "(a,1),(1,a)")
        assert isinstance(orc, BudgetedEnumerationOracle)

    @pytest.mark.parametrize("group,spec", [(F2, "aa"), (F2xF2, "(ab,B)"), (F2xF2, "(1,a)")])
    def test_one_generator_list_is_cyclic(self, group, spec):
        # the list keeps its spelling; the fold of one loop has the same members
        orc = parse_subgroup(group, spec)
        assert isinstance(orc, CyclicOracle) and orc.spec_string() == spec
        folded = StallingsOracle(group, orc.generators)
        assert relative_ball(group, orc, 6) == relative_ball(group, folded, 6)

    def test_spec_string_round_trip(self):
        for text in ["aa,bb", "cyclic:ab", "diag", "prod(cyclic:a;bb)"]:
            grp = F2xF2 if text in ("diag", "prod(cyclic:a;bb)") else F2
            orc = parse_subgroup(grp, text)
            again = parse_subgroup(grp, orc.spec_string())
            assert again.spec_string() == orc.spec_string()


class TestWholeGroup:
    def test_generators_are_built_only_when_asked(self, monkeypatch):
        # a whole group's generators are validated Elements that no
        # enumeration reads, so building the oracle must not build them
        calls = []
        generators = GroupDescriptor.generators

        def recording(group):
            calls.append(group)
            return generators(group)

        monkeypatch.setattr(GroupDescriptor, "generators", recording)
        oracle = WholeGroupOracle(F2xF2)
        enumerate_ball(F2xF2, 2)
        assert calls == []
        assert oracle.generators == generators(F2xF2)
        assert oracle.generators is oracle.generators
        assert calls == [F2xF2]

    def test_spheres_come_one_at_a_time(self):
        # a free group's as letter matrices, a product's as joined words
        spheres, unknown = WholeGroupOracle(F2).relative_spheres(3)
        assert unknown == [0] * 4
        first = next(spheres)
        assert isinstance(first, np.ndarray) and first.shape == (1, 0)
        assert [sphere.shape for sphere in spheres] == [(4, 1), (12, 2), (36, 3)]
        spheres, _ = WholeGroupOracle(F2xF2).relative_spheres(2)
        assert next(spheres) == [b"\x00"]
        assert [len(sphere) for sphere in spheres] == [8, 40]


class TestOracleValidation:
    def test_wrong_group_rejected(self):
        orc = StallingsOracle(F2, [el("aa")])
        with pytest.raises(GroupMismatchError):
            orc.contains(el("(a,a)", F2xF2))

    def test_generator_outside_the_group_is_refused(self):
        outside = el("(a,a)", F2xF2)
        with pytest.raises(UnsupportedConfigurationError, match="^generator outside the group$"):
            StallingsOracle(F2, [el("b"), outside])
        with pytest.raises(UnsupportedConfigurationError, match="^generator outside the group$"):
            CyclicOracle(F2, outside)
