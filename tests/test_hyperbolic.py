"""Gromov products, four-point delta, acylindricity."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import hyperbolic
from growthlab.cayley import enumerate_ball
from growthlab.errors import (
    BallBudgetError,
    GroupMismatchError,
    TupleBudgetError,
)
from growthlab.hyperbolic import (
    AcylindricityReport,
    FiniteMetric,
    acylindricity_witnesses,
    check_equivariance,
    estimate_delta,
    gromov_product,
)
from growthlab.words import Element, distance, free_group, parse_element, product_group

F2 = free_group(2)
F2xF1 = product_group(2, 1)
ONE = F2.identity()


def el(text, group=F2):
    return parse_element(group, text)


def geodesic(p, q):
    """Vertices of the free-group geodesic from p to q: p times each prefix of p^-1 q."""
    u = (p.inverse() * q).packed
    return [p * Element(p.group, u[:i]) for i in range(len(u) + 1)]


def random_element(rng, group, max_len=6):
    gens = group.symmetric_generators()
    g = group.identity()
    for _ in range(rng.randrange(max_len + 1)):
        g = g * rng.choice(gens)
    return g


def reference_scan(d2):
    """Every ordered quadruple, basepoint by basepoint: the largest defect
    4((x.z)_o ^ (z.y)_o - (x.y)_o), witnessed by the first (o, x) that
    reaches it, its first argmax y and first argmax z."""
    best = 0
    witness = (0, 0, 0, 0)
    for o in range(d2.shape[0]):
        g4 = np.add.outer(d2[:, o], d2[:, o]) - d2
        for x in range(d2.shape[0]):
            row = g4[x]
            maxmin = np.minimum(row[:, None], g4).max(axis=0)
            defects = maxmin - row
            y = int(defects.argmax())
            if defects[y] > best:
                best = int(defects[y])
                z = int(np.minimum(row, g4[:, y]).argmax())
                witness = (o, x, y, z)
    return best, witness


def reference_random(d2, trials, seed):
    """One trial at a time: the first trial with the largest positive defect."""
    rng = random.Random(seed)
    n = d2.shape[0]

    def g4(o, i, j):
        return int(d2[i, o]) + int(d2[j, o]) - int(d2[i, j])

    best, witness = 0, (0, 0, 0, 0)
    for _ in range(trials):
        o, x, y, z = (rng.randrange(n) for _ in range(4))
        defect = min(g4(o, x, z), g4(o, z, y)) - g4(o, x, y)
        if defect > best:
            best, witness = defect, (o, x, y, z)
    return best, witness


def reference_witnesses(group, x, y, epsilon):
    """Every w in B(epsilon) conjugated by x as elements, kept when
    d(y, gy) <= epsilon by a direct distance, in shortlex order."""
    x_inv = x.inverse()
    found = [x * w * x_inv for w in enumerate_ball(group, epsilon)]
    found = [g for g in found if distance(y, g * y) <= epsilon]
    return tuple(sorted(found, key=lambda g: g.sort_key()))


@st.composite
def acyl_cases(draw):
    """A free group of rank 1-3 with epsilon <= 4, or a product of up to
    three factors with epsilon <= 3, and two random basepoints of length
    at most 6."""
    ranks = draw(
        st.sampled_from(
            [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (2, 1, 1), (1, 2, 1)]
        )
    )
    group = product_group(*ranks)
    epsilon = draw(st.integers(0, 4 if len(ranks) == 1 else 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return group, random_element(rng, group), random_element(rng, group), epsilon


@st.composite
def finite_metrics(draw):
    """Shortest-path metrics of complete graphs with doubled edge weights
    1..9 (odd ones are half-integer distances), sometimes scaled so the
    doubled distances need more than 8 bits."""
    n = draw(st.integers(min_value=1, max_value=12))
    weights = draw(st.lists(st.integers(1, 9), min_size=n * n, max_size=n * n))
    d = np.array(weights, dtype=np.int64).reshape(n, n)
    d = np.minimum(d, d.T) * draw(st.sampled_from([1, 1, 100]))
    np.fill_diagonal(d, 0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return FiniteMetric(tuple(f"p{i}" for i in range(n)), d)


def c4_metric():
    d = 2 * np.array(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=np.int64
    )
    return FiniteMetric(("p0", "p1", "p2", "p3"), d)


class TestGromovProduct:
    def test_common_prefix_length_in_tree(self):
        assert gromov_product(el("aaa"), el("ab"), ONE) == 1.0

    def test_degenerate_forms(self):
        x, o = el("abA"), el("b")
        assert gromov_product(x, x, o) == distance(x, o)
        assert gromov_product(x, el("ba"), x) == 0.0

    def test_mismatch_rejected(self):
        with pytest.raises(GroupMismatchError):
            gromov_product(el("a"), el("(a,a)", F2xF1), ONE)

    def test_symmetry_and_bound(self):
        rng = random.Random(2)
        for _ in range(100):
            x, y, o = (random_element(rng, F2) for _ in range(3))
            p = gromov_product(x, y, o)
            assert p == gromov_product(y, x, o)
            assert 0 <= p <= min(distance(x, o), distance(y, o))
            assert (2 * p) == int(2 * p)

    def test_equivariance(self):
        rng = random.Random(4)
        for group in (F2, F2xF1):
            for _ in range(100):
                g, x, y, z = (random_element(rng, group) for _ in range(4))
                assert check_equivariance(g, x, y, z)

    def test_identity_translation_is_trivially_equivariant(self):
        assert check_equivariance(ONE, el("a"), el("b"), el("ab"))


class TestFiniteMetric:
    def test_from_elements_matches_word_metric(self):
        elems = [ONE, el("a"), el("ab"), el("B")]
        m = FiniteMetric.from_elements(elems)
        for i, g in enumerate(elems):
            for j, h in enumerate(elems):
                assert m.distance(i, j) == distance(g, h)

    def test_rejects_asymmetry(self):
        d = np.array([[0, 2], [4, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="asymmetric"):
            FiniteMetric(("x", "y"), d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[2, 2], [2, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="diagonal"):
            FiniteMetric(("x", "y"), d)

    def test_rejects_triangle_violation(self):
        d = 2 * np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetric(("x", "y", "z"), d)

    def test_rejects_triangle_violation_past_eight_bits(self):
        # 2 max(d) = 2000 needs 16 bits; a near-miss must still be caught
        d = 2 * np.array([[0, 250, 501], [250, 0, 250], [501, 250, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetric(("x", "y", "z"), d)
        d[0, 2] = d[2, 0] = 1000
        assert FiniteMetric(("x", "y", "z"), d).distance(0, 2) == 500

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 1, 2), (1, 3), (2, 2)]),
        st.integers(0, 10**6),
    )
    def test_from_elements_matches_pairwise_distance(self, ranks, seed):
        # random samples, not balls: words of mixed lengths in any order
        rng = random.Random(seed)
        group = product_group(*ranks)
        elems = list(dict.fromkeys(random_element(rng, group, 7) for _ in range(rng.randrange(1, 25))))
        rng.shuffle(elems)
        m = FiniteMetric.from_elements(elems)
        assert m.dist2.dtype == np.int64
        for i, g in enumerate(elems):
            for j, h in enumerate(elems):
                assert m.dist2[i, j] == 2 * distance(g, h)

    def test_from_elements_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError, match="empty"):
            FiniteMetric.from_elements([])
        with pytest.raises(GroupMismatchError):
            FiniteMetric.from_elements([ONE, F2xF1.identity()])

    def test_rejects_indiscernible_points(self):
        d = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="distance zero"):
            FiniteMetric(("x", "y"), d)

    def test_rejects_negative_entry(self):
        d = np.array([[0, -2], [-2, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="negative"):
            FiniteMetric(("x", "y"), d)

    def test_rejects_entries_whose_gromov_sums_overflow(self):
        # doubled entries up to 8e18 fit in int64, but gromov4's sums do not
        c4 = c4_metric()
        with pytest.raises(ValueError, match="above"):
            FiniteMetric(c4.labels, c4.dist2 * 2 * 10**18)
        at_bound = FiniteMetric(c4.labels, c4.dist2 << 59)
        assert at_bound.dist2.max() == hyperbolic.MAX_DIST2
        assert estimate_delta(at_bound).delta == 2.0**59
        assert estimate_delta(at_bound, "random", trials=200).delta == 2.0**59


class TestEstimateDelta:
    def test_tree_sample_is_zero_hyperbolic(self):
        m = FiniteMetric.from_ball(enumerate_ball(F2, 3))
        est = estimate_delta(m)
        assert est.delta == 0.0
        assert est.tuples_checked == m.size**4

    def test_product_sample_is_positive(self):
        m = FiniteMetric.from_ball(enumerate_ball(F2xF1, 2))
        assert estimate_delta(m).delta > 0

    def test_four_cycle_needs_one(self):
        est = estimate_delta(c4_metric())
        assert est.delta == 1.0
        assert len(est.witness) == 4

    def test_single_point(self):
        m = FiniteMetric(("p",), np.zeros((1, 1), dtype=np.int64))
        assert estimate_delta(m).delta == 0.0

    def test_cap_refusal(self):
        m = FiniteMetric.from_ball(enumerate_ball(F2, 2))
        with pytest.raises(TupleBudgetError):
            estimate_delta(m, tuple_cap=100)

    def test_random_mode_is_reproducible_lower_bound(self):
        m = c4_metric()
        exact = estimate_delta(m).delta
        r1 = estimate_delta(m, "random", trials=300, seed=9)
        r2 = estimate_delta(m, "random", trials=300, seed=9)
        assert r1 == r2
        assert r1.delta <= exact

    @settings(max_examples=60, deadline=None)
    @given(finite_metrics())
    def test_exhaustive_matches_reference_scan(self, m):
        best, witness = reference_scan(m.dist2)
        est = estimate_delta(m)
        assert est.delta == best / 4
        assert est.witness == tuple(m.labels[i] for i in witness)
        assert est.tuples_checked == m.size**4

    def test_exhaustive_matches_reference_scan_on_balls(self):
        for group, r in ((F2, 2), (F2xF1, 2), (product_group(1, 1, 1), 2)):
            m = FiniteMetric.from_ball(enumerate_ball(group, r))
            best, witness = reference_scan(m.dist2)
            est = estimate_delta(m)
            assert (est.delta, est.witness) == (best / 4, tuple(m.labels[i] for i in witness))

    @settings(max_examples=40, deadline=None)
    @given(finite_metrics(), st.integers(1, 400), st.integers(0, 2**62))
    def test_random_matches_reference_loop(self, m, trials, seed):
        best, witness = reference_random(m.dist2, trials, seed)
        est = estimate_delta(m, "random", trials=trials, seed=seed)
        assert est.delta == best / 4
        assert est.witness == tuple(m.labels[i] for i in witness)
        assert est.tuples_checked == trials

    def test_random_batches_keep_the_first_largest_trial(self, monkeypatch):
        # batches of 7 trials: a later batch must not take over a tie
        m = FiniteMetric.from_ball(enumerate_ball(F2xF1, 2))
        monkeypatch.setattr(hyperbolic, "_TRIAL_CHUNK", 7)
        for seed in range(20):
            best, witness = reference_random(m.dist2, 50, seed)
            est = estimate_delta(m, "random", trials=50, seed=seed)
            assert (est.delta, est.witness) == (best / 4, tuple(m.labels[i] for i in witness))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            estimate_delta(c4_metric(), "antic")


class TestTreeGeodesics:
    def test_interior_points_see_endpoints_at_product_zero(self):
        # on a tree geodesic the basepoint lies on [x, y], so (x.y)_m = 0
        rng = random.Random(8)
        for _ in range(30):
            p, q = random_element(rng, F2), random_element(rng, F2)
            geo = geodesic(p, q)
            for m in geo[1:-1]:
                assert gromov_product(p, q, m) == 0.0

    def test_chained_thin_quadrilateral_passes_near_middle(self):
        # if (x.z)_y <= c1, (y.w)_z <= c2 and d(y,z) > c1 + c2, the
        # geodesic [x, w] comes within 2 c1 + 1 of y
        rng = random.Random(10)
        found = 0
        c1 = c2 = 1
        while found < 25:
            x, y, z, w = (random_element(rng, F2, 7) for _ in range(4))
            if gromov_product(x, z, y) > c1 or gromov_product(y, w, z) > c2:
                continue
            if distance(y, z) <= c1 + c2:
                continue
            found += 1
            geo = geodesic(x, w)
            assert min(distance(y, v) for v in geo) <= 2 * c1 + 1


class TestAcylindricity:
    def test_translated_basepoint_example(self):
        rep = acylindricity_witnesses(F2, ONE, el("a") ** 5, 1)
        assert rep.count == 3
        assert {w.render() for w in rep.witnesses} == {"1", "a", "A"}

    def test_epsilon_zero(self):
        rep = acylindricity_witnesses(F2, ONE, el("a") ** 5, 0)
        assert rep.count == 1
        assert rep.witnesses[0].is_identity()

    def test_symmetric_generator_case(self):
        rep = acylindricity_witnesses(F2, ONE, el("b") ** 5, 1)
        assert {w.render() for w in rep.witnesses} == {"1", "b", "B"}

    def test_witnesses_satisfy_both_conditions(self):
        x, y = el("ab"), el("ba")
        rep = acylindricity_witnesses(F2, x, y, 2)
        for g in rep.witnesses:
            assert distance(x, g * x) <= 2
            assert distance(y, g * y) <= 2

    def test_count_non_increasing_in_separation(self):
        counts = [
            acylindricity_witnesses(F2, ONE, el("a") ** k, 2).count
            for k in range(1, 11)
        ]
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_product_group_supported(self):
        rep = acylindricity_witnesses(
            F2xF1, F2xF1.identity(), el("(aaaa,1)", F2xF1), 1
        )
        assert rep.count >= 1

    @settings(max_examples=80, deadline=None)
    @given(acyl_cases())
    def test_matches_reference_loop(self, case):
        group, x, y, epsilon = case
        rep = acylindricity_witnesses(group, x, y, epsilon)
        assert rep.witnesses == reference_witnesses(group, x, y, epsilon)
        found = set(rep.witnesses)
        assert group.identity() in found
        assert {g.inverse() for g in found} == found
        if epsilon:
            assert set(acylindricity_witnesses(group, x, y, epsilon - 1).witnesses) <= found

    def test_budget_refuses_before_enumerating(self):
        with pytest.raises(BallBudgetError) as info:
            acylindricity_witnesses(F2, el("ab"), el("b"), 13, budget=1000)
        assert info.value.radius_reached == 5
        assert acylindricity_witnesses(F2, el("ab"), el("b"), 4, budget=161).count >= 1
