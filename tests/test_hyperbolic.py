"""Gromov products, four-point delta, acylindricity."""

import random
from unittest import mock

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
    WordSample,
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


def both_paths(group, x, y, epsilon, **kwargs):
    """acylindricity_witnesses with every ball taking the per-word loop,
    then with every ball taking the column test; the reports must agree."""
    reports = []
    for loop_words in (10**9, 0):
        with mock.patch.object(hyperbolic, "_LOOP_WORDS", loop_words):
            reports.append(acylindricity_witnesses(group, x, y, epsilon, **kwargs))
    assert reports[0] == reports[1]
    return reports[1]


@st.composite
def acyl_cases(draw):
    """A free group of rank 1 or 2 with epsilon <= 7 or of rank 3 with
    epsilon <= 5 (no ball past 4,687 words), or a product of up to three
    factors with epsilon <= 3, and two random basepoints of length at
    most 12, so that |x^-1 y| can exceed both epsilon and the ball's
    width."""
    ranks = draw(
        st.sampled_from(
            [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (2, 1, 1), (1, 2, 1)]
        )
    )
    group = product_group(*ranks)
    epsilon = draw(st.integers(0, 3 if len(ranks) > 1 else 5 if ranks == (3,) else 7))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return group, random_element(rng, group, 12), random_element(rng, group, 12), epsilon


class MatrixSample:
    """A finite metric given as labels and a doubled-distance matrix:
    dist2[i, j] = 2 d(i, j). It answers what estimate_delta asks of a
    sample, so the scans can be checked on metrics that are not word
    metrics, and on word metrics built apart from WordSample."""

    def __init__(self, labels, dist2):
        self.labels, self.dist2 = tuple(labels), dist2

    @property
    def size(self):
        return len(self.labels)

    def label(self, i):
        return self.labels[i]

    def pair_dist2(self, i, j):
        return self.dist2[i, j]


def word_matrix(elements):
    """The word metric on the elements, each distance by words.distance."""
    elems = tuple(elements)
    d2 = np.array([[2 * distance(g, h) for h in elems] for g in elems], dtype=np.int64)
    return MatrixSample(elems, d2)


def ball_samples(group, r):
    """B(r) as a WordSample and as a matrix of words.distance."""
    ball = enumerate_ball(group, r)
    return WordSample(group, ball.packed), word_matrix(ball.elements())


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
    return MatrixSample((f"p{i}" for i in range(n)), d)


def c4_metric():
    d = 2 * np.array(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=np.int64
    )
    return MatrixSample(("p0", "p1", "p2", "p3"), d)


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
    def test_from_ball_is_the_word_sample_of_the_ball(self):
        # the stand-in bench/spans.py wraps: same words, same estimate
        ball = enumerate_ball(F2xF1, 2)
        m = FiniteMetric.from_ball(ball)
        assert isinstance(m, WordSample)
        assert (m.group, m.packed) == (F2xF1, ball.packed)
        assert estimate_delta(m) == estimate_delta(WordSample(F2xF1, ball.packed))


class TestEstimateDelta:
    def test_tree_sample_is_zero_hyperbolic(self):
        m = WordSample(F2, enumerate_ball(F2, 3).packed)
        est = estimate_delta(m)
        assert est.delta == 0.0
        assert est.tuples_checked == m.size**4

    def test_product_sample_is_positive(self):
        m = WordSample(F2xF1, enumerate_ball(F2xF1, 2).packed)
        assert estimate_delta(m).delta > 0

    def test_four_cycle_needs_one(self):
        est = estimate_delta(c4_metric())
        assert est.delta == 1.0
        assert len(est.witness) == 4

    def test_single_point(self):
        m = MatrixSample(("p",), np.zeros((1, 1), dtype=np.int64))
        assert estimate_delta(m).delta == 0.0

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_empty_sample_is_refused(self, mode):
        with pytest.raises(ValueError, match="empty sample"):
            estimate_delta(WordSample(F2, []), mode)

    def test_large_entries_stay_exact(self):
        # doubled entries of 2^61: the Gromov sums reach 2^62 in int64
        c4 = c4_metric()
        big = MatrixSample(c4.labels, c4.dist2 << 59)
        assert estimate_delta(big).delta == 2.0**59
        assert estimate_delta(big, "random", trials=200).delta == 2.0**59

    def test_cap_refusal(self):
        m = WordSample(F2, enumerate_ball(F2, 2).packed)
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
            words, m = ball_samples(group, r)
            best, witness = reference_scan(m.dist2)
            est = estimate_delta(words)
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
        words, m = ball_samples(F2xF1, 2)
        monkeypatch.setattr(hyperbolic, "_TRIAL_CHUNK", 7)
        for seed in range(20):
            best, witness = reference_random(m.dist2, 50, seed)
            est = estimate_delta(words, "random", trials=50, seed=seed)
            assert (est.delta, est.witness) == (best / 4, tuple(m.labels[i] for i in witness))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            estimate_delta(c4_metric(), "antic")

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_words_match_the_matrix(self, monkeypatch, mode):
        # delta, witness and tuples_checked; exhaustive mode reads no seed
        groups = ((F2, 3), (F2xF1, 2), (product_group(1, 1, 1), 2), (product_group(2, 2), 2))
        for group, r in groups:
            words, metric = ball_samples(group, r)
            for chunk in (hyperbolic._TRIAL_CHUNK, 7):
                monkeypatch.setattr(hyperbolic, "_TRIAL_CHUNK", chunk)
                for seed in range(5 if mode == "random" else 1):
                    on_words = estimate_delta(words, mode, trials=300, seed=seed)
                    assert on_words == estimate_delta(metric, mode, trials=300, seed=seed)
                    assert all(isinstance(label, Element) for label in on_words.witness)


# n = 1, 2, 3 and every power of two below 2^32 with its neighbours
DRAW_BOUNDS = sorted(
    {1, 2, 3} | {(1 << k) + e for k in range(1, 33) for e in (-1, 0, 1)} - {1 << 32, (1 << 32) + 1}
)


class TestBulkDraw:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(DRAW_BOUNDS), st.integers(0, 3000), st.integers(0, 2**64))
    def test_matches_randrange_and_leaves_the_same_state(self, n, count, seed):
        # relies on CPython's randrange: one 32-bit word per try, top bits, rejection
        bulk, calls = random.Random(seed), random.Random(seed)
        got = hyperbolic._randrange_bulk(bulk, n, count)
        assert got.tolist() == [calls.randrange(n) for _ in range(count)]
        assert bulk.getstate() == calls.getstate()

    def test_refuses_bounds_past_one_word(self):
        for n in (0, 1 << 32):
            with pytest.raises(ValueError, match="bulk draw"):
                hyperbolic._randrange_bulk(random.Random(0), n, 1)


class TestWordSample:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 3), (2, 2), (1, 1, 1), (1, 1, 2)]),
        st.integers(0, 10**6),
    )
    def test_distances_match_the_word_matrix(self, ranks, seed):
        # random samples with the identity: unequal lengths in any order
        rng = random.Random(seed)
        group = product_group(*ranks)
        elems = [random_element(rng, group, 7) for _ in range(rng.randrange(25))]
        elems = list(dict.fromkeys([group.identity(), *elems]))
        rng.shuffle(elems)
        metric = word_matrix(elems)
        i, j = (np.array([rng.randrange(len(elems)) for _ in range(60)]) for _ in range(2))
        got = WordSample(group, [g.packed for g in elems]).pair_dist2(i, j)
        assert got.dtype == np.int64
        assert got.tolist() == metric.dist2[i, j].tolist()


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
        rep = both_paths(F2, ONE, el("a") ** 5, 1)
        assert rep.count == 3
        assert {w.render() for w in rep.witnesses} == {"1", "a", "A"}

    def test_epsilon_zero(self):
        rep = both_paths(F2, ONE, el("a") ** 5, 0)
        assert rep.count == 1
        assert rep.witnesses[0].is_identity()

    def test_symmetric_generator_case(self):
        rep = both_paths(F2, ONE, el("b") ** 5, 1)
        assert {w.render() for w in rep.witnesses} == {"1", "b", "B"}

    def test_witnesses_satisfy_both_conditions(self):
        x, y = el("ab"), el("ba")
        rep = both_paths(F2, x, y, 2)
        for g in rep.witnesses:
            assert distance(x, g * x) <= 2
            assert distance(y, g * y) <= 2

    def test_count_non_increasing_in_separation(self):
        counts = [
            both_paths(F2, ONE, el("a") ** k, 2).count
            for k in range(1, 11)
        ]
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_product_group_supported(self):
        rep = both_paths(
            F2xF1, F2xF1.identity(), el("(aaaa,1)", F2xF1), 1
        )
        assert rep.count >= 1

    @settings(max_examples=80, deadline=None)
    @given(acyl_cases())
    def test_matches_reference_loop(self, case):
        group, x, y, epsilon = case
        rep = both_paths(group, x, y, epsilon)
        assert rep.witnesses == reference_witnesses(group, x, y, epsilon)
        found = set(rep.witnesses)
        assert group.identity() in found
        assert {g.inverse() for g in found} == found
        if epsilon:
            assert set(both_paths(group, x, y, epsilon - 1).witnesses) <= found

    @pytest.mark.parametrize(
        "group,x,epsilon",
        [(F2, el("abA"), 5), (free_group(3), el("cB", free_group(3)), 3), (F2xF1, el("(bA,a)", F2xF1), 4)],
    )
    def test_equal_basepoints_keep_the_whole_ball(self, group, x, epsilon):
        # c = x^-1 x is trivial, so |c^-1 w c| = |w| <= epsilon for every w
        rep = both_paths(group, x, x, epsilon)
        ball = enumerate_ball(group, epsilon)
        assert rep.count == len(ball)
        assert rep.witnesses == tuple(sorted((x * w * x.inverse() for w in ball), key=Element.sort_key))

    @pytest.mark.parametrize("y,epsilon", [("ababab", 6), ("aabaab", 6), ("abaaba", 5), ("aaaaa", 7)])
    def test_witness_head_inside_a_self_overlapping_c(self, y, epsilon):
        # x = 1, so c = y: a w whose head is a prefix of c leaves u = w c
        # starting with c's own letters, and how much c^-1 u cancels depends
        # on how c overlaps itself; the powers of c's period commute with c
        c = el(y)
        rep = both_paths(F2, ONE, c, epsilon)
        assert rep.witnesses == reference_witnesses(F2, ONE, c, epsilon)
        period = next(p for p in range(1, len(y) + 1) if len(y) % p == 0 and y[:p] * (len(y) // p) == y)
        root = el(y[:period])
        for k in range(1, epsilon // period + 1):
            assert {root**k, root**-k} <= set(rep.witnesses)

    @pytest.mark.parametrize(
        "group,x,y,epsilon",
        [
            (F2xF1, "(ab,a)", "(abA,a)", 4),
            (F2xF1, "(1,a)", "(1,aaaa)", 4),
            (product_group(2, 2), "(b,ab)", "(b,aB)", 3),
            (product_group(1, 2, 1), "(a,ba,1)", "(aa,ba,A)", 3),
        ],
    )
    def test_product_with_c_trivial_in_a_factor(self, group, x, y, epsilon):
        x, y = el(x, group), el(y, group)
        rep = both_paths(group, x, y, epsilon)
        assert rep.witnesses == reference_witnesses(group, x, y, epsilon)
        # a w that lives in a factor where c is trivial commutes with c
        c = x.inverse() * y
        moved = [i for i in range(group.num_factors) if not c.component(i).is_identity()]
        assert len(moved) < group.num_factors
        for w in enumerate_ball(group, epsilon):
            if all(w.component(i).is_identity() for i in moved):
                assert x * w * x.inverse() in rep.witnesses

    @pytest.mark.parametrize("x,y", [(el("(a,1)", F2xF1), el("b")), (el("a"), el("(b,a)", F2xF1))])
    def test_foreign_basepoint_rejected(self, x, y):
        with pytest.raises(GroupMismatchError, match="basepoints must live in the given group"):
            both_paths(F2, x, y, 1)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be nonnegative"):
            both_paths(F2, ONE, el("a"), -1)

    def test_budget_refuses_before_enumerating(self):
        with pytest.raises(BallBudgetError) as info:
            both_paths(F2, el("ab"), el("b"), 13, budget=1000)
        assert info.value.radius_reached == 5
        assert both_paths(F2, el("ab"), el("b"), 4, budget=161).count >= 1
