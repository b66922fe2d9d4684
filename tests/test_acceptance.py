"""Acceptance suite: every headline quantity, one printed line per criterion.

Each criterion runs at its stated tolerance (exact where exact) and
prints a PASS/FAIL line that also lands in the terminal summary. The
heavyweight shared computations (radius-12 ball, the 6x6 ambiguity
grid) are session fixtures so they run once.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from growthlab.cayley import distortion, enumerate_ball, relative_ball
from growthlab.cli import main
from growthlab.concat import build_connector_kit, fiber_size, measure_ambiguity
from growthlab.counting import (
    ball_counts,
    free_ball_counts,
    free_sphere_counts,
    relative_ball_counts,
)
from growthlab.hyperbolic import WordSample, check_equivariance, estimate_delta
from growthlab.rate import (
    FuncSpec,
    RateHypothesis,
    check_hypothesis,
    fekete_lower_bound,
    hypothesis_from_growth,
)
from growthlab.subgroups import StallingsOracle, diagonal_oracle
from growthlab.words import Element, free_group, parse_element, product_group

F1 = free_group(1)
F2 = free_group(2)
F2xF1 = product_group(2, 1)
F2xF2 = product_group(2, 2)


def el(text, group=F2):
    return parse_element(group, text)


@pytest.fixture(scope="session")
def criterion(acceptance_log):
    @contextmanager
    def check(num, description):
        try:
            yield
        except BaseException:
            line = f"criterion {num:2d} FAIL  {description}"
            acceptance_log.append(line)
            print(line)
            raise
        line = f"criterion {num:2d} PASS  {description}"
        acceptance_log.append(line)
        print(line)

    return check


@pytest.fixture(scope="session")
def f2_ball12():
    start = time.monotonic()
    ball = enumerate_ball(F2, 12)
    return ball, time.monotonic() - start


@pytest.fixture(scope="session")
def ambiguity_grid():
    start = time.monotonic()
    kit = build_connector_kit(F2, el("a"), el("b"), n=2)
    report = measure_ambiguity(kit, F2, 6, 6)
    return report, time.monotonic() - start


def test_criterion_01_ball_and_sphere_counts(criterion, f2_ball12):
    ball, elapsed = f2_ball12
    with criterion(1, "rank-2 ball 2*3^n-1 and sphere 2k(2k-1)^(n-1) to n=12, under 60 s"):
        counts = ball.counts_by_radius
        assert list(counts) == [2 * 3**n - 1 for n in range(13)]
        spheres = ball.sphere_counts()
        assert list(spheres) == [1] + [4 * 3 ** (n - 1) for n in range(1, 13)]
        assert elapsed < 60.0


def test_criterion_02_submultiplicativity(criterion):
    with criterion(2, "measured ball counts submultiplicative for F1, F2, F2xF1 on m+n<=10"):
        for group in (F1, F2, F2xF1):
            counts = enumerate_ball(group, 10).counts_by_radius
            bad = [
                (m, n)
                for m in range(11)
                for n in range(11 - m)
                if counts[m + n] > counts[m] * counts[n]
            ]
            assert bad == []


def test_criterion_03_naive_identity_fiber(criterion, f2_ball12):
    ball, _ = f2_ball12
    with criterion(3, "plain concatenation: identity fiber over B(2t)xB(t) equals ball size, t<=5"):
        identity = el("1")
        for t in range(6):
            got = fiber_size(None, F2, 2 * t, t, identity, ambient=ball)
            assert got == 2 * 3**t - 1 if t else got == 1


def test_criterion_04_connector_effectiveness(criterion, ambiguity_grid):
    report, elapsed = ambiguity_grid
    with criterion(4, "kit(a,b;n=2) fibers affine in t, no violations at t=4..6, 50x under ball(6)"):
        assert report.fit_t == 3
        assert report.violations == ()
        worst = report.cell(6, 6).max_fiber
        assert worst * 50 <= 2 * 3**6 - 1
        for t in (4, 5, 6):
            for s in range(7):
                assert report.cell(s, t).max_fiber <= report.envelope(t)
        assert elapsed < 600.0


def test_criterion_05_weak_supermultiplicativity(criterion, ambiguity_grid):
    report, _ = ambiguity_grid
    # l is the envelope fitted on t <= 3 in criterion 4
    hyp = RateHypothesis(
        epsilon=FuncSpec(report.intercept, report.slope),
        shift=FuncSpec(2),
        threshold=0,
    )
    with criterion(5, "beta(s)beta(t) <= l(t) beta(s+t+2) for F2, <aa,bb>, diagonal, s,t<=8"):
        # each target supplies in-subgroup connector pieces of length 2
        kits = [
            build_connector_kit(F2, el("a"), el("b"), n=2),
            build_connector_kit(F2, el("aa"), el("bb"), n=1),
            build_connector_kit(
                F2xF2, el("(a,a)", F2xF2), el("(b,b)", F2xF2), n=1
            ),
        ]
        assert all(kit.c == 2 for kit in kits)
        tables = [
            free_ball_counts(2, 18),
            relative_ball_counts(StallingsOracle(F2, [el("aa"), el("bb")]), 18),
            relative_ball_counts(diagonal_oracle(F2xF2), 18),
        ]
        for counts in tables:
            result = check_hypothesis(counts, hyp, m_max=8, n_max=8)
            assert result.ok
            assert result.violations == ()
            # 19 positivity and 18 monotonicity checks, then the 81 pairs s, t <= 8
            assert result.checked == 19 + 18 + 81


def test_criterion_06_hyperbolicity(criterion, f2_ball12):
    ball, _ = f2_ball12
    with criterion(6, "exhaustive four-point delta on B(4) is exactly 0; equivariance on 10^4 quadruples"):
        sample = WordSample(F2, ball.up_to(4).packed)
        estimate = estimate_delta(sample, tuple_cap=10**9)
        assert estimate.delta == 0.0
        assert estimate.tuples_checked == sample.size**4 == 161**4
        points = ball.up_to(4).elements()
        rng = random.Random(20260814)
        for _ in range(10_000):
            g, x, y, z = (rng.choice(points) for _ in range(4))
            assert check_equivariance(g, x, y, z)


def test_criterion_07_acylindricity(criterion):
    from growthlab.hyperbolic import acylindricity_witnesses

    with criterion(7, "3 witnesses at x=1, y=a^5, eps=1; counts non-increasing along y=a^k"):
        report = acylindricity_witnesses(F2, el("1"), el("aaaaa"), 1)
        assert report.count == 3
        counts = [
            acylindricity_witnesses(F2, el("1"), el("a" * k), 1).count
            for k in range(1, 11)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_criterion_08_distortion(criterion):
    with criterion(8, "distortion of <a> is n and of <a^2> is floor(n/2), n<=12, exact"):
        table_a = distortion(F2, [el("a")], 12)
        assert table_a.values == tuple(range(13))
        table_aa = distortion(F2, [el("aa")], 12)
        assert table_aa.values == tuple(n // 2 for n in range(13))


def test_criterion_09_rate_bracketing(criterion):
    with criterion(9, "measured-hypothesis interval contains 3 with width <= 0.5; 2^n collapses to [2,2]"):
        start = time.monotonic()
        table18 = free_ball_counts(2, 18)
        hyp = hypothesis_from_growth(table18, 2, s_max=8, t_max=8)
        estimate = fekete_lower_bound(free_ball_counts(2, 14), hyp)
        assert estimate.hypothesis_ok
        assert estimate.certified_lower <= 3.0 <= estimate.empirical_upper
        assert estimate.empirical_upper - estimate.certified_lower <= 0.5
        synthetic = fekete_lower_bound([2**n for n in range(15)], RateHypothesis())
        assert synthetic.interval == (2.0, 2.0)
        assert time.monotonic() - start < 10.0


def test_criterion_10_relative_growth_two_methods(criterion, f2_ball12):
    ball, _ = f2_ball12
    with criterion(10, "Stallings filter equals brute subgroup products; diagonal halves the radius"):
        oracle = StallingsOracle(F2, [el("aa"), el("bb")])
        filtered = relative_ball(F2, oracle, 10, ambient=ball.up_to(10)).counts_by_radius

        # brute force: close {aa,bb}^{+-1} under products to depth 6, then
        # count by ambient length; depth 6 confirms nothing short appears late
        gens = [el("aa"), el("bb"), el("AA"), el("BB")]
        seen = {el("1").packed: el("1")}
        frontier = list(seen.values())
        for _ in range(6):
            nxt = []
            for left in frontier:
                for gen in gens:
                    prod = left * gen
                    if prod.packed not in seen:
                        seen[prod.packed] = prod
                        nxt.append(prod)
            frontier = nxt
        brute = [0] * 11
        for member in seen.values():
            length = member.length()
            if length <= 10:
                brute[length] += 1
        for n in range(1, 11):
            brute[n] += brute[n - 1]
        assert list(filtered) == brute

        diag = relative_ball_counts(diagonal_oracle(F2xF2), 10)
        halves = free_ball_counts(2, 5)
        assert diag == [halves[n // 2] for n in range(11)]
        measured = relative_ball(
            F2xF2, diagonal_oracle(F2xF2), 10
        ).counts_by_radius
        assert list(measured) == diag


def test_criterion_11_artifact_determinism(criterion, tmp_path):
    with criterion(11, "criteria 1, 4, 10 artifacts byte-identical at workers 1, 4, 8"):
        jobs = {
            "growth.csv": ["growth", "--group", "free:2", "--max-radius", "12"],
            "ambiguity.csv": [
                "ambiguity", "--group", "free:2", "--g", "a", "--h", "b",
                "-n", "2", "--smax", "6", "--tmax", "6", "--format", "csv",
            ],
            "relgrowth.csv": [
                "relgrowth", "--group", "free:2", "--subgroup", "aa,bb",
                "--max-radius", "10",
            ],
        }
        for name, argv in jobs.items():
            bodies = []
            for workers in (1, 4, 8):
                out = tmp_path / f"{name}.w{workers}"
                code = main(argv + ["--workers", str(workers), "--out", str(out)])
                assert code == 0
                bodies.append((out / name).read_bytes())
            assert bodies[0] == bodies[1] == bodies[2], name
