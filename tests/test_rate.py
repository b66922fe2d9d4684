"""Root sequences, hypothesis checks, and growth-rate bracketing."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab.cayley import growth_sequence
from growthlab.counting import free_ball_counts
from growthlab.errors import ParseError
from growthlab.rate import (
    FuncSpec,
    HypothesisCheck,
    HypothesisViolation,
    RateHypothesis,
    check_hypothesis,
    default_growth_bound,
    fekete_lower_bound,
    hypothesis_from_growth,
    parse_funcspec,
    root_sequence,
)
from growthlab.words import free_group, product_group

F2_14 = free_ball_counts(2, 14)
F2_18 = free_ball_counts(2, 18)
PLAIN = RateHypothesis()  # epsilon 1, shift 0, threshold 1


class TestFuncSpec:
    def test_constant(self):
        f = FuncSpec.constant(4)
        assert f(0) == 4 and f(7) == 4
        assert f.render() == "4"

    def test_affine(self):
        f = FuncSpec.affine(1, 1)
        assert f(0) == 1 and f(6) == 7
        assert f.render() == "1+1n"

    def test_table_and_range(self):
        f = FuncSpec.table([1, 2, 4])
        assert f(2) == 4
        with pytest.raises(ValueError):
            f(3)

    @pytest.mark.parametrize(
        "text", ["4", "7/2", "1+2n", "0+1/2n", "2n", "1-1/3n", "table:1,2,4", "table:5"]
    )
    def test_round_trip(self, text):
        spec = parse_funcspec(text)
        assert parse_funcspec(spec.render()) == spec

    @pytest.mark.parametrize("text", ["", "x", "table:", "1//2", "n", "1+n+n"])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_funcspec(text)

    def test_fractional_values(self):
        assert parse_funcspec("7/2")(3) == Fraction(7, 2)
        assert parse_funcspec("1+1/2n")(3) == Fraction(5, 2)


class TestHypothesisType:
    def test_defaults(self):
        assert PLAIN.epsilon_at(5) == 1
        assert PLAIN.shift_at(5) == 0
        assert PLAIN.threshold == 1
        assert PLAIN.growth_bound is None

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            RateHypothesis(threshold=-1)

    def test_bad_growth_bound(self):
        with pytest.raises(ValueError):
            RateHypothesis(growth_bound=Fraction(0))

    def test_epsilon_below_one_rejected_at_use(self):
        hyp = RateHypothesis(epsilon=FuncSpec.constant(Fraction(1, 2)))
        with pytest.raises(ValueError):
            hyp.epsilon_at(3)

    def test_fractional_shift_rejected_at_use(self):
        hyp = RateHypothesis(shift=FuncSpec.constant(Fraction(1, 2)))
        with pytest.raises(ValueError):
            hyp.shift_at(3)

    def test_default_growth_bound_is_ball_one(self):
        assert default_growth_bound(free_group(2)) == 5
        assert default_growth_bound(product_group(2, 1)) == 7


class TestRootSequence:
    def test_geometric_is_exact(self):
        roots = root_sequence([2**n for n in range(20)])
        assert roots[0] == 1.0
        assert all(a == 2.0 for a in roots[1:])

    def test_polynomial_decays(self):
        # n+1 grows polynomially so the roots drift down toward 1
        roots = root_sequence([n + 1 for n in range(51)])
        assert abs(roots[10] - 1.27) < 0.01
        assert all(roots[n] > roots[n + 1] for n in range(2, 50))
        assert roots[50] < 1.1

    def test_free_group_roots(self):
        roots = root_sequence(F2_14)
        assert 3.0 < roots[14] < 3.2
        assert all(roots[n] > roots[n + 1] for n in range(5, 14))

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            root_sequence([1, 0, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            root_sequence([])

    def test_accepts_growth_table(self):
        # a growth table is its counts: the enumerated ball's counts_by_radius
        table = growth_sequence(free_group(2), 14).counts_by_radius
        assert root_sequence(table) == root_sequence(F2_14)


class TestCheckHypothesis:
    def test_geometric_equality(self):
        check = check_hypothesis([2**n for n in range(16)], PLAIN)
        assert check.ok and bool(check)
        assert check.violations == ()

    def test_free_group_fails_plain(self):
        check = check_hypothesis(F2_14, PLAIN)
        assert not check.ok
        first = check.violations[0]
        assert (first.kind, first.m, first.n) == ("combine", 1, 1)
        assert first.lhs == 25 and first.rhs == 17

    def test_free_group_affine_envelope(self):
        # measured ambiguity envelope 1+t with the two-letter connector cost
        hyp = RateHypothesis(epsilon=FuncSpec.affine(1, 1), shift=FuncSpec.constant(2))
        check = check_hypothesis(F2_18, hyp, m_max=8, n_max=8)
        assert check.ok

    def test_range_shortfall_raises(self):
        hyp = RateHypothesis(shift=FuncSpec.constant(2))
        with pytest.raises(ValueError):
            check_hypothesis(free_ball_counts(2, 6), hyp, m_max=4, n_max=4)

    def test_no_checkable_pair_raises(self):
        with pytest.raises(ValueError):
            check_hypothesis([1], PLAIN)

    def test_monotone_violation_flagged(self):
        check = check_hypothesis([1, 5, 3, 9], PLAIN)
        kinds = {v.kind for v in check.violations}
        assert "monotone" in kinds

    def test_growth_bound_violation_flagged(self):
        hyp = RateHypothesis(growth_bound=Fraction(3))
        check = check_hypothesis([5**n for n in range(6)], hyp)
        assert any(v.kind == "bound" for v in check.violations)

    def test_max_radius_truncates(self):
        full = check_hypothesis(F2_14, PLAIN)
        cut = check_hypothesis(F2_14[:5], PLAIN)
        assert cut.checked < full.checked


class TestFeketeLowerBound:
    def test_geometric_collapse(self):
        est = fekete_lower_bound([2**n for n in range(21)], PLAIN)
        assert est.certified_lower == 2.0
        assert est.empirical_upper == 2.0
        assert est.hypothesis_ok

    @given(ratio=st.integers(min_value=2, max_value=9), top=st.integers(min_value=3, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_geometric_collapse_any_ratio(self, ratio, top):
        est = fekete_lower_bound([ratio**n for n in range(top + 1)], PLAIN)
        assert est.certified_lower == float(ratio) == est.empirical_upper

    def test_constant_table(self):
        est = fekete_lower_bound([1] * 16, PLAIN)
        assert est.certified_lower == 1.0 and est.empirical_upper == 1.0

    def test_free_group_fixed_epsilon(self):
        est = fekete_lower_bound(F2_14, RateHypothesis(epsilon=FuncSpec.constant(4)))
        assert est.hypothesis_ok
        assert abs(est.certified_lower - 2.855) < 0.01
        assert est.witness_s == 14
        assert abs(est.empirical_upper - 3.152) < 0.01
        assert est.certified_lower <= 3.0 <= est.empirical_upper

    def test_conditional_when_hypothesis_fails(self):
        est = fekete_lower_bound(F2_14, PLAIN)
        assert not est.hypothesis_ok
        assert est.violations
        # the bound is still reported, just conditional
        assert est.certified_lower > 0

    def test_empty_admissible_range(self):
        with pytest.raises(ValueError):
            fekete_lower_bound([1, 2, 4], RateHypothesis(threshold=9))

    def test_lower_monotone_in_range(self):
        hyp = RateHypothesis(epsilon=FuncSpec.constant(4))
        lowers = [
            fekete_lower_bound(F2_14[: k + 1], hyp).certified_lower
            for k in range(2, 15)
        ]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))

    def test_walk_decomposition(self):
        est = fekete_lower_bound(F2_14, RateHypothesis(epsilon=FuncSpec.constant(4)))
        period = est.witness_s + 0
        for row in est.walk:
            assert row.q * period + row.r == row.n
            assert 0 <= row.r < period
            assert row.bound <= est.certified_lower * (1 + 1e-9)

    def test_walk_geometric_saturates(self):
        est = fekete_lower_bound([2**n for n in range(12)], PLAIN)
        assert all(row.bound == 2.0 for row in est.walk)

    def test_json_shape(self):
        est = fekete_lower_bound(F2_14, PLAIN)
        blob = est.to_json()
        for key in ("lower", "upper", "witness_s", "hypothesis_ok", "violations"):
            assert key in blob
        assert blob["violations"][0]["lhs"] == "25"


class TestMeasuredHypothesis:
    def test_free_group_measures_to_one(self):
        # worst beta(s)beta(t)/beta(s+t+2) on the 8x8 grid is about 0.222
        hyp = hypothesis_from_growth(F2_18, 2, s_max=8, t_max=8)
        assert hyp.epsilon.render() == "1"
        assert hyp.shift_at(3) == 2
        assert hyp.growth_bound is None

    def test_bracket_contains_rate(self):
        hyp = hypothesis_from_growth(F2_18, 2, s_max=8, t_max=8)
        est = fekete_lower_bound(F2_14, hyp)
        assert est.hypothesis_ok
        assert est.certified_lower <= 3.0 <= est.empirical_upper
        assert est.empirical_upper - est.certified_lower <= 0.5

    def test_zero_shift_measurement(self):
        hyp = hypothesis_from_growth(F2_18, 0)
        assert hyp.epsilon(0) < 3
        est = fekete_lower_bound(F2_18, hyp)
        assert est.hypothesis_ok
        assert est.certified_lower <= est.empirical_upper

    def test_measured_hypothesis_passes_own_check(self):
        for c in (0, 1, 2):
            hyp = hypothesis_from_growth(F2_14, c)
            assert check_hypothesis(F2_14, hyp).ok

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=3, max_size=12),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_measured_hypothesis_consistent(self, deltas, c):
        # any monotone positive table passes the hypothesis it was measured from
        counts = [1]
        for d in deltas:
            counts.append(counts[-1] + d)
        hyp = hypothesis_from_growth(counts, c)
        assert check_hypothesis(counts, hyp).ok

    def test_coverage_demanded(self):
        with pytest.raises(ValueError):
            hypothesis_from_growth(free_ball_counts(2, 6), 2, s_max=4, t_max=4)
        with pytest.raises(ValueError):
            hypothesis_from_growth(F2_14, 2, s_max=4, t_max=None)


# Reference implementations: the pair loops as first written, one Fraction
# per pair. The package's checks must agree with them exactly.


def reference_check_hypothesis(counts, hyp, m_max=None, n_max=None):
    top = len(counts) - 1
    violations = []
    checked = 0
    for n in range(top + 1):
        checked += 1
        if counts[n] < 1:
            violations.append(
                HypothesisViolation("positive", None, n, Fraction(1), Fraction(counts[n]))
            )
        if n > 0:
            checked += 1
            if counts[n - 1] > counts[n]:
                violations.append(
                    HypothesisViolation(
                        "monotone", None, n, Fraction(counts[n - 1]), Fraction(counts[n])
                    )
                )
        if hyp.growth_bound is not None:
            checked += 1
            envelope = hyp.growth_bound**n
            if counts[n] > envelope:
                violations.append(
                    HypothesisViolation("bound", None, n, Fraction(counts[n]), envelope)
                )
    n_top = top if n_max is None else n_max
    pairs = 0
    for n in range(hyp.threshold, n_top + 1):
        if n > top:
            raise ValueError("n_max past the table")
        shift_n = hyp.shift_at(n)
        eps_n = hyp.epsilon_at(n)
        m_top = top - n - shift_n if m_max is None else m_max
        for m in range(0, m_top + 1):
            index = m + n + shift_n
            if index > top:
                raise ValueError("pair past the table")
            checked += 1
            pairs += 1
            lhs = Fraction(counts[m] * counts[n])
            rhs = eps_n * counts[index]
            if lhs > rhs:
                violations.append(HypothesisViolation("combine", m, n, lhs, rhs))
    if pairs == 0:
        raise ValueError("no combination pair")
    return HypothesisCheck(not violations, checked, tuple(violations))


def reference_worst_ratio(counts, c, s_max=None, t_max=None):
    if c < 0:
        raise ValueError("negative connector length")
    if (s_max is None) != (t_max is None):
        raise ValueError("one bound given")
    top = len(counts) - 1
    if s_max is not None and s_max + t_max + c > top:
        raise ValueError("grid past the table")
    worst = Fraction(1)
    seen = False
    s_top = top if s_max is None else s_max
    for s in range(0, s_top + 1):
        t_top = (top - c - s) if t_max is None else t_max
        for t in range(0, t_top + 1):
            if s + t + c > top:
                break
            seen = True
            ratio = Fraction(counts[s] * counts[t], counts[s + t + c])
            if ratio > worst:
                worst = ratio
    if not seen:
        raise ValueError("no measurement pair")
    return worst


def outcome(fn, *args, **kwargs):
    """fn's result, or ValueError (the class) when it raises one."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


@st.composite
def count_tables(draw, max_size=14):
    """Positive tables: arbitrary, monotone, or geometric b*r^n (equality cases)."""
    size = draw(st.integers(min_value=1, max_value=max_size))
    kind = draw(st.sampled_from(["arbitrary", "monotone", "geometric"]))
    if kind == "geometric":
        b, r = draw(st.integers(1, 3)), draw(st.integers(1, 5))
        return [b * r**n for n in range(size)]
    entry = st.one_of(st.integers(1, 60), st.integers(1, 3**200))
    values = draw(st.lists(entry, min_size=size, max_size=size))
    return list(itertools.accumulate(values)) if kind == "monotone" else values


VALUES = st.one_of(
    st.integers(1, 3).map(Fraction),
    st.fractions(min_value=Fraction(1, 2), max_value=6, max_denominator=7),
)


@st.composite
def funcspecs(draw):
    """Constant, affine or table function specs over VALUES."""
    kind = draw(st.sampled_from(["constant", "affine", "table"]))
    if kind == "constant":
        return FuncSpec.constant(draw(VALUES))
    if kind == "affine":
        slope = draw(st.fractions(min_value=-1, max_value=2, max_denominator=4))
        return FuncSpec.affine(draw(VALUES), slope)
    return FuncSpec.table(draw(st.lists(VALUES, min_size=6, max_size=18)))


SHIFTS = st.one_of(
    st.integers(0, 3).map(FuncSpec.constant),
    st.lists(st.integers(0, 2), min_size=6, max_size=18).map(FuncSpec.table),
    st.tuples(st.integers(0, 2), st.sampled_from([Fraction(1, 2), Fraction(1)])).map(
        lambda ab: FuncSpec.affine(*ab)
    ),
)
BOUNDS = st.one_of(st.none(), st.integers(0, 8))


class TestAgainstReference:
    @given(
        count_tables(),
        funcspecs(),
        SHIFTS,
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(1, 5), st.fractions(Fraction(1, 2), 5, max_denominator=6)),
        BOUNDS,
        BOUNDS,
    )
    @settings(max_examples=400, deadline=None)
    def test_check_hypothesis(self, counts, eps, shift, threshold, bound, m_max, n_max):
        hyp = RateHypothesis(eps, shift, threshold, None if bound is None else Fraction(bound))
        want = outcome(reference_check_hypothesis, counts, hyp, m_max, n_max)
        got = outcome(check_hypothesis, counts, hyp, m_max=m_max, n_max=n_max)
        if want is ValueError:
            assert got is ValueError
        else:
            assert (got.ok, got.checked, got.violations) == (
                want.ok, want.checked, want.violations
            )

    @given(count_tables(), st.integers(-1, 3), BOUNDS, BOUNDS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_from_growth(self, counts, c, s_max, t_max, bounded):
        if not bounded:
            s_max = t_max = None
        want = outcome(reference_worst_ratio, counts, c, s_max, t_max)
        got = outcome(hypothesis_from_growth, counts, c, s_max=s_max, t_max=t_max)
        if want is ValueError:
            assert got is ValueError
        else:
            assert got.epsilon == FuncSpec.constant(want)
            assert got.shift == FuncSpec.constant(c)
