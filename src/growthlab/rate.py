"""Growth-rate bracketing from finite growth tables.

A growth table only ever shows finitely many values, so no limit of
f(n)^{1/n} can be certified from it.  What it gives is an interval,
conditional on a hypothesis.  Suppose f satisfies, for some threshold C,
a combination inequality

    f(m) * f(n) <= epsilon(n) * f(m + n + l(n))   for all m and all n >= C

together with 1 <= f(n) <= B^n.  Iterating the inequality along the
quotient-remainder decomposition n = q*(s + l(s)) + r turns any single
table entry f(s) into an asymptotic lower bound

    liminf f(n)^{1/n}  >=  (f(s) / epsilon(s)) ^ (1 / (s + l(s))),

so the best such bound over the table is a floor for the limit if the
hypothesis holds at every index.  check_hypothesis tests the table's
range only, so a passing check (hypothesis_ok) does not certify the
floor: `rate --group free:1 --max-radius 20 --epsilon 11` passes with a
floor of 1.0717, though the growth rate of Z is 1, because
(2m+1)(2n+1) <= 11 (2m+2n+1) holds for m + n <= 20 but fails for larger
m and n.  A failing check keeps its first MAX_VIOLATIONS (1,000)
violations, the unary checks by n and then the pairs, and counts the
rest: a report whose list was cut states violations_total.  The ceiling
is empirical: the monotone envelope min_n max_{m >= n} a_m of the root
sequence a_n = f(n)^{1/n}, which for genuinely submultiplicative tables
is itself an upper bound for the limit.

Arithmetic policy: counts are integers and epsilons and growth bounds
exact fractions p/q.  Every decision is an integer cross-multiplication:
f(m)f(n) > (p/q) f(k) is tested as q f(m)f(n) > p f(k), and f(n) > B^n as
q^n f(n) > p^n.  A Fraction is built only for what a report shows: a
violation's two sides, or a measured epsilon.

Floats only choose which pairs get that comparison.  With u = 2**-53,
math.log2 of a positive int rounds it to a double (relative error u,
so under 1.5u in its log2) and then takes a libm log2, assumed within
4 ulps; past the double range CPython adds the exponent to the log2 of
the rounded mantissa, one more rounding.  So each lg = math.log2(c)
is within 10.5u·max(1, lg) of log2(c).  A pair's value
d = lg f(m) + lg f(n) - lg f(k) - (lg p - lg q) is a signed sum of five
such logs formed with four float additions, each of which rounds by at
most u times a partial sum below 5L, where L >= 1 bounds every |lg| in
it; so d errs by at most 5·10.5uL + 4·5uL < 73uL, below the margin
2**-46·L = 128uL.  A pair whose computed d is at most -margin therefore
holds strictly, and only the rest are compared exactly.  Likewise one
whose d is above +margin fails strictly; a failing check that has kept
its MAX_VIOLATIONS counts such pairs without comparing them.  The worst
ratio of a measured epsilon compares values of two pairs (six logs, at
most six additions, under 100uL), so a pair more than 2·margin below
the largest value, or below 0 (the floor 1), is never the worst.  A
nonpositive count has no log: every pair it touches goes to the exact
comparison, and a table holding one gives no ordered ratios, so then
every measured pair does.

Roots are presentation-layer: when f(s) / epsilon(s) is a perfect power
its root is returned exactly, otherwise roots are evaluated as
exp(ln(x) / d) in 64-bit floating point with relative error below 2**-40
per operation.  An integer v is tested as a perfect d-th power through
the float root g = 2.0**(lg v / d): with x = lg v / d < 40 it is within
(8x + 8)u·g of the true root, far below 1/2, so only a g that close to
an integer is confirmed exactly; a wider root is found by integer
bisection.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError
from .words import GroupDescriptor

# the float filter's margin per unit of the largest |lg| (Arithmetic policy)
_MARGIN = 2.0**-46

# a failing check keeps this many violations and counts the rest
MAX_VIOLATIONS = 1000

# an affine spec's slope carries its sign, so "2n", "-2n" and "1-2n" all read
_AFFINE_RE = re.compile(r"^(?P<a>-?[0-9][0-9/.]*(?=[+-]))?(?P<b>[+-]?[0-9][0-9/.]*)n$")


@dataclass(frozen=True)
class FuncSpec:
    """An evaluable scalar function of a radius: affine, or a table.

    With values empty it is intercept + slope*n, a constant when the slope
    is 0; otherwise it is the table values[n].  Values are exact fractions.
    The textual form round-trips through parse_funcspec: "4", "7/2",
    "1+2n", "-1+2n", "table:1,2,4"; a bare slope "-2n" reads as 0-2n.
    """

    intercept: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)
    values: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intercept", Fraction(self.intercept))
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if self.values and (self.intercept or self.slope):
            raise ValueError("a table spec takes no intercept or slope")

    @staticmethod
    def table(values: Iterable) -> "FuncSpec":
        values = tuple(values)
        if not values:
            raise ValueError("table spec needs at least one value")
        return FuncSpec(values=values)

    def __call__(self, n: int) -> Fraction:
        if not self.values:
            return self.intercept + self.slope * n if self.slope else self.intercept
        if not 0 <= n < len(self.values):
            raise ValueError(
                f"function table has entries for n <= {len(self.values) - 1}, needs n = {n}"
            )
        return self.values[n]

    def render(self) -> str:
        if self.values:
            return "table:" + ",".join(str(v) for v in self.values)
        if not self.slope:
            return str(self.intercept)
        sign = "+" if self.slope > 0 else "-"
        return f"{self.intercept}{sign}{abs(self.slope)}n"


def parse_funcspec(text: str) -> FuncSpec:
    """Parse the textual function grammar used by rate hypotheses."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty function spec", column=1)
    try:
        if stripped.startswith("table:"):
            body = stripped[len("table:"):]
            if not body:
                raise ParseError("table spec has no values", column=len("table:") + 1)
            return FuncSpec.table(Fraction(tok.strip()) for tok in body.split(","))
        match = _AFFINE_RE.match(stripped)
        if match is not None:
            return FuncSpec(match["a"] or 0, match["b"])
        return FuncSpec(stripped)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"bad function spec {text!r}: {exc}", column=1) from None
    except ZeroDivisionError:
        raise ParseError(f"bad function spec {text!r}: zero denominator", column=1) from None


def default_growth_bound(group: GroupDescriptor) -> Fraction:
    # |B(1)| bounds beta(n)^{1/n} for any subgroup table by submultiplicativity
    return Fraction(2 * sum(group.ranks) + 1)


@dataclass(frozen=True)
class RateHypothesis:
    """Recorded combination hypothesis: epsilon, index shift, threshold, envelope.

    epsilon(n) >= 1 and integer shift(n) >= 0 are demanded pointwise at
    every index actually used; nothing asymptotic is verified.
    growth_bound is the base B of the envelope f(n) <= B^n, or None to
    skip the envelope check.
    """

    epsilon: FuncSpec = FuncSpec(1)
    shift: FuncSpec = FuncSpec()
    threshold: int = 1
    growth_bound: Fraction | None = None

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be a natural number")
        if self.growth_bound is not None:
            bound = Fraction(self.growth_bound)
            if bound <= 0:
                raise ValueError("growth bound must be positive")
            object.__setattr__(self, "growth_bound", bound)

    def epsilon_at(self, n: int) -> Fraction:
        value = self.epsilon(n)
        if value < 1:
            raise ValueError(f"epsilon({n}) = {value} < 1")
        return value

    def shift_at(self, n: int) -> int:
        value = self.shift(n)
        if value < 0 or value.denominator != 1:
            raise ValueError(f"shift({n}) = {value} is not a natural number")
        return int(value)

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon.render(),
            "shift": self.shift.render(),
            "threshold": self.threshold,
            "growth_bound": None if self.growth_bound is None else str(self.growth_bound),
        }


@dataclass(frozen=True)
class HypothesisViolation:
    """One failed comparison; lhs <= rhs was required and lhs > rhs held.

    kind is "combine" for f(m)f(n) <= eps(n)f(m+n+shift(n)) with both
    indices set, "monotone" / "positive" / "bound" for the unary table
    checks (m is None there).
    """

    kind: str
    m: int | None
    n: int
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass(frozen=True)
class HypothesisCheck:
    """A check's verdict over `checked` comparisons.

    violations holds the first MAX_VIOLATIONS failures in check order (the
    unary checks by n, then the pairs); when there were more, total counts
    them all, and otherwise it is None.
    """

    ok: bool
    checked: int
    violations: tuple[HypothesisViolation, ...]
    total: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class WalkRow:
    """One step of the quotient-remainder walk n = q*(s + shift(s)) + r."""

    n: int
    q: int
    r: int
    bound: float

    def to_json(self) -> dict:
        return {"n": self.n, "q": self.q, "r": self.r, "bound": self.bound}


@dataclass(frozen=True)
class RateEstimate:
    """Conditional floor and empirical ceiling for lim f(n)^{1/n}.

    The floor follows only if the recorded hypothesis holds at every
    index; hypothesis_ok says only that it holds on the table's range
    (see the module docstring's free:1 example), and when it does not,
    the violations say why: the first MAX_VIOLATIONS of them, with
    violations_total in the report only when there were more.  The walk
    table replays the per-n bound (f(s)/epsilon(s))^{q/n} at the witness
    s, exposing how the headline bound arises.
    """

    roots: tuple[float, ...]
    certified_lower: float
    empirical_upper: float
    witness_s: int
    witness_n: int
    hypothesis: RateHypothesis
    check: HypothesisCheck
    walk: tuple[WalkRow, ...]

    @property
    def hypothesis_ok(self) -> bool:
        return self.check.ok

    @property
    def violations(self) -> tuple[HypothesisViolation, ...]:
        return self.check.violations

    @property
    def interval(self) -> tuple[float, float]:
        return (self.certified_lower, self.empirical_upper)

    def to_json(self) -> dict:
        return {
            "lower": self.certified_lower,
            "upper": self.empirical_upper,
            "witness_s": self.witness_s,
            "witness_n": self.witness_n,
            "hypothesis_ok": self.hypothesis_ok,
            "violations": [v.to_json() for v in self.check.violations],
            **({} if self.check.total is None else {"violations_total": self.check.total}),
            "checked": self.check.checked,
            "hypothesis": self.hypothesis.to_json(),
            "roots": list(self.roots),
            "walk": [row.to_json() for row in self.walk],
        }


def _as_counts(f: Iterable[int]) -> tuple[int, ...]:
    counts = tuple(int(x) for x in f)
    if not counts:
        raise ValueError("empty growth table")
    return counts


def _int_nth_root(value: int, degree: int) -> int:
    """Largest r with r**degree <= value, by bisection on [0, 2^ceil(bits/degree))."""
    if value < 0 or degree < 1:
        raise ValueError("nth root needs value >= 0 and degree >= 1")
    lo, hi = 0, 1 << -(-value.bit_length() // degree)  # lo**degree <= value < hi**degree
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**degree <= value:
            lo = mid
        else:
            hi = mid
    return lo


def _exact_root(value: int, degree: int) -> int | None:
    """The r with r**degree == value for an int value >= 1, or None if there is none."""
    x = math.log2(value) / degree
    if x < 40:
        # the float root is within (8x + 8)u of the true one (Arithmetic policy)
        guess = 2.0**x
        root = round(guess)
        if abs(guess - root) > guess * (9 * x + 9) * 2.0**-53:
            return None
    else:
        root = _int_nth_root(value, degree)
    return root if root**degree == value else None


def _rational_root(num: int, den: int, degree: int) -> float:
    """(num/den)**(1/degree) as a float; exact when num/den, in lowest terms, is a perfect power."""
    if num <= 0:
        raise ValueError("root of a nonpositive value")
    root_num = _exact_root(num, degree)
    root_den = None if root_num is None else _exact_root(den, degree)
    if root_den is not None:
        return root_num / root_den
    return math.exp((math.log(num) - math.log(den)) / degree)


def root_sequence(f: Iterable[int]) -> tuple[float, ...]:
    """Root sequence a_n = f(n)^{1/n}, with a_0 = 1.0 by convention.

    Perfect powers come out exact; everything else is exp(ln f(n) / n)
    in doubles (relative error below 2**-40).  Zero or negative table
    entries are rejected.
    """
    counts = _as_counts(f)
    for n, value in enumerate(counts):
        if value < 1:
            raise ValueError(f"growth table entry f({n}) = {value} is not positive")
    roots = [1.0]
    for n in range(1, len(counts)):
        roots.append(_rational_root(counts[n], 1, n))
    return tuple(roots)


def _pair_grid(
    top: int, threshold: int, shift_at, s_max: int | None, t_max: int | None
) -> Iterator[tuple[int, int, range]]:
    """Rows of the triples (s, t, s + t + shift(t)) an inequality covers.

    Yields (t, shift(t), range of s) for t = threshold..t_max and
    s = 0..s_max on a table to radius top; shift_at runs once for every t.
    A missing bound takes every pair whose index the table covers; an
    explicit bound that needs an index past the table raises ValueError.
    """
    for t in range(threshold, (top if t_max is None else t_max) + 1):
        if t > top:
            raise ValueError(f"table covers radius {top}, t = {t} requested")
        shift = shift_at(t)
        s_top = top - t - shift if s_max is None else s_max
        if s_top >= 0 and s_top + t + shift > top:
            raise ValueError(
                f"table covers radius {top}, pair (s={s_top}, t={t}) "
                f"needs index {s_top + t + shift}"
            )
        yield t, shift, range(s_top + 1)


def _log2_counts(counts: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """lg f(n) for every n, nan where f(n) <= 0, and an L >= 1 above every lg."""
    lg = np.array([math.log2(c) if c > 0 else math.nan for c in counts])
    return lg, math.log2(max(max(counts), 2))


def _lg_gaps(lg: np.ndarray, offset: int, width: int) -> np.ndarray:
    """lg f(s) - lg f(s + offset) for s = 0..width-1."""
    return lg[:width] - lg[offset : offset + width]


def _undecided(lg: np.ndarray, offset: int, width: int, bound: float) -> list[int]:
    """The s in 0..width-1 that the float filter leaves to the exact comparison:
    every s whose gap is not at most bound, a nan gap (a count <= 0) included."""
    return (~(_lg_gaps(lg, offset, width) <= bound)).nonzero()[0].tolist()


def check_hypothesis(
    f: Iterable[int],
    hyp: RateHypothesis,
    *,
    m_max: int | None = None,
    n_max: int | None = None,
) -> HypothesisCheck:
    """Exhaustively test the combination inequality on the table range.

    Checks f(m)f(n) <= epsilon(n) f(m+n+shift(n)) for every n >= threshold
    and every m >= 0 whose shifted index the table covers, plus the unary
    conditions (positivity, monotonicity, and f(n) <= B^n when a growth
    bound is recorded).  Explicit m_max / n_max demand full coverage and
    raise on a range shortfall; without them the scan takes every pair
    that fits.
    """
    return _check_hypothesis(_as_counts(f), hyp, hyp.shift_at, hyp.epsilon_at, m_max, n_max)


def _check_hypothesis(
    counts: tuple[int, ...],
    hyp: RateHypothesis,
    shift_at,
    epsilon_at,
    m_max: int | None = None,
    n_max: int | None = None,
) -> HypothesisCheck:
    """check_hypothesis with shift(n) and epsilon(n) read from shift_at and epsilon_at."""
    violations: list[HypothesisViolation] = []
    checked = 0
    pn = qn = 1  # B^n = p^n / q^n for B = p/q, carried along n

    for n in range(len(counts)):
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
            if counts[n] * qn > pn:
                violations.append(
                    HypothesisViolation("bound", None, n, Fraction(counts[n]), Fraction(pn, qn))
                )
            pn, qn = pn * hyp.growth_bound.numerator, qn * hyp.growth_bound.denominator

    # epsilon(n) = p/q runs once for every n of the grid.  A pair whose float
    # d = lg f(m) + lg f(n) - lg f(k) - lg epsilon(n) is at most -margin holds
    # (Arithmetic policy); every other pair, in ascending m, is compared as
    # q f(m)f(n) > p f(k) in integers.  Every violation is counted, and the
    # first MAX_VIOLATIONS, unary ones first, are kept; once they are, a
    # pair whose d is above +margin is a violation counted without a product
    total = len(violations)
    lg, lg_top = _log2_counts(counts)
    lg_list = lg.tolist()
    pairs = 0
    for n, shift, m_range in _pair_grid(len(counts) - 1, hyp.threshold, shift_at, m_max, n_max):
        eps = epsilon_at(n)
        p, q, fn = eps.numerator, eps.denominator, counts[n]
        pairs += len(m_range)
        lg_p = math.log2(p)
        margin = _MARGIN * max(lg_top, lg_p)
        rest = lg_list[n] - (lg_p - math.log2(q))
        gaps = _lg_gaps(lg, n + shift, len(m_range))
        undecided = ~(gaps <= -margin - rest)
        if len(violations) >= MAX_VIOLATIONS:
            proven = gaps > margin - rest
            total += int(np.count_nonzero(proven))
            undecided &= ~proven
        for m in undecided.nonzero()[0].tolist():
            lhs, fk = counts[m] * fn, counts[m + n + shift]
            if q * lhs > p * fk:
                total += 1
                if len(violations) < MAX_VIOLATIONS:
                    violations.append(HypothesisViolation("combine", m, n, Fraction(lhs), eps * fk))
    if pairs == 0:
        raise ValueError("table range admits no combination pair at this threshold")
    kept = tuple(violations[:MAX_VIOLATIONS])
    return HypothesisCheck(not total, checked + pairs, kept, total if total > len(kept) else None)


def fekete_lower_bound(f: Iterable[int], hyp: RateHypothesis) -> RateEstimate:
    """Bracket lim f(n)^{1/n} from a finite table under a recorded hypothesis.

    certified_lower maximises (f(s)/epsilon(s))^{1/(s+shift(s))} over
    s >= threshold in range; empirical_upper is the monotone envelope
    min_n max_{m>=n} a_m of the root sequence.  The embedded hypothesis
    check covers the table only and never raises on failure; its
    violations go into the estimate.
    """
    counts = _as_counts(f)
    top = len(counts) - 1
    roots = root_sequence(counts)
    # the check evaluates shift(s) and epsilon(s) first, once for each s
    shift_at, epsilon_at = functools.cache(hyp.shift_at), functools.cache(hyp.epsilon_at)
    check = _check_hypothesis(counts, hyp, shift_at, epsilon_at)

    best_value = None
    witness_s = None
    for s in range(max(hyp.threshold, 1), top + 1):
        ratio = Fraction(counts[s]) / epsilon_at(s)
        value = _rational_root(ratio.numerator, ratio.denominator, s + shift_at(s))
        if best_value is None or value > best_value:
            best_value, witness_s = value, s
    if witness_s is None:
        raise ValueError(
            f"no admissible witness: table covers radius {top}, threshold {hyp.threshold}"
        )

    # suffix maxima of the root sequence; the envelope's min sits at the
    # earliest n where the tail maximum bottoms out
    suffix = list(roots)
    for n in range(top - 1, 0, -1):
        suffix[n] = max(suffix[n], suffix[n + 1])
    upper = min(suffix[1:]) if top >= 1 else roots[0]
    witness_n = next(n for n in range(1, top + 1) if suffix[n] == upper) if top >= 1 else 0

    period = witness_s + shift_at(witness_s)
    ratio = Fraction(counts[witness_s]) / epsilon_at(witness_s)
    log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
    walk = []
    for n in range(1, top + 1):
        q, r = divmod(n, period)
        walk.append(WalkRow(n, q, r, math.exp(log_ratio * q / n)))

    return RateEstimate(
        roots=roots,
        certified_lower=best_value,
        empirical_upper=upper,
        witness_s=witness_s,
        witness_n=witness_n,
        hypothesis=hyp,
        check=check,
        walk=tuple(walk),
    )


def hypothesis_from_growth(
    f: Iterable[int],
    c: int,
    *,
    s_max: int | None = None,
    t_max: int | None = None,
) -> RateHypothesis:
    """Measure the cheapest constant-epsilon hypothesis a table supports.

    Takes the worst ratio f(s)f(t) / f(s+t+c) over the covered grid
    (capped at s_max / t_max when given), floored at 1, as a constant
    epsilon with shift identically c, and no growth bound.
    """
    if c < 0:
        raise ValueError("connector length must be nonnegative")
    if (s_max is None) != (t_max is None):
        raise ValueError("pass both s_max and t_max or neither")
    counts = _as_counts(f)
    rows = [row for row in _pair_grid(len(counts) - 1, 0, lambda t: c, s_max, t_max) if row[2]]
    if not rows:
        raise ValueError("table range admits no measurement pair")
    # a pair more than 2 margins below the largest float lg ratio, or below
    # 0 (the floor 1), is never the worst (Arithmetic policy); a nonpositive
    # count leaves the ratios unordered, so then every pair is compared
    lg, lg_top = _log2_counts(counts)
    peaks = [np.max(_lg_gaps(lg, t + c, len(s_range))) + lg[t] for t, _, s_range in rows]
    cutoff = max(max(peaks), 0.0) - 2 * _MARGIN * lg_top if min(counts) > 0 else -math.inf
    worst = Fraction(1)
    for (t, _, s_range), peak in zip(rows, peaks):
        if peak <= cutoff:
            continue
        for s in _undecided(lg, t + c, len(s_range), cutoff - lg[t]):
            lhs, fk = counts[s] * counts[t], counts[s + t + c]
            if worst.denominator * lhs > worst.numerator * fk:
                worst = Fraction(lhs, fk)
    return RateHypothesis(
        epsilon=FuncSpec(worst),
        shift=FuncSpec(c),
        threshold=1,
    )
