"""Growth-rate bracketing from finite growth tables.

A growth table only ever shows finitely many values, so no limit of
f(n)^{1/n} can be certified from it.  What can be certified is an
interval.  Suppose f satisfies, for some threshold C, a combination
inequality

    f(m) * f(n) <= epsilon(n) * f(m + n + l(n))   for all m and all n >= C

together with 1 <= f(n) <= B^n.  Iterating the inequality along the
quotient-remainder decomposition n = q*(s + l(s)) + r turns any single
table entry f(s) into an asymptotic lower bound

    liminf f(n)^{1/n}  >=  (f(s) / epsilon(s)) ^ (1 / (s + l(s))),

so the best such bound over the table is a certified floor whenever the
hypothesis holds on the supplied range.  The ceiling is empirical: the
monotone envelope min_n max_{m >= n} a_m of the root sequence
a_n = f(n)^{1/n}, which for genuinely submultiplicative tables is itself
an upper bound for the limit.

Arithmetic policy: counts are integers and epsilons and growth bounds
exact fractions p/q.  Every comparison is an integer cross-multiplication:
f(m)f(n) > (p/q) f(k) is tested as q f(m)f(n) > p f(k), and f(n) > B^n as
q^n f(n) > p^n.  A Fraction is built only for what a report shows: a
violation's two sides, or a measured epsilon.  Roots are presentation-layer:
when f(s) / epsilon(s) is a perfect power its root is returned exactly,
otherwise roots are evaluated as exp(ln(x) / d) in 64-bit floating point
with relative error below 2**-40 per operation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ParseError
from .words import GroupDescriptor

__all__ = [
    "FuncSpec",
    "parse_funcspec",
    "RateHypothesis",
    "HypothesisViolation",
    "HypothesisCheck",
    "RateEstimate",
    "WalkRow",
    "default_growth_bound",
    "root_sequence",
    "check_hypothesis",
    "fekete_lower_bound",
    "hypothesis_from_growth",
]

_AFFINE_RE = re.compile(r"^(?:(?P<a>[0-9][0-9/.]*)(?P<sign>[+-]))?(?P<b>[0-9][0-9/.]*)n$")


@dataclass(frozen=True)
class FuncSpec:
    """An evaluable scalar function of a radius: constant, affine, or table.

    Values are exact fractions.  The textual form round-trips through
    parse_funcspec: "4", "7/2", "1+2n", "table:1,2,4".
    """

    kind: str
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "affine", "table"):
            raise ValueError(f"unknown function kind {self.kind!r}")
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if self.kind == "constant" and len(coeffs) != 1:
            raise ValueError("constant spec takes exactly one coefficient")
        if self.kind == "affine" and len(coeffs) != 2:
            raise ValueError("affine spec takes intercept and slope")
        if self.kind == "table" and not coeffs:
            raise ValueError("table spec needs at least one value")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def constant(value) -> "FuncSpec":
        return FuncSpec("constant", (Fraction(value),))

    @staticmethod
    def affine(intercept, slope) -> "FuncSpec":
        return FuncSpec("affine", (Fraction(intercept), Fraction(slope)))

    @staticmethod
    def table(values: Iterable) -> "FuncSpec":
        return FuncSpec("table", tuple(Fraction(v) for v in values))

    def __call__(self, n: int) -> Fraction:
        if self.kind == "constant":
            return self.coeffs[0]
        if self.kind == "affine":
            return self.coeffs[0] + self.coeffs[1] * n
        if not 0 <= n < len(self.coeffs):
            raise ValueError(
                f"function table has entries for n <= {len(self.coeffs) - 1}, needs n = {n}"
            )
        return self.coeffs[n]

    def render(self) -> str:
        if self.kind == "constant":
            return str(self.coeffs[0])
        if self.kind == "affine":
            intercept, slope = self.coeffs
            sign = "+" if slope >= 0 else "-"
            return f"{intercept}{sign}{abs(slope)}n"
        return "table:" + ",".join(str(c) for c in self.coeffs)


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
            intercept = Fraction(match.group("a")) if match.group("a") else Fraction(0)
            slope = Fraction(match.group("b"))
            if match.group("sign") == "-":
                slope = -slope
            if slope == 0:
                return FuncSpec.constant(intercept)
            return FuncSpec.affine(intercept, slope)
        return FuncSpec.constant(Fraction(stripped))
    except ParseError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad function spec {text!r}: {exc}", column=1) from None


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

    epsilon: FuncSpec = field(default_factory=lambda: FuncSpec.constant(1))
    shift: FuncSpec = field(default_factory=lambda: FuncSpec.constant(0))
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
    ok: bool
    checked: int
    violations: tuple[HypothesisViolation, ...]

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
    """Certified floor and empirical ceiling for lim f(n)^{1/n}.

    The floor is certified only when the recorded hypothesis checks out
    on the supplied range (hypothesis_ok); otherwise it is conditional
    and the violations say why.  The walk table replays the per-n bound
    (f(s)/epsilon(s))^{q/n} at the witness s, exposing how the headline
    bound arises.
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
    """Largest r with r**degree <= value, exact integer arithmetic."""
    if value < 0 or degree < 1:
        raise ValueError("nth root needs value >= 0 and degree >= 1")
    if degree == 1 or value in (0, 1):
        return value
    try:
        root = int(round(value ** (1.0 / degree)))
    except OverflowError:
        root = 1 << ((value.bit_length() + degree - 1) // degree)
    while root > 1 and root**degree > value:
        root -= 1
    while (root + 1) ** degree <= value:
        root += 1
    return root


def _rational_root(value: Fraction, degree: int) -> float:
    """value**(1/degree) as a float; exact when value is a perfect power."""
    if value <= 0:
        raise ValueError("root of a nonpositive value")
    num, den = value.numerator, value.denominator
    root_num = _int_nth_root(num, degree)
    root_den = _int_nth_root(den, degree)
    if root_num**degree == num and root_den**degree == den:
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
        roots.append(_rational_root(Fraction(counts[n]), n))
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
    counts = _as_counts(f)
    violations: list[HypothesisViolation] = []
    checked = 0

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
            p, q = hyp.growth_bound.numerator**n, hyp.growth_bound.denominator**n
            if counts[n] * q > p:
                violations.append(
                    HypothesisViolation("bound", None, n, Fraction(counts[n]), Fraction(p, q))
                )

    # epsilon(n) = p/q runs once for every n of the grid, and each pair is
    # compared as q f(m)f(n) > p f(k) in integers
    pairs = 0
    for n, shift, m_range in _pair_grid(len(counts) - 1, hyp.threshold, hyp.shift_at, m_max, n_max):
        eps = hyp.epsilon_at(n)
        p, q, fn = eps.numerator, eps.denominator, counts[n]
        pairs += len(m_range)
        for m in m_range:
            lhs, fk = counts[m] * fn, counts[m + n + shift]
            if q * lhs > p * fk:
                violations.append(HypothesisViolation("combine", m, n, Fraction(lhs), eps * fk))
    if pairs == 0:
        raise ValueError("table range admits no combination pair at this threshold")
    return HypothesisCheck(not violations, checked + pairs, tuple(violations))


def fekete_lower_bound(f: Iterable[int], hyp: RateHypothesis) -> RateEstimate:
    """Bracket lim f(n)^{1/n} from a finite table under a recorded hypothesis.

    certified_lower maximises (f(s)/epsilon(s))^{1/(s+shift(s))} over
    s >= threshold in range; empirical_upper is the monotone envelope
    min_n max_{m>=n} a_m of the root sequence.  The embedded hypothesis
    check never raises on failure, it just marks the floor conditional.
    """
    counts = _as_counts(f)
    top = len(counts) - 1
    roots = root_sequence(counts)
    check = check_hypothesis(counts, hyp)

    best_value = None
    witness_s = None
    for s in range(max(hyp.threshold, 1), top + 1):
        denom = s + hyp.shift_at(s)
        value = _rational_root(Fraction(counts[s]) / hyp.epsilon_at(s), denom)
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

    period = witness_s + hyp.shift_at(witness_s)
    ratio = Fraction(counts[witness_s]) / hyp.epsilon_at(witness_s)
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
    worst = Fraction(1)
    pairs = 0
    for t, _, s_range in _pair_grid(len(counts) - 1, 0, lambda t: c, s_max, t_max):
        pairs += len(s_range)
        for s in s_range:
            lhs, fk = counts[s] * counts[t], counts[s + t + c]
            if worst.denominator * lhs > worst.numerator * fk:
                worst = Fraction(lhs, fk)
    if pairs == 0:
        raise ValueError("table range admits no measurement pair")
    return RateHypothesis(
        epsilon=FuncSpec.constant(worst),
        shift=FuncSpec.constant(c),
        threshold=1,
    )
