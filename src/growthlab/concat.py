"""Connecting pieces and the connector-insertion concatenation map.

Plain concatenation (u, v) -> uv loses information to cancellation: the
identity has as many preimages over B(2n) x B(n) as the whole ball B(n).
Inserting a well-chosen piece x between u and v blocks that collapse.
A kit holds the four candidate pieces g^n, g^-n, h^n, h^-n built from two
elements with no common power; the selection rule picks the piece whose
junctions cancel least, measured by the Gromov products (u^-1 . x)_1 and
(v . x^-1)_1, with ties broken by the fixed piece order so the map
(u, v) -> u x_{u,v} v is a genuine function.

measure_ambiguity enumerates that map over ball products and reports the
largest fiber per radius pair, the fitted linear-in-t envelope, and any
cell exceeding the envelope. Fibers of specific targets are computed by
the inverse trick u = w v^-1 x^-1, which avoids enumerating pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cayley import Ball, GrowthTable, enumerate_ball, relative_ball
from .errors import (
    AmbiguityBudgetError,
    DependenceError,
    GroupMismatchError,
    InvariantViolationError,
)
from .rate import HypothesisCheck, _as_counts, _combine_violations
from .subgroups import SubgroupOracle, cyclic_core
from .words import (
    SEP,
    Element,
    GroupDescriptor,
    free_group,
    invert_packed,
    invert_word,
    multiply_packed,
    multiply_words,
    packed_length,
)

DEFAULT_PAIR_BUDGET = 10_000_000


def primitive_root(data: bytes) -> tuple[bytes, int]:
    """Write a nontrivial single-factor word as root^e with maximal e >= 1.

    The root of T z T^-1 with z cyclically reduced and z = w^e (w of
    minimal period) is T w T^-1.
    """
    if not data:
        raise ValueError("the trivial word has no primitive root")
    tail, core = cyclic_core(data)
    m = len(core)
    for period in range(1, m + 1):
        if m % period == 0 and core[:period] * (m // period) == core:
            root = multiply_words(
                multiply_words(tail, core[:period]), invert_word(tail)
            )
            return root, m // period
    raise AssertionError("a word is always a power of itself")


def have_common_power(g: Element, h: Element) -> bool:
    """Whether g^p = h^q is solvable with p, q both nonzero.

    Componentwise in products: each factor pair must share a primitive
    root up to inversion, with a globally consistent exponent ratio, and
    the factors where either side is trivial must be trivial on both.
    """
    if g.group != h.group:
        raise GroupMismatchError("elements of different groups")
    if g.is_identity() or h.is_identity():
        raise ValueError("common-power check needs nontrivial elements")
    ratios: list[tuple[int, int]] = []
    for gp, hp in zip(g.packed.split(SEP), h.packed.split(SEP)):
        if not gp and not hp:
            continue
        if not gp or not hp:
            return False
        root_g, e = primitive_root(gp)
        root_h, f = primitive_root(hp)
        if root_h == root_g:
            ratios.append((e, f))
        elif root_h == invert_word(root_g):
            ratios.append((e, -f))
        else:
            return False
    e0, f0 = ratios[0]
    return all(e0 * f == e * f0 for e, f in ratios[1:])


@dataclass(frozen=True)
class ConnectorKit:
    """Four connecting pieces in fixed order, and their max word length c."""

    group: GroupDescriptor
    g: Element
    h: Element
    n: int
    pieces: tuple[Element, Element, Element, Element]
    c: int

    def spec_string(self) -> str:
        return f"kit({self.g.render()},{self.h.render()};n={self.n})"


def build_connector_kit(
    group: GroupDescriptor,
    g: Element,
    h: Element,
    n: int = 2,
    *,
    assume_independent: bool = False,
) -> ConnectorKit:
    """Kit of pieces (g^n, g^-n, h^n, h^-n) for a pair with no common power.

    The common-power check is exact at desk scale (primitive roots per
    factor); assume_independent skips it for callers who already know.
    Coinciding pieces are rejected regardless of the flag.
    """
    if g.group != group or h.group != group:
        raise GroupMismatchError("kit elements must live in the stated group")
    if g.is_identity() or h.is_identity():
        raise ValueError("kit elements must be nontrivial")
    if n < 1:
        raise ValueError("exponent must be at least 1")
    if not assume_independent and have_common_power(g, h):
        raise DependenceError(
            f"{g.render()} and {h.render()} share a common power; "
            "no connector kit exists for a dependent pair"
        )
    pieces = (g**n, g ** (-n), h**n, h ** (-n))
    if len({p.packed for p in pieces}) != 4:
        raise DependenceError("connecting pieces coincide; the pair is unusable")
    c = max(p.length() for p in pieces)
    return ConnectorKit(group, g, h, n, pieces, c)


def _junction_scores(
    kit: ConnectorKit, w: bytes, nf: int, *, left: bool
) -> tuple[int, ...]:
    """Doubled junction cancellation of w against each piece x, in order.

    With w on the left of x this is 2 (w^-1 . x)_1 = |w| + |x| - |wx|; on
    the right, 2 (w . x^-1)_1 = |w| + |x| - |xw|. Doubled values stay
    integral.
    """
    lw = packed_length(w, nf)
    out = []
    for piece in kit.pieces:
        x = piece.packed
        joined = multiply_packed(w, x, nf) if left else multiply_packed(x, w, nf)
        out.append(lw + packed_length(x, nf) - packed_length(joined, nf))
    return tuple(out)


def _select(left: Sequence[int], right: Sequence[int]) -> tuple[int, int]:
    """Index and doubled score of the piece whose worse junction cancels least.

    left are u's scores, right are v's; ties go to the earliest piece in
    the fixed order, which makes the concatenation map a function of (u, v).
    """
    scores = [a if a > b else b for a, b in zip(left, right)]
    best = min(scores)
    return scores.index(best), best


def select_connector(kit: ConnectorKit, u: Element, v: Element) -> tuple[Element, float]:
    """The piece whose worst junction cancellation is smallest, and that score.

    Ties go to the earliest piece in the fixed order, which makes the
    concatenation map a well-defined function of (u, v).
    """
    if u.group != kit.group or v.group != kit.group:
        raise GroupMismatchError("arguments must live in the kit's group")
    nf = kit.group.num_factors
    best, score = _select(
        _junction_scores(kit, u.packed, nf, left=True),
        _junction_scores(kit, v.packed, nf, left=False),
    )
    return kit.pieces[best], score / 2


def concat_apply(kit: ConnectorKit, u: Element, v: Element) -> Element:
    """u x_{u,v} v; its length never exceeds |u| + |v| + c."""
    piece, _ = select_connector(kit, u, v)
    return u * piece * v


def product_concat_apply(
    kits: Sequence[ConnectorKit], u: Element, v: Element
) -> Element:
    """Componentwise connector insertion in a product, one kit per factor.

    The connector tuple is chosen per component independently, so the
    image generally leaves proper subgroups such as the diagonal even
    when u and v lie in them.
    """
    group = u.group
    if v.group != group:
        raise GroupMismatchError("arguments live in different groups")
    if len(kits) != group.num_factors:
        raise GroupMismatchError(
            f"{group.num_factors} factors need as many kits, got {len(kits)}"
        )
    parts = []
    for i, kit in enumerate(kits):
        factor = free_group(group.ranks[i])
        if kit.group != factor:
            raise GroupMismatchError(
                f"kit {i} is over {kit.group.spec()}, "
                f"factor {i} is free of rank {group.ranks[i]}"
            )
        ui = Element(factor, u.component(i).data)
        vi = Element(factor, v.component(i).data)
        parts.append(concat_apply(kit, ui, vi).packed)
    return Element(group, SEP.join(parts))


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


@dataclass(frozen=True)
class CellStats:
    """Fiber statistics of one (s, t) cell of the measurement grid."""

    s: int
    t: int
    radius: int
    pairs: int
    max_fiber: int
    argmax: Element


@dataclass(frozen=True)
class AmbiguityReport:
    """Max fiber sizes of the concatenation map over a grid of ball pairs.

    slope and intercept define the linear-in-t envelope fitted on columns
    t <= fit_t; violations lists the cells whose max fiber exceeds it.
    complete is False when a pair budget truncated the grid.
    """

    domain: str
    connector: str
    c: int
    s_max: int
    t_max: int
    fit_t: int
    cells: tuple[CellStats, ...]
    slope: Fraction
    intercept: int
    violations: tuple[tuple[int, int], ...]
    complete: bool = True

    def cell(self, s: int, t: int) -> CellStats:
        for cell in self.cells:
            if cell.s == s and cell.t == t:
                return cell
        raise KeyError((s, t))

    def envelope(self, t: int) -> Fraction:
        return self.intercept + self.slope * t

    def max_fiber_by_t(self) -> list[int]:
        out = [0] * (self.t_max + 1)
        for cell in self.cells:
            out[cell.t] = max(out[cell.t], cell.max_fiber)
        return out


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


def _fit_envelope(
    cells: Sequence[CellStats], fit_t: int
) -> tuple[Fraction, int, tuple[tuple[int, int], ...]]:
    by_t: dict[int, int] = {}
    for cell in cells:
        by_t[cell.t] = max(by_t.get(cell.t, 0), cell.max_fiber)
    intercept = by_t.get(0, 1)
    slope = Fraction(0)
    for t in range(1, fit_t + 1):
        if t in by_t:
            slope = max(slope, Fraction(by_t[t] - intercept, t))
    violations = tuple(
        (cell.s, cell.t)
        for cell in cells
        if cell.max_fiber > intercept + slope * cell.t
    )
    return slope, intercept, violations


def measure_ambiguity(
    kit: ConnectorKit | None,
    domain: GroupDescriptor | SubgroupOracle,
    s_max: int,
    t_max: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
    ambient: Ball | None = None,
) -> AmbiguityReport:
    """Fiber statistics of the concatenation map over B(s) x B(t) grids.

    kit=None measures plain concatenation (the no-connector baseline,
    c = 0). The domain is a whole group or a subgroup oracle; relative
    domains use ambient-length balls of the subgroup. budget caps the
    total number of (u, v) pairs across the grid; exceeding it raises
    with the partial report attached. The envelope is fitted on t <= 3.
    """
    group, name, ball = _resolve_domain(domain, max(s_max, t_max), ambient)
    if kit is not None and kit.group != group:
        raise GroupMismatchError("kit and domain groups differ")
    nf = group.num_factors
    c = kit.c if kit is not None else 0
    connector = kit.spec_string() if kit is not None else "naive"
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


def fiber_size(
    kit: ConnectorKit | None,
    domain: GroupDescriptor | SubgroupOracle,
    s: int,
    t: int,
    target: Element,
    *,
    ambient: Ball | None = None,
) -> int:
    """Exact fiber cardinality of one target over B(s) x B(t).

    Inverts the map instead of enumerating pairs: for each v and piece x,
    u = target v^-1 x^-1 is the only candidate, kept when it fits in B(s),
    lies in the domain, and the selection rule actually picks x for it.
    """
    group, _, ball = _resolve_domain(domain, t, ambient)
    if target.group != group:
        raise GroupMismatchError("target outside the domain group")
    if kit is not None and kit.group != group:
        raise GroupMismatchError("kit and domain groups differ")
    oracle = domain if isinstance(domain, SubgroupOracle) else None
    nf = group.num_factors
    count = 0
    tp = target.packed
    for vp in ball.packed:
        tv = multiply_packed(tp, invert_packed(vp, nf), nf)
        if kit is None:
            if packed_length(tv, nf) > s:
                continue
            if oracle is not None and oracle.contains_packed(tv) is not True:
                continue
            count += 1
            continue
        right = _junction_scores(kit, vp, nf, left=False)
        for p, piece in enumerate(kit.pieces):
            up = multiply_packed(tv, invert_packed(piece.packed, nf), nf)
            if packed_length(up, nf) > s:
                continue
            if oracle is not None and oracle.contains_packed(up) is not True:
                continue
            if _select(_junction_scores(kit, up, nf, left=True), right)[0] == p:
                count += 1
    return count


def max_connector_score(kit: ConnectorKit, domain: int | Ball) -> float:
    """Largest selected junction score over all pairs of a ball.

    An empirical stand-in for the selection lemma's constant A: the
    selected piece's score stays small even as the ball grows.
    """
    if isinstance(domain, Ball):
        ball = domain
        if ball.group != kit.group:
            raise GroupMismatchError("ball and kit groups differ")
    else:
        ball = enumerate_ball(kit.group, domain)
    nf = kit.group.num_factors
    lefts = [_junction_scores(kit, up, nf, left=True) for up in ball.packed]
    rights = [_junction_scores(kit, vp, nf, left=False) for vp in ball.packed]
    best = max(_select(left, right)[1] for left in lefts for right in rights)
    return best / 2


def sweep_exponents(
    domain: GroupDescriptor | SubgroupOracle,
    g: Element,
    h: Element,
    exponents: Sequence[int],
    s_max: int,
    t_max: int,
    **kwargs,
) -> tuple[AmbiguityReport, ...]:
    """Ambiguity reports for kits over a range of piece exponents."""
    return tuple(
        measure_ambiguity(
            build_connector_kit(g.group, g, h, n), domain, s_max, t_max, **kwargs
        )
        for n in exponents
    )


def verify_supermultiplicativity(
    growth: GrowthTable,
    c: int,
    l: Callable[[int], object] | int | float,
    *,
    s_max: int | None = None,
    t_max: int | None = None,
) -> HypothesisCheck:
    """Check beta(s) beta(t) <= l(t) beta(s+t+c) over the covered grid.

    This is rate's combination inequality with epsilon = l and the constant
    shift c, from t = 0 and without the unary table checks. l may be a
    callable or a number, below 1 included; it is evaluated once for each
    t up to t_max, or up to the table's radius when no bounds are given.
    Without explicit bounds every (s, t) with s + t + c inside the table
    is checked; with bounds the table must cover s_max + t_max + c.
    Violations come as ("combine", s, t, lhs, rhs), t-major.
    """
    if (s_max is None) != (t_max is None):
        raise ValueError("give both bounds or neither")
    epsilon_at = (lambda t: Fraction(l(t))) if callable(l) else (lambda t: Fraction(l))
    checked, violations = _combine_violations(
        _as_counts(growth), epsilon_at, lambda t: c, 0, s_max, t_max
    )
    return HypothesisCheck(not violations, checked, tuple(violations))
