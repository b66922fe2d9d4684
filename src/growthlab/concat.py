"""Connecting pieces and the connector-insertion concatenation map.

Plain concatenation (u, v) -> uv loses information to cancellation: the
identity has as many preimages over B(2n) x B(n) as the whole ball B(n).
Inserting a well-chosen piece x between u and v blocks that collapse.
A kit holds the four candidate pieces g^n, g^-n, h^n, h^-n built from two
elements with no common power (plain concatenation is the naive kit,
whose one piece is the identity); the selection rule picks the piece whose
junctions cancel least, measured by the Gromov products (u^-1 . x)_1 and
(v . x^-1)_1, with ties broken by the fixed piece order so the map
(u, v) -> u x_{u,v} v is a genuine function.

measure_ambiguity evaluates that map once on every pair of the largest
ball product, in numpy on integer-coded words, and reports the largest
fiber per radius pair, the fitted linear-in-t envelope, and any cell
exceeding the envelope. Fibers of specific targets are computed by the
inverse trick u = w v^-1 x^-1, which avoids enumerating pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cayley import Ball, relative_ball
from .counting import relative_ball_counts
from .errors import (
    AmbiguityBudgetError,
    DependenceError,
    GroupMismatchError,
    InvariantViolationError,
    UnsupportedConfigurationError,
)
from .subgroups import SubgroupOracle, as_oracle, cyclic_core
from .words import (
    SEP,
    Element,
    GroupDescriptor,
    common_prefix,
    factor_columns,
    invert_packed,
    invert_word,
    multiply_packed,
    multiply_words,
    packed_length,
)

DEFAULT_PAIR_BUDGET = 10_000_000
# pairs per block of the image pass, which bounds its temporaries to a few MB
_BLOCK_PAIRS = 1 << 15


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
    """Connecting pieces in fixed order, their max word length c, and the
    kit's spec, as a report names it."""

    group: GroupDescriptor
    pieces: tuple[Element, ...]
    c: int
    spec: str

    @staticmethod
    def naive(group: GroupDescriptor) -> "ConnectorKit":
        """Plain concatenation: one identity piece, whose junctions never cancel."""
        return ConnectorKit(group, (group.identity(),), 0, "naive")


def build_connector_kit(
    group: GroupDescriptor,
    g: Element,
    h: Element,
    n: int = 2,
) -> ConnectorKit:
    """Kit of pieces (g^n, g^-n, h^n, h^-n) for a pair with no common power.

    The common-power check is exact at desk scale (primitive roots per
    factor); coinciding pieces are rejected as well, as a safety net
    behind it.
    """
    if g.group != group or h.group != group:
        raise GroupMismatchError("kit elements must live in the stated group")
    if g.is_identity() or h.is_identity():
        raise ValueError("kit elements must be nontrivial")
    if n < 1:
        raise ValueError("exponent must be at least 1")
    if have_common_power(g, h):
        raise DependenceError(
            f"{g.render()} and {h.render()} share a common power; "
            "no connector kit exists for a dependent pair"
        )
    pieces = (g**n, g ** (-n), h**n, h ** (-n))
    if len({p.packed for p in pieces}) != 4:
        raise DependenceError("connecting pieces coincide; the pair is unusable")
    c = max(p.length() for p in pieces)
    return ConnectorKit(group, pieces, c, f"kit({g.render()},{h.render()};n={n})")


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


def _admitted(
    sizes: Sequence[int], s_max: int, t_max: int, budget: int
) -> tuple[list[tuple[int, int]], int | None]:
    """The s-major prefix of cells whose pairs fit the budget.

    Also returns the running pair total at the first cell that does not
    fit, or None when the whole grid fits.
    """
    cells: list[tuple[int, int]] = []
    used = 0
    for s in range(s_max + 1):
        for t in range(t_max + 1):
            used += sizes[s] * sizes[t]
            if used > budget:
                return cells, used
            cells.append((s, t))
    return cells, None


def _junctions(
    kit: ConnectorKit, us: Sequence[bytes], v_layout: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """The products u x (u-major) and the doubled junction score matrices.

    v_layout is factor_columns of the v words. Row i of the left matrix is
    u_i's _junction_scores, row j of the right one v_j's: x v cancels
    lcp(x_f^-1, v_f) letters in each factor f.
    """
    nf = len(v_layout)
    xs = [p.packed for p in kit.pieces]
    prods = [multiply_packed(u, x, nf) for u in us for x in xs]
    lu = np.array([len(u) for u in us], dtype=np.int64)
    lx = np.array([len(x) for x in xs], dtype=np.int64)
    la = np.array([len(a) for a in prods], dtype=np.int64).reshape(len(us), len(xs))
    left = lu[:, None] + lx - la - (nf - 1)
    x_inv = factor_columns([invert_packed(x, nf) for x in xs], nf)
    right = 0
    for (x_lens, x_cols), (v_lens, v_cols) in zip(x_inv, v_layout):
        cap = np.minimum(v_lens[:, None], x_lens)
        right = right + 2 * common_prefix(x_cols, v_cols[:, :, None], cap)
    return prods, left, right


def _worse_junctions(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """_select's scores for every (u, v) pair and piece: the worse junction.

    Its argmin over the last axis takes the first minimum, which is
    _select's tie-break.
    """
    return np.maximum(left[:, None, :], right[None, :, :])


def _coded(lengths: np.ndarray, cols: np.ndarray, pows: np.ndarray) -> np.ndarray:
    """Base-B codes of reduced words from their factor_columns, first letter
    most significant.

    The digits are the letter bytes 1..2k, all below B = pows[1], so a
    longer word always has the larger code and code order is shortlex.
    """
    code = np.zeros(len(lengths), dtype=pows.dtype)
    for col in cols.astype(pows.dtype):
        code = code * pows[1] + col
    return code // pows[len(cols) - lengths]


def _unkey(key: int, base: int) -> bytes:
    """The packed word of an image key: its base-B digits below the leading 1."""
    digits = []
    while key > 1:
        key, digit = divmod(key, base)
        digits.append(digit)
    return bytes(reversed(digits))


def _image_keys(
    kit: ConnectorKit, ball: Ball, last_t: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, int]:
    """One key per (u, v) pair of the pass, its (|u|, |v|) bucket, and the base B.

    last_t maps each u radius to the largest v radius it meets. An image
    u x v is coded from the codes of u x and v: the junction cancels
    k = lcp((u x)^-1, v) letters, so the image's code is
    code(u x) // B^k * B^(|v|-k) + code(v) % B^(|v|-k), factor by factor,
    with the factors joined by SEP as the digit 0. A digit 1 above them,
    at the B^(|w|+nf-1) place, makes one key per image whose order is
    shortlex. Keys stay below 2 B^(s+t+c+nf-1): int64 while that is below
    2^63, and the same expressions on Python ints past it.
    """
    group, c = ball.group, kit.c
    nf = group.num_factors
    s_top, t_top = max(last_t), max(last_t.values())
    counts = ball.counts_by_radius
    base = 2 * max(group.ranks) + 1
    top = s_top + t_top + c + nf - 1
    pows = np.array(
        [base**i for i in range(top + 1)], dtype=np.int64 if 2 * base**top < 2**63 else object
    )

    us, vs = ball.packed[: counts[s_top]], ball.packed[: counts[t_top]]
    v_layout = factor_columns(vs, nf)
    prods, left, right = _junctions(kit, us, v_layout)
    n_pieces = left.shape[1]
    u_len = np.array([len(u) for u in us], dtype=np.int64) - (nf - 1)
    v_len = np.array([len(v) for v in vs], dtype=np.int64) - (nf - 1)
    a_layout = factor_columns(prods, nf)
    inv_layout = factor_columns([invert_packed(a, nf) for a in prods], nf)
    factors = [
        (a_lens, _coded(a_lens, a_cols, pows), a_inv, v_lens, _coded(v_lens, v_cols, pows), v_cols)
        for (a_lens, a_cols), (_, a_inv), (v_lens, v_cols) in zip(a_layout, inv_layout, v_layout)
    ]

    # u rows that meet the same v's form one segment, cut into blocks
    segments: list[list[int]] = []
    for s, t in last_t.items():
        if segments and segments[-1][2] == counts[t]:
            segments[-1][1] = counts[s]
        else:
            segments.append([counts[s - 1] if s else 0, counts[s], counts[t]])
    n_t = t_top + 1
    n_pairs = sum((stop - start) * n_v for start, stop, n_v in segments)
    keys = np.empty(n_pairs, dtype=pows.dtype)
    bucket = np.empty(n_pairs, dtype=np.min_scalar_type((s_top + 1) * n_t))
    at = 0
    for start, stop, n_v in segments:
        step = max(1, _BLOCK_PAIRS // n_v)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            pick = _worse_junctions(left[lo:hi], right[:n_v]).argmin(axis=2)
            ai = np.arange(lo * n_pieces, hi * n_pieces, n_pieces)[:, None] + pick
            code, length = None, 0
            for a_lens, a_codes, a_inv, v_lens, v_codes, v_cols in factors:
                a_len = a_lens[ai]
                k = common_prefix((col[ai] for col in a_inv), v_cols[:, :n_v], a_len)
                rest = v_lens[:n_v] - k
                part = a_codes[ai] // pows[k] * pows[rest] + v_codes[:n_v] % pows[rest]
                part_len = a_len + rest - k
                code = part if code is None else code * pows[part_len + 1] + part
                length = length + part_len
            # (|u|, |v|) is the tightest cell holding the pair
            lu, lv = u_len[lo:hi, None], v_len[:n_v]
            if (length > lu + lv + c).any():
                raise InvariantViolationError("concatenation image left the containment ball")
            end = at + ai.size
            keys[at:end] = (code + pows[length + nf - 1]).ravel()
            bucket[at:end] = (lu * n_t + lv).ravel()
            at = end
    return keys, bucket, base


def _cell_fibers(
    kit: ConnectorKit, ball: Ball, cells: Sequence[tuple[int, int]]
) -> list[tuple[int, bytes]]:
    """Max fiber and its shortlex-least image for each cell, from one pass.

    The pass covers the union of the cells' ball products (see
    _image_keys). Cell (s, t) tallies the buckets with |u| <= s and
    |v| <= t, over only the images that have two or more preimages in the
    pass; a cell without a repeated image takes its least image, a 2-D
    cumulative minimum over the buckets.
    """
    last_t = dict(cells)  # each u radius meets the v's of its row's last cell
    n_s, n_t = max(last_t) + 1, max(last_t.values()) + 1
    keys, bucket, base = _image_keys(kit, ball, last_t)

    # equal images are runs of the sorted keys
    order = keys.argsort()
    keys, bucket = keys[order], bucket[order]
    del order
    starts = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:-1])
    kept = ~(starts[:-1] & starts[1:])  # pairs whose image has two or more preimages
    starts = starts[:-1] & kept
    rep_keys = keys[starts]
    rep_id = np.cumsum(starts) - 1
    del starts
    # then the pairs by bucket, each bucket still in key order
    by_bucket = np.argsort(bucket, kind="stable")
    bucket = bucket[by_bucket]
    bounds = np.searchsorted(bucket, np.arange(n_s * n_t + 1))
    filled = bounds[1:] > bounds[:-1]
    least = np.full(n_s * n_t, len(keys))
    least[filled] = by_bucket[bounds[:-1][filled]]
    least = np.minimum.accumulate(np.minimum.accumulate(least.reshape(n_s, n_t), axis=0), axis=1)
    least_keys = keys[least]  # every cell holds bucket (0, 0), the identity pair
    del keys
    kept = kept[by_bucket]
    rep_ids = rep_id[by_bucket][kept]
    del by_bucket, rep_id
    rep_bounds = np.searchsorted(bucket[kept], np.arange(n_s * n_t + 1))

    fibers: dict[tuple[int, int], tuple[int, bytes]] = {}
    for t in range(n_t):
        tally = np.zeros(len(rep_keys), dtype=np.int64)
        for s in range(n_s):
            if t > last_t[s]:
                break
            tally += np.bincount(
                rep_ids[rep_bounds[s * n_t] : rep_bounds[s * n_t + t + 1]],
                minlength=len(rep_keys),
            )
            j = int(tally.argmax()) if len(tally) else 0
            if len(tally) and tally[j] >= 2:
                fiber, key = int(tally[j]), rep_keys[j]
            else:
                fiber, key = 1, least_keys[s, t]
            fibers[s, t] = fiber, _unkey(int(key), base)
    return [fibers[cell] for cell in cells]


def measure_ambiguity(
    kit: ConnectorKit | None,
    domain: GroupDescriptor | SubgroupOracle,
    s_max: int,
    t_max: int,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> AmbiguityReport:
    """Fiber statistics of the concatenation map over B(s) x B(t) grids.

    kit=None measures plain concatenation (the naive kit, c = 0). The
    domain is a subgroup oracle or a whole group (see as_oracle); balls
    are of ambient length. budget caps the total number of (u, v) pairs
    across the grid, summed over the cells in s-major order; exceeding it
    raises with the partial report of the cells that fit attached. A
    domain with exact sphere counts settles its budget before generating
    only the radius the admitted cells need; one without (a budgeted
    oracle, a folded graph with nontrivial labels) generates its ball
    first. The envelope is fitted on t <= 3. All cells come from one pass
    over the pairs (see _cell_fibers).
    """
    oracle = as_oracle(domain)
    group = oracle.group
    kit = ConnectorKit.naive(group) if kit is None else kit
    if kit.group != group:
        raise GroupMismatchError("kit and domain groups differ")
    try:
        sizes = relative_ball_counts(oracle, max(s_max, t_max))
        ball = None
    except UnsupportedConfigurationError:
        ball = relative_ball(group, oracle, max(s_max, t_max))
        sizes = ball.counts_by_radius
    cells, overrun = _admitted(sizes, s_max, t_max, budget)
    if ball is None:
        ball = relative_ball(group, oracle, max((max(cell) for cell in cells), default=0))
    fit_t = min(3, t_max)
    stats = tuple(
        CellStats(s, t, s + t + kit.c, sizes[s] * sizes[t], fiber, Element(group, key))
        for (s, t), (fiber, key) in zip(cells, _cell_fibers(kit, ball, cells) if cells else ())
    )
    slope, intercept, violations = _fit_envelope(stats, fit_t)
    report = AmbiguityReport(
        oracle.spec_string(), kit.spec, kit.c, s_max, t_max, fit_t,
        stats, slope, intercept, violations, complete=overrun is None,
    )
    if overrun is not None:
        raise AmbiguityBudgetError(overrun, budget, report)
    return report


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
    kit=None inverts plain concatenation (the naive kit).
    """
    oracle = as_oracle(domain)
    group = oracle.group
    kit = ConnectorKit.naive(group) if kit is None else kit
    if target.group != group:
        raise GroupMismatchError("target outside the domain group")
    if kit.group != group:
        raise GroupMismatchError("kit and domain groups differ")
    ball = relative_ball(group, oracle, t, ambient=ambient)
    nf = group.num_factors
    count = 0
    for vp in ball.packed:
        tv = multiply_packed(target.packed, invert_packed(vp, nf), nf)
        right = _junction_scores(kit, vp, nf, left=False)
        for p, piece in enumerate(kit.pieces):
            up = multiply_packed(tv, invert_packed(piece.packed, nf), nf)
            if packed_length(up, nf) > s or oracle.contains_packed(up) is not True:
                continue
            if _select(_junction_scores(kit, up, nf, left=True), right)[0] == p:
                count += 1
    return count
