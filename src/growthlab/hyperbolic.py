"""Gromov products, four-point hyperbolicity and acylindricity
diagnostics over finite samples of word metrics.

A sample is a WordSample: words of a product of free groups, whose
distances are read off the words when asked. estimate_delta asks its
sample only for size, label(i) and pair_dist2(i, j), the doubled
distances of index arrays, so any finite metric that answers these
serves it too.

All metric arithmetic is exact. Distances are read doubled (so halves
are integers) and Gromov products quadrupled; results are returned as
floats, which represent quarter-integers exactly. On a word metric
every reported value lands on a half-integer as the four-point theory
predicts.

The hyperbolicity defect reported for a finite sample quantifies over
that sample only. It is therefore a certified lower bound for the defect
of the ambient space, never an upper bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cayley import DEFAULT_BUDGET, Ball, enumerate_ball
from .errors import GroupMismatchError, TupleBudgetError
from .words import (
    INVERSE_TABLE,
    SEP,
    Element,
    GroupDescriptor,
    common_prefix,
    distance,
    factor_columns,
    invert_packed,
    multiply_packed,
    packed_length,
)

DEFAULT_TUPLE_CAP = 200_000_000
_TRIAL_CHUNK = 1 << 14  # random-mode trials evaluated per numpy batch
_BLOCK_WORDS = 1 << 12  # ball words whose conjugates are sized per numpy block
# a smaller ball takes acyl's per-word loop: the column test's numpy calls
# cost about 0.25 ms a call, what the loop spends on 170-190 words (2-core
# Xeon, timed between other CLI runs)
_LOOP_WORDS = 200


def gromov_product(x: Element, y: Element, o: Element) -> float:
    """(x.y)_o = half of d(x,o) + d(y,o) - d(x,y); exact half-integer."""
    if x.group != y.group or x.group != o.group:
        raise GroupMismatchError("Gromov product needs three like elements")
    return (distance(x, o) + distance(y, o) - distance(x, y)) / 2


def check_equivariance(g: Element, x: Element, y: Element, z: Element) -> bool:
    """Left translation preserves Gromov products in any word metric."""
    return gromov_product(x, y, z) == gromov_product(g * x, g * y, g * z)


class WordSample:
    """Word-metric sample of a product of free groups, kept as its words.

    d(u, v) is the sum over factors of |u_i| + |v_i| - 2 lcp(u_i, v_i),
    lcp being the longest common prefix of the reduced factor words. Each
    factor's words are laid out once by words.factor_columns, and a
    distance is read through words.common_prefix when asked for: no n x n
    matrix is built.
    """

    def __init__(self, group: GroupDescriptor, packed: Sequence[bytes]):
        self.group = group
        self.packed = tuple(packed)
        self._factors = factor_columns(self.packed, group.num_factors)

    @property
    def size(self) -> int:
        return len(self.packed)

    def label(self, i: int) -> Element:
        return Element(self.group, self.packed[i])

    def pair_dist2(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """2 d(i, j) for index arrays i and j, broadcast against each other."""
        d = 0
        for lengths, cols in self._factors:
            li, lj = lengths[i], lengths[j]
            lcp = common_prefix((c[i] for c in cols), (c[j] for c in cols), np.minimum(li, lj))
            d = d + li + lj - 2 * lcp
        return 2 * d


class FiniteMetric:
    """Kept only because the benchmark's span recorder (bench/spans.py)
    wraps FiniteMetric.from_ball by name; no package code calls it. It
    goes with ROADMAP item 2, which moves the spans into the package."""

    @classmethod
    def from_ball(cls, ball: Ball) -> WordSample:
        return WordSample(ball.group, ball.packed)


@dataclass(frozen=True)
class DeltaEstimate:
    """Minimal four-point defect over the scanned tuples, with a witness."""

    delta: float
    witness: tuple
    tuples_checked: int
    mode: str


def _gromov4(d: np.ndarray, o: int) -> np.ndarray:
    """Matrix of 4 (x.y)_o from doubled distances d; integral on half-integer metrics."""
    return np.add.outer(d[:, o], d[:, o]) - d


def _block_defect(g4: np.ndarray, above: int) -> int:
    """max over x, y of max_z min(g4[x,z], g4[z,y]) - g4[x,y], if above `above`.

    max_z min(g4[x,z], g4[z,y]) >= t exactly when (A @ A)[x,y] > 0 for the
    0/1 matrix A = (g4 >= t): a sum of 0/1 products with a positive term
    never rounds to 0 in float32. So each distinct value t of g4 gives the
    candidate t - min{g4[x,y] : (A @ A)[x,y] > 0}, and the largest
    candidate is the defect. Row x of A is zero unless g4[x,x] >= t
    (g4[x,x] bounds its row), so the product runs over those rows only.
    The block's first point is its basepoint, whose row of g4 is 0, so a
    candidate is at most t and values t <= above are skipped. Returns
    `above` when the defect does not exceed it.
    """
    best = above
    diag = np.diag(g4)
    values = np.sort(g4, axis=None)
    for t in values[1:][values[1:] != values[:-1]]:
        if t <= best:
            continue
        far = np.flatnonzero(diag >= t)
        sub = g4[np.ix_(far, far)]
        a = (sub >= t).astype(np.float32)
        best = max(best, int(t - sub[(a @ a) > 0].min()))
    return best


def _first_witness(d: np.ndarray, o: int, target: int) -> tuple[int, int, int, int]:
    """The first (o, x, y, z) at basepoint o whose defect is target, in
    x order, then first argmax y, then first argmax z."""
    g4 = _gromov4(d, o)
    for x in range(len(d)):
        row = g4[x]
        defects = np.minimum(row[:, None], g4).max(axis=0) - row
        y = int(defects.argmax())
        if defects[y] == target:
            z = int(np.minimum(row, g4[:, y]).argmax())
            return (o, x, y, z)
    raise AssertionError("target defect not found at its basepoint")


def _randrange_bulk(rng: random.Random, n: int, count: int) -> np.ndarray:
    """[rng.randrange(n) for _ in range(count)] as an array, drawn in bulk.

    For n < 2^32 CPython's randrange(n) takes one 32-bit Mersenne Twister
    word per try, keeps its top n.bit_length() bits and rejects values
    >= n; getrandbits(32 m) returns the next m words, least significant
    first. Each round draws one word per value still missing, which every
    remaining value needs at least, so no word past the last accepted one
    is taken and rng ends where the count calls would leave it.
    """
    if not 0 < n < 1 << 32:
        raise ValueError(f"bulk draw needs 0 < n < 2^32, got {n}")
    shift = 32 - n.bit_length()
    kept, missing = [np.zeros(0, dtype=np.uint32)], count
    while missing:
        bits = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        values = np.frombuffer(bits, dtype="<u4") >> shift
        kept.append(values[values < n])
        missing -= len(kept[-1])
    return np.concatenate(kept)


def check_tuple_cap(points: int, tuple_cap: int) -> int:
    """The points^4 quadruples of an exhaustive scan; TupleBudgetError above the cap."""
    needed = points**4
    if needed > tuple_cap:
        raise TupleBudgetError(needed=needed, cap=tuple_cap)
    return needed


def estimate_delta(
    sample: WordSample,
    mode: str = "exhaustive",
    *,
    trials: int = 10_000,
    seed: int = 0,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> DeltaEstimate:
    """Smallest delta making the four-point condition hold on the sample,
    which answers size, label(i) and pair_dist2(i, j) in both modes.

    Exhaustive mode reads all n^2 distances at once, covers all n^4
    ordered quadruples and refuses beyond tuple_cap. The defect
    4(min((x.z)_o, (z.y)_o) - (x.y)_o) equals d(x,y) + d(z,o) -
    max(d(x,z) + d(y,o), d(y,z) + d(x,o)) (doubled), which the 8
    permutations keeping the pairing {{x,y},{z,o}} leave unchanged; they
    move any point to the basepoint slot, so basepoint o only needs the
    points o..n-1. Each basepoint costs one float32 matrix product per
    distinct Gromov product above the best defect so far: at most 4r+1
    of them on a ball of radius r, up to n^2 on another finite metric.
    The witness is the first quadruple in (o, x) order with the largest
    defect, first argmax y, first argmax z.

    Random mode draws the four indices of each trial as
    random.Random(seed).randrange(n) would, in o, x, y, z order, but in
    bulk, _TRIAL_CHUNK trials at a time; it needs n < 2^32. It reads only
    the sampled distances and builds no n x n matrix. It yields a lower
    bound for the exhaustive answer, and its witness is the first trial
    with the largest positive defect.

    An empty sample has no defect to report: ValueError in either mode.
    """
    n = sample.size
    if n == 0:
        raise ValueError("empty sample: the four-point condition needs a point")
    if mode == "exhaustive":
        needed = check_tuple_cap(n, tuple_cap)
        points = np.arange(n)
        d = sample.pair_dist2(points[:, None], points)
        best, first = 0, 0
        for o in range(n):
            got = _block_defect(_gromov4(d, o)[o:, o:], best)
            if got > best:
                best, first = got, o
        witness = _first_witness(d, first, best) if best else (0, 0, 0, 0)
        checked = needed
    elif mode == "random":
        rng = random.Random(seed)
        d2 = sample.pair_dist2
        best, witness = 0, (0, 0, 0, 0)
        for start in range(0, trials, _TRIAL_CHUNK):
            m = min(_TRIAL_CHUNK, trials - start)
            quads = _randrange_bulk(rng, n, 4 * m).reshape(m, 4)
            o, x, y, z = quads.T
            xo, yo, zo = d2(x, o), d2(y, o), d2(z, o)
            defects = np.minimum(xo + zo - d2(x, z), zo + yo - d2(z, y)) - (xo + yo - d2(x, y))
            i = int(defects.argmax())
            if defects[i] > best:
                best, witness = int(defects[i]), tuple(int(v) for v in quads[i])
        checked = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    labels = tuple(sample.label(i) for i in witness)
    return DeltaEstimate(best / 4, labels, checked, mode)


@dataclass(frozen=True)
class AcylindricityReport:
    """Elements almost fixing two basepoints: the action's local rigidity."""

    x: Element
    y: Element
    epsilon: int
    witnesses: tuple[Element, ...]

    @property
    def count(self) -> int:
        return len(self.witnesses)


def _self_overlaps(c: bytes, k: int) -> np.ndarray:
    """The (k+1, k+1) matrix of lcp(c[i:], c[j:]) for i, j <= k <= len(c).

    Row d of `same` compares c, closed by a zero byte, with c shifted by d
    letters and padded with 0xff, so nothing matches past either end and
    the first False at or after i ends the common prefix of c[i:] and
    c[i+d:]. Past column k only the first False counts, so no int array
    grows with |c|.
    """
    m = len(c)
    pos = np.arange(k + 1)
    shifted = np.frombuffer(c + b"\xff" * (k + 1), dtype=np.uint8)
    same = shifted[pos[:, None] + np.arange(m + 1)] == np.frombuffer(c + b"\0", dtype=np.uint8)
    stop = np.where(same[:, : k + 1], m, pos)
    stop[:, k] = k + same[:, k:].argmin(axis=1)
    run = np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1] - pos
    return run[abs(np.subtract.outer(pos, pos)), np.minimum.outer(pos, pos)]


def _conjugate_lengths(lengths: np.ndarray, cols: np.ndarray, c: bytes, overlaps: np.ndarray) -> np.ndarray:
    """|c^-1 w c| for the words w of one factor's letter columns.

    With m = |c| and L = |w|, w c cancels b = lcp(w^-1, c) letters, so
    u = w c is w[:L-b] followed by c[b:], and c^-1 u cancels a = lcp(c, u)
    letters: |c^-1 w c| = m + |u| - 2a. While q = lcp(w, c) < L - b, a is
    q and the length is L + 2m - 2(b + q). Otherwise w[:L-b] = c[:L-b],
    a = L - b + lcp(c[L-b:], c[b:]), read from c's self-overlaps, and the
    length is 2m - L - 2 lcp(c[L-b:], c[b:]). Only the first
    k = min(width, m) letters of w or of c can cancel.
    """
    m = len(c)
    k = min(len(cols), m)
    letters = np.frombuffer(c, dtype=np.uint8)
    inverses = np.frombuffer(c.translate(INVERSE_TABLE), dtype=np.uint8)
    q = common_prefix(cols, letters, lengths)
    # row i: w's letter i from its end; rows i >= L read its first letter,
    # past the cap at L
    back = np.maximum(lengths - 1 - np.arange(k)[:, None], 0)
    b = common_prefix(cols[back, np.arange(len(lengths))], inverses, lengths)
    head = lengths - b
    far = lengths + 2 * (m - b - q)
    # head <= q <= k wherever near is taken; the clip only keeps the lookup in range
    near = 2 * m - lengths - 2 * overlaps[np.minimum(head, len(overlaps) - 1), b]
    return np.where(q < head, far, near)


def _kept_by_columns(packed: Sequence[bytes], c: bytes, epsilon: int, nf: int) -> list[bytes]:
    """The words w of packed with |c^-1 w c| <= epsilon, in order, read
    off their letter columns _BLOCK_WORDS words at a time."""
    cs = c.split(SEP)
    overlaps = [_self_overlaps(f, min(epsilon, len(f))) for f in cs]
    kept = []
    for lo in range(0, len(packed), _BLOCK_WORDS):
        block = packed[lo : lo + _BLOCK_WORDS]
        sizes = sum(
            _conjugate_lengths(lengths, cols, f, z)
            for (lengths, cols), f, z in zip(factor_columns(block, nf), cs, overlaps)
        )
        kept += [block[i] for i in np.flatnonzero(sizes <= epsilon)]
    return kept


def acylindricity_witnesses(
    group: GroupDescriptor,
    x: Element,
    y: Element,
    epsilon: int,
    *,
    budget: int | None = None,
) -> AcylindricityReport:
    """All g with d(x, gx) <= epsilon and d(y, gy) <= epsilon, exactly.

    Any such g is x w x^-1 with |w| = d(x, gx) <= epsilon, so the
    epsilon-ball holds every candidate w and the first condition holds by
    construction. Left translation is an isometry, so d(y, gy) =
    |c^-1 w c| with c = x^-1 y. A ball of _LOOP_WORDS words or more reads
    that length, a sum over factors, off its letter columns
    (words.factor_columns), _BLOCK_WORDS words at a time so that the
    temporaries do not grow with the ball; a smaller ball multiplies its
    packed words out, which costs less than the column test's numpy
    calls. Only the kept w become elements. The ball is enumerated under
    an element budget (cayley.DEFAULT_BUDGET when budget is None), so a
    too-large epsilon raises BallBudgetError before any work.
    """
    if x.group != group or y.group != group:
        raise GroupMismatchError("basepoints must live in the given group")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    nf = group.num_factors
    ball = enumerate_ball(group, epsilon, budget=DEFAULT_BUDGET if budget is None else budget)
    x_inv = invert_packed(x.packed, nf)
    c = multiply_packed(x_inv, y.packed, nf)
    if len(ball.packed) >= _LOOP_WORDS:
        kept = _kept_by_columns(ball.packed, c, epsilon, nf)
    else:
        c_inv = invert_packed(c, nf)
        kept = [
            w
            for w in ball.packed
            if packed_length(multiply_packed(c_inv, multiply_packed(w, c, nf), nf), nf) <= epsilon
        ]
    found = sorted(
        (multiply_packed(multiply_packed(x.packed, w, nf), x_inv, nf) for w in kept),
        key=lambda g: (len(g), g),
    )
    return AcylindricityReport(x, y, epsilon, tuple(Element(group, g) for g in found))
