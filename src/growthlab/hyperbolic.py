"""Gromov products, four-point hyperbolicity and acylindricity
diagnostics over finite samples.

All metric arithmetic is exact. Distances are stored doubled (so halves
are integers) and Gromov products quadrupled; results are returned as
floats, which represent quarter-integers exactly. On whole-integer
metrics, such as any word metric, every reported value lands on a
half-integer as the four-point theory predicts.

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
    SEP,
    Element,
    GroupDescriptor,
    common_prefix,
    distance,
    invert_packed,
    letter_columns,
    multiply_packed,
    packed_length,
)

DEFAULT_TUPLE_CAP = 200_000_000
# Largest doubled distance: every Gromov sum and four-point defect is at
# most 3 times the largest entry, so all of them stay below 2^63 in int64.
MAX_DIST2 = 1 << 61
_TRIAL_CHUNK = 1 << 14  # random-mode trials evaluated per numpy batch


def gromov_product(x: Element, y: Element, o: Element) -> float:
    """(x.y)_o = half of d(x,o) + d(y,o) - d(x,y); exact half-integer."""
    if x.group != y.group or x.group != o.group:
        raise GroupMismatchError("Gromov product needs three like elements")
    return (distance(x, o) + distance(y, o) - distance(x, y)) / 2


def check_equivariance(g: Element, x: Element, y: Element, z: Element) -> bool:
    """Left translation preserves Gromov products in any word metric."""
    return gromov_product(x, y, z) == gromov_product(g * x, g * y, g * z)


@dataclass(frozen=True, eq=False)
class FiniteMetric:
    """A finite metric space: point labels plus a doubled-distance matrix.

    dist2[i][j] holds 2 d(i,j) so half-integer metrics stay integral.
    Construction validates symmetry, the zero diagonal, positivity off
    the diagonal, the bound MAX_DIST2 on every entry, and every triangle
    inequality. Word-metric samples (from_elements, from_ball) satisfy
    these by construction; the checks guard a matrix given directly.
    """

    labels: tuple
    dist2: np.ndarray

    def __post_init__(self):
        d = self.dist2
        n = len(self.labels)
        if d.shape != (n, n):
            raise ValueError(f"matrix shape {d.shape} does not fit {n} labels")
        if n == 0:
            raise ValueError("empty sample")
        if (d < 0).any():
            raise ValueError("negative distance")
        if (d > MAX_DIST2).any():
            raise ValueError(f"doubled distance above {MAX_DIST2}")
        if (np.diag(d) != 0).any():
            raise ValueError("nonzero diagonal")
        if (d != d.T).any():
            raise ValueError("asymmetric distance matrix")
        off = d + np.eye(n, dtype=d.dtype)
        if (off == 0).any():
            raise ValueError("distinct points at distance zero")
        # sums of two entries fit the narrowest unsigned type holding 2 max(d)
        if d.dtype.kind in "iu":
            d = d.astype(np.min_scalar_type(2 * int(d.max())))
        for j in range(n):
            if (np.add.outer(d[:, j], d[j, :]) < d).any():
                raise ValueError(f"triangle inequality fails through point {j}")

    @property
    def size(self) -> int:
        return len(self.labels)

    def distance(self, i: int, j: int) -> float:
        return self.dist2[i, j] / 2

    @classmethod
    def from_elements(cls, elements: Sequence[Element]) -> "FiniteMetric":
        """Word-metric sample on the given elements.

        In a product of free groups d(u, v) is the sum over factors of
        |u_i| + |v_i| - 2 lcp(u_i, v_i), lcp being the longest common
        prefix of the reduced factor words. Each factor's words are laid
        out as letter columns twice, padded with 0xff on the row side and
        with zero bytes on the column side, so the common prefixes of all
        pairs are one column scan.
        """
        elems = tuple(elements)
        if not elems:
            raise ValueError("empty sample")
        group = elems[0].group
        if any(g.group != group for g in elems):
            raise GroupMismatchError("sample mixes groups")
        n = len(elems)
        d = np.zeros((n, n), dtype=np.int64)
        for words in zip(*(g.packed.split(SEP) for g in elems)):
            lengths = np.array([len(w) for w in words], dtype=np.int64)
            width = int(lengths.max())
            rows = (col[:, None] for col in letter_columns(words, width, b"\xff"))
            lcp = common_prefix(rows, letter_columns(words, width), (n, n))
            d += lengths[:, None] + lengths - 2 * lcp
        return cls(elems, 2 * d)

    @classmethod
    def from_ball(cls, ball: Ball) -> "FiniteMetric":
        return cls.from_elements(ball.elements())

    def gromov4(self, o: int) -> np.ndarray:
        """Matrix of 4 (x.y)_o, integral for half-integer metrics."""
        d = self.dist2
        return np.add.outer(d[:, o], d[:, o]) - d


@dataclass(frozen=True)
class DeltaEstimate:
    """Minimal four-point defect over the scanned tuples, with a witness."""

    delta: float
    witness: tuple
    tuples_checked: int
    mode: str


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


def _first_witness(sample: FiniteMetric, o: int, target: int) -> tuple[int, int, int, int]:
    """The first (o, x, y, z) at basepoint o whose defect is target, in
    x order, then first argmax y, then first argmax z."""
    g4 = sample.gromov4(o)
    for x in range(sample.size):
        row = g4[x]
        defects = np.minimum(row[:, None], g4).max(axis=0) - row
        y = int(defects.argmax())
        if defects[y] == target:
            z = int(np.minimum(row, g4[:, y]).argmax())
            return (o, x, y, z)
    raise AssertionError("target defect not found at its basepoint")


def check_tuple_cap(points: int, tuple_cap: int) -> int:
    """The points^4 quadruples of an exhaustive scan; TupleBudgetError above the cap."""
    needed = points**4
    if needed > tuple_cap:
        raise TupleBudgetError(needed=needed, cap=tuple_cap)
    return needed


def estimate_delta(
    sample: FiniteMetric,
    mode: str = "exhaustive",
    *,
    trials: int = 10_000,
    seed: int = 0,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> DeltaEstimate:
    """Smallest delta making the four-point condition hold on the sample.

    Exhaustive mode covers all n^4 ordered quadruples and refuses beyond
    tuple_cap. The defect 4(min((x.z)_o, (z.y)_o) - (x.y)_o) equals
    d(x,y) + d(z,o) - max(d(x,z) + d(y,o), d(y,z) + d(x,o)) (doubled),
    which the 8 permutations keeping the pairing {{x,y},{z,o}} leave
    unchanged; they move any point to the basepoint slot, so basepoint o
    only needs the points o..n-1. Each basepoint costs one float32 matrix
    product per distinct Gromov product above the best defect so far: at
    most 4r+1 of them on a word-metric ball of radius r, but up to n^2 on
    a matrix given to FiniteMetric. The witness is the first quadruple in
    (o, x) order with the largest defect, first argmax y, first argmax z.

    Random mode draws the four indices of each trial from
    random.Random(seed).randrange(n) in o, x, y, z order and yields a
    lower bound for the exhaustive answer; its witness is the first trial
    with the largest positive defect.
    """
    n = sample.size
    if mode == "exhaustive":
        needed = check_tuple_cap(n, tuple_cap)
        best, first = 0, 0
        for o in range(n):
            got = _block_defect(sample.gromov4(o)[o:, o:], best)
            if got > best:
                best, first = got, o
        witness = _first_witness(sample, first, best) if best else (0, 0, 0, 0)
        checked = needed
    elif mode == "random":
        rng = random.Random(seed)
        d2 = sample.dist2
        best, witness = 0, (0, 0, 0, 0)
        for start in range(0, trials, _TRIAL_CHUNK):
            m = min(_TRIAL_CHUNK, trials - start)
            quads = np.array([rng.randrange(n) for _ in range(4 * m)]).reshape(m, 4)
            o, x, y, z = quads.T
            xo, yo, zo = d2[x, o], d2[y, o], d2[z, o]
            defects = np.minimum(xo + zo - d2[x, z], zo + yo - d2[z, y]) - (xo + yo - d2[x, y])
            i = int(defects.argmax())
            if defects[i] > best:
                best, witness = int(defects[i]), tuple(int(v) for v in quads[i])
        checked = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    labels = tuple(sample.labels[i] for i in witness)
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
    |c^-1 w c| with c = x^-1 y: the second condition is tested on packed
    words, and only the kept w become elements. The ball is enumerated
    under an element budget (cayley.DEFAULT_BUDGET when budget is None),
    so a too-large epsilon raises BallBudgetError before any work.
    """
    if x.group != group or y.group != group:
        raise GroupMismatchError("basepoints must live in the given group")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    nf = group.num_factors
    ball = enumerate_ball(group, epsilon, budget=DEFAULT_BUDGET if budget is None else budget)
    x_inv = invert_packed(x.packed, nf)
    c = multiply_packed(x_inv, y.packed, nf)
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
