"""Gromov products, four-point hyperbolicity, quasigeodesic and
acylindricity diagnostics over finite samples.

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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._parallel import parallel_map, partition
from .cayley import Ball, enumerate_ball
from .errors import GroupMismatchError, ParseError, TupleBudgetError, UnsupportedConfigurationError
from .words import Element, GroupDescriptor, distance, multiply_words

DEFAULT_TUPLE_CAP = 200_000_000


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
    the diagonal, and every triangle inequality.
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
        if (np.diag(d) != 0).any():
            raise ValueError("nonzero diagonal")
        if (d != d.T).any():
            raise ValueError("asymmetric distance matrix")
        off = d + np.eye(n, dtype=d.dtype)
        if (off == 0).any():
            raise ValueError("distinct points at distance zero")
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
        """Word-metric sample on the given elements."""
        elems = tuple(elements)
        if not elems:
            raise ValueError("empty sample")
        group = elems[0].group
        if any(g.group != group for g in elems):
            raise GroupMismatchError("sample mixes groups")
        n = len(elems)
        inv = [g.inverse() for g in elems]
        d2 = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                d = (inv[i] * elems[j]).length()
                d2[i, j] = d2[j, i] = 2 * d
        return cls(elems, d2)

    @classmethod
    def from_ball(cls, ball: Ball) -> "FiniteMetric":
        return cls.from_elements(ball.elements())

    @classmethod
    def from_csv(cls, text: str) -> "FiniteMetric":
        """Parse a square distance matrix; entries must be multiples of 1/2.

        Blank lines and lines starting with '#' are skipped. Labels are the
        row indices as strings.
        """
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            cells = [c.strip() for c in body.split(",")]
            row = []
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"bad distance {cell!r}", line=lineno, column=col
                    ) from None
                doubled = round(value * 2)
                if doubled != value * 2:
                    raise ParseError(
                        f"distance {cell!r} is not a multiple of 1/2",
                        line=lineno,
                        column=col,
                    )
                row.append(doubled)
            rows.append(row)
        if not rows:
            raise ParseError("no rows in distance matrix")
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ParseError("distance matrix is not square")
        labels = tuple(str(i) for i in range(n))
        return cls(labels, np.array(rows, dtype=np.int64))

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

    def __float__(self) -> float:
        return self.delta


def _scan_basepoints(args: tuple[Sequence[int], np.ndarray]) -> tuple[int, tuple[int, int, int, int]]:
    """Max defect 4((x.z)_o ^ (z.y)_o - (x.y)_o) over o in the chunk."""
    basepoints, d2 = args
    best = 0
    witness = (0, 0, 0, 0)
    for o in basepoints:
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


def estimate_delta(
    sample: FiniteMetric,
    mode: str = "exhaustive",
    *,
    trials: int = 10_000,
    seed: int = 0,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    workers: int = 1,
) -> DeltaEstimate:
    """Smallest delta making the four-point condition hold on the sample.

    Exhaustive mode scans all ordered quadruples (cost grows with the
    fourth power of the sample; refuses beyond tuple_cap). Random mode
    samples quadruples reproducibly from the seed and yields a lower
    bound for the exhaustive answer.
    """
    n = sample.size
    if mode == "exhaustive":
        needed = n**4
        if needed > tuple_cap:
            raise TupleBudgetError(needed=needed, cap=tuple_cap)
        chunks = partition(range(n), workers)
        results = parallel_map(
            _scan_basepoints, [(c, sample.dist2) for c in chunks], workers
        )
        best, witness = 0, (0, 0, 0, 0)
        for got, wit in results:
            if got > best:
                best, witness = got, wit
        checked = needed
    elif mode == "random":
        import random as _random

        rng = _random.Random(seed)
        d2 = sample.dist2

        def g4(o: int, i: int, j: int) -> int:
            return int(d2[i, o]) + int(d2[j, o]) - int(d2[i, j])

        best, witness = 0, (0, 0, 0, 0)
        for _ in range(trials):
            o, x, y, z = (rng.randrange(n) for _ in range(4))
            defect = min(g4(o, x, z), g4(o, z, y)) - g4(o, x, y)
            if defect > best:
                best, witness = defect, (o, x, y, z)
        checked = trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    labels = tuple(sample.labels[i] for i in witness)
    return DeltaEstimate(best / 4, labels, checked, mode)


@dataclass(frozen=True)
class DiscretePath:
    """A map from an integer parameter interval to group elements."""

    points: tuple[Element, ...]
    start: int = 0

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty path")
        group = self.points[0].group
        if any(p.group != group for p in self.points):
            raise GroupMismatchError("path mixes groups")

    @property
    def group(self) -> GroupDescriptor:
        return self.points[0].group

    @property
    def stop(self) -> int:
        return self.start + len(self.points) - 1

    def point(self, t: int) -> Element:
        if not self.start <= t <= self.stop:
            raise ValueError(f"parameter {t} outside [{self.start}, {self.stop}]")
        return self.points[t - self.start]


@dataclass(frozen=True)
class QuasigeodesicCheck:
    ok: bool
    violating_pair: tuple[int, int] | None = None
    side: str | None = None  # "lower" or "upper" when a pair violates

    def __bool__(self) -> bool:
        return self.ok


def is_quasigeodesic(
    path: DiscretePath, lam: float = 1.0, eps: float = 0.0
) -> QuasigeodesicCheck:
    """Both quasigeodesic inequalities on every parameter pair.

    Pairs are scanned widest separation first, so the reported violation
    is a most-separated one: |t'-t|/lam - eps <= d(c(t), c(t')) <= lam
    |t'-t| + eps.
    """
    if lam < 1:
        raise ValueError("lam must be at least 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    pts = path.points
    span = len(pts) - 1
    for gap in range(span, 0, -1):
        for i in range(span - gap + 1):
            d = distance(pts[i], pts[i + gap])
            pair = (path.start + i, path.start + i + gap)
            if d < gap / lam - eps:
                return QuasigeodesicCheck(False, pair, "lower")
            if d > lam * gap + eps:
                return QuasigeodesicCheck(False, pair, "upper")
    return QuasigeodesicCheck(True)


def hausdorff_distance(a: Iterable[Element], b: Iterable[Element]) -> int:
    """Max over both directed nearest-point deviations, in the word metric."""
    aa, bb = list(a), list(b)
    if not aa or not bb:
        raise ValueError("Hausdorff distance needs nonempty sets")
    group = aa[0].group
    if any(g.group != group for g in aa + bb):
        raise GroupMismatchError("sets mix groups")
    inv_b = [h.inverse() for h in bb]
    d_ab = max(min((ih * g).length() for ih in inv_b) for g in aa)
    inv_a = [g.inverse() for g in aa]
    d_ba = max(min((ig * h).length() for ig in inv_a) for h in bb)
    return max(d_ab, d_ba)


def tree_geodesic(p: Element, q: Element) -> tuple[Element, ...]:
    """The unique geodesic vertices from p to q in a free group."""
    group = p.group
    if p.group != q.group:
        raise GroupMismatchError("endpoints in different groups")
    if group.num_factors != 1:
        raise UnsupportedConfigurationError(
            "geodesics are only unique in a single free factor"
        )
    u = (p.inverse() * q).packed
    return tuple(
        Element(group, multiply_words(p.packed, u[:i])) for i in range(len(u) + 1)
    )


def quasigeodesic_deviation(path: DiscretePath) -> int:
    """Hausdorff distance from the path's image to the geodesic joining
    its endpoints; an empirical witness to quasigeodesic stability."""
    geo = tree_geodesic(path.points[0], path.points[-1])
    return hausdorff_distance(set(path.points), geo)


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
    group: GroupDescriptor, x: Element, y: Element, epsilon: int
) -> AcylindricityReport:
    """All g with d(x, gx) <= epsilon and d(y, gy) <= epsilon, exactly.

    Any such g satisfies g = x w x^-1 with |w| = d(x, gx) <= epsilon, so
    conjugating the epsilon-ball by x enumerates every candidate; the
    first condition holds by construction and the second is checked
    directly. No search budget is involved.
    """
    if x.group != group or y.group != group:
        raise GroupMismatchError("basepoints must live in the given group")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    ball = enumerate_ball(group, epsilon)
    x_inv = x.inverse()
    found = []
    for w in ball:
        g = x * w * x_inv
        if distance(y, g * y) <= epsilon:
            found.append(g)
    found.sort(key=lambda g: g.sort_key())
    return AcylindricityReport(x, y, epsilon, tuple(found))
