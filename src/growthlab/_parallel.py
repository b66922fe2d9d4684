"""Deterministic work partitioning for the exhaustive four-point delta scan.

That scan is the one place where a fork pool pays on a 2-core machine:
it runs about 1.8x faster at two workers, while ball generation, oracle
filtering and ambiguity grids run slower in a pool than in one process,
so they never fork. Work is cut into contiguous chunks and the chunk
results are consumed in chunk order, so concatenating them reproduces the
sequential order exactly, and the delta scan merges them by a max whose
ties go to the earliest chunk. So the worker count can never change a
result, which is what the determinism guarantee of the CLI rests on.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def partition(items: Sequence[T], parts: int) -> list[Sequence[T]]:
    """At most `parts` contiguous, order-preserving chunks."""
    n = len(items)
    parts = max(1, min(parts, n))
    bounds = [n * i // parts for i in range(parts + 1)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(parts) if bounds[i] < bounds[i + 1]]


def parallel_map(worker: Callable[[T], R], args: Sequence[T], workers: int) -> list[R]:
    """Map a top-level function over args, forking when workers > 1."""
    if workers <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(args))) as pool:
        return pool.map(worker, args)
