"""Order-preserving fork pool; no code in the package calls it.

Every command runs in one process: on a 2-core machine a pool lost to one
process wherever it was measured, the four-point delta scan included once
that scan became a threshold max-min kernel whose matrix products already
use both cores through BLAS. The module stays only because the benchmark's
span recorder (bench/spans.py) imports parallel_map; it goes when the
benchmark stops importing it.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(worker: Callable[[T], R], args: Sequence[T], workers: int) -> list[R]:
    """Map a top-level function over args, forking when workers > 1."""
    if workers <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(workers, len(args))) as pool:
        return pool.map(worker, args)
