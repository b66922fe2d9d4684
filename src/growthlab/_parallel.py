"""parallel_map: a plain map that no code in the package calls.

Every command runs in one process: on a 2-core machine a fork pool lost
to one process wherever it was measured, so the pool is gone. The name
stays only because the benchmark's span recorder (bench/spans.py) wraps
parallel_map; it goes with ROADMAP item 2, which moves the spans into
the package.
"""


def parallel_map(worker, args, workers):
    """[worker(a) for a in args]; workers is accepted and ignored."""
    return [worker(a) for a in args]
