"""One workload pass in a fresh interpreter.

    python3 bench/worker.py PLAN RESULT [--setup-only] [--calibrate] [--trace SPANS --seed N]

PLAN is a JSON list of argv lists for `growthlab.cli.main`. The pass
imports growthlab, puts every spec through `parse_spec` (the set-up phase),
then runs the experiments one after another and writes RESULT: monotonic
timestamps (comparable with the parent's spawn time), exit codes, captured
diagnostics and peak RSS. With --calibrate, the calibration loop of
`calibrate.py` is timed right after set-up, before an experiment when no
sample with its worker count is `calibrate.EVERY_S` seconds old, and after
the last one, in as many processes as the experiment has workers; the
samples go into RESULT. With --trace, spans around every layer boundary are
written to SPANS as JSON lines.
"""

from __future__ import annotations

import io
import json
import random
import resource
import shlex
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

MICRO_PAIRS = 20_000
MICRO_REPEATS = 5


def multiply_ns(group, radius: int, seed: int) -> dict:
    """Median ns per multiply_packed over pairs drawn from a workload ball."""
    from growthlab.cayley import enumerate_ball
    from growthlab.words import multiply_packed

    ball = enumerate_ball(group, radius)
    rng = random.Random(seed)
    packed = ball.packed
    pairs = [(rng.choice(packed), rng.choice(packed)) for _ in range(MICRO_PAIRS)]
    nf = ball.group.num_factors
    runs = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for u, v in pairs:
            multiply_packed(u, v, nf)
        runs.append((time.perf_counter() - t0) / len(pairs) * 1e9)
    runs.sort()
    return {"ns": runs[len(runs) // 2], "group": ball.group.spec(), "radius": ball.radius}


def workers_of(args: list[str]) -> int:
    return int(args[args.index("--workers") + 1]) if "--workers" in args else 1


def main(argv: list[str]) -> int:
    plan_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    calibrating = "--calibrate" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    plan = json.loads(Path(plan_path).read_text())

    from growthlab import cli

    rec = None
    run_one = cli.main
    if spans_path is not None:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        run_one = rec.span("cli.main", cli.main)
    for args in plan:
        cli.parse_spec(shlex.join(args))
    result = {"t_parsed": time.monotonic()}
    samples: list = []
    if calibrating:
        import calibrate

        samples.append(calibrate.sample(1))
    if not setup_only:
        starts, ends, codes, diagnostics = [], [], [], []
        for i, args in enumerate(plan):
            if rec is not None:
                rec.experiment = i
            procs = workers_of(args)
            if calibrating and time.monotonic() - calibrate.last(samples, procs) >= calibrate.EVERY_S:
                samples.append(calibrate.sample(procs))
            err = io.StringIO()
            t0 = time.monotonic()
            with redirect_stderr(err):
                code = run_one(args)
            starts.append(t0)
            ends.append(time.monotonic())
            codes.append(code)
            diagnostics.append(err.getvalue())
        result.update(starts=starts, ends=ends, codes=codes, diagnostics=diagnostics)
        if calibrating:
            samples += [calibrate.sample(procs) for procs in sorted(set(map(workers_of, plan)))]
    result["calibration"] = samples
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(self_rss, child_rss)
    if rec is not None:
        rec.dump(spans_path)
        _, group, radius = rec.largest_ball
        if "--seed" in argv and group is not None:
            result["multiply"] = multiply_ns(group, radius, int(argv[argv.index("--seed") + 1]))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
