"""growthlab benchmark: seeded CLI workloads, cross-checked, optionally traced.

    python3 bench/run.py --workload balls|grids|sweep|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each pass runs the workload's experiments one after another in a
fresh interpreter (closed loop, one client) through `growthlab.cli.main`;
passes repeat while one more fits in --seconds. Times are scaled to
reference seconds by the calibration loop of `calibrate.py`, timed between
experiments, and each experiment's time is its median over the passes.
Every artifact is then cross-checked (untimed) against an independent
answer, and later passes must reproduce the first pass byte for byte. The
experiments that run with several workers (on `grids`) are replayed at one
worker and must give byte-identical artifacts.

--trace 1 runs one untraced pass, one traced pass and a traced replay of
the ambiguity and delta experiments at the other worker count, and reports
the per-layer metrics. The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only if
every experiment met its exit code and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150
SETUP_ONLY_SPAWNS = 5
REPLAY_LIMIT = 20  # ambiguity and delta experiments replayed per kind when traced

KINDS = ("growth", "relgrowth", "distortion", "rate", "ambiguity", "delta", "acyl")


def environment() -> dict:
    import numpy

    def cache(index: int) -> str | None:
        try:
            return (Path("/sys/devices/system/cpu/cpu0/cache") / f"index{index}" / "size").read_text().strip()
        except OSError:
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "l2_cache": cache(2),
        "l3_cache": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spawn(plan_argv: list[list[str]], work: Path, *extra: str) -> dict:
    """Run one worker process over the plan; returns its result plus set-up time.

    With --calibrate, the calibration samples start with one taken just
    before the spawn.
    """
    work.mkdir(parents=True, exist_ok=True)
    plan_file, result_file = work / "plan.json", work / "result.json"
    plan_file.write_text(json.dumps(plan_argv))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("GROWTHLAB_OUT", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_file), str(result_file), *extra]
    before = calibrate.sample() if "--calibrate" in extra else None
    t_spawn_ns = time.time_ns()
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["t_parsed"] - t_spawn
    result["t_spawn_ns"] = t_spawn_ns
    if before is not None:
        result["calibration"].insert(0, before)
    return result


def with_knobs(argv: list[str], out: Path, workers: int | None = None) -> list[str]:
    args = list(argv)
    if workers is not None:
        args[args.index("--workers") + 1] = str(workers)
    return args + ["--out", str(out)]


def run_pass(plan: list[dict], work: Path, workers: int | None = None, *extra: str) -> dict:
    argv = [with_knobs(e["argv"], work / str(i), workers) for i, e in enumerate(plan)]
    return spawn(argv, work, *extra)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def pass_times(plan: list[dict], res: dict) -> list[float]:
    """Each experiment's time in a calibrated pass, in reference seconds.

    The host switches between a fast and a slow state that lasts seconds,
    so each experiment is scaled by the calibration samples just before
    and just after it, which see the state it ran in, taken in as many
    processes as it has workers.
    """
    samples = res["calibration"]
    return [
        (e - s) * calibrate.bracket(samples, s, e, workers_of(exp["argv"]))
        for exp, s, e in zip(plan, res["starts"], res["ends"])
    ]


def run_metrics(plan: list[dict], passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics from per-experiment medians over the passes.

    Each experiment's time is the median of its scaled times over the
    passes and over its repeats within a pass, so a burst of load is
    dropped whichever experiment it hits. The metrics describe one typical
    pass: `wall_s` is the sum of the medians over the plan (the calibration
    pauses between experiments are not part of it), and each command's time
    the sum over that command's experiments.
    """
    samples: dict[tuple[str, ...], list[float]] = {}
    for times in (pass_times(plan, p) for p in passes):
        for exp, t in zip(plan, times):
            samples.setdefault(tuple(exp["argv"]), []).append(t)
    medians = [statistics.median(samples[tuple(exp["argv"])]) for exp in plan]
    wall = sum(medians)
    ordered = sorted(medians)
    out = {
        "wall_s": wall,
        "op_p50_s": percentile(ordered, 50),
        "op_p99_s": percentile(ordered, 99),
        "experiments_per_s": len(plan) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    for kind in KINDS:
        out[f"{kind}_s"] = sum(d for d, e in zip(medians, plan) if e["kind"] == kind)
    return out


def snapshot(plan: list[dict], work: Path) -> list[bytes | None]:
    """The artifact bytes of each experiment of a pass, None where it wrote none."""
    from checks import artifact_path

    paths = [artifact_path(exp, work / str(i)) for i, exp in enumerate(plan)]
    return [p.read_bytes() if p.is_file() else None for p in paths]


def check_pass(plan: list[dict], res: dict, work: Path, failures: list[str]) -> None:
    from checks import Checker

    checker = Checker()
    for i, exp in enumerate(plan):
        problem = checker.check(exp, res["codes"][i], res["diagnostics"][i], work / str(i))
        if problem is not None:
            failures.append(f"#{i} {' '.join(exp['argv'])}: {problem}")


def compare_pass(plan, indices, res, expected, work: Path, label: str, failures: list[str]) -> None:
    """Experiment plan[i] ran as the j-th of `res`; its artifact must be expected[i].

    A file older than the pass is a leftover of an earlier pass in the same
    directory, so it counts as no artifact.
    """
    from checks import artifact_path

    for j, i in enumerate(indices):
        path = artifact_path(plan[i], work / str(j))
        fresh = path.is_file() and path.stat().st_mtime_ns >= res["t_spawn_ns"]
        if res["codes"][j] != plan[i]["expect"]:
            failures.append(f"#{i} {label}: exit {res['codes'][j]}, expected {plan[i]['expect']}")
        elif (path.read_bytes() if fresh else None) != expected[i]:
            failures.append(f"#{i} {label}: artifact differs from the first pass")


def workers_of(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1])


def workload_workers(plan: list[dict]) -> int:
    return max(workers_of(e["argv"]) for e in plan)


def measure(plan: list[dict], seconds: float, base: Path) -> tuple[dict, int, list[str], dict]:
    """Timed passes, set-up samples, checks and replays for trace 0."""
    failures: list[str] = []
    passes = []
    # every pass writes its artifacts over the same files: on the ext4 disk this
    # was built on, creating files slowed threefold after some thousand had been
    # created and deleted, while rewriting one in place stayed steady
    slots = base / "slots"
    expected: list[bytes | None] = []
    # a pass is started only if one more, as long as the longest so far, fits in
    # the time; the checks between passes are not part of it
    spent = longest = 0.0
    while not passes or spent + longest <= seconds:
        t_pass = time.monotonic()
        res = run_pass(plan, slots, None, "--calibrate")
        spent += time.monotonic() - t_pass
        longest = max(longest, time.monotonic() - t_pass)
        if passes:
            compare_pass(plan, range(len(plan)), res, expected, slots, f"pass {len(passes)}", failures)
        else:
            check_pass(plan, res, slots, failures)
            expected = snapshot(plan, slots)
        passes.append(res)
    setups = [
        spawn([e["argv"] for e in plan], base / f"setup{k}", "--setup-only", "--calibrate")
        for k in range(SETUP_ONLY_SPAWNS)
    ]
    attempted = len(plan) * len(passes)
    pooled = [i for i, e in enumerate(plan) if workers_of(e["argv"]) > 1]
    if pooled:
        # README criterion 11: the worker count never changes an artifact
        replay = run_pass([plan[i] for i in pooled], base / "replay", 1)
        attempted += len(pooled)
        compare_pass(plan, pooled, replay, expected, base / "replay", "workers 1 replay", failures)
    metrics = run_metrics(plan, passes)
    setup_samples = [t for res in setups for _, t, _ in res["calibration"]]
    metrics["setup_s"] = statistics.median(res["setup_s"] for res in setups) * calibrate.scale(setup_samples)
    details = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "latency_samples": len(plan),
        "unscaled_wall_s": [p["ends"][-1] - p["starts"][0] for p in passes],
        "calibration_s": [statistics.median(t for _, t, _ in p["calibration"]) for p in passes],
        "setup_calibration_s": statistics.median(setup_samples),
        "unscaled_setup_s": [res["setup_s"] for res in setups],
    }
    return metrics, attempted, failures, details


def traced(name: str, plan: list[dict], seed: int, base: Path) -> tuple[dict, int, list[str], dict]:
    """Untraced pass, traced pass and traced worker-count replay for trace 1."""
    import spans

    failures: list[str] = []
    plain = run_pass(plan, base / "plain")
    check_pass(plan, plain, base / "plain", failures)
    expected = snapshot(plan, base / "plain")
    main = run_pass(plan, base / "traced", None, "--trace", str(base / "traced.jsonl"), "--seed", str(seed))
    compare_pass(plan, range(len(plan)), main, expected, base / "traced", "traced pass", failures)

    workers = workload_workers(plan)
    other = 1 if workers > 1 else 2
    chosen: list[int] = []
    for kind in ("ambiguity", "delta"):
        chosen += [i for i, e in enumerate(plan) if e["kind"] == kind and e["expect"] == 0][:REPLAY_LIMIT]
    subset = [plan[i] for i in chosen]
    replay = run_pass(subset, base / "replay", other, "--trace", str(base / "replay.jsonl"))
    compare_pass(plan, chosen, replay, expected, base / "replay", f"workers {other} replay", failures)
    attempted = 2 * len(plan) + len(subset)

    shutil.copyfile(base / "traced.jsonl", OUT / f"{name}.spans.jsonl")  # kept after the run
    main_spans = spans.read(base / "traced.jsonl")
    replay_spans = spans.read(base / "replay.jsonl")
    metrics, details = spans.layer_metrics(main_spans, replay_spans, chosen, workers, main, plain)
    return metrics, attempted, failures, details


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, selftest, work_totals

    plan = WORKLOADS[name](seed)
    base = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        if trace:
            metrics, attempted, failures, details = traced(name, plan, seed, base)
        else:
            metrics, attempted, failures, details = measure(plan, seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    problems = selftest(name, seed)
    return {
        "workload": name,
        "seed": seed,
        "experiments": len(plan),
        "work": work_totals(plan),
        "environment": environment(),
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "selftest": problems,
        "details": details,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = doc["per_layer"] if trace else doc["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def report(result: dict, units: dict[str, str]) -> dict:
    """Print the human-readable table; return the metrics for the result line."""
    print(f"== {result['workload']} (seed {result['seed']}, {result['experiments']} experiments)")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("work counts: " + json.dumps(result["work"], sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:>16.6g} {unit}")
    failed = len(result["failures"])
    print(f"  {'ops_failed':<40} {failed:>16} count")
    print(f"  {'ops_total':<40} {result['attempted']:>16} count")
    for line in result["failures"][:20] + result["selftest"]:
        print("  FAIL " + line)
    details = result["details"]
    if "layers" in details:
        print("  per-layer self time (traced pass):")
        for layer, secs in sorted(details["layers"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {secs:10.4f} s")
        print(f"  slowest layer: {details['slowest_layer']}")
    print("details: " + json.dumps(details, sort_keys=True, default=str))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["balls", "grids", "sweep", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)

    if not (SRC / "growthlab" / "cli.py").is_file():
        print(f"growthlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = declared_metrics(bool(args.trace))
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        shown = report(result, units)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += result["attempted"]
        failed += len(result["failures"])
        correct = correct and not result["failures"] and not result["selftest"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
