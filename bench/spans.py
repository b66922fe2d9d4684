"""Spans around the calls into each growthlab module, recorded from outside.

`install` rebinds module-level names in the growthlab modules to wrappers
that record a span per call: name, wall start and end, CPU start and end,
parent span, the shared experiment id, and counts taken from arguments and
return values. Intra-module calls resolve through the same module globals,
so nested layers nest as spans. Nothing in the package itself changes.

`layer_table` turns recorded spans into per-layer self times: a span's
self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("cli", "words", "subgroups", "cayley", "counting", "concat", "hyperbolic", "rate", "parallel")


class Recorder:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.experiment = "setup"
        self.largest_ball = (0, None, 0)  # elements, group, radius

    def span(self, name: str, fn, counts=None):
        """Wrap fn so that each call records a span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = {
                "id": sid,
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "exp": self.experiment,
            }
            self.spans.append(rec)
            self.stack.append(sid)
            cpu0 = time.process_time()
            rec["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.monotonic()
                rec["cpu"] = time.process_time() - cpu0
                self.stack.pop()
            if counts is not None:
                rec["counts"] = counts(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(rec: Recorder) -> None:
    """Wrap every cross-layer entry point that the CLI path goes through."""
    from growthlab import _parallel, cayley, cli, concat, counting, hyperbolic, rate, subgroups, words

    def ball_counts(args, kwargs, ball):
        # keep only the shape: holding a large ball would slow later passes of the GC
        if len(ball) > rec.largest_ball[0]:
            rec.largest_ball = (len(ball), ball.group, ball.radius)
        # computed: every element of B(r-1) times every generator letter
        inner = ball.counts_by_radius[-2] if ball.radius else 0
        return {"elements": len(ball), "products": inner * 2 * sum(ball.group.ranks)}

    def ambiguity_counts(args, kwargs, report):
        # computed: one product per pair, plus four pieces on both sides per element
        pairs = sum(c.pairs for c in report.cells)
        elements = max(c.pairs for c in report.cells if c.s == 0 or c.t == 0)
        return {"pairs": pairs, "products": pairs + 8 * elements}

    def filter_counts(args, kwargs, ball):
        queried = counting.ball_counts(_arg(args, kwargs, 0, "group"), _arg(args, kwargs, 2, "radius"))[-1]
        unknown = ball.unknown_count
        return {"queries": queried, "true": len(ball), "unknown": unknown, "false": queried - len(ball) - unknown}

    wrapped = {
        "cli.parse_spec": (cli.parse_spec, None, [cli]),
        "subgroups.parse_subgroup": (subgroups.parse_subgroup, None, [cli]),
        "words.parse_group": (words.parse_group, None, [cli]),
        "words.parse_element": (words.parse_element, None, [cli]),
        "cayley.enumerate_ball": (cayley.enumerate_ball, ball_counts, [cli, cayley, concat, hyperbolic]),
        "subgroups.filter": (cayley.relative_ball, filter_counts, [cli, cayley, concat]),
        "cayley.distortion": (cayley.distortion, None, [cli]),
        "cayley.subgroup_word_length": (cayley.subgroup_word_length, None, [cayley]),
        "counting.relative_ball_counts": (counting.relative_ball_counts, None, [cli, counting]),
        "counting.ball_counts": (counting.ball_counts, None, [cli]),
        "rate.fekete_lower_bound": (rate.fekete_lower_bound, None, [cli]),
        "concat.build_connector_kit": (concat.build_connector_kit, None, [cli]),
        "concat.measure_ambiguity": (concat.measure_ambiguity, ambiguity_counts, [cli]),
        "hyperbolic.estimate_delta": (
            hyperbolic.estimate_delta,
            lambda a, k, est: {"quadruples": est.tuples_checked},
            [cli],
        ),
        "hyperbolic.acylindricity_witnesses": (hyperbolic.acylindricity_witnesses, None, [cli]),
    }
    for name, (fn, counts, modules) in wrapped.items():
        wrapper = rec.span(name, fn, counts)
        for module in modules:
            setattr(module, fn.__name__, wrapper)

    # The bypass path (one worker or one chunk) is a plain loop in the
    # caller; only a real pool gets a span, so waiting on it shows.
    pool = rec.span("parallel.pool", _parallel.parallel_map)
    plain = _parallel.parallel_map

    def parallel_map(worker, args, workers):
        return (pool if workers > 1 and len(args) > 1 else plain)(worker, args, workers)

    for module in (cayley, concat, hyperbolic):
        module.parallel_map = parallel_map

    from_ball = hyperbolic.FiniteMetric.__dict__["from_ball"].__func__
    hyperbolic.FiniteMetric.from_ball = classmethod(
        rec.span("hyperbolic.from_ball", from_ball, lambda a, k, m: {"points": m.size})
    )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, tuple[float, float]]:
    """(wall, CPU) duration minus the union of child intervals, per span id.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and the union is their sum.
    """
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] += s["end"] - s["start"]
            child_cpu[s["parent"]] += s["cpu"]
    return {
        s["id"]: (s["end"] - s["start"] - child_wall[s["id"]], s["cpu"] - child_cpu[s["id"]])
        for s in spans
    }


def layer_table(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer, over the given spans."""
    own = self_times(spans)
    table = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        table[layer_of(s["name"])] += own[s["id"]][0]
    return table


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, wall and CPU seconds, self wall and CPU, counts."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], defaultdict(float))
        row["calls"] += 1
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if parent is None or parent["name"] != s["name"]:  # recursion counts once
            row["s"] += s["end"] - s["start"]
            row["cpu_s"] += s["cpu"]
        row["self_s"] += own[s["id"]][0]
        row["self_cpu_s"] += own[s["id"]][1]
        for key, value in s.get("counts", {}).items():
            row[key] += value
    return out


def read(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _wall(spans: list[dict], name: str, experiments) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name and s["exp"] in experiments)


def layer_metrics(main: list[dict], replay: list[dict], chosen: list[int], workers: int, traced_pass: dict, plain_pass: dict):
    """Per-layer metrics of a traced pass and its worker-count replay.

    `chosen` are the experiment ids replayed at the other worker count; the
    replay numbered them 0..len(chosen)-1.
    """
    tot = totals(main)

    def get(name: str, key: str = "s") -> float:
        return tot.get(name, {}).get(key, 0.0)

    experiments = [s for s in main if s["exp"] != "setup"]
    layers = layer_table(experiments)
    traced_wall = traced_pass["ends"][-1] - traced_pass["starts"][0]
    plain_wall = plain_pass["ends"][-1] - plain_pass["starts"][0]
    pool = totals(main + [dict(s, id=s["id"] + len(main), parent=None) for s in replay]).get("parallel.pool", {})

    def speedup(name: str) -> float:
        here = _wall(main, name, set(chosen))
        there = _wall(replay, name, set(range(len(chosen))))
        at1, at2 = (here, there) if workers == 1 else (there, here)
        return at1 / at2 if at2 else 0.0

    metrics = {
        "cli.parse_spec.s": get("cli.parse_spec"),
        "subgroups.parse_subgroup.s": get("subgroups.parse_subgroup"),
        "cli.self.s": get("cli.main", "self_s"),
        "words.multiply_packed.ns": traced_pass["multiply"]["ns"],
        "words.products": get("cayley.enumerate_ball", "products") + get("concat.measure_ambiguity", "products"),
        "cayley.enumerate_ball.s": get("cayley.enumerate_ball"),
        "cayley.enumerate_ball.cpu_s": get("cayley.enumerate_ball", "cpu_s"),
        "cayley.elements": get("cayley.enumerate_ball", "elements"),
        "subgroups.filter.s": get("subgroups.filter", "self_s"),
        "subgroups.filter.cpu_s": get("subgroups.filter", "self_cpu_s"),
        "subgroups.queries": get("subgroups.filter", "queries"),
        "subgroups.true": get("subgroups.filter", "true"),
        "subgroups.false": get("subgroups.filter", "false"),
        "subgroups.unknown": get("subgroups.filter", "unknown"),
        "cayley.subgroup_word_length.s": get("cayley.subgroup_word_length"),
        "cayley.members": get("cayley.subgroup_word_length", "calls"),
        "counting.relative_ball_counts.s": get("counting.relative_ball_counts"),
        "rate.fekete_lower_bound.s": get("rate.fekete_lower_bound"),
        "concat.build_connector_kit.s": get("concat.build_connector_kit"),
        "concat.measure_ambiguity.s": get("concat.measure_ambiguity"),
        "concat.measure_ambiguity.cpu_s": get("concat.measure_ambiguity", "cpu_s"),
        "concat.pairs": get("concat.measure_ambiguity", "pairs"),
        "hyperbolic.from_ball.s": get("hyperbolic.from_ball"),
        "hyperbolic.points": get("hyperbolic.from_ball", "points"),
        "hyperbolic.estimate_delta.s": get("hyperbolic.estimate_delta"),
        "hyperbolic.estimate_delta.cpu_s": get("hyperbolic.estimate_delta", "cpu_s"),
        "hyperbolic.quadruples": get("hyperbolic.estimate_delta", "quadruples"),
        "hyperbolic.acylindricity_witnesses.s": get("hyperbolic.acylindricity_witnesses"),
        "parallel.pool.s": pool.get("s", 0.0),
        "parallel.pool.cpu_s": pool.get("cpu_s", 0.0),
        "parallel.speedup.measure_ambiguity": speedup("concat.measure_ambiguity"),
        "parallel.speedup.estimate_delta": speedup("hyperbolic.estimate_delta"),
        "trace.coverage": sum(layers.values()) / traced_wall,
        "trace.overhead": traced_wall / plain_wall,
    }
    metrics["cayley.elements_per_s"] = metrics["cayley.elements"] / metrics["cayley.enumerate_ball.s"]
    metrics["subgroups.decided_ratio"] = (metrics["subgroups.true"] + metrics["subgroups.false"]) / metrics["subgroups.queries"]
    metrics["concat.pairs_per_s"] = metrics["concat.pairs"] / metrics["concat.measure_ambiguity.s"]
    metrics["hyperbolic.quadruples_per_s"] = metrics["hyperbolic.quadruples"] / metrics["hyperbolic.estimate_delta.s"]
    for layer, secs in layers.items():
        if layer != "parallel":  # zero wherever no pool runs; parallel.pool.s covers it
            metrics[f"layer.{layer}.self_s"] = secs
    details = {
        "layers": layers,
        "slowest_layer": max(layers, key=layers.get),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": plain_wall,
        "multiply_pairs_from": traced_pass["multiply"],
        "replayed_at_workers": 1 if workers > 1 else 2,
        "replayed_experiments": chosen,
        "span_count": len(main),
        "spans": {name: dict(row) for name, row in tot.items()},
    }
    return metrics, details
