"""Command-line front end: experiment specs, orchestration, artifacts.

An experiment is a one-line spec: a subcommand followed by flags.
parse_spec canonicalizes it (group specs, subgroup specs, elements and
function specs are reparsed and re-rendered, defaults are resolved), so
render(parse(s)) is a normal form. It canonicalizes a subgroup spec
without enumerating anything; the subgroup's oracle is built once, when
the experiment runs. Execution writes artifacts whose bytes depend only
on the logical spec: CSV for tables, JSON for reports, each embedding
the canonical spec and the tool version. Worker count and output
directory are execution knobs and are excluded from the embedded spec,
which is what makes artifacts comparable across runs.
Every command accepts the worker count and runs in one process; no
command forks. A budgeted subgroup oracle may enumerate at most
min(1,000,000, --budget-elements) elements.

Exit codes: 0 success, 2 budget exceeded, 3 hypothesis or invariant
violation detected, 64 spec parse error, 1 other failures. Errors are
also emitted as one-line JSON diagnostics on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
from .cayley import DEFAULT_BUDGET, GrowthTable, distortion, enumerate_ball, relative_ball
from .concat import DEFAULT_PAIR_BUDGET, build_connector_kit, measure_ambiguity
from .counting import ball_counts, relative_ball_counts
from .errors import (
    AmbiguityBudgetError,
    BudgetError,
    GrowthlabError,
    HypothesisViolationError,
    InvariantViolationError,
    ParseError,
)
from .hyperbolic import (
    DEFAULT_TUPLE_CAP,
    FiniteMetric,
    acylindricity_witnesses,
    estimate_delta,
)
from .rate import RateHypothesis, default_growth_bound, fekete_lower_bound, parse_funcspec
from .subgroups import DEFAULT_ELEMENT_CAP, parse_subgroup
from .words import GroupDescriptor, parse_element, parse_group

__all__ = ["ExperimentSpec", "parse_spec", "run", "main"]

COMMANDS = ("growth", "relgrowth", "distortion", "delta", "acyl", "ambiguity", "rate")

# flag spelling -> spec field
_FLAGS = {
    "--group": "group",
    "--subgroup": "subgroup",
    "--g": "g",
    "--h": "h",
    "-n": "power",
    "--connector-power": "power",
    "--x": "x",
    "--y": "y",
    "--epsilon": "epsilon",
    "--shift": "shift",
    "--threshold": "threshold",
    "--growth-bound": "growth_bound",
    "--max-radius": "max_radius",
    "--smax": "smax",
    "--tmax": "tmax",
    "--budget-elements": "budget",
    "--mode": "mode",
    "--trials": "trials",
    "--seed": "seed",
    "--format": "format",
    "--out": "out",
    "--workers": "workers",
}

_REQUIRED = {
    "growth": ("group", "max_radius"),
    "relgrowth": ("group", "subgroup", "max_radius"),
    "distortion": ("group", "subgroup", "max_radius"),
    "delta": ("group", "max_radius"),
    "acyl": ("group", "x", "y", "epsilon"),
    "ambiguity": ("group", "g", "h", "smax", "tmax"),
    "rate": ("group", "max_radius"),
}

_ALLOWED = {
    "growth": {"group", "max_radius", "budget"},
    "relgrowth": {"group", "subgroup", "max_radius", "budget"},
    "distortion": {"group", "subgroup", "max_radius", "budget"},
    "delta": {"group", "max_radius", "budget", "mode", "trials", "seed"},
    "acyl": {"group", "x", "y", "epsilon"},
    "ambiguity": {"group", "subgroup", "g", "h", "power", "smax", "tmax", "budget"},
    "rate": {"group", "subgroup", "max_radius", "epsilon", "shift", "threshold", "growth_bound"},
}
for _cmd in _ALLOWED:
    _ALLOWED[_cmd] |= {"format", "out", "workers"}

_DEFAULT_BUDGETS = {
    "growth": DEFAULT_BUDGET,
    "relgrowth": DEFAULT_BUDGET,
    "distortion": DEFAULT_BUDGET,
    "delta": DEFAULT_TUPLE_CAP,
    "ambiguity": DEFAULT_PAIR_BUDGET,
}

_DEFAULT_FORMAT = {
    "growth": "csv",
    "relgrowth": "csv",
    "distortion": "csv",
    "delta": "json",
    "acyl": "json",
    "ambiguity": "json",
    "rate": "json",
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One resolved experiment: subcommand plus canonicalized parameters."""

    command: str
    group: str
    subgroup: str | None = None
    g: str | None = None
    h: str | None = None
    power: int = 2
    x: str | None = None
    y: str | None = None
    epsilon: str | None = None
    shift: str | None = None
    threshold: int = 1
    growth_bound: str | None = None
    max_radius: int | None = None
    smax: int | None = None
    tmax: int | None = None
    budget: int | None = None
    mode: str = "exhaustive"
    trials: int = 10_000
    seed: int = 0
    format: str = "csv"
    out: str | None = None
    workers: int = 1

    def render(self, *, logical: bool = False) -> str:
        """Canonical one-line form; logical omits execution knobs."""
        parts = [self.command, "--group", _quote(self.group)]
        if self.subgroup is not None:
            parts += ["--subgroup", _quote(self.subgroup)]
        if self.command == "ambiguity":
            parts += ["--g", _quote(self.g), "--h", _quote(self.h), "-n", str(self.power)]
        if self.command == "acyl":
            parts += ["--x", _quote(self.x), "--y", _quote(self.y), "--epsilon", self.epsilon]
        if self.command == "rate":
            parts += ["--epsilon", _quote(self.epsilon), "--shift", _quote(self.shift)]
            parts += ["--threshold", str(self.threshold)]
            if self.growth_bound is not None:
                parts += ["--growth-bound", _quote(self.growth_bound)]
        if self.max_radius is not None:
            parts += ["--max-radius", str(self.max_radius)]
        if self.command == "ambiguity":
            parts += ["--smax", str(self.smax), "--tmax", str(self.tmax)]
        if self.budget is not None:
            parts += ["--budget-elements", str(self.budget)]
        if self.command == "delta":
            parts += ["--mode", self.mode]
            if self.mode == "random":
                parts += ["--trials", str(self.trials), "--seed", str(self.seed)]
        parts += ["--format", self.format]
        if not logical:
            if self.out is not None:
                parts += ["--out", _quote(self.out)]
            parts += ["--workers", str(self.workers)]
        return " ".join(parts)


def _quote(value: str) -> str:
    if value == "" or any(ch in value for ch in " \t\n'\""):
        return '"' + value + '"'
    return value


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split a spec line into (token, line, column) triples; quotes group."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i, col = i + 1, col + 1
            continue
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        start_line, start_col = line, col
        buf = []
        while i < n and text[i] not in " \t\n":
            ch = text[i]
            if ch in "'\"":
                i, col = i + 1, col + 1
                while i < n and text[i] != ch:
                    if text[i] == "\n":
                        line, col = line + 1, 0
                    buf.append(text[i])
                    i, col = i + 1, col + 1
                if i >= n:
                    raise ParseError("unterminated quote", start_line, start_col)
                i, col = i + 1, col + 1
            else:
                buf.append(ch)
                i, col = i + 1, col + 1
        tokens.append(("".join(buf), start_line, start_col))
    return tokens


def _int_flag(raw, name: str, flag: str, lo: int, hi: int, default: int | None):
    if name not in raw:
        return default
    value, line, col = raw[name]
    try:
        number = int(value)
    except ValueError:
        raise ParseError(f"{flag} expects an integer, got {value!r}", line, col) from None
    if not lo <= number <= hi:
        raise ParseError(f"{flag} out of range [{lo}, {hi}]: {number}", line, col)
    return number


def _reposition(exc: ParseError, line: int, col: int) -> ParseError:
    return ParseError(str(exc.args[0] if exc.args else exc), line, col)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and canonicalize a one-line experiment spec.

    Group, subgroup, element and function sub-specs are parsed against
    each other and re-rendered, defaults are filled in, and ranges are
    checked; every rejection carries the line and column of the
    offending token.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty experiment spec", 1, 1)
    command, cline, ccol = tokens[0]
    if command not in COMMANDS:
        raise ParseError(
            f"unknown subcommand {command!r}, expected one of {', '.join(COMMANDS)}",
            cline,
            ccol,
        )
    raw: dict[str, tuple[str, int, int]] = {}
    i = 1
    while i < len(tokens):
        flag, fline, fcol = tokens[i]
        field = _FLAGS.get(flag)
        if field is None:
            raise ParseError(f"unknown flag {flag!r}", fline, fcol)
        if i + 1 >= len(tokens):
            raise ParseError(f"flag {flag} needs a value", fline, fcol)
        value, vline, vcol = tokens[i + 1]
        raw[field] = (value, vline, vcol)
        i += 2

    flag_names = {field: flag for flag, field in _FLAGS.items()}
    for field, (_, fline, fcol) in raw.items():
        if field not in _ALLOWED[command]:
            raise ParseError(f"{flag_names[field]} does not apply to {command}", fline, fcol)
    for field in _REQUIRED[command]:
        if field not in raw:
            raise ParseError(f"{command} requires a --{field.replace('_', '-')} value", cline, ccol)

    def canonical(field: str, parser) -> str | None:
        if field not in raw:
            return None
        value, vline, vcol = raw[field]
        try:
            return parser(value)
        except ParseError as exc:
            raise _reposition(exc, vline, vcol) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), vline, vcol) from None

    group_spec = canonical("group", lambda s: parse_group(s).spec())
    group = parse_group(group_spec)
    # radius 0 enumerates nothing; _execute builds the real oracle once
    subgroup = canonical(
        "subgroup", lambda s: parse_subgroup(group, s, budget_radius=0).spec_string()
    )

    spec = ExperimentSpec(
        command=command,
        group=group_spec,
        subgroup=subgroup,
        g=canonical("g", lambda s: parse_element(group, s).render()),
        h=canonical("h", lambda s: parse_element(group, s).render()),
        power=_int_flag(raw, "power", "-n", 1, 64, 2),
        x=canonical("x", lambda s: parse_element(group, s).render()),
        y=canonical("y", lambda s: parse_element(group, s).render()),
        epsilon=None,
        shift=None,
        threshold=_int_flag(raw, "threshold", "--threshold", 0, 10**6, 1),
        growth_bound=canonical("growth_bound", lambda s: str(Fraction(s))),
        max_radius=_int_flag(raw, "max_radius", "--max-radius", 0, 10**4, None),
        smax=_int_flag(raw, "smax", "--smax", 0, 64, None),
        tmax=_int_flag(raw, "tmax", "--tmax", 0, 64, None),
        budget=_int_flag(raw, "budget", "--budget-elements", 1, 10**12, _DEFAULT_BUDGETS.get(command)),
        mode="exhaustive",
        trials=_int_flag(raw, "trials", "--trials", 1, 10**8, 10_000),
        seed=_int_flag(raw, "seed", "--seed", 0, 2**62, 0),
        format=_DEFAULT_FORMAT[command],
        out=raw["out"][0] if "out" in raw else None,
        workers=_int_flag(raw, "workers", "--workers", 1, 256, 1),
    )

    if command == "acyl":
        spec = replace(spec, epsilon=str(_int_flag(raw, "epsilon", "--epsilon", 0, 64, None)))
    elif command == "rate":
        spec = replace(
            spec,
            epsilon=canonical("epsilon", lambda s: parse_funcspec(s).render()) or "1",
            shift=canonical("shift", lambda s: parse_funcspec(s).render()) or "0",
        )

    if "mode" in raw:
        value, vline, vcol = raw["mode"]
        if value not in ("exhaustive", "random"):
            raise ParseError(f"--mode must be exhaustive or random, got {value!r}", vline, vcol)
        spec = replace(spec, mode=value)
    if spec.mode != "random":
        # sampling knobs are meaningless outside random mode; normalize them
        spec = replace(spec, trials=10_000, seed=0)
    if "format" in raw:
        value, vline, vcol = raw["format"]
        if value not in ("csv", "json"):
            raise ParseError(f"--format must be csv or json, got {value!r}", vline, vcol)
        spec = replace(spec, format=value)
    return spec


def _diagnose(exc: BaseException) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    for attr in (
        "line",
        "column",
        "radius_reached",
        "target_radius",
        "budget",
        "needed",
        "cap",
        "pairs_needed",
        "element_text",
        "depth_cap",
    ):
        value = getattr(exc, attr, None)
        if isinstance(value, (int, str)):
            doc[attr] = value
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _render_label(label) -> str:
    return label.render() if hasattr(label, "render") else str(label)


def _csv_bytes(spec: ExperimentSpec, header: list[str], rows: list, comments: list[str]) -> str:
    buf = io.StringIO()
    buf.write(f"# growthlab {__version__}\n")
    buf.write(f"# spec: {spec.render(logical=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    for comment in comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


def _json_bytes(spec: ExperimentSpec, report: dict) -> str:
    doc = {
        "tool": f"growthlab {__version__}",
        "spec": spec.render(logical=True),
        "command": spec.command,
        "report": report,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _table_payload(spec, rows, unknown=None):
    comments = []
    if unknown is not None:
        for radius, count in enumerate(unknown):
            if count:
                comments.append(f"unknown,{radius},{count}")
    if spec.format == "csv":
        header = ["radius", "distortion" if spec.command == "distortion" else "count"]
        return _csv_bytes(spec, header, rows, comments)
    report = {"rows": [list(r) for r in rows]}
    if unknown is not None:
        report["unknown"] = list(unknown)
    return _json_bytes(spec, report)


def _ambiguity_payload(spec, report):
    cells = [
        [cell.s, cell.t, cell.radius, cell.pairs, cell.max_fiber, cell.argmax.render()]
        for cell in report.cells
    ]
    if spec.format == "csv":
        comments = [
            f"connector,{report.connector}",
            f"c,{report.c}",
            f"envelope,{report.intercept}+{report.slope}t,fit_t={report.fit_t}",
            f"complete,{report.complete}",
        ]
        comments += [f"violation,{s},{t}" for s, t in report.violations]
        return _csv_bytes(
            spec, ["s", "t", "radius", "pairs", "max_fiber", "argmax"], cells, comments
        )
    return _json_bytes(
        spec,
        {
            "domain": report.domain,
            "connector": report.connector,
            "c": report.c,
            "s_max": report.s_max,
            "t_max": report.t_max,
            "fit_t": report.fit_t,
            "slope": str(report.slope),
            "intercept": report.intercept,
            "cells": cells,
            "violations": [list(v) for v in report.violations],
            "max_fiber_by_t": report.max_fiber_by_t(),
            "complete": report.complete,
        },
    )


def _execute(spec: ExperimentSpec) -> tuple[int, str]:
    """Run one experiment; returns (exit_code, artifact_text)."""
    group = parse_group(spec.group)
    oracle = None
    if spec.subgroup is not None:
        cap = min(DEFAULT_ELEMENT_CAP, spec.budget or DEFAULT_ELEMENT_CAP)
        oracle = parse_subgroup(group, spec.subgroup, element_cap=cap)

    if spec.command == "growth":
        ball = enumerate_ball(group, spec.max_radius, budget=spec.budget)
        return 0, _table_payload(spec, list(enumerate(ball.counts_by_radius)))

    if spec.command == "relgrowth":
        ball = relative_ball(group, oracle, spec.max_radius, budget=spec.budget)
        rows = list(enumerate(ball.counts_by_radius))
        return 0, _table_payload(spec, rows, unknown=ball.unknown_by_radius)

    if spec.command == "distortion":
        table = distortion(
            group, oracle.generators, spec.max_radius, budget=spec.budget, oracle=oracle
        )
        return 0, _table_payload(spec, table.rows(), unknown=table.unknown)

    if spec.command == "delta":
        ball = enumerate_ball(group, spec.max_radius)
        metric = FiniteMetric.from_ball(ball)
        estimate = estimate_delta(
            metric,
            spec.mode,
            trials=spec.trials,
            seed=spec.seed,
            tuple_cap=spec.budget,
        )
        report = {
            "delta": estimate.delta,
            "witness": [_render_label(label) for label in estimate.witness],
            "tuples_checked": estimate.tuples_checked,
            "mode": estimate.mode,
            "points": metric.size,
        }
        if spec.format == "csv":
            rows = sorted(report.items())
            rows = [[k, json.dumps(v) if isinstance(v, list) else v] for k, v in rows]
            return 0, _csv_bytes(spec, ["field", "value"], rows, [])
        return 0, _json_bytes(spec, report)

    if spec.command == "acyl":
        x = parse_element(group, spec.x)
        y = parse_element(group, spec.y)
        acyl_report = acylindricity_witnesses(group, x, y, int(spec.epsilon))
        payload = {
            "x": x.render(),
            "y": y.render(),
            "epsilon": int(spec.epsilon),
            "count": acyl_report.count,
            "witnesses": [w.render() for w in acyl_report.witnesses],
        }
        if spec.format == "csv":
            rows = [[i, w] for i, w in enumerate(payload["witnesses"])]
            comments = [f"count,{payload['count']}"]
            return 0, _csv_bytes(spec, ["index", "witness"], rows, comments)
        return 0, _json_bytes(spec, payload)

    if spec.command == "ambiguity":
        kit = build_connector_kit(
            group, parse_element(group, spec.g), parse_element(group, spec.h), n=spec.power
        )
        domain = oracle if oracle is not None else group
        try:
            report = measure_ambiguity(kit, domain, spec.smax, spec.tmax, budget=spec.budget)
        except AmbiguityBudgetError as exc:
            if exc.partial is not None:
                # keep the truncated grid on disk next to the diagnostic
                return 2, _ambiguity_payload(spec, exc.partial)
            raise
        code = 3 if report.violations else 0
        return code, _ambiguity_payload(spec, report)

    if spec.command == "rate":
        if oracle is not None:
            counts = relative_ball_counts(oracle, spec.max_radius)
        else:
            counts = ball_counts(group, spec.max_radius)
        table = GrowthTable(group, tuple(counts), subgroup=spec.subgroup)
        bound = (
            Fraction(spec.growth_bound)
            if spec.growth_bound is not None
            else default_growth_bound(group)
        )
        hyp = RateHypothesis(
            epsilon=parse_funcspec(spec.epsilon),
            shift=parse_funcspec(spec.shift),
            threshold=spec.threshold,
            growth_bound=bound,
        )
        estimate = fekete_lower_bound(table, hyp)
        code = 0 if estimate.hypothesis_ok else 3
        if spec.format == "csv":
            rows = [
                [n, counts[n], estimate.roots[n]] for n in range(len(counts))
            ]
            comments = [
                f"lower,{estimate.certified_lower}",
                f"upper,{estimate.empirical_upper}",
                f"witness_s,{estimate.witness_s}",
                f"hypothesis_ok,{estimate.hypothesis_ok}",
            ]
            return code, _csv_bytes(spec, ["radius", "count", "root"], rows, comments)
        return code, _json_bytes(spec, estimate.to_json())

    raise ParseError(f"unknown subcommand {spec.command!r}")


def run(spec: ExperimentSpec) -> int:
    """Execute a spec and write its artifact; returns the exit code."""
    out_dir = Path(spec.out or os.environ.get("GROWTHLAB_OUT") or ".")
    try:
        code, text = _execute(spec)
    except ParseError as exc:
        _diagnose(exc)
        return 64
    except BudgetError as exc:
        _diagnose(exc)
        return 2
    except (HypothesisViolationError, InvariantViolationError) as exc:
        _diagnose(exc)
        return 3
    except GrowthlabError as exc:
        _diagnose(exc)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{spec.command}.{spec.format}"
    path.write_text(text)
    if code == 3:
        _diagnose(HypothesisViolationError(f"{spec.command} detected violations; see {path}"))
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_spec(shlex.join(args))
    except ParseError as exc:
        _diagnose(exc)
        return 64
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
