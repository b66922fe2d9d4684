"""Command-line front end: experiment specs, orchestration, artifacts.

An experiment is a one-line spec: a subcommand followed by flags.
parse_spec canonicalizes it (group specs, subgroup specs, elements and
function specs are reparsed and re-rendered, defaults are resolved), so
render(parse(s)) is a normal form. Building a subgroup's oracle
enumerates nothing: a budgeted oracle enumerates the first time the
experiment asks it, so canonicalizing a spec never does.

One report per command, one writer: _execute computes each command's
result once and returns it as a JSON report and a CSV view (header,
rows, trailing comments), and _artifact alone renders whichever --format
asks for. Artifact bytes depend only on the logical spec, which they
embed with the tool version. The output directory is an execution knob,
excluded from the embedded spec, which is what makes artifacts
comparable across runs.

Every command runs in one process; --workers K is range-checked (1 to
256) and discarded. A budgeted subgroup oracle may enumerate at most
min(1,000,000, --budget-elements) elements, and rate, which only counts,
never asks it to. delta's --budget-elements caps only the quadruples of
the exhaustive scan: its ball is capped at 10,000,000 elements
(cayley.DEFAULT_BUDGET) whatever the flag says, in either mode.

_FLAGS declares each flag once, in render order; _COMMANDS each command
once, with the defaults it sets apart from ExperimentSpec's; and _VALUES
each value's grammar once, in the order values are checked, so a spec
with several bad values reports the first in that order. The flag
checks, the defaults and the canonical render follow from them. A flag
given twice, under either spelling, is a parse error.

Exit codes: 0 success, 2 budget exceeded, 3 hypothesis or invariant
violation detected, 64 spec parse error, 1 other failures. Each error
type declares its code as exit_code, and every failure is also emitted
as a one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shlex
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from typing import Sequence

from . import __version__
from .cayley import (
    DEFAULT_BUDGET,
    ball_sizes,
    distortion,
    enumerate_ball,
    relative_counts,
)
from .concat import DEFAULT_PAIR_BUDGET, build_connector_kit, measure_ambiguity
from .counting import relative_ball_counts
from .errors import AmbiguityBudgetError, GrowthlabError, HypothesisViolationError, ParseError
from .hyperbolic import (
    DEFAULT_TUPLE_CAP,
    WordSample,
    acylindricity_witnesses,
    check_tuple_cap,
    estimate_delta,
)
from .rate import RateHypothesis, default_growth_bound, fekete_lower_bound, parse_funcspec
from .subgroups import DEFAULT_ELEMENT_CAP, WholeGroupOracle, parse_subgroup
from .words import parse_element, parse_group

# flag spelling -> spec field, in render order; a field renders as its first spelling
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
_SPELLING = {}
for _flag, _field in _FLAGS.items():
    _SPELLING.setdefault(_field, _flag)

# command -> (required fields, optional fields, defaults that differ from ExperimentSpec's);
# every command also takes --format, --out and --workers
_COMMANDS = {
    "growth": (("group", "max_radius"), ("budget",), {"budget": DEFAULT_BUDGET}),
    "relgrowth": (("group", "subgroup", "max_radius"), ("budget",), {"budget": DEFAULT_BUDGET}),
    "distortion": (("group", "subgroup", "max_radius"), ("budget",), {"budget": DEFAULT_BUDGET}),
    "delta": (
        ("group", "max_radius"),
        ("budget", "mode", "trials", "seed"),
        {"budget": DEFAULT_TUPLE_CAP, "format": "json"},
    ),
    "acyl": (("group", "x", "y", "epsilon"), ("budget",), {"format": "json"}),
    "ambiguity": (
        ("group", "g", "h", "smax", "tmax"),
        ("subgroup", "power", "budget"),
        {"budget": DEFAULT_PAIR_BUDGET, "format": "json"},
    ),
    "rate": (
        ("group", "max_radius"),
        ("subgroup", "epsilon", "shift", "threshold", "growth_bound"),
        {"epsilon": "1", "shift": "0", "format": "json"},
    ),
}
COMMANDS = tuple(_COMMANDS)
# command -> each field it takes, in render order, with the field's first spelling
_TAKES = {
    command: {
        field: flag for field, flag in _SPELLING.items()
        if field in (*required, *optional, "format", "out", "workers")
    }
    for command, (required, optional, _) in _COMMANDS.items()
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

    def render(self, *, logical: bool = False) -> str:
        """Canonical one-line form: the command's set fields in flag order, trials
        and seed only in random mode; logical omits the output directory."""
        parts = [self.command]
        for field, flag in _TAKES[self.command].items():
            value = getattr(self, field, None)  # --workers is not stored
            if (
                value is None
                or field in ("trials", "seed") and self.mode != "random"
                or field == "out" and logical
            ):
                continue
            parts += [flag, _quote(str(value))]
        return " ".join(parts)


_QUOTED = frozenset(" \t\n'\"")  # a value holding one of these renders quoted


def _quote(value: str) -> str:
    """The value as one token: runs of double quotes go in single quotes, every
    other run in double quotes, and the tokenizer joins adjacent quoted runs."""
    if value and _QUOTED.isdisjoint(value):
        return value
    runs = ("".join(run) for _, run in groupby(value, '"'.__eq__))
    return "".join(f"'{run}'" if run[0] == '"' else f'"{run}"' for run in runs) or '""'


# a token: unquoted runs and quoted runs, then the quote it leaves open, if any
_TOKEN = re.compile(r"""(?=[^ \t\n])(?:[^ \t\n'"]+|'[^']*'|"[^"]*")*(['"])?""")
_QUOTED_RUN = re.compile(r"""'([^']*)'|"([^"]*)\"""")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split a spec line into (token, line, column) triples; quotes group."""
    tokens = []
    line, seen = 1, 0
    for match in _TOKEN.finditer(text):
        start = match.start()
        line += text.count("\n", seen, start)
        seen = start
        column = start - text.rfind("\n", 0, start)
        if match[1]:
            raise ParseError("unterminated quote", line, column)
        token = match[0]
        if "'" in token or '"' in token:
            token = _QUOTED_RUN.sub(r"\1\2", token)  # drop each quoted run's quotes
        tokens.append((token, line, column))
    return tokens


def _integer(lo: int, hi: int, store=int):
    def parse(value, flag, group):
        try:
            number = int(value)
        except ValueError:
            raise ParseError(f"{flag} expects an integer, got {value!r}") from None
        if not lo <= number <= hi:
            raise ParseError(f"{flag} out of range [{lo}, {hi}]: {number}")
        return store(number)

    return parse


def _choice(*allowed: str):
    def parse(value, flag, group):
        if value not in allowed:
            raise ParseError(f"{flag} must be {' or '.join(allowed)}, got {value!r}")
        return value

    return parse


def _element(value, flag, group):
    return parse_element(group, value).render()


def _funcspec(value, flag, group):
    return parse_funcspec(value).render()


# field -> parser (value, flag as typed, group) -> canonical value, in check order;
# the group parses to its descriptor, which every later value is read against
_VALUES = {
    "group": lambda value, flag, group: parse_group(value),
    "subgroup": lambda value, flag, group: parse_subgroup(group, value).spec_string(),
    "g": _element,
    "h": _element,
    "power": _integer(1, 64),
    "x": _element,
    "y": _element,
    "threshold": _integer(0, 10**6),
    "growth_bound": lambda value, flag, group: str(Fraction(value)),
    "max_radius": _integer(0, 10**4),
    "smax": _integer(0, 64),
    "tmax": _integer(0, 64),
    "budget": _integer(1, 10**12),
    "trials": _integer(1, 10**8),
    "seed": _integer(0, 2**62),
    "out": lambda value, flag, group: value,
    "workers": _integer(1, 256),
    "epsilon": _funcspec,
    "shift": _funcspec,
    "mode": _choice("exhaustive", "random"),
    "format": _choice("csv", "json"),
}
# acyl's --epsilon is a distance, not a function spec
_ACYL_VALUES = {**_VALUES, "epsilon": _integer(0, 64, str)}


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
    # field -> (flag as typed, value, value line, value column)
    raw: dict[str, tuple[str, str, int, int]] = {}
    flag_at: dict[str, tuple[int, int]] = {}  # field -> (flag line, flag column)
    for i in range(1, len(tokens), 2):
        flag, fline, fcol = tokens[i]
        field = _FLAGS.get(flag)
        if field is None:
            raise ParseError(f"unknown flag {flag!r}", fline, fcol)
        if i + 1 >= len(tokens):
            raise ParseError(f"flag {flag} needs a value", fline, fcol)
        if field in raw:
            first = raw[field][0]
            raise ParseError(f"duplicate flag {flag}, already given as {first}", fline, fcol)
        raw[field] = (flag, *tokens[i + 1])
        flag_at[field] = (fline, fcol)

    for field, (flag, *_) in raw.items():
        if field not in _TAKES[command]:
            raise ParseError(f"{flag} does not apply to {command}", *flag_at[field])
    required, _, defaults = _COMMANDS[command]
    for field in required:
        if field not in raw:
            raise ParseError(f"{command} requires a {_TAKES[command][field]} value", cline, ccol)

    values = dict(defaults)
    for field, parse in (_ACYL_VALUES if command == "acyl" else _VALUES).items():
        if field not in raw:
            continue
        flag, value, vline, vcol = raw[field]
        try:
            values[field] = parse(value, flag, values.get("group"))
        except ParseError as exc:
            raise ParseError(exc.args[0], vline, vcol) from None
        except ValueError as exc:
            raise ParseError(str(exc), vline, vcol) from None
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}", vline, vcol) from None
    values["group"] = values["group"].spec()
    values.pop("workers", None)  # checked, then discarded: every run is one process
    if values.get("mode") != "random":
        # sampling knobs are meaningless outside random mode; normalize them
        values.pop("trials", None)
        values.pop("seed", None)
    return ExperimentSpec(command, **values)


def _diagnose(exc: BaseException) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, GrowthlabError):
        # each error type sets its own fields; report the plain ones
        doc.update((k, v) for k, v in vars(exc).items() if isinstance(v, (int, str)))
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _artifact(spec: ExperimentSpec, report: dict, view: tuple[list[str], list, list[str]]) -> str:
    """The artifact text in the spec's format: the JSON report, or the CSV
    view (header, rows, trailing comments); both embed the logical spec."""
    if spec.format == "json":
        doc = {
            "tool": f"growthlab {__version__}",
            "spec": spec.render(logical=True),
            "command": spec.command,
            "report": report,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header, rows, comments = view
    buf = io.StringIO()
    buf.write(f"# growthlab {__version__}\n")
    buf.write(f"# spec: {spec.render(logical=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for comment in comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


def _table_view(column: str, rows: list, unknown: Sequence[int] | None):
    """A growth or distortion table's report and CSV view; unknown tallies,
    when the oracle has them, go in both."""
    report = {"rows": [list(r) for r in rows]}
    comments = []
    if unknown is not None:
        report["unknown"] = list(unknown)
        comments = [f"unknown,{radius},{count}" for radius, count in enumerate(unknown) if count]
    return report, (["radius", column], rows, comments)


def _ambiguity_view(grid):
    """An ambiguity grid's report and CSV view, for a whole or a starved grid."""
    cells = [
        [cell.s, cell.t, cell.radius, cell.pairs, cell.max_fiber, cell.argmax.render()]
        for cell in grid.cells
    ]
    report = {
        "domain": grid.domain,
        "connector": grid.connector,
        "c": grid.c,
        "s_max": grid.s_max,
        "t_max": grid.t_max,
        "fit_t": grid.fit_t,
        "slope": str(grid.slope),
        "intercept": grid.intercept,
        "cells": cells,
        "violations": [list(v) for v in grid.violations],
        "max_fiber_by_t": grid.max_fiber_by_t(),
        "complete": grid.complete,
    }
    comments = [
        f"connector,{grid.connector}",
        f"c,{grid.c}",
        f"envelope,{grid.intercept}+{grid.slope}t,fit_t={grid.fit_t}",
        f"complete,{grid.complete}",
    ]
    comments += [f"violation,{s},{t}" for s, t in grid.violations]
    return report, (["s", "t", "radius", "pairs", "max_fiber", "argmax"], cells, comments)


def _execute(spec: ExperimentSpec) -> tuple[int, dict, tuple[list[str], list, list[str]]]:
    """Run one experiment; returns (exit code, JSON report, CSV view)."""
    group = parse_group(spec.group)
    if spec.subgroup is None:
        oracle = WholeGroupOracle(group)
    else:
        cap = min(DEFAULT_ELEMENT_CAP, spec.budget or DEFAULT_ELEMENT_CAP)
        oracle = parse_subgroup(group, spec.subgroup, element_cap=cap)

    if spec.command in ("growth", "relgrowth"):
        counts, unknown = relative_counts(group, oracle, spec.max_radius, budget=spec.budget)
        # the whole group's table carries no unknown tallies
        unknown = None if spec.subgroup is None else unknown
        return (0, *_table_view("count", list(enumerate(counts)), unknown))

    if spec.command == "distortion":
        table = distortion(
            group, oracle.generators, spec.max_radius, budget=spec.budget, oracle=oracle
        )
        return (0, *_table_view("distortion", table.rows(), table.unknown))

    if spec.command == "delta":
        if spec.mode == "exhaustive":
            # |B(r)| is a closed form: a scan over the cap stops before the ball
            check_tuple_cap(ball_sizes(group, spec.max_radius)[-1], spec.budget)
        sample = WordSample(group, enumerate_ball(group, spec.max_radius).packed)
        estimate = estimate_delta(
            sample, spec.mode, trials=spec.trials, seed=spec.seed, tuple_cap=spec.budget
        )
        report = {
            "delta": estimate.delta,
            "witness": [label.render() for label in estimate.witness],
            "tuples_checked": estimate.tuples_checked,
            "mode": estimate.mode,
            "points": sample.size,
        }
        rows = [[k, json.dumps(v) if isinstance(v, list) else v] for k, v in sorted(report.items())]
        return 0, report, (["field", "value"], rows, [])

    if spec.command == "acyl":
        x = parse_element(group, spec.x)
        y = parse_element(group, spec.y)
        acyl = acylindricity_witnesses(group, x, y, int(spec.epsilon), budget=spec.budget)
        witnesses = [w.render() for w in acyl.witnesses]
        report = {
            "x": x.render(),
            "y": y.render(),
            "epsilon": int(spec.epsilon),
            "count": acyl.count,
            "witnesses": witnesses,
        }
        view = (["index", "witness"], list(enumerate(witnesses)), [f"count,{acyl.count}"])
        return 0, report, view

    if spec.command == "ambiguity":
        kit = build_connector_kit(
            group, parse_element(group, spec.g), parse_element(group, spec.h), n=spec.power
        )
        grid = measure_ambiguity(kit, oracle, spec.smax, spec.tmax, budget=spec.budget)
        return (3 if grid.violations else 0, *_ambiguity_view(grid))

    if spec.command == "rate":
        counts = relative_ball_counts(oracle, spec.max_radius)
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
        estimate = fekete_lower_bound(counts, hyp)
        rows = [[n, count, root] for n, (count, root) in enumerate(zip(counts, estimate.roots))]
        comments = [
            f"lower,{estimate.certified_lower}",
            f"upper,{estimate.empirical_upper}",
            f"witness_s,{estimate.witness_s}",
            f"hypothesis_ok,{estimate.hypothesis_ok}",
        ]
        view = (["radius", "count", "root"], rows, comments)
        return 0 if estimate.hypothesis_ok else 3, estimate.to_json(), view

    raise ParseError(f"unknown subcommand {spec.command!r}")


def run(spec: ExperimentSpec) -> int:
    """Execute a spec and write its artifact; returns the exit code."""
    # a given --out wins, even the empty path, which is the current directory
    out_dir = Path(os.environ.get("GROWTHLAB_OUT") or "." if spec.out is None else spec.out)
    failure: GrowthlabError | None = None
    try:
        code, report, view = _execute(spec)
    except AmbiguityBudgetError as exc:
        # keep the truncated grid on disk next to the diagnostic
        code, (report, view), failure = exc.exit_code, _ambiguity_view(exc.partial), exc
    except (GrowthlabError, ValueError) as exc:
        _diagnose(exc)
        return getattr(exc, "exit_code", 1)
    path = out_dir / f"{spec.command}.{spec.format}"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(_artifact(spec, report, view))
    except OSError as exc:  # e.g. the output directory names an existing file
        _diagnose(exc)
        return 1
    if code == 3:
        failure = HypothesisViolationError(f"{spec.command} detected violations; see {path}")
    if failure is not None:
        _diagnose(failure)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_spec(shlex.join(args))
    except ParseError as exc:
        _diagnose(exc)
        return exc.exit_code
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
