"""Experiment spec parsing, artifact generation, exit codes."""

import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthlab
from growthlab import cayley, cli, errors, subgroups
from growthlab.cayley import distortion, enumerate_ball
from growthlab.cli import ExperimentSpec, _diagnose, main, parse_spec, run
from growthlab.concat import AmbiguityReport
from growthlab.errors import InvariantViolationError, ParseError
from growthlab.hyperbolic import WordSample
from growthlab.subgroups import BudgetedEnumerationOracle
from growthlab.words import free_group, parse_element, product_group


def run_into(tmp_path, text):
    spec = replace(parse_spec(text), out=str(tmp_path))
    code = run(spec)
    path = tmp_path / f"{spec.command}.{spec.format}"
    return code, path.read_text() if path.exists() else None


def data_rows(body):
    return [line for line in body.splitlines() if line and not line.startswith("#")]


def reference_tokenize(text):
    """The spec tokenizer as a character loop: blanks split, quotes group."""
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


def tokenized(tokenize, text):
    """The triples, or the rejection as (message, line, column)."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.args[0], exc.line, exc.column


def record_enumerations(monkeypatch):
    """Patch BudgetedEnumerationOracle.known to log each enumeration's radius."""
    radii = []
    enumerate_known = BudgetedEnumerationOracle.known.func

    def recording(self):
        radii.append(self.radius)
        return enumerate_known(self)

    known = cached_property(recording)
    known.__set_name__(BudgetedEnumerationOracle, "known")
    monkeypatch.setattr(BudgetedEnumerationOracle, "known", known)
    return radii


class TestParse:
    def test_spec_examples_parse(self):
        for text in (
            "growth --group free:2 --max-radius 10",
            'relgrowth --group free:2 --subgroup "aa,bb" --max-radius 8',
            'ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 3 --tmax 3',
        ):
            spec = parse_spec(text)
            assert spec.group in ("free:2", "product(free:2,free:2)")

    @pytest.mark.parametrize(
        "text",
        [
            "growth --group free:2 --max-radius 3",
            'relgrowth --group free:2 --subgroup " aa ,bb " --max-radius 5',
            "distortion --group free:2 --subgroup cyclic:aa --max-radius 6",
            "delta --group free:2 --max-radius 2 --mode random --seed 9 --trials 55",
            "acyl --group free:2 --x 1 --y aaaaa --epsilon 1",
            'ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 3 --tmax 3',
            "rate --group free:2 --max-radius 10 --epsilon 7/2 --shift 1+2n --threshold 2",
        ],
    )
    def test_render_parse_round_trip(self, text):
        spec = parse_spec(text)
        rendered = spec.render()
        again = parse_spec(rendered)
        assert again == spec
        assert again.render() == rendered

    def test_canonicalizes_subspecs(self):
        spec = parse_spec('relgrowth --group free:2 --subgroup " aa ,  bb " --max-radius 4')
        assert spec.subgroup == "aa,bb"
        spec = parse_spec("rate --group free:1 --max-radius 5 --epsilon 1+0n --shift 0")
        assert spec.epsilon == "1"

    def test_connector_power_alias(self):
        a = parse_spec("ambiguity --group free:2 --g a --h b -n 3 --smax 2 --tmax 2")
        b = parse_spec(
            "ambiguity --group free:2 --g a --h b --connector-power 3 --smax 2 --tmax 2"
        )
        assert a == b

    def test_logical_render_drops_execution_knobs(self):
        spec = parse_spec("growth --group free:2 --max-radius 3 --workers 8 --out /tmp/x")
        logical = spec.render(logical=True)
        assert "--workers" not in logical and "--out" not in logical
        assert "--out /tmp/x" in spec.render()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("frobnicate --group free:2", "unknown subcommand"),
            ("growth --max-radius 3", "requires a --group"),
            ("growth --group free:x --max-radius 3", "rank"),
            ("growth --group free:2 --max-radius -1", "out of range"),
            ("growth --group free:2 --max-radius 3 --bogus 7", "unknown flag"),
            ("growth --group free:2 --max-radius", "needs a value"),
            ("growth --group free:2 --max-radius 3 --format xml", "csv or json"),
            ('growth --group "free:2 --max-radius 3', "unterminated"),
            ("growth --group free:2 --max-radius 3 --smax 2", "does not apply"),
            ("delta --group free:2 --max-radius 2 --mode sideways", "exhaustive or random"),
            ("acyl --group free:2 --x 1 --y b --epsilon nope", "integer"),
            ("rate --group free:2 --max-radius 4 --epsilon bogus%", "function spec"),
            ('relgrowth --group free:2 --subgroup "prod(a;b)" --max-radius 3', "needs 1 parts"),
            ('relgrowth --group free:2 --subgroup "prod()" --max-radius 3', "empty subgroup spec"),
            ("relgrowth --group free:2 --subgroup a,,b --max-radius 3", "empty generator"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert fragment in str(err.value)

    def test_error_position_points_at_token(self):
        with pytest.raises(ParseError) as err:
            parse_spec("growth --group free:2 --max-radius nine")
        assert err.value.line == 1
        assert err.value.column == 36


# One spec per command that sets every flag the command takes, with its
# canonical render and its logical render. The --out path holds a space,
# the one value that renders quoted.
GOLDEN_RENDERS = [
    (
        'growth --group free:2 --max-radius 4 --budget-elements 500 --format json --out "my dir"',
        'growth --group free:2 --max-radius 4 --budget-elements 500 --format json --out "my dir"',
        "growth --group free:2 --max-radius 4 --budget-elements 500 --format json",
    ),
    (
        'relgrowth --group free:2 --subgroup " aa , bb " --max-radius 5 --budget-elements 9000'
        ' --format json --out "my dir"',
        "relgrowth --group free:2 --subgroup aa,bb --max-radius 5 --budget-elements 9000"
        ' --format json --out "my dir"',
        "relgrowth --group free:2 --subgroup aa,bb --max-radius 5 --budget-elements 9000"
        " --format json",
    ),
    (
        "distortion --group free:2 --subgroup cyclic:aa --max-radius 6 --budget-elements 9000"
        ' --format json --out "my dir"',
        "distortion --group free:2 --subgroup cyclic:aa --max-radius 6 --budget-elements 9000"
        ' --format json --out "my dir"',
        "distortion --group free:2 --subgroup cyclic:aa --max-radius 6 --budget-elements 9000"
        " --format json",
    ),
    (
        "delta --group free:3 --max-radius 2 --mode exhaustive --budget-elements 70000"
        ' --format csv --out "my dir"',
        "delta --group free:3 --max-radius 2 --budget-elements 70000 --mode exhaustive"
        ' --format csv --out "my dir"',
        "delta --group free:3 --max-radius 2 --budget-elements 70000 --mode exhaustive --format csv",
    ),
    (
        "delta --group free:2 --max-radius 3 --mode random --trials 55 --seed 9"
        ' --budget-elements 1000 --format csv --out "my dir"',
        "delta --group free:2 --max-radius 3 --budget-elements 1000 --mode random --trials 55"
        ' --seed 9 --format csv --out "my dir"',
        "delta --group free:2 --max-radius 3 --budget-elements 1000 --mode random --trials 55"
        " --seed 9 --format csv",
    ),
    (
        "delta --group free:2 --max-radius 2 --trials 55 --seed 9",
        "delta --group free:2 --max-radius 2 --budget-elements 200000000 --mode exhaustive"
        " --format json",
        "delta --group free:2 --max-radius 2 --budget-elements 200000000 --mode exhaustive"
        " --format json",
    ),
    (
        "acyl --group free:2 --x ab --y aaaaa --epsilon 3 --budget-elements 4000"
        ' --format csv --out "my dir"',
        "acyl --group free:2 --x ab --y aaaaa --epsilon 3 --budget-elements 4000"
        ' --format csv --out "my dir"',
        "acyl --group free:2 --x ab --y aaaaa --epsilon 3 --budget-elements 4000 --format csv",
    ),
    (
        'ambiguity --group "product(free:2,free:2)" --subgroup diag --g "(a,a)" --h "(b,b)"'
        ' -n 3 --smax 2 --tmax 3 --budget-elements 100000 --format csv --out "my dir"',
        "ambiguity --group product(free:2,free:2) --subgroup diag --g (a,a) --h (b,b)"
        ' -n 3 --smax 2 --tmax 3 --budget-elements 100000 --format csv --out "my dir"',
        "ambiguity --group product(free:2,free:2) --subgroup diag --g (a,a) --h (b,b)"
        " -n 3 --smax 2 --tmax 3 --budget-elements 100000 --format csv",
    ),
    (
        'rate --group free:2 --subgroup "aa,bb" --max-radius 9 --epsilon 1+2n --shift 1'
        ' --threshold 2 --growth-bound 7/2 --format csv --out "my dir"',
        "rate --group free:2 --subgroup aa,bb --epsilon 1+2n --shift 1 --threshold 2"
        ' --growth-bound 7/2 --max-radius 9 --format csv --out "my dir"',
        "rate --group free:2 --subgroup aa,bb --epsilon 1+2n --shift 1 --threshold 2"
        " --growth-bound 7/2 --max-radius 9 --format csv",
    ),
    (
        "rate --group free:2 --max-radius 9",
        "rate --group free:2 --epsilon 1 --shift 0 --threshold 1 --max-radius 9"
        " --format json",
        "rate --group free:2 --epsilon 1 --shift 0 --threshold 1 --max-radius 9 --format json",
    ),
]

# The smallest valid spec of each command: every required flag, nothing else.
MINIMAL_SPECS = {
    "growth": "growth --group free:2 --max-radius 3",
    "relgrowth": "relgrowth --group free:2 --subgroup aa --max-radius 3",
    "distortion": "distortion --group free:2 --subgroup aa --max-radius 3",
    "delta": "delta --group free:2 --max-radius 2",
    "acyl": "acyl --group free:2 --x 1 --y b --epsilon 1",
    "ambiguity": "ambiguity --group free:2 --g a --h b --smax 2 --tmax 2",
    "rate": "rate --group free:2 --max-radius 4",
}


def rejection(text):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    return str(err.value)


class TestSpecLayer:
    @pytest.mark.parametrize("text,rendered,logical", GOLDEN_RENDERS)
    def test_golden_render(self, text, rendered, logical):
        spec = parse_spec(text)
        assert spec.render() == rendered
        assert spec.render(logical=True) == logical
        assert parse_spec(rendered) == spec

    @pytest.mark.parametrize(
        "out,rendered",
        [
            ('a "b c', '"a "\'"\'"b c"'),
            ("it's here", '"it\'s here"'),
            ('say "hi"', '"say "\'"\'"hi"\'"\''),
            ("x'y \"z\"\t", '"x\'y "\'"\'"z"\'"\'"\t"'),
            ('""', "'\"\"'"),
            ("", '""'),
            (" ", '" "'),
        ],
    )
    def test_out_with_quotes_round_trips(self, out, rendered):
        spec = replace(parse_spec("growth --group free:2 --max-radius 2"), out=out)
        assert spec.render().split(" --out ", 1)[1] == rendered
        assert parse_spec(spec.render()) == spec

    @pytest.mark.parametrize(
        "text,message",
        [
            ("growth --group free:2 --max-radius 3 --smax 2",
             "--smax does not apply to growth (line 1, column 38)"),
            ("relgrowth --group free:2 --subgroup aa --max-radius 3 --epsilon 2",
             "--epsilon does not apply to relgrowth (line 1, column 55)"),
            ("distortion --group free:2 --subgroup aa --max-radius 3 --mode random",
             "--mode does not apply to distortion (line 1, column 56)"),
            ("delta --group free:2 --max-radius 2 --subgroup aa",
             "--subgroup does not apply to delta (line 1, column 37)"),
            ("acyl --group free:2 --x 1 --y b --epsilon 1 --max-radius 3",
             "--max-radius does not apply to acyl (line 1, column 45)"),
            ("ambiguity --group free:2 --g a --h b --smax 2 --tmax 2 --max-radius 3",
             "--max-radius does not apply to ambiguity (line 1, column 56)"),
            ("rate --group free:2 --max-radius 4 --budget-elements 10",
             "--budget-elements does not apply to rate (line 1, column 36)"),
        ],
    )
    def test_flag_does_not_apply(self, text, message):
        assert rejection(text) == message

    @pytest.mark.parametrize("value", ["table:", "table:1,x"])
    def test_function_spec_error_has_one_position(self, value):
        # the value's own column, once, however deep the parser raised
        message = rejection(f"rate --group free:2 --max-radius 3 --epsilon {value}")
        assert message.endswith(" (line 1, column 46)")
        assert message.count("(line ") == 1

    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command, text in MINIMAL_SPECS.items()
            for flag in shlex.split(text)[1::2]
        ],
    )
    def test_missing_required_flag(self, command, flag):
        tokens = shlex.split(MINIMAL_SPECS[command])
        at = tokens.index(flag)
        text = " ".join(tokens[:at] + tokens[at + 2:])
        assert rejection(text) == f"{command} requires a {flag} value (line 1, column 1)"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("growth --group free:2 --max-radius 10001",
             "--max-radius out of range [0, 10000]: 10001 (line 1, column 36)"),
            ("growth --group free:2 --max-radius 3 --budget-elements 0",
             "--budget-elements out of range [1, 1000000000000]: 0 (line 1, column 56)"),
            ("ambiguity --group free:2 --g a --h b --smax 65 --tmax 2",
             "--smax out of range [0, 64]: 65 (line 1, column 45)"),
            ("ambiguity --group free:2 --g a --h b --smax 2 --tmax -1",
             "--tmax out of range [0, 64]: -1 (line 1, column 54)"),
            ("delta --group free:2 --max-radius 2 --mode random --trials 0",
             "--trials out of range [1, 100000000]: 0 (line 1, column 60)"),
            ("delta --group free:2 --max-radius 2 --mode random --seed -1",
             "--seed out of range [0, 4611686018427387904]: -1 (line 1, column 58)"),
            ("acyl --group free:2 --x 1 --y b --epsilon 65",
             "--epsilon out of range [0, 64]: 65 (line 1, column 43)"),
            ("rate --group free:2 --max-radius 4 --threshold 1000001",
             "--threshold out of range [0, 1000000]: 1000001 (line 1, column 48)"),
            ("growth --group free:2 --max-radius 3 --workers 257",
             "--workers out of range [1, 256]: 257 (line 1, column 48)"),
            ("growth --group free:2 --max-radius 3 --workers 0",
             "--workers out of range [1, 256]: 0 (line 1, column 48)"),
        ],
    )
    def test_integer_out_of_range(self, text, message):
        assert rejection(text) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("growth --group free:2 --max-radius 3 -n 3",
             "-n does not apply to growth (line 1, column 38)"),
            ("growth --group free:2 --max-radius 3 --connector-power 3",
             "--connector-power does not apply to growth (line 1, column 38)"),
            ("ambiguity --group free:2 --g a --h b -n 65 --smax 2 --tmax 2",
             "-n out of range [1, 64]: 65 (line 1, column 41)"),
            ("ambiguity --group free:2 --g a --h b --connector-power 0 --smax 2 --tmax 2",
             "--connector-power out of range [1, 64]: 0 (line 1, column 56)"),
            ("ambiguity --group free:2 --g a --h b --connector-power two --smax 2 --tmax 2",
             "--connector-power expects an integer, got 'two' (line 1, column 56)"),
        ],
    )
    def test_errors_name_the_spelling_typed(self, text, message):
        assert rejection(text) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("growth --group free:2 --max-radius 3 --group free:3",
             "duplicate flag --group, already given as --group (line 1, column 38)"),
            ("ambiguity --group free:2 --g a --h b -n 2 --connector-power 3 --smax 2 --tmax 2",
             "duplicate flag --connector-power, already given as -n (line 1, column 43)"),
            ("ambiguity --group free:2 --g a --h b --connector-power 3 -n 2 --smax 2 --tmax 2",
             "duplicate flag -n, already given as --connector-power (line 1, column 58)"),
            ("growth --group free:2 --max-radius 3 --out a --out b",
             "duplicate flag --out, already given as --out (line 1, column 46)"),
        ],
    )
    def test_repeated_flag_is_rejected(self, text, message):
        assert rejection(text) == message

    def test_repeated_flag_exits_64(self, capsys):
        assert main(["growth", "--group", "free:2", "--max-radius", "3", "--group", "free:3"]) == 64
        diag = json.loads(capsys.readouterr().err)
        assert (diag["error"], diag["column"]) == ("ParseError", 38)

    @pytest.mark.parametrize(
        "argv,column",
        [
            (["relgrowth", "--group", "free:2", "--subgroup", "cyclic:", "--max-radius", "3"], 37),
            (["acyl", "--group", "free:2", "--x", "", "--y", "b", "--epsilon", "1"], 25),
            (
                ["ambiguity", "--group", "product(free:2,free:2)", "--g", "(a,)", "--h", "(b,b)",
                 "-n", "2", "--smax", "3", "--tmax", "3"],
                48,
            ),
        ],
        ids=["cyclic", "acyl", "product"],
    )
    def test_empty_word_exits_64_at_its_value(self, capsys, argv, column):
        # the identity is written 1; an empty word is not read as it
        assert main(argv) == 64
        diag = json.loads(capsys.readouterr().err)
        assert (diag["error"], diag["column"]) == ("ParseError", column)
        assert "identity is written 1" in diag["message"]

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--growth-bound", "1/0", "zero denominator in '1/0'"),
            ("--growth-bound", "x", "Invalid literal for Fraction: 'x'"),
            ("--epsilon", "1/0", "bad function spec '1/0': zero denominator"),
            ("--epsilon", "1+-2n", "bad function spec '1+-2n': Invalid literal for Fraction: '1+-2n'"),
            ("--epsilon", "--2n", "bad function spec '--2n': Invalid literal for Fraction: '--2n'"),
            ("--shift", "table:1,2/0", "bad function spec 'table:1,2/0': zero denominator"),
        ],
    )
    def test_bad_fraction_exits_64_naming_value_and_reason(self, capsys, flag, value, message):
        assert main(shlex.split(f"rate --group free:2 --max-radius 4 {flag} {value}")) == 64
        diag = json.loads(capsys.readouterr().err)
        column = len(f"rate --group free:2 --max-radius 4 {flag} ") + 1
        assert (diag["error"], diag["column"]) == ("ParseError", column)
        assert diag["message"] == f"{message} (line 1, column {column})"

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=" \t\n'\"\r\\ab-", max_size=24))
    def test_tokenizer_matches_its_reference(self, text):
        assert tokenized(cli._tokenize, text) == tokenized(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("delta --group free:2 --max-radius 99999 --mode sideways",
             "--max-radius out of range [0, 10000]: 99999 (line 1, column 35)"),
            ("delta --group free:2 --mode sideways --max-radius 99999",
             "--max-radius out of range [0, 10000]: 99999 (line 1, column 51)"),
            ("delta --group free:2 --max-radius 2 --format xml --trials 0",
             "--trials out of range [1, 100000000]: 0 (line 1, column 59)"),
            ("rate --group free:2 --max-radius 4 --epsilon bogus% --threshold -1",
             "--threshold out of range [0, 1000000]: -1 (line 1, column 65)"),
            ("acyl --group free:2 --x 1 --y q --epsilon nope",
             "generator 'q' outside rank 2 in word 'q' (line 1, column 31)"),
        ],
    )
    def test_first_bad_value_in_check_order_is_reported(self, text, message):
        assert rejection(text) == message

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=" \t\n'\"\\a/", max_size=12))
    def test_any_out_survives_the_main_path(self, out):
        argv = ["growth", "--group", "free:2", "--max-radius", "1", "--out", out]
        assert parse_spec(shlex.join(argv)).out == out

    def test_workers_is_checked_then_dropped(self):
        spec = parse_spec("growth --group free:2 --max-radius 3 --workers 256")
        assert spec == parse_spec("growth --group free:2 --max-radius 3")
        assert not hasattr(spec, "workers")


# One instance of every error type, for the diagnostic test.
ERROR_INSTANCES = {
    errors.GrowthlabError: errors.GrowthlabError("base"),
    errors.ParseError: errors.ParseError("bad token", 2, 7),
    errors.GroupMismatchError: errors.GroupMismatchError("free:2 vs free:3"),
    errors.BudgetError: errors.BudgetError("spent"),
    errors.BallBudgetError: errors.BallBudgetError(3, 8, 100),
    errors.OracleBudgetError: errors.OracleBudgetError(5000, 2, 4),
    errors.SearchBudgetError: errors.SearchBudgetError("aab", 12),
    errors.TupleBudgetError: errors.TupleBudgetError(83521, 1000),
    errors.AmbiguityBudgetError: errors.AmbiguityBudgetError(
        900, 100,
        AmbiguityReport("free:2", "naive", 0, 9, 9, 3, (), Fraction(0), 1, (), complete=False),
    ),
    errors.DependenceError: errors.DependenceError("a and aa"),
    errors.HypothesisViolationError: errors.HypothesisViolationError("rate failed"),
    errors.InvariantViolationError: errors.InvariantViolationError("broken"),
    errors.UnsupportedConfigurationError: errors.UnsupportedConfigurationError("no"),
}


def reference_diagnostic(exc):
    """The diagnostic as a fixed list of error-field names builds it."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    for attr in (
        "line", "column", "radius_reached", "target_radius", "budget",
        "needed", "cap", "pairs_needed", "cells_kept", "element_text",
    ):
        value = getattr(exc, attr, None)
        if isinstance(value, (int, str)):
            doc[attr] = value
    return doc


class TestDiagnose:
    def test_every_error_type_is_covered(self):
        defined = {
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        }
        assert defined == set(ERROR_INSTANCES)

    @pytest.mark.parametrize("kind", list(ERROR_INSTANCES), ids=lambda kind: kind.__name__)
    def test_matches_reference(self, capsys, kind):
        exc = ERROR_INSTANCES[kind]
        _diagnose(exc)
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == reference_diagnostic(exc)

    @pytest.mark.parametrize("kind", [*ERROR_INSTANCES, ValueError], ids=lambda k: k.__name__)
    def test_each_error_type_exits_with_its_code(self, tmp_path, capsys, monkeypatch, kind):
        # the codes each type declares give the CLI's documented mapping
        exc = ERROR_INSTANCES.get(kind) or kind("plain")
        want = (
            64 if isinstance(exc, errors.ParseError)
            else 2 if isinstance(exc, errors.BudgetError)
            else 3 if isinstance(exc, (errors.HypothesisViolationError, InvariantViolationError))
            else 1
        )

        def fail(spec):
            raise exc

        monkeypatch.setattr(cli, "_execute", fail)
        spec = replace(parse_spec("growth --group free:2 --max-radius 1"), out=str(tmp_path))
        assert run(spec) == want
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == reference_diagnostic(exc)

    def test_parse_error_without_column(self, capsys):
        _diagnose(errors.ParseError("no position"))
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParseError", "message": "no position", "line": 1,
        }

    def test_foreign_exception_gives_error_and_message(self, capsys):
        _diagnose(ValueError("plain"))
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": "plain"}


class TestArtifacts:
    def test_growth_golden_rows(self, tmp_path):
        code, body = run_into(tmp_path, "growth --group free:2 --max-radius 3")
        assert code == 0
        assert data_rows(body) == ["radius,count", "0,1", "1,5", "2,17", "3,53"]
        assert body.startswith("# growthlab 0.1.0\n# spec: growth --group free:2")

    def test_relgrowth_cyclic_golden_rows(self, tmp_path):
        code, body = run_into(
            tmp_path, "relgrowth --group free:2 --subgroup cyclic:a --max-radius 3"
        )
        assert code == 0
        assert data_rows(body) == ["radius,count", "0,1", "1,3", "2,5", "3,7"]

    def test_distortion_even_powers(self, tmp_path):
        code, body = run_into(
            tmp_path, "distortion --group free:2 --subgroup aa --max-radius 6"
        )
        assert code == 0
        values = [int(row.split(",")[1]) for row in data_rows(body)[1:]]
        assert values == [n // 2 for n in range(7)]

    def test_distortion_has_no_depth_cap(self, tmp_path):
        # a^1000 takes 1,000 steps; the search is iterative and only its
        # budget bounds it
        code, body = run_into(
            tmp_path, "distortion --group free:1 --subgroup a --max-radius 1000"
        )
        assert code == 0
        values = [int(row.split(",")[1]) for row in data_rows(body)[1:]]
        assert values == list(range(1001))
        digest = hashlib.sha256((tmp_path / "distortion.csv").read_bytes()).hexdigest()
        assert digest == "ad6f7e73a94ac7c06371bb2894a4775ef7f95eb907bb58eb101e21d5a51aeaaa"

    def test_relgrowth_unknown_tally_comment(self, tmp_path):
        # generators whose fold conflicts on every factor force the budgeted
        # oracle, which cannot certify non-members; those land in unknown comments
        code, body = run_into(
            tmp_path,
            'relgrowth --group "product(free:2,free:2)" --subgroup "(a,1),(1,a)" --max-radius 3',
        )
        assert code == 0
        assert any(line.startswith("# unknown,") for line in body.splitlines())

    def test_diagonal_generators_relgrowth_is_the_diagonal(self, tmp_path):
        # the generator list folds exactly, so it leaves nothing unknown
        line = 'relgrowth --group "product(free:2,free:2)" --max-radius 6 --subgroup '
        _, listed = run_into(tmp_path / "list", line + '"(B,B),(a,a)"')
        _, diag = run_into(tmp_path / "diag", line + "diag")
        assert data_rows(listed) == data_rows(diag)
        assert not any(line.startswith("# unknown") for line in listed.splitlines())

    def test_growth_json_format(self, tmp_path):
        code, body = run_into(tmp_path, "growth --group free:2 --max-radius 3 --format json")
        doc = json.loads(body)
        assert doc["tool"] == "growthlab 0.1.0"
        assert doc["report"]["rows"] == [[0, 1], [1, 5], [2, 17], [3, 53]]
        assert "--workers" not in doc["spec"]

    def test_delta_report(self, tmp_path):
        code, body = run_into(tmp_path, "delta --group free:2 --max-radius 2")
        report = json.loads(body)["report"]
        assert code == 0
        assert report["delta"] == 0.0
        assert report["points"] == 17
        assert report["tuples_checked"] == 17**4

    def test_acyl_report(self, tmp_path):
        code, body = run_into(tmp_path, "acyl --group free:2 --x 1 --y aaaaa --epsilon 1")
        report = json.loads(body)["report"]
        assert code == 0
        assert report["count"] == 3
        assert report["witnesses"] == ["1", "a", "A"]

    def test_ambiguity_report(self, tmp_path):
        code, body = run_into(
            tmp_path,
            'ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 3 --tmax 3',
        )
        report = json.loads(body)["report"]
        assert code == 0
        assert report["connector"] == "kit((a,a),(b,b);n=2)"
        assert report["c"] == 4
        assert report["violations"] == []
        assert report["max_fiber_by_t"][0] == 1

    def test_rate_report_keys_and_trend(self, tmp_path):
        code, body = run_into(
            tmp_path, "rate --group free:1 --max-radius 20 --epsilon 1 --shift 0"
        )
        report = json.loads(body)["report"]
        # the strict hypothesis fails on linear growth: detected, exit 3,
        # artifact still written with the trend toward 1 visible
        assert code == 3
        for key in ("lower", "upper", "witness_s", "hypothesis_ok", "violations"):
            assert key in report
        assert report["hypothesis_ok"] is False
        assert report["violations"]
        roots = report["roots"]
        assert roots[20] < roots[5] and roots[20] < 1.25

    def test_rate_geometric_exact(self, tmp_path):
        code, body = run_into(
            tmp_path,
            "rate --group free:2 --subgroup cyclic:a --max-radius 12 --epsilon 1 --shift 0 --format csv",
        )
        # cyclic subgroup grows linearly; with epsilon 1 the check fails
        assert code == 3
        assert "# lower," in body and "# upper," in body

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GROWTHLAB_OUT", str(tmp_path))
        assert main(["growth", "--group", "free:2", "--max-radius", "2"]) == 0
        assert (tmp_path / "growth.csv").exists()

    def test_empty_out_beats_env_out_dir(self, tmp_path, monkeypatch):
        # a given --out wins over the environment; the empty path is the cwd
        env_dir, cwd = tmp_path / "env", tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.setenv("GROWTHLAB_OUT", str(env_dir))
        monkeypatch.chdir(cwd)
        assert main(["growth", "--group", "free:2", "--max-radius", "1", "--out", ""]) == 0
        assert (cwd / "growth.csv").exists()
        assert not env_dir.exists()


class TestExitCodes:
    def test_parse_error_is_64(self, capsys):
        assert main(["growth"]) == 64
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ParseError"

    def test_budget_exceeded_is_2(self, tmp_path, capsys):
        code = main(
            [
                "growth", "--group", "free:2", "--max-radius", "8",
                "--budget-elements", "100", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "BallBudgetError"
        assert diag["radius_reached"] == 3

    def test_word_search_budget_is_2(self, tmp_path, capsys):
        # B(4) of F2 holds 161 elements, so the ball fits the budget and a
        # member's word search is what runs out
        code = main(
            [
                "distortion", "--group", "free:2", "--subgroup", "ab,ba,aab",
                "--max-radius", "4", "--budget-elements", "1000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert not (tmp_path / "distortion.csv").exists()
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "SearchBudgetError"
        assert (diag["element_text"], diag["budget"]) == ("aBB", 1000)

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_out_naming_a_file_is_1(self, tmp_path, monkeypatch, capsys, via_env):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        argv = ["growth", "--group", "free:2", "--max-radius", "2"]
        if via_env:
            monkeypatch.setenv("GROWTHLAB_OUT", str(afile))
        else:
            argv += ["--out", str(afile)]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "FileExistsError"
        assert afile.read_text() == "kept\n"

    def test_ambiguity_pair_budget_comes_before_the_ball(self, tmp_path, capsys):
        # B(30) is far past the ball budget, but the pair budget stops the
        # grid at cell (4, 0), so only B(4) is enumerated
        code = main(
            [
                "ambiguity", "--group", "free:2", "--g", "a", "--h", "b",
                "--smax", "30", "--tmax", "1", "--budget-elements", "1000",
                "--out", str(tmp_path),
            ]
        )
        # a starved grid keeps its partial report on disk; a ball overrun
        # would have written nothing and said BallBudgetError
        assert code == 2
        err = capsys.readouterr().err
        assert "BallBudgetError" not in err
        report = json.loads((tmp_path / "ambiguity.json").read_text())["report"]
        assert report["complete"] is False
        assert len(report["cells"]) == 9
        # the diagnostic says which budget ran out and how far the grid got
        (line,) = err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "AmbiguityBudgetError"
        assert (diag["pairs_needed"], diag["budget"], diag["cells_kept"]) == (1422, 1000, 9)

    def test_starved_subgroup_grid_keeps_its_partial_grid(self, tmp_path, capsys):
        # an exact subgroup settles its pair budget from its sphere counts
        # too, so B(30) of F2 is never asked for
        code = main(
            [
                "ambiguity", "--group", "free:2", "--subgroup", "aa,bb", "--g", "aa",
                "--h", "bb", "--smax", "30", "--tmax", "1", "--budget-elements", "1000",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        report = json.loads((tmp_path / "ambiguity.json").read_text())["report"]
        assert report["complete"] is False
        assert report["domain"] == "aa,bb"
        # |B_H(s)| = 1, 1, 5, 5, 17, 17, 53, 53, 161, 161, 485: rows 0..9 take
        # 948 pairs, and (10, 0) would bring 1433
        assert len(report["cells"]) == 20
        assert report["cells"][-1][:2] == [9, 1]
        (line,) = capsys.readouterr().err.splitlines()
        diag = json.loads(line)
        assert diag["error"] == "AmbiguityBudgetError"
        assert (diag["pairs_needed"], diag["budget"], diag["cells_kept"]) == (1433, 1000, 20)

    def test_budgeted_oracle_cap_is_2(self, tmp_path, capsys):
        # the oracle is built once, when the run starts, before any ball
        code = main(
            [
                "relgrowth", "--group", "product(free:2,free:2)",
                "--subgroup", "(ab,a),(ba,b),(a,bb),(b,ab)", "--max-radius", "4",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "OracleBudgetError"
        assert diag["cap"] == 1_000_000
        assert diag["radius_reached"] < diag["target_radius"]

    def test_budgeted_oracle_cap_follows_budget(self, tmp_path, capsys):
        # the element budget lowers the cap, so the overrun stops at 5000
        # elements instead of 1,000,000
        code = main(
            [
                "relgrowth", "--group", "product(free:2,free:2)",
                "--subgroup", "(ab,a),(ba,b),(a,bb),(b,ab)", "--max-radius", "4",
                "--budget-elements", "5000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "OracleBudgetError"
        assert diag["cap"] == 5000
        assert diag["radius_reached"] < diag["target_radius"]

    def test_rate_without_a_witness_is_1(self, tmp_path, capsys):
        # threshold 0 admits the pair (0, 0), but a witness needs s >= 1
        out = tmp_path / "out"
        code = main(
            [
                "rate", "--group", "free:2", "--max-radius", "0", "--threshold", "0",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "no admissible witness: table covers radius 0, threshold 0",
        }

    @pytest.mark.parametrize("subgroup", ["(ab,a),(ba,b),(a,bb),(b,ab)", "(a,1),(1,a)"])
    def test_rate_refuses_budgeted_oracle_before_enumerating(
        self, tmp_path, capsys, monkeypatch, subgroup
    ):
        # rate only counts, so it never asks its budgeted oracle to enumerate
        radii = record_enumerations(monkeypatch)
        code = main(
            [
                "rate", "--group", "product(free:2,free:2)", "--subgroup", subgroup,
                "--max-radius", "4", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "UnsupportedConfigurationError",
            "message": "budgeted oracles have no exact counts; enumerate instead",
        }
        assert radii == []
        assert not (tmp_path / "rate.json").exists()

    def test_acyl_budget_is_2(self, tmp_path, capsys):
        # B(13) of F2 has 3,188,645 elements; the closed form refuses it
        code = main(
            [
                "acyl", "--group", "free:2", "--x", "ab", "--y", "b", "--epsilon", "13",
                "--budget-elements", "1000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "BallBudgetError"
        assert diag["budget"] == 1000
        assert diag["radius_reached"] == 5
        assert diag["target_radius"] == 13
        assert not (tmp_path / "acyl.json").exists()

    def test_delta_tuple_cap_is_2(self, tmp_path, capsys):
        code = main(
            [
                "delta", "--group", "free:2", "--max-radius", "3",
                "--budget-elements", "1000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "TupleBudgetError"

    def test_delta_ball_cap_is_the_default_budget(self, tmp_path, capsys):
        # --budget-elements caps only the exhaustive scan's quadruples, and
        # random mode reads no budget: the ball is capped at
        # cayley.DEFAULT_BUDGET whatever the flag says
        code = main(
            [
                "delta", "--group", "free:2", "--max-radius", "15", "--mode", "random",
                "--trials", "10", "--budget-elements", "100000000000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "BallBudgetError"
        assert (diag["budget"], diag["radius_reached"]) == (10_000_000, 14)
        assert not list(tmp_path.iterdir())

    def test_delta_tuple_cap_comes_before_the_ball(self, tmp_path, capsys, monkeypatch):
        # |B(9)| = 39,365 is a closed form; its metric alone would take 12.4 GB
        built = []
        monkeypatch.setattr(cli, "enumerate_ball", lambda *a, **k: built.append("ball"))
        monkeypatch.setattr(cli, "WordSample", lambda *a: built.append("sample"))
        start = time.perf_counter()
        code = main(["delta", "--group", "free:2", "--max-radius", "9", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "TupleBudgetError"
        assert (diag["needed"], diag["cap"]) == (39365**4, 200_000_000)
        assert built == []
        assert not (tmp_path / "delta.json").exists()

    @pytest.mark.parametrize(
        "line,points",
        [
            ("delta --group free:2 --max-radius 7 --mode random --trials 1000", 4373),
            ("delta --group free:2 --max-radius 3", 53),
        ],
        ids=["random", "exhaustive"],
    )
    def test_delta_builds_no_metric(self, tmp_path, monkeypatch, line, points):
        # both modes read distances off the ball's words: exhaustive mode
        # all n^2 of them once, random mode six per trial and no more
        reads = []
        pair_dist2 = WordSample.pair_dist2

        def recorded(self, i, j):
            got = pair_dist2(self, i, j)
            reads.append(got.size)
            return got

        monkeypatch.setattr(WordSample, "pair_dist2", recorded)
        assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "delta.json").read_text())["report"]
        assert (report["points"], report["delta"], report["witness"]) == (points, 0.0, ["1"] * 4)
        assert reads == ([1000] * 6 if report["mode"] == "random" else [points**2])

    def test_hypothesis_violation_is_3(self, tmp_path, capsys):
        code = main(
            [
                "rate", "--group", "free:1", "--max-radius", "10",
                "--epsilon", "1", "--shift", "0", "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert (tmp_path / "rate.json").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "growth --group free:2 --max-radius 4",
            "acyl --group free:2 --x a --y b --epsilon 4",
            "delta --group free:2 --max-radius 3",
            "delta --group free:2 --max-radius 3 --mode random --trials 100",
            "ambiguity --group free:2 --g a --h b --smax 3 --tmax 3",
        ],
    )
    def test_corrupted_whole_group_enumeration_is_3(self, tmp_path, capsys, monkeypatch, line):
        # one word dropped from sphere 3 of each factor tree: every command
        # that reads a whole-group ball stops at the closed-form check
        free_spheres = subgroups.free_spheres

        def drop_one(rank, radius):
            spheres = list(free_spheres(rank, radius))
            spheres[3] = spheres[3][1:]
            return iter(spheres)

        monkeypatch.setattr(subgroups, "free_spheres", drop_one)
        with pytest.raises(InvariantViolationError, match=r"\|B\(3\)\| .* closed form 53"):
            enumerate_ball(free_group(2), 4)
        assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 3
        (diag_line,) = capsys.readouterr().err.splitlines()
        assert json.loads(diag_line)["error"] == "InvariantViolationError"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "group,subgroup,radius,drop,code",
        [
            ("free:2", "aab,bAb", 6, "closed path", 3),
            ("product(free:2,free:2)", "diag", 4, "closed path", 3),
            ("free:2", "cyclic:ab", 6, "power", 3),
            ("product(free:2,free:2)", "prod(aa,b;ab)", 4, "power", 3),
            # no exact counts, so nothing to check them against
            ("product(free:2,free:2)", "(a,b),(b,a)", 5, None, 0),
            ("product(free:2,free:2)", "(a,1),(1,a)", 3, None, 0),
        ],
        ids=["stallings", "diag", "cyclic", "prod", "labelled", "budgeted"],
    )
    def test_corrupted_subgroup_enumeration_is_3(
        self, tmp_path, capsys, monkeypatch, group, subgroup, radius, drop, code
    ):
        # one member dropped from an exact oracle's generator: a closed path
        # of the folded graph, or a power of the cyclic generator (in prod,
        # of its second factor); relgrowth stops at the oracle's own counts
        def drop_first_member(by_length):
            n = next(n for n in range(1, len(by_length)) if by_length[n])
            by_length[n] = by_length[n][1:]

        closed_words = subgroups.StallingsOracle._closed_words
        power_spheres = subgroups.CyclicOracle.relative_spheres

        def without_a_closed_path(self, top):
            words = closed_words(self, top)
            drop_first_member(words)
            return words

        def without_a_power(self, radius):
            spheres, unknown = power_spheres(self, radius)
            drop_first_member(spheres)
            return spheres, unknown

        if drop == "closed path":
            monkeypatch.setattr(subgroups.StallingsOracle, "_closed_words", without_a_closed_path)
        if drop == "power":
            monkeypatch.setattr(subgroups.CyclicOracle, "relative_spheres", without_a_power)
        line = [
            "relgrowth", "--group", group, "--subgroup", subgroup,
            "--max-radius", str(radius), "--out", str(tmp_path),
        ]
        assert main(line) == code
        if code == 0:
            assert (tmp_path / "relgrowth.csv").exists()
            return
        (diag_line,) = capsys.readouterr().err.splitlines()
        diagnostic = json.loads(diag_line)
        assert diagnostic["error"] == "InvariantViolationError"
        assert "differs from the closed form" in diagnostic["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "group,subgroup", [("free:2", "aab,bAb"), ("product(free:2,free:2)", "diag")]
    )
    def test_relgrowth_builds_no_ball(self, tmp_path, capsys, monkeypatch, group, subgroup):
        # relgrowth reads checked sphere sizes (cayley.relative_counts), so
        # a dropped closed path still exits 3 though no Ball can be built
        def refuse(*args, **kwargs):
            raise AssertionError("relgrowth built a Ball")

        monkeypatch.setattr(cayley, "Ball", refuse)
        line = [
            "relgrowth", "--group", group, "--subgroup", subgroup,
            "--max-radius", "6", "--out", str(tmp_path / "good"),
        ]
        assert main(line) == 0
        assert (tmp_path / "good" / "relgrowth.csv").exists()
        closed_words = subgroups.StallingsOracle._closed_words

        def without_a_closed_path(self, top):
            words = closed_words(self, top)
            n = next(n for n in range(1, len(words)) if words[n])
            words[n] = words[n][1:]
            return words

        monkeypatch.setattr(subgroups.StallingsOracle, "_closed_words", without_a_closed_path)
        line[-1] = str(tmp_path / "bad")
        assert main(line) == 3
        (diag_line,) = capsys.readouterr().err.splitlines()
        assert json.loads(diag_line)["error"] == "InvariantViolationError"
        assert not (tmp_path / "bad").exists()

    def test_rate_with_a_huge_epsilon_is_fast(self, tmp_path):
        # with epsilon 10^50 the floor takes roots of fractions whose
        # denominators are far past a float guess's 53 bits
        start = time.perf_counter()
        code = main(
            ["rate", "--group", "free:2", "--max-radius", "4", "--epsilon", "1" + "0" * 50,
             "--out", str(tmp_path)]
        )
        assert time.perf_counter() - start < 2
        assert code == 0

    def test_long_free_growth_table_is_linear_time(self, tmp_path):
        # at r = 10,000 the whole-group check must stay linear in the radius
        start = time.perf_counter()
        code = main(["growth", "--group", "free:1", "--max-radius", "10000", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1
        assert code == 0

    def test_long_free_growth_table_stays_small(self, tmp_path):
        # growth keeps only sphere sizes: building every word of B(10,000)
        # peaked at 128 MB. A fresh wrapper runs the command and reports its
        # RUSAGE_CHILDREN peak (kilobytes on Linux), so only that child
        # counts: a process started from this one, even its own RUSAGE_SELF
        # after exec, reports at least this process's peak, which is pytest's
        script = (
            "import resource, subprocess, sys\n"
            "code = subprocess.call([sys.executable, '-m', 'growthlab', *sys.argv[1:]])\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        argv = ["growth", "--group", "free:1", "--max-radius", "10000", "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(growthlab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        code, peak_kb = map(int, done.stdout.split()[-2:])
        assert code == 0
        assert peak_kb < 40 * 1024

    @pytest.mark.parametrize(
        "line",
        [
            "rate --group free:2 --max-radius 0",
            "rate --group free:2 --max-radius 5 --epsilon 1/2",
            "rate --group free:2 --max-radius 5 --shift 1/2",
            "rate --group free:2 --max-radius 5 --epsilon table:1,2",
            "rate --group free:2 --max-radius 5 --growth-bound 0",
            "ambiguity --group free:2 --g 1 --h a --smax 1 --tmax 1",
        ],
    )
    def test_value_error_is_1(self, tmp_path, capsys, line):
        assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (diag_line,) = err.splitlines()
        assert json.loads(diag_line)["error"] == "ValueError"

    def test_bare_negative_slope_reads_and_fails_its_check(self, tmp_path, capsys):
        # "-2n" reads as 0-2n, so the run gets past parsing to the
        # hypothesis' own refusal of an epsilon below 1
        argv = shlex.split("rate --group free:2 --max-radius 6 --epsilon -2n")
        assert main(argv + ["--out", str(tmp_path)]) == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag == {"error": "ValueError", "message": "epsilon(1) = -2 < 1"}

    def test_success_is_0(self, tmp_path):
        assert main(["growth", "--group", "free:2", "--max-radius", "2", "--out", str(tmp_path)]) == 0


def test_one_writer_renders_every_format():
    # _execute computes; only _artifact reads --format and renders bytes
    tree = ast.parse(Path(cli.__file__).read_text())
    execute = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_execute"
    )
    attributes = {node.attr for node in ast.walk(execute) if isinstance(node, ast.Attribute)}
    called = {
        node.func.id
        for node in ast.walk(execute)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "format" not in attributes
    assert called.isdisjoint({"_artifact", "_csv_bytes", "_json_bytes"})
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # a whole-group ball comes only from WholeGroupOracle, which checks it
    # against the closed forms, never from the bare sphere generators
    assert imported.isdisjoint({"GrowthTable", "free_spheres", "product_spheres"})


def test_budgeted_oracle_is_built_once_per_run(tmp_path, monkeypatch):
    # parse_spec builds an oracle too, to canonicalize the spec, but only
    # the run's oracle is asked, so it alone enumerates
    enumerations = record_enumerations(monkeypatch)
    code = main(
        [
            "relgrowth", "--group", "product(free:2,free:2)",
            "--subgroup", "(a,1),(1,a)", "--max-radius", "2", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert enumerations == [8]


def test_library_and_cli_distortion_agree(tmp_path):
    # both give the generators' oracle the default enumeration radius, not
    # the table's radius: (a,1) is the product of 3 generators, so a radius
    # of 2 would leave it unknown
    group = product_group(2, 2)
    gens = [parse_element(group, g) for g in ("(ab,1)", "(B,a)", "(1,a)")]
    table = distortion(group, gens, 2)
    code = main(
        [
            "distortion", "--group", "product(free:2,free:2)", "--subgroup", "(ab,1),(B,a),(1,a)",
            "--max-radius", "2", "--format", "json", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "distortion.json").read_text())["report"]
    assert [value for _, value in report["rows"]] == list(table.values) == [0, 3, 6]
    assert report["unknown"] == list(table.unknown) == [0, 2, 20]


class TestDeterminism:
    def test_growth_bytes_stable_across_runs_and_workers(self, tmp_path):
        bodies = []
        for sub, workers in (("one", 1), ("again", 1), ("four", 4)):
            out = tmp_path / sub
            code = main(
                [
                    "growth", "--group", "free:2", "--max-radius", "6",
                    "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            bodies.append((out / "growth.csv").read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]

    def test_ambiguity_csv_stable_across_workers(self, tmp_path):
        bodies = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            code = main(
                [
                    "ambiguity", "--group", "free:2", "--g", "a", "--h", "b",
                    "-n", "2", "--smax", "3", "--tmax", "3",
                    "--format", "csv", "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            bodies.append((out / "ambiguity.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_relgrowth_stable_across_workers(self, tmp_path):
        bodies = []
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            code = main(
                [
                    "relgrowth", "--group", "free:2", "--subgroup", "aa,bb",
                    "--max-radius", "6", "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            bodies.append((out / "relgrowth.csv").read_bytes())
        assert bodies[0] == bodies[1]


def test_readme_quick_tour_imports_are_exported():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    module = ast.parse(tour)
    names = [
        alias.name
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.module == "growthlab"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if name not in growthlab.__all__] == []
    # run the tour, keeping the value of each bare expression line in order
    shown = []
    for i, node in enumerate(module.body):
        if isinstance(node, ast.Expr):
            module.body[i] = ast.Expr(ast.Call(ast.Name("show", ast.Load()), [node.value], []))
    scope = {"show": shown.append}
    exec(compile(ast.fix_missing_locations(module), "README.md", "exec"), scope)
    counts, _, distortion_values, delta, (envelope, max_fiber), interval = shown
    assert len(scope["ball"].packed) == 1_062_881
    assert counts == (1, 5, 17, 53)
    assert distortion_values[:6] == (0, 0, 1, 1, 2, 2)
    assert delta == 0.0
    assert (envelope, max_fiber) == (7, 7)
    assert (round(interval[0], 2), round(interval[1], 2)) == (2.69, 3.18)
    assert interval == (scope["est"].certified_lower, scope["est"].empirical_upper)
    assert interval[0] <= 3 <= interval[1]


# SHA-256 of the artifact of each README command line. A refactor that
# changes a single byte of any of them fails here.
README_ARTIFACTS = [
    ("growth --group free:2 --max-radius 10", "growth.csv",
     "663d59e45b27be2cb3d000b6119bbb022e1193b35d427fdc750c0a85c1c2e762"),
    ('relgrowth --group free:2 --subgroup "aa,bb" --max-radius 8', "relgrowth.csv",
     "b840ad9d0fe2ed6e03221a3e6ed39a999052987df86d0f3f8b7f3889cef151c0"),
    ("relgrowth --group free:2 --subgroup cyclic:a --max-radius 3", "relgrowth.csv",
     "bbe8e13b27f36d7067f69bc5644a82e19b1356811672996d01ae3fb03f45932f"),
    ("distortion --group free:2 --subgroup aa --max-radius 12", "distortion.csv",
     "c595620224e7a92622d767b78ed91a2e5c838f2f9fa9829b3ba0eedb04a85581"),
    ("delta --group free:2 --max-radius 3", "delta.json",
     "2c00bb25ecba923419b7160847352ae1371571ae770b9211f3c9a09242b9b437"),
    ("delta --group free:2 --max-radius 4 --mode random --trials 20000 --seed 7", "delta.json",
     "34a72e5bde961d210ee47a8a1382865bcab00b28b418039682d79e9204374170"),
    ("acyl --group free:2 --x 1 --y aaaaa --epsilon 1", "acyl.json",
     "d3724c217cb068041b883deccf453c634d1e3fbcf6517ac33e9bd5013085ea14"),
    ('ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 3 --tmax 3',
     "ambiguity.json",
     "2e3c6784b896418e35b75f976b01e017184c06e79fca96faca9036be73120b3a"),
    ("rate --group free:2 --max-radius 14 --epsilon 4 --shift 0", "rate.json",
     "df0481dc1ba650ee42658ce2141e7c526d0b3d1c1c02c2f162e435bfb0e43e2c"),
]


@pytest.mark.parametrize("line,name,digest", README_ARTIFACTS)
def test_readme_artifact_digest(tmp_path, line, name, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 and exit code of each README command's artifact in its other
# format, then of a starved grid's partial CSV and of a budgeted oracle's
# unknown tallies in both formats.
OTHER_FORMAT_ARTIFACTS = [
    ("growth --group free:2 --max-radius 10 --format json", 0, "growth.json",
     "cbd6d07a662c13b49492ac63257de26e82e5cf99d3e6ba8591eedc7e819a733b"),
    ('relgrowth --group free:2 --subgroup "aa,bb" --max-radius 8 --format json', 0,
     "relgrowth.json", "d9f8028d39e9a2197ffb3cf6c94bf0b174eeacfe91f2059e22a4d8f21ce9d6c8"),
    ("relgrowth --group free:2 --subgroup cyclic:a --max-radius 3 --format json", 0,
     "relgrowth.json", "c6e2ee75122600613020e2e9e773133f1569a79d2710a6ca792e169c9478a8fc"),
    ("distortion --group free:2 --subgroup aa --max-radius 12 --format json", 0,
     "distortion.json", "89cd9934e95121d12b539e8ed4ec0f35f9cc6a34d252f5f2c2f6d9b0892458b6"),
    ("delta --group free:2 --max-radius 3 --format csv", 0, "delta.csv",
     "57c937b2c2f250bd31537282cadf7e5256bdbc64251bd47b01e403c3327c4790"),
    ("delta --group free:2 --max-radius 4 --mode random --trials 20000 --seed 7 --format csv", 0,
     "delta.csv", "5b2a4351368df39eb0feab2e5cf12864c7247f9116a4f7b2af02a787e8726254"),
    ("acyl --group free:2 --x 1 --y aaaaa --epsilon 1 --format csv", 0, "acyl.csv",
     "246739f7d2af4e384010f5682fbf6a59f036c04d620ad07babc61ec1cf743c6a"),
    ('ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 3 --tmax 3'
     " --format csv", 0, "ambiguity.csv",
     "abf6fc50151bacaaba33e99576fd0c62906d6defbb7992b8cf74e7fbe7787fef"),
    ("rate --group free:2 --max-radius 14 --epsilon 4 --shift 0 --format csv", 0, "rate.csv",
     "3bee2d7e37a56d5976197d34d8cd4e2470f4c6ef88cbb13183eeae928de7fa1d"),
    ("ambiguity --group free:2 --g a --h b -n 2 --smax 3 --tmax 3 --budget-elements 50"
     " --format csv", 2, "ambiguity.csv",
     "d908a19ae0b5725474e2c6bb8b28b20d1c81f1a6b41b5c15282bc2ef3fabef30"),
    ('relgrowth --group "product(free:2,free:2)" --subgroup "(a,1),(1,a)" --max-radius 3', 0,
     "relgrowth.csv", "c78a0944ad6f7e5ff725c3534ed0186df5bb280e1bc34efe3c0642e493d46cb9"),
    ('relgrowth --group "product(free:2,free:2)" --subgroup "(a,1),(1,a)" --max-radius 3'
     " --format json", 0, "relgrowth.json",
     "35814331bca2c66aef481a65a62d630823a93c3cc9724360ad2ed23f823f0506"),
]


@pytest.mark.parametrize("line,code,name,digest", OTHER_FORMAT_ARTIFACTS)
def test_other_format_artifact_digest(tmp_path, line, code, name, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == code
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of random-mode delta artifacts over products, in both formats. A
# free group's ball is a tree, so its delta and witness read 0 and 1,1,1,1
# whatever indices are drawn; these read positive deltas, so they pin the
# drawn index stream itself.
RANDOM_DELTA_ARTIFACTS = [
    ('delta --group "product(free:2,free:2)" --max-radius 3 --mode random --trials 20000'
     " --seed 7", "delta.json",
     "765c6f682d3453e1df8b0d80903980b4b5869437e95a18f8d6b10dfe9d6ab2e4"),
    ('delta --group "product(free:2,free:2)" --max-radius 3 --mode random --trials 20000'
     " --seed 7 --format csv", "delta.csv",
     "f2992149498073c942882374eb320a6469534afc0b5b98d1bfd0f1d94b3eed33"),
    ('delta --group "product(free:1,free:2)" --max-radius 4 --mode random --trials 777'
     " --seed 12", "delta.json",
     "90ba24a3065f0476b014cbc2a55acd39c7ae69f432a58d631c4093d994563f3e"),
    ('delta --group "product(free:1,free:2)" --max-radius 4 --mode random --trials 777'
     " --seed 12 --format csv", "delta.csv",
     "b6479eed731bdc211649d21402b0c0ca01f9da8f7c60c1def449f21981c44f2c"),
]


@pytest.mark.parametrize("line,name,digest", RANDOM_DELTA_ARTIFACTS)
def test_random_delta_artifact_digest(tmp_path, line, name, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 of exhaustive delta artifacts over products, in both formats.
# Their delta is 2 and their witnesses are not 1,1,1,1, so these pin the
# scan's witness order: (a,a),(a,A),(A,a),(A,A) on 49 points, and
# (1,a),(1,A),(aa,a),(aa,A) on 99.
EXHAUSTIVE_DELTA_ARTIFACTS = [
    ('delta --group "product(free:2,free:2)" --max-radius 2', "delta.json",
     "d2fe1712359ba077f1a2c0296b65cf43f27501fa048e52b1eb1bebdb81e3731e"),
    ('delta --group "product(free:2,free:2)" --max-radius 2 --format csv', "delta.csv",
     "307821b07b09063b148bbd1c30dc1fb96fc74eae44d9f90d21be0c9e58f9f5c9"),
    ('delta --group "product(free:1,free:2)" --max-radius 3', "delta.json",
     "55561efd06ee46c7a8fa24002784484247c435f4b3a5cf56427c70f1d2d050b1"),
    ('delta --group "product(free:1,free:2)" --max-radius 3 --format csv', "delta.csv",
     "eb5b969520e5bb30d255fa894d70562d4f13c1441b6711c74c41c9aa4c3ba74c"),
]


@pytest.mark.parametrize("line,name,digest", EXHAUSTIVE_DELTA_ARTIFACTS)
def test_exhaustive_delta_artifact_digest(tmp_path, line, name, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# SHA-256 and exit code of more rate artifacts: combine violations, bound
# violations under an affine epsilon and shift, a table epsilon, and a
# subgroup table with fractional epsilon and growth bound, and three tables
# long enough that their counts run to thousands of bits, the last failing
# on nearly all of its 4.5 million pairs.
RATE_ARTIFACTS = [
    ("rate --group free:2 --max-radius 30 --epsilon 1", 3,
     "8edd006d502f81a124a6729251288e8a2728e17c352457802d8058bd4528b204"),
    ("rate --group free:2 --max-radius 30 --epsilon 1+1/2n --shift 2 --threshold 3"
     " --growth-bound 3", 3,
     "aa40cf9c641d940986a528cb95b41da8f2e52ab126e26565f944e13240be9801"),
    ("rate --group free:2 --max-radius 12"
     " --epsilon table:1,3/2,2,5/2,3,7/2,4,9/2,5,11/2,6,13/2,7", 3,
     "6004a4ada4eb98deae8d439c180d5e981bd483ddb58ac8cf4a8951ba8909a8ee"),
    ('rate --group "product(free:2,free:2)" --subgroup diag --max-radius 40'
     " --epsilon 7/3 --growth-bound 5/2", 0,
     "c120bb5171bdeb2aabe94fc149504538179f2a8390bb32c6ca2496a3beb2e5c4"),
    ("rate --group free:2 --subgroup aab,bAb --max-radius 60 --epsilon 4 --shift 2", 0,
     "f7f470094c66061cf89425674b4d3c2a5b05ff48cc143170256c58769667b6d8"),
    ("rate --group free:2 --subgroup cyclic:ab --max-radius 7", 3,
     "117932f33dc01e968f989af22d34e5c6e0e40f817e1b33469b4ca871590518d3"),
    ('rate --group "product(free:2,free:2)" --subgroup "prod(aa,b;ab)" --max-radius 20'
     " --epsilon 4", 0,
     "a6269e67b2c8759c7dd8c8ab8c93c9ad216fd86891e8db150eb96e8122083cc9"),
    ("rate --group free:2 --max-radius 2000 --epsilon 4", 0,
     "ba3b0dd7827cdbeda07f510bc646f21f86491a4e6a134702be9f2f6ee6407125"),
    ("rate --group free:2 --subgroup aab,bAb --max-radius 500 --epsilon 4", 0,
     "ea78e237bcad36bf02c61c5ad275899242ade5f80a4a7136590c9be236cf57d1"),
    ('rate --group "product(free:2,free:2)" --max-radius 3000 --epsilon 4', 3,
     "ea7159ccc3d7208a13c920a737f907d1b535c69467658b820b928445b1c27606"),
]


@pytest.mark.parametrize("line,code,digest", RATE_ARTIFACTS)
def test_rate_artifact_digest(tmp_path, line, code, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == code
    assert hashlib.sha256((tmp_path / "rate.json").read_bytes()).hexdigest() == digest


def test_diagonal_generators_give_the_pinned_diagonal_rate(tmp_path):
    # (a,a),(b,b) folds to the diagonal, so only the spec tells the reports apart
    line, code, digest = next(a for a in RATE_ARTIFACTS if "--subgroup diag" in a[0])
    listed = line.replace("--subgroup diag", '--subgroup "(a,a),(b,b)"')
    assert main(shlex.split(listed) + ["--out", str(tmp_path)]) == code
    body = (tmp_path / "rate.json").read_text()
    body = body.replace("--subgroup (a,a),(b,b)", "--subgroup diag")
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_one_generator_list_rates_as_its_cyclic_spelling(tmp_path):
    # both spellings take the cyclic oracle, so only the spec tells the reports apart
    bodies = []
    for subgroup in ("(ab,B)", "cyclic:(ab,B)"):
        line = f'rate --group "product(free:2,free:2)" --subgroup "{subgroup}" --max-radius 12'
        assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 3
        bodies.append((tmp_path / "rate.json").read_text())
    assert bodies[0] == bodies[1].replace("--subgroup cyclic:(ab,B)", "--subgroup (ab,B)")


# SHA-256 and exit code of more ambiguity artifacts: the balls workload's
# 5x5 grid, a diagonal-subgroup domain, a starved grid's partial report, and
# a kit so long that its image codes pass 64 bits.
AMBIGUITY_ARTIFACTS = [
    ("ambiguity --group free:2 --g a --h b -n 2 --smax 5 --tmax 5", 0,
     "76a08356e7adfe07e8af6243b66bf46ba1b62124004c4372a0714109db811e53"),
    ('ambiguity --group "product(free:2,free:2)" --subgroup diag --g "(a,a)" --h "(b,b)"'
     " -n 1 --smax 3 --tmax 3", 0,
     "40746a91af6bc8807c1d50e53fcfd9ac2cd77d10a7270a20b095c3ffbddcb3e6"),
    ("ambiguity --group free:2 --g a --h b -n 2 --smax 3 --tmax 3 --budget-elements 50", 2,
     "4f4be71e279a33c989dc5b327c5c4b26f5ba8d7e04afa8e15dc1fd7d259ad7ae"),
    ("ambiguity --group free:2 --g aaaaaaaaaaaa --h b -n 2 --smax 2 --tmax 2", 0,
     "8c7c5b094c348698bf9b7070f7854f7df0c015817416c20afc7948faa85a672c"),
]


@pytest.mark.parametrize("line,code,digest", AMBIGUITY_ARTIFACTS)
def test_ambiguity_artifact_digest(tmp_path, line, code, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == code
    assert hashlib.sha256((tmp_path / "ambiguity.json").read_bytes()).hexdigest() == digest


# SHA-256 and witness count of acyl artifacts whose balls hold thousands
# to 354,293 words: the benchmark's balls (epsilon 8) and grids (epsilon 9)
# shapes, the CI memory guard's epsilon 11, and a basepoint pair on one axis.
ACYL_ARTIFACTS = [
    ("acyl --group free:2 --x abA --y aabb --epsilon 8", 187,
     "0945286c1eb1a29d3619a91c845d40ea1f53bd12710a38cb2e7c595a569bee73"),
    ("acyl --group free:2 --x abA --y aabb --epsilon 9", 565,
     "9c613fc0d5e12742d9d2fb2798819477413d113f07d3af2a9b40e38772774a72"),
    ("acyl --group free:2 --x abA --y aabb --epsilon 11", 5101,
     "7a779401b49d22738cd50e06b6b3996acaa9a61a38b2dd91e0c74590ec7bd25c"),
    ("acyl --group free:2 --x 1 --y aaaaa --epsilon 10", 1705,
     "24f45b430900ce081333035a5c5059ee19a3259d43f04ac06c26ecdcadd43c8d"),
]


@pytest.mark.parametrize("line,count,digest", ACYL_ARTIFACTS)
def test_acyl_artifact_digest(tmp_path, line, count, digest):
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 0
    body = (tmp_path / "acyl.json").read_bytes()
    assert json.loads(body)["report"]["count"] == count
    assert hashlib.sha256(body).hexdigest() == digest


def test_product_grid_past_its_envelope_exits_3(tmp_path, capsys):
    # the envelope is fitted on t <= 3; cell (5,4) has max fiber 12 at
    # (aaaaa,aaaaa), above 1 + (8/3)*4, and the default budget admits the
    # grid's 4,999,862 pairs
    line = (
        'ambiguity --group "product(free:2,free:2)" --g "(a,a)" --h "(b,b)" -n 2 --smax 5 --tmax 4'
    )
    assert main(shlex.split(line) + ["--out", str(tmp_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "HypothesisViolationError"
    body = (tmp_path / "ambiguity.json").read_bytes()
    assert hashlib.sha256(body).hexdigest() == (
        "7a7e2876d3f6a92e60fb7acfae15061d9bcce27cd828e2aa0228348f71a8596f"
    )
    report = json.loads(body)["report"]
    assert (report["fit_t"], report["intercept"], report["slope"]) == (3, 1, "8/3")
    assert report["violations"] == [[5, 4]]
    assert [5, 4, 13, 2803465, 12, "(aaaaa,aaaaa)"] in report["cells"]
    assert main(shlex.split(line) + ["--format", "csv", "--out", str(tmp_path)]) == 3
    assert (tmp_path / "ambiguity.csv").read_text().endswith("# violation,5,4\n")


def test_python_dash_m_runs_readme_command(tmp_path):
    line, name, digest = next(a for a in README_ARTIFACTS if a[1] == "acyl.json")
    env = dict(os.environ, PYTHONPATH=str(Path(growthlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "growthlab", *shlex.split(line), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_bench_span_recorder_finds_every_name_it_wraps():
    # bench/spans.py wraps package functions by name from outside, so a
    # renamed function or a deleted stand-in (hyperbolic.FiniteMetric,
    # _parallel.parallel_map) fails here, not only in a traced bench run
    paths = [Path(__file__).parents[1] / "bench", Path(growthlab.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
