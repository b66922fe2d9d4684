"""Experiment spec parsing, artifact generation, exit codes."""

import hashlib
import json
import shlex
from dataclasses import replace

import pytest

from growthlab.cli import ExperimentSpec, main, parse_spec, run
from growthlab.errors import ParseError
from growthlab.subgroups import BudgetedEnumerationOracle


def run_into(tmp_path, text):
    spec = replace(parse_spec(text), out=str(tmp_path))
    code = run(spec)
    path = tmp_path / f"{spec.command}.{spec.format}"
    return code, path.read_text() if path.exists() else None


def data_rows(body):
    return [line for line in body.splitlines() if line and not line.startswith("#")]


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
        assert "--workers 8" in spec.render()

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

    def test_relgrowth_unknown_tally_comment(self, tmp_path):
        # generators across factors force the budgeted oracle, which
        # cannot certify non-members; those land in unknown comments
        code, body = run_into(
            tmp_path,
            'relgrowth --group "product(free:1,free:1)" --subgroup "(a,a)" --max-radius 3',
        )
        assert code == 0
        assert any(line.startswith("# unknown,") for line in body.splitlines())

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

    def test_delta_tuple_cap_is_2(self, tmp_path, capsys):
        code = main(
            [
                "delta", "--group", "free:2", "--max-radius", "3",
                "--budget-elements", "1000", "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "TupleBudgetError"

    def test_hypothesis_violation_is_3(self, tmp_path, capsys):
        code = main(
            [
                "rate", "--group", "free:1", "--max-radius", "10",
                "--epsilon", "1", "--shift", "0", "--out", str(tmp_path),
            ]
        )
        assert code == 3
        assert (tmp_path / "rate.json").exists()

    def test_success_is_0(self, tmp_path):
        assert main(["growth", "--group", "free:2", "--max-radius", "2", "--out", str(tmp_path)]) == 0


def test_budgeted_oracle_is_built_once_per_run(tmp_path, monkeypatch):
    # radius 0 enumerates nothing, so only radius > 0 counts as a build
    builds = []
    init = BudgetedEnumerationOracle.__init__

    def counting_init(self, group, generators, radius=8, element_cap=1_000_000):
        if radius > 0:
            builds.append(radius)
        init(self, group, generators, radius, element_cap)

    monkeypatch.setattr(BudgetedEnumerationOracle, "__init__", counting_init)
    code = main(
        [
            "relgrowth", "--group", "product(free:2,free:2)",
            "--subgroup", "(a,a),(b,b)", "--max-radius", "2", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert len(builds) == 1


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
