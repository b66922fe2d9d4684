"""Cross-checks of experiment artifacts against independent answers.

Each check reads one artifact the CLI wrote and compares it with an answer
computed another way: closed-form counts and counting DPs for enumerations,
enumeration for the counting DPs, floor(n/|w|) for cyclic distortion, the
inverse-map `fiber_size` for ambiguity argmaxes, word distances for delta
and acylindricity witnesses. `Checker.check` returns None when the artifact
passes, else a one-line reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from growthlab.cayley import enumerate_ball, relative_ball
from growthlab.concat import build_connector_kit, fiber_size
from growthlab.counting import ball_counts, relative_ball_counts
from growthlab.subgroups import diagonal_oracle, parse_subgroup
from growthlab.words import distance, parse_element, parse_group

ARTIFACT_FORMAT = {
    "growth": "csv",
    "relgrowth": "csv",
    "distortion": "csv",
    "rate": "csv",
    "delta": "json",
    "acyl": "json",
    "ambiguity": "json",
}


def read_csv(text: str) -> tuple[list[list[str]], list[list[str]]]:
    """Data rows (header dropped) and comment rows of a CLI CSV artifact."""
    rows, comments = [], []
    for line in text.splitlines():
        if line.startswith("# "):
            comments.append(line[2:].split(","))
        elif line:
            rows.append(line.split(","))
    return rows[1:], comments


def unknown_by_radius(comments: list[list[str]], radius: int) -> list[int]:
    """Cumulative unknown tallies; the CLI writes only the nonzero ones."""
    out = [0] * (radius + 1)
    for c in comments:
        if c[0] == "unknown":
            out[int(c[1])] = int(c[2])
    return out


def artifact_path(exp: dict, out_dir: Path) -> Path:
    return out_dir / f"{exp['kind']}.{ARTIFACT_FORMAT[exp['kind']]}"


class Checker:
    """Caches the balls that many checks of one run share."""

    def __init__(self):
        self._balls: dict = {}

    def ball(self, group_spec: str, radius: int):
        key = (group_spec, radius)
        if key not in self._balls:
            self._balls[key] = enumerate_ball(parse_group(group_spec), radius)
        return self._balls[key]

    def check(self, exp: dict, code: int, diagnostic: str, out_dir: Path) -> str | None:
        if code != exp["expect"]:
            return f"exit {code}, expected {exp['expect']}: {diagnostic.strip()[:200]}"
        chk = exp["check"]
        path = artifact_path(exp, out_dir)
        if exp["expect"] == 2 and not chk.get("partial"):
            # a starved ambiguity grid exits 2 with its partial grid instead
            try:
                doc = json.loads(diagnostic.strip().splitlines()[-1])
            except (IndexError, ValueError):
                return "budget overrun without a JSON diagnostic"
            if "Budget" not in doc.get("error", ""):
                return f"exit 2 with diagnostic {doc.get('error')!r}"
            return None
        if not path.is_file():
            return f"no artifact {path.name}"
        text = path.read_text()
        return getattr(self, "_" + chk["type"])(chk, text)

    # one method per check type -------------------------------------------

    def _ball(self, chk, text):
        rows, _ = read_csv(text)
        got = [int(r[1]) for r in rows]
        want = ball_counts(parse_group(chk["group"]), chk["radius"])
        return None if got == want else f"ball counts {got} != closed form {want}"

    def _relball(self, chk, text):
        rows, comments = read_csv(text)
        got = [int(r[1]) for r in rows]
        group = parse_group(chk["group"])
        want = relative_ball_counts(parse_subgroup(group, chk["subgroup"]), chk["radius"])
        if any(unknown_by_radius(comments, chk["radius"])):
            return "exact oracle reported unknown elements"
        return None if got == want else f"relative counts {got} != counting DP {want}"

    def _sandwich(self, chk, text):
        # the budgeted generators (x,x),(y,y) span the diagonal, which diag decides exactly
        rows, comments = read_csv(text)
        kept = [int(r[1]) for r in rows]
        unknown = unknown_by_radius(comments, chk["radius"])
        exact = relative_ball_counts(diagonal_oracle(parse_group(chk["group"])), chk["radius"])
        for n, (k, e, u) in enumerate(zip(kept, exact, unknown)):
            if not k <= e <= k + u:
                return f"radius {n}: kept {k}, unknown {u} do not bracket exact {e}"
        return None if len(kept) == len(exact) else "wrong number of radii"

    def _cyclic_distortion(self, chk, text):
        rows, comments = read_csv(text)
        got = [int(r[1]) for r in rows]
        want = [n // chk["core"] for n in range(len(got))]
        if any(c[0] == "unknown" for c in comments):
            return "cyclic oracle reported unknown elements"
        return None if got == want else f"distortion {got} != floor(n/|w|) {want}"

    def _rate(self, chk, text):
        rows, comments = read_csv(text)
        if ["hypothesis_ok", "True"] not in comments:
            return "rate hypothesis not certified"
        group = parse_group(chk["group"])
        radius = chk["enum_radius"]
        if chk["subgroup"] is None:
            enumerated = self.ball(chk["group"], radius).counts_by_radius
        else:
            oracle = parse_subgroup(group, chk["subgroup"])
            ambient = self.ball(chk["group"], radius)
            enumerated = relative_ball(group, oracle, radius, ambient=ambient).counts_by_radius
        got = tuple(int(r[1]) for r in rows[: radius + 1])
        return None if got == enumerated else f"rate counts {got} != enumerated {enumerated}"

    def _delta(self, chk, text):
        report = json.loads(text)["report"]
        group = parse_group(chk["group"])
        points = ball_counts(group, chk["radius"])[-1]
        if report["points"] != points:
            return f"{report['points']} points, ball has {points}"
        o, x, y, z = (parse_element(group, label) for label in report["witness"])

        def g4(i, j):  # 4 (i.j)_o from word distances
            return 2 * (distance(i, o) + distance(j, o) - distance(i, j))

        defect = min(g4(x, z), g4(z, y)) - g4(x, y)
        if defect != 4 * report["delta"]:
            return f"witness defect {defect / 4} != reported delta {report['delta']}"
        if group.num_factors == 1 and report["delta"] != 0:
            return f"free-group ball has delta {report['delta']}, trees have 0"
        if chk["mode"] == "exhaustive" and report["tuples_checked"] != points**4:
            return f"{report['tuples_checked']} quadruples checked, expected {points**4}"
        return None

    def _ambiguity(self, chk, text):
        doc = json.loads(text)["report"]
        group = parse_group(chk["group"])
        kit = build_connector_kit(
            group, parse_element(group, chk["g"]), parse_element(group, chk["h"]), n=chk["n"]
        )
        if doc["complete"] == bool(chk.get("partial")):
            return f"complete={doc['complete']} for a {'starved' if chk.get('partial') else 'full'} grid"
        if doc["violations"]:
            return f"envelope violations {doc['violations']}"
        ambient = self.ball(chk["group"], max(doc["s_max"], doc["t_max"]))
        counts = ambient.counts_by_radius
        for s, t, _, pairs, max_fiber, argmax in doc["cells"]:
            if pairs != counts[s] * counts[t]:
                return f"cell ({s},{t}) has {pairs} pairs, expected {counts[s] * counts[t]}"
            target = parse_element(group, argmax)
            inverse = fiber_size(kit, group, s, t, target, ambient=ambient)
            if inverse != max_fiber:
                return f"cell ({s},{t}) max fiber {max_fiber}, fiber_size gives {inverse}"
        return None

    def _acyl(self, chk, text):
        doc = json.loads(text)["report"]
        group = parse_group(chk["group"])
        x, y = parse_element(group, chk["x"]), parse_element(group, chk["y"])
        eps = chk["epsilon"]
        witnesses = [parse_element(group, w) for w in doc["witnesses"]]
        if doc["count"] != len(witnesses):
            return f"count {doc['count']} but {len(witnesses)} witnesses listed"
        keys = [w.sort_key() for w in witnesses]
        if keys != sorted(set(keys)):
            return "witnesses not distinct and shortlex sorted"
        for g in witnesses:
            if distance(x, g * x) > eps or distance(y, g * y) > eps:
                return f"witness {g.render()} moves a basepoint more than {eps}"
        return None
