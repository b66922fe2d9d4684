"""Seeded experiment plans for the three benchmark workloads.

A plan is a list of experiments. Each experiment holds the argv handed to
`growthlab.cli.main` (without `--out`), the exit code the README's table
promises for it, the cross-check its artifact must pass, and its work
counts (ball elements, oracle queries, grid pairs, quadruples, distortion
members) computed from closed forms.

The seed only relabels: letters go through a seeded signed permutation of
the generators (a length-preserving automorphism) and seeded words have
fixed lengths. So one seed always gives the same specs, and every seed
gives the same work counts; `selftest` checks both.
"""

from __future__ import annotations

import random
from collections import Counter

F2 = "free:2"
F3 = "free:3"
F2xF2 = "product(free:2,free:2)"
BIG_BUDGET = "3000000000"


def ranks_of(group: str) -> tuple[int, ...]:
    if group.startswith("product("):
        return tuple(int(p.split(":")[1]) for p in group[len("product(") : -1].split(","))
    return (int(group.split(":")[1]),)


def ball_size(group: str, radius: int) -> int:
    """|B(radius)| of a product of free groups, by convolving sphere sizes."""
    spheres = [1] + [0] * radius
    for k in ranks_of(group):
        factor = [1] + [2 * k * (2 * k - 1) ** (n - 1) for n in range(1, radius + 1)]
        spheres = [
            sum(spheres[i] * factor[n - i] for i in range(n + 1)) for n in range(radius + 1)
        ]
    return sum(spheres)


class Relabel:
    """A seeded signed permutation of the letters of each free factor."""

    def __init__(self, rng: random.Random, ranks: tuple[int, ...]):
        self.maps = []
        for k in ranks:
            letters = "abcdefghijklmnopqrstuvwxyz"[:k]
            image = rng.sample(letters, k)
            table = {}
            for src, dst in zip(letters, image):
                if rng.random() < 0.5:
                    dst = dst.upper()
                table[src] = dst
                table[src.upper()] = dst.swapcase()
            self.maps.append(table)

    def word(self, text: str, factor: int = 0) -> str:
        if text == "1":
            return text
        return "".join(self.maps[factor][ch] for ch in text)

    def element(self, parts: tuple[str, ...]) -> str:
        if len(parts) == 1:
            return self.word(parts[0])
        return "(" + ",".join(self.word(p, i) for i, p in enumerate(parts)) + ")"


def random_word(rng: random.Random, rank: int, length: int, cyclic: bool = False) -> str:
    """Uniform reduced (optionally cyclically reduced) word of exact length."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
    alphabet = letters + letters.upper()
    while True:
        out: list[str] = []
        while len(out) < length:
            ch = rng.choice(alphabet)
            if out and ch == out[-1].swapcase():
                continue
            out.append(ch)
        if not cyclic or length < 2 or out[0] != out[-1].swapcase():
            return "".join(out) or "1"


def _exp(argv, kind, check, work=None, expect=0):
    return {
        "argv": [str(a) for a in argv],
        "kind": kind,
        "expect": expect,
        "check": check,
        "work": work or {},
    }


def growth(group, r, workers, budget=None):
    argv = ["growth", "--group", group, "--max-radius", r, "--workers", workers]
    if budget is not None:
        argv += ["--budget-elements", budget]
        return _exp(argv, "growth", {"type": "budget"}, expect=2)
    n = ball_size(group, r)
    return _exp(argv, "growth", {"type": "ball", "group": group, "radius": r}, {"elements": n})


def relgrowth(group, subgroup, r, workers, check, budget=None):
    argv = ["relgrowth", "--group", group, "--subgroup", subgroup, "--max-radius", r]
    argv += ["--workers", workers]
    if budget is not None:
        argv += ["--budget-elements", budget]
        return _exp(argv, "relgrowth", {"type": "budget"}, expect=2)
    n = ball_size(group, r)
    check = dict(check, group=group, subgroup=subgroup, radius=r)
    return _exp(argv, "relgrowth", check, {"elements": n, "queries": n})


def cyclic_distortion(group, word_parts, r, workers, budget=None):
    length = sum(len(p) for p in word_parts)
    element = word_parts[0] if len(word_parts) == 1 else "(" + ",".join(word_parts) + ")"
    argv = ["distortion", "--group", group, "--subgroup", f"cyclic:{element}"]
    argv += ["--max-radius", r, "--workers", workers]
    if budget is not None:
        argv += ["--budget-elements", budget]
        return _exp(argv, "distortion", {"type": "budget"}, expect=2)
    n = ball_size(group, r)
    work = {"elements": n, "queries": n, "members": 1 + 2 * (r // length)}
    return _exp(argv, "distortion", {"type": "cyclic_distortion", "core": length}, work)


def rate(group, subgroup, r, workers, enum_radius):
    argv = ["rate", "--group", group]
    if subgroup is not None:
        argv += ["--subgroup", subgroup]
    argv += ["--max-radius", r, "--epsilon", "4", "--format", "csv", "--workers", workers]
    check = {
        "type": "rate",
        "group": group,
        "subgroup": subgroup,
        "enum_radius": min(r, enum_radius),
    }
    return _exp(argv, "rate", check)


def delta(group, r, workers, mode="exhaustive", trials=None, seed=None, budget=BIG_BUDGET):
    argv = ["delta", "--group", group, "--max-radius", r, "--budget-elements", budget]
    n = ball_size(group, r)
    if mode == "random":
        argv += ["--mode", "random", "--trials", trials, "--seed", seed]
        quads = trials
    else:
        quads = n**4
        if quads > int(budget):
            argv += ["--workers", workers]
            return _exp(argv, "delta", {"type": "budget"}, expect=2)
    argv += ["--workers", workers]
    check = {"type": "delta", "group": group, "radius": r, "mode": mode}
    return _exp(argv, "delta", check, {"elements": n, "quadruples": quads})


def ambiguity(group, g, h, s, t, workers, budget=None):
    argv = ["ambiguity", "--group", group, "--g", g, "--h", h, "-n", 2]
    argv += ["--smax", s, "--tmax", t, "--workers", workers]
    check = {"type": "ambiguity", "group": group, "g": g, "h": h, "n": 2}
    pairs = sum(ball_size(group, i) * ball_size(group, j) for i in range(s + 1) for j in range(t + 1))
    if budget is not None:
        argv += ["--budget-elements", budget]
        return _exp(argv, "ambiguity", dict(check, partial=True), expect=2)
    return _exp(argv, "ambiguity", check, {"elements": ball_size(group, max(s, t)), "pairs": pairs})


def acyl(group, x, y, eps, workers):
    argv = ["acyl", "--group", group, "--x", x, "--y", y, "--epsilon", eps, "--workers", workers]
    check = {"type": "acyl", "group": group, "x": x, "y": y, "epsilon": eps}
    return _exp(argv, "acyl", check, {"elements": ball_size(group, eps)})


def _kit(rng: random.Random) -> tuple[str, str]:
    """Kit letters of F2 from different letter classes, in seeded roles."""
    lab = Relabel(rng, (2,))
    return lab.word("a"), lab.word("b")


def _diag_generators(rng: random.Random) -> str:
    """Generators (x,x),(y,y) of the diagonal of F2 x F2, seeded letters."""
    x, y = _kit(rng)
    return f"({x},{x}),({y},{y})"


def _basepoints(rng: random.Random, rank: int, x: str, y: str) -> tuple[str, str]:
    """A seeded relabelling of fixed basepoints, so the witness count is fixed."""
    lab = Relabel(rng, (rank,))
    return lab.word(x or "1"), lab.word(y)


def _stallings(rng: random.Random, base=("aab", "bAb")) -> str:
    """A seeded relabelling of a fixed two-generator subgroup of F2."""
    lab = Relabel(rng, (2,))
    words = [lab.word(w) for w in base]
    words = [w if rng.random() < 0.5 else w[::-1].swapcase() for w in words]
    rng.shuffle(words)
    return ",".join(words)


def balls(seed: int) -> list[dict]:
    rng = random.Random(f"balls:{seed}")
    w = 1
    sub = _stallings(rng)
    g, h = _kit(rng)
    x, y = _basepoints(rng, 2, "abA", "aabb")
    short = [
        rate(F2, sub, 500, w, enum_radius=9),
        ambiguity(F2, g, h, 5, 5, w),
        delta(F2, 3, w),
        delta(F2, 4, w, mode="random", trials=60000, seed=rng.randrange(10**6)),
        acyl(F2, x, y, 8, w),
    ]
    enumerations = [
        growth(F2, 11, w),
        relgrowth(F2, sub, 11, w, {"type": "relball"}),
    ]
    filters = [
        relgrowth(F2xF2, "diag", 7, w, {"type": "relball"}),
        relgrowth(F2xF2, _diag_generators(rng), 6, w, {"type": "sandwich"}),
        cyclic_distortion(F2, (random_word(rng, 2, 2, cyclic=True),), 9, w),
    ]
    # the sub-second experiments run at the start and at the end of a pass, so
    # their medians come from twice as many samples
    return short + enumerations + filters + short


def grids(seed: int) -> list[dict]:
    rng = random.Random(f"grids:{seed}")
    w = 2
    # the companions of the other commands run without the pool, where their
    # times do not hang on two processes starting and meeting
    g, h = _kit(rng)
    lab = Relabel(rng, (2, 2))
    pg, ph = lab.element(("a", "a")), lab.element(("b", "b"))
    sub = _stallings(rng)
    x, y = _basepoints(rng, 2, "abA", "aabb")
    short = [
        rate(F2, sub, 500, 1, enum_radius=9),
        acyl(F2, x, y, 9, 1),
        growth(F2, 10, 1),
        relgrowth(F2, sub, 10, 1, {"type": "relball"}),
        relgrowth(F2xF2, _diag_generators(rng), 4, 1, {"type": "sandwich"}),
        cyclic_distortion(F2, (random_word(rng, 2, 2, cyclic=True),), 8, 1),
    ]
    ambiguities = [ambiguity(F2, g, h, 5, 5, w), ambiguity(F2xF2, pg, ph, 3, 3, w)]
    deltas = [
        delta(F2, 4, w),
        delta(F2xF2, 3, w),
        delta(F2, 5, w, mode="random", trials=10000, seed=rng.randrange(10**6)),
    ]
    # the sub-second experiments run at the start and at the end of a pass
    return short + ambiguities + deltas + short


def sweep(seed: int) -> list[dict]:
    """Many tiny experiments of all seven commands, mostly at radius 2-7.

    The mix is fixed: per command, a fixed list of (group, radius) shapes
    repeated a fixed number of times, with one budget-starved experiment
    per command kind that has a budget, in every tenth slot. Rates use
    counting tables to radius 20-110, where a rate bracket means something
    and the command's time is not only per-call overhead.
    """
    rng = random.Random(f"sweep:{seed}")
    w = 1
    out: list[dict] = []
    for i in range(150):
        if i % 10 == 9:
            out.append(growth(F2, 6, w, budget=100))
        elif i % 3:
            out.append(growth(F2, 2 + i % 6, w))
        else:
            out.append(growth(F3, 2 + i % 5, w))
    for i in range(150):
        starved = i % 10 == 9
        r = 2 + i % 6
        if starved:
            out.append(relgrowth(F2, _stallings(rng), 6, w, {}, budget=100))
        elif i % 25 == 7:
            out.append(relgrowth(F2xF2, _diag_generators(rng), 2, w, {"type": "sandwich"}))
        elif i % 5 == 0:
            out.append(relgrowth(F2xF2, "diag", min(r, 4), w, {"type": "relball"}))
        elif i % 5 == 1:
            word = random_word(rng, 2, 2, cyclic=True)
            out.append(relgrowth(F2, f"cyclic:{word}", r, w, {"type": "relball"}))
        elif i % 5 == 2:
            lab = Relabel(rng, (2, 2))
            sub = f"prod({lab.word('aa', 0)},{lab.word('b', 0)};{lab.word('ab', 1)})"
            out.append(relgrowth(F2xF2, sub, min(r, 4), w, {"type": "relball"}))
        else:
            out.append(relgrowth(F2, _stallings(rng), r, w, {"type": "relball"}))
    for i in range(150):
        r = 2 + i % 6
        if i % 10 == 9:
            parts = (random_word(rng, 2, 2, cyclic=True),)
            out.append(cyclic_distortion(F2, parts, 6, w, budget=100))
        elif i % 4 == 3:
            parts = (random_word(rng, 2, 1, cyclic=True), random_word(rng, 2, 2, cyclic=True))
            out.append(cyclic_distortion(F2xF2, parts, min(r, 4), w))
        else:
            parts = (random_word(rng, 2, 1 + i % 3, cyclic=True),)
            out.append(cyclic_distortion(F2, parts, r, w))
    for i in range(100):
        r = 2 + i % 6
        if i % 4 == 0:
            out.append(rate(F2, None, 10 * r, w, enum_radius=7))
        elif i % 4 == 1:
            out.append(rate(F2, _stallings(rng), 40 + 10 * r, w, enum_radius=7))
        elif i % 4 == 2:
            out.append(rate(F2xF2, "diag", 10 * r, w, enum_radius=4))
        else:
            word = random_word(rng, 2, 2, cyclic=True)
            out.append(rate(F2, f"cyclic:{word}", r, w, enum_radius=7))
    for i in range(150):
        starved = i % 10 == 9
        if starved:
            out.append(delta(F2, 3, w, budget="1000"))
        elif i % 3 == 0:
            out.append(delta(F2, 2, w))
        elif i % 3 == 1:
            out.append(delta(F2 if i % 2 else F3, 2, w, mode="random", trials=500, seed=rng.randrange(10**6)))
        else:
            out.append(delta(F2xF2, 1 + i % 2, w))
    for i in range(150):
        if i % 3:
            x, y = _basepoints(rng, 2, "bab"[: i % 4], "abAbaBab"[: 2 + i % 5])
            out.append(acyl(F2, x, y, 2 + i % 4, w))
        else:
            x, y = _basepoints(rng, 3, "cab"[: i % 4], "acBcaCa"[: 2 + i % 5])
            out.append(acyl(F3, x, y, 2 + i % 2, w))
    for i in range(150):
        starved = i % 10 == 9
        if i % 4 == 3:
            lab = Relabel(rng, (2, 2))
            g, h = lab.element(("a", "a")), lab.element(("b", "b"))
            out.append(ambiguity(F2xF2, g, h, 2, 1 + i % 2, w, budget=50 if starved else None))
        else:
            g, h = _kit(rng)
            out.append(ambiguity(F2, g, h, 2 + i % 2, 2 + (i // 2) % 2, w, budget=50 if starved else None))
    # one interleaving for every seed, so each slot costs the same on every seed
    random.Random("sweep-order").shuffle(out)
    return out


WORKLOADS = {"balls": balls, "grids": grids, "sweep": sweep}


def work_totals(plan: list[dict]) -> dict[str, int]:
    totals: Counter = Counter()
    for exp in plan:
        totals.update(exp["work"])
    return dict(sorted(totals.items()))


def _shape(plan: list[dict]) -> Counter:
    return Counter((e["kind"], e["expect"], tuple(sorted(e["work"].items()))) for e in plan)


def selftest(name: str, seed: int) -> list[str]:
    """Problems with the generator: empty when the plan is seed-stable."""
    make = WORKLOADS[name]
    plan = make(seed)
    problems = []
    if make(seed) != plan:
        problems.append(f"{name}: seed {seed} does not reproduce its specs")
    other = make(seed + 1)
    if _shape(other) != _shape(plan):
        problems.append(f"{name}: seeds {seed} and {seed + 1} differ in work counts")
    if [e["argv"] for e in other] == [e["argv"] for e in plan]:
        problems.append(f"{name}: seeds {seed} and {seed + 1} give identical specs")
    return problems
