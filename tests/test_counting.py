"""Closed-form and transfer-matrix ball counts against raw enumeration."""

import ast
import random
from collections import defaultdict
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import cli, concat, counting, subgroups
from growthlab.cayley import enumerate_ball, relative_ball
from growthlab.counting import (
    ball_counts,
    convolve_spheres,
    free_ball_counts,
    free_sphere_counts,
    relative_ball_counts,
)
from growthlab.errors import UnsupportedConfigurationError
from growthlab.subgroups import (
    BudgetedEnumerationOracle,
    CyclicOracle,
    ProductOracle,
    StallingsOracle,
    WholeGroupOracle,
    diagonal_oracle,
    oracle_for_generators,
    parse_subgroup,
    power_lengths,
)
from growthlab.words import (
    SEP,
    Element,
    free_group,
    inverse_byte,
    parse_element,
    product_group,
    reduce_letter_bytes,
)

F2 = free_group(2)
F3 = free_group(3)
F2xF2 = product_group(2, 2)
F2xF1 = product_group(2, 1)


def el(text, group=F2):
    return parse_element(group, text)


def cyclic_counts(generator, n_max):
    return relative_ball_counts(CyclicOracle(generator.group, generator), n_max)


# Reference counters: the former per-class counting module, kept verbatim
# (bar names) to check each oracle's sphere_counts against, except that the
# folded graph's counts spread over the factors that copy the folded one,
# which replaced the pullback rule.


def reference_stallings_ball_counts(graph, n_max):
    counts = [1]
    states = {(0, 0): 1}
    for _ in range(n_max):
        new = defaultdict(int)
        for (v, last), c in states.items():
            for b, w in graph.transitions[v].items():
                if last and b == inverse_byte(last):
                    continue
                new[(w, b)] += c
        states = dict(new)
        at_base = sum(c for (v, _), c in states.items() if v == 0)
        counts.append(counts[-1] + at_base)
    return counts


def reference_cyclic_ball_counts(generator, n_max):
    tails, core = power_lengths(generator)
    if core == 0:
        return [1] * (n_max + 1)
    return [1 + 2 * max(0, (n - tails) // core) for n in range(n_max + 1)]


def reference_relative_ball_counts(oracle, n_max):
    if isinstance(oracle, StallingsOracle):
        if oracle.graph.labels:
            raise UnsupportedConfigurationError(
                "no exact counting formula for a labelled folded graph; enumerate instead"
            )
        # the folded factor and its copies each hold the path's word
        m = oracle.spread
        base = reference_stallings_ball_counts(oracle.graph, n_max // m)
        return [base[n // m] for n in range(n_max + 1)]
    if isinstance(oracle, CyclicOracle):
        return reference_cyclic_ball_counts(oracle.generator, n_max)
    if isinstance(oracle, ProductOracle):
        factor_spheres = []
        for sub in oracle.factor_oracles:
            balls = reference_relative_ball_counts(sub, n_max)
            factor_spheres.append([b - a for a, b in zip([0] + balls, balls)])
        return list(accumulate(convolve_spheres(factor_spheres, n_max)))
    if isinstance(oracle, BudgetedEnumerationOracle):
        raise UnsupportedConfigurationError(
            "budgeted oracles have no exact counts; enumerate instead"
        )
    raise UnsupportedConfigurationError(f"no counting rule for {type(oracle).__name__}")


def reduced_words(rank, max_size=5):
    return st.lists(st.integers(1, 2 * rank), max_size=max_size).map(reduce_letter_bytes)


def elements(group, max_size=5):
    parts = [reduced_words(rank, max_size) for rank in group.ranks]
    return st.tuples(*parts).map(lambda ws: Element(group, SEP.join(ws)))


@st.composite
def stallings_oracles(draw, group):
    """Generators inside one factor of the group (all of it when free)."""
    factor = draw(st.integers(0, group.num_factors - 1))
    words = draw(st.lists(reduced_words(group.ranks[factor]), max_size=4))
    blank = [b""] * group.num_factors
    gens = [Element(group, SEP.join(blank[:factor] + [w] + blank[factor + 1 :])) for w in words]
    return StallingsOracle(group, gens)


def free_oracles(rank):
    group = free_group(rank)
    return stallings_oracles(group) | elements(group).map(lambda g: CyclicOracle(group, g))


@st.composite
def countable_oracles(draw):
    """Every oracle shape with exact counts, and a radius up to 150."""
    kind = draw(st.sampled_from(["stallings", "cyclic", "prod", "diag", "copies"]))
    if kind == "stallings":
        group = draw(
            st.sampled_from([free_group(1), F2, F3, F2xF2, product_group(1, 2)])
        )
        oracle = draw(stallings_oracles(group))
    elif kind == "cyclic":
        group = draw(st.sampled_from([F2, F2xF2]))
        oracle = CyclicOracle(group, draw(elements(group)))
    elif kind == "prod":
        group = draw(st.sampled_from([F2xF2, product_group(1, 2), product_group(1, 1, 1)]))
        oracle = ProductOracle(group, [draw(free_oracles(rank)) for rank in group.ranks])
    elif kind == "diag":
        oracle = diagonal_oracle(draw(st.sampled_from([F2xF2, product_group(1, 1, 1)])))
    else:
        # generators whose every factor copies the first: the diagonal over a subgroup
        group = draw(st.sampled_from([F2xF2, product_group(1, 1, 1)]))
        words = draw(st.lists(reduced_words(group.ranks[0]), max_size=4))
        gens = [Element(group, SEP.join([w] * group.num_factors)) for w in words]
        oracle = StallingsOracle(group, gens)
    return oracle, draw(st.integers(0, 150))


class TestClosedForms:
    def test_free_spheres(self):
        assert free_sphere_counts(2, 4) == [1, 4, 12, 36, 108]
        assert free_sphere_counts(1, 4) == [1, 2, 2, 2, 2]

    def test_free_balls(self):
        assert free_ball_counts(2, 5) == [1, 5, 17, 53, 161, 485]
        # 2k(2k-1)^(n-1) spheres sum to the doubling-minus-one closed form
        assert free_ball_counts(2, 10)[10] == 2 * 3**10 - 1

    def test_rank_one_is_odd_numbers(self):
        assert free_ball_counts(1, 6) == [1, 3, 5, 7, 9, 11, 13]

    def test_product_counts_match_enumeration(self):
        for group, radius in [(F2xF2, 5), (F2xF1, 5)]:
            ball = enumerate_ball(group, radius)
            assert ball_counts(group, radius) == list(ball.counts_by_radius)

    def test_free_counts_match_enumeration(self):
        for rank, radius in [(1, 8), (2, 6), (3, 5)]:
            group = free_group(rank)
            ball = enumerate_ball(group, radius)
            assert free_ball_counts(rank, radius) == list(ball.counts_by_radius)


class TestStallingsCounts:
    def test_squares_subgroup_prefix(self):
        orc = StallingsOracle(F2, [el("aa"), el("bb")])
        assert relative_ball_counts(orc, 8) == [1, 1, 5, 5, 17, 17, 53, 53, 161]

    def test_matches_filtered_enumeration_on_random_subgroups(self):
        rng = random.Random(47)
        gens_pool = ["a", "b", "ab", "aB", "ba", "abA", "bab", "aab", "Abb"]
        for _ in range(12):
            texts = rng.sample(gens_pool, rng.choice([1, 2, 3]))
            gens = [el(t) for t in texts]
            orc = StallingsOracle(F2, gens)
            rel = relative_ball(F2, orc, 6)
            assert relative_ball_counts(orc, 6) == list(rel.counts_by_radius), texts

    def test_whole_group_graph_reproduces_free_counts(self):
        orc = StallingsOracle(F2, [el("a"), el("b")])
        assert relative_ball_counts(orc, 7) == free_ball_counts(2, 7)


class TestCyclicCounts:
    def test_primitive_generator(self):
        assert cyclic_counts(el("a"), 5) == [1, 3, 5, 7, 9, 11]

    def test_square_generator(self):
        assert cyclic_counts(el("aa"), 6) == [1, 1, 3, 3, 5, 5, 7]

    def test_conjugated_generator_pays_tails_once(self):
        # baB has core a and two tail letters; |z^k| = 2 + |k|
        counts = cyclic_counts(el("baB"), 7)
        assert counts == [1, 1, 1, 3, 5, 7, 9, 11]

    def test_matches_enumeration(self):
        for text in ["a", "ab", "aab", "baB", "aBab"]:
            z = el(text)
            orc = CyclicOracle(F2, z)
            rel = relative_ball(F2, orc, 7)
            assert cyclic_counts(z, 7) == list(rel.counts_by_radius), text

    def test_trivial_generator(self):
        assert cyclic_counts(F2.identity(), 4) == [1, 1, 1, 1, 1]

    def test_product_group_generator(self):
        z = el("(ab,b)", F2xF2)
        orc = CyclicOracle(F2xF2, z)
        rel = relative_ball(F2xF2, orc, 6)
        assert cyclic_counts(z, 6) == list(rel.counts_by_radius)


class TestDispatch:
    def test_diagonal_counts(self):
        orc = diagonal_oracle(F2xF2)
        assert relative_ball_counts(orc, 8) == [1, 1, 5, 5, 17, 17, 53, 53, 161]

    def test_diagonal_matches_enumeration(self):
        orc = diagonal_oracle(F2xF2)
        rel = relative_ball(F2xF2, orc, 6)
        assert relative_ball_counts(orc, 6) == list(rel.counts_by_radius)

    def test_product_oracle_convolution(self):
        orc = ProductOracle(
            F2xF2, [CyclicOracle(F2, el("a")), StallingsOracle(F2, [el("bb")])]
        )
        rel = relative_ball(F2xF2, orc, 6)
        assert relative_ball_counts(orc, 6) == list(rel.counts_by_radius)

    def test_stallings_dispatch(self):
        orc = parse_subgroup(F2, "aa,bb")
        assert relative_ball_counts(orc, 4) == [1, 1, 5, 5, 17]

    def test_budgeted_oracle_has_no_formula(self):
        orc = BudgetedEnumerationOracle(F2, [el("aa")], radius=4)
        with pytest.raises(UnsupportedConfigurationError):
            relative_ball_counts(orc, 4)

    def test_counts_reach_large_radius_quickly(self):
        # the whole point of the formula route: radii far beyond enumeration
        orc = StallingsOracle(F2, [el("aa"), el("bb")])
        counts = relative_ball_counts(orc, 40)
        assert counts[40] == free_ball_counts(2, 20)[20]


class TestOracleSphereCounts:
    @settings(max_examples=200, deadline=None)
    @given(countable_oracles())
    def test_matches_reference_counters(self, case):
        oracle, radius = case
        assert len(oracle.sphere_counts(radius)) == radius + 1
        assert relative_ball_counts(oracle, radius) == reference_relative_ball_counts(
            oracle, radius
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda r: product_group(*r)),
        st.integers(0, 150),
    )
    def test_whole_group_counts_its_balls(self, group, radius):
        oracle = WholeGroupOracle(group)
        assert len(oracle.sphere_counts(radius)) == radius + 1
        assert relative_ball_counts(oracle, radius) == ball_counts(group, radius)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BudgetedEnumerationOracle(F2, [el("aa")], radius=2),
            lambda: oracle_for_generators(F2xF2, [el("(a,1)", F2xF2), el("(1,a)", F2xF2)]),
            lambda: StallingsOracle(F2xF2, [el("(a,b)", F2xF2), el("(b,a)", F2xF2)]),
            lambda: StallingsOracle(F2xF2, [el("(a,b)", F2xF2)]),
            lambda: ProductOracle(
                F2xF2, [StallingsOracle(F2, [el("ab")]), BudgetedEnumerationOracle(F2, [el("b")])]
            ),
            lambda: ProductOracle(
                F2xF2, [BudgetedEnumerationOracle(F2, [el("b")]), CyclicOracle(F2, el("a"))]
            ),
        ],
    )
    def test_uncountable_oracles_raise_as_before(self, make):
        oracle = make()
        with pytest.raises(UnsupportedConfigurationError) as want:
            reference_relative_ball_counts(oracle, 6)
        with pytest.raises(UnsupportedConfigurationError) as got:
            relative_ball_counts(oracle, 6)
        assert str(got.value) == str(want.value)
        # refusing to count enumerates nothing
        assert "known" not in vars(oracle)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (
                parse_subgroup(F2xF2, "(aa,aa),(bb,bb)"),
                StallingsOracle(F2, [el("aa"), el("bb")]),
            ),
            lambda: (parse_subgroup(F2xF2, "(ab,ab)"), CyclicOracle(F2, el("ab"))),
        ],
    )
    def test_identity_map_pullbacks_count_their_base(self, make):
        # generators whose second words copy the first: the base's spheres
        # spread 2 apart, as on the diagonal
        oracle, base = make()
        rel = relative_ball(F2xF2, oracle, 10)
        assert relative_ball_counts(oracle, 10) == list(rel.counts_by_radius)
        assert oracle.sphere_counts(10)[::2] == base.sphere_counts(5)


class TestLayering:
    """counting knows no oracle class; concat and cli keep no whole-group path."""

    @staticmethod
    def tree(module):
        with open(module.__file__, encoding="utf-8") as f:
            return ast.parse(f.read())

    def test_counting_imports_no_subgroup_or_cayley_layer(self):
        for node in ast.walk(self.tree(counting)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                for name in names:
                    assert not {"subgroups", "cayley"} & set(name.split(".")), name

    def test_concat_and_cli_never_ask_group_or_oracle(self):
        # the whole group is an oracle too (WholeGroupOracle), so only
        # subgroups.as_oracle tells a group from a subgroup
        for module in (concat, cli):
            for node in ast.walk(self.tree(module)):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                    assert not {"GroupDescriptor", "SubgroupOracle"} & names, module.__name__

    @staticmethod
    def scoped(node, scope=""):
        """(enclosing class and function names, dotted; node) for every node below."""
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from TestLayering.scoped(child, f"{scope}.{child.name}".lstrip("."))
            else:
                yield from TestLayering.scoped(child, scope)

    @staticmethod
    def package_trees():
        for path in sorted(Path(counting.__file__).parent.glob("*.py")):
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))

    @classmethod
    def assert_no_name(cls, *names):
        for name, tree in cls.package_trees():
            for node in ast.walk(tree):
                for field in ("id", "arg", "attr", "name"):
                    assert getattr(node, field, None) not in names, name

    @classmethod
    def callers(cls, callee):
        """(module file, scope) of every call to the name callee in the package."""
        return sorted(
            (name, scope)
            for name, tree in cls.package_trees()
            for scope, node in cls.scoped(tree)
            if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        )

    def test_no_budget_radius_knob(self):
        # a budgeted oracle's radius is the class default everywhere
        self.assert_no_name("budget_radius")

    def test_balls_are_built_only_from_spheres(self):
        # relative_ball builds each Ball from its spheres and up_to slices one
        assert self.callers("Ball") == [("cayley.py", "Ball.up_to"), ("cayley.py", "relative_ball")]

    def test_one_oracle_path_for_generator_lists(self):
        # a generator list folds (StallingsOracle) or, conflicting on every
        # factor, falls back to enumeration, and that choice is made once
        assert self.callers("BudgetedEnumerationOracle") == [
            ("subgroups.py", "oracle_for_generators")
        ]
        self.assert_no_name("PullbackOracle", "factor_support")

    def test_every_imported_name_is_used(self):
        # __init__ only re-exports, and a name in a module's __all__ counts as used
        for name, tree in self.package_trees():
            if name == "__init__.py":
                continue
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            exported = {
                elt.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
            }
            assert sorted(imported - used - exported) == [], name

    def test_concat_imports_nothing_from_rate(self):
        # the combination inequality has one checker, rate.check_hypothesis
        for node in ast.walk(self.tree(concat)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                for name in names:
                    assert "rate" not in name.split("."), name

    def test_subgroups_imports_only_at_module_top(self):
        for func in ast.walk(self.tree(subgroups)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), func.name
