"""Element layer: frozen examples plus algebraic property tests.

The reduction oracle here is deliberately different from the library's
stack reducer: it rescans for an adjacent inverse pair until none is left.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import words
from growthlab.errors import GroupMismatchError, ParseError
from growthlab.words import (
    Element,
    GroupDescriptor,
    distance,
    free_group,
    parse_element,
    parse_group,
    power,
    product_group,
    reduce_letter_bytes,
    render_element,
    render_word_bytes,
)

F2 = free_group(2)
F1 = free_group(1)
F2xF2 = product_group(2, 2)
F2xF1 = product_group(2, 1)


def rescan_reduce(letters):
    """Oracle: delete one adjacent inverse pair at a time until stable.

    Letter bytes are 2*i+1 for generator i and 2*i+2 for its inverse, so a
    pair cancels when both bytes name one generator and differ.
    """
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if (a - 1) // 2 == (b - 1) // 2 and a != b:
                del out[i : i + 2]
                changed = True
                break
    return bytes(out)


# letter-byte sequences over a rank-2 factor: a, A, b, B
letter_seqs = st.lists(st.integers(1, 4), max_size=24)


def elements_of(group, max_len=8):
    """Strategy: elements built from random letter choices, then reduced."""
    gens = group.symmetric_generators()

    def build(indices):
        g = group.identity()
        for i in indices:
            g = g * gens[i]
        return g

    return st.builds(build, st.lists(st.integers(0, len(gens) - 1), max_size=max_len))


def shortlex(u, v):
    """-1, 0 or +1 as u is before, equal to or after v in sort_key order."""
    ku, kv = u.sort_key(), v.sort_key()
    return (ku > kv) - (ku < kv)


def test_one_element_model():
    for name in ("Word", "GeneratorIndex", "reduce", "multiply", "invert",
                 "word_length", "shortlex_compare"):
        assert not hasattr(words, name), name
    assert not hasattr(Element, "distance")


class TestReduce:
    def test_cancelling_sequence_reduces_to_identity(self):
        assert reduce_letter_bytes([1, 3, 4, 2, 1, 2]) == b""
        assert F2.parse("abBAaA").is_identity()

    def test_mixed_factors_rejected(self):
        # a factor word holds letters of its own factor only
        with pytest.raises(ParseError, match="outside rank 1"):
            F2xF1.parse("(a,b)")
        with pytest.raises(ParseError, match="expected 2"):
            F2xF1.parse("ab")
        with pytest.raises(ValueError, match="factor 1 word"):
            Element(F2xF1, b"\x01\x00\x03")

    @given(letter_seqs)
    def test_matches_rescan_oracle(self, seq):
        got = reduce_letter_bytes(seq)
        assert got == rescan_reduce(seq)
        assert F2.parse(render_word_bytes(bytes(seq))).packed == got

    @given(letter_seqs)
    def test_idempotent(self, seq):
        once = reduce_letter_bytes(seq)
        assert reduce_letter_bytes(once) == once
        assert F2.parse(render_word_bytes(once)).packed == once


class TestElementOps:
    def test_product_in_f2xf2(self):
        u = F2xF2.parse("(a,b)")
        assert (u * u).render() == "(aa,bb)"
        assert (u * u).length() == 4

    def test_invert_in_f2xf1(self):
        g = F2xF1.parse("(ab,a)")
        assert g.inverse().render() == "(BA,A)"
        assert (g * g.inverse()).is_identity()

    def test_distance_between_powers(self):
        assert distance(F2.parse("aaa"), F2.parse("bb")) == 5

    def test_length_sums_over_factors(self):
        assert F2xF1.parse("(ab,a)").length() == 3
        assert F2xF2.identity().length() == 0

    def test_power_examples(self):
        a = F2.parse("a")
        assert power(a, 4).render() == "aaaa"
        assert power(a, -3).render() == "AAA"
        assert power(a, 0).is_identity()

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            F2.parse("a") * F1.parse("a")

    @given(elements_of(F2xF1), elements_of(F2xF1))
    def test_inverse_antihomomorphism(self, u, v):
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @given(elements_of(F2), elements_of(F2), elements_of(F2))
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(elements_of(F2xF2), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=40)
    def test_power_addition(self, g, m, n):
        assert power(g, m) * power(g, n) == power(g, m + n)

    @given(elements_of(F2xF1), elements_of(F2xF1), elements_of(F2xF1))
    def test_metric_axioms(self, u, v, w):
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, w) <= distance(u, v) + distance(v, w)

    @given(elements_of(F2xF1), elements_of(F2xF1), elements_of(F2xF1))
    def test_metric_left_invariant(self, g, u, v):
        assert distance(g * u, g * v) == distance(u, v)


class TestShortlex:
    def test_letter_order(self):
        # a < A < b < B within one factor, length first
        assert shortlex(F2.parse("b"), F2.parse("A")) == 1
        assert shortlex(F2.parse("a"), F2.parse("A")) == -1
        assert shortlex(F2.parse("A"), F2.parse("b")) == -1
        assert shortlex(F2.parse("B"), F2.parse("aa")) == -1
        assert shortlex(F2.parse("ab"), F2.parse("ab")) == 0

    @given(elements_of(F2), elements_of(F2))
    def test_antisymmetric(self, u, v):
        assert shortlex(u, v) == -shortlex(v, u)
        assert (shortlex(u, v) == 0) == (u == v)

    @given(elements_of(F2), elements_of(F2))
    def test_length_dominates(self, u, v):
        assert u.sort_key() == (u.length(), u.packed)
        if u.length() < v.length():
            assert shortlex(u, v) == -1


class TestTextSyntax:
    def test_parse_reduces_input(self):
        assert F2.parse("abBA").is_identity()
        assert F2.parse("abA").render() == "abA"

    def test_empty_word_is_one(self):
        assert F2.parse("1").is_identity()
        assert F2.identity().render() == "1"
        assert F2xF2.identity().render() == "(1,1)"

    def test_product_syntax(self):
        g = F2xF1.parse("(ab,A)")
        assert g.component(0) == F2.parse("ab")
        assert g.component(1) == F1.parse("A")
        assert g.component(1).render() == "A"
        # equal words in factors of different ranks are different elements
        h = F2xF1.parse("(a,a)")
        assert h.component(0).packed == h.component(1).packed
        assert h.component(0) != h.component(1)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            F2.parse("a2")
        with pytest.raises(ParseError):
            F2.parse("c")  # rank 2 has only a, b
        with pytest.raises(ParseError):
            F2xF1.parse("ab")  # missing factor form
        with pytest.raises(ParseError):
            F2xF1.parse("(a,b,a)")

    def test_group_grammar(self):
        assert parse_group("free:2") == F2
        assert parse_group("product(free:2,free:1)") == F2xF1
        assert parse_group("free:2").spec() == "free:2"
        assert F2xF2.spec() == "product(free:2,free:2)"
        with pytest.raises(ParseError):
            parse_group("free:0")
        with pytest.raises(ParseError):
            parse_group("cyclic:3")

    @given(elements_of(F2xF1))
    def test_render_parse_round_trip(self, g):
        assert parse_element(F2xF1, render_element(g)) == g


class TestDescriptor:
    def test_generator_counts(self):
        assert len(F2.generators()) == 2
        assert len(F2xF1.symmetric_generators()) == 6

    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            GroupDescriptor(())
        with pytest.raises(ValueError):
            GroupDescriptor((0,))

    def test_elements_hashable_and_deduplicable(self):
        seen = {F2.parse("ab"), F2.parse("ab"), F2.parse("ba")}
        assert len(seen) == 2
