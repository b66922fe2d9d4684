"""Elements of finite direct products of free groups.

A group here is F_{k_1} x ... x F_{k_m}, each factor a free group with its
own generators. Element is the one element type: a group and its packed
canonical form, in which every factor word is freely reduced, so equal
elements compare equal structurally. A factor's word is itself an Element,
of the free group of that factor's rank (Element.component).

Text conventions (used by the CLI and all render/parse helpers):

* generators of a factor are 'a'..'z' in order, inverses 'A'..'Z';
* the empty word is "1";
* elements of a product are comma-separated factor words in parentheses,
  e.g. "(ab,B)" for (ab, b^-1) in F_2 x F_1.

Word length of an element is the sum of factor word lengths, i.e. the word
metric of the standard generating set that has each factor's generators
acting on its own coordinate. Shortlex order compares total length first,
then letters with factor index ascending and, within a factor,
a < a^-1 < b < b^-1 < ...; Element.sort_key is that order.

Internal representation: each factor word is a bytes object, one byte per
letter, with generator i encoded as 2*i+1 and its inverse as 2*i+2. An
element packs its factor words joined by a zero byte. The encoding makes
byte order agree with letter order, so shortlex is (length, packed bytes).
The *_word / *_packed helpers below operate on this layer; they trust their
inputs and are shared by the enumeration-heavy modules, and letter_columns
lays factor words out for numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupMismatchError, ParseError

MAX_RANK = 26  # letters of the alphabet; ranks beyond this have no text form

SEP = b"\x00"

# Byte-translation table sending each letter byte to its inverse.
INVERSE_TABLE = bytes(
    (((b - 1) ^ 1) + 1) if 1 <= b <= 2 * MAX_RANK else b for b in range(256)
)


def letter_byte(letter: int, sign: int) -> int:
    return 2 * letter + (1 if sign > 0 else 2)


def inverse_byte(b: int) -> int:
    return ((b - 1) ^ 1) + 1


def multiply_words(x: bytes, y: bytes) -> bytes:
    """Concatenate two reduced words, cancelling across the junction."""
    if not x:
        return y
    if not y:
        return x
    k = 0
    limit = min(len(x), len(y))
    while k < limit and x[-1 - k] == ((y[k] - 1) ^ 1) + 1:
        k += 1
    if k:
        return x[: len(x) - k] + y[k:]
    return x + y


def invert_word(x: bytes) -> bytes:
    return x[::-1].translate(INVERSE_TABLE)


def multiply_packed(x: bytes, y: bytes, num_factors: int) -> bytes:
    if num_factors == 1:
        return multiply_words(x, y)
    return SEP.join(
        multiply_words(a, b) for a, b in zip(x.split(SEP), y.split(SEP))
    )


def invert_packed(x: bytes, num_factors: int) -> bytes:
    if num_factors == 1:
        return invert_word(x)
    return SEP.join(invert_word(w) for w in x.split(SEP))


def packed_length(x: bytes, num_factors: int) -> int:
    return len(x) - (num_factors - 1)


def letter_columns(words: Sequence[bytes], width: int, pad: bytes = b"\0") -> np.ndarray:
    """The words' first width letters, padded: a width x len(words) uint8 array."""
    flat = b"".join(w[:width].ljust(width, pad) for w in words)
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(words), width).T


def common_prefix(a_cols, b_cols, shape: tuple[int, ...]) -> np.ndarray:
    """Common prefix lengths of letter columns padded with two different bytes."""
    k = np.zeros(shape, dtype=np.int64)
    same = np.ones(shape, dtype=bool)
    for a, b in zip(a_cols, b_cols):
        same &= a == b
        k += same
    return k


def free_spheres(rank: int, radius: int) -> list[list[bytes]]:
    """Spheres 0..radius of F_rank, each in shortlex order.

    F_rank's Cayley graph is a tree: sphere n+1 extends every sphere-n
    word, in order, by each letter that does not cancel its last letter,
    in letter order, and that is already shortlex.
    """
    letters = [bytes([b]) for b in range(1, 2 * rank + 1)]
    follow = {x[0]: [y for y in letters if y[0] != inverse_byte(x[0])] for x in letters}
    spheres = [[b""], letters][: radius + 1]
    for _ in range(radius - 1):
        spheres.append([w + y for w in spheres[-1] for y in follow[w[-1]]])
    return spheres


def product_spheres(factors: Sequence[list[list[bytes]]]) -> list[list[bytes]]:
    """Spheres of a product from equally many spheres of each factor.

    Sphere n is the union over i_1 + ... + i_m = n of the products of
    factor spheres, which are disjoint; each is shortlex sorted once.
    """
    spheres = factors[0]
    for factor in factors[1:]:
        spheres = [
            [u + SEP + v for i in range(n + 1) for u in spheres[i] for v in factor[n - i]]
            for n in range(len(spheres))
        ]
    if len(factors) > 1:
        for sphere in spheres:
            sphere.sort()
    return spheres


def reduce_letter_bytes(raw: Iterable[int]) -> bytes:
    """Stack reduction of a letter-byte sequence to its reduced form."""
    stack: list[int] = []
    for b in raw:
        if stack and stack[-1] == ((b - 1) ^ 1) + 1:
            stack.pop()
        else:
            stack.append(b)
    return bytes(stack)


def _check_word_bytes(data: bytes, rank: int, what: str) -> None:
    top = 2 * rank
    prev = 0
    for b in data:
        if not 1 <= b <= top:
            raise ValueError(f"{what} contains letter byte {b} outside rank {rank}")
        if prev and prev == ((b - 1) ^ 1) + 1:
            raise ValueError(f"{what} is not freely reduced")
        prev = b


@dataclass(frozen=True)
class GroupDescriptor:
    """A finite direct product of free groups, given by factor ranks."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("a group needs at least one factor")
        for k in self.ranks:
            if not 1 <= k <= MAX_RANK:
                raise ValueError(f"factor rank {k} outside supported range 1..{MAX_RANK}")

    @property
    def num_factors(self) -> int:
        return len(self.ranks)

    def identity(self) -> "Element":
        return Element(self, SEP * (len(self.ranks) - 1))

    def generator(self, factor: int, letter: int, sign: int = 1) -> "Element":
        if not 0 <= factor < len(self.ranks):
            raise ValueError(f"factor {factor} out of range")
        if not 0 <= letter < self.ranks[factor]:
            raise ValueError(f"letter {letter} outside rank {self.ranks[factor]}")
        words = [b""] * len(self.ranks)
        words[factor] = bytes([letter_byte(letter, sign)])
        return Element(self, SEP.join(words))

    def generators(self) -> tuple["Element", ...]:
        """The standard positive generators, factor by factor."""
        return tuple(
            self.generator(i, j)
            for i in range(len(self.ranks))
            for j in range(self.ranks[i])
        )

    def symmetric_generators(self) -> tuple["Element", ...]:
        """Positive generators and inverses, in shortlex letter order."""
        return tuple(
            self.generator(i, j, sign)
            for i in range(len(self.ranks))
            for j in range(self.ranks[i])
            for sign in (1, -1)
        )

    def parse(self, text: str) -> "Element":
        return parse_element(self, text)

    def spec(self) -> str:
        """Canonical text form: free:<rank> or product(free:..,free:..)."""
        if len(self.ranks) == 1:
            return f"free:{self.ranks[0]}"
        return "product(" + ",".join(f"free:{k}" for k in self.ranks) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupDescriptor({self.spec()!r})"


def free_group(rank: int) -> GroupDescriptor:
    return GroupDescriptor((rank,))


def product_group(*ranks: int) -> GroupDescriptor:
    return GroupDescriptor(tuple(ranks))


def parse_group(text: str) -> GroupDescriptor:
    """Parse a group spec: free:<rank> or product(<spec>,<spec>,...)."""
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        parts = [p.strip() for p in inner.split(",")]
        if not inner or any(not p for p in parts):
            raise ParseError(f"empty factor in group spec {text!r}")
        return GroupDescriptor(tuple(_parse_free_rank(p) for p in parts))
    return GroupDescriptor((_parse_free_rank(text),))


def _parse_free_rank(text: str) -> int:
    if not text.startswith("free:"):
        raise ParseError(f"expected free:<rank>, got {text!r}")
    try:
        rank = int(text[len("free:") :])
    except ValueError:
        raise ParseError(f"bad rank in group spec {text!r}") from None
    if not 1 <= rank <= MAX_RANK:
        raise ParseError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    return rank


@dataclass(frozen=True)
class Element:
    """A group element in canonical (factorwise reduced) form.

    Immutable and hashable; equality is structural. The packed field is the
    internal byte form documented in the module docstring.
    """

    group: GroupDescriptor
    packed: bytes

    def __post_init__(self) -> None:
        parts = self.packed.split(SEP)
        if len(parts) != self.group.num_factors:
            raise ValueError(
                f"element has {len(parts)} factor words, group has "
                f"{self.group.num_factors} factors"
            )
        for i, part in enumerate(parts):
            _check_word_bytes(part, self.group.ranks[i], f"factor {i} word")

    def component(self, factor: int) -> "Element":
        """The factor's word, as an element of that free factor."""
        return Element(free_group(self.group.ranks[factor]), self.packed.split(SEP)[factor])

    def length(self) -> int:
        return len(self.packed) - (self.group.num_factors - 1)

    def is_identity(self) -> bool:
        return len(self.packed) == self.group.num_factors - 1

    def inverse(self) -> "Element":
        return Element(self.group, invert_packed(self.packed, self.group.num_factors))

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if other.group != self.group:
            raise GroupMismatchError(
                f"cannot multiply elements of {self.group.spec()} and {other.group.spec()}"
            )
        return Element(
            self.group,
            multiply_packed(self.packed, other.packed, self.group.num_factors),
        )

    def __pow__(self, n: int) -> "Element":
        return power(self, n)

    def sort_key(self) -> tuple[int, bytes]:
        return (self.length(), self.packed)

    def render(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.group.spec()!r}, {self.render()!r})"


def power(g: Element, n: int) -> Element:
    """g**n by binary exponentiation; n may be negative or zero."""
    if n < 0:
        return power(g.inverse(), -n)
    result = g.group.identity()
    base = g
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def distance(u: Element, v: Element) -> int:
    """Word metric d(u, v) = |u^-1 v|."""
    if u.group != v.group:
        raise GroupMismatchError("distance needs elements of one group")
    nf = u.group.num_factors
    return packed_length(
        multiply_packed(invert_packed(u.packed, nf), v.packed, nf), nf
    )


def render_word_bytes(data: bytes) -> str:
    if not data:
        return "1"
    out = []
    for b in data:
        letter = (b - 1) // 2
        char = chr(ord("a") + letter)
        out.append(char if b % 2 else char.upper())
    return "".join(out)


def parse_word_bytes(text: str, rank: int) -> bytes:
    """Parse one factor word; the input need not be reduced."""
    text = text.strip()
    if text == "1":
        return b""
    raw = []
    for ch in text:
        if "a" <= ch <= "z":
            letter, sign = ord(ch) - ord("a"), 1
        elif "A" <= ch <= "Z":
            letter, sign = ord(ch) - ord("A"), -1
        else:
            raise ParseError(f"bad character {ch!r} in word {text!r}")
        if letter >= rank:
            raise ParseError(
                f"generator {ch.lower()!r} outside rank {rank} in word {text!r}"
            )
        raw.append(letter_byte(letter, sign))
    return reduce_letter_bytes(raw)


def render_element(g: Element) -> str:
    parts = [render_word_bytes(w) for w in g.packed.split(SEP)]
    if len(parts) == 1:
        return parts[0]
    return "(" + ",".join(parts) + ")"


def parse_element(group: GroupDescriptor, text: str) -> Element:
    """Parse an element; accepts unreduced input and returns canonical form."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = text[1:-1].split(",")
    else:
        parts = [text]
    if len(parts) != group.num_factors:
        raise ParseError(
            f"element {text!r} has {len(parts)} factor words, expected "
            f"{group.num_factors} for {group.spec()}"
        )
    return Element(
        group,
        SEP.join(
            parse_word_bytes(part, group.ranks[i]) for i, part in enumerate(parts)
        ),
    )
