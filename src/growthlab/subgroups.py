"""Membership oracles for finitely generated subgroups.

Five oracle kinds cover the subgroups the experiments need:

* Stallings     -- subgroup of one free factor, exact membership via the
                   folded core graph of its generators;
* Cyclic        -- powers of a single element of the ambient product;
* Product       -- componentwise product H_1 x ... x H_m of per-factor oracles;
* Pullback      -- graph-of-homomorphism subgroups {(w, phi_2(w), ..)} of a
                   product, the diagonal being the identity-map case;
* Budgeted      -- enumerate products of few generators and answer True or
                   unknown, never False.

contains() is three-valued: True, False, or None for "unknown within the
budget". Only the budgeted oracle ever returns None; the point is that
membership in subgroups of products is undecidable in general, so an
enumeration fallback must never fake certainty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    GroupMismatchError,
    OracleBudgetError,
    ParseError,
    UnsupportedConfigurationError,
)
from .words import (
    SEP,
    Element,
    GroupDescriptor,
    Word,
    _check_word_bytes,
    free_group,
    invert_packed,
    invert_word,
    inverse_byte,
    multiply_packed,
    multiply_words,
    packed_length,
    render_word_bytes,
)


@dataclass(frozen=True)
class StallingsGraph:
    """Folded, based core graph of a free-group subgroup.

    transitions[v] maps a letter byte to the target vertex; both directions
    of every edge are stored. Vertex 0 is the basepoint.
    """

    transitions: tuple[dict[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.transitions)

    def trace(self, data: bytes, start: int = 0) -> int | None:
        """Follow a word from a vertex; None when the path leaves the graph."""
        v = start
        for b in data:
            v = self.transitions[v].get(b)
            if v is None:
                return None
        return v

    def accepts(self, data: bytes) -> bool:
        return self.trace(data) == 0

    def canonical_key(self) -> tuple:
        """Renumbering-invariant form: vertices in BFS order from the base."""
        order = {0: 0}
        queue = [0]
        edges = []
        while queue:
            v = queue.pop(0)
            for b in sorted(self.transitions[v]):
                w = self.transitions[v][b]
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
                edges.append((order[v], b, order[w]))
        return (len(order), tuple(sorted(edges)))


def fold_graph(loops: Sequence[bytes]) -> StallingsGraph:
    """Wedge the generator loops at a basepoint and fold (Stallings).

    Every vertex keeps one target per letter. An edge whose letter is
    already used at its source is not stored; its target and the existing
    one are queued for a merge instead, and a merge pools the two vertices'
    edges, which may queue more merges. One union-find records the merges.
    A merge keeps the lower vertex id, so the basepoint stays 0 and a run
    is deterministic; the folded graph itself is independent of merge
    order (folding is confluent).
    """
    adj: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int]] = []

    def add_edge(u: int, b: int, v: int) -> None:
        w = adj[u].setdefault(b, v)
        if w != v:
            pending.append((w, v))

    for loop in loops:
        prev = 0
        for i, b in enumerate(loop):
            nxt = 0 if i == len(loop) - 1 else len(adj)
            if nxt:
                adj.append({})
            add_edge(prev, b, nxt)
            add_edge(nxt, inverse_byte(b), prev)
            prev = nxt

    parent = list(range(len(adj)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while pending:
        lo, hi = sorted(map(find, pending.pop()))
        if lo == hi:
            continue
        parent[hi] = lo
        # the reverse edges into hi stay put; find() sends them to lo
        for b, v in adj[hi].items():
            add_edge(lo, b, v)
        adj[hi] = {}

    roots = [v for v in range(len(adj)) if parent[v] == v]
    index = {r: i for i, r in enumerate(roots)}
    return StallingsGraph(
        tuple({b: index[find(v)] for b, v in adj[r].items()} for r in roots)
    )


class SubgroupOracle:
    """Common surface of all membership oracles."""

    kind = "abstract"
    group: GroupDescriptor
    generators: tuple[Element, ...]

    def contains(self, g: Element) -> bool | None:
        if g.group != self.group:
            raise GroupMismatchError(
                f"oracle over {self.group.spec()} asked about an element of "
                f"{g.group.spec()}"
            )
        return self.contains_packed(g.packed)

    def contains_packed(self, packed: bytes) -> bool | None:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


def factor_support(generators: Sequence[Element]) -> set[int]:
    """Indices of the factors on which some generator is nontrivial."""
    return {i for g in generators for i, p in enumerate(g.packed.split(SEP)) if p}


class StallingsOracle(SubgroupOracle):
    """Exact membership in a subgroup of one free factor."""

    kind = "stallings"

    def __init__(self, group: GroupDescriptor, generators: Sequence[Element]):
        self.group = group
        self.generators = tuple(generators)
        if any(g.group != group for g in self.generators):
            raise UnsupportedConfigurationError("generator outside the group")
        support = factor_support(self.generators)
        if len(support) > 1:
            raise UnsupportedConfigurationError(
                "Stallings oracle needs generators inside a single free factor"
            )
        self.factor = min(support, default=0)
        self.graph = fold_graph([g.packed.split(SEP)[self.factor] for g in self.generators])

    def contains_packed(self, packed: bytes) -> bool:
        if self.group.num_factors == 1:
            return self.graph.accepts(packed)
        parts = packed.split(SEP)
        for i, p in enumerate(parts):
            if i != self.factor and p:
                return False
        return self.graph.accepts(parts[self.factor])

    def spec_string(self) -> str:
        return ",".join(g.render() for g in self.generators)


def cyclic_core(data: bytes) -> tuple[bytes, bytes]:
    """Split a reduced word as z c z^-1 with c cyclically reduced."""
    i, j = 0, len(data)
    while j - i >= 2 and data[i] == inverse_byte(data[j - 1]):
        i += 1
        j -= 1
    return data[:i], data[i:j]


def power_lengths(g: Element) -> tuple[int, int]:
    """(tails, core) with |g^k| = tails + |k| core for every k != 0.

    With g_i = z_i c_i z_i^-1 and c_i cyclically reduced per factor, tails
    is sum_i 2|z_i| and core is sum_i |c_i|; core is 0 iff g is trivial.
    """
    tails = 0
    core = 0
    for part in g.packed.split(SEP):
        z, c = cyclic_core(part)
        tails += 2 * len(z)
        core += len(c)
    return tails, core


class CyclicOracle(SubgroupOracle):
    """Membership in <g> for one element g of the ambient product.

    A candidate exponent is read off from word length: with g_i = z_i c_i
    z_i^-1 cyclically reduced per factor, |g^k| = sum_i (2|z_i| + |k||c_i|)
    for k != 0, so at most one |k| fits a given length. The candidate is
    then verified by an exact power computation.
    """

    kind = "cyclic"

    def __init__(self, group: GroupDescriptor, generator: Element):
        if generator.group != group:
            raise UnsupportedConfigurationError("generator outside the group")
        self.group = group
        self.generator = generator
        self.generators = (generator,)
        self._tail_len, self._core_len = power_lengths(generator)

    def contains_packed(self, packed: bytes) -> bool:
        nf = self.group.num_factors
        if packed == self.group.identity().packed:
            return True
        if self._core_len == 0:
            return False
        n = packed_length(packed, nf)
        if n < self._tail_len or (n - self._tail_len) % self._core_len:
            return False
        k = (n - self._tail_len) // self._core_len
        if k == 0:
            return False
        pk = (self.generator ** k).packed
        return pk == packed or invert_packed(pk, nf) == packed

    def spec_string(self) -> str:
        return f"cyclic:{self.generator.render()}"


class ProductOracle(SubgroupOracle):
    """H_1 x ... x H_m inside G_1 x ... x G_m, one factor oracle each."""

    kind = "prod"

    def __init__(self, group: GroupDescriptor, factor_oracles: Sequence[SubgroupOracle]):
        if len(factor_oracles) != group.num_factors:
            raise UnsupportedConfigurationError(
                "one factor oracle per ambient factor required"
            )
        for i, oracle in enumerate(factor_oracles):
            if oracle.group != free_group(group.ranks[i]):
                raise UnsupportedConfigurationError(
                    f"factor oracle {i} is over {oracle.group.spec()}, "
                    f"expected free:{group.ranks[i]}"
                )
        self.group = group
        self.factor_oracles = tuple(factor_oracles)
        self.generators = tuple(
            embed(h, (i,), group)
            for i, oracle in enumerate(factor_oracles)
            for h in oracle.generators
        )

    def contains_packed(self, packed: bytes) -> bool | None:
        verdict: bool | None = True
        for oracle, part in zip(self.factor_oracles, packed.split(SEP)):
            got = oracle.contains_packed(part)
            if got is False:
                return False
            if got is None:
                verdict = None
        return verdict

    def spec_string(self) -> str:
        return "prod(" + ";".join(o.spec_string() for o in self.factor_oracles) + ")"


class PullbackOracle(SubgroupOracle):
    """{(w, phi_2(w), ..., phi_m(w)) : w in K} inside a product.

    Each phi_j is a homomorphism from factor 0's free group into factor j's,
    given by generator images; K is all of factor 0, or a base oracle over
    it. The diagonal of a product of equal-rank factors is the identity-map
    case, for which membership short-circuits to comparing factor words.
    """

    kind = "pullback"

    def __init__(
        self,
        group: GroupDescriptor,
        images: Sequence[Sequence[Word]],
        base: SubgroupOracle | None = None,
    ):
        if group.num_factors < 2:
            raise UnsupportedConfigurationError("pullback needs at least two factors")
        if len(images) != group.num_factors - 1:
            raise UnsupportedConfigurationError(
                "one image list per non-source factor required"
            )
        source_rank = group.ranks[0]
        for j, imgs in enumerate(images, start=1):
            if len(imgs) != source_rank:
                raise UnsupportedConfigurationError(
                    f"factor {j} needs {source_rank} generator images"
                )
            for w in imgs:
                _check_word_bytes(w.data, group.ranks[j], f"factor {j} image")
        if base is not None and base.group != free_group(source_rank):
            raise UnsupportedConfigurationError("base oracle must live in factor 0")
        self.group = group
        self.images = tuple(tuple(imgs) for imgs in images)
        self.base = base
        self._identity_maps = all(
            imgs[i].data == bytes([2 * i + 1])
            for imgs in self.images
            for i in range(source_rank)
        )
        base_words = (
            [g.packed for g in base.generators]
            if base is not None
            else [bytes([2 * i + 1]) for i in range(source_rank)]
        )
        self.generators = tuple(
            Element(
                group,
                SEP.join([w] + [self._apply(j, w) for j in range(len(self.images))]),
            )
            for w in base_words
        )

    @property
    def is_diagonal(self) -> bool:
        """Identity maps on all of factor 0: the diagonal {(w, ..., w)}."""
        return self._identity_maps and self.base is None

    def _apply(self, image_index: int, data: bytes) -> bytes:
        imgs = self.images[image_index]
        out = b""
        for b in data:
            piece = imgs[(b - 1) // 2].data
            out = multiply_words(out, piece if b % 2 else invert_word(piece))
        return out

    def contains_packed(self, packed: bytes) -> bool | None:
        parts = packed.split(SEP)
        w = parts[0]
        if self._identity_maps:
            if any(p != w for p in parts[1:]):
                return False
        else:
            for j, p in enumerate(parts[1:]):
                if self._apply(j, w) != p:
                    return False
        if self.base is None:
            return True
        return self.base.contains_packed(w)

    def spec_string(self) -> str:
        if self.is_diagonal:
            return "diag"
        imgs = ";".join(
            ",".join(render_word_bytes(w.data) for w in image) for image in self.images
        )
        base = self.base.spec_string() if self.base else "*"
        return f"pullback({imgs}|{base})"


def diagonal_oracle(group: GroupDescriptor) -> PullbackOracle:
    """The diagonal {(w, w, ..., w)} of a product of equal-rank factors."""
    if group.num_factors < 2 or len(set(group.ranks)) != 1:
        raise UnsupportedConfigurationError(
            "diagonal needs a product of at least two equal-rank factors"
        )
    rank = group.ranks[0]
    identity_images = [
        [Word(bytes([2 * i + 1])) for i in range(rank)]
        for _ in range(group.num_factors - 1)
    ]
    return PullbackOracle(group, identity_images)


DEFAULT_ELEMENT_CAP = 1_000_000


class BudgetedEnumerationOracle(SubgroupOracle):
    """Enumerate products of at most `radius` generators; True or unknown.

    Passing element_cap distinct elements raises OracleBudgetError.
    """

    kind = "budgeted"

    def __init__(
        self,
        group: GroupDescriptor,
        generators: Sequence[Element],
        radius: int = 8,
        element_cap: int = DEFAULT_ELEMENT_CAP,
    ):
        self.group = group
        self.generators = tuple(generators)
        self.radius = radius
        nf = group.num_factors
        step = [g.packed for g in generators] + [
            g.inverse().packed for g in generators
        ]
        seen = {group.identity().packed}
        frontier = list(seen)
        for r in range(radius):
            new = []
            for u in frontier:
                for s in step:
                    v = multiply_packed(u, s, nf)
                    if v not in seen:
                        if len(seen) >= element_cap:
                            raise OracleBudgetError(element_cap, r, radius)
                        seen.add(v)
                        new.append(v)
            frontier = new
        self.known = frozenset(seen)

    def contains_packed(self, packed: bytes) -> bool | None:
        return True if packed in self.known else None

    def spec_string(self) -> str:
        return ",".join(g.render() for g in self.generators)


def project(g: Element, factors: Sequence[int]) -> Element:
    """Restrict an element to the chosen factors, in ascending order."""
    chosen = tuple(factors)
    if len(set(chosen)) != len(chosen) or any(
        not 0 <= i < g.group.num_factors for i in chosen
    ):
        raise ValueError(f"bad factor set {chosen} for {g.group.spec()}")
    chosen = tuple(sorted(chosen))
    parts = g.packed.split(SEP)
    target = GroupDescriptor(tuple(g.group.ranks[i] for i in chosen))
    return Element(target, SEP.join(parts[i] for i in chosen))


def embed(g: Element, factors: Sequence[int], target: GroupDescriptor) -> Element:
    """Place an element's factors at the chosen coordinates of a bigger product."""
    chosen = tuple(factors)
    if len(chosen) != g.group.num_factors:
        raise ValueError("one target coordinate per source factor required")
    if len(set(chosen)) != len(chosen) or any(
        not 0 <= i < target.num_factors for i in chosen
    ):
        raise ValueError(f"bad factor set {chosen} for {target.spec()}")
    for src, dst in enumerate(chosen):
        if g.group.ranks[src] > target.ranks[dst]:
            raise GroupMismatchError(
                f"factor of rank {g.group.ranks[src]} does not fit in "
                f"rank {target.ranks[dst]}"
            )
    parts = g.packed.split(SEP)
    out = [b""] * target.num_factors
    for src, dst in enumerate(chosen):
        out[dst] = parts[src]
    return Element(target, SEP.join(out))


def oracle_for_generators(
    group: GroupDescriptor,
    generators: Sequence[Element],
    *,
    budget_radius: int,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> SubgroupOracle:
    """The oracle for <generators>: exact on one free factor, else budgeted.

    Generators supported on one free factor give a Stallings oracle.
    Across factors exact membership is not available in general, so the
    oracle enumerates products of at most budget_radius generators, and
    at most element_cap distinct elements.
    """
    if len(factor_support(generators)) <= 1:
        return StallingsOracle(group, generators)
    return BudgetedEnumerationOracle(
        group, generators, radius=budget_radius, element_cap=element_cap
    )


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_subgroup(
    group: GroupDescriptor,
    text: str,
    *,
    budget_radius: int = 8,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> SubgroupOracle:
    """Parse a subgroup spec against an ambient group.

    Forms: "aa,bb" (generator list), cyclic:<element>, diag, and
    prod(<spec>;<spec>;...). A generator list gets its oracle from
    oracle_for_generators, with budget_radius and element_cap.
    spec_string() does not depend on either, and budget_radius=0
    enumerates nothing.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty subgroup spec")
    if text == "diag":
        return diagonal_oracle(group)
    if text.startswith("cyclic:"):
        payload = text[len("cyclic:") :].strip().strip('"')
        return CyclicOracle(group, group.parse(payload))
    if text.startswith("prod(") and text.endswith(")"):
        inner = text[len("prod(") : -1]
        pieces = [p.strip() for p in _split_top_level(inner, ";")]
        if len(pieces) != group.num_factors:
            raise ParseError(
                f"prod(...) needs {group.num_factors} parts for {group.spec()}"
            )
        return ProductOracle(
            group,
            [
                parse_subgroup(
                    free_group(group.ranks[i]),
                    piece,
                    budget_radius=budget_radius,
                    element_cap=element_cap,
                )
                for i, piece in enumerate(pieces)
            ],
        )
    gen_texts = [p.strip() for p in _split_top_level(text, ",")]
    if any(not p for p in gen_texts):
        raise ParseError(f"empty generator in subgroup spec {text!r}")
    gens = [group.parse(p) for p in gen_texts]
    return oracle_for_generators(
        group, gens, budget_radius=budget_radius, element_cap=element_cap
    )
