"""Membership oracles for finitely generated subgroups.

Six oracle kinds cover the subgroups the experiments need:

* Whole         -- the whole group G, its own improper subgroup H = G;
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

Each oracle answers one protocol from its own structure: contains_packed
(the verdict on a packed element), relative_spheres (the members by ambient
length, generated rather than filtered from the ambient ball, and the
undecided count per sphere), sphere_counts (exact member counts per sphere,
for radii far past enumeration range; the budgeted oracle and non-identity
pullbacks raise) and spec_string (the canonical subgroup spec).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .counting import convolve_spheres, product_sphere_counts
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
    free_spheres,
    invert_packed,
    invert_word,
    inverse_byte,
    multiply_packed,
    multiply_words,
    packed_length,
    product_spheres,
    render_word_bytes,
)

# Members by ambient length, spheres 0..radius each shortlex sorted, and
# the number of undecided elements per sphere.
Spheres = tuple[list[list[bytes]], list[int]]


def _by_sphere(elements: Iterable[bytes], radius: int, num_factors: int) -> list[list[bytes]]:
    """The packed elements of length <= radius, by sphere, each shortlex sorted."""
    spheres: list[list[bytes]] = [[] for _ in range(radius + 1)]
    for p in elements:
        n = packed_length(p, num_factors)
        if n <= radius:
            spheres[n].append(p)
    for sphere in spheres:
        sphere.sort()
    return spheres


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

    def accepts(self, data: bytes) -> bool:
        """True when the word reads a closed path at the basepoint."""
        v = 0
        for b in data:
            v = self.transitions[v].get(b)
            if v is None:
                return False
        return v == 0

    def base_distances(self) -> list[int]:
        """Graph distance from every vertex to the basepoint (breadth first)."""
        dist = [0] + [-1] * (self.num_vertices - 1)
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.transitions[v].values():
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

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

    def relative_spheres(self, radius: int) -> Spheres:
        """Members of ambient length 0..radius by sphere, and unknowns per sphere."""
        raise NotImplementedError

    def sphere_counts(self, radius: int) -> list[int]:
        """Exact member counts of ambient length 0..radius, one per sphere."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class WholeGroupOracle(SubgroupOracle):
    """The whole group as its improper subgroup H = G; every element is a member."""

    kind = "whole"

    def __init__(self, group: GroupDescriptor):
        self.group = group
        self.generators = group.generators()

    def contains_packed(self, packed: bytes) -> bool:
        return True

    def relative_spheres(self, radius: int) -> Spheres:
        """The group's spheres, from the factor trees; nothing is undecided."""
        factors = [free_spheres(rank, radius) for rank in self.group.ranks]
        return product_spheres(factors), [0] * (radius + 1)

    def sphere_counts(self, radius: int) -> list[int]:
        return product_sphere_counts(self.group.ranks, radius)

    def spec_string(self) -> str:
        return self.group.spec()


def as_oracle(domain: GroupDescriptor | SubgroupOracle) -> SubgroupOracle:
    """A domain as an oracle: a whole group becomes its WholeGroupOracle."""
    return WholeGroupOracle(domain) if isinstance(domain, GroupDescriptor) else domain


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

    @cached_property
    def _moves(self) -> dict[tuple[int, bytes], list[tuple[bytes, int]]]:
        """(vertex, last letter or b"") -> non-cancelling (letter, target), in letter order."""
        return {
            (v, bytes([last]) if last else b""): [
                (bytes([b]), w) for b, w in sorted(edges.items()) if b != inverse_byte(last)
            ]
            for v, edges in enumerate(self.graph.transitions)
            for last in range(2 * self.group.ranks[self.factor] + 1)
        }

    def relative_spheres(self, radius: int) -> Spheres:
        """Reduced closed paths at the basepoint, extended letter by letter.

        Extending sphere-n paths in order by each non-cancelling letter in
        letter order keeps every sphere shortlex sorted, as in a free
        factor's tree. A path is dropped once the way back to the basepoint
        is longer than the length it has left.
        """
        moves = self._moves
        dist = self.graph.base_distances()
        # the other factors' empty words, around the factor's word
        before = SEP * self.factor
        after = SEP * (self.group.num_factors - 1 - self.factor)
        paths = [(b"", 0)]
        spheres = [[before + after]]
        for n in range(1, radius + 1):
            left = radius - n
            paths = [
                (p + x, w) for p, v in paths for x, w in moves[v, p[-1:]] if dist[w] <= left
            ]
            spheres.append([before + p + after for p, v in paths if v == 0])
        return spheres, [0] * (radius + 1)

    def sphere_counts(self, radius: int) -> list[int]:
        """Reduced closed paths at the basepoint per length, summed by state."""
        states: dict[tuple[int, bytes], int] = {(0, b""): 1}
        counts = [1]
        for _ in range(radius):
            new: dict[tuple[int, bytes], int] = defaultdict(int)
            for (v, last), c in states.items():
                for x, w in self._moves[v, last]:
                    new[w, x] += c
            states = new
            counts.append(sum(c for (v, _), c in states.items() if v == 0))
        return counts

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
        self._powers = [group.identity().packed, generator.packed]

    def _power(self, k: int) -> bytes:
        """g^k in packed form for k >= 0, extending the cached powers."""
        nf = self.group.num_factors
        while len(self._powers) <= k:
            self._powers.append(multiply_packed(self._powers[-1], self._powers[1], nf))
        return self._powers[k]

    def contains_packed(self, packed: bytes) -> bool:
        nf = self.group.num_factors
        if packed == self._powers[0]:
            return True
        if self._core_len == 0:
            return False
        k, rest = divmod(packed_length(packed, nf) - self._tail_len, self._core_len)
        if k < 1 or rest:
            return False
        pk = self._power(k)
        return pk == packed or invert_packed(pk, nf) == packed

    def relative_spheres(self, radius: int) -> Spheres:
        """g^k and g^-k, of length tails + k * core, for every k >= 1 that fits."""
        nf = self.group.num_factors
        top = (radius - self._tail_len) // self._core_len if self._core_len else 0
        powers = [self._power(k) for k in range(1, top + 1)]
        members = [self._powers[0], *powers, *(invert_packed(p, nf) for p in powers)]
        return _by_sphere(members, radius, nf), [0] * (radius + 1)

    def sphere_counts(self, radius: int) -> list[int]:
        """The identity, then g^k and g^-k at length tails + k * core."""
        counts = [1] + [0] * radius
        if self._core_len:
            for n in range(self._tail_len + self._core_len, radius + 1, self._core_len):
                counts[n] = 2
        return counts

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

    def relative_spheres(self, radius: int) -> Spheres:
        """Factor spheres joined by length split.

        An element is unknown when every factor is a member or unknown and
        not every factor is a member, so the unknowns are the product of
        (members + unknowns) less the product of members, sphere by sphere.
        """
        factors = [oracle.relative_spheres(radius) for oracle in self.factor_oracles]
        spheres = product_spheres([kept for kept, _ in factors])
        possible = convolve_spheres(
            ([len(s) + u for s, u in zip(kept, unknown)] for kept, unknown in factors), radius
        )
        return spheres, [p - len(s) for p, s in zip(possible, spheres)]

    def sphere_counts(self, radius: int) -> list[int]:
        """The factors' sphere counts, convolved."""
        return convolve_spheres((o.sphere_counts(radius) for o in self.factor_oracles), radius)

    def spec_string(self) -> str:
        return "prod(" + ";".join(o.spec_string() for o in self.factor_oracles) + ")"


class PullbackOracle(SubgroupOracle):
    """{(w, phi_2(w), ..., phi_m(w)) : w in K} inside a product.

    Each phi_j is a homomorphism from factor 0's free group into factor j's,
    given by generator images; K is a base oracle over factor 0, by default
    all of it. The diagonal of a product of equal-rank factors is the identity-map
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
        self.base = base or WholeGroupOracle(free_group(source_rank))
        if self.base.group != free_group(source_rank):
            raise UnsupportedConfigurationError("base oracle must live in factor 0")
        self.group = group
        self.images = tuple(tuple(imgs) for imgs in images)
        self._identity_maps = all(
            imgs[i].data == bytes([2 * i + 1])
            for imgs in self.images
            for i in range(source_rank)
        )
        self.generators = tuple(
            Element(group, self._image(g.packed)) for g in self.base.generators
        )

    @property
    def is_diagonal(self) -> bool:
        """Identity maps on all of factor 0: the diagonal {(w, ..., w)}."""
        return self._identity_maps and isinstance(self.base, WholeGroupOracle)

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
        return self.base.contains_packed(w)

    def relative_spheres(self, radius: int) -> Spheres:
        """Images (w, phi_2(w), ...) of factor-0 words, kept while they fit.

        The words are the base's members; a base that leaves words undecided
        is asked about each word for the unknown tally. Identity maps make
        the image m times as long as w.
        """
        nf = self.group.num_factors
        top = radius // nf if self._identity_maps else radius
        kept, unknown = self.base.relative_spheres(top)
        doubtful: list[bytes] = []
        if any(unknown):
            every = chain.from_iterable(free_spheres(self.group.ranks[0], top))
            doubtful = [w for w in every if self.base.contains_packed(w) is None]
        undecided = _by_sphere(map(self._image, doubtful), radius, nf)
        words = chain.from_iterable(kept)
        return _by_sphere(map(self._image, words), radius, nf), [len(s) for s in undecided]

    def sphere_counts(self, radius: int) -> list[int]:
        """Under identity maps |(w, ..., w)| = m |w|, so the base's spheres land m apart.

        A base without exact counts (a budgeted one) raises in its own sphere_counts.
        """
        if not self._identity_maps:
            raise UnsupportedConfigurationError(
                "no exact counting formula for a general pullback; enumerate instead"
            )
        m = self.group.num_factors
        counts = [0] * (radius + 1)
        counts[::m] = self.base.sphere_counts(radius // m)
        return counts

    def _image(self, w: bytes) -> bytes:
        """(w, phi_2(w), ..., phi_m(w)) in packed form."""
        if self._identity_maps:
            return SEP.join([w] * self.group.num_factors)
        return SEP.join([w] + [self._apply(j, w) for j in range(len(self.images))])

    def spec_string(self) -> str:
        if self.is_diagonal:
            return "diag"
        imgs = ";".join(
            ",".join(render_word_bytes(w.data) for w in image) for image in self.images
        )
        base = "*" if isinstance(self.base, WholeGroupOracle) else self.base.spec_string()
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

    Nothing is enumerated until the oracle is first asked (`known`); there,
    passing element_cap distinct elements raises OracleBudgetError.
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
        self.element_cap = element_cap

    @cached_property
    def known(self) -> frozenset[bytes]:
        """Every product of at most `radius` generators, breadth first."""
        nf = self.group.num_factors
        step = [g.packed for g in self.generators] + [
            g.inverse().packed for g in self.generators
        ]
        seen = {self.group.identity().packed}
        frontier = list(seen)
        for r in range(self.radius):
            new = []
            for u in frontier:
                for s in step:
                    v = multiply_packed(u, s, nf)
                    if v not in seen:
                        if len(seen) >= self.element_cap:
                            raise OracleBudgetError(self.element_cap, r, self.radius)
                        seen.add(v)
                        new.append(v)
            frontier = new
        return frozenset(seen)

    def contains_packed(self, packed: bytes) -> bool | None:
        return True if packed in self.known else None

    def relative_spheres(self, radius: int) -> Spheres:
        """The known elements that fit; every other element is unknown."""
        spheres = _by_sphere(self.known, radius, self.group.num_factors)
        ambient = product_sphere_counts(self.group.ranks, radius)
        return spheres, [a - len(s) for a, s in zip(ambient, spheres)]

    def sphere_counts(self, radius: int) -> list[int]:
        raise UnsupportedConfigurationError(
            "budgeted oracles have no exact counts; enumerate instead"
        )

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
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> SubgroupOracle:
    """The oracle for <generators>: exact on one free factor, else budgeted.

    Generators supported on one free factor give a Stallings oracle.
    Across factors exact membership is not available in general, so the
    oracle enumerates products of at most 8 generators, and at most
    element_cap distinct elements, the first time it is asked.
    """
    if len(factor_support(generators)) <= 1:
        return StallingsOracle(group, generators)
    return BudgetedEnumerationOracle(group, generators, element_cap=element_cap)


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
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> SubgroupOracle:
    """Parse a subgroup spec against an ambient group.

    Forms: "aa,bb" (generator list), cyclic:<element>, diag, and
    prod(<spec>;<spec>;...). A generator list gets its oracle from
    oracle_for_generators, with element_cap. Parsing enumerates nothing:
    a budgeted oracle enumerates when it is first asked, and
    spec_string() never asks it.
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
                parse_subgroup(free_group(group.ranks[i]), piece, element_cap=element_cap)
                for i, piece in enumerate(pieces)
            ],
        )
    gen_texts = [p.strip() for p in _split_top_level(text, ",")]
    if any(not p for p in gen_texts):
        raise ParseError(f"empty generator in subgroup spec {text!r}")
    gens = [group.parse(p) for p in gen_texts]
    return oracle_for_generators(group, gens, element_cap=element_cap)
