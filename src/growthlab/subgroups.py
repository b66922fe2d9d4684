"""Membership oracles for finitely generated subgroups.

Five oracle kinds cover the subgroups the experiments need:

* Whole         -- the whole group G, its own improper subgroup H = G;
* Stallings     -- a subgroup that is a graph over one free factor, exact
                   membership via the folded core graph of its generators'
                   words there, each edge labelled with what it reads in
                   the other factors: a subgroup of one factor, the
                   diagonal, and every graph {(w, phi(w))} of a homomorphism;
* Cyclic        -- powers of a single element of the ambient product;
* Product       -- componentwise product H_1 x ... x H_m of per-factor oracles;
* Budgeted      -- enumerate products of few generators and answer True or
                   unknown, never False; only generator lists whose fold
                   conflicts on every factor get one.

contains() is three-valued: True, False, or None for "unknown within the
budget". Only the budgeted oracle ever returns None; the point is that
membership in subgroups of products is undecidable in general, so an
enumeration fallback must never fake certainty.

Each oracle answers one protocol from its own structure: contains_packed
(the verdict on a packed element), relative_spheres (the members by ambient
length, generated rather than filtered from the ambient ball, and the
undecided count per sphere), sphere_counts (exact member counts per sphere,
for radii far past enumeration range; the budgeted oracle and folded graphs
with nontrivial labels raise) and spec_string (the canonical subgroup spec).
A generated sphere is a list of packed words or, for the whole of a free
group, a letter matrix (words.Sphere); the whole group yields its spheres
one at a time. cayley.relative_ball, where a sphere becomes words, and
cayley.relative_counts, which keeps only its size, hold every generated
sphere to sphere_counts, so an oracle's counts must never be read off the
spheres it generates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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
    Sphere,
    free_group,
    free_spheres,
    invert_packed,
    inverse_byte,
    multiply_packed,
    packed_length,
    product_spheres,
)

# Members by ambient length, spheres 0..radius each shortlex sorted, and
# the number of undecided elements per sphere.
Spheres = tuple[Iterable[Sphere], list[int]]


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


class FoldConflict(UnsupportedConfigurationError):
    """A fold met a nontrivial element of H whose word in the folded factor is empty."""


@dataclass(frozen=True)
class StallingsGraph:
    """Folded, based core graph of a subgroup, read in one free factor.

    transitions[v] maps a letter byte to the target vertex; both directions
    of every edge are stored. Vertex 0 is the basepoint. labels[v, b] is
    what the edge from v reading b reads in the other factors, as a packed
    element of a product of num_factors factors whose folded factor is
    empty; the reverse edge reads its inverse. Only nontrivial labels are
    stored, so a subgroup of one free factor has none.
    """

    transitions: tuple[dict[int, int], ...]
    labels: dict[tuple[int, int], bytes] = field(default_factory=dict)
    num_factors: int = 1

    @property
    def num_vertices(self) -> int:
        return len(self.transitions)

    def read(self, data: bytes) -> bytes | None:
        """The label of the closed path at the basepoint that the word reads, or None."""
        v = 0
        label = SEP * (self.num_factors - 1)
        for b in data:
            step = self.labels.get((v, b))
            if step is not None:
                label = multiply_packed(label, step, self.num_factors)
            v = self.transitions[v].get(b)
            if v is None:
                return None
        return label if v == 0 else None

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


def fold_graph(
    loops: Sequence[bytes], rests: Sequence[bytes] = (), num_factors: int = 1
) -> StallingsGraph:
    """Wedge the generator loops at a basepoint and fold (Stallings), with labels.

    Loop i puts its label rests[i] (trivial when rests is empty) on its
    first edge. Every vertex keeps one target per letter. An edge whose
    letter is already used at its source is not stored; its target and the
    existing one are queued for a merge instead, and a merge pools the two
    vertices' edges, which may queue more merges. One union-find records
    the merges, each link with a potential g: the merged vertex is re-based
    by g, so an edge into it reading l reads l g at its root, and an edge
    out of it reading l reads g^-1 l. A merge keeps the lower vertex id, so
    the basepoint stays 0 with a trivial potential and a run is
    deterministic; the folded graph itself is independent of merge order
    (folding is confluent).

    Two edges with one letter between the same vertices but different
    labels, or an empty loop with a nontrivial label, raise FoldConflict:
    H then holds a nontrivial element whose word in the folded factor is
    empty, so it is no graph over that factor.
    """
    one = SEP * (num_factors - 1)
    rests = rests or [one] * len(loops)

    def mul(x: bytes, y: bytes) -> bytes:
        return y if x == one else x if y == one else multiply_packed(x, y, num_factors)

    def inv(x: bytes) -> bytes:
        return x if x == one else invert_packed(x, num_factors)

    adj: list[dict[int, tuple[int, bytes]]] = [{}]
    # (x, y, h): y is x re-based by h, so an edge into y reading l is one into x reading l h
    pending: list[tuple[int, int, bytes]] = []

    def add_edge(u: int, b: int, v: int, label: bytes) -> None:
        edge = adj[u].setdefault(b, (v, label))
        if edge != (v, label):
            pending.append((edge[0], v, mul(inv(label), edge[1])))

    for loop, rest in zip(loops, rests):
        if not loop and rest != one:
            raise FoldConflict("a generator is trivial in the folded factor but not elsewhere")
        prev = 0
        for i, b in enumerate(loop):
            nxt = 0 if i == len(loop) - 1 else len(adj)
            if nxt:
                adj.append({})
            label = one if i else rest
            add_edge(prev, b, nxt, label)
            add_edge(nxt, inverse_byte(b), prev, inv(label))
            prev = nxt

    parent = list(range(len(adj)))
    potential = [one] * len(adj)

    def find(v: int) -> tuple[int, bytes]:
        """v's root, and v's potential there (the product of the links' potentials)."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        acc = one
        for u in reversed(path):
            acc = mul(potential[u], acc)
            parent[u], potential[u] = v, acc
        return v, acc

    while pending:
        x, y, h = pending.pop()
        (lo, px), (hi, py) = find(x), find(y)
        g = mul(mul(inv(py), h), px)  # hi is lo re-based by g
        if lo == hi:
            if g != one:
                raise FoldConflict("two edges with one letter and one end read different labels")
            continue
        if hi < lo:
            lo, hi, g = hi, lo, inv(g)
        parent[hi], potential[hi] = lo, g
        # the reverse edges into hi stay put; find() sends them to lo
        for b, (v, label) in adj[hi].items():
            add_edge(lo, b, v, mul(inv(g), label))
        adj[hi] = {}

    roots = [v for v in range(len(adj)) if parent[v] == v]
    index = {r: i for i, r in enumerate(roots)}
    transitions: list[dict[int, int]] = []
    labels: dict[tuple[int, int], bytes] = {}
    for i, r in enumerate(roots):
        row = {}
        for b, (v, label) in adj[r].items():
            root, pv = find(v)
            row[b] = index[root]
            label = mul(label, pv)
            if label != one:
                labels[i, b] = label
        transitions.append(row)
    return StallingsGraph(tuple(transitions), labels, num_factors)


class SubgroupOracle:
    """Common surface of all membership oracles."""

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

    def __init__(self, group: GroupDescriptor):
        self.group = group

    @cached_property
    def generators(self) -> tuple[Element, ...]:
        """The group's standard generators, built the first time they are asked for."""
        return self.group.generators()

    def contains_packed(self, packed: bytes) -> bool:
        return True

    def relative_spheres(self, radius: int) -> Spheres:
        """The group's spheres from the factor trees, one at a time as they are
        asked for: a free group's as letter matrices, a product's as joined
        words. Nothing is undecided."""
        factors = [free_spheres(rank, radius) for rank in self.group.ranks]
        return product_spheres(factors), [0] * (radius + 1)

    def sphere_counts(self, radius: int) -> list[int]:
        return product_sphere_counts(self.group.ranks, radius)

    def spec_string(self) -> str:
        return self.group.spec()


def as_oracle(domain: GroupDescriptor | SubgroupOracle) -> SubgroupOracle:
    """A domain as an oracle: a whole group becomes its WholeGroupOracle."""
    return WholeGroupOracle(domain) if isinstance(domain, GroupDescriptor) else domain


class StallingsOracle(SubgroupOracle):
    """Exact membership in a subgroup that is a graph over one free factor.

    Factor f's words of the generators are folded (fold_graph), and each
    edge is labelled with what it reads in the other factors. A factor j is
    a copy when every generator's j-word equals its f-word: it then holds w
    wherever f holds w, carries no label and adds |w| to the length.
    Without a conflict, the member whose f-word is w is unique: w in f and
    its copies and the label of w's closed path elsewhere. So one class
    covers a subgroup of one factor (every label trivial), the diagonal
    (every other factor a copy) and every graph {(w, phi(w)) : w in K} of a
    homomorphism. The first factor whose fold has no conflict is taken;
    with none, the generators raise FoldConflict.
    """

    def __init__(
        self, group: GroupDescriptor, generators: Sequence[Element], *, spec: str | None = None
    ):
        self.group = group
        self.generators = tuple(generators)
        if any(g.group != group for g in self.generators):
            raise UnsupportedConfigurationError("generator outside the group")
        self._spec = spec
        nf = group.num_factors
        parts = [g.packed.split(SEP) for g in self.generators]
        for f in range(nf):
            # f and its copies hold the word w; the rest is each loop's label
            placed = [j for j in range(nf) if all(p[j] == p[f] for p in parts)]
            rests = [SEP.join(b"" if j in placed else w for j, w in enumerate(p)) for p in parts]
            try:
                self.graph = fold_graph([p[f] for p in parts], rests, nf)
            except FoldConflict:
                continue
            self.factor = f
            self.spread = len(placed)
            # path states per vertex: arrived by one of the 2k letters, or the start
            self._width = 2 * group.ranks[f] + 1
            # SEP runs around the coordinates that hold w
            self._gaps = [SEP * (j - i) for i, j in zip([0, *placed], [*placed, nf - 1])]
            return
        raise FoldConflict(
            f"<{self.spec_string()}> is no graph over any one factor of {group.spec()}"
        )

    def _member(self, w: bytes) -> bytes | None:
        """The member whose word in the folded factor is w, or None if there is none."""
        label = self.graph.read(w)
        if label is None:
            return None
        placed = w.join(self._gaps)
        if not self.graph.labels:
            return placed
        return multiply_packed(label, placed, self.group.num_factors)

    def contains_packed(self, packed: bytes) -> bool:
        return self._member(packed.split(SEP)[self.factor]) == packed

    @cached_property
    def _moves(self) -> list[list[tuple[bytes, int, int]]]:
        """Per path state, the non-cancelling (letter, target, next state), in letter order.

        State v * _width + last is a path at vertex v whose last letter is
        `last`, 0 for the empty path; states below _width are at the basepoint.
        """
        return [
            [
                (bytes([b]), w, w * self._width + b)
                for b, w in sorted(edges.items())
                if b != inverse_byte(last)
            ]
            for edges in self.graph.transitions
            for last in range(self._width)
        ]

    def _closed_words(self, top: int) -> list[list[bytes]]:
        """Reduced closed paths at the basepoint of length 0..top, extended letter by letter.

        A path is dropped once the way back to the basepoint is longer than
        the length it has left.
        """
        moves = self._moves
        dist = self.graph.base_distances()
        paths = [(b"", 0)]
        words = [[b""]]
        for n in range(1, top + 1):
            left = top - n
            paths = [(p + x, t) for p, s in paths for x, w, t in moves[s] if dist[w] <= left]
            words.append([p for p, s in paths if s < self._width])
        return words

    def relative_spheres(self, radius: int) -> Spheres:
        """The members of the reduced closed paths at the basepoint.

        A path of length n reads a member of length at least spread * n, its
        word in the folded factor and its copies, so paths are searched to
        length radius // spread. Labels only add to that length. With every
        label trivial the member is exactly that long, and each length's
        closed words come out shortlex sorted, so they are placed as sphere
        spread * n with no sort.
        """
        words = self._closed_words(radius // self.spread)
        unknown = [0] * (radius + 1)
        if self.graph.labels:
            members = map(self._member, chain.from_iterable(words))
            return _by_sphere(members, radius, self.group.num_factors), unknown
        spheres: list[list[bytes]] = [[] for _ in range(radius + 1)]
        spheres[:: self.spread] = [[w.join(self._gaps) for w in ws] for ws in words]
        return spheres, unknown

    def sphere_counts(self, radius: int) -> list[int]:
        """Reduced closed paths at the basepoint per length, summed by state.

        With every label trivial, a path of length n reads a member of
        length spread * n, so the path counts land spread apart.
        """
        if self.graph.labels:
            raise UnsupportedConfigurationError(
                "no exact counting formula for a labelled folded graph; enumerate instead"
            )
        moves = self._moves
        walks = [1] + [0] * (len(moves) - 1)  # reduced paths per state
        paths = [1]
        for _ in range(radius // self.spread):
            new = [0] * len(moves)
            for c, row in zip(walks, moves):
                if c:
                    for _, _, t in row:
                        new[t] += c
            walks = new
            paths.append(sum(walks[: self._width]))
        counts = [0] * (radius + 1)
        counts[:: self.spread] = paths
        return counts

    def spec_string(self) -> str:
        return self._spec or ",".join(g.render() for g in self.generators)


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

    def __init__(self, group: GroupDescriptor, generator: Element, *, spec: str | None = None):
        if generator.group != group:
            raise UnsupportedConfigurationError("generator outside the group")
        self.group = group
        self.generator = generator
        self.generators = (generator,)
        self._spec = spec
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
        return self._spec or f"cyclic:{self.generator.render()}"


class ProductOracle(SubgroupOracle):
    """H_1 x ... x H_m inside G_1 x ... x G_m, one factor oracle each."""

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
        nf = group.num_factors
        self.generators = tuple(
            Element(group, SEP * i + h.packed + SEP * (nf - 1 - i))
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
        # the spheres are read twice, and a whole factor yields them one at a time
        factors = [(list(kept), unknown) for kept, unknown in factors]
        spheres = list(product_spheres([kept for kept, _ in factors]))
        possible = convolve_spheres(
            ([len(s) + u for s, u in zip(kept, unknown)] for kept, unknown in factors), radius
        )
        return spheres, [p - len(s) for p, s in zip(possible, spheres)]

    def sphere_counts(self, radius: int) -> list[int]:
        """The factors' sphere counts, convolved."""
        return convolve_spheres((o.sphere_counts(radius) for o in self.factor_oracles), radius)

    def spec_string(self) -> str:
        return "prod(" + ";".join(o.spec_string() for o in self.factor_oracles) + ")"


def diagonal_oracle(group: GroupDescriptor) -> StallingsOracle:
    """The diagonal {(w, w, ..., w)} of a product of equal-rank factors."""
    if group.num_factors < 2 or len(set(group.ranks)) != 1:
        raise UnsupportedConfigurationError(
            "diagonal needs a product of at least two equal-rank factors"
        )
    letters = range(1, 2 * group.ranks[0], 2)
    generators = [Element(group, SEP.join([bytes([b])] * group.num_factors)) for b in letters]
    return StallingsOracle(group, generators, spec="diag")


DEFAULT_ELEMENT_CAP = 1_000_000


class BudgetedEnumerationOracle(SubgroupOracle):
    """Enumerate products of at most `radius` generators; True or unknown.

    Nothing is enumerated until the oracle is first asked (`known`); there,
    passing element_cap distinct elements raises OracleBudgetError.
    """

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


def oracle_for_generators(
    group: GroupDescriptor,
    generators: Sequence[Element],
    *,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> SubgroupOracle:
    """The oracle for <generators>: exact when cyclic or a graph over a factor, else budgeted.

    One generator spans a cyclic subgroup (CyclicOracle, which keeps the
    list's spelling as its spec). A folded graph with labels decides
    membership exactly when some factor's fold has no conflict
    (StallingsOracle). Otherwise H meets the kernel of every factor's
    projection, where membership is undecidable in general (Mihailova
    1958), so the oracle enumerates products of at most 8 generators, and
    at most element_cap distinct elements, the first time it is asked.
    """
    if len(generators) == 1:
        return CyclicOracle(group, generators[0], spec=generators[0].render())
    try:
        return StallingsOracle(group, generators)
    except FoldConflict:
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
