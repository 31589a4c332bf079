"""Ground truth for small graphs: connected sets counted by size, two ways.

``enumerated_census`` grows the connected sets themselves (the ESU scheme
of Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
2006), but counts each search subtree once: the sets below a node depend
only on its frontier and on the part of the graph the frontier can still
reach, so the subtree counts are memoized on that pair, and a subtree
that can only add frontier vertices is counted in closed form.  Its cost
follows the number of distinct subtrees, not of sets: the 10^7 sets of
(6, 4) take milliseconds.

``census`` tests every nonempty vertex subset for connectivity and
tallies counts by size.  Two independent connectivity tests are kept.
The flood runs for 2^20 subsets at once, bit-sliced over big ints, with
two ORs per edge and sweep at most: a sweep skips the vertices whose
neighbours have not grown.  It reads the counts off by bit counts.  The
union-find runs over one subset's internal edges at a time, O(2^v·v) in
all.  ``verify --graph`` compares the enumerator with the flood census,
so every census answer is computed twice.

Every census refuses a graph above ``MAX_CAP`` = 26 vertices (2^26
subsets for ``census``); nothing sets another limit.  Measured in-process
on a 2-vCPU VM with CPython 3.11 (medians of 11), the enumerator takes
0.3 ms at (2, 10), 0.1 ms on K_26 and 4-5 ms at (6, 4), and the flood
census 16 ms over its 2^20 subsets; the battery's grid of 53 cells,
engine included, takes 16 ms (median of 5).  The flood census of a
26-vertex graph takes 0.2-0.9 s (medians of 3: a path, 52 random edges,
a 2 x 13 grid, a dense graph), and ``verify --graph`` on one peaks at
about 33 MB.

The census checks live here too, with the census they read:
``oracle_cell_checks`` holds the engine's four headline quantities at
one cell against the enumerator, for ``verify --m --n`` and the
battery's grid alike, and ``graph_file_checks`` holds the enumerator
against the flood census for ``verify --graph``.  So a census-only
``verify`` loads this module and the engine, never the suites.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, NamedTuple

from . import aggregate
from .records import Check, FrozenRecord

#: The most vertices any census takes.
MAX_CAP = 26


class CapExceededError(ValueError):
    """The graph has more vertices than a census takes."""


def _check_cap(vertex_count: int) -> None:
    if vertex_count > MAX_CAP:
        raise CapExceededError(
            f"graph has {vertex_count} vertices; enumeration cap is {MAX_CAP}")


class SimpleGraph:
    """Undirected simple graph on vertices 0..v-1, adjacency as bitmask rows."""

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        adjacency = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        self.vertex_count = vertex_count
        self.adjacency = tuple(adjacency)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


class LayeredGraph(NamedTuple):
    """A SimpleGraph whose vertices are arranged in n complete layers of
    size m, consecutive layers joined position-to-position.

    Layers are numbered 1..n; vertex (layer, position) has index
    (layer-1)*m + position with 0-based positions.
    """

    graph: SimpleGraph
    m: int
    n: int

    def layer_mask(self, layer: int) -> int:
        if not 1 <= layer <= self.n:
            raise ValueError(f"layer {layer} outside 1..{self.n}")
        return ((1 << self.m) - 1) << ((layer - 1) * self.m)


def complete_path_product(m: int, n: int) -> LayeredGraph:
    """The product of a complete graph on m vertices with a path of n:
    n complete layers, consecutive layers matched position by position."""
    if m < 1 or n < 1:
        raise ValueError("both layer size and path length must be at least 1")
    _check_cap(m * n)
    edges = []
    for layer in range(n):
        base = layer * m
        for i in range(m):
            for j in range(i + 1, m):
                edges.append((base + i, base + j))
            if layer + 1 < n:
                edges.append((base + i, base + m + i))
    return LayeredGraph(graph=SimpleGraph(m * n, edges), m=m, n=n)


#: Low vertices whose subsets one chunk of the sliced flood covers: 2^20
#: subsets, so each of its big ints holds 128 KiB.
_CHUNK_BITS = 20


def _member_masks(bits: int) -> list[int]:
    """For each vertex u below ``bits``, the 2^bits-bit int whose bit S is
    set iff u is in the subset S: runs of 2^u zeros and 2^u ones."""
    width = 1 << bits
    masks = []
    for u in range(bits):
        run = 1 << u
        mask, span = ((1 << run) - 1) << run, 2 * run
        while span < width:
            mask |= mask << span
            span *= 2
        masks.append(mask)
    return masks


def _size_masks(bits: int) -> list[int]:
    """For each j = 0..bits, the 2^bits-bit int whose bit S is set iff the
    subset S has j vertices."""
    masks = [1]
    for u in range(bits):
        masks = [without | with_u << (1 << u)
                 for without, with_u in zip([*masks, 0], [0, *masks])]
    return masks


def _connected_chunks(adjacency: tuple[int, ...],
                      chunk_bits: int = _CHUNK_BITS) -> Iterator[tuple[int, int]]:
    """The connected subsets of a graph as bitmaps, one chunk at a time.

    A chunk fixes the vertices from c = min(v, chunk_bits) up to a set H
    and covers the 2^c subsets S = H ∪ L, L over the low vertices; it is
    yielded as (first, connected): first is H's bitmask, and bit L of
    connected is set iff S is nonempty and connected.

    The flood runs for every S of the chunk at once, bit-sliced (Knuth,
    TAOCP 4A §7.1.3): bit L of the big int X_u is set iff u is in S, and
    bit L of R_u iff u is reached from min(S) inside S.  R_u starts as the
    subsets whose lowest vertex is u; each sweep sets
    R_u |= X_u & OR_{w in N(u)} R_w, alternating the vertex order, for
    the vertices u that are stale: not yet updated, or with an R_w grown
    since u's last update.  A u that is not stale would not change, so
    the flood stops when none is.  S is connected iff R_u = X_u for
    every u.
    """
    vertex_count = len(adjacency)
    bits = min(vertex_count, chunk_bits)
    full = (1 << (1 << bits)) - 1
    low_members = _member_masks(bits)
    low_starts, lower = [], 0
    for member in low_members:
        low_starts.append(member & ~lower)
        lower |= member
    for high in range(1 << (vertex_count - bits)):
        members = low_members + [full if high >> u & 1 else 0
                                 for u in range(vertex_count - bits)]
        reached = low_starts + [0] * (vertex_count - bits)
        if high:  # S = H alone, bit 0, starts from H's lowest vertex
            reached[bits + (high & -high).bit_length() - 1] = 1
        live = [u for u in range(vertex_count) if members[u]]
        neighbours = {u: [w for w in live if adjacency[u] >> w & 1] for u in live}
        stale = set(live)
        while stale:
            for u in live:
                if u not in stale:
                    continue
                stale.remove(u)
                around = 0
                for w in neighbours[u]:
                    around |= reached[w]
                grown = reached[u] | members[u] & around
                if grown != reached[u]:
                    reached[u] = grown
                    stale.update(neighbours[u])
            live.reverse()
        stray = 0
        for u in live:
            stray |= members[u] ^ reached[u]
        connected = full & ~stray
        if not high:
            connected ^= 1  # the empty set
        yield high << bits, connected


def _flood_sizes(adjacency: tuple[int, ...], chunk_bits: int = _CHUNK_BITS) -> list[int]:
    """Connected subsets by size, from the sliced flood's bitmaps: a chunk
    adds the bit count of its bitmap within each size mask of the low
    vertices, shifted by the size of its fixed high set."""
    counts = [0] * (len(adjacency) + 1)
    sizes = _size_masks(min(len(adjacency), chunk_bits))
    for first, connected in _connected_chunks(adjacency, chunk_bits):
        for order, sized in enumerate(sizes, start=first.bit_count()):
            counts[order] += (connected & sized).bit_count()
    return counts[1:]


def _find(parent: list[int], v: int) -> int:
    """Root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _connected_union_find(adjacency: tuple[int, ...], mask: int) -> bool:
    """Redundant checker: union-find over the subset's internal edges,
    each met once from its lower end."""
    parent = list(range(len(adjacency)))
    components = mask.bit_count()
    scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        u = low.bit_length() - 1
        row = adjacency[u] >> (u + 1) << (u + 1) & mask
        while row:
            bit = row & -row
            row ^= bit
            ru, rw = _find(parent, u), _find(parent, bit.bit_length() - 1)
            if ru != rw:
                parent[ru] = rw
                components -= 1
    return components == 1


class CensusReport(FrozenRecord):
    """Connected-set counts of one graph, bucketed by set size.

    Not a NamedTuple: its ``count`` would shadow ``tuple.count``."""

    __slots__ = ("size_counts",)

    def __init__(self, size_counts: tuple[int, ...]):
        object.__setattr__(self, "size_counts", size_counts)

    @property
    def vertex_count(self) -> int:
        return len(self.size_counts)

    @property
    def count(self) -> int:
        return sum(self.size_counts)

    @property
    def total_order(self) -> int:
        return sum(t * c for t, c in enumerate(self.size_counts, start=1))

    @property
    def average(self) -> Fraction:
        return Fraction(self.total_order, self.count)

    @property
    def density(self) -> Fraction:
        return self.average / self.vertex_count


def census(graph: SimpleGraph, cap: int | None = None,
           connectivity: str = "flood") -> CensusReport:
    """Count the connected sets of a graph, by size, over all 2^v - 1
    subsets: all at once by the sliced flood, or one at a time by
    union-find.  A graph above MAX_CAP vertices is refused, and ``cap``
    must stay None: no census takes another limit."""
    if cap is not None:
        raise ValueError(f"census takes no cap: every census refuses a graph above "
                         f"{MAX_CAP} vertices")
    if connectivity not in ("flood", "union-find"):
        raise ValueError(f"unknown connectivity checker {connectivity!r}")
    _check_cap(graph.vertex_count)
    adjacency = graph.adjacency
    if connectivity == "flood":
        return CensusReport(size_counts=tuple(_flood_sizes(adjacency)))
    counts = [0] * graph.vertex_count
    for mask in range(1, 1 << graph.vertex_count):
        if _connected_union_find(adjacency, mask):
            counts[mask.bit_count() - 1] += 1
    return CensusReport(size_counts=tuple(counts))


def enumerated_census(graph: SimpleGraph) -> CensusReport:
    """Count the connected sets of a graph, by size, by growing them, with
    every search subtree counted once.

    A set S is rooted at its smallest vertex r and grown one frontier
    vertex at a time.  The blocked set B holds S, every vertex up to r,
    and the frontier vertices that earlier branches left out; so each
    connected set is reached along exactly one path of the search, and
    the frontier F is always N(S) ∖ B, the neighbours of S not blocked.
    A node (S, F, B) branches on the lowest f of F: the sets with f, below
    (S + f, F ∖ f ∪ N(f) ∖ B', B') with B' = B + f, and those without, below
    (S, F ∖ f, B').

    Lemma: let R be the union of the components of G[V ∖ B] that meet F.
    The sets below (S, F, B) are exactly S ∪ U, where U ⊆ R and every
    component of G[U] meets F.  (S ∪ U is connected iff each component of
    G[U] has a neighbour in S, that is a vertex in N(S) ∖ B = F; such a
    component lies in a component of G[V ∖ B] that meets F.)  Their counts
    by |U| therefore depend on (F, R) alone, not on S or on B beyond R;
    each (F, R) is counted once per call and the count memoized.  R
    grows from F by neighbour rows: each round ORs the adjacency rows of
    the vertices it reached last and reaches what they add outside B and
    R, until a round adds nothing.  Where R = F, every U ⊆ F qualifies:
    C(|F|, j) sets of order |S| + j, the closed form, which an empty
    frontier (one set, S) also takes.
    """
    _check_cap(graph.vertex_count)
    adjacency = graph.adjacency
    vertex_count = graph.vertex_count
    binomials = [[comb(k, j) for j in range(k + 1)] for k in range(vertex_count + 1)]
    memo: dict[int, list[int]] = {}

    def below(frontier: int, blocked: int) -> list[int]:
        """The counts by |U| of the sets below a node, U = ∅ first."""
        reach = fresh = frontier
        while fresh:
            around = 0
            while fresh:
                top = fresh.bit_length() - 1
                fresh ^= 1 << top
                around |= adjacency[top]
            fresh = around & ~(blocked | reach)
            reach |= fresh
        if reach == frontier:
            return binomials[frontier.bit_count()]
        key = reach << vertex_count | frontier
        counts = memo.get(key)
        if counts is None:
            low = frontier & -frontier
            rest = frontier ^ low
            blocked |= low
            counts = below(rest, blocked)[:]
            counts += [0] * (reach.bit_count() + 1 - len(counts))
            for size, sets in enumerate(below((rest | adjacency[low.bit_length() - 1]) & ~blocked,
                                              blocked), start=1):
                counts[size] += sets
            memo[key] = counts
        return counts

    counts = [0] * vertex_count
    for root in range(vertex_count):
        blocked = (2 << root) - 1
        for size, sets in enumerate(below(adjacency[root] & ~blocked, blocked)):
            counts[size] += sets
    return CensusReport(size_counts=tuple(counts))


class FamilyCensus(NamedTuple):
    """Count and summed orders of one restricted family of connected sets."""

    count: int
    order_sum: int


def _submasks(universe: int) -> Iterator[int]:
    """All submasks of the universe, including 0."""
    sub = universe
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & universe


def _layer_family(adjacency: tuple[int, ...], layers: list[int],
                  required: int) -> FamilyCensus:
    """Count and order sum of the connected sets made of every vertex of
    ``required`` and any vertices of the ``layers`` masks, meeting each of
    those layers.  Callers pass a nonempty ``required`` or at least one
    layer, which keeps the empty set out."""
    universe = 0
    for mask in layers:
        universe |= mask
    bitmap = 0  # bit S set iff the subset S is connected
    for first, chunk in _connected_chunks(adjacency):
        bitmap |= chunk << first
    connected = bitmap.to_bytes((1 << len(adjacency)) // 8 + 1, "little")
    count = 0
    order_sum = 0
    for free in _submasks(universe):
        subset = free | required
        if all(subset & layer for layer in layers) and connected[subset >> 3] >> (subset & 7) & 1:
            count += 1
            order_sum += subset.bit_count()
    return FamilyCensus(count=count, order_sum=order_sum)


def footprint_census(layered: LayeredGraph, k: int,
                     footprint: Iterable[int]) -> FamilyCensus:
    """Census of connected sets meeting every layer before k, intersecting
    layer k in exactly the given vertices, and meeting no layer beyond k.

    The footprint is a nonempty set of vertex indices inside layer k.
    """
    _check_cap(layered.graph.vertex_count)
    if not 1 <= k <= layered.n:
        raise ValueError(f"layer {k} outside 1..{layered.n}")
    footprint_mask = 0
    layer_k = layered.layer_mask(k)
    for v in footprint:
        if v < 0 or not (1 << v) & layer_k:
            raise ValueError(f"vertex {v} is not in layer {k}")
        footprint_mask |= 1 << v
    if footprint_mask == 0:
        raise ValueError("footprint must be nonempty")

    earlier = [layered.layer_mask(layer) for layer in range(1, k)]
    return _layer_family(layered.graph.adjacency, earlier, footprint_mask)


def span_census(layered: LayeredGraph, first: int, span: int) -> FamilyCensus:
    """Census of connected sets whose layer support is exactly
    layers first..first+span-1."""
    _check_cap(layered.graph.vertex_count)
    if span < 1:
        raise ValueError("span must be at least 1")
    if not 1 <= first <= layered.n - span + 1:
        raise ValueError(f"layers {first}..{first + span - 1} outside 1..{layered.n}")
    layer_masks = [layered.layer_mask(layer) for layer in range(first, first + span)]
    return _layer_family(layered.graph.adjacency, layer_masks, 0)


def parse_edge_list(text: str) -> SimpleGraph:
    """Graph from edge-list text: one 'u v' pair per line, 0-based vertex
    ids, blank lines and lines starting with '#' ignored.  The vertex
    count is one past the largest id mentioned; a count above MAX_CAP is
    refused before the adjacency rows are allocated."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        raise ValueError("edge list is empty")
    _check_cap(top + 1)
    return SimpleGraph(top + 1, edges)


def oracle_cell_checks(m: int, n: int) -> list[Check]:
    """All four headline quantities at one cell, formula path vs the
    connected-set enumerator."""
    result = aggregate.evaluate(m, n)
    report = enumerated_census(complete_path_product(m, n).graph)
    where = f"m={m} n={n}"
    return [
        Check("census-vs-formula count", where, result.count == report.count,
              f"formula {result.count}, census {report.count}"),
        Check("census-vs-formula order total", where, result.total == report.total_order,
              f"formula {result.total}, census {report.total_order}"),
        Check("census-vs-formula average", where, result.average == report.average,
              f"formula {result.average}, census {report.average}"),
        Check("census-vs-formula density", where, result.density == report.density,
              f"formula {result.density}, census {report.density}"),
    ]


def graph_file_checks(graph: SimpleGraph) -> tuple[list[Check], CensusReport]:
    """Census an arbitrary graph twice: the connected-set enumerator
    against the 2^v census with the flood checker."""
    grown = enumerated_census(graph)
    flood = census(graph, connectivity="flood")
    where = f"{graph.vertex_count} vertices, {graph.edge_count} edges"
    checks = [Check("connectivity checkers agree", where,
                    grown.size_counts == flood.size_counts,
                    f"enumerator {grown.size_counts}, flood {flood.size_counts}")]
    return checks, flood
