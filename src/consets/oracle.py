"""Ground truth for small graphs: connected sets counted by size, two ways.

``enumerated_census`` grows the connected sets themselves (the ESU scheme
of Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
2006), so its cost is O(N·v) for N connected sets.  ``verify --m --n``
and the battery's grid compare the engine with it.

``census`` enumerates every nonempty vertex subset (plain binary counting
over bitmasks), tests connectivity of the induced subgraph, and tallies
counts by size, at O(2^v·v).  Two independent connectivity tests are
kept: a flood fill over packed adjacency rows and a union-find over the
subset's internal edges.  ``verify --graph`` compares the enumerator with
the flood census, so every census answer is computed twice.

Both routes take the same enumeration cap on vertices: 22 by default
(about 4M subsets for ``census``), hard ceiling 26.  K_m × P_n has few
connected sets, 23,637 of the 2^20 subsets at (2, 10), where the
enumerator takes 0.008 s and the flood census 0.94 s (2-vCPU VM,
CPython 3.11).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .records import FrozenRecord

DEFAULT_CAP = 22
MAX_CAP = 26


class CapExceededError(ValueError):
    """Requested enumeration is larger than the configured cap allows."""


def resolve_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: the argument, else the default.
    Values outside 1..26 are refused."""
    if cap is None:
        return DEFAULT_CAP
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"enumeration cap must be in 1..{MAX_CAP}, got {cap}")
    return cap


def _check_cap(vertex_count: int, cap: int | None) -> None:
    cap = resolve_cap(cap)
    if vertex_count > cap:
        raise CapExceededError(
            f"graph has {vertex_count} vertices; enumeration cap is {cap} "
            f"(raise it with --oracle-cap or the cap argument, ceiling {MAX_CAP})")


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


def complete_path_product(m: int, n: int, cap: int | None = None) -> LayeredGraph:
    """The product of a complete graph on m vertices with a path of n:
    n complete layers, consecutive layers matched position by position."""
    if m < 1 or n < 1:
        raise ValueError("both layer size and path length must be at least 1")
    _check_cap(m * n, cap)
    edges = []
    for layer in range(n):
        base = layer * m
        for i in range(m):
            for j in range(i + 1, m):
                edges.append((base + i, base + j))
            if layer + 1 < n:
                edges.append((base + i, base + m + i))
    return LayeredGraph(graph=SimpleGraph(m * n, edges), m=m, n=n)


def _connected_flood(adjacency: tuple[int, ...], mask: int) -> bool:
    """Flood fill from the subset's lowest vertex over packed rows."""
    seed = mask & -mask
    reached = seed
    frontier = seed
    while frontier:
        neighbours = 0
        scan = frontier
        while scan:
            low = scan & -scan
            scan ^= low
            neighbours |= adjacency[low.bit_length() - 1]
        frontier = neighbours & mask & ~reached
        reached |= frontier
    return reached == mask


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


_CHECKERS = {"flood": _connected_flood, "union-find": _connected_union_find}


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
    subsets."""
    if connectivity not in _CHECKERS:
        raise ValueError(f"unknown connectivity checker {connectivity!r}")
    _check_cap(graph.vertex_count, cap)
    checker = _CHECKERS[connectivity]
    adjacency = graph.adjacency
    counts = [0] * graph.vertex_count
    for mask in range(1, 1 << graph.vertex_count):
        if checker(adjacency, mask):
            counts[mask.bit_count() - 1] += 1
    return CensusReport(size_counts=tuple(counts))


def enumerated_census(graph: SimpleGraph, cap: int | None = None) -> CensusReport:
    """Count the connected sets of a graph, by size, by growing each one.

    A set is rooted at its smallest vertex r and grown one frontier
    vertex at a time.  ``blocked`` holds the set, every vertex up to r,
    and the frontier vertices that earlier siblings branched on; so each
    connected set is reached along exactly one path of the stack.
    """
    _check_cap(graph.vertex_count, cap)
    adjacency = graph.adjacency
    counts = [0] * graph.vertex_count
    for root in range(graph.vertex_count):
        blocked = (2 << root) - 1
        stack = [(0, adjacency[root] & ~blocked, blocked)]
        while stack:
            size, frontier, blocked = stack.pop()  # size is the set's order - 1
            counts[size] += 1
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                blocked |= low
                grown = (frontier | adjacency[low.bit_length() - 1]) & ~blocked
                stack.append((size + 1, grown, blocked))
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
    count = 0
    order_sum = 0
    for free in _submasks(universe):
        subset = free | required
        if all(subset & layer for layer in layers) and _connected_flood(adjacency, subset):
            count += 1
            order_sum += subset.bit_count()
    return FamilyCensus(count=count, order_sum=order_sum)


def footprint_census(layered: LayeredGraph, k: int,
                     footprint: Iterable[int], cap: int | None = None) -> FamilyCensus:
    """Census of connected sets meeting every layer before k, intersecting
    layer k in exactly the given vertices, and meeting no layer beyond k.

    The footprint is a nonempty set of vertex indices inside layer k.
    """
    _check_cap(layered.graph.vertex_count, cap)
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


def span_census(layered: LayeredGraph, first: int, span: int,
                cap: int | None = None) -> FamilyCensus:
    """Census of connected sets whose layer support is exactly
    layers first..first+span-1."""
    _check_cap(layered.graph.vertex_count, cap)
    if span < 1:
        raise ValueError("span must be at least 1")
    if not 1 <= first <= layered.n - span + 1:
        raise ValueError(f"layers {first}..{first + span - 1} outside 1..{layered.n}")
    layer_masks = [layered.layer_mask(layer) for layer in range(first, first + span)]
    return _layer_family(layered.graph.adjacency, layer_masks, 0)


def parse_edge_list(text: str, cap: int | None = None) -> SimpleGraph:
    """Graph from edge-list text: one 'u v' pair per line, 0-based vertex
    ids, blank lines and lines starting with '#' ignored.  The vertex
    count is one past the largest id mentioned; a count past the census
    cap is refused before the adjacency rows are allocated."""
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
    _check_cap(top + 1, cap)
    return SimpleGraph(top + 1, edges)
