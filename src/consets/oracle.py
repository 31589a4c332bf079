"""Exhaustive ground truth for small graphs.

Enumerates every nonempty vertex subset of a graph (plain binary counting
over bitmasks), tests connectivity of the induced subgraph, and tallies
counts by size.  Two independent connectivity tests are kept: a flood
fill over packed adjacency rows (fast path) and a union-find over the
subset's internal edges (redundant checker).

The 2^v cost is guarded by an enumeration cap: 22 vertices by default
(about 4M subsets), hard ceiling 26.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

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

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            row = self.adjacency[u] >> (u + 1) << (u + 1)  # keep v > u only
            while row:
                low = row & -row
                row ^= low
                yield u, low.bit_length() - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


@dataclass(frozen=True, slots=True)
class LayeredGraph:
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

    def vertex(self, layer: int, position: int) -> int:
        if not 0 <= position < self.m:
            raise ValueError(f"position {position} outside 0..{self.m - 1}")
        if not 1 <= layer <= self.n:
            raise ValueError(f"layer {layer} outside 1..{self.n}")
        return (layer - 1) * self.m + position


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


def _connected_union_find(adjacency: tuple[int, ...], mask: int) -> bool:
    """Redundant checker: union-find over the subset's internal edges."""
    vertices = []
    scan = mask
    while scan:
        low = scan & -scan
        scan ^= low
        vertices.append(low.bit_length() - 1)
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = len(vertices)
    for u in vertices:
        row = adjacency[u] & mask
        while row:
            low = row & -row
            row ^= low
            w = low.bit_length() - 1
            if w > u:
                ru, rw = find(u), find(w)
                if ru != rw:
                    parent[ru] = rw
                    components -= 1
    return components == 1


_CHECKERS = {"flood": _connected_flood, "union-find": _connected_union_find}


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Connected-set counts of one graph, bucketed by set size."""

    size_counts: tuple[int, ...]

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
    """Count the connected sets of a graph, by size, exhaustively."""
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
    universe = 0
    for mask in earlier:
        universe |= mask
    adjacency = layered.graph.adjacency
    count = 0
    order_sum = 0
    for free in _submasks(universe):
        subset = free | footprint_mask
        if any(not subset & layer for layer in earlier):
            continue
        if _connected_flood(adjacency, subset):
            count += 1
            order_sum += subset.bit_count()
    return FamilyCensus(count=count, order_sum=order_sum)


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
    universe = 0
    for mask in layer_masks:
        universe |= mask
    adjacency = layered.graph.adjacency
    count = 0
    order_sum = 0
    for subset in _submasks(universe):
        if subset == 0 or any(not subset & layer for layer in layer_masks):
            continue
        if _connected_flood(adjacency, subset):
            count += 1
            order_sum += subset.bit_count()
    return FamilyCensus(count=count, order_sum=order_sum)


def parse_edge_list(text: str) -> SimpleGraph:
    """Graph from edge-list text: one 'u v' pair per line, 0-based vertex
    ids, blank lines and lines starting with '#' ignored.  The vertex
    count is one past the largest id mentioned."""
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
    return SimpleGraph(top + 1, edges)
