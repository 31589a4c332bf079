"""Ground truth for small graphs: connected sets counted by size, two ways.

``enumerated_census`` grows the connected sets themselves (the ESU scheme
of Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
2006), at O(v) for each set it grows, so O(N·v) at most for N connected
sets.  A subtree of the search that can only add frontier vertices is
counted in closed form instead of grown, which covers 98% of the sets at
(6, 3) and all but 99 of K_26's.  ``verify --m --n`` and the battery's
grid compare the engine with it.

``census`` enumerates every nonempty vertex subset (plain binary counting
over bitmasks), tests connectivity of the induced subgraph, and tallies
counts by size, at O(2^v·v).  Two independent connectivity tests are kept: a flood
fill that grows a whole breadth-first layer per round through two
per-graph tables of neighbour unions, one for each half of the vertex
set, and a union-find over the subset's internal edges.  ``verify
--graph`` compares the enumerator with the flood census, so every census
answer is computed twice.

Both routes take the same enumeration cap on vertices: 22 by default
(about 4M subsets for ``census``), hard ceiling 26.  K_m × P_n has few
connected sets, 23,637 of the 2^20 subsets at (2, 10), where the
enumerator takes 0.012 s and the flood census 0.57 s; the battery's
grid of 51 cells, engine included, takes 0.11 s (2-vCPU VM, CPython
3.11, in-process medians of 7).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

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


def _union_table(rows: tuple[int, ...]) -> list[int]:
    """The union of every subset of the rows, indexed by the subset's
    bitmask over them: 2^len(rows) entries, one OR each."""
    table = [0]
    for row in rows:
        table += [union | row for union in table]
    return table


def _half_tables(adjacency: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """The neighbour union of every subset of the low and of the high
    half of the vertices (2^ceil(v/2) entries at most), with the size of
    the low half: the union over a vertex set X is
    ``low[X & (1 << half) - 1] | high[X >> half]``, two lookups."""
    half = (len(adjacency) + 1) // 2
    return half, _union_table(adjacency[:half]), _union_table(adjacency[half:])


def _flood(adjacency: tuple[int, ...]) -> Callable[[int], bool]:
    """A connectivity test for subsets of one graph: flood fill from the
    subset's lowest vertex, one breadth-first layer per round.

    The half tables, built once, give the neighbour union of the whole
    reached set in two lookups, whatever its size, so a round grows it by
    a breadth-first layer; the flood stops when a round adds nothing.
    """
    half, low, high = _half_tables(adjacency)
    low_mask = (1 << half) - 1

    def connected(mask: int) -> bool:
        reached = mask & -mask
        while True:
            grown = (low[reached & low_mask] | high[reached >> half] | reached) & mask
            if grown == reached:
                return reached == mask
            reached = grown

    return connected


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


#: Connectivity checkers by name; each takes a graph's adjacency rows and
#: returns the test of one vertex subset.
_CHECKERS = {"flood": _flood,
             "union-find": lambda adjacency: partial(_connected_union_find, adjacency)}


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
    connected = _CHECKERS[connectivity](graph.adjacency)
    counts = [0] * graph.vertex_count
    for mask in range(1, 1 << graph.vertex_count):
        if connected(mask):
            counts[mask.bit_count() - 1] += 1
    return CensusReport(size_counts=tuple(counts))


def enumerated_census(graph: SimpleGraph, cap: int | None = None) -> CensusReport:
    """Count the connected sets of a graph, by size, by growing each one.

    A set S is rooted at its smallest vertex r and grown one frontier
    vertex at a time.  ``blocked`` (B) holds S, every vertex up to r,
    and the frontier vertices that earlier siblings branched on; so each
    connected set is reached along exactly one path of the stack, and
    the frontier F is always N(S) ∖ B, the neighbours of S not blocked.

    The subtree below (S, F, B) holds the connected sets that contain S
    and avoid B ∖ S.  When no vertex of F has a neighbour outside B ∪ F
    (two lookups in the flood's half tables of neighbour unions), those
    sets are exactly S ∪ U for the 2^|F| subsets U of F, so such a child
    is counted in closed form, C(|F|, j) sets of order |S| + j, and never
    pushed.  A child whose frontier is empty is the case |F| = 0, one set.
    """
    _check_cap(graph.vertex_count, cap)
    adjacency = graph.adjacency
    half, low_table, high_table = _half_tables(adjacency)
    low_mask = (1 << half) - 1
    binomials = [[comb(k, j) for j in range(k + 1)] for k in range(graph.vertex_count)]
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
                if (low_table[grown & low_mask] | high_table[grown >> half]) & ~(blocked | grown):
                    stack.append((size + 1, grown, blocked))
                else:
                    for order, sets in enumerate(binomials[grown.bit_count()], start=size + 1):
                        counts[order] += sets
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
    connected = _flood(adjacency)
    count = 0
    order_sum = 0
    for free in _submasks(universe):
        subset = free | required
        if all(subset & layer for layer in layers) and connected(subset):
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
