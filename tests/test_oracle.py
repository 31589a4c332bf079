"""Exhaustive census oracle: graphs, connectivity, family counts.

Claims covered:
    - product-graph construction has the right edge counts and layers
    - censuses of tiny graphs match hand listings
    - the connected-set enumerator equals both 2^v censuses size for size
      on random graphs of 1-12 vertices, disconnected ones included, and
      equals the engine's (N, S) at cells past the battery's grid
    - the enumerator gives the textbook counts of complete graphs, paths,
      cycles and stars, and counts whole subtrees in closed form (K_26,
      2^26 - 1 sets, takes milliseconds); with its memo of subtree counts
      it equals the engine at 24-vertex cells and at (2, 13), 26 vertices,
      the first m = 2 cell the engine jumps to
    - the enumerator allocates no per-graph tables: its traced peak on the
      26-vertex path and on K_26 stays under 256 KiB
    - the sliced flood's connectivity bitmaps agree with union-find on
      every subset, bit by bit, in one chunk and in many
    - the sliced flood's member and size masks are the bit-sliced
      membership and size tests; its census equals the union-find census
      in any number of chunks, at v = 1, at odd v and with isolated top
      vertices, and the enumerator on a tree, a 4-wide grid and a dense
      graph of 21-24 vertices, which take several chunks of 2^20 subsets
    - footprint families of equal size have equal counts and order sums
    - the census decomposes over layer spans, independent of position
    - census output is invariant under vertex relabeling
    - every census route refuses a graph above 26 vertices; census's cap
      slot takes only None, and any other value is refused, since no
      census takes another limit; malformed inputs are refused with clear
      errors
"""

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consets.aggregate import evaluate
from consets.oracle import (
    _connected_chunks,
    _connected_union_find,
    _flood_sizes,
    _member_masks,
    _size_masks,
    MAX_CAP,
    CapExceededError,
    LayeredGraph,
    SimpleGraph,
    census,
    complete_path_product,
    enumerated_census,
    footprint_census,
    parse_edge_list,
    span_census,
)


# -- construction ----------------------------------------------------------------

def test_four_cycle_construction():
    layered = complete_path_product(2, 2)
    graph = layered.graph
    assert graph.vertex_count == 4
    assert graph.edge_count == 4
    # edges 0-1, 0-2, 1-3 and 2-3, as bitmask adjacency rows
    assert graph.adjacency == (0b0110, 0b1001, 0b1001, 0b0110)


def test_prism_and_figure_graph():
    prism = complete_path_product(3, 2)
    assert prism.graph.edge_count == 9
    three_by_three = complete_path_product(3, 3)
    assert three_by_three.graph.vertex_count == 9
    assert three_by_three.graph.edge_count == 15


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_edge_count_formula(m, n):
    layered = complete_path_product(m, n)
    assert layered.graph.edge_count == n * m * (m - 1) // 2 + (n - 1) * m


def test_layer_masks_partition_vertices():
    layered = complete_path_product(3, 4)
    union = 0
    for layer in range(1, 5):
        mask = layered.layer_mask(layer)
        assert mask.bit_count() == 3
        assert union & mask == 0
        union |= mask
    assert union == (1 << 12) - 1


def test_loops_and_bad_edges_rejected():
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside"):
        SimpleGraph(3, [(0, 3)])


# -- census ------------------------------------------------------------------------

def test_census_single_edge():
    report = census(complete_path_product(2, 1).graph)
    assert report.size_counts == (2, 1)
    assert report.count == 3
    assert report.total_order == 4


def test_census_four_cycle():
    report = census(complete_path_product(2, 2).graph)
    assert report.size_counts == (4, 4, 4, 1)
    assert report.count == 13
    assert report.total_order == 28


def test_census_prism():
    report = census(complete_path_product(3, 2).graph)
    assert report.size_counts == (6, 9, 14, 15, 6, 1)
    assert report.count == 51
    assert report.total_order == 162


def test_census_checkers_agree_on_structured_graphs():
    for m, n in ((2, 3), (3, 2), (4, 2)):
        graph = complete_path_product(m, n).graph
        assert census(graph).size_counts == census(graph, connectivity="union-find").size_counts


def _clique(v: int) -> SimpleGraph:
    return SimpleGraph(v, [(i, j) for i in range(v) for j in range(i + 1, v)])


def _random_graph(rng: random.Random, v: int, density: float) -> SimpleGraph:
    return SimpleGraph(v, [(i, j) for i in range(v) for j in range(i + 1, v)
                           if rng.random() < density])


def _bitmap_agrees_with_union_find(graph: SimpleGraph, chunk_bits: int) -> None:
    adjacency = graph.adjacency
    bits = min(graph.vertex_count, chunk_bits)
    firsts = []
    for first, connected in _connected_chunks(adjacency, chunk_bits):
        firsts.append(first)
        assert connected >> (1 << bits) == 0  # no bit past the chunk
        for low in range(1 << bits):
            mask = first | low
            assert connected >> low & 1 == (mask != 0 and _connected_union_find(adjacency, mask))
    assert firsts == [high << bits for high in range(1 << (graph.vertex_count - bits))]


def test_connectivity_bitmap_agrees_with_union_find_on_every_subset():
    rng = random.Random(424242)
    for _ in range(10):
        _bitmap_agrees_with_union_find(_random_graph(rng, rng.randint(6, 12), 0.3), 20)


@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 5])
def test_connectivity_bitmap_agrees_with_union_find_in_many_chunks(chunk_bits):
    rng = random.Random(chunk_bits)
    for v in (1, 4, 7, 9):
        _bitmap_agrees_with_union_find(_random_graph(rng, v, 0.4), chunk_bits)
    # the vertices above the chunk include a path and an isolated vertex
    _bitmap_agrees_with_union_find(SimpleGraph(8, [(0, 5), (5, 6), (1, 2), (2, 3)]), chunk_bits)


def test_member_and_size_masks_slice_the_subsets():
    assert _member_masks(0) == [] and _size_masks(0) == [1]
    assert _member_masks(2) == [0b1010, 0b1100]
    assert _size_masks(2) == [0b0001, 0b0110, 0b1000]
    members, sizes = _member_masks(5), _size_masks(5)
    for subset in range(32):
        assert [member >> subset & 1 for member in members] == [
            subset >> u & 1 for u in range(5)]
        assert [size >> subset & 1 for size in sizes] == [
            int(subset.bit_count() == j) for j in range(6)]


@pytest.mark.parametrize("graph", [
    SimpleGraph(1, []),
    SimpleGraph(2, [(0, 1)]),
    SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
    SimpleGraph(9, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # five isolated top vertices
    SimpleGraph(9, [(0, 8), (1, 7), (2, 6)]),
    _clique(5),
], ids=["v=1", "edge", "path-7", "isolated-top", "across", "K5"])
def test_sliced_census_in_any_number_of_chunks(graph):
    expected = census(graph, connectivity="union-find").size_counts
    for chunk_bits in range(1, graph.vertex_count + 2):
        assert tuple(_flood_sizes(graph.adjacency, chunk_bits)) == expected


def _tree(v: int) -> SimpleGraph:
    rng = random.Random(v)
    return SimpleGraph(v, [(rng.randrange(u), u) for u in range(1, v)])


def _four_wide_grid(rows: int) -> SimpleGraph:
    edges = [(u, u + 1) for u in range(4 * rows) if u % 4 != 3]
    return SimpleGraph(4 * rows, edges + [(u, u + 4) for u in range(4 * rows - 4)])


@pytest.mark.parametrize("graph", [
    _tree(21), _four_wide_grid(6), _random_graph(random.Random(22), 22, 0.7),
], ids=["tree-21", "grid-4x6", "dense-22"])
def test_both_routes_agree_past_one_chunk(graph):
    assert graph.vertex_count > 20  # several chunks of 2^20 subsets
    grown = enumerated_census(graph).size_counts
    assert census(graph).size_counts == grown
    assert sum(grown[:2]) == graph.vertex_count + graph.edge_count


def test_census_deterministic_under_relabeling():
    rng = random.Random(99)
    v = 10
    edges = [(i, j) for i in range(v) for j in range(i + 1, v) if rng.random() < 0.35]
    baseline = census(SimpleGraph(v, edges))
    for _ in range(5):
        perm = list(range(v))
        rng.shuffle(perm)
        relabeled = SimpleGraph(v, [(perm[u], perm[w]) for u, w in edges])
        assert census(relabeled).size_counts == baseline.size_counts


# -- enumerated census -------------------------------------------------------------

def test_enumerated_census_hand_listings():
    assert enumerated_census(SimpleGraph(1, [])).size_counts == (1,)
    assert enumerated_census(complete_path_product(2, 2).graph).size_counts == (4, 4, 4, 1)
    assert enumerated_census(complete_path_product(3, 2).graph).size_counts == (6, 9, 14, 15, 6, 1)
    # two isolated vertices beside a triangle: no set spans components
    assert enumerated_census(SimpleGraph(5, [(2, 3), (3, 4), (2, 4)])).size_counts == (5, 3, 1, 0, 0)


@pytest.mark.parametrize("v", [1, 2, 3, 7, 12, 26])
def test_enumerated_census_of_complete_graphs(v):
    # every nonempty subset is connected: C(v, j) sets of order j; at v = 26
    # (2^26 - 1 sets) only the closed-form count of whole subtrees is quick
    report = enumerated_census(_clique(v))
    assert report.size_counts == tuple(comb(v, j) for j in range(1, v + 1))


@pytest.mark.parametrize("v", range(1, 13))
def test_enumerated_census_of_paths(v):
    # a connected set of a path is an interval: v - j + 1 of length j
    report = enumerated_census(SimpleGraph(v, [(i, i + 1) for i in range(v - 1)]))
    assert report.size_counts == tuple(v - j + 1 for j in range(1, v + 1))


@pytest.mark.parametrize("v", range(3, 13))
def test_enumerated_census_of_cycles(v):
    # an arc of j < v vertices starts at any of the v vertices; the whole
    # cycle is one set
    report = enumerated_census(SimpleGraph(v, [(i, (i + 1) % v) for i in range(v)]))
    assert report.size_counts == (v,) * (v - 1) + (1,)


@pytest.mark.parametrize("v", range(2, 13))
@pytest.mark.parametrize("centre", ["first", "last"])
def test_enumerated_census_of_stars(v, centre):
    # K_{1,v-1}: v single vertices, then the centre with any j - 1 leaves
    hub = 0 if centre == "first" else v - 1
    report = enumerated_census(SimpleGraph(v, [(hub, leaf) for leaf in range(v) if leaf != hub]))
    assert report.size_counts == (v,) + tuple(comb(v - 1, j - 1) for j in range(2, v + 1))


@st.composite
def small_graphs(draw) -> SimpleGraph:
    """Any simple graph on 1..12 vertices, sparse ones (hence disconnected
    ones and isolated vertices) included; its top 0..v-1 vertices may have
    no edge at all."""
    v = draw(st.integers(1, 12))
    core = v - draw(st.integers(0, v - 1))
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph(v, edges)


@settings(deadline=None)
@given(graph=small_graphs())
@example(graph=SimpleGraph(1, []))
@example(graph=SimpleGraph(6, []))
@example(graph=SimpleGraph(8, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)]))
@example(graph=SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]))
@example(graph=SimpleGraph(9, [(0, 8), (1, 7), (2, 6)]))
@example(graph=SimpleGraph(5, [(0, 1), (1, 2), (2, 3)]))
@example(graph=SimpleGraph(11, [(i, j) for i in range(10) for j in range(i + 1, 10)]))
@example(graph=_clique(9))
def test_enumerated_census_equals_both_checkers(graph):
    # the examples cover isolated vertices (a lone one, six, one beside a
    # clique), disjoint components (a path beside a triangle, three
    # separate edges), paths, where R = F only at the last vertex, and
    # cliques, where R = F at the root and the closed form counts the rest
    grown = enumerated_census(graph).size_counts
    assert grown == census(graph, connectivity="flood").size_counts
    assert grown == census(graph, connectivity="union-find").size_counts


@pytest.mark.parametrize("m,n", [
    (3, 7), (5, 3), (6, 3), (7, 3), (3, 8), (4, 6), (6, 4), (2, 13),
])
def test_enumerated_census_equals_engine_past_the_grid(m, n):
    # (5, 3) and (6, 3) are the grid's last cells at m = 5 and 6, and
    # (2, 13), n = 4m+5, the first m = 2 cell that ``evaluate`` jumps to,
    # is the last at m = 2; the others lie past the grid, up to 24
    # vertices and 1.05·10^7 sets at (6, 4), which the memo of subtree
    # counts reaches in milliseconds
    report = enumerated_census(complete_path_product(m, n).graph)
    result = evaluate(m, n)
    assert (report.count, report.total_order) == (result.count, result.total)


@pytest.mark.parametrize("graph", [
    SimpleGraph(MAX_CAP, [(i, i + 1) for i in range(MAX_CAP - 1)]), _clique(MAX_CAP),
], ids=["path-26", "clique-26"])
def test_enumerated_census_peak_memory_stays_small(graph):
    # R grows by neighbour rows, so memory follows the search: no table of
    # neighbour unions grows with 2^(v/2)
    tracemalloc.start()
    try:
        enumerated_census(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


# -- families ------------------------------------------------------------------------

def test_footprint_census_examples():
    single = complete_path_product(2, 1)
    assert footprint_census(single, 1, [0]) == (1, 1)
    square = complete_path_product(2, 2)
    assert footprint_census(square, 2, [2, 3]).count == 3


def test_footprint_families_depend_only_on_size():
    from itertools import combinations
    for m in range(2, 5):
        for k in range(1, 5):
            layered = complete_path_product(m, k)
            vertices = [(k - 1) * m + p for p in range(m)]  # layer k
            for size in range(1, m + 1):
                results = {footprint_census(layered, k, fp)
                           for fp in combinations(vertices, size)}
                assert len(results) == 1  # same count and same order sum


def test_footprint_validation():
    layered = complete_path_product(3, 2)
    with pytest.raises(ValueError, match="nonempty"):
        footprint_census(layered, 2, [])
    with pytest.raises(ValueError, match="not in layer"):
        footprint_census(layered, 2, [0])
    with pytest.raises(ValueError, match="outside"):
        footprint_census(layered, 3, [0])


def test_census_decomposes_over_spans():
    for m, n in ((1, 10), (2, 7), (3, 4), (4, 3)):
        layered = complete_path_product(m, n)
        report = census(layered.graph)
        total = 0
        for span in range(1, n + 1):
            per_position = {span_census(layered, first, span).count
                            for first in range(1, n - span + 2)}
            assert len(per_position) == 1  # translation invariance
            total += (n + 1 - span) * per_position.pop()
        assert total == report.count


def test_span_census_validation():
    layered = complete_path_product(2, 3)
    with pytest.raises(ValueError):
        span_census(layered, 3, 2)
    with pytest.raises(ValueError):
        span_census(layered, 1, 0)


# -- caps ----------------------------------------------------------------------------

def test_cap_refusals():
    # every census route refuses 27 vertices with the one limit, 26
    refused = "graph has 27 vertices; enumeration cap is 26$"
    path = SimpleGraph(MAX_CAP + 1, [(i, i + 1) for i in range(MAX_CAP)])
    layered = LayeredGraph(path, 1, MAX_CAP + 1)
    with pytest.raises(CapExceededError, match=refused):
        complete_path_product(3, 9)
    with pytest.raises(CapExceededError, match=refused):
        complete_path_product(1, MAX_CAP + 1)
    with pytest.raises(CapExceededError, match=refused):
        census(path, None)
    with pytest.raises(CapExceededError, match=refused):
        census(path, connectivity="union-find")
    with pytest.raises(CapExceededError, match=refused):
        enumerated_census(path)
    with pytest.raises(CapExceededError, match=refused):
        footprint_census(layered, 1, [0])
    with pytest.raises(CapExceededError, match=refused):
        span_census(layered, 1, 1)
    with pytest.raises(CapExceededError, match=refused):
        parse_edge_list("0 26\n")


def test_census_takes_no_cap():
    # the cap slot stays for callers that pass None by position; a value
    # there would promise a limit that no census keeps
    cell = complete_path_product(4, 3).graph  # 12 vertices
    refused = f"^census takes no cap: every census refuses a graph above {MAX_CAP} vertices$"
    for cap in (10, 30):
        with pytest.raises(ValueError, match=refused):
            census(cell, cap)
    assert census(cell, None, "union-find").size_counts == enumerated_census(cell).size_counts


# -- edge-list parsing -----------------------------------------------------------------

def test_parse_edge_list_roundtrip():
    text = "# a square\n0 1\n1 2\n\n2 3\n3 0\n"
    graph = parse_edge_list(text)
    assert graph.vertex_count == 4
    assert census(graph).size_counts == (4, 4, 4, 1)


def test_parse_edge_list_errors():
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# nothing\n")
    with pytest.raises(ValueError, match="loop"):
        parse_edge_list("1 1\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_edge_list("-1 0\n")
