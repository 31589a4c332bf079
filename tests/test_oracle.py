"""Exhaustive census oracle: graphs, connectivity, family counts.

Claims covered:
    - product-graph construction has the right edge counts and layers
    - censuses of tiny graphs match hand listings
    - the connected-set enumerator equals both 2^v censuses size for size
      on random graphs of 1-12 vertices, disconnected ones included, and
      equals the engine's (N, S) at cells past the battery's grid
    - the enumerator gives the textbook counts of complete graphs, paths,
      cycles and stars, and counts whole subtrees in closed form (K_26,
      2^26 - 1 sets, takes milliseconds)
    - the two connectivity checkers agree on random subsets
    - the flood's half tables hold the union of every subset of rows, and
      its census equals the union-find census and the enumerator at odd v
      and with isolated top vertices
    - footprint families of equal size have equal counts and order sums
    - the census decomposes over layer spans, independent of position
    - census output is invariant under vertex relabeling
    - caps and malformed inputs are refused with clear errors
"""

import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consets.aggregate import evaluate
from consets.oracle import (
    _CHECKERS,
    _union_table,
    MAX_CAP,
    CapExceededError,
    SimpleGraph,
    census,
    complete_path_product,
    enumerated_census,
    footprint_census,
    parse_edge_list,
    resolve_cap,
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


def test_connectivity_checkers_agree_on_random_subsets():
    rng = random.Random(424242)
    flood, union_find = _CHECKERS["flood"], _CHECKERS["union-find"]
    for _ in range(10):
        v = rng.randint(6, 12)
        edges = [(i, j) for i in range(v) for j in range(i + 1, v)
                 if rng.random() < 0.3]
        graph = SimpleGraph(v, edges)
        flooded, joined = flood(graph.adjacency), union_find(graph.adjacency)
        for _ in range(100):
            mask = rng.randint(1, (1 << v) - 1)
            assert flooded(mask) == joined(mask)


def test_union_table_holds_every_subset_union():
    assert _union_table(()) == [0]
    assert _union_table((1, 2, 4)) == list(range(8))
    rows = (0b0110, 0b1001, 0b0000)
    assert _union_table(rows) == [0, 0b0110, 0b1001, 0b1111, 0, 0b0110, 0b1001, 0b1111]


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


def _clique(v: int) -> SimpleGraph:
    return SimpleGraph(v, [(i, j) for i in range(v) for j in range(i + 1, v)])


@pytest.mark.parametrize("v", [1, 2, 3, 7, 12, 26])
def test_enumerated_census_of_complete_graphs(v):
    # every nonempty subset is connected: C(v, j) sets of order j; at v = 26
    # (2^26 - 1 sets) only the closed-form count of whole subtrees is quick
    report = enumerated_census(_clique(v), cap=MAX_CAP)
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
    no edge at all, so the flood's high table may hold only empty rows."""
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
    # the flood splits odd v into halves of (v+1)/2 and (v-1)/2; the last
    # five examples are a path across the halves, three edges joining them
    # only, an isolated top vertex, a clique beside one and a complete graph
    grown = enumerated_census(graph).size_counts
    assert grown == census(graph, connectivity="flood").size_counts
    assert grown == census(graph, connectivity="union-find").size_counts


@pytest.mark.parametrize("m,n", [(3, 7), (5, 3), (6, 3), (7, 3)])
def test_enumerated_census_equals_engine_past_the_grid(m, n):
    # (5, 3) and (6, 3), the grid's last cells at m = 5 and 6, count 95%
    # and 98% of their sets in closed form; (3, 7) and (7, 3) lie past it
    report = enumerated_census(complete_path_product(m, n).graph)
    result = evaluate(m, n)
    assert (report.count, report.total_order) == (result.count, result.total)


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
    with pytest.raises(CapExceededError, match="enumeration cap"):
        complete_path_product(5, 5, cap=20)
    graph = complete_path_product(4, 3).graph
    with pytest.raises(CapExceededError):
        census(graph, cap=10)
    with pytest.raises(CapExceededError, match="enumeration cap is 10"):
        enumerated_census(graph, cap=10)


def test_resolve_cap_bounds():
    assert resolve_cap(None) == 22
    assert resolve_cap(26) == 26
    with pytest.raises(ValueError):
        resolve_cap(0)
    with pytest.raises(ValueError):
        resolve_cap(27)


def test_resolve_cap_env_var(monkeypatch):
    # the cap is set by the argument alone; CONSETS_ORACLE_CAP is not read
    monkeypatch.setenv("CONSETS_ORACLE_CAP", "8")
    assert resolve_cap(None) == 22
    assert complete_path_product(3, 3).graph.vertex_count == 9
    monkeypatch.setenv("CONSETS_ORACLE_CAP", "not-a-number")
    assert resolve_cap(None) == 22
    assert resolve_cap(8) == 8


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
