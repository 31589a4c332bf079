"""Exhaustive census oracle: graphs, connectivity, family counts.

Claims covered:
    - product-graph construction has the right edge counts and layers
    - censuses of tiny graphs match hand listings
    - the two connectivity checkers agree on random subsets
    - footprint families of equal size have equal counts and order sums
    - the census decomposes over layer spans, independent of position
    - census output is invariant under vertex relabeling
    - caps and malformed inputs are refused with clear errors
"""

import random

import pytest

from consets.oracle import (
    _CHECKERS,
    CapExceededError,
    SimpleGraph,
    census,
    complete_path_product,
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
    assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


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
        for _ in range(100):
            mask = rng.randint(1, (1 << v) - 1)
            assert flood(graph.adjacency, mask) == union_find(graph.adjacency, mask)


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
            vertices = [layered.vertex(k, p) for p in range(m)]
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
