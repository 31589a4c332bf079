"""Seeded op lists of the three workloads.

An op is one CLI invocation plus what its checker needs.  A workload's
op list is fixed by its seed, and a run repeats that list pass after
pass.  The inputs are stratified so that the work in one pass hardly
depends on the seed: the seed jitters sizes by a few percent, draws the
random graph and shuffles the order, but never trades a cheap input for a
dear one.  Otherwise the spread across seeds would swamp the bound that a
later change is judged against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from check import footprint_matrix

WORKLOADS = ("cell", "sweep", "checks")

#: cell: layer size -> target digits of N.  Four targets sit below CPython's
#: 4300-digit int->str guard and four above it, so the share of cells the
#: guard refuses is the same for every seed.  Each m has a fixed target
#: because the cost at equal digits still depends on m.
CELL_DIGITS = {9: 1500, 4: 2200, 7: 2900, 3: 3600, 10: 4600, 5: 5500, 8: 6400, 6: 7300}
CELL_JITTER = 0.015
#: sweep: layer size -> n_max, sized so each table takes roughly equal time
#: and stays well under the guard.  The ladder length gives about 18 MB of csv.
SWEEP_TABLES = {3: 800, 4: 700, 5: 650, 6: 650, 7: 560, 8: 520}
SWEEP_LADDER = 3800
SWEEP_JITTER = 0.02
#: checks: census cells of 19 and 20 vertices, a random connected graph,
#: and two fixed charpoly sizes.  They are not seeded, because pairs of sizes
#: differ in cost (char_poly at 30 and 40 takes 0.68 s in all, at 35 and 35
#: only 0.40 s, on a 2-vCPU Xeon VM); 30 and 40 give both exit codes of the
#: m mod 4 rule.
CHECK_CENSUS = ((1, 19), (2, 10))
CHECK_GRAPH_VERTICES = 16
CHECK_CHARPOLY = (30, 40)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``n`` is the path length, n_max or ladder length;
    ``edges`` is the edge list of a graph op."""

    kind: str
    m: int = 0
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()

    def argv(self, graph_path: str = "") -> list[str]:
        if self.kind == "cell":
            return ["compute", "--m", str(self.m), "--n", str(self.n), "--format", "json"]
        if self.kind == "setup":
            return ["compute", "--m", str(self.m), "--n", str(self.n)]
        if self.kind == "table":
            return ["table", "--m", str(self.m), "--n-max", str(self.n), "--format", "csv"]
        if self.kind == "ladder":
            return ["ladder", "--n-max", str(self.n), "--format", "csv"]
        if self.kind == "battery":
            return ["verify"]
        if self.kind == "census":
            return ["verify", "--m", str(self.m), "--n", str(self.n)]
        if self.kind == "graph":
            return ["verify", "--graph", graph_path]
        if self.kind == "charpoly":
            return ["charpoly", "--m", str(self.m)]
        raise ValueError(f"unknown op kind {self.kind!r}")

    @property
    def vertex_count(self) -> int:
        return 1 + max(max(edge) for edge in self.edges)


#: The set-up probe: interpreter start, import and argparse, no real work.
SETUP = Op("setup", 1, 1)


def digits_per_layer(m: int) -> float:
    """log10 of the dominant eigenvalue of the footprint matrix."""
    matrix = footprint_matrix(m)
    vector = [1.0] * m
    scale = 1.0
    for _ in range(200):
        vector = [sum(a * x for a, x in zip(row, vector)) for row in matrix]
        scale = max(vector)
        vector = [x / scale for x in vector]
    return math.log10(scale)


def random_graph(rng: random.Random, vertex_count: int) -> tuple[tuple[int, int], ...]:
    """A random spanning tree plus random extra edges, 2v edges in all."""
    order = list(range(vertex_count))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, vertex_count)}
    while len(edges) < 2 * vertex_count:
        edges.add(tuple(sorted(rng.sample(range(vertex_count), 2))))
    return tuple(sorted(edges))


def _jittered(rng: random.Random, size: float, spread: float) -> int:
    return max(1, round(size * (1 + rng.uniform(-spread, spread))))


def build_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"consets-{workload}-{seed}")
    if workload == "cell":
        ops = [Op("cell", m, _jittered(rng, digits / digits_per_layer(m), CELL_JITTER))
               for m, digits in CELL_DIGITS.items()]
    elif workload == "sweep":
        ops = [Op("table", m, _jittered(rng, n_max, SWEEP_JITTER))
               for m, n_max in SWEEP_TABLES.items()]
        ops.append(Op("ladder", 2, _jittered(rng, SWEEP_LADDER, SWEEP_JITTER)))
    elif workload == "checks":
        ops = [Op("battery"), *(Op("census", m, n) for m, n in CHECK_CENSUS),
               Op("graph", edges=random_graph(rng, CHECK_GRAPH_VERTICES)),
               *(Op("charpoly", m) for m in CHECK_CHARPOLY)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def smoke_ops(workload: str, seed: int) -> list[Op]:
    """Tiny inputs reaching every checker of the workload, for self-tests."""
    rng = random.Random(f"consets-smoke-{workload}-{seed}")
    if workload == "cell":
        return [Op("cell", 3, 30), Op("cell", 6, 12), Op("cell", 10, 5)]
    if workload == "sweep":
        return [Op("table", 3, 25), Op("table", 6, 15), Op("ladder", 2, 60)]
    if workload == "checks":
        return [Op("battery"), Op("census", 3, 3), Op("graph", edges=random_graph(rng, 8)),
                Op("charpoly", 5), Op("charpoly", 8)]
    raise ValueError(f"unknown workload {workload!r}")


#: The per-layer group each op kind feeds.  A traced run probes one small
#: reference op for every group its workload does not reach, so that every
#: per-layer metric is present in every traced run.
GROUP = {"cell": "tables", "table": "tables", "ladder": "ladder", "census": "oracle",
         "graph": "oracle", "charpoly": "charpoly", "battery": "verify"}
REFERENCE = {"tables": Op("cell", 6, 1000), "ladder": Op("ladder", 2, 500),
             "oracle": Op("census", 3, 5), "charpoly": Op("charpoly", 16),
             "verify": Op("battery")}


def reference_ops(ops: list[Op]) -> list[Op]:
    reached = {GROUP[op.kind] for op in ops}
    return [op for group, op in REFERENCE.items() if group not in reached]
