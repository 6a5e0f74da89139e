"""Constraint graphs for neighbor-restricted choice processes.

A walk on these graphs may only move from a node to one of its successors.
Every graph carries a self-loop at each node and a symmetric (bidirectional)
neighborhood structure, and must be irreducible: these three properties are
what `validate` checks and what the bundled generators guarantee.

Nodes are addressed with 1-based ids 1..m at the API surface (matching the
experiment conventions used throughout the package); storage is 0-based.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Immutable constraint graph on m nodes.

    `nbrs[k]` is the sorted tuple of 0-based successors of node k. Instances
    are safe to share across concurrently running simulations.
    """

    m: int
    nbrs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("graph needs at least one node")
        if len(self.nbrs) != self.m:
            raise ValueError("neighbor table length != m")
        for i, row in enumerate(self.nbrs):
            for j in row:
                if not 0 <= j < self.m:
                    raise ValueError(f"neighbor {j + 1} of node {i + 1} out of range")

    @cached_property
    def adjacency_bool(self) -> np.ndarray:
        """Boolean (m, m) successor mask; row i marks N(i). Read-only."""
        a = np.zeros((self.m, self.m), dtype=bool)
        for i, row in enumerate(self.nbrs):
            a[i, list(row)] = True
        a.setflags(write=False)
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """|N(i)| per node (self-loop included). Read-only."""
        d = np.array([len(row) for row in self.nbrs], dtype=np.int64)
        d.setflags(write=False)
        return d

    @cached_property
    def uniform_rows(self) -> np.ndarray:
        """Row i = uniform distribution on N(i); the pure-exploration kernel."""
        u = self.adjacency_bool / self.degrees[:, None].astype(float)
        u.setflags(write=False)
        return u

    @cached_property
    def missing_self_loops(self) -> tuple[int, ...]:
        """1-based ids of the nodes without a self-loop, ascending."""
        return tuple(i + 1 for i in range(self.m) if i not in self.nbrs[i])

    @cached_property
    def neighbor_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded neighbor table `(ids, uniform)`, both (m, d_max). Read-only.

        Row i of `ids` lists N(i) sorted and padded with the sentinel m; row i
        of `uniform` is the uniform law on N(i) on the same slots, 1/|N(i)| on
        real slots and 0 on padding. Per-node arrays with a zero column m
        appended read a whole neighborhood with one gather through `ids`.
        """
        rows, cols = np.nonzero(self.adjacency_bool)  # row-major: cols sorted
        deg = np.bincount(rows, minlength=self.m)
        slot = np.arange(rows.size) - (np.cumsum(deg) - deg)[rows]
        ids = np.full((self.m, int(deg.max())), self.m, dtype=np.int64)
        uniform = np.zeros(ids.shape)
        ids[rows, slot] = cols
        uniform[rows, slot] = 1.0 / deg[rows]
        ids.setflags(write=False)
        uniform.setflags(write=False)
        return ids, uniform

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Sorted successor ids of node i, both 1-based."""
        return tuple(j + 1 for j in self.nbrs[i - 1])


def _graph_from_sets(m: int, succ: list[set[int]]) -> Graph:
    return Graph(m, tuple(tuple(sorted(s)) for s in succ))


def from_edges(m: int, edges, repair: bool = True) -> Graph:
    """Build a graph from an undirected 1-based edge list.

    With repair=True (the loader contract) self-loops are added at every node
    and each listed edge is mirrored; with repair=False the edges are taken
    verbatim as directed successors, which is how deliberately broken graphs
    are constructed for validation tests.
    """
    if m < 1:
        raise ValueError("graph needs at least one node")
    succ: list[set[int]] = [set() for _ in range(m)]
    for i, j in edges:
        if not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"edge ({i}, {j}) out of range for m={m}")
        succ[i - 1].add(j - 1)
        if repair:
            succ[j - 1].add(i - 1)
    if repair:
        for k in range(m):
            succ[k].add(k)
    return _graph_from_sets(m, succ)


def make_complete(m: int) -> Graph:
    """Complete graph on m >= 2 nodes, self-loops included."""
    if m < 2:
        raise ValueError("complete graph needs m >= 2")
    all_nodes = tuple(range(m))
    return Graph(m, tuple(all_nodes for _ in range(m)))


def make_linear(m: int) -> Graph:
    """Path graph 1-2-...-m with a self-loop at every node."""
    if m < 2:
        raise ValueError("linear graph needs m >= 2")
    succ = [{k} for k in range(m)]
    for k in range(m - 1):
        succ[k].add(k + 1)
        succ[k + 1].add(k)
    return _graph_from_sets(m, succ)


def make_star(m: int, center: int) -> Graph:
    """Star on m >= 2 nodes with hub `center` (1-based), self-loops included."""
    if m < 2:
        raise ValueError("star graph needs m >= 2")
    if not 1 <= center <= m:
        raise ValueError(f"center {center} out of range for m={m}")
    c = center - 1
    succ = [{k, c} for k in range(m)]
    succ[c] = set(range(m))
    return _graph_from_sets(m, succ)


def make_two_cliques(m1: int, m2: int) -> Graph:
    """Two internally complete cliques joined by one bridge edge.

    Clique 1 occupies nodes 1..m1, clique 2 occupies m1+1..m1+m2, and the
    bridge connects node 1 to node m1+1. Self-loops everywhere.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("clique sizes must be >= 1")
    if m1 + m2 < 2:
        raise ValueError("graph needs at least two nodes")
    m = m1 + m2
    succ = [set() for _ in range(m)]
    for k in range(m1):
        succ[k] = set(range(m1))
    for k in range(m1, m):
        succ[k] = set(range(m1, m))
    succ[0].add(m1)
    succ[m1].add(0)
    return _graph_from_sets(m, succ)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix A with unit diagonal for valid graphs."""
    return g.adjacency_bool.astype(np.int64)


def _reachable_from(g: Graph, start: int) -> np.ndarray:
    seen = np.zeros(g.m, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for j in g.nbrs[i]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return seen


def validate(g: Graph) -> list[str]:
    """Check the three structural invariants; return violations (empty = valid).

    Violations are data, not failures: self-loop presence at every node,
    bidirectional neighborhoods, and irreducibility by full reachability
    search from every node.
    """
    issues: list[str] = []
    if g.m < 2:
        issues.append(f"graph has {g.m} node(s), need at least 2")
    issues += [f"no self-loop at {i}" for i in g.missing_self_loops]
    for i in range(g.m):
        for j in g.nbrs[i]:
            if i not in g.nbrs[j]:
                issues.append(f"edge {i + 1}->{j + 1} is not reciprocated")
    for i in range(g.m):
        seen = _reachable_from(g, i)
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0]) + 1
            issues.append(f"node {missing} not reachable from node {i + 1}")
            break  # one reachability violation is enough to report
    return issues


def to_json_dict(g: Graph) -> dict:
    """Graph description document: {"m": int, "edges": [[i, j], ...]}.

    Edges are emitted once per unordered pair, self-loops omitted (the loader
    restores them).
    """
    edges = []
    for i in range(g.m):
        for j in g.nbrs[i]:
            if j > i:
                edges.append([i + 1, j + 1])
    return {"m": g.m, "edges": edges}


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(g), fh, indent=1)
        fh.write("\n")


def load_graph(path, repair: bool = True) -> tuple[Graph, list[str]]:
    """Load a graph description file.

    Returns (graph, repair_notes). With repair=True self-loops are added and
    symmetry is enforced on load; the notes describe what was fixed relative
    to the raw edge list.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "m" not in doc or "edges" not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'm' and 'edges'")
    m = int(doc["m"])
    edges = [(int(i), int(j)) for i, j in doc["edges"]]

    raw = from_edges(m, edges, repair=False)
    notes: list[str] = []
    if repair:
        fixed = from_edges(m, edges, repair=True)
        for i in range(m):
            if i not in raw.nbrs[i]:
                notes.append(f"added self-loop at {i + 1}")
        for i in range(m):
            for j in raw.nbrs[i]:
                if i not in raw.nbrs[j]:
                    notes.append(f"mirrored edge {i + 1}->{j + 1}")
        return fixed, notes
    return raw, notes
