"""Dual graphs of semistable models and their cycle-space pairing.

Vertices carry component genera; oriented edges stand for the double points,
one stored representative per {edge, reversed edge} pair.  Loops and parallel
edges are allowed.  The first homology of the graph carries an integral
positive definite pairing (the monodromy pairing): the restriction of the
coordinatewise edge inner product to the cycle space.  Its discriminant is
the number of spanning trees (Bacher, de la Harpe and Nagnibeda 1997), which
the matrix-tree theorem computes from the Laplacian alone.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import GraphError
from .exact_linalg import QMatrix, as_rational, det


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class DualGraph:
    """Connected graph with genus-labelled vertices and oriented edges."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        if not self.vertices:
            raise GraphError("graph must have at least one vertex")
        vids = [v.id for v in self.vertices]
        if len(set(vids)) != len(vids):
            raise GraphError("duplicate vertex id")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge id")
        vset = set(vids)
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise GraphError(f"edge {e.id} references a missing vertex")
        for v in self.vertices:
            if v.genus < 0:
                raise GraphError(f"vertex {v.id} has negative genus")
        if not self._is_connected():
            raise GraphError("disconnected graph")

    @staticmethod
    def build(vertices: Sequence, edges: Sequence) -> "DualGraph":
        """From (id, genus) and (id, tail, head) tuples."""
        return DualGraph(
            tuple(Vertex(str(i), int(g)) for i, g in vertices),
            tuple(Edge(str(i), str(t), str(h)) for i, t, h in edges),
        )

    def _is_connected(self) -> bool:
        adj = {v.id: set() for v in self.vertices}
        for e in self.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        seen = {self.vertices[0].id}
        stack = [self.vertices[0].id]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def total_genus(self) -> int:
        return sum(v.genus for v in self.vertices)


def betti_one(g: DualGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree, as edge-indexed integer vectors.

    ``edge_ids`` fixes the coordinate order (the graph's stored edge order);
    cycle k has coefficient +1 on its defining non-tree edge.
    """

    edge_ids: tuple
    cycles: tuple

    def __post_init__(self):
        for c in self.cycles:
            if len(c) != len(self.edge_ids):
                raise ValueError("cycle vector length mismatch")


def _spanning_tree(g: DualGraph) -> set:
    """Edge ids of the spanning tree chosen by ascending edge id."""
    parent = {v.id: v.id for v in g.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e in sorted(g.edges, key=lambda e: e.id):
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            tree.add(e.id)
    return tree


def cycle_basis(g: DualGraph) -> CycleBasis:
    """One fundamental cycle per non-tree edge, deterministic.

    The tree is grown over edges in ascending id order; cycles are listed in
    ascending order of their defining non-tree edge.
    """
    tree_ids = _spanning_tree(g)
    index = {e.id: k for k, e in enumerate(g.edges)}
    adj = {v.id: [] for v in g.vertices}
    for e in g.edges:
        if e.id in tree_ids:
            adj[e.tail].append((e.head, e.id, 1))
            adj[e.head].append((e.tail, e.id, -1))

    def tree_path(src: str, dst: str) -> list:
        """(edge id, sign) steps from src to dst inside the tree."""
        prev = {src: None}
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                break
            for w, eid, sgn in adj[u]:
                if w not in prev:
                    prev[w] = (u, eid, sgn)
                    stack.append(w)
        steps = []
        u = dst
        while prev[u] is not None:
            u, eid, sgn = prev[u]
            steps.append((eid, sgn))
        steps.reverse()
        return steps

    cycles = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in tree_ids:
            continue
        vec = [0] * len(g.edges)
        vec[index[e.id]] = 1
        for eid, sgn in tree_path(e.head, e.tail):
            vec[index[eid]] += sgn
        cycles.append(tuple(vec))
    return CycleBasis(tuple(e.id for e in g.edges), tuple(cycles))


def edge_pairing(x: Sequence, y: Sequence):
    """Bilinear pairing on edge vectors: (e, e) = 1, (e, reverse e) = -1.

    With one stored orientation per edge this is the coordinatewise inner
    product.
    """
    if len(x) != len(y):
        raise ValueError("edge vectors have different lengths")
    return as_rational(sum(a * b for a, b in zip(x, y)))


def monodromy_gram(g: DualGraph) -> QMatrix:
    """Gram matrix of the edge pairing on the fundamental cycle basis."""
    basis = cycle_basis(g).cycles
    return QMatrix.from_rows(
        [[edge_pairing(a, b) for b in basis] for a in basis]
    ) if basis else QMatrix(0, 0, ())


def spanning_tree_count(g: DualGraph) -> int:
    """Number of spanning trees, by Kirchhoff's matrix-tree theorem: any
    cofactor of the Laplacian.  Loops are dropped; parallel edges count
    separately."""
    index = {v.id: k for k, v in enumerate(g.vertices)}
    n = len(index)
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for e in g.edges:
        a, b = index[e.tail], index[e.head]
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    return det(QMatrix.from_rows([row[1:] for row in lap[1:]]))
