"""Dual graphs of semistable models and their cycle-space pairing.

Vertices carry component genera; oriented edges stand for the double points,
one stored representative per {edge, reversed edge} pair.  Loops and parallel
edges are allowed.  The first homology of the graph carries an integral
positive definite pairing (the monodromy pairing): the restriction of the
coordinatewise edge inner product to the cycle space.  Its discriminant is
the number of spanning trees (Bacher, de la Harpe and Nagnibeda 1997), which
the matrix-tree theorem computes from the Laplacian alone.  One union-find
spanning tree gives connectivity (|V| - 1 tree edges) and the fundamental
cycles e + R(tail) - R(head), R(v) the signed tree path from the first
vertex to v, as sparse supports; the Gram matrix is summed over them.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import GraphError
from .exact_linalg import QMatrix, det


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
        if len(_spanning_tree(self)) < len(self.vertices) - 1:
            raise GraphError("disconnected graph")

    @staticmethod
    def build(vertices: Sequence, edges: Sequence) -> "DualGraph":
        """From (id, genus) and (id, tail, head) tuples."""
        return DualGraph(
            tuple(Vertex(str(i), int(g)) for i, g in vertices),
            tuple(Edge(str(i), str(t), str(h)) for i, t, h in edges),
        )

    def total_genus(self) -> int:
        return sum(v.genus for v in self.vertices)


def betti_one(g: DualGraph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


def _spanning_tree(g: DualGraph) -> set:
    """Edge ids of the spanning forest grown over edges in ascending id
    order: |V| - 1 of them exactly when g is connected."""
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


def _fundamental_cycles(g: DualGraph) -> list:
    """{edge index: coefficient} per non-tree edge e, by ascending id of e:
    e + R(tail) - R(head), R(v) the chain of parent steps from v up to the
    first vertex.  Climbing the deeper end until the two meet skips the
    shared prefix, which cancels, so the cycle does not depend on the root."""
    tree = _spanning_tree(g)
    adj = {v.id: [] for v in g.vertices}
    for k, e in enumerate(g.edges):
        if e.id in tree:
            adj[e.tail].append((e.head, k, 1))
            adj[e.head].append((e.tail, k, -1))
    root = g.vertices[0].id
    up, depth = {root: None}, {root: 0}  # up[v]: (parent, edge index, sign)
    stack = [root]
    while stack:
        u = stack.pop()
        for w, k, sgn in adj[u]:
            if w not in up:
                up[w] = (u, k, sgn)
                depth[w] = depth[u] + 1
                stack.append(w)
    cycles = []
    for k, e in sorted(enumerate(g.edges), key=lambda ke: ke[1].id):
        if e.id in tree:
            continue
        cycle = {k: 1}
        a, b, side = e.tail, e.head, 1
        while a != b:
            if depth[a] < depth[b]:
                a, b, side = b, a, -side
            a, j, sgn = up[a]
            cycle[j] = side * sgn
        cycles.append(cycle)
    return cycles


def cycle_basis(g: DualGraph) -> tuple:
    """The fundamental cycles of :func:`monodromy_gram` as dense vectors
    indexed by the graph's stored edge order, in ascending order of their
    defining non-tree edge (coefficient +1 there)."""
    n = len(g.edges)
    return tuple(tuple(c.get(k, 0) for k in range(n)) for c in _fundamental_cycles(g))


def monodromy_gram(g: DualGraph) -> QMatrix:
    """Gram matrix of the edge pairing on the fundamental cycle basis: each
    edge e adds c_i(e) c_j(e) to entry (i, j) for every two cycles through
    it, so the work is the sum over edges of (cycles through e)^2."""
    cycles = _fundamental_cycles(g)
    through = {}  # edge index -> [(cycle, coefficient)]
    for i, cycle in enumerate(cycles):
        for k, c in cycle.items():
            through.setdefault(k, []).append((i, c))
    rows = [[0] * len(cycles) for _ in cycles]
    for pairs in through.values():
        for i, a in pairs:
            for j, b in pairs:
                rows[i][j] += a * b
    return QMatrix.from_rows(rows) if cycles else QMatrix(0, 0, ())


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
