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

The spanning trees are counted as the determinant of the Laplacian with the
row and column of a largest-degree vertex, the root, struck out.  That
cofactor is eliminated as a sparse matrix, one vertex at a time in
minimum-degree order (George and Liu, "Computer Solution of Large Sparse
Positive Definite Systems", 1981), so a leaf costs one update and a tree
costs O(V) updates, not the O(V^3) of a dense pass.  The arithmetic is
modulo the least Mersenne prime P = 2^k - 1 above the bound
B = prod deg(v) over the vertices v other than the root, loops not
counted.  The cofactor of a connected graph is positive definite, so by
Hadamard's inequality each of its principal minors is positive and at most
the product of its diagonal entries, the degrees, hence at most B < P.  Each
pivot is a ratio of two such minors, so none vanishes mod P, and the count
itself lies in (0, B], so its residue mod P is the count.  A graph whose
bound exceeds the largest listed prime is refused when it is built.  The
count shares no kernel with the determinant of the Gram matrix it is
compared with.
"""

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import prod
from typing import Sequence

from ._record import Record
from .errors import GraphError, clipped
from .exact_linalg import QMatrix

# Exponents k of the Mersenne primes 2^k - 1 up to 2^4423 - 1 (OEIS A000043).
# The largest holds the bound of a random tree on about 5800 vertices.
MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
                      2203, 2281, 3217, 4253, 4423)


class Vertex(Record):
    _fields = ("id", "genus")

    def __init__(self, id: str, genus: int):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "genus", genus)


class Edge(Record):
    _fields = ("id", "tail", "head")

    def __init__(self, id: str, tail: str, head: str):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "head", head)


class DualGraph(Record):
    """Connected graph with genus-labelled vertices and oriented edges."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple, edges: tuple):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        if not vertices:
            raise GraphError("graph must have at least one vertex")
        vids = [v.id for v in vertices]
        if len(set(vids)) != len(vids):
            raise GraphError("duplicate vertex id")
        eids = [e.id for e in edges]
        if len(set(eids)) != len(eids):
            raise GraphError("duplicate edge id")
        vset = set(vids)
        for e in edges:
            if e.tail not in vset or e.head not in vset:
                raise GraphError(f"edge {clipped(e.id)} references a missing vertex")
        for v in vertices:
            if v.genus < 0:
                raise GraphError(f"vertex {clipped(v.id)} has negative genus")
        # the fields are set first: the spanning tree and the modulus read them
        if len(self.tree) < len(vertices) - 1:
            raise GraphError("disconnected graph")
        self.kirchhoff_modulus  # found now: refuses a graph no listed prime can count

    @cached_property
    def kirchhoff_modulus(self) -> tuple:
        """(root, P) of :func:`spanning_tree_count`: the index of the first
        vertex of largest degree, and the least Mersenne prime above the
        product B of the other degrees.  GraphError if B exceeds them all."""
        index = {v.id: k for k, v in enumerate(self.vertices)}
        degree = [0] * len(index)
        for e in self.edges:
            a, b = index[e.tail], index[e.head]
            if a != b:
                degree[a] += 1
                degree[b] += 1
        root = degree.index(max(degree))
        bound = prod(degree[:root]) * prod(degree[root + 1:])
        for k in MERSENNE_EXPONENTS:
            if (1 << k) - 1 > bound:
                return root, (1 << k) - 1
        raise GraphError(
            f"graph has a spanning-tree bound prod deg(v) of {bound.bit_length()} bits; "
            f"the largest modulus is 2^{MERSENNE_EXPONENTS[-1]} - 1"
        )

    @cached_property
    def tree(self) -> frozenset:
        """Edge ids of :func:`_spanning_tree`, grown once: the connectivity
        check above and the fundamental cycles read the same tree."""
        return _spanning_tree(self)

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


def _spanning_tree(g: DualGraph) -> frozenset:
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
    return frozenset(tree)


def _fundamental_cycles(g: DualGraph) -> list:
    """{edge index: coefficient} per non-tree edge e, by ascending id of e:
    e + R(tail) - R(head), R(v) the chain of parent steps from v up to the
    first vertex.  Climbing the deeper end until the two meet skips the
    shared prefix, which cancels, so the cycle does not depend on the root."""
    tree = g.tree
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
    """Number of spanning trees, by Kirchhoff's matrix-tree theorem: the
    Laplacian cofactor at the root of :attr:`DualGraph.kirchhoff_modulus`,
    eliminated modulo its prime P in minimum-degree order (module
    docstring).  Loops are dropped; parallel edges count separately.

    The cofactor is kept as one dict of off-diagonal entries per row, plus
    the diagonal.  Eliminating vertex k with pivot c subtracts M_ik / c
    times row k from the row of each neighbour i, and the count is the
    product of the pivots.  A pivot of 1, as a leaf of a tree has, needs
    no inversion.  As 2^k = 1 mod P, a product is reduced by adding
    its bits above k to its low k bits, twice, with no division; entries
    are then congruent to the true ones, not reduced.
    """
    root, prime = g.kirchhoff_modulus
    index = {v.id: k for k, v in enumerate(g.vertices)}
    n = len(index)
    if n == 1:
        return 1
    bits = prime.bit_length()

    def fold(t):
        t = (t & prime) + (t >> bits)
        return (t & prime) + (t >> bits)

    rows = [{} for _ in range(n)]
    diag = [0] * n
    for e in g.edges:
        a, b = index[e.tail], index[e.head]
        if a != b:
            diag[a] += 1
            diag[b] += 1
            rows[a][b] = rows[a].get(b, 0) - 1
            rows[b][a] = rows[b].get(a, 0) - 1
    for j in rows[root]:
        del rows[j][root]
    rows[root] = None
    heap = [(len(row), k) for k, row in enumerate(rows) if row is not None]
    heapify(heap)
    count = 1
    while heap:
        size, k = heappop(heap)
        row = rows[k]
        if row is None or size != len(row):  # eliminated, or a stale degree
            continue
        rows[k] = None
        c = diag[k]
        count = fold(count * c)
        inverse = 1 if c == 1 else pow(c, -1, prime)
        for i in row:
            ri = rows[i]
            m = fold(ri.pop(k) * inverse)  # M_ik / c
            diag[i] = fold(diag[i] - m * row[i])
            for j, b in row.items():
                if j != i:
                    ri[j] = fold(ri.get(j, 0) - m * b)
            heappush(heap, (len(ri), i))
    return count % prime
