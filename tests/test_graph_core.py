import json
import random
import time

import pytest

from phinmod.errors import GraphError
from phinmod.exact_linalg import det, is_positive_definite, rank
from phinmod.graph_core import (
    MERSENNE_EXPONENTS,
    DualGraph,
    betti_one,
    cycle_basis,
    monodromy_gram,
    spanning_tree_count,
)
from phinmod.fuzz import instance_stream
from phinmod.io_formats import instance_from_json

from conftest import INSTANCE_DIR
from oracles import identity, monodromy_gram_dense, spanning_trees_brute, spanning_trees_dense


def graph(vertices, edges):
    return DualGraph.build(vertices, edges)


SINGLE = graph([("v0", 0)], [])
LOOP = graph([("v0", 0)], [("e0", "v0", "v0")])
SEGMENT = graph([("v0", 0), ("v1", 0)], [("e0", "v0", "v1")])
BANANA = graph([("v0", 0), ("v1", 0)], [("e0", "v0", "v1"), ("e1", "v0", "v1")])
THETA = graph(
    [("v0", 0), ("v1", 0)],
    [("e0", "v0", "v1"), ("e1", "v0", "v1"), ("e2", "v0", "v1")],
)


class TestValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            graph([("v0", 0), ("v1", 0)], [])

    def test_missing_endpoint_rejected(self):
        with pytest.raises(GraphError):
            graph([("v0", 0)], [("e0", "v0", "v9")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError):
            graph([("v0", 0), ("v0", 1)], [])

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            graph([], [])

    def test_disconnected_with_enough_edges_rejected(self):
        # E = 4 >= V - 1 = 3, but two components that each hold a cycle
        with pytest.raises(GraphError, match="disconnected"):
            graph(
                [("v0", 0), ("v1", 0), ("v2", 0), ("v3", 0)],
                [("e0", "v0", "v1"), ("e1", "v1", "v0"), ("e2", "v2", "v3"), ("e3", "v3", "v3")],
            )


class TestBettiOne:
    def test_point(self):
        assert betti_one(SINGLE) == 0

    def test_loop(self):
        assert betti_one(LOOP) == 1

    def test_theta(self):
        assert betti_one(THETA) == 2


class TestCycleBasis:
    def test_tree_has_empty_basis(self):
        assert cycle_basis(SEGMENT) == ()

    def test_single_loop(self):
        assert cycle_basis(LOOP) == ((1,),)

    def test_theta_fundamental_cycles(self):
        # tree {e0}; cycles e1 - e0 and e2 - e0
        assert cycle_basis(THETA) == ((-1, 1, 0), (-1, 0, 1))

    def test_boundary_is_zero(self):
        g = graph(
            [("v0", 0), ("v1", 0), ("v2", 0)],
            [
                ("e0", "v0", "v1"),
                ("e1", "v1", "v2"),
                ("e2", "v2", "v0"),
                ("e3", "v0", "v2"),
                ("e4", "v1", "v1"),
            ],
        )
        for cyc in cycle_basis(g):
            flux = {v.id: 0 for v in g.vertices}
            for coeff, e in zip(cyc, g.edges):
                flux[e.tail] -= coeff
                flux[e.head] += coeff
            assert all(x == 0 for x in flux.values())

    def test_count_matches_betti(self):
        for g in (SINGLE, LOOP, SEGMENT, BANANA, THETA):
            assert len(cycle_basis(g)) == betti_one(g)


class TestMonodromyGram:
    def test_loop(self):
        assert monodromy_gram(LOOP).to_rows() == [[1]]

    def test_banana(self):
        assert monodromy_gram(BANANA).to_rows() == [[2]]

    def test_theta(self):
        assert monodromy_gram(THETA).to_rows() == [[2, 1], [1, 2]]

    def test_tree_is_empty(self):
        m = monodromy_gram(SEGMENT)
        assert (m.rows, m.cols) == (0, 0)

    def test_symmetric_positive_definite(self):
        for g in (LOOP, BANANA, THETA):
            m = monodromy_gram(g)
            assert m.is_symmetric()
            assert is_positive_definite(m)
            assert rank(m) == betti_one(g)

    def test_orientation_flip_preserves_det(self):
        rng = random.Random(7)
        for _ in range(20):
            nv = rng.randint(1, 5)
            vertices = [(f"v{i}", 0) for i in range(nv)]
            edges = [(f"e{j:02d}", f"v{rng.randrange(i)}", f"v{i}") for i, j in
                     zip(range(1, nv), range(nv - 1))]
            for j in range(nv - 1, nv - 1 + rng.randint(1, 4)):
                edges.append(
                    (f"e{j:02d}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}")
                )
            g = graph(vertices, edges)
            d = det(monodromy_gram(g))
            k = rng.randrange(len(edges))
            eid, tail, head = edges[k]
            flipped = list(edges)
            flipped[k] = (eid, head, tail)
            assert det(monodromy_gram(graph(vertices, flipped))) == d


def brute(g):
    return spanning_trees_brute(
        [v.id for v in g.vertices], [(e.tail, e.head) for e in g.edges]
    )


class TestSpanningTreeCount:
    def test_small_graphs(self):
        k4 = graph(
            [(f"v{i}", 0) for i in range(4)],
            [(f"e{i}{j}", f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)],
        )
        cases = {SINGLE: 1, LOOP: 1, SEGMENT: 1, BANANA: 2, THETA: 3, k4: 16}
        for g, expected in cases.items():
            assert spanning_tree_count(g) == brute(g) == expected

    def test_matrix_tree_identity_on_fuzz_graphs(self):
        # det of the monodromy pairing = number of spanning trees, checked
        # against trees enumerated one by one; the sample must contain loops
        # and parallel edges
        loops = parallels = 0
        for inst in instance_stream(seed=11, count=60):
            g = inst.graph
            pairs = [frozenset((e.tail, e.head)) for e in g.edges]
            loops += any(len(pair) == 1 for pair in pairs)
            parallels += len(set(pairs)) < len(pairs)
            expected = brute(g)
            assert spanning_tree_count(g) == expected
            assert det(monodromy_gram(g)) == expected
        assert loops and parallels


def complete(n):
    return graph([(f"v{i}", 0) for i in range(n)],
                 [(f"e{i}_{j}", f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    return graph([(f"a{i}", 0) for i in range(m)] + [(f"b{j}", 0) for j in range(n)],
                 [(f"e{i}_{j}", f"a{i}", f"b{j}") for i in range(m) for j in range(n)])


class TestSparseCount:
    """The count by sparse elimination modulo a Mersenne prime against
    closed forms; TestSparseGramAgainstDense checks it against the dense
    cofactor of ``oracles.py``."""

    def test_cayley(self):
        primes = set()
        for n in range(1, 31):
            g = complete(n)
            assert spanning_tree_count(g) == (n ** (n - 2) if n > 1 else 1)
            primes.add(g.kirchhoff_modulus[1])
        # 30^28 is above 2^137: the count outgrows 2^61 - 1 and 2^127 - 1
        assert 30 ** 28 > 2 ** 137 and 2 ** 521 - 1 in primes and len(primes) >= 5

    def test_complete_bipartite(self):
        for m in range(1, 8):
            for n in range(1, 8):
                assert spanning_tree_count(complete_bipartite(m, n)) == m ** (n - 1) * n ** (m - 1)

    def test_largest_prime(self):
        # K_{2,n}: the root is a hub, the bound n 2^n, the count n 2^(n-1)
        g = complete_bipartite(2, 4410)
        assert g.kirchhoff_modulus[1] == 2 ** MERSENNE_EXPONENTS[-1] - 1
        assert spanning_tree_count(g) == 4410 * 2 ** 4409

    def test_bound_beyond_the_largest_prime_refused(self):
        with pytest.raises(GraphError, match="graph has a spanning-tree bound"):
            complete_bipartite(2, 4420)


def random_multigraph(rng, nv, extra):
    """A random spanning tree plus ``extra`` edges, loops and parallels
    allowed, with unpadded edge ids (``e10`` sorts before ``e2``) stored in
    shuffled order."""
    vids = [f"v{i}" for i in range(nv)]
    links = [(vids[rng.randrange(i)], vids[i]) for i in range(1, nv)]
    links += [(rng.choice(vids), rng.choice(vids)) for _ in range(extra)]
    edges = [(f"e{j}", *rng.sample(pair, 2)) for j, pair in enumerate(links)]
    rng.shuffle(edges)
    return graph([(v, rng.randint(0, 2)) for v in vids], edges)


class TestSparseGramAgainstDense:
    """Root-path cycles and the support-summed Gram matrix against one tree
    search per cycle and dense dot products, and the spanning-tree count by
    sparse elimination modulo a prime against det_gauss of the dense
    Laplacian cofactor."""

    def assert_matches_dense(self, g):
        cycles, gram = monodromy_gram_dense(g)
        assert list(cycle_basis(g)) == cycles
        assert monodromy_gram(g).to_rows() == gram
        assert spanning_tree_count(g) == spanning_trees_dense(g)

    def test_instances(self):
        graphs = 0
        for path in sorted(INSTANCE_DIR.glob("*.json")):
            obj = json.loads(path.read_text(encoding="utf-8"))
            if obj["kind"] == "curve":
                self.assert_matches_dense(instance_from_json(obj).graph)
                graphs += 1
        assert graphs >= 3

    @pytest.mark.parametrize("seed", [7, 11])
    def test_fuzz_graphs(self, seed):
        for inst in instance_stream(seed=seed, count=40):
            self.assert_matches_dense(inst.graph)

    def test_seeded_multigraphs(self):
        rng = random.Random(2024)
        loops = parallels = reordered = lexical = 0
        for _ in range(200):
            g = random_multigraph(rng, rng.randint(1, 9), rng.randint(0, 12))
            pairs = [frozenset((e.tail, e.head)) for e in g.edges]
            loops += any(len(pair) == 1 for pair in pairs)
            parallels += len(set(pairs)) < len(pairs)
            ids = [e.id for e in g.edges]
            reordered += ids != sorted(ids)
            lexical += "e10" in ids  # sorts before e2
            self.assert_matches_dense(g)
        assert loops and parallels and reordered and lexical

    def test_b1_400_in_budget(self):
        bouquet = graph([("v0", 0)], [(f"e{j}", "v0", "v0") for j in range(400)])
        multigraph = random_multigraph(random.Random(5), 40, 400)
        assert betti_one(bouquet) == betti_one(multigraph) == 400
        grams = []
        for g in (bouquet, multigraph):
            t0 = time.perf_counter()
            grams.append(monodromy_gram(g))
            assert time.perf_counter() - t0 < 0.5
        # each loop is its own cycle; the dense construction costs O(b1^2 E)
        assert grams[0] == identity(400)
        assert grams[1].to_rows() == monodromy_gram_dense(multigraph)[1]
