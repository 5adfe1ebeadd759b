"""Deterministic random curve instances for fuzz checks.

A fixed seed reproduces the same instance sequence bit for bit; the CLI's
fuzz command and the test suite both draw from here.  Components are genus
0, 1 or 2: genus 1 via a random nonsingular elliptic curve over F_p, genus 2
via the explicit block sum of two such companion matrices (keeping every
instance at f = 1, where the elliptic point-count oracle applies).
"""

import random

from .builders import CurveInstance
from .exact_linalg import QMatrix
from .graph_core import DualGraph
from .weil_data import EllipticCurveSpec, frobenius_of_elliptic

FUZZ_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
MAX_VERTICES = 8
MAX_EDGES = 14
MAX_GENUS = 2


def _random_elliptic(rng: random.Random, p: int) -> EllipticCurveSpec:
    while True:
        a4 = rng.randrange(p)
        a6 = rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p != 0:
            return EllipticCurveSpec(p, a4, a6)


def _component_source(rng: random.Random, p: int, genus: int):
    if genus == 0:
        return None
    if genus == 1:
        return _random_elliptic(rng, p)
    blocks = [frobenius_of_elliptic(_random_elliptic(rng, p)).blocks[0] for _ in range(genus)]
    return QMatrix.block_diag(blocks)


def random_curve_instance(rng: random.Random) -> CurveInstance:
    """One connected instance of at most MAX_VERTICES vertices, MAX_EDGES
    edges and component genus MAX_GENUS: random spanning tree plus random
    extra edges (loops and parallels allowed)."""
    p = rng.choice(FUZZ_PRIMES)
    nv = rng.randint(1, MAX_VERTICES)
    vids = [f"v{i:02d}" for i in range(nv)]
    vertices = []
    components = {}
    for vid in vids:
        genus = rng.randint(0, MAX_GENUS)
        vertices.append((vid, genus))
        components[vid] = _component_source(rng, p, genus)
    edges = []
    for i in range(1, nv):
        edges.append((f"e{len(edges):02d}", vids[rng.randrange(i)], vids[i]))
    extra = rng.randint(0, MAX_EDGES - len(edges))
    for _ in range(extra):
        edges.append(
            (f"e{len(edges):02d}", rng.choice(vids), rng.choice(vids))
        )
    graph = DualGraph.build(vertices, edges)
    return CurveInstance(graph=graph, components=components, p=p, f=1)


def instance_stream(seed: int, count: int):
    """Yield ``count`` reproducible instances for the given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_curve_instance(rng)
