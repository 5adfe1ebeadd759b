"""Deterministic random curve instances for fuzz checks.

A fixed seed reproduces the same instance sequence bit for bit; the CLI's
fuzz command and the test suite both draw from here.  Components are genus
0, 1 or 2: genus 1 via a random nonsingular elliptic curve over F_p, genus 2
via the explicit block sum of two such companion matrices (keeping every
instance at f = 1, where the elliptic point-count oracle applies).
"""

import random
from dataclasses import dataclass

from .builders import CurveInstance
from .errors import ValidationError
from .exact_linalg import QMatrix
from .graph_core import DualGraph
from .weil_data import MAX_WEIL_SIZE, EllipticCurveSpec, frobenius_of_elliptic

FUZZ_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class FuzzBounds:
    """Bounds of the random instances; a bound that no instance can meet is
    refused with a ValidationError naming the ``phinmod fuzz`` option."""

    max_vertices: int = 8
    max_edges: int = 14
    max_genus: int = 2
    max_prime: int = 50

    def __post_init__(self):
        if self.max_vertices < 1:
            raise ValidationError(
                f"--max-vertices = {self.max_vertices}: must be at least 1"
            )
        if self.max_edges < self.max_vertices - 1:
            raise ValidationError(
                f"--max-edges = {self.max_edges}: a spanning tree on --max-vertices = "
                f"{self.max_vertices} vertices needs {self.max_vertices - 1}"
            )
        if not 0 <= self.max_genus <= MAX_WEIL_SIZE // 2:
            raise ValidationError(
                f"--max-genus = {self.max_genus}: must be in [0, {MAX_WEIL_SIZE // 2}], "
                f"a component block has at most {MAX_WEIL_SIZE} rows"
            )
        if self.max_prime < FUZZ_PRIMES[0]:
            raise ValidationError(
                f"--max-prime = {self.max_prime}: the smallest fuzz prime is {FUZZ_PRIMES[0]}"
            )


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
    blocks = [frobenius_of_elliptic(_random_elliptic(rng, p)).matrix for _ in range(genus)]
    return QMatrix.block_diag(blocks)


def random_curve_instance(rng: random.Random, bounds: FuzzBounds = FuzzBounds()) -> CurveInstance:
    """One connected instance within the bounds: random spanning tree plus
    random extra edges (loops and parallels allowed)."""
    primes = [q for q in FUZZ_PRIMES if q <= bounds.max_prime]
    p = rng.choice(primes)
    nv = rng.randint(1, bounds.max_vertices)
    vids = [f"v{i:02d}" for i in range(nv)]
    vertices = []
    components = {}
    for vid in vids:
        genus = rng.randint(0, bounds.max_genus)
        vertices.append((vid, genus))
        components[vid] = _component_source(rng, p, genus)
    edges = []
    for i in range(1, nv):
        edges.append((f"e{len(edges):02d}", vids[rng.randrange(i)], vids[i]))
    extra = rng.randint(0, bounds.max_edges - len(edges))
    for _ in range(extra):
        edges.append(
            (f"e{len(edges):02d}", rng.choice(vids), rng.choice(vids))
        )
    graph = DualGraph.build(vertices, edges)
    return CurveInstance(graph=graph, components=components, p=p, f=1)


def instance_stream(seed: int, count: int, bounds: FuzzBounds = FuzzBounds()):
    """Yield ``count`` reproducible instances for the given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_curve_instance(rng, bounds)
