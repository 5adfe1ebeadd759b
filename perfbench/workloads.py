"""Seeded instance generators for the four benchmark workloads.

Each generator turns a seed into a list of :class:`Case` objects: the
instance JSON text that the program receives, plus the facts the benchmark
knows about it by construction (its kind, p, f and the module's graded
dimensions), which are checked against the report.  Nothing here imports ``phinmod``, so
the parent commit and a change receive byte-identical inputs whatever the
code under test does.

The same seed always gives the same texts (``random.Random`` seeded with an
int or a str is independent of ``PYTHONHASHSEED``).
"""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

FORMAT_NAME = "phinmod-instance-v1"


@dataclass(frozen=True)
class Case:
    text: str
    p: int
    f: int
    dims: tuple  # (w0, w1, w2) the report's module must show
    kind: str  # "curve" or "av": which checks the report must hold


# -- small exact helpers ------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.4e14."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17)
    for b in small:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in small:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def elliptic_trace(p: int, a4: int, a6: int) -> int:
    """a = p + 1 - #E(F_p) for y^2 = x^3 + a4 x + a6, by enumeration."""
    squares = {y * y % p for y in range(p)}
    n = 1
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        n += 1 if v == 0 else (2 if v in squares else 0)
    return p + 1 - n


def random_elliptic(rng: random.Random, p: int) -> tuple:
    # Same draw order as phinmod.fuzz._random_elliptic.
    while True:
        a4 = rng.randrange(p)
        a6 = rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p != 0:
            return a4, a6


def strings(rows) -> list:
    return [[str(x) for x in r] for r in rows]


def component_json(rng: random.Random, p: int, genus: int) -> dict:
    """Genus 0: empty; genus 1: an elliptic curve; genus 2: the block sum of
    two elliptic companion matrices (the draw order of phinmod.fuzz)."""
    if genus == 0:
        return {"type": "genus0"}
    if genus == 1:
        a4, a6 = random_elliptic(rng, p)
        return {"type": "elliptic", "a4": str(a4), "a6": str(a6)}
    rows = [[0] * (2 * genus) for _ in range(2 * genus)]
    for k in range(genus):
        a = elliptic_trace(p, *random_elliptic(rng, p))
        rows[2 * k][2 * k + 1] = -p
        rows[2 * k + 1][2 * k] = 1
        rows[2 * k + 1][2 * k + 1] = a
    return {"type": "matrix", "entries": strings(rows)}


def curve_case(p: int, genera: list, edges: list, components: dict) -> Case:
    vids = [f"v{i:02d}" for i in range(len(genera))]
    obj = {
        "format": FORMAT_NAME,
        "kind": "curve",
        "p": str(p),
        "f": "1",
        "graph": {
            "vertices": [{"id": v, "genus": str(g)} for v, g in zip(vids, genera)],
            "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges],
        },
        "components": components,
    }
    b1 = len(edges) - len(genera) + 1
    return Case(json.dumps(obj), p, 1, (b1, 2 * sum(genera), b1), "curve")


def random_edges(rng: random.Random, vids: list, max_edges: int, draw_extra: bool) -> list:
    """Random spanning tree plus random extra edges up to ``max_edges``
    (loops and parallel edges allowed), in the draw order of phinmod.fuzz.
    ``draw_extra`` draws how many extra edges; otherwise all are added."""
    edges = []
    for i in range(1, len(vids)):
        edges.append((f"e{len(edges):02d}", vids[rng.randrange(i)], vids[i]))
    extra = max_edges - len(edges)
    if draw_extra:
        extra = rng.randint(0, extra)
    for _ in range(extra):
        edges.append((f"e{len(edges):02d}", rng.choice(vids), rng.choice(vids)))
    return edges


# -- fuzz_mix -----------------------------------------------------------------

FUZZ_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FUZZ_MAX_VERTICES, FUZZ_MAX_EDGES, FUZZ_MAX_GENUS = 8, 14, 2


def fuzz_case(rng: random.Random) -> Case:
    """One draw of phinmod.fuzz.random_curve_instance at the default bounds,
    made directly as instance JSON (the same rng calls in the same order)."""
    p = rng.choice(FUZZ_PRIMES)
    nv = rng.randint(1, FUZZ_MAX_VERTICES)
    vids = [f"v{i:02d}" for i in range(nv)]
    genera, components = [], {}
    for vid in vids:
        genus = rng.randint(0, FUZZ_MAX_GENUS)
        genera.append(genus)
        components[vid] = component_json(rng, p, genus)
    edges = random_edges(rng, vids, FUZZ_MAX_EDGES, draw_extra=True)
    return curve_case(p, genera, edges, components)


# Report cost grows about as d^3.5 in the module dimension d and, at a given
# d, falls as the genus g gives way to loops, so a plain 160-draw sample moves
# its median from seed to seed.  The sample is therefore stratified: it keeps
# the first draws of each (d, g) class up to that class's expected count.
FUZZ_CASES = 160


def fuzz_class(dimension: int, genus: int) -> tuple:
    if dimension <= 2:
        return (2, 0)
    if dimension >= 34:
        return (34, 0)
    return (dimension, genus)


def fuzz_law() -> Counter:
    """Exact probability of each class of (d, g) at the default bounds."""
    share = Counter()
    sides = FUZZ_MAX_GENUS + 1
    for nv in range(1, FUZZ_MAX_VERTICES + 1):
        genus = {0: 1.0}  # law of the sum of nv uniform genera
        for _ in range(nv):
            step = Counter()
            for g, pr in genus.items():
                for x in range(sides):
                    step[g + x] += pr / sides
            genus = step
        loops = FUZZ_MAX_EDGES - (nv - 1) + 1  # b1 is uniform on 0 .. loops-1
        for g, pr in genus.items():
            for b1 in range(loops):
                share[fuzz_class(2 * (g + b1), g)] += pr / loops / FUZZ_MAX_VERTICES
    return share


def fuzz_quotas(total: int) -> dict:
    """Expected class counts among ``total`` draws, rounded by largest
    remainder."""
    exact = {k: total * v for k, v in fuzz_law().items()}
    quotas = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(exact, key=lambda k: (quotas[k] - exact[k], k))
    for k in by_remainder[: total - sum(quotas.values())]:
        quotas[k] += 1
    return quotas


def fuzz_mix(seed: int) -> list:
    rng = random.Random(seed)
    left = fuzz_quotas(FUZZ_CASES)
    cases = []
    for _ in range(1000 * FUZZ_CASES):
        case = fuzz_case(rng)
        cls = fuzz_class(sum(case.dims), case.dims[1] // 2)
        if left.get(cls):
            left[cls] -= 1
            cases.append(case)
            if len(cases) == FUZZ_CASES:
                return cases
    raise RuntimeError(f"fuzz_mix seed {seed}: quotas not filled")


# -- wide_graph ---------------------------------------------------------------

WIDE_VERTICES, WIDE_EDGES = 14, 26
WIDE_GENERA = [0] * 4 + [1] * 6 + [2] * 4  # total genus 14: d = 2*(14+13) = 54
WIDE_PRIMES = (3, 5, 7, 11, 13)


def wide_graph(seed: int) -> list:
    """One instance per prime in WIDE_PRIMES; fixed V, E and genus multiset,
    so every report has d = 54 and only the graph and curves vary."""
    rng = random.Random(f"wide_graph:{seed}")
    cases = []
    for p in WIDE_PRIMES:
        genera = list(WIDE_GENERA)
        rng.shuffle(genera)
        vids = [f"v{i:02d}" for i in range(WIDE_VERTICES)]
        components = {v: component_json(rng, p, g) for v, g in zip(vids, genera)}
        edges = random_edges(rng, vids, WIDE_EDGES, draw_extra=False)
        cases.append(curve_case(p, genera, edges, components))
    return cases


# -- point_count --------------------------------------------------------------

POINT_COUNT_CASES = 160
POINT_PRIMES = [n for n in range(5001, 10 ** 4, 2) if is_prime(n)]


def point_count(seed: int) -> list:
    """Two elliptic components and a rational one on 3 vertices / 4 edges
    (d = 8), one prime per instance from [5000, 10^4), stratified over that
    prime list."""
    rng = random.Random(f"point_count:{seed}")
    cases = []
    for k in range(POINT_COUNT_CASES):
        p = POINT_PRIMES[int((k + rng.random()) * len(POINT_PRIMES) / POINT_COUNT_CASES)]
        genera = [1, 1, 0]
        vids = ["v00", "v01", "v02"]
        components = {v: component_json(rng, p, g) for v, g in zip(vids, genera)}
        cases.append(curve_case(p, genera, random_edges(rng, vids, 4, draw_extra=False), components))
    rng.shuffle(cases)
    return cases


# -- av_large_q ---------------------------------------------------------------

AV_CASES = 12
AV_TORUS_RANK = 10


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def weil_block(rng: random.Random, q: int) -> list:
    """Dense integer 4x4 Weil-q matrix: the companion matrix of
    (T^2 - a1 T + q)(T^2 - a2 T + q), a_i^2 < 4q, conjugated by a random
    unimodular matrix."""
    bound = math.isqrt(4 * q - 1)
    a1, a2 = rng.randint(-bound, bound), rng.randint(-bound, bound)
    # T^4 + c3 T^3 + c2 T^2 + c1 T + c0
    c3, c2, c1, c0 = -(a1 + a2), 2 * q + a1 * a2, -q * (a1 + a2), q * q
    companion = [[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2], [0, 0, 1, -c3]]
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    u_inv = [row[:] for row in u]
    for _ in range(8):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        # u <- E u with E = I + c e_ij;  u_inv <- u_inv E^-1.
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    return matmul(matmul(u, companion), u_inv)


def av_large_q(seed: int) -> list:
    """Abelian varieties at 9-digit p: rank-10 dense positive definite Gram,
    2 or 3 dense 4x4 Weil blocks, f = 1 or 2 (each combination twice)."""
    rng = random.Random(f"av_large_q:{seed}")
    cases = []
    for k in range(AV_CASES):
        f = 1 + k % 2
        nblocks = 2 if k % 3 == 0 else 3
        p = random_prime(rng, 9 * 10 ** 8, 10 ** 9)
        a = [[rng.randint(-2, 2) for _ in range(AV_TORUS_RANK)] for _ in range(AV_TORUS_RANK)]
        gram = matmul(a, [list(c) for c in zip(*a)])
        for i in range(AV_TORUS_RANK):
            gram[i][i] += 1
        obj = {
            "format": FORMAT_NAME,
            "kind": "av",
            "p": str(p),
            "f": str(f),
            "torus_rank": str(AV_TORUS_RANK),
            "gram": strings(gram),
            "b_frobenius": [
                {"type": "matrix", "entries": strings(weil_block(rng, p ** f))}
                for _ in range(nblocks)
            ],
        }
        dims = (AV_TORUS_RANK, 4 * nblocks, AV_TORUS_RANK)
        cases.append(Case(json.dumps(obj), p, f, dims, "av"))
    return cases


WORKLOADS = {
    "fuzz_mix": fuzz_mix,
    "wide_graph": wide_graph,
    "point_count": point_count,
    "av_large_q": av_large_q,
}
