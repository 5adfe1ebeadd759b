"""A fixed reference computation that measures how fast the host runs now.

Where cores are shared with other work, the speed of one core can drift by a
third over seconds.  Timing this fixed workload between reports tracks that
drift; dividing a report's time by it leaves a figure that moves with the
program, not with the host.

The reference mixes the three kinds of work the report path does: big-integer
Berkowitz products, tuple-indexed small-integer matrix products with
``isinstance`` checks, and a modular loop over a ``bytearray``.  It is the
benchmark's own code, so the parent and a change time the same thing.
"""

import random
from time import perf_counter

# Time the reference takes on the host where the figures were tuned (2 vCPU
# Xeon, Python 3.11).  Normalised times are "as if the reference took this".
REFERENCE_S = 0.010

_rng = random.Random(0)
_BIG = [[_rng.randint(-2 ** 30, 2 ** 30) for _ in range(15)] for _ in range(15)]
_SMALL = tuple(_rng.randint(-99, 99) for _ in range(28 * 28))
_P = 10007


def _berkowitz(rows) -> list:
    n, poly = len(rows), [1]
    for k in range(1, n + 1):
        i0, m = n - k, k - 1
        v = [1, -rows[i0][i0]]
        r = rows[i0][i0 + 1:]
        w = [rows[i][i0] for i in range(i0 + 1, n)]
        for step in range(m):
            v.append(-sum(a * b for a, b in zip(r, w)))
            if step < m - 1:
                w = [sum(rows[i0 + 1 + i][i0 + 1 + j] * w[j] for j in range(m)) for i in range(m)]
        poly = [
            sum(v[i - j] * poly[j] for j in range(max(0, i - k), min(i, k - 1) + 1))
            for i in range(k + 1)
        ]
    return poly


def _tuple_matmul(a: tuple, n: int) -> tuple:
    out = []
    for i in range(n):
        for j in range(n):
            s = 0
            for t in range(n):
                s += a[i * n + t] * a[t * n + j]
            out.append(s if isinstance(s, int) else int(s))
    return tuple(out)


def _modular_loop(p: int) -> int:
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] = 1
    n = 0
    for x in range(p):
        n += squares[(x * x % p * x + 5 * x + 7) % p]
    return n


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    t0 = perf_counter()
    _berkowitz(_BIG)
    _tuple_matmul(_SMALL, 28)
    _modular_loop(_P)
    return perf_counter() - t0


# The same for set-up time, which is bound by cold-start memory traffic more
# than by arithmetic: a fresh interpreter importing a fixed set of
# standard-library modules, and the time it took where the figures were tuned.
IMPORT_REFERENCE = (
    "import time; t = time.perf_counter(); "
    "import asyncio, csv, decimal, email.message, http.client, logging, tarfile, "
    "unittest, xml.etree.ElementTree, zipfile; print(time.perf_counter() - t)"
)
IMPORT_REFERENCE_S = 0.070
