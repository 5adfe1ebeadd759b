#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot paths (point-count sweep, Bareiss determinant,
Berkowitz characteristic polynomial) plus one end-to-end fuzz build on both
backends and prints the speedups.  Run from the repository root:

    python3 benchmarks/bench_backends.py
"""

import random
import time

from phinmod import _kernels_py

try:
    from phinmod import _kernels
except ImportError:
    _kernels = None


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def random_matrix(rng, n, lo=-30, hi=30):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def bench_kernels(mod):
    rng = random.Random(12345)
    mats30 = [random_matrix(rng, 30) for _ in range(4)]
    mats46 = [random_matrix(rng, 46) for _ in range(2)]
    results = {}
    results["hasse_scan(p=97)"] = timeit(lambda: mod.hasse_scan(97))
    results["count_points(p=9973)"] = timeit(
        lambda: mod.count_points(9973, 1, 1), repeat=5
    )
    results["det_int(46x46, x2)"] = timeit(
        lambda: [mod.det_int(m) for m in mats46]
    )
    results["charpoly_int(30x30, x4)"] = timeit(
        lambda: [mod.charpoly_int(m) for m in mats30]
    )
    results["charpoly_int(46x46, x2)"] = timeit(
        lambda: [mod.charpoly_int(m) for m in mats46]
    )
    return results


def bench_end_to_end():
    """Whole-pipeline timing under whichever backend is active."""
    from phinmod.builders import build_from_curve, check_curve_jacobian_agreement
    from phinmod.fuzz import instance_stream
    from phinmod.phin_module import hodge_newton, verify_relations

    def run():
        for inst in instance_stream(7, 40):
            m = build_from_curve(inst)
            verify_relations(m)
            hodge_newton(m)
            check_curve_jacobian_agreement(inst, m)

    return timeit(run, repeat=1)


def main():
    print(f"{'kernel':<28} {'python':>10} {'cython':>10} {'speedup':>9}")
    py = bench_kernels(_kernels_py)
    cy = bench_kernels(_kernels) if _kernels is not None else None
    for name, t_py in py.items():
        if cy is None:
            print(f"{name:<28} {t_py:>9.4f}s {'n/a':>10} {'':>9}")
        else:
            t_cy = cy[name]
            print(f"{name:<28} {t_py:>9.4f}s {t_cy:>9.4f}s {t_py / t_cy:>8.1f}x")
    import phinmod

    print()
    print(f"active backend: {phinmod.BACKEND}")
    print(f"end-to-end 40-instance fuzz pipeline: {bench_end_to_end():.3f}s")
    print("(set PHINMOD_PURE_PYTHON=1 and rerun to time the fallback end to end)")


if __name__ == "__main__":
    main()
