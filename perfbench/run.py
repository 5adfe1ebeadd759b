#!/usr/bin/env python3
"""Report benchmark for phinmod.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The unit of work is one report: instance JSON text ->
``io_formats.instance_from_json`` -> ``cli.run_checks(inst,
DEFAULT_POINT_BOUND)`` -> ``io_formats.dump_json``, the ``phinmod build``
path without argparse and file I/O.  ``phinmod`` is imported from the
checkout's own ``src/`` (it is pure Python; nothing is built), never from
an installed copy.

Workloads (``workloads.py``; single worker process, single thread, closed
loop: each report starts when the previous one has been verified):

  fuzz_mix     160 draws of ``phinmod.fuzz``'s default-bounds stream,
               stratified on module dimension and genus; work spreads over
               every module
  wide_graph   5 dual graphs with V=14, E=26, d=54, one per p <= 13; dense
               QMatrix products and Berkowitz char_poly dominate
  point_count  160 three-vertex graphs with two elliptic curves at p in
               [5000, 10^4); naive point counting dominates
  av_large_q   12 abelian varieties at 9-digit p, f = 1 or 2, rank-10 Gram
               and 2-3 dense 4x4 Weil blocks; big-integer kernels and
               trial-division is_prime

With ``--trace 0`` the worker runs one untimed warm-up pass and then timed
passes (at least 3) until SECONDS of timed wall time, with ``gc.collect()``
between passes (GC stays enabled), and reports:

  report_p50_norm_ms      median over reports of each report's median
                          latency across the timed passes, normalised
  throughput_norm_inst_s  verified reports per second of the median timed
                          pass, normalised
  peak_rss_mb             peak resident memory of the worker process
  setup_s                 time to ``import phinmod`` in a fresh interpreter,
                          median of SETUP_SPAWNS spawns, normalised

Every interpreter the benchmark starts has PYTHONHASHSEED=0 and
OPENBLAS_NUM_THREADS=1 and no PYTHONPATH or PHINMOD_POINT_BOUND.

Normalised: where cores are shared with other work, their speed can drift
by a third over seconds; on a shared 2-vCPU Xeon VM that moved raw
wall-clock medians by up to ~20% between runs of identical code.  The worker therefore times a fixed reference computation
(``calibration.py``) at least every 0.1 s between reports and divides each
report's time by the reference time around it, scaled so that the figures
read as if the reference took ``calibration.REFERENCE_S``.  Import time
drifts with cold-start memory traffic rather than with arithmetic speed, so
each import spawn is divided instead by the time of a reference import of
standard-library modules spawned just before and after it.  The raw
``report_p50_ms``, ``throughput_inst_s``, ``setup_raw_s`` and (with >= 100
samples) ``report_p90_ms``, the reference time and each pass's wall and CPU
time are printed with the run metadata, ungated.

With ``--trace 1`` untraced and traced passes alternate (``tracing.py``)
and the per-layer numbers are printed: self time in ms and call counts per
report for each module's public functions, plus the tracing overhead
(traced minus untraced wall time per report).  ``laurent_calc`` is on no
report path and is not measured.

Every report is verified: no exception, exactly the checks the report
path runs for the instance's kind and each of them "pass", p, f and the
graded dimensions known from the generator, the same bytes in every pass,
and, for seeds recorded in ``golden.json``, the sha256 digest of the
reference code's report.  A run also checks that its inputs repeat for the
seed and that a tampered report is caught.  ``fail_frac`` (failed /
attempted) is printed with the run metadata on the line before the result,
together with the backend, the imported ``phinmod.__file__``, the Python
version, the CPU count, the seed and the samples behind each metric.
``compare.py`` summarises saved runs and refuses to compare two sets made
on different kernel backends.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import phinmod; print(time.perf_counter() - t); print(phinmod.__file__)"
)


def fixed_env() -> dict:
    # One BLAS thread: the benchmark is single-threaded, and numpy's OpenBLAS
    # otherwise starts a thread per CPU at import, a cost that moved the
    # import time by half between runs on a shared 2-vCPU host.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    env.pop("PHINMOD_POINT_BOUND", None)
    return env


def spawn(*args) -> list:
    return subprocess.run(
        [sys.executable, *args], env=fixed_env(),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split("\n")


def setup_seconds(src: str) -> tuple:
    """Time to import phinmod from ``src`` in a fresh interpreter, median of
    SETUP_SPAWNS spawns: (normalised, raw).  Each spawn is normalised by the
    mean of the reference imports spawned just before and after it."""
    from calibration import IMPORT_REFERENCE, IMPORT_REFERENCE_S

    references = [float(spawn("-c", IMPORT_REFERENCE)[0])]
    raw, normalised = [], []
    for _ in range(SETUP_SPAWNS):
        seconds, where = spawn("-c", IMPORT_PROBE, src)[:2]
        if not where.startswith(src):
            raise SystemExit(f"phinmod was imported from {where}, not from {src}")
        references.append(float(spawn("-c", IMPORT_REFERENCE)[0]))
        raw.append(float(seconds))
        normalised.append(raw[-1] * 2 * IMPORT_REFERENCE_S / (references[-2] + references[-1]))
    return statistics.median(normalised), statistics.median(raw)


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "phinmod", "__init__.py")):
        print(f"error: no phinmod package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    setup = None if args.trace else setup_seconds(src)
    worker = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), src, args.workload,
         str(args.seed), repr(args.seconds), str(args.trace)],
        env=fixed_env(), stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().split("\n")[-1])
    meta = result.pop("meta")
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup[0], "unit": "s"}
        meta["setup_raw_s"] = setup[1]
        meta["samples"]["setup_s"] = SETUP_SPAWNS
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
