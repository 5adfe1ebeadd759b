"""Benchmark worker: runs one workload's passes and prints one JSON line.

Started by ``run.py`` in a fresh interpreter with PYTHONHASHSEED fixed.
Usage: worker.py SRC_DIR WORKLOAD SEED SECONDS TRACE
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibration import REFERENCE_S, reference_seconds
from workloads import WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
MIN_TIMED_PASSES = 3
CALIBRATE_EVERY_S = 0.1


def digest(text: str) -> str:
    """Short report digest stored in golden.json (32 bits of sha256)."""
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_golden(workload: str, seed: int):
    """Digests recorded from the reference code for this seed, or None."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"][workload].get(str(seed))
    if recorded is None:
        return None
    return [recorded[i:i + 8] for i in range(0, len(recorded), 8)]


RELATION_CHECKS = {"n_squared_zero", "n_phi_commutation", "phi_invertible", "n_rank_is_torus_rank"}
POLYGON_CHECKS = {"endpoints_equal", "newton_on_or_above_hodge", "newton_symmetric"}


def checks_pass(checks: dict, kind: str) -> bool:
    """Every check the report path runs for this kind is present, no other
    check is, and each reads "pass"."""
    single = {"monodromy_duality"} | ({"curve_jacobian_agreement"} if kind == "curve" else set())
    return (
        set(checks) == single | {"relations", "polygons"}
        and set(checks["relations"]) == RELATION_CHECKS
        and set(checks["polygons"]) == POLYGON_CHECKS
        and all(checks[k] == "pass" for k in single)
        and all(v == "pass" for k in ("relations", "polygons") for v in checks[k].values())
    )


def verify(case, text: str, expected_digest) -> bool:
    """Check a report against what the benchmark knows about its instance."""
    try:
        report = json.loads(text)
        module = report["module"]
        dims = module["dims"]
        return (
            checks_pass(report["checks"], case.kind)
            and (int(module["p"]), int(module["f"])) == (case.p, case.f)
            and (int(dims["w0"]), int(dims["w1"]), int(dims["w2"])) == case.dims
            and (expected_digest is None or digest(text) == expected_digest)
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


class Bench:
    """One workload's cases, run pass after pass through the report path."""

    def __init__(self, workload: str, seed: int, use_golden: bool = True):
        import phinmod
        from phinmod import cli, io_formats
        from phinmod.weil_data import DEFAULT_POINT_BOUND

        self.phinmod, self.cli, self.io = phinmod, cli, io_formats
        self.bound = DEFAULT_POINT_BOUND
        self.cases = WORKLOADS[workload](seed)
        self.golden = load_golden(workload, seed) if use_golden else None
        if self.golden is not None and len(self.golden) != len(self.cases):
            raise SystemExit(f"golden.json has {len(self.golden)} digests, workload has {len(self.cases)}")
        self.digests = None  # digests of the first pass, which later passes must repeat
        self.failed = 0
        self.attempted = 0

    def report(self, text: str) -> str:
        """The unit of work: instance JSON text to report JSON text."""
        inst = self.io.instance_from_json(json.loads(text))
        return self.io.dump_json(self.cli.run_checks(inst, self.bound))

    def run_pass(self, tracer=None) -> dict:
        """Every case once, verified.  The reference computation is timed
        before the first report, at least every CALIBRATE_EVERY_S between
        reports, and after the last; each report's ``speed`` is the mean of
        the reference times around it over REFERENCE_S."""
        gc.collect()
        latencies, slots, before, digests, size = [], [], [], [], 0
        report = self.report if tracer is None else tracer.wrap("report", self.report)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference = [reference_seconds()]
        last = time.perf_counter()
        for k, case in enumerate(self.cases):
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                reference.append(reference_seconds())
                last = time.perf_counter()
            before.append(len(reference) - 1)
            if tracer is not None:
                tracer.report = k
            t0 = time.perf_counter()
            try:
                text = report(case.text)
            except Exception as exc:  # a failed report is counted, not fatal
                print(f"case {k}: {type(exc).__name__}: {exc}", file=sys.stderr)
                text = ""
            t1 = time.perf_counter()
            size += len(text.encode())
            digests.append(digest(text))
            if k == 0:
                self.first_report = text
            expected = self.golden[k] if self.golden else None
            if not verify(case, text, expected) or (self.digests and self.digests[k] != digests[k]):
                print(f"case {k}: report failed verification", file=sys.stderr)
                self.failed += 1
            latencies.append(t1 - t0)
            slots.append(time.perf_counter() - t0)
        reference.append(reference_seconds())
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.attempted += len(self.cases)
        if self.digests is None:
            self.digests = digests
        speed = [(reference[i] + reference[i + 1]) / (2 * REFERENCE_S) for i in before]
        return {"wall_s": wall, "cpu_s": cpu, "latencies": latencies, "slots": slots,
                "speed": speed, "reference_s": reference, "bytes": size}

    def self_checks(self, workload: str, seed: int) -> bool:
        """Inputs repeat for the seed, and a tampered report is caught."""
        same_inputs = [c.text for c in WORKLOADS[workload](seed)] == [c.text for c in self.cases]
        case, good = self.cases[0], self.first_report
        tampered = good.replace('"pass"', '"fail"', 1)
        if tampered == good:  # a report with no check left to flip
            tampered = good.replace('"format"', '"formet"', 1)
        caught = not verify(case, tampered, self.golden[0] if self.golden else None)
        return same_inputs and caught


def timed_run(bench: Bench, seconds: float) -> tuple:
    bench.run_pass()  # warm-up, untimed
    passes = []
    while len(passes) < MIN_TIMED_PASSES or sum(p["wall_s"] for p in passes) < seconds:
        passes.append(bench.run_pass())
    n = len(bench.cases)

    def p50_ms(per_pass) -> float:
        # Each report's median over the passes, then the median report.
        return 1e3 * statistics.median(statistics.median(xs) for xs in zip(*per_pass))

    def throughput(per_pass) -> float:
        # Verified reports per second of the median pass (reference runs excluded).
        return statistics.median(n / sum(slots) for slots in per_pass)

    def normalised(key):
        return [[x / s for x, s in zip(p[key], p["speed"])] for p in passes]

    metrics = {
        "report_p50_norm_ms": (p50_ms(normalised("latencies")), "ms"),
        "throughput_norm_inst_s": (throughput(normalised("slots")), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ms = [1e3 * x for p in passes for x in p["latencies"]]
    meta = {
        "samples": {
            "report_p50_norm_ms": len(ms),
            "throughput_norm_inst_s": len(passes),
            "peak_rss_mb": 1,
        },
        "timed_passes": len(passes),
        # The same figures without normalisation, for reading, not gating.
        "report_p50_ms": p50_ms([p["latencies"] for p in passes]),
        "throughput_inst_s": throughput([p["slots"] for p in passes]),
        "reference_ms": 1e3 * statistics.median(x for p in passes for x in p["reference_s"]),
    }
    if len(ms) >= 100:
        meta["report_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    meta["passes"] = [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"]} for p in passes]
    return metrics, meta


PER_REPORT_MS = (
    "io_formats.parse", "io_formats.serialize", "builders.agreement",
    "graph_core.cycle_basis", "graph_core.monodromy_gram",
    "weil_data.count_points", "weil_data.validate_weil", "weil_data.direct_sum",
    "phin_module.verify_relations", "phin_module.assemble",
    "phin_module.hodge_newton", "phin_module.duality",
    "exact_linalg.matmul", "exact_linalg.char_poly", "exact_linalg.det",
    "exact_linalg.rank", "exact_linalg.is_positive_definite", "exact_linalg.is_prime",
    "kernels.det_int", "kernels.charpoly_int", "kernels.rank_int", "kernels.count_points",
)
PER_REPORT_CALLS = (
    "builders.build_from_curve", "builders.resolve_component",
    "weil_data.count_points", "weil_data.validate_weil",
    "phin_module.verify_relations", "exact_linalg.matmul",
    "exact_linalg.char_poly", "exact_linalg.is_prime",
)
PER_REPORT_SUMS = ("weil_data.points_enumerated", "exact_linalg.matmul_mults")
MAXIMA = {
    "weil_data.validate_weil_max_size": "rows",
    "exact_linalg.char_poly_max_n": "rows",
    "kernels.max_entry_bits": "bits",
}


def traced_run(bench: Bench, seconds: float) -> tuple:
    """Untraced and traced passes in turn; per-layer numbers per report."""
    from tracing import Tracer

    bench.run_pass()  # warm-up, untimed
    tracer = Tracer()
    plain, traced = [], []
    while not traced or sum(p["wall_s"] for p in plain + traced) < seconds:
        plain.append(bench.run_pass())
        with tracer:
            traced.append(bench.run_pass(tracer))
    reports = len(bench.cases) * len(traced)
    self_time, calls = tracer.layer_totals()
    metrics = {}
    for name in PER_REPORT_MS:
        metrics[f"{name}_ms"] = (1e3 * self_time[name] / reports, "ms")
    for name in PER_REPORT_CALLS:
        metrics[f"{name}_calls"] = (calls[name] / reports, "count")
    for name in PER_REPORT_SUMS:
        metrics[name] = (tracer.extra[name] / reports, "count")
    for name, unit in MAXIMA.items():
        metrics[name] = (tracer.extra[name], unit)
    metrics["io_formats.report_bytes"] = (traced[0]["bytes"] / len(bench.cases), "bytes")
    # Report and verification time of the median pass, reference runs excluded.
    overhead = statistics.median(sum(p["slots"]) for p in traced) - statistics.median(
        sum(p["slots"]) for p in plain)
    metrics["trace.overhead_ms"] = (1e3 * overhead / len(bench.cases), "ms")
    meta = {
        "samples": {"per_layer": reports},
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "reference_ms": 1e3 * statistics.median(x for p in traced for x in p["reference_s"]),
    }
    return metrics, meta


def main(argv) -> int:
    src, workload, seed, seconds, trace = argv[1], argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    sys.path.insert(0, src)
    bench = Bench(workload, seed)
    metrics, meta = (traced_run if trace else timed_run)(bench, seconds)
    checks_ok = bench.self_checks(workload, seed)
    meta.update({
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": bench.phinmod.BACKEND,
        "phinmod_file": bench.phinmod.__file__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cases": len(bench.cases),
        "golden": "checked" if bench.golden else "no digests recorded for this seed",
        "self_checks": "pass" if checks_ok else "fail",
        "fail_frac": bench.failed / bench.attempted,
    })
    out = {
        "correct": bench.failed == 0 and checks_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "meta": meta,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
