#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout (``phinmod`` is imported from ./src).  The
generators must be deterministic per seed, fuzz_mix must draw from the same
stream as ``phinmod.fuzz``, every generated report must pass and match its
recorded digest, a tampered report or one that leaves out a check must be
counted as failed, and tracing
must leave the reports and the program unchanged.
"""

import json
import os
import random
import sys
import unittest
from collections import Counter

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Bench, verify  # noqa: E402


class Generators(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name, make in workloads.WORKLOADS.items():
            first = [c.text for c in make(3)]
            self.assertEqual(first, [c.text for c in make(3)], name)
            self.assertNotEqual(first, [c.text for c in make(4)], name)

    def test_fuzz_mix_draws_the_phinmod_fuzz_stream(self):
        from phinmod.fuzz import instance_stream
        from phinmod.io_formats import instance_to_json

        for seed in (0, 5):
            rng = random.Random(seed)
            mine = [json.loads(workloads.fuzz_case(rng).text) for _ in range(50)]
            self.assertEqual(mine, [instance_to_json(i) for i in instance_stream(seed, 50)])

    def test_fuzz_mix_fills_every_quota(self):
        quotas = {k: v for k, v in workloads.fuzz_quotas(workloads.FUZZ_CASES).items() if v}
        classes = Counter(
            workloads.fuzz_class(sum(c.dims), c.dims[1] // 2) for c in workloads.fuzz_mix(0)
        )
        self.assertEqual(classes, quotas)

    def test_fuzz_quotas_follow_the_stream(self):
        n = 20000
        rng = random.Random(1)
        seen = Counter(
            workloads.fuzz_class(sum(c.dims), c.dims[1] // 2)
            for c in (workloads.fuzz_case(rng) for _ in range(n))
        )
        expected = {k: n * v for k, v in workloads.fuzz_law().items() if n * v >= 5}
        chi2 = sum((seen[k] - e) ** 2 / e for k, e in expected.items())
        dof = len(expected) - 1
        self.assertLess(chi2, dof + 5 * (2 * dof) ** 0.5)  # five standard deviations


class Reports(unittest.TestCase):
    def test_every_report_passes_and_matches_its_digest(self):
        for name in workloads.WORKLOADS:
            bench = Bench(name, 0)
            self.assertIsNotNone(bench.golden, name)
            bench.run_pass()
            self.assertEqual(bench.failed, 0, name)

    def test_tampered_report_is_counted(self):
        bench = Bench("point_count", 0)
        honest = bench.report
        tamper = bench.cases[7].text

        def report(text):
            out = honest(text)
            return out.replace('"pass"', '"fail"', 1) if text == tamper else out

        bench.report = report
        bench.run_pass()
        self.assertEqual((bench.failed, bench.attempted), (1, len(bench.cases)))
        self.assertTrue(bench.self_checks("point_count", 0))

    def test_missing_check_is_caught_without_a_digest(self):
        for name in ("point_count", "av_large_q"):
            bench = Bench(name, 0)
            case = bench.cases[0]
            text = bench.report(case.text)
            self.assertTrue(verify(case, text, None), name)
            report = json.loads(text)
            for key in list(report["checks"]):
                broken = json.loads(text)
                del broken["checks"][key]
                self.assertFalse(verify(case, json.dumps(broken), None), (name, key))
            del report["checks"]["relations"]["phi_invertible"]
            self.assertFalse(verify(case, json.dumps(report), None), name)


class Tracing(unittest.TestCase):
    def test_traced_reports_and_counts(self):
        import phinmod.builders

        original = phinmod.builders.cycle_basis
        bench = Bench("fuzz_mix", 1)
        bench.cases = bench.cases[:40]
        bench.golden = bench.golden[:40] if bench.golden else None
        bench.run_pass()
        counts = []
        for _ in range(2):
            tracer = Tracer()
            with tracer:
                self.assertIsNot(phinmod.builders.cycle_basis, original)
                bench.run_pass(tracer)
            counts.append(tracer.layer_totals()[1])
        self.assertIs(phinmod.builders.cycle_basis, original)
        self.assertEqual(bench.failed, 0)
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["phin_module.verify_relations"], 4 * 40)
        self.assertEqual(counts[0]["builders.build_from_curve"], 2 * 40)


if __name__ == "__main__":
    unittest.main()
