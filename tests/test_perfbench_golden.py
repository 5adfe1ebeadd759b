"""The benchmark's workloads still give their recorded reports.

``perfbench/worker.py`` checks each report of a workload against the
digests in ``perfbench/golden.json``, and that every check reads "pass".
This loads the worker from its file, as ``test_trace_targets.py`` loads
``tracing.py``, and runs one pass of every workload in ``BENCHMARK.json``
at seed 0.  A change to the report bytes of those workloads, or to a name
the harness calls, then fails here without a benchmark run.

The example instances and the instances that ``phinmod fuzz`` would dump
must read back as the instances they were written from.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from phinmod.fuzz import instance_stream
from phinmod.io_formats import dump_json, instance_from_json

from conftest import INSTANCE_DIR

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def worker():
    # worker.py imports its sibling modules calibration and workloads by name
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("calibration", "workloads"):
            sys.modules.pop(name, None)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_pass_matches_golden_digests(worker, workload):
    bench = worker.Bench(workload, 0)
    assert bench.golden is not None
    bench.run_pass()
    assert bench.attempted == len(bench.cases) > 0
    assert bench.failed == 0


def test_examples_and_fuzz_dumps_read_back():
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        instance_from_json(json.loads(path.read_text(encoding="utf-8")))
    # the text of a fuzz failure dump is the instance's dump_json
    for inst in instance_stream(7, 200):
        assert instance_from_json(json.loads(dump_json(inst))) == inst
