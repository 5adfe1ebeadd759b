"""Every function the benchmark's ``--trace 1`` wraps still exists.

``perfbench/tracing.py`` names its layers as (module, attribute) pairs in
``TARGETS`` and looks each one up when tracing starts, so a renamed or
deleted function breaks ``--trace 1``.  This reads the table from the file
and resolves every pair on the installed ``phinmod``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for name, sites in targets.items():
        for module_name, attr in sites:
            assert module_name.split(".")[0] == "phinmod", (name, module_name)
            obj = importlib.import_module(module_name)
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append((name, module_name, attr))
    assert missing == []
