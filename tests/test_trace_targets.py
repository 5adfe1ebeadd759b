"""Every name the benchmark harness looks up still exists.

``perfbench/tracing.py`` names its layers as (module, attribute) pairs in
``TARGETS`` and looks each one up when tracing starts, so a renamed or
deleted function breaks ``--trace 1``.  This reads the table from the file
and resolves every pair on the installed ``phinmod``.  The harness also
records ``phinmod.BACKEND`` in every run, outside ``TARGETS``.

Every ``perfbench/*.py`` file is parsed with ``ast``, and each name it
imports from ``phinmod`` (``from phinmod... import name`` or ``import
phinmod...``) must resolve on the package.  ``perfbench/worker.py`` makes
each report as ``dump_json(run_checks(instance_from_json(obj),
DEFAULT_POINT_BOUND))``; that call is made here on every example instance
and must give the report of ``phinmod build``.  So a change to a name or
signature the harness uses fails here, not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import phinmod
from phinmod import cli, io_formats
from phinmod.weil_data import DEFAULT_POINT_BOUND

from conftest import INSTANCE_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_backend_name_is_a_string():
    assert isinstance(phinmod.BACKEND, str)


def test_every_exported_name_resolves_once():
    names = phinmod.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(phinmod, n)] == []


def harness_imports() -> list:
    """(file, module, name) of each name a ``perfbench/*.py`` file imports
    from ``phinmod``; name is None for ``import phinmod...``."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "phinmod":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "phinmod"]
    return out


def _resolves(module_name: str, name) -> bool:
    try:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            # ``from package import name`` takes a submodule too
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_harness_imports_resolves():
    imports = harness_imports()
    assert {("worker.py", "phinmod", "cli"), ("worker.py", "phinmod", "io_formats"),
            ("worker.py", "phinmod.weil_data", "DEFAULT_POINT_BOUND"),
            ("selftest.py", "phinmod.io_formats", "instance_to_json")} <= set(imports)
    assert [i for i in imports if not _resolves(*i[1:])] == []


def test_the_harness_report_call_gives_the_build_report(tmp_path, capsys):
    for path in sorted(INSTANCE_DIR.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        text = io_formats.dump_json(
            cli.run_checks(io_formats.instance_from_json(obj), DEFAULT_POINT_BOUND))
        out = tmp_path / "report.json"
        assert cli.main(["build", str(path), "--out", str(out)]) == 0, path.name
        assert text == out.read_text(encoding="utf-8"), path.name
    capsys.readouterr()
