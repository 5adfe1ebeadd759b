"""Every public function of ``phinmod``, and every method and property of
its public classes, is reached by a command.

The commands run under ``sys.setprofile``: ``build`` on each example
instance, ``fuzz --seed 7 --count 40``, and ``count`` at p = 101 and at
p = 10007, which is above the point-counting bound and refused.  A public
function or method that none of them calls is either dead code or serves
only tests, and belongs in ``tests/oracles.py`` or nowhere.  Dunder methods
(``__init__``, ``__repr__``, operators) are not held to this.
"""

import inspect
import sys
from functools import cached_property

import phinmod
from phinmod.cli import main

from conftest import INSTANCE_DIR

# public names that no command reaches, each kept for the benchmark harness
UNREACHED = {
    # perfbench/tracing.py times it as the exact_linalg.char_poly layer;
    # validate_weil calls the Berkowitz kernel directly
    "char_poly": "named in perfbench/tracing.py TARGETS",
    # perfbench/tracing.py times it as the graph_core.cycle_basis layer;
    # monodromy_gram reads the sparse cycles, not these dense vectors
    "cycle_basis": "named in perfbench/tracing.py TARGETS",
}


def _methods() -> dict:
    """"Class.name" -> the code of each non-dunder function, static method,
    property and cached property defined on a class of ``phinmod.__all__``."""
    out = {}
    for cls_name in phinmod.__all__:
        cls = getattr(phinmod, cls_name)
        if not inspect.isclass(cls):
            continue
        for name, value in vars(cls).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            elif isinstance(value, property):
                value = value.fget
            elif isinstance(value, cached_property):
                value = value.func
            if inspect.isfunction(value):
                out[f"{cls_name}.{name}"] = value.__code__
    return out


def _called_codes(argvs, tmp_path) -> tuple:
    """(exit codes, code objects called) of ``main`` on each of ``argvs``."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv + (["--out-dir", str(tmp_path)] if argv[0] == "fuzz" else []))
                 for argv in argvs]
    finally:
        sys.setprofile(None)
    return codes, called


def test_every_public_function_is_reached(tmp_path, capsys):
    argvs = [["build", str(path)] for path in sorted(INSTANCE_DIR.glob("*.json"))]
    argvs += [["fuzz", "--seed", "7", "--count", "40"],
              ["count", "101", "1", "1"], ["count", "10007", "1", "1"]]
    codes, called = _called_codes(argvs, tmp_path)
    assert codes == [0] * (len(argvs) - 1) + [2]
    assert "exceeds the point-counting bound" in capsys.readouterr().err
    methods = _methods()
    assert {name for name, code in methods.items() if code not in called} == set()
    functions = {
        name: inspect.unwrap(obj) for name in phinmod.__all__
        if inspect.isfunction(inspect.unwrap(obj := getattr(phinmod, name)))
    }
    assert set(UNREACHED) <= set(functions)
    unreached = {name for name, fn in functions.items() if fn.__code__ not in called}
    assert unreached == set(UNREACHED)
