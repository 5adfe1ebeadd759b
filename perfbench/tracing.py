"""Spans around calls into phinmod's public functions, recorded from outside.

A module that does ``from .graph_core import cycle_basis`` holds its own
reference, so a function is wrapped *where it is looked up*: every
``phinmod`` module attribute that is the original function object is
replaced by the wrapper (``phinmod.builders.cycle_basis`` and
``phinmod.graph_core.cycle_basis`` alike), and ``QMatrix.__matmul__`` is
replaced on the class.  Spans (name, start, end, parent, report) stay in
memory; :meth:`Tracer.layer_totals` turns them into self time per layer.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rows(m) -> int:
    return m.rows if hasattr(m, "rows") else len(m)


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for r in rows for x in r), default=0)


def _matmul_mults(a, b):
    return a.rows * a.cols * b.cols


# Counters taken from a call's arguments: span name -> [(counter, kind,
# function)].  "sum" adds the value of every call, "max" keeps the largest.
MEASURES = {
    "exact_linalg.matmul": [("exact_linalg.matmul_mults", "sum", _matmul_mults)],
    "exact_linalg.char_poly": [("exact_linalg.char_poly_max_n", "max", lambda m: m.rows)],
    "weil_data.validate_weil": [("weil_data.validate_weil_max_size", "max", lambda m, *a: _rows(m))],
    "weil_data.count_points": [("weil_data.points_enumerated", "sum", lambda e, *a: e.p)],
    "kernels.det_int": [("kernels.max_entry_bits", "max", _max_bits)],
    "kernels.charpoly_int": [("kernels.max_entry_bits", "max", _max_bits)],
    "kernels.rank_int": [("kernels.max_entry_bits", "max", _max_bits)],
}

# Span name -> [(defining module, attribute)].  laurent_calc is on no report
# path and is not traced.
TARGETS = {
    "io_formats.parse": [("phinmod.io_formats", "instance_from_json")],
    "io_formats.serialize": [
        ("phinmod.io_formats", "build_report"),
        ("phinmod.io_formats", "dump_json"),
    ],
    "cli.run_checks": [("phinmod.cli", "run_checks")],
    "builders.build_from_curve": [("phinmod.builders", "build_from_curve")],
    "builders.resolve_component": [("phinmod.builders", "resolve_component")],
    "builders.agreement": [("phinmod.builders", "check_curve_jacobian_agreement")],
    "graph_core.cycle_basis": [("phinmod.graph_core", "cycle_basis")],
    "graph_core.monodromy_gram": [("phinmod.graph_core", "monodromy_gram")],
    "weil_data.count_points": [("phinmod.weil_data", "count_points")],
    "weil_data.validate_weil": [("phinmod.weil_data", "validate_weil")],
    "weil_data.direct_sum": [("phinmod.weil_data", "direct_sum")],
    "phin_module.assemble": [("phinmod.phin_module", "assemble")],
    "phin_module.verify_relations": [("phinmod.phin_module", "verify_relations")],
    "phin_module.hodge_newton": [("phinmod.phin_module", "hodge_newton")],
    "phin_module.duality": [("phinmod.phin_module", "verify_monodromy_duality")],
    "exact_linalg.matmul": [("phinmod.exact_linalg", "QMatrix.__matmul__")],
    "exact_linalg.char_poly": [("phinmod.exact_linalg", "char_poly")],
    "exact_linalg.det": [("phinmod.exact_linalg", "det")],
    "exact_linalg.rank": [("phinmod.exact_linalg", "rank")],
    "exact_linalg.is_positive_definite": [("phinmod.exact_linalg", "is_positive_definite")],
    "exact_linalg.is_prime": [("phinmod.exact_linalg", "is_prime")],
    "kernels.det_int": [("phinmod._backend", "det_int")],
    "kernels.charpoly_int": [("phinmod._backend", "charpoly_int")],
    "kernels.rank_int": [("phinmod._backend", "rank_int")],
    "kernels.count_points": [("phinmod._backend", "count_points")],
}


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, report id)
        self.report = 0  # id shared by the spans of one report
        self.extra = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, self.extra
        measures = MEASURES.get(name, ())

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.report)
                for key, kind, value in measures:
                    v = value(*args)
                    extra[key] = extra[key] + v if kind == "sum" else max(extra[key], v)

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "phinmod" or n.startswith("phinmod.")]
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: replace it on its class
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._undo.append((cls, attr, getattr(cls, attr)))
                    setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                    continue
                orig = getattr(owner, attr)
                wrapper = self.wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def layer_totals(self) -> tuple:
        """(self seconds per span name, calls per span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner
            calls[name] += 1
        return self_time, calls
