"""Instances read in one pass, each node by its fast path or read again
alone.

``instance_from_json`` reads each field, vertex, edge, source and matrix by
exact type tests, and a node that fails them again by the helpers that
take a rarer spelling or name the fault.  Whatever the input, the outcome
must be that of ``oracles.read_by_field``, which reads every field with
``isinstance`` tests and a context string: an ``==`` record, or the same
exception class and message.  The reader only reads: it counts no point and
certifies no Weil block, and ``builders.build_from_av`` resolves each
source once when the module is built.  So an abelian-variety file names a
shape fault first, then a record's (``check_q``, the torus rank, an
elliptic source at f != 1), then a refused certificate.  The inputs are
the mutated instances of ``test_cli_mutations.py``, with lists and objects
swapped and integer strings spelled as JSON numbers.
"""

import contextlib
import copy
import io
import json
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phinmod.builders
import phinmod.cli
import phinmod.weil_data
from phinmod.cli import main
from phinmod.errors import SchemaError, ValidationError
from phinmod.exact_linalg import QMatrix
from phinmod.io_formats import INT_TEXT, instance_from_json

from oracles import read_by_field
from test_cli_mutations import INSTANCES, mutated_instances, paths


def outcome(read, obj):
    try:
        return ("record", read(copy.deepcopy(obj)))
    except Exception as exc:  # the class and message are the outcome
        return (type(exc).__name__, str(exc))


@contextlib.contextmanager
def nothing_resolved():
    """``validate_weil`` and ``count_points``, wherever the package holds
    them, replaced by functions that note their call and raise; the list
    of calls is yielded."""
    calls = []

    def refuse(name):
        def called(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return called

    with pytest.MonkeyPatch.context() as mp:
        for module in (phinmod.weil_data, phinmod.builders):
            mp.setattr(module, "validate_weil", refuse("validate_weil"))
        for module in (phinmod.weil_data, phinmod.cli):
            mp.setattr(module, "count_points", refuse("count_points"))
        yield calls


def assert_read_by_field(obj):
    with nothing_resolved() as calls:
        got = outcome(instance_from_json, obj)
    assert calls == []
    assert got == outcome(read_by_field, obj)


def respell(node):
    """A list as an object keyed by index, an object as the list of its
    values, an integer string as a JSON number; None if ``node`` is none
    of these."""
    if isinstance(node, list):
        return {str(k): x for k, x in enumerate(node)}
    if isinstance(node, dict):
        return list(node.values())
    if isinstance(node, str) and INT_TEXT.fullmatch(node) and len(node) < 4000:
        return int(node)
    return None


@st.composite
def respelled_instances(draw):
    """An intact or mutated instance with up to two nodes respelled."""
    if draw(st.booleans()):
        obj = copy.deepcopy(INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))])
    else:
        obj = draw(mutated_instances())
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(paths(obj))))
        if not path:
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        new = respell(parent[path[-1]])
        if new is not None:
            parent[path[-1]] = new
    return obj


@settings(max_examples=400, deadline=None)
@given(respelled_instances())
def test_same_outcome_as_the_field_by_field_reader(obj):
    assert_read_by_field(obj)


def _curve() -> dict:
    return copy.deepcopy(INSTANCES["good_reduction.json"])


def _av() -> dict:
    obj = copy.deepcopy(INSTANCES["av_tate.json"])
    obj["b_frobenius"] = [{"type": "matrix", "entries": [["0", "-5"], ["1", "2"]]}]
    return obj


def _edit(obj, path, value):
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is KeyError:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


ELLIPTIC = {"type": "elliptic", "a4": "1", "a6": "1"}
MATRIX = {"type": "matrix", "entries": [["0", "-5"], ["1", "2"]]}
NOT_WEIL = {"type": "matrix", "entries": [["0", "-5"], ["1", "5"]]}

# (base, path, value, *more): one shape fault, or a rarer valid spelling,
# each read again by the slow path of its node; ``more`` holds further
# (path, value) edits
CASES = {
    "vertices-object": (_curve, ("graph", "vertices"), {}),
    "edges-object": (_curve, ("graph", "edges"), {}),
    "components-list": (_curve, ("components",), []),
    "graph-list": (_curve, ("graph",), []),
    "vertex-list": (_curve, ("graph", "vertices", 0), ["v0", "0"]),
    "vertex-id-number": (_curve, ("graph", "vertices", 0, "id"), 0),
    "edge-tail-missing": (_curve, ("graph", "edges", 0, "tail"), KeyError),
    "genus-number": (_curve, ("graph", "vertices", 0, "genus"), 1),
    "genus-spaced": (_curve, ("graph", "vertices", 0, "genus"), " 1"),
    "genus-beyond-int-limit": (_curve, ("graph", "vertices", 0, "genus"), "1" * 5000),
    "p-number": (_curve, ("p",), 5),
    "p-bool": (_curve, ("p",), True),
    "f-missing": (_curve, ("f",), KeyError),
    "kind-unknown": (_curve, ("kind",), "torus"),
    "format-other": (_curve, ("format",), "phinmod-instance-v0"),
    "format-absent": (_curve, ("format",), KeyError),
    "source-unknown": (_curve, ("components", "v0"), {"type": "torus"}),
    "source-list": (_curve, ("components", "v0"), ["genus0"]),
    "elliptic-a4-number": (_av, ("b_frobenius", 0), {**ELLIPTIC, "a4": 1}),
    "entries-object": (_av, ("b_frobenius", 0, "entries"), {"0": ["0", "-5"], "1": ["1", "2"]}),
    "row-object": (_av, ("b_frobenius", 0, "entries", 1), {"1": "1", "2": "2"}),
    "entry-number": (_av, ("b_frobenius", 0, "entries", 1, 1), 2),
    "entry-fraction": (_av, ("b_frobenius", 0, "entries", 1, 1), "4/2"),
    "ragged": (_av, ("b_frobenius", 0, "entries", 1), ["1"]),
    "not-square": (_av, ("b_frobenius", 0, "entries"), [["0", "-5"]]),
    "too-many-rows": (_av, ("b_frobenius", 0, "entries"), [["0"] * 65] * 65),
    "gram-object": (_av, ("gram",), {"0": ["1"]}),
    "gram-ragged": (_av, ("gram",), [["1", "0"], ["0"]]),
    # as many entries as three rows of two
    "gram-ragged-full": (_av, ("gram",), [["1", "0"], ["0"], ["0", "1", "0"]]),
    "gram-not-square": (_av, ("gram",), [["1", "0"]]),
    "gram-empty-row": (_av, ("gram",), [[]]),
    "torus-rank-number": (_av, ("torus_rank",), 1),
    "b-frobenius-object": (_av, ("b_frobenius",), {"0": MATRIX}),
    "elliptic-at-f-2": (_av, ("b_frobenius",), [ELLIPTIC], (("f",), "2")),
    "singular-elliptic": (_av, ("b_frobenius",), [{**ELLIPTIC, "a4": "0", "a6": "0"}]),
    "not-weil": (_av, ("b_frobenius", 0, "entries", 1, 1), "5"),
    # a record's fault before a later shape fault: the record's is named
    "duplicate-vertex-then-bad-source": (_curve, ("graph", "vertices", 1, "id"), "v0",
                                         (("components", "v0"), {"type": "matrix"})),
    # a block that is not Weil is read, not certified: the later shape
    # fault is named
    "not-weil-then-unknown-type": (_av, ("b_frobenius",), [NOT_WEIL, {"type": "torus"}]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_and_spelling_cases(case):
    base, path, value, *more = CASES[case]
    obj = base()
    for path, value in [(path, value), *more]:
        _edit(obj, path, value)
    assert_read_by_field(obj)


def test_the_reader_counts_and_certifies_nothing():
    """Every example file, and an abelian variety with a block that is not
    Weil, an elliptic source and a later shape fault, read with
    ``validate_weil`` and ``count_points`` made to raise: the sources are
    kept as given, and the shape fault is named."""
    obj = _av()
    obj["b_frobenius"] = [NOT_WEIL, ELLIPTIC]
    with nothing_resolved() as calls:
        for example in INSTANCES.values():
            instance_from_json(example)
        inst = instance_from_json(copy.deepcopy(obj))
        obj["b_frobenius"].append({"type": "torus"})
        with pytest.raises(SchemaError, match=r"^field 'b_frobenius\[2\]\.type' has unknown"):
            instance_from_json(obj)
    assert calls == []
    assert inst.b_frobenius[0] == QMatrix.from_rows([[0, -5], [1, 5]])
    assert inst.b_frobenius[1].a4 == 1


def build(obj, tmp_path) -> tuple:
    """(exit code, stderr) of ``phinmod build`` on ``obj``."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["build", str(path)])
    return code, err.getvalue()


def test_build_resolves_each_source_once(tmp_path):
    """``build`` resolves each component source once, in order, and stops
    at the first that is refused."""
    calls = []
    resolve = phinmod.builders.resolve_component

    def counted(src, *args):
        calls.append(src)
        return resolve(src, *args)

    cases = [(obj, 0, len(obj["components" if obj["kind"] == "curve" else "b_frobenius"]))
             for obj in INSTANCES.values()]
    three = _av()
    three["b_frobenius"] += [ELLIPTIC, {"type": "genus0"}]
    cases.append((three, 0, 3))
    refused = _av()
    refused["b_frobenius"] += [NOT_WEIL, ELLIPTIC]
    cases.append((refused, 2, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phinmod.builders, "resolve_component", counted)
        for obj, code, resolved in cases:
            calls.clear()
            assert build(obj, tmp_path)[0] == code
            assert len(calls) == resolved


def av_with(*edits) -> dict:
    """``_av()`` with the fields of each of ``edits``; the b_frobenius
    lists of several are joined in order."""
    obj = _av()
    for fields in edits:
        obj.update(fields)
    sources = [src for fields in edits for src in fields.get("b_frobenius", [])]
    if sources:
        obj["b_frobenius"] = sources
    return obj


# Two faults of an abelian-variety file from adjacent stages of the order
# shape, record (check_q, torus rank, elliptic at f != 1), certificate:
# the fields of the earlier stage's fault, with its message, and those of
# the later one's, whose sources come first in the file
FAULT_PAIRS = {
    "shape-before-check-q": ({"b_frobenius": [MATRIX, {"type": "torus"}]},
                             "field 'b_frobenius[1].type' has unknown value 'torus'",
                             {"p": "4"}),
    "check-q-before-torus-rank": ({"p": "4"}, "field 'p' = 4 is not prime",
                                  {"torus_rank": "2"}),
    "torus-rank-before-elliptic-at-f-2": (
        {"torus_rank": "2"}, "field 'torus_rank' = 2 is not the torus rank of a 1x1 gram",
        {"f": "2", "b_frobenius": [ELLIPTIC]}),
    "elliptic-at-f-2-before-certificate": (
        {"f": "2", "b_frobenius": [ELLIPTIC]},
        "field 'b_frobenius[1]': elliptic sources require f = 1",
        {"b_frobenius": [NOT_WEIL]}),
}


@pytest.mark.parametrize("case", sorted(FAULT_PAIRS))
def test_av_faults_are_named_in_order(case, tmp_path):
    named, message, later = FAULT_PAIRS[case]
    assert build(av_with(later, named), tmp_path) == (2, f"error: {message}\n")
    # each fault alone is refused too
    for fields in (named, later):
        assert build(av_with(fields), tmp_path)[0] == 2, (case, fields)


def test_the_examples_read_as_written():
    for name, obj in INSTANCES.items():
        inst = instance_from_json(json.loads(json.dumps(obj)))
        assert outcome(read_by_field, obj) == ("record", inst), name


def test_any_mapping_reads_as_an_object():
    """In process an object may be any Mapping, here a read-only view: every
    node then takes its slow path, and the record is the one of the dicts."""
    def viewed(node):
        if isinstance(node, dict):
            return MappingProxyType({k: viewed(v) for k, v in node.items()})
        if isinstance(node, list):
            return [viewed(x) for x in node]
        return node

    for name, obj in INSTANCES.items():
        inst = instance_from_json(obj)
        assert instance_from_json(viewed(obj)) == inst == read_by_field(viewed(obj)), name


def test_an_int_too_long_to_write_is_shown_by_its_digit_count():
    """In process a genus may be an int that Python refuses to write; the
    message that names it gives its digit count."""
    obj = _curve()
    obj["graph"]["vertices"][0]["genus"] = 10 ** 5000
    obj["components"]["v0"] = {"type": "genus0"}
    with pytest.raises(ValidationError, match="has genus <5001-digit integer> but a genus-0"):
        instance_from_json(obj)


def test_a_component_key_that_is_not_a_string_is_named():
    """In process a components mapping may have an int key; a fault of its
    source names the field with the key as ``clipped`` shows it."""
    obj = _curve()
    obj["components"][7] = {"type": "torus"}
    with pytest.raises(SchemaError, match=r"^field 'components\.7\.type' has unknown value 'torus'$"):
        instance_from_json(obj)
