"""Instances read in one pass, each node by its fast path or read again
alone.

``instance_from_json`` reads each field, vertex, edge, source and matrix by
exact type tests, and a node that fails them again by the helpers that
take a rarer spelling or name the fault.  Whatever the input, the outcome
must be that of ``oracles.read_by_field``, which reads every field with
``isinstance`` tests and a context string: an ``==`` record, or the same
exception class and message.  Each Weil block is certified at most once.
The inputs are the mutated instances of ``test_cli_mutations.py``, with
lists and objects swapped and integer strings spelled as JSON numbers.
"""

import contextlib
import copy
import json
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phinmod.io_formats as io_formats
from phinmod.errors import SchemaError, ValidationError
from phinmod.io_formats import INT_TEXT, instance_from_json

from oracles import read_by_field
from test_cli_mutations import INSTANCES, mutated_instances, paths


def outcome(read, obj):
    try:
        return ("record", read(copy.deepcopy(obj)))
    except Exception as exc:  # the class and message are the outcome
        return (type(exc).__name__, str(exc))


@contextlib.contextmanager
def certificates():
    """The source of every block that ``instance_from_json`` certifies."""
    calls = []
    certify = io_formats.resolve_component

    def counted(src, *args):
        calls.append(src)
        return certify(src, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_formats, "resolve_component", counted)
        yield calls


def source_count(obj) -> int:
    """How many Weil blocks an abelian-variety file lists; 0 for any other."""
    if not isinstance(obj, dict) or obj.get("kind") != "av":
        return 0
    sources = obj.get("b_frobenius")
    return len(sources) if isinstance(sources, list) else 0


def assert_read_by_field(obj):
    with certificates() as calls:
        got = outcome(instance_from_json, obj)
    assert got == outcome(read_by_field, obj)
    assert len(calls) <= source_count(obj)


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
    "not-weil-then-unknown-type": (_av, ("b_frobenius",), [NOT_WEIL, {"type": "torus"}]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_and_spelling_cases(case):
    base, path, value, *more = CASES[case]
    obj = base()
    for path, value in [(path, value), *more]:
        _edit(obj, path, value)
    assert_read_by_field(obj)


def test_a_refused_weil_block_is_certified_once():
    """A shape fault after a block that its certificate refuses: the block
    is certified once, and the certificate's refusal is the one named."""
    obj = _av()
    obj["b_frobenius"].append({"type": "torus"})
    obj["b_frobenius"][0]["entries"][1][1] = "5"
    with certificates() as calls:
        assert outcome(instance_from_json, obj)[0] == "WeilValidationError"
    assert len(calls) == 1


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
