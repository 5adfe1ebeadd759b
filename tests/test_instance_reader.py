"""Instances read in one pass, and the field-by-field reader that names a
fault.

``instance_from_json`` reads the whole shape of an instance first, then
builds its records; on any shape fault it leaves the file to
``io_formats._read_by_field``.  Whatever the input, the outcome must be
that reader's: an ``==`` record, or the same exception class and message.
The inputs are the mutated instances of ``test_cli_mutations.py``, with
lists and objects swapped and integer strings spelled as JSON numbers.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phinmod.io_formats as io_formats
from phinmod.io_formats import INT_TEXT, instance_from_json

from test_cli_mutations import INSTANCES, mutated_instances, paths


def outcome(read, obj):
    try:
        return ("record", read(copy.deepcopy(obj)))
    except Exception as exc:  # the class and message are the outcome
        return (type(exc).__name__, str(exc))


def assert_read_by_field(obj):
    assert outcome(instance_from_json, obj) == outcome(io_formats._read_by_field, obj)


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

# (base, path, value): one shape fault, or a rarer valid spelling, each read
# again by the field-by-field reader
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
    "elliptic-at-f-2": (_av, ("b_frobenius",), [ELLIPTIC]),
    "singular-elliptic": (_av, ("b_frobenius",), [{**ELLIPTIC, "a4": "0", "a6": "0"}]),
    "not-weil": (_av, ("b_frobenius", 0, "entries", 1, 1), "5"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_and_spelling_cases(case):
    base, path, value = CASES[case]
    obj = _edit(base(), path, value)
    if case == "elliptic-at-f-2":
        obj["f"] = "2"
    assert_read_by_field(obj)


@pytest.mark.parametrize("case", ["format-absent", "singular-elliptic", "not-weil", "gram-not-square"])
def test_well_formed_shapes_are_read_once(case, monkeypatch):
    """A well-formed shape, whether its records take it or refuse it, is
    not read again."""
    base, path, value = CASES[case]
    obj = _edit(base(), path, value)
    expected = outcome(io_formats._read_by_field, obj)
    calls = []
    monkeypatch.setattr(io_formats, "_read_by_field", lambda *args: calls.append(args))
    assert outcome(instance_from_json, obj) == expected and calls == []


def test_a_refused_weil_block_is_certified_once(monkeypatch):
    """A shape fault after a block that its certificate refuses: the block
    is certified by the field-by-field reader alone."""
    calls = []
    certify = io_formats.resolve_component

    def counted(src, *args):
        calls.append(src)
        return certify(src, *args)

    monkeypatch.setattr(io_formats, "resolve_component", counted)
    obj = _av()
    obj["b_frobenius"].append({"type": "torus"})
    obj["b_frobenius"][0]["entries"][1][1] = "5"
    assert outcome(instance_from_json, obj)[0] == "WeilValidationError"
    assert len(calls) == 1


def test_the_examples_read_as_written():
    for name, obj in INSTANCES.items():
        inst = instance_from_json(json.loads(json.dumps(obj)))
        assert outcome(io_formats._read_by_field, obj) == ("record", inst), name
