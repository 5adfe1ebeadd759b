"""``io_formats.dump_json`` writes exactly the text of
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for every JSON value
with ``str`` keys: the reports, the instances and adversarial strings."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinmod.cli import main, run_checks
from phinmod.fuzz import instance_stream
from phinmod.io_formats import dump_json, instance_to_json, load_instance
from phinmod.weil_data import DEFAULT_POINT_BOUND

from conftest import INSTANCE_DIR

INSTANCE_FILES = sorted(INSTANCE_DIR.glob("*.json"), key=lambda p: p.name)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_same_text(obj):
    assert dump_json(obj) == reference(obj)


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.name)
def test_instance_file_and_its_report(path):
    assert_same_text(json.loads(path.read_text(encoding="utf-8")))
    inst = load_instance(str(path))
    assert_same_text(instance_to_json(inst))
    report = run_checks(inst, DEFAULT_POINT_BOUND)
    assert_same_text(report)
    report["timing"] = {"seconds": "0.012345"}  # a nested dict sorted after "module"
    assert_same_text(report)


@pytest.mark.parametrize("seed", [7, 11])
def test_fuzz_reports(seed):
    for inst in instance_stream(seed, 40):
        assert_same_text(run_checks(inst, DEFAULT_POINT_BOUND))


ADVERSARIAL_STRINGS = (
    ['"', "\\", "\x7f", "é", "v\"1é", "\U0001f600", "\ud800", "\udfff", "", "plain"]
    + [chr(c) for c in range(0x20)]
)


@pytest.mark.parametrize(
    "obj",
    [
        ADVERSARIAL_STRINGS,
        {s: s for s in ADVERSARIAL_STRINGS},
        {s: [s, [s], {s: s}] for s in ADVERSARIAL_STRINGS},
        [],
        {},
        [[]],
        [{}],
        {"a": [], "b": {}, "c": [[], [[]], {"d": {}}]},
        ["a", "b", "c\"d"],  # only the last item needs escaping
        ["a", "b", "\x1f"],
        ["0", 1, "2"],  # strings mixed with other scalars
        [["0", "1"], ["2", "3\n"]],
        # shapes next to the matrix path: a row that is a string, a dict or
        # empty, tuple rows, an entry that needs escaping, ragged rows, and
        # a row whose entry is a list
        [["a"], "bc"],
        [["a"], {"b": "c"}],
        [["a"], []],
        [("a",), ["b"]],
        [["a"], ["\""]],
        [["a", "b", "c"], ["d"], ["e", "f"]],
        [[["a"]]],
        ("t", ("u", "v")),  # tuples are written as lists
        [None, True, False, 0, -12345678901234567890, 1.5, -0.0, 1e300],
        "\x00\"\\\U0010ffff",
        None,
        3,
    ],
)
def test_adversarial_values(obj):
    assert_same_text(obj)


def test_keys_must_be_strings():
    with pytest.raises(TypeError):
        dump_json({1: "a"})


# Any code point, with the characters that need escaping drawn often enough
# to appear in most runs.
json_text = st.text(
    st.characters(codec=None, exclude_categories=())
    | st.sampled_from("".join(ADVERSARIAL_STRINGS))
)
# Lists of lists of strings, the shape of the report matrices; rows may be
# empty, ragged or tuples.  Entries are often plain decimal text, so that
# many matrices need no escaping and take the whole-matrix path.
matrix_entry = st.text("0123456789-/", max_size=4) | json_text
string_rows = st.lists(matrix_entry, max_size=5) | st.tuples(matrix_entry, matrix_entry)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | json_text
    | st.lists(string_rows, max_size=5),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(json_text, children, max_size=6),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_matches_json_dumps(obj):
    assert_same_text(obj)


@settings(max_examples=300, deadline=None)
@given(st.lists(string_rows, min_size=1, max_size=6))
def test_string_matrices_match_json_dumps(rows):
    assert_same_text(rows)
    assert_same_text({"m": rows})


def test_escaped_vertex_id_builds_end_to_end(tmp_path, capsys):
    vid = "v\"1é"
    obj = {
        "format": "phinmod-instance-v1",
        "kind": "curve",
        "p": "5",
        "f": "1",
        "graph": {
            "vertices": [{"id": vid, "genus": "0"}],
            "edges": [{"id": "e0", "tail": vid, "head": vid}],
        },
        "components": {vid: {"type": "genus0"}},
    }
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["build", str(path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["instance"]["graph"]["vertices"][0]["id"] == vid
    assert out == reference(report)
