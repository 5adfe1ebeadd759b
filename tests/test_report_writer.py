"""``io_formats.dump_json`` writes exactly the text of
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for every JSON value
with ``str`` keys: the reports, the instances and adversarial strings."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinmod.builders import UniformizationData, build_from_curve
from phinmod.cli import main, run_checks
from phinmod.exact_linalg import QMatrix
from phinmod.fuzz import instance_stream
from phinmod.io_formats import (
    BlockRows,
    dump_json,
    instance_to_json,
    load_instance,
    module_from_report,
    module_to_json,
)
from phinmod.phin_module import PhiNModule, hodge_newton
from phinmod.weil_data import DEFAULT_POINT_BOUND, EllipticCurveSpec, direct_sum, frobenius_of_elliptic

from conftest import INSTANCE_DIR, tate_instance
from oracles import dense_module

INSTANCE_FILES = sorted(INSTANCE_DIR.glob("*.json"), key=lambda p: p.name)


def reference(obj) -> str:
    # default=list: the standard library writes a BlockRows as its rows
    return json.dumps(obj, indent=2, sort_keys=True, default=list) + "\n"


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


# -- BlockRows: phi and n written from their blocks ----------------------------

# module_to_json reads only the polygons' numbers, so one report's polygons
# serve every hand-built module below
POLYGONS = hodge_newton(build_from_curve(tate_instance()))


def dense_text(m: QMatrix) -> list:
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def hand_built(phi1_rows, sizes, gram_rows, phi0=1, phi2=5, n02_rows=None) -> PhiNModule:
    """A module with phi1 and gram as given; each of ``sizes`` is the degree
    of a placeholder factor, so the writer takes them as phi1's blocks."""
    def matrix(rows):
        return QMatrix.from_rows(rows) if rows else QMatrix(0, 0, ())

    gram = matrix(gram_rows)
    return PhiNModule(
        p=5, f=1, phi0=phi0, phi1=matrix(phi1_rows),
        phi1_factors=tuple((0,) * size + (1,) for size in sizes), phi2=phi2,
        n02=gram if n02_rows is None else matrix(n02_rows), fil1_dim=0, gram=gram,
    )


def assert_written_from_blocks(m: PhiNModule):
    written = module_to_json(m, POLYGONS)
    dense = dense_module(m)
    for name in ("phi", "n"):
        rows, expected = written[name], dense_text(getattr(dense, name))
        assert isinstance(rows, BlockRows)
        assert rows == expected and expected == rows and not rows != expected
        assert list(rows) == expected and len(rows) == len(expected)
        assert rows == [tuple(r) for r in expected]
        assert_same_text(rows)
    assert_same_text({"module": written})
    # read back in this process: the same module, but for the scalars of
    # empty weight blocks, which it does not show
    assert module_to_json(module_from_report({"module": written}), POLYGONS) == written


SHAPES = {
    "d=0": hand_built([], [], []),
    "w1=0": hand_built([], [], [[2, 1], [1, 2]]),
    "w0=w2=0": hand_built([[0, -5], [1, 2]], [2], []),
    # an entry of phi1 in row 0 and one in row 3 lie outside the 2+2 blocks
    "off-block": hand_built(
        [[1, 2, 0, 7], [3, 4, 0, 0], [0, 0, 5, 6], [0, -1, 7, 8]], [2, 2], [[1]]
    ),
    # phi1 with a zero row and a 1x1 block, and blocks of size 0
    "zero-row": hand_built([[0, 0, 0], [0, 1, 2], [0, 3, 4]], [0, 1, 0, 2], [[3]]),
    "fraction": hand_built(
        [[Fraction(1, 2), 0], [0, 3]], [1, 1], [[1, 0], [0, 2]],
        phi0=Fraction(1, 3), phi2=Fraction(-7, 2), n02_rows=[[Fraction(2, 3), 0], [0, 5]],
    ),
}


@pytest.mark.parametrize("m", SHAPES.values(), ids=SHAPES.keys())
def test_block_rows_of_a_module(m):
    assert_written_from_blocks(m)


def test_block_rows_text():
    assert dump_json(BlockRows(0, ())) == "[]\n"
    phi = module_to_json(SHAPES["fraction"], POLYGONS)["phi"]
    assert dump_json(phi) == reference([
        ["1/3", "0", "0", "0", "0", "0"],
        ["0", "1/3", "0", "0", "0", "0"],
        ["0", "0", "1/2", "0", "0", "0"],
        ["0", "0", "0", "3", "0", "0"],
        ["0", "0", "0", "0", "-7/2", "0"],
        ["0", "0", "0", "0", "0", "-7/2"],
    ])


def test_block_rows_read_as_a_sequence():
    rows = BlockRows(3, ((1, ("a", "b")), (0, ()), (0, ("c",))))
    assert rows[0] == ["0", "a", "b"] and rows[-1] == ["c", "0", "0"]
    assert rows[1:] == [["0", "0", "0"], ["c", "0", "0"]]
    with pytest.raises(IndexError):
        rows[3]
    rows[0][0] = "x"  # a fresh list each time
    assert rows[0] == ["0", "a", "b"]
    assert rows != [["0", "a", "b"], ["0", "0", "0"]] and rows != "abc" and rows != 3
    assert rows == BlockRows(3, ((0, ("0", "a", "b")), (1, ("0",)), (0, ("c", "0"))))
    with pytest.raises(AttributeError):
        rows.size = 4
    twin = copy.deepcopy({"phi": rows})["phi"]
    assert type(twin) is list and twin == rows
    assert pickle.loads(pickle.dumps(rows)) == rows
    assert json.loads(dump_json(rows)) == rows


@st.composite
def block_layouts(draw):
    """A module whose phi1 is block diagonal in random block sizes, with
    zero, integer and fraction entries, and sometimes an entry outside the
    blocks; the torus rank and Gram entries are random too."""
    entry = st.integers(-12, 12) | st.fractions(-5, 5, max_denominator=6)
    sizes = draw(st.lists(st.integers(0, 4), max_size=5))
    w1, w2 = sum(sizes), draw(st.integers(0, 3))
    phi1 = [[0] * w1 for _ in range(w1)]
    o = 0
    for size in sizes:
        for i in range(o, o + size):
            for j in range(o, o + size):
                phi1[i][j] = draw(entry)
        o += size
    for _ in range(draw(st.integers(0, 2)) if w1 else 0):
        phi1[draw(st.integers(0, w1 - 1))][draw(st.integers(0, w1 - 1))] = draw(entry)
    gram = [[draw(entry) for _ in range(w2)] for _ in range(w2)]
    return hand_built(phi1, sizes, gram, phi0=draw(entry), phi2=draw(entry))


@settings(max_examples=200, deadline=None)
@given(block_layouts())
def test_random_block_layouts_match_json_dumps(m):
    assert_written_from_blocks(m)


@st.composite
def raw_block_rows(draw):
    """BlockRows with arbitrary runs, cells drawn like matrix entries: some
    need escaping, which takes the writer's general path."""
    d = draw(st.integers(0, 6))
    runs = []
    for _ in range(d):
        start = draw(st.integers(0, d))
        runs.append((start, tuple(draw(st.lists(matrix_entry, max_size=d - start)))))
    return BlockRows(d, tuple(runs))


@settings(max_examples=200, deadline=None)
@given(raw_block_rows())
def test_raw_block_rows_match_json_dumps(rows):
    assert_same_text(rows)
    assert_same_text({"m": rows, "l": [rows]})


def reachable(obj):
    """Every object reachable from ``obj`` through containers and instance
    attributes, each once."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())


def test_large_module_holds_no_dense_rows():
    # d = 200: a 50 x 50 tridiagonal Gram and 50 elliptic blocks
    specs = [EllipticCurveSpec(5, a4, a6) for a4 in range(5) for a6 in range(5)
             if (4 * a4 ** 3 + 27 * a6 ** 2) % 5]
    b = direct_sum([frobenius_of_elliptic(specs[k % len(specs)]) for k in range(50)], 5)
    gram = QMatrix.from_rows(
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(50)] for i in range(50)]
    )
    report = run_checks(UniformizationData(50, gram, b, 5), DEFAULT_POINT_BOUND)
    d = len(report["module"]["phi"])
    assert d == 200
    assert_same_text(report)
    found = list(reachable(report))
    assert not [x for x in found if isinstance(x, list) and len(x) == d]
    cells = sum(len(c) for x in found if isinstance(x, BlockRows) for _, c in x.runs)
    assert cells < d * d // 10
