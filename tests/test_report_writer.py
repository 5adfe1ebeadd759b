"""``io_formats.dump_json`` writes a report record as exactly
``json.dumps(report_dict(r), indent=2, sort_keys=True) + "\\n"``, with
``report_dict`` the dict oracle of ``oracles.py``, and a curve instance
alone as the same text of the oracle's ``instance_to_json``: on the
reports of ``instances/`` and two fuzz streams, on adversarial ids and
component keys, on edge shapes (d = 0, no Weil block, fractional
polygons), on phi1 blocks that are not one per factor, on module shapes
and random block layouts, and at d = 200 and w1 = 400, where no request
makes a dense phi1.  It never calls the standard encoder."""

import json
import re
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phinmod.builders import CurveInstance, UniformizationData, build_from_curve
from phinmod.cli import main, run_checks
from phinmod.errors import SchemaError
from phinmod.exact_linalg import QMatrix
from phinmod.fuzz import instance_stream
from phinmod.graph_core import DualGraph
from phinmod import io_formats
from phinmod.io_formats import Report, dump_json, instance_from_json, load_instance
from phinmod.phin_module import PhiNModule, PolygonReport, RelationReport, hodge_newton
from phinmod.weil_data import DEFAULT_POINT_BOUND, EllipticCurveSpec

from conftest import INSTANCE_DIR, tate_instance
from oracles import (
    dense_module,
    finest_blocks,
    instance_to_json,
    module_from_report,
    report_dict,
)
from test_golden_reports import fuzz_digests, golden, instance_digests

INSTANCE_FILES = sorted(INSTANCE_DIR.glob("*.json"), key=lambda p: p.name)


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_written(report: Report):
    """The report's text is the oracle's, and so is a curve instance's echo
    written alone."""
    assert dump_json(report) == canonical(report_dict(report))
    if isinstance(report.instance, CurveInstance):
        echo = instance_to_json(report.instance)
        assert dump_json(report.instance) == canonical(echo)
        assert io_formats.instance_to_json(report.instance) == echo


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.name)
def test_instance_file_reports(path):
    assert_written(run_checks(load_instance(str(path)), DEFAULT_POINT_BOUND))


@pytest.mark.parametrize("seed", [7, 11])
def test_fuzz_reports(seed):
    for inst in instance_stream(seed, 40):
        assert_written(run_checks(inst, DEFAULT_POINT_BOUND))


def test_every_matrix_holds_ints():
    """Every matrix of the module and of the instance echo holds entries of
    type int and nothing else, in the report of each example instance and
    of each fuzz-seed-7 instance."""
    insts = [load_instance(str(path)) for path in INSTANCE_FILES] + list(instance_stream(7, 40))
    for inst in insts:
        report = run_checks(inst, DEFAULT_POINT_BOUND)
        m, echo = report.module, report.instance
        if isinstance(echo, CurveInstance):
            matrices = [src for _, src in echo.components if isinstance(src, QMatrix)]
        else:
            matrices = [echo.gram, *(s for s in echo.b_frobenius if isinstance(s, QMatrix))]
        for matrix in matrices + [*m.phi1_blocks, m.gram]:
            assert {type(x) for x in matrix.entries} <= {int}
        assert type(m.q) is int


@pytest.mark.parametrize(
    "obj", [{}, [], "report", None, 3, {"format": "phinmod-report-v1"}, QMatrix(0, 0, ())],
    ids=repr,
)
def test_only_reports_and_instances_are_written(obj):
    with pytest.raises(TypeError):
        dump_json(obj)


def test_an_av_instance_alone_is_not_written():
    # an abelian variety's echo is written from its module's blocks, so
    # only its report holds one
    inst = load_instance(str(INSTANCE_DIR / "av_tate.json"))
    with pytest.raises(TypeError, match="not a report or a curve instance"):
        dump_json(inst)
    with pytest.raises(TypeError, match="not a report or a curve instance"):
        io_formats.instance_to_json(inst)


def test_standard_encoder_is_never_called(tmp_path, monkeypatch):
    # every golden report, and the echo of every fuzz-seed-7 instance
    instances = list(instance_stream(7, 40))
    echoes = [canonical(instance_to_json(inst)) for inst in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("the report writer called the standard JSON encoder")

    monkeypatch.setattr("phinmod.io_formats.json.dumps", refuse)
    monkeypatch.setattr("json.encoder.JSONEncoder.encode", refuse)
    digests = {"instances": instance_digests(tmp_path), "fuzz": {"7": fuzz_digests(7)}}
    written = [dump_json(inst) for inst in instances]
    monkeypatch.undo()
    expected = golden()
    assert digests == {"instances": expected["instances"], "fuzz": {"7": expected["fuzz"]["7"]}}
    assert written == echoes


ADVERSARIAL_STRINGS = (
    ['"', "\\", "\x7f", "é", "v\"1é", "\U0001f600", "\ud800", "\udfff", "", "plain"]
    + [chr(c) for c in range(0x20)]
)

# Any code point, with the characters that need escaping drawn often enough
# to appear in most runs.
json_text = st.text(
    st.characters(codec=None, exclude_categories=())
    | st.sampled_from("".join(ADVERSARIAL_STRINGS))
) | st.sampled_from(ADVERSARIAL_STRINGS)

SOURCES = {
    0: [None],
    1: [EllipticCurveSpec(5, 1, 1), QMatrix.from_rows([[0, -5], [1, 2]])],
}


@st.composite
def adversarial_curves(draw) -> CurveInstance:
    """A connected curve at p = 5 whose vertex ids, and so its component
    keys, and its edge ids are drawn from adversarial text."""
    vids = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    links = [(vids[k - 1], vids[k]) for k in range(1, len(vids))]
    links += draw(st.lists(st.tuples(st.sampled_from(vids), st.sampled_from(vids)), max_size=3))
    eids = draw(st.lists(json_text, min_size=len(links), max_size=len(links), unique=True))
    genera = [draw(st.sampled_from([0, 1])) for _ in vids]
    graph = DualGraph.build(list(zip(vids, genera)), [(e, t, h) for e, (t, h) in zip(eids, links)])
    components = {v: draw(st.sampled_from(SOURCES[g])) for v, g in zip(vids, genera)}
    return CurveInstance(graph=graph, components=components, p=5)


@settings(max_examples=150, deadline=None)
@given(adversarial_curves())
def test_adversarial_ids_and_keys(inst):
    assert_written(run_checks(inst, DEFAULT_POINT_BOUND))


@pytest.mark.parametrize("s", ADVERSARIAL_STRINGS, ids=ascii)
def test_adversarial_string_as_every_id(s):
    # each string once, whatever Hypothesis draws: as a genus-1 vertex id
    # and so a component key, and as an edge id
    graph = DualGraph.build([(s, 1), ("w", 0)], [(s, s, "w"), ("e1", "w", s), ("e2", "w", "w")])
    inst = CurveInstance(graph, {s: EllipticCurveSpec(5, 1, 1), "w": None}, p=5)
    report = run_checks(inst, DEFAULT_POINT_BOUND)
    assert_written(report)
    echo = json.loads(dump_json(report))["instance"]
    assert sorted(v["id"] for v in echo["graph"]["vertices"]) == sorted([s, "w"])
    assert s in [e["id"] for e in echo["graph"]["edges"]]
    assert sorted(echo["components"]) == sorted([s, "w"])


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
    assert out == canonical(report)


def test_dimension_zero_curve():
    # one genus-0 vertex and no edges: every matrix and slope list is empty
    inst = CurveInstance(DualGraph.build([("v0", 0)], []), {"v0": None}, p=5)
    report = run_checks(inst, DEFAULT_POINT_BOUND)
    assert_written(report)
    module = json.loads(dump_json(report))["module"]
    assert module["phi"] == module["n"] == module["gram"] == module["newton_slopes"] == []
    assert json.loads(dump_json(inst))["graph"]["edges"] == []


@pytest.mark.parametrize("rows", [[["0", "-5", "1"], ["1", "2", "3"]], [[], []], [["1"], ["2"]]],
                         ids=["2x3", "2x0", "2x1"])
def test_non_square_source_refused(rows, tmp_path, capsys):
    # a matrix source that is not square is refused where it is read,
    # naming its field, for a curve component and an abelian-variety block
    shape = f"{len(rows)}x{len(rows[0])}"
    curve = {"kind": "curve", "p": "5", "f": "1",
             "graph": {"vertices": [{"id": "v", "genus": "1"}], "edges": []},
             "components": {"v": {"type": "matrix", "entries": rows}}}
    av = {"kind": "av", "p": "5", "f": "1", "torus_rank": "0", "gram": [],
          "b_frobenius": [{"type": "matrix", "entries": rows}]}
    for obj, field in ((curve, "components.v.entries"), (av, "b_frobenius[0].entries")):
        with pytest.raises(SchemaError, match=re.escape(f"field '{field}' is {shape}, not square")):
            instance_from_json(obj)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["build", str(path)]) == 2
        assert f"field '{field}' is {shape}, not square" in capsys.readouterr().err


def test_av_weil_runs_are_made_once(monkeypatch):
    # the echo of an abelian variety's b_frobenius and phi are both written
    # from the module's phi1 blocks, so from one text of each
    inst = UniformizationData(1, QMatrix.from_rows([[2]]),
                              [EllipticCurveSpec(5, 1, 1), EllipticCurveSpec(5, 1, 2)], 5)
    report = run_checks(inst, DEFAULT_POINT_BOUND)
    blocks = report.module.phi1_blocks
    assert len(blocks) == 2
    converted = []
    text = QMatrix.__dict__["entry_strings"].func
    counted = cached_property(lambda m: converted.append(m) or text(m))
    counted.__set_name__(QMatrix, "entry_strings")
    monkeypatch.setattr(QMatrix, "entry_strings", counted)
    assert dump_json(report) == canonical(report_dict(report))
    assert [m for m in converted if any(m is x for x in blocks)] == list(blocks)


# phi1 blocks that are not one per factor: sources with no block, and a
# genus-1 component of two 1 x 1 blocks whose factor is certified whole
MIXED_BLOCKS = {
    "av-mixed-sources": (
        {"kind": "av", "p": "5", "f": "1", "torus_rank": "1", "gram": [["3"]],
         "b_frobenius": [
             {"type": "elliptic", "a4": "1", "a6": "0"},
             {"type": "genus0"},
             {"type": "matrix", "entries": []},
             # (T^2 - 2T + 5)(T^2 + 5): a companion matrix, one block
             {"type": "matrix", "entries": [["0", "0", "0", "-25"], ["1", "0", "0", "10"],
                                            ["0", "1", "0", "-10"], ["0", "0", "1", "2"]]},
         ]},
        ((2, 4), ((5, -2, 1), (25, -10, 10, -2, 1))),
    ),
    "curve-f2-scalar-block": (
        {"kind": "curve", "p": "3", "f": "2",
         "graph": {"vertices": [{"id": "v0", "genus": "1"}, {"id": "v1", "genus": "0"}],
                   "edges": [{"id": "e0", "tail": "v0", "head": "v1"},
                             {"id": "e1", "tail": "v0", "head": "v1"},
                             {"id": "e2", "tail": "v1", "head": "v1"}]},
         "components": {"v0": {"type": "matrix", "entries": [["3", "0"], ["0", "3"]]},
                        "v1": {"type": "genus0"}}},
        ((1, 1), ((9, -6, 1),)),
    ),
}


@pytest.mark.parametrize("obj, layout", MIXED_BLOCKS.values(), ids=MIXED_BLOCKS.keys())
def test_blocks_and_factors_differ(obj, layout):
    report = run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
    m = report.module
    assert (tuple(b.rows for b in m.phi1_blocks), m.phi1_factors) == layout
    assert_written(report)
    assert module_from_report(json.loads(dump_json(report))) == m


def test_av_without_weil_block():
    obj = {"kind": "av", "p": "7", "f": "2", "torus_rank": "2",
           "gram": [["2", "1"], ["1", "2"]], "b_frobenius": []}
    report = run_checks(instance_from_json(obj), DEFAULT_POINT_BOUND)
    assert_written(report)
    echo = json.loads(dump_json(report))["instance"]
    assert echo["b_frobenius"] == [{"type": "matrix", "entries": []}]


def test_fractional_polygons():
    # the writer reads only the polygons' numbers and verdicts, so a
    # hand-made PolygonReport reaches every shape of them
    polygons = PolygonReport(
        t_newton=(-7, 2), t_hodge=3,
        newton=(((-1, 3), 3), ((0, 1), 1), ((2, 1), 1), ((5, 2), 2)),
        hodge=(((0, 1), 2), ((1, 1), 4)),
        endpoints_equal=False, newton_on_or_above_hodge=True, newton_symmetric=False,
    )
    inst = tate_instance()
    report = Report(inst, build_from_curve(inst), RelationReport(True, True, True, True),
                    polygons, True, True)
    assert_written(report)
    module = json.loads(dump_json(report))["module"]
    assert module["t_newton"] == "-7/2"
    # a pair with denominator 1 is written as an integer
    assert module["newton_slopes"] == [["-1/3", "3"], ["0", "1"], ["2", "1"], ["5/2", "2"]]


# -- phi and n written from their blocks --------------------------------------

def dense_text(m: QMatrix) -> list:
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def hand_built(phi1_rows, sizes, gram_rows, p=5, f=1) -> PhiNModule:
    """A module at q = p^f with phi1, stored as the oracle's finest blocks
    of it, and gram as given; each of ``sizes`` is the degree of a
    placeholder factor, so the factors need not match the blocks."""
    gram = QMatrix.from_rows(gram_rows) if gram_rows else QMatrix(0, 0, ())
    return PhiNModule(p, f, finest_blocks(phi1_rows),
                      tuple((0,) * size + (1,) for size in sizes), gram)


# the writer reads only the polygons' numbers, so one report's polygons and
# one instance serve every hand-built module below
TATE = tate_instance()
POLYGONS = hodge_newton(build_from_curve(TATE))


def module_report(m: PhiNModule) -> Report:
    return Report(TATE, m, RelationReport(True, True, True, True), POLYGONS, True, True)


def assert_written_from_blocks(m: PhiNModule):
    report = module_report(m)
    assert_written(report)
    written = json.loads(dump_json(report))
    dense = dense_module(m)
    for name in ("phi", "n"):
        assert written["module"][name] == dense_text(getattr(dense, name))
    # read back by the oracle, the module writes the same module block
    read = module_from_report(written)
    assert json.loads(dump_json(module_report(read)))["module"] == written["module"]


SHAPES = {
    "d=0": hand_built([], [], []),
    "w1=0": hand_built([], [], [[2, 1], [1, 2]]),
    "w0=w2=0": hand_built([[0, -5], [1, 2]], [2], []),
    # an entry of phi1 in row 0 and one in row 3 lie outside the 2+2
    # factors, so phi1 is one 4 x 4 block
    "off-block": hand_built(
        [[1, 2, 0, 7], [3, 4, 0, 0], [0, 0, 5, 6], [0, -1, 7, 8]], [2, 2], [[1]]
    ),
    # phi1 with a zero row and 1x1 blocks, and factors of degree 0
    "zero-row": hand_built(
        [[0, 0, 0, 0], [0, 1, 2, 0], [0, 3, 4, 0], [0, 0, 0, -6]], [0, 1, 0, 2, 1], [[3]]
    ),
    # q = 7^36 has 31 digits, and gram holds a negative entry
    "signs": hand_built([[-2, 0], [0, 3]], [1, 1], [[-20, 0], [0, 5]], p=7, f=36),
}


@pytest.mark.parametrize("m", SHAPES.values(), ids=SHAPES.keys())
def test_module_shapes(m):
    assert_written_from_blocks(m)


def test_signed_phi_text():
    module = json.loads(dump_json(module_report(SHAPES["signs"])))["module"]
    big = "2651730845859653471779023381601"  # 7^36
    assert module["phi"] == [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0"],
        ["0", "0", "-2", "0", "0", "0"],
        ["0", "0", "0", "3", "0", "0"],
        ["0", "0", "0", "0", big, "0"],
        ["0", "0", "0", "0", "0", big],
    ]
    assert module["n"][:2] == [["0", "0", "0", "0", "-20", "0"], ["0", "0", "0", "0", "0", "5"]]


@st.composite
def block_layouts(draw):
    """A module whose phi1 is block diagonal in random block sizes, with
    zero, small and large integer entries, and sometimes an entry outside
    the blocks, which joins them; the factor degrees are the drawn sizes,
    with a 1 x 1 block more when they add up to an odd number, and the
    torus rank and Gram entries are random too.  q is 5, or has 30 digits
    or more, so the scalar cells of phi are long ints too."""
    entry = st.integers(-12, 12) | st.integers(-(10 ** 40), 10 ** 40)
    sizes = draw(st.lists(st.integers(0, 4), max_size=5))
    if sum(sizes) % 2:
        sizes.append(1)
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
    p, f = draw(st.sampled_from([(5, 1), (2, 100), (7, 36), (9973, 8)]))
    return hand_built(phi1, sizes, gram, p=p, f=f)


@settings(max_examples=200, deadline=None)
@given(block_layouts())
def test_random_block_layouts(m):
    assert_written_from_blocks(m)


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


SPECS_AT_5 = [EllipticCurveSpec(5, a4, a6) for a4 in range(5) for a6 in range(5)
              if (4 * a4 ** 3 + 27 * a6 ** 2) % 5]


def checked_and_written(inst, monkeypatch) -> tuple:
    """(report, the most entries of a QMatrix made on the way) of ``inst``
    checked by ``run_checks`` and written by ``dump_json``."""
    sizes = []
    init = QMatrix.__init__

    def recording(self, rows, cols, entries):
        sizes.append(rows * cols)
        init(self, rows, cols, entries)

    monkeypatch.setattr(QMatrix, "__init__", recording)
    report = run_checks(inst, DEFAULT_POINT_BOUND)
    dump_json(report)
    monkeypatch.undo()
    return report, max(sizes, default=0)


def test_large_module_holds_no_dense_rows(monkeypatch):
    # d = 200: a 50 x 50 tridiagonal Gram and 50 elliptic blocks
    b = [SPECS_AT_5[k % len(SPECS_AT_5)] for k in range(50)]
    gram = QMatrix.from_rows(
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(50)] for i in range(50)]
    )
    av = UniformizationData(50, gram, b, 5)
    # w1 = 400: a path of 200 elliptic components with three more edges
    vids = [f"v{k:03d}" for k in range(200)]
    edges = [(f"e{k:03d}", vids[k - 1], vids[k]) for k in range(1, 200)]
    edges += [("x0", "v000", "v199"), ("x1", "v050", "v150"), ("x2", "v010", "v010")]
    curve = CurveInstance(DualGraph.build([(v, 1) for v in vids], edges),
                          {v: SPECS_AT_5[k % len(SPECS_AT_5)] for k, v in enumerate(vids)}, p=5)
    for inst, b1, d in ((av, 50, 200), (curve, 3, 406)):
        report, largest = checked_and_written(inst, monkeypatch)
        m = report.module
        assert (m.dims[0], m.dimension) == (b1, d)
        # no dense phi1 or phi is made: the largest matrix is a Gram or a
        # Weil block
        assert largest <= max(b1 * b1, 16)
        assert not [x for x in reachable(report) if isinstance(x, list) and len(x) == d]
        # the writer converts only the cells of runs, for phi and for the
        # echo of the Weil matrix alike
        assert sum(len(cells) for _, cells in io_formats._phi_runs(m)) < d * d // 10
        assert sum(len(cells) for _, cells in io_formats._block_runs(m.phi1_blocks)) < d * d // 10
        assert_written(report)
