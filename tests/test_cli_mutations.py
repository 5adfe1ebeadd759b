"""``phinmod build`` on mutated instance files, in process.

Each case gives components of genus 0, 1 or 2 to one of the example
instances (``instances/*.json``), or changes, deletes or adds a field
anywhere in it, or both, and runs ``cli.main(["build", path])``.
The exit-code contract must hold: 0, 1 or 2, no exception escaping ``main``
and no traceback on stderr, within a deadline per case.  The outcome must
also be that of the general path (``oracles.resolve_by_validation``), where
the genus-0 and the elliptic components go through ``validate_weil`` too and
a matrix component is certified by ``oracles.certify_berkowitz`` instead:
the same exit code and the same report bytes, so the closed-form blocks
and the minors and closed form of a 4 x 4 block accept and refuse exactly
what the general certificate does.  Three fixed genus-2 blocks on the
boundaries of the closed form run on every test run.

Error messages are not compared.  On a refused abelian-variety file the
general path names a bad (p, f) at its first genus-0 block, the closed form
at the first matrix block or when the data is assembled, so when a later
block is malformed too the two paths name different fields.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import phinmod.builders
import phinmod.io_formats
from phinmod.cli import main

from conftest import INSTANCE_DIR
from oracles import conjugated, resolve_by_validation

INSTANCES = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(INSTANCE_DIR.glob("*.json"))
}

SOURCES = [
    {"type": "genus0"},
    {"type": "elliptic", "a4": "1", "a6": "0"},
    {"type": "elliptic", "a4": "0", "a6": "0"},
    {"type": "elliptic", "a4": "2", "a6": "3"},
    {"type": "matrix", "entries": [["0", "-5"], ["1", "2"]]},
    {"type": "matrix", "entries": [["0", "-5"], ["1", "5"]]},
    {"type": "matrix", "entries": [["0", "-25"], ["1", "0"]]},
    {"type": "matrix", "entries": [["1", "0"], ["0", "5"]]},
    {"type": "torus"},
]

VALUES = [
    "0", "1", "-1", "2", "3", "4", "5", "7", "13", "25", "9973", "10007",
    "1/2", "4/2", "0/7", "1/0", "", "x", "99999999999999999999999999", 0, 1, -3, None, True,
    [], {}, [["1"]], [["2", "1"], ["1", "2"]], [["1", "1"], ["1", "1"]],
    {"id": "v9", "genus": "0"}, {"id": "v9", "genus": "1"},
    {"id": "e9", "tail": "v0", "head": "v0"}, {"id": "e9", "tail": "v0", "head": "v1"},
    SOURCES, SOURCES[1:3], [SOURCES[0], SOURCES[4]],
] + SOURCES

KEYS = ["v0", "v1", "v9", "e9", "genus", "a4", "type", "extra"]


def paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def companion(p: str, a: int) -> list:
    return [["0", f"-{p}"], ["1", str(a)]]


def dense_genus_2(p: str, traces: list, shears: list) -> list:
    """The companion matrix of (T^2 - a1 T + p)(T^2 - a2 T + p) conjugated by
    ``shears`` (see ``oracles.conjugated``)."""
    q = int(p)
    a1, a2 = traces
    c3, c2, c1, c0 = -(a1 + a2), 2 * q + a1 * a2, -q * (a1 + a2), q * q
    m = [[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2], [0, 0, 1, -c3]]
    return [[str(x) for x in row] for row in conjugated(m, shears)]


# (i, j, c) with i != j and c = +-1, +-2
SHEARS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from((-2, -1, 1, 2)))
                  .map(lambda t: (t[0], (t[0] + t[1]) % 4, t[2])), max_size=8)


@st.composite
def sources(draw, p: str, genus: int):
    """A component source of the given genus at p: genus 0, an elliptic
    curve (possibly singular) or a companion block of a trace in [-5, 5]
    (past the Hasse bound for some); for genus 2, two of them side by side
    or the companion of their product conjugated by unit shears, a dense
    4 x 4 block."""
    if genus == 0:
        return {"type": "genus0"}
    traces = [draw(st.integers(-5, 5)) for _ in range(genus)]
    if genus == 1 and draw(st.booleans()):
        a4, a6 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        return {"type": "elliptic", "a4": str(a4), "a6": str(a6)}
    blocks = [companion(p, a) for a in traces]
    if genus == 1:
        return {"type": "matrix", "entries": blocks[0]}
    if draw(st.booleans()):
        return {"type": "matrix", "entries": dense_genus_2(p, traces, draw(SHEARS))}
    zeros = ["0", "0"]
    return {"type": "matrix", "entries": [r + zeros for r in blocks[0]] + [zeros + r for r in blocks[1]]}


def edit_component(draw, obj):
    """Give one vertex, or the abelian variety, a new component of genus 0,
    1 or 2 with a matching source: the edit that reaches accepted files."""
    genus = draw(st.integers(0, 2))
    source = draw(sources(obj["p"], genus))
    if obj["kind"] == "av":
        obj["b_frobenius"].append(source)
        return
    vertex = draw(st.sampled_from(obj["graph"]["vertices"]))
    vertex["genus"] = str(genus)
    obj["components"][vertex["id"]] = source


def edit_any(draw, obj):
    """Replace, delete or add a value anywhere in the tree."""
    path = draw(st.sampled_from(list(paths(obj))[1:]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    value = copy.deepcopy(draw(st.sampled_from(VALUES)))
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(node, list):
        node.append(value)
    elif action == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(KEYS))] = value
    else:
        parent[path[-1]] = value


@st.composite
def mutated_instances(draw):
    """Up to two component edits on the intact file, then up to one edit
    anywhere; at least one edit in all."""
    obj = copy.deepcopy(INSTANCES[draw(st.sampled_from(sorted(INSTANCES)))])
    components = draw(st.integers(0, 2))
    for _ in range(components):
        edit_component(draw, obj)
    if not components or draw(st.booleans()):
        edit_any(draw, obj)
    return obj


def with_genus_2_block(traces: list) -> dict:
    """av_tate.json with one more abelian block, the dense genus-2 source
    of ``traces`` at p = 5 under a few fixed shears."""
    obj = copy.deepcopy(INSTANCES["av_tate.json"])
    entries = dense_genus_2(obj["p"], traces, [(0, 1, 1), (2, 3, -1), (1, 2, 2)])
    obj["b_frobenius"].append({"type": "matrix", "entries": entries})
    return obj


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "instance.json"


def build(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["build", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(mutated_instances())
# traces 5 and -5: not Weil, though chi meets every closed-form condition
# but a2 + 2q >= 0
@example(obj=with_genus_2_block([5, -5]))
# traces 4 and 4, -4 and -4: Weil, with 4 a2 = a1^2 + 8q and a1^2 = 64 > 4q
@example(obj=with_genus_2_block([4, 4]))
@example(obj=with_genus_2_block([-4, -4]))
def test_mutated_build_keeps_the_exit_contract(instance_path, obj):
    instance_path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = build(instance_path)
    assert code in (0, 1, 2)
    event(f"exit {code}")
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and not out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phinmod.builders, "resolve_component", resolve_by_validation)
        mp.setattr(phinmod.io_formats, "resolve_component", resolve_by_validation)
        general = build(instance_path)
    assert (code, out) == general[:2]
