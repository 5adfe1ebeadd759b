"""The value types as values: equality, hashing, immutability, copies.

Every public record type is built from ``instances/good_reduction.json``
(a curve with two elliptic components) and ``instances/av_tate.json`` (an
abelian variety with an empty good-reduction part).  Equal records hash
alike, a record equals its copies, ``copy``, ``deepcopy`` and ``pickle``
give an equal object, and no field can be assigned or deleted.
``CurveInstance`` holds its components as a tuple of (vertex id, source)
pairs in ascending id order, which hashes and round-trips with the record
and stays read-only in every copy.
"""

import copy
import pickle

import pytest

from phinmod.builders import CurveInstance, UniformizationData, build_from_av, jacobian_data
from phinmod.exact_linalg import QMatrix
from phinmod.graph_core import DualGraph, Edge, Vertex
from phinmod.io_formats import load_instance
from phinmod.phin_module import (
    PhiNModule,
    PolygonReport,
    RelationReport,
    hodge_newton,
    verify_relations,
)
from phinmod.weil_data import EllipticCurveSpec, WeilMatrix

from conftest import INSTANCE_DIR, resolved_weil


def records(name: str) -> dict:
    """Type name -> one record of that type, read from ``instances/<name>``."""
    inst = load_instance(str(INSTANCE_DIR / name))
    u = jacobian_data(inst) if isinstance(inst, CurveInstance) else inst
    m = build_from_av(u)
    polygons = hodge_newton(m)
    out = {
        "UniformizationData": u,
        "PhiNModule": m,
        "WeilMatrix": resolved_weil(u),
        "QMatrix": u.gram,
        "RelationReport": verify_relations(m),
        "PolygonReport": polygons,
    }
    if isinstance(inst, CurveInstance):
        out.update(
            CurveInstance=inst,
            DualGraph=inst.graph,
            Vertex=inst.graph.vertices[0],
            Edge=inst.graph.edges[0],
            EllipticCurveSpec=dict(inst.components)["v0"],
        )
    return out


CASES = [
    (name, type_name, record)
    for name in ("good_reduction.json", "av_tate.json")
    for type_name, record in records(name).items()
]
IDS = [f"{name}-{type_name}" for name, type_name, _ in CASES]

ALL_TYPES = {
    CurveInstance, DualGraph, Edge, EllipticCurveSpec, PhiNModule, PolygonReport, QMatrix,
    RelationReport, UniformizationData, Vertex, WeilMatrix,
}


def test_every_record_type_is_covered():
    assert {type(r) for _, _, r in CASES} == ALL_TYPES
    assert all(type(r).__name__ == t for _, t, r in CASES)


@pytest.mark.parametrize("name, type_name, record", CASES, ids=IDS)
def test_equal_to_its_copy(name, type_name, record):
    twin = copy.copy(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert type(twin) is type(record)


@pytest.mark.parametrize("name, type_name, record", CASES, ids=IDS)
def test_round_trips_give_equal_hashable_objects(name, type_name, record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin is not record
        assert twin == record
        assert hash(twin) == hash(record)
    assert len({record, copy.copy(record)}) == 1


@pytest.mark.parametrize("name, type_name, record", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(name, type_name, record):
    field = next(iter(vars(record)))
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name, type_name, record", CASES, ids=IDS)
def test_not_equal_to_another_type(name, type_name, record):
    assert record != (record,)
    assert record != object()


def test_curve_instance_components_are_read_only():
    inst = records("good_reduction.json")["CurveInstance"]
    components = inst.components
    assert [vid for vid, _ in components] == ["v0", "v1"]
    for twin in (inst, copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        with pytest.raises(TypeError):
            twin.components[0] = ("v0", None)
        with pytest.raises(TypeError):
            del twin.components[0]
        with pytest.raises(AttributeError):
            twin.components = ()
        assert type(twin.components) is tuple and twin.components == components
        assert hash(twin.components) == hash(components) and hash(twin) == hash(inst)
    assert inst.components is components


def test_curve_instances_differ_by_a_component():
    inst = records("good_reduction.json")["CurveInstance"]
    other = CurveInstance(graph=inst.graph, p=inst.p, f=inst.f,
                          components=dict(inst.components, v0=EllipticCurveSpec(5, 2, 1)))
    assert other != inst
    assert CurveInstance(graph=inst.graph, components=dict(inst.components), p=inst.p) == inst
    # the mapping's order is not kept: the pairs are sorted by vertex id
    backwards = dict(reversed(inst.components))
    assert list(backwards) == ["v1", "v0"]
    assert CurveInstance(graph=inst.graph, components=backwards, p=inst.p) == inst


def test_a_different_field_breaks_equality():
    assert Vertex("v0", 1) != Vertex("v0", 2)
    assert Vertex("v0", 1) != Vertex("v1", 1)
    assert Edge("e0", "v0", "v1") != Edge("e0", "v1", "v0")
    assert QMatrix(1, 2, (1, 2)) != QMatrix(2, 1, (1, 2))
    assert hash(Vertex("v0", 1)) == hash(Vertex("v0", 1))


@pytest.mark.parametrize("name", ["good_reduction.json", "av_tate.json"])
def test_factors_are_not_compared(name):
    w = records(name)["WeilMatrix"]
    m = records(name)["PhiNModule"]
    w2 = WeilMatrix(w.p, w.f, w.blocks, w.factors + ((1,),))
    assert w2 == w and hash(w2) == hash(w)
    m2 = PhiNModule(m.p, m.f, m.phi1_blocks, m.phi1_factors + ((1,),), m.gram)
    assert m2 == m and hash(m2) == hash(m)
    assert WeilMatrix(w.p, w.f + 1, w.blocks, w.factors) != w
    m3 = PhiNModule(m.p, m.f + 1, m.phi1_blocks, m.phi1_factors, m.gram)
    assert m3 != m


def test_repr_names_each_field():
    assert repr(Vertex("v0", 1)) == "Vertex(id='v0', genus=1)"
    assert repr(Edge("e0", "v0", "v1")) == "Edge(id='e0', tail='v0', head='v1')"
    assert repr(EllipticCurveSpec(5, 6, 0)) == "EllipticCurveSpec(p=5, a4=1, a6=0)"
    w = records("av_tate.json")["WeilMatrix"]
    assert repr(w) == "WeilMatrix(p=5, f=1, blocks=(), factors=())"
    assert repr(QMatrix(2, 2, (1, 0, 0, 1))) == "QMatrix(2x2: 1 0; 0 1)"
