import json
import random

import pytest

from phinmod.builders import (
    CurveInstance,
    UniformizationData,
    build_from_av,
    build_from_curve,
    check_curve_jacobian_agreement,
    jacobian_data,
)
from phinmod.cli import run_checks
from phinmod.errors import ValidationError
from phinmod.exact_linalg import QMatrix, char_poly, det
from phinmod.fuzz import instance_stream
from phinmod.graph_core import DualGraph, betti_one
from phinmod.io_formats import dump_json, instance_from_json
from phinmod.phin_module import assemble, verify_relations
from phinmod.weil_data import (
    DEFAULT_POINT_BOUND,
    EllipticCurveSpec,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

from conftest import banana_instance, tate_instance, theta_instance
from oracles import all_pass, dense_module, is_zero

EMPTY = QMatrix(0, 0, ())
ENTRY_POINTS = {
    "CurveInstance": lambda p, f: CurveInstance(
        graph=DualGraph.build([("v0", 0)], []), components={"v0": None}, p=p, f=f
    ),
    "UniformizationData": lambda p, f: UniformizationData(
        torus_rank=0, gram=EMPTY, b_frobenius=validate_weil(EMPTY, 5), p=p, f=f
    ),
    "validate_weil": lambda p, f: validate_weil(EMPTY, p, f),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "p, f, field",
    [
        (4, 1, "'p' = 4 is not prime"),
        (5, 0, "'f' = 0 must be >= 1"),
        # 5^1431 has 1001 decimal digits
        (5, 1431, "'f' = 1431: q = p\\^f has more than 1000"),
    ],
)
def test_p_and_f_refused_naming_the_field(entry, p, f, field):
    with pytest.raises(ValidationError, match=field):
        ENTRY_POINTS[entry](p, f)


class TestCurveInstanceValidation:
    def test_missing_component_rejected(self):
        g = DualGraph.build([("v0", 0), ("v1", 1)], [("e0", "v0", "v1")])
        with pytest.raises(ValidationError, match="v1"):
            CurveInstance(graph=g, components={"v0": None}, p=5)

    def test_genus_mismatch_rejected(self):
        g = DualGraph.build([("v0", 1)], [])
        with pytest.raises(ValidationError, match="genus"):
            CurveInstance(graph=g, components={"v0": None}, p=5)

    def test_elliptic_wrong_prime_rejected(self):
        g = DualGraph.build([("v0", 1)], [])
        with pytest.raises(ValidationError):
            CurveInstance(
                graph=g, components={"v0": EllipticCurveSpec(7, -1, 0)}, p=5
            )

    # rows, then columns (2 * genus rows but not 2 * genus columns)
    @pytest.mark.parametrize("genus, rows", [
        (2, [[0, -5], [1, 2]]),
        (1, [[0, -5, 1], [1, 2, 3]]),
        (1, [[], []]),
        (1, [[1], [2]]),
    ])
    def test_matrix_size_checked(self, genus, rows):
        g = DualGraph.build([("v0", genus)], [])
        shape = f"{len(rows)}x{len(rows[0])}"
        with pytest.raises(ValidationError, match=f"genus {genus} but a {shape} matrix source"):
            CurveInstance(graph=g, components={"v0": rows}, p=5)

    def test_row_list_source_reports_as_its_matrix(self):
        rows = [[0, -5], [1, 2]]
        g = DualGraph.build([("v0", 1)], [("e0", "v0", "v0")])
        from_rows = CurveInstance(graph=g, components={"v0": rows}, p=5)
        from_matrix = CurveInstance(
            graph=g, components={"v0": QMatrix.from_rows(rows)}, p=5
        )
        assert from_rows.components["v0"] == QMatrix.from_rows(rows)
        assert run_checks(from_rows, DEFAULT_POINT_BOUND) == run_checks(
            from_matrix, DEFAULT_POINT_BOUND
        )

    def test_bool_row_list_source_refused(self):
        # False == 0 and True == 1, but a bool entry would be written "True"
        g = DualGraph.build([("v0", 1)], [])
        with pytest.raises(ValidationError, match="^matrix entries must be integers$"):
            CurveInstance(graph=g, components={"v0": [[False, -5], [True, 2]]}, p=5)


class TestBuildFromCurve:
    def test_tate(self):
        m = build_from_curve(tate_instance())
        assert dense_module(m).phi.to_rows() == [[1, 0], [0, 5]]
        assert dense_module(m).n.to_rows() == [[0, 1], [0, 0]]

    def test_good_reduction_genus_two(self):
        g = DualGraph.build([("v0", 2)], [])
        (w1,) = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)).blocks
        (w2,) = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1)).blocks
        inst = CurveInstance(
            graph=g, components={"v0": QMatrix.block_diag([w1, w2])}, p=5
        )
        m = build_from_curve(inst)
        assert m.dimension == 4
        assert is_zero(dense_module(m).n)
        assert m.dims == (0, 4, 0)
        # the 4 x 4 source is kept as its two finest blocks
        assert m.phi1_blocks == (w1, w2)

    def test_theta(self):
        m = build_from_curve(theta_instance())
        assert m.dimension == 4
        assert m.gram.to_rows() == [[2, 1], [1, 2]]
        assert [dense_module(m).phi[i, i] for i in range(4)] == [1, 1, 5, 5]

    def test_dimension_formula(self):
        for inst in instance_stream(seed=42, count=25):
            m = build_from_curve(inst)
            assert m.dimension == 2 * (
                inst.graph.total_genus() + betti_one(inst.graph)
            )
            assert all_pass(verify_relations(m))


class TestBuildFromAV:
    def test_tate_uniformization(self):
        u = UniformizationData(
            torus_rank=1,
            gram=QMatrix.from_rows([[1]]),
            b_frobenius=validate_weil(QMatrix(0, 0, ()), 5),
            p=5,
        )
        m = build_from_av(u)
        assert m == build_from_curve(tate_instance())

    def test_good_reduction(self):
        u = UniformizationData(
            torus_rank=0,
            gram=QMatrix(0, 0, ()),
            b_frobenius=frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)),
            p=5,
        )
        m = build_from_av(u)
        assert is_zero(dense_module(m).n) and m.dimension == 2

    def test_theta_torus(self):
        u = UniformizationData(
            torus_rank=2,
            gram=QMatrix.from_rows([[2, 1], [1, 2]]),
            b_frobenius=validate_weil(QMatrix(0, 0, ()), 5),
            p=5,
        )
        assert build_from_av(u) == build_from_curve(theta_instance())

    def test_rank_gram_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="torus rank"):
            UniformizationData(
                torus_rank=2,
                gram=QMatrix.from_rows([[1]]),
                b_frobenius=validate_weil(QMatrix(0, 0, ()), 5),
                p=5,
            )


class TestEmptyMatrixSource:
    """An empty matrix source resolves as genus 0: no block, no factor."""

    def test_curve_vertex(self):
        g = DualGraph.build([("v0", 0), ("v1", 1)], [("e0", "v0", "v1"), ("e1", "v0", "v1")])

        def report(src):
            inst = CurveInstance(g, {"v0": src, "v1": EllipticCurveSpec(5, 1, 0)}, p=5)
            return run_checks(inst, DEFAULT_POINT_BOUND)

        empty, genus0 = report(EMPTY), report(None)
        assert empty.module == genus0.module
        assert empty.module.phi1_factors == genus0.module.phi1_factors == ((5, -2, 1),)
        # the report differs only in the echo, which says "matrix"
        written, expected = json.loads(dump_json(empty)), json.loads(dump_json(genus0))
        assert written["instance"]["components"]["v0"] == {"type": "matrix", "entries": []}
        assert written["module"] == expected["module"]

    def test_av_entry(self):
        def obj(*sources):
            return {"kind": "av", "p": "5", "f": "1", "torus_rank": "1", "gram": [["2"]],
                    "b_frobenius": [{"type": "elliptic", "a4": "1", "a6": "0"}, *sources]}
        empty = run_checks(instance_from_json(obj({"type": "matrix", "entries": []})),
                           DEFAULT_POINT_BOUND)
        genus0 = run_checks(instance_from_json(obj({"type": "genus0"})), DEFAULT_POINT_BOUND)
        alone = run_checks(instance_from_json(obj()), DEFAULT_POINT_BOUND)
        assert empty.module == genus0.module == alone.module
        assert empty.module.phi1_factors == genus0.module.phi1_factors == ((5, -2, 1),)
        # the echo is the one sum matrix either way
        assert dump_json(empty) == dump_json(genus0) == dump_json(alone)


class TestJacobianData:
    def test_tate(self):
        u = jacobian_data(tate_instance())
        assert u.torus_rank == 1
        assert u.gram.to_rows() == [[1]]
        assert u.b_frobenius.size == 0

    def test_tree_of_elliptic_vertices(self):
        g = DualGraph.build([("v0", 1), ("v1", 1)], [("e0", "v0", "v1")])
        inst = CurveInstance(
            graph=g,
            components={
                "v0": EllipticCurveSpec(5, 1, 0),
                "v1": EllipticCurveSpec(5, 0, 1),
            },
            p=5,
        )
        u = jacobian_data(inst)
        assert u.torus_rank == 0
        assert u.b_frobenius.size == 4

    def test_theta(self):
        u = jacobian_data(theta_instance())
        assert u.torus_rank == 2
        assert u.gram.to_rows() == [[2, 1], [1, 2]]


class TestAgreement:
    def test_goldens(self):
        for inst in (tate_instance(), banana_instance(), theta_instance()):
            assert check_curve_jacobian_agreement(inst, build_from_curve(inst))

    def test_fuzzed(self):
        for inst in instance_stream(seed=99, count=30):
            assert check_curve_jacobian_agreement(inst, build_from_curve(inst))

    def test_wrong_gram_determinant_rejected(self):
        # det [[2, 1], [1, 3]] = 5, but the theta graph has 3 spanning trees
        inst = theta_instance()
        m = build_from_curve(inst)
        bad = assemble(m.p, m.f, QMatrix.from_rows([[2, 1], [1, 3]]), direct_sum([], 5, 1))
        assert bad.dims == m.dims
        assert not check_curve_jacobian_agreement(inst, bad)

    def test_wrong_dims_rejected(self):
        # the theta Gram matrix (det 3) with an elliptic block the genus-0
        # theta curve does not have
        u = UniformizationData(
            torus_rank=2,
            gram=QMatrix.from_rows([[2, 1], [1, 2]]),
            b_frobenius=frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)),
            p=5,
        )
        assert not check_curve_jacobian_agreement(theta_instance(), build_from_av(u))


class TestRelabeling:
    def _relabel(self, inst: CurveInstance, rng: random.Random) -> CurveInstance:
        vids = [v.id for v in inst.graph.vertices]
        eids = [e.id for e in inst.graph.edges]
        new_v = {old: f"w{i:02d}" for old, i in
                 zip(vids, rng.sample(range(len(vids)), len(vids)))}
        new_e = {old: f"f{i:02d}" for old, i in
                 zip(eids, rng.sample(range(len(eids)), len(eids)))}
        g = DualGraph.build(
            [(new_v[v.id], v.genus) for v in inst.graph.vertices],
            [(new_e[e.id], new_v[e.tail], new_v[e.head]) for e in inst.graph.edges],
        )
        comps = {new_v[k]: v for k, v in inst.components.items()}
        return CurveInstance(graph=g, components=comps, p=inst.p, f=inst.f)

    def test_invariants_preserved(self):
        rng = random.Random(5)
        for inst in instance_stream(seed=7, count=15):
            if not inst.graph.edges:
                continue
            m1 = build_from_curve(inst)
            m2 = build_from_curve(self._relabel(inst, rng))
            assert det(m1.gram) == det(m2.gram)
            assert m1.dims == m2.dims
            assert char_poly(dense_module(m1).phi) == char_poly(dense_module(m2).phi)
            assert m1.fil1_dim == m2.fil1_dim
