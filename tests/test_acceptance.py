"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything numeric is
exact (zero tolerance); the only tolerances in the whole package are the
stated runtime budgets, asserted here with wall clocks.
"""

import json
import time

from phinmod.builders import build_from_curve, check_curve_jacobian_agreement
from phinmod.cli import main
from phinmod.exact_linalg import is_prime
from phinmod.graph_core import betti_one
from phinmod.phin_module import hodge_newton, verify_monodromy_duality
from phinmod.weil_data import EllipticCurveSpec, count_points

from conftest import INSTANCE_DIR, tate_instance
from oracles import count_points_xy, dense_module, hasse_scan, symmetric_slopes


def criterion(number: int, name: str, ok: bool) -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_tate_golden(tmp_path):
    t0 = time.perf_counter()
    inst = tate_instance()
    m = build_from_curve(inst)
    polygons = hodge_newton(m)
    elapsed = time.perf_counter() - t0
    exact = (
        dense_module(m).phi.to_rows() == [[1, 0], [0, 5]]
        and dense_module(m).n.to_rows() == [[0, 1], [0, 0]]
        and m.gram.to_rows() == [[1]]
        and polygons.t_newton == (1, 1)
        and polygons.t_hodge == 1
        and polygons.newton == (((0, 1), 1), ((1, 1), 1))
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["build", str(INSTANCE_DIR / "tate.json"), "--out", str(out1)])
    code2 = main(["build", str(INSTANCE_DIR / "tate.json"), "--out", str(out2)])
    reproducible = (
        code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    )
    criterion(1, "Tate golden instance", exact and reproducible and elapsed < 0.1)


def test_criterion_2_relation_suite(fuzz_batch):
    ok = all(
        r.relations.n_squared_zero
        and r.relations.n_phi_commutation
        and r.relations.phi_invertible
        and r.relations.n_rank_is_torus_rank
        for r in fuzz_batch.results
    )
    ok = ok and all(
        r.module.dims[2] == betti_one(r.instance.graph) for r in fuzz_batch.results
    )
    ok = ok and len(fuzz_batch.results) == 200
    criterion(2, f"relations on 200 instances in {fuzz_batch.elapsed:.1f}s",
              ok and fuzz_batch.elapsed < 60.0)


def test_criterion_3_monodromy_duality(fuzz_batch, golden_instances):
    ok = all(r.duality for r in fuzz_batch.results)
    for inst in golden_instances.values():
        ok = ok and verify_monodromy_duality(build_from_curve(inst))
    criterion(3, "duality transports the monodromy pairing", ok)


def test_criterion_4_curve_jacobian_agreement(fuzz_batch, golden_instances):
    ok = all(r.agreement for r in fuzz_batch.results)
    for inst in golden_instances.values():
        ok = ok and check_curve_jacobian_agreement(inst, build_from_curve(inst))
    criterion(4, "curve/Jacobian pipeline agreement", ok)


def test_criterion_5_filtration_endpoints(fuzz_batch):
    ok = True
    for r in fuzz_batch.results:
        expected = r.instance.graph.total_genus() + betti_one(r.instance.graph)
        ok = ok and r.polygons.t_newton == (expected, 1) and r.polygons.t_hodge == expected
        ok = ok and symmetric_slopes(r.polygons.newton)
        ok = ok and r.polygons.newton_on_or_above_hodge
    criterion(5, "polygon endpoints and slope symmetry", ok)


def test_criterion_6_point_counting_oracle():
    t0 = time.perf_counter()
    ok = True
    for p in range(3, 98, 2):
        if not is_prime(p):
            continue
        ncurves, worst = hasse_scan(p)
        ok = ok and ncurves > 0 and worst <= 0
    spot = (
        count_points(EllipticCurveSpec(5, 1, 0)) == (count_points_xy(5, 1, 0), 2)
        and count_points(EllipticCurveSpec(7, -1, 0)) == (count_points_xy(7, -1, 0), 0)
        and count_points(EllipticCurveSpec(3, 1, 0)) == (count_points_xy(3, 1, 0), 0)
        and count_points_xy(5, 1, 0) == 4
        and count_points_xy(7, -1, 0) == 8
        and count_points_xy(3, 1, 0) == 4
    )
    elapsed = time.perf_counter() - t0
    criterion(6, f"Hasse bound sweep p <= 97 in {elapsed:.1f}s",
              ok and spot and elapsed < 30.0)


def test_criterion_8_rejections(tmp_path, capsys):
    # identity matrix as component Frobenius
    bad_component = {
        "kind": "curve",
        "p": "5",
        "f": "1",
        "graph": {"vertices": [{"id": "v0", "genus": "1"}], "edges": []},
        "components": {"v0": {"type": "matrix", "entries": [["1", "0"], ["0", "1"]]}},
    }
    p1 = tmp_path / "bad_component.json"
    p1.write_text(json.dumps(bad_component), encoding="utf-8")
    code1 = main(["build", str(p1)])
    err1 = capsys.readouterr().err

    # gram with a zero diagonal entry
    bad_gram = {
        "kind": "av",
        "p": "5",
        "f": "1",
        "torus_rank": "2",
        "gram": [["0", "1"], ["1", "2"]],
        "b_frobenius": [],
    }
    p2 = tmp_path / "bad_gram.json"
    p2.write_text(json.dumps(bad_gram), encoding="utf-8")
    code2 = main(["build", str(p2)])
    err2 = capsys.readouterr().err

    # trace-6 elliptic-shaped block at q = 5
    bad_trace = {
        "kind": "av",
        "p": "5",
        "f": "1",
        "torus_rank": "0",
        "gram": [],
        "b_frobenius": [{"type": "matrix", "entries": [["0", "-5"], ["1", "6"]]}],
    }
    p3 = tmp_path / "bad_trace.json"
    p3.write_text(json.dumps(bad_trace), encoding="utf-8")
    code3 = main(["build", str(p3)])
    err3 = capsys.readouterr().err

    ok = (
        code1 == 2
        and "det" in err1
        and code2 == 2
        and "positive definite" in err2
        and code3 == 2
        and "archimedean" in err3
    )
    criterion(8, "documented rejections with exit code 2", ok)
