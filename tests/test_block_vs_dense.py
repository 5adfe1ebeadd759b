"""The block-stored module against the dense oracle.

Every check of :mod:`phinmod.phin_module` runs on the blocks; the dense
oracle in ``oracles.py`` builds the full d x d matrices and checks the same
identities with full-size products, a Berkowitz characteristic polynomial
of phi, and det and rank of the full matrices.  Both must agree on every
example instance, on the fixed fuzz streams, and on block-form modules
whose blocks have been altered so that checks fail.
"""

import copy
import dataclasses
import json
from fractions import Fraction
from itertools import product

import pytest

from phinmod.builders import CurveInstance, build_from_av, jacobian_data
from phinmod.cli import main
from phinmod.exact_linalg import QMatrix
from phinmod.fuzz import instance_stream
from phinmod.io_formats import (
    load_instance,
    matrix_to_strings,
    module_from_report,
    module_to_json,
)
from phinmod.phin_module import (
    assemble,
    hodge_newton,
    verify_monodromy_duality,
    verify_relations,
)
from phinmod.weil_data import EllipticCurveSpec, frobenius_of_elliptic, validate_weil

from conftest import INSTANCE_DIR
from oracles import (
    dense_assemble,
    dense_duality,
    dense_hodge_newton,
    dense_module,
    dense_relations,
)


def example_instances():
    cases = [(path.name, load_instance(str(path))) for path in sorted(INSTANCE_DIR.glob("*.json"))]
    for seed in (7, 11):
        cases += [(f"fuzz {seed}/{i}", inst) for i, inst in enumerate(instance_stream(seed, 40))]
    return cases


def test_block_path_matches_dense_oracle():
    for name, inst in example_instances():
        u = jacobian_data(inst) if isinstance(inst, CurveInstance) else inst
        dense = dense_assemble(u.p, u.f, u.gram, u.b_frobenius)
        m = build_from_av(u)
        polygons = hodge_newton(m)
        assert verify_relations(m) == dense_relations(dense), name
        assert polygons == dense_hodge_newton(dense), name
        assert verify_monodromy_duality(m) == dense_duality(dense), name
        written = module_to_json(m, polygons)
        assert written["phi"] == matrix_to_strings(dense.phi), name
        assert written["n"] == matrix_to_strings(dense.n), name
        assert written["gram"] == matrix_to_strings(dense.gram), name


def _base_modules():
    empty = validate_weil(QMatrix(0, 0, ()), 5)
    return [
        assemble(5, 1, QMatrix.from_rows([[1]]), empty),
        assemble(5, 1, QMatrix.from_rows([[2]]), frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))),
        assemble(5, 1, QMatrix.from_rows([[2, 1], [1, 2]]), empty),
        assemble(3, 2, QMatrix.from_rows([[3, 1], [1, 1]]), validate_weil([[0, -9], [1, 3]], 3, f=2)),
    ]


def _hodge_newton_or_error(check, m):
    try:
        return check(m)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_altered_blocks_match_dense_oracle():
    """Block-form modules with altered scalar blocks of phi and an altered
    N block: every verdict, failing ones included, is the oracle's."""
    seen = set()
    for base in _base_modules():
        g = base.gram
        singular = QMatrix.from_rows([[g[0, 0]] * g.cols] + [[0] * g.cols] * (g.rows - 1))
        n_blocks = [g, g.scale(2), QMatrix.zeros(g.rows, g.cols), singular]
        scalars = [1, base.q, base.q ** 2, Fraction(1, base.p), 0]
        for phi0, phi2, n02 in product(scalars, scalars, n_blocks):
            m = dataclasses.replace(base, phi0=phi0, phi2=phi2, n02=n02)
            dense = dense_module(m)
            relations = verify_relations(m)
            assert relations == dense_relations(dense), (phi0, phi2, n02)
            assert verify_monodromy_duality(m) == dense_duality(dense)
            assert _hodge_newton_or_error(hodge_newton, m) == _hodge_newton_or_error(
                dense_hodge_newton, dense
            )
            seen.add(relations)
    # the alterations reach every failing verdict a block-form N allows
    # (N^2 = 0 holds for each of them)
    assert any(r.all_pass for r in seen)
    for field in ("n_phi_commutation", "phi_invertible", "n_rank_is_torus_rank"):
        assert any(not getattr(r, field) for r in seen), field


def _report(name: str, capsys) -> dict:
    assert main(["build", str(INSTANCE_DIR / name)]) == 0
    return json.loads(capsys.readouterr().out)


class TestModuleFromReport:
    def test_round_trip_has_block_form(self, capsys):
        for name in ("tate.json", "banana.json", "theta.json", "av_tate.json"):
            report = _report(name, capsys)
            m = module_from_report(report)
            assert not m.off_block
            assert verify_relations(m).all_pass
            assert module_to_json(m, hodge_newton(m)) == report["module"]

    @pytest.mark.parametrize("name", ["tate.json", "banana.json"])
    def test_off_block_phi_entry_fails_relations(self, name, capsys):
        report = _report(name, capsys)
        report["module"]["phi"][0][1] = "1"
        m = module_from_report(report)
        assert m.off_block == {"phi"}
        r = verify_relations(m)
        assert not r.all_pass
        assert not r.n_phi_commutation and not r.phi_invertible
        assert verify_monodromy_duality(m)

    @pytest.mark.parametrize("name", ["tate.json", "banana.json"])
    def test_off_block_n_entry_fails_relations(self, name, capsys):
        report = _report(name, capsys)
        report["module"]["n"][1][0] = "3"
        m = module_from_report(report)
        assert m.off_block == {"n"}
        r = verify_relations(m)
        assert not r.all_pass
        assert not r.n_squared_zero and not r.n_rank_is_torus_rank
        assert not verify_monodromy_duality(m)

    def test_non_scalar_weight_zero_block_fails_relations(self, capsys):
        # theta: w0 = 2, so phi[0][1] lies inside the weight-0 block
        report = _report("theta.json", capsys)
        report["module"]["phi"][0][1] = "1"
        m = module_from_report(report)
        assert m.off_block == {"phi"}
        assert not verify_relations(m).all_pass

    def test_in_block_change_is_kept(self, capsys):
        report = _report("tate.json", capsys)
        altered = copy.deepcopy(report)
        altered["module"]["phi"][1][1] = "1"  # the weight-2 scalar
        m = module_from_report(altered)
        assert not m.off_block and m.phi2 == 1
        assert not verify_relations(m).n_phi_commutation
        assert m != module_from_report(report)

    def test_off_block_module_is_not_serialized(self, capsys):
        report = _report("tate.json", capsys)
        report["module"]["n"][1][1] = "1"
        m = module_from_report(report)
        with pytest.raises(ValueError, match="outside its blocks"):
            module_to_json(m, hodge_newton(m))
