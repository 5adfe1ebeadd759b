"""The block-stored module against the dense oracle.

Every check of :mod:`phinmod.phin_module` runs on the blocks; the dense
oracle in ``oracles.py`` builds the full d x d matrices and checks the same
identities with full-size products, a Hessenberg characteristic polynomial
of phi, and det and rank of the full matrices.  Both must agree on every
example instance, on the fixed fuzz streams, on modules whose free blocks
(phi1 and gram) have been altered so that checks fail, on hand-built
modules at f = 1, 2 and 3 with repeated factors, and on every report with
one changed field that the oracle's ``module_from_report`` reads back.
The blocks a module no longer stores (the scalars of phi on weights 0 and
2, and N's block) are altered on the dense oracle alone, whose verdicts
must then flag the change.
"""

import copy
import functools
import json
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phinmod.builders import CurveInstance, build_from_av, jacobian_data
from phinmod.cli import main, run_checks
from phinmod.exact_linalg import QMatrix, char_poly
from phinmod.fuzz import instance_stream
from phinmod.io_formats import (
    Report,
    dump_json,
    load_instance,
    matrix_to_strings,
)
from phinmod.phin_module import (
    PhiNModule,
    PolygonReport,
    RelationReport,
    assemble,
    hodge_newton,
    verify_monodromy_duality,
    verify_relations,
)
from phinmod.weil_data import (
    DEFAULT_POINT_BOUND,
    EllipticCurveSpec,
    frobenius_of_elliptic,
    validate_weil,
)

from conftest import INSTANCE_DIR
from oracles import (
    DenseModule,
    all_pass,
    charpoly_hessenberg,
    dense_assemble,
    dense_duality,
    dense_from_blocks,
    dense_hodge_newton,
    dense_module,
    dense_relations,
    is_lowest_terms,
    module_from_report,
    scale,
    zeros,
)


def example_instances():
    cases = [(path.name, load_instance(str(path))) for path in sorted(INSTANCE_DIR.glob("*.json"))]
    for seed in (7, 11):
        cases += [(f"fuzz {seed}/{i}", inst) for i, inst in enumerate(instance_stream(seed, 40))]
    return cases


def written_module(inst, m: PhiNModule) -> dict:
    """The module block of the report on ``m``, read from its text."""
    report = Report(inst, m, verify_relations(m), hodge_newton(m), verify_monodromy_duality(m))
    return json.loads(dump_json(report))["module"]


def test_block_path_matches_dense_oracle():
    for name, inst in example_instances():
        u = jacobian_data(inst) if isinstance(inst, CurveInstance) else inst
        dense = dense_assemble(u.p, u.f, u.gram, u.b_frobenius)
        m = build_from_av(u)
        assert verify_relations(m) == dense_relations(dense), name
        assert hodge_newton(m) == dense_hodge_newton(dense), name
        assert verify_monodromy_duality(m) == dense_duality(dense), name
        written = written_module(inst, m)
        assert written["phi"] == matrix_to_strings(dense.phi), name
        assert written["n"] == matrix_to_strings(dense.n), name
        assert written["gram"] == matrix_to_strings(dense.gram), name


def test_hessenberg_matches_berkowitz_on_dense_phi():
    # the oracle's characteristic polynomial is the package's on every
    # dense phi of the example instances and fuzz streams
    for name, inst in example_instances():
        u = jacobian_data(inst) if isinstance(inst, CurveInstance) else inst
        phi = dense_assemble(u.p, u.f, u.gram, u.b_frobenius).phi
        assert charpoly_hessenberg(phi.to_rows()) == char_poly(phi), name


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


POLYGON_VERDICTS = ("endpoints_equal", "newton_on_or_above_hodge", "newton_symmetric")


def _polygon_verdicts(polygons: PolygonReport) -> set:
    return {(name, getattr(polygons, name)) for name in POLYGON_VERDICTS}


def _gram_blocks(g: QMatrix) -> list:
    """gram, twice gram, zero and a singular matrix of its shape."""
    singular = QMatrix.from_rows([[g[0, 0]] * g.cols] + [[0] * g.cols] * (g.rows - 1))
    return [g, scale(g, 2), zeros(g.rows, g.cols), singular]


def _phi1_alterations(base: PhiNModule) -> list:
    """(blocks, factors) of phi1 of ``base`` alone and beside the companion
    block of T^2 - T (singular), T^2 + 1 (unit roots) or T^2 + q (slope
    1/2)."""
    out = [(base.phi1_blocks, base.phi1_factors)]
    for chi in ((0, -1, 1), (1, 0, 1), (base.q, 0, 1)):
        block = QMatrix.from_rows(_companion(chi))
        out.append((base.phi1_blocks + (block,), base.phi1_factors + (chi,)))
    return out


def test_altered_blocks_match_dense_oracle():
    """Modules with an altered phi1 or gram, the blocks a module stores:
    every verdict, failing ones included, is the oracle's."""
    seen = set()
    verdicts_seen = set()
    for base in _base_modules():
        for (blocks, factors), gram in product(_phi1_alterations(base), _gram_blocks(base.gram)):
            m = PhiNModule(base.p, base.f, blocks, factors, gram)
            dense = dense_module(m)
            relations = verify_relations(m)
            assert relations == dense_relations(dense), m
            assert verify_monodromy_duality(m) == dense_duality(dense)
            polygons = _hodge_newton_or_error(hodge_newton, m)
            assert polygons == _hodge_newton_or_error(dense_hodge_newton, dense)
            if isinstance(polygons, PolygonReport):
                verdicts_seen.update(_polygon_verdicts(polygons))
            seen.add(relations)
    # the alterations reach every verdict that a free block can break
    assert any(all_pass(r) for r in seen)
    for field in ("phi_invertible", "n_rank_is_torus_rank"):
        assert any(not getattr(r, field) for r in seen), field
    assert verdicts_seen == {(name, ok) for name in POLYGON_VERDICTS for ok in (True, False)}


def test_dense_oracle_flags_altered_scalars_and_n():
    """Each dense module whose weight-0 or weight-2 scalar of phi, or whose
    N block, is not the assembled one fails a dense verdict, or has no
    Newton polygon: the alterations that a PhiNModule cannot hold."""
    failed = set()
    count = 0
    for base in _base_modules():
        g = base.gram
        scalars = [1, base.q, base.q ** 2, base.p, -base.q, 0]
        for phi0, phi2, n02 in product(scalars, scalars, _gram_blocks(g)):
            if (phi0, phi2, n02) == (1, base.q, g):
                continue
            count += 1
            dense = dense_from_blocks(base.p, base.f, phi0, base.phi1_blocks, phi2, n02,
                                      base.fil1_dim, g)
            polygons = _hodge_newton_or_error(dense_hodge_newton, dense)
            verdicts = {name for name in RelationReport._fields
                        if not getattr(dense_relations(dense), name)}
            if not dense_duality(dense):
                verdicts.add("monodromy_duality")
            if isinstance(polygons, PolygonReport):
                verdicts |= {name for name, ok in _polygon_verdicts(polygons) if not ok}
            else:
                verdicts.add("no Newton polygon")
            assert verdicts, (base, phi0, phi2, n02)
            failed |= verdicts
    assert count == 565
    assert failed == {"n_phi_commutation", "phi_invertible", "n_rank_is_torus_rank",
                      "monodromy_duality", "no Newton polygon", *POLYGON_VERDICTS}


def _companion(chi) -> list:
    """The companion matrix of a monic polynomial, ascending coefficients:
    its characteristic polynomial is chi."""
    n = len(chi) - 1
    return [[int(j == i - 1) for j in range(n - 1)] + [-chi[i]] for i in range(n)]


def _hand_built(rng) -> PhiNModule:
    """A block-form module at f = 1, 2 or 3 whose phi1 is the direct sum of
    companion matrices of a few factors, some repeated: T^b - u p^a, of
    the one slope a / b, and monic polynomials with random valuations, with
    one more linear factor when their degrees add up to an odd number."""
    p, f = rng.choice((2, 3, 5)), rng.choice((1, 2, 3))

    def coefficient():
        return rng.choice((1, -1, 2, 7)) * p ** rng.randint(0, 4)

    distinct = []
    for _ in range(rng.randint(1, 3)):
        b = rng.randint(1, 4)
        if rng.random() < 0.5:
            distinct.append((-coefficient(),) + (0,) * (b - 1) + (1,))
        else:
            distinct.append((coefficient(),) + tuple(
                rng.choice((0, coefficient())) for _ in range(b - 1)) + (1,))
    factors = tuple(rng.choice(distinct) for _ in range(rng.randint(0, 4)))
    if sum(len(chi) - 1 for chi in factors) % 2:
        factors += ((-coefficient(), 1),)  # phi1 has even size
    # a companion matrix is one block: its ones below the diagonal tie it
    blocks = tuple(QMatrix.from_rows(_companion(chi)) for chi in factors)
    w2 = rng.randint(0, 2)
    gram = QMatrix.from_rows([[int(i == j) for j in range(w2)] for i in range(w2)]
                             ) if w2 else QMatrix(0, 0, ())
    return PhiNModule(p, f, blocks, factors, gram)


def test_hand_built_polygons_match_dense_oracle():
    """Slopes with denominators from f, repeated factors, and each polygon
    verdict both ways: the integer verdicts are the dense oracle's."""
    rng = random.Random(25)
    verdicts_seen = set()
    kinds = {"fractional slope": 0, "repeated factor": 0}
    for _ in range(200):
        m = _hand_built(rng)
        polygons = hodge_newton(m)
        dense = dense_hodge_newton(dense_module(m))
        assert polygons == dense, m
        # every slope and t_newton is a lowest-terms pair of ints, den >= 1
        for pair in (polygons.t_newton, *(s for s, _ in polygons.newton.slopes)):
            assert is_lowest_terms(pair), pair
        verdicts_seen.update(_polygon_verdicts(polygons))
        kinds["fractional slope"] += any(
            den > 1 for (_, den), _ in polygons.newton.slopes) and m.f > 1
        kinds["repeated factor"] += len(set(m.phi1_factors)) < len(m.phi1_factors)
    assert verdicts_seen == {(name, ok) for name in POLYGON_VERDICTS for ok in (True, False)}
    assert min(kinds.values()) >= 20


def _report(name: str, capsys) -> dict:
    assert main(["build", str(INSTANCE_DIR / name)]) == 0
    return json.loads(capsys.readouterr().out)


class TestModuleFromReport:
    """The oracle's reader refuses a report whose dense phi or n the
    blocks cannot hold, whose fixed blocks are not those of a module, or
    whose p, f, dims, fil1_dim or gram is malformed, naming the field; a
    report that is read back has its free blocks kept."""

    def test_round_trip_has_block_form(self, capsys):
        for name in ("tate.json", "banana.json", "theta.json", "av_tate.json"):
            report = _report(name, capsys)
            m = module_from_report(report)
            assert all_pass(verify_relations(m))
            assert written_module(load_instance(str(INSTANCE_DIR / name)), m) == report["module"]

    @pytest.mark.parametrize("name", ["tate.json", "banana.json"])
    def test_off_block_phi_entry_fails_relations(self, name, capsys):
        # the dense oracle finds phi invertible and N phi = q phi N here, so
        # a failing verdict would be wrong: the report is refused instead
        report = _report(name, capsys)
        report["module"]["phi"][0][1] = "1"
        with pytest.raises(ValueError, match="'module.phi' is not in block form"):
            module_from_report(report)

    @pytest.mark.parametrize("name", ["tate.json", "banana.json"])
    def test_off_block_n_entry_fails_relations(self, name, capsys):
        report = _report(name, capsys)
        report["module"]["n"][1][0] = "3"
        with pytest.raises(ValueError, match="'module.n' is not in block form"):
            module_from_report(report)

    def test_non_scalar_weight_zero_block_fails_relations(self, capsys):
        # theta: w0 = 2, so phi[0][1] lies inside the weight-0 block
        report = _report("theta.json", capsys)
        report["module"]["phi"][0][1] = "1"
        with pytest.raises(ValueError, match="'module.phi' is not in block form"):
            module_from_report(report)

    def test_in_block_change_is_kept(self, capsys):
        # an entry of phi1, a free block: [[0, -5], [1, 2]] becomes singular
        report = _report("good_reduction.json", capsys)
        altered = copy.deepcopy(report)
        altered["module"]["phi"][0][1] = "0"
        m = module_from_report(altered)
        assert m.phi1_blocks[0] == QMatrix.from_rows([[0, 0], [1, 2]])
        assert not verify_relations(m).phi_invertible
        assert m != module_from_report(report)

    @pytest.mark.parametrize(
        "name, field, i, j, value, named",
        [
            ("tate.json", "phi", 1, 1, "1", "'module.phi' has weight-2 scalar 1, not q = 5"),
            ("tate.json", "phi", 0, 0, "5", "'module.phi' has weight-0 scalar 5, not 1"),
            ("tate.json", "n", 0, 1, "2",
             "'module.n' has a weight-\\(0, 2\\) block other than 'module.gram'"),
            ("theta.json", "gram", 0, 1, "0",
             "'module.n' has a weight-\\(0, 2\\) block other than 'module.gram'"),
        ],
    )
    def test_fixed_block_change_refused_naming_it(self, name, field, i, j, value, named, capsys):
        # the scalars of phi on weights 0 and 2 and N's block are fixed by
        # q and gram, so no module holds another value
        report = _report(name, capsys)
        report["module"][field][i][j] = value
        with pytest.raises(ValueError, match=named):
            module_from_report(report)

    def test_off_block_module_is_not_serialized(self, capsys):
        # the weight-1 diagonal of N: refused on reading, so no module that
        # misstates N reaches the report writer
        report = _report("tate.json", capsys)
        report["module"]["n"][1][1] = "1"
        with pytest.raises(ValueError, match="'module.n' is not in block form"):
            module_from_report(report)

    @pytest.mark.parametrize(
        "name, field, value, named",
        [
            ("tate.json", "f", "0", "'module.f' = 0 must be >= 1"),
            ("tate.json", "p", "4", "'module.p' = 4 is not prime"),
            ("theta.json", "fil1_dim", "-1", "'module.fil1_dim' = -1 is not w2 \\+ g = 2"),
            ("theta.json", "fil1_dim", "3", "'module.fil1_dim' = 3 is not w2 \\+ g = 2"),
            ("good_reduction.json", "fil1_dim", "3", "'module.fil1_dim' = 3 is not w2 \\+ g = 2"),
            ("good_reduction.json", "dims", {"w0": "0", "w1": "3", "w2": "0"},
             "'module.dims' has bad ranks \\(0, 3, 0\\)"),
            ("theta.json", "gram", [["1"]], "'module.gram' is not 2x2"),
        ],
    )
    def test_bad_field_refused_naming_it(self, name, field, value, named, capsys):
        report = _report(name, capsys)
        report["module"][field] = value
        with pytest.raises(ValueError, match=named):
            module_from_report(report)


ENTRIES = st.one_of(
    st.integers(-30, 30).map(str),
    st.fractions(min_value=-30, max_value=30, max_denominator=25).map(str),
    st.sampled_from(["0", "1", "5", "25", "1/5", "1.5", ""]),
)


@functools.cache
def _read_back_reports() -> tuple:
    """The reports of ``instances/`` and of fuzz seed 7."""
    insts = [load_instance(str(path)) for path in sorted(INSTANCE_DIR.glob("*.json"))]
    insts += instance_stream(7, 40)
    return tuple(json.loads(dump_json(run_checks(inst, DEFAULT_POINT_BOUND))) for inst in insts)


@st.composite
def edited_reports(draw):
    """A report with one entry of phi, n or gram, or one scalar field of its
    module block, changed."""
    report = copy.deepcopy(draw(st.sampled_from(_read_back_reports())))
    mod = report["module"]
    d = len(mod["phi"])
    field = draw(st.sampled_from(["phi", "n", "gram", "p", "f", "fil1_dim", "dims"]))
    if field in ("phi", "n", "gram"):
        rows = mod[field]
        assume(rows)
        i = draw(st.integers(0, len(rows) - 1))
        # the diagonal half the time, so that in-block edits of phi are common
        j = i if draw(st.booleans()) else draw(st.integers(0, len(rows) - 1))
        rows[i][j] = draw(ENTRIES)
    elif field == "dims":
        mod["dims"][draw(st.sampled_from(["w0", "w1", "w2"]))] = str(draw(st.integers(-1, d + 1)))
    else:
        bounds = {"p": (-3, 50), "f": (-1, 3), "fil1_dim": (-2, d + 2)}[field]
        mod[field] = str(draw(st.integers(*bounds)))
    return report


def _dense_of_report(report) -> DenseModule:
    """The dense module of a report's matrices, parsed here with int."""
    mod = report["module"]

    def matrix(rows):
        if not rows:
            return QMatrix(0, 0, ())
        return QMatrix.from_rows([[int(x) for x in r] for r in rows])

    return DenseModule(
        p=int(mod["p"]),
        f=int(mod["f"]),
        dims=tuple(int(mod["dims"][w]) for w in ("w0", "w1", "w2")),
        phi=matrix(mod["phi"]),
        n=matrix(mod["n"]),
        fil1_dim=int(mod["fil1_dim"]),
        gram=matrix(mod["gram"]),
    )


@settings(max_examples=300, deadline=None)
@given(edited_reports())
def test_read_back_matches_dense_oracle(report):
    """A report with one changed entry or field that the oracle's reader
    reads back gives a module whose relations, duality and polygons are the
    dense oracle's on the report's matrices; a refused edit is skipped."""
    try:
        m = module_from_report(report)
    except ValueError:
        return
    dense = _dense_of_report(report)
    assert verify_relations(m) == dense_relations(dense)
    assert verify_monodromy_duality(m) == dense_duality(dense)
    assert _hodge_newton_or_error(hodge_newton, m) == _hodge_newton_or_error(
        dense_hodge_newton, dense
    )
