from fractions import Fraction

import pytest

from phinmod.builders import CurveInstance, build_from_av, build_from_curve
from phinmod.errors import ValidationError
from phinmod.exact_linalg import QMatrix
from phinmod.io_formats import load_instance
from phinmod.phin_module import (
    PhiNModule,
    assemble,
    hodge_newton,
    verify_monodromy_duality,
    verify_relations,
)
from phinmod.weil_data import EllipticCurveSpec, frobenius_of_elliptic, validate_weil

from conftest import INSTANCE_DIR
from oracles import (
    all_pass,
    dense_from_blocks,
    dense_module,
    dense_relations,
    duality_pairing,
    heights,
    is_lowest_terms,
    is_zero,
    monodromy_pairing_matrix,
    scale,
    symmetric_slopes,
)

EMPTY_WEIL_5 = validate_weil(QMatrix(0, 0, ()), 5)


def tate_module():
    return assemble(5, 1, QMatrix.from_rows([[1]]), EMPTY_WEIL_5)


def banana_elliptic_module():
    # one banana cycle (gram [2]) plus one supersingular elliptic component
    w = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))  # a = 0
    return assemble(5, 1, QMatrix.from_rows([[2]]), w)


def good_reduction_module():
    w = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))  # a = 2
    return assemble(5, 1, QMatrix(0, 0, ()), w)


def theta_module():
    return assemble(5, 1, QMatrix.from_rows([[2, 1], [1, 2]]), EMPTY_WEIL_5)


class TestAssemble:
    def test_tate_module(self):
        m = tate_module()
        assert m.dims == (1, 0, 1)
        assert dense_module(m).phi.to_rows() == [[1, 0], [0, 5]]
        assert dense_module(m).n.to_rows() == [[0, 1], [0, 0]]
        assert m.fil1_dim == 1

    def test_good_reduction(self):
        m = good_reduction_module()
        assert m.dims == (0, 2, 0)
        assert is_zero(dense_module(m).n)
        assert m.fil1_dim == 1

    def test_banana_plus_elliptic(self):
        m = banana_elliptic_module()
        assert m.dimension == 4
        n = dense_module(m).n
        nonzero = {
            (i, j): n[i, j]
            for i in range(4)
            for j in range(4)
            if n[i, j] != 0
        }
        assert nonzero == {(0, 3): 2}
        assert m.fil1_dim == 2

    def test_gram_not_pd_rejected(self):
        with pytest.raises(ValidationError, match="positive definite"):
            assemble(5, 1, QMatrix.from_rows([[0]]), EMPTY_WEIL_5)

    def test_gram_not_symmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            assemble(5, 1, QMatrix.from_rows([[1, 1], [0, 1]]), EMPTY_WEIL_5)

    def test_one_symmetry_pass_per_request(self, monkeypatch):
        passes = []
        is_symmetric = QMatrix.is_symmetric
        monkeypatch.setattr(QMatrix, "is_symmetric", lambda m: passes.append(m) or is_symmetric(m))
        assemble(5, 1, QMatrix.from_rows([[2, 1], [1, 2]]), EMPTY_WEIL_5)
        assert len(passes) == 1
        with pytest.raises(ValidationError, match="^gram not symmetric$"):
            assemble(5, 1, QMatrix.from_rows([[2, 1], [0, 2]]), EMPTY_WEIL_5)
        with pytest.raises(ValidationError, match="^gram not positive definite$"):
            assemble(5, 1, QMatrix.from_rows([[1, 2], [2, 1]]), EMPTY_WEIL_5)

    def test_non_integral_gram_cannot_be_built(self):
        # QMatrix.from_rows is the one integrality test, so assemble has none
        for entry in (Fraction(1, 2), Fraction(2, 1), 1.0, True):
            with pytest.raises(ValidationError, match="^matrix entries must be integers$"):
                QMatrix.from_rows([[entry]])

    def test_good_reduction_keeps_the_weil_blocks(self):
        m = good_reduction_module()
        assert m.phi1_blocks == (QMatrix.from_rows([[0, -5], [1, 2]]),)

    def test_non_square_phi1_block_refused(self):
        m = tate_module()
        with pytest.raises(ValidationError, match="^phi1 has a block that is not square$"):
            PhiNModule(m.p, m.f, (QMatrix(1, 2, (1, 2)),), ((0, 1),), m.gram)

    def test_odd_phi1_refused(self):
        # dim Fil^1 = w2 + w1 / 2 needs an even w1
        m = tate_module()
        with pytest.raises(ValidationError, match="^phi1 has odd size$"):
            PhiNModule(m.p, m.f, (QMatrix.from_rows([[2]]),), ((-2, 1),), m.gram)
        three = (QMatrix.from_rows([[0, -5], [1, 2]]), QMatrix.from_rows([[1]]))
        with pytest.raises(ValidationError, match="^phi1 has odd size$"):
            PhiNModule(m.p, m.f, three, ((5, -2, 1), (-1, 1)), m.gram)

    def test_q_mismatch_rejected(self):
        w = frobenius_of_elliptic(EllipticCurveSpec(7, -1, 0))
        with pytest.raises(ValidationError, match="q"):
            assemble(5, 1, QMatrix(0, 0, ()), w)


class TestVerifyRelations:
    def test_tate_passes(self):
        assert all_pass(verify_relations(tate_module()))

    def test_no_torus_commutation_trivial(self):
        r = verify_relations(good_reduction_module())
        assert all_pass(r) and r.n_phi_commutation

    def test_corrupted_phi_detected(self):
        m = tate_module()
        # phi = identity(2): the weight-2 scalar block is 1 instead of q = 5,
        # which only the dense oracle can hold
        corrupted = dense_from_blocks(m.p, m.f, 1, m.phi1_blocks, 1, m.gram, m.fil1_dim, m.gram)
        r = dense_relations(corrupted)
        assert not r.n_phi_commutation
        assert not all_pass(r)
        # the other checks are independent and still pass
        assert r.n_squared_zero and r.phi_invertible

    def test_f_two_commutation(self):
        # q = 9 module: weight-2 block scales by q, not p
        w = validate_weil([[0, -9], [1, 3]], 3, f=2)
        m = assemble(3, 2, QMatrix.from_rows([[1]]), w)
        assert all_pass(verify_relations(m))
        assert m.q == 9


class TestHodgeNewton:
    def test_tate(self):
        r = hodge_newton(tate_module())
        assert r.t_newton == (1, 1) and r.t_hodge == 1
        assert r.newton == (((0, 1), 1), ((1, 1), 1))
        assert r.endpoints_equal and r.newton_on_or_above_hodge

    def test_supersingular_strictly_above(self):
        w = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))
        m = assemble(5, 1, QMatrix(0, 0, ()), w)
        r = hodge_newton(m)
        assert r.newton == (((1, 2), 2),)
        assert r.hodge == (((0, 1), 1), ((1, 1), 1))
        assert r.newton_on_or_above_hodge
        assert heights(r.newton)[1] > heights(r.hodge)[1]

    def test_empty_module(self):
        m = assemble(5, 1, QMatrix(0, 0, ()), EMPTY_WEIL_5)
        r = hodge_newton(m)
        assert r.t_newton == (0, 1) and r.t_hodge == 0
        assert r.newton == ()

    def test_f_two_normalization(self):
        w = validate_weil(QMatrix(0, 0, ()), 3, f=2)
        m = assemble(3, 2, QMatrix.from_rows([[1]]), w)
        r = hodge_newton(m)
        # raw valuations {0, 2} normalize to {0, 1}
        assert r.newton == (((0, 1), 1), ((1, 1), 1))
        assert r.t_newton == (1, 1) and r.t_hodge == 1

    def test_newton_symmetric(self):
        for m in (tate_module(), banana_elliptic_module(), good_reduction_module(),
                  theta_module()):
            assert symmetric_slopes(hodge_newton(m).newton)

    @pytest.fixture(scope="class")
    def reports(self, fuzz_batch):
        """The polygons of the fuzz batch and of every instances/*.json."""
        reports = [r.polygons for r in fuzz_batch.results]
        for path in sorted(INSTANCE_DIR.glob("*.json")):
            inst = load_instance(str(path))
            build = build_from_curve if isinstance(inst, CurveInstance) else build_from_av
            reports.append(hodge_newton(build(inst)))
        assert len(reports) == 205
        return reports

    def test_slopes_rise_and_multiplicities_are_positive(self, reports):
        # a polygon is a plain tuple that checks nothing; hodge_newton keeps
        # its slopes strictly increasing with positive multiplicities
        for r in reports:
            for polygon in (r.newton, r.hodge):
                slopes = [Fraction(*s) for s, _ in polygon]
                assert all(a < b for a, b in zip(slopes, slopes[1:]))
                assert all(k > 0 for _, k in polygon)

    def test_slopes_and_t_newton_are_lowest_terms_pairs(self, reports):
        fractional = 0
        for r in reports:
            pairs = [r.t_newton] + [s for polygon in (r.newton, r.hodge)
                                    for s, _ in polygon]
            assert all(is_lowest_terms(s) for s in pairs), r
            fractional += any(den > 1 for _, den in pairs)
        # supersingular components give slope 1/2
        assert fractional > 0


class TestMonodromyDuality:
    def test_pairing_matrix_tate(self):
        assert monodromy_pairing_matrix(tate_module()).to_rows() == [[0, 0], [0, 1]]

    def test_pairing_matrix_no_torus(self):
        assert is_zero(monodromy_pairing_matrix(good_reduction_module()))

    def test_pairing_matrix_theta(self):
        m = theta_module()
        rows = monodromy_pairing_matrix(m).to_rows()
        assert [r[2:] for r in rows[2:]] == [[2, 1], [1, 2]]

    def test_duality_matrix_nondegenerate(self):
        from phinmod.exact_linalg import det

        for m in (tate_module(), banana_elliptic_module(), theta_module()):
            assert det(duality_pairing(m)) != 0

    def test_identity_on_goldens(self):
        for m in (tate_module(), banana_elliptic_module(), good_reduction_module(),
                  theta_module()):
            assert verify_monodromy_duality(m)

    def test_gram_scaling_bilinearity(self):
        base = theta_module()
        for c in (2, 3, 7):
            scaled = assemble(5, 1, scale(base.gram, c), EMPTY_WEIL_5)
            assert monodromy_pairing_matrix(scaled) == scale(monodromy_pairing_matrix(base), c)
            pairing = duality_pairing(scaled)
            assert (pairing @ dense_module(scaled).n) == scale(
                duality_pairing(base) @ dense_module(base).n, c
            )
            assert verify_monodromy_duality(scaled)


class TestModulesEqual:
    def test_reflexive(self):
        assert tate_module() == tate_module()

    def test_distinguishes_gram(self):
        tate = tate_module()
        banana = assemble(5, 1, QMatrix.from_rows([[2]]), EMPTY_WEIL_5)
        assert tate != banana

    def test_dims_mismatch(self):
        assert tate_module() != good_reduction_module()


class TestStructuralInvariants:
    def test_image_and_kernel_of_n(self):
        from phinmod.exact_linalg import rank

        for m in (tate_module(), banana_elliptic_module(), theta_module()):
            w0, w1, w2 = m.dims
            n = dense_module(m).n
            assert rank(n) == w2
            # columns over weight-0 and weight-1 indices vanish
            for j in range(w0 + w1):
                assert all(n[i, j] == 0 for i in range(m.dimension))
            # image lands in the weight-0 block
            for i in range(w0, m.dimension):
                assert all(n[i, j] == 0 for j in range(m.dimension))
