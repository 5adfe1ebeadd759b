import itertools
import math
import random

import pytest

import phinmod.weil_data as weil_data
from phinmod.errors import ValidationError, WeilValidationError
from phinmod.exact_linalg import QMatrix, char_poly, newton_polygon
from phinmod.weil_data import (
    EllipticCurveSpec,
    _archimedean_holds,
    count_points,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

from oracles import count_points_xy, is_prime_trial, resolve_by_validation


class TestEllipticSpec:
    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            EllipticCurveSpec(5, 0, 0)

    def test_even_p_rejected(self):
        with pytest.raises(ValidationError):
            EllipticCurveSpec(2, 1, 1)

    def test_composite_p_rejected(self):
        with pytest.raises(ValidationError):
            EllipticCurveSpec(15, 1, 1)

    def test_coefficients_reduced(self):
        e = EllipticCurveSpec(5, 6, -1)
        assert (e.a4, e.a6) == (1, 4)


class TestCountPoints:
    def test_spot_values(self):
        assert count_points(EllipticCurveSpec(5, 1, 0)) == (4, 2)
        assert count_points(EllipticCurveSpec(7, -1, 0)) == (8, 0)
        assert count_points(EllipticCurveSpec(3, 1, 0)) == (4, 0)

    def test_against_xy_oracle(self):
        for p in (3, 5, 7, 11, 13):
            for a4 in range(p):
                for a6 in range(p):
                    if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                        continue
                    n, a = count_points(EllipticCurveSpec(p, a4, a6))
                    assert n == count_points_xy(p, a4, a6)
                    assert a * a <= 4 * p

    def test_bound_enforced(self):
        with pytest.raises(ValidationError):
            count_points(EllipticCurveSpec(10007, 1, 1), bound=10 ** 4)


class TestFrobeniusOfElliptic:
    def test_companion_shape(self):
        w = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))
        assert w.matrix.to_rows() == [[0, -5], [1, 2]]
        assert (w.p, w.f, w.g) == (5, 1, 1)

    def test_char_poly_is_weil(self):
        for p, a4, a6 in [(5, 1, 0), (7, 6, 0), (3, 1, 0), (11, 1, 3)]:
            w = frobenius_of_elliptic(EllipticCurveSpec(p, a4, a6))
            _, a = count_points(EllipticCurveSpec(p, a4, a6))
            assert char_poly(w.matrix) == [p, -a, 1]


class TestEllipticBlockFromTrace:
    """frobenius_of_elliptic builds the block from the counted trace; the
    general validate_weil gate on the companion matrix is its oracle."""

    def test_every_curve_at_small_p(self):
        for p in (3, 5, 7, 11, 13):
            for a4 in range(p):
                for a6 in range(p):
                    if (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0:
                        continue
                    e = EllipticCurveSpec(p, a4, a6)
                    assert frobenius_of_elliptic(e) == resolve_by_validation(e, e.p, 1, 10 ** 4)

    def test_seeded_curves_at_large_p(self):
        rng = random.Random(14)
        primes = [p for p in range(5000, 10 ** 4) if is_prime_trial(p)]
        for _ in range(200):
            p = rng.choice(primes)
            while True:
                a4, a6 = rng.randrange(p), rng.randrange(p)
                if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
                    break
            e = EllipticCurveSpec(p, a4, a6)
            assert frobenius_of_elliptic(e) == resolve_by_validation(e, e.p, 1, 10 ** 4)

    @pytest.mark.parametrize("p", [3, 5, 7, 9973])
    def test_trace_past_hasse_refused_alike(self, monkeypatch, p):
        # a counter that returns a trace just past 2 sqrt(p): both paths
        # refuse it with the same message; the largest trace within the
        # bound passes both
        e = EllipticCurveSpec(p, 1, 1)
        for a, refused in ((math.isqrt(4 * p), False), (math.isqrt(4 * p) + 1, True)):
            for sign in (1, -1):
                monkeypatch.setattr(
                    weil_data,
                    "count_points",
                    lambda e, bound=10 ** 4, t=sign * a: (e.p + 1 - t, t),
                )
                if not refused:
                    assert frobenius_of_elliptic(e) == resolve_by_validation(e, e.p, 1, 10 ** 4)
                    continue
                with pytest.raises(WeilValidationError) as short:
                    frobenius_of_elliptic(e)
                with pytest.raises(WeilValidationError) as general:
                    resolve_by_validation(e, e.p, 1, 10 ** 4)
                assert str(short.value) == str(general.value)
                assert "archimedean check" in str(short.value)


class TestValidateWeil:
    def test_accepts_companion(self):
        w = validate_weil([[0, -5], [1, 2]], 5)
        assert w.q == 5 and w.g == 1

    def test_rejects_identity(self):
        with pytest.raises(WeilValidationError, match="det"):
            validate_weil(QMatrix.identity(2), 5)

    def test_rejects_archimedean_violation(self):
        # roots 1 and 5 have moduli 1 and 5, not sqrt(5)
        with pytest.raises(WeilValidationError, match="archimedean"):
            validate_weil([[0, -5], [1, 6]], 5)

    def test_rejects_odd_size(self):
        with pytest.raises(WeilValidationError, match="odd"):
            validate_weil([[5]], 5)

    def test_rejects_functional_equation_violation(self):
        # det = 25 = q^2 but coefficients are not q-symmetric:
        # char poly (T-25)(T-1)(T^2+T+1) has det 25 at q=5, g=2
        m = QMatrix.block_diag(
            [
                QMatrix.from_rows([[25]]),
                QMatrix.from_rows([[1]]),
                QMatrix.from_rows([[0, -1], [1, -1]]),
            ]
        )
        with pytest.raises(WeilValidationError):
            validate_weil(m, 5)

    def test_rejects_non_integer(self):
        from fractions import Fraction

        with pytest.raises(WeilValidationError, match="integer"):
            validate_weil(QMatrix.from_rows([[Fraction(1, 2), 0], [0, 10]]), 5)

    def test_q_eigenvalue_rejected(self):
        # diag(5, 1) + an honest elliptic block: det and functional equation
        # pass, and q is an exact eigenvalue, of absolute value q > sqrt(q),
        # so the 4x4 archimedean certificate refuses it
        m = QMatrix.block_diag(
            [
                QMatrix.from_rows([[5, 0], [0, 1]]),
                QMatrix.from_rows([[0, -5], [1, 2]]),
            ]
        )
        with pytest.raises(WeilValidationError, match="eigenvalue"):
            validate_weil(m, 5)

    def test_archimedean_advisory_flag(self):
        # (5 +/- sqrt(5))/2 are real of the wrong modulus but multiply to q;
        # above 2x2 the exact certificate rejects them as the 2x2 path does
        good = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)).matrix
        bad = QMatrix.from_rows([[0, -5], [1, 5]])
        with pytest.raises(WeilValidationError, match="archimedean"):
            validate_weil(QMatrix.block_diag([bad, good]), 5)
        ok = validate_weil(QMatrix.block_diag([good, good]), 5)
        assert ok.g == 2

    def test_size_and_entry_caps_before_char_poly(self, monkeypatch):
        from phinmod.weil_data import MAX_ENTRY_DIGITS, MAX_WEIL_SIZE

        def no_char_poly(m):
            raise AssertionError("char_poly reached")

        monkeypatch.setattr("phinmod.weil_data.char_poly", no_char_poly)
        n = MAX_WEIL_SIZE + 2
        with pytest.raises(WeilValidationError, match=f"{n} rows; a Weil block has at most"):
            validate_weil(QMatrix.zeros(n, n), 5)
        for big in (10 ** MAX_ENTRY_DIGITS, -(10 ** MAX_ENTRY_DIGITS)):
            with pytest.raises(WeilValidationError, match=f"more than {MAX_ENTRY_DIGITS}"):
                validate_weil([[0, big], [1, 0]], 5)

    def test_f_greater_than_one(self):
        # companion of T^2 - 3T + 9 at q = 3^2
        w = validate_weil([[0, -9], [1, 3]], 3, f=2)
        assert w.q == 9 and w.g == 1


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def weil_from_traces(traces, q):
    """Ascending coefficients of prod (T^2 - a T + q) over the traces a."""
    chi = [1]
    for a in traces:
        chi = poly_mul(chi, [q, -a, 1])
    return chi


def is_weil_by_construction(traces, q):
    # T^2 - aT + q has both roots of absolute value sqrt(q) iff a^2 <= 4q
    return all(a * a <= 4 * q for a in traces)


def chi_from_h(h, q):
    """chi(T) = T^g h(T + q/T), expanded as sum_j h_j T^(g-j) (T^2 + q)^j."""
    g = len(h) - 1
    chi = [0] * (2 * g + 1)
    power = [1]
    for j, c in enumerate(h):
        for i, x in enumerate(power):
            chi[g - j + i] += c * x
        power = poly_mul(power, [q, 0, 1])
    return chi


def companion(chi):
    """Companion matrix of the monic polynomial with ascending coefficients
    chi: ones below the diagonal, -chi[:-1] in the last column."""
    n = len(chi) - 1
    return QMatrix.from_rows(
        [[(1 if j == i - 1 else 0) for j in range(n - 1)] + [-chi[i]] for i in range(n)]
    )


def trace_blocks(traces, q):
    return QMatrix.block_diag([QMatrix.from_rows([[0, -q], [1, a]]) for a in traces])


# (p, f): q = 2, 3, 5, 7 at f = 1 and the squares 9, 25, 49 at f = 2
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]


def trace_values(q):
    """Traces inside, on and just outside |a| <= 2 sqrt(q), plus q + 1."""
    edge = max(a for a in range(4 * q) if a * a <= 4 * q)
    return sorted({0, 1, -1, edge - 1, edge, edge + 1, -edge, -edge - 1, q + 1})


class TestArchimedeanCertificate:
    """The exact Sturm certificate against Weil polynomials built as products
    of T^2 - aT + q, whose verdict is known from the chosen traces."""

    def test_products_of_quadratics(self):
        rng = random.Random(5)
        for p, f in FIELDS:
            q = p ** f
            values = trace_values(q)
            for g in (1, 2, 3, 4):
                cases = list(itertools.combinations_with_replacement(values, g))
                if g == 4:
                    cases = rng.sample(cases, 60)
                for traces in cases:
                    chi = weil_from_traces(traces, q)
                    assert _archimedean_holds(chi, q, g) == is_weil_by_construction(
                        traces, q
                    ), (q, traces)

    def test_repeated_factors(self):
        for q in (5, 9, 25):
            for a in range(-2 * q, 2 * q + 1):
                for g in (2, 3, 4):
                    traces = (a,) * g
                    chi = weil_from_traces(traces, q)
                    assert _archimedean_holds(chi, q, g) == (a * a <= 4 * q), (q, traces)

    def test_square_q_boundary(self):
        # a = +-2 sqrt(q) gives (T -+ sqrt(q))^2: on the circle
        for q, root in ((9, 3), (25, 5), (49, 7)):
            for a in (2 * root, -2 * root):
                for traces in ((a, 0), (a, a), (a, -a), (a, a, 1), (a, 2 * root + 1)):
                    chi = weil_from_traces(traces, q)
                    assert _archimedean_holds(chi, q, len(traces)) == is_weil_by_construction(
                        traces, q
                    ), (q, traces)

    def test_nonreal_and_irrational_roots_of_h(self):
        q = 5
        # x^2 + 1: roots +-i are not real
        assert not _archimedean_holds(chi_from_h([1, 0, 1], q), q, 2)
        # x^2 - 4q: roots +-2 sqrt(q) are the irrational endpoints (T^2 - q)^2
        assert _archimedean_holds(chi_from_h([-4 * q, 0, 1], q), q, 2)
        # x^2 - 4q - 1: just outside the interval
        assert not _archimedean_holds(chi_from_h([-4 * q - 1, 0, 1], q), q, 2)
        # (x^2 - 4q)^2 times x: repeated irrational endpoints and a root at 0
        h = poly_mul(poly_mul([-4 * q, 0, 1], [-4 * q, 0, 1]), [0, 1])
        assert _archimedean_holds(chi_from_h(h, q), q, 5)
        # x^2 - 4q + 1 times x^2 + 1: real part fine, complex pair not
        h = poly_mul([-4 * q + 1, 0, 1], [1, 0, 1])
        assert not _archimedean_holds(chi_from_h(h, q), q, 4)

    def test_factored_h_sweep(self):
        # h a product of x - r (real root r), x^2 - c (roots +-sqrt(c)) and
        # x^2 + c, c > 0 (a non-real pair); sparse and repeated factors give
        # Sturm remainders that drop more than one degree
        rng = random.Random(1)
        for q in (5, 7, 9):
            edge = 2 * int(q ** 0.5) + 2
            for _ in range(500):
                h, truth = [1], True
                for _ in range(rng.randint(1, 3)):
                    kind = rng.choice(("root", "pair", "nonreal"))
                    if kind == "root":
                        r = rng.randint(-edge, edge)
                        h, truth = poly_mul(h, [-r, 1]), truth and r * r <= 4 * q
                    elif kind == "pair":
                        c = rng.randint(0, 6 * q)
                        h, truth = poly_mul(h, [-c, 0, 1]), truth and c <= 4 * q
                    else:
                        h, truth = poly_mul(h, [rng.randint(1, 6 * q), 0, 1]), False
                chi = chi_from_h(h, q)
                assert _archimedean_holds(chi, q, len(h) - 1) == truth, (q, h)

    def test_companion_and_block_matrices_through_validate_weil(self):
        for p, f in FIELDS:
            q = p ** f
            values = trace_values(q)
            for g in (1, 2, 3):
                for traces in itertools.combinations_with_replacement(values, g):
                    chi = weil_from_traces(traces, q)
                    for m in (companion(chi), trace_blocks(traces, q)):
                        if is_weil_by_construction(traces, q):
                            w = validate_weil(m, p, f)
                            assert w.factors == (tuple(chi),)
                        else:
                            # above 2x2, a = q + 1 (1 and q among the
                            # eigenvalues) is refused by the certificate,
                            # whose message names "not every eigenvalue"
                            eigen = g > 1 and q + 1 in traces
                            reason = "eigenvalue" if eigen else "archimedean"
                            with pytest.raises(WeilValidationError, match=reason):
                                validate_weil(m, p, f)


class TestDirectSum:
    def test_empty(self):
        w = direct_sum([], 5, 1)
        assert w.size == 0 and w.g == 0

    def test_single(self):
        b = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))
        assert direct_sum([b], 5, 1).matrix == b.matrix

    def test_two_blocks(self):
        b1 = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))   # a = 2
        b2 = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))   # a = 0
        w = direct_sum([b1, b2], 5, 1)
        assert w.size == 4 and w.g == 2
        from phinmod.exact_linalg import det

        assert det(w.matrix) == 25

    def test_revalidation_accepts_generated_data(self):
        w = direct_sum(
            [
                frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)),
                frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1)),
            ],
            5,
            1,
        )
        again = validate_weil(w.matrix, 5, 1)
        assert again == w

    def test_mixed_q_rejected(self):
        b1 = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))
        b2 = frobenius_of_elliptic(EllipticCurveSpec(7, -1, 0))
        with pytest.raises(WeilValidationError):
            direct_sum([b1, b2], 5, 1)


class TestSlopeSymmetry:
    def test_newton_symmetry_of_generated_instances(self):
        specs = [(5, 1, 0), (5, 0, 1), (7, -1, 0), (13, 4, 4), (3, 1, 0)]
        blocks = {}
        for p, a4, a6 in specs:
            w = frobenius_of_elliptic(EllipticCurveSpec(p, a4, a6))
            blocks.setdefault(p, []).append(w)
        for p, ws in blocks.items():
            w = direct_sum(ws, p, 1)
            np_ = newton_polygon(char_poly(w.matrix), p).scaled(1)
            assert np_.is_symmetric()
