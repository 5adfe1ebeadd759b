import contextlib
import functools
import io
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phinmod.cli as cli
import phinmod.weil_data as weil_data
from phinmod._backend import charpoly_int
from phinmod.builders import resolve_component
from phinmod.errors import ValidationError, WeilValidationError
from phinmod.fuzz import instance_stream
from phinmod.exact_linalg import QMatrix, char_poly
from phinmod.weil_data import (
    MAX_ENTRY_DIGITS,
    EllipticCurveSpec,
    _archimedean_holds,
    _certify,
    _charpoly_4x4,
    _functional_equation_holds,
    _genus_two_holds,
    count_points,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

from oracles import (
    certify_berkowitz,
    charpoly_leverrier,
    conjugated,
    count_points_xy,
    dense_weil,
    finest_blocks,
    functional_equation_all_indices,
    identity,
    is_prime_trial,
    newton_slopes_sweep,
    resolve_by_validation,
    zeros,
)


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
        assert w.blocks == (QMatrix.from_rows([[0, -5], [1, 2]]),)
        assert (w.p, w.f, w.size) == (5, 1, 2)

    def test_char_poly_is_weil(self):
        for p, a4, a6 in [(5, 1, 0), (7, 6, 0), (3, 1, 0), (11, 1, 3)]:
            w = frobenius_of_elliptic(EllipticCurveSpec(p, a4, a6))
            _, a = count_points(EllipticCurveSpec(p, a4, a6))
            assert char_poly(dense_weil(w)) == [p, -a, 1]


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
        assert w.p ** w.f == 5 and w.size == 2

    def test_rejects_identity(self):
        with pytest.raises(WeilValidationError, match="det"):
            validate_weil(identity(2), 5)

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

        # a row list is made a QMatrix first, whose from_rows refuses it
        for entry in (Fraction(1, 2), Fraction(10, 1), True):
            with pytest.raises(ValidationError, match="^matrix entries must be integers$"):
                validate_weil([[entry, 0], [0, 10]], 5)

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
        (good,) = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)).blocks
        bad = QMatrix.from_rows([[0, -5], [1, 5]])
        with pytest.raises(WeilValidationError, match="archimedean"):
            validate_weil(QMatrix.block_diag([bad, good]), 5)
        ok = validate_weil(QMatrix.block_diag([good, good]), 5)
        assert ok.size == 4

    def test_size_and_entry_caps_before_char_poly(self, monkeypatch):
        from phinmod.weil_data import MAX_WEIL_SIZE

        def no_char_poly(m):
            raise AssertionError("char_poly reached")

        def no_certificate(rows, q):
            raise AssertionError("certificate reached")

        # a 2 x 2 block never reaches charpoly_int, so the certificate
        # itself is patched too
        monkeypatch.setattr("phinmod.weil_data.charpoly_int", no_char_poly)
        monkeypatch.setattr("phinmod.weil_data._certify", no_certificate)
        n = MAX_WEIL_SIZE + 2
        with pytest.raises(WeilValidationError, match=f"{n} rows; a Weil block has at most"):
            validate_weil(zeros(n, n), 5)
        for big in (10 ** MAX_ENTRY_DIGITS, -(10 ** MAX_ENTRY_DIGITS)):
            for rows in ([[0, big], [1, 0]],
                         [[0, 0, 0, big], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]):
                with pytest.raises(WeilValidationError, match=f"more than {MAX_ENTRY_DIGITS}"):
                    validate_weil(rows, 5)

    def test_f_greater_than_one(self):
        # companion of T^2 - 3T + 9 at q = 3^2
        w = validate_weil([[0, -9], [1, 3]], 3, f=2)
        assert w.p ** w.f == 9 and w.size == 2


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
                            # one factor per diagonal block, multiplying to chi
                            blocks = 1 if m == companion(chi) else g
                            assert len(w.factors) == blocks
                            assert functools.reduce(poly_mul, w.factors, [1]) == chi
                        else:
                            # above 2x2, a = q + 1 (1 and q among the
                            # eigenvalues) is refused by the certificate,
                            # whose message names "not every eigenvalue"
                            eigen = g > 1 and q + 1 in traces
                            reason = "eigenvalue" if eigen else "archimedean"
                            with pytest.raises(WeilValidationError, match=reason):
                                validate_weil(m, p, f)


def certificate_outcome(certify, rows, q):
    """("ok", chi) or ("refused", message) of one certificate function."""
    try:
        return "ok", list(certify(rows, q))
    except WeilValidationError as exc:
        return "refused", str(exc)


def conjugated_companion(trace, det, ks):
    """A 2 x 2 matrix with the given trace and det: the companion of
    T^2 - trace*T + det conjugated by [[1, k], [0, 1]] for each k of ``ks``,
    transposed in between so the shears alternate sides."""
    a, b, c, d = 0, -det, 1, trace
    for k in ks:
        a, b, d = a + k * c, b + k * (d - a) - k * k * c, d - k * c
        b, c = c, b
    return [[a, b], [c, d]]


# (p, f) for the 2 x 2 certificate: q = 2, 3, 5, 9, 25, 101
FIELDS_2X2 = [(2, 1), (3, 1), (5, 1), (3, 2), (5, 2), (101, 1)]


@st.composite
def two_by_two(draw):
    """(rows, q): small entries, a trace near +-2 sqrt(q) with det = +-q,
    or entries of up to about 40 digits, random or of det = +-q."""
    p, f = draw(st.sampled_from(FIELDS_2X2))
    q = p ** f
    edge = math.isqrt(4 * q)
    kind = draw(st.sampled_from(["small", "near_hasse", "big", "big_det_q"]))
    if kind == "small":
        entries = draw(st.lists(st.integers(-12, 12), min_size=4, max_size=4))
        return [entries[:2], entries[2:]], q
    det = draw(st.sampled_from([q, q, -q]))
    if kind == "big":
        entries = draw(st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=4, max_size=4))
        return [entries[:2], entries[2:]], q
    if kind == "near_hasse":
        trace = draw(st.sampled_from([-1, 1])) * (edge + draw(st.integers(-2, 2)))
        ks = draw(st.lists(st.integers(-30, 30), max_size=2))
    else:
        trace = draw(st.one_of(st.integers(-edge - 2, edge + 2),
                               st.integers(-10 ** 20, 10 ** 20)))
        ks = draw(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=1, max_size=2))
    return conjugated_companion(trace, det, ks), q


class TestTwoByTwoCertificate:
    """A 2 x 2 block's chi is read off its trace and determinant; the
    certificate must give the chi, or the refusal and its message, of the
    general certificate built on the Hessenberg characteristic polynomial."""

    def test_conjugated_companion_keeps_trace_and_det(self):
        for ks in ([], [3], [-7, 2], [10 ** 20, -(10 ** 19)]):
            (a, b), (c, d) = conjugated_companion(5, -9, ks)
            assert (a + d, a * d - b * c) == (5, -9), ks

    @settings(max_examples=600, deadline=None)
    @given(two_by_two())
    def test_same_outcome_as_the_general_certificate(self, case):
        rows, q = case
        assert certificate_outcome(_certify, rows, q) == certificate_outcome(
            certify_berkowitz, rows, q)

    def test_hasse_boundary(self):
        # a^2 = 4q is accepted (q = 9, 25), a^2 = 4q + 1 refused (q = 2)
        for rows, q in (([[0, -9], [1, 6]], 9), ([[0, -25], [1, -10]], 25)):
            assert _certify(rows, q) == certify_berkowitz(rows, q) == [q, -rows[1][1], 1]
        refusal = "archimedean check, trace^2 = 9 > 4q = 8"
        for rows in ([[0, -2], [1, 3]], conjugated_companion(-3, 2, [4, -1])):
            outcome = certificate_outcome(_certify, rows, 2)
            assert outcome == certificate_outcome(certify_berkowitz, rows, 2)
            assert outcome[0] == "refused" and refusal in outcome[1]

    def test_entries_near_the_digit_cap(self):
        # det and trace^2 of thousands of digits are named by digit count
        big = 10 ** (MAX_ENTRY_DIGITS - 1) - 1
        half = 10 ** (MAX_ENTRY_DIGITS // 2 - 1)
        cases = [
            ([[big, big], [big, big - 1]], 5),  # det = -big: 3999 digits
            ([[-big, 0], [0, big]], 5),  # det = -big^2: 7998 digits
            ([[big, 1], [0, 1]], 10 ** 60 - 1),  # 60 digits, shown in full
            ([[big, 1], [0, 1]], 7),
            (conjugated_companion(4, 5, [half]), 5),  # Weil, entries ~ 10^3998
            (conjugated_companion(half, 5, [half]), 5),  # trace^2 of 3999 digits
            (conjugated_companion(-5, 5, [half, 3]), 5),
        ]
        outcomes = []
        for rows, q in cases:
            assert max(abs(x) for r in rows for x in r) < 10 ** MAX_ENTRY_DIGITS
            outcome = certificate_outcome(_certify, rows, q)
            assert outcome == certificate_outcome(certify_berkowitz, rows, q), rows
            outcomes.append(outcome)
        assert "det = -<3999-digit integer> != q^g = 5" in outcomes[0][1]
        assert "det = -<7998-digit integer>" in outcomes[1][1]
        assert outcomes[4] == ("ok", [5, -4, 1])
        assert "trace^2 = <3999-digit integer> > 4q = 20" in outcomes[5][1]


class TestFunctionalEquation:
    """The g conditions tested against the statement at every index."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_verdict_as_every_index(self, data):
        p, f = data.draw(st.sampled_from(FIELDS))
        q = p ** f
        g = data.draw(st.integers(1, 5))
        h = data.draw(st.lists(st.integers(-3 * q, 3 * q), min_size=g, max_size=g)) + [1]
        chi = chi_from_h(h, q)
        assert functional_equation_all_indices(chi, q, g)
        if data.draw(st.booleans()):
            # a_g is the equation's fixed point: any other change breaks it
            i = data.draw(st.integers(0, 2 * g - 1))
            chi[i] += data.draw(st.integers(-3, 3).filter(bool))
            assert functional_equation_all_indices(chi, q, g) == (i == g)
        assert _functional_equation_holds(chi, q, g) == functional_equation_all_indices(chi, q, g)


GENUS_TWO_FIELDS = FIELDS + [(101, 1), (3, 5)]


@st.composite
def genus_two_near_boundaries(draw):
    """(a1, a2, q) with a1 near +-4 sqrt(q) or anywhere inside, and a2 near
    one of the closed form's boundaries or anywhere in its range."""
    p, f = draw(st.sampled_from(GENUS_TWO_FIELDS))
    q = p ** f
    edge = math.isqrt(16 * q)
    a1 = draw(st.one_of(
        st.builds(lambda s, o: s * (edge + o), st.sampled_from([-1, 1]), st.integers(-2, 2)),
        st.integers(-edge - 2, edge + 2)))
    # the largest a2 with real roots, the smallest with h(+-2 sqrt(q)) >= 0
    real = (a1 * a1 + 8 * q) // 4
    ends = (math.isqrt(4 * a1 * a1 * q - 1) + 1 if a1 else 0) - 2 * q
    a2 = draw(st.one_of(
        st.builds(lambda b, o: b + o, st.sampled_from([real, ends, -2 * q]), st.integers(-2, 2)),
        st.integers(-2 * q - 3, 6 * q + 3)))
    return a1, a2, q


class TestGenusTwoClosedForm:
    """The closed form of Rueck and Maisner-Nart that certifies a 4 x 4
    block against the Sturm certificate at g = 2."""

    @settings(max_examples=800, deadline=None)
    @given(genus_two_near_boundaries())
    def test_same_verdict_as_the_sturm_certificate(self, case):
        a1, a2, q = case
        chi = [q * q, q * a1, a2, a1, 1]
        assert _genus_two_holds(a1, a2, q) == _archimedean_holds(chi, q, 2)

    def test_boundary_points(self):
        # (T^2 - 5)^2 and (T -+ 3)^4 at q = 9 have the roots of h at the
        # endpoints +-2 sqrt(q), simple and double; (T^2 - T + 5)^2 has a
        # double root of h inside; a1 = 13, a2 = -11 and a2 = 12 step outside
        for a1, a2, q, truth in ((0, -10, 5, True), (12, 54, 9, True), (-12, 54, 9, True),
                                 (-2, 11, 5, True), (13, 54, 9, False), (0, -11, 5, False),
                                 (-2, 12, 5, False)):
            assert _genus_two_holds(a1, a2, q) == truth, (a1, a2, q)
            assert _archimedean_holds([q * q, q * a1, a2, a1, 1], q, 2) == truth, (a1, a2, q)


def shears(rng, count):
    """``count`` random (i, j, c), i != j, for :func:`conjugated`."""
    return [(*rng.sample(range(4), 2), rng.choice((-2, -1, 1, 2))) for _ in range(count)]


def special_4x4(rng, bound):
    """Zero, singular, triangular and block-diagonal 4 x 4 matrices built
    from random entries below ``bound`` (the rank-1 one from their
    products)."""
    def entry():
        return rng.randrange(-bound + 1, bound)

    r = [[entry() for _ in range(4)] for _ in range(4)]
    u = [entry() for _ in range(4)]
    v = [entry() for _ in range(4)]
    return [
        [[0] * 4 for _ in range(4)],
        [[x * y for y in v] for x in u],  # rank 1
        [r[0], r[1], [x + y for x, y in zip(r[0], r[1])], r[3]],  # rank <= 3
        [r[0], r[1], r[0], r[1]],  # rank <= 2
        [[r[i][j] if j >= i else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if j <= i else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if (i < 2) == (j < 2) else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if (i < 1) == (j < 1) else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if (i < 3) == (j < 3) else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if i == j else 0 for j in range(4)] for i in range(4)],
        [[r[i][j] if {i, j} <= {1, 2} or i == j else 0 for j in range(4)] for i in range(4)],
    ]


@st.composite
def four_by_four(draw):
    """A 4 x 4 integer matrix: entries of 1 to 4000 digits or small ones,
    some zeroed, or one of the special shapes."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        shapes = special_4x4(rng, 10 ** draw(st.sampled_from([1, 3, 40, MAX_ENTRY_DIGITS])))
        return draw(st.sampled_from(shapes))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):
        entry = st.integers(1, MAX_ENTRY_DIGITS).flatmap(
            lambda k: st.integers(-(10 ** k - 1), 10 ** k - 1))
    entries = draw(st.lists(entry, min_size=16, max_size=16))
    zeros = draw(st.lists(st.booleans(), min_size=16, max_size=16))
    entries = [0 if z else x for x, z in zip(entries, zeros)]
    return [entries[i:i + 4] for i in range(0, 16, 4)]


class TestFourByFourCharpoly:
    """chi of a 4 x 4 block from its 2 x 2 minors against the
    Faddeev-LeVerrier trace recursion and Berkowitz."""

    def test_seeded_matrices(self):
        rng = random.Random("4x4 minors")
        for digits in (1, 2, 20, 300, MAX_ENTRY_DIGITS):
            bound = 10 ** digits
            cases = special_4x4(rng, bound)
            cases += [[[rng.randrange(-bound + 1, bound) for _ in range(4)] for _ in range(4)]
                      for _ in range(4 if digits == MAX_ENTRY_DIGITS else 40)]
            for rows in cases:
                chi = _charpoly_4x4(rows)
                assert chi == charpoly_leverrier(rows) == charpoly_int(rows), rows

    @settings(max_examples=300, deadline=None)
    @given(four_by_four())
    def test_same_as_leverrier_and_berkowitz(self, rows):
        assert _charpoly_4x4(rows) == charpoly_leverrier(rows) == charpoly_int(rows)


def dense_companion(chi, rng):
    """The companion matrix of the monic quartic chi, ascending, conjugated
    by unit shears."""
    return conjugated(companion(chi).to_rows(), shears(rng, 8))


def weil_4x4(rng, a1, a2, q):
    """A dense 4 x 4 matrix of chi = T^4 + a1 T^3 + a2 T^2 + q a1 T + q^2."""
    return dense_companion([q * q, q * a1, a2, a1, 1], rng)


@st.composite
def refused_or_weil_4x4(draw):
    """(rows, p, f): a dense 4 x 4 of the closed form's near-boundary
    (a1, a2), some with det or the functional equation broken by a change
    to chi's constant term or to its coefficient of T."""
    a1, a2, q = draw(genus_two_near_boundaries())
    p, f = next((p, f) for p, f in GENUS_TWO_FIELDS if p ** f == q)
    chi = [q * q, q * a1, a2, a1, 1]
    broken = draw(st.sampled_from([None, None, 0, 1]))
    if broken is not None:
        chi[broken] += draw(st.integers(-3, 3).filter(bool))
    return dense_companion(chi, random.Random(draw(st.integers(0, 2 ** 32)))), p, f


def av_with_block(rows, p, f):
    return {"kind": "av", "p": str(p), "f": str(f), "torus_rank": "1", "gram": [["2"]],
            "b_frobenius": [{"type": "matrix", "entries": [[str(x) for x in r] for r in rows]}]}


def build_exit(tmp_path, obj):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["build", str(path)])
    return code, err.getvalue()


class TestFourByFourCertificate:
    """A dense 4 x 4 block is certified from its minors and the closed
    form; verdict, chi and message must be those of the general certificate
    on the Hessenberg characteristic polynomial and the Sturm sequence."""

    @settings(max_examples=500, deadline=None)
    @given(refused_or_weil_4x4())
    def test_same_outcome_as_the_general_certificate(self, case):
        rows, p, f = case
        expected = certificate_outcome(certify_berkowitz, rows, p ** f)
        assert certificate_outcome(_certify, rows, p ** f) == expected
        assert blockwise_verdict(QMatrix.from_rows(rows), p, f) == expected

    def test_refused_blocks_name_the_failed_check_and_exit_2(self, tmp_path):
        rng = random.Random("refused 4x4")
        weil = weil_4x4(rng, -2, 11, 5)  # (T^2 - T + 5)^2
        cases = [
            ("det", dense_companion([24, -10, 11, -2, 1], rng)),
            ("functional equation", dense_companion([25, -11, 11, -2, 1], rng)),
            # h = x^2 - 2x + 2: roots 1 +- i are not real
            ("archimedean", weil_4x4(rng, -2, 12, 5)),
            # h = x^2 - 21: roots +-sqrt(21) lie outside [-2 sqrt(5), 2 sqrt(5)]
            ("archimedean", weil_4x4(rng, 0, -11, 5)),
            # (T - 1)(T - 5)(T^2 + 5): 1 and q are eigenvalues
            ("archimedean", weil_4x4(rng, -6, 10, 5)),
            ("det", [[0, 0, 0, -(10 ** 3999)], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        ]
        assert validate_weil(weil, 5).factors == ((25, -10, 11, -2, 1),)
        assert build_exit(tmp_path, av_with_block(weil, 5, 1))[0] == 0
        for check, rows in cases:
            assert len(weil_data._diagonal_blocks(QMatrix.from_rows(rows))) == 1
            with pytest.raises(WeilValidationError) as general:
                certify_berkowitz(rows, 5)
            message = str(general.value)
            assert check in message
            with pytest.raises(WeilValidationError) as short:
                validate_weil(rows, 5)
            assert str(short.value) == message
            code, err = build_exit(tmp_path, av_with_block(rows, 5, 1))
            assert code == 2 and message in err, (check, err)


def whole_verdict(m, p, f):
    """The certificate run on the whole matrix, as before blocks were
    split: ("ok", chi) or ("refused", message)."""
    return certificate_outcome(_certify, m.to_rows(), p ** f)


def blockwise_verdict(m, p, f):
    """validate_weil's verdict, with the product of its factors for chi."""
    try:
        w = validate_weil(m, p, f)
    except WeilValidationError as exc:
        return "refused", str(exc)
    return "ok", functools.reduce(poly_mul, w.factors, [1])


@st.composite
def block_diagonal(draw):
    """(m, p, f): blocks of sizes 1-4 on the diagonal, mostly near-Weil
    (companions of T^2 - aT + q with a around the Hasse bound, T^2 - q, the
    scalar p) with some random small ones; an odd total size gets one more
    1 x 1 block."""
    p, f = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2), (5, 2)]))
    q = p ** f
    edge = math.isqrt(4 * q)
    small = st.integers(-3, 3)
    kinds = {
        "companion": st.builds(lambda a: [[0, -q], [1, a]], st.integers(-edge - 1, edge + 1)),
        "minus_q": st.just([[0, q], [1, 0]]),
        "scalar": st.just([[p]]),
        "random": st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)),
    }
    weighted = ["companion"] * 4 + ["minus_q", "scalar", "random"]
    blocks = draw(st.lists(st.sampled_from(weighted).flatmap(kinds.get),
                           min_size=1, max_size=4))
    if sum(map(len, blocks)) % 2:
        blocks.append([[p]])
    return QMatrix.block_diag([QMatrix.from_rows(b) for b in blocks]), p, f


class TestBlockwiseCertificate:
    """validate_weil certifies each finest diagonal block and falls back to
    the whole matrix when one fails alone; its verdict and message must be
    those of the whole-matrix certificate."""

    @settings(max_examples=400, deadline=None)
    @given(block_diagonal())
    def test_same_verdict_as_the_whole_matrix(self, case):
        m, p, f = case
        verdict = blockwise_verdict(m, p, f)
        assert verdict == whole_verdict(m, p, f)
        if verdict[0] == "ok":
            # the kept blocks are the oracle's finest blocks, and sum to m
            w = validate_weil(m, p, f)
            assert w.blocks == finest_blocks(m.to_rows())
            assert dense_weil(w) == m

    def test_sum_of_non_weil_blocks_accepted(self):
        # T^2 - q has det -q alone; twice it is (T^2 - q)^2, Weil
        m = QMatrix.block_diag([QMatrix.from_rows([[0, 5], [1, 0]])] * 2)
        with pytest.raises(WeilValidationError, match="det"):
            validate_weil(QMatrix.from_rows([[0, 5], [1, 0]]), 5)
        assert validate_weil(m, 5).factors == ((25, 0, -10, 0, 1),)

    def test_scalar_p_at_f_2_accepted(self):
        # diag(p, p) at q = p^2: 1 x 1 blocks, Weil only together
        w = validate_weil([[3, 0], [0, 3]], 3, 2)
        assert w.factors == ((9, -6, 1),)
        # the blocks are kept all the same: two 1 x 1, one quadratic factor
        assert w.blocks == (QMatrix.from_rows([[3]]),) * 2

    def test_valid_block_beside_invalid_one(self):
        # [[0, -5], [1, 2]] is Weil at q = 5; [[0, -5], [1, 7]] breaks Hasse
        m = QMatrix.from_rows([[0, -5, 0, 0], [1, 2, 0, 0], [0, 0, 0, -5], [0, 0, 1, 7]])
        verdict = whole_verdict(m, 5, 1)
        assert verdict[0] == "refused" and "archimedean" in verdict[1]
        assert blockwise_verdict(m, 5, 1) == verdict

    def test_split_blocks_become_the_factors(self):
        m = QMatrix.from_rows([[0, -5, 0, 0], [1, 2, 0, 0], [0, 0, 0, -5], [0, 0, 1, 0]])
        w = validate_weil(m, 5)
        assert w.factors == ((5, -2, 1), (5, 0, 1))
        assert w.blocks == (QMatrix.from_rows([[0, -5], [1, 2]]),
                            QMatrix.from_rows([[0, -5], [1, 0]]))
        # a nonzero entry off the blocks joins them into one, kept as given
        joined = QMatrix.from_rows([[0, -5, 0, 0], [1, 2, 0, 0], [0, 0, 0, -5], [0, 1, 1, 0]])
        w = validate_weil(joined, 5)
        assert len(w.factors) == 1 and len(w.blocks) == 1 and w.blocks[0] is joined

    def test_empty_matrix_is_genus_0(self):
        # no block and no factor, as resolve_component gives a genus-0 source
        w = validate_weil(QMatrix(0, 0, ()), 5, 2)
        genus0 = resolve_component(None, 5, 2)
        assert w == genus0 and w.factors == genus0.factors == ()
        assert w.blocks == ()

    @pytest.mark.parametrize("seed", [7, 11])
    def test_fuzz_genus_2_sources(self, seed):
        sources = 0
        for inst in instance_stream(seed, 40):
            for src in inst.components.values():
                if isinstance(src, QMatrix) and src.rows == 4:
                    verdict = blockwise_verdict(src, inst.p, inst.f)
                    assert verdict == whole_verdict(src, inst.p, inst.f)
                    assert verdict[0] == "ok"
                    assert len(validate_weil(src, inst.p, inst.f).factors) == 2
                    sources += 1
        assert sources >= 10


class TestDirectSum:
    def test_empty(self):
        w = direct_sum([], 5, 1)
        assert w.size == 0

    def test_single(self):
        b = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))
        assert direct_sum([b], 5, 1).blocks == b.blocks

    def test_two_blocks(self):
        b1 = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))   # a = 2
        b2 = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))   # a = 0
        w = direct_sum([b1, b2], 5, 1)
        assert w.size == 4
        from phinmod.exact_linalg import det

        assert det(dense_weil(w)) == 25
        # the summands' block objects, side by side: no dense matrix
        assert w.blocks == b1.blocks + b2.blocks
        assert all(x is y for x, y in zip(w.blocks, b1.blocks + b2.blocks))

    def test_revalidation_accepts_generated_data(self):
        w = direct_sum(
            [
                frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0)),
                frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1)),
            ],
            5,
            1,
        )
        again = validate_weil(dense_weil(w), 5, 1)
        assert again == w
        assert again.blocks == w.blocks and again.factors == w.factors

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
            slopes = newton_slopes_sweep(char_poly(dense_weil(w)), p)
            assert slopes == sorted(1 - s for s in slopes)
