import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phinmod.exact_linalg
from phinmod.errors import SchemaError, ValidationError
from phinmod.exact_linalg import (
    PRIME_BOUND,
    QMatrix,
    _hull_segments,
    _valuation,
    char_poly,
    det,
    is_positive_definite,
    is_prime,
    rank,
)
from phinmod.io_formats import matrix_from_strings
from phinmod.weil_data import MAX_ENTRY_DIGITS

from oracles import (
    add,
    charpoly_cofactor,
    charpoly_hessenberg,
    det_gauss,
    identity,
    is_prime_trial,
    is_zero,
    newton_slopes_sweep,
    positive_definite_sylvester,
    rank_gauss,
    scalar,
    scale,
    valuation,
    zeros,
)

int_entries = st.integers(min_value=-9, max_value=9)


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestCharPoly:
    def test_zero_2x2(self):
        assert char_poly(zeros(2, 2)) == [0, 0, 1]

    def test_identity_2x2(self):
        assert char_poly(identity(2)) == [1, -2, 1]

    def test_companion_hand_expansion(self):
        # det(T*I - [[0,-5],[1,2]]) = T(T-2) + 5 = T^2 - 2T + 5
        assert char_poly(QMatrix.from_rows([[0, -5], [1, 2]])) == [5, -2, 1]

    def test_empty_matrix(self):
        assert char_poly(QMatrix(0, 0, ())) == [1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(zeros(2, 3))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_matches_cofactor_oracle(self, rows):
        assert char_poly(QMatrix.from_rows(rows)) == charpoly_cofactor(rows)

    @settings(max_examples=40, deadline=None)
    @given(square_matrices())
    def test_cayley_hamilton(self, rows):
        m = QMatrix.from_rows(rows)
        coeffs = char_poly(m)
        acc = zeros(m.rows, m.cols)
        power = identity(m.rows)
        for c in coeffs:
            acc = add(acc, scale(power, c))
            power = power @ m
        assert is_zero(acc)


class TestCharpolyHessenberg:
    """The oracle's Hessenberg characteristic polynomial against its
    cofactor expansion: zero, singular and random matrices, n <= 5."""

    def test_matches_cofactor_oracle(self):
        rng = random.Random(24)
        cases = [[[0] * n for _ in range(n)] for n in range(6)]
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:  # a repeated row: singular
                rows[-1] = list(rows[0])
            cases.append(rows)
        for rows in cases:
            assert charpoly_hessenberg(rows) == charpoly_cofactor(rows), rows


def integer_matrices(max_n=4, square=True):
    """Integer matrices, square or not, whose rows may repeat (so singular
    and rank-deficient ones are common)."""
    return st.integers(1, max_n).flatmap(
        lambda r: (st.just(r) if square else st.integers(1, max_n)).flatmap(
            lambda c: st.lists(
                st.sampled_from([[0] * c, [2] * c])
                | st.lists(int_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


class TestElimination:
    """det, rank and is_positive_definite read one cached Bareiss pass on the
    rows of the matrix."""

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_det_against_gauss(self, rows):
        assert det(QMatrix.from_rows(rows)) == det_gauss(rows)

    @settings(max_examples=150, deadline=None)
    @given(integer_matrices(square=False))
    def test_rank_against_gauss(self, rows):
        assert rank(QMatrix.from_rows(rows)) == rank_gauss(rows)

    def test_det_of_exchanged_rows(self):
        m = QMatrix.from_rows([[0, 3], [2, 6]])
        assert m.elimination == ((2, 6), 1)
        assert det(m) == -6
        assert rank(m) == 2
        assert det(QMatrix(0, 0, ())) == 1 and rank(zeros(2, 0)) == 0

    def test_each_matrix_is_eliminated_once(self, monkeypatch):
        # one kernel call per matrix, whichever of the two eliminates it
        calls = []
        for name in ("bareiss", "bareiss_symmetric"):
            kernel = getattr(phinmod.exact_linalg, name)

            def counted(rows, kernel=kernel):
                calls.append((kernel.__name__, rows))
                return kernel(rows)

            monkeypatch.setattr(phinmod.exact_linalg, name, counted)
        m = QMatrix.from_rows([[2, 1], [1, 2]])
        assert (is_positive_definite(m), rank(m), det(m)) == (True, 2, 3)
        assert det(m) == 3 and rank(m) == 2
        assert calls == [("bareiss_symmetric", [[2, 1], [1, 2]])]
        # equal entries, distinct object: eliminated on its own
        assert det(QMatrix.from_rows([[2, 1], [1, 2]])) == 3
        assert len(calls) == 2
        # a matrix that is not symmetric goes to the general pass alone
        m = QMatrix.from_rows([[1, 2], [3, 4]])
        assert (is_positive_definite(m), rank(m), det(m)) == (False, 2, -2)
        assert calls[2:] == [("bareiss", [[1, 2], [3, 4]])]


class TestRank:
    def test_zero(self):
        assert rank(zeros(3, 3)) == 0

    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_proportional_rows(self):
        assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.integers(1, 5).flatmap(
                lambda c: st.lists(
                    st.lists(int_entries, min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
    )
    def test_rank_nullity_against_gauss(self, rows):
        m = QMatrix.from_rows(rows)
        r = rank(m)
        # dividing elimination fixes the nullity independently of Bareiss
        nullity = m.cols - rank_gauss(rows)
        assert r + nullity == m.cols


class TestValuation:
    def test_integer(self):
        assert _valuation(50, 5) == 2

    def test_negative(self):
        assert _valuation(-250, 5) == 3
        assert _valuation(-7, 5) == 0

    def test_uniformizer(self):
        for p in (2, 3, 5, 97):
            assert _valuation(p, p) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30).filter(bool), st.sampled_from([2, 3, 5, 7]))
    def test_matches_division_oracle(self, x, p):
        assert _valuation(x, p) == valuation(x, p)


def hull_slopes(coeffs, p):
    """The slope multiset of the hull segments (dy, dx): dx roots of
    valuation dy / dx each, ascending."""
    return sorted(Fraction(dy, dx) for dy, dx in _hull_segments(coeffs, p) for _ in range(dx))


class TestNewtonPolygon:
    def test_ordinary_quadratic(self):
        # roots 1 and 5
        assert _hull_segments([5, -6, 1], 5) == [(0, 1), (1, 1)]

    def test_supersingular_quadratic(self):
        assert _hull_segments([5, 0, 1], 5) == [(1, 2)]

    def test_unit_roots(self):
        # (T-1)^3
        assert _hull_segments([-1, 3, -3, 1], 7) == [(0, 3)]

    def test_degree_zero(self):
        assert _hull_segments([1], 5) == []

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            _hull_segments([0, 1, 1], 5)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    def test_segments_strictly_rising(self, p, data):
        # coefficients of assorted p-adic valuations, constant term nonzero
        coeff = st.builds(lambda u, k: u * p ** k, st.integers(-50, 50), st.integers(0, 6))
        middle = data.draw(st.lists(coeff, max_size=8))
        coeffs = [data.draw(coeff.filter(bool))] + middle + [1]
        segments = _hull_segments(coeffs, p)
        slopes = [Fraction(dy, dx) for dy, dx in segments]
        assert all(a < b for a, b in zip(slopes, slopes[1:]))
        assert all(dx > 0 for _, dx in segments)
        assert sum(dx for _, dx in segments) == len(middle) + 1
        assert hull_slopes(coeffs, p) == newton_slopes_sweep(coeffs, p)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(4), st.sampled_from([2, 3, 5, 7]))
    def test_matches_sweep_oracle_and_det(self, rows, p):
        m = QMatrix.from_rows(rows)
        if det(m) == 0:
            return
        coeffs = char_poly(m)
        assert hull_slopes(coeffs, p) == newton_slopes_sweep(coeffs, p)
        # total slope mass equals the valuation of the determinant
        assert sum(dy for dy, _ in _hull_segments(coeffs, p)) == valuation(det(m), p)
        assert sum(dx for _, dx in _hull_segments(coeffs, p)) == m.rows


class TestQMatrix:
    def test_block_diag(self):
        m = QMatrix.block_diag([identity(1), scalar(2, 5)])
        assert m.to_rows() == [[1, 0, 0], [0, 5, 0], [0, 0, 5]]

    def test_matmul_identity(self):
        m = QMatrix.from_rows([[1, 2], [3, 4]])
        assert m @ identity(2) == m

    def test_positive_definite(self):
        assert is_positive_definite(QMatrix.from_rows([[2, 1], [1, 2]]))
        assert not is_positive_definite(QMatrix.from_rows([[0, 1], [1, 2]]))
        assert not is_positive_definite(QMatrix.from_rows([[1, 2], [3, 4]]))

    def test_from_rows_takes_ints_only(self):
        big = 10 ** 40
        rows = [[1, big], [-3, 0]]
        m = QMatrix.from_rows(rows)
        assert m.entries == (1, big, -3, 0) and m.entries[1] is big
        # an integral Fraction, a bool or a float is refused like 1/2
        for bad in (Fraction(4, 2), Fraction(1, 2), "3", 2.0, True, False, None):
            with pytest.raises(ValidationError, match="^matrix entries must be integers$"):
                QMatrix.from_rows([[7, bad]])
        with pytest.raises(ValueError, match="^ragged rows$"):
            QMatrix.from_rows([[1, 2], [3]])
        assert QMatrix.from_rows([]) == QMatrix(0, 0, ())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.just([]),
        square_matrices(4),
        st.integers(1, 3).flatmap(lambda n: st.lists(
            st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=n, max_size=n),
            min_size=n, max_size=n)),
    ), max_size=4))
    def test_block_diag_matches_per_entry(self, blocks):
        mats = [QMatrix.from_rows(b) if b else QMatrix(0, 0, ()) for b in blocks]
        d = sum(len(b) for b in blocks)
        rows = [[0] * d for _ in range(d)]
        r0 = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    rows[r0 + i][r0 + j] = x
            r0 += len(b)
        expected = QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())
        got = QMatrix.block_diag(mats)
        assert got == expected
        assert [type(x) for x in got.entries] == [type(x) for x in expected.entries]


_digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.integers(1, MAX_ENTRY_DIGITS).flatmap(
        lambda k: st.integers(10 ** (k - 1), 10 ** k - 1).map(str)),
)
_entries = st.builds(lambda sign, a: sign + a, st.sampled_from(["", "+", "-"]), _digits)


class TestEntryParsing:
    """Matrix entries are decimal integers, each read to an ``int`` without
    a ``Fraction`` being built; any other text, "a/b" included, is refused
    naming the field."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_entries, min_size=1, max_size=4))
    @example(["-0", "+0", "007", "-0010", "9" * MAX_ENTRY_DIGITS])
    def test_values_and_types_match_int(self, row):
        got = matrix_from_strings([row], "m").entries
        assert list(got) == [int(s) for s in row]
        assert {type(x) for x in got} == {int}

    @pytest.mark.parametrize("entry", ["1_000", " 7", "7\n", "\u0663", "1/0", "1/2", "4/2",
                                       "0/7", "-10/2", "1e3", "1.0"])
    def test_refused_naming_field(self, entry):
        with pytest.raises(SchemaError, match="field 'gram' has a bad entry"):
            matrix_from_strings([["1", entry]], "gram")

    def test_integer_matrix_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built")

        rows = [[str((i * 10 + j) * (-1) ** j * 10 ** 30) for j in range(10)] for i in range(10)]
        monkeypatch.setattr(Fraction, "__new__", refuse)
        with pytest.raises(AssertionError):
            Fraction(1, 2)
        m = matrix_from_strings(rows, "m")
        monkeypatch.undo()
        assert m.to_rows() == [[int(x) for x in r] for r in rows]


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Symmetric integer matrices of size 0..max_n: arbitrary, Gram matrices
    B B^T (positive semidefinite, singular when B has fewer columns than
    rows) and B B^T + I (positive definite)."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["arbitrary", "gram", "gram+I"]))
    if kind == "arbitrary":
        upper = draw(st.lists(int_entries, min_size=n * n, max_size=n * n))
        return [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    k = draw(st.integers(0, max_n))
    b = draw(st.lists(st.lists(int_entries, min_size=k, max_size=k), min_size=n, max_size=n))
    shift = 1 if kind == "gram+I" else 0
    return [
        [sum(x * y for x, y in zip(b[i], b[j])) + (shift if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


class TestPositiveDefinite:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices())
    def test_matches_per_minor_sylvester(self, rows):
        assert is_positive_definite(QMatrix.from_rows(rows) if rows else QMatrix(0, 0, ())) == (
            positive_definite_sylvester(rows)
        )

    def test_edge_cases(self):
        assert is_positive_definite(QMatrix(0, 0, ()))
        # semidefinite: minors 1, 0
        assert not is_positive_definite(QMatrix.from_rows([[1, 1], [1, 1]]))
        # indefinite with a positive leading minor
        assert not is_positive_definite(QMatrix.from_rows([[1, 2], [2, 1]]))
        # the third leading minor is negative, the first two positive
        assert not is_positive_definite(QMatrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 0]]))
        assert is_positive_definite(QMatrix.from_rows([[1, 0], [0, 3]]))


class TestIsPrime:
    def test_matches_trial_division(self):
        assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == [
            n for n in range(-3, 10 ** 5) if is_prime_trial(n)
        ]

    def test_strong_pseudoprimes_rejected(self):
        # the least strong pseudoprime to the first k prime bases, k = 1..12
        # (OEIS A014233): each needs one base more than the smaller n do
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n)

    def test_large_primes(self):
        for n in (1000000007, 1000000000000000003, 2 ** 61 - 1, 2 ** 31 - 1):
            assert is_prime(n)
        assert not is_prime((2 ** 31 - 1) * 1000000007)

    def test_bound_refused_naming_p(self):
        # just below the bound n is decided, not refused
        assert is_prime(PRIME_BOUND - 1) is False
        for n in (PRIME_BOUND, PRIME_BOUND + 1, 10 ** 30):
            with pytest.raises(ValidationError, match="field 'p'"):
                is_prime(n)

    def test_large_p_time_budget(self):
        t0 = time.perf_counter()
        for _ in range(100):
            assert is_prime(1000000000000000003)
        assert time.perf_counter() - t0 < 1.0
