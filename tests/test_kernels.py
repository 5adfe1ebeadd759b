"""The kernels of ``phinmod._backend`` against independent oracles."""

import itertools
import random
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phinmod import _backend
from phinmod.exact_linalg import is_prime

from oracles import count_points_euler, count_points_xy


def random_matrix(rng, n, m=None, lo=-20, hi=20):
    m = n if m is None else m
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def random_curve(rng, p):
    while True:
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
            return a4, a6


def first_walk_point(p, a4, a6):
    """The first point of the count's walk, (x*c, c^2) for the least x with
    c = x^3 + a4*x + a6 != 0, and the a4*c^2 of its curve."""
    x = next(x for x in range(p) if (x ** 3 + a4 * x + a6) % p)
    c = (x ** 3 + a4 * x + a6) % p
    return (x * c % p, c * c % p), a4 * c * c % p


def point_order(pt, a, p, bound):
    """The order of pt if it is at most bound, else None, by adding pt to
    itself."""
    acc = pt
    for n in range(1, bound + 1):
        if acc is None:
            return n
        acc = _backend._add(acc, pt, a, p)
    return None


def hasse_interval(p):
    width = isqrt(4 * p)
    return p + 1 - width, p + 1 + width


def first_baby_count(p):
    """The s of ``_annihilators`` at the walk's first point: m = 1, so the
    candidates are low + t for 0 <= t <= top = 2*isqrt(4p), and s =
    isqrt(top // 2) + 1."""
    return isqrt(isqrt(4 * p)) + 1


PRIMES_TO_10K = [n for n in range(230, 10 ** 4 + 1) if is_prime(n)]


class TestShanksMestre:
    """Point counts above the Mestre bound come from baby-step giant-step on
    E and its twist; the O(p^2) double loop and an Euler-criterion
    character sum are the oracles."""

    def test_every_prime_across_the_bound(self):
        rng = random.Random(20)
        primes = [p for p in range(227, 1001) if is_prime(p)]
        assert primes[:3] == [227, 229, 233] and _backend.MESTRE_BOUND == 229
        for p in primes:
            a4, a6 = random_curve(rng, p)
            n = count_points_xy(p, a4, a6)
            assert _backend.count_points(p, a4, a6) == n == count_points_euler(p, a4, a6)

    @pytest.mark.parametrize("p", [233, 241])
    def test_dense_sweep_above_the_bound(self, p):
        # Every a4 and a spread of a6: reaches the curves whose walk meets
        # points of small order, which sparse random draws rarely do.
        for a4 in range(p):
            for a6 in range(a4 % 7, p, 7):
                if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
                    assert _backend.count_points(p, a4, a6) == count_points_euler(p, a4, a6)

    @pytest.mark.parametrize("p, a4, a6, n", [(9967, 1, 0, 9968), (9941, 0, 1, 9942)])
    def test_supersingular_near_the_point_bound(self, p, a4, a6, n):
        # p = 3 mod 4 for y^2 = x^3 + x and p = 2 mod 3 for y^2 = x^3 + 1:
        # both curves are supersingular, so #E = p + 1
        assert _backend.count_points(p, a4, a6) == n

    def test_counts_decided_on_the_twist(self, monkeypatch):
        # The deciding call returns a single order k: #E when the walk
        # decided on E, #E' = 2p + 2 - #E on the twist.  Where #E != #E'
        # the two cases are told apart.
        last = []
        annihilators = _backend._annihilators

        def recording(*args):
            ks = annihilators(*args)
            last[:] = ks
            return ks

        monkeypatch.setattr(_backend, "_annihilators", recording)
        rng = random.Random(21)
        on_twist = 0
        for p in (233, 239, 241, 251, 257, 307, 401):
            for _ in range(12):
                a4, a6 = random_curve(rng, p)
                n = _backend.count_points(p, a4, a6)
                if last == [2 * p + 2 - n] != [n]:
                    on_twist += 1
                    assert n == count_points_xy(p, a4, a6)
        assert on_twist >= 20

    # Curves whose first walk point has order 2s + 1 or 2s, found by search.
    # That point's multiples in the Hasse interval are those of its order;
    # the later points of the walk, stepped as Q = m*pt, decide the count.
    @pytest.mark.parametrize("p, a4, a6", [
        (239, 5, 15), (251, 3, 3), (251, 23, 23), (293, 7, 27),
        (9221, 2399, 4853), (9277, 773, 2808),
    ])
    def test_walk_point_of_order_2s_plus_1(self, p, a4, a6):
        # the giant stride S = (2s + 1)*Q is O, and the order is read off it
        s = first_baby_count(p)
        pt, a = first_walk_point(p, a4, a6)
        assert point_order(pt, a, p, 2 * s + 1) == 2 * s + 1
        low, high = hasse_interval(p)
        ks = _backend._annihilators(pt, a, p, 1, low, high)
        assert ks == [k for k in range(low, high + 1) if k % (2 * s + 1) == 0]
        assert _backend.count_points(p, a4, a6) == count_points_euler(p, a4, a6)

    @pytest.mark.parametrize("p, a4, a6", [
        (233, 4, 27), (239, 2, 33), (9623, 63, 8099), (9151, 130, 4061),
    ])
    def test_walk_point_of_order_2s(self, p, a4, a6):
        # s*Q = -s*Q has y = 0 at the last baby step, so no x repeats and a
        # giant step that lands on it matches both signs
        s = first_baby_count(p)
        pt, a = first_walk_point(p, a4, a6)
        assert point_order(pt, a, p, 2 * s + 1) == 2 * s
        assert _backend._mul(s, pt, a, p)[1] == 0
        low, high = hasse_interval(p)
        ks = _backend._annihilators(pt, a, p, 1, low, high)
        assert ks == [k for k in range(low, high + 1) if k % (2 * s) == 0]
        assert _backend.count_points(p, a4, a6) == count_points_euler(p, a4, a6)

    @pytest.mark.parametrize("p, a4, a6, ms", [
        (5743, 1301, 1392, [1, 1, 96]), (6701, 4212, 3889, [1, 54]),
        (5647, 5123, 2093, [1, 275]), (9601, 4451, 8297, [1, 32]),
    ])
    def test_count_decided_at_m_above_1(self, p, a4, a6, ms, monkeypatch):
        # the deciding point is stepped as Q = m*pt, m the lcm of the orders
        # of the earlier points of its group
        seen = []
        annihilators = _backend._annihilators

        def recording(pt, a, p, m, low, high):
            seen.append(m)
            return annihilators(pt, a, p, m, low, high)

        monkeypatch.setattr(_backend, "_annihilators", recording)
        assert _backend.count_points(p, a4, a6) == count_points_euler(p, a4, a6)
        assert seen == ms

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(PRIMES_TO_10K), st.integers(0, 10 ** 4), st.integers(0, 10 ** 4))
    def test_random_curves_against_euler(self, p, a4, a6):
        a4, a6 = a4 % p, a6 % p
        assume((4 * a4 ** 3 + 27 * a6 ** 2) % p)
        assert _backend.count_points(p, a4, a6) == count_points_euler(p, a4, a6)


class TestLargerSizes:
    """Cross-validate the kernels at sizes beyond the cofactor oracle's
    reach, and stress the exact divisions of Bareiss elimination on
    structured rank-deficient input."""

    def test_charpoly_against_leverrier(self):
        from oracles import charpoly_leverrier

        rng = random.Random(10)
        for n in (8, 10, 12):
            rows = random_matrix(rng, n, lo=-15, hi=15)
            assert _backend.charpoly_int(rows) == charpoly_leverrier(rows)

    def test_rank_of_products(self):
        from oracles import det_gauss, rank_gauss

        rng = random.Random(11)
        for _ in range(60):
            n, inner, m = rng.randint(2, 8), rng.randint(0, 4), rng.randint(2, 8)
            b = random_matrix(rng, n, inner, lo=-5, hi=5)
            c = random_matrix(rng, inner, m, lo=-5, hi=5)
            prod = [
                [sum(b[i][t] * c[t][j] for t in range(inner)) for j in range(m)]
                for i in range(n)
            ]
            r = _backend.rank_int(prod)
            assert r <= inner
            assert r == rank_gauss(prod)
            if n == m:
                assert _backend.det_int(prod) == det_gauss(prod)

    def test_rank_with_zero_columns(self):
        from oracles import rank_gauss

        rng = random.Random(12)
        for _ in range(40):
            n, m = rng.randint(1, 7), rng.randint(2, 7)
            rows = random_matrix(rng, n, m, lo=-4, hi=4)
            for i in range(n):  # kill a couple of columns entirely
                rows[i][0] = 0
                rows[i][m // 2] = 0
            assert _backend.rank_int(rows) == rank_gauss(rows)

    def test_det_alternating_with_leverrier_constant(self):
        from oracles import charpoly_leverrier

        rng = random.Random(13)
        for n in (6, 9):
            rows = random_matrix(rng, n, lo=-20, hi=20)
            det = _backend.det_int(rows)
            assert charpoly_leverrier(rows)[0] == (-1) ** n * det


class TestBareiss:
    """The one elimination pass, whose pivots det_int, rank_int and the
    positive-definiteness test read: against leading minors computed one by
    one by dividing Gaussian elimination over Fraction, the determinants
    the Sylvester oracle of test_exact_linalg takes."""

    def test_pivots_are_the_leading_minors_without_exchange(self):
        from oracles import det_gauss

        rng = random.Random(30)
        exchanged = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = random_matrix(rng, n, lo=-3, hi=3)
            minors = [det_gauss([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
            pivots, swaps = _backend.bareiss(rows)
            if all(minors):
                assert (pivots, swaps) == (tuple(minors), 0)
            else:
                # a zero leading minor forces an exchange or a skipped column
                assert swaps > 0 or len(pivots) < n
                exchanged += 1
        assert exchanged >= 30

    def test_zero_columns_are_skipped(self):
        # column 0 is zero: skipped; column 1 exchanges rows 0 and 1 and
        # pivots on 2; the last pivot is the minor of rows (1, 0) and
        # columns (1, 2), det [[2, 1], [0, 3]] = 6
        assert _backend.bareiss([[0, 0, 3], [0, 2, 1]]) == ((2, 6), 1)
        assert _backend.bareiss([[0, 1], [0, 2]]) == ((1,), 0)
        assert _backend.bareiss([[0, 0], [0, 0]]) == ((), 0)
        assert _backend.bareiss([]) == ((), 0)

    def test_determinant_sign_follows_the_exchanges(self):
        from oracles import det_gauss

        assert _backend.bareiss([[0, 1], [1, 0]]) == ((1, 1), 1)
        assert _backend.det_int([[0, 1], [1, 0]]) == -1
        rng = random.Random(33)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = random_matrix(rng, n, lo=-2, hi=2)
            assert _backend.det_int(rows) == det_gauss(rows)


class TestPureKernelProperties:
    def test_empty_matrix(self):
        assert _backend.det_int([]) == 1
        assert _backend.charpoly_int([]) == [1]

    def test_rank_of_zero_matrix(self):
        assert _backend.rank_int([[0, 0], [0, 0]]) == 0

    def test_charpoly_monic(self):
        rng = random.Random(6)
        for n in range(1, 6):
            rows = random_matrix(rng, n)
            coeffs = _backend.charpoly_int(rows)
            assert len(coeffs) == n + 1
            assert coeffs[-1] == 1
            # trace and determinant read off the ends
            trace = sum(rows[i][i] for i in range(n))
            assert coeffs[-2] == -trace
            assert coeffs[0] == (-1) ** n * _backend.det_int(rows)


EXTREMES = [0, 1, -1, 2, -(10 ** 1000), 10 ** 1000 + 7, 2 ** 4000 - 1, -(3 ** 2000)]


class TestCharpolyClosedForms:
    """Berkowitz at n = 0, 1, 2 gives the closed forms 1, T - a and
    T^2 - tr*T + det; the Faddeev-LeVerrier trace recursion over Fraction
    is the oracle."""

    def test_random_entries(self):
        from oracles import charpoly_leverrier

        rng = random.Random(40)
        assert _backend.charpoly_int([]) == charpoly_leverrier([]) == [1]
        for n in (1, 2):
            for _ in range(200):
                rows = random_matrix(rng, n, lo=-50, hi=50)
                assert _backend.charpoly_int(rows) == charpoly_leverrier(rows)

    def test_extreme_entries(self):
        from oracles import charpoly_leverrier

        for x in EXTREMES:
            assert _backend.charpoly_int([[x]]) == charpoly_leverrier([[x]])
        rng = random.Random(41)
        cases = [[[a, b], [c, d]] for a, b, c, d in itertools.product(EXTREMES[:4], repeat=4)]
        cases += [[rng.sample(EXTREMES, 2), rng.sample(EXTREMES, 2)] for _ in range(100)]
        for rows in cases:
            assert _backend.charpoly_int(rows) == charpoly_leverrier(rows)


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out, k = [], 0
    for b in blocks:
        for r in b:
            out.append([0] * k + list(r) + [0] * (n - k - len(r)))
        k += len(b)
    return out


def skip_cases():
    """Matrices where many multipliers are 0: identities, permutations,
    block-diagonal sums, sparse and rank-deficient ones, with and without
    row exchanges."""
    rng = random.Random(42)
    for n in range(0, 25):
        yield [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(60):
        n = rng.randint(1, 9)
        perm = rng.sample(range(n), n)
        yield [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(150):
        blocks = [
            random_matrix(rng, k, lo=-2, hi=2) if rng.random() < 0.5
            else [[int(i == j) for j in range(k)] for i in range(k)]
            for k in (rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        ]
        rows = block_diagonal(blocks)
        rng.shuffle(rows)
        yield rows
    for _ in range(300):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])  # a repeated row
        yield rows


class TestBareissZeroSkip:
    """bareiss leaves a row with a zero multiplier alone when the pivot
    equals the previous one; the same pass updating every row is the
    oracle, and pivots and exchanges must agree."""

    def test_against_unskipped_pass(self):
        from oracles import bareiss_unskipped, rank_gauss

        seen = {"identity": 0, "exchange": 0, "deficient": 0}
        for rows in skip_cases():
            copy = [list(r) for r in rows]
            pivots, swaps = _backend.bareiss(rows)
            assert (pivots, swaps) == bareiss_unskipped(rows)
            assert rows == copy  # the input is not modified
            assert len(pivots) == rank_gauss(rows)
            seen["identity"] += pivots == (1,) * len(rows) and swaps == 0
            seen["exchange"] += swaps > 0
            seen["deficient"] += len(pivots) < min(len(rows), len(rows[0]) if rows else 0)
        assert min(seen.values()) >= 20


def symmetric_of(upper):
    """The symmetric matrix whose entries (i, j >= i) are upper[i][j - i],
    0 past the end of a short row."""
    n = len(upper)
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(upper):
        for t, x in enumerate(row):
            rows[i][i + t] = rows[i + t][i] = x
    return rows


def banded(rng, n, width, lo=-3, hi=3, diagonal=0):
    """A symmetric matrix with nonzero entries only within ``width`` of the
    diagonal, ``diagonal`` added to each diagonal entry."""
    return symmetric_of([
        [rng.randint(lo, hi) + (diagonal if t == 0 else 0) if t <= width else 0
         for t in range(n - i)]
        for i in range(n)
    ])


def gram_plus_identity(rng, n, k, lo=-3, hi=3):
    """B B^T + I for a random n x k integer B: positive definite."""
    b = random_matrix(rng, n, k, lo, hi)
    return [[sum(x * y for x, y in zip(b[i], b[j])) + (i == j) for j in range(n)]
            for i in range(n)]


def symmetric_cases():
    """(kind, rows) of seeded symmetric matrices: positive definite ones,
    indefinite ones, tridiagonal, banded and block-diagonal ones, and
    sparse ones, which often have a zero leading minor."""
    rng = random.Random(55)
    for _ in range(150):
        yield "definite", gram_plus_identity(rng, rng.randint(0, 8), rng.randint(0, 8))
    for _ in range(300):
        n = rng.randint(1, 8)
        yield "arbitrary", symmetric_of([random_matrix(rng, 1, n - i, -9, 9)[0] for i in range(n)])
    for _ in range(200):
        n = rng.randint(1, 8)
        yield "sparse", symmetric_of(
            [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n - i)] for i in range(n)])
    for n in (1, 2, 5, 30, 60):
        yield "tridiagonal", banded(rng, n, 1, diagonal=0)
        yield "tridiagonal", symmetric_of([[2, -1][:n - i] for i in range(n)])
    for _ in range(40):
        n = rng.randint(2, 25)
        yield "banded", banded(rng, n, rng.randint(1, 4), diagonal=rng.choice((0, 12)))
    for _ in range(40):
        # rows of a later block are left alone for many steps
        blocks = [gram_plus_identity(rng, k, rng.randint(0, 3)) if rng.random() < 0.7
                  else [[int(i == j) for j in range(k)] for i in range(k)]
                  for k in (rng.randint(1, 5) for _ in range(rng.randint(1, 5)))]
        yield "block-diagonal", block_diagonal(blocks)


class TestBareissSymmetric:
    """The symmetric pass, on the upper triangle and its fill, returns the
    pivots and exchanges of bareiss, and of the same pass updating every
    row, whenever every leading principal minor is nonzero, and None
    otherwise; the matrix then eliminated by bareiss gives det, rank and
    the positive-definiteness test of the oracles."""

    @staticmethod
    def check(rows) -> bool:
        """Whether the symmetric pass decided ``rows``; asserts it agrees."""
        from oracles import bareiss_unskipped

        copy = [list(r) for r in rows]
        result = _backend.bareiss_symmetric(rows)
        assert rows == copy  # the input is not modified
        expected = _backend.bareiss(rows)
        assert expected == bareiss_unskipped(rows)
        if result is None:
            # a zero leading minor: bareiss exchanges rows or skips a column
            assert expected[1] > 0 or len(expected[0]) < len(rows)
            return False
        assert result == expected
        return True

    def test_against_bareiss_and_unskipped_pass(self):
        from oracles import det_gauss, positive_definite_sylvester, rank_gauss

        from phinmod.exact_linalg import QMatrix, det, is_positive_definite, rank

        decided = {}
        fell_back = {}
        for kind, rows in symmetric_cases():
            if self.check(rows):
                decided[kind] = decided.get(kind, 0) + 1
                continue
            fell_back[kind] = fell_back.get(kind, 0) + 1
            m = QMatrix.from_rows(rows)
            assert det(m) == det_gauss(rows)
            assert rank(m) == rank_gauss(rows)
            # a zero leading minor: not positive definite, by either test
            assert not is_positive_definite(m) and not positive_definite_sylvester(rows)
        assert decided["definite"] == 150
        assert decided["arbitrary"] >= 100 and decided["sparse"] >= 20
        assert fell_back["arbitrary"] >= 20 and fell_back["sparse"] >= 50
        assert decided["banded"] >= 10 and decided["block-diagonal"] >= 10
        assert decided["tridiagonal"] >= 5

    def test_indefinite_with_nonzero_minors(self):
        # minors 1, -3, -4: decided by the symmetric pass, and not positive
        # definite
        from phinmod.exact_linalg import QMatrix, is_positive_definite

        rows = [[1, 2, 0], [2, 1, 2], [0, 2, 0]]
        assert _backend.bareiss_symmetric(rows) == ((1, -3, -4), 0) == _backend.bareiss(rows)
        assert not is_positive_definite(QMatrix.from_rows(rows))

    def test_zero_leading_minor(self):
        assert _backend.bareiss_symmetric([[0, 1], [1, 0]]) is None
        assert _backend.bareiss_symmetric([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) is None
        assert _backend.bareiss_symmetric([[0]]) is None
        assert _backend.bareiss_symmetric([]) == ((), 0) == _backend.bareiss([])

    def test_bouquet_identity(self):
        # the Gram matrix of a 400-loop bouquet: no row is ever visited
        rows = [[int(i == j) for j in range(400)] for i in range(400)]
        assert _backend.bareiss_symmetric(rows) == ((1,) * 400, 0) == _backend.bareiss(rows)

    def test_long_tridiagonal(self):
        # the 2, -1 tridiagonal matrix of order n has leading minors k + 1
        n = 300
        rows = symmetric_of([[2, -1][:n - i] for i in range(n)])
        assert _backend.bareiss_symmetric(rows) == (tuple(range(2, n + 2)), 0)

    def test_grams_of_instances_and_fuzz(self):
        from conftest import INSTANCE_DIR

        from phinmod.builders import CurveInstance, jacobian_data
        from phinmod.fuzz import instance_stream
        from phinmod.io_formats import load_instance

        insts = [load_instance(str(path)) for path in sorted(INSTANCE_DIR.glob("*.json"))]
        insts += instance_stream(7, 40)
        for inst in insts:
            u = jacobian_data(inst) if isinstance(inst, CurveInstance) else inst
            # every Gram is positive definite, so the symmetric pass decides it
            assert self.check(u.gram.to_rows())
