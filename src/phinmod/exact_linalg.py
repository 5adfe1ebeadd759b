"""Exact linear algebra on integer matrices, and exact slopes.

A :class:`QMatrix` holds Python ``int`` entries only: :meth:`QMatrix.from_rows`
refuses any other type, so every matrix that comes from outside the program
is tested for integrality there, once.  Its kernels run on the integer rows
via :mod:`phinmod._backend`.  Determinant, rank and the positive-definiteness
test all read one fraction-free elimination pass, cached on the (immutable)
matrix as :attr:`QMatrix.elimination`, so each matrix is eliminated at most
once.  The pass is the symmetric one, on the upper triangle and its fill,
when the matrix is symmetric and its leading principal minors are nonzero,
as a positive definite Gram matrix's are; the symmetry test is made once
per matrix too.

Slopes of Newton polygons and their totals are the only fractional
values, and each is kept as the pair of ``int`` (num, den) in lowest terms,
den >= 1 and the sign on num: an integer slope n is (n, 1).  No floating
point enters this module.
"""

from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from itertools import chain

from ._backend import bareiss, bareiss_symmetric, charpoly_int
from ._record import Record
from .errors import ValidationError, clipped


# (base, bound): Miller-Rabin to every prime base up to and including
# ``base`` is exact for all n below ``bound``, the least strong pseudoprime
# to those bases (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2015).
_MILLER_RABIN = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)
PRIME_BOUND = _MILLER_RABIN[-1][1]


@lru_cache(maxsize=1)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, to as many prime bases as
    n needs.

    Every prime this package tests is an input p, and the thirteen bases
    decide primality only below PRIME_BOUND (about 3.3e24), so n at or above
    it is refused with a ValidationError naming the field ``p``.  The last
    answer is kept, so a request's later tests of its one p are lookups.
    """
    if n >= PRIME_BOUND:
        raise ValidationError(
            f"field 'p' = {clipped(n)} is not below {PRIME_BOUND}, the bound of the "
            f"exact primality test"
        )
    if n < 2:
        return False
    for b, _ in _MILLER_RABIN:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b, bound in _MILLER_RABIN:
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    return True


class QMatrix(Record):
    """Immutable integer matrix, row-major.

    The constructor takes a tuple of ``int`` as it is; :meth:`from_rows`
    tests that every entry is one.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows x cols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        entries = tuple(chain.from_iterable(rows))
        # one type test per matrix; a bool is not an int here
        if not set(map(type, entries)) <= {int}:
            raise ValidationError("matrix entries must be integers")
        return QMatrix(nr, nc, entries)

    @staticmethod
    def block_diag(blocks: Iterable["QMatrix"]) -> "QMatrix":
        """Direct sum: each block's rows, padded with zeros on both sides.
        Requests keep block sums as their blocks; this dense form serves
        only the genus-2 sources of :mod:`phinmod.fuzz` and
        :func:`phinmod.io_formats.instance_to_json`."""
        blocks = list(blocks)
        nr = sum(b.rows for b in blocks)
        nc = sum(b.cols for b in blocks)
        entries = []
        c0 = 0
        for b in blocks:
            left, right = (0,) * c0, (0,) * (nc - c0 - b.cols)
            for i in range(b.rows):
                entries.extend(left + b.row(i) + right)
            c0 += b.cols
        # as from_rows, a matrix without rows has no columns either
        return QMatrix(nr, nc if nr else 0, tuple(entries))

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self._symmetric

    @cached_property
    def _symmetric(self) -> bool:
        """Whether the matrix equals its transpose: row i from the diagonal
        on against column i from the diagonal down, one slice compare per
        row, made once per matrix."""
        n, e = self.rows, self.entries
        return self.is_square and all(
            e[i * n + i:(i + 1) * n] == e[i * n + i::n] for i in range(n)
        )

    @cached_property
    def elimination(self) -> tuple:
        """(pivots, swaps) of one fraction-free pass on the rows, run at most
        once per matrix: :func:`~phinmod._backend.bareiss_symmetric` on a
        symmetric matrix, and :func:`~phinmod._backend.bareiss` otherwise or
        when a leading principal minor is 0."""
        rows = self.to_rows()
        result = bareiss_symmetric(rows) if self._symmetric else None
        return result or bareiss(rows)

    @cached_property
    def entry_strings(self) -> tuple:
        """Row-major decimal text of the entries, made once."""
        return tuple([str(x) if x else "0" for x in self.entries])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        n, m, k = self.rows, other.cols, self.cols
        se, oe = self.entries, other.entries
        out = []
        for i in range(n):
            base = i * k
            for j in range(m):
                s = 0
                for t in range(k):
                    s += se[base + t] * oe[t * m + j]
                out.append(s)
        return QMatrix(n, m, tuple(out))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def char_poly(m: QMatrix) -> list:
    """Coefficients of det(T*I - m) in ascending degree, leading term 1,
    by the division-free Berkowitz kernel."""
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    return charpoly_int(m.to_rows())


def det(m: QMatrix) -> int:
    """Exact determinant: (-1)^swaps times the last pivot of the
    elimination; 0 when the pass finds fewer than n pivots."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    pivots, swaps = m.elimination
    if len(pivots) < m.rows:
        return 0
    return (-1) ** swaps * pivots[-1] if pivots else 1


def rank(m: QMatrix) -> int:
    """Exact rank over Q: the number of pivots of the elimination."""
    return len(m.elimination[0])


def is_positive_definite(m: QMatrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    An elimination that makes no row exchange and finds a pivot in every
    column has the leading principal minors as its pivots; a zero leading
    minor forces an exchange or a skipped column.
    """
    if not m.is_square or not m.is_symmetric():
        return False
    pivots, swaps = m.elimination
    return swaps == 0 and len(pivots) == m.rows and all(x > 0 for x in pivots)


def _valuation(x: int, p: int) -> int:
    """v_p(x) of a nonzero int, p prime."""
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class NewtonPolygon(Record):
    """Slope data: (slope, multiplicity) pairs with strictly increasing
    slopes and positive multiplicities, as ``phin_module.hodge_newton``
    builds them; the record does not check them again.  A slope is the
    lowest-terms pair (num, den) of ints with den >= 1: slope 1/2 is
    (1, 2) and slope 0 is (0, 1).

    Slopes follow the reciprocal-root convention: an eigenvalue alpha of
    valuation v contributes multiplicity 1 at slope v.
    """

    _fields = ("slopes",)

    def __init__(self, slopes: tuple):
        object.__setattr__(self, "slopes", slopes)


def _hull_segments(coeffs: Sequence, p: int) -> list:
    """(dy, dx) segments of the lower convex hull of (i, v_p(a_i)), p prime,
    a_0 != 0: dx roots of valuation dy / dx, read right to left, so rising."""
    if coeffs[0] == 0:
        raise ValueError("zero constant term: 0 is an eigenvalue")
    hull = []  # lower convex hull by monotone chain over the finite points
    for pt in [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # Drop hull[-1] if it lies on or above the segment hull[-2]..pt.
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [(y1 - y2, x2 - x1) for (x1, y1), (x2, y2) in reversed(list(zip(hull, hull[1:])))]
