"""Exact rational linear algebra.

Scalars are arbitrary-precision: plain ``int`` where the denominator is 1,
``fractions.Fraction`` otherwise (both are kept in lowest terms with a
positive denominator, and they compare and hash interchangeably).  An
integer is never held or built as a ``Fraction``: :func:`parse_rational`
reads ``"a"`` straight to ``int``, :func:`as_rational` passes ``int`` through
untouched and collapses a denominator-1 ``Fraction`` to its numerator, and
matrix constructors coerce only entries that are not ``int``.  No floating
point enters this module.

Matrix kernels run on the integer level via :mod:`phinmod._backend`;
rational input is cleared of denominators first and the results are
rescaled exactly.  Determinant, rank and the positive-definiteness test all
read one Bareiss elimination pass, cached on the (immutable) matrix as
:attr:`QMatrix.elimination`, so each matrix is eliminated at most once.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterable, Sequence, Union

from ._backend import bareiss, charpoly_int
from .errors import ValidationError

Rational = Union[int, Fraction]

INFINITY = math.inf


def as_rational(x) -> Rational:
    """Coerce to an exact scalar, collapsing denominator-1 fractions to int.

    An ``int`` is returned unchanged and a ``Fraction``, already in lowest
    terms, as it is or as its numerator; only other types are converted by
    ``Fraction(x)``.  No ``Fraction`` is built for an integer.
    """
    if isinstance(x, int):
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def rational_str(x: Rational) -> str:
    """Serialize as ``"a"`` or ``"a/b"`` in lowest terms."""
    x = as_rational(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Rational:
    """Inverse of :func:`rational_str`: ``"a"`` or ``"a/b"`` in decimal.

    ``"a"`` is read straight to ``int``; ``"a/b"`` becomes a ``Fraction``,
    or an ``int`` when b divides a, and b = 0 raises ZeroDivisionError.
    Input from outside the program must be gated first (``io_formats`` does,
    with a digit cap): ``int`` also takes surrounding whitespace and ``_``.
    """
    num, slash, den = s.partition("/")
    if not slash:
        return int(num)
    return as_rational(Fraction(int(num), int(den)))


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
            f"field 'p' = {n} is not below {PRIME_BOUND}, the bound of the "
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


@dataclass(frozen=True)
class QMatrix:
    """Immutable matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows x cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return QMatrix(nr, nc, tuple(
            x if type(x) is int else as_rational(x) for r in rows for x in r
        ))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def scalar(n: int, c) -> "QMatrix":
        c = as_rational(c)
        return QMatrix(n, n, tuple(c if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def block_diag(blocks: Iterable["QMatrix"]) -> "QMatrix":
        """Direct sum: each block's rows, padded with zeros on both sides.
        The entries of a QMatrix are exact already, so none is coerced."""
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

    def __getitem__(self, ij) -> Rational:
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

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_symmetric(self) -> bool:
        n, e = self.rows, self.entries
        return self.is_square and all(
            e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i)
        )

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for x in self.entries)

    @cached_property
    def elimination(self) -> tuple:
        """(pivots, swaps, d): the :func:`~phinmod._backend.bareiss` pass on
        the integer lift d * self of :func:`_clear_denominators`, run at most
        once per matrix."""
        rows, d = _clear_denominators(self)
        return (*bareiss(rows), d)

    @cached_property
    def entry_strings(self) -> tuple:
        """Row-major :func:`rational_str` text of the entries, made once."""
        return tuple([str(x) if x else "0" for x in self.entries])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(self.rows, self.cols,
                       tuple(as_rational(a + b) for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "QMatrix":
        c = as_rational(c)
        return QMatrix(self.rows, self.cols, tuple(as_rational(c * a) for a in self.entries))

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
                out.append(as_rational(s))
        return QMatrix(n, m, tuple(out))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rational_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def _clear_denominators(m: QMatrix) -> tuple:
    """Return (integer rows of d*m, d) for the global denominator lcm d."""
    d = 1
    for x in m.entries:
        if type(x) is not int:  # a Fraction; see the module docstring
            d = d * x.denominator // math.gcd(d, x.denominator)
    if d == 1:
        return m.to_rows(), 1
    rows = [[int(x * d) for x in m.row(i)] for i in range(m.rows)]
    return rows, d


def char_poly(m: QMatrix) -> list:
    """Coefficients of det(T*I - m) in ascending degree, leading term 1.

    Division-free on the integer lift: for rational input the matrix is
    scaled to d*m and the coefficients are rescaled by powers of d.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    rows, d = _clear_denominators(m)
    coeffs = charpoly_int(rows)
    if d == 1:
        return coeffs
    return [as_rational(Fraction(c, d ** (n - i))) for i, c in enumerate(coeffs)]


def det(m: QMatrix) -> Rational:
    """Exact determinant: (-1)^swaps times the last pivot of the elimination
    of d * m, over d^n; 0 when the pass finds fewer than n pivots."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    pivots, swaps, d = m.elimination
    if len(pivots) < m.rows:
        return 0
    value = (-1) ** swaps * pivots[-1] if pivots else 1
    return value if d == 1 else as_rational(Fraction(value, d ** m.rows))


def rank(m: QMatrix) -> int:
    """Exact rank over Q: the number of pivots of the elimination."""
    return len(m.elimination[0])


def is_positive_definite(m: QMatrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    An elimination that makes no row exchange and finds a pivot in every
    column has the leading principal minors as its pivots; a zero leading
    minor forces an exchange or a skipped column.  Scaling by the common
    denominator multiplies the order-k minor by d^k > 0, so signs are kept.
    """
    if not m.is_square or not m.is_symmetric():
        return False
    pivots, swaps, _ = m.elimination
    return swaps == 0 and len(pivots) == m.rows and all(x > 0 for x in pivots)


def padic_valuation(x, p: int):
    """v_p(x) for exact x; +infinity at 0; normalized so v_p(p) = 1."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return _valuation(as_rational(x), p)


def _valuation(x, p: int):
    """:func:`padic_valuation` of an int or Fraction, p known to be prime."""
    if x == 0:
        return INFINITY
    num, den = abs(x.numerator), x.denominator  # an int is n/1
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope data: nondecreasing (slope, multiplicity) pairs.

    Slopes follow the reciprocal-root convention: an eigenvalue alpha of
    valuation v contributes multiplicity 1 at slope v.
    """

    slopes: tuple

    def __post_init__(self):
        prev = None
        for s, mult in self.slopes:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if prev is not None and s <= prev:
                raise ValueError("slopes must be strictly increasing after merging")
            prev = s

    @staticmethod
    def from_slope_list(slopes: Sequence) -> "NewtonPolygon":
        """Build from an unsorted multiset of slopes, merging duplicates."""
        ordered = sorted(as_rational(x) for x in slopes)
        return NewtonPolygon(tuple((s, len(list(run))) for s, run in groupby(ordered)))

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.slopes)

    def slope_multiset(self) -> list:
        return [s for s, m in self.slopes for _ in range(m)]

    def scaled(self, factor) -> "NewtonPolygon":
        """Polygon with every slope multiplied by ``factor`` (> 0)."""
        factor = as_rational(factor)
        return NewtonPolygon(tuple((as_rational(s * factor), m) for s, m in self.slopes))

    def heights(self) -> list:
        """Partial sums of the sorted slope multiset (polygon vertices)."""
        out = [0]
        for s in self.slope_multiset():
            out.append(as_rational(out[-1] + s))
        return out

    def total(self) -> Rational:
        return as_rational(sum(s * m for s, m in self.slopes))

    def dual(self) -> "NewtonPolygon":
        """Polygon with slopes s -> 1 - s; fixed points of this map are the
        polygons symmetric about slope 1/2."""
        return NewtonPolygon(tuple((1 - s, m) for s, m in reversed(self.slopes)))

    def is_symmetric(self) -> bool:
        return self == self.dual()

    def lies_on_or_above(self, other: "NewtonPolygon") -> bool:
        """Pointwise >= comparison of polygon heights (same dimension).

        Between consecutive breakpoints of either polygon the difference of
        the two heights is linear, so it is nonnegative everywhere when it
        is at each breakpoint.  The walk visits only the union of the
        breakpoints, not the d + 1 integer heights of :meth:`heights`.
        """
        if self.dimension != other.dimension:
            raise ValueError("polygons have different dimensions")
        a, b = iter(self.slopes), iter(other.slopes)
        (sa, ma), (sb, mb) = next(a, (0, 0)), next(b, (0, 0))
        diff = 0  # height of self minus height of other at the breakpoint
        while ma:  # equal dimensions: mb runs out together with ma
            step = min(ma, mb)
            diff += (sa - sb) * step
            if diff < 0:
                return False
            ma -= step
            mb -= step
            if not ma:
                sa, ma = next(a, (0, 0))
            if not mb:
                sb, mb = next(b, (0, 0))
        return True


def newton_polygon(coeffs: Sequence, p: int) -> NewtonPolygon:
    """Lower convex hull slopes of (i, v_p(a_i)) for a monic polynomial.

    ``coeffs`` is ascending, leading coefficient 1.  The reported slope of a
    hull segment is its negative, so each eigenvalue alpha shows up at slope
    v_p(alpha).  Rejects the zero polynomial and a zero constant term (an
    eigenvalue 0 has no finite slope).
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    coeffs = [as_rational(c) for c in coeffs]
    if not coeffs or all(c == 0 for c in coeffs):
        raise ValueError("zero polynomial")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    return NewtonPolygon(tuple(
        (as_rational(Fraction(dy, dx)), dx) for dy, dx in _hull_segments(coeffs, p)
    ))


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
