"""Frobenius matrices of good-reduction components.

A Weil-q matrix is an integer matrix of even size 2g whose characteristic
polynomial satisfies the weight-1 functional equation with det = q^g, and
which excludes 1 and q as eigenvalues (so that the weight-0 and weight-2
splittings meet the component block trivially).  Honest instances are
manufactured from elliptic curves over F_p by naive point counting.

The archimedean condition (every eigenvalue of absolute value sqrt(q))
cannot be certified by rational arithmetic in general; for 2x2 blocks it is
equivalent to trace^2 <= 4q and checked exactly, for larger blocks it is
tested in double precision (tolerance 1e-9) and recorded as advisory.
"""

from dataclasses import dataclass

import numpy as np

from ._backend import count_points as _count_points_kernel
from .errors import ValidationError, WeilValidationError
from .exact_linalg import QMatrix, char_poly, det, is_prime

DEFAULT_POINT_BOUND = 10 ** 4

ARCHIMEDEAN_TOL = 1e-9


@dataclass(frozen=True)
class WeilMatrix:
    """Validated Frobenius matrix of a weight-1 crystalline block.

    q = p^f; size = 2g; fil_dim = g is the Hodge filtration dimension of the
    block.  ``charpoly`` is the characteristic polynomial of ``matrix``
    (ascending coefficients, leading 1), kept from validation so that no
    later step recomputes it.  ``archimedean_verified`` records the advisory
    eigenvalue-modulus check: exact for 2x2 blocks, double precision above
    that.
    """

    p: int
    f: int
    matrix: QMatrix
    fil_dim: int
    charpoly: tuple
    archimedean_verified: bool = True

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def size(self) -> int:
        return self.matrix.rows

    @property
    def g(self) -> int:
        return self.size // 2


@dataclass(frozen=True)
class EllipticCurveSpec:
    """Short Weierstrass curve y^2 = x^3 + a4*x + a6 over F_p, p an odd prime."""

    p: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not an odd prime")
        object.__setattr__(self, "a4", self.a4 % self.p)
        object.__setattr__(self, "a6", self.a6 % self.p)
        if self.discriminant_zero():
            raise ValidationError(
                f"singular curve: discriminant of (a4={self.a4}, a6={self.a6}) "
                f"vanishes mod {self.p}"
            )

    def discriminant_zero(self) -> bool:
        return (4 * self.a4 ** 3 + 27 * self.a6 ** 2) % self.p == 0


def count_points(e: EllipticCurveSpec, bound: int = DEFAULT_POINT_BOUND) -> tuple:
    """(#E(F_p), trace a = p + 1 - #E) by brute-force x enumeration."""
    if e.p > bound:
        raise ValidationError(f"p = {e.p} exceeds the point-counting bound {bound}")
    n = _count_points_kernel(e.p, e.a4, e.a6)
    return n, e.p + 1 - n


def frobenius_of_elliptic(e: EllipticCurveSpec, bound: int = DEFAULT_POINT_BOUND) -> WeilMatrix:
    """Companion matrix of T^2 - a*T + p for the counted trace a."""
    _, a = count_points(e, bound)
    m = QMatrix.from_rows([[0, -e.p], [1, a]])
    return validate_weil(m, e.p, 1)


def _functional_equation_holds(coeffs: list, q: int, g: int) -> bool:
    # Ascending coefficients of a monic degree-2g polynomial; the weight-1
    # functional equation is a_i = q^(g-i) * a_(2g-i) for every i.
    for i in range(2 * g + 1):
        lhs = coeffs[i] * q ** i
        rhs = coeffs[2 * g - i] * q ** g
        if lhs != rhs:
            return False
    return True


def _approx_moduli_ok(m: QMatrix, q: int) -> bool:
    if m.rows == 0:
        return True
    arr = np.array(m.to_rows(), dtype=float)
    moduli = np.abs(np.linalg.eigvals(arr))
    target = float(q) ** 0.5
    return bool(np.all(np.abs(moduli - target) <= ARCHIMEDEAN_TOL * max(target, 1.0)))


def validate_weil(m, p: int, f: int = 1) -> WeilMatrix:
    """Check the Weil-q conditions exactly; raise WeilValidationError naming
    the first failed condition.

    ``m`` may be a QMatrix or a row list.  Checks, in order: evenness and
    integrality; det = q^g; the functional equation of the characteristic
    polynomial; the archimedean bound (exact trace^2 <= 4q for 2x2, double
    precision advisory above); q and 1 excluded as eigenvalues.
    """
    if not isinstance(m, QMatrix):
        m = QMatrix.from_rows(m)
    if not is_prime(p):
        raise WeilValidationError(f"p = {p} is not prime")
    if f < 1:
        raise WeilValidationError(f"f = {f} must be >= 1")
    q = p ** f
    if not m.is_square:
        raise WeilValidationError("Weil matrix must be square")
    if m.rows % 2 != 0:
        raise WeilValidationError(f"Weil matrix has odd size {m.rows}")
    if not m.is_integral():
        raise WeilValidationError("Weil matrix entries must be integers")
    g = m.rows // 2
    d = det(m)
    if d != q ** g:
        raise WeilValidationError(
            f"Weil validation failed: det = {d} != q^g = {q ** g}"
        )
    coeffs = char_poly(m)
    if not _functional_equation_holds(coeffs, q, g):
        raise WeilValidationError(
            "Weil validation failed: characteristic polynomial violates the "
            "functional equation"
        )
    archimedean = True
    if m.rows == 2:
        trace = m[0, 0] + m[1, 1]
        if trace * trace > 4 * q:
            raise WeilValidationError(
                f"Weil validation failed: archimedean check, trace^2 = "
                f"{trace * trace} > 4q = {4 * q}"
            )
    else:
        archimedean = _approx_moduli_ok(m, q)
    if det(m - QMatrix.scalar(m.rows, q)) == 0:
        raise WeilValidationError("Weil validation failed: q is an eigenvalue")
    if det(m - QMatrix.identity(m.rows)) == 0:
        raise WeilValidationError("Weil validation failed: 1 is an eigenvalue")
    return WeilMatrix(p, f, m, g, tuple(coeffs), archimedean)


def direct_sum(ws, p: int, f: int = 1) -> WeilMatrix:
    """Block-diagonal sum; genus and filtration dimensions add.

    (p, f) must be passed explicitly so the empty sum is well-typed; every
    summand must match.  The summands are already validated and every Weil-q
    condition passes to a block sum (det and the characteristic polynomial
    multiply, the eigenvalues are the union), so the sum is not validated
    again: its characteristic polynomial is the product of the summands'.
    It is archimedean-verified when every summand is.
    """
    ws = list(ws)
    for w in ws:
        if (w.p, w.f) != (p, f):
            raise WeilValidationError(
                f"direct_sum: block has q = {w.p}^{w.f}, expected {p}^{f}"
            )
    charpoly = (1,)
    for w in ws:
        charpoly = _poly_mul(charpoly, w.charpoly)
    return WeilMatrix(
        p,
        f,
        QMatrix.block_diag([w.matrix for w in ws]),
        sum(w.fil_dim for w in ws),
        charpoly,
        all(w.archimedean_verified for w in ws),
    )


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)
