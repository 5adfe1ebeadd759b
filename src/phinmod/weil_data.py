"""Frobenius matrices of good-reduction components.

A Weil-q matrix is an integer matrix of even size 2g whose characteristic
polynomial satisfies the weight-1 functional equation with det = q^g, and
whose eigenvalues all have absolute value sqrt(q).  Since |1| < sqrt(q) < q
for q >= 2, that excludes 1 and q as eigenvalues, so the weight-0 and
weight-2 splittings meet the component block trivially.  Honest instances are
manufactured from elliptic curves over F_p by counting their points
(Shanks-Mestre baby-step giant-step above p = 229, one pass over x with a
square table at and below it; see :mod:`phinmod._backend`).  Such a block
is built from the counted trace a alone: its characteristic polynomial
T^2 - a*T + p meets every Weil condition but the Hasse bound a^2 <= 4p,
which is checked with the same message as in :func:`validate_weil`.  A
direct sum keeps its blocks' characteristic polynomials as factors, never
multiplied out: the Newton polygon is the union of the factors' slopes.

The archimedean condition (every eigenvalue of absolute value sqrt(q)) is
certified exactly.  For 2x2 blocks it is trace^2 <= 4q.  Above that, the
functional equation writes the characteristic polynomial as
chi(T) = T^g h(T + q/T) with h monic of degree g, and the eigenvalues all
have absolute value sqrt(q) exactly when every root of h is real and lies
in [-2 sqrt(q), 2 sqrt(q)] (Kedlaya, "Search techniques for root-unitary
polynomials", 2008).  A Sturm sequence of the squarefree part of h, built
from primitive integer pseudo-remainders and evaluated at the endpoints as
A + B sqrt(q) with A, B integers, counts those roots.
"""

from dataclasses import dataclass, field
from math import gcd

from ._backend import count_points as _count_points_kernel
from .errors import ValidationError, WeilValidationError
from .exact_linalg import QMatrix, char_poly, is_prime

DEFAULT_POINT_BOUND = 10 ** 4

# q = p^f is written into every report; its decimal digits are capped well
# below Python's 4300-digit int/str conversion limit.
MAX_Q_DIGITS = 1000
_Q_LIMIT = 10 ** MAX_Q_DIGITS


def check_q(p: int, f: int, context: str = "") -> None:
    """Refuse (p, f) unless p is prime, f >= 1 and q = p^f has at most
    MAX_Q_DIGITS digits; the message names the field 'p' or 'f', prefixed
    with ``context`` (the dotted path of their object plus a trailing dot).

    p^f >= 2^(f*(bits(p)-1)) and 2^4 > 10, so a large f is refused before
    p^f is formed.
    """
    if not is_prime(p):
        raise ValidationError(f"field '{context}p' = {p} is not prime")
    if f < 1:
        raise ValidationError(f"field '{context}f' = {f} must be >= 1")
    if f * (p.bit_length() - 1) >= 4 * MAX_Q_DIGITS or p ** f >= _Q_LIMIT:
        raise ValidationError(
            f"field '{context}f' = {f}: q = p^f has more than {MAX_Q_DIGITS} decimal digits"
        )


# A Weil block is certified through its characteristic polynomial, which
# Berkowitz computes in O(n^4) big-integer operations on n rows: a zero
# block takes 1.7 s at 80 rows and 8.2 s at 120 on a 2-vCPU Xeon host.
MAX_WEIL_SIZE = 64

# Entries of an input matrix are capped below Python's 4300-digit int/str
# conversion limit too, since every entry is written into the report.
MAX_ENTRY_DIGITS = 4000
_ENTRY_LIMIT = 10 ** MAX_ENTRY_DIGITS


def check_weil_size(rows: int, field: str = "Weil matrix") -> None:
    """Refuse a block of more than MAX_WEIL_SIZE rows; ``field`` names the
    block in the message."""
    if rows > MAX_WEIL_SIZE:
        raise WeilValidationError(
            f"{field} has {rows} rows; a Weil block has at most {MAX_WEIL_SIZE}"
        )


def check_entry_digits(m: QMatrix) -> None:
    """Refuse a matrix with an entry of more than MAX_ENTRY_DIGITS decimal
    digits."""
    if max(map(abs, m.entries), default=0) >= _ENTRY_LIMIT:
        raise WeilValidationError(
            f"Weil matrix has an entry of more than {MAX_ENTRY_DIGITS} decimal digits"
        )


@dataclass(frozen=True)
class WeilMatrix:
    """Validated Frobenius matrix of a weight-1 crystalline block.

    q = p^f; size = 2g; g is the Hodge filtration dimension of the block.
    ``factors`` are the characteristic polynomials (ascending coefficients,
    leading 1) of the diagonal blocks of ``matrix``, kept from validation;
    equality ignores them, as ``matrix`` determines them.  Every eigenvalue
    has absolute value sqrt(q), certified exactly by :func:`validate_weil`.
    """

    p: int
    f: int
    matrix: QMatrix
    factors: tuple = field(compare=False)

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
            raise ValidationError(f"field 'p' = {self.p} is not an odd prime")
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
    """(#E(F_p), trace a = p + 1 - #E); p above ``bound`` is refused."""
    if e.p > bound:
        raise ValidationError(f"p = {e.p} exceeds the point-counting bound {bound}")
    n = _count_points_kernel(e.p, e.a4, e.a6)
    return n, e.p + 1 - n


def frobenius_of_elliptic(e: EllipticCurveSpec, bound: int = DEFAULT_POINT_BOUND) -> WeilMatrix:
    """Companion matrix of T^2 - a*T + p for the counted trace a, built
    without :func:`validate_weil`: the spec has checked p, and of the Weil
    conditions only the Hasse bound a^2 <= 4p can fail."""
    _, a = count_points(e, bound)
    _check_hasse(a, e.p)
    return WeilMatrix(e.p, 1, QMatrix(2, 2, (0, -e.p, 1, a)), ((e.p, -a, 1),))


def _check_hasse(trace: int, q: int) -> None:
    """The archimedean condition of a 2 x 2 Weil-q block: trace^2 <= 4q."""
    if trace * trace > 4 * q:
        raise WeilValidationError(
            f"Weil validation failed: archimedean check, trace^2 = "
            f"{_shown(trace * trace)} > 4q = {4 * q}"
        )


def _shown(n: int) -> str:
    """n in decimal up to 60 digits, else its digit count (Python writes no
    int of over 4300 digits), counted up from a bound: log10(2) > 0.301029."""
    k = (abs(n).bit_length() - 1) * 301029 // 1000000 + 1
    while abs(n) >= 10 ** k:
        k += 1
    return str(n) if k <= 60 else f"{'-' if n < 0 else ''}<{k}-digit integer>"


def _functional_equation_holds(coeffs: list, q: int, g: int) -> bool:
    # Ascending coefficients of a monic degree-2g polynomial; the weight-1
    # functional equation is a_i = q^(g-i) * a_(2g-i) for every i.
    return all(coeffs[i] * q ** i == coeffs[2 * g - i] * q ** g for i in range(2 * g + 1))


def _real_weil_poly(coeffs: list, q: int, g: int) -> list:
    """Ascending coefficients of the monic degree-g h with
    chi(T) = T^g h(T + q/T), for chi satisfying the functional equation.

    With x = T + q/T and P_k = T^k + (q/T)^k, P_1 = x and
    P_(k+1) = x P_k - q P_(k-1) (P_0 = 2), and
    chi(T) / T^g = a_g + sum_(k>=1) a_(g+k) P_k.
    """
    h = [coeffs[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for k in range(1, g + 1):
        a = coeffs[g + k]
        for i, c in enumerate(cur):
            h[i] += a * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return h


def _primitive(a: list) -> list:
    c = 0
    for x in a:
        c = gcd(c, x)
    return [x // c for x in a] if c > 1 else a


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(Q, R) with k*a = Q*b + R for some integer k > 0 and deg R < deg b;
    integer coefficients throughout, trailing zeros of R stripped (empty
    for zero)."""
    a = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    while len(a) > db:
        c = sign * a[-1]
        shift = len(a) - 1 - db
        a = [scale * x for x in a]
        quo = [scale * x for x in quo]
        quo[shift] += c
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return quo, a


def _sturm_sequence(h: list) -> list:
    """h, h', then the negated remainders, each a positive multiple of the
    classical term and primitive; the last term is gcd(h, h') up to a
    constant."""
    seq = [h, _primitive([i * c for i, c in enumerate(h)][1:])]
    while len(seq[-1]) > 1:
        r = _primitive(_pseudo_divmod(seq[-2], seq[-1])[1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _sign_at_endpoint(poly: list, q: int, s: int) -> int:
    """Sign of poly at x = 2s sqrt(q), s = +-1, exactly.

    Horner on A + B sqrt(q): multiplying by x sends (A, B) to
    (2s q B, 2s A).
    """
    a = b = 0
    for c in reversed(poly):
        a, b = 2 * s * q * b + c, 2 * s * a
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    d = a * a - b * b * q
    return sa * ((d > 0) - (d < 0))


def _variations(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if x != y)


def _archimedean_holds(coeffs: list, q: int, g: int) -> bool:
    """Whether every root of chi has absolute value sqrt(q), chi satisfying
    the functional equation: h has g real roots, counted with multiplicity,
    all in [-2 sqrt(q), 2 sqrt(q)].

    The Sturm sequence of the squarefree part of h counts its real roots in
    (-2 sqrt(q), 2 sqrt(q)] as V(-2 sqrt(q)) - V(2 sqrt(q)), sign variations
    with zeros dropped; one more if -2 sqrt(q) is a root.  The squarefree
    part has g - deg gcd(h, h') roots, all distinct, so the two counts agree
    exactly when every root of h is real and inside the interval.
    """
    if g == 0:
        return True
    h = _real_weil_poly(coeffs, q, g)
    seq = _sturm_sequence(h)
    if len(seq[-1]) > 1:
        # Repeated roots: at a multiple root every term vanishes, so count
        # on the squarefree part h / gcd(h, h') instead.
        seq = _sturm_sequence(_primitive(_pseudo_divmod(h, seq[-1])[0]))
    distinct = len(seq[0]) - 1
    low = [_sign_at_endpoint(s, q, -1) for s in seq]
    high = [_sign_at_endpoint(s, q, 1) for s in seq]
    inside = _variations(low) - _variations(high) + (low[0] == 0)
    return inside == distinct


def validate_weil(m, p: int, f: int = 1) -> WeilMatrix:
    """Check the Weil-q conditions exactly; raise WeilValidationError naming
    the first failed condition.

    ``m`` may be a QMatrix or a row list.  (p, f) is checked first by
    :func:`check_q`, which raises a plain ValidationError.  Checks, in
    order: at most MAX_WEIL_SIZE rows, evenness, integrality and entries of at most
    MAX_ENTRY_DIGITS digits, all before chi is computed; det = q^g; the
    functional equation of the characteristic polynomial chi; the
    archimedean condition, trace^2 <= 4q for 2x2 blocks and certified by a
    Sturm sequence above (see the module docstring).  The archimedean
    condition also excludes 1 and q as eigenvalues, as |1| < sqrt(q) < q.
    det is read off chi: for even size, det(m) = chi(0).
    """
    if not isinstance(m, QMatrix):
        m = QMatrix.from_rows(m)
    check_q(p, f)
    q = p ** f
    if not m.is_square:
        raise WeilValidationError("Weil matrix must be square")
    check_weil_size(m.rows)
    if m.rows % 2 != 0:
        raise WeilValidationError(f"Weil matrix has odd size {m.rows}")
    if not m.is_integral():
        raise WeilValidationError("Weil matrix entries must be integers")
    check_entry_digits(m)
    g = m.rows // 2
    coeffs = char_poly(m)
    if coeffs[0] != q ** g:
        raise WeilValidationError(
            f"Weil validation failed: det = {_shown(coeffs[0])} != q^g = {_shown(q ** g)}"
        )
    if not _functional_equation_holds(coeffs, q, g):
        raise WeilValidationError(
            "Weil validation failed: characteristic polynomial violates the "
            "functional equation"
        )
    if m.rows == 2:
        _check_hasse(m[0, 0] + m[1, 1], q)
    if m.rows > 2 and not _archimedean_holds(coeffs, q, g):
        raise WeilValidationError(
            "Weil validation failed: archimedean check, not every eigenvalue "
            "has absolute value sqrt(q)"
        )
    return WeilMatrix(p, f, m, (tuple(coeffs),))


def direct_sum(ws, p: int, f: int = 1) -> WeilMatrix:
    """Block-diagonal sum; genus and filtration dimensions add.

    (p, f) must be passed explicitly so the empty sum is well-typed; every
    summand must match.  The summands are already validated and every Weil-q
    condition passes to a block sum (det and the characteristic polynomial
    multiply, the eigenvalues are the union), so the sum is not validated
    again: its factors are the summands' factors, in order.
    """
    ws = list(ws)
    for w in ws:
        if (w.p, w.f) != (p, f):
            raise WeilValidationError(
                f"direct_sum: block has q = {w.p}^{w.f}, expected {p}^{f}"
            )
    return WeilMatrix(p, f, QMatrix.block_diag([w.matrix for w in ws]),
                      tuple(chi for w in ws for chi in w.factors))
