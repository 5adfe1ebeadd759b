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
direct sum keeps its summands' blocks side by side, never assembled into
one matrix, and their characteristic polynomials as factors, never
multiplied out: the Newton polygon is the union of the factors' slopes.

The archimedean condition (every eigenvalue of absolute value sqrt(q)) is
certified exactly.  A 2x2 block shows its characteristic polynomial
T^2 - trace*T + det in its entries, so no Berkowitz pass runs on it: det = q
is its whole functional equation and trace^2 <= 4q its archimedean
condition.  Above that, the functional equation writes the characteristic
polynomial as chi(T) = T^g h(T + q/T) with h monic of degree g, and the
eigenvalues all have absolute value sqrt(q) exactly when every root of h is
real and lies in [-2 sqrt(q), 2 sqrt(q)] (Kedlaya, "Search techniques for
root-unitary polynomials", 2008).  A 4x4 block's chi comes from the twelve
2x2 minors of its top and bottom row pairs, and at g = 2 that condition on
h(x) = x^2 + a1 x + a2 - 2q has a closed form in a1 and a2 (Rueck 1990;
Maisner and Nart 2002), so no Berkowitz or Sturm pass runs on it either.
From 6 rows on, Berkowitz's algorithm gives chi, and a Sturm sequence of
the squarefree part of h, built from primitive integer pseudo-remainders
and evaluated at the endpoints as A + B sqrt(q) with A, B integers, counts
those roots.

:func:`validate_weil` certifies a matrix block by block.  One pass over the
entries finds its finest contiguous diagonal blocks (no permutation), which
the result keeps in place of the matrix, and each block gets the whole
certificate: characteristic polynomial, det, functional equation (tested on
its g independent conditions) and archimedean condition.  That accepts
nothing the certificate of the whole matrix refuses.  If every block chi_i
passes, then chi = prod chi_i has chi(0) = prod q^(g_i) = q^g; the
functional equation, T^(2g) chi(q/T) = q^g chi(T), is multiplicative in the
factors; and the roots of chi are those of the chi_i, all of absolute value
sqrt(q).  The converse fails: the sum of T^2 - q with itself is Weil, but
T^2 - q alone has det -q, and diag(p, p) at q = p^2 is Weil with blocks of
odd size.  So when a block fails alone the whole matrix is certified
instead, and the verdict and the message are those of the whole
certificate.  A matrix that is one block, such as a dense 4 x 4, pays only
the pass that finds it so.
"""

from itertools import chain, compress
from math import gcd

from ._backend import charpoly_int
from ._backend import count_points as _count_points_kernel
from ._record import Record
from .errors import ValidationError, WeilValidationError, clipped, digit_count_text
from .exact_linalg import QMatrix, is_prime

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
        raise ValidationError(f"field '{context}p' = {clipped(p)} is not prime")
    if f < 1:
        raise ValidationError(f"field '{context}f' = {clipped(f)} must be >= 1")
    if f * (p.bit_length() - 1) >= 4 * MAX_Q_DIGITS or p ** f >= _Q_LIMIT:
        raise ValidationError(
            f"field '{context}f' = {clipped(f)}: q = p^f has more than {MAX_Q_DIGITS} "
            f"decimal digits"
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


class WeilMatrix(Record):
    """Validated Frobenius matrix of a weight-1 crystalline block, stored as
    its finest contiguous diagonal blocks.

    q = p^f; size = 2g, g being the Hodge filtration dimension of the block.
    The matrix is the block-diagonal sum of the square QMatrix ``blocks``,
    in order; no dense size x size matrix is kept.  Finest blocks are
    unique, so ``==`` on them means ``==`` on the matrix.  ``factors`` are
    characteristic polynomials (ascending coefficients, leading 1) kept
    from validation: one per block when every block is Weil on its own, or
    the whole characteristic polynomial when one is not (see
    :func:`validate_weil`), and a direct sum keeps its summands' factors.
    They multiply to the characteristic polynomial of the matrix.  ``==``
    and ``hash`` ignore them, as the blocks determine them.  Every
    eigenvalue has absolute value sqrt(q), certified exactly by
    :func:`validate_weil`.
    """

    _fields = ("p", "f", "blocks", "factors")
    _compared = ("p", "f", "blocks")

    def __init__(self, p: int, f: int, blocks: tuple, factors: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        return sum(b.rows for b in self.blocks)


class EllipticCurveSpec(Record):
    """Short Weierstrass curve y^2 = x^3 + a4*x + a6 over F_p, p an odd prime;
    a4 and a6 are stored reduced mod p."""

    _fields = ("p", "a4", "a6")

    def __init__(self, p: int, a4: int, a6: int):
        if p == 2 or not is_prime(p):
            raise ValidationError(f"field 'p' = {clipped(p)} is not an odd prime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a4", a4 % p)
        object.__setattr__(self, "a6", a6 % p)
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
    return WeilMatrix(e.p, 1, (QMatrix(2, 2, (0, -e.p, 1, a)),), ((e.p, -a, 1),))


def _check_hasse(trace: int, q: int) -> None:
    """The archimedean condition of a 2 x 2 Weil-q block: trace^2 <= 4q."""
    if trace * trace > 4 * q:
        raise WeilValidationError(
            f"Weil validation failed: archimedean check, trace^2 = "
            f"{_shown(trace * trace)} > 4q = {4 * q}"
        )


def _shown(n: int) -> str:
    """n in decimal up to 60 digits, else its digit count."""
    return str(n) if abs(n) < 10 ** 60 else digit_count_text(n)


def _functional_equation_holds(coeffs: list, q: int, g: int) -> bool:
    """Whether the ascending coefficients of a monic degree-2g polynomial
    satisfy the weight-1 functional equation, a_i = q^(g-i) * a_(2g-i).

    Only i < g is tested: i = g always holds, and i > g restates the
    equation for 2g - i.  For g = 1 the one condition left, a_0 = q, is the
    det check.
    """
    return all(coeffs[i] == coeffs[2 * g - i] * q ** (g - i) for i in range(g))


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


def _diagonal_blocks(m: QMatrix) -> list:
    """(start, end) of the finest contiguous diagonal blocks of the square
    ``m``, in order, from one pass over its rows.

    A row i whose nonzero entries lie in columns lo..hi ties together every
    index from min(lo, i) to max(hi, i); ``reach`` keeps, per first index,
    the farthest one tied to it.  A block ends at k when no index up to k
    reaches beyond k.  A row that ties the first index to the last makes
    the matrix one block, so a dense matrix is settled by its first row.
    """
    n, e = m.rows, m.entries
    reach = list(range(n))
    columns = range(n)
    for i in columns:
        nonzero = list(compress(columns, e[i * n:(i + 1) * n]))
        if nonzero:
            lo, hi = min(nonzero[0], i), max(nonzero[-1], i)
            if hi > reach[lo]:
                if lo == 0 and hi == n - 1:
                    return [(0, n)]
                reach[lo] = hi
    blocks, start, end = [], 0, 0
    for k in columns:
        if reach[k] > end:
            end = reach[k]
        if end == k:
            blocks.append((start, k + 1))
            start = k + 1
    return blocks


def _charpoly_4x4(rows: list) -> list:
    """Ascending chi of a 4 x 4 integer matrix from the twelve 2 x 2 minors
    of rows (0, 1) and of rows (2, 3): det is their Laplace expansion, each
    3 x 3 principal minor is expanded along its one row outside a pair, and
    two of the six 2 x 2 principal minors are among the twelve."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    u01, u02, u03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    u12, u13, u23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    l01, l02, l03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    l12, l13, l23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    det = u01 * l23 - u02 * l13 + u03 * l12 + u12 * l03 - u13 * l02 + u23 * l01
    e2 = (u01 + l23 + a0 * c2 - a2 * c0 + a0 * d3 - a3 * d0
          + b1 * c2 - b2 * c1 + b1 * d3 - b3 * d1)
    e3 = (c0 * u12 - c1 * u02 + c2 * u01 + d0 * u13 - d1 * u03 + d3 * u01
          + a0 * l23 - a2 * l03 + a3 * l02 + b1 * l23 - b2 * l13 + b3 * l12)
    return [det, -e3, e2, -(a0 + b1 + c2 + d3), 1]


def _genus_two_holds(a1: int, a2: int, q: int) -> bool:
    """The archimedean condition of chi = T^4 + a1 T^3 + a2 T^2 + q a1 T + q^2
    in closed form (Rueck 1990; Maisner and Nart 2002, Lemma 2.1): both
    roots of h(x) = x^2 + a1 x + a2 - 2q are real (4 a2 <= a1^2 + 8q) and in
    [-2 sqrt(q), 2 sqrt(q)], as its vertex -a1/2 is (a1^2 <= 16q) and
    h(+-2 sqrt(q)) = a2 + 2q +- 2 a1 sqrt(q) >= 0."""
    s, t = a1 * a1, a2 + 2 * q
    return s <= 16 * q and 4 * a2 <= s + 8 * q and t >= 0 and 4 * s * q <= t * t


def _certify(rows: list, q: int) -> list:
    """chi of the even-sized integer square matrix ``rows``, after checking
    det = q^g, the functional equation and the archimedean condition on it;
    the first that fails raises WeilValidationError naming it.

    A 2 x 2 block [[a, b], [c, d]] shows chi = T^2 - (a + d) T + (ad - bc)
    in its entries, and its archimedean condition is the Hasse bound.  A
    4 x 4 block's chi comes from its 2 x 2 minors and its archimedean
    condition is the genus-2 closed form.  From 6 rows on, Berkowitz gives
    chi and a Sturm sequence certifies the archimedean condition.
    """
    n = len(rows)
    g = n // 2
    if n == 2:
        (a, b), (c, d) = rows
        coeffs = [a * d - b * c, -(a + d), 1]
    elif n == 4:
        coeffs = _charpoly_4x4(rows)
    else:
        coeffs = charpoly_int(rows)
    if coeffs[0] != q ** g:
        raise WeilValidationError(
            f"Weil validation failed: det = {_shown(coeffs[0])} != q^g = {_shown(q ** g)}"
        )
    if not _functional_equation_holds(coeffs, q, g):
        raise WeilValidationError(
            "Weil validation failed: characteristic polynomial violates the "
            "functional equation"
        )
    if n == 2:
        _check_hasse(a + d, q)
    elif not (_genus_two_holds(coeffs[3], coeffs[2], q) if n == 4
              else _archimedean_holds(coeffs, q, g)):
        raise WeilValidationError(
            "Weil validation failed: archimedean check, not every eigenvalue "
            "has absolute value sqrt(q)"
        )
    return coeffs


def _blockwise_factors(blocks: list, q: int):
    """The certified chi of each of ``blocks``, row lists, or None if some
    block is not Weil on its own."""
    factors = []
    for rows in blocks:
        if len(rows) % 2:
            return None
        try:
            factors.append(tuple(_certify(rows, q)))
        except WeilValidationError:
            return None
    return tuple(factors)


def validate_weil(m, p: int, f: int = 1) -> WeilMatrix:
    """Check the Weil-q conditions exactly; raise WeilValidationError naming
    the first failed condition.

    ``m`` may be a QMatrix or a row list of ints, which
    :meth:`QMatrix.from_rows` tests.  (p, f) is checked first by
    :func:`check_q`, which raises a plain ValidationError.  Checks, in
    order: at most MAX_WEIL_SIZE rows, evenness and entries of at most
    MAX_ENTRY_DIGITS digits, all before chi is computed; det = q^g; the
    functional equation of the characteristic polynomial chi; the
    archimedean condition, trace^2 <= 4q for 2x2 blocks, the genus-2 closed
    form for 4x4 ones and certified by a Sturm sequence from 6 rows on (see
    the module docstring).  The archimedean condition also excludes 1 and q
    as eigenvalues, as |1| < sqrt(q) < q.  det is read off chi: for even
    size, det(m) = chi(0).  chi of a 2x2 block is read off its trace and
    determinant and that of a 4x4 one off its 2x2 minors; Berkowitz
    computes it for blocks, and for a whole matrix, of 6 rows or more.

    The result keeps the finest diagonal blocks of ``m`` (``m`` itself when
    it is one block, and none when it is empty, as a genus-0 component).
    The last three checks run on each block, whose characteristic
    polynomials become the factors; if a block fails alone, or ``m`` is one
    block, they run on ``m`` whole and its chi is the one factor.  The
    module docstring shows why both give the same verdict.
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
    check_entry_digits(m)
    spans = _diagonal_blocks(m)
    if len(spans) == 1:
        blocks, factors = (m,), None
    else:
        n, e = m.rows, m.entries
        rows = [[e[i + a:i + b] for i in range(a * n, b * n, n)] for a, b in spans]
        blocks = tuple([QMatrix(len(r), len(r), tuple(chain.from_iterable(r))) for r in rows])
        factors = _blockwise_factors(rows, q)
    if factors is None:
        factors = (tuple(_certify(m.to_rows(), q)),)
    return WeilMatrix(p, f, blocks, factors)


def direct_sum(ws, p: int, f: int = 1) -> WeilMatrix:
    """Block-diagonal sum; genus and filtration dimensions add.

    (p, f) must be passed explicitly so the empty sum is well-typed; every
    summand must match.  The summands are already validated and every Weil-q
    condition passes to a block sum (det and the characteristic polynomial
    multiply, the eigenvalues are the union), so the sum is not validated
    again: its blocks and its factors are the summands', in order, and no
    dense matrix is built.  Finest blocks side by side are the finest
    blocks of the sum.
    """
    ws = list(ws)
    for w in ws:
        if (w.p, w.f) != (p, f):
            raise WeilValidationError(
                f"direct_sum: block has q = {w.p}^{w.f}, expected {p}^{f}"
            )
    return WeilMatrix(p, f, tuple(b for w in ws for b in w.blocks),
                      tuple(chi for w in ws for chi in w.factors))
