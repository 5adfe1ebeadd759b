"""Kernels: integer matrix elimination and elliptic-curve point counts.

All matrix kernels take row-major ``list[list[int]]`` and use exact integer
arithmetic throughout, so intermediate values never leave the integers.
There are three: two fraction-free (Bareiss) elimination passes, whose
pivots give rank, determinant and the leading principal minors, and
:func:`charpoly_int`, Berkowitz's division-free characteristic polynomial.
:func:`bareiss_symmetric` eliminates a symmetric matrix on its upper
triangle, visiting only the rows whose multiplier is nonzero, so a sparse
Gram matrix costs about its fill; it gives up at a zero leading principal
minor.  :func:`bareiss` takes any matrix, with row exchanges.
``det_int`` and ``rank_int`` only read the result of :func:`bareiss`; no
package code calls them, and they are kept only as trace targets of the
benchmark harness until it reads in-package spans (ROADMAP item 1).

Point counts above p = 229 use the baby-step giant-step method of Shanks and
Mestre on E and its quadratic twist E' (Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 7.4.12; Schoof, "Counting points on elliptic
curves over finite fields", 1995, section 3).  Mestre's theorem guarantees
that for p > 229 the group exponent of E or of E' has a single multiple in
the Hasse interval; at and below that the square-table loop counts.

The baby steps store x(i*Q) for 1 <= i <= s, and an x names both i*Q and
-i*Q, so one giant step decides 2s + 1 candidate orders and the giant
stride is (2s + 1)*Q.  The first giant step is the multiple of the stride
whose window holds the lowest candidate, one scalar multiplication of about
log2(p / s) doublings.  The baby and giant loops add affine points inline,
one modular inversion each; ``_add`` and ``_mul`` serve the scalar
multiples.
"""

from math import isqrt
from operator import mul

BACKEND = "python"

# Largest prime for which Mestre's theorem may fail; counted naively.
MESTRE_BOUND = 229


def count_points(p: int, a4: int, a6: int) -> int:
    """Number of points of y^2 = x^3 + a4*x + a6 over F_p, infinity included.

    Caller is responsible for p being an odd prime and the curve
    nonsingular.

    x = 0, 1, 2, ... is walked with c = x^3 + a4*x + a6 != 0.  The point
    (x*c, c^2) lies on y^2 = x^3 + a4*c^2*x + a6*c^3, which is E when c is
    a square and the twist E' otherwise.  For each of the two groups a
    running lcm of point orders is kept; the walk stops when one has a
    single multiple in the Hasse interval [p + 1 - 2 sqrt(p), p + 1 +
    2 sqrt(p)], and #E + #E' = 2p + 2 turns a count of E' into #E.
    """
    if p <= MESTRE_BOUND:
        return _count_points_naive(p, a4, a6)
    width = isqrt(4 * p)
    low, high = p + 1 - width, p + 1 + width
    half = (p - 1) // 2
    lcm = {True: 1, False: 1}  # keyed by "c is a square", i.e. E or E'
    for x in range(p):
        c = (x * x * x + a4 * x + a6) % p
        if c == 0:
            continue
        on_e = pow(c, half, p) == 1
        pt, a = (x * c % p, c * c % p), a4 * c * c % p
        ks = _annihilators(pt, a, p, lcm[on_e], low, high)
        if len(ks) == 1:
            return ks[0] if on_e else 2 * p + 2 - ks[0]
        if len(ks) > 1:
            lcm[on_e] = ks[1] - ks[0]
    raise ArithmeticError(f"no point count decided for p = {p}, a4 = {a4}, a6 = {a6}")


def _count_points_naive(p: int, a4: int, a6: int) -> int:
    """count_points by one pass over x with a precomputed square table."""
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] = 1
    n = 1
    for x in range(p):
        v = (x * x % p * x + a4 * x + a6) % p
        if v == 0:
            n += 1
        elif squares[v]:
            n += 2
    return n


def _annihilators(pt: tuple, a: int, p: int, m: int, low: int, high: int) -> list:
    """Every k in [low, high] with m | k and k*pt = O, ascending.

    These are the multiples of lcm(m, order of pt) in the interval, so two
    consecutive ones differ by that lcm.  pt is an affine point of
    y^2 = x^3 + a*x + b over F_p; b is never needed.  With Q = m*pt the k
    are the m*u, u in [low/m, high/m], with u*Q = O.

    Baby steps store x(i*Q) -> (i, y(i*Q)) for 1 <= i <= s, s =
    isqrt(top // 2) + 1 where top + 1 is the number of such u.  A point
    whose x is stored is +i*Q or -i*Q, told apart by y, so one giant step
    G = w*L*Q, L = 2s + 1, decides all L of the u in [w*L - s, w*L + s]:
    u*Q = O for u = w*L - i when G = i*Q, for u = w*L + i when G = -i*Q
    (both when y = 0), and for u = w*L when G = O.  The giant steps start
    at the w whose window holds the least u, from w*S with S = L*Q, and
    add S.  If Q has order at most 2s + 1, seen as i*Q = O or a repeated x
    among the baby steps (i*Q = -j*Q: order i + j) or as S = O (order
    2s + 1), the u are the multiples of that order and no giant step is
    taken.
    """
    n0 = -(-low // m)  # the least u
    top = high // m - n0
    q = _mul(m, pt, a, p)
    s = isqrt(top // 2) + 1
    baby = {}  # x(i*Q) -> (i, y(i*Q)); the x are kept distinct
    order = 0
    if q is None:
        order = 1
    else:
        xq, yq = x, y = q
        baby[x] = (1, y)
        for i in range(2, s + 1):  # (x, y) = (i - 1)*Q; add Q
            if x == xq:  # only at i = 2, since the stored x are distinct
                if y == 0:
                    order = 2
                    break
                lam = (3 * x * x + a) * pow(2 * y, -1, p) % p
            else:
                lam = (y - yq) * pow(x - xq, -1, p) % p
            x3 = (lam * lam - x - xq) % p
            x, y = x3, (lam * (x - x3) - y) % p
            if x in baby:  # i*Q = -j*Q for the stored j < i
                order = i + baby[x][0]
                break
            baby[x] = (i, y)
        else:
            big = _add(_add((x, y), (x, y), a, p), q, a, p)  # S = 2*(s*Q) + Q
            if big is None:
                order = 2 * s + 1
    if order:
        return list(range(-(-n0 // order) * order * m, high + 1, order * m))
    span = 2 * s + 1  # L
    w = (n0 + s) // span  # its window [w*L - s, w*L + s] holds n0
    g = _mul(w, big, a, p)
    xs, ys = big
    mid, stride, reach = w * span * m, span * m, s * m  # k = m * u
    ks = []
    while True:
        if g is None:
            ks.append(mid)
        else:
            x, y = g
            hit = baby.get(x)
            if hit:
                i, yi = hit
                if yi == y:
                    ks.append(mid - i * m)
                if (yi + y) % p == 0:
                    ks.append(mid + i * m)
        mid += stride
        if mid - reach > high:
            return [k for k in ks if low <= k <= high]
        if g is None or x == xs:  # G = O, S or -S
            g = _add(g, big, a, p)
        else:
            lam = (ys - y) * pow(xs - x, -1, p) % p
            x3 = (lam * lam - x - xs) % p
            g = x3, (lam * (x - x3) - y) % p


def _add(u, v, a: int, p: int):
    """u + v on y^2 = x^3 + a*x + b over F_p in affine coordinates; None is
    the point at infinity."""
    if u is None:
        return v
    if v is None:
        return u
    x1, y1 = u
    x2, y2 = v
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(k: int, u, a: int, p: int):
    """k*u by double-and-add, k >= 0."""
    acc = None
    while k:
        if k & 1:
            acc = _add(acc, u, a, p)
        k >>= 1
        if k:
            u = _add(u, u, a, p)
    return acc


def bareiss(rows: list[list[int]]) -> tuple:
    """One fraction-free (Bareiss) elimination pass over an integer matrix.

    Returns (pivots, swaps), pivots a tuple.  Columns are taken left to
    right; a column with no nonzero entry at or below the current row is
    skipped, otherwise the first such row is exchanged up (one swap) and its
    entry becomes the next pivot.  Every intermediate entry is a minor of the
    input, so the interior divisions are exact and entry growth stays
    polynomial.  A row whose entry in the pivot column is 0 is left as it
    is when the pivot equals the previous one, since the update would not
    change it: an identity-like matrix costs little more than its pivot
    search.

    What the pass determines:

    * ``len(pivots)`` is the rank over Q;
    * for a square n x n matrix of rank n, ``(-1)**swaps * pivots[-1]`` is
      the determinant;
    * if ``swaps == 0`` and ``len(pivots) == n``, the k-th pivot is the
      leading principal minor of order k (a zero leading minor forces an
      exchange or a skipped column).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [list(r) for r in rows]
    pivots = []
    swaps = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = row
        while piv < nrows and a[piv][col] == 0:
            piv += 1
        if piv == nrows:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            swaps += 1
        pivot = a[row][col]
        row_p = a[row]
        for i in range(row + 1, nrows):
            row_i = a[i]
            aic = row_i[col]
            if aic or pivot != prev:  # else the update leaves the row as it is
                for j in range(col + 1, ncols):
                    row_i[j] = (pivot * row_i[j] - aic * row_p[j]) // prev
                row_i[col] = 0
        pivots.append(pivot)
        prev = pivot
        row += 1
    return tuple(pivots), swaps


def bareiss_symmetric(rows: list[list[int]]):
    """The :func:`bareiss` pass of a symmetric integer matrix, on its upper
    triangle and its fill only.

    Returns ``(pivots, 0)``, equal to ``bareiss(rows)``, when every leading
    principal minor is nonzero, and None at the first zero one, where
    :func:`bareiss` would exchange rows or skip a column.  No row is
    exchanged, so every intermediate matrix is symmetric: only entries
    (i, j) with j >= i are kept, and the multiplier of row i at pivot k is
    the pivot row's entry (k, i).  A row whose multiplier is 0 is not
    visited.  Left alone, its update would only have scaled it by
    pivot / prev, and these factors telescope, so the row keeps the value
    of ``prev`` at which it was last current and is scaled by prev / that
    value once, when it is next used.  Its entries are minors of the input,
    so that division is exact.  A tridiagonal or identity Gram matrix costs
    O(n^2) this way, not O(n^3).
    """
    n = len(rows)
    a = [list(r) for r in rows]  # only entries (i, j >= i) are read or written
    level = [1] * n  # the prev at which each row was last current
    pivots = []
    prev = 1
    for k in range(n):
        row_k = a[k]
        last = level[k]
        if last != prev:
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // last
        pivot = row_k[k]
        if not pivot:
            return None
        for i in range(k + 1, n):
            m = row_k[i]  # = entry (i, k), the multiplier of row i
            if m:
                row_i = a[i]
                last = level[i]
                if last == prev:
                    for j in range(i, n):
                        row_i[j] = (pivot * row_i[j] - m * row_k[j]) // prev
                else:  # scaled to prev and updated in one pass
                    x, y, z = pivot * prev, m * last, last * prev
                    for j in range(i, n):
                        row_i[j] = (x * row_i[j] - y * row_k[j]) // z
                level[i] = pivot
        pivots.append(pivot)
        prev = pivot
    return tuple(pivots), 0


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, read off :func:`bareiss`."""
    pivots, swaps = bareiss(rows)
    if len(pivots) < len(rows):
        return 0
    return (-1) ** swaps * pivots[-1] if rows else 1


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Q, read off :func:`bareiss`."""
    return len(bareiss(rows)[0])


def charpoly_int(rows: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(T*I - m) of an integer matrix.

    Berkowitz's division-free algorithm, iterating over trailing principal
    submatrices.  Returns coefficients in ascending degree order with leading
    coefficient 1 (a list of length n + 1).
    """
    n = len(rows)
    poly = [1]
    for k in range(1, n + 1):
        i0 = n - k
        corner = rows[i0][i0]
        # Transfer vector [1, -corner, -R C, -R B C, ..., -R B^(k-2) C]
        # for the block split (corner, R; C, B) of the trailing k x k part.
        v = [1, -corner]
        if k > 1:
            r = rows[i0][i0 + 1:]
            w = [rows[i][i0] for i in range(i0 + 1, n)]
            b = [row[i0 + 1:] for row in rows[i0 + 1:]]
            v.append(-sum(map(mul, r, w)))
            for _ in range(k - 2):
                w = [sum(map(mul, row, w)) for row in b]
                v.append(-sum(map(mul, r, w)))
        # new[i] = sum_j v[i - j] * poly[j], the first k + 1 terms of v * poly
        poly = [sum(map(mul, v[i::-1], poly)) for i in range(k + 1)]
    poly.reverse()
    return poly
