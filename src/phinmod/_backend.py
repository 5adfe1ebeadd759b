"""Kernels: integer matrix elimination and elliptic-curve point counts.

All matrix kernels take row-major ``list[list[int]]`` and use exact integer
arithmetic throughout, so intermediate values never leave the integers.
There are two: :func:`bareiss`, the one fraction-free elimination pass whose
pivots give rank, determinant and the leading principal minors, and
:func:`charpoly_int`, Berkowitz's division-free characteristic polynomial.
``det_int`` and ``rank_int`` only read the result of :func:`bareiss`; no
package code calls them, and they are kept only as trace targets of the
benchmark harness until it reads in-package spans (ROADMAP item 1).

Point counts above p = 229 use the baby-step giant-step method of Shanks and
Mestre on E and its quadratic twist E' (Cohen, "A Course in Computational
Algebraic Number Theory", Alg. 7.4.12; Schoof, "Counting points on elliptic
curves over finite fields", 1995, section 3).  Mestre's theorem guarantees
that for p > 229 the group exponent of E or of E' has a single multiple in
the Hasse interval; at and below that the square-table loop counts.
"""

from math import isqrt

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
    y^2 = x^3 + a*x + b over F_p; b is never needed.  With Q = m*pt and
    R = k0*pt, k0 the least multiple of m in the interval, the k are
    k0 + t*m for the t in [0, top] with R + t*Q = O; baby steps store
    x(i*Q) for 0 < i < s, giant steps walk R + j*s*Q and match
    R + j*s*Q = -i*Q.
    """
    k0 = -(-low // m) * m
    top = (high - k0) // m
    q = _mul(m, pt, a, p)
    r = _mul(k0 // m, q, a, p)
    s = isqrt(top) + 1
    baby = {}  # x(i*Q) -> (i, y(i*Q)); the x are kept distinct
    step = None
    order = 0
    for i in range(1, s):
        step = _add(step, q, a, p)
        if step is None:
            order = i
            break
        if step[0] in baby:  # i*Q = -j*Q for the stored j < i
            order = i + baby[step[0]][0]
            break
        baby[step[0]] = (i, step[1])
    if order:
        # Q has small order: walk to the first t with R + t*Q = O; the
        # others follow every ``order`` steps.
        for t in range(order):
            if r is None:
                return list(range(k0 + t * m, high + 1, order * m))
            r = _add(r, q, a, p)
        return []
    stride = _add(step, q, a, p)  # s*Q
    ks = []
    for j in range(top // s + 1):
        if r is None:
            ks.append(k0 + j * s * m)
        elif r[0] in baby:
            i, y = baby[r[0]]
            if (y + r[1]) % p == 0 and j * s + i <= top:
                ks.append(k0 + (j * s + i) * m)
        r = _add(r, stride, a, p)
    return ks


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
    polynomial.

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
            for j in range(col + 1, ncols):
                row_i[j] = (pivot * row_i[j] - aic * row_p[j]) // prev
            row_i[col] = 0
        pivots.append(pivot)
        prev = pivot
        row += 1
    return tuple(pivots), swaps


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
        m = k - 1
        corner = rows[i0][i0]
        # Transfer vector [1, -corner, -R C, -R B C, ..., -R B^(m-1) C]
        # for the block split (corner, R; C, B) of the trailing k x k part.
        v = [1, -corner]
        if m:
            r = rows[i0][i0 + 1:]
            w = [rows[i][i0] for i in range(i0 + 1, n)]
            for step in range(m):
                s = 0
                for j in range(m):
                    s += r[j] * w[j]
                v.append(-s)
                if step < m - 1:
                    w = [
                        sum(rows[i0 + 1 + i][i0 + 1 + j] * w[j] for j in range(m))
                        for i in range(m)
                    ]
        new = [0] * (k + 1)
        for i in range(k + 1):
            s = 0
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                s += v[i - j] * poly[j]
            new[i] = s
        poly = new
    poly.reverse()
    return poly
