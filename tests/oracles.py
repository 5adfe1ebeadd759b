"""Independent reference implementations used to freeze expected values.

Deliberately different algorithms from the package: cofactor expansion over
a polynomial ring instead of Berkowitz, dividing Gaussian elimination over
Fraction instead of fraction-free, an O(p^2) double loop instead of the
square-table point counter, a minimal-slope sweep instead of a monotone
chain, and spanning trees enumerated one by one instead of a Laplacian
cofactor.  Slow and only used at tiny sizes.
"""

from fractions import Fraction
from itertools import combinations


def poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def poly_scale(a, c):
    return [c * x for x in a]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _det_poly(mat):
    """Cofactor expansion of a matrix of polynomials (coefficient lists)."""
    n = len(mat)
    if n == 0:
        return [1]
    if n == 1:
        return mat[0][0]
    total = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = poly_mul(mat[0][j], _det_poly(minor))
        if j % 2:
            term = poly_scale(term, -1)
        total = poly_add(total, term)
    return total


def charpoly_cofactor(rows):
    """det(T*I - m) by cofactor expansion; ascending coefficients."""
    n = len(rows)
    mat = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(n)]
        for i in range(n)
    ]
    coeffs = _det_poly(mat)
    coeffs += [0] * (n + 1 - len(coeffs))
    return [Fraction(c) for c in coeffs]


def charpoly_leverrier(rows):
    """det(T*I - m) by the Faddeev-LeVerrier trace recursion over Fraction;
    ascending coefficients.  Independent of both Berkowitz and cofactors."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # m <- a @ m + c_(n-k+1)*I  is folded in: first multiply, then shift
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def rank_gauss(rows):
    """Rank over Q by plain dividing Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(nrows):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def count_points_xy(p, a4, a6):
    """#E(F_p) by the full (x, y) double loop, plus infinity."""
    n = 1
    for x in range(p):
        rhs = (x ** 3 + a4 * x + a6) % p
        for y in range(p):
            if (y * y) % p == rhs:
                n += 1
    return n


def newton_slopes_sweep(coeffs, p):
    """Eigenvalue-valuation multiset by a minimal-slope sweep of the
    (index, valuation) cloud; ascending list."""

    def val(c):
        c = Fraction(c)
        v = 0
        num, den = abs(c.numerator), c.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    points = [(i, val(c)) for i, c in enumerate(coeffs) if c != 0]
    slopes = []
    cur = points[0]
    while cur != points[-1]:
        best = None
        for pt in points:
            if pt[0] <= cur[0]:
                continue
            s = Fraction(pt[1] - cur[1], pt[0] - cur[0])
            if best is None or s < best[0] or (s == best[0] and pt[0] > best[1][0]):
                best = (s, pt)
        s, nxt = best
        slopes.extend([-s] * (nxt[0] - cur[0]))
        cur = nxt
    return sorted(slopes)


def spanning_trees_brute(vertex_ids, edges):
    """Number of spanning trees of a connected multigraph: every (V-1)-subset
    of the non-loop (tail, head) edges that union-find shows to be acyclic."""
    links = [(t, h) for t, h in edges if t != h]
    count = 0
    for subset in combinations(links, len(vertex_ids) - 1):
        parent = {v: v for v in vertex_ids}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for t, h in subset:
            a, b = find(t), find(h)
            if a == b:
                acyclic = False
                break
            parent[a] = b
        count += acyclic
    return count
