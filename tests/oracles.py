"""Independent reference implementations used to freeze expected values.

Deliberately different algorithms from the package: cofactor expansion over
a polynomial ring, and reduction to Hessenberg form over Fraction, instead
of Berkowitz, dividing Gaussian elimination over
Fraction instead of fraction-free, an O(p^2) double loop and a character
sum by Euler's criterion instead of baby-step giant-step point counting, a
minimal-slope sweep instead of a monotone chain, spanning trees enumerated
one by one instead of a Laplacian cofactor, one tree search per cycle and
dense edge vectors instead of root paths and sparse supports, one
determinant per leading minor instead of a single Bareiss pass, trial
division instead of Miller-Rabin, the functional equation stated at all
2g + 1 indices instead of its g independent ones.  Slow and only used at
tiny sizes.  Three oracles of shortcuts are the package's own code without
the shortcut: ``bareiss_unskipped``, the Bareiss pass with every row
updated, ``resolve_by_validation``, which sends the genus-0 and elliptic
component blocks through the general Weil gate and certifies a matrix
block with ``certify_berkowitz``, and ``certify_berkowitz``, the Weil
certificate with every characteristic polynomial computed (by Hessenberg
reduction) and every archimedean condition above 2 x 2 certified by the
Sturm sequence, a 4 x 4 one too.

The dense (phi, N)-module below is the construction the package replaced by
block storage: full d x d matrices for phi, N and the duality pairing, and
the identities checked by full-size products of row lists, the Hessenberg
characteristic polynomial of phi, and det and rank of the full matrices by
dividing Gaussian elimination.  Its polygons come from the minimal-slope
sweep of that polynomial, and "Newton on or above Hodge" compares the
partial sums of the two slope multisets at every integer point, not at the
breakpoints alone.  None of it calls a kernel of the package.  Unlike a
``PhiNModule``, which stores only its free blocks, ``dense_from_blocks``
takes any scalars for the weight-0 and weight-2 blocks of phi, any block
of N and any dim Fil^1, so its verdicts can fail where the package's are
forced.

``module_from_report`` reads a parsed report back into its block-stored
module with ``int`` and the dense construction alone: no command of the
package reads a report.

The matrix and polygon helpers that only tests need (identity, zero and
scalar matrices, sums and multiples, and a polygon's slope multiset and
heights) live here too.  The package keeps a slope as the lowest-terms
pair (num, den); the oracles compute with ``Fraction`` and meet the
package's pairs only through ``as_pair`` (out) and ``slope_multiset``
(in).

``report_dict`` is the report as the nested dict the package once built
and wrote with ``json.dumps``: plain lists, ``phi`` and ``n`` read off the
dense module.  It defines the report's bytes as
``json.dumps(report_dict(r), indent=2, sort_keys=True) + "\\n"``.

``read_by_field`` is the instance reader the package once kept to name a
fault: the whole file read field by field with ``isinstance`` tests and a
context string for every field, and each record built as soon as its
fields are read.  It is the message oracle of ``instance_from_json``: the
same record, or the same exception class and message, on any input.
"""

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd

import phinmod.weil_data as weil_data
from phinmod.builders import CurveInstance, UniformizationData, resolve_component
from phinmod.errors import SchemaError, WeilValidationError, clipped, clipped_key
from phinmod.exact_linalg import NewtonPolygon, QMatrix
from phinmod.graph_core import DualGraph
from phinmod.io_formats import FORMAT_NAME, instance_to_json
from phinmod.phin_module import PhiNModule, PolygonReport, RelationReport
from phinmod.weil_data import (
    DEFAULT_POINT_BOUND,
    MAX_ENTRY_DIGITS,
    EllipticCurveSpec,
    check_weil_size,
    direct_sum,
)


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


def charpoly_hessenberg(rows):
    """det(T*I - m) over Fraction, ascending coefficients: reduce m to upper
    Hessenberg form H by similarity, then run the recurrence on the leading
    principal submatrices of H (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9)."""
    n = len(rows)
    h = [[Fraction(x) for x in r] for r in rows]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if i is None:
            continue
        if i != m:  # swap rows i and m, then columns i and m
            h[i], h[m] = h[m], h[i]
            for r in h:
                r[i], r[m] = r[m], r[i]
        t = h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] / t
            if u:  # row i -= u * row m, then column m += u * column i
                h[i] = [x - u * y for x, y in zip(h[i], h[m])]
                for r in h:
                    r[m] += u * r[i]
    # chis[k] = det(T*I - H_k), H_k the leading k x k submatrix of H
    chis = [[Fraction(1)]]
    for m in range(n):
        chi = poly_add([0] + chis[m], poly_scale(chis[m], -h[m][m]))
        t = Fraction(1)
        for i in range(m - 1, -1, -1):
            t *= h[i + 1][i]
            chi = poly_add(chi, poly_scale(chis[i], -h[i][m] * t))
        chis.append(chi)
    return chis[n]


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


def count_points_euler(p, a4, a6):
    """#E(F_p) as p + 1 + sum over x of the quadratic character of
    x^3 + a4*x + a6, the character by Euler's criterion."""
    n = p + 1
    for x in range(p):
        c = pow(x ** 3 + a4 * x + a6, (p - 1) // 2, p)
        n += 1 if c == 1 else -1 if c else 0
    return n


def hasse_scan(p):
    """Scan every nonsingular (a4, a6) over F_p; return (#curves, max a^2 - 4p).

    The trace a = p + 1 - #points of each curve comes from one pass over x
    with a table of squares; the second component is nonpositive exactly
    when every curve satisfies the a^2 <= 4p bound.
    """
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] = 1
    cubes = [x * x % p * x % p for x in range(p)]
    ncurves = 0
    worst = -(4 * p)
    for a4 in range(p):
        a4cubed = 4 * a4 * a4 % p * a4 % p
        for a6 in range(p):
            if (a4cubed + 27 * a6 * a6) % p == 0:
                continue
            ncurves += 1
            n = 1
            for x in range(p):
                v = (cubes[x] + a4 * x + a6) % p
                if v == 0:
                    n += 1
                elif squares[v]:
                    n += 2
            a = p + 1 - n
            worst = max(worst, a * a - 4 * p)
    return ncurves, worst


def valuation(c, p):
    """v_p of a nonzero rational c by repeated division."""
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


def newton_slopes_sweep(coeffs, p):
    """Eigenvalue-valuation multiset by a minimal-slope sweep of the
    (index, valuation) cloud; ascending list."""
    points = [(i, valuation(c, p)) for i, c in enumerate(coeffs) if c != 0]
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


def monodromy_gram_dense(g):
    """(cycles, gram) of a DualGraph: the fundamental cycles of the spanning
    tree grown over edges in ascending id order, as dense edge vectors found
    by one tree search per non-tree edge, and their Gram matrix of
    coordinatewise dot products.  The construction the package replaced by
    root paths and sparse cycle supports."""
    parent = {v.id: v.id for v in g.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree = set()
    for e in sorted(g.edges, key=lambda e: e.id):
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            tree.add(e.id)
    index = {e.id: k for k, e in enumerate(g.edges)}
    adj = {v.id: [] for v in g.vertices}
    for e in g.edges:
        if e.id in tree:
            adj[e.tail].append((e.head, e.id, 1))
            adj[e.head].append((e.tail, e.id, -1))

    def tree_path(src, dst):
        """(edge id, sign) steps from src to dst inside the tree."""
        prev = {src: None}
        stack = [src]
        while stack:
            u = stack.pop()
            if u == dst:
                break
            for w, eid, sgn in adj[u]:
                if w not in prev:
                    prev[w] = (u, eid, sgn)
                    stack.append(w)
        steps = []
        u = dst
        while prev[u] is not None:
            u, eid, sgn = prev[u]
            steps.append((eid, sgn))
        return steps

    cycles = []
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in tree:
            continue
        vec = [0] * len(g.edges)
        vec[index[e.id]] = 1
        for eid, sgn in tree_path(e.head, e.tail):
            vec[index[eid]] += sgn
        cycles.append(tuple(vec))
    gram = [[sum(x * y for x, y in zip(a, b)) for b in cycles] for a in cycles]
    return cycles, gram


def det_gauss(rows):
    """Determinant by dividing Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                factor = a[i][col] / a[col][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return result


def spanning_trees_dense(g):
    """Number of spanning trees of a connected DualGraph: det_gauss of the
    Laplacian with the first vertex's row and column struck out, loops
    dropped and parallel edges counted separately.  The dense count the
    package replaced by sparse elimination modulo a prime."""
    index = {v.id: k for k, v in enumerate(g.vertices)}
    n = len(index)
    lap = [[0] * n for _ in range(n)]
    for e in g.edges:
        a, b = index[e.tail], index[e.head]
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    return det_gauss([row[1:] for row in lap[1:]])


def bareiss_unskipped(rows):
    """The fraction-free elimination pass of ``phinmod._backend.bareiss``
    without its zero-multiplier skip: every row below the pivot is updated,
    entry by entry.  (pivots, swaps) must come out the same."""
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
        for i in range(row + 1, nrows):
            aic = a[i][col]
            for j in range(col + 1, ncols):
                a[i][j] = (pivot * a[i][j] - aic * a[row][j]) // prev
            a[i][col] = 0
        pivots.append(pivot)
        prev = pivot
        row += 1
    return tuple(pivots), swaps


def positive_definite_sylvester(rows):
    """Symmetric and every leading principal minor, each computed by its own
    determinant, positive."""
    n = len(rows)
    symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
    return symmetric and all(
        det_gauss([r[:k] for r in rows[:k]]) > 0 for k in range(1, n + 1)
    )


def is_prime_trial(n):
    """Primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def resolve_by_validation(src, p, f, bound):
    """A component block the general way.  The genus-0 and the elliptic
    source go through ``validate_weil``, an elliptic one as the companion
    matrix of its counted trace; the counter is looked up on its module, so
    a patched one serves this path too.  A matrix source passes the
    package's input caps (``check_q``, squareness, ``check_weil_size``,
    evenness, ``check_entry_digits``) and is then accepted or refused by
    ``certify_berkowitz`` on the whole matrix, never by ``validate_weil``:
    it is kept as its ``finest_blocks``, with that one chi as its factor."""
    if src is None:
        return weil_data.validate_weil(QMatrix(0, 0, ()), p, f)
    if isinstance(src, weil_data.EllipticCurveSpec):
        _, a = weil_data.count_points(src, bound)
        return weil_data.validate_weil(QMatrix.from_rows([[0, -src.p], [1, a]]), src.p, 1)
    weil_data.check_q(p, f)
    if not src.is_square:
        raise WeilValidationError("Weil matrix must be square")
    check_weil_size(src.rows)
    if src.rows % 2:
        raise WeilValidationError(f"Weil matrix has odd size {src.rows}")
    weil_data.check_entry_digits(src)
    rows = src.to_rows()
    if not rows:
        return weil_data.WeilMatrix(p, f, (), ())
    chi = certify_berkowitz(rows, p ** f)
    return weil_data.WeilMatrix(p, f, finest_blocks(rows), (tuple(chi),))


def functional_equation_all_indices(coeffs, q, g):
    """The weight-1 functional equation of the ascending coefficients of a
    monic degree-2g polynomial, stated at every index i in 0..2g as
    a_i * q^i == a_(2g-i) * q^g."""
    return all(coeffs[i] * q ** i == coeffs[2 * g - i] * q ** g for i in range(2 * g + 1))


def _digit_count(n):
    """Decimal digits of |n|, counted a thousand at a time, since ``str``
    refuses an int of over 4300 digits."""
    n, k, chunk = abs(n), 0, 10 ** 1000
    while n >= chunk:
        n //= chunk
        k += 1000
    return k + len(str(n))


def _shown(n):
    k = _digit_count(n)
    return str(n) if k <= 60 else f"{'-' if n < 0 else ''}<{k}-digit integer>"


def certify_berkowitz(rows, q):
    """The Weil certificate of the even-sized square integer matrix ``rows``
    in its general form: chi by Hessenberg reduction whatever the size,
    det = q^g, the functional equation at every index, then trace^2 <= 4q
    for a 2 x 2 matrix and the package's Sturm certificate above.  Returns
    chi, ascending, or raises WeilValidationError with the package's
    messages."""
    n = len(rows)
    g = n // 2
    chi = charpoly_hessenberg(rows)
    assert all(c.denominator == 1 for c in chi)
    chi = [int(c) for c in chi]
    if chi[0] != q ** g:
        raise WeilValidationError(
            f"Weil validation failed: det = {_shown(chi[0])} != q^g = {_shown(q ** g)}"
        )
    if not functional_equation_all_indices(chi, q, g):
        raise WeilValidationError(
            "Weil validation failed: characteristic polynomial violates the "
            "functional equation"
        )
    if n == 2:
        trace = rows[0][0] + rows[1][1]
        if trace * trace > 4 * q:
            raise WeilValidationError(
                f"Weil validation failed: archimedean check, trace^2 = "
                f"{_shown(trace * trace)} > 4q = {4 * q}"
            )
    elif not weil_data._archimedean_holds(chi, q, g):
        raise WeilValidationError(
            "Weil validation failed: archimedean check, not every eigenvalue "
            "has absolute value sqrt(q)"
        )
    return chi


# -- matrices and polygons that only tests build ------------------------------

def as_pair(x):
    """The lowest-terms (num, den), den >= 1, of an exact scalar (an int
    or a Fraction): the package's form of a slope."""
    x = Fraction(x)
    return (x.numerator, x.denominator)


def identity(n):
    return scalar(n, 1)


def conjugated(rows, shears):
    """The integer square matrix ``rows`` conjugated by E = I + c e_ij for
    each (i, j, c), i != j, of ``shears``: row i gains c times row j, then
    column j loses c times column i.  Each E is unimodular, so chi and the
    Weil verdict are kept."""
    m = [list(r) for r in rows]
    for i, j, c in shears:
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for r in m:
            r[j] -= c * r[i]
    return m


def zeros(rows, cols):
    return QMatrix(rows, cols, (0,) * (rows * cols))


def scalar(n, c):
    """c * I_n for an integer c."""
    return QMatrix(n, n, tuple(c if i == j else 0 for i in range(n) for j in range(n)))


def add(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return QMatrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def scale(m, c):
    """c * m for an integer c."""
    return QMatrix(m.rows, m.cols, tuple(c * x for x in m.entries))


def is_lowest_terms(pair):
    """Whether pair is (num, den) of ints with den >= 1 and gcd 1."""
    num, den = pair
    return type(num) is int and type(den) is int and den >= 1 and gcd(num, den) == 1


def slope_multiset(polygon):
    """The slopes of a polygon, each (num, den) read as a Fraction, as
    often as its multiplicity."""
    return [Fraction(*s) for s, k in polygon.slopes for _ in range(k)]


def symmetric_slopes(polygon):
    """Whether the slope multiset is its own image under s -> 1 - s."""
    slopes = slope_multiset(polygon)
    return sorted(slopes) == sorted(1 - s for s in slopes)


def heights(polygon):
    """Partial sums of the sorted slope multiset: the polygon's vertices at
    every integer point."""
    out = [Fraction(0)]
    for s in slope_multiset(polygon):
        out.append(out[-1] + s)
    return out


# -- the dense (phi, N)-module ------------------------------------------------

@dataclass(frozen=True)
class DenseModule:
    p: int
    f: int
    dims: tuple  # (w0, w1, w2)
    phi: QMatrix
    n: QMatrix
    fil1_dim: int
    gram: QMatrix

    @property
    def q(self):
        return self.p ** self.f

    @property
    def dimension(self):
        return sum(self.dims)


def block_sum_rows(blocks):
    """Row lists of the block-diagonal sum of the square ``blocks``, set
    entry by entry in plain nested lists, sharing no code with
    QMatrix.block_diag."""
    n = sum(b.rows for b in blocks)
    rows = [[0] * n for _ in range(n)]
    o = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[o + i][o + j] = b[i, j]
        o += b.rows
    return rows


def dense_weil(w):
    """The matrix of a WeilMatrix, from its blocks."""
    return _matrix(block_sum_rows(w.blocks))


def finest_blocks(rows):
    """The finest contiguous diagonal blocks of the square row list
    ``rows``, as QMatrix.  far[i] is the largest index tied to i by a
    nonzero entry of row i or column i; the matrix splits after k exactly
    when no index up to k is tied beyond k."""
    n = len(rows)
    far = [max([i] + [j for j in range(n) if rows[i][j] or rows[j][i]]) for i in range(n)]
    blocks, start, reach = [], 0, -1
    for k in range(n):
        reach = max(reach, far[k])
        if reach == k:
            blocks.append(_matrix([r[start:k + 1] for r in rows[start:k + 1]]))
            start = k + 1
    return tuple(blocks)


def dense_from_blocks(p, f, phi0, phi1_blocks, phi2, n02, fil1_dim, gram):
    """Full matrices phi = diag(phi0 * I, phi1, phi2 * I) and N with n02 in
    the weight-0 rows and weight-2 columns, phi1 the block sum of
    ``phi1_blocks``."""
    w0 = w2 = n02.rows
    phi1 = block_sum_rows(phi1_blocks)
    w1 = len(phi1)
    d = w0 + w1 + w2
    phi_rows = [[0] * d for _ in range(d)]
    for k in range(w0):
        phi_rows[k][k] = phi0
    for i in range(w1):
        phi_rows[w0 + i][w0:w0 + w1] = phi1[i]
    for k in range(w0 + w1, d):
        phi_rows[k][k] = phi2
    rows = [[0] * d for _ in range(d)]
    for i in range(w0):
        for j in range(w2):
            rows[i][w0 + w1 + j] = n02[i, j]
    phi = QMatrix.from_rows(phi_rows) if d else QMatrix(0, 0, ())
    n = QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())
    return DenseModule(p, f, (w0, w1, w2), phi, n, fil1_dim, gram)


def dense_assemble(p, f, gram, weil):
    """The dense module of a Gram matrix and validated Weil data."""
    return dense_from_blocks(
        p, f, 1, weil.blocks, p ** f, gram, gram.rows + weil.size // 2, gram
    )


def dense_module(m):
    """The full matrices of a block-stored PhiNModule: phi is 1, phi1 and q
    on the three weights, N is gram from weight 2 to weight 0, and dim
    Fil^1 is w2 plus half of w1."""
    w1 = sum(b.rows for b in m.phi1_blocks)
    return dense_from_blocks(m.p, m.f, 1, m.phi1_blocks, m.q, m.gram, m.gram.rows + w1 // 2,
                             m.gram)


def is_zero(m):
    """Whether every entry of the QMatrix ``m`` is 0."""
    return all(x == 0 for x in m.entries)


def mat_mul(a, b):
    """Product of two row lists by the textbook triple sum."""
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)] for row in a]


def dense_relations(m):
    """N^2 = 0, N phi = q phi N, phi invertible, rank N = w2 on the full
    matrices, as row lists."""
    phi, n = m.phi.to_rows(), m.n.to_rows()
    return RelationReport(
        n_squared_zero=all(x == 0 for row in mat_mul(n, n) for x in row),
        n_phi_commutation=mat_mul(n, phi) == [[m.q * x for x in row] for row in mat_mul(phi, n)],
        phi_invertible=det_gauss(phi) != 0,
        n_rank_is_torus_rank=rank_gauss(n) == m.dims[2],
    )


def _partial_sums(slopes):
    out = [Fraction(0)]
    for s in slopes:
        out.append(out[-1] + s)
    return out


def _merged(slopes):
    """(slope, multiplicity) pairs of an ascending slope list, each slope
    given as its (num, den) pair."""
    return NewtonPolygon(tuple((as_pair(s), len(list(run))) for s, run in groupby(slopes)))


def dense_hodge_newton(m):
    """Slopes of the characteristic polynomial of the full phi, by the
    minimal-slope sweep, against the Hodge slopes; "on or above" compares
    the partial sums of the two slope multisets at every integer point, and
    "symmetric" compares the slope multiset with its image under s -> 1 - s."""
    d = m.dimension
    coeffs = charpoly_hessenberg(m.phi.to_rows())
    if d and coeffs[0] == 0:
        raise ValueError("zero constant term: 0 is an eigenvalue")
    newton = [Fraction(s) / m.f for s in newton_slopes_sweep(coeffs, m.p)]
    hodge = [0] * (d - m.fil1_dim) + [1] * m.fil1_dim
    if len(hodge) != d:
        raise ValueError("polygons have different dimensions")
    t_newton = Fraction(valuation(det_gauss(m.phi.to_rows()), m.p), m.f) if d else Fraction(0)
    return PolygonReport(
        t_newton=as_pair(t_newton),
        t_hodge=m.fil1_dim,
        newton=_merged(newton),
        hodge=_merged(hodge),
        endpoints_equal=(t_newton == m.fil1_dim),
        newton_on_or_above_hodge=all(
            a >= b for a, b in zip(_partial_sums(newton), _partial_sums(hodge))
        ),
        newton_symmetric=sorted(newton) == sorted(1 - s for s in newton),
    )


def duality_pairing(m):
    """Block-anti-diagonal pairing with the dual-side module:
    <w0, w2'> = <w1, w1'> = <w2, w0'> = identity, all other blocks zero."""
    w0, w1, w2 = m.dims
    d = m.dimension
    rows = [[0] * d for _ in range(d)]
    for i in range(w0):
        rows[i][w0 + w1 + i] = 1
    for i in range(w1):
        rows[w0 + i][w0 + i] = 1
    for i in range(w2):
        rows[w0 + w1 + i][i] = 1
    return QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())


def monodromy_pairing_matrix(m):
    """Full-size matrix of the monodromy pairing: the pullback through the
    toric projections, so the only nonzero block is (w2, w2') = gram."""
    w0, w1, w2 = m.dims
    d = m.dimension
    rows = [[0] * d for _ in range(d)]
    for i in range(w2):
        for j in range(w2):
            rows[w0 + w1 + i][w0 + w1 + j] = m.gram[i, j]
    return QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())


def dense_duality(m):
    """P N' == monodromy pairing, with N' = N (self-dual inputs)."""
    return mat_mul(duality_pairing(m).to_rows(), m.n.to_rows()) == (
        monodromy_pairing_matrix(m).to_rows()
    )


def all_pass(relations):
    """Every verdict of a RelationReport passed."""
    return all(getattr(relations, name) for name in RelationReport._fields)


# -- a report read back -------------------------------------------------------

def _matrix(rows):
    return QMatrix.from_rows(rows) if rows else QMatrix(0, 0, ())


def module_from_report(report):
    """The PhiNModule of a parsed report's ``module`` block.

    Every number is read with ``int``, and ``phi`` and ``n`` are split into
    the blocks at the report's ``dims``, phi1 further into its
    ``finest_blocks``.  ``phi1_factors`` is the one factor
    ``charpoly_hessenberg`` of phi1.  When ``dense_from_blocks`` of the
    blocks does not give back ``phi`` or ``n`` (an entry outside the
    blocks, or a weight-0 or weight-2 block of phi that is not scalar), the
    report is not in block form, and ValueError names the matrix.  A
    module fixes the rest of its shape, so ValueError names the field too
    for a weight-0 scalar of phi other than 1, a weight-2 one other than q,
    a block of n other than gram, a fil1_dim other than w2 + w1 / 2, a
    matrix of the wrong size, ranks that are not (w, w1, w) with w1 even,
    or a q that is not a power p^f (f >= 1) of a prime.
    """
    mod = report["module"]
    p, f, fil1_dim = int(mod["p"]), int(mod["f"]), int(mod["fil1_dim"])
    if f < 1:
        raise ValueError(f"field 'module.f' = {f} must be >= 1")
    if not is_prime_trial(p):
        raise ValueError(f"field 'module.p' = {p} is not prime")
    w0, w1, w2 = (int(mod["dims"][w]) for w in ("w0", "w1", "w2"))
    if min(w0, w1, w2) < 0 or w0 != w2 or w1 % 2:
        raise ValueError(f"field 'module.dims' has bad ranks {(w0, w1, w2)}")
    if fil1_dim != w2 + w1 // 2:
        raise ValueError(f"field 'module.fil1_dim' = {fil1_dim} is not w2 + g = {w2 + w1 // 2}")
    d = w0 + w1 + w2
    rows = {name: [[int(x) for x in r] for r in mod[name]] for name in ("phi", "n", "gram")}
    for name, size in (("phi", d), ("n", d), ("gram", w2)):
        if len(rows[name]) != size or any(len(r) != size for r in rows[name]):
            raise ValueError(f"field 'module.{name}' is not {size}x{size}")
    phi, n = rows["phi"], rows["n"]
    phi1 = [r[w0:w0 + w1] for r in phi[w0:w0 + w1]]
    phi0, phi2 = phi[0][0] if w0 else 1, phi[-1][-1] if w2 else p ** f
    blocks, n02 = finest_blocks(phi1), _matrix([r[w0 + w1:] for r in n[:w0]])
    dense = dense_from_blocks(p, f, phi0, blocks, phi2, n02, fil1_dim, n02)
    for name in ("phi", "n"):
        if getattr(dense, name).to_rows() != rows[name]:
            raise ValueError(
                f"field 'module.{name}' is not in block form: an entry lies outside "
                "the weight blocks, or a weight-0 or weight-2 block is not scalar"
            )
    if phi0 != 1:
        raise ValueError(f"field 'module.phi' has weight-0 scalar {phi0}, not 1")
    if phi2 != p ** f:
        raise ValueError(f"field 'module.phi' has weight-2 scalar {phi2}, not q = {p ** f}")
    gram = _matrix(rows["gram"])
    if n02 != gram:
        raise ValueError("field 'module.n' has a weight-(0, 2) block other than 'module.gram'")
    chi = tuple(int(c) for c in charpoly_hessenberg(phi1))
    return PhiNModule(p, f, blocks, (chi,), gram)


# -- the report as a dict -----------------------------------------------------

def _verdict(ok):
    return "pass" if ok else "fail"


def _text(pair):
    """A (num, den) slope as ``str`` of its Fraction."""
    return str(Fraction(*pair))


def _text_rows(m):
    return [[str(x) for x in m.row(i)] for i in range(m.rows)]


def report_dict(report):
    """The report record ``report`` as a dict of strings and plain lists."""
    m, polygons = report.module, report.polygons
    dense = dense_module(m)
    w0, w1, w2 = m.dims
    checks = {
        "relations": {
            name: _verdict(getattr(report.relations, name)) for name in RelationReport._fields
        },
        "monodromy_duality": _verdict(report.duality),
        "polygons": {
            name: _verdict(getattr(polygons, name))
            for name in ("endpoints_equal", "newton_on_or_above_hodge", "newton_symmetric")
        },
    }
    if report.agreement is not None:
        checks["curve_jacobian_agreement"] = _verdict(report.agreement)
    return {
        "format": "phinmod-report-v1",
        "instance": instance_to_json(report.instance),
        "module": {
            "p": str(m.p),
            "f": str(m.f),
            "dims": {"w0": str(w0), "w1": str(w1), "w2": str(w2)},
            "fil1_dim": str(m.fil1_dim),
            "t_newton": _text(polygons.t_newton),
            "t_hodge": str(polygons.t_hodge),
            "newton_slopes": [[_text(s), str(k)] for s, k in polygons.newton.slopes],
            "hodge_slopes": [[_text(s), str(k)] for s, k in polygons.hodge.slopes],
            "phi": _text_rows(dense.phi),
            "n": _text_rows(dense.n),
            "gram": _text_rows(m.gram),
        },
        "checks": checks,
    }


# -- the field-by-field instance reader ---------------------------------------

# A matrix entry is a decimal integer; an integer field given as a string.
_ENTRY = re.compile(r"[+-]?[0-9]{1,%d}" % MAX_ENTRY_DIGITS)
INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _get(obj: Mapping, field: str, context: str):
    """obj[field]; ``context`` is the dotted path of obj plus a trailing dot."""
    # dict first: it is what JSON gives, and the ABC check costs ten times more
    if not isinstance(obj, dict) and not isinstance(obj, Mapping):
        raise SchemaError(f"field '{context[:-1]}' must be an object")
    if field not in obj:
        raise SchemaError(f"missing field '{context}{field}'")
    return obj[field]


def _get_list(obj: Mapping, field: str, context: str) -> list:
    value = _get(obj, field, context)
    if not isinstance(value, list):
        raise SchemaError(f"field '{context}{field}' must be an array")
    return value


def _get_str(obj: Mapping, field: str, context: str) -> str:
    value = _get(obj, field, context)
    if not isinstance(value, str):
        raise SchemaError(f"field '{context}{field}' must be a string")
    return value


def _as_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"field '{context}' must be an integer string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            if INT_TEXT.fullmatch(value):
                return int(value)
        except ValueError:  # beyond Python's int/str digit limit
            pass
        raise SchemaError(f"field '{context}' is not an integer: {clipped(value)}")
    raise SchemaError(f"field '{context}' must be an integer string")


def _parse_entry(x) -> int:
    s = str(x)
    if not _ENTRY.fullmatch(s):
        raise ValueError(
            f"{clipped(s)} is not a decimal integer of at most {MAX_ENTRY_DIGITS} digits"
        )
    return int(s)


def _parse_row(r: list) -> list:
    """One regex pass over a row of strings, then one map.  Any other row
    is read entry by entry, so its values and its first bad entry's
    message are the same."""
    try:
        if all(map(_ENTRY.fullmatch, r)):
            return list(map(int, r))
    except TypeError:  # an entry that is not a string
        pass
    return [_parse_entry(x) for x in r]


def matrix_from_strings(rows, context: str) -> QMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(f"field '{context}' must be an array of arrays")
    try:
        parsed = [_parse_row(r) for r in rows]
    except ValueError as exc:
        raise SchemaError(f"field '{context}' has a bad entry: {exc}") from None
    if not parsed:
        return QMatrix(0, 0, ())
    try:
        return QMatrix.from_rows(parsed)
    except ValueError as exc:
        raise SchemaError(f"field '{context}': {exc}") from None


def source_from_json(obj, p: int, context: str):
    if not isinstance(obj, Mapping):
        raise SchemaError(f"field '{context}' must be an object")
    kind = _get(obj, "type", context + ".")
    if kind == "genus0":
        return None
    if kind == "elliptic":
        return EllipticCurveSpec(
            p,
            _as_int(_get(obj, "a4", context + "."), context + ".a4"),
            _as_int(_get(obj, "a6", context + "."), context + ".a6"),
        )
    if kind == "matrix":
        entries = _get(obj, "entries", context + ".")
        if isinstance(entries, list):
            # validate_weil checks this too; here the message names the
            # field, and a large block is refused before it is parsed
            check_weil_size(len(entries), f"field '{context}.entries'")
        m = matrix_from_strings(entries, context + ".entries")
        if not m.is_square:
            raise SchemaError(f"field '{context}.entries' is {m.rows}x{m.cols}, not square")
        return m
    raise SchemaError(f"field '{context}.type' has unknown value {clipped(kind)}")


def read_by_field(obj, bound: int = DEFAULT_POINT_BOUND):
    """Parse and validate an instance file field by field; SchemaError
    names the bad field."""
    if not isinstance(obj, Mapping):
        raise SchemaError("instance file must be a JSON object")
    # an instance may omit its format; one that names it names this one
    if "format" in obj and obj["format"] != FORMAT_NAME:
        raise SchemaError(f"field 'format' must be {FORMAT_NAME!r}")
    kind = _get(obj, "kind", "")
    p = _as_int(_get(obj, "p", ""), "p")
    f = _as_int(_get(obj, "f", ""), "f")
    if kind == "curve":
        graph_obj = _get(obj, "graph", "")
        vertices = []
        for k, v in enumerate(_get_list(graph_obj, "vertices", "graph.")):
            vertices.append(
                (
                    _get_str(v, "id", f"graph.vertices[{k}]."),
                    _as_int(_get(v, "genus", f"graph.vertices[{k}]."), f"graph.vertices[{k}].genus"),
                )
            )
        edges = []
        for k, e in enumerate(_get_list(graph_obj, "edges", "graph.")):
            edges.append(
                (
                    _get_str(e, "id", f"graph.edges[{k}]."),
                    _get_str(e, "tail", f"graph.edges[{k}]."),
                    _get_str(e, "head", f"graph.edges[{k}]."),
                )
            )
        graph = DualGraph.build(vertices, edges)
        comp_obj = _get(obj, "components", "")
        if not isinstance(comp_obj, Mapping):
            raise SchemaError("field 'components' must be an object")
        components = {
            vid: source_from_json(src, p, f"components.{clipped_key(vid)}")
            for vid, src in comp_obj.items()
        }
        return CurveInstance(graph=graph, components=components, p=p, f=f)
    if kind == "av":
        torus_rank = _as_int(_get(obj, "torus_rank", ""), "torus_rank")
        gram = matrix_from_strings(_get(obj, "gram", ""), "gram")
        blocks = []
        for k, src_obj in enumerate(_get_list(obj, "b_frobenius", "")):
            src = source_from_json(src_obj, p, f"b_frobenius[{k}]")
            if isinstance(src, EllipticCurveSpec) and f != 1:
                raise SchemaError(
                    f"field 'b_frobenius[{k}]': elliptic sources require f = 1"
                )
            blocks.append(resolve_component(src, p, f, bound))
        b = direct_sum(blocks, p, f)
        return UniformizationData(
            torus_rank=torus_rank, gram=gram, b_frobenius=b, p=p, f=f
        )
    raise SchemaError(f"field 'kind' has unknown value {clipped(kind)}")
