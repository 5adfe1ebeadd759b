"""The Weil part kept as factors against the dense oracle.

A direct sum keeps the characteristic polynomials of its summands as
``factors`` and never multiplies them out; ``hodge_newton`` merges the
factors' hull segments and ``_det_phi`` multiplies their constant terms.
Both must give what the dense module of ``oracles.py`` gives from the
Hessenberg characteristic polynomial of the full phi.
"""

import json
import random
from fractions import Fraction
from math import isqrt

from phinmod.builders import UniformizationData, resolve_component
from phinmod.cli import run_checks
from phinmod.exact_linalg import QMatrix, det
from phinmod.io_formats import dump_json
from phinmod.phin_module import _det_phi, assemble, hodge_newton, verify_relations
from phinmod.weil_data import (
    DEFAULT_POINT_BOUND,
    EllipticCurveSpec,
    WeilMatrix,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

from oracles import (
    dense_assemble,
    dense_hodge_newton,
    dense_relations,
    dense_weil,
    module_from_report,
    poly_mul,
)

# (p, f): q = 3, 5, 7 at f = 1 and 9, 25 at f = 2
FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]
GRAMS = [
    QMatrix(0, 0, ()),
    QMatrix.from_rows([[1]]),
    QMatrix.from_rows([[2, 1], [1, 2]]),
]


def _trace(rng, p, q):
    """A trace with a^2 <= 4q: 0 (slope 1/2), a multiple of p, or any."""
    bound = isqrt(4 * q)
    return rng.choice([0, rng.randrange(-(bound // p), bound // p + 1) * p,
                       rng.randint(-bound, bound)])


def _dense_block(rng, p, f):
    """The companion matrix of (T^2 - a1 T + q)(T^2 - a2 T + q), conjugated
    by a random unimodular matrix, through the Weil gate."""
    q = p ** f
    a1, a2 = _trace(rng, p, q), _trace(rng, p, q)
    c3, c2, c1, c0 = -(a1 + a2), 2 * q + a1 * a2, -q * (a1 + a2), q * q
    m = [[0, 0, 0, -c0], [1, 0, 0, -c1], [0, 1, 0, -c2], [0, 0, 1, -c3]]
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-1, 1))
        # m <- E m E^-1 with E = I + c e_ij: add c * row j to row i, then
        # subtract c * column i from column j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return validate_weil(m, p, f)


def _elliptic_block(rng, p, f):
    """A counted curve at f = 1, else a 2 x 2 companion of T^2 - aT + q."""
    if f == 1 and rng.random() < 0.5:
        while True:
            a4, a6 = rng.randrange(p), rng.randrange(p)
            if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
                return frobenius_of_elliptic(EllipticCurveSpec(p, a4, a6))
    q = p ** f
    return validate_weil([[0, -q], [1, _trace(rng, p, q)]], p, f)


def _block(rng, p, f):
    kind = rng.choice(("genus0", "elliptic", "elliptic", "dense"))
    if kind == "genus0":
        return resolve_component(None, p, f)
    if kind == "elliptic":
        return _elliptic_block(rng, p, f)
    return _dense_block(rng, p, f)


def _sums():
    rng = random.Random("factored weil sums")
    for p, f in FIELDS:
        for n in range(1, 11):
            yield p, f, direct_sum([_block(rng, p, f) for _ in range(n)], p, f), rng.choice(GRAMS)


def test_factored_path_matches_dense_oracle():
    slopes = set()
    factor_counts = set()
    for p, f, w, gram in _sums():
        m = assemble(p, f, gram, w)
        dense = dense_assemble(p, f, gram, w)
        polygons = hodge_newton(m)
        assert polygons == dense_hodge_newton(dense), (p, f, w)
        assert verify_relations(m) == dense_relations(dense), (p, f, w)
        assert _det_phi(m) == det(dense.phi), (p, f, w)
        slopes.update(s for s, _ in polygons.newton.slopes)
        factor_counts.add(len(w.factors))
    # supersingular factors (slope 1/2) and sums of many factors occur
    assert {0, Fraction(1, 2), 1} <= slopes
    assert max(factor_counts) >= 6


def test_equality_ignores_how_chi_is_factored():
    b1 = frobenius_of_elliptic(EllipticCurveSpec(5, 1, 0))   # a = 2
    b2 = frobenius_of_elliptic(EllipticCurveSpec(5, 0, 1))   # a = 0
    summed = direct_sum([b1, resolve_component(None, 5, 1), b2], 5, 1)
    # validation keeps one factor per diagonal block, as the sum does
    assert validate_weil(dense_weil(summed), 5, 1).factors == summed.factors
    whole = WeilMatrix(5, 1, summed.blocks, (tuple(poly_mul(*summed.factors)),))
    assert len(summed.factors) == 2 and len(whole.factors) == 1
    assert summed == whole and hash(summed) == hash(whole)
    gram = QMatrix.from_rows([[2, 1], [1, 2]])
    m = assemble(5, 1, gram, summed)
    assert m == assemble(5, 1, gram, whole)
    # a report read back holds phi1's characteristic polynomial whole
    u = UniformizationData(torus_rank=2, gram=gram, b_frobenius=summed, p=5)
    read = module_from_report(json.loads(dump_json(run_checks(u, DEFAULT_POINT_BOUND))))
    assert len(m.phi1_factors) == 2 and len(read.phi1_factors) == 1
    assert read == m and hash(read) == hash(m)
