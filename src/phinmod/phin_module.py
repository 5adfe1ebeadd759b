"""The filtered (phi, N)-module and its structural checks.

The module is graded in three weights: weight 0 models Hom(Gamma, K) (rank =
first Betti number of the dual graph), weight 1 the good-reduction abelian
part, weight 2 the toric part.  Frobenius acts blockwise as 1, a Weil-q
matrix, and q; the monodromy operator maps the weight-2 block to the
weight-0 block through the monodromy Gram matrix and kills everything else.
The commutation N phi = q phi N is then forced, and for q = p it is the
classical relation between the Hyodo-Kato operators.

Duality pairs the module with its dual-side counterpart block-anti-diagonally
(identity on each of the three pairings); for the principally-polarizable
inputs in scope the dual side carries the same Gram matrix, which turns the
"cup product of alpha with N beta equals the monodromy pairing" statement
into an exact matrix identity.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact_linalg import (
    NewtonPolygon,
    QMatrix,
    Rational,
    as_rational,
    char_poly,
    det,
    is_positive_definite,
    newton_polygon,
    padic_valuation,
    rank,
)
from .weil_data import WeilMatrix


@dataclass(frozen=True)
class PhiNModule:
    """Graded exact-rational (phi, N)-module with filtration and Gram data.

    Only dimensional consistency is enforced at construction, so
    deliberately corrupted instances can be constructed for testing.
    :func:`assemble` builds modules that satisfy the relations by
    construction; :func:`verify_relations` checks them.
    """

    p: int
    f: int
    dims: tuple  # (w0, w1, w2)
    phi: QMatrix
    n: QMatrix
    fil1_dim: int
    gram: QMatrix

    def __post_init__(self):
        w0, w1, w2 = self.dims
        if w0 != w2:
            raise ValidationError(f"weight-0 rank {w0} != weight-2 rank {w2}")
        d = w0 + w1 + w2
        if (self.phi.rows, self.phi.cols) != (d, d):
            raise ValidationError("phi has wrong shape")
        if (self.n.rows, self.n.cols) != (d, d):
            raise ValidationError("n has wrong shape")
        if (self.gram.rows, self.gram.cols) != (w2, w2):
            raise ValidationError("gram has wrong shape")

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def dimension(self) -> int:
        return sum(self.dims)


def _build_phi(w0: int, weil: QMatrix, w2: int, q: int) -> QMatrix:
    return QMatrix.block_diag(
        [QMatrix.identity(w0), weil, QMatrix.scalar(w2, q)]
    )


def _build_n(w0: int, w1: int, w2: int, gram: QMatrix) -> QMatrix:
    d = w0 + w1 + w2
    rows = [[0] * d for _ in range(d)]
    for i in range(w0):
        for j in range(w2):
            rows[i][w0 + w1 + j] = gram[i, j]
    return QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())


def assemble(p: int, f: int, gram: QMatrix, w: WeilMatrix) -> PhiNModule:
    """Assemble the graded module from a Gram matrix and a Weil block.

    gram must be integral, symmetric and positive definite (the monodromy
    pairing on the torus character lattice); w must be validated Weil data
    at the same q.  The grading gives the splittings directly: no extension
    data survives at desk scale.

    The result satisfies the relations of :func:`verify_relations` by
    construction: N maps weight 2 to weight 0 and kills both, phi is q on
    weight 2 and 1 on weight 0, det(phi) = q^(w2 + g), and the Gram block
    is positive definite, so rank N = w2.
    """
    if (w.p, w.f) != (p, f):
        raise ValidationError(
            f"component Frobenius has q = {w.p}^{w.f}, module wants {p}^{f}"
        )
    if not gram.is_square:
        raise ValidationError("gram must be square")
    if not gram.is_integral():
        raise ValidationError("gram entries must be integers")
    if not gram.is_symmetric():
        raise ValidationError("gram not symmetric")
    if gram.rows > 0 and not is_positive_definite(gram):
        raise ValidationError("gram not positive definite")
    w0 = w2 = gram.rows
    w1 = w.size
    return PhiNModule(
        p=p,
        f=f,
        dims=(w0, w1, w2),
        phi=_build_phi(w0, w.matrix, w2, p ** f),
        n=_build_n(w0, w1, w2, gram),
        fil1_dim=w2 + w.fil_dim,
        gram=gram,
    )


@dataclass(frozen=True)
class RelationReport:
    """Pass/fail record of the defining operator identities."""

    n_squared_zero: bool
    n_phi_commutation: bool  # N phi == q phi N
    phi_invertible: bool
    n_rank_is_torus_rank: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.n_squared_zero
            and self.n_phi_commutation
            and self.phi_invertible
            and self.n_rank_is_torus_rank
        )


def verify_relations(m: PhiNModule) -> RelationReport:
    """Exact checks: N^2 = 0, N phi = q phi N, phi invertible, rank N = w2."""
    n_sq = (m.n @ m.n).is_zero()
    left = m.n @ m.phi
    right = (m.phi @ m.n).scale(m.q)
    return RelationReport(
        n_squared_zero=n_sq,
        n_phi_commutation=(left == right),
        phi_invertible=(det(m.phi) != 0),
        n_rank_is_torus_rank=(rank(m.n) == m.dims[2]),
    )


@dataclass(frozen=True)
class PolygonReport:
    """Newton and Hodge data of the module's Frobenius and filtration."""

    t_newton: Rational
    t_hodge: int
    newton: NewtonPolygon  # slopes normalized by 1/f
    hodge: NewtonPolygon
    endpoints_equal: bool
    newton_on_or_above_hodge: bool


def hodge_newton(m: PhiNModule) -> PolygonReport:
    """Newton polygon of phi (valuations normalized by 1/f) against the
    two-step Hodge polygon determined by fil1_dim."""
    d = m.dimension
    # newton_polygon rejects a singular phi (zero constant term) before any
    # valuation of det(phi) is attempted.
    newton = newton_polygon(char_poly(m.phi), m.p).scaled(Fraction(1, m.f))
    t_newton = as_rational(Fraction(padic_valuation(det(m.phi), m.p), m.f)) if d else 0
    t_hodge = m.fil1_dim
    hodge_slopes = [0] * (d - m.fil1_dim) + [1] * m.fil1_dim
    hodge = NewtonPolygon.from_slope_list(hodge_slopes)
    return PolygonReport(
        t_newton=t_newton,
        t_hodge=t_hodge,
        newton=newton,
        hodge=hodge,
        endpoints_equal=(t_newton == t_hodge),
        newton_on_or_above_hodge=newton.lies_on_or_above(hodge),
    )


@dataclass(frozen=True)
class DualityPairing:
    """Block-anti-diagonal pairing with the dual-side module.

    <w0, w2'> = <w1, w1'> = <w2, w0'> = identity, all other blocks zero;
    always nondegenerate.
    """

    matrix: QMatrix

    @staticmethod
    def for_module(m: PhiNModule) -> "DualityPairing":
        w0, w1, w2 = m.dims
        d = m.dimension
        rows = [[0] * d for _ in range(d)]
        for i in range(w0):
            rows[i][w0 + w1 + i] = 1
        for i in range(w1):
            rows[w0 + i][w0 + i] = 1
        for i in range(w2):
            rows[w0 + w1 + i][i] = 1
        return DualityPairing(QMatrix.from_rows(rows) if d else QMatrix(0, 0, ()))


def monodromy_pairing_matrix(m: PhiNModule) -> QMatrix:
    """Full-size matrix of the monodromy pairing: the pullback through the
    toric projections, so the only nonzero block is (w2, w2') = gram."""
    w0, w1, w2 = m.dims
    d = m.dimension
    rows = [[0] * d for _ in range(d)]
    for i in range(w2):
        for j in range(w2):
            rows[w0 + w1 + i][w0 + w1 + j] = m.gram[i, j]
    return QMatrix.from_rows(rows) if d else QMatrix(0, 0, ())


def verify_monodromy_duality(m: PhiNModule) -> bool:
    """Exact identity: pairing alpha with N' beta through the duality matrix
    recovers the monodromy pairing.

    The dual-side monodromy N' uses the same Gram matrix (self-dual inputs),
    so the check is P @ N' == monodromy_pairing_matrix(m).
    """
    pairing = DualityPairing.for_module(m).matrix
    n_dual = m.n
    return (pairing @ n_dual) == monodromy_pairing_matrix(m)


def modules_equal(a: PhiNModule, b: PhiNModule) -> bool:
    """Exact equality of every defining field (shared basis conventions make
    the deep comparisons literal matrix equality)."""
    return (
        a.p == b.p
        and a.f == b.f
        and a.dims == b.dims
        and a.phi == b.phi
        and a.n == b.n
        and a.fil1_dim == b.fil1_dim
        and a.gram == b.gram
    )
