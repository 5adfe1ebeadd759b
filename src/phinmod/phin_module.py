"""The filtered (phi, N)-module, stored as its blocks, and its checks.

The module is graded in three weights: weight 0 models Hom(Gamma, K) (rank =
first Betti number of the dual graph), weight 1 the good-reduction abelian
part, weight 2 the toric part.  In the graded basis (weights in the order
0, 1, 2) Frobenius is block-diagonal, 1 on weight 0, a Weil-q matrix on
weight 1 and q on weight 2, and the monodromy operator has a single nonzero
block, the monodromy Gram matrix, from weight 2 to weight 0:

    phi = diag(1 * I_w0, W, q * I_w2)        N = [[0, 0, G],
                                                  [0, 0, 0],
                                                  [0, 0, 0]]

:class:`PhiNModule` stores only these blocks, and every identity is checked
on them, at the cost of the blocks rather than of the dimension d:

* N^2 = 0 holds for any N of this shape: N maps weight 2 into weight 0,
  which it kills.  N phi and q phi N vanish outside block (0, 2), where
  they are G * q and q * 1 * G; rank N = rank G.
* det phi is the product of the block determinants; det W is read off the
  constant terms of the factors of chi_W, which are never multiplied out.
* The characteristic polynomial of phi is (T - 1)^w0 * chi_W(T) * (T - q)^w2,
  so its Newton polygon is the union of the slopes of the factors.
* The duality pairing is the identity on the anti-diagonal blocks, so it
  carries N's block (0, 2) to block (2, 2), where the monodromy pairing is
  the Gram matrix.

The commutation N phi = q phi N is then forced, and for q = p it is the
classical relation between the Hyodo-Kato operators.  Duality pairs the
module with its dual-side counterpart; for the principally-polarizable
inputs in scope the dual side carries the same Gram matrix, which turns the
"cup product of alpha with N beta equals the monodromy pairing" statement
into an exact matrix identity.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .errors import ValidationError
from .exact_linalg import (
    NewtonPolygon,
    QMatrix,
    Rational,
    _hull_segments,
    _valuation,
    as_rational,
    is_positive_definite,
    is_prime,
    rank,
)
from .weil_data import WeilMatrix


@dataclass(frozen=True)
class PhiNModule:
    """Graded exact-rational (phi, N)-module, stored as its blocks.

    phi = diag(phi0 * I_w0, phi1, phi2 * I_w2) and N is ``n02`` in block
    (weight 0, weight 2) and zero elsewhere.  ``phi1_factors`` (not compared)
    multiply to the characteristic polynomial of phi1, ascending and monic.
    ``gram`` is the monodromy pairing on the weight-2 block.  The ranks
    ``dims`` = (w0, w1, w2) are read off the blocks: w0 = w2 = gram.rows and
    w1 = phi1.rows.  A module is exactly its blocks; a dense matrix that
    they cannot hold is refused where it is read
    (:func:`phinmod.io_formats.module_from_report`).

    Only dimensional consistency is enforced at construction, so
    deliberately corrupted instances can be constructed for testing.
    :func:`assemble` builds modules that satisfy the relations by
    construction; :func:`verify_relations` checks them.
    """

    p: int
    f: int
    phi0: Rational
    phi1: QMatrix
    phi1_factors: tuple = field(compare=False)
    phi2: Rational
    n02: QMatrix
    fil1_dim: int
    gram: QMatrix

    def __post_init__(self):
        w0, w1, w2 = self.dims
        if self.gram.cols != w2:
            raise ValidationError("gram has wrong shape")
        if self.phi1.cols != w1:
            raise ValidationError("phi1 has wrong shape")
        if sum(len(chi) - 1 for chi in self.phi1_factors) != w1:
            raise ValidationError("phi1_factors have wrong degree")
        if (self.n02.rows, self.n02.cols) != (w0, w2):
            raise ValidationError("n02 has wrong shape")

    @property
    def dims(self) -> tuple:
        """(w0, w1, w2), read off the blocks."""
        return (self.gram.rows, self.phi1.rows, self.gram.rows)

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def dimension(self) -> int:
        return sum(self.dims)


def assemble(p: int, f: int, gram: QMatrix, w: WeilMatrix) -> PhiNModule:
    """Assemble the graded module from a Gram matrix and a Weil block.

    gram must be integral, symmetric and positive definite (the monodromy
    pairing on the torus character lattice); w must be validated Weil data
    at the same q.  The grading gives the splittings directly: no extension
    data survives at desk scale.  The blocks are stored as given: phi is
    1, w.matrix (and w.factors, its characteristic polynomial) and q on
    the three weights, and N is gram from weight 2 to weight 0.

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
    # is_positive_definite tests symmetry first; the message is chosen on
    # failure, so a valid request makes one symmetry pass
    if gram.rows > 0 and not is_positive_definite(gram):
        raise ValidationError(
            "gram not positive definite" if gram.is_symmetric() else "gram not symmetric"
        )
    return PhiNModule(
        p=p,
        f=f,
        phi0=1,
        phi1=w.matrix,
        phi1_factors=w.factors,
        phi2=p ** f,
        n02=gram,
        fil1_dim=gram.rows + w.g,
        gram=gram,
    )


def _det_phi(m: PhiNModule) -> Rational:
    """det(phi) as the product of the block determinants; det(phi1) is
    (-1)^w1 times the constant terms of its factors."""
    w0, w1, w2 = m.dims
    det_phi1 = (-1) ** w1 * prod(chi[0] for chi in m.phi1_factors)
    return as_rational(m.phi0 ** w0 * det_phi1 * m.phi2 ** w2)


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
    """Exact checks on the blocks: N^2 = 0, N phi = q phi N, phi
    invertible, rank N = w2.

    N^2 = 0 holds for every N of block form; N phi and q phi N agree outside
    block (0, 2) and are n02 * phi2 and q * phi0 * n02 there, equal entry by
    entry exactly when phi2 = q * phi0 or n02 = 0; det(phi) is the product of
    the block determinants; rank N = rank n02.  Each verdict is the one the
    dense matrices of the module give.
    """
    return RelationReport(
        n_squared_zero=True,
        n_phi_commutation=m.phi2 == m.q * m.phi0 or m.n02.is_zero(),
        phi_invertible=_det_phi(m) != 0,
        n_rank_is_torus_rank=rank(m.n02) == m.dims[2],
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
    newton_symmetric: bool  # slopes invariant under s -> 1 - s


def hodge_newton(m: PhiNModule) -> PolygonReport:
    """Newton polygon of phi (valuations normalized by 1/f) against the
    two-step Hodge polygon determined by fil1_dim, and whether the Newton
    slopes are symmetric about 1/2.

    The characteristic polynomial of phi is the product of phi1_factors and
    (T - c)^w for each scalar block c * I_w, so its slopes are the union of
    theirs: each factor's integer hull segments (dy, dx), dx roots of slope
    dy / dx.  p is tested once; equal slopes merge on the reduced (dy, dx),
    and only the merged slopes become Fractions, sorted exactly.  The Hodge
    polygon is at most the two pairs (0, d - fil1) and (1, fil1), and
    :meth:`NewtonPolygon.lies_on_or_above` compares heights only at the
    breakpoints, since the difference of two polygons is linear between
    them.
    """
    w0, _, w2 = m.dims
    d = m.dimension
    if not is_prime(m.p):
        raise ValueError(f"p = {m.p} is not prime")
    mult = {}  # reduced (dy, dx) -> number of roots of valuation dy / dx
    blocks = [(chi, 1) for chi in m.phi1_factors]
    for chi, w in blocks + [((-c, 1), w) for c, w in ((m.phi0, w0), (m.phi2, w2)) if w]:
        # a zero constant term is refused, so det(phi) has a valuation
        for dy, dx in _hull_segments(chi, m.p):
            g = gcd(dy, dx)
            key = (dy // g, dx // g)
            mult[key] = mult.get(key, 0) + dx * w
    newton = NewtonPolygon(tuple(sorted(
        (as_rational(Fraction(a, b * m.f)), k) for (a, b), k in mult.items())))
    t_newton = as_rational(Fraction(_valuation(_det_phi(m), m.p), m.f)) if d else 0
    t_hodge = m.fil1_dim
    hodge = NewtonPolygon(tuple(
        (s, k) for s, k in ((0, d - m.fil1_dim), (1, m.fil1_dim)) if k > 0
    ))
    return PolygonReport(
        t_newton=t_newton,
        t_hodge=t_hodge,
        newton=newton,
        hodge=hodge,
        endpoints_equal=(t_newton == t_hodge),
        newton_on_or_above_hodge=newton.lies_on_or_above(hodge),
        newton_symmetric=newton.is_symmetric(),
    )


def verify_monodromy_duality(m: PhiNModule) -> bool:
    """Exact identity: pairing alpha with N' beta through the duality matrix
    recovers the monodromy pairing.

    The duality pairing is the identity on the blocks (w0, w2'), (w1, w1')
    and (w2, w0'), and the dual-side monodromy N' uses the same Gram matrix
    (self-dual inputs).  So pairing with N' moves N's block (0, 2) to block
    (2, 2) and leaves every other block zero, and the monodromy pairing is
    the Gram matrix on block (2, 2): the identity holds exactly when
    n02 == gram.
    """
    return m.n02 == m.gram
