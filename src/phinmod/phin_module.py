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
* det phi is the product of the block determinants, det W being read off
  the characteristic polynomial of W that Weil validation computed.
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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact_linalg import (
    NewtonPolygon,
    QMatrix,
    Rational,
    _valuation,
    as_rational,
    is_positive_definite,
    newton_polygon,
    rank,
)
from .weil_data import WeilMatrix


@dataclass(frozen=True)
class PhiNModule:
    """Graded exact-rational (phi, N)-module, stored as its blocks.

    phi = diag(phi0 * I_w0, phi1, phi2 * I_w2) and N is ``n02`` in block
    (weight 0, weight 2) and zero elsewhere.  ``phi1_charpoly`` is the
    characteristic polynomial of phi1 (ascending coefficients, leading 1).
    ``gram`` is the monodromy pairing on the weight-2 block.

    ``off_block`` names the operators, "phi" and/or "n", whose dense matrix
    (as read back from a report) had an entry that this form cannot hold: a
    nonzero entry outside the blocks, or a weight-0 or weight-2 block of phi
    that is not scalar.  Those entries are not kept, and
    :func:`verify_relations` fails every identity that involves such an
    operator.

    Only dimensional consistency is enforced at construction, so
    deliberately corrupted instances can be constructed for testing.
    :func:`assemble` builds modules that satisfy the relations by
    construction; :func:`verify_relations` checks them.
    """

    p: int
    f: int
    dims: tuple  # (w0, w1, w2)
    phi0: Rational
    phi1: QMatrix
    phi1_charpoly: tuple
    phi2: Rational
    n02: QMatrix
    fil1_dim: int
    gram: QMatrix
    off_block: frozenset = frozenset()

    def __post_init__(self):
        w0, w1, w2 = self.dims
        if w0 != w2:
            raise ValidationError(f"weight-0 rank {w0} != weight-2 rank {w2}")
        if (self.phi1.rows, self.phi1.cols) != (w1, w1):
            raise ValidationError("phi1 has wrong shape")
        if len(self.phi1_charpoly) != w1 + 1:
            raise ValidationError("phi1_charpoly has wrong degree")
        if (self.n02.rows, self.n02.cols) != (w0, w2):
            raise ValidationError("n02 has wrong shape")
        if (self.gram.rows, self.gram.cols) != (w2, w2):
            raise ValidationError("gram has wrong shape")

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
    1, w.matrix (with its characteristic polynomial w.charpoly) and q on
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
        dims=(gram.rows, w.size, gram.rows),
        phi0=1,
        phi1=w.matrix,
        phi1_charpoly=w.charpoly,
        phi2=p ** f,
        n02=gram,
        fil1_dim=gram.rows + w.fil_dim,
        gram=gram,
    )


def _det_phi(m: PhiNModule) -> Rational:
    """det(phi) as the product of the block determinants; det(phi1) is
    (-1)^w1 times the constant term of its characteristic polynomial."""
    w0, w1, w2 = m.dims
    det_phi1 = (-1) ** w1 * m.phi1_charpoly[0]
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
    the block determinants; rank N = rank n02.  An identity that
    involves an operator named in ``m.off_block`` fails.
    """
    phi_ok = "phi" not in m.off_block
    n_ok = "n" not in m.off_block
    return RelationReport(
        n_squared_zero=n_ok,
        n_phi_commutation=(
            phi_ok and n_ok and (m.phi2 == m.q * m.phi0 or m.n02.is_zero())
        ),
        phi_invertible=phi_ok and _det_phi(m) != 0,
        n_rank_is_torus_rank=n_ok and rank(m.n02) == m.dims[2],
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
    two-step Hodge polygon determined by fil1_dim.

    The characteristic polynomial of phi is the product of those of its
    diagonal blocks, so its slopes are the union of the blocks' slopes: the
    (slope, multiplicity) pairs of phi1_charpoly's Newton polygon, and
    v_p(c) with multiplicity w for a scalar block c * I_w.  Only the
    diagonal blocks are read, and no slope list of length d is built: the
    Hodge polygon is at most the two pairs (0, d - fil1) and (1, fil1), and
    :meth:`NewtonPolygon.lies_on_or_above` compares heights only at the
    breakpoints, since the difference of two polygons is linear between
    them.
    """
    w0, _, w2 = m.dims
    d = m.dimension
    # newton_polygon checks that p is prime and rejects a singular phi1 (zero
    # constant term); a zero scalar block is rejected the same way, so det(phi)
    # is nonzero when its valuation is taken.
    mult = dict(newton_polygon(m.phi1_charpoly, m.p).slopes)
    for c, w in ((m.phi0, w0), (m.phi2, w2)):
        if w:
            if c == 0:
                raise ValueError("zero constant term: 0 is an eigenvalue")
            v = _valuation(c, m.p)
            mult[v] = mult.get(v, 0) + w
    newton = NewtonPolygon(tuple(sorted(mult.items()))).scaled(Fraction(1, m.f))
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
    )


def verify_monodromy_duality(m: PhiNModule) -> bool:
    """Exact identity: pairing alpha with N' beta through the duality matrix
    recovers the monodromy pairing.

    The duality pairing is the identity on the blocks (w0, w2'), (w1, w1')
    and (w2, w0'), and the dual-side monodromy N' uses the same Gram matrix
    (self-dual inputs).  So pairing with N' moves N's block (0, 2) to block
    (2, 2) and leaves every other block zero, and the monodromy pairing is
    the Gram matrix on block (2, 2): the identity holds exactly when N has
    block form and n02 == gram.
    """
    return "n" not in m.off_block and m.n02 == m.gram
