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

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from ._record import Record
from .errors import ValidationError
from .exact_linalg import (
    NewtonPolygon,
    QMatrix,
    Rational,
    _hull_segments,
    _valuation,
    is_positive_definite,
    is_prime,
    rank,
)
from .weil_data import WeilMatrix


class PhiNModule(Record):
    """Graded integral (phi, N)-module, stored as its blocks.

    phi = diag(phi0 * I_w0, phi1, phi2 * I_w2), with integers phi0 and
    phi2 and an integer matrix ``n02``, and N is ``n02`` in block
    (weight 0, weight 2) and zero elsewhere.  phi1 is the block-diagonal
    sum of the square QMatrix ``phi1_blocks``, in order; no dense phi1 is
    built.  :func:`assemble` keeps the finest diagonal blocks of its Weil
    matrix, which are unique, so ``==`` on them means ``==`` on phi1.
    ``phi1_factors`` multiply to the characteristic polynomial of phi1,
    ascending and monic; ``==`` and ``hash`` ignore them, as the blocks
    determine them.  ``gram`` is the monodromy pairing on the weight-2
    block.  The ranks ``dims`` = (w0, w1, w2) are read off the blocks:
    w0 = w2 = gram.rows and w1 is the sum of the phi1 block sizes.  A
    module is exactly its blocks: no command reads a dense matrix back into
    one.

    Only dimensional consistency is enforced at construction, so
    deliberately corrupted instances can be constructed for testing.
    :func:`assemble` builds modules that satisfy the relations by
    construction; :func:`verify_relations` checks them.
    """

    _fields = ("p", "f", "phi0", "phi1_blocks", "phi1_factors", "phi2", "n02", "fil1_dim",
               "gram")
    _compared = ("p", "f", "phi0", "phi1_blocks", "phi2", "n02", "fil1_dim", "gram")

    def __init__(self, p: int, f: int, phi0: int, phi1_blocks: tuple, phi1_factors: tuple,
                 phi2: int, n02: QMatrix, fil1_dim: int, gram: QMatrix):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phi1_blocks", phi1_blocks)
        object.__setattr__(self, "phi1_factors", phi1_factors)
        object.__setattr__(self, "phi2", phi2)
        object.__setattr__(self, "n02", n02)
        object.__setattr__(self, "fil1_dim", fil1_dim)
        object.__setattr__(self, "gram", gram)
        w0, w1, w2 = self.dims
        if gram.cols != w2:
            raise ValidationError("gram has wrong shape")
        if any(b.rows != b.cols for b in phi1_blocks):
            raise ValidationError("phi1 has a block that is not square")
        if sum(len(chi) - 1 for chi in phi1_factors) != w1:
            raise ValidationError("phi1_factors have wrong degree")
        if (n02.rows, n02.cols) != (w0, w2):
            raise ValidationError("n02 has wrong shape")

    @cached_property
    def dims(self) -> tuple:
        """(w0, w1, w2), read off the blocks once."""
        return (self.gram.rows, sum(b.rows for b in self.phi1_blocks), self.gram.rows)

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def dimension(self) -> int:
        return sum(self.dims)


def assemble(p: int, f: int, gram: QMatrix, w: WeilMatrix) -> PhiNModule:
    """Assemble the graded module from a Gram matrix and a Weil block.

    gram must be symmetric and positive definite (the monodromy pairing
    on the torus character lattice); w must be validated Weil data at the
    same q.  The grading gives the splittings directly: no extension
    data survives at desk scale.  The blocks are stored as given: phi is
    1, the blocks of w (and w.factors, their characteristic polynomials)
    and q on the three weights, and N is gram from weight 2 to weight 0.

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
        phi1_blocks=w.blocks,
        phi1_factors=w.factors,
        phi2=p ** f,
        n02=gram,
        fil1_dim=gram.rows + w.g,
        gram=gram,
    )


def _det_phi(m: PhiNModule) -> int:
    """det(phi) as the product of the block determinants; det(phi1) is
    (-1)^w1 times the constant terms of its factors."""
    w0, w1, w2 = m.dims
    det_phi1 = (-1) ** w1 * prod(chi[0] for chi in m.phi1_factors)
    return m.phi0 ** w0 * det_phi1 * m.phi2 ** w2


class RelationReport(Record):
    """Pass/fail record of the defining operator identities; the second is
    N phi == q phi N."""

    _fields = ("n_squared_zero", "n_phi_commutation", "phi_invertible", "n_rank_is_torus_rank")

    def __init__(self, n_squared_zero: bool, n_phi_commutation: bool, phi_invertible: bool,
                 n_rank_is_torus_rank: bool):
        object.__setattr__(self, "n_squared_zero", n_squared_zero)
        object.__setattr__(self, "n_phi_commutation", n_phi_commutation)
        object.__setattr__(self, "phi_invertible", phi_invertible)
        object.__setattr__(self, "n_rank_is_torus_rank", n_rank_is_torus_rank)


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


class PolygonReport(Record):
    """Newton and Hodge data of the module's Frobenius and filtration.

    ``newton`` has its slopes normalized by 1/f; ``newton_symmetric`` says
    whether they are invariant under s -> 1 - s.
    """

    _fields = ("t_newton", "t_hodge", "newton", "hodge", "endpoints_equal",
               "newton_on_or_above_hodge", "newton_symmetric")

    def __init__(self, t_newton: Rational, t_hodge: int, newton: NewtonPolygon,
                 hodge: NewtonPolygon, endpoints_equal: bool, newton_on_or_above_hodge: bool,
                 newton_symmetric: bool):
        object.__setattr__(self, "t_newton", t_newton)
        object.__setattr__(self, "t_hodge", t_hodge)
        object.__setattr__(self, "newton", newton)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "endpoints_equal", endpoints_equal)
        object.__setattr__(self, "newton_on_or_above_hodge", newton_on_or_above_hodge)
        object.__setattr__(self, "newton_symmetric", newton_symmetric)


def hodge_newton(m: PhiNModule) -> PolygonReport:
    """Newton polygon of phi (valuations normalized by 1/f) against the
    two-step Hodge polygon determined by fil1_dim, and whether the Newton
    slopes are symmetric about 1/2.

    The characteristic polynomial of phi is the product of phi1_factors and
    (T - c)^w for each scalar block c * I_w, so its slopes are the union of
    theirs: each distinct factor's integer hull segments (dy, dx), dx roots
    of slope dy / dx, taken as often as the factor occurs.  p is tested
    once.  A slope is kept as the lowest-terms pair (num, den) of
    dy / (dx * f), and the three verdicts are decided on these integers,
    with L the lcm of the denominators:

    * symmetric: each slope num / den has 1 - num / den, the pair
      (den - num, den), with the same multiplicity;
    * on or above: the Newton height times L against L * max(0, x - (d -
      fil1)), the Hodge height, at each Newton breakpoint (see
      :func:`_on_or_above_hodge`);
    * endpoints: v_p(det phi) = f * fil1, with det phi from its blocks.

    Only the reported slopes and ``t_newton`` that are not integers become
    Fractions.
    """
    w0, _, w2 = m.dims
    d, p, f, fil1 = m.dimension, m.p, m.f, m.fil1_dim
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    weight = {}  # factor -> number of times it divides the char. polynomial
    for chi in m.phi1_factors:
        weight[chi] = weight.get(chi, 0) + 1
    for c, w in ((m.phi0, w0), (m.phi2, w2)):
        if w:
            weight[(-c, 1)] = weight.get((-c, 1), 0) + w
    mult = {}  # lowest-terms (num, den) -> number of roots of slope num / den
    for chi, w in weight.items():
        # a zero constant term is refused, so det(phi) has a valuation
        for dy, dx in _hull_segments(chi, p):
            g = gcd(dy, dx * f)
            key = (dy // g, dx * f // g)
            mult[key] = mult.get(key, 0) + dx * w
    if not 0 <= fil1 <= d:
        raise ValueError("polygons have different dimensions")
    scale = lcm(*(den for _, den in mult))  # L
    rise = {s: s[0] * (scale // s[1]) for s in mult}  # slope * L
    slopes = sorted(mult, key=rise.get)
    knee = d - fil1  # the Hodge polygon has slope 0 up to here, then 1
    v = _valuation(_det_phi(m), p) if d else 0
    return PolygonReport(
        t_newton=v // f if v % f == 0 else Fraction(v, f),
        t_hodge=fil1,
        newton=NewtonPolygon(tuple(
            (num if den == 1 else Fraction(num, den), mult[num, den]) for num, den in slopes)),
        hodge=NewtonPolygon(tuple((s, k) for s, k in ((0, knee), (1, fil1)) if k > 0)),
        endpoints_equal=v == f * fil1,
        newton_on_or_above_hodge=_on_or_above_hodge(
            [(mult[s], rise[s]) for s in slopes], knee, scale),
        newton_symmetric=all(mult.get((den - num, den)) == k for (num, den), k in mult.items()),
    )


def _on_or_above_hodge(segments, knee: int, scale: int) -> bool:
    """Whether a Newton polygon, given as (length, slope * scale) segments
    in order, lies on or above the Hodge polygon max(0, x - knee), by its
    height times ``scale`` at each of its breakpoints.

    Between two Newton breakpoints that do not enclose the knee both
    polygons are linear.  At a knee inside a segment the Hodge height is
    0, and the Newton height lies between its heights at the segment's
    ends, each at least the Hodge height there, which is >= 0; so the
    breakpoints decide.
    """
    x = height = 0
    for k, rise in segments:
        x += k
        height += rise * k
        if height < scale * max(0, x - knee):
            return False
    return True


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
