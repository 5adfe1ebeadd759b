"""The filtered (phi, N)-module, stored as its free blocks, and its checks.

The module is graded in three weights: weight 0 models Hom(Gamma, K) (rank =
first Betti number of the dual graph), weight 1 the good-reduction abelian
part, weight 2 the toric part.  In the graded basis (weights in the order
0, 1, 2) Frobenius is block-diagonal, 1 on weight 0, a Weil-q matrix on
weight 1 and q on weight 2, and the monodromy operator has a single nonzero
block, the monodromy Gram matrix, from weight 2 to weight 0:

    phi = diag(1 * I_w0, W, q * I_w2)        N = [[0, 0, G],
                                                  [0, 0, 0],
                                                  [0, 0, 0]]

:class:`PhiNModule` stores only the free blocks W and G: the scalars 1 and
q and the place of G are the shape itself.  Every identity is checked on
the blocks, at the cost of the blocks rather than of the dimension d, and
only where a free block can break it:

* N^2 = 0 holds for any N of this shape: N maps weight 2 into weight 0,
  which it kills.  N phi and q phi N vanish outside block (0, 2), where
  they are G * q and q * 1 * G, so they agree for every G.  Both verdicts
  are therefore the literal True.
* rank N = rank G, computed.
* det phi is the product of the block determinants; det W is read off the
  constant terms of the factors of chi_W, which are never multiplied out.
* The characteristic polynomial of phi is (T - 1)^w0 * chi_W(T) * (T - q)^w2,
  so its Newton polygon is the union of the slopes of the factors.
* The duality pairing is the identity on the anti-diagonal blocks, so it
  carries N's block (0, 2), which is G, to block (2, 2), where the
  monodromy pairing is G too: the identity holds for every G, and its
  verdict is the literal True.

For q = p the commutation N phi = q phi N is the classical relation
between the Hyodo-Kato operators.  Duality pairs the
module with its dual-side counterpart; for the principally-polarizable
inputs in scope the dual side carries the same Gram matrix, which turns the
"cup product of alpha with N beta equals the monodromy pairing" statement
into an exact matrix identity.
"""

from functools import cached_property
from math import gcd, lcm, prod

from ._record import Record
from .errors import ValidationError
from .exact_linalg import (
    QMatrix,
    _hull_segments,
    _valuation,
    is_positive_definite,
    is_prime,
    rank,
)
from .weil_data import WeilMatrix


class PhiNModule(Record):
    """Graded integral (phi, N)-module, stored as its free blocks.

    phi = diag(I_w0, phi1, q * I_w2), and N is ``gram`` in block (weight 0,
    weight 2) and zero elsewhere: the weight-0 and weight-2 blocks of phi
    and the block of N are fixed by q and the monodromy pairing, so only
    phi1 and ``gram`` are stored.  phi1 is the block-diagonal sum of the
    square QMatrix ``phi1_blocks``, in order; no dense phi1 is built.
    :func:`assemble` keeps the finest diagonal blocks of its Weil matrix,
    which are unique, so ``==`` on them means ``==`` on phi1.
    ``phi1_factors`` multiply to the characteristic polynomial of phi1,
    ascending and monic; ``==`` and ``hash`` ignore them, as the blocks
    determine them.  The ranks ``dims`` = (w0, w1, w2) are read off the
    blocks: w0 = w2 = gram.rows and w1 is the sum of the phi1 block sizes,
    which is even; ``fil1_dim`` = w2 + w1 / 2.  A module is exactly its
    blocks: no command reads a dense matrix back into one.

    Only shapes are enforced at construction, so test modules with a
    singular gram or phi1 can be built; :func:`assemble` builds modules
    that satisfy the relations, which :func:`verify_relations` checks.
    """

    _fields = ("p", "f", "phi1_blocks", "phi1_factors", "gram")
    _compared = ("p", "f", "phi1_blocks", "gram")

    def __init__(self, p: int, f: int, phi1_blocks: tuple, phi1_factors: tuple, gram: QMatrix):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "phi1_blocks", phi1_blocks)
        object.__setattr__(self, "phi1_factors", phi1_factors)
        object.__setattr__(self, "gram", gram)
        _, w1, w2 = self.dims
        if gram.cols != w2:
            raise ValidationError("gram has wrong shape")
        if any(b.rows != b.cols for b in phi1_blocks):
            raise ValidationError("phi1 has a block that is not square")
        if w1 % 2:
            raise ValidationError("phi1 has odd size")
        if sum(len(chi) - 1 for chi in phi1_factors) != w1:
            raise ValidationError("phi1_factors have wrong degree")

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

    @property
    def fil1_dim(self) -> int:
        """dim Fil^1 = w2 + g, g = w1 / 2 the genus of the abelian part."""
        _, w1, w2 = self.dims
        return w2 + w1 // 2


def assemble(p: int, f: int, gram: QMatrix, w: WeilMatrix) -> PhiNModule:
    """Assemble the graded module from a Gram matrix and a Weil block.

    gram must be symmetric and positive definite (the monodromy pairing
    on the torus character lattice); w must be validated Weil data at the
    same q.  The grading gives the splittings directly: no extension
    data survives at desk scale.  The free blocks are stored as given: the
    blocks of w (and w.factors, their characteristic polynomials) as phi1,
    and gram, which is also N's block from weight 2 to weight 0.

    The result satisfies the relations of :func:`verify_relations`: the
    module's shape forces N^2 = 0 and N phi = q phi N, the Weil gate gives
    det(phi) = q^(w2 + g), and the Gram block is positive definite, so
    rank N = w2.
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
    return PhiNModule(p, f, w.blocks, w.factors, gram)


def _det_phi(m: PhiNModule) -> int:
    """det(phi) as the product of the block determinants; as w1 is even,
    det(phi1) is the product of the constant terms of its factors."""
    return prod(chi[0] for chi in m.phi1_factors) * m.q ** m.dims[2]


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

    The first two are the literal True: N of the module's shape maps
    weight 2 into weight 0, which it kills, and N phi and q phi N are both
    q * gram in block (0, 2) and zero elsewhere.  phi is invertible exactly
    when no factor of chi_phi1 has a zero constant term, as the scalars 1
    and q are not zero; rank N = rank gram.  Each verdict is the one the
    dense matrices of the module give.
    """
    return RelationReport(
        n_squared_zero=True,
        n_phi_commutation=True,
        phi_invertible=all(chi[0] for chi in m.phi1_factors),
        n_rank_is_torus_rank=rank(m.gram) == m.dims[2],
    )


class PolygonReport(Record):
    """Newton and Hodge data of the module's Frobenius and filtration.

    ``newton`` and ``hodge`` are tuples of (slope, multiplicity) pairs with
    strictly increasing slopes and positive multiplicities, as
    :func:`hodge_newton` builds them.  Slopes follow the reciprocal-root
    convention: an eigenvalue alpha of valuation v contributes multiplicity
    1 at slope v.  ``newton`` has its slopes normalized by 1/f;
    ``newton_symmetric`` says whether they are invariant under s -> 1 - s.
    ``t_newton`` and every slope are lowest-terms (num, den) pairs of ints,
    den >= 1, so slope 1/2 is (1, 2) and slope 0 is (0, 1); ``t_hodge`` is
    the int fil1_dim.
    """

    _fields = ("t_newton", "t_hodge", "newton", "hodge", "endpoints_equal",
               "newton_on_or_above_hodge", "newton_symmetric")

    def __init__(self, t_newton: tuple, t_hodge: int, newton: tuple, hodge: tuple,
                 endpoints_equal: bool, newton_on_or_above_hodge: bool, newton_symmetric: bool):
        object.__setattr__(self, "t_newton", t_newton)
        object.__setattr__(self, "t_hodge", t_hodge)
        object.__setattr__(self, "newton", newton)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "endpoints_equal", endpoints_equal)
        object.__setattr__(self, "newton_on_or_above_hodge", newton_on_or_above_hodge)
        object.__setattr__(self, "newton_symmetric", newton_symmetric)


def hodge_newton(m: PhiNModule) -> PolygonReport:
    """Newton polygon of phi (valuations normalized by 1/f) against the
    two-step Hodge polygon determined by fil1_dim (w2 + w1 / 2, never
    above d), and whether the Newton slopes are symmetric about 1/2.

    The characteristic polynomial of phi is the product of phi1_factors,
    (T - 1)^w0 and (T - q)^w2, so its slopes are the union of
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

    The report keeps these pairs as they are: every Newton and Hodge slope,
    and ``t_newton`` = v_p(det phi) / f, is a lowest-terms (num, den) with
    den >= 1, an integer n being (n, 1).
    """
    w0, _, w2 = m.dims
    d, p, f, fil1 = m.dimension, m.p, m.f, m.fil1_dim
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    weight = {}  # factor -> number of times it divides the char. polynomial
    for chi in m.phi1_factors:
        weight[chi] = weight.get(chi, 0) + 1
    for c, w in ((1, w0), (m.q, w2)):
        if w:
            weight[(-c, 1)] = weight.get((-c, 1), 0) + w
    mult = {}  # lowest-terms (num, den) -> number of roots of slope num / den
    for chi, w in weight.items():
        # a zero constant term is refused, so det(phi) has a valuation
        for dy, dx in _hull_segments(chi, p):
            g = gcd(dy, dx * f)
            key = (dy // g, dx * f // g)
            mult[key] = mult.get(key, 0) + dx * w
    scale = lcm(*(den for _, den in mult))  # L
    rise = {s: s[0] * (scale // s[1]) for s in mult}  # slope * L
    slopes = sorted(mult, key=rise.get)
    knee = d - fil1  # the Hodge polygon has slope 0 up to here, then 1
    v = _valuation(_det_phi(m), p) if d else 0
    g = gcd(v, f)
    return PolygonReport(
        t_newton=(v // g, f // g),
        t_hodge=fil1,
        newton=tuple((s, mult[s]) for s in slopes),
        hodge=tuple((s, k) for s, k in (((0, 1), knee), ((1, 1), fil1)) if k > 0),
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
    recovers the monodromy pairing.  The literal True, for every module.

    The duality pairing is the identity on the blocks (w0, w2'), (w1, w1')
    and (w2, w0'), and the dual-side monodromy N' uses the same Gram matrix
    (self-dual inputs).  So pairing with N' moves N's block (0, 2) to block
    (2, 2) and leaves every other block zero, and the monodromy pairing is
    the Gram matrix on block (2, 2).  N's block (0, 2) is the module's
    gram, so the identity holds whatever gram is.
    """
    return True
