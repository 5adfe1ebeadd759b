"""The two construction pipelines and the curve/Jacobian agreement check.

Abelian-variety side: torus rank, lattice Gram matrix and good-reduction
Frobenius are taken as given (the uniformization data).  Curve side: a dual
graph with per-component Frobenius sources is turned into the uniformization
data of its Jacobian (torus rank b1, the monodromy Gram matrix of the cycle
space, the direct sum of the component blocks in ascending vertex-id order)
and built through the same path, so each component is resolved once and the
Gram matrix comes only from :func:`monodromy_gram`.

``check_curve_jacobian_agreement`` tests the built module against facts of
the curve that do not go through that path: the weight ranks (b1, 2 * total
genus, b1) and the discriminant of the monodromy pairing, which must equal
the number of spanning trees of the dual graph (the order of the component
group of the Jacobian), counted by the matrix-tree theorem.
"""

from typing import Mapping

from ._record import FrozenMap, Record
from .errors import ValidationError, clipped, clipped_items
from .exact_linalg import QMatrix, det
from .graph_core import DualGraph, betti_one, monodromy_gram, spanning_tree_count
from .phin_module import PhiNModule, assemble
from .weil_data import (
    DEFAULT_POINT_BOUND,
    EllipticCurveSpec,
    WeilMatrix,
    check_q,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

# A component Frobenius source is one of:
#   None                 -- genus-0 component (no block)
#   EllipticCurveSpec    -- genus-1 component, counted over F_p (f = 1 only)
#   QMatrix / row list   -- explicit integer Weil-q matrix of size 2*genus,
#                           stored as a QMatrix


class CurveInstance(Record):
    """Semistable curve datum: dual graph plus component Frobenius sources.
    ``components`` is stored as a read-only :class:`FrozenMap`, with each
    row-list source made a QMatrix."""

    _fields = ("graph", "components", "p", "f")

    def __init__(self, graph: DualGraph, components: Mapping, p: int, f: int = 1):
        components = dict(components)
        check_q(p, f)
        vids = {v.id for v in graph.vertices}
        missing = vids - set(components)
        if missing:
            raise ValidationError(
                f"no component source for vertices ({len(missing)}): "
                f"{clipped_items(sorted(missing))}"
            )
        extra = set(components) - vids
        if extra:
            raise ValidationError(
                f"component sources for unknown vertices ({len(extra)}): "
                f"{clipped_items(sorted(extra, key=str))}"
            )
        for v in graph.vertices:
            src = components[v.id]
            if src is None:
                if v.genus != 0:
                    raise ValidationError(
                        f"vertex {clipped(v.id)} has genus {clipped(v.genus)} but a genus-0 source"
                    )
            elif isinstance(src, EllipticCurveSpec):
                if v.genus != 1:
                    raise ValidationError(
                        f"vertex {clipped(v.id)} has genus {clipped(v.genus)} but an elliptic source"
                    )
                if src.p != p or f != 1:
                    raise ValidationError(
                        f"elliptic source of vertex {clipped(v.id)} lives over F_{src.p}, "
                        f"instance is at q = {p}^{f}"
                    )
            else:
                m = src if isinstance(src, QMatrix) else QMatrix.from_rows(src)
                if (m.rows, m.cols) != (2 * v.genus, 2 * v.genus):
                    raise ValidationError(
                        f"vertex {clipped(v.id)} has genus {clipped(v.genus)} but a "
                        f"{m.rows}x{m.cols} matrix source"
                    )
                components[v.id] = m
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "components", FrozenMap(components))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)


def resolve_component(src, p: int, f: int, bound: int = DEFAULT_POINT_BOUND) -> WeilMatrix:
    """Turn a component source into validated Weil data at q = p^f.

    A genus-0 component adds no block and no factor, which meets every Weil
    condition, so it is returned unvalidated; (p, f) is checked by the
    instance that holds the component.  An elliptic block is built from its
    counted trace (:func:`frobenius_of_elliptic`); only an explicit matrix
    goes through :func:`validate_weil`, which resolves an empty one as
    genus 0.
    """
    if src is None:
        return WeilMatrix(p, f, (), ())
    if isinstance(src, EllipticCurveSpec):
        return frobenius_of_elliptic(src, bound)
    return validate_weil(src, p, f)


class UniformizationData(Record):
    """Abelian-variety datum: torus rank, lattice Gram matrix, and the
    good-reduction part's Frobenius."""

    _fields = ("torus_rank", "gram", "b_frobenius", "p", "f")

    def __init__(self, torus_rank: int, gram: QMatrix, b_frobenius: WeilMatrix, p: int,
                 f: int = 1):
        check_q(p, f)
        if (gram.rows, gram.cols) != (torus_rank, torus_rank):
            raise ValidationError(
                f"field 'torus_rank' = {clipped(torus_rank)} is not the torus rank of a "
                f"{gram.rows}x{gram.cols} gram"
            )
        if (b_frobenius.p, b_frobenius.f) != (p, f):
            raise ValidationError("good-reduction Frobenius q mismatch")
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "b_frobenius", b_frobenius)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)


def build_from_av(u: UniformizationData) -> PhiNModule:
    """Module of an abelian variety from its uniformization data."""
    return assemble(u.p, u.f, u.gram, u.b_frobenius)


def jacobian_data(c: CurveInstance, bound: int = DEFAULT_POINT_BOUND) -> UniformizationData:
    """Uniformization data of the Jacobian: torus rank = b1, lattice pairing
    = monodromy Gram matrix, good-reduction part = product of the component
    Jacobians (blocks in ascending vertex-id order)."""
    blocks = [
        resolve_component(c.components[v.id], c.p, c.f, bound)
        for v in sorted(c.graph.vertices, key=lambda v: v.id)
    ]
    return UniformizationData(
        torus_rank=betti_one(c.graph),
        gram=monodromy_gram(c.graph),
        b_frobenius=direct_sum(blocks, c.p, c.f),
        p=c.p,
        f=c.f,
    )


def build_from_curve(c: CurveInstance, bound: int = DEFAULT_POINT_BOUND) -> PhiNModule:
    """Module of a semistable curve: the module of its Jacobian's
    uniformization data."""
    return build_from_av(jacobian_data(c, bound))


def check_curve_jacobian_agreement(c: CurveInstance, module: PhiNModule) -> bool:
    """Does ``module`` (built from ``c``) have the curve's weight ranks
    (b1, 2 * total genus, b1), and does its Gram determinant equal the
    spanning-tree count of the dual graph?  False signals an implementation
    bug."""
    b1 = betti_one(c.graph)
    return (
        module.dims == (b1, 2 * c.graph.total_genus(), b1)
        and det(module.gram) == spanning_tree_count(c.graph)
    )
