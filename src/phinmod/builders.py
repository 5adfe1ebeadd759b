"""The two construction pipelines and the curve/Jacobian agreement check.

Abelian-variety side: torus rank, lattice Gram matrix and the component
sources of the good-reduction part are taken as given (the uniformization
data).  :func:`build_from_av` is the one place a source is resolved: it
turns each into Weil data (:func:`resolve_component`), takes their direct
sum in order and assembles the module.  Curve side: a dual graph with
per-component Frobenius sources is turned into the uniformization data of
its Jacobian (torus rank b1, the monodromy Gram matrix of the cycle space,
the component sources in ascending vertex-id order) and built through the
same path, so each component is resolved once and the Gram matrix comes
only from :func:`monodromy_gram`.

``check_curve_jacobian_agreement`` tests the built module against facts of
the curve that do not go through that path: the weight ranks (b1, 2 * total
genus, b1) and the discriminant of the monodromy pairing, which must equal
the number of spanning trees of the dual graph (the order of the component
group of the Jacobian), counted by the matrix-tree theorem.
"""

from collections.abc import Mapping

from ._record import Record
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
    ``components`` is given as a mapping from vertex id to source and stored
    as the tuple of (vertex id, source) pairs in ascending id order, with
    each row-list source made a QMatrix."""

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
        object.__setattr__(self, "components", tuple(sorted(components.items())))
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
    component sources of the good-reduction part, direct-summed in order.
    ``b_frobenius`` is stored as a tuple of sources as a file gives them
    (None, an :class:`EllipticCurveSpec` over F_p at f = 1 or a QMatrix,
    each row-list source made a QMatrix); :func:`build_from_av` resolves
    them."""

    _fields = ("torus_rank", "gram", "b_frobenius", "p", "f")

    def __init__(self, torus_rank: int, gram: QMatrix, b_frobenius, p: int, f: int = 1):
        check_q(p, f)
        if (gram.rows, gram.cols) != (torus_rank, torus_rank):
            raise ValidationError(
                f"field 'torus_rank' = {clipped(torus_rank)} is not the torus rank of a "
                f"{gram.rows}x{gram.cols} gram"
            )
        sources = []
        for k, src in enumerate(b_frobenius):
            if isinstance(src, EllipticCurveSpec):
                if f != 1:
                    raise ValidationError(
                        f"field 'b_frobenius[{k}]': elliptic sources require f = 1"
                    )
                if src.p != p:
                    raise ValidationError(
                        f"field 'b_frobenius[{k}]': elliptic source lives over F_{src.p}, "
                        f"instance is at q = {p}^{f}"
                    )
            elif src is not None and not isinstance(src, QMatrix):
                src = QMatrix.from_rows(src)
            sources.append(src)
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "b_frobenius", tuple(sources))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)


def build_from_av(u: UniformizationData, bound: int = DEFAULT_POINT_BOUND) -> PhiNModule:
    """Module of an abelian variety from its uniformization data: each
    source resolved at q = p^f (points counted for p up to ``bound``), in
    order, and the direct sum of the results assembled with the Gram
    matrix."""
    blocks = [resolve_component(src, u.p, u.f, bound) for src in u.b_frobenius]
    return assemble(u.p, u.f, u.gram, direct_sum(blocks, u.p, u.f))


def jacobian_data(c: CurveInstance) -> UniformizationData:
    """Uniformization data of the Jacobian: torus rank = b1, lattice pairing
    = monodromy Gram matrix, good-reduction part = product of the component
    Jacobians (their sources, unresolved, in ascending vertex-id order)."""
    return UniformizationData(
        torus_rank=betti_one(c.graph),
        gram=monodromy_gram(c.graph),
        b_frobenius=[src for _, src in c.components],
        p=c.p,
        f=c.f,
    )


def build_from_curve(c: CurveInstance, bound: int = DEFAULT_POINT_BOUND) -> PhiNModule:
    """Module of a semistable curve: the module of its Jacobian's
    uniformization data."""
    return build_from_av(jacobian_data(c), bound)


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
