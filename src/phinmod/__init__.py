"""Exact filtered (phi, N)-modules of semistable curves and abelian varieties.

Builds, in exact integer arithmetic, the graded Frobenius-monodromy module
on the first de Rham cohomology of a semistable curve (from its dual graph
and component Frobenius data) or of an abelian variety (from its rigid
uniformization data), and verifies the structural identities the two
constructions satisfy, including the agreement of a curve's module with the
component group of its Jacobian.
"""

from ._backend import BACKEND
from .builders import (
    CurveInstance,
    UniformizationData,
    build_from_av,
    build_from_curve,
    check_curve_jacobian_agreement,
    jacobian_data,
)
from .errors import GraphError, SchemaError, ValidationError, WeilValidationError
from .exact_linalg import (
    NewtonPolygon,
    QMatrix,
    Rational,
    char_poly,
    det,
    rank,
)
from .graph_core import (
    DualGraph,
    betti_one,
    cycle_basis,
    monodromy_gram,
    spanning_tree_count,
)
from .phin_module import (
    PhiNModule,
    assemble,
    hodge_newton,
    verify_monodromy_duality,
    verify_relations,
)
from .weil_data import (
    EllipticCurveSpec,
    WeilMatrix,
    count_points,
    direct_sum,
    frobenius_of_elliptic,
    validate_weil,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CurveInstance",
    "DualGraph",
    "EllipticCurveSpec",
    "GraphError",
    "NewtonPolygon",
    "PhiNModule",
    "QMatrix",
    "Rational",
    "SchemaError",
    "UniformizationData",
    "ValidationError",
    "WeilMatrix",
    "WeilValidationError",
    "assemble",
    "betti_one",
    "build_from_av",
    "build_from_curve",
    "char_poly",
    "check_curve_jacobian_agreement",
    "count_points",
    "cycle_basis",
    "det",
    "direct_sum",
    "frobenius_of_elliptic",
    "hodge_newton",
    "jacobian_data",
    "monodromy_gram",
    "rank",
    "spanning_tree_count",
    "validate_weil",
    "verify_monodromy_duality",
    "verify_relations",
]
