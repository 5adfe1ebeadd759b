import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from phinmod.builders import (
    CurveInstance,
    build_from_curve,
    check_curve_jacobian_agreement,
    resolve_component,
)
from phinmod.fuzz import instance_stream
from phinmod.graph_core import DualGraph
from phinmod.phin_module import (
    hodge_newton,
    verify_monodromy_duality,
    verify_relations,
)
from phinmod.weil_data import direct_sum

FUZZ_SEED = 1
FUZZ_COUNT = 200

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def resolved_weil(u):
    """The Weil part of the uniformization data ``u``: its sources resolved
    and summed as ``build_from_av`` does."""
    return direct_sum([resolve_component(src, u.p, u.f) for src in u.b_frobenius], u.p, u.f)


def tate_instance() -> CurveInstance:
    g = DualGraph.build([("v0", 0)], [("e0", "v0", "v0")])
    return CurveInstance(graph=g, components={"v0": None}, p=5)


def banana_instance() -> CurveInstance:
    g = DualGraph.build(
        [("v0", 0), ("v1", 0)],
        [("e0", "v0", "v1"), ("e1", "v0", "v1")],
    )
    return CurveInstance(graph=g, components={"v0": None, "v1": None}, p=5)


def theta_instance() -> CurveInstance:
    g = DualGraph.build(
        [("v0", 0), ("v1", 0)],
        [("e0", "v0", "v1"), ("e1", "v0", "v1"), ("e2", "v0", "v1")],
    )
    return CurveInstance(graph=g, components={"v0": None, "v1": None}, p=5)


@pytest.fixture(scope="session")
def golden_instances():
    return {
        "tate": tate_instance(),
        "banana": banana_instance(),
        "theta": theta_instance(),
    }


@dataclass
class CheckedInstance:
    instance: CurveInstance
    module: object
    relations: object
    polygons: object
    duality: bool
    agreement: bool


@dataclass
class FuzzBatch:
    results: list
    elapsed: float  # build + all checks, seconds


@pytest.fixture(scope="session")
def fuzz_batch() -> FuzzBatch:
    """200 seeded instances with all checks precomputed (shared by the
    acceptance criteria; elapsed time covers generation, build and checks)."""
    t0 = time.perf_counter()
    results = []
    for inst in instance_stream(FUZZ_SEED, FUZZ_COUNT):
        module = build_from_curve(inst)
        results.append(
            CheckedInstance(
                instance=inst,
                module=module,
                relations=verify_relations(module),
                polygons=hodge_newton(module),
                duality=verify_monodromy_duality(module),
                agreement=check_curve_jacobian_agreement(inst, module),
            )
        )
    return FuzzBatch(results=results, elapsed=time.perf_counter() - t0)
