"""Cross-module checks: the cycle-space pairing against the built module.

A class of the toric part has one coordinate per edge, its residue on the
annulus of that edge, and the dense fundamental cycles of
:func:`cycle_basis` give those coordinates for the basis classes.  The
sum-over-edges residue-product formula then has to reproduce the Gram
matrix entries, and applying the module's N to the corresponding weight-2
coordinate vector has to land on the same numbers in the weight-0 block.
"""

from phinmod.builders import build_from_curve
from phinmod.exact_linalg import QMatrix
from phinmod.graph_core import cycle_basis, monodromy_gram

from conftest import theta_instance
from oracles import dense_module


def residue_product(x, y):
    """Sum over edges of the product of the two residues."""
    return sum(a * b for a, b in zip(x, y))


def test_residue_formula_reproduces_gram():
    inst = theta_instance()
    cycles = cycle_basis(inst.graph)
    gram = monodromy_gram(inst.graph)
    for i, ci in enumerate(cycles):
        for j, cj in enumerate(cycles):
            assert residue_product(ci, cj) == gram[i, j]


def test_n_acts_by_residue_coordinates():
    inst = theta_instance()
    m = build_from_curve(inst)
    cycles = cycle_basis(inst.graph)
    w0, w1, w2 = m.dims
    for k, cyc in enumerate(cycles):
        # weight-2 coordinate vector of the k-th basis class
        vec = [0] * m.dimension
        vec[w0 + w1 + k] = 1
        column = QMatrix(m.dimension, 1, tuple(vec))
        image = dense_module(m).n @ column
        # N lands in weight 0 with the Gram pairings of the residue data
        expected = [residue_product(other, cyc) for other in cycles]
        assert [image[i, 0] for i in range(w0)] == expected
        assert all(image[i, 0] == 0 for i in range(w0, m.dimension))
