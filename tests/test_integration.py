"""Cross-module checks: residues on per-edge annuli against the cycle-space
pairing, and the nilpotent operator in hypercocycle form.

A class of the toric part is realized concretely as one Laurent form per
edge whose residue is the cycle coordinate on that edge (plus exact noise,
which residues ignore).  The sum-over-edges residue-product formula then has
to reproduce the Gram matrix entries, and applying the module's N to the
corresponding weight-2 coordinate vector has to land on the same numbers in
the weight-0 block.
"""

import random
from fractions import Fraction

from phinmod.builders import build_from_curve
from phinmod.graph_core import cycle_basis, edge_pairing, monodromy_gram
from phinmod.laurent_calc import LaurentForm, LaurentPolynomial, residue
from phinmod.exact_linalg import QMatrix

from conftest import theta_instance
from oracles import dense_module


def forms_with_residues(coords, rng):
    """One 1-form per edge: residue = coordinate, plus random exact noise."""
    forms = []
    for c in coords:
        noise = LaurentPolynomial.make(
            {rng.randint(-4, 4): Fraction(rng.randint(-9, 9)) for _ in range(3)}
        )
        forms.append(LaurentForm.make({-1: c}) + noise.differential())
    return forms


def test_residue_formula_reproduces_gram():
    inst = theta_instance()
    basis = cycle_basis(inst.graph)
    gram = monodromy_gram(inst.graph)
    rng = random.Random(3)
    realized = [forms_with_residues(c, rng) for c in basis.cycles]
    for i, forms_i in enumerate(realized):
        for j, forms_j in enumerate(realized):
            pairing = sum(
                residue(wi) * residue(wj) for wi, wj in zip(forms_i, forms_j)
            )
            assert pairing == gram[i, j]
            assert pairing == edge_pairing(
                [residue(w) for w in forms_i], [residue(w) for w in forms_j]
            )


def test_n_acts_by_residue_coordinates():
    inst = theta_instance()
    m = build_from_curve(inst)
    basis = cycle_basis(inst.graph)
    rng = random.Random(4)
    w0, w1, w2 = m.dims
    for k, cyc in enumerate(basis.cycles):
        forms = forms_with_residues(cyc, rng)
        residues = [residue(w) for w in forms]
        # weight-2 coordinate vector of the k-th basis class
        vec = [0] * m.dimension
        vec[w0 + w1 + k] = 1
        column = QMatrix(m.dimension, 1, tuple(vec))
        image = dense_module(m).n @ column
        # N lands in weight 0 with the Gram pairings of the residue data
        expected = [
            edge_pairing(other, residues) for other in basis.cycles
        ]
        assert [image[i, 0] for i in range(w0)] == expected
        assert all(image[i, 0] == 0 for i in range(w0, m.dimension))
