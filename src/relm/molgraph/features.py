"""Numeric featurization of molecular graphs for the encoder.

Node features concatenate one-hot blocks for element, degree and formal
charge plus two flags (aromatic, has explicit hydrogens).  The adjacency
matrix is symmetrically normalized with self-loops:
D^{-1/2} (A + I) D^{-1/2}.

``stacked_features`` featurizes graphs of one atom count together into
(B, n, f) and (B, n, n) arrays with whole-array writes, for the encoder's
stacked forward pass; ``graph_features`` is its one-graph case, so both
give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .types import MAX_ABS_CHARGE, SUPPORTED_ELEMENTS, MolecularGraph, UnknownElement

# formal charges are one-hot over -MAX_ABS_CHARGE .. +MAX_ABS_CHARGE
_CHARGE_WIDTH = 2 * MAX_ABS_CHARGE + 1
_FLAG_WIDTH = 2


@dataclass(frozen=True)
class FeatureConfig:
    """Featurization settings; feature_dim is fully determined by them."""

    element_vocab: tuple[str, ...] = SUPPORTED_ELEMENTS
    max_degree: int = 6

    def __post_init__(self) -> None:
        if len(set(self.element_vocab)) != len(self.element_vocab):
            raise ValueError("element_vocab has duplicates")
        if not self.element_vocab:
            raise ValueError("element_vocab is empty")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")

    @property
    def feature_dim(self) -> int:
        return (
            len(self.element_vocab)
            + (self.max_degree + 1)
            + _CHARGE_WIDTH
            + _FLAG_WIDTH
        )

    @cached_property
    def element_index(self) -> dict[str, int]:
        """Column of each vocabulary element in the element block."""
        return {e: i for i, e in enumerate(self.element_vocab)}


def graph_features(
    graph: MolecularGraph, config: FeatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Return (node feature matrix, normalized adjacency) for ``graph``.

    Shapes are (n, feature_dim) and (n, n), both float64.  Degrees above
    max_degree land in the top degree bucket; elements outside the
    vocabulary raise UnknownElement.  This is ``stacked_features`` of the
    one graph.
    """
    x, a = stacked_features([graph], config)
    return x[0], a[0]


def stacked_features(
    graphs: Sequence[MolecularGraph], config: FeatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``graph_features`` of graphs that all have n atoms, stacked.

    Shapes are (len(graphs), n, feature_dim) and (len(graphs), n, n); slice
    b holds exactly the matrices ``graph_features`` gives for graphs[b].
    """
    count, n = len(graphs), graphs[0].num_atoms
    if any(graph.num_atoms != n for graph in graphs):
        raise ValueError("stacked graphs must have the same atom count")
    element_index = config.element_index
    atoms = []  # (element column, formal charge, aromatic, has explicit H) per atom
    bonds = []  # (graph, atom, atom) per bond
    for g, graph in enumerate(graphs):
        for atom in graph.atoms:
            column = element_index.get(atom.element)
            if column is None:
                raise UnknownElement(
                    f"element {atom.element!r} is outside the feature vocabulary"
                )
            atoms.append((column, atom.formal_charge, atom.aromatic, atom.explicit_h > 0))
        bonds.extend((g, bond.a, bond.b) for bond in graph.bonds)
    columns = np.array(atoms, dtype=np.intp).T
    ends = np.array(bonds, dtype=np.intp).reshape(-1, 3).T

    a = np.zeros((count, n, n), dtype=np.float64)
    diagonal = np.arange(n)
    a[:, diagonal, diagonal] = 1.0
    a[ends[0], ends[1], ends[2]] = 1.0
    a[ends[0], ends[2], ends[1]] = 1.0
    degree = a.sum(axis=2)

    degree_base = len(config.element_vocab)
    charge_base = degree_base + config.max_degree + 1
    flag_base = charge_base + _CHARGE_WIDTH
    x = np.zeros((count * n, config.feature_dim), dtype=np.float64)
    rows = np.arange(count * n)
    bond_counts = degree.reshape(-1).astype(np.intp) - 1
    x[rows, columns[0]] = 1.0
    x[rows, degree_base + np.minimum(bond_counts, config.max_degree)] = 1.0
    x[rows, charge_base + MAX_ABS_CHARGE + columns[1]] = 1.0
    x[rows, flag_base] = columns[2]
    x[rows, flag_base + 1] = columns[3]
    # dividing by sqrt(d_i * d_j) keeps entries exact when the product is
    # a perfect square (e.g. the two-node graph yields exactly 1/2)
    a_norm = a / np.sqrt(degree[:, :, None] * degree[:, None, :])
    return x.reshape(count, n, config.feature_dim), a_norm
