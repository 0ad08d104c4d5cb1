"""Order-independent structural keys via iterative neighborhood refinement.

Each atom starts from a label built out of its local attributes; four
refinement rounds then fold in the sorted multiset of (bond order,
neighbor label) pairs.  The graph key hashes the sorted final labels, so
any atom permutation of the same graph produces the same key.  Keys are
equal for isomorphic graphs, but this is 1-WL colour refinement, so
non-isomorphic graphs that it cannot separate share a key.  Decalin
``C1CCC2CCCCC2C1`` and bicyclopentyl ``C1CCC(C1)C1CCCC1`` are one such
pair: no number of rounds tells them apart, and they get the same key.
"""

from __future__ import annotations

import hashlib

from .types import MolecularGraph

REFINEMENT_ROUNDS = 4


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def canonical_key(graph: MolecularGraph) -> str:
    """Hex key identifying ``graph`` up to atom reordering."""
    labels = [
        _digest(
            f"{atom.element}|{atom.formal_charge}|{atom.explicit_h}"
            f"|{int(atom.aromatic)}"
        )
        for atom in graph.atoms
    ]
    neighborhoods = [
        [(order.value, other) for other, order in graph.neighbors(i)]
        for i in range(graph.num_atoms)
    ]
    for _ in range(REFINEMENT_ROUNDS):
        labels = [
            _digest(
                labels[i]
                + "|"
                + ";".join(
                    sorted(f"{order}:{labels[j]}" for order, j in neighborhoods[i])
                )
            )
            for i in range(graph.num_atoms)
        ]
    summary = "|".join(sorted(labels))
    return _digest(f"{graph.num_atoms}|{graph.num_bonds}|{summary}")
