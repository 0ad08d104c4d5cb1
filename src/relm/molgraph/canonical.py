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

import functools
import hashlib

from .types import MolecularGraph

REFINEMENT_ROUNDS = 4


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@functools.lru_cache(maxsize=1024)
def _atom_label(element: str, formal_charge: int, explicit_h: int, aromatic: bool) -> str:
    return _digest(f"{element}|{formal_charge}|{explicit_h}|{int(aromatic)}")


def canonical_key(graph: MolecularGraph) -> str:
    """Hex key identifying ``graph`` up to atom reordering."""
    labels = [
        _atom_label(atom.element, atom.formal_charge, atom.explicit_h, atom.aromatic)
        for atom in graph.atoms
    ]
    # each neighbour's "{bond order}:" prefix, made once for all rounds
    # (``_value_`` is ``value`` without the descriptor call)
    neighborhoods = [
        [(f"{order._value_}:", other) for other, order in row] for row in graph.adjacency
    ]
    for _ in range(REFINEMENT_ROUNDS):
        labels = [
            _digest(
                labels[i]
                + "|"
                + ";".join(sorted([prefix + labels[j] for prefix, j in neighborhood]))
            )
            for i, neighborhood in enumerate(neighborhoods)
        ]
    summary = "|".join(sorted(labels))
    return _digest(f"{graph.num_atoms}|{graph.num_bonds}|{summary}")
