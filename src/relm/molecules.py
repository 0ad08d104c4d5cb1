"""One command's molecule table, and set embeddings that embed each
distinct SMILES string once.

A command builds one ``MoleculeTable`` and hands it to every reader of its
inputs; nothing keeps it past the command, so two commands run in one
process share no work.  The table holds, once first asked for, the
sorted structure keys of each string's dot-separated fragments.  No
parsed graph is kept, and a string that was only checked is not kept
either: at 20,000 reactions that dictionary raised peak memory by ~2%.

Embeddings are not kept either: a command embeds a set of sides once (the
index's product sets, or the training set's reactants), so rows kept for
a later call would never be read, and at 20,000 reactions they raised
peak memory by more than the benchmark's bound.  ``embed_sides`` embeds
each distinct string of one call once, and sums each side's fragment
rows left to right, the sum ``embed_set`` takes, so the bytes match it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .encoder import EmptySet, GnnWeights, embed_molecule
from .molgraph import FeatureConfig, MolecularGraph, parse_smiles
from .molgraph.canonical import canonical_key


class MoleculeTable:
    """The structure keys of SMILES strings, each worked out on first use.

    Keys are a pure function of the string, so threads may race to fill an
    entry: the loser's work is dropped.
    """

    def __init__(self) -> None:
        self._keys: dict[str, tuple[str, ...]] = {}

    def check(self, side: Sequence[str]) -> None:
        """Raise ``SmilesError`` for the first string of side that does not
        parse; a keyed string parsed already."""
        for smiles in side:
            if smiles not in self._keys:
                parse_smiles(smiles)

    def set_key(self, side: Sequence[str]) -> tuple[str, ...]:
        """Sorted multiset of the structure keys of every fragment of side."""
        keys = [self._keys.get(smiles) or self._key(smiles, parse_smiles(smiles)) for smiles in side]
        if len(keys) == 1:
            return keys[0]
        return tuple(sorted(key for string_keys in keys for key in string_keys))

    def key_and_embed(
        self, side: Sequence[str], weights: GnnWeights, feature_cfg: FeatureConfig
    ) -> tuple[tuple[str, ...], np.ndarray]:
        """``set_key`` of side and its embedding (``embed_sides``' row), parsing
        each string once for both."""
        rows: list[np.ndarray] = []
        for smiles in side:
            graphs = parse_smiles(smiles)
            if smiles not in self._keys:
                self._key(smiles, graphs)
            rows.extend(embed_molecule(g, weights, feature_cfg).values for g in graphs)
        return self.set_key(side), _sum_left_to_right(rows)

    def _key(self, smiles: str, graphs: list[MolecularGraph]) -> tuple[str, ...]:
        return self._keys.setdefault(smiles, tuple(sorted(canonical_key(g) for g in graphs)))


def embed_sides(
    sides: Sequence[Sequence[str]], weights: GnnWeights, feature_cfg: FeatureConfig
) -> np.ndarray:
    """One embedding per side, as a matrix.  Each distinct string is parsed
    and embedded once; each row sums its side's fragment rows left to right,
    as ``embed_set`` sums them."""
    where: dict[str, range] = {}
    rows: list[np.ndarray] = []
    out = np.empty((len(sides), weights.config.embed_dim))
    for i, side in enumerate(sides):
        for smiles in side:
            if smiles not in where:
                graphs = parse_smiles(smiles)
                where[smiles] = range(len(rows), len(rows) + len(graphs))
                rows.extend(embed_molecule(g, weights, feature_cfg).values for g in graphs)
        out[i] = _sum_left_to_right([rows[r] for smiles in side for r in where[smiles]])
    return out


def _sum_left_to_right(rows: list[np.ndarray]) -> np.ndarray:
    if not rows:
        raise EmptySet("cannot embed an empty molecule set")
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total
