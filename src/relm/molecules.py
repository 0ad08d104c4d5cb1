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
peak memory by more than the benchmark's bound.  ``embed_parsed`` embeds
each distinct string of one call once, through ``embed_molecules``'
stacked forward pass, and sums each side's fragment rows left to right,
the sum ``embed_set`` takes, so the bytes match it.  It holds the graphs
of at most ``EMBED_CHUNK`` molecules (plus one string's fragments) at a
time: with no chunk, building the 20,000-reaction benchmark index and
embedding its training set in one process peaked at 170 MB, against 82 MB.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .encoder import GnnWeights, embed_molecules
from .encoder.model import sum_left_to_right
from .molgraph import FeatureConfig, MolecularGraph, parse_smiles
from .molgraph.canonical import canonical_key

# molecules featurized and embedded together; a larger chunk saves little
# per-call overhead and holds more graphs
EMBED_CHUNK = 1024


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

    def parse(self, smiles: str) -> list[MolecularGraph]:
        """The fragments of smiles, keyed in the table from this parse when
        the string is new to it."""
        graphs = parse_smiles(smiles)
        if smiles not in self._keys:
            self._key(smiles, graphs)
        return graphs

    def _key(self, smiles: str, graphs: list[MolecularGraph]) -> tuple[str, ...]:
        return self._keys.setdefault(smiles, tuple(sorted(canonical_key(g) for g in graphs)))


def embed_sides(
    sides: Sequence[Sequence[str]], weights: GnnWeights, feature_cfg: FeatureConfig
) -> np.ndarray:
    """One embedding per side, as a matrix.  Each distinct string is parsed
    and embedded once; each row sums its side's fragment rows left to right,
    as ``embed_set`` sums them."""
    return embed_parsed(sides, parse_smiles, weights, feature_cfg)


def embed_parsed(
    sides: Sequence[Sequence[str]],
    graphs_of: Callable[[str], list[MolecularGraph]],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
) -> np.ndarray:
    """``embed_sides``, with each distinct string's fragments from
    ``graphs_of``, called once per string in order of first appearance."""
    where: dict[str, range] = {}
    pending: list[MolecularGraph] = []
    blocks: list[np.ndarray] = []
    count = 0
    for side in sides:
        for smiles in side:
            if smiles not in where:
                graphs = graphs_of(smiles)
                where[smiles] = range(count, count + len(graphs))
                count += len(graphs)
                pending.extend(graphs)
                if len(pending) >= EMBED_CHUNK:
                    blocks.append(embed_molecules(pending, weights, feature_cfg))
                    pending = []
    blocks.append(embed_molecules(pending, weights, feature_cfg))
    rows = np.concatenate(blocks)
    out = np.empty((len(sides), weights.config.embed_dim))
    for i, side in enumerate(sides):
        out[i] = sum_left_to_right([rows[r] for smiles in side for r in where[smiles]])
    return out
