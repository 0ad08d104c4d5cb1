"""One command's molecule table: each distinct SMILES string parsed once,
and that parse's structure keys and embedding rows.

A command builds one ``MoleculeTable`` and hands it to every reader of its
inputs; nothing keeps it past the command, so two commands run in one
process share no work.  A reader asks ``read`` for the work a string needs
(its keys, its rows, or only the check that it parses), and one parse does
all of it: the graphs are then dropped, and the table keeps only

- the sorted structure keys of each keyed string's dot-separated
  fragments, and
- the embedding rows of each embedded string's fragments, stacked in one
  float64 matrix, with the encoder that made them.

A string that was only checked is not kept: at 20,000 reactions that
dictionary raised peak memory by ~2%.  A reader may hand ``set_key`` keys
a file kept (``load_index`` passes an index's ``.keys.json``): a string
new to the table is then still parsed, so a bad string fails as before,
but takes its stored keys instead of being keyed again.

Rows are made through ``embed_molecules``' stacked forward pass, the graphs
of at most ``EMBED_CHUNK`` molecules (plus one string's fragments) at a
time: with no chunk, building the 20,000-reaction benchmark index and
embedding its training set in one process peaked at 170 MB, against 82 MB
with chunks of 1,024.  A chunk that ``read`` cannot embed (an element outside the features, or
weights that overflow) keeps no rows, and the error is left to the reader
that asks for them.  ``embed`` sums each side's fragment rows left to right,
the sum ``embed_set`` takes, so the bytes match it; a string with no rows
from the same encoder is parsed and embedded there.  A command reads its
rows once (the index's product sets, or the training reactants), and that
reader then frees them with ``drop_rows``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .encoder import GnnWeights, embed_molecules
from .encoder.model import sum_left_to_right
from .loading import InputError
from .molgraph import FeatureConfig, MolecularGraph, parse_smiles
from .molgraph.canonical import canonical_key

# molecules featurized and embedded together: a chunk of 1,024 took as
# long to embed, but kept more graphs alive through the garbage
# collector's passes, which then ran more often and for longer
EMBED_CHUNK = 256


class MoleculeTable:
    """The structure keys and embedding rows of SMILES strings.

    Keys are a pure function of the string, so threads may race to fill an
    entry: the loser's work is dropped.  Rows are made while a command sets
    up, before any thread runs.  They belong to one encoder, the weights
    and features given here, to ``use_encoder`` or to ``embed``; a switch
    to another encoder drops them.
    """

    def __init__(
        self, weights: GnnWeights | None = None, feature_cfg: FeatureConfig = FeatureConfig()
    ) -> None:
        self._keys: dict[str, tuple[str, ...]] = {}
        self._encoder = None if weights is None else (weights, feature_cfg)
        self._rows: dict[str, range] = {}  # a string's fragment rows in the matrix
        self._blocks: list[np.ndarray] = []  # the matrix, one block per embedded chunk
        self._pending: dict[str, list[MolecularGraph]] = {}  # parsed, to be embedded
        self._pending_graphs = 0

    def read(self, smiles: str, *, key: bool = False, embed: bool = False) -> None:
        """Parse smiles, unless the table holds what is asked: with key its
        keys, with embed its rows (when the table has an encoder; queued
        until a chunk fills), and with neither the string at all."""
        wants_key = key and smiles not in self._keys
        wants_rows = embed and self._encoder is not None and not self._embedded(smiles)
        if not (wants_key or wants_rows) and (smiles in self._keys or self._embedded(smiles)):
            return
        graphs = parse_smiles(smiles)
        if wants_key:
            self._key(smiles, graphs)
        if wants_rows:
            self._queue(smiles, graphs, strict=False)

    def use_encoder(self, weights: GnnWeights, feature_cfg: FeatureConfig) -> None:
        """Make later rows with these weights and features; rows another
        encoder made are dropped."""
        if self._encoder is None or not (
            self._encoder[0] is weights and self._encoder[1] == feature_cfg
        ):
            self._encoder = (weights, feature_cfg)
            self.drop_rows()

    def drop_rows(self) -> None:
        """Free the rows once their last reader has summed them: a command
        reads them once (the index's product sets, or the training
        reactants)."""
        self._rows, self._blocks, self._pending, self._pending_graphs = {}, [], {}, 0

    def flush(self) -> None:
        """Embed the queued strings; a chunk that cannot be embedded keeps
        no rows, and ``embed`` meets its error again if asked for them."""
        self._embed_pending(strict=False)

    def set_key(
        self, side: Sequence[str], stored: Mapping[str, tuple[str, ...]] | None = None
    ) -> tuple[str, ...]:
        """Sorted multiset of the structure keys of every fragment of side.
        A string new to the table is parsed, then keyed from the parse, or
        given its keys from stored when they are there."""
        stored = stored or {}
        keys = [
            self._keys.get(smiles) or self._key(smiles, parse_smiles(smiles), stored.get(smiles))
            for smiles in side
        ]
        if len(keys) == 1:
            return keys[0]
        return tuple(sorted(key for string_keys in keys for key in string_keys))

    def embed(
        self, sides: Sequence[Sequence[str]], weights: GnnWeights, feature_cfg: FeatureConfig
    ) -> np.ndarray:
        """One embedding per side, as a matrix: each row sums its side's
        fragment rows left to right, as ``embed_set`` sums them.  A string
        with no rows is parsed and embedded here, each distinct one once."""
        self.use_encoder(weights, feature_cfg)
        self.flush()
        for side in sides:
            for smiles in side:
                if not self._embedded(smiles):
                    self._queue(smiles, parse_smiles(smiles), strict=True)
        self._embed_pending(strict=True)
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks)]
        rows = self._blocks[0] if self._blocks else np.empty((0, weights.config.embed_dim))
        out = np.empty((len(sides), weights.config.embed_dim))
        for i, side in enumerate(sides):
            out[i] = sum_left_to_right([rows[r] for smiles in side for r in self._rows[smiles]])
        return out

    def _key(
        self, smiles: str, graphs: list[MolecularGraph], stored: tuple[str, ...] | None = None
    ) -> tuple[str, ...]:
        keys = stored or tuple(sorted(canonical_key(g) for g in graphs))
        return self._keys.setdefault(smiles, keys)

    def _embedded(self, smiles: str) -> bool:
        return smiles in self._rows or smiles in self._pending

    def _queue(self, smiles: str, graphs: list[MolecularGraph], strict: bool) -> None:
        self._pending[smiles] = graphs
        self._pending_graphs += len(graphs)
        if self._pending_graphs >= EMBED_CHUNK:
            self._embed_pending(strict)

    def _embed_pending(self, strict: bool) -> None:
        pending, self._pending, self._pending_graphs = self._pending, {}, 0
        if not pending:
            return
        weights, feature_cfg = self._encoder
        try:
            graphs = [graph for string_graphs in pending.values() for graph in string_graphs]
            block = embed_molecules(graphs, weights, feature_cfg)
        except InputError:
            if strict:
                raise
            return
        start = sum(len(b) for b in self._blocks)
        for smiles, string_graphs in pending.items():
            self._rows[smiles] = range(start, start + len(string_graphs))
            start += len(string_graphs)
        self._blocks.append(block)
