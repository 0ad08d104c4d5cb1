"""Graph encoder: stacked topology-adaptive layers with sum-pooling.

Each layer computes activation(sum_k A^k X W_k) where A is the
normalized adjacency and k runs from 0 to hops_per_layer.  Powers of A
are applied by repeated multiplication, never materialized.  Hidden
layers use the configured activation; the final layer is always linear.
A molecule embedding is the sum of its node rows, and a set of molecules
embeds as the sum of the member embeddings.

``stacked_groups`` featurizes the graphs with n atoms into stacked
(B, n, f) and (B, n, n) arrays; ``embed_molecules`` and training run one
forward pass per group.  Nothing is padded, so ``np.matmul`` runs, for
each slice, the same product as for that molecule alone, and every row is
bit-identical to the molecule's own forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..loading import InputError
from ..molgraph import FeatureConfig, MolecularGraph, graph_features, stacked_features

ACTIVATIONS = ("relu", "identity")


class ShapeMismatch(InputError, ValueError):
    """Raised when weights, features or embeddings disagree on shape."""


class EmptySet(ValueError):
    """Raised when embedding an empty molecule set."""


class EmbeddingOverflow(InputError, ValueError):
    """Raised when the weights drive an embedding or its squared norm past float64."""


@dataclass(frozen=True)
class EncoderConfig:
    feature_dim: int
    embed_dim: int
    num_layers: int = 2
    hops_per_layer: int = 2
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.embed_dim < 1:
            raise ValueError("feature_dim and embed_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hops_per_layer < 0:
            raise ValueError("hops_per_layer must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )

    def layer_dims(self) -> list[tuple[int, int]]:
        """(in, out) width of each layer; hidden width equals embed_dim."""
        dims = []
        for layer in range(self.num_layers):
            in_dim = self.feature_dim if layer == 0 else self.embed_dim
            dims.append((in_dim, self.embed_dim))
        return dims

    def layer_activation(self, layer: int) -> str:
        return self.activation if layer < self.num_layers - 1 else "identity"


@dataclass(eq=False)
class Embedding:
    """A 1-D float64 vector whose entries and squared norm are finite."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeMismatch("an embedding must be a 1-D vector")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.values @ self.values):
                raise EmbeddingOverflow("embedding has a non-finite entry or squared norm")

    @classmethod
    def rows(cls, matrix: np.ndarray) -> list[Embedding]:
        """One embedding per row of a 2-D float64 matrix, each a view of its
        row; the check each row's own construction makes is made once, on
        every row's squared norm (``np.vecdot`` sums a row as ``@`` does)."""
        with np.errstate(over="ignore"):
            if not np.isfinite(np.vecdot(matrix, matrix)).all():
                raise EmbeddingOverflow("embedding has a non-finite entry or squared norm")
        made = []
        for row in matrix:
            embedding = object.__new__(cls)
            embedding.values = row
            made.append(embedding)
        return made

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "identity":
        return z
    raise ValueError(f"unknown activation {activation!r}")


def _layer_preactivation(
    x: np.ndarray, a: np.ndarray, layer_weights: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """(A^k x for each hop k, z = sum_k A^k x W_k); training keeps both.

    x is (n, f) with a (n, n), or a stack (B, n, f) with a (B, n, n)."""
    if x.ndim not in (2, 3) or a.shape != x.shape[:-1] + x.shape[-2:-1]:
        raise ShapeMismatch(
            f"features {x.shape} and adjacency {a.shape} are inconsistent"
        )
    in_dim = x.shape[-1]
    out_dim = layer_weights[0].shape[1]
    for k, w in enumerate(layer_weights):
        if w.shape != (in_dim, out_dim):
            raise ShapeMismatch(
                f"hop-{k} weight has shape {w.shape}, expected {(in_dim, out_dim)}"
            )
    propagated = [x]
    z = x @ layer_weights[0]
    for w in layer_weights[1:]:
        propagated.append(a @ propagated[-1])
        z += propagated[-1] @ w
    return propagated, z


def tag_layer(
    x: np.ndarray,
    a: np.ndarray,
    layer_weights: list[np.ndarray],
    activation: str = "identity",
) -> np.ndarray:
    """One layer: activation(sum_k A^k x W_k), k = 0..len(layer_weights)-1."""
    _, z = _layer_preactivation(x, a, layer_weights)
    return _apply_activation(z, activation)


def _forward(
    x: np.ndarray, a: np.ndarray, weights: "GnnWeights"
) -> tuple[np.ndarray, list[dict]]:
    """(final-layer node matrix, per-layer caches for training's backprop)."""
    h = x
    caches = []
    for layer, hops in enumerate(weights.layers):
        propagated, z = _layer_preactivation(h, a, hops)
        activation = weights.config.layer_activation(layer)
        h = _apply_activation(z, activation)
        caches.append({"propagated": propagated, "z": z, "activation": activation})
    return h, caches


def _check_feature_dim(weights: "GnnWeights", feature_cfg: FeatureConfig) -> None:
    if feature_cfg.feature_dim != weights.config.feature_dim:
        raise ShapeMismatch(
            f"feature config produces {feature_cfg.feature_dim} dims, "
            f"weights expect {weights.config.feature_dim}"
        )


def node_states(
    graph: MolecularGraph, weights: "GnnWeights", feature_cfg: FeatureConfig
) -> np.ndarray:
    """Final-layer node matrix before pooling."""
    _check_feature_dim(weights, feature_cfg)
    return _forward(*graph_features(graph, feature_cfg), weights)[0]


def stacked_groups(
    graphs: Sequence[MolecularGraph], feature_cfg: FeatureConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, x, a) per atom count, one group at a time: the ascending
    positions of the graphs with that count and their ``stacked_features``."""
    by_size: dict[int, list[int]] = {}
    for i, graph in enumerate(graphs):
        by_size.setdefault(graph.num_atoms, []).append(i)
    for rows in by_size.values():
        yield np.array(rows), *stacked_features([graphs[i] for i in rows], feature_cfg)


def embed_molecules(
    graphs: Sequence[MolecularGraph], weights: "GnnWeights", feature_cfg: FeatureConfig
) -> np.ndarray:
    """Sum-pooled embedding of each graph, one row per graph, in order.

    Graphs with the same atom count share one stacked forward pass; each
    row equals that graph's own pass bit for bit.
    """
    _check_feature_dim(weights, feature_cfg)
    out = np.empty((len(graphs), weights.config.embed_dim), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing weights: inf, nan
        for rows, x, a in stacked_groups(graphs, feature_cfg):
            out[rows] = _forward(x, a, weights)[0].sum(axis=1)
        if not np.isfinite(np.vecdot(out, out)).all():
            raise EmbeddingOverflow("the encoder weights overflow an embedding or its squared norm")
    return out


def sum_left_to_right(rows: Sequence[np.ndarray]) -> np.ndarray:
    """rows[0] + rows[1] + ..., added in that order: the sum of a set."""
    if not len(rows):
        raise EmptySet("cannot embed an empty molecule set")
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def embed_molecule(
    graph: MolecularGraph, weights: "GnnWeights", feature_cfg: FeatureConfig
) -> Embedding:
    """Sum-pooled embedding of one molecule."""
    return Embedding(embed_molecules([graph], weights, feature_cfg)[0])


def embed_set(
    graphs: list[MolecularGraph], weights: "GnnWeights", feature_cfg: FeatureConfig
) -> Embedding:
    """Embedding of a molecule set: left-to-right sum of member embeddings."""
    return Embedding(sum_left_to_right(embed_molecules(graphs, weights, feature_cfg)))
