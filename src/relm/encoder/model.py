"""Graph encoder: stacked topology-adaptive layers with sum-pooling.

Each layer computes activation(sum_k A^k X W_k) where A is the
normalized adjacency and k runs from 0 to hops_per_layer.  Powers of A
are applied by repeated multiplication, never materialized.  Hidden
layers use the configured activation; the final layer is always linear.
A molecule embedding is the sum of its node rows, and a set of molecules
embeds as the sum of the member embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..molgraph import FeatureConfig, MolecularGraph, graph_features

ACTIVATIONS = ("relu", "identity")


class ShapeMismatch(ValueError):
    """Raised when weights, features or embeddings disagree on shape."""


class EmptySet(ValueError):
    """Raised when embedding an empty molecule set."""


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
    """A finite 1-D float64 vector."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeMismatch("an embedding must be a 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding contains non-finite entries")

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
    """(A^k x for each hop k, z = sum_k A^k x W_k); training keeps both."""
    if x.ndim != 2 or a.shape != (x.shape[0], x.shape[0]):
        raise ShapeMismatch(
            f"features {x.shape} and adjacency {a.shape} are inconsistent"
        )
    in_dim = x.shape[1]
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
        z = z + propagated[-1] @ w
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


def node_states(
    graph: MolecularGraph, weights: "GnnWeights", feature_cfg: FeatureConfig
) -> np.ndarray:
    """Final-layer node matrix before pooling."""
    if feature_cfg.feature_dim != weights.config.feature_dim:
        raise ShapeMismatch(
            f"feature config produces {feature_cfg.feature_dim} dims, "
            f"weights expect {weights.config.feature_dim}"
        )
    return _forward(*graph_features(graph, feature_cfg), weights)[0]


def embed_molecule(
    graph: MolecularGraph, weights: "GnnWeights", feature_cfg: FeatureConfig
) -> Embedding:
    """Sum-pooled embedding of one molecule."""
    return Embedding(node_states(graph, weights, feature_cfg).sum(axis=0))


def embed_set(
    graphs: list[MolecularGraph], weights: "GnnWeights", feature_cfg: FeatureConfig
) -> Embedding:
    """Embedding of a molecule set: left-to-right sum of member embeddings."""
    if not graphs:
        raise EmptySet("cannot embed an empty molecule set")
    total = embed_molecule(graphs[0], weights, feature_cfg).values.copy()
    for graph in graphs[1:]:
        total += embed_molecule(graph, weights, feature_cfg).values
    return Embedding(total)
