"""Full-batch contrastive training of the encoder.

The objective pulls each reactant-set embedding toward its own
product-set embedding and pushes it away from every other product set:

    loss = mean over ordered pairs (i, j != i) of
           max(0, D(R_i, P_i) - D(R_i, P_j) + margin)

Gradients are computed analytically by backpropagation through the
layer stack, the sum-pooling and the Euclidean distances; the
finite-difference check in the test suite pins them down.  Optimization
is plain full-batch gradient descent, which keeps runs bit-reproducible
for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..molgraph import FeatureConfig, graph_features, parse_smiles
from .model import EncoderConfig, ShapeMismatch, _forward
from .weights import GnnWeights, random_init


class NonFiniteLoss(RuntimeError):
    """Raised when the loss diverges; carries the last finite trace."""

    def __init__(self, epoch: int, trace: list[float]):
        self.epoch = epoch
        self.trace = trace
        last = trace[-1] if trace else None
        super().__init__(
            f"loss became non-finite at epoch {epoch}"
            + (f"; last finite loss was {last}" if last is not None else "")
        )


@dataclass(frozen=True)
class TrainingHyper:
    margin: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainingResult:
    weights: GnnWeights
    loss_trace: list[float] = field(default_factory=list)


ReactionPair = tuple[Sequence[str], Sequence[str]]


class _Batch:
    """Parsed, featurized reactions ready for repeated passes."""

    def __init__(self, pairs: Sequence[ReactionPair], feature_cfg: FeatureConfig):
        if len(pairs) < 2:
            raise ValueError("contrastive training needs at least two reactions")
        self.molecules: list[tuple[np.ndarray, np.ndarray]] = []
        self.reactant_members: list[list[int]] = []
        self.product_members: list[list[int]] = []
        for reactants, products in pairs:
            self.reactant_members.append(self._add_side(reactants, feature_cfg))
            self.product_members.append(self._add_side(products, feature_cfg))

    def _add_side(
        self, smiles_list: Sequence[str], feature_cfg: FeatureConfig
    ) -> list[int]:
        members = []
        for smiles in smiles_list:
            for graph in parse_smiles(smiles):
                self.molecules.append(graph_features(graph, feature_cfg))
                members.append(len(self.molecules) - 1)
        if not members:
            raise ValueError("a reaction side is empty")
        return members


def _backward_molecule(
    pooled_grad: np.ndarray,
    a: np.ndarray,
    weights: GnnWeights,
    caches: list[dict],
    grads: list[list[np.ndarray]],
) -> None:
    """Accumulates weight gradients for one molecule."""
    n_nodes = a.shape[0]
    dh = np.tile(pooled_grad, (n_nodes, 1))
    for layer in range(len(weights.layers) - 1, -1, -1):
        cache = caches[layer]
        if cache["activation"] == "relu":
            dz = dh * (cache["z"] > 0.0)
        else:
            dz = dh
        hops = weights.layers[layer]
        for k, w in enumerate(hops):
            grads[layer][k] += cache["propagated"][k].T @ dz
        if layer > 0:
            dh_prev = np.zeros_like(cache["propagated"][0])
            for k, w in enumerate(hops):
                term = dz @ w.T
                for _ in range(k):
                    term = a @ term  # adjacency is symmetric
                dh_prev += term
            dh = dh_prev


def contrastive_loss_and_grad(
    pairs: Sequence[ReactionPair],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    margin: float,
    _batch: _Batch | None = None,
) -> tuple[float, list[list[np.ndarray]]]:
    """Hinge loss over all ordered pairs plus analytic weight gradients."""
    if feature_cfg.feature_dim != weights.config.feature_dim:
        raise ShapeMismatch("feature config does not match the weights")
    batch = _batch if _batch is not None else _Batch(pairs, feature_cfg)
    n = len(batch.reactant_members)

    pooled = []
    caches = []
    for x, a in batch.molecules:
        h, cache = _forward(x, a, weights)
        pooled.append(h.sum(axis=0))
        caches.append(cache)
    h_r = np.array([sum(pooled[m] for m in ms) for ms in batch.reactant_members])
    h_p = np.array([sum(pooled[m] for m in ms) for ms in batch.product_members])

    with np.errstate(over="ignore", invalid="ignore"):
        diffs = h_r[:, None, :] - h_p[None, :, :]  # (i, j, dim)
        dist = np.sqrt((diffs**2).sum(axis=2))
    if not np.isfinite(dist).all():
        # NaN entries would be silently dropped by the hinge mask below,
        # so divergence must be reported before it can masquerade as zero.
        zeros = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
        return float("nan"), zeros

    pair_weight = 1.0 / (n * (n - 1))
    own = np.diag(dist)
    hinge = own[:, None] - dist + margin
    np.fill_diagonal(hinge, 0.0)
    active = hinge > 0.0
    loss = float(hinge[active].sum() * pair_weight)

    d_dist = np.zeros_like(dist)
    for i in range(n):
        row_active = active[i]
        d_dist[i, i] += pair_weight * row_active.sum()
        d_dist[i, row_active] -= pair_weight

    # unit direction vectors; zero distance contributes a zero subgradient
    safe = np.where(dist > 0.0, dist, 1.0)
    units = diffs / safe[:, :, None]
    units[dist == 0.0] = 0.0

    dh_r = (d_dist[:, :, None] * units).sum(axis=1)
    dh_p = -(d_dist[:, :, None] * units).sum(axis=0)

    grads = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
    mol_grads = [np.zeros(weights.config.embed_dim) for _ in batch.molecules]
    for i, members in enumerate(batch.reactant_members):
        for m in members:
            mol_grads[m] += dh_r[i]
    for j, members in enumerate(batch.product_members):
        for m in members:
            mol_grads[m] += dh_p[j]
    for m, (x, a) in enumerate(batch.molecules):
        if np.any(mol_grads[m]):
            _backward_molecule(mol_grads[m], a, weights, caches[m], grads)
    return loss, grads


def train_contrastive(
    pairs: Sequence[ReactionPair],
    encoder_cfg: EncoderConfig,
    feature_cfg: FeatureConfig,
    hyper: TrainingHyper = TrainingHyper(),
) -> TrainingResult:
    """Train from a fresh random init; returns weights plus the loss trace.

    The trace records the loss evaluated at the start of every epoch, so
    it has exactly ``hyper.epochs`` entries and ``epochs=0`` returns the
    untouched initialization.
    """
    batch = _Batch(pairs, feature_cfg)
    weights = random_init(encoder_cfg, hyper.seed)
    trace: list[float] = []
    for epoch in range(hyper.epochs):
        loss, grads = contrastive_loss_and_grad(
            pairs, weights, feature_cfg, hyper.margin, _batch=batch
        )
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch, trace)
        trace.append(loss)
        for layer, hops in enumerate(weights.layers):
            for k in range(len(hops)):
                hops[k] = hops[k] - hyper.learning_rate * grads[layer][k]
    return TrainingResult(weights=weights, loss_trace=trace)
