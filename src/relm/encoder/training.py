"""Full-batch contrastive training of the encoder.

The objective pulls each reactant-set embedding toward its own
product-set embedding and pushes it away from every other product set:

    loss = mean over ordered pairs (i, j != i) of
           max(0, D(R_i, P_i) - D(R_i, P_j) + margin)

Gradients are computed analytically by backpropagation through the
layer stack, the sum-pooling and the Euclidean distances; the
finite-difference check in the test suite pins them down.  Optimization
is plain full-batch gradient descent, which keeps runs bit-reproducible
for a given seed.  The pair differences h_r[i] - h_p[j] are made one
block of reactant rows at a time (``PAIR_BLOCK`` differences, 1 MiB),
once for the distances and once for the gradient, so an epoch holds a
few n x n float64 matrices plus one block: 8 MB per matrix at n = 1,000,
but 3.2 GB at n = 20,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..molgraph import FeatureConfig, graph_features, parse_smiles
from .model import EncoderConfig, ShapeMismatch, _forward
from .weights import GnnWeights, random_init

# Pair differences (float64 elements) made at once: 1 MiB.
PAIR_BLOCK = 1 << 17


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
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValueError("margin must be a finite number >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite number > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainingResult:
    weights: GnnWeights
    loss_trace: list[float] = field(default_factory=list)


ReactionPair = tuple[Sequence[str], Sequence[str]]


class _Batch:
    """Parsed, featurized reactions ready for repeated passes.

    ``owner[m]`` is the row molecule m pools into: ``i`` for reaction i's
    reactants and ``n + i`` for its products.  Molecules keep the order
    r0, p0, r1, p1, ..., which is the order the backward pass adds
    weight gradients in.
    """

    def __init__(self, pairs: Sequence[ReactionPair], feature_cfg: FeatureConfig):
        self.n = len(pairs)
        if self.n < 2:
            raise ValueError("contrastive training needs at least two reactions")
        self.molecules: list[tuple[np.ndarray, np.ndarray]] = []
        owner: list[int] = []
        for i, (reactants, products) in enumerate(pairs):
            for row, smiles_list in ((i, reactants), (self.n + i, products)):
                start = len(self.molecules)
                for smiles in smiles_list:
                    for graph in parse_smiles(smiles):
                        self.molecules.append(graph_features(graph, feature_cfg))
                if len(self.molecules) == start:
                    raise ValueError("a reaction side is empty")
                owner += [row] * (len(self.molecules) - start)
        self.owner = np.array(owner)


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
    n = batch.n

    pooled = []
    caches = []
    for x, a in batch.molecules:
        h, cache = _forward(x, a, weights)
        pooled.append(h.sum(axis=0))
        caches.append(cache)
    sides = np.zeros((2 * n, weights.config.embed_dim))
    np.add.at(sides, batch.owner, np.array(pooled))
    h_r, h_p = sides[:n], sides[n:]

    rows = max(1, PAIR_BLOCK // (n * weights.config.embed_dim))
    blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)]
    dist = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            diffs = h_r[b, None, :] - h_p[None, :, :]  # (i, j, dim)
            dist[b] = np.sqrt((diffs**2).sum(axis=2))
    if not np.isfinite(dist).all():
        # NaN entries would be silently dropped by the hinge mask below,
        # so divergence must be reported before it can masquerade as zero.
        zeros = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
        return float("nan"), zeros

    pair_weight = 1.0 / (n * (n - 1))
    own = np.diag(dist)
    hinge = own[:, None] - dist + margin
    np.fill_diagonal(hinge, 0.0)
    active = hinge > 0.0  # never on the diagonal
    loss = float(hinge[active].sum() * pair_weight)
    del hinge  # the n x n matrices are the bulk of an epoch's memory

    d_dist = np.where(active, -pair_weight, 0.0)
    np.fill_diagonal(d_dist, pair_weight * active.sum(axis=1))

    # diffs becomes d_dist times the unit directions, in place; zero
    # distance contributes a zero subgradient.  The product side carries
    # its running sum into the next block, so its rows add in the order of
    # one sum over all n rows.
    dh_r = []
    dh_p = None
    for b in blocks:
        diffs = h_r[b, None, :] - h_p[None, :, :]
        diffs /= np.where(dist[b] > 0.0, dist[b], 1.0)[:, :, None]
        diffs[dist[b] == 0.0] = 0.0
        diffs *= d_dist[b, :, None]
        dh_r.append(diffs.sum(axis=1))
        if dh_p is not None:
            diffs = np.concatenate([dh_p[None], diffs])
        dh_p = diffs.sum(axis=0)
    side_grads = np.concatenate(dh_r + [-dh_p])

    grads = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
    for (_, a), cache, mol_grad in zip(batch.molecules, caches, side_grads[batch.owner]):
        if np.any(mol_grad):
            _backward_molecule(mol_grad, a, weights, cache, grads)
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
