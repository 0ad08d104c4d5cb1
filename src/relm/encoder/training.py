"""Full-batch contrastive training of the encoder.

The objective pulls each reactant-set embedding toward its own
product-set embedding and pushes it away from every other product set:

    loss = mean over ordered pairs (i, j != i) of
           max(0, D(R_i, P_i) - D(R_i, P_j) + margin)

Gradients are computed analytically by backpropagation through the
layer stack, the sum-pooling and the Euclidean distances; the
finite-difference check in the test suite pins them down.  Optimization
is plain full-batch gradient descent, which keeps runs bit-reproducible
for a given seed.  An epoch runs one stacked forward pass per atom count
and holds every group's layer caches until the backward pass, which
walks the layers over the same groups and drops each layer's caches once
its gradients are taken.  The pair differences h_r[i] - h_p[j] are made
one block of reactant rows at a time (``PAIR_BLOCK`` differences, 1 MiB),
once for the distances and once for the gradient, next to a few n x n
float64 matrices: 8 MB each at n = 1,000, but 3.2 GB at n = 20,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..molgraph import FeatureConfig, parse_smiles
from .model import EncoderConfig, _check_feature_dim, _forward, stacked_groups
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
    """The ``stacked_groups`` of the molecules of all reactions, in the order
    r0, p0, r1, p1, ...  ``owner[m]`` is the row molecule m pools into: ``i``
    for reaction i's reactants and ``n + i`` for its products.
    """

    def __init__(self, pairs: Sequence[ReactionPair], feature_cfg: FeatureConfig):
        self.n = len(pairs)
        if self.n < 2:
            raise ValueError("contrastive training needs at least two reactions")
        graphs = []
        owner: list[int] = []
        for i, (reactants, products) in enumerate(pairs):
            for row, smiles_list in ((i, reactants), (self.n + i, products)):
                side = [graph for smiles in smiles_list for graph in parse_smiles(smiles)]
                if not side:
                    raise ValueError("a reaction side is empty")
                graphs += side
                owner += [row] * len(side)
        self.owner = np.array(owner)
        self.groups = list(stacked_groups(graphs, feature_cfg))


def _backward(
    batch: _Batch, weights: GnnWeights, caches: list[list[dict]], mol_grads: np.ndarray
) -> list[list[np.ndarray]]:
    """Weight gradients, a layer at a time over the groups, dropping each
    layer's caches once it is done.  A gradient adds the terms P_m^T dz_m of
    the molecules with a nonzero gradient in molecule order: ``PAIR_BLOCK``
    elements of terms at a time, carried into the total by
    ``np.add.accumulate``, which adds in order where ``sum`` adds a run of
    1 x 1 terms pairwise."""
    live = np.any(mol_grads, axis=1)
    dh = [np.repeat(mol_grads[rows, None], x.shape[1], axis=1) for rows, x, _ in batch.groups]
    grads = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
    for layer in reversed(range(len(grads))):
        cached = [cache.pop() for cache in caches]
        dz = [d * (c["z"] > 0.0) if c["activation"] == "relu" else d for d, c in zip(dh, cached)]
        hops = weights.layers[layer]
        for k, w in enumerate(hops):
            chunk = max(1, PAIR_BLOCK // w.size)
            terms = np.empty((chunk, *w.shape))
            for lo in range(0, len(live), chunk):
                for (rows, _, _), c, d in zip(batch.groups, cached, dz):
                    s, e = np.searchsorted(rows, (lo, lo + chunk))
                    terms[rows[s:e] - lo] = c["propagated"][k][s:e].mT @ d[s:e]
                mask = live[lo : lo + chunk]
                summed = np.concatenate([grads[layer][k][None], terms[: len(mask)][mask]])
                grads[layer][k] = np.add.accumulate(summed)[-1]
        if layer:
            dh = []
            for (_, _, a), c, d in zip(batch.groups, cached, dz):
                dh.append(np.zeros_like(c["propagated"][0]))
                for k, w in enumerate(hops):
                    term = d @ w.T
                    for _ in range(k):
                        term = a @ term  # adjacency is symmetric
                    dh[-1] += term
    return grads


def contrastive_loss_and_grad(
    pairs: Sequence[ReactionPair],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    margin: float,
    _batch: _Batch | None = None,
) -> tuple[float, list[list[np.ndarray]]]:
    """Hinge loss over all ordered pairs plus analytic weight gradients."""
    _check_feature_dim(weights, feature_cfg)
    batch = _batch if _batch is not None else _Batch(pairs, feature_cfg)
    n = batch.n

    pooled = np.empty((len(batch.owner), weights.config.embed_dim))
    caches = []
    for rows, x, a in batch.groups:
        h, cache = _forward(x, a, weights)
        pooled[rows] = h.sum(axis=1)
        caches.append(cache)
    sides = np.zeros((2 * n, weights.config.embed_dim))
    np.add.at(sides, batch.owner, pooled)
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
    hinge = own[:, None] - dist
    hinge += margin
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
    del dist, active, d_dist  # before the backward pass adds its own arrays
    return loss, _backward(batch, weights, caches, side_grads[batch.owner])


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
