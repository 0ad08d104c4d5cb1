"""Contrastive loss, analytic gradients and the training loop."""

import numpy as np
import pytest

from relm.encoder import (
    EncoderConfig,
    NonFiniteLoss,
    ShapeMismatch,
    TrainingHyper,
    contrastive_loss_and_grad,
    embed_set,
    random_init,
    train_contrastive,
)
from relm.encoder.model import _forward
from relm.encoder.training import _backward_molecule
from relm.molgraph import FeatureConfig, graph_features, parse_smiles
from relm.synthetic import synthetic_reactions

FEATURE_CFG = FeatureConfig()


def reaction_pairs(count, seed):
    return [
        (r.reactants, r.products) for r in synthetic_reactions(count, seed=seed)
    ]


def reference_loss(pairs, weights, feature_cfg, margin):
    """Sequential loops over ordered pairs; no shared code with the library
    beyond the embeddings themselves."""
    h_r, h_p = [], []
    for reactants, products in pairs:
        r_graphs = [g for s in reactants for g in parse_smiles(s)]
        p_graphs = [g for s in products for g in parse_smiles(s)]
        h_r.append(embed_set(r_graphs, weights, feature_cfg).values)
        h_p.append(embed_set(p_graphs, weights, feature_cfg).values)
    n = len(pairs)
    total = 0.0
    for i in range(n):
        own = float(np.linalg.norm(h_r[i] - h_p[i]))
        for j in range(n):
            if j != i:
                other = float(np.linalg.norm(h_r[i] - h_p[j]))
                total += max(0.0, own - other + margin)
    return total / (n * (n - 1))


def loop_loss_and_grad(pairs, weights, feature_cfg, margin):
    """The loop formula the whole-array version replaced, kept as its
    bit-level reference: member lists pool each side, a loop over the
    reactions builds the hinge gradient, and nested loops route it back to
    the molecules.  It shares the per-molecule forward and backward passes."""
    molecules, reactant_members, product_members = [], [], []
    for reactants, products in pairs:
        for side, members in ((reactants, reactant_members), (products, product_members)):
            start = len(molecules)
            for smiles in side:
                for graph in parse_smiles(smiles):
                    molecules.append(graph_features(graph, feature_cfg))
            members.append(list(range(start, len(molecules))))
    n = len(pairs)

    pooled = []
    caches = []
    for x, a in molecules:
        h, cache = _forward(x, a, weights)
        pooled.append(h.sum(axis=0))
        caches.append(cache)
    h_r = np.array([sum(pooled[m] for m in ms) for ms in reactant_members])
    h_p = np.array([sum(pooled[m] for m in ms) for ms in product_members])

    diffs = h_r[:, None, :] - h_p[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
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

    safe = np.where(dist > 0.0, dist, 1.0)
    units = diffs / safe[:, :, None]
    units[dist == 0.0] = 0.0

    dh_r = (d_dist[:, :, None] * units).sum(axis=1)
    dh_p = -(d_dist[:, :, None] * units).sum(axis=0)

    grads = [[np.zeros_like(w) for w in hops] for hops in weights.layers]
    mol_grads = [np.zeros(weights.config.embed_dim) for _ in molecules]
    for i, members in enumerate(reactant_members):
        for m in members:
            mol_grads[m] += dh_r[i]
    for j, members in enumerate(product_members):
        for m in members:
            mol_grads[m] += dh_p[j]
    for m, (x, a) in enumerate(molecules):
        if np.any(mol_grads[m]):
            _backward_molecule(mol_grads[m], a, weights, caches[m], grads)
    return loss, grads


# ---- loss value ----


@pytest.mark.parametrize("margin", [0.0, 0.3, 1.0])
def test_loss_matches_sequential_reference(margin):
    pairs = reaction_pairs(8, seed=11)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=6)
    weights = random_init(cfg, seed=4)
    loss, _ = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    want = reference_loss(pairs, weights, FEATURE_CFG, margin)
    assert loss == pytest.approx(want, rel=1e-9)


def test_loss_is_nonnegative_and_respects_margin_zero():
    pairs = reaction_pairs(6, seed=2)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=4)
    for seed in range(5):
        weights = random_init(cfg, seed=seed)
        loss, _ = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, 0.0)
        assert loss >= 0.0


def test_loss_rejects_feature_dim_mismatch():
    pairs = reaction_pairs(3, seed=0)
    cfg = EncoderConfig(feature_dim=10, embed_dim=4)
    weights = random_init(cfg, seed=0)
    with pytest.raises(ShapeMismatch):
        contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, 1.0)


def test_batch_needs_two_reactions_and_nonempty_sides():
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=4)
    weights = random_init(cfg, seed=0)
    with pytest.raises(ValueError):
        contrastive_loss_and_grad(
            [(["CCO"], ["CC=O"])], weights, FEATURE_CFG, 1.0
        )
    with pytest.raises(ValueError):
        contrastive_loss_and_grad(
            [(["CCO"], ["CC=O"]), ([], ["CC"])], weights, FEATURE_CFG, 1.0
        )


# ---- gradients ----


@pytest.mark.parametrize("margin", [0.0, 1.0])
def test_loss_and_gradients_are_bit_identical_to_the_loop_formula(margin):
    pairs = reaction_pairs(6, seed=3) + [
        (["CCO.O"], ["CC=O", "O"]),  # several molecules on each side
        (["CC"], ["CC"]),  # reactants equal products: zero distance on the diagonal
        (["c1ccccc1", "Br"], ["Brc1ccccc1"]),
        (["CC"], ["CC"]),  # the duplicate: zero distance off the diagonal
    ]
    cfg = EncoderConfig(
        feature_dim=FEATURE_CFG.feature_dim, embed_dim=6, num_layers=2, hops_per_layer=2
    )
    weights = random_init(cfg, seed=5)
    loss, grads = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    want_loss, want_grads = loop_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    assert np.array_equal(np.float64(loss), np.float64(want_loss))
    assert any(np.any(g) for hops in grads for g in hops)
    for hops, want_hops in zip(grads, want_grads, strict=True):
        for g, want in zip(hops, want_hops, strict=True):
            assert np.array_equal(g, want)


def test_gradients_match_central_finite_differences():
    pairs = reaction_pairs(3, seed=1)
    cfg = EncoderConfig(
        feature_dim=FEATURE_CFG.feature_dim,
        embed_dim=4,
        num_layers=2,
        hops_per_layer=1,
        activation="relu",
    )
    weights = random_init(cfg, seed=2)
    margin = 1.0
    _, grads = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    eps = 1e-5
    worst = 0.0
    for layer, hops in enumerate(weights.layers):
        for k, w in enumerate(hops):
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = w[idx]
                w[idx] = original + eps
                up, _ = contrastive_loss_and_grad(
                    pairs, weights, FEATURE_CFG, margin
                )
                w[idx] = original - eps
                down, _ = contrastive_loss_and_grad(
                    pairs, weights, FEATURE_CFG, margin
                )
                w[idx] = original
                fd = (up - down) / (2.0 * eps)
                analytic = grads[layer][k][idx]
                denom = max(abs(fd), abs(analytic), 1e-8)
                worst = max(worst, abs(fd - analytic) / denom)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_gradients_are_zero_when_no_pair_is_active():
    # a large negative margin deactivates every hinge term
    pairs = reaction_pairs(4, seed=9)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=4)
    weights = random_init(cfg, seed=3)
    loss, grads = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, -1e6)
    assert loss == 0.0
    for hops in grads:
        for g in hops:
            assert not np.any(g)


# ---- training loop ----


def test_zero_epochs_returns_untouched_initialization():
    pairs = reaction_pairs(4, seed=7)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=5)
    hyper = TrainingHyper(epochs=0, seed=21)
    result = train_contrastive(pairs, cfg, FEATURE_CFG, hyper)
    assert result.loss_trace == []
    init = random_init(cfg, seed=21)
    for got, want in zip(result.weights.layers, init.layers):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_training_is_deterministic():
    pairs = reaction_pairs(10, seed=5)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8)
    hyper = TrainingHyper(epochs=30, seed=0)
    first = train_contrastive(pairs, cfg, FEATURE_CFG, hyper)
    second = train_contrastive(pairs, cfg, FEATURE_CFG, hyper)
    assert first.loss_trace == second.loss_trace
    for ha, hb in zip(first.weights.layers, second.weights.layers):
        for a, b in zip(ha, hb):
            assert np.array_equal(a, b)


def test_training_reduces_the_loss():
    pairs = reaction_pairs(20, seed=5)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8)
    result = train_contrastive(
        pairs, cfg, FEATURE_CFG, TrainingHyper(epochs=100, seed=0)
    )
    assert len(result.loss_trace) == 100
    assert result.loss_trace[-1] < 0.25 * result.loss_trace[0]


def test_trace_starts_at_the_initial_loss():
    pairs = reaction_pairs(6, seed=13)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=4)
    hyper = TrainingHyper(epochs=3, seed=8)
    result = train_contrastive(pairs, cfg, FEATURE_CFG, hyper)
    at_init, _ = contrastive_loss_and_grad(
        pairs, random_init(cfg, seed=8), FEATURE_CFG, hyper.margin
    )
    assert result.loss_trace[0] == at_init


def test_margin_zero_trace_stays_nonnegative():
    pairs = reaction_pairs(20, seed=5)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8)
    result = train_contrastive(
        pairs, cfg, FEATURE_CFG, TrainingHyper(margin=0.0, epochs=50, seed=0)
    )
    assert all(v >= 0.0 for v in result.loss_trace)
    assert result.loss_trace[-1] < result.loss_trace[0]


def test_divergence_raises_with_finite_trace():
    pairs = reaction_pairs(6, seed=3)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8)
    with pytest.raises(NonFiniteLoss) as excinfo:
        train_contrastive(
            pairs, cfg, FEATURE_CFG, TrainingHyper(learning_rate=1e12, epochs=200)
        )
    err = excinfo.value
    assert err.epoch == len(err.trace)
    assert all(np.isfinite(v) for v in err.trace)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"margin": -0.1},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"epochs": -1},
        {"margin": float("nan")},
        {"margin": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_hyper_validation(kwargs):
    with pytest.raises(ValueError):
        TrainingHyper(**kwargs)
