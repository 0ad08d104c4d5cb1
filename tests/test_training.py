"""Contrastive loss, analytic gradients and the training loop."""

import math
import tracemalloc

import numpy as np
import pytest

from relm.encoder import (
    EncoderConfig,
    GnnWeights,
    NonFiniteLoss,
    ShapeMismatch,
    TrainingHyper,
    contrastive_loss_and_grad,
    embed_set,
    random_init,
    train_contrastive,
)
from relm.encoder import training
from relm.encoder.model import _forward
from relm.molgraph import FeatureConfig, graph_features, parse_smiles
from relm.synthetic import synthetic_reactions

from helpers import reference_backward_molecule

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


def overflowing_row(pairs, weights, feature_cfg, row):
    """A copy of ``weights`` whose last layer is scaled by a power of two,
    so that the embeddings scale exactly and only ``row``'s squared pair
    distances overflow; every other row stays below half the float64 max."""

    def embed(side):
        return embed_set([g for s in side for g in parse_smiles(s)], weights, feature_cfg).values

    h_r = np.array([embed(reactants) for reactants, _ in pairs])
    h_p = np.array([embed(products) for _, products in pairs])
    worst = ((h_r[:, None, :] - h_p[None, :, :]) ** 2).sum(axis=2).max(axis=1)
    big = np.finfo(np.float64).max
    k = math.ceil(math.log(big / worst[row], 4) + 0.5)  # 4**k * worst[row] >= 2 * big
    assert math.log(big / np.delete(worst, row).max(), 4) - k >= 0.5
    layers = [list(hops) for hops in weights.layers]
    layers[-1] = [w * 2.0**k for w in layers[-1]]
    return GnnWeights(config=weights.config, layers=layers)


def loop_loss_and_grad(pairs, weights, feature_cfg, margin):
    """The loop formula the whole-array version replaced, kept as its
    bit-level reference: member lists pool each side, a loop over the
    reactions builds the hinge gradient, and nested loops route it back to
    the molecules.  Each molecule runs ``_forward`` alone and
    ``reference_backward_molecule`` back."""
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
            reference_backward_molecule(mol_grads[m], a, weights, caches[m], grads)
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


def assert_matches_the_loop_formula(pairs, weights, margin):
    loss, grads = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    want_loss, want_grads = loop_loss_and_grad(pairs, weights, FEATURE_CFG, margin)
    assert np.array_equal(np.float64(loss), np.float64(want_loss))
    assert any(np.any(g) for hops in grads for g in hops)
    for hops, want_hops in zip(grads, want_grads, strict=True):
        for g, want in zip(hops, want_hops, strict=True):
            assert np.array_equal(g, want)


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
    assert_matches_the_loop_formula(pairs, random_init(cfg, seed=5), margin)


def blocked_pairs():
    """40 reactions; with 7 rows per block the last block (35-39) is ragged
    and holds a duplicated reaction, so distance is zero off the diagonal."""
    return reaction_pairs(36, seed=3) + [
        (["CCO.O"], ["CC=O", "O"]),
        (["CC"], ["CC"]),
        (["c1ccccc1", "Br"], ["Brc1ccccc1"]),
        (["CC"], ["CC"]),
    ]


# embed_dim 1 makes the hidden layer's weight 1 x 1, whose terms a plain
# sum over molecules would add pairwise
@pytest.mark.parametrize("margin, embed_dim", [(0.0, 6), (1.0, 6), (1.0, 16), (1.0, 1)])
def test_row_blocks_are_bit_identical_to_the_loop_formula(monkeypatch, margin, embed_dim):
    pairs = blocked_pairs()
    monkeypatch.setattr(training, "PAIR_BLOCK", 7 * len(pairs) * embed_dim)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim)
    assert_matches_the_loop_formula(pairs, random_init(cfg, seed=5), margin)


def test_row_blocks_add_terms_in_molecule_order_past_a_zero_gradient(monkeypatch):
    # row 20, a ten-carbon chain its reaction leaves alone, is far from
    # every other reaction: no hinge term involving it is active, so its
    # molecule's gradient is exactly zero and the sums must skip it
    pairs = blocked_pairs()
    pairs.insert(20, (["CCCCCCCCCC"], ["CCCCCCCCCC"]))
    block = 7 * len(pairs) * 16
    monkeypatch.setattr(training, "PAIR_BLOCK", block)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=16)
    weights = random_init(cfg, seed=5)
    margin = 1.0

    def embed(side):
        return embed_set([g for s in side for g in parse_smiles(s)], weights, FEATURE_CFG).values

    h_r = np.array([embed(reactants) for reactants, _ in pairs])
    h_p = np.array([embed(products) for _, products in pairs])
    dist = np.sqrt(((h_r[:, None, :] - h_p[None, :, :]) ** 2).sum(axis=2))
    hinge = np.diag(dist)[:, None] - dist + margin
    np.fill_diagonal(hinge, 0.0)
    assert not (hinge[20] > 0.0).any() and not (hinge[:, 20] > 0.0).any()
    # the first layer's terms come 7 molecules at a time, across groups
    chunk = block // (FEATURE_CFG.feature_dim * 16)
    groups = training._Batch(pairs, FEATURE_CFG).groups
    assert any(rows[0] // chunk != rows[-1] // chunk for rows, _, _ in groups)
    assert_matches_the_loop_formula(pairs, weights, margin)


def late_block_pairs():
    """40 reactions whose row 36, in the last of 7-row blocks, has 50 copies
    of its reactants and so the largest pair distances."""
    pairs = reaction_pairs(40, seed=3)
    pairs[36] = (list(pairs[36][0]) * 50, pairs[36][1])
    return pairs


def test_overflow_in_a_later_block_returns_nan_and_zero_gradients(monkeypatch):
    pairs = late_block_pairs()
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=6)
    monkeypatch.setattr(training, "PAIR_BLOCK", 7 * len(pairs) * cfg.embed_dim)
    weights = overflowing_row(pairs, random_init(cfg, seed=5), FEATURE_CFG, 36)
    loss, grads = contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, 1.0)
    assert math.isnan(loss)
    for hops in grads:
        for g in hops:
            assert not np.any(g)


def test_training_raises_when_a_later_block_overflows(monkeypatch):
    # the third epoch's loss sees weights that overflow row 36 alone
    pairs = late_block_pairs()
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=6)
    finite = train_contrastive(pairs, cfg, FEATURE_CFG, TrainingHyper(epochs=2, seed=5))
    monkeypatch.setattr(training, "PAIR_BLOCK", 7 * len(pairs) * cfg.embed_dim)
    real = training.contrastive_loss_and_grad
    calls = []

    def overflow_third(pairs, weights, feature_cfg, margin, _batch=None):
        calls.append(None)
        if len(calls) == 3:
            weights = overflowing_row(pairs, weights, feature_cfg, 36)
        return real(pairs, weights, feature_cfg, margin, _batch=_batch)

    monkeypatch.setattr(training, "contrastive_loss_and_grad", overflow_third)
    with pytest.raises(NonFiniteLoss) as excinfo:
        train_contrastive(pairs, cfg, FEATURE_CFG, TrainingHyper(epochs=5, seed=5))
    assert excinfo.value.epoch == 2
    assert excinfo.value.trace == finite.loss_trace


def test_one_loss_call_holds_less_than_one_pair_tensor():
    n, embed_dim = 400, 16
    pairs = reaction_pairs(n, seed=7)
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim)
    weights = random_init(cfg, seed=0)
    tracemalloc.start()
    try:
        contrastive_loss_and_grad(pairs, weights, FEATURE_CFG, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * embed_dim * 8  # one (n, n, embed_dim) float64 tensor


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
