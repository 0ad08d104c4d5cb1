"""Encoder layer math, pooling laws, weight init and persistence."""

import json
import random

import numpy as np
import pytest

from relm.encoder import (
    ACTIVATIONS,
    Embedding,
    EmptySet,
    EncoderConfig,
    FormatError,
    GnnWeights,
    ShapeError,
    ShapeMismatch,
    embed_molecule,
    embed_set,
    load_weights,
    node_states,
    random_init,
    save_weights,
    tag_layer,
)
from relm.molgraph import FeatureConfig, graph_features, parse_smiles

from helpers import build_random_graph, permute_graph, reference_tag_layer

FEATURE_CFG = FeatureConfig()


def small_config(embed_dim=5, **kw):
    return EncoderConfig(
        feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim, **kw
    )


def graph_of(smiles):
    graphs = parse_smiles(smiles)
    assert len(graphs) == 1
    return graphs[0]


# ---- config ----


def test_layer_dims_first_layer_takes_features():
    cfg = EncoderConfig(feature_dim=38, embed_dim=16, num_layers=3)
    assert cfg.layer_dims() == [(38, 16), (16, 16), (16, 16)]


def test_final_layer_is_always_linear():
    cfg = EncoderConfig(feature_dim=4, embed_dim=4, num_layers=3, activation="relu")
    assert [cfg.layer_activation(i) for i in range(3)] == [
        "relu",
        "relu",
        "identity",
    ]


def test_single_layer_network_is_linear():
    cfg = EncoderConfig(feature_dim=4, embed_dim=4, num_layers=1, activation="relu")
    assert cfg.layer_activation(0) == "identity"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"feature_dim": 0, "embed_dim": 4},
        {"feature_dim": 4, "embed_dim": 0},
        {"feature_dim": 4, "embed_dim": 4, "num_layers": 0},
        {"feature_dim": 4, "embed_dim": 4, "hops_per_layer": -1},
        {"feature_dim": 4, "embed_dim": 4, "activation": "tanh"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EncoderConfig(**kwargs)


def test_embedding_must_be_finite_vector():
    with pytest.raises(ShapeMismatch):
        Embedding(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Embedding(np.array([1.0, np.nan]))
    assert Embedding(np.array([1.0, 2.0])).dim == 2


# ---- tag_layer against the explicit matrix-power oracle ----


@pytest.mark.parametrize("hops", [0, 1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_tag_layer_matches_matrix_power_oracle(hops, activation):
    rng = np.random.default_rng(hops * 10 + len(activation))
    for _ in range(20):
        n, d_in, d_out = rng.integers(1, 9), int(rng.integers(2, 7)), 4
        x = rng.normal(size=(n, d_in))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        ws = [rng.normal(size=(d_in, d_out)) for _ in range(hops + 1)]
        got = tag_layer(x, a, ws, activation)
        want = reference_tag_layer(x, a, ws, activation)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_tag_layer_rejects_inconsistent_shapes():
    x = np.zeros((3, 4))
    with pytest.raises(ShapeMismatch):
        tag_layer(x, np.zeros((2, 2)), [np.zeros((4, 2))])
    with pytest.raises(ShapeMismatch):
        tag_layer(x, np.zeros((3, 3)), [np.zeros((4, 2)), np.zeros((5, 2))])


def test_node_states_rejects_mismatched_feature_config():
    weights = random_init(small_config(), seed=0)
    narrow = FeatureConfig(element_vocab=("C", "N", "O"))
    with pytest.raises(ShapeMismatch):
        node_states(graph_of("CCO"), weights, narrow)


# ---- pooling laws ----


def test_embedding_is_permutation_invariant():
    weights = random_init(small_config(embed_dim=7), seed=1)
    rng = random.Random(7)
    for case in range(30):
        graph = build_random_graph(rng)
        base = embed_molecule(graph, weights, FEATURE_CFG).values
        perm = list(range(graph.num_atoms))
        rng.shuffle(perm)
        shuffled = embed_molecule(
            permute_graph(graph, perm), weights, FEATURE_CFG
        ).values
        scale = max(np.linalg.norm(base), 1e-30)
        assert np.linalg.norm(base - shuffled) / scale <= 1e-9, f"case {case}"


def test_set_embedding_is_sum_of_members():
    weights = random_init(small_config(), seed=2)
    g1, g2, g3 = graph_of("CCO"), graph_of("c1ccccc1"), graph_of("N#N")
    separate = (
        embed_molecule(g1, weights, FEATURE_CFG).values
        + embed_molecule(g2, weights, FEATURE_CFG).values
        + embed_molecule(g3, weights, FEATURE_CFG).values
    )
    together = embed_set([g1, g2, g3], weights, FEATURE_CFG).values
    # same additions in the same order, so bitwise equal
    assert np.array_equal(separate, together)


def test_set_embedding_order_insensitive_within_tolerance():
    weights = random_init(small_config(embed_dim=6), seed=3)
    graphs = [graph_of(s) for s in ("CC(=O)O", "c1ccncc1", "O", "CNC", "S=C=S")]
    forward = embed_set(graphs, weights, FEATURE_CFG).values
    backward = embed_set(graphs[::-1], weights, FEATURE_CFG).values
    assert np.max(np.abs(forward - backward)) <= 1e-12


def test_empty_set_raises():
    weights = random_init(small_config(), seed=0)
    with pytest.raises(EmptySet):
        embed_set([], weights, FEATURE_CFG)


def test_scaling_final_layer_scales_embeddings_and_keeps_order():
    """Rescaling the output layer rescales every distance by the same
    factor, so nearest-neighbor order cannot change."""
    cfg = small_config(embed_dim=6)
    weights = random_init(cfg, seed=4)
    graphs = [
        graph_of(s)
        for s in ("CCO", "CCN", "CCC", "c1ccccc1", "CC(=O)O", "O=C=O", "CS")
    ]
    query = embed_molecule(graphs[0], weights, FEATURE_CFG).values
    base = [embed_molecule(g, weights, FEATURE_CFG).values for g in graphs[1:]]
    base_dist = [np.linalg.norm(query - e) for e in base]
    for c in (0.5, 3.0):
        scaled_weights = weights.copy()
        scaled_weights.layers[-1] = [c * w for w in scaled_weights.layers[-1]]
        s_query = embed_molecule(graphs[0], scaled_weights, FEATURE_CFG).values
        np.testing.assert_allclose(s_query, c * query, rtol=1e-12)
        s_dist = [
            np.linalg.norm(
                s_query - embed_molecule(g, scaled_weights, FEATURE_CFG).values
            )
            for g in graphs[1:]
        ]
        np.testing.assert_allclose(s_dist, [c * d for d in base_dist], rtol=1e-9)
        assert np.argsort(s_dist).tolist() == np.argsort(base_dist).tolist()


def test_hidden_relu_makes_scaling_nonlinear_before_final_layer():
    # scaling the *first* layer is not a pure rescale once relu clips
    cfg = small_config(embed_dim=6)
    weights = random_init(cfg, seed=5)
    graph = graph_of("CC(=O)Nc1ccc(O)cc1")
    base = embed_molecule(graph, weights, FEATURE_CFG).values
    scaled = weights.copy()
    scaled.layers[0] = [-1.0 * w for w in scaled.layers[0]]
    flipped = embed_molecule(graph, scaled, FEATURE_CFG).values
    assert not np.allclose(flipped, -base)


# ---- initialization ----


def test_random_init_is_deterministic_and_seed_sensitive():
    cfg = small_config()
    w1, w2 = random_init(cfg, seed=11), random_init(cfg, seed=11)
    for hops1, hops2 in zip(w1.layers, w2.layers):
        for m1, m2 in zip(hops1, hops2):
            assert np.array_equal(m1, m2)
    w3 = random_init(cfg, seed=12)
    assert any(
        not np.array_equal(m1, m3)
        for hops1, hops3 in zip(w1.layers, w3.layers)
        for m1, m3 in zip(hops1, hops3)
    )


def test_random_init_respects_fan_based_bounds():
    cfg = EncoderConfig(feature_dim=30, embed_dim=10, num_layers=2, hops_per_layer=2)
    weights = random_init(cfg, seed=0)
    for (in_dim, out_dim), hops in zip(cfg.layer_dims(), weights.layers):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        for w in hops:
            assert w.shape == (in_dim, out_dim)
            assert np.all(np.abs(w) <= limit)
            # with 300 samples the draw should come close to the bound
            assert np.max(np.abs(w)) > 0.5 * limit


def test_weights_validate_layer_chain():
    cfg = small_config()
    good = random_init(cfg, seed=0)
    with pytest.raises(ShapeError):
        GnnWeights(config=cfg, layers=good.layers[:1])
    with pytest.raises(ShapeError):
        GnnWeights(config=cfg, layers=[good.layers[0][:1], good.layers[1]])
    bad = [list(h) for h in good.layers]
    bad[1][0] = np.zeros((3, 3))
    with pytest.raises(ShapeError):
        GnnWeights(config=cfg, layers=bad)


def test_fingerprint_tracks_weights_and_config():
    cfg = small_config()
    w = random_init(cfg, seed=0)
    same = random_init(cfg, seed=0)
    assert w.fingerprint() == same.fingerprint()
    changed = w.copy()
    changed.layers[0][0][0, 0] += 1e-9
    assert changed.fingerprint() != w.fingerprint()
    other_cfg = small_config(hops_per_layer=2, activation="identity")
    assert random_init(other_cfg, seed=0).fingerprint() != w.fingerprint()


# ---- persistence ----


def test_weight_file_round_trip_is_bitwise(tmp_path):
    cfg = EncoderConfig(
        feature_dim=FEATURE_CFG.feature_dim,
        embed_dim=9,
        num_layers=3,
        hops_per_layer=1,
        activation="relu",
    )
    weights = random_init(cfg, seed=42)
    path = tmp_path / "weights.json"
    save_weights(weights, path)
    loaded = load_weights(path)
    assert loaded.config == cfg
    for hops_a, hops_b in zip(weights.layers, loaded.layers):
        for wa, wb in zip(hops_a, hops_b):
            assert np.array_equal(wa, wb)
    assert loaded.fingerprint() == weights.fingerprint()


def test_load_weights_rejects_malformed_files(tmp_path):
    path = tmp_path / "w.json"

    path.write_text("{ not json")
    with pytest.raises(FormatError):
        load_weights(path)

    path.write_text(json.dumps({"config": {}}))
    with pytest.raises(FormatError):
        load_weights(path)

    good = random_init(small_config(embed_dim=2, num_layers=1), seed=0)
    save_weights(good, path)
    payload = json.loads(path.read_text())

    extra = dict(payload)
    extra["comment"] = "hi"
    path.write_text(json.dumps(extra))
    with pytest.raises(FormatError):
        load_weights(path)

    broken = json.loads(json.dumps(payload))
    broken["layers"][0][0]["data"] = broken["layers"][0][0]["data"][:-1]
    path.write_text(json.dumps(broken))
    with pytest.raises(ShapeError):
        load_weights(path)

    wrong_shape = json.loads(json.dumps(payload))
    wrong_shape["layers"][0][0]["shape"] = [1, 1]
    path.write_text(json.dumps(wrong_shape))
    with pytest.raises(ShapeError):
        load_weights(path)

    embed_dim = payload["config"]["embed_dim"]
    for mistyped in (float(embed_dim), str(embed_dim), True):
        bad_config = json.loads(json.dumps(payload))
        bad_config["config"]["embed_dim"] = mistyped
        path.write_text(json.dumps(bad_config))
        with pytest.raises(FormatError, match=r"config\.embed_dim must be of type int"):
            load_weights(path)

    # numbers only, and finite ones
    for bad in (True, "1.5"):
        mistyped = json.loads(json.dumps(payload))
        mistyped["layers"][0][1]["data"][1] = bad
        path.write_text(json.dumps(mistyped))
        with pytest.raises(FormatError, match=r"layer 0 hop 1 data\[1\] must be of type float"):
            load_weights(path)
    for literal in ("1e400", "-Infinity", "NaN", "1" + "0" * 400):
        huge = json.loads(json.dumps(payload))
        huge["layers"][0][1]["data"][0] = "HUGE"
        path.write_text(json.dumps(huge).replace('"HUGE"', literal))
        with pytest.raises(FormatError, match="layer 0 hop 1 data must be finite"):
            load_weights(path)
