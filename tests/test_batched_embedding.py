"""The stacked forward pass: every row bit-identical to the molecule's own pass.

``embed_molecules`` stacks same-size graphs and runs the layers once per
atom count; ``embed_sides`` and ``build_index`` feed it ``EMBED_CHUNK``
molecules at a time.  The one-molecule pass these rows are checked
against is ``node_states``: two-dimensional features through ``_forward``,
summed over nodes.
"""

import random

import numpy as np
import pytest

import relm.molecules
from relm.corpus import DatasetError, build_index, parse_side
from relm.encoder import (
    EncoderConfig,
    ShapeMismatch,
    embed_molecule,
    embed_molecules,
    embed_set,
    node_states,
    random_init,
    tag_layer,
)
from relm.molecules import EMBED_CHUNK, embed_sides
from relm.molgraph import (
    Atom,
    FeatureConfig,
    MolecularGraph,
    graph_features,
    serialize,
    stacked_features,
)
from relm.synthetic import random_molecule

from helpers import build_random_graph, reference_tag_layer

FEATURE_CFG = FeatureConfig()


def weights_for(embed_dim=16, **kw):
    config = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim, **kw)
    return random_init(config, seed=embed_dim)


def one_molecule(graph, weights):
    return node_states(graph, weights, FEATURE_CFG).sum(axis=0)


def reference_embedding(graph, weights):
    h, a = graph_features(graph, FEATURE_CFG)
    for layer, hops in enumerate(weights.layers):
        h = reference_tag_layer(h, a, hops, weights.config.layer_activation(layer))
    return h.sum(axis=0)


def graphs_of_size(n, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        graph = build_random_graph(rng, max_atoms=n)
        if graph.num_atoms == n:
            out.append(graph)
    return out


def assert_rows_match(graphs, weights):
    rows = embed_molecules(graphs, weights, FEATURE_CFG)
    assert rows.shape == (len(graphs), weights.config.embed_dim)
    for graph, row in zip(graphs, rows):
        assert np.array_equal(row, one_molecule(graph, weights))
    return rows


@pytest.mark.parametrize("n", range(1, 11))
def test_every_atom_count_matches_the_one_molecule_pass(n):
    weights = weights_for()
    graphs = graphs_of_size(n, 12, seed=n)
    rows = assert_rows_match(graphs, weights)
    for graph, row in zip(graphs, rows):
        assert np.array_equal(row, embed_molecule(graph, weights, FEATURE_CFG).values)
        np.testing.assert_allclose(row, reference_embedding(graph, weights), rtol=1e-12, atol=1e-12)


def test_single_atom_graphs_take_the_vector_product_path():
    weights = weights_for()
    graphs = [MolecularGraph(atoms=(Atom(e, formal_charge=c),)) for e in ("C", "N", "O") for c in (-1, 0, 1)]
    assert_rows_match(graphs, weights)


@pytest.mark.parametrize("batch", [1, 2, EMBED_CHUNK - 1, EMBED_CHUNK, EMBED_CHUNK + 1])
def test_stack_sizes_match(batch):
    assert_rows_match(graphs_of_size(7, batch, seed=batch), weights_for())


@pytest.mark.parametrize("embed_dim,hops,activation", [(1, 2, "relu"), (3, 0, "identity"), (16, 3, "relu")])
def test_mixed_sizes_in_one_call_keep_their_order(embed_dim, hops, activation):
    weights = weights_for(embed_dim, hops_per_layer=hops, activation=activation, num_layers=3)
    rng = random.Random(embed_dim)
    graphs = [build_random_graph(rng, max_atoms=10) for _ in range(200)]
    assert len({g.num_atoms for g in graphs}) == 10
    assert_rows_match(graphs, weights)


def one_molecule_sum(graphs, weights):
    total = one_molecule(graphs[0], weights)
    for graph in graphs[1:]:
        total = total + one_molecule(graph, weights)
    return total


def test_embed_set_sums_the_rows_left_to_right():
    weights = weights_for()
    graphs = graphs_of_size(4, 2, seed=1) + graphs_of_size(9, 1, seed=2) + graphs_of_size(4, 1, seed=3)
    assert np.array_equal(embed_set(graphs, weights, FEATURE_CFG).values, one_molecule_sum(graphs, weights))


def test_no_graphs_give_no_rows_and_a_feature_mismatch_raises():
    weights = weights_for()
    assert embed_molecules([], weights, FEATURE_CFG).shape == (0, 16)
    with pytest.raises(ShapeMismatch):
        embed_molecules(graphs_of_size(3, 2, 0), weights, FeatureConfig(element_vocab=("C", "N", "O")))


def test_stacked_features_are_the_one_graph_features_stacked():
    graphs = graphs_of_size(6, 5, seed=4)
    x, a = stacked_features(graphs, FEATURE_CFG)
    assert x.shape == (5, 6, FEATURE_CFG.feature_dim) and a.shape == (5, 6, 6)
    for b, graph in enumerate(graphs):
        gx, ga = graph_features(graph, FEATURE_CFG)
        assert np.array_equal(x[b], gx) and np.array_equal(a[b], ga)
    with pytest.raises(ValueError):
        stacked_features(graphs + graphs_of_size(5, 1, 0), FEATURE_CFG)


def test_a_layer_takes_a_stack_and_rejects_inconsistent_ones():
    hops = weights_for().layers[0]
    x, a = stacked_features(graphs_of_size(3, 4, 0), FEATURE_CFG)
    stacked = tag_layer(x, a, hops, "relu")
    for b in range(4):
        assert np.array_equal(stacked[b], tag_layer(x[b], a[b], hops, "relu"))
    for bad_a in (a[:3], a[0], a[:, :2, :2]):
        with pytest.raises(ShapeMismatch):
            tag_layer(x, bad_a, hops)
    with pytest.raises(ShapeMismatch):
        tag_layer(x[None], a[None], hops)


def side_pool(count, seed):
    """SMILES sides: multi-fragment strings, and strings repeated within and
    across sides."""
    rng = random.Random(seed)
    strings = [serialize(random_molecule(rng, 1, 10)) for _ in range(count)]
    dotted = [f"{strings[i]}.{strings[i + 1]}" for i in range(0, count - 1, 7)]
    sides = []
    for _ in range(count):
        side = [rng.choice(strings + dotted) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            side.append(side[0])
        sides.append(side)
    return sides


def test_embed_sides_equals_embed_set_across_chunks(monkeypatch):
    weights = weights_for()
    sides = side_pool(2 * EMBED_CHUNK + 300, seed=5)
    distinct = {smiles: len(parse_side([smiles])) for side in sides for smiles in side}
    assert sum(distinct.values()) > 2 * EMBED_CHUNK
    batches = []
    real = relm.molecules.embed_molecules
    monkeypatch.setattr(
        relm.molecules, "embed_molecules", lambda graphs, *a: batches.append(len(graphs)) or real(graphs, *a)
    )
    rows = embed_sides(sides, weights, FEATURE_CFG)
    # each distinct string's fragments embedded once, at most a chunk (plus
    # the fragments of the string that filled it) at a time
    assert sum(batches) == sum(distinct.values())
    assert len(batches) > 2 and max(batches) < EMBED_CHUNK + max(distinct.values())
    for side, row in zip(sides, rows):
        graphs = parse_side(side)
        assert np.array_equal(row, embed_set(graphs, weights, FEATURE_CFG).values)
        assert np.array_equal(row, one_molecule_sum(graphs, weights))


def test_build_index_rows_equal_embed_set_across_chunks():
    weights = weights_for()
    sides = side_pool(EMBED_CHUNK + 300, seed=6)
    corpus = build_index([(f"p{i}", side) for i, side in enumerate(sides)], weights, FEATURE_CFG)
    assert len(corpus.entries) < len(sides)  # some sets share a key
    assert corpus.entries[-1].entry_id not in {f"p{i}" for i in range(EMBED_CHUNK)}
    for entry in corpus.entries:
        want = embed_set(parse_side(entry.products), weights, FEATURE_CFG).values
        assert np.array_equal(entry.embedding.values, want)


def test_build_index_names_the_set_with_an_element_the_features_lack():
    narrow = FeatureConfig(element_vocab=("C", "N", "O"))
    weights = random_init(EncoderConfig(feature_dim=narrow.feature_dim, embed_dim=4), seed=0)
    sets = [("a", ["CCO"]), ("b", ["CCN", "CCS"]), ("c", ["CCCl"])]
    message = "product set 'b' has unparseable SMILES: element 'S' is outside the feature vocabulary"
    with pytest.raises(DatasetError, match=f"^{message}$"):
        build_index(sets, weights, narrow)
