"""Example selection, context assembly and confidence perturbation."""

import dataclasses
import logging

import numpy as np
import pytest

from relm.corpus import (
    Candidate,
    CandidateList,
    CssConfig,
    GroundTruthNotInTopK,
    InContextExample,
    NotEnoughCandidates,
    ReactionRecord,
    RetrievalState,
    TrainingEmbeddings,
    ZeroNormEmbedding,
    build_context,
    corpus_from_records,
    cosine,
    molecules_key,
    parse_side,
    perturb_context,
    select_examples,
    top_k_candidates,
)
from relm.encoder import Embedding, EncoderConfig, embed_set, random_init
from relm.molgraph import FeatureConfig
from relm.synthetic import synthetic_reactions

FEATURE_CFG = FeatureConfig()


@pytest.fixture(scope="module")
def setup():
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    train = synthetic_reactions(12, seed=40)
    corpus = corpus_from_records(train, weights, FEATURE_CFG)
    return weights, train, corpus


def context_for(setup, indices, k):
    weights, train, corpus = setup
    return build_context(indices, train, corpus, k, weights, FEATURE_CFG)


# ---- selection ----


def sequential_cosine(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = sum(float(x) * float(x) for x in a) ** 0.5
    nb = sum(float(y) * float(y) for y in b) ** 0.5
    return dot / (na * nb)


def test_select_examples_matches_cosine_oracle(setup):
    weights, train, _ = setup
    # fresh ids so no training record is excluded by the query-id rule
    queries = [
        dataclasses.replace(r, id=f"query-{i}")
        for i, r in enumerate(synthetic_reactions(5, seed=41))
    ]
    for query in queries:
        q = embed_set(query.reactant_graphs(), weights, FEATURE_CFG).values
        scored = []
        for idx, record in enumerate(train):
            e = embed_set(record.reactant_graphs(), weights, FEATURE_CFG).values
            scored.append((-sequential_cosine(q, e), record.id, idx))
        scored.sort()
        want = [idx for _, _, idx in scored[:4]]
        assert select_examples(query, train, 4, weights, FEATURE_CFG) == want


def test_select_examples_excludes_the_query_itself(setup):
    weights, train, _ = setup
    picked = select_examples(train[3], train, len(train), weights, FEATURE_CFG)
    assert 3 not in picked
    assert len(picked) == len(train) - 1


def test_select_examples_breaks_ties_by_record_id(setup):
    weights, _, _ = setup
    # identical reactants embed identically, so similarity ties exactly
    twins = [
        ReactionRecord(id="b-twin", reactants=("CCO",), products=("CC=O",)),
        ReactionRecord(id="a-twin", reactants=("CCO",), products=("CCN",)),
        ReactionRecord(id="far", reactants=("c1ccccc1",), products=("C",)),
    ]
    query = ReactionRecord(id="q", reactants=("CCO", "O"), products=("CCO",))
    picked = select_examples(query, twins, 2, weights, FEATURE_CFG)
    assert [twins[i].id for i in picked] == ["a-twin", "b-twin"]


def test_select_examples_accepts_precomputed_embeddings(setup):
    weights, train, _ = setup
    embeddings = [
        embed_set(r.reactant_graphs(), weights, FEATURE_CFG) for r in train
    ]
    query = dataclasses.replace(synthetic_reactions(1, seed=42)[0], id="query-a")
    direct = select_examples(query, train, 3, weights, FEATURE_CFG)
    cached = select_examples(
        query, train, 3, weights, FEATURE_CFG,
        train_embeddings=TrainingEmbeddings(train, embeddings),
    )
    assert direct == cached
    with pytest.raises(ValueError):
        select_examples(
            query, train, 3, weights, FEATURE_CFG,
            train_embeddings=TrainingEmbeddings(train, embeddings[:-1]),
        )
    with pytest.raises(ValueError):
        select_examples(query, train, -1, weights, FEATURE_CFG)


def test_select_examples_ranks_near_ties_as_cosine_does(setup):
    # positive multiples of three directions: within a direction the
    # cosines agree up to rounding, so the order rests on how each dot
    # product and norm is summed
    weights, _, _ = setup
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(3, weights.config.embed_dim))
    embeddings = [
        Embedding(directions[i % 3] * scale)
        for i, scale in enumerate(rng.uniform(0.01, 100.0, size=300))
    ]
    train = [
        ReactionRecord(id=f"r-{i % 97}-{i}", reactants=("C",), products=("C",))
        for i in range(300)
    ]
    for i, query in enumerate(synthetic_reactions(3, seed=44)):
        query = dataclasses.replace(query, id=train[i].id)  # leaves its own row out
        q = embed_set(query.reactant_graphs(), weights, FEATURE_CFG)
        want = sorted(
            (-cosine(q, e), r.id, idx)
            for idx, (r, e) in enumerate(zip(train, embeddings))
            if r.id != query.id
        )
        got = select_examples(
            query, train, len(train), weights, FEATURE_CFG,
            train_embeddings=TrainingEmbeddings(train, embeddings),
        )
        assert got == [idx for _, _, idx in want]


def test_vecdot_sums_each_row_as_np_dot_does():
    # select_examples and TrainingEmbeddings take their dot products and
    # norms with np.vecdot and rank exactly as cosine's np.dot would only
    # while the two round alike; a numpy or BLAS build where they differ
    # fails here by name
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(5000, 16))
    records = [
        ReactionRecord(id=f"r-{i}", reactants=("C",), products=("C",)) for i in range(len(matrix))
    ]
    table = TrainingEmbeddings(records, [Embedding(row) for row in matrix])
    norms = np.array([np.sqrt(np.dot(row, row)) for row in table.matrix])
    assert table.norms.tobytes() == norms.tobytes()
    for query in rng.normal(size=(200, 16)):
        dots = np.array([np.dot(query, row) for row in table.matrix])
        assert np.vecdot(table.matrix, query).tobytes() == dots.tobytes()


def test_select_examples_tells_apart_ids_that_differ_by_a_trailing_nul(setup):
    weights, _, _ = setup
    # equal rows tie every similarity, so the order is the id order alone;
    # "a" sorts before "a\x00", which sorts before "b"
    train = [
        ReactionRecord(id=record_id, reactants=("C",), products=("C",))
        for record_id in ("a\x00", "a", "b")
    ]
    row = Embedding(np.ones(weights.config.embed_dim))
    table = TrainingEmbeddings(train, [row] * len(train))
    query = ReactionRecord(id="q", reactants=("CCO",), products=("CC",))
    assert select_examples(query, train, 3, weights, FEATURE_CFG, train_embeddings=table) == [
        1, 0, 2
    ]
    query = dataclasses.replace(query, id="a")
    assert select_examples(query, train, 3, weights, FEATURE_CFG, train_embeddings=table) == [
        0, 2
    ]


def test_select_examples_rejects_a_zero_norm_row(setup):
    weights, train, _ = setup
    embeddings = [embed_set(r.reactant_graphs(), weights, FEATURE_CFG) for r in train]
    embeddings[5] = Embedding(np.zeros(weights.config.embed_dim))
    table = TrainingEmbeddings(train, embeddings)
    with pytest.raises(ZeroNormEmbedding):
        select_examples(train[0], train, 3, weights, FEATURE_CFG, train_embeddings=table)
    # the query's own row is never compared, as in leave-one-out
    picked = select_examples(train[5], train, 3, weights, FEATURE_CFG, train_embeddings=table)
    assert len(picked) == 3 and 5 not in picked


def test_select_examples_n_zero_and_n_too_large(setup):
    weights, train, _ = setup
    query = dataclasses.replace(synthetic_reactions(1, seed=43)[0], id="query-b")
    assert select_examples(query, train, 0, weights, FEATURE_CFG) == []
    everything = select_examples(query, train, 999, weights, FEATURE_CFG)
    assert sorted(everything) == list(range(len(train)))


# ---- context assembly ----


def test_build_context_points_at_the_truth(setup):
    weights, train, corpus = setup
    examples = context_for(setup, [1, 2, 5], k=len(corpus.entries))
    assert [e.record.id for e in examples] == ["rxn-0001", "rxn-0002", "rxn-0005"]
    for example in examples:
        shown = example.candidates.entries[example.shown_answer]
        assert shown.keys == example.record.product_key()
        assert example.confidence is None
        assert not example.perturbed


def test_build_context_substitutes_from_fallback(setup, caplog):
    # at k=1 records 0 and 3 miss their own truth; record 1 holds it
    with caplog.at_level(logging.INFO):
        examples = context_for_with_fallback(setup, [0], fallback=[3, 1], k=1)
    assert [e.record.id for e in examples] == ["rxn-0001"]
    dropped = [r.message for r in caplog.records if "dropped" in r.message]
    assert len(dropped) == 2


def context_for_with_fallback(setup, selected, fallback, k):
    weights, train, corpus = setup
    return build_context(
        selected, train, corpus, k, weights, FEATURE_CFG, fallback=fallback
    )


def test_build_context_exhausted_fallback_raises(setup):
    with pytest.raises(GroundTruthNotInTopK) as excinfo:
        context_for_with_fallback(setup, [0], fallback=[3], k=1)
    message = str(excinfo.value)
    assert "rxn-0000" in message and "rxn-0003" in message


def test_build_context_skips_already_used_indices(setup):
    examples = context_for_with_fallback(setup, [1, 1], fallback=[2], k=1)
    assert [e.record.id for e in examples] == ["rxn-0001", "rxn-0002"]


def test_build_context_uses_the_cache(setup):
    weights, train, corpus = setup
    cache = {}
    first = build_context(
        [1, 2], train, corpus, 2, weights, FEATURE_CFG, candidate_cache=cache
    )
    assert set(cache) == {1, 2}
    # a trimmed cache entry (truth only) proves the cache is consulted
    truth_only = CandidateList(
        entries=(first[0].candidates.entries[first[0].shown_answer],), k=2
    )
    cache[1] = truth_only
    second = build_context(
        [1, 2], train, corpus, 2, weights, FEATURE_CFG, candidate_cache=cache
    )
    assert second[0].candidates == truth_only
    assert second[0].shown_answer == 0


def test_build_context_from_stored_embeddings_needs_no_embed(setup, monkeypatch):
    weights, train, corpus = setup
    state = RetrievalState(corpus, train, weights, FEATURE_CFG)
    fallback = list(range(3, len(train)))
    fresh = build_context([0, 1, 2], train, corpus, 2, weights, FEATURE_CFG, fallback=fallback)
    stored = state.embeddings()

    def no_embed(*args, **kwargs):
        raise AssertionError("embed_set called")

    monkeypatch.setattr("relm.corpus.embed_set", no_embed)
    cache = state.candidate_cache(2)
    got = build_context(
        [0, 1, 2], train, corpus, 2, weights, FEATURE_CFG, fallback=fallback,
        candidate_cache=cache, train_embeddings=stored,
    )
    assert got == fresh
    assert cache and state.candidate_cache(2) is cache and state.candidate_cache(3) == {}


# ---- perturbation ----


def example_pool(setup, count=4, k=4):
    weights, train, corpus = setup
    usable = []
    for idx in range(len(train)):
        lst = top_k_candidates(
            train[idx].reactant_graphs(), corpus, k, weights, FEATURE_CFG
        )
        if lst.position_of_key(train[idx].product_key()) is not None:
            usable.append(idx)
        if len(usable) == count:
            break
    assert len(usable) == count
    return context_for(setup, usable, k=k)


def test_perturbation_counts_and_confidence_ranges(setup):
    examples = example_pool(setup)
    css = CssConfig(high_set=(8, 9), low_set=(1, 2), num_perturbed=1, seed=3)
    out = perturb_context(examples, css)
    assert len(out) == len(examples)
    perturbed = [e for e in out if e.perturbed]
    kept = [e for e in out if not e.perturbed]
    assert len(perturbed) == 1
    for example in perturbed:
        assert example.confidence in css.low_set
        shown = example.candidates.entries[example.shown_answer]
        assert shown.keys != example.record.product_key()
    for example in kept:
        assert example.confidence in css.high_set
        shown = example.candidates.entries[example.shown_answer]
        assert shown.keys == example.record.product_key()
    # inputs untouched
    assert all(e.confidence is None and not e.perturbed for e in examples)


def test_perturbation_is_deterministic_per_seed(setup):
    examples = example_pool(setup)
    css = CssConfig(seed=11)
    first = perturb_context(examples, css)
    second = perturb_context(examples, css)
    assert first == second
    other = perturb_context(examples, CssConfig(seed=12))
    assert len(other) == len(first)


def test_fixed_low_and_high_sets_pin_the_confidences(setup):
    examples = example_pool(setup)
    css = CssConfig(high_set=(9,), low_set=(1,), num_perturbed=1, seed=0)
    out = perturb_context(examples, css)
    for example in out:
        assert example.confidence == (1 if example.perturbed else 9)


@pytest.mark.parametrize(
    "high,low",
    [((8, 9), (1, 2)), ((7, 8, 9), (1, 2, 3))],
)
def test_randomized_sets_cover_every_value(setup, high, low):
    examples = example_pool(setup)
    seen_high, seen_low = set(), set()
    for seed in range(60):
        out = perturb_context(
            examples, CssConfig(high_set=high, low_set=low, num_perturbed=2, seed=seed)
        )
        for example in out:
            (seen_low if example.perturbed else seen_high).add(example.confidence)
    assert seen_high == set(high)
    assert seen_low == set(low)


def test_perturbation_with_zero_count_keeps_all_truths(setup):
    examples = example_pool(setup)
    out = perturb_context(examples, CssConfig(num_perturbed=0, seed=5))
    assert all(not e.perturbed for e in out)
    assert all(e.confidence in (8, 9) for e in out)


def test_perturbation_input_validation(setup):
    examples = example_pool(setup)
    with pytest.raises(ValueError, match="two examples"):
        perturb_context(examples[:1], CssConfig())
    with pytest.raises(ValueError, match="more examples"):
        perturb_context(examples[:2], CssConfig(num_perturbed=3))


def single_candidate_example():
    products = ("CCO",)
    keys = molecules_key(parse_side(products))
    record = ReactionRecord(id="solo", reactants=("CC",), products=products)
    candidates = CandidateList(
        entries=(
            Candidate(entry_id="solo", distance=0.0, products=products, keys=keys),
        ),
        k=1,
    )
    return InContextExample(record=record, candidates=candidates, shown_answer=0)


def test_perturbation_needs_a_wrong_candidate():
    solo = single_candidate_example()
    with pytest.raises(NotEnoughCandidates):
        perturb_context([solo, solo], CssConfig(num_perturbed=1))


# ---- config and example invariants ----


def test_css_config_validation():
    assert CssConfig(high_set=(9, 8)).high_set == (8, 9)
    with pytest.raises(ValueError, match="disjoint"):
        CssConfig(high_set=(5, 9), low_set=(1, 5))
    with pytest.raises(ValueError):
        CssConfig(high_set=())
    with pytest.raises(ValueError):
        CssConfig(low_set=(0, 1))
    with pytest.raises(ValueError):
        CssConfig(high_set=(8, 10))
    with pytest.raises(ValueError):
        CssConfig(num_perturbed=-1)


def test_in_context_example_invariants(setup):
    base = example_pool(setup, count=2)[0]
    truth_position = base.shown_answer
    wrong_positions = [
        idx
        for idx, c in enumerate(base.candidates.entries)
        if c.keys != base.record.product_key()
    ]
    assert wrong_positions, "fixture needs a wrong candidate"
    with pytest.raises(ValueError, match="out of range"):
        dataclasses.replace(base, shown_answer=len(base.candidates.entries))
    with pytest.raises(ValueError, match="confidence"):
        dataclasses.replace(base, confidence=0)
    with pytest.raises(ValueError, match="wrong answer"):
        dataclasses.replace(base, perturbed=True, shown_answer=truth_position)
    with pytest.raises(ValueError, match="true answer"):
        dataclasses.replace(base, perturbed=False, shown_answer=wrong_positions[0])
