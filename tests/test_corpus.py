"""Dataset IO, the product index, and nearest-neighbor retrieval."""

import hashlib
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relm import corpus as corpus_module
from relm import molecules as molecules_module
from relm.corpus import (
    Candidate,
    CandidateList,
    CorpusEntry,
    DatasetError,
    DimMismatch,
    EmptyCorpus,
    FingerprintMismatch,
    ProductCorpus,
    ReactionRecord,
    TrainingEmbeddings,
    ZeroNormEmbedding,
    build_index,
    check_fingerprint,
    corpus_from_records,
    cosine,
    keys_path,
    load_dataset,
    load_index,
    molecules_key,
    parse_side,
    save_dataset,
    save_index,
    top_k_block,
    top_k_by_embedding,
    top_k_candidates,
)
from relm.encoder import Embedding, EncoderConfig, GnnWeights, embed_set, random_init
from relm.molecules import MoleculeTable, embed_sides
from relm.molgraph import KEY_VERSION, FeatureConfig, SmilesError, parse_smiles
from relm.synthetic import synthetic_reactions

from helpers import KEYS_FILE_DAMAGE, damage_keys_file, reference_distance

FEATURE_CFG = FeatureConfig()


def make_weights(embed_dim=8, seed=0):
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim)
    return random_init(cfg, seed=seed)


def zero_weights(embed_dim=4):
    cfg = EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=embed_dim)
    template = random_init(cfg, seed=0)
    return GnnWeights(
        config=cfg,
        layers=[[np.zeros_like(w) for w in hops] for hops in template.layers],
    )


# ---- metrics ----


def test_cosine_rejects_dim_mismatch():
    a, b = Embedding(np.ones(3)), Embedding(np.ones(4))
    with pytest.raises(DimMismatch):
        cosine(a, b)


def test_cosine_basics():
    a = Embedding(np.array([1.0, 0.0]))
    b = Embedding(np.array([0.0, 2.0]))
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, b) == pytest.approx(0.0)
    assert cosine(a, Embedding(np.array([-3.0, 0.0]))) == pytest.approx(-1.0)
    with pytest.raises(ZeroNormEmbedding):
        cosine(a, Embedding(np.zeros(2)))


# ---- records and datasets ----


def test_record_validation():
    with pytest.raises(DatasetError):
        ReactionRecord(id="", reactants=("C",), products=("C",))
    with pytest.raises(DatasetError):
        ReactionRecord(id="r", reactants=(), products=("C",))


def test_product_key_ignores_spelling_and_order():
    r1 = ReactionRecord(id="a", reactants=("C",), products=("CCO", "O"))
    r2 = ReactionRecord(id="b", reactants=("C",), products=("O", "OCC"))
    assert r1.product_key() == r2.product_key()


def test_dataset_round_trip(tmp_path):
    records = [
        ReactionRecord(
            id="r1",
            reactants=("CCO", "O=C=O"),
            products=("CC(=O)O",),
            condition="heat",
            reaction_type="oxidation",
            iupac={"CCO": "ethanol"},
        ),
        ReactionRecord(id="r2", reactants=("C.C",), products=("CC",)),
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    loaded = load_dataset(path)
    assert loaded == records
    # optional fields absent from the serialized form when unset
    lines = path.read_text().splitlines()
    assert "condition" not in lines[1]


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"id": "r", "products": ["C"], "reactants": ["C"], "extra": 1}', "unknown keys"),
        ('{"reactants": ["C"], "products": ["C"]}', "missing key 'id'"),
        ('{"id": 3, "reactants": ["C"], "products": ["C"]}', "id must be of type str, got 3"),
        ('{"id": "r", "reactants": "C", "products": ["C"]}', "reactants must be a JSON list"),
        ('{"id": "r", "reactants": [1], "products": ["C"]}', "reactants[0] must be of type str"),
        ('{"id": "r", "reactants": ["C"]}', "has no products"),
        ('{"id": "r", "reactants": ["C"], "products": []}', "has no products"),
        ('{"id": "r", "reactants": ["C("], "products": ["C"]}', "unparseable"),
        ('{"id": "r", "reactants": ["C"], "products": ["C"], "condition": 5}', "condition"),
        ('{"id": "r", "reactants": ["C"], "products": ["C"], "iupac": ["x"]}', "iupac"),
    ],
)
def test_dataset_rejects_bad_records(tmp_path, line, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "reactants": ["C"], "products": ["C"]}\n' + line + "\n")
    with pytest.raises(DatasetError) as excinfo:
        load_dataset(path)
    message = str(excinfo.value)
    assert fragment in message
    assert ":2" in message  # the offending line number


def test_dataset_rejects_duplicates_and_empty(tmp_path):
    path = tmp_path / "dup.jsonl"
    row = '{"id": "same", "reactants": ["C"], "products": ["C"]}\n'
    path.write_text(row + row)
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)
    path.write_text("\n\n")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(path)


# ---- index construction ----


def test_build_index_deduplicates_by_structure():
    weights = make_weights()
    corpus = build_index(
        [
            ("a", ["CCO"]),
            ("b", ["OCC"]),  # same molecule, different spelling
            ("c", ["CCN"]),
            ("d", ["O", "CCO"]),
            ("e", ["CCO", "O"]),  # same multiset, different order
        ],
        weights,
        FEATURE_CFG,
    )
    assert [e.entry_id for e in corpus.entries] == ["a", "c", "d"]
    assert corpus.fingerprint == weights.fingerprint()


def test_build_index_rejects_bad_input():
    weights = make_weights()
    with pytest.raises(EmptyCorpus):
        build_index([], weights, FEATURE_CFG)
    with pytest.raises(DatasetError, match="duplicate"):
        build_index([("a", ["C"]), ("a", ["N"])], weights, FEATURE_CFG)
    with pytest.raises(DatasetError, match="empty"):
        build_index([("a", [])], weights, FEATURE_CFG)
    with pytest.raises(DatasetError, match="unparseable"):
        build_index([("a", ["C(("])], weights, FEATURE_CFG)


def test_corpus_entries_must_share_dims():
    entry = lambda i, dim: CorpusEntry(  # noqa: E731
        entry_id=f"e{i}",
        products=("C",),
        embedding=Embedding(np.zeros(dim)),
        keys=(f"k{i}",),
    )
    with pytest.raises(DimMismatch):
        ProductCorpus(entries=(entry(0, 3), entry(1, 4)), fingerprint="f")
    with pytest.raises(EmptyCorpus):
        ProductCorpus(entries=(), fingerprint="f")


def test_candidate_list_invariants():
    cand = Candidate(entry_id="x", distance=0.0, products=("C",), keys=("k",))
    lst = CandidateList(entries=(cand,), k=3)
    assert lst.short
    assert lst.position_of_key(("k",)) == 0
    assert lst.position_of_key(("other",)) is None
    with pytest.raises(ValueError):
        CandidateList(entries=(cand,), k=0)
    with pytest.raises(ValueError):
        CandidateList(entries=(cand, cand), k=1)


# ---- retrieval ----


def test_top_k_matches_brute_force_oracle():
    weights = make_weights(embed_dim=8, seed=1)
    train = synthetic_reactions(40, seed=10)
    queries = synthetic_reactions(15, seed=20)
    corpus = corpus_from_records(train, weights, FEATURE_CFG)
    for record in queries:
        query = embed_set(record.reactant_graphs(), weights, FEATURE_CFG)
        scored = sorted(
            (reference_distance(query.values, e.embedding.values), e.entry_id)
            for e in corpus.entries
        )
        for k in (1, 3, 6):
            got = top_k_by_embedding(query, corpus, k)
            assert [c.entry_id for c in got.entries] == [
                entry_id for _, entry_id in scored[:k]
            ]
            for candidate, (dist, _) in zip(got.entries, scored):
                assert candidate.distance == pytest.approx(dist, rel=1e-12)


def test_top_k_breaks_ties_by_entry_id():
    # zero weights embed everything identically, so order must fall back
    # to the lexicographic entry id
    weights = zero_weights()
    corpus = build_index(
        [("zeta", ["CCO"]), ("alpha", ["CCN"]), ("mid", ["CCC"])],
        weights,
        FEATURE_CFG,
    )
    got = top_k_by_embedding(Embedding(np.zeros(4)), corpus, 3)
    assert [c.entry_id for c in got.entries] == ["alpha", "mid", "zeta"]


@pytest.mark.parametrize("id_order", ["numbered", "reversed"])
def test_top_k_ties_at_the_kth_distance_break_by_id_not_position(id_order):
    # "e-10" sorts before "e-9", so id order is not insertion order; the
    # distance-1 group (e-1, e-3, e-7, e-9, e-11) straddles most k
    ids = [f"e-{i}" for i in range(12)]
    if id_order == "reversed":
        ids.reverse()
    distances = [2.0, 1.0, 2.0, 1.0, 2.0, 0.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    corpus = ProductCorpus(
        entries=tuple(
            CorpusEntry(entry_id, ("C",), Embedding(np.array([d, 0.0])), (entry_id,))
            for entry_id, d in zip(ids, distances)
        ),
        fingerprint="ties",
    )
    want = sorted(zip(distances, ids))
    for k in range(1, len(ids) + 3):
        got = top_k_by_embedding(Embedding(np.zeros(2)), corpus, k)
        assert [(c.distance, c.entry_id) for c in got.entries] == want[:k], k


def corpus_of_rows(rows, ids=None):
    ids = ids or [f"e-{i}" for i in range(len(rows))]
    return ProductCorpus(
        entries=tuple(
            CorpusEntry(entry_id, ("C",), Embedding(row), (entry_id,))
            for entry_id, row in zip(ids, rows)
        ),
        fingerprint="rows",
    )


def diff_based_top_k(corpus, v, k):
    """The scan with no filter: every entry's diff-based distance, sorted
    by (distance, entry id)."""
    diffs = corpus.matrix - v
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    return sorted(zip(dists.tolist(), [e.entry_id for e in corpus.entries]))[:k]


def scan(corpus, v, k):
    return [(c.distance, c.entry_id) for c in top_k_by_embedding(Embedding(v), corpus, k).entries]


@pytest.mark.parametrize("dim", [2, 16])
def test_top_k_filter_survives_cancellation(dim, monkeypatch):
    # at norms near 1e8 the expansion |m|^2 - 2m.v rounds in steps of ~1,
    # far coarser than these squared distances (~1e-8), so only the error
    # bound keeps the true neighbours in the shortlist
    rng = np.random.default_rng(0)
    v = np.full(dim, 1e8)
    corpus = corpus_of_rows(v + rng.normal(scale=1e-4, size=(64, dim)))
    for k in (3, 5):
        assert scan(corpus, v, k) == diff_based_top_k(corpus, v, k)
    monkeypatch.setattr(corpus_module, "_expansion_slack", lambda dim, radius: 0.0)
    for k in (3, 5):
        assert scan(corpus, v, k) != diff_based_top_k(corpus, v, k)


def test_top_k_keeps_a_sqrt_tie_one_ulp_above_the_kth(monkeypatch):
    # 1 + 2^-52 is one ulp above 1 but its sqrt rounds to 1.0, so "a"
    # ties "b" at distance 1 and wins on id
    corpus = corpus_of_rows([[1.0, 0.0], [1.0, 2.0**-26], [3.0, 0.0]], ids=["b", "a", "c"])
    v = np.zeros(2)
    assert float(corpus.matrix[1] @ corpus.matrix[1]) == np.nextafter(1.0, 2.0)
    assert scan(corpus, v, 1) == diff_based_top_k(corpus, v, 1) == [(1.0, "a")]
    monkeypatch.setattr(corpus_module, "_expansion_slack", lambda dim, radius: 0.0)
    assert scan(corpus, v, 1) == [(1.0, "b")]


# per-coordinate offsets from the query: small multiples of 1/2 tie
# exactly, and 2^-26 squares to one ulp of 1
OFFSETS = np.array([0.0, 0.5, 1.0, 1.5, 2.0**-26, 1.5 * 2.0**-26, 2.0**-27])


@st.composite
def scan_cases(draw):
    dim = draw(st.sampled_from([1, 2, 16, 64]))
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([2.0**-20, 1.0, 2.0**10]))
    center = draw(st.sampled_from([0.0, 3.0, 1e6]))
    v = center + scale * rng.integers(-2, 3, size=dim) / 2
    offsets = []
    for _ in range(n):
        kind = draw(st.sampled_from(["sparse", "normal", "copy", "permute", "nudge"]))
        if kind == "sparse" or not offsets:
            signs = rng.choice([-1.0, 1.0], size=dim)
            offset = signs * rng.choice(OFFSETS, size=dim, p=[0.7] + [0.05] * 6)
        elif kind == "normal":
            offset = rng.normal(size=dim)
        else:
            offset = offsets[rng.integers(len(offsets))].copy()
            if kind == "permute":
                offset = rng.permutation(offset)
            elif kind == "nudge":
                offset[rng.integers(dim)] += rng.choice([-1.0, 1.0]) * 2.0**-26
        offsets.append(offset)
    rows = v + scale * np.array(offsets)
    ids = [f"e-{i}" for i in rng.permutation(n)]
    return corpus_of_rows(rows, ids), v, k


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_top_k_matches_the_unfiltered_scan_bit_for_bit(case):
    corpus, v, k = case
    got = top_k_by_embedding(Embedding(v), corpus, k)
    want = diff_based_top_k(corpus, v, k)
    assert [(c.distance, c.entry_id) for c in got.entries] == want
    assert got.short == (len(corpus.entries) < k)


def test_top_k_short_corpus_and_validation():
    weights = make_weights()
    corpus = build_index([("a", ["C"]), ("b", ["N"])], weights, FEATURE_CFG)
    query = Embedding(np.zeros(corpus.dim))
    got = top_k_by_embedding(query, corpus, 5)
    assert len(got.entries) == 2 and got.short
    with pytest.raises(ValueError):
        top_k_by_embedding(query, corpus, 0)
    with pytest.raises(DimMismatch):
        top_k_by_embedding(Embedding(np.zeros(corpus.dim + 1)), corpus, 1)


def test_top_k_candidates_embeds_the_reactants():
    weights = make_weights(seed=2)
    records = synthetic_reactions(10, seed=30)
    corpus = corpus_from_records(records, weights, FEATURE_CFG)
    record = records[0]
    via_graphs = top_k_candidates(
        record.reactant_graphs(), corpus, 3, weights, FEATURE_CFG
    )
    query = embed_set(record.reactant_graphs(), weights, FEATURE_CFG)
    via_embedding = top_k_by_embedding(query, corpus, 3)
    assert via_graphs == via_embedding


def test_check_fingerprint():
    weights = make_weights(seed=3)
    corpus = build_index([("a", ["CCO"])], weights, FEATURE_CFG)
    check_fingerprint(corpus, weights)
    with pytest.raises(FingerprintMismatch):
        check_fingerprint(corpus, make_weights(seed=4))


# ---- index persistence ----


def test_index_round_trip(tmp_path):
    weights = make_weights(seed=5)
    records = synthetic_reactions(12, seed=6)
    corpus = corpus_from_records(records, weights, FEATURE_CFG)
    path = tmp_path / "index.json"
    save_index(corpus, path)
    loaded = load_index(path)
    assert loaded.fingerprint == corpus.fingerprint
    assert len(loaded.entries) == len(corpus.entries)
    for got, want in zip(loaded.entries, corpus.entries):
        assert got.entry_id == want.entry_id
        assert got.products == want.products
        assert got.keys == want.keys  # from the index's keys file
        assert np.array_equal(got.embedding.values, want.embedding.values)
    check_fingerprint(loaded, weights)


def test_load_index_rejects_malformed_files(tmp_path):
    path = tmp_path / "index.json"
    weights = make_weights()
    save_index(build_index([("a", ["CCO"])], weights, FEATURE_CFG), path)
    payload = json.loads(path.read_text())

    def expect_error(mutated, exc=DatasetError):
        path.write_text(json.dumps(mutated))
        with pytest.raises(exc):
            load_index(path)

    path.write_text("{ nope")
    with pytest.raises(DatasetError):
        load_index(path)

    expect_error({"entries": payload["entries"]})
    expect_error({**payload, "extra": 1})
    expect_error({**payload, "fingerprint": 7})
    expect_error({**payload, "entries": []}, exc=EmptyCorpus)

    entry = payload["entries"][0]
    expect_error({**payload, "entries": [{k: v for k, v in entry.items() if k != "id"}]})
    expect_error({**payload, "entries": [{**entry, "comment": "x"}]})
    expect_error({**payload, "entries": [{**entry, "products": []}]})
    expect_error({**payload, "entries": [{**entry, "products": ["C(("]}]})
    expect_error({**payload, "entries": [{**entry, "embedding": "zero"}]})
    expect_error({**payload, "entries": 5})
    expect_error({**payload, "entries": [{**entry, "id": 5}]})
    expect_error({**payload, "entries": [{**entry, "products": [5]}]})
    expect_error({**payload, "entries": [{**entry, "embedding": ["x"] * len(entry["embedding"])}]})
    expect_error({**payload, "entries": [{**entry, "embedding": [float("inf")] * len(entry["embedding"])}]})
    expect_error({**payload, "entries": [entry, entry]})
    # numbers only: no JSON true or numeric string passes as a float
    for bad in (True, "1.5"):
        mistyped = [0.5, bad] + entry["embedding"][2:]
        path.write_text(json.dumps({**payload, "entries": [{**entry, "embedding": mistyped}]}))
        with pytest.raises(DatasetError, match=r"entry 0: embedding\[1\] must be of type float"):
            load_index(path)
    path.write_text(json.dumps(payload).replace(str(entry["embedding"][0]), "1e400", 1))
    with pytest.raises(DatasetError, match="entry 0: embedding must be finite"):
        load_index(path)


# ---- the index's keys file ----


def saved_index(directory, records):
    path = directory / "index.json"
    save_index(corpus_from_records(records, make_weights(seed=5), FEATURE_CFG), path)
    return path


def count_keying(monkeypatch):
    calls = []
    real = molecules_module.canonical_key
    monkeypatch.setattr(molecules_module, "canonical_key", lambda g: calls.append(1) or real(g))
    return calls


def test_keys_file_holds_each_product_strings_keys_for_the_index_bytes(tmp_path):
    path = saved_index(tmp_path, synthetic_reactions(12, seed=6) + hand_made_records())
    stored = json.loads(keys_path(path).read_text())
    assert keys_path(path) == tmp_path / "index.keys.json"
    assert stored["key_version"] == KEY_VERSION
    assert stored["index_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    strings = {s for e in json.loads(path.read_text())["entries"] for s in e["products"]}
    assert stored["keys"] == {s: list(molecules_key(parse_smiles(s))) for s in strings}


def test_save_index_keys_nothing_the_build_keyed(tmp_path, monkeypatch):
    corpus = corpus_from_records(synthetic_reactions(12, seed=6), make_weights(), FEATURE_CFG)
    keyed = count_keying(monkeypatch)
    save_index(corpus, tmp_path / "index.json")
    assert keyed == []


def test_an_intact_keys_file_is_read_not_recomputed(tmp_path, monkeypatch):
    # made-up keys with the right digest and version are what load_index returns
    path = saved_index(tmp_path, synthetic_reactions(12, seed=6) + hand_made_records())
    stored = json.loads(keys_path(path).read_text())
    made_up = "0" * 32
    stored["keys"] = {s: [made_up] for s in stored["keys"]}
    keys_path(path).write_text(json.dumps(stored))
    keyed = count_keying(monkeypatch)
    loaded = load_index(path)
    assert keyed == []
    for entry in loaded.entries:
        assert entry.keys == (made_up,) * len(entry.products)


@pytest.mark.parametrize("damage", KEYS_FILE_DAMAGE)
def test_a_damaged_keys_file_gives_the_keys_of_no_keys_file(tmp_path, monkeypatch, damage):
    path = saved_index(tmp_path, synthetic_reactions(20, seed=7) + hand_made_records())
    first = next(iter(json.loads(keys_path(path).read_text())["keys"]))
    damage_keys_file(path, damage)
    keyed = count_keying(monkeypatch)
    damaged = load_index(path)
    damaged_keyed = len(keyed)
    keys_path(path).unlink(missing_ok=True)
    keyed.clear()
    plain = load_index(path)
    assert [e.keys for e in damaged.entries] == [e.keys for e in plain.entries]
    for entry in plain.entries:
        assert entry.keys == molecules_key(parse_side(entry.products))
    # a usable file that lacks one string keys that string alone
    assert damaged_keyed == (len(parse_smiles(first)) if damage == "string-missing" else len(keyed))


def test_an_intact_keys_file_still_parses_every_product(tmp_path):
    path = saved_index(tmp_path, [ReactionRecord(id="a", reactants=("CC",), products=("CCO",))])
    payload = json.loads(path.read_text())
    payload["entries"][0]["products"] = ["C(("]
    path.write_text(json.dumps(payload))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    stored = {"key_version": KEY_VERSION, "index_sha256": digest, "keys": {"C((": ["0" * 32]}}
    keys_path(path).write_text(json.dumps(stored))
    table = MoleculeTable()
    with pytest.raises(DatasetError, match="entry 0: unparseable product SMILES"):
        load_index(path, table)
    with pytest.raises(SmilesError):  # the failed string was not remembered as parsing
        table.check(["C(("])


@settings(max_examples=20, deadline=None)
@given(size=st.integers(1, 30), seed=st.integers(0, 2**16 - 1), hand_made=st.booleans())
def test_keys_from_the_keys_file_equal_keys_from_parsing(size, seed, hand_made):
    records = synthetic_reactions(size, seed=seed) + (hand_made_records() if hand_made else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = saved_index(Path(tmp), records)
        with mock.patch.object(molecules_module, "canonical_key", side_effect=AssertionError):
            loaded = load_index(path)  # every key from the file
    for entry in loaded.entries:
        assert entry.keys == molecules_key(parse_side(entry.products))


# ---- the molecule table ----


def hand_made_records():
    # dot-separated strings, strings repeated across records and across
    # sides, and a string that is a fragment of another
    return [
        ReactionRecord(id="h-0", reactants=("CCO.O", "N"), products=("CC=O.O",)),
        ReactionRecord(id="h-1", reactants=("O", "CCO.O"), products=("CCO",)),
        ReactionRecord(id="h-2", reactants=("CCO",), products=("O", "CCO.O")),
        ReactionRecord(id="h-3", reactants=("c1ccccc1", "O.O"), products=("CCO.O", "N")),
        ReactionRecord(id="h-4", reactants=("CCO.O", "N"), products=("OCC.O",)),
    ]


def table_workspaces():
    return [
        pytest.param(lambda: synthetic_reactions(40, seed=11), id="synthetic-40"),
        pytest.param(lambda: synthetic_reactions(120, seed=12), id="synthetic-120"),
        pytest.param(hand_made_records, id="hand-made"),
    ]


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("make_records", table_workspaces())
def test_table_keys_and_embeddings_equal_parsing_each_side(tmp_path, make_records):
    records = make_records()
    weights = make_weights(seed=9)
    save_dataset(records, tmp_path / "data.jsonl")
    table = MoleculeTable()
    loaded = load_dataset(tmp_path / "data.jsonl", table)
    assert loaded == records
    for record in loaded:
        assert record.molecules is table
        assert record.product_key() == molecules_key(parse_side(record.products))
        assert table.set_key(record.reactants) == molecules_key(parse_side(record.reactants))
    embedded = TrainingEmbeddings.embed(loaded, weights, FEATURE_CFG)
    products = embed_sides([r.products for r in loaded], weights, FEATURE_CFG)
    for reactants, product_row, record in zip(embedded.matrix, products, loaded):
        want = embed_set(parse_side(record.reactants), weights, FEATURE_CFG).values
        assert bits(reactants) == bits(want)
        want = embed_set(parse_side(record.products), weights, FEATURE_CFG).values
        assert bits(product_row) == bits(want)
    # the index, built with the same table and with a new one, as from parsing
    for molecules in (table, None):
        corpus = corpus_from_records(loaded, weights, FEATURE_CFG, molecules)
        for entry in corpus.entries:
            assert entry.keys == molecules_key(parse_side(entry.products))
            want = embed_set(parse_side(entry.products), weights, FEATURE_CFG).values
            assert bits(entry.embedding.values) == bits(want)
    save_index(corpus, tmp_path / "index.json")
    reloaded = load_index(tmp_path / "index.json", table)
    assert [e.keys for e in reloaded.entries] == [e.keys for e in corpus.entries]
    assert reloaded.molecules is table


def test_table_parses_each_distinct_string_once(tmp_path, monkeypatch):
    records = hand_made_records()
    weights = make_weights(seed=9)
    save_dataset(records, tmp_path / "data.jsonl")
    calls = []
    real = molecules_module.parse_smiles
    monkeypatch.setattr(
        molecules_module, "parse_smiles", lambda smiles: calls.append(smiles) or real(smiles)
    )
    table = MoleculeTable()
    load_dataset(tmp_path / "data.jsonl", table)
    distinct = {s for r in records for s in r.reactants + r.products}
    assert sorted(calls) == sorted(distinct)
    calls.clear()
    for record in records:
        table.set_key(record.products)
        table.set_key(record.products)
    assert sorted(calls) == sorted({s for r in records for s in r.products})
    calls.clear()
    embed_sides([r.reactants for r in records], weights, FEATURE_CFG)
    assert sorted(calls) == sorted({s for r in records for s in r.reactants})


def test_table_shared_by_threads_gives_what_a_serial_table_gives():
    # threads race to check and key the same strings; a lost update, or a
    # key overwritten by a check, would show as a wrong or missing key
    records = synthetic_reactions(60, seed=13) + hand_made_records()
    sides = [r.reactants for r in records] + [r.products for r in records]
    serial = MoleculeTable()
    want = [serial.set_key(side) for side in sides]
    shared = MoleculeTable()

    def work(order):
        keys = []
        for i in order:
            shared.check(sides[i])
            keys.append(shared.set_key(sides[i]))
        return keys

    orders = [np.random.default_rng(seed).permutation(len(sides)).tolist() for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, order) for order in orders]
            for order, future in zip(orders, futures):
                assert future.result(timeout=60) == [want[i] for i in order]
    finally:
        sys.setswitchinterval(interval)
    assert [shared.set_key(side) for side in sides] == want


def smiles_error_text(smiles):
    with pytest.raises(SmilesError) as excinfo:
        parse_smiles(smiles)
    return str(excinfo.value)


@pytest.mark.parametrize("bad", ["C((", "Xx", "CCO.C1CC"])
def test_table_readers_name_a_bad_smiles_as_before(tmp_path, bad):
    # a table that has already seen the good strings changes no message, and
    # a string that failed is never remembered as parsing
    weights = make_weights()
    reason = smiles_error_text(bad)
    table = MoleculeTable()
    path = tmp_path / "data.jsonl"
    rows = [
        {"id": "ok", "reactants": ["CCO"], "products": ["CC=O"]},
        {"id": "bad", "reactants": ["CCO"], "products": [bad]},
        {"id": "worse", "reactants": [bad], "products": ["CC=O"]},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    for _ in range(2):
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(path, table)
        assert str(excinfo.value) == f"{path}:2: record 'bad' has unparseable SMILES: {reason}"
    for _ in range(2):
        with pytest.raises(DatasetError) as excinfo:
            build_index([("a", ["CCO"]), ("b", ["CC=O", bad])], weights, FEATURE_CFG, table)
        assert str(excinfo.value) == f"product set 'b' has unparseable SMILES: {reason}"
    index = tmp_path / "index.json"
    save_index(build_index([("a", ["CCO"]), ("b", ["CC=O"])], weights, FEATURE_CFG), index)
    payload = json.loads(index.read_text())
    payload["entries"][1]["products"] = ["CCO", bad]
    index.write_text(json.dumps(payload))
    for molecules in (table, None):
        with pytest.raises(DatasetError) as excinfo:
            load_index(index, molecules)
        assert str(excinfo.value) == f"{index}: entry 1: unparseable product SMILES: {reason}"


# ---- block scans ----


def scan_bits(candidates):
    return (
        [(c.entry_id, bits(c.distance)) for c in candidates.entries],
        candidates.short,
    )


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_block_scan_equals_one_row_scans_bit_for_bit(case, block_size, seed):
    # rows of the block: the drawn query, copies of it (repeated rows), corpus
    # rows (exact ties at distance 0) and nudged copies of those
    corpus, v, k = case
    rng = np.random.default_rng(seed)
    pool = [v, v.copy(), *corpus.matrix, *(corpus.matrix + 2.0**-26)]
    block = np.array([pool[i] for i in rng.integers(len(pool), size=block_size)])
    got = top_k_block(block, corpus, k)
    assert len(got) == block_size
    for row, candidates in zip(block, got):
        assert scan_bits(candidates) == scan_bits(top_k_by_embedding(Embedding(row), corpus, k))
        want = diff_based_top_k(corpus, row, k)
        assert [(c.distance, c.entry_id) for c in candidates.entries] == want


def test_block_scan_breaks_kth_ties_by_id_and_handles_short_corpora():
    # four entries at distance 1 from the origin tie at every k
    rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [3.0, 0.0]]
    corpus = corpus_of_rows(rows, ids=["d", "b", "c", "a", "e"])
    block = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
    for k in range(1, 8):
        got = top_k_block(block, corpus, k)
        assert [c.entry_id for c in got[0].entries] == ["a", "b", "c", "d", "e"][:k]
        assert got[0] == got[1]
        for row, candidates in zip(block, got):
            assert candidates.short == (k > len(rows))
            assert scan_bits(candidates) == scan_bits(top_k_by_embedding(Embedding(row), corpus, k))
    with pytest.raises(DimMismatch):
        top_k_block(np.zeros((2, 3)), corpus, 1)
