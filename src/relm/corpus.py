"""Reaction datasets, the product corpus, retrieval and context assembly.

The corpus holds every known product set with a precomputed embedding.
Retrieval is exact flat search in one kernel, ``top_k_by_embedding``.
A filter scores every entry by the expansion ``|m|^2 - 2 m.v`` (one
matrix-vector product) and keeps each entry that its rounding-error bound
cannot rule out of the top k.  The refine step then computes the
Euclidean distance from each kept entry's difference to the query and
orders the kept entries by (distance, entry id in Python string order)
with ``np.lexsort``, so every tie at the k-th distance competes: the
same ids and distances as ranking the whole corpus.  A
``RetrievalState`` holds what one command computes once: the training
set's ``TrainingEmbeddings`` and one candidate cache per k.  In-context
examples pair a training reaction with its own candidate list; the
confidence perturbation rewrites exactly ``num_perturbed`` of them to
show a wrong answer with low confidence while the rest keep the true
answer with high confidence.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .encoder import Embedding, GnnWeights, embed_set
from .loading import convert, convert_fields, decode_json, read_file, read_json, write_file
from .molgraph import FeatureConfig, MolecularGraph, SmilesError, parse_smiles
from .molgraph.canonical import canonical_key

logger = logging.getLogger(__name__)


class DimMismatch(ValueError):
    """Raised when embeddings of different dimension are combined."""


class EmptyCorpus(ValueError):
    """Raised when an index would contain no entries."""


class ZeroNormEmbedding(ValueError):
    """Raised when cosine similarity meets a zero-length vector."""


class GroundTruthNotInTopK(RuntimeError):
    """Raised when no usable in-context example candidates remain."""


class NotEnoughCandidates(ValueError):
    """Raised when a perturbed example has no wrong candidate to show."""


class FingerprintMismatch(RuntimeError):
    """Raised when an index was built by different weights."""


class DatasetError(ValueError):
    """Raised for malformed dataset or index files."""


# ---- reaction records ----


@dataclass(frozen=True)
class ReactionRecord:
    """One reaction: reactant SMILES, product SMILES and optional metadata."""

    id: str
    reactants: tuple[str, ...]
    products: tuple[str, ...]
    condition: str | None = None
    reaction_type: str | None = None
    iupac: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DatasetError("record id must be non-empty")
        if not self.reactants:
            raise DatasetError(f"record {self.id!r} has no reactants")

    def reactant_graphs(self) -> list[MolecularGraph]:
        return parse_side(self.reactants)

    def product_graphs(self) -> list[MolecularGraph]:
        return parse_side(self.products)

    def product_key(self) -> tuple[str, ...]:
        return molecules_key(self.product_graphs())


def parse_side(smiles_list: Sequence[str]) -> list[MolecularGraph]:
    """Parse one reaction side, flattening dot-separated fragments."""
    graphs: list[MolecularGraph] = []
    for smiles in smiles_list:
        graphs.extend(parse_smiles(smiles))
    return graphs


def molecules_key(graphs: Sequence[MolecularGraph]) -> tuple[str, ...]:
    """Sorted multiset of structural keys identifying a molecule set."""
    return tuple(sorted(canonical_key(g) for g in graphs))


def _record_from_dict(
    data: dict, where: str, require_products: bool = True
) -> ReactionRecord:
    data = convert(data, dict, f"{where}: record", DatasetError)
    values = convert_fields(data, ReactionRecord, f"{where}: ", DatasetError)
    if "id" not in data:
        raise DatasetError(f"{where}: missing key 'id'")
    # the file may leave out either side; an empty iupac table is no table
    record = ReactionRecord(
        **{"reactants": (), "products": (), **values, "iupac": values.get("iupac") or None}
    )
    if require_products and not record.products:
        raise DatasetError(f"{where}: record {record.id!r} has no products")
    try:
        record.reactant_graphs()
        record.product_graphs()
    except SmilesError as exc:
        raise DatasetError(
            f"{where}: record {record.id!r} has unparseable SMILES: {exc}"
        ) from exc
    return record


def load_record(path: str | Path, require_products: bool = False) -> ReactionRecord:
    """Read a single reaction from a JSON object file.

    Products are optional here: a pure prediction query has none yet.
    """
    return _record_from_dict(read_json(path, DatasetError), str(path), require_products)


def load_dataset(path: str | Path) -> list[ReactionRecord]:
    """Read a JSONL reaction dataset, validating every record."""
    records: list[ReactionRecord] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_file(path, DatasetError).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        record = _record_from_dict(decode_json(line, where, DatasetError), where)
        if record.id in seen_ids:
            raise DatasetError(f"{where}: duplicate record id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    if not records:
        raise DatasetError(f"{path}: dataset is empty")
    return records


def save_dataset(records: Sequence[ReactionRecord], path: str | Path) -> None:
    lines = []
    for r in records:
        data: dict = {"id": r.id, "reactants": list(r.reactants), "products": list(r.products)}
        if r.condition is not None:
            data["condition"] = r.condition
        if r.reaction_type is not None:
            data["reaction_type"] = r.reaction_type
        if r.iupac:
            data["iupac"] = dict(sorted(r.iupac.items()))
        lines.append(json.dumps(data, sort_keys=True))
    write_file(path, "\n".join(lines) + "\n", DatasetError)


# ---- embeddings and the corpus ----


def cosine(a: Embedding, b: Embedding) -> float:
    if a.dim != b.dim:
        raise DimMismatch(f"embedding dims differ: {a.dim} vs {b.dim}")
    norm_a = float(np.sqrt(np.dot(a.values, a.values)))
    norm_b = float(np.sqrt(np.dot(b.values, b.values)))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroNormEmbedding("cosine similarity undefined for a zero vector")
    return float(np.dot(a.values, b.values) / (norm_a * norm_b))


def _rank(keys: Sequence[str]) -> np.ndarray:
    """Each key's position in sorted order; equal keys keep their input order."""
    rank = np.empty(len(keys), dtype=np.intp)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return rank


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    products: tuple[str, ...]
    embedding: Embedding
    keys: tuple[str, ...]


@dataclass
class ProductCorpus:
    entries: tuple[CorpusEntry, ...]
    fingerprint: str
    # the scan's inputs, made once: the embeddings, each entry's squared
    # norm, the largest norm and each entry's rank in id order
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, repr=False, compare=False)
    id_rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise EmptyCorpus("a product corpus needs at least one entry")
        dims = {e.embedding.dim for e in self.entries}
        if len(dims) != 1:
            raise DimMismatch(f"corpus entries mix embedding dims {sorted(dims)}")
        self.matrix = np.stack([e.embedding.values for e in self.entries])
        self.sq_norms = np.vecdot(self.matrix, self.matrix)
        self.max_norm = float(np.sqrt(self.sq_norms.max()))
        self.id_rank = _rank([e.entry_id for e in self.entries])

    @property
    def dim(self) -> int:
        return self.entries[0].embedding.dim

    def key_set(self) -> set[tuple[str, ...]]:
        return {e.keys for e in self.entries}


@dataclass(frozen=True)
class Candidate:
    entry_id: str
    distance: float
    products: tuple[str, ...]
    keys: tuple[str, ...]


@dataclass(frozen=True)
class CandidateList:
    entries: tuple[Candidate, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.entries) > self.k:
            raise ValueError("more candidates than requested")

    @property
    def short(self) -> bool:
        """True when the corpus had fewer than k entries."""
        return len(self.entries) < self.k

    def position_of_key(self, key: tuple[str, ...]) -> int | None:
        for idx, candidate in enumerate(self.entries):
            if candidate.keys == key:
                return idx
        return None


def build_index(
    product_sets: Sequence[tuple[str, Sequence[str]]],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
) -> ProductCorpus:
    """Embed and deduplicate product sets into a corpus.

    Product sets with identical structural key multisets collapse into a
    single entry under the first contributing id.
    """
    if not product_sets:
        raise EmptyCorpus("no product sets given")
    by_key: dict[tuple[str, ...], CorpusEntry] = {}
    seen_ids: set[str] = set()
    for set_id, smiles_list in product_sets:
        if set_id in seen_ids:
            raise DatasetError(f"duplicate product set id {set_id!r}")
        seen_ids.add(set_id)
        if not smiles_list:
            raise DatasetError(f"product set {set_id!r} is empty")
        try:
            graphs = parse_side(smiles_list)
        except SmilesError as exc:
            raise DatasetError(
                f"product set {set_id!r} has unparseable SMILES: {exc}"
            ) from exc
        key = molecules_key(graphs)
        if key not in by_key:
            embedding = embed_set(graphs, weights, feature_cfg)
            by_key[key] = CorpusEntry(set_id, tuple(smiles_list), embedding, key)
    return ProductCorpus(entries=tuple(by_key.values()), fingerprint=weights.fingerprint())


def corpus_from_records(
    records: Sequence[ReactionRecord],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
) -> ProductCorpus:
    return build_index(
        [(r.id, r.products) for r in records], weights, feature_cfg
    )


def check_fingerprint(corpus: ProductCorpus, weights: GnnWeights) -> None:
    if corpus.fingerprint != weights.fingerprint():
        raise FingerprintMismatch(
            "the index was built with different weights; rebuild it"
        )


def _expansion_slack(dim: int, radius: float) -> float:
    """How far above the k-th smallest expansion an entry may score and
    still be among the k nearest by the diff-based distance.

    Let D be the diff-based squared distance the refine step computes,
    fl(sum_j fl(fl(m_j - v_j)^2)), and e = fl(fl(|m|^2) - 2 fl(m.v)) the
    expansion, with T = |m - v|^2 and X = (|m| + |v|)^2 >= T.  A dot
    product of length d summed in any order, BLAS's included, is off by
    at most gamma_d * sum_j |a_j b_j|, where gamma_d = d*u / (1 - d*u) and
    u = 2^-53 (Higham 2002, section 3.1).  D's terms are non-negative and
    each carries at most d + 1 roundings, so |D - T| <= gamma_{d+1} T.
    With |m.v| <= |m||v| and one rounding in the subtraction,
    |e + |v|^2 - T| <= (gamma_d + u(1 + gamma_d)) X.  So each entry has
    |e + |v|^2 - D| <= beta = ((2d + 2)u + O(d^2 u^2)) X, and the k-th
    smallest D is at most e_(k) + |v|^2 + beta, e_(k) being the k-th
    smallest e.  The refine step compares distances after a correctly
    rounded sqrt, so an entry that ties the k-th distance there has D up
    to (1 + 5u) times the k-th smallest D.  Every entry the refine step
    can return therefore has e <= e_(k) + 2 beta + 5u X
    = e_(k) + ((4d + 9)u + O(d^2 u^2)) X.  The factor (4d + 16)u leaves
    7u X for the rounding of this slack, of e_(k) + slack and of the
    stored norms in ``radius`` = max |m| + |v|.  ``tiny`` covers the
    absolute error of products that underflow.
    """
    unit = np.finfo(np.float64).eps / 2
    return (4 * dim + 16) * unit * (radius * radius + np.finfo(np.float64).tiny)


def top_k_by_embedding(query: Embedding, corpus: ProductCorpus, k: int) -> CandidateList:
    """Exhaustive scan: the k nearest entries, ties broken by entry id.

    A filter over every entry keeps a shortlist that provably holds every
    entry within the k-th diff-based distance (see ``_expansion_slack``);
    the refine step ranks that shortlist only.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query.dim != corpus.dim:
        raise DimMismatch(
            f"query dim {query.dim} does not match corpus dim {corpus.dim}"
        )
    v = query.values
    chosen = np.arange(len(corpus.entries))
    if len(chosen) < k:
        logger.info(
            "requested k=%d but the corpus has only %d entries", k, len(chosen)
        )
    elif len(chosen) > k:
        expanded = corpus.sq_norms - 2.0 * (corpus.matrix @ v)
        radius = corpus.max_norm + float(np.sqrt(np.vecdot(v, v)))
        limit = np.partition(expanded, k - 1)[k - 1] + _expansion_slack(len(v), radius)
        # not (a > b), so a non-finite score keeps its entry
        chosen = np.flatnonzero(~(expanded > limit))
    diffs = corpus.matrix[chosen] - v
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.lexsort((corpus.id_rank[chosen], dists))[:k]
    chosen, dists = chosen[order], dists[order]
    entries = corpus.entries
    return CandidateList(
        entries=tuple(
            Candidate(
                entry_id=entries[i].entry_id,
                distance=distance,
                products=entries[i].products,
                keys=entries[i].keys,
            )
            for i, distance in zip(chosen.tolist(), dists.tolist())
        ),
        k=k,
    )


def top_k_candidates(
    reactants: Sequence[MolecularGraph],
    corpus: ProductCorpus,
    k: int,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
) -> CandidateList:
    query = embed_set(list(reactants), weights, feature_cfg)
    return top_k_by_embedding(query, corpus, k)


# ---- index persistence ----


def save_index(corpus: ProductCorpus, path: str | Path) -> None:
    payload = {
        "fingerprint": corpus.fingerprint,
        "entries": [
            {
                "id": e.entry_id,
                "products": list(e.products),
                "embedding": [float(v) for v in e.embedding.values],
            }
            for e in corpus.entries
        ],
    }
    write_file(path, json.dumps(payload, indent=2) + "\n", DatasetError)


def load_index(path: str | Path) -> ProductCorpus:
    payload = convert(read_json(path, DatasetError), dict, f"{path}: index", DatasetError)
    if set(payload) != {"fingerprint", "entries"}:
        raise DatasetError(f"{path}: index must have 'fingerprint' and 'entries'")
    fingerprint = convert(payload["fingerprint"], str, f"{path}: fingerprint", DatasetError)
    raw_entries = convert(payload["entries"], list, f"{path}: entries", DatasetError)
    entries: dict[str, CorpusEntry] = {}
    for idx, raw in enumerate(raw_entries):
        where = f"{path}: entry {idx}"
        if not isinstance(raw, dict) or set(raw) != {"id", "products", "embedding"}:
            raise DatasetError(f"{where}: needs exactly id, products, embedding")
        entry_id = convert(raw["id"], str, f"{where}: id", DatasetError)
        if entry_id in entries:
            raise DatasetError(f"{where}: duplicate entry id {entry_id!r}")
        products = convert(raw["products"], tuple[str, ...], f"{where}: products", DatasetError)
        if not products:
            raise DatasetError(f"{where}: products must be a non-empty list")
        try:
            graphs = parse_side(products)
        except SmilesError as exc:
            raise DatasetError(f"{where}: unparseable product SMILES: {exc}") from exc
        values = convert(raw["embedding"], tuple[float, ...], f"{where}: embedding", DatasetError)
        try:
            embedding = Embedding(np.array(values, dtype=np.float64))
        except (ValueError, OverflowError) as exc:  # non-finite, or an int past float range
            raise DatasetError(f"{where}: embedding must be finite numbers: {exc}") from exc
        entries[entry_id] = CorpusEntry(entry_id, products, embedding, molecules_key(graphs))
    if not entries:
        raise EmptyCorpus(f"{path}: index has no entries")
    return ProductCorpus(entries=tuple(entries.values()), fingerprint=fingerprint)


# ---- in-context examples ----


@dataclass(frozen=True)
class InContextExample:
    """A solved reaction shown to the model, with its own candidates."""

    record: ReactionRecord
    candidates: CandidateList
    shown_answer: int
    confidence: int | None = None
    perturbed: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.shown_answer < len(self.candidates.entries)):
            raise ValueError("shown_answer is out of range")
        if self.confidence is not None and not (1 <= self.confidence <= 9):
            raise ValueError("confidence must be in 1..9")
        truth = self.record.product_key()
        shown = self.candidates.entries[self.shown_answer].keys
        if self.perturbed and shown == truth:
            raise ValueError("a perturbed example must show a wrong answer")
        if not self.perturbed and shown != truth:
            raise ValueError("an unperturbed example must show the true answer")


@dataclass(frozen=True)
class CssConfig:
    """Confidence perturbation settings.

    Exactly num_perturbed examples get a wrong answer with a confidence
    drawn from low_set; all others keep the truth with a draw from
    high_set.
    """

    high_set: tuple[int, ...] = (8, 9)
    low_set: tuple[int, ...] = (1, 2)
    num_perturbed: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "high_set", tuple(sorted(self.high_set)))
        object.__setattr__(self, "low_set", tuple(sorted(self.low_set)))
        for name, values in (("high_set", self.high_set), ("low_set", self.low_set)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if not all(isinstance(v, int) and 1 <= v <= 9 for v in values):
                raise ValueError(f"{name} must contain integers in 1..9")
        if set(self.high_set) & set(self.low_set):
            raise ValueError("high_set and low_set must be disjoint")
        if self.num_perturbed < 0:
            raise ValueError("num_perturbed must be >= 0")


class TrainingEmbeddings:
    """A training set's reactant embeddings as one matrix, row i for record
    i, with what select_examples needs of each row computed once: its norm
    (as ``cosine`` takes it) and the rank of its record id."""

    def __init__(self, train: Sequence[ReactionRecord], embeddings: Sequence[Embedding]):
        if len(embeddings) != len(train):
            raise ValueError("one embedding per training record is required")
        if len({e.dim for e in embeddings}) > 1:
            raise DimMismatch("training embeddings mix dims")
        self.matrix = np.array([e.values for e in embeddings], dtype=np.float64)
        self.norms = np.sqrt(np.vecdot(self.matrix, self.matrix))
        # object, not str: numpy's fixed-width strings drop trailing NULs
        self.ids = np.array([r.id for r in train], dtype=object)
        self.id_rank = _rank(self.ids.tolist())

    @classmethod
    def embed(
        cls, train: Sequence[ReactionRecord], weights: GnnWeights, feature_cfg: FeatureConfig
    ) -> TrainingEmbeddings:
        return cls(train, [embed_set(r.reactant_graphs(), weights, feature_cfg) for r in train])


@dataclass(eq=False)
class RetrievalState:
    """What retrieval computes once per command, for every query, K and strategy.

    The training set's embeddings are made on the first call of
    ``embeddings()``, so a command whose strategies show no examples never
    makes them.  Each k has one cache of training records' candidate
    lists.  Both hold pure values, so pipelines and threads share them
    without a lock.
    """

    corpus: ProductCorpus
    train: Sequence[ReactionRecord]
    weights: GnnWeights
    feature_cfg: FeatureConfig
    _embeddings: TrainingEmbeddings | None = field(default=None, repr=False)
    _candidates: dict[int, dict[int, CandidateList]] = field(default_factory=dict, repr=False)

    def embeddings(self) -> TrainingEmbeddings:
        if self._embeddings is None:
            self._embeddings = TrainingEmbeddings.embed(self.train, self.weights, self.feature_cfg)
        return self._embeddings

    def candidate_cache(self, k: int) -> dict[int, CandidateList]:
        return self._candidates.setdefault(k, {})


def select_examples(
    query: ReactionRecord,
    train: Sequence[ReactionRecord],
    n: int,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    train_embeddings: TrainingEmbeddings | None = None,
) -> list[int]:
    """Indices of the n training reactions most cosine-similar to the query.

    The query itself (matched by record id) is excluded, so evaluating on
    the training set is leave-one-out by construction.  Ties break by
    record id, then index.  Each similarity is ``cosine``'s, operation for
    operation: ``np.vecdot`` sums each row as ``np.dot`` does, while a
    matrix product may sum in another order and move the ranking.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    table = train_embeddings
    if table is None:
        table = TrainingEmbeddings.embed(train, weights, feature_cfg)
    query_values = embed_set(query.reactant_graphs(), weights, feature_cfg).values
    rows = np.flatnonzero(table.ids != query.id)
    if not len(rows):
        return []
    if table.matrix.shape[1] != len(query_values):
        raise DimMismatch(f"embedding dims differ: {len(query_values)} vs {table.matrix.shape[1]}")
    query_norm = float(np.sqrt(np.dot(query_values, query_values)))
    norms = table.norms[rows]
    if query_norm == 0.0 or not norms.all():
        raise ZeroNormEmbedding("cosine similarity undefined for a zero vector")
    dots = np.vecdot(table.matrix, query_values)
    similarity = dots[rows] / (query_norm * norms)
    order = np.lexsort((table.id_rank[rows], -similarity))
    return rows[order[:n]].tolist()


def build_context(
    selected: Sequence[int],
    train: Sequence[ReactionRecord],
    corpus: ProductCorpus,
    k: int,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    fallback: Sequence[int] = (),
    candidate_cache: dict[int, CandidateList] | None = None,
    train_embeddings: TrainingEmbeddings | None = None,
) -> list[InContextExample]:
    """Assemble in-context examples whose truth survives their own top-k.

    A selected reaction whose true product misses its candidate list is
    replaced, in its slot, by the next unused index from ``fallback`` (the
    continuation of the similarity ranking); each substitution is logged.
    Exhausting the fallback raises GroundTruthNotInTopK.  A record's
    candidates come from its row of ``train_embeddings``, embedded here
    when not given.
    """
    table = train_embeddings
    if table is None:
        table = TrainingEmbeddings.embed(train, weights, feature_cfg)
    cache = {} if candidate_cache is None else candidate_cache
    examples: list[InContextExample] = []
    used: set[int] = set()
    chosen = set(selected)
    replacements = (i for i in fallback if i not in chosen)
    skipped: list[str] = []
    for idx in selected:
        for current in itertools.chain([idx], replacements):
            if current in used:
                continue
            used.add(current)
            candidates = cache.get(current)
            if candidates is None:
                candidates = top_k_by_embedding(Embedding(table.matrix[current]), corpus, k)
                cache[current] = candidates
            position = candidates.position_of_key(train[current].product_key())
            if position is not None:
                examples.append(
                    InContextExample(
                        record=train[current],
                        candidates=candidates,
                        shown_answer=position,
                    )
                )
                break
            skipped.append(train[current].id)
            logger.info(
                "record %s dropped from context: truth not in its top-%d",
                train[current].id,
                k,
            )
        else:
            raise GroundTruthNotInTopK(
                "could not build the requested context; records without "
                f"their truth in top-{k}: {skipped}"
            )
    return examples


def perturb_context(
    examples: Sequence[InContextExample], css: CssConfig
) -> list[InContextExample]:
    """Apply the confidence perturbation; a new list, inputs untouched."""
    if len(examples) < 2:
        raise ValueError("perturbation needs at least two examples")
    if css.num_perturbed > len(examples):
        raise ValueError("cannot perturb more examples than exist")
    for example in examples:
        if len(example.candidates.entries) < 2:
            raise NotEnoughCandidates(
                f"example {example.record.id!r} has fewer than two candidates"
            )
    rng = random.Random(css.seed)
    perturbed_positions = set(rng.sample(range(len(examples)), css.num_perturbed))
    out: list[InContextExample] = []
    for position, example in enumerate(examples):
        truth = example.record.product_key()
        if position in perturbed_positions:
            wrong = [
                idx
                for idx, candidate in enumerate(example.candidates.entries)
                if candidate.keys != truth
            ]
            if not wrong:
                raise NotEnoughCandidates(
                    f"example {example.record.id!r} has no wrong candidate"
                )
            out.append(
                replace(
                    example,
                    shown_answer=rng.choice(wrong),
                    confidence=rng.choice(css.low_set),
                    perturbed=True,
                )
            )
        else:
            out.append(replace(example, confidence=rng.choice(css.high_set)))
    return out
