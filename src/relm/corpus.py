"""Reaction datasets, the product corpus, retrieval and context assembly.

Every reader of a command's inputs (``load_dataset``, ``load_index``,
``build_index`` and ``ReactionRecord.product_key``) works through that
command's ``MoleculeTable``, so each distinct SMILES string is checked and
keyed at most once per command; ``TrainingEmbeddings`` embeds each
distinct reactant string once.  The corpus holds every known product set with a precomputed embedding.
Retrieval is exact flat search in one kernel, ``top_k_block``, over a
block of query rows.  A filter scores every entry for every row by the
expansion ``|m|^2 - 2 m.v`` (one matrix product) and keeps each entry
that its rounding-error bound cannot rule out of the row's top k.  The
refine step then computes the Euclidean distance from each kept entry's
difference to the row and orders the kept entries by (distance, entry id
in Python string order) with ``np.lexsort``, so every tie at the k-th
distance competes: the same ids and distances as ranking the whole
corpus, for each row alone.  A ``RetrievalState`` holds what one command
computes once: the training set's ``TrainingEmbeddings`` and one
candidate cache per k.  Example selection ranks the training set lazily
(``ExampleRanking``): it orders the most similar rows first and the rest
only when the context walk reads past them, and the walk scans its next
records a block at a time.  In-context examples pair a training reaction
with its own candidate list; the confidence perturbation rewrites exactly
``num_perturbed`` of them to show a wrong answer with low confidence
while the rest keep the true answer with high confidence.
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
from .molecules import EMBED_CHUNK, MoleculeTable, embed_parsed, embed_sides

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
    """One reaction: reactant SMILES, product SMILES and optional metadata.

    A record read by ``load_dataset`` or ``load_record`` keeps the molecule
    table of the command that read it, and ``product_key`` reads its keys
    there; a record made in code parses its products on each call.
    """

    id: str
    reactants: tuple[str, ...]
    products: tuple[str, ...]
    condition: str | None = None
    reaction_type: str | None = None
    iupac: dict[str, str] | None = None
    molecules: MoleculeTable | None = field(
        default=None, kw_only=True, compare=False, repr=False, metadata={"file": False}
    )

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
        if self.molecules is None:
            return molecules_key(self.product_graphs())
        return self.molecules.set_key(self.products)


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
    data: dict,
    where: str,
    molecules: MoleculeTable,
    checked: set[str],
    require_products: bool = True,
) -> ReactionRecord:
    """One record, its SMILES checked through the table unless in checked
    (the strings its file has already shown to parse)."""
    data = convert(data, dict, f"{where}: record", DatasetError)
    values = convert_fields(data, ReactionRecord, f"{where}: ", DatasetError)
    if "id" not in data:
        raise DatasetError(f"{where}: missing key 'id'")
    # the file may leave out either side; an empty iupac table is no table
    record = ReactionRecord(
        **{"reactants": (), "products": (), **values, "iupac": values.get("iupac") or None},
        molecules=molecules,
    )
    if require_products and not record.products:
        raise DatasetError(f"{where}: record {record.id!r} has no products")
    new = [s for s in (*record.reactants, *record.products) if s not in checked]
    try:
        molecules.check(new)
    except SmilesError as exc:
        raise DatasetError(
            f"{where}: record {record.id!r} has unparseable SMILES: {exc}"
        ) from exc
    checked.update(new)
    return record


def load_record(path: str | Path, require_products: bool = False) -> ReactionRecord:
    """Read a single reaction from a JSON object file.

    Products are optional here: a pure prediction query has none yet.
    """
    return _record_from_dict(
        read_json(path, DatasetError), str(path), MoleculeTable(), set(), require_products
    )


def load_dataset(path: str | Path, molecules: MoleculeTable | None = None) -> list[ReactionRecord]:
    """Read a JSONL reaction dataset, validating every record through the
    command's molecule table (a new one when none is given); each distinct
    string of the file is parsed once."""
    molecules = molecules or MoleculeTable()
    records: list[ReactionRecord] = []
    seen_ids: set[str] = set()
    checked: set[str] = set()
    for lineno, line in enumerate(read_file(path, DatasetError).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        record = _record_from_dict(
            decode_json(line, where, DatasetError), where, molecules, checked
        )
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
    # the command's molecule table that keyed the entries, for its other readers
    molecules: MoleculeTable | None = field(default=None, compare=False, repr=False)
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
    molecules: MoleculeTable | None = None,
) -> ProductCorpus:
    """Embed and deduplicate product sets into a corpus.

    Product sets with identical structural key multisets collapse into a
    single entry under the first contributing id.  Keys come from the
    command's molecule table (a new one when none is given).  The sets go
    through ``EMBED_CHUNK`` at a time: each distinct string of a chunk is
    parsed once, keyed from that parse and, when its set makes a new entry,
    embedded from it; then the chunk's graphs are dropped.
    """
    if not product_sets:
        raise EmptyCorpus("no product sets given")
    molecules = molecules or MoleculeTable()
    firsts: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = {}
    blocks: list[np.ndarray] = []
    seen_ids: set[str] = set()
    pending = iter(product_sets)
    while chunk := list(itertools.islice(pending, EMBED_CHUNK)):
        graphs: dict[str, list[MolecularGraph]] = {}
        new: list[tuple[str, tuple[str, ...]]] = []
        for set_id, smiles_list in chunk:
            if set_id in seen_ids:
                raise DatasetError(f"duplicate product set id {set_id!r}")
            seen_ids.add(set_id)
            if not smiles_list:
                raise DatasetError(f"product set {set_id!r} is empty")
            try:
                for smiles in smiles_list:
                    if smiles not in graphs:
                        graphs[smiles] = molecules.parse(smiles)
                key = molecules.set_key(smiles_list)
            except SmilesError as exc:
                raise _unparseable(set_id, exc) from exc
            if key not in firsts:
                firsts[key] = (set_id, tuple(smiles_list))
                new.append(firsts[key])
        sides = [products for _, products in new]
        try:
            blocks.append(embed_parsed(sides, graphs.__getitem__, weights, feature_cfg))
        except SmilesError:
            # an element outside the feature vocabulary: name its first set
            for set_id, products in new:
                try:
                    embed_parsed([products], graphs.__getitem__, weights, feature_cfg)
                except SmilesError as exc:
                    raise _unparseable(set_id, exc) from exc
            raise
    entries = zip(firsts.items(), np.concatenate(blocks))
    return ProductCorpus(
        entries=tuple(
            CorpusEntry(set_id, products, Embedding(row), key)
            for (key, (set_id, products)), row in entries
        ),
        fingerprint=weights.fingerprint(),
        molecules=molecules,
    )


def _unparseable(set_id: str, exc: SmilesError) -> DatasetError:
    return DatasetError(f"product set {set_id!r} has unparseable SMILES: {exc}")


def corpus_from_records(
    records: Sequence[ReactionRecord],
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    molecules: MoleculeTable | None = None,
) -> ProductCorpus:
    return build_index(
        [(r.id, r.products) for r in records], weights, feature_cfg, molecules
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
    """Exhaustive scan: the k nearest entries, ties broken by entry id."""
    return top_k_block(query.values[np.newaxis], corpus, k)[0]


def top_k_block(queries: np.ndarray, corpus: ProductCorpus, k: int) -> list[CandidateList]:
    """The scan of ``top_k_by_embedding`` for each row of a block of queries.

    One matrix product filters every entry for every row: it keeps each
    entry that the rounding-error bound cannot rule out of the row's top k
    (see ``_expansion_slack``, which holds for a sum in any order, so the
    product's order changes no result).  The refine step then ranks each
    row's shortlist by its diff-based distance and entry id, as a scan of
    that row alone would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if queries.shape[1] != corpus.dim:
        raise DimMismatch(
            f"query dim {queries.shape[1]} does not match corpus dim {corpus.dim}"
        )
    size = len(corpus.entries)
    if size <= k:
        for _ in queries if size < k else ():
            logger.info("requested k=%d but the corpus has only %d entries", k, size)
        kept = [np.arange(size)] * len(queries)
    else:
        # |m|^2 - 2 m.v for every entry and row, built in place in one array
        expanded = queries @ corpus.matrix.T
        expanded *= -2.0
        expanded += corpus.sq_norms
        radii = corpus.max_norm + np.sqrt(np.vecdot(queries, queries))
        kept = []
        for row, radius in zip(expanded, radii.tolist()):
            limit = np.partition(row, k - 1)[k - 1] + _expansion_slack(queries.shape[1], radius)
            # not (a > b), so a non-finite score keeps its entry
            kept.append(np.flatnonzero(~(row > limit)))
    entries = corpus.entries
    out = []
    for v, chosen in zip(queries, kept):
        diffs = corpus.matrix[chosen] - v
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        order = np.lexsort((corpus.id_rank[chosen], dists))[:k]
        out.append(
            CandidateList(
                entries=tuple(
                    Candidate(
                        entry_id=entries[i].entry_id,
                        distance=distance,
                        products=entries[i].products,
                        keys=entries[i].keys,
                    )
                    for i, distance in zip(chosen[order].tolist(), dists[order].tolist())
                ),
                k=k,
            )
        )
    return out


def top_k_candidates(
    query: Sequence[MolecularGraph] | Embedding,
    corpus: ProductCorpus,
    k: int,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
) -> CandidateList:
    """A query's scan, from its reactant graphs or, when the caller has
    made it already, their embedding."""
    if not isinstance(query, Embedding):
        query = embed_set(list(query), weights, feature_cfg)
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
    # streamed: json.dumps would hold the whole text, the peak of build-index
    text = itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])
    write_file(path, text, DatasetError)


def load_index(path: str | Path, molecules: MoleculeTable | None = None) -> ProductCorpus:
    """Read an index file; each entry's keys come from the command's
    molecule table (a new one when none is given)."""
    molecules = molecules or MoleculeTable()
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
            keys = molecules.set_key(products)
        except SmilesError as exc:
            raise DatasetError(f"{where}: unparseable product SMILES: {exc}") from exc
        values = convert(raw["embedding"], tuple[float, ...], f"{where}: embedding", DatasetError)
        try:
            embedding = Embedding(np.array(values, dtype=np.float64))
        except (ValueError, OverflowError) as exc:  # non-finite, or an int past float range
            raise DatasetError(f"{where}: embedding must be finite numbers: {exc}") from exc
        entries[entry_id] = CorpusEntry(entry_id, products, embedding, keys)
    if not entries:
        raise EmptyCorpus(f"{path}: index has no entries")
    return ProductCorpus(
        entries=tuple(entries.values()), fingerprint=fingerprint, molecules=molecules
    )


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
    (as ``cosine`` takes it), the rank of its record id, and the rows in id
    order, where a query finds its own rows by binary search."""

    def __init__(
        self, train: Sequence[ReactionRecord], embeddings: Sequence[Embedding] | np.ndarray
    ):
        if len(embeddings) != len(train):
            raise ValueError("one embedding per training record is required")
        if isinstance(embeddings, np.ndarray):
            self.matrix = embeddings
        else:
            if len({e.dim for e in embeddings}) > 1:
                raise DimMismatch("training embeddings mix dims")
            self.matrix = np.array([e.values for e in embeddings], dtype=np.float64)
        self.norms = np.sqrt(np.vecdot(self.matrix, self.matrix))
        # object, not str: numpy's fixed-width strings drop trailing NULs
        self.ids = np.array([r.id for r in train], dtype=object)
        self.id_rank = _rank(self.ids.tolist())
        self._by_id = np.argsort(self.id_rank)
        self._sorted_ids = self.ids[self._by_id]

    def rows_of(self, record_id: str) -> np.ndarray:
        """The rows of the records whose id is record_id."""
        first = np.searchsorted(self._sorted_ids, record_id, side="left")
        end = np.searchsorted(self._sorted_ids, record_id, side="right")
        return self._by_id[first:end]

    @classmethod
    def embed(
        cls, train: Sequence[ReactionRecord], weights: GnnWeights, feature_cfg: FeatureConfig
    ) -> TrainingEmbeddings:
        """Embed each record's reactants, each distinct string once."""
        return cls(train, embed_sides([r.reactants for r in train], weights, feature_cfg))


@dataclass(eq=False)
class RetrievalState:
    """What retrieval computes once per command, for every query, K and strategy.

    The training set's embeddings are made on the first call of
    ``embeddings()``, so a command whose strategies show no examples never
    makes them.  The same call keys the training products in the command's
    molecule table, as the context walk reads an example's product key for
    each record it examines.  Each k has one cache of training records'
    candidate lists.  Both hold pure values, so pipelines and threads share
    them without a lock.
    """

    corpus: ProductCorpus
    train: Sequence[ReactionRecord]
    weights: GnnWeights
    feature_cfg: FeatureConfig
    molecules: MoleculeTable | None = field(default=None, repr=False)
    _embeddings: TrainingEmbeddings | None = field(default=None, repr=False)
    _candidates: dict[int, dict[int, CandidateList]] = field(default_factory=dict, repr=False)

    def embeddings(self) -> TrainingEmbeddings:
        if self._embeddings is None:
            self._embeddings = TrainingEmbeddings.embed(self.train, self.weights, self.feature_cfg)
            if self.molecules is not None:
                for record in self.train:
                    self.molecules.set_key(record.products)
        return self._embeddings

    def candidate_cache(self, k: int) -> dict[int, CandidateList]:
        return self._candidates.setdefault(k, {})


RANKING_CUT = 64  # rows an example ranking orders first; each extension takes 4x as many


class _Ordering:
    """Rows by (key, id rank, row), as ``np.lexsort`` orders them, but
    ordered only as far as they are read; left-out rows are skipped."""

    def __init__(self, key: np.ndarray, id_rank: np.ndarray, left_out: set[int]):
        self.key, self.id_rank, self.left_out = key, id_rank, left_out
        self.size = len(key) - len(left_out)
        self.rows: list[int] = []
        self._cut = 0
        self._top: float | None = None  # every row keyed at most this is ordered

    def row(self, position: int) -> int:
        while position >= len(self.rows):
            self._extend()
        return self.rows[position]

    def _extend(self) -> None:
        """Order every row up to the next cut's key, ties at the cut
        included, that an earlier extension did not take."""
        key = self.key
        self._cut = max(4 * self._cut, RANKING_CUT)
        top = np.partition(key, self._cut - 1)[self._cut - 1] if self._cut < len(key) else np.nan
        # NaN sorts last, in np.partition as in np.lexsort: a NaN top takes every row left
        taken = np.ones(len(key), dtype=bool) if np.isnan(top) else key <= top
        if self._top is not None:
            taken &= ~(key <= self._top)
        picked = np.flatnonzero(taken)
        ordered = picked[np.lexsort((self.id_rank[picked], key[picked]))]
        self.rows.extend(r for r in ordered.tolist() if r not in self.left_out)
        self._top = top


class ExampleRanking(Sequence[int]):
    """Training rows from most to least cosine-similar to a query, then by
    record id and row: the order of one ``np.lexsort`` of every row, worked
    out only as far as it is read.

    The first read orders the ``RANKING_CUT`` most similar rows, widened to
    every row that ties the last of them; reading past those orders four
    times as many, and so on.  A slice is another view of the same
    ordering, so rows are ordered once however they are read.  A ranking
    compares equal to the list or tuple of the same rows.
    """

    def __init__(self, ordering: _Ordering, start: int = 0, stop: int | None = None):
        self._ordering = ordering
        self._start = start
        self._stop = ordering.size if stop is None else min(stop, ordering.size)

    def __len__(self) -> int:
        return max(self._stop - self._start, 0)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return list(self)[index]
            return ExampleRanking(self._ordering, self._start + start, self._start + stop)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("ranking index out of range")
        return self._ordering.row(self._start + index)

    def __iter__(self):
        return map(self._ordering.row, range(self._start, self._stop))

    def __eq__(self, other) -> bool:
        if isinstance(other, (ExampleRanking, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExampleRanking({list(self)!r})"


def select_examples(
    query: ReactionRecord,
    train: Sequence[ReactionRecord],
    n: int,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    train_embeddings: TrainingEmbeddings | None = None,
    query_embedding: Embedding | None = None,
) -> ExampleRanking:
    """Indices of the n training reactions most cosine-similar to the query.

    The query itself (its record id's rows) is excluded, so evaluating on
    the training set is leave-one-out by construction.  Ties break by
    record id, then index.  Each similarity is ``cosine``'s, operation for
    operation: ``np.vecdot`` sums each row as ``np.dot`` does, while a
    matrix product may sum in another order and move the ranking.  The
    ranking is lazy (``ExampleRanking``), so a large n costs only the rows
    read.  The query's reactants are embedded here unless query_embedding
    is given.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    table = train_embeddings
    if table is None:
        table = TrainingEmbeddings.embed(train, weights, feature_cfg)
    if query_embedding is None:
        query_embedding = embed_set(query.reactant_graphs(), weights, feature_cfg)
    query_values = query_embedding.values
    left_out = set(table.rows_of(query.id).tolist())
    if len(left_out) == len(table.ids):
        return ExampleRanking(_Ordering(np.empty(0), table.id_rank, set()))
    if table.matrix.shape[1] != len(query_values):
        raise DimMismatch(f"embedding dims differ: {len(query_values)} vs {table.matrix.shape[1]}")
    query_norm = float(np.sqrt(np.dot(query_values, query_values)))
    if query_norm == 0.0 or not left_out.issuperset(np.flatnonzero(table.norms == 0.0).tolist()):
        raise ZeroNormEmbedding("cosine similarity undefined for a zero vector")
    dots = np.vecdot(table.matrix, query_values)
    with np.errstate(divide="ignore", invalid="ignore"):  # a left-out row of norm 0
        similarity = dots / (query_norm * table.norms)
    return ExampleRanking(_Ordering(-similarity, table.id_rank, left_out))[:n]


SCAN_BLOCK = 16  # training rows the context walk scans in one matrix product


class _Replacements:
    """The fallback's indices that are not selected, in order: one stream
    the walk's slots share, and a look-ahead that does not move it."""

    def __init__(self, fallback: Sequence[int], selected: Sequence[int]):
        chosen = set(selected)
        self._source = (i for i in fallback if i not in chosen)
        self._read: list[int] = []
        self._next = 0

    def _fill(self, count: int) -> bool:
        while len(self._read) < count:
            index = next(self._source, None)
            if index is None:
                return False
            self._read.append(index)
        return True

    def __iter__(self):
        while self._fill(self._next + 1):
            self._next += 1
            yield self._read[self._next - 1]

    def ahead(self):
        position = self._next
        while self._fill(position + 1):
            yield self._read[position]
            position += 1


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
    when not given.  When the walk meets a record with no candidate list,
    one ``top_k_block`` call scans it with the next unexamined records of
    its walk order (later slots' own picks, then the fallback), up to
    ``SCAN_BLOCK`` rows.  Lists made ahead stay in this call: only the
    records the walk examines enter ``candidate_cache``.
    """
    table = train_embeddings
    if table is None:
        table = TrainingEmbeddings.embed(train, weights, feature_cfg)
    cache = {} if candidate_cache is None else candidate_cache
    scanned_ahead: dict[int, CandidateList] = {}
    examples: list[InContextExample] = []
    used: set[int] = set()
    replacements = _Replacements(fallback, selected)
    stream = iter(replacements)
    skipped: list[str] = []
    for slot, idx in enumerate(selected):
        for current in itertools.chain([idx], stream):
            if current in used:
                continue
            used.add(current)
            candidates = cache.get(current)
            if candidates is None:
                candidates = scanned_ahead.pop(current, None)
            if candidates is None:
                block = [current]
                for later in itertools.chain(
                    itertools.islice(selected, slot + 1, None), replacements.ahead()
                ):
                    if len(block) == SCAN_BLOCK:
                        break
                    if not (later in used or later in cache or later in scanned_ahead or later in block):
                        block.append(later)
                candidates, *more = top_k_block(table.matrix[block], corpus, k)
                scanned_ahead.update(zip(block[1:], more))
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
