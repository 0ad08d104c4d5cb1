"""Scoring and analysis: accuracy, retrieval ceilings, rank correlation,
confidence splits and report serialization.  ``mes_vote`` lives with the
pipeline that votes and is importable from here too.

Aggregations are single-threaded over pre-collected outcomes; report
rows are ordered by sample id so concurrent collection upstream cannot
change any emitted byte.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import string
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DatasetError, ProductCorpus, ReactionRecord, RetrievalState, top_k_candidates
from .encoder import GnnWeights
from .lmclient import BackendConfig, Pipeline, PredictionResult, mes_vote, run_dataset
from .loading import InputError, write_file
from .molgraph import FeatureConfig
from .prompt import PromptConfig, SchemaConflict, Strategy, TemplateSet


class MissingGroundTruth(InputError, ValueError):
    """A query's true product set is not in the corpus (or not given)."""

    def __init__(self, message: str, ids: Sequence[str] = ()):
        self.ids = tuple(ids)
        super().__init__(message)


class DegenerateRanks(ValueError):
    """A rank vector is constant; correlation is undefined."""


class ReportError(InputError, ValueError):
    """A report or table file cannot be written."""


# ---- per-sample outcomes ----


@dataclass(frozen=True)
class SampleOutcome:
    """One scored prediction; the row type behind every report."""

    id: str
    correct: bool
    gnn_rank_of_truth: int | None
    final_choice_id: str
    choice: int
    confidence: int | None
    per_candidate_scores: tuple[int, ...] | None
    parse_status: str
    latency_ms: int
    token_estimate: int
    fell_back: bool = False

    def __post_init__(self) -> None:
        if self.choice < 0:
            raise ValueError("choice must be a candidate index")
        if self.gnn_rank_of_truth is not None and self.gnn_rank_of_truth < 1:
            raise ValueError("ranks are 1-based")


def outcome_from_prediction(
    result: PredictionResult, truth_key: tuple[str, ...] | None
) -> SampleOutcome:
    """Score one prediction: correct iff the chosen entry's structural
    key multiset equals the ground truth's."""
    return SampleOutcome(
        id=result.query_id,
        correct=truth_key is not None and result.final_keys == truth_key,
        gnn_rank_of_truth=result.gnn_rank_of_truth,
        final_choice_id=result.final_choice_id,
        choice=result.final_rank,
        confidence=result.parsed.confidence,
        per_candidate_scores=result.scores_by_rank,
        parse_status=result.parsed.parse_status.value,
        latency_ms=result.latency_ms,
        token_estimate=result.token_estimate,
        fell_back=result.fell_back,
    )


# ---- core metrics ----


def accuracy(outcomes: Sequence[SampleOutcome]) -> float:
    if not outcomes:
        raise ValueError("accuracy needs at least one outcome")
    return sum(1 for o in outcomes if o.correct) / len(outcomes)


def check_ground_truth(
    records: Sequence[ReactionRecord], corpus: ProductCorpus
) -> None:
    """Raise MissingGroundTruth naming every record whose true product
    set is not given or not in the corpus."""
    keys = corpus.key_set()
    missing = [r.id for r in records if not r.products or r.product_key() not in keys]
    if missing:
        raise MissingGroundTruth(
            f"ground truth absent from the corpus for: {missing}", missing
        )


def check_prompt(
    prompt: PromptConfig,
    corpus: ProductCorpus,
    train: Sequence[ReactionRecord],
    queries: Sequence[ReactionRecord],
) -> None:
    """Fail before any query when a prompt config cannot run: more
    candidates than letter labels, or CSS that cannot show and perturb
    enough examples because the config's n is too small, or the training
    set is."""
    shown = min(prompt.k, len(corpus.entries))
    if shown > len(string.ascii_uppercase):
        raise SchemaConflict(f"{shown} candidates exceed the letter labels")
    if not prompt.strategy.shows_confidence:
        return
    if prompt.n < 2 or prompt.css.num_perturbed > prompt.n:
        raise SchemaConflict(
            f"{prompt.strategy.label} needs n >= 2 and css num_perturbed <= n"
        )
    train_ids = {r.id for r in train}
    usable = len(train) - any(q.id in train_ids for q in queries)  # a query is never its own example
    needed = max(2, prompt.css.num_perturbed)
    if min(prompt.n, usable) < needed:
        raise DatasetError(
            f"{prompt.strategy.label} needs {needed} in-context examples per query, but "
            f"n={prompt.n} and the training set has {usable} usable example record(s)"
        )


def hit_at_k(
    records: Sequence[ReactionRecord],
    corpus: ProductCorpus,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    k: int,
) -> float:
    """Fraction of queries whose true product set survives retrieval top-k.

    Every record must carry a ground truth that exists in the corpus;
    this is the ceiling no re-ranking stage can exceed.
    """
    if not records:
        raise ValueError("hit_at_k needs at least one record")
    check_ground_truth(records, corpus)
    hits = 0
    for record in records:
        candidates = top_k_candidates(
            record.reactant_graphs(), corpus, k, weights, feature_cfg
        )
        if candidates.position_of_key(record.product_key()) is not None:
            hits += 1
    return hits / len(records)


def _fractional_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1  # positions are 0-based, ranks 1-based
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of fractional ranks."""
    if len(x) != len(y):
        raise ValueError("rank vectors must have equal length")
    if len(x) < 2:
        raise ValueError("need at least two points")
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise DegenerateRanks("a constant vector has no rank ordering")
    rx = np.array(_fractional_ranks(x))
    ry = np.array(_fractional_ranks(y))
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float((dx * dy).sum() / np.sqrt((dx**2).sum() * (dy**2).sum()))


@dataclass(frozen=True)
class RankCorrelationReport:
    """Mean per-sample Spearman between LM scores and retrieval order,
    split by whether retrieval already had the truth at rank 1."""

    rho: float | None
    rho_plus: float | None
    rho_minus: float | None
    n: int
    n_plus: int
    n_minus: int
    excluded: int

    def __post_init__(self) -> None:
        if self.n != self.n_plus + self.n_minus:
            raise ValueError("split counts must partition n")
        for value in (self.rho, self.rho_plus, self.rho_minus):
            if value is not None and not -1.0 - 1e-12 <= value <= 1.0 + 1e-12:
                raise ValueError("correlations live in [-1, 1]")


def rank_correlation_report(
    outcomes: Sequence[SampleOutcome],
) -> RankCorrelationReport:
    """Per-sample correlation between the LM's per-candidate scores and
    the retrieval ordering (higher score should mean closer candidate).

    Samples whose score vector is constant (or shorter than two) cannot
    be correlated; they are excluded and counted.
    """
    scored = [o for o in outcomes if o.per_candidate_scores is not None]
    if not scored:
        raise ValueError("no outcomes carry per-candidate scores")
    plus: list[float] = []
    minus: list[float] = []
    excluded = 0
    for outcome in scored:
        scores = outcome.per_candidate_scores
        if len(scores) < 2:
            excluded += 1
            continue
        gnn_ranks = list(range(1, len(scores) + 1))
        try:
            rho = spearman(gnn_ranks, [-s for s in scores])
        except DegenerateRanks:
            excluded += 1
            continue
        if outcome.gnn_rank_of_truth == 1:
            plus.append(rho)
        else:
            minus.append(rho)
    both = plus + minus
    return RankCorrelationReport(
        rho=statistics.fmean(both) if both else None,
        rho_plus=statistics.fmean(plus) if plus else None,
        rho_minus=statistics.fmean(minus) if minus else None,
        n=len(both),
        n_plus=len(plus),
        n_minus=len(minus),
        excluded=excluded,
    )


# ---- confidence analyses ----


@dataclass(frozen=True)
class SideStats:
    count: int
    accuracy: float
    stdev: float


@dataclass(frozen=True)
class ConfidenceSplit:
    threshold: int
    high: SideStats | None
    low: SideStats | None


def _side_stats(flags: list[bool]) -> SideStats | None:
    if not flags:
        return None
    indicator = [1.0 if f else 0.0 for f in flags]
    spread = statistics.stdev(indicator) if len(indicator) > 1 else 0.0
    return SideStats(
        count=len(flags), accuracy=sum(indicator) / len(flags), stdev=spread
    )


def confidence_split(
    outcomes: Sequence[SampleOutcome], threshold: int = 7
) -> ConfidenceSplit:
    """Accuracy on high-confidence (>= threshold) vs low-confidence
    samples; an empty side is reported as absent, not an error.  The
    spread is the sample standard deviation of the correct indicator."""
    if not 1 <= threshold <= 9:
        raise ValueError("threshold must be in 1..9")
    high = [o.correct for o in outcomes if o.confidence is not None and o.confidence >= threshold]
    low = [o.correct for o in outcomes if o.confidence is not None and o.confidence < threshold]
    return ConfidenceSplit(
        threshold=threshold, high=_side_stats(high), low=_side_stats(low)
    )


def confidence_histogram(
    outcomes: Sequence[SampleOutcome],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two 9-bin vectors (correct, incorrect); bin i counts confidence i+1."""
    correct = [0] * 9
    incorrect = [0] * 9
    for outcome in outcomes:
        if outcome.confidence is None:
            continue
        bins = correct if outcome.correct else incorrect
        bins[outcome.confidence - 1] += 1
    return tuple(correct), tuple(incorrect)


# ---- reports ----


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    hit_at_k: float
    k: int
    mean_tokens: float
    mean_latency_ms: float
    parse_failure_rate: float
    outcomes: tuple[SampleOutcome, ...]
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.accuracy > self.hit_at_k + 1e-12:
            raise ValueError(
                "re-ranking cannot beat its retrieval ceiling: "
                f"accuracy {self.accuracy} > hit@{self.k} {self.hit_at_k}"
            )


def build_report(
    results: Sequence[PredictionResult],
    records: Sequence[ReactionRecord],
    corpus: ProductCorpus,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    k: int,
    config: dict | None = None,
) -> EvalReport:
    if len(results) != len(records):
        raise ValueError("one result per record is required")
    ceiling = hit_at_k(records, corpus, weights, feature_cfg, k)
    outcomes = sorted(
        (
            outcome_from_prediction(res, rec.product_key())
            for res, rec in zip(results, records)
        ),
        key=lambda o: o.id,
    )
    return EvalReport(
        accuracy=accuracy(outcomes),
        hit_at_k=ceiling,
        k=k,
        mean_tokens=statistics.fmean(o.token_estimate for o in outcomes),
        mean_latency_ms=statistics.fmean(o.latency_ms for o in outcomes),
        parse_failure_rate=sum(o.parse_status == "failed" for o in outcomes)
        / len(outcomes),
        outcomes=tuple(outcomes),
        config=dict(config or {}),
    )


CSV_COLUMNS = (
    "id",
    "correct",
    "gnn_rank_of_truth",
    "choice",
    "confidence",
    "parse_status",
    "latency_ms",
    "tokens",
)


def _write_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_file(path, text.getvalue(), ReportError)


def write_outcomes_csv(outcomes: Sequence[SampleOutcome], path: str | Path) -> None:
    """One row per sample; column order is part of the file format."""
    _write_csv(
        [CSV_COLUMNS]
        + [
            [
                o.id,
                "true" if o.correct else "false",
                "" if o.gnn_rank_of_truth is None else o.gnn_rank_of_truth,
                o.choice,
                "" if o.confidence is None else o.confidence,
                o.parse_status,
                o.latency_ms,
                o.token_estimate,
            ]
            for o in outcomes
        ],
        path,
    )


def write_report_json(report: EvalReport, path: str | Path) -> None:
    """All report fields; each outcome's token_estimate is named "tokens"."""
    data = asdict(report)
    for outcome in data["outcomes"]:
        outcome["tokens"] = outcome.pop("token_estimate")
    write_file(path, json.dumps(data, indent=2, sort_keys=True) + "\n", ReportError)


# ---- prompt grids ----


def prompt_pipelines(
    queries: Sequence[ReactionRecord], train: Sequence[ReactionRecord], corpus: ProductCorpus,
    weights: GnnWeights, feature_cfg: FeatureConfig, prompts: Sequence[PromptConfig],
    backend_cfg: BackendConfig, *, iupac_table: dict[str, str] | None,
    templates: TemplateSet | None, seed: int,
) -> list[Pipeline]:
    """One pipeline per prompt config, each with its own backend, all on
    one retrieval state; every config is checked against the queries
    before any pipeline is made or any query runs."""
    for prompt in prompts:
        check_prompt(prompt, corpus, train, queries)
    state = RetrievalState(corpus, train, weights, feature_cfg)
    return [
        Pipeline(
            corpus, train, weights, feature_cfg, prompt, backend_cfg,
            iupac_table=iupac_table, templates=templates, seed=seed, state=state,
        )
        for prompt in prompts
    ]


@dataclass(frozen=True)
class StrategyRow:
    strategy: str
    accuracy: float
    mean_tokens: float
    mean_time_s: float


def compare_strategies(
    records: Sequence[ReactionRecord],
    train: Sequence[ReactionRecord],
    corpus: ProductCorpus,
    weights: GnnWeights,
    feature_cfg: FeatureConfig,
    prompt_cfg: PromptConfig,
    backend_cfg: BackendConfig,
    strategies: Sequence[Strategy],
    seed: int = 0,
    max_concurrency: int = 1,
    iupac_table: dict[str, str] | None = None,
    templates: TemplateSet | None = None,
) -> list[StrategyRow]:
    """One row per strategy over identical samples, seeds and corpus.

    Each row is read off the strategy's ``build_report``, so it equals
    what ``evaluate`` reports for that strategy; the ground truth and
    every strategy's prompt config are checked before any query runs.
    Each row gets a fresh pipeline from ``prompt_pipelines`` (and thus
    fresh mock state), rendering with the given IUPAC table and templates,
    so rows cannot contaminate each other; MES rows report the full
    multi-run token total per sample.
    """
    if not records:
        raise ValueError("strategy comparison needs at least one record")
    check_ground_truth(records, corpus)
    prompts = [replace(prompt_cfg, strategy=strategy) for strategy in strategies]
    rows = []
    for pipeline in prompt_pipelines(
        records, train, corpus, weights, feature_cfg, prompts, backend_cfg,
        iupac_table=iupac_table, templates=templates, seed=seed,
    ):
        results = run_dataset(pipeline, records, max_concurrency=max_concurrency)
        report = build_report(results, records, corpus, weights, feature_cfg, prompt_cfg.k)
        rows.append(StrategyRow(pipeline.prompt_cfg.strategy.label, report.accuracy,
                                report.mean_tokens, report.mean_latency_ms / 1000.0))
    return rows


def write_strategy_csv(rows: Sequence[StrategyRow], path: str | Path) -> None:
    _write_csv(
        [["strategy", "acc", "tokens", "time_s"]]
        + [[row.strategy, row.accuracy, row.mean_tokens, row.mean_time_s] for row in rows],
        path,
    )
