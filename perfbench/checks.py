"""Output checks, each recomputed apart from the code under test.

``relm`` supplies only parsing, structure keys and the encoder forward
pass; the nearest-neighbour scan, the hinge loss and every count are
coded here.  Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from relm.corpus import molecules_key, parse_side
from relm.encoder import EncoderConfig, embed_set, random_init
from relm.lmclient import ParseStatus
from relm.molgraph import FeatureConfig


def brute_force_ranks(index_path: Path, weights, records, k: int) -> dict[str, int | None]:
    """Rank (1-based) of each record's true product set in a full scan of
    the index file, ordered by (distance, entry id); None if beyond k."""
    payload = json.loads(Path(index_path).read_text(encoding="utf-8"))
    entries = payload["entries"]
    ids = [e["id"] for e in entries]
    matrix = np.array([e["embedding"] for e in entries], dtype=np.float64)
    feature_cfg = FeatureConfig()
    ranks: dict[str, int | None] = {}
    for record in records:
        query = embed_set(parse_side(record.reactants), weights, feature_cfg).values
        dist = np.sqrt(np.square(matrix - query).sum(axis=1))
        nearest = sorted(range(len(ids)), key=lambda i: (dist[i], ids[i]))[:k]
        truth = molecules_key(parse_side(record.products))
        ranks[record.id] = next(
            (
                pos + 1
                for pos, i in enumerate(nearest)
                if molecules_key(parse_side(entries[i]["products"])) == truth
            ),
            None,
        )
    return ranks


def check_report(report: dict, ranks: dict[str, int | None], k: int) -> list[str]:
    """The report's hit@k and every rank of truth match the independent scan."""
    problems = []
    hit = sum(r is not None for r in ranks.values()) / len(ranks)
    if not math.isclose(report["hit_at_k"], hit, abs_tol=1e-12):
        problems.append(f"hit@{k} {report['hit_at_k']} != brute force {hit}")
    for outcome in report["outcomes"]:
        if outcome["gnn_rank_of_truth"] != ranks[outcome["id"]]:
            problems.append(
                f"{outcome['id']}: rank of truth {outcome['gnn_rank_of_truth']} "
                f"!= brute force {ranks[outcome['id']]}"
            )
    return problems


def check_css(results, report: dict, ranks, k: int, n: int, css_low, css_high) -> list[str]:
    """The oracle picks the truth whenever retrieval surfaced it, so
    accuracy is hit@k; every context has n examples, never the query, and
    exactly one perturbed example showing a wrong answer at low confidence."""
    problems = check_report(report, ranks, k)
    if report["accuracy"] != report["hit_at_k"]:
        problems.append(f"accuracy {report['accuracy']} != hit@{k} {report['hit_at_k']}")
    for result in results:
        context = result.context
        if len(context) != n:
            problems.append(f"{result.query_id}: {len(context)} examples, want {n}")
        if any(ex.record.id == result.query_id for ex in context):
            problems.append(f"{result.query_id}: the query is its own example")
        perturbed = [ex for ex in context if ex.perturbed]
        if len(perturbed) != 1:
            problems.append(f"{result.query_id}: {len(perturbed)} perturbed examples")
        for ex in context:
            truth = molecules_key(parse_side(ex.record.products))
            shown = ex.candidates.entries[ex.shown_answer].keys
            if ex.perturbed and (shown == truth or ex.confidence not in css_low):
                problems.append(f"{result.query_id}: perturbed example {ex.record.id} is not low and wrong")
            if not ex.perturbed and (shown != truth or ex.confidence not in css_high):
                problems.append(f"{result.query_id}: example {ex.record.id} is not high and true")
    return problems


def check_mes(results, report: dict, ranks, k: int, runs: int) -> list[str]:
    """The stub always answers 'A': retrieval rank 0, unanimous votes,
    clean parses, and so accuracy is hit@1."""
    problems = check_report(report, ranks, k)
    top1 = {rid: rank == 1 for rid, rank in ranks.items()}
    accuracy = sum(top1.values()) / len(top1)
    if not math.isclose(report["accuracy"], accuracy, abs_tol=1e-12):
        problems.append(f"accuracy {report['accuracy']} != brute-force hit@1 {accuracy}")
    for outcome in report["outcomes"]:
        if outcome["correct"] != top1[outcome["id"]]:
            problems.append(f"{outcome['id']}: correct={outcome['correct']} but hit@1={top1[outcome['id']]}")
    for result in results:
        if result.final_rank != 0 or result.mes_choices != (0,) * runs:
            problems.append(f"{result.query_id}: votes {result.mes_choices}, choice {result.final_rank}")
        # every vote parsed the stub's one fixed reply, so one clean parse
        # and ten surviving votes mean ten clean parses
        if result.parsed.parse_status != ParseStatus.CLEAN or result.fell_back:
            problems.append(f"{result.query_id}: parse {result.parsed.parse_status.value}")
    return problems


def check_stub(attempt_counts: list[int], runs: int, stub: dict) -> list[str]:
    """Every request the stub saw, and every 503 it injected, shows up in
    the queries' attempt counts."""
    problems = []
    attempts = sum(attempt_counts)
    if attempts != stub["requests"]:
        problems.append(f"stub saw {stub['requests']} requests, attempts sum to {attempts}")
    retries = attempts - runs * len(attempt_counts)
    if retries != stub["injected_503"]:
        problems.append(f"{retries} retries but the stub injected {stub['injected_503']} 503s")
    return problems


def hinge_loss(records, seed: int, embed_dim: int, margin: float) -> float:
    """Mean over ordered pairs i != j of max(0, D(R_i,P_i) - D(R_i,P_j) + margin)
    at the untrained weights train-toy starts from."""
    feature_cfg = FeatureConfig()
    weights = random_init(
        EncoderConfig(feature_dim=feature_cfg.feature_dim, embed_dim=embed_dim), seed
    )
    reactants = np.array(
        [embed_set(parse_side(r.reactants), weights, feature_cfg).values for r in records]
    )
    products = np.array(
        [embed_set(parse_side(r.products), weights, feature_cfg).values for r in records]
    )
    total = 0.0
    for i, row in enumerate(reactants):
        dist = np.sqrt(np.square(products - row).sum(axis=1))
        hinge = dist[i] - dist + margin
        hinge[i] = 0.0
        total += hinge[hinge > 0.0].sum()
    n = len(records)
    return float(total / (n * (n - 1)))


def check_train(trace_csv: Path, epochs: int, expected_first: float) -> list[str]:
    lines = Path(trace_csv).read_text(encoding="utf-8").splitlines()
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    problems = []
    if len(losses) != epochs or not all(math.isfinite(x) for x in losses):
        problems.append(f"loss trace has {len(losses)} entries, want {epochs} finite")
    elif losses[-1] >= losses[0]:
        problems.append(f"loss did not fall: {losses[0]} -> {losses[-1]}")
    if losses and not math.isclose(losses[0], expected_first, rel_tol=1e-9):
        problems.append(f"first loss {losses[0]!r} != recomputed hinge {expected_first!r}")
    return problems
