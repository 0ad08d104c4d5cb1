"""Metrics, vote aggregation, correlation reports and serialization."""

import csv
import dataclasses
import random
import re
import statistics

import pytest
from helpers import reference_spearman
from hypothesis import given
from hypothesis import strategies as st

from relm.corpus import CssConfig, corpus_from_records
from relm.encoder import EncoderConfig, random_init
from relm.evaluation import (
    CSV_COLUMNS,
    ConfidenceSplit,
    DegenerateRanks,
    EvalReport,
    MissingGroundTruth,
    RankCorrelationReport,
    SampleOutcome,
    StrategyRow,
    accuracy,
    build_report,
    compare_strategies,
    confidence_histogram,
    confidence_split,
    hit_at_k,
    mes_vote,
    rank_correlation_report,
    spearman,
    write_outcomes_csv,
    write_report_json,
    write_strategy_csv,
)
from relm.lmclient import BackendConfig, BackendKind, MockRule, Pipeline, run_dataset
from relm.molgraph import FeatureConfig
from relm.prompt import PromptConfig, SchemaConflict, Strategy, StrategyKind
from relm.synthetic import synthetic_reactions

FEATURE_CFG = FeatureConfig()


@pytest.fixture(scope="module")
def setup():
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    train = synthetic_reactions(24, seed=40)
    corpus = corpus_from_records(train, weights, FEATURE_CFG)
    return weights, train, corpus


def make_outcome(
    id="r-0",
    correct=False,
    gnn_rank_of_truth=2,
    choice=0,
    confidence=None,
    per_candidate_scores=None,
    parse_status="clean",
    latency_ms=5,
    token_estimate=100,
):
    return SampleOutcome(
        id=id,
        correct=correct,
        gnn_rank_of_truth=gnn_rank_of_truth,
        final_choice_id="e-0",
        choice=choice,
        confidence=confidence,
        per_candidate_scores=per_candidate_scores,
        parse_status=parse_status,
        latency_ms=latency_ms,
        token_estimate=token_estimate,
    )


# ---- accuracy and hit@K ----


def test_accuracy_counts_correct_fraction():
    outcomes = [make_outcome(correct=c) for c in (True, False, True, True)]
    assert accuracy(outcomes) == 0.75


def test_accuracy_rejects_empty():
    with pytest.raises(ValueError):
        accuracy([])


def test_hit_at_full_corpus_is_one(setup):
    weights, train, corpus = setup
    assert hit_at_k(train, corpus, weights, FEATURE_CFG, len(corpus.entries)) == 1.0


def test_hit_at_k_is_monotone_in_k(setup):
    weights, train, corpus = setup
    values = [hit_at_k(train, corpus, weights, FEATURE_CFG, k) for k in (1, 2, 4, 8)]
    assert values == sorted(values)


def test_hit_at_k_missing_truth_lists_ids(setup):
    import dataclasses

    weights, train, corpus = setup
    stray = dataclasses.replace(train[0], id="stray", products=())
    with pytest.raises(MissingGroundTruth) as err:
        hit_at_k([train[1], stray], corpus, weights, FEATURE_CFG, 3)
    assert err.value.ids == ("stray",)


def test_hit_at_k_rejects_empty(setup):
    weights, _, corpus = setup
    with pytest.raises(ValueError):
        hit_at_k([], corpus, weights, FEATURE_CFG, 3)


# ---- vote aggregation ----


@pytest.mark.parametrize(
    "answers,expected",
    [
        ([0, 1], 0),
        ([2, 2, 1], 2),
        ([1, 1, 2, 2], 1),
        ([3], 3),
        ([0, 1, 1, 0, 2], 0),
    ],
)
def test_mes_vote_pinned(answers, expected):
    assert mes_vote(answers) == expected


def test_mes_vote_rejects_empty():
    with pytest.raises(ValueError):
        mes_vote([])


@given(st.lists(st.integers(0, 5), min_size=1).flatmap(
    lambda xs: st.tuples(st.just(xs), st.permutations(xs))
))
def test_mes_vote_is_permutation_invariant(pair):
    original, shuffled = pair
    assert mes_vote(original) == mes_vote(shuffled)


# ---- rank correlation ----


def test_spearman_pinned_values():
    assert spearman((1, 2, 3, 4), (1, 2, 3, 4)) == pytest.approx(1.0, abs=1e-12)
    assert spearman((1, 2, 3, 4), (4, 3, 2, 1)) == pytest.approx(-1.0, abs=1e-12)
    assert spearman((1, 2, 3, 4), (1, 3, 2, 4)) == pytest.approx(0.8, abs=1e-12)


def test_spearman_handles_ties_with_fractional_ranks():
    got = spearman((1, 2, 3, 4), (1, 2, 2, 3))
    assert got == pytest.approx(3 / 10**0.5, abs=1e-12)


def test_spearman_rejects_bad_input():
    with pytest.raises(ValueError):
        spearman((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        spearman((1,), (2,))
    with pytest.raises(DegenerateRanks):
        spearman((5, 5, 5), (1, 2, 3))
    with pytest.raises(DegenerateRanks):
        spearman((1, 2, 3), (7, 7, 7))


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=2,
        max_size=20,
        unique=True,
    )
)
def test_spearman_self_and_reverse(xs):
    assert spearman(xs, xs) == pytest.approx(1.0, abs=1e-9)
    assert spearman(xs, [-v for v in xs]) == pytest.approx(-1.0, abs=1e-9)


def reference_rho(scores):
    """Independent recomputation of one sample's score-vs-rank agreement."""
    gnn = [float(r) for r in range(1, len(scores) + 1)]
    return reference_spearman(gnn, [-s for s in scores])


def test_rank_correlation_report_matches_reference():
    rng = random.Random(7)
    outcomes = []
    expected_plus, expected_minus, expected_excluded = [], [], 0
    for i in range(100):
        scores = tuple(rng.randint(1, 9) for _ in range(4))
        rank = rng.choice((1, 2, 3, 4))
        outcomes.append(
            make_outcome(
                id=f"r-{i:03d}", gnn_rank_of_truth=rank, per_candidate_scores=scores
            )
        )
        if len(set(scores)) == 1:
            expected_excluded += 1
        elif rank == 1:
            expected_plus.append(reference_rho(scores))
        else:
            expected_minus.append(reference_rho(scores))
    report = rank_correlation_report(outcomes)
    assert report.n_plus == len(expected_plus)
    assert report.n_minus == len(expected_minus)
    assert report.n == report.n_plus + report.n_minus
    assert report.excluded == expected_excluded
    assert report.rho_plus == pytest.approx(
        statistics.fmean(expected_plus), abs=1e-12
    )
    assert report.rho_minus == pytest.approx(
        statistics.fmean(expected_minus), abs=1e-12
    )
    assert report.rho == pytest.approx(
        statistics.fmean(expected_plus + expected_minus), abs=1e-12
    )


def test_rank_correlation_perfect_agreement_and_reversal():
    agree = [make_outcome(per_candidate_scores=(9, 7, 5, 3))]
    assert rank_correlation_report(agree).rho == pytest.approx(1.0, abs=1e-12)
    reverse = [make_outcome(per_candidate_scores=(3, 5, 7, 9))]
    assert rank_correlation_report(reverse).rho == pytest.approx(-1.0, abs=1e-12)


def test_rank_correlation_excludes_constant_vectors():
    outcomes = [
        make_outcome(id="a", per_candidate_scores=(5, 5, 5, 5)),
        make_outcome(id="b", per_candidate_scores=(9, 1, 1, 1)),
    ]
    report = rank_correlation_report(outcomes)
    assert report.excluded == 1
    assert report.n == 1


def test_rank_correlation_requires_scored_outcomes():
    with pytest.raises(ValueError):
        rank_correlation_report([make_outcome(per_candidate_scores=None)])


def test_rank_correlation_report_validation():
    with pytest.raises(ValueError):
        RankCorrelationReport(
            rho=0.5, rho_plus=0.5, rho_minus=None, n=3, n_plus=1, n_minus=1, excluded=0
        )
    with pytest.raises(ValueError):
        RankCorrelationReport(
            rho=1.5, rho_plus=None, rho_minus=None, n=0, n_plus=0, n_minus=0, excluded=0
        )


# ---- confidence analyses ----


def test_confidence_split_matches_direct_computation():
    outcomes = [
        make_outcome(id="a", correct=True, confidence=9),
        make_outcome(id="b", correct=False, confidence=8),
        make_outcome(id="c", correct=True, confidence=7),
        make_outcome(id="d", correct=True, confidence=2),
        make_outcome(id="e", correct=False, confidence=1),
        make_outcome(id="f", correct=True, confidence=None),
    ]
    split = confidence_split(outcomes)
    assert split.threshold == 7
    assert split.high.count == 3 and split.low.count == 2
    assert split.high.accuracy == pytest.approx(2 / 3)
    assert split.low.accuracy == pytest.approx(1 / 2)
    assert split.high.stdev == pytest.approx(statistics.stdev([1.0, 0.0, 1.0]))
    assert split.low.stdev == pytest.approx(statistics.stdev([1.0, 0.0]))


def test_confidence_split_empty_side_is_absent():
    outcomes = [make_outcome(correct=True, confidence=9)]
    split = confidence_split(outcomes)
    assert split.low is None
    assert split.high.count == 1
    assert split.high.stdev == 0.0


def test_confidence_split_partitions_scored_outcomes():
    rng = random.Random(3)
    outcomes = [
        make_outcome(
            id=f"r-{i}",
            correct=rng.random() < 0.5,
            confidence=rng.choice([None, 1, 3, 5, 7, 9]),
        )
        for i in range(60)
    ]
    scored = sum(1 for o in outcomes if o.confidence is not None)
    split = confidence_split(outcomes)
    high = split.high.count if split.high else 0
    low = split.low.count if split.low else 0
    assert high + low == scored


def test_confidence_split_threshold_validation():
    with pytest.raises(ValueError):
        confidence_split([make_outcome()], threshold=0)
    with pytest.raises(ValueError):
        confidence_split([make_outcome()], threshold=10)


def test_confidence_histogram_conserves_counts():
    outcomes = [
        make_outcome(id="a", correct=True, confidence=9),
        make_outcome(id="b", correct=True, confidence=9),
        make_outcome(id="c", correct=False, confidence=1),
        make_outcome(id="d", correct=False, confidence=None),
    ]
    correct, incorrect = confidence_histogram(outcomes)
    assert len(correct) == len(incorrect) == 9
    assert correct[8] == 2 and sum(correct) == 2
    assert incorrect[0] == 1 and sum(incorrect) == 1


# ---- reports ----


def test_eval_report_enforces_ceiling_law():
    with pytest.raises(ValueError):
        EvalReport(
            accuracy=0.8,
            hit_at_k=0.5,
            k=4,
            mean_tokens=1.0,
            mean_latency_ms=0.0,
            parse_failure_rate=0.0,
            outcomes=(),
        )
    # equality is allowed: the oracle re-ranker sits exactly on the ceiling
    EvalReport(
        accuracy=0.5,
        hit_at_k=0.5,
        k=4,
        mean_tokens=1.0,
        mean_latency_ms=0.0,
        parse_failure_rate=0.0,
        outcomes=(),
    )


def oracle_cfg():
    return BackendConfig(kind=BackendKind.ORACLE)


def build_small_report(setup, records=None, config=None):
    weights, train, corpus = setup
    records = list(records if records is not None else train[:8])
    pipe = Pipeline(
        corpus,
        train,
        weights,
        FEATURE_CFG,
        PromptConfig(strategy=Strategy(StrategyKind.CSS), k=4, n=3, css=CssConfig()),
        oracle_cfg(),
        seed=0,
    )
    results = run_dataset(pipe, records, max_concurrency=2)
    return build_report(
        results, records, corpus, weights, FEATURE_CFG, k=4, config=config
    )


def test_build_report_orders_outcomes_by_id(setup):
    weights, train, corpus = setup
    shuffled = list(train[:8])
    random.Random(0).shuffle(shuffled)
    report = build_small_report(setup, records=shuffled)
    ids = [o.id for o in report.outcomes]
    assert ids == sorted(ids)
    assert report.accuracy <= report.hit_at_k + 1e-12
    assert report.parse_failure_rate == 0.0


def test_build_report_rejects_length_mismatch(setup):
    weights, train, corpus = setup
    with pytest.raises(ValueError):
        build_report([], train[:2], corpus, weights, FEATURE_CFG, k=4)


def test_outcomes_csv_format_and_determinism(tmp_path):
    outcomes = [
        make_outcome(id="a", correct=True, confidence=7),
        make_outcome(id="b", gnn_rank_of_truth=None, confidence=None),
    ]
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    write_outcomes_csv(outcomes, first)
    write_outcomes_csv(outcomes, second)
    assert first.read_bytes() == second.read_bytes()
    rows = list(csv.reader(first.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1] == ["a", "true", "2", "0", "7", "clean", "5", "100"]
    assert rows[2] == ["b", "false", "", "0", "", "clean", "5", "100"]


def test_report_json_is_deterministic(setup, tmp_path):
    report = build_small_report(setup, config={"k": 4, "strategy": "css"})
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    write_report_json(report, first)
    write_report_json(report, second)
    text = first.read_text()
    assert first.read_bytes() == second.read_bytes()
    assert text.endswith("\n")
    assert '"accuracy"' in text and '"config"' in text


# ---- strategy comparison ----


def test_compare_strategies_mes_degeneracy(setup):
    weights, train, corpus = setup
    backend = BackendConfig(
        kind=BackendKind.MOCK,
        backoff_base_s=0.0,
        mock_script=(MockRule(match="*", response="Answer: A"),),
    )
    prompt_cfg = PromptConfig(
        strategy=Strategy(StrategyKind.PLAIN), k=4, n=3, css=CssConfig()
    )
    rows = compare_strategies(
        train[:6],
        train,
        corpus,
        weights,
        FEATURE_CFG,
        prompt_cfg,
        backend,
        [Strategy(StrategyKind.PLAIN), Strategy.mes(runs=10)],
    )
    plain, mes = rows
    assert plain.strategy == "plain"
    assert mes.strategy == "mes:plain:10"
    assert mes.accuracy == plain.accuracy
    assert mes.mean_tokens == 10 * plain.mean_tokens


def test_compare_strategies_checks_truth_before_any_query(setup):
    weights, train, corpus = setup
    alien = dataclasses.replace(train[0], id="alien", products=("CCCCCCCCCCCCCCCCCCCCO",))
    backend = BackendConfig(  # a backend call would fail: the rule matches no prompt
        kind=BackendKind.MOCK, mock_script=(MockRule(match="zz-never", response="A"),)
    )
    prompt_cfg = PromptConfig(strategy=Strategy(StrategyKind.PLAIN), k=4, n=3)
    with pytest.raises(MissingGroundTruth) as info:
        compare_strategies(
            [alien, *train[:2]], train, corpus, weights, FEATURE_CFG, prompt_cfg, backend,
            [Strategy(StrategyKind.PLAIN)],
        )
    assert info.value.ids == ("alien",)


def test_compare_strategies_checks_every_prompt_before_any_query(setup):
    # n=1 leaves CSS nothing to perturb; the plain row would run first
    weights, train, corpus = setup
    backend = BackendConfig(  # a backend call would fail: the rule matches no prompt
        kind=BackendKind.MOCK, mock_script=(MockRule(match="zz-never", response="A"),)
    )
    message = re.escape("css needs n >= 2 and css num_perturbed <= n")
    with pytest.raises(SchemaConflict, match=message):
        compare_strategies(
            train[:2], train, corpus, weights, FEATURE_CFG, PromptConfig(k=4, n=1), backend,
            [Strategy(StrategyKind.PLAIN), Strategy(StrategyKind.CSS)],
        )


def test_compare_strategies_rejects_empty(setup):
    weights, train, corpus = setup
    prompt_cfg = PromptConfig(
        strategy=Strategy(StrategyKind.PLAIN), k=4, n=3, css=CssConfig()
    )
    with pytest.raises(ValueError):
        compare_strategies(
            [], train, corpus, weights, FEATURE_CFG, prompt_cfg, oracle_cfg(), []
        )


def test_strategy_csv_header(tmp_path):
    rows = [StrategyRow(strategy="plain", accuracy=0.5, mean_tokens=10.0, mean_time_s=0.0)]
    path = tmp_path / "rows.csv"
    write_strategy_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,acc,tokens,time_s"
    assert lines[1].startswith("plain,0.5,")
