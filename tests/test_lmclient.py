"""Backends, retries, answer parsing and the prediction pipeline."""

import dataclasses
import json
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from goldens import LM_OUTPUT_GOLDENS
from relm.corpus import CssConfig, RetrievalState, corpus_from_records, top_k_candidates
from relm.encoder import EncoderConfig, random_init
from relm.evaluation import hit_at_k
from relm.lmclient import (
    AuthFailure,
    BackendConfig,
    BackendKind,
    LmResponse,
    MalformedResponse,
    MockBackend,
    MockRule,
    OracleBackend,
    ParseStatus,
    ParsedAnswer,
    Pipeline,
    RateLimitedExhausted,
    Timeout,
    complete,
    derive_seed,
    load_mock_script,
    make_backend,
    parse_answer,
    parse_fine_grained,
    parse_for_schema,
    run_dataset,
)
from relm.molgraph import FeatureConfig
from relm.prompt import (
    AnswerSchema,
    MoleculeRendering,
    PromptConfig,
    Strategy,
    StrategyKind,
    render,
)
from relm.synthetic import synthetic_reactions

FEATURE_CFG = FeatureConfig()


@pytest.fixture(scope="module")
def setup():
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    train = synthetic_reactions(30, seed=40)
    corpus = corpus_from_records(train, weights, FEATURE_CFG)
    return weights, train, corpus


def pipeline_for(setup, backend_cfg, strategy=None, k=4, n=3, seed=0, css=None):
    weights, train, corpus = setup
    cfg = PromptConfig(
        strategy=strategy or Strategy(StrategyKind.PLAIN),
        k=k,
        n=n,
        css=css or CssConfig(),
    )
    return Pipeline(
        corpus, train, weights, FEATURE_CFG, cfg, backend_cfg, seed=seed
    )


ORACLE = BackendConfig(kind=BackendKind.ORACLE)


def mock_cfg(response="Answer: A", fail_times=0, max_retries=3):
    return BackendConfig(
        kind=BackendKind.MOCK,
        max_retries=max_retries,
        backoff_base_s=0.0,
        mock_script=(MockRule(match="*", response=response, fail_times=fail_times),),
    )


# ---- parsing goldens ----


@pytest.mark.parametrize(
    "text,schema,k,choice,confidence,status",
    LM_OUTPUT_GOLDENS,
    ids=[f"golden-{i:02d}" for i in range(len(LM_OUTPUT_GOLDENS))],
)
def test_lm_output_goldens(text, schema, k, choice, confidence, status):
    parsed = parse_for_schema(text, AnswerSchema(schema), k)
    assert parsed.choice == choice
    assert parsed.confidence == confidence
    assert parsed.parse_status.value == status


def test_fine_grained_score_vectors():
    parsed = parse_fine_grained("A: 2, B: 9, C: 4, D: 4", 4)
    assert parsed.per_candidate_scores == (2, 9, 4, 4)
    parsed = parse_fine_grained('{"A": 8, "B": 3, "C": 1, "D": 2}', 4)
    assert parsed.per_candidate_scores == (8, 3, 1, 2)
    assert parsed.parse_status == ParseStatus.RECOVERED


def test_parse_answer_validates_k():
    with pytest.raises(ValueError):
        parse_answer("Answer: A", AnswerSchema.LETTER_ONLY, 0)
    with pytest.raises(ValueError):
        parse_fine_grained("A: 1", 0)


def test_parsed_answer_invariants():
    with pytest.raises(ValueError):
        ParsedAnswer(choice=1, parse_status=ParseStatus.FAILED)
    with pytest.raises(ValueError):
        ParsedAnswer(choice=None, parse_status=ParseStatus.CLEAN)
    with pytest.raises(ValueError):
        ParsedAnswer(choice=0, confidence=10, parse_status=ParseStatus.CLEAN)


# ---- configuration and script loading ----


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"max_retries": -1},
        {"timeout_ms": 0},
        {"backoff_base_s": -1.0},
        {"kind": BackendKind.HTTP},  # no endpoint
        {"kind": BackendKind.MOCK},  # no script
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"backoff_base_s": float("nan")},
        {"backoff_base_s": float("inf")},
        {"kind": BackendKind.HTTP, "endpoint": "api.example.com/v1"},
        {"kind": BackendKind.HTTP, "endpoint": "ftp://example.com/v1"},
        {"kind": BackendKind.HTTP, "endpoint": "http://"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com:abc/v1"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com:70000/v1"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com:0/v1"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com/my v1"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com/v1\n"},
        {"kind": BackendKind.HTTP, "endpoint": "http://example.com/v\u00e9"},
    ],
)
def test_backend_config_rejects(kwargs):
    with pytest.raises(ValueError):
        BackendConfig(**kwargs)


def test_load_mock_script_round_trip(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            [
                {"match": "*", "response": "Answer: A"},
                {"match": "ethanol", "response": "Answer: B", "fail_times": 2},
            ]
        )
    )
    rules = load_mock_script(path)
    assert rules == (
        MockRule(match="*", response="Answer: A"),
        MockRule(match="ethanol", response="Answer: B", fail_times=2),
    )


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        '{"match": "*"}',
        '[{"match": "*"}]',
        '[{"match": "*", "response": "x", "extra": 1}]',
    ],
)
def test_load_mock_script_rejects(tmp_path, payload):
    path = tmp_path / "script.json"
    path.write_text(payload)
    with pytest.raises(ValueError):
        load_mock_script(path)


# ---- mock backend and retries ----


def make_prompt(setup):
    pipe = pipeline_for(setup, ORACLE)
    _, train, _ = setup
    return pipe.render_prompt(train[0])


def test_mock_first_matching_rule_wins(setup):
    prompt = make_prompt(setup)
    cfg = BackendConfig(
        kind=BackendKind.MOCK,
        backoff_base_s=0.0,
        mock_script=(
            MockRule(match="zz-never-present", response="Answer: D"),
            MockRule(match="Question:", response="Answer: B"),
            MockRule(match="*", response="Answer: C"),
        ),
    )
    response = complete(prompt, cfg)
    assert response.text == "Answer: B"
    assert response.latency_ms == 0


def test_mock_no_rule_matches_is_malformed(setup):
    prompt = make_prompt(setup)
    cfg = BackendConfig(
        kind=BackendKind.MOCK,
        backoff_base_s=0.0,
        mock_script=(MockRule(match="zz-never-present", response="x"),),
    )
    with pytest.raises(MalformedResponse):
        complete(prompt, cfg)


def test_fail_twice_then_succeed_counts_three_attempts(setup):
    prompt = make_prompt(setup)
    response = complete(prompt, mock_cfg(fail_times=2, max_retries=3))
    assert response.attempt_count == 3
    assert response.text == "Answer: A"


def test_zero_retries_failing_mock_exhausts(setup):
    prompt = make_prompt(setup)
    with pytest.raises(RateLimitedExhausted) as err:
        complete(prompt, mock_cfg(fail_times=5, max_retries=0))
    assert len(err.value.attempts) == 1


def test_exhaustion_carries_full_attempt_transcript(setup):
    prompt = make_prompt(setup)
    with pytest.raises(RateLimitedExhausted) as err:
        complete(prompt, mock_cfg(fail_times=99, max_retries=2))
    assert len(err.value.attempts) == 3
    assert all("attempt" in line for line in err.value.attempts)


def test_backoff_is_exponential_with_bounded_jitter(setup, monkeypatch):
    sleeps = []
    monkeypatch.setattr("relm.lmclient.time.sleep", sleeps.append)
    prompt = make_prompt(setup)
    cfg = BackendConfig(
        kind=BackendKind.MOCK,
        max_retries=3,
        backoff_base_s=1.0,
        mock_script=(MockRule(match="*", response="Answer: A", fail_times=3),),
    )
    response = complete(prompt, cfg)
    assert response.attempt_count == 4
    assert len(sleeps) == 3
    for expected, actual in zip((1.0, 2.0, 4.0), sleeps):
        assert expected <= actual <= expected * 1.1


def test_lm_response_invariants():
    with pytest.raises(ValueError):
        LmResponse(text="x", latency_ms=-1, attempt_count=1)
    with pytest.raises(ValueError):
        LmResponse(text="x", latency_ms=0, attempt_count=0)


# ---- oracle backend ----


def test_oracle_answers_truth_letter_for_every_schema(setup):
    weights, train, corpus = setup
    oracle = OracleBackend(ORACLE)
    kinds = {
        StrategyKind.PLAIN: "Answer: {L}",
        StrategyKind.CSS: "Answer: {L}\nConfidence: 9",
        StrategyKind.JSON: None,
        StrategyKind.FINE_GRAINED_CSS: None,
    }
    for kind in kinds:
        css = CssConfig(seed=1)
        pipe = pipeline_for(setup, ORACLE, strategy=Strategy(kind), css=css)
        query = train[1]
        prompt = pipe.render_prompt(query)
        text = oracle.complete_once(prompt)
        parsed = parse_for_schema(text, prompt.answer_schema, len(prompt.letters))
        assert parsed.parse_status != ParseStatus.FAILED
        if prompt.meta.truth_key is not None and (
            prompt.meta.truth_key in prompt.meta.candidate_keys
        ):
            expected = prompt.meta.candidate_keys.index(prompt.meta.truth_key)
            assert parsed.choice == expected


def test_oracle_defaults_to_first_letter_without_truth(setup):
    import dataclasses

    weights, train, corpus = setup
    pipe = pipeline_for(setup, ORACLE)
    query = dataclasses.replace(train[0], id="q-pure", products=())
    prompt = pipe.render_prompt(query)
    assert prompt.meta.truth_key is None
    text = OracleBackend(ORACLE).complete_once(prompt)
    assert text == "Answer: A"


# ---- http backend ----


class ChatServer(ThreadingHTTPServer):
    """Loopback endpoint: each request is recorded as (method, path,
    headers, JSON body or None) and answered by the next entry of
    ``script``."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.script = []
        self.received = []
        self.release = threading.Event()  # ends every stalled reply


class ChatHandler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # keep test output quiet
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        record = (self.command, self.path, self.headers, json.loads(body) if body else None)
        self.server.received.append(record)
        self.server.script.pop(0)(self)

    do_GET = do_POST


def reply(status, payload=b"", missing=0, location=None):
    """A scripted reply whose Content-Length promises ``missing`` bytes
    more than it sends before the server closes the connection."""

    def send(handler):
        handler.send_response(status)
        if location is not None:
            handler.send_header("Location", location)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(payload) + missing))
        handler.end_headers()
        handler.wfile.write(payload)

    return send


def stall(handler):
    handler.server.release.wait(10)


@contextmanager
def serving():
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join(5)
    assert not thread.is_alive()


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.setenv("RELM_API_KEY", "sk-test")
    with serving() as server:
        yield server


def good_payload(content="Answer: B"):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def http_cfg(server, max_retries=2, timeout_ms=30000):
    return BackendConfig(
        kind=BackendKind.HTTP,
        endpoint=f"http://127.0.0.1:{server.server_port}/v1",
        model="test-model",
        timeout_ms=timeout_ms,
        max_retries=max_retries,
        backoff_base_s=0.0,
    )


def test_http_missing_key_is_auth_failure(monkeypatch):
    monkeypatch.delenv("RELM_API_KEY", raising=False)
    cfg = BackendConfig(kind=BackendKind.HTTP, endpoint="http://example.invalid/v1")
    with pytest.raises(AuthFailure) as err:
        make_backend(cfg)
    assert "RELM_API_KEY" in str(err.value)


def test_http_custom_env_var_name(monkeypatch):
    monkeypatch.delenv("OTHER_KEY", raising=False)
    cfg = BackendConfig(
        kind=BackendKind.HTTP,
        endpoint="http://example.invalid/v1",
        api_key_env="OTHER_KEY",
    )
    with pytest.raises(AuthFailure) as err:
        make_backend(cfg)
    assert "OTHER_KEY" in str(err.value)


def test_http_success_posts_chat_completions(setup, chat_server):
    chat_server.script = [reply(200, good_payload())]
    response = complete(make_prompt(setup), http_cfg(chat_server))
    assert response.text == "Answer: B"
    assert response.attempt_count == 1
    [(method, path, headers, body)] = chat_server.received
    assert method == "POST"
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"
    assert body["model"] == "test-model"
    assert body["messages"][0]["role"] == "system"


def test_http_401_is_auth_failure(setup, chat_server):
    chat_server.script = [reply(401, b"denied")]
    with pytest.raises(AuthFailure):
        complete(make_prompt(setup), http_cfg(chat_server))


def test_http_429_exhaustion(setup, chat_server):
    chat_server.script = [reply(429)] * 3
    with pytest.raises(RateLimitedExhausted) as err:
        complete(make_prompt(setup), http_cfg(chat_server, max_retries=2))
    assert len(err.value.attempts) == 3
    assert len(chat_server.received) == 3


def test_http_5xx_then_success_retries(setup, chat_server):
    chat_server.script = [reply(503), reply(200, good_payload())]
    response = complete(make_prompt(setup), http_cfg(chat_server))
    assert response.attempt_count == 2


def test_http_timeout_exhaustion(setup, chat_server):
    # both replies stall far past the 100 ms timeout
    chat_server.script = [stall, stall]
    with pytest.raises(Timeout) as err:
        complete(make_prompt(setup), http_cfg(chat_server, max_retries=1, timeout_ms=100))
    assert len(err.value.attempts) == 2
    assert all("timed out" in line for line in err.value.attempts)


def test_http_malformed_body_is_not_retried(setup, chat_server):
    chat_server.script = [reply(200, b'{"unexpected": true}')] * 4
    with pytest.raises(MalformedResponse):
        complete(make_prompt(setup), http_cfg(chat_server, max_retries=3))
    assert len(chat_server.received) == 1


def test_http_short_body_is_retried_then_times_out(setup, chat_server):
    chat_server.script = [reply(200, good_payload(), missing=50)] * 2
    with pytest.raises(Timeout) as err:
        complete(make_prompt(setup), http_cfg(chat_server, max_retries=1))
    assert len(err.value.attempts) == 2
    assert len(chat_server.received) == 2


def test_http_netrc_does_not_replace_the_key(setup, chat_server, tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    chat_server.script = [reply(200, good_payload())]
    complete(make_prompt(setup), http_cfg(chat_server))
    assert chat_server.received[0][2]["Authorization"] == "Bearer sk-test"


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_redirect_is_not_followed(setup, chat_server, status):
    # the key must never reach the redirect target, which may be another host
    with serving() as other:
        other.script = [reply(200, good_payload())]
        target = f"http://127.0.0.1:{other.server_port}/v1/chat/completions"
        chat_server.script = [reply(status, location=target)]
        with pytest.raises(MalformedResponse, match=f"unexpected status {status}"):
            complete(make_prompt(setup), http_cfg(chat_server))
        assert len(chat_server.received) == 1
        assert other.received == []


# ---- pipeline invariants ----


def test_always_a_mock_equals_retrieval_top1(setup):
    weights, train, corpus = setup
    pipe = pipeline_for(setup, mock_cfg("Answer: A"))
    results = run_dataset(pipe, train, max_concurrency=1)
    for record, result in zip(train, results):
        top1 = result.candidates.entries[0]
        assert result.final_choice_id == top1.entry_id
        assert (result.final_keys == record.product_key()) == (
            result.gnn_rank_of_truth == 1
        )


def test_oracle_accuracy_equals_hit_at_k(setup):
    weights, train, corpus = setup
    for k in (3, 4, 5):
        pipe = pipeline_for(setup, ORACLE, k=k)
        results = run_dataset(pipe, train, max_concurrency=1)
        acc = sum(
            r.final_keys == t.product_key() for r, t in zip(results, train)
        ) / len(train)
        assert acc == hit_at_k(train, corpus, weights, FEATURE_CFG, k)


def test_failed_parse_falls_back_to_top1(setup):
    weights, train, _ = setup
    pipe = pipeline_for(setup, mock_cfg("complete gibberish, zero letters here"))
    result = pipe.predict(train[0])
    assert result.fell_back
    assert result.final_rank == 0
    assert result.parsed.parse_status == ParseStatus.FAILED
    assert result.final_choice_id == result.candidates.entries[0].entry_id


def test_mes_reuses_one_prompt_and_votes(setup):
    weights, train, _ = setup
    plain = pipeline_for(setup, mock_cfg("Answer: B"))
    single = plain.predict(train[2])
    mes = pipeline_for(
        setup, mock_cfg("Answer: B"), strategy=Strategy.mes(runs=10)
    )
    voted = mes.predict(train[2])
    assert voted.mes_choices == (single.final_rank,) * 10
    assert voted.final_rank == single.final_rank
    assert voted.token_estimate == 10 * single.token_estimate
    assert voted.attempt_count == 10


class ScriptedBackend:
    """Answers each completion with the next of a fixed list of texts."""

    instrumented = False

    def __init__(self, texts):
        self._texts = iter(texts)

    def complete_once(self, prompt):
        return next(self._texts)


def scripted_mes(setup, texts):
    weights, train, corpus = setup
    cfg = PromptConfig(strategy=Strategy.mes(runs=len(texts)), k=4, shuffle_candidates_seed=5)
    pipe = Pipeline(corpus, train, weights, FEATURE_CFG, cfg, ORACLE)
    pipe._backend = ScriptedBackend(texts)
    return pipe.render_prompt(train[4]).meta.rank_order, pipe.predict(train[4])


def test_mes_votes_over_the_parsed_runs_only(setup):
    rank_of, result = scripted_mes(
        setup, ["Answer: B", "complete gibberish, zero letters here", "Answer: C"]
    )
    assert rank_of != (0, 1, 2, 3)  # choices must be mapped back to ranks
    assert result.mes_choices == (rank_of[1], rank_of[2])
    assert result.final_rank == min(rank_of[1], rank_of[2])  # a tie goes to the closer rank
    assert result.parsed.choice == 1
    assert not result.fell_back
    assert result.attempt_count == 3


def test_mes_with_every_run_unparseable_falls_back_to_top1(setup):
    _, result = scripted_mes(setup, ["no answer", "still none", "nothing"])
    assert result.fell_back
    assert result.final_rank == 0
    assert result.mes_choices is None
    assert result.parsed.parse_status == ParseStatus.FAILED


IUPAC_CFG = PromptConfig(
    strategy=Strategy(StrategyKind.ZERO_SHOT),
    molecule_rendering=MoleculeRendering.SMILES_PLUS_IUPAC,
)


def iupac_prompt(setup, config_table, query_table):
    weights, train, corpus = setup
    pipe = Pipeline(
        corpus, train, weights, FEATURE_CFG, IUPAC_CFG, ORACLE, iupac_table=config_table
    )
    query = dataclasses.replace(train[1], iupac=query_table)  # reactants Br(Br)=F and CCl
    return query, pipe.render_prompt(query)


def test_query_names_override_config_names(setup):
    _, prompt = iupac_prompt(
        setup,
        {"Br(Br)=F": "config-name", "CCl": "config-only"},
        {"Br(Br)=F": "query-name"},
    )
    assert "query-name (SMILES: Br(Br)=F)" in prompt.text
    assert "config-only (SMILES: CCl)" in prompt.text
    assert "config-name" not in prompt.text


def test_no_name_table_renders_as_no_table(setup):
    weights, _, corpus = setup
    for config_table, query_table in ((None, None), ({}, None), (None, {})):
        query, prompt = iupac_prompt(setup, config_table, query_table)
        candidates = top_k_candidates(
            query.reactant_graphs(), corpus, IUPAC_CFG.k, weights, FEATURE_CFG
        )
        assert prompt == render(query, candidates, [], IUPAC_CFG)


def test_results_are_concurrency_order_independent(setup):
    weights, train, _ = setup
    serial = run_dataset(pipeline_for(setup, ORACLE), train, max_concurrency=1)
    parallel = run_dataset(pipeline_for(setup, ORACLE), train, max_concurrency=4)
    assert [r.query_id for r in serial] == [r.query_id for r in parallel]
    assert [r.final_choice_id for r in serial] == [
        r.final_choice_id for r in parallel
    ]
    assert [r.token_estimate for r in serial] == [
        r.token_estimate for r in parallel
    ]


def test_threads_share_one_backend_and_one_retrieval_state(setup):
    # more threads than cores and a short switch interval: a second backend
    # would replay the scripted failures, and a wrong shared candidate list
    # would change a context
    weights, train, corpus = setup
    strategy = Strategy(StrategyKind.CSS)
    serial = run_dataset(
        pipeline_for(setup, mock_cfg(fail_times=0), strategy=strategy), train, max_concurrency=1
    )
    state = RetrievalState(corpus, train, weights, FEATURE_CFG)
    cfg = PromptConfig(strategy=strategy, k=4, n=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            pipe = Pipeline(
                corpus, train, weights, FEATURE_CFG, cfg, mock_cfg(fail_times=3), state=state
            )
            parallel = run_dataset(pipe, train, max_concurrency=8)
            assert sum(r.attempt_count for r in parallel) == len(train) + 3
            assert [r.context for r in parallel] == [r.context for r in serial]
    finally:
        sys.setswitchinterval(interval)
    shown = {train.index(e.record) for r in serial for e in r.context}
    assert shown <= set(state.candidate_cache(4))


def test_pipeline_rejects_a_state_of_other_inputs(setup):
    weights, train, corpus = setup
    other = RetrievalState(corpus, list(train), weights, FEATURE_CFG)
    with pytest.raises(ValueError, match="other inputs"):
        Pipeline(
            corpus, train, weights, FEATURE_CFG, PromptConfig(), ORACLE, state=other
        )


def test_css_perturbation_seeds_are_per_query(setup):
    weights, train, _ = setup
    strategy = Strategy(StrategyKind.CSS)
    first = pipeline_for(setup, ORACLE, strategy=strategy, seed=0)
    second = pipeline_for(setup, ORACLE, strategy=strategy, seed=0)
    a = first.predict(train[3])
    b = second.predict(train[3])
    assert [e.confidence for e in a.context] == [e.confidence for e in b.context]
    assert [e.perturbed for e in a.context] == [e.perturbed for e in b.context]
    assert sum(e.perturbed for e in a.context) == 1


def test_zero_shot_pipeline_has_no_context(setup):
    weights, train, _ = setup
    pipe = pipeline_for(setup, ORACLE, strategy=Strategy(StrategyKind.ZERO_SHOT))
    result = pipe.predict(train[0])
    assert result.context == []


def test_pipeline_does_not_mutate_corpus_or_records(setup):
    weights, train, corpus = setup
    ids_before = tuple(e.entry_id for e in corpus.entries)
    records_before = tuple(train)
    run_dataset(pipeline_for(setup, ORACLE), train[:5])
    assert tuple(e.entry_id for e in corpus.entries) == ids_before
    assert tuple(train) == records_before


def test_run_dataset_validates_concurrency(setup):
    with pytest.raises(ValueError):
        run_dataset(pipeline_for(setup, ORACLE), [], max_concurrency=0)


def test_fine_grained_scores_recorded_by_rank(setup):
    weights, train, _ = setup
    pipe = pipeline_for(
        setup, ORACLE, strategy=Strategy(StrategyKind.FINE_GRAINED_CSS)
    )
    result = pipe.predict(train[1])
    scores = result.scores_by_rank
    assert scores is not None and len(scores) == 4
    if result.gnn_rank_of_truth is not None:
        assert scores[result.gnn_rank_of_truth - 1] == 9
        assert scores.count(9) == 1


# ---- seed derivation ----


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(0, "css|a") == derive_seed(0, "css|a")
    assert derive_seed(0, "css|a") != derive_seed(0, "css|b")
    assert derive_seed(0, "css|a") != derive_seed(1, "css|a")
    assert 0 <= derive_seed(123, "shuffle") < 2**64
