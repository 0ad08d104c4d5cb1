"""LM backends, answer parsing and the end-to-end prediction pipeline,
including the majority vote (``mes_vote``) over an MES strategy's runs.

Three backends share one retry loop: an HTTP client for chat-completion
endpoints, a scripted mock for tests and offline runs, and a truth
oracle that reads the rendered prompt's metadata and answers the ground
truth letter (the tool behind the upper-bound checks).  Parsing never
throws; unparseable output degrades to the retrieval top-1 fallback.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import string
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import (
    CandidateList,
    InContextExample,
    ProductCorpus,
    ReactionRecord,
    RetrievalState,
    check_fingerprint,
    perturb_context,
    build_context,
    select_examples,
    top_k_candidates,
)
from .encoder import Embedding, GnnWeights, embed_set
from .loading import convert, convert_fields, read_json
from .molgraph import FeatureConfig
from .prompt import (
    AnswerSchema,
    PromptConfig,
    RenderedPrompt,
    TemplateSet,
    estimate_tokens,
    render,
)
import hashlib


# ---- errors ----


class LmClientError(RuntimeError):
    """Base for backend failures; carries the attempt transcript."""

    def __init__(self, message: str, attempts: Sequence[str] = ()):
        self.attempts = tuple(attempts)
        super().__init__(message)


class Timeout(LmClientError):
    pass


class AuthFailure(LmClientError):
    pass


class RateLimitedExhausted(LmClientError):
    pass


class MalformedResponse(LmClientError):
    pass


class _Transient(Exception):
    """Internal: a failure the retry loop may try again."""

    def __init__(self, kind: str, message: str):
        self.kind = kind  # "timeout" or "throttle"
        super().__init__(message)


# ---- configuration ----


class BackendKind(str, Enum):
    HTTP = "http"
    MOCK = "mock"
    ORACLE = "oracle"


@dataclass(frozen=True)
class MockRule:
    """Script entry: first rule whose match ('*' or substring) hits wins."""

    match: str
    response: str
    fail_times: int = 0

    def __post_init__(self) -> None:
        if self.fail_times < 0:
            raise ValueError("fail_times must be >= 0")


def load_mock_script(path: str | Path) -> tuple[MockRule, ...]:
    data = convert(read_json(path, ValueError), list, f"{path}: mock script", ValueError)
    required = {f.name for f in fields(MockRule) if f.default is MISSING}
    rules = []
    for idx, raw in enumerate(data):
        if not isinstance(raw, dict) or not required <= set(raw):
            needed = " and ".join(repr(k) for k in sorted(required))
            raise ValueError(f"{path}: rule {idx} needs {needed}")
        values = convert_fields(raw, MockRule, f"{path}: rule {idx} ", ValueError)
        try:
            rules.append(MockRule(**values))
        except ValueError as exc:
            raise ValueError(f"{path}: rule {idx}: {exc}") from exc
    return tuple(rules)


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind = BackendKind.MOCK
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout_ms: int = 30000
    max_retries: int = 3
    api_key_env: str = "RELM_API_KEY"
    mock_script: tuple[MockRule, ...] = ()
    backoff_base_s: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if not (math.isfinite(self.backoff_base_s) and self.backoff_base_s >= 0):
            raise ValueError("backoff_base_s must be a finite number >= 0")
        if self.kind == BackendKind.HTTP:
            url = urllib.parse.urlsplit(self.endpoint)
            try:
                port_ok = url.port != 0
            except ValueError:  # a non-numeric or out-of-range port
                port_ok = False
            if (
                url.scheme not in ("http", "https")
                or not url.hostname
                or not port_ok
                or re.search(r"[^\x21-\x7e]", self.endpoint)
            ):
                raise ValueError(
                    f"http backend needs an http:// or https:// endpoint "
                    f"with a host, a port in 1-65535 if any, and only "
                    f"printable ASCII (percent-encode spaces and the rest), "
                    f"got {self.endpoint!r}"
                )
        if self.kind == BackendKind.MOCK and not self.mock_script:
            raise ValueError("mock backend needs a mock_script")


@dataclass(frozen=True)
class LmResponse:
    text: str
    latency_ms: int
    attempt_count: int

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency must be >= 0")
        if self.attempt_count < 1:
            raise ValueError("attempt_count must be >= 1")


# ---- backends ----


class _NoRedirects(urllib.request.HTTPRedirectHandler):
    """Follow no redirect, so the key never leaves the configured endpoint:
    a 3xx reply reaches the status mapping as an unexpected status."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class HttpBackend:
    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        key = os.environ.get(cfg.api_key_env)
        if not key:
            raise AuthFailure(
                f"no API key: set the {cfg.api_key_env} environment variable"
            )
        if re.search(r"[^\x21-\x7e]", key):  # a header value http.client cannot send
            raise AuthFailure(
                f"the API key in {cfg.api_key_env} must be printable ASCII "
                f"with no space, tab or line break"
            )
        self._headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
        }
        self._opener = urllib.request.build_opener(_NoRedirects)

    instrumented = True  # latency is measured wall time

    def complete_once(self, prompt: RenderedPrompt) -> str:
        cfg = self.cfg
        body = {
            "model": cfg.model,
            "temperature": cfg.temperature,
            "messages": prompt.as_chat(),
        }
        url = f"{cfg.endpoint.rstrip('/')}/chat/completions"
        request = urllib.request.Request(url, json.dumps(body).encode(), self._headers)
        try:
            try:
                with self._opener.open(request, timeout=cfg.timeout_ms / 1000.0) as reply:
                    status, raw = reply.status, reply.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    status, raw = exc.code, exc.read()
        except TimeoutError as exc:
            raise _Transient("timeout", f"request timed out: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise _Transient("timeout", f"connection failed: {exc}") from exc
        if status in (401, 403):
            raise AuthFailure(
                f"authentication rejected ({status}) using key from {cfg.api_key_env}"
            )
        if status == 429:
            raise _Transient("throttle", "rate limited (429)")
        if status >= 500:
            raise _Transient("throttle", f"server error ({status})")
        if status != 200:
            raise MalformedResponse(
                f"unexpected status {status}: {raw[:200].decode('utf-8', 'replace')}"
            )
        try:
            payload = json.loads(raw)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"cannot read completion text: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedResponse("completion text is not a string")
        return text


class MockBackend:
    """Deterministic scripted backend; thread-safe; zero reported latency."""

    instrumented = False

    def __init__(self, cfg: BackendConfig):
        self.rules = cfg.mock_script
        self._failures_left = [rule.fail_times for rule in self.rules]
        self._lock = threading.Lock()

    def complete_once(self, prompt: RenderedPrompt) -> str:
        text = prompt.text
        for idx, rule in enumerate(self.rules):
            if rule.match != "*" and rule.match not in text:
                continue
            with self._lock:
                if self._failures_left[idx] > 0:
                    self._failures_left[idx] -= 1
                    raise _Transient("throttle", f"scripted failure (rule {idx})")
            return rule.response
        raise MalformedResponse("no mock rule matched the prompt")


class OracleBackend:
    """Answers the ground-truth letter read from prompt metadata.

    When the prompt has no truth key, or the truth is not among the
    candidates, it answers the first letter.  Responses follow the
    prompt's answer schema so every strategy can be driven to its
    ceiling.
    """

    instrumented = False

    def __init__(self, cfg: BackendConfig):
        del cfg

    def complete_once(self, prompt: RenderedPrompt) -> str:
        position = 0
        meta = prompt.meta
        if meta.truth_key is not None:
            for idx, key in enumerate(meta.candidate_keys):
                if key == meta.truth_key:
                    position = idx
                    break
        letter = prompt.letters[position]
        schema = prompt.answer_schema
        if schema == AnswerSchema.LETTER_ONLY:
            return f"Answer: {letter}"
        if schema == AnswerSchema.LETTER_PLUS_CONFIDENCE:
            return f"Answer: {letter}\nConfidence: 9"
        if schema == AnswerSchema.PER_CANDIDATE_SCORES:
            return "\n".join(
                f"{lab}: {9 if lab == letter else 1}" for lab in prompt.letters
            )
        return json.dumps(
            {
                "understanding": "scripted oracle",
                "mechanism": "scripted oracle",
                "reasoning": "scripted oracle",
                "answer": letter,
                "confidence": 9,
            }
        )


def make_backend(cfg: BackendConfig):
    if cfg.kind == BackendKind.HTTP:
        return HttpBackend(cfg)
    if cfg.kind == BackendKind.MOCK:
        return MockBackend(cfg)
    return OracleBackend(cfg)


def _run_with_retries(backend, prompt: RenderedPrompt, cfg: BackendConfig) -> LmResponse:
    attempts: list[str] = []
    delay = cfg.backoff_base_s
    last: _Transient | None = None
    for attempt in range(1, cfg.max_retries + 2):
        started = time.monotonic()
        try:
            text = backend.complete_once(prompt)
        except _Transient as exc:
            attempts.append(f"attempt {attempt}: {exc}")
            last = exc
        except LmClientError as exc:
            attempts.append(f"attempt {attempt}: {exc}")
            raise type(exc)(str(exc), attempts) from exc
        else:
            latency = (
                int((time.monotonic() - started) * 1000)
                if backend.instrumented
                else 0
            )
            return LmResponse(text=text, latency_ms=latency, attempt_count=attempt)
        if attempt <= cfg.max_retries and delay > 0:
            time.sleep(delay + random.uniform(0, delay * 0.1))
            delay *= 2
    assert last is not None
    cls = Timeout if last.kind == "timeout" else RateLimitedExhausted
    raise cls(f"gave up after {len(attempts)} attempts: {last}", attempts)


def complete(prompt: RenderedPrompt, cfg: BackendConfig) -> LmResponse:
    """One-shot completion with retries on a fresh backend."""
    return _run_with_retries(make_backend(cfg), prompt, cfg)


# ---- answer parsing ----


class ParseStatus(str, Enum):
    CLEAN = "clean"
    RECOVERED = "recovered"
    FAILED = "failed"


@dataclass(frozen=True)
class ParsedAnswer:
    choice: int | None
    confidence: int | None = None
    per_candidate_scores: tuple[int, ...] | None = None
    parse_status: ParseStatus = ParseStatus.FAILED

    def __post_init__(self) -> None:
        if self.parse_status == ParseStatus.FAILED and self.choice is not None:
            raise ValueError("a failed parse cannot carry a choice")
        if self.parse_status != ParseStatus.FAILED and self.choice is None:
            raise ValueError("a successful parse needs a choice")
        if self.confidence is not None and not (1 <= self.confidence <= 9):
            raise ValueError("confidence must be in 1..9")


_ANSWER_LINE = re.compile(r"(?im)^[^\S\n]*answer[^\S\n]*:[^\S\n]*([A-Za-z])\b")
_CONFIDENCE_LINE = re.compile(r"(?im)^[^\S\n]*confidence[^\S\n]*:[^\S\n]*(\d+)\b")
_JSON_BLOCK = re.compile(r"\{.*\}", re.DOTALL)
_STANDALONE_LETTER = re.compile(r"\b([A-Z])\b")


def _letter_to_index(letter: str, k: int) -> int | None:
    index = string.ascii_uppercase.find(letter.upper())
    if 0 <= index < k:
        return index
    return None


def _json_candidate(text: str) -> dict | None:
    for chunk in (text, *_JSON_BLOCK.findall(text)):
        try:
            data = json.loads(chunk)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            return data
    return None


def _valid_confidence(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value if 1 <= value <= 9 else None
    if isinstance(value, str) and value.strip().isdigit():
        return _valid_confidence(int(value.strip()))
    return None


def parse_answer(text: str, schema: AnswerSchema, k: int) -> ParsedAnswer:
    """Extraction cascade: JSON 'answer', then an Answer line, then the
    first standalone capital letter.  Clean means the schema's own
    canonical form matched; any other successful route is Recovered."""
    if k < 1:
        raise ValueError("k must be >= 1")

    choice: int | None = None
    via: str | None = None

    data = _json_candidate(text)
    if data is not None and isinstance(data.get("answer"), str):
        candidate = data["answer"].strip()
        if candidate:
            choice = _letter_to_index(candidate[0], k)
            if choice is not None:
                via = "json"
    if choice is None:
        match = _ANSWER_LINE.search(text)
        if match:
            choice = _letter_to_index(match.group(1), k)
            if choice is not None:
                via = "answer_line"
    if choice is None:
        for match in _STANDALONE_LETTER.finditer(text):
            choice = _letter_to_index(match.group(1), k)
            if choice is not None:
                via = "standalone"
                break
    if choice is None:
        return ParsedAnswer(choice=None, parse_status=ParseStatus.FAILED)

    confidence: int | None = None
    if data is not None and "confidence" in data:
        confidence = _valid_confidence(data["confidence"])
    if confidence is None:
        match = _CONFIDENCE_LINE.search(text)
        if match:
            confidence = _valid_confidence(match.group(1))

    if schema == AnswerSchema.JSON_OBJECT:
        clean = via == "json"
    elif schema == AnswerSchema.LETTER_PLUS_CONFIDENCE:
        clean = via == "answer_line" and confidence is not None
    else:
        clean = via == "answer_line"
    status = ParseStatus.CLEAN if clean else ParseStatus.RECOVERED
    return ParsedAnswer(choice=choice, confidence=confidence, parse_status=status)


_SCORE_PAIR = re.compile(r"\b([A-Z])\s*:\s*(\d+)\b")


def parse_fine_grained(text: str, k: int) -> ParsedAnswer:
    """Per-candidate scores: 'A: 8' pairs, or a JSON letter->score map.

    All k letters must score (strictly 1..9) or the parse fails.  The
    choice is the score argmax; ties go to the lowest letter, i.e. the
    retrieval-preferred candidate."""
    if k < 1:
        raise ValueError("k must be >= 1")
    letters = string.ascii_uppercase[:k]

    scores: dict[str, int] = {}
    for match in _SCORE_PAIR.finditer(text):
        letter, raw = match.group(1), int(match.group(2))
        if letter in letters and letter not in scores and 1 <= raw <= 9:
            scores[letter] = raw
    via = "pairs"

    if len(scores) < k:
        data = _json_candidate(text)
        if isinstance(data, dict):
            from_json: dict[str, int] = {}
            for key, value in data.items():
                if not isinstance(key, str):
                    continue
                letter = key.strip().upper()
                confidence = _valid_confidence(value)
                if letter in letters and confidence is not None:
                    from_json[letter] = confidence
            if len(from_json) == k:
                scores = from_json
                via = "json"

    if len(scores) < k:
        return ParsedAnswer(choice=None, parse_status=ParseStatus.FAILED)

    ordered = tuple(scores[letter] for letter in letters)
    best = max(ordered)
    choice = ordered.index(best)  # first occurrence = lowest letter
    return ParsedAnswer(
        choice=choice,
        confidence=ordered[choice],
        per_candidate_scores=ordered,
        parse_status=ParseStatus.CLEAN if via == "pairs" else ParseStatus.RECOVERED,
    )


def parse_for_schema(text: str, schema: AnswerSchema, k: int) -> ParsedAnswer:
    if schema == AnswerSchema.PER_CANDIDATE_SCORES:
        return parse_fine_grained(text, k)
    return parse_answer(text, schema, k)


# ---- pipeline ----


def derive_seed(master: int, label: str) -> int:
    """Stable sub-stream seed: one master seed fans out by label."""
    digest = hashlib.sha256(f"{master}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def mes_vote(answers: Sequence[int]) -> int:
    """Modal candidate index; ties go to the lowest retrieval rank.

    Answers must already be rank indices (0 = retrieval-closest), which
    makes the tie-break 'lowest index among tied'.
    """
    if not answers:
        raise ValueError("cannot vote over zero answers")
    counts = Counter(answers)
    best = max(counts.values())
    return min(a for a, c in counts.items() if c == best)


@dataclass
class PredictionResult:
    query_id: str
    final_choice_id: str
    final_products: tuple[str, ...]
    final_keys: tuple[str, ...]
    final_rank: int
    parsed: ParsedAnswer
    candidates: CandidateList
    context: list[InContextExample]
    gnn_rank_of_truth: int | None
    token_estimate: int
    latency_ms: int
    attempt_count: int
    fell_back: bool
    mes_choices: tuple[int, ...] | None = None
    scores_by_rank: tuple[int, ...] | None = None


class Pipeline:
    """Retrieve, build context, render, complete, parse; with fallback.

    The pipelines of one command (each K of a sweep, each strategy of a
    comparison) share one ``RetrievalState``, so the training set is
    embedded at most once.  A pipeline whose strategy shows examples makes
    the embeddings when it is made, so concurrent predict() calls take no
    lock.  The backend is made on first use, under a lock taken only then.
    Randomness is derived per query id, so order changes nothing.
    """

    def __init__(
        self,
        corpus: ProductCorpus,
        train: Sequence[ReactionRecord],
        weights: GnnWeights,
        feature_cfg: FeatureConfig,
        prompt_cfg: PromptConfig,
        backend_cfg: BackendConfig,
        iupac_table: dict[str, str] | None = None,
        templates: TemplateSet | None = None,
        seed: int = 0,
        state: RetrievalState | None = None,
    ):
        check_fingerprint(corpus, weights)
        if state is None:
            state = RetrievalState(corpus, list(train), weights, feature_cfg)
        elif not (
            state.corpus is corpus and state.train is train
            and state.weights is weights and state.feature_cfg == feature_cfg
        ):
            raise ValueError("the retrieval state was built from other inputs")
        self.state = state
        self.corpus = corpus
        self.train = state.train
        self.weights = weights
        self.feature_cfg = feature_cfg
        self.prompt_cfg = prompt_cfg
        self.backend_cfg = backend_cfg
        self.iupac_table = iupac_table
        self.templates = templates
        self.seed = seed
        self._backend = None
        self._backend_lock = threading.Lock()
        if prompt_cfg.strategy.shows_examples:
            state.embeddings()

    @property
    def backend(self):
        if self._backend is None:
            with self._backend_lock:
                if self._backend is None:
                    self._backend = make_backend(self.backend_cfg)
        return self._backend

    def _embeddings(self):
        return self.state.embeddings()

    def _build_context(self, query: ReactionRecord, vector: Embedding) -> list[InContextExample]:
        cfg = self.prompt_cfg
        if not cfg.strategy.shows_examples:
            return []
        embeddings = self._embeddings()
        ranking = select_examples(
            query,
            self.train,
            len(self.train),
            self.weights,
            self.feature_cfg,
            train_embeddings=embeddings,
            query_embedding=vector,
        )
        examples = build_context(
            ranking[: cfg.n],
            self.train,
            self.corpus,
            cfg.k,
            self.weights,
            self.feature_cfg,
            fallback=ranking[cfg.n :],
            candidate_cache=self.state.candidate_cache(cfg.k),
            train_embeddings=embeddings,
        )
        if cfg.strategy.shows_confidence:
            per_query = replace(cfg.css, seed=derive_seed(self.seed, f"css|{query.id}"))
            examples = perturb_context(examples, per_query)
        return examples

    def _prepare(
        self, query: ReactionRecord
    ) -> tuple[CandidateList, RenderedPrompt, list[InContextExample]]:
        """Retrieve, build the context and render: predict() minus the backend.

        The query is embedded once, for its own scan and its examples' ranking."""
        vector = embed_set(query.reactant_graphs(), self.weights, self.feature_cfg)
        candidates = top_k_candidates(
            vector, self.corpus, self.prompt_cfg.k, self.weights, self.feature_cfg
        )
        context = self._build_context(query, vector)
        prompt = render(
            query,
            candidates,
            context,
            self.prompt_cfg,
            iupac_table={**(self.iupac_table or {}), **(query.iupac or {})},
            templates=self.templates,
        )
        return candidates, prompt, context

    def render_prompt(self, query: ReactionRecord) -> RenderedPrompt:
        """Everything predict() does short of calling the backend."""
        return self._prepare(query)[1]

    def predict(self, query: ReactionRecord) -> PredictionResult:
        candidates, prompt, context = self._prepare(query)
        runs = self.prompt_cfg.strategy.runs
        k_shown = len(prompt.letters)
        parses: list[ParsedAnswer] = []
        total_latency = 0
        total_attempts = 0
        for _ in range(runs):
            response = _run_with_retries(self.backend, prompt, self.backend_cfg)
            total_latency += response.latency_ms
            total_attempts += response.attempt_count
            parses.append(parse_for_schema(response.text, prompt.answer_schema, k_shown))

        rank_of = prompt.meta.rank_order  # display position -> rank index
        succeeded = [p for p in parses if p.parse_status != ParseStatus.FAILED]
        parsed = succeeded[0] if succeeded else parses[0]
        choices = tuple(rank_of[p.choice] for p in succeeded)
        rank_index = mes_vote(choices) if choices else 0  # retrieval top-1 fallback
        scores = parsed.per_candidate_scores
        scores_by_rank = None
        if scores is not None:
            scores_by_rank = tuple(s for _, s in sorted(zip(rank_of, scores)))

        entry = candidates.entries[rank_index]
        truth_rank = None
        if prompt.meta.truth_key is not None:
            position = candidates.position_of_key(prompt.meta.truth_key)
            truth_rank = position + 1 if position is not None else None
        return PredictionResult(
            query_id=query.id,
            final_choice_id=entry.entry_id,
            final_products=entry.products,
            final_keys=entry.keys,
            final_rank=rank_index,
            parsed=parsed,
            candidates=candidates,
            context=context,
            gnn_rank_of_truth=truth_rank,
            token_estimate=estimate_tokens(prompt) * runs,
            latency_ms=total_latency,
            attempt_count=total_attempts,
            fell_back=not choices,
            mes_choices=choices if runs > 1 and choices else None,
            scores_by_rank=scores_by_rank,
        )


def run_dataset(
    pipeline: Pipeline,
    records: Sequence[ReactionRecord],
    max_concurrency: int = 4,
) -> list[PredictionResult]:
    """Predict every record; results in input order."""
    if max_concurrency < 1:
        raise ValueError("max_concurrency must be >= 1")
    if max_concurrency == 1:
        return [pipeline.predict(r) for r in records]
    with ThreadPoolExecutor(max_workers=max_concurrency) as pool:
        return list(pool.map(pipeline.predict, records))
