"""Span tracer that wraps ``relm``'s public functions from the outside.

``install`` replaces each traced function on every ``relm`` module
attribute that holds it (``top_k_candidates``, for one, is imported by
name into ``corpus``, ``lmclient`` and ``evaluation``, so patching only
its home module would miss most calls) and each traced method on its
class.  Spans carry name, start, end, parent and query id; they stay in
memory until ``write`` saves them after the run.  Calls made inside
``paused`` (the benchmark's own checks) record no span.  ``per_layer``
turns the spans into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# (span name, module, attribute path) of every traced callable
TARGETS = (
    ("molgraph.parse_smiles", "relm.molgraph.parser", "parse_smiles"),
    ("molgraph.canonical_key", "relm.molgraph.canonical", "canonical_key"),
    ("encoder.embed_set", "relm.encoder.model", "embed_set"),
    ("encoder.train_step", "relm.encoder.training", "contrastive_loss_and_grad"),
    ("corpus.build_index", "relm.corpus", "build_index"),
    ("corpus.load_index", "relm.corpus", "load_index"),
    ("corpus.load_dataset", "relm.corpus", "load_dataset"),
    ("corpus.top_k", "relm.corpus", "top_k_candidates"),
    ("corpus.select_examples", "relm.corpus", "select_examples"),
    ("corpus.build_context", "relm.corpus", "build_context"),
    ("prompt.render", "relm.prompt.render", "render"),
    ("lmclient.predict", "relm.lmclient", "Pipeline.predict"),
    ("lmclient.backend.http", "relm.lmclient", "HttpBackend.complete_once"),
    ("lmclient.backend.oracle", "relm.lmclient", "OracleBackend.complete_once"),
    ("lmclient.parse", "relm.lmclient", "parse_for_schema"),
    ("evaluation.build_report", "relm.evaluation", "build_report"),
    ("evaluation.hit_at_k", "relm.evaluation", "hit_at_k"),
    ("cli.build_index", "relm.cli", "cmd_build_index"),
    ("cli.evaluate", "relm.cli", "cmd_evaluate"),
    ("cli.train_toy", "relm.cli", "cmd_train_toy"),
)

# spans each workload kind must see; a traced run that misses one fails
EXPECTED = {
    "evaluate": (
        "molgraph.parse_smiles", "molgraph.canonical_key", "encoder.embed_set",
        "corpus.build_index", "corpus.load_index", "corpus.load_dataset",
        "corpus.top_k", "prompt.render", "lmclient.predict", "lmclient.parse",
        "evaluation.build_report", "evaluation.hit_at_k", "cli.build_index",
        "cli.evaluate",
    ),
    "context": ("corpus.select_examples", "corpus.build_context", "lmclient.backend.oracle"),
    "http": ("lmclient.backend.http",),
    "train": (
        "molgraph.parse_smiles", "molgraph.canonical_key", "encoder.embed_set",
        "encoder.train_step", "corpus.build_index", "corpus.load_dataset",
        "corpus.top_k", "evaluation.hit_at_k", "cli.train_toy",
    ),
}

PER_LAYER = {
    "molgraph.parse_smiles.calls_per_query": "count",
    "molgraph.parse_smiles.ms_per_query": "ms",
    "molgraph.canonical_key.calls_per_query": "count",
    "molgraph.canonical_key.ms_per_query": "ms",
    "molgraph.setup_ms": "ms",
    "encoder.embed_set.setup_calls": "count",
    "encoder.embed_set.setup_ms": "ms",
    "encoder.embed_set.calls_per_query": "count",
    "encoder.embed_set.ms_per_query": "ms",
    "encoder.train_step_ms": "ms",
    "corpus.build_index_ms": "ms",
    "corpus.load_index_ms": "ms",
    "corpus.load_dataset_ms": "ms",
    "corpus.top_k.calls_per_query": "count",
    "corpus.top_k.ms_per_call": "ms",
    "corpus.select_examples.ms_per_query": "ms",
    "corpus.build_context.self_ms_per_query": "ms",
    "corpus.context_substitutions_per_query": "count",
    "corpus.context_yield": "ratio",
    "prompt.render.ms_per_query": "ms",
    "prompt.tokens_per_query": "tokens",
    "lmclient.backend.calls_per_query": "count",
    "lmclient.backend.ms_per_call": "ms",
    "lmclient.backend.retries_per_query": "count",
    "lmclient.http.connections_per_call": "count",
    "lmclient.http.client_overhead_ms_per_call": "ms",
    "lmclient.parse.ms_per_query": "ms",
    "lmclient.predict.self_ms_per_query": "ms",
    "evaluation.build_report_ms": "ms",
    "evaluation.hit_at_k.top_k_calls": "count",
    "cli.evaluate.setup_ms": "ms",
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    query: str | None
    start: int
    end: int = 0
    error: bool = False
    # build_context only: training records examined and kept
    examined: int = 0
    kept: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def _context_counts(span: Span, args: tuple, kwargs: dict, result) -> None:
    """Records examined by build_context's walk, read from its inputs and
    output: every selected record, then fallback records (skipping the
    selected ones) up to the last one that was kept."""
    selected, train = list(args[0]), args[1]
    fallback = kwargs.get("fallback", args[6] if len(args) > 6 else ())
    kept_ids = {example.record.id for example in result}
    selected_set = set(selected)
    waiting = kept_ids - {train[i].id for i in selected}
    examined = len(selected)
    for idx in fallback:
        if not waiting:
            break
        if idx in selected_set:
            continue
        examined += 1
        waiting.discard(train[idx].id)
    span.examined, span.kept = examined, len(kept_ids)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rounds: list[tuple[int, int]] = []  # (round start, setup end) in ns
        self._ids = itertools.count(1)
        self._active = True
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        is_predict = name == "lmclient.predict"
        on_return = _context_counts if name == "corpus.build_context" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            query = args[1].id if is_predict else (parent.query if parent else None)
            span = Span(
                next(tracer._ids), parent.id if parent else None, name, query,
                time.perf_counter_ns(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        relm_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "relm" or n.startswith("relm."))
        ]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in relm_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def mark_round(self, start_ns: int, setup_end_ns: int) -> None:
        self.rounds.append((start_ns, setup_end_ns))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "name": s.name,
                         "query": s.query, "start_ns": s.start, "end_ns": s.end,
                         "error": s.error}
                    )
                    + "\n"
                )

    def missing(self, expected: tuple[str, ...]) -> list[str]:
        fired = {s.name for s in self.spans}
        return [name for name in expected if name not in fired]

    def per_layer(self, queries: int, stub: dict | None, tokens: float) -> dict:
        """Per-layer metrics; 'per query' divides by timed queries and
        counts only spans inside a predict call, 'per round' quantities
        are means over the run's rounds."""
        rounds = max(len(self.rounds), 1)
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms

        def in_setup(s: Span) -> bool:
            return s.query is None and any(a <= s.start < b for a, b in self.rounds)

        def named(name: str, where=None) -> list[Span]:
            return [
                s for s in self.spans
                if s.name.startswith(name) and (where is None or where(s))
            ]

        def per(total: float, base: float) -> float:
            return total / base if base else 0.0

        def in_query(s: Span) -> bool:
            return s.query is not None

        q = queries
        out: dict[str, float] = {}
        for short in ("parse_smiles", "canonical_key"):
            spans = named(f"molgraph.{short}", in_query)
            out[f"molgraph.{short}.calls_per_query"] = per(len(spans), q)
            out[f"molgraph.{short}.ms_per_query"] = per(sum(s.ms for s in spans), q)
        setup_mol = named("molgraph.", in_setup)
        out["molgraph.setup_ms"] = sum(s.ms for s in setup_mol) / rounds
        embed_setup = named("encoder.embed_set", in_setup)
        out["encoder.embed_set.setup_calls"] = len(embed_setup) / rounds
        out["encoder.embed_set.setup_ms"] = sum(s.ms for s in embed_setup) / rounds
        embed_query = named("encoder.embed_set", in_query)
        out["encoder.embed_set.calls_per_query"] = per(len(embed_query), q)
        out["encoder.embed_set.ms_per_query"] = per(sum(s.ms for s in embed_query), q)
        steps = named("encoder.train_step")
        out["encoder.train_step_ms"] = statistics.fmean(s.ms for s in steps) if steps else 0.0
        for short in ("build_index", "load_index", "load_dataset"):
            out[f"corpus.{short}_ms"] = sum(s.ms for s in named(f"corpus.{short}")) / rounds
        top_k = named("corpus.top_k", in_query)
        out["corpus.top_k.calls_per_query"] = per(len(top_k), q)
        out["corpus.top_k.ms_per_call"] = per(
            sum(s.ms - child_ms.get(s.id, 0.0) for s in top_k), len(top_k)
        )
        out["corpus.select_examples.ms_per_query"] = per(
            sum(s.ms for s in named("corpus.select_examples", in_query)), q
        )
        contexts = named("corpus.build_context", in_query)
        out["corpus.build_context.self_ms_per_query"] = per(
            sum(s.ms - child_ms.get(s.id, 0.0) for s in contexts), q
        )
        examined = sum(s.examined for s in contexts)
        kept = sum(s.kept for s in contexts)
        out["corpus.context_substitutions_per_query"] = per(examined - kept, q)
        out["corpus.context_yield"] = per(kept, examined)
        out["prompt.render.ms_per_query"] = per(
            sum(s.ms for s in named("prompt.render", in_query)), q
        )
        out["prompt.tokens_per_query"] = tokens
        backend = named("lmclient.backend.", in_query)
        out["lmclient.backend.calls_per_query"] = per(len(backend), q)
        out["lmclient.backend.ms_per_call"] = per(sum(s.ms for s in backend), len(backend))
        out["lmclient.backend.retries_per_query"] = per(sum(s.error for s in backend), q)
        http = named("lmclient.backend.http", in_query)
        if stub is not None and http:
            out["lmclient.http.connections_per_call"] = stub["connections"] / len(http)
            out["lmclient.http.client_overhead_ms_per_call"] = (
                sum(s.ms for s in http) - stub["service_ms"]
            ) / len(http)
        else:
            out["lmclient.http.connections_per_call"] = 0.0
            out["lmclient.http.client_overhead_ms_per_call"] = 0.0
        out["lmclient.parse.ms_per_query"] = per(
            sum(s.ms for s in named("lmclient.parse", in_query)), q
        )
        predicts = named("lmclient.predict")
        out["lmclient.predict.self_ms_per_query"] = per(
            sum(s.ms - child_ms.get(s.id, 0.0) for s in predicts), q
        )
        out["evaluation.build_report_ms"] = (
            sum(s.ms for s in named("evaluation.build_report")) / rounds
        )
        hit_ids = {s.id for s in named("evaluation.hit_at_k")}
        out["evaluation.hit_at_k.top_k_calls"] = (
            sum(1 for s in named("corpus.top_k") if s.parent in hit_ids) / rounds
        )
        setup_ms = []
        for s in named("cli.evaluate"):
            ends = [b for a, b in self.rounds if a <= s.start < b]
            if ends:
                setup_ms.append((ends[0] - s.start) / 1e6)
        out["cli.evaluate.setup_ms"] = statistics.fmean(setup_ms) if setup_ms else 0.0
        return out
