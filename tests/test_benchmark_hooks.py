"""The benchmark's hooks still name code that exists.

``perfbench/tracer.py`` wraps relm functions and methods by name, and
``perfbench/run.py`` and ``perfbench/checks.py`` patch or import a few
more.  A rename that breaks them would otherwise show only when someone
runs the benchmark.  The tracer also reads ``build_context``'s arguments
by position and rebuilds its walk's counts from their order, so both are
pinned here too.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import relm.encoder.training
from relm.corpus import build_context, corpus_from_records
from relm.encoder import EncoderConfig, TrainingHyper, random_init, train_contrastive
from relm.molgraph import FeatureConfig
from relm.synthetic import synthetic_reactions

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _resolve(module_name: str, attr: str):
    """The callable the tracer would patch: a module attribute, or a method
    found in its own class's __dict__; None when it is missing."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(owner, cls_name, object)).get(method)
    return getattr(owner, attr, None)


def test_every_traced_target_resolves(tracer):
    missing = [
        f"{module_name}:{attr}"
        for _, module_name, attr in tracer.TARGETS
        if not callable(_resolve(module_name, attr))
    ]
    assert missing == []


def test_every_expected_span_is_traced(tracer):
    traced = {name for name, _, _ in tracer.TARGETS}
    for kind, expected in tracer.EXPECTED.items():
        assert set(expected) <= traced, kind


@pytest.mark.parametrize(
    "module_name,attr",
    [
        ("relm.cli", "run_dataset"),
        ("relm.encoder.training", "contrastive_loss_and_grad"),
        ("relm.lmclient", "Pipeline._embeddings"),
        ("relm.corpus", "molecules_key"),
        ("relm.corpus", "parse_side"),
    ],
)
def test_names_the_benchmark_patches_or_imports_exist(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_training_calls_the_patched_loss_once_per_epoch(monkeypatch):
    # run.py's Measure times an epoch by swapping the module attribute
    real = relm.encoder.training.contrastive_loss_and_grad
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(relm.encoder.training, "contrastive_loss_and_grad", counting)
    feature_cfg = FeatureConfig()
    pairs = [(r.reactants, r.products) for r in synthetic_reactions(5, seed=3)]
    cfg = EncoderConfig(feature_dim=feature_cfg.feature_dim, embed_dim=4)
    result = train_contrastive(pairs, cfg, feature_cfg, TrainingHyper(epochs=3))
    assert len(calls) == 3 == len(result.loss_trace)


def test_build_context_positional_parameters_are_the_tracers():
    # _context_counts reads selected, train and fallback as args[0], [1], [6]
    names = list(inspect.signature(build_context).parameters)[:7]
    assert names == ["selected", "train", "corpus", "k", "weights", "feature_cfg", "fallback"]


@pytest.mark.parametrize(
    "selected,fallback,kept",
    [
        # the failing first slot takes the first fallback; the second slot stays second
        ([0, 2], [1, 3], [1, 2]),
        # a fallback index that is selected later is not taken early
        ([0, 2], [2, 1], [1, 2]),
        # a fallback index already used by an earlier slot is skipped
        ([2, 0], [2, 3, 1], [2, 1]),
    ],
)
def test_context_walk_order_and_the_tracers_counts(tracer, selected, fallback, kept):
    # at k=1 records 0 and 3 miss their own truth; records 1 and 2 hold it
    feature_cfg = FeatureConfig()
    weights = random_init(EncoderConfig(feature_dim=feature_cfg.feature_dim, embed_dim=8), seed=1)
    train = synthetic_reactions(12, seed=40)
    corpus = corpus_from_records(train, weights, feature_cfg)
    args = (selected, train, corpus, 1, weights, feature_cfg, fallback)
    cache = {}  # starts empty, so it ends holding every record the walk examined
    result = build_context(*args, candidate_cache=cache)
    assert [example.record.id for example in result] == [train[i].id for i in kept]
    span = tracer.Span(1, None, "corpus.build_context", None, 0)
    tracer._context_counts(span, args, {}, result)
    assert (span.examined, span.kept) == (len(cache), len(result))
