"""The benchmark's hooks still name code that exists.

``perfbench/tracer.py`` wraps relm functions and methods by name, and
``perfbench/run.py`` and ``perfbench/checks.py`` patch or import a few
more.  A rename that breaks them would otherwise show only when someone
runs the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
