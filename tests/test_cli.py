"""Command-line interface: round trips, exit codes, file formats."""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relm.cli
import relm.encoder
import relm.encoder.training
import relm.evaluation
import relm.lmclient
import relm.molecules
import relm.molgraph.canonical
import relm.molgraph.parser
import relm.prompt
from relm.cli import main
from relm.corpus import (
    CssConfig,
    ReactionRecord,
    corpus_from_records,
    keys_path,
    save_dataset,
    save_index,
)
from relm.encoder import EncoderConfig, random_init, save_weights
from relm.lmclient import BackendConfig
from relm.loading import InputError
from relm.molgraph import FeatureConfig, parse_smiles
from relm.synthetic import synthetic_reactions

from helpers import KEYS_FILE_DAMAGE, damage_keys_file

FEATURE_CFG = FeatureConfig()
HTTP_BACKEND = {"kind": "http", "endpoint": "http://example.invalid/v1"}


def record_to_dict(record):
    data = {
        "id": record.id,
        "reactants": list(record.reactants),
        "products": list(record.products),
    }
    if record.condition is not None:
        data["condition"] = record.condition
    if record.reaction_type is not None:
        data["reaction_type"] = record.reaction_type
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    train = synthetic_reactions(16, seed=40)
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    corpus = corpus_from_records(train, weights, FEATURE_CFG)
    save_dataset(train, ws / "train.jsonl")
    save_weights(weights, ws / "weights.npz")
    save_index(corpus, ws / "index.json")
    query = dataclasses.replace(train[0], id="query-0")
    (ws / "query.json").write_text(json.dumps(record_to_dict(query)))
    base = {
        "weights": str(ws / "weights.npz"),
        "index": str(ws / "index.json"),
        "dataset": str(ws / "train.jsonl"),
        "backend": {"kind": "oracle"},
        "strategy": "css",
        "k": 4,
        "n": 3,
        "seed": 0,
    }
    (ws / "config.json").write_text(json.dumps(base))
    return ws, base, train


def write_config(path, base, **edits):
    merged = {**base, **edits}
    path.write_text(json.dumps(merged))
    return str(path)


def test_full_round_trip(workspace, tmp_path, capsys):
    ws, base, train = workspace
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        weights=str(tmp_path / "w.npz"),
        index=str(tmp_path / "idx.json"),
    )

    code = main(
        [
            "train-toy",
            "--config",
            cfg_path,
            "--embed-dim",
            "8",
            "--epochs",
            "3",
            "--out-weights",
            str(tmp_path / "w.npz"),
            "--out-trace",
            str(tmp_path / "trace.csv"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "final hit@1:" in out
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "epoch,loss"
    assert len(trace_lines) == 4  # header + one row per epoch

    code = main(
        ["build-index", "--config", cfg_path, "--out", str(tmp_path / "idx.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(f"wrote {tmp_path / 'idx.json'}: 16 entries")
    assert "fingerprint" in out

    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == [
        "candidates",
        "choice_id",
        "confidence",
        "parse_status",
        "products",
    ]
    assert len(payload["candidates"]) == 4
    assert payload["parse_status"] in {"clean", "recovered"}

    code = main(
        [
            "evaluate",
            "--config",
            cfg_path,
            "--out-dir",
            str(tmp_path / "reports"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("K=4 accuracy=")
    assert "hit@4=" in out and "parse_failure_rate=0.0000" in out
    assert (tmp_path / "reports" / "report_k4.json").exists()
    assert (tmp_path / "reports" / "samples_k4.csv").exists()


def test_predict_dry_run_needs_no_api_key(workspace, tmp_path, capsys, monkeypatch):
    ws, base, _ = workspace
    monkeypatch.delenv("RELM_API_KEY", raising=False)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "http", "endpoint": "http://example.invalid/v1"},
    )
    code = main(
        [
            "predict",
            "--config",
            cfg_path,
            "--reaction",
            str(ws / "query.json"),
            "--dry-run",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Question:" in out
    assert "A. " in out


def test_predict_flag_overrides_config_k(workspace, capsys):
    ws, base, _ = workspace
    code = main(
        [
            "predict",
            "--config",
            str(ws / "config.json"),
            "--reaction",
            str(ws / "query.json"),
            "--k",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["candidates"]) == 2


def test_inspect_prompt_renders_without_backend(workspace, capsys):
    ws, base, _ = workspace
    code = main(
        [
            "inspect-prompt",
            "--config",
            str(ws / "config.json"),
            "--reaction",
            str(ws / "query.json"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Question:" in captured.out
    assert "--- schema=letter_plus_confidence" in captured.err
    assert "letters=A,B,C,D" in captured.err


def test_inspect_prompt_prints_the_predict_dry_run(workspace, capsys):
    ws, _, _ = workspace
    args = ["--config", str(ws / "config.json"), "--reaction", str(ws / "query.json")]
    assert main(["predict", *args, "--dry-run"]) == 0
    dry_run = capsys.readouterr()
    assert main(["inspect-prompt", *args]) == 0
    inspected = capsys.readouterr()
    assert inspected.out == dry_run.out
    assert dry_run.err == ""
    assert inspected.err.startswith("--- schema=letter_plus_confidence letters=")
    assert "tokens~" in inspected.err


# ---- exit codes ----


@pytest.mark.parametrize("stdout,code", [("buffered", 1), ("unbuffered", 1), ("absent", 0)])
@pytest.mark.parametrize(
    "command",
    [["predict", "--reaction", "query.json"], ["evaluate", "--out-dir", "reports"]],
    ids=["predict", "evaluate"],
)
def test_closed_stdout_ends_quietly(workspace, tmp_path, command, stdout, code):
    # `relm evaluate ... | head -1`: the reader is gone before the command
    # writes, so its first write or its last flush meets a broken pipe and
    # it exits 1.  A process started with stdout closed has no stdout at all:
    # its prints go nowhere and it exits 0
    ws, _, _ = workspace
    name, *flags = command
    flags[-1] = str((ws if name == "predict" else tmp_path) / flags[-1])
    env = {**os.environ, "PYTHONPATH": str(Path(relm.cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if stdout == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "relm.cli", name, "--config", str(ws / "config.json"), *flags],
            stdout=None if stdout == "absent" else write_end,
            preexec_fn=(lambda: os.close(1)) if stdout == "absent" else None,
            stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


def test_missing_config_file_exits_2(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    code = main(
        [
            "predict",
            "--config",
            str(tmp_path / "nope.json"),
            "--reaction",
            str(ws / "query.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edits,fragment",
    [
        ({"bogus_key": 1}, "bogus_key"),
        ({"css": {"high_set": [9], "nope": 1}}, "nope"),
        ({"backend": {"kind": "oracle", "shade": 1}}, "shade"),
        ({"strategy": "bogus"}, "bogus"),
        ({"backend": {"kind": "nosuch"}}, "nosuch"),
        ({"n": 1}, "needs n >= 2"),
        ({"css": {"num_perturbed": 4}}, "needs n >= 2"),
        ({"k": "4"}, "k must be of type int"),
        ({"n": 2.5}, "n must be of type int"),
        ({"shuffle_candidates": "false"}, "shuffle_candidates must be of type bool"),
        ({"strategy": 5}, "strategy must be of type str, got 5"),
        ({"dataset": 5}, "dataset must be of type str, got 5"),
        ({"templates": 5}, "templates must be of type str, got 5"),
        ({"iupac": 5}, "iupac must be of type str, got 5"),
        (
            {"backend": {"kind": "mock", "mock_script": 5}},
            "backend.mock_script must be of type str, got 5",
        ),
        (
            {"backend": {"kind": "http", "endpoint": 5}},
            "backend.endpoint must be of type str, got 5",
        ),
        (
            {"backend": {**HTTP_BACKEND, "api_key_env": 5}},
            "backend.api_key_env must be of type str, got 5",
        ),
        (
            {"backend": {**HTTP_BACKEND, "max_retries": 2.5}},
            "backend.max_retries must be of type int, got 2.5",
        ),
        (
            {"strategy": "css", "css": {"num_perturbed": True}},
            "css.num_perturbed must be of type int, got True",
        ),
        *(
            (
                {"backend": {**HTTP_BACKEND, "endpoint": endpoint}},
                "backend: http backend needs an http:// or https:// endpoint",
            )
            for endpoint in (
                "api.example.com/v1",
                "ftp://example.com/v1",
                "http://",
                "http://example.com:abc/v1",
                "http://example.com:70000/v1",
                "http://example.com/my v1",
                "http://example.com/v1\x00",
            )
        ),
        *(
            ({"backend": {**HTTP_BACKEND, name: value}}, f"backend: {name} must be a finite number")
            for name in ("temperature", "backoff_base_s")
            for value in (float("nan"), float("inf"))
        ),
    ],
)
def test_bad_config_exits_2(workspace, tmp_path, capsys, edits, fragment):
    ws, base, _ = workspace
    cfg_path = write_config(tmp_path / "cfg.json", base, **edits)
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    assert code == 2
    assert fragment in capsys.readouterr().err


FILE_KEYS = (
    sorted(relm.cli._TOP_KEYS)
    + [f"css.{f.name}" for f in dataclasses.fields(CssConfig)]
    + [f"backend.{f.name}" for f in dataclasses.fields(BackendConfig)]
)


@pytest.mark.parametrize("key", FILE_KEYS)
def test_every_config_key_checks_its_type(workspace, tmp_path, capsys, key):
    # a JSON value that no field accepts must be a user error, never a crash
    ws, base, _ = workspace
    section, _, name = key.rpartition(".")
    if section == "backend":
        edits = {"backend": {**HTTP_BACKEND, name: [[1]]}}
    elif section == "css":
        edits = {"css": {name: [[1]]}}
    else:
        edits = {key: [[1]]}
    cfg_path = write_config(tmp_path / "cfg.json", base, **edits)
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" not in err
    assert key in err


@pytest.mark.parametrize(
    "edits,flags,content",
    [
        ({}, ["--config", "BAD"], None),
        ({"weights": "BAD"}, [], None),
        ({"index": "BAD"}, [], None),
        ({"dataset": "BAD"}, [], None),
        ({"iupac": "BAD"}, [], None),
        ({"backend": {"kind": "mock", "mock_script": "BAD"}}, [], None),
        ({}, ["--reaction", "BAD"], None),
        ({}, ["--eval-dataset", "BAD"], None),
        ({"dataset": "BAD"}, [], b'{"id": "caf\xe9", "reactants": ["C"], "products": ["C"]}\n'),
    ],
    ids=[
        "config", "weights", "index", "dataset", "iupac", "mock_script", "reaction",
        "eval_dataset", "latin1_dataset",
    ],
)
def test_unreadable_input_file_exits_2(workspace, tmp_path, capsys, edits, flags, content):
    # BAD is a directory, or a file holding content (here not UTF-8)
    ws, base, _ = workspace
    bad = tmp_path / "bad_input"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    edits = json.loads(json.dumps(edits).replace('"BAD"', json.dumps(str(bad))))
    flags = [str(bad) if flag == "BAD" else flag for flag in flags]
    cfg_path = write_config(tmp_path / "cfg.json", base, **edits)
    if "--eval-dataset" in flags:
        command = ["evaluate", "--out-dir", str(tmp_path / "reports")]
    else:
        command = ["predict", "--reaction", str(ws / "query.json")]
    code = main([*command, "--config", cfg_path, *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" not in err
    assert str(bad) in err


def test_missing_referenced_file_exits_2(workspace, tmp_path, capsys):
    ws, base, _ = workspace
    cfg_path = write_config(
        tmp_path / "cfg.json", base, dataset=str(tmp_path / "absent.jsonl")
    )
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_http_without_key_exits_2_naming_variable(
    workspace, tmp_path, capsys, monkeypatch
):
    ws, base, _ = workspace
    monkeypatch.delenv("RELM_API_KEY", raising=False)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "http", "endpoint": "http://example.invalid/v1"},
    )
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    assert code == 2
    assert "RELM_API_KEY" in capsys.readouterr().err


def test_http_key_with_a_line_break_exits_2_without_echoing_it(
    workspace, tmp_path, capsys, monkeypatch
):
    ws, base, _ = workspace
    monkeypatch.setenv("RELM_API_KEY", "sk-secret\nX-Injected: 1")
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "http", "endpoint": "http://example.invalid/v1"},
    )
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "RELM_API_KEY" in err and "sk-secret" not in err


def test_backend_failure_exits_1(workspace, tmp_path, capsys):
    ws, base, _ = workspace
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"match": "zz-never", "response": "x"}]))
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "mock", "mock_script": str(script)},
    )
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    assert code == 1
    assert "backend failure" in capsys.readouterr().err


def test_internal_value_error_exits_1(workspace, capsys, monkeypatch):
    ws, _, _ = workspace

    def broken(path):
        raise ValueError("an internal bug")

    monkeypatch.setattr(relm.cli, "load_record", broken)
    code = main(
        [
            "predict",
            "--config",
            str(ws / "config.json"),
            "--reaction",
            str(ws / "query.json"),
        ]
    )
    assert code == 1
    assert "internal error: ValueError: an internal bug" in capsys.readouterr().err


def test_internal_file_not_found_exits_1(workspace, capsys, monkeypatch):
    # every path a user names is checked or read with the caller's own error
    # type, so a bare FileNotFoundError that reaches main is a bug
    ws, _, _ = workspace

    def broken(path):
        raise FileNotFoundError(2, "No such file or directory", "internal.tmp")

    monkeypatch.setattr(relm.cli, "load_index", broken)
    code = main(["evaluate", "--config", str(ws / "config.json")])
    assert code == 1
    assert "internal error: FileNotFoundError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["build-index", "--out", "idx.json"],
        ["predict", "--reaction", "query.json"],
        ["evaluate"],
        ["compare-strategies", "--strategies", "plain", "--out", "rows.csv"],
        ["train-toy", "--out-weights", "w.json", "--out-trace", "trace.csv"],
        ["inspect-prompt", "--reaction", "query.json"],
    ],
    ids=lambda command: command[0],
)
def test_every_command_exits_2_on_any_input_error(tmp_path, capsys, monkeypatch, command):
    # an error type no module defines: being an InputError is all exit 2 needs
    class Boom(InputError, ValueError):
        pass

    def broken(*args, **kwargs):
        raise Boom("a bad input")

    monkeypatch.setattr(relm.cli, "load_run_config", broken)
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    assert capsys.readouterr().err == "error: a bad input\n"


# backend failures, and errors no input or setting causes: they exit 1
EXIT_1_ERRORS = {
    "LmClientError",
    "Timeout",
    "RateLimitedExhausted",
    "MalformedResponse",
    "NonFiniteLoss",
    "EmptySet",
    "DegenerateRanks",
    "_Transient",
    "_Mismatch",
}


def test_every_error_type_is_an_input_error_or_exits_1():
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(relm.__path__, "relm.")
    ]
    errors = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    names = {error.__name__ for error in errors}
    assert EXIT_1_ERRORS <= names, EXIT_1_ERRORS - names
    unsorted = [
        error.__name__
        for error in errors
        if not issubclass(error, InputError) and error.__name__ not in EXIT_1_ERRORS
    ]
    assert not unsorted, f"neither InputError nor listed as exit 1: {sorted(unsorted)}"


def test_zero_weights_build_an_index_but_css_exits_2(workspace, tmp_path, capsys):
    # every embedding is the zero vector: retrieval still ranks the index,
    # but CSS example selection needs a cosine similarity
    ws, base, _ = workspace
    payload = json.loads((ws / "weights.npz").read_text())
    for hops in payload["layers"]:
        for hop in hops:
            hop["data"] = [0.0] * len(hop["data"])
    (tmp_path / "w.json").write_text(json.dumps(payload))
    cfg_path = write_config(
        tmp_path / "cfg.json", base,
        weights=str(tmp_path / "w.json"), index=str(tmp_path / "idx.json"),
    )
    assert main(["build-index", "--config", cfg_path, "--out", str(tmp_path / "idx.json")]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")])
    assert code == 2
    assert capsys.readouterr().err == "error: cosine similarity undefined for a zero vector\n"
    assert not (tmp_path / "reports").exists()  # made only for a report


def test_bad_strategies_value_exits_2(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    code = main(
        [
            "compare-strategies",
            "--config",
            str(ws / "config.json"),
            "--strategies",
            "plain,no_such_strategy",
            "--out",
            str(tmp_path / "rows.csv"),
        ]
    )
    assert code == 2
    assert "no_such_strategy" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "script",
    [
        "not json",
        '{"match": "*"}',
        '[{"match": "*"}]',
        '[{"match": "*", "response": "A", "extra": 1}]',
        '[{"match": "*", "response": "A", "fail_times": true}]',
        '[{"match": "*", "response": "A", "fail_times": 1.7}]',
        '[{"match": 5, "response": 7}]',
        '[{"match": "*", "response": "A", "fail_times": -1}]',
    ],
)
def test_malformed_mock_script_exits_2(workspace, tmp_path, capsys, script):
    ws, base, _ = workspace
    (tmp_path / "script.json").write_text(script)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "mock", "mock_script": str(tmp_path / "script.json")},
    )
    code = main(
        ["predict", "--config", cfg_path, "--reaction", str(ws / "query.json")]
    )
    assert code == 2
    assert "script.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--epochs", "-1"],
        ["--learning-rate", "0"],
        ["--embed-dim", "0"],
        ["--margin", "nan"],
        ["--learning-rate", "inf"],
    ],
)
def test_bad_training_settings_exit_2(workspace, tmp_path, capsys, flags):
    ws, _, _ = workspace
    code = main(
        [
            "train-toy",
            "--config",
            str(ws / "config.json"),
            *flags,
            "--out-weights",
            str(tmp_path / "w.json"),
            "--out-trace",
            str(tmp_path / "trace.csv"),
        ]
    )
    assert code == 2
    assert "training settings" in capsys.readouterr().err


def test_train_toy_on_one_reaction_exits_2(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    first = (ws / "train.jsonl").read_text().splitlines()[0]
    (tmp_path / "one.jsonl").write_text(first + "\n")
    code = main(
        [
            "train-toy",
            "--dataset",
            str(tmp_path / "one.jsonl"),
            "--out-weights",
            str(tmp_path / "w.json"),
            "--out-trace",
            str(tmp_path / "trace.csv"),
        ]
    )
    assert code == 2
    assert "at least two reactions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--out-dir", "reports"],
        ["compare-strategies", "--strategies", "plain,zero_shot", "--out", "rows.csv"],
    ],
    ids=["evaluate", "compare_strategies"],
)
def test_missing_truth_fails_before_backend(workspace, tmp_path, monkeypatch, capsys, command):
    ws, base, _ = workspace
    alien = {
        "id": "alien",
        "reactants": ["CCO"],
        "products": ["CCCCCCCCCCCCCCCCCCCCO"],  # parses, but is not in the index
    }
    eval_path = tmp_path / "eval.jsonl"
    eval_path.write_text(json.dumps(alien) + "\n")
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"match": "zz-never", "response": "x"}]))
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        backend={"kind": "mock", "mock_script": str(script)},
    )
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--config", cfg_path, "--eval-dataset", str(eval_path)])
    err = capsys.readouterr().err
    # the script matches no prompt, so a backend call would exit 1; truth
    # validation must win, and nothing may be written
    assert code == 2
    assert "alien" in err
    assert not (tmp_path / "reports").exists() and not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "strategies,code",
    [("plain", 0), ("plain,css", 2)],
)
def test_compare_strategies_checks_the_compared_strategies(
    workspace, tmp_path, capsys, strategies, code
):
    # n=1 is too few for css, which the config names but only the last
    # case compares; plain and zero-shot show no confidence examples
    ws, base, _ = workspace
    cfg_path = write_config(tmp_path / "cfg.json", base, strategy="css", n=1)
    out = tmp_path / "rows.csv"
    assert main(
        ["compare-strategies", "--config", cfg_path, "--strategies", strategies,
         "--out", str(out)]
    ) == code
    if code:
        assert "css needs n >= 2 and css num_perturbed <= n" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert len(out.read_text().splitlines()) == 1 + len(strategies.split(","))


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--out-dir", "reports"],
        ["compare-strategies", "--strategies", "plain,css", "--out", "rows.csv"],
    ],
    ids=["evaluate", "compare_strategies"],
)
def test_too_few_examples_for_css_exits_2(workspace, tmp_path, monkeypatch, capsys, command):
    # two records: each query's own record is never its example, so one is left
    ws, base, train = workspace
    save_dataset(train[:2], tmp_path / "two.jsonl")
    cfg_path = write_config(
        tmp_path / "cfg.json", base, dataset=str(tmp_path / "two.jsonl"), n=2
    )
    monkeypatch.chdir(tmp_path)
    code = main([*command, "--config", cfg_path])
    err = capsys.readouterr().err
    assert code == 2
    assert "n=2" in err and "1 usable example record" in err, err
    assert not (tmp_path / "reports").exists() and not (tmp_path / "rows.csv").exists()


def test_unbuildable_context_exits_2(tmp_path, capsys):
    # four reactions leave too few whose truth is in their own top-2
    train = synthetic_reactions(4, seed=0)
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=16), seed=0
    )
    save_dataset(train, tmp_path / "train.jsonl")
    save_weights(weights, tmp_path / "w.json")
    save_index(corpus_from_records(train, weights, FEATURE_CFG), tmp_path / "index.json")
    cfg_path = write_config(
        tmp_path / "cfg.json",
        {
            "weights": str(tmp_path / "w.json"),
            "index": str(tmp_path / "index.json"),
            "dataset": str(tmp_path / "train.jsonl"),
            "backend": {"kind": "oracle"},
            "strategy": "plain",
            "k": 2,
            "n": 3,
        },
    )
    code = main(
        ["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")]
    )
    assert code == 2
    assert "truth in top-2" in capsys.readouterr().err


def test_bad_k_sweep_exits_2(workspace, tmp_path, capsys):
    ws, base, _ = workspace
    code = main(
        [
            "evaluate",
            "--config",
            str(ws / "config.json"),
            "--k",
            "7..2",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "7..2" in capsys.readouterr().err


def test_a_k_past_the_letter_labels_exits_2_before_any_report(tmp_path, capsys):
    # 60 product sets: K=25 and K=26 could run, but K=27 cannot be lettered
    train = synthetic_reactions(60, seed=0)
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    save_dataset(train, tmp_path / "train.jsonl")
    save_weights(weights, tmp_path / "w.json")
    save_index(corpus_from_records(train, weights, FEATURE_CFG), tmp_path / "index.json")
    cfg_path = write_config(
        tmp_path / "cfg.json",
        {
            "weights": str(tmp_path / "w.json"),
            "index": str(tmp_path / "index.json"),
            "dataset": str(tmp_path / "train.jsonl"),
            "backend": {"kind": "oracle"},
            "strategy": "plain",
        },
    )
    reports = tmp_path / "reports"
    code = main(["evaluate", "--config", cfg_path, "--k", "25..27", "--out-dir", str(reports)])
    assert code == 2
    assert capsys.readouterr().err == "error: 27 candidates exceed the letter labels\n"
    assert not reports.exists()


@pytest.mark.parametrize("spec", ["1..99999999999999999999", "1..27"])
def test_an_over_long_k_sweep_exits_2_before_any_evaluation(workspace, tmp_path, capsys, spec):
    # more K values than the 26 letter labels: one would exceed the letters
    # or repeat the candidates of a smaller K
    ws, _, _ = workspace
    reports = tmp_path / "reports"
    code = main(["evaluate", "--config", str(ws / "config.json"), "--k", spec,
                 "--out-dir", str(reports)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: bad --k value: K range {spec!r} has more than 26 values\n"
    assert not reports.exists()
    assert relm.cli._parse_k_spec("3..28") == list(range(3, 29))


@pytest.mark.parametrize("damage", KEYS_FILE_DAMAGE)
def test_evaluate_with_a_damaged_keys_file_writes_what_no_keys_file_gives(
    workspace, tmp_path, damage
):
    ws, base, _ = workspace
    index = tmp_path / "index.json"
    shutil.copy(ws / "index.json", index)
    shutil.copy(keys_path(ws / "index.json"), keys_path(index))
    cfg_path = write_config(tmp_path / "cfg.json", base, index=str(index))
    damage_keys_file(index, damage)
    outputs = []
    for out_dir in (tmp_path / "damaged", tmp_path / "none"):
        assert main(["evaluate", "--config", cfg_path, "--out-dir", str(out_dir)]) == 0
        outputs.append([(out_dir / name).read_bytes() for name in ("report_k4.json", "samples_k4.csv")])
        keys_path(index).unlink(missing_ok=True)
    assert outputs[0] == outputs[1]


def test_unknown_subcommand_raises_system_exit(workspace):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# ---- evaluate details ----


def test_evaluate_sweep_writes_per_k_reports(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "evaluate",
            "--config",
            str(ws / "config.json"),
            "--k",
            "2..4",
            "--out-dir",
            str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    for k in (2, 3, 4):
        assert (out_dir / f"report_k{k}.json").exists()
        assert (out_dir / f"samples_k{k}.csv").exists()
        assert f"K={k} accuracy=" in out
    # the oracle re-ranker sits exactly on the retrieval ceiling
    for line in out.splitlines():
        k = int(line.split()[0].removeprefix("K="))
        acc = float(line.split("accuracy=")[1].split()[0])
        hit = float(line.split(f"hit@{k}=")[1].split()[0])
        assert acc == hit


def test_evaluate_output_is_byte_deterministic(workspace, tmp_path):
    ws, _, _ = workspace
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(ws / "config.json"),
                    "--out-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
    a, b = dirs
    assert (a / "samples_k4.csv").read_bytes() == (b / "samples_k4.csv").read_bytes()
    assert (a / "report_k4.json").read_bytes() == (b / "report_k4.json").read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["evaluate", "--k", "2..3", "--out-dir", "reports"],
        ["compare-strategies", "--strategies", "plain,css", "--out", "rows.csv"],
    ],
)
def test_queries_run_serially_by_default(workspace, tmp_path, monkeypatch, command):
    # threads only help the HTTP backend, so a config without
    # max_concurrency runs one query at a time
    ws, base, _ = workspace
    assert "max_concurrency" not in base
    name, *flags = command
    # compare-strategies runs its queries through the library's loop
    module = relm.evaluation if name == "compare-strategies" else relm.cli
    real = module.run_dataset
    calls = []

    def counting(pipeline, records, max_concurrency):
        calls.append(max_concurrency)
        return real(pipeline, records, max_concurrency)

    monkeypatch.setattr(module, "run_dataset", counting)
    flags[-1] = str(tmp_path / flags[-1])
    assert main([name, "--config", str(ws / "config.json"), *flags]) == 0
    assert calls == [1, 1]
    for function in (relm.lmclient.run_dataset, relm.evaluation.compare_strategies):
        assert inspect.signature(function).parameters["max_concurrency"].default == 1


def test_compare_strategies_cli(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    out = tmp_path / "rows.csv"
    code = main(
        [
            "compare-strategies",
            "--config",
            str(ws / "config.json"),
            "--strategies",
            "plain,mes:plain:3",
            "--out",
            str(out),
        ]
    )
    stdout = capsys.readouterr().out
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,acc,tokens,time_s"
    plain = lines[1].split(",")
    mes = lines[2].split(",")
    assert plain[0] == "plain" and mes[0] == "mes:plain:3"
    assert float(mes[2]) == 3 * float(plain[2])
    assert "plain: acc=" in stdout


@pytest.mark.parametrize("strategy", ["plain", "css", "mes:css:3", "fine_grained_css"])
def test_compare_strategies_uses_config_templates_and_iupac(
    workspace, tmp_path, capsys, strategy
):
    # each kind of row (examples, confidences, multi-run votes, per-candidate
    # scores) equals the report evaluate writes for that strategy
    ws, base, train = workspace
    templates = tmp_path / "templates"
    shutil.copytree(Path(relm.prompt.__file__).parent / "templates", templates)
    header = templates / "header_plain.txt"
    header.write_text("Read every candidate before you answer.\n" + header.read_text())
    smiles = {s for r in train for s in (*r.reactants, *r.products)}
    (tmp_path / "iupac.json").write_text(
        json.dumps({s: "a rather long systematic name" for s in smiles})
    )
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        strategy=strategy,
        templates=str(templates),
        iupac=str(tmp_path / "iupac.json"),
        molecule_rendering="smiles_plus_iupac",
    )
    assert main(
        ["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")]
    ) == 0
    report = json.loads((tmp_path / "reports" / "report_k4.json").read_text())
    out = tmp_path / "rows.csv"
    assert main(
        ["compare-strategies", "--config", cfg_path, "--strategies", strategy,
         "--out", str(out)]
    ) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) == report["accuracy"]
    assert float(row[2]) == report["mean_tokens"]
    assert float(row[3]) == report["mean_latency_ms"] / 1000


def test_train_toy_zero_epochs(workspace, tmp_path, capsys):
    ws, base, _ = workspace
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        weights=str(tmp_path / "w.npz"),
        index=str(tmp_path / "idx.json"),
    )
    code = main(
        [
            "train-toy",
            "--config",
            cfg_path,
            "--embed-dim",
            "8",
            "--epochs",
            "0",
            "--out-weights",
            str(tmp_path / "w.npz"),
            "--out-trace",
            str(tmp_path / "trace.csv"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "trace.csv").read_text() == "epoch,loss\n"
    assert "final hit@1:" in out


def test_train_toy_divergence_exits_1(workspace, tmp_path, capsys):
    ws, base, _ = workspace
    cfg_path = write_config(
        tmp_path / "cfg.json",
        base,
        weights=str(tmp_path / "w.npz"),
        index=str(tmp_path / "idx.json"),
    )
    code = main(
        [
            "train-toy",
            "--config",
            cfg_path,
            "--embed-dim",
            "8",
            "--epochs",
            "200",
            "--learning-rate",
            "1e12",
            "--out-weights",
            str(tmp_path / "w.npz"),
            "--out-trace",
            str(tmp_path / "trace.csv"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "training diverged at epoch" in err
    assert not (tmp_path / "w.npz").exists()


def test_fingerprint_mismatch_exits_2(workspace, tmp_path, capsys):
    ws, base, train = workspace
    other = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=9
    )
    save_weights(other, tmp_path / "other.npz")
    cfg_path = write_config(
        tmp_path / "cfg.json", base, weights=str(tmp_path / "other.npz")
    )
    code = main(
        [
            "evaluate",
            "--config",
            cfg_path,
            "--out-dir",
            str(tmp_path / "reports"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "built with different weights" in err


@pytest.mark.parametrize(
    "command",
    [
        ["build-index", "--out", "DIR"],
        ["evaluate", "--out-dir", "FILE"],
        ["compare-strategies", "--strategies", "plain", "--out", "DIR"],
        ["train-toy", "--epochs", "1", "--out-weights", "DIR", "--out-trace", "TRACE"],
        ["train-toy", "--epochs", "1", "--out-weights", "WEIGHTS", "--out-trace", "DIR"],
    ],
    ids=["index", "report_dir", "strategy_table", "weights", "trace"],
)
def test_unwritable_output_path_exits_2(workspace, tmp_path, capsys, command):
    ws, _, _ = workspace
    paths = {
        "DIR": tmp_path / "a_directory",
        "FILE": tmp_path / "a_file",
        "TRACE": tmp_path / "trace.csv",
        "WEIGHTS": tmp_path / "w.json",
    }
    paths["DIR"].mkdir()
    paths["FILE"].write_text("not a directory\n")
    argv = [str(paths.get(arg, arg)) for arg in command]
    code = main([*argv, "--config", str(ws / "config.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" not in err
    bad = paths["FILE"] if "FILE" in command else paths["DIR"]
    assert f"{bad}:" in err
    assert not list(tmp_path.glob(".*.tmp"))  # no temporary file left behind


@pytest.mark.parametrize("literal", ["true", '"1.5"', "1e400"])
def test_non_numeric_or_infinite_weight_exits_2(workspace, tmp_path, capsys, literal):
    ws, base, _ = workspace
    payload = json.loads((ws / "weights.npz").read_text())
    payload["layers"][0][0]["data"][0] = "VALUE"
    (tmp_path / "w.json").write_text(json.dumps(payload).replace('"VALUE"', literal))
    cfg_path = write_config(tmp_path / "cfg.json", base, weights=str(tmp_path / "w.json"))
    code = main(["build-index", "--config", cfg_path, "--out", str(tmp_path / "idx.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "layer 0 hop 0 data" in err


@pytest.mark.parametrize(
    "scale, layers", [(1e200, 2), (1e300, 1)], ids=["every_layer_x1e200", "layer_0_x1e300"]
)
def test_weights_that_overflow_the_encoder_exit_2(workspace, tmp_path, capsys, scale, layers):
    # every layer x 1e200 overflows the embeddings themselves; the first
    # layer x 1e300 leaves them finite but their squared norms overflow
    ws, base, _ = workspace
    payload = json.loads((ws / "weights.npz").read_text())
    for hops in payload["layers"][:layers]:
        for hop in hops:
            hop["data"] = [value * scale for value in hop["data"]]
    (tmp_path / "w.json").write_text(json.dumps(payload))
    cfg_path = write_config(tmp_path / "cfg.json", base, weights=str(tmp_path / "w.json"))
    code = main(["build-index", "--config", cfg_path, "--out", str(tmp_path / "idx.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "weights overflow" in err
    assert not (tmp_path / "idx.json").exists()


# 1e200 is finite, but its square, and so the entry's squared norm, is not
@pytest.mark.parametrize("literal", ["true", '"1.5"', "1e400", "1e200"])
def test_non_numeric_or_infinite_embedding_exits_2(workspace, tmp_path, capsys, literal):
    ws, base, _ = workspace
    payload = json.loads((ws / "index.json").read_text())
    payload["entries"][3]["embedding"][0] = "VALUE"
    (tmp_path / "idx.json").write_text(json.dumps(payload).replace('"VALUE"', literal))
    cfg_path = write_config(tmp_path / "cfg.json", base, index=str(tmp_path / "idx.json"))
    code = main(["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")])
    err = capsys.readouterr().err
    assert code == 2
    assert "entry 3: embedding" in err


# ---- one training-set embedding per command ----


def count_calls(monkeypatch, original):
    """Count calls of a relm function, wherever a relm module imported it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("relm"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "command,embeds",
    [
        (["evaluate", "--strategy", "css", "--k", "2..4"], True),
        (["compare-strategies", "--strategies", "css,fine_grained_css"], True),
        (["evaluate", "--strategy", "zero_shot", "--k", "2..4"], False),
    ],
    ids=["evaluate_k_sweep", "compare_strategies", "zero_shot"],
)
def test_training_set_is_embedded_at_most_once(
    workspace, tmp_path, monkeypatch, command, embeds
):
    # the command embeds each fragment of each distinct reactant string
    # once, however many K or strategies read the rows; the index brings its
    # own embeddings and the query goes through embed_set
    ws, _, train = workspace
    save_dataset(train[:1], tmp_path / "one.jsonl")
    outputs = ["--out", str(tmp_path / "rows.csv")] if command[0] == "compare-strategies" else [
        "--out-dir", str(tmp_path / "reports")
    ]
    distinct = {smiles for record in train for smiles in record.reactants}
    fragments = sum(len(parse_smiles(smiles)) for smiles in distinct)
    assert fragments < sum(len(record.reactant_graphs()) for record in train)  # some repeat
    embedded = []
    original = relm.molecules.embed_molecules

    def counted(graphs, *args, **kwargs):
        embedded.extend(graphs)
        return original(graphs, *args, **kwargs)

    monkeypatch.setattr(relm.molecules, "embed_molecules", counted)
    code = main([*command, *outputs, "--config", str(ws / "config.json"),
                 "--eval-dataset", str(tmp_path / "one.jsonl")])
    assert code == 0
    assert len(embedded) == (fragments if embeds else 0)


def _parse_and_key_calls(monkeypatch):
    return (
        count_calls(monkeypatch, relm.molgraph.parser.parse_smiles),
        count_calls(monkeypatch, relm.molgraph.canonical.canonical_key),
    )


def test_commands_share_no_molecule_table(workspace, tmp_path, monkeypatch):
    # each command builds its own table: evaluate right after build-index in
    # one process parses and keys exactly as much as evaluate alone.  The
    # index's keys file spares evaluate keying the index, so the check runs
    # with that file and again without it, where evaluate keys every entry
    ws, base, _ = workspace
    index = tmp_path / "idx.json"
    cfg_path = write_config(tmp_path / "cfg.json", base, index=str(index))
    build = ["build-index", "--config", cfg_path, "--out", str(index)]
    evaluate = ["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")]
    assert main(build) == 0
    parses, keys = _parse_and_key_calls(monkeypatch)
    for keys_file in (True, False):
        if not keys_file:
            keys_path(index).unlink()
        parses.clear()
        keys.clear()
        assert main(evaluate) == 0
        alone = (len(parses), len(keys))
        # every product of this workspace is an entry's: keyed only without the file
        assert alone[0] and (alone[1] == 0 if keys_file else alone[1] > 0)
        assert main(build) == 0
        if not keys_file:
            keys_path(index).unlink()
        parses.clear()
        keys.clear()
        assert main(evaluate) == 0
        assert (len(parses), len(keys)) == alone


def test_evaluate_after_build_index_keys_only_products_no_entry_holds(tmp_path, monkeypatch):
    # two records each spell an entry's products another way: the index
    # keeps one spelling, and evaluate keys the other spelling alone
    train = synthetic_reactions(16, seed=40) + [
        ReactionRecord(id="same-0", reactants=("CC",), products=("CCO",)),
        ReactionRecord(id="same-1", reactants=("CC",), products=("OCC",)),
        ReactionRecord(id="same-2", reactants=("CCN",), products=("CC=O", "O")),
        ReactionRecord(id="same-3", reactants=("CCN",), products=("O.CC=O",)),
    ]
    weights = random_init(
        EncoderConfig(feature_dim=FEATURE_CFG.feature_dim, embed_dim=8), seed=1
    )
    save_dataset(train, tmp_path / "train.jsonl")
    save_weights(weights, tmp_path / "w.json")
    index = tmp_path / "index.json"
    cfg_path = write_config(tmp_path / "cfg.json", {
        "weights": str(tmp_path / "w.json"), "index": str(index),
        "dataset": str(tmp_path / "train.jsonl"), "backend": {"kind": "oracle"},
        "strategy": "css", "k": 4, "n": 3,
    })
    assert main(["build-index", "--config", cfg_path, "--out", str(index)]) == 0
    entry_strings = {s for e in json.loads(index.read_text())["entries"] for s in e["products"]}
    others = {s for r in train for s in r.products} - entry_strings
    assert others == {"OCC", "O.CC=O"}
    keys = count_calls(monkeypatch, relm.molgraph.canonical.canonical_key)
    assert main(["evaluate", "--config", cfg_path, "--out-dir", str(tmp_path / "reports")]) == 0
    assert len(keys) == sum(len(parse_smiles(s)) for s in others)


def test_train_toy_keys_nothing_before_its_first_epoch(workspace, tmp_path, monkeypatch):
    ws, _, _ = workspace
    _, keys = _parse_and_key_calls(monkeypatch)
    keyed_at_first_epoch = []
    real = relm.encoder.training.contrastive_loss_and_grad

    def epoch(*args, **kwargs):
        if not keyed_at_first_epoch:
            keyed_at_first_epoch.append(len(keys))
        return real(*args, **kwargs)

    monkeypatch.setattr(relm.encoder.training, "contrastive_loss_and_grad", epoch)
    code = main([
        "train-toy", "--config", str(ws / "config.json"), "--epochs", "2",
        "--out-weights", str(tmp_path / "w.json"), "--out-trace", str(tmp_path / "t.csv"),
    ])
    assert code == 0
    assert keyed_at_first_epoch == [0]
    assert keys  # the index and hit@1 after training key the products
