"""Command outputs on a fixed workspace, pinned byte for byte by sha256.

A change that must not move any output (a refactor, a faster kernel)
keeps every hash here.  A change that moves one on purpose updates its
hash and says why.  The workspace: ``synthetic_reactions(300, seed=7)``
as the training set, its first 25 records as the evaluation set,
16-d ``random_init`` weights with seed 3, the oracle backend with
shuffled candidates, seed 5, ``max_concurrency`` 2, k 4 and n 3.  The
single-query test asks ``predict``, its dry run and ``inspect-prompt``
about training record 4 with the css strategy, and runs ``train-toy``
for 20 epochs.
"""

import contextlib
import hashlib
import io
import json

import pytest

from relm.cli import main
from relm.corpus import save_dataset
from relm.encoder import EncoderConfig, random_init, save_weights
from relm.molgraph import FeatureConfig
from relm.synthetic import synthetic_reactions

COMPARED = "plain,json,css,fine_grained_css,zero_shot,zero_shot_cot,few_shot_cot,mes:zero_shot:3"

EXPECTED = {
    "index.json": "910c0d580f360de62eaa110bbee9a5782b13597187513e8db8ce4b4416810b3c",
    "eval_css/stdout": "4c517bd8a5fc5f42f5bf8eafeec59ff1f32a1b79426ec11a99ab380c8ee56087",
    "eval_css/report_k2.json": "1a961ca3ea1a12e7c4ccd0f6fb524eecf96a15e06e8b6e59cc58a9bbc543f305",
    "eval_css/report_k3.json": "2db45c8aa3eedea03839af829a9de2c6fabacbfe9f2d22a5728ce9eb5cdac910",
    "eval_css/report_k4.json": "ce26197183e691b08af8e890c2b92eb0b8eef92c92d5bae6cf9075da4c331c75",
    "eval_css/samples_k2.csv": "6ba61115dc7554d4206eb0719c99bfdb9347bf8522ad935ab180e3f85b5c5d34",
    "eval_css/samples_k3.csv": "33033ee263f212390bdda6c42f3c70ff6397f01aec127f49e650e59ed28dce76",
    "eval_css/samples_k4.csv": "7526f19878d1906e1b97ac8ce364607a46519cbf4bccfaad72c5f4f3b5063898",
    "eval_fine_grained_css/stdout": "4c517bd8a5fc5f42f5bf8eafeec59ff1f32a1b79426ec11a99ab380c8ee56087",
    "eval_fine_grained_css/report_k2.json": "4d40cdcfacda225423e2e9f6438dd321646b741a8a58f89e64057d0f32c22220",
    "eval_fine_grained_css/report_k3.json": "c229a12903a2d8dc3789a4eb4ba13d5ecdb514080a9a4a3177a8682fa0962761",
    "eval_fine_grained_css/report_k4.json": "849622f325560d325d8e95e2d7ab3be8e75705e46cd87c22d657a640766c6cd7",
    "eval_fine_grained_css/samples_k2.csv": "c70776b505bea03180e44538bff6b177e33364d49ca6aaa712c5b995e73404c6",
    "eval_fine_grained_css/samples_k3.csv": "6c7023d7d6d4b715c68bbd78bc57c4701f21f6d0491c93c8b230c14161ba9c5e",
    "eval_fine_grained_css/samples_k4.csv": "7c27117469b6d609ec50f48d334e0e748f6e5bd31fc770678fb83bc62cd9231a",
    "compare/stdout": "2fb08e19321dee12ccc66e389e8667fd541a7bb798567a467364f198869ef7f4",
    "compare.csv": "bec2857af22ee88772abafd81d62bea4072ff0033a82625bb7aa519cdf05207f",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("hashes")
    records = synthetic_reactions(300, seed=7)
    save_dataset(records, ws / "train.jsonl")
    save_dataset(records[:25], ws / "eval.jsonl")
    weights = random_init(
        EncoderConfig(feature_dim=FeatureConfig().feature_dim, embed_dim=16), seed=3
    )
    save_weights(weights, ws / "weights.json")
    config = {
        "weights": str(ws / "weights.json"),
        "index": str(ws / "index.json"),
        "dataset": str(ws / "train.jsonl"),
        "backend": {"kind": "oracle"},
        "shuffle_candidates": True,
        "seed": 5,
        "max_concurrency": 2,
        "k": 4,
        "n": 3,
    }
    (ws / "config.json").write_text(json.dumps(config))
    common = ["--config", str(ws / "config.json")]

    _run(["build-index", *common, "--out", str(ws / "index.json")])
    return ws, common


@pytest.fixture(scope="module")
def digests(workspace):
    ws, common = workspace
    eval_set = ["--eval-dataset", str(ws / "eval.jsonl")]
    for strategy in ("css", "fine_grained_css"):
        out_dir = ws / f"eval_{strategy}"
        stdout, _ = _run(["evaluate", *common, *eval_set, "--strategy", strategy,
                          "--k", "2..4", "--out-dir", str(out_dir)])
        (out_dir / "stdout").write_text(stdout)
    stdout, _ = _run(["compare-strategies", *common, *eval_set, "--strategies", COMPARED,
                      "--out", str(ws / "compare.csv")])
    (ws / "compare").mkdir()
    (ws / "compare" / "stdout").write_text(stdout)
    return {name: hashlib.sha256((ws / name).read_bytes()).hexdigest() for name in EXPECTED}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_hash(digests, name):
    assert digests[name] == EXPECTED[name]


# one query through predict and the prompt dumps, and a short train-toy
SINGLE_EXPECTED = {
    "predict/stdout": "8151938e2976191f6c89ed4fd19ec7786d52163163ab1b94f61f5316d6b09be5",
    "dry_run/stdout": "61c548115d975ebdc249be8b6bd5e7a54dd4ac535bd770698e0fbcf91b99aeb8",
    "inspect/stdout": "61c548115d975ebdc249be8b6bd5e7a54dd4ac535bd770698e0fbcf91b99aeb8",
    "inspect/stderr": "0317ddc4f84ae17b778179b50b75efdd1464313416e382c514f1ffabde3e6e6d",
    "toy_weights.json": "3a61ebdaae60475e42c71e340b0f8dc65d7aac894f7352fe196753eaa7f7c3f9",
    "toy_trace.csv": "3abd8cc5e9307bec9e60c344fe632de345562498245af2593dfe96abff9419b2",
}


def test_single_query_and_training_outputs(workspace):
    ws, common = workspace
    # a training record as the query, so its own row is left out of the context
    save_dataset(synthetic_reactions(300, seed=7)[4:5], ws / "query.json")
    query = [*common, "--strategy", "css", "--reaction", str(ws / "query.json")]
    outputs = {
        "predict": _run(["predict", *query]),
        "dry_run": _run(["predict", *query, "--dry-run"]),
        "inspect": _run(["inspect-prompt", *query]),
    }
    for name, (stdout, stderr) in outputs.items():
        (ws / name).mkdir()
        (ws / name / "stdout").write_text(stdout)
        (ws / name / "stderr").write_text(stderr)
    _run(["train-toy", *common, "--epochs", "20", "--out-weights",
          str(ws / "toy_weights.json"), "--out-trace", str(ws / "toy_trace.csv")])
    got = {name: hashlib.sha256((ws / name).read_bytes()).hexdigest() for name in SINGLE_EXPECTED}
    assert got == SINGLE_EXPECTED
