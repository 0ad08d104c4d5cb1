"""End-to-end benchmark of the relm command line.

Runs one workload through the entry points a user runs (``relm
build-index`` + ``relm evaluate``, or ``relm train-toy``), called in
process through ``relm.cli.main`` with generated config files, checks the
outputs and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload css-20k --seed 0 --seconds 25 --trace 0

A run is made of whole rounds.  One round is one ``build-index`` and one
``evaluate`` over the workload's fixed query file, or one ``train-toy``.
Rounds repeat while another one still fits in ``--seconds`` of timed
work and in twice that of wall time.  With ``--trace 1`` the same run records spans around relm's public
functions and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gen import CACHE, SRC, WORKLOADS, input_dir

# A run starts no round that would end past this many times --seconds of
# wall time, so a much faster timed phase cannot multiply the set-up work.
WALL_CAP_FACTOR = 2.0
GEN_TIMEOUT_S = 600
TRAIN_MARGIN = 1.0
TRAIN_LEARNING_RATE = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_mean_ms": "ms",
    "peak_rss_mb": "MB",
}


def ensure_inputs(workload: str, seed: int) -> Path:
    target = input_dir(workload, seed)
    if not (target / "meta.json").exists():
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("gen.py")),
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=GEN_TIMEOUT_S,
        )
    return target


def run_config(inputs: Path, run_dir: Path, seed: int, endpoint: str | None) -> Path:
    """The generated config with absolute paths, the stub's endpoint and,
    for evaluate, the run's own seed (it draws the CSS perturbations)."""
    config = json.loads((inputs / "run.json").read_text())
    if config.get("strategy"):
        config["seed"] = seed
    for key in ("dataset", "weights"):
        if key in config:
            config[key] = str(inputs / config[key])
    if "index" in config:
        config["index"] = str(run_dir / config["index"])
    if endpoint is not None:
        config["backend"]["endpoint"] = endpoint
        os.environ[config["backend"]["api_key_env"]] = "stub-key"
    path = run_dir / "run.json"
    path.write_text(json.dumps(config, indent=2))
    return path


class Stub:
    """The loopback stub process; stopped and waited for on exit."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.counters: dict | None = None
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("stub did not start")
        self.endpoint = f"http://127.0.0.1:{json.loads(line)['port']}"

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                out, _ = self.proc.communicate("stop\n", timeout=10)
                lines = out.strip().splitlines()
                self.counters = json.loads(lines[-1]) if lines else None
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Measure:
    """Timing hooks on the two places where relm's set-up ends.

    ``evaluate`` hands its pipeline to ``cli.run_dataset``; the hook first
    finishes the pipeline's lazy set-up (it embeds the training set on the
    first query that needs context), then times each ``predict`` call.
    ``train-toy`` calls ``contrastive_loss_and_grad`` once per epoch.
    """

    def __init__(self, warm_context: bool) -> None:
        import relm.cli
        import relm.encoder.training

        self.warm_context = warm_context
        self.setup_end = 0.0
        self.op_s: list[float] = []
        self.results: list = []  # the current round's PredictionResults
        self._run_dataset = relm.cli.run_dataset
        self._epoch = relm.encoder.training.contrastive_loss_and_grad
        relm.cli.run_dataset = self.run_dataset
        relm.encoder.training.contrastive_loss_and_grad = self.epoch

    def run_dataset(self, pipeline, records, max_concurrency):
        if self.warm_context:
            pipeline._embeddings()
        self.setup_end = time.perf_counter()
        predict = pipeline.predict

        def timed(record):
            started = time.perf_counter()
            result = predict(record)
            self.op_s.append(time.perf_counter() - started)
            return result

        pipeline.predict = timed
        self.results = self._run_dataset(pipeline, records, max_concurrency)
        return self.results

    def epoch(self, *args, **kwargs):
        started = time.perf_counter()
        if not self.setup_end:
            self.setup_end = started
        out = self._epoch(*args, **kwargs)
        self.op_s.append(time.perf_counter() - started)
        return out


def cli(argv: list[str]) -> int:
    from relm.cli import main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = main(argv)
    if code != 0:
        print(f"relm {argv[0]} exited {code}: {captured.getvalue().strip()}", file=sys.stderr)
    return code


def run_workload(workload: str, seed: int, seconds: float, tracer) -> dict:
    import checks

    spec = WORKLOADS[workload]
    inputs = ensure_inputs(workload, seed)
    meta = json.loads((inputs / "meta.json").read_text())
    run_dir = CACHE / "runs" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        with contextlib.ExitStack() as stack:
            stub = stack.enter_context(Stub()) if spec.get("backend", {}).get("kind") == "http" else None
            config = run_config(inputs, run_dir, seed, stub.endpoint if stub else None)
            if tracer is not None:
                tracer.install()
            measure = Measure(spec.get("context", False))
            out = _rounds(spec, inputs, run_dir, config, seconds, measure, tracer)
        problems = out.pop("problems")
        if spec["kind"] == "evaluate":
            if stub is not None:
                if stub.counters is None:
                    problems.append("stub did not report its counters")
                else:
                    problems += checks.check_stub(out["attempts"], votes(spec), stub.counters)
            out["stub"] = stub.counters if stub else None
            if out["tokens"]:
                out["tokens_per_query"] = statistics.fmean(out["tokens"])
        out.update(meta=meta, problems=problems)
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)


def votes(spec: dict) -> int:
    from relm.prompt import Strategy

    return Strategy.parse(spec["strategy"]).runs


def _rounds(spec, inputs, run_dir, config, seconds, measure, tracer) -> dict:
    import checks
    from relm.corpus import load_dataset
    from relm.encoder import load_weights

    started = time.perf_counter()
    rounds: list[dict] = []
    attempts: list[int] = []
    tokens: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    settings = json.loads(config.read_text())
    ranks = None
    first_loss = None
    while True:
        round_start = time.perf_counter()
        measure.setup_end = 0.0
        measure.results = []
        ops_before = len(measure.op_s)
        if spec["kind"] == "evaluate":
            ops = spec["queries"]
            out_dir = run_dir / "reports"
            code = cli(["build-index", "--config", str(config), "--out", settings["index"]])
            if code == 0:
                code = cli(["evaluate", "--config", str(config),
                            "--eval-dataset", str(inputs / "queries.jsonl"),
                            "--out-dir", str(out_dir)])
        else:
            ops = spec["epochs"]
            out_dir = run_dir
            code = cli(["train-toy", "--config", str(config),
                        "--epochs", str(ops), "--embed-dim", str(spec["embed_dim"]),
                        "--margin", str(TRAIN_MARGIN),
                        "--learning-rate", str(TRAIN_LEARNING_RATE),
                        "--out-weights", str(run_dir / "weights.json"),
                        "--out-trace", str(run_dir / "trace.csv")])
        round_end = time.perf_counter()
        attempted += ops
        if code != 0 or not measure.setup_end:
            failed += ops
            problems.append(f"round {len(rounds) + 1} failed")
            break
        rounds.append({
            "setup_s": measure.setup_end - round_start,
            "timed_s": round_end - measure.setup_end,
            "op_s": measure.op_s[ops_before:],
        })
        if tracer is not None:
            tracer.mark_round(int(round_start * 1e9), int(measure.setup_end * 1e9))

        # checks, untimed; the tracer records none of their relm calls
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            if spec["kind"] == "evaluate":
                report = json.loads((out_dir / f"report_k{spec['k']}.json").read_text())
                results = measure.results
                # keep only the counts, so memory does not grow with the rounds
                attempts += [r.attempt_count for r in results]
                tokens += [r.token_estimate for r in results]
                if ranks is None:
                    ranks = checks.brute_force_ranks(
                        Path(settings["index"]), load_weights(settings["weights"]),
                        load_dataset(inputs / "queries.jsonl"), spec["k"],
                    )
                if spec.get("context"):
                    css = settings.get("css", {})
                    problems += checks.check_css(
                        results, report, ranks, spec["k"], spec["n"],
                        css.get("low_set", (1, 2)), css.get("high_set", (8, 9)),
                    )
                else:
                    problems += checks.check_mes(results, report, ranks, spec["k"], votes(spec))
            else:
                if first_loss is None:
                    first_loss = checks.hinge_loss(
                        load_dataset(settings["dataset"]), settings["seed"],
                        spec["embed_dim"], TRAIN_MARGIN,
                    )
                problems += checks.check_train(run_dir / "trace.csv", ops, first_loss)

        this = rounds[-1]
        print(f"round {len(rounds)}: setup {this['setup_s']:.3f} s, timed "
              f"{this['timed_s']:.3f} s", file=sys.stderr)
        timed = sum(r["timed_s"] for r in rounds)
        elapsed = time.perf_counter() - started
        if (timed + this["timed_s"] > seconds
                or elapsed + (round_end - round_start) > WALL_CAP_FACTOR * seconds):
            break
    measure.results = []
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "problems": problems, "attempts": attempts, "tokens": tokens}


def end_to_end(out: dict) -> dict[str, float]:
    rounds = out["rounds"]
    setups = [r["setup_s"] for r in rounds]
    op_s = [x for r in rounds for x in r["op_s"]]
    timed = sum(r["timed_s"] for r in rounds)
    ops = len(op_s)
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "ops_per_s": ops / timed if timed else 0.0,
        "op_mean_ms": statistics.fmean(op_s) * 1e3 if op_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary(workload: str, out: dict) -> list[str]:
    """Human-readable lines, including figures only one workload has; the
    end-to-end figures are shown in traced runs too, to read the tracing
    overhead off."""
    op_ms = sorted(x * 1e3 for r in out["rounds"] for x in r["op_s"])
    lines = [
        f"{workload}: {len(out['rounds'])} round(s), {out['attempted']} operations "
        f"attempted, {out['failed']} failed, {len(op_ms)} timed",
        "  " + ", ".join(f"{k} {v:.4g}" for k, v in end_to_end(out).items()),
    ]
    if op_ms:
        lines.append(f"  op_p50_ms {statistics.median(op_ms):.3f} ms over {len(op_ms)} operations")
    # a percentile is shown only with at least ten samples beyond it
    if len(op_ms) >= 200:
        p95 = statistics.quantiles(op_ms, n=100, method="inclusive")[94]
        lines.append(f"  query_p95_ms {p95:.3f} ms over {len(op_ms)} queries")
    if "tokens_per_query" in out:
        lines.append(f"  tokens_per_query {out['tokens_per_query']:.1f} tokens")
    meta = out["meta"]
    lines.append(
        "  inputs: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    )
    if out.get("stub"):
        lines.append("  stub: " + ", ".join(f"{k}={v}" for k, v in sorted(out["stub"].items())))
    for problem in out["problems"][:20]:
        lines.append(f"  CHECK FAILED: {problem}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relm" / "__init__.py").is_file():
        print(f"error: relm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relm.cli  # noqa: F401  (loads every relm module before tracing)

    from tracer import EXPECTED, PER_LAYER, Tracer

    tracer = Tracer() if args.trace else None
    out = run_workload(args.workload, args.seed, args.seconds, tracer)
    if not out["rounds"]:
        print("\n".join(summary(args.workload, out)), file=sys.stderr)
        return 1

    if tracer is None:
        values, units = end_to_end(out), END_TO_END
    else:
        spec = WORKLOADS[args.workload]
        expected = EXPECTED[spec["kind"]]
        if spec["kind"] == "evaluate":
            expected += EXPECTED["context" if spec.get("context") else "http"]
        missing = tracer.missing(expected)
        if missing:
            out["problems"].append(f"spans never fired: {missing}")
        queries = sum(len(r["op_s"]) for r in out["rounds"]) if spec["kind"] == "evaluate" else 0
        values = tracer.per_layer(queries, out.get("stub"), out.get("tokens_per_query", 0.0))
        units = PER_LAYER
        tracer.write(CACHE / "traces" / f"{args.workload}-s{args.seed}.jsonl.gz")

    print("\n".join(summary(args.workload, out)))
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
