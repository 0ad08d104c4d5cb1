"""Command-line surface: index building, prediction, evaluation,
strategy comparison, toy training and prompt inspection.

One JSON config file carries every setting; command-line flags override
single keys (flags win).  All randomness flows from the one seed in the
config, fanned out by labeled sub-streams, so toggling one feature does
not shift another's draws.  Exit codes: 0 success; 2 an ``InputError``,
the fault of an input file or setting (among them encoder weights that
embed a training record to the zero vector, which CSS cannot rank
examples by); 1 a backend failure, an internal error, or a stdout whose
reader has gone (``relm evaluate ... | head -1``) or that was closed when
the process started, which ends quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import string
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Sequence, get_type_hints

from .corpus import (
    CssConfig,
    DatasetError,
    ProductCorpus,
    ReactionRecord,
    corpus_from_records,
    load_dataset,
    load_index,
    load_record,
    save_index,
)
from .molecules import MoleculeTable
from .encoder import (
    EncoderConfig,
    GnnWeights,
    NonFiniteLoss,
    TrainingHyper,
    load_weights,
    save_weights,
    train_contrastive,
)
from .loading import InputError, convert, make_dir, read_json, text_builder, write_file
from .evaluation import (
    build_report,
    check_ground_truth,
    compare_strategies,
    hit_at_k,
    prompt_pipelines,
    write_outcomes_csv,
    write_report_json,
    write_strategy_csv,
)
from .lmclient import (
    BackendConfig,
    BackendKind,
    LmClientError,
    Pipeline,
    derive_seed,
    estimate_tokens,
    load_mock_script,
    run_dataset,
)
from .molgraph import FeatureConfig
from .prompt import PromptConfig, Strategy, TemplateSet


class ConfigError(InputError, ValueError):
    """A problem in the run configuration file or its overrides."""


@dataclass
class RunConfig:
    weights: Path | None = None
    index: Path | None = None
    dataset: Path | None = None
    templates: Path | None = None
    iupac: Path | None = None
    # the file spells the prompt settings as top-level keys
    prompt: PromptConfig = field(default=PromptConfig(), metadata={"flat": True})
    shuffle_candidates: bool = False
    backend: BackendConfig = BackendConfig(kind=BackendKind.ORACLE)
    seed: int = 0
    max_concurrency: int = 1

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")

    def prompt_config(self) -> PromptConfig:
        """The prompt settings, with the shuffle seed drawn from the run's seed."""
        shuffle_seed = (
            derive_seed(self.seed, "shuffle") if self.shuffle_candidates else None
        )
        return replace(self.prompt, shuffle_candidates_seed=shuffle_seed)


# seeds derived per run or per query, never read from the file
_DERIVED = {(PromptConfig, "shuffle_candidates_seed"), (CssConfig, "seed")}


def _file_keys(cls: type) -> Iterator[str]:
    """The keys of the JSON object that fills dataclass cls."""
    for f in fields(cls):
        if f.metadata.get("flat"):
            yield from _file_keys(get_type_hints(cls)[f.name])
        elif (cls, f.name) not in _DERIVED:
            yield f.name


_TOP_KEYS = set(_file_keys(RunConfig))


def load_run_config(
    path: str | Path | None,
    overrides: dict,
    skip_exists: tuple[str, ...] = (),
) -> RunConfig:
    """Read the JSON config, apply non-None overrides, validate files.

    Each value must have the type of the dataclass field it fills.
    Input paths must exist; keys in skip_exists are a command's outputs
    and are exempt (build-index writes the index it names).
    """
    data: dict = {}
    if path is not None:
        data = convert(read_json(path, ConfigError), dict, f"{path}: config", ConfigError)
    data.update((key, value) for key, value in overrides.items() if value is not None)
    cfg = _build(RunConfig(), data)
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, Path) and f.name not in skip_exists and not value.exists():
            raise ConfigError(f"{f.name} file does not exist: {value}")
    return cfg


def _build(template: Any, data: dict, where: str = "") -> Any:
    """A copy of dataclass instance template holding the file's values.

    Only keys present in the file are replaced, so the template's values
    are the defaults.  where is the file's spelling of the object, such
    as "backend."; a flat field takes its keys from the same object.
    """
    cls = type(template)
    hints = get_type_hints(cls)
    rest = dict(data)
    values = {}
    for f in fields(cls):
        kind, key = hints[f.name], where + f.name
        if f.metadata.get("flat"):
            own = {k: rest.pop(k) for k in _file_keys(kind) if k in rest}
            values[f.name] = _build(getattr(template, f.name), own, where)
        elif f.name not in rest or (cls, f.name) in _DERIVED:
            continue
        elif key == "backend.mock_script":
            # the file names a script; the field holds the rules read from it
            script = convert(rest.pop(f.name), Path | None, key, ConfigError)
            try:
                values[f.name] = load_mock_script(script) if script else ()
            except ValueError as exc:
                raise ConfigError(str(exc))
        elif is_dataclass(kind) and text_builder(kind) is None:
            value = convert(rest.pop(f.name), dict, key, ConfigError)
            values[f.name] = _build(getattr(template, f.name), value, key + ".")
        else:
            values[f.name] = convert(rest.pop(f.name), kind, key, ConfigError)
    if rest:
        raise ConfigError(f"unknown config keys {sorted(where + k for k in rest)}")
    try:
        return replace(template, **values)
    except ValueError as exc:
        raise ConfigError(f"{where[:-1]}: {exc}" if where else str(exc))


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(
            f"this command needs config paths: {', '.join(missing)}"
        )


@dataclass(frozen=True)
class _Inputs:
    """The files one command reads: weights, index, datasets, IUPAC table, templates."""

    weights: GnnWeights
    corpus: ProductCorpus
    train: list[ReactionRecord]
    records: list[ReactionRecord]
    iupac_table: dict[str, str] | None
    templates: TemplateSet | None

    @classmethod
    def load(
        cls, cfg: RunConfig, eval_dataset: str | None = None, *, examples: bool, scored: bool
    ) -> _Inputs:
        """Read the files; the evaluation set defaults to the training set.

        One molecule table reads them all, and the check of each string
        does the work the command asks of it later: it keys the product
        strings whose keys are read (the evaluation set's when it is
        scored, the training set's when examples are shown) and, when
        examples are shown, makes the training reactants' rows."""
        _require(cfg, "weights", "index", "dataset")
        weights = load_weights(cfg.weights)
        corpus = load_index(cfg.index)
        molecules = corpus.molecules  # the table that keyed the index reads the datasets
        molecules.use_encoder(weights, FeatureConfig())
        train = load_dataset(
            cfg.dataset, molecules, key_products=examples or (scored and not eval_dataset),
            embed="reactants" if examples else None,
        )
        records = (
            load_dataset(eval_dataset, molecules, key_products=scored) if eval_dataset else train
        )
        table = cfg.iupac and read_json(cfg.iupac, ConfigError)
        iupac_table = convert(table, dict[str, str] | None, f"{cfg.iupac}: iupac", ConfigError)
        templates = TemplateSet.load(cfg.templates) if cfg.templates else None
        return cls(weights, corpus, train, records, iupac_table, templates)

    def pipelines(
        self, cfg: RunConfig, prompts: Sequence[PromptConfig], queries: Sequence[ReactionRecord]
    ) -> list[Pipeline]:
        """``prompt_pipelines`` on these inputs and the run's settings."""
        return prompt_pipelines(
            queries, self.train, self.corpus, self.weights, FeatureConfig(), prompts,
            cfg.backend, iupac_table=self.iupac_table, templates=self.templates, seed=cfg.seed,
        )


# ---- commands ----


def cmd_build_index(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, _overrides(args), skip_exists=("index",))
    _require(cfg, "weights", "dataset")
    weights = load_weights(cfg.weights)
    # the check of each product string also keys and embeds it for the index;
    # a string that only a duplicate set holds is embedded too, as its set's
    # key is known only after the parse, and the rows would otherwise need a
    # second parse when a later set that makes an entry holds the string
    molecules = MoleculeTable(weights, FeatureConfig())
    records = load_dataset(cfg.dataset, molecules, key_products=True, embed="products")
    corpus = corpus_from_records(records, weights, FeatureConfig(), molecules)
    save_index(corpus, args.out)
    print(
        f"wrote {args.out}: {len(corpus.entries)} entries "
        f"({len(records)} product sets), fingerprint {corpus.fingerprint[:16]}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """predict; inspect-prompt is its dry run plus a summary on stderr."""
    cfg = load_run_config(args.config, _overrides(args))
    record = load_record(args.reaction)  # before the pipeline embeds the training set
    inputs = _Inputs.load(cfg, examples=cfg.prompt.strategy.shows_examples, scored=False)
    (pipeline,) = inputs.pipelines(cfg, [cfg.prompt_config()], [record])
    if args.dry_run:
        prompt = pipeline.render_prompt(record)
        print(prompt.text)
        if args.command == "inspect-prompt":
            print(
                f"--- schema={prompt.answer_schema.value} "
                f"letters={','.join(prompt.letters)} "
                f"tokens~{estimate_tokens(prompt)}",
                file=sys.stderr,
            )
        return 0
    result = pipeline.predict(record)
    payload = {
        "choice_id": result.final_choice_id,
        "products": list(result.final_products),
        "candidates": [
            {
                "id": c.entry_id,
                "products": list(c.products),
                "distance": c.distance,
            }
            for c in result.candidates.entries
        ],
        "confidence": result.parsed.confidence,
        "parse_status": result.parsed.parse_status.value,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# every K runs lettered candidates: past 26 values, a sweep holds a K that
# exceeds the letters or repeats a smaller K's candidates (the whole index)
_MAX_SWEEP = len(string.ascii_uppercase)


def _parse_k_spec(spec: str) -> list[int]:
    spec = spec.strip()
    if ".." in spec:
        lo_text, hi_text = spec.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad K range {spec!r}")
        if hi - lo >= _MAX_SWEEP:
            raise ConfigError(f"K range {spec!r} has more than {_MAX_SWEEP} values")
        return list(range(lo, hi + 1))
    value = int(spec)
    if value < 1:
        raise ConfigError("K must be >= 1")
    return [value]


def cmd_evaluate(args: argparse.Namespace) -> int:
    # --k may be a sweep spec like "2..7"; it never overrides config k
    cfg = load_run_config(args.config, {**_overrides(args), "k": None})
    inputs = _Inputs.load(
        cfg, args.eval_dataset, examples=cfg.prompt.strategy.shows_examples, scored=True
    )
    try:
        ks = _parse_k_spec(args.k) if args.k else [cfg.prompt.k]
    except ValueError as exc:
        raise ConfigError(f"bad --k value: {exc}")
    check_ground_truth(inputs.records, inputs.corpus)
    base = cfg.prompt_config()
    prompts = [replace(base, k=k) for k in ks]
    out_dir = Path(args.out_dir)
    for k, pipeline in zip(ks, inputs.pipelines(cfg, prompts, inputs.records)):
        results = run_dataset(pipeline, inputs.records, cfg.max_concurrency)
        config = {"strategy": base.strategy.label, "k": k, "n": base.n,
                  "seed": cfg.seed, "backend": cfg.backend.kind.value}
        report = build_report(results, inputs.records, inputs.corpus, inputs.weights,
                              pipeline.feature_cfg, k, config=config)
        make_dir(out_dir, ConfigError)  # once a report is ready: a failed run leaves none
        write_report_json(report, out_dir / f"report_k{k}.json")
        write_outcomes_csv(report.outcomes, out_dir / f"samples_k{k}.csv")
        print(
            f"K={k} accuracy={report.accuracy:.4f} "
            f"hit@{k}={report.hit_at_k:.4f} "
            f"parse_failure_rate={report.parse_failure_rate:.4f}"
        )
    return 0


def cmd_compare_strategies(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    try:
        strategies = [
            Strategy.parse(s) for s in args.strategies.split(",") if s.strip()
        ]
    except ValueError as exc:
        raise ConfigError(f"bad --strategies value: {exc}")
    if not strategies:
        raise ConfigError("no strategies given")
    examples = any(strategy.shows_examples for strategy in strategies)
    inputs = _Inputs.load(cfg, args.eval_dataset, examples=examples, scored=True)
    rows = compare_strategies(
        inputs.records, inputs.train, inputs.corpus, inputs.weights, FeatureConfig(),
        cfg.prompt_config(), cfg.backend, strategies, seed=cfg.seed,
        max_concurrency=cfg.max_concurrency, iupac_table=inputs.iupac_table,
        templates=inputs.templates,
    )
    write_strategy_csv(rows, args.out)
    for row in rows:
        print(
            f"{row.strategy}: acc={row.accuracy:.4f} "
            f"tokens={row.mean_tokens:.1f} time_s={row.mean_time_s:.3f}"
        )
    return 0


def cmd_train_toy(args: argparse.Namespace) -> int:
    # reads only the dataset; weights/index in the config are other
    # commands' artifacts and may not exist yet
    cfg = load_run_config(
        args.config, _overrides(args), skip_exists=("weights", "index")
    )
    _require(cfg, "dataset")
    molecules = MoleculeTable()
    records = load_dataset(cfg.dataset, molecules)
    if len(records) < 2:
        raise DatasetError(f"{cfg.dataset}: training needs at least two reactions")
    feature_cfg = FeatureConfig()
    try:
        encoder_cfg = EncoderConfig(
            feature_dim=feature_cfg.feature_dim, embed_dim=args.embed_dim
        )
        hyper = TrainingHyper(
            margin=args.margin,
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            seed=cfg.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"training settings: {exc}")
    pairs = [(r.reactants, r.products) for r in records]
    try:
        result = train_contrastive(pairs, encoder_cfg, feature_cfg, hyper)
    except NonFiniteLoss as exc:
        finite = f"{exc.trace[-1]:.6f} at epoch {len(exc.trace) - 1}" if exc.trace else "none"
        print(
            f"error: training diverged at epoch {exc.epoch}; "
            f"last finite loss: {finite}",
            file=sys.stderr,
        )
        return 1
    save_weights(result.weights, args.out_weights)
    trace = "".join(f"{epoch},{loss!r}\n" for epoch, loss in enumerate(result.loss_trace))
    write_file(args.out_trace, "epoch,loss\n" + trace, ConfigError)
    corpus = corpus_from_records(records, result.weights, feature_cfg, molecules)
    score = hit_at_k(records, corpus, result.weights, feature_cfg, 1)
    print(f"wrote {args.out_weights} and {args.out_trace}")
    print(f"final hit@1: {score:.4f}")
    return 0


# ---- argument plumbing ----


def _overrides(args: argparse.Namespace) -> dict:
    """A flag overrides the config key of the same name."""
    return {key: getattr(args, key, None) for key in _TOP_KEYS}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--weights", help="encoder weights file (overrides config)")
    parser.add_argument("--index", help="product index file (overrides config)")
    parser.add_argument("--dataset", help="training dataset JSONL (overrides config)")
    parser.add_argument("--templates", help="template directory (overrides config)")
    parser.add_argument("--iupac", help="SMILES-to-name table (overrides config)")
    parser.add_argument("--strategy", help="prompting strategy (overrides config)")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--max-concurrency", dest="max_concurrency", type=int)
    parser.add_argument("--n", type=int, help="in-context example count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relm",
        description="Retrieve-and-rerank reaction product prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="embed a dataset's product sets")
    _add_common(p)
    p.add_argument("--out", required=True, help="index file to write")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("predict", help="predict products for one reaction")
    _add_common(p)
    p.add_argument("--k", type=int, help="candidate count (overrides config)")
    p.add_argument("--reaction", required=True, help="single reaction JSON file")
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="print the rendered prompt and exit without backend calls",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run the evaluation harness")
    _add_common(p)
    p.add_argument("--k", help="candidate count or sweep range like 2..7 (at most 26 values)")
    p.add_argument("--eval-dataset", dest="eval_dataset", help="queries JSONL")
    p.add_argument("--out-dir", dest="out_dir", default=".", help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare-strategies", help="one evaluation row per strategy")
    _add_common(p)
    p.add_argument("--k", type=int, help="candidate count (overrides config)")
    p.add_argument("--eval-dataset", dest="eval_dataset", help="queries JSONL")
    p.add_argument("--strategies", required=True, help="comma-separated names")
    p.add_argument("--out", required=True, help="CSV table to write")
    p.set_defaults(func=cmd_compare_strategies)

    p = sub.add_parser("train-toy", help="contrastive-train encoder weights")
    _add_common(p)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=16)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.05)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--out-weights", dest="out_weights", required=True)
    p.add_argument("--out-trace", dest="out_trace", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("inspect-prompt", help="render a prompt without a backend")
    _add_common(p)
    p.add_argument("--k", type=int, help="candidate count (overrides config)")
    p.add_argument("--reaction", required=True, help="single reaction JSON file")
    p.set_defaults(func=cmd_predict, dry_run=True)

    return parser


# the module that defines an error type decides whether it is an InputError;
# a bare ValueError or FileNotFoundError is a bug in the program (every path
# a user names is read with its own error type) and exits 1
def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is None:  # started with stdout closed: what it printed is lost
            return 1
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # backends and file writers raise their own errors
        # stdout's reader left (`| head -1`): what is still buffered goes to
        # the null device, so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LmClientError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
