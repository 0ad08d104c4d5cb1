"""Prompt assembly: strategies, schemas and deterministic rendering.

A rendered prompt is a pure function of (query, candidates, context,
config, template set).  All wording comes from the template set; this
module only decides which slots to use and what to pour into them.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from ..corpus import CandidateList, CssConfig, InContextExample, ReactionRecord
from ..loading import InputError
from .templating import TemplateSet, default_templates


class SchemaConflict(InputError, ValueError):
    """Raised when strategy, context and schema cannot fit together."""


class StrategyKind(str, Enum):
    PLAIN = "plain"
    JSON = "json"
    MES = "mes"
    CSS = "css"
    FINE_GRAINED_CSS = "fine_grained_css"
    ZERO_SHOT = "zero_shot"
    ZERO_SHOT_COT = "zero_shot_cot"
    FEW_SHOT_COT = "few_shot_cot"


class AnswerSchema(str, Enum):
    LETTER_ONLY = "letter_only"
    LETTER_PLUS_CONFIDENCE = "letter_plus_confidence"
    PER_CANDIDATE_SCORES = "per_candidate_scores"
    JSON_OBJECT = "json_object"


class MoleculeRendering(str, Enum):
    SMILES_ONLY = "smiles_only"
    SMILES_PLUS_IUPAC = "smiles_plus_iupac"


class _Layout(NamedTuple):
    """How one strategy kind renders."""

    schema: AnswerSchema
    header: str  # template slot that opens the user message
    closing: str  # template slot that ends it
    examples: bool  # shows in-context examples
    confidence: bool  # its examples carry confidences


_LAYOUT = {
    StrategyKind(kind): _Layout(AnswerSchema(schema), *slots_and_flags)
    for kind, schema, *slots_and_flags in (
        ("plain", "letter_only", "header_plain", "closing_letter", True, False),
        ("json", "json_object", "header_json", "closing_json", True, False),
        ("css", "letter_plus_confidence", "header_css", "closing_confidence", True, True),
        ("fine_grained_css", "per_candidate_scores", "header_fine", "closing_fine", True, True),
        ("zero_shot", "letter_only", "header_zeroshot", "closing_letter", False, False),
        ("zero_shot_cot", "letter_only", "header_zeroshot", "closing_cot", False, False),
        ("few_shot_cot", "letter_only", "header_fewshot_cot", "closing_cot", True, False),
    )
}

MES_DEFAULT_RUNS = 10


@dataclass(frozen=True)
class Strategy:
    """A prompting strategy; MES wraps a base strategy with a run count."""

    kind: StrategyKind
    base: StrategyKind | None = None
    runs: int = 1

    def __post_init__(self) -> None:
        if self.kind == StrategyKind.MES:
            if self.base is None:
                object.__setattr__(self, "base", StrategyKind.PLAIN)
            if self.base == StrategyKind.MES:
                raise ValueError("MES cannot wrap itself")
            if self.runs < 1:
                raise ValueError("MES needs at least one run")
        else:
            if self.base is not None:
                raise ValueError("only MES takes a base strategy")
            if self.runs != 1:
                raise ValueError("run counts other than 1 are MES-only")

    @classmethod
    def mes(
        cls, base: StrategyKind = StrategyKind.PLAIN, runs: int = MES_DEFAULT_RUNS
    ) -> "Strategy":
        return cls(kind=StrategyKind.MES, base=base, runs=runs)

    @property
    def effective_kind(self) -> StrategyKind:
        """The kind that controls rendering (MES unwraps to its base)."""
        return self.base if self.kind == StrategyKind.MES else self.kind

    @property
    def label(self) -> str:
        if self.kind == StrategyKind.MES:
            return f"mes:{self.base.value}:{self.runs}"
        return self.kind.value

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse 'plain', 'css', 'mes', 'mes:css' or 'mes:css:5' forms."""
        parts = text.strip().lower().split(":")
        names = {k.value: k for k in StrategyKind}
        if parts[0] not in names:
            raise ValueError(
                f"unknown strategy {parts[0]!r}; valid: {sorted(names)}"
            )
        kind = names[parts[0]]
        if kind != StrategyKind.MES:
            if len(parts) > 1:
                raise ValueError(f"strategy {kind.value!r} takes no arguments")
            return cls(kind=kind)
        base = StrategyKind.PLAIN
        runs = MES_DEFAULT_RUNS
        if len(parts) >= 2 and parts[1]:
            if parts[1] not in names:
                raise ValueError(
                    f"unknown MES base {parts[1]!r}; valid: "
                    f"{sorted(set(names) - {'mes'})}"
                )
            base = names[parts[1]]
        if len(parts) >= 3:
            try:
                runs = int(parts[2])
            except ValueError:
                raise ValueError(f"MES run count must be an integer: {parts[2]!r}")
        if len(parts) > 3:
            raise ValueError(f"cannot parse strategy {text!r}")
        return cls.mes(base=base, runs=runs)

    @property
    def answer_schema(self) -> AnswerSchema:
        return _LAYOUT[self.effective_kind].schema

    @property
    def shows_examples(self) -> bool:
        """False for the zero-shot kinds, which take no in-context examples."""
        return _LAYOUT[self.effective_kind].examples

    @property
    def shows_confidence(self) -> bool:
        """True for the CSS kinds, whose examples carry confidences."""
        return _LAYOUT[self.effective_kind].confidence


@dataclass(frozen=True)
class PromptConfig:
    strategy: Strategy = Strategy(StrategyKind.PLAIN)
    k: int = 4
    n: int = 3
    include_condition: bool = False
    include_reaction_type: bool = False
    molecule_rendering: MoleculeRendering = MoleculeRendering.SMILES_ONLY
    css: CssConfig = field(default_factory=CssConfig)
    shuffle_candidates_seed: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user"):
            raise ValueError(f"unsupported message role {self.role!r}")


@dataclass(frozen=True)
class PromptMeta:
    """Machine-readable facts about what the prompt displays.

    candidate ids/keys follow display order (the lettering); rank_order
    maps display position -> index into the original CandidateList.
    truth_key is the query's product key when the query carries products,
    letting a scripted oracle answer correctly in tests.
    """

    query_id: str
    candidate_ids: tuple[str, ...]
    candidate_keys: tuple[tuple[str, ...], ...]
    rank_order: tuple[int, ...]
    truth_key: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RenderedPrompt:
    messages: tuple[Message, ...]
    answer_schema: AnswerSchema
    letters: tuple[str, ...]
    meta: PromptMeta

    def as_chat(self) -> list[dict]:
        return [{"role": m.role, "content": m.content} for m in self.messages]

    @property
    def text(self) -> str:
        return "\n\n".join(m.content for m in self.messages)


def render_molecule(
    smiles: str,
    cfg: PromptConfig,
    iupac_table: dict[str, str] | None = None,
) -> str:
    """'NAME (SMILES: s)' when a name is known and requested, else 'SMILES: s'."""
    if (
        cfg.molecule_rendering == MoleculeRendering.SMILES_PLUS_IUPAC
        and iupac_table
        and smiles in iupac_table
    ):
        return f"{iupac_table[smiles]} (SMILES: {smiles})"
    return f"SMILES: {smiles}"


def _render_side(smiles_list, cfg, iupac_table) -> str:
    return " + ".join(render_molecule(s, cfg, iupac_table) for s in smiles_list)


def _candidate_block(candidates, order, cfg, iupac_table) -> str:
    lines = []
    for letter_idx, rank in enumerate(order):
        entry = candidates.entries[rank]
        label = string.ascii_uppercase[letter_idx]
        lines.append(f"{label}. {_render_side(entry.products, cfg, iupac_table)}")
    return "\n".join(lines)


def _optional_line(flag: bool, prefix: str, value: str | None) -> str:
    if flag and value:
        return f"{prefix}: {value}\n"
    return ""


def _rationale_line(kind: StrategyKind, record: ReactionRecord) -> str:
    if kind != StrategyKind.FEW_SHOT_COT:
        return ""
    if record.reaction_type:
        return f"Rationale: consistent with a {record.reaction_type} step.\n"
    return "Rationale: this candidate accounts for every reactant.\n"


def render(
    query: ReactionRecord,
    candidates: CandidateList,
    context: list[InContextExample],
    cfg: PromptConfig,
    iupac_table: dict[str, str] | None = None,
    templates: TemplateSet | None = None,
) -> RenderedPrompt:
    """Deterministically assemble the full chat prompt."""
    templates = templates if templates is not None else default_templates()
    kind = cfg.strategy.effective_kind
    layout = _LAYOUT[kind]

    if not candidates.entries:
        raise SchemaConflict("cannot render a prompt without candidates")
    if len(candidates.entries) > len(string.ascii_uppercase):
        raise SchemaConflict(
            f"{len(candidates.entries)} candidates exceed the letter labels"
        )
    if not layout.examples:
        if context:
            raise SchemaConflict(f"{kind.value} takes no in-context examples")
    elif not context:
        raise SchemaConflict(f"{kind.value} requires in-context examples")
    if layout.confidence:
        missing = [e.record.id for e in context if e.confidence is None]
        if missing:
            raise SchemaConflict(
                f"{kind.value} context examples lack confidences: {missing}"
            )

    order = list(range(len(candidates.entries)))
    if cfg.shuffle_candidates_seed is not None:
        random.Random(cfg.shuffle_candidates_seed).shuffle(order)

    blocks = [templates[layout.header].text.rstrip("\n")]
    example_template = templates["example"]
    for position, example in enumerate(context, start=1):
        record = example.record
        example_order = list(range(len(example.candidates.entries)))
        confidence = ""
        if layout.confidence:
            confidence = f"\nConfidence: {example.confidence}"
        values = {
            "index": str(position),
            "reactants": _render_side(record.reactants, cfg, iupac_table),
            "condition": _optional_line(
                cfg.include_condition, "Condition", record.condition
            ),
            "reaction_type": _optional_line(
                cfg.include_reaction_type, "Reaction type", record.reaction_type
            ),
            "candidates": _candidate_block(
                example.candidates, example_order, cfg, iupac_table
            ),
            "answer": string.ascii_uppercase[example.shown_answer],
            "confidence": confidence,
            "rationale": _rationale_line(kind, record),
        }
        blocks.append(example_template.render(values).rstrip("\n"))

    query_values = {
        "reactants": _render_side(query.reactants, cfg, iupac_table),
        "condition": _optional_line(
            cfg.include_condition, "Condition", query.condition
        ),
        "reaction_type": _optional_line(
            cfg.include_reaction_type, "Reaction type", query.reaction_type
        ),
        "candidates": _candidate_block(candidates, order, cfg, iupac_table),
    }
    blocks.append(templates["query"].render(query_values).rstrip("\n"))

    letters = tuple(string.ascii_uppercase[: len(order)])
    closing_values = {"letters": ", ".join(letters)}
    blocks.append(templates[layout.closing].render(closing_values).rstrip("\n"))

    truth_key = None
    if query.products:
        truth_key = query.product_key()
    meta = PromptMeta(
        query_id=query.id,
        candidate_ids=tuple(candidates.entries[i].entry_id for i in order),
        candidate_keys=tuple(candidates.entries[i].keys for i in order),
        rank_order=tuple(order),
        truth_key=truth_key,
    )
    return RenderedPrompt(
        messages=(
            Message(role="system", content=templates["system"].text.rstrip("\n")),
            Message(role="user", content="\n\n".join(blocks)),
        ),
        answer_schema=layout.schema,
        letters=letters,
        meta=meta,
    )


_TOKEN_RUN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]+")


def estimate_tokens(prompt: RenderedPrompt) -> int:
    """Crude token count: alphanumeric runs plus punctuation clusters.

    Documented as an estimate within roughly 30 percent of BPE counts;
    it exists so strategy comparisons can report relative prompt cost
    without a tokenizer dependency.
    """
    return sum(len(_TOKEN_RUN.findall(m.content)) for m in prompt.messages)
