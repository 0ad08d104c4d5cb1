"""Minimal placeholder templating for prompt text.

Every piece of prompt wording lives in a named template file so a run
can be pinned to a template-set hash.  Templates use {{name}} holes;
each slot declares which names it may use, and loading rejects anything
else so typos surface before any request is made.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

from ..loading import InputError, read_file


class TemplateError(InputError, ValueError):
    """Raised for unknown slots, bad placeholders or unreadable files."""


_PLACEHOLDER = re.compile(r"\{\{([^{}]*)\}\}")
_NAME = re.compile(r"[a-z][a-z0-9_]*$")

# slot name -> placeholders the slot may use
SLOT_PLACEHOLDERS: dict[str, frozenset[str]] = {
    "system": frozenset(),
    "header_plain": frozenset(),
    "header_json": frozenset(),
    "header_css": frozenset(),
    "header_fine": frozenset(),
    "header_zeroshot": frozenset(),
    "header_fewshot_cot": frozenset(),
    "example": frozenset(
        {
            "index",
            "reactants",
            "condition",
            "reaction_type",
            "candidates",
            "answer",
            "confidence",
            "rationale",
        }
    ),
    "query": frozenset({"reactants", "condition", "reaction_type", "candidates"}),
    "closing_letter": frozenset({"letters"}),
    "closing_confidence": frozenset({"letters"}),
    "closing_fine": frozenset({"letters"}),
    "closing_json": frozenset({"letters"}),
    "closing_cot": frozenset({"letters"}),
}

# placeholders a slot cannot work without
SLOT_REQUIRED: dict[str, frozenset[str]] = {
    "example": frozenset(
        {"reactants", "condition", "reaction_type", "candidates", "answer"}
    ),
    "query": frozenset({"reactants", "condition", "reaction_type", "candidates"}),
}


@dataclass(frozen=True)
class Template:
    slot: str
    text: str

    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER.findall(self.text))

    def render(self, values: dict[str, str]) -> str:
        def substitute(match: re.Match) -> str:
            name = match.group(1)
            if name not in values:
                raise TemplateError(
                    f"template {self.slot!r} uses {{{{{name}}}}} "
                    "but no value was supplied"
                )
            return values[name]

        return _PLACEHOLDER.sub(substitute, self.text)


def _validate(slot: str, text: str) -> Template:
    allowed = SLOT_PLACEHOLDERS[slot]
    template = Template(slot=slot, text=text)
    for name in _PLACEHOLDER.findall(text):
        if not _NAME.match(name):
            raise TemplateError(f"template {slot!r}: malformed placeholder {name!r}")
        if name not in allowed:
            raise TemplateError(
                f"template {slot!r}: unknown placeholder {{{{{name}}}}}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
    missing = SLOT_REQUIRED.get(slot, frozenset()) - template.placeholders()
    if missing:
        raise TemplateError(
            f"template {slot!r}: missing required placeholders {sorted(missing)}"
        )
    return template


@dataclass(frozen=True)
class TemplateSet:
    """All prompt wording, loaded from one directory of <slot>.txt files."""

    templates: tuple[tuple[str, Template], ...]

    def __getitem__(self, slot: str) -> Template:
        for name, template in self.templates:
            if name == slot:
                return template
        raise TemplateError(f"no template for slot {slot!r}")

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for name, template in sorted(self.templates):
            digest.update(name.encode())
            digest.update(b"\x00")
            digest.update(template.text.encode())
            digest.update(b"\x00")
        return digest.hexdigest()

    @classmethod
    def load(cls, directory: str | Path) -> "TemplateSet":
        root = Path(directory)
        loaded = []
        for slot in sorted(SLOT_PLACEHOLDERS):
            text = read_file(root / f"{slot}.txt", TemplateError)
            loaded.append((slot, _validate(slot, text)))
        return cls(templates=tuple(loaded))


@cache
def default_templates() -> TemplateSet:
    """The template set shipped inside the package."""
    with resources.as_file(resources.files("relm.prompt") / "templates") as root:
        return TemplateSet.load(root)
