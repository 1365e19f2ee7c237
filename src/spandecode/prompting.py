"""Prompt templates for rendering (passage, question) into encoder input.

Six templates ship as a JSON file in the package and are kept byte-exact,
including trailing punctuation around the sentinel: prompt bytes change
model scores, so fidelity beats aesthetics. Template 2
("Text:/Question:/Answer:") is the default.

The decoder side is fixed: every answer is forced after ``OPEN_SENTINEL``
and ends at a terminator, whose token ids the CLI derives from its
``--terminator-mode``. ``harness.prepare_example`` is the one place a
prompt is rendered and encoded for the decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .mrqa import DataError, read_json

OPEN_SENTINEL = "<extra_id_0>"
CLOSE_SENTINEL = "<extra_id_1>"

DEFAULT_TEMPLATE_ID = 2
TEMPLATES = Path(__file__).with_name("data") / "templates.json"

# The one target pattern: template files may carry it, as the built-in one does.
TARGET_PATTERN = OPEN_SENTINEL + "{a}" + CLOSE_SENTINEL


@dataclass(frozen=True)
class PromptTemplate:
    id: int
    encoder_pattern: str

    def __post_init__(self):
        if not isinstance(self.encoder_pattern, str):
            raise ValueError(f"template {self.id}: encoder_pattern must be a string")
        for placeholder in ("{T}", "{Q}", OPEN_SENTINEL):
            if self.encoder_pattern.count(placeholder) != 1:
                raise ValueError(
                    f"template {self.id}: {placeholder} must appear exactly once"
                )


def _load(raw) -> tuple[PromptTemplate, ...]:
    """Templates from a JSON list of PromptTemplate fields, each optionally
    with ``"target_pattern": TARGET_PATTERN``; ValueError names the entry
    for anything else."""
    if not isinstance(raw, list):
        raise ValueError("expected a JSON list of templates")
    templates = []
    for index, entry in enumerate(raw):
        if isinstance(entry, dict) and "target_pattern" in entry:
            if entry["target_pattern"] != TARGET_PATTERN:
                raise ValueError(f"template {index}: unexpected target pattern")
            entry = {key: value for key, value in entry.items() if key != "target_pattern"}
        try:
            templates.append(PromptTemplate(**entry))
        except TypeError as exc:
            raise ValueError(f"template {index}: {exc}") from exc
    return tuple(templates)


def list_templates(path: str | Path | None = None) -> tuple[PromptTemplate, ...]:
    """The built-in template library, or one loaded from an override file;
    DataError naming ``path`` when that file is not a valid library."""
    return read_json(TEMPLATES if path is None else path, _load)


def get_template(template_id: int, path: str | Path | None = None) -> PromptTemplate:
    """The template ``template_id`` of ``list_templates(path)``; DataError
    when there is none."""
    for tpl in list_templates(path):
        if tpl.id == template_id:
            return tpl
    raise DataError(f"no template with id {template_id}" + (f" in {path}" if path else ""))


def render_encoder_input(tpl: PromptTemplate, passage: str, question: str) -> str:
    """Substitute the passage and question verbatim into the encoder pattern."""
    return tpl.encoder_pattern.replace("{T}", passage).replace("{Q}", question)


def render_target_prefix_and_terminator(tpl: PromptTemplate) -> tuple[str, frozenset[str]]:
    """The forced decoder prefix and the closing sentinel, for callers
    outside the package; the program itself uses ``OPEN_SENTINEL``."""
    return OPEN_SENTINEL, frozenset({CLOSE_SENTINEL})
