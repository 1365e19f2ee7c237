"""Prompt templates for rendering (passage, question) into encoder input.

Six templates ship as an embedded JSON resource and are kept byte-exact,
including trailing punctuation around the sentinel: prompt bytes change
model scores, so fidelity beats aesthetics. Template 2
("Text:/Question:/Answer:") is the default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

OPEN_SENTINEL = "<extra_id_0>"
CLOSE_SENTINEL = "<extra_id_1>"
DEFAULT_EOS = "</s>"

DEFAULT_TEMPLATE_ID = 2

# How the answer sequence is considered terminated: by the closing
# sentinel, by the model's end-of-sequence token, or by either.
TERMINATOR_MODES = ("sentinel", "eos", "combined")


@dataclass(frozen=True)
class PromptTemplate:
    id: int
    encoder_pattern: str
    target_pattern: str = OPEN_SENTINEL + "{a}" + CLOSE_SENTINEL

    def __post_init__(self):
        if not isinstance(self.encoder_pattern, str):
            raise ValueError(f"template {self.id}: encoder_pattern must be a string")
        for placeholder in ("{T}", "{Q}", OPEN_SENTINEL):
            if self.encoder_pattern.count(placeholder) != 1:
                raise ValueError(
                    f"template {self.id}: {placeholder} must appear exactly once"
                )
        if self.target_pattern != OPEN_SENTINEL + "{a}" + CLOSE_SENTINEL:
            raise ValueError(f"template {self.id}: unexpected target pattern")


def _load(raw, where) -> tuple[PromptTemplate, ...]:
    """Templates from a JSON list of PromptTemplate fields; ValueError names
    ``where`` and the entry for anything else."""
    if not isinstance(raw, list):
        raise ValueError(f"{where}: expected a JSON list of templates")
    templates = []
    for index, entry in enumerate(raw):
        try:
            templates.append(PromptTemplate(**entry))
        except TypeError as exc:
            raise ValueError(f"{where}: template {index}: {exc}") from exc
    return tuple(templates)


def list_templates(path: str | Path | None = None) -> tuple[PromptTemplate, ...]:
    """The built-in template library, or one loaded from an override file."""
    if path is not None:
        with open(path, encoding="utf-8") as f:
            return _load(json.load(f), path)
    data = resources.files("spandecode.data").joinpath("templates.json")
    return _load(json.loads(data.read_text(encoding="utf-8")), "templates.json")


def get_template(template_id: int, path: str | Path | None = None) -> PromptTemplate:
    for tpl in list_templates(path):
        if tpl.id == template_id:
            return tpl
    raise KeyError(f"no template with id {template_id}" + (f" in {path}" if path else ""))


def render_encoder_input(tpl: PromptTemplate, passage: str, question: str) -> str:
    """Substitute the passage and question verbatim into the encoder pattern."""
    return tpl.encoder_pattern.replace("{T}", passage).replace("{Q}", question)


def render_target(tpl: PromptTemplate, answer: str) -> str:
    return tpl.target_pattern.replace("{a}", answer)


def render_target_prefix_and_terminator(
    tpl: PromptTemplate, mode: str = "sentinel", eos: str = DEFAULT_EOS
) -> tuple[str, frozenset[str]]:
    """The forced decoder prefix and the surfaces that end the answer."""
    if mode not in TERMINATOR_MODES:
        raise ValueError(f"unknown terminator mode {mode!r}")
    if mode == "sentinel":
        terminators = frozenset({CLOSE_SENTINEL})
    elif mode == "eos":
        terminators = frozenset({eos})
    else:
        terminators = frozenset({CLOSE_SENTINEL, eos})
    return OPEN_SENTINEL, terminators
