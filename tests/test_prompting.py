import json
import random
import re
from pathlib import Path

import pytest

from spandecode.prompting import (
    CLOSE_SENTINEL,
    OPEN_SENTINEL,
    PromptTemplate,
    get_template,
    list_templates,
    render_encoder_input,
    render_target_prefix_and_terminator,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "templates"
GOLDEN_T = "The IRA was active in 1971."
GOLDEN_Q = "Who was active?"


def test_six_templates():
    templates = list_templates()
    assert len(templates) == 6
    assert [t.id for t in templates] == [1, 2, 3, 4, 5, 6]


def test_all_templates_carry_open_sentinel():
    assert all(OPEN_SENTINEL in t.encoder_pattern for t in list_templates())


def test_template_6_background_prefix():
    assert get_template(6).encoder_pattern.startswith("Background: ")


def test_default_template_render():
    rendered = render_encoder_input(get_template(2), "Paris is big.", "What is big?")
    assert rendered == "Text: Paris is big.\nQuestion: What is big?\nAnswer:<extra_id_0>."


def test_bare_template_render():
    rendered = render_encoder_input(get_template(3), "Paris is big.", "What is big?")
    assert rendered == "Paris is big.\nWhat is big?\n<extra_id_0>."


def test_empty_question_is_legal():
    rendered = render_encoder_input(get_template(2), "Paris is big.", "")
    assert rendered == "Text: Paris is big.\nQuestion: \nAnswer:<extra_id_0>."


@pytest.mark.parametrize("template_id", [1, 2, 3, 4, 5, 6])
def test_golden_renders(template_id):
    expected = (GOLDEN_DIR / f"template_{template_id}.txt").read_text(encoding="utf-8")
    rendered = render_encoder_input(get_template(template_id), GOLDEN_T, GOLDEN_Q)
    assert rendered == expected


class TestPrefixAndTerminator:
    def test_default_sentinel_mode(self):
        prefix, terminators = render_target_prefix_and_terminator(get_template(2))
        assert prefix == OPEN_SENTINEL
        assert terminators == {CLOSE_SENTINEL}


class TestValidation:
    def test_missing_placeholder_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(id=9, encoder_pattern="no placeholders<extra_id_0>")

    def test_duplicate_placeholder_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(id=9, encoder_pattern="{T}{T}{Q}<extra_id_0>")


def test_override_file(tmp_path):
    path = tmp_path / "prompts.json"
    path.write_text(
        json.dumps([{"id": 1, "encoder_pattern": "X {T} Y {Q} Z <extra_id_0>"}]),
        encoding="utf-8",
    )
    templates = list_templates(path)
    assert len(templates) == 1
    assert render_encoder_input(templates[0], "t", "q") == "X t Y q Z <extra_id_0>"


def test_override_file_may_carry_the_target_pattern(tmp_path):
    # The built-in file carries the one target pattern on every entry.
    path = tmp_path / "prompts.json"
    entry = {"id": 1, "encoder_pattern": "X {T} Y {Q} Z <extra_id_0>"}
    path.write_text(json.dumps([{**entry, "target_pattern": "<extra_id_0>{a}<extra_id_1>"}]),
                    encoding="utf-8")
    assert list_templates(path) == (PromptTemplate(**entry),)


@pytest.mark.parametrize("pattern", ["{a}", "<extra_id_0>{a}</s>", None, ["<extra_id_0>{a}<extra_id_1>"]])
def test_override_file_with_another_target_pattern_is_refused(tmp_path, pattern):
    path = tmp_path / "prompts.json"
    entries = [
        {"id": 1, "encoder_pattern": "{T} {Q} <extra_id_0>"},
        {"id": 2, "encoder_pattern": "{T} {Q} <extra_id_0>", "target_pattern": pattern},
    ]
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: template 1: unexpected target pattern")):
        list_templates(path)


def test_override_file_that_is_not_json_is_refused_naming_it(tmp_path):
    path = tmp_path / "prompts.json"
    path.write_text("{\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: Expecting property name")):
        list_templates(path)


def test_rendering_injective_for_sentinel_free_inputs():
    rng = random.Random(2)
    tpl = get_template(2)
    seen = {}
    for _ in range(300):
        passage = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 8)))
        question = "".join(rng.choice("xyz ") for _ in range(rng.randint(0, 8)))
        rendered = render_encoder_input(tpl, passage, question)
        key = (passage, question)
        if rendered in seen.values():
            match = [k for k, v in seen.items() if v == rendered]
            assert match == [key]
        seen[key] = rendered
