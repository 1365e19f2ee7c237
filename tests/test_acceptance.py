"""Top-level acceptance suite.

Each test covers one numbered claim about the toolkit and reports a single
PASS/FAIL line on the real stdout, so the checklist is visible even under
pytest's output capture.
"""

import contextlib
import json
import math
import random
import re
import time
from pathlib import Path

import pytest

from spandecode import metrics
from spandecode.decoding import build_span_table, exact_extract, greedy_decode, naive_exact
from spandecode.harness import select_hyperparameters
from spandecode.mrqa import QAExample, subsample
from spandecode.prompting import get_template, render_encoder_input
from spandecode.rss import RssConfig, generate_corpus
from spandecode.scorer import TableLM
from spandecode.vocab import Vocabulary

from conftest import TOY_PIECES, bare_vocab, random_table_lm

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number: int, title: str):
    import conftest

    try:
        yield
    except Exception:
        line = f"criterion {number:2d} ({title}): FAIL"
        conftest.acceptance_lines.append(line)
        print(line, flush=True)
        raise
    line = f"criterion {number:2d} ({title}): PASS"
    conftest.acceptance_lines.append(line)
    print(line, flush=True)


def empty(vocab):
    return vocab.seq(())


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        rng = random.Random(10_01)
        start = time.monotonic()
        for _ in range(1000):
            _, lm, passage = random_table_lm(rng, max_vocab=16, max_len=12)
            vocab = lm.vocab
            fast = exact_extract(passage, empty(vocab), empty(vocab), lm)
            slow = naive_exact(passage, empty(vocab), empty(vocab), lm)
            assert (fast.start, fast.length) == (slow.start, slow.length)
            assert abs(fast.span_logprob - slow.span_logprob) <= 1e-9
        assert time.monotonic() - start < 60


def test_criterion_02_pass_complexity():
    with criterion(2, "pass complexity"):
        vocab = bare_vocab(8)
        lm = TableLM(vocab)
        rng = random.Random(10_02)
        for n in range(1, 33):
            passage = vocab.seq(rng.randrange(7) for _ in range(n))
            before = lm.pass_count()
            fast = exact_extract(passage, empty(vocab), empty(vocab), lm)
            assert fast.passes_used == n
            assert lm.pass_count() - before == n
            before = lm.pass_count()
            slow = naive_exact(passage, empty(vocab), empty(vocab), lm)
            assert slow.passes_used == n * (n + 1) // 2
            assert lm.pass_count() - before == n * (n + 1) // 2


def test_criterion_03_dp_recurrence():
    with criterion(3, "DP recurrence"):
        # Three-token model; every expected entry is a literal sum of logs.
        vocab3 = bare_vocab(5)
        lm3 = TableLM(
            vocab3,
            default={0: 0.25, 1: 0.25, 2: 0.25, 3: 0.125, 4: 0.125},
            contexts={
                (): {0: 0.5, 1: 0.25, 2: 0.125, 3: 0.0625, 4: 0.0625},
                (0,): {1: 0.5, 2: 0.25, 0: 0.125, 3: 0.0625, 4: 0.0625},
                (0, 1): {2: 0.5, 4: 0.25, 0: 0.125, 1: 0.125},
                (1,): {2: 0.75, 4: 0.125, 0: 0.0625, 1: 0.0625},
                (1, 2): {4: 0.75, 0: 0.125, 1: 0.125},
                (2,): {4: 0.5, 0: 0.5},
            },
        )
        table3 = build_span_table(vocab3.seq((0, 1, 2)), empty(vocab3), empty(vocab3), lm3)
        expected3 = {
            (0, 1): math.log(0.5),
            (0, 2): math.log(0.5) + math.log(0.5),
            (0, 3): math.log(0.5) + math.log(0.5) + math.log(0.5),
            (1, 1): math.log(0.25),
            (1, 2): math.log(0.25) + math.log(0.75),
            (2, 1): math.log(0.125),
        }
        for i in range(3):
            assert table3.L[i][0] == 0.0
        for (i, j), want in expected3.items():
            assert abs(table3.L[i][j] - want) <= 1e-12

        # Five-token model checked against an independent table lookup.
        vocab5 = bare_vocab(8)
        passage5 = (2, 3, 4, 0, 2)
        default5 = {i: 0.125 for i in range(8)}
        contexts5 = {
            (): {2: 0.5, 3: 0.125, 4: 0.125, 0: 0.125, 7: 0.0625, 1: 0.0625},
            (2,): {3: 0.5, 7: 0.25, 0: 0.125, 4: 0.125},
            (2, 3): {4: 0.5, 7: 0.375, 2: 0.125},
        }
        lm5 = TableLM(vocab5, default=default5, contexts=contexts5)
        table5 = build_span_table(vocab5.seq(passage5), empty(vocab5), empty(vocab5), lm5)

        def prob(prefix, token):
            return contexts5.get(prefix, default5).get(token, 0.0)

        for i in range(5):
            assert table5.L[i][0] == 0.0
            total = 0.0
            for j in range(1, 5 - i + 1):
                total += math.log(prob(passage5[i : i + j - 1], passage5[i + j - 1]))
                assert abs(table5.L[i][j] - total) <= 1e-12


def test_criterion_04_f1_conformance():
    with criterion(4, "F1 conformance"):
        assert metrics.token_f1("the IRA", {"IRA"}) == 1.0
        assert metrics.token_f1("sixty percent", {"60%"}) == 0.0
        assert metrics.token_f1("Paris", {"Paris"}) == 1.0
        cases = json.loads((GOLDEN_DIR / "f1_cases.json").read_text(encoding="utf-8"))
        assert len(cases) == 50
        for case in cases:
            assert metrics.token_f1(case["prediction"], case["golds"]) == case["f1"]


def test_criterion_05_tokenization_partition():
    with criterion(5, "tokenization partition"):
        vocab = Vocabulary(
            TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"]
        )
        passage_text = "(1971)"
        gold = "1971"
        assert metrics.partition_example({gold}, passage_text, vocab) == metrics.S_OUT

        # No passage span can decode to the gold string, so exact-extract
        # cannot produce it regardless of the model.
        passage = vocab.encode(passage_text)
        for i in range(len(passage)):
            for j in range(1, len(passage) - i + 1):
                assert vocab.decode(passage[i : i + j]).strip() != gold
        uniform = exact_extract(passage, empty(vocab), empty(vocab), TableLM(vocab))
        assert uniform.text != gold

        # A greedy path can emit the single-piece "1971" surface, which
        # matches the gold exactly but maps back to no passage span.
        year = vocab.piece_id("▁1971")
        term = vocab.terminator_id
        lm = TableLM(
            vocab,
            contexts={(): {year: 0.75, term: 0.125, 12: 0.125}, (year,): {term: 1.0}},
        )
        greedy = greedy_decode(empty(vocab), empty(vocab), lm, passage=passage)
        assert greedy.text == gold
        assert greedy.extractive is False
        assert metrics.token_f1(greedy.text, {gold}) == 1.0
        assert metrics.exact_match(greedy.text, {gold})


def test_criterion_06_extractiveness_definitions():
    with criterion(6, "extractiveness definitions"):
        # Exact-extract output is always a literal passage substring.
        rng = random.Random(10_06)
        for _ in range(200):
            _, lm, passage = random_table_lm(rng, max_vocab=10, max_len=8)
            vocab = lm.vocab
            result = exact_extract(passage, empty(vocab), empty(vocab), lm)
            assert metrics.is_extractive(result.text, vocab.decode(passage))

        # A greedy path emitting an off-passage token is 0% extractive ...
        vocab = bare_vocab(8)
        term = vocab.terminator_id
        passage = vocab.seq((0, 1, 2))
        off = TableLM(vocab, contexts={(): {6: 0.75, term: 0.25}, (6,): {term: 1.0}})
        stray = greedy_decode(empty(vocab), empty(vocab), off, passage=passage)
        assert not metrics.is_extractive(stray.text, vocab.decode(passage))

        # ... while one that spells a passage span is 100% extractive.
        on = TableLM(
            vocab, contexts={(): {1: 0.75, term: 0.25}, (1,): {term: 1.0}}
        )
        copied = greedy_decode(empty(vocab), empty(vocab), on, passage=passage)
        assert metrics.is_extractive(copied.text, vocab.decode(passage))

        # The "." garbage output never counts, even where the passage
        # literally contains a period.
        toy = Vocabulary(
            TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"]
        )
        dotty = TableLM(
            toy,
            contexts={
                (): {toy.piece_id("."): 0.75, toy.terminator_id: 0.25},
                (toy.piece_id("."),): {toy.terminator_id: 1.0},
            },
        )
        garbage = greedy_decode(empty(toy), empty(toy), dotty)
        assert garbage.text == "."
        assert not metrics.is_extractive(garbage.text, "The album released in 1971.")


def test_criterion_07_rss_invariants():
    with criterion(7, "RSS invariants"):
        words = ["turing", "london", "paris", "fox", "river", "the", "a", "was",
                 "in", "ran", "blue", "stone", "gate", "iron"]
        rng = random.Random(10_07)
        passages = [
            " ".join(rng.choice(words) for _ in range(rng.randint(4, 40)))
            for _ in range(1000)
        ]
        stopwords = frozenset({"the", "a", "an", "was", "in", "and", "of"})
        cfg = RssConfig(stopwords=stopwords, rng_seed=7)

        def occurrences(passage, surface):
            tokens = re.findall(r"\w+|[^\w\s]", passage)
            target = re.findall(r"\w+|[^\w\s]", surface)
            count = i = 0
            while i <= len(tokens) - len(target):
                if tokens[i : i + len(target)] == target:
                    count += 1
                    i += len(target)
                else:
                    i += 1
            return count

        runs = []
        for _ in range(2):
            lines = []
            for ex in generate_corpus(passages, cfg, limit=100_000):
                assert ex.masked_passage.count("<extra_id_0>") == 1
                assert ex.target == f"<extra_id_0>{ex.span_surface}<extra_id_1>"
                restored = ex.masked_passage.replace("<extra_id_0>", ex.span_surface)
                assert ex.occurrence_count >= 2
                assert occurrences(restored, ex.span_surface) == ex.occurrence_count
                span_words = ex.span_surface.split()
                assert span_words[0] not in stopwords
                assert span_words[-1] not in stopwords
                assert any(w not in stopwords for w in span_words)
                lines.append(json.dumps(ex.to_dict(), ensure_ascii=False))
            runs.append("\n".join(lines))
        assert runs[0]
        assert runs[0] == runs[1]


def test_criterion_08_hyperparameter_selection():
    with criterion(8, "hyperparameter selection"):
        assert select_hyperparameters([[[80.0], [60.0]], [[70.0], [70.0]]]) == 1
        rng = random.Random(10_08)
        for _ in range(100):
            num_cfg = rng.randint(2, 5)
            num_sizes = rng.randint(1, 7)
            num_samples = rng.randint(1, 5)
            scores = [
                [[rng.uniform(1, 100) for _ in range(num_samples)] for _ in range(num_sizes)]
                for _ in range(num_cfg)
            ]
            winner = select_hyperparameters(scores)
            factors = [rng.uniform(0.01, 1.0) for _ in range(num_sizes)]
            rescaled = [
                [[v * factors[n] for v in row[n]] for n in range(num_sizes)]
                for row in scores
            ]
            assert select_hyperparameters(rescaled) == winner


def test_criterion_09_few_shot_structure():
    with criterion(9, "few-shot structure"):
        dataset = [
            QAExample(
                id=f"q{i}",
                context=f"training passage number {i}",
                question="?",
                answers=(f"number {i}",),
            )
            for i in range(1100)
        ]
        validation = [
            QAExample(id="v0", context="held-out passage", question="?", answers=("x",))
        ]
        splits = subsample(dataset, seed=0, validation=validation)
        again = subsample(dataset, seed=0, validation=validation)
        assert splits == again
        assert len(splits) == 35
        layout = sorted((s.size, s.sample_index) for s in splits)
        assert layout == sorted(
            (size, k)
            for size in (16, 32, 64, 128, 256, 512, 1024)
            for k in range(5)
        )
        for split in splits:
            assert len(set(split.example_ids)) == split.size


def test_criterion_10_prompt_fidelity():
    with criterion(10, "prompt fidelity"):
        passage = "The IRA was active in 1971."
        question = "Who was active?"
        for template_id in range(1, 7):
            golden = (GOLDEN_DIR / "templates" / f"template_{template_id}.txt").read_text(
                encoding="utf-8"
            )
            rendered = render_encoder_input(get_template(template_id), passage, question)
            assert rendered == golden
        assert render_encoder_input(get_template(2), passage, question) == (
            "Text: The IRA was active in 1971.\n"
            "Question: Who was active?\n"
            "Answer:<extra_id_0>."
        )
