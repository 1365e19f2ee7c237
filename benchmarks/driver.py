"""The benchmark's closed-loop client: set-up and one example at a time.

Every call goes through the public functions that ``spandecode eval`` and
``spandecode decode`` use, looked up on their modules at call time so the
tracer's wrappers see them. ``eval_example`` is what ``harness.run_eval``
runs per example; ``decode_example`` is the loop body of ``cli.cmd_decode``
with ``--algo exact``.
"""

from __future__ import annotations

import json
import shlex
import sys
import time
from pathlib import Path

from spandecode import cli, decoding, harness, metrics, mrqa, prompting
from spandecode.vocab import Vocabulary

HERE = Path(__file__).resolve().parent
TEMPLATE_ID = 2  # the CLI's default --prompt-id


class Inputs:
    """Paths of one generated input set and the scorer specs that read them."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.vocab = directory / "vocab.json"
        self.table = directory / "table.json"
        self.dataset = directory / "dataset.jsonl"
        with open(directory / "expected.json", encoding="utf-8") as f:
            self.expected = json.load(f)
        with open(self.vocab, encoding="utf-8") as f:
            pieces = json.load(f)["pieces"]
        # The CLI's default terminator mode scores the closing sentinel.
        self.terminator_id = pieces.index(prompting.CLOSE_SENTINEL)

    def _server_args(self) -> list[str]:
        return ["--vocab", str(self.vocab), "--table", str(self.table), "--terminator-ids", str(self.terminator_id)]

    def table_spec(self) -> str:
        return f"table:{self.table}"

    def stdio_spec(self) -> str:
        return "stdio:" + shlex.join([sys.executable, "-m", "spandecode.remote", *self._server_args()])

    def counting_spec(self, stats: Path) -> str:
        server = str(HERE / "counting_server.py")
        return "stdio:" + shlex.join([sys.executable, server, *self._server_args(), "--stats", str(stats)])


def setup(inputs: Inputs, spec: str):
    """Load everything the first example needs; return it with phase times in seconds."""
    t0 = time.perf_counter()
    vocab = Vocabulary.from_file(inputs.vocab)
    t1 = time.perf_counter()
    scorer = cli.make_scorer(spec, vocab)
    # One pass, so that a stdio child has loaded its table before timing ends.
    empty = vocab.seq(())
    scorer.next_token_distribution(empty, empty)
    t2 = time.perf_counter()
    dataset = mrqa.load_dataset(inputs.dataset)
    t3 = time.perf_counter()
    phases = {"vocab": t1 - t0, "scorer": t2 - t1, "dataset": t3 - t2}
    return vocab, scorer, dataset, phases


def close(scorer) -> None:
    if scorer is not None and hasattr(scorer, "close"):
        scorer.close()


def template():
    return prompting.get_template(TEMPLATE_ID)


def encode_example(example, tpl, vocab):
    """Encoder input, forced decoder prefix and passage, as the CLI builds them."""
    source = vocab.encode(prompting.render_encoder_input(tpl, example.context, example.question))
    prefix_text, _ = prompting.render_target_prefix_and_terminator(tpl)
    return source, vocab.encode(prefix_text), vocab.encode(example.context)


def eval_example(example, scorer, tpl, vocab, cfg) -> dict:
    return harness.evaluate_example(example, scorer, tpl, vocab, cfg)


def decode_example(example, scorer, tpl, vocab, cfg) -> dict:
    source, prefix, passage = encode_example(example, tpl, vocab)
    result = decoding.exact_extract(passage, source, prefix, scorer, cfg)
    return {"id": example.id, **result.to_dict()}


EXAMPLE = {"eval": eval_example, "decode": decode_example}


def eval_report(outcomes) -> harness.EvalReport:
    """The report ``harness.run_eval`` folds from the same per-example outcomes."""
    done = [out for _, out in outcomes if out is not None]
    skipped = [ex_id for ex_id, out in outcomes if out is None]
    return harness.EvalReport(
        num_examples=len(outcomes),
        num_skipped=len(skipped),
        skipped_ids=tuple(skipped),
        greedy=metrics.aggregate([out["greedy_score"] for out in done]),
        exact=metrics.aggregate([out["exact_score"] for out in done]),
    )
