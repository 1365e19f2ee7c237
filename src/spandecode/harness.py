"""End-to-end evaluation runs and hyperparameter selection.

``run_eval`` drives prompt rendering, greedy and exact decoding, and the
full metric suite for each example, then folds the per-example scores
into an EvalReport shaped like the performance / extractiveness /
partition tables.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import metrics
from .decoding import DecodeConfig, exact_extract, greedy_decode
from .mrqa import DataError, QAExample
from .prompting import (
    PromptTemplate,
    render_encoder_input,
    render_target_prefix_and_terminator,
)
from .scorer import Scorer, ScorerError
from .vocab import Vocabulary


@dataclass
class EvalReport:
    num_examples: int
    num_skipped: int
    skipped_ids: tuple[str, ...]
    greedy: dict
    exact: dict

    def to_dict(self) -> dict:
        return {
            "num_examples": self.num_examples,
            "num_skipped": self.num_skipped,
            "skipped_ids": list(self.skipped_ids),
            "greedy": self.greedy,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        if not isinstance(obj, dict):
            raise DataError(f"a report is a JSON object, not {type(obj).__name__}")
        return cls(
            num_examples=obj["num_examples"],
            num_skipped=obj["num_skipped"],
            skipped_ids=tuple(obj["skipped_ids"]),
            greedy=obj["greedy"],
            exact=obj["exact"],
        )

    def render_table(self) -> str:
        """Fixed-width summary mirroring the F1 / extractiveness / partition tables."""
        def pct(value):
            return "   --" if value is None else f"{100 * value:5.1f}"

        lines = [
            f"examples: {self.num_examples}   skipped: {self.num_skipped}",
            f"{'algorithm':<16}{'F1':>7}{'extract':>9}{'exact':>7}",
        ]
        for name, agg in (("greedy", self.greedy), ("exact-extract", self.exact)):
            overall = agg["overall"]
            lines.append(
                f"{name:<16}{pct(overall['f1']):>7}"
                f"{pct(overall['extractive']):>9}{pct(overall['exactness']):>7}"
            )
        lines.append(f"{'partition':<16}{'share':>7}{'F1(exact)':>11}")
        for part in (metrics.S_IN, metrics.S_OUT):
            entry = self.exact[part]
            lines.append(f"{part:<16}{pct(entry['share']):>7}{pct(entry['f1']):>11}")
        return "\n".join(lines)


def evaluate_example(
    example: QAExample,
    scorer: Scorer,
    template: PromptTemplate,
    vocab: Vocabulary,
    cfg: DecodeConfig = DecodeConfig(),
) -> dict:
    """Run both decoders on one example and compute all metrics."""
    prompt_text = render_encoder_input(template, example.context, example.question)
    prefix_text, _ = render_target_prefix_and_terminator(template)
    source = vocab.encode(prompt_text)
    prefix = vocab.encode(prefix_text)
    passage = vocab.encode(example.context)

    exact_result = exact_extract(passage, source, prefix, scorer, cfg)
    greedy_result = greedy_decode(source, prefix, scorer, cfg, passage=passage)

    partition = metrics.partition_example(example.answers, example.context, vocab)
    agrees = metrics.exactness(greedy_result.text, exact_result.text)
    greedy_score = metrics.ExampleScore(
        f1=metrics.token_f1(greedy_result.text, example.answers),
        exact_match=metrics.exact_match(greedy_result.text, example.answers),
        extractive=metrics.is_extractive(greedy_result.text, example.context),
        exactness_match=agrees,
        partition=partition,
    )
    exact_score = metrics.ExampleScore(
        f1=metrics.token_f1(exact_result.text, example.answers),
        exact_match=metrics.exact_match(exact_result.text, example.answers),
        extractive=metrics.is_extractive(exact_result.text, example.context),
        exactness_match=agrees,
        partition=partition,
    )
    return {
        "id": example.id,
        "greedy": greedy_result,
        "exact": exact_result,
        "greedy_score": greedy_score,
        "exact_score": exact_score,
    }


def run_eval(
    dataset: list[QAExample],
    scorer: Scorer,
    template: PromptTemplate,
    vocab: Vocabulary,
    cfg: DecodeConfig = DecodeConfig(),
    jobs: int = 1,
) -> EvalReport:
    """Evaluate every example; per-example scorer failures are recorded and
    skipped so long remote-scored runs survive transient faults."""
    if not dataset:
        raise DataError("cannot evaluate an empty dataset")

    def run_one(example: QAExample):
        try:
            return example.id, evaluate_example(example, scorer, template, vocab, cfg), None
        except ScorerError as exc:
            return example.id, None, exc

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_one, dataset))
    else:
        outcomes = [run_one(ex) for ex in dataset]

    greedy_scores = []
    exact_scores = []
    skipped = []
    for ex_id, result, err in outcomes:
        if err is not None:
            skipped.append(ex_id)
            continue
        greedy_scores.append(result["greedy_score"])
        exact_scores.append(result["exact_score"])
    if not greedy_scores:
        raise DataError("every example failed to score")
    return EvalReport(
        num_examples=len(dataset),
        num_skipped=len(skipped),
        skipped_ids=tuple(skipped),
        greedy=metrics.aggregate(greedy_scores),
        exact=metrics.aggregate(exact_scores),
    )


def select_hyperparameters(scores) -> int:
    """Pick the configuration with the best size-normalized mean score.

    ``scores[i][n][k]`` is the validation score of configuration i on the
    k-th training set of the n-th size. Per size, configuration means are
    normalized by the best configuration's mean; the winner maximizes the
    average normalized score across sizes (ties go to the smallest index).
    """
    if not scores:
        raise ValueError("score table must be non-empty")
    arrays = (list, tuple)
    if not all(isinstance(row, arrays) and all(isinstance(cell, arrays) for cell in row) for row in scores):
        raise ValueError("score table must be a 3-dimensional array")
    num_sizes = len(scores[0])
    if num_sizes == 0:
        raise ValueError("score table must cover at least one training size")
    num_samples = len(scores[0][0])
    if num_samples == 0:
        raise ValueError("score table must hold at least one score per training size")
    for row in scores:
        if len(row) != num_sizes or any(len(cell) != num_samples for cell in row):
            raise ValueError("inconsistent score table dimensions")
        for cell in row:
            for value in cell:
                # Exact types: JSON's true and false are ints to Python.
                if type(value) not in (int, float):
                    raise ValueError(f"score {value!r} is not a number")
                if not 0 <= value <= 100:
                    raise ValueError(f"score {value!r} outside [0, 100]")

    per_size_means = [
        [sum(scores[i][n]) / num_samples for n in range(num_sizes)]
        for i in range(len(scores))
    ]
    normalized_sums = [0.0] * len(scores)
    for n in range(num_sizes):
        best = max(per_size_means[i][n] for i in range(len(scores)))
        if best == 0:
            raise ValueError(f"all configurations score 0 at size index {n}")
        for i in range(len(scores)):
            normalized_sums[i] += per_size_means[i][n] / best
    return max(range(len(scores)), key=lambda i: (normalized_sums[i], -i))


def load_score_table(path) -> list:
    with open(path, encoding="utf-8") as f:
        try:
            table = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(table, list):
        raise DataError(f"{path}: score table file must hold a 3-dimensional JSON array")
    return table
