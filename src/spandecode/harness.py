"""End-to-end evaluation runs and hyperparameter selection.

``decode`` and ``eval`` take one path from example to decoders: each
example is encoded by ``prepare_example``, and ``map_examples`` runs the
per-example work, serially or on a thread pool, in input order. Per
example, ``run_eval`` runs greedy and exact decoding and the report's
metrics, then folds the scores into an EvalReport shaped like the
performance / extractiveness / partition tables.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from math import fsum

from . import metrics
from .decoding import DecodeConfig, exact_and_greedy
from .mrqa import DataError, QAExample
from .prompting import OPEN_SENTINEL, PromptTemplate, render_encoder_input
from .scorer import Scorer, ScorerError
from .vocab import TokenSeq, Vocabulary


@dataclass
class EvalReport:
    num_examples: int
    num_skipped: int
    skipped_ids: tuple[str, ...]
    greedy: dict
    exact: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        if not isinstance(obj, dict):
            raise DataError(f"a report is a JSON object, not {type(obj).__name__}")
        report = cls(**{field.name: obj[field.name] for field in fields(cls)})
        report.skipped_ids = tuple(report.skipped_ids)
        return report

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


def prepare_example(
    example: QAExample, template: PromptTemplate, vocab: Vocabulary
) -> tuple[TokenSeq, TokenSeq, TokenSeq]:
    """The encoder input, forced decoder prefix and passage that every
    decoder takes for ``example``."""
    source = vocab.encode(render_encoder_input(template, example.context, example.question))
    return source, vocab.encode(OPEN_SENTINEL), vocab.encode(example.context)


def map_examples(fn: Callable, examples: Iterable, jobs: int = 1) -> Iterator:
    """``fn`` over ``examples``, yielding results in input order: serially
    when ``jobs`` is 1, else on a pool of ``jobs`` threads. An exception
    from ``fn`` is raised where its result would be yielded, and the calls
    still queued behind it are cancelled."""
    if jobs == 1:
        yield from map(fn, examples)
        return
    # Imported here: concurrent.futures imports logging, which a serial run never needs.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, examples)


def evaluate_example(
    example: QAExample,
    scorer: Scorer,
    template: PromptTemplate,
    vocab: Vocabulary,
    cfg: DecodeConfig = DecodeConfig(),
) -> dict:
    """Run both decoders on one example and compute the report's metrics."""
    source, prefix, passage = prepare_example(example, template, vocab)

    exact_result, greedy_result = exact_and_greedy(passage, source, prefix, scorer, cfg)

    partition = metrics.partition_example(example.answers, example.context, vocab)
    agrees = metrics.exactness(greedy_result.text, exact_result.text)

    def score(text: str) -> metrics.ExampleScore:
        return metrics.ExampleScore(
            f1=metrics.token_f1(text, example.answers),
            extractive=metrics.is_extractive(text, example.context),
            exactness_match=agrees,
            partition=partition,
        )

    return {
        "id": example.id,
        "greedy": greedy_result,
        "exact": exact_result,
        "greedy_score": score(greedy_result.text),
        "exact_score": score(exact_result.text),
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
    skipped so long remote-scored runs survive transient faults. When every
    example fails, the first example's ScorerError is raised."""
    if not dataset:
        raise DataError("cannot evaluate an empty dataset")

    def run_one(example: QAExample) -> dict | ScorerError:
        try:
            return evaluate_example(example, scorer, template, vocab, cfg)
        except ScorerError as exc:
            return exc

    results = list(map_examples(run_one, dataset, jobs))
    done = [result for result in results if not isinstance(result, ScorerError)]
    if not done:
        raise results[0]
    skipped = tuple(example.id for example, result in zip(dataset, results) if isinstance(result, ScorerError))
    return EvalReport(
        num_examples=len(dataset),
        num_skipped=len(skipped),
        skipped_ids=skipped,
        greedy=metrics.aggregate([result["greedy_score"] for result in done]),
        exact=metrics.aggregate([result["exact_score"] for result in done]),
    )


def select_hyperparameters(scores) -> int:
    """Pick the configuration with the best size-normalized mean score.

    ``scores[i][n][k]`` is the validation score of configuration i on the
    k-th training set of the n-th size. Per size, configuration means are
    normalized by the best configuration's mean; the winner maximizes the
    average normalized score across sizes (ties go to the smallest index).
    """
    arrays = (list, tuple)
    if not isinstance(scores, arrays) or not scores:
        raise ValueError("score table must be a non-empty array")
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
        [fsum(scores[i][n]) / num_samples for n in range(num_sizes)]
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

