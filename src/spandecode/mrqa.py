"""MRQA-style dataset ingestion and few-shot subsampling."""

from __future__ import annotations

import gzip
import json
import random
import zlib
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SIZES = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_NUM_SAMPLES = 5


class DataError(ValueError):
    """Input data is missing, malformed, or insufficient."""


@dataclass(frozen=True)
class QAExample:
    id: str
    context: str
    question: str
    answers: tuple[str, ...]

    def __post_init__(self):
        if not self.context:
            raise DataError(f"example {self.id}: empty context")
        if not self.answers:
            raise DataError(f"example {self.id}: empty answer set")


@dataclass(frozen=True)
class FewShotSplit:
    size: int
    sample_index: int
    example_ids: tuple[str, ...]


def read_lines(path: str | Path, opener=open) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file, split as text
    mode splits it, opened with ``opener``. DataError names ``path:line``
    for the line holding an undecodable byte, and ``path`` for a stream
    that is not gzip when ``opener`` is ``gzip.open``.

    Text mode decodes ahead in chunks, so a decoding error would name an
    earlier line: each bad byte is kept in its line as a surrogate escape,
    and only a line holding one is decoded again, to name the fault."""
    with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        try:
                            line.encode("utf-8", "surrogateescape").decode("utf-8")
                        except UnicodeDecodeError as exc:
                            raise DataError(f"{path}:{lineno}: {exc}") from None
                yield lineno, line
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise DataError(f"{path}: {exc}") from exc


def read_json(path: str | Path, build, object_hook=None):
    """``build`` of the JSON value in the UTF-8 file ``path``, parsed with
    ``object_hook``. A ValueError in reading, parsing or ``build`` (such as
    an undecodable byte) becomes one DataError naming ``path``."""
    with open(path, encoding="utf-8") as f:
        try:
            return build(json.load(f, object_hook=object_hook))
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file, read
    through gzip when the name ends in .gz. DataError names ``path:line``
    for a line that is not a JSON object, as ``read_lines`` does for an
    undecodable one."""
    opener = gzip.open if Path(path).suffix == ".gz" else open
    for lineno, line in read_lines(path, opener):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(
                f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}"
            )
        yield lineno, obj


def example_id(value, name: str) -> str:
    """A string or integer id as a string; DataError naming ``name`` for
    anything else, which ``str()`` would turn into an id such as "None"."""
    # Exact types: JSON's true and false are ints to Python.
    if type(value) is str or type(value) is int:
        return str(value)
    raise DataError(f"{name} must be a string or an integer, not {type(value).__name__}")


def paragraph_examples(obj: dict, where: str) -> list[QAExample]:
    """The examples of one MRQA paragraph object (none for a header line);
    DataError prefixed with ``where`` for a malformed one."""
    if "header" in obj:
        return []
    try:
        context = obj["context"]
        qas = obj["qas"]
    except KeyError as exc:
        raise DataError(f"{where}: missing field {exc}") from exc
    if not isinstance(context, str) or not isinstance(qas, list):
        raise DataError(f"{where}: bad context/qas types")
    examples = []
    for index, qa in enumerate(qas):
        if not isinstance(qa, dict):
            raise DataError(f"{where}: qas entry {index} must be an object, not {type(qa).__name__}")
        try:
            qid = example_id(qa["qid"], f"{where}: qas entry {index}: qid")
            question = qa["question"]
            answers = qa["answers"]
        except KeyError as exc:
            raise DataError(f"{where}: missing field {exc}") from exc
        if not isinstance(answers, list) or not answers:
            raise DataError(f"{where}: qid {qid}: empty answers")
        if not isinstance(question, str):
            raise DataError(f"{where}: qid {qid}: question must be a string, not {type(question).__name__}")
        for answer in answers:
            if not isinstance(answer, str):
                raise DataError(f"{where}: qid {qid}: answers must be strings, not {type(answer).__name__}")
        try:
            examples.append(QAExample(id=qid, context=context, question=question, answers=tuple(answers)))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return examples


def load_dataset(path: str | Path) -> list[QAExample]:
    """Parse MRQA JSONL: one paragraph per line, each with its "qas" list.

    Header lines (objects with a "header" key) are skipped. Malformed
    lines are reported with their line number.
    """
    path = Path(path)
    return [
        example
        for lineno, obj in read_jsonl(path)
        for example in paragraph_examples(obj, f"{path}:{lineno}")
    ]


def passage_hash(context: str) -> str:
    # Imported here: hashlib loads OpenSSL, which only subsampling needs.
    import hashlib

    return hashlib.sha1(context.encode("utf-8")).hexdigest()


def subsample(
    dataset: list[QAExample],
    sizes=DEFAULT_SIZES,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
    validation: list[QAExample] | None = None,
) -> list[FewShotSplit]:
    """Deterministic uniform-without-replacement few-shot splits.

    With the defaults this yields the 7 sizes x 5 samples = 35 splits of
    the few-shot benchmark layout. When a validation set is supplied, the
    splits are checked for passage leakage against it (by passage hash).
    """
    sizes = tuple(sizes)
    if not sizes or num_samples < 1:
        raise DataError("need at least one size and one sample per size")
    if len(dataset) < max(sizes):
        raise DataError(
            f"dataset has {len(dataset)} examples, need at least {max(sizes)}"
        )
    splits: list[FewShotSplit] = []
    for size in sizes:
        for k in range(num_samples):
            rng = random.Random(f"{seed}:{size}:{k}")
            chosen = rng.sample(range(len(dataset)), size)
            splits.append(
                FewShotSplit(
                    size=size,
                    sample_index=k,
                    example_ids=tuple(dataset[i].id for i in chosen),
                )
            )
    if validation is not None:
        val_hashes = {passage_hash(ex.context) for ex in validation}
        by_id = {ex.id: ex for ex in dataset}
        for split in splits:
            for ex_id in split.example_ids:
                if passage_hash(by_id[ex_id].context) in val_hashes:
                    raise DataError(
                        f"validation passage leaks into split "
                        f"(size={split.size}, sample={split.sample_index}, id={ex_id})"
                    )
    return splits
