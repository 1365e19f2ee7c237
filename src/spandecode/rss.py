"""Recurring-span-selection pretraining data generation.

From each raw passage: find word-aligned spans that occur more than once,
mask exactly one occurrence with the opening sentinel, and emit the masked
passage together with the original span as the target. At most one example
is produced per passage.
"""

from __future__ import annotations

import gzip
import random
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .mrqa import DataError, read_jsonl, read_lines
from .prompting import CLOSE_SENTINEL, OPEN_SENTINEL

_WORD_RE = re.compile(r"\w+|[^\w\s]")
STOPWORDS = Path(__file__).with_name("data") / "stopwords.txt"


def load_stopwords(path: str | Path = STOPWORDS) -> frozenset[str]:
    """The words of ``path``, one a line, lowercased as the passage words
    they are matched against are."""
    return frozenset(line.strip().lower() for _, line in read_lines(path) if line.strip())


@dataclass(frozen=True)
class RssConfig:
    stopwords: frozenset[str] = field(default_factory=load_stopwords)
    min_span_words: int = 1
    max_span_words: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.min_span_words <= self.max_span_words:
            raise ValueError("need 1 <= min_span_words <= max_span_words")


@dataclass(frozen=True)
class RecurringSpan:
    surface: str
    num_words: int
    # Character (start, end) offsets of the maskable (maximal) occurrences.
    char_spans: tuple[tuple[int, int], ...]
    # Non-overlapping word-aligned occurrences in the whole passage; can
    # exceed len(char_spans) when some occurrences extend to longer spans.
    occurrence_count: int


@dataclass(frozen=True)
class RssExample:
    masked_passage: str
    target: str
    span_surface: str
    occurrence_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def _non_overlapping_count(positions, length: int) -> int:
    count = 0
    next_free = -1
    for p in positions:
        if p >= next_free:
            count += 1
            next_free = p + length
    return count


def find_recurring_spans(passage: str, cfg: RssConfig) -> list[RecurringSpan]:
    """Maximal word-aligned spans recurring at least twice.

    A span qualifies if it recurs at >= 2 non-overlapping word positions and
    neither its first nor its last word is a stopword, so it holds a
    non-stopword. An occurrence is maximal when neither of its one-word
    extensions qualifies; only maximal occurrences are maskable.
    """
    words = list(_WORD_RE.finditer(passage))
    texts = [w.group() for w in words]

    positions: dict[tuple[int, tuple[str, ...]], list[int]] = {}
    for length in range(cfg.min_span_words, cfg.max_span_words + 1):
        for start in range(len(texts) - length + 1):
            gram = tuple(texts[start : start + length])
            positions.setdefault((length, gram), []).append(start)

    counts = {}
    for (length, gram), occ in positions.items():
        if gram[0].lower() in cfg.stopwords or gram[-1].lower() in cfg.stopwords:
            continue
        count = _non_overlapping_count(occ, length)
        if count >= 2:
            counts[(length, gram)] = count

    # Group maximal occurrences by identical surface text, so masking one
    # occurrence always leaves a verbatim copy of the surface behind. The
    # surface determines the gram, and so its count; a gram's starts ascend,
    # so each group's spans are in order.
    by_surface: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
    for (length, gram), count in counts.items():
        for start in positions[(length, gram)]:
            if (length + 1, tuple(texts[start : start + length + 1])) in counts:
                continue
            if start > 0 and (length + 1, tuple(texts[start - 1 : start + length])) in counts:
                continue
            char_start, char_end = words[start].start(), words[start + length - 1].end()
            key = (passage[char_start:char_end], length, count)
            by_surface.setdefault(key, []).append((char_start, char_end))

    spans = [
        RecurringSpan(surface, length, tuple(occs), count)
        for (surface, length, count), occs in by_surface.items()
        if len(occs) >= 2
    ]
    spans.sort(key=lambda s: (s.char_spans[0], -s.num_words))
    return spans


def _passage_rng(passage: str, seed: int) -> random.Random:
    # Imported here: hashlib loads OpenSSL, which only rss-gen needs.
    import hashlib

    digest = hashlib.sha256(f"{seed}:{passage}".encode("utf-8")).hexdigest()
    return random.Random(int(digest, 16))


def make_example(passage: str, cfg: RssConfig) -> RssExample | None:
    """Mask one seeded-uniformly chosen occurrence of one recurring span."""
    spans = find_recurring_spans(passage, cfg)
    if not spans:
        return None
    rng = _passage_rng(passage, cfg.rng_seed)
    span = spans[rng.randrange(len(spans))]
    char_start, char_end = span.char_spans[rng.randrange(len(span.char_spans))]
    masked = passage[:char_start] + OPEN_SENTINEL + passage[char_end:]
    return RssExample(
        masked_passage=masked,
        target=OPEN_SENTINEL + span.surface + CLOSE_SENTINEL,
        span_surface=span.surface,
        occurrence_count=span.occurrence_count,
    )


def generate_corpus(passages, cfg: RssConfig, limit: int):
    """At most one example per passage, in input order, stopping at ``limit``."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    emitted = 0
    for passage in passages:
        if emitted >= limit:
            return
        example = make_example(passage, cfg)
        if example is not None:
            emitted += 1
            yield example


def read_passages(path: str | Path):
    """One passage per line; .jsonl lines are WikiExtractor-style {"text": ...}.
    A name ending in .gz is read through gzip, as .jsonl when it ends in
    .jsonl.gz. DataError names ``path:line`` for a .jsonl line that is not a
    JSON object with a string ``text``, and for a line holding an
    undecodable byte, and ``path`` for a .gz file that is not gzip."""
    path = Path(path)
    if path.suffix == ".jsonl" or path.name.endswith(".jsonl.gz"):
        for lineno, obj in read_jsonl(path):
            if "text" not in obj:
                raise DataError(f"{path}:{lineno}: missing field 'text'")
            if not isinstance(obj["text"], str):
                raise DataError(f"{path}:{lineno}: text must be a string, not {type(obj['text']).__name__}")
            yield obj["text"]
        return
    for _, line in read_lines(path, gzip.open if path.suffix == ".gz" else open):
        line = line.rstrip("\n")
        if line.strip():
            yield line
