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
from importlib import resources
from pathlib import Path

from .mrqa import DataError, read_jsonl, read_lines
from .prompting import CLOSE_SENTINEL, OPEN_SENTINEL

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def default_stopwords() -> frozenset[str]:
    text = resources.files("spandecode.data").joinpath("stopwords.txt").read_text()
    return frozenset(w for w in text.split() if w)


def load_stopwords(path: str | Path) -> frozenset[str]:
    return frozenset(line.strip() for _, line in read_lines(path) if line.strip())


@dataclass(frozen=True)
class RssConfig:
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
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


def _words_with_spans(passage: str):
    return [(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(passage)]


def _is_stopword(word: str, stopwords) -> bool:
    return word.lower() in stopwords


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

    A span qualifies if it recurs at >= 2 non-overlapping word positions,
    contains at least one non-stopword, and is not stopword-bounded.
    Occurrences extendable to a longer qualifying recurring span are
    dropped, so only maximal occurrences remain maskable.
    """
    words = _words_with_spans(passage)
    texts = [w[0] for w in words]

    positions: dict[tuple[int, tuple[str, ...]], list[int]] = {}
    for length in range(cfg.min_span_words, cfg.max_span_words + 1):
        for start in range(len(texts) - length + 1):
            gram = tuple(texts[start : start + length])
            positions.setdefault((length, gram), []).append(start)

    def qualifies(length: int, gram: tuple[str, ...]) -> bool:
        if not cfg.min_span_words <= length <= cfg.max_span_words:
            return False
        occ = positions.get((length, gram))
        if occ is None or _non_overlapping_count(occ, length) < 2:
            return False
        if _is_stopword(gram[0], cfg.stopwords) or _is_stopword(gram[-1], cfg.stopwords):
            return False
        return any(not _is_stopword(w, cfg.stopwords) for w in gram)

    def occurrence_is_maximal(start: int, length: int) -> bool:
        left = start - 1
        if left >= 0 and qualifies(length + 1, tuple(texts[left : left + length + 1])):
            return False
        if start + length < len(texts) and qualifies(
            length + 1, tuple(texts[start : start + length + 1])
        ):
            return False
        return True

    # Group maximal occurrences by identical surface text, so masking one
    # occurrence always leaves a verbatim copy of the surface behind.
    by_surface: dict[tuple[str, int], list[tuple[int, int]]] = {}
    totals: dict[tuple[str, int], int] = {}
    for (length, gram), occ in positions.items():
        if not qualifies(length, gram):
            continue
        for start in occ:
            if not occurrence_is_maximal(start, length):
                continue
            char_start = words[start][1]
            char_end = words[start + length - 1][2]
            surface = passage[char_start:char_end]
            key = (surface, length)
            by_surface.setdefault(key, []).append((char_start, char_end))
            totals[key] = _non_overlapping_count(occ, length)

    spans = []
    for (surface, length), occs in by_surface.items():
        char_spans = tuple(sorted(set(occs)))
        if len(char_spans) >= 2:
            spans.append(
                RecurringSpan(
                    surface=surface,
                    num_words=length,
                    char_spans=char_spans,
                    occurrence_count=totals[(surface, length)],
                )
            )
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
