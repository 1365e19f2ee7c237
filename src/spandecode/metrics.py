"""Evaluation metrics: token-level F1, extractiveness, exactness, and the
tokenization partition of a test set.

F1 follows the SQuAD convention (max over gold answers on normalized
whitespace tokens). Extractiveness deliberately does NOT normalize: it
measures whether the model literally copied from the passage, so only
sentinel and whitespace stripping are applied.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .prompting import CLOSE_SENTINEL, OPEN_SENTINEL
from .vocab import TokenSeq, Vocabulary, is_token_subsequence

S_IN = "S_in"
S_OUT = "S_out"

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
# Deletes every ASCII punctuation character.
_DROP_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop articles, drop punctuation, collapse whitespace."""
    text = text.lower()
    text = _ARTICLE_RE.sub(" ", text)
    text = text.translate(_DROP_PUNCT)
    return " ".join(text.split())


def strip_sentinels(text: str) -> str:
    for sentinel in (OPEN_SENTINEL, CLOSE_SENTINEL):
        text = text.replace(sentinel, "")
    return text.strip()


def _f1_single(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(prediction: str, golds) -> float:
    """Max over gold answers of bag-of-tokens F1 after normalization."""
    golds = list(golds)
    if not golds:
        raise ValueError("gold answer set must be non-empty")
    return max(_f1_single(prediction, gold) for gold in golds)


def exact_match(prediction: str, golds) -> bool:
    golds = list(golds)
    if not golds:
        raise ValueError("gold answer set must be non-empty")
    norm = normalize_answer(prediction)
    return any(norm == normalize_answer(gold) for gold in golds)


def is_extractive(generated: str, passage: str) -> bool:
    """True iff the output was literally copied from the passage.

    Garbage outputs without a single alphanumeric character do not count,
    matching how extractiveness is tallied in the zero-shot setting.
    """
    stripped = strip_sentinels(generated)
    if not any(ch.isalnum() for ch in stripped):
        return False
    return stripped in passage


def exactness(greedy_text: str, exact_text: str) -> bool:
    """Byte equality of the two decoders' outputs after whitespace trim."""
    return greedy_text.strip() == exact_text.strip()


def partition_example(gold_answers, passage: str, vocab: Vocabulary) -> str:
    """S_in iff any tokenized gold answer is a contiguous subsequence of the
    tokenized passage, else S_out."""
    golds = list(gold_answers)
    if not golds:
        raise ValueError("gold answer set must be non-empty")
    passage_ids = vocab.encode(passage)
    for gold in golds:
        if is_token_subsequence(vocab.encode(gold), passage_ids):
            return S_IN
    return S_OUT


def find_span(text: str, passage: TokenSeq, vocab: Vocabulary):
    """Earliest-start, shortest token span of ``passage`` decoding to ``text``.

    Returns (start, length) or None. The comparison is on decoded surfaces
    after sentinel/whitespace stripping, so it is consistent with what the
    exact decoder can actually produce.

    The passage is decoded once: span (i, j) decodes to the characters
    between the offsets of tokens i and i + j, give or take a leading space,
    so it matches iff they are whitespace, one occurrence of the target,
    whitespace. Each occurrence is checked in O(1) amortized, earliest first.
    """
    target = strip_sentinels(text)
    if not target:
        return None
    decoded = vocab.piece_surface(passage)
    if decoded is None:
        # A slice that cuts a byte-fallback run decodes to U+FFFD, which no
        # substring of the whole decode shows; such passages keep the scan.
        return _scan_span(target, passage, vocab)
    surface, offsets = decoded
    end = len(surface)
    at = surface.find(target)
    while at >= 0:
        # Occurrences start and end on non-whitespace, so these walks cover
        # disjoint whitespace runs.
        lo = at
        while lo and surface[lo - 1].isspace():
            lo -= 1
        i = bisect_left(offsets, lo)
        if offsets[i] <= at:
            hi = stop = at + len(target)
            while hi < end and surface[hi].isspace():
                hi += 1
            e = bisect_left(offsets, stop)
            if offsets[e] <= hi:
                return i, e - i
        at = surface.find(target, at + 1)
    return None


def _scan_span(target: str, passage: TokenSeq, vocab: Vocabulary):
    """Decode every slice, earliest start first, shortest first."""
    n = len(passage)
    for i in range(n):
        for j in range(1, n - i + 1):
            if vocab.decode(passage[i : i + j]).strip() == target:
                return i, j
    return None


@dataclass(frozen=True, slots=True)
class ExampleScore:
    """Per-example measurements for one decoding algorithm."""

    f1: float
    extractive: bool
    exactness_match: bool
    partition: str


def aggregate(scores) -> dict:
    """Means of f1/extractiveness/exactness overall and per partition."""
    scores = list(scores)
    if not scores:
        raise ValueError("cannot aggregate an empty score list")

    def summarize(subset):
        count = len(subset)
        if count == 0:
            return {"count": 0, "f1": None, "extractive": None, "exactness": None}
        return {
            "count": count,
            "f1": sum(s.f1 for s in subset) / count,
            "extractive": sum(s.extractive for s in subset) / count,
            "exactness": sum(s.exactness_match for s in subset) / count,
        }

    report = {"overall": summarize(scores)}
    for part in (S_IN, S_OUT):
        subset = [s for s in scores if s.partition == part]
        entry = summarize(subset)
        entry["share"] = len(subset) / len(scores)
        report[part] = entry
    return report
