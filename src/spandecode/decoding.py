"""The three decoders: exact span search via dynamic programming, the naive
per-span scorer it is checked against, and greedy autoregressive decoding.

The exact decoder exploits the fact that every passage span of length j
starting at i is the j-th prefix of the suffix starting at i, so one
teacher-forced pass per suffix yields the scores of all its prefixes:
n passes total instead of one pass per span. The passes and the argmax
over them happen wherever the scorer answers ``Scorer.best_span``: in
process, or on a remote server that replies with the span alone. A scorer
may force each suffix only as far as can change the argmax, as ``TableLM``
does: still n passes, fewer forced tokens and the same span and score.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .scorer import ScoreRequest, Scorer, positive_int, suffix_cap, suffix_scores
from .vocab import TokenSeq

GREEDY = "greedy"
EXACT_EXTRACT = "exact_extract"
NAIVE = "naive"


@dataclass(frozen=True)
class DecodeConfig:
    max_span_len: int | None = None
    max_greedy_steps: int = 64
    allow_empty_span: bool = False

    def __post_init__(self):
        positive_int(self.max_greedy_steps, "max_greedy_steps")
        if self.max_span_len is not None:
            positive_int(self.max_span_len, "max_span_len")


@dataclass
class SpanScoreTable:
    """Per-suffix score arrays for a passage of n tokens.

    ``ell[i][k]`` is the log-probability of the k-th token of the suffix
    starting at i given its preceding span tokens; ``eterm[i][k]`` the
    log-probability of terminating after k span tokens; ``L[i][j]`` the
    cumulative span log-probability, built by the recursion
    L(i,0) = 0, L(i,j) = L(i,j-1) + ell(i,j-1). Under a span cap K, row i
    stops at the min(n - i, K) tokens a span starting at i can cover.
    """

    n: int
    ell: list[tuple[float, ...]]
    eterm: list[tuple[float, ...]]
    L: list[list[float]]


@dataclass(frozen=True, slots=True)
class DecodeResult:
    start: int | None
    length: int | None
    span_logprob: float
    text: str
    # The scorer passes this call made: one per suffix, candidate or greedy
    # step. Counted here, not read off the scorer, which threads may share.
    passes_used: int
    algorithm: str
    token_ids: tuple[int, ...] = ()
    extractive: bool = True
    truncated: bool = False

    def to_dict(self) -> dict:
        # Not dataclasses.asdict, whose deep copy took 23 us against 0.6 us
        # (Python 3.11, 2-vCPU Xeon VM): this runs once per decoded example.
        return {
            "start": self.start,
            "length": self.length,
            "span_logprob": self.span_logprob,
            "text": self.text,
            "passes_used": self.passes_used,
            "algorithm": self.algorithm,
            "token_ids": list(self.token_ids),
            "extractive": self.extractive,
            "truncated": self.truncated,
        }


def build_span_table(
    passage: TokenSeq,
    rendered_prompt: TokenSeq,
    prefix: TokenSeq,
    scorer: Scorer,
    max_span_len: int | None = None,
) -> SpanScoreTable:
    """Fill the score table with exactly one teacher-forced pass per suffix.

    Each pass is one ``scorer.teacher_forced_pass``, so over a wire scorer
    the table is one ``teacher_forced`` request per suffix; no command
    builds it that way, as ``exact_extract`` asks ``scorer.best_span``
    instead. With ``max_span_len`` K, the pass for suffix i forces only its
    first K tokens, the longest span starting at i: still n passes, but
    about n*K forced tokens instead of n(n+1)/2, and rows of at most K + 1
    entries.
    """
    ell: list[tuple[float, ...]] = []
    eterm: list[tuple[float, ...]] = []
    L: list[list[float]] = []
    # Rows keep the scorer's tuples: copying every row slows an in-process
    # table by several percent.
    for scores in suffix_scores(scorer, rendered_prompt, prefix, passage, max_span_len):
        ell.append(scores.gold_logprob)
        eterm.append(scores.term_logprob)
        L.append(list(accumulate(scores.gold_logprob, initial=0.0)))
    return SpanScoreTable(n=len(passage), ell=ell, eterm=eterm, L=L)


def _span_candidates(n: int, cap: int, allow_empty_span: bool):
    min_j = 0 if allow_empty_span else 1
    for i in range(n):
        for j in range(min_j, min(n - i, cap) + 1):
            if j == 0 and i > 0:
                continue  # the empty span is one candidate, not n
            yield i, j


def _better(score: float, i: int, j: int, best) -> bool:
    # Highest log-prob wins; ties go to the earliest start, then shortest span.
    if best is None:
        return True
    best_score, best_i, best_j = best
    if score != best_score:
        return score > best_score
    return (i, j) < (best_i, best_j)


def exact_extract(
    passage: TokenSeq,
    rendered_prompt: TokenSeq,
    prefix: TokenSeq,
    scorer: Scorer,
    cfg: DecodeConfig = DecodeConfig(),
) -> DecodeResult:
    """Return the passage span maximizing L(i,j) + e(i,j).

    The span comes from one ``scorer.best_span`` call, which makes the n
    passes, one per suffix, and takes the argmax under the shared
    tie-break; a remote scorer answers it with one request."""
    span = scorer.best_span(rendered_prompt, prefix, passage, cfg.max_span_len, cfg.allow_empty_span)
    return _extract_result(passage, scorer, *span, len(passage), EXACT_EXTRACT)


def _extract_result(
    passage: TokenSeq, scorer: Scorer, start: int, length: int, logprob: float, passes: int, algorithm: str
) -> DecodeResult:
    return DecodeResult(
        start=start,
        length=length,
        span_logprob=logprob,
        text=scorer.vocab.decode(passage[start : start + length]),
        passes_used=passes,
        algorithm=algorithm,
        token_ids=passage.ids[start : start + length],
    )


def naive_exact(
    passage: TokenSeq,
    rendered_prompt: TokenSeq,
    prefix: TokenSeq,
    scorer: Scorer,
    cfg: DecodeConfig = DecodeConfig(),
) -> DecodeResult:
    """Score every candidate span with its own pass; the independent oracle."""
    cap = suffix_cap(passage, cfg.max_span_len)
    best = None
    for passes, (i, j) in enumerate(_span_candidates(len(passage), cap, cfg.allow_empty_span), start=1):
        scores = scorer.teacher_forced_pass(
            ScoreRequest(rendered_prompt, passage[i : i + j], prefix)
        )
        total = 0.0
        for step in scores.gold_logprob:
            total += step
        total += scores.term_logprob[j]
        if _better(total, i, j, best):
            best = (total, i, j)
    score, i, j = best
    return _extract_result(passage, scorer, i, j, score, passes, NAIVE)


def greedy_decode(
    rendered_prompt: TokenSeq,
    prefix: TokenSeq,
    scorer: Scorer,
    cfg: DecodeConfig = DecodeConfig(),
    passage: TokenSeq | None = None,
) -> DecodeResult:
    """Argmax one token at a time until a terminator token or the step cap.

    The steps come from one ``scorer.greedy_steps`` call, which a remote
    scorer answers with one request. When ``passage`` is given, the output
    is matched back to a passage span (token-level, via the span search in
    the metrics module); outputs with no matching span are marked
    non-extractive.
    """
    steps = scorer.greedy_steps(rendered_prompt, prefix, cfg.max_greedy_steps)
    return _greedy_result(steps, scorer, passage)


def _greedy_result(steps: list[tuple[int, float]], scorer: Scorer, passage: TokenSeq | None) -> DecodeResult:
    from .metrics import find_span

    vocab = scorer.vocab
    # Summed in step order from 0.0, as the steps were taken.
    logprob = 0.0
    for _, top in steps:
        logprob += top
    emitted = [token for token, _ in steps]
    truncated = emitted[-1] not in scorer.terminator_ids
    if not truncated:
        emitted.pop()
    text = vocab.decode(emitted)
    start = length = None
    extractive = False
    if passage is not None:
        match = find_span(text, passage, vocab)
        if match is not None:
            start, length = match
            extractive = True
    return DecodeResult(
        start=start,
        length=length,
        span_logprob=logprob,
        text=text,
        passes_used=len(steps),
        algorithm=GREEDY,
        token_ids=tuple(emitted),
        extractive=extractive,
        truncated=truncated,
    )


def exact_and_greedy(
    passage: TokenSeq, rendered_prompt: TokenSeq, prefix: TokenSeq, scorer: Scorer, cfg: DecodeConfig = DecodeConfig()
) -> tuple[DecodeResult, DecodeResult]:
    """``exact_extract`` and ``greedy_decode`` matched back to ``passage``,
    from one ``scorer.best_span_and_greedy_steps`` call, which a remote
    scorer answers with one request."""
    span, steps = scorer.best_span_and_greedy_steps(
        rendered_prompt, prefix, passage, cfg.max_span_len, cfg.allow_empty_span, cfg.max_greedy_steps
    )
    return _extract_result(passage, scorer, *span, len(passage), EXACT_EXTRACT), _greedy_result(steps, scorer, passage)
