"""Teacher-forced scoring interface over a conditional language model.

A scorer answers two questions about P(. | source): the per-step
log-probability of a forced target (plus the terminator log-probability at
every step boundary), and the full next-token log-distribution for a given
decoder prefix. Each interface call counts as exactly one "pass" against
an atomic counter, which is what lets the decoders' pass-complexity claims
be asserted in tests.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass
from pathlib import Path

from .mrqa import read_json
from .vocab import NUM_BYTE_TOKENS, TokenSeq, Vocabulary, VocabularyMismatchError

NEG_INF = float("-inf")
POS_INF = float("inf")

# Probability-space tolerance when validating stored distributions.
DIST_SUM_TOL = 1e-12
# Largest log-probability a scorer may return: 0 plus the rounding of a
# float32 log-softmax.
LOGPROB_TOL = 1e-6
# A probability that is no number, named by its JSON kind: else an object (or its entry), or a string's repr.
_NOT_A_NUMBER = {bool: "a boolean", list: "a list", type(None): "null", int: "an integer past the float range"}
_NUMBERS = {float, int}
# A table file is read this many characters at a time (see ``_read_members``).
_READ_SIZE = 64 * 1024
# What follows the brace that closes a table member before the next member.
_NEXT_MEMBER = re.compile(r"[ \t\n\r]*,")
_WHITESPACE = json.decoder.WHITESPACE


class ScorerError(RuntimeError):
    """A scoring request could not be served."""


@dataclass(frozen=True, slots=True, init=False)
class ScoreRequest:
    """One teacher-forced scoring request.

    ``forced_prefix`` is the decoder prefix fed before the target (e.g. the
    opening sentinel); ``forced_target`` is the sequence whose per-step
    scores are wanted. All three sequences must share one vocabulary, else
    VocabularyMismatchError, raised before any field is set.

    A frozen, slotted value, built once per pass: like ``TokenSeq``, its
    written-out ``__init__`` stores each field through its slot descriptor."""

    source: TokenSeq
    forced_target: TokenSeq
    forced_prefix: TokenSeq

    def __init__(self, source: TokenSeq, forced_target: TokenSeq, forced_prefix: TokenSeq):
        if not source.vocab_id == forced_target.vocab_id == forced_prefix.vocab_id:
            raise VocabularyMismatchError("request sequences use different vocabularies")
        _set_source(self, source)
        _set_forced_target(self, forced_target)
        _set_forced_prefix(self, forced_prefix)


@dataclass(frozen=True, slots=True, init=False)
class StepScores:
    """Per-step scores for a forced target of length m.

    ``gold_logprob[k]`` is log P(target[k] | prefix + target[:k]);
    ``term_logprob[k]`` is the log-probability of terminating after
    ``prefix + target[:k]`` (log-sum over the configured terminator set),
    so it has m + 1 entries.

    A frozen, slotted value, built once per pass: like ``TokenSeq``, its
    written-out ``__init__`` stores each field through its slot descriptor."""

    gold_logprob: tuple[float, ...]
    term_logprob: tuple[float, ...]

    def __init__(self, gold_logprob: tuple[float, ...], term_logprob: tuple[float, ...]):
        _set_gold_logprob(self, gold_logprob)
        _set_term_logprob(self, term_logprob)


# The slot descriptors' setters, which a frozen class's own ``__setattr__``
# cannot reach.
_set_source = ScoreRequest.source.__set__
_set_forced_target = ScoreRequest.forced_target.__set__
_set_forced_prefix = ScoreRequest.forced_prefix.__set__
_set_gold_logprob = StepScores.gold_logprob.__set__
_set_term_logprob = StepScores.term_logprob.__set__


def _check_logprobs(values, what: str) -> None:
    """Raise ScorerError unless every value is a log-probability: no NaN,
    no +inf, nothing above 0 beyond rounding. ``-inf`` is valid.

    A NaN or +inf anywhere makes the sum NaN or +inf, so two C-level
    reductions check the whole sequence."""
    total = sum(values)
    if total != total or total == POS_INF:
        raise ScorerError(f"{what} hold NaN or +inf")
    if values and max(values) > LOGPROB_TOL:
        raise ScorerError(f"{what} hold a positive log-probability {max(values)!r}")


def positive_int(value, name: str) -> int:
    """``value`` if it is an integer >= 1, else ValueError naming ``name``.
    Exact type: a bool is an int to Python, and a value read from JSON may
    be one, or a float such as 1.0."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
    return value


def suffix_cap(passage: TokenSeq, max_span_len: int | None) -> int:
    """The number of tokens forced per suffix of ``passage``: ``max_span_len``,
    or n when uncapped. ValueError for an empty passage (a table needs at
    least one token) or a cap that is not None or an integer >= 1."""
    if not len(passage):
        raise ValueError("passage must contain at least one token")
    if max_span_len is None:
        return len(passage)
    return positive_int(max_span_len, "max_span_len")


def suffix_scores(scorer, source: TokenSeq, prefix: TokenSeq, passage: TokenSeq, max_span_len=None):
    """Exact-extract's table: an iterator over the scores of every suffix
    ``passage[i:i + K]`` forced after ``prefix``, in order of i, K being
    ``max_span_len`` or n when uncapped. One pass per suffix, made as the
    caller reads its row, so the table is never held whole unless the
    caller keeps it; the cap is checked at the call.

    ``scorer`` needs only ``teacher_forced_pass``, so that a server can
    build the table over any scorer handed to it."""
    cap = suffix_cap(passage, max_span_len)
    # Each suffix is made as its row is read: holding n suffixes slows an
    # in-process table by several percent, mostly in the cyclic garbage
    # collector.
    return (
        scorer.teacher_forced_pass(ScoreRequest(source, passage[i : i + cap], prefix))
        for i in range(len(passage))
    )


def best_span_of(rows, allow_empty_span: bool) -> tuple[int, int, float]:
    """Exact-extract's argmax over a suffix table: the (start, length,
    log-probability) of the span maximizing L(i, j) + e(i, j), where row i
    of ``rows`` holds the StepScores of the suffix starting at i, L(i, j)
    is the sum of its first j gold log-probs, taken in order from 0.0, and
    e(i, j) its terminator log-prob after j tokens.

    Length 0 is a candidate only at start 0 with ``allow_empty_span``.
    Ties go to the earliest start, then the shortest span: one running pass
    visits the candidates by start, then by length, and a strict ``>``
    keeps the first maximum. The first candidate is the best before any is
    compared, so when every span scores -inf it wins: (0, 1, -inf), or
    (0, 0, -inf) with the empty span allowed."""
    best_score, best_i, best_j = NEG_INF, 0, 1
    for i, scores in enumerate(rows):
        term = scores.term_logprob
        total = 0.0
        if allow_empty_span and not i:
            best_score, best_j = total + term[0], 0
        j = 0
        for gold in scores.gold_logprob:
            j += 1
            total += gold
            score = total + term[j]
            if score > best_score:
                best_score, best_i, best_j = score, i, j
    return best_i, best_j, best_score


def logsumexp(values) -> float:
    values = [v for v in values]
    hi = max(values, default=NEG_INF)
    if hi == NEG_INF:
        return NEG_INF
    return hi + math.log(sum(math.exp(v - hi) for v in values))


class Scorer:
    """Base class handling vocabulary checks, terminator pooling and pass counting."""

    def __init__(self, vocab: Vocabulary, terminator_ids=None):
        self.vocab = vocab
        if terminator_ids is None:
            terminator_ids = {vocab.terminator_id}
        self.terminator_ids = frozenset(terminator_ids)
        self._passes = 0
        self._lock = threading.Lock()

    # -- pass accounting ------------------------------------------------
    def pass_count(self) -> int:
        with self._lock:
            return self._passes

    def _count_pass(self, passes: int = 1) -> None:
        with self._lock:
            self._passes += passes

    def _check_vocab(self, seq: TokenSeq) -> None:
        if seq.vocab_id != self.vocab.vocab_id:
            raise VocabularyMismatchError(
                "request vocabulary does not match the scorer's"
            )

    # -- public interface -----------------------------------------------
    def teacher_forced_pass(self, req: ScoreRequest) -> StepScores:
        """Score a forced target of length m in one counted pass.

        VocabularyMismatchError unless the source is in the scorer's
        vocabulary. The scores must hold m gold and m + 1 terminator
        log-probabilities, each passing ``_check_logprobs``; else
        ScorerError, so that invalid scores never reach the decoders.

        Exact-extract makes one call per suffix, so the checks are inline.
        Both tuples are checked by the same reductions at once: the
        terminator sum started from the gold sum is NaN or +inf exactly
        when either sum is (valid sums are at most about m * LOGPROB_TOL,
        so they cannot overflow), and a max over each catches a positive
        value. Only a rejected pass checks the tuples one by one, gold
        first, to name its fault as ``_check_logprobs`` does."""
        if req.source.vocab_id != self.vocab.vocab_id:
            raise VocabularyMismatchError("request vocabulary does not match the scorer's")
        with self._lock:
            self._passes += 1
        scores = self._score_forced(req)
        gold, term = scores.gold_logprob, scores.term_logprob
        m = len(req.forced_target.ids)
        if len(gold) != m or len(term) != m + 1:
            raise ScorerError(
                f"scorer returned {len(gold)}/{len(term)} scores for a target of length {m}"
            )
        total = sum(term, sum(gold))
        if total != total or total == POS_INF or max(term) > LOGPROB_TOL or (m and max(gold) > LOGPROB_TOL):
            _check_logprobs(gold, "forced log-probs")
            _check_logprobs(term, "forced log-probs")
        return scores

    def best_span(
        self,
        source: TokenSeq,
        prefix: TokenSeq,
        passage: TokenSeq,
        max_span_len: int | None = None,
        allow_empty_span: bool = False,
    ) -> tuple[int, int, float]:
        """Exact-extract's (start, length, log-probability) over ``passage``:
        ``best_span_of`` the suffix table, whose n counted passes are
        checked row by row and each row taken as it is scored, so at most
        one earlier row is held. A transport can override this to have the
        server take the argmax and send back only the span."""
        return best_span_of(suffix_scores(self, source, prefix, passage, max_span_len), allow_empty_span)

    def best_span_and_greedy_steps(
        self, source: TokenSeq, prefix: TokenSeq, passage: TokenSeq, max_span_len: int | None,
        allow_empty_span: bool, max_steps: int,
    ) -> tuple[tuple[int, int, float], list[tuple[int, float]]]:
        """``best_span`` and then ``greedy_steps`` after the same source and
        prefix; a transport can override this to ask for both at once."""
        span = self.best_span(source, prefix, passage, max_span_len, allow_empty_span)
        return span, self.greedy_steps(source, prefix, max_steps)

    def next_token_distribution(self, source: TokenSeq, prefix: TokenSeq):
        """Full next-token log-distribution after ``prefix``; one counted pass."""
        self._check_vocab(source)
        self._check_vocab(prefix)
        self._count_pass()
        dist = self._next_dist(source, prefix)
        if len(dist) != self.vocab.size:
            raise ScorerError(
                f"distribution length {len(dist)} != vocabulary size {self.vocab.size}"
            )
        _check_logprobs(dist, "next-token log-probs")
        return dist

    def greedy_steps(
        self, source: TokenSeq, prefix: TokenSeq, max_steps: int, terminator_ids=None
    ) -> list[tuple[int, float]]:
        """Greedy decoding's (token, log-probability) steps after ``prefix``:
        each takes the argmax of the checked ``next_token_distribution``
        (the lowest id among tied maxima), and the loop stops after a token
        in ``terminator_ids`` (the scorer's own when None) or after
        ``max_steps``. One counted pass per step.

        Given ``terminator_ids``, this needs only ``next_token_distribution``,
        so that a server can run it over any scorer handed to it. A
        transport can override it to run the loop server-side, and a model
        to take each argmax without building the distribution (``TableLM``)."""
        stops = self.terminator_ids if terminator_ids is None else terminator_ids
        positive_int(max_steps, "max_steps")
        context = prefix.ids
        steps: list[tuple[int, float]] = []
        for _ in range(max_steps):
            dist = self.next_token_distribution(source, TokenSeq(context, prefix.vocab_id))
            top = max(dist)
            token = dist.index(top)
            steps.append((token, top))
            if token in stops:
                break
            context += (token,)
        return steps

    def close(self) -> None:
        """Release what the scorer holds open; nothing by default."""

    # -- implementation hooks -------------------------------------------
    def _score_forced(self, req: ScoreRequest) -> StepScores:
        raise NotImplementedError

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        raise NotImplementedError


class _IdMemo(dict):
    """The token id of each id looked up: a string of ASCII decimal digits,
    as a table file writes every id, checked and converted once per distinct
    string, or an int (not a bool), never stored, so no bool matches one."""

    def __missing__(self, key) -> int:
        if type(key) is int:
            return key
        if type(key) is not str or not (key.isascii() and key.isdigit()):
            raise ValueError(f"{key!r} is not a decimal token id")
        value = self[key] = int(key)
        return value


class _LogMemo(dict):
    """``math.log`` of each probability looked up (-inf for 0), computed once
    per distinct value: a table's distributions mostly repeat a few
    probabilities, so their entries share the floats instead of each
    holding its own."""

    def __missing__(self, prob: float) -> float:
        value = self[prob] = math.log(prob) if prob else NEG_INF
        return value


def _read_members(path: str | Path, object_hook):
    """The table file ``path`` as ``json.load`` with ``object_hook`` reads
    it, holding one read of text at a time; ValueError for text of any
    other shape.

    A distribution is a flat object, so the last ``}`` of a read that a
    comma follows ends a member. Each read's complete members, after the
    text left over from the read before, are decoded as one object by one
    ``raw_decode`` call: the parser shares one string per distinct key
    within a call, which ``TableLM._to_logdist``'s dense-key check relies
    on. The members go into one dict in file order, a repeated key keeping
    its first place and its last value, and the dict goes through the hook
    last, as ``json.load``'s whole object does. A split anywhere else, such
    as at a ``}`` in a key, leaves text that does not decode whole."""
    decode = json.JSONDecoder(object_hook=object_hook).raw_decode

    def whole(text: str):
        value, end = decode(text, _WHITESPACE.match(text).end())
        if _WHITESPACE.match(text, end).end() != len(text):
            raise ValueError("text after the value")
        return value

    def members(text: str) -> dict:
        value = whole(text)
        # A read's members follow a comma, so none (a trailing comma) is a fault.
        if type(value) is not dict or not value:
            raise ValueError("not the members of a table")
        return value

    table: dict = {}
    # Text not yet decoded: the file's start, or "{" and the members after
    # the last member decoded.
    head = ""
    with open(path, encoding="utf-8") as f:
        while piece := f.read(_READ_SIZE):
            end = piece.rfind("}")
            while end >= 0 and not (after := _NEXT_MEMBER.match(piece, end + 1)):
                end = piece.rfind("}", 0, end)
            if end < 0:
                head += piece
                continue
            # One copy of the piece: "%.*s" writes its first end + 1
            # characters without a slice.
            table.update(members("%s%.*s}" % (head, end + 1, piece)))
            head = "{" + piece[after.end() :]
    if not table:  # no member ended in a read: ``head`` is the whole file
        return whole(head)
    table.update(members(head))
    return object_hook(table)


class TableLM(Scorer):
    """Deterministic language model backed by explicit probability tables.

    Contexts map a decoder prefix (optionally pinned to a specific source)
    to a full next-token distribution; anything unlisted falls back to a
    single default distribution. All distributions live over the piece
    vocabulary (byte-fallback ids excluded), and the exact sum of each
    one's probabilities must lie within 1e-12 of 1, on every Python.

    The contexts live in prefix trees: one for any source and one per
    pinned source. A node is ``[entry or None, {token id: child node}]``;
    a registered context's node holds its entry, and a node that is only a
    prefix of registered contexts holds None. An entry is
    (log-distribution, terminator log-prob, argmax token, its log-prob),
    the argmax being the lowest id among tied maxima, as
    ``Scorer.greedy_steps`` takes it. A context reads the entry of its
    pinned node, else of its any-source node, else the default. Every
    reader steps both nodes down the tokens it reads, one child lookup per
    tree and token. A context in neither tree extends no registered
    context, so every later step reads the default.

    ``best_span`` forces each suffix only as far as its contexts reach into
    the trees (see there): the same n counted, checked passes and the same
    span, score included, as forcing every suffix to its end.
    ``greedy_steps`` reads each step's stored argmax (see there): the same
    steps and counted passes as ``Scorer.greedy_steps``, without building or
    scanning a distribution.

    A table file (``from_file``) is one JSON object, parsed once, each
    distribution becoming its entry as it is parsed. The file is read in
    pieces, so a load never holds the whole file's text either: it peaks at
    what it keeps plus about one piece. Its keys are "default"
    or "src#p1,p2,...", src "*" for any source; a key written twice keeps
    its last value. Every id, in a key or a distribution, is ASCII digits.
    A distribution that lists every piece in id order, as a generated table
    writes it, is built with one map (see ``_to_logdist``); any other
    spelling loads to the same entry.
    """

    def __init__(self, vocab: Vocabulary, contexts=None, default=None, terminator_ids=None):
        super().__init__(vocab, terminator_ids)
        if not all(0 <= t < vocab.size for t in self.terminator_ids):
            raise ValueError("terminator ids must lie in the piece vocabulary")
        self._any_source: list = [None, {}]
        self._by_source: dict[tuple[int, ...], list] = {}
        # The last lookup's (source ids, prefix ids, nodes), one attribute
        # so that threads read and replace it at once; None holds nothing.
        self._last_nodes = None
        self._ids = _IdMemo()
        self._logs = _LogMemo()
        # The keys of a distribution that lists every piece in id order, as
        # a table file writes them.
        self._dense_keys = list(map(str, range(vocab.size)))
        if default is None:
            default = {i: 1.0 / vocab.size for i in range(vocab.size)}
        self._set_default(self._entry(default))
        for key, dist in (contexts or {}).items():
            self.set_context(key, dist)

    # ------------------------------------------------------------------
    def _to_logdist(self, dist: dict) -> list[float]:
        """``dist``'s log-probabilities over the piece vocabulary. ``dist``
        maps token ids (see ``_IdMemo``) to probabilities: ints or floats,
        not the bools or strings that float() takes. ValueError unless they
        are finite, at least 0 and sum to 1 within DIST_SUM_TOL, and every
        id is a piece id, listed once.

        A distribution whose keys are ``"0"``, ``"1"``, ... up to the last
        piece, in that order, is dense: its ids need no parse and no range
        or duplicate check, and its log-dist is one map over its
        probabilities. Any other spelling (int keys, some pieces left out,
        another order, ``"01"``) takes the general path to the same entry.
        The checks are C-level reductions, in the same order on both paths,
        and the log of each distinct probability is taken once per model
        and its float shared by every entry that holds it."""
        size = self.vocab.size
        keys = list(dist)
        dense = keys == self._dense_keys
        if dense:
            # The parser shares one string per distinct key within a decode
            # call (one read of a table file), so holding the parsed keys
            # makes the next comparisons of that read identity hits.
            self._dense_keys = keys
        ids = range(size) if dense else list(map(self._ids.__getitem__, dist))
        probs = dist.values()
        kinds = set(map(type, probs))
        try:
            if not kinds <= _NUMBERS:
                raise TypeError
            if int in kinds:
                probs = list(map(float, probs))
        except (OverflowError, TypeError):
            for token_id, value in zip(ids, dist.values()):
                try:
                    if type(value) in _NUMBERS:
                        float(value)
                        continue
                except OverflowError:
                    pass
                shown = repr(value) if type(value) is str else _NOT_A_NUMBER.get(type(value), "an object")
                raise ValueError(f"probability of token {token_id} is {shown}, not a number") from None
        total = sum(probs)
        # A NaN or an infinity anywhere makes the sum NaN or infinite.
        if not math.isfinite(total):
            for token_id, prob in zip(ids, probs):
                if not math.isfinite(prob):
                    raise ValueError(f"probability {prob!r} of token {token_id} is not finite")
        # The plain sum (compensated on Python 3.12+, not on 3.10 and 3.11) is
        # within n * 2**-52 of the exact one, which decides where that matters.
        if abs(abs(total - 1.0) - DIST_SUM_TOL) <= len(probs) * 2.0**-52:
            total = math.fsum(probs)
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1.0")
        if not dense and (min(ids) < 0 or max(ids) >= size):
            token_id = next(t for t in ids if not 0 <= t < size)
            raise ValueError(f"token id {token_id} outside piece vocabulary")
        logs = self._logs
        out = [NEG_INF] * size
        if dense:
            try:
                # Assigned in place: a list built from a map keeps spare
                # capacity, about 10% of every entry.
                out[:] = map(logs.__getitem__, probs)
            except ValueError:  # math.log's domain: the sign check
                raise ValueError("negative probability") from None
            return out
        if min(probs) < 0:
            raise ValueError("negative probability")
        if len(set(ids)) < len(ids):
            ordered = sorted(ids)
            token_id = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise ValueError(f"token id {token_id} listed twice")
        for token_id, prob in zip(ids, probs):
            out[token_id] = logs[prob]
        return out

    def _entry(self, dist: dict) -> tuple[list[float], float, int, float]:
        logdist = self._to_logdist(dist)
        token = logdist.index(max(logdist))
        return logdist, logsumexp(logdist[t] for t in self.terminator_ids), token, logdist[token]

    def _parsed(self, obj: dict):
        """``json.load``'s object hook: ``obj``'s entry, made as soon as the
        parser closes the object, so that the parsed file never holds all
        of its distributions as dicts at once. An object that is not a
        distribution, the table itself included, stays a dict, and
        ``_load`` raises its fault in file order."""
        try:
            return self._entry(obj)
        except ValueError:
            return obj

    def _set_default(self, entry) -> None:
        self._default = entry
        # A distribution may sum to 1 + DIST_SUM_TOL, so one log-prob of the
        # default can lie above 0; then a span can grow past a table's reach.
        self._default_rises = max(entry[0]) > 0

    def set_context(self, key, dist: dict) -> None:
        """Register a context distribution.

        ``key`` is either a prefix id tuple (matches any source) or a
        ``(source_ids, prefix_ids)`` pair. ValueError naming ``key`` unless
        every id is an int (not a bool) naming a piece or a byte: no request
        reaches any other context.
        """
        self._node(key)[0] = self._entry(dist)  # made first, so a bad one adds no node

    def _node(self, key) -> list:
        """The tree node of ``set_context``'s checked ``key``, made if missing."""
        key = tuple(key)
        if key and isinstance(key[0], (tuple, list)):
            source_ids, prefix_ids = map(tuple, key)
        else:
            source_ids, prefix_ids = None, key
        ids = prefix_ids + (source_ids or ())
        limit = self.vocab.size + NUM_BYTE_TOKENS
        # C-level reductions. Exact types: a bool is an int to Python.
        if ids and not (set(map(type, ids)) == {int} and min(ids) >= 0 and max(ids) < limit):
            bad = next(t for t in ids if type(t) is not int or not 0 <= t < limit)
            raise ValueError(f"context key {key!r} holds {bad!r}, not a token id")
        node = self._any_source if source_ids is None else self._by_source.setdefault(source_ids, [None, {}])
        for token in prefix_ids:
            node = node[1].setdefault(token, [None, {}])
        self._last_nodes = None
        return node

    @classmethod
    def from_file(cls, path: str | Path, vocab: Vocabulary, terminator_ids=None) -> "TableLM":
        """Load from a JSON map of "src#p1,p2,..." keys; src "*" matches any
        source. DataError naming ``path`` when the file is not UTF-8, not
        valid JSON or not such a map of distributions.

        The file is parsed once, each distribution becoming its entry while
        it is (see ``_parsed``), and read a piece at a time (see
        ``_read_members``): a load holds what it keeps plus about one piece,
        never the whole file's text."""
        lm = cls(vocab, terminator_ids=terminator_ids)
        try:
            lm._load(_read_members(path, lm._parsed))
        except ValueError:
            # Text of any other shape, or a table that does not load: parsed
            # whole, so that each fault keeps ``read_json``'s message.
            read_json(path, lm._load, object_hook=lm._parsed)
        return lm

    def _load(self, raw) -> None:
        """Register the table ``raw``, whose distributions may already be
        entries. Faults are raised in file order, the default first; for
        each key, a malformed id, then a distribution that is not an
        object, then an id no request reaches, then a bad distribution,
        named with its key."""
        if not isinstance(raw, dict):
            what = "one distribution" if type(raw) is tuple else type(raw).__name__
            raise ValueError(f"table must be a JSON object of distributions, not {what}")

        def distribution(key):
            dist = raw[key]
            if not isinstance(dist, (tuple, dict)):
                raise ValueError(f"distribution {key!r} must be an object, not {type(dist).__name__}")
            return dist

        def entry(key, dist):
            if type(dist) is tuple:
                return dist
            try:
                return self._entry(dist)
            except ValueError as exc:
                raise ValueError(f"distribution {key!r}: {exc}") from None

        parsed: dict[str, tuple[int, ...]] = {"": ()}

        def ids(part):
            # Keys mostly repeat a few sources and prefixes, so each distinct
            # part is parsed once. The empty part is the empty sequence; an
            # empty item is an error.
            if part not in parsed:
                parsed[part] = tuple(map(self._ids.__getitem__, part.split(",")))
            return parsed[part]

        if "default" in raw:
            self._set_default(entry("default", distribution("default")))
        for key in raw:
            if key == "default":
                continue
            src_part, _, prefix_part = key.partition("#")
            try:
                context = ids(prefix_part) if src_part == "*" else (ids(src_part), ids(prefix_part))
            except ValueError as exc:
                raise ValueError(f"context key {key!r}: {exc}") from None
            dist = distribution(key)
            node = self._node(context)
            node[0] = entry(key, dist)

    # ------------------------------------------------------------------
    def _nodes(self, source: tuple[int, ...], prefix: tuple[int, ...]):
        """The (pinned, any-source) nodes of context ``prefix`` under
        ``source``, None where a tree lacks it. The last pair is kept with
        both tuples and reused while calls carry the same tuple objects, as
        the n passes of one ``best_span`` do."""
        last = self._last_nodes
        if last is not None and last[0] is source and last[1] is prefix:
            return last[2]
        pinned, any_node = self._by_source.get(source), self._any_source
        for token in prefix:
            pinned = pinned and pinned[1].get(token)
            any_node = any_node and any_node[1].get(token)
        self._last_nodes = (source, prefix, (pinned, any_node))
        return pinned, any_node

    def best_span(
        self,
        source: TokenSeq,
        prefix: TokenSeq,
        passage: TokenSeq,
        max_span_len: int | None = None,
        allow_empty_span: bool = False,
    ) -> tuple[int, int, float]:
        """``Scorer.best_span``, with each suffix forced only as far as its
        contexts reach into the trees: still one counted, checked
        ``teacher_forced_pass`` per suffix, and the same span and score.

        The pass for start i forces max(k, 1) tokens, k being the number of
        contexts ``prefix + passage[i:i + j]``, j < min(K, n - i), that lie
        in a tree: the steps that the prefix's nodes take down the passage
        before both are None. Every later step reads the default entry: a
        constant terminator log-prob and gold log-probs <= 0, so
        L(i, j) + e(i, j) cannot grow for j >= k, the row's first maximum
        lies at j <= max(k, 1), and the forced part holds it, summed in the
        same order. A default with a log-prob above 0, or a subclass that
        rescores (overrides ``_score_forced``), answers through
        ``Scorer.best_span``, which forces full suffixes.

        Each suffix is one ``self.teacher_forced_pass(ScoreRequest(...))``,
        so that a wrapper on ``Scorer.teacher_forced_pass`` sees every pass
        and its forced target. Each row goes to ``best_span_of`` as it is
        scored, not held for all n."""
        if self._default_rises or type(self)._score_forced is not TableLM._score_forced:
            return super().best_span(source, prefix, passage, max_span_len, allow_empty_span)
        cap = suffix_cap(passage, max_span_len)
        nodes = self._nodes(source.ids, prefix.ids)
        ids, vocab_id = passage.ids, passage.vocab_id
        n = len(ids)
        forced = self.teacher_forced_pass

        def rows():
            for i in range(n):
                pinned, any_node = nodes
                k, limit = 0, cap if cap < n - i else n - i
                while k < limit and (pinned or any_node):
                    token = ids[i + k]
                    pinned = pinned and pinned[1].get(token)
                    any_node = any_node and any_node[1].get(token)
                    k += 1
                yield forced(ScoreRequest(source, TokenSeq(ids[i : i + (k or 1)], vocab_id), prefix))

        return best_span_of(rows(), allow_empty_span)

    def greedy_steps(
        self, source: TokenSeq, prefix: TokenSeq, max_steps: int, terminator_ids=None
    ) -> list[tuple[int, float]]:
        """``Scorer.greedy_steps`` from the argmaxes stored at load: each step
        reads its context's entry and takes the entry's argmax. One counted
        pass per step, and the same steps, floats included, as
        ``Scorer.greedy_steps`` over the checked distributions.

        The per-step check is not needed: every entry was checked at load,
        so its log-probs are at most about DIST_SUM_TOL, below LOGPROB_TOL,
        and none is NaN. A subclass that overrides ``_next_dist`` gets the
        generic loop over its distributions."""
        if type(self)._next_dist is not TableLM._next_dist:
            return super().greedy_steps(source, prefix, max_steps, terminator_ids)
        positive_int(max_steps, "max_steps")
        self._check_vocab(source)
        self._check_vocab(prefix)
        stops = self.terminator_ids if terminator_ids is None else terminator_ids
        pinned, any_node = self._nodes(source.ids, prefix.ids)
        steps: list[tuple[int, float]] = []
        for _ in range(max_steps):
            _, _, token, top = (pinned and pinned[0]) or (any_node and any_node[0]) or self._default
            steps.append((token, top))
            if token in stops:
                break
            pinned = pinned and pinned[1].get(token)
            any_node = any_node and any_node[1].get(token)
        self._count_pass(len(steps))
        return steps

    def _score_forced(self, req: ScoreRequest) -> StepScores:
        """Each step's entry (pinned, then any-source, then the default),
        both nodes stepped down the target, and last the terminator
        log-prob of the context after the whole target."""
        source, prefix = req.source.ids, req.forced_prefix.ids
        # ``_nodes``' memo, read here: every pass of one ``best_span`` hits it.
        last = self._last_nodes
        if last is not None and last[0] is source and last[1] is prefix:
            pinned, any_node = last[2]
        else:
            pinned, any_node = self._nodes(source, prefix)
        default = self._default
        size = len(default[0])
        gold: list[float] = []
        term: list[float] = []
        for token in req.forced_target.ids:
            entry = (pinned and pinned[0]) or (any_node and any_node[0]) or default
            term.append(entry[1])
            # Byte-fallback ids sit outside the piece distribution and
            # are never predicted by a table model.
            gold.append(entry[0][token] if token < size else NEG_INF)
            pinned = pinned and pinned[1].get(token)
            any_node = any_node and any_node[1].get(token)
        term.append(((pinned and pinned[0]) or (any_node and any_node[0]) or default)[1])
        return StepScores(tuple(gold), tuple(term))

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        pinned, any_node = self._nodes(source.ids, prefix.ids)
        return list(((pinned and pinned[0]) or (any_node and any_node[0]) or self._default)[0])
