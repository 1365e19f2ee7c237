"""Property tests: each fast path against the plain algorithm it replaces.

- ``find_span`` against the O(n^3) scan that decodes every (i, j) slice;
- ``exact_extract`` against ``naive_exact``, bit for bit, under every span
  cap and with and without the empty span, in process and over the wire
  protocol at every op level (one extract request; a refused extract
  request and one ``teacher_forced`` request per pass);
- ``TableLM.best_span``, which forces each suffix only as far as its
  contexts reach into the tables, against ``Scorer.best_span`` (every
  suffix forced to its end) and ``naive_exact``, bit for bit, and each
  suffix's forced length against the registered contexts, also when every
  context a span can reach is registered;
- ``greedy_decode`` over the wire against in process, bit for bit, at
  every op level (one greedy request; a refused greedy request and one
  ``next_dist`` per step);
- ``harness.evaluate_example`` over the wire against in process, bit for
  bit: both decodes in one ``extract_greedy`` request, or refused and
  stepped down at every op level below it;
- ``TableLM.greedy_steps``, which reads the argmaxes stored at load,
  against ``Scorer.greedy_steps`` over the checked distributions: the same
  tokens, floats and passes;
- ``TableLM`` forced scores against a per-step lookup in a plain dict of
  the registered contexts, also across sources and ``set_context`` calls,
  and in written cases of the lookup's precedence;
- ``TableLM.from_file`` entries against ``math.log`` of each probability
  in the file, and ``logsumexp`` over the terminators;
- a table distribution that lists every piece in id order (the dense
  load) against the same one shuffled, without its zeros and set with int
  keys (the general load): the same entry, floats included, and for a
  fault the same message;
- ``TableLM.from_file``, which reads a table file a piece at a time,
  against the whole file parsed at once, at read sizes down to one
  character, over valid and corrupted files: the same model, floats
  included, or the same DataError text;
- ``best_span_of``'s running pass against a scan of every (i, j) under
  ``decoding._better``, the tie-break that ``naive_exact`` uses: the same
  span and score, bit for bit;
- ``Vocabulary.encode``, which looks whole words up when the word marker
  only ever begins a piece and probes only the lengths of the pieces that
  begin with the two characters at a position, against greedy longest
  match over the whole string.
"""

import json
import math
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spandecode.decoding import DecodeConfig, _better, exact_extract, greedy_decode, naive_exact
from spandecode.harness import evaluate_example
from spandecode.metrics import find_span, strip_sentinels
from spandecode.mrqa import DataError, QAExample, read_json
from spandecode.prompting import list_templates
from spandecode.scorer import (
    DIST_SUM_TOL,
    LOGPROB_TOL,
    NEG_INF,
    Scorer,
    ScoreRequest,
    StepScores,
    TableLM,
    best_span_of,
    logsumexp,
)
from spandecode.vocab import SPACE_MARKER, TokenSeq, Vocabulary

from conftest import TOY_PIECES, LoopbackScorer, RecordingTableLM, bare_vocab

SETTINGS = settings(max_examples=300, deadline=None)
EXTRACT, GREEDY, EXTRACT_GREEDY = "extract", "greedy", "extract_greedy"

# Whitespace-only and newline pieces, words with inner and outer markers,
# the sentinels and the terminator. No piece is empty: a vocabulary
# rejects one.
PIECE_POOL = [
    "▁", "▁▁", "\n", "▁\n", "\n▁", "\t", " ",
    "a", "b", "ab", "ba", "▁a", "▁b", "▁ab", "a▁", "b▁▁", "a\nb", "▁a▁b",
    "<extra_id_0>", "<extra_id_1>", "</s>",
]
SPECIALS = ["<extra_id_0>", "<extra_id_1>", "</s>"]
# One-byte characters, a lead byte and a continuation byte of "é", and a
# byte that is never valid UTF-8.
BYTE_VALUES = [0x20, 0x41, 0x0A, 0xC3, 0xA9, 0xFF]


class LoggedTableLM(RecordingTableLM):
    """A RecordingTableLM that also keeps its default and, in order, every
    context it is given, for reference lookups that do not read its
    trees."""

    def __init__(self, vocab, contexts=None, default=None, terminator_ids=None):
        self.default = default or {t: 1.0 / vocab.size for t in range(vocab.size)}
        self.registered = []
        super().__init__(vocab, contexts, default, terminator_ids)

    def set_context(self, key, dist):
        key = tuple(key)
        pinned = bool(key) and isinstance(key[0], (tuple, list))
        self.registered.append(((tuple(key[0]), tuple(key[1])) if pinned else (None, key), dist))
        super().set_context(key, dist)

    def lookup(self, source, context):
        """The reference: the log-distribution of ``context`` under
        ``source`` from a plain dict of the registered contexts keyed by
        (source, prefix), None standing for any source. The last
        registration of a key counts, and a context reads the entry pinned
        to its source, else the any-source one, else the default."""
        table = dict(self.registered)
        dist = table.get((source, context)) or table.get((None, context)) or self.default
        return [math.log(dist[t]) if dist.get(t, 0) > 0 else NEG_INF for t in range(self.vocab.size)]

    def reaches(self, source, context):
        """Whether ``context`` begins some context registered for
        ``source`` or for any source."""
        return any(
            pinned in (None, source) and prefix[: len(context)] == context
            for (pinned, prefix), _ in self.registered
        )


def scan_span(text, passage, vocab):
    """The reference: decode every (i, j) slice, earliest start first."""
    target = strip_sentinels(text)
    if not target:
        return None
    n = len(passage)
    for i in range(n):
        for j in range(1, n - i + 1):
            if vocab.decode(passage[i : i + j]).strip() == target:
                return i, j
    return None


@st.composite
def find_span_cases(draw):
    extra = draw(st.lists(st.sampled_from(PIECE_POOL[:-3]), unique=True, min_size=1))
    vocab = Vocabulary(extra + SPECIALS, terminator="</s>", sentinels=SPECIALS[:2])
    token = st.sampled_from(range(vocab.size))
    if draw(st.booleans()):
        token = token | st.sampled_from([vocab.byte_id(b) for b in BYTE_VALUES])
    passage = vocab.seq(draw(st.lists(token, max_size=14)))
    if passage.ids and draw(st.booleans()):
        # A slice of the passage itself, so that most cases have a match.
        i = draw(st.integers(0, len(passage) - 1))
        j = draw(st.integers(1, len(passage) - i))
        text = vocab.decode(passage[i : i + j])
    else:
        text = draw(st.text(alphabet="ab \n\t", max_size=6))
    pad = st.sampled_from(["", " ", "\n", "<extra_id_0>", "<extra_id_1>", " <extra_id_1>"])
    return vocab, passage, draw(pad) + text + draw(pad)


@SETTINGS
@given(find_span_cases())
def test_find_span_matches_the_scan(case):
    vocab, passage, text = case
    assert find_span(text, passage, vocab) == scan_span(text, passage, vocab)


@st.composite
def table_models(draw, max_len=8):
    """A TableLM with integer-weighted distributions (so scores tie often),
    contexts on random spans of the passage under any source and pinned to
    the source, some set at construction and some after, and a passage."""
    size = draw(st.integers(3, 7))
    vocab = bare_vocab(size)
    passage = vocab.seq(draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=max_len)))
    source = vocab.seq(draw(st.lists(st.integers(0, size - 1), max_size=3)))
    prefix = vocab.seq(draw(st.lists(st.integers(0, size - 1), max_size=2)))

    def dist():
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if not any(weights):
            weights[-1] = 1
        return {t: w / sum(weights) for t, w in enumerate(weights) if w}

    def key():
        n = len(passage)
        i = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - i))
        context = prefix.ids + passage.ids[i : i + k]
        return (source.ids, context) if draw(st.booleans()) else context

    lm = LoggedTableLM(vocab, contexts={key(): dist() for _ in range(draw(st.integers(0, 4)))}, default=dist())
    for _ in range(draw(st.integers(0, 4))):
        lm.set_context(key(), dist())
    return vocab, lm, source, prefix, passage


@SETTINGS
@given(table_models(), st.data())
def test_exact_extract_equals_naive_bit_for_bit(model, data):
    vocab, lm, source, prefix, passage = model
    n = len(passage)
    cfg = DecodeConfig(
        max_span_len=data.draw(st.sampled_from([None, *range(1, n + 2)])),
        allow_empty_span=data.draw(st.booleans()),
    )
    # In process, or over the wire at every op level: one extract request,
    # or a refused extract request and then one request per pass.
    refuse = data.draw(st.sampled_from([None, (), (EXTRACT,)]))
    scorer = lm if refuse is None else LoopbackScorer(lm, refuse=refuse)
    fast = exact_extract(passage, source, prefix, scorer, cfg)
    slow = naive_exact(passage, source, prefix, lm, cfg)
    assert (fast.start, fast.length, fast.span_logprob.hex()) == (
        slow.start,
        slow.length,
        slow.span_logprob.hex(),
    )
    assert fast.passes_used == n
    if refuse is not None:
        # 1 or 1 + n requests.
        assert scorer.ops() == [EXTRACT] + ["teacher_forced"] * n * len(refuse)
        assert scorer.pass_count() == n


@st.composite
def reach_models(draw, max_len=10):
    """A LoggedTableLM whose contexts follow the passage from random
    starts, under any source and pinned to the source, with flat, peaked or
    tied distributions that may leave tokens at probability 0; a default
    whose terminator may have probability 0; and a passage that may hold
    byte-fallback ids."""
    size = draw(st.integers(3, 7))
    vocab = bare_vocab(size)
    token = st.integers(0, size - 2)
    if draw(st.booleans()):
        token = token | st.sampled_from([vocab.byte_id(b) for b in BYTE_VALUES])
    passage = vocab.seq(draw(st.lists(token, min_size=1, max_size=max_len)))
    source = vocab.seq(draw(st.lists(st.integers(0, size - 1), max_size=3)))
    prefix = vocab.seq(draw(st.lists(st.integers(0, size - 1), max_size=2)))

    def dist(can_stop=True):
        shape = draw(st.sampled_from(["flat", "peaked", "tied"]))
        if shape == "flat":
            weights = [1] * size
        elif shape == "peaked":
            weights = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
            weights[draw(st.integers(0, size - 1))] = 1000
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if not can_stop:
            weights[vocab.terminator_id] = 0
        if not any(weights):
            weights[0] = 1
        return {t: w / sum(weights) for t, w in enumerate(weights) if w}

    def key():
        n = len(passage)
        i = draw(st.integers(0, n - 1))
        context = prefix.ids + passage.ids[i : i + draw(st.integers(0, n - i))]
        return (source.ids, context) if draw(st.booleans()) else context

    contexts = {key(): dist() for _ in range(draw(st.integers(0, 6)))}
    lm = LoggedTableLM(vocab, contexts=contexts, default=dist(can_stop=draw(st.booleans())))
    return vocab, lm, source, prefix, passage


@SETTINGS
@given(reach_models(), st.data())
def test_table_lm_best_span_equals_full_suffixes_and_naive(model, data):
    vocab, lm, source, prefix, passage = model
    n = len(passage)
    cap = data.draw(st.sampled_from([None, 1, 2, 3, n, n + 1]))
    allow = data.draw(st.booleans())
    start, length, logprob = lm.best_span(source, prefix, passage, cap, allow)
    # One counted pass per suffix, each forcing the contexts that reach
    # into the tables, at least one token and at most what a span from its
    # start can cover.
    assert lm.pass_count() == n
    limits = [min(cap or n, n - i) for i in range(n)]
    reach = [
        next((j for j in range(limit) if not lm.reaches(source.ids, prefix.ids + passage.ids[i : i + j])), limit)
        for i, limit in enumerate(limits)
    ]
    assert lm.forced == [max(k, 1) for k in reach]
    lm.forced.clear()
    full = Scorer.best_span(lm, source, prefix, passage, cap, allow)
    assert lm.forced == limits
    slow = naive_exact(passage, source, prefix, lm, DecodeConfig(max_span_len=cap, allow_empty_span=allow))
    assert (start, length, logprob.hex()) == (full[0], full[1], full[2].hex())
    assert (start, length, logprob.hex()) == (slow.start, slow.length, slow.span_logprob.hex())


@SETTINGS
@given(st.data())
def test_table_lm_best_span_with_full_reach(data):
    # Every context a span can reach is registered, pinned to the source,
    # under any source or both, so each suffix is forced to its end.
    size = data.draw(st.integers(3, 7))
    vocab = bare_vocab(size)
    passage = vocab.seq(data.draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=8)))
    source = vocab.seq(data.draw(st.lists(st.integers(0, size - 1), max_size=3)))
    prefix = vocab.seq(data.draw(st.lists(st.integers(0, size - 1), max_size=2)))
    n = len(passage)
    cap = data.draw(st.sampled_from([None, *range(1, n + 1)]))
    allow = data.draw(st.booleans())
    limits = [min(cap or n, n - i) for i in range(n)]

    def dist():
        weights = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if not any(weights):
            weights[-1] = 1
        return {t: w / sum(weights) for t, w in enumerate(weights) if w}

    lm = LoggedTableLM(vocab, default=dist())
    for i, limit in enumerate(limits):
        for k in range(limit + 1):
            context = prefix.ids + passage.ids[i : i + k]
            keys = [[context], [(source.ids, context)], [context, (source.ids, context)]]
            for key in data.draw(st.sampled_from(keys)):
                lm.set_context(key, dist())
    start, length, logprob = lm.best_span(source, prefix, passage, cap, allow)
    assert lm.forced == limits and lm.pass_count() == n
    slow = naive_exact(passage, source, prefix, lm, DecodeConfig(max_span_len=cap, allow_empty_span=allow))
    assert (start, length, logprob.hex()) == (slow.start, slow.length, slow.span_logprob.hex())


@st.composite
def greedy_models(draw):
    """A TableLM with integer-weighted distributions (so maxima tie often,
    and a terminator may tie with a non-terminator at the maximum), zero
    probabilities listed or left out, one probability nudged so that the
    sum lies up to 9e-13 off 1, one or two terminator ids, and contexts on
    random greedy-reachable prefixes under any source, pinned to the
    source and pinned to another source."""
    size = draw(st.integers(3, 7))
    vocab = bare_vocab(size)
    token = st.integers(0, size - 1)
    stops = draw(st.sets(token, min_size=1, max_size=2))
    source = vocab.seq(draw(st.lists(token, max_size=3)))
    prefix = vocab.seq(draw(st.lists(token, max_size=2)))

    def dist():
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if not any(weights):
            weights[-1] = 1
        if draw(st.booleans()):
            stop = draw(st.sampled_from(sorted(stops)))
            other = draw(st.sampled_from([t for t in range(size) if t not in stops]))
            weights[stop] = weights[other] = max(weights)
        probs = [w / sum(weights) for w in weights]
        nudged = draw(st.sampled_from([t for t, p in enumerate(probs) if p]))
        probs[nudged] += draw(st.sampled_from([0.0, 9e-13, -9e-13]))
        assume(abs(sum(probs) - 1.0) <= DIST_SUM_TOL)
        zeros = draw(st.booleans())
        return {t: p for t, p in enumerate(probs) if p or zeros}

    def key():
        context = prefix.ids + tuple(draw(st.lists(token, max_size=4)))
        pinned = draw(st.sampled_from([None, source.ids, source.ids + (0,)]))
        return context if pinned is None else (pinned, context)

    contexts = {key(): dist() for _ in range(draw(st.integers(0, 6)))}
    lm = TableLM(vocab, contexts=contexts, default=dist(), terminator_ids=stops)
    return vocab, lm, source, prefix


@SETTINGS
@given(greedy_models(), st.data())
def test_greedy_over_the_wire_equals_in_process(model, data):
    vocab, lm, source, prefix = model
    cfg = DecodeConfig(max_greedy_steps=data.draw(st.integers(1, 8)))
    # One greedy request, or a refused greedy request and then one
    # next_dist request per step.
    refuse = data.draw(st.sampled_from([(), (GREEDY,)]))
    wire = LoopbackScorer(lm, refuse=refuse)
    got = greedy_decode(source, prefix, wire, cfg)
    want = greedy_decode(source, prefix, lm, cfg)
    assert (got.text, got.token_ids, got.truncated, got.passes_used, got.span_logprob.hex()) == (
        want.text,
        want.token_ids,
        want.truncated,
        want.passes_used,
        want.span_logprob.hex(),
    )
    k = want.passes_used
    assert 1 <= k <= cfg.max_greedy_steps and wire.pass_count() == k
    assert wire.ops() == [GREEDY] + ["next_dist"] * k * len(refuse)


# Words that the toy vocabulary encodes to pieces alone.
TOY_WORDS = ("the", "The", "IRA", "was", "active", "active.", "album", "released", "in", "1971", "(1971)")


@st.composite
def eval_cases(draw):
    """A TableLM over the toy vocabulary, with random contexts after the
    decoder prefix, and an example of toy words under a random template."""
    vocab = Vocabulary(TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"])
    size = vocab.size
    opener = vocab.encode("<extra_id_0>").ids
    stops = draw(st.sampled_from([{vocab.terminator_id}, {size - 2}, {size - 2, vocab.terminator_id}]))

    token = st.integers(0, size - 1)

    def dist():
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        weights[draw(token)] += 1
        return {t: w / sum(weights) for t, w in enumerate(weights) if w}

    contexts = {opener + tuple(draw(st.lists(token, max_size=3))): dist() for _ in range(draw(st.integers(0, 6)))}
    lm = TableLM(vocab, contexts=contexts, default=dist(), terminator_ids=stops)
    words = st.lists(st.sampled_from(TOY_WORDS), min_size=1, max_size=8).map(" ".join)
    example = QAExample(id="x", context=draw(words), question=draw(words), answers=(draw(st.sampled_from(TOY_WORDS)),))
    template = draw(st.sampled_from(list_templates()))
    return vocab, lm, example, template


@SETTINGS
@given(eval_cases(), st.data())
def test_eval_example_over_the_wire_equals_in_process(case, data):
    vocab, lm, example, template = case
    cfg = DecodeConfig(
        max_span_len=data.draw(st.sampled_from([None, 1, 2, 4])),
        allow_empty_span=data.draw(st.booleans()),
        max_greedy_steps=data.draw(st.integers(1, 6)),
    )
    # One extract_greedy request, or a refused one and then extract and
    # greedy requests, each of which may be refused and stepped down.
    refuse = data.draw(st.sampled_from([(), (EXTRACT_GREEDY,), (EXTRACT_GREEDY, EXTRACT), (EXTRACT_GREEDY, GREEDY),
                                        (EXTRACT_GREEDY, EXTRACT, GREEDY)]))
    wire = LoopbackScorer(lm, refuse=refuse)
    got = evaluate_example(example, wire, template, vocab, cfg)
    want = evaluate_example(example, lm, template, vocab, cfg)
    assert got == want
    for decoder in ("exact", "greedy"):
        assert got[decoder].span_logprob.hex() == want[decoder].span_logprob.hex()
    assert wire.pass_count() == want["exact"].passes_used + want["greedy"].passes_used
    ops = wire.ops()
    assert ops[0] == EXTRACT_GREEDY and EXTRACT_GREEDY not in ops[1:]
    assert (len(ops) == 1) == (not refuse)


@SETTINGS
@given(greedy_models(), st.data())
def test_table_lm_greedy_walk_equals_the_generic_loop(model, data):
    vocab, lm, source, prefix = model
    max_steps = data.draw(st.integers(1, 8))
    # The model's own stop set, or one given that may be empty or differ.
    stops = data.draw(st.one_of(st.none(), st.frozensets(st.integers(0, vocab.size - 1), max_size=2)))
    got = lm.greedy_steps(source, prefix, max_steps, stops)
    walked = lm.pass_count()
    want = Scorer.greedy_steps(lm, source, prefix, max_steps, stops)
    assert [(t, v.hex()) for t, v in got] == [(t, v.hex()) for t, v in want]
    assert walked == lm.pass_count() - walked == len(want)


@SETTINGS
@given(table_models(), st.data())
def test_table_lm_forced_scores_match_per_step_lookup(model, data):
    vocab, lm, source, prefix, passage = model
    n = len(passage)
    i = data.draw(st.integers(0, n - 1))
    target = passage.ids[i : data.draw(st.integers(i, n))]
    if data.draw(st.booleans()):
        target += (vocab.byte_id(data.draw(st.integers(0, 255))),)
    assert_per_step(lm, source, prefix, vocab.seq(target))


def assert_per_step(lm, source, prefix, target):
    """One forced pass equals, bit for bit, a reference lookup of the full
    distribution at every step."""
    scores = lm.teacher_forced_pass(ScoreRequest(source, target, prefix))
    gold, term = [], []
    for k in range(len(target) + 1):
        dist = lm.lookup(source.ids, prefix.ids + target.ids[:k])
        term.append(logsumexp(dist[t] for t in lm.terminator_ids))
        if k < len(target):
            gold.append(dist[target[k]] if target[k] < lm.vocab.size else NEG_INF)
    assert [g.hex() for g in scores.gold_logprob] == [g.hex() for g in gold]
    assert [t.hex() for t in scores.term_logprob] == [t.hex() for t in term]


# Distinct distributions over 6 pieces, so that a step read from the wrong
# entry shows in its floats; the terminator is piece 5.
PINNED, ANY, DEFAULT = ({0: 0.5, 1: 0.25, 2: 0.125, 5: 0.125},
                        {1: 0.125, 2: 0.5, 3: 0.25, 5: 0.125},
                        {t: 1 / 6 for t in range(6)})


@pytest.mark.parametrize(
    "contexts, target",
    [
        # (0,) is a prefix-only key under the source, an entry under any source.
        pytest.param({((7,), (0, 1)): PINNED, (0,): ANY}, (1, 2, 3), id="prefix-only-pinned-entry-any"),
        # Both tables hold an entry for (0,): the source-pinned one wins.
        pytest.param({((7,), (0,)): PINNED, (0,): ANY}, (1, 2), id="pinned-shadows-any"),
        # (0, 1) is a prefix-only key in both tables: the default, and on.
        pytest.param({((7,), (0, 1, 2, 3)): PINNED, (0, 1, 2): ANY}, (1, 2, 3, 4), id="prefix-only-in-both"),
        # (0, 1, 3) lies in neither table; a byte-fallback id follows.
        pytest.param({((7,), (0,)): PINNED, (0, 1): ANY}, (1, 3, 6 + 5, 2), id="leaves-then-byte"),
        # The context after the whole target lies outside both tables.
        pytest.param({((7,), (0,)): PINNED, (0, 1): ANY}, (1, 2), id="ends-inside-the-tables"),
    ],
)
def test_table_lm_forced_precedence(contexts, target):
    vocab = bare_vocab(6)
    lm = LoggedTableLM(vocab, contexts=contexts, default=DEFAULT)
    source, prefix = vocab.seq((7,)), vocab.seq((0,))
    assert_per_step(lm, source, prefix, vocab.seq(target))
    # The same contexts from another source read only the any-source table.
    assert_per_step(lm, vocab.seq((8,)), prefix, vocab.seq(target))


@pytest.mark.parametrize("a_ids, b_ids", [((), (0, 1)), ((0, 1), ()), ((2,), (0, 1))])
def test_table_lm_source_lookup_follows_the_source_and_set_context(a_ids, b_ids):
    # TableLM keeps the context table of the last source it looked up. B has
    # pinned contexts from the start and is passed first, A has none until
    # set_context gives it one right after a pass on A; the empty source,
    # whose ids are the () singleton, is each of them once.
    vocab = bare_vocab(4)
    prefix, target = vocab.seq((0,)), vocab.seq((1, 2, 1))
    lm = LoggedTableLM(vocab, contexts={
        (b_ids, (0,)): {1: 0.5, 3: 0.5},
        (b_ids, (0, 1)): {2: 0.25, 3: 0.75},
        (0, 1, 2): {3: 1.0},
    })
    a, b = vocab.seq(a_ids), vocab.seq(b_ids)
    for source in (b, a, b, vocab.seq(b_ids), a):
        assert_per_step(lm, source, prefix, target)
    lm.set_context((a_ids, (0,)), {1: 0.125, 3: 0.875})
    assert_per_step(lm, a, prefix, target)
    assert lm.teacher_forced_pass(ScoreRequest(a, target, prefix)).term_logprob[0] == (
        math.log(0.875)
    )
    lm.set_context((b_ids, (0, 1)), {2: 0.5, 3: 0.5})
    assert_per_step(lm, b, prefix, target)


@st.composite
def table_files(draw):
    """A vocabulary, a terminator set and the JSON object of a table file:
    a default, contexts under any source and pinned contexts. Each
    distribution lists every id, or only those above 0, and sums to 1
    within DIST_SUM_TOL."""
    size = draw(st.integers(2, 8))
    vocab = bare_vocab(size)
    token = st.integers(0, size - 1)
    stops = draw(st.sets(token, min_size=1, max_size=3))

    def ids():
        return ",".join(map(str, draw(st.lists(token, max_size=3))))

    def dist():
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        if not any(weights):
            weights[-1] = 1.0
        probs = [w / sum(weights) for w in weights]
        assume(abs(sum(probs) - 1.0) <= DIST_SUM_TOL)
        zeros = draw(st.booleans())
        return {str(t): p for t, p in enumerate(probs) if p or zeros}

    keys = ["default"] + [f"*#{ids()}" for _ in range(draw(st.integers(0, 3)))]
    keys += [f"{ids()}#{ids()}" for _ in range(draw(st.integers(0, 3)))]
    return vocab, stops, {key: dist() for key in keys}


@SETTINGS
@given(table_files())
def test_table_file_entries_are_the_logs_of_its_probabilities(tmp_path_factory, case):
    vocab, stops, table = case
    path = tmp_path_factory.getbasetemp() / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    lm = TableLM.from_file(path, vocab, terminator_ids=stops)

    def ids(part):
        return tuple(int(t) for t in part.split(",") if t)

    for key, dist in table.items():
        if key == "default":
            logdist, term, token, top = lm._default
        else:
            # Walk the context's tree: the any-source one, or the one
            # pinned to the source.
            source, _, prefix = key.partition("#")
            node = lm._any_source if source == "*" else lm._by_source[ids(source)]
            for t in ids(prefix):
                node = node[1][t]
            logdist, term, token, top = node[0]
        probs = [dist.get(str(t), 0.0) for t in range(vocab.size)]
        want = [math.log(p) if p > 0 else NEG_INF for p in probs]
        assert [v.hex() for v in logdist] == [v.hex() for v in want]
        assert term.hex() == logsumexp(want[t] for t in lm.terminator_ids).hex()
        # The stored argmax: the lowest id among the maxima, and its float.
        assert token == want.index(max(want))
        assert top.hex() == want[token].hex() and top is logdist[token]


# Each fault, and the words of the message that names it.
FAULTS = {
    "bool": "is a boolean, not a number",
    "string": "', not a number",
    "nan": "is not finite",
    "negative": "negative probability",
    "sum": "probabilities sum to",
    "zero-padded": "listed twice",
    "past-the-pieces": "outside piece vocabulary",
}


@st.composite
def spelled_distributions(draw):
    """A vocabulary, a terminator set, a distribution over every piece as
    (id, probability) pairs in id order (floats, or ints where a
    probability is 0 or 1) and one drawn fault, or None: a boolean, a
    string, NaN, a negative value, a bad sum, "01" beside "1" (the one id
    spelled as a string), or an id past the pieces. A fault after the type
    check keeps the sum within DIST_SUM_TOL of 1, so that its own check is
    the one that fails."""
    size = draw(st.integers(2, 8))
    stops = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        probs = [0] * size
        probs[draw(st.integers(0, size - 1))] = 1
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        assume(any(weights))
        probs = [w / sum(weights) for w in weights]
        assume(abs(sum(probs) - 1.0) <= DIST_SUM_TOL)
        if draw(st.booleans()):
            probs = [p if p else 0 for p in probs]
    pairs = list(enumerate(probs))
    fault = draw(st.sampled_from([None, *FAULTS]))
    t, u = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    if fault == "bool":
        pairs[t] = (t, draw(st.booleans()))
    elif fault == "string":
        pairs[t] = (t, str(probs[t]))
    elif fault == "nan":
        pairs[t] = (t, math.nan)
    elif fault == "negative":
        pairs[t], pairs[u] = (t, -0.25), (u, probs[u] + probs[t] + 0.25)
    elif fault == "sum":
        pairs[t] = (t, probs[t] + 0.5)
    elif fault in ("zero-padded", "past-the-pieces"):
        # Token u's probability split between its own id and another.
        extra = f"0{u}" if fault == "zero-padded" else size
        pairs[u] = (u, probs[u] / 2)
        pairs.insert(u + 1, (extra, probs[u] - probs[u] / 2))
    return bare_vocab(size), stops, pairs, fault


@SETTINGS
@given(spelled_distributions(), st.data())
def test_dense_and_general_loads_agree(tmp_path_factory, case, data):
    """A distribution listing every piece in id order loads through the
    dense path; shuffled, with its zeros left out, or set with int keys,
    it takes the general path. All give the same entry, floats included,
    and a fault the same message."""
    vocab, stops, pairs, fault = case
    path = tmp_path_factory.getbasetemp() / "table.json"

    def from_file(items):
        path.write_text(json.dumps({"*#": {str(t): p for t, p in items}}), encoding="utf-8")
        return TableLM.from_file(path, vocab, terminator_ids=stops)

    def set_context(items):
        lm = TableLM(vocab, terminator_ids=stops)
        lm.set_context((), dict(items))
        return lm

    if fault is not None:
        with pytest.raises(ValueError, match=re.escape(FAULTS[fault])) as general:
            set_context(pairs)
        message = f"{path}: distribution '*#': {general.value}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            from_file(pairs)
        return
    shuffled = data.draw(st.permutations(pairs))
    nonzero = [(t, p) for t, p in pairs if p]
    entries = [lm._any_source[0] for lm in (from_file(pairs), from_file(shuffled), from_file(nonzero), set_context(pairs))]
    logdist, term, token, top = entries[0]
    for other in entries[1:]:
        assert [v.hex() for v in other[0]] == [v.hex() for v in logdist]
        assert other[1].hex() == term.hex()
        assert other[2] == token and other[3].hex() == top.hex()


def probe_encode(vocab, text):
    """The reference: greedy longest match over the whole marked string,
    probe by probe, with per-byte fallback."""
    if not text:
        return ()
    s = SPACE_MARKER + text.replace(" ", SPACE_MARKER)
    longest = max(map(len, vocab.pieces))
    ids, pos = [], 0
    while pos < len(s):
        for length in range(min(longest, len(s) - pos), 0, -1):
            if s[pos : pos + length] in vocab.pieces:
                ids.append(vocab.piece_id(s[pos : pos + length]))
                pos += length
                break
        else:
            ids.extend(vocab.byte_id(b) for b in s[pos].encode("utf-8"))
            pos += 1
    return tuple(ids)


# Pieces that begin with the marker or hold none, and pieces that hold it
# after their first character. Several share their first two characters
# at different lengths ("ab", "aba", "abab", "abbab"; "▁a", "▁ab",
# "▁aba", "▁abab"), and one-character pieces begin longer ones.
WORD_PIECES = [
    "a", "b", "ab", "ba", "aba", "abab", "abbab", "é", "éz", "éza", "\n", "a\nb",
    "▁", "▁a", "▁b", "▁ab", "▁ba", "▁aba", "▁abab", "▁\n",
]
INNER_MARKER_PIECES = ["▁▁", "a▁", "b▁▁", "▁a▁b", "\n▁", "▁a▁"]


@st.composite
def encode_cases(draw):
    inner = draw(st.booleans())
    pool = WORD_PIECES + (INNER_MARKER_PIECES if inner else [])
    extra = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1))
    if inner and not any(SPACE_MARKER in p[1:] for p in extra):
        extra.append(draw(st.sampled_from(INNER_MARKER_PIECES)))
    vocab = Vocabulary(extra + SPECIALS, terminator="</s>", sentinels=SPECIALS[:2])
    # Runs of spaces, a literal marker, a newline, characters only some
    # vocabularies cover and two that none does (byte fallback).
    text = draw(st.text(alphabet="ab  ▁\néz☃", max_size=16))
    # Sometimes the text ends inside a longer piece: a proper prefix of it.
    longer = [p for p in extra if len(p) > 1]
    if longer and draw(st.booleans()):
        piece = draw(st.sampled_from(longer))
        text += piece[: draw(st.integers(1, len(piece) - 1))]
    return vocab, inner, text


@SETTINGS
@given(encode_cases())
def test_encode_equals_the_probe_loop(case):
    vocab, inner, text = case
    assert vocab._split_words is not inner
    seq = vocab.encode(text)
    assert seq == TokenSeq(probe_encode(vocab, text), vocab.vocab_id)
    # The marker stands for a space, so a literal one decodes as a space.
    assert vocab.decode(seq) == text.replace(SPACE_MARKER, " ")


# Gold and terminator log-probs: ties (repeated values), -inf, both zeros,
# the largest value a scorer may return and values in between.
ROW_VALUES = st.one_of(
    st.sampled_from([NEG_INF, 0.0, -0.0, LOGPROB_TOL, -0.5, -1.0, -1.5]),
    st.floats(min_value=-8.0, max_value=LOGPROB_TOL),
)


@st.composite
def span_rows(draw):
    """Suffix-table rows: row 0 holds 1..K gold log-probs (a passage has a
    token), a later row 0..K; a row's terminator log-probs number one more."""
    cap = draw(st.integers(1, 5))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        gold = draw(st.lists(ROW_VALUES, min_size=0 if i else 1, max_size=cap))
        term = draw(st.lists(ROW_VALUES, min_size=len(gold) + 1, max_size=len(gold) + 1))
        rows.append(StepScores(tuple(gold), tuple(term)))
    return rows, draw(st.booleans())


def scan_best_span(rows, allow_empty_span):
    """Every (i, j) scored on its own, L(i, j) summed from 0.0 in step
    order, under naive_exact's tie-break."""
    best = None
    for i, scores in enumerate(rows):
        for j in range(0 if allow_empty_span and i == 0 else 1, len(scores.gold_logprob) + 1):
            total = 0.0
            for gold in scores.gold_logprob[:j]:
                total += gold
            total += scores.term_logprob[j]
            if _better(total, i, j, best):
                best = (total, i, j)
    score, i, j = best
    return i, j, score.hex()


@SETTINGS
@given(span_rows())
def test_best_span_of_equals_a_scan_of_every_span(case):
    rows, allow = case
    start, length, score = best_span_of(rows, allow)
    assert (start, length, score.hex()) == scan_best_span(rows, allow)
    # Rows as a generator, as TableLM.best_span passes them.
    assert best_span_of(iter(rows), allow) == (start, length, score)


def hexed_model(lm):
    """A loaded model's default and trees, every float as ``.hex()`` and
    every node's children in the order they were made."""

    def entry(e):
        return None if e is None else ([x.hex() for x in e[0]], e[1].hex(), e[2], e[3].hex())

    def tree(node):
        return entry(node[0]), [(token, tree(child)) for token, child in node[1].items()]

    by_source = [(source, tree(node)) for source, node in lm._by_source.items()]
    return entry(lm._default), tree(lm._any_source), by_source


# The spellings of a table file: indented, compact and spaced, and spaced
# with whitespace before each comma and colon.
LAYOUTS = [
    {"indent": 2},
    {"separators": (",", ":")},
    {},
    {"separators": (" ,\r\n", " :\t")},
]
# What a corruption puts in the file: bytes that are not UTF-8, a
# two-byte character, and single characters of JSON's syntax or none.
STRAY = [b"\xff", b"\xc3\xa9", b"}", b",", b"{", b'"', b":", b"x", b" "]


class Members(dict):
    """A dict that ``json.dumps`` writes as the (key, value) pairs it is
    given, a key written twice included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs

    def items(self):
        return self.pairs


@st.composite
def table_texts(draw):
    """A vocabulary, a terminator set, the bytes of a table file and
    whether it is left whole. The table is a dict of distributions
    (dense, sparse or of integer probabilities) under pinned and
    any-source keys, ``"default"`` anywhere among them, a key sometimes
    written twice; or ``{}``; or itself one distribution. The file is
    laid out as ``json.dumps`` writes it, indented, compact or spaced,
    and sometimes corrupted: cut at any offset, a stray byte put in, a
    BOM before it, text after it, a ``}`` in a key, a comma after the
    last member, or members that are probabilities after the others."""
    size = draw(st.integers(2, 6))
    token = st.integers(0, size - 1)
    stops = draw(st.sets(token, min_size=1, max_size=2))

    def ids():
        return ",".join(map(str, draw(st.lists(token, max_size=3))))

    def dist():
        kind = draw(st.sampled_from(["dense", "sparse", "integer"]))
        if kind == "integer":
            top = draw(token)
            return {str(t): int(t == top) for t in range(size)}
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        if not any(weights):
            weights[-1] = 1.0
        probs = [w / sum(weights) for w in weights]
        assume(abs(sum(probs) - 1.0) <= DIST_SUM_TOL)
        return {str(t): p for t, p in enumerate(probs) if p or kind == "dense"}

    shape = draw(st.sampled_from(["table", "table", "table", "empty", "one distribution"]))
    if shape == "table":
        keys = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["any", "pinned", "default", "again"]))
            if kind == "again" and keys:
                keys.append(draw(st.sampled_from(keys)))
            elif kind == "default":
                keys.append("default")
            else:
                keys.append(f"*#{ids()}" if kind == "any" else f"{ids()}#{ids()}")
        members = [(key, dist()) for key in keys]
        corruption = draw(st.sampled_from([None, None, "cut", "stray", "bom", "after", "brace", "comma", "numbers"]))
        if corruption == "numbers":
            # Members that are probabilities, which together would make a
            # distribution.
            members += dist().items()
        elif corruption == "brace":
            i = draw(st.integers(0, len(members) - 1))
            key = members[i][0]
            at = draw(st.integers(0, len(key)))
            members[i] = (key[:at] + draw(st.sampled_from(["}", "},", "} ,"])) + key[at:], members[i][1])
        text = json.dumps(Members(members), **draw(st.sampled_from(LAYOUTS)))
        if corruption == "comma":
            end = text.rindex("}")
            text = text[:end] + "," + text[end:]
    else:
        corruption = draw(st.sampled_from([None, "cut", "stray", "bom", "after"]))
        text = json.dumps({} if shape == "empty" else dist(), **draw(st.sampled_from(LAYOUTS)))
    data = text.encode("utf-8")
    if corruption == "cut":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif corruption == "stray":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(STRAY)) + data[at:]
    elif corruption == "bom":
        data = b"\xef\xbb\xbf" + data
    elif corruption == "after":
        data += draw(st.sampled_from([b"x", b"{}", b",", b" }", b"\n0"]))
    return bare_vocab(size), stops, data, corruption is None and shape != "one distribution"


@SETTINGS
@given(table_texts(), st.data())
def test_streamed_load_equals_the_whole_file_parse(tmp_path_factory, case, data):
    """``from_file`` at any read size, down to one character, against the
    whole file parsed at once: the same entries, floats included, and the
    same trees and default, as ``_load`` of ``json.load``'s table for a
    whole file; or the same DataError text."""
    vocab, stops, raw, whole = case
    path = tmp_path_factory.getbasetemp() / "table.json"
    path.write_bytes(raw)

    def outcome(load):
        try:
            return hexed_model(load(TableLM(vocab, terminator_ids=stops)))
        except DataError as exc:
            return str(exc)

    def parsed_whole(lm):
        # How ``from_file`` read a table before it read one in pieces.
        read_json(path, lm._load, object_hook=lm._parsed)
        return lm

    def plain(lm):
        with open(path, encoding="utf-8") as f:
            lm._load(json.load(f))
        return lm

    want = outcome(parsed_whole)
    if whole:
        assert outcome(plain) == want
    read_size = data.draw(st.integers(1, len(raw) + 1), label="read size")
    with mock.patch("spandecode.scorer._READ_SIZE", read_size):
        assert outcome(lambda _: TableLM.from_file(path, vocab, terminator_ids=stops)) == want
