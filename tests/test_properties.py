"""Property tests: each fast path against the plain algorithm it replaces.

- ``find_span`` against the O(n^3) scan that decodes every (i, j) slice;
- ``exact_extract`` against ``naive_exact``, bit for bit, under every span
  cap and with and without the empty span, in process and over the wire
  protocol (batched with packed or JSON-list float replies, and per pass
  for a server without the batch op);
- ``TableLM`` forced scores against a per-step lookup of the full
  distribution.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from spandecode.decoding import DecodeConfig, exact_extract, naive_exact
from spandecode.metrics import find_span, strip_sentinels
from spandecode.scorer import NEG_INF, ScoreRequest, TableLM, logsumexp
from spandecode.vocab import Vocabulary

from conftest import LoopbackScorer, bare_vocab

SETTINGS = settings(max_examples=300, deadline=None)

# Whitespace-only and newline pieces, words with inner and outer markers,
# the sentinels and the terminator.
PIECE_POOL = [
    "", "▁", "▁▁", "\n", "▁\n", "\n▁", "\t", " ",
    "a", "b", "ab", "ba", "▁a", "▁b", "▁ab", "a▁", "b▁▁", "a\nb", "▁a▁b",
    "<extra_id_0>", "<extra_id_1>", "</s>",
]
SPECIALS = ["<extra_id_0>", "<extra_id_1>", "</s>"]
# One-byte characters, a lead byte and a continuation byte of "é", and a
# byte that is never valid UTF-8.
BYTE_VALUES = [0x20, 0x41, 0x0A, 0xC3, 0xA9, 0xFF]


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

    lm = TableLM(vocab, contexts={key(): dist() for _ in range(draw(st.integers(0, 4)))}, default=dist())
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
    # In process; over the wire in one batch, with packed or JSON-list float
    # replies; or over the wire pass by pass to a server that refuses the
    # batch op.
    wire = data.draw(
        st.sampled_from([None, {}, {"lists": True}, {"refuse": ("teacher_forced_batch",)}])
    )
    scorer = lm if wire is None else LoopbackScorer(lm, **wire)
    fast = exact_extract(passage, source, prefix, scorer, cfg)
    slow = naive_exact(passage, source, prefix, lm, cfg)
    assert (fast.start, fast.length, fast.span_logprob.hex()) == (
        slow.start,
        slow.length,
        slow.span_logprob.hex(),
    )
    assert fast.passes_used == n
    if wire is not None:
        assert len(scorer.sent) == (n + 1 if "refuse" in wire else 1)


@SETTINGS
@given(table_models(), st.data())
def test_table_lm_forced_scores_match_per_step_lookup(model, data):
    vocab, lm, source, prefix, passage = model
    n = len(passage)
    i = data.draw(st.integers(0, n - 1))
    target = passage.ids[i : data.draw(st.integers(i, n))]
    if data.draw(st.booleans()):
        target += (vocab.byte_id(data.draw(st.integers(0, 255))),)
    scores = lm.teacher_forced_pass(ScoreRequest(source, vocab.seq(target), prefix))

    gold, term = [], []
    for k in range(len(target) + 1):
        dist = lm._full_distribution(source, prefix.ids + target[:k])
        term.append(logsumexp(dist[t] for t in lm.terminator_ids))
        if k < len(target):
            gold.append(dist[target[k]] if target[k] < vocab.size else NEG_INF)
    assert [g.hex() for g in scores.gold_logprob] == [g.hex() for g in gold]
    assert [t.hex() for t in scores.term_logprob] == [t.hex() for t in term]
