import base64
import inspect
import io
import itertools
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from spandecode import remote
from spandecode.decoding import DecodeConfig, build_span_table, exact_and_greedy, exact_extract, greedy_decode
from spandecode.harness import evaluate_example, run_eval
from spandecode.mrqa import QAExample
from spandecode.prompting import get_template, render_encoder_input
from spandecode.remote import RemoteScorer, StdioScorer, TransportError, _floats, _WireScorer, serve
from spandecode.scorer import ScoreRequest, Scorer, ScorerError, StepScores, TableLM, best_span_of, suffix_scores
from spandecode.vocab import Vocabulary, VocabularyMismatchError

from conftest import TOY_PIECES, LoopbackScorer, RecordingTableLM, TableHandler, bare_vocab

# Span caps and empty-span settings under which wire and in-process
# exact-extract must agree.
CONFIGS = [
    DecodeConfig(max_span_len=cap, allow_empty_span=empty)
    for cap, empty in itertools.product([None, 1, 3, 8, 20], [False, True])
]
EXTRACT, GREEDY, EXTRACT_GREEDY = "extract", "greedy", "extract_greedy"


def write_fixture_files(tmp_path, vocab, table: dict):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(
        json.dumps(
            {
                "pieces": vocab.pieces,
                "terminator": vocab.terminator,
                "sentinels": vocab.sentinels,
            }
        ),
        encoding="utf-8",
    )
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table), encoding="utf-8")
    return vocab_path, table_path


def reference_setup(tmp_path):
    """A vocab + table on disk and the equivalent in-process TableLM."""
    vocab = bare_vocab(6)
    term = vocab.terminator_id
    table = {
        "default": {str(i): 0.1 for i in range(5)} | {str(term): 0.5},
        "*#": {"1": 0.8, "2": 0.1, str(term): 0.1},
        "*#1": {"2": 0.7, str(term): 0.3},
        "*#1,2": {str(term): 0.9, "0": 0.1},
    }
    vocab_path, table_path = write_fixture_files(tmp_path, vocab, table)
    local = TableLM.from_file(table_path, vocab)
    return vocab, vocab_path, table_path, local


def assert_wire_matches_in_process(wire, local, vocab):
    """exact_extract over ``wire`` equals ``local``'s bit for bit, in n passes,
    with every span asked for in one extract request."""
    passage = vocab.seq((1, 2, 0, 1, 2, 3, 4, 1))
    source = vocab.seq((0, 1))
    prefix = vocab.seq(())
    ops = []
    roundtrip = wire._roundtrip
    wire._roundtrip = lambda payload: ops.append(payload["op"]) or roundtrip(payload)
    for cfg in CONFIGS:
        got = exact_extract(passage, source, prefix, wire, cfg)
        want = exact_extract(passage, source, prefix, local, cfg)
        assert (got.start, got.length, got.span_logprob.hex()) == (
            want.start,
            want.length,
            want.span_logprob.hex(),
        ), cfg
        assert got.passes_used == len(passage)
    assert ops == [EXTRACT] * len(CONFIGS)


class RecordingScorer(_WireScorer):
    """Captures outgoing payloads and answers from a scripted reply queue."""

    def __init__(self, vocab, replies):
        super().__init__(vocab)
        self.sent = []
        self.replies = list(replies)

    def _roundtrip(self, payload):
        self.sent.append(payload)
        reply = self.replies.pop(0)
        if callable(reply):
            return reply(payload)
        return reply


def echo_scores(gold, term):
    def reply(payload):
        return {"id": payload["id"], "gold_logprob": gold, "term_logprob": term}

    return reply


class TestWireFraming:
    def test_request_fields_and_monotonic_ids(self):
        vocab = bare_vocab(5)
        scorer = RecordingScorer(
            vocab,
            [
                echo_scores([-1.0, -2.0], [-3.0, -3.0, -3.0]),
                lambda p: {"id": p["id"], "logits_logprob": [-1.0] * 5},
            ],
        )
        scorer.teacher_forced_pass(
            ScoreRequest(vocab.seq((0, 1)), vocab.seq((2, 3)), vocab.seq((1,)))
        )
        scorer.next_token_distribution(vocab.seq((0,)), vocab.seq(()))
        first, second = scorer.sent
        assert first["op"] == "teacher_forced"
        assert first["source_ids"] == [0, 1]
        assert first["target_ids"] == [2, 3]
        assert first["prefix_ids"] == [1]
        assert second["op"] == "next_dist"
        assert second["target_ids"] == []
        assert second["id"] == first["id"] + 1
        assert "floats" not in first and "floats" not in second

    def test_id_mismatch_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(
            vocab, [{"id": 999, "gold_logprob": [], "term_logprob": [-1.0]}]
        )
        with pytest.raises(TransportError):
            scorer.teacher_forced_pass(
                ScoreRequest(vocab.seq(()), vocab.seq(()), vocab.seq(()))
            )

    def test_wrong_gold_length_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(vocab, [echo_scores([-1.0], [-1.0, -1.0])])
        with pytest.raises(ScorerError):
            scorer.teacher_forced_pass(
                ScoreRequest(vocab.seq(()), vocab.seq((0, 1)), vocab.seq(()))
            )

    def test_missing_term_key_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(vocab, [lambda p: {"id": p["id"], "gold_logprob": []}])
        with pytest.raises(TransportError):
            scorer.teacher_forced_pass(
                ScoreRequest(vocab.seq(()), vocab.seq(()), vocab.seq(()))
            )

    def test_non_numeric_scores_raise(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(
            vocab,
            [lambda p: {"id": p["id"], "gold_logprob": ["bad"], "term_logprob": [0, 0]}],
        )
        with pytest.raises(TransportError):
            scorer.teacher_forced_pass(
                ScoreRequest(vocab.seq(()), vocab.seq((0,)), vocab.seq(()))
            )

    def test_wrong_distribution_size_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(
            vocab, [lambda p: {"id": p["id"], "logits_logprob": [-1.0] * 3}]
        )
        with pytest.raises(ScorerError):
            scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))

    @pytest.mark.parametrize("op", ["teacher_forced", "next_dist", EXTRACT])
    @pytest.mark.parametrize("reply_id", ["same", None])
    def test_server_error_is_raised_verbatim(self, op, reply_id):
        vocab = bare_vocab(4)

        def reply(payload):
            rid = payload["id"] if reply_id == "same" else None
            return {"id": rid, "error": "model shard 3 is out of memory"}

        scorer = RecordingScorer(vocab, [reply])
        empty, target = vocab.seq(()), vocab.seq((0, 1))
        calls = {
            "teacher_forced": lambda: scorer.teacher_forced_pass(ScoreRequest(empty, target, empty)),
            "next_dist": lambda: scorer.next_token_distribution(empty, empty),
            EXTRACT: lambda: scorer.best_span(empty, empty, target),
        }
        with pytest.raises(TransportError, match="model shard 3 is out of memory"):
            calls[op]()
        assert scorer.sent[0]["op"] == op

    def test_non_object_reply_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(vocab, [[1, 2]])
        with pytest.raises(TransportError):
            scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))


ALBUM_DATASET = [
    QAExample(id="q-ira", context="the IRA was active", question="who?", answers=("IRA",)),
    QAExample(id="q-album", context="The album released in 1971.", question="when?", answers=("1971",)),
]


def eval_with_album_reply_edited(edit, op, refuse=(), old_client=False):
    """``run_eval`` over a LoopbackScorer on two toy examples, each ``op``
    reply to the second ("q-album") changed by ``edit``; the report and
    the scorer."""
    vocab = Vocabulary(TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"])
    template = get_template(2)
    bad = ALBUM_DATASET[1]
    bad_source = list(vocab.encode(render_encoder_input(template, bad.context, bad.question)).ids)

    def corrupt_album(payload, reply):
        if payload["op"] == op and payload["source_ids"] == bad_source:
            return edit(payload, reply)
        return reply

    wire = LoopbackScorer(TableLM(vocab), refuse=refuse, edit=corrupt_album, old_client=old_client)
    return run_eval(ALBUM_DATASET, wire, template, vocab), wire


def both_clients(*edits):
    """Each edit with the request as earlier clients sent it, carrying
    ``"floats": "b64-f64le"``, under its own name, and as this client sends
    it, as ``<name>-lists``: the server ignores the field, so both get the
    same JSON-list replies."""
    return [pytest.param(e, True, id=e.__name__) for e in edits] + [
        pytest.param(e, False, id=f"{e.__name__}-lists") for e in edits
    ]


# Tamper helpers for teacher_forced replies.
def short_total(payload, reply):
    return {**reply, "gold_logprob": reply["gold_logprob"][:-1]}


def long_total(payload, reply):
    return {**reply, "term_logprob": reply["term_logprob"] + [-1.0]}


def nan_value(payload, reply):
    gold = reply["gold_logprob"]
    return {**reply, "gold_logprob": gold[:1] + [float("nan")] + gold[2:]}


def positive_value(payload, reply):
    term = reply["term_logprob"]
    return {**reply, "term_logprob": term[:2] + [0.5] + term[3:]}


class TestSuffixes:
    """The suffix table over the wire: one teacher_forced request per
    suffix, as build_span_table asks for it and as exact_extract does from
    a server that refuses ``extract``."""

    def setup_model(self):
        vocab = bare_vocab(6)
        term = vocab.terminator_id
        lm = TableLM(
            vocab,
            contexts={
                (): {1: 0.6, 2: 0.2, term: 0.2},
                (1,): {2: 0.5, term: 0.5},
                ((0, 1), (2,)): {3: 0.7, term: 0.3},
            },
        )
        return vocab, lm

    @pytest.mark.parametrize("new_client", [False, True])
    @pytest.mark.parametrize("cap", [None, 1, 2, 5, 6, 9])
    def test_rows_equal_in_process_rows(self, new_client, cap):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, old_client=not new_client)
        source, prefix, passage = vocab.seq((0, 1)), vocab.seq((2,)), vocab.seq((1, 2, 3, 0, 1))
        got = build_span_table(passage, source, prefix, wire, cap)
        assert got == build_span_table(passage, source, prefix, lm, cap)
        assert [len(row) for row in got.ell] == [min(5 - i, cap or 5) for i in range(5)]
        assert wire.pass_count() == 5 and wire.ops() == ["teacher_forced"] * 5
        assert [p["target_ids"] for p in wire.sent] == [list(passage.ids[i : i + (cap or 5)]) for i in range(5)]

    def test_other_errors_raise_and_keep_the_op(self):
        vocab, lm = self.setup_model()
        calls = []

        def overloaded_once(payload, reply):
            calls.append(payload["op"])
            if len(calls) == 1:
                return {"id": payload["id"], "error": "overloaded, retry later"}
            return reply

        wire = LoopbackScorer(lm, refuse={EXTRACT}, edit=overloaded_once)
        passage, empty = vocab.seq((1, 2)), vocab.seq(())
        with pytest.raises(TransportError, match="overloaded, retry later"):
            exact_extract(passage, empty, empty, wire)
        exact_extract(passage, empty, empty, wire)
        assert wire.ops() == [EXTRACT] + ["teacher_forced"] * 3

    @pytest.mark.parametrize(
        "edit, old_client", both_clients(short_total, long_total, nan_value, positive_value)
    )
    @pytest.mark.parametrize("cap", [None, 2])
    def test_invalid_reply_raises_scorer_error(self, edit, old_client, cap):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={EXTRACT}, edit=edit, old_client=old_client)
        passage, empty = vocab.seq((1, 2, 3, 0)), vocab.seq(())
        with pytest.raises(ScorerError) as caught:
            exact_extract(passage, empty, empty, wire, DecodeConfig(max_span_len=cap))
        # The check of the scores caught it, not the decoding of the reply.
        assert not isinstance(caught.value, TransportError)
        assert wire.ops() == [EXTRACT, "teacher_forced"]

    @pytest.mark.parametrize("field", ["gold_logprob", "term_logprob"])
    def test_missing_field_is_transport_error(self, field):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={EXTRACT}, edit=lambda p, r: {k: v for k, v in r.items() if k != field})
        with pytest.raises(TransportError, match="malformed teacher_forced"):
            wire.best_span(vocab.seq(()), vocab.seq(()), vocab.seq((1,)))

    @pytest.mark.parametrize("cap, passage", [(0, (1,)), (-1, (1,)), (None, ())])
    def test_bad_table_raises_before_any_request(self, cap, passage):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        for scorer in (wire, lm):
            with pytest.raises(ValueError):
                build_span_table(vocab.seq(passage), vocab.seq(()), vocab.seq(()), scorer, cap)
        assert wire.sent == [] and wire.pass_count() == lm.pass_count() == 0

    @pytest.mark.parametrize(
        "edit, old_client", both_clients(short_total, nan_value, positive_value)
    )
    def test_invalid_reply_skips_the_example(self, edit, old_client):
        report, wire = eval_with_album_reply_edited(edit, "teacher_forced", {EXTRACT_GREEDY, EXTRACT}, old_client)
        assert report.skipped_ids == ("q-album",)
        assert report.exact["overall"]["count"] == 1
        assert wire.ops().count(EXTRACT_GREEDY) == wire.ops().count(EXTRACT) == 1


def span_edit(change):
    """An extract reply tamper: ``change(start, length, logprob, payload)``
    returns the new fields."""

    def edit(payload, reply):
        start, length, logprob = change(reply["start"], reply["length"], reply["logprob"], payload)
        return {**reply, "start": start, "length": length, "logprob": logprob}

    edit.__name__ = change.__name__
    return edit


@span_edit
def start_negative(start, length, logprob, payload):
    return -1, 1, logprob


@span_edit
def start_past_end(start, length, logprob, payload):
    return len(payload["passage_ids"]), 1, logprob


@span_edit
def empty_span(start, length, logprob, payload):
    return 0, 0, logprob


@span_edit
def length_past_cap(start, length, logprob, payload):
    return 0, (payload["max_span_len"] or len(payload["passage_ids"])) + 1, logprob


@span_edit
def length_past_end(start, length, logprob, payload):
    return len(payload["passage_ids"]) - 1, 2, logprob


@span_edit
def start_true(start, length, logprob, payload):
    return True, 1, logprob


@span_edit
def length_float(start, length, logprob, payload):
    return start, float(length), logprob


@span_edit
def two_logprobs(start, length, logprob, payload):
    return start, length, logprob * 2


@span_edit
def no_logprob(start, length, logprob, payload):
    return start, length, []


@span_edit
def nan_span_logprob(start, length, logprob, payload):
    return start, length, [float("nan")]


@span_edit
def positive_span_logprob(start, length, logprob, payload):
    return start, length, [0.5]


SPAN_TAMPERS = (
    start_negative, start_past_end, empty_span, length_past_cap, length_past_end, start_true,
    length_float, two_logprobs, no_logprob, nan_span_logprob, positive_span_logprob,
)


def span_outcome(result):
    return (result.start, result.length, result.span_logprob.hex(), result.text, result.token_ids, result.passes_used)


class TestExtract:
    """The extract op: one request per exact decode, the span alone replied."""

    setup_model = TestSuffixes.setup_model

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("empty", [False, True])
    def test_span_is_one_extract_request(self, cap, empty):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        passage = vocab.seq((1, 2, 3, 0, 1))
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        cfg = DecodeConfig(max_span_len=cap, allow_empty_span=empty)
        result = exact_extract(passage, source, prefix, wire, cfg)
        (request,) = wire.sent
        assert request["op"] == EXTRACT
        assert request["source_ids"] == [0, 1]
        assert request["prefix_ids"] == []
        assert request["passage_ids"] == [1, 2, 3, 0, 1]
        assert request["max_span_len"] == cap
        assert request["allow_empty_span"] is empty
        assert request["terminator_ids"] == [vocab.terminator_id]
        assert "targets" not in request and "target_ids" not in request
        assert result.passes_used == 5 == wire.pass_count()
        assert span_outcome(result) == span_outcome(exact_extract(passage, source, prefix, lm, cfg))

    @pytest.mark.parametrize("new_client", [False, True])
    @pytest.mark.parametrize("cap", [None, 1, 2, 5, 6, 9])
    @pytest.mark.parametrize("empty", [False, True])
    def test_span_equals_in_process_span(self, new_client, cap, empty):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, old_client=not new_client)
        source, prefix, passage = vocab.seq((0, 1)), vocab.seq((2,)), vocab.seq((1, 2, 3, 0, 1))
        start, length, logprob = wire.best_span(source, prefix, passage, cap, empty)
        want = lm.best_span(source, prefix, passage, cap, empty)
        assert (start, length, logprob.hex()) == (want[0], want[1], want[2].hex())
        assert wire.pass_count() == 5 and wire.ops() == [EXTRACT]

    def test_unknown_op_steps_down_to_the_suffixes_op_once(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={EXTRACT})
        passage, source, prefix = vocab.seq((1, 2, 3, 0)), vocab.seq((0, 1)), vocab.seq(())
        want = exact_extract(passage, source, prefix, lm)
        for _ in range(2):
            assert span_outcome(exact_extract(passage, source, prefix, wire)) == span_outcome(want)
        # One refused extract request, then one teacher_forced request per
        # suffix for both decodes: the scorer does not ask again.
        assert wire.ops() == [EXTRACT] + ["teacher_forced"] * 8
        assert [p["target_ids"] for p in wire.sent[1:]] == [list(passage.ids[i:]) for i in range(4)] * 2
        assert all(p["terminator_ids"] == [vocab.terminator_id] for p in wire.sent)
        assert wire.pass_count() == 8

    @pytest.mark.parametrize("refuse", [(), (EXTRACT,)], ids=["extract", "teacher-forced"])
    def test_server_with_other_terminators_refuses_the_request(self, refuse):
        # The terminator log-probs of an extract or teacher_forced reply are
        # the server's: a client that stops on another set gets an error
        # naming both, not a span scored under the server's set.
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse=refuse)
        wire.terminator_ids = frozenset({3, 1})
        source, prefix, passage = vocab.seq((0, 1)), vocab.seq(()), vocab.seq((1, 2, 3))
        message = rf"bad request: terminator_ids \[1, 3\] differ from the server's \[{vocab.terminator_id}\]"
        with pytest.raises(TransportError, match=message):
            wire.best_span(source, prefix, passage)
        assert wire.ops() == [EXTRACT] + ["teacher_forced"] * len(refuse)
        assert wire.sent[-1]["terminator_ids"] == [1, 3]

    def test_other_errors_raise_and_keep_the_op(self):
        vocab, lm = self.setup_model()
        calls = []

        def overloaded_once(payload, reply):
            calls.append(payload["op"])
            if len(calls) == 1:
                return {"id": payload["id"], "error": "overloaded, retry later"}
            return reply

        wire = LoopbackScorer(lm, edit=overloaded_once)
        passage, empty = vocab.seq((1, 2)), vocab.seq(())
        with pytest.raises(TransportError, match="overloaded, retry later"):
            exact_extract(passage, empty, empty, wire)
        exact_extract(passage, empty, empty, wire)
        assert wire.ops() == [EXTRACT, EXTRACT]
        assert wire.pass_count() == 2

    @pytest.mark.parametrize("edit, old_client", both_clients(*SPAN_TAMPERS))
    @pytest.mark.parametrize("cap", [None, 2])
    def test_invalid_reply_raises_scorer_error(self, edit, old_client, cap):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=edit, old_client=old_client)
        passage, empty = vocab.seq((1, 2, 3, 0)), vocab.seq(())
        with pytest.raises(ScorerError) as caught:
            exact_extract(passage, empty, empty, wire, DecodeConfig(max_span_len=cap))
        # The check of the span caught it, not the decoding of the reply.
        assert not isinstance(caught.value, TransportError)
        assert wire.ops() == [EXTRACT] and wire.pass_count() == 0

    def test_the_empty_span_at_a_later_start_raises(self):
        # Allowed, the empty span is one candidate, (0, 0), not n.
        vocab, lm = self.setup_model()
        later = span_edit(lambda start, length, logprob, payload: (1, 0, logprob))
        wire = LoopbackScorer(lm, edit=later)
        with pytest.raises(ScorerError, match=r"\(1, 0\) is not a candidate"):
            wire.best_span(vocab.seq(()), vocab.seq(()), vocab.seq((1, 2, 3, 0)), None, True)
        assert wire.pass_count() == 0

    @pytest.mark.parametrize("field", ["start", "length", "logprob"])
    def test_missing_field_is_transport_error(self, field):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=lambda p, r: {k: v for k, v in r.items() if k != field})
        with pytest.raises(TransportError, match="malformed extract"):
            wire.best_span(vocab.seq(()), vocab.seq(()), vocab.seq((1,)))
        assert wire.pass_count() == 0

    @pytest.mark.parametrize("bad", ["not base64!", base64.b64encode(bytes(12)).decode("ascii"), [True], ["-0.5"], None])
    def test_malformed_logprob_is_transport_error(self, bad):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=lambda p, r: {**r, "logprob": bad})
        with pytest.raises(TransportError, match="malformed extract"):
            wire.best_span(vocab.seq(()), vocab.seq(()), vocab.seq((1,)))

    @pytest.mark.parametrize("cap, passage", [(0, (1,)), (-1, (1,)), (True, (1,)), (None, ())])
    def test_bad_span_search_raises_before_any_request(self, cap, passage):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        for scorer in (wire, lm):
            with pytest.raises(ValueError):
                scorer.best_span(vocab.seq(()), vocab.seq(()), vocab.seq(passage), cap)
        assert wire.sent == [] and wire.pass_count() == lm.pass_count() == 0

    @pytest.mark.parametrize("edit, old_client", both_clients(start_past_end, two_logprobs, nan_span_logprob))
    def test_invalid_reply_skips_the_example(self, edit, old_client):
        # The span of an extract_greedy reply, and of an extract reply from
        # a server that refuses extract_greedy, which is not asked again.
        for op, refuse in [(EXTRACT_GREEDY, ()), (EXTRACT, {EXTRACT_GREEDY})]:
            report, wire = eval_with_album_reply_edited(edit, op, refuse, old_client)
            assert report.skipped_ids == ("q-album",)
            assert report.exact["overall"]["count"] == 1
            assert wire.ops().count(op) == 2 and wire.ops().count(EXTRACT_GREEDY) == 2 - len(refuse)


def greedy_edit(change):
    """A greedy or extract_greedy reply tamper: ``change(tokens, logprob,
    payload)`` returns the new steps."""

    def edit(payload, reply):
        key = "logprob" if payload["op"] == GREEDY else "greedy_logprob"
        tokens, logprob = change(reply["token_ids"], reply[key], payload)
        return {**reply, "token_ids": tokens, key: logprob}

    edit.__name__ = change.__name__
    return edit


@greedy_edit
def id_out_of_range(tokens, logprob, payload):
    return [999] + tokens[1:], logprob


@greedy_edit
def id_negative(tokens, logprob, payload):
    return [-1] + tokens[1:], logprob


@greedy_edit
def id_true(tokens, logprob, payload):
    return [True] + tokens[1:], logprob


@greedy_edit
def early_terminator(tokens, logprob, payload):
    return [payload["terminator_ids"][0]] + tokens[1:], logprob


@greedy_edit
def too_many_steps(tokens, logprob, payload):
    k = payload["max_steps"] + 1
    return tokens[:1] * k, logprob[:1] * k


@greedy_edit
def stops_early(tokens, logprob, payload):
    return tokens[:-1], logprob[:-1]


@greedy_edit
def no_steps(tokens, logprob, payload):
    return [], []


@greedy_edit
def short_logprob(tokens, logprob, payload):
    return tokens, logprob[:-1]


@greedy_edit
def nan_logprob(tokens, logprob, payload):
    return tokens, [float("nan")] + logprob[1:]


@greedy_edit
def positive_logprob(tokens, logprob, payload):
    return tokens, [0.5] + logprob[1:]


GREEDY_TAMPERS = (
    id_out_of_range, id_negative, id_true, early_terminator, too_many_steps,
    stops_early, no_steps, short_logprob, nan_logprob, positive_logprob,
)


def greedy_outcome(result):
    return (result.text, result.token_ids, result.truncated, result.passes_used, result.span_logprob.hex())


class TestGreedy:
    """The greedy op: the whole loop in one request."""

    def setup_model(self):
        # Greedy from the empty prefix takes 1, then 2 (tied with the
        # terminator, the lower id wins), then 3, then the terminator.
        vocab = bare_vocab(6)
        term = vocab.terminator_id
        lm = TableLM(
            vocab,
            contexts={
                (): {1: 0.6, 2: 0.2, term: 0.2},
                (1,): {2: 0.5, term: 0.5},
                ((0, 1), (1, 2)): {3: 0.7, term: 0.3},
                (1, 2, 3): {term: 0.9, 0: 0.1},
            },
        )
        return vocab, lm

    def test_loop_is_one_greedy_request(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        cfg = DecodeConfig(max_greedy_steps=10)
        result = greedy_decode(source, prefix, wire, cfg)
        (request,) = wire.sent
        assert request["op"] == GREEDY
        assert request["source_ids"] == [0, 1]
        assert request["prefix_ids"] == []
        assert request["terminator_ids"] == [vocab.terminator_id]
        assert request["max_steps"] == 10
        assert "target_ids" not in request
        assert result.token_ids == (1, 2, 3) and not result.truncated
        assert result.passes_used == 4 == wire.pass_count()
        assert greedy_outcome(result) == greedy_outcome(greedy_decode(source, prefix, lm, cfg))

    @pytest.mark.parametrize("new_client", [False, True])
    @pytest.mark.parametrize("max_steps", [1, 2, 3, 4, 10])
    def test_steps_equal_in_process_steps(self, new_client, max_steps):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, old_client=not new_client)
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        got = wire.greedy_steps(source, prefix, max_steps)
        want = lm.greedy_steps(source, prefix, max_steps)
        assert [(t, v.hex()) for t, v in got] == [(t, v.hex()) for t, v in want]
        assert len(got) == min(max_steps, 4) == wire.pass_count()
        assert wire.ops() == [GREEDY]

    def test_client_terminators_decide_where_the_loop_stops(self):
        vocab, lm = self.setup_model()
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        for stops, tokens in [({2}, [1, 2]), ({0, 3}, [1, 2, 3]), (set(), [1, 2, 3, 5, 0, 0])]:
            wire = LoopbackScorer(lm)
            wire.terminator_ids = frozenset(stops)
            assert [t for t, _ in wire.greedy_steps(source, prefix, 6)] == tokens
            assert wire.sent[0]["terminator_ids"] == sorted(stops)
            # A stop set given to the call is forwarded in place of the
            # scorer's own, also to the next_dist loop of a refused op.
            for refuse in [(), (GREEDY,)]:
                wire = LoopbackScorer(lm, refuse=refuse)
                assert [t for t, _ in wire.greedy_steps(source, prefix, 6, frozenset(stops))] == tokens
                assert wire.sent[0]["terminator_ids"] == sorted(stops)
                assert wire.pass_count() == len(tokens)

    def test_unknown_op_steps_down_to_next_dist_once(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={GREEDY})
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        want = greedy_decode(source, prefix, lm)
        for _ in range(2):
            assert greedy_outcome(greedy_decode(source, prefix, wire)) == greedy_outcome(want)
        assert wire.ops() == [GREEDY] + ["next_dist"] * 8
        assert [p["prefix_ids"] for p in wire.sent[1:5]] == [[], [1], [1, 2], [1, 2, 3]]

    def test_other_errors_raise_and_keep_the_op(self):
        vocab, lm = self.setup_model()
        calls = []

        def overloaded_once(payload, reply):
            calls.append(payload["op"])
            if len(calls) == 1:
                return {"id": payload["id"], "error": "overloaded, retry later"}
            return reply

        wire = LoopbackScorer(lm, edit=overloaded_once)
        empty = vocab.seq(())
        with pytest.raises(TransportError, match="overloaded, retry later"):
            greedy_decode(empty, empty, wire)
        greedy_decode(empty, empty, wire)
        assert wire.ops() == [GREEDY, GREEDY]

    @pytest.mark.parametrize("edit, old_client", both_clients(*GREEDY_TAMPERS))
    def test_invalid_reply_raises(self, edit, old_client):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=edit, old_client=old_client)
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        with pytest.raises(ScorerError) as caught:
            greedy_decode(source, prefix, wire, DecodeConfig(max_greedy_steps=10))
        # Only a field that is not a list of ints fails in decoding the reply.
        assert isinstance(caught.value, TransportError) == (edit is id_true)
        assert wire.ops() == [GREEDY] and wire.pass_count() == 0

    @pytest.mark.parametrize("field", ["token_ids", "logprob"])
    def test_missing_field_is_transport_error(self, field):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=lambda p, r: {k: v for k, v in r.items() if k != field})
        with pytest.raises(TransportError, match="malformed greedy"):
            wire.greedy_steps(vocab.seq(()), vocab.seq(()), 3)

    @pytest.mark.parametrize("method", ["next_token_distribution", "greedy_steps"])
    @pytest.mark.parametrize("foreign", ["source", "prefix"])
    def test_a_sequence_from_another_vocabulary_raises_before_any_request(self, method, foreign):
        vocab, lm = self.setup_model()
        seqs = {"source": vocab.seq((0, 1)), "prefix": vocab.seq(())}
        seqs[foreign] = bare_vocab(7).seq((0, 1))
        args = (seqs["source"], seqs["prefix"]) + ((3,) if method == "greedy_steps" else ())
        wires = [LoopbackScorer(lm), LoopbackScorer(lm, refuse={GREEDY})]
        for scorer in (lm, *wires):
            with pytest.raises(VocabularyMismatchError, match="^request vocabulary does not match the scorer's$"):
                getattr(scorer, method)(*args)
            assert scorer.pass_count() == 0
        assert [wire.sent for wire in wires] == [[], []]

    @pytest.mark.parametrize("max_steps", [0, -1, True, 1.0, "3"])
    def test_bad_step_cap_raises_before_any_request(self, max_steps):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        for scorer in (wire, lm):
            with pytest.raises(ValueError, match="max_steps"):
                scorer.greedy_steps(vocab.seq(()), vocab.seq(()), max_steps)
        assert wire.sent == [] and wire.pass_count() == lm.pass_count() == 0

    @pytest.mark.parametrize("edit, old_client", both_clients(*GREEDY_TAMPERS))
    def test_invalid_reply_skips_the_example(self, edit, old_client):
        # The steps of an extract_greedy reply, and of a greedy reply from a
        # server that refuses extract_greedy, which is not asked again.
        for op, refuse in [(EXTRACT_GREEDY, ()), (GREEDY, {EXTRACT_GREEDY})]:
            report, wire = eval_with_album_reply_edited(edit, op, refuse, old_client)
            assert report.skipped_ids == ("q-album",)
            assert report.greedy["overall"]["count"] == 1
            assert wire.ops().count(op) == 2 and wire.ops().count(EXTRACT_GREEDY) == 2 - len(refuse)


def field_edit(field, value):
    """An extract_greedy reply tamper that sets ``field`` to ``value``, or
    drops it when ``value`` is ``...``."""

    def edit(payload, reply):
        reply = {k: v for k, v in reply.items() if k != field}
        return reply if value is ... else {**reply, field: value}

    edit.__name__ = f"{field}={value!r}"
    return edit


# A malformed value, or none, in each field of an extract_greedy reply.
FIELD_TAMPERS = tuple(
    field_edit(field, value)
    for field in ("start", "length", "logprob", "token_ids", "greedy_logprob")
    for value in (..., None, "1", [True], 1.5)
)


def both_outcomes(results):
    exact, greedy = results
    return span_outcome(exact), greedy_outcome(greedy)


class TestExtractGreedy:
    """The extract_greedy op: both decodes of an eval example in one request."""

    setup_model = TestGreedy.setup_model

    def decode(self, scorer, cap=None, empty=False, max_steps=10):
        vocab = scorer.vocab
        passage, source, prefix = vocab.seq((1, 2, 3, 0, 1)), vocab.seq((0, 1)), vocab.seq(())
        cfg = DecodeConfig(max_span_len=cap, allow_empty_span=empty, max_greedy_steps=max_steps)
        return exact_and_greedy(passage, source, prefix, scorer, cfg)

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("empty", [False, True])
    @pytest.mark.parametrize("max_steps", [1, 10])
    def test_example_is_one_request(self, cap, empty, max_steps):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        got = self.decode(wire, cap, empty, max_steps)
        assert wire.sent == [{
            "id": 1, "op": EXTRACT_GREEDY, "source_ids": [0, 1], "prefix_ids": [],
            "passage_ids": [1, 2, 3, 0, 1], "max_span_len": cap, "allow_empty_span": empty,
            "terminator_ids": [vocab.terminator_id], "max_steps": max_steps,
        }]
        assert both_outcomes(got) == both_outcomes(self.decode(lm, cap, empty, max_steps))
        # n passes for the span, one per greedy step.
        assert wire.pass_count() == 5 + min(max_steps, 4) == got[0].passes_used + got[1].passes_used

    def test_results_equal_the_two_decoders(self):
        vocab, lm = self.setup_model()
        passage, source, prefix = vocab.seq((1, 2, 3, 0, 1)), vocab.seq((0, 1)), vocab.seq(())
        exact = exact_extract(passage, source, prefix, lm)
        greedy = greedy_decode(source, prefix, lm, passage=passage)
        assert self.decode(lm, max_steps=DecodeConfig().max_greedy_steps) == (exact, greedy)

    @pytest.mark.parametrize(
        "refuse, first, later",
        [
            ((), [EXTRACT, GREEDY], [EXTRACT, GREEDY]),
            ((EXTRACT,), [EXTRACT] + ["teacher_forced"] * 5 + [GREEDY], ["teacher_forced"] * 5 + [GREEDY]),
            ((GREEDY,), [EXTRACT, GREEDY] + ["next_dist"] * 4, [EXTRACT] + ["next_dist"] * 4),
            (
                (EXTRACT, GREEDY),
                [EXTRACT] + ["teacher_forced"] * 5 + [GREEDY] + ["next_dist"] * 4,
                ["teacher_forced"] * 5 + ["next_dist"] * 4,
            ),
        ],
        ids=["extract+greedy", "teacher-forced+greedy", "extract+next-dist", "teacher-forced+next-dist"],
    )
    def test_unknown_op_steps_down_once_per_scorer(self, refuse, first, later):
        # Refused, extract_greedy is not asked again; best_span and
        # greedy_steps then step down on their own, each once.
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={EXTRACT_GREEDY, *refuse})
        want = both_outcomes(self.decode(lm))
        assert both_outcomes(self.decode(wire)) == want
        assert both_outcomes(self.decode(wire)) == want
        assert wire.ops() == [EXTRACT_GREEDY] + first + later
        assert wire.pass_count() == 2 * (5 + 4)

    @pytest.mark.parametrize(
        "refuse", [(), (EXTRACT,), (GREEDY,), (EXTRACT, GREEDY)], ids=["none", "extract", "greedy", "both"]
    )
    def test_a_server_that_knows_the_op_is_asked_nothing_else(self, refuse):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse=refuse)
        want = both_outcomes(self.decode(lm))
        assert both_outcomes(self.decode(wire)) == want == both_outcomes(self.decode(wire))
        assert wire.ops() == [EXTRACT_GREEDY] * 2 and wire.pass_count() == 2 * (5 + 4)

    def test_other_errors_raise_and_keep_the_op(self):
        vocab, lm = self.setup_model()

        def overloaded_once(payload, reply):
            if payload["id"] == 1:
                return {"id": 1, "error": "overloaded, retry later"}
            return reply

        wire = LoopbackScorer(lm, edit=overloaded_once)
        with pytest.raises(TransportError, match="overloaded, retry later"):
            self.decode(wire)
        self.decode(wire)
        assert wire.ops() == [EXTRACT_GREEDY, EXTRACT_GREEDY] and wire.pass_count() == 5 + 4

    def test_server_with_other_terminators_refuses_the_request(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        wire.terminator_ids = frozenset({3, 1})
        message = rf"bad request: terminator_ids \[1, 3\] differ from the server's \[{vocab.terminator_id}\]"
        with pytest.raises(TransportError, match=message):
            self.decode(wire)
        assert wire.ops() == [EXTRACT_GREEDY] and wire.pass_count() == 0

    @pytest.mark.parametrize("edit", [*SPAN_TAMPERS, *GREEDY_TAMPERS, *FIELD_TAMPERS], ids=lambda e: e.__name__)
    @pytest.mark.parametrize("cap", [None, 2])
    def test_malformed_reply_raises_and_counts_no_pass(self, edit, cap):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=edit)
        with pytest.raises(ScorerError):
            self.decode(wire, cap)
        assert wire.ops() == [EXTRACT_GREEDY] and wire.pass_count() == 0

    @pytest.mark.parametrize("edit", FIELD_TAMPERS, ids=lambda e: e.__name__)
    def test_malformed_reply_skips_the_example(self, edit):
        report, wire = eval_with_album_reply_edited(edit, EXTRACT_GREEDY)
        assert report.skipped_ids == ("q-album",)
        assert report.exact["overall"]["count"] == report.greedy["overall"]["count"] == 1
        assert wire.ops() == [EXTRACT_GREEDY] * 2
        # Only the other example's passes are counted.
        ira = evaluate_example(ALBUM_DATASET[0], wire.backend, get_template(2), wire.vocab)
        assert wire.pass_count() == ira["exact"].passes_used + ira["greedy"].passes_used

    @pytest.mark.parametrize("cap, passage, max_steps", [(0, (1,), 3), (None, (), 3), (None, (1,), 0), (2, (1,), True)])
    def test_bad_arguments_raise_before_any_request(self, cap, passage, max_steps):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm)
        empty = vocab.seq(())
        for scorer in (wire, lm):
            with pytest.raises(ValueError):
                scorer.best_span_and_greedy_steps(empty, empty, vocab.seq(passage), cap, False, max_steps)
        assert wire.sent == [] and wire.pass_count() == 0

    def test_docstring_names_exactly_the_fields_of_the_op(self):
        vocab, lm = self.setup_model()
        replies = []
        wire = LoopbackScorer(lm, edit=lambda payload, reply: replies.append(reply) or reply)
        self.decode(wire)
        assert wire.sent[0].keys() == documented_fields("request")[EXTRACT_GREEDY]
        assert replies[0].keys() == documented_fields("response")[EXTRACT_GREEDY]

    @pytest.mark.parametrize("cap", [None, 2])
    @pytest.mark.parametrize("empty", [False, True])
    def test_a_forwarding_scorer_answers_as_a_table_lm(self, cap, empty):
        # Only vocab, teacher_forced_pass and next_token_distribution: serve
        # answers the op through Scorer's best_span and greedy_steps.
        vocab, lm = self.setup_model()
        line = {
            "id": 5, "op": EXTRACT_GREEDY, "source_ids": [0, 1], "prefix_ids": [], "passage_ids": [1, 2, 3, 0, 1],
            "max_span_len": cap, "allow_empty_span": empty, "terminator_ids": [vocab.terminator_id], "max_steps": 10,
        }
        (want,) = TestServe().run(lm, [line])
        assert want.keys() == {"id", "start", "length", "logprob", "token_ids", "greedy_logprob"}
        forwarding = ForwardingScorer(lm)
        assert TestServe().run(forwarding, [line]) == [want]
        assert forwarding.forced_calls == 5


class TestRefusal:
    """The step-down rule: an unknown-op error to extract, greedy or
    extract_greedy is remembered by the scorer that got it, and is an error
    like any other to every other op."""

    setup_model = TestGreedy.setup_model

    def call(self, scorer, op, passage=None):
        """``scorer``'s method that sends ``op`` first, over ``passage``."""
        vocab = scorer.vocab
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        if passage is None:
            passage = vocab.seq((1, 2, 3, 0, 1))
        return {
            EXTRACT: lambda: scorer.best_span(source, prefix, passage),
            GREEDY: lambda: scorer.greedy_steps(source, prefix, 10),
            EXTRACT_GREEDY: lambda: scorer.best_span_and_greedy_steps(source, prefix, passage, None, False, 10),
        }[op]()

    @pytest.mark.parametrize("op", [EXTRACT, GREEDY, EXTRACT_GREEDY])
    def test_unknown_op_reply_with_a_null_id_steps_down(self, op):
        vocab, lm = self.setup_model()

        def null_id(payload, reply):
            return {"id": None, "error": f"unknown op {op!r}"} if payload["op"] == op else reply

        wire, refusing = LoopbackScorer(lm, edit=null_id), LoopbackScorer(lm, refuse={op})
        want = [self.call(lm, op) for _ in range(2)]
        assert [self.call(wire, op) for _ in range(2)] == [self.call(refusing, op) for _ in range(2)] == want
        assert wire.ops() == refusing.ops() and wire.ops().count(op) == 1
        assert wire.pass_count() == refusing.pass_count()

    @pytest.mark.parametrize("op, compound", [("teacher_forced", EXTRACT), ("next_dist", GREEDY)])
    @pytest.mark.parametrize("reply_id", ["same", None])
    def test_unknown_op_error_to_a_one_pass_op_raises_on_every_call(self, op, compound, reply_id):
        vocab, lm = self.setup_model()

        def unknown(payload, reply):
            if payload["op"] != op:
                return reply
            return {"id": payload["id"] if reply_id == "same" else None, "error": f"unknown op {op!r}"}

        wire = LoopbackScorer(lm, refuse={compound}, edit=unknown)
        message = rf"^server error: unknown op '{op}'$"
        for _ in range(3):
            with pytest.raises(TransportError, match=message):
                self.call(wire, compound)
        empty = vocab.seq(())
        with pytest.raises(TransportError, match=message):
            if op == "teacher_forced":
                wire.teacher_forced_pass(ScoreRequest(empty, vocab.seq((1,)), empty))
            else:
                wire.next_token_distribution(empty, empty)
        assert wire.ops() == [compound] + [op] * 4

    @pytest.mark.parametrize("op", [EXTRACT, GREEDY, EXTRACT_GREEDY])
    def test_a_refusal_is_remembered_by_the_scorer_that_got_it_alone(self, op):
        vocab, lm = self.setup_model()
        first, second = LoopbackScorer(lm, refuse={op}), LoopbackScorer(lm, refuse={op})
        for wire in (first, second, first, second):
            self.call(wire, op)
        assert first.ops() == second.ops() and second.ops().count(op) == 1

    @pytest.mark.parametrize(
        "refuse", [(), (EXTRACT,), (EXTRACT_GREEDY,), (EXTRACT_GREEDY, EXTRACT)],
        ids=["none", "extract", "extract-greedy", "both"],
    )
    @pytest.mark.parametrize("op", [EXTRACT, EXTRACT_GREEDY])
    def test_a_passage_from_another_vocabulary_reads_one_message_before_and_after_a_refusal(self, op, refuse):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse=refuse)
        other = bare_vocab(7).seq((1, 2))
        for _ in range(2):
            with pytest.raises(VocabularyMismatchError, match="^request vocabulary does not match the scorer's$"):
                self.call(wire, op, other)
            assert wire.sent == []
        # Once the server has refused its ops, the passage still reads the same.
        self.call(wire, op)
        sent = len(wire.sent)
        with pytest.raises(VocabularyMismatchError, match="^request vocabulary does not match the scorer's$"):
            self.call(wire, op, other)
        assert len(wire.sent) == sent


# Valid log-probs at the edges of binary64: -inf, -0.0, the smallest
# subnormals and the largest negative subnormal.
SPECIAL_FLOATS = (float("-inf"), -0.0, -5e-324, 5e-324, -2.225073858507201e-308, -1.0 / 3)


def bits(values):
    return [struct.pack("<d", v) for v in values]


class FixedScorer(Scorer):
    """Answers every pass with ``SPECIAL_FLOATS``, cycled to length."""

    def _score_forced(self, req):
        m = len(req.forced_target)
        cycle = itertools.cycle(SPECIAL_FLOATS)
        return StepScores(tuple(itertools.islice(cycle, m)), tuple(itertools.islice(cycle, m + 1)))

    def _next_dist(self, source, prefix):
        return list(itertools.islice(itertools.cycle(SPECIAL_FLOATS), self.vocab.size))


def assert_scores_cross_bit_for_bit(wire, local):
    """Every float of every op's reply over ``wire`` has the bits of
    ``local``'s, also for -inf, -0.0 and subnormals."""
    vocab = local.vocab
    source, prefix, target = vocab.seq((0,)), vocab.seq(()), vocab.seq((1, 2, 3, 4, 5))
    want = local.teacher_forced_pass(ScoreRequest(source, target, prefix))
    got = wire.teacher_forced_pass(ScoreRequest(source, target, prefix))
    assert bits(got.gold_logprob + got.term_logprob) == bits(want.gold_logprob + want.term_logprob)
    for cap in (None, 2):
        rows = build_span_table(target, source, prefix, wire, cap)
        wanted = build_span_table(target, source, prefix, local, cap)
        assert list(map(bits, rows.ell)) == list(map(bits, wanted.ell))
        assert list(map(bits, rows.eterm)) == list(map(bits, wanted.eterm))
    for cap, empty in itertools.product((None, 2), (False, True)):
        got_span = wire.best_span(source, prefix, target, cap, empty)
        want_span = local.best_span(source, prefix, target, cap, empty)
        assert got_span[:2] == want_span[:2] and bits(got_span[2:]) == bits(want_span[2:])
    got_dist = wire.next_token_distribution(source, prefix)
    assert bits(got_dist) == bits(local.next_token_distribution(source, prefix))
    got_steps, want_steps = wire.greedy_steps(source, prefix, 3), local.greedy_steps(source, prefix, 3)
    assert [t for t, _ in got_steps] == [t for t, _ in want_steps]
    assert bits([v for _, v in got_steps]) == bits([v for _, v in want_steps])


class TestFloatForms:
    @pytest.mark.parametrize("new_client", [False, True])
    def test_scores_cross_the_wire_bit_for_bit(self, new_client):
        local = FixedScorer(bare_vocab(9))
        assert_scores_cross_bit_for_bit(LoopbackScorer(local, old_client=not new_client), local)

    @pytest.mark.parametrize("transport", ["stdio", "http"])
    def test_scores_cross_stdio_and_http_bit_for_bit(self, transport, http_server):
        local = FixedScorer(bare_vocab(9))
        if transport == "stdio":
            child = (
                f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
                "from test_remote import FixedScorer, bare_vocab, serve; "
                "serve(FixedScorer(bare_vocab(9)), sys.stdin, sys.stdout)"
            )
            wire = StdioScorer(f"{shlex.quote(sys.executable)} -c {shlex.quote(child)}", local.vocab)
        else:
            TableHandler.lm = local
            wire = RemoteScorer(http_server(TableHandler), local.vocab)
        try:
            assert_scores_cross_bit_for_bit(wire, local)
        finally:
            wire.close()

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "teacher_forced", "target_ids": [1, 2]},
            {"op": GREEDY, "terminator_ids": [5], "max_steps": 3},
            {"op": "next_dist", "target_ids": []},
            {"op": EXTRACT, "passage_ids": [1, 2], "max_span_len": None, "allow_empty_span": False},
            {"op": EXTRACT, "passage_ids": [1, 2, 3], "max_span_len": 2, "allow_empty_span": True},
        ],
    )
    def test_server_replies_with_lists_to_every_request(self, request_):
        # Also to a request asking for the packed form, as earlier clients
        # did, or for an encoding no version knew.
        vocab = bare_vocab(6)
        base = {"id": 1, "source_ids": [0], "prefix_ids": [], **request_}
        lm = FixedScorer(vocab)
        replies = TestServe().run(lm, [base, {**base, "floats": "b64-f64le"}, {**base, "floats": "f16"}])
        assert replies[0] == replies[1] == replies[2]
        for field in replies[0].keys() - {"id", "token_ids", "start", "length"}:
            values = replies[0][field]
            assert type(values) is list and bits(_floats(values)) == bits(values)

    @pytest.mark.parametrize(
        "bad",
        [
            "not base64!",
            base64.b64encode(bytes(12)).decode("ascii"),
            "AAAAAAAAAAA",
            "é" * 8,
            base64.b64encode(struct.pack("<2d", -1.0, -1.0)).decode("ascii"),
        ],
    )
    @pytest.mark.parametrize("op", ["teacher_forced", "next_dist"])
    def test_malformed_packed_floats_raise_transport_error(self, bad, op):
        # A packed string is not a float list, well-formed base64 or not.
        with pytest.raises(TransportError, match=f"malformed {op} response"):
            call_with_reply(op, gold=bad, term=[-1.0, -1.0], dist=bad)

    @pytest.mark.parametrize(
        "bad",
        [
            # The first three read as valid log-probs if taken as floats;
            # float() of the last raises OverflowError.
            lambda m: [False] * m,
            lambda m: ["-0.5"] * m,
            lambda m: {str(-1 - k): 3 for k in range(m)},
            lambda m: [None] * m,
            lambda m: [[-1.0]] * m,
            lambda m: [-(10**400)] * m,
        ],
        ids=["false", "numeric-string", "dict", "null", "nested-list", "huge-int"],
    )
    @pytest.mark.parametrize("op", ["teacher_forced", "next_dist"])
    def test_non_numbers_raise_transport_error(self, bad, op):
        # One gold and two terminator log-probs, or four in a distribution.
        call_with_reply(op, gold=[-1], term=[-1.0, -1.0], dist=[-1.0] * 4)
        with pytest.raises(TransportError, match=f"malformed {op} response"):
            call_with_reply(op, gold=bad(1), term=[-1.0, -1.0], dist=bad(4))
        with pytest.raises(TransportError, match=f"malformed {op} response"):
            call_with_reply(op, gold=[-1.0], term=bad(2), dist=bad(4))


def call_with_reply(op, gold, term, dist=None):
    """Make a one-token ``op`` call on a wire scorer over a 4-piece vocabulary
    whose server replies with ``gold`` and ``term`` or the distribution
    ``dist``."""
    vocab = bare_vocab(4)
    fields = {
        "teacher_forced": {"gold_logprob": gold, "term_logprob": term},
        "next_dist": {"logits_logprob": dist},
    }
    scorer = RecordingScorer(vocab, [lambda p: {"id": p["id"], **fields[op]}])
    empty, target = vocab.seq(()), vocab.seq((0,))
    calls = {
        "teacher_forced": lambda: scorer.teacher_forced_pass(ScoreRequest(empty, target, empty)),
        "next_dist": lambda: scorer.next_token_distribution(empty, empty),
    }
    return calls[op]()


class ForwardingScorer:
    """Exposes only what ``serve`` may call of a scorer, counting the calls."""

    def __init__(self, scorer):
        self.vocab = scorer.vocab
        self._scorer = scorer
        self.forced_calls = 0

    def teacher_forced_pass(self, req):
        self.forced_calls += 1
        return self._scorer.teacher_forced_pass(req)

    def next_token_distribution(self, source, prefix):
        return self._scorer.next_token_distribution(source, prefix)


class NanTableLM(TableLM):
    def _score_forced(self, req):
        scores = super()._score_forced(req)
        return StepScores((float("nan"),) * len(scores.gold_logprob), scores.term_logprob)


def documented_fields(kind):
    """Per op, the fields of the protocol docstring's ``kind`` line,
    "request" or "response". A field noted with an op of its line, as
    ``"terminator_ids": [u32] (teacher_forced)``, is that op's alone."""
    documented = {}
    for block in re.findall(r"\n    request:(.*?)\n\n", remote.__doc__, re.DOTALL):
        request, response = block.split("response:")
        ops = re.findall(r'"(\w+)"', re.search(r'"op": ((?:"\w+"(?: \| )?)+)', request)[1])
        fields = re.findall(r'"(\w+)": ([^"]*)', request if kind == "request" else response)
        for op in ops:
            documented[op] = {
                name for name, note in fields if not set(re.findall(r"\((\w+)\)", note)) & (set(ops) - {op})
            }
    return documented


# A valid extract request: an uncapped span search over two tokens.
EXTRACT_LINE = {
    "id": 3, "op": EXTRACT, "source_ids": [0], "prefix_ids": [], "passage_ids": [0, 1], "max_span_len": None,
    "allow_empty_span": False,
}


# A valid greedy request: at most three steps, stopping at token 4.
GREEDY_LINE = {"id": 3, "op": GREEDY, "source_ids": [0], "prefix_ids": [], "terminator_ids": [4], "max_steps": 3}


class TestServe:
    def run(self, scorer, requests):
        in_stream = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        out_stream = io.StringIO()
        serve(scorer, in_stream, out_stream)
        return [json.loads(line) for line in out_stream.getvalue().splitlines()]

    def test_teacher_forced_reply_shape(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        replies = self.run(
            lm,
            [
                {
                    "id": 7,
                    "op": "teacher_forced",
                    "source_ids": [0],
                    "prefix_ids": [],
                    "target_ids": [1, 2, 3],
                }
            ],
        )
        (reply,) = replies
        assert reply["id"] == 7
        assert len(reply["gold_logprob"]) == 3
        assert len(reply["term_logprob"]) == 4

    @pytest.mark.parametrize("op", ["teacher_forced", EXTRACT])
    def test_client_terminators_are_checked_against_the_server(self, op):
        # A request without terminator_ids, as from an older client, and one
        # with the server's set get the same reply; another set, or a field
        # that is not a list of piece ids, gets an error naming it. A scorer
        # without the attribute answers whatever set is sent.
        vocab = bare_vocab(5)
        line = {**EXTRACT_LINE, "op": op, "target_ids": [0, 1]}
        lines = [{**line, "terminator_ids": stops} for stops in ([4], [0, 4], [5], None)]
        lm = TableLM(vocab)
        plain, same, other, out_of_range, null = self.run(lm, [line, *lines])
        assert same == plain and "error" not in plain
        assert other == {"id": 3, "error": "bad request: terminator_ids [0, 4] differ from the server's [4]"}
        for error in (out_of_range, null):
            assert error["error"].startswith("bad request: terminator_ids must be a list of piece ids")
        assert self.run(ForwardingScorer(lm), [lines[1]]) == [plain]

    def test_next_dist_reply_shape(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        replies = self.run(
            lm,
            [{"id": 1, "op": "next_dist", "source_ids": [], "prefix_ids": [0], "target_ids": []}],
        )
        assert len(replies[0]["logits_logprob"]) == 5

    def test_unknown_op_reports_error(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        replies = self.run(
            lm,
            [{"id": 3, "op": "sample", "source_ids": [], "prefix_ids": [], "target_ids": []}],
        )
        assert replies[0]["id"] == 3
        assert "error" in replies[0]

    def test_blank_lines_skipped(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        in_stream = io.StringIO("\n\n")
        out_stream = io.StringIO()
        serve(lm, in_stream, out_stream)
        assert out_stream.getvalue() == ""

    def test_docstring_names_exactly_the_ops_the_server_answers(self):
        # The ops of the protocol docstring's request lines ("op": ...)
        # against those `_answer` compares a request's op with; a line of
        # each documented op gets some other error than the unknown-op one.
        documented = {
            op
            for ops in re.findall(r'"op": ((?:"\w+"(?: \| )?)+)', remote.__doc__)
            for op in re.findall(r"\w+", ops)
        }
        answered = set(re.findall(r'\bop == "(\w+)"', inspect.getsource(remote._answer)))
        assert documented == answered
        lines = [{"id": i, "op": op, "source_ids": [], "prefix_ids": []} for i, op in enumerate(sorted(documented))]
        for reply in self.run(TableLM(bare_vocab(5)), lines):
            assert remote.UNKNOWN_OP not in reply.get("error", "")

    def test_docstring_names_every_request_field_the_server_reads(self):
        # Per op, the fields that `_answer` reads from a request (req["..."]
        # or req.get("..."), before its op branches, in the op's branch and
        # in the helpers that take the request) against the fields of the
        # protocol docstring's request line for the op.
        def fields(source):
            read = set(re.findall(r'\breq(?:\["|\.get\(")(\w+)"', source))
            for helper in re.findall(r"\b(_\w+)\(scorer, req\b", source):
                read |= fields(inspect.getsource(getattr(remote, helper)))
            return read

        prelude, *branches = re.split(r"\n    if op == ", inspect.getsource(remote._answer))
        read = {re.match(r'"(\w+)"', branch)[1]: fields(prelude) | fields(branch) for branch in branches}
        documented = {}
        for lines in re.findall(r"request:(.*?)response:", remote.__doc__, re.DOTALL):
            for op in re.findall(r'"(\w+)"', re.search(r'"op": ((?:"\w+"(?: \| )?)+)', lines)[1]):
                documented[op] = set(re.findall(r'"(\w+)":', lines))
        assert read.keys() == documented.keys()
        for op, names in read.items():
            assert names <= documented[op], op

    def test_docstring_names_every_reply_field_the_server_writes(self):
        # Per op, the keys of the server's reply to a valid request against
        # the fields of the protocol docstring's response line for the op.
        lines = [
            {"id": 1, "op": "teacher_forced", "source_ids": [0], "prefix_ids": [], "target_ids": [1, 2]},
            {"id": 2, "op": "next_dist", "source_ids": [0], "prefix_ids": [], "target_ids": []},
            EXTRACT_LINE,
            GREEDY_LINE,
            {**EXTRACT_LINE, **GREEDY_LINE, "op": EXTRACT_GREEDY},
        ]
        documented = documented_fields("response")
        assert {line["op"] for line in lines} == documented.keys()
        for line, reply in zip(lines, self.run(TableLM(bare_vocab(5)), lines)):
            assert "error" not in reply
            assert reply.keys() <= documented[line["op"]], line["op"]

    def test_client_sends_exactly_the_documented_request_fields(self):
        # Per op, the fields of what a wire scorer sends for one call
        # against the fields of the protocol docstring's request line.
        vocab = bare_vocab(5)
        wire = LoopbackScorer(TableLM(vocab))
        source, prefix, target = vocab.seq((0,)), vocab.seq(()), vocab.seq((1, 2))
        wire.teacher_forced_pass(ScoreRequest(source, target, prefix))
        wire.next_token_distribution(source, prefix)
        wire.best_span(source, prefix, target)
        wire.greedy_steps(source, prefix, 3)
        wire.best_span_and_greedy_steps(source, prefix, target, None, False, 3)
        documented = documented_fields("request")
        assert sorted(wire.ops()) == sorted(documented)
        for payload in wire.sent:
            assert payload.keys() == documented[payload["op"]], payload["op"]

    @pytest.mark.parametrize("op", ["teacher_forced_batch", "teacher_forced_suffixes"])
    def test_retired_op_is_an_unknown_op(self, op):
        # An op of earlier versions gets the unknown-op error that makes a
        # client step down, and serving goes on.
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        retired = {
            "id": 9, "op": op, "source_ids": [0], "prefix_ids": [1], "targets": [[1, 2], [3]],
            "passage_ids": [1, 2, 3], "max_span_len": None,
        }
        error, answer = self.run(lm, [retired, {**EXTRACT_LINE, "id": 10}])
        assert error == {"id": 9, "error": f"unknown op {op!r}"}
        assert answer["id"] == 10 and answer.keys() == {"id", "start", "length", "logprob"}
        assert lm.pass_count() == 2

    @pytest.mark.parametrize("cap", [None, 1, 2, 7])
    @pytest.mark.parametrize("empty", [False, True])
    def test_extract_reply_shape(self, cap, empty):
        vocab, lm = TestSuffixes().setup_model()
        forwarding = ForwardingScorer(lm)
        source, prefix, passage = vocab.seq((0, 1)), vocab.seq(()), vocab.seq((1, 2, 3))
        request = {
            "id": 9, "op": EXTRACT, "source_ids": [0, 1], "prefix_ids": [],
            "passage_ids": [1, 2, 3], "max_span_len": cap, "allow_empty_span": empty,
        }
        (reply,) = self.run(forwarding, [request])
        assert reply.keys() == {"id", "start", "length", "logprob"}
        assert reply["id"] == 9
        rows = suffix_scores(lm, source, prefix, passage, cap)
        start, length, logprob = best_span_of(rows, empty)
        assert (reply["start"], reply["length"]) == (start, length)
        assert bits(reply["logprob"]) == bits([logprob])
        # Answered pass by pass through teacher_forced_pass.
        assert forwarding.forced_calls == 3

    @pytest.mark.parametrize("cap, cut", [(None, [2, 1, 1, 2, 1]), (3, [2, 1, 1, 2, 1]), (1, [1] * 5)])
    def test_extract_cuts_suffixes_only_for_a_table_lm(self, cap, cut):
        # A TableLM server answers through TableLM.best_span, which forces
        # each suffix only as far as its contexts reach; a scorer with only
        # teacher_forced_pass through Scorer.best_span, which forces each to
        # its end. The replies are the same.
        vocab = bare_vocab(5)
        term = vocab.terminator_id
        lm = RecordingTableLM(vocab, contexts={(): {1: 0.5, 2: 0.25, term: 0.25}, (1,): {2: 0.75, term: 0.25}})
        request = {**EXTRACT_LINE, "passage_ids": [1, 2, 3, 1, 2], "max_span_len": cap}
        (cut_reply,) = self.run(lm, [request])
        assert lm.forced == cut
        lm.forced.clear()
        (full_reply,) = self.run(ForwardingScorer(lm), [request])
        assert lm.forced == [min(cap or 5, 5 - i) for i in range(5)]
        assert cut_reply == full_reply and "error" not in cut_reply

    @pytest.mark.parametrize(
        "bad",
        [
            {**EXTRACT_LINE, "allow_empty_span": 1},
            {**EXTRACT_LINE, "allow_empty_span": 0},
            {**EXTRACT_LINE, "allow_empty_span": "true"},
            {**EXTRACT_LINE, "allow_empty_span": None},
            {k: v for k, v in EXTRACT_LINE.items() if k != "allow_empty_span"},
            {**EXTRACT_LINE, "max_span_len": 0},
            {**EXTRACT_LINE, "max_span_len": -1},
            {**EXTRACT_LINE, "max_span_len": True},
            {**EXTRACT_LINE, "max_span_len": 1.0},
            {**EXTRACT_LINE, "max_span_len": "3"},
            {**EXTRACT_LINE, "max_span_len": [2]},
            {k: v for k, v in EXTRACT_LINE.items() if k != "max_span_len"},
            {**EXTRACT_LINE, "passage_ids": []},
            {k: v for k, v in EXTRACT_LINE.items() if k != "passage_ids"},
            {**EXTRACT_LINE, "passage_ids": [0, 999]},
            {**EXTRACT_LINE, "passage_ids": [0, -1]},
            {**EXTRACT_LINE, "passage_ids": [0, True]},
            {**EXTRACT_LINE, "passage_ids": [0, 1.0]},
            {**EXTRACT_LINE, "passage_ids": 3},
        ],
        ids=[
            "allow-1", "allow-0", "allow-string", "allow-null", "no-allow", "cap-0", "cap-negative",
            "cap-true", "cap-float", "cap-string", "cap-list", "no-cap", "empty-passage", "no-passage",
            "id-out-of-range", "id-negative", "id-true", "id-float", "passage-not-a-list",
        ],
    )
    def test_bad_extract_line_gets_an_error_and_serving_goes_on(self, bad):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        error, answer = self.run(lm, [bad, {**EXTRACT_LINE, "id": 4}])
        assert error["id"] == 3
        assert isinstance(error["error"], str) and error["error"]
        # Every piece has probability 0.2: the first one-token span wins.
        assert answer == {"id": 4, "start": 0, "length": 1, "logprob": [2 * math.log(0.2)]}
        assert lm.pass_count() == 2

    def test_every_op_is_answered_over_the_calls_a_forwarding_scorer_has(self):
        # ForwardingScorer has only vocab, teacher_forced_pass and
        # next_token_distribution, as a scorer wrapper that times them does;
        # any other attribute ``serve`` reached for would raise.
        vocab = bare_vocab(5)
        forwarding = ForwardingScorer(TableLM(vocab))
        lines = [
            {"id": 1, "op": "teacher_forced", "source_ids": [0], "prefix_ids": [], "target_ids": [1, 2]},
            {"id": 2, "op": "next_dist", "source_ids": [0], "prefix_ids": [], "target_ids": []},
            {**EXTRACT_LINE, "id": 3},
            {**GREEDY_LINE, "id": 4},
        ]
        replies = self.run(forwarding, lines)
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        assert not any("error" in r for r in replies)
        assert forwarding.forced_calls == 1 + 2

    @pytest.mark.parametrize("stops, tokens", [([5], [1, 2, 3]), ([2], [1, 2]), ([0, 1], [1]), ([], [1, 2, 3])])
    def test_greedy_reply_shape(self, stops, tokens, monkeypatch):
        vocab, lm = TestGreedy().setup_model()
        forwarding = ForwardingScorer(lm)
        request = {**GREEDY_LINE, "source_ids": [0, 1], "terminator_ids": stops}
        (reply,) = self.run(forwarding, [request])
        assert reply["id"] == 3
        assert reply["token_ids"] == tokens
        # Answered step by step through next_token_distribution alone, so the
        # request's terminators decide where the loop stops.
        assert lm.pass_count() == len(tokens) and forwarding.forced_calls == 0
        want = [max(lm.next_token_distribution(vocab.seq((0, 1)), vocab.seq(tokens[:k]))) for k in range(len(tokens))]
        assert bits(reply["logprob"]) == bits(want)
        # A TableLM answers through its own greedy_steps, from the argmaxes
        # stored at load, with no distribution; the request's terminators,
        # not the server's ({5}), still decide where the loop stops.
        before = lm.pass_count()
        with monkeypatch.context() as patch:
            patch.delattr(Scorer, "next_token_distribution")
            assert self.run(lm, [request]) == [reply]
        assert lm.pass_count() - before == len(tokens)

    @pytest.mark.parametrize("max_steps", [True, 0, 1.0])
    @pytest.mark.parametrize("wrap", [lambda lm: lm, ForwardingScorer], ids=["table-lm", "forwarding"])
    def test_greedy_step_cap_is_an_integer_above_zero(self, max_steps, wrap):
        lm = TableLM(bare_vocab(5))
        (error,) = self.run(wrap(lm), [{**GREEDY_LINE, "max_steps": max_steps}])
        assert error == {"id": 3, "error": f"bad request: max_steps must be an integer >= 1, not {max_steps!r}"}
        assert lm.pass_count() == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {**GREEDY_LINE, "max_steps": 0},
            {**GREEDY_LINE, "max_steps": -1},
            {**GREEDY_LINE, "max_steps": True},
            {**GREEDY_LINE, "max_steps": 1.0},
            {**GREEDY_LINE, "max_steps": "3"},
            {**GREEDY_LINE, "max_steps": None},
            {k: v for k, v in GREEDY_LINE.items() if k != "max_steps"},
            {**GREEDY_LINE, "terminator_ids": [5]},
            {**GREEDY_LINE, "terminator_ids": [4, -1]},
            {**GREEDY_LINE, "terminator_ids": [True]},
            {**GREEDY_LINE, "terminator_ids": [4.0]},
            {**GREEDY_LINE, "terminator_ids": 4},
            {**GREEDY_LINE, "terminator_ids": "4"},
            {k: v for k, v in GREEDY_LINE.items() if k != "terminator_ids"},
            {**GREEDY_LINE, "prefix_ids": [0, 999]},
        ],
        ids=[
            "steps-0", "steps-negative", "steps-true", "steps-float", "steps-string", "steps-null",
            "no-steps", "stop-out-of-range", "stop-negative", "stop-true", "stop-float",
            "stops-not-a-list", "stops-string", "no-stops", "prefix-out-of-range",
        ],
    )
    def test_bad_greedy_line_gets_an_error_and_serving_goes_on(self, bad):
        vocab = bare_vocab(5)
        good = {**GREEDY_LINE, "id": 4}
        error, answer = self.run(TableLM(vocab), [bad, good])
        assert error["id"] == 3
        assert isinstance(error["error"], str) and error["error"]
        # All five pieces tie, so every step takes id 0.
        assert answer == {"id": 4, "token_ids": [0, 0, 0], "logprob": [math.log(0.2)] * 3}

    @pytest.mark.parametrize(
        "bad_line, error_id",
        [
            ('{"id": 4, "op": "next_dist", "source_ids": [', None),
            ("[1, 2, 3]", None),
            ('{"id": 5, "op": "next_dist", "prefix_ids": []}', 5),
            ('{"id": 6, "source_ids": [], "prefix_ids": []}', 6),
            ('{"op": "next_dist", "source_ids": [], "prefix_ids": []}', None),
            ('{"id": 7, "op": "teacher_forced", "source_ids": [999], "prefix_ids": [], "target_ids": []}', 7),
            ('{"id": 8, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": [0, -1]}', 8),
            ('{"id": 9, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": 3}', 9),
            ('{"id": 11, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": [1.0]}', 11),
            ('{"id": 12, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": [true]}', 12),
        ],
    )
    def test_bad_line_gets_an_error_and_serving_goes_on(self, bad_line, error_id):
        vocab = bare_vocab(5)
        good = {"id": 10, "op": "next_dist", "source_ids": [], "prefix_ids": [0], "target_ids": []}
        in_stream = io.StringIO(bad_line + "\n" + json.dumps(good) + "\n")
        out_stream = io.StringIO()
        serve(TableLM(vocab), in_stream, out_stream)
        error, answer = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert error["id"] == error_id
        assert isinstance(error["error"], str) and error["error"]
        assert answer["id"] == 10
        assert len(answer["logits_logprob"]) == 5

    def test_scorer_error_gets_an_error_and_serving_goes_on(self):
        vocab = bare_vocab(5)
        replies = self.run(
            NanTableLM(vocab),
            [
                {"id": 1, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": [0]},
                {"id": 2, "op": "next_dist", "source_ids": [], "prefix_ids": [], "target_ids": []},
                {**EXTRACT_LINE, "id": 3, "source_ids": []},
            ],
        )
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert "NaN" in replies[0]["error"]
        assert len(replies[1]["logits_logprob"]) == 5
        # The server checks every row before it takes the argmax.
        assert "NaN" in replies[2]["error"]


class TestStdioScorer:
    def start(self, tmp_path):
        vocab, vocab_path, table_path, local = reference_setup(tmp_path)
        command = (
            f"{sys.executable} -m spandecode.remote"
            f" --vocab {vocab_path} --table {table_path}"
        )
        return vocab, local, StdioScorer(command, vocab)

    def test_matches_local_table(self, tmp_path):
        vocab, local, remote = self.start(tmp_path)
        try:
            req = ScoreRequest(vocab.seq((0, 1)), vocab.seq((1, 2, 0)), vocab.seq(()))
            assert remote.teacher_forced_pass(req) == local.teacher_forced_pass(req)
            assert remote.next_token_distribution(
                vocab.seq(()), vocab.seq((1,))
            ) == pytest.approx(local.next_token_distribution(vocab.seq(()), vocab.seq((1,))))
        finally:
            remote.close()

    def test_decoders_agree_across_the_wire(self, tmp_path):
        vocab, local, remote = self.start(tmp_path)
        try:
            passage = vocab.seq((0, 1, 2, 3))
            empty = vocab.seq(())
            over_wire = exact_extract(passage, empty, empty, remote)
            in_process = exact_extract(passage, empty, empty, local)
            assert (over_wire.start, over_wire.length) == (in_process.start, in_process.length)
            assert over_wire.span_logprob == pytest.approx(in_process.span_logprob)
            assert greedy_decode(empty, empty, remote).text == greedy_decode(
                empty, empty, local
            ).text
        finally:
            remote.close()

    def test_pass_counting(self, tmp_path):
        vocab, _, remote = self.start(tmp_path)
        try:
            remote.teacher_forced_pass(
                ScoreRequest(vocab.seq(()), vocab.seq((0,)), vocab.seq(()))
            )
            remote.next_token_distribution(vocab.seq(()), vocab.seq(()))
            assert remote.pass_count() == 2
        finally:
            remote.close()

    def test_exact_extract_matches_in_process_bit_for_bit(self, tmp_path):
        vocab, local, remote = self.start(tmp_path)
        try:
            assert_wire_matches_in_process(remote, local, vocab)
        finally:
            remote.close()

    def test_server_process_survives_a_bad_line(self, tmp_path):
        _, vocab_path, table_path, _ = reference_setup(tmp_path)
        command = [sys.executable, "-m", "spandecode.remote", "--vocab", str(vocab_path), "--table", str(table_path)]
        good = {"id": 2, "op": "next_dist", "source_ids": [], "prefix_ids": [1], "target_ids": []}
        proc = subprocess.run(
            command,
            input="not json\n" + json.dumps(good) + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        error, answer = [json.loads(line) for line in proc.stdout.splitlines()]
        assert proc.returncode == 0
        assert error["id"] is None and "invalid JSON" in error["error"]
        assert answer["id"] == 2 and len(answer["logits_logprob"]) == 6

    @pytest.mark.parametrize(
        "table",
        ["[1, 2]", '{"*#": 5}', '{"*#": {"0": NaN, "1": 1.0}}', '{"*#-5,99999": {"0": 1}}', '{"*#0,,1": {"0": 1}}',
         '{"*#1_0": {"0": 1}}'],
        ids=["list", "dist-int", "prob-nan", "unreachable-key", "empty-key-item", "underscore-key-id"],
    )
    def test_server_rejects_a_malformed_table(self, tmp_path, table):
        _, vocab_path, table_path, _ = reference_setup(tmp_path)
        table_path.write_text(table, encoding="utf-8")
        command = [sys.executable, "-m", "spandecode.remote", "--vocab", str(vocab_path), "--table", str(table_path)]
        proc = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: {table_path}: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("ids", ["x", "1,,2", "1.0"])
    def test_server_rejects_terminator_ids_that_are_not_ids_as_a_usage_error(self, tmp_path, ids):
        _, vocab_path, table_path, _ = reference_setup(tmp_path)
        command = [sys.executable, "-m", "spandecode.remote", "--vocab", str(vocab_path), "--table", str(table_path),
                   "--terminator-ids", ids]
        proc = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert f"argument --terminator-ids: not a comma-separated list of token ids: {ids!r}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_process_that_exits_immediately(self):
        vocab = bare_vocab(4)
        scorer = StdioScorer(f"{sys.executable} -c pass", vocab)
        try:
            with pytest.raises(TransportError):
                scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))
        finally:
            scorer.close()

    @pytest.mark.parametrize(
        "child",
        [
            "import time; time.sleep(60)",
            # Half a reply line, then nothing.
            "import sys, time; sys.stdout.write('{\"id\": 1, \"logits'); sys.stdout.flush(); time.sleep(60)",
            # A whole reply, but too late.
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    time.sleep(2)\n"
            "    print(json.dumps({'id': json.loads(line)['id'], 'logits_logprob': [-2.0] * 4}), flush=True)",
        ],
        ids=["silent", "half-line", "late"],
    )
    def test_reply_timeout_kills_the_child(self, child):
        vocab = bare_vocab(4)
        empty = vocab.seq(())
        scorer = StdioScorer(shlex.join([sys.executable, "-c", child]), vocab, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not answer within 0.5 s"):
                scorer.next_token_distribution(empty, empty)
            assert time.monotonic() - start < 5
            assert scorer._proc.returncode is not None
            # Later calls fail at once, without reading a late reply.
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not answer within 0.5 s"):
                scorer.next_token_distribution(empty, empty)
            assert time.monotonic() - start < 0.5
        finally:
            scorer.close()

    def test_request_write_timeout_kills_the_child(self):
        # A child that reads nothing, and a request of about 300 kB, more
        # than a pipe holds: the write itself must give up.
        vocab = bare_vocab(4)
        empty, source = vocab.seq(()), vocab.seq([1] * 100_000)
        scorer = StdioScorer(shlex.join([sys.executable, "-c", "import time; time.sleep(60)"]), vocab, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="did not answer within 0.5 s"):
                scorer.next_token_distribution(source, empty)
            assert time.monotonic() - start < 5
            assert scorer._proc.returncode is not None
        finally:
            scorer.close()

    def test_garbage_output_line(self):
        vocab = bare_vocab(4)
        scorer = StdioScorer(
            f"{sys.executable} -c \"print('not json'); import sys; sys.stdout.flush()\"",
            vocab,
        )
        try:
            with pytest.raises(TransportError):
                scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))
        finally:
            scorer.close()


def _replying(raw: bytes):
    """A handler that reads each POST and writes ``raw`` as the whole response."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.wfile.write(raw)

    return Handler


def test_cli_and_stdio_server_start_without_the_http_library():
    # Only RemoteScorer's round trip needs the HTTP client; it imports it there.
    code = (
        "import sys, spandecode, spandecode.cli, spandecode.remote; "
        "print(sorted({'http.client', 'urllib.request'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_stdio_server_starts_without_the_child_process_modules():
    # Only StdioScorer starts and polls a child; it imports what it needs there.
    code = "import sys{}; print(sorted({{'subprocess', 'shlex', 'select'}} & set(sys.modules)))"
    bare = subprocess.run([sys.executable, "-c", code.format("")], capture_output=True, text=True, timeout=60, check=True)
    if bare.stdout != "[]\n":
        pytest.skip(f"the bare interpreter already loads {bare.stdout.strip()}")
    proc = subprocess.run(
        [sys.executable, "-c", code.format(", spandecode.remote")], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout == "[]\n"


def test_round_trip_needs_no_third_party_package():
    # python -S leaves site-packages off sys.path: only the standard
    # library and the package itself can be imported.
    code = """
import io, sys, threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from spandecode.remote import RemoteScorer, serve
from spandecode.scorer import TableLM
from spandecode.vocab import Vocabulary

vocab = Vocabulary(["a", "b", "</s>"], terminator="</s>", sentinels=[])
lm = TableLM(vocab)

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        out = io.StringIO()
        serve(lm, io.StringIO(self.rfile.read(int(self.headers["Content-Length"])).decode()), out)
        body = out.getvalue().encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = HTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, daemon=True).start()
remote = RemoteScorer(f"http://127.0.0.1:{server.server_address[1]}", vocab)
empty = vocab.seq(())
print(remote.next_token_distribution(empty, empty) == lm.next_token_distribution(empty, empty),
      any("site-packages" in path for path in sys.path))
server.shutdown()
server.server_close()
"""
    src = os.path.dirname(os.path.dirname(remote.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True False\n")


class TestRemoteScorer:
    def test_matches_local_table(self, tmp_path, http_server):
        vocab, _, table_path, local = reference_setup(tmp_path)
        TableHandler.lm = TableLM.from_file(table_path, vocab)
        url = http_server(TableHandler)
        remote = RemoteScorer(url, vocab)
        req = ScoreRequest(vocab.seq((0,)), vocab.seq((1, 2)), vocab.seq(()))
        assert remote.teacher_forced_pass(req) == local.teacher_forced_pass(req)

    def test_exact_extract_matches_in_process_bit_for_bit(self, tmp_path, http_server):
        vocab, _, table_path, local = reference_setup(tmp_path)
        TableHandler.lm = TableLM.from_file(table_path, vocab)
        remote = RemoteScorer(http_server(TableHandler), vocab)
        try:
            assert_wire_matches_in_process(remote, local, vocab)
        finally:
            remote.close()

    def test_trailing_slash_normalized(self, tmp_path, http_server):
        vocab, _, table_path, _ = reference_setup(tmp_path)
        TableHandler.lm = TableLM.from_file(table_path, vocab)
        url = http_server(TableHandler)
        remote = RemoteScorer(url + "/", vocab)
        assert remote.url.endswith("/score")
        remote.next_token_distribution(vocab.seq(()), vocab.seq(()))

    def test_non_json_body_raises(self, http_server):
        vocab = bare_vocab(4)
        body = b"<html>definitely not json</html>"
        url = http_server(_replying(b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)))
        remote = RemoteScorer(url, vocab)
        with pytest.raises(TransportError):
            remote.next_token_distribution(vocab.seq(()), vocab.seq(()))

    @pytest.mark.parametrize(
        "raw, says",
        [
            (b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n", "HTTP Error 404: Not Found"),
            (b"HTTP/1.0 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
             "HTTP Error 500: Internal Server Error"),
            # A POST is not sent again to where a 307 or 308 points.
            (b"HTTP/1.0 307 Temporary Redirect\r\nLocation: /elsewhere\r\n\r\n",
             "HTTP Error 307: Temporary Redirect"),
            (b"garbage\r\n", "garbage"),
            (b"", "Remote end closed connection without response"),
            (b'HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{"id"', "IncompleteRead(5 bytes read"),
        ],
        ids=["404", "500", "post-307", "bad-status-line", "no-reply", "incomplete-body"],
    )
    def test_failed_reply_raises(self, http_server, raw, says):
        vocab = bare_vocab(4)
        url = http_server(_replying(raw))
        empty = vocab.seq(())
        with pytest.raises(TransportError, match=f"^remote scorer at {re.escape(url)}/score: {re.escape(says)}"):
            RemoteScorer(url, vocab).next_token_distribution(empty, empty)

    def test_slow_reply_times_out(self, http_server):
        release = threading.Event()

        class Silent(BaseHTTPRequestHandler):
            def do_POST(self):
                release.wait(10)  # then close without a reply

        vocab = bare_vocab(4)
        remote = RemoteScorer(http_server(Silent), vocab, timeout=0.3)
        empty = vocab.seq(())
        start = time.monotonic()
        try:
            with pytest.raises(TransportError, match="timed out"):
                remote.next_token_distribution(empty, empty)
            assert time.monotonic() - start < 1.0
        finally:
            release.set()

    @pytest.mark.parametrize(
        "url, says",
        [
            ("ftp://127.0.0.1:1", "not an http or https URL"),
            # A file: URL would read the file <path>/score as every reply.
            ("file:///tmp", "not an http or https URL"),
            ("127.0.0.1:1", "not an http or https URL"),
            ("/score", "unknown url type: '/score/score'"),
            ("http://[::1", "Invalid IPv6 URL"),
        ],
    )
    def test_url_it_cannot_post_to_raises(self, url, says):
        vocab = bare_vocab(4)
        with pytest.raises(TransportError, match=f"^remote scorer at {re.escape(url)}/score: {re.escape(says)}$"):
            RemoteScorer(url, vocab, timeout=2.0).next_token_distribution(vocab.seq(()), vocab.seq(()))

    def test_keep_alive_server_with_nagle_on_does_not_stall(self, tmp_path, http_server):
        # An HTTP/1.1 handler keeps the connection open, and with Nagle's
        # algorithm on it holds back the body's send until the headers'
        # send is acknowledged: a client that reused the connection waited
        # out a delayed ACK, about 40 ms, on every request.
        vocab, _, table_path, _ = reference_setup(tmp_path)
        lm = TableLM.from_file(table_path, vocab)
        handler = type("KeepAlive", (TableHandler,), {"lm": lm, "protocol_version": "HTTP/1.1"})
        remote = RemoteScorer(http_server(handler, ThreadingHTTPServer), vocab)
        empty = vocab.seq(())
        try:
            remote.next_token_distribution(empty, empty)
            start = time.monotonic()
            for _ in range(20):
                assert remote.next_token_distribution(empty, empty) == lm.next_token_distribution(empty, empty)
            assert time.monotonic() - start < 0.4
        finally:
            remote.close()

    def test_connection_refused_raises(self):
        vocab = bare_vocab(4)
        remote = RemoteScorer("http://127.0.0.1:1", vocab, timeout=2.0)
        with pytest.raises(TransportError):
            remote.next_token_distribution(vocab.seq(()), vocab.seq(()))
