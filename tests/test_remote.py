import io
import itertools
import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from spandecode.decoding import DecodeConfig, exact_extract, greedy_decode
from spandecode.harness import run_eval
from spandecode.mrqa import QAExample
from spandecode.prompting import get_template, render_encoder_input
from spandecode.remote import (
    RemoteScorer,
    StdioScorer,
    TransportError,
    _WireScorer,
    serve,
)
from spandecode.scorer import ScoreRequest, ScorerError, StepScores, TableLM
from spandecode.vocab import Vocabulary

from conftest import TOY_PIECES, LoopbackScorer, bare_vocab

# Span caps and empty-span settings under which wire and in-process
# exact-extract must agree.
CONFIGS = [
    DecodeConfig(max_span_len=cap, allow_empty_span=empty)
    for cap, empty in itertools.product([None, 1, 3], [False, True])
]


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
    """exact_extract over ``wire`` equals ``local``'s bit for bit, in n passes."""
    passage = vocab.seq((1, 2, 0, 1, 2, 3, 4, 1))
    source = vocab.seq((0, 1))
    prefix = vocab.seq(())
    for cfg in CONFIGS:
        got = exact_extract(passage, source, prefix, wire, cfg)
        want = exact_extract(passage, source, prefix, local, cfg)
        assert (got.start, got.length, got.span_logprob.hex()) == (
            want.start,
            want.length,
            want.span_logprob.hex(),
        ), cfg
        assert got.passes_used == len(passage)


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

    @pytest.mark.parametrize("op", ["teacher_forced", "next_dist", "teacher_forced_batch"])
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
            "teacher_forced_batch": lambda: scorer.teacher_forced_batch(empty, empty, [target]),
        }
        with pytest.raises(TransportError, match="model shard 3 is out of memory"):
            calls[op]()
        assert scorer.sent[0]["op"] == op

    def test_non_object_reply_raises(self):
        vocab = bare_vocab(4)
        scorer = RecordingScorer(vocab, [[1, 2]])
        with pytest.raises(TransportError):
            scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))


def drop_last_entry(payload, reply):
    return {**reply, "gold_logprob": reply["gold_logprob"][:-1], "term_logprob": reply["term_logprob"][:-1]}


def short_entry(payload, reply):
    gold = list(reply["gold_logprob"])
    gold[1] = gold[1][:-1]
    return {**reply, "gold_logprob": gold}


def nan_entry(payload, reply):
    gold = list(reply["gold_logprob"])
    gold[1] = [float("nan")] + gold[1][1:]
    return {**reply, "gold_logprob": gold}


def positive_entry(payload, reply):
    term = list(reply["term_logprob"])
    term[2] = [0.5] + term[2][1:]
    return {**reply, "term_logprob": term}


class TestBatch:
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

    def test_table_is_one_batch_request(self):
        vocab, lm = self.setup_model()

        def answer(payload):
            rows = lm.teacher_forced_batch(
                vocab.seq(payload["source_ids"]),
                vocab.seq(payload["prefix_ids"]),
                [vocab.seq(t) for t in payload["targets"]],
            )
            return {
                "id": payload["id"],
                "gold_logprob": [row.gold_logprob for row in rows],
                "term_logprob": [row.term_logprob for row in rows],
            }

        # One scripted reply: a second request would find none.
        wire = RecordingScorer(vocab, [answer])
        passage = vocab.seq((1, 2, 3, 0, 1))
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        result = exact_extract(passage, source, prefix, wire, DecodeConfig(max_span_len=3))
        (request,) = wire.sent
        assert request["op"] == "teacher_forced_batch"
        assert request["source_ids"] == [0, 1]
        assert request["prefix_ids"] == []
        assert request["targets"] == [list(passage.ids[i : i + 3]) for i in range(5)]
        assert "target_ids" not in request
        assert result.passes_used == 5 == wire.pass_count()

    def test_batch_entries_equal_single_passes(self):
        vocab, lm = self.setup_model()
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        targets = [vocab.seq(t) for t in [(), (1,), (1, 2), (2, 3, 0), (4, 4)]]
        got = LoopbackScorer(lm).teacher_forced_batch(source, prefix, targets)
        want = [lm.teacher_forced_pass(ScoreRequest(source, t, prefix)) for t in targets]
        assert got == want

    def test_unknown_op_falls_back_to_single_passes_once(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, refuse={"teacher_forced_batch"})
        passage = vocab.seq((1, 2, 3, 0))
        source, prefix = vocab.seq((0, 1)), vocab.seq(())
        want = exact_extract(passage, source, prefix, lm)
        for _ in range(2):
            got = exact_extract(passage, source, prefix, wire)
            assert (got.start, got.length, got.span_logprob.hex()) == (
                want.start,
                want.length,
                want.span_logprob.hex(),
            )
            assert got.passes_used == 4
        assert wire.ops() == ["teacher_forced_batch"] + ["teacher_forced"] * 8
        assert [p["target_ids"] for p in wire.sent[1:5]] == [[1, 2, 3, 0], [2, 3, 0], [3, 0], [0]]

    def test_other_errors_raise_and_keep_batching(self):
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
        assert wire.ops() == ["teacher_forced_batch"] * 2

    @pytest.mark.parametrize("edit", [drop_last_entry, short_entry, nan_entry, positive_entry])
    def test_invalid_entry_raises_scorer_error(self, edit):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=edit)
        passage, empty = vocab.seq((1, 2, 3, 0)), vocab.seq(())
        with pytest.raises(ScorerError):
            exact_extract(passage, empty, empty, wire)

    def test_missing_field_is_transport_error(self):
        vocab, lm = self.setup_model()
        wire = LoopbackScorer(lm, edit=lambda p, r: {"id": r["id"], "gold_logprob": r["gold_logprob"]})
        with pytest.raises(TransportError, match="malformed teacher_forced_batch"):
            wire.teacher_forced_batch(vocab.seq(()), vocab.seq(()), [vocab.seq((1,))])

    @pytest.mark.parametrize("edit", [drop_last_entry, nan_entry])
    def test_invalid_batch_reply_skips_the_example(self, edit):
        vocab = Vocabulary(TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"])
        template = get_template(2)
        dataset = [
            QAExample(id="q-ira", context="the IRA was active", question="who?", answers=("IRA",)),
            QAExample(id="q-album", context="The album released in 1971.", question="when?", answers=("1971",)),
        ]
        bad = dataset[1]
        bad_source = list(vocab.encode(render_encoder_input(template, bad.context, bad.question)).ids)

        def corrupt_album(payload, reply):
            if payload["op"] == "teacher_forced_batch" and payload["source_ids"] == bad_source:
                return edit(payload, reply)
            return reply

        wire = LoopbackScorer(TableLM.uniform(vocab), edit=corrupt_album)
        report = run_eval(dataset, wire, template, vocab)
        assert report.skipped_ids == ("q-album",)
        assert report.exact["overall"]["count"] == 1


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


class TestServe:
    def run(self, scorer, requests):
        in_stream = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        out_stream = io.StringIO()
        serve(scorer, in_stream, out_stream)
        return [json.loads(line) for line in out_stream.getvalue().splitlines()]

    def test_teacher_forced_reply_shape(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
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

    def test_next_dist_reply_shape(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
        replies = self.run(
            lm,
            [{"id": 1, "op": "next_dist", "source_ids": [], "prefix_ids": [0], "target_ids": []}],
        )
        assert len(replies[0]["logits_logprob"]) == 5

    def test_unknown_op_reports_error(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
        replies = self.run(
            lm,
            [{"id": 3, "op": "sample", "source_ids": [], "prefix_ids": [], "target_ids": []}],
        )
        assert replies[0]["id"] == 3
        assert "error" in replies[0]

    def test_blank_lines_skipped(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
        in_stream = io.StringIO("\n\n")
        out_stream = io.StringIO()
        serve(lm, in_stream, out_stream)
        assert out_stream.getvalue() == ""

    def test_teacher_forced_batch_reply_shape(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
        forwarding = ForwardingScorer(lm)
        replies = self.run(
            forwarding,
            [
                {
                    "id": 9,
                    "op": "teacher_forced_batch",
                    "source_ids": [0],
                    "prefix_ids": [1],
                    "targets": [[1, 2, 3], [], [2]],
                }
            ],
        )
        (reply,) = replies
        assert reply["id"] == 9
        assert [len(g) for g in reply["gold_logprob"]] == [3, 0, 1]
        assert [len(t) for t in reply["term_logprob"]] == [4, 1, 2]
        # Answered pass by pass through teacher_forced_pass.
        assert forwarding.forced_calls == 3
        assert lm.pass_count() == 3

    @pytest.mark.parametrize(
        "bad_line, error_id",
        [
            ('{"id": 4, "op": "next_dist", "source_ids": [', None),
            ("[1, 2, 3]", None),
            ('{"id": 5, "op": "next_dist", "prefix_ids": []}', 5),
            ('{"id": 6, "source_ids": [], "prefix_ids": []}', 6),
            ('{"op": "next_dist", "source_ids": [], "prefix_ids": []}', None),
            ('{"id": 7, "op": "teacher_forced", "source_ids": [999], "prefix_ids": [], "target_ids": []}', 7),
            ('{"id": 8, "op": "teacher_forced_batch", "source_ids": [], "prefix_ids": [], "targets": [[0, -1]]}', 8),
            ('{"id": 9, "op": "teacher_forced_batch", "source_ids": [], "prefix_ids": [], "targets": 3}', 9),
        ],
    )
    def test_bad_line_gets_an_error_and_serving_goes_on(self, bad_line, error_id):
        vocab = bare_vocab(5)
        good = {"id": 10, "op": "next_dist", "source_ids": [], "prefix_ids": [0], "target_ids": []}
        in_stream = io.StringIO(bad_line + "\n" + json.dumps(good) + "\n")
        out_stream = io.StringIO()
        serve(TableLM.uniform(vocab), in_stream, out_stream)
        error, answer = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert error["id"] == error_id
        assert isinstance(error["error"], str) and error["error"]
        assert answer["id"] == 10
        assert len(answer["logits_logprob"]) == 5

    def test_scorer_error_gets_an_error_and_serving_goes_on(self):
        vocab = bare_vocab(5)
        replies = self.run(
            NanTableLM.uniform(vocab),
            [
                {"id": 1, "op": "teacher_forced", "source_ids": [], "prefix_ids": [], "target_ids": [0]},
                {"id": 2, "op": "teacher_forced_batch", "source_ids": [], "prefix_ids": [], "targets": [[0]]},
                {"id": 3, "op": "next_dist", "source_ids": [], "prefix_ids": [], "target_ids": []},
            ],
        )
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert "NaN" in replies[0]["error"]
        assert "NaN" in replies[1]["error"]
        assert len(replies[2]["logits_logprob"]) == 5


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

    def test_process_that_exits_immediately(self):
        vocab = bare_vocab(4)
        scorer = StdioScorer(f"{sys.executable} -c pass", vocab)
        try:
            with pytest.raises(TransportError):
                scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))
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


class _TableHandler(BaseHTTPRequestHandler):
    lm = None

    def log_message(self, *args):
        pass

    def do_POST(self):
        if self.path != "/score":
            self.send_error(404)
            return
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        in_stream = io.StringIO(json.dumps(req) + "\n")
        out_stream = io.StringIO()
        serve(self.lm, in_stream, out_stream)
        body = out_stream.getvalue().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _GarbageHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        body = b"<html>definitely not json</html>"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def http_server():
    started = []

    def start(handler):
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in started:
        server.shutdown()
        server.server_close()


class TestRemoteScorer:
    def test_matches_local_table(self, tmp_path, http_server):
        vocab, _, table_path, local = reference_setup(tmp_path)
        _TableHandler.lm = TableLM.from_file(table_path, vocab)
        url = http_server(_TableHandler)
        remote = RemoteScorer(url, vocab)
        req = ScoreRequest(vocab.seq((0,)), vocab.seq((1, 2)), vocab.seq(()))
        assert remote.teacher_forced_pass(req) == local.teacher_forced_pass(req)

    def test_exact_extract_matches_in_process_bit_for_bit(self, tmp_path, http_server):
        vocab, _, table_path, local = reference_setup(tmp_path)
        _TableHandler.lm = TableLM.from_file(table_path, vocab)
        remote = RemoteScorer(http_server(_TableHandler), vocab)
        try:
            assert_wire_matches_in_process(remote, local, vocab)
        finally:
            remote.close()

    def test_trailing_slash_normalized(self, tmp_path, http_server):
        vocab, _, table_path, _ = reference_setup(tmp_path)
        _TableHandler.lm = TableLM.from_file(table_path, vocab)
        url = http_server(_TableHandler)
        remote = RemoteScorer(url + "/", vocab)
        assert remote.url.endswith("/score")
        remote.next_token_distribution(vocab.seq(()), vocab.seq(()))

    def test_non_json_body_raises(self, http_server):
        vocab = bare_vocab(4)
        url = http_server(_GarbageHandler)
        remote = RemoteScorer(url, vocab)
        with pytest.raises(TransportError):
            remote.next_token_distribution(vocab.seq(()), vocab.seq(()))

    def test_connection_refused_raises(self):
        vocab = bare_vocab(4)
        remote = RemoteScorer("http://127.0.0.1:1", vocab, timeout=2.0)
        with pytest.raises(TransportError):
            remote.next_token_distribution(vocab.seq(()), vocab.seq(()))
