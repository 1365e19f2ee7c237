import io
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from spandecode.decoding import exact_extract, greedy_decode
from spandecode.remote import (
    RemoteScorer,
    StdioScorer,
    TransportError,
    _WireScorer,
    serve,
)
from spandecode.scorer import ScoreRequest, ScorerError, TableLM

from conftest import bare_vocab


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

    def test_process_that_exits_immediately(self):
        vocab = bare_vocab(4)
        scorer = StdioScorer(f"{sys.executable} -c pass", vocab)
        with pytest.raises(TransportError):
            scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))

    def test_garbage_output_line(self):
        vocab = bare_vocab(4)
        scorer = StdioScorer(
            f"{sys.executable} -c \"print('not json'); import sys; sys.stdout.flush()\"",
            vocab,
        )
        with pytest.raises(TransportError):
            scorer.next_token_distribution(vocab.seq(()), vocab.seq(()))


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
