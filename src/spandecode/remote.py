"""Wire protocol for scoring against an external model.

Requests and responses are single JSON objects, newline-delimited over a
child process's stdio or POSTed one at a time to an HTTP ``/score``
endpoint. One scoring pass per request:

    request:  {"id": u64, "op": "teacher_forced" | "next_dist",
               "source_ids": [u32], "prefix_ids": [u32], "target_ids": [u32]}
    response: {"id": u64, "gold_logprob": [f64], "term_logprob": [f64]}
              or {"id": u64, "logits_logprob": [f64 of |V|]}

Exact-extract's n suffix passes share one source and prefix, so they are
sent as one batch, answered with one score list per target, in order:

    request:  {"id": u64, "op": "teacher_forced_batch",
               "source_ids": [u32], "prefix_ids": [u32], "targets": [[u32], ...]}
    response: {"id": u64, "gold_logprob": [[f64], ...], "term_logprob": [[f64], ...]}

A request may carry ``"floats": "b64-f64le"``. A server that knows the
field then sends every float list of its reply (each ``[f64]`` above, one
per target in a batch reply) as one base64 string of little-endian IEEE-754
binary64 values instead: exact, like the JSON text, and several times
cheaper to write and read. Servers may ignore the field and reply with
lists; the client always sends it and reads either form.

A request that cannot be answered gets ``{"id": u64 | null, "error": str}``
(``null`` when the request's id could not be read), and the client raises
``TransportError`` with the server's text. A server that answers
``teacher_forced_batch`` with an error naming an unknown op speaks only the
one-pass ops: the client then sends one ``teacher_forced`` request per
target, and no more batches to that server.

This module also provides a reference server (``python -m spandecode.remote``)
that exposes a TableLM over stdio, used to exercise the protocol end to end.
"""

from __future__ import annotations

import base64
import json
import os
import select
import shlex
import struct
import subprocess
import sys
import threading
import time
from collections.abc import Iterable

import requests

from .scorer import (
    ScoreRequest,
    Scorer,
    ScorerError,
    StepScores,
    TableLM,
    check_step_scores,
)
from .vocab import TokenSeq, Vocabulary

# What a server's error says when it does not know a requested op.
UNKNOWN_OP = "unknown op"
# The request's "floats" value asking for packed float lists.
PACKED_FLOATS = "b64-f64le"


def _pack(values) -> str:
    """A float list in the packed form: base64 of little-endian binary64."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _floats(field) -> tuple[float, ...]:
    """A reply's float list, sent as a JSON list or packed; ValueError or
    TypeError when it is neither."""
    if isinstance(field, str):
        raw = base64.b64decode(field, validate=True)
        if len(raw) % 8:
            raise ValueError(f"packed floats of {len(raw)} bytes, not a multiple of 8")
        return struct.unpack(f"<{len(raw) // 8}d", raw)
    return tuple(map(float, field))


class TransportError(ScorerError):
    """The remote scorer is unreachable or replied with garbage or an error."""


class _ServerError(TransportError):
    """The server replied with an error; the message holds its text."""


class _WireScorer(Scorer):
    """Shared request framing for the HTTP and stdio transports."""

    def __init__(self, vocab: Vocabulary, terminator_ids=None):
        super().__init__(vocab, terminator_ids)
        self._next_id = 0
        self._id_lock = threading.Lock()
        # False once the server has refused teacher_forced_batch as unknown.
        self._batches = True

    def _take_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _roundtrip(self, payload: dict) -> dict:
        raise NotImplementedError

    def _call(self, op: str, source: TokenSeq, prefix: TokenSeq, **fields) -> dict:
        req_id = self._take_id()
        payload = {
            "id": req_id,
            "op": op,
            "floats": PACKED_FLOATS,
            "source_ids": list(source.ids),
            "prefix_ids": list(prefix.ids),
            **fields,
        }
        reply = self._roundtrip(payload)
        if not isinstance(reply, dict):
            raise TransportError(f"response to request {req_id} is not a JSON object")
        if "error" in reply and reply.get("id") in (req_id, None):
            raise _ServerError(f"server error: {reply['error']}")
        if reply.get("id") != req_id:
            raise TransportError(f"response id mismatch for request {req_id}")
        return reply

    def teacher_forced_batch(
        self, source: TokenSeq, prefix: TokenSeq, targets: Iterable[TokenSeq]
    ) -> list[StepScores]:
        """All targets in one ``teacher_forced_batch`` request, still one
        counted pass per target; per-pass requests for a server that does not
        know the op."""
        targets = list(targets)
        if not self._batches:
            return super().teacher_forced_batch(source, prefix, targets)
        for seq in (source, prefix, *targets):
            self._check_vocab(seq)
        try:
            reply = self._call(
                "teacher_forced_batch", source, prefix, targets=[list(t.ids) for t in targets]
            )
        except _ServerError as exc:
            if UNKNOWN_OP not in str(exc):
                raise
            self._batches = False
            return super().teacher_forced_batch(source, prefix, targets)
        self._count_pass(len(targets))
        try:
            gold, term = reply["gold_logprob"], reply["term_logprob"]
            rows = [StepScores(_floats(g), _floats(t)) for g, t in zip(gold, term)]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed teacher_forced_batch response: {exc}") from exc
        if len(gold) != len(targets) or len(term) != len(targets):
            raise ScorerError(
                f"scorer returned {len(gold)}/{len(term)} score lists "
                f"for {len(targets)} targets"
            )
        return [check_step_scores(row, len(t)) for row, t in zip(rows, targets)]

    def _score_forced(self, req: ScoreRequest) -> StepScores:
        reply = self._call(
            "teacher_forced", req.source, req.forced_prefix,
            target_ids=list(req.forced_target.ids),
        )
        try:
            return StepScores(_floats(reply["gold_logprob"]), _floats(reply["term_logprob"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed teacher_forced response: {exc}") from exc

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        reply = self._call("next_dist", source, prefix, target_ids=[])
        try:
            return list(_floats(reply["logits_logprob"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed next_dist response: {exc}") from exc


class RemoteScorer(_WireScorer):
    """Scores via HTTP POST /score, one JSON object per request."""

    def __init__(self, url: str, vocab: Vocabulary, terminator_ids=None, timeout: float = 30.0):
        super().__init__(vocab, terminator_ids)
        self.url = url.rstrip("/") + "/score"
        self.timeout = timeout
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def _roundtrip(self, payload: dict) -> dict:
        try:
            resp = self._session.post(self.url, json=payload, timeout=self.timeout)
            resp.raise_for_status()
            return resp.json()
        except (requests.RequestException, ValueError) as exc:
            raise TransportError(f"remote scorer at {self.url}: {exc}") from exc


class StdioScorer(_WireScorer):
    """Scores over the stdio of a child process speaking the ndjson protocol.

    A round trip, the request written and the whole reply line read, must
    end within ``timeout`` seconds; otherwise the child is killed and the
    call raises TransportError, as every later call then does at once."""

    def __init__(self, command: str, vocab: Vocabulary, terminator_ids=None, timeout: float = 30.0):
        super().__init__(vocab, terminator_ids)
        self.command = command
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise TransportError(f"cannot start scorer process {command!r}: {exc}") from exc
        self._io_lock = threading.Lock()
        # Both pipes are used raw and waited on with poll, which bounds the
        # wait; the stdin end does not block, so a write stops at a full pipe.
        self._stdin_fd = self._proc.stdin.fileno()
        self._stdout_fd = self._proc.stdout.fileno()
        os.set_blocking(self._stdin_fd, False)
        self._writable = select.poll()
        self._writable.register(self._stdin_fd, select.POLLOUT)
        self._readable = select.poll()
        self._readable.register(self._stdout_fd, select.POLLIN)
        self._unread = bytearray()  # bytes read past the last reply line
        self._failure: str | None = None  # why the child was killed

    def close(self) -> None:
        """Close the child's stdin, wait for it to exit (kill it after 10 s)
        and close its stdout."""
        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass  # the child is gone and left buffered input unread
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def _roundtrip(self, payload: dict) -> dict:
        with self._io_lock:
            if self._failure:
                raise TransportError(self._failure)
            deadline = time.monotonic() + self.timeout
            try:
                self._write(json.dumps(payload).encode("ascii") + b"\n", deadline)
                line = self._read_line(deadline)
            except OSError as exc:
                raise TransportError(f"scorer process pipe broke: {exc}") from exc
        if not line:
            raise TransportError("scorer process closed its stdout")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise TransportError(f"undecodable response line: {line!r}") from exc

    def _wait(self, poll, deadline: float) -> None:
        """Return once ``poll`` finds its pipe ready; at ``deadline``, kill
        the child and raise TransportError, now and on every later call."""
        left = deadline - time.monotonic()
        if left <= 0 or not poll.poll(left * 1e3):
            self._proc.kill()
            self._proc.wait()
            self._failure = f"scorer process did not answer within {self.timeout:g} s and was killed"
            raise TransportError(self._failure)

    def _write(self, data: bytes, deadline: float) -> None:
        view = memoryview(data)
        while view:
            self._wait(self._writable, deadline)
            view = view[os.write(self._stdin_fd, view) :]

    def _read_line(self, deadline: float) -> bytes:
        """The child's next line, or what it wrote before closing its stdout."""
        buf = self._unread
        searched = 0
        while (end := buf.find(b"\n", searched)) < 0:
            searched = len(buf)
            self._wait(self._readable, deadline)
            chunk = os.read(self._stdout_fd, 1 << 16)
            if not chunk:
                end = len(buf) - 1
                break
            buf += chunk
        line = bytes(buf[: end + 1])
        del buf[: end + 1]
        return line


def _answer(scorer: Scorer, req: dict) -> dict:
    vocab = scorer.vocab
    source = vocab.seq(req["source_ids"])
    prefix = vocab.seq(req["prefix_ids"])
    op = req["op"]
    # Float lists go out packed when the request asks for it, else as lists.
    floats = _pack if req.get("floats") == PACKED_FLOATS else list
    if op == "teacher_forced":
        target = vocab.seq(req["target_ids"])
        scores = scorer.teacher_forced_pass(ScoreRequest(source, target, prefix))
        return {
            "id": req["id"],
            "gold_logprob": floats(scores.gold_logprob),
            "term_logprob": floats(scores.term_logprob),
        }
    if op == "teacher_forced_batch":
        # Answered pass by pass: a scorer handed to serve (a wrapper, say)
        # need not implement teacher_forced_batch.
        rows = [
            scorer.teacher_forced_pass(ScoreRequest(source, vocab.seq(t), prefix))
            for t in req["targets"]
        ]
        return {
            "id": req["id"],
            "gold_logprob": [floats(row.gold_logprob) for row in rows],
            "term_logprob": [floats(row.term_logprob) for row in rows],
        }
    if op == "next_dist":
        dist = scorer.next_token_distribution(source, prefix)
        return {"id": req["id"], "logits_logprob": floats(dist)}
    return {"id": req["id"], "error": f"{UNKNOWN_OP} {op!r}"}


def serve(scorer: Scorer, in_stream, out_stream) -> None:
    """Answer ndjson protocol requests from ``in_stream`` until EOF.

    A line that cannot be answered (undecodable JSON, a missing field, an
    out-of-range token id, a scorer fault) gets an error reply, and serving
    goes on with the next line."""
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        req_id = None
        try:
            req = json.loads(line)
            if isinstance(req, dict):
                req_id = req.get("id")
            reply = _answer(scorer, req)
        except json.JSONDecodeError as exc:
            reply = {"id": None, "error": f"invalid JSON: {exc}"}
        except KeyError as exc:
            reply = {"id": req_id, "error": f"missing field {exc}"}
        except ScorerError as exc:
            reply = {"id": req_id, "error": f"scorer error: {exc}"}
        except (ValueError, TypeError) as exc:
            reply = {"id": req_id, "error": f"bad request: {exc}"}
        out_stream.write(json.dumps(reply) + "\n")
        out_stream.flush()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="spandecode.remote",
        description="Serve a TableLM over the stdio scoring protocol.",
    )
    parser.add_argument("--vocab", required=True, help="vocabulary JSON file")
    parser.add_argument("--table", required=True, help="TableLM JSON file")
    parser.add_argument(
        "--terminator-ids",
        default=None,
        help="comma-separated terminator token ids (default: the vocab terminator)",
    )
    args = parser.parse_args(argv)
    vocab = Vocabulary.from_file(args.vocab)
    term_ids = None
    if args.terminator_ids:
        term_ids = {int(t) for t in args.terminator_ids.split(",")}
    scorer = TableLM.from_file(args.table, vocab, terminator_ids=term_ids)
    serve(scorer, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
