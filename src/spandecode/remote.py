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

import json
import shlex
import subprocess
import sys
import threading
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
            rows = [
                StepScores(tuple(map(float, g)), tuple(map(float, t)))
                for g, t in zip(gold, term)
            ]
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
            return StepScores(
                tuple(map(float, reply["gold_logprob"])),
                tuple(map(float, reply["term_logprob"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed teacher_forced response: {exc}") from exc

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        reply = self._call("next_dist", source, prefix, target_ids=[])
        try:
            return [float(x) for x in reply["logits_logprob"]]
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
    """Scores over the stdio of a child process speaking the ndjson protocol."""

    def __init__(self, command: str, vocab: Vocabulary, terminator_ids=None):
        super().__init__(vocab, terminator_ids)
        self.command = command
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise TransportError(f"cannot start scorer process {command!r}: {exc}") from exc
        self._io_lock = threading.Lock()

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
            try:
                self._proc.stdin.write(json.dumps(payload) + "\n")
                self._proc.stdin.flush()
                line = self._proc.stdout.readline()
            except (BrokenPipeError, OSError) as exc:
                raise TransportError(f"scorer process pipe broke: {exc}") from exc
        if not line:
            raise TransportError("scorer process closed its stdout")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise TransportError(f"undecodable response line: {line!r}") from exc


def _answer(scorer: Scorer, req: dict) -> dict:
    vocab = scorer.vocab
    source = vocab.seq(req["source_ids"])
    prefix = vocab.seq(req["prefix_ids"])
    op = req["op"]
    if op == "teacher_forced":
        target = vocab.seq(req["target_ids"])
        scores = scorer.teacher_forced_pass(ScoreRequest(source, target, prefix))
        return {
            "id": req["id"],
            "gold_logprob": scores.gold_logprob,
            "term_logprob": scores.term_logprob,
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
            "gold_logprob": [row.gold_logprob for row in rows],
            "term_logprob": [row.term_logprob for row in rows],
        }
    if op == "next_dist":
        return {"id": req["id"], "logits_logprob": scorer.next_token_distribution(source, prefix)}
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
