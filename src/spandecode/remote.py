"""Wire protocol for scoring against an external model.

Requests and responses are single JSON objects, newline-delimited over a
child process's stdio or POSTed one at a time to an HTTP ``/score``
endpoint:

    request:  {"id": u64, "op": "teacher_forced" | "next_dist",
               "source_ids": [u32], "prefix_ids": [u32], "target_ids": [u32]}
    response: {"id": u64, "gold_logprob": [f64], "term_logprob": [f64]}
              or {"id": u64, "logits_logprob": [f64 of |V|]}

This module also provides a reference server (``python -m spandecode.remote``)
that exposes a TableLM over stdio, used to exercise the protocol end to end.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
import threading

import requests

from .scorer import ScoreRequest, Scorer, ScorerError, StepScores, TableLM
from .vocab import TokenSeq, Vocabulary


class TransportError(ScorerError):
    """The remote scorer is unreachable or replied with garbage."""


class _WireScorer(Scorer):
    """Shared request framing for the HTTP and stdio transports."""

    def __init__(self, vocab: Vocabulary, terminator_ids=None):
        super().__init__(vocab, terminator_ids)
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _take_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _roundtrip(self, payload: dict) -> dict:
        raise NotImplementedError

    def _call(self, op: str, source: TokenSeq, prefix: TokenSeq, target: TokenSeq | None) -> dict:
        req_id = self._take_id()
        payload = {
            "id": req_id,
            "op": op,
            "source_ids": list(source.ids),
            "prefix_ids": list(prefix.ids),
            "target_ids": list(target.ids) if target is not None else [],
        }
        reply = self._roundtrip(payload)
        if not isinstance(reply, dict) or reply.get("id") != req_id:
            raise TransportError(f"response id mismatch for request {req_id}")
        return reply

    def _score_forced(self, req: ScoreRequest) -> StepScores:
        reply = self._call("teacher_forced", req.source, req.forced_prefix, req.forced_target)
        try:
            gold = tuple(float(x) for x in reply["gold_logprob"])
            term = tuple(float(x) for x in reply["term_logprob"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed teacher_forced response: {exc}") from exc
        return StepScores(gold, term)

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        reply = self._call("next_dist", source, prefix, None)
        try:
            dist = [float(x) for x in reply["logits_logprob"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed next_dist response: {exc}") from exc
        return dist


class RemoteScorer(_WireScorer):
    """Scores via HTTP POST /score, one JSON object per request."""

    def __init__(self, url: str, vocab: Vocabulary, terminator_ids=None, timeout: float = 30.0):
        super().__init__(vocab, terminator_ids)
        self.url = url.rstrip("/") + "/score"
        self.timeout = timeout
        self._session = requests.Session()

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
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)

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


def serve(scorer: Scorer, in_stream, out_stream) -> None:
    """Answer ndjson protocol requests from ``in_stream`` until EOF."""
    vocab = scorer.vocab
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        source = vocab.seq(req["source_ids"])
        prefix = vocab.seq(req["prefix_ids"])
        if req["op"] == "teacher_forced":
            target = vocab.seq(req["target_ids"])
            scores = scorer.teacher_forced_pass(ScoreRequest(source, target, prefix))
            reply = {
                "id": req["id"],
                "gold_logprob": list(scores.gold_logprob),
                "term_logprob": list(scores.term_logprob),
            }
        elif req["op"] == "next_dist":
            dist = scorer.next_token_distribution(source, prefix)
            reply = {"id": req["id"], "logits_logprob": list(dist)}
        else:
            reply = {"id": req.get("id"), "error": f"unknown op {req['op']!r}"}
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
