"""Wire protocol for scoring against an external model.

Requests and responses are single JSON objects, newline-delimited over a
child process's stdio or POSTed one at a time to an HTTP ``/score``
endpoint. Each POST is its own connection, so an HTTP server need not
support keep-alive. One scoring pass per request:

    request:  {"id": u64, "op": "teacher_forced" | "next_dist",
               "source_ids": [u32], "prefix_ids": [u32], "target_ids": [u32],
               "terminator_ids": [u32] (teacher_forced)}
    response: {"id": u64, "gold_logprob": [f64], "term_logprob": [f64]}
              or {"id": u64, "logits_logprob": [f64 of |V|]}

Exact-extract, the n passes and the argmax over their table, is one
``extract`` request that carries the passage once. The server makes the n
passes itself, one per suffix ``passage[i:i + K]``, K being ``max_span_len``
or n when it is null. It forces each suffix after the source and prefix as
far as can change the answer, checks every row it forces, and replies with
the best span alone; the reply is the same as forcing every suffix to its
end. The reference server's ``TableLM`` stops a suffix where its contexts
leave the tables (``TableLM.best_span``):

    request:  {"id": u64, "op": "extract", "source_ids": [u32], "prefix_ids": [u32],
               "passage_ids": [u32] (at least one), "max_span_len": u32 >= 1 | null,
               "allow_empty_span": bool, "terminator_ids": [u32]}
    response: {"id": u64, "start": u32, "length": u32, "logprob": [f64 of 1]}

The span maximizes L(i, j) + e(i, j): the gold log-probs of its j tokens
summed in order from 0.0, plus the terminator log-prob after them. Ties go
to the earliest start, then the shortest span, and the empty span (0, 0)
is a candidate only with ``allow_empty_span``. The client checks that
``start`` and ``length`` are integers with 0 <= start < n and
1 <= length <= min(n - start, K), or length 0 at start 0 with the empty
span allowed, and that ``logprob`` holds one log-probability (-inf is
valid), then counts n passes. The trade: the client no longer sees the
rows, so it relies on the server's check of each of them, as it relies on
the server for every distribution of a greedy loop.

Greedy decoding's whole loop is one request. The server runs it through
its scorer's own ``greedy_steps``, taking each step's argmax of the
``next_dist`` distribution (the lowest id among tied maxima) and stopping
after a token in the client's ``terminator_ids`` or after ``max_steps``
steps. The reference server's ``TableLM`` reads each argmax it stored at
load instead of building the distribution (``TableLM.greedy_steps``):

    request:  {"id": u64, "op": "greedy", "source_ids": [u32], "prefix_ids": [u32],
               "terminator_ids": [u32], "max_steps": u32 >= 1}
    response: {"id": u64, "token_ids": [u32 of k], "logprob": [f64 of k]}

``logprob[s]`` is the log-probability of ``token_ids[s]``, the step's
maximum. The client counts k passes, one per step, after checking that
1 <= k <= max_steps, that every id is a piece id, that no terminator comes
before the last step and that the last step is one when k < max_steps, and
that every value is a log-probability.

An ``eval`` example's two decodes, after one source and prefix, are one
``extract_greedy`` request: ``extract``'s fields plus ``max_steps``. The
server answers it through the same scorer calls as ``extract`` and
``greedy``, the loop stopping on the request's ``terminator_ids``:

    request:  {"id": u64, "op": "extract_greedy", "source_ids": [u32], "prefix_ids": [u32],
               "passage_ids": [u32] (at least one), "max_span_len": u32 >= 1 | null,
               "allow_empty_span": bool, "terminator_ids": [u32], "max_steps": u32 >= 1}
    response: {"id": u64, "start": u32, "length": u32, "logprob": [f64 of 1],
               "token_ids": [u32 of k], "greedy_logprob": [f64 of k]}

The client checks the span as for ``extract`` and the steps as for
``greedy``, and counts n + k passes only when both checks pass.

``terminator_ids`` is optional on ``teacher_forced`` and ``extract``, and the
client always sends it: their terminator log-probs are the server's, so a
server whose scorer has another set refuses the request with a ``bad
request`` error naming both sets, as it does an ``extract_greedy`` request.

Every float list (each ``[f64]`` above) is a JSON list of numbers; a
``floats`` field sent by earlier clients is ignored.

A request that cannot be answered gets ``{"id": u64 | null, "error": str}``
(``null`` when the request's id could not be read), and the client raises
``TransportError`` with the server's text. A server that answers an op
with an error naming an unknown op does not speak it, and the client steps
down, once per scorer: from ``extract_greedy`` to an ``extract`` and a
``greedy`` request, each with its own step-down; from ``extract`` to one
``teacher_forced`` request per suffix and the argmax in the client; from
``greedy`` to one ``next_dist`` request per step. The reference server
answers every other op with that error, ``teacher_forced_batch`` and
``teacher_forced_suffixes`` of earlier versions among them.

This module also provides a reference server (``python -m spandecode.remote``)
that exposes a TableLM over stdio, used to exercise the protocol end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

from .scorer import (
    ScoreRequest,
    Scorer,
    ScorerError,
    StepScores,
    TableLM,
    _check_logprobs,
    positive_int,
    suffix_cap,
)
from .vocab import TokenSeq, Vocabulary

# What a server's error says when it does not know a requested op.
UNKNOWN_OP = "unknown op"
# The ops a scorer stops sending once the server refuses them as unknown,
# asking simpler ops for the same answer instead.
STEP_DOWN_OPS = frozenset({"extract", "greedy", "extract_greedy"})


def _floats(field) -> tuple[float, ...]:
    """A reply's float list, a JSON list of numbers; TypeError when it is
    not one, OverflowError for an integer past the binary64 range."""
    # Exact types: JSON's true and false are ints to Python.
    if type(field) is not list or not all(type(v) is float or type(v) is int for v in field):
        raise TypeError(f"not a list of numbers: {field!r:.40}")
    return tuple(map(float, field))


class TransportError(ScorerError):
    """The remote scorer is unreachable or replied with garbage or an error."""


class _WireScorer(Scorer):
    """Shared request framing for the HTTP and stdio transports."""

    def __init__(self, vocab: Vocabulary, terminator_ids=None):
        super().__init__(vocab, terminator_ids)
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._refused: set[str] = set()  # the ops of STEP_DOWN_OPS the server does not know

    def _take_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _roundtrip(self, payload: dict) -> dict:
        raise NotImplementedError

    def _call(self, op: str, source: TokenSeq, prefix: TokenSeq, **fields) -> dict | None:
        """The server's reply to ``op``; None, with the op remembered and
        not sent again, when the server refuses an op that steps down."""
        if op in self._refused:
            return None
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
            if op in STEP_DOWN_OPS and UNKNOWN_OP in str(reply["error"]):
                self._refused.add(op)
                return None
            raise TransportError(f"server error: {reply['error']}")
        if reply.get("id") != req_id:
            raise TransportError(f"response id mismatch for request {req_id}")
        return reply

    @staticmethod
    def _read(reply: dict, op: str, *keys, read=_floats) -> list:
        """``read`` applied to each field ``keys`` of a reply to ``op``; a
        missing or malformed field raises TransportError."""
        try:
            return [read(reply[key]) for key in keys]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TransportError(f"malformed {op} response: {exc}") from exc

    def best_span(
        self,
        source: TokenSeq,
        prefix: TokenSeq,
        passage: TokenSeq,
        max_span_len: int | None = None,
        allow_empty_span: bool = False,
    ) -> tuple[int, int, float]:
        """The best span in one ``extract`` request, still n counted passes;
        one ``teacher_forced`` request per suffix and the argmax in the
        client for a server that does not know the op."""
        cap = suffix_cap(passage, max_span_len)
        reply = self._extract_call("extract", source, prefix, passage, max_span_len, allow_empty_span)
        if reply is None:
            return super().best_span(source, prefix, passage, max_span_len, allow_empty_span)
        span = self._span(reply, "extract", len(passage), cap, allow_empty_span)
        self._count_pass(len(passage))
        return span

    def best_span_and_greedy_steps(
        self, source: TokenSeq, prefix: TokenSeq, passage: TokenSeq, max_span_len: int | None,
        allow_empty_span: bool, max_steps: int,
    ) -> tuple[tuple[int, int, float], list[tuple[int, float]]]:
        """Both in one ``extract_greedy`` request, n + k counted passes; for a
        server without it, ``best_span`` and ``greedy_steps``, each stepping down."""
        cap = suffix_cap(passage, max_span_len)
        positive_int(max_steps, "max_steps")
        reply = self._extract_call(
            "extract_greedy", source, prefix, passage, max_span_len, allow_empty_span, max_steps=max_steps
        )
        if reply is None:
            return super().best_span_and_greedy_steps(source, prefix, passage, max_span_len, allow_empty_span, max_steps)
        span = self._span(reply, "extract_greedy", len(passage), cap, allow_empty_span)
        steps = self._greedy_steps(reply, "extract_greedy", max_steps, self.terminator_ids)
        self._count_pass(len(passage) + len(steps))
        return span, steps

    def _extract_call(self, op, source, prefix, passage, max_span_len, allow_empty_span, **fields) -> dict | None:
        """The reply to ``op`` with extract's fields and ``fields``, or None."""
        for seq in (source, prefix, passage):
            self._check_vocab(seq)
        return self._call(
            op, source, prefix, passage_ids=list(passage.ids), max_span_len=max_span_len,
            allow_empty_span=bool(allow_empty_span), terminator_ids=sorted(self.terminator_ids), **fields)

    def _span(self, reply: dict, op: str, n: int, cap: int, allow_empty_span: bool) -> tuple[int, int, float]:
        """The span of an ``op`` reply, checked: integer start and length
        naming a candidate of the table, one log-probability."""
        start, length = self._read(reply, op, "start", "length", read=lambda v: v)
        (logprob,) = self._read(reply, op, "logprob")
        shortest = 0 if allow_empty_span and start == 0 else 1
        # Exact types: JSON's true and false are ints to Python.
        if not (
            type(start) is int
            and type(length) is int
            and 0 <= start < n
            and shortest <= length <= min(n - start, cap)
        ):
            raise ScorerError(
                f"{op} span ({start!r:.20}, {length!r:.20}) is not a candidate "
                f"in a passage of {n} tokens under a cap of {cap}"
            )
        if len(logprob) != 1:
            raise ScorerError(f"scorer returned {len(logprob)} log-probs for one span")
        _check_logprobs(logprob, "extract log-probs")
        return start, length, logprob[0]

    def greedy_steps(
        self, source: TokenSeq, prefix: TokenSeq, max_steps: int, terminator_ids=None
    ) -> list[tuple[int, float]]:
        """The whole greedy loop in one ``greedy`` request that carries the
        stop set, still one counted pass per step; one ``next_dist`` request
        per step for a server that does not know the op."""
        positive_int(max_steps, "max_steps")
        stops = self.terminator_ids if terminator_ids is None else terminator_ids
        self._check_vocab(source)
        self._check_vocab(prefix)
        reply = self._call("greedy", source, prefix, terminator_ids=sorted(stops), max_steps=max_steps)
        if reply is None:
            return super().greedy_steps(source, prefix, max_steps, stops)
        steps = self._greedy_steps(reply, "greedy", max_steps, stops)
        self._count_pass(len(steps))
        return steps

    def _greedy_steps(self, reply: dict, op: str, max_steps: int, stops) -> list[tuple[int, float]]:
        """The k steps of an ``op`` reply, checked: 1 <= k <= max_steps, one
        log-prob per step, piece ids, a terminator only at the end and there
        unless the loop ran out of steps, every value a log-probability."""
        def ids(field):
            # Exact types: JSON's true and false are ints to Python.
            if type(field) is not list or not all(type(t) is int for t in field):
                raise TypeError(f"not a list of token ids: {field!r:.40}")
            return field

        (tokens,) = self._read(reply, op, "token_ids", read=ids)
        (logprob,) = self._read(reply, op, "logprob" if op == "greedy" else "greedy_logprob")
        k = len(tokens)
        if not 1 <= k <= max_steps or len(logprob) != k:
            raise ScorerError(
                f"scorer returned {k} tokens and {len(logprob)} log-probs "
                f"for a greedy loop of 1 to {max_steps} steps"
            )
        if not all(0 <= t < self.vocab.size for t in tokens):
            raise ScorerError(f"greedy token ids {tokens!r:.60} leave the piece vocabulary")
        if any(t in stops for t in tokens[:-1]):
            raise ScorerError("greedy steps go on past a terminator")
        if k < max_steps and tokens[-1] not in stops:
            raise ScorerError(f"greedy steps stop after {k} of {max_steps} without a terminator")
        _check_logprobs(logprob, "greedy log-probs")
        return list(zip(tokens, logprob))

    def _score_forced(self, req: ScoreRequest) -> StepScores:
        reply = self._call(
            "teacher_forced", req.source, req.forced_prefix,
            target_ids=list(req.forced_target.ids), terminator_ids=sorted(self.terminator_ids),
        )
        return StepScores(*self._read(reply, "teacher_forced", "gold_logprob", "term_logprob"))

    def _next_dist(self, source: TokenSeq, prefix: TokenSeq):
        reply = self._call("next_dist", source, prefix, target_ids=[])
        (dist,) = self._read(reply, "next_dist", "logits_logprob")
        return list(dist)


class RemoteScorer(_WireScorer):
    """Scores via HTTP POST /score, one JSON object per request, each over
    its own connection."""

    def __init__(self, url: str, vocab: Vocabulary, terminator_ids=None, timeout: float = 30.0):
        super().__init__(vocab, terminator_ids)
        self.url = url.rstrip("/") + "/score"
        self.timeout = timeout

    def _roundtrip(self, payload: dict) -> dict:
        # Imported here, the one place HTTP is used, so that every other
        # command and the stdio server start without loading it.
        import http.client
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        body = json.dumps(payload).encode("ascii")
        try:
            request = Request(self.url, body, {"Content-Type": "application/json"})
            if request.type not in ("http", "https"):
                raise ValueError("not an http or https URL")
            with urlopen(request, timeout=self.timeout) as resp:
                return json.load(resp)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, HTTPError):
                exc.close()  # the error status's reply, still open
            raise TransportError(f"remote scorer at {self.url}: {exc}") from exc


class StdioScorer(_WireScorer):
    """Scores over the stdio of a child process speaking the ndjson protocol.

    A round trip, the request written and the whole reply line read, must
    end within ``timeout`` seconds; otherwise the child is killed and the
    call raises TransportError, as every later call then does at once."""

    def __init__(self, command: str, vocab: Vocabulary, terminator_ids=None, timeout: float = 30.0):
        # Imported here, the one client of them, so the stdio server starts without them.
        import select
        import shlex
        import subprocess

        super().__init__(vocab, terminator_ids)
        self.command = command
        self.timeout = timeout
        try:
            argv = shlex.split(command)
            if not argv:
                raise ValueError("no command given")
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except (OSError, ValueError) as exc:
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
        import subprocess

        proc = self._proc
        proc.stdin.close()
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


def _stop_ids(value, vocab: Vocabulary) -> frozenset:
    """A request's ``terminator_ids``: a list of piece ids, else ValueError."""
    if type(value) is not list or not all(type(t) is int and 0 <= t < vocab.size for t in value):
        raise ValueError(f"terminator_ids must be a list of piece ids, not {value!r:.40}")
    return frozenset(value)


def _span_reply(scorer: Scorer, req: dict, source: TokenSeq, prefix: TokenSeq) -> dict:
    """The span fields of the reply to an extract request."""
    allow = req["allow_empty_span"]
    if type(allow) is not bool:
        raise ValueError(f"allow_empty_span must be true or false, not {allow!r:.40}")
    passage = scorer.vocab.seq(req["passage_ids"])
    # The scorer's own best_span where it has one (a TableLM forces each
    # suffix only as far as can change the answer); Scorer's otherwise,
    # which needs only teacher_forced_pass.
    best_span = getattr(type(scorer), "best_span", Scorer.best_span)
    start, length, logprob = best_span(scorer, source, prefix, passage, req["max_span_len"], allow)
    return {"start": start, "length": length, "logprob": [logprob]}


def _steps_reply(scorer: Scorer, req: dict, source: TokenSeq, prefix: TokenSeq, logprob_field: str) -> dict:
    """The step fields of the reply to a greedy request, its log-probs under ``logprob_field``."""
    # The client's terminator set decides where the loop stops.
    stops = _stop_ids(req["terminator_ids"], scorer.vocab)
    # The scorer's own greedy_steps where it has one (a TableLM reads the
    # argmaxes it stored at load); Scorer's otherwise, which needs only
    # next_token_distribution.
    greedy_steps = getattr(type(scorer), "greedy_steps", Scorer.greedy_steps)
    steps = greedy_steps(scorer, source, prefix, req["max_steps"], stops)
    return {"token_ids": [token for token, _ in steps], logprob_field: [top for _, top in steps]}


def _answer(scorer: Scorer, req: dict) -> dict:
    vocab = scorer.vocab
    source = vocab.seq(req["source_ids"])
    prefix = vocab.seq(req["prefix_ids"])
    op = req["op"]
    # These replies hold terminator log-probs under the served scorer's set;
    # an older client sends none. getattr: a wrapper may expose only vocab.
    if op in ("teacher_forced", "extract", "extract_greedy") and "terminator_ids" in req:
        stops = _stop_ids(req["terminator_ids"], vocab)
        served = getattr(scorer, "terminator_ids", None)
        if served is not None and stops != frozenset(served):
            raise ValueError(f"terminator_ids {sorted(stops)} differ from the server's {sorted(served)}")
    if op == "teacher_forced":
        target = vocab.seq(req["target_ids"])
        scores = scorer.teacher_forced_pass(ScoreRequest(source, target, prefix))
        return {
            "id": req["id"],
            "gold_logprob": scores.gold_logprob,
            "term_logprob": scores.term_logprob,
        }
    if op == "extract":
        return {"id": req["id"], **_span_reply(scorer, req, source, prefix)}
    if op == "next_dist":
        dist = scorer.next_token_distribution(source, prefix)
        return {"id": req["id"], "logits_logprob": dist}
    if op == "greedy":
        return {"id": req["id"], **_steps_reply(scorer, req, source, prefix, "logprob")}
    if op == "extract_greedy":
        span = _span_reply(scorer, req, source, prefix)
        return {"id": req["id"], **span, **_steps_reply(scorer, req, source, prefix, "greedy_logprob")}
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


def _token_ids(text: str) -> set[int] | None:
    """The ids of a comma-separated list, for ``--terminator-ids``; an
    empty list means the vocabulary's terminator."""
    try:
        return {int(t) for t in text.split(",")} if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of token ids: {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spandecode.remote",
        description="Serve a TableLM over the stdio scoring protocol.",
    )
    parser.add_argument("--vocab", required=True, help="vocabulary JSON file")
    parser.add_argument("--table", required=True, help="TableLM JSON file")
    parser.add_argument(
        "--terminator-ids",
        type=_token_ids,
        default=None,
        help="comma-separated terminator token ids (default: the vocab terminator)",
    )
    args = parser.parse_args(argv)
    try:
        vocab = Vocabulary.from_file(args.vocab)
        scorer = TableLM.from_file(args.table, vocab, terminator_ids=args.terminator_ids)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"data error: {exc}\n")
    serve(scorer, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
