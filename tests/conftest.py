import io
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

# Filled by the acceptance suite; echoed after the run so the per-criterion
# checklist is visible even under output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

from spandecode.remote import _WireScorer, serve
from spandecode.scorer import TableLM
from spandecode.vocab import Vocabulary

TOY_PIECES = [
    "▁(19",
    "71",
    ")",
    "▁1971",
    "▁The",
    "▁album",
    "▁released",
    "▁in",
    "▁the",
    "▁IRA",
    "▁was",
    "▁active",
    ".",
    "<extra_id_0>",
    "<extra_id_1>",
    "</s>",
]


@pytest.fixture
def toy_vocab():
    """Small subword vocabulary reproducing the "(1971)" boundary artifact."""
    return Vocabulary(
        TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"]
    )


def bare_vocab(size: int) -> Vocabulary:
    """Synthetic vocabulary of `size` pieces; the last piece is the terminator."""
    pieces = [f"t{i}" for i in range(size - 1)] + ["</s>"]
    return Vocabulary(pieces, terminator="</s>", sentinels=[])


def random_distribution(rng: random.Random, size: int) -> dict[int, float]:
    weights = [rng.random() + 1e-3 for _ in range(size)]
    total = sum(weights)
    return {i: w / total for i, w in enumerate(weights)}


def random_table_lm(rng: random.Random, max_vocab: int = 16, max_len: int = 12):
    """A fuzzed TableLM plus a passage over it, for oracle-equivalence tests."""
    size = rng.randint(4, max_vocab)
    vocab = bare_vocab(size)
    n = rng.randint(1, max_len)
    passage = vocab.seq(rng.randrange(size - 1) for _ in range(n))
    lm = TableLM(vocab, default=random_distribution(rng, size))
    # Pin random span-reachable contexts to their own distributions so the
    # score surface is not a pure function of the next token.
    for _ in range(rng.randint(0, 2 * n)):
        i = rng.randrange(n)
        k = rng.randint(0, n - i)
        lm.set_context(passage.ids[i : i + k], random_distribution(rng, size))
    return vocab, lm, passage


class RecordingTableLM(TableLM):
    """A TableLM that keeps, in order, the length of each target it is
    asked to force. It records in ``teacher_forced_pass`` and leaves
    ``_score_forced`` alone, so ``best_span`` keeps TableLM's cut."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forced = []

    def teacher_forced_pass(self, req):
        self.forced.append(len(req.forced_target))
        return super().teacher_forced_pass(req)


class LoopbackScorer(_WireScorer):
    """A wire scorer whose requests ``remote.serve`` answers in memory over
    ``backend``, for the protocol without a process or a socket.

    Every request sent is kept in ``sent``. Ops in ``refuse`` get the reply
    of a server that does not know them; with ``old_client``, the server
    sees each request with the ``"floats": "b64-f64le"`` field that earlier
    clients sent, which it ignores; ``edit(payload, reply)``, when given,
    returns the reply to deliver instead of the served one."""

    def __init__(self, backend, refuse=(), edit=None, old_client=False):
        super().__init__(backend.vocab, backend.terminator_ids)
        self.backend = backend
        self.refuse = set(refuse)
        self.edit = edit
        self.old_client = old_client
        self.sent = []

    def ops(self):
        return [payload["op"] for payload in self.sent]

    def _roundtrip(self, payload):
        self.sent.append(payload)
        if payload["op"] in self.refuse:
            return {"id": payload["id"], "error": f"unknown op {payload['op']!r}"}
        served = {**payload, "floats": "b64-f64le"} if self.old_client else payload
        out = io.StringIO()
        serve(self.backend, io.StringIO(json.dumps(served) + "\n"), out)
        reply = json.loads(out.getvalue())
        return self.edit(payload, reply) if self.edit else reply


class TableHandler(BaseHTTPRequestHandler):
    """Answers POST /score with ``remote.serve`` over the class's ``lm``;
    any other path gets a 404. It writes the headers and the body in two
    sends and leaves Nagle's algorithm on, as ``http.server`` does."""

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


@pytest.fixture
def http_server():
    """``start(handler, server=HTTPServer)`` serves ``handler`` on a
    loopback port in a thread and returns the server's URL; every server
    started is shut down after the test."""
    started = []

    def start(handler, server=HTTPServer):
        httpd = server(("127.0.0.1", 0), handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        started.append(httpd)
        return f"http://127.0.0.1:{httpd.server_address[1]}"

    yield start
    for httpd in started:
        httpd.shutdown()
        httpd.server_close()
