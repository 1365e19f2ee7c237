import io
import json
import random

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


class LoopbackScorer(_WireScorer):
    """A wire scorer whose requests ``remote.serve`` answers in memory over
    ``backend``, for the protocol without a process or a socket.

    Every request sent is kept in ``sent``. Ops in ``refuse`` get the reply
    of a server that does not know them; with ``lists``, the server ignores
    the request's ``floats`` field, as one that does not know it, and replies
    with JSON float lists; ``edit(payload, reply)``, when given, returns the
    reply to deliver instead of the served one."""

    def __init__(self, backend, refuse=(), edit=None, lists=False):
        super().__init__(backend.vocab, backend.terminator_ids)
        self.backend = backend
        self.refuse = set(refuse)
        self.edit = edit
        self.lists = lists
        self.sent = []

    def ops(self):
        return [payload["op"] for payload in self.sent]

    def _roundtrip(self, payload):
        self.sent.append(payload)
        if payload["op"] in self.refuse:
            return {"id": payload["id"], "error": f"unknown op {payload['op']!r}"}
        served = {k: v for k, v in payload.items() if k != "floats"} if self.lists else payload
        out = io.StringIO()
        serve(self.backend, io.StringIO(json.dumps(served) + "\n"), out)
        reply = json.loads(out.getvalue())
        return self.edit(payload, reply) if self.edit else reply
