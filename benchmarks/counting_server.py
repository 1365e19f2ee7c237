"""Stdio scoring server that counts what crosses the wire.

It serves a TableLM through ``spandecode.remote.serve``, exactly like
``python -m spandecode.remote``, but hands ``serve`` byte-counting streams
and a scorer wrapper that times each scoring call. For every request it
records the bytes received, the bytes of its ``source_ids`` field, the
bytes replied, the time spent inside the scorer, whether the reply was
an error and when the request was read, on the ``CLOCK_MONOTONIC`` clock
(``time.monotonic_ns``) that every process of the machine shares. The
records are written as JSON to ``--stats`` when stdin closes.

    python3 benchmarks/counting_server.py --vocab V --table T \\
        --terminator-ids 2 --stats stats.json
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
import time

from spandecode.remote import serve
from spandecode.scorer import TableLM
from spandecode.vocab import Vocabulary

SOURCE_FIELD = '"source_ids": ['
# The fields of one request's record.
BYTES_IN, SOURCE_BYTES, BYTES_OUT, BUSY_NS, ERROR, READ_NS = range(6)


class WireStats:
    def __init__(self):
        # One record per request, indexed by the field names above.
        self.requests: list[list[int]] = []

    def request(self, line: str) -> None:
        read_ns = time.monotonic_ns()
        # The protocol is ASCII JSON, so characters are bytes.
        start = line.find(SOURCE_FIELD)
        source = line.index("]", start) + 1 - start if start >= 0 else 0
        self.requests.append([len(line), source, 0, 0, 0, read_ns])

    def reply(self, text: str) -> None:
        record = self.requests[-1]
        record[BYTES_OUT] += len(text)
        if '"error"' in text:
            record[ERROR] = 1

    def busy(self, ns: int) -> None:
        self.requests[-1][BUSY_NS] += ns


class CountingReader:
    def __init__(self, stream, stats: WireStats):
        self._stream = stream
        self._stats = stats

    def __iter__(self):
        for line in self._stream:
            if line.strip():
                self._stats.request(line)
            yield line


class CountingWriter:
    def __init__(self, stream, stats: WireStats):
        self._stream = stream
        self._stats = stats

    def write(self, text: str) -> int:
        self._stats.reply(text)
        return self._stream.write(text)

    def flush(self) -> None:
        self._stream.flush()


class TimingScorer:
    """Forwards the two scoring calls ``serve`` makes and times them."""

    def __init__(self, scorer, stats: WireStats):
        self.vocab = scorer.vocab
        self._scorer = scorer
        self._stats = stats

    def teacher_forced_pass(self, req):
        t0 = time.perf_counter_ns()
        try:
            return self._scorer.teacher_forced_pass(req)
        finally:
            self._stats.busy(time.perf_counter_ns() - t0)

    def next_token_distribution(self, source, prefix):
        t0 = time.perf_counter_ns()
        try:
            return self._scorer.next_token_distribution(source, prefix)
        finally:
            self._stats.busy(time.perf_counter_ns() - t0)


def in_windows(records, windows) -> list[list[int]]:
    """The records read inside one of ``windows``, which are the traced
    examples' (start, end) times on ``time.monotonic_ns``, in order and
    disjoint. A request read inside an example's window was sent by it."""
    starts = [start for start, _ in windows]
    mine = []
    for record in records:
        k = bisect.bisect_right(starts, record[READ_NS]) - 1
        if k >= 0 and record[READ_NS] <= windows[k][1]:
            mine.append(record)
    return mine


def wire_metrics(records, windows, roundtrip_ms: float) -> dict[str, float]:
    """Per-layer remote numbers for the traced examples.

    ``records`` are the server's per-request records; ``windows`` are the
    traced examples' time windows (see ``in_windows``); ``roundtrip_ms`` is
    the client's total time in scoring passes inside them.
    """
    examples = max(len(windows), 1)
    mine = in_windows(records, windows)
    sent = sum(r[BYTES_IN] for r in mine)
    busy_ms = sum(r[BUSY_NS] for r in mine) / 1e6
    return {
        "remote.requests_per_example": len(mine) / examples,
        "remote.bytes_sent_per_example": sent / examples,
        "remote.bytes_recv_per_example": sum(r[BYTES_OUT] for r in mine) / examples,
        "remote.source_bytes_share": sum(r[SOURCE_BYTES] for r in mine) / sent if sent else 0.0,
        "remote.server_busy_ms_per_example": busy_ms / examples,
        "remote.wire_wait_ms_per_example": (roundtrip_ms - busy_ms) / examples if mine else 0.0,
        "remote.errors": sum(r[ERROR] for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", required=True)
    parser.add_argument("--table", required=True)
    parser.add_argument("--terminator-ids", required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args(argv)
    vocab = Vocabulary.from_file(args.vocab)
    term_ids = {int(t) for t in args.terminator_ids.split(",")}
    scorer = TableLM.from_file(args.table, vocab, terminator_ids=term_ids)
    stats = WireStats()
    try:
        serve(TimingScorer(scorer, stats), CountingReader(sys.stdin, stats), CountingWriter(sys.stdout, stats))
    finally:
        with open(args.stats, "w", encoding="utf-8") as f:
            json.dump(stats.requests, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
