"""Span tracing from outside the program, and the per-layer numbers built on it.

Inside ``Tracer.installed()`` the public functions at each layer boundary
are replaced with timing wrappers, each name patched where its caller
looks it up; the originals are put back on exit. Every call then records
one span: its name, start, end, parent span, example id and one integer
counter (forced target length, cap, hit). Spans are kept in flat arrays
in memory and reduced when the run ends.

A span's self time is its duration minus the part of it that its
children cover, so the self times of one example's spans add up to the
duration of the example's root span.
"""

from __future__ import annotations

import statistics
import time
from array import array
from contextlib import contextmanager

from spandecode import cli, decoding, harness, metrics, mrqa, prompting
from spandecode.scorer import Scorer
from spandecode.vocab import Vocabulary

SCORE_FUNCTIONS = ("token_f1", "exact_match", "is_extractive", "exactness", "partition_example")


def _cap(args, kwargs, _result) -> int:
    cfg = kwargs.get("cfg", args[4] if len(args) > 4 else decoding.DecodeConfig())
    return cfg.max_span_len or 0


def _forced_tokens(args, kwargs, _result) -> int:
    req = kwargs.get("req", args[1] if len(args) > 1 else None)
    return len(req.forced_target)


def _hit(_args, _kwargs, result) -> int:
    return int(result is not None)


# (span name, objects whose attribute is looked up by the callers, attribute, counter)
PATCHES = [
    ("mrqa.load_dataset", (mrqa, cli), "load_dataset", None),
    ("vocab.from_file", (Vocabulary,), "from_file", None),
    ("vocab.encode", (Vocabulary,), "encode", None),
    ("vocab.decode", (Vocabulary,), "decode", None),
    ("cli.make_scorer", (cli,), "make_scorer", None),
    ("prompting.render", (prompting, harness, cli), "render_encoder_input", None),
    ("prompting.render", (prompting, harness, cli), "render_target_prefix_and_terminator", None),
    ("harness.evaluate_example", (harness,), "evaluate_example", None),
    ("decoding.exact_extract", (decoding, harness, cli), "exact_extract", _cap),
    ("decoding.build_span_table", (decoding,), "build_span_table", None),
    ("decoding.greedy_decode", (decoding, harness, cli), "greedy_decode", None),
    ("scorer.forced", (Scorer,), "teacher_forced_pass", _forced_tokens),
    ("scorer.next_dist", (Scorer,), "next_token_distribution", None),
    ("metrics.find_span", (metrics,), "find_span", _hit),
] + [("metrics.score", (metrics,), name, None) for name in SCORE_FUNCTIONS]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.example = array("i")
        self.attr = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.example_id = -1

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.example.append(self.example_id)
        self.attr.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self.code(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, counter=None):
        code = self.code(name)

        def traced(*args, **kwargs):
            index = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.attr[index] = counter(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every boundary name that exists, and restore the originals
        on exit; names a refactor removed are skipped."""
        saved = []
        wrapped: dict[int, object] = {}
        for name, owners, attr, counter in PATCHES:
            for owner in owners:
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                if id(raw) not in wrapped:
                    if isinstance(raw, classmethod):
                        wrapped[id(raw)] = classmethod(self.wrap(name, raw.__func__, counter))
                    else:
                        wrapped[id(raw)] = self.wrap(name, raw, counter)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped[id(raw)])
        try:
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], cursor), min(end[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append(hi - lo - covered)
    return out


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1, in hundredths) of ``values``; 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Profile:
    """Per-layer numbers from a tracer's spans over the examples traced."""

    def __init__(self, tracer: Tracer, root: str):
        t = tracer
        self.tracer = t
        self.selfs = self_times(t.start, t.end, t.parent)
        self.code = {name: i for i, name in enumerate(t.names)}
        self.examples = max(sum(1 for code in t.name if code == self.code.get(root, -1)), 1)
        self.in_examples = [i for i in range(len(t.start)) if t.example[i] >= 0]
        self.by_name: dict[int, list[int]] = {}
        for i in self.in_examples:
            self.by_name.setdefault(t.name[i], []).append(i)

    def spans(self, name: str, parent: str | None = None) -> list[int]:
        t = self.tracer
        out = self.by_name.get(self.code.get(name, -1), [])
        if parent is not None:
            pcode = self.code.get(parent, -1)
            out = [i for i in out if t.parent[i] >= 0 and t.name[t.parent[i]] == pcode]
        return out

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.spans(name, parent))

    def self_ms(self, name: str) -> float:
        return sum(self.selfs[i] for i in self.spans(name)) / 1e6

    def durations_us(self, name: str) -> list[float]:
        t = self.tracer
        return [(t.end[i] - t.start[i]) / 1e3 for i in self.spans(name)]

    def per_example(self, value: float) -> float:
        return value / self.examples

    def ancestor(self, i: int, name: str) -> int:
        code = self.code.get(name, -1)
        t = self.tracer
        while i >= 0 and t.name[i] != code:
            i = t.parent[i]
        return i

    def self_sum_ratio(self, walls_ns: list[int]) -> float:
        """Of each example's summed self times over its measured traced wall
        time, the ratio farthest from 1."""
        sums = [0] * len(walls_ns)
        for i in self.in_examples:
            sums[self.tracer.example[i]] += self.selfs[i]
        ratios = [s / wall for s, wall in zip(sums, walls_ns) if wall > 0]
        return max(ratios, key=lambda r: abs(r - 1.0), default=0.0)

    def layer_metrics(self, walls_ns: list[int]) -> dict[str, float]:
        """Every per-layer metric that the in-process spans determine."""
        t = self.tracer
        pe = self.per_example
        forced = self.spans("scorer.forced")
        tokens = sum(t.attr[i] for i in forced)
        useful = 0
        for i in forced:
            owner = self.ancestor(i, "decoding.exact_extract")
            cap = t.attr[owner] if owner >= 0 else 0
            useful += min(t.attr[i], cap) if cap else t.attr[i]
        finds = self.spans("metrics.find_span")
        find_ms = [us / 1e3 for us in self.durations_us("metrics.find_span")]
        return {
            "vocab.encode_calls_per_example": pe(self.count("vocab.encode")),
            "vocab.encode_self_ms_per_example": pe(self.self_ms("vocab.encode")),
            "vocab.decode_calls_per_example": pe(self.count("vocab.decode")),
            "vocab.decode_self_ms_per_example": pe(self.self_ms("vocab.decode")),
            "prompting.render_self_ms_per_example": pe(self.self_ms("prompting.render")),
            "scorer.forced_tokens_per_example": pe(tokens),
            "scorer.forced_self_ms_per_example": pe(self.self_ms("scorer.forced")),
            "scorer.us_per_forced_token": self.self_ms("scorer.forced") * 1e3 / tokens if tokens else 0.0,
            "scorer.next_dist_passes_per_example": pe(self.count("scorer.next_dist")),
            "scorer.next_dist_self_ms_per_example": pe(self.self_ms("scorer.next_dist")),
            "decoding.table_fill_self_ms_per_example": pe(self.self_ms("decoding.build_span_table")),
            "decoding.argmax_self_ms_per_example": pe(self.self_ms("decoding.exact_extract")),
            "decoding.forced_useful_ratio": useful / tokens if tokens else 0.0,
            "decoding.greedy_steps_per_example": pe(self.count("scorer.next_dist", "decoding.greedy_decode")),
            "decoding.greedy_self_ms_per_example": pe(self.self_ms("decoding.greedy_decode")),
            "metrics.find_span_calls_per_example": pe(len(finds)),
            "metrics.find_span_ms_p50": quantile(find_ms, 0.5),
            "metrics.find_span_ms_p90": quantile(find_ms, 0.9),
            "metrics.find_span_decodes_per_call": self.count("vocab.decode", "metrics.find_span") / len(finds)
            if finds
            else 0.0,
            "metrics.find_span_hit_ratio": sum(t.attr[i] for i in finds) / len(finds) if finds else 0.0,
            "metrics.score_self_ms_per_example": pe(self.self_ms("metrics.score")),
            "harness.example_self_ms": pe(self.self_ms("harness.evaluate_example")),
            "cli.decode_example_self_ms": pe(self.self_ms("cli.decode_example")),
            "trace.self_sum_ratio": self.self_sum_ratio(walls_ns),
        }
