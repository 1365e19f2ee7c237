"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import bench
import counting_server
import driver
import gate
import gen_inputs
from spandecode import cli, metrics, mrqa
from spandecode.decoding import DecodeConfig
from spandecode.remote import StdioScorer
from spandecode.scorer import ScoreRequest, ScorerError, StepScores, TableLM
from spandecode.vocab import Vocabulary
from tracing import Profile, Tracer, self_times

TINY = gen_inputs.Workload(
    name="tiny",
    command="eval",
    transport="inproc",
    passage_tokens=(16, 40),
    paragraphs=4,
    greedy_kinds=("start", "end", "none"),
    greedy_tokens=(1, 3),
    gold_tokens=(1, 3),
    max_span_len=None,
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    gen_inputs.generate(TINY, 7, directory)
    inputs = driver.Inputs(directory)
    vocab = Vocabulary.from_file(inputs.vocab)
    scorer = cli.make_scorer(inputs.table_spec(), vocab)
    return inputs, vocab, scorer, mrqa.load_dataset(inputs.dataset)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic(tmp_path):
    gen_inputs.generate(TINY, 3, tmp_path / "a")
    gen_inputs.generate(TINY, 3, tmp_path / "b")
    gen_inputs.generate(TINY, 4, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["dataset.jsonl"] != _files(tmp_path / "c")["dataset.jsonl"]


def test_generated_text_encodes_to_planted_ids(tiny):
    inputs, vocab, _, dataset = tiny
    tpl = driver.template()
    assert len(dataset) == 2 * TINY.paragraphs
    for example in dataset:
        source, _, passage = driver.encode_example(example, tpl, vocab)
        expected = inputs.expected[example.id]
        assert list(source.ids) == expected["source_ids"]
        assert len(passage) == expected["passage_tokens"]
    parts = {e["partition"] for e in inputs.expected.values()}
    assert parts == {metrics.S_IN, metrics.S_OUT}


def _outcomes(dataset, scorer, vocab):
    tpl, cfg = driver.template(), DecodeConfig()
    return [(ex.id, driver.eval_example(ex, scorer, tpl, vocab, cfg)) for ex in dataset]


def test_gate_passes_on_the_program(tiny):
    inputs, vocab, scorer, dataset = tiny
    outcomes = _outcomes(dataset, scorer, vocab)
    assert gate.check_outputs(outcomes, inputs.expected, "eval") == []
    tpl, cfg = driver.template(), DecodeConfig()
    assert gate.check_naive(dataset[:3], scorer, scorer, tpl, vocab, cfg) == []
    cases = [(i, out["greedy"].text, vocab.encode(ex.context)) for ex, (i, out) in zip(dataset, outcomes)]
    assert gate.check_find_span(cases, vocab) == []


class OneStepOff(TableLM):
    """Adds a little to the first step of every forced pass."""

    def _score_forced(self, req):
        scores = super()._score_forced(req)
        gold = scores.gold_logprob
        return StepScores((gold[0] + 1e-9, *gold[1:]) if gold else gold, scores.term_logprob)


def test_gate_rejects_a_scorer_that_perturbs_one_step(tiny):
    inputs, vocab, scorer, dataset = tiny
    wrong = OneStepOff.from_file(inputs.table, vocab, terminator_ids=scorer.terminator_ids)
    problems = gate.check_naive(dataset, wrong, scorer, driver.template(), vocab, DecodeConfig())
    assert problems and "naive" in problems[0]


class FailsOnOne(TableLM):
    """Raises on every pass for one encoder input."""

    failing_source: tuple = ()

    def _score_forced(self, req):
        if tuple(req.source.ids) == self.failing_source:
            raise ScorerError("refused")
        return super()._score_forced(req)


def test_gate_rejects_an_example_that_raised(tiny):
    inputs, vocab, scorer, dataset = tiny
    wrong = FailsOnOne.from_file(inputs.table, vocab, terminator_ids=scorer.terminator_ids)
    wrong.failing_source = tuple(inputs.expected[dataset[1].id]["source_ids"])
    tpl, cfg = driver.template(), DecodeConfig()
    outcomes = []
    for example in dataset[:3]:
        try:
            outcomes.append((example.id, driver.eval_example(example, wrong, tpl, vocab, cfg)))
        except ScorerError:
            outcomes.append((example.id, None))
    problems = gate.check_outputs(outcomes, inputs.expected, "eval")
    assert len(problems) == 1 and problems[0].startswith(dataset[1].id)


def test_gate_rejects_outputs_that_miss_the_plant(tiny):
    inputs, vocab, scorer, dataset = tiny
    outcomes = _outcomes(dataset[:2], scorer, vocab)
    expected = json.loads(json.dumps(inputs.expected))
    expected[outcomes[0][0]]["gold_start"] += 1
    assert len(gate.check_outputs(outcomes, expected, "eval")) == 1


def test_gate_rejects_a_find_span_that_is_not_earliest(tiny, monkeypatch):
    _, vocab, _, dataset = tiny
    passage = vocab.encode(dataset[0].context)
    text = vocab.decode(passage[2:4])
    assert gate.check_find_span([("x", text, passage)], vocab) == []
    monkeypatch.setattr(metrics, "find_span", lambda t, p, v: (3, 2))
    assert gate.check_find_span([("x", text, passage)], vocab)


def test_cli_check_compares_the_driver_with_cli_main(tiny, tmp_path):
    inputs, vocab, scorer, dataset = tiny
    lines = inputs.dataset.read_text(encoding="utf-8").splitlines()[:2]
    prefix_path = tmp_path / "prefix.jsonl"
    prefix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ids = [qa["qid"] for qa in json.loads(lines[1])["qas"]]
    outcomes = _outcomes([ex for ex in dataset if ex.id in ids], scorer, vocab)
    out = tmp_path / "report.json"
    argv = ["--vocab", str(inputs.vocab), "--scorer", inputs.table_spec(), "eval", "--input", str(prefix_path), "--output", str(out)]
    assert gate.check_cli(argv, out, "eval", outcomes) == []
    assert gate.check_cli(argv, out, "eval", outcomes + outcomes[:1])


def test_calibrated_times_scale_by_the_calibration_beside_them(monkeypatch):
    # Calibration runs at half the reference speed, then at full speed.
    runs = iter([2.0, 2.0, 1.0])
    monkeypatch.setattr(bench, "calibrate", lambda: next(runs) * bench.CAL_REF_S)
    clock = bench.Calibrated()
    assert clock.scale(10.0) == pytest.approx(5.0)
    # The second piece had a slow calibration before it and a fast one after.
    assert clock.scale(3.0) == pytest.approx(2.0)


def test_self_time_on_a_hand_built_tree():
    #   0 root [0, 100)
    #   1   a  [10, 40)   2 a's child [15, 20)
    #   3   b  [30, 60)   overlaps a: the union [10, 60) is covered
    #   4   c  [90, 120)  runs past the root: only [90, 100) counts
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 20, 60, 120]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == [40, 25, 5, 30, 30]


def test_traced_example_self_times_cover_its_wall_time(tiny):
    _, vocab, scorer, dataset = tiny
    tracer = Tracer()
    tpl, cfg = driver.template(), DecodeConfig()
    for k, example in enumerate(dataset[:3]):
        tracer.example_id = k
        with tracer.installed():
            with tracer.span("bench.example"):
                driver.eval_example(example, scorer, tpl, vocab, cfg)
    tracer.example_id = -1
    roots = [i for i, code in enumerate(tracer.name) if tracer.names[code] == "bench.example"]
    walls = [tracer.end[i] - tracer.start[i] for i in roots]
    profile = Profile(tracer, "bench.example")
    layer = profile.layer_metrics(walls)
    assert layer["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert layer["decoding.forced_useful_ratio"] == 1.0
    assert layer["metrics.find_span_calls_per_example"] == 1.0
    assert layer["vocab.encode_calls_per_example"] == 5.0
    # The originals are back once the tracer is uninstalled.
    assert metrics.find_span.__module__ == "spandecode.metrics"
    assert "traced" not in Vocabulary.encode.__qualname__


def test_wire_metrics_attribute_requests_to_examples():
    # [bytes_in, source_bytes, bytes_out, busy_ns, error, read_ns]; the
    # first request, read at 5, falls outside the example's window [10, 20].
    records = [
        [10, 4, 100, 1_000_000, 0, 5],
        [20, 10, 200, 2_000_000, 0, 12],
        [30, 15, 300, 4_000_000, 0, 20],
    ]
    wire = counting_server.wire_metrics(records, [(10, 20)], roundtrip_ms=10.0)
    assert wire["remote.requests_per_example"] == 2
    assert wire["remote.bytes_sent_per_example"] == 50
    assert wire["remote.bytes_recv_per_example"] == 500
    assert wire["remote.source_bytes_share"] == 0.5
    assert wire["remote.server_busy_ms_per_example"] == 6.0
    assert wire["remote.wire_wait_ms_per_example"] == 4.0


class TwoRequestsPerPass(StdioScorer):
    """Sends every forced pass twice, so one pass makes two requests."""

    def _score_forced(self, req):
        super()._score_forced(req)
        return super()._score_forced(req)


def test_counting_server_counts_requests_not_passes(tiny, tmp_path):
    inputs, vocab, scorer, dataset = tiny
    stats = tmp_path / "wire.json"
    command = inputs.counting_spec(stats).removeprefix("stdio:")
    wire = TwoRequestsPerPass(command, vocab, terminator_ids=scorer.terminator_ids)
    source, prefix, passage = driver.encode_example(dataset[0], driver.template(), vocab)
    try:
        wire.next_token_distribution(source, prefix)  # before the window
        w0 = time.monotonic_ns()
        before = wire.pass_count()
        for i in range(3):
            wire.teacher_forced_pass(ScoreRequest(source, passage[i:], prefix))
        passes = wire.pass_count() - before
        w1 = time.monotonic_ns()
        wire.next_token_distribution(source, prefix)  # after it
    finally:
        wire.close()
    records = json.loads(stats.read_text(encoding="utf-8"))
    assert len(records) == 8
    numbers = counting_server.wire_metrics(records, [(w0, w1)], roundtrip_ms=1.0)
    assert passes == 3
    assert numbers["remote.requests_per_example"] == 6
    assert numbers["remote.errors"] == 0


def test_counting_server_counts_source_bytes():
    stats = counting_server.WireStats()
    line = json.dumps({"id": 1, "op": "next_dist", "source_ids": [1, 22, 333], "prefix_ids": [], "target_ids": []})
    stats.request(line + "\n")
    assert stats.requests[0][:2] == [len(line) + 1, len('"source_ids": [1, 22, 333]')]
