"""One benchmark run: generate, set up, run closed loop, gate, report.

A run pins itself and every child it starts to one CPU, so that the
stdio client and server hand each request over on that CPU instead of
waking each other across CPUs at a cost that varies with where the
scheduler put them. It generates the workload's inputs from the seed (in
a child process, so its memory stays out of the client's peak RSS), then
runs examples one at a time with one client, in rounds that are each one
pass over the dataset: rounds go on while another one still ends within
``--seconds``, and there are at least ``MIN_ROUNDS`` of them. Before the
first round it sets up the way the CLI does, ``SETUP_REPEATS`` times.

On a shared machine the speed of a CPU changes by up to two times, in
spells that last from a fraction of a second to half a minute, which is
longer than some runs. So every timed piece of the program (one set-up,
one example) is bracketed by ``calibrate()``, a fixed piece of
pure-Python work owned by the benchmark, and is reported at the
reference speed: its time times ``CAL_REF_S`` over the mean of the two
calibration times beside it. On a quiet machine the two agree, and a
change that makes the program twice as fast halves the scaled time as it
halves the raw one. An example's time is the median of its scaled
rounds; the throughput and the percentiles are taken over those
per-example times, and ``setup_s`` is the median of the ``SETUP_REPEATS``
scaled set-ups.

The correctness gate runs afterwards, outside the timed region; a run
that fails it, or in which any example raised, prints the problems and
no numbers, and exits with code 1. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units are read from ``BENCHMARK.json``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` each example runs twice, untraced and then
with the wrappers of ``tracing.py`` installed, and the metrics are the
per-layer ones from the traced runs. On the stdio workload the traced
runs talk to ``counting_server.py``; the untraced ones always talk to
``python -m spandecode.remote``.

A program so slow that ``MIN_ROUNDS`` rounds outlast ``LOOP_CAP_S`` is
measured on the rounds done by then. A run that still passes
``DEADLINE_S`` stops with a message and no numbers.

Generated files live under ``.bench_work/`` in the checkout and are
removed when the run ends, as is every child process.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import counting_server
import driver
import gate
from gen_inputs import WORKLOADS
from spandecode import cli
from spandecode.decoding import DecodeConfig
from spandecode.remote import TransportError
from spandecode.scorer import ScorerError
from tracing import Profile, Tracer, quantile

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 10
# An example's time is the median of at least four rounds; a run with time
# for six rounds or more of the 18-example datasets times 108 examples or more.
MIN_ROUNDS = 4
LOOP_CAP_S = 100
DEADLINE_S = 170
# The calibration loop's length, and its time at the reference speed: its
# time on a quiet 2-vCPU Intel Xeon with Python 3.11.
CAL_LOOPS = 150
CAL_REF_S = 0.00125
NAIVE_SAMPLES = 2
FIND_SPAN_SAMPLES = 3
CLI_PREFIX_PARAGRAPHS = 1


def _children() -> list[int]:
    """Pids of this process's live children, read from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this client plus that of each live child (the stdio server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_peak_rss_kb(pid) for pid in _children())) / 1024


def _stop_children() -> None:
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class Deadline(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the program takes it."""


def _deadline(_signum, _frame):
    raise Deadline


def emit(attempted: int, failed: int, values: dict, units: dict, samples=None) -> None:
    """Print every metric of ``units``, by name, then the result line."""
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    if samples is not None:
        print(f"{'samples':40s} {samples:14d} example timings")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


def fail(problems: list[str], attempted: int, failed: int) -> int:
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"gate: {len(problems)} problem(s); no numbers reported", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 1


_CAL_SOURCE = tuple(range(1000, 1300))


def _cal_logsumexp(values) -> float:
    values = list(values)
    hi = max(values)
    return hi + math.log(sum(math.exp(v - hi) for v in values))


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    program's inner loops: dict lookups keyed by short tuple slices, and
    by a passage-long token tuple with a prefix, with float arithmetic and
    a log-sum-exp over a generator. How much a busy neighbour slows code
    down depends on what the code does, so the two halves are taken
    together to track the workloads alike."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(10 * CAL_LOOPS):
        key = _CAL_SOURCE[i % 61 : i % 61 + 3]
        table[key] = table.get(key, 0.0) + math.log1p(i)
    for i in range(CAL_LOOPS):
        prefix = _CAL_SOURCE[i % 61 : i % 61 + 4]
        key = (_CAL_SOURCE, prefix)
        table[key] = table.get(key, 0.0) + _cal_logsumexp(t * 0.001 for t in prefix)
    return time.perf_counter() - t0


class Calibrated:
    """Times pieces of work scaled to the reference speed by the
    calibration runs on either side of them."""

    def __init__(self):
        self.before = calibrate()

    def scale(self, seconds: float) -> float:
        after = calibrate()
        speed = CAL_REF_S / ((self.before + after) / 2)
        self.before = after
        return seconds * speed


class Run:
    """One benchmark run over inputs generated into ``workdir``."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.workdir = workdir
        subprocess.run(
            [sys.executable, str(HERE / "gen_inputs.py"), self.w.name, str(args.seed), str(workdir)],
            check=True,
            timeout=120,
        )
        self.inputs = driver.Inputs(workdir)
        self.spec = self.inputs.stdio_spec() if self.w.transport == "stdio" else self.inputs.table_spec()
        self.tpl = driver.template()
        self.cfg = DecodeConfig(max_span_len=self.w.max_span_len)
        self.run_one = driver.EXAMPLE[self.w.command]
        self.scorers = []

    def setup(self, spec: str):
        vocab, scorer, dataset, phases = driver.setup(self.inputs, spec)
        self.scorers.append(scorer)
        return vocab, scorer, dataset, phases

    def close(self, scorer) -> None:
        self.scorers.remove(scorer)
        driver.close(scorer)

    def close_all(self) -> None:
        while self.scorers:
            self.close(self.scorers[-1])

    def attempt(self, example, scorer, vocab):
        try:
            return self.run_one(example, scorer, self.tpl, vocab, self.cfg), None
        except (ScorerError, TransportError) as exc:
            print(f"example {example.id} failed: {exc}", file=sys.stderr)
            return None, exc

    # -- the gate -------------------------------------------------------
    def gate(self, outcomes, vocab, scorer, dataset) -> list[str]:
        w, seed, expected = self.w, self.args.seed, self.inputs.expected
        problems = gate.check_outputs(outcomes, expected, w.command)

        by_id = {ex.id: ex for ex in dataset}
        by_length = sorted(dataset, key=lambda ex: (expected[ex.id]["passage_tokens"], ex.id))
        shortest = by_length[: max(1, len(by_length) // 4)]
        # Over stdio the per-span oracle would pay a round trip per span, so it
        # scores the same table in process.
        oracle = cli.make_scorer(self.inputs.table_spec(), vocab) if self.w.transport == "stdio" else scorer
        chosen = gate.sample(shortest, NAIVE_SAMPLES, seed, "naive")
        problems += gate.check_naive(chosen, scorer, oracle, self.tpl, vocab, self.cfg)

        if w.command == "eval":
            run = {ex_id: out for ex_id, out in outcomes if out is not None}
            cases = [
                (ex_id, run[ex_id]["greedy"].text, vocab.encode(by_id[ex_id].context))
                for ex_id in gate.sample(sorted(run), FIND_SPAN_SAMPLES, seed, "find_span")
            ]
            problems += gate.check_find_span(cases, vocab)

        lines = self.inputs.dataset.read_text(encoding="utf-8").splitlines()
        head = lines[: 1 + CLI_PREFIX_PARAGRAPHS]  # the header line, then paragraphs
        prefix_path = self.workdir / "prefix.jsonl"
        prefix_path.write_text("\n".join(head) + "\n", encoding="utf-8")
        done = dict(outcomes)
        prefix = []
        for line in head[1:]:
            for qa in json.loads(line)["qas"]:
                ex_id = qa["qid"]
                if ex_id not in done:
                    done[ex_id] = self.attempt(by_id[ex_id], scorer, vocab)[0]
                prefix.append((ex_id, done[ex_id]))
        out_path = self.workdir / "cli-output"
        argv = ["--vocab", str(self.inputs.vocab), "--scorer", self.spec, "--jobs", "1", w.command]
        if w.command == "decode":
            argv += ["--algo", "exact"]
        if w.max_span_len is not None:
            argv += ["--max-span-len", str(w.max_span_len)]
        argv += ["--input", str(prefix_path), "--output", str(out_path)]
        problems += gate.check_cli(argv, out_path, w.command, prefix)
        return problems

    # -- end-to-end run -------------------------------------------------
    def set_up_repeatedly(self, clock: Calibrated):
        """Set up afresh ``SETUP_REPEATS`` times, keeping one model loaded at a
        time as the CLI does; return the scaled set-up times and the last set-up."""
        setups, loaded = [], None
        for _ in range(SETUP_REPEATS):
            loaded = None
            self.close_all()
            gc.collect()
            clock.before = calibrate()
            loaded = self.setup(self.spec)
            setups.append(clock.scale(sum(loaded[3].values())))
        return setups, loaded[:3]

    def timed(self) -> int:
        clock = Calibrated()
        setups, (vocab, scorer, dataset) = self.set_up_repeatedly(clock)
        outcomes, passes = [], []
        times = [[] for _ in dataset]  # per example, its scaled time in ms in each round
        failed = 0
        begin = time.perf_counter()
        while True:
            round_begin = time.perf_counter()
            clock.before = calibrate()
            for k, example in enumerate(dataset):
                before = scorer.pass_count()
                t0 = time.perf_counter()
                out, err = self.attempt(example, scorer, vocab)
                t1 = time.perf_counter()
                times[k].append(clock.scale(t1 - t0) * 1e3)
                outcomes.append((example.id, out))
                if err is None:
                    passes.append(scorer.pass_count() - before)
                else:
                    failed += 1
            rounds = len(times[0])
            now = time.perf_counter()
            elapsed = now - begin
            if elapsed >= LOOP_CAP_S:
                print(f"stopped after {rounds} round(s): the loop cap of {LOOP_CAP_S} s passed", file=sys.stderr)
                break
            if rounds >= MIN_ROUNDS and elapsed + (now - round_begin) > self.args.seconds:
                break
        rss = peak_rss_mb()
        problems = self.gate(outcomes, vocab, scorer, dataset)
        if problems:
            return fail(problems, len(outcomes), failed)
        typical = [statistics.median(t) for t in times]
        values = {
            "setup_s": statistics.median(setups),
            "examples_per_s": len(typical) / (sum(typical) / 1e3),
            "example_ms_p50": statistics.median(typical),
            "example_ms_p90": quantile(typical, 0.9),
            "passes_per_example": statistics.mean(passes),
            "peak_rss_mb": rss,
        }
        emit(len(outcomes), failed, values, END_TO_END, samples=len(outcomes))
        return 0

    # -- traced run -----------------------------------------------------
    def traced(self) -> int:
        stdio = self.w.transport == "stdio"
        vocab, scorer, dataset, _ = self.setup(self.spec)
        tracer = Tracer()
        stats_path = self.workdir / "wire-stats.json"
        spec = self.inputs.counting_spec(stats_path) if stdio else self.spec
        with tracer.installed():
            t_vocab, t_scorer, t_dataset, phases = self.setup(spec)
        root = "cli.decode_example" if self.w.command == "decode" else "bench.example"
        outcomes, traced_outcomes, ranges, windows, walls_ns = [], [], [], [], []
        plain_s = traced_s = 0.0
        skipped = 0
        begin = time.perf_counter()
        while time.perf_counter() - begin < self.args.seconds or not outcomes:
            k = len(outcomes)
            example = dataset[k % len(dataset)]
            t0 = time.perf_counter()
            out, _ = self.attempt(example, scorer, vocab)
            t1 = time.perf_counter()
            outcomes.append((example.id, out))
            example = t_dataset[k % len(t_dataset)]
            before = t_scorer.pass_count()
            tracer.example_id = k
            with tracer.installed():
                w0 = time.monotonic_ns()
                t2 = time.perf_counter()
                with tracer.span(root):
                    out, err = self.attempt(example, t_scorer, t_vocab)
                t3 = time.perf_counter()
                w1 = time.monotonic_ns()
            tracer.example_id = -1
            traced_outcomes.append((example.id, out))
            ranges.append((before, t_scorer.pass_count()))
            windows.append((w0, w1))
            walls_ns.append(round((t3 - t2) * 1e9))
            skipped += err is not None
            plain_s += t1 - t0
            traced_s += t3 - t2
        # Closing the counting server makes it write its per-request records.
        self.close(t_scorer)
        problems = self.gate(outcomes, vocab, scorer, dataset)
        if stdio and not stats_path.is_file():
            problems.append("the counting server wrote no wire records")
        problems += [f"traced: {p}" for p in gate.check_outputs(traced_outcomes, self.inputs.expected, self.w.command)]
        if problems:
            return fail(problems, len(outcomes), skipped)

        profile = Profile(tracer, root)
        values = {
            "mrqa.load_ms": phases["dataset"] * 1e3,
            "vocab.load_ms": phases["vocab"] * 1e3,
            "scorer.load_ms": phases["scorer"] * 1e3,
            "harness.skipped": skipped,
            "trace.overhead_ratio": plain_s / traced_s,
        }
        values.update(profile.layer_metrics(walls_ns))
        values["scorer.passes_per_example"] = sum(b - a for a, b in ranges) / len(ranges)
        if stdio:
            roundtrip_us = profile.durations_us("scorer.forced") + profile.durations_us("scorer.next_dist")
            records = json.loads(stats_path.read_text(encoding="utf-8"))
            values.update(counting_server.wire_metrics(records, windows, sum(roundtrip_us) / 1e3))
            values["remote.roundtrip_us_p50"] = quantile(roundtrip_us, 0.5)
            values["remote.roundtrip_us_p90"] = quantile(roundtrip_us, 0.9)
        values = {name: values.get(name, 0.0) for name in PER_LAYER}
        emit(len(outcomes), skipped, values, PER_LAYER)
        return 0


def main(args) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = None
    try:
        run = Run(args, workdir)
        return run.traced() if args.trace else run.timed()
    except Deadline:
        print(f"error: the run passed its deadline of {DEADLINE_S} s; no numbers reported", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        if run is not None:
            run.close_all()
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
