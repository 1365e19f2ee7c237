"""Correctness gate: checks that run outside the timed region.

Each check returns a list of problems; an empty list means it passed.

- ``check_outputs``: every example run returned, and returned what the
  generator planted (the gold span wins exact-extract in n passes; the
  greedy text, its span and the partition are as planted). Every
  generated example is valid and scoring is deterministic, so an example
  that raised is a defect.
- ``check_naive``: on a seeded sample, exact-extract equals the naive
  per-span oracle in start, length and bit-identical ``span_logprob``.
- ``check_find_span``: on a sample, ``find_span`` returns the earliest,
  shortest span that decodes to the greedy text, by exhaustive search.
- ``check_cli``: the per-example driver's outcomes equal what
  ``cli.main`` writes for ``eval`` or ``decode`` on a prefix of the data.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from spandecode import cli, decoding, metrics, prompting

import driver

SENTINELS = (prompting.OPEN_SENTINEL, prompting.CLOSE_SENTINEL)


def _as_dict(result) -> dict:
    return result if isinstance(result, dict) else result.to_dict()


def check_outputs(outcomes, expected: dict, command: str) -> list[str]:
    problems = []
    for ex_id, out in outcomes:
        if out is None:
            problems.append(f"{ex_id}: the example raised instead of returning a result")
            continue
        e = expected[ex_id]
        exact = _as_dict(out["exact"] if command == "eval" else out)
        if (exact["start"], exact["length"]) != (e["gold_start"], e["gold_length"]):
            problems.append(
                f"{ex_id}: exact-extract chose ({exact['start']}, {exact['length']}), "
                f"planted gold is ({e['gold_start']}, {e['gold_length']})"
            )
        if exact["passes_used"] != e["passage_tokens"]:
            problems.append(f"{ex_id}: exact-extract used {exact['passes_used']} passes for n={e['passage_tokens']}")
        if command != "eval":
            continue
        greedy = _as_dict(out["greedy"])
        span = [greedy["start"], greedy["length"]] if greedy["extractive"] else None
        if greedy["text"] != e["greedy_text"] or span != e["greedy_span"] or greedy["truncated"]:
            problems.append(
                f"{ex_id}: greedy gave {greedy['text']!r} at {span}, planted {e['greedy_text']!r} at {e['greedy_span']}"
            )
        if out["exact_score"].partition != e["partition"]:
            problems.append(f"{ex_id}: partition {out['exact_score'].partition}, planted {e['partition']}")
    return problems


def _candidate_count(n: int, cap: int | None) -> int:
    return sum(min(n - i, cap or n) for i in range(n))


def check_naive(examples, scorer, oracle, tpl, vocab, cfg) -> list[str]:
    """``scorer`` runs exact-extract as the workload does; ``oracle`` is an
    in-process model of the same table for the naive per-span search."""
    problems = []
    for example in examples:
        source, prefix, passage = driver.encode_example(example, tpl, vocab)
        fast = decoding.exact_extract(passage, source, prefix, scorer, cfg)
        slow = decoding.naive_exact(passage, source, prefix, oracle, cfg)
        got = (fast.start, fast.length, fast.span_logprob.hex())
        want = (slow.start, slow.length, slow.span_logprob.hex())
        if got != want:
            problems.append(f"{example.id}: exact-extract {got} != naive {want}")
        n = len(passage)
        if fast.passes_used != n or slow.passes_used != _candidate_count(n, cfg.max_span_len):
            problems.append(f"{example.id}: passes exact={fast.passes_used} naive={slow.passes_used} for n={n}")
    return problems


def brute_find_span(text: str, passage, vocab):
    """Smallest (start, length) whose decoded, stripped surface is the target."""
    target = text
    for sentinel in SENTINELS:
        target = target.replace(sentinel, "")
    target = target.strip()
    if not target:
        return None
    # Appending a piece never shortens the stripped surface, so a start can
    # stop once its surface is longer than the target. Byte-fallback runs
    # can re-decode earlier bytes, so passages holding them are not pruned.
    prune = all(t < vocab.size for t in passage.ids)
    matches = []
    n = len(passage)
    for i in range(n):
        for j in range(1, n - i + 1):
            surface = vocab.decode(passage[i : i + j]).strip()
            if surface == target:
                matches.append((i, j))
            elif prune and len(surface) > len(target):
                break
    return min(matches) if matches else None


def check_find_span(cases, vocab) -> list[str]:
    """``cases`` holds (example id, greedy text, passage) triples."""
    problems = []
    for ex_id, text, passage in cases:
        got = metrics.find_span(text, passage, vocab)
        want = brute_find_span(text, passage, vocab)
        if (tuple(got) if got else None) != want:
            problems.append(f"{ex_id}: find_span({text!r}) = {got}, exhaustive search gives {want}")
    return problems


def cli_outputs(argv: list[str], output, command: str) -> tuple[int, object]:
    """Run ``cli.main(argv)`` quietly, close the scorers it opened, read its output."""
    opened = []
    make_scorer = cli.make_scorer

    def recording(*args, **kwargs):
        opened.append(make_scorer(*args, **kwargs))
        return opened[-1]

    cli.make_scorer = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        cli.make_scorer = make_scorer
        for scorer in opened:
            driver.close(scorer)
    if code != 0:
        return code, None
    with open(output, encoding="utf-8") as f:
        if command == "decode":
            return code, [json.loads(line) for line in f if line.strip()]
        return code, json.load(f)


def check_cli(argv: list[str], output, command: str, outcomes) -> list[str]:
    """``outcomes`` are the driver's (id, result) pairs for the prefix, in order."""
    code, got = cli_outputs(argv, output, command)
    if code != 0:
        return [f"cli.main({' '.join(argv[-6:])}) exited with {code}"]
    if command == "eval":
        want = json.loads(json.dumps(driver.eval_report(outcomes).to_dict()))
    else:
        want = [json.loads(json.dumps(out)) for _, out in outcomes]
    if got != want:
        return [f"per-example driver and cli.main {command} disagree on the dataset prefix"]
    return []


def sample(items, k: int, seed: int, salt: str):
    items = list(items)
    return random.Random(f"{salt}:{seed}").sample(items, min(k, len(items)))
