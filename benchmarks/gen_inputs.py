"""Seeded input generator for the span-decoding benchmark.

For one workload and one seed it writes four files into a directory:

- ``vocab.json``: about 1,000 pieces covering the prompt template, the
  passage and question words and the "(1971)"-style year pieces;
- ``table.json``: a ``TableLM`` whose source-pinned contexts plant, per
  example, a gold span that wins exact-extract and a greedy output of the
  workload's kind (extractive near the passage start or end, extractive
  anywhere, or non-extractive);
- ``dataset.jsonl``: MRQA paragraphs with one to three questions each,
  ordered so that every prefix spreads over the length range;
- ``expected.json``: what the planting guarantees (gold span, greedy text
  and span, partition). Only the benchmark reads it; the program under
  test sees the first three files alone.

Token ids are built here directly from the pieces, and text is rendered
from them, so the generator does not depend on the code it measures.
Every piece except the year continuations starts with the word marker and
no piece contains it elsewhere, so greedy longest-match encoding of the
rendered text gives back exactly these ids. The same workload and seed
give byte-identical files.

Run as a script: ``python3 benchmarks/gen_inputs.py WORKLOAD SEED OUT_DIR``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

MARK = "▁"
EOS = "</s>"
OPEN = "<extra_id_0>"
CLOSE = "<extra_id_1>"
SPECIALS = [EOS, OPEN, CLOSE, MARK, MARK + "Text:", "\nQuestion:", "\nAnswer:", "?", ".", MARK + "(", ")"]
YEARS = [str(y) for y in range(1950, 1990)]
VOCAB_SIZE = 1000
# Words kept out of every passage, so greedy outputs built from them are
# non-extractive.
RESERVED_WORDS = 48
# Per-token probability of every unplanted token in a planted context. The
# gold path's peaks take the mass the rest leaves; a greedy step's argmax
# gets a weak peak over a slightly lower floor, so it is the argmax without
# letting greedy spans outscore the gold one.
REST = 0.0001
GREEDY_REST = 0.000999
GREEDY_PEAK = 0.001999
FIRST_GREEDY_PEAK = 0.5002  # beside the gold first token's 0.4 in the first context
FIRST_GOLD_PEAK = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "eval" or "decode"
    transport: str  # "inproc" or "stdio"
    passage_tokens: tuple[int, int]
    paragraphs: int  # 9 give 18 examples
    greedy_kinds: tuple[str, ...]  # cycled over examples sorted by length
    greedy_tokens: tuple[int, int]
    gold_tokens: tuple[int, int]
    max_span_len: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval-inproc-long",
            command="eval",
            transport="inproc",
            passage_tokens=(64, 256),
            paragraphs=9,
            greedy_kinds=("start", "end", "none"),
            greedy_tokens=(2, 6),
            gold_tokens=(1, 4),
            max_span_len=None,
        ),
        Workload(
            name="eval-stdio-short",
            command="eval",
            transport="stdio",
            passage_tokens=(24, 96),
            paragraphs=9,
            greedy_kinds=("any",),
            greedy_tokens=(1, 8),
            gold_tokens=(1, 4),
            max_span_len=None,
        ),
        Workload(
            name="decode-capped-long",
            command="decode",
            transport="inproc",
            passage_tokens=(192, 384),
            paragraphs=9,
            greedy_kinds=(),
            greedy_tokens=(0, 0),
            gold_tokens=(1, 5),
            max_span_len=32,
        ),
    )
}


def _van_der_corput(k: int) -> float:
    value, denom = 0.0, 1.0
    while k:
        denom *= 2
        k, bit = divmod(k, 2)
        value += bit / denom
    return value


def _spread_order(count: int) -> list[int]:
    """Ranks 0..count-1 ordered so that every prefix covers the range evenly."""
    by_position = sorted(range(count), key=_van_der_corput)
    ranks = [0] * count
    for rank, position in enumerate(by_position):
        ranks[position] = rank
    return ranks


def _make_words(rng: random.Random, count: int) -> list[str]:
    consonants = "bcdfghjklmnprstvwz"
    vowels = "aeiou"
    words: set[str] = set()
    while len(words) < count:
        syllables = rng.randint(1, 3)
        word = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables))
        if rng.random() < 0.5:
            word += rng.choice(consonants)
        words.add(word)
    return sorted(words)


def render(pieces: list[str], ids) -> str:
    """Text whose greedy longest-match encoding is ``ids``."""
    text = "".join(pieces[i] for i in ids).replace(MARK, " ")
    return text[1:] if text.startswith(" ") else text


def _occurrences(seq: list[int], run: list[int]) -> list[int]:
    m = len(run)
    return [i for i in range(len(seq) - m + 1) if seq[i : i + m] == run]


def _dense(peaks: dict[int, float], rest: float, size: int) -> dict[str, float]:
    dist = {str(t): peaks.get(t, rest) for t in range(size)}
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-13:
        raise AssertionError(f"planted distribution sums to {total!r}")
    return dist


class _Builder:
    def __init__(self, workload: Workload, seed: int):
        self.rng = random.Random(f"{workload.name}:{seed}")
        words = _make_words(self.rng, VOCAB_SIZE - len(SPECIALS) - 2 * len(YEARS))
        self.rng.shuffle(words)
        self.pieces = SPECIALS + [MARK + y for y in YEARS] + YEARS + [MARK + w for w in words]
        self.id = {p: i for i, p in enumerate(self.pieces)}
        first_word = len(SPECIALS) + 2 * len(YEARS)
        word_ids = list(range(first_word, len(self.pieces)))
        self.reserved = word_ids[:RESERVED_WORDS]
        self.passage_words = word_ids[RESERVED_WORDS:]
        self._is_word = set(self.passage_words)
        self.year_ids = [self.id[y] for y in YEARS]
        self.prefix = [self.id[MARK], self.id[OPEN]]
        self.term = self.id[CLOSE]
        self.table: dict[str, dict[str, float]] = {}

    # -- passages ------------------------------------------------------
    def passage(self, n: int) -> list[int]:
        rng = self.rng
        out: list[int] = []
        while len(out) < n:
            roll = rng.random()
            if roll < 0.04 and n - len(out) >= 3:
                out += [self.id[MARK + "("], rng.choice(self.year_ids), self.id[")"]]
            elif roll < 0.10 and out and out[-1] in self._is_word:
                out.append(self.id["."])
            else:
                out.append(rng.choice(self.passage_words))
        return out

    def _free_window(self, used: list[tuple[int, int]], lo: int, hi: int, length: int, target=None):
        """A start in [lo, hi] whose window overlaps no used window, or None:
        the one nearest ``target`` if one is given, else a random one."""
        starts = [
            s
            for s in range(max(lo, 0), hi + 1)
            if all(s + length <= a or s >= b for a, b in used)
        ]
        if not starts:
            return None
        if target is None:
            return self.rng.choice(starts)
        return min(starts, key=lambda s: (abs(s - target), s))

    # -- one paragraph -----------------------------------------------------
    def paragraph(self, n: int, shapes: list[tuple[str | None, bool, int, int, float]]):
        """Plant one question per (greedy kind, S_out, gold length, greedy
        length, greedy place); retry until the planted runs are unique.

        The greedy run starts as near as it can to ``place`` (0 to 1) of
        its kind's window: how far ``find_span`` scans depends on that
        start, so it is part of the dataset's shape, not of the seed."""
        rng = self.rng
        while True:
            ids = self.passage(n)
            used: list[tuple[int, int]] = []
            plans = []
            ok = True
            for kind, s_out, length, m, place in shapes:
                if s_out:
                    start = self._free_window(used, 0, n - 3, 3)
                    if start is None:
                        ok = False
                        break
                    present = {t for t in ids if t in self.year_ids}
                    free_years = [y for y in self.year_ids if y not in present]
                    year = rng.choice(free_years)
                    ids[start : start + 3] = [self.id[MARK + "("], year, self.id[")"]]
                    used.append((start, start + 3))
                    gold = (start + 1, 1)
                else:
                    start = self._free_window(used, 0, n - length, length)
                    if start is None:
                        ok = False
                        break
                    ids[start : start + length] = [rng.choice(self.passage_words) for _ in range(length)]
                    used.append((start, start + length))
                    gold = (start, length)
                plans.append([kind, s_out, gold, None, m, place])
            if not ok:
                continue
            for plan in plans:
                kind, m, place = plan[0], plan[4], plan[5]
                if kind is None:
                    continue
                if kind == "none":
                    plan[3] = ("none", [rng.choice(self.reserved) for _ in range(m)])
                    continue
                edge = max(m, n // 8)
                lo, hi = {"start": (0, edge - m), "end": (n - edge, n - m), "any": (0, n - m)}[kind]
                start = self._free_window(used, lo, hi, m, target=lo + round(place * (hi - lo)))
                if start is None:
                    ok = False
                    break
                ids[start : start + m] = [rng.choice(self.passage_words) for _ in range(m)]
                used.append((start, start + m))
                plan[3] = (start, ids[start : start + m])
            if ok and self._unique(ids, plans):
                return ids, plans

    def _unique(self, ids: list[int], plans) -> bool:
        """Each gold run occurs once; each extractive greedy run first occurs
        where it was planted; greedy and gold differ in their first token."""
        for _, _, (start, length), greedy, _, _ in plans:
            gold = ids[start : start + length]
            if _occurrences(ids, gold) != [start]:
                return False
            if greedy is None:
                continue
            g_start, g_ids = greedy
            if g_ids[0] == gold[0]:
                return False
            if g_start != "none" and _occurrences(ids, g_ids)[0] != g_start:
                return False
        return True

    # -- table contexts -----------------------------------------------------
    def _key(self, source: list[int], prefix: list[int]) -> str:
        return ",".join(map(str, source)) + "#" + ",".join(map(str, prefix))

    def plant(self, source: list[int], gold: list[int], greedy: list[int] | None) -> None:
        size = len(self.pieces)
        p = self.prefix
        if greedy is None:
            first = {gold[0]: 1.0 - REST * (size - 1)}
        else:
            first = {greedy[0]: FIRST_GREEDY_PEAK, gold[0]: FIRST_GOLD_PEAK}
        self.table[self._key(source, p)] = _dense(first, REST, size)
        for k in range(1, len(gold) + 1):
            nxt = gold[k] if k < len(gold) else self.term
            self.table[self._key(source, p + gold[:k])] = _dense(
                {nxt: 1.0 - REST * (size - 1)}, REST, size
            )
        if greedy is not None:
            for k in range(1, len(greedy) + 1):
                nxt = greedy[k] if k < len(greedy) else self.term
                self.table[self._key(source, p + greedy[:k])] = _dense(
                    {nxt: GREEDY_PEAK}, GREEDY_REST, size
                )


def generate(w: Workload, seed: int, out_dir: str | Path) -> dict:
    """Write the four input files for workload ``w`` and ``seed``; return expected."""
    b = _Builder(w, seed)
    rng = b.rng
    lo, hi = w.passage_tokens
    count = w.paragraphs
    # A dataset has the same shape for every seed, so that seeds differ in
    # content and not in cost: one passage length per stratum of a log scale
    # (right-skewed like MRQA passages), 2, 1 and 3 questions dealt by length
    # rank, and greedy kinds, S_out cases, span lengths and greedy places
    # dealt over the examples sorted by length. The seed picks the words
    # and the other positions.
    lengths = [round(lo * (hi / lo) ** ((k + 0.5) / count)) for k in range(count)]
    order = _spread_order(count)
    per_paragraph = [(2, 1, 3)[order[j] % 3] for j in range(count)]
    slots = sorted((order[j], j, q) for j in range(count) for q in range(per_paragraph[j]))
    shape_rng = random.Random(w.name)
    assignment: dict[tuple[int, int], tuple[str | None, bool, int, int, float]] = {}
    for rank, (_, j, q) in enumerate(slots):
        kind = w.greedy_kinds[rank % len(w.greedy_kinds)] if w.greedy_kinds else None
        s_out = rank % 4 == 0
        gold_len = 1 if s_out else shape_rng.randint(*w.gold_tokens)
        assignment[j, q] = (kind, s_out, gold_len, shape_rng.randint(*w.greedy_tokens), shape_rng.random())

    pieces = b.pieces
    q_close = [b.id["?"], b.id["\nAnswer:"], b.id[OPEN], b.id["."]]
    lines = [json.dumps({"header": {"dataset": w.name, "seed": seed}})]
    expected = {}
    for j in range(count):
        n = lengths[order[j]]
        ids, plans = b.paragraph(n, [assignment[j, q] for q in range(per_paragraph[j])])
        context = render(pieces, ids)
        qas = []
        for q, (kind, s_out, (g_start, g_len), greedy, _, _) in enumerate(plans):
            qid = f"p{j:03d}q{q}"
            while True:  # a repeated question would share its planted contexts
                question_ids = [rng.choice(b.passage_words) for _ in range(rng.randint(3, 7))]
                source = [b.id[MARK + "Text:"], *ids, b.id["\nQuestion:"], *question_ids, *q_close]
                if b._key(source, b.prefix) not in b.table:
                    break
            gold = ids[g_start : g_start + g_len]
            greedy_ids = None if greedy is None else greedy[1]
            b.plant(source, gold, greedy_ids)
            answer = render(pieces, gold)
            qas.append({"qid": qid, "question": render(pieces, question_ids + [b.id["?"]]), "answers": [answer]})
            expected[qid] = {
                "passage_tokens": n,
                "source_ids": source,
                "gold_start": g_start,
                "gold_length": g_len,
                "gold_text": answer,
                "partition": "S_out" if s_out else "S_in",
                "greedy_kind": kind,
                "greedy_text": None if greedy is None else render(pieces, greedy_ids),
                "greedy_span": None
                if greedy is None or greedy[0] == "none"
                else [greedy[0], len(greedy_ids)],
            }
        lines.append(json.dumps({"context": context, "qas": qas}))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = {"pieces": pieces, "terminator": EOS, "sentinels": [OPEN, CLOSE]}
    (out / "vocab.json").write_text(json.dumps(vocab, ensure_ascii=False), encoding="utf-8")
    (out / "table.json").write_text(json.dumps(b.table, separators=(",", ":")), encoding="utf-8")
    (out / "dataset.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return expected


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: gen_inputs.py WORKLOAD SEED OUT_DIR")
    generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
