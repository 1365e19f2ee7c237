import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from spandecode.decoding import (
    DecodeConfig,
    build_span_table,
    exact_extract,
    greedy_decode,
    naive_exact,
)
from spandecode.scorer import ScoreRequest, Scorer, TableLM

from conftest import bare_vocab, random_table_lm


def empty(vocab):
    return vocab.seq(())


def five_token_lm():
    """Hand-built model strongly biased toward the span at tokens [2, 4)."""
    vocab = bare_vocab(8)
    term = vocab.terminator_id
    passage = vocab.seq((0, 1, 2, 3, 4))
    rest = 0.05 / 5
    lm = TableLM(
        vocab,
        default={i: 0.1 for i in range(7)} | {term: 0.3},
        contexts={
            (): {2: 0.9, term: 0.05, **{i: rest for i in (0, 1, 3, 4)}, 5: rest},
            (2,): {3: 0.9, term: 0.05, **{i: rest for i in (0, 1, 4)}, 5: rest, 6: rest},
            (2, 3): {term: 0.95, **{i: 0.01 for i in (0, 1, 2, 3, 4)}},
        },
    )
    return vocab, lm, passage


class TestBuildSpanTable:
    def test_single_token_passage(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        table = build_span_table(vocab.seq((1,)), empty(vocab), empty(vocab), lm)
        assert table.n == 1
        assert table.L[0] == [0.0, table.ell[0][0]]

    def test_uniform_cumulative_scores(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
        passage = vocab.seq((0, 1, 2, 3))
        table = build_span_table(passage, empty(vocab), empty(vocab), lm)
        p = math.log(1 / 5)
        for i in range(4):
            for j in range(4 - i + 1):
                assert table.L[i][j] == pytest.approx(j * p, abs=1e-12)

    def test_base_case_and_recurrence(self):
        rng = random.Random(17)
        _, lm, passage = random_table_lm(rng)
        vocab = lm.vocab
        table = build_span_table(passage, empty(vocab), empty(vocab), lm)
        for i in range(table.n):
            assert table.L[i][0] == 0.0
            for j in range(1, table.n - i + 1):
                assert table.L[i][j] == table.L[i][j - 1] + table.ell[i][j - 1]

    def test_monotone_in_span_length(self):
        rng = random.Random(23)
        for _ in range(20):
            _, lm, passage = random_table_lm(rng)
            vocab = lm.vocab
            table = build_span_table(passage, empty(vocab), empty(vocab), lm)
            for i in range(table.n):
                row = table.L[i]
                assert all(a >= b for a, b in zip(row, row[1:]))

    def test_exactly_n_passes(self):
        vocab = bare_vocab(6)
        lm = TableLM(vocab)
        passage = vocab.seq((0, 1, 2, 3, 4, 0, 1))
        build_span_table(passage, empty(vocab), empty(vocab), lm)
        assert lm.pass_count() == 7

    def test_empty_passage_rejected(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        with pytest.raises(ValueError):
            build_span_table(empty(vocab), empty(vocab), empty(vocab), lm)


class TestExactExtract:
    def test_single_token_passage(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        result = exact_extract(vocab.seq((2,)), empty(vocab), empty(vocab), lm)
        assert (result.start, result.length) == (0, 1)

    def test_uniform_ties_break_to_first_shortest(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        passage = vocab.seq((0, 1, 2))
        result = exact_extract(passage, empty(vocab), empty(vocab), lm)
        assert (result.start, result.length) == (0, 1)
        assert result.span_logprob == pytest.approx(2 * math.log(0.25))

    def test_biased_table_selects_target_span(self):
        vocab, lm, passage = five_token_lm()
        result = exact_extract(passage, empty(vocab), empty(vocab), lm)
        oracle = naive_exact(passage, empty(vocab), empty(vocab), lm)
        assert (result.start, result.length) == (2, 2)
        assert (oracle.start, oracle.length) == (2, 2)
        assert result.span_logprob == pytest.approx(oracle.span_logprob, abs=1e-9)

    def test_passes_used_is_n(self):
        vocab, lm, passage = five_token_lm()
        result = exact_extract(passage, empty(vocab), empty(vocab), lm)
        assert result.passes_used == 5

    def test_max_span_len_cap(self):
        vocab, lm, passage = five_token_lm()
        cfg = DecodeConfig(max_span_len=1)
        result = exact_extract(passage, empty(vocab), empty(vocab), lm, cfg)
        assert result.length == 1
        oracle = naive_exact(passage, empty(vocab), empty(vocab), lm, cfg)
        assert (result.start, result.length) == (oracle.start, oracle.length)

    @pytest.mark.parametrize("cap", [None, 1, 3])
    def test_every_suffix_is_one_pass_through_the_base_class(self, monkeypatch, cap):
        # Wrapped on the class, as the benchmark's tracer counts passes and
        # forced tokens: a subclass that records its own calls would not see
        # a TableLM that stopped reaching Scorer.teacher_forced_pass.
        targets = []
        original = Scorer.teacher_forced_pass

        def recording(self, req):
            targets.append(req.forced_target)
            return original(self, req)

        monkeypatch.setattr(Scorer, "teacher_forced_pass", recording)
        rng = random.Random(43)
        longest = 0
        for _ in range(60):
            vocab, lm, passage = random_table_lm(rng, max_vocab=10, max_len=10)
            prefix = vocab.seq((rng.randrange(vocab.size),)) if rng.random() < 0.3 else empty(vocab)
            targets.clear()
            result = exact_extract(passage, empty(vocab), prefix, lm, DecodeConfig(max_span_len=cap))
            n = len(passage)
            assert len(targets) == result.passes_used == lm.pass_count() == n
            for i, target in enumerate(targets):
                k = len(target)
                assert 1 <= k <= min(cap or n, n - i)
                assert target == passage[i : i + k]
                longest = max(longest, k)
        # Some suffix is forced past its first token, where the cap allows.
        assert longest == 1 if cap == 1 else longest > 1

    def test_allow_empty_span(self):
        vocab = bare_vocab(4)
        term = vocab.terminator_id
        # Terminating immediately is far likelier than any span.
        lm = TableLM(vocab, default={term: 0.97, 0: 0.01, 1: 0.01, 2: 0.01})
        passage = vocab.seq((0, 1))
        cfg = DecodeConfig(allow_empty_span=True)
        result = exact_extract(passage, empty(vocab), empty(vocab), lm, cfg)
        assert (result.start, result.length) == (0, 0)
        assert result.text == ""
        without = exact_extract(passage, empty(vocab), empty(vocab), lm)
        assert without.length >= 1


class TestNaiveExact:
    def test_empty_passage_rejected(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        with pytest.raises(ValueError, match="^passage must contain at least one token$"):
            naive_exact(empty(vocab), empty(vocab), empty(vocab), lm)
        assert lm.pass_count() == 0

    def test_single_token_pass_count(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
        result = naive_exact(vocab.seq((1,)), empty(vocab), empty(vocab), lm)
        assert result.passes_used == 1
        assert (result.start, result.length) == (0, 1)

    def test_quadratic_pass_count(self):
        vocab = bare_vocab(6)
        lm = TableLM(vocab)
        result = naive_exact(vocab.seq((0, 1, 2, 3)), empty(vocab), empty(vocab), lm)
        assert result.passes_used == 10  # 4 * 5 / 2

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(41)
        for _ in range(150):
            _, lm, passage = random_table_lm(rng, max_vocab=10, max_len=8)
            vocab = lm.vocab
            exact = exact_extract(passage, empty(vocab), empty(vocab), lm)
            naive = naive_exact(passage, empty(vocab), empty(vocab), lm)
            assert (exact.start, exact.length) == (naive.start, naive.length)
            assert abs(exact.span_logprob - naive.span_logprob) <= 1e-9


class TestGreedyDecode:
    def test_immediate_terminator_gives_empty_nonextractive(self):
        vocab = bare_vocab(4)
        term = vocab.terminator_id
        lm = TableLM(vocab, default={term: 0.7, 0: 0.1, 1: 0.1, 2: 0.1})
        passage = vocab.seq((0, 1))
        result = greedy_decode(empty(vocab), empty(vocab), lm, passage=passage)
        assert result.text == ""
        assert not result.extractive
        assert result.start is None
        assert not result.truncated
        assert result.span_logprob == pytest.approx(math.log(0.7))

    def test_greedy_path_matches_exact_span(self):
        vocab = bare_vocab(8)
        term = vocab.terminator_id
        passage = vocab.seq((5, 1, 2, 3, 6))
        # Argmax path spells passage[1:3] then terminates.
        lm = TableLM(
            vocab,
            default={i: 0.1 for i in range(7)} | {term: 0.3},
            contexts={
                (): {1: 0.9, **{i: 0.1 / 7 for i in (0, 2, 3, 4, 5, 6)}, term: 0.1 / 7},
                (1,): {2: 0.9, **{i: 0.1 / 7 for i in (0, 3, 4, 5, 6)}, term: 0.1 / 7, 1: 0.1 / 7},
                (1, 2): {term: 0.9, **{i: 0.1 / 7 for i in range(7)}},
            },
        )
        greedy = greedy_decode(empty(vocab), empty(vocab), lm, passage=passage)
        oracle = naive_exact(passage, empty(vocab), empty(vocab), lm)
        assert greedy.text == oracle.text
        assert greedy.extractive
        assert (greedy.start, greedy.length) == (1, 2)

    def test_off_passage_token_marks_nonextractive(self):
        vocab = bare_vocab(8)
        term = vocab.terminator_id
        passage = vocab.seq((0, 1, 2))
        lm = TableLM(
            vocab,
            contexts={
                (): {6: 0.9, term: 0.1},  # token 6 never occurs in the passage
                (6,): {term: 1.0},
            },
            default={i: 1.0 / 8 for i in range(8)},
        )
        result = greedy_decode(empty(vocab), empty(vocab), lm, passage=passage)
        assert result.text == "t6"
        assert not result.extractive

    def test_truncation_flag(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab, default={0: 0.9, 1: 0.05, 2: 0.04, vocab.terminator_id: 0.01})
        cfg = DecodeConfig(max_greedy_steps=5)
        result = greedy_decode(empty(vocab), empty(vocab), lm, cfg)
        assert result.truncated
        assert result.passes_used == 5

    def test_self_consistency_with_teacher_forcing(self):
        rng = random.Random(53)
        for _ in range(30):
            _, lm, passage = random_table_lm(rng, max_vocab=8, max_len=6)
            vocab = lm.vocab
            result = greedy_decode(empty(vocab), empty(vocab), lm, passage=passage)
            scores = lm.teacher_forced_pass(
                ScoreRequest(empty(vocab), vocab.seq(result.token_ids), empty(vocab))
            )
            rescored = sum(scores.gold_logprob)
            if not result.truncated:
                rescored += scores.term_logprob[-1]
            assert abs(rescored - result.span_logprob) <= 1e-9


def test_decoders_sharing_a_scorer_report_their_own_passes():
    # Threads switch every microsecond, so the decoders' passes interleave
    # on the one scorer; each result still reports the passes it made.
    vocab = bare_vocab(6)
    lm = TableLM(vocab)
    passages = [vocab.seq(range(n)) for n in (1, 2, 3, 4, 5)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            exact = list(pool.map(lambda p: exact_extract(p, p, empty(vocab), lm), passages))
            naive = list(pool.map(lambda p: naive_exact(p, p, empty(vocab), lm), passages))
            greedy = list(pool.map(lambda p: greedy_decode(p, empty(vocab), lm), passages))
    finally:
        sys.setswitchinterval(interval)
    assert [r.passes_used for r in exact] == [len(p) for p in passages]
    assert [r.passes_used for r in naive] == [len(p) * (len(p) + 1) // 2 for p in passages]
    assert all(r.passes_used == len(r.token_ids) + (not r.truncated) for r in greedy)
    assert lm.pass_count() == sum(r.passes_used for r in exact + naive + greedy)


class TestConfigValidation:
    def test_bad_greedy_steps(self):
        with pytest.raises(ValueError):
            DecodeConfig(max_greedy_steps=0)

    def test_bad_span_cap(self):
        with pytest.raises(ValueError):
            DecodeConfig(max_span_len=0)

    @pytest.mark.parametrize("value", [2.5, 1.0, True, "3", -1, None])
    def test_greedy_steps_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="max_greedy_steps"):
            DecodeConfig(max_greedy_steps=value)

    @pytest.mark.parametrize("value", [2.5, 1.0, True, "3", -1])
    def test_span_cap_must_be_an_int_or_none(self, value):
        with pytest.raises(ValueError, match="max_span_len"):
            DecodeConfig(max_span_len=value)
        assert DecodeConfig(max_span_len=None).max_span_len is None
