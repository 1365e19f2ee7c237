import json
import math
import random
import re

import pytest

from spandecode.decoding import DecodeConfig, naive_exact
from spandecode.scorer import NEG_INF, ScoreRequest, Scorer, ScorerError, StepScores, TableLM, best_span_of
from spandecode.vocab import TokenSeq, VocabularyMismatchError

from conftest import LoopbackScorer, RecordingTableLM, bare_vocab, random_distribution


def make_request(vocab, target_ids, prefix_ids=(), source_ids=()):
    return ScoreRequest(
        source=vocab.seq(source_ids),
        forced_target=vocab.seq(target_ids),
        forced_prefix=vocab.seq(prefix_ids),
    )


class TestTeacherForcedPass:
    def test_empty_target_still_scores_terminator(self):
        vocab = bare_vocab(4)
        lm = TableLM.uniform(vocab)
        scores = lm.teacher_forced_pass(make_request(vocab, ()))
        assert scores.gold_logprob == ()
        assert len(scores.term_logprob) == 1
        assert scores.term_logprob[0] == pytest.approx(math.log(0.25))

    def test_table_entries_read_back_exactly(self):
        vocab = bare_vocab(4)
        term = vocab.terminator_id
        lm = TableLM(
            vocab,
            contexts={
                (): {0: 0.5, term: 0.25, 1: 0.25},
                (0,): {term: 1.0},
            },
        )
        scores = lm.teacher_forced_pass(make_request(vocab, (0,)))
        assert scores.gold_logprob == (math.log(0.5),)
        assert scores.term_logprob == (math.log(0.25), 0.0)

    def test_uniform_all_entries_equal(self):
        vocab = bare_vocab(4)
        lm = TableLM.uniform(vocab)
        scores = lm.teacher_forced_pass(make_request(vocab, (0, 1, 2)))
        assert all(g == pytest.approx(math.log(0.25)) for g in scores.gold_logprob)
        assert len(scores.gold_logprob) == 3
        assert len(scores.term_logprob) == 4

    def test_all_entries_nonpositive(self):
        rng = random.Random(3)
        vocab = bare_vocab(6)
        lm = TableLM(vocab, default=random_distribution(rng, 6))
        scores = lm.teacher_forced_pass(make_request(vocab, (1, 2, 3, 4)))
        assert all(g <= 0 for g in scores.gold_logprob)
        assert all(t <= 0 for t in scores.term_logprob)

    def test_vocab_mismatch(self):
        vocab = bare_vocab(4)
        lm = TableLM.uniform(vocab)
        alien = TokenSeq((0,), "deadbeef")
        with pytest.raises(VocabularyMismatchError):
            lm.teacher_forced_pass(ScoreRequest(alien, alien, alien))


class TestNextTokenDistribution:
    def test_uniform(self):
        vocab = bare_vocab(5)
        lm = TableLM.uniform(vocab)
        dist = lm.next_token_distribution(vocab.seq(()), vocab.seq((1, 2)))
        assert all(v == pytest.approx(math.log(0.2)) for v in dist)

    def test_listed_context(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab, contexts={(): {0: 0.5, 3: 0.25, 1: 0.25}})
        dist = lm.next_token_distribution(vocab.seq(()), vocab.seq(()))
        assert dist[0] == math.log(0.5)
        assert dist[2] == NEG_INF

    def test_unlisted_context_falls_back_to_default(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab, contexts={(0,): {1: 1.0}})
        dist = lm.next_token_distribution(vocab.seq(()), vocab.seq((3, 3, 3)))
        assert dist == [math.log(0.25)] * 4

    def test_source_pinned_context_beats_wildcard(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab, contexts={(): {0: 1.0}, (((1,)), ()): {2: 1.0}})
        assert lm.next_token_distribution(vocab.seq((1,)), vocab.seq(()))[2] == 0.0
        assert lm.next_token_distribution(vocab.seq((2,)), vocab.seq(()))[0] == 0.0

    def test_normalization_property(self):
        rng = random.Random(5)
        for _ in range(50):
            size = rng.randint(2, 12)
            vocab = bare_vocab(size)
            lm = TableLM(vocab, default=random_distribution(rng, size))
            dist = lm.next_token_distribution(vocab.seq(()), vocab.seq(()))
            assert sum(math.exp(v) for v in dist) == pytest.approx(1.0, abs=1e-9)


class TestPassAccounting:
    def test_counter_lifecycle(self):
        vocab = bare_vocab(4)
        lm = TableLM.uniform(vocab)
        assert lm.pass_count() == 0
        lm.teacher_forced_pass(make_request(vocab, (0, 1)))
        assert lm.pass_count() == 1
        lm.next_token_distribution(vocab.seq(()), vocab.seq(()))
        assert lm.pass_count() == 2
        lm.reset_passes()
        assert lm.pass_count() == 0

    def test_one_pass_regardless_of_target_length(self):
        vocab = bare_vocab(4)
        lm = TableLM.uniform(vocab)
        lm.teacher_forced_pass(make_request(vocab, tuple([0] * 50)))
        assert lm.pass_count() == 1


class TestTerminatorSet:
    def test_logsum_over_terminator_set(self):
        vocab = bare_vocab(4)
        # Terminate on token 2 or the real terminator: probabilities add.
        lm = TableLM(
            vocab,
            contexts={(): {2: 0.25, 3: 0.25, 0: 0.5}},
            terminator_ids={2, 3},
        )
        scores = lm.teacher_forced_pass(make_request(vocab, ()))
        assert scores.term_logprob[0] == pytest.approx(math.log(0.5))


class TestTableValidation:
    def test_unnormalized_distribution_rejected(self):
        vocab = bare_vocab(4)
        with pytest.raises(ValueError):
            TableLM(vocab, contexts={(): {0: 0.5, 1: 0.4}})

    def test_out_of_range_token_rejected(self):
        vocab = bare_vocab(4)
        with pytest.raises(ValueError):
            TableLM(vocab, contexts={(): {7: 1.0}})

    @pytest.mark.parametrize(
        "dist, message",
        [
            # NaN passes the sum check: abs(nan - 1.0) > tol is False.
            ({0: math.nan, 1: 0.5, 2: 0.5}, "probability nan of token 0 is not finite"),
            ({1: 0.5, 2: math.inf}, "probability inf of token 2 is not finite"),
            ({0: -math.inf, 1: 1.0}, "probability -inf of token 0 is not finite"),
        ],
    )
    def test_non_finite_probability_rejected(self, dist, message):
        vocab = bare_vocab(4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TableLM(vocab, default=dist)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TableLM(vocab, contexts={(0,): dist})

    def test_negative_probability_rejected(self):
        vocab = bare_vocab(4)
        with pytest.raises(ValueError, match="^negative probability$"):
            TableLM(vocab, default={0: 1.5, 1: -0.5})


    @pytest.mark.parametrize(
        "key, bad",
        [
            # Each was read as context (1, 1), or keyed a child no lookup reaches.
            ((True, 1.9), "True"),
            ((1, 1.0), "1.0"),
            (("1",), "'1'"),
            (((0,), ("1",)), "'1'"),
            (((False,), (1,)), "False"),
            ((-1,), "-1"),
            (((0,), (4 + 256,)), "260"),
        ],
        ids=["bool-and-float", "float", "str", "pinned-str", "pinned-bool-source", "negative", "past-the-bytes"],
    )
    def test_context_key_no_request_reaches_rejected(self, key, bad):
        lm = TableLM(bare_vocab(4))
        with pytest.raises(ValueError, match=f"^context key {re.escape(repr(key))} holds {re.escape(bad)}, not"):
            lm.set_context(key, {0: 1.0})
        assert lm.next_token_distribution(lm.vocab.seq(()), lm.vocab.seq((1, 1))) == lm._default[0]

    def test_context_key_of_byte_ids_and_empty_parts_accepted(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab, contexts={(4 + 255,): {0: 1.0}, ((), ()): {1: 1.0}})
        lm.set_context([[4 + 255], [0]], {2: 1.0})
        peak = [lm.next_token_distribution(vocab.seq(s), vocab.seq(p)).index(0.0) for s, p in
                [((0,), (4 + 255,)), ((), ()), ((4 + 255,), (0,))]]
        assert peak == [0, 1, 2]


class TestFileFormat:
    def test_load_table_file(self, tmp_path):
        vocab = bare_vocab(4)
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(
                {
                    "*#": {"0": 0.5, "3": 0.5},
                    "*#0": {"3": 1.0},
                    "1,2#0,1": {"2": 1.0},
                    "default": {"0": 0.25, "1": 0.25, "2": 0.25, "3": 0.25},
                }
            )
        )
        lm = TableLM.from_file(path, vocab)
        assert lm.next_token_distribution(vocab.seq(()), vocab.seq(()))[0] == math.log(0.5)
        assert lm.next_token_distribution(vocab.seq(()), vocab.seq((0,)))[3] == 0.0
        assert lm.next_token_distribution(vocab.seq((1, 2)), vocab.seq((0, 1)))[2] == 0.0
        assert lm.next_token_distribution(vocab.seq(()), vocab.seq((2, 2)))[1] == math.log(0.25)


class Scripted(TableLM):
    """Returns the table model's scores with one step or entry replaced."""

    def __init__(self, vocab, gold=None, term=None, dist=None):
        super().__init__(vocab)
        self.gold, self.term, self.dist = gold, term, dist

    def _score_forced(self, req):
        scores = super()._score_forced(req)
        return StepScores(
            scores.gold_logprob if self.gold is None else self.gold,
            scores.term_logprob if self.term is None else self.term,
        )

    def _next_dist(self, source, prefix):
        return super()._next_dist(source, prefix) if self.dist is None else self.dist


class TestScorerBoundary:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    def test_invalid_gold_step_rejected(self, bad):
        vocab = bare_vocab(4)
        lm = Scripted(vocab, gold=(-1.0, bad))
        with pytest.raises(ScorerError):
            lm.teacher_forced_pass(make_request(vocab, (0, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-3])
    def test_invalid_terminator_step_rejected(self, bad):
        vocab = bare_vocab(4)
        lm = Scripted(vocab, term=(bad, -1.0, -1.0))
        with pytest.raises(ScorerError):
            lm.teacher_forced_pass(make_request(vocab, (0, 1)))

    def test_nan_beside_minus_inf_rejected(self):
        vocab = bare_vocab(4)
        lm = Scripted(vocab, gold=(NEG_INF, math.nan))
        with pytest.raises(ScorerError):
            lm.teacher_forced_pass(make_request(vocab, (0, 1)))

    @pytest.mark.parametrize("gold, term", [((-1.0,), (-1.0, -1.0, -1.0)), ((-1.0, -1.0), (-1.0,))])
    def test_wrong_lengths_rejected(self, gold, term):
        vocab = bare_vocab(4)
        with pytest.raises(ScorerError):
            Scripted(vocab, gold=gold, term=term).teacher_forced_pass(make_request(vocab, (0, 1)))

    def test_minus_inf_and_rounding_above_zero_accepted(self):
        vocab = bare_vocab(4)
        lm = Scripted(vocab, gold=(NEG_INF, 1e-12), term=(NEG_INF, 0.0, -0.0))
        scores = lm.teacher_forced_pass(make_request(vocab, (0, 1)))
        assert scores.gold_logprob == (NEG_INF, 1e-12)

    @pytest.mark.parametrize(
        "dist", [[math.nan, -1.0, -1.0, -1.0], [-1.0, math.inf, NEG_INF, -1.0], [0.1] * 4, [-1.0] * 3]
    )
    def test_invalid_distribution_rejected(self, dist):
        vocab = bare_vocab(4)
        with pytest.raises(ScorerError):
            Scripted(vocab, dist=dist).next_token_distribution(vocab.seq(()), vocab.seq(()))
        # A subclass that overrides _next_dist leaves TableLM's stored
        # argmaxes for the generic loop over the checked distributions.
        with pytest.raises(ScorerError):
            Scripted(vocab, dist=dist).greedy_steps(vocab.seq(()), vocab.seq(()), 3)

    def test_rejected_pass_still_counts(self):
        vocab = bare_vocab(4)
        lm = Scripted(vocab, dist=[math.nan] * 4)
        with pytest.raises(ScorerError):
            lm.next_token_distribution(vocab.seq(()), vocab.seq(()))
        assert lm.pass_count() == 1

    @pytest.mark.parametrize(
        "target, gold, term, message",
        [
            pytest.param((0, 1), (-1.0, math.inf), (NEG_INF, -1.0, -1.0),
                         "forced log-probs hold NaN or +inf", id="inf-gold-beside-minus-inf-term"),
            pytest.param((0, 1), (NEG_INF, NEG_INF), (-1.0, math.nan, -1.0),
                         "forced log-probs hold NaN or +inf", id="nan-term-beside-minus-inf-gold"),
            pytest.param((), (), (0.5,),
                         "forced log-probs hold a positive log-probability 0.5", id="positive-term-empty-target"),
            pytest.param((0, 1), (-1.0, 0.25), (-1.0, math.nan, -1.0),
                         "forced log-probs hold a positive log-probability 0.25", id="gold-fault-named-first"),
            pytest.param((0, 1), (math.nan,), (math.nan, math.inf, 0.5),
                         "scorer returned 1/3 scores for a target of length 2", id="short-gold-before-values"),
            pytest.param((0, 1), (-1.0, 0.5), (math.nan, -1.0),
                         "scorer returned 2/2 scores for a target of length 2", id="short-term-before-values"),
        ],
    )
    def test_forced_check_boundaries(self, target, gold, term, message):
        # Both tuples are checked by one set of reductions; each fault keeps
        # the message the per-tuple checks give, lengths first, gold first,
        # and a rejected pass still counts.
        vocab = bare_vocab(4)
        lm = Scripted(vocab, gold=gold, term=term)
        with pytest.raises(ScorerError) as info:
            lm.teacher_forced_pass(make_request(vocab, target))
        assert str(info.value) == message
        assert lm.pass_count() == 1

    def test_terminator_outside_piece_vocabulary_rejected(self):
        vocab = bare_vocab(4)
        with pytest.raises(ValueError):
            TableLM(vocab, terminator_ids={vocab.byte_id(0)})


class ScriptedRows(Scorer):
    """Answers the pass of the suffix starting at token i, of a passage
    0, 1, ..., n - 1, with the first m gold and m + 1 terminator entries
    of ``rows[i]``."""

    def __init__(self, vocab, rows):
        super().__init__(vocab)
        self.rows = rows

    def _score_forced(self, req):
        target = req.forced_target.ids
        gold, term = self.rows[target[0]]
        return StepScores(gold[: len(target)], term[: len(target) + 1])


X = NEG_INF
# Each case: the rows of a passage of three tokens, whether the empty span
# is allowed, and the (start, length, log-prob) that must win.
BEST_SPAN_CASES = {
    "all-minus-inf": ([((X, X, X), (X, X, X, X)), ((X, X), (X, X, X)), ((X,), (X, X))], False, (0, 1, X)),
    "all-minus-inf-empty-allowed": (
        [((X, X, X), (X, X, X, X)), ((X, X), (X, X, X)), ((X,), (X, X))], True, (0, 0, X)
    ),
    # (0, 0) and (0, 1) both score -2.
    "empty-span-wins-its-tie": (
        [((-1.0, -1.0, -1.0), (-2.0, -1.0, -9.0, -9.0)), ((-9.0, -9.0), (-9.0,) * 3), ((-9.0,), (-9.0,) * 2)],
        True,
        (0, 0, -2.0),
    ),
    "empty-span-not-allowed": (
        [((-1.0, -1.0, -1.0), (-2.0, -1.0, -9.0, -9.0)), ((-9.0, -9.0), (-9.0,) * 3), ((-9.0,), (-9.0,) * 2)],
        False,
        (0, 1, -2.0),
    ),
    # (1, 1) and (2, 1) both score -2.
    "earlier-start-wins-a-tie": (
        [((-5.0, -5.0, -5.0), (X, -5.0, -9.0, -9.0)), ((-1.0, -5.0), (X, -1.0, -9.0)), ((-1.0,), (X, -1.0))],
        False,
        (1, 1, -2.0),
    ),
    # (0, 1) and (0, 2) both score -1.
    "shorter-span-wins-a-tie": (
        [((0.0, 0.0, -1.0), (X, -1.0, -1.0, -1.0)), ((-5.0, -5.0), (X, -5.0, -5.0)), ((-5.0,), (X, -5.0))],
        False,
        (0, 1, -1.0),
    ),
}


class TestBestSpanOf:
    @pytest.mark.parametrize("case", BEST_SPAN_CASES.values(), ids=BEST_SPAN_CASES.keys())
    def test_rows(self, case):
        rows, allow, want = case
        got = best_span_of([StepScores(*row) for row in rows], allow)
        assert got[:2] == want[:2] and got[2].hex() == want[2].hex()

    @pytest.mark.parametrize("wire", ["in-process", "packed", "lists"])
    @pytest.mark.parametrize("case", BEST_SPAN_CASES.values(), ids=BEST_SPAN_CASES.keys())
    def test_scorer_best_span(self, case, wire):
        rows, allow, want = case
        vocab = bare_vocab(5)
        scorer = ScriptedRows(vocab, rows)
        if wire != "in-process":
            # "packed": the request also carries the floats field of earlier clients.
            scorer = LoopbackScorer(scorer, old_client=wire == "packed")
        empty = vocab.seq(())
        got = scorer.best_span(empty, empty, vocab.seq((0, 1, 2)), None, allow)
        assert got[:2] == want[:2] and got[2].hex() == want[2].hex()
        assert scorer.pass_count() == 3
        if wire != "in-process":
            assert scorer.ops() == ["extract"]


def naive_span(lm, source, prefix, passage, cap=None, allow=False):
    result = naive_exact(passage, source, prefix, lm, DecodeConfig(max_span_len=cap, allow_empty_span=allow))
    return result.start, result.length, result.span_logprob.hex()


def hexed(span):
    start, length, logprob = span
    return start, length, logprob.hex()


class NanPastReach(TableLM):
    """Rescores: puts NaN at the last step of every pass longer than one."""

    def _score_forced(self, req):
        scores = super()._score_forced(req)
        gold = scores.gold_logprob
        if len(gold) > 1:
            gold = gold[:-1] + (math.nan,)
        return StepScores(gold, scores.term_logprob)


class TestTableBestSpan:
    """TableLM.best_span forces each suffix only as far as its contexts
    reach into the tables, and full suffixes where that could change the
    answer."""

    def setup_model(self):
        vocab = bare_vocab(5)
        term = vocab.terminator_id
        lm = RecordingTableLM(vocab, contexts={(): {1: 0.5, 2: 0.25, term: 0.25}, (1,): {2: 0.75, term: 0.25}})
        return vocab, lm, vocab.seq((0,)), vocab.seq(()), vocab.seq((1, 2, 3, 1, 2))

    @pytest.mark.parametrize("cap, forced", [(None, [2, 1, 1, 2, 1]), (1, [1] * 5), (3, [2, 1, 1, 2, 1])])
    def test_each_suffix_stops_at_the_first_context_outside_the_tables(self, cap, forced):
        vocab, lm, source, prefix, passage = self.setup_model()
        got = lm.best_span(source, prefix, passage, cap)
        assert lm.forced == forced and lm.pass_count() == 5
        assert hexed(got) == hexed(Scorer.best_span(lm, source, prefix, passage, cap))
        assert hexed(got) == naive_span(lm, source, prefix, passage, cap)

    @pytest.mark.parametrize("loaded", [False, True])
    def test_default_above_one_forces_full_suffixes(self, tmp_path, loaded):
        # Token 0, the terminator, has probability 1 + 5e-13 (within the
        # sum tolerance), so every span grows with its length and the whole
        # passage wins, though no context lies in a table.
        vocab = bare_vocab(4)
        if loaded:
            path = tmp_path / "table.json"
            path.write_text(json.dumps({"default": {"0": 1 + 5e-13}}), encoding="utf-8")
            lm = RecordingTableLM.from_file(path, vocab, terminator_ids={0})
        else:
            lm = RecordingTableLM(vocab, default={0: 1 + 5e-13}, terminator_ids={0})
        empty, passage = vocab.seq(()), vocab.seq((0, 0, 0))
        got = lm.best_span(empty, empty, passage)
        assert lm.forced == [3, 2, 1]
        assert got[:2] == (0, 3) and got[2] > 0
        assert hexed(got) == naive_span(lm, empty, empty, passage)

    def test_a_rescoring_subclass_forces_full_suffixes(self):
        # No context lies in a table, so a cut would force one token per
        # suffix and never see the NaN at the last step.
        vocab = bare_vocab(5)
        lm = NanPastReach(vocab)
        empty = vocab.seq(())
        with pytest.raises(ScorerError, match="NaN"):
            lm.best_span(empty, empty, vocab.seq((1, 2, 3)))
        assert lm.pass_count() == 1
