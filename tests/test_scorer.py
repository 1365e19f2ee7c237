import copy
import dataclasses
import json
import math
import pickle
import random
import re
import weakref
from fractions import Fraction

import pytest

from spandecode.decoding import DecodeConfig, naive_exact
from spandecode.mrqa import DataError
from spandecode.scorer import _READ_SIZE, DIST_SUM_TOL, NEG_INF, ScoreRequest, Scorer, ScorerError, StepScores, TableLM, best_span_of, logsumexp
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
        lm = TableLM(vocab)
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
        lm = TableLM(vocab)
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
        lm = TableLM(vocab)
        alien = TokenSeq((0,), "deadbeef")
        with pytest.raises(VocabularyMismatchError):
            lm.teacher_forced_pass(ScoreRequest(alien, alien, alien))


class TestNextTokenDistribution:
    def test_uniform(self):
        vocab = bare_vocab(5)
        lm = TableLM(vocab)
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
        lm = TableLM(vocab)
        assert lm.pass_count() == 0
        lm.teacher_forced_pass(make_request(vocab, (0, 1)))
        assert lm.pass_count() == 1
        lm.next_token_distribution(vocab.seq(()), vocab.seq(()))
        assert lm.pass_count() == 2

    def test_one_pass_regardless_of_target_length(self):
        vocab = bare_vocab(4)
        lm = TableLM(vocab)
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

    @pytest.mark.parametrize(
        "values",
        [
            [math.log(p) for p in (0.09608804055518887, 1.054438966176656e-54, 0.04363237654542032)],
            [math.log(0.1)] * 10,
            # 1 + exp(-0.172) is a tie, rounded to even, and exp(-700) breaks
            # it: a plain sum, compensated (3.12+) or not, rounds it down.
            [0.0, -0.172, -700.0],
        ],
    )
    def test_logsumexp_pools_a_correctly_rounded_sum(self, values):
        hi = max(values)
        exact = sum(Fraction(math.exp(v - hi)) for v in values)
        assert logsumexp(iter(values)).hex() == (hi + math.log(float(exact))).hex()


class TestTableValidation:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_uniform_default_equals_the_int_keyed_spelling(self, n):
        # The built default takes the dense path, the int keys the general one.
        vocab = bare_vocab(n)
        built = TableLM(vocab)._default
        general = TableLM(vocab, default={i: 1 / n for i in range(n)})._default
        assert [x.hex() for x in built[0]] == [x.hex() for x in general[0]]
        assert (built[1].hex(), built[2], built[3].hex()) == (general[1].hex(), general[2], general[3].hex())

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

    @pytest.mark.parametrize(
        "key, item",
        [("*#1_0", "1_0"), ("*# 2,+3", " 2"), ("*#0,+3", "+3"), ("*#3 ", "3 "), ("1_0#0", "1_0"),
         ("*#\u0663", "\u0663"), ("\uff11#", "\uff11")],
        ids=["underscore", "space", "plus", "trailing-space", "source-underscore", "arabic-indic", "fullwidth"],
    )
    def test_table_file_key_ids_are_ascii_decimal_digits(self, tmp_path, key, item):
        # int() reads each of these ids, so each key used to register
        # another context than the one written, with no error.
        path = tmp_path / "table.json"
        path.write_text(json.dumps({key: {"0": 1.0}}), encoding="utf-8")
        message = f"{path}: context key {key!r}: {item!r} is not a decimal token id"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TableLM.from_file(path, bare_vocab(4))

    @pytest.mark.parametrize(
        "item", ["1_0", " 3", "+4", "3 ", "-1", "", "\u0665", "\uff11"],
        ids=["underscore", "space", "plus", "trailing-space", "minus", "empty", "arabic-indic", "fullwidth"],
    )
    def test_table_file_distribution_ids_are_ascii_decimal_digits(self, tmp_path, item):
        # int() reads all but the empty id, so each was loaded as another
        # token than the one written, with no error.
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"*#": {item: 1.0}}), encoding="utf-8")
        message = f"{path}: distribution '*#': {item!r} is not a decimal token id"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TableLM.from_file(path, bare_vocab(4))

    @pytest.mark.parametrize("token", [True, False, 1.0, None, (1,)], ids=repr)
    def test_distribution_ids_given_in_code_are_ints(self, token):
        # int() read True, False and 1.0 as ids 1, 0 and 1.
        message = f"^{re.escape(repr(token))} is not a decimal token id$"
        with pytest.raises(ValueError, match=message):
            TableLM(bare_vocab(4), default={token: 1.0})
        lm = TableLM(bare_vocab(4))
        with pytest.raises(ValueError, match=message):
            lm.set_context((0,), {token: 1.0})
        assert lm._any_source == [None, {}]

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


def _key_ids(part):
    return tuple(int(t) for t in part.split(",")) if part else ()


def _entry_at(lm, key):
    """The entry registered under table-file ``key``, read off the trees."""
    if key == "default":
        return lm._default
    source, _, prefix = key.partition("#")
    node = lm._any_source if source == "*" else lm._by_source[_key_ids(source)]
    for token in _key_ids(prefix):
        node = node[1][token]
    return node[0]


def _hexed(entry):
    logdist, term, token, top = entry
    return [x.hex() for x in logdist], term.hex(), token, top.hex()


class TestFileLoading:
    """``from_file`` parses the file once, making each entry as it goes:
    the same entries as ``set_context``, and the same faults in the same
    order as loading the plainly parsed file, save for a table that is
    itself one distribution."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_equal_those_set_context_builds(self, tmp_path, seed):
        rng = random.Random(seed)
        size = 12
        vocab = bare_vocab(size)

        def dist():
            if rng.random() < 0.2:
                return {str(rng.randrange(size)): 1.0}
            peak, rest = rng.randrange(size), rng.choice([0.5, 0.25, 0.125]) / (size - 1)
            return {str(t): 1.0 - rest * (size - 1) if t == peak else rest for t in range(size)}

        keys = ["default", "*#", "*#0", "*#0,3", "*#0,3,3", "1,2#", "1,2#5", "7#0,0", "256,11#11"]
        table = {key: dist() for key in keys}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        loaded = TableLM.from_file(path, vocab)

        plain = json.loads(path.read_text(encoding="utf-8"))
        built = TableLM(vocab, default=plain.pop("default"))
        for key, value in plain.items():
            source, _, prefix = key.partition("#")
            built.set_context(_key_ids(prefix) if source == "*" else (_key_ids(source), _key_ids(prefix)), value)

        for key, value in table.items():
            entry = _entry_at(loaded, key)
            assert _hexed(entry) == _hexed(_entry_at(built, key))
            # One float per distinct probability, shared by every entry.
            for token, prob in value.items():
                assert entry[0][int(token)] is loaded._logs[prob]

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('{"*#x": {"0": 1}, "default": {"0": 0.5}}',
                         "distribution 'default': probabilities sum to 0.5, expected 1.0", id="default-first"),
            pytest.param('{"*#0": {"0": 0.5}, "*#x": {"0": 1}}',
                         "distribution '*#0': probabilities sum to 0.5, expected 1.0", id="file-order"),
            pytest.param('{"*#x": {"0": 0.5}}', "context key '*#x': 'x' is not a decimal token id",
                         id="malformed-key-first"),
            pytest.param('{"*#99999": {"0": 0.5}}', "context key (99999,) holds 99999, not a token id",
                         id="unreachable-key-first"),
            pytest.param('{"*#99999": [0.5]}', "distribution '*#99999' must be an object, not list",
                         id="list-before-unreachable-key"),
            pytest.param('{"*#": [0.5, 0.5]}', "distribution '*#' must be an object, not list", id="list"),
            pytest.param('{"*#": {"0": {"a": 1}}}', "distribution '*#': probability of token 0 is an object, not a number",
                         id="nested-object"),
            # The inner object is a distribution, so the parse makes it an entry.
            pytest.param('{"*#": {"0": {"0": 1.0}}}',
                         "distribution '*#': probability of token 0 is an object, not a number",
                         id="nested-distribution"),
            pytest.param('{"*#": {"0": 0.5, "1": true}}', "distribution '*#': probability of token 1 is a boolean, not a number",
                         id="bool"),
            pytest.param('{"*#": {"0": "1"}}', "distribution '*#': probability of token 0 is '1', not a number",
                         id="string"),
            pytest.param('{"default": null, "*#x": {"0": 1}}', "distribution 'default' must be an object, not NoneType",
                         id="null-default"),
            pytest.param('{"*#0": {"1": 1.0}, "*#0": {"0": 0.5}}',
                         "distribution '*#0': probabilities sum to 0.5, expected 1.0", id="duplicate-last-invalid"),
            pytest.param('[{"0": 1.0}]', "table must be a JSON object of distributions, not list",
                         id="list-of-distributions"),
        ],
    )
    def test_faults_are_named_as_in_the_plainly_parsed_file(self, tmp_path, text, message):
        path = tmp_path / "table.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            TableLM.from_file(path, bare_vocab(4))
        # The reference: the whole file parsed first, then loaded.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TableLM(bare_vocab(4))._load(json.loads(text))

    def test_table_that_is_one_distribution_is_named_so(self, tmp_path):
        # The parse makes the top-level object an entry before it is seen
        # to be the table.
        path = tmp_path / "table.json"
        path.write_text('{"0": 0.5, "1": 0.5}', encoding="utf-8")
        message = f"{path}: table must be a JSON object of distributions, not one distribution"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            TableLM.from_file(path, bare_vocab(4))

    def test_parsed_file_never_holds_all_its_distributions(self, tmp_path):
        import tracemalloc

        size = 201
        vocab = bare_vocab(size)
        table = {f"*#{k}": {str(t): 0.5 if t == k else 0.0025 for t in range(size)} for k in range(60)}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table, separators=(",", ":")), encoding="utf-8")

        def plain():
            # Parse the whole file, then make the entries.
            lm = TableLM(vocab)
            with open(path, encoding="utf-8") as f:
                lm._load(json.load(f))

        def peak(load):
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The 60 parsed dicts take several times what the file's text, the
        # entries and one dict at a time do (about 0.86 MB against 0.31 MB).
        assert peak(lambda: TableLM.from_file(path, vocab)) < peak(plain) / 2

    def test_load_holds_what_it_keeps_and_about_one_read(self, tmp_path):
        import tracemalloc

        size = 201
        vocab = bare_vocab(size)
        table = {f"*#{k}": {str(t): 0.5 if t == k % size else 0.0025 for t in range(size)} for k in range(400)}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table, separators=(",", ":")), encoding="utf-8")
        assert path.stat().st_size > 1_000_000

        tracemalloc.start()
        try:
            lm = TableLM.from_file(path, vocab)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lm._any_source[1]) == 400
        # About 1.8 reads above what the model keeps (0.85 MB); the file's
        # text read whole would be more than 1 MB above it.
        assert peak - kept < 4 * _READ_SIZE

    def test_duplicate_key_keeps_its_last_value(self, tmp_path):
        vocab = bare_vocab(4)
        path = tmp_path / "table.json"
        path.write_text('{"*#0": {"0": 0.5}, "*#0": {"1": 1.0}}', encoding="utf-8")
        lm = TableLM.from_file(path, vocab)
        assert lm.next_token_distribution(vocab.seq(()), vocab.seq((0,))) == [NEG_INF, 0.0, NEG_INF, NEG_INF]

    def test_empty_table_is_uniform(self, tmp_path):
        vocab = bare_vocab(4)
        path = tmp_path / "table.json"
        path.write_text("{}", encoding="utf-8")
        lm = TableLM.from_file(path, vocab)
        assert _hexed(lm._default) == _hexed(TableLM(vocab)._default)
        assert lm._any_source == [None, {}] and lm._by_source == {}

    def test_loads_over_a_vocabulary_whose_uniform_default_sums_plainly_off_one(self, tmp_path):
        # Before its file is read, a load builds the uniform default, whose
        # 100,000 probabilities sum plainly (Python 3.10 and 3.11) to about
        # 1 - 1.9e-12, outside the tolerance; their exact sum is within it.
        vocab = bare_vocab(100_000)
        path = tmp_path / "table.json"
        path.write_text('{"default": {"0": 1.0}}\n', encoding="utf-8")
        lm = TableLM.from_file(path, vocab)
        assert lm._default[0][0] == 0.0 and lm._default[0].count(NEG_INF) == 99_999


    def test_refuses_a_default_whose_exact_sum_is_off_one_though_its_plain_sum_is_not(self):
        # 50,000 probabilities of (1 - 1.7e-12) / 50,000 sum plainly to about
        # 1 - 3.9e-13 on Python 3.10 and 3.11, inside the tolerance, and
        # exactly to 1 - 1.7e-12, outside it: refused on every Python.
        size = 50_000
        prob = (1 - 1.7e-12) / size
        assert abs(math.fsum([prob] * size) - 1.0) > DIST_SUM_TOL
        with pytest.raises(ValueError, match="probabilities sum to 0.99999999999"):
            TableLM(bare_vocab(size), default=dict.fromkeys(range(size), prob))

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


class WeakRow(StepScores):
    """Step scores that a weak reference can follow."""

    __slots__ = ("__weakref__",)


class ScriptedRows(Scorer):
    """Answers the pass of the suffix starting at token i, of a passage
    0, 1, ..., n - 1, with the first m gold and m + 1 terminator entries
    of ``rows[i]``. ``most_held`` is the most rows it returned that were
    still alive when it scored another."""

    def __init__(self, vocab, rows):
        super().__init__(vocab)
        self.rows = rows
        self.returned = []
        self.most_held = 0

    def _score_forced(self, req):
        self.most_held = max(self.most_held, sum(ref() is not None for ref in self.returned))
        target = req.forced_target.ids
        gold, term = self.rows[target[0]]
        row = WeakRow(gold[: len(target)], term[: len(target) + 1])
        self.returned.append(weakref.ref(row))
        return row


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
        scorer = scripted = ScriptedRows(vocab, rows)
        if wire != "in-process":
            # "packed": the request also carries the floats field of earlier clients.
            scorer = LoopbackScorer(scorer, old_client=wire == "packed")
        empty = vocab.seq(())
        got = scorer.best_span(empty, empty, vocab.seq((0, 1, 2)), None, allow)
        assert got[:2] == want[:2] and got[2].hex() == want[2].hex()
        assert scorer.pass_count() == 3
        # Each row is taken as it is scored: no pass finds more than the one before it alive.
        assert scripted.most_held == 1
        if wire != "in-process":
            assert scorer.ops() == ["extract"]


# Each record's field values, in field order, and other values for them.
RECORD_VALUES = {
    "TokenSeq": (TokenSeq, lambda vocab: ((0, 1), vocab.vocab_id), lambda vocab: ((2,), "deadbeef")),
    "ScoreRequest": (
        ScoreRequest,
        lambda vocab: (vocab.seq((3,)), vocab.seq((0, 1)), vocab.seq((2,))),
        lambda vocab: (vocab.seq(()), vocab.seq((4,)), vocab.seq((1, 1))),
    ),
    "StepScores": (StepScores, lambda vocab: ((-1.0, -0.5), (-2.0, NEG_INF, -0.25)), lambda vocab: ((), (0.0,))),
}


@pytest.mark.parametrize("cls, values, others", RECORD_VALUES.values(), ids=RECORD_VALUES.keys())
def test_per_pass_records_are_frozen_values(cls, values, others):
    vocab = bare_vocab(5)
    values, others = values(vocab), others(vocab)
    names = [field.name for field in dataclasses.fields(cls)]
    record = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert record is not keyword and record == keyword and hash(record) == hash(keyword)
    assert [getattr(record, name) for name in names] == list(values)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    # Copies: each keeps the fields and the frozen slots.
    copies = [dataclasses.replace(record), copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for name, other in zip(names, others):
        changed = dataclasses.replace(record, **{name: other})
        assert getattr(changed, name) == other and changed != record
        copies.append(dataclasses.replace(changed, **{name: getattr(record, name)}))
    for same in copies:
        assert type(same) is cls and same == record and hash(same) == hash(record)
        assert not hasattr(same, "__dict__")
        for name, other in zip(names, others):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(same, name, other)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(same, name)
        assert same == record


@pytest.mark.parametrize("field", ["source", "forced_target", "forced_prefix"])
def test_a_score_request_takes_sequences_of_one_vocabulary(field):
    vocab, other = bare_vocab(5), bare_vocab(6)
    fields = {"source": vocab.seq((3,)), "forced_target": vocab.seq((0, 1)), "forced_prefix": vocab.seq((2,))}
    foreign = other.seq(fields[field].ids)
    request = ScoreRequest(**fields)
    with pytest.raises(VocabularyMismatchError):
        ScoreRequest(**{**fields, field: foreign})
    with pytest.raises(VocabularyMismatchError):
        ScoreRequest(*{**fields, field: foreign}.values())
    with pytest.raises(VocabularyMismatchError):
        dataclasses.replace(request, **{field: foreign})


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


class Rescoring(RecordingTableLM):
    """Overrides ``_score_forced`` and leaves every score as it was."""

    def _score_forced(self, req):
        return super()._score_forced(req)


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

    def test_greedy_steps_after_best_span_match_a_fresh_model(self):
        # best_span leaves its nodes in the memo; greedy_steps walks its own.
        vocab, lm, source, _, passage = self.setup_model()
        prefix = vocab.seq((1,))
        lm.best_span(source, prefix, passage)
        before = lm.pass_count()
        steps = lm.greedy_steps(source, prefix, 4)
        fresh = self.setup_model()[1]
        assert [(t, p.hex()) for t, p in steps] == [(t, p.hex()) for t, p in fresh.greedy_steps(source, prefix, 4)]
        assert lm.pass_count() - before == fresh.pass_count() == 4

    @pytest.mark.parametrize("model", ["rising", "rising-loaded", "rescoring"])
    def test_default_above_one_forces_full_suffixes(self, tmp_path, model):
        # Rising: token 0, the terminator, has probability 1 + 5e-13 (within
        # the sum tolerance), so every span grows with its length and the
        # whole passage wins, though no context lies in a table. Rescoring:
        # a subclass that overrides _score_forced, over a uniform default
        # where a cut would force one token per suffix. Either answers as
        # Scorer.best_span does.
        vocab = bare_vocab(4)
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"default": {"0": 1 + 5e-13}}), encoding="utf-8")
        make = {
            "rising": lambda: RecordingTableLM(vocab, default={0: 1 + 5e-13}, terminator_ids={0}),
            "rising-loaded": lambda: RecordingTableLM.from_file(path, vocab, terminator_ids={0}),
            "rescoring": lambda: Rescoring(vocab, terminator_ids={0}),
        }[model]
        lm, reference = make(), make()
        empty, passage = vocab.seq(()), vocab.seq((0, 0, 0))
        got = lm.best_span(empty, empty, passage)
        want = Scorer.best_span(reference, empty, empty, passage)
        assert lm.forced == reference.forced == [3, 2, 1]
        assert lm.pass_count() == reference.pass_count() == 3
        assert hexed(got) == hexed(want) == naive_span(lm, empty, empty, passage)
        if model != "rescoring":
            assert got[:2] == (0, 3) and got[2] > 0

    def test_a_rescoring_subclass_forces_full_suffixes(self):
        # No context lies in a table, so a cut would force one token per
        # suffix and never see the NaN at the last step.
        vocab = bare_vocab(5)
        lm = NanPastReach(vocab)
        empty = vocab.seq(())
        with pytest.raises(ScorerError, match="NaN"):
            lm.best_span(empty, empty, vocab.seq((1, 2, 3)))
        assert lm.pass_count() == 1
