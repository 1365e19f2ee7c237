import json
import random
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandecode import metrics
from spandecode.metrics import (
    S_IN,
    S_OUT,
    ExampleScore,
    aggregate,
    exact_match,
    exactness,
    find_span,
    is_extractive,
    normalize_answer,
    partition_example,
    token_f1,
)

GOLDEN = Path(__file__).parent / "golden" / "f1_cases.json"


class TestTokenF1:
    def test_identity(self):
        assert token_f1("Paris", {"Paris"}) == 1.0

    def test_article_removed(self):
        assert token_f1("the IRA", {"IRA"}) == 1.0

    def test_disjoint(self):
        assert token_f1("sixty percent", {"60%"}) == 0.0

    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValueError):
            token_f1("x", set())

    def test_both_empty_after_normalization(self):
        assert token_f1("the", {"a"}) == 1.0

    def test_one_empty_after_normalization(self):
        assert token_f1("the", {"Paris"}) == 0.0

    def test_max_over_golds(self):
        assert token_f1("IRA", {"nothing", "IRA"}) == 1.0

    def test_golden_file(self):
        cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert len(cases) == 50
        for case in cases:
            got = token_f1(case["prediction"], case["golds"])
            assert got == case["f1"], case

    def test_gold_permutation_invariance(self):
        golds = ["alpha beta", "beta gamma", "delta"]
        rng = random.Random(9)
        expected = token_f1("beta", golds)
        for _ in range(10):
            rng.shuffle(golds)
            assert token_f1("beta", golds) == expected

    def test_self_prediction_scores_one(self):
        rng = random.Random(13)
        words = ["alpha", "beta", "42", "x-y", "Paris"]
        for _ in range(50):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            assert token_f1(text, {text}) == 1.0


class TestIsExtractive:
    def test_garbage_dot(self):
        assert not is_extractive(".", "anything. at all")

    def test_substring(self):
        assert is_extractive("Paris", "We saw Paris is big today")

    def test_superstring_not_extractive(self):
        assert not is_extractive("he shamed him", "the boy shamed everyone")

    def test_case_sensitive(self):
        assert not is_extractive("paris", "Paris is big")

    def test_sentinels_stripped(self):
        assert is_extractive("<extra_id_0>Paris<extra_id_1>", "Paris is big")

    def test_implies_substring(self):
        rng = random.Random(21)
        alphabet = "ab ."
        for _ in range(200):
            passage = "".join(rng.choice(alphabet) for _ in range(20))
            candidate = "".join(rng.choice(alphabet) for _ in range(4))
            if is_extractive(candidate, passage):
                assert candidate.strip() in passage


class TestExactness:
    def test_equal(self):
        assert exactness("IRA", "IRA")

    def test_article_difference_counts(self):
        assert not exactness("the IRA", "IRA")

    def test_both_empty(self):
        assert exactness("", "")

    def test_whitespace_trim_only(self):
        assert exactness(" IRA ", "IRA")
        assert not exactness("ira", "IRA")


class TestPartition:
    def test_empty_gold_set_rejected(self, toy_vocab):
        with pytest.raises(ValueError, match="^gold answer set must be non-empty$"):
            partition_example(set(), "the IRA was active", toy_vocab)

    def test_tokenization_mismatch_is_s_out(self, toy_vocab):
        assert partition_example({"1971"}, "(1971)", toy_vocab) == S_OUT

    def test_single_piece_answer_is_s_in(self, toy_vocab):
        assert partition_example({"IRA"}, "the IRA was active", toy_vocab) == S_IN

    def test_any_gold_rule(self, toy_vocab):
        assert partition_example({"1971", "(1971)"}, "(1971)", toy_vocab) == S_IN

    def test_s_in_has_matching_span(self, toy_vocab):
        # Agreement with explicit span enumeration over the toy vocab.
        passages = ["the IRA was active", "(1971)", "The album released in 1971."]
        answers = ["IRA", "1971", "(1971)", "released in", "active"]
        for passage in passages:
            ids = toy_vocab.encode(passage)
            for answer in answers:
                part = partition_example({answer}, passage, toy_vocab)
                gold_ids = toy_vocab.encode(answer).ids
                spans = {
                    ids.ids[i : i + j]
                    for i in range(len(ids))
                    for j in range(1, len(ids) - i + 1)
                }
                assert (part == S_IN) == (gold_ids in spans)


class TestFindSpan:
    def test_word_boundary_answer(self, toy_vocab):
        passage = toy_vocab.encode("the IRA was active")
        assert find_span("IRA was", passage, toy_vocab) is not None

    def test_tokenization_mismatch_has_no_span(self, toy_vocab):
        passage = toy_vocab.encode("(1971)")
        assert find_span("1971", passage, toy_vocab) is None

    def test_empty_text(self, toy_vocab):
        assert find_span("", toy_vocab.encode("the IRA"), toy_vocab) is None

    def test_returns_earliest_shortest(self, toy_vocab):
        passage = toy_vocab.encode("the IRA the IRA")
        i, j = find_span("the IRA", passage, toy_vocab)
        assert (i, j) == (0, 2)


class TestExactMatch:
    def test_normalized_equality(self):
        assert exact_match("The IRA", {"IRA"})
        assert not exact_match("an IRA member", {"IRA"})

    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValueError, match="^gold answer set must be non-empty$"):
            exact_match("x", set())


class TestAggregate:
    def score(self, f1, extractive=True, exactness_match=True, partition=S_IN):
        return ExampleScore(
            f1=f1,
            extractive=extractive,
            exactness_match=exactness_match,
            partition=partition,
        )

    def test_single(self):
        report = aggregate([self.score(1.0)])
        assert report["overall"]["f1"] == 1.0

    def test_mean(self):
        report = aggregate([self.score(1.0), self.score(0.0)])
        assert report["overall"]["f1"] == 0.5

    def test_partition_shares(self):
        scores = [self.score(1.0) for _ in range(9)] + [self.score(0.0, partition=S_OUT)]
        report = aggregate(scores)
        assert report[S_OUT]["share"] == pytest.approx(0.1)
        assert report[S_IN]["count"] == 9
        assert report[S_OUT]["f1"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize(
        "f1s, mean",
        [
            # A plain sum ends in ...13p-5 on 3.10 to 3.13 (compensated or not).
            ([0.09608804055518887, 1.054438966176656e-54, 0.04363237654542032], "0x1.7d87a695a8e14p-5"),
            # A plain sum ends in ...99p-4 on 3.10 and 3.11.
            ([0.1] * 10, "0x1.999999999999ap-4"),
        ],
    )
    def test_means_are_correctly_rounded_on_every_python(self, f1s, mean):
        report = aggregate([self.score(f1, partition=S_OUT) for f1 in f1s])
        assert report["overall"]["f1"].hex() == report[S_OUT]["f1"].hex() == mean


def normalize_by_generator(text: str) -> str:
    """normalize_answer with punctuation dropped one character at a time."""
    text = metrics._ARTICLE_RE.sub(" ", text.lower())
    text = "".join(ch for ch in text if ch not in set(string.punctuation))
    return " ".join(text.split())


class TestNormalization:
    def test_pipeline(self):
        assert normalize_answer("The  IRA!") == "ira"
        assert normalize_answer("A    B.C.") == "bc"
        assert normalize_answer("") == ""

    def test_non_ascii_punctuation_is_kept(self):
        assert normalize_answer("¿Qué? ¡Sí!") == "¿qué ¡sí"

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.punctuation + "¿¡«»—…\u00a0 \tAaTthEen.", max_size=40))
    def test_equals_the_generator_form(self, text):
        assert normalize_answer(text) == normalize_by_generator(text)
