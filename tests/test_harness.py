import gzip
import json
import sys
import threading
import time

import pytest

from spandecode.decoding import exact_extract
from spandecode.harness import (
    EvalReport,
    evaluate_example,
    map_examples,
    prepare_example,
    run_eval,
    select_hyperparameters,
)
from spandecode.mrqa import (
    DataError,
    FewShotSplit,
    QAExample,
    load_dataset,
    passage_hash,
    subsample,
)
from spandecode.prompting import get_template, render_encoder_input
from spandecode.remote import TransportError
from spandecode.scorer import ScoreRequest, ScorerError, StepScores, TableLM

from conftest import TOY_PIECES


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def mrqa_rows():
    return [
        {"header": {"dataset": "toy", "split": "dev"}},
        {
            "context": "Paris is the capital of France.",
            "qas": [
                {"qid": "q1", "question": "What is the capital?", "answers": ["Paris"]},
                {"qid": "q2", "question": "Of what?", "answers": ["France", "of France"]},
            ],
        },
        {
            "context": "The IRA was active.",
            "qas": [{"qid": "q3", "question": "Who was active?", "answers": ["IRA"]}],
        },
    ]


class TestLoadDataset:
    def test_parses_and_skips_header(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        write_jsonl(path, mrqa_rows())
        examples = load_dataset(path)
        assert [e.id for e in examples] == ["q1", "q2", "q3"]
        assert examples[1].answers == ("France", "of France")
        assert examples[2].context == "The IRA was active."

    def test_integer_qid_is_its_decimal_string(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        rows = mrqa_rows()
        rows[2]["qas"][0]["qid"] = 7
        write_jsonl(path, rows)
        assert [e.id for e in load_dataset(path)] == ["q1", "q2", "7"]

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "dev.jsonl.gz"
        body = "".join(json.dumps(r) + "\n" for r in mrqa_rows())
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(body)
        assert len(load_dataset(path)) == 3

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"context": "x", "qas": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_dataset(path)

    def test_missing_qas_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"context": "x"}])
        with pytest.raises(DataError, match=":1:"):
            load_dataset(path)

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"context"', "null", "true"])
    def test_non_object_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(mrqa_rows()[1]) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.jsonl:2: expected a JSON object"):
            load_dataset(path)

    def test_empty_answers_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(
            path,
            [{"context": "x", "qas": [{"qid": "q", "question": "?", "answers": []}]}],
        )
        with pytest.raises(DataError, match="empty answers"):
            load_dataset(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "dev.jsonl"
        rows = mrqa_rows()
        path.write_text(
            "\n" + json.dumps(rows[1]) + "\n\n" + json.dumps(rows[2]) + "\n",
            encoding="utf-8",
        )
        assert len(load_dataset(path)) == 3


def synthetic_dataset(count):
    return [
        QAExample(
            id=f"q{i}",
            context=f"passage number {i} talks about topic {i % 7}",
            question=f"which topic is in passage {i}?",
            answers=(f"topic {i % 7}",),
        )
        for i in range(count)
    ]


class TestSubsample:
    def test_default_layout_is_35_splits(self):
        dataset = synthetic_dataset(1100)
        splits = subsample(dataset)
        assert len(splits) == 35
        by_size = {}
        for split in splits:
            by_size.setdefault(split.size, []).append(split.sample_index)
        assert sorted(by_size) == [16, 32, 64, 128, 256, 512, 1024]
        assert all(sorted(v) == [0, 1, 2, 3, 4] for v in by_size.values())

    def test_split_sizes_and_uniqueness(self):
        splits = subsample(synthetic_dataset(40), sizes=(8, 16), num_samples=3)
        for split in splits:
            assert len(split.example_ids) == split.size
            assert len(set(split.example_ids)) == split.size

    def test_deterministic_for_fixed_seed(self):
        dataset = synthetic_dataset(64)
        a = subsample(dataset, sizes=(16,), num_samples=5, seed=3)
        b = subsample(dataset, sizes=(16,), num_samples=5, seed=3)
        assert a == b

    def test_seed_changes_selection(self):
        dataset = synthetic_dataset(64)
        a = subsample(dataset, sizes=(16,), num_samples=1, seed=0)
        b = subsample(dataset, sizes=(16,), num_samples=1, seed=1)
        assert a[0].example_ids != b[0].example_ids

    def test_samples_within_a_size_differ(self):
        dataset = synthetic_dataset(256)
        splits = subsample(dataset, sizes=(32,), num_samples=5)
        assert len({s.example_ids for s in splits}) == 5

    def test_dataset_too_small(self):
        with pytest.raises(DataError):
            subsample(synthetic_dataset(10), sizes=(16,))

    def test_leakage_detected(self):
        dataset = synthetic_dataset(40)
        validation = [dataset[5]]
        with pytest.raises(DataError, match="leaks"):
            # With size == dataset size every example, including the leaked
            # passage, lands in the split.
            subsample(dataset, sizes=(40,), num_samples=1, validation=validation)

    def test_disjoint_validation_passes(self):
        dataset = synthetic_dataset(40)
        validation = [
            QAExample(id="v", context="a completely different text", question="?", answers=("x",))
        ]
        splits = subsample(dataset, sizes=(8,), num_samples=2, validation=validation)
        assert len(splits) == 2

    def test_passage_hash_distinguishes_contexts(self):
        assert passage_hash("a") != passage_hash("b")
        assert passage_hash("a") == passage_hash("a")

    def test_passage_hash_is_the_sha1_of_the_utf8_context(self):
        assert passage_hash("Alan Turing was born in London.") == "c93ba665674ab3e31314b18f73edb3de8bd140d8"


from spandecode.vocab import Vocabulary


def qa_vocab():
    return Vocabulary(
        TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"]
    )


def ira_example():
    return QAExample(
        id="q-ira",
        context="the IRA was active",
        question="who was active?",
        answers=("IRA",),
    )


def ira_scorer(vocab):
    """TableLM that answers "IRA" for the example above under template 2."""
    prefix = vocab.encode("<extra_id_0>").ids
    ira = vocab.piece_id("▁IRA")
    term = vocab.terminator_id
    rest = 0.05 / (vocab.size - 2)
    lm = TableLM(vocab)
    lm.set_context(prefix, {ira: 0.9, term: 0.05, **{
        i: rest for i in range(vocab.size) if i not in (ira, term)
    }})
    lm.set_context(prefix + (ira,), {term: 0.9, **{
        i: 0.1 / (vocab.size - 1) for i in range(vocab.size) if i != term
    }})
    return lm


def test_prepare_example_encodes_prompt_prefix_and_passage():
    vocab = qa_vocab()
    example = ira_example()
    source, prefix, passage = prepare_example(example, get_template(2), vocab)
    assert source == vocab.encode(render_encoder_input(get_template(2), example.context, example.question))
    assert prefix == vocab.encode("<extra_id_0>")
    assert passage == vocab.encode(example.context)


class TestMapExamples:
    def test_serial_runs_in_the_calling_thread(self):
        threads = []

        def fn(x):
            threads.append(threading.get_ident())
            return x * x

        assert list(map_examples(fn, range(5))) == [0, 1, 4, 9, 16]
        assert set(threads) == {threading.get_ident()}

    def test_pool_keeps_input_order(self):
        # Earlier items finish later, so completion order is the reverse.
        def fn(x):
            time.sleep(0.002 * (8 - x))
            return threading.get_ident(), x

        results = list(map_examples(fn, range(8), jobs=4))
        assert [x for _, x in results] == list(range(8))
        assert threading.get_ident() not in {ident for ident, _ in results}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_raised_in_order_and_queued_calls_are_cancelled(self, jobs):
        started = []

        def fn(x):
            started.append(x)
            if x == 3:
                raise ScorerError("boom")
            time.sleep(0.01)
            return x

        done = []
        with pytest.raises(ScorerError, match="boom"):
            for x in map_examples(fn, range(60), jobs):
                done.append(x)
        assert done == [0, 1, 2]
        # Serially nothing runs after the failure; on the pool only the
        # calls already running (a handful) do, not the 56 queued ones.
        assert len(started) == 4 if jobs == 1 else len(started) < 30


class TestEvaluateExample:
    def test_both_decoders_find_the_answer(self):
        vocab = qa_vocab()
        result = evaluate_example(ira_example(), ira_scorer(vocab), get_template(2), vocab)
        assert result["greedy"].text == "IRA"
        assert result["exact"].text == "IRA"
        assert result["greedy_score"].f1 == 1.0
        assert result["exact_score"].f1 == 1.0
        assert result["exact_score"].extractive
        assert result["greedy_score"].exactness_match
        assert result["greedy_score"].partition == "S_in"

    def test_pass_accounting_per_algorithm(self):
        vocab = qa_vocab()
        scorer = ira_scorer(vocab)
        result = evaluate_example(ira_example(), scorer, get_template(2), vocab)
        n = len(vocab.encode(ira_example().context))
        assert result["exact"].passes_used == n
        assert result["greedy"].passes_used == 2  # "IRA" then the terminator


class FlakyScorer(TableLM):
    """Fails teacher-forced scoring for a chosen set of contexts."""

    def __init__(self, vocab, fail_contexts, error=ScorerError):
        super().__init__(vocab)
        self.fail_contexts = set(fail_contexts)
        self.error = error

    def _score_forced(self, req: ScoreRequest):
        if req.source.ids in self.fail_contexts:
            raise self.error("synthetic outage")
        return super()._score_forced(req)


class NanScorer(TableLM):
    """Returns NaN at the second step of every forced pass for one source."""

    def __init__(self, vocab, nan_source):
        super().__init__(vocab)
        self.nan_source = nan_source

    def _score_forced(self, req: ScoreRequest):
        scores = super()._score_forced(req)
        if req.source.ids != self.nan_source or len(scores.gold_logprob) < 2:
            return scores
        gold = list(scores.gold_logprob)
        gold[1] = float("nan")
        return StepScores(tuple(gold), scores.term_logprob)


class TestRunEval:
    def dataset(self):
        return [
            ira_example(),
            QAExample(
                id="q-album",
                context="The album released in 1971.",
                question="when?",
                answers=("1971",),
            ),
        ]

    def test_report_shape(self):
        vocab = qa_vocab()
        report = run_eval(self.dataset(), ira_scorer(vocab), get_template(2), vocab)
        assert report.num_examples == 2
        assert report.num_skipped == 0
        assert set(report.exact) == {"overall", "S_in", "S_out"}
        assert report.exact["overall"]["count"] == 2
        assert report.exact["overall"]["extractive"] == 1.0

    def test_parallel_matches_serial(self):
        vocab = qa_vocab()
        serial = run_eval(self.dataset(), ira_scorer(vocab), get_template(2), vocab)
        parallel = run_eval(
            self.dataset(), ira_scorer(vocab), get_template(2), vocab, jobs=2
        )
        assert parallel.to_dict() == serial.to_dict()

    def test_parallel_matches_serial_with_pinned_sources(self):
        # Every example has its own encoder input, and only the contexts
        # pinned to that input make its answer win, so a pass scored against
        # another example's contexts changes the report. Threads switch
        # every microsecond, so passes for different sources interleave.
        vocab = qa_vocab()
        template = get_template(2)
        words = ["The", "album", "was", "released", "in", "the", "IRA"]
        dataset = [
            QAExample(
                id=f"q{k}",
                context=" ".join(words),
                question=f"question {k}?",
                answers=(words[k % len(words)],),
            )
            for k in range(24)
        ]
        prefix = vocab.encode("<extra_id_0>").ids
        term = vocab.terminator_id
        lm = TableLM(vocab)
        for example in dataset:
            source = vocab.encode(
                render_encoder_input(template, example.context, example.question)
            ).ids
            answer = vocab.piece_id("▁" + example.answers[0])
            lm.set_context((source, prefix), {answer: 0.9, term: 0.05, **{
                i: 0.05 / (vocab.size - 2) for i in range(vocab.size) if i not in (answer, term)
            }})
            lm.set_context((source, prefix + (answer,)), {term: 0.9, **{
                i: 0.1 / (vocab.size - 1) for i in range(vocab.size) if i != term
            }})
        serial = run_eval(dataset, lm, template, vocab)
        assert serial.exact["overall"]["f1"] == serial.greedy["overall"]["f1"] == 1.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_eval(dataset, lm, template, vocab, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert parallel.to_dict() == serial.to_dict()

    def test_scorer_failure_is_skipped_and_recorded(self):
        vocab = qa_vocab()
        bad = self.dataset()[1]
        source = vocab.encode(
            render_encoder_input(get_template(2), bad.context, bad.question)
        ).ids
        scorer = FlakyScorer(vocab, {source})
        report = run_eval(self.dataset(), scorer, get_template(2), vocab)
        assert report.num_skipped == 1
        assert report.skipped_ids == ("q-album",)
        assert report.exact["overall"]["count"] == 1

    def album_source(self, vocab):
        bad = self.dataset()[1]
        return vocab.encode(render_encoder_input(get_template(2), bad.context, bad.question)).ids

    def test_nan_score_raises_instead_of_winning(self):
        vocab = qa_vocab()
        source = self.album_source(vocab)
        scorer = NanScorer(vocab, source)
        passage = vocab.encode(self.dataset()[1].context)
        prefix = vocab.encode("<extra_id_0>")
        with pytest.raises(ScorerError):
            exact_extract(passage, vocab.seq(source), prefix, scorer)

    def test_nan_score_is_skipped_and_recorded(self):
        vocab = qa_vocab()
        scorer = NanScorer(vocab, self.album_source(vocab))
        report = run_eval(self.dataset(), scorer, get_template(2), vocab)
        assert report.skipped_ids == ("q-album",)
        assert report.exact["overall"]["count"] == 1

    def test_transport_failure_is_skipped_and_recorded(self):
        vocab = qa_vocab()
        scorer = FlakyScorer(vocab, {self.album_source(vocab)}, TransportError)
        report = run_eval(self.dataset(), scorer, get_template(2), vocab)
        assert report.skipped_ids == ("q-album",)

    def test_all_failures_raise(self):
        vocab = qa_vocab()
        dataset = self.dataset()
        sources = {
            vocab.encode(
                render_encoder_input(get_template(2), ex.context, ex.question)
            ).ids
            for ex in dataset
        }
        with pytest.raises(ScorerError, match="^synthetic outage$"):
            run_eval(dataset, FlakyScorer(vocab, sources), get_template(2), vocab)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_failures_raise_the_first_examples_fault(self, jobs):
        vocab = qa_vocab()
        dataset = self.dataset()
        first = vocab.encode(render_encoder_input(get_template(2), dataset[0].context, dataset[0].question)).ids

        class Failing(TableLM):
            def _score_forced(self, req):
                raise ScorerError("first" if req.source.ids == first else "later")

        with pytest.raises(ScorerError, match="^first$"):
            run_eval(dataset, Failing(vocab), get_template(2), vocab, jobs=jobs)

    def test_empty_dataset_rejected(self):
        vocab = qa_vocab()
        with pytest.raises(DataError):
            run_eval([], ira_scorer(vocab), get_template(2), vocab)


class TestEvalReport:
    def report(self):
        vocab = qa_vocab()
        return run_eval([ira_example()], ira_scorer(vocab), get_template(2), vocab)

    def test_round_trip(self):
        report = self.report()
        assert EvalReport.from_dict(report.to_dict()) == report

    def test_render_table(self):
        table = self.report().render_table()
        assert "examples: 1" in table
        assert "greedy" in table and "exact-extract" in table
        assert "S_in" in table and "S_out" in table
        assert "100.0" in table
        assert "   --" in table  # the empty S_out bucket


class TestSelectHyperparameters:
    def test_worked_example(self):
        # Config 0 means: 80, 60. Config 1 means: 70, 70.
        # Normalized sums 80/80 + 60/70 = 1.857 vs 70/80 + 70/70 = 1.875.
        scores = [[[80.0], [60.0]], [[70.0], [70.0]]]
        assert select_hyperparameters(scores) == 1

    def test_mean_over_samples(self):
        scores = [[[70.0, 90.0]], [[79.0, 79.0]]]
        assert select_hyperparameters(scores) == 0

    def test_tie_goes_to_smallest_index(self):
        scores = [[[50.0]], [[50.0]], [[50.0]]]
        assert select_hyperparameters(scores) == 0

    def test_rescaling_invariance(self):
        import random

        rng = random.Random(8)
        for _ in range(100):
            num_cfg = rng.randint(2, 4)
            num_sizes = rng.randint(1, 5)
            num_samples = rng.randint(1, 3)
            scores = [
                [[rng.uniform(1, 100) for _ in range(num_samples)] for _ in range(num_sizes)]
                for _ in range(num_cfg)
            ]
            baseline = select_hyperparameters(scores)
            factors = [rng.uniform(0.01, 1.0) for _ in range(num_sizes)]
            rescaled = [
                [[v * factors[n] for v in row[n]] for n in range(num_sizes)]
                for row in scores
            ]
            assert select_hyperparameters(rescaled) == baseline

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValueError):
            select_hyperparameters([[[101.0]]])

    def test_ragged_table_rejected(self):
        with pytest.raises(ValueError):
            select_hyperparameters([[[50.0]], [[50.0], [60.0]]])

    def test_all_zero_size_rejected(self):
        with pytest.raises(ValueError):
            select_hyperparameters([[[0.0]], [[0.0]]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_hyperparameters([])


class TestFewShotSplitShape:
    def test_fields(self):
        split = FewShotSplit(size=2, sample_index=0, example_ids=("a", "b"))
        assert split.size == 2
        assert split.example_ids == ("a", "b")
