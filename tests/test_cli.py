import copy
import gzip
import json
import os
import random
import shlex
import stat
import subprocess
import sys
import threading
import time

import pytest

from spandecode import cli, harness
from spandecode.cli import main
from spandecode.mrqa import load_dataset
from spandecode.prompting import get_template
from spandecode.scorer import ScorerError, TableLM
from spandecode.vocab import Vocabulary

from conftest import TOY_PIECES, LoopbackScorer


@pytest.fixture
def workspace(tmp_path):
    """Vocab, table, and dataset files wired so the answer to every
    question about the fixture passage is "IRA"."""
    vocab = Vocabulary(
        TOY_PIECES, terminator="</s>", sentinels=["<extra_id_0>", "<extra_id_1>"]
    )
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(
        json.dumps(
            {
                "pieces": vocab.pieces,
                "terminator": "</s>",
                "sentinels": ["<extra_id_0>", "<extra_id_1>"],
            }
        ),
        encoding="utf-8",
    )

    prefix = vocab.encode("<extra_id_0>").ids
    ira = vocab.piece_id("▁IRA")
    close = vocab.piece_id("<extra_id_1>")
    table = {
        "default": {str(i): 1 / 16 for i in range(16)},
        "*#" + ",".join(map(str, prefix)): {str(ira): 0.5, str(close): 0.25, "12": 0.25},
        "*#" + ",".join(map(str, prefix + (ira,))): {
            str(close): 0.5,
            "12": 0.25,
            str(ira): 0.25,
        },
    }
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table), encoding="utf-8")

    dataset_path = tmp_path / "dev.jsonl"
    dataset_path.write_text(
        json.dumps(
            {
                "context": "the IRA was active",
                "qas": [
                    {"qid": "q1", "question": "who was active?", "answers": ["IRA"]}
                ],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "dir": tmp_path,
        "vocab": str(vocab_path),
        "table": f"table:{table_path}",
        "dataset": str(dataset_path),
    }


def base_args(ws):
    return ["--vocab", ws["vocab"], "--scorer", ws["table"]]


def server_spec(ws, k=None) -> str:
    """A stdio spec for the reference server over the workspace table; with
    ``k``, a server that answers k request lines and then exits."""
    table = ws["table"].removeprefix("table:")
    close_id = TOY_PIECES.index("<extra_id_1>")
    if k is None:
        child = [sys.executable, "-m", "spandecode.remote", "--vocab", ws["vocab"],
                 "--table", table, "--terminator-ids", str(close_id)]
    else:
        child = [
            sys.executable, "-c",
            "import itertools, sys\n"
            "from spandecode.remote import serve\n"
            "from spandecode.scorer import TableLM\n"
            "from spandecode.vocab import Vocabulary\n"
            f"vocab = Vocabulary.from_file({ws['vocab']!r})\n"
            f"lm = TableLM.from_file({table!r}, vocab, terminator_ids={{{close_id}}})\n"
            f"serve(lm, itertools.islice(sys.stdin, {k}), sys.stdout)\n",
        ]
    return "stdio:" + shlex.join(child)


CONTEXTS = [
    "the IRA was active",
    "The album released in 1971.",
    "the album was active",
    "(1971) the IRA was active.",
    "The IRA released the album in 1971.",
]


def many_questions(ws):
    """Ten questions over five passages, as MRQA paragraph lines."""
    path = ws["dir"] / "many.jsonl"
    rows = [
        {"context": context, "qas": [
            {"qid": f"p{p}q{q}", "question": question, "answers": ["IRA"]}
            for q, question in enumerate(("who was active?", "what was released?"))
        ]}
        for p, context in enumerate(CONTEXTS)
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


class TestDecode:
    def run_decode(self, ws, algo):
        out = ws["dir"] / f"out_{algo}.jsonl"
        code = main(
            base_args(ws)
            + ["decode", "--algo", algo, "--input", ws["dataset"], "--output", str(out)]
        )
        assert code == 0
        return [json.loads(line) for line in out.read_text().splitlines()]

    def test_exact(self, workspace):
        records = self.run_decode(workspace, "exact")
        assert records[0]["id"] == "q1"
        assert records[0]["text"] == "IRA"
        assert records[0]["algorithm"] == "exact_extract"
        assert (records[0]["start"], records[0]["length"]) == (1, 1)

    def test_naive_agrees_with_exact(self, workspace):
        exact = self.run_decode(workspace, "exact")[0]
        naive = self.run_decode(workspace, "naive")[0]
        assert (naive["start"], naive["length"]) == (exact["start"], exact["length"])
        assert naive["span_logprob"] == exact["span_logprob"]

    def test_greedy(self, workspace):
        record = self.run_decode(workspace, "greedy")[0]
        assert record["text"] == "IRA"
        assert record["extractive"] is True

    def test_flat_input_format(self, workspace):
        # A string id, an integer id, and no id: the line number.
        flat = workspace["dir"] / "flat.jsonl"
        row = {"context": "the IRA was active", "question": "who?"}
        flat.write_text(
            "".join(json.dumps(r) + "\n" for r in [{"id": "x1", **row}, {"id": 7, **row}, row]),
            encoding="utf-8",
        )
        out = workspace["dir"] / "flat_out.jsonl"
        code = main(
            base_args(workspace)
            + ["decode", "--input", str(flat), "--output", str(out)]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == ["x1", "7", "3"]
        assert records[0]["text"] == "IRA"

    def test_output_that_is_not_a_regular_file_is_written_in_place(self, workspace):
        # A pipe, like /dev/null, is written as it is, never renamed over.
        fifo = workspace["dir"] / "rows.pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code = main(base_args(workspace) + ["decode", "--input", workspace["dataset"], "--output", str(fifo)])
        reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert json.loads(got[0])["text"] == "IRA"
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not list(workspace["dir"].glob(".*.partial"))

    def decode_file(self, ws, path, *flags, spec=None, jobs="1"):
        out = ws["dir"] / "out.jsonl"
        code = main(["--vocab", ws["vocab"], "--scorer", spec or ws["table"], "--jobs", jobs,
                     "decode", "--input", str(path), "--output", str(out), *flags])
        return code, out.read_bytes()

    @pytest.mark.parametrize("layout", ["mrqa", "flat"])
    def test_gzipped_input(self, workspace, layout):
        plain = many_questions(workspace)
        if layout == "flat":
            rows = [{"id": qa["qid"], "context": row["context"], "question": qa["question"]}
                    for row in map(json.loads, plain.read_text().splitlines()) for qa in row["qas"]]
            plain.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        packed = workspace["dir"] / "many.jsonl.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        want = self.decode_file(workspace, plain)
        assert want[0] == 0 and len(want[1].splitlines()) == 10
        assert self.decode_file(workspace, packed) == want

    @pytest.mark.parametrize("transport", ["table", "stdio"])
    @pytest.mark.parametrize("algo", ["exact", "naive", "greedy"])
    def test_jobs_write_the_same_file(self, workspace, monkeypatch, transport, algo):
        spec = workspace["table"] if transport == "table" else server_spec(workspace)
        path = many_questions(workspace)
        serial = self.decode_file(workspace, path, "--algo", algo, spec=spec)
        assert serial[0] == 0 and len(serial[1].splitlines()) == 10
        seen = []
        map_examples = harness.map_examples

        def recording(fn, examples, jobs=1):
            seen.append(jobs)
            return map_examples(fn, examples, jobs)

        monkeypatch.setattr(harness, "map_examples", recording)
        assert self.decode_file(workspace, path, "--algo", algo, spec=spec, jobs="4") == serial
        assert seen == [4]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jobs_with_a_child_that_exits_after_k_requests(self, workspace, monkeypatch, capsys, k):
        # An exact decode is one request per example, and examples run two
        # at a time: the run fails after at most k rows, and the output the
        # serial run wrote is left as it was, with no partial file.
        path = many_questions(workspace)
        code, serial = self.decode_file(workspace, path, spec=server_spec(workspace))
        assert code == 0
        opened = []
        make_scorer = cli.make_scorer

        def recording(*args, **kwargs):
            opened.append(make_scorer(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "make_scorer", recording)
        code, rows = self.decode_file(workspace, path, spec=server_spec(workspace, k), jobs="2")
        assert code == 3
        assert "scorer error: " in capsys.readouterr().err
        assert rows == serial
        assert not list(workspace["dir"].glob(".*.partial"))
        (scorer,) = opened
        assert scorer._proc.returncode is not None


class TestEval:
    def test_report_written_and_printed(self, workspace, capsys):
        out = workspace["dir"] / "report.json"
        code = main(
            base_args(workspace)
            + ["eval", "--input", workspace["dataset"], "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["num_examples"] == 1
        assert report["exact"]["overall"]["f1"] == 1.0
        assert report["greedy"]["overall"]["f1"] == 1.0
        printed = capsys.readouterr().out
        assert "exact-extract" in printed
        assert "100.0" in printed

    def test_report_subcommand_round_trip(self, workspace, capsys):
        out = workspace["dir"] / "report.json"
        main(base_args(workspace) + ["eval", "--input", workspace["dataset"], "--output", str(out)])
        first = capsys.readouterr().out
        assert main(["report", "--input", str(out)]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "text",
        ['{"num_examples": 1}', "[1]", '{"num_examples": 1, "num_skipped": 0, "skipped_ids": [], '
         '"greedy": {"overall": 3}, "exact": {}}', "{"],
        ids=["missing-field", "not-an-object", "bad-aggregate", "invalid-json"],
    )
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        assert main(["report", "--input", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and str(path) in line


class TestSubsample:
    def dataset(self, tmp_path, count):
        path = tmp_path / "train.jsonl"
        rows = [
            {
                "context": f"passage {i} is about topic {i}",
                "qas": [{"qid": f"q{i}", "question": "?", "answers": [f"topic {i}"]}],
            }
            for i in range(count)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return str(path)

    def test_writes_splits(self, tmp_path, capsys):
        data = self.dataset(tmp_path, 20)
        out = tmp_path / "splits.json"
        code = main(
            [
                "subsample",
                "--input",
                data,
                "--sizes",
                "4,8",
                "--num-samples",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "wrote 6 splits" in capsys.readouterr().out
        splits = json.loads(out.read_text())
        assert len(splits) == 6
        assert {s["size"] for s in splits} == {4, 8}

    def test_seed_flag_changes_output(self, tmp_path):
        data = self.dataset(tmp_path, 20)
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"splits_{seed}.json"
            main(
                ["--seed", seed, "subsample", "--input", data, "--sizes", "8",
                 "--num-samples", "1", "--output", str(out)]
            )
            outputs.append(out.read_text())
        assert outputs[0] != outputs[1]

    def test_too_small_dataset_is_data_error(self, tmp_path):
        data = self.dataset(tmp_path, 3)
        code = main(
            ["subsample", "--input", data, "--sizes", "16", "--output",
             str(tmp_path / "x.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--sizes", "x"], ["--sizes", "-1"], ["--sizes", "4,0"], ["--sizes", "4,,8"], ["--num-samples", "0"]],
        ids=" ".join,
    )
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x.json"
        code = main(["subsample", "--input", self.dataset(tmp_path, 20), *flags, "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: argument {flags[0]}: must be an integer >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPartition:
    def test_counts_and_records(self, workspace, capsys):
        extra = workspace["dir"] / "part.jsonl"
        rows = [
            {
                "context": "the IRA was active",
                "qas": [{"qid": "in1", "question": "?", "answers": ["IRA"]}],
            },
            {
                "context": "(1971)",
                "qas": [{"qid": "out1", "question": "?", "answers": ["1971"]}],
            },
        ]
        data = workspace["dir"] / "pdata.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code = main(
            ["--vocab", workspace["vocab"], "partition", "--input", str(data),
             "--output", str(extra)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "S_in: 1 (50.0%)" in printed
        assert "S_out: 1 (50.0%)" in printed
        records = [json.loads(l) for l in extra.read_text().splitlines()]
        assert {r["id"]: r["partition"] for r in records} == {
            "in1": "S_in",
            "out1": "S_out",
        }


class TestSelectHp:
    def test_worked_example(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([[[80.0], [60.0]], [[70.0], [70.0]]]))
        assert main(["select-hp", "--scores", str(scores)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_table_is_data_error(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text('{"oops": true}')
        assert main(["select-hp", "--scores", str(scores)]) == 2

    @pytest.mark.parametrize("table", ["[[[]]]", "[[1]]", '[["x"]]', "[[[50, null]]]", "[[[true]]]", "[["])
    def test_malformed_table_is_one_data_error_line(self, tmp_path, capsys, table):
        scores = tmp_path / "scores.json"
        scores.write_text(table)
        assert main(["select-hp", "--scores", str(scores)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and str(scores) in line


class TestRssGen:
    def test_deterministic_generation(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "Alan Turing was born in London and Alan Turing died\n"
            "nothing repeats in this line\n"
            "blue bird saw blue bird\n",
            encoding="utf-8",
        )
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"rss_{run}.jsonl"
            code = main(
                ["--seed", "4", "rss-gen", "--input", str(corpus), "--output", str(out)]
            )
            assert code == 0
            outputs.append(out.read_text())
        assert "wrote 2 examples" in capsys.readouterr().out
        assert outputs[0] == outputs[1]
        for line in outputs[0].splitlines():
            record = json.loads(line)
            assert record["masked_passage"].count("<extra_id_0>") == 1
            assert record["target"].startswith("<extra_id_0>")
            assert record["target"].endswith("<extra_id_1>")

    @pytest.mark.parametrize(
        "flags",
        [["--limit", "0"], ["--limit", "x"], ["--min-span", "0"], ["--max-span", "-1"]],
        ids=" ".join,
    )
    def test_count_below_one_is_usage_error_and_keeps_the_output(self, tmp_path, capsys, flags):
        # Rejected while parsing, before the output file is opened.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("blue bird saw blue bird\n", encoding="utf-8")
        out = tmp_path / "rss.jsonl"
        out.write_bytes(b"kept\nhere")
        code = main(["rss-gen", "--input", str(corpus), "--output", str(out), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: argument {flags[0]}: must be an integer >= 1" in err
        assert "Traceback" not in err
        assert out.read_bytes() == b"kept\nhere"

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("missing.txt", None, "No such file or directory"),
            ("corpus.jsonl", '{"text": "blue bird saw blue bird"}\nnot json\n', "corpus.jsonl:2: invalid JSON"),
            ("corpus.jsonl", '{"text": "blue bird saw blue bird"}\n{"txt": "x"}\n', "corpus.jsonl:2: missing field 'text'"),
        ],
        ids=["missing-input", "not-json", "no-text"],
    )
    def test_bad_input_is_data_error_and_keeps_the_output(self, tmp_path, capsys, name, text, message):
        # The first line of the malformed inputs makes an example before
        # the bad line is read.
        corpus = tmp_path / name
        if text is not None:
            corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "rss.jsonl"
        out.write_bytes(b"kept\nhere")
        code = main(["rss-gen", "--input", str(corpus), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert "Traceback" not in err
        assert out.read_bytes() == b"kept\nhere"
        assert not list(tmp_path.glob(".*.partial"))

    def test_output_is_replaced_only_when_complete(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"text": "blue bird saw blue bird"}\n', encoding="utf-8")
        out = tmp_path / "rss.jsonl"
        out.write_bytes(b"old")
        assert main(["rss-gen", "--input", str(corpus), "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["target"].endswith("<extra_id_1>")
        assert not list(tmp_path.glob(".*.partial"))


def test_written_records_keep_their_layout(workspace, monkeypatch):
    """``eval --output``, ``subsample --output`` and an ``rss-gen`` row
    write each record's keys in field order, and its tuples as lists."""

    class AlbumFails(TableLM):
        # Every example over a passage holding "album" is skipped.
        def best_span(self, source, prefix, passage, *args):
            if "album" in self.vocab.decode(passage):
                raise ScorerError("boom")
            return super().best_span(source, prefix, passage, *args)

    monkeypatch.setattr(cli, "TableLM", AlbumFails)
    data = str(many_questions(workspace))
    report, splits, rows = (workspace["dir"] / name for name in ("report.json", "splits.json", "rss.jsonl"))
    corpus = workspace["dir"] / "corpus.txt"
    corpus.write_text("blue bird saw blue bird\n", encoding="utf-8")
    assert main(base_args(workspace) + ["eval", "--input", data, "--output", str(report)]) == 0
    assert main(["subsample", "--input", data, "--sizes", "2", "--num-samples", "2", "--output", str(splits)]) == 0
    assert main(["rss-gen", "--input", str(corpus), "--output", str(rows)]) == 0

    scores = {"count": 4, "f1": 1.0, "extractive": 1.0, "exactness": 1.0}
    table = {
        "overall": scores,
        "S_in": {**scores, "share": 1.0},
        "S_out": {"count": 0, "f1": None, "extractive": None, "exactness": None, "share": 0.0},
    }
    assert report.read_text(encoding="utf-8") == json.dumps(
        {
            "num_examples": 10,
            "num_skipped": 6,
            "skipped_ids": ["p1q0", "p1q1", "p2q0", "p2q1", "p4q0", "p4q1"],
            "greedy": table,
            "exact": table,
        },
        indent=2,
    )
    assert splits.read_text(encoding="utf-8") == json.dumps(
        [
            {"size": 2, "sample_index": 0, "example_ids": ["p0q1", "p1q0"]},
            {"size": 2, "sample_index": 1, "example_ids": ["p0q1", "p4q1"]},
        ],
        indent=2,
    )
    assert rows.read_text(encoding="utf-8") == (
        '{"masked_passage": "<extra_id_0> saw blue bird", "target": "<extra_id_0>blue bird<extra_id_1>", '
        '"span_surface": "blue bird", "occurrence_count": 2}\n'
    )


class TestExitCodes:
    def test_unknown_scorer_spec_is_usage_error(self, workspace):
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", "magic:nope", "decode",
             "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 1

    def test_missing_scorer_is_usage_error(self, workspace, monkeypatch):
        monkeypatch.delenv("SPANDECODE_SCORER_URL", raising=False)
        code = main(
            ["--vocab", workspace["vocab"], "decode", "--input",
             workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_missing_input_file_is_data_error(self, workspace):
        code = main(
            base_args(workspace)
            + ["decode", "--input", str(workspace["dir"] / "absent.jsonl"),
               "--output", "/dev/null"]
        )
        assert code == 2

    def test_unreachable_remote_is_transport_error(self, workspace):
        # eval absorbs per-example scorer faults; decode propagates them.
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", "remote:http://127.0.0.1:1",
             "decode", "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 3

    def test_dead_stdio_scorer_is_transport_error(self, workspace):
        command = shlex.join([sys.executable, "-c", "pass"])
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", f"stdio:{command}",
             "decode", "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 3

    @pytest.mark.parametrize("algo", ["exact", "naive"])
    def test_server_with_other_terminators_is_a_scorer_error(self, workspace, capsys, algo):
        # Without --terminator-ids the reference server scores </s>, while
        # the default --terminator-mode sentinel stops on <extra_id_1>.
        child = shlex.join([sys.executable, "-m", "spandecode.remote", "--vocab", workspace["vocab"],
                            "--table", workspace["table"].removeprefix("table:")])
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", f"stdio:{child}",
             "decode", "--algo", algo, "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 3
        close_id, eos_id = TOY_PIECES.index("<extra_id_1>"), TOY_PIECES.index("</s>")
        assert capsys.readouterr().err == (
            f"scorer error: server error: bad request: terminator_ids [{close_id}] "
            f"differ from the server's [{eos_id}]\n"
        )

    def nan_server(self, workspace) -> str:
        """The command of a server that knows only the one-pass ops and
        answers each with NaN scores: forced gold log-probs, or a whole
        distribution over the 16 toy pieces."""
        server = workspace["dir"] / "nan_server.py"
        server.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    if req['op'] == 'teacher_forced':\n"
            "        n = len(req['target_ids'])\n"
            "        reply = {'id': req['id'], 'gold_logprob': [float('nan')] * n,\n"
            "                 'term_logprob': [-1.0] * (n + 1)}\n"
            "    elif req['op'] == 'next_dist':\n"
            "        reply = {'id': req['id'], 'logits_logprob': [float('nan')] * 16}\n"
            "    else:\n"
            "        reply = {'id': req['id'], 'error': 'unknown op %r' % req['op']}\n"
            "    print(json.dumps(reply), flush=True)\n",
            encoding="utf-8",
        )
        return shlex.join([sys.executable, str(server)])

    def test_nan_scores_are_a_scorer_error(self, workspace, capsys):
        # A well-formed reply whose scores are NaN is refused at the scorer
        # boundary, with the same exit code as a transport fault. The server
        # knows only the one-pass ops, so the client falls back to
        # teacher_forced after its suffixes request is refused.
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", f"stdio:{self.nan_server(workspace)}",
             "decode", "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 3
        assert "NaN" in capsys.readouterr().err

    def test_nan_distribution_after_greedy_step_down_is_a_scorer_error(self, workspace, capsys):
        # The greedy request is refused, and the NaN comes back in the first
        # next_dist distribution.
        code = main(
            ["--vocab", workspace["vocab"], "--scorer", f"stdio:{self.nan_server(workspace)}",
             "decode", "--algo", "greedy", "--input", workspace["dataset"], "--output", "/dev/null"]
        )
        assert code == 3
        assert "next-token log-probs hold NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize("healthy", [True, False])
    def test_stdio_child_has_exited_when_main_returns(
        self, workspace, monkeypatch, command, healthy
    ):
        # Both servers wait on stdin until it closes; the broken one answers
        # every request with a line that is not JSON.
        if healthy:
            spec = server_spec(workspace)
        else:
            spec = "stdio:" + shlex.join([sys.executable, "-c",
                                          "import sys\nfor line in sys.stdin: print('not json', flush=True)"])
        opened = []
        make_scorer = cli.make_scorer

        def recording(*args, **kwargs):
            opened.append(make_scorer(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "make_scorer", recording)
        out = workspace["dir"] / "out.json"
        argv = ["--vocab", workspace["vocab"], "--scorer", spec,
                command, "--input", workspace["dataset"], "--output", str(out)]
        code = main(argv)
        # eval skips the failing example, then finds every example skipped.
        expected = 0 if healthy else (3 if command == "decode" else 2)
        assert code == expected
        (scorer,) = opened
        assert scorer._proc.poll() is not None

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-span-len", "0"],
            ["--max-span-len", "-1"],
            ["--max-span-len", "two"],
            ["--jobs", "0"],
            ["--jobs", "-1"],
            ["--jobs", "two"],
        ],
        ids=" ".join,
    )
    def test_count_below_one_is_usage_error(self, workspace, monkeypatch, capsys, command, flags):
        # Rejected while parsing, so no scorer child is started.
        opened = []
        monkeypatch.setattr(cli, "make_scorer", lambda *args, **kwargs: opened.append(args))
        child = shlex.join([sys.executable, "-m", "spandecode.remote", "--vocab",
                            workspace["vocab"], "--table", workspace["table"].removeprefix("table:")])
        argv = ["--vocab", workspace["vocab"], "--scorer", f"stdio:{child}", command,
                "--input", workspace["dataset"], "--output", str(workspace["dir"] / "out")]
        # --jobs belongs to the main parser, --max-span-len to the subcommand.
        at = argv.index(command) + (flags[0] == "--max-span-len")
        code = main(argv[:at] + flags + argv[at:])
        assert code == 1
        assert f"usage error: argument {flags[0]}: must be an integer >= 1" in capsys.readouterr().err
        assert opened == []

    @pytest.mark.parametrize("command", ["decode", "eval"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stdio_child_that_exits_after_k_requests(self, workspace, monkeypatch, command, k):
        # Four questions on one passage; the child serves k request lines,
        # then exits with its stdin still open.
        dataset = workspace["dir"] / "four.jsonl"
        qas = [{"qid": f"q{i}", "question": "who was active?", "answers": ["IRA"]} for i in range(4)]
        dataset.write_text(json.dumps({"context": "the IRA was active", "qas": qas}) + "\n", encoding="utf-8")
        # The requests one eval example makes: its extract request and its
        # greedy loop (1 + 1 here); decode makes one per example.
        vocab = Vocabulary.from_file(workspace["vocab"])
        wire = LoopbackScorer(cli.make_scorer(workspace["table"], vocab))
        example = load_dataset(str(dataset))[0]
        harness.evaluate_example(example, wire, get_template(2), vocab)
        per_example = len(wire.sent) if command == "eval" else 1
        done = k // per_example
        opened = []
        make_scorer = cli.make_scorer

        def recording(*args, **kwargs):
            opened.append(make_scorer(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "make_scorer", recording)
        out = workspace["dir"] / "out.json"
        out.write_bytes(b"kept\nhere")
        start = time.monotonic()
        code = main(["--vocab", workspace["vocab"], "--scorer", server_spec(workspace, k),
                     command, "--input", str(dataset), "--output", str(out)])
        # Far below the 30 s reply timeout: a dead child is seen at once.
        assert time.monotonic() - start < 20
        if command == "decode":
            # The rows decoded before the child died are not written: the
            # existing output is left as it was, with no partial file.
            assert code == 3
            assert out.read_bytes() == b"kept\nhere"
            assert not list(workspace["dir"].glob(".*.partial"))
        elif done:
            assert code == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["skipped_ids"] == [f"q{i}" for i in range(done, 4)]
        else:
            # Every example skipped.
            assert code == 2
        (scorer,) = opened
        assert scorer._proc.returncode is not None

    def test_env_var_supplies_scorer(self, workspace, monkeypatch):
        monkeypatch.setenv("SPANDECODE_SCORER_URL", workspace["table"])
        out = workspace["dir"] / "env_out.jsonl"
        code = main(
            ["--vocab", workspace["vocab"], "decode", "--input",
             workspace["dataset"], "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["text"] == "IRA"


FLAT_ROW = json.dumps({"id": "a", "context": "the IRA was active", "question": "who?"})
# Example ids that are neither strings nor integers, with their type names.
BAD_IDS = [(None, "NoneType"), (True, "bool"), (1.5, "float"), ([1], "list"), ({"a": 1}, "dict")]
TEMPLATE_2 = {"id": 2, "encoder_pattern": "Text: {T}\nQuestion: {Q}\nAnswer:<extra_id_0>."}


class TestMalformedInput:
    """Bad input files and flags end with a data error naming the fault,
    exit code 2 and no traceback."""

    @pytest.mark.parametrize(
        "command, lines, message",
        [
            pytest.param("eval", ["MRQA", "5"],
                         "dev.jsonl:2: expected a JSON object, got int", id="mrqa-int"),
            pytest.param("eval", ["MRQA", "[1, 2]"],
                         "dev.jsonl:2: expected a JSON object, got list", id="mrqa-list"),
            pytest.param("decode", ["MRQA", "null"],
                         "dev.jsonl:2: expected a JSON object, got NoneType", id="mrqa-null"),
            pytest.param("decode", ["[1, 2]"],
                         "dev.jsonl:1: expected a JSON object, got list", id="first-list"),
            pytest.param("decode", ["5"],
                         "dev.jsonl:1: expected a JSON object, got int", id="first-int"),
            pytest.param("decode", [FLAT_ROW, "[1, 2]"],
                         "dev.jsonl:2: expected a JSON object, got list", id="flat-list"),
            pytest.param("decode", ['{"context": 5, "question": "who?"}'],
                         "dev.jsonl:1: context and question must be strings", id="int-context"),
            pytest.param("decode", [FLAT_ROW, '{"context": "c", "question": ["who?"]}'],
                         "dev.jsonl:2: context and question must be strings", id="list-question"),
            pytest.param("decode", [FLAT_ROW, '{"question": "who?"}'],
                         "dev.jsonl:2: context and question must be strings", id="no-context"),
            pytest.param("decode", [FLAT_ROW, json.dumps({**json.loads(FLAT_ROW), "context": ""})],
                         "dev.jsonl:2: example a: empty context", id="flat-empty-context"),
        ] + [
            # The example was built outside the line's prefix, so the fault
            # named neither the file nor the line.
            pytest.param(command, ["MRQA", json.dumps({"context": "", "qas": [
                {"qid": "q8", "question": "who?", "answers": ["IRA"]}]})],
                "dev.jsonl:2: example q8: empty context", id=f"{command}-mrqa-empty-context")
            for command in ("eval", "decode")
        ] + [
            # Ids that str() turned into "None", "True", "1.5", "[1]" or
            # "{'a': 1}", with exit 0.
            pytest.param("decode", [FLAT_ROW, json.dumps({**json.loads(FLAT_ROW), "id": bad})],
                         f"dev.jsonl:2: id must be a string or an integer, not {kind}", id=f"flat-id-{kind}")
            for bad, kind in BAD_IDS
        ] + [
            pytest.param(command, ["MRQA", json.dumps({"context": "the IRA was active", "qas": [
                {"qid": "q8", "question": "who?", "answers": ["IRA"]},
                {"qid": bad, "question": "who?", "answers": ["IRA"]},
            ]})], f"dev.jsonl:2: qas entry 1: qid must be a string or an integer, not {kind}",
                id=f"{command}-qid-{kind}")
            for command in ("eval", "decode")
            for bad, kind in BAD_IDS
        ] + [
            # qas entries that were read as strings and scored with exit 0,
            # or failed as a missing field.
            pytest.param(command, ["MRQA", json.dumps({"context": "the IRA was active", "qas": qas})],
                         message, id=f"{command}-{case}")
            for command in ("eval", "decode")
            for case, qas, message in [
                ("qas-entry-str", ["q9"], "dev.jsonl:2: qas entry 0 must be an object, not str"),
                ("null-question", [{"qid": "q9", "question": None, "answers": ["IRA"]}],
                 "dev.jsonl:2: qid q9: question must be a string, not NoneType"),
                ("dict-answer", [{"qid": "q9", "question": "who?", "answers": ["IRA", {"x": 1}]}],
                 "dev.jsonl:2: qid q9: answers must be strings, not dict"),
            ]
        ],
    )
    def test_malformed_input_line(self, workspace, capsys, command, lines, message):
        dataset = workspace["dir"] / "dev.jsonl"
        mrqa_row = dataset.read_text(encoding="utf-8").strip()
        dataset.write_text(
            "".join((mrqa_row if line == "MRQA" else line) + "\n" for line in lines),
            encoding="utf-8",
        )
        out = workspace["dir"] / "out.json"
        argv = base_args(workspace) + [command, "--input", str(dataset), "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, data, message",
        [
            # 9,000 blank lines put the bad byte past the chunk that text
            # mode decodes ahead.
            pytest.param("dev.jsonl", b"MRQA\n" + b"\n" * 9000 + b'{"context": "caf\xe9", "question": "who?"}\n',
                         "dev.jsonl:9002: 'utf-8' codec can't decode byte 0xe9 in position 16", id="bad-byte"),
            pytest.param("dev.jsonl.gz", b"MRQA\n", "dev.jsonl.gz: Not a gzipped file", id="not-gzip"),
        ],
    )
    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_undecodable_input_names_its_file(self, workspace, capsys, command, name, data, message):
        dataset = workspace["dir"] / name
        mrqa_row = (workspace["dir"] / "dev.jsonl").read_bytes().strip()
        dataset.write_bytes(data.replace(b"MRQA", mrqa_row))
        argv = base_args(workspace) + [command, "--input", str(dataset), "--output", str(workspace["dir"] / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {workspace['dir']}/{message}")

    @pytest.mark.parametrize(
        "name, data, message",
        [
            pytest.param("p.txt.gz", b"blue bird saw blue bird\n", "p.txt.gz: Not a gzipped file", id="not-gzip"),
            pytest.param("p.jsonl.gz", b'{"text": "blue bird saw blue bird"}\n', "p.jsonl.gz: Not a gzipped file",
                         id="jsonl-not-gzip"),
            pytest.param("p.txt", b"blue bird saw blue bird\n" * 500 + b"caf\xe9 bird\n",
                         "p.txt:501: 'utf-8' codec can't decode byte 0xe9 in position 3", id="bad-byte"),
        ],
    )
    def test_undecodable_passages_name_their_file(self, tmp_path, capsys, name, data, message):
        corpus = tmp_path / name
        corpus.write_bytes(data)
        out = tmp_path / "rss.jsonl"
        assert main(["rss-gen", "--input", str(corpus), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path}/{message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, flags, message",
        [
            pytest.param(None, ["--prompt-id", "99"], "no template with id 99", id="unknown-id"),
            pytest.param([TEMPLATE_2], ["--prompt-id", "3"], "no template with id 3 in ",
                         id="unknown-id-in-file"),
            pytest.param([{**TEMPLATE_2, "style": "terse"}], [],
                         "template 0: PromptTemplate.__init__() got an unexpected keyword "
                         "argument 'style'", id="unknown-key"),
            pytest.param([{"id": 2}], [], "template 0: PromptTemplate.__init__() missing 1 "
                         "required", id="missing-key"),
            pytest.param([TEMPLATE_2, 5], [], "template 1: ", id="entry-not-object"),
            pytest.param({"2": TEMPLATE_2}, [], "expected a JSON list of templates",
                         id="file-not-list"),
            pytest.param([{**TEMPLATE_2, "encoder_pattern": 7}], [],
                         "encoder_pattern must be a string", id="pattern-not-string"),
            pytest.param([TEMPLATE_2, {**TEMPLATE_2, "id": 3, "target_pattern": "{a}"}], [],
                         "templates.json: template 1: unexpected target pattern",
                         id="other-target-pattern"),
        ],
    )
    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_bad_template_choice(self, workspace, capsys, command, entries, flags, message):
        if entries is not None:
            prompt_file = workspace["dir"] / "templates.json"
            prompt_file.write_text(json.dumps(entries), encoding="utf-8")
            flags = flags + ["--prompt-file", str(prompt_file)]
        out = workspace["dir"] / "out.json"
        argv = base_args(workspace) + [
            command, "--input", workspace["dataset"], "--output", str(out), *flags
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[1, 2]", "vocabulary must be a JSON object, not list", id="list"),
            pytest.param('{"terminator": "</s>"}', "vocabulary needs a 'pieces' list", id="no-pieces"),
            pytest.param('{"pieces": ["a", "</s>"]}', "vocabulary needs a 'terminator' string", id="no-terminator"),
            pytest.param('{"pieces": "a</s>", "terminator": "</s>"}', "'pieces' list of strings", id="pieces-string"),
            pytest.param('{"pieces": ["a", 5], "terminator": "a"}', "'pieces' list of strings", id="piece-int"),
            pytest.param('{"pieces": ["a"], "terminator": "a", "sentinels": "a"}', "'sentinels' must be a list",
                         id="sentinels-string"),
            pytest.param('{"pieces": ["a"], "terminator": "</s>"}', "special token '</s>' missing", id="no-special"),
            pytest.param('{"pieces": ["▁a", "", "</s>"], "terminator": "</s>"}', "piece 1 is empty", id="empty-piece"),
            pytest.param("{", "Expecting property name", id="invalid-json"),
        ],
    )
    @pytest.mark.parametrize("command", ["decode", "eval", "partition"])
    def test_malformed_vocab(self, workspace, capsys, command, text, message):
        vocab = workspace["dir"] / "bad_vocab.json"
        vocab.write_text(text, encoding="utf-8")
        argv = ["--vocab", str(vocab), "--scorer", workspace["table"], command, "--input", workspace["dataset"]]
        if command != "partition":
            argv += ["--output", str(workspace["dir"] / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {vocab}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[1, 2]", "table must be a JSON object of distributions, not list", id="list"),
            pytest.param('{"*#": [0.5, 0.5]}', "distribution '*#' must be an object, not list", id="dist-list"),
            pytest.param('{"default": 1}', "distribution 'default' must be an object, not int", id="default-int"),
            pytest.param('{"*#": {"0": [1]}}', "distribution '*#': probability of token 0 is a list, not a number",
                         id="prob-list"),
            pytest.param('{"*#x": {"0": 1}}', "context key '*#x': 'x' is not a decimal token id", id="bad-key"),
            # Keys that no request can reach, and an empty item between commas.
            pytest.param('{"*#-5,99999": {"0": 1}}', "context key '*#-5,99999': '-5' is not a decimal token id",
                         id="negative-id"),
            pytest.param('{"*#0,99999": {"0": 1}}', "context key (0, 99999) holds 99999, not a token id",
                         id="id-past-the-bytes"),
            pytest.param('{"-1#0": {"0": 1}}', "context key '-1#0': '-1' is not a decimal token id",
                         id="negative-source-id"),
            pytest.param('{"*#0,,1": {"0": 1}}', "context key '*#0,,1': '' is not a decimal token id", id="empty-item"),
            pytest.param('{"0,#1": {"0": 1}}', "context key '0,#1': '' is not a decimal token id",
                         id="empty-source-item"),
            # int() reads each of these, as another context than the one written.
            pytest.param('{"*#1_0": {"0": 1}}', "context key '*#1_0': '1_0' is not a decimal token id",
                         id="underscore-id"),
            pytest.param('{"*# 2,+3": {"0": 1}}', "context key '*# 2,+3': ' 2' is not a decimal token id",
                         id="space-and-sign-ids"),
            pytest.param('{"1,\u0662#0": {"0": 1}}', "context key '1,\u0662#0': '\u0662' is not a decimal token id",
                         id="non-ascii-source-digit"),
            pytest.param('{"*#": {"0": 0.5}}', "distribution '*#': probabilities sum to 0.5, expected 1.0",
                         id="sum-below-one"),
            pytest.param('{"default": {"0": 1.0}, "*#1": {"0": 0.5}}',
                         "distribution '*#1': probabilities sum to 0.5, expected 1.0", id="sum-below-one-keyed"),
            pytest.param('{"default": {"0": 0.5}}', "distribution 'default': probabilities sum to 0.5, expected 1.0",
                         id="default-sum-below-one"),
            pytest.param('{"*#": {"0": NaN, "1": 0.5, "2": 0.5}}', "probability nan of token 0 is not finite",
                         id="prob-nan"),
            pytest.param('{"*#": {"0": Infinity}}', "probability inf of token 0 is not finite", id="prob-infinity"),
            pytest.param('{"*#": {"0": 1%s}}' % ("0" * 400),
                         "distribution '*#': probability of token 0 is an integer past the float range, not a number",
                         id="prob-huge-int"),
            pytest.param('{"*#": {"0": null}}', "distribution '*#': probability of token 0 is null, not a number",
                         id="prob-null"),
            # float() reads each of these as a number, and each loaded with exit 0.
            pytest.param('{"*#": {"0": true}}', "distribution '*#': probability of token 0 is a boolean, not a number",
                         id="prob-true"),
            pytest.param('{"*#": {"0": 1.0, "1": false}}',
                         "distribution '*#': probability of token 1 is a boolean, not a number", id="prob-false"),
            pytest.param('{"*#": {"0": "1.0"}}', "distribution '*#': probability of token 0 is '1.0', not a number",
                         id="prob-string"),
            pytest.param('{"default": {"0": " 1 "}}',
                         "distribution 'default': probability of token 0 is ' 1 ', not a number", id="prob-spaced-string"),
            # Loaded as no default, with the uniform one.
            pytest.param('{"default": null}', "distribution 'default' must be an object, not NoneType",
                         id="default-null"),
            # int() reads each of these distribution ids as another token.
            pytest.param('{"*#": {"1_0": 1.0}}', "distribution '*#': '1_0' is not a decimal token id",
                         id="underscore-dist-id"),
            pytest.param('{"*#": {" 3": 1.0}}', "distribution '*#': ' 3' is not a decimal token id",
                         id="space-dist-id"),
            pytest.param('{"*#": {"+4": 1.0}}', "distribution '*#': '+4' is not a decimal token id",
                         id="sign-dist-id"),
            pytest.param('{"*#": {"\u0665": 1.0}}', "distribution '*#': '\u0665' is not a decimal token id",
                         id="non-ascii-dist-id"),
            # "0" and "00" are two keys but one token id.
            pytest.param('{"*#": {"0": 0.5, "00": 0.5}}', "token id 0 listed twice", id="id-twice"),
        ],
    )
    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_malformed_table(self, workspace, capsys, command, text, message):
        table = workspace["dir"] / "bad_table.json"
        table.write_text(text, encoding="utf-8")
        argv = ["--vocab", workspace["vocab"], "--scorer", f"table:{table}", command,
                "--input", workspace["dataset"], "--output", str(workspace["dir"] / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {table}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "lines",
        [[], ['{"header": {"dataset": "dev"}}'], ['{"header": {}}', '{"context": "the IRA", "qas": []}']],
        ids=["empty-file", "header-only", "no-questions"],
    )
    def test_partition_without_examples(self, workspace, capsys, lines):
        dataset = workspace["dir"] / "empty.jsonl"
        dataset.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = workspace["dir"] / "parts.jsonl"
        argv = ["--vocab", workspace["vocab"], "partition", "--input", str(dataset), "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"data error: {dataset}: no examples\n"
        assert not out.exists()


# Each file read whole, and the faults a file of it can hold: a byte that is
# not UTF-8, and for a JSON file invalid JSON and a wrong top-level type.
WHOLE_FILE_FAULTS = {"bad-byte": b'"\xff"', "invalid-json": b"{", "wrong-type": b'"text"'}
WHOLE_FILE_INPUTS = [
    (flag, fault)
    for flag in ["--vocab", "table:", "--prompt-file", "select-hp --scores", "report --input",
                 "rss-gen --stopwords", "remote --vocab", "remote --table"]
    for fault in (["bad-byte"] if flag == "rss-gen --stopwords" else WHOLE_FILE_FAULTS)
]


@pytest.mark.parametrize(
    "flag, fault", WHOLE_FILE_INPUTS, ids=[f"{flag.replace(' ', '')}-{fault}" for flag, fault in WHOLE_FILE_INPUTS]
)
def test_malformed_whole_file_input_is_one_line_naming_it(workspace, capsys, flag, fault):
    bad = workspace["dir"] / "bad.json"
    bad.write_bytes(WHOLE_FILE_FAULTS[fault])
    out = str(workspace["dir"] / "out")
    decode = ["decode", "--input", workspace["dataset"], "--output", out]
    corpus = workspace["dir"] / "corpus.txt"
    corpus.write_text("blue bird saw blue bird\n", encoding="utf-8")
    table = workspace["table"].removeprefix("table:")
    argv = {
        "--vocab": ["--vocab", str(bad), "--scorer", workspace["table"], *decode],
        "table:": ["--vocab", workspace["vocab"], "--scorer", f"table:{bad}", *decode],
        "--prompt-file": base_args(workspace) + decode + ["--prompt-file", str(bad)],
        "select-hp --scores": ["select-hp", "--scores", str(bad)],
        "report --input": ["report", "--input", str(bad)],
        "rss-gen --stopwords": ["rss-gen", "--input", str(corpus), "--output", out, "--stopwords", str(bad)],
        "remote --vocab": ["--vocab", str(bad), "--table", table],
        "remote --table": ["--vocab", workspace["vocab"], "--table", str(bad)],
    }[flag]
    if flag.startswith("remote"):
        child = subprocess.run([sys.executable, "-m", "spandecode.remote", *argv], stdin=subprocess.DEVNULL,
                               capture_output=True, text=True, timeout=60)
        code, err = child.returncode, child.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith(f"data error: {bad}")
    assert "Traceback" not in err


# Values a type-swap puts in place of any value of an input file.
SWAPS = [True, False, None, 0, 3, -1, 0.5, "", "x", "1.0", [], [1], {}, {"0": 1.0}]
FUZZ_COMMANDS = [["decode", "--algo", "exact"], ["decode", "--algo", "greedy"], ["eval"]]


def _places(node, path=()):
    """The path of ``node`` and of every value inside it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _places(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _type_swapped(rng: random.Random, doc):
    """``doc`` with one seeded change: a value swapped for one of SWAPS, a
    key dropped, or a bad key added; and the change, as text."""
    doc = copy.deepcopy(doc)
    places = list(_places(doc))
    how = rng.choice(["swap", "swap", "drop", "add"])
    if how == "add":
        parent = rng.choice([p for p in places if isinstance(_at(doc, p), dict)])
        key = rng.choice(["", "zz", "*#x", "9#"])
        _at(doc, parent)[key] = value = rng.choice(SWAPS)
        return doc, f"add {parent + (key,)} = {value!r}"
    path = rng.choice(places[1:])
    parent = _at(doc, path[:-1])
    if how == "drop":
        del parent[path[-1]]
        return doc, f"drop {path}"
    parent[path[-1]] = value = rng.choice(SWAPS)
    return doc, f"swap {path} = {value!r}"


@pytest.mark.parametrize("name", ["vocab", "table", "dataset"])
def test_type_swapped_inputs_end_in_one_data_error_line_or_succeed(workspace, capsys, name):
    """Seeded changes to one input file: each run of decode (exact and
    greedy) and eval exits 0, or 2 with one data error line."""
    paths = {
        "vocab": workspace["dir"] / "vocab.json",
        "table": workspace["dir"] / "table.json",
        "dataset": workspace["dir"] / "dev.jsonl",
    }
    original = json.loads(paths[name].read_text(encoding="utf-8"))
    rng = random.Random(f"type-swap {name}")
    changes = [(*_type_swapped(rng, original), False) for _ in range(60)]
    if name == "table":
        # Each of these once loaded with exit 0.
        changes += [({**original, "default": value}, f"default = {value!r}", True)
                    for value in ({"0": True}, {"0": "1.0"}, None)]
    argv = base_args(workspace) + ["--input", workspace["dataset"], "--output", str(workspace["dir"] / "out")]
    for doc, change, fails in changes:
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
        for command in FUZZ_COMMANDS:
            code = main(argv[:4] + command + argv[4:])
            err = capsys.readouterr().err
            assert code in ((2,) if fails else (0, 2)) and "Traceback" not in err, (name, change, command, err)
            if code == 2:
                assert err.startswith("data error: ") and err.count("\n") == 1, (name, change, command, err)
            if fails:
                assert err.startswith(f"data error: {paths[name]}: distribution 'default'"), err


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_prompt_file_that_is_not_json_is_a_data_error_naming_it(workspace, capsys, command):
    prompt_file = workspace["dir"] / "templates.json"
    prompt_file.write_text("{\n", encoding="utf-8")
    argv = base_args(workspace) + [command, "--input", workspace["dataset"],
                                   "--output", str(workspace["dir"] / "out.json"), "--prompt-file", str(prompt_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {prompt_file}: Expecting property name")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_prompt_file_may_carry_the_target_pattern(workspace, command):
    # The built-in templates.json carries it on every entry.
    prompt_file = workspace["dir"] / "templates.json"
    prompt_file.write_text(
        json.dumps([{**TEMPLATE_2, "target_pattern": "<extra_id_0>{a}<extra_id_1>"}]), encoding="utf-8"
    )
    outputs = []
    for flags in ([], ["--prompt-file", str(prompt_file)]):
        out = workspace["dir"] / "out.json"
        argv = base_args(workspace) + [command, "--input", workspace["dataset"], "--output", str(out)]
        assert main(argv + flags) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestTerminatorMode:
    def test_eos_mode_changes_terminator(self, workspace):
        # Under eos mode the close sentinel no longer terminates, so the
        # biased table's probability mass on it is unreachable and decoding
        # falls back to the uniform default everywhere.
        out = workspace["dir"] / "eos_out.jsonl"
        code = main(
            base_args(workspace)
            + ["--terminator-mode", "eos", "decode", "--input", workspace["dataset"],
               "--output", str(out)]
        )
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["text"] != "IRA"


def test_decode_eval_and_serve_modules_load_no_openssl():
    # hashlib loads OpenSSL's libcrypto, several MB of each process's
    # memory; only subsample and rss-gen need it, and import it when called.
    probe = "import sys; print('_hashlib' in sys.modules)"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    if bare.stdout.strip() != "False":
        pytest.skip("the bare interpreter already loads _hashlib")
    code = ("import spandecode.cli, spandecode.remote\n"
            "spandecode.cli.Vocabulary(['a', '</s>'], '</s>', [])\n" + probe)
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_decode_and_eval_over_a_table_load_no_transport_rss_or_thread_pool(workspace, tmp_path, command):
    # Each is imported where it is needed: the transports for a scorer
    # that is not a table, rss for rss-gen, and concurrent.futures (which
    # imports logging) for --jobs > 1.
    modules = ["spandecode.remote", "spandecode.rss", "concurrent.futures"]
    probe = f"import sys; print([m for m in {modules!r} if m in sys.modules])"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    if bare.stdout.strip() != "[]":
        pytest.skip(f"the bare interpreter already loads {bare.stdout.strip()}")
    argv = ["--vocab", workspace["vocab"], "--scorer", workspace["table"], command,
            "--input", workspace["dataset"], "--output", str(tmp_path / "out.json")]
    code = f"from spandecode.cli import main\nassert main({argv!r}) == 0\n{probe}"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[-1] == "[]"
