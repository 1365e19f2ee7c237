"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error, 3 scorer transport error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import harness, metrics
from .decoding import GREEDY, NAIVE, DecodeConfig, exact_extract, greedy_decode, naive_exact
from .mrqa import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SIZES,
    DataError,
    QAExample,
    example_id,
    load_dataset,
    paragraph_examples,
    read_json,
    read_jsonl,
    subsample,
)
from .prompting import CLOSE_SENTINEL, DEFAULT_TEMPLATE_ID, get_template
from .scorer import ScorerError, TableLM, positive_int
from .vocab import Vocabulary

SCORER_URL_ENV = "SPANDECODE_SCORER_URL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, else a usage error."""
    try:
        return positive_int(int(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}") from None


def _positive_ints(text: str) -> tuple[int, ...]:
    """An argparse type: a comma-separated list of integers >= 1."""
    return tuple(map(_positive_int, text.split(",")))


def _terminator_ids(vocab: Vocabulary, mode: str) -> frozenset[int]:
    sentinel = vocab.piece_id(CLOSE_SENTINEL) if CLOSE_SENTINEL in vocab.pieces else None
    if mode == "sentinel":
        if sentinel is None:
            raise DataError(f"vocabulary has no {CLOSE_SENTINEL} piece")
        return frozenset({sentinel})
    if mode == "eos":
        return frozenset({vocab.terminator_id})
    ids = {vocab.terminator_id}
    if sentinel is not None:
        ids.add(sentinel)
    return frozenset(ids)


def make_scorer(spec: str, vocab: Vocabulary, terminator_mode: str = "sentinel"):
    """Build a scorer from a "table:FILE", "remote:URL" or "stdio:CMD" spec."""
    term_ids = _terminator_ids(vocab, terminator_mode)
    if spec.startswith("table:"):
        return TableLM.from_file(spec[len("table:"):], vocab, terminator_ids=term_ids)
    # Imported here, so that a run over a table model does not load the transports.
    from .remote import RemoteScorer, StdioScorer

    if spec.startswith("remote:"):
        return RemoteScorer(spec[len("remote:"):], vocab, terminator_ids=term_ids)
    if spec.startswith(("http://", "https://")):
        return RemoteScorer(spec, vocab, terminator_ids=term_ids)
    if spec.startswith("stdio:"):
        return StdioScorer(spec[len("stdio:"):], vocab, terminator_ids=term_ids)
    raise UsageError(f"unrecognized scorer spec {spec!r}")


def _read_decode_inputs(path: str) -> list[QAExample]:
    """Accept MRQA paragraph lines or flat {"id","context","question"} lines;
    the first object decides which."""
    examples = []
    mrqa_lines = None
    for lineno, obj in read_jsonl(path):
        where = f"{path}:{lineno}"
        if mrqa_lines is None:
            mrqa_lines = "qas" in obj or "header" in obj
        if mrqa_lines:
            examples += paragraph_examples(obj, where)
            continue
        context, question = obj.get("context"), obj.get("question")
        if not isinstance(context, str) or not isinstance(question, str):
            raise DataError(f"{where}: context and question must be strings")
        try:
            examples.append(
                QAExample(
                    id=example_id(obj.get("id", lineno), "id"),
                    context=context,
                    question=question,
                    answers=tuple(obj.get("answers") or ("",)),
                )
            )
        except (DataError, TypeError) as exc:
            raise DataError(f"{where}: {exc}") from exc
    return examples


def _template(args):
    try:
        return get_template(args.prompt_id, args.prompt_file)
    except KeyError as exc:
        raise DataError(exc.args[0]) from exc


@contextmanager
def _replacing(path: str):
    """``path`` open for writing text: the text goes to a file beside it,
    moved over ``path`` only when the block completes, so that a run that
    fails leaves an existing ``path`` as it was and no partial file behind.
    A ``path`` that exists and is not a regular file, such as /dev/null or a
    pipe, is written in place: a rename would replace the device itself."""
    output = Path(path)
    if output.exists() and not output.is_file():
        with open(output, "w", encoding="utf-8") as out:
            yield out
        return
    partial = output.with_name(f".{output.name}.{os.getpid()}.partial")
    with open(partial, "x", encoding="utf-8") as out:
        try:
            yield out
        except BaseException:
            out.close()
            partial.unlink()
            raise
    os.replace(partial, output)


def build_parser() -> _Parser:
    parser = _Parser(prog="spandecode", description=__doc__)
    parser.add_argument("--vocab", help="vocabulary JSON file")
    parser.add_argument(
        "--scorer",
        default=os.environ.get(SCORER_URL_ENV),
        help="table:FILE | remote:URL | stdio:CMD "
        f"(default: ${SCORER_URL_ENV})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_positive_int, default=1)
    parser.add_argument(
        "--terminator-mode", choices=("sentinel", "eos", "combined"), default="sentinel"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="decode answers for a JSONL of examples")
    decode.add_argument("--algo", choices=(GREEDY, "exact", NAIVE), default="exact")
    evaluate = sub.add_parser("eval", help="compare greedy and exact decoding on a dataset")
    for p in (decode, evaluate):
        p.add_argument("--prompt-id", type=int, default=DEFAULT_TEMPLATE_ID)
        p.add_argument("--prompt-file", default=None)
        p.add_argument("--max-span-len", type=_positive_int, default=None)
        p.add_argument("--input", required=True)
    decode.add_argument("--output", required=True)
    evaluate.add_argument("--output", default=None, help="write the report JSON here")

    p = sub.add_parser("subsample", help="draw few-shot training splits")
    p.add_argument("--input", required=True)
    p.add_argument("--validation", default=None)
    p.add_argument("--sizes", type=_positive_ints, default=DEFAULT_SIZES)
    p.add_argument("--num-samples", type=_positive_int, default=DEFAULT_NUM_SAMPLES)
    p.add_argument("--output", required=True)

    p = sub.add_parser("partition", help="classify examples as S_in / S_out")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("select-hp", help="pick the best configuration index")
    p.add_argument("--scores", required=True, help="JSON 3-d array s[i][n][k]")

    p = sub.add_parser("rss-gen", help="generate recurring-span pretraining data")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--limit", type=_positive_int, default=100000)
    p.add_argument("--stopwords", default=None)
    p.add_argument("--min-span", type=_positive_int, default=1)
    p.add_argument("--max-span", type=_positive_int, default=10)

    p = sub.add_parser("report", help="render an EvalReport JSON as a table")
    p.add_argument("--input", required=True)

    return parser


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"{flag} is required for this command")
    return value


def cmd_decode(args) -> int:
    vocab = Vocabulary.from_file(_require(args.vocab, "--vocab"))
    scorer = make_scorer(_require(args.scorer, "--scorer"), vocab, args.terminator_mode)
    try:
        template = _template(args)
        cfg = DecodeConfig(max_span_len=args.max_span_len)
        examples = _read_decode_inputs(args.input)

        def decode_one(example: QAExample) -> str:
            source, prefix, passage = harness.prepare_example(example, template, vocab)
            if args.algo == GREEDY:
                result = greedy_decode(source, prefix, scorer, cfg, passage=passage)
            elif args.algo == NAIVE:
                result = naive_exact(passage, source, prefix, scorer, cfg)
            else:
                result = exact_extract(passage, source, prefix, scorer, cfg)
            return json.dumps({"id": example.id, **result.to_dict()}) + "\n"

        with _replacing(args.output) as out:
            for row in harness.map_examples(decode_one, examples, args.jobs):
                out.write(row)
    finally:
        scorer.close()
    return EXIT_OK


def cmd_eval(args) -> int:
    vocab = Vocabulary.from_file(_require(args.vocab, "--vocab"))
    scorer = make_scorer(_require(args.scorer, "--scorer"), vocab, args.terminator_mode)
    try:
        template = _template(args)
        dataset = load_dataset(args.input)
        cfg = DecodeConfig(max_span_len=args.max_span_len)
        report = harness.run_eval(dataset, scorer, template, vocab, cfg, jobs=args.jobs)
    finally:
        scorer.close()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2)
    print(report.render_table())
    return EXIT_OK


def cmd_subsample(args) -> int:
    dataset = load_dataset(args.input)
    validation = load_dataset(args.validation) if args.validation else None
    splits = subsample(dataset, args.sizes, args.num_samples, args.seed, validation)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump([asdict(s) for s in splits], f, indent=2)
    print(f"wrote {len(splits)} splits")
    return EXIT_OK


def cmd_partition(args) -> int:
    vocab = Vocabulary.from_file(_require(args.vocab, "--vocab"))
    dataset = load_dataset(args.input)
    if not dataset:
        raise DataError(f"{args.input}: no examples")
    counts = {metrics.S_IN: 0, metrics.S_OUT: 0}
    records = []
    for example in dataset:
        part = metrics.partition_example(example.answers, example.context, vocab)
        counts[part] += 1
        records.append({"id": example.id, "partition": part})
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
    total = len(dataset)
    for part in (metrics.S_IN, metrics.S_OUT):
        print(f"{part}: {counts[part]} ({100 * counts[part] / total:.1f}%)")
    return EXIT_OK


def cmd_select_hp(args) -> int:
    print(read_json(args.scores, harness.select_hyperparameters))
    return EXIT_OK


def cmd_rss_gen(args) -> int:
    from . import rss

    stopwords = rss.load_stopwords(args.stopwords) if args.stopwords else rss.default_stopwords()
    cfg = rss.RssConfig(
        stopwords=stopwords,
        min_span_words=args.min_span,
        max_span_words=args.max_span,
        rng_seed=args.seed,
    )
    count = 0
    with _replacing(args.output) as out:
        for example in rss.generate_corpus(rss.read_passages(args.input), cfg, args.limit):
            out.write(json.dumps(example.to_dict(), ensure_ascii=False) + "\n")
            count += 1
    print(f"wrote {count} examples")
    return EXIT_OK


def cmd_report(args) -> int:
    def render(obj) -> str:
        # A missing or mistyped field fails in reading the report or in rendering it.
        try:
            return harness.EvalReport.from_dict(obj).render_table()
        except KeyError as exc:
            raise DataError(f"report has no field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed report: {exc}") from exc

    print(read_json(args.input, render))
    return EXIT_OK


COMMANDS = {
    "decode": cmd_decode,
    "eval": cmd_eval,
    "subsample": cmd_subsample,
    "partition": cmd_partition,
    "select-hp": cmd_select_hp,
    "rss-gen": cmd_rss_gen,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ScorerError as exc:
        print(f"scorer error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    raise SystemExit(main())
