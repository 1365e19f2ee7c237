import gzip
import hashlib
import random
import re

import pytest

from spandecode.mrqa import DataError
from spandecode.rss import (
    RssConfig,
    find_recurring_spans,
    generate_corpus,
    load_stopwords,
    make_example,
    read_passages,
)

STOPWORDS = frozenset({"a", "an", "the", "was", "in", "and", "of", "he"})


def cfg(**kwargs):
    kwargs.setdefault("stopwords", STOPWORDS)
    return RssConfig(**kwargs)


def count_word_occurrences(passage: str, surface: str) -> int:
    """Independent counter: non-overlapping word-aligned matches."""
    import re

    words = re.findall(r"\w+|[^\w\s]", passage)
    target = re.findall(r"\w+|[^\w\s]", surface)
    count = 0
    i = 0
    while i <= len(words) - len(target):
        if words[i : i + len(target)] == target:
            count += 1
            i += len(target)
        else:
            i += 1
    return count


@pytest.mark.parametrize("written", ["the", "The", "THE"])
def test_a_stopword_file_matches_in_any_case(tmp_path, written):
    path = tmp_path / "stopwords.txt"
    path.write_text(f"{written}\n", encoding="utf-8")
    stopwords = load_stopwords(path)
    assert stopwords == {"the"}
    spans = find_recurring_spans("The bird saw The bird", cfg(stopwords=stopwords))
    assert [span.surface for span in spans] == ["bird"]


class TestFindRecurringSpans:
    def test_all_stopword_passage(self):
        assert find_recurring_spans("a a a", cfg()) == []

    def test_recurring_name(self):
        passage = "Alan Turing was born in London and Alan Turing died in Wilmslow"
        spans = find_recurring_spans(passage, cfg())
        assert [s.surface for s in spans] == ["Alan Turing"]
        assert spans[0].occurrence_count == 2

    def test_no_repeated_content(self):
        assert find_recurring_spans("every word here differs", cfg()) == []

    def test_submaximal_spans_suppressed(self):
        # "Alan" and "Turing" recur only inside "Alan Turing"; neither is maskable.
        passage = "Alan Turing proved it ; Alan Turing showed it"
        spans = find_recurring_spans(passage, cfg())
        surfaces = {s.surface for s in spans}
        assert "Alan Turing" in surfaces
        assert "Alan" not in surfaces and "Turing" not in surfaces

    def test_stopword_boundaries_excluded(self):
        passage = "the big dog ran and the big dog slept"
        spans = find_recurring_spans(passage, cfg())
        assert {s.surface for s in spans} == {"big dog"}

    def test_overlapping_occurrences_not_double_counted(self):
        # "x x x" holds only two non-overlapping "x x" occurrences... one,
        # actually: positions 0 and 1 overlap, position 2 is out of range.
        spans = find_recurring_spans("x x x", cfg(max_span_words=2))
        assert all(s.surface != "x x" for s in spans)

    def test_length_cap(self):
        passage = "one two three four . one two three four ."
        spans = find_recurring_spans(passage, cfg(max_span_words=2))
        assert all(s.num_words <= 2 for s in spans)


class TestMakeExample:
    def test_no_candidates(self):
        assert make_example("nothing repeats here", cfg()) is None

    def test_masking_and_target_format(self):
        passage = "Alan Turing was born in London and Alan Turing died in Wilmslow"
        example = make_example(passage, cfg(rng_seed=0))
        assert example is not None
        assert example.masked_passage.count("<extra_id_0>") == 1
        assert example.target == "<extra_id_0>Alan Turing<extra_id_1>"
        assert example.span_surface == "Alan Turing"
        assert "Alan Turing" in example.masked_passage
        assert example.occurrence_count == 2

    def test_deterministic(self):
        passage = "Alan Turing was born in London and Alan Turing died in Wilmslow"
        a = make_example(passage, cfg(rng_seed=7))
        b = make_example(passage, cfg(rng_seed=7))
        assert a == b

    def test_seed_changes_choice_eventually(self):
        passage = "red fox saw blue bird then red fox chased blue bird again"
        picks = {make_example(passage, cfg(rng_seed=s)).masked_passage for s in range(20)}
        assert len(picks) > 1


def random_passages(rng, count):
    words = ["turing", "london", "fox", "bird", "the", "a", "ran", "blue", "red", "dog"]
    out = []
    for _ in range(count):
        out.append(" ".join(rng.choice(words) for _ in range(rng.randint(3, 30))))
    return out


@pytest.mark.parametrize(
    "seed, surface, masked",
    [
        (0, "Alan Turing", "Alan Turing was born in London and <extra_id_0> died in Wilmslow near London"),
        (4, "London", "Alan Turing was born in <extra_id_0> and Alan Turing died in Wilmslow near London"),
    ],
)
def test_seeded_choice_is_pinned(seed, surface, masked):
    # The span and occurrence drawn for each seed: the passage's SHA-256
    # seeds them, so any change to that digest moves them.
    passage = "Alan Turing was born in London and Alan Turing died in Wilmslow near London"
    example = make_example(passage, RssConfig(rng_seed=seed))
    assert (example.span_surface, example.masked_passage, example.occurrence_count) == (surface, masked, 2)


def oracle_spans(passage, stopwords, min_words, max_words):
    """The spans ``find_recurring_spans``'s docstring defines, by brute force
    over every word span, as (surface, words, char spans, count) tuples."""
    words = [(m.group(), m.start(), m.end()) for m in re.finditer(r"\w+|[^\w\s]", passage)]
    texts = [w[0] for w in words]

    def count(i, n):
        return count_word_occurrences(passage, " ".join(texts[i : i + n]))

    def qualifies(i, n):
        if not (min_words <= n <= max_words and 0 <= i and i + n <= len(texts)):
            return False
        gram = [w.lower() for w in texts[i : i + n]]
        return (
            gram[0] not in stopwords
            and gram[-1] not in stopwords
            and any(w not in stopwords for w in gram)
            and count(i, n) >= 2
        )

    groups = {}
    for n in range(min_words, max_words + 1):
        for i in range(len(texts) - n + 1):
            if qualifies(i, n) and not qualifies(i - 1, n + 1) and not qualifies(i, n + 1):
                start, end = words[i][1], words[i + n - 1][2]
                groups.setdefault((passage[start:end], n), []).append((start, end, count(i, n)))
    spans = [
        (surface, n, tuple(sorted((start, end) for start, end, _ in occs)), occs[0][2])
        for (surface, n), occs in groups.items()
        if len(occs) >= 2
    ]
    return sorted(spans, key=lambda s: (s[2][0], -s[1]))


def oracle_example(passage, spans, seed):
    """The record of one occurrence of one span, drawn by the passage's
    seeded SHA-256, masked."""
    if not spans:
        return None
    rng = random.Random(int(hashlib.sha256(f"{seed}:{passage}".encode("utf-8")).hexdigest(), 16))
    surface, _, char_spans, count = spans[rng.randrange(len(spans))]
    start, end = char_spans[rng.randrange(len(char_spans))]
    return {
        "masked_passage": passage[:start] + "<extra_id_0>" + passage[end:],
        "target": f"<extra_id_0>{surface}<extra_id_1>",
        "span_surface": surface,
        "occurrence_count": count,
    }


def test_spans_and_examples_equal_a_brute_force_oracle():
    rng = random.Random(23)
    pool = ["Alan", "alan", "Turing", "the", "The", "a", "of", "fox", "Fox", "café", "Straße",
            "bird", "x", "1971", ",", ".", "(", ")", "'", "and", "était"]
    separators = [" ", " ", " ", "  ", "\t", "", " \t "]
    with_spans = 0
    for _ in range(1500):
        words = rng.sample(pool, rng.randint(2, len(pool)))
        passage = "".join(rng.choice(words) + rng.choice(separators) for _ in range(rng.randint(0, 40)))
        low = rng.randint(1, 6)
        high = rng.randint(low, 6)
        stopwords = frozenset(w.lower() for w in rng.sample(pool, rng.randint(0, 10)))
        config = RssConfig(stopwords, low, high, rng.randrange(10))
        expected = oracle_spans(passage, stopwords, low, high)
        spans = find_recurring_spans(passage, config)
        assert [(s.surface, s.num_words, s.char_spans, s.occurrence_count) for s in spans] == expected, passage
        example = make_example(passage, config)
        assert (example and example.to_dict()) == oracle_example(passage, expected, config.rng_seed), passage
        with_spans += bool(expected)
    assert with_spans > 200


class TestGenerateCorpus:
    def test_limit_one(self):
        passages = ["dog ran dog ran"]
        assert len(list(generate_corpus(passages, cfg(), limit=1))) == 1

    def test_skips_passages_without_candidates(self):
        passages = [
            "dog ran far",
            "dog ran then dog ran",
            "all unique words",
            "blue bird blue bird",
            "fox fox fox",
            "nothing here twice",
            "red red red red",
            "bird saw nothing",
            "one lonely line",
            "totally distinct again",
        ]
        examples = list(generate_corpus(passages, cfg(), limit=100))
        assert len(examples) == 4

    def test_truncates_at_limit(self):
        passages = ["dog ran dog ran", "fox fox", "bird bird", "red red"]
        examples = list(generate_corpus(passages, cfg(), limit=2))
        assert len(examples) == 2

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            list(generate_corpus([], cfg(), limit=0))

    def test_invariants_fuzz(self):
        rng = random.Random(31)
        passages = random_passages(rng, 300)
        for example in generate_corpus(passages, cfg(rng_seed=5), limit=1000):
            assert example.masked_passage.count("<extra_id_0>") == 1
            assert example.occurrence_count >= 2
            reconstructed = example.masked_passage.replace(
                "<extra_id_0>", example.span_surface
            )
            assert example.span_surface in reconstructed
            assert example.occurrence_count == count_word_occurrences(
                reconstructed, example.span_surface
            )
            assert example.target == f"<extra_id_0>{example.span_surface}<extra_id_1>"

    def test_byte_identical_across_runs(self):
        import json

        rng = random.Random(77)
        passages = random_passages(rng, 100)
        runs = []
        for _ in range(2):
            lines = [
                json.dumps(e.to_dict(), ensure_ascii=False)
                for e in generate_corpus(passages, cfg(rng_seed=3), limit=1000)
            ]
            runs.append("\n".join(lines))
        assert runs[0] == runs[1]


class TestConfig:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            cfg(min_span_words=3, max_span_words=2)


class TestReadPassages:
    def test_text_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("one line\n\ntwo line\n", encoding="utf-8")
        assert list(read_passages(path)) == ["one line", "two line"]

    def test_text_lines_split_as_text_mode_splits_them(self, tmp_path):
        # CRLF and a lone CR end a line, and non-ASCII text is kept whole.
        path = tmp_path / "corpus.txt"
        path.write_bytes("one two\r\nfour café\rfive\n \r\n".encode("utf-8"))
        assert list(read_passages(path)) == ["one two", "four café", "five"]

    @pytest.mark.parametrize(
        "name, data, where",
        [
            # Past the first chunk text mode decodes ahead.
            ("corpus.txt", b"ok line\n" * 2000 + b"bad \xe9 here\n", "corpus.txt:2001: "),
            ("corpus.txt", b"ok line\nends in \xc3", "corpus.txt:2: "),
            ("corpus.jsonl", b'{"text": "ok"}\n' * 1000 + b'{"text": "caf\xe9"}\n', "corpus.jsonl:1001: "),
        ],
        ids=["text", "text-truncated", "jsonl"],
    )
    def test_undecodable_line_names_the_file_and_line(self, tmp_path, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(f'{tmp_path}/{where}')}'utf-8' codec can't decode"):
            list(read_passages(path))

    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "from wiki"}\n{"text": "more"}\n', encoding="utf-8")
        assert list(read_passages(path)) == ["from wiki", "more"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("corpus.jsonl.gz", '{"text": "from wiki"}\n\n{"text": "more"}\n'),
            ("corpus.txt.gz", "from wiki\n\nmore\n"),
            ("corpus.gz", "from wiki\r\nmore"),
        ],
        ids=["jsonl", "text", "bare-gz"],
    )
    def test_gzip_input_is_read_through_gzip(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(gzip.compress(text.encode("utf-8")))
        assert list(read_passages(path)) == ["from wiki", "more"]

    @pytest.mark.parametrize("name", ["corpus.jsonl.gz", "corpus.txt.gz"])
    def test_gz_name_that_is_not_gzip_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_text('{"text": "from wiki"}\n', encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Not a gzipped file"):
            list(read_passages(path))

    def test_undecodable_line_in_gzip_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.txt.gz"
        path.write_bytes(gzip.compress(b"ok line\nbad \xe9 here\n"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: 'utf-8' codec can't decode"):
            list(read_passages(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "invalid JSON"),
            ('["from wiki"]', "expected a JSON object, got list"),
            ('{"txt": "blue bird saw blue bird"}', "missing field 'text'"),
            ('{"text": 3}', "text must be a string, not int"),
            ('{"text": null}', "text must be a string, not NoneType"),
        ],
        ids=["not-json", "not-an-object", "no-text", "text-int", "text-null"],
    )
    def test_malformed_jsonl_line_names_the_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(f'{{"text": "from wiki"}}\n\n{line}\n', encoding="utf-8")
        passages = read_passages(path)
        assert next(passages) == "from wiki"
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:3: {message}')}"):
            next(passages)
