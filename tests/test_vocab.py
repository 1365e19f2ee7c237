import random

import pytest

from spandecode.vocab import (
    TokenSeq,
    UnknownTokenError,
    Vocabulary,
    VocabularyMismatchError,
    is_token_subsequence,
)


def ids_of(vocab, *pieces):
    return tuple(vocab.piece_id(p) for p in pieces)


class TestEncode:
    def test_empty_input(self, toy_vocab):
        assert toy_vocab.encode("").ids == ()

    def test_subword_boundary_artifact(self, toy_vocab):
        # "(1971)" segments across the digit boundary, "1971" does not.
        assert toy_vocab.encode("(1971)").ids == ids_of(toy_vocab, "▁(19", "71", ")")
        assert toy_vocab.encode("1971").ids == ids_of(toy_vocab, "▁1971")

    def test_longest_match_wins(self):
        vocab = Vocabulary(["a", "aa", "▁", "</s>"], "</s>", [])
        seq = vocab.encode("aa")
        assert [vocab.pieces[i] for i in seq.ids] == ["▁", "aa"]

    def test_deterministic(self, toy_vocab):
        text = "The album released in 1971."
        assert toy_vocab.encode(text).ids == toy_vocab.encode(text).ids

    def test_byte_fallback_covers_unknown_chars(self, toy_vocab):
        seq = toy_vocab.encode("xyz")
        assert all(toy_vocab.is_valid_id(i) for i in seq.ids)
        assert toy_vocab.decode(seq) == "xyz"

    def test_case_sensitive(self, toy_vocab):
        # "the" is a piece, "The" is too; they get different ids.
        assert toy_vocab.encode("the") != toy_vocab.encode("The")


class TestDecode:
    def test_empty(self, toy_vocab):
        assert toy_vocab.decode(toy_vocab.seq([])) == ""

    def test_paper_roundtrip(self, toy_vocab):
        assert toy_vocab.decode(toy_vocab.seq(ids_of(toy_vocab, "▁(19", "71", ")"))) == "(1971)"

    def test_boundary_marker_becomes_space(self, toy_vocab):
        seq = toy_vocab.seq(ids_of(toy_vocab, "▁the", "▁IRA"))
        assert toy_vocab.decode(seq) == "the IRA"

    def test_unknown_id_rejected(self, toy_vocab):
        with pytest.raises(UnknownTokenError):
            toy_vocab.decode([toy_vocab.size + 300])

    @pytest.mark.parametrize("bad", [-1, 16 + 256, 1.0, 1.5, True, False, "1", None])
    def test_only_ints_in_range_are_ids(self, toy_vocab, bad):
        # Only an int (not a bool) in [0, size + 256) is a token id.
        assert toy_vocab.is_valid_id(0) and toy_vocab.is_valid_id(16 + 255)
        assert not toy_vocab.is_valid_id(bad)
        with pytest.raises(UnknownTokenError):
            toy_vocab.decode([bad])
        with pytest.raises(UnknownTokenError):
            toy_vocab.seq([0, bad])

    @pytest.mark.parametrize("bad", [True, False, -1, 16 + 256, 10**30, "3", 2.0, None])
    @pytest.mark.parametrize("at", [0, 2])
    def test_seq_names_the_first_bad_id(self, toy_vocab, bad, at):
        ids = [0, 1, 16 + 255][:at] + [bad, -5, "x"]
        with pytest.raises(UnknownTokenError) as raised:
            toy_vocab.seq(iter(ids))
        assert str(raised.value) == f"{bad!r} is not a token id of this vocabulary"

    def test_vocab_mismatch_rejected(self, toy_vocab):
        other = TokenSeq((0,), "deadbeef")
        with pytest.raises(VocabularyMismatchError):
            toy_vocab.decode(other)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["(1971)", "1971", "the IRA was active", "The album.", "odd☃chars", "a  b"],
    )
    def test_examples(self, toy_vocab, text):
        assert toy_vocab.decode(toy_vocab.encode(text)) == text

    def test_fuzz(self, toy_vocab):
        rng = random.Random(7)
        alphabet = "abcdefgh ()1971.IRAThe☃"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            decoded = toy_vocab.decode(toy_vocab.encode(text))
            # Differences are confined to the boundary-marker whitespace rule.
            assert decoded.split() == text.split()


class TestSubsequence:
    def test_empty_needle(self, toy_vocab):
        hay = toy_vocab.encode("the IRA")
        assert is_token_subsequence(toy_vocab.encode(""), hay)

    def test_tokenization_mismatch(self, toy_vocab):
        # The answer "1971" is not a token subsequence of "(1971)".
        assert not is_token_subsequence(
            toy_vocab.encode("1971"), toy_vocab.encode("(1971)")
        )

    def test_suffix_match(self, toy_vocab):
        hay = toy_vocab.encode("(1971)")
        needle = toy_vocab.seq(ids_of(toy_vocab, "71", ")"))
        assert is_token_subsequence(needle, hay)

    def test_vocab_mismatch(self, toy_vocab):
        with pytest.raises(VocabularyMismatchError):
            is_token_subsequence(TokenSeq((0,), "deadbeef"), toy_vocab.encode("x"))

    def test_agrees_with_bruteforce(self, toy_vocab):
        rng = random.Random(11)
        for _ in range(200):
            hay = tuple(rng.randrange(toy_vocab.size) for _ in range(rng.randint(0, 12)))
            needle = tuple(rng.randrange(toy_vocab.size) for _ in range(rng.randint(0, 4)))
            expected = any(
                hay[i : i + len(needle)] == needle
                for i in range(len(hay) - len(needle) + 1)
            ) or len(needle) == 0
            got = is_token_subsequence(toy_vocab.seq(needle), toy_vocab.seq(hay))
            assert got == expected


class TestConcatenate:
    @pytest.mark.parametrize("operand", [(3,), [3], 3, None, "x"])
    def test_an_operand_that_is_no_sequence_is_a_type_error(self, toy_vocab, operand):
        seq = toy_vocab.seq((1, 2))
        with pytest.raises(TypeError):
            seq + operand
        with pytest.raises(TypeError):
            operand + seq


class TestPieceSurface:
    def test_every_slice_is_a_substring(self, toy_vocab):
        seq = toy_vocab.encode("The album released in the (1971) IRA.")
        surface, offsets = toy_vocab.piece_surface(seq)
        n = len(seq)
        assert len(offsets) == n + 1 and offsets[n] == len(surface)
        for i in range(n + 1):
            for j in range(i, n + 1):
                text = surface[offsets[i] : offsets[j]]
                assert toy_vocab.decode(seq[i:j]) == (text[1:] if text.startswith(" ") else text)

    def test_byte_fallback_has_no_offsets(self, toy_vocab):
        assert toy_vocab.piece_surface(toy_vocab.encode("the é")) is None

    def test_vocab_mismatch(self, toy_vocab):
        with pytest.raises(VocabularyMismatchError):
            toy_vocab.piece_surface(TokenSeq((0,), "deadbeef"))


class TestVocabulary:
    def test_special_ids_present(self, toy_vocab):
        assert toy_vocab.pieces[toy_vocab.terminator_id] == "</s>"

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], terminator="</s>", sentinels=[])

    def test_no_pieces_rejected(self):
        with pytest.raises(ValueError, match="^vocabulary must contain at least one piece$"):
            Vocabulary([], terminator="</s>", sentinels=[])

    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a", "</s>"], "</s>", [])

    @pytest.mark.parametrize("pieces, index", [(["", "▁a", "</s>"], 0), (["▁a", "</s>", ""], 2)])
    def test_empty_piece_rejected(self, pieces, index):
        # A zero-width piece would let find_span start a span on it.
        with pytest.raises(ValueError, match=f"^piece {index} is empty$"):
            Vocabulary(pieces, "</s>", [])

    def test_vocab_id_is_the_sha1_of_the_vocabulary_json(self):
        import hashlib
        import json

        pieces = ["▁the", "▁café", "</s>", "<extra_id_0>", "<extra_id_1>"]
        sentinels = ["<extra_id_0>", "<extra_id_1>"]
        vocab = Vocabulary(pieces, terminator="</s>", sentinels=sentinels)
        text = json.dumps({"pieces": pieces, "terminator": "</s>", "sentinels": sentinels}, ensure_ascii=False)
        assert vocab.vocab_id == hashlib.sha1(text.encode("utf-8")).hexdigest()[:16] == "6f3b8b20052b9798"

    def test_file_roundtrip(self, toy_vocab, tmp_path):
        import json

        path = tmp_path / "vocab.json"
        path.write_text(
            json.dumps(
                {
                    "pieces": toy_vocab.pieces,
                    "terminator": "</s>",
                    "sentinels": ["<extra_id_0>", "<extra_id_1>"],
                }
            ),
            encoding="utf-8",
        )
        loaded = Vocabulary.from_file(path)
        assert loaded.vocab_id == toy_vocab.vocab_id
