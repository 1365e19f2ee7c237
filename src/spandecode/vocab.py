"""Table-driven subword vocabulary with greedy longest-match encoding.

The vocabulary is loaded from a JSON file and is treated as ground truth:
no normalization is applied before segmentation. Characters not covered by
any piece fall back to per-byte tokens, so encoding is total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from .mrqa import read_json

try:
    # CPython's own SHA-1, as ``random`` takes ``_sha512``: importing
    # ``hashlib`` loads OpenSSL, several MB of every process's memory.
    from _sha1 import sha1
except ImportError:
    from hashlib import sha1

SPACE_MARKER = "▁"  # "▁" marks a word boundary in piece surfaces
NUM_BYTE_TOKENS = 256
_INT = {int}


class VocabularyMismatchError(ValueError):
    """Token sequences from different vocabularies were mixed."""


class UnknownTokenError(ValueError):
    """A token id is not valid under the vocabulary it was decoded with."""


@dataclass(frozen=True, slots=True, init=False)
class TokenSeq:
    """An immutable sequence of token ids tied to the vocabulary that produced it.

    A frozen, slotted value: equality, hash, repr, ``dataclasses.replace``,
    copying and pickling are the dataclass's own. Exact-extract builds one
    per suffix, so ``__init__`` is written out: it stores each field through
    its slot descriptor, one C call each, where the generated frozen
    ``__init__`` makes one ``object.__setattr__`` call per field."""

    ids: tuple[int, ...]
    vocab_id: str

    def __init__(self, ids: tuple[int, ...], vocab_id: str):
        _set_ids(self, ids)
        _set_vocab_id(self, vocab_id)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TokenSeq(self.ids[index], self.vocab_id)
        return self.ids[index]


# The slot descriptors' setters, which a frozen class's own ``__setattr__``
# cannot reach.
_set_ids = TokenSeq.ids.__set__
_set_vocab_id = TokenSeq.vocab_id.__set__


class Vocabulary:
    """Ordered piece inventory with terminator and sentinel special tokens.

    Piece index equals token id; byte-fallback ids occupy
    ``[size, size + 256)`` and are not part of the piece table. Pieces are
    distinct and none is empty.
    """

    def __init__(self, pieces: list[str], terminator: str, sentinels: list[str]):
        if not pieces:
            raise ValueError("vocabulary must contain at least one piece")
        if "" in pieces:
            # encode never emits a zero-width piece, yet find_span could
            # start a span on one.
            raise ValueError(f"piece {pieces.index('')} is empty")
        if len(set(pieces)) != len(pieces):
            raise ValueError("duplicate pieces make token ids ambiguous")
        for special in [terminator, *sentinels]:
            if special not in pieces:
                raise ValueError(f"special token {special!r} missing from pieces")
        self.pieces = list(pieces)
        self.terminator = terminator
        self.sentinels = list(sentinels)
        self._piece_to_id = {p: i for i, p in enumerate(pieces)}
        # When the marker only ever begins a piece, no match crosses a word
        # boundary, so encode can cut the marked string into words.
        self._split_words = not any(SPACE_MARKER in p[1:] for p in pieces)
        # The id of each piece that is the marker and a word, by the word.
        self._word_to_id = {p[1:]: i for i, p in enumerate(pieces) if p[0] == SPACE_MARKER}
        # The lengths of the pieces of two or more characters, longest
        # first, by their first two characters.
        lengths: dict[str, set[int]] = {}
        for p in pieces:
            if len(p) > 1:
                lengths.setdefault(p[:2], set()).add(len(p))
        self._lengths = {pair: sorted(found, reverse=True) for pair, found in lengths.items()}
        digest = sha1(
            json.dumps(
                {"pieces": pieces, "terminator": terminator, "sentinels": sentinels},
                ensure_ascii=False,
            ).encode("utf-8")
        ).hexdigest()
        self.vocab_id = digest[:16]

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, obj: dict) -> "Vocabulary":
        """ValueError unless ``obj`` is an object with a ``pieces`` list and a
        ``terminator`` string, and ``sentinels``, if given, is a list; all
        pieces are strings."""
        if not isinstance(obj, dict):
            raise ValueError(f"vocabulary must be a JSON object, not {type(obj).__name__}")
        pieces, terminator = obj.get("pieces"), obj.get("terminator")
        sentinels = obj.get("sentinels", [])
        if not isinstance(pieces, list) or not all(isinstance(p, str) for p in pieces):
            raise ValueError("vocabulary needs a 'pieces' list of strings")
        if not isinstance(terminator, str):
            raise ValueError("vocabulary needs a 'terminator' string")
        if not isinstance(sentinels, list):
            raise ValueError("vocabulary 'sentinels' must be a list")
        return cls(pieces=pieces, terminator=terminator, sentinels=sentinels)

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocabulary":
        """Load a vocabulary JSON file; DataError naming ``path`` when it is
        not UTF-8, not valid JSON or not a vocabulary."""
        return read_json(path, cls.from_dict)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of pieces (byte-fallback ids excluded)."""
        return len(self.pieces)

    @property
    def terminator_id(self) -> int:
        return self._piece_to_id[self.terminator]

    def piece_id(self, piece: str) -> int:
        return self._piece_to_id[piece]

    def byte_id(self, byte: int) -> int:
        return self.size + byte

    def is_valid_id(self, token_id: int) -> bool:
        """True for an ``int`` (not a ``bool``) naming a piece or a byte."""
        return type(token_id) is int and 0 <= token_id < self.size + NUM_BYTE_TOKENS

    # ------------------------------------------------------------------
    def encode(self, text: str) -> TokenSeq:
        """Segment ``text`` by greedy longest match over the piece table.

        Spaces are rewritten to the word-boundary marker and a marker is
        prepended, matching the sentencepiece convention. Characters no
        piece covers are emitted as per-byte fallback tokens.

        The marked string is cut into words: before each marker when no
        piece holds the marker after its first character, so that no match
        crosses a word boundary, else not at all. Every word is looked up
        at once, by one map over a table of the pieces that are the marker
        and a word; only the words that miss it are matched by ``_match``.
        A hit on the whole uncut string is its longest match at position 0.
        """
        if not text:
            return TokenSeq((), self.vocab_id)
        marked = text.replace(" ", SPACE_MARKER)
        words = marked.split(SPACE_MARKER) if self._split_words else [marked]
        found = list(map(self._word_to_id.get, words))
        if None not in found:
            return TokenSeq(tuple(found), self.vocab_id)
        ids: list[int] = []
        for word, token in zip(words, found):
            if token is None:
                self._match(SPACE_MARKER + word, ids)
            else:
                ids.append(token)
        return TokenSeq(tuple(ids), self.vocab_id)

    def _match(self, s: str, ids: list[int]) -> None:
        """Append the greedy longest-match segmentation of ``s`` to ``ids``:
        at each position the longest piece, else the character's bytes.

        Only the lengths of the pieces that begin with the two characters
        at the position are probed, longest first, then the one character.
        A length past the end of ``s`` probes ``s[pos:]``, which, if it is
        a piece, is the longest one there, so the lengths need no bound."""
        get, lengths = self._piece_to_id.get, self._lengths
        pos, end = 0, len(s)
        while pos < end:
            for length in lengths.get(s[pos : pos + 2], ()):
                token = get(s[pos : pos + length])
                if token is not None:
                    break
            else:
                length, token = 1, get(s[pos])
            if token is None:
                ids.extend(self.byte_id(b) for b in s[pos].encode("utf-8"))
            else:
                ids.append(token)
            pos += length

    def decode(self, seq: TokenSeq | list[int] | tuple[int, ...]) -> str:
        """Concatenate piece surfaces, rendering the boundary marker as a space."""
        if isinstance(seq, TokenSeq):
            if seq.vocab_id != self.vocab_id:
                raise VocabularyMismatchError(
                    "sequence was encoded under a different vocabulary"
                )
            ids = seq.ids
        else:
            ids = tuple(seq)
        parts: list[str] = []
        byte_run: list[int] = []
        for token_id in ids:
            if not self.is_valid_id(token_id):
                raise UnknownTokenError(f"{token_id!r} is not a token id of this vocabulary")
            if token_id >= self.size:
                byte_run.append(token_id - self.size)
                continue
            if byte_run:
                parts.append(bytes(byte_run).decode("utf-8", errors="replace"))
                byte_run = []
            parts.append(self.pieces[token_id])
        if byte_run:
            parts.append(bytes(byte_run).decode("utf-8", errors="replace"))
        text = "".join(parts).replace(SPACE_MARKER, " ")
        if text.startswith(" "):
            text = text[1:]
        return text

    def piece_surface(self, seq: TokenSeq) -> tuple[str, list[int]] | None:
        """The decoded text of ``seq`` before its leading space is dropped,
        and the character offset of each token and of the end, so that
        ``decode(seq[i:j])`` is ``surface[offsets[i]:offsets[j]]`` less one
        leading space. None when ``seq`` holds an id outside the piece table:
        a byte-fallback run decodes as a whole, so its tokens have no offsets.
        """
        if seq.vocab_id != self.vocab_id:
            raise VocabularyMismatchError("sequence was encoded under a different vocabulary")
        ids = seq.ids
        if ids and (min(ids) < 0 or max(ids) >= self.size):
            return None
        surfaces = [self.pieces[t] for t in ids]
        offsets = list(accumulate(map(len, surfaces), initial=0))
        return "".join(surfaces).replace(SPACE_MARKER, " "), offsets

    def seq(self, ids) -> TokenSeq:
        """Wrap raw ids as a TokenSeq, validating them against this vocabulary."""
        ids = tuple(ids)
        # C-level reductions: serve validates every id of every request.
        # Exact types: a bool is an int to Python.
        limit = len(self.pieces) + NUM_BYTE_TOKENS
        if ids and not (set(map(type, ids)) == _INT and min(ids) >= 0 and max(ids) < limit):
            bad = next(t for t in ids if not self.is_valid_id(t))
            raise UnknownTokenError(f"{bad!r} is not a token id of this vocabulary")
        return TokenSeq(ids, self.vocab_id)


def is_token_subsequence(needle: TokenSeq, haystack: TokenSeq) -> bool:
    """True iff ``needle`` occurs as a contiguous run of ids in ``haystack``."""
    if needle.vocab_id != haystack.vocab_id:
        raise VocabularyMismatchError("needle and haystack use different vocabularies")
    n, m = len(needle), len(haystack)
    if n == 0:
        return True
    return any(haystack.ids[i : i + n] == needle.ids for i in range(m - n + 1))
