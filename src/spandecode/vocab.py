"""Table-driven subword vocabulary with greedy longest-match encoding.

The vocabulary is loaded from a JSON file and is treated as ground truth:
no normalization is applied before segmentation. Characters not covered by
any piece fall back to per-byte tokens, so encoding is total.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

SPACE_MARKER = "▁"  # "▁" marks a word boundary in piece surfaces
NUM_BYTE_TOKENS = 256


class VocabularyMismatchError(ValueError):
    """Token sequences from different vocabularies were mixed."""


class UnknownTokenError(ValueError):
    """A token id is not valid under the vocabulary it was decoded with."""


@dataclass(frozen=True)
class TokenSeq:
    """An immutable sequence of token ids tied to the vocabulary that produced it."""

    ids: tuple[int, ...]
    vocab_id: str

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TokenSeq(self.ids[index], self.vocab_id)
        return self.ids[index]

    def __add__(self, other: "TokenSeq") -> "TokenSeq":
        if other.vocab_id != self.vocab_id:
            raise VocabularyMismatchError(
                "cannot concatenate sequences from different vocabularies"
            )
        return TokenSeq(self.ids + other.ids, self.vocab_id)


class Vocabulary:
    """Ordered piece inventory with terminator and sentinel special tokens.

    Piece index equals token id; byte-fallback ids occupy
    ``[size, size + 256)`` and are not part of the piece table.
    """

    def __init__(self, pieces: list[str], terminator: str, sentinels: list[str]):
        if not pieces:
            raise ValueError("vocabulary must contain at least one piece")
        if len(set(pieces)) != len(pieces):
            raise ValueError("duplicate pieces make token ids ambiguous")
        for special in [terminator, *sentinels]:
            if special not in pieces:
                raise ValueError(f"special token {special!r} missing from pieces")
        self.pieces = list(pieces)
        self.terminator = terminator
        self.sentinels = list(sentinels)
        self._piece_to_id = {p: i for i, p in enumerate(pieces)}
        self._max_piece_len = max(len(p) for p in pieces)
        digest = hashlib.sha1(
            json.dumps(
                {"pieces": pieces, "terminator": terminator, "sentinels": sentinels},
                ensure_ascii=False,
            ).encode("utf-8")
        ).hexdigest()
        self.vocab_id = digest[:16]

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, obj: dict) -> "Vocabulary":
        return cls(
            pieces=obj["pieces"],
            terminator=obj["terminator"],
            sentinels=obj.get("sentinels", []),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of pieces (byte-fallback ids excluded)."""
        return len(self.pieces)

    @property
    def terminator_id(self) -> int:
        return self._piece_to_id[self.terminator]

    @property
    def sentinel_ids(self) -> tuple[int, ...]:
        return tuple(self._piece_to_id[s] for s in self.sentinels)

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
        """
        if not text:
            return TokenSeq((), self.vocab_id)
        s = SPACE_MARKER + text.replace(" ", SPACE_MARKER)
        ids: list[int] = []
        pos = 0
        while pos < len(s):
            match_id = None
            for length in range(min(self._max_piece_len, len(s) - pos), 0, -1):
                candidate = s[pos : pos + length]
                token = self._piece_to_id.get(candidate)
                if token is not None:
                    match_id = token
                    pos += length
                    break
            if match_id is not None:
                ids.append(match_id)
            else:
                for b in s[pos].encode("utf-8"):
                    ids.append(self.byte_id(b))
                pos += 1
        return TokenSeq(tuple(ids), self.vocab_id)

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
        # is_valid_id inlined: serve validates every id of every request.
        limit = len(self.pieces) + NUM_BYTE_TOKENS
        for token_id in ids:
            if type(token_id) is not int or not 0 <= token_id < limit:
                raise UnknownTokenError(f"{token_id!r} is not a token id of this vocabulary")
        return TokenSeq(ids, self.vocab_id)


def is_token_subsequence(needle: TokenSeq, haystack: TokenSeq) -> bool:
    """True iff ``needle`` occurs as a contiguous run of ids in ``haystack``."""
    if needle.vocab_id != haystack.vocab_id:
        raise VocabularyMismatchError("needle and haystack use different vocabularies")
    n, m = len(needle), len(haystack)
    if n == 0:
        return True
    return any(haystack.ids[i : i + n] == needle.ids for i in range(m - n + 1))
