"""Deterministic hybrid tokenizer, vocabulary, and sequence encoding.

Tokenization is dependency-free and offset-preserving: maximal runs of ASCII
letters/digits become one lowercased token, every other non-space character
(CJK included) is a token of its own.  It is one compiled regular
expression; in a ``str`` pattern ``\\s`` is exactly ``str.isspace``, so the
tokens are those of a character-by-character scan.  Encoding follows the usual
[CLS] ... [SEP] layout with segment ids, attention mask and per-token
character offsets so extracted spans can be mapped back to source text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

Span = tuple[int, int]


class TokenizerError(ValueError):
    pass


# Group 1 (``m.lastindex`` 1) is a run of ASCII letters/digits; otherwise one
# non-space character.
_TOKEN_RE = re.compile(r"([A-Za-z0-9]+)|\S")


def _iter_tokens(text: str) -> Iterator[tuple[str, Span]]:
    for m in _TOKEN_RE.finditer(text):
        yield (m[0] if m.lastindex is None else m[0].lower()), m.span()


def tokenize(text: str) -> list[tuple[str, Span]]:
    """Split text into (token, half-open char span) pairs.

    Runs of ASCII letters/digits form one lowercased token; any other
    non-space character stands alone.  Spans index the original string.
    """
    return list(_iter_tokens(text))


@dataclass(frozen=True)
class Vocab:
    """Immutable token-to-id mapping with the four reserved ids first."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocab":
        """Build a vocab whose non-reserved ids follow the given order."""
        return cls.from_stored([*RESERVED_TOKENS, *tokens])

    @classmethod
    def from_stored(cls, tokens: list) -> "Vocab":
        """The vocabulary as a vocab file or checkpoint stores it: every token
        in id order, the reserved tokens first, then distinct strings."""
        if tuple(tokens[:4]) != RESERVED_TOKENS or not all(isinstance(t, str) for t in tokens):
            raise TokenizerError("vocabulary must be strings, the reserved tokens first")
        mapping = {tok: i for i, tok in enumerate(tokens)}
        if len(mapping) != len(tokens):
            raise TokenizerError("duplicate tokens in vocabulary")
        return cls(tuple(tokens), mapping)


def build_vocab(tokens: Iterable[str], min_freq: int = 1, max_size: int = 50000) -> Vocab:
    """Vocabulary from a token stream.

    Keeps tokens with frequency >= min_freq ordered by (frequency desc,
    token asc), truncated so the total size (reserved ids included) does
    not exceed max_size.
    """
    if max_size < len(RESERVED_TOKENS):
        raise TokenizerError(f"max_size must be >= {len(RESERVED_TOKENS)}")
    if min_freq < 1:
        raise TokenizerError("min_freq must be >= 1")
    counts = Counter(tokens)
    for reserved in RESERVED_TOKENS:
        counts.pop(reserved, None)
    candidates = [t for t, c in counts.items() if c >= min_freq]
    candidates.sort(key=lambda t: (-counts[t], t))
    return Vocab.from_tokens(candidates[: max_size - len(RESERVED_TOKENS)])


def vocab_from_texts(texts: Iterable[str], min_freq: int = 1, max_size: int = 50000) -> Vocab:
    """Convenience wrapper: tokenize texts and build the vocabulary."""
    def stream():
        for text in texts:
            for tok, _ in tokenize(text):
                yield tok

    return build_vocab(stream(), min_freq=min_freq, max_size=max_size)


def vocab_lines(vocab: Vocab) -> Iterator[bytes]:
    """The "token<TAB>id" lines of a vocabulary file, reserved tokens first."""
    return (f"{tok}\t{i}\n".encode("utf-8") for i, tok in enumerate(vocab.id_to_token))


def load_vocab(path: str | Path) -> Vocab:
    tokens: list[str] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line:
            continue
        try:
            tok, idx = line.split("\t")
        except ValueError:
            raise TokenizerError(f"bad vocab line {lineno}") from None
        if int(idx) != len(tokens):
            raise TokenizerError(f"non-contiguous id at line {lineno}")
        tokens.append(tok)
    return Vocab.from_stored(tokens)


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length encoded sequence.

    All four tuples have length max_len.  attention_mask is 1 on real tokens
    (specials included) and 0 on padding; segment_ids are 0 up to and
    including the first [SEP] and 1 on later real tokens; offsets are None
    for special/padding positions and half-open character spans into the
    source text(s) otherwise.
    """

    ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    offsets: tuple[Optional[Span], ...]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_real(self) -> int:
        return sum(self.attention_mask)


def _sequence(segments: list[list[tuple[str, Span]]], vocab: Vocab, max_len: int) -> TokenSequence:
    """[CLS], then each segment's tokens followed by [SEP], padded to
    max_len; segment s holds its tokens and its [SEP]."""
    ids, segment_ids, offsets = [CLS_ID], [0], [None]
    for s, tokens in enumerate(segments):
        ids += [vocab.lookup(t) for t, _ in tokens] + [SEP_ID]
        segment_ids += [s] * (len(tokens) + 1)
        offsets += [span for _, span in tokens] + [None]
    n, pad = len(ids), max_len - len(ids)
    return TokenSequence(
        ids=tuple(ids + [PAD_ID] * pad),
        segment_ids=tuple(segment_ids + [0] * pad),
        attention_mask=(1,) * n + (0,) * pad,
        offsets=tuple(offsets + [None] * pad),
    )


def encode_single(text: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """Encode one text as [CLS] tokens [SEP], truncated and padded to max_len."""
    if max_len < 3:
        raise TokenizerError("max_len must be >= 3 for single-text encoding")
    return _sequence([list(islice(_iter_tokens(text), max_len - 2))], vocab, max_len)


def encode_pair(a: str, b: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """Encode a text pair as [CLS] A [SEP] B [SEP].

    Only the B side is truncated (A is the short entity or question); if A
    alone does not fit, that is an error.
    """
    if max_len < 4:
        raise TokenizerError("max_len must be >= 4 for pair encoding")
    a_tokens = tokenize(a)
    if len(a_tokens) + 3 > max_len:
        raise TokenizerError(
            f"first segment too long: {len(a_tokens)} tokens with max_len {max_len}"
        )
    b_tokens = list(islice(_iter_tokens(b), max_len - 3 - len(a_tokens)))
    return _sequence([a_tokens, b_tokens], vocab, max_len)
