from itertools import islice
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkey.tokenizer import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    Span,
    TokenizerError,
    TokenSequence,
    Vocab,
    _iter_tokens,
    build_vocab,
    encode_pair,
    encode_single,
    load_vocab,
    tokenize,
    vocab_from_texts,
    vocab_lines,
)


class TestTokenize:
    def test_word_run(self):
        assert tokenize("Ab1 c") == [("ab1", (0, 3)), ("c", (4, 5))]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("X,Y") == [("x", (0, 1)), (",", (1, 2)), ("y", (2, 3))]

    def test_cjk_chars_are_single_tokens(self):
        assert tokenize("银行A组") == [
            ("银", (0, 1)),
            ("行", (1, 2)),
            ("a", (2, 3)),
            ("组", (3, 4)),
        ]

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_trailing_space_invariant(self, text):
        assert len(tokenize(text + "   ")) == len(tokenize(text))

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_spans_index_source(self, text):
        for tok, (a, b) in tokenize(text):
            assert 0 <= a < b <= len(text)
            source = text[a:b]
            if source[0].isascii() and source[0].isalnum():
                assert source.lower() == tok  # word runs are lowercased
            else:
                assert source == tok  # other characters stay verbatim


def _is_word_char(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z" or "0" <= ch <= "9"


def reference_tokenize(text: str) -> list[tuple[str, tuple[int, int]]]:
    """The character-by-character scan that ``tokenize`` replaced, verbatim."""
    tokens: list[tuple[str, tuple[int, int]]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_word_char(ch):
            j = i + 1
            while j < n and _is_word_char(text[j]):
                j += 1
            tokens.append((text[i:j].lower(), (i, j)))
            i = j
        else:
            tokens.append((ch, (i, i + 1)))
            i += 1
    return tokens


# Unicode whitespace beyond ASCII, lone surrogates, and non-ASCII letters
# that must stay as they are, mixed into arbitrary code points.
EDGE_CHARS = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\ud800\udfffÉéßİ aZ9,"
edge_text = st.text(
    alphabet=st.one_of(st.characters(exclude_categories=()), st.sampled_from(EDGE_CHARS)),
    max_size=60,
)


def expected_encoding(segments, vocab, max_len):
    """(ids, offsets) of [CLS] seg [SEP] ..., padded to max_len, from the
    given token lists."""
    ids, offsets = [CLS_ID], [None]
    for tokens in segments:
        ids += [vocab.lookup(t) for t, _ in tokens] + [SEP_ID]
        offsets += [span for _, span in tokens] + [None]
    pad = max_len - len(ids)
    return tuple(ids + [PAD_ID] * pad), tuple(offsets + [None] * pad)


class TestMatchesCharacterScan:
    def test_edge_characters(self):
        text = "\x1cÉa\x85B\u3000\ud800x1\x1fé"
        assert tokenize(text) == reference_tokenize(text) == [
            ("É", (1, 2)), ("a", (2, 3)), ("b", (4, 5)), ("\ud800", (6, 7)),
            ("x1", (7, 9)), ("é", (10, 11)),
        ]

    @given(edge_text)
    @settings(max_examples=400)
    def test_tokenize(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(edge_text)
    @settings(max_examples=150)
    def test_encode_single_is_tokenize_then_slice(self, text):
        tokens = reference_tokenize(text)
        v = vocab_from_texts([text])
        for max_len in range(3, len(tokens) + 4):
            seq = encode_single(text, v, max_len)
            assert (seq.ids, seq.offsets) == expected_encoding([tokens[: max_len - 2]], v, max_len)

    @given(st.text(alphabet=EDGE_CHARS, max_size=4), edge_text)
    @settings(max_examples=150)
    def test_encode_pair_is_tokenize_then_slice(self, a, b):
        a_tokens, b_tokens = reference_tokenize(a), reference_tokenize(b)
        v = vocab_from_texts([a, b])
        for max_len in range(max(4, len(a_tokens) + 3), len(a_tokens) + len(b_tokens) + 5):
            seq = encode_pair(a, b, v, max_len)
            kept = b_tokens[: max_len - 3 - len(a_tokens)]
            assert (seq.ids, seq.offsets) == expected_encoding([a_tokens, kept], v, max_len)


def _pad(seq: list, max_len: int, value) -> tuple:
    return tuple(seq + [value] * (max_len - len(seq)))


def reference_encode_single(text: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """The hand-built single-text layout that ``encode_single`` replaced, verbatim."""
    if max_len < 3:
        raise TokenizerError("max_len must be >= 3 for single-text encoding")
    tokens = list(islice(_iter_tokens(text), max_len - 2))
    ids = [CLS_ID] + [vocab.lookup(t) for t, _ in tokens] + [SEP_ID]
    offsets: list[Optional[Span]] = [None] + [span for _, span in tokens] + [None]
    n = len(ids)
    return TokenSequence(
        ids=_pad(ids, max_len, PAD_ID),
        segment_ids=_pad([0] * n, max_len, 0),
        attention_mask=_pad([1] * n, max_len, 0),
        offsets=_pad(offsets, max_len, None),
    )


def reference_encode_pair(a: str, b: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """The hand-built pair layout that ``encode_pair`` replaced, verbatim."""
    if max_len < 4:
        raise TokenizerError("max_len must be >= 4 for pair encoding")
    a_tokens = tokenize(a)
    if len(a_tokens) + 3 > max_len:
        raise TokenizerError(
            f"first segment too long: {len(a_tokens)} tokens with max_len {max_len}"
        )
    b_tokens = list(islice(_iter_tokens(b), max_len - 3 - len(a_tokens)))
    ids = (
        [CLS_ID]
        + [vocab.lookup(t) for t, _ in a_tokens]
        + [SEP_ID]
        + [vocab.lookup(t) for t, _ in b_tokens]
        + [SEP_ID]
    )
    offsets: list[Optional[Span]] = (
        [None]
        + [span for _, span in a_tokens]
        + [None]
        + [span for _, span in b_tokens]
        + [None]
    )
    n_seg0 = len(a_tokens) + 2  # [CLS] A [SEP]
    n = len(ids)
    segments = [0] * n_seg0 + [1] * (n - n_seg0)
    return TokenSequence(
        ids=_pad(ids, max_len, PAD_ID),
        segment_ids=_pad(segments, max_len, 0),
        attention_mask=_pad([1] * n, max_len, 0),
        offsets=_pad(offsets, max_len, None),
    )


def outcome(encode, *args):
    """The TokenSequence, or the TokenizerError's text."""
    try:
        return encode(*args)
    except TokenizerError as exc:
        return f"TokenizerError: {exc}"


# Word runs, CJK characters, punctuation and spaces: empty texts, short
# ones, and texts of 40 to 280 tokens, so a first segment fits some max_len
# in 3-130 and overflows others.
layout_text = st.one_of(
    st.lists(st.sampled_from(["Acme", "q3", "a1b", "银", "行", "公司", ",", "?", " ", "\u3000"]),
             max_size=12).map("".join),
    st.lists(st.sampled_from(["x", "违约", "Zeta9"]), min_size=40, max_size=140).map(" ".join),
)


class TestMatchesHandBuiltLayout:
    @given(layout_text, layout_text, st.integers(3, 130), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_sequence_or_error(self, a, b, max_len, known_b):
        vocab = vocab_from_texts([a, b] if known_b else [a])  # unknown b tokens map to [UNK]
        assert outcome(encode_single, a, vocab, max_len) == outcome(
            reference_encode_single, a, vocab, max_len
        )
        assert outcome(encode_pair, a, b, vocab, max_len) == outcome(
            reference_encode_pair, a, b, vocab, max_len
        )

    def test_edges(self):
        """Empty texts, CJK, max_len below each minimum, and first segments
        that just fit, just overflow or overflow by far."""
        cases = [("", ""), ("Acme", ""), ("", "银行 fell"), ("a b c", "d e f g h"),
                 ("银 行 公 司 违 约", "Acme"), (" ".join(["x"] * 127), "y")]
        for a, b in cases:
            vocab = vocab_from_texts([a])
            for max_len in (0, 1, 2, 3, 4, 5, 6, 9, 129, 130):
                assert outcome(encode_single, b, vocab, max_len) == outcome(
                    reference_encode_single, b, vocab, max_len
                )
                assert outcome(encode_pair, a, b, vocab, max_len) == outcome(
                    reference_encode_pair, a, b, vocab, max_len
                )


class TestBuildVocab:
    def test_empty_corpus(self):
        vocab = build_vocab([])
        assert vocab.id_to_token == RESERVED_TOKENS
        assert vocab.size == 4

    def test_frequency_then_lexicographic(self):
        tokens = ["a"] * 3 + ["b"] * 3 + ["c"]
        vocab = build_vocab(tokens, min_freq=2, max_size=10)
        assert vocab.lookup("a") == 4
        assert vocab.lookup("b") == 5
        assert vocab.lookup("c") == 1  # below min_freq -> unknown

    def test_truncation_keeps_highest_ranked(self):
        tokens = ["x"] * 5 + ["y"] * 3 + ["z"] * 2
        vocab = build_vocab(tokens, min_freq=1, max_size=5)
        assert vocab.size == 5
        assert vocab.lookup("x") == 4
        assert vocab.lookup("y") == 1

    def test_max_size_too_small(self):
        with pytest.raises(TokenizerError):
            build_vocab(["a"], max_size=3)

    def test_deterministic_rebuild(self):
        tokens = list("the same stream of tokens") * 3
        v1 = build_vocab(tokens)
        v2 = build_vocab(tokens)
        assert v1.id_to_token == v2.id_to_token

    def test_save_load_round_trip(self, tmp_path):
        vocab = vocab_from_texts(["alpha beta 世界", "beta gamma"])
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"".join(vocab_lines(vocab)))
        assert load_vocab(path) == vocab


def seq_invariants(seq, max_len):
    assert len(seq.ids) == len(seq.segment_ids) == max_len
    assert len(seq.attention_mask) == len(seq.offsets) == max_len
    mask = list(seq.attention_mask)
    assert all(m in (0, 1) for m in mask)
    # monotone non-increasing: real tokens first, then padding
    assert mask == sorted(mask, reverse=True)
    n = sum(mask)
    first_sep = seq.ids.index(SEP_ID)
    for pos in range(n):
        if pos <= first_sep:
            assert seq.segment_ids[pos] == 0
        else:
            assert seq.segment_ids[pos] == 1
    for pos in range(n, max_len):
        assert seq.ids[pos] == PAD_ID
        assert seq.offsets[pos] is None
    # offsets increase and never overlap within each segment
    for segment in (0, 1):
        spans = [
            off
            for pos, off in enumerate(seq.offsets[:n])
            if off is not None and seq.segment_ids[pos] == segment
        ]
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2


@pytest.fixture()
def vocab():
    return vocab_from_texts(["alpha beta gamma delta", "one two three , ."])


class TestEncodeSingle:
    def test_empty_text(self, vocab):
        seq = encode_single("", vocab, 8)
        assert seq.n_real == 2
        assert seq.ids[:2] == (CLS_ID, SEP_ID)
        seq_invariants(seq, 8)

    def test_truncation_arithmetic(self, vocab):
        text = " ".join(["alpha"] * 200)
        seq = encode_single(text, vocab, 128)
        assert seq.n_real == 128
        assert sum(1 for off in seq.offsets if off is not None) == 126

    def test_round_trip_through_offsets(self, vocab):
        text = "alpha beta , gamma"
        seq = encode_single(text, vocab, 16)
        for tok_id, off in zip(seq.ids, seq.offsets):
            if off is not None:
                assert vocab.lookup(text[off[0] : off[1]].lower()) == tok_id

    def test_unknown_maps_to_unk(self, vocab):
        seq = encode_single("zzz", vocab, 8)
        assert seq.ids[1] == 1

    def test_max_len_validation(self, vocab):
        with pytest.raises(TokenizerError):
            encode_single("x", vocab, 2)

    @given(st.text(max_size=60), st.integers(min_value=3, max_value=24))
    @settings(max_examples=150)
    def test_invariants(self, text, max_len):
        v = vocab_from_texts([text])
        seq = encode_single(text, v, max_len)
        seq_invariants(seq, max_len)
        assert all(s == 0 for s in seq.segment_ids)


class TestEncodePair:
    def test_minimal_pair(self, vocab):
        seq = encode_pair("alpha", "", vocab, 8)
        assert seq.n_real == 4
        assert seq.segment_ids[:4] == (0, 0, 0, 1)
        seq_invariants(seq, 8)

    def test_b_side_truncation(self, vocab):
        a = "one two three ."
        b = " ".join(["beta"] * 500)
        seq = encode_pair(a, b, vocab, 64)
        n_b = sum(
            1
            for pos, off in enumerate(seq.offsets)
            if off is not None and seq.segment_ids[pos] == 1
        )
        assert n_b == 57  # 64 - 3 specials - 4 A tokens

    def test_a_too_long(self, vocab):
        with pytest.raises(TokenizerError):
            encode_pair(" ".join(["alpha"] * 10), "b", vocab, 8)

    def test_determinism(self, vocab):
        s1 = encode_pair("alpha", "beta gamma", vocab, 12)
        s2 = encode_pair("alpha", "beta gamma", vocab, 12)
        assert s1 == s2

    @given(
        st.text(alphabet="ab 词", max_size=6),
        st.text(max_size=60),
        st.integers(min_value=10, max_value=32),
    )
    @settings(max_examples=150)
    def test_invariants(self, a, b, max_len):
        v = vocab_from_texts([a, b])
        seq = encode_pair(a, b, v, max_len)
        seq_invariants(seq, max_len)
