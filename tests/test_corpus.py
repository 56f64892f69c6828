import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkey.corpus import (
    CorpusError,
    Document,
    Lexicon,
    MrcExample,
    PairExample,
    SentimentLabel,
    build_mrc_dataset,
    build_pair_dataset,
    clean_text,
    load_corpus,
    rule_match_entities,
    save_corpus,
)


# clean_text as it was before it skipped the steps that cannot change a
# text, kept verbatim: the rewrite must give the same string for every input.
_URL_RE = re.compile(r"(?:https?://|ftp://|www\.)\S*")
_WS_RE = re.compile(r"\s+")


def reference_clean_text(raw: str) -> str:
    """Normalize raw text.

    Removes non-printable characters (keeping whitespace for the collapse
    step), strips URL tokens, collapses whitespace runs to single spaces and
    trims the ends.  Idempotent: clean_text(clean_text(x)) == clean_text(x).
    """
    # Non-printables go first so stray control bytes cannot hide a URL.
    text = "".join(ch for ch in raw if ch.isspace() or ch.isprintable())
    text = _URL_RE.sub("", text)
    text = _WS_RE.sub(" ", text)
    return text.strip()


# Whitespace that is not printable, characters that are neither (NUL, DEL,
# zero-width space, BOM, lone surrogates, unassigned code points) and URL
# prefixes, whole or split by a character the filter removes.
_TRICKY = [
    "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2000", "\u2028", "\u3000", " ", "\x00", "\x7f", "\u200b", "\ufeff", "\ud800",
    "\udfff", "\u0378", "\uffff", "\U0010ffff", "http://", "https://", "ftp://", "www.",
    "ht\x00tp://", "http:\x7f//", "w\u200bww.", "www\ufeff.", "ftp\x01://", "://", "www",
]
_MIXED_TEXT = st.lists(
    st.sampled_from(_TRICKY) | st.text(alphabet="abc.:/ ", max_size=4) | st.characters(),
    max_size=40,
).map("".join)


class TestCleanTextUnchanged:
    """clean_text gives reference_clean_text's string, character for character."""

    @given(_MIXED_TEXT)
    @settings(max_examples=1000)
    def test_mixed_text(self, raw):
        assert clean_text(raw) == reference_clean_text(raw)

    @pytest.mark.parametrize("joiner", ["x", " ", "www."])
    def test_every_code_point(self, joiner):
        block = 4096
        for start in range(0, 0x110000, block):
            raw = joiner.join(map(chr, range(start, start + block)))
            assert clean_text(raw) == reference_clean_text(raw), hex(start)

    def test_load_corpus(self, tmp_path):
        texts = [
            "Acme\tfell\r\nsee http://ex.co/\x00a next",
            "\ufeffBank\x0bB  www.\x00b.com\x1c sued",
            "plain text",
        ]
        lines = [json.dumps({"id": str(i), "text": t}) for i, t in enumerate(texts)]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        docs, report = load_corpus(path, "dataset-1")
        assert report.ok
        assert [d.cleaned_text for d in docs] == [reference_clean_text(t) for t in texts]
        assert [d.cleaned_text for d in docs] == ["Acme fell see next", "Bank B sued", "plain text"]


class TestCleanText:
    def test_empty(self):
        assert clean_text("") == ""

    def test_whitespace_collapse(self):
        assert clean_text("A  B\tC") == "A B C"

    def test_url_removal(self):
        assert (
            clean_text("Firm X defaulted, see https://ex.co/a now")
            == "Firm X defaulted, see now"
        )

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("visit www.example.com today", "visit today"),
            ("ftp://files.example.com/x", ""),
            ("control\x00char", "controlchar"),
            ("  padded  ", "padded"),
            ("nested http://a.b/c?q=1#frag end", "nested end"),
        ],
    )
    def test_rules(self, raw, expected):
        assert clean_text(raw) == expected

    def test_url_followed_by_newline(self):
        assert clean_text("see https://x.y\nnext") == "see next"

    def test_control_char_inside_url_scheme(self):
        # The control byte is removed first, so the URL is still recognized.
        assert clean_text("go ht\x01tp://evil.example now") == "go now"

    def test_clean_text_is_returned_itself(self, tmp_path):
        # Not a copy, so a document whose text is clean holds it once.
        raw = " ".join(["Acme", "fell", "3%", "after", "the", "audit"])
        assert clean_text(raw) is raw
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "a", "text": raw}) + "\n", encoding="utf-8")
        doc = load_corpus(path, "dataset-1")[0][0]
        assert doc.cleaned_text is doc.raw_text

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_output_shape(self, raw):
        out = clean_text(raw)
        assert "  " not in out
        assert out == out.strip()
        assert all(ch == " " or ch.isprintable() for ch in out)


class TestRuleMatch:
    def test_basic(self):
        lex = Lexicon.from_strings(["bank A", "bank B", "bank C"])
        assert rule_match_entities("bank A sued bank B", lex) == ["bank A", "bank B"]

    def test_empty_lexicon(self):
        assert rule_match_entities("anything", Lexicon.from_strings([])) == []

    def test_empty_text(self):
        assert rule_match_entities("", Lexicon.from_strings(["x"])) == []

    @given(
        st.text(alphabet="abcd ", max_size=40),
        st.sets(st.text(alphabet="abcd", min_size=1, max_size=3), max_size=8),
    )
    @settings(max_examples=200)
    def test_matches_bruteforce(self, text, entries):
        lex = Lexicon.from_strings(entries)
        expected = sorted({e for e in lex.entries if e in text})
        assert rule_match_entities(text, lex) == expected

    def test_lexicon_trims_and_drops_empty(self):
        lex = Lexicon.from_strings([" a ", "a", "", "  "])
        assert lex.entries == frozenset({"a"})


def _doc(doc_id, text, entities=None, keys=None, tag=None, sentiment=None):
    return Document(
        id=doc_id,
        raw_text=text,
        cleaned_text=clean_text(text),
        sentiment=sentiment,
        entity_list=entities,
        key_entities=keys,
        tag=tag,
    )


class TestPairDataset:
    def test_membership_labels(self):
        docs = [_doc("d1", "t", entities=["A", "B"], keys=["A"])]
        pairs, skipped = build_pair_dataset(docs)
        assert skipped == 0
        assert [(p.entity, p.label) for p in pairs] == [("A", 1), ("B", 0)]

    def test_empty_entity_list(self):
        pairs, skipped = build_pair_dataset([_doc("d1", "t", entities=[], keys=[])])
        assert pairs == [] and skipped == 0

    def test_order_and_count(self):
        docs = [
            _doc("d1", "t1", entities=["A", "B", "C"], keys=["B"]),
            _doc("d2", "t2", entities=["D", "E"], keys=[]),
        ]
        pairs, _ = build_pair_dataset(docs)
        assert len(pairs) == 5
        assert [p.entity for p in pairs] == ["A", "B", "C", "D", "E"]
        assert [p.doc_id for p in pairs] == ["d1", "d1", "d1", "d2", "d2"]

    def test_size_invariant(self):
        docs = [
            _doc(f"d{i}", "t", entities=list("ABCDE")[: i % 5], keys=list("AB")[: min(2, i % 5)])
            for i in range(12)
        ]
        pairs, _ = build_pair_dataset(docs)
        assert len(pairs) == sum(len(d.entity_list) for d in docs)
        assert sum(p.label for p in pairs) == sum(len(d.key_entities) for d in docs)

    def test_docs_without_entity_list_are_skipped(self):
        docs = [_doc("d1", "t"), _doc("d2", "t", entities=["A"], keys=["A"])]
        pairs, skipped = build_pair_dataset(docs)
        assert skipped == 1
        assert len(pairs) == 1

    def test_unlabeled_inference_pairs(self):
        pairs, _ = build_pair_dataset([_doc("d1", "t", entities=["A"])])
        assert pairs == [PairExample("d1", "A", "t", None)]


class TestMrcDataset:
    def test_first_occurrence_span(self):
        docs = [_doc("d1", "xx Acme yy", keys=["Acme"], tag="fraud")]
        examples, dropped = build_mrc_dataset(docs, "Which company involves {tag}?")
        assert dropped == 0
        (ex,) = examples
        assert ex.question == "Which company involves fraud?"
        assert ex.answer == (3, 7)
        assert ex.context[ex.answer[0] : ex.answer[1]] == "Acme"

    def test_gold_absent_dropped(self):
        docs = [_doc("d1", "nothing here", keys=["Acme"], tag="fraud")]
        examples, dropped = build_mrc_dataset(docs, "{tag}?")
        assert examples == [] and dropped == 1

    def test_repeated_gold_uses_first(self):
        docs = [_doc("d1", "Acme and Acme", keys=["Acme"], tag="t")]
        examples, _ = build_mrc_dataset(docs, "{tag}")
        assert examples[0].answer == (0, 4)

    def test_missing_tag_errors(self):
        with pytest.raises(CorpusError, match="d1"):
            build_mrc_dataset([_doc("d1", "t", keys=["t"])], "{tag}")

    def test_multiple_golds_error(self):
        docs = [_doc("d1", "a b", keys=["a", "b"], tag="t")]
        with pytest.raises(CorpusError, match="exactly one"):
            build_mrc_dataset(docs, "{tag}")

    def test_inference_examples_without_answer(self):
        examples, _ = build_mrc_dataset([_doc("d1", "text", tag="t")], "{tag}")
        assert examples == [MrcExample("d1", "t", "text", None)]


class TestLoadCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path

    def test_empty_file(self, tmp_path):
        docs, report = load_corpus(self.write(tmp_path, []), "dataset-1")
        assert docs == [] and report.ok

    def test_dataset1_record(self, tmp_path):
        line = json.dumps(
            {
                "id": "a",
                "text": "bank A failed",
                "sentiment": "negative",
                "entity_list": ["A", "B"],
                "key_entities": ["A"],
            }
        )
        docs, report = load_corpus(self.write(tmp_path, [line]), "dataset-1")
        assert report.ok
        (doc,) = docs
        assert doc.sentiment is SentimentLabel.NEGATIVE
        assert doc.entity_list == ["A", "B"]
        assert doc.key_entities == ["A"]

    def test_dataset2_requires_tag(self, tmp_path):
        line = json.dumps({"id": "a", "text": "t", "key_entities": ["t"]})
        docs, report = load_corpus(self.write(tmp_path, [line]), "dataset-2")
        assert docs == []
        assert not report.ok
        assert "tag" in report.errors[0].message

    def test_malformed_line_names_line_number(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "t"}', "{不是json"])
        docs, report = load_corpus(path, "dataset-1")
        assert len(docs) == 1
        assert report.errors[0].line == 2

    def test_key_outside_entity_list_rejected(self, tmp_path):
        line = json.dumps(
            {"id": "a", "text": "t", "entity_list": ["A"], "key_entities": ["B"]}
        )
        docs, report = load_corpus(self.write(tmp_path, [line]), "dataset-1")
        assert docs == []
        assert "key_entities" in report.errors[0].message

    def test_duplicate_id_rejected(self, tmp_path):
        lines = [json.dumps({"id": "a", "text": "t"})] * 2
        docs, report = load_corpus(self.write(tmp_path, lines), "dataset-1")
        assert len(docs) == 1
        assert "duplicate" in report.errors[0].message

    def test_bad_sentiment_value(self, tmp_path):
        line = json.dumps({"id": "a", "text": "t", "sentiment": "meh"})
        _, report = load_corpus(self.write(tmp_path, [line]), "dataset-1")
        assert not report.ok

    def test_text_is_cleaned(self, tmp_path):
        line = json.dumps({"id": "a", "text": "x   y https://u.rl z"})
        docs, _ = load_corpus(self.write(tmp_path, [line]), "dataset-1")
        assert docs[0].cleaned_text == "x y z"

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(self.write(tmp_path, []), "dataset-9")

    def test_round_trip(self, tmp_path):
        lines = [
            json.dumps(
                {
                    "id": "a",
                    "text": "bank A failed  badly",
                    "sentiment": "negative",
                    "entity_list": ["A"],
                    "key_entities": ["A"],
                }
            ),
            json.dumps({"id": "b", "text": "fine", "sentiment": "positive"}),
            json.dumps({"id": "c", "text": "标签文本", "tag": "fraud"}),
        ]
        docs, report = load_corpus(self.write(tmp_path, lines), "dataset-1")
        assert report.ok
        out = tmp_path / "resaved.jsonl"
        save_corpus(docs, out)
        docs2, report2 = load_corpus(out, "dataset-1")
        assert report2.ok
        assert docs2 == docs

    def test_invalid_utf8_line_is_a_record_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = [json.dumps({"id": i, "text": "t"}).encode() for i in "ab"]
        path.write_bytes(good[0] + b"\n" + b'{"id": "x", "text": "\xff"}\n' + good[1] + b"\n")
        docs, report = load_corpus(path, "dataset-1")
        assert [d.id for d in docs] == ["a", "b"]
        (err,) = report.errors
        assert err.line == 2
        assert err.message.startswith("malformed line: invalid UTF-8")

    def test_json_the_decoder_refuses_is_a_record_error(self, tmp_path):
        lines = ["[" * 100_000, '{"id": ' + "1" * 5_000 + "}", json.dumps({"id": "a", "text": "t"})]
        docs, report = load_corpus(self.write(tmp_path, lines), "dataset-1")
        assert [d.id for d in docs] == ["a"]
        assert [e.line for e in report.errors] == [1, 2]
        assert all(e.message.startswith("malformed line") for e in report.errors)

    def test_line_breaks_as_in_text_mode(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"id": i, "text": "t"}).encode() for i in "abc"]
        path.write_bytes(lines[0] + b"\r\n" + lines[1] + b"\r\r" + lines[2])
        docs, report = load_corpus(path, "dataset-1")
        assert [d.id for d in docs] == ["a", "b", "c"] and report.ok


# A valid file per schema; the fuzz tests below break it in several ways.
VALID_RECORDS = {
    "dataset-1": [
        {"id": "a", "text": "bank A failed", "sentiment": "negative",
         "entity_list": ["A", "B"], "key_entities": ["A"]},
        {"id": "b", "text": "公司 B 盈利", "sentiment": "positive", "entity_list": ["B"]},
    ],
    "dataset-2": [
        {"id": "c", "text": "C fraud probe", "tag": "fraud", "key_entities": ["C"]},
        {"id": "d", "text": "D default", "tag": "违约", "entity_list": ["D"], "key_entities": ["D"]},
    ],
}
FIELDS = ("id", "text", "sentiment", "entity_list", "key_entities", "tag")
WRONG_VALUES = (None, 0, -1.5, True, "", "x", [], [1], ["a", None], {}, {"k": "v"})


def valid_bytes(schema: str) -> bytes:
    return "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in VALID_RECORDS[schema]
    ).encode("utf-8")


def load_or_corpus_error(path, data: bytes, schema: str):
    """Load ``data``; the only exception allowed is CorpusError."""
    path.write_bytes(data)
    try:
        docs, report = load_corpus(path, schema)
    except CorpusError:
        return
    assert report.n_documents == len(docs)
    assert all(isinstance(e.line, int) and e.message for e in report.errors)
    json.dumps(report.to_dict())


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"


class TestLoadCorpusFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(VALID_RECORDS)), st.data())
    def test_truncations(self, fuzz_path, schema, data):
        raw = valid_bytes(schema)
        cut = data.draw(st.integers(0, len(raw)))
        load_or_corpus_error(fuzz_path, raw[:cut], schema)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(VALID_RECORDS)), st.data())
    def test_byte_flips(self, fuzz_path, schema, data):
        raw = bytearray(valid_bytes(schema))
        flips = data.draw(
            st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=4)
        )
        for pos, bits in flips:
            raw[pos] ^= bits
        load_or_corpus_error(fuzz_path, bytes(raw), schema)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(VALID_RECORDS)),
        st.integers(0, 1),
        st.sampled_from(FIELDS),
        st.sampled_from(WRONG_VALUES),
    )
    def test_wrong_json_types(self, fuzz_path, schema, index, field, value):
        records = [dict(r) for r in VALID_RECORDS[schema]]
        records[index][field] = value
        data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        load_or_corpus_error(fuzz_path, data.encode("utf-8"), schema)
