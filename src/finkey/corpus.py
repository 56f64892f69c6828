"""Corpus data model: ingestion, cleaning, rule matching, derived datasets.

Corpus files are UTF-8 JSON lines, one record per line, with fields ``id``
and ``text`` plus optional gold fields ``sentiment`` ("negative" |
"positive"), ``entity_list``, ``key_entities`` and ``tag``.  Two schemas are
supported: ``dataset-1`` records carry sentiment labels and entity lists,
``dataset-2`` records must carry a ``tag`` and usually hold a single gold
key entity.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

logger = logging.getLogger(__name__)

SCHEMAS = ("dataset-1", "dataset-2")

# URL tokens start with one of these prefixes and run to the next whitespace.
_URL_RE = re.compile(r"(?:https?://|ftp://|www\.)\S*")


class CorpusError(ValueError):
    """Bad precondition or unrecoverable data problem during corpus work."""


class SentimentLabel(Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


@dataclass
class Document:
    """One financial text with its optional gold annotations."""

    id: str
    raw_text: str
    cleaned_text: str
    sentiment: SentimentLabel | None = None
    entity_list: list[str] | None = None
    key_entities: list[str] | None = None
    tag: str | None = None


@dataclass(frozen=True)
class Lexicon:
    """Entity surface forms used for rule matching."""

    entries: frozenset[str]

    @classmethod
    def from_strings(cls, entries) -> "Lexicon":
        """Build a lexicon from any iterable of strings.

        Entries are trimmed; empty entries (after trimming) are dropped.
        """
        trimmed = {e.strip() for e in entries}
        trimmed.discard("")
        return cls(frozenset(trimmed))


@dataclass(frozen=True)
class PairExample:
    """One (entity, text) matching example. label is 1 for key entities,
    0 for non-key entities, None for unlabeled inference inputs."""

    doc_id: str
    entity: str
    text: str
    label: int | None = None


@dataclass(frozen=True)
class MrcExample:
    """One question/context extraction example.

    ``answer`` is a half-open character span into ``context`` (None for
    unlabeled inference inputs); the covered substring is the gold entity.
    """

    doc_id: str
    question: str
    context: str
    answer: tuple[int, int] | None = None


@dataclass
class RecordError:
    line: int
    doc_id: str | None
    message: str


@dataclass
class ValidationReport:
    """Per-record errors from a corpus load."""

    path: str = ""
    n_lines: int = 0
    n_documents: int = 0
    errors: list[RecordError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "n_lines": self.n_lines,
            "n_documents": self.n_documents,
            "ok": self.ok,
            "errors": [
                {"line": e.line, "id": e.doc_id, "message": e.message}
                for e in self.errors
            ],
        }


def clean_text(raw: str) -> str:
    """Normalize raw text.

    Removes every character that is neither printable nor whitespace (by
    ``str.isprintable`` and ``str.isspace``), strips URL tokens, collapses
    whitespace runs to single spaces and trims the ends.  Idempotent:
    clean_text(clean_text(x)) == clean_text(x).  A text that cleaning leaves
    as it is comes back as the same object, so it is not held twice.

    Each step is skipped when it cannot change the text, so the common case
    runs only ``str`` methods: the filter when every character outside
    whitespace is printable, the URL pattern when no prefix occurs.  The
    collapse is ``str.split()``, which splits where ``\\s`` matches: at
    ``str.isspace`` characters.
    """
    # Non-printables go first so stray control bytes cannot hide a URL.
    text = raw
    if not (raw.isprintable() or "".join(raw.split()).isprintable()):
        text = "".join(ch for ch in raw if ch.isspace() or ch.isprintable())
    # Every URL token holds "://" or "www.".
    if "://" in text or "www." in text:
        text = _URL_RE.sub("", text)
    text = " ".join(text.split())
    return raw if text == raw else text


def rule_match_entities(text: str, lexicon: Lexicon) -> list[str]:
    """Entities from the lexicon occurring as substrings of text, sorted."""
    return sorted(e for e in lexicon.entries if e in text)


def _parse_string_list(value, field_name: str) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(v, str) and v for v in value
    ):
        raise CorpusError(f"{field_name} must be a list of non-empty strings")
    return list(value)


def _parse_record(record: dict, schema: str) -> Document:
    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError("missing or empty 'id'")
    text = record.get("text")
    if not isinstance(text, str):
        raise CorpusError("missing 'text'")

    sentiment = None
    if record.get("sentiment") is not None:
        raw = record["sentiment"]
        try:
            sentiment = SentimentLabel(raw)
        except ValueError:
            raise CorpusError(
                f"sentiment must be 'negative' or 'positive', got {raw!r}"
            ) from None

    entity_list = None
    if record.get("entity_list") is not None:
        entity_list = _parse_string_list(record["entity_list"], "entity_list")
    key_entities = None
    if record.get("key_entities") is not None:
        key_entities = _parse_string_list(record["key_entities"], "key_entities")

    tag = None
    if record.get("tag") is not None:
        tag = record["tag"]
        if not isinstance(tag, str) or not tag:
            raise CorpusError("tag must be a non-empty string")

    if schema == "dataset-2" and tag is None:
        raise CorpusError("schema dataset-2 requires a 'tag' field")

    if entity_list is not None and key_entities is not None:
        extra = [k for k in key_entities if k not in entity_list]
        if extra:
            raise CorpusError(
                f"key_entities not contained in entity_list: {extra}"
            )

    return Document(
        id=doc_id,
        raw_text=text,
        cleaned_text=clean_text(text),
        sentiment=sentiment,
        entity_list=entity_list,
        key_entities=key_entities,
        tag=tag,
    )


def parse_json(data: bytes):
    """The JSON value in ``data``, for every JSON file finkey reads.  A
    CorpusError names bytes that are not UTF-8, text that is not JSON,
    nesting past the recursion limit and integers past Python's digit limit."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"invalid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise CorpusError("not valid JSON: nested too deeply") from None
    except ValueError:  # the only other error json.loads raises
        raise CorpusError("not valid JSON: an integer has too many digits") from None


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path``: to a temporary name next to it, synced,
    then moved into place, so a failed write leaves any file already at
    ``path`` as it was; a ``path`` that is not a regular file is refused."""
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_corpus(path: str | Path, schema: str) -> tuple[list[Document], ValidationReport]:
    """Load a JSON-lines corpus file.

    Returns the successfully parsed documents plus a validation report with
    one entry per record-level error (malformed line, schema violation,
    key_entities outside entity_list, duplicate id).
    """
    if schema not in SCHEMAS:
        raise CorpusError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
    path = Path(path)
    report = ValidationReport(path=str(path))
    docs: list[Document] = []
    seen_ids: set[str] = set()
    # bytes.splitlines breaks at \n, \r and \r\n, as text mode does.
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            record = parse_json(raw)
        except CorpusError as exc:
            if raw.decode("utf-8", "replace").strip():  # not a blank line
                report.n_lines += 1
                report.errors.append(RecordError(lineno, None, f"malformed line: {exc}"))
            continue
        report.n_lines += 1
        if not isinstance(record, dict):
            report.errors.append(RecordError(lineno, None, "record is not an object"))
            continue
        try:
            doc = _parse_record(record, schema)
        except CorpusError as exc:
            report.errors.append(RecordError(lineno, record.get("id"), str(exc)))
            continue
        if doc.id in seen_ids:
            report.errors.append(RecordError(lineno, doc.id, f"duplicate id {doc.id!r}"))
            continue
        seen_ids.add(doc.id)
        docs.append(doc)
    report.n_documents = len(docs)
    return docs, report


def save_corpus(docs: list[Document], path: str | Path) -> None:
    """Write documents back to JSON lines (raw text, so reload round-trips)."""

    def lines():
        for doc in docs:
            record: dict = {"id": doc.id, "text": doc.raw_text}
            if doc.sentiment is not None:
                record["sentiment"] = doc.sentiment.value
            if doc.entity_list is not None:
                record["entity_list"] = doc.entity_list
            if doc.key_entities is not None:
                record["key_entities"] = doc.key_entities
            if doc.tag is not None:
                record["tag"] = doc.tag
            yield (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")

    write_atomic(path, lines())


def build_pair_dataset(docs: list[Document]) -> tuple[list[PairExample], int]:
    """One PairExample per (document, entity-list entry), in corpus order.

    Labels are 1 for entities contained in key_entities and 0 otherwise;
    documents without key_entities yield unlabeled examples.  Documents
    without an entity list are skipped; their count is returned alongside
    the examples.
    """
    examples: list[PairExample] = []
    skipped = 0
    for doc in docs:
        if doc.entity_list is None:
            skipped += 1
            continue
        keys = set(doc.key_entities) if doc.key_entities is not None else None
        for entity in doc.entity_list:
            label = None if keys is None else int(entity in keys)
            examples.append(
                PairExample(doc.id, entity, doc.cleaned_text, label)
            )
    if skipped:
        logger.warning("pair dataset: skipped %d documents without entity_list", skipped)
    return examples, skipped


def build_mrc_dataset(
    docs: list[Document], template: str
) -> tuple[list[MrcExample], int]:
    """Question/context examples from tagged documents.

    The answer span is the first occurrence of the gold key entity in the
    cleaned text; documents whose gold entity does not occur are dropped and
    counted.  Documents without key_entities yield unlabeled examples.
    """
    from .tasks import build_question

    examples: list[MrcExample] = []
    dropped = 0
    for doc in docs:
        if doc.tag is None:
            raise CorpusError(f"document {doc.id!r} has no tag")
        question = build_question(doc.tag, template)
        if doc.key_entities is None:
            examples.append(MrcExample(doc.id, question, doc.cleaned_text))
            continue
        if len(doc.key_entities) != 1:
            raise CorpusError(
                f"document {doc.id!r} must have exactly one gold key entity, "
                f"got {len(doc.key_entities)}"
            )
        gold = doc.key_entities[0]
        start = doc.cleaned_text.find(gold)
        if start < 0:
            dropped += 1
            continue
        examples.append(
            MrcExample(
                doc.id, question, doc.cleaned_text, (start, start + len(gold))
            )
        )
    if dropped:
        logger.warning("mrc dataset: dropped %d documents whose gold entity is not in the text", dropped)
    return examples, dropped
