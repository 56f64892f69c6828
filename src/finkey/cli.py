"""Command-line entry point wiring corpora, training, ensembles and evaluation.

One JSON config file holds the per-task training sections plus paths,
ensemble, pipeline and search settings; ``SETTINGS`` has a row for each of
its keys, and every command checks the whole file against it before it
reads a value.  Command-line flags override file values.  Reports embed
the tool version, the config hash and the seed so every run is attributable.

Exit codes: 0 success, 1 validation/data error, 2 configuration error,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .corpus import (
    CorpusError,
    Document,
    Lexicon,
    SCHEMAS,
    build_mrc_dataset,
    build_pair_dataset,
    load_corpus,
    parse_json,
    write_atomic,
)
from .encoder import EncoderConfig, json_type
from .evaluation import EnsembleSpec, ensemble_train, run_pipeline
from .tasks import DEFAULT_MAX_SPAN_LEN, DEFAULT_TEMPLATE, TASKS, FocalConfig, build_question
from .tasks import accuracy, entity_prf
from .tokenizer import RESERVED_TOKENS, load_vocab, vocab_from_texts, vocab_lines
from .training import (
    Checkpoint,
    NumericalError,
    TrainConfig,
    cross_validate,
    document_folds,
    holdout,
    load_checkpoint,
    neighborhood_search,
    save_checkpoint,
    task_fields,
    train,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _config_hash(cfg: dict | None) -> str | None:
    if cfg is None:
        return None
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The config file: one row per key
# ---------------------------------------------------------------------------

class Setting(NamedTuple):
    """A key of the config file: its JSON type, whether it may be null, its
    default and a check that raises ValueError for a value out of range.
    The rows of a config dataclass's fields name it as ``owner``; its
    ``__post_init__`` checks their values."""

    section: str
    key: str
    type: str
    nullable: bool
    default: object
    check: Callable[[object], object] | None = None
    owner: type | None = None


def _owned(section: str, owner: type, skip: tuple[str, ...] = ()) -> list[Setting]:
    return [Setting(section, f.name, *json_type(f), f.default, owner=owner)
            for f in fields(owner) if f.name not in skip]


def _rule(ok: Callable[[object], bool], rule: str) -> Callable[[object], None]:
    def check(value):
        if not ok(value):
            raise ValueError(f"must be {rule}")
    return check


SETTINGS = [
    Setting("paths", "corpus", "string", True, None),
    Setting("paths", "vocab", "string", True, None),
    Setting("paths", "checkpoints", "string", False, "checkpoints"),
    # Each task section's max_len is the one place the length is set.
    *_owned("encoder", EncoderConfig, skip=("vocab_size", "max_len")),
    *[row for task in TASKS for row in (
        Setting(task, "corpus", "string", True, None),
        Setting(task, "dev_split_k", "integer", False, 10, _rule(lambda k: k >= 2, ">= 2")),
        *[row for row in _owned(task, TrainConfig) if row.key in task_fields(task)],
    )],
    *_owned("match.focal", FocalConfig),
    Setting("mrc", "template", "string", False, DEFAULT_TEMPLATE,
            lambda template: build_question("", template)),
    Setting("mrc", "max_span_len", "integer", False, DEFAULT_MAX_SPAN_LEN,
            _rule(lambda n: n >= 1, ">= 1")),
    Setting("ensemble", "seeds", "list of integers", False, list(range(1, 13))),
    Setting("ensemble", "top_m", "integer", False, 10),
    Setting("pipeline", "mode", "string", False, "coarse",
            _rule(lambda mode: mode in ("coarse", "fine"), "'coarse' or 'fine'")),
    Setting("pipeline", "match_threshold", "number", False, 0.5,
            _rule(lambda t: 0 <= t <= 1, "in [0, 1]")),
    Setting("pipeline", "sentiment_checkpoints", "list of strings", False, []),
    Setting("pipeline", "matcher_checkpoints", "list of strings", False, []),
    Setting("pipeline", "mrc_checkpoint", "string", True, None),
    Setting("pipeline", "lexicon", "string", True, None),
    Setting("search", "deltas", "object of lists", False, {}),
]
_JSON_TYPES = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float),
    "list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "list of integers": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "object of lists": lambda v: isinstance(v, dict) and all(type(x) is list for x in v.values()),
}


def _build(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: a CorpusError passes through as a data error,
    and any other ValueError is a ConfigError, its message after ``prefix``
    (``bad section.`` names the field a config dataclass's error starts with)."""
    try:
        return make(*args, **kwargs)
    except CorpusError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _read_section(section: str, data, values: dict) -> dict:
    """Check one section and put each of its keys, with its value or
    default, into ``values`` as ``section.key``.  Returns the values given
    for keys a config dataclass owns, for that class to check."""
    if not isinstance(data, dict):
        raise ConfigError(f"bad {section} section: expected a JSON object, got {data!r}")
    rows = {row.key: row for row in SETTINGS if row.section == section}
    for key, value in sorted(data.items()):
        row = rows.get(key)
        if row is None:
            raise ConfigError(f"bad {section}.{key}: unknown key")
        if row.owner is not None or (value is None and row.nullable):
            continue
        if not _JSON_TYPES[row.type](value):
            article = "an" if row.type[0] in "aio" else "a"
            raise ConfigError(f"bad {section}.{key}: expected {article} {row.type}, got {value!r}")
        if row.check is not None:
            _build(f"bad {section}.{key}: ", row.check, value)
    for key, row in rows.items():
        values[f"{section}.{key}"] = data.get(key, row.default)
    return {key: value for key, value in data.items() if rows[key].owner}


def _load_config(path: str | None, seed: int | None = None) -> tuple[dict, dict]:
    """The config file at ``path`` as read, for the report's hash, and its
    checked values: each ``section.key`` of the table with its value or
    default, each task with its TrainConfig (``seed``, when given, as its
    seed), and ``encoder`` and ``ensemble`` with the objects built from them."""
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        raw = parse_json(Path(path).read_bytes())
    except CorpusError as exc:
        raise ConfigError(f"bad config file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"bad config file: expected a JSON object, got {raw!r}")
    sections = dict.fromkeys(row.section for row in SETTINGS if "." not in row.section)
    unknown = sorted(raw.keys() - sections.keys())
    if unknown:
        raise ConfigError(f"bad {unknown[0]}: unknown section")
    values: dict = {}
    owned = {name: _read_section(name, raw.get(name, {}), values) for name in sections}
    for task in TASKS:
        kwargs = owned[task]
        if kwargs.get("focal") is not None:
            focal = _read_section(f"{task}.focal", kwargs["focal"], values)
            kwargs["focal"] = _build(f"bad {task}.focal.", FocalConfig, **focal)
        if seed is not None:
            kwargs["seed"] = seed
        values[task] = tc = _build(f"bad {task}.", TrainConfig, task=task, **kwargs)
        if tc.focal is not None and tc.loss != "focal":
            raise ConfigError(f"bad {task}.focal: read only with loss 'focal', not {tc.loss!r}")
    # A stand-in vocab_size: train sets the real one from its vocabulary.
    values["encoder"] = _build("bad encoder.", EncoderConfig, vocab_size=4, **owned["encoder"])
    seeds, top_m = tuple(values["ensemble.seeds"]), values["ensemble.top_m"]
    values["ensemble"] = _build("bad ensemble.", EnsembleSpec, seeds, top_m)
    return raw, values


def _check_output(name: str, path: str, directory: bool = False) -> None:
    """Raise ConfigError naming ``name`` unless ``path`` can be written as a
    file (or, with ``directory``, as a directory): absent or of that kind,
    its nearest existing parent a directory.  Checked before any input is
    read, so a bad flag fails early (``write_atomic`` checks on its own)."""
    out, kind = Path(path), "directory" if directory else "regular file"
    if out.exists() and not (out.is_dir() if directory else out.is_file()):
        raise ConfigError(f"bad {name} {path}: not a {kind}")
    parent = out.parent
    while not parent.exists():
        parent = parent.parent
    if not parent.is_dir():
        raise ConfigError(f"bad {name} {path}: {parent} is not a directory")


def _write(path: str | Path, chunks) -> None:
    """``write_atomic``, its missing parent directories made first."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, chunks)


def _write_report(report: dict, path: str | None) -> None:
    if path is not None:
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        _write(path, [text.encode("utf-8")])


def _provenance(cfg: dict | None, seed) -> dict:
    return {
        "report_version": 1,
        "tool_version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": seed,
    }


def _train_kwargs(values: dict, task: str) -> dict:
    """train's settings from the config besides the TrainConfig.  Checkpoints
    that feed one pipeline must share a vocabulary: build-vocab once and set
    paths.vocab.  Without it each run builds one from its training split."""
    kwargs = dict(encoder=values["encoder"], vocab=None)
    path = values["paths.vocab"]
    if path is not None:
        kwargs["vocab"] = _build(f"bad vocab file {path}: ", load_vocab, path)
    if task == "mrc":
        kwargs["max_span_len"] = values["mrc.max_span_len"]
    return kwargs


def _load_docs_strict(corpus_path: str, reads_tags: bool = False) -> list[Document]:
    """The documents of a corpus that has no bad record.  The schema follows
    from what the command reads: dataset-2, which requires a tag, where it
    reads tags (mrc training and the fine pipeline), dataset-1 elsewhere."""
    docs, report = load_corpus(corpus_path, "dataset-2" if reads_tags else "dataset-1")
    if not report.ok:
        first = report.errors[0]
        raise CorpusError(
            f"{corpus_path}: {len(report.errors)} record errors; first at line "
            f"{first.line} (id={first.doc_id!r}): {first.message}"
        )
    return docs


def _task_dataset(values: dict, task: str):
    """Load and derive the training dataset for a task."""
    corpus = values[f"{task}.corpus"] or values["paths.corpus"]
    if corpus is None:
        raise ConfigError(f"no corpus configured for task {task!r}")
    docs = _load_docs_strict(corpus, reads_tags=task == "mrc")
    if task == "sentiment":
        missing = [d.id for d in docs if d.sentiment is None]
        if missing:
            raise CorpusError(
                f"{len(missing)} documents lack sentiment labels (first: {missing[0]!r})"
            )
        return docs
    if task == "match":
        pairs, _ = build_pair_dataset(docs)
        unlabeled = [p.doc_id for p in pairs if p.label is None]
        if unlabeled:
            raise CorpusError(
                f"pairs without labels (documents missing key_entities); first doc: {unlabeled[0]!r}"
            )
        if not pairs:
            raise CorpusError("corpus yields no (entity, text) pairs")
        return pairs
    examples, _ = build_mrc_dataset(docs, values["mrc.template"])
    labeled = [e for e in examples if e.answer is not None]
    if not labeled:
        raise CorpusError("corpus yields no answerable extraction examples")
    return labeled


def _holdout_split(dataset, values: dict, task: str, seed: int):
    """Deterministic train/dev split: fold 0 of a seeded k-fold over the
    documents is the dev set."""
    setting = f"{task}.dev_split_k"
    folds = _build(f"bad {setting}: ", document_folds, dataset, values[setting], seed)
    return holdout(dataset, folds[0])


def _checkpoint_dir(values: dict) -> Path:
    path = values["paths.checkpoints"]
    _check_output("paths.checkpoints", path, directory=True)
    return Path(path)


def _save_checkpoints(directory: Path, task: str, checkpoints) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = [str(directory / f"{task}-seed{ckpt.seed}.ckpt") for ckpt in checkpoints]
    for ckpt, path in zip(checkpoints, paths):
        save_checkpoint(ckpt, path)
    return paths


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    docs, report = load_corpus(args.corpus, args.schema)
    summary = report.to_dict()
    summary.update(_provenance(None, None))
    _write_report(summary, args.report)
    print(f"{args.corpus}: {report.n_documents} documents, {len(report.errors)} record errors")
    for err in report.errors[:20]:
        print(f"  line {err.line} id={err.doc_id!r}: {err.message}")
    if len(report.errors) > 20:
        print(f"  ... and {len(report.errors) - 20} more")
    return EXIT_OK if report.ok else EXIT_DATA


def cmd_build_vocab(args) -> int:
    for flag, value, least in (("--min-freq", args.min_freq, 1),
                               ("--max-size", args.max_size, len(RESERVED_TOKENS))):
        if value < least:
            raise ConfigError(f"bad {flag}: must be >= {least}, got {value}")
    docs = _load_docs_strict(args.corpus)
    vocab = vocab_from_texts(
        (d.cleaned_text for d in docs), min_freq=args.min_freq, max_size=args.max_size
    )
    _write(args.out, vocab_lines(vocab))
    report = {"corpus": args.corpus, "out": args.out, "vocab_size": vocab.size,
              "min_freq": args.min_freq, "max_size": args.max_size}
    _write_report({**report, **_provenance(None, None)}, args.report)
    print(f"wrote vocabulary of {vocab.size} tokens to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, values = _load_config(args.config, args.seed)
    tc = values[args.task]
    ckpt_dir = _checkpoint_dir(values)
    dataset = _task_dataset(values, args.task)
    train_set, dev_set = _holdout_split(dataset, values, args.task, tc.seed)
    result = train(train_set, dev_set, tc, **_train_kwargs(values, args.task))
    (ckpt_path,) = _save_checkpoints(ckpt_dir, args.task, [result.checkpoint])
    report = {
        "task": args.task,
        "train_config": tc.to_dict(),
        "n_train": len(train_set),
        "n_dev": len(dev_set),
        "n_train_skipped": result.n_train_skipped,
        "n_dev_skipped": result.n_dev_skipped,
        "epoch_losses": result.epoch_losses,
        "epoch_dev_scores": result.epoch_dev_scores,
        "dev_score": result.checkpoint.dev_score,
        "checkpoint": ckpt_path,
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    print(
        f"trained {args.task} (seed {tc.seed}): dev score "
        f"{result.checkpoint.dev_score:.4f}, checkpoint {ckpt_path}"
    )
    return EXIT_OK


def cmd_crossval(args) -> int:
    cfg, values = _load_config(args.config, args.seed)
    tc = values[args.task]
    dataset = _task_dataset(values, args.task)
    _build("bad --k: ", document_folds, dataset, args.k, tc.seed)
    result = cross_validate(dataset, tc, args.k, **_train_kwargs(values, args.task))
    report = {
        "task": args.task,
        "k": args.k,
        "fold_scores": result.fold_scores,
        "mean_score": result.mean_score,
        "n_train_skipped": result.n_train_skipped,
        "n_dev_skipped": result.n_dev_skipped,
        "train_config": tc.to_dict(),
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    for i, score in enumerate(result.fold_scores):
        print(f"fold {i}: {score:.4f}")
    print(f"mean: {result.mean_score:.4f}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    cfg, values = _load_config(args.config, args.seed)
    tc = values[args.task]
    spec = values["ensemble"]
    ckpt_dir = _checkpoint_dir(values)
    dataset = _task_dataset(values, args.task)
    train_set, dev_set = _holdout_split(dataset, values, args.task, tc.seed)
    kwargs = _train_kwargs(values, args.task)
    results = ensemble_train(train_set, dev_set, tc, spec, **kwargs)
    members = [r.checkpoint for r in results]
    paths = _save_checkpoints(ckpt_dir, args.task, members)
    report = {
        "task": args.task,
        "seeds": list(spec.seeds),
        "top_m": spec.top_m,
        "members": [
            {"seed": m.seed, "dev_score": m.dev_score, "checkpoint": p,
             "n_train_skipped": r.n_train_skipped, "n_dev_skipped": r.n_dev_skipped}
            for m, p, r in zip(members, paths, results)
        ],
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    for m, p in zip(members, paths):
        print(f"kept seed {m.seed}: dev {m.dev_score:.4f} -> {p}")
    return EXIT_OK


def _load_checkpoints(paths) -> list[Checkpoint]:
    return [_build("", load_checkpoint, path) for path in paths]


def cmd_pipeline(args) -> int:
    cfg, values = _load_config(args.config)
    mode = values["pipeline.mode"]
    docs = _load_docs_strict(args.input, reads_tags=mode == "fine")
    sentiment_members = _load_checkpoints(values["pipeline.sentiment_checkpoints"])
    matcher_members = None
    if mode == "coarse":
        matcher_members = _load_checkpoints(values["pipeline.matcher_checkpoints"])
    mrc_path = values["pipeline.mrc_checkpoint"]
    mrc_checkpoint = _load_checkpoints([mrc_path])[0] if mode == "fine" and mrc_path else None

    lexicon = None
    lexicon_path = values["pipeline.lexicon"]
    if lexicon_path is not None:
        text = _build(f"bad pipeline.lexicon {lexicon_path}: ", Path(lexicon_path).read_text,
                      encoding="utf-8")
        lexicon = Lexicon.from_strings(text.splitlines())

    # run_pipeline checks its arguments before it reads a document.
    result = _build(
        "bad pipeline section: ", run_pipeline, docs, sentiment_members, mode=mode,
        matcher_members=matcher_members, mrc_checkpoint=mrc_checkpoint,
        match_threshold=values["pipeline.match_threshold"], template=values["mrc.template"],
        lexicon=lexicon, max_span_len=values["mrc.max_span_len"],
    )

    def lines():
        for doc in result.documents:
            record = {"id": doc.doc_id, "sentiment": doc.sentiment.value,
                      "prob_negative": doc.prob_negative, "key_entities": doc.key_entities,
                      "span": doc.span_text, "error": doc.error}
            record = {key: v for key, v in record.items() if v is not None}
            yield (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")

    out = Path(args.output)
    _write(out, lines())
    report = {
        "mode": mode,
        "input": args.input,
        "output": str(out),
        "counters": result.counters,
        **_provenance(cfg, None),
    }
    _write_report(report, args.report)
    print(
        f"pipeline ({mode}): {result.counters['processed']} documents, "
        f"{result.counters['predicted_negative']} negative, "
        f"{result.counters['errors']} errors -> {out}"
    )
    return EXIT_OK


def _read_predictions(path: str) -> dict[str, dict]:
    preds: dict[str, dict] = {}
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            record = parse_json(raw)
        except CorpusError as exc:
            if not raw.decode("utf-8", "replace").strip():  # a blank line
                continue
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        doc_id = record.get("id") if isinstance(record, dict) else None
        if not isinstance(doc_id, str):
            raise CorpusError(f"{path}: line {lineno} lacks an id")
        if doc_id in preds:
            raise CorpusError(f"{path}: duplicate prediction id {doc_id!r}")
        entities, span = record.get("key_entities"), record.get("span")
        if not (entities is None or isinstance(entities, list)
                and all(isinstance(e, str) for e in entities)):
            raise CorpusError(f"{path}: line {lineno}: key_entities must be a list of strings")
        if not (span is None or isinstance(span, str)):
            raise CorpusError(f"{path}: line {lineno}: span must be a string")
        preds[doc_id] = record
    return preds


def cmd_evaluate(args) -> int:
    preds = _read_predictions(args.predictions)
    gold_docs = _load_docs_strict(args.gold)
    gold_ids = dict.fromkeys(d.id for d in gold_docs)
    unmatched = [i for i in gold_ids if i not in preds] + [i for i in preds if i not in gold_ids]
    if unmatched:
        raise CorpusError(f"id mismatch between predictions and gold corpus: {unmatched[0]!r}")

    report: dict = {
        "task": args.task,
        "predictions": args.predictions,
        "gold": args.gold,
        **_provenance(None, None),
    }
    if args.task == "sentiment":
        unlabeled = [d.id for d in gold_docs if d.sentiment is None]
        if unlabeled:
            raise CorpusError(f"gold document without sentiment label: {unlabeled[0]!r}")
        score = accuracy(
            [preds[d.id].get("sentiment") for d in gold_docs],
            [d.sentiment.value for d in gold_docs],
        )
        report["accuracy"] = score
        print(f"accuracy: {score:.5f}")
    else:
        pred_sets = []
        gold_sets = []
        for doc in gold_docs:
            record = preds[doc.id]
            if record.get("key_entities") is not None:
                pred_sets.append(set(record["key_entities"]))
            elif record.get("span") is not None:
                pred_sets.append({record["span"]})
            else:
                pred_sets.append(set())
            gold_sets.append(set(doc.key_entities or []))
        metrics = entity_prf(pred_sets, gold_sets)
        report["entity_metrics"] = metrics.to_dict()
        print(
            f"entity P/R/F1: {metrics.precision:.5f} / {metrics.recall:.5f} / "
            f"{metrics.f1:.5f} (TP={metrics.tp} FP={metrics.fp} FN={metrics.fn})"
        )
    _write_report(report, args.report)
    return EXIT_OK


def cmd_search(args) -> int:
    cfg, values = _load_config(args.config, args.seed)
    tc = values[args.task]
    dataset = _task_dataset(values, args.task)
    _build("bad --k: ", document_folds, dataset, args.k, tc.seed)
    deltas, kwargs = values["search.deltas"], _train_kwargs(values, args.task)
    result = _build("", neighborhood_search, tc, deltas, dataset, args.k, **kwargs)
    report = {
        "task": args.task,
        "k": args.k,
        "best_score": result.best_score,
        "best_config": result.best_config.to_dict(),
        "table": [
            {"changes": row.changes, "n_changed": row.n_changed, "mean_score": row.mean_score,
             "n_train_skipped": row.n_train_skipped, "n_dev_skipped": row.n_dev_skipped}
            for row in result.table
        ],
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    for row in result.table:
        print(f"{row.changes}: mean {row.mean_score:.4f}")
    print(f"best: {result.best_config.to_dict()} -> {result.best_score:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkey",
        description="Sentiment and key-entity mining over short financial texts",
    )
    parser.add_argument("--version", action="version", version=f"finkey {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--report", help="write a JSON report to this path")

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=SCHEMAS, required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-vocab", help="build and save a vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", type=int, default=1, dest="min_freq")
    p.add_argument("--max-size", type=int, default=50000, dest="max_size")
    common(p, config=False)
    p.set_defaults(func=cmd_build_vocab)

    for name, func, needs_k in (
        ("train", cmd_train, False),
        ("crossval", cmd_crossval, True),
        ("ensemble", cmd_ensemble, False),
        ("search", cmd_search, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--task", choices=TASKS, required=True)
        if needs_k:
            p.add_argument("--k", type=int, default=10)
        p.add_argument("--seed", type=int, default=None, help="override the task seed")
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("pipeline", help="run the staged prediction pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("evaluate", help="score predictions against a gold corpus")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--task", choices=("sentiment", "entities"), required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("report", "out", "output"):  # every output path, before any work
            if getattr(args, flag, None) is not None:
                _check_output(f"--{flag}", getattr(args, flag))
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
