"""Command-line entry point wiring corpora, training, ensembles and evaluation.

One JSON config file holds the per-task training sections plus paths,
ensemble, pipeline and search settings; command-line flags override file
values.  Reports embed the tool version, the config hash and the seed so
every run is attributable.

Exit codes: 0 success, 1 validation/data error, 2 configuration error,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    Document,
    Lexicon,
    SCHEMAS,
    build_mrc_dataset,
    build_pair_dataset,
    load_corpus,
)
from .encoder import EncoderConfig
from .evaluation import EnsembleSpec, ensemble_train_select, run_pipeline
from .tasks import DEFAULT_MAX_SPAN_LEN, DEFAULT_TEMPLATE, FocalConfig, accuracy, entity_prf
from .tokenizer import Vocab, load_vocab, save_vocab, vocab_from_texts
from .training import (
    Checkpoint,
    NumericalError,
    TrainConfig,
    cross_validate,
    document_folds,
    load_checkpoint,
    neighborhood_search,
    save_checkpoint,
    train,
)

logger = logging.getLogger(__name__)

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


def _load_config(path: str | None) -> dict | None:
    if path is None:
        return None
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    _check(isinstance(cfg, dict), "config file", cfg, "a JSON object")
    return cfg


def _require_config(cfg: dict | None) -> dict:
    if cfg is None:
        raise ConfigError("this command requires --config")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    _check(isinstance(section, dict), f"{name} section", section, "a JSON object")
    return section


def _check(ok: bool, setting: str, value, expected: str) -> None:
    """A configuration error naming ``setting`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"bad {setting}: expected {expected}, got {value!r}")


def _write_report(report: dict, path: str | None) -> None:
    if path is None:
        return
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _provenance(cfg: dict | None, seed) -> dict:
    return {
        "report_version": 1,
        "tool_version": __version__,
        "config_hash": _config_hash(cfg),
        "seed": seed,
    }


_TRAIN_FIELDS = set(TrainConfig.__dataclass_fields__) - {"task", "focal"}


def _train_config(cfg: dict, task: str, seed_override: int | None) -> TrainConfig:
    section = _section(cfg, task)
    kwargs = {k: v for k, v in section.items() if k in _TRAIN_FIELDS}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        focal = section.get("focal")
        if focal is not None:
            kwargs["focal"] = FocalConfig(**focal)
        return TrainConfig(task=task, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {task} training section: {exc}") from None


def _encoder_config(cfg: dict) -> EncoderConfig | None:
    section = cfg.get("encoder")
    if section is None:
        return None
    try:
        # vocab_size is derived from the built vocabulary during training.
        return EncoderConfig(vocab_size=4, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad encoder section: {exc}") from None


def _task_corpus(cfg: dict, task: str) -> tuple[str, str]:
    section = _section(cfg, task)
    paths = _section(cfg, "paths")
    corpus = section.get("corpus", paths.get("corpus"))
    schema = section.get("schema", paths.get("schema"))
    if corpus is None or schema is None:
        raise ConfigError(f"no corpus/schema configured for task {task!r}")
    if schema not in SCHEMAS:
        raise ConfigError(f"unknown schema {schema!r}")
    if not Path(corpus).exists():
        raise ConfigError(f"corpus file not found: {corpus}")
    return corpus, schema


def _mrc_settings(cfg: dict) -> dict:
    """The checked template and max_span_len of the mrc section, by name."""
    section = _section(cfg, "mrc")
    template = section.get("template", DEFAULT_TEMPLATE)
    max_span_len = section.get("max_span_len", DEFAULT_MAX_SPAN_LEN)
    _check(isinstance(template, str) and template.count("{tag}") == 1,
           "mrc.template", template, "a string with exactly one {tag}")
    _check(type(max_span_len) is int and max_span_len >= 1,
           "mrc.max_span_len", max_span_len, "an integer >= 1")
    return {"template": template, "max_span_len": max_span_len}


def _train_kwargs(cfg: dict, task: str) -> dict:
    """train's settings from the config besides the TrainConfig."""
    kwargs = dict(encoder=_encoder_config(cfg), vocab=_explicit_vocab(cfg))
    if task == "mrc":
        kwargs["max_span_len"] = _mrc_settings(cfg)["max_span_len"]
    return kwargs


def _load_docs_strict(corpus_path: str, schema: str) -> list[Document]:
    docs, report = load_corpus(corpus_path, schema)
    if not report.ok:
        first = report.errors[0]
        raise CorpusError(
            f"{corpus_path}: {len(report.errors)} record errors; first at line "
            f"{first.line} (id={first.doc_id!r}): {first.message}"
        )
    return docs


def _task_dataset(cfg: dict, task: str):
    """Load and derive the training dataset for a task; returns (dataset, extras)."""
    corpus_path, schema = _task_corpus(cfg, task)
    docs = _load_docs_strict(corpus_path, schema)
    if task == "sentiment":
        missing = [d.id for d in docs if d.sentiment is None]
        if missing:
            raise CorpusError(
                f"{len(missing)} documents lack sentiment labels (first: {missing[0]!r})"
            )
        return docs
    if task == "match":
        pairs, skipped = build_pair_dataset(docs)
        unlabeled = [p.doc_id for p in pairs if p.label is None]
        if unlabeled:
            raise CorpusError(
                f"pairs without labels (documents missing key_entities); first doc: {unlabeled[0]!r}"
            )
        if not pairs:
            raise CorpusError("corpus yields no (entity, text) pairs")
        if skipped:
            logger.warning("skipped %d documents without entity lists", skipped)
        return pairs
    examples, dropped = build_mrc_dataset(docs, _mrc_settings(cfg)["template"])
    labeled = [e for e in examples if e.answer is not None]
    if not labeled:
        raise CorpusError("corpus yields no answerable extraction examples")
    if dropped:
        logger.warning("dropped %d documents whose gold entity is absent from the text", dropped)
    return labeled


def _document_folds(dataset, k: int, seed: int, setting: str):
    """document_folds; a fold count the corpus cannot fill is a
    configuration error naming ``setting``."""
    try:
        return document_folds(dataset, k, seed)
    except ValueError as exc:
        raise ConfigError(f"bad {setting}: {exc}") from None


def _holdout_split(dataset, cfg: dict, task: str, seed: int):
    """Deterministic train/dev split: fold 0 of a seeded k-fold over the
    documents is the dev set."""
    k = _section(cfg, task).get("dev_split_k", 10)
    _check(type(k) is int, f"{task}.dev_split_k", k, "an integer")
    split = _document_folds(dataset, k, seed, f"{task}.dev_split_k")
    dev_idx = set(split.folds[0])
    train_set = [dataset[i] for i in range(len(dataset)) if i not in dev_idx]
    dev_set = [dataset[i] for i in split.folds[0]]
    return train_set, dev_set


def _checkpoint_dir(cfg: dict) -> Path:
    path = Path(_section(cfg, "paths").get("checkpoints", "checkpoints"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _explicit_vocab(cfg: dict) -> Vocab | None:
    """Shared vocabulary from paths.vocab, when configured.

    Checkpoints that feed one pipeline must share a vocabulary, so the
    intended flow is build-vocab once, then train every task against it.
    Without this setting each training run builds its vocabulary from its
    own training split.
    """
    path = _section(cfg, "paths").get("vocab")
    if path is None:
        return None
    if not Path(path).exists():
        raise ConfigError(f"vocab file not found: {path}")
    try:
        return load_vocab(path)
    except ValueError as exc:
        raise ConfigError(f"bad vocab file {path}: {exc}") from None


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
    docs = _load_docs_strict(args.corpus, args.schema)
    vocab = vocab_from_texts(
        (d.cleaned_text for d in docs), min_freq=args.min_freq, max_size=args.max_size
    )
    save_vocab(vocab, args.out)
    print(f"wrote vocabulary of {vocab.size} tokens to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _require_config(_load_config(args.config))
    tc = _train_config(cfg, args.task, args.seed)
    dataset = _task_dataset(cfg, args.task)
    train_set, dev_set = _holdout_split(dataset, cfg, args.task, tc.seed)
    result = train(train_set, dev_set, tc, **_train_kwargs(cfg, args.task))
    ckpt_path = _checkpoint_dir(cfg) / f"{args.task}-seed{tc.seed}.ckpt"
    save_checkpoint(result.checkpoint, ckpt_path)
    report = {
        "task": args.task,
        "train_config": tc.to_dict(),
        "n_train": len(train_set),
        "n_dev": len(dev_set),
        "epoch_losses": result.epoch_losses,
        "epoch_dev_scores": result.epoch_dev_scores,
        "dev_score": result.checkpoint.dev_score,
        "checkpoint": str(ckpt_path),
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    print(
        f"trained {args.task} (seed {tc.seed}): dev score "
        f"{result.checkpoint.dev_score:.4f}, checkpoint {ckpt_path}"
    )
    return EXIT_OK


def cmd_crossval(args) -> int:
    cfg = _require_config(_load_config(args.config))
    tc = _train_config(cfg, args.task, args.seed)
    dataset = _task_dataset(cfg, args.task)
    _document_folds(dataset, args.k, tc.seed, "--k")
    result = cross_validate(dataset, tc, args.k, **_train_kwargs(cfg, args.task))
    report = {
        "task": args.task,
        "k": args.k,
        "fold_scores": result.fold_scores,
        "mean_score": result.mean_score,
        "train_config": tc.to_dict(),
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    for i, score in enumerate(result.fold_scores):
        print(f"fold {i}: {score:.4f}")
    print(f"mean: {result.mean_score:.4f}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    cfg = _require_config(_load_config(args.config))
    tc = _train_config(cfg, args.task, args.seed)
    section = _section(cfg, "ensemble")
    seeds, top_m = section.get("seeds", list(range(1, 13))), section.get("top_m", 10)
    _check(isinstance(seeds, list) and all(type(s) is int for s in seeds),
           "ensemble.seeds", seeds, "a list of integers")
    _check(type(top_m) is int, "ensemble.top_m", top_m, "an integer")
    try:
        spec = EnsembleSpec(seeds=tuple(seeds), top_m=top_m)
    except ValueError as exc:
        raise ConfigError(f"bad ensemble section: {exc}") from None
    dataset = _task_dataset(cfg, args.task)
    train_set, dev_set = _holdout_split(dataset, cfg, args.task, tc.seed)
    members = ensemble_train_select(train_set, dev_set, tc, spec, **_train_kwargs(cfg, args.task))
    ckpt_dir = _checkpoint_dir(cfg)
    paths = []
    for member in members:
        path = ckpt_dir / f"{args.task}-seed{member.seed}.ckpt"
        save_checkpoint(member, path)
        paths.append(str(path))
    report = {
        "task": args.task,
        "seeds": list(spec.seeds),
        "top_m": spec.top_m,
        "members": [
            {"seed": m.seed, "dev_score": m.dev_score, "checkpoint": p}
            for m, p in zip(members, paths)
        ],
        **_provenance(cfg, tc.seed),
    }
    _write_report(report, args.report)
    for m, p in zip(members, paths):
        print(f"kept seed {m.seed}: dev {m.dev_score:.4f} -> {p}")
    return EXIT_OK


def _load_checkpoints(paths, expected_kind: str) -> list[Checkpoint]:
    loaded = []
    for path in paths:
        if not Path(path).exists():
            raise ConfigError(f"checkpoint not found: {path}")
        try:
            ckpt = load_checkpoint(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if ckpt.head_kind != expected_kind:
            raise ConfigError(
                f"{path}: expected a {expected_kind} checkpoint, found {ckpt.head_kind}"
            )
        loaded.append(ckpt)
    return loaded


def cmd_pipeline(args) -> int:
    cfg = _require_config(_load_config(args.config))
    section = _section(cfg, "pipeline")
    mode = section.get("mode", "coarse")
    if mode not in ("coarse", "fine"):
        raise ConfigError("pipeline.mode must be 'coarse' or 'fine'")
    threshold = section.get("match_threshold", 0.5)
    _check(type(threshold) in (int, float) and 0 <= threshold <= 1,
           "pipeline.match_threshold", threshold, "a number in [0, 1]")
    fine = _mrc_settings(cfg) if mode == "fine" else {}
    schema = section.get("schema", _section(cfg, "paths").get("schema"))
    if schema is None:
        schema = "dataset-1" if mode == "coarse" else "dataset-2"
    docs = _load_docs_strict(args.input, schema)

    sentiment_members = _load_checkpoints(
        section.get("sentiment_checkpoints", []), "sentiment"
    )
    if not sentiment_members:
        raise ConfigError("pipeline.sentiment_checkpoints must list at least one path")
    matcher_members = None
    mrc_checkpoint = None
    if mode == "coarse":
        matcher_members = _load_checkpoints(
            section.get("matcher_checkpoints", []), "match"
        )
        if not matcher_members:
            raise ConfigError("coarse pipeline needs pipeline.matcher_checkpoints")
    else:
        path = section.get("mrc_checkpoint")
        if path is None:
            raise ConfigError("fine pipeline needs pipeline.mrc_checkpoint")
        mrc_checkpoint = _load_checkpoints([path], "span")[0]

    lexicon = None
    lexicon_path = section.get("lexicon")
    if lexicon_path is not None:
        try:
            entries = Path(lexicon_path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"bad pipeline.lexicon {lexicon_path}: {exc}") from None
        lexicon = Lexicon.from_strings(entries)

    result = run_pipeline(
        docs,
        sentiment_members,
        mode=mode,
        matcher_members=matcher_members,
        mrc_checkpoint=mrc_checkpoint,
        match_threshold=threshold,
        lexicon=lexicon,
        **fine,
    )

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for doc in result.documents:
            record: dict = {
                "id": doc.doc_id,
                "sentiment": doc.sentiment.value,
                "prob_negative": doc.prob_negative,
            }
            if doc.key_entities is not None:
                record["key_entities"] = doc.key_entities
            if doc.span_text is not None:
                record["span"] = doc.span_text
            if doc.error is not None:
                record["error"] = doc.error
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

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
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno} is not valid JSON: {exc.msg}") from None
            doc_id = record.get("id") if isinstance(record, dict) else None
            if not isinstance(doc_id, str):
                raise CorpusError(f"{path}: line {lineno} lacks an id")
            if doc_id in preds:
                raise CorpusError(f"{path}: duplicate prediction id {doc_id!r}")
            preds[doc_id] = record
    return preds


def cmd_evaluate(args) -> int:
    preds = _read_predictions(args.predictions)
    gold_docs = _load_docs_strict(args.gold, args.schema)
    gold_ids = [d.id for d in gold_docs]
    gold_id_set = set(gold_ids)
    missing = [i for i in gold_ids if i not in preds]
    extra = [i for i in preds if i not in gold_id_set]
    if missing or extra:
        offender = (missing or extra)[0]
        print(f"id mismatch between predictions and gold corpus: {offender!r}")
        return EXIT_DATA

    report: dict = {
        "task": args.task,
        "predictions": args.predictions,
        "gold": args.gold,
        **_provenance(None, None),
    }
    if args.task == "sentiment":
        unlabeled = [d.id for d in gold_docs if d.sentiment is None]
        if unlabeled:
            print(f"gold document without sentiment label: {unlabeled[0]!r}")
            return EXIT_DATA
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
    cfg = _require_config(_load_config(args.config))
    tc = _train_config(cfg, args.task, args.seed)
    deltas = _section(cfg, "search").get("deltas", {})
    _check(isinstance(deltas, dict) and all(isinstance(v, list) for v in deltas.values()),
           "search.deltas", deltas, "a JSON object of candidate lists")
    dataset = _task_dataset(cfg, args.task)
    _document_folds(dataset, args.k, tc.seed, "--k")
    try:
        result = neighborhood_search(tc, deltas, dataset, args.k, **_train_kwargs(cfg, args.task))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = {
        "task": args.task,
        "k": args.k,
        "best_score": result.best_score,
        "best_config": result.best_config.to_dict(),
        "table": [
            {"changes": row.changes, "n_changed": row.n_changed, "mean_score": row.mean_score}
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
            p.add_argument("--seed", type=int, default=None, help="override the task seed")
        p.add_argument("--report", help="write a JSON report to this path")

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=SCHEMAS, required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-vocab", help="build and save a vocabulary")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=SCHEMAS, required=True)
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
        p.add_argument("--task", choices=("sentiment", "match", "mrc"), required=True)
        if needs_k:
            p.add_argument("--k", type=int, default=10)
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
    p.add_argument("--schema", choices=SCHEMAS, default="dataset-1")
    common(p, config=False)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
