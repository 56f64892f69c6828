"""Seeded training loops, k-fold splitting, checkpoints, parameter search.

A run is fully determined by its TrainConfig: encoder initialization derives
from the config seed, and one Generator seeded the same way drives head
initialization, epoch shuffles and dropout.  Repeating a run therefore
produces bitwise-identical checkpoints.

The per-epoch dev metric is task-specific: accuracy for sentiment, entity
F1 at the configured threshold for matching, exact-match rate for span
extraction.  The returned checkpoint holds the best-epoch parameters.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain, product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import CorpusError, Document, parse_json, write_atomic
from .encoder import (
    EncoderConfig,
    EncoderParams,
    backward_batch,
    check_config,
    forward_batch,
    inference_length,
    init_params,
    param_shapes,
    split_flat,
)
from .tasks import (
    DEFAULT_MAX_SPAN_LEN,
    TASKS,
    Encoded,
    FocalConfig,
    SentimentPrediction,
    SpanPrediction,
    Task,
    extract_span,
    init_head,
    predict_sentiment,
    score_entity,
    task_for_head,
)
from .tokenizer import Vocab, vocab_from_texts

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    task: str
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    max_len: int = 128
    loss: str = "cross_entropy"  # "focal" is available for the match task
    focal: Optional[FocalConfig] = None
    threshold: float = 0.5  # match-task decision threshold for the dev metric
    clip_norm: float = 1.0

    def __post_init__(self):
        check_config(self, lambda: [
            ("task", self.task in TASKS, f"one of {tuple(TASKS)}"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("learning_rate", self.learning_rate >= 0, ">= 0"),
            ("threshold", 0.0 <= self.threshold <= 1.0, "in [0, 1]"),
            ("loss", self.loss in ("cross_entropy", "focal"), "'cross_entropy' or 'focal'"),
            ("loss", self.loss != "focal" or self.task == "match",
             "'cross_entropy' outside the match task"),
            ("max_len", self.max_len >= 4, ">= 4"),
            ("clip_norm", self.clip_norm > 0, "> 0"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0, "> 0"),
        ])

    def focal_config(self) -> FocalConfig:
        """Effective binary-loss settings for the match task."""
        if self.loss == "focal":
            return self.focal if self.focal is not None else FocalConfig()
        return FocalConfig(gamma=0.0, alpha=None)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        focal = data.get("focal")
        if focal is not None:
            data["focal"] = FocalConfig(**focal)
        return cls(**data)


def task_fields(task: str) -> tuple[str, ...]:
    """The TrainConfig fields a ``task`` run trains with: all but ``task``, and
    outside the match task also without the matcher's loss, focal and threshold."""
    skip = ("task",) if task == "match" else ("task", "loss", "focal", "threshold")
    return tuple(f.name for f in fields(TrainConfig) if f.name not in skip)


def kfold_split(n: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Disjoint index folds covering 0..n-1: shuffle 0..n-1 with the seed and
    deal the indices round-robin, so fold sizes differ by at most one."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(tuple(int(i) for i in perm[f::k]) for f in range(k))


def document_folds(dataset, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """kfold_split over the documents of a dataset, expanded to its examples.

    Examples are Documents or carry the ``doc_id`` of their document.  All
    examples of a document land in one fold, so a held-out fold shares no
    document with the others.  With one example per document this is
    ``kfold_split(len(dataset), k, seed)``.
    """
    positions: dict[str, list[int]] = {}
    for pos, item in enumerate(dataset):
        doc_id = item.id if isinstance(item, Document) else item.doc_id
        positions.setdefault(doc_id, []).append(pos)
    docs = list(positions.values())
    if not 2 <= k <= len(docs):
        raise ValueError(f"need 2 <= k <= {len(docs)} (the number of documents), got k={k}")
    folds = kfold_split(len(docs), k, seed)
    return tuple(tuple(p for i in fold for p in docs[i]) for fold in folds)


def holdout(dataset, fold: Sequence[int]) -> tuple[list, list]:
    """(train, dev): the examples outside ``fold`` in dataset order, and
    those in it in fold order."""
    held = set(fold)
    return [x for i, x in enumerate(dataset) if i not in held], [dataset[i] for i in fold]


class Adam:
    """Adam over one flat parameter buffer, updated in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = self.v = None  # one buffer each, shaped like the parameters

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        g = grads.astype(params.dtype, copy=False)
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        params -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_by_global_norm(grads: np.ndarray, max_norm: float, parts: Sequence[np.ndarray]) -> float:
    """Scale a gradient buffer in place so its global L2 norm is <= max_norm;
    returns the norm before clipping.  The squares are summed in float64
    view by view over ``parts``, views that tile ``grads`` (one per tensor):
    that grouping fixes the norm's last bits."""
    total = 0.0
    for g in parts:
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        grads *= max_norm / norm
    return norm


def model_shapes(config: EncoderConfig, head_kind: str) -> dict[str, tuple[int, ...]]:
    """Checkpoint name -> shape of every tensor of a model, in the v1
    checkpoint's order: the encoder's tensors, then the head's."""
    shapes = {f"encoder.{n}": s for n, s in param_shapes(config).items()}
    head_cls = task_for_head(head_kind).head_cls
    shapes.update({f"head.{n}": s for n, s in head_cls.shapes(config.d_model).items()})
    return shapes


class ParamStore:
    """A model's tensors as views into one contiguous buffer ``flat``, laid
    out in ``model_shapes`` order.  ``encoder`` and ``head`` are the named
    views the layer and head math reads; ``tensors`` lists every view."""

    def __init__(self, flat: np.ndarray, config: EncoderConfig, head_kind: str):
        head_cls = task_for_head(head_kind).head_cls
        self.flat = flat
        self.tensors = split_flat(flat, model_shapes(config, head_kind).values())
        n_head = len(head_cls.__dataclass_fields__)
        self.encoder = EncoderParams.from_tensors(self.tensors[:-n_head])
        self.head = head_cls(*self.tensors[-n_head:])

    @classmethod
    def of(cls, config: EncoderConfig, encoder: EncoderParams, head, head_kind: str):
        """A store holding copies of separately built tensors."""
        flat = np.concatenate([a.ravel() for _, a in _named(encoder, head)])
        return cls(flat, config, head_kind)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FINKEYCKPT1\n"


@dataclass
class Checkpoint:
    """Trained encoder + head + vocabulary, the unit of ensembling."""

    encoder_params: EncoderParams
    encoder_config: EncoderConfig
    head: object
    head_kind: str
    vocab: Vocab
    train_config: TrainConfig
    dev_score: float
    seed: int

    def _model(self, kind: str):
        """(encoder params, encoder config, vocab, head) of a ``kind`` checkpoint."""
        if self.head_kind != kind:
            raise ValueError(f"not a {kind} checkpoint")
        return self.encoder_params, self.encoder_config, self.vocab, self.head

    def predict(self, task: Task, data: Encoded) -> list:
        """The task's predictions for inputs encoded with this vocabulary."""
        params, config, _, head = self._model(task.head_kind)
        return task.run(params, config, head, data)

    def predict_sentiment(self, text: str) -> SentimentPrediction:
        return predict_sentiment(*self._model("sentiment"), text)

    def score_entity(self, entity: str, text: str) -> float:
        return score_entity(*self._model("match"), entity, text)

    def extract_span(
        self, question: str, context: str, max_span_len: int = DEFAULT_MAX_SPAN_LEN
    ) -> SpanPrediction:
        return extract_span(*self._model("span"), question, context, max_span_len)


def _named(encoder: EncoderParams, head) -> list[tuple[str, np.ndarray]]:
    """Encoder and head tensors under their checkpoint names, in order."""
    named = [(f"encoder.{n}", a) for n, a in encoder.named()]
    return named + [(f"head.{n}", a) for n, a in head.named()]


def _tensor_index(tensors) -> list[dict]:
    """The header's tensor index of (name, dtype, shape) triples stored back to back."""
    index, offset = [], 0
    for name, dtype, shape in tensors:
        nbytes = math.prod(shape) * dtype.itemsize
        index.append(
            dict(name=name, dtype=dtype.name, shape=list(shape), offset=offset, nbytes=nbytes)
        )
        offset += nbytes
    return index


def _check_header(
    index: list[dict], enc_cfg: EncoderConfig, train_cfg: TrainConfig, head_kind: str, n_tokens: int
):
    """Raise ValueError unless a tensor index equals the one the encoder
    config and head kind imply, the vocabulary has vocab_size tokens, and
    the encoder config has the training config's max_len, as train sets it."""
    dtype = np.dtype(enc_cfg.np_dtype)
    expected = _tensor_index((n, dtype, s) for n, s in model_shapes(enc_cfg, head_kind).items())
    if index != expected:
        where = next(
            (e["name"] for k, e in enumerate(expected) if index[k : k + 1] != [e]), "the end"
        )
        raise ValueError(f"tensor index differs from encoder_config and head_kind at {where}")
    if n_tokens != enc_cfg.vocab_size:
        raise ValueError(f"vocabulary has {n_tokens} tokens, vocab_size is {enc_cfg.vocab_size}")
    if enc_cfg.max_len != train_cfg.max_len:
        raise ValueError(f"encoder_config.max_len {enc_cfg.max_len} differs from "
                         f"train_config.max_len {train_cfg.max_len}")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Serialize to the versioned binary layout (see README); bit-exact.

    Raises ValueError naming ``path``, and writes nothing, when the file
    would not load: when the tensors' names, shapes or dtypes differ from
    what the encoder config and head kind imply, when the vocabulary does
    not have vocab_size tokens, or when the encoder and training configs
    differ in max_len.  The file is written by ``write_atomic``.
    """
    tensors = _named(ckpt.encoder_params, ckpt.head)
    index = _tensor_index((name, arr.dtype, arr.shape) for name, arr in tensors)
    n_tokens = len(ckpt.vocab.id_to_token)
    try:
        _check_header(index, ckpt.encoder_config, ckpt.train_config, ckpt.head_kind, n_tokens)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header = {
        "format": "finkey-checkpoint",
        "version": 1,
        "encoder_config": ckpt.encoder_config.to_dict(),
        "train_config": ckpt.train_config.to_dict(),
        "head_kind": ckpt.head_kind,
        "dev_score": ckpt.dev_score,
        "seed": ckpt.seed,
        "vocab": list(ckpt.vocab.id_to_token),
        "tensors": index,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    write_atomic(path, chain([_CKPT_MAGIC, len(blob).to_bytes(8, "little"), blob],
                             (np.ascontiguousarray(arr).tobytes() for _, arr in tensors)))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a v1 checkpoint into one parameter buffer.

    Raises ValueError naming ``path`` unless the file holds a complete
    header, a tensor index equal to the one the encoder config and head kind
    imply (names, shapes and dtype, stored back to back), exactly that many
    tensor bytes, no NaN or infinite value in them, a vocabulary of
    ``vocab_size`` tokens, and one max_len in the encoder and training configs.
    """
    try:
        return _read_checkpoint(Path(path).read_bytes())
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint header lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(raw: bytes) -> Checkpoint:
    if not raw.startswith(_CKPT_MAGIC):
        raise ValueError("not a checkpoint file")
    pos = len(_CKPT_MAGIC) + 8
    base = pos + int.from_bytes(raw[pos - 8 : pos], "little")  # start of the tensors
    if base > len(raw):
        raise ValueError("truncated checkpoint header")
    header = parse_json(raw[pos:base])
    if not isinstance(header, dict) or header.get("version") != 1:
        raise ValueError("unsupported checkpoint version")
    enc_cfg = EncoderConfig(**header["encoder_config"])
    train_cfg = TrainConfig.from_dict(header["train_config"])
    head_kind = header["head_kind"]
    index, vocab_tokens = list(header["tensors"]), header["vocab"]
    _check_header(index, enc_cfg, train_cfg, head_kind, len(vocab_tokens))
    nbytes = index[-1]["offset"] + index[-1]["nbytes"]
    if len(raw) - base != nbytes:
        raise ValueError(f"tensor section is {len(raw) - base} bytes, expected {nbytes}")
    dtype = np.dtype(enc_cfg.np_dtype)
    flat = np.frombuffer(raw, dtype, nbytes // dtype.itemsize, base).copy()
    finite = np.isfinite(flat)
    if not finite.all():
        at = int(np.argmin(finite)) * dtype.itemsize  # byte offset of the first bad value
        bad = next(e["name"] for e in index if at < e["offset"] + e["nbytes"])
        raise ValueError(f"tensor {bad} holds a non-finite value")
    model = ParamStore(flat, enc_cfg, head_kind)
    return Checkpoint(
        encoder_params=model.encoder,
        encoder_config=enc_cfg,
        head=model.head,
        head_kind=head_kind,
        vocab=Vocab.from_stored(vocab_tokens),
        train_config=train_cfg,
        dev_score=header["dev_score"],
        seed=header["seed"],
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list[float]
    epoch_dev_scores: list[float]
    n_train_skipped: int = 0
    n_dev_skipped: int = 0


def _encode_labeled(task: Task, examples, vocab: Vocab, max_len: int) -> Encoded:
    """Training or dev examples encoded; examples that do not encode are
    skipped with a warning."""
    data = task.encode(examples, vocab, max_len)
    if data.gold is None:
        raise ValueError(f"{task.name} training and dev examples must all be labeled")
    if data.errors:
        first = min(data.errors)
        logger.warning(
            "%s encoding: skipped %d of %d examples (first: %s)",
            task.name, len(data.errors), len(examples), data.errors[first],
        )
    if not data.n:
        raise CorpusError(f"no usable {task.name} examples after encoding")
    return data


def _train_step(task: Task, model: ParamStore, enc_cfg: EncoderConfig, batch: Encoded, rng):
    """Loss and gradients of one training batch; the gradients are a
    ParamStore over a new zeroed buffer.

    The batch is cut to ``inference_length`` positions (its last real
    position, rounded up to 8) before the forward.  Padded keys are masked
    and no loss reaches a padded position, so the cut changes no gradient
    in exact arithmetic, and dropout draws its masks at ``max_len``, so the
    generator advances as at full length.  A pooled task's loss reads the
    [CLS] row only, so its last encoder layer runs pooled (forward_batch's
    ``pooled``), backward too; the gradients are those of the full forward
    up to the grouping of the sums over positions.  The activation cache is
    freed on return, before the next batch or the dev evaluation.
    """
    t = inference_length(batch.mask, enc_cfg.max_len)
    batch = replace(
        batch,
        ids=batch.ids[:, :t],
        mask=batch.mask[:, :t],
        valid=None if batch.valid is None else batch.valid[:, :t],
    )
    cache: dict = {}
    hidden = forward_batch(
        model.encoder, enc_cfg, batch.ids, batch.mask, training=True, rng=rng, cache=cache,
        pooled=task.pooled,
    )
    loss, head_grads, d_hidden = task.loss_and_grad(model.head, hidden, batch)
    grads = ParamStore(np.zeros_like(model.flat), enc_cfg, task.head_kind)
    backward_batch(model.encoder, enc_cfg, cache, d_hidden, grads.encoder)
    for name, g in head_grads.items():
        getattr(grads.head, name)[...] = g
    return loss, grads


def train(
    train_set,
    dev_set,
    cfg: TrainConfig,
    encoder: Optional[EncoderConfig] = None,
    vocab: Optional[Vocab] = None,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> TrainResult:
    """Train one model; returns the best-dev-epoch checkpoint plus history.

    ``encoder`` acts as an architecture template: its vocab_size and max_len
    are replaced by the built vocabulary size and cfg.max_len.  When
    ``vocab`` is omitted it is built from the training split only.
    ``max_span_len`` bounds the spans the mrc dev metric scores.
    """
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be non-empty")
    task = TASKS[cfg.task](**{
        "match": dict(focal=cfg.focal_config(), threshold=cfg.threshold),
        "mrc": dict(max_span_len=max_span_len),
    }.get(cfg.task, {}))
    if vocab is None:
        vocab = vocab_from_texts(text for item in train_set for text in task.segments(item))
    if encoder is None:
        encoder = EncoderConfig(vocab_size=vocab.size, max_len=cfg.max_len)
    enc_cfg = replace(encoder, vocab_size=vocab.size, max_len=cfg.max_len)

    rng = np.random.default_rng(cfg.seed)
    head = init_head(task.head_kind, enc_cfg.d_model, rng, enc_cfg.np_dtype)
    model = ParamStore.of(enc_cfg, init_params(enc_cfg, cfg.seed), head, task.head_kind)

    train_data = _encode_labeled(task, train_set, vocab, cfg.max_len)
    dev_data = _encode_labeled(task, dev_set, vocab, cfg.max_len)

    adam = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)

    best_score = -1.0
    best_flat = None
    epoch_losses: list[float] = []
    epoch_scores: list[float] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(train_data.n)
        batch_losses = []
        for bi, start in enumerate(range(0, train_data.n, cfg.batch_size)):
            batch = train_data.rows(order[start : start + cfg.batch_size])
            loss, grads = _train_step(task, model, enc_cfg, batch, rng)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch} at batch {bi}"
                )
            clip_by_global_norm(grads.flat, cfg.clip_norm, grads.tensors)
            adam.step(model.flat, grads.flat)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        score = task.dev_metric(task.run(model.encoder, enc_cfg, model.head, dev_data), dev_data)
        epoch_scores.append(score)
        if score > best_score:
            best_score = score
            best_flat = model.flat.copy()

    best = ParamStore(best_flat, enc_cfg, task.head_kind)
    ckpt = Checkpoint(
        encoder_params=best.encoder,
        encoder_config=enc_cfg,
        head=best.head,
        head_kind=task.head_kind,
        vocab=vocab,
        train_config=cfg,
        dev_score=best_score,
        seed=cfg.seed,
    )
    return TrainResult(
        checkpoint=ckpt,
        epoch_losses=epoch_losses,
        epoch_dev_scores=epoch_scores,
        n_train_skipped=len(train_data.errors),
        n_dev_skipped=len(dev_data.errors),
    )


@dataclass
class CrossValResult:
    fold_scores: list[float]
    mean_score: float
    n_train_skipped: list[int] = field(default_factory=list)  # per fold
    n_dev_skipped: list[int] = field(default_factory=list)


def cross_validate(
    dataset, cfg: TrainConfig, k: int, encoder: Optional[EncoderConfig] = None, **train_kwargs
) -> CrossValResult:
    """k-fold cross-validation over documents (``document_folds``): each
    fold is held out once as the dev set."""
    results = [train(*holdout(dataset, fold), cfg, encoder=encoder, **train_kwargs)
               for fold in document_folds(dataset, k, cfg.seed)]
    scores = [r.checkpoint.dev_score for r in results]
    return CrossValResult(scores, float(np.mean(scores)), [r.n_train_skipped for r in results],
                          [r.n_dev_skipped for r in results])


@dataclass
class SearchRow:
    changes: dict
    n_changed: int
    mean_score: float
    n_train_skipped: list[int]  # per fold
    n_dev_skipped: list[int]


@dataclass
class SearchResult:
    best_config: TrainConfig
    best_score: float
    table: list[SearchRow]


def _grid_config(base_cfg: TrainConfig, overrides: dict) -> TrainConfig:
    """``base_cfg`` with ``overrides``; a value TrainConfig rejects, of a
    wrong type included, is a ValueError naming the overridden fields."""
    try:
        return replace(base_cfg, **overrides)
    except (TypeError, ValueError) as exc:
        changes = ", ".join(f"{name}={value!r}" for name, value in overrides.items())
        raise ValueError(f"bad search candidate {changes}: {exc}") from None


def neighborhood_search(
    base_cfg: TrainConfig,
    deltas: dict[str, list],
    dataset,
    k: int,
    encoder: Optional[EncoderConfig] = None,
    **train_kwargs,
) -> SearchResult:
    """Grid search over candidate values arranged around the base config,
    for the fields the task trains with (``task_fields``) but ``focal``.

    Every per-field candidate list is extended with the base value, so the
    base config is always in the grid, and a repeated value counts once.
    Every grid config is built before any trains, so a bad candidate is a
    ValueError naming its field before any work is done.  Candidates are
    scored by k-fold mean dev score; ties prefer fewer changed fields, then
    the smallest candidate in sorted-field order (``focal``, an object, has
    no order).
    """
    field_names = sorted(deltas)
    searchable = [name for name in task_fields(base_cfg.task) if name != "focal"]
    candidate_lists = []
    for name in field_names:
        if name not in searchable:
            raise ValueError(f"bad search field {name!r}: {base_cfg.task} searches "
                             f"{', '.join(searchable)}")
        if not deltas[name]:
            raise ValueError(f"empty candidate list for {name!r}")
        values = []
        for value in [*deltas[name], getattr(base_cfg, name)]:
            _grid_config(base_cfg, {name: value})  # a bad value alone, before any combination
            if value not in values:  # by ==, as JSON candidates may be unhashable
                values.append(value)
        candidate_lists.append(values)
    grid = [
        (combo, _grid_config(base_cfg, dict(zip(field_names, combo))))
        for combo in product(*candidate_lists)
    ]

    rows: list[tuple[tuple, TrainConfig, SearchRow]] = []
    for combo, cfg in grid:
        overrides = dict(zip(field_names, combo))
        result = cross_validate(dataset, cfg, k, encoder=encoder, **train_kwargs)
        n_changed = sum(
            value != getattr(base_cfg, name) for name, value in overrides.items()
        )
        row = SearchRow(overrides, n_changed, result.mean_score, result.n_train_skipped,
                        result.n_dev_skipped)
        rows.append((combo, cfg, row))

    best_combo, best_cfg, best_row = min(
        rows, key=lambda r: (-r[2].mean_score, r[2].n_changed, r[0])
    )
    return SearchResult(
        best_config=best_cfg,
        best_score=best_row.mean_score,
        table=[row for _, _, row in rows],
    )
