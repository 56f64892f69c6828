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

import copy
import json
import logging
import os
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import CorpusError, Document
from .encoder import (
    EncoderConfig,
    EncoderParams,
    LayerParams,
    backward_batch,
    forward_batch,
    inference_length,
    init_params,
)
from .tasks import (
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
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {tuple(TASKS)}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.loss not in ("cross_entropy", "focal"):
            raise ValueError("loss must be 'cross_entropy' or 'focal'")
        if self.loss == "focal" and self.task != "match":
            raise ValueError("focal loss applies to the match task only")
        if self.max_len < 4:
            raise ValueError("max_len must be >= 4")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")

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


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint index folds covering 0..n-1."""

    folds: tuple[tuple[int, ...], ...]


def kfold_split(n: int, k: int, seed: int) -> FoldSplit:
    """Shuffle 0..n-1 with the seed and deal the indices round-robin, so
    fold sizes differ by at most one."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return FoldSplit(tuple(tuple(int(i) for i in perm[f::k]) for f in range(k)))


def document_folds(dataset, k: int, seed: int) -> FoldSplit:
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
    split = kfold_split(len(docs), k, seed)
    return FoldSplit(tuple(tuple(p for i in fold for p in docs[i]) for fold in split.folds))


class Adam:
    """Adam over a flat name->array mapping, updating arrays in place."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name].astype(p.dtype, copy=False)
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


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

    def _expect(self, kind: str) -> None:
        if self.head_kind != kind:
            raise ValueError(f"not a {kind} checkpoint")

    def predict(self, task: Task, data: Encoded) -> list:
        """The task's predictions for inputs encoded with this vocabulary."""
        self._expect(task.head_kind)
        return task.run(self.encoder_params, self.encoder_config, self.head, data)

    def predict_sentiment(self, text: str) -> SentimentPrediction:
        self._expect("sentiment")
        params, config, vocab, head = self.encoder_params, self.encoder_config, self.vocab, self.head
        return predict_sentiment(params, config, vocab, head, text)

    def score_entity(self, entity: str, text: str) -> float:
        self._expect("match")
        params, config, vocab, head = self.encoder_params, self.encoder_config, self.vocab, self.head
        return score_entity(params, config, vocab, head, entity, text)

    def extract_span(self, question: str, context: str, max_span_len: int = 16) -> SpanPrediction:
        self._expect("span")
        params, config, vocab, head = self.encoder_params, self.encoder_config, self.vocab, self.head
        return extract_span(params, config, vocab, head, question, context, max_span_len)


def _flat(encoder: EncoderParams, head_named) -> dict[str, np.ndarray]:
    """Encoder and head tensors under their checkpoint names, in order."""
    out = {f"encoder.{n}": a for n, a in encoder.named()}
    out.update({f"head.{n}": a for n, a in head_named})
    return out


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Serialize to the versioned binary layout (see README); bit-exact.

    The file is written next to ``path`` under a temporary name and moved
    into place when complete, so a failed write leaves any checkpoint
    already at ``path`` as it was.
    """
    tensors = _flat(ckpt.encoder_params, ckpt.head.named()).items()
    index = []
    offset = 0
    for name, arr in tensors:
        nbytes = arr.size * arr.dtype.itemsize
        index.append(
            {
                "name": name,
                "dtype": arr.dtype.name,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": nbytes,
            }
        )
        offset += nbytes
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
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _build_encoder_params(config: EncoderConfig, tensors: dict[str, np.ndarray]) -> EncoderParams:
    layers = []
    for i in range(config.n_layers):
        kwargs = {
            name: tensors[f"encoder.layers.{i}.{name}"]
            for name in LayerParams.__dataclass_fields__
        }
        layers.append(LayerParams(**kwargs))
    return EncoderParams(embedding=tensors["encoder.embedding"], layers=layers)


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file")
    pos = len(_CKPT_MAGIC)
    header_len = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    if header.get("version") != 1:
        raise ValueError(f"{path}: unsupported checkpoint version")
    base = pos + header_len
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        start = base + entry["offset"]
        buf = raw[start : start + entry["nbytes"]]
        arr = np.frombuffer(buf, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"]).copy()
        tensors[entry["name"]] = arr
    enc_cfg = EncoderConfig(**header["encoder_config"])
    head_kind = header["head_kind"]
    head_cls = task_for_head(head_kind).head_cls
    head = head_cls(**{name: tensors[f"head.{name}"] for name in head_cls.__dataclass_fields__})
    vocab_tokens = header["vocab"]
    if len(vocab_tokens) < 4:
        raise ValueError(f"{path}: truncated vocabulary in checkpoint header")
    vocab = Vocab.from_tokens(vocab_tokens[4:])
    return Checkpoint(
        encoder_params=_build_encoder_params(enc_cfg, tensors),
        encoder_config=enc_cfg,
        head=head,
        head_kind=head_kind,
        vocab=vocab,
        train_config=TrainConfig.from_dict(header["train_config"]),
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


def _train_step(task: Task, params, enc_cfg, head, batch: Encoded, rng):
    """Loss and flat gradients of one training batch.

    The batch is cut to ``inference_length`` positions (its last real
    position, rounded up to 8) before the forward.  Padded keys are masked
    and no loss reaches a padded position, so the cut changes no gradient
    in exact arithmetic, and dropout draws its masks at ``max_len``, so the
    generator advances as at full length.  The activation cache is freed on
    return, before the next batch or the dev evaluation.
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
        params, enc_cfg, batch.ids, batch.mask, training=True, rng=rng, cache=cache
    )
    loss, head_grads, d_hidden = task.loss_and_grad(head, hidden, batch)
    return loss, _flat(backward_batch(params, enc_cfg, cache, d_hidden), head_grads.items())


def train(
    train_set,
    dev_set,
    cfg: TrainConfig,
    encoder: Optional[EncoderConfig] = None,
    vocab: Optional[Vocab] = None,
    vocab_min_freq: int = 1,
    vocab_max_size: int = 50000,
    max_span_len: int = 16,
) -> TrainResult:
    """Train one model; returns the best-dev-epoch checkpoint plus history.

    ``encoder`` acts as an architecture template: its vocab_size and max_len
    are replaced by the built vocabulary size and cfg.max_len.  When
    ``vocab`` is omitted it is built from the training split only.
    """
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be non-empty")
    task = TASKS[cfg.task](
        focal=cfg.focal_config(), threshold=cfg.threshold, max_span_len=max_span_len
    )
    if vocab is None:
        vocab = vocab_from_texts(
            (text for item in train_set for text in task.segments(item)),
            min_freq=vocab_min_freq,
            max_size=vocab_max_size,
        )
    if encoder is None:
        encoder = EncoderConfig(vocab_size=vocab.size, max_len=cfg.max_len)
    enc_cfg = replace(encoder, vocab_size=vocab.size, max_len=cfg.max_len)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(enc_cfg, cfg.seed)
    head = init_head(task.head_kind, enc_cfg.d_model, rng, enc_cfg.np_dtype)

    train_data = _encode_labeled(task, train_set, vocab, cfg.max_len)
    dev_data = _encode_labeled(task, dev_set, vocab, cfg.max_len)

    flat_params = _flat(params, head.named())
    adam = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)

    best_score = -1.0
    best_params = None
    best_head = None
    epoch_losses: list[float] = []
    epoch_scores: list[float] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(train_data.n)
        batch_losses = []
        for bi, start in enumerate(range(0, train_data.n, cfg.batch_size)):
            batch = train_data.rows(order[start : start + cfg.batch_size])
            loss, flat_grads = _train_step(task, params, enc_cfg, head, batch, rng)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch} at batch {bi}"
                )
            clip_by_global_norm(flat_grads, cfg.clip_norm)
            adam.step(flat_params, flat_grads)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        score = task.dev_metric(task.run(params, enc_cfg, head, dev_data), dev_data)
        epoch_scores.append(score)
        if score > best_score:
            best_score = score
            best_params = params.copy()
            best_head = copy.deepcopy(head)

    ckpt = Checkpoint(
        encoder_params=best_params,
        encoder_config=enc_cfg,
        head=best_head,
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


def cross_validate(
    dataset, cfg: TrainConfig, k: int, encoder: Optional[EncoderConfig] = None, **train_kwargs
) -> CrossValResult:
    """k-fold cross-validation over documents (``document_folds``): each
    fold is held out once as the dev set."""
    split = document_folds(dataset, k, cfg.seed)
    scores = []
    for fold in split.folds:
        held = set(fold)
        dev = [dataset[i] for i in fold]
        tr = [dataset[i] for i in range(len(dataset)) if i not in held]
        result = train(tr, dev, cfg, encoder=encoder, **train_kwargs)
        scores.append(result.checkpoint.dev_score)
    return CrossValResult(fold_scores=scores, mean_score=float(np.mean(scores)))


@dataclass
class SearchRow:
    changes: dict
    n_changed: int
    mean_score: float


@dataclass
class SearchResult:
    best_config: TrainConfig
    best_score: float
    table: list[SearchRow]


def neighborhood_search(
    base_cfg: TrainConfig,
    deltas: dict[str, list],
    dataset,
    k: int,
    encoder: Optional[EncoderConfig] = None,
    **train_kwargs,
) -> SearchResult:
    """Grid search over candidate values arranged around the base config.

    Every per-field candidate list is extended with the base value, so the
    base config is always in the grid.  Candidates are scored by k-fold
    mean dev score; ties prefer fewer changed fields, then the smallest
    candidate in sorted-field order.
    """
    field_names = sorted(deltas)
    for name in field_names:
        if name not in TrainConfig.__dataclass_fields__:
            raise ValueError(f"unknown TrainConfig field {name!r}")
        if not deltas[name]:
            raise ValueError(f"empty candidate list for {name!r}")
    candidate_lists = []
    for name in field_names:
        values = list(deltas[name])
        base_value = getattr(base_cfg, name)
        if base_value not in values:
            values.append(base_value)
        candidate_lists.append(values)

    rows: list[tuple[tuple, TrainConfig, SearchRow]] = []
    for combo in product(*candidate_lists):
        overrides = dict(zip(field_names, combo))
        cfg = replace(base_cfg, **overrides)
        result = cross_validate(dataset, cfg, k, encoder=encoder, **train_kwargs)
        n_changed = sum(
            value != getattr(base_cfg, name) for name, value in overrides.items()
        )
        rows.append(
            (combo, cfg, SearchRow(overrides, n_changed, result.mean_score))
        )

    best_combo, best_cfg, best_row = min(
        rows, key=lambda r: (-r[2].mean_score, r[2].n_changed, r[0])
    )
    return SearchResult(
        best_config=best_cfg,
        best_score=best_row.mean_score,
        table=[row for _, _, row in rows],
    )
