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
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import expit

from .corpus import Document, MrcExample, PairExample, SentimentLabel
from .encoder import (
    EncoderConfig,
    EncoderParams,
    LayerParams,
    backward_batch,
    forward_batch,
    forward_inference,
    init_params,
)
from .tasks import (
    FocalConfig,
    MatchHead,
    SentimentHead,
    SpanHead,
    SpanPrediction,
    extract_span,
    focal_loss_from_logits,
    init_head,
    predict_sentiment,
    score_entity,
    select_span,
)
from .tokenizer import TokenSequence, Vocab, encode_pair, encode_single, vocab_from_texts

logger = logging.getLogger(__name__)

TASKS = ("sentiment", "match", "mrc")


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
            raise ValueError(f"task must be one of {TASKS}")
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
        out = {
            "task": self.task,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "adam_eps": self.adam_eps,
            "seed": self.seed,
            "max_len": self.max_len,
            "loss": self.loss,
            "focal": None
            if self.focal is None
            else {"gamma": self.focal.gamma, "alpha": self.focal.alpha},
            "threshold": self.threshold,
            "clip_norm": self.clip_norm,
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        focal = data.get("focal")
        if focal is not None:
            data["focal"] = FocalConfig(**focal)
        return cls(**data)


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint index folds covering 0..n-1 with sizes differing by <= 1."""

    folds: tuple[tuple[int, ...], ...]


def kfold_split(n: int, k: int, seed: int) -> FoldSplit:
    """Shuffle 0..n-1 with the seed and deal the indices round-robin."""
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return FoldSplit(tuple(tuple(int(i) for i in perm[f::k]) for f in range(k)))


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
# Dataset encoding
# ---------------------------------------------------------------------------


@dataclass
class _Encoded:
    ids: np.ndarray  # (n, max_len)
    mask: np.ndarray  # (n, max_len)
    labels: Optional[np.ndarray] = None  # sentiment/match
    doc_ids: Optional[list[str]] = None  # match grouping
    entities: Optional[list[str]] = None  # match grouping
    gold_start: Optional[np.ndarray] = None  # mrc
    gold_end: Optional[np.ndarray] = None  # mrc
    valid: Optional[np.ndarray] = None  # mrc (n, max_len) bool
    seqs: Optional[list[TokenSequence]] = None  # mrc span recovery
    examples: Optional[list] = None  # mrc originals
    n_skipped: int = 0

    @property
    def n(self) -> int:
        return self.ids.shape[0]


def _stack(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    mask = np.array([s.attention_mask for s in seqs], dtype=np.int64)
    return ids, mask


_SENTIMENT_INDEX = {SentimentLabel.NEGATIVE: 0, SentimentLabel.POSITIVE: 1}


def _encode_sentiment(docs: list[Document], vocab: Vocab, max_len: int) -> _Encoded:
    seqs, labels = [], []
    for doc in docs:
        if doc.sentiment is None:
            raise ValueError(f"document {doc.id!r} has no sentiment label")
        seqs.append(encode_single(doc.cleaned_text, vocab, max_len))
        labels.append(_SENTIMENT_INDEX[doc.sentiment])
    ids, mask = _stack(seqs)
    return _Encoded(ids, mask, labels=np.array(labels, dtype=np.int64))


def _encode_match(pairs: list[PairExample], vocab: Vocab, max_len: int) -> _Encoded:
    seqs, labels, doc_ids, entities = [], [], [], []
    for ex in pairs:
        if ex.label is None:
            raise ValueError(f"pair for doc {ex.doc_id!r} has no label")
        seqs.append(encode_pair(ex.entity, ex.text, vocab, max_len))
        labels.append(ex.label)
        doc_ids.append(ex.doc_id)
        entities.append(ex.entity)
    ids, mask = _stack(seqs)
    return _Encoded(
        ids, mask,
        labels=np.array(labels, dtype=np.int64),
        doc_ids=doc_ids,
        entities=entities,
    )


def _token_span(seq: TokenSequence, start_char: int, end_char: int):
    start_tok = end_tok = None
    for pos, (seg, off) in enumerate(zip(seq.segment_ids, seq.offsets)):
        if seg != 1 or off is None:
            continue
        if off[0] <= start_char < off[1]:
            start_tok = pos
        if off[0] < end_char <= off[1]:
            end_tok = pos
    if start_tok is None or end_tok is None or end_tok < start_tok:
        return None
    return start_tok, end_tok


def _encode_mrc(examples: list[MrcExample], vocab: Vocab, max_len: int) -> _Encoded:
    seqs, starts, ends, kept = [], [], [], []
    skipped = 0
    for ex in examples:
        if ex.answer is None:
            raise ValueError(f"mrc example for doc {ex.doc_id!r} has no answer")
        seq = encode_pair(ex.question, ex.context, vocab, max_len)
        span = _token_span(seq, *ex.answer)
        if span is None:
            skipped += 1
            continue
        seqs.append(seq)
        starts.append(span[0])
        ends.append(span[1])
        kept.append(ex)
    if skipped:
        logger.warning("mrc encoding: skipped %d examples whose answer fell outside the truncated context", skipped)
    if not seqs:
        raise ValueError("no usable mrc examples after encoding")
    ids, mask = _stack(seqs)
    valid = np.array(
        [
            [seg == 1 and off is not None for seg, off in zip(s.segment_ids, s.offsets)]
            for s in seqs
        ],
        dtype=bool,
    )
    return _Encoded(
        ids, mask,
        gold_start=np.array(starts, dtype=np.int64),
        gold_end=np.array(ends, dtype=np.int64),
        valid=valid,
        seqs=seqs,
        examples=kept,
        n_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Batch steps (loss + gradients) per task
# ---------------------------------------------------------------------------


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _sentiment_step(params, head, enc_cfg, ids, mask, gold, training, rng):
    cache: dict = {}
    hidden = forward_batch(params, enc_cfg, ids, mask, training=training, rng=rng, cache=cache)
    pooled = hidden[:, 0, :]
    logits = pooled @ head.w + head.b
    logp = _log_softmax_rows(logits.astype(np.float64))
    rows = np.arange(ids.shape[0])
    loss = float(-logp[rows, gold].mean())
    dlogits = np.exp(logp)
    dlogits[rows, gold] -= 1.0
    dlogits /= ids.shape[0]
    dlogits = dlogits.astype(enc_cfg.np_dtype)
    head_grads = {"w": pooled.T @ dlogits, "b": dlogits.sum(axis=0)}
    d_hidden = np.zeros_like(hidden)
    d_hidden[:, 0, :] = dlogits @ head.w.T
    return loss, backward_batch(params, enc_cfg, cache, d_hidden), head_grads


def _match_step(params, head, enc_cfg, ids, mask, gold, focal_cfg, training, rng):
    cache: dict = {}
    hidden = forward_batch(params, enc_cfg, ids, mask, training=training, rng=rng, cache=cache)
    pooled = hidden[:, 0, :]
    z = pooled @ head.w + head.b[0]
    losses, dz = focal_loss_from_logits(z, gold, focal_cfg)
    loss = float(losses.mean())
    dz = (dz / ids.shape[0]).astype(enc_cfg.np_dtype)
    head_grads = {"w": pooled.T @ dz, "b": np.array([dz.sum()], dtype=enc_cfg.np_dtype)}
    d_hidden = np.zeros_like(hidden)
    d_hidden[:, 0, :] = dz[:, None] * head.w[None, :]
    return loss, backward_batch(params, enc_cfg, cache, d_hidden), head_grads


def _masked_log_softmax(scores: np.ndarray, valid: np.ndarray) -> np.ndarray:
    z = np.where(valid, scores.astype(np.float64), -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z - np.log(e.sum(axis=-1, keepdims=True))


def _mrc_step(params, head, enc_cfg, ids, mask, valid, gold_s, gold_e, training, rng):
    cache: dict = {}
    hidden = forward_batch(params, enc_cfg, ids, mask, training=training, rng=rng, cache=cache)
    n = ids.shape[0]
    rows = np.arange(n)
    d_hidden = np.zeros_like(hidden)
    head_grads = {}
    loss = 0.0
    for scores_w, scores_b, gold, w_name, b_name in (
        (head.w_start, head.b_start, gold_s, "w_start", "b_start"),
        (head.w_end, head.b_end, gold_e, "w_end", "b_end"),
    ):
        scores = hidden @ scores_w + scores_b[0]
        logp = _masked_log_softmax(scores, valid)
        loss += float(-0.5 * logp[rows, gold].mean())
        d_scores = np.exp(logp)
        d_scores[rows, gold] -= 1.0
        d_scores *= 0.5 / n
        d_scores = d_scores.astype(enc_cfg.np_dtype)
        head_grads[w_name] = np.einsum("btd,bt->d", hidden, d_scores)
        head_grads[b_name] = np.array([d_scores.sum()], dtype=enc_cfg.np_dtype)
        d_hidden += d_scores[:, :, None] * scores_w[None, None, :]
    return loss, backward_batch(params, enc_cfg, cache, d_hidden), head_grads


# ---------------------------------------------------------------------------
# Dev metrics
# ---------------------------------------------------------------------------


def _dev_sentiment(params, head, enc_cfg, data: _Encoded) -> float:
    pooled = forward_inference(params, enc_cfg, data.ids, data.mask)[:, 0, :]
    logits = pooled @ head.w + head.b
    pred = np.where(logits[:, 0] >= logits[:, 1], 0, 1)
    return float((pred == data.labels).mean())


def _dev_match_f1(params, head, enc_cfg, data: _Encoded, threshold: float) -> float:
    from .evaluation import entity_prf

    pooled = forward_inference(params, enc_cfg, data.ids, data.mask)[:, 0, :]
    scores = expit(pooled @ head.w + head.b[0])
    pred_by_doc: dict[str, set] = {}
    gold_by_doc: dict[str, set] = {}
    order: list[str] = []
    for doc_id, entity, score, label in zip(
        data.doc_ids, data.entities, scores, data.labels
    ):
        if doc_id not in pred_by_doc:
            pred_by_doc[doc_id] = set()
            gold_by_doc[doc_id] = set()
            order.append(doc_id)
        if score >= threshold:
            pred_by_doc[doc_id].add(entity)
        if label == 1:
            gold_by_doc[doc_id].add(entity)
    metrics = entity_prf(
        [pred_by_doc[d] for d in order], [gold_by_doc[d] for d in order]
    )
    return metrics.f1


def _dev_mrc_exact_match(params, head, enc_cfg, data: _Encoded, max_span_len: int) -> float:
    hidden = forward_inference(params, enc_cfg, data.ids, data.mask)
    s = hidden @ head.w_start + head.b_start[0]
    e = hidden @ head.w_end + head.b_end[0]
    valid = data.valid[:, : hidden.shape[1]]
    hits = 0
    for i, (seq, ex) in enumerate(zip(data.seqs, data.examples)):
        si, sj = select_span(s[i], e[i], valid[i], max_span_len)
        text = ex.context[seq.offsets[si][0] : seq.offsets[sj][1]]
        gold = ex.context[ex.answer[0] : ex.answer[1]]
        hits += int(text == gold)
    return hits / data.n


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_HEAD_KINDS = {"sentiment": SentimentHead, "match": MatchHead, "span": SpanHead}
_TASK_HEAD = {"sentiment": "sentiment", "match": "match", "mrc": "span"}

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

    def predict_sentiment(self, text: str, seq: Optional[TokenSequence] = None):
        if self.head_kind != "sentiment":
            raise ValueError("not a sentiment checkpoint")
        return predict_sentiment(
            self.encoder_params, self.encoder_config, self.vocab, self.head, text, seq
        )

    def score_entity(self, entity: str, text: str, seq: Optional[TokenSequence] = None) -> float:
        if self.head_kind != "match":
            raise ValueError("not a match checkpoint")
        return score_entity(
            self.encoder_params, self.encoder_config, self.vocab, self.head, entity, text, seq
        )

    def extract_span(self, question: str, context: str, max_span_len: int = 16) -> SpanPrediction:
        if self.head_kind != "span":
            raise ValueError("not a span checkpoint")
        return extract_span(
            self.encoder_params,
            self.encoder_config,
            self.vocab,
            self.head,
            question,
            context,
            max_span_len,
        )


def _named_tensors(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = [(f"encoder.{n}", a) for n, a in ckpt.encoder_params.named()]
    out += [(f"head.{n}", a) for n, a in ckpt.head.named()]
    return out


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Serialize to the versioned binary layout (see README); bit-exact."""
    tensors = _named_tensors(ckpt)
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
    with Path(path).open("wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr).tobytes())


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
    head_cls = _HEAD_KINDS[head_kind]
    head = head_cls(
        **{
            name: tensors[f"head.{name}"]
            for name in head_cls.__dataclass_fields__
        }
    )
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


def _dataset_texts(dataset, task: str):
    if task == "sentiment":
        return (doc.cleaned_text for doc in dataset)
    if task == "match":
        return (t for ex in dataset for t in (ex.entity, ex.text))
    return (t for ex in dataset for t in (ex.question, ex.context))


def _encode_dataset(dataset, task, vocab, max_len) -> _Encoded:
    if task == "sentiment":
        return _encode_sentiment(dataset, vocab, max_len)
    if task == "match":
        return _encode_match(dataset, vocab, max_len)
    return _encode_mrc(dataset, vocab, max_len)


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
    if vocab is None:
        vocab = vocab_from_texts(
            _dataset_texts(train_set, cfg.task),
            min_freq=vocab_min_freq,
            max_size=vocab_max_size,
        )
    if encoder is None:
        encoder = EncoderConfig(vocab_size=vocab.size, max_len=cfg.max_len)
    enc_cfg = replace(encoder, vocab_size=vocab.size, max_len=cfg.max_len)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(enc_cfg, cfg.seed)
    head_kind = _TASK_HEAD[cfg.task]
    head = init_head(head_kind, enc_cfg.d_model, rng, enc_cfg.np_dtype)

    train_data = _encode_dataset(train_set, cfg.task, vocab, cfg.max_len)
    dev_data = _encode_dataset(dev_set, cfg.task, vocab, cfg.max_len)

    flat_params = {f"encoder.{n}": a for n, a in params.named()}
    flat_params.update({f"head.{n}": a for n, a in head.named()})
    adam = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    focal_cfg = cfg.focal_config()

    def dev_score() -> float:
        if cfg.task == "sentiment":
            return _dev_sentiment(params, head, enc_cfg, dev_data)
        if cfg.task == "match":
            return _dev_match_f1(params, head, enc_cfg, dev_data, cfg.threshold)
        return _dev_mrc_exact_match(params, head, enc_cfg, dev_data, max_span_len)

    best_score = -1.0
    best_params = None
    best_head = None
    epoch_losses: list[float] = []
    epoch_scores: list[float] = []
    n = train_data.n

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            sel = order[start : start + cfg.batch_size]
            ids = train_data.ids[sel]
            mask = train_data.mask[sel]
            if cfg.task == "sentiment":
                loss, enc_grads, head_grads = _sentiment_step(
                    params, head, enc_cfg, ids, mask, train_data.labels[sel], True, rng
                )
            elif cfg.task == "match":
                loss, enc_grads, head_grads = _match_step(
                    params, head, enc_cfg, ids, mask, train_data.labels[sel],
                    focal_cfg, True, rng,
                )
            else:
                loss, enc_grads, head_grads = _mrc_step(
                    params, head, enc_cfg, ids, mask, train_data.valid[sel],
                    train_data.gold_start[sel], train_data.gold_end[sel], True, rng,
                )
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch} at batch {bi}"
                )
            flat_grads = {f"encoder.{g}": a for g, a in enc_grads.named()}
            flat_grads.update({f"head.{g}": a for g, a in head_grads.items()})
            clip_by_global_norm(flat_grads, cfg.clip_norm)
            adam.step(flat_params, flat_grads)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
        score = dev_score()
        epoch_scores.append(score)
        if score > best_score:
            best_score = score
            best_params = params.copy()
            best_head = copy.deepcopy(head)

    ckpt = Checkpoint(
        encoder_params=best_params,
        encoder_config=enc_cfg,
        head=best_head,
        head_kind=head_kind,
        vocab=vocab,
        train_config=cfg,
        dev_score=best_score,
        seed=cfg.seed,
    )
    return TrainResult(
        checkpoint=ckpt,
        epoch_losses=epoch_losses,
        epoch_dev_scores=epoch_scores,
        n_train_skipped=train_data.n_skipped,
        n_dev_skipped=dev_data.n_skipped,
    )


@dataclass
class CrossValResult:
    fold_scores: list[float]
    mean_score: float


def cross_validate(
    dataset, cfg: TrainConfig, k: int, encoder: Optional[EncoderConfig] = None, **train_kwargs
) -> CrossValResult:
    """k-fold cross-validation: each fold is held out once as the dev set."""
    split = kfold_split(len(dataset), k, cfg.seed)
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
