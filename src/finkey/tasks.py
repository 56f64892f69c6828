"""Task heads, losses, metrics and prediction operations for the three
pipeline stages.

Stage 1: two-class sentiment softmax over the sentence vector.
Stage 2: entity/text pair matcher, a single sigmoid logit thresholded into a
key-entity decision (focal loss counters the key/non-key imbalance).
Stage 3: question-conditioned span extraction with per-token start/end
scores over the context segment.

One ``Task`` per head kind holds the stage's encoding, logits, training
loss, batched prediction and dev metric; training, the pipeline and the
single-text predictors (batches of one) all go through it.  Training and
prediction take the head's logits from the one ``logits`` method, in its
row-wise form.

Classical baseline heads (Gaussian naive Bayes, logistic regression, linear
SVM) operate on frozen feature vectors and share the binary-label contract.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from .corpus import Document, MrcExample, PairExample, SentimentLabel
from .encoder import (
    EncoderConfig,
    EncoderParams,
    check_config,
    expit,
    forward_inference,
    weight_grad,
)
from .tokenizer import TokenSequence, Vocab, encode_pair, encode_single

DEFAULT_TEMPLATE = "Which company involves {tag}?"
DEFAULT_MAX_SPAN_LEN = 16

# Class-index convention for sentiment logits: column 0 = negative.
NEGATIVE_INDEX = 0
POSITIVE_INDEX = 1


class _Head:
    """Weights ``w*`` of shape (d_model, n_out), or (d_model,) when n_out is
    1, and biases ``b*`` of shape (n_out,)."""

    def named(self):
        for name in self.__dataclass_fields__:
            yield name, getattr(self, name)

    @classmethod
    def shapes(cls, d_model: int) -> dict[str, tuple[int, ...]]:
        w = (d_model, cls.n_out) if cls.n_out > 1 else (d_model,)
        return {name: w if name[0] == "w" else (cls.n_out,) for name in cls.__dataclass_fields__}


@dataclass
class SentimentHead(_Head):
    n_out = 2
    w: np.ndarray  # (d_model, 2)
    b: np.ndarray  # (2,)


@dataclass
class MatchHead(_Head):
    n_out = 1
    w: np.ndarray  # (d_model,)
    b: np.ndarray  # (1,)


@dataclass
class SpanHead(_Head):
    n_out = 1
    w_start: np.ndarray  # (d_model,)
    b_start: np.ndarray  # (1,)
    w_end: np.ndarray  # (d_model,)
    b_end: np.ndarray  # (1,)


def init_head(kind: str, d_model: int, rng: np.random.Generator, dtype=np.float32):
    """A new head of a head kind: weights uniform in
    +-sqrt(6 / (d_model + n_out)), drawn in field order, and zero biases."""
    cls = task_for_head(kind).head_cls
    bound = np.sqrt(6.0 / (d_model + cls.n_out))
    return cls(*(
        rng.uniform(-bound, bound, size=(d_model, cls.n_out)).astype(dtype).reshape(shape)
        if name[0] == "w" else np.zeros(shape, dtype)
        for name, shape in cls.shapes(d_model).items()
    ))


@dataclass(frozen=True)
class FocalConfig:
    """Focusing exponent gamma plus optional positive-class weight alpha."""

    gamma: float = 2.0
    alpha: Optional[float] = None

    def __post_init__(self):
        check_config(self, lambda: [
            ("gamma", self.gamma >= 0, ">= 0"),
            ("alpha", self.alpha is None or 0.0 < self.alpha < 1.0, "in (0, 1)"),
        ])


@dataclass(frozen=True)
class SentimentPrediction:
    label: SentimentLabel
    prob_negative: float


@dataclass(frozen=True)
class SpanPrediction:
    start_token: int
    end_token: int  # inclusive
    text: str


def focal_loss_from_logits(
    logits: np.ndarray, labels: np.ndarray, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-example focal loss -alpha_t * (1 - p_t)^gamma * log(p_t) of
    pre-sigmoid logits and its gradient with respect to the logits.

    alpha_t is alpha for positives and 1 - alpha for negatives, 1 when alpha
    is absent; gamma 0 without alpha is binary cross-entropy.  Uses
    log(sigmoid(z)) = -softplus(-z) so extreme logits do not overflow.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    p = expit(z)
    pos = y == 1
    a = 1.0 if cfg.alpha is None else np.where(pos, cfg.alpha, 1.0 - cfg.alpha)
    g = cfg.gamma
    log_p = -np.logaddexp(0.0, -z)  # log sigmoid(z)
    log_q = -np.logaddexp(0.0, z)  # log (1 - sigmoid(z))
    loss = np.where(
        pos,
        -a * (1.0 - p) ** g * log_p,
        -a * p**g * log_q,
    )
    dz = np.where(
        pos,
        a * g * p * (1.0 - p) ** g * log_p - a * (1.0 - p) ** (g + 1.0),
        -a * g * p**g * (1.0 - p) * log_q + a * p ** (g + 1.0),
    )
    return loss, dz


def build_question(tag: str, template: str = DEFAULT_TEMPLATE) -> str:
    """Substitute the tag into a question template with one {tag} slot."""
    if template.count("{tag}") != 1:
        raise ValueError("template must contain exactly one '{tag}' placeholder")
    return template.replace("{tag}", tag)


def select_span(
    start_scores: np.ndarray,
    end_scores: np.ndarray,
    valid: np.ndarray,
    max_span_len: int,
) -> tuple[int, int]:
    """Best (start, end) pair maximizing start+end score.

    Both positions must be valid, end >= start and the span covers at most
    max_span_len tokens.  Ties resolve to the smallest start, then the
    smallest end (row-major argmax order).
    """
    s = np.asarray(start_scores, dtype=np.float64)
    e = np.asarray(end_scores, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    n = s.shape[0]
    i_idx = np.arange(n)[:, None]
    j_idx = np.arange(n)[None, :]
    allowed = (
        valid[:, None]
        & valid[None, :]
        & (j_idx >= i_idx)
        & (j_idx - i_idx < max_span_len)
    )
    if not allowed.any():
        raise ValueError("no valid span positions")
    grid = s[:, None] + e[None, :]
    grid[~allowed] = -np.inf
    flat = int(np.argmax(grid))
    return flat // n, flat % n


def _context_positions(seq) -> np.ndarray:
    """Mask of segment-1 positions that carry real (offset-bearing) tokens."""
    return np.array(
        [
            seg == 1 and off is not None
            for seg, off in zip(seq.segment_ids, seq.offsets)
        ],
        dtype=bool,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EntityMetrics":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        return cls(tp, fp, fn, precision, recall, f1)

    def to_dict(self) -> dict:
        return asdict(self)


def accuracy(preds: Sequence, golds: Sequence) -> float:
    """Fraction of positions where prediction equals gold."""
    if len(preds) != len(golds):
        raise ValueError("prediction and gold lists differ in length")
    if not golds:
        raise ValueError("cannot compute accuracy of an empty list")
    return sum(p == g for p, g in zip(preds, golds)) / len(golds)


def entity_prf(
    pred_sets: Sequence[Iterable[str]], gold_sets: Sequence[Iterable[str]]
) -> EntityMetrics:
    """Micro-aggregated entity precision/recall/F1 over parallel texts.

    Per text i, TP_i counts correctly recognized entities, FP_i wrongly
    recognized ones and FN_i missed ones; the sums over all texts give
    precision TP/(TP+FP), recall TP/(TP+FN) and their harmonic mean F1, each
    defined as 0 when its denominator vanishes.
    """
    if len(pred_sets) != len(gold_sets):
        raise ValueError("prediction and gold collections differ in length")
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        pred = set(pred)
        gold = set(gold)
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    return EntityMetrics.from_counts(tp, fp, fn)


# ---------------------------------------------------------------------------
# Tasks: encoding, loss, batched prediction and dev metric per head kind
# ---------------------------------------------------------------------------


@dataclass
class Encoded:
    """Task inputs encoded at one max_len, one row per input that encoded,
    in input order.

    ``errors`` maps the position of each input that did not encode to its
    message.  ``gold`` holds the training
    targets when every input carries one: class indices (sentiment), 0/1
    labels (match) or (start, end) token positions (span).  ``valid`` marks
    the context positions of span rows.
    """

    items: list
    seqs: list[TokenSequence]
    ids: np.ndarray  # (n, max_len)
    mask: np.ndarray  # (n, max_len)
    gold: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    def rows(self, sel) -> "Encoded":
        """The rows at positions ``sel``, in that order."""
        return Encoded(
            [self.items[i] for i in sel],
            [self.seqs[i] for i in sel],
            self.ids[sel],
            self.mask[sel],
            None if self.gold is None else self.gold[sel],
            None if self.valid is None else self.valid[sel],
        )


def _log_softmax(scores: np.ndarray, valid=True) -> np.ndarray:
    """Row-wise float64 log-softmax over the valid positions."""
    z = np.where(valid, scores.astype(np.float64), -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class Task:
    """One head kind: how its inputs are encoded, its training loss, its
    batched prediction and its dev metric.

    Training, cross-validation, the pipeline and the single-text predictors
    all go through these operations.  ``logits`` is the one product of
    hidden states with the head's weights: ``loss_and_grad`` (training
    forward's hidden states in; loss, head gradients and gradient on the
    hidden states out) and ``predict`` (the hidden states of one
    ``forward_inference`` group in, one prediction per row out) both call
    it.  It runs the product row by row, so a row's logits do not depend on
    the batch; the elementwise steps after it run over all rows.  A
    ``pooled`` task's head reads the [CLS] row only, so ``run`` asks
    ``forward_inference`` for a pooled forward.
    """

    name: ClassVar[str]
    head_kind: ClassVar[str]
    head_cls: ClassVar[type]
    pooled: ClassVar[bool]

    def segments(self, item) -> tuple[str, ...]:
        """The one or two texts an input is encoded from."""
        raise NotImplementedError

    def target(self, item, seq: TokenSequence):
        """The training target of an encoded input, None if it has none;
        raises ValueError for an input that cannot be used."""
        raise NotImplementedError

    def logits(self, head, hidden):
        """The head's scores of hidden states (B, T, d_model), row by row."""
        raise NotImplementedError

    def encode(self, items: Sequence, vocab: Vocab, max_len: int) -> Encoded:
        kept, seqs, gold, errors = [], [], [], {}
        for i, item in enumerate(items):
            segments = self.segments(item)
            # Looked up in this module at call time, so a wrapper set on
            # finkey.tasks.encode_single/encode_pair sees every tokenizer call.
            encode = encode_single if len(segments) == 1 else encode_pair
            try:
                seq = encode(*segments, vocab, max_len)
                gold.append(self.target(item, seq))
            except ValueError as exc:
                errors[i] = str(exc)
                continue
            kept.append(item)
            seqs.append(seq)
        shape = (len(seqs), max_len)
        return Encoded(
            kept,
            seqs,
            np.array([s.ids for s in seqs], dtype=np.int64).reshape(shape),
            np.array([s.attention_mask for s in seqs], dtype=np.int64).reshape(shape),
            np.array(gold, dtype=np.int64) if None not in gold else None,
            errors=errors,
        )

    def run(self, params: EncoderParams, config: EncoderConfig, head, data: Encoded) -> list:
        """Predictions for encoded inputs, in input order: one inference
        forward, then the head over each group of rows it returns."""
        preds = [None] * data.n
        for rows, hidden in forward_inference(params, config, data.ids, data.mask,
                                              pooled=self.pooled):
            for i, pred in zip(rows.tolist(), self.predict(head, hidden, data.rows(rows))):
                preds[i] = pred
        return preds


@dataclass(frozen=True)
class _PooledTask(Task):
    """A [CLS] head: ``logits`` reads each row's first position, and
    ``_loss(logits, gold)`` gives the per-row losses and their gradient on
    the logits."""

    pooled = True

    def loss_and_grad(self, head, hidden, batch):
        """Mean of ``_loss`` over the rows."""
        n, d = hidden.shape[0], hidden.shape[2]
        losses, dz = self._loss(self.logits(head, hidden), batch.gold)
        dz = (dz / n).astype(hidden.dtype)
        d_hidden = np.zeros_like(hidden)
        d_hidden[:, 0, :] = dz.reshape(n, -1) @ head.w.reshape(d, -1).T
        return float(losses.mean()), {"w": hidden[:, 0, :].T @ dz, "b": dz.sum(axis=0)}, d_hidden


@dataclass(frozen=True)
class SentimentTask(_PooledTask):
    name = "sentiment"
    head_kind = "sentiment"
    head_cls = SentimentHead

    def segments(self, doc: Document):
        return (doc.cleaned_text,)

    def target(self, doc: Document, seq):
        if doc.sentiment is None:
            return None
        return NEGATIVE_INDEX if doc.sentiment is SentimentLabel.NEGATIVE else POSITIVE_INDEX

    def logits(self, head, hidden):
        """(B, 2) class scores of the [CLS] rows."""
        return (hidden[:, :1, :] @ head.w + head.b)[:, 0]

    def _loss(self, logits, gold):
        """Softmax cross-entropy."""
        logp = _log_softmax(logits)
        rows = np.arange(len(gold))
        dz = np.exp(logp)
        dz[rows, gold] -= 1.0
        return -logp[rows, gold], dz

    def predict(self, head, hidden, batch) -> list[SentimentPrediction]:
        """The label is negative exactly when prob_negative >= 0.5."""
        logits = self.logits(head, hidden)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        return [
            SentimentPrediction(
                label=SentimentLabel.NEGATIVE if p >= 0.5 else SentimentLabel.POSITIVE,
                prob_negative=p,
            )
            for p in probs[:, NEGATIVE_INDEX].tolist()
        ]

    def dev_metric(self, preds, data: Encoded) -> float:
        """Accuracy."""
        return accuracy([p.label for p in preds], [doc.sentiment for doc in data.items])


@dataclass(frozen=True)
class MatchTask(_PooledTask):
    name = "match"
    head_kind = "match"
    head_cls = MatchHead
    focal: FocalConfig = FocalConfig(gamma=0.0)  # gamma 0 is binary cross-entropy
    threshold: float = 0.5  # dev metric decision threshold

    def segments(self, ex: PairExample):
        return (ex.entity, ex.text)

    def target(self, ex: PairExample, seq):
        return ex.label

    def logits(self, head, hidden):
        """(B,) key-entity scores of the [CLS] rows."""
        return (hidden[:, :1, :] @ head.w)[:, 0] + head.b[0]

    def _loss(self, logits, gold):
        """Focal loss (``focal_loss_from_logits``)."""
        return focal_loss_from_logits(logits, gold, self.focal)

    def predict(self, head, hidden, batch) -> list[float]:
        """Key-entity probability of each (entity, text) row."""
        return expit(self.logits(head, hidden)).tolist()

    def dev_metric(self, scores, data: Encoded) -> float:
        """Entity F1 over documents, at the decision threshold."""
        pred: dict[str, set] = {}
        gold: dict[str, set] = {}
        for ex, score in zip(data.items, scores):
            pred.setdefault(ex.doc_id, set())
            gold.setdefault(ex.doc_id, set())
            if score >= self.threshold:
                pred[ex.doc_id].add(ex.entity)
            if ex.label == 1:
                gold[ex.doc_id].add(ex.entity)
        return entity_prf(list(pred.values()), list(gold.values())).f1


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


@dataclass(frozen=True)
class SpanTask(Task):
    name = "mrc"
    head_kind = "span"
    head_cls = SpanHead
    pooled = False
    max_span_len: int = DEFAULT_MAX_SPAN_LEN

    def __post_init__(self):
        if self.max_span_len < 1:
            raise ValueError("max_span_len must be >= 1")

    def segments(self, ex: MrcExample):
        return (ex.question, ex.context)

    def target(self, ex: MrcExample, seq):
        if ex.answer is None:
            if not _context_positions(seq).any():
                raise ValueError("context empty after truncation")
            return None
        span = _token_span(seq, *ex.answer)
        if span is None:
            raise ValueError("answer outside the truncated context")
        return span

    def encode(self, items, vocab, max_len) -> Encoded:
        data = super().encode(items, vocab, max_len)
        data.valid = np.array(
            [_context_positions(s) for s in data.seqs], dtype=bool
        ).reshape(data.n, max_len)
        return data

    def logits(self, head, hidden):
        """(start, end) scores of every position, each of hidden's shape
        without its last axis."""
        return hidden @ head.w_start + head.b_start[0], hidden @ head.w_end + head.b_end[0]

    def loss_and_grad(self, head, hidden, batch):
        """Mean of the start and end cross-entropies, each softmax taken over
        the row's valid context positions only."""
        n = hidden.shape[0]
        rows = np.arange(n)
        d_hidden = np.zeros_like(hidden)
        head_grads = {}
        loss = 0.0
        for which, scores, gold in zip(("start", "end"), self.logits(head, hidden), batch.gold.T):
            logp = _log_softmax(scores, batch.valid)
            loss += float(-0.5 * logp[rows, gold].mean())
            d_scores = np.exp(logp)
            d_scores[rows, gold] -= 1.0
            d_scores *= 0.5 / n
            d_scores = d_scores.astype(hidden.dtype)
            head_grads["w_" + which] = weight_grad(hidden, d_scores[..., None])[:, 0]
            head_grads["b_" + which] = np.array([d_scores.sum()], dtype=hidden.dtype)
            d_hidden += d_scores[:, :, None] * getattr(head, "w_" + which)[None, None, :]
        return loss, head_grads, d_hidden

    def predict(self, head, hidden, batch) -> list[SpanPrediction]:
        """The best span of each row, scored over the hidden states' t
        positions."""
        t = hidden.shape[1]
        out = []
        for k, (ex, seq) in enumerate(zip(batch.items, batch.seqs)):
            i, j = select_span(
                *self.logits(head, hidden[k]), batch.valid[k, :t], self.max_span_len
            )
            text = ex.context[seq.offsets[i][0] : seq.offsets[j][1]]
            out.append(SpanPrediction(start_token=i, end_token=j, text=text))
        return out

    def dev_metric(self, preds, data: Encoded) -> float:
        """Exact-match rate of the span texts."""
        hits = sum(
            p.text == ex.context[ex.answer[0] : ex.answer[1]]
            for p, ex in zip(preds, data.items)
        )
        return hits / data.n


TASKS = {cls.name: cls for cls in (SentimentTask, MatchTask, SpanTask)}


def task_for_head(kind: str) -> type[Task]:
    for cls in TASKS.values():
        if cls.head_kind == kind:
            return cls
    raise ValueError(f"unknown head kind {kind!r}")


def _predict_one(task: Task, params, config, vocab, head, item):
    data = task.encode([item], vocab, config.max_len)
    if data.errors:
        raise ValueError(data.errors[0])
    return task.run(params, config, head, data)[0]


def predict_sentiment(
    params: EncoderParams, config: EncoderConfig, vocab: Vocab, head: SentimentHead, text: str
) -> SentimentPrediction:
    """Single-text sentiment prediction, a batch of one."""
    return _predict_one(SentimentTask(), params, config, vocab, head, Document("", text, text))


def score_entity(
    params: EncoderParams, config: EncoderConfig, vocab: Vocab, head: MatchHead,
    entity: str, text: str,
) -> float:
    """Key-entity probability for one (entity, text) pair, a batch of one."""
    return _predict_one(MatchTask(), params, config, vocab, head, PairExample("", entity, text))


def extract_span(
    params: EncoderParams, config: EncoderConfig, vocab: Vocab, head: SpanHead,
    question: str, context: str, max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> SpanPrediction:
    """Best answer span in the context for the question, a batch of one."""
    task = SpanTask(max_span_len=max_span_len)
    return _predict_one(task, params, config, vocab, head, MrcExample("", question, context))


# ---------------------------------------------------------------------------
# Classical baseline heads over frozen feature vectors
# ---------------------------------------------------------------------------


@dataclass
class NbmClassifier:
    log_prior: np.ndarray  # (2,)
    means: np.ndarray  # (2, d)
    variances: np.ndarray  # (2, d), floored


@dataclass
class LinearClassifier:
    kind: str  # "lr" | "svm"
    w: np.ndarray
    b: float


_VAR_FLOOR = 1e-9


def _check_training_data(vectors: np.ndarray, labels: np.ndarray):
    if vectors.ndim != 2:
        raise ValueError("vectors must be 2-D (n, d)")
    if labels.shape[0] != vectors.shape[0]:
        raise ValueError("labels length must match vectors")
    classes = np.unique(labels)
    if not np.array_equal(classes, np.array([0, 1])):
        raise ValueError("training set must contain both classes 0 and 1")


def classical_fit(
    kind: str,
    vectors,
    labels,
    *,
    epochs: int = 500,
    learning_rate: float = 0.5,
    l2: float = 1e-3,
):
    """Fit a baseline classifier on feature vectors with binary labels.

    "nbm" is Gaussian naive Bayes with a variance floor; "lr" is logistic
    regression and "svm" a linear hinge-loss classifier with L2 penalty,
    both trained by deterministic full-batch gradient descent from zero
    initialization.
    """
    x = np.asarray(vectors, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    _check_training_data(x, y)
    if kind == "nbm":
        prior = np.array([(y == c).mean() for c in (0, 1)])
        means = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
        variances = np.stack([x[y == c].var(axis=0) for c in (0, 1)])
        variances = np.maximum(variances, _VAR_FLOOR)
        return NbmClassifier(np.log(prior), means, variances)
    if kind == "lr":
        w = np.zeros(x.shape[1])
        b = 0.0
        n = x.shape[0]
        for _ in range(epochs):
            z = x @ w + b
            resid = expit(z) - y
            w -= learning_rate * (x.T @ resid) / n
            b -= learning_rate * resid.mean()
        return LinearClassifier("lr", w, b)
    if kind == "svm":
        w = np.zeros(x.shape[1])
        b = 0.0
        n = x.shape[0]
        sign = 2.0 * y - 1.0
        for _ in range(epochs):
            margin = sign * (x @ w + b)
            active = margin < 1.0
            d_w = -(x * (sign * active)[:, None]).sum(axis=0) / n + 2.0 * l2 * w
            d_b = -(sign * active).sum() / n
            w -= learning_rate * d_w
            b -= learning_rate * d_b
        return LinearClassifier("svm", w, b)
    raise ValueError(f"unknown classifier kind {kind!r}")


def classical_predict(classifier, vector) -> int:
    """Predicted class (0 or 1) for one feature vector."""
    x = np.asarray(vector, dtype=np.float64)
    if isinstance(classifier, NbmClassifier):
        log_lik = -0.5 * (
            np.log(2.0 * np.pi * classifier.variances)
            + (x - classifier.means) ** 2 / classifier.variances
        ).sum(axis=1)
        return int(np.argmax(classifier.log_prior + log_lik))
    if isinstance(classifier, LinearClassifier):
        return int(x @ classifier.w + classifier.b > 0.0)
    raise TypeError(f"unsupported classifier {type(classifier)!r}")
