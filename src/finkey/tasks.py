"""Task heads, losses and prediction operations for the three pipeline stages.

Stage 1: two-class sentiment softmax over the sentence vector.
Stage 2: entity/text pair matcher, a single sigmoid logit thresholded into a
key-entity decision (focal loss counters the key/non-key imbalance).
Stage 3: question-conditioned span extraction with per-token start/end
scores over the context segment.

Classical baseline heads (Gaussian naive Bayes, logistic regression, linear
SVM) operate on frozen feature vectors and share the binary-label contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .corpus import SentimentLabel
from .encoder import (
    EncoderConfig,
    EncoderParams,
    forward_trimmed,
)
from .tokenizer import TokenSequence, Vocab, encode_pair, encode_single

DEFAULT_TEMPLATE = "Which company involves {tag}?"
DEFAULT_MAX_SPAN_LEN = 16

# Class-index convention for sentiment logits: column 0 = negative.
NEGATIVE_INDEX = 0
POSITIVE_INDEX = 1


@dataclass
class SentimentHead:
    w: np.ndarray  # (d_model, 2)
    b: np.ndarray  # (2,)

    def named(self):
        yield "w", self.w
        yield "b", self.b


@dataclass
class MatchHead:
    w: np.ndarray  # (d_model,)
    b: np.ndarray  # (1,)

    def named(self):
        yield "w", self.w
        yield "b", self.b


@dataclass
class SpanHead:
    w_start: np.ndarray  # (d_model,)
    b_start: np.ndarray  # (1,)
    w_end: np.ndarray  # (d_model,)
    b_end: np.ndarray  # (1,)

    def named(self):
        yield "w_start", self.w_start
        yield "b_start", self.b_start
        yield "w_end", self.w_end
        yield "b_end", self.b_end


def _head_vec(rng: np.random.Generator, d_model: int, n_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (d_model + n_out))
    out = rng.uniform(-bound, bound, size=(d_model, n_out)).astype(dtype)
    return out if n_out > 1 else out[:, 0]


def init_head(kind: str, d_model: int, rng: np.random.Generator, dtype=np.float32):
    if kind == "sentiment":
        return SentimentHead(w=_head_vec(rng, d_model, 2, dtype), b=np.zeros(2, dtype))
    if kind == "match":
        return MatchHead(w=_head_vec(rng, d_model, 1, dtype), b=np.zeros(1, dtype))
    if kind == "span":
        return SpanHead(
            w_start=_head_vec(rng, d_model, 1, dtype),
            b_start=np.zeros(1, dtype),
            w_end=_head_vec(rng, d_model, 1, dtype),
            b_end=np.zeros(1, dtype),
        )
    raise ValueError(f"unknown head kind {kind!r}")


@dataclass(frozen=True)
class FocalConfig:
    """Focusing exponent gamma plus optional positive-class weight alpha."""

    gamma: float = 2.0
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SentimentPrediction:
    label: SentimentLabel
    prob_negative: float


@dataclass(frozen=True)
class MatchPrediction:
    entity: str
    score: float
    is_key: bool


@dataclass(frozen=True)
class SpanPrediction:
    start_token: int
    end_token: int  # inclusive
    text: str


def cross_entropy(logits: np.ndarray, gold: int) -> tuple[float, np.ndarray]:
    """Negative log softmax at the gold index, plus the logit gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= gold < logits.shape[-1]:
        raise ValueError("gold index out of range")
    z = logits - logits.max()
    lse = np.log(np.exp(z).sum())
    loss = lse - z[gold]
    grad = np.exp(z - lse)
    grad[gold] -= 1.0
    return float(loss), grad


def _alpha_t(cfg: FocalConfig, y: int) -> float:
    if cfg.alpha is None:
        return 1.0
    return cfg.alpha if y == 1 else 1.0 - cfg.alpha


def focal_loss(p: float, y: int, cfg: FocalConfig) -> tuple[float, float]:
    """Focal loss -alpha_t * (1 - p_t)^gamma * log(p_t) for one example.

    ``p`` is the predicted probability of the positive class; the returned
    gradient is taken with respect to the pre-sigmoid logit.  gamma = 0 with
    alpha absent reduces to binary cross-entropy.
    """
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    a = _alpha_t(cfg, y)
    g = cfg.gamma
    if y == 1:
        loss = -a * (1.0 - p) ** g * np.log(p)
        dz = a * g * p * (1.0 - p) ** g * np.log(p) - a * (1.0 - p) ** (g + 1.0)
    else:
        loss = -a * p**g * np.log1p(-p)
        dz = -a * g * p**g * (1.0 - p) * np.log1p(-p) + a * p ** (g + 1.0)
    return float(loss), float(dz)


def focal_loss_from_logits(
    logits: np.ndarray, labels: np.ndarray, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized focal loss computed stably from pre-sigmoid logits.

    Uses log(sigmoid(z)) = -softplus(-z) so extreme logits do not overflow.
    Returns per-example losses and gradients w.r.t. the logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    p = expit(z)
    pos = y == 1
    a = np.where(pos, _alpha_t(cfg, 1), _alpha_t(cfg, 0))
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


def predict_sentiment(
    params: EncoderParams,
    config: EncoderConfig,
    vocab: Vocab,
    head: SentimentHead,
    text: str,
    seq: Optional[TokenSequence] = None,
) -> SentimentPrediction:
    """Deterministic single-text sentiment prediction.

    The label is negative exactly when prob_negative >= 0.5.  ``seq`` may
    hold the text already encoded with ``vocab`` at ``config.max_len``.
    """
    if seq is None:
        seq = encode_single(text, vocab, config.max_len)
    pooled = forward_trimmed(params, config, seq).sentence_vec
    logits = pooled @ head.w + head.b
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    prob_negative = float(probs[NEGATIVE_INDEX])
    label = (
        SentimentLabel.NEGATIVE if prob_negative >= 0.5 else SentimentLabel.POSITIVE
    )
    return SentimentPrediction(label=label, prob_negative=prob_negative)


def score_entity(
    params: EncoderParams,
    config: EncoderConfig,
    vocab: Vocab,
    head: MatchHead,
    entity: str,
    text: str,
    seq: Optional[TokenSequence] = None,
) -> float:
    """Key-entity probability for one (entity, text) pair.

    ``seq`` may hold the pair already encoded with ``vocab`` at
    ``config.max_len``.
    """
    if seq is None:
        seq = encode_pair(entity, text, vocab, config.max_len)
    pooled = forward_trimmed(params, config, seq).sentence_vec
    return float(expit(pooled @ head.w + head.b[0]))


def entity_score(item) -> tuple[str, float]:
    """Normalize a MatchPrediction or an (entity, score) pair."""
    if isinstance(item, MatchPrediction):
        return item.entity, item.score
    entity, score = item
    return entity, score


def detect_key_entities(scored: Sequence, threshold: float) -> list[str]:
    """Entities whose score reaches the threshold, in input order.

    ``scored`` holds MatchPrediction objects or (entity, score) pairs.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return [
        entity
        for entity, score in (entity_score(item) for item in scored)
        if score >= threshold
    ]


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
    if max_span_len < 1:
        raise ValueError("max_span_len must be >= 1")
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
    grid = np.where(allowed, s[:, None] + e[None, :], -np.inf)
    flat = int(np.argmax(grid))
    return flat // n, flat % n


def extract_span(
    params: EncoderParams,
    config: EncoderConfig,
    vocab: Vocab,
    head: SpanHead,
    question: str,
    context: str,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
) -> SpanPrediction:
    """Extract the best answer span from the context for the question."""
    seq = encode_pair(question, context, vocab, config.max_len)
    valid = _context_positions(seq)
    if not valid.any():
        raise ValueError("context empty after truncation")
    hidden = forward_trimmed(params, config, seq).token_vecs
    s = hidden @ head.w_start + head.b_start[0]
    e = hidden @ head.w_end + head.b_end[0]
    i, j = select_span(s, e, valid[: hidden.shape[0]], max_span_len)
    text = context[seq.offsets[i][0] : seq.offsets[j][1]]
    return SpanPrediction(start_token=i, end_token=j, text=text)


def _context_positions(seq) -> np.ndarray:
    """Mask of segment-1 positions that carry real (offset-bearing) tokens."""
    return np.array(
        [
            seg == 1 and off is not None
            for seg, off in zip(seq.segment_ids, seq.offsets)
        ],
        dtype=bool,
    )


def span_loss(
    start_scores: np.ndarray,
    end_scores: np.ndarray,
    valid: np.ndarray,
    gold_start: int,
    gold_end: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean start/end cross-entropy over the valid context positions.

    Softmax normalization runs over valid positions only; gradients at
    invalid positions are zero.  Returns (loss, d_start, d_end).
    """
    valid = np.asarray(valid, dtype=bool)
    idx = np.nonzero(valid)[0]
    if idx.size == 0:
        raise ValueError("no valid positions for span loss")
    if not (valid[gold_start] and valid[gold_end]):
        raise ValueError("gold span outside the valid context positions")
    pos_of = {int(p): k for k, p in enumerate(idx)}
    losses = []
    grads = []
    for scores, gold in ((start_scores, gold_start), (end_scores, gold_end)):
        loss, g_local = cross_entropy(np.asarray(scores)[idx], pos_of[gold])
        g = np.zeros(len(scores), dtype=np.float64)
        g[idx] = 0.5 * g_local
        losses.append(loss)
        grads.append(g)
    return 0.5 * (losses[0] + losses[1]), grads[0], grads[1]


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
