"""Evaluation metrics, seed ensembles with voting, and pipeline assembly.

Entity detection is scored with micro-aggregated entity counts: per text i,
TP_i counts correctly recognized entities, FP_i wrongly recognized ones and
FN_i missed ones; the sums over all texts give precision TP/(TP+FP), recall
TP/(TP+FN) and their harmonic mean F1, each defined as 0 when its
denominator vanishes.

Ensembles train one model per seed, keep the top scorers on the dev set and
combine member predictions by majority vote.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from . import tasks
from .corpus import Document, Lexicon, SentimentLabel, rule_match_entities
from .tasks import (
    DEFAULT_MAX_SPAN_LEN,
    DEFAULT_TEMPLATE,
    SentimentPrediction,
    build_question,
    entity_score,
)
from .training import Checkpoint, EncoderConfig, TrainConfig, train


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
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


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
    """Micro-aggregated entity precision/recall/F1 over parallel texts."""
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


@dataclass(frozen=True)
class EnsembleSpec:
    """Distinct training seeds plus how many top scorers to keep."""

    seeds: tuple[int, ...]
    top_m: int = 10

    def __post_init__(self):
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("ensemble seeds must be distinct")
        if not 1 <= self.top_m <= len(self.seeds):
            raise ValueError("need 1 <= top_m <= number of seeds")


def ensemble_train_select(
    train_set,
    dev_set,
    base_cfg: TrainConfig,
    spec: EnsembleSpec,
    encoder: Optional[EncoderConfig] = None,
    **train_kwargs,
) -> list[Checkpoint]:
    """Train one model per seed and return the top_m by dev score.

    Members are sorted by dev score descending with ties going to the
    smaller seed, so the selection is deterministic.
    """
    checkpoints = []
    for seed in spec.seeds:
        cfg = replace(base_cfg, seed=seed)
        checkpoints.append(train(train_set, dev_set, cfg, encoder=encoder, **train_kwargs).checkpoint)
    checkpoints.sort(key=lambda c: (-c.dev_score, c.seed))
    return checkpoints[: spec.top_m]


def vote_sentiment(members: Sequence[SentimentPrediction]) -> SentimentPrediction:
    """Majority vote; exact ties fall back to the mean negative probability.

    The voted probability is always the member mean, so a voted prediction
    may pair a majority label with a mean probability on the other side of
    0.5 (the per-member 0.5 rule applies to single models only).
    """
    if not members:
        raise ValueError("cannot vote over an empty member list")
    n_negative = sum(m.label is SentimentLabel.NEGATIVE for m in members)
    n_positive = len(members) - n_negative
    mean_prob = sum(m.prob_negative for m in members) / len(members)
    if n_negative > n_positive:
        label = SentimentLabel.NEGATIVE
    elif n_positive > n_negative:
        label = SentimentLabel.POSITIVE
    else:
        label = SentimentLabel.NEGATIVE if mean_prob >= 0.5 else SentimentLabel.POSITIVE
    return SentimentPrediction(label=label, prob_negative=mean_prob)


def vote_key_entities(
    member_scores: Sequence[Sequence], score_threshold: float
) -> list[str]:
    """Entities marked key by a strict majority of ensemble members.

    Each member contributes one scored pass over the same entity list; an
    entity is kept when more than half of the members score it at or above
    the threshold.  Output preserves the entity-list order.
    """
    if not 0.0 <= score_threshold <= 1.0:
        raise ValueError("score_threshold must lie in [0, 1]")
    if not member_scores:
        raise ValueError("need at least one ensemble member")
    normalized = [[entity_score(it) for it in member] for member in member_scores]
    entity_lists = [[e for e, _ in member] for member in normalized]
    if any(el != entity_lists[0] for el in entity_lists[1:]):
        raise ValueError("ensemble members scored different entity lists")
    n_members = len(normalized)
    kept = []
    for i, entity in enumerate(entity_lists[0]):
        votes = sum(member[i][1] >= score_threshold for member in normalized)
        if 2 * votes > n_members:
            kept.append(entity)
    return kept


@dataclass
class DocResult:
    """Pipeline output for one document.

    Entity fields are populated only for documents predicted negative;
    ``error`` records per-document failures without stopping the run.
    """

    doc_id: str
    sentiment: SentimentLabel
    prob_negative: float
    key_entities: Optional[list[str]] = None
    span_text: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PipelineResult:
    documents: list[DocResult]
    counters: dict[str, int] = field(default_factory=dict)


def _check_shared_vocab(checkpoints: list[Checkpoint]):
    first = checkpoints[0].vocab.id_to_token
    for ckpt in checkpoints[1:]:
        if ckpt.vocab.id_to_token != first:
            raise ValueError("pipeline checkpoints do not share a vocabulary")


def run_pipeline(
    docs: Sequence[Document],
    sentiment_members: Sequence[Checkpoint],
    *,
    mode: str = "coarse",
    matcher_members: Optional[Sequence[Checkpoint]] = None,
    mrc_checkpoint: Optional[Checkpoint] = None,
    match_threshold: float = 0.5,
    template: str = DEFAULT_TEMPLATE,
    lexicon: Optional[Lexicon] = None,
    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
    threads: int = 1,
) -> PipelineResult:
    """Run the staged pipeline over documents.

    Stage 1 votes the sentiment ensemble per document; positive documents
    are filtered out.  Stage 2 either votes key entities over the document
    entity list (coarse mode; a lexicon can stand in for missing lists) or
    extracts the tag-conditioned answer span (fine mode).  Results keep the
    input order even with multiple worker threads.  Each text and each
    (entity, text) pair is tokenized once per distinct member max_len and
    shared by the members.
    """
    if mode not in ("coarse", "fine"):
        raise ValueError("mode must be 'coarse' or 'fine'")
    if not sentiment_members:
        raise ValueError("need at least one sentiment checkpoint")
    if any(c.head_kind != "sentiment" for c in sentiment_members):
        raise ValueError("stage-1 checkpoints must be sentiment models")
    shared: list[Checkpoint] = list(sentiment_members)
    if mode == "coarse":
        if not matcher_members:
            raise ValueError("coarse mode needs matcher checkpoints")
        if any(c.head_kind != "match" for c in matcher_members):
            raise ValueError("matcher checkpoints must be match models")
        shared += list(matcher_members)
    else:
        if mrc_checkpoint is None:
            raise ValueError("fine mode needs an mrc checkpoint")
        if mrc_checkpoint.head_kind != "span":
            raise ValueError("mrc checkpoint must be a span model")
        shared.append(mrc_checkpoint)
    _check_shared_vocab(shared)
    if not 0.0 <= match_threshold <= 1.0:
        raise ValueError("match_threshold must lie in [0, 1]")

    def process(doc: Document) -> tuple[DocResult, dict]:
        counts = {"processed": 1}
        text = doc.cleaned_text
        seqs: dict = {}

        def encoded(member: Checkpoint, *segments: str):
            # All members share one vocabulary, so max_len fixes the encoding.
            max_len = member.encoder_config.max_len
            key = (max_len, *segments)
            if key not in seqs:
                # Called through the tasks module, like the predictors' own
                # encoding, so a wrapper set there sees every tokenizer call.
                encode = tasks.encode_single if len(segments) == 1 else tasks.encode_pair
                seqs[key] = encode(*segments, member.vocab, max_len)
            return seqs[key]

        voted = vote_sentiment(
            [m.predict_sentiment(text, encoded(m, text)) for m in sentiment_members]
        )
        result = DocResult(doc.id, voted.label, voted.prob_negative)
        if voted.label is SentimentLabel.POSITIVE:
            counts["predicted_positive"] = 1
            return result, counts
        counts["predicted_negative"] = 1
        try:
            if mode == "coarse":
                entities = doc.entity_list
                if entities is None and lexicon is not None:
                    entities = rule_match_entities(text, lexicon)
                if entities is None:
                    raise ValueError("document has no entity list and no lexicon was given")
                if not entities:
                    counts["empty_entity_list"] = 1
                    result.key_entities = []
                    return result, counts
                member_scores = [
                    [(e, m.score_entity(e, text, encoded(m, e, text))) for e in entities]
                    for m in matcher_members
                ]
                result.key_entities = vote_key_entities(member_scores, match_threshold)
            else:
                if doc.tag is None:
                    raise ValueError("document has no tag for fine-grained extraction")
                question = build_question(doc.tag, template)
                span = mrc_checkpoint.extract_span(question, text, max_span_len)
                result.span_text = span.text
        except ValueError as exc:
            result.error = str(exc)
            counts["errors"] = 1
        return result, counts

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(process, docs))
    else:
        outcomes = [process(doc) for doc in docs]

    counters = {
        "processed": 0,
        "predicted_negative": 0,
        "predicted_positive": 0,
        "empty_entity_list": 0,
        "errors": 0,
    }
    results = []
    for result, counts in outcomes:
        results.append(result)
        for key, value in counts.items():
            counters[key] += value
    return PipelineResult(documents=results, counters=counters)
