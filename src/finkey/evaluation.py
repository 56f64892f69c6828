"""Seed ensembles with voting, and pipeline assembly.

Ensembles train one model per seed, keep the top scorers on the dev set and
combine member predictions by majority vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Document, Lexicon, MrcExample, PairExample, SentimentLabel, rule_match_entities
from .encoder import check_config
from .tasks import (
    DEFAULT_MAX_SPAN_LEN,
    DEFAULT_TEMPLATE,
    MatchTask,
    SentimentPrediction,
    SentimentTask,
    SpanTask,
    Task,
    build_question,
)
from .training import Checkpoint, EncoderConfig, TrainConfig, TrainResult, train

# Documents per pipeline block: each block makes one batched forward per
# member, stage and length group, so larger blocks make fewer, larger calls
# and hold more rows at once (measured in the README).
_BLOCK_DOCS = 32


@dataclass(frozen=True)
class EnsembleSpec:
    """Distinct training seeds plus how many top scorers to keep."""

    seeds: tuple[int, ...]
    top_m: int = 10

    def __post_init__(self):
        check_config(self, lambda: [
            ("seeds", len(set(self.seeds)) == len(self.seeds), "distinct"),
            ("seeds", min(self.seeds, default=0) >= 0, ">= 0"),
            ("top_m", 1 <= self.top_m <= len(self.seeds), "in [1, number of seeds]"),
        ])


def ensemble_train(
    train_set,
    dev_set,
    base_cfg: TrainConfig,
    spec: EnsembleSpec,
    encoder: Optional[EncoderConfig] = None,
    **train_kwargs,
) -> list[TrainResult]:
    """Train one model per seed and return the top_m by dev score.

    Members are sorted by dev score descending with ties going to the
    smaller seed, so the selection is deterministic.
    """
    results = [train(train_set, dev_set, replace(base_cfg, seed=seed), encoder=encoder,
                     **train_kwargs) for seed in spec.seeds]
    results.sort(key=lambda r: (-r.checkpoint.dev_score, r.checkpoint.seed))
    return results[: spec.top_m]


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


def _majority(votes, members: int):
    """The key-entity rule: more than half of ``members`` vote for (elementwise
    for an array of vote counts)."""
    return 2 * votes > members


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


def _encodings(task: Task, members: Sequence[Checkpoint], items: list) -> list:
    """Each member's encoding of the items, made once per distinct member
    max_len (members share one vocabulary, so max_len fixes the encoding)."""
    encoded = {}
    for member in members:
        max_len = member.encoder_config.max_len
        if max_len not in encoded:
            encoded[max_len] = task.encode(items, member.vocab, max_len)
    return [encoded[member.encoder_config.max_len] for member in members]


def _member_predictions(task: Task, members: Sequence[Checkpoint], items: list) -> list[list]:
    """Each member's predictions over the items, in item order, with its
    error message, a str, in place of each item that does not encode."""
    out = []
    for member, data in zip(members, _encodings(task, members, items)):
        preds = iter(member.predict(task, data))
        out.append([data.errors[i] if i in data.errors else next(preds) for i in range(len(items))])
    return out


def _vote_pairs(
    task: MatchTask, members: Sequence[Checkpoint], groups: list[list], threshold: float, counters
) -> list:
    """Each group's key entities by majority vote over the members, or the
    group's encoding error, a str.

    A pair is key when a strict majority of the members score it at or
    above the threshold.  The members run in order and each scores only the
    pairs whose vote is still open: a pair is kept once that majority is
    reached, and dropped once the members left cannot make one.  The pairs
    are encoded (``_encodings``) before any forward.  A group with a pair
    that does not encode gets the first such error in member order, then
    pair order, and none of its pairs is scored.  Adds the scores made to
    ``counters["stage2_scores"]``.
    """
    pairs = [x for group in groups for x in group]
    encodings = _encodings(task, members, pairs)
    spans, start = [], 0
    for group in groups:
        spans.append(range(start, start + len(group)))
        start += len(group)
    errors = [data.errors for data in encodings]
    out = [next((e[i] for e in errors for i in span if i in e), None) for span in spans]
    open_ = np.array(
        [i for span, error in zip(spans, out) if error is None for i in span], dtype=np.int64
    )
    # The row of each pair in each distinct encoding (rows skip the pairs that did not encode).
    row_of = {}
    for data in encodings:
        if id(data) not in row_of:
            row_of[id(data)] = np.cumsum([i not in data.errors for i in range(len(pairs))]) - 1
    n = len(members)
    votes_for = np.zeros(len(pairs), dtype=np.int64)
    for ran, (member, data) in enumerate(zip(members, encodings), start=1):
        if not open_.size:
            break
        scores = member.predict(task, data.rows(row_of[id(data)][open_]))
        counters["stage2_scores"] += open_.size
        votes_for[open_] += np.array(scores, dtype=np.float64) >= threshold
        # Open: not yet a majority, and still one if every member left votes for.
        votes = votes_for[open_]
        open_ = open_[~_majority(votes, n) & _majority(votes + (n - ran), n)]
    kept = _majority(votes_for, n)
    for g, (span, group) in enumerate(zip(spans, groups)):
        if out[g] is None:
            out[g] = [x.entity for i, x in zip(span, group) if kept[i]]
    return out


def _stage2_inputs(doc: Document, mode: str, lexicon, template: str) -> list:
    """The (entity, text) pairs or the one question of a negative document."""
    if mode == "coarse":
        entities = doc.entity_list
        if entities is None and lexicon is not None:
            entities = rule_match_entities(doc.cleaned_text, lexicon)
        if entities is None:
            raise ValueError("document has no entity list and no lexicon was given")
        return [PairExample(doc.id, e, doc.cleaned_text) for e in entities]
    if doc.tag is None:
        raise ValueError("document has no tag for fine-grained extraction")
    return [MrcExample(doc.id, build_question(doc.tag, template), doc.cleaned_text)]


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
) -> PipelineResult:
    """Run the staged pipeline over documents, in blocks of documents.

    Stage 1 votes the sentiment ensemble per document; positive documents
    are filtered out.  Stage 2 either votes key entities over the document
    entity list (coarse mode; a lexicon can stand in for missing lists) or
    extracts the tag-conditioned answer span (fine mode).  Each stage makes
    one batched prediction per member over a block: its documents, then
    the (entity, text) pairs or questions of its negative documents.  In
    coarse mode each matcher scores only the pairs whose majority vote is
    still open (``_vote_pairs``), which leaves every output as a vote over
    all scores would; ``counters["stage2_scores"]`` counts the stage-2
    predictions made.  Each text and pair is tokenized once per distinct
    member max_len.  A document that cannot be encoded gets an error and
    the rest of its block goes on.  Results keep the input order.  Bad
    arguments, such as a fine-mode ``template`` without exactly one
    ``{tag}``, raise ValueError before any document is read.
    """
    if mode not in ("coarse", "fine"):
        raise ValueError("mode must be 'coarse' or 'fine'")
    if not sentiment_members:
        raise ValueError("need at least one sentiment checkpoint")
    if any(c.head_kind != "sentiment" for c in sentiment_members):
        raise ValueError("stage-1 checkpoints must be sentiment models")
    if mode == "coarse":
        if not matcher_members:
            raise ValueError("coarse mode needs matcher checkpoints")
        if any(c.head_kind != "match" for c in matcher_members):
            raise ValueError("matcher checkpoints must be match models")
        stage2_task, stage2_members = MatchTask(), list(matcher_members)
    else:
        if mrc_checkpoint is None:
            raise ValueError("fine mode needs an mrc checkpoint")
        if mrc_checkpoint.head_kind != "span":
            raise ValueError("mrc checkpoint must be a span model")
        build_question("", template)  # raises unless the template has one {tag}
        stage2_task, stage2_members = SpanTask(max_span_len=max_span_len), [mrc_checkpoint]
    _check_shared_vocab(list(sentiment_members) + stage2_members)
    if not 0.0 <= match_threshold <= 1.0:
        raise ValueError("match_threshold must lie in [0, 1]")

    counters = dict.fromkeys(
        ("processed", "predicted_negative", "predicted_positive", "empty_entity_list", "errors",
         "stage2_scores"), 0
    )
    results = []
    for start in range(0, len(docs), _BLOCK_DOCS):
        block = docs[start : start + _BLOCK_DOCS]
        stage1 = _member_predictions(SentimentTask(), sentiment_members, block)
        pending = []  # (result, stage-2 inputs) of the block's negative documents
        for i, doc in enumerate(block):
            voted = vote_sentiment([preds[i] for preds in stage1])
            result = DocResult(doc.id, voted.label, voted.prob_negative)
            results.append(result)
            counters["processed"] += 1
            if voted.label is SentimentLabel.POSITIVE:
                counters["predicted_positive"] += 1
                continue
            counters["predicted_negative"] += 1
            try:
                inputs = _stage2_inputs(doc, mode, lexicon, template)
            except ValueError as exc:
                result.error = str(exc)
                counters["errors"] += 1
                continue
            if not inputs:
                counters["empty_entity_list"] += 1
                result.key_entities = []
                continue
            pending.append((result, inputs))

        if mode == "coarse":
            outcomes = _vote_pairs(
                stage2_task, stage2_members, [inputs for _, inputs in pending], match_threshold,
                counters,
            )
        else:
            (outcomes,) = _member_predictions(
                stage2_task, stage2_members, [inputs[0] for _, inputs in pending]
            )
            counters["stage2_scores"] += sum(not isinstance(p, str) for p in outcomes)
        for (result, _), outcome in zip(pending, outcomes):
            if isinstance(outcome, str):
                result.error = outcome
                counters["errors"] += 1
            elif mode == "coarse":
                result.key_entities = outcome
            else:
                result.span_text = outcome.text
    return PipelineResult(documents=results, counters=counters)
