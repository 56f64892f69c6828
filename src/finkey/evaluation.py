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


def _majority(votes, members: int):
    """The one majority rule: more than half of ``members`` vote for (elementwise
    for an array of vote counts)."""
    return 2 * votes > members


def vote_sentiment(members: Sequence[SentimentPrediction]) -> SentimentPrediction:
    """Majority vote; exact ties fall back to the mean negative probability.

    The voted probability is always the member mean, so a voted prediction
    may pair a majority label with a mean probability on the other side of
    0.5 (the per-member 0.5 rule applies to single models only).
    """
    if not members:
        raise ValueError("cannot vote over an empty member list")
    n = len(members)
    n_negative = sum(m.label is SentimentLabel.NEGATIVE for m in members)
    mean_prob = sum(m.prob_negative for m in members) / n
    negative, positive = _majority(n_negative, n), _majority(n - n_negative, n)
    if not (negative or positive):  # a tie
        negative = mean_prob >= 0.5
    label = SentimentLabel.NEGATIVE if negative else SentimentLabel.POSITIVE
    return SentimentPrediction(label=label, prob_negative=mean_prob)


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


def _encodings(task: Task, members: Sequence[Checkpoint], items: list) -> list:
    """Each member's encoding of the items, made once per distinct member
    max_len (members share one vocabulary, so max_len fixes the encoding)."""
    encoded = {}
    for member in members:
        max_len = member.encoder_config.max_len
        if max_len not in encoded:
            encoded[max_len] = task.encode(items, member.vocab, max_len)
    return [encoded[member.encoder_config.max_len] for member in members]


def _vote_pairs(
    members: Sequence[Checkpoint], negatives: list, threshold: float, lexicon, counters
) -> None:
    """Write key entities or an error onto the result of each negative
    (DocResult, Document) pair.

    A document's entities are its entity list, else the lexicon's matches;
    with neither it gets an error, and with none it gets ``[]`` (counted in
    ``empty_entity_list``).  An entity is key when a strict majority of the
    members score its pair at or above the threshold.  The members run in
    order and each scores only the pairs whose vote is still open: a pair
    is kept once that majority is reached, and dropped once the members
    left cannot make one.  The pairs are encoded (``_encodings``) before
    any forward.  A document with a pair that does not encode gets the
    first such error in member order, then pair order, and none of its
    pairs is scored.  Adds the scores made to ``stage2_scores``.
    """
    task = MatchTask()
    groups, pairs = [], []  # (result, entities, rows in pairs) of each document to vote
    for result, doc in negatives:
        entities = doc.entity_list
        if entities is None and lexicon is not None:
            entities = rule_match_entities(doc.cleaned_text, lexicon)
        if entities is None:
            result.error = "document has no entity list and no lexicon was given"
        elif not entities:
            result.key_entities = []
            counters["empty_entity_list"] += 1
        else:
            groups.append((result, entities, range(len(pairs), len(pairs) + len(entities))))
            pairs += [PairExample(doc.id, e, doc.cleaned_text) for e in entities]
    encodings = _encodings(task, members, pairs)
    for result, _, span in groups:
        result.error = next((d.errors[i] for d in encodings for i in span if i in d.errors), None)
    open_ = np.array(
        [i for result, _, span in groups if result.error is None for i in span], dtype=np.int64
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
    for result, entities, span in groups:
        if result.error is None:
            result.key_entities = [e for i, e in zip(span, entities) if kept[i]]


def _extract_spans(
    task: SpanTask, member: Checkpoint, negatives: list, template: str, counters
) -> None:
    """Write the answer span or an error onto the result of each negative
    (DocResult, Document) pair: one call over the tagged documents'
    questions.  A document without a tag, or whose question does not
    encode, gets an error.  Adds the spans predicted to ``stage2_scores``."""
    tagged, questions = [], []
    for result, doc in negatives:
        if doc.tag is None:
            result.error = "document has no tag for fine-grained extraction"
        else:
            tagged.append(result)
            question = build_question(doc.tag, template)
            questions.append(MrcExample(doc.id, question, doc.cleaned_text))
    (data,) = _encodings(task, [member], questions)
    spans = iter(member.predict(task, data))
    counters["stage2_scores"] += data.n
    for i, result in enumerate(tagged):
        result.error = data.errors.get(i)
        if result.error is None:
            result.span_text = next(spans).text


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
    entity list (coarse mode, ``_vote_pairs``; a lexicon can stand in for
    missing lists) or extracts the tag-conditioned answer span (fine mode,
    ``_extract_spans``), and writes the outcome onto each negative
    document's result: an error there leaves the rest of the block going
    on.  Each stage makes one batched prediction per member over a block:
    its documents, then the pairs or questions of its negative documents.
    Each text and pair is tokenized once per distinct member max_len.
    Results keep the input order.  ``processed``, ``predicted_negative``,
    ``predicted_positive`` and ``errors`` are counted from the results;
    ``stage2_scores`` counts the stage-2 predictions made.  Bad arguments,
    such as a fine-mode ``template`` without exactly one ``{tag}``, raise
    ValueError before any document is read.
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
        stage2_members = matcher_members
    else:
        if mrc_checkpoint is None:
            raise ValueError("fine mode needs an mrc checkpoint")
        if mrc_checkpoint.head_kind != "span":
            raise ValueError("mrc checkpoint must be a span model")
        build_question("", template)  # raises unless the template has one {tag}
        span_task, stage2_members = SpanTask(max_span_len=max_span_len), [mrc_checkpoint]
    first = sentiment_members[0].vocab.id_to_token
    if any(c.vocab.id_to_token != first for c in [*sentiment_members, *stage2_members]):
        raise ValueError("pipeline checkpoints do not share a vocabulary")
    if not 0.0 <= match_threshold <= 1.0:
        raise ValueError("match_threshold must lie in [0, 1]")

    counters = {"empty_entity_list": 0, "stage2_scores": 0}
    results = []
    for start in range(0, len(docs), _BLOCK_DOCS):
        block = docs[start : start + _BLOCK_DOCS]
        encodings = _encodings(SentimentTask(), sentiment_members, block)
        stage1 = [m.predict(SentimentTask(), e) for m, e in zip(sentiment_members, encodings)]
        negatives = []
        for doc, preds in zip(block, zip(*stage1), strict=True):
            voted = vote_sentiment(preds)
            results.append(DocResult(doc.id, voted.label, voted.prob_negative))
            if voted.label is SentimentLabel.NEGATIVE:
                negatives.append((results[-1], doc))
        if mode == "coarse":
            _vote_pairs(stage2_members, negatives, match_threshold, lexicon, counters)
        else:
            _extract_spans(span_task, mrc_checkpoint, negatives, template, counters)
    negative = sum(r.sentiment is SentimentLabel.NEGATIVE for r in results)
    counters.update(processed=len(results), predicted_negative=negative,
                    predicted_positive=len(results) - negative,
                    errors=sum(r.error is not None for r in results))
    return PipelineResult(documents=results, counters=counters)
