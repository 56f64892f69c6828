"""Seeded inputs for the benchmark workloads and for the fixed checkpoints.

Every corpus here is a pure function of its seed.  The short texts come
straight from ``finkey.synthetic``; the long tagged texts used by the fine
pipeline put one 8-clause ``mrc_corpus`` text first (it holds the tag's
event and the answer) and append distractor clauses with good events, so
that after truncation every one of the 128 positions is real.
"""

from __future__ import annotations

import numpy as np

from finkey.corpus import Document, clean_text
from finkey.synthetic import (
    COMPANIES,
    FILLERS,
    GOOD_EVENTS,
    matcher_corpus,
    mrc_corpus,
    sentiment_corpus,
)

QUESTION_TEMPLATE = "Which company involves {tag}?"
LONG_FILLER_CLAUSES = 30  # 4 tokens each: the context overflows max_len 128


def long_tagged_docs(n: int, seed: int) -> list[Document]:
    """Tagged documents longer than 128 tokens with the answer up front."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for base in mrc_corpus(n, seed, n_clauses=8):
        clauses = [
            f"{rng.choice(FILLERS)} {rng.choice(COMPANIES)} {rng.choice(GOOD_EVENTS)}"
            for _ in range(LONG_FILLER_CLAUSES)
        ]
        text = base.raw_text + " ; " + " ; ".join(clauses)
        docs.append(
            Document(
                id=base.id.replace("mrc", "long"),
                raw_text=text,
                cleaned_text=clean_text(text),
                sentiment=base.sentiment,
                key_entities=base.key_entities,
                tag=base.tag,
            )
        )
    return docs


def mixed_sentiment_docs(n_short: int, n_long: int, seed: int) -> list[Document]:
    """Short headline texts plus long ones (30 distractor clauses)."""
    short = sentiment_corpus(n_short, seed)
    long = sentiment_corpus(n_long, seed + 1, n_distractors=LONG_FILLER_CLAUSES)
    for doc in long:
        doc.id = doc.id.replace("sent", "sentlong")
    mixed = short + long
    order = np.random.default_rng(seed).permutation(len(mixed))
    return [mixed[i] for i in order]


# Sizes of each workload's inputs.  They do not depend on the seed, so a
# run does the same amount of work whatever its seed.  The train workloads
# split by document, so no dev document has pairs in the training set.
MATCH_TRAIN_PAIRS = 448  # 28 batches of 16
MATCH_DEV_PAIRS = 150
SPAN_TRAIN_DOCS = 300
SPAN_DEV_DOCS = 60
# Coarse pipeline: documents by (gold sentiment, entities in the list).
# 3 entities is the common case (2.89 on average in sentiment_corpus).
COARSE_MIX = {("negative", 3): 450, ("negative", 2): 50, ("positive", 3): 450, ("positive", 2): 50}
FINE_DOCS = 2000  # 2000 closed-loop calls a run: p99 has 20 samples beyond it


def _fill_pairs(docs, capacity: int):
    """Take whole documents in order until exactly ``capacity`` pairs."""
    taken, rest = [], []
    for i, doc in enumerate(docs):
        left = capacity - len(doc.entity_list)
        if left == 0 or left >= 2:  # every document has 2 to 4 entities
            taken.append(doc)
            capacity = left
        else:
            rest.append(doc)
        if capacity == 0:
            return taken, rest + docs[i + 1:]
    raise ValueError("not enough documents to fill the pairs")


def _coarse_docs(seed: int) -> list[Document]:
    quota = dict(COARSE_MIX)
    docs = []
    for doc in sentiment_corpus(3 * sum(quota.values()), seed):
        key = (doc.sentiment.value, len(doc.entity_list))
        if quota.get(key, 0) > 0:
            quota[key] -= 1
            docs.append(doc)
    if any(quota.values()):
        raise ValueError("not enough documents for the coarse mix")
    return docs


def workload_corpora(workload: str, seed: int) -> dict[str, tuple[list[Document], str]]:
    """name -> (documents, schema) for the corpus files a workload loads."""
    if workload == "train-match":
        pool = matcher_corpus(400, seed, n_companies=12)
        train, rest = _fill_pairs(pool, MATCH_TRAIN_PAIRS)
        dev, _ = _fill_pairs(rest, MATCH_DEV_PAIRS)
        return {"train": (train, "dataset-1"), "dev": (dev, "dataset-1")}
    if workload == "train-span-full":
        docs = mrc_corpus(SPAN_TRAIN_DOCS + SPAN_DEV_DOCS, seed, n_clauses=8)
        return {"train": (docs[:SPAN_TRAIN_DOCS], "dataset-2"),
                "dev": (docs[SPAN_TRAIN_DOCS:], "dataset-2")}
    if workload == "pipeline-coarse-batch":
        return {"docs": (_coarse_docs(seed), "dataset-1")}
    if workload == "pipeline-fine-online":
        return {"docs": (long_tagged_docs(FINE_DOCS, seed), "dataset-2")}
    raise ValueError(f"unknown workload {workload!r}")
