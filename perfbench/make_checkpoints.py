"""Train the fixed checkpoints the pipeline workloads load.

The checkpoints are committed next to this file, so a later change to the
training arithmetic cannot shift how many documents reach stage 2.  Run
from the repository root to make them again from the recorded seeds, all
of them or the ones named:

    PYTHONPATH=src python3 perfbench/make_checkpoints.py [sentiment-1 ...]

All seven share one vocabulary, as the pipeline requires.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

from finkey.corpus import SentimentLabel, build_mrc_dataset, build_pair_dataset
from finkey.encoder import EncoderConfig
from finkey.tokenizer import vocab_from_texts
from finkey.synthetic import sentiment_corpus
from finkey.training import TrainConfig, save_checkpoint, train

from inputs import QUESTION_TEMPLATE, long_tagged_docs, mixed_sentiment_docs

OUT = Path(__file__).resolve().parent / "checkpoints"
MAX_LEN = 128
ENCODER = EncoderConfig(
    vocab_size=4, d_model=48, n_heads=4, n_layers=2, d_ff=192,
    max_len=MAX_LEN, dropout_rate=0.1,
)
SENTIMENT_SEEDS = (1, 2, 3)
MATCH_SEEDS = (1, 2, 3)
MRC_SEED = 1
# Corpus seeds, kept clear of the small seeds the workloads take from --seed.
SENTIMENT_DATA_SEED = 9001
MATCH_DATA_SEED = 9101
MRC_DATA_SEED = 9201


def main(names: list[str]) -> int:
    sent_docs = mixed_sentiment_docs(400, 200, SENTIMENT_DATA_SEED)
    sent_tr, sent_dv = sent_docs[:500], sent_docs[500:]

    neg_docs = [
        d for d in sentiment_corpus(600, MATCH_DATA_SEED)
        if d.sentiment is SentimentLabel.NEGATIVE
    ]
    match_tr, _ = build_pair_dataset(neg_docs[:240])
    match_dv, _ = build_pair_dataset(neg_docs[240:300])

    mrc_docs = long_tagged_docs(480, MRC_DATA_SEED)
    mrc_tr, _ = build_mrc_dataset(mrc_docs[:400], QUESTION_TEMPLATE)
    mrc_dv, _ = build_mrc_dataset(mrc_docs[400:], QUESTION_TEMPLATE)

    vocab = vocab_from_texts(
        [d.cleaned_text for d in sent_docs + neg_docs + mrc_docs]
        + [ex.question for ex in mrc_tr + mrc_dv]
    )
    OUT.mkdir(exist_ok=True)
    # The matcher sits on a long plateau at the base rate before it learns
    # (about 18 epochs at lr 1e-3 without dropout; faster settings never leave it).
    jobs = [
        (f"sentiment-{s}", sent_tr, sent_dv, ENCODER,
         TrainConfig(task="sentiment", epochs=24, batch_size=32, learning_rate=2e-3,
                     seed=s, max_len=MAX_LEN))
        for s in SENTIMENT_SEEDS
    ] + [
        (f"match-{s}", match_tr, match_dv, replace(ENCODER, dropout_rate=0.0),
         TrainConfig(task="match", epochs=40, batch_size=16, learning_rate=1e-3,
                     seed=s, max_len=MAX_LEN, clip_norm=5.0))
        for s in MATCH_SEEDS
    ] + [
        (f"mrc-{MRC_SEED}", mrc_tr, mrc_dv, ENCODER,
         TrainConfig(task="mrc", epochs=40, batch_size=32, learning_rate=2e-3,
                     seed=MRC_SEED, max_len=MAX_LEN, clip_norm=5.0)),
    ]
    for name, tr, dv, encoder, cfg in jobs:
        if names and name not in names:
            continue
        start = time.perf_counter()
        result = train(tr, dv, cfg, encoder=encoder, vocab=vocab)
        save_checkpoint(result.checkpoint, OUT / f"{name}.ckpt")
        print(
            f"{name}: dev {result.checkpoint.dev_score:.3f} "
            f"losses {result.epoch_losses[0]:.3f}->{result.epoch_losses[-1]:.3f} "
            f"({time.perf_counter() - start:.0f} s)",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
