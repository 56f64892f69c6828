"""The benchmark's tracer still finds the names it wraps.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed or
removed function would make its layer read 0 instead of failing.  These
tests run a tiny training call and a tiny pipeline call under the tracer
and check that every layer recorded spans, GELU included (it is timed
only while ``forward_batch`` calls it by its module-level name), and that
the encoder spans carry the facts the per-layer metrics are computed from.
"""

import sys
from pathlib import Path

import numpy as np

from finkey.corpus import Document, SentimentLabel
from finkey.encoder import EncoderConfig, init_params
from finkey.evaluation import run_pipeline
from finkey.synthetic import sentiment_corpus
from finkey.tasks import init_head
from finkey.tokenizer import SEP_ID, vocab_from_texts
from finkey.training import Checkpoint, TrainConfig, train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_tracer_sees_every_training_layer():
    rng = np.random.default_rng(0)
    docs = []
    for i in range(24):
        negative = bool(i % 2)
        text = ("loss " if negative else "gain ") + " ".join(rng.choice(["alpha", "beta", "gamma"], 3))
        label = SentimentLabel.NEGATIVE if negative else SentimentLabel.POSITIVE
        docs.append(Document(f"d{i}", text, text, sentiment=label))
    enc = EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=12)
    cfg = TrainConfig(task="sentiment", epochs=1, batch_size=8, seed=1, max_len=12)

    tracer = Tracer(sep_id=SEP_ID)
    tracer.install()
    try:
        train(docs[:16], docs[16:], cfg, encoder=enc)
    finally:
        tracer.uninstall()

    spans: dict[str, list[float]] = {}
    for label, start, end, *_ in tracer.spans:
        spans.setdefault(label, []).append(end - start)
    layers = ("encoder.forward", "encoder.gelu", "encoder.backward", "encoder.gelu_grad",
              "training.clip", "training.adam")
    for label in layers:
        assert spans.get(label), f"no {label} spans"
        assert all(d >= 0 for d in spans[label])
    # Two optimiser steps: one clip, one Adam step and one backward pass each.
    assert len(spans["training.adam"]) == len(spans["training.clip"]) == 2
    assert len(spans["encoder.backward"]) == 2


def untrained(kind, vocab, enc, seed):
    head = init_head(kind, enc.d_model, np.random.default_rng(seed))
    task = "sentiment" if kind == "sentiment" else "match"
    return Checkpoint(init_params(enc, seed), enc, head, kind, vocab,
                      TrainConfig(task=task, max_len=enc.max_len), 0.5, seed)


def test_tracer_sees_pipeline_encoder_facts():
    docs = sentiment_corpus(12, seed=2)
    vocab = vocab_from_texts([d.cleaned_text for d in docs])
    enc = EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_len=32)
    sentiment = untrained("sentiment", vocab, enc, 1)
    sentiment.head.b[0] = 10.0  # every document negative, so stage 2 runs
    matcher = untrained("match", vocab, enc, 2)

    tracer = Tracer(sep_id=SEP_ID)
    tracer.install()
    try:
        result = run_pipeline(docs, [sentiment], mode="coarse", matcher_members=[matcher])
    finally:
        tracer.uninstall()

    assert all(d.error is None for d in result.documents)
    # GELU is timed through its module-level name; forward_batch must call it.
    gelus = [span for span in tracer.spans if span[0] == "encoder.gelu"]
    assert gelus and all(tracer.spans[span[3]][0] == "encoder.forward" for span in gelus)
    forwards = [facts for label, _, _, _, facts, _ in tracer.spans if label == "encoder.forward"]
    assert forwards
    for facts in forwards:
        assert facts["rows"] >= 1
        assert facts["positions"] >= facts["rows"]
        assert facts["training"] is False
    # Stage 1 encodes single texts, stage 2 (entity, text) pairs.
    assert {f["pair"] for f in forwards} == {False, True}
    n_pairs = sum(len(d.entity_list) for d in docs)
    assert sum(f["rows"] for f in forwards) == len(docs) + n_pairs
