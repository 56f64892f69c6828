"""The benchmark's tracer still finds the training names it wraps.

``perfbench/tracing.py`` skips a name it cannot find, so a renamed or
removed function would make its layer read 0 instead of failing.  This
test runs a tiny training call under the tracer and checks that every
training layer recorded spans.
"""

import sys
from pathlib import Path

import numpy as np

from finkey.corpus import Document, SentimentLabel
from finkey.encoder import EncoderConfig
from finkey.tokenizer import SEP_ID
from finkey.training import TrainConfig, train

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
    for label in ("encoder.forward", "encoder.backward", "training.clip", "training.adam"):
        assert spans.get(label), f"no {label} spans"
        assert all(d >= 0 for d in spans[label])
    # Two optimiser steps: one clip, one Adam step and one backward pass each.
    assert len(spans["training.adam"]) == len(spans["training.clip"]) == 2
    assert len(spans["encoder.backward"]) == 2
