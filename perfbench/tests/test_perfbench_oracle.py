"""The benchmark's oracle agrees with finkey, and its checks catch bad outputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import oracle  # noqa: E402
from finkey.corpus import build_mrc_dataset, build_pair_dataset  # noqa: E402
from finkey.encoder import EncoderConfig, forward, init_params  # noqa: E402
from finkey.evaluation import run_pipeline  # noqa: E402
from finkey.synthetic import matcher_corpus, mrc_corpus, sentiment_corpus  # noqa: E402
from finkey.tasks import extract_span, init_head, predict_sentiment, score_entity  # noqa: E402
from finkey.tokenizer import encode_pair, vocab_from_texts  # noqa: E402
from finkey.training import Checkpoint, TrainConfig, save_checkpoint, train  # noqa: E402

TEMPLATE = "Which company involves {tag}?"
TEXTS = [
    "Acme FRAUD; bluepeak no growth, see www.x.com 2020!",
    "zenith 公司 违约 and kelvane Q3-losses?",
    "nimbus record ; analysts orbix penalty",
]


def _checkpoint(tmp_path, kind, enc, vocab, seed, head_bias=None):
    rng = np.random.default_rng(seed)
    head = init_head(kind, enc.d_model, rng, enc.np_dtype)
    if head_bias is not None:
        head.b[:] = head_bias
    task = {"sentiment": "sentiment", "match": "match", "span": "mrc"}[kind]
    ckpt = Checkpoint(
        encoder_params=init_params(enc, seed), encoder_config=enc, head=head,
        head_kind=kind, vocab=vocab, train_config=TrainConfig(task=task, max_len=enc.max_len),
        dev_score=0.0, seed=seed,
    )
    path = tmp_path / f"{kind}-{seed}.ckpt"
    save_checkpoint(ckpt, path)
    return ckpt, oracle.Model(path)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_agrees_with_finkey_on_random_configs(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_heads = int(rng.choice([1, 2, 4]))
    enc = EncoderConfig(
        vocab_size=4, d_model=4 * n_heads * int(rng.integers(1, 4)), n_heads=n_heads,
        n_layers=int(rng.integers(1, 4)), d_ff=int(rng.choice([8, 24])),
        max_len=int(rng.choice([8, 16, 40])), dropout_rate=0.1, dtype="float64",
    )
    vocab = vocab_from_texts(TEXTS[:2])
    enc = replace(enc, vocab_size=vocab.size)
    sent, sent_o = _checkpoint(tmp_path, "sentiment", enc, vocab, seed)
    match, match_o = _checkpoint(tmp_path, "match", enc, vocab, seed + 1)
    span, span_o = _checkpoint(tmp_path, "span", enc, vocab, seed + 2)
    for text in TEXTS:
        seq = encode_pair("Acme", text, vocab, enc.max_len)
        ids, _ = match_o.encode_pair("Acme", text)
        assert list(seq.ids[: len(ids)]) == ids and seq.n_real == len(ids)
        hidden = forward(match.encoder_params, enc, seq).token_vecs[: len(ids)]
        np.testing.assert_allclose(match_o.hidden(ids), hidden, rtol=0, atol=1e-9)

        p = predict_sentiment(sent.encoder_params, enc, vocab, sent.head, text).prob_negative
        assert abs(p - sent_o.prob_negative(text)) < 1e-9
        s = score_entity(match.encoder_params, enc, vocab, match.head, "zenith", text)
        assert abs(s - match_o.match_prob("zenith", text)) < 1e-9
        got = extract_span(span.encoder_params, enc, vocab, span.head, "Which?", text, 3).text
        texts = span_o.span_candidates("Which?", text, 3, tol=0.0)
        assert texts == {got}


def _pipeline_fixture(tmp_path):
    docs = sentiment_corpus(12, seed=4) + mrc_corpus(4, seed=5)
    vocab = vocab_from_texts([d.cleaned_text for d in docs] + [TEMPLATE])
    enc = EncoderConfig(
        vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=24,
    )
    # A negative bias on the positive logit sends every document to stage 2.
    sent = [_checkpoint(tmp_path, "sentiment", enc, vocab, s, head_bias=[2.0, 0.0]) for s in (1, 2, 3)]
    match = [_checkpoint(tmp_path, "match", enc, vocab, s) for s in (4, 5, 6)]
    mrc = _checkpoint(tmp_path, "span", enc, vocab, 7)
    return docs, sent, match, mrc


def _plain(r):
    return {
        "id": r.doc_id, "sentiment": r.sentiment.value, "prob_negative": r.prob_negative,
        "key_entities": r.key_entities, "span": r.span_text, "error": r.error,
    }


def test_coarse_check_passes_and_catches_flipped_entity_and_nudged_score(tmp_path):
    docs, sent, match, _ = _pipeline_fixture(tmp_path)
    docs = docs[:12]
    result = run_pipeline(docs, [c for c, _ in sent], mode="coarse",
                          matcher_members=[c for c, _ in match], match_threshold=0.5)
    outputs = [_plain(r) for r in result.documents]
    plain_docs = [{"id": d.id, "text": d.cleaned_text, "entity_list": d.entity_list} for d in docs]

    def verdict(outs):
        return checks.check_coarse(plain_docs, outs, [o for _, o in sent], [o for _, o in match],
                                   0.5, range(len(docs)))

    assert verdict(outputs) == []
    assert all(o["sentiment"] == "negative" for o in outputs)

    flipped = [dict(o) for o in outputs]
    entity = docs[0].entity_list[0]
    keys = flipped[0]["key_entities"]
    flipped[0]["key_entities"] = [e for e in keys if e != entity] if entity in keys else [entity] + keys
    assert verdict(flipped)

    nudged = [dict(o) for o in outputs]
    nudged[3]["prob_negative"] += 1e-3
    assert verdict(nudged)

    reordered = outputs[1:] + outputs[:1]
    assert verdict(reordered)


def test_fine_check_passes_and_catches_shifted_span(tmp_path):
    docs, sent, _, (mrc, mrc_o) = _pipeline_fixture(tmp_path)
    docs = docs[12:]
    result = run_pipeline(docs, [c for c, _ in sent], mode="fine", mrc_checkpoint=mrc,
                          template=TEMPLATE, max_span_len=4)
    outputs = [_plain(r) for r in result.documents]
    plain_docs = [{"id": d.id, "text": d.cleaned_text, "tag": d.tag} for d in docs]

    def verdict(outs):
        return checks.check_fine(plain_docs, outs, [o for _, o in sent], mrc_o, TEMPLATE, 4,
                                 range(len(docs)))

    assert verdict(outputs) == []
    shifted = [dict(o) for o in outputs]
    span = shifted[0]["span"]
    context = docs[0].cleaned_text
    start = context.index(span)
    tokens = oracle.tokenize(context)
    nxt = next(t for t in tokens if t[1] > start)
    shifted[0]["span"] = context[nxt[1]:nxt[2]] if span != context[nxt[1]:nxt[2]] else context[:1]
    assert verdict(shifted)


@pytest.mark.parametrize("task", ["match", "mrc"])
def test_train_check_passes_and_catches_bad_history(tmp_path, task):
    if task == "match":
        docs = matcher_corpus(40, seed=3, n_companies=8)
        tr, _ = build_pair_dataset(docs[:30])
        dv, _ = build_pair_dataset(docs[30:])
        dev = [(ex.doc_id, ex.entity, ex.text, ex.label) for ex in dv]
    else:
        docs = mrc_corpus(40, seed=3)
        tr, _ = build_mrc_dataset(docs[:30], TEMPLATE)
        dv, _ = build_mrc_dataset(docs[30:], TEMPLATE)
        dev = [(ex.question, ex.context, ex.answer) for ex in dv]
    cfg = TrainConfig(task=task, epochs=3, batch_size=8, learning_rate=3e-3, seed=1, max_len=24)
    enc = EncoderConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=24,
                        dropout_rate=0.0)
    result = train(tr, dv, cfg, encoder=enc, max_span_len=4)
    path = tmp_path / "trained.ckpt"
    save_checkpoint(result.checkpoint, path)
    model = oracle.Model(path)
    summary = {
        "dev_score": result.checkpoint.dev_score,
        "epoch_dev_scores": result.epoch_dev_scores,
        "epoch_losses": result.epoch_losses,
    }

    def verdict(s):
        return checks.check_train(task, s, dev, model, threshold=0.5, max_span_len=4)

    assert verdict(summary) == []
    nudged = summary["dev_score"] + 0.01
    assert verdict(dict(summary, dev_score=nudged))
    assert verdict(dict(summary, dev_score=nudged, epoch_dev_scores=summary["epoch_dev_scores"] + [nudged]))
    assert verdict(dict(summary, epoch_losses=summary["epoch_losses"][::-1]))
    assert verdict(dict(summary, epoch_losses=summary["epoch_losses"][:-1] + [float("nan")]))
