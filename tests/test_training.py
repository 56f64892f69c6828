import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import finkey.training
from finkey.corpus import Document, MrcExample, PairExample, SentimentLabel, clean_text
from finkey.encoder import EncoderConfig, backward_batch, forward_batch
from finkey.tasks import TASKS, FocalConfig, init_head
from finkey.tokenizer import vocab_from_texts
from finkey.training import (
    Adam,
    Checkpoint,
    CrossValResult,
    NumericalError,
    ParamStore,
    TrainConfig,
    clip_by_global_norm,
    cross_validate,
    document_folds,
    init_params,
    kfold_split,
    load_checkpoint,
    neighborhood_search,
    save_checkpoint,
    train,
)
from finkey.training import _train_step


def make_doc(i, text, negative):
    return Document(
        id=f"d{i}",
        raw_text=text,
        cleaned_text=clean_text(text),
        sentiment=SentimentLabel.NEGATIVE if negative else SentimentLabel.POSITIVE,
    )


def word_label_corpus(n, seed=0):
    """Label is a deterministic function of the first token: trivially learnable."""
    rng = np.random.default_rng(seed)
    fillers = ["alpha", "beta", "gamma", "delta"]
    docs = []
    for i in range(n):
        negative = bool(rng.integers(0, 2))
        lead = "loss" if negative else "gain"
        tail = " ".join(rng.choice(fillers, size=3))
        docs.append(make_doc(i, f"{lead} {tail}", negative))
    return docs


SMALL_ENC = EncoderConfig(
    vocab_size=4, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=12,
    dropout_rate=0.0,
)


def small_cfg(**overrides):
    kwargs = dict(
        task="sentiment", epochs=3, batch_size=8, learning_rate=2e-3, seed=9,
        max_len=12,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(task="other")
        with pytest.raises(ValueError):
            TrainConfig(task="sentiment", epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(task="sentiment", threshold=1.5)
        with pytest.raises(ValueError):
            TrainConfig(task="sentiment", loss="focal")

    def test_focal_config_fallback(self):
        cfg = TrainConfig(task="match", loss="focal")
        assert cfg.focal_config() == FocalConfig()
        cfg = TrainConfig(task="match", loss="cross_entropy")
        assert cfg.focal_config().gamma == 0.0

    @pytest.mark.parametrize(
        "field, value", [("beta1", 1.0), ("beta2", 1.0), ("beta2", 1.5), ("beta1", -0.1), ("adam_eps", 0.0)]
    )
    def test_adam_settings_that_cannot_train(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(task="sentiment", **{field: value})

    @pytest.mark.parametrize(
        "config, field, value",
        [(TrainConfig, "learning_rate", True), (TrainConfig, "learning_rate", ["x"]),
         (TrainConfig, "epochs", 2.0), (TrainConfig, "loss", 5), (TrainConfig, "threshold", None),
         (FocalConfig, "gamma", False), (FocalConfig, "alpha", "0.5"),
         (EncoderConfig, "dropout_rate", True), (EncoderConfig, "dtype", 32)],
    )
    def test_wrong_json_type_names_field(self, config, field, value):
        fixed = {TrainConfig: {"task": "sentiment"}, EncoderConfig: {"vocab_size": 8}}
        with pytest.raises(ValueError, match=f"^{field}: expected an? "):
            config(**fixed.get(config, {}), **{field: value})

    def test_int_passes_as_number_unconverted(self):
        cfg = TrainConfig(task="match", learning_rate=1, focal=FocalConfig(gamma=2), clip_norm=3)
        assert [type(v) for v in (cfg.learning_rate, cfg.focal.gamma, cfg.clip_norm)] == [int] * 3
        assert json.dumps(cfg.to_dict()) == json.dumps(TrainConfig.from_dict(cfg.to_dict()).to_dict())

    @pytest.mark.parametrize("field", ["d_model", "n_heads", "n_layers", "d_ff", "max_len"])
    def test_encoder_dimension_below_one_names_field(self, field):
        with pytest.raises(ValueError, match=f"^{field}: must be >= 1"):
            EncoderConfig(vocab_size=8, **{field: 0})

    def test_round_trip_dict(self):
        cfg = TrainConfig(
            task="match", loss="focal", focal=FocalConfig(1.5, alpha=0.3), seed=4
        )
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestKfoldSplit:
    def test_singleton_folds(self):
        folds = kfold_split(10, 10, 0)
        assert all(len(fold) == 1 for fold in folds)

    def test_pigeonhole_sizes(self):
        folds = kfold_split(10, 3, 0)
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_bounds(self):
        with pytest.raises(ValueError):
            kfold_split(5, 1, 0)
        with pytest.raises(ValueError):
            kfold_split(5, 6, 0)

    @given(st.integers(2, 60), st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_partition_properties(self, n, k, seed):
        if k > n:
            k = n
        folds = kfold_split(n, k, seed)
        all_indices = [i for fold in folds for i in fold]
        assert sorted(all_indices) == list(range(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_seed_determinism(self):
        assert kfold_split(20, 4, 7) == kfold_split(20, 4, 7)
        assert kfold_split(20, 4, 7) != kfold_split(20, 4, 8)


class TestDocumentFolds:
    def test_no_document_on_both_sides(self):
        from finkey.corpus import build_pair_dataset
        from finkey.synthetic import matcher_corpus

        pairs, _ = build_pair_dataset(matcher_corpus(60, seed=7))
        folds = document_folds(pairs, 5, 3)
        assert sorted(p for fold in folds for p in fold) == list(range(len(pairs)))
        for fold in folds:
            dev_docs = {pairs[i].doc_id for i in fold}
            train_docs = {p.doc_id for i, p in enumerate(pairs) if i not in set(fold)}
            assert dev_docs and not dev_docs & train_docs

    def test_one_example_per_document_is_kfold(self):
        docs = word_label_corpus(30)
        assert document_folds(docs, 4, 9) == kfold_split(30, 4, 9)


class TestAdamAndClip:
    def test_adam_moves_toward_minimum(self):
        params = np.array([5.0, -3.0])
        adam = Adam(lr=0.1)
        for _ in range(200):
            adam.step(params, 2 * params)  # d/dw of w^2
        assert np.all(np.abs(params) < 0.1)

    def test_zero_lr_keeps_params(self):
        params = np.array([1.0, 2.0])
        adam = Adam(lr=0.0)
        adam.step(params, np.array([3.0, -4.0]))
        np.testing.assert_array_equal(params, [1.0, 2.0])

    def test_clip_rescales_to_max_norm(self):
        grads = np.array([3.0, 4.0])
        norm = clip_by_global_norm(grads, 1.0, [grads[:1], grads[1:]])
        assert norm == pytest.approx(5.0)
        assert np.sqrt(np.sum(grads**2)) == pytest.approx(1.0)

    def test_clip_leaves_small_gradients(self):
        grads = np.array([0.3])
        clip_by_global_norm(grads, 1.0, [grads])
        np.testing.assert_allclose(grads, [0.3])

    def test_clip_sums_squares_part_by_part(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=1000).astype(np.float32)
        parts = [grads[:7], grads[7:500], grads[500:]]
        want = np.sqrt(sum(float(np.sum(np.square(p, dtype=np.float64))) for p in parts))
        assert clip_by_global_norm(grads.copy(), 1.0, parts) == want


@pytest.fixture(scope="module")
def sentiment_sets():
    docs = word_label_corpus(60)
    return docs[:48], docs[48:]


def all_tensors(ckpt):
    """Every encoder and head tensor of a checkpoint, in checkpoint order."""
    return [*ckpt.encoder_params.named(), *ckpt.head.named()]


class TestTrain:
    def test_bitwise_deterministic(self, sentiment_sets, tmp_path):
        train_set, dev_set = sentiment_sets
        cfg = small_cfg()
        r1 = train(train_set, dev_set, cfg, encoder=SMALL_ENC)
        r2 = train(train_set, dev_set, cfg, encoder=SMALL_ENC)
        save_checkpoint(r1.checkpoint, tmp_path / "a.ckpt")
        save_checkpoint(r2.checkpoint, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert r1.epoch_losses == r2.epoch_losses
        assert r1.checkpoint.dev_score == r2.checkpoint.dev_score

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Products of 512 x 64 x 256 and more, large enough for OpenBLAS to
        # split them over its threads; dropout 0.1 as in the acceptance runs.
        script = """if True:
            import sys
            from finkey.corpus import build_pair_dataset
            from finkey.encoder import EncoderConfig
            from finkey.synthetic import matcher_corpus
            from finkey.training import TrainConfig, save_checkpoint, train

            docs = matcher_corpus(80, seed=4)
            train_set, _ = build_pair_dataset(docs[:60])
            dev_set, _ = build_pair_dataset(docs[60:])
            enc = EncoderConfig(vocab_size=4, d_model=64, n_heads=4, n_layers=2, d_ff=256,
                                max_len=32)
            cfg = TrainConfig(task="match", epochs=2, batch_size=16, learning_rate=1e-3,
                              seed=4, max_len=32)
            save_checkpoint(train(train_set, dev_set, cfg, encoder=enc).checkpoint, sys.argv[1])
        """
        src = str(Path(finkey.training.__file__).parents[1])
        saved = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            path = tmp_path / f"blas-{threads}.ckpt"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                           timeout=300)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_zero_learning_rate_keeps_init(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        cfg = small_cfg(learning_rate=0.0, epochs=2)
        result = train(train_set, dev_set, cfg, encoder=SMALL_ENC)
        expected = init_params(result.checkpoint.encoder_config, cfg.seed)
        for (_, got), (_, want) in zip(
            result.checkpoint.encoder_params.named(), expected.named()
        ):
            assert np.array_equal(got, want)

    def test_loss_decreases_on_learnable_data(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        cfg = small_cfg(epochs=10)
        result = train(train_set, dev_set, cfg, encoder=SMALL_ENC)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_report_lengths_match_epochs(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(epochs=4), encoder=SMALL_ENC)
        assert len(result.epoch_losses) == 4
        assert len(result.epoch_dev_scores) == 4

    def test_best_epoch_checkpointing(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(epochs=6), encoder=SMALL_ENC)
        assert result.checkpoint.dev_score == max(result.epoch_dev_scores)

    def test_empty_sets_rejected(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        with pytest.raises(ValueError):
            train([], dev_set, small_cfg(), encoder=SMALL_ENC)
        with pytest.raises(ValueError):
            train(train_set, [], small_cfg(), encoder=SMALL_ENC)

    def test_vocab_built_from_training_split_only(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(), encoder=SMALL_ENC)
        vocab = result.checkpoint.vocab
        train_tokens = {
            tok for d in train_set for tok in d.cleaned_text.split()
        }
        for tok in vocab.id_to_token[4:]:
            assert tok in train_tokens

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nan_abort_names_batch(self, sentiment_sets):
        train_set, dev_set = sentiment_sets
        cfg = small_cfg(learning_rate=1e18, epochs=3, clip_norm=1e30)
        with pytest.raises(NumericalError, match="batch"):
            train(train_set, dev_set, cfg, encoder=SMALL_ENC)


def nll(scores, gold, valid=True):
    """Reference negative log-softmax of one score row at the gold index,
    normalized over the valid positions."""
    scores = np.asarray(scores, dtype=np.float64)
    return float(logsumexp(scores[valid]) - scores[gold])


class TestBatchStepsMatchPerExampleLosses:
    """The batched training steps must agree with per-example losses."""

    def setup_model(self, task):
        from finkey.tasks import init_head
        from finkey.tokenizer import vocab_from_texts

        vocab = vocab_from_texts(["alpha beta gamma loss gain one two"])
        enc = EncoderConfig(
            vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, d_ff=16,
            max_len=10, dropout_rate=0.0, dtype="float64",
        )
        params = init_params(enc, 0)
        head_kind = {"sentiment": "sentiment", "match": "match", "mrc": "span"}[task]
        head = init_head(head_kind, enc.d_model, np.random.default_rng(1), np.float64)
        return vocab, enc, params, head

    def test_sentiment_step_loss(self):
        from finkey.corpus import Document
        from finkey.tasks import SentimentTask
        from finkey.encoder import forward_batch

        vocab, enc, params, head = self.setup_model("sentiment")
        texts = ["loss alpha", "gain beta", "loss gamma one"]
        labels = [SentimentLabel.NEGATIVE, SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE]
        docs = [Document(str(i), t, t, sentiment=y) for i, (t, y) in enumerate(zip(texts, labels))]
        batch = SentimentTask().encode(docs, vocab, enc.max_len)
        gold = batch.gold
        assert list(gold) == [0, 1, 0]
        hidden = forward_batch(params, enc, batch.ids, batch.mask)
        loss, _, _ = SentimentTask().loss_and_grad(head, hidden, batch)
        expected = np.mean([nll(hidden[i, 0] @ head.w + head.b, int(gold[i])) for i in range(3)])
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_match_step_loss(self):
        from finkey.corpus import PairExample
        from finkey.tasks import FocalConfig, MatchTask, focal_loss_from_logits
        from finkey.encoder import forward_batch

        vocab, enc, params, head = self.setup_model("match")
        pairs = [("alpha", "loss alpha beta"), ("beta", "gain one two")]
        gold = np.array([1, 0])
        examples = [PairExample(str(i), a, b, int(y)) for i, ((a, b), y) in enumerate(zip(pairs, gold))]
        batch = MatchTask().encode(examples, vocab, enc.max_len)
        fc = FocalConfig(gamma=2.0)
        hidden = forward_batch(params, enc, batch.ids, batch.mask)
        loss, _, _ = MatchTask(focal=fc).loss_and_grad(head, hidden, batch)
        z = hidden[:, 0] @ head.w + head.b[0]
        expected = float(focal_loss_from_logits(z, gold, fc)[0].mean())
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_mrc_step_loss(self):
        from finkey.corpus import MrcExample
        from finkey.tasks import SpanTask
        from finkey.encoder import forward_batch

        vocab, enc, params, head = self.setup_model("mrc")
        # Answers "loss alpha" and "gain one": context tokens 4 and 5.
        examples = [
            MrcExample("0", "alpha?", "loss alpha beta", (0, 10)),
            MrcExample("1", "beta?", "gain one two", (0, 8)),
        ]
        batch = SpanTask().encode(examples, vocab, enc.max_len)
        valid = batch.valid
        gold_s, gold_e = batch.gold[:, 0], batch.gold[:, 1]
        assert list(gold_s) == [4, 4] and list(gold_e) == [5, 5]
        hidden = forward_batch(params, enc, batch.ids, batch.mask)
        loss, _, _ = SpanTask().loss_and_grad(head, hidden, batch)
        expected = np.mean(
            [
                0.5 * nll(hidden[i] @ head.w_start + head.b_start[0], int(gold_s[i]), valid[i])
                + 0.5 * nll(hidden[i] @ head.w_end + head.b_end[0], int(gold_e[i]), valid[i])
                for i in range(2)
            ]
        )
        assert loss == pytest.approx(expected, rel=1e-9)


class TestTrimmedTrainingStep:
    """A training step cuts its batch to the real length; at float64 this
    gives the full-length step's loss, gradients and generator state."""

    WORDS = ["alpha", "beta", "gamma", "loss", "gain", "one", "two"]

    def batch_items(self, task, texts):
        items = []
        for i, words in enumerate(texts):
            text = " ".join(words)
            if task == "sentiment":
                label = SentimentLabel.NEGATIVE if i % 2 else SentimentLabel.POSITIVE
                items.append(Document(str(i), text, text, sentiment=label))
            elif task == "match":
                items.append(PairExample(str(i), self.WORDS[i % 7], text, i % 2))
            else:
                items.append(MrcExample(str(i), self.WORDS[i % 7] + "?", text, (0, len(words[0]))))
        return items

    @settings(max_examples=40, deadline=None)
    @given(
        task_name=st.sampled_from(["sentiment", "match", "mrc"]),
        dropout=st.sampled_from([0.0, 0.1]),
        texts=st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=14), min_size=1, max_size=5
        ),
        seed=st.integers(0, 2**16),
    )
    def test_trimmed_step_equals_padded(self, task_name, dropout, texts, seed):
        vocab = vocab_from_texts([" ".join(self.WORDS)])
        enc = EncoderConfig(
            vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2, d_ff=16,
            max_len=20, dropout_rate=dropout, dtype="float64",
        )
        task = TASKS[task_name]()
        params = init_params(enc, seed)
        head = init_head(task.head_kind, enc.d_model, np.random.default_rng(seed), np.float64)
        batch = task.encode(self.batch_items(task_name, texts), vocab, enc.max_len)
        if not batch.n:
            return
        rng_padded, rng_trimmed = np.random.default_rng(seed), np.random.default_rng(seed)

        cache: dict = {}
        hidden = forward_batch(
            params, enc, batch.ids, batch.mask, training=True, rng=rng_padded, cache=cache
        )
        loss, head_grads, d_hidden = task.loss_and_grad(head, hidden, batch)
        padded = [a for _, a in backward_batch(params, enc, cache, d_hidden).named()]
        padded += list(head_grads.values())
        model = ParamStore.of(enc, params, head, task.head_kind)
        trimmed_loss, trimmed = _train_step(task, model, enc, batch, rng_trimmed)

        assert trimmed_loss == pytest.approx(loss, rel=1e-10)
        assert len(trimmed.tensors) == len(padded)
        for k, (got, want) in enumerate(zip(trimmed.tensors, padded)):
            # The key-bias gradients are zero in exact arithmetic (softmax
            # ignores a shift shared by all keys), so at float64 they are
            # rounding noise of about 1e-17; atol covers only that.
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14, err_msg=str(k))
        assert rng_trimmed.bit_generator.state == rng_padded.bit_generator.state


    @pytest.mark.parametrize("task_name, pooled",
                             [("sentiment", True), ("match", True), ("mrc", False)])
    def test_pooled_tasks_cut_the_last_layer(self, monkeypatch, task_name, pooled):
        vocab = vocab_from_texts([" ".join(self.WORDS)])
        enc = EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                            max_len=20, dropout_rate=0.0)
        task = TASKS[task_name]()
        head = init_head(task.head_kind, enc.d_model, np.random.default_rng(0))
        model = ParamStore.of(enc, init_params(enc, 0), head, task.head_kind)
        batch = task.encode(self.batch_items(task_name, [["alpha", "beta"]] * 3), vocab, enc.max_len)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("pooled"))
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(finkey.training, "forward_batch", spy)
        _train_step(task, model, enc, batch, np.random.default_rng(0))
        assert seen == [pooled]


class TestCheckpointSerialization:
    def test_round_trip_bit_exact(self, sentiment_sets, tmp_path):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(), encoder=SMALL_ENC)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        assert len(all_tensors(loaded)) == len(all_tensors(result.checkpoint))
        for (n1, a1), (n2, a2) in zip(all_tensors(result.checkpoint), all_tensors(loaded)):
            assert n1 == n2
            assert a1.dtype == a2.dtype
            assert np.array_equal(a1, a2)
        assert loaded.train_config == result.checkpoint.train_config
        assert loaded.vocab == result.checkpoint.vocab
        assert loaded.dev_score == result.checkpoint.dev_score

    def test_reloaded_checkpoint_predicts_identically(self, sentiment_sets, tmp_path):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(), encoder=SMALL_ENC)
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        for doc in dev_set:
            assert loaded.predict_sentiment(doc.cleaned_text) == (
                result.checkpoint.predict_sentiment(doc.cleaned_text)
            )

    def test_save_is_byte_deterministic(self, sentiment_sets, tmp_path):
        train_set, dev_set = sentiment_sets
        result = train(train_set, dev_set, small_cfg(), encoder=SMALL_ENC)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(result.checkpoint, p1)
        save_checkpoint(result.checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_existing_checkpoint(self, sentiment_sets, tmp_path, monkeypatch):
        train_set, dev_set = sentiment_sets
        first = train(train_set, dev_set, small_cfg(epochs=1), encoder=SMALL_ENC).checkpoint
        second = train(train_set, dev_set, small_cfg(epochs=2), encoder=SMALL_ENC).checkpoint
        path = tmp_path / "model.ckpt"
        save_checkpoint(first, path)
        before = path.read_bytes()

        contiguous = np.ascontiguousarray
        written = []

        def fail_after_first_tensor(arr):
            if written:
                raise OSError("disk full")
            written.append(arr)
            return contiguous(arr)

        monkeypatch.setattr(np, "ascontiguousarray", fail_after_first_tensor)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(second, path)
        monkeypatch.undo()
        assert written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)


def _replace_header(raw: bytes, blob: bytes) -> bytes:
    """A checkpoint with ``blob`` as its header and the tensor bytes kept."""
    n = int.from_bytes(raw[12:20], "little")
    return raw[:12] + len(blob).to_bytes(8, "little") + blob + raw[20 + n :]


def _edit_header(raw: bytes, edit) -> bytes:
    """A checkpoint with its JSON header changed by ``edit`` and the tensor bytes kept."""
    header = json.loads(raw[20 : 20 + int.from_bytes(raw[12:20], "little")])
    edit(header)
    return _replace_header(raw, json.dumps(header, sort_keys=True, separators=(",", ":")).encode())


def _drop_tensor(header, name="encoder.layers.0.bq"):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != name]


def _set_value(raw: bytes, value: float, last: bool = False) -> bytes:
    """A checkpoint with the first value of its first tensor, encoder.embedding,
    or the last value of its last tensor set to ``value``."""
    base = 20 + int.from_bytes(raw[12:20], "little")
    blob = np.array(value, np.dtype(json.loads(raw[20:base])["tensors"][0]["dtype"])).tobytes()
    if last:
        return raw[: len(raw) - len(blob)] + blob
    return raw[:base] + blob + raw[base + len(blob) :]


MALFORMED_CHECKPOINTS = {
    "truncated_header": (lambda raw: raw[:60], "truncated checkpoint header"),
    "truncated_tail": (lambda raw: raw[:-100], "tensor section is"),
    "missing_tensor": (lambda raw: _edit_header(raw, _drop_tensor), "at encoder.layers.0.bq"),
    "no_tensor_index": (
        lambda raw: _edit_header(raw, lambda h: h.pop("tensors")), "lacks 'tensors'"
    ),
    "wrong_shape": (
        lambda raw: _edit_header(raw, lambda h: h["tensors"][-2].update(shape=[8, 3])), "at head.w"
    ),
    "bad_dtype": (
        lambda raw: _edit_header(raw, lambda h: [e.update(dtype="float99") for e in h["tensors"]]),
        "at encoder.embedding",
    ),
    "config_mismatch": (
        lambda raw: _edit_header(raw, lambda h: h["encoder_config"].update(d_model=32)),
        "at encoder.embedding",
    ),
    "vocab_size_mismatch": (
        lambda raw: _edit_header(raw, lambda h: h["vocab"].pop()), "vocab_size is"
    ),
    "max_len_mismatch": (
        lambda raw: _edit_header(raw, lambda h: h["encoder_config"].update(max_len=2)),
        "encoder_config.max_len 2 differs from train_config.max_len 12",
    ),
    "header_nested_too_deeply": (
        lambda raw: _replace_header(raw, b"[" * 200_000), "not valid JSON: nested too deeply"
    ),
    "vocab_without_reserved_tokens": (
        lambda raw: _edit_header(raw, lambda h: h.update(vocab=list("abcd") + h["vocab"][4:])),
        "vocabulary must be strings, the reserved tokens first",
    ),
    "vocab_of_integers": (
        lambda raw: _edit_header(raw, lambda h: h.update(vocab=list(range(len(h["vocab"]))))),
        "vocabulary must be strings, the reserved tokens first",
    ),
    "nan_tensor": (
        lambda raw: _set_value(raw, np.nan), "tensor encoder.embedding holds a non-finite value"
    ),
    "inf_tensor": (
        lambda raw: _set_value(raw, -np.inf), "tensor encoder.embedding holds a non-finite value"
    ),
    "inf_in_last_tensor": (
        lambda raw: _set_value(raw, np.inf, last=True), "tensor head.b holds a non-finite value"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_rejected(sentiment_sets, tmp_path, case):
    """Each malformed file raises one ValueError that names it."""
    train_set, dev_set = sentiment_sets
    result = train(train_set, dev_set, small_cfg(epochs=1), encoder=SMALL_ENC)
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.checkpoint, path)
    corrupt, message = MALFORMED_CHECKPOINTS[case]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def tiny_checkpoint(dtype="float32") -> Checkpoint:
    """An untrained sentiment checkpoint of a one-layer encoder."""
    vocab = vocab_from_texts(["alpha beta gamma"])
    enc = EncoderConfig(
        vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=16, dtype=dtype,
    )
    head = init_head("sentiment", enc.d_model, np.random.default_rng(0), enc.np_dtype)
    return Checkpoint(
        init_params(enc, 0), enc, head, "sentiment", vocab,
        TrainConfig(task="sentiment", max_len=16), 0.5, 0,
    )


class TestSaveValidation:
    def test_arrays_of_another_dtype_rejected(self, tmp_path):
        ckpt = tiny_checkpoint("float64")
        ckpt = replace(ckpt, encoder_config=replace(ckpt.encoder_config, dtype="float32"))
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="at encoder.embedding") as err:
            save_checkpoint(ckpt, path)
        assert str(path) in str(err.value)
        assert list(tmp_path.iterdir()) == []

    def test_head_of_another_shape_rejected(self, tmp_path):
        ckpt = tiny_checkpoint()
        ckpt.head.w = np.zeros((8, 3), np.float32)
        with pytest.raises(ValueError, match="at head.w"):
            save_checkpoint(ckpt, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_vocabulary_of_another_size_rejected(self, tmp_path):
        ckpt = replace(tiny_checkpoint(), vocab=vocab_from_texts(["alpha beta"]))
        with pytest.raises(ValueError, match="vocab_size is"):
            save_checkpoint(ckpt, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_max_len_other_than_training_rejected(self, tmp_path):
        ckpt = tiny_checkpoint()
        ckpt = replace(ckpt, train_config=replace(ckpt.train_config, max_len=32))
        path = tmp_path / "model.ckpt"
        with pytest.raises(
            ValueError, match="encoder_config.max_len 16 differs from train_config.max_len 32"
        ) as err:
            save_checkpoint(ckpt, path)
        assert str(path) in str(err.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_valid_checkpoint_round_trips(self, tmp_path, dtype):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_checkpoint(dtype), path)
        loaded = load_checkpoint(path)
        for (_, a1), (_, a2) in zip(all_tensors(tiny_checkpoint(dtype)), all_tensors(loaded)):
            assert a1.dtype == a2.dtype and np.array_equal(a1, a2)


@pytest.fixture(scope="module")
def tiny_checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(tiny_checkpoint(), path)
    return path.read_bytes()


@st.composite
def mutated_checkpoints(draw, raw):
    """A truncation, or one bit flipped in the header length, anywhere in
    the JSON header, or inside its tensor index."""
    n = int.from_bytes(raw[12:20], "little")
    index_start = raw.index(b'"tensors":', 20)
    region = draw(st.sampled_from(["truncate", "length", "json", "index"]))
    if region == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    lo, hi = {"length": (12, 20), "json": (20, 20 + n), "index": (index_start, 20 + n)}[region]
    pos = draw(st.integers(lo, hi - 1))
    flipped = raw[pos] ^ (1 << draw(st.integers(0, 7)))
    return raw[:pos] + bytes([flipped]) + raw[pos + 1 :]


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_checkpoint_loads_or_raises_value_error(tiny_checkpoint_bytes, tmp_path_factory, data):
    """A damaged header or a cut file loads or raises ValueError, never
    another exception.  Flips inside the tensor bytes are not covered: the
    format has no checksum, so they load as other weights."""
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(data.draw(mutated_checkpoints(tiny_checkpoint_bytes)))
    try:
        load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)


class TestCrossValidate:
    def test_fold_count_and_mean(self):
        docs = word_label_corpus(40)
        cfg = small_cfg(epochs=2)
        result = cross_validate(docs, cfg, 4, encoder=SMALL_ENC)
        assert len(result.fold_scores) == 4
        assert result.mean_score == pytest.approx(
            float(np.mean(result.fold_scores)), abs=1e-12
        )

    def test_perfectly_learnable_dataset_scores_one(self):
        docs = word_label_corpus(40)
        cfg = small_cfg(epochs=25, learning_rate=3e-3)
        result = cross_validate(docs, cfg, 4, encoder=SMALL_ENC)
        assert result.fold_scores == [1.0, 1.0, 1.0, 1.0]


class TestNeighborhoodSearch:
    def test_empty_deltas_returns_base(self):
        docs = word_label_corpus(24)
        cfg = small_cfg(epochs=1)
        result = neighborhood_search(cfg, {}, docs, 2, encoder=SMALL_ENC)
        assert result.best_config == cfg
        assert len(result.table) == 1

    def test_table_covers_grid(self):
        docs = word_label_corpus(24)
        cfg = small_cfg(epochs=1)
        deltas = {"learning_rate": [1e-3, 2e-3], "batch_size": [8, 16]}
        result = neighborhood_search(cfg, deltas, docs, 2, encoder=SMALL_ENC)
        # lr candidates: {1e-3, 2e-3(base)} -> 2; batch: {8(base), 16} -> 2
        assert len(result.table) == 4

    def test_best_score_at_least_base(self):
        docs = word_label_corpus(24)
        cfg = small_cfg(epochs=1)
        deltas = {"epochs": [1, 2]}
        result = neighborhood_search(cfg, deltas, docs, 2, encoder=SMALL_ENC)
        base_rows = [r for r in result.table if r.n_changed == 0]
        assert result.best_score >= base_rows[0].mean_score

    def test_empty_candidate_list_rejected(self):
        docs = word_label_corpus(24)
        with pytest.raises(ValueError):
            neighborhood_search(small_cfg(), {"learning_rate": []}, docs, 2)

    def test_unknown_field_rejected(self):
        docs = word_label_corpus(24)
        with pytest.raises(ValueError):
            neighborhood_search(small_cfg(), {"nope": [1]}, docs, 2)

    @pytest.mark.parametrize(
        "deltas, fragment",
        [
            ({"epochs": ["a"]}, "bad search candidate epochs='a'"),
            ({"epochs": [1.5]}, "bad search candidate epochs=1.5"),
            ({"epochs": [1, 0]}, "bad search candidate epochs=0"),
            ({"epochs": [[2], [2]]}, "bad search candidate epochs=[2]"),
            ({"batch_size": [4], "epochs": [1, 0]}, "bad search candidate epochs=0"),
            ({"loss": ["focal"]}, "bad search field 'loss': sentiment searches epochs"),
        ],
    )
    def test_bad_candidate_rejected_before_any_training(self, monkeypatch, deltas, fragment):
        def no_training(*args, **kwargs):
            raise AssertionError("a grid config trained before the grid was validated")

        monkeypatch.setattr(finkey.training, "cross_validate", no_training)
        with pytest.raises(ValueError, match=re.escape(fragment)):
            neighborhood_search(small_cfg(), deltas, word_label_corpus(24), 2)

    def test_repeated_candidate_trains_once(self, monkeypatch):
        """A value given twice, or equal to the base value, is one grid point:
        one cross_validate call and one table row."""
        trained = []

        def scored(dataset, cfg, k, **kwargs):
            trained.append((cfg.epochs, cfg.batch_size))
            return CrossValResult([0.5] * k, 0.5)

        monkeypatch.setattr(finkey.training, "cross_validate", scored)
        deltas = {"epochs": [2, 2, 1], "batch_size": [8, 8]}
        result = neighborhood_search(small_cfg(epochs=1, batch_size=8), deltas,
                                     word_label_corpus(24), 2)
        assert trained == [(2, 8), (1, 8)]
        assert [row.changes for row in result.table] == [
            {"batch_size": 8, "epochs": 2}, {"batch_size": 8, "epochs": 1}]
