import importlib.machinery
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

from finkey.encoder import (
    EncoderConfig,
    backward_batch,
    bow_encode,
    forward,
    forward_batch,
    forward_inference,
    gelu,
    gelu_grad,
    inference_length,
    init_params,
    sinusoidal_positions,
    weight_grad,
)
import finkey.encoder
from finkey.encoder import (
    _LN_EPS,
    _UFUNC_MODULE,
    _layer_norm,
    _layer_norm_backward,
    _merge_heads,
    _normal_cdf,
    _scatter_add_rows,
    _scipy_ufuncs,
    _softmax_backward,
    _softmax_last,
    _split_heads,
    _zero_params,
)
from finkey.tokenizer import encode_pair, encode_single, vocab_from_texts


@pytest.fixture(scope="module")
def vocab():
    return vocab_from_texts(
        ["alpha beta gamma delta epsilon", "one two three four five six"]
    )


def cached_forward(params, cfg, seq):
    """Activation cache of a full-length forward over one sequence."""
    cache: dict = {}
    ids, mask = np.asarray(seq.ids)[None, :], np.asarray(seq.attention_mask)[None, :]
    forward_batch(params, cfg, ids, mask, cache=cache)
    return cache


def tiny_config(vocab, **overrides):
    kwargs = dict(
        vocab_size=vocab.size,
        d_model=8,
        n_heads=2,
        n_layers=2,
        d_ff=16,
        max_len=16,
        dropout_rate=0.0,
        dtype="float64",
    )
    kwargs.update(overrides)
    return EncoderConfig(**kwargs)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, dropout_rate=1.0)

    def test_dtype_switch(self):
        cfg = EncoderConfig(vocab_size=10, dtype="float64")
        assert cfg.np_dtype == np.float64


class TestInit:
    def test_deterministic(self, vocab):
        cfg = tiny_config(vocab)
        p1, p2 = init_params(cfg, 7), init_params(cfg, 7)
        for (n1, a1), (n2, a2) in zip(p1.named(), p2.named()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_different_seed_differs(self, vocab):
        cfg = tiny_config(vocab)
        assert not np.array_equal(
            init_params(cfg, 1).embedding, init_params(cfg, 2).embedding
        )

    def test_biases_zero_scales_one(self, vocab):
        params = init_params(tiny_config(vocab), 3)
        for lp in params.layers:
            for name in ("bq", "bk", "bv", "bo", "b1", "b2", "ln1_b", "ln2_b"):
                assert np.all(getattr(lp, name) == 0.0)
            assert np.all(lp.ln1_g == 1.0) and np.all(lp.ln2_g == 1.0)

    def test_embedding_within_xavier_bound(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 3)
        bound = math.sqrt(6.0 / (cfg.vocab_size + cfg.d_model))
        assert np.all(np.abs(params.embedding) <= bound)
        bound_ff = math.sqrt(6.0 / (cfg.d_model + cfg.d_ff))
        assert np.all(np.abs(params.layers[0].w1) <= bound_ff)


class TestForward:
    def test_output_shapes(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 0)
        seq = encode_single("alpha beta", vocab, cfg.max_len)
        out = forward(params, cfg, seq)
        assert out.sentence_vec.shape == (cfg.d_model,)
        assert out.token_vecs.shape == (cfg.max_len, cfg.d_model)
        assert np.array_equal(out.sentence_vec, out.token_vecs[0])

    def test_attention_rows_sum_to_one(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 0)
        seq = encode_pair("alpha", "one two three", vocab, cfg.max_len)
        cache = cached_forward(params, cfg, seq)
        for layer in cache["layers"]:
            np.testing.assert_allclose(layer["probs"].sum(axis=-1), 1.0, atol=1e-9)

    def test_padded_keys_get_zero_attention(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 0)
        seq = encode_single("alpha", vocab, cfg.max_len)
        cache = cached_forward(params, cfg, seq)
        n_real = seq.n_real
        for layer in cache["layers"]:
            assert np.all(layer["probs"][..., n_real:] == 0.0)

    def test_padding_invariance(self, vocab):
        text = "alpha beta one two"
        params_small_cfg = tiny_config(vocab, max_len=8)
        params = init_params(params_small_cfg, 5)
        big_cfg = tiny_config(vocab, max_len=16)
        out_small = forward(params, params_small_cfg, encode_single(text, vocab, 8))
        out_big = forward(params, big_cfg, encode_single(text, vocab, 16))
        np.testing.assert_allclose(
            out_small.token_vecs[:8], out_big.token_vecs[:8], atol=1e-6
        )

    def test_inference_is_pure(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 5)
        seq = encode_single("alpha beta", vocab, cfg.max_len)
        a = forward(params, cfg, seq).token_vecs
        b = forward(params, cfg, seq).token_vecs
        assert np.array_equal(a, b)

    def test_id_out_of_range(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 0)
        seq = encode_single("alpha", vocab, cfg.max_len)
        # -1 would otherwise read the last embedding row.
        for bad_id in (cfg.vocab_size, -1):
            bad = seq.__class__(
                ids=tuple([bad_id] + list(seq.ids[1:])),
                segment_ids=seq.segment_ids,
                attention_mask=seq.attention_mask,
                offsets=seq.offsets,
            )
            with pytest.raises(ValueError):
                forward(params, cfg, bad)

    @pytest.mark.parametrize("length", [0, 17])
    def test_batch_length_outside_one_to_max_len(self, vocab, length):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 0)
        ids = np.full((2, length), 5, dtype=np.int64)
        for fn in (forward_batch, forward_inference):
            with pytest.raises(ValueError):
                fn(params, cfg, ids, np.ones_like(ids))

    def test_dropout_needs_rng_and_changes_output(self, vocab):
        cfg = tiny_config(vocab, dropout_rate=0.5, dtype="float32")
        params = init_params(cfg, 5)
        seq = encode_single("alpha beta", vocab, cfg.max_len)
        with pytest.raises(ValueError):
            forward(params, cfg, seq, training=True)
        rng = np.random.default_rng(0)
        dropped = forward(params, cfg, seq, training=True, rng=rng)
        plain = forward(params, cfg, seq)
        assert not np.array_equal(dropped.token_vecs, plain.token_vecs)


@st.composite
def trimmed_batches(draw):
    """A random encoder config and a batch of real-prefix rows for it."""
    d_model, n_heads = draw(st.sampled_from([(8, 1), (8, 2), (16, 2), (24, 2), (48, 4)]))
    max_len = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=4))
    cfg = EncoderConfig(
        vocab_size=20, d_model=d_model, n_heads=n_heads, n_layers=2, d_ff=2 * d_model,
        max_len=max_len, dropout_rate=0.0, dtype=draw(st.sampled_from(["float32", "float64"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ids = rng.integers(0, cfg.vocab_size, size=(len(lengths), max_len))
    mask = (np.arange(max_len)[None, :] < np.array(lengths)[:, None]).astype(np.int64)
    return cfg, init_params(cfg, draw(st.integers(0, 99))), ids, mask, lengths


def _padded_keys_add_exactly(dtype: str, t: int, max_len: int) -> bool:
    """Whether this BLAS gives a d_head-12 ``probs @ vh`` over t keys the
    bits of the same product over max_len keys whose extra keys weigh zero.

    The trimmed forward is bit-identical to the full-length one only while
    that holds (README, encoder section).  With OpenBLAS 0.3.31 (Haswell
    kernels) it holds for every float32 pair up to max_len 40, and for every
    float64 pair except t = 8 against max_len >= 16.
    """
    rng = np.random.default_rng(0)
    probs = np.zeros((max_len, max_len), dtype)
    probs[:t, :t] = rng.random((t, t))
    vh = rng.standard_normal((max_len, 48)).astype(dtype)[:, :12]
    return np.array_equal(probs[:t, :t] @ vh[:t], (probs @ vh)[:t])


class TestTrimmedInference:
    @given(trimmed_batches())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_real_positions_match_full_length_forward(self, batch):
        cfg, params, ids, mask, lengths = batch
        t_max = inference_length(mask, cfg.max_len)
        assert t_max == min(cfg.max_len, 8 * math.ceil(max(lengths) / 8))
        groups = forward_inference(params, cfg, ids, mask)
        full = forward_batch(params, cfg, ids, mask)
        assert sorted(r for rows, _ in groups for r in rows.tolist()) == list(range(len(lengths)))
        atol = 1e-12 if cfg.dtype == "float64" else 1e-5
        for rows, hidden in groups:
            t = inference_length(mask[rows], cfg.max_len)
            assert hidden.shape == (len(rows), t, cfg.d_model)
            for k, row in enumerate(rows.tolist()):
                assert inference_length(mask[row : row + 1], cfg.max_len) == t
                got, want = hidden[k, : lengths[row]], full[row, : lengths[row]]
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)
                if cfg.d_model == 48 and _padded_keys_add_exactly(cfg.dtype, t, cfg.max_len):
                    assert np.array_equal(got, want)

    def test_length_of_all_padding_batch_is_one_block(self):
        assert inference_length(np.zeros((3, 20)), 20) == 8
        assert inference_length(np.zeros((3, 5)), 5) == 5

    def test_zero_rows_give_empty_result(self, vocab):
        cfg = tiny_config(vocab)
        ids = np.zeros((0, cfg.max_len), dtype=np.int64)
        assert forward_inference(init_params(cfg, 0), cfg, ids, ids) == []


@st.composite
def pooled_batches(draw):
    """An encoder config and a batch of real-prefix rows at full width."""
    d_head = draw(st.sampled_from([8, 12]))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    max_len = draw(st.sampled_from([1, 4, 128]))
    cfg = EncoderConfig(
        vocab_size=20, d_model=d_head * n_heads, n_heads=n_heads,
        n_layers=draw(st.integers(1, 3)), d_ff=2 * d_head * n_heads, max_len=max_len,
        dropout_rate=0.0, dtype=draw(st.sampled_from(["float32", "float64"])),
    )
    lengths = draw(st.lists(st.integers(1, max_len), min_size=1, max_size=17))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ids = rng.integers(0, cfg.vocab_size, size=(len(lengths), max_len))
    mask = (np.arange(max_len)[None, :] < np.array(lengths)[:, None]).astype(np.int64)
    return cfg, init_params(cfg, draw(st.integers(0, 99))), ids, mask


class TestPooledForward:
    @given(pooled_batches())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_query_rows_equal_full_forward_rows(self, batch):
        cfg, params, ids, mask = batch
        rows = min(2, cfg.max_len)
        pooled = forward_batch(params, cfg, ids, mask, pooled=True)
        full = forward_batch(params, cfg, ids, mask)
        assert pooled.shape == (ids.shape[0], rows, cfg.d_model)
        assert np.array_equal(pooled, full[:, :rows])
        groups = forward_inference(params, cfg, ids, mask, pooled=True)
        full_groups = forward_inference(params, cfg, ids, mask)
        assert len(groups) == len(full_groups)
        for (sel, hidden), (full_sel, full_hidden) in zip(groups, full_groups):
            assert np.array_equal(sel, full_sel)
            assert hidden.shape == (len(sel), rows, cfg.d_model)
            assert np.array_equal(hidden[:, 0], full_hidden[:, 0])

    def test_query_rows_in_training_are_cut_to_two(self, vocab):
        cfg = tiny_config(vocab, dropout_rate=0.1)
        params = init_params(cfg, 0)
        ids = np.full((2, 8), 5, dtype=np.int64)
        mask = np.ones_like(ids)
        caches, outs, rngs = [{}, {}], [], []
        for cache, pooled in zip(caches, (True, False)):
            rngs.append(np.random.default_rng(3))
            outs.append(forward_batch(params, cfg, ids, mask, training=True, rng=rngs[-1],
                                      cache=cache, pooled=pooled))
        assert outs[0].shape == (2, 2, cfg.d_model)
        assert np.array_equal(outs[0], outs[1][:, :2])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        cut, full = caches[0]["layers"][-1], caches[1]["layers"][-1]
        for name in ("x_in", "kh", "vh"):  # keys and values keep all T rows
            assert same_bits(cut[name], full[name]), name
        query_side = {name: (cut[name], full[name]) for name in
                      ("qh", "probs", "ctx", "h1", "ff_pre", "cdf", "act", "drop1", "drop2")}
        for name in ("ln1_aux", "ln2_aux"):
            pairs = enumerate(zip(cut[name], full[name]))
            query_side.update((f"{name}[{i}]", pair) for i, pair in pairs)
        for name, (a, b) in query_side.items():
            assert a.shape[-2] == 2 and b.shape[-2] == 8, name
            assert np.array_equal(a, b[..., :2, :]), name


@st.composite
def pooled_training_batches(draw):
    """A training setup: config, perturbed parameters, a padded batch, an
    upstream gradient on the [CLS] rows and a dropout seed."""
    n_heads = draw(st.integers(1, 4))
    d_model = n_heads * draw(st.sampled_from([8, 12, 16]))
    cfg = EncoderConfig(
        vocab_size=20, d_model=d_model, n_heads=n_heads, n_layers=draw(st.integers(1, 3)),
        d_ff=2 * d_model, max_len=40, dropout_rate=draw(st.sampled_from([0.0, 0.1])),
        dtype=draw(st.sampled_from(["float32", "float64"])),
    )
    t = draw(st.integers(1, cfg.max_len))
    lengths = draw(st.lists(st.integers(1, t), min_size=1, max_size=17))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    params = init_params(cfg, draw(st.integers(0, 99)))
    for _, arr in params.named():
        arr += rng.normal(0, 0.05, arr.shape).astype(arr.dtype)
    ids = rng.integers(0, cfg.vocab_size, size=(len(lengths), t))
    mask = (np.arange(t)[None, :] < np.array(lengths)[:, None]).astype(np.int64)
    d_cls = rng.normal(size=(len(lengths), d_model)).astype(cfg.np_dtype)
    return cfg, params, ids, mask, d_cls, draw(st.integers(0, 2**16))


def reference_backward_batch(params, config, cache, d_hidden):
    """backward_batch as written before it worked in place, kept verbatim
    (with the reference kernels) as the reference it must match bit for bit."""
    grads = _zero_params(config)
    scale = 1.0 / math.sqrt(config.d_head)
    dx = np.asarray(d_hidden, dtype=config.np_dtype)
    for li in range(config.n_layers - 1, -1, -1):
        lp = params.layers[li]
        gl = grads.layers[li]
        c = cache["layers"][li]
        d_sum2, d_g, d_b = reference_layer_norm_backward(dx, lp.ln2_g, c["ln2_aux"])
        gl.ln2_g += d_g
        gl.ln2_b += d_b
        d_h1 = d_sum2.copy()
        d_ff = d_sum2 if c["drop2"] is None else d_sum2 * c["drop2"]
        gl.w2 += weight_grad(c["act"], d_ff)
        gl.b2 += d_ff.sum(axis=(0, 1))
        d_act = d_ff @ lp.w2.T
        d_ff_pre = d_act * reference_gelu_grad(c["ff_pre"], c["cdf"])
        gl.w1 += weight_grad(c["h1"], d_ff_pre)
        gl.b1 += d_ff_pre.sum(axis=(0, 1))
        d_h1 += d_ff_pre @ lp.w1.T
        d_sum1, d_g, d_b = reference_layer_norm_backward(d_h1, lp.ln1_g, c["ln1_aux"])
        gl.ln1_g += d_g
        gl.ln1_b += d_b
        dx_layer = d_sum1.copy()
        d_attn = d_sum1 if c["drop1"] is None else d_sum1 * c["drop1"]
        gl.wo += weight_grad(c["ctx"], d_attn)
        gl.bo += d_attn.sum(axis=(0, 1))
        d_ctx = _split_heads(d_attn @ lp.wo.T, config.n_heads)
        probs, qh, kh, vh = c["probs"], c["qh"], c["kh"], c["vh"]
        d_probs = d_ctx @ vh.swapaxes(-1, -2)
        d_vh = probs.swapaxes(-1, -2) @ d_ctx
        d_scores = reference_softmax_backward(d_probs, probs)
        d_qh = (d_scores @ kh) * scale
        d_kh = (d_scores.swapaxes(-1, -2) @ qh) * scale
        x_in = c["x_in"]
        d_q = _merge_heads(d_qh)
        d_k = _merge_heads(d_kh)
        d_v = _merge_heads(d_vh)
        gl.wq += weight_grad(x_in, d_q)
        gl.bq += d_q.sum(axis=(0, 1))
        gl.wk += weight_grad(x_in, d_k)
        gl.bk += d_k.sum(axis=(0, 1))
        gl.wv += weight_grad(x_in, d_v)
        gl.bv += d_v.sum(axis=(0, 1))
        dx_layer += d_q @ lp.wq.T + d_k @ lp.wk.T + d_v @ lp.wv.T
        dx = dx_layer
    reference_scatter_add_rows(grads.embedding, cache["ids"], dx)
    return grads


class TestPooledTraining:
    """A pooled training forward and backward give the full forward's [CLS]
    rows and generator state, and its gradients up to the grouping of the
    sums over positions, when only the [CLS] rows get a gradient; after a
    full forward, backward_batch gives the bytes of the allocating
    reference backward."""

    @given(pooled_training_batches())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_gradients_match_full_forward(self, setup):
        cfg, params, ids, mask, d_cls, seed = setup
        results = []
        for pooled in (True, False):
            cache, rng = {}, np.random.default_rng(seed)
            hidden = forward_batch(params, cfg, ids, mask, training=True, rng=rng, cache=cache,
                                   pooled=pooled)
            d_hidden = np.zeros_like(hidden)
            d_hidden[:, 0] = d_cls
            grads = backward_batch(params, cfg, cache, d_hidden)
            results.append((hidden[:, 0], list(grads.named()), rng.bit_generator.state))
        (cls_cut, grads_cut, state_cut), (cls_full, grads_full, state_full) = results
        assert same_bits(cls_cut, cls_full)
        assert state_cut == state_full
        # Over 300 random setups the largest difference was 2.9e-14 in
        # float64 and 1.1e-5 in float32.
        rtol, atol = (1e-9, 1e-12) if cfg.dtype == "float64" else (1e-4, 3e-5)
        for (name, cut), (_, full) in zip(grads_cut, grads_full):
            np.testing.assert_allclose(cut, full, rtol=rtol, atol=atol, err_msg=name)
        reference = reference_backward_batch(params, cfg, cache, d_hidden)
        assert all(same_bits(a, b) for (_, a), (_, b) in zip(grads_full, reference.named()))


def finite_difference_check(params, cfg, seq, upstream, atol=1e-8, rtol=1e-4):
    """All-coordinate central-difference check of backward_batch().

    Differences below ``atol`` count as agreement: central differences carry
    cancellation noise around 1e-10 even at float64, and some parameters
    (e.g. key-projection biases) have exactly zero analytic gradient.
    """
    grads = backward_batch(params, cfg, cached_forward(params, cfg, seq), upstream[None])
    eps = 1e-5
    worst = 0.0
    for (name, arr), (_, garr) in zip(params.named(), grads.named()):
        flat, gflat = arr.ravel(), garr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float((forward(params, cfg, seq).token_vecs * upstream).sum())
            flat[i] = orig - eps
            down = float((forward(params, cfg, seq).token_vecs * upstream).sum())
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            diff = abs(gflat[i] - fd)
            if diff <= atol:
                continue
            worst = max(worst, diff / max(abs(gflat[i]), abs(fd)))
    return worst, rtol


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 1)
        seq = encode_single("alpha beta", vocab, cfg.max_len)
        cache = cached_forward(params, cfg, seq)
        grads = backward_batch(params, cfg, cache, np.zeros((1, 16, 8)))
        for _, g in grads.named():
            assert np.all(g == 0.0)

    def test_unused_vocab_rows_zero_grad(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 1)
        seq = encode_single("alpha beta", vocab, cfg.max_len)
        cache = cached_forward(params, cfg, seq)
        rng = np.random.default_rng(0)
        grads = backward_batch(params, cfg, cache, rng.normal(size=(1, 16, 8)))
        used = set(seq.ids)
        for row in range(cfg.vocab_size):
            if row not in used:
                assert np.all(grads.embedding[row] == 0.0)

    def test_finite_differences_small_config(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 2)
        seq = encode_pair("alpha", "one two three alpha beta", vocab, cfg.max_len)
        rng = np.random.default_rng(3)
        upstream = rng.normal(size=(cfg.max_len, cfg.d_model))
        worst, rtol = finite_difference_check(params, cfg, seq, upstream)
        assert worst < rtol

    def test_backward_adds_into_given_grads(self, vocab):
        cfg = tiny_config(vocab)
        params = init_params(cfg, 2)
        cache = cached_forward(params, cfg, encode_single("alpha", vocab, cfg.max_len))
        d_cls = np.zeros((1, cfg.max_len, cfg.d_model))
        d_cls[0, 0] = 1.0  # an upstream gradient on the sentence vector
        d_rest = np.random.default_rng(0).normal(size=d_cls.shape)
        d_rest[0, 0] = 0.0
        g_cls = backward_batch(params, cfg, cache, d_cls)
        g_rest = backward_batch(params, cfg, cache, d_rest)
        want = [g + r for (_, g), (_, r) in zip(g_cls.named(), g_rest.named())]
        summed = backward_batch(params, cfg, cache, d_rest, g_cls)
        assert summed is g_cls
        for (name, got), w in zip(summed.named(), want):
            np.testing.assert_allclose(got, w, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_weight_grad_equals_einsum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7, 8))
        dy = rng.normal(size=(3, 7, 5))
        np.testing.assert_allclose(
            weight_grad(x, dy), np.einsum("btd,bte->de", x, dy), rtol=1e-12
        )
        scores = rng.normal(size=(3, 7))  # the span head's per-token form
        np.testing.assert_allclose(
            weight_grad(x, scores[..., None])[:, 0],
            np.einsum("btd,bt->d", x, scores),
            rtol=1e-12,
        )

    def test_dropout_masks_independent_of_length(self, vocab):
        cfg = tiny_config(vocab, dropout_rate=0.3)
        params = init_params(cfg, 2)
        seq = encode_single("alpha beta one", vocab, cfg.max_len)
        ids = np.asarray(seq.ids)[None, :]
        mask = np.asarray(seq.attention_mask)[None, :]
        rng_full, rng_cut = np.random.default_rng(6), np.random.default_rng(6)
        full = forward_batch(params, cfg, ids, mask, training=True, rng=rng_full)
        cut = forward_batch(params, cfg, ids[:, :8], mask[:, :8], training=True, rng=rng_cut)
        np.testing.assert_allclose(cut[0, :5], full[0, :5], rtol=1e-12)
        assert rng_cut.bit_generator.state == rng_full.bit_generator.state


class TestGelu:
    def test_matches_numerical_derivative(self):
        x = np.linspace(-4, 4, 200)
        h = 1e-6
        numeric = (gelu(x + h) - gelu(x - h)) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x), numeric, atol=1e-8)

    def test_shared_cdf_gives_same_values(self):
        x = np.linspace(-4, 4, 200, dtype=np.float32)
        act, cdf = gelu(x, return_cdf=True)
        assert np.array_equal(act, gelu(x))
        assert np.array_equal(gelu_grad(x, cdf), gelu_grad(x))

    def test_known_values(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        np.testing.assert_allclose(gelu(np.array([100.0]))[0], 100.0)

    def test_input_unchanged(self):
        x = np.linspace(-4, 4, 50, dtype=np.float32)
        before = x.copy()
        gelu(x, return_cdf=True)
        assert x.tobytes() == before.tobytes()


def strided_floats(dtype, step=257, chunk=1 << 20):
    """Every ``step``-th bit pattern of a float32, or of a float64's high 32
    bits (its low 32 bits drawn at random), in chunks, then signed zeros,
    subnormals, the extremes, infinities and NaN."""
    rng = np.random.default_rng(0)
    for start in range(0, 1 << 32, step * chunk):
        bits = np.arange(start, min(start + step * chunk, 1 << 32), step, dtype=np.uint64)
        if dtype is np.float32:
            yield bits.astype(np.uint32).view(np.float32)
        else:
            low = rng.integers(0, 1 << 32, bits.size, np.uint64)
            yield ((bits << np.uint64(32)) | low).view(np.float64)
    info = np.finfo(dtype)
    largest_subnormal = np.nextafter(info.smallest_normal, dtype(0))
    special = np.array(
        [0.0, info.smallest_subnormal, largest_subnormal, info.smallest_normal, info.max, np.inf,
         np.nan], dtype,
    )
    yield np.concatenate([special, -special])


class TestErfFold:
    """Phi(x) takes erf of |x| / sqrt 2 and puts the sign back; scipy's erf
    is odd to the bit, so Phi keeps the bits of erf(x / sqrt 2).  CI checks
    the oddness on every float32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normal_cdf_keeps_the_bits(self, dtype):
        for x in strided_floats(dtype):
            nan = np.isnan(x)
            with np.errstate(all="ignore"):
                got = _normal_cdf(x)
                u = x / math.sqrt(2.0)
                want = 0.5 * (1.0 + erf(u))
                assert same_bits(erf(-u[~nan]), -erf(u[~nan]))
            assert np.array_equal(np.isnan(got), nan)
            assert same_bits(got[~nan], want[~nan])


def run_python(script: str) -> None:
    """Run ``script`` in a fresh interpreter that imports finkey from this
    checkout; a failed assert there fails the test."""
    src = str(Path(finkey.encoder.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


class TestScipyUfuncs:
    """finkey takes erf and expit from scipy's compiled ufunc module, so that
    importing it never runs scipy.special's package __init__."""

    def test_import_leaves_scipy_special_unloaded(self):
        run_python("import sys, finkey, finkey.cli\n"
                   "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
                   f"assert {_UFUNC_MODULE!r} in sys.modules")

    @pytest.mark.parametrize("first", ["finkey", "scipy.special"])
    def test_ufuncs_are_those_scipy_special_exports(self, first):
        imports = ["import finkey.encoder, finkey.tasks", "import scipy.special"]
        if first == "scipy.special":
            imports.reverse()
        run_python("\n".join(imports) + "\n"
                   "assert finkey.encoder.erf is scipy.special.erf\n"
                   "assert finkey.tasks.expit is scipy.special.expit")

    @pytest.mark.parametrize("case", ["no file", "broken file", "names missing"])
    def test_fallback_is_scipy_special(self, case, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, _UFUNC_MODULE)
        if case == "broken file":
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / f"_special_ufuncs{suffix}").write_bytes(b"not a shared object")
        elif case == "names missing":
            monkeypatch.setitem(sys.modules, _UFUNC_MODULE, types.ModuleType(_UFUNC_MODULE))
        erf_, expit_ = _scipy_ufuncs(tmp_path)
        assert erf_ is scipy.special.erf and expit_ is scipy.special.expit
        if case != "names missing":
            assert _UFUNC_MODULE not in sys.modules  # a failed load leaves no entry


# The kernels as written before they worked in place, kept verbatim as the
# reference the in-place ones must match bit for bit.
def reference_layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def reference_softmax_last(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_gelu(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    act = x * cdf
    return act, cdf


def reference_gelu_grad(x, cdf=None):
    if cdf is None:
        cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def reference_layer_norm_backward(dy, g, aux):
    xhat, inv = aux
    d_g = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    d_b = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, d_g, d_b


def reference_softmax_backward(d_probs, probs):
    return probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))


def reference_scatter_add_rows(table, ids, rows):
    np.add.at(table, ids.reshape(-1), rows.reshape(-1, table.shape[-1]).astype(table.dtype))


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def kernel_inputs(draw, max_side=5):
    """Arrays of float32 or float64 with last axis 1-64; signed zeros,
    magnitudes near overflow and ordinary values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    lead = draw(st.lists(st.integers(1, max_side), min_size=0, max_size=2))
    shape = (*lead, draw(st.integers(1, 64)))
    elements = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e4, 1e4, width=width),
        st.floats(allow_nan=False, allow_infinity=False, width=width),
    )
    return draw(hnp.arrays(dtype, shape, elements=elements))


class TestInPlaceKernels:
    """The in-place layer norm, softmax and GELU, their backward passes and
    the flat embedding scatter give the old bits."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(), st.data())
    def test_layer_norm(self, x, data):
        d = x.shape[-1]
        g = data.draw(hnp.arrays(x.dtype, d, elements=st.floats(-3, 3, width=x.dtype.itemsize * 8)))
        b = data.draw(hnp.arrays(x.dtype, d, elements=st.floats(-3, 3, width=x.dtype.itemsize * 8)))
        before = x.copy()
        with np.errstate(all="ignore"):
            y, (xhat, inv) = _layer_norm(x, g, b)
            ref_y, (ref_xhat, ref_inv) = reference_layer_norm(x, g, b)
        assert same_bits(y, ref_y)
        assert same_bits(xhat, ref_xhat)
        assert same_bits(inv, ref_inv)
        assert same_bits(x, before)

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(), st.data())
    def test_softmax_last(self, x, data):
        # Mask every key but the first ([CLS]) of some rows to -inf.
        masked = data.draw(hnp.arrays(bool, x.shape))
        masked[..., 0] = False
        x = np.where(masked, x.dtype.type(-np.inf), x)
        with np.errstate(all="ignore"):
            ref = reference_softmax_last(x)
            out = _softmax_last(x)
        assert out is x
        assert same_bits(out, ref)

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs())
    def test_gelu(self, x):
        before = x.copy()
        with np.errstate(all="ignore"):
            act, cdf = gelu(x, return_cdf=True)
            ref_act, ref_cdf = reference_gelu(x)
        assert same_bits(act, ref_act)
        assert same_bits(cdf, ref_cdf)
        assert same_bits(x, before)

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(), st.booleans())
    def test_gelu_grad(self, x, shared_cdf):
        with np.errstate(all="ignore"):
            cdf = reference_gelu(x)[1] if shared_cdf else None
            inputs = [a for a in (x, cdf) if a is not None]
            before = [a.copy() for a in inputs]
            got = gelu_grad(x, cdf)
            want = reference_gelu_grad(x, cdf)
        assert same_bits(got, want)
        assert all(same_bits(a, b) for a, b in zip(inputs, before))

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(), st.data())
    def test_layer_norm_backward(self, x, data):
        width = x.dtype.itemsize * 8
        g = data.draw(hnp.arrays(x.dtype, x.shape[-1], elements=st.floats(-3, 3, width=width)))
        dy = data.draw(hnp.arrays(x.dtype, x.shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, width=width))))
        with np.errstate(all="ignore"):
            aux = _layer_norm(x, g, np.zeros_like(g))[1]
            before = [a.copy() for a in (dy, *aux)]
            got = _layer_norm_backward(dy, g, aux)
            want = reference_layer_norm_backward(dy, g, aux)
        assert all(same_bits(a, b) for a, b in zip(got, want))
        assert all(same_bits(a, b) for a, b in zip((dy, *aux), before))

    @settings(max_examples=200, deadline=None)
    @given(kernel_inputs(), st.data())
    def test_softmax_backward(self, x, data):
        width = x.dtype.itemsize * 8
        masked = data.draw(hnp.arrays(bool, x.shape))
        masked[..., 0] = False
        with np.errstate(all="ignore"):
            probs = reference_softmax_last(np.where(masked, x.dtype.type(-np.inf), x))
        d_probs = data.draw(hnp.arrays(x.dtype, x.shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, width=width))))
        before = probs.copy()
        with np.errstate(all="ignore"):
            want = reference_softmax_backward(d_probs, probs)
            got = _softmax_backward(d_probs, probs)
        assert got is d_probs
        assert same_bits(got, want)
        assert same_bits(probs, before)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 6),  # table rows: few, so ids repeat
        st.integers(1, 16),  # row width
        st.lists(st.integers(1, 5), min_size=1, max_size=2),  # leading shape of ids
        st.data(),
    )
    def test_scatter_add_rows(self, dtype, n, d, lead, data):
        width = np.dtype(dtype).itemsize * 8
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e6, 1e6, width=width))
        table = data.draw(hnp.arrays(dtype, (n, d), elements=values))  # grads already there
        ids = data.draw(hnp.arrays(np.int64, lead, elements=st.integers(0, n - 1)))
        rows = data.draw(hnp.arrays(dtype, (*lead, d), elements=values))
        want = table.copy()
        reference_scatter_add_rows(want, ids, rows)
        _scatter_add_rows(table, ids, rows)
        assert same_bits(table, want)
        with pytest.raises(ValueError, match="C-contiguous"):
            _scatter_add_rows(np.zeros((3, 2), dtype).T, ids, rows)


class RecordingCache(dict):
    """An activation cache that copies each array as forward_batch records it."""

    def __init__(self):
        super().__init__()
        self.recorded = []  # (name, array as recorded, copy taken then)

    def record(self, name, value):
        if isinstance(value, np.ndarray):
            self.recorded.append((name, value, value.copy()))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                self.record(f"{name}[{i}]", item)

    def __setitem__(self, key, value):
        if isinstance(value, list):
            value = RecordingLayers(self, value)
        else:
            self.record(key, value)
        super().__setitem__(key, value)


class RecordingLayers(list):
    def __init__(self, cache, items):
        super().__init__(items)
        self.cache = cache

    def append(self, layer):
        for name, value in layer.items():
            self.cache.record(f"layers.{len(self)}.{name}", value)
        super().append(layer)


class TestForwardLeavesArraysAlone:
    """forward_batch works in place on its own temporaries only."""

    def setup_inputs(self, vocab, dtype):
        cfg = tiny_config(vocab, dropout_rate=0.1, dtype=dtype)
        params = init_params(cfg, 4)
        rng = np.random.default_rng(5)
        for _, arr in params.named():
            if arr.ndim == 1:
                arr += rng.normal(0, 0.3, arr.shape).astype(arr.dtype)
        ids = rng.integers(0, vocab.size, (3, 16))
        mask = (np.arange(16)[None, :] < np.array([[16], [9], [3]])).astype(np.int64)
        return cfg, params, ids, mask

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("mode", ["inference", "pooled", "training", "pooled_training"])
    def test_inputs_parameters_and_cache_unchanged(self, vocab, dtype, mode):
        cfg, params, ids, mask = self.setup_inputs(vocab, dtype)
        before = [a.copy() for a in (ids, mask, *(t for _, t in params.named()))]
        cache = RecordingCache() if mode.endswith("training") else None
        forward_batch(
            params, cfg, ids, mask,
            training=cache is not None, rng=np.random.default_rng(6), cache=cache,
            pooled=mode.startswith("pooled"),
        )
        after = [ids, mask, *(t for _, t in params.named())]
        assert all(same_bits(a, b) for a, b in zip(after, before))
        if cache is not None:
            names = {name for name, _, _ in cache.recorded}
            assert {"layers.0.x_in", "layers.1.probs", "layers.1.ln2_aux[0]", "layers.1.drop2"} <= names
            changed = [name for name, arr, copy in cache.recorded if not same_bits(arr, copy)]
            assert changed == []


class TestPositions:
    def test_shape_and_range(self):
        table = sinusoidal_positions(12, 8)
        assert table.shape == (12, 8)
        assert np.all(np.abs(table) <= 1.0)

    def test_prefix_stability(self):
        small = sinusoidal_positions(8, 8, np.float64)
        big = sinusoidal_positions(16, 8, np.float64)
        np.testing.assert_array_equal(small, big[:8])

    def test_cached_per_dtype_and_read_only(self):
        table = sinusoidal_positions(12, 8, np.float32)
        assert table is sinusoidal_positions(12, 8, np.float32)
        assert table.dtype == np.float32 and not table.flags.writeable
        wide = sinusoidal_positions(12, 8, np.float64)
        assert same_bits(table, wide.astype(np.float32))


class TestBowEncode:
    def test_empty_sequence_is_zero(self, vocab):
        seq = encode_single("", vocab, 8)
        assert np.all(bow_encode(seq, vocab.size) == 0.0)

    def test_term_frequencies_normalized(self, vocab):
        seq = encode_single("alpha alpha beta", vocab, 8)
        vec = bow_encode(seq, vocab.size)
        a, b = vocab.lookup("alpha"), vocab.lookup("beta")
        np.testing.assert_allclose(vec[a], 2 / math.sqrt(5))
        np.testing.assert_allclose(vec[b], 1 / math.sqrt(5))
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, atol=1e-9)

    def test_order_invariance(self, vocab):
        v1 = bow_encode(encode_single("alpha beta gamma", vocab, 8), vocab.size)
        v2 = bow_encode(encode_single("gamma alpha beta", vocab, 8), vocab.size)
        np.testing.assert_array_equal(v1, v2)

    def test_norm_is_zero_or_one(self, vocab):
        for text in ("", "alpha", "alpha beta beta", "zzz unknown words"):
            vec = bow_encode(encode_single(text, vocab, 16), vocab.size)
            norm = np.linalg.norm(vec)
            assert norm == 0.0 or abs(norm - 1.0) <= 1e-9
