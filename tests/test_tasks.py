import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import finkey.encoder
from finkey.corpus import Document, MrcExample, PairExample, SentimentLabel
from finkey.encoder import EncoderConfig, init_params
from finkey.tasks import (
    Encoded,
    FocalConfig,
    MatchTask,
    SentimentHead,
    SentimentPrediction,
    SentimentTask,
    SpanHead,
    SpanTask,
    build_question,
    classical_fit,
    classical_predict,
    extract_span,
    focal_loss_from_logits,
    init_head,
    predict_sentiment,
    score_entity,
    select_span,
    task_for_head,
)
from finkey.tokenizer import Vocab, encode_pair, vocab_from_texts


def encoded_batch(gold, valid=None):
    """An ``Encoded`` batch carrying only what ``loss_and_grad`` reads:
    gold targets and, for spans, the valid context positions."""
    gold = np.asarray(gold, dtype=np.int64)
    n = gold.shape[0]
    width = 1 if valid is None else valid.shape[1]
    ids = np.zeros((n, width), dtype=np.int64)
    return Encoded([None] * n, [None] * n, ids, np.ones_like(ids), gold, valid)


def sentiment_loss(logits, gold):
    """SentimentTask.loss_and_grad over rows whose [CLS] hidden state is
    the logit row itself (d_model 2, identity weights, zero bias); returns
    the loss, the bias gradient and the gradient on the logits."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    head = SentimentHead(w=np.eye(2), b=np.zeros(2))
    loss, grads, d_hidden = SentimentTask().loss_and_grad(
        head, logits[:, None, :], encoded_batch(np.atleast_1d(gold))
    )
    return loss, grads["b"], d_hidden[:, 0, :]


class TestCrossEntropy:
    """The sentiment loss training runs, SentimentTask.loss_and_grad."""

    def test_uniform_two_way(self):
        loss, _, _ = sentiment_loss([0.0, 0.0], 0)
        np.testing.assert_allclose(loss, math.log(2), atol=1e-12)
        loss, _, _ = sentiment_loss([0.0, 0.0], 1)
        np.testing.assert_allclose(loss, math.log(2), atol=1e-12)

    def test_confident_correct(self):
        loss, _, _ = sentiment_loss([10.0, -10.0], 0)
        # reference value log1p(exp(-20)); log-sum-exp arithmetic is good to
        # a few 1e-16 absolute, which dominates at this magnitude
        np.testing.assert_allclose(loss, math.log1p(math.exp(-20.0)), rtol=1e-6)
        assert loss == pytest.approx(2.061e-9, rel=1e-3)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, -2.0], [0.5, 0.25], [-3.0, 2.0]])
        gold = np.array([1, 0, 1])
        _, grad_b, _ = sentiment_loss(logits, gold)
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        soft = z / z.sum(axis=1, keepdims=True)
        soft[np.arange(3), gold] -= 1.0
        np.testing.assert_allclose(grad_b, soft.mean(axis=0), atol=1e-12)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(20):
            logits = rng.normal(size=2)
            gold = int(rng.integers(0, 2))
            _, _, grad = sentiment_loss(logits, gold)
            for i in range(2):
                bumped = logits.copy()
                bumped[i] += eps
                up, _, _ = sentiment_loss(bumped, gold)
                bumped[i] -= 2 * eps
                down, _, _ = sentiment_loss(bumped, gold)
                fd = (up - down) / (2 * eps)
                g = grad[0, i]
                assert abs(g - fd) / max(abs(g), abs(fd), 1e-6) < 1e-6

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            sentiment_loss([0.0, 0.0], 2)

    def test_extreme_logits_stable(self):
        for gold, expected in ((0, 0.0), (1, 2000.0)):
            loss, grad_b, grad = sentiment_loss([1000.0, -1000.0], gold)
            assert loss == expected
            assert np.all(np.isfinite(grad_b)) and np.all(np.isfinite(grad))


def bce(p, y):
    return -(y * math.log(p) + (1 - y) * math.log(1 - p))


def _alpha_t(cfg: FocalConfig, y: int) -> float:
    if cfg.alpha is None:
        return 1.0
    return cfg.alpha if y == 1 else 1.0 - cfg.alpha


def focal_loss(p: float, y: int, cfg: FocalConfig) -> tuple[float, float]:
    """Focal loss -alpha_t * (1 - p_t)^gamma * log(p_t) for one example.

    ``p`` is the predicted probability of the positive class; the returned
    gradient is taken with respect to the pre-sigmoid logit.  gamma = 0 with
    alpha absent reduces to binary cross-entropy.
    """
    if y not in (0, 1):
        raise ValueError("y must be 0 or 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    a = _alpha_t(cfg, y)
    g = cfg.gamma
    if y == 1:
        loss = -a * (1.0 - p) ** g * np.log(p)
        dz = a * g * p * (1.0 - p) ** g * np.log(p) - a * (1.0 - p) ** (g + 1.0)
    else:
        loss = -a * p**g * np.log1p(-p)
        dz = -a * g * p**g * (1.0 - p) * np.log1p(-p) + a * p ** (g + 1.0)
    return float(loss), float(dz)


def logit_focal_loss(p: float, y: int, cfg: FocalConfig) -> float:
    """The production focal loss of one example at probability ``p``."""
    z = math.log(p) - math.log1p(-p)
    return float(focal_loss_from_logits(np.array([z]), np.array([y]), cfg)[0][0])


class TestFocalLoss:
    """The logit-form loss that training runs; ``focal_loss`` above, the
    probability form it replaced, is the reference it is compared with."""

    def test_gamma_zero_equals_bce_on_grid(self):
        cfg = FocalConfig(gamma=0.0, alpha=None)
        for p in np.arange(0.01, 1.0, 0.01):
            for y in (0, 1):
                assert abs(logit_focal_loss(float(p), y, cfg) - bce(p, y)) < 1e-9

    def test_worked_value(self):
        # p_t = 0.9, gamma = 2 -> 0.01 * (-ln 0.9)
        expected = 0.01 * -math.log(0.9)
        loss_pos = logit_focal_loss(0.9, 1, FocalConfig(gamma=2.0))
        np.testing.assert_allclose(loss_pos, expected, rtol=1e-9)
        loss_neg = logit_focal_loss(0.1, 0, FocalConfig(gamma=2.0))
        np.testing.assert_allclose(loss_neg, expected, rtol=1e-9)
        assert loss_pos == pytest.approx(0.00105361, rel=1e-4)

    def test_monotone_in_pt(self):
        cfg = FocalConfig(gamma=2.0, alpha=0.7)
        grid = np.arange(0.01, 1.0, 0.01)
        losses = [logit_focal_loss(float(p), 1, cfg) for p in grid]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        losses0 = [logit_focal_loss(float(p), 0, cfg) for p in grid]
        assert all(a <= b for a, b in zip(losses0, losses0[1:]))

    def test_loss_vanishes_as_pt_tends_to_one(self):
        cfg = FocalConfig(gamma=2.0)
        assert logit_focal_loss(0.999999, 1, cfg) < 1e-11

    def test_alpha_weighting(self):
        cfg = FocalConfig(gamma=0.0, alpha=0.25)
        loss_pos = logit_focal_loss(0.5, 1, cfg)
        loss_neg = logit_focal_loss(0.5, 0, cfg)
        np.testing.assert_allclose(loss_pos, 0.25 * math.log(2), rtol=1e-12)
        np.testing.assert_allclose(loss_neg, 0.75 * math.log(2), rtol=1e-12)

    def test_gradient_finite_differences(self):
        eps = 1e-6
        for cfg in (FocalConfig(0.0), FocalConfig(2.0), FocalConfig(1.5, alpha=0.3)):
            for z in (-2.0, -0.3, 0.0, 0.7, 3.0):
                for y in (0, 1):
                    losses, dz = focal_loss_from_logits(
                        np.array([z]), np.array([y]), cfg
                    )
                    up, _ = focal_loss_from_logits(np.array([z + eps]), np.array([y]), cfg)
                    down, _ = focal_loss_from_logits(np.array([z - eps]), np.array([y]), cfg)
                    fd = (up[0] - down[0]) / (2 * eps)
                    assert abs(dz[0] - fd) / max(abs(dz[0]), abs(fd), 1e-8) < 1e-5

    def test_logit_form_matches_probability_form(self):
        cfg = FocalConfig(gamma=2.0, alpha=0.4)
        rng = np.random.default_rng(1)
        z = rng.normal(size=50)
        y = rng.integers(0, 2, size=50)
        losses, grads = focal_loss_from_logits(z, y, cfg)
        from scipy.special import expit

        for zi, yi, li, gi in zip(z, y, losses, grads):
            loss, grad = focal_loss(float(expit(zi)), int(yi), cfg)
            np.testing.assert_allclose(li, loss, rtol=1e-9)
            np.testing.assert_allclose(gi, grad, rtol=1e-7, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FocalConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            FocalConfig(alpha=1.5)
        with pytest.raises(ValueError):
            focal_loss(0.0, 1, FocalConfig())
        with pytest.raises(ValueError):
            focal_loss(0.5, 2, FocalConfig())


def detect_key_entities(scored, threshold):
    """The key-entity rule for one model: the entities of (entity, score)
    pairs whose score reaches the threshold, in input order."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return [entity for entity, score in scored if score >= threshold]


class TestDetectKeyEntities:
    def test_thresholds(self):
        scored = [("A", 0.3), ("B", 0.6)]
        assert detect_key_entities(scored, 0.5) == ["B"]
        assert detect_key_entities(scored, 0.2) == ["A", "B"]

    def test_zero_threshold_keeps_all(self):
        scored = [("A", 0.0), ("B", 0.9)]
        assert detect_key_entities(scored, 0.0) == ["A", "B"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            detect_key_entities([("A", 0.5)], 1.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scored = [(f"e{i}", float(s)) for i, s in enumerate(rng.random(8))]
            t1, t2 = sorted(rng.random(2))
            low = set(detect_key_entities(scored, t1))
            high = set(detect_key_entities(scored, t2))
            assert low >= high


class TestBuildQuestion:
    def test_template_substitution(self):
        assert (
            build_question("fraud", "Which company involves {tag}?")
            == "Which company involves fraud?"
        )

    def test_empty_tag_verbatim(self):
        assert build_question("", "Which company involves {tag}?") == (
            "Which company involves ?"
        )

    def test_placeholder_count_enforced(self):
        with pytest.raises(ValueError):
            build_question("t", "no placeholder")
        with pytest.raises(ValueError):
            build_question("t", "{tag} and {tag}")


def bruteforce_span(s, e, valid, max_span_len):
    best = None
    best_score = -np.inf
    n = len(s)
    for i in range(n):
        for j in range(n):
            if not (valid[i] and valid[j]):
                continue
            if j < i or j - i >= max_span_len:
                continue
            score = s[i] + e[j]
            if score > best_score:
                best_score = score
                best = (i, j)
    return best


def where_span(s, e, valid, max_span_len):
    """Reference: select_span with its grid built by np.where over a fresh sum."""
    n = s.shape[0]
    i_idx = np.arange(n)[:, None]
    j_idx = np.arange(n)[None, :]
    allowed = (
        valid[:, None]
        & valid[None, :]
        & (j_idx >= i_idx)
        & (j_idx - i_idx < max_span_len)
    )
    grid = np.where(allowed, s[:, None] + e[None, :], -np.inf)
    flat = int(np.argmax(grid))
    return flat // n, flat % n


# Few distinct values, so sums tie often; signed zeros, infinities and
# magnitudes near overflow besides.
SPAN_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308]),
    st.floats(allow_nan=False),
)


class TestSelectSpan:
    def test_matches_bruteforce_on_random_tensors(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(4, 24))
            s = rng.normal(size=n)
            e = rng.normal(size=n)
            valid = rng.random(n) < 0.7
            if not valid.any():
                valid[int(rng.integers(0, n))] = True
            max_span_len = int(rng.integers(1, 6))
            assert select_span(s, e, valid, max_span_len) == bruteforce_span(
                s, e, valid, max_span_len
            )

    def test_span_len_one_collapses_to_pointwise_argmax(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=10)
        e = rng.normal(size=10)
        valid = np.ones(10, dtype=bool)
        i, j = select_span(s, e, valid, 1)
        assert i == j == int(np.argmax(s + e))

    def test_tie_break_smallest_start_then_end(self):
        s = np.zeros(5)
        e = np.zeros(5)
        valid = np.ones(5, dtype=bool)
        assert select_span(s, e, valid, 3) == (0, 0)

    def test_no_valid_positions(self):
        with pytest.raises(ValueError):
            select_span(np.zeros(4), np.zeros(4), np.zeros(4, dtype=bool), 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(SPAN_SCORES, min_size=n, max_size=n),
                st.lists(SPAN_SCORES, min_size=n, max_size=n),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        ),
        st.integers(1, 8),
    )
    def test_equals_where_over_fresh_sum(self, scores, max_span_len):
        """The grid filled in place picks what np.where over a fresh sum
        picked, ties and signed zeros included."""
        s, e, valid = (np.array(v) for v in scores)
        if not valid.any():
            valid[0] = True
        with np.errstate(over="ignore", invalid="ignore"):
            assert select_span(s, e, valid, max_span_len) == where_span(s, e, valid, max_span_len)


def span_loss(start_scores, end_scores, valid, gold_start, gold_end):
    """SpanTask.loss_and_grad over one row whose hidden state at each
    position is its (start, end) score pair (d_model 2, unit weights, zero
    biases); returns the loss and the gradients on the two score rows."""
    hidden = np.stack([start_scores, end_scores], axis=-1).astype(np.float64)[None]
    head = SpanHead(np.array([1.0, 0.0]), np.zeros(1), np.array([0.0, 1.0]), np.zeros(1))
    batch = encoded_batch([[gold_start, gold_end]], np.asarray(valid, dtype=bool)[None])
    loss, _, d_hidden = SpanTask().loss_and_grad(head, hidden, batch)
    return loss, d_hidden[0, :, 0], d_hidden[0, :, 1]


class TestSpanLoss:
    """The span loss training runs, SpanTask.loss_and_grad."""

    def test_uniform_scores_give_log_n(self):
        n_valid = 7
        valid = np.array([False] * 3 + [True] * n_valid + [False] * 2)
        scores = np.zeros(12)
        loss, _, _ = span_loss(scores, scores, valid, 4, 6)
        np.testing.assert_allclose(loss, math.log(n_valid), atol=1e-12)

    def test_perfect_scores_drive_loss_to_zero(self):
        valid = np.ones(8, dtype=bool)
        s = np.full(8, -30.0)
        e = np.full(8, -30.0)
        s[2] = 30.0
        e[4] = 30.0
        loss, _, _ = span_loss(s, e, valid, 2, 4)
        assert loss < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        valid = np.array([False, True, True, True, True, False])
        s = rng.normal(size=6)
        e = rng.normal(size=6)
        loss, ds, de = span_loss(s, e, valid, 2, 3)
        eps = 1e-6
        for arr, grad, which in ((s, ds, "s"), (e, de, "e")):
            for i in range(6):
                bumped = arr.copy()
                bumped[i] += eps
                up = span_loss(
                    bumped if which == "s" else s,
                    bumped if which == "e" else e,
                    valid, 2, 3,
                )[0]
                bumped[i] -= 2 * eps
                down = span_loss(
                    bumped if which == "s" else s,
                    bumped if which == "e" else e,
                    valid, 2, 3,
                )[0]
                fd = (up - down) / (2 * eps)
                assert abs(grad[i] - fd) < 1e-4 * max(1.0, abs(fd))

    def test_invalid_positions_have_zero_gradient(self):
        valid = np.array([False, True, True, False])
        loss, ds, de = span_loss(np.ones(4), np.ones(4), valid, 1, 2)
        assert ds[0] == ds[3] == de[0] == de[3] == 0.0

    def test_gold_outside_valid_errors(self):
        # Encoding rejects a gold span outside the (truncated) context ...
        vocab = vocab_from_texts(["which alpha one two three four"])
        ex = MrcExample("0", "which alpha", "one two three four", (14, 18))
        data = SpanTask().encode([ex], vocab, 8)
        assert data.n == 0 and "outside the truncated context" in data.errors[0]
        # ... and a gold position outside ``valid`` costs an infinite loss,
        # which training stops at, never a finite one it would learn from.
        valid = np.array([False, True, True, False])
        loss, _, _ = span_loss(np.ones(4), np.ones(4), valid, 0, 2)
        assert loss == math.inf


@pytest.fixture(scope="module")
def tiny_model():
    vocab = vocab_from_texts(["alpha beta gamma", "one two three four"])
    cfg = EncoderConfig(
        vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, d_ff=16,
        max_len=16, dropout_rate=0.0,
    )
    params = init_params(cfg, 11)
    rng = np.random.default_rng(11)
    return vocab, cfg, params, rng


class TestPredictionOps:
    def test_predict_sentiment_probabilities(self, tiny_model):
        vocab, cfg, params, rng = tiny_model
        head = init_head("sentiment", cfg.d_model, np.random.default_rng(1))
        pred = predict_sentiment(params, cfg, vocab, head, "alpha beta one")
        assert 0.0 <= pred.prob_negative <= 1.0
        expected = (
            SentimentLabel.NEGATIVE if pred.prob_negative >= 0.5 else SentimentLabel.POSITIVE
        )
        assert pred.label is expected

    def test_predict_sentiment_deterministic(self, tiny_model):
        vocab, cfg, params, _ = tiny_model
        head = init_head("sentiment", cfg.d_model, np.random.default_rng(1))
        a = predict_sentiment(params, cfg, vocab, head, "alpha beta")
        b = predict_sentiment(params, cfg, vocab, head, "alpha beta")
        assert a == b

    def test_score_entity_in_unit_interval(self, tiny_model):
        vocab, cfg, params, _ = tiny_model
        head = init_head("match", cfg.d_model, np.random.default_rng(2))
        score = score_entity(params, cfg, vocab, head, "alpha", "one two alpha")
        assert 0.0 < score < 1.0
        assert score == score_entity(params, cfg, vocab, head, "alpha", "one two alpha")

    def test_extract_span_returns_context_substring(self, tiny_model):
        vocab, cfg, params, _ = tiny_model
        head = init_head("span", cfg.d_model, np.random.default_rng(3))
        context = "one two three four"
        pred = extract_span(params, cfg, vocab, head, "alpha?", context, 3)
        assert pred.text in context
        assert pred.start_token <= pred.end_token

    def test_extract_span_empty_context(self, tiny_model):
        vocab, cfg, params, _ = tiny_model
        head = init_head("span", cfg.d_model, np.random.default_rng(3))
        with pytest.raises(ValueError):
            extract_span(params, cfg, vocab, head, "alpha?", "", 3)


class TestTrimmedPrediction:
    """The predictors run over the trimmed prefix; the reference rounds
    every length up to max_len, so it runs them at full length."""

    TEXTS = ["alpha", "beta gamma one two", " ".join(["one two three four"] * 12)]

    @pytest.fixture(scope="class")
    def model(self):
        vocab = vocab_from_texts(["alpha beta gamma", "one two three four"])
        cfg = EncoderConfig(
            vocab_size=vocab.size, d_model=48, n_heads=4, n_layers=2, d_ff=96,
            max_len=40, dropout_rate=0.0,
        )
        return vocab, cfg, init_params(cfg, 4)

    @staticmethod
    def predict_all(vocab, cfg, params):
        rng = np.random.default_rng(8)
        heads = {kind: init_head(kind, cfg.d_model, rng) for kind in ("sentiment", "match", "span")}
        out = []
        for text in TestTrimmedPrediction.TEXTS:
            out.append(predict_sentiment(params, cfg, vocab, heads["sentiment"], text))
            out.append(score_entity(params, cfg, vocab, heads["match"], "alpha", text))
            out.append(extract_span(params, cfg, vocab, heads["span"], "alpha?", text))
        return out

    def test_equal_to_full_length_forward(self, model, monkeypatch):
        # Exact equality rests on the BLAS build summing the probs @ vh
        # contraction in blocks that padding to a multiple of 8 keeps intact;
        # it held for OpenBLAS at d_head 12.
        trimmed = self.predict_all(*model)
        monkeypatch.setattr(finkey.encoder, "_LENGTH_MULTIPLE", 10**6)
        assert trimmed == self.predict_all(*model)


WORDS = ["alpha", "beta", "gamma", "one", "two", "three", "four", "loss", "gain"]


@st.composite
def mixed_length_inputs(draw):
    """A model at d_head 8 or 12 and texts of mixed real lengths."""
    d_head = draw(st.sampled_from([8, 12]))
    n_heads = draw(st.sampled_from([1, 2, 4]))
    cfg = EncoderConfig(
        vocab_size=len(WORDS) + 4, d_model=d_head * n_heads, n_heads=n_heads,
        n_layers=draw(st.integers(1, 2)), d_ff=2 * d_head * n_heads,
        max_len=draw(st.integers(8, 48)), dropout_rate=0.0,
    )
    lengths = draw(st.lists(st.integers(1, 50), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    texts = [" ".join(rng.choice(WORDS, size=n)) for n in lengths]
    return cfg, init_params(cfg, draw(st.integers(0, 99))), texts, rng


class TestBatchEqualsSingle:
    """A batch gives each row exactly what the row gives alone."""

    @given(mixed_length_inputs())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_all_heads(self, drawn):
        cfg, params, texts, rng = drawn
        vocab = Vocab.from_tokens(WORDS)
        heads = {kind: init_head(kind, cfg.d_model, rng) for kind in ("sentiment", "match", "span")}
        docs = [Document(str(i), t, t) for i, t in enumerate(texts)]
        pairs = [PairExample(str(i), "gain", t) for i, t in enumerate(texts)]
        questions = [MrcExample(str(i), "loss?", t) for i, t in enumerate(texts)]
        for task, items, single in (
            (SentimentTask(), docs, lambda h, d: predict_sentiment(params, cfg, vocab, h, d.cleaned_text)),
            (MatchTask(), pairs, lambda h, p: score_entity(params, cfg, vocab, h, p.entity, p.text)),
            (SpanTask(), questions, lambda h, q: extract_span(params, cfg, vocab, h, q.question, q.context)),
        ):
            head = heads[task.head_kind]
            data = task.encode(items, vocab, cfg.max_len)
            assert not data.errors
            assert task.run(params, cfg, head, data) == [single(head, item) for item in items]

    def test_empty_batch(self, tiny_model):
        vocab, cfg, params, rng = tiny_model
        for task in (SentimentTask(), MatchTask(), SpanTask()):
            data = task.encode([], vocab, cfg.max_len)
            assert data.ids.shape == (0, cfg.max_len)
            assert task.run(params, cfg, init_head(task.head_kind, cfg.d_model, rng), data) == []


class TestPooledRun:
    """The [CLS] heads run a pooled forward and predict what they predict
    from every position's hidden states."""

    @given(mixed_length_inputs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_equal_to_unpooled_forward(self, drawn):
        cfg, params, texts, rng = drawn
        vocab = Vocab.from_tokens(WORDS)
        docs = [Document(str(i), t, t) for i, t in enumerate(texts)]
        pairs = [PairExample(str(i), "gain", t) for i, t in enumerate(texts)]
        for task, items in ((SentimentTask(), docs), (MatchTask(), pairs)):
            assert task.pooled
            head = init_head(task.head_kind, cfg.d_model, rng)
            data = task.encode(items, vocab, cfg.max_len)
            full = finkey.encoder.forward_inference(params, cfg, data.ids, data.mask)
            assert task.run(params, cfg, head, data) == task.predict(head, full, data)
        assert not SpanTask.pooled


def row_loop_sentiment(head, hidden):
    """SentimentTask.predict as it was: the softmax taken one row at a time."""
    out = []
    for logits in hidden[:, :1, :] @ head.w + head.b:
        z = logits[0] - logits[0].max()
        e = np.exp(z)
        p = float((e / e.sum())[0])
        label = SentimentLabel.NEGATIVE if p >= 0.5 else SentimentLabel.POSITIVE
        out.append(SentimentPrediction(label, p))
    return out


def row_loop_match(head, hidden):
    """MatchTask.predict as it was: expit taken one row at a time."""
    return [float(expit(z[0] + head.b[0])) for z in hidden[:, :1, :] @ head.w]


class TestHeadPostProcessing:
    """The softmax and expit after the row-wise head product run once over
    all rows and give the bits of the former row loop."""

    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 1000),
        st.sampled_from([1e-3, 0.1, 1.0, 10.0, 300.0]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equal_to_row_loop(self, dtype, n, scale, seed):
        rng = np.random.default_rng(seed)
        d = 16
        hidden = rng.standard_normal((n, 2, d)).astype(dtype)
        for task, reference in (
            (SentimentTask(), row_loop_sentiment), (MatchTask(), row_loop_match)
        ):
            head = init_head(task.head_kind, d, rng, dtype)
            head.w *= dtype(scale)
            head.b[...] = rng.uniform(-scale, scale, head.b.shape)
            assert task.predict(head, hidden, None) == reference(head, hidden)


def one_path_case(kind, dtype, seed):
    """A task of a head kind, a head with random biases, random hidden
    states (2-32 rows, 8 positions, d_model 48) and a batch of gold targets
    (for spans, every position valid)."""
    rng = np.random.default_rng(seed)
    n, t, d = int(rng.integers(2, 33)), 8, 48
    task = task_for_head(kind)()
    head = init_head(kind, d, rng, dtype)
    for name, value in head.named():
        if name[0] == "b":
            value[...] = rng.uniform(-1.0, 1.0, value.shape)
    hidden = rng.standard_normal((n, t, d)).astype(dtype)
    if kind == "span":
        batch = encoded_batch(rng.integers(0, t, (n, 2)), np.ones((n, t), dtype=bool))
    else:
        batch = encoded_batch(rng.integers(0, 2, n))
    return task, head, hidden, batch


def as_tuple(logits):
    return logits if isinstance(logits, tuple) else (logits,)


def one_path_cases(*kinds):
    return pytest.mark.parametrize(
        "kind, dtype", [(k, dt) for k in kinds for dt in (np.float32, np.float64)]
    )


class TestOneHeadPath:
    """``Task.logits`` is the one product with the head's weights: training's
    loss and prediction both read it, and a row's logits do not depend on
    its batch."""

    @one_path_cases("sentiment", "match", "span")
    def test_row_logits_equal_the_row_run_alone(self, kind, dtype):
        for seed in range(20):
            task, head, hidden, _ = one_path_case(kind, dtype, seed)
            batched = as_tuple(task.logits(head, hidden))
            for k in range(hidden.shape[0]):
                alone = as_tuple(task.logits(head, hidden[k : k + 1]))
                for b, a in zip(batched, alone):
                    assert b.dtype == dtype
                    assert b[k].tobytes() == a[0].tobytes()

    @one_path_cases("sentiment", "match", "span")
    def test_training_and_prediction_call_logits(self, kind, dtype, monkeypatch):
        task, head, hidden, batch = one_path_case(kind, dtype, 0)
        calls = []
        logits = type(task).logits

        def spy(self, head, hidden):
            calls.append(hidden.shape)
            return logits(self, head, hidden)

        monkeypatch.setattr(type(task), "logits", spy)
        task.loss_and_grad(head, hidden, batch)
        assert calls == [hidden.shape]
        if task.pooled:
            task.predict(head, hidden, batch)
            assert calls == [hidden.shape] * 2

    @one_path_cases("sentiment", "match")
    def test_pooled_loss_is_the_mean_of_row_losses_run_alone(self, kind, dtype):
        """Byte-equal: the training loss of a row does not depend on its batch."""
        for seed in range(20):
            task, head, hidden, batch = one_path_case(kind, dtype, seed)
            loss, _, _ = task.loss_and_grad(head, hidden, batch)
            alone = [task.loss_and_grad(head, hidden[k : k + 1], batch.rows([k]))[0]
                     for k in range(hidden.shape[0])]
            assert loss == np.mean(alone)

    @one_path_cases("sentiment", "match")
    def test_pooled_loss_is_minus_log_of_predicted_gold_probability(self, kind, dtype):
        """The mean -log p(gold) of ``predict``'s probabilities, to rtol 1e-12
        in float64 and 1e-5 in float32, where ``predict`` rounds the
        probabilities to float32.  The largest relative differences over these
        cases were 8.0e-16 and 3.4e-7."""
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        for seed in range(20):
            task, head, hidden, batch = one_path_case(kind, dtype, seed)
            loss, _, _ = task.loss_and_grad(head, hidden, batch)
            preds = task.predict(head, hidden, batch)
            if kind == "sentiment":  # class 0 is negative
                p = np.array([pred.prob_negative for pred in preds])
                p_gold = np.where(batch.gold == 0, p, 1.0 - p)
            else:
                p = np.array(preds)
                p_gold = np.where(batch.gold == 1, p, 1.0 - p)
            np.testing.assert_allclose(loss, -np.log(p_gold).mean(), rtol=rtol)


class TestClassicalHeads:
    def blobs(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(n, 2))
        x1 = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(n, 2))
        x = np.vstack([x0, x1])
        y = np.array([0] * n + [1] * n)
        return x, y

    @pytest.mark.parametrize("kind", ["lr", "svm"])
    def test_separable_blobs_perfect_training_accuracy(self, kind):
        x, y = self.blobs()
        clf = classical_fit(kind, x, y)
        preds = [classical_predict(clf, row) for row in x]
        assert np.mean(np.array(preds) == y) == 1.0

    def test_nbm_symmetric_gaussians_midpoint_boundary(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(loc=-1.0, scale=0.5, size=(500, 1))
        x1 = rng.normal(loc=3.0, scale=0.5, size=(500, 1))
        x = np.vstack([x0, x1])
        y = np.array([0] * 500 + [1] * 500)
        clf = classical_fit("nbm", x, y)
        # midpoint of the class means is 1.0; points on each side classify accordingly
        assert classical_predict(clf, np.array([0.5])) == 0
        assert classical_predict(clf, np.array([1.5])) == 1

    def test_training_accuracy_self_consistent(self):
        x, y = self.blobs(seed=5)
        clf = classical_fit("nbm", x, y)
        acc1 = np.mean([classical_predict(clf, r) for r in x] == y)
        acc2 = np.mean([classical_predict(clf, r) for r in x] == y)
        assert acc1 == acc2

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            classical_fit("lr", x, np.zeros(4, dtype=int))

    def test_unknown_kind(self):
        x, y = self.blobs()
        with pytest.raises(ValueError):
            classical_fit("tree", x, y)

    def test_nbm_variance_floor_applied(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        clf = classical_fit("nbm", x, y)
        assert np.all(clf.variances >= 1e-9)
