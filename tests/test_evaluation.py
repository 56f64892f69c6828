from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finkey.evaluation
import finkey.tasks
import finkey.training
from finkey.corpus import Document, Lexicon, PairExample, SentimentLabel, clean_text
from finkey.encoder import EncoderConfig
from finkey.evaluation import (
    EnsembleSpec,
    ensemble_train,
    run_pipeline,
    vote_sentiment,
)
from finkey.tasks import EntityMetrics, MatchTask, SentimentPrediction, accuracy, entity_prf
from finkey.tokenizer import encode_pair, vocab_from_texts
from finkey.training import TrainConfig, train

NEG = SentimentLabel.NEGATIVE
POS = SentimentLabel.POSITIVE


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([NEG, POS], [NEG, POS]) == 1.0

    def test_three_of_four(self):
        assert accuracy([NEG, NEG, POS, POS], [NEG, NEG, POS, NEG]) == 0.75

    def test_errors(self):
        with pytest.raises(ValueError):
            accuracy([NEG], [NEG, POS])
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 2, size=n)
            golds = rng.integers(0, 2, size=n)
            expected = sum(int(p == g) for p, g in zip(preds, golds)) / n
            assert accuracy(list(preds), list(golds)) == pytest.approx(expected)


def bruteforce_prf(pred_sets, gold_sets):
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        pred, gold = set(pred), set(gold)
        for e in pred:
            if e in gold:
                tp += 1
            else:
                fp += 1
        for e in gold:
            if e not in pred:
                fn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return tp, fp, fn, p, r, f1


class TestEntityPrf:
    def test_perfect_match(self):
        m = entity_prf([{"A"}, {"B", "C"}], [{"A"}, {"B", "C"}])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        m = entity_prf([{"A", "C"}, {"D"}], [{"A", "B"}, {"D"}])
        assert (m.tp, m.fp, m.fn) == (2, 1, 1)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_zero_denominator_conventions(self):
        m = entity_prf([set(), set()], [{"A"}, set()])
        assert (m.tp, m.fp) == (0, 0)
        assert m.precision == 0.0 and m.f1 == 0.0
        empty = entity_prf([set()], [set()])
        assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entity_prf([{"A"}], [])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        pool = [f"e{i}" for i in range(12)]
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            preds = [
                {pool[i] for i in rng.choice(12, size=rng.integers(0, 5), replace=False)}
                for _ in range(n)
            ]
            golds = [
                {pool[i] for i in rng.choice(12, size=rng.integers(0, 5), replace=False)}
                for _ in range(n)
            ]
            m = entity_prf(preds, golds)
            tp, fp, fn, p, r, f1 = bruteforce_prf(preds, golds)
            assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
            assert m.precision == pytest.approx(p)
            assert m.recall == pytest.approx(r)
            assert m.f1 == pytest.approx(f1)

    def test_f1_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            tp = int(rng.integers(1, 50))
            fp = int(rng.integers(0, 50))
            fn = int(rng.integers(0, 50))
            m = EntityMetrics.from_counts(tp, fp, fn)
            assert m.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn), abs=1e-12)


class TestVoteSentiment:
    def member(self, label, p):
        return SentimentPrediction(label=label, prob_negative=p)

    def test_majority_wins(self):
        members = [self.member(NEG, 0.9)] * 7 + [self.member(POS, 0.1)] * 3
        assert vote_sentiment(members).label is NEG

    def test_tie_uses_mean_probability(self):
        members = [self.member(NEG, 0.9), self.member(POS, 0.32)]
        voted = vote_sentiment(members)
        assert voted.label is NEG  # mean 0.61 >= 0.5
        assert voted.prob_negative == pytest.approx(0.61)
        members = [self.member(NEG, 0.52), self.member(POS, 0.1)]
        assert vote_sentiment(members).label is POS  # mean 0.31 < 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            vote_sentiment([])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            probs = rng.random(n)
            members = [
                self.member(NEG if p >= 0.5 else POS, float(p)) for p in probs
            ]
            voted = vote_sentiment(members)
            n_neg = sum(p >= 0.5 for p in probs)
            n_pos = n - n_neg
            if n_neg > n_pos:
                expected = NEG
            elif n_pos > n_neg:
                expected = POS
            else:
                expected = NEG if probs.mean() >= 0.5 else POS
            assert voted.label is expected
            assert voted.prob_negative == pytest.approx(float(probs.mean()))

    def test_odd_members_never_tie(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            probs = rng.random(5)
            members = [self.member(NEG if p >= 0.5 else POS, float(p)) for p in probs]
            voted = vote_sentiment(members)
            labels = [m.label for m in members]
            majority = NEG if labels.count(NEG) > labels.count(POS) else POS
            assert voted.label is majority


def vote_key_entities(member_scores, score_threshold):
    """The key-entity vote over every member's scores: entities marked key
    by a strict majority of the members, each member giving (entity, score)
    pairs over the same entity list, in entity-list order."""
    if not 0.0 <= score_threshold <= 1.0:
        raise ValueError("score_threshold must lie in [0, 1]")
    if not member_scores:
        raise ValueError("need at least one ensemble member")
    entity_lists = [[e for e, _ in member] for member in member_scores]
    if any(el != entity_lists[0] for el in entity_lists[1:]):
        raise ValueError("ensemble members scored different entity lists")
    return [
        entity for i, entity in enumerate(entity_lists[0])
        if 2 * sum(member[i][1] >= score_threshold for member in member_scores)
        > len(member_scores)
    ]


class TestVoteKeyEntities:
    def test_single_member_equals_thresholding(self):
        member = [("A", 0.3), ("B", 0.6)]
        assert vote_key_entities([member], 0.5) == ["B"]
        assert vote_key_entities([member], 0.2) == ["A", "B"]

    def test_majority_of_three(self):
        members = [
            [("A", 0.9), ("B", 0.1)],
            [("A", 0.8), ("B", 0.6)],
            [("A", 0.2), ("B", 0.7)],
        ]
        assert vote_key_entities(members, 0.5) == ["A", "B"]

    def test_strict_majority_required(self):
        members = [[("A", 0.9)], [("A", 0.1)]]
        assert vote_key_entities(members, 0.5) == []  # 1 of 2 is not a majority

    def test_inconsistent_lists_rejected(self):
        with pytest.raises(ValueError):
            vote_key_entities([[("A", 0.5)], [("B", 0.5)]], 0.5)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            entities = [f"e{i}" for i in range(6)]
            members = [
                [(e, float(s)) for e, s in zip(entities, rng.random(6))]
                for _ in range(3)
            ]
            t1, t2 = sorted(rng.random(2))
            low = set(vote_key_entities(members, t1))
            high = set(vote_key_entities(members, t2))
            assert low >= high

    def test_order_preserved(self):
        member = [("Z", 0.9), ("A", 0.9), ("M", 0.9)]
        assert vote_key_entities([member], 0.5) == ["Z", "A", "M"]


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(seeds=(1, 1), top_m=1)
        with pytest.raises(ValueError):
            EnsembleSpec(seeds=(1, 2), top_m=3)
        with pytest.raises(ValueError):
            EnsembleSpec(seeds=(1, 2), top_m=0)


def tiny_corpus(n, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        negative = bool(rng.integers(0, 2))
        lead = "loss" if negative else "gain"
        docs.append(
            Document(
                id=f"d{i}",
                raw_text=f"{lead} alpha beta",
                cleaned_text=f"{lead} alpha beta",
                sentiment=NEG if negative else POS,
                entity_list=["alpha"],
                key_entities=["alpha"] if negative else [],
            )
        )
    return docs


SMALL_ENC = EncoderConfig(
    vocab_size=4, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=12,
    dropout_rate=0.0,
)


@pytest.fixture(scope="module")
def shared_vocab():
    from finkey.tokenizer import vocab_from_texts

    # pipeline checkpoints must share one vocabulary
    return vocab_from_texts(["loss gain alpha beta"])


@pytest.fixture(scope="module")
def sentiment_members(shared_vocab):
    docs = tiny_corpus(40)
    cfg = TrainConfig(task="sentiment", epochs=6, batch_size=8, learning_rate=2e-3, seed=0, max_len=12)
    spec = EnsembleSpec(seeds=(1, 2, 3), top_m=3)
    results = ensemble_train(docs[:32], docs[32:], cfg, spec, encoder=SMALL_ENC, vocab=shared_vocab)
    return [r.checkpoint for r in results]


class TestEnsembleTrainSelect:
    def test_returns_sorted_members(self, sentiment_members):
        scores = [m.dev_score for m in sentiment_members]
        assert scores == sorted(scores, reverse=True)
        assert len(sentiment_members) == 3

    def test_selection_separation(self):
        docs = tiny_corpus(40)
        cfg = TrainConfig(task="sentiment", epochs=2, batch_size=8, learning_rate=2e-3, seed=0, max_len=12)
        spec = EnsembleSpec(seeds=(1, 2, 3, 4), top_m=2)
        kept = [r.checkpoint for r in ensemble_train(docs[:32], docs[32:], cfg, spec,
                                                     encoder=SMALL_ENC)]
        all_spec = EnsembleSpec(seeds=(1, 2, 3, 4), top_m=4)
        everyone = [r.checkpoint for r in ensemble_train(docs[:32], docs[32:], cfg, all_spec,
                                                         encoder=SMALL_ENC)]
        kept_seeds = {m.seed for m in kept}
        dropped = [m for m in everyone if m.seed not in kept_seeds]
        assert min(m.dev_score for m in kept) >= max(m.dev_score for m in dropped)


@pytest.fixture(scope="module")
def matcher_members(shared_vocab):
    from finkey.corpus import build_pair_dataset

    docs = tiny_corpus(40, seed=3)
    pairs, _ = build_pair_dataset(docs)
    labeled = [p for p in pairs if p.label is not None]
    cfg = TrainConfig(task="match", epochs=4, batch_size=8, learning_rate=2e-3, seed=0, max_len=12)
    spec = EnsembleSpec(seeds=(1, 2, 3), top_m=3)
    results = ensemble_train(labeled[:28], labeled[28:], cfg, spec, encoder=SMALL_ENC,
                             vocab=shared_vocab)
    return [r.checkpoint for r in results]


def _biased(members, bias):
    """Copies of sentiment members whose head bias decides every document."""
    return [replace(m, head=replace(m.head, b=np.array(bias, dtype=m.head.b.dtype))) for m in members]


def _span_checkpoint(vocab):
    from finkey.encoder import init_params
    from finkey.tasks import init_head
    from finkey.training import Checkpoint

    enc = replace(SMALL_ENC, vocab_size=vocab.size)
    return Checkpoint(
        encoder_params=init_params(enc, 7),
        encoder_config=enc,
        head=init_head("span", enc.d_model, np.random.default_rng(7)),
        head_kind="span",
        vocab=vocab,
        train_config=TrainConfig(task="mrc", max_len=enc.max_len),
        dev_score=0.0,
        seed=7,
    )


class TestRunPipeline:
    def test_positive_docs_get_no_entity_output(self, sentiment_members, matcher_members):
        docs = tiny_corpus(12, seed=9)
        result = run_pipeline(
            docs, sentiment_members, mode="coarse", matcher_members=matcher_members
        )
        assert len(result.documents) == len(docs)
        assert result.counters["processed"] == len(docs)
        for doc_result in result.documents:
            if doc_result.sentiment is POS:
                assert doc_result.key_entities is None
                assert doc_result.span_text is None

    def test_empty_entity_list_counted(self, sentiment_members, matcher_members):
        docs = [
            Document(
                id="e0",
                raw_text="loss alpha beta",
                cleaned_text="loss alpha beta",
                entity_list=[],
            )
        ]
        result = run_pipeline(
            docs, sentiment_members, mode="coarse", matcher_members=matcher_members
        )
        doc_result = result.documents[0]
        if doc_result.sentiment is NEG:
            assert doc_result.key_entities == []
            assert result.counters["empty_entity_list"] == 1

    def test_lexicon_fallback(self, sentiment_members, matcher_members):
        docs = [
            Document(id="l0", raw_text="loss alpha beta", cleaned_text="loss alpha beta")
        ]
        lex = Lexicon.from_strings(["alpha", "missing"])
        result = run_pipeline(
            docs,
            sentiment_members,
            mode="coarse",
            matcher_members=matcher_members,
            lexicon=lex,
        )
        doc_result = result.documents[0]
        assert doc_result.error is None

    def test_missing_requirements_become_doc_errors(self, sentiment_members, matcher_members):
        docs = [
            Document(id="x0", raw_text="loss alpha", cleaned_text="loss alpha"),
            Document(
                id="x1",
                raw_text="loss alpha",
                cleaned_text="loss alpha",
                entity_list=["alpha"],
            ),
        ]
        result = run_pipeline(
            docs, sentiment_members, mode="coarse", matcher_members=matcher_members
        )
        # first doc has no entity list and there is no lexicon: error entry,
        # but processing continued to the second doc
        assert len(result.documents) == 2
        first = result.documents[0]
        if first.sentiment is NEG:
            assert first.error is not None
            assert result.counters["errors"] >= 1

    def test_block_boundaries_preserve_order(self, sentiment_members, matcher_members):
        # Two full blocks and a partial one; in the second block one
        # document's entity does not fit max_len and one has no entity list.
        block = finkey.evaluation._BLOCK_DOCS
        docs = tiny_corpus(2 * block + 3, seed=11)
        bad = block + block // 2
        docs[bad] = replace(docs[bad], entity_list=["alpha " * 20, "alpha"])
        docs[bad + 1] = replace(docs[bad + 1], entity_list=None)
        for members in (sentiment_members, _biased(sentiment_members, [50.0, 0.0])):
            batched = run_pipeline(docs, members, mode="coarse", matcher_members=matcher_members)
            single = [
                run_pipeline([d], members, mode="coarse", matcher_members=matcher_members)
                for d in docs
            ]
            assert [d.doc_id for d in batched.documents] == [d.id for d in docs]
            assert batched.documents == [r.documents[0] for r in single]
            for key, value in batched.counters.items():
                assert value == sum(r.counters[key] for r in single)
        # With every document negative, exactly the two bad ones fail.
        assert [i for i, r in enumerate(batched.documents) if r.error] == [bad, bad + 1]
        assert "first segment too long" in batched.documents[bad].error
        assert all(r.error or r.key_entities is not None for r in batched.documents)

    @pytest.mark.parametrize("mode", ["coarse", "fine"])
    def test_outputs_do_not_depend_on_block_size(
        self, sentiment_members, matcher_members, shared_vocab, monkeypatch, mode
    ):
        docs = []
        for i, doc in enumerate(tiny_corpus(37, seed=5)):
            text = doc.cleaned_text + " alpha beta" * (i % 5)  # rows of 8 and 12 positions
            docs.append(replace(doc, raw_text=text, cleaned_text=text, tag="alpha"))
        # An entity and a question too long for max_len 12: an encode error
        # inside a block of 4 and of 16.
        docs[9] = replace(docs[9], entity_list=["alpha " * 20, "alpha"], tag="beta " * 20)
        stage2 = (
            {"matcher_members": matcher_members}
            if mode == "coarse"
            else {"mrc_checkpoint": _span_checkpoint(shared_vocab)}
        )
        for members in (sentiment_members, _biased(sentiment_members, [50.0, 0.0])):
            runs = []
            for size in (1, 4, 16, len(docs)):
                monkeypatch.setattr(finkey.evaluation, "_BLOCK_DOCS", size)
                result = run_pipeline(docs, members, mode=mode, **stage2)
                runs.append(([repr(r) for r in result.documents], result.counters))
            assert all(run == runs[0] for run in runs[1:])
        # The last runs had every document negative.
        assert "first segment too long" in result.documents[9].error
        assert result.counters["errors"] == 1

    @pytest.mark.parametrize("mode", ["coarse", "fine"])
    def test_empty_input_and_all_positive_block(
        self, sentiment_members, matcher_members, shared_vocab, mode
    ):
        stage2 = (
            {"matcher_members": matcher_members}
            if mode == "coarse"
            else {"mrc_checkpoint": _span_checkpoint(shared_vocab)}
        )
        empty = run_pipeline([], sentiment_members, mode=mode, **stage2)
        assert empty.documents == [] and set(empty.counters.values()) == {0}
        docs = [replace(d, tag="alpha") for d in tiny_corpus(5, seed=2)]
        positive = run_pipeline(docs, _biased(sentiment_members, [0.0, 50.0]), mode=mode, **stage2)
        assert [r.sentiment for r in positive.documents] == [POS] * 5
        assert positive.counters["predicted_positive"] == 5
        assert all(r.key_entities is None and r.span_text is None for r in positive.documents)
        negative = run_pipeline(docs, _biased(sentiment_members, [50.0, 0.0]), mode=mode, **stage2)
        assert negative.counters["predicted_negative"] == 5
        assert negative.counters["errors"] == 0

    def test_each_text_encoded_once_per_max_len(
        self, sentiment_members, matcher_members, monkeypatch
    ):
        first = sentiment_members[0]
        short = replace(first, encoder_config=replace(first.encoder_config, max_len=4))
        members = list(sentiment_members) + [short]
        docs = tiny_corpus(12, seed=9)
        calls = []
        for name in ("encode_single", "encode_pair"):
            encode = getattr(finkey.tasks, name)
            monkeypatch.setattr(
                finkey.tasks, name, lambda *a, _f=encode, _n=name: calls.append(_n) or _f(*a)
            )
        result = run_pipeline(docs, members, mode="coarse", matcher_members=matcher_members)
        monkeypatch.undo()
        n_negative = sum(r.sentiment is NEG for r in result.documents)
        assert calls.count("encode_single") == 2 * len(docs)
        assert calls.count("encode_pair") == n_negative  # one entity per document
        for doc, doc_result in zip(docs, result.documents):
            voted = vote_sentiment([m.predict_sentiment(doc.cleaned_text) for m in members])
            assert (voted.label, voted.prob_negative) == (
                doc_result.sentiment, doc_result.prob_negative
            )

    @pytest.mark.parametrize("template", ["Which company?", "{tag} or {tag}?"])
    def test_fine_mode_rejects_template_without_one_tag(
        self, sentiment_members, shared_vocab, template
    ):
        with pytest.raises(ValueError, match="tag"):
            run_pipeline([], sentiment_members, mode="fine",
                         mrc_checkpoint=_span_checkpoint(shared_vocab), template=template)

    def test_mode_validation(self, sentiment_members):
        with pytest.raises(ValueError):
            run_pipeline([], sentiment_members, mode="medium")
        with pytest.raises(ValueError):
            run_pipeline([], sentiment_members, mode="coarse")  # no matchers

    def test_vocab_mismatch_rejected(self, sentiment_members, matcher_members):
        other_docs = [
            Document(
                id=f"v{i}",
                raw_text="completely different words here",
                cleaned_text="completely different words here",
                sentiment=NEG if i % 2 else POS,
            )
            for i in range(8)
        ]
        cfg = TrainConfig(task="sentiment", epochs=1, batch_size=4, learning_rate=1e-3, seed=1, max_len=12)
        other = train(other_docs[:6], other_docs[6:], cfg, encoder=SMALL_ENC)
        with pytest.raises(ValueError, match="vocab"):
            run_pipeline(
                tiny_corpus(4),
                [other.checkpoint],
                mode="coarse",
                matcher_members=matcher_members,
            )


VOTE_VOCAB = vocab_from_texts(["loss gain alpha beta"])


@dataclass
class StubMatcher:
    """A matcher that answers from a table of scores and records what it
    was asked to score."""

    scores: dict  # entity -> score
    asked: list = field(default_factory=list)
    vocab = VOTE_VOCAB
    encoder_config = SMALL_ENC

    def predict(self, task, data):
        self.asked += [x.entity for x in data.items]
        return [self.scores[x.entity] for x in data.items]


def eager_key_entities(members, inputs, threshold):
    """The vote over every member's scores of every pair of one document."""
    task = MatchTask()
    member_scores = []
    for m in members:
        scores = m.predict(task, task.encode(inputs, m.vocab, m.encoder_config.max_len))
        member_scores.append([(x.entity, s) for x, s in zip(inputs, scores)])
    return vote_key_entities(member_scores, threshold)


def _matcher_docs(n, entities, seed):
    """Negative-leaning documents whose entity lists hold ``entities``."""
    return [replace(doc, entity_list=list(entities)) for doc in tiny_corpus(n, seed=seed)]


class TestLazyKeyEntityVote:
    """In coarse mode each matcher scores only the pairs whose vote is still
    open; every output stays what a vote over all scores gives."""

    @given(
        st.integers(1, 6),
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equal_to_vote_over_all_scores_and_no_decided_pair_scored(
        self, m, sizes, threshold, data
    ):
        levels = [0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.75,
                  np.nextafter(1.0, 0.0), 1.0]
        groups = [
            [PairExample(f"d{g}", f"e{g}x{j}", "loss alpha beta") for j in range(size)]
            for g, size in enumerate(sizes)
        ]
        entities = [x.entity for group in groups for x in group]
        members = [
            StubMatcher({e: data.draw(st.sampled_from(levels)) for e in entities})
            for _ in range(m)
        ]
        counters = {"stage2_scores": 0}
        got = finkey.evaluation._vote_pairs(MatchTask(), members, groups, threshold, counters)
        assert got == [
            vote_key_entities(
                [[(x.entity, s.scores[x.entity]) for x in group] for s in members], threshold
            )
            for group in groups
        ]
        # Member k is asked for exactly the pairs members 0..k-1 left open.
        for k, member in enumerate(members):
            votes = [sum(s.scores[e] >= threshold for s in members[:k]) for e in entities]
            assert member.asked == [
                e for e, v in zip(entities, votes) if 2 * v <= m and 2 * (k - v) < m
            ]
        assert counters["stage2_scores"] == sum(len(s.asked) for s in members)

    @pytest.mark.parametrize("n_members", [3, 4])
    def test_pipeline_equal_to_eager_vote(self, sentiment_members, matcher_members, n_members):
        first = matcher_members[0]
        shifted = replace(first, head=replace(first.head, b=first.head.b + np.float32(0.3)))
        members = (list(matcher_members) + [shifted])[:n_members]
        docs = _matcher_docs(24, ["alpha", "beta", "loss", "gain", "alpha beta"], seed=21)
        task = MatchTask()
        pairs = [PairExample(d.id, e, d.cleaned_text) for d in docs for e in d.entity_list]
        all_scores = [s for m in members for s in m.predict(task, task.encode(pairs, m.vocab, 12))]
        threshold = float(np.median(all_scores))  # the members split on many pairs
        negative = _biased(sentiment_members, [50.0, 0.0])
        result = run_pipeline(
            docs, negative, mode="coarse", matcher_members=members, match_threshold=threshold
        )
        kept = [r.key_entities for r in result.documents]
        assert kept == [
            eager_key_entities(
                members, [PairExample(d.id, e, d.cleaned_text) for e in d.entity_list], threshold
            )
            for d in docs
        ]
        assert any(0 < len(k) < 5 for k in kept)
        assert result.counters["stage2_scores"] < n_members * len(pairs)

    @pytest.mark.parametrize("bias", [50.0, -50.0])
    def test_third_matcher_skipped_when_two_agree(
        self, sentiment_members, matcher_members, monkeypatch, bias
    ):
        agreeing = [
            replace(m, head=replace(m.head, b=np.array([bias], dtype=m.head.b.dtype)))
            for m in matcher_members[:2]
        ]
        members = agreeing + [matcher_members[2]]
        rows = []
        predict = finkey.training.Checkpoint.predict
        monkeypatch.setattr(
            finkey.training.Checkpoint, "predict",
            lambda self, task, data: rows.append((id(self), data.n)) or predict(self, task, data),
        )
        docs = _matcher_docs(20, ["alpha", "beta", "loss"], seed=4)
        negative = _biased(sentiment_members, [50.0, 0.0])
        result = run_pipeline(docs, negative, mode="coarse", matcher_members=members)
        assert sum(n for who, n in rows if who == id(members[2])) == 0
        assert result.counters["stage2_scores"] == 2 * 3 * len(docs)
        expected = ["alpha", "beta", "loss"] if bias > 0 else []
        assert all(r.key_entities == expected for r in result.documents)

    @pytest.mark.parametrize("short_first", [False, True])
    def test_encode_error_is_the_first_in_member_then_pair_order(
        self, sentiment_members, matcher_members, short_first
    ):
        # max_len 6 leaves room for a 3-token entity with a 1-token text,
        # max_len 12 for a 9-token one.
        first = matcher_members[0]
        short = replace(first, encoder_config=replace(first.encoder_config, max_len=6))
        members = [short, *matcher_members[1:]] if short_first else [*matcher_members[:2], short]
        fits_long = "alpha beta alpha beta"  # too long at max_len 6 only
        fits_none = "alpha " * 12  # too long at both
        docs = [
            Document("a", "loss", "loss", entity_list=["alpha", fits_long, fits_none]),
            Document("b", "loss", "loss", entity_list=[fits_long, "beta"]),
            Document("c", "loss", "loss", entity_list=["alpha", "beta"]),
        ]

        def message(entity, max_len):
            with pytest.raises(ValueError) as err:
                encode_pair(entity, "loss", VOTE_VOCAB, max_len)
            return str(err.value)

        negative = _biased(sentiment_members, [50.0, 0.0])
        result = run_pipeline(docs, negative, mode="coarse", matcher_members=members)
        a, b, c = result.documents
        # The first member with an error decides; within it, the first pair.
        assert a.error == (message(fits_long, 6) if short_first else message(fits_none, 12))
        assert b.error == message(fits_long, 6)
        assert c.error is None
        assert c.key_entities == eager_key_entities(
            members, [PairExample("c", e, "loss") for e in ("alpha", "beta")], 0.5
        )
        assert result.counters["errors"] == 2
        assert result.counters["stage2_scores"] <= 2 * len(members)  # doc c's pairs only
