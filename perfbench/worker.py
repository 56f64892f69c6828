"""One workload in one process: set up, time the calls, check the outputs.

``run.py`` starts this file with PYTHONPATH pointing at the checkout's
``src`` and the BLAS thread count fixed.  Set-up runs from the top of this
file to the ``READY`` line, which ``run.py`` timestamps; with ``--setup-only``
the process stops there.  Otherwise it times calls for ``--seconds``, checks
the outputs and prints one JSON line.

Each workload runs whole rounds: a train workload's round is one ``train``
call, the coarse pipeline's one ``run_pipeline`` call over the whole corpus,
and the fine pipeline's one ``run_pipeline`` call per document over the
whole corpus.  With ``--trace 1`` calls alternate between untraced and
traced, which gives the tracing overhead from the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import finkey.corpus
import finkey.evaluation
import finkey.tokenizer
import finkey.training
from finkey.encoder import EncoderConfig
from finkey.training import TrainConfig

import checks
import oracle
from inputs import QUESTION_TEMPLATE
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CKPT_DIR = HERE / "checkpoints"
SENTIMENT_CKPTS = [CKPT_DIR / f"sentiment-{s}.ckpt" for s in (1, 2, 3)]
MATCH_CKPTS = [CKPT_DIR / f"match-{s}.ckpt" for s in (1, 2, 3)]
MRC_CKPT = CKPT_DIR / "mrc-1.ckpt"
MATCH_THRESHOLD = 0.5
MAX_SPAN_LEN = 16
ORACLE_SAMPLE = 40
ACCEPTANCE_ENCODER = EncoderConfig(
    vocab_size=4, d_model=48, n_heads=4, n_layers=2, d_ff=192, max_len=32, dropout_rate=0.0,
)


def _load(workdir: Path, name: str, schema: str):
    docs, report = finkey.corpus.load_corpus(workdir / f"{name}.jsonl", schema)
    if not report.ok:
        raise SystemExit(f"corpus {name} failed to load: {report.errors[:3]}")
    return docs


@dataclass
class Call:
    """One timed call and the work it did."""

    elapsed: float
    attempted: int
    failed: int
    docs: int  # documents: pipeline inputs, or training documents x epochs
    examples: int  # sequences scored, or training examples x epochs
    stage2_docs: int


def _checkpoint_bytes(ckpt, path: Path) -> bytes:
    finkey.training.save_checkpoint(ckpt, path)
    return path.read_bytes()


class TrainWorkload:
    """``train`` on one head at max_len 32; a call is one training run."""

    def __init__(self, task: str, workdir: Path):
        self.task = task
        self.workdir = workdir
        schema = "dataset-1" if task == "match" else "dataset-2"
        train_docs = _load(workdir, "train", schema)
        dev_docs = _load(workdir, "dev", schema)
        self.n_train_docs = len(train_docs)
        if task == "match":
            self.train_set, _ = finkey.corpus.build_pair_dataset(train_docs)
            self.dev_set, _ = finkey.corpus.build_pair_dataset(dev_docs)
            self.cfg = TrainConfig(
                task="match", epochs=3, batch_size=16, learning_rate=3e-3, seed=5,
                max_len=32, loss="cross_entropy", threshold=MATCH_THRESHOLD, clip_norm=5.0,
            )
        else:
            self.train_set, _ = finkey.corpus.build_mrc_dataset(train_docs, QUESTION_TEMPLATE)
            self.dev_set, _ = finkey.corpus.build_mrc_dataset(dev_docs, QUESTION_TEMPLATE)
            self.cfg = TrainConfig(
                task="mrc", epochs=3, batch_size=32, learning_rate=3e-3, seed=5,
                max_len=32, clip_norm=5.0,
            )
        self.first = None
        self.blobs = set()
        self.call(replace(self.cfg, epochs=1))  # warm-up

    def calls(self):
        return [()]

    def call(self, cfg):
        return finkey.training.train(
            self.train_set, self.dev_set, cfg,
            encoder=ACCEPTANCE_ENCODER, max_span_len=MAX_SPAN_LEN,
        )

    def timed_call(self):
        start = time.perf_counter()
        result = self.call(self.cfg)
        elapsed = time.perf_counter() - start
        self.first = self.first or result
        self.blobs.add(_checkpoint_bytes(result.checkpoint, self.workdir / "call.ckpt"))
        examples = len(self.train_set) - result.n_train_skipped
        epochs = self.cfg.epochs
        return Call(elapsed, 1, 0, epochs * self.n_train_docs, epochs * examples, 0)

    def check(self, rng):
        result = self.first
        problems = []
        if len(self.blobs) != 1:
            problems.append("repeated train calls gave different checkpoints")
        path = self.workdir / "trained.ckpt"
        first = _checkpoint_bytes(result.checkpoint, path)
        reloaded = finkey.training.load_checkpoint(path)
        if _checkpoint_bytes(reloaded, self.workdir / "reloaded.ckpt") != first:
            problems.append("save and reload of the trained checkpoint is not bit-exact")
        if self.task == "match":
            dev = [(ex.doc_id, ex.entity, ex.text, ex.label) for ex in self.dev_set]
        else:
            dev = [(ex.question, ex.context, ex.answer) for ex in self.dev_set]
        summary = {
            "dev_score": result.checkpoint.dev_score,
            "epoch_dev_scores": result.epoch_dev_scores,
            "epoch_losses": result.epoch_losses,
        }
        problems += checks.check_train(
            self.task, summary, dev, oracle.Model(path),
            threshold=self.cfg.threshold, max_span_len=MAX_SPAN_LEN,
        )
        return problems


def _plain(result) -> dict:
    return {
        "id": result.doc_id,
        "sentiment": result.sentiment.value,
        "prob_negative": result.prob_negative,
        "key_entities": result.key_entities,
        "span": result.span_text,
        "error": result.error,
    }


class PipelineWorkload:
    """The staged pipeline over fixed checkpoints at max_len 128.

    Coarse mode makes one ``run_pipeline`` call over the whole corpus.  Fine
    mode is a closed loop: one caller sends one document per call and waits
    for the reply before sending the next.
    """

    def __init__(self, mode: str, workdir: Path):
        self.mode = mode
        self.docs = _load(workdir, "docs", "dataset-1" if mode == "coarse" else "dataset-2")
        load = finkey.training.load_checkpoint
        self.sentiment = [load(p) for p in SENTIMENT_CKPTS]
        if mode == "coarse":
            self.stage2 = {"matcher_members": [load(p) for p in MATCH_CKPTS],
                           "match_threshold": MATCH_THRESHOLD}
        else:
            self.stage2 = {"mrc_checkpoint": load(MRC_CKPT), "template": QUESTION_TEMPLATE,
                           "max_span_len": MAX_SPAN_LEN}
        self.outputs = []
        self.repeat_differs = False
        self.call(self.docs[:32] if mode == "coarse" else self.docs[:1])  # warm-up

    def calls(self):
        if self.mode == "coarse":
            return [(self.docs,)]
        return [([doc],) for doc in self.docs]

    def call(self, docs):
        return finkey.evaluation.run_pipeline(docs, self.sentiment, mode=self.mode, **self.stage2)

    def timed_call(self, docs):
        start = time.perf_counter()
        result = self.call(docs)
        elapsed = time.perf_counter() - start
        outputs = [_plain(r) for r in result.documents]
        if len(self.outputs) < len(self.docs):
            self.outputs += outputs
        elif len(docs) > 1 and outputs != self.outputs:
            self.repeat_differs = True
        examples = len(self.sentiment) * len(docs)
        for doc, out in zip(docs, outputs):
            if out["sentiment"] == "negative":
                examples += (len(doc.entity_list) * len(self.stage2["matcher_members"])
                             if self.mode == "coarse" else 1)
        stage2 = sum(o["sentiment"] == "negative" for o in outputs)
        failed = sum(o["error"] is not None for o in outputs)
        return Call(elapsed, len(docs), failed, len(docs), examples, stage2)

    def check(self, rng):
        sample = sorted(rng.choice(len(self.docs), size=ORACLE_SAMPLE, replace=False))
        sentiment = [oracle.Model(p) for p in SENTIMENT_CKPTS]
        problems = ["repeated calls gave different outputs"] if self.repeat_differs else []
        if self.mode == "coarse":
            docs = [{"id": d.id, "text": d.cleaned_text, "entity_list": d.entity_list}
                    for d in self.docs]
            return problems + checks.check_coarse(
                docs, self.outputs, sentiment, [oracle.Model(p) for p in MATCH_CKPTS],
                MATCH_THRESHOLD, sample,
            )
        docs = [{"id": d.id, "text": d.cleaned_text, "tag": d.tag} for d in self.docs]
        return problems + checks.check_fine(
            docs, self.outputs, sentiment, oracle.Model(MRC_CKPT),
            QUESTION_TEMPLATE, MAX_SPAN_LEN, sample,
        )


def make_workload(name: str, workdir: Path):
    if name == "train-match":
        return TrainWorkload("match", workdir)
    if name == "train-span-full":
        return TrainWorkload("mrc", workdir)
    if name == "pipeline-coarse-batch":
        return PipelineWorkload("coarse", workdir)
    return PipelineWorkload("fine", workdir)


def end_to_end(calls: list[Call]) -> dict:
    """Every end-to-end metric but set-up time, from the timed calls."""
    lat = sorted(1000.0 * c.elapsed for c in calls)
    busy = sum(c.elapsed for c in calls)
    return {
        "train_examples_per_s": sum(c.examples for c in calls) / busy,
        "docs_per_s": sum(c.docs for c in calls) / busy,
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_p99": statistics.quantiles(lat, n=100, method="inclusive")[98]
        if len(lat) > 1 else lat[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(sep_id=finkey.tokenizer.SEP_ID)
        tracer.install()
    workload = make_workload(args.workload, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer:
        tracer.uninstall()

    calls, traced, untraced = [], [], []
    start = time.perf_counter()
    while True:
        for call_args in workload.calls():
            trace_this = tracer is not None and len(calls) % 2 == 1
            if trace_this:
                tracer.phase = "timed"
                tracer.install()
            call = workload.timed_call(*call_args)
            if trace_this:
                tracer.uninstall()
            (traced if trace_this else untraced).append(call)
            calls.append(call)
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = "check"
        tracer.install()
    problems = workload.check(np.random.default_rng(args.seed))
    if tracer:
        tracer.uninstall()

    out = {
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.failed for c in calls),
        "problems": problems,
        "calls": len(calls),
        "call_s": [round(c.elapsed, 4) for c in calls[:12]],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        overhead = 100.0 * (
            statistics.median(c.elapsed for c in traced)
            / statistics.median(c.elapsed for c in untraced) - 1.0
        )
        stage2 = sum(c.stage2_docs for c in traced) / len(traced)
        out["metrics"] = tracer.metrics(len(traced), overhead, stage2)
        tracer.dump(args.workdir / "spans.json")
    else:
        out["metrics"] = end_to_end(calls)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
