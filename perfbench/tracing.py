"""Spans around calls into finkey's public functions, and per-layer metrics.

The tracer replaces a public name with a timing wrapper at each place its
callers look it up (a module global, or a class attribute for
``Adam.step``), so it needs no tracing code inside the program.  A span
records its name, start, end, parent span and a few facts about the call.
Spans stay in memory; metrics are computed from them after the run.

A span's self time is its duration minus that of its child spans.  Dev
evaluation inside ``train`` has no public function of its own; it is taken
as the stretch between the last optimiser step of an epoch and the next
training-mode forward pass (or the end of ``train``) whenever that stretch
holds an inference-mode forward pass.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (layer label, module, attribute): every place a wrapped name is looked up.
# A missing attribute is skipped, so a refactor that removes a name reports
# zero for its layer instead of breaking the benchmark.
TARGETS = [
    ("corpus.load", "finkey.corpus", "load_corpus"),
    ("corpus.build", "finkey.corpus", "build_pair_dataset"),
    ("corpus.build", "finkey.corpus", "build_mrc_dataset"),
    ("tokenizer.encode", "finkey.tasks", "encode_single"),
    ("tokenizer.encode", "finkey.tasks", "encode_pair"),
    ("tokenizer.encode", "finkey.training", "encode_single"),
    ("tokenizer.encode", "finkey.training", "encode_pair"),
    ("encoder.forward", "finkey.encoder", "forward_batch"),
    ("encoder.forward", "finkey.training", "forward_batch"),
    ("encoder.backward", "finkey.encoder", "backward_batch"),
    ("encoder.backward", "finkey.training", "backward_batch"),
    ("encoder.gelu", "finkey.encoder", "gelu"),
    ("encoder.gelu_grad", "finkey.encoder", "gelu_grad"),
    ("tasks.head", "finkey.training", "predict_sentiment"),
    ("tasks.head", "finkey.training", "score_entity"),
    ("tasks.head", "finkey.training", "extract_span"),
    ("tasks.select_span", "finkey.tasks", "select_span"),
    ("tasks.select_span", "finkey.training", "select_span"),
    ("training.train", "finkey.training", "train"),
    ("training.adam", "finkey.training", "Adam.step"),
    ("training.clip", "finkey.training", "clip_by_global_norm"),
    ("training.checkpoint_load", "finkey.training", "load_checkpoint"),
    ("evaluation.vote", "finkey.evaluation", "vote_sentiment"),
    ("evaluation.vote", "finkey.evaluation", "vote_key_entities"),
    ("evaluation.pipeline", "finkey.evaluation", "run_pipeline"),
]


def _facts(label, args, kwargs, out, sep_id):
    """Counts recorded at the layer boundary."""
    if label == "tokenizer.encode":
        mask = out.attention_mask
        return {"positions": len(mask), "pad": len(mask) - sum(mask)}
    if label == "encoder.forward":
        ids = args[2] if len(args) > 2 else kwargs["ids"]
        return {
            "rows": ids.shape[0],
            "positions": ids.shape[0] * ids.shape[1],
            "training": bool(kwargs.get("training", False)),
            "pair": int((ids[0] == sep_id).sum()) >= 2,
        }
    return None


class Tracer:
    def __init__(self, sep_id: int):
        self.sep_id = sep_id
        self.spans: list[list] = []  # [label, start, end, parent, facts, phase]
        self.stack: list[int] = []
        self.phase = "setup"
        self.originals = []

    def _wrap(self, label, fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, None, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            rec[4] = _facts(label, args, kwargs, out, tracer.sep_id)
            return out

        return traced

    def install(self):
        for label, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, name):
                continue
            original = getattr(owner, name)
            self.originals.append((owner, name, original))
            setattr(owner, name, self._wrap(label, original))

    def uninstall(self):
        for owner, name, original in reversed(self.originals):
            setattr(owner, name, original)
        self.originals.clear()

    def dump(self, path: Path):
        path.write_text(json.dumps(self.spans))

    def metrics(self, n_ops: int, overhead_pct: float, stage2_docs: float) -> dict:
        """Per-layer metrics: timed-phase values per operation, set-up
        values per set-up, checkpoint loads per load."""
        spans = self.spans
        children = defaultdict(list)
        for k, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(k)
        self_ms = [
            1000.0 * ((s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in children[k]))
            for k, s in enumerate(spans)
        ]
        dev_ms = 0.0
        for k, s in enumerate(spans):
            if s[0] == "training.train" and s[5] == "timed":
                dev_ms += _dev_eval_self_ms(spans, children[k], s[2])
        total = defaultdict(float)
        count = defaultdict(float)
        for k, s in enumerate(spans):
            total[(s[0], s[5])] += self_ms[k]
            count[(s[0], s[5])] += 1
        facts = defaultdict(float)
        for s in spans:
            if s[4] is not None and s[5] == "timed":
                for key, value in s[4].items():
                    facts[(s[0], key)] += value

        def timed(label):
            return total[(label, "timed")] / n_ops

        loads = sum(count[("training.checkpoint_load", p)] for p in ("setup", "timed", "check"))
        load_ms = sum(total[("training.checkpoint_load", p)] for p in ("setup", "timed", "check"))
        fwd_calls = count[("encoder.forward", "timed")]
        enc_positions = facts[("tokenizer.encode", "positions")]
        return {
            "corpus.load_ms": total[("corpus.load", "setup")],
            "corpus.build_ms": total[("corpus.build", "setup")],
            "tokenizer.encode_ms": timed("tokenizer.encode"),
            "tokenizer.pad_fraction": facts[("tokenizer.encode", "pad")] / enc_positions if enc_positions else 0.0,
            "encoder.forward_ms": timed("encoder.forward"),
            "encoder.backward_ms": timed("encoder.backward"),
            "encoder.gelu_ms": timed("encoder.gelu"),
            "encoder.gelu_grad_ms": timed("encoder.gelu_grad"),
            "encoder.forward_calls": fwd_calls / n_ops,
            "encoder.rows_per_call": facts[("encoder.forward", "rows")] / fwd_calls if fwd_calls else 0.0,
            "encoder.positions": facts[("encoder.forward", "positions")] / n_ops,
            "tasks.head_ms": timed("tasks.head"),
            "tasks.select_span_ms": timed("tasks.select_span"),
            "training.adam_ms": timed("training.adam"),
            "training.clip_ms": timed("training.clip"),
            "training.dev_eval_ms": dev_ms / n_ops,
            "training.loop_other_ms": timed("training.train") - dev_ms / n_ops,
            "training.steps": count[("training.adam", "timed")] / n_ops,
            "training.checkpoint_load_ms": load_ms / loads if loads else 0.0,
            "evaluation.vote_ms": timed("evaluation.vote"),
            "evaluation.pipeline_other_ms": timed("evaluation.pipeline"),
            "evaluation.stage2_docs": stage2_docs,
            "evaluation.stage2_forwards": sum(
                1 for s in spans
                if s[0] == "encoder.forward" and s[5] == "timed" and s[4]["pair"]
                and _inside(spans, s, "evaluation.pipeline")
            ) / n_ops,
            "trace.overhead_pct": overhead_pct,
        }


def _inside(spans, span, label) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == label:
            return True
        parent = spans[parent][3]
    return False


def _is_step(span) -> bool:
    label = span[0]
    if label == "encoder.forward":
        return span[4]["training"]
    return label in ("encoder.backward", "training.clip", "training.adam")


def _dev_eval_self_ms(spans, kids, train_end) -> float:
    """Self time of the dev-evaluation stretches of one ``train`` span."""
    ms = 0.0
    k = 0
    kids = sorted(kids, key=lambda c: spans[c][1])
    while k < len(kids):
        if spans[kids[k]][0] != "training.adam":
            k += 1
            continue
        start = spans[kids[k]][2]
        j = k + 1
        while j < len(kids) and not _is_step(spans[kids[j]]):
            j += 1
        inner = kids[k + 1 : j]
        if any(spans[c][0] == "encoder.forward" for c in inner):
            end = spans[kids[j]][1] if j < len(kids) else train_end
            ms += 1000.0 * ((end - start) - sum(spans[c][2] - spans[c][1] for c in inner))
        k = j
    return ms
