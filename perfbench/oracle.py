"""Reference computation the benchmark checks finkey's outputs against.

Written from the README's description of the model and the checkpoint
format, not from finkey's code, and it imports nothing from finkey:

* the checkpoint reader follows the documented v1 layout (magic, 8-byte
  little-endian header length, JSON header, raw tensors);
* tokens are maximal runs of ASCII letters and digits (lowercased) or any
  single other non-space character, encoded as ``[CLS] A [SEP]`` or
  ``[CLS] A [SEP] B [SEP]`` with only B truncated;
* the encoder is a post-norm transformer: token embedding plus sinusoidal
  positions, multi-head self-attention over the real tokens, residual and
  layer norm, exact-GELU feed-forward, residual and layer norm.  It runs in
  float64, one sequence at a time, on the real positions only, because pad
  keys are masked out and everything else works per position.

Where the README leaves a detail open, the usual choice is taken and noted:
weights multiply from the right (``x @ W``, as the (d_model, d_ff) shape of
``w1`` shows), heads are contiguous slices of d_model, layer norm uses
eps 1e-5, and sentiment logit 0 is the negative class.
"""

from __future__ import annotations

import json
import math
import re
from itertools import product
from pathlib import Path

import numpy as np

MAGIC = b"FINKEYCKPT1\n"
LN_EPS = 1e-5
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|\S")
_ERF = np.frompyfunc(math.erf, 1, 1)


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, start, end) triples; ASCII words are lowercased."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok[0].isascii() and tok[0].isalnum():
            tok = tok.lower()
        out.append((tok, m.start(), m.end()))
    return out


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(f"{path}: bad magic")
    pos = len(MAGIC)
    n = int.from_bytes(raw[pos : pos + 8], "little")
    header = json.loads(raw[pos + 8 : pos + 8 + n].decode("utf-8"))
    base = pos + 8 + n
    tensors = {}
    for t in header["tensors"]:
        start = base + t["offset"]
        arr = np.frombuffer(raw[start : start + t["nbytes"]], dtype=np.dtype(t["dtype"]))
        tensors[t["name"]] = arr.reshape(t["shape"]).astype(np.float64)
    return header, tensors


class Model:
    """One checkpoint, evaluated in float64 one sequence at a time."""

    def __init__(self, path):
        header, self.t = read_checkpoint(path)
        cfg = header["encoder_config"]
        self.d = cfg["d_model"]
        self.n_heads = cfg["n_heads"]
        self.n_layers = cfg["n_layers"]
        self.max_len = cfg["max_len"]
        self.vocab = {tok: i for i, tok in enumerate(header["vocab"])}
        self.unk = self.vocab["[UNK]"]
        self.cls = self.vocab["[CLS]"]
        self.sep = self.vocab["[SEP]"]
        pos = np.arange(self.max_len)[:, None]
        dim = np.arange(self.d)[None, :]
        angle = pos / np.power(10000.0, 2.0 * (dim // 2) / self.d)
        self.positions = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))

    def _ids(self, tokens) -> list[int]:
        return [self.vocab.get(tok, self.unk) for tok, _, _ in tokens]

    def encode_single(self, text: str) -> list[int]:
        toks = tokenize(text)[: self.max_len - 2]
        return [self.cls] + self._ids(toks) + [self.sep]

    def encode_pair(self, a: str, b: str):
        """Ids plus, for each B token kept, its position and char span."""
        a_toks = tokenize(a)
        b_toks = tokenize(b)[: self.max_len - 3 - len(a_toks)]
        ids = [self.cls] + self._ids(a_toks) + [self.sep] + self._ids(b_toks) + [self.sep]
        first = len(a_toks) + 2
        b_spans = [(first + k, s, e) for k, (_, s, e) in enumerate(b_toks)]
        return ids, b_spans

    def hidden(self, ids: list[int]) -> np.ndarray:
        t = self.t
        n = len(ids)
        x = t["encoder.embedding"][ids] + self.positions[:n]
        dh = self.d // self.n_heads
        for i in range(self.n_layers):
            p = {k: t[f"encoder.layers.{i}.{k}"] for k in (
                "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")}
            q = x @ p["wq"] + p["bq"]
            k = x @ p["wk"] + p["bk"]
            v = x @ p["wv"] + p["bv"]
            ctx = np.empty_like(x)
            for h in range(self.n_heads):
                sl = slice(h * dh, (h + 1) * dh)
                scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                ctx[:, sl] = (w / w.sum(axis=1, keepdims=True)) @ v[:, sl]
            h1 = _layer_norm(x + ctx @ p["wo"] + p["bo"], p["ln1_g"], p["ln1_b"])
            pre = h1 @ p["w1"] + p["b1"]
            act = 0.5 * pre * (1.0 + _ERF(pre / math.sqrt(2.0)).astype(np.float64))
            x = _layer_norm(h1 + act @ p["w2"] + p["b2"], p["ln2_g"], p["ln2_b"])
        return x

    def prob_negative(self, text: str) -> float:
        cls_vec = self.hidden(self.encode_single(text))[0]
        logits = cls_vec @ self.t["head.w"] + self.t["head.b"]
        e = np.exp(logits - logits.max())
        return float(e[0] / e.sum())

    def match_prob(self, entity: str, text: str) -> float:
        ids, _ = self.encode_pair(entity, text)
        z = self.hidden(ids)[0] @ self.t["head.w"] + self.t["head.b"][0]
        return float(1.0 / (1.0 + np.exp(-z)))

    def span_candidates(self, question: str, context: str, max_span_len: int, tol: float):
        """Texts of every span within ``tol`` of the brute-force best score."""
        ids, b_spans = self.encode_pair(question, context)
        hid = self.hidden(ids)
        s = hid @ self.t["head.w_start"] + self.t["head.b_start"][0]
        e = hid @ self.t["head.w_end"] + self.t["head.b_end"][0]
        scored = [
            (s[pi] + e[pj], context[si:ej])
            for (pi, si, _), (pj, _, ej) in product(b_spans, b_spans)
            if 0 <= pj - pi < max_span_len
        ]
        best = max(score for score, _ in scored)
        return {text for score, text in scored if score >= best - tol}


def _layer_norm(x, g, b):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def majority(votes: list[bool], tie_break: bool) -> bool:
    """Strict majority of True votes; an exact tie takes ``tie_break``."""
    yes = sum(votes)
    no = len(votes) - yes
    return tie_break if yes == no else yes > no


def entity_f1(pred_sets, gold_sets) -> float:
    """Micro entity F1, 0 where a denominator vanishes."""
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0
