"""Output checks: properties the method must have, and the oracle's verdict.

Each check returns a list of problems; an empty list means the outputs
pass.  Outputs arrive as plain dicts, so the checks depend on finkey only
through what it returned.

finkey computes in float32 and the oracle in float64, so a decision whose
oracle value lies within a hair of its threshold may go either way; such
decisions are called ambiguous and either outcome is accepted.  Every
other decision, and every reported number, must agree.
"""

from __future__ import annotations

import math
from itertools import product

from oracle import entity_f1, majority

PROB_TOL = 1e-4  # |finkey - oracle| on a probability
DECISION_TOL = 1e-5  # oracle value this close to a threshold: ambiguous
SPAN_TOL = 1e-3  # start+end scores this close to the best: ambiguous
MAX_AMBIGUOUS = 12


def check_train(task: str, result: dict, dev_examples: list, model, *,
                threshold: float, max_span_len: int) -> list[str]:
    """Training history and the oracle's recomputation of the dev score.

    ``dev_examples`` holds (doc_id, entity, text, label) for the match task
    and (question, context, (start, end)) for the span task.
    """
    problems = []
    losses, scores = result["epoch_losses"], result["epoch_dev_scores"]
    if result["dev_score"] != max(scores):
        problems.append(f"dev_score {result['dev_score']} is not the best epoch score {max(scores)}")
    if not math.isfinite(losses[-1]) or not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]} not finite and below the first {losses[0]}")
    if task == "match":
        possible = _match_f1_values(dev_examples, model, threshold)
    else:
        possible = _exact_match_values(dev_examples, model, max_span_len)
    if possible is None:
        problems.append("too many dev decisions lie on the threshold to check the dev score")
    elif not any(abs(result["dev_score"] - v) <= 1e-12 for v in possible):
        problems.append(f"dev_score {result['dev_score']} but the oracle gives {sorted(possible)}")
    return problems


def _match_f1_values(examples, model, threshold):
    fixed, open_ = [], []
    for k, (doc_id, entity, text, label) in enumerate(examples):
        p = model.match_prob(entity, text)
        (open_ if abs(p - threshold) < DECISION_TOL else fixed).append((k, p >= threshold))
    if len(open_) > MAX_AMBIGUOUS:
        return None
    values = set()
    for choice in product((False, True), repeat=len(open_)):
        keep = dict(fixed)
        keep.update((k, c) for (k, _), c in zip(open_, choice))
        pred, gold = {}, {}
        for k, (doc_id, entity, _, label) in enumerate(examples):
            pred.setdefault(doc_id, set())
            gold.setdefault(doc_id, set())
            if keep[k]:
                pred[doc_id].add(entity)
            if label == 1:
                gold[doc_id].add(entity)
        values.add(entity_f1([pred[d] for d in pred], [gold[d] for d in pred]))
    return values


def _exact_match_values(examples, model, max_span_len):
    lo = hi = 0
    for question, context, (start, end) in examples:
        texts = model.span_candidates(question, context, max_span_len, SPAN_TOL)
        hits = {t == context[start:end] for t in texts}
        lo += all(hits)
        hi += any(hits)
    return {k / len(examples) for k in range(lo, hi + 1)}


def _check_order(docs: list[dict], outputs: list[dict]) -> list[str]:
    if [d["id"] for d in docs] != [o["id"] for o in outputs]:
        return ["pipeline output does not keep the input order"]
    return []


def _check_stage1(doc, out, models) -> tuple[list[str], bool | None]:
    """Oracle sentiment vote; returns problems and the label (None if ambiguous)."""
    probs = [m.prob_negative(doc["text"]) for m in models]
    mean = sum(probs) / len(probs)
    problems = []
    if abs(out["prob_negative"] - mean) > PROB_TOL:
        problems.append(f"{doc['id']}: prob_negative {out['prob_negative']} but the oracle gives {mean}")
    if any(abs(p - 0.5) < DECISION_TOL for p in probs) or abs(mean - 0.5) < DECISION_TOL:
        return problems, None
    negative = majority([p >= 0.5 for p in probs], tie_break=mean >= 0.5)
    if (out["sentiment"] == "negative") != negative:
        problems.append(f"{doc['id']}: sentiment {out['sentiment']} but the oracle votes otherwise")
    return problems, negative


def check_coarse(docs, outputs, sentiment_models, matcher_models, threshold, sample) -> list[str]:
    problems = _check_order(docs, outputs)
    for doc, out in zip(docs, outputs):
        keys = out["key_entities"]
        if out["error"] is not None:
            continue
        if (keys is not None) != (out["sentiment"] == "negative"):
            problems.append(f"{doc['id']}: key_entities present for a document not predicted negative, or missing")
        elif keys is not None and not set(keys) <= set(doc["entity_list"]):
            problems.append(f"{doc['id']}: key_entities {keys} not within entity_list {doc['entity_list']}")
        if out["span"] is not None:
            problems.append(f"{doc['id']}: coarse mode returned a span")
    if problems:
        return problems
    for i in sample:
        doc, out = docs[i], outputs[i]
        if out["error"] is not None:
            continue
        found, negative = _check_stage1(doc, out, sentiment_models)
        problems += found
        if not negative or found:
            continue
        got = out["key_entities"]
        if got != [e for e in doc["entity_list"] if e in got]:
            problems.append(f"{doc['id']}: key_entities {got} not in entity_list order")
        for entity in doc["entity_list"]:
            probs = [m.match_prob(entity, doc["text"]) for m in matcher_models]
            if any(abs(p - threshold) < DECISION_TOL for p in probs):
                continue
            if majority([p >= threshold for p in probs], tie_break=False) != (entity in got):
                problems.append(f"{doc['id']}: key_entities {got} but the oracle votes otherwise on {entity!r}")
    return problems


def check_fine(docs, outputs, sentiment_models, mrc_model, template, max_span_len, sample) -> list[str]:
    problems = _check_order(docs, outputs)
    for doc, out in zip(docs, outputs):
        if out["error"] is not None:
            continue
        if (out["span"] is not None) != (out["sentiment"] == "negative"):
            problems.append(f"{doc['id']}: span present for a document not predicted negative, or missing")
        if out["key_entities"] is not None:
            problems.append(f"{doc['id']}: fine mode returned key_entities")
    if problems:
        return problems
    for i in sample:
        doc, out = docs[i], outputs[i]
        if out["error"] is not None:
            continue
        found, negative = _check_stage1(doc, out, sentiment_models)
        problems += found
        if not negative or found:
            continue
        question = template.replace("{tag}", doc["tag"])
        texts = mrc_model.span_candidates(question, doc["text"], max_span_len, SPAN_TOL)
        if out["span"] not in texts:
            problems.append(f"{doc['id']}: span {out['span']!r} is not the brute-force argmax {sorted(texts)}")
    return problems
