import argparse
import contextlib
import inspect
import io
import json
import logging
import math
import re
import shlex
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finkey.cli import SETTINGS, _load_config, build_parser, main
from finkey.corpus import Document, save_corpus
from finkey.encoder import EncoderConfig, init_params
from finkey.synthetic import matcher_corpus, mrc_corpus, sentiment_corpus
from finkey.tasks import init_head, task_for_head
from finkey.tokenizer import load_vocab, vocab_from_texts, vocab_lines
from finkey.training import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint


def write_config(tmp_path, **overrides):
    cfg = {
        "paths": {
            "corpus": str(tmp_path / "corpus.jsonl"),
            "checkpoints": str(tmp_path / "ckpts"),
        },
        "encoder": {
            "d_model": 16,
            "n_heads": 2,
            "n_layers": 1,
            "d_ff": 32,
            "dropout_rate": 0.0,
        },
        "sentiment": {
            "epochs": 3,
            "batch_size": 8,
            "learning_rate": 2e-3,
            "seed": 3,
            "max_len": 16,
            "dev_split_k": 5,
        },
        "match": {
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 2e-3,
            "seed": 3,
            "max_len": 24,
            "loss": "focal",
            "focal": {"gamma": 2.0, "alpha": None},
            "dev_split_k": 5,
        },
        "mrc": {
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 2e-3,
            "seed": 3,
            "max_len": 24,
            "dev_split_k": 5,
            "template": "Which company involves {tag}?",
            "max_span_len": 4,
        },
        "ensemble": {"seeds": [1, 2, 3], "top_m": 2},
        "pipeline": {},
        "search": {"deltas": {"epochs": [1, 2]}},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


@pytest.fixture()
def sentiment_setup(tmp_path):
    docs = sentiment_corpus(40, seed=1)
    save_corpus(docs, tmp_path / "corpus.jsonl")
    config_path, cfg = write_config(tmp_path)
    return tmp_path, str(config_path), docs


class TestValidate:
    def test_clean_corpus_exits_zero(self, sentiment_setup, capsys):
        tmp_path, _, _ = sentiment_setup
        rc = main(["validate", "--corpus", str(tmp_path / "corpus.jsonl"), "--schema", "dataset-1"])
        assert rc == 0
        assert "0 record errors" in capsys.readouterr().out

    def test_bad_record_exits_one_and_names_id(self, tmp_path, capsys):
        bad = {"id": "broken", "text": "t", "entity_list": ["A"], "key_entities": ["B"]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        rc = main(["validate", "--corpus", str(path), "--schema", "dataset-1"])
        assert rc == 1
        assert "broken" in capsys.readouterr().out

    def test_empty_corpus_ok(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        rc = main(["validate", "--corpus", str(path), "--schema", "dataset-1"])
        assert rc == 0
        assert "0 documents" in capsys.readouterr().out

    def test_report_written(self, sentiment_setup, tmp_path):
        _, _, _ = sentiment_setup
        report_path = tmp_path / "report.json"
        rc = main([
            "validate", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--schema", "dataset-1", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["tool_version"]


class TestBuildVocab:
    def test_writes_vocab_file(self, sentiment_setup, tmp_path):
        _, _, _ = sentiment_setup
        out = tmp_path / "vocab.tsv"
        rc = main([
            "build-vocab", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "[PAD]\t0"

    def test_missing_parent_directories_are_made(self, sentiment_setup, tmp_path):
        out = tmp_path / "new" / "dir" / "vocab.tsv"
        rc = main(["build-vocab", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == b"".join(vocab_lines(load_vocab(out)))
        assert sorted(p.name for p in out.parent.iterdir()) == ["vocab.tsv"]  # no temp file left

    def test_report_written(self, sentiment_setup, tmp_path):
        out, report_path = tmp_path / "vocab.tsv", tmp_path / "r.json"
        rc = main(["build-vocab", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
                   "--min-freq", "2", "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["vocab_size"] == load_vocab(out).size
        assert (report["out"], report["min_freq"], report["max_size"]) == (str(out), 2, 50000)
        assert report["tool_version"] and report["config_hash"] is None


# Bad inputs: (expected exit code, fragment of the one-line message).
BAD_INPUTS = {
    "unknown_focal_key": (2, "bad match.focal.beta: unknown key"),
    "malformed_vocab": (2, "bad vocab file"),
    "non_checkpoint_file": (2, "not a checkpoint file"),
    "malformed_predictions": (1, "not valid JSON"),
    "predictions_invalid_utf8": (1, "preds.jsonl: line 2: invalid UTF-8 at byte 8"),
    "no_usable_mrc_examples": (1, "no usable mrc examples"),
    "search_no_usable_mrc_examples": (1, "data error: no usable mrc examples"),
    "sentiment_corpus_unlabeled": (1, "data error: 40 documents lack sentiment labels"),
    "match_corpus_without_key_entities": (
        1, "data error: pairs without labels (documents missing key_entities)"),
    "crossval_k_above_documents": (2, "bad --k: need 2 <= k <= 40"),
    "crossval_k_below_two": (2, "bad --k: need 2 <= k <= 40"),
    "search_k_above_documents": (2, "bad --k: need 2 <= k <= 40"),
    "search_deltas_list": (2, "bad search.deltas"),
    "search_deltas_int_values": (2, "bad search.deltas"),
    "search_deltas_string_candidate": (2, "bad search candidate epochs='a'"),
    "search_deltas_epochs_zero": (2, "bad search candidate epochs=0"),
    "search_deltas_task_for_sentiment": (2, "bad search field 'task': sentiment searches epochs"),
    "search_deltas_threshold_for_sentiment": (2, "bad search field 'threshold'"),
    "search_deltas_focal_for_match": (2, "bad search field 'focal': match searches epochs"),
    "match_focal_with_cross_entropy": (
        2, "bad match.focal: read only with loss 'focal', not 'cross_entropy'"),
    "train_dev_split_k_above_documents": (2, "bad sentiment.dev_split_k"),
    "ensemble_dev_split_k_above_documents": (2, "bad sentiment.dev_split_k"),
    "truncated_checkpoint": (2, "tensor section is"),
    "checkpoint_missing_tensor": (2, "tensor index differs"),
    "checkpoint_header_length_flipped": (2, "truncated checkpoint header"),
    "checkpoint_nan_tensor": (2, "tensor encoder.embedding holds a non-finite value"),
    "checkpoint_inf_tensor": (2, "tensor encoder.embedding holds a non-finite value"),
    "checkpoint_max_len_mismatch": (
        2, "encoder_config.max_len 2 differs from train_config.max_len 64"),
    "beta2_one": (2, "bad sentiment.beta2: must be in [0, 1)"),
    "epochs_float": (2, "bad sentiment.epochs: expected an integer, got 1.5"),
    "seed_negative": (2, "bad sentiment.seed: must be >= 0"),
    "learning_rate_true": (2, "bad sentiment.learning_rate: expected a number, got True"),
    "sentiment_epoch_misspelled": (2, "bad sentiment.epoch: unknown key"),
    "sentiment_loss": (2, "bad sentiment.loss: unknown key"),
    "paths_checkpoints_int": (2, "bad paths.checkpoints: expected a string, got 5"),
    "paths_schema": (2, "bad paths.schema: unknown key"),
    "mrc_schema": (2, "bad mrc.schema: unknown key"),
    "corpus_invalid_utf8": (1, "malformed line: invalid UTF-8"),
    "config_top_level_list": (2, "bad config file: expected a JSON object"),
    "task_section_list": (2, "bad sentiment section: expected a JSON object"),
    "pipeline_section_list": (2, "bad pipeline section: expected a JSON object"),
    "dev_split_k_string": (2, "bad sentiment.dev_split_k: expected an integer"),
    "ensemble_seeds_string": (2, "bad ensemble.seeds: expected a list of integers"),
    "ensemble_top_m_string": (2, "bad ensemble.top_m: expected an integer"),
    "pipeline_match_threshold_above_one": (2, "bad pipeline.match_threshold"),
    "pipeline_match_threshold_string": (2, "bad pipeline.match_threshold"),
    "pipeline_lexicon_invalid_utf8": (2, "bad pipeline.lexicon"),
    "train_mrc_template_without_tag": (2, "bad mrc.template"),
    "train_mrc_max_span_len_zero": (2, "bad mrc.max_span_len"),
    "fine_pipeline_template_without_tag": (2, "bad mrc.template"),
    "fine_pipeline_max_span_len_zero": (2, "bad mrc.max_span_len"),
    "pipeline_lexicon_int": (2, "bad pipeline.lexicon: expected a string, got 5"),
    "pipeline_sentiment_checkpoints_string": (
        2, "bad pipeline.sentiment_checkpoints: expected a list of strings"),
    "pipeline_match_treshold_misspelled": (2, "bad pipeline.match_treshold: unknown key"),
    "pipeline_schema_bogus": (2, "bad pipeline.schema: unknown key"),
    "fine_pipeline_mrc_checkpoint_list": (2, "bad pipeline.mrc_checkpoint: expected a string"),
    "pipeline_vocab_mismatch": (2, "do not share a vocabulary"),
    "evaluate_key_entities_int": (1, "preds.jsonl: line 1: key_entities must be a list of strings"),
    "evaluate_key_entities_string": (1, "preds.jsonl: line 1: key_entities must be a list of strings"),
    "evaluate_span_list": (1, "preds.jsonl: line 1: span must be a string"),
    "validate_corpus_directory": (2, "cannot open file: [Errno 21] Is a directory: "),
    "validate_corpus_below_a_file": (2, "cannot open file: [Errno 20] Not a directory: "),
    "paths_vocab_directory": (2, "cannot open file: [Errno 21] Is a directory: "),
    "encoder_max_len": (2, "bad encoder.max_len: unknown key"),
    "config_nested_too_deeply": (2, "bad config file: not valid JSON: nested too deeply"),
    "config_invalid_utf8": (2, "bad config file: invalid UTF-8 at byte 7"),
    "config_long_integer": (2, "bad config file: not valid JSON: an integer has too many digits"),
    "learning_rate_infinity": (2, "bad sentiment.learning_rate: must be finite"),
    "clip_norm_1e999": (2, "bad sentiment.clip_norm: must be finite"),
    "predictions_nested_too_deeply": (1, "preds.jsonl: line 1: not valid JSON: nested too deeply"),
    "predictions_long_integer": (
        1, "preds.jsonl: line 1: not valid JSON: an integer has too many digits"),
}

def write_checkpoint(path, kind, text="alpha beta"):
    """A small untrained checkpoint of a head kind over the vocabulary of
    ``text``; its sentiment head calls every document negative."""
    vocab = vocab_from_texts([text])
    enc = EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=64)
    head = init_head(kind, enc.d_model, np.random.default_rng(0))
    if kind == "sentiment":
        head.b[0] = 10.0
    train_cfg = TrainConfig(task=task_for_head(kind).name, max_len=64)
    save_checkpoint(Checkpoint(init_params(enc, 0), enc, head, kind, vocab, train_cfg, 0.5, 0), path)


def write_bad_checkpoint(path, case):
    """A small sentiment checkpoint, cut short, with a bit of its header
    length flipped, with NaN or infinity as its first tensor value, with
    one tensor left out of its index, or with an encoder max_len of 2
    against its training max_len of 64."""
    write_checkpoint(path, "sentiment")
    raw = path.read_bytes()
    n = int.from_bytes(raw[12:20], "little")
    if case in ("checkpoint_nan_tensor", "checkpoint_inf_tensor"):
        value = np.float32(np.nan if "nan" in case else np.inf)
        path.write_bytes(raw[: 20 + n] + value.tobytes() + raw[24 + n :])
        return
    if case == "truncated_checkpoint":
        path.write_bytes(raw[:-100])
        return
    if case == "checkpoint_header_length_flipped":
        path.write_bytes(raw[:17] + bytes([raw[17] ^ 0x10]) + raw[18:])
        return
    header = json.loads(raw[20 : 20 + n])
    if case == "checkpoint_max_len_mismatch":
        header["encoder_config"]["max_len"] = 2  # positions are not stored: the index still fits
    else:
        header["tensors"].pop(1)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(raw[:12] + len(blob).to_bytes(8, "little") + blob + raw[20 + n :])


def pipeline_argv(tmp_path, mode, **settings):
    """A pipeline over untrained checkpoints: coarse over corpus.jsonl,
    fine over tagged documents."""
    for kind in ("sentiment", "match", "span"):
        write_checkpoint(tmp_path / f"{kind}.ckpt", kind)
    inp = tmp_path / "corpus.jsonl"
    if mode == "fine":
        inp = tmp_path / "tagged.jsonl"
        save_corpus(mrc_corpus(8, seed=1), inp)
    section = {
        "mode": mode,
        "sentiment_checkpoints": [str(tmp_path / "sentiment.ckpt")],
        "matcher_checkpoints": [str(tmp_path / "match.ckpt")],
        "mrc_checkpoint": str(tmp_path / "span.ckpt"),
    }
    mrc = settings.pop("mrc", {})
    path, _ = write_config(tmp_path, pipeline={**section, **settings}, mrc=mrc)
    return ["pipeline", "--config", str(path), "--input", str(inp),
            "--output", str(tmp_path / "out.jsonl")]


def bad_input_argv(tmp_path, case):
    """Command line for one bad input; corpus.jsonl holds sentiment documents."""
    corpus = str(tmp_path / "corpus.jsonl")
    paths = {"corpus": corpus, "checkpoints": str(tmp_path / "ckpts")}
    _, cfg = write_config(tmp_path)
    train_sentiment = ["train", "--task", "sentiment", "--config", str(tmp_path / "config.json")]
    config_bytes = {
        "config_top_level_list": b"[1]",
        "config_nested_too_deeply": b"[" * 200_000,
        "config_invalid_utf8": b'{"a": "\xff"}',
        "config_long_integer": b'{"a": ' + b"1" * 5_000 + b"}",
        "clip_norm_1e999": json.dumps({**cfg, "sentiment": {**cfg["sentiment"], "clip_norm": 12.5}})
        .replace("12.5", "1e999").encode(),
    }
    if case in config_bytes:
        (tmp_path / "config.json").write_bytes(config_bytes[case])
        return train_sentiment
    if case in ("sentiment_corpus_unlabeled", "match_corpus_without_key_entities"):
        task = case.split("_")[0]
        docs = sentiment_corpus(40, seed=1) if task == "sentiment" else matcher_corpus(40, seed=1)
        unlabeled = [replace(d, sentiment=None) if task == "sentiment" else
                     replace(d, key_entities=None) for d in docs]
        save_corpus(unlabeled, tmp_path / "corpus.jsonl")
        return ["train", "--task", task, "--config", str(tmp_path / "config.json")]
    if case == "task_section_list":
        write_config(tmp_path, sentiment=[])
        return train_sentiment
    if case == "dev_split_k_string":
        write_config(tmp_path, sentiment={**cfg["sentiment"], "dev_split_k": "5"})
        return train_sentiment
    if case in ("ensemble_seeds_string", "ensemble_top_m_string"):
        ensemble = {"seeds": "abc", "top_m": 2} if "seeds" in case else {"seeds": [1, 2], "top_m": "2"}
        path, _ = write_config(tmp_path, ensemble=ensemble)
        return ["ensemble", "--task", "sentiment", "--config", str(path)]
    if case == "pipeline_section_list":
        write_config(tmp_path, pipeline=[])
        return ["pipeline", "--config", str(tmp_path / "config.json"), "--input", corpus,
                "--output", str(tmp_path / "out.jsonl")]
    pipeline_settings = {
        "pipeline_lexicon_int": ("coarse", {"lexicon": 5}),
        "pipeline_sentiment_checkpoints_string": ("coarse", {"sentiment_checkpoints": corpus}),
        "pipeline_match_treshold_misspelled": ("coarse", {"match_treshold": 0.9}),
        "pipeline_schema_bogus": ("coarse", {"schema": "bogus"}),
        "fine_pipeline_mrc_checkpoint_list": ("fine", {"mrc_checkpoint": [1]}),
        "pipeline_vocab_mismatch": ("coarse", {}),
    }
    if case in pipeline_settings:
        mode, settings = pipeline_settings[case]
        argv = pipeline_argv(tmp_path, mode, **settings)
        if case == "pipeline_vocab_mismatch":
            write_checkpoint(tmp_path / "match.ckpt", "match", text="gamma delta")
        return argv
    if case.startswith("evaluate_"):
        gold = {"id": "a", "text": "Acme fell", "entity_list": ["Acme"], "key_entities": ["Acme"]}
        (tmp_path / "gold.jsonl").write_text(json.dumps(gold) + "\n", encoding="utf-8")
        pred = {"id": "a", "sentiment": "negative", **{
            "evaluate_key_entities_int": {"key_entities": 5},
            "evaluate_key_entities_string": {"key_entities": "Acme"},
            "evaluate_span_list": {"span": ["Acme"]},
        }[case]}
        (tmp_path / "preds.jsonl").write_text(json.dumps(pred) + "\n", encoding="utf-8")
        return ["evaluate", "--predictions", str(tmp_path / "preds.jsonl"),
                "--gold", str(tmp_path / "gold.jsonl"), "--task", "entities"]
    if case.startswith("pipeline_match_threshold"):
        return pipeline_argv(tmp_path, "coarse", match_threshold=1.5 if "above" in case else "0.5")
    if case == "pipeline_lexicon_invalid_utf8":
        (tmp_path / "lexicon.txt").write_bytes(b"Acme\n\xff\n")
        return pipeline_argv(tmp_path, "coarse", lexicon=str(tmp_path / "lexicon.txt"))
    bad_mrc = (
        {"template": "Which company?"} if case.endswith("template_without_tag")
        else {"max_span_len": 0}
    )
    if case.startswith("fine_pipeline"):
        return pipeline_argv(tmp_path, "fine", mrc=bad_mrc)
    if case.startswith("train_mrc"):
        save_corpus(mrc_corpus(20, seed=1), tmp_path / "tagged.jsonl")
        path, _ = write_config(tmp_path, mrc={
            **cfg["mrc"], "corpus": str(tmp_path / "tagged.jsonl"), "epochs": 1, **bad_mrc,
        })
        return ["train", "--task", "mrc", "--config", str(path)]
    match_sections = {
        "unknown_focal_key": {"loss": "focal", "focal": {"gamma": 2.0, "beta": 1}},
        "match_focal_with_cross_entropy": {"loss": "cross_entropy", "focal": {"gamma": 2.0}},
    }
    if case in match_sections:
        path, _ = write_config(tmp_path, match=match_sections[case])
        return ["train", "--task", "match", "--config", str(path)]
    if case == "malformed_vocab":
        (tmp_path / "vocab.tsv").write_text("[PAD]\tzero\n", encoding="utf-8")
        path, _ = write_config(tmp_path, paths={**paths, "vocab": str(tmp_path / "vocab.tsv")})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if case == "corpus_invalid_utf8":
        raw = (tmp_path / "corpus.jsonl").read_bytes()
        (tmp_path / "bad.jsonl").write_bytes(raw.replace(b'"text": "', b'"text": "\xff', 1))
        path, _ = write_config(tmp_path, paths={**paths, "corpus": str(tmp_path / "bad.jsonl")})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if case.startswith("validate_corpus"):
        path = tmp_path if case.endswith("directory") else tmp_path / "corpus.jsonl" / "x"
        return ["validate", "--corpus", str(path), "--schema", "dataset-1"]
    if case == "paths_vocab_directory":
        path, _ = write_config(tmp_path, paths={**paths, "vocab": str(tmp_path)})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if case == "encoder_max_len":
        path, _ = write_config(tmp_path, encoder={**cfg["encoder"], "max_len": 5})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if case == "paths_checkpoints_int":
        path, _ = write_config(tmp_path, paths={**paths, "checkpoints": 5})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if case.endswith("_schema"):  # the command decides the schema
        section = case.split("_")[0]
        path, _ = write_config(tmp_path, **{section: {**cfg[section], "schema": "dataset-2"}})
        return ["train", "--task", "mrc", "--config", str(path)]
    sentiment_settings = {
        "beta2_one": {"beta2": 1.0}, "epochs_float": {"epochs": 1.5}, "seed_negative": {"seed": -1},
        "learning_rate_true": {"learning_rate": True}, "sentiment_epoch_misspelled": {"epoch": 500},
        "learning_rate_infinity": {"learning_rate": math.inf},
        "sentiment_loss": {"loss": "cross_entropy"},
    }
    if case in sentiment_settings:
        bad = sentiment_settings[case]
        path, _ = write_config(tmp_path, sentiment={**cfg["sentiment"], **bad})
        return ["train", "--task", "sentiment", "--config", str(path)]
    if "checkpoint" in case:
        if case == "non_checkpoint_file":
            (tmp_path / "bad.ckpt").write_text("not a checkpoint", encoding="utf-8")
        else:
            write_bad_checkpoint(tmp_path / "bad.ckpt", case)
        write_checkpoint(tmp_path / "match.ckpt", "match")
        path, _ = write_config(tmp_path, pipeline={
            "mode": "coarse",
            "sentiment_checkpoints": [str(tmp_path / "bad.ckpt")],
            "matcher_checkpoints": [str(tmp_path / "match.ckpt")],
        })
        return ["pipeline", "--config", str(path), "--input", corpus,
                "--output", str(tmp_path / "out.jsonl")]
    if case.startswith("search_deltas"):
        deltas = {
            "search_deltas_list": ["epochs"],
            "search_deltas_int_values": {"epochs": 2},
            "search_deltas_string_candidate": {"epochs": ["a"]},
            "search_deltas_epochs_zero": {"epochs": [1, 0]},
            "search_deltas_task_for_sentiment": {"task": ["match"]},
            "search_deltas_threshold_for_sentiment": {"threshold": [0.3]},
            "search_deltas_focal_for_match": {"focal": [{"gamma": 1.0}]},
        }[case]
        task = case.rsplit("_", 1)[1] if "_for_" in case else "sentiment"
        if task == "match":  # a corpus with key entities; the match section sets loss "focal"
            save_corpus(matcher_corpus(40, seed=1), tmp_path / "corpus.jsonl")
        path, _ = write_config(tmp_path, search={"deltas": deltas})
        return ["search", "--task", task, "--k", "2", "--config", str(path)]
    if case.endswith("no_usable_mrc_examples"):
        # Every question is longer than max_len, so no example encodes.
        save_corpus(mrc_corpus(20, seed=1), tmp_path / "tagged.jsonl")
        path, _ = write_config(tmp_path, mrc={
            "corpus": str(tmp_path / "tagged.jsonl"), "max_len": 8,
            "epochs": 1, "template": "which of the companies involves {tag}?",
        })
        if case.startswith("search"):
            return ["search", "--task", "mrc", "--k", "2", "--config", str(path)]
        return ["train", "--task", "mrc", "--config", str(path)]
    if case.startswith(("crossval", "search")):
        path, _ = write_config(tmp_path)
        k = "1" if case.endswith("below_two") else "41"
        return [case.split("_")[0], "--task", "sentiment", "--k", k, "--config", str(path)]
    if case.endswith("dev_split_k_above_documents"):
        _, cfg = write_config(tmp_path)
        path, _ = write_config(tmp_path, sentiment={**cfg["sentiment"], "dev_split_k": 41})
        return [case.split("_")[0], "--task", "sentiment", "--config", str(path)]
    if "predictions" in case:
        (tmp_path / "preds.jsonl").write_bytes({
            "malformed_predictions": b'{"id": "a"\n',
            "predictions_invalid_utf8": b'{"id": "a"}\n{"id": "\xffb"}\n',
            "predictions_nested_too_deeply": b"[" * 200_000 + b"\n",
            "predictions_long_integer": b'{"id": ' + b"1" * 5_000 + b"}\n",
        }[case])
        return ["evaluate", "--predictions", str(tmp_path / "preds.jsonl"), "--gold", corpus,
                "--task", "sentiment"]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code_and_message(sentiment_setup, tmp_path, capsys, case):
    code, fragment = BAD_INPUTS[case]
    assert main(bad_input_argv(tmp_path, case)) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert fragment in line


@pytest.mark.parametrize("case", ["checkpoint_nan_tensor", "checkpoint_inf_tensor"])
def test_non_finite_checkpoint_writes_no_output(sentiment_setup, tmp_path, capsys, case):
    """A checkpoint that loaded with NaN in it made every document positive
    with "prob_negative": NaN; now the pipeline stops before its output."""
    assert main(bad_input_argv(tmp_path, case)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.endswith("bad.ckpt: tensor encoder.embedding holds a non-finite value")
    assert not (tmp_path / "out.jsonl").exists()


def test_max_len_mismatch_checkpoint_writes_no_output(sentiment_setup, tmp_path, capsys):
    """A sentiment checkpoint whose encoder max_len (2) is below what
    encode_single accepts sent its encoding error, a str, into the vote and
    crashed the pipeline; now it does not load."""
    assert main(bad_input_argv(tmp_path, "checkpoint_max_len_mismatch")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("configuration error: ")
    assert line.endswith("bad.ckpt: encoder_config.max_len 2 differs from train_config.max_len 64")
    assert not (tmp_path / "out.jsonl").exists()


# For each JSON type of the table, values of the other types.
BOOLS, TEXT = st.booleans(), st.text(max_size=5)
INTS, FLOATS = st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False)
LISTS = st.lists(INTS | TEXT, max_size=3)
OBJECTS = st.dictionaries(TEXT, INTS | TEXT, max_size=3)
NOT_OF_TYPE = {
    "string": BOOLS | INTS | FLOATS | LISTS | OBJECTS,
    "integer": BOOLS | FLOATS | TEXT | LISTS | OBJECTS,
    "number": BOOLS | TEXT | LISTS | OBJECTS,
    "object": BOOLS | INTS | FLOATS | TEXT | LISTS,
    "list of strings": BOOLS | INTS | TEXT | OBJECTS
    | st.tuples(st.lists(TEXT, max_size=2), INTS | BOOLS).map(lambda t: t[0] + [t[1]]),
    "list of integers": BOOLS | INTS | TEXT | OBJECTS
    | st.tuples(st.lists(INTS, max_size=2), FLOATS | TEXT | BOOLS).map(lambda t: t[0] + [t[1]]),
    "object of lists": BOOLS | INTS | TEXT | LISTS
    | st.dictionaries(TEXT, INTS | TEXT, min_size=1, max_size=2),
}


def bad_values(row):
    """Values of another JSON type than the row's, null where it may not be
    null, and values out of range: no number of the table may be negative,
    and every string with a check, or owned by a config dataclass, is one of
    a few or holds one {tag}."""
    wrong = NOT_OF_TYPE[row.type] if row.nullable else NOT_OF_TYPE[row.type] | st.none()
    if row.type == "integer":
        return wrong | st.integers(max_value=-1)
    if row.type == "number":
        return wrong | st.integers(max_value=-1) | st.floats(max_value=-1.0, allow_infinity=False)
    if row.type == "list of integers":
        return wrong | st.lists(st.integers(max_value=-1), min_size=1, max_size=3)
    if row.type == "string" and (row.check or row.owner):
        return wrong | st.from_regex(r"bogus[a-z]{0,3}", fullmatch=True)
    return wrong


def with_setting(cfg, row, value):
    """``cfg`` with ``row``'s key set to ``value``, its sections created."""
    section = cfg
    for name in row.section.split("."):
        section[name] = dict(section.get(name) or {})
        section = section[name]
    section[row.key] = value
    return cfg


@pytest.mark.parametrize("row", SETTINGS, ids=lambda row: f"{row.section}.{row.key}")
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_every_setting_rejects_a_bad_value(row, data):
    """A wrong-typed or out-of-range value of any key exits 2 before any
    work, with one last line naming the key."""
    value = data.draw(bad_values(row), label=f"{row.section}.{row.key}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, cfg = write_config(tmp)
        path.write_text(json.dumps(with_setting(cfg, row, value)), encoding="utf-8")
        argv = ["--config", str(path), "--report", str(tmp / "report.json")]
        if row.section == "pipeline":
            argv = ["pipeline", *argv, "--input", str(tmp / "corpus.jsonl"),
                    "--output", str(tmp / "out.jsonl")]
        else:
            task = row.section.split(".")[0]
            argv = ["train", *argv,
                    "--task", task if task in ("sentiment", "match", "mrc") else "sentiment"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert f"{row.section}.{row.key}" in err.getvalue().splitlines()[-1]
        assert sorted(p.name for p in tmp.iterdir()) == ["config.json"]


# Each kind of file the CLI reads: its file name here, and the exit code the
# README gives a bad one.
INPUT_FILES = {
    "config": ("config.json", 2), "corpus": ("corpus.jsonl", 1),
    "predictions": ("preds.jsonl", 1), "checkpoint": ("sentiment.ckpt", 2),
    "vocab": ("vocab.tsv", 2), "lexicon": ("lexicon.txt", 2),
}


def input_config(files: dict, tmp: Path) -> bytes:
    """A config for the harness commands over ``files``, with numbers in
    every section."""
    tiny = {"epochs": 1, "batch_size": 4, "learning_rate": 0.002, "max_len": 16, "dev_split_k": 2}
    return json.dumps({
        "paths": {"vocab": str(files["vocab"]), "checkpoints": str(tmp / "ckpts")},
        "encoder": {"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "dropout_rate": 0.1},
        "sentiment": {**tiny, "corpus": str(files["corpus"])},
        "match": {**tiny, "loss": "focal", "focal": {"gamma": 2.0, "alpha": 0.25}},
        "pipeline": {"match_threshold": 0.5, "lexicon": str(files["lexicon"]),
                     "sentiment_checkpoints": [str(files["checkpoint"])],
                     "matcher_checkpoints": [str(files["match"])]},
    }).encode()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each kind, and the matcher checkpoint, in one directory."""
    root = tmp_path_factory.mktemp("inputs")
    docs = sentiment_corpus(10, seed=4)
    save_corpus(docs, root / "corpus.jsonl")
    preds = [{"id": d.id, "sentiment": d.sentiment.value, "prob_negative": 0.25} for d in docs]
    (root / "preds.jsonl").write_text("".join(json.dumps(p) + "\n" for p in preds))
    text = " ".join(d.cleaned_text for d in docs)
    for kind in ("sentiment", "match"):
        write_checkpoint(root / f"{kind}.ckpt", kind, text)
    (root / "vocab.tsv").write_bytes(b"".join(vocab_lines(vocab_from_texts([text]))))
    (root / "lexicon.txt").write_text("acme\nbluepeak corp\n", encoding="utf-8")
    files = {kind: root / name for kind, (name, _) in INPUT_FILES.items()}
    files["match"] = root / "match.ckpt"
    files["config"].write_bytes(input_config(files, root))
    return files


def mutate(data, raw: bytes, how: str) -> bytes:
    """``raw`` cut short, with one byte changed, with 0xFF put in, with
    100,000 ``[`` at the start of a line or after a colon, or with a number
    (or, where there is none, a digit run) made Infinity, NaN or 1e999."""
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        pos = data.draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1 :]
    if how in ("0xff", "nest"):
        spots = [m.end() for m in re.finditer(rb"^|:", raw, re.M)]
        pos = data.draw(st.sampled_from(spots) if how == "nest" else st.integers(0, len(raw)))
        return raw[:pos] + (b"\xff" if how == "0xff" else b"[" * 100_000) + raw[pos:]
    spans = ([m.span(1) for m in re.finditer(rb"[:,\[] ?(-?\d[\d.eE+-]*)", raw)]
             or [m.span() for m in re.finditer(rb"\d+", raw)] or [(0, 0)])
    lo, hi = data.draw(st.sampled_from(spans))
    value = data.draw(st.sampled_from([b"Infinity", b"-Infinity", b"NaN", b"1e999"]))
    return raw[:lo] + value + raw[hi:]


@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_input_exits_as_documented(valid_inputs, kind, data):
    """A valid file of each kind, damaged or swapped for a directory, either
    still works (exit 0) or exits with the README's code for its kind (2
    for a directory), one line on stderr and no output file.  A
    checkpoint's JSON damage goes into its header, whose length follows; a
    changed tensor byte loads, as the format has no checksum."""
    name, code = INPUT_FILES[kind]
    raw = valid_inputs[kind].read_bytes()
    how = data.draw(st.sampled_from(["truncate", "flip", "0xff", "nest", "infinity", "directory"]),
                    label="how")
    if how == "directory":
        damaged, code = None, 2
    elif kind == "checkpoint" and how not in ("truncate", "flip"):
        n = int.from_bytes(raw[12:20], "little")
        header = mutate(data, raw[20 : 20 + n], how)
        damaged = raw[:12] + len(header).to_bytes(8, "little") + header + raw[20 + n :]
    else:
        damaged = mutate(data, raw, how)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {**valid_inputs, kind: tmp / name}
        if damaged is None:
            files[kind].mkdir()
        else:
            files[kind].write_bytes(damaged)
        if kind != "config":
            files["config"] = tmp / "config.json"
            files["config"].write_bytes(input_config(files, tmp))
        argv = {
            "corpus": ["build-vocab", "--corpus", str(files["corpus"]), "--out",
                       str(tmp / "built.tsv")],
            "predictions": ["evaluate", "--predictions", str(files["predictions"]),
                            "--gold", str(files["corpus"]), "--task", "sentiment"],
            "vocab": ["train", "--task", "sentiment", "--config", str(files["config"])],
        }.get(kind, ["pipeline", "--config", str(files["config"]), "--input",
                     str(files["corpus"]), "--output", str(tmp / "out.jsonl")])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            assert (rc, len(err.getvalue().splitlines())) == (code, 1), err.getvalue()
            assert {p.name for p in tmp.iterdir()} == {name, "config.json"}  # no output


# Each path a command writes, by the flag or config key that names it.
OUTPUTS = {
    "validate": ["--report"], "build-vocab": ["--out", "--report"],
    "train": ["--report", "paths.checkpoints"], "crossval": ["--report"],
    "ensemble": ["--report", "paths.checkpoints"], "search": ["--report"],
    "pipeline": ["--output", "--report"], "evaluate": ["--report"],
}
BAD_ARGV = [
    *[(command, target, how) for command, targets in OUTPUTS.items() for target in targets
      for how in ("below_a_file", "file" if target == "paths.checkpoints" else "directory")],
    *[("build-vocab", flag, value) for flag in ("--min-freq", "--max-size")
      for value in ("0", "-1")],
]


def command_argv(files: dict, tmp: Path, command: str) -> list[str]:
    """A command line that works over the valid inputs, writing into ``tmp``."""
    corpus, config = str(files["corpus"]), str(tmp / "config.json")
    if command in ("train", "crossval", "ensemble", "search"):
        return [command, "--task", "sentiment", "--config", config,
                *(["--k", "2"] if command in ("crossval", "search") else [])]
    return {
        "validate": ["validate", "--corpus", corpus, "--schema", "dataset-1"],
        "build-vocab": ["build-vocab", "--corpus", corpus, "--out", str(tmp / "built.tsv")],
        "pipeline": ["pipeline", "--config", config, "--input", corpus,
                     "--output", str(tmp / "out.jsonl")],
        "evaluate": ["evaluate", "--predictions", str(files["predictions"]), "--gold", corpus,
                     "--task", "sentiment"],
    }[command]


@pytest.mark.parametrize("command, target, how", BAD_ARGV, ids=["-".join(c) for c in BAD_ARGV])
def test_bad_output_path_or_flag_exits_before_any_work(valid_inputs, tmp_path, command, target,
                                                       how):
    """An output path that is a directory (paths.checkpoints: a file) or lies
    below a file, and a build-vocab size flag below its least value, exit 2
    with one stderr line naming the flag or key, and nothing is written."""
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    (tmp_path / "a_dir").mkdir()
    bad = {"below_a_file": str(tmp_path / "a_file" / "out"), "file": str(tmp_path / "a_file"),
           "directory": str(tmp_path / "a_dir")}.get(how, how)
    config = json.loads(valid_inputs["config"].read_bytes())
    config["paths"]["checkpoints"] = bad if target == "paths.checkpoints" else str(tmp_path / "ck")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = command_argv(valid_inputs, tmp_path, command)
    if target.startswith("--"):
        argv += [target, bad]  # the last of a repeated flag counts
    before = sorted(tmp_path.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    (line,) = err.getvalue().splitlines()
    assert (rc, line.startswith(f"configuration error: bad {target}")) == (2, True), line
    assert sorted(tmp_path.rglob("*")) == before


def test_every_flag_is_read_by_its_command():
    """Each option of each command is read, as ``args.<dest>``, by the
    function that runs the command: no flag is accepted and ignored."""
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    unread = [
        f"{name} {action.option_strings[-1]}"
        for name, parser in commands.choices.items()
        for action in parser._actions
        if action.dest != "help" and not re.search(
            rf"\bargs\.{action.dest}\b", inspect.getsource(parser.get_default("func")))
    ]
    assert unread == []


def test_pipeline_takes_no_seed():
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["pipeline", "--config", "c.json", "--input", "in.jsonl", "--output", "out.jsonl",
              "--seed", "1"])
    assert exc.value.code == 2


def test_readme_quickstart_commands_parse():
    """Every finkey line of the README Quickstart is a valid command line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("finkey ")]
    assert {argv[1] for argv in lines} == set(OUTPUTS)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_readme_config_passes_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "config.json").write_text(example, encoding="utf-8")
    _, values = _load_config(str(tmp_path / "config.json"))
    assert values["pipeline.mode"] == "coarse"
    unnamed = {row.key for row in SETTINGS if f"`{row.key}`" not in section
               and f'"{row.key}"' not in section}
    assert not unnamed


class TestTrainCommand:
    def test_deterministic_rerun_byte_identical(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        report1 = tmp_path / "r1.json"
        rc = main(["train", "--task", "sentiment", "--config", config_path, "--report", str(report1)])
        assert rc == 0
        ckpt = tmp_path / "ckpts" / "sentiment-seed3.ckpt"
        first = ckpt.read_bytes()
        rc = main(["train", "--task", "sentiment", "--config", config_path])
        assert rc == 0
        assert ckpt.read_bytes() == first

    def test_report_has_one_loss_per_epoch(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        report_path = tmp_path / "train_report.json"
        rc = main(["train", "--task", "sentiment", "--config", config_path, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["epoch_losses"]) == 3
        assert report["config_hash"]

    def test_seed_flag_overrides_config(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        rc = main(["train", "--task", "sentiment", "--config", config_path, "--seed", "9"])
        assert rc == 0
        assert (tmp_path / "ckpts" / "sentiment-seed9.ckpt").exists()

    def test_seed_of_any_size_trains_and_loads_back(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        seed = 2**70
        rc = main(["train", "--task", "sentiment", "--config", config_path, "--seed", str(seed)])
        assert rc == 0
        assert load_checkpoint(tmp_path / "ckpts" / f"sentiment-seed{seed}.ckpt").seed == seed

    def test_mrc_on_tagless_corpus_is_data_error(self, sentiment_setup):
        _, config_path, _ = sentiment_setup
        rc = main(["train", "--task", "mrc", "--config", config_path])
        assert rc == 1

    def test_missing_config_is_config_error(self):
        assert main(["train", "--task", "sentiment"]) == 2

    @pytest.mark.parametrize("task", ["match", "mrc"])
    def test_left_out_documents_warned_once(self, tmp_path, caplog, task):
        # A document without an entity list, or whose gold entity is not in
        # its text, is left out of the dataset with one warning per run.
        if task == "match":
            docs = matcher_corpus(40, seed=1) + [Document("extra", "Acme fell", "Acme fell")]
        else:
            docs = mrc_corpus(40, seed=1) + [
                Document("extra", "Acme fell", "Acme fell", key_entities=["Zeta"], tag="fraud")
            ]
        save_corpus(docs, tmp_path / "corpus.jsonl")
        path, _ = write_config(tmp_path)
        with caplog.at_level(logging.WARNING):
            assert main(["train", "--task", task, "--config", str(path)]) == 0
        left_out = [r.getMessage() for r in caplog.records if "1 documents" in r.getMessage()]
        assert len(left_out) == 1, left_out

    def test_report_counts_examples_skipped_in_encoding(self, tmp_path):
        # At max_len 12 some answers fall past the truncated context, and
        # train skips those examples.
        save_corpus(mrc_corpus(40, seed=1), tmp_path / "corpus.jsonl")
        _, cfg = write_config(tmp_path)
        path, _ = write_config(tmp_path, mrc={**cfg["mrc"], "max_len": 12, "epochs": 1})
        report_path = tmp_path / "report.json"
        assert main(["train", "--task", "mrc", "--config", str(path),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        counts = [report[key] for key in ("n_train", "n_train_skipped", "n_dev", "n_dev_skipped")]
        assert counts == [32, 11, 8, 3]

    @pytest.mark.parametrize("command", ["crossval", "ensemble", "search"])
    def test_every_training_report_counts_skipped_examples(self, tmp_path, caplog, command):
        # As above: each training run warns once for its train and once for
        # its dev examples, and the report carries the same counts, per fold,
        # member or grid point, in the order they trained.
        save_corpus(mrc_corpus(40, seed=1), tmp_path / "corpus.jsonl")
        _, cfg = write_config(tmp_path)
        path, _ = write_config(tmp_path, mrc={**cfg["mrc"], "max_len": 12, "epochs": 1})
        report_path = tmp_path / "report.json"
        argv = [command, "--task", "mrc", "--config", str(path), "--report", str(report_path)]
        with caplog.at_level(logging.WARNING):
            assert main(argv + ([] if command == "ensemble" else ["--k", "2"])) == 0
        warned = [tuple(map(int, m)) for r in caplog.records
                  for m in re.findall(r"skipped (\d+) of (\d+) examples", r.getMessage())]
        runs = list(zip(warned[::2], warned[1::2]))  # (train, dev) of each training run
        report = json.loads(report_path.read_text())
        if command == "crossval":
            assert runs == [((7, 20), (7, 20))] * 2
            rows = [report]
        else:
            rows = report["table"] if command == "search" else report["members"]
        reported = []
        for row in rows:
            train, dev = row["n_train_skipped"], row["n_dev_skipped"]
            reported += zip(train, dev) if command != "ensemble" else [(train, dev)]
        if command == "ensemble":  # three seeds train on one split, the top two are kept
            assert len(runs) == 3 and len(set(runs)) == 1
            runs = runs[:2]
        assert reported == [(train[0], dev[0]) for train, dev in runs]

    def test_bad_config_value_is_config_error(self, sentiment_setup, tmp_path):
        _, _, _ = sentiment_setup
        path, _ = write_config(tmp_path, sentiment={"epochs": 0})
        assert main(["train", "--task", "sentiment", "--config", str(path)]) == 2


class TestCrossvalCommand:
    def test_fold_report(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        report_path = tmp_path / "cv.json"
        rc = main([
            "crossval", "--task", "sentiment", "--config", config_path,
            "--k", "3", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["fold_scores"]) == 3
        assert report["mean_score"] == pytest.approx(
            sum(report["fold_scores"]) / 3, abs=1e-12
        )


class TestEnsembleCommand:
    def test_member_count_and_order(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        report_path = tmp_path / "ens.json"
        rc = main([
            "ensemble", "--task", "sentiment", "--config", config_path,
            "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert len(report["members"]) == 2
        scores = [m["dev_score"] for m in report["members"]]
        assert scores == sorted(scores, reverse=True)
        for member in report["members"]:
            assert (tmp_path / "ckpts").joinpath(
                f"sentiment-seed{member['seed']}.ckpt"
            ).exists()


class TestSearchCommand:
    def test_table_and_best(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        report_path = tmp_path / "search.json"
        rc = main([
            "search", "--task", "sentiment", "--config", config_path,
            "--k", "2", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        # epochs candidates {1, 2} plus the base value 3 -> 3 grid points
        assert len(report["table"]) == 3
        assert any(row["n_changed"] == 0 for row in report["table"])


def run_full_pipeline(tmp_path, mode):
    """Train tiny models and drive the pipeline + evaluate commands."""
    if mode == "coarse":
        docs = matcher_corpus(30, seed=2, n_companies=8)
    else:
        docs = mrc_corpus(30, seed=2)
    for doc in docs:
        doc.sentiment = None
    corpus = tmp_path / "input.jsonl"
    save_corpus(docs, corpus)
    return corpus, docs


class TestPipelineAndEvaluate:
    def test_coarse_end_to_end(self, tmp_path, capsys):
        match_docs = matcher_corpus(40, seed=2, n_companies=8)
        save_corpus(match_docs, tmp_path / "match.jsonl")
        vocab_path = tmp_path / "vocab.tsv"
        # one shared vocabulary ties the pipeline checkpoints together
        assert main([
            "build-vocab", "--corpus", str(tmp_path / "match.jsonl"), "--out", str(vocab_path),
        ]) == 0
        config_path, _ = write_config(
            tmp_path,
            paths={
                "corpus": str(tmp_path / "match.jsonl"),
                "checkpoints": str(tmp_path / "ckpts"),
                "vocab": str(vocab_path),
            },
            pipeline={
                "mode": "coarse",
                "match_threshold": 0.5,
                "sentiment_checkpoints": [str(tmp_path / "ckpts" / "sentiment-seed3.ckpt")],
                "matcher_checkpoints": [str(tmp_path / "ckpts" / "match-seed4.ckpt")],
            },
        )
        assert main(["train", "--task", "sentiment", "--config", str(config_path)]) == 0
        assert main(["train", "--task", "match", "--config", str(config_path), "--seed", "4"]) == 0

        inp, docs = run_full_pipeline(tmp_path, "coarse")
        out = tmp_path / "preds.jsonl"
        rc = main([
            "pipeline", "--config", str(config_path),
            "--input", str(inp), "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(docs)
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == [d.id for d in docs]

        gold = tmp_path / "gold.jsonl"
        save_corpus(matcher_corpus(30, seed=2, n_companies=8), gold)
        rc = main([
            "evaluate", "--predictions", str(out), "--gold", str(gold),
            "--task", "entities",
        ])
        assert rc == 0
        assert "entity P/R/F1" in capsys.readouterr().out

    def test_pipeline_missing_checkpoint_is_config_error(self, sentiment_setup, tmp_path):
        _, config_path, _ = sentiment_setup
        path, _ = write_config(
            tmp_path,
            pipeline={
                "mode": "coarse",
                "sentiment_checkpoints": [str(tmp_path / "missing.ckpt")],
                "matcher_checkpoints": [str(tmp_path / "missing2.ckpt")],
            },
        )
        rc = main([
            "pipeline", "--config", str(path),
            "--input", str(tmp_path / "corpus.jsonl"),
            "--output", str(tmp_path / "preds.jsonl"),
        ])
        assert rc == 2

    def test_empty_input_empty_output(self, sentiment_setup, tmp_path):
        _, _, _ = sentiment_setup
        vocab_path = tmp_path / "vocab.tsv"
        assert main([
            "build-vocab", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(vocab_path),
        ]) == 0
        path, _ = write_config(
            tmp_path,
            paths={
                "corpus": str(tmp_path / "corpus.jsonl"),
                "checkpoints": str(tmp_path / "ckpts"),
                "vocab": str(vocab_path),
            },
            pipeline={
                "mode": "coarse",
                "sentiment_checkpoints": [str(tmp_path / "ckpts" / "sentiment-seed3.ckpt")],
                "matcher_checkpoints": [str(tmp_path / "ckpts" / "match-seed3.ckpt")],
            },
        )
        assert main(["train", "--task", "sentiment", "--config", str(path)]) == 0
        assert main(["train", "--task", "match", "--config", str(path)]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "empty_preds.jsonl"
        rc = main(["pipeline", "--config", str(path), "--input", str(empty), "--output", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == ""


class TestEvaluateCommand:
    def write_pair(self, tmp_path, preds, golds):
        pred_path = tmp_path / "preds.jsonl"
        gold_path = tmp_path / "gold.jsonl"
        pred_path.write_text(
            "".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8"
        )
        gold_path.write_text(
            "".join(json.dumps(g) + "\n" for g in golds), encoding="utf-8"
        )
        return str(pred_path), str(gold_path)

    def test_perfect_sentiment_accuracy(self, tmp_path, capsys):
        golds = [
            {"id": "a", "text": "t", "sentiment": "negative"},
            {"id": "b", "text": "t", "sentiment": "positive"},
        ]
        preds = [
            {"id": "a", "sentiment": "negative", "prob_negative": 0.9},
            {"id": "b", "sentiment": "positive", "prob_negative": 0.1},
        ]
        pred_path, gold_path = self.write_pair(tmp_path, preds, golds)
        rc = main(["evaluate", "--predictions", pred_path, "--gold", gold_path, "--task", "sentiment"])
        assert rc == 0
        assert "accuracy: 1.00000" in capsys.readouterr().out

    def test_worked_entity_example(self, tmp_path, capsys):
        golds = [
            {"id": "1", "text": "t", "entity_list": ["A", "B", "C"], "key_entities": ["A", "B"]},
            {"id": "2", "text": "t", "entity_list": ["D"], "key_entities": ["D"]},
        ]
        preds = [
            {"id": "1", "sentiment": "negative", "prob_negative": 0.9, "key_entities": ["A", "C"]},
            {"id": "2", "sentiment": "negative", "prob_negative": 0.9, "key_entities": ["D"]},
        ]
        pred_path, gold_path = self.write_pair(tmp_path, preds, golds)
        report_path = tmp_path / "eval.json"
        rc = main([
            "evaluate", "--predictions", pred_path, "--gold", gold_path,
            "--task", "entities", "--report", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        metrics = report["entity_metrics"]
        assert (metrics["tp"], metrics["fp"], metrics["fn"]) == (2, 1, 1)
        assert metrics["f1"] == pytest.approx(2 / 3)

    def test_id_mismatch_names_offender(self, tmp_path, capsys):
        golds = [{"id": "a", "text": "t", "sentiment": "negative"}]
        preds = [{"id": "zz", "sentiment": "negative"}]
        pred_path, gold_path = self.write_pair(tmp_path, preds, golds)
        rc = main(["evaluate", "--predictions", pred_path, "--gold", gold_path, "--task", "sentiment"])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "data error: id mismatch between predictions and gold corpus: 'a'"
