import ast
import contextlib
import copy
import dataclasses
import inspect
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (OLD_JSON_LINES_BANK, ZIP_DAMAGE, banks_equal, damage_zip,
                      dense_action_oracle, reference_zip, replace_zip_ids, write_old_sidecar)

from gatedfusion import __version__, cli, errors, scoring, training
from gatedfusion.bank import (AggregationConfig, Detection, FeatureBank, SegmentRecord,
                              SynthSpec, bank_features, load_feature_bank,
                              save_feature_bank)
from gatedfusion.cli import main
from gatedfusion.errors import ValidationError, write_json
from gatedfusion.gfa import ScaleMode
from gatedfusion.manifest import load_manifest, write_manifest
from gatedfusion.scoring import (ActionPrior, ScoreTable, load_prior, load_score_table,
                                 save_prior, save_score_table)
from gatedfusion.training import (FUSION_KINDS, Checkpoint, TrainConfig, grad_check,
                                  init_model, load_checkpoint, param_groups, save_checkpoint)


def run(*argv):
    return main([str(a) for a in argv])


def _run_python(*args, **env):
    """``python *args`` in a fresh process that imports this checkout's
    package, with ``env`` added to the environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def synth(out_dir, seed=7, train=40, val=20, **flags):
    args = ["synth", "--seed", seed, "--out-dir", out_dir,
            "--train-segments", train, "--val-segments", val]
    for key, val_ in flags.items():
        args += [f"--{key.replace('_', '-')}", val_]
    assert run(*args) == 0


def tiny_action_inputs(root):
    """A labeled 2-verb x 3-noun bank, and aligned verb and noun table zips
    and a prior zip saved as a user's own model saves them: the inputs of one
    ``actions --prior`` run."""
    ids = ["s0", "s1", "s2", "s3"]
    records = [SegmentRecord(segment_id=i, clip_feature=np.zeros(2), clip_center_frame=0,
                             detections=[], verb_label=v, noun_label=n)
               for i, (v, n) in zip(ids, [(0, 0), (1, 1), (1, 2), (0, 0)])]
    paths = {name: root / f"{name}.txt" for name in ("verb", "noun")}
    paths["bank"], paths["prior"] = root / "test.bank", root / "prior.npz"
    save_feature_bank(FeatureBank.from_records(records, dim_v=2, dim_o=2, verb_vocab_size=2,
                                               noun_vocab_size=3), paths["bank"])
    save_score_table(ScoreTable(segment_ids=ids, space="verb", scores=np.array(
        [[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.5, 0.5]])), paths["verb"])
    save_score_table(ScoreTable(segment_ids=ids, space="noun", scores=np.array(
        [[0.4, 0.1, 0.5], [0.1, 0.4, 0.5], [0.3, 0.3, 0.4], [0.2, 0.2, 0.6]])), paths["noun"])
    save_prior(ActionPrior(np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]])), paths["prior"])
    return paths


def run_actions(paths, out_dir):
    return run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
               "--bank", paths["bank"], "--prior", paths["prior"], "--out-dir", out_dir)


def save_header_only_bank(path, dim=2, verbs=2, nouns=3):
    """Save a bank of no records, of feature dims ``dim``; returns the path."""
    save_feature_bank(FeatureBank.from_records([], dim_v=dim, dim_o=dim, verb_vocab_size=verbs,
                                               noun_vocab_size=nouns), path)
    return path


class TestSynth:
    def test_deterministic(self, tmp_path):
        synth(tmp_path / "a")
        synth(tmp_path / "b")
        assert (tmp_path / "a/train.bank").read_bytes() == \
            (tmp_path / "b/train.bank").read_bytes()
        assert (tmp_path / "a/val.bank").read_bytes() == \
            (tmp_path / "b/val.bank").read_bytes()

    def test_writes_manifest(self, tmp_path):
        synth(tmp_path / "a")
        manifest = load_manifest(tmp_path / "a/synth.manifest.json")
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["config"]["train_segments"] == 40

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path) == 1
        assert "--seed" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path):
        assert run("synth", "--seed", 1, "--out-dir", tmp_path, "--bogus", 3) == 1

    def test_oversized_bank_is_exit_one_at_once(self, tmp_path, capsys):
        # 2**62 segments of float64 rows is past the int64 byte range.
        start = time.perf_counter()
        assert run("synth", "--seed", 0, "--out-dir", tmp_path,
                   "--train-segments", 2**62) == 1
        assert time.perf_counter() - start < 1.0
        assert f"{2**62} segments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("size", [10**12, 10**30])
    @pytest.mark.parametrize("option", ["--verbs", "--nouns"])
    def test_vocab_too_large_for_the_prototype_tables_is_exit_one(self, tmp_path, capsys,
                                                                   option, size):
        # 10**12 rows of 16 floats cannot be allocated; 10**30 is no array dimension
        assert run("synth", "--seed", 1, "--out-dir", tmp_path, "--train-segments", 5,
                   "--val-segments", 5, option, size) == 1
        vocab = f"{size}x20" if option == "--verbs" else f"10x{size}"
        err = capsys.readouterr().err
        assert f"vocab {vocab}, is too large to generate" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_mismatch_visible_in_stats(self, tmp_path, capsys):
        synth(tmp_path / "m", mismatch=1000)
        capsys.readouterr()
        assert run("stats", "--bank", tmp_path / "m/train.bank",
                   "--out-dir", tmp_path / "stats") == 0
        stats = json.loads(capsys.readouterr().out)
        assert 3e2 <= stats["amplitude_ratio"] <= 3e3
        assert (tmp_path / "stats/bank_stats.json").exists()
        assert (tmp_path / "stats/stats.manifest.json").exists()


class TestTrainEval:
    def test_round_trip(self, tmp_path, capsys):
        synth(tmp_path / "data", train=60, val=20)
        rc = run("train", "--bank", tmp_path / "data/train.bank",
                 "--val-bank", tmp_path / "data/val.bank",
                 "--target", "noun", "--fusion", "gfa-b",
                 "--lr", 0.5, "--epochs", 8, "--seed", 1,
                 "--out-dir", tmp_path / "run")
        assert rc == 0
        ckpt = load_checkpoint(tmp_path / "run/checkpoint.json")
        assert ckpt.target == "noun"
        history = json.loads((tmp_path / "run/history.json").read_text())
        assert len(history) == 8 and "val_top1" in history[0]

        rc = run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                 "--bank", tmp_path / "data/val.bank",
                 "--out-dir", tmp_path / "eval")
        assert rc == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert {"target", "segments", "top1", "top5"} <= set(report)
        table = load_score_table(tmp_path / "eval/scores.txt")
        assert table.space == "noun"
        assert len(table.segment_ids) == 20
        assert np.allclose(table.scores.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_val_bank_is_exit_one_before_any_write(self, tmp_path, capsys):
        synth(tmp_path / "data", train=20, val=5)
        empty = save_header_only_bank(tmp_path / "empty.bank", dim=16, verbs=10, nouns=20)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--val-bank", empty,
                   "--target", "noun", "--fusion", "clip-only", "--epochs", 1, "--seed", 0,
                   "--out-dir", tmp_path / "run") == 1
        assert "cannot validate on an empty bank" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_val_bank_with_another_vocab_is_exit_one_before_any_write(self, tmp_path, capsys):
        synth(tmp_path / "data", train=20, val=5, nouns=20)
        synth(tmp_path / "wide", train=5, val=30, nouns=40)
        assert load_feature_bank(tmp_path / "wide/val.bank").labels[:, 1].max() > 19
        capsys.readouterr()
        assert run("train", "--bank", tmp_path / "data/train.bank",
                   "--val-bank", tmp_path / "wide/val.bank", "--target", "noun",
                   "--fusion", "gfa-a", "--epochs", 1, "--seed", 0,
                   "--out-dir", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "bank noun vocab is 40, training bank expects 20" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run/checkpoint.json").exists()
        assert not (tmp_path / "run/history.json").exists()

    def test_scale_fault_is_found_before_any_bank_loads(self, tmp_path, capsys):
        assert run("train", "--bank", tmp_path / "missing.bank", "--target", "noun",
                   "--fusion", "clip-only", "--scale", "norm", "--seed", 1,
                   "--out-dir", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert "fusion kind 'clip-only' takes scale 'none', got 'norm'" in err
        assert "missing.bank" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_scale_on_clip_only_is_exit_one(self, tmp_path, capsys, command, scale):
        # checked before any bank loads: the bank path does not exist
        argv = {"train": ["train", "--bank", tmp_path / "missing.bank", "--target", "noun",
                          "--seed", 0],
                "gradcheck": ["gradcheck"]}[command]
        assert run(*argv, "--fusion", "clip-only", "--scale", scale, "--scale-divisor", 2,
                   "--out-dir", tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert f"fusion kind 'clip-only' takes scale 'none', got '{scale}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("fusion", ["concat", "gfa-b"])
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_scale_on_a_kind_that_reads_o_exits_zero(self, tmp_path, command, fusion, scale):
        argv = ["gradcheck"]
        if command == "train":
            synth(tmp_path / "data", train=8, val=4, dim_v=3, dim_o=3, verbs=2, nouns=3)
            argv = ["train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
                    "--epochs", 1, "--seed", 0]
        assert run(*argv, "--fusion", fusion, "--scale", scale, "--scale-divisor", 2,
                   "--out-dir", tmp_path / "run") == 0
        if command == "train":
            ckpt = load_checkpoint(tmp_path / "run/checkpoint.json")
            assert ckpt.model.scale.kind == scale

    def test_eval_deterministic(self, tmp_path):
        synth(tmp_path / "data", train=30, val=10)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "verb",
            "--fusion", "clip-only", "--epochs", 2, "--seed", 0,
            "--out-dir", tmp_path / "run")
        for d in ("e1", "e2"):
            assert run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                       "--bank", tmp_path / "data/val.bank",
                       "--out-dir", tmp_path / d) == 0
        assert (tmp_path / "e1/scores.txt").read_bytes() == \
            (tmp_path / "e2/scores.txt").read_bytes()
        assert (tmp_path / "e1/eval_report.json").read_bytes() == \
            (tmp_path / "e2/eval_report.json").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("name", ["eval_report.json", "scores.txt"],
                             ids=["JSON output", "zip output"])
    def test_a_fifo_at_an_output_is_exit_one_naming_it(self, tmp_path, name):
        # Opened, a FIFO with no reader would hold eval for good: a child
        # process runs it under a timeout.
        bank, ckpt = tiny_eval_inputs(tmp_path)
        out = tmp_path / "eval"
        out.mkdir()
        os.mkfifo(out / name)
        proc = _run_python("-m", "gatedfusion", "eval", "--checkpoint", str(ckpt),
                           "--bank", str(bank), "--out-dir", str(out))
        assert proc.returncode == 1
        assert proc.stderr == f"gatedfusion: error: {out / name}: not a regular file\n"
        assert stat.S_ISFIFO(os.stat(out / name).st_mode)

    def test_zero_lr_checkpoint_equals_init(self, tmp_path):
        synth(tmp_path / "data", train=30, val=10)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "gfa-a", "--scale", "norm", "--lr", 0, "--epochs", 3,
            "--seed", 4, "--out-dir", tmp_path / "run")
        ckpt = load_checkpoint(tmp_path / "run/checkpoint.json")
        bank = load_feature_bank(tmp_path / "data/train.bank")
        init = init_model("gfa-a", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                          scale=ScaleMode("norm"), rng=np.random.default_rng(4))
        for name, arr in param_groups(ckpt.model).items():
            assert np.array_equal(arr, param_groups(init)[name]), name

    def test_vocab_mismatch_rejected(self, tmp_path, capsys):
        synth(tmp_path / "data", train=30, val=10)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "clip-only", "--epochs", 1, "--seed", 0,
            "--out-dir", tmp_path / "run")
        synth(tmp_path / "other", nouns=7, train=10, val=5)
        rc = run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                 "--bank", tmp_path / "other/val.bank",
                 "--out-dir", tmp_path / "eval")
        assert rc == 1
        assert "vocab" in capsys.readouterr().err

    def test_dim_mismatch_rejected(self, tmp_path, capsys):
        synth(tmp_path / "data", train=20, val=5)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "clip-only", "--epochs", 1, "--seed", 0,
            "--out-dir", tmp_path / "run")
        synth(tmp_path / "wide", dim_v=9, train=10, val=5)
        rc = run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                 "--bank", tmp_path / "wide/val.bank",
                 "--out-dir", tmp_path / "eval")
        assert rc == 1
        assert "dims" in capsys.readouterr().err

    def test_estimate_divisor(self, tmp_path):
        # the estimate is stats' amplitude_ratio, given to train as --scale-divisor
        synth(tmp_path / "data", train=30, val=10, mismatch=100)
        bank = tmp_path / "data/train.bank"
        assert run("stats", "--bank", bank, "--out-dir", tmp_path / "stats") == 0
        ratio = json.loads((tmp_path / "stats/bank_stats.json").read_text())["amplitude_ratio"]
        rc = run("train", "--bank", bank, "--target", "noun", "--fusion", "gfa-a",
                 "--scale", "scalar", "--scale-divisor", repr(ratio),
                 "--epochs", 2, "--seed", 0, "--out-dir", tmp_path / "run")
        assert rc == 0
        ckpt = load_checkpoint(tmp_path / "run/checkpoint.json")
        V, O = bank_features(load_feature_bank(bank), AggregationConfig())
        mean_o, mean_v = (np.mean(np.sqrt(np.sum(X * X, axis=1))) for X in (O, V))
        assert ckpt.model.scale.s == pytest.approx(mean_o / mean_v, rel=1e-12)
        assert 30 <= ckpt.model.scale.s <= 300
        manifest = load_manifest(tmp_path / "run/train.manifest.json")
        assert manifest["config"]["scale_divisor"] == ckpt.model.scale.s

    def test_fully_fit_model_scores_perfectly_on_train_bank(self, tmp_path):
        # separable noise-free task: training accuracy reaches 1.0 and eval
        # on the training bank reports it
        synth(tmp_path / "data", train=96, val=10, noise=0, verbs=4, nouns=6)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "gfa-b", "--lr", 1.0, "--epochs", 50, "--batch-size", 16,
            "--seed", 1, "--out-dir", tmp_path / "run")
        assert run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                   "--bank", tmp_path / "data/train.bank",
                   "--out-dir", tmp_path / "eval") == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert report["top1"] == 1.0

    def test_history_files_show_stability_gap(self, tmp_path):
        # concat vs gfa-a(norm) on a mismatched bank: the first-epoch mean
        # gradient norms in the history files differ by orders of magnitude
        synth(tmp_path / "data", train=120, val=30, mismatch=1000,
              noise=0.35, jitter=1.5, noun_in_clip=1.0)
        for name, extra in (("concat", []), ("gfa-a", ["--scale", "norm"])):
            run("train", "--bank", tmp_path / "data/train.bank",
                "--target", "noun", "--fusion", name, *extra,
                "--lr", 0.1, "--epochs", 2, "--seed", 3,
                "--out-dir", tmp_path / f"run-{name}")
        h_concat = json.loads((tmp_path / "run-concat/history.json").read_text())
        h_gfa = json.loads((tmp_path / "run-gfa-a/history.json").read_text())
        assert h_concat[0]["mean_grad_norm"] >= 100 * h_gfa[0]["mean_grad_norm"]

    def test_checkpoint_without_head_weights_is_exit_one(self, tmp_path, capsys):
        synth(tmp_path / "data", train=20, val=5)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "gfa-b", "--epochs", 1, "--seed", 0,
            "--out-dir", tmp_path / "run")
        ckpt_path = tmp_path / "run/checkpoint.json"
        for group in ("head", "gfa"):
            obj = json.loads(ckpt_path.read_text())
            del obj[group]["W"]
            broken = tmp_path / f"no-{group}-W.json"
            broken.write_text(json.dumps(obj))
            rc = run("eval", "--checkpoint", broken, "--bank", tmp_path / "data/val.bank",
                     "--out-dir", tmp_path / "eval")
            assert rc == 1, group
            assert "missing checkpoint fields" in capsys.readouterr().err

    def _concat_checkpoint(self, tmp_path):
        synth(tmp_path / "data", train=20, val=5)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
                   "--fusion", "concat", "--epochs", 1, "--seed", 0,
                   "--out-dir", tmp_path / "run") == 0
        return json.loads((tmp_path / "run/checkpoint.json").read_text())

    def _eval(self, tmp_path, obj):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        return run("eval", "--checkpoint", broken, "--bank", tmp_path / "data/val.bank",
                   "--out-dir", tmp_path / "eval")

    def test_checkpoint_string_dim_is_exit_one(self, tmp_path, capsys):
        obj = self._concat_checkpoint(tmp_path)
        obj["dim_v"] = "16"
        assert self._eval(tmp_path, obj) == 1
        assert capsys.readouterr().err == (f"gatedfusion: error: {tmp_path / 'broken.json'}: "
                                           "dim_v must be an integer, got '16'\n")

    def test_checkpoint_nan_weight_is_exit_one(self, tmp_path, capsys):
        obj = self._concat_checkpoint(tmp_path)
        obj["head"]["W"]["data"][3] = float("nan")
        assert self._eval(tmp_path, obj) == 1
        assert "head.W has non-finite entries" in capsys.readouterr().err

    def test_checkpoint_non_numeric_weight_is_exit_one(self, tmp_path, capsys):
        obj = self._concat_checkpoint(tmp_path)
        obj["head"]["b"][0] = "x"
        assert self._eval(tmp_path, obj) == 1
        assert "weights must be arrays of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("epochs", "3"), ("batch_size", True), ("seed", -3),
        ("learning_rate", float("inf")), ("learning_rate", "0.1"), ("momentum", "0.5")])
    def test_checkpoint_train_config_of_wrong_kind_is_exit_one(self, tmp_path, capsys,
                                                               field, value):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        obj["train_config"][field] = value
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        err = capsys.readouterr().err
        assert f"{ckpt}: {field} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval", "stats"])
    @pytest.mark.parametrize("bad_id", ["x y", "", "a\ud800b"])  # the last one UTF-8 cannot encode
    def test_bank_id_a_score_table_cannot_hold_is_exit_one_at_load(
            self, tmp_path, capsys, bad_id, command):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        replace_zip_ids(bank, ["s0", bad_id, "s2"])
        argv = {"train": ["--target", "noun", "--fusion", "clip-only", "--epochs", 1, "--seed", 0],
                "eval": ["--checkpoint", ckpt], "stats": []}[command]
        out = tmp_path / "out"
        never = mock.Mock(side_effect=AssertionError("forward pass reached"))
        with mock.patch.object(cli, "forward_model", never), \
                mock.patch.object(training, "forward_model", never):
            assert run(command, "--bank", bank, *argv, "--out-dir", out) == 1
        err = capsys.readouterr().err
        # UTF-8 cannot encode a lone surrogate, so its bytes are not UTF-8.
        fault = ("not a readable bank zip: 'utf-8' codec can't decode" if bad_id == "a\ud800b"
                 else f"segment_id {bad_id!r} must be")
        assert f"{bank}: {fault}" in err and "Traceback" not in err
        assert not out.exists()  # no checkpoint, table or manifest

    def test_header_only_bank_gives_empty_table(self, tmp_path):
        synth(tmp_path / "data", train=20, val=5, nouns=3)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
                   "--fusion", "gfa-a", "--epochs", 1, "--seed", 0,
                   "--out-dir", tmp_path / "run") == 0
        bank = save_header_only_bank(tmp_path / "empty.bank", dim=16)
        assert run("eval", "--checkpoint", tmp_path / "run/checkpoint.json", "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 0
        assert load_score_table(tmp_path / "eval/scores.txt").scores.shape == (0, 3)
        # no top-k over zero segments, as for an unlabelled bank
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert report == {"target": "noun", "segments": 0}

    def test_eval_without_labels_omits_metrics(self, tmp_path):
        synth(tmp_path / "data", train=20, val=5)
        run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
            "--fusion", "clip-only", "--epochs", 1, "--seed", 0,
            "--out-dir", tmp_path / "run")
        bank = load_feature_bank(tmp_path / "data/val.bank")
        labels = bank.labels.copy()
        labels[:, 1] = -1
        bank = dataclasses.replace(bank, labels=labels)
        from gatedfusion.bank import save_feature_bank
        save_feature_bank(bank, tmp_path / "data/unlabeled.bank")
        assert run("eval", "--checkpoint", tmp_path / "run/checkpoint.json",
                   "--bank", tmp_path / "data/unlabeled.bank",
                   "--out-dir", tmp_path / "eval") == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert "top1" not in report and report["segments"] == 5


class TestActions:
    def test_repeated_segment_id_is_exit_one(self, tmp_path, capsys):
        # each table repeats its first id as its second
        paths = tiny_action_inputs(tmp_path)
        for name in ("verb", "noun"):
            damage_zip(paths[name], "repeated-id")
        assert run_actions(paths, tmp_path / "act") == 1
        err = capsys.readouterr().err
        assert err == f"gatedfusion: error: {paths['verb']}: duplicate segment_id 's0'\n"
        assert not (tmp_path / "act").exists()

    def test_report_keys_follow_the_topk_set(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "_TOPK", (1, 3))
        bank, ckpt = tiny_eval_inputs(tmp_path)
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert set(report) == {"target", "segments", "top1", "top3"}
        (tmp_path / "inputs").mkdir()
        assert run_actions(tiny_action_inputs(tmp_path / "inputs"), tmp_path / "act") == 0
        report = json.loads((tmp_path / "act/action_report.json").read_text())
        assert set(report) == {"action", "verb", "noun"}
        for section in (*report["action"].values(), report["verb"], report["noun"]):
            assert set(section) == {"top1", "top3"}

    def _prepare(self, tmp_path, **synth_flags):
        synth(tmp_path / "data", train=80, val=30, **synth_flags)
        for target, fusion in (("verb", "clip-only"), ("noun", "gfa-b")):
            assert run("train", "--bank", tmp_path / "data/train.bank",
                       "--val-bank", tmp_path / "data/val.bank",
                       "--target", target, "--fusion", fusion,
                       "--lr", 0.5, "--epochs", 10, "--seed", 2,
                       "--out-dir", tmp_path / f"run-{target}") == 0
            assert run("eval", "--checkpoint", tmp_path / f"run-{target}/checkpoint.json",
                       "--bank", tmp_path / "data/val.bank",
                       "--out-dir", tmp_path / f"eval-{target}") == 0

    def test_full_pipeline_with_computed_prior(self, tmp_path, capsys):
        self._prepare(tmp_path)
        rc = run("actions", "--verb-table", tmp_path / "eval-verb/scores.txt",
                 "--noun-table", tmp_path / "eval-noun/scores.txt",
                 "--bank", tmp_path / "data/val.bank",
                 "--train-bank", tmp_path / "data/train.bank",
                 "--out-dir", tmp_path / "act")
        assert rc == 0
        report = json.loads((tmp_path / "act/action_report.json").read_text())
        assert set(report) == {"action", "verb", "noun"}
        counted = scoring.compute_prior(load_feature_bank(tmp_path / "data/train.bank"))
        assert load_prior(tmp_path / "act/prior.npz", 10, 20).mu.tobytes() == \
            counted.mu.tobytes()
        table = load_score_table(tmp_path / "act/action_scores.npz")
        assert table.space == "action"
        outputs = load_manifest(tmp_path / "act/actions.manifest.json")["outputs"]
        assert outputs["action_scores"] == str(tmp_path / "act/action_scores.npz")

    def test_a_counted_and_a_loaded_prior_write_the_same_files(self, tmp_path):
        # A prior is its mu alone: --prior on the prior.npz that --train-bank
        # saved writes that run's report and action table byte for byte.
        self._prepare(tmp_path)
        tables = ["--verb-table", tmp_path / "eval-verb/scores.txt",
                  "--noun-table", tmp_path / "eval-noun/scores.txt",
                  "--bank", tmp_path / "data/val.bank"]
        assert run("actions", *tables, "--train-bank", tmp_path / "data/train.bank",
                   "--out-dir", tmp_path / "counted") == 0
        assert run("actions", *tables, "--prior", tmp_path / "counted/prior.npz",
                   "--out-dir", tmp_path / "loaded") == 0
        for name in ("action_report.json", "action_scores.npz"):
            assert (tmp_path / "loaded" / name).read_bytes() == \
                (tmp_path / "counted" / name).read_bytes()

    def test_all_ones_prior_coincides_with_plain(self, tmp_path):
        # an all-ones prior writes the plain-product table
        self._prepare(tmp_path)
        bank = load_feature_bank(tmp_path / "data/val.bank")
        ones = tmp_path / "ones.npz"
        save_prior(ActionPrior(np.ones((bank.verb_vocab_size, bank.noun_vocab_size))), ones)
        rc = run("actions", "--verb-table", tmp_path / "eval-verb/scores.txt",
                 "--noun-table", tmp_path / "eval-noun/scores.txt",
                 "--bank", tmp_path / "data/val.bank", "--prior", ones,
                 "--out-dir", tmp_path / "act")
        assert rc == 0
        report = json.loads((tmp_path / "act/action_report.json").read_text())
        assert report["action"]["reweighted"] == report["action"]["plain"]
        pv, pn = (load_score_table(tmp_path / f"eval-{t}/scores.txt").scores
                  for t in ("verb", "noun"))
        # 10 x 20 pairs: each row keeps its best 100 plain products, in index order
        _, actions, scores = dense_action_oracle(
            pv, pn, scoring.ActionPrior(np.ones((10, 20))), bank.labels)
        table = load_score_table(tmp_path / "act/action_scores.npz")
        assert np.array_equal(table.actions, actions)
        plain = (pv[:, :, None] * pn[:, None, :]).reshape(len(pv), -1)
        assert table.scores.tobytes() == scores.tobytes() == \
            np.take_along_axis(plain, actions, 1).tobytes()

    @pytest.mark.parametrize("name", ["verb", "noun"])
    def test_a_negative_score_is_exit_one_naming_the_table(self, tmp_path, capsys, name):
        # actions takes scores >= 0, as softmax probabilities are
        paths = tiny_action_inputs(tmp_path)
        t = load_score_table(paths[name])
        scores = t.scores.copy()
        scores[2, 1] = -0.25
        save_score_table(dataclasses.replace(t, scores=scores), paths[name])
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == (
            f"gatedfusion: error: {paths[name]}: segment 's2' has a negative score; actions "
            f"takes scores >= 0\n")
        assert not list((tmp_path / "act").glob("*"))

    def test_zero_scores_of_either_sign_are_accepted(self, tmp_path):
        # softmax underflows to exactly 0, and -0.0 is not below 0
        paths = tiny_action_inputs(tmp_path)
        for name, column in (("verb", 1), ("noun", 0)):
            t = load_score_table(paths[name])
            scores = t.scores.copy()
            scores[:2, column] = [0.0, -0.0]
            save_score_table(dataclasses.replace(t, scores=scores), paths[name])
        assert run_actions(paths, tmp_path / "act") == 0
        table = load_score_table(tmp_path / "act/action_scores.npz")
        assert table.actions.tolist() == [list(range(6))] * 4

    def test_the_instability_experiments_zero_heavy_tables(self, tmp_path):
        # Criterion 4's banks: the softmax of an unscaled concat head
        # underflows to exactly 0 in most entries, so ranks tie at 0, the
        # plain ranks fall back to dense blocks and rows are filled with
        # zero-score pairs.  The report and table equal the dense blocks'.
        synth(tmp_path / "mm", seed=42, train=500, val=200, mismatch=1000, jitter=1.5,
              noun_in_clip=1.0, noise=0.35)
        bank = tmp_path / "mm/val.bank"
        for target in ("noun", "verb"):
            assert run("train", "--bank", tmp_path / "mm/train.bank", "--target", target,
                       "--fusion", "concat", "--lr", 0.1, "--epochs", 80, "--seed", 7,
                       "--out-dir", tmp_path / f"run-{target}") == 0
            assert run("eval", "--checkpoint", tmp_path / f"run-{target}/checkpoint.json",
                       "--bank", bank, "--out-dir", tmp_path / f"eval-{target}") == 0
        pv, pn = (load_score_table(tmp_path / f"eval-{t}/scores.txt").scores
                  for t in ("verb", "noun"))
        assert (pv == 0).mean() > 0.5 and (pn == 0).mean() > 0.5
        with mock.patch.object(scoring, "label_ranks", wraps=scoring.label_ranks) as ranks:
            assert run("actions", "--verb-table", tmp_path / "eval-verb/scores.txt",
                       "--noun-table", tmp_path / "eval-noun/scores.txt", "--bank", bank,
                       "--train-bank", tmp_path / "mm/train.bank",
                       "--out-dir", tmp_path / "act") == 0
        assert ranks.call_count > 2  # the verb and noun reports, and the dense fallback
        labels = load_feature_bank(bank).labels
        prior = load_prior(tmp_path / "act/prior.npz", 10, 20)
        action, actions, scores = dense_action_oracle(pv, pn, prior, labels)
        report = json.loads((tmp_path / "act/action_report.json").read_text())
        assert report["action"] == action
        assert report["verb"] == scoring.topk_report(pv, labels[:, 0])
        assert report["noun"] == scoring.topk_report(pn, labels[:, 1])
        table = load_score_table(tmp_path / "act/action_scores.npz")
        assert np.array_equal(table.actions, actions)
        assert table.scores.tobytes() == scores.tobytes()

    def test_requires_a_prior_source(self, tmp_path, capsys):
        self._prepare(tmp_path)
        rc = run("actions", "--verb-table", tmp_path / "eval-verb/scores.txt",
                 "--noun-table", tmp_path / "eval-noun/scores.txt",
                 "--bank", tmp_path / "data/val.bank",
                 "--out-dir", tmp_path / "act")
        assert rc == 1
        assert "--prior" in capsys.readouterr().err

    def test_more_than_one_prior_source_is_exit_one(self, tmp_path, capsys):
        paths = tiny_action_inputs(tmp_path)
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], "--train-bank", paths["bank"], "--prior", "p.txt",
                   "--out-dir", tmp_path / "act") == 1
        assert "need exactly one of --prior or --train-bank, got --prior, --train-bank" \
            in capsys.readouterr().err
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("source,key", [("--prior", "prior"), ("--train-bank", "bank")])
    def test_manifest_inputs_name_the_prior_read(self, tmp_path, source, key):
        paths = tiny_action_inputs(tmp_path)
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], source, paths[key],
                   "--out-dir", tmp_path / "act") == 0
        inputs = load_manifest(tmp_path / "act/actions.manifest.json")["inputs"]
        assert inputs == {"verb_table": str(paths["verb"]), "noun_table": str(paths["noun"]),
                          "bank": str(paths["bank"]),
                          source[2:].replace("-", "_"): str(paths[key])}

    @pytest.mark.parametrize("spelling", ["same string", "other spelling"])
    def test_train_bank_that_is_the_bank_is_read_once(self, tmp_path, monkeypatch, spelling):
        from gatedfusion import cli
        (tmp_path / "d").mkdir()
        paths = tiny_action_inputs(tmp_path / "d")
        copy = tmp_path / "copy.bank"
        copy.write_bytes(paths["bank"].read_bytes())
        train_bank = (paths["bank"] if spelling == "same string"
                      else tmp_path / "d" / ".." / "d" / "test.bank")

        def actions(train_bank, out_dir):
            return run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                       "--bank", paths["bank"], "--train-bank", train_bank, "--out-dir", out_dir)

        assert actions(copy, tmp_path / "ref") == 0
        reads = []
        real_load = cli.load_feature_bank
        monkeypatch.setattr(cli, "load_feature_bank",
                            lambda path: reads.append(path) or real_load(path))
        assert actions(train_bank, tmp_path / "act") == 0
        assert reads == [str(paths["bank"])]
        for name in ("prior.npz", "action_scores.npz", "action_report.json"):
            assert (tmp_path / "act" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name
        inputs = load_manifest(tmp_path / "act/actions.manifest.json")["inputs"]
        assert inputs["train_bank"] == str(train_bank)

    def test_sparse_prior_reweighting_lifts_top1(self, tmp_path):
        # confusion mass sits on pairs absent from training, so the prior
        # zeroes the confusions and the re-weighted column wins
        import numpy as np
        from gatedfusion.bank import FeatureBank, SegmentRecord, save_feature_bank
        from gatedfusion.scoring import ScoreTable, save_score_table

        def bank_of(pairs, prefix):
            recs = [SegmentRecord(segment_id=f"{prefix}{i}", clip_feature=np.zeros(2),
                                  clip_center_frame=0, detections=[],
                                  verb_label=v, noun_label=n)
                    for i, (v, n) in enumerate(pairs)]
            return FeatureBank.from_records(recs, dim_v=2, dim_o=2,
                                            verb_vocab_size=2, noun_vocab_size=3)

        save_feature_bank(bank_of([(0, 0), (1, 1)], "t"), tmp_path / "train.bank")
        test_bank = bank_of([(0, 0), (1, 1)], "s")
        save_feature_bank(test_bank, tmp_path / "test.bank")
        ids = ["s0", "s1"]
        vt = ScoreTable(segment_ids=ids, space="verb",
                        scores=np.array([[0.9, 0.1], [0.1, 0.9]]))
        nt = ScoreTable(segment_ids=ids, space="noun",
                        scores=np.array([[0.4, 0.1, 0.5], [0.1, 0.4, 0.5]]))
        save_score_table(vt, tmp_path / "verb.txt")
        save_score_table(nt, tmp_path / "noun.txt")
        assert run("actions", "--verb-table", tmp_path / "verb.txt",
                   "--noun-table", tmp_path / "noun.txt",
                   "--bank", tmp_path / "test.bank",
                   "--train-bank", tmp_path / "train.bank",
                   "--out-dir", tmp_path / "act") == 0
        report = json.loads((tmp_path / "act/action_report.json").read_text())
        assert report["action"]["reweighted"]["top1"] > report["action"]["plain"]["top1"]

    def test_misaligned_tables_rejected(self, tmp_path, capsys):
        self._prepare(tmp_path)
        # verb table evaluated on the train bank: different segment ids
        assert run("eval", "--checkpoint", tmp_path / "run-verb/checkpoint.json",
                   "--bank", tmp_path / "data/train.bank",
                   "--out-dir", tmp_path / "eval-verb-train") == 0
        rc = run("actions", "--verb-table", tmp_path / "eval-verb-train/scores.txt",
                 "--noun-table", tmp_path / "eval-noun/scores.txt",
                 "--bank", tmp_path / "data/val.bank",
                 "--train-bank", tmp_path / "data/train.bank", "--out-dir", tmp_path / "act")
        assert rc == 1
        assert "misaligned" in capsys.readouterr().err

    def test_misaligned_tables_write_no_prior(self, tmp_path, capsys):
        # the tables are checked against each other before prior.npz is written
        paths = tiny_action_inputs(tmp_path)
        save_score_table(ScoreTable(segment_ids=["s1", "s0", "s2", "s3"], space="noun",
                                    scores=np.full((4, 3), 1 / 3)), paths["noun"])
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], "--train-bank", paths["bank"],
                   "--out-dir", tmp_path / "act") == 1
        assert "misaligned" in capsys.readouterr().err
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("train_nouns,rows,nouns,message", [
        (4, 4, 3, "tables are 2x3 classes but prior is 2x4"),
        (4, 4, 4, "bank vocab 2x3 does not match prior 2x4"),
        (3, 3, 3, "verb/noun tables have 4 vs 3 segments"),
    ], ids=["train bank of 4 nouns", "tables and train bank of 4 nouns", "noun table of 3 ids"])
    def test_inputs_that_do_not_fit_are_exit_one_with_no_out_dir(
            self, tmp_path, capsys, train_nouns, rows, nouns, message):
        paths = tiny_action_inputs(tmp_path)
        train_bank = tmp_path / "train.bank"
        save_feature_bank(FeatureBank.from_records(
            [SegmentRecord("t0", np.zeros(2), 0, [], 1, 2)], dim_v=2, dim_o=2,
            verb_vocab_size=2, noun_vocab_size=train_nouns), train_bank)
        save_score_table(ScoreTable(segment_ids=["s0", "s1", "s2", "s3"][:rows], space="noun",
                                    scores=np.full((rows, nouns), 1 / nouns)), paths["noun"])
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], "--train-bank", train_bank,
                   "--out-dir", tmp_path / "act") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {message}\n"
        assert not (tmp_path / "act").exists()

    @pytest.mark.parametrize("text", [
        '{"space":"verb","classes":2}\ns0 0.9 0.1\ns1 0.2 0.8\ns2 0.4 0.6\ns3 0.5 0.5\n',
        '{"space":"action","classes":4,"verb_classes":2,"noun_classes":2}\n', ""],
        ids=["text verb table", "text action table", "empty"])
    def test_a_table_that_is_not_a_zip_is_exit_one_naming_it(self, tmp_path, capsys, text):
        # the text tables of earlier builds: a verb table and an action table's header
        paths = tiny_action_inputs(tmp_path)
        paths["verb"].write_text(text)
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == (f"gatedfusion: error: {paths['verb']}: not a score "
                                           f"table zip\n")
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("in_verb_slot,in_noun_slot", [("noun", "verb"), ("verb", "verb")],
                             ids=["swapped", "verb-as-noun"])
    def test_a_table_of_the_other_space_is_exit_one_naming_it(self, tmp_path, capsys,
                                                               in_verb_slot, in_noun_slot):
        # Each slot gets its own zip, so the message names the one that is wrong.
        paths = tiny_action_inputs(tmp_path)
        slots = {"verb": in_verb_slot, "noun": in_noun_slot}
        zips = {slot: tmp_path / f"{slot}-slot.zip" for slot in slots}
        for slot, space in slots.items():
            save_score_table(load_score_table(paths[space]), zips[slot])
        wrong = "verb" if in_verb_slot != "verb" else "noun"
        assert run("actions", "--verb-table", zips["verb"], "--noun-table", zips["noun"],
                   "--bank", paths["bank"], "--prior", paths["prior"],
                   "--out-dir", tmp_path / "act") == 1
        assert capsys.readouterr().err == (f"gatedfusion: error: {zips[wrong]}: space is "
                                           f"{slots[wrong]!r}, expected {wrong!r}\n")
        assert not list((tmp_path / "act").glob("*"))

    def test_a_bank_zip_as_the_verb_table_is_exit_one_naming_it(self, tmp_path, capsys):
        paths = tiny_action_inputs(tmp_path)
        assert run("actions", "--verb-table", paths["bank"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], "--prior", paths["prior"],
                   "--out-dir", tmp_path / "act") == 1
        assert capsys.readouterr().err.startswith(
            f"gatedfusion: error: {paths['bank']}: score table members are ['header.npy', "
            f"'clip.npy', ")
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("header,classes,message", [
        ([-1, -1], 2, "action table: verb_classes must be >= 1, got -1"),
        ([-2, 3], 3, "action table: verb_classes must be >= 1, got -2"),
        ([3, -1], 2, "verb table: header says 3 classes but scores shaped (4, 2)"),
        ([0, 3], 3, "action table: verb_classes must be >= 1, got 0"),
    ], ids=["no space", "negative count", "width mismatch", "zero count"])
    def test_a_zip_header_of_no_space_is_exit_one_naming_it(self, tmp_path, capsys, header,
                                                            classes, message):
        paths = tiny_action_inputs(tmp_path)
        path = paths["verb"]
        path.write_bytes(reference_zip({
            "header": np.array(header, dtype=np.int64), "scores": np.full((4, classes), 0.5),
            "ids": np.frombuffer(b"s0\ns1\ns2\ns3\n", dtype=np.uint8)}))
        with pytest.raises(ValidationError) as exc:
            load_score_table(path)
        assert str(exc.value) == f"{path}: {message}"
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {path}: {message}\n"
        assert not list((tmp_path / "act").glob("*"))

    def test_vocab_too_large_for_a_dense_prior_is_exit_one(self, tmp_path, capsys):
        # 10**9 verbs and nouns: 8 EB of dense prior, which numpy refuses
        # without touching memory
        paths = tiny_action_inputs(tmp_path)
        bank = dataclasses.replace(load_feature_bank(paths["bank"]), verb_vocab_size=10**9,
                                   noun_vocab_size=10**9)
        save_feature_bank(bank, paths["bank"])
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], "--train-bank", paths["bank"],
                   "--out-dir", tmp_path / "act") == 1
        err = capsys.readouterr().err
        assert "vocab 1000000000x1000000000 is too large for a dense prior" in err
        assert "Traceback" not in err
        assert not (tmp_path / "act/action_scores.npz").exists()

    @pytest.mark.parametrize("verbs,nouns", [(2, 4), (3, 3), (10**9, 10**9)])
    def test_a_prior_of_another_vocab_is_exit_one_naming_it(self, tmp_path, capsys, verbs,
                                                           nouns):
        # The bank's vocab is what the prior must match; a bank of 10**9
        # verbs and nouns allocates no dense prior to find that out.
        paths = tiny_action_inputs(tmp_path)
        bank = dataclasses.replace(load_feature_bank(paths["bank"]), verb_vocab_size=verbs,
                                   noun_vocab_size=nouns)
        save_feature_bank(bank, paths["bank"])
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == (
            f"gatedfusion: error: {paths['prior']}: prior header [2, 3] with mu shaped (2, 3) is "
            f"not vocab {verbs}x{nouns}\n")
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("text", ["0 0 0.5\n1 1 0.25\n1 2 0.25\n", ""],
                             ids=["text prior", "empty"])
    def test_an_earlier_builds_text_prior_is_exit_one_naming_it(self, tmp_path, capsys, text):
        # Text priors are refused, not converted.
        paths = tiny_action_inputs(tmp_path)
        paths["prior"] = tmp_path / "prior.txt"
        paths["prior"].write_text(text, encoding="utf-8")
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {paths['prior']}: not a prior zip\n"
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("other,members", [("bank", "'clip.npy', "),
                                               ("verb", "'scores.npy', ")],
                             ids=["bank", "verb table"])
    def test_a_bank_or_table_zip_as_the_prior_is_exit_one_naming_it(self, tmp_path, capsys,
                                                                    other, members):
        paths = tiny_action_inputs(tmp_path)
        paths["prior"] = paths[other]
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err.startswith(
            f"gatedfusion: error: {paths[other]}: prior members are ['header.npy', {members}")
        assert not list((tmp_path / "act").glob("*"))


class TestFuzzedActionInputs:
    """A prior zip with cut or flipped bytes loads whole or ends in exit 1
    naming it, and a damaged verb or noun table or prior zip in exit 1
    naming it."""

    @settings(max_examples=200, deadline=None)
    @given(cut=st.none() | st.integers(0, 1000),
           flips=st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 255)), max_size=3))
    def test_prior_bytes_load_whole_or_exit_one_naming_it(self, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            paths = tiny_action_inputs(Path(tmp))
            expected = load_prior(paths["prior"], 2, 3).mu
            data = bytearray(paths["prior"].read_bytes())
            for pos, mask in flips:
                data[pos % len(data)] ^= mask
            paths["prior"].write_bytes(bytes(data[:cut]))
            try:
                loaded = load_prior(paths["prior"], 2, 3)
            except ValidationError as exc:
                assert str(exc).startswith(f"{paths['prior']}: ")
                assert run_actions(paths, Path(tmp) / "act") == 1
                assert not list((Path(tmp) / "act").glob("*"))
            else:
                assert loaded.mu.tobytes() == expected.tobytes()
                assert run_actions(paths, Path(tmp) / "act") == 0

    @pytest.mark.parametrize("kind", ZIP_DAMAGE)
    def test_damaged_prior_is_exit_one_naming_it(self, tmp_path, capsys, kind):
        paths = tiny_action_inputs(tmp_path)
        damage_zip(paths["prior"], kind)
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err.startswith(f"gatedfusion: error: {paths['prior']}: ")
        assert not list((tmp_path / "act").glob("*"))

    @pytest.mark.parametrize("kind", ZIP_DAMAGE)
    @pytest.mark.parametrize("target", ["verb", "noun"])
    def test_damaged_table_is_exit_one_naming_it(self, tmp_path, capsys, target, kind):
        paths = tiny_action_inputs(tmp_path)
        damage_zip(paths[target], kind)
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err.startswith(f"gatedfusion: error: {paths[target]}: ")
        assert not list((tmp_path / "act").glob("*"))

    def test_uncorrupted_inputs_pass(self, tmp_path):
        assert run_actions(tiny_action_inputs(tmp_path), tmp_path / "act") == 0


class TestOneNpyLayout:
    """A zip input is read only as the codec writes each member: npy 1.0 of
    a C-ordered array.  A member that ``np.load`` reads as the same array,
    but Fortran-ordered or under an npy 2.0 header, is a ValidationError
    naming the file and the member, and ``actions`` on it exits 1."""

    @pytest.mark.parametrize("kind", ["fortran", "npy-2.0"])
    @pytest.mark.parametrize("target,member,load", [
        ("bank", "bank member clip.npy", load_feature_bank),
        ("noun", "score table member scores.npy", load_score_table),
        ("prior", "prior member mu.npy", lambda path: load_prior(path, 2, 3)),
    ], ids=["bank", "noun", "prior"])
    def test_a_member_in_another_npy_layout_is_refused_naming_it(self, tmp_path, capsys, kind,
                                                                 target, member, load):
        paths = tiny_action_inputs(tmp_path)
        path, block = paths[target], member.removesuffix(".npy").rsplit(" ", 1)[1]
        with np.load(path, allow_pickle=False) as npz:
            array = npz[block]
        damage_zip(path, kind)
        with np.load(path, allow_pickle=False) as npz:
            assert np.array_equal(npz[block], array)
        fault = {"fortran": "is not in C order", "npy-2.0": "is not an npy 1.0 array"}[kind]
        with pytest.raises(ValidationError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {member} {fault}"
        assert run_actions(paths, tmp_path / "act") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {path}: {member} {fault}\n"
        assert not (tmp_path / "act").exists()


def tiny_eval_inputs(root):
    """A labeled 3-record bank with detections and a matching gfa-a noun
    checkpoint: the inputs of one ``eval`` run."""
    rng = np.random.default_rng(0)
    records = [SegmentRecord(segment_id=f"s{i}", clip_feature=rng.normal(size=2),
                             clip_center_frame=10 * i,
                             detections=[Detection(10 * i + j - 1, float(rng.uniform()),
                                                   rng.normal(size=2)) for j in range(i + 1)],
                             verb_label=i % 2, noun_label=i)
               for i in range(3)]
    bank, ckpt = root / "test.bank", root / "checkpoint.json"
    save_feature_bank(FeatureBank.from_records(records, dim_v=2, dim_o=2, verb_vocab_size=2,
                                               noun_vocab_size=3), bank)
    model = init_model("gfa-a", 2, 2, 3, scale=ScaleMode(kind="norm"),
                       rng=np.random.default_rng(1))
    save_checkpoint(Checkpoint(model=model, target="noun", dim_v=2, dim_o=2, classes=3,
                               aggregation=AggregationConfig(), train_config=TrainConfig()),
                    ckpt)
    return bank, ckpt


class TestFuzzedBanks:
    """A zip bank with cut or flipped bytes loads whole or ends in exit 1
    naming it, and a damaged zip in exit 1 naming it."""

    @staticmethod
    def _run_both(root, bank, ckpt):
        return (run("stats", "--bank", bank, "--out-dir", root / "stats"),
                run("eval", "--checkpoint", ckpt, "--bank", bank, "--out-dir", root / "eval"))

    @classmethod
    def _both_fail_naming(cls, root, bank, ckpt) -> bool:
        """``stats`` and ``eval`` both exit 1 with an error that names ``bank``."""
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rcs = cls._run_both(root, bank, ckpt)
        lines = err.getvalue().splitlines()
        return rcs == (1, 1) and len(lines) == 2 and all(
            line.startswith(f"gatedfusion: error: {bank}: ") for line in lines)

    def test_uncorrupted_inputs_pass(self, tmp_path):
        assert self._run_both(tmp_path, *tiny_eval_inputs(tmp_path)) == (0, 0)

    @pytest.mark.parametrize("kind", ZIP_DAMAGE)
    def test_damaged_zip_is_exit_one_naming_it(self, tmp_path, kind):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        damage_zip(bank, kind)
        assert self._both_fail_naming(tmp_path, bank, ckpt)

    def test_old_sidecar_as_the_bank_is_exit_one_naming_it(self, tmp_path):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        sidecar = Path(f"{bank}.npz")
        write_old_sidecar(load_feature_bank(bank), sidecar)
        assert self._both_fail_naming(tmp_path, sidecar, ckpt)

    @settings(max_examples=100, deadline=None)
    @given(cut=st.none() | st.integers(0, 10**4),
           flips=st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 255)), max_size=3))
    @example(cut=None, flips=[(2594, 1)])  # the central directory's offset: a bare OSError
    def test_zip_bytes_load_whole_or_exit_one_naming_the_bank(self, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bank, ckpt = tiny_eval_inputs(root)
            expected = load_feature_bank(bank)
            data = bytearray(bank.read_bytes())
            for pos, mask in flips:
                data[pos % len(data)] ^= mask
            bank.write_bytes(bytes(data[:cut]))
            try:
                loaded = load_feature_bank(bank)
            except ValidationError:
                assert self._both_fail_naming(root, bank, ckpt)
            else:
                assert banks_equal(loaded, expected)
                assert self._run_both(root, bank, ckpt) == (0, 0)

    @pytest.mark.parametrize("text", [OLD_JSON_LINES_BANK, OLD_JSON_LINES_BANK + b"\xff\n"],
                             ids=["json lines", "not utf-8"])
    def test_a_bank_that_is_no_zip_is_exit_one_naming_it(self, tmp_path, text):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        bank.write_bytes(text)
        assert self._both_fail_naming(tmp_path, bank, ckpt)


_DELETE = object()
_CHECKPOINT_JUNK = [_DELETE, None, True, -1, 0, 1, 2, 3, 1.5, 10**30, -10**30, 2**63, 10**400,
                    float("nan"), float("inf"), -float("inf"), 1e300, "a", "3", "a", "b",
                    "gfa-a", "noun", "norm", "bogus", [], {}, [1.0], [[1.0, 2.0]],
                    {"rows": 10**9, "cols": 10**9, "data": [1.0]}]


def _key_paths(node, prefix=()):
    """The path of every object key and list entry under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths += [prefix + (key,), *_key_paths(child, prefix + (key,))]
    return paths


def _edit_path(obj, path, value):
    """Set (_DELETE: delete) the entry at ``path`` to a copy of ``value``; a
    path that earlier edits removed or retyped is left alone."""
    try:
        for key in path[:-1]:
            obj = obj[key]
        if value is _DELETE:
            del obj[path[-1]]
        else:
            obj[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


# The bytes an earlier build wrote for a gfa-a model with norm scaling that
# fits ``tiny_eval_inputs``'s bank, as ``json.dumps(V1_CHECKPOINT, indent=1)``.
V1_CHECKPOINT = {
    "format": "gatedfusion-checkpoint-v1", "fusion_kind": "gfa-a", "target": "noun",
    "dim_v": 2, "dim_o": 2, "classes": 3, "aggregation": {"k": 10, "window": 5},
    "train_config": {"learning_rate": 0.01, "momentum": 0.9, "epochs": 100, "batch_size": 32,
                     "seed": 0},
    "head": {"W": {"rows": 3, "cols": 4,
                   "data": [1.0, -1.0, 0.5, 0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 0.0, 1.0, 0.5]},
             "b": [0.0, 0.25, -0.25]},
    "gfa": {"variant": "a", "scale": {"kind": "norm", "s": 1.0, "epsilon": 1e-08},
            "W": {"rows": 4, "cols": 4,
                  "data": [0.5, -0.25, 0.0, 1.0, 0.0, 0.5, -1.0, 0.25, 1.0, 0.0, 0.5, -0.5,
                           -0.25, 1.0, 0.0, 0.5]},
            "b": [0.0, 0.5, -0.5, 0.0]},
}


class TestFuzzedCheckpoints:
    """Checkpoints with retyped, deleted, non-finite and oversized fields:
    every ``eval`` run must end in exit 0 or 1."""

    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_CHECKPOINT_JUNK)),
                          min_size=1, max_size=3))
    def test_eval_exits_zero_or_one(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            bank, ckpt = tiny_eval_inputs(root)
            obj = json.loads(ckpt.read_text())
            paths = _key_paths(obj)
            for index, value in edits:
                _edit_path(obj, paths[index % len(paths)], value)
            ckpt.write_text(json.dumps(obj))
            rc = run("eval", "--checkpoint", ckpt, "--bank", bank, "--out-dir", root / "eval")
        assert rc in (0, 1)

    @pytest.mark.parametrize("path", [("head", "b", 0), ("gfa", "W", "data", 0), ("scale", "s")])
    def test_integer_past_float_range_is_exit_one(self, tmp_path, path):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        _edit_path(obj, path, 10**400)
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1

    @pytest.mark.parametrize("path,value,message", [
        (("head", "W", "data", 0), "0.5",
         "checkpoint weights must be arrays of numbers: head.W data"),
        (("head", "W", "data", 0), True,
         "checkpoint weights must be arrays of numbers: head.W data"),
        (("head", "b"), ["1", True, 2], "checkpoint weights must be arrays of numbers: head.b"),
        (("gfa", "b", 0), None, "checkpoint weights must be arrays of numbers: gfa.b"),
        (("head", "W", "rows"), "3", "checkpoint: head.W rows and cols must be integers >= 0"),
        (("gfa", "W", "rows"), 4.0, "checkpoint: gfa.W rows and cols must be integers >= 0"),
        (("head", "W", "cols"), -4, "checkpoint: head.W rows and cols must be integers >= 0"),
    ], ids=["string-weight", "bool-weight", "mixed-b", "null-weight", "string-rows",
            "float-rows", "negative-cols"])
    def test_weights_and_dims_must_be_json_numbers(self, tmp_path, capsys, path, value,
                                                   message):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        _edit_path(obj, path, value)
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {ckpt}: {message}\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(target="action"),
        lambda obj: obj.update(target="bogus"),
        lambda obj: obj.update(target=3),
        lambda obj: obj.update(fusion_kind="bogus"),
        lambda obj: obj.update(gfa=None),
        lambda obj: obj.update(fusion_kind="clip-only"),  # keeps its gfa block
        lambda obj: obj["gfa"].update(variant="b"),
        lambda obj: obj["gfa"].pop("variant"),
        lambda obj: obj["head"]["b"].append(0.0),
        lambda obj: obj["gfa"]["b"].pop(),
    ], ids=["target-action", "target-bogus", "target-3", "fusion-bogus", "gfa-a-without-gfa",
            "clip-only-with-gfa", "variant-b-in-gfa-a", "variant-missing", "head-b-length",
            "gfa-b-length"])
    def test_tampered_checkpoint_error_names_the_file(self, tmp_path, capsys, edit):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        edit(obj)
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err.startswith(f"gatedfusion: error: {ckpt}: ")
        assert not (tmp_path / "eval/scores.txt").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda obj: obj["head"]["b"].append(0.0), "head: W has 3 rows but b has dim 4"),
        (lambda obj: obj["gfa"]["b"].pop(), "gfa: W has 4 rows but b has dim 3"),
    ], ids=["head", "gfa"])
    def test_a_bias_of_the_wrong_length_names_its_layer(self, tmp_path, capsys, edit, message):
        # the head and the gate are one layer type, read by one helper
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        edit(obj)
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {ckpt}: {message}\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("divisor", [True, "2"], ids=["bool", "string"])
    def test_divisor_that_is_not_a_real_number_is_exit_one(self, tmp_path, capsys, divisor):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        obj = json.loads(ckpt.read_text())
        obj["scale"] = {"kind": "scalar", "s": divisor}
        ckpt.write_text(json.dumps(obj))
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err == (
            f"gatedfusion: error: {ckpt}: s must be a finite real number, got {divisor!r}\n")
        assert not (tmp_path / "eval/scores.txt").exists()

    def test_v1_checkpoint_is_exit_one(self, tmp_path, capsys):
        # the v1 layout kept the scale in the gate object; there is no conversion
        bank, ckpt = tiny_eval_inputs(tmp_path)
        ckpt.write_text(json.dumps(V1_CHECKPOINT, indent=1) + "\n")
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 1
        assert capsys.readouterr().err == (
            f"gatedfusion: error: {ckpt}: not a gatedfusion-checkpoint-v2 file\n")
        assert not (tmp_path / "eval/scores.txt").exists()

    def test_unedited_checkpoint_passes(self, tmp_path):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        assert run("eval", "--checkpoint", ckpt, "--bank", bank,
                   "--out-dir", tmp_path / "eval") == 0


def tiny_manifests(root):
    """Valid ``synth``, ``train``, ``stats`` and ``gradcheck`` manifests of
    tiny runs under ``root``."""
    synth(root / "data", train=12, val=4, dim_v=3, dim_o=3, verbs=2, nouns=3, detections=2)
    bank = root / "data/train.bank"
    assert run("train", "--bank", bank, "--val-bank", root / "data/val.bank", "--target",
               "noun", "--fusion", "gfa-a", "--scale", "norm-scalar", "--scale-divisor", 2,
               "--epochs", 1, "--batch-size", 4, "--seed", 0, "--out-dir", root / "train") == 0
    assert run("stats", "--bank", bank, "--out-dir", root / "stats") == 0
    assert run("gradcheck", "--fusion", "gfa-a", "--scale", "norm", "--dim-v", 3, "--dim-o", 2,
               "--classes", 2, "--out-dir", root / "gradcheck") == 0
    return {"synth": root / "data/synth.manifest.json",
            "train": root / "train/train.manifest.json",
            "stats": root / "stats/stats.manifest.json",
            "gradcheck": root / "gradcheck/gradcheck.manifest.json"}


_MANIFEST_JUNK = [_DELETE, None, True, False, -1, 0, 1, 2, 3, 1.5, 1e-320, 1e300, float("nan"),
                  float("inf"), 10**30, 2**63 + 1, 10**400, -10**400, "", "a", "3", "verb", "noun",
                  "gfa-a", "norm", "scalar", "synth", "train", [], {}, [1.0], {"k": 1}]
# Options whose value is an amount of work: a huge one asks for that much
# work, which is not an error, so the fuzz below leaves them small.
_WORK_OPTIONS = {"train_segments", "val_segments", "verbs", "nouns", "dim_v", "dim_o",
                 "detections", "distractors", "decoys", "epochs", "classes"}


class TestFuzzedManifests:
    """Valid manifests with retyped, deleted, non-finite and oversized
    fields, rerun through ``--config``: every run must end in exit 0 or 1."""

    @settings(max_examples=120, deadline=None)
    @given(command=st.sampled_from(["synth", "train", "stats", "gradcheck"]),
           edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_MANIFEST_JUNK)),
                          min_size=1, max_size=3))
    def test_rerun_exits_zero_or_one(self, command, edits):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = tiny_manifests(root)[command]
            obj = json.loads(path.read_text())
            paths = _key_paths(obj)
            for index, value in edits:
                key_path = paths[index % len(paths)]
                if key_path[-1] in _WORK_OPTIONS and isinstance(value, int) and value > 3:
                    continue
                _edit_path(obj, key_path, value)
            path.write_text(json.dumps(obj))
            rc = run(command, "--config", path, "--out-dir", root / "rerun")
        assert rc in (0, 1)

    def test_a_manifest_without_a_seed_is_exit_one_naming_the_key(self, tmp_path, capsys):
        path = tmp_path / "synth.manifest.json"
        write_manifest({"command": "synth", "version": __version__, "config": {}}, path)
        assert run("synth", "--config", path, "--out-dir", tmp_path / "rerun") == 1
        assert capsys.readouterr().err == (f"gatedfusion: error: {path}: manifest missing key "
                                           "'seed'\n")
        assert not (tmp_path / "rerun").exists()

    def test_unedited_manifests_rerun(self, tmp_path):
        for command, path in tiny_manifests(tmp_path).items():
            assert run(command, "--config", path, "--out-dir", tmp_path / command / "rerun") == 0

    @pytest.mark.parametrize("command,key,value", [
        ("synth", "noise", 10**400), ("synth", "seed", -1), ("synth", "window", 2**63 + 1),
        ("synth", "jitter", 1e300), ("synth", "jitter", 1e-320), ("train", "lr", 10**400),
        ("train", "seed", -1)],
        ids=["noise-10**400", "synth-seed--1", "window-2**63+1", "jitter-1e300", "jitter-1e-320",
             "lr-10**400", "train-seed--1"])
    def test_values_that_crashed_a_rerun_are_exit_one(self, tmp_path, capsys, command, key,
                                                      value):
        path = tiny_manifests(tmp_path)[command]
        obj = json.loads(path.read_text())
        obj["config"][key] = value
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(command, "--config", path, "--out-dir", tmp_path / "rerun") == 1
        assert "Traceback" not in capsys.readouterr().err


class TestNonUtf8Inputs:
    @pytest.mark.parametrize("kind,fault", [
        ("checkpoint", "not UTF-8: "), ("manifest", "not UTF-8: "),
        ("score table", "not a score table zip\n"), ("prior", "not a prior zip\n")],
        ids=["checkpoint", "manifest", "score table", "prior"])
    def test_exit_one(self, tmp_path, capsys, kind, fault):
        paths = tiny_action_inputs(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        tables = ["--noun-table", paths["noun"], "--bank", paths["bank"]]
        argv = {"checkpoint": ["eval", "--checkpoint", bad, "--bank", paths["bank"]],
                "manifest": ["stats", "--config", bad],
                "score table": ["actions", "--verb-table", bad, *tables,
                                "--train-bank", paths["bank"]],
                "prior": ["actions", "--verb-table", paths["verb"], *tables, "--prior", bad]}
        assert run(*argv[kind], "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"gatedfusion: error: {bad}: {fault}")
        assert not list((tmp_path / "out").glob("*.manifest.json"))


class TestJsonLinesBank:
    """A JSON-lines bank, as earlier builds read it, is refused wherever a
    bank enters, before any file is written."""

    @pytest.mark.parametrize("command", ["stats", "train", "eval", "actions"])
    def test_exit_one_naming_it(self, tmp_path, capsys, command):
        bank, ckpt = tiny_eval_inputs(tmp_path)
        (tmp_path / "act").mkdir()
        paths = tiny_action_inputs(tmp_path / "act")
        old = tmp_path / "old.bank"
        old.write_bytes(OLD_JSON_LINES_BANK)
        argv = {"stats": ["stats", "--bank", old],
                "train": ["train", "--bank", old, "--target", "noun", "--fusion", "clip-only",
                          "--seed", 0],
                "eval": ["eval", "--checkpoint", ckpt, "--bank", old],
                "actions": ["actions", "--verb-table", paths["verb"], "--noun-table",
                            paths["noun"], "--bank", paths["bank"], "--train-bank", old]}[command]
        out = tmp_path / "out"
        assert run(*argv, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {old}: not a bank zip\n"
        assert not out.exists()  # no output, no manifest and no directory


# The files each command writes in --out-dir, its manifest last.
_WRITES = {
    "synth": ["train.bank", "val.bank", "synth.manifest.json"],
    "train": ["checkpoint.json", "history.json", "train.manifest.json"],
    "eval": ["scores.txt", "eval_report.json", "eval.manifest.json"],
    "actions": ["prior.npz", "action_scores.npz", "action_report.json", "actions.manifest.json"],
    "gradcheck": ["gradcheck_report.json", "gradcheck.manifest.json"],
    "stats": ["bank_stats.json", "stats.manifest.json"],
}


def _command_argv(case, root):
    """The argv of one run of ``case``, a command and the options that set it
    apart, on inputs made under ``root``, and the input files its manifest
    names, in option order."""
    (root / "act").mkdir()
    bank, ckpt = tiny_eval_inputs(root)
    paths = tiny_action_inputs(root / "act")
    tables = ["--verb-table", paths["verb"], "--noun-table", paths["noun"], "--bank", paths["bank"]]
    train = ["--target", "noun", "--fusion", "clip-only", "--epochs", 1, "--seed", 0]
    argv, inputs = {
        "synth": (["synth", "--seed", 1, "--train-segments", 5, "--val-segments", 3], {}),
        "train": (["train", "--bank", bank, *train], {"bank": bank}),
        "train --val-bank": (["train", "--bank", bank, "--val-bank", bank, *train],
                             {"bank": bank, "val_bank": bank}),
        "eval": (["eval", "--checkpoint", ckpt, "--bank", bank],
                 {"checkpoint": ckpt, "bank": bank}),
        "actions": (["actions", *tables, "--train-bank", paths["bank"]],
                    {"verb_table": paths["verb"], "noun_table": paths["noun"],
                     "bank": paths["bank"], "train_bank": paths["bank"]}),
        "actions --prior": (["actions", *tables, "--prior", paths["prior"]],
                            {"verb_table": paths["verb"], "noun_table": paths["noun"],
                             "bank": paths["bank"], "prior": paths["prior"]}),
        "gradcheck": (["gradcheck", "--fusion", "gfa-a"], {}),
        "stats": (["stats", "--bank", bank], {"bank": bank})}[case]
    return argv, {key: str(path) for key, path in inputs.items()}


class TestRefusedTargets:
    """A run refuses every file it would write before it writes any, so a
    refused target leaves --out-dir as it was, and a run refused before its
    first write makes no directory."""

    @pytest.mark.parametrize("command", [*_WRITES, "train --val-bank", "actions --prior"])
    def test_each_command_writes_its_files(self, tmp_path, command):
        argv, inputs = _command_argv(command, tmp_path)
        # actions --prior loads the prior it names and writes none
        writes = [name for name in _WRITES[argv[0]]
                  if name != "prior.npz" or command != "actions --prior"]
        assert run(*argv, "--out-dir", tmp_path / "out") == 0
        assert sorted(os.listdir(tmp_path / "out")) == sorted(writes)
        manifest = load_manifest(tmp_path / "out" / writes[-1])
        assert list(manifest["outputs"].values()) \
            == [str(tmp_path / "out" / name) for name in writes[:-1]]
        assert list(manifest["inputs"].items()) == list(inputs.items())

    @pytest.mark.parametrize("command", _WRITES)
    def test_a_run_refused_before_its_first_write_makes_no_directory(self, tmp_path, capsys,
                                                                     command):
        missing = tmp_path / "missing"
        argv = {"synth": ["synth", "--seed", 1, "--train-segments", 0],
                "train": ["train", "--bank", missing, "--target", "noun", "--fusion", "concat",
                          "--seed", 0],
                "eval": ["eval", "--checkpoint", missing, "--bank", missing],
                "actions": ["actions", "--verb-table", missing, "--noun-table", missing,
                            "--bank", missing],
                "gradcheck": ["gradcheck", "--fusion", "gfa-a", "--classes", 0],
                "stats": ["stats", "--bank", missing]}[command]
        assert run(*argv, "--out-dir", tmp_path / "new" / "deeper") == 1
        assert capsys.readouterr().err.startswith("gatedfusion: ")
        assert not (tmp_path / "new").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("command,name", [(command, name) for command, names in
                                              _WRITES.items() for name in names])
    def test_a_fifo_at_any_output_leaves_the_directory_as_it_was(self, tmp_path, capsys,
                                                                 command, name):
        # Once, eval with a FIFO at eval_report.json had replaced scores.txt
        # and wrote no manifest naming it.
        argv, _ = _command_argv(command, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        old = {other: f"old {other}\n".encode() for other in _WRITES[command][:-1]
               if other != name}
        for other, data in old.items():
            (out / other).write_bytes(data)
        os.mkfifo(out / name)
        assert run(*argv, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"gatedfusion: error: {out / name}: not a regular file\n"
        assert sorted(os.listdir(out)) == sorted([*old, name])  # no manifest, no temporary
        assert all((out / other).read_bytes() == data for other, data in old.items())
        assert stat.S_ISFIFO(os.stat(out / name).st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_at_a_prior_that_is_not_written_is_left_alone(self, tmp_path):
        # actions --prior loads a prior and writes none, so prior.npz is not its target.
        paths = tiny_action_inputs(tmp_path)
        (tmp_path / "act").mkdir()
        os.mkfifo(tmp_path / "act/prior.npz")
        assert run_actions(paths, tmp_path / "act") == 0
        assert "prior" not in load_manifest(tmp_path / "act/actions.manifest.json")["outputs"]


# JSON text that json.dumps cannot write, so the fuzzers above never reach
# it: nesting past the recursion limit, and an integer past the 4300 digits
# Python converts.
_UNDECODABLE = {"deep": "[" * 200_000 + "]" * 200_000, "long-int": "1" * 5000}


class TestUndecodableJson:
    @pytest.mark.parametrize("value", _UNDECODABLE)
    @pytest.mark.parametrize("kind", ["checkpoint", "manifest"])
    def test_exit_one_naming_the_file(self, tmp_path, capsys, kind, value):
        paths = tiny_action_inputs(tmp_path)
        bad = tmp_path / "bad.txt"
        template, argv = {
            "checkpoint": ('{"format": "gatedfusion-checkpoint-v2", "head": %s}',
                           ["eval", "--checkpoint", bad, "--bank", paths["bank"]]),
            "manifest": ('{"format": "gatedfusion-manifest-v1", "config": %s}',
                         ["stats", "--config", bad]),
        }[kind]
        bad.write_text(template % _UNDECODABLE[value] + "\n", encoding="utf-8")
        assert run(*argv, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"gatedfusion: error: {bad}: not valid JSON: ")
        assert not list((tmp_path / "out").glob("*"))

    def test_json_is_decoded_only_by_read_json(self):
        # One decoder: every JSON text the package reads goes through errors.read_json.
        sites = []

        def visit(node, module, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if ((isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                 and isinstance(node.value, ast.Name) and node.value.id == "json")
                    or (isinstance(node, ast.ImportFrom) and node.module == "json")):
                sites.append((module, func))
            for child in ast.iter_child_nodes(node):
                visit(child, module, func)

        for path in sorted(Path(errors.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        assert sites == [("errors.py", "read_json")]


class TestZipCodec:
    def test_zipfile_is_used_only_by_the_zip_codec(self):
        # One codec: banks and action tables are written and read by
        # errors._write_zip and errors._read_zip alone.
        sites = set()

        def visit(node, module, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if ((isinstance(node, ast.Name) and node.id == "zipfile")
                    or (isinstance(node, ast.Import)
                        and any(alias.name == "zipfile" for alias in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.module == "zipfile")):
                sites.add((module, func))
            for child in ast.iter_child_nodes(node):
                visit(child, module, func)

        for path in sorted(Path(errors.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        # module level: the import and the errors a zip read can raise
        assert sites == {("errors.py", None), ("errors.py", "_write_zip"),
                         ("errors.py", "_read_zip")}

    def test_only_the_shared_reader_tells_a_zip_from_text(self):
        # Banks, score tables and priors load through errors.read_input: no
        # other module reads a zip or looks for its magic.
        names = {"_read_zip", "_ZIP_MAGIC"}
        modules = set()
        for path in sorted(Path(errors.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if ((isinstance(node, ast.Name) and node.id in names)
                        or (isinstance(node, ast.Attribute) and node.attr in names)
                        or (isinstance(node, ast.alias) and node.name in names)):
                    modules.add(path.name)
        assert modules == {"errors.py"}


class TestGradcheckCommand:
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_divisor_without_finite_reciprocal_fails_before_any_bank_loads(
            self, tmp_path, capsys, command):
        argv = {"train": ["train", "--bank", tmp_path / "missing.bank", "--target", "noun",
                          "--seed", 0],
                "gradcheck": ["gradcheck"]}[command]
        assert run(*argv, "--fusion", "gfa-a", "--scale", "scalar", "--scale-divisor", "1e-320",
                   "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "gatedfusion: error: scale_divisor must be >= 5.56268464626801e-309, got 1e-320\n")
        assert not (tmp_path / "out").exists()

    def test_step_whose_stencil_overflows_is_exit_one(self, tmp_path, capsys):
        assert run("gradcheck", "--fusion", "gfa-b", "--step", "1e308",
                   "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == ("gatedfusion: error: step 1e+308 is too large: the "
                                           "stencil's 12 * step is not finite\n")
        assert not (tmp_path / "out").exists()

    def test_passes_by_default(self, tmp_path, capsys):
        rc = run("gradcheck", "--fusion", "gfa-a", "--scale", "norm",
                 "--out-dir", tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_err"] < 1e-5

    # perfbench's gradcheck configurations
    SWEEP = ([["--fusion", f] for f in ("clip-only", "concat", "gfa-b")]
             + [["--fusion", "gfa-a", "--scale", s, "--scale-divisor", "2.0"]
                for s in ("none", "scalar", "norm", "norm-scalar")])

    def test_seed_sweep_passes(self, tmp_path):
        start = time.perf_counter()
        failed = [(flags, seed) for flags in self.SWEEP for seed in range(50)
                  if run("gradcheck", *flags, "--seed", seed, "--out-dir", tmp_path) != 0]
        assert not failed
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("flags", [
        *SWEEP,
        # the README's saturated example: its label probability is 5.8e-36,
        # but its gradients are far above the floor
        ["--fusion", "concat", "--scale", "scalar", "--scale-divisor", "0.001",
         "--dim-v", "8", "--dim-o", "8", "--classes", "5"],
    ], ids=["clip-only", "concat", "gfa-b", "gfa-a-none", "gfa-a-scalar", "gfa-a-norm",
            "gfa-a-norm-scalar", "readme-saturated"])
    def test_a_check_that_compares_gradients_is_not_empty(self, tmp_path, capsys, flags):
        assert run("gradcheck", *flags, "--out-dir", tmp_path) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" PASS")
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["passed"] is True and "empty" not in report

    @pytest.mark.parametrize("flags", [
        ["--fusion", "gfa-b", "--classes", "1"],
        ["--fusion", "gfa-a", "--scale", "norm-scalar", "--scale-divisor", "0.001"],
    ], ids=["one-class", "tiny-divisor"])
    def test_an_empty_check_is_exit_one_and_says_so(self, tmp_path, capsys, flags):
        # both passed, reading 0 and 3.8e-114: every analytic and numeric
        # gradient entry is below the 1e-8 floor, so nothing was compared
        assert run("gradcheck", *flags, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            " EMPTY (every entry is below 1e-8)")
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["passed"] is False and report["empty"] is True
        assert report["max_rel_err"] < report["tolerance"]  # not a tolerance failure

    @pytest.mark.parametrize("flags", SWEEP[3:])
    def test_sweep_manifest_records_the_divisor_that_took_effect(self, tmp_path, flags):
        assert run("gradcheck", *flags, "--out-dir", tmp_path) == 0
        recorded = load_manifest(tmp_path / "gradcheck.manifest.json")["config"]["scale_divisor"]
        assert recorded == (2.0 if flags[3].endswith("scalar") else 1.0)

    def test_seed_97_passes(self, tmp_path, capsys):
        # a central difference at step 1e-5 failed this one on gfa.W
        assert run("gradcheck", "--fusion", "gfa-a", "--scale", "none", "--seed", 97,
                   "--out-dir", tmp_path) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")

    @pytest.mark.parametrize("flags", [["--fusion", "gfa-a", "--scale", "norm"],
                                       ["--fusion", "gfa-b"]])
    def test_planted_gate_bug_fails(self, tmp_path, planted_gate_bug, flags):
        assert run("gradcheck", *flags, "--out-dir", tmp_path) == 1
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["per_group"]["gfa.W"] >= 1e-5

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        rc = run("gradcheck", "--fusion", "gfa-b", "--tolerance", "1e-12",
                 "--out-dir", tmp_path)
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith(" FAIL")
        assert "empty" not in json.loads((tmp_path / "gradcheck_report.json").read_text())

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("option", ["--dim-v", "--dim-o", "--classes"])
    @pytest.mark.parametrize("fusion", FUSION_KINDS)
    def test_size_below_one_is_exit_one(self, tmp_path, capsys, fusion, option, value):
        # clip-only and concat used to redraw an empty object feature forever
        start = time.perf_counter()
        assert run("gradcheck", "--fusion", fusion, option, value, "--out-dir", tmp_path) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"{option[2:].replace('-', '_')} must be >= 1, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,sizes", [
        (["--fusion", "concat", "--classes", 10**11], f"dims 8/6 and {10**11} classes"),
        (["--fusion", "clip-only", "--classes", 10**30], f"dims 8/6 and {10**30} classes"),
        (["--fusion", "gfa-a", "--dim-v", 10**30], f"dims {10**30}/6 and 4 classes"),
        (["--fusion", "clip-only", "--dim-v", 10**5, "--dim-o", 10**5],
         "dims 100000/100000 and 4 classes")],
        ids=["concat-classes", "clip-only-classes", "gfa-a-dim-v", "clip-only-row-blocks"])
    def test_sizes_too_large_to_allocate_are_exit_one(self, tmp_path, capsys, flags, sizes):
        # the model's parameters, or grad_check's perturbed row blocks, would
        # take terabytes or more than numpy's largest dimension
        assert run("gradcheck", *flags, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{sizes} " in err and "too large to allocate" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*"))

    def test_step_past_float_range_is_exit_one_without_warnings(self, tmp_path):
        # 2 * 1e308 overflows: the step is rejected before any stencil row is formed
        proc = _run_python("-m", "gatedfusion", "gradcheck", "--fusion", "gfa-b",
                           "--step", "1e308", "--out-dir", str(tmp_path))
        assert proc.returncode == 1
        assert "step 1e+308 is too large" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*"))

    def test_unknown_fusion_is_usage_error(self, tmp_path, capsys):
        rc = run("gradcheck", "--fusion", "bogus", "--out-dir", tmp_path)
        assert rc == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradients_fail(self, tmp_path, capsys):
        # a subnormal divisor overflows the scaled object feature to NaN
        rc = run("gradcheck", "--fusion", "gfa-a", "--scale", "scalar",
                 "--scale-divisor", "6e-309", "--out-dir", tmp_path)
        assert rc == 1
        assert "max_rel_err=inf" in capsys.readouterr().out.splitlines()[-1]
        report = json.loads((tmp_path / "gradcheck_report.json").read_text())
        assert report["passed"] is False and report["max_rel_err"] is None
        assert (tmp_path / "gradcheck.manifest.json").exists()


class TestStats:
    def test_header_only_bank(self, tmp_path):
        bank = save_header_only_bank(tmp_path / "empty.bank")
        assert run("stats", "--bank", bank, "--out-dir", tmp_path) == 0
        stats = json.loads((tmp_path / "bank_stats.json").read_text())
        assert stats["mean_clip_amplitude"] == 0.0
        assert stats["mean_object_amplitude"] == 0.0


@pytest.mark.parametrize("argv,message", [
    (["synth", "--seed", 1, "--train-segments", 20000, "--val-segments", 0],
     "val_segments must be >= 1, got 0"),
    (["synth", "--seed", 1, "--train-segments", 0, "--val-segments", 20000],
     "train_segments must be >= 1, got 0"),
    (["stats", "--bank", "missing.bank", "--k", 0], "k must be >= 1, got 0"),
], ids=["synth-val-segments-0", "synth-train-segments-0", "stats-k-0"])
def test_a_refused_option_is_found_before_any_bank_is_made_or_loaded(tmp_path, capsys,
                                                                     monkeypatch, argv, message):
    called = []
    for name in ("synth_generate", "load_feature_bank"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: called.append(name))
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"gatedfusion: error: {message}\n"
    assert called == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["synth", "--verbs", 0], "verbs must be >= 1, got 0"),
    (["synth", "--nouns", 0], "nouns must be >= 1, got 0"),
    (["synth", "--detections", 0], "detections must be >= 1, got 0"),
    (["synth", "--jitter", 400], "jitter must be in [0, 308], got 400.0"),
    (["synth", "--train-segments", 0], "train_segments must be >= 1, got 0"),
    (["synth", "--val-segments", 0], "val_segments must be >= 1, got 0"),
    (["train", "--bank", "missing.bank", "--target", "verb", "--fusion", "clip-only",
      "--lr", -1], "lr must be >= 0, got -1.0"),
], ids=["verbs", "nouns", "detections", "jitter", "train-segments", "val-segments", "lr"])
def test_a_refused_value_names_its_config_key(tmp_path, capsys, argv, message):
    # The library names the field (verb_vocab, learning_rate, n_segments of
    # either split); the command line names the key its manifest records.
    assert run(*argv, "--seed", 1, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"gatedfusion: error: {message}\n"
    assert not (tmp_path / "out").exists()


def assert_config(manifest_path, expected):
    """The manifest's config is ``expected``, key order included."""
    assert list(load_manifest(manifest_path)["config"].items()) == list(expected.items())


class TestLibraryDefaults:
    def test_synth_and_train_manifests_record_library_defaults(self, tmp_path):
        data, out = str(tmp_path / "data"), str(tmp_path / "run")
        assert run("synth", "--seed", 5, "--out-dir", data) == 0
        spec = SynthSpec(n_segments=1)
        assert_config(tmp_path / "data/synth.manifest.json", {
            "seed": 5, "out_dir": data, "train_segments": 500, "val_segments": 200,
            "verbs": spec.verb_vocab, "nouns": spec.noun_vocab, "dim_v": spec.dim_v,
            "dim_o": spec.dim_o, "detections": spec.signal_detections,
            "distractors": spec.distractors, "decoys": spec.decoys, "noise": spec.noise,
            "mismatch": spec.mismatch, "jitter": spec.amplitude_jitter,
            "noun_in_clip": spec.noun_in_clip, "pairs_per_verb": spec.pairs_per_verb,
            "window": spec.window})

        bank = data + "/val.bank"
        assert run("train", "--bank", bank, "--target", "verb", "--fusion", "clip-only",
                   "--seed", 2, "--out-dir", out) == 0
        tc, agg, scale = TrainConfig(), AggregationConfig(), ScaleMode()
        assert_config(tmp_path / "run/train.manifest.json", {
            "bank": bank, "val_bank": None, "target": "verb", "fusion": "clip-only",
            "scale": scale.kind, "scale_divisor": scale.s,
            "lr": tc.learning_rate, "momentum": tc.momentum, "epochs": tc.epochs,
            "batch_size": tc.batch_size, "seed": 2, "k": agg.k, "window": agg.window,
            "out_dir": out})

    def test_eval_and_stats_manifests_record_every_option(self, tmp_path):
        bank, ckpt = map(str, tiny_eval_inputs(tmp_path))
        out = str(tmp_path / "out")
        assert run("eval", "--checkpoint", ckpt, "--bank", bank, "--out-dir", out) == 0
        assert_config(tmp_path / "out/eval.manifest.json",
                      {"checkpoint": ckpt, "bank": bank, "out_dir": out})
        assert run("stats", "--bank", bank, "--out-dir", out) == 0
        agg = AggregationConfig()
        assert_config(tmp_path / "out/stats.manifest.json", {
            "bank": bank, "k": agg.k, "window": agg.window, "out_dir": out})

    def test_actions_manifest_records_every_option(self, tmp_path):
        paths = {k: str(v) for k, v in tiny_action_inputs(tmp_path).items()}
        out = str(tmp_path / "act")
        assert run_actions(paths, out) == 0
        assert_config(tmp_path / "act/actions.manifest.json", {
            "verb_table": paths["verb"], "noun_table": paths["noun"], "bank": paths["bank"],
            "prior": paths["prior"], "train_bank": None, "out_dir": out})

    def test_gradcheck_manifest_records_every_option(self, tmp_path):
        out = str(tmp_path / "gc")
        assert run("gradcheck", "--fusion", "gfa-b", "--out-dir", out) == 0
        scale = ScaleMode()
        assert_config(tmp_path / "gc/gradcheck.manifest.json", {
            "fusion": "gfa-b", "scale": scale.kind, "scale_divisor": scale.s, "dim_v": 8,
            "dim_o": 6, "classes": 4, "seed": 0,
            "step": inspect.signature(grad_check).parameters["step"].default,
            "tolerance": 1e-5, "out_dir": out})


    @pytest.mark.parametrize("command,classes", [
        ("synth", [SynthSpec]), ("train", [TrainConfig, AggregationConfig, ScaleMode]),
        ("stats", [AggregationConfig]), ("gradcheck", [ScaleMode])],
        ids=["synth", "train", "stats", "gradcheck"])
    def test_each_command_sets_every_field_of_its_configs(self, tmp_path, monkeypatch, command,
                                                          classes):
        # A config field that no option sets keeps its library default unseen.
        # Each class's __init__ records the fields every construction passes.
        synth(tmp_path / "data", train=6, val=4)
        argv = {"synth": ["--seed", 1, "--train-segments", 2, "--val-segments", 2],
                "train": ["--bank", tmp_path / "data/train.bank", "--target", "verb",
                          "--fusion", "gfa-a", "--epochs", 1, "--seed", 0],
                "stats": ["--bank", tmp_path / "data/val.bank"],
                "gradcheck": ["--fusion", "gfa-b"]}[command]
        given = {cls.__name__: set() for cls in classes}
        for cls in classes:
            def record(self, _cls=cls, _init=cls.__init__, **kwargs):
                given[_cls.__name__].update(kwargs)
                _init(self, **kwargs)
            monkeypatch.setattr(cls, "__init__", record)
        assert run(command, *argv, "--out-dir", tmp_path / "out") == 0
        assert given == {cls.__name__: {f.name for f in dataclasses.fields(cls)}
                         for cls in classes}


class TestManifestRerun:
    def test_synth_rerun_reproduces_banks(self, tmp_path):
        synth(tmp_path / "a", seed=11, mismatch=50)
        rc = run("synth", "--config", tmp_path / "a/synth.manifest.json",
                 "--out-dir", tmp_path / "b")
        assert rc == 0
        assert (tmp_path / "a/train.bank").read_bytes() == \
            (tmp_path / "b/train.bank").read_bytes()

    def test_wrong_command_manifest_rejected(self, tmp_path, capsys):
        synth(tmp_path / "a")
        rc = run("train", "--config", tmp_path / "a/synth.manifest.json",
                 "--out-dir", tmp_path / "b")
        assert rc == 1
        assert "synth" in capsys.readouterr().err

    def test_explicit_flag_overrides_manifest(self, tmp_path):
        synth(tmp_path / "a", seed=11)
        run("synth", "--config", tmp_path / "a/synth.manifest.json",
            "--seed", 12, "--out-dir", tmp_path / "b")
        assert (tmp_path / "a/train.bank").read_bytes() != \
            (tmp_path / "b/train.bank").read_bytes()
        manifest = load_manifest(tmp_path / "b/synth.manifest.json")
        assert manifest["seed"] == 12


    def _edited_manifest(self, tmp_path, edit):
        synth(tmp_path / "a")
        path = tmp_path / "a/synth.manifest.json"
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        return path

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = self._edited_manifest(tmp_path, lambda obj: obj.update(config=5))
        assert run("synth", "--config", path, "--out-dir", tmp_path / "b") == 1
        assert "config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("verbs", "3"), ("verbs", 2.5), ("verbs", True),
                                           ("noise", float("nan")), ("noise", "0.1"),
                                           ("out_dir", 7)])
    def test_synth_config_value_of_wrong_kind_rejected(self, tmp_path, capsys, key, value):
        path = self._edited_manifest(tmp_path, lambda obj: obj["config"].update({key: value}))
        assert run("synth", "--config", path) == 1
        assert f"config {key!r} cannot be" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("epochs", "3"), ("fusion", "bogus")])
    def test_train_config_value_of_wrong_kind_rejected(self, tmp_path, capsys, key, value):
        synth(tmp_path / "data", train=20, val=5)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--target", "verb",
                   "--fusion", "clip-only", "--epochs", 1, "--seed", 0,
                   "--out-dir", tmp_path / "run") == 0
        path = tmp_path / "run/train.manifest.json"
        obj = json.loads(path.read_text())
        obj["config"][key] = value
        path.write_text(json.dumps(obj))
        assert run("train", "--config", path, "--out-dir", tmp_path / "run2") == 1
        assert f"config {key!r} cannot be" in capsys.readouterr().err
        assert not (tmp_path / "run2").exists()

    def test_integer_for_float_option_accepted(self, tmp_path):
        path = self._edited_manifest(tmp_path, lambda obj: obj["config"].update(noise=0))
        assert run("synth", "--config", path, "--out-dir", tmp_path / "b") == 0

    @staticmethod
    def _assert_rerun_reproduces(command, first, second, code=0):
        """``--config`` on the manifest in ``first`` exits with ``code`` and
        rewrites every output file of the run byte for byte into ``second``."""
        manifest = f"{command}.manifest.json"
        assert run(command, "--config", first / manifest, "--out-dir", second) == code
        outputs = sorted(p.name for p in first.iterdir() if p.name != manifest)
        assert outputs and outputs == sorted(p.name for p in second.iterdir()
                                             if p.name != manifest)
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        config = load_manifest(second / manifest)["config"]
        assert config == {**load_manifest(first / manifest)["config"], "out_dir": str(second)}

    @pytest.mark.parametrize("prior_flag", ["--prior", "--train-bank"])
    def test_actions_rerun_reproduces_outputs(self, tmp_path, prior_flag):
        paths = tiny_action_inputs(tmp_path)
        prior = {"--prior": paths["prior"], "--train-bank": paths["bank"]}[prior_flag]
        assert run("actions", "--verb-table", paths["verb"], "--noun-table", paths["noun"],
                   "--bank", paths["bank"], prior_flag, prior, "--out-dir", tmp_path / "a") == 0
        self._assert_rerun_reproduces("actions", tmp_path / "a", tmp_path / "b")

    @pytest.mark.parametrize("scale", ["none", "scalar", "norm", "norm-scalar"])
    def test_train_manifest_records_the_divisor_that_took_effect(self, tmp_path, scale):
        synth(tmp_path / "data", train=20, val=5, mismatch=100)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
                   "--fusion", "gfa-a", "--scale", scale, "--scale-divisor", 2.0,
                   "--epochs", 2, "--seed", 0, "--out-dir", tmp_path / "a") == 0
        recorded = load_manifest(tmp_path / "a/train.manifest.json")["config"]["scale_divisor"]
        assert recorded == load_checkpoint(tmp_path / "a/checkpoint.json").model.scale.s
        assert recorded == (2.0 if scale.endswith("scalar") else 1.0)
        self._assert_rerun_reproduces("train", tmp_path / "a", tmp_path / "b")

    def test_train_manifest_of_an_estimated_divisor_reruns(self, tmp_path):
        # A manifest written by the removed --estimate-divisor switch records
        # the estimate as scale_divisor; the unknown key is ignored.
        synth(tmp_path / "data", train=20, val=5, mismatch=100)
        assert run("train", "--bank", tmp_path / "data/train.bank", "--target", "noun",
                   "--fusion", "gfa-a", "--scale", "scalar", "--scale-divisor", 97.5,
                   "--epochs", 2, "--seed", 0, "--out-dir", tmp_path / "a") == 0
        path = tmp_path / "a/train.manifest.json"
        obj = json.loads(path.read_text())
        obj["config"]["estimate_divisor"] = True
        path.write_text(json.dumps(obj))
        assert run("train", "--config", path, "--out-dir", tmp_path / "b") == 0
        for name in ("checkpoint.json", "history.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_actions_manifest_of_an_all_ones_prior_is_exit_one(self, tmp_path, capsys):
        # the removed --all-ones-prior switch named no prior file or bank
        paths = tiny_action_inputs(tmp_path)
        assert run_actions(paths, tmp_path / "a") == 0
        path = tmp_path / "a/actions.manifest.json"
        obj = json.loads(path.read_text())
        obj["config"].update(prior=None, all_ones_prior=True)
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("actions", "--config", path, "--out-dir", tmp_path / "b") == 1
        err = capsys.readouterr().err
        assert "need exactly one of --prior or --train-bank" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "b").glob("*"))

    def test_stats_rerun_reproduces_outputs(self, tmp_path):
        synth(tmp_path / "data", train=30, val=5)
        assert run("stats", "--bank", tmp_path / "data/train.bank", "--k", 2,
                   "--out-dir", tmp_path / "a") == 0
        self._assert_rerun_reproduces("stats", tmp_path / "a", tmp_path / "b")

    def test_stats_manifest_of_a_pair_threshold_reruns(self, tmp_path):
        # A manifest written before --pair-threshold went records the
        # threshold; the unknown key is ignored.
        synth(tmp_path / "data", train=30, val=5)
        assert run("stats", "--bank", tmp_path / "data/train.bank", "--k", 2,
                   "--out-dir", tmp_path / "a") == 0
        path = tmp_path / "a/stats.manifest.json"
        obj = json.loads(path.read_text())
        obj["config"]["pair_threshold"] = 1
        path.write_text(json.dumps(obj))
        assert run("stats", "--config", path, "--out-dir", tmp_path / "b") == 0
        assert ((tmp_path / "a/bank_stats.json").read_bytes()
                == (tmp_path / "b/bank_stats.json").read_bytes())
        assert "pair_threshold" not in load_manifest(tmp_path / "b/stats.manifest.json")["config"]

    @pytest.mark.parametrize("argv,code", [
        (["--fusion", "gfa-a", "--scale", "norm", "--seed", 3], 0),
        (["--fusion", "gfa-b", "--tolerance", "1e-12"], 1)])
    def test_gradcheck_rerun_reproduces_outputs(self, tmp_path, argv, code):
        assert run("gradcheck", *argv, "--out-dir", tmp_path / "a") == code
        self._assert_rerun_reproduces("gradcheck", tmp_path / "a", tmp_path / "b", code)


class TestNonFiniteValues:
    @pytest.mark.parametrize("argv", [["gradcheck", "--fusion", "gfa-b", "--tolerance", "nan"],
                                      ["gradcheck", "--fusion", "gfa-a", "--step", "inf"],
                                      ["synth", "--seed", "1", "--noise=-inf"]])
    def test_float_option_rejected_at_parse_time(self, tmp_path, capsys, argv):
        assert run(*argv, "--out-dir", tmp_path / "out") == 1
        assert "is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_float_option_message(self, tmp_path, capsys):
        assert run("synth", "--seed", 1, "--noise", "abc", "--out-dir", tmp_path) == 1
        assert "invalid float value: 'abc'" in capsys.readouterr().err

    def test_writers_refuse_non_finite_values(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot write JSON"):
            write_json({"x": float("nan")}, tmp_path / "x.json")
        with pytest.raises(ValidationError, match="cannot write JSON"):
            write_manifest({"command": "eval", "version": "0", "seed": None,
                            "config": {"lr": float("inf")}}, tmp_path / "m.json")
        model = init_model("clip-only", 2, 2, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError,
                           match="^learning_rate must be a finite real number, got inf$"):
            save_checkpoint(Checkpoint(model=model, target="noun", dim_v=2, dim_o=2, classes=3,
                                       aggregation=AggregationConfig(),
                                       train_config=TrainConfig(learning_rate=float("inf"))),
                            tmp_path / "ckpt.json")
        assert not any(tmp_path.iterdir())


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "gatedfusion" in capsys.readouterr().out

    def test_module_runs_from_a_checkout(self):
        proc = _run_python("-m", "gatedfusion", "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"gatedfusion {__version__}"

    def test_the_parser_is_built_once_on_first_use(self, tmp_path):
        # Counted in a fresh process: this one has built its parser already.
        proc = _run_python("-c", f"""if True:
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            from gatedfusion import cli
            assert built == [], built
            for argv in (["--version"], [],
                         ["gradcheck", "--fusion", "gfa-a", "--out-dir", {str(tmp_path)!r}]):
                cli.main(argv)
            assert built.count("gatedfusion") == 1, built
            assert len(built) == 1 + len(cli._COMMANDS), built
            """)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "gradcheck_report.json").exists()

    def test_an_option_given_once_is_not_kept(self, tmp_path):
        synth(tmp_path / "data")
        argv = ["train", "--bank", tmp_path / "data" / "train.bank", "--target", "noun",
                "--fusion", "clip-only", "--epochs", "1", "--seed", "0"]
        assert run(*argv, "--lr", "0.3", "--out-dir", tmp_path / "a") == 0
        assert run(*argv, "--out-dir", tmp_path / "b") == 0
        lrs = [load_manifest(tmp_path / run_dir / "train.manifest.json")["config"]["lr"]
               for run_dir in ("a", "b")]
        assert lrs == [0.3, TrainConfig.learning_rate]

    def test_a_usage_error_leaves_the_next_call_as_it_was(self, tmp_path, capsys):
        synth(tmp_path / "data")
        stats = ["stats", "--bank", tmp_path / "data" / "train.bank", "--out-dir"]
        assert run(*stats, tmp_path / "first") == 0
        assert run("train", "--bogus") == 1
        assert run(*stats, tmp_path / "after") == 0
        assert ((tmp_path / "after" / "bank_stats.json").read_bytes()
                == (tmp_path / "first" / "bank_stats.json").read_bytes())

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_repeat_and_match_a_fresh_process(self, flag, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "83")
        outs = []
        for _ in range(2):
            assert main([flag]) == 0
            outs.append(capsys.readouterr().out)
        proc = _run_python("-m", "gatedfusion", flag, COLUMNS="83")
        assert proc.returncode == 0, proc.stderr
        assert outs == [proc.stdout] * 2

    def test_missing_file_is_exit_one(self, tmp_path, capsys):
        rc = run("stats", "--bank", tmp_path / "nope.bank", "--out-dir", tmp_path)
        assert rc == 1
