"""Command-line entry point.

Subcommands: synth, train, eval, actions, gradcheck, stats.  Every command
writes a run manifest next to its outputs; ``--config <manifest>`` reruns a
command with the recorded configuration (explicit flags still win), which
reproduces deterministic outputs byte for byte.

Exit codes: 0 success, 1 usage or validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bank import (AggregationConfig, SynthSpec, bank_features, bank_stats,
                   load_feature_bank, save_feature_bank, synth_generate)
from .errors import ShapeError, ValidationError, strict_json
from .gfa import ScaleMode, estimate_scalar_divisor
from .manifest import RunManifest, load_manifest, write_manifest
from .scoring import (compute_prior, load_prior, load_score_table, prior_stats,
                      save_prior, save_score_table, score_actions_for_bank,
                      topk_accuracy, uniform_prior)
from .training import (Checkpoint, FUSION_KINDS, ModelSpec, TrainConfig,
                       forward_model, grad_check, init_model, load_checkpoint,
                       save_checkpoint, softmax, train)
from .scoring import ScoreTable

_REQUIRED = object()

_SCALE_CHOICES = ("none", "scalar", "norm", "norm-scalar")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with status 2
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type of every float option: inf and nan are rejected."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _add_config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None,
                     help="run manifest to take configuration defaults from")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gatedfusion",
                     description="Gated feature aggregation experiments at desk scale.")
    parser.add_argument("--version", action="version", version=f"gatedfusion {__version__}")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", help="generate synthetic train/val feature banks")
    _add_config_flag(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--train-segments", dest="train_segments", type=int, default=None)
    p.add_argument("--val-segments", dest="val_segments", type=int, default=None)
    p.add_argument("--verbs", type=int, default=None)
    p.add_argument("--nouns", type=int, default=None)
    p.add_argument("--dim-v", dest="dim_v", type=int, default=None)
    p.add_argument("--dim-o", dest="dim_o", type=int, default=None)
    p.add_argument("--detections", type=int, default=None,
                   help="informative in-window detections per segment")
    p.add_argument("--distractors", type=int, default=None)
    p.add_argument("--decoys", type=int, default=None,
                   help="high-score detections outside the window")
    p.add_argument("--noise", type=_finite_float, default=None)
    p.add_argument("--mismatch", type=_finite_float, default=None,
                   help="object/clip amplitude mismatch factor")
    p.add_argument("--jitter", type=_finite_float, default=None,
                   help="per-record amplitude spread in decades around the mismatch")
    p.add_argument("--noun-in-clip", dest="noun_in_clip", type=_finite_float, default=None,
                   help="weight of the noun prototype mixed into the clip feature")
    p.add_argument("--pairs-per-verb", dest="pairs_per_verb", type=int, default=None,
                   help="restrict each verb to this many nouns (0 = independent)")
    p.add_argument("--window", type=int, default=None)

    p = subs.add_parser("train", help="train a classifier head on a feature bank")
    _add_config_flag(p)
    p.add_argument("--bank", default=None)
    p.add_argument("--val-bank", dest="val_bank", default=None)
    p.add_argument("--target", choices=("verb", "noun"), default=None)
    p.add_argument("--fusion", choices=FUSION_KINDS, default=None)
    p.add_argument("--scale", choices=_SCALE_CHOICES, default=None)
    p.add_argument("--scale-divisor", dest="scale_divisor", type=_finite_float, default=None)
    p.add_argument("--estimate-divisor", dest="estimate_divisor",
                   action="store_true", default=None,
                   help="calibrate the scalar divisor from the training bank")
    p.add_argument("--lr", type=_finite_float, default=None)
    p.add_argument("--momentum", type=_finite_float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = subs.add_parser("eval", help="score a bank with a checkpoint")
    _add_config_flag(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--bank", default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = subs.add_parser("actions", help="action scoring with prior re-weighting")
    _add_config_flag(p)
    p.add_argument("--verb-table", dest="verb_table", default=None)
    p.add_argument("--noun-table", dest="noun_table", default=None)
    p.add_argument("--bank", default=None, help="bank carrying the true labels")
    p.add_argument("--prior", default=None, help="prior file to load")
    p.add_argument("--train-bank", dest="train_bank", default=None,
                   help="bank to compute the prior from")
    p.add_argument("--all-ones-prior", dest="all_ones_prior",
                   action="store_true", default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = subs.add_parser("gradcheck", help="finite-difference check of model gradients")
    _add_config_flag(p)
    p.add_argument("--fusion", choices=FUSION_KINDS, default=None)
    p.add_argument("--scale", choices=_SCALE_CHOICES, default=None)
    p.add_argument("--scale-divisor", dest="scale_divisor", type=_finite_float, default=None)
    p.add_argument("--dim-v", dest="dim_v", type=int, default=None)
    p.add_argument("--dim-o", dest="dim_o", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--step", type=_finite_float, default=None)
    p.add_argument("--tolerance", type=_finite_float, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = subs.add_parser("stats", help="summarize a feature bank")
    _add_config_flag(p)
    p.add_argument("--bank", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--pair-threshold", dest="pair_threshold", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)

    # Each command's options by name, for checking values read from a
    # --config manifest the way the command line is checked.
    for sub in subs.choices.values():
        sub.set_defaults(options={action.dest: action for action in sub._actions})
    return parser


def _param_default(func, name: str):
    return inspect.signature(func).parameters[name].default


def _effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve each option: explicit flag, then manifest config, then default."""
    file_cfg: dict = {}
    if getattr(args, "config", None):
        manifest = load_manifest(args.config)
        if manifest.command != args.command:
            raise _UsageError(
                f"manifest {args.config} records command {manifest.command!r}, "
                f"not {args.command!r}")
        file_cfg = manifest.config
    cfg = {}
    for key, default in defaults.items():
        val = getattr(args, key)
        if val is None and key in file_cfg:
            val = file_cfg[key]
            if val is not None and not _option_takes(args.options[key], val):
                raise ValidationError(f"{args.config}: config {key!r} cannot be {val!r}")
        if val is None:
            if default is _REQUIRED:
                raise _UsageError(f"missing required option --{key.replace('_', '-')}")
            val = default
        cfg[key] = val
    return cfg


def _option_takes(action: argparse.Action, val) -> bool:
    """Whether an option could hold ``val`` after parsing a command line."""
    if action.nargs == 0:  # store_true
        return isinstance(val, bool)
    if isinstance(val, bool):
        return False
    if action.type is int:
        ok = isinstance(val, int)
    elif action.type is _finite_float:
        ok = isinstance(val, (int, float)) and math.isfinite(val)
    else:
        ok = isinstance(val, str)
    return ok and (action.choices is None or val in action.choices)


def _scale_mode(cfg: dict) -> ScaleMode:
    kind = cfg["scale"]
    if kind in ("scalar", "norm-scalar"):
        return ScaleMode(kind=kind, s=cfg["scale_divisor"])
    return ScaleMode(kind=kind)


def _write_json(obj, path: Path) -> None:
    text = strict_json(obj, indent=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _cmd_synth(args) -> int:
    # Dataclass field defaults are class attributes: the library is the
    # one source of every default below that it defines.
    cfg = _effective_config(args, {
        "seed": _REQUIRED, "out_dir": _REQUIRED,
        "train_segments": 500, "val_segments": 200,
        "verbs": SynthSpec.verb_vocab, "nouns": SynthSpec.noun_vocab,
        "dim_v": SynthSpec.dim_v, "dim_o": SynthSpec.dim_o,
        "detections": SynthSpec.signal_detections, "distractors": SynthSpec.distractors,
        "decoys": SynthSpec.decoys, "noise": SynthSpec.noise, "mismatch": SynthSpec.mismatch,
        "jitter": SynthSpec.amplitude_jitter, "noun_in_clip": SynthSpec.noun_in_clip,
        "pairs_per_verb": SynthSpec.pairs_per_verb, "window": SynthSpec.window,
    })
    start = time.perf_counter()
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)

    def spec(n: int) -> SynthSpec:
        return SynthSpec(n_segments=n, dim_v=cfg["dim_v"], dim_o=cfg["dim_o"],
                         verb_vocab=cfg["verbs"], noun_vocab=cfg["nouns"],
                         signal_detections=cfg["detections"],
                         distractors=cfg["distractors"], decoys=cfg["decoys"],
                         noise=cfg["noise"], mismatch=cfg["mismatch"],
                         amplitude_jitter=cfg["jitter"],
                         noun_in_clip=cfg["noun_in_clip"],
                         pairs_per_verb=cfg["pairs_per_verb"], window=cfg["window"])

    train_bank = synth_generate(spec(cfg["train_segments"]), cfg["seed"], "train")
    val_bank = synth_generate(spec(cfg["val_segments"]), cfg["seed"], "val")
    train_path, val_path = out / "train.bank", out / "val.bank"
    save_feature_bank(train_bank, train_path)
    save_feature_bank(val_bank, val_path)

    write_manifest(RunManifest(
        command="synth", version=__version__, seed=cfg["seed"], config=cfg,
        outputs={"train_bank": str(train_path), "val_bank": str(val_path)},
        duration_seconds=time.perf_counter() - start,
    ), out / "synth.manifest.json")
    print(f"wrote {train_path} ({len(train_bank.records)} records) and "
          f"{val_path} ({len(val_bank.records)} records)")
    return 0


def _cmd_train(args) -> int:
    cfg = _effective_config(args, {
        "bank": _REQUIRED, "val_bank": None, "target": _REQUIRED,
        "fusion": _REQUIRED, "scale": ScaleMode.kind, "scale_divisor": ScaleMode.s,
        "estimate_divisor": False, "lr": TrainConfig.learning_rate,
        "momentum": TrainConfig.momentum, "epochs": TrainConfig.epochs,
        "batch_size": TrainConfig.batch_size, "seed": _REQUIRED,
        "k": AggregationConfig.k, "window": AggregationConfig.window, "out_dir": _REQUIRED,
    })
    start = time.perf_counter()
    bank = load_feature_bank(cfg["bank"])
    val_bank = load_feature_bank(cfg["val_bank"]) if cfg["val_bank"] else None
    agg = AggregationConfig(k=cfg["k"], window=cfg["window"])

    if cfg["estimate_divisor"]:
        cfg["scale_divisor"] = estimate_scalar_divisor(*bank_features(bank, agg))
    spec = ModelSpec(fusion=cfg["fusion"], scale=_scale_mode(cfg), aggregation=agg)
    tc = TrainConfig(learning_rate=cfg["lr"], momentum=cfg["momentum"],
                     epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                     seed=cfg["seed"])
    model, history = train(bank, cfg["target"], spec, tc, val_bank)

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    classes = bank.verb_vocab_size if cfg["target"] == "verb" else bank.noun_vocab_size
    ckpt_path, hist_path = out / "checkpoint.json", out / "history.json"
    save_checkpoint(Checkpoint(model=model, target=cfg["target"], dim_v=bank.dim_v,
                               dim_o=bank.dim_o, classes=classes, aggregation=agg,
                               train_config=tc), ckpt_path)
    _write_json(history, hist_path)

    inputs = {"bank": cfg["bank"]}
    if cfg["val_bank"]:
        inputs["val_bank"] = cfg["val_bank"]
    write_manifest(RunManifest(
        command="train", version=__version__, seed=cfg["seed"], config=cfg,
        inputs=inputs,
        outputs={"checkpoint": str(ckpt_path), "history": str(hist_path)},
        duration_seconds=time.perf_counter() - start,
    ), out / "train.manifest.json")

    last = history[-1]
    line = (f"epoch {last['epoch']}: loss {last['mean_loss']:.4f} "
            f"grad-norm {last['mean_grad_norm']:.4f}")
    if "val_top1" in last:
        line += f" val-top1 {last['val_top1']:.4f}"
    print(line)
    return 0


def _cmd_eval(args) -> int:
    cfg = _effective_config(args, {
        "checkpoint": _REQUIRED, "bank": _REQUIRED, "out_dir": _REQUIRED,
    })
    start = time.perf_counter()
    ckpt = load_checkpoint(cfg["checkpoint"])
    bank = load_feature_bank(cfg["bank"])
    if (bank.dim_v, bank.dim_o) != (ckpt.dim_v, ckpt.dim_o):
        raise ValidationError(
            f"bank dims ({bank.dim_v}, {bank.dim_o}) do not match checkpoint "
            f"({ckpt.dim_v}, {ckpt.dim_o})")
    vocab = bank.verb_vocab_size if ckpt.target == "verb" else bank.noun_vocab_size
    if vocab != ckpt.classes:
        raise ValidationError(
            f"bank {ckpt.target} vocab is {vocab}, checkpoint expects {ckpt.classes}")

    ids = [rec.segment_id for rec in bank.records]
    scores, _ = forward_model(ckpt.model, *bank_features(bank, ckpt.aggregation))
    table = ScoreTable(segment_ids=ids, scores=softmax(scores), space=ckpt.target)

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "scores.txt"
    save_score_table(table, table_path)

    report: dict = {"target": ckpt.target, "segments": len(ids)}
    labels = [rec.verb_label if ckpt.target == "verb" else rec.noun_label
              for rec in bank.records]
    if all(l is not None for l in labels):
        report["top1"] = topk_accuracy(table, labels, 1)
        report["top5"] = topk_accuracy(table, labels, 5)
    report_path = out / "eval_report.json"
    _write_json(report, report_path)

    write_manifest(RunManifest(
        command="eval", version=__version__, seed=None, config=cfg,
        inputs={"checkpoint": cfg["checkpoint"], "bank": cfg["bank"]},
        outputs={"scores": str(table_path), "report": str(report_path)},
        duration_seconds=time.perf_counter() - start,
    ), out / "eval.manifest.json")
    print(json.dumps(report))
    return 0


def _cmd_actions(args) -> int:
    cfg = _effective_config(args, {
        "verb_table": _REQUIRED, "noun_table": _REQUIRED, "bank": _REQUIRED,
        "prior": None, "train_bank": None, "all_ones_prior": False,
        "out_dir": _REQUIRED,
    })
    start = time.perf_counter()
    verb_table = load_score_table(cfg["verb_table"])
    noun_table = load_score_table(cfg["noun_table"])
    if verb_table.space != "verb":
        raise ValidationError(f"{cfg['verb_table']}: space is {verb_table.space!r}, expected 'verb'")
    if noun_table.space != "noun":
        raise ValidationError(f"{cfg['noun_table']}: space is {noun_table.space!r}, expected 'noun'")
    bank = load_feature_bank(cfg["bank"])

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    if cfg["all_ones_prior"]:
        prior = uniform_prior(bank.verb_vocab_size, bank.noun_vocab_size)
    elif cfg["prior"]:
        prior = load_prior(cfg["prior"], bank.verb_vocab_size, bank.noun_vocab_size)
    elif cfg["train_bank"]:
        prior = compute_prior(load_feature_bank(cfg["train_bank"]))
        prior_path = out / "prior.txt"
        save_prior(prior, prior_path)
        outputs["prior"] = str(prior_path)
    else:
        raise _UsageError("need one of --prior, --train-bank, or --all-ones-prior")

    action_table, action_metrics = score_actions_for_bank(
        verb_table, noun_table, prior, bank)

    report: dict = {"action": action_metrics}
    by_id = {r.segment_id: r for r in bank.records}
    verb_labels = [by_id[s].verb_label for s in verb_table.segment_ids if s in by_id]
    noun_labels = [by_id[s].noun_label for s in noun_table.segment_ids if s in by_id]
    if len(verb_labels) == len(verb_table.segment_ids) and all(
            l is not None for l in verb_labels):
        report["verb"] = {"top1": topk_accuracy(verb_table, verb_labels, 1),
                          "top5": topk_accuracy(verb_table, verb_labels, 5)}
        report["noun"] = {"top1": topk_accuracy(noun_table, noun_labels, 1),
                          "top5": topk_accuracy(noun_table, noun_labels, 5)}
    if prior.counts is not None:
        report["prior"] = prior_stats(prior)

    table_path = out / "action_scores.txt"
    save_score_table(action_table, table_path)
    report_path = out / "action_report.json"
    _write_json(report, report_path)
    outputs.update({"action_scores": str(table_path), "report": str(report_path)})

    write_manifest(RunManifest(
        command="actions", version=__version__, seed=None, config=cfg,
        inputs={k: cfg[k] for k in ("verb_table", "noun_table", "bank")},
        outputs=outputs,
        duration_seconds=time.perf_counter() - start,
    ), out / "actions.manifest.json")
    print(json.dumps(report))
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = _effective_config(args, {
        "fusion": _REQUIRED, "scale": ScaleMode.kind, "scale_divisor": ScaleMode.s,
        "dim_v": 8, "dim_o": 6, "classes": 4, "seed": 0,
        "step": _param_default(grad_check, "step"), "tolerance": 1e-5, "out_dir": ".",
    })
    start = time.perf_counter()
    rng = np.random.default_rng(cfg["seed"])
    model = init_model(cfg["fusion"], cfg["dim_v"], cfg["dim_o"], cfg["classes"],
                       scale=_scale_mode(cfg), rng=rng)
    v = rng.uniform(-2.0, 2.0, size=cfg["dim_v"])
    o = rng.uniform(-2.0, 2.0, size=cfg["dim_o"])
    # Keep the object feature away from the norm-scaling kink at |o| ~ 0.
    while float(np.sqrt(np.dot(o, o))) <= 0.1:
        o = rng.uniform(-2.0, 2.0, size=cfg["dim_o"])
    label = int(rng.integers(cfg["classes"]))

    max_err, per_group = grad_check(model, v, o, label, step=cfg["step"])
    for name in sorted(per_group):
        print(f"{name:8s} max_rel_err={per_group[name]:.3e}")
    passed = max_err < cfg["tolerance"]
    print(f"overall  max_rel_err={max_err:.3e} tolerance={cfg['tolerance']:.1e} "
          f"{'PASS' if passed else 'FAIL'}")

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "gradcheck_report.json"
    _write_json({"per_group": per_group, "max_rel_err": max_err,
                 "tolerance": cfg["tolerance"], "passed": passed}, report_path)
    write_manifest(RunManifest(
        command="gradcheck", version=__version__, seed=cfg["seed"], config=cfg,
        outputs={"report": str(report_path)},
        duration_seconds=time.perf_counter() - start,
    ), out / "gradcheck.manifest.json")
    return 0 if passed else 1


def _cmd_stats(args) -> int:
    cfg = _effective_config(args, {
        "bank": _REQUIRED, "k": AggregationConfig.k, "window": AggregationConfig.window,
        "pair_threshold": _param_default(bank_stats, "pair_threshold"), "out_dir": ".",
    })
    start = time.perf_counter()
    bank = load_feature_bank(cfg["bank"])
    stats = bank_stats(bank, AggregationConfig(k=cfg["k"], window=cfg["window"]),
                       pair_threshold=cfg["pair_threshold"])
    print(json.dumps(stats, indent=1))

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    stats_path = out / "bank_stats.json"
    _write_json(stats, stats_path)
    write_manifest(RunManifest(
        command="stats", version=__version__, seed=None, config=cfg,
        inputs={"bank": cfg["bank"]},
        outputs={"stats": str(stats_path)},
        duration_seconds=time.perf_counter() - start,
    ), out / "stats.manifest.json")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "actions": _cmd_actions,
    "gradcheck": _cmd_gradcheck,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("gatedfusion: a subcommand is required", file=sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help / --version
        return exc.code if isinstance(exc.code, int) else 0
    except _UsageError as exc:
        print(f"gatedfusion: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, ShapeError, OSError) as exc:
        print(f"gatedfusion: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
