"""Command-line entry point.

Subcommands: synth, train, eval, actions, gradcheck, stats.  Every command
writes a run manifest next to its outputs; ``--config <manifest>`` reruns a
command with the recorded configuration (explicit flags still win), which
reproduces deterministic outputs byte for byte.

Each command is declared once, in its ``_COMMANDS`` row: handler, help, the
files it writes in ``--out-dir`` and its options, each row naming the config
field it fills or holding its default.  The parser, the config, the library
config objects and the manifest (its ``inputs`` are the ``_INPUTS`` keys a
run was given) are built from that table.  The parser is built on the first
``main`` call and reused by every later one in the process: parsing never
changes it, and the help width is read when help is formatted.

Exit codes: 0 success, 1 usage or validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bank import (AggregationConfig, SynthSpec, bank_stats, load_feature_bank,
                   save_feature_bank, synth_generate)
from .errors import (ShapeError, ValidationError, _regular_target, is_finite_real, is_integer,
                     write_json)
from .gfa import SCALE_KINDS, ScaleMode
from .manifest import load_manifest, write_manifest
from .scoring import (ScoreTable, compute_prior, load_prior, load_score_table, save_prior,
                      save_score_table, score_actions_for_bank, topk_report)
from .tensor import l2_norm
from .training import (Checkpoint, FUSION_KINDS, TARGETS, ModelSpec, TrainConfig,
                       bank_inputs, fit_labels, forward_model, grad_check, init_model,
                       load_checkpoint, log_softmax, save_checkpoint, target_labels, train)

_REQUIRED = object()
# The config keys that name input files: a manifest's inputs are those a run was given.
_INPUTS = ("bank", "val_bank", "checkpoint", "verb_table", "noun_table", "prior", "train_bank")


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


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="gatedfusion",
                     description="Gated feature aggregation experiments at desk scale.")
    parser.add_argument("--version", action="version", version=f"gatedfusion {__version__}")
    subs = parser.add_subparsers(dest="command")
    for command, (_, help_text, _, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", default=None,
                         help="run manifest to take configuration defaults from")
        for flag, _, kwargs in options:
            sub.add_argument(flag, default=None, **kwargs)
    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    """Resolve each option: explicit flag, then manifest config, then default."""
    file_cfg: dict = {}
    if args.config:
        manifest = load_manifest(args.config)
        if manifest["command"] != args.command:
            raise _UsageError(
                f"manifest {args.config} records command {manifest['command']!r}, "
                f"not {args.command!r}")
        file_cfg = manifest["config"]
    cfg = {}
    for flag, default, kwargs in _COMMANDS[args.command][3]:
        key = flag[2:].replace("-", "_")  # the dest argparse derives from the flag
        val = getattr(args, key)
        if val is None and key in file_cfg:
            val = file_cfg[key]
            if val is not None and not _option_takes(kwargs, val):
                raise ValidationError(f"{args.config}: config {key!r} cannot be {val!r}")
        if val is None:
            if default is _REQUIRED:
                raise _UsageError(f"missing required option {flag}")
            val = getattr(*default) if isinstance(default, tuple) else default
        cfg[key] = val
    return cfg


def _option_takes(kwargs: dict, val) -> bool:
    """Whether an option declared with argparse ``kwargs`` could hold ``val``
    after parsing a command line."""
    rule = {int: is_integer, _finite_float: is_finite_real}.get(kwargs.get("type"))
    ok = rule(val) if rule else isinstance(val, str)
    return ok and ("choices" not in kwargs or val in kwargs["choices"])


def _config(cls, cfg: dict, **keys):
    """``cls`` from the ``cfg`` values of the options whose rows name its
    fields and of ``keys`` (field=config key).  ``cfg`` then records each
    value that took effect, such as the divisor 1.0 of a kind that does not
    divide.  A refused value is named by its config key."""
    keys.update({tag[1]: flag[2:].replace("-", "_") for *_, options in _COMMANDS.values()
                 for flag, tag, _ in options if isinstance(tag, tuple) and tag[0] is cls})
    try:
        obj = cls(**{field: cfg[key] for field, key in keys.items()})
    except ValidationError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValidationError(f"{keys.get(field, field)} {rest}") from None
    cfg.update({key: getattr(obj, field) for field, key in keys.items()})
    return obj


# Each handler runs one command from its resolved config, writes the files
# of ``paths`` (the outputs of its ``_COMMANDS`` row, keyed as there) and
# returns its exit code.

def _cmd_synth(cfg: dict, paths: dict) -> int:
    # Both splits' specs are checked before either bank is generated.
    spec = _config(SynthSpec, cfg, n_segments="train_segments")
    val_spec = _config(SynthSpec, cfg, n_segments="val_segments")
    train_bank = synth_generate(spec, cfg["seed"], "train")
    val_bank = synth_generate(val_spec, cfg["seed"], "val")
    save_feature_bank(train_bank, paths["train_bank"])
    save_feature_bank(val_bank, paths["val_bank"])
    print(f"wrote {paths['train_bank']} ({len(train_bank.ids)} records) and "
          f"{paths['val_bank']} ({len(val_bank.ids)} records)")
    return 0


def _cmd_train(cfg: dict, paths: dict) -> int:
    # The options, the model spec among them, are checked before any bank loads.
    agg = _config(AggregationConfig, cfg)
    spec = ModelSpec(fusion=cfg["fusion"], scale=_config(ScaleMode, cfg), aggregation=agg)
    tc = _config(TrainConfig, cfg, seed="seed")
    bank = load_feature_bank(cfg["bank"])
    val_bank = load_feature_bank(cfg["val_bank"]) if cfg["val_bank"] else None
    model, history = train(bank, cfg["target"], spec, tc, val_bank)

    save_checkpoint(Checkpoint(model=model, target=cfg["target"], dim_v=bank.dim_v,
                               dim_o=bank.dim_o, classes=target_labels(bank, cfg["target"])[1],
                               aggregation=agg, train_config=tc), paths["checkpoint"])
    write_json(history, paths["history"])

    last = history[-1]
    line = (f"epoch {last['epoch']}: loss {last['mean_loss']:.4f} "
            f"grad-norm {last['mean_grad_norm']:.4f}")
    if "val_top1" in last:
        line += f" val-top1 {last['val_top1']:.4f}"
    print(line)
    return 0


def _cmd_eval(cfg: dict, paths: dict) -> int:
    ckpt = load_checkpoint(cfg["checkpoint"])
    bank = load_feature_bank(cfg["bank"])
    labels = fit_labels(bank, ckpt.target, (ckpt.dim_v, ckpt.dim_o), ckpt.classes, "checkpoint")
    scores, _ = forward_model(*bank_inputs(ckpt.model, bank, ckpt.aggregation))
    save_score_table(ScoreTable(bank.ids, log_softmax(scores), ckpt.target), paths["scores"])

    report: dict = {"target": ckpt.target, "segments": len(bank.ids)}
    if (labels >= 0).all():  # the logits, as val_top1 ranks
        report.update(topk_report(scores, labels))
    write_json(report, paths["report"])
    print(json.dumps(report))
    return 0


def _cmd_actions(cfg: dict, paths: dict) -> int:
    if bool(cfg["prior"]) == bool(cfg["train_bank"]):  # a run takes one source of the prior
        raise _UsageError("need exactly one of --prior or --train-bank"
                          + (", got --prior, --train-bank" if cfg["prior"] else ""))
    verb_table = load_score_table(cfg["verb_table"])
    noun_table = load_score_table(cfg["noun_table"])
    bank = load_feature_bank(cfg["bank"])

    if cfg["prior"]:
        prior = load_prior(cfg["prior"], bank.verb_vocab_size, bank.noun_vocab_size)
    else:
        same = Path(cfg["train_bank"]).resolve() == Path(cfg["bank"]).resolve()
        prior = compute_prior(bank if same else load_feature_bank(cfg["train_bank"]))

    # Scoring checks the tables' spaces, each other and the bank before any file is written.
    action_table, action_metrics, labels = score_actions_for_bank(
        verb_table, noun_table, prior, bank, (cfg["verb_table"], cfg["noun_table"]))
    if cfg["train_bank"]:
        save_prior(prior, paths["prior"])
    report = {"action": action_metrics, "verb": topk_report(verb_table.scores, labels[:, 0]),
              "noun": topk_report(noun_table.scores, labels[:, 1])}

    save_score_table(action_table, paths["action_scores"])
    write_json(report, paths["report"])
    print(json.dumps(report))
    return 0


def _cmd_gradcheck(cfg: dict, paths: dict) -> int:
    if not cfg["tolerance"] > 0:  # no check could pass it
        raise ValidationError(f"tolerance must be positive, got {cfg['tolerance']}")
    rng = np.random.default_rng(cfg["seed"])
    model = init_model(cfg["fusion"], cfg["dim_v"], cfg["dim_o"], cfg["classes"],
                       scale=_config(ScaleMode, cfg), rng=rng)
    v = rng.uniform(-2.0, 2.0, size=cfg["dim_v"])
    o = rng.uniform(-2.0, 2.0, size=cfg["dim_o"])
    # Keep the object feature away from the norm-scaling kink at |o| ~ 0.
    while float(l2_norm(o)) <= 0.1:
        o = rng.uniform(-2.0, 2.0, size=cfg["dim_o"])
    label = int(rng.integers(cfg["classes"]))

    max_err, per_group, empty = grad_check(model, v, o, label, step=cfg["step"])
    for name in sorted(per_group):
        print(f"{name:8s} max_rel_err={per_group[name]:.3e}")
    passed = max_err < cfg["tolerance"] and not empty
    verdict = "EMPTY (every entry is below 1e-8)" if empty else "PASS" if passed else "FAIL"
    print(f"overall  max_rel_err={max_err:.3e} tolerance={cfg['tolerance']:.1e} {verdict}")

    def finite(err):  # JSON has no inf: a non-finite gradient's error reads null
        return err if math.isfinite(err) else None

    # An empty check adds its own key, so the report of any other check keeps its bytes.
    write_json({"per_group": {name: finite(err) for name, err in per_group.items()},
                "max_rel_err": finite(max_err), "tolerance": cfg["tolerance"],
                "passed": passed, **({"empty": True} if empty else {})}, paths["report"])
    return 0 if passed else 1


def _cmd_stats(cfg: dict, paths: dict) -> int:
    agg = _config(AggregationConfig, cfg)  # checked before the bank loads
    stats = bank_stats(load_feature_bank(cfg["bank"]), agg)
    print(json.dumps(stats, indent=1))
    write_json(stats, paths["stats"])
    return 0


_INT, _FLOAT = {"type": int}, {"type": _finite_float}
_SCALE_OPTIONS = [("--scale", (ScaleMode, "kind"),
                   {"choices": SCALE_KINDS, "help": "rescale o before fusion (not clip-only)"}),
                  ("--scale-divisor", (ScaleMode, "s"), _FLOAT)]
_AGGREGATION_OPTIONS = [("--k", (AggregationConfig, "k"), _INT),
                        ("--window", (AggregationConfig, "window"), _INT)]

# command -> (handler, help, outputs, options).  outputs maps each manifest
# output key to its file in --out-dir, in manifest order; eval's scores are
# a zip under their text-era name, which the README and perfbench pass to
# actions, and actions writes the prior only when it counts one from
# --train-bank.  options are (flag, default, argparse keywords) rows in
# manifest order.  An option that fills a config field holds (class, field)
# as its default and takes the field's, a class attribute: the library is
# the one source of every default it defines.  A _REQUIRED option has none.
_COMMANDS = {
    "synth": (_cmd_synth, "generate synthetic train/val feature banks",
              {"train_bank": "train.bank", "val_bank": "val.bank"}, [
        ("--seed", _REQUIRED, _INT),
        ("--out-dir", _REQUIRED, {}),
        ("--train-segments", 500, _INT),
        ("--val-segments", 200, _INT),
        ("--verbs", (SynthSpec, "verb_vocab"), _INT),
        ("--nouns", (SynthSpec, "noun_vocab"), _INT),
        ("--dim-v", (SynthSpec, "dim_v"), _INT),
        ("--dim-o", (SynthSpec, "dim_o"), _INT),
        ("--detections", (SynthSpec, "signal_detections"),
         {**_INT, "help": "informative in-window detections per segment"}),
        ("--distractors", (SynthSpec, "distractors"), _INT),
        ("--decoys", (SynthSpec, "decoys"),
         {**_INT, "help": "high-score detections outside the window"}),
        ("--noise", (SynthSpec, "noise"), _FLOAT),
        ("--mismatch", (SynthSpec, "mismatch"),
         {**_FLOAT, "help": "object/clip amplitude mismatch factor"}),
        ("--jitter", (SynthSpec, "amplitude_jitter"),
         {**_FLOAT, "help": "per-record amplitude spread in decades around the mismatch"}),
        ("--noun-in-clip", (SynthSpec, "noun_in_clip"),
         {**_FLOAT, "help": "weight of the noun prototype mixed into the clip feature"}),
        ("--pairs-per-verb", (SynthSpec, "pairs_per_verb"),
         {**_INT, "help": "restrict each verb to this many nouns (0 = independent)"}),
        ("--window", (SynthSpec, "window"), _INT),
    ]),
    "train": (_cmd_train, "train a classifier head on a feature bank",
              {"checkpoint": "checkpoint.json", "history": "history.json"}, [
        ("--bank", _REQUIRED, {}),
        ("--val-bank", None, {}),
        ("--target", _REQUIRED, {"choices": TARGETS}),
        ("--fusion", _REQUIRED, {"choices": FUSION_KINDS}),
        *_SCALE_OPTIONS,
        ("--lr", (TrainConfig, "learning_rate"), _FLOAT),
        ("--momentum", (TrainConfig, "momentum"), _FLOAT),
        ("--epochs", (TrainConfig, "epochs"), _INT),
        ("--batch-size", (TrainConfig, "batch_size"), _INT),
        ("--seed", _REQUIRED, _INT),
        *_AGGREGATION_OPTIONS,
        ("--out-dir", _REQUIRED, {}),
    ]),
    "eval": (_cmd_eval, "score a bank with a checkpoint",
             {"scores": "scores.txt", "report": "eval_report.json"}, [
        ("--checkpoint", _REQUIRED, {}),
        ("--bank", _REQUIRED, {}),
        ("--out-dir", _REQUIRED, {}),
    ]),
    "actions": (_cmd_actions, "action scoring with prior re-weighting",
                {"prior": "prior.npz", "action_scores": "action_scores.npz",
                 "report": "action_report.json"}, [
        ("--verb-table", _REQUIRED, {}),
        ("--noun-table", _REQUIRED, {}),
        ("--bank", _REQUIRED, {"help": "bank carrying the true labels"}),
        ("--prior", None, {"help": "prior file to load"}),
        ("--train-bank", None, {"help": "bank to compute the prior from"}),
        ("--out-dir", _REQUIRED, {}),
    ]),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of model gradients",
                  {"report": "gradcheck_report.json"}, [
        ("--fusion", _REQUIRED, {"choices": FUSION_KINDS}),
        *_SCALE_OPTIONS,
        ("--dim-v", 8, _INT),
        ("--dim-o", 6, _INT),
        ("--classes", 4, _INT),
        ("--seed", 0, _INT),
        ("--step", inspect.signature(grad_check).parameters["step"].default, _FLOAT),
        ("--tolerance", 1e-5, _FLOAT),
        ("--out-dir", ".", {}),
    ]),
    "stats": (_cmd_stats, "summarize a feature bank", {"stats": "bank_stats.json"}, [
        ("--bank", _REQUIRED, {}),
        *_AGGREGATION_OPTIONS,
        ("--out-dir", ".", {}),
    ]),
}


def _run(args: argparse.Namespace) -> int:
    """Resolve the command's config, run its handler in ``--out-dir`` and
    write ``<command>.manifest.json`` there.  Every file the run will write
    passes ``_regular_target`` first, so a refused target leaves the
    directory as it was; a run refused before its first save makes none."""
    cfg = _effective_config(args)
    if cfg.get("seed", 0) < 0:  # numpy seeds its generators from integers >= 0
        raise ValidationError(f"seed must be >= 0, got {cfg['seed']}")
    start = time.perf_counter()
    handler, _, outputs, _ = _COMMANDS[args.command]
    out = Path(cfg["out_dir"])
    paths = {key: out / name for key, name in outputs.items()
             if key != "prior" or cfg["train_bank"]}
    manifest_path = out / f"{args.command}.manifest.json"
    for path in (*paths.values(), manifest_path):
        _regular_target(path)
    code = handler(cfg, paths)
    write_manifest({
        "command": args.command, "version": __version__, "seed": cfg.get("seed"), "config": cfg,
        "inputs": {key: val for key, val in cfg.items() if key in _INPUTS and val},
        "outputs": {key: str(path) for key, path in paths.items()},
        "duration_seconds": time.perf_counter() - start,
    }, manifest_path)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("gatedfusion: a subcommand is required", file=sys.stderr)
            return 1
        return _run(args)
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
