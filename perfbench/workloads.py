"""The benchmark's workloads: inputs built from a seed, a fixed amount of
work per repetition, and a check on every output.

Each workload times two steps per repetition, reported as ``step_a_s`` and
``step_b_s`` (see README.md for what each step is on each workload).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# The ROADMAP's benchmark scale: 20 verbs x 40 nouns, dim 64.
ROADMAP_BANK = dict(dim_v=64, dim_o=64, verb_vocab=20, noun_vocab=40, pairs_per_verb=5)
TRAIN_SEGMENTS, VAL_SEGMENTS = 2000, 500
LEARNING_RATE = 0.5

# Top-1 accuracy floors, about 0.15 below the lowest value the seed code
# reached over seeds 1-40, so they catch broken outputs, not noise.
TRAIN_VAL_TOP1_FLOOR = {"gfa-a": 0.65, "gfa-b": 0.1, "clip-only": 0.1, "concat": 0.85}
SCORE_FLOORS = {"noun": 0.7, "verb": 0.95, "reweighted": 0.65, "plain": 0.7}
PIPELINE_FLOORS = {"noun": 0.5, "verb": 0.5, "reweighted": 0.5}
GRADCHECK_TOLERANCE = 1e-5


@dataclass
class Op:
    """One call into the program and the problems found in its output."""

    label: str
    value: object = None
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    raised: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems

    def check(self, passed: bool, what: str) -> bool:
        if not passed:
            self.problems.append(what)
        return passed


class Book:
    """Counts operations, keeps their problems, and holds the first output
    digest of each repeated operation for the bitwise reproducibility check."""

    def __init__(self):
        self.ops: list[Op] = []
        self.tracer = None
        self._first_digest: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def problems(self) -> list[str]:
        return [f"{op.label}: {p}" for op in self.ops for p in op.problems]

    def call(self, label: str, fn, *args, **kwargs) -> Op:
        op = Op(label)
        self.ops.append(op)
        scope = (self.tracer.operation(label) if self.tracer is not None
                 else contextlib.nullcontext())
        with scope:
            start = time.perf_counter()
            try:
                op.value = fn(*args, **kwargs)
            except Exception as exc:  # a failing operation is counted, not fatal
                op.raised = True
                op.problems.append(f"raised {type(exc).__name__}: {exc}")
            op.seconds = time.perf_counter() - start
        return op

    def repeatable(self, op: Op, digest: str) -> None:
        """Same operation and seed must give bitwise identical outputs."""
        first = self._first_digest.setdefault(op.label, digest)
        op.check(first == digest, "output differs from the first run with the same seed")


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _bank_digest(bank) -> str:
    parts = [bank.dim_v, bank.dim_o, bank.verb_vocab_size, bank.noun_vocab_size]
    for r in bank.records:
        parts += [r.segment_id, r.clip_center_frame, r.verb_label, r.noun_label, r.clip_feature]
        for d in r.detections:
            parts += [d.frame_index, d.score, d.feature]
    return _digest(parts)


def _dir_digest(directory: Path) -> str:
    """Digest of every file under ``directory``; a manifest's wall time is
    dropped because it is the one field that may differ between reruns."""
    parts = []
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            obj = json.loads(data)
            obj.pop("duration_seconds", None)
            data = json.dumps(obj, sort_keys=True).encode()
        parts += [str(path.relative_to(directory)), data]
    return _digest(parts)


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _cli(gf, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gf.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(book: Book, gf, label: str, argv: list, out_dir: Path) -> Op:
    """One CLI command; it must exit 0 and rerun to identical files."""
    op = book.call(label, _cli, gf, [str(a) for a in argv])
    if op.raised:
        return op
    code, _, err = op.value
    if op.check(code == 0, f"exit code {code}: {err.strip()[-300:]}"):
        book.repeatable(op, _dir_digest(out_dir))
    return op


def _report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _synth_spec(gf, n: int):
    return gf.SynthSpec(n_segments=n, **ROADMAP_BANK)


class TrainWorkload:
    """``train()`` in-process on an in-memory ROADMAP-scale bank, once per
    fusion kind.  No bank I/O, scoring or CLI work runs here."""

    name = "train"
    epochs = 2
    rep_seconds = 1.2
    kinds = (("gfa-a", "norm"), ("gfa-b", "none"), ("clip-only", "none"), ("concat", "none"))
    gated = ("gfa-a", "gfa-b")

    def setup(self, gf, book: Book, seed: int, workdir: Path):
        train_op = book.call("synth train bank", gf.synth_generate,
                             _synth_spec(gf, TRAIN_SEGMENTS), seed, "train")
        val_op = book.call("synth val bank", gf.synth_generate,
                           _synth_spec(gf, VAL_SEGMENTS), seed, "val")
        for op in (train_op, val_op):
            if op.ok:
                book.repeatable(op, _bank_digest(op.value))
        return seed, train_op.value, val_op.value

    def rep(self, gf, book: Book, state) -> dict:
        seed, train_bank, val_bank = state
        times = {"step_a": 0.0, "step_b": 0.0}
        for kind, scale in self.kinds:
            spec = gf.ModelSpec(fusion=kind, scale=gf.ScaleMode(kind=scale))
            cfg = gf.TrainConfig(learning_rate=LEARNING_RATE, epochs=self.epochs, seed=seed)
            op = book.call(f"train {kind}", gf.train, train_bank, "noun", spec, cfg, val_bank)
            times["step_a" if kind in self.gated else "step_b"] += op.seconds
            if op.raised:
                continue
            model, history = op.value
            op.check(all(math.isfinite(h["mean_loss"]) and math.isfinite(h["mean_grad_norm"])
                         for h in history), "non-finite loss or gradient norm")
            top1 = history[-1]["val_top1"]
            op.check(top1 >= TRAIN_VAL_TOP1_FLOOR[kind],
                     f"val top-1 {top1} below floor {TRAIN_VAL_TOP1_FLOOR[kind]}")
            params = [model.head.W, model.head.b]
            if model.gfa is not None:
                params += [model.gfa.W, model.gfa.b]
            book.repeatable(op, _digest(params + [json.dumps(history)]))
        return times

    def named(self, step_a: float, step_b: float) -> dict:
        seg_epochs = 2 * TRAIN_SEGMENTS * self.epochs
        return {"train_gated_seg_per_s": (seg_epochs / step_a, "seg/s"),
                "train_plain_seg_per_s": (seg_epochs / step_b, "seg/s")}


class ScoreWorkload:
    """The post-training path through ``cli.main``: two ``eval`` runs over
    the 2000-segment train bank, then ``actions`` with its prior."""

    name = "score"
    setup_epochs = 2
    # A repetition costs 5.7 s on the seed code; counting it as half that
    # makes score measure about twice --seconds, because its memory-bound
    # bank I/O is the noisiest step on a shared host.
    rep_seconds = 2.85

    def setup(self, gf, book: Book, seed: int, workdir: Path):
        bank_path = workdir / "train.bank"
        bank_op = book.call("synth train bank", gf.synth_generate,
                            _synth_spec(gf, TRAIN_SEGMENTS), seed, "train")
        bank = bank_op.value
        save_op = book.call("save train bank", gf.save_feature_bank, bank, bank_path)
        paths = {"bank": bank_path}
        for target, fusion, scale in (("noun", "gfa-a", "norm"), ("verb", "clip-only", "none")):
            spec = gf.ModelSpec(fusion=fusion, scale=gf.ScaleMode(kind=scale))
            cfg = gf.TrainConfig(learning_rate=LEARNING_RATE, epochs=self.setup_epochs, seed=seed)
            train_op = book.call(f"train {target} checkpoint", gf.train, bank, target, spec, cfg)
            if train_op.raised:
                continue
            classes = bank.noun_vocab_size if target == "noun" else bank.verb_vocab_size
            ckpt = gf.Checkpoint(model=train_op.value[0], target=target, dim_v=bank.dim_v,
                                 dim_o=bank.dim_o, classes=classes,
                                 aggregation=spec.aggregation, train_config=cfg)
            paths[target] = workdir / f"{target}.checkpoint.json"
            book.call(f"save {target} checkpoint", gf.save_checkpoint, ckpt, paths[target])
        if save_op.ok and len(paths) == 3:
            book.repeatable(save_op, _digest([p.read_bytes() for p in paths.values()]))
        return workdir, paths

    def rep(self, gf, book: Book, state) -> dict:
        workdir, paths = state
        times = {"step_a": 0.0, "step_b": 0.0}
        for target in ("noun", "verb"):
            out = _fresh(workdir / f"eval-{target}")
            op = run_cli(book, gf, f"eval {target}", ["eval", "--checkpoint", paths[target],
                                                     "--bank", paths["bank"], "--out-dir", out], out)
            times["step_a"] += op.seconds
            if op.ok:
                top1 = _report(out / "eval_report.json")["top1"]
                op.check(top1 >= SCORE_FLOORS[target],
                         f"{target} top-1 {top1} below floor {SCORE_FLOORS[target]}")
        out = _fresh(workdir / "actions")
        op = run_cli(book, gf, "actions", [
            "actions", "--verb-table", workdir / "eval-verb" / "scores.txt",
            "--noun-table", workdir / "eval-noun" / "scores.txt",
            "--bank", paths["bank"], "--train-bank", paths["bank"], "--out-dir", out], out)
        times["step_b"] = op.seconds
        if op.ok:
            action = _report(out / "action_report.json")["action"]
            for kind in ("reweighted", "plain"):
                top1 = action[kind]["top1"]
                op.check(top1 >= SCORE_FLOORS[kind],
                         f"{kind} action top-1 {top1} below floor {SCORE_FLOORS[kind]}")
        return times

    def named(self, step_a: float, step_b: float) -> dict:
        return {"eval_seg_per_s": (2 * TRAIN_SEGMENTS / step_a, "seg/s"),
                "actions_seg_per_s": (TRAIN_SEGMENTS / step_b, "seg/s")}


class PipelineWorkload:
    """The README walkthrough through ``cli.main`` at README scale, then a
    ``gradcheck`` for every fusion kind and every gfa-a scale mode."""

    name = "pipeline"
    rep_seconds = 2.6
    gradcheck_sweeps = 3  # one sweep is under 0.1 s, too short to time steadily
    gradchecks = ([["--fusion", f] for f in ("clip-only", "concat", "gfa-b")]
                  + [["--fusion", "gfa-a", "--scale", s, "--scale-divisor", "2.0"]
                     for s in ("none", "scalar", "norm", "norm-scalar")])

    def setup(self, gf, book: Book, seed: int, workdir: Path):
        return seed, workdir / "walkthrough"

    def rep(self, gf, book: Book, state) -> dict:
        seed, root = state
        _fresh(root)
        data = root / "data"
        walk = [
            ("synth", data, ["synth", "--seed", seed, "--out-dir", data,
                             "--train-segments", 400, "--val-segments", 150, "--verbs", 5,
                             "--nouns", 12, "--pairs-per-verb", 3, "--noise", 0.25]),
            ("stats", root / "stats", ["stats", "--bank", data / "train.bank",
                                       "--out-dir", root / "stats"]),
        ]
        for target, fusion in (("noun", "gfa-b"), ("verb", "clip-only")):
            walk.append((f"train {target}", root / f"run-{target}", [
                "train", "--bank", data / "train.bank", "--val-bank", data / "val.bank",
                "--target", target, "--fusion", fusion, "--lr", LEARNING_RATE,
                "--epochs", 60, "--seed", seed, "--out-dir", root / f"run-{target}"]))
        for target in ("noun", "verb"):
            walk.append((f"eval {target}", root / f"eval-{target}", [
                "eval", "--checkpoint", root / f"run-{target}" / "checkpoint.json",
                "--bank", data / "val.bank", "--out-dir", root / f"eval-{target}"]))
        walk.append(("actions", root / "actions", [
            "actions", "--verb-table", root / "eval-verb" / "scores.txt",
            "--noun-table", root / "eval-noun" / "scores.txt", "--bank", data / "val.bank",
            "--train-bank", data / "train.bank", "--out-dir", root / "actions"]))

        times = {"step_a": 0.0, "step_b": 0.0}
        ops = {}
        for label, out, argv in walk:
            ops[label] = run_cli(book, gf, label, argv, out)
            times["step_a"] += ops[label].seconds
        for target in ("noun", "verb"):
            if ops[f"eval {target}"].ok:
                top1 = _report(root / f"eval-{target}" / "eval_report.json")["top1"]
                ops[f"eval {target}"].check(
                    top1 >= PIPELINE_FLOORS[target],
                    f"{target} top-1 {top1} below floor {PIPELINE_FLOORS[target]}")
        if ops["actions"].ok:
            action = _report(root / "actions" / "action_report.json")["action"]
            rw, plain = action["reweighted"]["top1"], action["plain"]["top1"]
            ops["actions"].check(rw >= plain, f"reweighted top-1 {rw} below plain {plain}")
            ops["actions"].check(rw >= PIPELINE_FLOORS["reweighted"],
                                 f"reweighted top-1 {rw} below floor {PIPELINE_FLOORS['reweighted']}")

        # The README's gradcheck command, at its documented default seed.
        for flags in self.gradchecks * self.gradcheck_sweeps:
            kind = flags[1:4:2]  # fusion kind, and scale mode for gfa-a
            out = root / "-".join(["gradcheck", *kind])
            op = run_cli(book, gf, " ".join(["gradcheck", *kind]),
                         ["gradcheck", *flags, "--out-dir", out], out)
            times["step_b"] += op.seconds
            if op.ok:
                err = _report(out / "gradcheck_report.json")["max_rel_err"]
                op.check(err < GRADCHECK_TOLERANCE,
                         f"max relative error {err} not below {GRADCHECK_TOLERANCE}")
        return times

    def named(self, step_a: float, step_b: float) -> dict:
        return {"pipeline_s": (step_a, "s"), "gradcheck_s": (step_b, "s")}


WORKLOADS = {w.name: w for w in (TrainWorkload(), ScoreWorkload(), PipelineWorkload())}
