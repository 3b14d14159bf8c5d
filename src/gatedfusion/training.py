"""Linear classifier heads over fused features, and their training loop.

The head is a single affine layer followed by softmax cross-entropy; the
point of the artifact is the fusion mechanism, so the head stays as simple
as possible.  Four fusion kinds are supported:

* ``clip-only`` -- head over the clip feature alone.
* ``concat``    -- head over the raw concatenation of clip and object
                   features (the unstable baseline).
* ``gfa-a``     -- head over the gated concatenation.
* ``gfa-b``     -- head over the gated clip feature.

Training is SGD with momentum, mini-batch gradients averaged over the
batch, and everything (init, shuffling) drawn from one seeded generator,
so a run is bitwise reproducible from its config.

``forward_model``, ``model_backward``, ``loss_and_grads``, ``softmax`` and
``cross_entropy`` work on the last axis: one segment's features ``(dim,)``
or a block of B segments ``(B, dim)`` take the same code path, so a
mini-batch is one forward and one backward pass.  Parameter gradients are
summed over rows; ``loss_and_grads`` returns the batch-mean loss and the
gradients of that mean.  SGD reads only the parameter gradients, so
``train`` passes ``inputs=False`` down the backward pass and the input
gradients of ``v`` and ``o`` are never computed; ``grad_check`` keeps the
default and checks them too.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .bank import AggregationConfig, FeatureBank, bank_features
from .errors import ShapeError, ValidationError, read_text, strict_json
from .gfa import (GfaCache, GfaParams, ScaleMode, gfa_backward, gfa_forward,
                  init_gfa_params)
from .tensor import affine, affine_vjp, concat, concat_vjp

__all__ = [
    "FUSION_KINDS",
    "Head",
    "Model",
    "ModelSpec",
    "TrainConfig",
    "Checkpoint",
    "softmax",
    "cross_entropy",
    "forward_model",
    "model_backward",
    "loss_and_grads",
    "sgd_momentum_step",
    "init_model",
    "param_groups",
    "train",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
]

FUSION_KINDS = ("clip-only", "concat", "gfa-a", "gfa-b")

_PROB_FLOOR = 1e-12


@dataclass
class Head:
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.W.ndim != 2 or self.b.ndim != 1:
            raise ShapeError("head: W must be 2-D and b 1-D")
        if self.W.shape[0] != self.b.shape[0]:
            raise ShapeError(
                f"head: W has {self.W.shape[0]} rows but b has dim {self.b.shape[0]}")


@dataclass
class Model:
    fusion_kind: str
    head: Head
    gfa: GfaParams | None = None

    def __post_init__(self) -> None:
        if self.fusion_kind not in FUSION_KINDS:
            raise ValidationError(
                f"fusion kind {self.fusion_kind!r} not one of {FUSION_KINDS}")
        needs_gfa = self.fusion_kind in ("gfa-a", "gfa-b")
        if needs_gfa and self.gfa is None:
            raise ValidationError(f"fusion kind {self.fusion_kind!r} requires gfa params")
        if not needs_gfa and self.gfa is not None:
            raise ValidationError(f"fusion kind {self.fusion_kind!r} must not carry gfa params")
        if self.gfa is not None:
            expected = "a" if self.fusion_kind == "gfa-a" else "b"
            if self.gfa.variant != expected:
                raise ValidationError(
                    f"fusion kind {self.fusion_kind!r} needs variant {expected!r} params, "
                    f"got {self.gfa.variant!r}")


@dataclass(frozen=True)
class ModelSpec:
    """What to build before training: fusion kind, scaling, aggregation."""

    fusion: str = "gfa-b"
    scale: ScaleMode = field(default_factory=ScaleMode.none)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)

    def __post_init__(self) -> None:
        if self.fusion not in FUSION_KINDS:
            raise ValidationError(f"fusion kind {self.fusion!r} not one of {FUSION_KINDS}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate >= 0:
            raise ValidationError(f"learning rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch size must be >= 1, got {self.batch_size}")


def softmax(scores: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis: positive entries summing to one."""
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, label) -> float:
    """Mean over rows of -log(probs[label]), floored so certainty-adjacent
    values stay finite.  ``label`` is an int for one row of ``probs`` or an
    int array with one label per row."""
    labels = np.asarray(label)
    if labels.shape != probs.shape[:-1]:
        raise ShapeError(
            f"labels have shape {labels.shape}, expected {probs.shape[:-1]}")
    # An out-of-range label matches no class, so its row picks nothing.
    picked = probs[np.arange(probs.shape[-1]) == labels[..., None]]
    if picked.size != labels.size:
        raise ValidationError(
            f"label {label} out of range for {probs.shape[-1]} classes")
    return float(-np.add.reduce(np.log(np.maximum(picked, _PROB_FLOOR))) / labels.size)


@dataclass
class ModelCache:
    v: np.ndarray
    o: np.ndarray
    feature: np.ndarray
    gfa_cache: GfaCache | None = None


def forward_model(model: Model, v: np.ndarray,
                  o_agg: np.ndarray) -> tuple[np.ndarray, ModelCache]:
    """Class scores (pre-softmax), one row per row of ``v`` and ``o_agg``."""
    if v.shape[:-1] != o_agg.shape[:-1]:
        raise ShapeError(
            f"v has leading shape {v.shape[:-1]}, o has {o_agg.shape[:-1]}")
    kind = model.fusion_kind
    gfa_cache = None
    if kind == "clip-only":
        feature = v
    elif kind == "concat":
        feature = concat(v, o_agg)
    else:
        feature, gfa_cache = gfa_forward(v, o_agg, model.gfa)
    W = model.head.W
    if feature.shape[-1] != W.shape[1]:
        raise ShapeError(
            f"head expects input dim {W.shape[1]}, got {kind} feature of dim "
            f"{feature.shape[-1]}")
    scores = affine(feature, W, model.head.b)
    return scores, ModelCache(v=v, o=o_agg, feature=feature, gfa_cache=gfa_cache)


def model_backward(model: Model, cache: ModelCache, dscores: np.ndarray,
                   inputs: bool = True) -> dict[str, np.ndarray]:
    """Gradients for every parameter group, summed over rows, plus both
    inputs (``v`` and ``o``, left out when ``inputs`` is False), keyed by
    name."""
    gated = model.gfa is not None  # the gate's backward reads the head's input gradient
    dfeat, dW_head, db_head = affine_vjp(cache.feature, model.head.W, model.head.b,
                                         dscores, inputs=inputs or gated)
    grads = {"head.W": dW_head, "head.b": db_head}
    if gated:
        dv, do, grads["gfa.W"], grads["gfa.b"] = gfa_backward(cache.gfa_cache, model.gfa,
                                                              dfeat, inputs=inputs)
    if not inputs:
        return grads
    if model.fusion_kind == "clip-only":
        dv, do = dfeat, np.zeros_like(cache.o)
    elif model.fusion_kind == "concat":
        dv, do = concat_vjp(cache.v, cache.o, dfeat)
    grads["v"], grads["o"] = dv, do
    return grads


def loss_and_grads(model: Model, v: np.ndarray, o_agg: np.ndarray, label,
                   inputs: bool = True) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the rows of ``v`` and ``o_agg`` and its
    gradients; ``label`` is an int for one row or an int array per row.
    ``inputs=False`` leaves out the ``v`` and ``o`` gradients, which
    training does not read."""
    scores, cache = forward_model(model, v, o_agg)
    probs = softmax(scores)
    loss = cross_entropy(probs, label)
    labels = np.asarray(label)
    onehot = np.arange(probs.shape[-1]) == labels[..., None]
    dscores = (probs - onehot) / labels.size
    return loss, model_backward(model, cache, dscores, inputs=inputs)


def sgd_momentum_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> tuple[np.ndarray, np.ndarray]:
    """velocity' = momentum * velocity + grads; params' = params - lr * velocity'."""
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise ShapeError(
            f"sgd step: shapes disagree, params {params.shape}, grads {grads.shape}, "
            f"velocity {velocity.shape}")
    new_velocity = momentum * velocity + grads
    return params - lr * new_velocity, new_velocity


def _feature_dim(fusion: str, dim_v: int, dim_o: int) -> int:
    return dim_v if fusion in ("clip-only", "gfa-b") else dim_v + dim_o


def init_model(fusion: str, dim_v: int, dim_o: int, classes: int,
               scale: ScaleMode | None = None,
               rng: np.random.Generator | None = None) -> Model:
    """Fresh model; gate params (if any) are drawn before the head so the
    stream of random numbers is fixed per fusion kind."""
    rng = rng if rng is not None else np.random.default_rng()
    if fusion not in FUSION_KINDS:
        raise ValidationError(f"fusion kind {fusion!r} not one of {FUSION_KINDS}")
    for name, size in (("dim_v", dim_v), ("dim_o", dim_o), ("classes", classes)):
        if size < 1:
            raise ValidationError(f"{name} must be >= 1, got {size}")
    gfa = None
    if fusion == "gfa-a":
        gfa = init_gfa_params(dim_v, dim_o, "a", scale=scale, rng=rng)
    elif fusion == "gfa-b":
        gfa = init_gfa_params(dim_v, dim_o, "b", scale=scale, rng=rng)
    feat_dim = _feature_dim(fusion, dim_v, dim_o)
    bound = 1.0 / np.sqrt(feat_dim)
    head = Head(W=rng.uniform(-bound, bound, size=(classes, feat_dim)),
                b=np.zeros(classes))
    return Model(fusion_kind=fusion, head=head, gfa=gfa)


def param_groups(model: Model) -> dict[str, np.ndarray]:
    groups = {"head.W": model.head.W, "head.b": model.head.b}
    if model.gfa is not None:
        groups["gfa.W"] = model.gfa.W
        groups["gfa.b"] = model.gfa.b
    return groups


def _bank_labels(bank: FeatureBank, target: str) -> np.ndarray:
    if target not in ("verb", "noun"):
        raise ValidationError(f"target must be 'verb' or 'noun', got {target!r}")
    labels = bank.labels[:, 0 if target == "verb" else 1]
    if (labels < 0).any():
        raise ValidationError(f"record {bank.ids[np.argmax(labels < 0)]!r} has no {target} label")
    return labels


def _top1_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    # argmax takes the lowest index among ties, matching the pessimistic
    # tie rule of the metrics module at k=1.
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def train(bank: FeatureBank, target: str, spec: ModelSpec, cfg: TrainConfig,
          val_bank: FeatureBank | None = None) -> tuple[Model, list[dict]]:
    """Train one head (and gate, if any) for ``target`` on ``bank``.

    Returns the trained model and a per-epoch history of mean loss, mean
    gradient norm, and validation top-1 when ``val_bank`` is given.
    Deterministic given (bank, spec, cfg).  Raises ``ValidationError``
    naming the epoch and batch when a batch's loss or gradient norm is not
    finite.
    """
    if not bank.ids:
        raise ValidationError("cannot train on an empty bank")
    if val_bank is not None and not val_bank.ids:
        raise ValidationError("cannot validate on an empty bank")
    labels = _bank_labels(bank, target)
    classes = bank.verb_vocab_size if target == "verb" else bank.noun_vocab_size
    V, O = bank_features(bank, spec.aggregation)
    val_data = None
    if val_bank is not None:
        if (val_bank.dim_v, val_bank.dim_o) != (bank.dim_v, bank.dim_o):
            raise ValidationError(
                f"validation bank dims ({val_bank.dim_v}, {val_bank.dim_o}) differ from "
                f"training bank ({bank.dim_v}, {bank.dim_o})")
        val_data = (*bank_features(val_bank, spec.aggregation),
                    _bank_labels(val_bank, target))

    rng = np.random.default_rng(cfg.seed)
    model = init_model(spec.fusion, bank.dim_v, bank.dim_o, classes,
                       scale=spec.scale, rng=rng)
    # SGD writes into these arrays, which are the model's own parameters.
    params = param_groups(model)
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}

    n = len(bank.ids)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        batch_gnorms: list[float] = []
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(model, V[idx], O[idx], labels[idx], inputs=False)
            with np.errstate(over="ignore"):  # an overflow reads as divergence below
                gnorm = float(np.sqrt(sum(float(np.sum(grads[name] * grads[name]))
                                          for name in params)))
            if not (np.isfinite(loss) and np.isfinite(gnorm)):
                raise ValidationError(
                    f"training diverged at epoch {epoch}, batch {batch}: loss {loss}, "
                    f"gradient norm {gnorm}")
            batch_losses.append(loss)
            batch_gnorms.append(gnorm)
            for name, arr in params.items():
                arr[...], velocity[name] = sgd_momentum_step(
                    arr, grads[name], velocity[name], cfg.learning_rate, cfg.momentum)
        entry = {
            "epoch": epoch,
            "mean_loss": float(np.mean(batch_losses)),
            "mean_grad_norm": float(np.mean(batch_gnorms)),
        }
        if val_data is not None:
            Vv, Ov, val_labels = val_data
            entry["val_top1"] = _top1_accuracy(forward_model(model, Vv, Ov)[0], val_labels)
        history.append(entry)
    return model, history


def grad_check(model: Model, v: np.ndarray, o_agg: np.ndarray, label: int,
               step: float = 1e-5) -> tuple[float, dict[str, float]]:
    """Compare the analytic end-to-end gradient of the loss against central
    finite differences, for every parameter group and both inputs.

    Returns (max relative error, per-group max relative error), with the
    relative error denominator max(|analytic|, |numeric|, 1e-8).  An entry
    whose analytic or numeric value is not finite has relative error inf.
    """
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    _, analytic = loss_and_grads(model, v, o_agg, label)
    # Entries are perturbed in place, on private copies, and restored.
    model = copy.deepcopy(model)
    targets = {**param_groups(model), "v": np.array(v, dtype=np.float64),
               "o": np.array(o_agg, dtype=np.float64)}

    def loss() -> float:
        scores, _ = forward_model(model, targets["v"], targets["o"])
        return cross_entropy(softmax(scores), label)

    per_group: dict[str, float] = {}
    for name, arr in targets.items():
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            plus = loss()
            arr[idx] = orig - step
            minus = loss()
            arr[idx] = orig
            numeric = (plus - minus) / (2.0 * step)
            a = float(analytic[name][idx])
            if math.isfinite(a) and math.isfinite(numeric):
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
            else:  # a NaN would drop out of max() and read as agreement
                worst = math.inf
        per_group[name] = worst
    return max(per_group.values()), per_group


# --- checkpoints ----------------------------------------------------------------

_CHECKPOINT_FORMAT = "gatedfusion-checkpoint-v1"


@dataclass
class Checkpoint:
    """A trained model plus everything needed to evaluate it consistently."""

    model: Model
    target: str
    dim_v: int
    dim_o: int
    classes: int
    aggregation: AggregationConfig
    train_config: TrainConfig


def _matrix_obj(W: np.ndarray) -> dict:
    return {"rows": W.shape[0], "cols": W.shape[1], "data": W.ravel().tolist()}


def _matrix_from_obj(obj: dict, name: str) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError):
        raise ValidationError(f"checkpoint: {name} must declare rows, cols, data") from None
    arr = np.array(data, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != rows * cols:
        raise ValidationError(
            f"checkpoint: {name} declares {rows}x{cols} but carries {arr.size} values")
    return arr.reshape(rows, cols)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    obj = {
        "format": _CHECKPOINT_FORMAT,
        "fusion_kind": ckpt.model.fusion_kind,
        "target": ckpt.target,
        "dim_v": ckpt.dim_v,
        "dim_o": ckpt.dim_o,
        "classes": ckpt.classes,
        "aggregation": asdict(ckpt.aggregation),
        "train_config": asdict(ckpt.train_config),
        "head": {"W": _matrix_obj(ckpt.model.head.W), "b": ckpt.model.head.b.tolist()},
        "gfa": None,
    }
    if ckpt.model.gfa is not None:
        g = ckpt.model.gfa
        obj["gfa"] = {
            "variant": g.variant,
            "scale": asdict(g.scale),
            "W": _matrix_obj(g.W),
            "b": g.b.tolist(),
        }
    text = strict_json(obj, indent=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint; shape-inconsistent files are rejected."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != _CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: not a {_CHECKPOINT_FORMAT} file")
    try:
        fusion = obj["fusion_kind"]
        target = obj["target"]
        dim_v, dim_o, classes = obj["dim_v"], obj["dim_o"], obj["classes"]
        agg = AggregationConfig(k=obj["aggregation"]["k"],
                                window=obj["aggregation"]["window"])
        tc = obj["train_config"]
        train_config = TrainConfig(**{f.name: tc[f.name] for f in fields(TrainConfig)})
        head_W = _matrix_from_obj(obj["head"]["W"], "head.W")
        head_b = np.array(obj["head"]["b"], dtype=np.float64)
        gfa_obj = obj["gfa"]
        if gfa_obj is not None:
            scale = ScaleMode(**gfa_obj.get("scale", {}))  # absent fields take their defaults
            gfa_W = _matrix_from_obj(gfa_obj["W"], "gfa.W")
            gfa_b = np.array(gfa_obj["b"], dtype=np.float64)
            variant = gfa_obj.get("variant")
    except (KeyError, TypeError, AttributeError):
        raise ValidationError(f"{path}: missing checkpoint fields") from None
    except ValidationError as exc:  # a config value its own class rejects
        raise ValidationError(f"{path}: {exc}") from None
    except (ValueError, OverflowError):  # OverflowError: an int past float range
        raise ValidationError(f"{path}: checkpoint weights must be arrays of numbers") from None
    for key, val in (("dim_v", dim_v), ("dim_o", dim_o), ("classes", classes)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {val!r}")
    weights = {"head.W": head_W, "head.b": head_b}
    if gfa_obj is not None:
        weights.update({"gfa.W": gfa_W, "gfa.b": gfa_b})
    for name, arr in weights.items():
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{path}: {name} has non-finite entries")

    feat_dim = _feature_dim(fusion, dim_v, dim_o)
    if head_W.shape != (classes, feat_dim):
        raise ValidationError(
            f"{path}: head.W is {head_W.shape[0]}x{head_W.shape[1]}, expected "
            f"{classes}x{feat_dim} for fusion {fusion!r}")
    if head_b.shape != (classes,):
        raise ValidationError(f"{path}: head.b has dim {head_b.size}, expected {classes}")

    gfa = None
    if gfa_obj is not None:
        expected = (dim_v + dim_o, dim_v + dim_o) if variant == "a" else (dim_v, dim_o)
        if gfa_W.shape != expected:
            raise ValidationError(
                f"{path}: gfa.W is {gfa_W.shape[0]}x{gfa_W.shape[1]}, expected "
                f"{expected[0]}x{expected[1]} for variant {variant!r}")
        if gfa_b.shape != (gfa_W.shape[0],):
            raise ValidationError(
                f"{path}: gfa.b has dim {gfa_b.size}, expected {gfa_W.shape[0]}")
        gfa = GfaParams(variant=variant, W=gfa_W, b=gfa_b, scale=scale)

    model = Model(fusion_kind=fusion, head=Head(W=head_W, b=head_b), gfa=gfa)
    return Checkpoint(model=model, target=target, dim_v=dim_v, dim_o=dim_o,
                      classes=classes, aggregation=agg, train_config=train_config)
