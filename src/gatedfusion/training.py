"""Linear classifier heads over fused features, and their training loop.

The head is one ``Affine`` layer, as the gate is, passed whole to
``tensor``'s affine map, then softmax cross-entropy: the point is the
fusion mechanism, so the head stays simple.  Four fusion kinds are supported:

* ``clip-only`` -- head over the clip feature alone.
* ``concat``    -- head over the raw concatenation of clip and object
                   features (the unstable baseline).
* ``gfa-a``     -- head over the gated concatenation.
* ``gfa-b``     -- head over the gated clip feature.

The table ``_FUSIONS`` gives each kind's gate variant and whether its head
reads ``[v, o]``; every parameter shape and code path follows from it, and
it alone picks the gate's operands: ``forward_model`` builds ``y = [v, o]``
(or ``v``) once and gates it from ``x = y`` for variant A or ``x = o`` for
B.  A model's ``scale`` rescales ``o`` once, before any fusion, and
``clip-only``, which never reads ``o``, takes scale ``none``: ``ModelSpec``,
``Model`` and ``init_model`` share one check of that rule.  A
``Checkpoint`` is checked once, when it is built, and cannot change after,
so every checkpoint saves and loads back.  A checkpoint file holds each
layer in one layout and records the gate's variant, which
``load_checkpoint`` checks against the kind.

Training is SGD with momentum, mini-batch gradients averaged over the
batch, and everything (init, shuffling) drawn from one seeded generator,
so a run is bitwise reproducible from its config.  ``bank_inputs``
aggregates a bank's object block once per aggregation, passes that block
through the scale stage, which has no parameters, once per scale, and keeps
each, read-only, while the bank lives: nothing is aggregated for a kind
that never reads ``o``, and every later ``train`` or ``eval`` on that bank
reads the blocks again.  A bank and its blocks never change; re-enabling
``writeable`` on a block and changing it breaks that contract, and every
later call on the bank reads the changed rows.  The batch loop and the
validation pass run the model's own weight arrays with no scale stage on
those rows, which gives the scaled model's scores bit for bit, since the
stage scales each row on its own.

``forward_model``, ``model_backward``, ``loss_and_grads``, ``log_softmax``
and ``softmax_nll`` work on the last axis: one segment's features ``(dim,)`` or
a block of B segments ``(B, dim)`` take the same code path, so a mini-batch
is one forward and one backward pass.  Parameter gradients are summed over
rows; ``loss_and_grads`` returns the batch-mean loss and the gradients of
that mean.  The loss is ``logsumexp(s) - s[label]``, read from the head's
scores with the one ``exp`` that gives the probabilities, and ``grad_check``
differences that same loss, so a blow-up shows in the history at its exact
size.  SGD reads only the parameter gradients, so ``train`` passes
``inputs=False`` down the backward pass and the input gradients of ``v``
and ``o`` are never computed; ``grad_check`` keeps the default and checks
them too.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bank import _LABEL_KEYS, AggregationConfig, FeatureBank, bank_features
from .errors import (ShapeError, ValidationError, check_fields, is_integer, read_json,
                     write_json)
from .gfa import (Affine, GfaCache, ScaleMode, _gate_tail, gfa_backward, gfa_forward,
                  scale_object_feature, scale_vjp)
from .scoring import topk_report
from .tensor import affine, affine_vjp

__all__ = [
    "FUSION_KINDS",
    "TARGETS",
    "Model",
    "ModelSpec",
    "TrainConfig",
    "Checkpoint",
    "log_softmax",
    "softmax_nll",
    "forward_model",
    "model_backward",
    "loss_and_grads",
    "sgd_momentum_step",
    "init_model",
    "bank_inputs",
    "param_groups",
    "target_labels",
    "fit_labels",
    "train",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
]

# fusion kind -> (gate variant, None for no gate; whether the head reads [v, o])
_FUSIONS = {"clip-only": (None, False), "concat": (None, True),
            "gfa-a": ("a", True), "gfa-b": ("b", False)}
FUSION_KINDS = tuple(_FUSIONS)
TARGETS = _LABEL_KEYS  # a target names one of a bank's label columns


def _gate_variant(fusion: str, scale: ScaleMode) -> str | None:
    """The gate variant of ``fusion`` (None for no gate), once the kind is
    known and takes ``scale`` (a kind that never reads ``o`` takes ``none``)."""
    if fusion not in FUSION_KINDS:
        raise ValidationError(f"fusion must be one of {FUSION_KINDS}, got {fusion!r}")
    variant, both = _FUSIONS[fusion]
    if variant is None and not both and scale.kind != "none":
        raise ValidationError(f"fusion kind {fusion!r} takes scale 'none', got {scale.kind!r}")
    return variant


@dataclass(frozen=True)
class Model:
    fusion_kind: str
    head: Affine
    gfa: Affine | None = None
    scale: ScaleMode = field(default_factory=ScaleMode)

    def __post_init__(self) -> None:
        if not isinstance(self.head, Affine):
            raise ValidationError(f"model head must be of type Affine, got "
                                  f"{type(self.head).__name__}")
        if not isinstance(self.gfa, (Affine, type(None))):
            raise ValidationError(f"model gfa must be None or of type Affine, got "
                                  f"{type(self.gfa).__name__}")
        if (_gate_variant(self.fusion_kind, self.scale) is None) != (self.gfa is None):
            raise ValidationError(f"fusion kind {self.fusion_kind!r} "
                                  f"{'needs' if self.gfa is None else 'takes no'} gfa params")


@dataclass(frozen=True)
class ModelSpec:
    """What to build before training: fusion kind, scaling, aggregation."""

    fusion: str = "gfa-b"
    scale: ScaleMode = field(default_factory=ScaleMode)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)

    def __post_init__(self) -> None:
        _gate_variant(self.fusion, self.scale)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, {"learning_rate": (0, None), "momentum": (0, None), "epochs": (1, None),
                            "batch_size": (1, None), "seed": (0, None)})  # numpy takes seeds >= 0
        if not self.momentum < 1:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")


def _exp_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shift of ``scores`` by each row's max, its exp, and each row sum."""
    shifted = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=-1, keepdims=True)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-probabilities ``s - logsumexp(s)`` over the last axis: entries <= 0
    whose exps sum to one, keeping their order where probabilities underflow to 0."""
    shifted, _, total = _exp_rows(scores)
    return np.subtract(shifted, np.log(total), out=shifted)


def _softmax_nll_mask(scores: np.ndarray, label) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``softmax_nll``'s probabilities and losses, and the label mask that picked them."""
    labels = np.asarray(label)
    if labels.shape != scores.shape[:-1]:
        raise ShapeError(f"labels have shape {labels.shape}, expected {scores.shape[:-1]}")
    shifted, e, total = _exp_rows(scores)
    # An out-of-range label matches no class, so its row picks nothing.
    mask = np.arange(scores.shape[-1]) == labels[..., None]
    picked = shifted[mask]
    if picked.size != labels.size:
        raise ValidationError(f"label {label} out of range for {scores.shape[-1]} classes")
    return e / total, np.log(total[..., 0]) - picked.reshape(labels.shape), mask


def softmax_nll(scores: np.ndarray, label) -> tuple[np.ndarray, np.ndarray]:
    """The softmax of ``scores`` and each row's loss ``logsumexp(s) - s[label]``, exact
    however far the label is below its row's maximum.  ``label`` is an int for one row
    or an int array, one label per row; the losses have the shape of the labels."""
    return _softmax_nll_mask(scores, label)[:2]


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
    variant, both = _FUSIONS[model.fusion_kind]
    o = o_agg if model.scale.kind == "none" else scale_object_feature(o_agg, v, model.scale)
    feature, gfa_cache = (np.concatenate([v, o], axis=-1) if both else v), None
    if variant is not None:
        feature, gfa_cache = gfa_forward(feature if variant == "a" else o, feature, model.gfa)
    scores = affine(feature, model.head)
    return scores, ModelCache(v=v, o=o_agg, feature=feature, gfa_cache=gfa_cache)


def model_backward(model: Model, cache: ModelCache, dscores: np.ndarray,
                   inputs: bool = True) -> dict[str, np.ndarray]:
    """Gradients for every parameter group, summed over rows, plus both
    inputs (``v`` and ``o``, left out when ``inputs`` is False), keyed by
    name."""
    variant, both = _FUSIONS[model.fusion_kind]
    gated = variant is not None  # the gate's backward reads the head's input gradient
    dfeat, dW_head, db_head = affine_vjp(cache.feature, model.head, dscores,
                                         inputs=inputs or gated)
    grads = {"head.W": dW_head, "head.b": db_head}
    if gated:
        dx, dfeat, grads["gfa.W"], grads["gfa.b"] = gfa_backward(cache.gfa_cache, model.gfa,
                                                                 dfeat, inputs=inputs)
    if not inputs:
        return grads
    if variant == "a":  # the gate read [v, o] as x too
        dfeat = dfeat + dx
    n = cache.v.shape[-1]  # [v, o] is split once, for concat and gfa-a alike
    dv, do = ((dfeat[..., :n], dfeat[..., n:]) if both
              else (dfeat, dx if gated else np.zeros_like(cache.o)))
    if model.scale.kind != "none":  # dv and do so far reach the scaled o
        do, dv_scale = scale_vjp(cache.o, cache.v, model.scale, do)
        dv = dv + dv_scale
    grads["v"], grads["o"] = dv, do
    return grads


def loss_and_grads(model: Model, v: np.ndarray, o_agg: np.ndarray, label,
                   inputs: bool = True) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the rows of ``v`` and ``o_agg`` and its
    gradients; ``label`` is an int for one row or an int array per row.
    ``inputs=False`` leaves out the ``v`` and ``o`` gradients, which
    training does not read."""
    scores, cache = forward_model(model, v, o_agg)
    dscores, nll, onehot = _softmax_nll_mask(scores, label)
    loss = float(np.add.reduce(nll.ravel()) / nll.size)
    dscores -= onehot  # the probabilities, in place
    dscores /= nll.size
    return loss, model_backward(model, cache, dscores, inputs=inputs)


def sgd_momentum_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
                      lr: float, momentum: float) -> None:
    """In place: velocity = momentum * velocity + grads, then
    params = params - lr * velocity."""
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise ShapeError(
            f"sgd step: shapes disagree, params {params.shape}, grads {grads.shape}, "
            f"velocity {velocity.shape}")
    velocity *= momentum
    velocity += grads
    params -= lr * velocity


def _param_shapes(fusion: str, dim_v: int, dim_o: int, classes: int) -> dict[str, tuple]:
    """The shape of each parameter group of a ``fusion`` model, keyed as in
    ``param_groups``."""
    variant, both = _FUSIONS[fusion]
    width = dim_v + dim_o if both else dim_v  # of the head's input, and of the gate's output
    gate = {} if variant is None else {
        "gfa.W": (width, dim_v + dim_o if variant == "a" else dim_o), "gfa.b": (width,)}
    return {**gate, "head.W": (classes, width), "head.b": (classes,)}


def init_model(fusion: str, dim_v: int, dim_o: int, classes: int,
               scale: ScaleMode | None = None,
               rng: np.random.Generator | None = None) -> Model:
    """Fresh model with the shapes of ``_param_shapes``: each W uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] and each b zero.  The groups are drawn
    in that table's order, gate (if any) before head, so the stream of random
    numbers is fixed per fusion kind.  ``scale`` defaults to ``none``.  A
    size that is not an integer of at least 1, or parameters too large to
    allocate, are a ``ValidationError`` naming the size or the sizes."""
    rng = rng if rng is not None else np.random.default_rng()
    scale = scale if scale is not None else ScaleMode()
    variant = _gate_variant(fusion, scale)
    for name, size in (("dim_v", dim_v), ("dim_o", dim_o), ("classes", classes)):
        if not is_integer(size):
            raise ValidationError(f"{name} must be an integer, got {size!r}")
        if size < 1:
            raise ValidationError(f"{name} must be >= 1, got {size}")
    p = {}
    try:
        for name, shape in _param_shapes(fusion, dim_v, dim_o, classes).items():
            if len(shape) == 2:  # a W, with fan-in shape[1]; math takes an int of any size
                bound = 1.0 / math.sqrt(shape[1])
                p[name] = rng.uniform(-bound, bound, size=shape)
            else:
                p[name] = np.zeros(shape)
    except (MemoryError, ValueError, OverflowError):  # numpy: cannot allocate / array is too big
        raise ValidationError(f"a {fusion} model of dims {dim_v}/{dim_o} and {classes} classes "
                              f"is too large to allocate") from None
    gfa = None if variant is None else Affine(p["gfa.W"], p["gfa.b"])
    return Model(fusion_kind=fusion, head=Affine(p["head.W"], p["head.b"]), gfa=gfa, scale=scale)


def param_groups(model: Model) -> dict[str, np.ndarray]:
    groups = {"head.W": model.head.W, "head.b": model.head.b}
    if model.gfa is not None:
        groups.update({"gfa.W": model.gfa.W, "gfa.b": model.gfa.b})
    return groups


def target_labels(bank: FeatureBank, target: str) -> tuple[np.ndarray, int]:
    """``bank``'s label column for ``target`` (-1 where a record has no
    label) and the size of that vocab."""
    if target not in TARGETS:
        raise ValidationError(f"target must be one of {TARGETS}, got {target!r}")
    column = TARGETS.index(target)
    return bank.labels[:, column], (bank.verb_vocab_size, bank.noun_vocab_size)[column]


def fit_labels(bank: FeatureBank, target: str, dims: tuple[int, int], classes: int,
               model: str) -> np.ndarray:
    """``bank``'s ``target`` labels, once its dims and vocab fit a model
    built for ``dims`` and ``classes``; ``model`` names it in an error."""
    labels, vocab = target_labels(bank, target)
    if (bank.dim_v, bank.dim_o) != dims:
        raise ValidationError(
            f"bank dims ({bank.dim_v}, {bank.dim_o}) do not match {model} {dims}")
    if vocab != classes:
        raise ValidationError(f"bank {target} vocab is {vocab}, {model} expects {classes}")
    return labels


def _require_labels(bank: FeatureBank, labels: np.ndarray, target: str) -> None:
    if (labels < 0).any():
        raise ValidationError(f"record {bank.ids[np.argmax(labels < 0)]!r} has no {target} label")


# bank -> {(aggregation, scale): its object block, read-only}, where scale
# ``none`` holds the aggregated block that every other scale is built from;
# an entry dies with its bank, whose blocks never change.
_OBJECT_BLOCKS = weakref.WeakKeyDictionary()


def bank_inputs(model: Model, bank: FeatureBank,
                aggregation: AggregationConfig) -> tuple[Model, np.ndarray, np.ndarray]:
    """The model inputs of ``bank`` for ``model``, as ``(core, V, O)`` with
    ``forward_model(core, V, O)`` bit for bit ``model``'s scores.  ``V`` is
    the clip block.  ``O`` is the object block aggregated by
    ``aggregation`` and passed through ``model``'s scale stage, or a
    zero-width block, with nothing aggregated, for a kind that never reads
    ``o``.  ``O`` is built on the first call for its bank, aggregation and
    scale, made read-only, and handed back on every later call while the
    bank lives; every scale starts from the one aggregated block.  ``core``
    is ``model`` with scale ``none``; it holds the same weight arrays, so an
    update to one is an update to the other."""
    variant, both = _FUSIONS[model.fusion_kind]
    if variant is None and not both:
        return model, bank.clip, np.empty((len(bank.ids), 0))
    blocks = _OBJECT_BLOCKS.setdefault(bank, {})
    raw, key = (aggregation, ScaleMode()), (aggregation, model.scale)
    if raw not in blocks:
        blocks[raw] = bank_features(bank, aggregation)[1]
        blocks[raw].flags.writeable = False
    if key not in blocks:
        blocks[key] = scale_object_feature(blocks[raw], bank.clip, model.scale)
        blocks[key].flags.writeable = False
    return replace(model, scale=ScaleMode()), bank.clip, blocks[key]


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
    labels, classes = target_labels(bank, target)
    _require_labels(bank, labels, target)
    if val_bank is not None:
        val_labels = fit_labels(val_bank, target, (bank.dim_v, bank.dim_o), classes,
                                "training bank")
        _require_labels(val_bank, val_labels, target)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(spec.fusion, bank.dim_v, bank.dim_o, classes,
                       scale=spec.scale, rng=rng)
    core, V, O = bank_inputs(model, bank, spec.aggregation)
    val_data = (None if val_bank is None
                else (*bank_inputs(model, val_bank, spec.aggregation)[1:], val_labels))
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
            loss, grads = loss_and_grads(core, V[idx], O[idx], labels[idx], inputs=False)
            squares = 0.0
            with np.errstate(over="ignore"):  # an overflow reads as divergence below
                for name in params:
                    g = grads[name]
                    squares += float(np.add.reduce(g * g, axis=None))
            gnorm = math.sqrt(squares)
            if not (np.isfinite(loss) and np.isfinite(gnorm)):
                raise ValidationError(
                    f"training diverged at epoch {epoch}, batch {batch}: loss {loss}, "
                    f"gradient norm {gnorm}")
            batch_losses.append(loss)
            batch_gnorms.append(gnorm)
            for name, arr in params.items():
                sgd_momentum_step(arr, grads[name], velocity[name], cfg.learning_rate,
                                  cfg.momentum)
        entry = {
            "epoch": epoch,
            "mean_loss": float(np.mean(batch_losses)),
            "mean_grad_norm": float(np.mean(batch_gnorms)),
        }
        if val_data is not None:
            Vv, Ov, val_labels = val_data
            entry["val_top1"] = float(topk_report(forward_model(core, Vv, Ov)[0],
                                                  val_labels)["top1"])
        history.append(entry)
    return model, history


# The stencil's offsets, in multiples of the step: f(h), f(-h), f(2h), f(-2h).
_STENCIL = np.array([1.0, -1.0, 2.0, -2.0])


def _affine_rows(z: np.ndarray, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The output ``z = W x + b`` of an affine layer with one parameter moved
    by t, as the rows ``z + t x_j e_i`` for ``W[i, j]`` and ``z + t e_i`` for
    ``b[i]``.  Axis 0 runs over the offsets t, axis 1 over i and axis 2 over
    j, with ``b`` as the last j."""
    tx = offsets[:, None] * np.append(x, 1.0)  # b[i] multiplies an input of 1
    return z + tx[:, None, :, None] * np.eye(z.size)[:, None, :]


def grad_check(model: Model, v: np.ndarray, o_agg: np.ndarray, label: int,
               step: float = 5e-3) -> tuple[float, dict[str, float], bool]:
    """Compare the analytic end-to-end gradient of one segment's loss
    against finite differences, for every parameter group and both inputs.
    Both read training's exact loss, ``softmax_nll`` of the head's scores,
    so a label whose probability underflows is still checked.

    The numeric gradient is the 5-point stencil
    ``(8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h`` (Fornberg, Math. Comp.
    1988), whose truncation error is O(h^4).  Every perturbed loss is one
    row of a block through the production forward pass: a moved ``v`` or
    ``o`` entry is an input row of ``forward_model``; a moved gate or head
    parameter is a row at that affine layer's output, which then runs
    through the gate's tail (for the gate) and the head.  The differences
    are taken first, so a loss that no entry moves reads exactly zero.

    Returns (max relative error, per-group max relative error, empty), with
    the relative error denominator max(|analytic|, |numeric|, 1e-8).  An
    entry whose analytic or numeric value is not finite has relative error
    inf.  The check is empty, and its errors compare nothing, when every
    analytic and numeric entry is below that 1e-8 floor.
    A step whose stencil leaves float range, or row blocks too large to
    allocate, are a ``ValidationError`` naming the step or the sizes.
    """
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step}")
    if not math.isfinite(12.0 * step):  # the largest number the stencil forms from h
        raise ValidationError(f"step {step} is too large: the stencil's 12 * step is not finite")
    v = np.asarray(v, dtype=np.float64)
    o_agg = np.asarray(o_agg, dtype=np.float64)
    if v.ndim != 1 or o_agg.ndim != 1:
        raise ShapeError(f"grad_check takes one segment, got v {v.shape} and o {o_agg.shape}")
    _, analytic = loss_and_grads(model, v, o_agg, label)
    scores, cache = forward_model(model, v, o_agg)
    offsets = step * _STENCIL

    def losses(rows: np.ndarray) -> np.ndarray:
        """The loss of each row of head scores."""
        return softmax_nll(rows, np.full(rows.shape[:-1], label))[1]

    def stencil(f: np.ndarray) -> np.ndarray:  # differences first: an exact zero stays exact
        return (8.0 * (f[0] - f[1]) - (f[2] - f[3])) / (12.0 * step)

    inputs = np.concatenate([v, o_agg])
    try:
        moved = inputs + offsets[:, None, None] * np.eye(inputs.size)  # rows x + t e_j
        d_inputs = stencil(losses(forward_model(model, moved[..., :v.size],
                                                moved[..., v.size:])[0]))
        d_head = stencil(losses(_affine_rows(scores, cache.feature, offsets)))
        numeric = {"head.W": d_head[:, :-1], "head.b": d_head[:, -1]}
        if model.gfa is not None:
            x, y = cache.gfa_cache.x, cache.gfa_cache.y
            z = _affine_rows(affine(x, model.gfa), x, offsets)
            fused, _ = _gate_tail(z, np.broadcast_to(y, z.shape))
            d_gate = stencil(losses(affine(fused, model.head)))
            numeric.update({"gfa.W": d_gate[:, :-1], "gfa.b": d_gate[:, -1]})
    except MemoryError:
        raise ValidationError(
            f"grad_check: the perturbed rows of dims {v.size}/{o_agg.size} and {scores.size} "
            f"classes are too large to allocate") from None
    numeric.update({"v": d_inputs[:v.size], "o": d_inputs[v.size:]})

    per_group: dict[str, float] = {}
    empty = True
    for name, num in numeric.items():
        a = analytic[name]
        magnitude = np.maximum(np.abs(a), np.abs(num))
        empty = empty and bool(np.all(magnitude < 1e-8))  # a non-finite entry is not below
        with np.errstate(invalid="ignore"):
            err = np.abs(a - num) / np.maximum(magnitude, 1e-8)
        # a non-finite entry reads inf, never agreement
        per_group[name] = float(np.max(np.where(np.isfinite(a) & np.isfinite(num), err, np.inf)))
    return max(per_group.values()), per_group, empty


# --- checkpoints ----------------------------------------------------------------

_CHECKPOINT_FORMAT = "gatedfusion-checkpoint-v2"


@dataclass(frozen=True)
class Checkpoint:
    """A trained model plus everything needed to evaluate it consistently.
    Building one checks its contract: a ``Model`` (whose ``Affine`` layers
    check themselves when built), an ``AggregationConfig`` and a ``TrainConfig``,
    a target in ``TARGETS``, integer dims and class count of at least 1, and
    every parameter group finite and shaped as its fusion kind says.  The
    checkpoint, its model, head and gate are frozen and every weight array
    is made read-only, without a copy, so a checkpoint saves and loads back
    as built.  ``dataclasses.replace`` builds a changed one."""

    model: Model
    target: str
    dim_v: int
    dim_o: int
    classes: int
    aggregation: AggregationConfig
    train_config: TrainConfig

    def __post_init__(self) -> None:
        for name, cls in (("model", Model), ("aggregation", AggregationConfig),
                          ("train_config", TrainConfig)):
            val = getattr(self, name)
            if not isinstance(val, cls):
                raise ValidationError(f"checkpoint {name} must be of type {cls.__name__}, got "
                                      f"{type(val).__name__}")
        check_fields(self, {"target": TARGETS, "dim_v": (1, None), "dim_o": (1, None),
                            "classes": (1, None)})
        fusion = self.model.fusion_kind
        shapes = _param_shapes(fusion, self.dim_v, self.dim_o, self.classes)
        for name, arr in param_groups(self.model).items():
            if arr.shape != shapes[name]:
                raise ValidationError(f"{name} has shape {arr.shape}, expected {shapes[name]} "
                                      f"for fusion {fusion!r}, dims {self.dim_v}/{self.dim_o}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} has non-finite entries")
        for arr in param_groups(self.model).values():
            arr.flags.writeable = False


def _layer_obj(layer: Affine) -> dict:
    W = layer.W
    return {"W": {"rows": W.shape[0], "cols": W.shape[1], "data": W.ravel().tolist()},
            "b": layer.b.tolist()}


def _numbers(data, name: str) -> np.ndarray:
    """``data``, a JSON array of ints and floats (no str, bool or null), as float64."""
    if not (isinstance(data, list) and set(map(type, data)) <= {int, float}):
        raise ValidationError(f"checkpoint weights must be arrays of numbers: {name}")
    return np.array(data, dtype=np.float64)


def _layer_from_obj(obj: dict, name: str) -> Affine:
    """The layer ``name`` (``head`` or ``gfa``) as ``_layer_obj`` wrote it;
    a fault names the layer."""
    matrix = obj["W"]
    try:
        rows, cols, data = matrix["rows"], matrix["cols"], matrix["data"]
    except (KeyError, TypeError):
        raise ValidationError(f"checkpoint: {name}.W must declare rows, cols, data") from None
    if not (is_integer(rows) and is_integer(cols) and min(rows, cols) >= 0):
        raise ValidationError(f"checkpoint: {name}.W rows and cols must be integers >= 0")
    W = _numbers(data, f"{name}.W data")
    if W.size != rows * cols:
        raise ValidationError(
            f"checkpoint: {name}.W declares {rows}x{cols} but carries {W.size} values")
    b = _numbers(obj["b"], f"{name}.b")
    try:
        return Affine(W.reshape(rows, cols), b)
    except ShapeError as exc:  # W's rows and b's length disagree
        raise ValidationError(f"{name}: {exc}") from None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as JSON; a ``Checkpoint`` holds the contract
    ``load_checkpoint`` checks, so every file this writes loads back."""
    g = ckpt.model.gfa
    obj = {
        "format": _CHECKPOINT_FORMAT,
        "fusion_kind": ckpt.model.fusion_kind,
        "scale": asdict(ckpt.model.scale),
        "target": ckpt.target,
        "dim_v": ckpt.dim_v,
        "dim_o": ckpt.dim_o,
        "classes": ckpt.classes,
        "aggregation": asdict(ckpt.aggregation),
        "train_config": asdict(ckpt.train_config),
        "head": _layer_obj(ckpt.model.head),
        "gfa": None if g is None else {"variant": _FUSIONS[ckpt.model.fusion_kind][0],
                                       **_layer_obj(g)},
    }
    write_json(obj, path)


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint, which is checked as it is built; every fault is a
    ``ValidationError`` naming ``path``."""
    obj = read_json(path, _CHECKPOINT_FORMAT)
    try:
        for name, cls in (("scale", ScaleMode), ("aggregation", AggregationConfig),
                          ("train_config", TrainConfig)):  # the fields save_checkpoint writes
            keys = [f.name for f in fields(cls)]
            if obj[name].keys() != set(keys):  # not an object: AttributeError
                raise ValidationError(f"checkpoint {name} must hold exactly the keys {keys}")
            obj[name] = cls(**obj[name])
        g = obj["gfa"]
        gfa = None if g is None else _layer_from_obj(g, "gfa")
        model = Model(fusion_kind=obj["fusion_kind"], head=_layer_from_obj(obj["head"], "head"),
                      gfa=gfa, scale=obj["scale"])
        want = _FUSIONS[model.fusion_kind][0]
        if g is not None and g.get("variant") != want:
            raise ValidationError(f"fusion kind {model.fusion_kind!r} needs gfa variant "
                                  f"{want!r}, got {g.get('variant')!r}")
        ckpt = Checkpoint(model=model, target=obj["target"], dim_v=obj["dim_v"],
                          dim_o=obj["dim_o"], classes=obj["classes"],
                          aggregation=obj["aggregation"], train_config=obj["train_config"])
    except (KeyError, TypeError, AttributeError):
        raise ValidationError(f"{path}: missing checkpoint fields") from None
    except (ValidationError, ShapeError) as exc:  # a value its own class or the contract rejects
        raise ValidationError(f"{path}: {exc}") from None
    except (ValueError, OverflowError):  # OverflowError: an int past float range
        raise ValidationError(f"{path}: checkpoint weights must be arrays of numbers") from None
    return ckpt
