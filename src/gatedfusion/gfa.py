"""Gated feature aggregation: amplitude scaling plus two gating variants.

Two fixed-length features arrive per segment: a clip feature ``v`` from the
video branch and an aggregated object feature ``o`` from the detection
branch.  The two banks can carry wildly different amplitudes, which makes
naive concatenation hard to train, so variant A first rescales ``o`` to
match ``v`` and then self-gates the concatenation:

    F = sigmoid(W [v, scale(o)] + b) * [v, scale(o)]

Variant B sidesteps concatenation entirely and gates the clip feature
elementwise by a sigmoid computed from the object feature alone:

    F = sigmoid(W o + b) * v

Because the gate is strictly inside (0, 1), no output coordinate can exceed
the corresponding input coordinate in magnitude, which is what keeps
training stable even when one modality misbehaves.

Scaling modes for variant A:

* ``none``       -- use ``o`` as is.
* ``scalar``     -- divide by a fixed positive constant ``s``.
* ``norm``       -- rescale ``o`` to the amplitude of ``v``:
                    ``o / max(|o|, eps) * |v|``.
* ``norm-scalar`` -- ``norm`` followed by division by ``s``.

Forward passes return a cache holding the intermediates the backward pass
needs; ``gfa_backward`` produces exact analytic gradients for both inputs
(unless ``inputs=False``) and both parameters, including the paths through
the scaling (under ``norm`` the amplitude of ``v`` feeds the scaled object
feature, and that path is differentiated too, not dropped).

Every function works on the last axis: ``v`` and ``o`` are either one
segment's vectors, shapes ``(dim_v,)`` and ``(dim_o,)``, or a block of B
segments, shapes ``(B, dim_v)`` and ``(B, dim_o)``, through the same code.
Outputs and input gradients keep the row layout of their inputs; the
gradients of the gate parameters ``W`` and ``b`` are summed over rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import (affine, affine_vjp, concat, concat_vjp, hadamard, hadamard_vjp,
                     l2_norm, sigmoid)

__all__ = [
    "SCALE_KINDS",
    "ScaleMode",
    "GfaParams",
    "GfaCache",
    "scale_object_feature",
    "scale_vjp",
    "gfa_a_forward",
    "gfa_b_forward",
    "gfa_forward",
    "gfa_backward",
    "init_gfa_params",
    "estimate_scalar_divisor",
]

SCALE_KINDS = ("none", "scalar", "norm", "norm-scalar")
_FLOAT_MAX = float(np.finfo(np.float64).max)  # a Python float: it compares exactly with any int


@dataclass(frozen=True)
class ScaleMode:
    """How to rescale the object feature before gating.

    ``s`` is the scalar divisor (used by ``scalar`` and ``norm-scalar``);
    ``epsilon`` guards the division by ``|o|`` so a zero object feature
    degrades continuously to zero instead of blowing up.
    """

    kind: str = "none"
    s: float = 1.0
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in SCALE_KINDS:
            raise ValidationError(
                f"scale kind {self.kind!r} not one of {SCALE_KINDS}")
        if not (0 < self.s <= _FLOAT_MAX and 1.0 / self.s <= _FLOAT_MAX):  # scale_vjp takes 1 / s
            raise ValidationError(
                f"scale divisor must be positive and finite, with a finite reciprocal, "
                f"got {self.s}")
        if not 0 < self.epsilon <= _FLOAT_MAX:
            raise ValidationError(f"scale epsilon must be positive and finite, got {self.epsilon}")

    @classmethod
    def none(cls) -> "ScaleMode":
        return cls("none")

    @classmethod
    def scalar(cls, s: float) -> "ScaleMode":
        return cls("scalar", s=s)

    @classmethod
    def norm(cls, epsilon: float = 1e-8) -> "ScaleMode":
        return cls("norm", epsilon=epsilon)

    @classmethod
    def norm_scalar(cls, s: float, epsilon: float = 1e-8) -> "ScaleMode":
        return cls("norm-scalar", s=s, epsilon=epsilon)


@dataclass
class GfaParams:
    """Gate parameters.  Variant ``a`` needs a square W over the concatenated
    dims and gates the concatenation; variant ``b`` maps the object feature
    to a gate over the clip feature, so W is (dim_v x dim_o).

    The scale mode only participates in variant ``a``; variant ``b`` consumes
    the object feature unscaled (its gate is bounded regardless of amplitude),
    so a ``Model`` rejects a variant ``b`` gate whose scale is not ``none``.
    """

    variant: str
    W: np.ndarray
    b: np.ndarray
    scale: ScaleMode = field(default_factory=ScaleMode.none)

    def __post_init__(self) -> None:
        if self.variant not in ("a", "b"):
            raise ValidationError(f"gfa variant must be 'a' or 'b', got {self.variant!r}")
        if self.W.ndim != 2 or self.b.ndim != 1:
            raise ShapeError("gfa params: W must be 2-D and b 1-D")
        if self.W.shape[0] != self.b.shape[0]:
            raise ShapeError(
                f"gfa params: W has {self.W.shape[0]} rows but b has dim {self.b.shape[0]}")
        if self.variant == "a" and self.W.shape[0] != self.W.shape[1]:
            raise ShapeError(
                f"gfa variant a: W must be square, got {self.W.shape[0]}x{self.W.shape[1]}")


@dataclass
class GfaCache:
    """Intermediates saved by a forward pass for the matching backward pass."""

    variant: str
    v: np.ndarray
    o: np.ndarray
    gate: np.ndarray
    scaled_o: np.ndarray | None = None
    concat_in: np.ndarray | None = None


def _check_rows(v: np.ndarray, o: np.ndarray, who: str) -> None:
    if v.shape[:-1] != o.shape[:-1]:
        raise ShapeError(
            f"{who}: v has leading shape {v.shape[:-1]}, o has {o.shape[:-1]}")


def scale_object_feature(o: np.ndarray, v: np.ndarray, mode: ScaleMode) -> np.ndarray:
    """Rescale the object feature ``o`` according to ``mode`` (see module doc)."""
    if mode.kind == "none":
        return o.copy()
    if mode.kind == "scalar":
        return o / mode.s
    # norm / norm-scalar: bring |o| to |v|, with an epsilon floor on |o|.
    factor = l2_norm(v, keepdims=True) / np.maximum(l2_norm(o, keepdims=True), mode.epsilon)
    if mode.kind == "norm-scalar":
        factor /= mode.s
    return o * factor


def scale_vjp(o: np.ndarray, v: np.ndarray, mode: ScaleMode,
              upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``scale_object_feature`` w.r.t. ``o`` and ``v``."""
    if upstream.shape != o.shape:
        raise ShapeError(
            f"scale_vjp: upstream shape {upstream.shape}, expected {o.shape}")
    if mode.kind == "none":
        return upstream.copy(), np.zeros_like(v)
    if mode.kind == "scalar":
        return upstream / mode.s, np.zeros_like(v)

    inv_s = 1.0 / mode.s if mode.kind == "norm-scalar" else 1.0
    no = l2_norm(o, keepdims=True)
    nv = l2_norm(v, keepdims=True)
    m = np.maximum(no, mode.epsilon)
    o_dot_u = np.sum(o * upstream, axis=-1, keepdims=True)

    # Above the epsilon floor m == |o|.  Below it the scaling is linear in o
    # and the normalization term vanishes.
    norm_term = np.where(no > mode.epsilon, inv_s * nv * o_dot_u / (m * m * m), 0.0)
    do = (inv_s * nv / m) * upstream - norm_term * o
    # |v| = 0 means v = 0, so any finite coefficient gives the subgradient 0.
    dv = (inv_s * o_dot_u / (m * np.where(nv > 0.0, nv, 1.0))) * v
    return do, dv


def gfa_a_forward(v: np.ndarray, o: np.ndarray,
                  p: GfaParams) -> tuple[np.ndarray, GfaCache]:
    """Variant A: gate the concatenation of ``v`` and the scaled ``o``."""
    if p.variant != "a":
        raise ValidationError(f"gfa_a_forward called with variant {p.variant!r} params")
    total = v.shape[-1] + o.shape[-1]
    if p.W.shape != (total, total):
        raise ShapeError(
            f"gfa variant a: W must be {total}x{total} for dim_v={v.shape[-1]}, "
            f"dim_o={o.shape[-1]}, got {p.W.shape[0]}x{p.W.shape[1]}")
    _check_rows(v, o, "gfa variant a")
    scaled = scale_object_feature(o, v, p.scale)
    c = concat(v, scaled)
    gate = sigmoid(affine(c, p.W, p.b))
    cache = GfaCache(variant="a", v=v, o=o, gate=gate, scaled_o=scaled, concat_in=c)
    return hadamard(gate, c), cache


def gfa_b_forward(v: np.ndarray, o: np.ndarray,
                  p: GfaParams) -> tuple[np.ndarray, GfaCache]:
    """Variant B: gate ``v`` elementwise by a sigmoid of an affine map of ``o``."""
    if p.variant != "b":
        raise ValidationError(f"gfa_b_forward called with variant {p.variant!r} params")
    if p.W.shape[1] != o.shape[-1]:
        raise ShapeError(
            f"gfa variant b: W expects dim_o {p.W.shape[1]}, got {o.shape[-1]}")
    if p.W.shape[0] != v.shape[-1]:
        raise ShapeError(
            f"gfa variant b: W produces dim {p.W.shape[0]}, but v has dim {v.shape[-1]}")
    _check_rows(v, o, "gfa variant b")
    gate = sigmoid(affine(o, p.W, p.b))
    return hadamard(gate, v), GfaCache(variant="b", v=v, o=o, gate=gate)


def gfa_forward(v: np.ndarray, o: np.ndarray,
                p: GfaParams) -> tuple[np.ndarray, GfaCache]:
    if p.variant == "a":
        return gfa_a_forward(v, o, p)
    return gfa_b_forward(v, o, p)


def gfa_backward(cache: GfaCache, p: GfaParams, dF: np.ndarray, inputs: bool = True
                 ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of the fused output w.r.t. ``(v, o, W, b)``.

    ``cache`` must come from the forward pass that used ``p``.  Gradients
    that reach a value through several paths (e.g. ``v`` through both the
    concatenation and, under ``norm`` scaling, the amplitude) are summed.
    Input gradients have the shapes of ``v`` and ``o``; the ``W`` and ``b``
    gradients are summed over rows.  With ``inputs=False`` only the ``W``
    and ``b`` gradients are computed and the input gradients are None.
    """
    if cache.variant != p.variant:
        raise ValidationError(
            f"gfa_backward: cache is variant {cache.variant!r}, params are {p.variant!r}")
    gate = cache.gate
    if dF.shape != gate.shape:
        raise ShapeError(
            f"gfa_backward: dF has shape {dF.shape}, expected {gate.shape}")

    if p.variant == "a":
        c = cache.concat_in
        dgate, dc = hadamard_vjp(gate, c, dF)
        dz = dgate * gate * (1.0 - gate)
        dc_gate, dW, db = affine_vjp(c, p.W, p.b, dz, inputs=inputs)
        if not inputs:
            return None, None, dW, db
        dv, dscaled = concat_vjp(cache.v, cache.scaled_o, dc + dc_gate)
        do, dv_scale = scale_vjp(cache.o, cache.v, p.scale, dscaled)
        return dv + dv_scale, do, dW, db

    dgate, dv = hadamard_vjp(gate, cache.v, dF)
    do, dW, db = affine_vjp(cache.o, p.W, p.b, dgate * gate * (1.0 - gate), inputs=inputs)
    return (dv if inputs else None), do, dW, db


def init_gfa_params(dim_v: int, dim_o: int, variant: str,
                    scale: ScaleMode | None = None,
                    rng: np.random.Generator | None = None) -> GfaParams:
    """Fresh parameters: W uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], b zero."""
    rng = rng if rng is not None else np.random.default_rng()
    scale = scale if scale is not None else ScaleMode.none()
    if variant == "a":
        n = dim_v + dim_o
        rows, cols = n, n
    elif variant == "b":
        rows, cols = dim_v, dim_o
    else:
        raise ValidationError(f"gfa variant must be 'a' or 'b', got {variant!r}")
    bound = 1.0 / np.sqrt(cols)
    W = rng.uniform(-bound, bound, size=(rows, cols))
    return GfaParams(variant=variant, W=W, b=np.zeros(rows), scale=scale)


def estimate_scalar_divisor(V: np.ndarray, O: np.ndarray) -> float:
    """The scalar divisor mean(|o|) / mean(|v|) over the rows of ``V`` and
    ``O``: dividing by it brings the object amplitudes near the clip ones."""
    if not len(V) or not len(O):
        raise ValidationError("estimate_scalar_divisor: empty calibration batch")
    mean_v = float(np.mean(l2_norm(V)))
    mean_o = float(np.mean(l2_norm(O)))
    if mean_v == 0.0:
        raise ValidationError("estimate_scalar_divisor: clip features all zero")
    if mean_o == 0.0:
        raise ValidationError("estimate_scalar_divisor: object features all zero")
    return mean_o / mean_v
