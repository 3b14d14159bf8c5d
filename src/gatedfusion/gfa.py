"""Object-feature scaling, the fusing gate, and ``Affine``, every layer's type.

Two fixed-length features arrive per segment: a clip feature ``v`` from the
video branch and an aggregated object feature ``o`` from the detection
branch.  The two banks can carry wildly different amplitudes, so ``o`` may
first be rescaled, once, by ``scale_object_feature``:

* ``none``       -- use ``o`` as is.
* ``scalar``     -- divide by a fixed positive constant ``s``.
* ``norm``       -- rescale ``o`` to the amplitude of ``v``:
                    ``o / max(|o|, 1e-8) * |v|``.
* ``norm-scalar`` -- ``norm`` followed by division by ``s``.

``scale_vjp`` differentiates the scaling w.r.t. both ``o`` and ``v``: under
``norm`` the amplitude of ``v`` feeds the scaled object feature, and that
path is differentiated too, not dropped.

The gate runs on the operands ``x`` and ``y`` its caller passes:

    F = sigmoid(W x + b) * y

Its ``W`` and ``b`` are an ``Affine`` layer, as a head's are.  The paper's
two variants are two choices of operands, made by the caller: variant A
self-gates the concatenation, ``x = y = [v, o]``; variant B gates the clip
feature from the object feature, ``x = o`` and ``y = v``.  ``gfa_backward``,
the VJP of ``gfa_forward``, gives exact gradients for both operands (unless
``inputs=False``) and both parameters; a caller that passes one array as
both operands adds the two.

Because the gate is strictly inside (0, 1), no output coordinate can exceed
the corresponding coordinate of ``y`` in magnitude.  That bound does not
keep training stable by itself: a saturated gate is inside (0, 1) too, and
passes an input of any amplitude through.  On the synthetic banks, matching
the amplitudes is what removes the gradient blow-up (see the README).

Every function works on the last axis: one segment's vectors, such as
``v`` of shape ``(dim_v,)``, and a block of B segments, ``(B, dim_v)``,
take the same code.  Outputs and input gradients keep the row layout of
their inputs; the gate's ``W`` and ``b`` gradients are summed over rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError, check_fields
from .tensor import affine, affine_vjp, l2_norm, sigmoid

__all__ = [
    "SCALE_KINDS",
    "ScaleMode",
    "Affine",
    "GfaCache",
    "scale_object_feature",
    "scale_vjp",
    "gfa_forward",
    "gfa_backward",
    "gate_tail",
]

SCALE_KINDS = ("none", "scalar", "norm", "norm-scalar")
_DIVISOR_KINDS = ("scalar", "norm-scalar")  # kinds that take a divisor; the rest carry s = 1.0
# The least divisor whose reciprocal, which scale_vjp takes, is finite: 5.56268464626801e-309
_LEAST_DIVISOR = math.nextafter(1 / sys.float_info.max, 1)
# The floor on |o| under norm scaling: a zero object feature degrades
# continuously to zero instead of blowing up.
_EPSILON = 1e-8


@dataclass(frozen=True)
class ScaleMode:
    """How to rescale the object feature before fusion; ``s`` is the scalar
    divisor of ``scalar`` and ``norm-scalar``.  Any kind checks the divisor it
    is given, a finite real number of at least ``_LEAST_DIVISOR``, but the
    other kinds never divide, so they then carry ``s = 1.0``: a recorded
    mode holds the divisor that took effect."""

    kind: str = "none"
    s: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, {"kind": SCALE_KINDS, "s": (_LEAST_DIVISOR, None)})
        if self.kind not in _DIVISOR_KINDS:
            object.__setattr__(self, "s", 1.0)  # frozen: set as the dataclass init does


@dataclass(frozen=True)
class Affine:
    """One affine layer ``W x + b``, the gate's or a head's: ``W`` and ``b``
    float64 arrays, W 2-D and b 1-D with one entry per row of W."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        for name in ("W", "b"):
            array = getattr(self, name)
            if not (isinstance(array, np.ndarray) and array.dtype == np.float64):
                raise ValidationError(f"{name} must be a float64 array")
        if self.W.ndim != 2 or self.b.ndim != 1:
            raise ShapeError("W must be 2-D and b 1-D")
        if self.W.shape[0] != self.b.shape[0]:
            raise ShapeError(f"W has {self.W.shape[0]} rows but b has dim {self.b.shape[0]}")


@dataclass
class GfaCache:
    """What a forward pass saves for the matching backward pass: the
    operands ``(x, y)`` of the gate and the gate itself."""

    x: np.ndarray
    y: np.ndarray
    gate: np.ndarray


def scale_object_feature(o: np.ndarray, v: np.ndarray, mode: ScaleMode) -> np.ndarray:
    """Rescale the object feature ``o`` according to ``mode`` (see module doc).
    Every kind divides by ``mode.s``, which is 1.0 for the kinds that take no
    divisor, and ``x / 1.0`` is ``x`` exactly."""
    if not mode.kind.startswith("norm"):
        return o / mode.s
    # norm / norm-scalar: bring |o| to |v|, with an epsilon floor on |o|.
    factor = l2_norm(v, keepdims=True) / np.maximum(l2_norm(o, keepdims=True), _EPSILON)
    return o * (factor / mode.s)


def scale_vjp(o: np.ndarray, v: np.ndarray, mode: ScaleMode,
              upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``scale_object_feature`` w.r.t. ``o`` and ``v``."""
    if upstream.shape != o.shape:
        raise ShapeError(
            f"scale_vjp: upstream shape {upstream.shape}, expected {o.shape}")
    if not mode.kind.startswith("norm"):
        return upstream / mode.s, np.zeros_like(v)

    inv_s = 1.0 / mode.s
    no = l2_norm(o, keepdims=True)
    nv = l2_norm(v, keepdims=True)
    m = np.maximum(no, _EPSILON)
    o_dot_u = np.sum(o * upstream, axis=-1, keepdims=True)

    # Above the epsilon floor m == |o|.  Below it the scaling is linear in o
    # and the normalization term vanishes.
    norm_term = np.where(no > _EPSILON, inv_s * nv * o_dot_u / (m * m * m), 0.0)
    do = (inv_s * nv / m) * upstream - norm_term * o
    # |v| = 0 means v = 0, so any finite coefficient gives the subgradient 0.
    dv = (inv_s * o_dot_u / (m * np.where(nv > 0.0, nv, 1.0))) * v
    return do, dv


def gate_tail(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gate after its affine map: ``sigmoid(z) * y`` and the gate
    ``sigmoid(z)``.  ``gfa_forward`` ends here with ``z = W x + b``.
    ``affine`` checks W's columns against ``x``; here W's rows, the width
    of ``z``, must match the width of ``y`` (a ``ShapeError``)."""
    if z.shape[-1] != y.shape[-1]:
        raise ShapeError(
            f"gfa gate: W produces dim {z.shape[-1]}, but the gated input has dim {y.shape[-1]}")
    gate = sigmoid(z)
    return gate * y, gate


def gfa_forward(x: np.ndarray, y: np.ndarray,
                p: Affine) -> tuple[np.ndarray, GfaCache]:
    """The gate ``sigmoid(W x + b) * y`` on the operands ``x`` and ``y``,
    which must have the same leading shape."""
    if x.shape[:-1] != y.shape[:-1]:
        raise ShapeError(
            f"gfa gate: x has leading shape {x.shape[:-1]}, y has {y.shape[:-1]}")
    fused, gate = gate_tail(affine(x, p.W, p.b), y)
    return fused, GfaCache(x=x, y=y, gate=gate)


def gfa_backward(cache: GfaCache, p: Affine, dF: np.ndarray, inputs: bool = True
                 ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of the gated output w.r.t. ``(x, y, W, b)``.

    ``cache`` must come from the forward pass that used ``p``.  Input
    gradients have the shapes of ``x`` and ``y``; the ``W`` and ``b``
    gradients are summed over rows.  With ``inputs=False`` only the ``W``
    and ``b`` gradients are computed and the input gradients are None.
    """
    gate = cache.gate
    if dF.shape != gate.shape:
        raise ShapeError(
            f"gfa_backward: dF has shape {dF.shape}, expected {gate.shape}")
    dx, dW, db = affine_vjp(cache.x, p.W, p.b, dF * cache.y * gate * (1.0 - gate),
                            inputs=inputs)
    return dx, (dF * gate if inputs else None), dW, db
