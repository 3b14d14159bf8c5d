"""Minimal dense float64 kernel shared by the fusion layers and the heads.

Everything is a plain ``numpy`` array in 64-bit floats.  Every function
works on the last axis, so one vector ``(d,)`` and a row block ``(B, d)``
take the same code path.  The op set is deliberately small: only the ops
that hide something, a shape check, a stable formula or a row-sum.  The
affine map and its VJP take a ``gfa.Affine`` layer, which checks its own
shapes when it is built (``gfa`` imports this module, so the layer is not
imported here); the VJP returns the input gradient in the layout of the
input and the parameter gradients summed over rows.  All functions are
pure; inputs are never mutated and results are freshly allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["affine", "sigmoid", "l2_norm", "affine_vjp"]


def affine(x: np.ndarray, layer) -> np.ndarray:
    """``x @ W.T + b``: ``W @ x + b`` for every row of ``x``, with ``W`` and
    ``b`` those of the ``gfa.Affine`` ``layer``."""
    if layer.W.shape[1] != x.shape[-1]:
        raise ShapeError(
            f"affine: W expects input dim {layer.W.shape[1]}, got x of dim {x.shape[-1]}")
    return x @ layer.W.T + layer.b


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function as ``exp(min(x, 0)) / (1 + exp(-|x|))``:
    no exponent is positive, so neither tail overflows.  The steps run in
    place in two buffers of ``x``'s shape, a 0-d one too.  Output is in
    [0, 1], and strictly inside (0, 1) only for |x| below about 36:
    float64 rounds ``sigmoid(36.8)`` to exactly 1 and ``sigmoid(-746)`` to
    exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    out /= den
    return out


def l2_norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis.  ``hypot`` accumulates without
    squaring, so it cannot overflow or underflow and homogeneity holds across
    the whole float64 range; an empty vector has norm 0.  The reduction runs
    over the first axis of a transposed contiguous copy, where numpy steps
    through whole rows at once; each norm still takes its entries in order,
    so the result is bit for bit ``np.hypot.reduce(x, axis=-1)``."""
    norm = np.hypot.reduce(np.ascontiguousarray(np.transpose(x)), axis=0).T
    return norm[..., None] if keepdims else norm


def affine_vjp(x: np.ndarray, layer, upstream: np.ndarray,
               inputs: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of :func:`affine` w.r.t. ``(x, W, b)`` for the
    gradient ``upstream`` of its output; with ``inputs=False`` the ``x``
    gradient is not computed and is None."""
    expected = x.shape[:-1] + layer.b.shape
    if upstream.shape != expected:
        raise ShapeError(f"affine_vjp: upstream shape {upstream.shape}, expected {expected}")
    u2, x2 = np.atleast_2d(upstream), np.atleast_2d(x)
    return upstream @ layer.W if inputs else None, u2.T @ x2, u2.sum(axis=0)

