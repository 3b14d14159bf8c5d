"""Minimal dense float64 kernel shared by the fusion layers and the heads.

Everything is a plain ``numpy`` array in 64-bit floats.  Every function
works on the last axis, so one vector ``(d,)`` and a row block ``(B, d)``
take the same code path.  The op set is deliberately small: only the ops
that hide something, a shape check, a stable formula or a row-sum.  The
VJP returns the input gradient in the layout of the input and the
parameter gradients summed over rows.  All functions are pure; inputs are
never mutated and results are freshly allocated.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = ["affine", "sigmoid", "l2_norm", "affine_vjp"]


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ W.T + b``: ``W @ x + b`` for every row of ``x``."""
    if W.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine: W must be 2-D and b 1-D, got {W.ndim}-D and {b.ndim}-D")
    if W.shape[1] != x.shape[-1]:
        raise ShapeError(
            f"affine: W expects input dim {W.shape[1]}, got x of dim {x.shape[-1]}")
    if W.shape[0] != b.shape[0]:
        raise ShapeError(
            f"affine: W produces dim {W.shape[0]}, but b has dim {b.shape[0]}")
    return x @ W.T + b


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function as ``exp(min(x, 0)) / (1 + exp(-|x|))``:
    no exponent is positive, so neither tail overflows.  Output is strictly
    inside (0, 1) for finite input."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def l2_norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis.  ``hypot`` accumulates without
    squaring, so it cannot overflow or underflow and homogeneity holds across
    the whole float64 range; an empty vector has norm 0."""
    return np.hypot.reduce(x, axis=-1, keepdims=keepdims)


def affine_vjp(x: np.ndarray, W: np.ndarray, b: np.ndarray, upstream: np.ndarray,
               inputs: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of :func:`affine` w.r.t. ``(x, W, b)`` for the
    gradient ``upstream`` of its output; with ``inputs=False`` the ``x``
    gradient is not computed and is None."""
    if upstream.shape[-1] != b.shape[0] or upstream.shape[:-1] != x.shape[:-1]:
        raise ShapeError(
            f"affine_vjp: upstream shape {upstream.shape}, expected "
            f"{x.shape[:-1] + b.shape}")
    u2, x2 = np.atleast_2d(upstream), np.atleast_2d(x)
    return upstream @ W if inputs else None, u2.T @ x2, u2.sum(axis=0)

