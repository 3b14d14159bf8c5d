"""Gated feature aggregation for two-modality action recognition.

A clip feature and an aggregated object feature are fused by a sigmoid
self-gate (two variants: gate the concatenation, or gate the clip feature
from the object feature), trained with SGD-momentum linear heads, and
scored as verb/noun/action with a co-occurrence prior.  Everything runs in
plain float64 numpy with exact hand-written gradients, so the whole stack
is finite-difference checkable and bitwise reproducible from a seed.
"""

__version__ = "0.1.0"

from . import bank, gfa, scoring, tensor, training
from .errors import ShapeError, ValidationError
# Each module's __all__ is its public surface; the package's is their union.
from .tensor import *
from .gfa import *
from .bank import *
from .training import *
from .scoring import *

__all__ = ["ShapeError", "ValidationError", *tensor.__all__, *gfa.__all__, *bank.__all__,
           *training.__all__, *scoring.__all__]
