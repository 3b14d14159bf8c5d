"""Gated feature aggregation for two-modality action recognition.

A clip feature and an aggregated object feature are fused by a sigmoid
self-gate (two variants: gate the concatenation, or gate the clip feature
from the object feature), trained with SGD-momentum linear heads, and
scored as verb/noun/action with a co-occurrence prior.  Everything runs in
plain float64 numpy with exact hand-written gradients, so the whole stack
is finite-difference checkable and bitwise reproducible from a seed.
"""

__version__ = "0.1.0"

from .errors import ShapeError, ValidationError
from .tensor import (affine, sigmoid, l2_norm, concat, split, hadamard,
                     affine_vjp, concat_vjp, hadamard_vjp)
from .gfa import (ScaleMode, GfaParams, GfaCache, scale_object_feature,
                  scale_vjp, gfa_a_forward, gfa_b_forward, gfa_forward,
                  gfa_backward, init_gfa_params, estimate_scalar_divisor)
from .bank import (Detection, SegmentRecord, FeatureBank, AggregationConfig,
                   SynthSpec, context_window, select_top_k, maxpool_features,
                   aggregate_object_feature, bank_features, load_feature_bank,
                   save_feature_bank, banks_equal, synth_generate, bank_stats)
from .training import (FUSION_KINDS, TARGETS, Head, Model, ModelSpec, TrainConfig,
                       Checkpoint, softmax, cross_entropy, forward_model,
                       model_backward, loss_and_grads, sgd_momentum_step,
                       init_model, train, grad_check, save_checkpoint,
                       load_checkpoint, target_labels, fit_labels)
from .scoring import (ActionPrior, ScoreTable, compute_prior, prior_from_pairs,
                      uniform_prior, prior_stats, reweight_actions, late_fuse,
                      topk_accuracy, score_actions_for_bank, action_index,
                      action_pair, save_prior, load_prior, save_score_table,
                      load_score_table)

__all__ = [name for name in dir() if not name.startswith("_")]
