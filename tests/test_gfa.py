import math
import re
import sys

import numpy as np
import pytest

import gatedfusion
from gatedfusion import gfa, tensor
from gatedfusion.errors import ShapeError, ValidationError
from gatedfusion.bank import (AggregationConfig, Detection, FeatureBank, SegmentRecord,
                              bank_features, bank_stats)
from gatedfusion.gfa import (Affine, ScaleMode, gfa_backward, gfa_forward,
                             scale_object_feature, scale_vjp)
from gatedfusion.training import (Checkpoint, Model, TrainConfig, forward_model,
                                  init_model)

from conftest import central_diff, rel_err


class TestScaleMode:
    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            ScaleMode(kind="log")

    def test_nonpositive_divisor(self):
        with pytest.raises(ValidationError):
            ScaleMode(kind="scalar", s=0.0)

    @pytest.mark.parametrize("s", [1e-320, 5e-309])
    def test_divisor_without_finite_reciprocal_rejected(self, s):
        message = f"s must be >= 5.56268464626801e-309, got {s}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScaleMode(kind="scalar", s=s)
        assert ScaleMode(kind="scalar", s=6e-309).s == 6e-309

    @pytest.mark.parametrize("field", ["s"])
    @pytest.mark.parametrize("value", [float("inf"), 10**400], ids=["inf", "int-past-float"])
    def test_value_past_float_range_rejected(self, field, value):
        message = f"{field} must be a finite real number, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScaleMode(kind="norm-scalar", **{field: value})


    @pytest.mark.parametrize("kind", ["none", "norm"])
    def test_kind_that_does_not_divide_carries_divisor_one(self, kind):
        assert ScaleMode(kind=kind, s=2.0).s == 1.0
        assert ScaleMode(kind=kind, s=2.0) == ScaleMode(kind=kind)
        with pytest.raises(ValidationError,
                           match=r"^s must be >= 5\.56268464626801e-309, got 0\.0$"):
            ScaleMode(kind=kind, s=0.0)  # checked all the same

    @pytest.mark.parametrize("s", [True, False, "2", None, [2.0]])
    def test_divisor_that_is_not_a_real_number_rejected(self, s):
        message = f"s must be a finite real number, got {s!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScaleMode(kind="scalar", s=s)

    @pytest.mark.parametrize("s,message", [
        (math.nextafter(5.56268464626801e-309, 0), "s must be >= 5.56268464626801e-309, got "
         f"{math.nextafter(5.56268464626801e-309, 0)}"),
        (0, "s must be >= 5.56268464626801e-309, got 0"),
        (-1, "s must be >= 5.56268464626801e-309, got -1"),
        (0.0, "s must be >= 5.56268464626801e-309, got 0.0"),
        (True, "s must be a finite real number, got True"),
        ("2", "s must be a finite real number, got '2'"),
        (None, "s must be a finite real number, got None"),
        (np.float32(2), f"s must be a finite real number, got {np.float32(2)!r}"),
    ], ids=["predecessor", "zero", "minus-one", "zero-float", "bool", "str", "none", "float32"])
    def test_the_least_divisor_with_a_finite_reciprocal_is_the_bound(self, s, message):
        least = math.nextafter(1 / sys.float_info.max, 1)
        assert least == 5.56268464626801e-309
        assert math.isfinite(1 / least) and 1 / math.nextafter(least, 0) == math.inf
        assert ScaleMode("scalar", s=least).s == least
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScaleMode("scalar", s=s)


class TestScaleObjectFeature:
    def test_norm_to_amplitude_hand_case(self):
        o = np.array([3.0, 4.0])
        v = np.array([10.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode("norm"))
        assert np.allclose(out, [6.0, 8.0], rtol=1e-12)

    def test_scalar_one_is_bitwise_identity(self):
        o = np.array([0.1, -0.0, 7e-300, -3.25])
        out = scale_object_feature(o, np.ones(2), ScaleMode("scalar", s=1.0))
        assert out.tobytes() == o.tobytes()

    def test_zero_vector_under_norm(self):
        out = scale_object_feature(np.zeros(2), np.array([5.0, 1.0]),
                                   ScaleMode("norm"))
        assert np.array_equal(out, np.zeros(2))

    def test_none_returns_copy(self):
        o = np.array([1.0, 2.0])
        out = scale_object_feature(o, np.ones(1), ScaleMode())
        assert np.array_equal(out, o) and out is not o

    def test_norm_scalar_composition(self):
        o = np.array([3.0, 4.0])
        v = np.array([10.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode("norm-scalar", s=2.0))
        assert np.allclose(out, [3.0, 4.0], rtol=1e-12)

    def test_amplitude_and_direction_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(1, 17))
            o = rng.uniform(-2, 2, dim)
            if tensor.l2_norm(o) < 1e-6:
                o = o + 1.0
            v = rng.uniform(-2, 2, int(rng.integers(1, 17)))
            out = scale_object_feature(o, v, ScaleMode("norm"))
            nv, no, nout = tensor.l2_norm(v), tensor.l2_norm(o), tensor.l2_norm(out)
            assert abs(nout - nv) <= 1e-9 * max(nv, 1e-300)
            if nout > 0:
                cos = float(np.dot(o, out)) / (no * nout)
                assert abs(cos - 1.0) <= 1e-12

    def test_epsilon_branch_degrades_continuously(self):
        # |o| = 1e-10 is under the fixed floor of 1e-8, which divides instead
        o = np.array([1e-10, 0.0])
        v = np.array([2.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode("norm"))
        assert np.allclose(out, o * (2.0 / 1e-8), rtol=1e-12)


def _gated(fusion, W, b, v, o, scale=ScaleMode()):
    """The gated feature of a ``fusion`` model with gate weights ``W`` and
    ``b``, from its ``forward_model`` on ``v`` and ``o``."""
    head = Affine(W=np.zeros((1, W.shape[0])), b=np.zeros(1))
    model = Model(fusion_kind=fusion, head=head, gfa=Affine(W=W, b=b), scale=scale)
    return forward_model(model, v, o)[1].feature


class TestGfaAForward:
    def test_zero_params_gate_half(self):
        v, o = np.array([1.0, -2.0]), np.array([4.0])
        F = _gated("gfa-a", np.zeros((3, 3)), np.zeros(3), v, o)
        assert np.array_equal(F, 0.5 * np.concatenate([v, o]))

    def test_saturated_gate_with_norm_scaling(self):
        v, o = np.array([1.0, 0.0]), np.array([3.0, 4.0])
        F = _gated("gfa-a", np.zeros((4, 4)), 50.0 * np.ones(4), v, o, ScaleMode("norm"))
        assert np.allclose(F, [1.0, 0.0, 0.6, 0.8], rtol=1e-9)

    def test_matches_step_by_step_recomputation(self):
        rng = np.random.default_rng(11)
        v, o = rng.normal(size=5), rng.normal(size=3)
        model = init_model("gfa-a", 5, 3, 1, rng=rng)
        F = forward_model(model, v, o)[1].feature
        c, p = np.concatenate([v, o]), model.gfa
        expected = tensor.sigmoid(c @ p.W.T + p.b) * c
        assert np.array_equal(F, expected)
        assert F.shape == (8,)

    def test_gate_bounds_output(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v, o = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 3)
            model = init_model("gfa-a", 4, 3, 1, ScaleMode(), rng)
            cache = forward_model(model, v, o)[1]
            gate = cache.gfa_cache.gate
            assert np.all(gate > 0) and np.all(gate < 1)
            assert np.all(np.abs(cache.feature) <= np.abs(np.concatenate([v, o])))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            _gated("gfa-a", np.zeros((4, 4)), np.zeros(4), np.zeros(2), np.zeros(3))


class TestGfaBForward:
    def test_zero_params_halves_clip(self):
        F = _gated("gfa-b", np.zeros((2, 1)), np.zeros(2), np.array([2.0, 4.0]), np.array([9.0]))
        assert np.array_equal(F, [1.0, 2.0])

    def test_saturated_open_gate_passes_clip(self):
        v = np.array([1.0, -2.0, 0.5])
        F = _gated("gfa-b", np.zeros((3, 2)), 50.0 * np.ones(3), v, np.array([1.0, 1.0]))
        assert np.allclose(F, v, rtol=1e-9)

    def test_identity_weight_closed_form(self):
        F = _gated("gfa-b", np.eye(2), np.zeros(2), np.array([1.0, 1.0]),
                   np.array([0.0, np.log(3.0)]))
        assert np.allclose(F, [0.5, 0.75], rtol=1e-12)

    def test_output_dim_is_dim_v(self):
        rng = np.random.default_rng(13)
        model = init_model("gfa-b", 6, 4, 1, rng=rng)
        v = rng.normal(size=6)
        F = forward_model(model, v, rng.normal(size=4))[1].feature
        assert F.shape == (6,)
        assert np.all(np.abs(F) <= np.abs(v))

    def test_shape_errors(self):
        W, b = np.zeros((2, 3)), np.zeros(2)
        with pytest.raises(ShapeError):
            _gated("gfa-b", W, b, np.zeros(2), np.zeros(4))
        with pytest.raises(ShapeError):
            _gated("gfa-b", W, b, np.zeros(3), np.zeros(3))


class TestGfaForward:
    def test_leading_rows_must_match(self):
        p = Affine(W=np.zeros((3, 2)), b=np.zeros(3))
        with pytest.raises(ShapeError, match=r"^gfa gate: x has leading shape \(4,\), "
                                             r"y has \(3,\)$"):
            gfa_forward(np.zeros((4, 2)), np.zeros((3, 3)), p)

    def test_gates_the_operands_it_is_given(self):
        # x and y have different widths: W maps x's 1 to y's 2
        p = Affine(W=np.array([[1.0], [-1.0]]), b=np.zeros(2))
        F, cache = gfa_forward(np.array([np.log(3.0)]), np.array([4.0, 4.0]), p)
        assert np.allclose(F, [3.0, 1.0], rtol=1e-12)
        assert np.allclose(cache.gate, [0.75, 0.25], rtol=1e-12)


def _vjp_oracle_check(x, y, p, u, tol):
    """Check all four gradients of ``u . gfa_forward(x, y, p)`` against the
    test-side FD oracle, and return the analytic ``dx`` and ``dy``."""
    _, cache = gfa_forward(x, y, p)
    dx, dy, dW, db = gfa_backward(cache, p, u)

    def phi(xx, yy, WW, bb):
        return float(u @ gfa_forward(xx, yy, Affine(W=WW, b=bb))[0])

    checks = [
        (dx, central_diff(lambda t: phi(t, y, p.W, p.b), x)),
        (dy, central_diff(lambda t: phi(x, t, p.W, p.b), y)),
        (dW, central_diff(lambda t: phi(x, y, t, p.b), p.W)),
        (db, central_diff(lambda t: phi(x, y, p.W, t), p.b)),
    ]
    for analytic, numeric in checks:
        assert rel_err(analytic, numeric) < tol
    return dx, dy


def _gate_inputs(fusion, dim_v, dim_o, seed):
    """A ``fusion`` model's gate params, ``v``, ``o`` and an upstream ``u``."""
    rng = np.random.default_rng(seed)
    p = init_model(fusion, dim_v, dim_o, 1, rng=rng).gfa
    v = rng.uniform(-2, 2, dim_v)
    o = rng.uniform(-2, 2, dim_o)
    while tensor.l2_norm(o) <= 0.1:
        o = rng.uniform(-2, 2, dim_o)
    return p, v, o, rng.normal(size=p.W.shape[0])


class TestGfaBackward:
    def test_constant_gate_passthrough(self):
        p = Affine(W=np.zeros((2, 1)), b=np.zeros(2))
        _, cache = gfa_forward(np.array([1.0]), np.array([2.0, 4.0]), p)
        dF = np.array([1.0, -3.0])
        dx, dy, dW, db = gfa_backward(cache, p, dF)
        assert np.array_equal(dy, 0.5 * dF)

    # The scaling's VJP is checked through whole models, in test_training.
    def test_variant_a_matches_fd(self):
        # one array, [v, o], is both operands: its gradient is dx + dy
        for seed in (31, 32, 33):
            p, v, o, u = _gate_inputs("gfa-a", 5, 4, seed)
            c = np.concatenate([v, o])
            dx, dy = _vjp_oracle_check(c, c, p, u, tol=1e-5)
            shared = central_diff(lambda t: float(u @ gfa_forward(t, t, p)[0]), c)
            assert rel_err(dx + dy, shared) < 1e-5

    def test_variant_b_matches_fd(self):
        for seed in (51, 52):
            p, v, o, u = _gate_inputs("gfa-b", 4, 3, seed)
            _vjp_oracle_check(o, v, p, u, tol=1e-5)

    def test_upstream_shape_mismatch(self):
        p = Affine(W=np.zeros((2, 1)), b=np.zeros(2))
        _, cache = gfa_forward(np.zeros(1), np.zeros(2), p)
        with pytest.raises(ShapeError):
            gfa_backward(cache, p, np.zeros(5))

    def test_the_gate_tail_is_private(self):
        # only the gradient oracle runs the gate from its affine output
        assert "gate_tail" not in gfa.__all__ and "gate_tail" not in gatedfusion.__all__
        assert not hasattr(gatedfusion, "gate_tail")


class TestScaleVjp:
    def test_deep_epsilon_branch_is_linear(self):
        # far below the fixed floor of 1e-8 the scaling is o * |v| / 1e-8, linear in o
        eps = 1e-8
        mode = ScaleMode("norm")
        o = np.array([1e-12, -2e-12])
        v = np.array([3.0, 4.0])
        up = np.array([1.0, 2.0])
        do, dv = scale_vjp(o, v, mode, up)
        assert np.allclose(do, up * (5.0 / eps), rtol=1e-12)
        fd = central_diff(
            lambda x: float(up @ scale_object_feature(o, x, mode)), v, step=1e-6)
        assert rel_err(dv, fd) < 1e-4

    def test_none_and_scalar_have_no_v_path(self):
        o, v, up = np.ones(2), np.ones(3), np.array([1.0, 2.0])
        for mode in (ScaleMode(), ScaleMode("scalar", s=4.0)):
            do, dv = scale_vjp(o, v, mode, up)
            assert np.array_equal(dv, np.zeros(3))

    def test_upstream_of_another_shape_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"^scale_vjp: upstream shape \(2, 4\), "
                                             r"expected \(2, 3\)$"):
            scale_vjp(np.ones((2, 3)), np.ones((2, 3)), ScaleMode("norm"), np.ones((2, 4)))


class TestInitAndCalibration:
    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        pa = init_model("gfa-a", 3, 2, 1, rng=rng).gfa
        assert pa.W.shape == (5, 5) and pa.b.shape == (5,)
        assert np.all(np.abs(pa.W) <= 1.0 / np.sqrt(5))
        assert np.array_equal(pa.b, np.zeros(5))
        pb = init_model("gfa-b", 3, 2, 1, rng=rng).gfa
        assert pb.W.shape == (3, 2)
        assert np.all(np.abs(pb.W) <= 1.0 / np.sqrt(2))

    def test_gfa_a_gate_that_is_not_square_is_refused(self):
        # The gate is checked against its kind's shapes, which Affine does not know
        head = Affine(W=np.zeros((1, 2)), b=np.zeros(1))
        model = Model(fusion_kind="gfa-a", head=head,
                      gfa=Affine(W=np.zeros((2, 3)), b=np.zeros(2)))
        message = "gfa.W has shape (2, 3), expected (2, 2) for fusion 'gfa-a', dims 1/1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Checkpoint(model=model, target="verb", dim_v=1, dim_o=1, classes=1,
                       aggregation=AggregationConfig(), train_config=TrainConfig())
        with pytest.raises(ShapeError):
            forward_model(model, np.zeros(1), np.zeros(1))

    @staticmethod
    def _stats(clips, objs):
        """bank_stats of a bank with one detection, at its clip's center, per record."""
        records = [SegmentRecord(segment_id=f"s{i}", clip_feature=np.array(c, dtype=float),
                                 clip_center_frame=0,
                                 detections=[Detection(0, 0.9, np.array(o, dtype=float))])
                   for i, (c, o) in enumerate(zip(clips, objs))]
        bank = FeatureBank.from_records(records, dim_v=len(clips[0]), dim_o=len(objs[0]),
                                        verb_vocab_size=1, noun_vocab_size=1)
        return bank, bank_stats(bank, AggregationConfig())

    def test_estimate_scalar_divisor(self):
        # the estimate is bank_stats' amplitude_ratio, mean |o| / mean |v|;
        # as the scalar divisor it brings the mean |o| to the mean |v|
        bank, stats = self._stats([[1.0, 0.0], [0.0, 3.0]], [[20.0], [-20.0]])
        assert stats["amplitude_ratio"] == pytest.approx(10.0)
        V, O = bank_features(bank, AggregationConfig())
        scaled = scale_object_feature(O, V, ScaleMode("scalar", s=stats["amplitude_ratio"]))
        assert np.mean(np.abs(scaled)) == pytest.approx(np.mean([1.0, 3.0]))

    def test_estimate_rejects_degenerate_batches(self):
        # all-zero clips give no estimate; all-zero objects give 0, no divisor
        assert self._stats([[0.0, 0.0]], [[1.0]])[1]["amplitude_ratio"] is None
        ratio = self._stats([[1.0, 0.0]], [[0.0]])[1]["amplitude_ratio"]
        assert ratio == 0.0
        with pytest.raises(ValidationError,
                           match=r"^s must be >= 5\.56268464626801e-309, got 0\.0$"):
            ScaleMode("scalar", s=ratio)
