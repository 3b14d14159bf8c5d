import numpy as np
import pytest

from gatedfusion import tensor
from gatedfusion.errors import ShapeError, ValidationError
from gatedfusion.gfa import (GfaParams, ScaleMode, estimate_scalar_divisor,
                             gfa_a_forward, gfa_b_forward, gfa_backward,
                             init_gfa_params, scale_object_feature, scale_vjp)

from conftest import central_diff, rel_err


class TestScaleMode:
    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            ScaleMode(kind="log")

    def test_nonpositive_divisor(self):
        with pytest.raises(ValidationError):
            ScaleMode(kind="scalar", s=0.0)

    def test_nonpositive_epsilon(self):
        with pytest.raises(ValidationError):
            ScaleMode(kind="norm", epsilon=-1.0)

    @pytest.mark.parametrize("s", [1e-320, 5e-309])
    def test_divisor_without_finite_reciprocal_rejected(self, s):
        with pytest.raises(ValidationError, match="with a finite reciprocal"):
            ScaleMode(kind="scalar", s=s)
        assert ScaleMode(kind="scalar", s=6e-309).s == 6e-309

    @pytest.mark.parametrize("field", ["s", "epsilon"])
    @pytest.mark.parametrize("value", [float("inf"), 10**400], ids=["inf", "int-past-float"])
    def test_value_past_float_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            ScaleMode(kind="norm-scalar", **{field: value})


class TestScaleObjectFeature:
    def test_norm_to_amplitude_hand_case(self):
        o = np.array([3.0, 4.0])
        v = np.array([10.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode.norm())
        assert np.allclose(out, [6.0, 8.0], rtol=1e-12)

    def test_scalar_one_is_bitwise_identity(self):
        o = np.array([0.1, -0.0, 7e-300, -3.25])
        out = scale_object_feature(o, np.ones(2), ScaleMode.scalar(1.0))
        assert out.tobytes() == o.tobytes()

    def test_zero_vector_under_norm(self):
        out = scale_object_feature(np.zeros(2), np.array([5.0, 1.0]),
                                   ScaleMode.norm())
        assert np.array_equal(out, np.zeros(2))

    def test_none_returns_copy(self):
        o = np.array([1.0, 2.0])
        out = scale_object_feature(o, np.ones(1), ScaleMode.none())
        assert np.array_equal(out, o) and out is not o

    def test_norm_scalar_composition(self):
        o = np.array([3.0, 4.0])
        v = np.array([10.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode.norm_scalar(2.0))
        assert np.allclose(out, [3.0, 4.0], rtol=1e-12)

    def test_amplitude_and_direction_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(1, 17))
            o = rng.uniform(-2, 2, dim)
            if tensor.l2_norm(o) < 1e-6:
                o = o + 1.0
            v = rng.uniform(-2, 2, int(rng.integers(1, 17)))
            out = scale_object_feature(o, v, ScaleMode.norm())
            nv, no, nout = tensor.l2_norm(v), tensor.l2_norm(o), tensor.l2_norm(out)
            assert abs(nout - nv) <= 1e-9 * max(nv, 1e-300)
            if nout > 0:
                cos = float(np.dot(o, out)) / (no * nout)
                assert abs(cos - 1.0) <= 1e-12

    def test_epsilon_branch_degrades_continuously(self):
        eps = 1e-8
        o = np.array([1e-10, 0.0])
        v = np.array([2.0, 0.0, 0.0])
        out = scale_object_feature(o, v, ScaleMode.norm(epsilon=eps))
        assert np.allclose(out, o * (2.0 / eps), rtol=1e-12)


class TestGfaAForward:
    def test_zero_params_gate_half(self):
        v, o = np.array([1.0, -2.0]), np.array([4.0])
        p = GfaParams(variant="a", W=np.zeros((3, 3)), b=np.zeros(3))
        F, cache = gfa_a_forward(v, o, p)
        assert np.array_equal(F, 0.5 * np.concatenate([v, o]))

    def test_saturated_gate_with_norm_scaling(self):
        v, o = np.array([1.0, 0.0]), np.array([3.0, 4.0])
        p = GfaParams(variant="a", W=np.zeros((4, 4)), b=50.0 * np.ones(4),
                      scale=ScaleMode.norm())
        F, _ = gfa_a_forward(v, o, p)
        assert np.allclose(F, [1.0, 0.0, 0.6, 0.8], rtol=1e-9)

    def test_matches_step_by_step_recomputation(self):
        rng = np.random.default_rng(11)
        v, o = rng.normal(size=5), rng.normal(size=3)
        p = init_gfa_params(5, 3, "a", ScaleMode.scalar(2.0), rng)
        F, cache = gfa_a_forward(v, o, p)
        scaled = scale_object_feature(o, v, p.scale)
        c = np.concatenate([v, scaled])
        expected = tensor.sigmoid(c @ p.W.T + p.b) * c
        assert np.array_equal(F, expected)
        assert F.shape == (8,)

    def test_gate_bounds_output(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v, o = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 3)
            p = init_gfa_params(4, 3, "a", ScaleMode.none(), rng)
            F, cache = gfa_a_forward(v, o, p)
            assert np.all(cache.gate > 0) and np.all(cache.gate < 1)
            assert np.all(np.abs(F) <= np.abs(cache.concat_in))

    def test_shape_error(self):
        p = GfaParams(variant="a", W=np.zeros((4, 4)), b=np.zeros(4))
        with pytest.raises(ShapeError):
            gfa_a_forward(np.zeros(2), np.zeros(3), p)

    def test_variant_mismatch(self):
        p = GfaParams(variant="b", W=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            gfa_a_forward(np.zeros(2), np.zeros(3), p)


class TestGfaBForward:
    def test_zero_params_halves_clip(self):
        p = GfaParams(variant="b", W=np.zeros((2, 1)), b=np.zeros(2))
        F, _ = gfa_b_forward(np.array([2.0, 4.0]), np.array([9.0]), p)
        assert np.array_equal(F, [1.0, 2.0])

    def test_saturated_open_gate_passes_clip(self):
        p = GfaParams(variant="b", W=np.zeros((3, 2)), b=50.0 * np.ones(3))
        v = np.array([1.0, -2.0, 0.5])
        F, _ = gfa_b_forward(v, np.array([1.0, 1.0]), p)
        assert np.allclose(F, v, rtol=1e-9)

    def test_identity_weight_closed_form(self):
        p = GfaParams(variant="b", W=np.eye(2), b=np.zeros(2))
        F, _ = gfa_b_forward(np.array([1.0, 1.0]), np.array([0.0, np.log(3.0)]), p)
        assert np.allclose(F, [0.5, 0.75], rtol=1e-12)

    def test_output_dim_is_dim_v(self):
        rng = np.random.default_rng(13)
        p = init_gfa_params(6, 4, "b", rng=rng)
        F, cache = gfa_b_forward(rng.normal(size=6), rng.normal(size=4), p)
        assert F.shape == (6,)
        assert np.all(np.abs(F) <= np.abs(cache.v))

    def test_object_feature_is_not_scaled(self):
        # the gate sees o as-is regardless of the configured scale mode
        rng = np.random.default_rng(14)
        W = rng.normal(size=(3, 2))
        v, o = rng.normal(size=3), rng.normal(size=2)
        plain = GfaParams(variant="b", W=W, b=np.zeros(3))
        scaled = GfaParams(variant="b", W=W, b=np.zeros(3), scale=ScaleMode.scalar(100.0))
        assert np.array_equal(gfa_b_forward(v, o, plain)[0],
                              gfa_b_forward(v, o, scaled)[0])

    def test_shape_errors(self):
        p = GfaParams(variant="b", W=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ShapeError):
            gfa_b_forward(np.zeros(2), np.zeros(4), p)
        with pytest.raises(ShapeError):
            gfa_b_forward(np.zeros(3), np.zeros(3), p)


def _vjp_oracle_check(variant, scale, dim_v, dim_o, seed, tol):
    """Check all four gradients of u . F against the test-side FD oracle."""
    rng = np.random.default_rng(seed)
    p = init_gfa_params(dim_v, dim_o, variant, scale, rng)
    v = rng.uniform(-2, 2, dim_v)
    o = rng.uniform(-2, 2, dim_o)
    while tensor.l2_norm(o) <= 0.1:
        o = rng.uniform(-2, 2, dim_o)
    out_dim = dim_v + dim_o if variant == "a" else dim_v
    u = rng.normal(size=out_dim)

    _, cache = (gfa_a_forward if variant == "a" else gfa_b_forward)(v, o, p)
    dv, do, dW, db = gfa_backward(cache, p, u)

    def phi(vv, oo, WW, bb):
        pp = GfaParams(variant=variant, W=WW, b=bb, scale=scale)
        fwd = gfa_a_forward if variant == "a" else gfa_b_forward
        return float(u @ fwd(vv, oo, pp)[0])

    checks = [
        (dv, central_diff(lambda x: phi(x, o, p.W, p.b), v)),
        (do, central_diff(lambda x: phi(v, x, p.W, p.b), o)),
        (dW, central_diff(lambda x: phi(v, o, x, p.b), p.W)),
        (db, central_diff(lambda x: phi(v, o, p.W, x), p.b)),
    ]
    for analytic, numeric in checks:
        assert rel_err(analytic, numeric) < tol


class TestGfaBackward:
    def test_constant_gate_passthrough(self):
        p = GfaParams(variant="b", W=np.zeros((2, 1)), b=np.zeros(2))
        _, cache = gfa_b_forward(np.array([2.0, 4.0]), np.array([1.0]), p)
        dF = np.array([1.0, -3.0])
        dv, do, dW, db = gfa_backward(cache, p, dF)
        assert np.array_equal(dv, 0.5 * dF)

    def test_variant_a_scalar_divide_matches_fd(self):
        _vjp_oracle_check("a", ScaleMode.scalar(2.0), 4, 3, seed=21, tol=1e-5)

    def test_variant_a_norm_matches_fd(self):
        for seed in (31, 32, 33):
            _vjp_oracle_check("a", ScaleMode.norm(), 5, 4, seed=seed, tol=1e-4)

    def test_variant_a_norm_scalar_matches_fd(self):
        _vjp_oracle_check("a", ScaleMode.norm_scalar(3.0), 4, 3, seed=41, tol=1e-4)

    def test_variant_b_matches_fd(self):
        for seed in (51, 52):
            _vjp_oracle_check("b", ScaleMode.none(), 4, 3, seed=seed, tol=1e-5)

    def test_cache_params_mismatch(self):
        p_b = GfaParams(variant="b", W=np.zeros((2, 1)), b=np.zeros(2))
        _, cache = gfa_b_forward(np.zeros(2), np.zeros(1), p_b)
        p_a = GfaParams(variant="a", W=np.zeros((3, 3)), b=np.zeros(3))
        with pytest.raises(ValidationError):
            gfa_backward(cache, p_a, np.zeros(3))

    def test_upstream_shape_mismatch(self):
        p = GfaParams(variant="b", W=np.zeros((2, 1)), b=np.zeros(2))
        _, cache = gfa_b_forward(np.zeros(2), np.zeros(1), p)
        with pytest.raises(ShapeError):
            gfa_backward(cache, p, np.zeros(5))


class TestScaleVjp:
    def test_deep_epsilon_branch_is_linear(self):
        # far below the floor the scaling is o * |v| / eps, linear in o
        eps = 1e-8
        mode = ScaleMode.norm(epsilon=eps)
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
        for mode in (ScaleMode.none(), ScaleMode.scalar(4.0)):
            do, dv = scale_vjp(o, v, mode, up)
            assert np.array_equal(dv, np.zeros(3))


class TestInitAndCalibration:
    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        pa = init_gfa_params(3, 2, "a", rng=rng)
        assert pa.W.shape == (5, 5) and pa.b.shape == (5,)
        assert np.all(np.abs(pa.W) <= 1.0 / np.sqrt(5))
        assert np.array_equal(pa.b, np.zeros(5))
        pb = init_gfa_params(3, 2, "b", rng=rng)
        assert pb.W.shape == (3, 2)
        assert np.all(np.abs(pb.W) <= 1.0 / np.sqrt(2))

    def test_params_invariant_violations(self):
        with pytest.raises(ShapeError):
            GfaParams(variant="a", W=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            GfaParams(variant="c", W=np.zeros((2, 2)), b=np.zeros(2))

    def test_estimate_scalar_divisor(self):
        clips = [np.array([1.0, 0.0]), np.array([0.0, 3.0])]
        objs = [np.array([20.0]), np.array([-20.0])]
        assert estimate_scalar_divisor(clips, objs) == pytest.approx(10.0)

    def test_estimate_rejects_degenerate_batches(self):
        with pytest.raises(ValidationError):
            estimate_scalar_divisor([], [])
        with pytest.raises(ValidationError):
            estimate_scalar_divisor([np.zeros(2)], [np.ones(2)])
