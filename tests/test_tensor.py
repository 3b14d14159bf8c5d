import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatedfusion.errors import ShapeError
from gatedfusion import tensor

from conftest import central_diff, rel_err

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_vectors = st.lists(finite_floats, min_size=1, max_size=16).map(
    lambda xs: np.array(xs, dtype=np.float64))


class TestAffine:
    def test_identity(self):
        out = tensor.affine(np.array([1.0, 2.0]), np.eye(2), np.zeros(2))
        assert np.array_equal(out, [1.0, 2.0])

    def test_hand_matrix(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = tensor.affine(np.array([1.0, 1.0]), W, np.array([1.0, 0.0]))
        assert np.array_equal(out, [4.0, 7.0])

    def test_shape_error_names_dims(self):
        with pytest.raises(ShapeError, match="input dim 2.*dim 3"):
            tensor.affine(np.zeros(3), np.eye(2), np.zeros(2))

    def test_bias_shape_error(self):
        with pytest.raises(ShapeError):
            tensor.affine(np.zeros(2), np.eye(2), np.zeros(3))

    def test_weight_that_is_not_2d_error(self):
        with pytest.raises(ShapeError,
                           match=r"^affine: W must be 2-D and b 1-D, got 1-D and 1-D$"):
            tensor.affine(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_rows_of_a_block(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        X = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, -1.0]])
        out = tensor.affine(X, W, np.array([1.0, 0.0]))
        assert np.array_equal(out, [[4.0, 7.0], [1.0, 0.0], [1.0, 2.0]])


class TestSigmoid:
    def test_zero_is_half(self):
        assert np.array_equal(tensor.sigmoid(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_positive_saturation(self):
        with np.errstate(over="raise"):
            out = tensor.sigmoid(np.array([1e6]))
        assert 1.0 - 1e-12 < out[0] <= 1.0

    def test_negative_saturation(self):
        with np.errstate(over="raise"):
            out = tensor.sigmoid(np.array([-1e6]))
        assert 0.0 <= out[0] < 1e-12

    def test_closed_form(self):
        out = tensor.sigmoid(np.array([np.log(3.0)]))
        assert out[0] == pytest.approx(0.75, rel=1e-14)

    @given(st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False),
                    min_size=1, max_size=16).map(np.array))
    def test_strict_range(self, x):
        # beyond |x| ~ 37 float64 rounds the result onto the boundary
        out = tensor.sigmoid(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                    min_size=1, max_size=16).map(np.array))
    def test_closed_range_everywhere(self, x):
        out = tensor.sigmoid(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.isfinite(out))

    @given(finite_floats, finite_floats)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        out = tensor.sigmoid(np.array([lo, hi]))
        assert out[0] <= out[1]


class TestL2Norm:
    def test_zero(self):
        assert tensor.l2_norm(np.zeros(3)) == 0.0

    def test_pythagorean(self):
        assert tensor.l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_symmetry(self):
        assert tensor.l2_norm(np.array([-1.0])) == 1.0

    @given(small_vectors, st.floats(min_value=-100, max_value=100,
                                    allow_nan=False))
    def test_homogeneity(self, x, alpha):
        lhs = tensor.l2_norm(alpha * x)
        rhs = abs(alpha) * tensor.l2_norm(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_no_overflow_or_underflow(self):
        with np.errstate(all="raise"):
            assert tensor.l2_norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
            assert tensor.l2_norm(np.array([3e-200, 4e-200])) == pytest.approx(5e-200, rel=1e-15)

    def test_rows_of_a_block(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [-5.0, 12.0]])
        assert np.array_equal(tensor.l2_norm(x), [5.0, 0.0, 13.0])
        assert tensor.l2_norm(x, keepdims=True).shape == (3, 1)


class TestVjp:
    def test_affine_weight_grad_matches_fd(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, 2)
        W = rng.uniform(-2, 2, (3, 2))
        b = rng.uniform(-2, 2, 3)
        u = rng.uniform(-2, 2, 3)
        _, dW, _ = tensor.affine_vjp(x, W, b, u)
        fd = central_diff(lambda Wp: float(u @ tensor.affine(x, Wp, b)), W)
        assert rel_err(dW, fd) < 1e-6

    def test_affine_vector_is_outer_product(self):
        dz, x = np.array([1.0, -2.0]), np.array([3.0, 0.5, 4.0])
        _, dW, db = tensor.affine_vjp(x, np.zeros((2, 3)), np.zeros(2), dz)
        assert np.array_equal(dW, np.outer(dz, x))
        assert np.array_equal(db, dz)

    def test_affine_block_sums_rows_and_matches_fd(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, (5, 4))
        W, b = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, 3)
        U = rng.uniform(-2, 2, (5, 3))
        _, dW, db = tensor.affine_vjp(X, W, b, U)
        assert rel_err(dW, central_diff(lambda Wp: float(np.sum(U * tensor.affine(X, Wp, b))), W)) < 1e-6
        assert rel_err(db, central_diff(lambda bp: float(np.sum(U * tensor.affine(X, W, bp))), b)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.affine_vjp(np.zeros((4, 2)), np.eye(2), np.zeros(2), np.zeros((3, 2)))


@pytest.mark.parametrize("op", ["affine"])
def test_all_vjps_match_central_differences(op):
    """Every differentiable input of every op, 20 seeded random trials on one
    vector or a block of rows, inputs in [-2, 2], dims <= 16, max relative
    error < 1e-5."""
    rng = np.random.default_rng(20240 + sum(map(ord, op)))
    fwd, op_vjp = getattr(tensor, op), getattr(tensor, op + "_vjp")
    for trial in range(20):
        lead = () if trial % 2 == 0 else (int(rng.integers(1, 5)),)
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        inputs = (rng.uniform(-2, 2, lead + (n,)), rng.uniform(-2, 2, (m, n)),
                  rng.uniform(-2, 2, m))
        out_dim = m
        upstream = rng.uniform(-2, 2, lead + (out_dim,))

        grads = op_vjp(*inputs, upstream)
        for pos, analytic in enumerate(grads):
            def f(xp, pos=pos):
                args = list(inputs)
                args[pos] = xp
                return float(np.sum(upstream * fwd(*args)))
            assert rel_err(analytic, central_diff(f, inputs[pos])) < 1e-5
