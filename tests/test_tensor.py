import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatedfusion.errors import ShapeError
from gatedfusion import tensor
from gatedfusion.gfa import Affine

from conftest import central_diff, rel_err

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_vectors = st.lists(finite_floats, min_size=1, max_size=16).map(
    lambda xs: np.array(xs, dtype=np.float64))


class TestAffine:
    def test_identity(self):
        out = tensor.affine(np.array([1.0, 2.0]), Affine(np.eye(2), np.zeros(2)))
        assert np.array_equal(out, [1.0, 2.0])

    def test_hand_matrix(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = tensor.affine(np.array([1.0, 1.0]), Affine(W, np.array([1.0, 0.0])))
        assert np.array_equal(out, [4.0, 7.0])

    def test_shape_error_names_dims(self):
        with pytest.raises(ShapeError, match="input dim 2.*dim 3"):
            tensor.affine(np.zeros(3), Affine(np.eye(2), np.zeros(2)))

    def test_rows_of_a_block(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        X = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, -1.0]])
        out = tensor.affine(X, Affine(W, np.array([1.0, 0.0])))
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
        # beyond |x| ~ 36 float64 rounds the result onto the boundary
        out = tensor.sigmoid(x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_the_range_is_closed_where_float64_rounds_onto_it(self):
        below, at_one, above, at_zero = tensor.sigmoid(np.array([36.7, 36.8, -745.0, -746.0]))
        assert below < 1.0 and at_one == 1.0
        assert above == 5e-324 and at_zero == 0.0

    @pytest.mark.parametrize("x", [
        np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, -746.0]),
        np.array([5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310]),
        np.random.default_rng(7).normal(scale=20.0, size=(9, 13)),
        np.random.default_rng(8).normal(scale=1e3, size=(3, 4, 5)),
    ], ids=["signed-zeros-infs-tails", "subnormals", "block", "wide-block"])
    def test_bits_are_the_two_exp_formula(self, x):
        expected = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))
        assert tensor.sigmoid(x).tobytes() == expected.tobytes()

    def test_a_scalar_is_taken(self):
        assert tensor.sigmoid(0.0) == 0.5 and tensor.sigmoid(np.float64(-746.0)) == 0.0

    def test_returns_a_new_array_and_leaves_x_unchanged(self):
        x = np.array([[-3.0, 0.0, 2.5], [40.0, -746.0, 1e-310]])
        before = x.copy()
        out = tensor.sigmoid(x)
        assert out is not x and not np.shares_memory(out, x)
        assert x.tobytes() == before.tobytes()

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

    @given(st.sampled_from([(0,), (3, 0), (7,), (5, 3), (4, 14, 6)]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_bits_are_the_last_axis_reduction(self, shape, keepdims, seed):
        # mantissas in [-1, 1) times 10^e for e in [-300, 300]
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 301, shape)
        out = tensor.l2_norm(x, keepdims=keepdims)
        expected = np.hypot.reduce(x, axis=-1, keepdims=keepdims)
        assert type(out) is type(expected) and np.shape(out) == np.shape(expected)
        assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()

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
        _, dW, _ = tensor.affine_vjp(x, Affine(W, b), u)
        fd = central_diff(lambda Wp: float(u @ tensor.affine(x, Affine(Wp, b))), W)
        assert rel_err(dW, fd) < 1e-6

    def test_affine_vector_is_outer_product(self):
        dz, x = np.array([1.0, -2.0]), np.array([3.0, 0.5, 4.0])
        _, dW, db = tensor.affine_vjp(x, Affine(np.zeros((2, 3)), np.zeros(2)), dz)
        assert np.array_equal(dW, np.outer(dz, x))
        assert np.array_equal(db, dz)

    def test_affine_block_sums_rows_and_matches_fd(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, (5, 4))
        W, b = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, 3)
        U = rng.uniform(-2, 2, (5, 3))
        _, dW, db = tensor.affine_vjp(X, Affine(W, b), U)
        assert rel_err(dW, central_diff(
            lambda Wp: float(np.sum(U * tensor.affine(X, Affine(Wp, b)))), W)) < 1e-6
        assert rel_err(db, central_diff(
            lambda bp: float(np.sum(U * tensor.affine(X, Affine(W, bp)))), b)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.affine_vjp(np.zeros((4, 2)), Affine(np.eye(2), np.zeros(2)), np.zeros((3, 2)))


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

        grads = op_vjp(inputs[0], Affine(*inputs[1:]), upstream)
        for pos, analytic in enumerate(grads):
            def f(xp, pos=pos):  # x, W or b moved; W and b through the layer
                args = list(inputs)
                args[pos] = xp
                return float(np.sum(upstream * fwd(args[0], Affine(*args[1:]))))
            assert rel_err(analytic, central_diff(f, inputs[pos])) < 1e-5
