import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import layers
from baggedcnn.errors import DimensionError, NumericError
from conftest import max_rel_err, numeric_grad


def kernels(w, b):
    return layers.ConvKernelSet(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))


class TestConvForward:
    def test_identity_kernel(self):
        x = np.array([[[5.0]]])
        out = layers.conv2d_forward(x, kernels([[[[1.0]]]], [0.0]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 5.0

    def test_sum_of_nine_ones(self):
        x = np.ones((3, 3, 1))
        w = np.ones((3, 3, 1, 1))
        out = layers.conv2d_forward(x, kernels(w, [0.0]))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_fullsize_input_shape(self):
        x = np.zeros((224, 224, 3), dtype=np.float32)
        w = np.zeros((3, 3, 3, 32), dtype=np.float32)
        out = layers.conv2d_forward(x, kernels(w, np.zeros(32)))
        assert out.shape == (222, 222, 32)

    def test_output_shape_formula_exhaustive(self, rng):
        for h in range(1, 9):
            for w_ in range(1, 9):
                for kh in range(1, h + 1):
                    for kw in range(1, w_ + 1):
                        for stride in (1, 2, 3):
                            x = rng.normal(size=(h, w_, 1))
                            wt = rng.normal(size=(kh, kw, 1, 2))
                            out = layers.conv2d_forward(x, kernels(wt, np.zeros(2)), stride)
                            assert out.shape == (
                                (h - kh) // stride + 1,
                                (w_ - kw) // stride + 1,
                                2,
                            )

    def test_channel_mismatch_raises(self):
        x = np.zeros((4, 4, 2))
        w = np.zeros((3, 3, 3, 4))
        with pytest.raises(DimensionError, match="channel"):
            layers.conv2d_forward(x, kernels(w, np.zeros(4)))

    def test_kernel_too_large_raises(self):
        with pytest.raises(DimensionError, match="height|width"):
            layers.conv2d_forward(np.zeros((2, 2, 1)), kernels(np.zeros((3, 3, 1, 1)), [0.0]))


class TestConvBackward:
    def test_zero_upstream(self, rng):
        x = rng.normal(size=(5, 5, 2))
        ks = kernels(rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3))
        out, bwd = layers.conv2d_vjp(x, ks)
        dx, dw, db = bwd(np.zeros_like(out))
        assert not dx.any() and not dw.any() and not db.any()

    def test_scalar_chain_rule(self):
        x = np.array([[[5.0]]])
        out, bwd = layers.conv2d_vjp(x, kernels([[[[2.0]]]], [0.0]))
        dx, dw, db = bwd(np.array([[[1.0]]]))
        assert dw[0, 0, 0, 0] == 5.0
        assert dx[0, 0, 0] == 2.0
        assert db[0] == 1.0

    def test_finite_difference_oracle(self, rng):
        x = rng.normal(size=(6, 6, 2))
        w = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        out, bwd = layers.conv2d_vjp(x, kernels(w, b))
        up = rng.normal(size=out.shape)
        dx, dw, db = bwd(up)

        def loss():
            return float((layers.conv2d_forward(x, kernels(w, b)) * up).sum())

        assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-4
        assert max_rel_err(dw, numeric_grad(loss, w)) < 1e-4
        assert max_rel_err(db, numeric_grad(loss, b)) < 1e-4

    def test_upstream_shape_mismatch(self, rng):
        x = rng.normal(size=(5, 5, 1))
        _, bwd = layers.conv2d_vjp(x, kernels(rng.normal(size=(3, 3, 1, 2)), np.zeros(2)))
        with pytest.raises(DimensionError, match="upstream"):
            bwd(np.zeros((2, 2, 2)))


class TestMaxPool:
    def test_max_of_four(self):
        out = layers.maxpool2d_forward(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0

    def test_fullsize_odd_dimension(self):
        x = np.zeros((109, 109, 64), dtype=np.float32)
        assert layers.maxpool2d_forward(x).shape == (54, 54, 64)

    def test_constant_input(self):
        x = np.full((4, 4, 2), 3.5)
        assert np.all(layers.maxpool2d_forward(x) == 3.5)

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            layers.maxpool2d_forward(np.zeros((1, 4, 1)))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        _, bwd = layers.maxpool2d_vjp(x)
        dx = bwd(np.array([[[1.0]]]))
        assert dx[:, :, 0].tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_tie_breaks_first_row_major(self):
        x = np.ones((2, 2, 1))
        _, bwd = layers.maxpool2d_vjp(x)
        dx = bwd(np.array([[[1.0]]]))
        assert dx[0, 0, 0] == 1.0
        assert dx.sum() == 1.0

    def test_gradient_mass_conserved(self, rng):
        x = rng.normal(size=(3, 8, 6, 2))
        out, bwd = layers.maxpool2d_vjp(x)
        up = rng.normal(size=out.shape)
        dx = bwd(up)
        assert np.isclose(dx.sum(), up.sum())

    def test_finite_difference_away_from_ties(self, rng):
        x = rng.normal(size=(6, 6, 2))  # continuous values: ties have measure zero
        out, bwd = layers.maxpool2d_vjp(x)
        up = rng.normal(size=out.shape)
        dx = bwd(up)

        def loss():
            return float((layers.maxpool2d_forward(x) * up).sum())

        assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-4


class TestRelu:
    def test_sign_cases(self):
        assert layers.relu(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_subgradient_at_zero(self):
        _, bwd = layers.relu_vjp(np.array([-1.0, 0.0, 2.0]))
        assert bwd(np.ones(3)).tolist() == [0.0, 0.0, 1.0]

    def test_finite_difference_away_from_zero(self, rng):
        x = rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.1
        out, bwd = layers.relu_vjp(x)
        up = rng.normal(size=out.shape)
        dx = bwd(up)

        def loss():
            return float((layers.relu(x) * up).sum())

        assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-4


class TestDense:
    def test_identity_map(self):
        out = layers.dense_forward(np.array([1.0, 0.0]), np.eye(2), np.zeros(2))
        assert out.tolist() == [1.0, 0.0]

    def test_fullsize_dense_size(self):
        w = np.zeros((18432, 512), dtype=np.float32)
        assert w.size + 512 == 9437696

    def test_finite_difference_oracle(self, rng):
        x = rng.normal(size=8)
        w = rng.normal(size=(8, 4))
        b = rng.normal(size=4)
        out, bwd = layers.dense_vjp(x, w, b)
        up = rng.normal(size=4)
        dx, dw, db = bwd(up)

        def loss():
            return float((layers.dense_forward(x, w, b) * up).sum())

        assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-4
        assert max_rel_err(dw, numeric_grad(loss, w)) < 1e-4
        assert max_rel_err(db, numeric_grad(loss, b)) < 1e-4

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError, match="inner"):
            layers.dense_forward(np.zeros(3), np.zeros((4, 2)), np.zeros(2))


class TestSoftmax:
    def test_uniform_logits(self):
        out = layers.softmax(np.zeros(5))
        assert np.allclose(out, 0.2)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=7)
        a = layers.softmax(logits)
        b = layers.softmax(logits + 123.456)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_hand_value(self):
        out = layers.softmax(np.log(np.array([1.0, 3.0])))
        assert np.allclose(out, [0.25, 0.75])

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            layers.softmax(np.array([1.0, np.inf]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(-100, 100))
    def test_sum_and_shift_properties(self, logits, shift):
        logits = np.array(logits)
        out = layers.softmax(logits)
        assert abs(out.sum() - 1.0) < 1e-6
        assert np.all(out > 0)
        assert np.max(np.abs(out - layers.softmax(logits + shift))) < 1e-9


class TestFlatten:
    def test_fullsize_flatten_length(self):
        assert layers.flatten(np.zeros((12, 12, 128))).shape == (18432,)

    def test_singleton(self):
        assert layers.flatten(np.zeros((1, 1, 1))).shape == (1,)

    def test_inverse_pair(self, rng):
        x = rng.normal(size=(3, 4, 2))
        out, bwd = layers.flatten_vjp(x)
        assert np.array_equal(bwd(out), x)


# -- slow references for the fast pool and relu kernels ----------------------

def reference_maxpool_with_argmax(x):
    """Argmax max pooling, the slow reference for the strided kernel: (out, backward)."""
    xb = x[None] if x.ndim == 3 else x
    b, h, w, c = xb.shape
    h2, w2 = h // 2, w // 2
    win = xb[:, : 2 * h2, : 2 * w2, :].reshape(b, h2, 2, w2, 2, c)
    # window flattened row-major, so argmax ties break to the first position
    flat = win.transpose(0, 1, 3, 5, 2, 4).reshape(b, h2, w2, c, 4)
    idx = flat.argmax(axis=4)
    out = np.take_along_axis(flat, idx[..., None], axis=4)[..., 0]

    def backward(upstream):
        up = upstream[None] if x.ndim == 3 else upstream
        grad = np.zeros((b, h2, w2, c, 4), dtype=up.dtype)
        np.put_along_axis(grad, idx[..., None], up[..., None], axis=4)
        dx = np.zeros(xb.shape, dtype=up.dtype)
        dx[:, : 2 * h2, : 2 * w2, :] = (
            grad.reshape(b, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
            .reshape(b, 2 * h2, 2 * w2, c))
        return dx[0] if x.ndim == 3 else dx

    return (out[0] if x.ndim == 3 else out), backward


def reference_relu_backward(x, upstream):
    return np.where(x > 0, upstream, 0)


def tie_heavy(seed, shape, dtype, mode):
    """Values with many exact ties: post-ReLU zeros, a few rounded levels, or
    a handful of values that includes both signed zeros."""
    rng = np.random.default_rng(seed)
    if mode == "relu":
        x = np.maximum(rng.normal(size=shape), 0)
    elif mode == "levels":
        x = np.round(rng.normal(size=shape) * 1.5) / 2
    else:
        x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=shape)
    return x.astype(dtype)


# channel counts of 8 and up run numpy's vectorised inner loop, as the desk
# and paper nets' pools do; 1-3 channels run its short scalar loop
pool_channels = st.sampled_from([1, 2, 3, 8, 16, 32])
pool_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.one_of(st.tuples(st.integers(2, 7), st.integers(2, 7), pool_channels),
              st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(2, 7),
                        pool_channels)),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["relu", "levels", "signed_zeros"]),
)


class TestFastKernelsMatchReferences:
    @settings(max_examples=200, deadline=None)
    @given(pool_cases)
    def test_maxpool_forward_bytes_equal(self, case):
        x = tie_heavy(*case)
        ref, _ = reference_maxpool_with_argmax(x)
        for out in (layers.maxpool2d_forward(x), layers.maxpool2d_vjp(x)[0]):
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pool_cases)
    def test_maxpool_backward_equal(self, case):
        x = tie_heavy(*case)
        ref, ref_bwd = reference_maxpool_with_argmax(x)
        up = tie_heavy(case[0] + 1, ref.shape, x.dtype, "levels")
        _, bwd = layers.maxpool2d_vjp(x)
        dx = bwd(up)
        assert dx.dtype == x.dtype and dx.shape == x.shape
        assert np.array_equal(dx, ref_bwd(up))

    @settings(max_examples=200, deadline=None)
    @given(pool_cases)
    def test_relu_backward_equal(self, case):
        x = tie_heavy(*case)
        up = tie_heavy(case[0] + 1, x.shape, x.dtype, "levels")
        out, bwd = layers.relu_vjp(x)
        assert out.tobytes() == layers.relu(x).tobytes()
        dx = bwd(up)
        assert dx.dtype == x.dtype
        assert np.array_equal(dx, reference_relu_backward(x, up))

    @pytest.mark.parametrize("vjp,dtype", [(layers.maxpool2d_vjp, np.uint8),
                                           (layers.relu_vjp, np.bool_)])
    def test_backward_keeps_only_a_compact_mask(self, rng, vjp, dtype):
        _, bwd = vjp(rng.normal(size=(2, 6, 6, 3)))
        kept = [cell.cell_contents for cell in bwd.__closure__]
        assert [a.dtype for a in kept if isinstance(a, np.ndarray)] == [dtype]

    def test_conv_backward_without_input_grad(self, rng):
        x = rng.normal(size=(2, 6, 6, 2))
        out, bwd = layers.conv2d_vjp(x, kernels(rng.normal(size=(3, 3, 2, 4)), np.zeros(4)))
        up = rng.normal(size=out.shape)
        dx, dw, db = bwd(up)
        none, dw0, db0 = bwd(up, input_grad=False)
        assert dx.shape == x.shape and none is None
        assert np.array_equal(dw, dw0) and np.array_equal(db, db0)
