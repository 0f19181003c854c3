import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baggedcnn import layers
from baggedcnn.errors import DimensionError, InputError, NumericError
from conftest import max_rel_err, numeric_grad, tie_heavy


def kernels(w, b):
    return layers.ConvKernelSet(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))


CIN3 = kernels(np.ones((1, 1, 3, 1)), [0.0])
DENSE_W, DENSE_B = np.ones((3, 2)), np.zeros(2)


@pytest.mark.parametrize("kernel,name,ndim", [
    (lambda x: layers.conv2d_forward(x, CIN3), "conv input", 4),
    (lambda x: layers.conv2d_forward(x, CIN3, corners=True), "conv input", 4),
    (lambda x: layers.conv2d_vjp(x, CIN3), "conv input", 4),
    (layers.maxpool2d_forward, "pool input", 4),
    (layers.maxpool2d_vjp, "pool input", 4),
    (layers.flatten, "flatten input", 4),
    (layers.flatten_vjp, "flatten input", 4),
    (lambda x: layers.dense_forward(x, DENSE_W, DENSE_B), "dense input", 2),
    (lambda x: layers.dense_vjp(x, DENSE_W, DENSE_B), "dense input", 2),
])
def test_kernels_take_batches_only(kernel, name, ndim):
    # a lone [H,W,C] sample or [n] vector is refused, as is every other rank
    for rank in range(1, 7):
        if rank != ndim:
            with pytest.raises(DimensionError, match=f"{name} must be a {ndim}-d batch"):
                kernel(np.ones((3,) * rank))
    kernel(np.ones((3,) * ndim))


class TestConvForward:
    def test_identity_kernel(self):
        x = np.array([[[[5.0]]]])
        out = layers.conv2d_forward(x, kernels([[[[1.0]]]], [0.0]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 5.0

    def test_sum_of_nine_ones(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((3, 3, 1, 1))
        out = layers.conv2d_forward(x, kernels(w, [0.0]))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_fullsize_input_shape(self):
        x = np.zeros((1, 224, 224, 3), dtype=np.float32)
        w = np.zeros((3, 3, 3, 32), dtype=np.float32)
        out = layers.conv2d_forward(x, kernels(w, np.zeros(32)))
        assert out.shape == (1, 222, 222, 32)

    def test_output_shape_formula_exhaustive(self, rng):
        for h in range(1, 9):
            for w_ in range(1, 9):
                for kh in range(1, h + 1):
                    for kw in range(1, w_ + 1):
                        for stride in (1, 2, 3):
                            x = rng.normal(size=(1, h, w_, 1))
                            wt = rng.normal(size=(kh, kw, 1, 2))
                            out = layers.conv2d_forward(x, kernels(wt, np.zeros(2)), stride)
                            assert out.shape == (
                                1,
                                (h - kh) // stride + 1,
                                (w_ - kw) // stride + 1,
                                2,
                            )

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 4, 4, 2))
        w = np.zeros((3, 3, 3, 4))
        with pytest.raises(DimensionError, match="channel"):
            layers.conv2d_forward(x, kernels(w, np.zeros(4)))

    def test_kernel_too_large_raises(self):
        with pytest.raises(DimensionError, match="height|width"):
            layers.conv2d_forward(np.zeros((1, 2, 2, 1)), kernels(np.zeros((3, 3, 1, 1)), [0.0]))


class TestConvBackward:
    def test_zero_upstream(self, rng):
        x = rng.normal(size=(1, 5, 5, 2))
        ks = kernels(rng.normal(size=(3, 3, 2, 3)), rng.normal(size=3))
        out, bwd = layers.conv2d_vjp(x, ks)
        dx, dw, db = bwd(np.zeros_like(out))
        assert not dx.any() and not dw.any() and not db.any()

    def test_scalar_chain_rule(self):
        x = np.array([[[[5.0]]]])
        out, bwd = layers.conv2d_vjp(x, kernels([[[[2.0]]]], [0.0]))
        dx, dw, db = bwd(np.array([[[[1.0]]]]))
        assert dw[0, 0, 0, 0] == 5.0
        assert dx[0, 0, 0, 0] == 2.0
        assert db[0] == 1.0

    def test_finite_difference_oracle(self, rng):
        x = rng.normal(size=(1, 6, 6, 2))
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
        x = rng.normal(size=(1, 5, 5, 1))
        _, bwd = layers.conv2d_vjp(x, kernels(rng.normal(size=(3, 3, 1, 2)), np.zeros(2)))
        with pytest.raises(DimensionError, match="upstream"):
            bwd(np.zeros((1, 2, 2, 2)))

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_runs_once(self, rng, input_grad):
        x = rng.normal(size=(1, 5, 5, 1))
        out, bwd = layers.conv2d_vjp(x, kernels(rng.normal(size=(3, 3, 1, 2)), np.zeros(2)))
        up = rng.normal(size=out.shape)
        bwd(up, input_grad=input_grad)
        with pytest.raises(InputError, match="backward already ran"):
            bwd(up)

    @pytest.mark.parametrize("corners", [False, True])
    def test_backward_lets_go_of_im2col_before_the_input_gradient(self, rng, corners):
        # Cin 16 and Cout 4: the im2col matrix is the largest array, and the
        # input gradient's planes, one per kernel offset, are about its size.
        # A backward that held the matrix (traced in `before`) beside them
        # would rise by at least the planes' bytes.
        x = rng.normal(size=(2, 34, 34, 16))
        ks = kernels(rng.normal(size=(3, 3, 16, 4)), np.zeros(4))
        tracemalloc.start()
        try:
            out, bwd = layers.conv2d_vjp(x, ks, corners=corners)
            up = rng.normal(size=out.shape)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bwd(up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dcol [kh, kw, Cin, B, 32, 32], or the corner planes
        # [4, kh, kw, Cin, B, 17, 17]: 16 pool rows and a border of one
        rows = 4 * 2 * 17 * 17 if corners else 2 * 32 * 32
        assert peak - before < 9 * 16 * rows * x.itemsize


class TestMaxPool:
    def test_max_of_four(self):
        out = layers.maxpool2d_forward(np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None])
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_fullsize_odd_dimension(self):
        x = np.zeros((1, 109, 109, 64), dtype=np.float32)
        assert layers.maxpool2d_forward(x).shape == (1, 54, 54, 64)

    def test_constant_input(self):
        x = np.full((1, 4, 4, 2), 3.5)
        assert np.all(layers.maxpool2d_forward(x) == 3.5)

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            layers.maxpool2d_forward(np.zeros((1, 1, 4, 1)))

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]
        _, bwd = layers.maxpool2d_vjp(x)
        dx = bwd(np.array([[[[1.0]]]]))
        assert dx[0, :, :, 0].tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_tie_breaks_first_row_major(self):
        x = np.ones((1, 2, 2, 1))
        _, bwd = layers.maxpool2d_vjp(x)
        dx = bwd(np.array([[[[1.0]]]]))
        assert dx[0, 0, 0, 0] == 1.0
        assert dx.sum() == 1.0

    def test_gradient_mass_conserved(self, rng):
        x = rng.normal(size=(3, 8, 6, 2))
        out, bwd = layers.maxpool2d_vjp(x)
        up = rng.normal(size=out.shape)
        dx = bwd(up)
        assert np.isclose(dx.sum(), up.sum())

    def test_finite_difference_away_from_ties(self, rng):
        x = rng.normal(size=(1, 6, 6, 2))  # continuous values: ties have measure zero
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
        out = layers.dense_forward(np.array([[1.0, 0.0]]), np.eye(2), np.zeros(2))
        assert out.tolist() == [[1.0, 0.0]]

    def test_fullsize_dense_size(self):
        w = np.zeros((18432, 512), dtype=np.float32)
        assert w.size + 512 == 9437696

    def test_finite_difference_oracle(self, rng):
        x = rng.normal(size=(1, 8))
        w = rng.normal(size=(8, 4))
        b = rng.normal(size=4)
        out, bwd = layers.dense_vjp(x, w, b)
        up = rng.normal(size=(1, 4))
        dx, dw, db = bwd(up)

        def loss():
            return float((layers.dense_forward(x, w, b) * up).sum())

        assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-4
        assert max_rel_err(dw, numeric_grad(loss, w)) < 1e-4
        assert max_rel_err(db, numeric_grad(loss, b)) < 1e-4

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError, match="inner"):
            layers.dense_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))

    # the desk and paper dense shapes, and a few rows; a block of 100 values
    # splits each into blocks of two or three rows
    @pytest.mark.parametrize("block", [None, 100])
    @pytest.mark.parametrize("batch", [1, 3, 8, 32])
    @pytest.mark.parametrize("n_in, units", [(576, 64), (64, 5), (18432, 512), (7, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_rows_are_the_whole_product_s_bytes(self, monkeypatch, dtype, n_in, units,
                                                       batch, block):
        if block:
            monkeypatch.setattr(layers, "BLOCK_VALUES", block)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, n_in)).astype(dtype)
        w, b = rng.normal(size=(n_in, units)).astype(dtype), np.zeros(units, dtype)
        up = rng.normal(size=(batch, units)).astype(dtype)
        want = layers.dense_vjp(x, w.copy(), b)[1](up)
        blocks = []

        def weight_rows(rows, block):
            blocks.append((rows, block))
            w[rows] = np.nan  # the caller may write the weights once handed their rows

        dx, dw, db = layers.dense_vjp(x, w, b)[1](up, weight_rows=weight_rows)
        assert dw is None
        assert dx.tobytes() == want[0].tobytes() and db.tobytes() == want[2].tobytes()
        assert [rows for rows, _ in blocks] == layers.row_blocks(n_in, units)
        assert np.concatenate([block for _, block in blocks]).tobytes() == want[1].tobytes()


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 4, 5, 7, 128, 129, 18432])
    @pytest.mark.parametrize("row_values", [0, 1, 9, 512, 40000, 1 << 17])
    def test_whole_rows_in_order_none_alone(self, n_rows, row_values):
        blocks = layers.row_blocks(n_rows, row_values)
        assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [len(range(n_rows)[rows]) for rows in blocks]
        step = max(2, layers.BLOCK_VALUES // max(1, row_values))
        assert all(size >= min(2, n_rows) for size in sizes)
        assert all(size == step for size in sizes[:-1]) and sizes[-1] <= step + 1


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
        assert layers.flatten(np.zeros((1, 12, 12, 128))).shape == (1, 18432)

    def test_singleton(self):
        assert layers.flatten(np.zeros((1, 1, 1, 1))).shape == (1, 1)

    def test_inverse_pair(self, rng):
        x = rng.normal(size=(1, 3, 4, 2))
        out, bwd = layers.flatten_vjp(x)
        assert np.array_equal(bwd(out), x)


# -- slow references for the fast pool and relu kernels ----------------------

def reference_maxpool_with_argmax(x):
    """Argmax max pooling of x [B,H,W,C], the slow reference for the strided
    kernel: (out, backward)."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    win = x[:, : 2 * h2, : 2 * w2, :].reshape(b, h2, 2, w2, 2, c)
    # window flattened row-major, so argmax ties break to the first position
    flat = win.transpose(0, 1, 3, 5, 2, 4).reshape(b, h2, w2, c, 4)
    idx = flat.argmax(axis=4)
    out = np.take_along_axis(flat, idx[..., None], axis=4)[..., 0]

    def backward(upstream):
        grad = np.zeros((b, h2, w2, c, 4), dtype=upstream.dtype)
        np.put_along_axis(grad, idx[..., None], upstream[..., None], axis=4)
        dx = np.zeros(x.shape, dtype=upstream.dtype)
        dx[:, : 2 * h2, : 2 * w2, :] = (
            grad.reshape(b, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
            .reshape(b, 2 * h2, 2 * w2, c))
        return dx

    return out, backward


def reference_relu_backward(x, upstream):
    return np.where(x > 0, upstream, 0)


# channel counts of 8 and up run numpy's vectorised inner loop, as the desk
# and paper nets' pools do; 1-3 channels run its short scalar loop, and 17
# a vectorised loop with a scalar tail.
pool_channels = st.sampled_from([1, 2, 3, 8, 16, 17, 32])
pool_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 3), st.integers(2, 7), st.integers(2, 7), pool_channels),
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(32, 30, 30, 8), (32, 13, 13, 16), (5, 13, 13, 17)])
    def test_maxpool_vjp_at_the_desk_pool_shapes(self, shape, dtype):
        # the desk net's two pool shapes and one odd channel count, on the
        # stride-2 views of a [B,H,W,C] input
        x = tie_heavy(11, shape, dtype, "signed_zeros")
        ref, ref_bwd = reference_maxpool_with_argmax(x)
        out, bwd = layers.maxpool2d_vjp(x)
        assert out.tobytes() == ref.tobytes()
        up = tie_heavy(12, ref.shape, dtype, "levels")
        # the fast backward multiplies, so off the maximum it can hold -0.0
        assert np.array_equal(bwd(up), ref_bwd(up))

    @pytest.mark.parametrize("vjp,dtype", [(layers.maxpool2d_vjp, np.uint8),
                                           (layers.relu_vjp, np.bool_)])
    def test_backward_keeps_only_a_compact_mask(self, rng, vjp, dtype):
        _, bwd = vjp(rng.normal(size=(2, 6, 6, 3)))
        kept = [cell.cell_contents for cell in bwd.__closure__]
        assert [a.dtype for a in kept if isinstance(a, np.ndarray)] == [dtype]

    def test_conv_backward_without_input_grad(self, rng):
        x = rng.normal(size=(2, 6, 6, 2))
        ks = kernels(rng.normal(size=(3, 3, 2, 4)), np.zeros(4))
        out, bwd = layers.conv2d_vjp(x, ks)
        up = rng.normal(size=out.shape)
        dx, dw, db = bwd(up)
        none, dw0, db0 = layers.conv2d_vjp(x, ks)[1](up, input_grad=False)
        assert dx.shape == x.shape and none is None
        assert np.array_equal(dw, dw0) and np.array_equal(db, db0)


# -- planar im2col: the layout for narrow inputs -----------------------------

def reference_im2col(x, kh, kw, stride):
    """Row-major im2col matrix [B*H'*W', kh*kw*C] of x [B,H,W,C], one window
    per row in (kh, kw, C) order."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    return np.ascontiguousarray(win).reshape(-1, kh * kw * x.shape[3])


def reference_conv(x, w, b, stride):
    """The row-major forward: col @ W, then out += b."""
    kh, kw, cin, cout = w.shape
    out = reference_im2col(x, kh, kw, stride) @ w.reshape(kh * kw * cin, cout)
    out += b
    hp, wp = (x.shape[1] - kh) // stride + 1, (x.shape[2] - kw) // stride + 1
    return out.reshape(x.shape[0], hp, wp, cout)


conv_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),  # batch
    st.integers(3, 9), st.integers(3, 9),  # H and W, odd and even
    st.sampled_from([1, 2, 3, 16]),  # Cin: the planar widths and one wide
    st.integers(1, 3), st.integers(1, 3),  # kh, kw
    st.sampled_from([1, 2]),  # stride
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([1, 4, 8]),  # Cout
)


def conv_case(seed, bsz, h, w, cin, kh, kw, stride, dtype, cout):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(bsz, h, w, cin)).astype(dtype)
    ks = layers.ConvKernelSet(rng.normal(size=(kh, kw, cin, cout)).astype(dtype),
                              rng.normal(size=cout).astype(dtype))
    return x, ks


class TestPlanarIm2col:
    @settings(max_examples=200, deadline=None)
    @given(conv_cases)
    def test_planar_matrix_equals_row_major(self, case):
        seed, bsz, h, w, cin, kh, kw, stride, dtype, cout = case
        x, _ = conv_case(*case)
        planar, dims = layers._im2col_planar(x, kh, kw, stride)
        row_major, row_dims = layers._im2col(x, kh, kw, stride)
        ref = reference_im2col(x, kh, kw, stride)
        assert dims == row_dims == (bsz, (h - kh) // stride + 1, (w - kw) // stride + 1)
        for col in (planar, row_major):
            assert col.dtype == ref.dtype and col.shape == ref.shape
            assert np.ascontiguousarray(col).tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(conv_cases)
    def test_forward_matches_vjp_forward_and_reference(self, case):
        x, ks = conv_case(*case)
        stride = case[7]
        ref = reference_conv(x, ks.weights, ks.bias, stride)
        vjp_out, _ = layers.conv2d_vjp(x, ks, stride)
        out = layers.conv2d_forward(x, ks, stride)
        # both kernels build the same matrix and run the same GEMM and bias adds
        assert vjp_out.dtype == out.dtype and vjp_out.tobytes() == out.tobytes()
        assert out.dtype == ref.dtype and out.shape == ref.shape
        if x.shape[3] > layers._PLANAR_MAX_CIN:
            assert out.tobytes() == ref.tobytes()
        else:
            # the same products and sums, but the BLAS may pick another kernel
            # for a transposed operand, which can round the last bit
            # differently (OpenBLAS 0.3.31 does at 1 output channel, and in
            # float64 at 4 with 2 or 3 input channels)
            tol = 1e-5 if x.dtype == np.float32 else 1e-12
            assert np.allclose(out, ref, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,cout,batches", [
        ((32, 32, 1), 8, range(1, 70)),  # desk and serve conv1
        ((224, 224, 3), 32, (1, 2)),  # paper conv1; prediction runs one image
    ])
    def test_forward_bytes_at_the_benchmark_conv_shapes(self, rng, dtype, shape, cout, batches):
        w = rng.normal(size=(3, 3, shape[2], cout)).astype(dtype)
        ks = layers.ConvKernelSet(w, rng.normal(size=cout).astype(dtype))
        for bsz in batches:
            x = rng.normal(size=(bsz, *shape)).astype(dtype)
            out = layers.conv2d_forward(x, ks)
            assert out.tobytes() == reference_conv(x, w, ks.bias, 1).tobytes(), bsz
            assert out.tobytes() == layers.conv2d_vjp(x, ks)[0].tobytes(), bsz

    @pytest.mark.parametrize("corners", [False, True])
    @pytest.mark.parametrize("shape,cout", [((32, 32, 1), 8), ((15, 15, 8), 16)])
    def test_vjp_dw_is_the_gemm_on_the_forward_matrix(self, rng, shape, cout, corners):
        # the desk convs at batches 1-16 (a training epoch's trailing partial
        # batch) and 32: dW is `col.T @ up` on the matrix the forward built,
        # its rows in the upstream's order, planar at Cin 1 and row-major at
        # Cin 8, and db the sequential row sum of the upstream
        w = rng.normal(size=(3, 3, shape[2], cout)).astype(np.float32)
        ks = layers.ConvKernelSet(w, np.zeros(cout, dtype=np.float32))
        for bsz in (*range(1, 17), 32):
            x = rng.normal(size=(bsz, *shape)).astype(np.float32)
            out, bwd = layers.conv2d_vjp(x, ks, corners=corners)
            up = rng.normal(size=out.shape).astype(np.float32)
            _, dw, db = bwd(up, input_grad=False)
            col = reference_im2col(x, 3, 3, 1)
            if corners:
                side = shape[0] - 2
                col = corner_rows(col.reshape(bsz, side, side, -1)).reshape(-1, col.shape[1])
            if shape[2] <= layers._PLANAR_MAX_CIN:
                col = np.ascontiguousarray(col.T).T  # the planar layout
            up_flat = up.reshape(-1, cout)
            assert dw.tobytes() == (col.T @ up_flat).reshape(w.shape).tobytes(), bsz
            assert db.tobytes() == up_flat.sum(axis=0).tobytes(), bsz


# -- pool-corner order: a conv's output rows as the next pool reads them -----

def corner_rows(a):
    """a [B, H', W', ...] cut to even H', W' and reordered [2, 2, B, H'//2,
    W'//2, ...]: entry [r, c, b, y, x] is a[b, 2y + r, 2x + c]."""
    h2, w2 = a.shape[1] // 2, a.shape[2] // 2
    return np.stack([np.stack([a[:, r : 2 * h2 : 2, c : 2 * w2 : 2] for c in (0, 1)])
                     for r in (0, 1)])


corner_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),  # batch
    st.integers(5, 10), st.integers(5, 10),  # H and W, odd and even
    st.sampled_from([1, 2, 3, 4, 8]),  # Cin: the planar and the row-major builder
    st.integers(1, 3), st.integers(1, 3),  # kh, kw
    st.sampled_from([1, 2]),  # stride
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([1, 3, 8, 40]),  # Cout
    st.sampled_from(["levels", "signed_zeros", "non_positive"]),  # images
    st.sampled_from(["levels", "signed_zeros", "non_positive"]),  # conv biases
)


class TestCornerOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("cin", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("build", [layers._im2col, layers._im2col_planar])
    def test_im2col_rows_in_corner_order(self, rng, build, cin, stride, dtype):
        for h, w in ((9, 8), (10, 11), (12, 12), (7, 7)):
            x = rng.normal(size=(3, h, w, cin)).astype(dtype)
            plain, (bsz, hp, wp) = build(x, 3, 3, stride)
            col, rows = build(x, 3, 3, stride, True)
            want = corner_rows(np.ascontiguousarray(plain).reshape(bsz, hp, wp, -1))
            assert rows == (2, 2, bsz, hp // 2, wp // 2)
            assert col.dtype == want.dtype and col.shape == (want.size // col.shape[1], 9 * cin)
            assert np.ascontiguousarray(col).tobytes() == want.tobytes(), (h, w)

    @settings(max_examples=300, deadline=None)
    @given(corner_cases)
    def test_pool_of_corners_equals_pool_of_plain_conv(self, case):
        seed, bsz, h, w, cin, kh, kw, stride, dtype, cout, image_mode, bias_mode = case
        x = tie_heavy(seed, (bsz, h, w, cin), dtype, image_mode)
        ks = layers.ConvKernelSet(tie_heavy(seed + 1, (kh, kw, cin, cout), dtype, "levels"),
                                  tie_heavy(seed + 2, (cout,), dtype, bias_mode))
        plain = layers.conv2d_forward(x, ks, stride)
        out = layers.conv2d_forward(x, ks, stride, corners=True)
        assert out.dtype == plain.dtype and out.tobytes() == corner_rows(plain).tobytes()
        # the pool reads the corners as slabs, with the tie rule of the plain
        # pool, on the conv output and on its relu (all ties then at +0.0)
        for act in (lambda a: a, layers.relu):
            got = layers.maxpool2d_forward(act(out))
            want, _ = reference_maxpool_with_argmax(act(plain))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pool_cases)
    def test_pool_of_corner_array_bytes_equal(self, case):
        # the GEMM behind a conv gave no -0.0 in any case tried (its products
        # add onto +0.0), so the +-0.0 ties are drawn on a corner array itself
        x = tie_heavy(*case)
        ref, _ = reference_maxpool_with_argmax(x)
        out = layers.maxpool2d_forward(corner_rows(x))
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pool_cases)
    def test_pool_vjp_of_corner_array_equals_reference(self, case):
        # the argmax oracle's tie rule; the gradient comes back in corner
        # order, without the dropped rows, with the bytes of the stride-2
        # backward (a multiply, so -0.0 off the maximum where the reference
        # writes +0.0)
        x = tie_heavy(*case)
        ref, ref_bwd = reference_maxpool_with_argmax(x)
        out, bwd = layers.maxpool2d_vjp(corner_rows(x))
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        up = tie_heavy(case[0] + 1, ref.shape, x.dtype, "signed_zeros")
        dx, want = bwd(up), corner_rows(ref_bwd(up))
        assert dx.dtype == want.dtype and dx.shape == want.shape
        assert np.array_equal(dx, want)
        assert dx.tobytes() == corner_rows(layers.maxpool2d_vjp(x)[1](up)).tobytes()

    def test_single_image_and_too_small_output(self, rng):
        ks = layers.ConvKernelSet(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4))
        x = rng.normal(size=(1, 7, 6, 2))
        out = layers.conv2d_forward(x, ks, corners=True)
        assert out.shape == (2, 2, 1, 2, 2, 4)
        assert out.tobytes() == corner_rows(layers.conv2d_forward(x, ks)).tobytes()
        assert layers.maxpool2d_forward(out).tobytes() == layers.maxpool2d_forward(
            layers.conv2d_forward(x, ks)).tobytes()
        with pytest.raises(DimensionError, match="pool window 2x2 larger than input on width"):
            layers.conv2d_forward(rng.normal(size=(1, 6, 3, 2)), ks, corners=True)


# -- a conv's bias added after its pool -------------------------------------

def biased_case(seed, shape, dtype, mode):
    """(images, kernels) whose conv outputs hold ties, signed zeros, values
    that a bias rounds onto one another, or sums that overflow to +-inf."""
    bsz, h, w, cin, kh, kw, cout = shape
    x = tie_heavy(seed, (bsz, h, w, cin), dtype, "signed_zeros" if mode == "signed_zeros"
                  else "levels")
    weights = tie_heavy(seed + 1, (kh, kw, cin, cout), dtype, "levels")
    bias = tie_heavy(seed + 2, (cout,), dtype, "signed_zeros" if mode == "signed_zeros"
                     else "levels")
    if mode == "rounded_ties":  # conv sums step by 0.25, the bias's ulp is 1 or more
        bias *= 2.0 ** np.finfo(dtype).nmant
    elif mode == "overflow":  # finite parameters, products and sums past the largest value
        weights *= np.finfo(dtype).max / 8
        bias *= np.finfo(dtype).max / 8
    return x, layers.ConvKernelSet(weights, bias)


late_bias_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),  # batch
    st.integers(5, 10), st.integers(5, 10),  # H and W, odd and even
    st.sampled_from([1, 3, 8]),  # Cin: the planar and the row-major builder
    st.integers(1, 3), st.integers(1, 3),  # kh, kw
    st.sampled_from([1, 2]),  # stride
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([1, 8, 17, 40]),  # Cout
    st.sampled_from(["levels", "signed_zeros", "rounded_ties", "overflow"]),
)


class TestBiasAfterPool:
    """A 2x2 max pool commutes with adding one finite value per channel:
    rounding a + b never decreases as a grows, -0.0 only comes from
    -0.0 + -0.0, and NaN propagates either way."""

    @settings(max_examples=300, deadline=None)
    @given(late_bias_cases)
    @np.errstate(over="ignore", invalid="ignore")
    def test_conv_without_bias_then_pool_with_it_equals_reference(self, case):
        seed, bsz, h, w, cin, kh, kw, stride, dtype, cout, mode = case
        x, ks = biased_case(seed, (bsz, h, w, cin, kh, kw, cout), dtype, mode)
        for corners in (True, False):
            want = layers.maxpool2d_forward(layers.conv2d_forward(x, ks, stride, corners))
            got = layers.maxpool2d_forward(layers.conv2d_forward(x, ks, stride, corners, False),
                                           ks.bias)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), corners
            assert layers.relu(got).tobytes() == layers.relu(want).tobytes(), corners

    @settings(max_examples=200, deadline=None)
    @given(pool_cases, st.sampled_from(["levels", "signed_zeros", "non_positive"]))
    def test_pool_with_bias_equals_pool_of_biased_corners(self, case, bias_mode):
        # a conv's GEMM makes no -0.0, so signed zeros are drawn on the
        # corner array itself, -0.0 + -0.0 included
        x = corner_rows(tie_heavy(*case))
        bias = tie_heavy(case[0] + 1, (x.shape[-1],), x.dtype, bias_mode)
        want = layers.maxpool2d_forward(x + bias)
        got = layers.maxpool2d_forward(x, bias)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert layers.relu(got).tobytes() == layers.relu(want).tobytes()

    def test_default_conv_output_includes_the_bias(self, rng):
        ks = layers.ConvKernelSet(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4))
        x = rng.normal(size=(2, 7, 6, 2))
        for corners in (False, True):
            bare = layers.conv2d_forward(x, ks, 1, corners, False)
            assert layers.conv2d_forward(x, ks, 1, corners).tobytes() == (
                bare + ks.bias).tobytes()

    @np.errstate(invalid="ignore")
    def test_an_infinite_bias_tells_the_orders_apart(self):
        # +inf on a -inf corner is NaN before the pool, but +inf on the max
        # of the corners after it: checkpoints hold finite parameters only
        corners = np.array([-np.inf, 1, 1, 1]).reshape(2, 2, 1, 1, 1, 1)
        bias = np.array([np.inf])
        assert np.isnan(layers.maxpool2d_forward(corners + bias)).all()
        assert layers.maxpool2d_forward(corners, bias).item() == np.inf

    def test_training_keeps_the_bias_in_the_conv(self):
        # a 1x1 conv's corners 0.25 and 0.5 tie at 2**24 once the float32 bias
        # 2**24 is added.  The pooled value is the same in both orders, but
        # the first maximum moves to corner (0, 0), and the gradient with it
        x = np.array([[0.25, 0.5], [0.0, 0.0]], np.float32).reshape(1, 2, 2, 1)
        ks = layers.ConvKernelSet(np.ones((1, 1, 1, 1), np.float32),
                                  np.array([2.0**24], np.float32))
        up = np.ones((1, 1, 1, 1), np.float32)
        biased, bwd = layers.maxpool2d_vjp(layers.conv2d_forward(x, ks, 1, True))
        bare, bare_bwd = layers.maxpool2d_vjp(layers.conv2d_forward(x, ks, 1, True, False))
        assert biased.item() == (bare + ks.bias).item() == 2.0**24
        assert bwd(up)[:, :, 0, 0, 0, 0].tolist() == [[1, 0], [0, 0]]
        assert bare_bwd(up)[:, :, 0, 0, 0, 0].tolist() == [[0, 1], [0, 0]]


# -- channel-first conv backward against the row-major scatter ---------------

def reference_conv2d_backward(x, w, up, stride):
    """The row-major conv backward: dcol = up @ W.T, scattered onto a
    channels-last dx one kernel offset at a time; dW = col.T @ up and
    db = up.sum(axis=0)."""
    kh, kw, cin, cout = w.shape
    bsz, hp, wp, _ = up.shape
    up_flat = up.reshape(bsz * hp * wp, cout)
    dw = (reference_im2col(x, kh, kw, stride).T @ up_flat).reshape(w.shape)
    dcol = (up_flat @ w.reshape(kh * kw * cin, cout).T).reshape(bsz, hp, wp, kh, kw, cin)
    dx = np.zeros(x.shape, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, i : i + hp * stride : stride, j : j + wp * stride : stride, :] += dcol[
                :, :, :, i, j, :
            ]
    return dx, dw, up_flat.sum(axis=0)


# The float64 input gradient of the channel-first scatter, w @ up.T, rounds
# differently from up @ w.T for some shapes: over 8832 shapes the largest
# difference was 4.6e-16 of the largest |dx| (9.7e-12 relative to an element
# that nearly cancels).  float32 gave the same bytes at every shape.
F64_DX_TOL = 1e-13

# The corner-order input gradient runs `w @ up.T` over the rows a pool
# keeps.  Each element is the plain order's dot product, but on a small GEMM
# (below about 1.2e5 multiply-adds) OpenBLAS 0.3.31 can round one
# differently when the column count changes: over 6000 drawn shapes the
# largest float32 difference was 3.5e-7 of the largest |dx|.  The desk and
# paper conv shapes gave the same bytes.
F32_CORNER_DX_TOL = 1e-6

# At Cin <= _PLANAR_MAX_CIN the weight gradient `col.T @ up` runs on the
# planar matrix, a contiguous [kh*kw*Cin, rows] operand, where the reference
# has the transposed row-major one; the BLAS sums the rows in another order.
# Over 6000 drawn shapes (OpenBLAS 0.3.31) the largest difference was
# 1.8e-6 of the largest |dW| in float32 and 2.3e-15 in float64.
PLANAR_DW_TOL = {np.float32: 1e-5, np.float64: 1e-13}

corner_backward_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),  # batch
    st.integers(5, 10), st.integers(5, 10),  # H and W, odd and even
    st.integers(1, 16),  # Cin: the planar and the row-major builder
    st.integers(1, 3), st.integers(1, 3),  # kh, kw
    st.sampled_from([1, 2]),  # stride
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 40),  # Cout
)

backward_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),  # batch
    st.integers(3, 10), st.integers(3, 10),  # H and W, odd and even
    st.integers(1, 32),  # Cin
    st.integers(1, 64),  # Cout
    st.sampled_from([1, 2]),  # stride
    st.sampled_from([np.float32, np.float64]),
    st.booleans(),  # input_grad
)


def reference_strided_dx(w, up, in_shape, stride):
    """The channel-first input gradient with a strided add per kernel offset:
    w @ up.T planes added onto [Cin, B, H, W] views in (i, j) order."""
    kh, kw, cin, cout = w.shape
    bsz, hp, wp, _ = up.shape
    dcol = (w.reshape(kh * kw * cin, cout) @ up.reshape(-1, cout).T).reshape(
        kh, kw, cin, bsz, hp, wp)
    dxc = np.zeros((cin, *in_shape[:3]), dtype=up.dtype)
    for i in range(kh):
        for j in range(kw):
            dxc[:, :, i : i + hp * stride : stride, j : j + wp * stride : stride] += dcol[i, j]
    return np.ascontiguousarray(np.moveaxis(dxc, 0, 3))


# H and W are drawn apart, so most cases have H != W, and Cout 1 and 2 hit
# the BLAS's gemv paths
scatter_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),  # batch
    st.integers(3, 10), st.integers(3, 10),  # H and W
    st.integers(1, 32),  # Cin
    st.one_of(st.sampled_from([1, 2]), st.integers(1, 64)),  # Cout
    st.integers(1, 3), st.integers(1, 3),  # kh, kw
    st.integers(1, 3),  # stride
    st.sampled_from([np.float32, np.float64]),
)


class TestConvBackwardMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(backward_cases)
    def test_channel_first_backward(self, case):
        seed, bsz, h, w, cin, cout, stride, dtype, input_grad = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(bsz, h, w, cin)).astype(dtype)
        ks = layers.ConvKernelSet(rng.normal(size=(3, 3, cin, cout)).astype(dtype),
                                  rng.normal(size=cout).astype(dtype))
        out, bwd = layers.conv2d_vjp(x, ks, stride)
        up = rng.normal(size=out.shape).astype(dtype)
        dx, dw, db = bwd(up, input_grad=input_grad)
        ref_dx, ref_dw, ref_db = reference_conv2d_backward(x, ks.weights, up, stride)
        for got, ref in ((dw, ref_dw), (db, ref_db)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
        assert db.tobytes() == ref_db.tobytes()
        if cin > layers._PLANAR_MAX_CIN:
            assert dw.tobytes() == ref_dw.tobytes()
        else:
            assert np.max(np.abs(dw - ref_dw)) <= PLANAR_DW_TOL[dtype] * np.max(np.abs(ref_dw))
        if not input_grad:
            assert dx is None
            return
        assert dx.dtype == dtype and dx.shape == x.shape and dx.flags.c_contiguous
        if dtype == np.float32:
            assert dx.tobytes() == ref_dx.tobytes()
        else:
            assert np.max(np.abs(dx - ref_dx)) <= F64_DX_TOL * np.max(np.abs(ref_dx))

    @settings(max_examples=150, deadline=None)
    @given(corner_backward_cases)
    def test_corner_backward_equals_plain_backward(self, case):
        # the plain backward given the same upstream, with zeros at the rows
        # and columns a pool drops
        seed, bsz, h, w, cin, kh, kw, stride, dtype, cout = case
        x, ks = conv_case(seed, bsz, h, w, cin, kh, kw, stride, dtype, cout)
        plain, plain_bwd = layers.conv2d_vjp(x, ks, stride)
        out, bwd = layers.conv2d_vjp(x, ks, stride, corners=True)
        up = np.random.default_rng(seed + 1).normal(size=plain.shape).astype(dtype)
        up[:, 2 * (plain.shape[1] // 2) :] = 0
        up[:, :, 2 * (plain.shape[2] // 2) :] = 0
        assert out.shape == corner_rows(up).shape
        dx, dw, db = bwd(corner_rows(up))
        ref_dx, ref_dw, ref_db = plain_bwd(up)
        assert dx.dtype == dtype and dx.shape == x.shape and dx.flags.c_contiguous
        tol = F32_CORNER_DX_TOL if dtype == np.float32 else F64_DX_TOL
        assert np.max(np.abs(dx - ref_dx)) <= tol * np.max(np.abs(ref_dx))
        # the weight and bias gradients sum the kept rows in another order
        for got, ref in ((dw, ref_dw), (db, ref_db)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-4 if dtype == np.float32 else 1e-11,
                               atol=1e-4 if dtype == np.float32 else 1e-11)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_corner_input_gradient_bytes_at_the_desk_conv2_shape(self, rng, dtype):
        # batches 1-32 include the trailing partial batches of a desk epoch
        ks = layers.ConvKernelSet(rng.normal(size=(3, 3, 8, 16)).astype(dtype),
                                  np.zeros(16, dtype))
        for bsz in range(1, 33):
            x = rng.normal(size=(bsz, 15, 15, 8)).astype(dtype)
            plain, plain_bwd = layers.conv2d_vjp(x, ks)
            up = rng.normal(size=plain.shape).astype(dtype)
            up[:, 12:] = 0
            up[:, :, 12:] = 0
            _, bwd = layers.conv2d_vjp(x, ks, corners=True)
            assert bwd(corner_rows(up))[0].tobytes() == plain_bwd(up)[0].tobytes(), bsz

    def test_single_sample_backward(self, rng):
        # a batch of one image, at stride 2 and Cin 3
        x = rng.normal(size=(7, 6, 3)).astype(np.float32)[None]
        ks = layers.ConvKernelSet(rng.normal(size=(3, 3, 3, 5)).astype(np.float32),
                                  np.zeros(5, np.float32))
        out, bwd = layers.conv2d_vjp(x, ks, 2)
        up = rng.normal(size=out.shape).astype(np.float32)
        dx, dw, db = bwd(up)
        ref = reference_conv2d_backward(x, ks.weights, up, 2)
        assert dx.shape == x.shape
        for got, want in zip((dx, dw, db), ref):
            assert got.tobytes() == want.tobytes()

    # the examples have one output position, where the BLAS takes its gemv
    # path; an upstream padded before the GEMM changed float32 dx there
    @settings(max_examples=150, deadline=None)
    @given(scatter_cases)
    @example((0, 1, 3, 3, 1, 2, 3, 3, 1, np.float32))
    @example((0, 1, 3, 3, 1, 2, 3, 3, 1, np.float64))
    def test_contiguous_scatter_equals_strided(self, case):
        seed, bsz, h, w, cin, cout, kh, kw, stride, dtype = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(bsz, h, w, cin)).astype(dtype)
        ks = layers.ConvKernelSet(rng.normal(size=(kh, kw, cin, cout)).astype(dtype),
                                  rng.normal(size=cout).astype(dtype))
        out, bwd = layers.conv2d_vjp(x, ks, stride)
        up = rng.normal(size=out.shape).astype(dtype)
        dx, _, _ = bwd(up)
        ref = reference_strided_dx(ks.weights, up, x.shape, stride)
        assert dx.dtype == ref.dtype and dx.shape == ref.shape
        assert dx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_contiguous_scatter_with_signed_zeros(self, dtype):
        # weights and upstream full of -0.0 and ties: dx starts at +0.0, so
        # the zeros the contiguous adds carry cannot flip a sign
        w = tie_heavy(3, (3, 2, 2, 3), dtype, "signed_zeros")
        ks = layers.ConvKernelSet(w, np.zeros(3, dtype))
        for stride in (1, 2, 3):
            out, bwd = layers.conv2d_vjp(np.zeros((5, 9, 5, 2), dtype), ks, stride)
            up = tie_heavy(4, out.shape, dtype, "signed_zeros")
            dx, _, _ = bwd(up)
            assert dx.tobytes() == reference_strided_dx(w, up, dx.shape, stride).tobytes()
            assert not np.signbit(dx[dx == 0]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_gradient_is_the_sequential_row_sum(self, rng, dtype):
        for cout in (2, 3, 8, 16, 17, 64, 128, 512):
            for rows in (1, 7, 169, 28800 // max(1, cout // 8)):
                up = rng.normal(size=(rows, cout)).astype(dtype)
                assert layers._bias_grad(up).tobytes() == up.sum(axis=0).tobytes(), (cout, rows)
        # one column is contiguous, where sum adds pairwise and einsum does not
        up = rng.normal(size=(28800, 1)).astype(dtype)
        assert np.einsum("ij->j", up).tobytes() != up.sum(axis=0).tobytes()
        assert layers._bias_grad(up).tobytes() == up.sum(axis=0).tobytes()
