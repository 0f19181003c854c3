import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import layers, network, training
from baggedcnn.errors import BuildError, DimensionError, InputError
from conftest import max_rel_err, numeric_grad, tie_heavy

FULLSIZE_TRACE = [
    (222, 222, 32), (111, 111, 32), (109, 109, 64), (54, 54, 64),
    (52, 52, 128), (26, 26, 128), (24, 24, 128), (12, 12, 128),
    (18432,), (512,), (10,),
]


PAPER_SUMMARY = """\
Layer (type)                  Output Shape             Param #
==============================================================
conv2d (Conv2D)               (None, 222, 222, 32)         896
max_pooling2d (MaxPooling2D)  (None, 111, 111, 32)           0
conv2d_1 (Conv2D)             (None, 109, 109, 64)       18496
max_pooling2d_1 (MaxPooling2D)(None, 54, 54, 64)             0
conv2d_2 (Conv2D)             (None, 52, 52, 128)        73856
max_pooling2d_2 (MaxPooling2D)(None, 26, 26, 128)            0
conv2d_3 (Conv2D)             (None, 24, 24, 128)       147584
max_pooling2d_3 (MaxPooling2D)(None, 12, 12, 128)            0
flatten (Flatten)             (None, 18432)                  0
dense (Dense)                 (None, 512)              9437696
dense_1 (Dense)               (None, 10)                  5130
==============================================================
Total params: 9,683,658"""


class TestPaperCnn:
    def test_total_param_count(self):
        assert network.count_params(network.build_paper_cnn(10)) == 9683658

    def test_shape_trace(self):
        assert network.shape_trace(network.build_paper_cnn(10)) == FULLSIZE_TRACE

    def test_per_layer_counts(self):
        rows = network.summary_rows(network.build_paper_cnn(10))
        counts = [c for _, _, c in rows]
        assert counts == [896, 0, 18496, 0, 73856, 0, 147584, 0, 0, 9437696, 5130]

    def test_five_class_head(self):
        # only the final dense row changes: 512*5+5 instead of 512*10+10
        assert network.count_params(network.build_paper_cnn(5)) == 9683658 - 5130 + (512 * 5 + 5)

    def test_summary_text_has_total(self):
        text = network.summary(network.build_paper_cnn(10))
        assert "Total params: 9,683,658" in text
        assert "(None, 222, 222, 32)" in text

    def test_summary_text(self):
        assert network.summary(network.build_paper_cnn(10)) == PAPER_SUMMARY

    def test_layer_names(self):
        assert network.layer_names(network.build_paper_cnn(10)) == [
            "conv2d", "relu", "max_pooling2d", "conv2d_1", "relu_1", "max_pooling2d_1",
            "conv2d_2", "relu_2", "max_pooling2d_2", "conv2d_3", "relu_3", "max_pooling2d_3",
            "flatten", "dense", "relu_4", "dense_1"]

    def test_param_shapes(self):
        assert network._param_shapes(network.build_paper_cnn(10)) == {
            "conv2d/w": (3, 3, 3, 32), "conv2d/b": (32,),
            "conv2d_1/w": (3, 3, 32, 64), "conv2d_1/b": (64,),
            "conv2d_2/w": (3, 3, 64, 128), "conv2d_2/b": (128,),
            "conv2d_3/w": (3, 3, 128, 128), "conv2d_3/b": (128,),
            "dense/w": (18432, 512), "dense/b": (512,), "dense_1/w": (512, 10), "dense_1/b": (10,)}


class TestScaledCnn:
    def test_constructive(self):
        m = network.build_scaled_cnn((32, 32, 1), [8, 16], 5)
        shapes = network.infer_shapes(m)
        assert all(all(s >= 1 for s in shape) for shape in shapes)
        assert shapes[-1] == (5,)

    def test_dimension_underflow(self):
        with pytest.raises(BuildError):
            network.build_scaled_cnn((4, 4, 1), [4, 8, 16], 5)

    @pytest.mark.parametrize("layer,match", [
        (network.conv(3, 3, 0), r"layer 0 \(conv2d\).*out_channels 0"),
        (network.conv(0, 3, 4), r"layer 0 \(conv2d\): kernel \(0, 3\)"),
        (network.conv(3, -1, 4), r"layer 0 \(conv2d\): kernel \(3, -1\)"),
        (network.conv(3, 3, 4, stride=0), r"layer 0 \(conv2d\).*stride 0"),
        (network.conv(3, 3, -2), r"layer 0 \(conv2d\).*out_channels -2"),
    ])
    def test_non_positive_conv_sizes(self, layer, match):
        with pytest.raises(BuildError, match=match):
            network.ModelSpec((8, 8, 1), (layer, network.flat(), network.dense(2)), 2)

    @pytest.mark.parametrize("units", [0, -3])
    def test_non_positive_dense_units(self, units):
        with pytest.raises(BuildError, match=rf"layer 4 \(dense\): units must be >= 1, got {units}"):
            network.build_scaled_cnn((8, 8, 1), [2], 2, dense_units=units)
        with pytest.raises(BuildError, match=r"layer 0 \(conv2d\)"):
            network.build_scaled_cnn((8, 8, 1), [units], 2)

    @pytest.mark.parametrize("input_shape,spec,message", [
        ((8, 8, 1), (network.flat(), network.conv(3, 3, 2), network.flat(), network.dense(2)),
         "layer 1 (conv2d): expects [H,W,C] input, got (64,)"),
        ((8, 8, 1), (network.flat(), network.pool(), network.dense(2)),
         "layer 1 (maxpool2d): expects [H,W,C] input, got (64,)"),
        ((8, 8, 1), (network.dense(2),), "layer 0 (dense): expects flat input, got (8, 8, 1)"),
        ((1, 8, 1), (network.pool(), network.flat(), network.dense(2)),
         "layer 0 (maxpool2d): 2x2 window does not fit input 1x8"),
        ((4, 8, 1), (network.conv(5, 3, 2), network.flat(), network.dense(2)),
         "layer 0 (conv2d): kernel (5, 3) does not fit input 4x8"),
        ((8, 4, 1), (network.conv(3, 5, 2), network.flat(), network.dense(2)),
         "layer 0 (conv2d): kernel (3, 5) does not fit input 8x4"),
        ((0, 8, 1), (network.flat(), network.dense(2)),
         "input shape must be positive [H,W,C], got (0, 8, 1)"),
        ((8, 8), (network.flat(), network.dense(2)),
         "input shape must be positive [H,W,C], got (8, 8)"),
        ((8, 8, 1), (network.flat(), network.dense(3)),
         "final layer produces (3,), expected (2,)"),
    ])
    def test_build_error_text(self, input_shape, spec, message):
        with pytest.raises(BuildError) as err:
            network.ModelSpec(input_shape, spec, 2)
        assert str(err.value) == message

    def test_more_parameters_than_an_array_holds(self):
        # 67 * 2**55 + 2 float64 parameters pass 2**63 bytes; 67 * 2**50 + 2 do not
        with pytest.raises(BuildError, match="^2413929400270585858 parameters are more than"):
            network.ModelSpec((8, 8, 1), (network.flat(), network.dense(2**55), network.dense(2)), 2)
        network.ModelSpec((8, 8, 1), (network.flat(), network.dense(2**50), network.dense(2)), 2)

    def test_empty_spec_is_a_build_error(self):
        with pytest.raises(BuildError, match=r"final layer produces \(8, 8, 1\), expected \(2,\)"):
            network.ModelSpec((8, 8, 1), (), 2)

    def test_spec_keeps_tuples(self):
        # the walk is kept on the spec, so what it walked is frozen
        m = network.ModelSpec([8, 8, 1], [network.flat(), network.dense(2)], 2)
        assert m.input_shape == (8, 8, 1) and m.layers == (network.flat(), network.dense(2))
        assert m == network.ModelSpec((8, 8, 1), (network.flat(), network.dense(2)), 2)
        assert "_rows" not in repr(m)

    @pytest.mark.parametrize("input_shape,widths,n_classes", [
        ((32, 32, 1), [8, 16], 5),
        ((16, 16, 3), [4], 2),
        ((48, 48, 2), [4, 8, 8], 3),
    ])
    def test_count_matches_closed_form(self, input_shape, widths, n_classes):
        m = network.build_scaled_cnn(input_shape, widths, n_classes, dense_units=32)
        total = 0
        cin = input_shape[2]
        h, w = input_shape[:2]
        for width in widths:
            total += 3 * 3 * cin * width + width
            h, w = (h - 2) // 2, (w - 2) // 2
            cin = width
        total += h * w * cin * 32 + 32
        total += 32 * n_classes + n_classes
        assert network.count_params(m) == total


class TestInitParams:
    def test_deterministic(self):
        m = network.build_scaled_cnn((16, 16, 1), [4], 3)
        a = network.init_params(m, seed=7)
        b = network.init_params(m, seed=7)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_draws_are_whole_weight_draws(self, monkeypatch, dtype):
        # chunks of 7 split every weight unevenly; whole-weight draws are the reference
        m = network.build_scaled_cnn((16, 16, 1), [4], 3)
        rng = np.random.default_rng(9)
        want = network.zero_params(m, dtype)
        for key in list(want)[:-2:2]:
            limit = np.sqrt(6.0 / np.prod(want[key].shape[:-1]))
            want[key][...] = rng.uniform(-limit, limit, size=want[key].shape)
        monkeypatch.setattr(network, "_DRAW_CHUNK", 7)
        got = network.init_params(m, seed=9, dtype=dtype)
        assert [(k, v.tobytes()) for k, v in got.items()] == [
            (k, v.tobytes()) for k, v in want.items()]

    def test_biases_zero(self):
        m = network.build_scaled_cnn((16, 16, 1), [4], 3)
        params = network.init_params(m, seed=0)
        for name, arr in params.items():
            if name.endswith("/b"):
                assert not arr.any()

    def test_weight_stddev(self):
        # uniform(-a, a) with a = sqrt(6/fan_in) has stddev a/sqrt(3) = sqrt(2/fan_in)
        m = network.build_scaled_cnn((40, 40, 1), [8], 5, dense_units=64)
        params = network.init_params(m, seed=0, dtype=np.float64)
        w = params["dense/w"]
        assert w.size > 10_000
        fan_in = w.shape[0]
        expected = np.sqrt(2.0 / fan_in)
        assert abs(w.std() - expected) / expected < 0.1

    def test_count_equals_scalar_total(self):
        m = network.build_scaled_cnn((32, 32, 1), [8, 16], 5)
        params = network.init_params(m, seed=0)
        assert sum(a.size for a in params.values()) == network.count_params(m)


class TestForwardBatch:
    @pytest.fixture
    def tiny(self):
        m = network.build_scaled_cnn((16, 16, 1), [4], 3)
        return m, network.init_params(m, seed=0, dtype=np.float64)

    def test_duplicate_rows_identical(self, tiny, rng):
        m, params = tiny
        x = rng.normal(size=(1, 16, 16, 1))
        batch = np.concatenate([x, x])
        out = network.forward_batch(m, params, batch)
        assert np.array_equal(out[0], out[1])

    def test_batch_of_one_matches(self, tiny, rng):
        m, params = tiny
        batch = rng.normal(size=(3, 16, 16, 1))
        full = network.forward_batch(m, params, batch)
        for i in range(3):
            single = network.forward_batch(m, params, batch[i : i + 1])
            assert np.allclose(full[i], single[0])

    def test_permutation_equivariance(self, tiny, rng):
        m, params = tiny
        batch = rng.normal(size=(5, 16, 16, 1))
        perm = rng.permutation(5)
        out = network.forward_batch(m, params, batch)
        out_p = network.forward_batch(m, params, batch[perm])
        assert np.allclose(out[perm], out_p)

    def test_shape_mismatch(self, tiny):
        m, params = tiny
        with pytest.raises(DimensionError):
            network.forward_batch(m, params, np.zeros((2, 8, 8, 1)))

    @pytest.mark.parametrize("run", [network.forward_batch, network.forward_vjp])
    def test_empty_batch_refused(self, tiny, run):
        m, params = tiny
        with pytest.raises(InputError, match="no images"):
            run(m, params, np.zeros((0, 16, 16, 1)))


class TestForwardMatchesVjp:
    """forward_batch (the prediction path, its image layers in spans) gives
    the logits of forward_vjp byte for byte on the benchmark nets."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_shape,widths", [
        ((32, 32, 1), (8, 16)),  # the desk and serve net
        ((24, 24, 3), (32, 64)),  # a Cin-3 net with the paper net's first widths
    ])
    def test_logits_bytes_equal(self, rng, dtype, input_shape, widths):
        m = network.build_scaled_cnn(input_shape, widths, 5, dense_units=64)
        params = network.init_params(m, seed=4, dtype=dtype)
        # the classifier head starts at zero; move it so the logits carry the convs
        params = {k: (v + 0.1 * rng.normal(size=v.shape)).astype(dtype) for k, v in params.items()}
        for bsz in (1, 7, 16, 64):
            batch = rng.uniform(0, 1, size=(bsz, *input_shape)).astype(dtype)
            logits = network.forward_batch(m, params, batch)
            vjp_logits, _ = network.forward_vjp(m, params, batch)
            assert logits.dtype == vjp_logits.dtype == dtype
            assert logits.tobytes() == vjp_logits.tobytes(), bsz


class TestBackwardBatch:
    @pytest.fixture
    def tiny(self):
        # 8x8x1 input, one conv block, dense head
        m = network.build_scaled_cnn((8, 8, 1), [3], 2, dense_units=4)
        return m, network.init_params(m, seed=3, dtype=np.float64)

    def test_zero_upstream(self, tiny, rng):
        m, params = tiny
        batch = rng.normal(size=(2, 8, 8, 1))
        grads = network.backward_batch(m, params, batch, np.zeros((2, 2)))
        assert all(not g.any() for g in grads.values())

    def test_batch_gradient_is_sum(self, tiny, rng):
        m, params = tiny
        batch = rng.normal(size=(2, 8, 8, 1))
        up = rng.normal(size=(2, 2))
        full = network.backward_batch(m, params, batch, up)
        g0 = network.backward_batch(m, params, batch[:1], up[:1])
        g1 = network.backward_batch(m, params, batch[1:], up[1:])
        for k in full:
            assert np.allclose(full[k], g0[k] + g1[k])

    def test_full_model_finite_differences(self, tiny, rng):
        m, params = tiny
        batch = rng.normal(size=(2, 8, 8, 1))
        up = rng.normal(size=(2, 2))
        grads = network.backward_batch(m, params, batch, up)

        def loss():
            return float((network.forward_batch(m, params, batch) * up).sum())

        for k in grads:
            assert max_rel_err(grads[k], numeric_grad(loss, params[k])) < 1e-4, k

    def test_backward_runs_once_and_frees_layer_state(self, tiny, rng, monkeypatch):
        # the layer closures keep the im2col matrices and masks; the network's
        # backward drops each one once used, so none outlives the call
        closures = []
        for name in ("conv2d_vjp", "maxpool2d_vjp", "relu_vjp", "dense_vjp"):
            kernel = getattr(layers, name)

            def spy(*args, _kernel=kernel):
                out, bwd = _kernel(*args)
                closures.append(weakref.ref(bwd))
                return out, bwd

            monkeypatch.setattr(layers, name, spy)
        m, params = tiny
        logits, bwd = network.forward_vjp(m, params, rng.normal(size=(2, 8, 8, 1)))
        assert len(closures) == 6 and all(ref() is not None for ref in closures)
        bwd(np.ones((2, 2)))
        assert all(ref() is None for ref in closures)
        with pytest.raises(InputError, match="backward already ran"):
            bwd(np.ones((2, 2)))


def spec_order_vjp(m, params, batch):
    """The slow reference: every layer's vjp in spec order, relu before pool
    as written; a conv followed by a pool, with or without a relu between
    them, returns the pool's window corners.  Returns (logits, backward);
    backward(upstream) runs every layer's backward in full, layer 0's input
    gradient included, and returns the gradient dict."""
    x, tape = batch, []
    kinds = [layer.kind for layer in m.layers]
    for li, (layer, name) in enumerate(zip(m.layers, network.layer_names(m))):
        if layer.kind == "conv2d":
            ks = layers.ConvKernelSet(params[f"{name}/w"], params[f"{name}/b"])
            after = kinds[li + 1 : li + 3]
            corners = after[:1] == ["maxpool2d"] or after == ["relu", "maxpool2d"]
            x, bwd = layers.conv2d_vjp(x, ks, layer.stride, corners=corners)
        elif layer.kind == "dense":
            x, bwd = layers.dense_vjp(x, params[f"{name}/w"], params[f"{name}/b"])
        else:
            x, bwd = getattr(layers, f"{layer.kind}_vjp")(x)
        tape.append((layer.kind, name, bwd))

    def backward(up):
        grads, g = {}, up
        for kind, name, bwd in reversed(tape):
            if kind in ("conv2d", "dense"):
                g, grads[f"{name}/w"], grads[f"{name}/b"] = bwd(g)
            else:
                g = bwd(g)
        assert g.shape == batch.shape
        return grads

    return x, backward


def spec_order_forward(m, params, batch):
    """Every layer's forward kernel in spec order on the whole batch."""
    x = batch
    for layer, name in zip(m.layers, network.layer_names(m)):
        if layer.kind == "conv2d":
            ks = layers.ConvKernelSet(params[f"{name}/w"], params[f"{name}/b"])
            x = layers.conv2d_forward(x, ks, layer.stride)
        elif layer.kind == "dense":
            x = layers.dense_forward(x, params[f"{name}/w"], params[f"{name}/b"])
        else:
            x = {"relu": layers.relu, "maxpool2d": layers.maxpool2d_forward,
                 "flatten": layers.flatten}[layer.kind](x)
    return x


relu_pool_cases = st.tuples(
    st.integers(0, 2**31),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from(["scaled", "relu_first"]),
    st.integers(1, 6),  # batch
    st.sampled_from(["levels", "signed_zeros", "non_positive"]),  # images
    st.sampled_from(["levels", "non_positive"]),  # conv biases
)


class TestPoolBeforeRelu:
    """The network runs a relu that precedes a pool after the pool; the
    logits and gradients are the bytes of the spec order."""

    def net(self, arch):
        if arch == "scaled":
            return network.build_scaled_cnn((13, 12, 2), (3, 4), 3, dense_units=5)
        # a relu and a pool straight on the images, so the drawn ties and
        # signed zeros reach the pair unchanged
        return network.ModelSpec((11, 10, 2), (
            network.relu(), network.pool(), network.conv(2, 2, 3), network.relu(),
            network.pool(), network.flat(), network.dense(4), network.relu(),
            network.dense(3)), 3)

    @settings(max_examples=120, deadline=None)
    @given(relu_pool_cases)
    def test_bytes_equal_spec_order(self, case):
        seed, dtype, arch, bsz, image_mode, bias_mode = case
        m = self.net(arch)
        params = {}
        for k, (key, value) in enumerate(network.init_params(m, seed=0, dtype=dtype).items()):
            mode = bias_mode if key.endswith("/b") and "conv" in key else "levels"
            params[key] = tie_heavy(seed + k, value.shape, dtype, mode)
        batch = tie_heavy(seed + 100, (bsz, *m.input_shape), dtype, image_mode)
        up = tie_heavy(seed + 101, (bsz, m.n_classes), dtype, "signed_zeros")

        logits, bwd = network.forward_vjp(m, params, batch)
        ref_logits, ref_bwd = spec_order_vjp(m, params, batch)
        assert logits.dtype == ref_logits.dtype and logits.tobytes() == ref_logits.tobytes()
        grads, ref_grads = bwd(up), ref_bwd(up)
        assert list(grads) == list(ref_grads)
        for key in ref_grads:
            assert grads[key].dtype == ref_grads[key].dtype, key
            assert grads[key].tobytes() == ref_grads[key].tobytes(), key
        out = network.forward_batch(m, params, batch)
        assert out.tobytes() == spec_order_forward(m, params, batch).tobytes()

    @pytest.mark.parametrize("kernel", ["relu", "relu_vjp"])
    def test_relu_runs_on_the_pooled_image(self, rng, monkeypatch, kernel):
        seen = []
        relu = getattr(layers, kernel)

        def spy(x):
            seen.append(x.shape)
            return relu(x)

        monkeypatch.setattr(layers, kernel, spy)
        m = network.build_scaled_cnn((16, 16, 1), [2, 3], 2, dense_units=4)
        params = network.init_params(m, seed=0)
        batch = rng.normal(size=(2, 16, 16, 1)).astype(np.float32)
        if kernel == "relu":
            network.forward_batch(m, params, batch)
        else:
            network.forward_vjp(m, params, batch)
        assert seen == [(2, 7, 7, 2), (2, 2, 2, 3), (2, 4)]


class TestBackwardSkipsBatchGradient:
    @pytest.mark.parametrize("first", ["conv", "pool"])
    def test_grads_equal_full_backward(self, rng, first):
        head = [network.pool()] if first == "pool" else []
        m = network.ModelSpec((10, 10, 2), tuple(head + [
            network.conv(3, 3, 3), network.relu(), network.pool(), network.flat(),
            network.dense(4), network.relu(), network.dense(3)]), 3)
        params = network.init_params(m, seed=1, dtype=np.float64)
        params = {k: v + rng.normal(size=v.shape) for k, v in params.items()}
        batch = rng.normal(size=(4, 10, 10, 2))
        up = rng.normal(size=(4, 3))
        grads = network.backward_batch(m, params, batch, up)
        full = spec_order_vjp(m, params, batch)[1](up)
        assert list(grads) == list(full)
        for k in full:
            assert np.array_equal(grads[k], full[k]), k

    def test_first_conv_skips_input_gradient(self, rng, monkeypatch):
        # the network looks kernels up on `layers` per call, so a patch is seen
        calls = []
        conv2d_vjp = layers.conv2d_vjp

        def spy(*args):
            out, bwd = conv2d_vjp(*args)

            def backward(up, input_grad=True):
                result = bwd(up, input_grad=input_grad)
                calls.append(result[0] is None)
                return result

            return out, backward

        monkeypatch.setattr(layers, "conv2d_vjp", spy)
        m = network.build_scaled_cnn((16, 16, 1), [2, 3], 2, dense_units=4)
        params = network.init_params(m, seed=0, dtype=np.float64)
        network.backward_batch(m, params, rng.normal(size=(2, 16, 16, 1)), np.ones((2, 2)))
        assert calls == [False, True]  # backward order: second conv, then the first


class TestTrainInCornerOrder:
    def test_desk_step_runs_every_conv_and_pool_in_corner_order(self, rng, monkeypatch):
        # one training step of the desk net (batch 32): every conv feeds a
        # pool, so each conv vjp builds corner rows and each pool vjp reads them
        conv_corners, pool_ranks = [], []
        conv2d_vjp, maxpool2d_vjp = layers.conv2d_vjp, layers.maxpool2d_vjp

        def conv_spy(x, kernels, stride=1, corners=False):
            conv_corners.append(corners)
            return conv2d_vjp(x, kernels, stride, corners)

        def pool_spy(x):
            pool_ranks.append(x.ndim)
            return maxpool2d_vjp(x)

        monkeypatch.setattr(layers, "conv2d_vjp", conv_spy)
        monkeypatch.setattr(layers, "maxpool2d_vjp", pool_spy)
        m = network.build_scaled_cnn((32, 32, 1), (8, 16), 5, dense_units=64)
        images = rng.uniform(0, 1, size=(32, 32, 32, 1)).astype(np.float32)
        training.train_submodel(m, images, np.arange(32) % 5,
                                training.TrainConfig(epochs=1, batch_size=32))
        assert conv_corners == [True, True]
        assert pool_ranks == [6, 6]


class TestForwardChunks:
    """forward_batch runs the image layers of a large batch in chunks."""

    def model(self):
        return network.ModelSpec((11, 13, 2), (
            network.pool(), network.conv(3, 3, 5), network.relu(), network.conv(2, 2, 4, stride=2),
            network.relu(), network.flat(), network.dense(6), network.relu(),
            network.dense(3)), 3)

    def test_walk_pins(self):
        m = self.model()
        assert network.summary(m) == "\n".join([
            "Layer (type)                  Output Shape             Param #",
            "=" * 62,
            "max_pooling2d (MaxPooling2D)  (None, 5, 6, 2)                0",
            "conv2d (Conv2D)               (None, 3, 4, 5)               95",
            "conv2d_1 (Conv2D)             (None, 1, 2, 4)               84",
            "flatten (Flatten)             (None, 8)                      0",
            "dense (Dense)                 (None, 6)                     54",
            "dense_1 (Dense)               (None, 3)                     21",
            "=" * 62,
            "Total params: 254"])
        assert network.layer_names(m) == ["max_pooling2d", "conv2d", "relu", "conv2d_1",
                                          "relu_1", "flatten", "dense", "relu_2", "dense_1"]
        assert network._param_shapes(m) == {
            "conv2d/w": (3, 3, 2, 5), "conv2d/b": (5,), "conv2d_1/w": (2, 2, 5, 4),
            "conv2d_1/b": (4,), "dense/w": (8, 6), "dense/b": (6,), "dense_1/w": (6, 3),
            "dense_1/b": (3,)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunks_equal_whole_batch(self, rng, monkeypatch, dtype, chunk):
        m = self.model()
        params = network.init_params(m, seed=2, dtype=dtype)
        params = {k: (v + rng.normal(size=v.shape)).astype(dtype) for k, v in params.items()}
        batch = rng.normal(size=(7, 11, 13, 2)).astype(dtype)
        whole = network.forward_batch(m, params, batch)
        _, sample_bytes = network._image_layers(m, batch.dtype.itemsize)
        monkeypatch.setattr(network, "_CHUNK_BYTES", chunk * sample_bytes)
        chunked = network.forward_batch(m, params, batch)
        assert chunked.dtype == whole.dtype
        assert chunked.tobytes() == whole.tobytes()

    def test_image_layers_chunked_dense_whole(self, rng, monkeypatch):
        m = self.model()
        params = network.init_params(m, seed=2, dtype=np.float64)
        seen = []
        for name in ("conv2d_forward", "dense_forward"):
            kernel = getattr(layers, name)

            def spy(x, *args, _kernel=kernel, _name=name):
                seen.append((_name, len(x)))
                return _kernel(x, *args)

            monkeypatch.setattr(layers, name, spy)
        _, sample_bytes = network._image_layers(m, 8)
        monkeypatch.setattr(network, "_CHUNK_BYTES", 3 * sample_bytes)
        network.forward_batch(m, params, rng.normal(size=(7, 11, 13, 2)))
        convs = [n for kind, n in seen if kind == "conv2d_forward"]
        assert convs == [3, 3, 3, 3, 1, 1]  # two convs per chunk of 3, 3 and 1
        assert [n for kind, n in seen if kind == "dense_forward"] == [7, 7]

    def test_largest_array_per_sample(self):
        # the paper net's largest is conv2d_1's im2col matrix: 109x109 rows of 3x3x32
        count, sample_bytes = network._image_layers(network.build_paper_cnn(5), 4)
        assert count == 12
        assert sample_bytes == 109 * 109 * 288 * 4
        # a desk-size net runs a 64-image request whole
        desk = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)
        assert 64 * network._image_layers(desk, 4)[1] <= network._CHUNK_BYTES


def perturbed_sets(m, n_models, dtype, seed=0):
    """n_models parameter sets moved off init_params' zero head and biases."""
    rng = np.random.default_rng(seed)
    return [{k: (v + rng.normal(0, 0.05, v.shape)).astype(dtype)
             for k, v in network.init_params(m, s, dtype=dtype).items()}
            for s in range(n_models)]


def reference_probs(m, param_sets, images):
    """[M, B, C]: each sub-model on its own, every layer kernel in spec order
    on 64-image slices, the whole slice at once."""
    images = images.astype(param_sets[0]["dense/w"].dtype)
    return np.stack([
        np.concatenate([layers.softmax(spec_order_forward(m, params, images[lo:lo + 64]))
                        for lo in range(0, len(images), 64)])
        for params in param_sets])


class TestPredictTogether:
    """A sequence of parameter sets runs its first conv, relu and pool once,
    on every set's kernels side by side, with each set's bytes out."""

    DESK = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 7, 13, 64, 65, 200])
    def test_desk_bytes_equal_reference(self, dtype, batch):
        sets = perturbed_sets(self.DESK, 20, dtype)
        images = np.random.default_rng(batch).uniform(size=(batch, 32, 32, 1))
        want = reference_probs(self.DESK, sets, images)
        for n in range(1, 21):
            got = network.predict_probs(self.DESK, sets[:n], images)
            assert got.dtype == want.dtype and got.shape == (n, batch, 5)
            assert got.tobytes() == want[:n].tobytes(), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_bytes", [None, 1 << 30])
    def test_paper_conv1_bytes_equal_reference(self, monkeypatch, dtype, chunk_bytes):
        # the paper net's first conv; by default a float32 pair of sets shares
        # one wide conv per image, and float64 sets run alone
        m = network.ModelSpec((224, 224, 3), (
            network.conv(3, 3, 32), network.relu(), network.pool(), network.conv(3, 3, 2, stride=8),
            network.relu(), network.flat(), network.dense(4), network.relu(),
            network.dense(3)), 3)
        if chunk_bytes:
            monkeypatch.setattr(network, "_CHUNK_BYTES", chunk_bytes)
        sets = perturbed_sets(m, 3, dtype)
        images = np.random.default_rng(3).uniform(size=(2, 224, 224, 3))
        want = reference_probs(m, sets, images)
        for n in range(1, 4):
            assert network.predict_probs(m, sets[:n], images).tobytes() == want[:n].tobytes(), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fits", [None, 3])
    @pytest.mark.parametrize("arch", ["stride2", "odd"])
    def test_corner_order_bytes_equal_reference(self, monkeypatch, arch, fits, dtype):
        # each conv feeds a pool, so it runs in pool-corner order: at stride 2,
        # and on odd output sizes whose last row and column the pool drops
        if arch == "stride2":  # 21 -> conv 10 -> pool 5 -> conv 2 -> pool 1
            m = network.ModelSpec((21, 21, 2), (
                network.conv(3, 3, 4, stride=2), network.relu(), network.pool(),
                network.conv(2, 2, 3, stride=2), network.relu(), network.pool(), network.flat(),
                network.dense(5), network.relu(), network.dense(3)), 3)
        else:  # 16x15 -> conv 13x12 -> pool 6x6 -> conv 5x5 -> pool 2x2
            m = network.ModelSpec((16, 15, 1), (
                network.conv(4, 4, 3), network.relu(), network.pool(),
                network.conv(2, 2, 5), network.relu(), network.pool(), network.flat(),
                network.dense(4), network.relu(), network.dense(3)), 3)
        if fits:  # spans of 3 images, in wide chunks of 1 to 3
            sample_bytes = network._image_layers(m, np.dtype(dtype).itemsize)[1]
            monkeypatch.setattr(network, "_CHUNK_BYTES", fits * sample_bytes)
        sets = perturbed_sets(m, 4, dtype)
        images = np.random.default_rng(5).uniform(size=(70, *m.input_shape))
        want = reference_probs(m, sets, images)
        for n in range(1, 5):
            got = network.predict_probs(m, sets[:n], images)
            assert got.dtype == want.dtype and got.tobytes() == want[:n].tobytes(), n

    def spy_calls(self, monkeypatch, run):
        """(kernel, input shape, conv Cout) per kernel call made by run()."""
        seen = []
        with monkeypatch.context() as patch:
            for name in ("conv2d_forward", "maxpool2d_forward", "relu", "flatten",
                         "dense_forward"):
                kernel = getattr(layers, name)

                def spy(x, *args, _kernel=kernel, _name=name):
                    cout = args[0].weights.shape[3] if _name == "conv2d_forward" else None
                    seen.append((_name, x.shape, cout))
                    return _kernel(x, *args)

                patch.setattr(layers, name, spy)
            run()
        return seen

    def test_first_conv_once_per_chunk_dense_whole(self, rng, monkeypatch):
        m = network.build_scaled_cnn((10, 10, 1), [3, 4], 2, dense_units=5)
        sets = perturbed_sets(m, 3, np.float64)
        images = rng.normal(size=(7, 10, 10, 1))
        _, sample_bytes = network._image_layers(m, 8)

        def first(n, cout=9):  # the first conv, in pool-corner order, pool and relu
            return [("conv2d_forward", (n, 10, 10, 1), cout),
                    ("maxpool2d_forward", (2, 2, n, 4, 4, cout), None),
                    ("relu", (n, 4, 4, cout), None)]

        def later(n):  # one model's second conv, pool and relu
            return [("conv2d_forward", (n, 4, 4, 3), 4),
                    ("maxpool2d_forward", (2, 2, n, 1, 1, 4), None), ("relu", (n, 1, 1, 4), None)]

        dense = [("flatten", (7, 1, 1, 4), None), ("dense_forward", (7, 4), None),
                 ("relu", (7, 5), None), ("dense_forward", (7, 5), None)]

        def seen_at(fits, params):
            monkeypatch.setattr(network, "_CHUNK_BYTES", fits * sample_bytes)
            return self.spy_calls(monkeypatch, lambda: network.forward_batch(m, params, images))

        # one model may run all 7 images: the 3 sets run their first stage as
        # one group on chunks of ceil(7 / 3) = 3 images, then each set its
        # second conv once on the whole batch
        assert seen_at(7, sets) == first(3) + first(3) + first(1) + later(7) * 3 + dense * 3
        # one model may run 4: spans of 4 and 3 images, each in wide chunks of
        # ceil(4 / 3) = 2, and each set's second conv once per span
        assert seen_at(4, sets) == (first(2) + first(2) + later(4) * 3
                                    + first(2) + first(1) + later(3) * 3 + dense * 3)
        # a single dict runs the kernels of a model run alone: its own convs
        # on spans of 4 images, its dense layers on the whole batch
        assert seen_at(4, sets[0]) == (first(4, 3) + later(4) + first(3, 3) + later(3)
                                       + dense)

    def test_groups_and_first_layer_not_a_conv(self, rng, monkeypatch):
        # 5 sets in groups of 2, 2 and 1; a model that opens with a pool runs
        # each set alone
        for m in (network.build_scaled_cnn((10, 10, 2), [3, 4], 2, dense_units=5),
                  network.ModelSpec((10, 10, 2), (
                      network.pool(), network.conv(3, 3, 3), network.relu(), network.flat(),
                      network.dense(2)), 2)):
            sets = perturbed_sets(m, 5, np.float32)
            images = rng.normal(size=(9, 10, 10, 2)).astype(np.float32)
            _, sample_bytes = network._image_layers(m, 4)
            monkeypatch.setattr(network, "_CHUNK_BYTES", 2 * sample_bytes)
            got = network.forward_batch(m, sets, images)
            assert got.shape == (5, 9, 2)
            for params, logits in zip(sets, got):
                assert logits.tobytes() == spec_order_forward(m, params, images).tobytes()

    def test_mixed_dtypes_refused(self, rng):
        m = network.build_scaled_cnn((10, 10, 1), [3], 2, dense_units=5)
        sets = [network.init_params(m, 0), network.init_params(m, 1, dtype=np.float64)]
        images = rng.uniform(size=(2, 10, 10, 1))
        with pytest.raises(InputError, match="mix dtypes"):
            network.predict_probs(m, sets, images)
        with pytest.raises(InputError, match="mix dtypes"):
            network.forward_batch(m, sets, images)
        with pytest.raises(InputError, match="no parameter sets"):
            network.predict_probs(m, [], images)
        # one dict of two dtypes is refused by both, as two sets are
        mixed = {**sets[0], "dense/b": sets[1]["dense/b"]}
        for run in (network.predict_probs, network.forward_batch):
            with pytest.raises(InputError, match="mix dtypes"):
                run(m, [mixed], images)
        with pytest.raises(InputError, match="mix dtypes"):
            network.forward_batch(m, mixed, images)

    def test_takes_only_a_sequence(self, rng):
        m = network.build_scaled_cnn((10, 10, 1), [3], 2, dense_units=5)
        with pytest.raises(InputError, match="sequence of parameter dicts"):
            network.predict_probs(m, network.init_params(m, 0), rng.uniform(size=(2, 10, 10, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_images(self, dtype):
        # forward_batch refuses an empty batch; predict_probs gives [M, 0, C]
        m = network.build_scaled_cnn((10, 10, 1), [3], 2, dense_units=5)
        sets = perturbed_sets(m, 3, dtype)
        got = network.predict_probs(m, sets, np.zeros((0, 10, 10, 1)))
        assert got.shape == (3, 0, 2) and got.dtype == dtype
        with pytest.raises(DimensionError):
            network.predict_probs(m, sets, np.zeros((0, 10, 10, 2)))
        with pytest.raises(InputError, match="no images"):
            network.forward_batch(m, sets, np.zeros((0, 10, 10, 1)))

    def test_model_without_parameters_predicts_floats(self):
        m = network.ModelSpec((1, 1, 3), (network.flat(),), 3)
        images = np.arange(6).reshape(2, 1, 1, 3)
        got = network.predict_probs(m, [{}], images)
        assert got.dtype == np.float64
        assert got[0].tobytes() == layers.softmax(images.reshape(2, 3)).tobytes()


class TestBiasAfterPool:
    """Forward-only, a conv that feeds a pool leaves its bias to the pool,
    which adds it after its max, with the same bytes; training keeps the
    bias in the conv (`test_layers.TestBiasAfterPool` has why)."""

    NET = network.build_scaled_cnn((12, 12, 1), [3, 4], 2, dense_units=5)

    def spy_args(self, monkeypatch, names, run):
        """(kernel, arguments after the input) per call run() makes to names."""
        seen = []
        with monkeypatch.context() as patch:
            for name in names:
                def spy(x, *args, _kernel=getattr(layers, name), _name=name):
                    seen.append((_name, args))
                    return _kernel(x, *args)

                patch.setattr(layers, name, spy)
            run()
        return seen

    def test_every_forward_only_pool_adds_its_conv_bias(self, rng, monkeypatch):
        sets = perturbed_sets(self.NET, 3, np.float32)
        images = rng.uniform(size=(5, 12, 12, 1)).astype(np.float32)
        wide = np.concatenate([params["conv2d/b"] for params in sets])
        runs = {  # the wide first stage on chunks of 2, 2 and 1 images, then each set
            "predict_probs": (lambda: network.predict_probs(self.NET, sets, images),
                              [wide] * 3 + [params["conv2d_1/b"] for params in sets]),
            "one dict": (lambda: network.forward_batch(self.NET, sets[1], images),
                         [sets[1]["conv2d/b"], sets[1]["conv2d_1/b"]]),
        }
        for what, (run, biases) in runs.items():
            seen = self.spy_args(monkeypatch, ("conv2d_forward", "maxpool2d_forward"), run)
            assert [name for name, _ in seen] == ["conv2d_forward", "maxpool2d_forward"] * len(
                biases), what
            for (_, conv_args), (_, pool_args), bias in zip(seen[::2], seen[1::2], biases):
                kernels, *options = conv_args
                assert options == [1, True, False], what  # stride, corners, no bias add
                assert kernels.bias.tobytes() == pool_args[0].tobytes() == bias.tobytes(), what

    def test_no_training_conv_leaves_its_bias(self, rng, monkeypatch):
        params = perturbed_sets(self.NET, 1, np.float32)[0]
        images = rng.uniform(size=(5, 12, 12, 1)).astype(np.float32)
        seen = self.spy_args(monkeypatch, ("conv2d_vjp", "maxpool2d_vjp"),
                             lambda: network.forward_vjp(self.NET, params, images))
        assert [name for name, _ in seen] == ["conv2d_vjp", "maxpool2d_vjp"] * 2
        for name, (_, args) in zip(("conv2d", "conv2d_1"), seen[::2]):
            assert args[1:] == (1, True) and args[0].bias is params[f"{name}/b"]
        assert [args for _, args in seen[1::2]] == [(), ()]

    def test_a_narrower_batch_runs_at_the_parameters_dtype(self, rng):
        # as predict_probs casts its images: every conv sums and rounds once,
        # in the parameters' dtype, before its pool adds the bias
        sets = perturbed_sets(self.NET, 2, np.float64)
        images = rng.uniform(size=(4, 12, 12, 1)).astype(np.float32)
        wide = images.astype(np.float64)
        assert network.forward_batch(self.NET, sets, images).tobytes() == \
            network.forward_batch(self.NET, sets, wide).tobytes()
        for params, logits in zip(sets, network.forward_batch(self.NET, sets, images)):
            assert logits.tobytes() == spec_order_forward(self.NET, params, wide).tobytes()


class TestTrainingBytes:
    """network.training_bytes: the im2col matrices a training step keeps,
    the parameters and both Adam moments, and the largest gradient piece
    one layer holds."""

    NETS = {
        "desk": (network.build_scaled_cnn((32, 32, 1), (8, 16), 5, dense_units=64), 32),
        "paper": (network.build_paper_cnn(5), 8),
        # a strided conv and a relu before its pool; a conv without a pool
        # (every row kept); a conv straight into a pool
        "odd": (network.ModelSpec((41, 37, 2), (
            network.conv(4, 3, 6, stride=2), network.relu(), network.pool(),
            network.conv(2, 2, 5), network.relu(), network.conv(3, 3, 7), network.pool(),
            network.relu(), network.flat(), network.dense(9), network.relu(),
            network.dense(3)), 3), 13),
    }

    def test_counts_by_hand(self):
        # paper at batch 8: the four convs' corner rows times kh*kw*Cin (the
        # odd last row and column of conv2d_1 dropped), 3 x 9,683,658 values,
        # and conv2d_3's weight and bias gradients, 3*3*128*128 + 128, which
        # outweigh a 128-row block of the dense weight's, 128*512 + 512
        paper = network.training_bytes(network.build_paper_cnn(10), 8, np.float32)
        cols = 222 * 222 * 27 + 108 * 108 * 288 + 52 * 52 * 576 + 24 * 24 * 1152
        assert paper == (8 * cols + 3 * 9_683_658 + 3 * 3 * 128 * 128 + 128) * 4
        odd, batch = self.NETS["odd"]
        cols = 18 * 18 * 4 * 3 * 2 + 8 * 8 * 2 * 2 * 6 + 6 * 6 * 3 * 3 * 5
        # the largest piece is the whole first dense layer's, 63*9 + 9
        assert network.training_bytes(odd, batch, np.float64) == (
            batch * cols + 3 * network.count_params(odd) + 63 * 9 + 9) * 8

    def test_a_dense_piece_is_one_block_of_rows(self, monkeypatch):
        odd, batch = self.NETS["odd"]
        whole = network.training_bytes(odd, batch, np.float64)
        monkeypatch.setattr(layers, "BLOCK_VALUES", 20)  # 2 rows of 9; conv2d_2's 315 + 7 lead
        assert whole - network.training_bytes(odd, batch, np.float64) == (576 - 322) * 8

    # The estimate leaves out activations, masks and the backward's own
    # arrays.  It read 0.69-0.71 (desk), 0.80-0.82 (odd) and 0.94 (paper)
    # of the traced peak, so it is held to [0.6, 1.0] of it.
    @pytest.mark.parametrize("net, dtype", [
        ("desk", np.float32), ("desk", np.float64), ("odd", np.float32), ("odd", np.float64),
        ("paper", np.float32)])
    def test_against_a_traced_training_step(self, rng, net, dtype):
        # the step train_submodel takes: Adam driving the backward
        model, batch = self.NETS[net]
        images = rng.uniform(size=(batch, *model.input_shape)).astype(dtype)
        labels = np.arange(batch) % model.n_classes
        tracemalloc.start()
        try:
            params = network.init_params(model, seed=1, dtype=dtype)
            state = training.AdamState.fresh(params)
            logits, backward = network.forward_vjp(model, params, images)
            _, _, dlogits = training.softmax_cce(logits, labels)
            training.adam_step(params, functools.partial(backward, dlogits), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = network.training_bytes(model, batch, dtype)
        assert 0.6 * peak <= estimate <= peak
