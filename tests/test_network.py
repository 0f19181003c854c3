import numpy as np
import pytest

from baggedcnn import layers, network
from baggedcnn.errors import BuildError, DimensionError
from conftest import max_rel_err, numeric_grad

FULLSIZE_TRACE = [
    (222, 222, 32), (111, 111, 32), (109, 109, 64), (54, 54, 64),
    (52, 52, 128), (26, 26, 128), (24, 24, 128), (12, 12, 128),
    (18432,), (512,), (10,),
]


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


class TestScaledCnn:
    def test_constructive(self):
        m = network.build_scaled_cnn((32, 32, 1), [8, 16], 5)
        shapes = network.infer_shapes(m)
        assert all(all(s >= 1 for s in shape) for shape in shapes)
        assert shapes[-1] == (5,)

    def test_dimension_underflow(self):
        with pytest.raises(BuildError):
            network.build_scaled_cnn((4, 4, 1), [4, 8, 16], 5)

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


class TestBackwardSkipsBatchGradient:
    def full_backward_grads(self, m, params, batch, up):
        """Every layer's backward in full, layer 0's input gradient included."""
        x, tape = batch, []
        for layer, name in zip(m.layers, network.layer_names(m)):
            if layer.kind == "conv2d":
                ks = layers.ConvKernelSet(params[f"{name}/w"], params[f"{name}/b"])
                x, bwd = layers.conv2d_vjp(x, ks, layer.stride)
            elif layer.kind == "dense":
                x, bwd = layers.dense_vjp(x, params[f"{name}/w"], params[f"{name}/b"])
            else:
                x, bwd = getattr(layers, f"{layer.kind}_vjp")(x)
            tape.append((layer.kind, name, bwd))
        grads, g = {}, up
        for kind, name, bwd in reversed(tape):
            if kind in ("conv2d", "dense"):
                g, grads[f"{name}/w"], grads[f"{name}/b"] = bwd(g)
            else:
                g = bwd(g)
        assert g.shape == batch.shape
        return grads

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
        full = self.full_backward_grads(m, params, batch, up)
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


class TestForwardChunks:
    """forward_batch runs the image layers of a large batch in chunks."""

    def model(self):
        return network.ModelSpec((11, 13, 2), (
            network.pool(), network.conv(3, 3, 5), network.relu(), network.conv(2, 2, 4, stride=2),
            network.relu(), network.flat(), network.dense(6), network.relu(),
            network.dense(3)), 3)

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
