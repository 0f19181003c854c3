import math

import numpy as np
import pytest

from baggedcnn import network, training
from baggedcnn.errors import InputError, LabelError, NumericError
from baggedcnn.layers import softmax
from conftest import max_rel_err, numeric_grad


class TestSparseCce:
    def test_perfect_predictions(self):
        probs = np.eye(3)
        assert training.sparse_cce(probs, [0, 1, 2]) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_predictions(self):
        probs = np.full((4, 5), 0.2)
        assert training.sparse_cce(probs, [0, 1, 2, 3]) == pytest.approx(math.log(5))

    def test_hand_batch_mean(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (-math.log(0.5) - math.log(0.75)) / 2
        assert training.sparse_cce(probs, [0, 1]) == pytest.approx(expected)
        assert expected == pytest.approx(0.49041, abs=1e-5)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError, match="index 1"):
            training.sparse_cce(np.full((2, 3), 1 / 3), [0, 3])

    def test_confident_wrong_is_finite(self):
        probs = np.array([[1.0, 0.0]])
        loss = training.sparse_cce(probs, [1])
        assert np.isfinite(loss)


class TestFusedSoftmaxCce:
    def test_gradient_formula(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        _, probs, dlogits = training.softmax_cce(logits, labels)
        onehot = np.eye(3)[labels]
        assert np.allclose(dlogits, (probs - onehot) / 4)

    def test_finite_difference_oracle(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        _, _, dlogits = training.softmax_cce(logits, labels)

        def loss():
            return training.sparse_cce(softmax(logits), labels)

        assert max_rel_err(dlogits, numeric_grad(loss, logits), floor=1e-3) < 1e-6


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = training.AdamState.fresh(params)
        grads = {"w": np.zeros(3)}
        for _ in range(5):
            params, state = training.adam_step(params, grads, state)
        assert params["w"].tolist() == [1.0, -2.0, 3.0]

    def test_first_step_hand_values(self):
        params = {"w": np.array([0.0])}
        state = training.AdamState.fresh(params)
        params, state = training.adam_step(params, {"w": np.array([1.0])}, state)
        assert state.t == 1
        assert state.m["w"][0] == pytest.approx(0.1)
        assert state.v["w"][0] == pytest.approx(0.001)
        assert params["w"][0] == pytest.approx(-0.001 / math.sqrt(1 + 1e-8), rel=1e-12)

    def test_matches_scalar_reference(self):
        # independent plain-python evaluation of the update recurrences
        def scalar_adam(grad_seq, eta=0.001, b1=0.9, b2=0.999, eps=1e-8):
            theta, m, v = 0.5, 0.0, 0.0
            out = []
            for t, g in enumerate(grad_seq, start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                theta = theta - eta / math.sqrt(vhat + eps) * mhat
                out.append(theta)
            return out

        grad_seq = [1.0, 1.0, -0.5, 2.0, 0.0, 0.3]
        params = {"w": np.array([0.5])}
        state = training.AdamState.fresh(params)
        ours = []
        for g in grad_seq:
            params, state = training.adam_step(params, {"w": np.array([g])}, state)
            ours.append(params["w"][0])
        ref = scalar_adam(grad_seq)
        assert np.allclose(ours, ref, rtol=0, atol=1e-12)

    def test_nonfinite_gradient_raises(self):
        params = {"w": np.zeros(2)}
        state = training.AdamState.fresh(params)
        with pytest.raises(NumericError, match="w"):
            training.adam_step(params, {"w": np.array([1.0, np.nan])}, state)

    def test_v_stays_nonnegative(self, rng):
        params = {"w": rng.normal(size=8)}
        state = training.AdamState.fresh(params)
        for _ in range(10):
            params, state = training.adam_step(params, {"w": rng.normal(size=8)}, state)
        assert np.all(state.v["w"] >= 0)


def reference_adam_step(params, grads, state):
    """The unfused update, one temporary per operation: the reference for
    the in-place adam_step."""
    state.t += 1
    t = state.t
    b1, b2 = state.beta1, state.beta2
    out = {}
    for key, theta in params.items():
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.square(g)
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        out[key] = (theta - state.eta * mhat / np.sqrt(vhat + state.epsilon)).astype(
            theta.dtype, copy=False
        )
    return out, state


class TestFusedAdamMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_over_steps(self, rng, dtype):
        shapes = {"conv/w": (3, 3, 2, 4), "conv/b": (4,), "dense/w": (40, 3), "dense/b": (3,)}
        params = {k: rng.normal(size=sh).astype(dtype) for k, sh in shapes.items()}
        fused, ref = params, dict(params)
        fused_state = training.AdamState.fresh(params, eta=0.01)
        ref_state = training.AdamState.fresh(params, eta=0.01)
        scales = [1.0, 0.0, 1e-30, 1e-3, 5.0, 0.0, 1e-20, 1.0]  # zero and tiny steps
        for step, scale in enumerate(scales):
            grads = {k: (scale * rng.normal(size=sh)).astype(dtype) for k, sh in shapes.items()}
            grads["dense/b"][0] = 0.0
            before = {k: (theta.copy(), grads[k].copy()) for k, theta in fused.items()}
            fused_in = fused
            fused, fused_state = training.adam_step(fused, grads, fused_state)
            ref, ref_state = reference_adam_step(ref, grads, ref_state)
            assert fused_state.t == ref_state.t == step + 1
            for k in shapes:
                assert fused[k].dtype == dtype, k
                assert fused[k].tobytes() == ref[k].tobytes(), (step, k)
                assert fused_state.m[k].tobytes() == ref_state.m[k].tobytes(), (step, k)
                assert fused_state.v[k].tobytes() == ref_state.v[k].tobytes(), (step, k)
                # neither the caller's parameters nor its gradients are written
                assert fused_in[k].tobytes() == before[k][0].tobytes(), (step, k)
                assert grads[k].tobytes() == before[k][1].tobytes(), (step, k)
                assert fused[k] is not fused_in[k]

    def test_nonfinite_gradient_leaves_moments_untouched(self):
        params = {"a": np.ones(3), "b": np.ones(2)}
        state = training.AdamState.fresh(params)
        params, state = training.adam_step(params, {"a": np.ones(3), "b": np.ones(2)}, state)
        m, v = state.m["a"].copy(), state.v["a"].copy()
        with pytest.raises(NumericError, match="'a'"):
            training.adam_step(params, {"a": np.array([1.0, np.inf, 0.0]), "b": np.ones(2)},
                               state)
        assert state.m["a"].tobytes() == m.tobytes() and state.v["a"].tobytes() == v.tobytes()


def separable_dataset(rng, n=200, size=16):
    """Two classes distinguished by a bright vs dark center patch."""
    images = rng.uniform(0, 0.3, size=(n, size, size, 1)).astype(np.float32)
    labels = np.arange(n) % 2
    for i in range(n):
        if labels[i] == 1:
            images[i, 4:12, 4:12, 0] += 0.6
    return images, labels


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("eta", -0.01), ("eta", 0.0), ("eta", math.nan), ("eta", math.inf),
        ("epsilon", 0.0), ("epsilon", -1e-8), ("epsilon", math.nan),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", -0.1),
        ("epochs", 1.5), ("epochs", -1), ("epochs", "2"),
        ("batch_size", 2.5), ("batch_size", 0), ("batch_size", None),
        ("seed", -1), ("seed", 1.5), ("seed", "0"),
    ])
    def test_out_of_range_refused(self, field, value):
        with pytest.raises(InputError, match=field):
            training.TrainConfig(**{field: value})

    def test_edges_and_numpy_integers_accepted(self):
        cfg = training.TrainConfig(epochs=np.int64(0), batch_size=np.int32(1), beta1=0.0,
                                   beta2=0.0, eta=np.float32(1e-3), seed=np.uint32(0))
        assert cfg.epochs == 0 and cfg.batch_size == 1 and cfg.seed == 0


class TestTrainSubmodel:
    @pytest.fixture
    def tiny_model(self):
        return network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)

    def test_zero_epochs_returns_init(self, tiny_model, rng):
        x, y = separable_dataset(rng, n=20)
        cfg = training.TrainConfig(epochs=0, seed=9)
        params, history = training.train_submodel(tiny_model, x, y, cfg)
        init = network.init_params(tiny_model, 9, dtype=x.dtype)
        assert all(np.array_equal(params[k], init[k]) for k in params)
        assert history.train_loss == []

    def test_deterministic(self, tiny_model, rng):
        x, y = separable_dataset(rng, n=40)
        cfg = training.TrainConfig(epochs=2, seed=4)
        p1, h1 = training.train_submodel(tiny_model, x, y, cfg)
        p2, h2 = training.train_submodel(tiny_model, x, y, cfg)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        assert h1.train_loss == h2.train_loss

    def test_learns_separable_set(self, tiny_model, rng):
        x, y = separable_dataset(rng, n=200)
        cfg = training.TrainConfig(epochs=20, seed=0)
        params, history = training.train_submodel(tiny_model, x, y, cfg)
        assert max(history.train_acc) >= 0.95

    def test_first_epoch_loss_near_log_c(self, rng):
        # balanced random-labels set: initial loss should sit near ln C
        model = network.build_scaled_cnn((16, 16, 1), [4], 4, dense_units=8)
        x = rng.uniform(size=(80, 16, 16, 1)).astype(np.float32)
        y = np.arange(80) % 4
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=0)
        _, history = training.train_submodel(model, x, y, cfg)
        assert abs(history.train_loss[0] - math.log(4)) / math.log(4) < 0.1

    def test_empty_dataset(self, tiny_model):
        with pytest.raises(InputError):
            training.train_submodel(tiny_model, np.zeros((0, 16, 16, 1)), [],
                                    training.TrainConfig(epochs=1))

    @pytest.mark.parametrize("n_images", [10, 20])
    def test_images_and_labels_differ_in_length(self, tiny_model, n_images):
        # fewer images once indexed past the end, more trained on a prefix
        with pytest.raises(InputError, match=f"{n_images} images but 12 labels"):
            training.train_submodel(tiny_model, np.zeros((n_images, 16, 16, 1), np.float32),
                                    np.arange(12) % 2, training.TrainConfig(epochs=1))

    def test_integer_images_refused(self, tiny_model):
        # uint8 parameters would follow the images' dtype into Adam
        with pytest.raises(InputError, match="floating point"):
            training.train_submodel(tiny_model, np.zeros((4, 16, 16, 1), np.uint8),
                                    np.arange(4) % 2, training.TrainConfig(epochs=1))

    def test_evaluate_empty_set(self, tiny_model):
        params = network.init_params(tiny_model, 0)
        with pytest.raises(InputError, match="empty"):
            training.evaluate(tiny_model, params, np.zeros((0, 16, 16, 1), np.float32), [])

    def test_history_csv(self, tiny_model, rng, tmp_path):
        x, y = separable_dataset(rng, n=20)
        cfg = training.TrainConfig(epochs=2, seed=0)
        _, history = training.train_submodel(tiny_model, x, y, cfg, val=(x, y))
        path = tmp_path / "hist.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3


def reference_evaluate(model, params, images, labels):
    """evaluate as a plain 64-image slice loop, the loss summed per slice."""
    losses, correct = [], 0
    for lo in range(0, len(labels), 64):
        yb = labels[lo:lo + 64]
        probs = softmax(network.forward_batch(model, params, images[lo:lo + 64]))
        losses.append(training.sparse_cce(probs, yb) * len(yb))
        correct += int((probs.argmax(axis=1) == yb).sum())
    return sum(losses) / len(labels), correct / len(labels)


class TestEvaluate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
    def test_matches_the_slice_loop(self, n, dtype):
        # a mean over the whole set would round differently from the
        # per-slice sums, so pin (loss, accuracy) byte for byte
        model = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)
        rng = np.random.default_rng(n)
        params = {k: (v + rng.normal(0, 0.05, v.shape)).astype(dtype)
                  for k, v in network.init_params(model, 0, dtype=dtype).items()}
        x = rng.uniform(size=(n, 32, 32, 1)).astype(dtype)
        y = rng.integers(0, 5, size=n)
        got = training.evaluate(model, params, x, y)
        want = reference_evaluate(model, params, x, y)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_count_mismatch(self):
        model = network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)
        params = network.init_params(model, 0)
        with pytest.raises(InputError, match="3 images but 2 labels"):
            training.evaluate(model, params, np.zeros((3, 16, 16, 1), np.float32), [0, 1])
