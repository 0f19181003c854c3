import numpy as np
import pytest

from baggedcnn import bagging, network, training
from baggedcnn.errors import DimensionError, InputError
from baggedcnn.layers import softmax


class TestBootstrapSample:
    def test_single_element(self):
        rng = np.random.default_rng(0)
        bag, oob = bagging.bootstrap_sample(1, 1.0, rng)
        assert bag.tolist() == [0]
        assert oob.size == 0

    def test_bag_size_is_round_ratio_n(self):
        rng = np.random.default_rng(0)
        for n, ratio in [(10, 1.0), (10, 0.65), (7, 0.5), (100, 0.333)]:
            bag, _ = bagging.bootstrap_sample(n, ratio, rng)
            assert len(bag) == int(round(ratio * n))
            assert bag.min() >= 0 and bag.max() < n

    def test_oob_fraction_full_ratio(self):
        # classical bootstrap: expected OOB fraction tends to 1/e ~ 0.368
        fracs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, oob = bagging.bootstrap_sample(10_000, 1.0, rng)
            fracs.append(len(oob) / 10_000)
        assert 0.358 <= np.mean(fracs) <= 0.378

    def test_oob_fraction_partial_ratio(self):
        # (1 - 1/n)^(0.7 n) -> e^-0.7 ~ 0.4966
        fracs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, oob = bagging.bootstrap_sample(10_000, 0.7, rng)
            fracs.append(len(oob) / 10_000)
        assert abs(np.mean(fracs) - np.exp(-0.7)) < 0.01

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            bagging.bootstrap_sample(0, 1.0, rng)
        with pytest.raises(InputError):
            bagging.bootstrap_sample(5, 1.5, rng)


def tiny_setup(rng, n=40):
    images = rng.uniform(0, 0.3, size=(n, 16, 16, 1)).astype(np.float32)
    labels = (np.arange(n) % 2).astype(np.int64)
    for i in range(n):
        if labels[i]:
            images[i, 4:12, 4:12, 0] += 0.6
    model = network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)
    return images, labels, model


class TestTrainEnsemble:
    def test_exact_submodel_count(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=3, bagging_ratio=0.7, seed=1)
        ens, assignment, hists = bagging.train_ensemble(
            x, y, model, bag_cfg, training.TrainConfig(epochs=1))
        assert ens.n_models == 3
        assert len(assignment.bags) == 3
        assert len(hists) == 3

    def test_degenerate_single_model(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=1, bagging_ratio=1.0, seed=5)
        ens, assignment, _ = bagging.train_ensemble(
            x, y, model, bag_cfg, training.TrainConfig(epochs=1))
        bag = assignment.bags[0]
        cfg = training.TrainConfig(epochs=1, seed=bagging.submodel_seed(5, 0))
        ref, _ = training.train_submodel(model, x[bag], y[bag], cfg)
        assert all(np.array_equal(ens.param_sets[0][k], ref[k]) for k in ref)

    def test_each_submodel_equals_train_submodel(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=3, bagging_ratio=0.8, seed=2)
        tc = training.TrainConfig(epochs=2, batch_size=16)
        ens, assignment, hists = bagging.train_ensemble(x, y, model, bag_cfg, tc)
        for k, bag in enumerate(assignment.bags):
            cfg = training.TrainConfig(epochs=2, batch_size=16,
                                       seed=bagging.submodel_seed(2, k))
            ref, ref_hist = training.train_submodel(model, x[bag], y[bag], cfg)
            assert list(ens.param_sets[k]) == list(ref)
            assert all(ens.param_sets[k][n].tobytes() == ref[n].tobytes() for n in ref), k
            assert hists[k].train_loss == ref_hist.train_loss

    def test_training_is_bag_local(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=2, bagging_ratio=0.6, seed=3)
        assignment = bagging.assign_bags(len(y), bag_cfg)
        oob = assignment.oobs[0]
        assert oob.size > 0
        tc = training.TrainConfig(epochs=1)
        e1, _, _ = bagging.train_ensemble(x, y, model, bag_cfg, tc)
        x2 = x.copy()
        x2[oob[0]] = 0.0  # perturb a sample sub-model 0 never sees
        e2, _, _ = bagging.train_ensemble(x2, y, model, bag_cfg, tc)
        p1, p2 = e1.param_sets[0], e2.param_sets[0]
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_empty_dataset(self, rng):
        _, _, model = tiny_setup(rng)
        with pytest.raises(InputError):
            bagging.train_ensemble(np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int), model,
                                   bagging.BaggingConfig(n_models=1),
                                   training.TrainConfig(epochs=1))

    def test_error_carries_model_index(self, rng):
        x, y, model = tiny_setup(rng)
        y = y.copy()
        y[0] = 7  # out of range for a 2-class model
        bag_cfg = bagging.BaggingConfig(n_models=2, bagging_ratio=1.0, seed=0)
        with pytest.raises(Exception, match="sub-model"):
            bagging.train_ensemble(x, y, model, bag_cfg, training.TrainConfig(epochs=1))

    def test_foreign_error_propagates_unchanged(self, rng, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        raised = TwoArgError(7, "disk full")

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(training, "train_submodel", fail)
        x, y, model = tiny_setup(rng)
        with pytest.raises(TwoArgError) as info:
            bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=2),
                                   training.TrainConfig(epochs=1))
        assert info.value is raised


class TestEnsemblePredictProbs:
    @pytest.fixture
    def ensemble(self, rng):
        x, y, model = tiny_setup(rng, n=20)
        ens, _, _ = bagging.train_ensemble(
            x, y, model, bagging.BaggingConfig(n_models=2, seed=0),
            training.TrainConfig(epochs=1))
        return ens, x

    def test_shape_and_rows_sum_to_one(self, ensemble):
        ens, x = ensemble
        probs = bagging.ensemble_predict_probs(ens, x[:7])
        assert probs.shape == (2, 7, 2)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-5)
        empty = bagging.ensemble_predict_probs(ens, x[:0])
        assert empty.shape == (2, 0, 2) and empty.dtype == np.float64

    def test_single_model_matches_forward(self, ensemble, rng):
        ens, x = ensemble
        from baggedcnn.layers import softmax
        from baggedcnn import network as net
        probs = bagging.ensemble_predict_probs(ens, x[:4])
        direct = softmax(net.forward_batch(ens.model, ens.param_sets[0], x[:4]))
        assert np.allclose(probs[0], direct)

    def test_batch_permutation_equivariance(self, ensemble, rng):
        ens, x = ensemble
        perm = rng.permutation(8)
        a = bagging.ensemble_predict_probs(ens, x[:8])
        b = bagging.ensemble_predict_probs(ens, x[:8][perm])
        assert np.allclose(a[:, perm, :], b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [65, 129, 200])
    def test_predicts_in_64_image_slices(self, n, dtype):
        # A whole-set pass rounds some rows differently, so the slicing is part
        # of the output: pin it byte for byte on a desk-shaped net whose
        # weights are perturbed off the zero-initialised head.
        model = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)
        rng = np.random.default_rng(n)
        param_sets = []
        for seed in range(2):
            params = network.init_params(model, seed, dtype=dtype)
            param_sets.append({k: (v + rng.normal(0, 0.05, v.shape)).astype(dtype)
                               for k, v in params.items()})
        ens = bagging.EnsembleModel(model=model, param_sets=param_sets)
        x = rng.uniform(size=(n, 32, 32, 1)).astype(dtype)
        probs = bagging.ensemble_predict_probs(ens, x)
        assert probs.dtype == np.float64 and probs.shape == (2, n, 5)
        for m, params in enumerate(param_sets):
            sliced = np.concatenate([softmax(network.forward_batch(model, params, x[lo:lo + 64]))
                                     for lo in range(0, n, 64)])
            assert probs[m].tobytes() == sliced.astype(np.float64).tobytes()

    def test_mixed_dtypes_refused(self, ensemble):
        # the sub-models share one wide first conv, which would upcast float32
        ens, x = ensemble
        ens.param_sets[0] = {k: v.astype(np.float64) for k, v in ens.param_sets[0].items()}
        with pytest.raises(InputError, match="mix dtypes"):
            bagging.ensemble_predict_probs(ens, x[:4])

    def test_shape_mismatch(self, ensemble):
        ens, _ = ensemble
        with pytest.raises(DimensionError):
            bagging.ensemble_predict_probs(ens, np.zeros((2, 8, 8, 1)))

    def test_n_classes_follows_the_model(self, rng):
        # the class count is read from the model, so it cannot disagree with
        # the width of the logits
        model = network.build_scaled_cnn((8, 8, 1), [2], 5, dense_units=3)
        ens = bagging.EnsembleModel(model=model, param_sets=[network.init_params(model, 0)])
        assert ens.n_classes == 5
        probs = bagging.ensemble_predict_probs(ens, rng.uniform(size=(2, 8, 8, 1)))
        assert probs.shape == (1, 2, 5)
        with pytest.raises(TypeError):
            bagging.EnsembleModel(model=model, param_sets=[], n_classes=3)

    def test_bag_csv(self, ensemble, tmp_path, rng):
        x, y, model = tiny_setup(rng, n=10)
        _, assignment, _ = bagging.train_ensemble(
            x, y, model, bagging.BaggingConfig(n_models=2, seed=0),
            training.TrainConfig(epochs=0))
        path = tmp_path / "bags.csv"
        assignment.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,sample_indices"
        assert len(lines) == 3
