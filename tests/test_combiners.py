import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baggedcnn import bagging, combiners, forest, network, training
from baggedcnn.errors import DimensionError, InputError


def prob_tensor(n_models, b, c):
    return hnp.arrays(np.float64, (n_models, b, c),
                      elements=st.floats(0.01, 1.0)).map(
        lambda a: a / a.sum(axis=2, keepdims=True))


class TestMetaFeatures:
    def test_column_order(self):
        probs = np.zeros((2, 1, 3))
        probs[0, 0] = [0.1, 0.2, 0.7]
        probs[1, 0] = [0.5, 0.3, 0.2]
        feats = combiners.meta_features(probs)
        assert feats.shape == (1, 6)
        assert feats[0].tolist() == [0.1, 0.2, 0.7, 0.5, 0.3, 0.2]


class TestAverage:
    def test_single_model(self):
        probs = np.array([[[0.2, 0.8], [0.9, 0.1]]])
        assert combiners.combine_average(probs).tolist() == [1, 0]

    def test_hand_mean(self):
        probs = np.array([[[0.6, 0.4]], [[0.2, 0.8]]])
        assert combiners.combine_average(probs).tolist() == [1]

    def test_exact_tie_lowest_index(self):
        probs = np.array([[[0.5, 0.5]]])
        assert combiners.combine_average(probs).tolist() == [0]


class TestVote:
    def test_unanimity(self):
        probs = np.zeros((3, 2, 4))
        probs[:, :, 2] = 1.0
        assert combiners.combine_vote(probs).tolist() == [2, 2]

    def test_plurality(self):
        probs = np.zeros((3, 1, 3))
        probs[0, 0] = [0.0, 1.0, 0.0]
        probs[1, 0] = [0.0, 1.0, 0.0]
        probs[2, 0] = [0.0, 0.0, 1.0]
        assert combiners.combine_vote(probs).tolist() == [1]

    def test_two_way_tie_lowest_index(self):
        probs = np.zeros((2, 1, 2))
        probs[0, 0] = [1.0, 0.0]
        probs[1, 0] = [0.0, 1.0]
        assert combiners.combine_vote(probs).tolist() == [0]

    def test_ties_across_rows(self):
        # per-row votes of four models: a four-way tie, a two-way tie, unanimity
        votes = [(2, 3, 3), (1, 2, 3), (3, 3, 3), (0, 2, 3)]
        probs = np.zeros((4, 3, 4))
        for m, row_votes in enumerate(votes):
            probs[m, [0, 1, 2], row_votes] = 1.0
        assert combiners.combine_vote(probs).tolist() == [0, 2, 3]

    @settings(max_examples=30, deadline=None)
    @given(prob_tensor(4, 6, 3))
    def test_matches_per_row_bincount(self, probs):
        votes = probs.argmax(axis=2)
        expected = [np.bincount(votes[:, b], minlength=3).argmax() for b in range(6)]
        assert combiners.combine_vote(probs).tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(prob_tensor(3, 4, 3), st.floats(1.5, 4.0))
    def test_sharpening_invariance(self, probs, power):
        sharp = probs**power
        sharp /= sharp.sum(axis=2, keepdims=True)
        assert np.array_equal(combiners.combine_vote(probs), combiners.combine_vote(sharp))


class TestCombinerProperties:
    @settings(max_examples=30, deadline=None)
    @given(prob_tensor(4, 5, 3))
    def test_agree_when_argmaxes_agree(self, probs):
        argmaxes = probs.argmax(axis=2)
        mask = (argmaxes == argmaxes[0]).all(axis=0)
        avg = combiners.combine_average(probs)
        vote = combiners.combine_vote(probs)
        assert np.array_equal(avg[mask], vote[mask])

    @settings(max_examples=20, deadline=None)
    @given(prob_tensor(3, 6, 4), st.randoms(use_true_random=False))
    def test_batch_permutation_invariance(self, probs, rnd):
        perm = np.array(rnd.sample(range(6), 6))
        for fn in (combiners.combine_average, combiners.combine_vote):
            assert np.array_equal(fn(probs)[perm], fn(probs[:, perm, :]))


def tiny_ensemble(rng, n=30):
    images = rng.uniform(0, 0.3, size=(n, 16, 16, 1)).astype(np.float32)
    labels = (np.arange(n) % 2).astype(np.int64)
    for i in range(n):
        if labels[i]:
            images[i, 4:12, 4:12, 0] += 0.6
    model = network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)
    ens, _, _ = bagging.train_ensemble(
        images, labels, model, bagging.BaggingConfig(n_models=2, seed=0),
        training.TrainConfig(epochs=8))
    return ens, images, labels


class TestStacking:
    def test_fit_and_predict(self, rng):
        ens, images, labels = tiny_ensemble(rng)
        rf = combiners.fit_stacking(ens, images, labels, n_trees=20, max_depth=6, seed=0)
        probs = bagging.ensemble_predict_probs(ens, images)
        preds = combiners.combine_stacking(rf, probs)
        # sub-models solve this set; the stacker should too
        assert (preds == labels).mean() >= 0.9

    def test_single_model_stacking_reads_argmax(self, rng):
        # one perfectly confident sub-model: forest reduces to an argmax reader
        probs = np.zeros((1, 40, 2))
        labels = np.arange(40) % 2
        probs[0, labels == 0, 0] = 1.0
        probs[0, labels == 1, 1] = 1.0
        feats = combiners.meta_features(probs)
        rf = forest.fit_forest(feats, labels, n_trees=5, max_depth=2, seed=0)
        assert np.array_equal(combiners.combine_stacking(rf, probs), labels)

    def test_feature_count_mismatch(self, rng):
        feats = rng.uniform(size=(20, 4))
        rf = forest.fit_forest(feats, np.arange(20) % 2, n_trees=2, max_depth=2, seed=0)
        with pytest.raises(DimensionError):
            combiners.combine_stacking(rf, np.zeros((3, 5, 2)))

    def test_empty_split(self, rng):
        ens, _, _ = tiny_ensemble(rng, n=20)
        with pytest.raises(InputError):
            combiners.fit_stacking(ens, np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int))

    def test_deterministic(self, rng):
        ens, images, labels = tiny_ensemble(rng, n=20)
        rf1 = combiners.fit_stacking(ens, images, labels, n_trees=10, seed=3)
        rf2 = combiners.fit_stacking(ens, images, labels, n_trees=10, seed=3)
        probs = bagging.ensemble_predict_probs(ens, images)
        assert np.array_equal(combiners.combine_stacking(rf1, probs),
                              combiners.combine_stacking(rf2, probs))
