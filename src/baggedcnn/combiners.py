"""Sub-model aggregation: probability averaging, plurality voting, and
stacking with a random-forest meta-model over concatenated probabilities.

All argmax/plurality ties break to the lowest class index.
"""

import numpy as np

from . import bagging, forest
from .errors import DimensionError, InputError

COMBINERS = ("average", "vote", "stacking")


def _model_probs(probs):
    """probs as an array, or DimensionError unless it is [n_models, B, C]."""
    probs = np.asarray(probs)
    if probs.ndim != 3:
        raise DimensionError(f"expected [n_models, B, C] probabilities, got shape {probs.shape}")
    return probs


def meta_features(probs):
    """[n_models, B, C] -> [B, n_models*C], columns ordered (model, class)."""
    probs = _model_probs(probs)
    m, b, c = probs.shape
    return probs.transpose(1, 0, 2).reshape(b, m * c)


def combine_average(probs):
    """Argmax of the model-axis mean probability."""
    probs = _model_probs(probs)
    return probs.mean(axis=0).argmax(axis=1)


def combine_vote(probs):
    """Per-model argmax, then plurality over models."""
    probs = _model_probs(probs)
    return forest.plurality(probs.argmax(axis=2), probs.shape[2])


def fit_stacking(ensemble: bagging.EnsembleModel, images, labels,
                 n_trees=100, max_depth=12, seed=0):
    """Fit the random-forest meta-model on held-out data the sub-models
    never trained on (prevents label leakage)."""
    if len(labels) == 0:
        raise InputError("stacking split is empty")
    probs = bagging.ensemble_predict_probs(ensemble, images)
    feats = meta_features(probs)
    return forest.fit_forest(feats, np.asarray(labels), n_trees=n_trees,
                             max_depth=max_depth, seed=seed,
                             n_classes=ensemble.n_classes)


def combine_stacking(rf: forest.RandomForest, probs):
    """Forest prediction on the meta-feature matrix."""
    feats = meta_features(probs)
    if feats.shape[1] != rf.n_features:
        raise DimensionError(
            f"meta-feature count {feats.shape[1]} does not match forest input {rf.n_features}"
        )
    return rf.predict(feats)


def combine(ensemble: bagging.EnsembleModel, probs):
    """Dispatch on the ensemble's configured combiner."""
    if ensemble.combiner == "average":
        return combine_average(probs)
    if ensemble.combiner == "vote":
        return combine_vote(probs)
    if ensemble.combiner == "stacking":
        if ensemble.forest is None:
            raise InputError("stacking combiner selected but no forest fitted")
        return combine_stacking(ensemble.forest, probs)
    raise InputError(f"unknown combiner {ensemble.combiner!r}")
