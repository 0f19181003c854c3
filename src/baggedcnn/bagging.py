"""Bootstrap bagging: sampling with replacement and ensemble orchestration.

Each sub-model gets its own seed derived from (master seed, model index), so
sub-model k is the same as train_submodel run alone on bag k.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from . import network, training
from .errors import BaggedCnnError, InputError


@dataclass(frozen=True)
class BaggingConfig:
    n_models: int = 10
    bagging_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        training.check_integer("n_models", self.n_models, 1)
        training.check_integer("seed", self.seed, 0)
        if not 0 < self.bagging_ratio <= 1:
            raise InputError("bagging_ratio must be in (0, 1]")


def bootstrap_sample(n, ratio, rng):
    """round(ratio*n) uniform draws with replacement from [0, n).

    Returns (bag indices, sorted out-of-bag indices).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0 < ratio <= 1:
        raise InputError("ratio must be in (0, 1]")
    size = int(round(ratio * n))
    bag = rng.integers(0, n, size=size)
    oob = np.setdiff1d(np.arange(n), bag)
    return bag, oob


@dataclass
class BagAssignment:
    """Per-sub-model bootstrap draws and their out-of-bag complements."""

    bags: list  # list of index arrays (with repetition)
    oobs: list  # list of sorted index arrays

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "sample_indices"])
            for k, bag in enumerate(self.bags):
                w.writerow([k, " ".join(str(i) for i in bag)])


def assign_bags(n, config: BaggingConfig):
    """Deterministic bag per sub-model, seeded by (master seed, model index)."""
    bags, oobs = [], []
    for k in range(config.n_models):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, k, 0)))
        bag, oob = bootstrap_sample(n, config.bagging_ratio, rng)
        bags.append(bag)
        oobs.append(oob)
    return BagAssignment(bags=bags, oobs=oobs)


@dataclass
class EnsembleModel:
    """Trained sub-models plus (optionally) a fitted combiner."""

    model: network.ModelSpec
    param_sets: list  # one param dict per sub-model
    combiner: str = "average"  # average | vote | stacking
    forest: object = None  # RandomForest when combiner == "stacking"

    @property
    def n_models(self):
        return len(self.param_sets)

    @property
    def n_classes(self):
        return self.model.n_classes


def submodel_seed(master_seed, index):
    """Stable per-sub-model training seed."""
    return int(np.random.SeedSequence((master_seed, index, 1)).generate_state(1)[0])


def train_ensemble(images, labels, model, bagging: BaggingConfig,
                   train: training.TrainConfig, val=None):
    """Train n_models sub-models on their bags.

    Returns (EnsembleModel without combiner, BagAssignment, histories).
    The sub-models train one after another; a thread pool measured slower.
    """
    if len(labels) == 0:
        raise InputError("dataset is empty")
    training.check_lengths(images, labels)
    assignment = assign_bags(len(labels), bagging)
    labels = np.asarray(labels)
    param_sets, histories = [], []
    for k, bag in enumerate(assignment.bags):
        cfg = replace(train, seed=submodel_seed(bagging.seed, k))
        try:
            params, hist = training.train_submodel(model, images[bag], labels[bag], cfg, val=val)
        except BaggedCnnError as exc:  # library errors all take one message
            raise type(exc)(f"sub-model {k}: {exc}") from exc
        param_sets.append(params)
        histories.append(hist)
    return EnsembleModel(model=model, param_sets=param_sets), assignment, histories


def ensemble_predict_probs(ensemble: EnsembleModel, batch):
    """Stacked softmax outputs of every sub-model: [n_models, B, C], float64."""
    probs = network.predict_probs(ensemble.model, ensemble.param_sets, batch)
    return probs.astype(np.float64, copy=False)
