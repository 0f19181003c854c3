import multiprocessing

import numpy as np
import pytest
from hypothesis import settings

from baggedcnn import cli

# A failing hypothesis test prints the @reproduce_failure blob that replays
# it; each test keeps its own example count and deadline.
settings.register_profile("baggedcnn", print_blob=True)
settings.load_profile("baggedcnn")


def numeric_grad(f, arr, h=1e-5):
    """Central finite differences of scalar f with respect to every entry of arr.

    arr is perturbed in place and restored; must be float64 for the h to be
    meaningful.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        fp = f()
        arr[idx] = orig - h
        fm = f()
        arr[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


@pytest.fixture
def no_training(monkeypatch):
    """Make any CLI run that reaches training fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(cli.bagging, "train_ensemble", refuse)


def max_rel_err(analytic, numeric, floor=1.0):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def tie_heavy(seed, shape, dtype, mode):
    """Values with many exact ties: post-ReLU zeros, a few rounded levels, a
    handful of values that includes both signed zeros, or non-positive levels
    with -0.0 among them, which leave whole pool windows at or below zero."""
    rng = np.random.default_rng(seed)
    if mode == "relu":
        x = np.maximum(rng.normal(size=shape), 0)
    elif mode == "levels":
        x = np.round(rng.normal(size=shape) * 1.5) / 2
    elif mode == "signed_zeros":
        x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=shape)
    else:
        x = -np.abs(np.round(rng.normal(size=shape) * 1.5) / 2)
        x[rng.random(shape) < 0.3] = -0.0
    return x.astype(dtype)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a worker process running."""
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes left running: {leaked}"
