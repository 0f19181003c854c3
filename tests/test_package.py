"""The package's public surface: its exported names, the demo scripts and
the allocator settings it applies at import."""

import inspect
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import baggedcnn

ROOT = Path(__file__).resolve().parent.parent

# Dropping a name from this list retires it: record that in CHANGES.md.
PUBLIC_NAMES = [
    "AdamState", "BagAssignment", "BaggingConfig", "ConvKernelSet", "DatasetContainer",
    "DatasetView", "DecisionTree", "EnsembleModel", "LayerSpec", "ModelSpec",
    "RandomForest", "TrainConfig", "TrainHistory", "accuracy", "adam_step",
    "backward_batch", "binarize_labels", "bootstrap_sample", "build_paper_cnn",
    "build_scaled_cnn", "combine", "combine_average", "combine_stacking", "combine_vote",
    "confusion", "conv2d_forward", "conv2d_vjp", "count_params", "dense_forward",
    "dense_vjp", "ensemble_predict_probs", "evaluate", "fit_forest", "fit_stacking",
    "flatten", "flatten_vjp", "forward_batch", "forward_vjp", "gini_impurity",
    "init_params", "load_checkpoint", "load_container", "macro_metrics",
    "maxpool2d_forward", "maxpool2d_vjp", "meta_features", "micro_metrics", "relu",
    "relu_vjp", "save_checkpoint", "save_container", "shape_trace", "softmax",
    "softmax_cce", "sparse_cce", "split", "summary", "synth_dataset", "train_ensemble",
    "train_submodel",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(baggedcnn).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# 20 warm-up steps, then the page faults of 50 desk-net training steps
# (batch 32); prints faults per step
FAULTS_PER_STEP = textwrap.dedent("""
    import resource
    import numpy as np
    from baggedcnn import network, training

    model = network.build_scaled_cnn((32, 32, 1), (8, 16), 5, dense_units=64)
    params = network.init_params(model, 0)
    state = training.AdamState.fresh(params)
    rng = np.random.default_rng(0)
    x = rng.random((32, 32, 32, 1), dtype=np.float32)
    y = np.arange(32) % 5
    for step in range(70):
        if step == 20:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        logits, backward = network.forward_vjp(model, params, x)
        _, _, dlogits = training.softmax_cce(logits, y)
        params, state = training.adam_step(params, backward(dlogits), state)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_training_step_keeps_its_heap():
    # at glibc's default thresholds this counted 1040-1500 faults a step
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 5
