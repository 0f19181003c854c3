"""The package's public surface: its exported names and the demo scripts."""

import inspect
import os
import subprocess
import sys
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
