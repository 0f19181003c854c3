"""Bagged CNN ensembles with averaging, voting, and random-forest stacking.

Everything is numpy-backed and fully deterministic given seeds; see the
demos/ scripts in the repository for narrative walkthroughs of each
capability.
"""

from .layers import (ConvKernelSet, conv2d_forward, conv2d_vjp, dense_forward,
                     dense_vjp, flatten, flatten_vjp, maxpool2d_forward,
                     maxpool2d_vjp, relu, relu_vjp, softmax)
from .network import (LayerSpec, ModelSpec, backward_batch, build_paper_cnn,
                      build_scaled_cnn, count_params, forward_batch, forward_vjp,
                      init_params, shape_trace, summary)
from .training import (AdamState, TrainConfig, TrainHistory, adam_step, evaluate,
                       softmax_cce, sparse_cce, train_submodel)
from .bagging import (BagAssignment, BaggingConfig, EnsembleModel, bootstrap_sample,
                      ensemble_predict_probs, train_ensemble)
from .forest import DecisionTree, RandomForest, fit_forest, gini_impurity
from .combiners import (combine, combine_average, combine_stacking, combine_vote,
                        fit_stacking, meta_features)
from .metrics import (accuracy, binarize_labels, confusion, macro_metrics,
                      micro_metrics)
from .data import (DatasetContainer, DatasetView, load_container, save_container,
                   split, synth_dataset)
from .checkpoint import load_checkpoint, save_checkpoint
from .network import _keep_heap_resident

_keep_heap_resident()

__version__ = "0.1.0"
