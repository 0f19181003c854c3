"""Command-line entry point: train / eval / sweep / compare-combiners /
dataset synth / dataset inspect.

Run configs are flat ``key = value`` text files with section headers (INI
style); every key mirrors a RunConfig field.  All outputs are pure
functions of (config, seed, input files), so reruns are byte-identical.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
"""

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import bagging, checkpoint, combiners, data, metrics, network, training
from .errors import (BaggedCnnError, BuildError, CheckpointError, ConfigError,
                     DimensionError, FormatError, InputError, LabelError, MetricError,
                     NumericError)


@dataclass
class RunConfig:
    dataset: str = ""
    split: tuple = (0.6, 0.1, 0.2, 0.1)
    model_size: str = "scaled"  # paper | scaled
    widths: tuple = (8, 16)
    dense_units: int = 64
    n_classes: int = 5
    n_models: int = 5
    bagging_ratio: float = 0.7
    epochs: int = 5
    batch_size: int = 32
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    combiner: str = "stacking"
    n_trees: int = 100
    max_depth: int = 12
    excluded_classes: tuple = ()
    grid: tuple = ()  # ((ratio, n_models), ...) for sweep
    seed: int = 0
    jobs: int = 1
    precision: int = 32
    out_dir: str = "out"


def _parse_tuple(text, conv, fieldname):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(conv(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"field {fieldname!r}: {exc}") from exc


def _parse_grid(text):
    cells = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ratio, n = part.split(":")
            cells.append((float(ratio), int(n)))
        except ValueError as exc:
            raise ConfigError(f"field 'grid': cell {part!r} is not ratio:n_models") from exc
    return tuple(cells)


def load_run_config(path):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()

    def get(section, key, conv, default):
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            try:
                return conv(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"field '{section}.{key}': {exc}") from exc
        return default

    cfg.dataset = get("dataset", "path", str, cfg.dataset)
    cfg.split = get("dataset", "split", lambda s: _parse_tuple(s, float, "split"), cfg.split)
    cfg.model_size = get("model", "size", str, cfg.model_size)
    cfg.widths = get("model", "widths", lambda s: _parse_tuple(s, int, "widths"), cfg.widths)
    cfg.dense_units = get("model", "dense_units", int, cfg.dense_units)
    cfg.n_classes = get("model", "n_classes", int, cfg.n_classes)
    cfg.n_models = get("bagging", "n_models", int, cfg.n_models)
    cfg.bagging_ratio = get("bagging", "bagging_ratio", float, cfg.bagging_ratio)
    cfg.epochs = get("train", "epochs", int, cfg.epochs)
    cfg.batch_size = get("train", "batch_size", int, cfg.batch_size)
    cfg.eta = get("train", "eta", float, cfg.eta)
    cfg.beta1 = get("train", "beta1", float, cfg.beta1)
    cfg.beta2 = get("train", "beta2", float, cfg.beta2)
    cfg.epsilon = get("train", "epsilon", float, cfg.epsilon)
    cfg.combiner = get("combiner", "method", str, cfg.combiner)
    cfg.n_trees = get("combiner", "n_trees", int, cfg.n_trees)
    cfg.max_depth = get("combiner", "max_depth", int, cfg.max_depth)
    cfg.excluded_classes = get("metrics", "excluded_classes",
                               lambda s: _parse_tuple(s, int, "excluded_classes"),
                               cfg.excluded_classes)
    cfg.grid = get("sweep", "grid", _parse_grid, cfg.grid)
    cfg.seed = get("run", "seed", int, cfg.seed)
    cfg.jobs = get("run", "jobs", int, cfg.jobs)
    cfg.precision = get("run", "precision", int, cfg.precision)
    cfg.out_dir = get("run", "out", str, cfg.out_dir)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    if cfg.model_size not in ("paper", "scaled"):
        raise ConfigError(f"field 'model.size': must be paper or scaled, got {cfg.model_size!r}")
    if cfg.combiner not in combiners.COMBINERS:
        raise ConfigError(f"field 'combiner.method': unknown combiner {cfg.combiner!r}")
    if cfg.n_classes not in (2, 5):
        raise ConfigError("field 'model.n_classes': must be 2 or 5")
    if cfg.precision not in (32, 64):
        raise ConfigError("field 'run.precision': must be 32 or 64")
    if len(cfg.split) != 4:
        raise ConfigError("field 'dataset.split': needs four fractions train/val/stacking/test")


def config_snapshot(cfg):
    return {
        "dataset": cfg.dataset, "split": list(cfg.split), "model_size": cfg.model_size,
        "widths": list(cfg.widths), "dense_units": cfg.dense_units,
        "n_classes": cfg.n_classes, "n_models": cfg.n_models,
        "bagging_ratio": cfg.bagging_ratio, "epochs": cfg.epochs,
        "batch_size": cfg.batch_size, "eta": cfg.eta, "beta1": cfg.beta1,
        "beta2": cfg.beta2, "epsilon": cfg.epsilon, "combiner": cfg.combiner,
        "n_trees": cfg.n_trees, "max_depth": cfg.max_depth,
        "excluded_classes": list(cfg.excluded_classes), "seed": cfg.seed,
        "precision": cfg.precision,
    }


def build_model(cfg, input_shape):
    if cfg.model_size == "paper":
        return network.build_paper_cnn(cfg.n_classes)
    return network.build_scaled_cnn(input_shape, cfg.widths, cfg.n_classes,
                                    dense_units=cfg.dense_units)


def _labels_for(view, n_classes):
    return view.labels_binary if n_classes == 2 else view.labels_multi


def _dtype(cfg):
    return np.float64 if cfg.precision == 64 else np.float32


def run_pipeline(cfg):
    """Load data, train the ensemble, fit the combiner; returns the pieces
    every command needs."""
    ds = data.load_container(cfg.dataset)
    train_v, val_v, stack_v, test_v = data.split(ds, cfg.split, seed=cfg.seed)
    model = build_model(cfg, ds.images.shape[1:])
    dtype = _dtype(cfg)
    bag_cfg = bagging.BaggingConfig(n_models=cfg.n_models,
                                    bagging_ratio=cfg.bagging_ratio, seed=cfg.seed)
    train_cfg = training.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                     eta=cfg.eta, beta1=cfg.beta1, beta2=cfg.beta2,
                                     epsilon=cfg.epsilon, seed=cfg.seed)
    x_train = train_v.images.astype(dtype)
    y_train = _labels_for(train_v, cfg.n_classes)
    val = None
    if len(val_v):
        val = (val_v.images.astype(dtype), _labels_for(val_v, cfg.n_classes))
    ensemble, assignment, histories = bagging.train_ensemble(
        x_train, y_train, model, bag_cfg, train_cfg, val=val, jobs=cfg.jobs)
    ensemble.combiner = cfg.combiner
    if cfg.combiner == "stacking":
        ensemble.forest = combiners.fit_stacking(
            ensemble, stack_v.images.astype(dtype), _labels_for(stack_v, cfg.n_classes),
            n_trees=cfg.n_trees, max_depth=cfg.max_depth, seed=cfg.seed)
    return ds, (train_v, val_v, stack_v, test_v), ensemble, assignment, histories


def evaluate_ensemble(cfg, ensemble, view):
    dtype = _dtype(cfg)
    x = view.images.astype(dtype)
    y = _labels_for(view, ensemble.n_classes)
    probs = bagging.ensemble_predict_probs(ensemble, x)
    preds = combiners.combine(ensemble, probs)
    cm = metrics.confusion(preds, y, ensemble.n_classes)
    return cm, preds, probs, y


def write_metrics_files(out_dir, cm, cfg, extra_rows=()):
    report = metrics.metrics_report(cm, cfg.excluded_classes)
    rows = list(report.items()) + list(extra_rows)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for k, v in rows:
            w.writerow([k, f"{v:.6f}"])
    with open(os.path.join(out_dir, "metrics.txt"), "w") as fh:
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            fh.write(f"{k:<{width}}  {v:.6f}\n")
    with open(os.path.join(out_dir, "confusion.csv"), "w") as fh:
        fh.write(metrics.confusion_csv(cm))
    with open(os.path.join(out_dir, "confusion.txt"), "w") as fh:
        fh.write(metrics.confusion_text(cm) + "\n")
    return report


def cmd_train(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _, views, ensemble, assignment, histories = run_pipeline(cfg)
    test_v = views[3]
    cm, preds, _, _ = evaluate_ensemble(cfg, ensemble, test_v)
    for k, hist in enumerate(histories):
        hist.to_csv(os.path.join(cfg.out_dir, f"history_model_{k}.csv"))
    assignment.to_csv(os.path.join(cfg.out_dir, "bags.csv"))
    extra = []
    if ensemble.n_classes == 2:
        bin_acc = float(np.mean(preds == test_v.labels_binary))
    else:
        bin_preds = metrics.binarize_labels(preds)
        bin_acc = float(np.mean(bin_preds == test_v.labels_binary))
    extra.append(("binary_accuracy", bin_acc))
    report = write_metrics_files(cfg.out_dir, cm, cfg, extra)
    checkpoint.save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"),
                               ensemble, config_snapshot(cfg))
    print(metrics.confusion_text(cm))
    print(f"accuracy: {report['accuracy']:.6f}")
    print(f"binary_accuracy: {bin_acc:.6f}")
    return 0


def cmd_eval(cfg, checkpoint_path, dataset_path):
    ensemble, _ = checkpoint.load_checkpoint(checkpoint_path)
    ds = data.load_container(dataset_path)
    if tuple(ds.images.shape[1:]) != tuple(ensemble.model.input_shape):
        raise CheckpointError(
            f"dataset images {ds.images.shape[1:]} do not match model input "
            f"{ensemble.model.input_shape}")
    view = data.DatasetView(dataset=ds, indices=np.arange(len(ds)))
    cm, _, _, _ = evaluate_ensemble(cfg, ensemble, view)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = write_metrics_files(cfg.out_dir, cm, cfg)
    print(metrics.confusion_text(cm))
    for k, v in report.items():
        print(f"{k}: {v:.6f}")
    return 0


def cmd_sweep(cfg):
    if not cfg.grid:
        raise ConfigError("field 'sweep.grid' is empty")
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    for ratio, n in cfg.grid:
        cell = replace(cfg, bagging_ratio=ratio, n_models=n)
        try:
            _, views, ensemble, _, _ = run_pipeline(cell)
            cm, _, _, _ = evaluate_ensemble(cell, ensemble, views[3])
            rows.append((ratio, n, f"{metrics.accuracy(cm):.4f}"))
        except BaggedCnnError as exc:
            rows.append((ratio, n, f"error: {exc}"))
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bagging_ratio", "n_models", "accuracy"])
        for r in rows:
            w.writerow(r)
    print(f"{'bagging_ratio':>13} {'n_models':>8} {'accuracy':>10}")
    for ratio, n, acc in rows:
        print(f"{ratio:>13} {n:>8} {acc:>10}")
    return 0


def cmd_compare_combiners(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = replace(cfg, combiner="stacking")  # fit the forest once; reuse sub-models
    _, views, ensemble, _, _ = run_pipeline(base)
    test_v = views[3]
    probs = bagging.ensemble_predict_probs(ensemble, test_v.images.astype(_dtype(cfg)))
    y = _labels_for(test_v, ensemble.n_classes)
    rows = []
    for method in combiners.COMBINERS:
        preds = combiners.combine(replace(ensemble, combiner=method), probs)
        cm = metrics.confusion(preds, y, ensemble.n_classes)
        p, r, f1 = metrics.micro_metrics(cm, cfg.excluded_classes)
        rows.append((method, f"{p:.4f}", f"{r:.4f}", f"{f1:.4f}"))
    path = os.path.join(cfg.out_dir, "combiners.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "micro_precision", "micro_recall", "micro_f1"])
        for row in rows:
            w.writerow(row)
    print(f"{'method':<10} {'micro_precision':>15} {'micro_recall':>12} {'micro_f1':>10}")
    for method, p, r, f1 in rows:
        print(f"{method:<10} {p:>15} {r:>12} {f1:>10}")
    return 0


def cmd_dataset_synth(cfg, args):
    ds = data.synth_dataset(args.n_per_class, n_classes=args.classes,
                            image_size=args.image_size, seed=cfg.seed,
                            noise=args.noise)
    data.save_container(ds, args.path)
    print(f"wrote {args.path}: {len(ds)} images "
          f"{ds.images.shape[1]}x{ds.images.shape[2]}x{ds.images.shape[3]}")
    return 0


def cmd_dataset_inspect(args):
    ds = data.load_container(args.path)
    n, h, w, c = ds.images.shape
    print(f"images: {n} of {h}x{w}x{c}")
    print(f"metadata: {ds.metadata}")
    counts = np.bincount(ds.labels_multi, minlength=5)
    for k, cnt in enumerate(counts):
        print(f"class {k}: {cnt}")
    pos = int(ds.labels_binary.sum())
    print(f"binary: {n - pos} negative / {pos} positive")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="baggedcnn",
                                     description="Bagged CNN ensemble trainer")
    parser.add_argument("--config", help="run config file (key = value sections)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--jobs", type=int, help="worker cap for sub-model training")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--precision", type=int, choices=(32, 64),
                        help="scalar precision for training/inference")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train an ensemble end to end")
    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("checkpoint")
    ev.add_argument("dataset")
    sub.add_parser("sweep", help="grid of (bagging_ratio, n_models) runs")
    sub.add_parser("compare-combiners", help="average vs vote vs stacking on one ensemble")
    dset = sub.add_parser("dataset", help="dataset utilities")
    dsub = dset.add_subparsers(dest="dataset_command", required=True)
    synth = dsub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("path")
    synth.add_argument("--n-per-class", type=int, default=200)
    synth.add_argument("--classes", type=int, default=5)
    synth.add_argument("--image-size", type=int, default=32)
    synth.add_argument("--noise", type=float, default=0.1)
    insp = dsub.add_parser("inspect", help="print container header and class counts")
    insp.add_argument("path")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = load_run_config(args.config)
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.jobs is not None:
            cfg.jobs = args.jobs
        if args.out is not None:
            cfg.out_dir = args.out
        if args.precision is not None:
            cfg.precision = args.precision
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.dataset)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "compare-combiners":
            return cmd_compare_combiners(cfg)
        if args.command == "dataset":
            if args.dataset_command == "synth":
                return cmd_dataset_synth(cfg, args)
            return cmd_dataset_inspect(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, BuildError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, InputError, LabelError, DimensionError, CheckpointError,
            MetricError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
