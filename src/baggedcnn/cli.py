"""Command-line entry point: train / eval / sweep / compare-combiners /
dataset synth / dataset inspect.

Run configs are flat ``key = value`` text files with section headers (INI
style).  Each RunConfig field names its ``section.key``, the parser of its
value and the rules a good value keeps.  A section or key that no field names
is refused, and `main` checks every rule before any command runs.  All
outputs are pure functions of (config, seed, input files), so reruns are
byte-identical.
Exit codes: 0 success, else the code and stderr label that the error's
class carries (errors.py); an OSError or MemoryError is a data error, 3.
"""

import argparse
import configparser
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bagging, checkpoint, combiners, data, metrics, network, training
from .errors import BaggedCnnError, ConfigError, DimensionError, InputError


def _tuple_of(conv):
    """Parser of a comma-separated list; an empty value gives ()."""
    return lambda text: tuple(conv(part) for part in text.split(",")) if text.strip() else ()


def _parse_grid(text):
    """Parse "ratio:n_models, ..." into ((ratio, n_models), ...), skipping empty cells."""
    cells = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        try:
            ratio, n = part.split(":")
            cells.append((float(ratio), int(n)))
        except ValueError as exc:
            raise ValueError(f"cell {part!r} is not ratio:n_models") from exc
    return tuple(cells)


def _setting(key, parse, default, *rules):
    """A RunConfig field read from config-file key "section.key" by parse.

    Each rule is (ok, must): ok(value, cfg) is true of a good value, and
    must says what one is.  A field without rules takes any value its
    parser gives.
    """
    return field(default=default, metadata={"key": key, "parse": parse, "rules": rules})


def _one_of(*options):
    return (lambda v, cfg: v in options), "one of " + ", ".join(map(str, options))


_RULES = {**training.RULES, **bagging.RULES}  # the library's rule of each field it shares
_RATIO, _N_MODELS = _RULES["bagging_ratio"], _RULES["n_models"]


def _needed_parts(cfg):
    """Names of the split parts a run needs: validation may be empty, and
    the stacking part only feeds the forest."""
    return ("train", "test", "stacking") if cfg.combiner == "stacking" else ("train", "test")


_NEEDED = ((lambda v, cfg: all(getattr(data.Split(*v), part) > 0 for part in _needed_parts(cfg))),
           "fractions with train, test and (with the stacking combiner) stacking above 0")


def _grid_ok(grid, cfg):
    return all(_RATIO[0](ratio, cfg) and _N_MODELS[0](n, cfg) for ratio, n in grid)


def _excluded_ok(excluded, cfg):
    return all(0 <= k < cfg.n_classes for k in excluded) and len(set(excluded)) < cfg.n_classes


@dataclass
class RunConfig:
    dataset: str = _setting("dataset.path", str, "")
    split: tuple = _setting("dataset.split", _tuple_of(float), data.DEFAULT_FRACTIONS,
                            data.FRACTIONS_RULE, _NEEDED)
    model_size: str = _setting("model.size", str, "scaled", _one_of("paper", "scaled"))
    widths: tuple = _setting("model.widths", _tuple_of(int), (8, 16),
                             ((lambda v, cfg: len(v) > 0 and all(n >= 1 for n in v)),
                              "one or more widths of at least 1"))
    dense_units: int = _setting("model.dense_units", int, 64, training.integer_at_least(1))
    n_classes: int = _setting("model.n_classes", int, 5, _one_of(2, 5))
    n_models: int = _setting("bagging.n_models", int, 5, _N_MODELS)
    bagging_ratio: float = _setting("bagging.bagging_ratio", float, 0.7, _RATIO)
    epochs: int = _setting("train.epochs", int, 5, _RULES["epochs"])
    batch_size: int = _setting("train.batch_size", int, 32, _RULES["batch_size"])
    eta: float = _setting("train.eta", float, 0.001, _RULES["eta"])
    beta1: float = _setting("train.beta1", float, 0.9, _RULES["beta1"])
    beta2: float = _setting("train.beta2", float, 0.999, _RULES["beta2"])
    epsilon: float = _setting("train.epsilon", float, 1e-8, _RULES["epsilon"])
    combiner: str = _setting("combiner.method", str, "stacking", _one_of(*combiners.COMBINERS))
    n_trees: int = _setting("combiner.n_trees", int, 100, training.integer_at_least(1))
    max_depth: int = _setting("combiner.max_depth", int, 12, training.integer_at_least(0))
    excluded_classes: tuple = _setting(
        "metrics.excluded_classes", _tuple_of(int), (),
        (_excluded_ok, "classes below model.n_classes, leaving at least one"))
    grid: tuple = _setting(  # ((ratio, n_models), ...)
        "sweep.grid", _parse_grid, (),
        (_grid_ok, f"ratio:n_models cells with ratio {_RATIO[1]} and n_models {_N_MODELS[1]}"))
    seed: int = _setting("run.seed", int, 0, _RULES["seed"])
    precision: int = _setting("run.precision", int, 32, _one_of(32, 64))
    out_dir: str = _setting("run.out", str, "out",
                            ((lambda v, cfg: not os.path.isfile(v)), "a directory, not a file"))


_SETTINGS = {f.metadata["key"]: f for f in fields(RunConfig)}  # "section.key" -> field
_SECTIONS = {key.split(".")[0] for key in _SETTINGS}


def load_run_config(path):
    """The RunConfig a config file sets; validate_config checks its values."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # e.g. a repeated section or key
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if cp.defaults():  # its keys would otherwise reach every section
        raise ConfigError(f"unknown section [{cp.default_section}] in {path}")
    values = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in cp.options(section):
            name = f"{section}.{key}"
            if name not in _SETTINGS:
                raise ConfigError(f"unknown key '{name}' in {path}")
            setting = _SETTINGS[name]
            try:
                values[setting.name] = setting.metadata["parse"](cp.get(section, key))
            except (ValueError, configparser.Error) as exc:  # Error: a bad % interpolation
                raise ConfigError(f"field '{name}': {exc}") from exc
    return RunConfig(**values)


def validate_config(cfg):
    """ConfigError naming the first field whose value breaks a rule."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for ok, must in f.metadata["rules"]:
            if not ok(value, cfg):
                raise ConfigError(f"field '{f.metadata['key']}': must be {must}, got {value!r}")


def config_snapshot(cfg):
    """The settings a checkpoint records: every field but grid and out_dir."""
    snapshot = asdict(cfg)
    del snapshot["grid"], snapshot["out_dir"]
    return snapshot


def build_model(cfg, input_shape):
    if cfg.model_size == "paper":
        return network.build_paper_cnn(cfg.n_classes)
    return network.build_scaled_cnn(input_shape, cfg.widths, cfg.n_classes,
                                    dense_units=cfg.dense_units)


def _labels_for(view, n_classes):
    return view.labels_binary if n_classes == 2 else view.labels_multi


def run_pipeline(cfg):
    """Load data, train the ensemble, fit the combiner; returns the pieces
    every command needs."""
    ds = data.load_container(cfg.dataset)
    views = data.split(ds, cfg.split, seed=cfg.seed)
    model = build_model(cfg, ds.images.shape[1:])
    if ds.images.shape[1:] != model.input_shape:
        raise DimensionError(f"dataset images are {ds.images.shape[1:]}, but the "
                             f"{cfg.model_size} model takes {model.input_shape}")
    for part in _needed_parts(cfg):
        if not len(getattr(views, part)):
            raise InputError(f"the {part} part of the split of {len(ds)} images is empty")
    dtype = np.float64 if cfg.precision == 64 else np.float32  # the training dtype
    bag_cfg, train_cfg = (cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})
                          for cls in (bagging.BaggingConfig, training.TrainConfig))
    x_train = views.train.images.astype(dtype)
    y_train = _labels_for(views.train, cfg.n_classes)
    val = None
    if len(views.validation):
        val = (views.validation.images.astype(dtype), _labels_for(views.validation, cfg.n_classes))
    with bagging.Trainers() as trainers:  # forked once, for training and the forest's trees
        ensemble, assignment, histories = bagging.train_ensemble(
            x_train, y_train, model, bag_cfg, train_cfg, val=val, trainers=trainers)
        ensemble.combiner = cfg.combiner
        if cfg.combiner == "stacking":
            ensemble.forest = combiners.fit_stacking(
                ensemble, views.stacking.images, _labels_for(views.stacking, cfg.n_classes),
                n_trees=cfg.n_trees, max_depth=cfg.max_depth, seed=cfg.seed, trainers=trainers)
    return ds, views, ensemble, assignment, histories


def evaluate_ensemble(cfg, ensemble, view):
    """(confusion, predictions, probabilities, labels) of the ensemble on a
    view.  Prediction runs in the ensemble's own dtype, whatever
    cfg.precision says."""
    y = _labels_for(view, ensemble.n_classes)
    probs = bagging.ensemble_predict_probs(ensemble, view.images)
    preds = combiners.combine(ensemble, probs)
    cm = metrics.confusion(preds, y, ensemble.n_classes)
    return cm, preds, probs, y


def write_metrics_files(out_dir, cm, cfg, extra_rows=()):
    report = metrics.metrics_report(cm, cfg.excluded_classes)
    rows = list(report.items()) + list(extra_rows)
    data.write_csv(os.path.join(out_dir, "metrics.csv"), ["metric", "value"],
                   ([k, f"{v:.6f}"] for k, v in rows))
    with data.replace_file(os.path.join(out_dir, "metrics.txt")) as tmp, open(tmp, "w") as fh:
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            fh.write(f"{k:<{width}}  {v:.6f}\n")
    data.write_csv(os.path.join(out_dir, "confusion.csv"), ["true\\pred", *range(cm.shape[1])],
                   ([i, *map(int, row)] for i, row in enumerate(cm)))
    with data.replace_file(os.path.join(out_dir, "confusion.txt")) as tmp, open(tmp, "w") as fh:
        fh.write(metrics.confusion_text(cm) + "\n")
    return report


def cmd_train(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _, views, ensemble, assignment, histories = run_pipeline(cfg)
    test_v = views.test
    cm, preds, _, _ = evaluate_ensemble(cfg, ensemble, test_v)
    for k, hist in enumerate(histories):
        hist.to_csv(os.path.join(cfg.out_dir, f"history_model_{k}.csv"))
    for name in os.listdir(cfg.out_dir):  # an earlier run's sub-models above this run's
        stale = re.fullmatch(r"history_model_(0|[1-9][0-9]*)\.csv", name)
        if stale and int(stale[1]) >= len(histories):
            os.remove(os.path.join(cfg.out_dir, name))
    assignment.to_csv(os.path.join(cfg.out_dir, "bags.csv"))
    # binarize_labels leaves the 0/1 predictions of a binary task unchanged
    bin_acc = float(np.mean(metrics.binarize_labels(preds) == test_v.labels_binary))
    report = write_metrics_files(cfg.out_dir, cm, cfg, [("binary_accuracy", bin_acc)])
    checkpoint.save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"),
                               ensemble, config_snapshot(cfg))
    print(metrics.confusion_text(cm))
    print(f"accuracy: {report['accuracy']:.6f}")
    print(f"binary_accuracy: {bin_acc:.6f}")
    return 0


def cmd_eval(cfg, checkpoint_path, dataset_path):
    ensemble, _ = checkpoint.load_checkpoint(checkpoint_path)
    ds = data.load_container(dataset_path)
    if not len(ds):
        raise InputError(f"dataset {dataset_path} holds no images")
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
    rows, failures = [], []
    for ratio, n in cfg.grid:
        cell = replace(cfg, bagging_ratio=ratio, n_models=n)
        try:
            _, views, ensemble, _, _ = run_pipeline(cell)
            cm, _, _, _ = evaluate_ensemble(cell, ensemble, views.test)
            rows.append((ratio, n, f"{metrics.accuracy(cm):.4f}"))
        except BaggedCnnError as exc:
            rows.append((ratio, n, f"error: {exc}"))
            failures.append(exc)
    data.write_csv(os.path.join(cfg.out_dir, "sweep.csv"),
                   ["bagging_ratio", "n_models", "accuracy"], rows)
    print(f"{'bagging_ratio':>13} {'n_models':>8} {'accuracy':>10}")
    for ratio, n, acc in rows:
        print(f"{ratio:>13} {n:>8} {acc:>10}")
    if len(failures) == len(rows):  # nothing trained: the run fails as its first cell did
        raise failures[0]
    return 0


def cmd_compare_combiners(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = replace(cfg, combiner="stacking")  # fit the forest once; reuse sub-models
    validate_config(base)  # the stacking split must not be empty
    _, views, ensemble, _, _ = run_pipeline(base)
    test_v = views.test
    probs = bagging.ensemble_predict_probs(ensemble, test_v.images)
    y = _labels_for(test_v, ensemble.n_classes)
    rows = []
    for method in combiners.COMBINERS:
        preds = combiners.combine(replace(ensemble, combiner=method), probs)
        cm = metrics.confusion(preds, y, ensemble.n_classes)
        p, r, f1 = metrics.micro_metrics(cm, cfg.excluded_classes)
        rows.append((method, f"{p:.4f}", f"{r:.4f}", f"{f1:.4f}"))
    data.write_csv(os.path.join(cfg.out_dir, "combiners.csv"),
                   ["method", "micro_precision", "micro_recall", "micro_f1"], rows)
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
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--precision", type=int, choices=(32, 64),
                        help="dtype the sub-models train in; eval predicts in the "
                             "checkpoint's dtype")
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
        cfg = load_run_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.precision is not None:
            cfg.precision = args.precision
        validate_config(cfg)
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
    except BaggedCnnError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:  # e.g. an unreadable file, a model too large to allocate
        print(f"{BaggedCnnError.label}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return BaggedCnnError.exit_code


if __name__ == "__main__":
    sys.exit(main())
