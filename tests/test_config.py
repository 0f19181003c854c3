import configparser
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from baggedcnn import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# Every config key: (the RunConfig field it sets, its text, the parsed value).
# No value is the field's default.
KEYS = {
    "dataset.path": ("dataset", "d.bsec", "d.bsec"),
    "dataset.split": ("split", "0.5, 0.2,0.2,0.1", (0.5, 0.2, 0.2, 0.1)),
    "model.size": ("model_size", "paper", "paper"),
    "model.widths": ("widths", "4,6,8", (4, 6, 8)),
    "model.dense_units": ("dense_units", "12", 12),
    "model.n_classes": ("n_classes", "2", 2),
    "bagging.n_models": ("n_models", "3", 3),
    "bagging.bagging_ratio": ("bagging_ratio", "0.3", 0.3),
    "train.epochs": ("epochs", "7", 7),
    "train.batch_size": ("batch_size", "16", 16),
    "train.eta": ("eta", "0.01", 0.01),
    "train.beta1": ("beta1", "0.8", 0.8),
    "train.beta2": ("beta2", "0.99", 0.99),
    "train.epsilon": ("epsilon", "1e-7", 1e-7),
    "combiner.method": ("combiner", "vote", "vote"),
    "combiner.n_trees": ("n_trees", "9", 9),
    "combiner.max_depth": ("max_depth", "4", 4),
    "metrics.excluded_classes": ("excluded_classes", "0,3", (0, 3)),
    "sweep.grid": ("grid", "0.5:3, 0.9:2,", ((0.5, 3), (0.9, 2))),
    "run.seed": ("seed", "11", 11),
    "run.precision": ("precision", "64", 64),
    "run.out": ("out_dir", "elsewhere", "elsewhere"),
}


def _old_config_snapshot(cfg):
    """The hand-written snapshot the checkpoint header recorded before
    config_snapshot was derived from the RunConfig fields."""
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


def _load(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return cli.load_run_config(path)


def test_each_field_has_one_key(tmp_path):
    assert sorted(f.name for f in fields(cli.RunConfig)) == sorted(n for n, _, _ in KEYS.values())
    for key, (name, text, value) in KEYS.items():
        section, option = key.split(".")
        cfg = _load(tmp_path, f"[{section}]\n{option} = {text}\n")
        assert cfg == replace(cli.RunConfig(), **{name: value}), key


def test_readme_config_loads(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    parser = configparser.ConfigParser()
    parser.read_string(block)
    listed = {f"{section}.{key}" for section in parser.sections() for key in parser.options(section)}
    assert len(listed) == 16 and listed <= set(KEYS)
    assert _load(tmp_path, block) == cli.RunConfig(
        dataset="data.bsec", split=(0.6, 0.1, 0.2, 0.1), model_size="scaled", widths=(8, 16),
        dense_units=64, n_classes=5, n_models=5, bagging_ratio=0.7, epochs=4, batch_size=32,
        combiner="stacking", n_trees=100, max_depth=12,
        grid=((0.6, 20), (0.7, 15), (0.8, 10)), seed=0, out_dir="out")


@pytest.mark.parametrize("text,named", [
    ("[modle]\nwidths = 4\n", "[modle]"),
    ("[run]\nseed = 1\njobs = 2\n", "'run.jobs'"),
    ("[bagging]\nbagging_ration = 0.3\n", "'bagging.bagging_ration'"),
    ("[DEFAULT]\nseed = 1\n[run]\nout = o\n", "[DEFAULT]"),
], ids=["section", "retired-jobs", "misspelt-key", "default-section"])
def test_unknown_names_exit_2(tmp_path, capsys, text, named):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["--config", str(path), "dataset", "inspect", str(tmp_path / "none.bsec")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_snapshot_bytes_match_hand_written_dict():
    cfg = cli.RunConfig(**{name: value for name, _, value in KEYS.values()})
    defaults = cli.RunConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
    for sort_keys in (False, True):
        assert (json.dumps(cli.config_snapshot(cfg), sort_keys=sort_keys)
                == json.dumps(_old_config_snapshot(cfg), sort_keys=sort_keys))


# One value per key that breaks the key's rule.  "{tmp}" is the test's
# directory.  A missing dataset file is a data error, not a config error.
BAD = {
    "dataset.path": ("{tmp}/missing.bsec", 3),
    "dataset.split": ("0.5,0.5,0.5,0.5", 2),
    "model.size": ("huge", 2),
    "model.widths": ("4,0", 2),
    "model.dense_units": ("0", 2),
    "model.n_classes": ("3", 2),
    "bagging.n_models": ("0", 2),
    "bagging.bagging_ratio": ("1.5", 2),
    "train.epochs": ("-1", 2),
    "train.batch_size": ("0", 2),
    "train.eta": ("0", 2),
    "train.beta1": ("1", 2),
    "train.beta2": ("-0.1", 2),
    "train.epsilon": ("nan", 2),
    "combiner.method": ("blending", 2),
    "combiner.n_trees": ("0", 2),
    "combiner.max_depth": ("-1", 2),
    "metrics.excluded_classes": ("5", 2),
    "sweep.grid": ("0.5:3,1.5:2", 2),
    "run.seed": ("-1", 2),
    "run.precision": ("16", 2),
    "run.out": ("{tmp}/a_file", 2),
}


def _run(tmp_path, text, *args):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    return cli.main(["--config", str(path), *args])


def test_bad_values_cover_every_key():
    assert set(BAD) == set(KEYS)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("key", sorted(BAD))
def test_bad_value_exits_before_training(tmp_path, capsys, no_training, key, command):
    (tmp_path / "a_file").write_text("")
    section, option = key.split(".")
    text, code = BAD[key]
    config = f"[{section}]\n{option} = {text.format(tmp=tmp_path)}\n"
    if command == "sweep" and section != "sweep":  # sweep refuses an empty grid
        config += "[sweep]\ngrid = 0.6:2\n"
    assert _run(tmp_path, config, command) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"config error: field '{key}': must be "), err


@pytest.mark.parametrize("text", [
    "[dataset]\nsplit = 0.7,0.1,0.0,0.2\n",  # no stacking part for the stacking forest
    "[dataset]\nsplit = 0.7,0.1,0.2\n",
    "[metrics]\nexcluded_classes = 0,1\n[model]\nn_classes = 2\n",  # every class
    "[metrics]\nexcluded_classes = 3\n[model]\nn_classes = 2\n",
])
def test_rules_that_read_other_fields(tmp_path, no_training, text):
    assert _run(tmp_path, text, "train") == 2


def test_compare_combiners_needs_a_stacking_split(tmp_path, capsys, no_training):
    text = "[dataset]\nsplit = 0.7,0.1,0.0,0.2\n[combiner]\nmethod = average\n"
    assert _run(tmp_path, text, "compare-combiners") == 2
    assert "field 'dataset.split'" in capsys.readouterr().err


def test_rules_accept_edge_values(tmp_path):
    text = ("[dataset]\nsplit = 0.7,0.0,0.0,0.3\n[combiner]\nmethod = vote\nmax_depth = 0\n"
            "[bagging]\nbagging_ratio = 1\n[train]\nepochs = 0\nbeta1 = 0\n[run]\nseed = 0\n"
            "[metrics]\nexcluded_classes = 0,1,2,3\n")
    path = tmp_path / "edge.cfg"
    path.write_text(text)
    cli.validate_config(cli.load_run_config(path))


def test_command_line_override_is_checked(tmp_path, capsys, no_training):
    assert _run(tmp_path, "[run]\nseed = 3\n", "--seed", "-2", "train") == 2
    assert "field 'run.seed'" in capsys.readouterr().err
    # an override also mends a config value
    assert _run(tmp_path, "[run]\nseed = -1\n", "--seed", "1", "dataset", "inspect",
                str(tmp_path / "none.bsec")) == 3
