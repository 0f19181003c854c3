"""Exit codes: the README's list matches the error classes, and the CLI
ends every run, at and just past each config rule's boundary and on
datasets at their own edges, with a documented code and at most one line
on stderr.  The CLI checks the settings it shares with TrainConfig and
BaggingConfig by the library's own rules."""

import contextlib
import io
import itertools
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from baggedcnn import bagging, checkpoint, cli, data, errors, metrics, network, training

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_codes_the_error_classes_carry():
    block = README.read_text().split("\nExit codes", 1)[1].split("\n\n")[1]
    assert block.startswith("- 0: success.\n")
    listed = re.findall(r"^- (\d+) `([^`]+)`:", block, re.M)
    carried = {(str(cls.exit_code), cls.label) for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.BaggedCnnError)}
    assert len(block.split("\n- ")) == len(listed) + 1  # no item without a code and label
    assert sorted(listed) == sorted(carried)


# Per config key: the value of the base run first, then values at and just
# past the boundary of the key's rule.
EDGES = {
    "dataset.split": ["0.6,0.1,0.2,0.1", "0.5,0,0.25,0.25", "0.6,0.1,0,0.3", "1,0,0,0",
                      "0.6,0.1,0.2,0.1000001", "-0.1,0.2,0.2,0.7"],
    "model.size": ["scaled", "paper", "small"],
    "model.widths": ["4", "1", "0", "", "4,4", "4,4,4"],
    "model.dense_units": ["8", "1", "0"],
    "model.n_classes": ["5", "2", "3"],
    "bagging.n_models": ["2", "1", "3", "0"],
    "bagging.bagging_ratio": ["0.8", "1", "1e-9", "0", "1.0000001"],
    "train.epochs": ["1", "0", "-1"],
    "train.batch_size": ["8", "1", "0"],
    "train.eta": ["0.001", "5e-324", "1.7976931348623157e308", "0", "inf", "nan"],
    "train.beta1": ["0.9", "0", "0.9999999999999999", "-5e-324", "1"],
    "train.beta2": ["0.999", "0", "0.9999999999999999", "-5e-324", "1"],
    "train.epsilon": ["1e-8", "5e-324", "1.7976931348623157e308", "0", "inf"],
    "combiner.method": ["stacking", "average", "vote", "median"],
    "combiner.n_trees": ["3", "1", "0"],
    "combiner.max_depth": ["3", "0", "-1"],
    "metrics.excluded_classes": ["", "0", "0,1,2,3", "4", "0,1,2,3,4", "1,1", "-1", "5"],
    "sweep.grid": ["1:1", "1e-9:1", "", "0:1", "1:0", "1.0000001:1"],
    "run.seed": ["0", str(2**64), "-1"],
    "run.precision": ["32", "64", "16"],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(work directory, dataset of 50 16x16 images)."""
    work = tmp_path_factory.mktemp("edges")
    dataset = data.synth_dataset(10, n_classes=5, image_size=16, seed=0)
    data.save_container(dataset, work / "d.bsec")
    return work, work / "d.bsec"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_config_edges_end_with_a_documented_code(files, fuzz):
    work, dataset = files
    values = {key: texts[0] for key, texts in EDGES.items()}
    for key in fuzz.draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=3,
                                  unique=True), label="keys"):
        values[key] = fuzz.draw(st.sampled_from(EDGES[key][1:]), label=key)
    values["dataset.path"] = str(dataset)
    values["run.out"] = fuzz.draw(st.sampled_from([str(work / "out"), str(dataset)]), label="out")
    sections = {}
    for key, text in values.items():
        section, option = key.split(".")
        sections.setdefault(section, []).append(f"{option} = {text}")
    config = work / "run.cfg"
    config.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                              for section, lines in sections.items()))
    command = fuzz.draw(st.sampled_from(["train", "sweep", "compare-combiners"]), label="command")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(["--config", str(config), command])
    assert code in {0, 2, 3, 4, 5}
    assert len(err.getvalue().splitlines()) == (code != 0)


@pytest.fixture(scope="module")
def trained(files):
    """The checkpoint of a small ensemble trained once on the 16x16 dataset,
    for `eval`."""
    work, dataset = files
    config = work / "trained.cfg"
    config.write_text(f"[dataset]\npath = {dataset}\n[model]\nwidths = 2\ndense_units = 6\n"
                      f"[bagging]\nn_models = 2\n[train]\nepochs = 1\n[combiner]\nn_trees = 2\n"
                      f"[run]\nout = {work / 'trained'}\n")
    assert TestDatasetEdges.run("--config", config, "train") == (0, "")
    return work / "trained" / "checkpoint.bin"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_drawn_datasets_and_configs_end_with_a_documented_code(files, trained, fuzz):
    # the dataset's size, image shape and classes drawn with the config and
    # the command; eval reads the checkpoint of a 16x16x1 five-class model
    work = files[0]
    n = fuzz.draw(st.integers(0, 40), label="images")
    side = fuzz.draw(st.just(16) | st.integers(1, 24), label="side")
    channels = fuzz.draw(st.just(1) | st.integers(1, 3), label="channels")
    classes = fuzz.draw(st.integers(1, 5), label="classes")
    labels = np.array(fuzz.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n),
                                label="labels"), dtype=np.uint8)
    images = np.random.default_rng(n).uniform(size=(n, side, side, channels))
    data.save_container(data.DatasetContainer(images, labels, metrics.binarize_labels(labels)),
                        work / "drawn.bsec")
    options = {
        "dataset": {"split": ["0.6,0.1,0.2,0.1", "0.5,0,0.25,0.25", "0.4,0.2,0.2,0.2"]},
        "model": {"widths": ["2", "2,3", "4,4,4"], "dense_units": ["1", "6"],
                  "n_classes": ["2", "5"]},
        "bagging": {"n_models": ["1", "2", "3"], "bagging_ratio": ["0.3", "1"]},
        "train": {"epochs": ["1", "2"], "batch_size": ["1", "5", "64"]},
        "combiner": {"method": ["average", "vote", "stacking"], "n_trees": ["1", "4"],
                     "max_depth": ["1", "4"]},
        "metrics": {"excluded_classes": ["", "0", "1"]},
        "run": {"precision": ["32", "64"], "seed": ["0", "7"]},
        "sweep": {"grid": ["1:1", "0.5:1,1:2"]},
    }
    lines = {"dataset": [f"path = {work / 'drawn.bsec'}"], "run": [f"out = {work / 'drawn'}"]}
    for section, keys in options.items():
        lines.setdefault(section, []).extend(
            f"{key} = {fuzz.draw(st.sampled_from(values), label=key)}"
            for key, values in keys.items())
    config = work / "drawn.cfg"
    config.write_text("".join(f"[{section}]\n" + "\n".join(items) + "\n"
                              for section, items in lines.items()))
    command = fuzz.draw(st.sampled_from(["train", "sweep", "compare-combiners", "eval"]),
                        label="command")
    args = ["eval", trained, work / "drawn.bsec"] if command == "eval" else [command]
    code, err = TestDatasetEdges.run("--config", config, *args)
    event(f"{command} exit {code}")
    assert code in {0, 2, 3, 4}
    assert len(err.splitlines()) == (code != 0)


@pytest.mark.parametrize("command", ["train", "sweep", "compare-combiners"])
def test_an_overflowing_step_is_a_numeric_error(files, command):
    # in float64 the largest eta gives finite parameters that overflow the
    # next forward pass; that ends as a numeric error, not a warning
    work, dataset = files
    config = work / "overflow.cfg"
    config.write_text(f"[dataset]\npath = {dataset}\n[model]\nwidths = 4\ndense_units = 8\n"
                      f"[bagging]\nn_models = 2\n[train]\nepochs = 1\nbatch_size = 8\n"
                      f"eta = 1.7976931348623157e308\n[run]\nprecision = 64\n"
                      f"out = {work / 'overflow'}\n[sweep]\ngrid = 1:2\n")
    code, err = TestDatasetEdges.run("--config", config, command)
    assert (code, err) == (4, "numeric error: sub-model 0: softmax input contains "
                              "non-finite values\n")


def test_prediction_that_overflows_raises_a_numeric_error():
    model = network.build_scaled_cnn((16, 16, 1), [4], 5, dense_units=8)
    params = {k: np.full_like(v, 1e300) for k, v in network.init_params(model, 0,
                                                                       np.float64).items()}
    with warnings.catch_warnings(), pytest.raises(errors.NumericError, match="non-finite"):
        warnings.simplefilter("error")
        network.predict_probs(model, [params], np.ones((2, 16, 16, 1)))


@pytest.mark.parametrize("module,owner", [(training, "TrainConfig"), (bagging, "BaggingConfig")],
                         ids=["TrainConfig", "BaggingConfig"])
def test_settings_carry_the_library_rules(module, owner):
    rules = module.RULES
    assert set(rules) == {f.name for f in fields(getattr(module, owner))}
    run_fields = {f.name: f for f in fields(cli.RunConfig)}
    for name, rule in rules.items():
        assert run_fields[name].metadata["rules"] == (rule,), name


def test_split_setting_carries_the_data_rule():
    # data's fraction rule first, then the CLI's needed-part clause
    fraction_rule, needed = {f.name: f for f in fields(cli.RunConfig)}["split"].metadata["rules"]
    assert fraction_rule is data.FRACTIONS_RULE
    assert cli.RunConfig().split == data.DEFAULT_FRACTIONS
    with pytest.raises(errors.ConfigError, match=r"^field 'dataset.split': must be fractions "
                                                 r"with train, test and .* above 0, got "):
        cli.validate_config(cli.RunConfig(split=(0.6, 0.1, 0, 0.3)))
    assert needed[0]((0.6, 0.1, 0, 0.3), cli.RunConfig(combiner="vote"))


def test_grid_cells_take_the_bagging_rules():
    cells = [cell for text in EDGES["sweep.grid"] for cell in cli._parse_grid(text)]
    ratios = {float(text) for text in EDGES["bagging.bagging_ratio"]} | {r for r, _ in cells}
    counts = {int(text) for text in EDGES["bagging.n_models"]} | {n for _, n in cells}
    cfg = cli.RunConfig()
    for ratio, n in itertools.product(sorted(ratios), sorted(counts)):
        try:
            bagging.BaggingConfig(n_models=n, bagging_ratio=ratio)
            accepted = True
        except errors.InputError:
            accepted = False
        assert cli._grid_ok(((ratio, n),), cfg) == accepted, (ratio, n)


def test_integer_settings_refuse_other_numbers():
    with pytest.raises(errors.ConfigError,
                       match=r"^field 'combiner.n_trees': must be an integer >= 1, got 2.0$"):
        cli.validate_config(cli.RunConfig(n_trees=2.0))


class TestDatasetEdges:
    """CLI runs on datasets at their own edges: each ends with one documented
    code and one stderr line, with warnings as errors."""

    @staticmethod
    def run(*args):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main([str(a) for a in args])
        return code, err.getvalue()

    @staticmethod
    def config(tmp_path, dataset, split="0.6,0.1,0.2,0.1", method="stacking"):
        path = tmp_path / "run.cfg"
        path.write_text(f"[dataset]\npath = {dataset}\nsplit = {split}\n"
                        f"[model]\nwidths = 4\ndense_units = 8\n[train]\nepochs = 1\n"
                        f"[combiner]\nmethod = {method}\n[run]\nout = {tmp_path / 'out'}\n"
                        f"[sweep]\ngrid = 0.5:1,1.0:2\n")
        return path

    @staticmethod
    def container(path, n_per_class, size=16):
        labels = np.repeat(np.arange(5), n_per_class)
        data.save_container(data.DatasetContainer(np.full((len(labels), size, size, 1), 0.5),
                                                  labels, metrics.binarize_labels(labels)), path)
        return path

    EMPTY_PARTS = [
        (0, "0.6,0.1,0.2,0.1", "average", "train"),
        (1, "0.6,0.1,0.2,0.1", "average", "test"),  # one image per class: [5, 0, 0, 0]
        (1, "0.6,0.1,0.2,0.1", "stacking", "test"),
        (2, "0.5,0,0.1,0.4", "stacking", "stacking"),  # [5, 0, 0, 5]
        (4, "0.6,0.1,0.2,0.1", "average", "test"),  # [10, 5, 5, 0]
    ]

    @pytest.mark.parametrize("n_per_class,split,method,part", EMPTY_PARTS)
    def test_an_empty_split_part_is_refused_before_training(self, tmp_path, no_training,
                                                            n_per_class, split, method, part):
        dataset = self.container(tmp_path / "d.bsec", n_per_class)
        code, err = self.run("--config", self.config(tmp_path, dataset, split, method), "train")
        assert (code, err) == (3, f"data error: the {part} part of the split of "
                                  f"{5 * n_per_class} images is empty\n")

    @pytest.mark.parametrize("n_per_class,split,method,part", EMPTY_PARTS)
    def test_sweep_writes_an_error_row_per_cell(self, tmp_path, no_training,
                                                n_per_class, split, method, part):
        # a failed cell is a row of the table; a sweep where no cell trained
        # fails as its first cell did
        dataset = self.container(tmp_path / "d.bsec", n_per_class)
        code, err = self.run("--config", self.config(tmp_path, dataset, split, method), "sweep")
        message = f"the {part} part of the split of {5 * n_per_class} images is empty"
        assert (code, err) == (3, f"data error: {message}\n")
        error = f"error: {message}"
        assert (tmp_path / "out" / "sweep.csv").read_text() == (
            f"bagging_ratio,n_models,accuracy\n0.5,1,{error}\n1.0,2,{error}\n")

    @pytest.mark.parametrize("n_per_class,split,method,part", EMPTY_PARTS + [
        (2, "0.5,0,0.1,0.4", "vote", "stacking"),  # the forest is fitted whatever the method
    ])
    def test_compare_combiners_refuses_an_empty_split_part_before_training(
            self, tmp_path, no_training, n_per_class, split, method, part):
        dataset = self.container(tmp_path / "d.bsec", n_per_class)
        code, err = self.run("--config", self.config(tmp_path, dataset, split, method),
                             "compare-combiners")
        assert (code, err) == (3, f"data error: the {part} part of the split of "
                                  f"{5 * n_per_class} images is empty\n")

    def test_only_the_forest_needs_a_stacking_part(self, tmp_path, no_training):
        dataset = self.container(tmp_path / "d.bsec", 2)
        with pytest.raises(AssertionError, match="training started"):
            self.run("--config", self.config(tmp_path, dataset, "0.5,0,0.1,0.4", "vote"), "train")

    def test_an_empty_validation_part_is_not_refused(self, tmp_path, no_training):
        dataset = self.container(tmp_path / "d.bsec", 4)  # [10, 0, 5, 5]
        with pytest.raises(AssertionError, match="training started"):
            self.run("--config", self.config(tmp_path, dataset, "0.55,0.05,0.2,0.2", "average"),
                     "train")

    def test_images_too_small_for_the_model(self, tmp_path, no_training):
        dataset = self.container(tmp_path / "d.bsec", 1, size=2)
        code, err = self.run("--config", self.config(tmp_path, dataset), "train")
        assert (code, err) == (2, "config error: layer 0 (conv2d): kernel (3, 3) does not fit "
                                  "input 2x2\n")

    @pytest.fixture
    def ckpt(self, tmp_path):
        model = network.build_scaled_cnn((16, 16, 1), [4], 5, dense_units=8)
        ensemble = bagging.EnsembleModel(model=model, param_sets=[network.init_params(model, 0)],
                                         combiner="average")
        checkpoint.save_checkpoint(tmp_path / "ck.bin", ensemble)
        return tmp_path / "ck.bin"

    def test_eval_on_a_checkpoint_of_another_input_shape(self, tmp_path, ckpt):
        dataset = self.container(tmp_path / "d.bsec", 1, size=24)
        assert self.run("--out", tmp_path / "out", "eval", ckpt, dataset) == (
            3, "data error: batch shape (5, 24, 24, 1) does not match model input (16, 16, 1)\n")

    def test_eval_on_a_checkpoint_with_a_non_finite_bias(self, tmp_path):
        model = network.build_scaled_cnn((16, 16, 1), [4], 5, dense_units=8)
        params = network.init_params(model, 0)
        params["conv2d/b"][2] = np.inf
        checkpoint.save_checkpoint(tmp_path / "ck.bin", bagging.EnsembleModel(
            model=model, param_sets=[params], combiner="average"))
        dataset = self.container(tmp_path / "d.bsec", 1)
        assert self.run("--out", tmp_path / "out", "eval", tmp_path / "ck.bin", dataset) == (
            3, "data error: sub-model 0: array conv2d/b holds non-finite values\n")

    def test_eval_on_an_empty_container(self, tmp_path, ckpt):
        dataset = self.container(tmp_path / "d.bsec", 0)
        assert self.run("--out", tmp_path / "out", "eval", ckpt, dataset) == (
            3, f"data error: dataset {dataset} holds no images\n")
