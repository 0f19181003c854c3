"""Exit codes: the README's list matches the error classes, and the CLI
ends every run, at and just past each config rule's boundary, with a
documented code and at most one line on stderr."""

import contextlib
import io
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import cli, data, errors

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
    "model.widths": ["4", "1", "0", "4,4", "4,4,4"],
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
