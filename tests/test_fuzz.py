"""Truncated and byte-flipped dataset containers and checkpoints.

The loaders may raise only their own format error (FormatError for a BSEC
container, CheckpointError for a BCKP checkpoint), and the CLI maps every
file they refuse to exit 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import bagging, checkpoint, cli, data, forest, metrics, network
from baggedcnn.errors import CheckpointError, FormatError


def _container():
    rng = np.random.default_rng(0)
    labels = np.arange(6) % 5
    return data.DatasetContainer(images=rng.uniform(0, 1, (6, 4, 4, 1)), labels_multi=labels,
                                 labels_binary=metrics.binarize_labels(labels), metadata="fuzz")


def _ensemble():
    model = network.build_scaled_cnn((4, 4, 1), [2], 5, dense_units=3)
    param_sets = [network.init_params(model, seed) for seed in (0, 1)]
    rng = np.random.default_rng(0)
    rf = forest.fit_forest(rng.uniform(0, 1, (20, 10)), np.arange(20) % 5, n_trees=3,
                           max_depth=3, seed=0, n_classes=5)
    return bagging.EnsembleModel(model=model, param_sets=param_sets, combiner="stacking",
                                 forest=rf)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(work directory, valid container path, valid checkpoint path)."""
    work = tmp_path_factory.mktemp("fuzz")
    data.save_container(_container(), work / "valid.bsec")
    checkpoint.save_checkpoint(work / "valid.bin", _ensemble(), cli.config_snapshot(cli.RunConfig()))
    return work, work / "valid.bsec", work / "valid.bin"


def _mutate(draw, raw):
    """raw cut short, or raw with one to four bytes xored with a non-zero mask."""
    if draw(st.booleans(), label="truncate"):
        return raw[: draw(st.integers(0, len(raw) - 1), label="length")]
    out = bytearray(raw)
    flips = st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                     min_size=1, max_size=4)
    for at, mask in draw(flips, label="flips"):
        out[at] ^= mask
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_container_mutations(files, fuzz):
    work, valid, _ = files
    path = work / "mutated.bsec"
    path.write_bytes(_mutate(fuzz.draw, valid.read_bytes()))
    try:
        data.load_container(path)
    except FormatError:
        assert cli.main(["dataset", "inspect", str(path)]) == 3
    else:
        assert cli.main(["dataset", "inspect", str(path)]) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checkpoint_mutations(files, fuzz):
    work, dataset, valid = files
    path = work / "mutated.bin"
    path.write_bytes(_mutate(fuzz.draw, valid.read_bytes()))
    argv = ["--out", str(work / "eval"), "eval", str(path), str(dataset)]
    try:
        checkpoint.load_checkpoint(path)
    except CheckpointError:
        assert cli.main(argv) == 3
    else:  # a flipped weight or config byte can leave a loadable file
        assert cli.main(argv) in (0, 3, 4)
