import json
import os
import struct
import time

import numpy as np
import pytest

from baggedcnn import bagging, checkpoint, cli, combiners, data, network, training
from baggedcnn.errors import CheckpointError


@pytest.fixture
def trained(rng):
    images = rng.uniform(0, 0.3, size=(24, 16, 16, 1)).astype(np.float32)
    labels = (np.arange(24) % 2).astype(np.int64)
    for i in range(24):
        if labels[i]:
            images[i, 4:12, 4:12, 0] += 0.6
    model = network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)
    ens, _, _ = bagging.train_ensemble(
        images, labels, model, bagging.BaggingConfig(n_models=2, seed=0),
        training.TrainConfig(epochs=2))
    ens.combiner = "stacking"
    ens.forest = combiners.fit_stacking(ens, images, labels, n_trees=5, max_depth=4, seed=0)
    return ens, images


class TestRoundTrip:
    def test_predictions_bit_identical(self, trained, tmp_path):
        ens, images = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens, {"seed": 0})
        loaded, cfg = checkpoint.load_checkpoint(path)
        assert cfg == {"seed": 0}
        a = bagging.ensemble_predict_probs(ens, images)
        b = bagging.ensemble_predict_probs(loaded, images)
        assert np.array_equal(a, b)
        assert np.array_equal(combiners.combine(ens, a), combiners.combine(loaded, b))

    def test_forest_round_trip(self, trained, tmp_path):
        ens, images = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        loaded, _ = checkpoint.load_checkpoint(path)
        probs = bagging.ensemble_predict_probs(ens, images)
        assert np.array_equal(combiners.combine_stacking(ens.forest, probs),
                              combiners.combine_stacking(loaded.forest, probs))

    def test_params_take_the_trained_layout(self, trained, tmp_path):
        # the manifest lists each sub-model's arrays sorted, conv2d/b first
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        loaded, _ = checkpoint.load_checkpoint(path)
        layout = list(network._param_shapes(ens.model))
        assert layout[0] == "conv2d/w"
        assert [list(p) for p in ens.param_sets] == [layout] * 2
        assert [list(p) for p in loaded.param_sets] == [layout] * 2

    def test_params_exact(self, trained, tmp_path):
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        loaded, _ = checkpoint.load_checkpoint(path)
        for p1, p2 in zip(ens.param_sets, loaded.param_sets):
            assert set(p1) == set(p2)
            for k in p1:
                assert p1[k].dtype == p2[k].dtype
                assert np.array_equal(p1[k], p2[k])


class TestAtomicWrite:
    def test_failed_write_keeps_the_previous_checkpoint(self, trained, tmp_path, monkeypatch):
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        before = path.read_bytes()

        class FailingFile:  # fails on its third write, after the header
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.fh.write(data)

        ens.combiner = "average"  # the header differs from the saved one
        with monkeypatch.context() as patch, pytest.raises(OSError, match="disk full"):
            patch.setattr(checkpoint, "open", lambda *a: FailingFile(open(*a)), raising=False)
            checkpoint.save_checkpoint(path, ens)
        assert os.listdir(tmp_path) == ["ck.bin"]
        assert path.read_bytes() == before
        loaded, _ = checkpoint.load_checkpoint(path)
        assert loaded.combiner == "stacking"


class TestFailures:
    def test_truncated(self, trained, tmp_path):
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint.load_checkpoint(path)

    def test_version_bump_rejected(self, trained, tmp_path):
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        raw = bytearray(path.read_bytes())
        raw[4] = 42
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.load_checkpoint(path)

    def test_bad_magic(self, trained, tmp_path):
        ens, _ = trained
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint.load_checkpoint(path)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["conv2d/b", "dense_1/w"])
    def test_refused_naming_the_array(self, trained, tmp_path, value, name):
        # prediction adds a conv's bias after its pool, which a non-finite
        # bias could tell apart from the conv's own sums
        ens, _ = trained
        ens.param_sets[1][name].flat[-1] = value
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        with pytest.raises(CheckpointError,
                           match=f"^sub-model 1: array {name} holds non-finite values$"):
            checkpoint.load_checkpoint(path)


def rewrite(path, edit, drop_tail=0):
    """Apply edit(header dict) to a saved checkpoint's JSON header, keeping
    the array blobs (minus drop_tail trailing bytes)."""
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = raw[12 + hlen : len(raw) - drop_tail]
    path.write_bytes(raw[:8] + struct.pack("<I", len(payload)) + payload + blobs)


@pytest.fixture
def saved(trained, tmp_path):
    ens, _ = trained
    path = tmp_path / "ck.bin"
    checkpoint.save_checkpoint(path, ens)
    return path


def first_split(header):
    """Node row of the root of the first tree that has a split."""
    return next(t[0] for t in header["forest"]["trees"] if t[0][0] >= 0)


class TestForestValidation:
    def test_save_load_save_byte_identical(self, saved, tmp_path):
        loaded, _ = checkpoint.load_checkpoint(saved)
        again = tmp_path / "again.bin"
        checkpoint.save_checkpoint(again, loaded)
        assert again.read_bytes() == saved.read_bytes()

    def test_empty_tree(self, saved):
        rewrite(saved, lambda h: h["forest"]["trees"].__setitem__(0, []))
        with pytest.raises(CheckpointError, match="no nodes"):
            checkpoint.load_checkpoint(saved)

    def test_row_field_count(self, saved):
        rewrite(saved, lambda h: h["forest"]["trees"][0][0].pop())
        with pytest.raises(CheckpointError, match="5 fields"):
            checkpoint.load_checkpoint(saved)

    def test_feature_out_of_range(self, saved):
        rewrite(saved, lambda h: first_split(h).__setitem__(0, 99))
        with pytest.raises(CheckpointError, match="feature"):
            checkpoint.load_checkpoint(saved)

    def test_child_points_back_at_parent(self, saved):
        rewrite(saved, lambda h: first_split(h).__setitem__(2, 0))
        with pytest.raises(CheckpointError, match="child"):
            checkpoint.load_checkpoint(saved)

    def test_child_past_last_node(self, saved):
        def edit(h):
            tree = next(t for t in h["forest"]["trees"] if t[0][0] >= 0)
            tree[0][3] = len(tree)
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="child"):
            checkpoint.load_checkpoint(saved)

    def test_leaf_label_out_of_range(self, saved):
        def edit(h):
            tree = h["forest"]["trees"][0]
            next(row for row in tree if row[0] == -1)[4] = h["forest"]["n_classes"]
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="label"):
            checkpoint.load_checkpoint(saved)


class TestHeaderValidation:
    def test_missing_layers(self, saved):
        rewrite(saved, lambda h: h["model"].pop("layers"))
        with pytest.raises(CheckpointError, match="layers"):
            checkpoint.load_checkpoint(saved)

    def test_missing_array(self, saved):
        def edit(h):
            h["arrays"] = [e for e in h["arrays"]
                           if not (e["model"] == 1 and e["name"] == "conv2d/b")]
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="missing"):
            checkpoint.load_checkpoint(saved)

    def test_wrong_shape(self, saved):
        def edit(h):
            entry = next(e for e in h["arrays"] if e["name"] == "conv2d/b")
            entry["shape"] = [entry["shape"][0] - 1]
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="shape"):
            checkpoint.load_checkpoint(saved)

    def test_wrong_dtype(self, saved):
        def edit(h):
            next(e for e in h["arrays"] if e["name"] == "conv2d/b")["dtype"] = "int32"
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="dtype"):
            checkpoint.load_checkpoint(saved)

    def test_sub_models_mix_dtypes(self, trained, tmp_path):
        # each sub-model is in one dtype, but not both in the same one
        ens, images = trained
        ens.param_sets[1] = {k: v.astype(np.float64) for k, v in ens.param_sets[1].items()}
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, ens)
        with pytest.raises(CheckpointError, match=r"mix dtypes \['float32', 'float64'\]"):
            checkpoint.load_checkpoint(path)
        ds = tmp_path / "ds.bsec"
        data.save_container(data.synth_dataset(2, image_size=16, seed=0), ds)
        assert cli.main(["--out", str(tmp_path / "out"), "eval", str(path), str(ds)]) == 3

    def test_declared_arrays_exceed_file(self, saved):
        rewrite(saved, lambda h: None, drop_tail=1)
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint.load_checkpoint(saved)

    def test_cli_exit_code(self, saved, tmp_path):
        rewrite(saved, lambda h: h["model"].pop("layers"))
        ds = tmp_path / "ds.bsec"
        data.save_container(data.synth_dataset(2, image_size=16, seed=0), ds)
        assert cli.main(["--out", str(tmp_path / "out"), "eval", str(saved), str(ds)]) == 3


class TestSubModelCount:
    def test_huge_n_models_refused_at_once(self, saved, tmp_path):
        rewrite(saved, lambda h: h.__setitem__("n_models", 10**12))
        start = time.perf_counter()
        with pytest.raises(CheckpointError, match="sub-models"):
            checkpoint.load_checkpoint(saved)
        assert time.perf_counter() - start < 1.0
        ds = tmp_path / "ds.bsec"
        data.save_container(data.synth_dataset(2, image_size=16, seed=0), ds)
        assert cli.main(["--out", str(tmp_path / "out"), "eval", str(saved), str(ds)]) == 3

    @pytest.mark.parametrize("n_models", [0, 2.5, True, "2", None])
    def test_n_models_must_be_a_positive_integer(self, saved, n_models):
        rewrite(saved, lambda h: h.__setitem__("n_models", n_models))
        with pytest.raises(CheckpointError, match="sub-models in a"):
            checkpoint.load_checkpoint(saved)

    @pytest.mark.parametrize("index", [1.5, True, "1", 2, -1])
    def test_array_sub_model_index_must_be_in_range(self, saved, index):
        # 1.5 read as sub-model 1 before
        def edit(h):
            h["arrays"][-1]["model"] = index
        rewrite(saved, edit)
        with pytest.raises(CheckpointError, match="belongs to sub-model"):
            checkpoint.load_checkpoint(saved)

    @pytest.mark.parametrize("n_models,kind", [(3, "missing"), (1, "extra")])
    def test_manifest_length_must_match(self, saved, n_models, kind):
        # the model has 6 arrays: conv2d, dense and dense_1, each w and b
        rewrite(saved, lambda h: h.__setitem__("n_models", n_models))
        with pytest.raises(CheckpointError, match=f"need {n_models * 6}, manifest lists 12: "
                                                  f"arrays {kind}"):
            checkpoint.load_checkpoint(saved)

    def test_parameter_free_model_bounded_by_header_bytes(self, tmp_path):
        # no arrays bound the count, so the header's byte count does
        model = network.ModelSpec((4, 4, 1), (network.pool(), network.flat()), n_classes=4)
        path = tmp_path / "ck.bin"
        checkpoint.save_checkpoint(path, bagging.EnsembleModel(model=model, param_sets=[{}, {}]))
        loaded, _ = checkpoint.load_checkpoint(path)
        assert loaded.model == model and loaded.param_sets == [{}, {}]
        hlen = struct.unpack("<I", path.read_bytes()[8:12])[0]
        rewrite(path, lambda h: h.__setitem__("n_models", 10**12))
        with pytest.raises(CheckpointError, match="sub-models in a"):
            checkpoint.load_checkpoint(path)
        rewrite(path, lambda h: h.__setitem__("n_models", hlen))
        assert checkpoint.load_checkpoint(path)[0].n_models == hlen


class TestCombinerValidation:
    def test_unknown_combiner(self, saved):
        rewrite(saved, lambda h: h.__setitem__("combiner", "median"))
        with pytest.raises(CheckpointError, match="unknown combiner 'median'"):
            checkpoint.load_checkpoint(saved)

    def test_stacking_without_forest(self, saved):
        rewrite(saved, lambda h: h.__setitem__("forest", None))
        with pytest.raises(CheckpointError, match="without a forest"):
            checkpoint.load_checkpoint(saved)

    @pytest.mark.parametrize("key,value", [("n_classes", 7), ("n_features", 9)])
    def test_forest_must_fit_the_model(self, saved, key, value):
        # 2 sub-models of 2 classes: the forest reads 2 classes from 4 features
        rewrite(saved, lambda h: h["forest"].__setitem__(key, value))
        with pytest.raises(CheckpointError, match="need 2 and 4"):
            checkpoint.load_checkpoint(saved)

    @pytest.mark.parametrize("combiner", ["average", "vote"])
    def test_other_combiners_load_with_or_without_forest(self, saved, combiner):
        rewrite(saved, lambda h: h.__setitem__("combiner", combiner))
        assert checkpoint.load_checkpoint(saved)[0].forest is not None
        rewrite(saved, lambda h: h.__setitem__("forest", None))
        assert checkpoint.load_checkpoint(saved)[0].combiner == combiner
