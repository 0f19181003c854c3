import os
import signal
import struct
import time
import types

import numpy as np
import pytest

from baggedcnn import cli, data
from baggedcnn.errors import FormatError, InputError, LabelError


def small_container(rng, n=12):
    images = rng.uniform(size=(n, 8, 8, 1)).astype(np.float32)
    labels = (np.arange(n) % 5).astype(np.uint8)
    return data.DatasetContainer(images=images, labels_multi=labels,
                                 labels_binary=(labels > 0).astype(np.uint8),
                                 metadata="test container")


class TestReplaceFile:
    def test_a_write_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        data.write_csv(path, ["a", "b"], [[1, 2]])
        before = path.read_bytes()

        class Unprintable:
            def __str__(self):
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            data.write_csv(path, ["a", "b"], [[3, 4], [5, Unprintable()]])
        assert before == b"a,b\r\n1,2\r\n" and path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_a_file_appears_only_whole(self, tmp_path):
        path = tmp_path / "new.txt"
        with pytest.raises(KeyboardInterrupt):
            with data.replace_file(path) as tmp, open(tmp, "w") as fh:
                fh.write("part")
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == []
        with data.replace_file(path) as tmp, open(tmp, "w") as fh:
            fh.write("whole")
        assert os.listdir(tmp_path) == ["new.txt"] and path.read_text() == "whole"

    def test_the_next_write_removes_a_killed_writer_s_file(self, tmp_path):
        path = tmp_path / "t.csv"
        ready, signal_ready = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                with data.replace_file(path) as tmp, open(tmp, "w") as fh:
                    fh.write("part")
                    fh.flush()
                    os.write(signal_ready, b".")
                    time.sleep(60)
            finally:
                os._exit(1)  # not reached unless the kill failed
        os.close(signal_ready)
        assert os.read(ready, 1) == b"."
        os.close(ready)
        os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        # beside it: a live writer's file, and names that are not path's
        kept = [f"t.csv.{os.getppid()}.tmp", "t.csv.x1.tmp", f"t.csvx.{pid}.tmp",
                f"u.csv.{pid}.tmp"]
        for name in kept:
            (tmp_path / name).write_text("other")
        assert sorted(os.listdir(tmp_path)) == sorted(kept + [f"t.csv.{pid}.tmp"])
        data.write_csv(path, ["a"], [[1]])
        assert sorted(os.listdir(tmp_path)) == sorted(kept + ["t.csv"])
        assert path.read_bytes() == b"a\r\n1\r\n"

    def test_a_container_write_that_raises_keeps_the_earlier_container(self, rng, tmp_path,
                                                                        monkeypatch):
        path = tmp_path / "ds.bsec"
        data.save_container(small_container(rng), path)
        before = path.read_bytes()

        class FailingFile:  # fails on its third write, the image payload
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.fh.write(chunk)

        with monkeypatch.context() as patch, pytest.raises(OSError, match="disk full"):
            patch.setattr(data, "open", lambda *a: FailingFile(open(*a)), raising=False)
            data.save_container(small_container(rng, n=7), path)
        assert os.listdir(tmp_path) == ["ds.bsec"]
        assert path.read_bytes() == before
        assert len(data.load_container(path)) == 12

    def test_metrics_text_files_keep_the_previous_file(self, tmp_path, monkeypatch):
        cfg = types.SimpleNamespace(excluded_classes=())
        cli.write_metrics_files(tmp_path, np.array([[2, 0], [1, 3]]), cfg)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        assert sorted(before) == ["confusion.csv", "confusion.txt", "metrics.csv", "metrics.txt"]

        def fail(cm):
            raise OSError("disk full")

        monkeypatch.setattr(cli.metrics, "confusion_text", fail)
        with pytest.raises(OSError, match="disk full"):
            cli.write_metrics_files(tmp_path, np.array([[3, 0], [0, 3]]), cfg)
        after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        # every file before confusion.txt holds the new run's values
        assert sorted(after) == sorted(before)
        assert after["confusion.txt"] == before["confusion.txt"]
        assert after["metrics.txt"] != before["metrics.txt"]


class TestContainerIO:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        loaded = data.load_container(path)
        assert np.array_equal(loaded.images, ds.images)
        assert np.array_equal(loaded.labels_multi, ds.labels_multi)
        assert np.array_equal(loaded.labels_binary, ds.labels_binary)
        assert loaded.metadata == ds.metadata
        # second save produces byte-identical files
        path2 = tmp_path / "ds2.bsec"
        data.save_container(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_corrupted_magic(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            data.load_container(path)

    def test_unknown_version(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            data.load_container(path)

    def test_truncation(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="offset"):
            data.load_container(path)

    def test_inconsistent_binary_labels_rejected(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        # flip one binary label byte (last section before metadata)
        meta_len = len(ds.metadata.encode())
        idx = len(raw) - 4 - meta_len - 1
        raw[idx] ^= 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="inconsistent"):
            data.load_container(path)

    def test_header_larger_than_file(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**62)  # N
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            data.load_container(path)
        assert cli.main(["dataset", "inspect", str(path)]) == 3

    def test_nan_pixel_rejected(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        raw[29:33] = struct.pack("<f", float("nan"))  # first pixel
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match="finite"):
            data.load_container(path)

    def test_metadata_not_utf8(self, rng, tmp_path):
        ds = small_container(rng)
        path = tmp_path / "ds.bsec"
        data.save_container(ds, path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            data.load_container(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_rejected(self, value):
        images = np.zeros((1, 4, 4, 1))
        images[0, 1, 2, 0] = value
        with pytest.raises(InputError, match="finite"):
            data.DatasetContainer(images=images, labels_multi=np.array([0]),
                                  labels_binary=np.array([0]))

    def test_constructor_validates(self, rng):
        with pytest.raises(LabelError):
            data.DatasetContainer(images=np.zeros((1, 4, 4, 1)),
                                  labels_multi=np.array([2]),
                                  labels_binary=np.array([0]))


def reference_synth(n_per_class, n_classes, image_size, channels, noise, seed=0):
    """synth_dataset's (images, labels) as a per-image loop: one noise draw
    per image, on float64 templates drawn here."""
    s, c = image_size, image_size // 2
    templates = []
    for k in range(n_classes):
        img = np.full((s, s), 0.1)
        if k in (1, 2):
            data._draw_disk(img, c, c, s // 8 if k == 1 else s // 3, 0.9)
        elif k in (3, 4):
            data._draw_cross(img, c, c, s // 8 if k == 3 else s // 3, max(1, s // 16), 0.9)
        templates.append(img)
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for k in range(n_classes):
        for _ in range(n_per_class):
            img = templates[k][:, :, None].repeat(channels, axis=2)
            if noise > 0:
                img = img + rng.normal(0, noise, size=img.shape)
            images.append(np.clip(img, 0, 1).astype(np.float32))
            labels.append(k)
    return np.stack(images), np.array(labels, dtype=np.uint8)


class TestSynthDataset:
    @pytest.mark.parametrize("n_per_class,n_classes,size,channels,noise", [
        (200, 5, 32, 1, 0.1), (7, 5, 16, 3, 0.6), (5, 2, 20, 1, 0.0)])
    def test_bytes_equal_per_image_loop(self, n_per_class, n_classes, size, channels, noise):
        ds = data.synth_dataset(n_per_class, n_classes, size, seed=3, noise=noise,
                                channels=channels)
        images, labels = reference_synth(n_per_class, n_classes, size, channels, noise, seed=3)
        assert ds.images.tobytes() == images.tobytes()
        assert ds.labels_multi.dtype == np.uint8
        assert ds.labels_multi.tobytes() == labels.tobytes()

    def test_noiseless_within_class_identical(self):
        ds = data.synth_dataset(3, n_classes=5, image_size=24, seed=0, noise=0.0)
        for k in range(5):
            imgs = ds.images[ds.labels_multi == k]
            assert np.array_equal(imgs[0], imgs[1])
            assert np.array_equal(imgs[0], imgs[2])

    def test_deterministic(self):
        a = data.synth_dataset(4, seed=5)
        b = data.synth_dataset(4, seed=5)
        assert np.array_equal(a.images, b.images)

    def test_nearest_centroid_oracle(self):
        # noiseless templates are distinct: centroid classification is exact
        train = data.synth_dataset(2, image_size=24, seed=0, noise=0.0)
        centroids = np.stack([
            train.images[train.labels_multi == k].mean(axis=0) for k in range(5)
        ])
        test = data.synth_dataset(5, image_size=24, seed=1, noise=0.0)
        dists = ((test.images[:, None] - centroids[None]) ** 2).sum(axis=(2, 3, 4))
        assert np.array_equal(dists.argmin(axis=1), test.labels_multi)

    def test_too_small(self):
        with pytest.raises(InputError):
            data.synth_dataset(2, image_size=8)

    @pytest.mark.parametrize("n_per_class,noise,what", [
        (-1, 0.1, "n_per_class"), (0, 0.1, "n_per_class"), (2, -1.0, "noise"),
        (2, float("nan"), "noise"), (2, float("inf"), "noise"), (2, float("-inf"), "noise"),
    ])
    def test_bad_size_or_noise_refused(self, n_per_class, noise, what):
        with pytest.raises(InputError, match=what):
            data.synth_dataset(n_per_class, image_size=16, noise=noise)

    @pytest.mark.parametrize("kwargs,what", [
        (dict(n_per_class=2.5), "n_per_class"), (dict(image_size=16.5), "image_size"),
        (dict(n_classes=3.0), "n_classes"), (dict(channels=1.0), "channels"),
        (dict(channels=0), "channels"),
    ], ids=["fractional-n", "fractional-size", "float-classes", "float-channels",
            "no-channels"])
    def test_non_integer_or_empty_shape_refused(self, kwargs, what):
        args = dict(n_per_class=2, image_size=16) | kwargs
        with pytest.raises(InputError, match=what):
            data.synth_dataset(**args)

    def test_numpy_integers_accepted(self):
        ds = data.synth_dataset(np.int64(2), n_classes=np.int32(3), image_size=np.int64(16),
                                channels=np.uint8(2))
        assert ds.images.shape == (6, 16, 16, 2)

    def test_binary_labels_consistent(self):
        ds = data.synth_dataset(3, seed=2)
        assert np.array_equal(ds.labels_binary, (ds.labels_multi > 0).astype(np.uint8))


class TestSplit:
    def test_disjoint_and_covering(self, rng):
        ds = data.synth_dataset(20, seed=0)
        views = data.split(ds, (0.6, 0.1, 0.2, 0.1), seed=0)
        all_idx = np.concatenate([v.indices for v in views])
        assert len(all_idx) == len(ds)
        assert len(np.unique(all_idx)) == len(ds)

    def test_stratified_within_one(self):
        ds = data.synth_dataset(20, seed=0)
        views = data.split(ds, (0.6, 0.1, 0.2, 0.1), seed=0)
        for v, frac in zip(views, (0.6, 0.1, 0.2, 0.1)):
            counts = np.bincount(ds.labels_multi[v.indices], minlength=5)
            assert np.all(np.abs(counts - frac * 20) <= 1)

    def test_deterministic(self):
        ds = data.synth_dataset(10, seed=0)
        a = data.split(ds, seed=3)
        b = data.split(ds, seed=3)
        assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))

    def test_bad_fractions(self):
        ds = data.synth_dataset(4, seed=0)
        with pytest.raises(InputError):
            data.split(ds, (0.5, 0.2, 0.2, 0.2))

    @pytest.mark.parametrize("fractions", [
        (1.2, -0.2, 0, 0), (0.5, 0.5, 1.5, -1.5), (float("nan"), 0.5, 0.25, 0.25),
        (float("inf"), 0, 0, 0),
    ], ids=["over-one", "negative", "nan", "inf"])
    def test_fraction_outside_unit_interval_refused(self, fractions):
        ds = data.synth_dataset(4, seed=0)
        with pytest.raises(InputError, match=r"in \[0, 1\]"):
            data.split(ds, fractions)

    def test_edge_fractions_allowed(self):
        ds = data.synth_dataset(4, seed=0)
        train, *rest = data.split(ds, (1, 0, 0, 0))
        assert len(train) == len(ds) and all(len(v) == 0 for v in rest)

    def test_a_small_dataset_can_leave_a_part_empty(self):
        # four images per class at 0.05 give validation none; the caller decides
        views = data.split(data.synth_dataset(4, seed=0), (0.55, 0.05, 0.2, 0.2))
        assert isinstance(views, data.Split) and views == tuple(views)
        assert [len(v) for v in views] == [10, 0, 5, 5]
        assert views.validation is views[1] and views.test is views[3]
