import os
import subprocess
import sys

import numpy as np
import pytest

from baggedcnn import cli, data


@pytest.fixture
def workspace(tmp_path):
    ds = data.synth_dataset(12, n_classes=5, image_size=16, seed=0, noise=0.1)
    ds_path = tmp_path / "ds.bsec"
    data.save_container(ds, ds_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"""
[dataset]
path = {ds_path}
split = 0.6,0.1,0.2,0.1

[model]
size = scaled
widths = 4
dense_units = 8
n_classes = 5

[bagging]
n_models = 2
bagging_ratio = 0.8

[train]
epochs = 2
batch_size = 16

[combiner]
method = stacking
n_trees = 10
max_depth = 6

[sweep]
grid = 0.6:2,0.8:1

[run]
seed = 0
out = {tmp_path / "out"}
""")
    return tmp_path, ds_path, cfg_path


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestDatasetCommands:
    def test_synth_and_inspect(self, tmp_path, capsys):
        path = tmp_path / "s.bsec"
        assert run_cli(["--seed", 3, "dataset", "synth", path,
                        "--n-per-class", 5, "--image-size", 16]) == 0
        assert run_cli(["dataset", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "25 of 16x16x1" in out
        assert "class 4: 5" in out

    def test_inspect_missing_file(self, tmp_path):
        assert run_cli(["dataset", "inspect", tmp_path / "nope.bsec"]) == 3

    def test_inspect_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.bsec"
        bad.write_bytes(b"garbage data here")
        assert run_cli(["dataset", "inspect", bad]) == 3


class TestTrain:
    def test_outputs_written(self, workspace):
        tmp_path, _, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "train"]) == 0
        out = tmp_path / "out"
        for name in ("checkpoint.bin", "bags.csv", "confusion.csv", "confusion.txt",
                     "metrics.csv", "metrics.txt", "history_model_0.csv",
                     "history_model_1.csv"):
            assert (out / name).exists(), name
        # 5-class confusion: header + 5 rows
        lines = (out / "confusion.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        metrics_lines = (out / "metrics.csv").read_text()
        assert "binary_accuracy" in metrics_lines

    def test_rerun_byte_identical(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["--config", cfg_path, "--out", out1, "train"]) == 0
        assert run_cli(["--config", cfg_path, "--out", out2, "train"]) == 0
        for name in ("metrics.csv", "confusion.csv", "bags.csv", "history_model_0.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_binary_task(self, workspace, tmp_path):
        tmp_path_, _, cfg_path = workspace
        text = cfg_path.read_text().replace("n_classes = 5", "n_classes = 2")
        cfg2 = tmp_path_ / "run2.cfg"
        cfg2.write_text(text)
        out = tmp_path / "bin_out"
        assert run_cli(["--config", cfg2, "--out", out, "train"]) == 0
        lines = (out / "confusion.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 classes

    def test_missing_dataset(self, workspace, tmp_path):
        tmp_path_, ds_path, cfg_path = workspace
        text = cfg_path.read_text().replace(str(ds_path), str(tmp_path_ / "missing.bsec"))
        cfg2 = tmp_path_ / "run3.cfg"
        cfg2.write_text(text)
        assert run_cli(["--config", cfg2, "train"]) == 3

    def test_bad_config_field(self, workspace):
        tmp_path_, _, cfg_path = workspace
        text = cfg_path.read_text().replace("method = stacking", "method = blending")
        cfg2 = tmp_path_ / "run4.cfg"
        cfg2.write_text(text)
        assert run_cli(["--config", cfg2, "train"]) == 2

    def test_unbuildable_widths(self, workspace, capsys):
        # four conv/pool blocks shrink 16x16 images below a 3x3 kernel
        tmp_path_, _, cfg_path = workspace
        text = cfg_path.read_text().replace("widths = 4", "widths = 8,16,32,64")
        cfg2 = tmp_path_ / "run5.cfg"
        cfg2.write_text(text)
        assert run_cli(["--config", cfg2, "train"]) == 2
        assert "config error" in capsys.readouterr().err


class TestEval:
    def test_eval_deterministic(self, workspace, tmp_path):
        tmp_path_, ds_path, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "train"]) == 0
        ck = tmp_path_ / "out" / "checkpoint.bin"
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        assert run_cli(["--config", cfg_path, "--out", e1, "eval", ck, ds_path]) == 0
        assert run_cli(["--config", cfg_path, "--out", e2, "eval", ck, ds_path]) == 0
        assert (e1 / "metrics.csv").read_bytes() == (e2 / "metrics.csv").read_bytes()

    def test_eval_shape_mismatch(self, workspace, tmp_path):
        tmp_path_, _, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "train"]) == 0
        ck = tmp_path_ / "out" / "checkpoint.bin"
        other = tmp_path / "other.bsec"
        data.save_container(data.synth_dataset(4, image_size=24, seed=0), other)
        assert run_cli(["--config", cfg_path, "eval", ck, other]) == 3


class TestSweep:
    def test_table_layout(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "sweep"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "bagging_ratio,n_models,accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("0.6,2,")
        assert lines[2].startswith("0.8,1,")

    def test_rerun_identical(self, workspace, tmp_path):
        _, _, cfg_path = workspace
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(["--config", cfg_path, "--out", s1, "sweep"]) == 0
        assert run_cli(["--config", cfg_path, "--out", s2, "sweep"]) == 0
        assert (s1 / "sweep.csv").read_bytes() == (s2 / "sweep.csv").read_bytes()

    def test_empty_grid(self, workspace):
        tmp_path_, _, cfg_path = workspace
        text = cfg_path.read_text().replace("grid = 0.6:2,0.8:1", "grid =")
        cfg2 = tmp_path_ / "run5.cfg"
        cfg2.write_text(text)
        assert run_cli(["--config", cfg2, "sweep"]) == 2


class TestCompareCombiners:
    def test_table_layout(self, workspace):
        tmp_path, _, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "compare-combiners"]) == 0
        lines = (tmp_path / "out" / "combiners.csv").read_text().strip().splitlines()
        assert lines[0] == "method,micro_precision,micro_recall,micro_f1"
        assert [l.split(",")[0] for l in lines[1:]] == ["average", "vote", "stacking"]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "x.bsec"
        proc = subprocess.run(
            [sys.executable, "-m", "baggedcnn.cli", "dataset", "synth", str(path),
             "--n-per-class", "2", "--image-size", "16"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert path.exists()
