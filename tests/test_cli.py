import hashlib
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from baggedcnn import bagging, checkpoint, cli, data, forest, network, training


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

    @pytest.mark.parametrize("flag,value", [
        ("--n-per-class", "-1"), ("--n-per-class", "0"), ("--noise", "-1"),
        ("--noise", "nan"), ("--noise", "inf"),
    ])
    def test_synth_bad_argument_is_a_data_error(self, tmp_path, capsys, flag, value):
        path = tmp_path / "s.bsec"
        assert run_cli(["dataset", "synth", path, "--image-size", 16, flag, value]) == 3
        assert "data error" in capsys.readouterr().err
        assert not path.exists()

    def test_inspect_missing_file(self, tmp_path):
        assert run_cli(["dataset", "inspect", tmp_path / "nope.bsec"]) == 3

    def test_inspect_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.bsec"
        bad.write_bytes(b"garbage data here")
        assert run_cli(["dataset", "inspect", bad]) == 3

    def test_inspect_directory(self, tmp_path, capsys):
        assert run_cli(["dataset", "inspect", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("data error: ")


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

    @pytest.mark.parametrize("field,value", [("widths", "0"), ("widths", "4,-2"),
                                             ("dense_units", "0")])
    def test_non_positive_layer_sizes(self, workspace, capsys, field, value):
        tmp_path_, _, cfg_path = workspace
        old = "widths = 4" if field == "widths" else "dense_units = 8"
        cfg2 = tmp_path_ / "run6.cfg"
        cfg2.write_text(cfg_path.read_text().replace(old, f"{field} = {value}"))
        assert run_cli(["--config", cfg2, "train"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_diverging_run_fails_with_one_line(self, workspace):
        # a child process, so any numpy warning would reach its stderr
        tmp_path_, _, cfg_path = workspace
        cfg2 = tmp_path_ / "run7.cfg"
        cfg2.write_text(cfg_path.read_text().replace("batch_size = 16",
                                                     "batch_size = 16\neta = 1e30"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "baggedcnn.cli", "--config", str(cfg2), "train"],
            capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "numeric error: sub-model 0: non-finite value in parameter 'conv2d/w' "
            "after an Adam step"]

    def test_dead_worker_fails_with_one_line(self, workspace, monkeypatch, capfd):
        # capfd, so that anything a worker writes to stderr shows too
        _, _, cfg_path = workspace
        parent, train_submodel = os.getpid(), training.train_submodel

        def die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return train_submodel(*args, **kwargs)

        monkeypatch.setattr(training, "train_submodel", die_in_worker)
        monkeypatch.setattr(bagging, "_trainer_count", lambda n_models: 2)
        assert run_cli(["--config", cfg_path, "train"]) == 5
        assert capfd.readouterr().err == (
            "worker error: sub-model 1: its training process ended without a result\n")

    def test_dead_worker_while_growing_trees_fails_with_one_line(self, workspace, monkeypatch,
                                                                  capfd):
        _, _, cfg_path = workspace
        parent, grow = os.getpid(), forest._grow

        def die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return grow(*args, **kwargs)

        monkeypatch.setattr(forest, "_grow", die_in_worker)
        monkeypatch.setattr(bagging, "_trainer_count", lambda n_models: 2)
        assert run_cli(["--config", cfg_path, "train"]) == 5
        assert capfd.readouterr().err == (
            "worker error: forest tree 1: its process ended without a result\n")

    @pytest.mark.parametrize("n_procs, forks", [(1, 0), (2, 1)])
    def test_pipeline_forks_once(self, workspace, monkeypatch, n_procs, forks):
        # the forest's trees grow on the trainers that trained the sub-models
        _, _, cfg_path = workspace
        calls, fork = [], os.fork

        def counted_fork():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(bagging, "_trainer_count", lambda n_models: min(n_models, n_procs))
        cfg = cli.load_run_config(cfg_path)
        _, _, ensemble, _, _ = cli.run_pipeline(cfg)
        assert len(calls) == forks
        assert len(ensemble.forest.trees) == cfg.n_trees

    def test_the_real_rule_forks_once_with_the_bytes_of_one_trainer(self, workspace, tmp_path,
                                                                    monkeypatch):
        # 5 sub-models on 2 CPUs: 3 trainers, so 2 workers, forked once for
        # training and the trees; every trainer and the serial run at 1 thread
        if bagging._BLAS_THREADS is None or "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("training is serial without fork or numpy's BLAS thread call")
        _, _, cfg_path = workspace
        five = tmp_path / "run5.cfg"
        five.write_text(cfg_path.read_text().replace("n_models = 2", "n_models = 5"))
        cfg = cli.load_run_config(five)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(bagging, "_CGROUP", str(tmp_path / "no_cgroup"))
        assert bagging._trainer_count(5) == 3
        calls, fork = [], os.fork

        def counted_fork():
            calls.append(os.getpid())
            return fork()

        get, set_threads = bagging._BLAS_THREADS
        before = get()
        runs = []
        try:
            set_threads(1)
            with monkeypatch.context() as patch:
                patch.setattr(os, "fork", counted_fork)
                runs.append(cli.run_pipeline(cfg))
            assert len(calls) == 2
            monkeypatch.setattr(bagging, "_trainer_count", lambda n_models: 1)
            runs.append(cli.run_pipeline(cfg))
        finally:
            set_threads(before)
        (_, _, pooled, bags, hists), (_, _, serial, serial_bags, serial_hists) = runs
        assert hists == serial_hists
        assert all(np.array_equal(a, b) for a, b in zip(bags.bags, serial_bags.bags))
        for params, serial_params in zip(pooled.param_sets, serial.param_sets, strict=True):
            assert list(params) == list(serial_params)
            assert all(params[k].tobytes() == serial_params[k].tobytes() for k in params)
        assert checkpoint._forest_to_dict(pooled.forest) == checkpoint._forest_to_dict(
            serial.forest)

    def test_stale_histories_removed(self, workspace, tmp_path):
        # a 2-model run into the out dir of a 3-model run
        _, _, cfg_path = workspace
        three = tmp_path / "run3.cfg"
        three.write_text(cfg_path.read_text().replace("n_models = 2", "n_models = 3"))
        out = tmp_path / "out"
        assert run_cli(["--config", three, "train"]) == 0
        (out / "history_model_notes.csv").write_text("kept\n")
        assert run_cli(["--config", cfg_path, "train"]) == 0
        assert sorted(p.name for p in out.glob("history_model_*.csv")) == [
            "history_model_0.csv", "history_model_1.csv", "history_model_notes.csv"]

    # 10**15 dense units need about 2**59 bytes, more than any address space
    # holds, so the allocation fails whatever the overcommit policy; 10**20
    # parameters are more than one numpy array can hold
    @pytest.mark.parametrize("units,n_models,code,label", [
        (10**15, 1, 3, "data error"), (10**15, 2, 3, "data error"),
        (10**20, 1, 2, "config error")])
    def test_model_too_large_to_allocate_fails_with_one_line(self, workspace, monkeypatch, capfd,
                                                             units, n_models, code, label):
        tmp_path_, _, cfg_path = workspace
        cfg2 = tmp_path_ / "run9.cfg"
        cfg2.write_text(cfg_path.read_text().replace("dense_units = 8", f"dense_units = {units}")
                        .replace("n_models = 2", f"n_models = {n_models}"))
        monkeypatch.setattr(bagging, "_trainer_count", lambda n: n)
        assert run_cli(["--config", cfg2, "train"]) == code
        err = capfd.readouterr().err
        assert err.startswith(f"{label}: ") and len(err.splitlines()) == 1

    def test_dataset_the_model_cannot_take(self, workspace, capsys):
        # the paper net takes 224x224x3 images; the workspace's are 16x16x1
        tmp_path_, _, cfg_path = workspace
        cfg2 = tmp_path_ / "run8.cfg"
        cfg2.write_text(cfg_path.read_text().replace("size = scaled", "size = paper"))
        assert run_cli(["--config", cfg2, "train"]) == 3
        assert capsys.readouterr().err == (
            "data error: dataset images are (16, 16, 1), but the paper model takes "
            "(224, 224, 3)\n")
        assert not (tmp_path_ / "out" / "checkpoint.bin").exists()


class TestMalformedConfig:
    @pytest.mark.parametrize("text", [
        b"seed = 1\n",  # no section header
        b"[run]\nseed = 1\n[run]\nout = o\n",  # a repeated section
        b"[run]\nseed = 1\nseed = 2\n",  # a repeated option
        b"[run]\nseed = 1\n[model\nwidths = 4\n",  # a broken header line
        b"[run]\nout = 100%\n",  # a bad % interpolation
        b"[run]\nout = \xff\n",  # not UTF-8
    ], ids=["no-header", "repeated-section", "repeated-option", "broken-header",
            "interpolation", "not-utf8"])
    def test_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        assert run_cli(["--config", path, "dataset", "inspect", tmp_path / "none.bsec"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestMetricsFiles:
    def test_confusion_csv(self, tmp_path):
        cli.write_metrics_files(tmp_path, np.array([[1, 0], [0, 1]]), cli.RunConfig(n_classes=2))
        # a header of the predicted classes, then one row per true class
        assert (tmp_path / "confusion.csv").read_bytes() == b"true\\pred,0,1\r\n0,1,0\r\n1,0,1\r\n"


class TestEval:
    def test_eval_deterministic(self, workspace, tmp_path):
        tmp_path_, ds_path, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "train"]) == 0
        ck = tmp_path_ / "out" / "checkpoint.bin"
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        assert run_cli(["--config", cfg_path, "--out", e1, "eval", ck, ds_path]) == 0
        assert run_cli(["--config", cfg_path, "--out", e2, "eval", ck, ds_path]) == 0
        assert (e1 / "metrics.csv").read_bytes() == (e2 / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("method", ["average", "vote", "stacking"])
    def test_train_checkpoint_loads_with_its_combiner(self, workspace, method):
        tmp_path, _, cfg_path = workspace
        cfg_path.write_text(cfg_path.read_text().replace("method = stacking", f"method = {method}"))
        assert run_cli(["--config", cfg_path, "train"]) == 0
        ensemble, _ = checkpoint.load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert ensemble.combiner == method
        assert (ensemble.forest is not None) == (method == "stacking")

    def test_eval_shape_mismatch(self, workspace, tmp_path):
        tmp_path_, _, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "train"]) == 0
        ck = tmp_path_ / "out" / "checkpoint.bin"
        other = tmp_path / "other.bsec"
        data.save_container(data.synth_dataset(4, image_size=24, seed=0), other)
        assert run_cli(["--config", cfg_path, "eval", ck, other]) == 3

    def test_eval_directory_checkpoint(self, workspace, capsys):
        tmp_path, ds_path, cfg_path = workspace
        assert run_cli(["--config", cfg_path, "eval", tmp_path, ds_path]) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_predicts_in_the_checkpoint_dtype(self, workspace):
        # --precision sets the training dtype only: a float64 ensemble
        # predicts float32 dataset images as float64 images
        _, ds_path, _ = workspace
        ds = data.load_container(ds_path)
        model = network.build_scaled_cnn((16, 16, 1), [4], 5, dense_units=8)
        ensemble, _, _ = bagging.train_ensemble(
            ds.images.astype(np.float64), ds.labels_multi, model,
            bagging.BaggingConfig(n_models=2, seed=0), training.TrainConfig(epochs=1))
        view = data.DatasetView(dataset=ds, indices=np.arange(len(ds)))
        _, _, probs, _ = cli.evaluate_ensemble(cli.RunConfig(precision=32), ensemble, view)
        want = bagging.ensemble_predict_probs(ensemble, view.images.astype(np.float64))
        assert probs.tobytes() == want.tobytes()


def _blas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


# sha256 of checkpoint.bin from the small train below, per precision, with the
# numpy and BLAS build they were recorded on; another build may round differently
RECORDED_BUILD = ("2.4.6", "scipy-openblas 0.3.31.188.0")
CHECKPOINT_SHA256 = {
    32: "8a49bd8f3c556873e7093d4589f96b0bf7af1b9ee853daada839f2777f0bbca0",
    64: "65bdb175e6bd6fe5aeaa309c760c6ef52eb701bd558cb41adc2f14f2a4ae0602",
}


class TestCheckpointBytes:
    @pytest.mark.skipif((np.__version__, _blas()) != RECORDED_BUILD,
                        reason="checkpoint bytes were recorded on another numpy or BLAS build")
    @pytest.mark.parametrize("precision", [32, 64])
    def test_train_checkpoint_sha256(self, tmp_path, monkeypatch, precision):
        # desk-shaped layers on 100 images; the checkpoint records the dataset
        # path, so it is relative to the working directory
        monkeypatch.chdir(tmp_path)
        data.save_container(data.synth_dataset(20, image_size=32, seed=0), "ds.bsec")
        (tmp_path / "run.cfg").write_text(
            "[dataset]\npath = ds.bsec\n"
            "[model]\nwidths = 8,16\ndense_units = 64\n"
            "[bagging]\nn_models = 2\n"
            "[train]\nepochs = 2\n"
            "[combiner]\nn_trees = 10\n")
        assert run_cli(["--config", "run.cfg", "--precision", precision, "train"]) == 0
        digest = hashlib.sha256((tmp_path / "out" / "checkpoint.bin").read_bytes()).hexdigest()
        assert digest == CHECKPOINT_SHA256[precision]


class TestBlasThreads:
    """Checkpoint bytes hold per BLAS build and trainer thread count, and the
    probabilities a checkpoint predicts hold per BLAS build.  Two sub-models
    on two or more CPUs train on two processes at max(1, t // 2) BLAS threads
    each, so the checkpoint is the same at t = 1 and 2.  OpenBLAS can split a
    GEMM's sum by thread count (conv2d_1's weight gradient, at an odd batch
    of 7 to 63 on a desk-shaped step): on this dataset (30 images per class)
    the checkpoint differed at one and two threads while the sub-models
    trained one after another at t threads.  The variable is set for the
    child processes only."""

    def child(self, cwd, threads, args):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_train_repeats_and_predictions_do_not_depend_on_threads(self, tmp_path):
        digests = []
        for run, threads in enumerate(("1", "2", "2")):
            cwd = tmp_path / str(run)
            cwd.mkdir()
            data.save_container(data.synth_dataset(30, image_size=32, seed=0), cwd / "ds.bsec")
            (cwd / "run.cfg").write_text(
                "[dataset]\npath = ds.bsec\n"
                "[model]\nwidths = 8,16\ndense_units = 64\n"
                "[bagging]\nn_models = 2\n"
                "[train]\nepochs = 2\n"
                "[combiner]\nn_trees = 10\n")
            self.child(cwd, threads, ["-m", "baggedcnn.cli", "--config", "run.cfg", "train"])
            digests.append(hashlib.sha256((cwd / "out" / "checkpoint.bin").read_bytes()).hexdigest())
        assert digests[1] == digests[2]
        if bagging._trainer_count(2) == 2:  # else one process trains both at t threads
            assert digests[0] == digests[1]
        predict = ("import hashlib\n"
                   "from baggedcnn import bagging, checkpoint, data\n"
                   "ensemble, _ = checkpoint.load_checkpoint('out/checkpoint.bin')\n"
                   "probs = bagging.ensemble_predict_probs(ensemble, data.load_container('ds.bsec').images)\n"
                   "print(hashlib.sha256(probs.tobytes()).hexdigest())\n")
        assert len({self.child(tmp_path / "0", threads, ["-c", predict])
                    for threads in ("1", "2")}) == 1


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
        # the package is imported from src/, whether or not PYTHONPATH names it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "baggedcnn.cli", "dataset", "synth", str(path),
             "--n-per-class", "2", "--image-size", "16"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert path.exists()
