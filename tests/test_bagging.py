import mmap
import multiprocessing
import os
import platform
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baggedcnn import bagging, checkpoint, forest, network, training
from baggedcnn.errors import DimensionError, InputError, NumericError, WorkerError
from baggedcnn.layers import softmax


class TestBootstrapSample:
    def test_single_element(self):
        rng = np.random.default_rng(0)
        bag, oob = bagging.bootstrap_sample(1, 1.0, rng)
        assert bag.tolist() == [0]
        assert oob.size == 0

    def test_bag_size_is_round_ratio_n(self):
        rng = np.random.default_rng(0)
        for n, ratio in [(10, 1.0), (10, 0.65), (7, 0.5), (100, 0.333)]:
            bag, _ = bagging.bootstrap_sample(n, ratio, rng)
            assert len(bag) == int(round(ratio * n))
            assert bag.min() >= 0 and bag.max() < n

    def test_oob_fraction_full_ratio(self):
        # classical bootstrap: expected OOB fraction tends to 1/e ~ 0.368
        fracs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, oob = bagging.bootstrap_sample(10_000, 1.0, rng)
            fracs.append(len(oob) / 10_000)
        assert 0.358 <= np.mean(fracs) <= 0.378

    def test_oob_fraction_partial_ratio(self):
        # (1 - 1/n)^(0.7 n) -> e^-0.7 ~ 0.4966
        fracs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, oob = bagging.bootstrap_sample(10_000, 0.7, rng)
            fracs.append(len(oob) / 10_000)
        assert abs(np.mean(fracs) - np.exp(-0.7)) < 0.01

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            bagging.bootstrap_sample(0, 1.0, rng)
        with pytest.raises(InputError):
            bagging.bootstrap_sample(5, 1.5, rng)


class TestBaggingConfig:
    @pytest.mark.parametrize("field,value", [
        ("n_models", 0), ("n_models", 2.0), ("n_models", 2.5), ("n_models", "3"),
        ("seed", -3), ("seed", 1.5), ("seed", None),
    ])
    def test_refused_when_built(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be an integer >= "):
            bagging.BaggingConfig(**{field: value})

    def test_edges_and_numpy_integers_accepted(self):
        cfg = bagging.BaggingConfig(n_models=np.int64(1), seed=np.uint32(0))
        assert len(bagging.assign_bags(5, cfg).bags) == 1


def tiny_setup(rng, n=40):
    images = rng.uniform(0, 0.3, size=(n, 16, 16, 1)).astype(np.float32)
    labels = (np.arange(n) % 2).astype(np.int64)
    for i in range(n):
        if labels[i]:
            images[i, 4:12, 4:12, 0] += 0.6
    model = network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8)
    return images, labels, model


class TestTrainEnsemble:
    def test_exact_submodel_count(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=3, bagging_ratio=0.7, seed=1)
        ens, assignment, hists = bagging.train_ensemble(
            x, y, model, bag_cfg, training.TrainConfig(epochs=1))
        assert ens.n_models == 3
        assert len(assignment.bags) == 3
        assert len(hists) == 3

    def test_degenerate_single_model(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=1, bagging_ratio=1.0, seed=5)
        ens, assignment, _ = bagging.train_ensemble(
            x, y, model, bag_cfg, training.TrainConfig(epochs=1))
        bag = assignment.bags[0]
        cfg = training.TrainConfig(epochs=1, seed=bagging.submodel_seed(5, 0))
        ref, _ = training.train_submodel(model, x[bag], y[bag], cfg)
        assert all(np.array_equal(ens.param_sets[0][k], ref[k]) for k in ref)

    def test_each_submodel_equals_train_submodel(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=3, bagging_ratio=0.8, seed=2)
        tc = training.TrainConfig(epochs=2, batch_size=16)
        ens, assignment, hists = bagging.train_ensemble(x, y, model, bag_cfg, tc)
        for k, bag in enumerate(assignment.bags):
            cfg = training.TrainConfig(epochs=2, batch_size=16,
                                       seed=bagging.submodel_seed(2, k))
            ref, ref_hist = training.train_submodel(model, x[bag], y[bag], cfg)
            assert list(ens.param_sets[k]) == list(ref)
            assert all(ens.param_sets[k][n].tobytes() == ref[n].tobytes() for n in ref), k
            assert hists[k].train_loss == ref_hist.train_loss

    def test_training_is_bag_local(self, rng):
        x, y, model = tiny_setup(rng)
        bag_cfg = bagging.BaggingConfig(n_models=2, bagging_ratio=0.6, seed=3)
        assignment = bagging.assign_bags(len(y), bag_cfg)
        oob = assignment.oobs[0]
        assert oob.size > 0
        tc = training.TrainConfig(epochs=1)
        e1, _, _ = bagging.train_ensemble(x, y, model, bag_cfg, tc)
        x2 = x.copy()
        x2[oob[0]] = 0.0  # perturb a sample sub-model 0 never sees
        e2, _, _ = bagging.train_ensemble(x2, y, model, bag_cfg, tc)
        p1, p2 = e1.param_sets[0], e2.param_sets[0]
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    @pytest.mark.parametrize("n_images", [10, 20])
    def test_images_and_labels_differ_in_length(self, rng, n_images):
        # fewer images once indexed past the end, more trained on a prefix
        x, _, model = tiny_setup(rng, n=n_images)
        with pytest.raises(InputError, match=f"^{n_images} images but 12 labels$"):
            bagging.train_ensemble(x, np.arange(12) % 2, model,
                                   bagging.BaggingConfig(n_models=2),
                                   training.TrainConfig(epochs=1))

    def test_empty_dataset(self, rng):
        _, _, model = tiny_setup(rng)
        with pytest.raises(InputError):
            bagging.train_ensemble(np.zeros((0, 16, 16, 1)), np.zeros(0, dtype=int), model,
                                   bagging.BaggingConfig(n_models=1),
                                   training.TrainConfig(epochs=1))

    def test_error_carries_model_index(self, rng):
        x, y, model = tiny_setup(rng)
        y = y.copy()
        y[0] = 7  # out of range for a 2-class model
        bag_cfg = bagging.BaggingConfig(n_models=2, bagging_ratio=1.0, seed=0)
        with pytest.raises(Exception, match="sub-model"):
            bagging.train_ensemble(x, y, model, bag_cfg, training.TrainConfig(epochs=1))

    def test_foreign_error_propagates_unchanged(self, rng, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        raised = TwoArgError(7, "disk full")

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(training, "train_submodel", fail)
        x, y, model = tiny_setup(rng)
        with pytest.raises(TwoArgError) as info:
            bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=2),
                                   training.TrainConfig(epochs=1))
        assert info.value is raised


def force_trainers(monkeypatch, n_procs):
    monkeypatch.setattr(bagging, "_trainer_count", lambda n_models: min(n_models, n_procs))


@pytest.fixture
def blas_threads():
    """(get, set) of this process's BLAS thread count, restored after the test."""
    if bagging._BLAS_THREADS is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    get, set_threads = bagging._BLAS_THREADS
    before = get()
    yield get, set_threads
    set_threads(before)


def test_ending_blas_threads_keeps_their_count_and_bytes(blas_threads):
    get, set_threads = blas_threads
    set_threads(2)
    a = np.random.default_rng(0).uniform(size=(300, 300))
    before = (a @ a).tobytes()
    bagging._END_BLAS_THREADS()
    assert get() == 2
    assert (a @ a).tobytes() == before


class TestForkedTraining:
    """Sub-models train on forked processes with the bytes, histories and
    errors of the serial loop."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_do_not_depend_on_process_count(self, rng, monkeypatch, blas_threads, dtype):
        blas_threads[1](1)  # so every trainer runs at one thread, whatever P
        x, y, model = tiny_setup(rng, n=41)  # bags of 41: batches of 16, 16 and 9
        x = x.astype(dtype)
        tc = training.TrainConfig(epochs=2, batch_size=16)
        for n_models in range(1, 6):
            bag_cfg = bagging.BaggingConfig(n_models=n_models, bagging_ratio=1.0, seed=n_models)
            runs = []
            for n_procs in (1, 2, 3):
                force_trainers(monkeypatch, n_procs)
                runs.append(bagging.train_ensemble(x, y, model, bag_cfg, tc, val=(x[:9], y[:9])))
            (ens, assignment, hists), others = runs[0], runs[1:]
            for ens2, assignment2, hists2 in others:
                assert len(ens2.param_sets) == n_models
                for params, params2 in zip(ens.param_sets, ens2.param_sets):
                    assert list(params) == list(params2)
                    assert all(params[k].dtype == dtype for k in params)
                    assert all(params[k].tobytes() == params2[k].tobytes() for k in params)
                assert hists2 == hists
                assert all(np.array_equal(a, b) for a, b in zip(assignment.bags, assignment2.bags))

    @pytest.mark.parametrize("failing", [{1, 2, 4}, {2, 3}, {4}, {0, 3}, {3}])
    def test_lowest_failure_raises_as_in_the_serial_loop(self, rng, monkeypatch, failing):
        seeds = {bagging.submodel_seed(0, k): k for k in range(5)}
        train_submodel = training.train_submodel

        def fail_some(model, images, labels, cfg, val=None):
            if seeds[cfg.seed] in failing:
                raise NumericError(f"diverged at {seeds[cfg.seed]}")
            return train_submodel(model, images, labels, cfg, val=val)

        monkeypatch.setattr(training, "train_submodel", fail_some)
        x, y, model = tiny_setup(rng, n=20)
        k = min(failing)
        for n_procs in (1, 2, 3):
            force_trainers(monkeypatch, n_procs)
            with pytest.raises(NumericError, match=f"^sub-model {k}: diverged at {k}$"):
                bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=5),
                                       training.TrainConfig(epochs=1))

    @pytest.mark.parametrize("n_models", [2, 3, 4])
    def test_a_model_without_parameters_trains_forked(self, rng, monkeypatch, n_models):
        model = network.ModelSpec((4, 4, 1), (network.pool(), network.flat()), n_classes=4)
        x = rng.uniform(size=(12, 4, 4, 1)).astype(np.float32)
        y = np.arange(12) % 4
        bag_cfg = bagging.BaggingConfig(n_models=n_models, seed=3)
        tc = training.TrainConfig(epochs=2, batch_size=5)
        runs = []
        for n_procs in (1, 2, 3):
            force_trainers(monkeypatch, n_procs)
            runs.append(bagging.train_ensemble(x, y, model, bag_cfg, tc, val=(x[:5], y[:5])))
        for ens, assignment, hists in runs:
            assert ens.param_sets == [{}] * n_models
            assert hists == runs[0][2]
            assert all(np.array_equal(a, b) for a, b in zip(assignment.bags, runs[0][1].bags))

    def test_non_floating_images_refused_before_training(self, rng, monkeypatch):
        force_trainers(monkeypatch, 2)
        x, y, model = tiny_setup(rng, n=20)
        for images in (x.astype(np.uint8), x.astype(object)):
            with pytest.raises(InputError, match="^training images must be floating point"):
                bagging.train_ensemble(images, y, model, bagging.BaggingConfig(n_models=2),
                                       training.TrainConfig(epochs=1))

    def test_dead_worker_names_its_sub_model(self, rng, monkeypatch):
        parent, train_submodel = os.getpid(), training.train_submodel

        def die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return train_submodel(*args, **kwargs)

        monkeypatch.setattr(training, "train_submodel", die_in_worker)
        force_trainers(monkeypatch, 2)
        x, y, model = tiny_setup(rng, n=20)
        with pytest.raises(WorkerError, match="^sub-model 1: its training process ended"):
            bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=4),
                                   training.TrainConfig(epochs=1))

    def test_worker_params_arrive_in_a_shared_mapping(self, rng, monkeypatch):
        force_trainers(monkeypatch, 2)
        x, y, model = tiny_setup(rng, n=20)
        ens, _, _ = bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=2),
                                           training.TrainConfig(epochs=1))
        own, worker = ens.param_sets
        assert all(a.flags.owndata for a in own.values())
        for a in worker.values():
            while isinstance(a, np.ndarray):
                a = a.base
            assert isinstance(a.obj, mmap.mmap)  # a memoryview of the mapping

    # sub-model 0 trains in this process and 1 in the worker; 2 would be next here
    @pytest.mark.parametrize("failing, seconds", [(0, {1: 30}), (1, {0: 2, 2: 30})])
    def test_a_failure_does_not_wait_for_unneeded_training(self, rng, monkeypatch, failing,
                                                           seconds):
        seeds = {bagging.submodel_seed(0, k): k for k in range(4)}

        def fail_or_sleep(model, images, labels, cfg, val=None):
            k = seeds[cfg.seed]
            if k == failing:
                raise NumericError(f"diverged at {k}")
            time.sleep(seconds.get(k, 0))
            return {}, training.TrainHistory()

        monkeypatch.setattr(training, "train_submodel", fail_or_sleep)
        force_trainers(monkeypatch, 2)
        x, y, model = tiny_setup(rng, n=20)
        start = time.monotonic()
        with pytest.raises(NumericError, match=f"^sub-model {failing}: diverged"):
            bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=4),
                                   training.TrainConfig(epochs=1))
        assert time.monotonic() - start < 15


class TestSharedBlasThreads:
    """P trainers each run at max(1, t // P) of the caller's t BLAS threads,
    and the caller gets t back, also when training raises."""

    def record_threads(self, monkeypatch, get, failing=None):
        seeds = {bagging.submodel_seed(0, k): k for k in range(5)}

        def record(model, images, labels, cfg, val=None):
            if seeds[cfg.seed] == failing:
                raise NumericError("diverged")
            return {"dense_1/b": np.full(2, get(), np.float32)}, training.TrainHistory()

        monkeypatch.setattr(training, "train_submodel", record)

    @pytest.mark.parametrize("n_procs", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2, 3, 6])
    def test_trainers_share_the_callers_threads(self, rng, monkeypatch, blas_threads,
                                                n_procs, threads):
        get, set_threads = blas_threads
        set_threads(threads)
        self.record_threads(monkeypatch, get)
        force_trainers(monkeypatch, n_procs)
        x, y, model = tiny_setup(rng, n=20)
        ens, _, _ = bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=5),
                                           training.TrainConfig(epochs=1))
        per_trainer = threads if n_procs == 1 else max(1, threads // n_procs)
        assert [int(p["dense_1/b"][0]) for p in ens.param_sets] == [per_trainer] * 5
        assert get() == threads

    @pytest.mark.parametrize("failing", [0, 1])  # in this process, in the worker
    def test_count_restored_when_training_raises(self, rng, monkeypatch, blas_threads, failing):
        get, set_threads = blas_threads
        set_threads(3)
        self.record_threads(monkeypatch, get, failing)
        force_trainers(monkeypatch, 2)
        x, y, model = tiny_setup(rng, n=20)
        with pytest.raises(NumericError, match=f"^sub-model {failing}: diverged$"):
            bagging.train_ensemble(x, y, model, bagging.BaggingConfig(n_models=5),
                                   training.TrainConfig(epochs=1))
        assert get() == 3


class TestTreesOnTrainers:
    """The stacking forest's trees grown on the trainers equal the serial
    forest's, whatever P and however few trees."""

    @pytest.mark.parametrize("n_procs", [1, 2, 3])
    @pytest.mark.parametrize("n_trees", [1, 2, 7])
    def test_forest_equals_the_serial_one(self, rng, n_procs, n_trees):
        features = np.round(rng.uniform(size=(40, 6)), 1)
        labels = rng.integers(0, 3, size=40)
        kwargs = dict(n_trees=n_trees, max_depth=5, seed=8, n_classes=3)
        serial = forest.fit_forest(features, labels, **kwargs)
        with bagging.Trainers() as trainers:
            trainers.fork(n_procs, None)
            pooled = forest.fit_forest(features, labels, trainers=trainers, **kwargs)
        assert checkpoint._forest_to_dict(pooled) == checkpoint._forest_to_dict(serial)


class TestTrainerCount:
    """P = n for n <= C sub-models on C CPUs (the affinity, capped by the
    quota of the process's own cgroup), else the fewest trainers of which
    none trains more than n // C; trainers above min(n, C) only while memory
    holds them."""

    GROUP = "jobs/run"  # the process's own group in every hierarchy

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch, tmp_path):
        if bagging._BLAS_THREADS is None or "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("training is serial without fork or numpy's BLAS thread call")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(bagging, "_CGROUP", str(tmp_path / "cgroup"))
        own = tmp_path / "self_cgroup"
        own.write_text(f"0::/{self.GROUP}\n4:memory:/{self.GROUP}\n1:cpu,cpuacct:/{self.GROUP}\n")
        monkeypatch.setattr(bagging, "_OWN_CGROUP", str(own))
        monkeypatch.setattr(bagging, "_MEMINFO", str(tmp_path / "meminfo"))

    def write(self, tmp_path, files, group=GROUP):
        """Each "[controller/]name" file in the group of its hierarchy."""
        for key, text in files.items():
            mount, _, name = key.rpartition("/")
            path = tmp_path / "cgroup" / mount / group / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    # P at n = 1, 2, 5 and 20 sub-models, per C
    COUNTS = {8: [1, 2, 5, 10], 3: [1, 2, 5, 4], 2: [1, 2, 3, 2], 1: [1, 1, 1, 1]}

    @pytest.mark.parametrize("files, cpus", [
        ({}, 8),
        ({"cpu.max": "max 100000\n"}, 8),
        ({"cpu.max": "300000 100000\n"}, 3),
        ({"cpu.max": "150000 100000\n"}, 1),
        ({"cpu.max": "20000 100000\n"}, 1),
        ({"cpu.max": "garbled\n"}, 8),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ])
    def test_quota_caps_the_affinity(self, tmp_path, files, cpus):
        self.write(tmp_path, files)
        assert bagging._cpu_count() == cpus
        assert [bagging._trainer_count(n) for n in (1, 2, 5, 20)] == self.COUNTS[cpus]

    def test_the_mount_roots_limits_do_not_bind_a_nested_group(self, tmp_path):
        self.write(tmp_path, {"cpu.max": "100000 100000\n"}, group="")
        self.write(tmp_path, {"cpu.max": "max 100000\n"})
        assert bagging._cpu_count() == 8
        (tmp_path / "cgroup" / self.GROUP / "cpu.max").unlink()  # the group, without a quota
        assert bagging._cpu_count() == 8

    @pytest.mark.parametrize("own", ["0::/elsewhere\n1:cpu:/elsewhere\n", None])
    def test_a_group_missing_from_the_mount_reads_its_root(self, tmp_path, monkeypatch, own):
        # as in a container that mounts its own group as the root
        path = tmp_path / "elsewhere_cgroup"
        if own is not None:
            path.write_text(own)
        monkeypatch.setattr(bagging, "_OWN_CGROUP", str(path))
        self.write(tmp_path, {"cpu/cpu.cfs_quota_us": "300000\n",
                              "cpu/cpu.cfs_period_us": "100000\n"}, group="")
        assert bagging._cpu_count() == 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 32))
    def test_the_fewest_trainers_of_at_most_n_over_c_sub_models(self, n, cpus):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            p = bagging._trainer_count(n)
        assert min(n, cpus) <= p <= n
        assert p < 2 * cpus
        most = max(1, n // cpus)  # the most sub-models one trainer may take
        assert -(-n // p) <= most
        assert p == 1 or -(-n // (p - 1)) > most

    def meminfo(self, tmp_path, available_kb):
        (tmp_path / "meminfo").write_text(
            f"MemTotal:  99999999 kB\nMemAvailable:  {available_kb} kB\n")

    def test_memory_caps_only_the_extra_trainers(self, tmp_path):
        per = lambda: 1 << 20  # one trainer's bytes
        assert bagging._trainer_count(20) == 10
        assert bagging._within_memory(10, 20, per) == 10  # nothing to read
        for available_kb, p in [(100 << 10, 10), (9 << 10, 9), (3 << 10, 8), (0, 8)]:
            self.meminfo(tmp_path, available_kb)
            assert bagging._within_memory(10, 20, per) == p

    @pytest.mark.parametrize("files, p", [
        ({"memory.max": "max\n", "memory.current": "1\n"}, 10),
        ({"memory.max": f"{10 << 20}\n", "memory.current": f"{1 << 20}\n"}, 9),
        ({"memory.max": f"{10 << 20}\n", "memory.current": f"{20 << 20}\n"}, 8),
        ({"memory/memory.limit_in_bytes": f"{12 << 20}\n",
          "memory/memory.usage_in_bytes": f"{3 << 20}\n"}, 9),
        ({"memory/memory.limit_in_bytes": "9223372036854771712\n",  # v1's "no limit"
          "memory/memory.usage_in_bytes": "0\n"}, 10),
    ])
    def test_the_memory_cgroups_headroom_caps_memavailable(self, tmp_path, files, p):
        self.meminfo(tmp_path, 100 << 10)
        self.write(tmp_path, files)
        assert bagging._within_memory(10, 20, lambda: 1 << 20) == p

    def test_memory_is_read_only_for_trainers_above_the_cpus(self, tmp_path):
        def unread():
            raise AssertionError("trainer bytes computed")

        self.meminfo(tmp_path, 0)
        for n_models in (1, 5, 8, 16):
            p = bagging._trainer_count(n_models)
            assert p == min(n_models, 8)
            assert bagging._within_memory(p, n_models, unread) == p


class TestHeapTrimAtFork:
    """The caller gives its free heap back once per fork of trainers, before
    any worker starts, so the workers do not share it."""

    @pytest.mark.parametrize("n_procs", [1, 2, 3])
    def test_the_caller_trims_once_before_any_worker_starts(self, tmp_path, monkeypatch,
                                                            n_procs):
        log, caller, start_worker = tmp_path / "log", os.getpid(), bagging._start_worker

        def note(what):
            with open(log, "a") as fh:
                fh.write(f"{what} {os.getpid()}\n")

        def start_noted(state, parent):
            note("start")
            start_worker(state, parent)

        monkeypatch.setattr(bagging, "_TRIM_HEAP", lambda pad: note(f"trim{pad}"))
        monkeypatch.setattr(bagging, "_start_worker", start_noted)
        with bagging.Trainers() as trainers:
            trainers.fork(n_procs, None)
            assert trainers.run(5, abs, abs, "lost {k}") == list(range(5))
        lines = log.read_text().splitlines() if log.exists() else []
        if n_procs == 1:
            assert lines == []
        else:  # each worker also trims after its share
            assert lines[0] == f"trim0 {caller}"
            assert [line for line in lines if line.endswith(f" {caller}")] == lines[:1]
            assert sum(line.startswith("start ") for line in lines) == n_procs - 1


# Frees 64 MB of 1 MB heap blocks, forks two trainers and prints the
# caller's resident MB with the blocks, after freeing them, and after the
# fork of trainers but before its worker runs.
TRIM_AT_FORK = textwrap.dedent("""
    import os
    import numpy as np
    from baggedcnn import bagging

    def resident_mb():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    blocks = [np.ones(1 << 17) for _ in range(64)]
    held = resident_mb()
    del blocks
    freed = resident_mb()
    with bagging.Trainers() as trainers:
        trainers.fork(2, None)
        forked = resident_mb()
        trainers.run(2, abs, abs, "lost {k}")
    print(held, freed, forked)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="reads /proc/self/statm; malloc_trim and the heap settings are glibc's")
def test_the_free_heap_leaves_the_caller_before_its_workers_fork():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bagging.__file__)))
    proc = subprocess.run([sys.executable, "-c", TRIM_AT_FORK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    held, freed, forked = map(float, proc.stdout.split())
    assert held - freed < 16  # below the trim threshold the heap keeps the freed blocks
    assert freed - forked > 48


def running(pid):
    """Whether process pid exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="only Linux ends a worker with the process that forked it")
def test_worker_ends_with_a_killed_parent():
    script = textwrap.dedent("""
        import os, time
        import numpy as np
        from baggedcnn import bagging, network, training
        parent = os.getpid()

        def wait(*args, **kwargs):
            if os.getpid() != parent:
                print(os.getpid(), flush=True)
            time.sleep(60)

        training.train_submodel = wait
        bagging._trainer_count = lambda n_models: 2
        bagging.train_ensemble(np.zeros((4, 16, 16, 1), np.float32), np.arange(4) % 2,
                               network.build_scaled_cnn((16, 16, 1), [4], 2, dense_units=8),
                               bagging.BaggingConfig(n_models=2), training.TrainConfig())
    """)
    src = os.path.dirname(os.path.dirname(bagging.__file__))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        worker = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 10
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(worker)


class TestEnsemblePredictProbs:
    @pytest.fixture
    def ensemble(self, rng):
        x, y, model = tiny_setup(rng, n=20)
        ens, _, _ = bagging.train_ensemble(
            x, y, model, bagging.BaggingConfig(n_models=2, seed=0),
            training.TrainConfig(epochs=1))
        return ens, x

    def test_shape_and_rows_sum_to_one(self, ensemble):
        ens, x = ensemble
        probs = bagging.ensemble_predict_probs(ens, x[:7])
        assert probs.shape == (2, 7, 2)
        assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-5)
        empty = bagging.ensemble_predict_probs(ens, x[:0])
        assert empty.shape == (2, 0, 2) and empty.dtype == np.float64

    def test_single_model_matches_forward(self, ensemble, rng):
        ens, x = ensemble
        from baggedcnn.layers import softmax
        from baggedcnn import network as net
        probs = bagging.ensemble_predict_probs(ens, x[:4])
        direct = softmax(net.forward_batch(ens.model, ens.param_sets[0], x[:4]))
        assert np.allclose(probs[0], direct)

    def test_batch_permutation_equivariance(self, ensemble, rng):
        ens, x = ensemble
        perm = rng.permutation(8)
        a = bagging.ensemble_predict_probs(ens, x[:8])
        b = bagging.ensemble_predict_probs(ens, x[:8][perm])
        assert np.allclose(a[:, perm, :], b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [65, 129, 200])
    def test_predicts_in_64_image_slices(self, n, dtype):
        # A whole-set pass rounds some rows differently, so the slicing is part
        # of the output: pin it byte for byte on a desk-shaped net whose
        # weights are perturbed off the zero-initialised head.
        model = network.build_scaled_cnn((32, 32, 1), [8, 16], 5, dense_units=64)
        rng = np.random.default_rng(n)
        param_sets = []
        for seed in range(2):
            params = network.init_params(model, seed, dtype=dtype)
            param_sets.append({k: (v + rng.normal(0, 0.05, v.shape)).astype(dtype)
                               for k, v in params.items()})
        ens = bagging.EnsembleModel(model=model, param_sets=param_sets)
        x = rng.uniform(size=(n, 32, 32, 1)).astype(dtype)
        probs = bagging.ensemble_predict_probs(ens, x)
        assert probs.dtype == np.float64 and probs.shape == (2, n, 5)
        for m, params in enumerate(param_sets):
            sliced = np.concatenate([softmax(network.forward_batch(model, params, x[lo:lo + 64]))
                                     for lo in range(0, n, 64)])
            assert probs[m].tobytes() == sliced.astype(np.float64).tobytes()

    def test_mixed_dtypes_refused(self, ensemble):
        # the sub-models share one wide first conv, which would upcast float32
        ens, x = ensemble
        ens.param_sets[0] = {k: v.astype(np.float64) for k, v in ens.param_sets[0].items()}
        with pytest.raises(InputError, match="mix dtypes"):
            bagging.ensemble_predict_probs(ens, x[:4])

    def test_shape_mismatch(self, ensemble):
        ens, _ = ensemble
        with pytest.raises(DimensionError):
            bagging.ensemble_predict_probs(ens, np.zeros((2, 8, 8, 1)))

    def test_n_classes_follows_the_model(self, rng):
        # the class count is read from the model, so it cannot disagree with
        # the width of the logits
        model = network.build_scaled_cnn((8, 8, 1), [2], 5, dense_units=3)
        ens = bagging.EnsembleModel(model=model, param_sets=[network.init_params(model, 0)])
        assert ens.n_classes == 5
        probs = bagging.ensemble_predict_probs(ens, rng.uniform(size=(2, 8, 8, 1)))
        assert probs.shape == (1, 2, 5)
        with pytest.raises(TypeError):
            bagging.EnsembleModel(model=model, param_sets=[], n_classes=3)

    def test_bag_csv(self, ensemble, tmp_path, rng):
        x, y, model = tiny_setup(rng, n=10)
        _, assignment, _ = bagging.train_ensemble(
            x, y, model, bagging.BaggingConfig(n_models=2, seed=0),
            training.TrainConfig(epochs=0))
        path = tmp_path / "bags.csv"
        assignment.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,sample_indices"
        assert len(lines) == 3
