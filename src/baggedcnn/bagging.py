"""Bootstrap bagging: sampling with replacement and ensemble orchestration.

Each sub-model gets its own seed derived from (master seed, model index), so
sub-model k is the same as train_submodel run alone on bag k at the BLAS
thread count it trained at, in whichever process it trains.
"""

import contextlib
import csv
import ctypes
import math
import mmap
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from . import network, training
from .errors import BaggedCnnError, InputError, WorkerError


@dataclass(frozen=True)
class BaggingConfig:
    n_models: int = 10
    bagging_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        training.check_integer("n_models", self.n_models, 1)
        training.check_integer("seed", self.seed, 0)
        if not 0 < self.bagging_ratio <= 1:
            raise InputError("bagging_ratio must be in (0, 1]")


def bootstrap_sample(n, ratio, rng):
    """round(ratio*n) uniform draws with replacement from [0, n).

    Returns (bag indices, sorted out-of-bag indices).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0 < ratio <= 1:
        raise InputError("ratio must be in (0, 1]")
    size = int(round(ratio * n))
    bag = rng.integers(0, n, size=size)
    oob = np.setdiff1d(np.arange(n), bag)
    return bag, oob


@dataclass
class BagAssignment:
    """Per-sub-model bootstrap draws and their out-of-bag complements."""

    bags: list  # list of index arrays (with repetition)
    oobs: list  # list of sorted index arrays

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "sample_indices"])
            for k, bag in enumerate(self.bags):
                w.writerow([k, " ".join(str(i) for i in bag)])


def assign_bags(n, config: BaggingConfig):
    """Deterministic bag per sub-model, seeded by (master seed, model index)."""
    bags, oobs = [], []
    for k in range(config.n_models):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, k, 0)))
        bag, oob = bootstrap_sample(n, config.bagging_ratio, rng)
        bags.append(bag)
        oobs.append(oob)
    return BagAssignment(bags=bags, oobs=oobs)


@dataclass
class EnsembleModel:
    """Trained sub-models plus (optionally) a fitted combiner."""

    model: network.ModelSpec
    param_sets: list  # one param dict per sub-model
    combiner: str = "average"  # average | vote | stacking
    forest: object = None  # RandomForest when combiner == "stacking"

    @property
    def n_models(self):
        return len(self.param_sets)

    @property
    def n_classes(self):
        return self.model.n_classes


def submodel_seed(master_seed, index):
    """Stable per-sub-model training seed."""
    return int(np.random.SeedSequence((master_seed, index, 1)).generate_state(1)[0])


def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None where numpy carries another BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        calls = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    calls[0].argtypes, calls[0].restype = (), ctypes.c_int
    calls[1].argtypes, calls[1].restype = (ctypes.c_int,), None
    return calls


_BLAS_THREADS = _blas_thread_calls()


@contextlib.contextmanager
def _shared_blas_threads(n_procs):
    """Run the block at max(1, t // n_procs) BLAS threads, t being the
    caller's count, and give t back after it, also when it raises.  Workers
    forked inside the block inherit the count."""
    get, set_threads = _BLAS_THREADS
    before = get()
    set_threads(max(1, before // n_procs))
    try:
        yield
    finally:
        set_threads(before)


_CGROUP = "/sys/fs/cgroup"


def _quota_cpus():
    """Whole CPUs, at least 1, that the CPU quota of the cgroup mounted at
    _CGROUP allows (v2 cpu.max, else v1 cfs quota); None without a quota."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            fields = []
            for name in names:
                with open(os.path.join(_CGROUP, name)) as fh:
                    fields += fh.read().split()
            quota, period = fields
            return None if quota in ("max", "-1") else max(1, int(quota) // int(period))
        except OSError:
            continue
        except ValueError:
            return None
    return None


def _trainer_count(n_models):
    """Processes that train an ensemble: one per CPU this process may run on
    (its affinity, capped by a cgroup CPU quota), at most one per sub-model.
    1 where the start method fork or the call that sets numpy's BLAS thread
    count is missing: without that call every trainer would run all of the
    caller's BLAS threads."""
    if (_BLAS_THREADS is None or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    cpus, quota = len(os.sched_getaffinity(0)), _quota_cpus()
    return min(n_models, cpus if quota is None else min(cpus, quota))


def _train_one(job, k):
    """(params, history) of sub-model k; a library error names the sub-model."""
    model, images, labels, bags, train, seed, val = job
    cfg = replace(train, seed=submodel_seed(seed, k))
    try:
        return training.train_submodel(model, images[bags[k]], labels[bags[k]], cfg, val=val)
    except BaggedCnnError as exc:  # library errors all take one message
        raise type(exc)(f"sub-model {k}: {exc}") from exc


def _result_buffers(model, images, ks):
    """One shared anonymous mapping per sub-model k in ks, the size of its
    parameters, for workers forked after it to write them into.  This
    process's resident set grows only when it reads them, so its peak does
    not depend on whether a worker finishes during its own training, as it
    did with parameters unpickled on arrival."""
    count = sum(math.prod(w) + math.prod(b) for w, b in network._param_shapes(model).values())
    return {k: mmap.mmap(-1, count * images.dtype.itemsize) for k in ks}


def _to_buffer(params, buf):
    """Copy params into buf and return their layout, (name, shape, dtype)
    per array in order."""
    layout, offset = [], 0
    for name, a in params.items():
        np.copyto(np.frombuffer(buf, a.dtype, a.size, offset).reshape(a.shape), a)
        layout.append((name, a.shape, a.dtype.str))
        offset += a.nbytes
    return layout


def _from_buffer(layout, buf):
    """The parameters whose layout _to_buffer returned, as arrays over buf."""
    params, offset = {}, 0
    for name, shape, dtype in layout:
        params[name] = np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)
        offset += params[name].nbytes
    return params


_worker = None  # a forked trainer's (job, result buffers), set once by _start_worker
_PR_SET_PDEATHSIG = 1


def _start_worker(job, buffers, parent):
    """Keep the job and the result buffers, and end this worker when the
    process that forked it ends: killed, it would leave the worker waiting
    for work forever.  Only Linux has the call; elsewhere the worker lives
    on."""
    global _worker
    _worker = job, buffers
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):
        return
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it ended before the call
        os._exit(1)


def _train_in_worker(k):
    job, buffers = _worker
    params, history = _train_one(job, k)
    return _to_buffer(params, buffers[k]), history


def _worker_result(future, k, buf):
    try:
        layout, history = future.result()
    except BrokenProcessPool as exc:
        raise WorkerError(f"sub-model {k}: its training process ended without a result") from exc
    return _from_buffer(layout, buf), history


def _train_all(job, n_models, n_procs):
    """Train sub-models k = 0 (mod n_procs) in this process and the rest on
    n_procs - 1 forked workers, the caller's BLAS threads shared among them.
    Returns (params, history) per sub-model in k order.  The lowest failing
    k raises, as in a serial loop: this process trains no sub-model above a
    worker's failure it has seen, and the workers are killed rather than
    awaited."""
    if n_procs == 1:
        return [_train_one(job, k) for k in range(n_models)]
    with _shared_blas_threads(n_procs):
        # Forked workers inherit the job and the result buffers, so only k
        # is pickled; pickling the arrays to each worker would copy them in
        # this process too.  The pool forks every worker before it starts
        # its own thread, and OpenBLAS stops its threads before a fork.
        model, images = job[:2]
        buffers = _result_buffers(model, images, [k for k in range(n_models) if k % n_procs])
        pool = ProcessPoolExecutor(n_procs - 1, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker,
                                   initargs=(job, buffers, os.getpid()))
        try:
            futures = {k: pool.submit(_train_in_worker, k) for k in buffers}
            own = {}
            for k in range(0, n_models, n_procs):
                if any(j < k and f.done() and f.exception() is not None
                       for j, f in futures.items()):
                    break  # a lower sub-model failed, so this one is not needed
                try:
                    own[k] = _train_one(job, k)
                except Exception as exc:
                    own[k] = exc
                    break
            results = []
            for k in range(n_models):  # a failure raises before a sub-model that did not train
                result = _worker_result(futures[k], k, buffers[k]) if k % n_procs else own[k]
                if isinstance(result, Exception):
                    raise result
                results.append(result)
            return results
        except BaseException:
            for proc in list(pool._processes.values()):  # kill_workers() from Python 3.14
                proc.kill()
            raise
        finally:
            pool.shutdown(cancel_futures=True)


def train_ensemble(images, labels, model, bagging: BaggingConfig,
                   train: training.TrainConfig, val=None):
    """Train n_models sub-models on their bags.

    Returns (EnsembleModel without combiner, BagAssignment, histories).
    The sub-models train on P = min(n_models, CPUs this process may run on)
    processes: this one trains k = 0 (mod P), P - 1 forked workers the rest,
    and every worker has ended when this returns.  A worker's sub-models
    come back as arrays over a shared memory mapping.  With P > 1 each
    trainer runs at max(1, t // P) BLAS threads, t being the caller's count,
    and sub-model k's bytes depend on that count alone, not on P; it is 1
    with at least as many sub-models as CPUs and OpenBLAS's default t, one
    per CPU.  With P = 1 the sub-models train one after another at t
    threads.  When sub-models fail,
    the lowest k raises, its library error prefixed `sub-model k:`; a worker
    that dies raises WorkerError.
    """
    if len(labels) == 0:
        raise InputError("dataset is empty")
    training.check_lengths(images, labels)
    assignment = assign_bags(len(labels), bagging)
    job = (model, images, np.asarray(labels), assignment.bags, train, bagging.seed, val)
    results = _train_all(job, bagging.n_models, _trainer_count(bagging.n_models))
    param_sets = [params for params, _ in results]
    histories = [hist for _, hist in results]
    return EnsembleModel(model=model, param_sets=param_sets), assignment, histories


def ensemble_predict_probs(ensemble: EnsembleModel, batch):
    """Stacked softmax outputs of every sub-model: [n_models, B, C], float64."""
    probs = network.predict_probs(ensemble.model, ensemble.param_sets, batch)
    return probs.astype(np.float64, copy=False)
