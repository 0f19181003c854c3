"""Bootstrap bagging: sampling with replacement and ensemble orchestration.

Each sub-model gets its own seed derived from (master seed, model index), so
sub-model k is the same as train_submodel run alone on bag k at the BLAS
thread count it trained at, in whichever process it trains.
"""

import contextlib
import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from . import network, training
from .data import write_csv
from .errors import BaggedCnnError, InputError, WorkerError


# BaggingConfig field -> (ok, must), as training.RULES; seed shares its rule.
RULES = {"n_models": training.integer_at_least(1),
         "bagging_ratio": ((lambda v, owner: 0 < v <= 1), "in (0, 1]"),
         "seed": training.RULES["seed"]}


@dataclass(frozen=True)
class BaggingConfig:
    n_models: int = 10
    bagging_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        training.check_rules(self, RULES)


def bootstrap_sample(n, ratio, rng):
    """round(ratio*n) uniform draws with replacement from [0, n).

    Returns (bag indices, sorted out-of-bag indices).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    ok, must = RULES["bagging_ratio"]
    if not ok(ratio, None):
        raise InputError(f"ratio must be {must}, got {ratio!r}")
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
        write_csv(path, ["model", "sample_indices"],
                  ([k, " ".join(str(i) for i in bag)] for k, bag in enumerate(self.bags)))


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


def _c_function(name, argtypes, restype=ctypes.c_int, in_numpy=False):
    """The C function name with its argument and result types, from numpy's
    extension module, which links the OpenBLAS numpy bundles, where
    in_numpy, else from this process's own symbols (the C library's); None
    where it is missing."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__ if in_numpy else None)
        call = getattr(lib, name)
    except (AttributeError, OSError):
        return None
    call.argtypes, call.restype = argtypes, restype
    return call


# (get, set) of the thread count of numpy's OpenBLAS; None under another BLAS
_BLAS_THREADS = (_c_function("scipy_openblas_get_num_threads64_", (), in_numpy=True),
                 _c_function("scipy_openblas_set_num_threads64_", (ctypes.c_int,), None,
                             in_numpy=True))
if None in _BLAS_THREADS:
    _BLAS_THREADS = None
# Ends the threads of numpy's OpenBLAS until its next BLAS call, as OpenBLAS
# does itself before a fork
_END_BLAS_THREADS = _c_function("blas_thread_shutdown_", (), in_numpy=True) or (lambda: None)
# glibc's malloc_trim: gives the heap's free pages back to the kernel
_TRIM_HEAP = _c_function("malloc_trim", (ctypes.c_size_t,)) or (lambda pad: 0)


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


_CGROUP, _OWN_CGROUP, _MEMINFO = "/sys/fs/cgroup", "/proc/self/cgroup", "/proc/meminfo"


def _cgroup_fields(v2_names, controller, v1_names):
    """The whitespace-separated fields of the named files of this process's
    own cgroup, the one _OWN_CGROUP names, under the mount _CGROUP: v2's
    names in its unified group, else v1's in its group of controller's
    hierarchy.  A group that is not under the mount, as in a container that
    mounts its own group as the root, is read at the mount's root.  None
    where neither version has all of its files.  Reads only."""
    groups = {}  # controller -> group path; v2's controller is ""
    with contextlib.suppress(OSError), open(_OWN_CGROUP) as fh:
        for line in fh:  # "id:controller,controller:path"
            parts = line.rstrip("\n").split(":", 2)
            if len(parts) == 3:
                groups.update(dict.fromkeys(parts[1].split(","), parts[2]))
    for mount, names in (("", v2_names), (controller, v1_names)):
        root = os.path.join(_CGROUP, mount)
        own = os.path.join(root, groups.get(mount, "/").lstrip("/"))
        folder = own if os.path.isdir(own) else root
        try:
            fields = []
            for name in names:
                with open(os.path.join(folder, name)) as fh:
                    fields += fh.read().split()
            return fields
        except OSError:
            continue
    return None


def _quota_cpus():
    """Whole CPUs, at least 1, that the CPU quota of this process's cgroup
    allows (v2 cpu.max, else v1 cfs quota); None without a quota."""
    fields = _cgroup_fields(("cpu.max",), "cpu", ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
    try:
        quota, period = fields
        return None if quota in ("max", "-1") else max(1, int(quota) // int(period))
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _available_bytes():
    """Bytes this process may still take: the smaller of MemAvailable and
    the headroom of its memory cgroup (its limit less its usage; v2
    memory.max and memory.current, else v1's limit and usage), where it has
    a limit; None where neither reads."""
    found = []
    with contextlib.suppress(OSError, ValueError, IndexError), open(_MEMINFO) as fh:
        found += [int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:")]
    fields = _cgroup_fields(("memory.max", "memory.current"), "memory",
                            ("memory.limit_in_bytes", "memory.usage_in_bytes"))
    with contextlib.suppress(TypeError, ValueError):
        limit, usage = fields
        if limit != "max":
            found.append(max(0, int(limit) - int(usage)))
    return min(found, default=None)


def _cpu_count():
    """C, the CPUs this process may run on: its affinity, capped by its
    cgroup's CPU quota.  1 where the start method fork or the call that
    sets numpy's BLAS thread count is missing: without that call every
    trainer would run all of the caller's BLAS threads."""
    if (_BLAS_THREADS is None or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    cpus, quota = len(os.sched_getaffinity(0)), _quota_cpus()
    return cpus if quota is None else min(cpus, quota)


def _trainer_count(n_models):
    """P, the processes that train n sub-models on C CPUs: n where n <= C,
    else the fewest of which none trains more than n // C sub-models,
    ceil(n / (n // C)), which is below 2C.  The kernel time-shares trainers
    beyond C, so the last sub-models do not train while other CPUs idle:
    5 sub-models on 2 CPUs train on 3 trainers, the caller's share 2."""
    cpus = _cpu_count()
    return n_models if n_models <= cpus else -(-n_models // (n_models // cpus))


def _within_memory(n_procs, n_models, trainer_bytes):
    """n_procs, less the trainers above min(n_models, C) that the available
    bytes (`_available_bytes`) cannot hold at trainer_bytes() each, the
    count never below min(n_models, C).  Memory is read, and trainer_bytes
    called, only where n_procs is above min(n_models, C)."""
    least = min(n_models, _cpu_count())
    available = _available_bytes() if n_procs > least else None
    if available is None:
        return n_procs
    return max(least, min(n_procs, available // max(1, trainer_bytes())))


def _train_one(job, k):
    """(params, history) of sub-model k; a library error names the sub-model."""
    model, images, labels, bags, train, seed, val = job
    cfg = replace(train, seed=submodel_seed(seed, k))
    try:
        return training.train_submodel(model, images[bags[k]], labels[bags[k]], cfg, val=val)
    except BaggedCnnError as exc:  # library errors all take one message
        raise type(exc)(f"sub-model {k}: {exc}") from exc


_worker = None  # a forked trainer's state, set once by _start_worker
_PR_SET_PDEATHSIG = 1


def _start_worker(state, parent):
    """Keep the state `run`'s remote calls read, and end this worker when the
    process that forked it ends: killed, it would leave the worker waiting
    for work forever.  Only Linux has the call; elsewhere the worker lives
    on."""
    global _worker
    _worker = state
    prctl = _c_function("prctl", (ctypes.c_int, ctypes.c_ulong))
    if prctl is None:
        return
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it ended before the call
        os._exit(1)


def _share(fn, ks):
    """[fn(k) for k in ks] in a worker, ending at the first k that raises,
    whose exception takes its place.  Then the worker gives its free heap
    pages back (glibc's malloc_trim): the caller's first write to a page
    the two still share copies it, and the caller goes on to predict while
    the worker waits for its next share."""
    out = []
    for k in ks:
        try:
            out.append(fn(k))
        except Exception as exc:
            out.append(exc)
            break
    _TRIM_HEAP(0)
    return out


class Trainers:
    """The processes an ensemble trains on: this one and, once `fork` has
    run, P - 1 forked workers.  The workers live until the block ends, so
    work that follows training, such as growing the stacking forest's
    trees, runs on them too without a second fork.  A block that raises
    kills them rather than awaiting them."""

    def __init__(self):
        self.n_procs, self._pool = 1, None

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        if self._pool is not None:
            if kind is not None:
                self._kill()
            self._pool.shutdown(cancel_futures=True)
            self.n_procs, self._pool = 1, None

    def _kill(self):
        for proc in list(self._pool._processes.values()):  # kill_workers() from Python 3.14
            proc.kill()

    def fork(self, n_procs, state):
        """Start n_procs - 1 workers, each keeping state, which they inherit
        rather than unpickle.  They fork at the first `run`, and with them
        the BLAS thread count this process has then.  This process first
        gives its free heap pages back: glibc keeps up to 128 MB of them
        (`network._keep_heap_resident`), and a worker would share them,
        both processes counting them in their peak resident sets."""
        if n_procs > 1:
            _TRIM_HEAP(0)
            self.n_procs = n_procs
            self._pool = ProcessPoolExecutor(n_procs - 1,
                                             mp_context=multiprocessing.get_context("fork"),
                                             initializer=_start_worker,
                                             initargs=(state, os.getpid()))

    def run(self, n, local, remote, lost):
        """[f(k) for k in range(n)]: local(k) in this process for k = 0
        (mod P), and remote(k) on the workers for the rest, each share
        k = j (mod P), 0 < j < P, sent as one task.  remote is pickled by
        reference, with what it binds.  The lowest k that raises raises, as
        in a serial loop: this process computes no k above a worker's
        failure it has seen.  A worker that ends without its share's results
        raises WorkerError(lost.format(k=j)) at the share's lowest k.  On
        any failure the workers are killed."""
        p = self.n_procs
        if p == 1:
            return [local(k) for k in range(n)]
        # OpenBLAS's idle threads spin for about 0.1 s after each call, on
        # the CPUs the workers need: after a prediction at t threads, they
        # held a desk worker's trees to half speed.
        _END_BLAS_THREADS()
        futures = {j: self._pool.submit(_share, remote, range(j, n, p))
                   for j in range(1, min(p, n))}
        got = {}  # k -> f(k), or the exception it raised

        def take(j):  # waits for share j
            try:
                out = futures.pop(j).result()
            except BrokenProcessPool as exc:
                out = [WorkerError(lost.format(k=j))]
                out[0].__cause__ = exc
            except Exception as exc:  # e.g. a result that does not pickle
                out = [exc]
            got.update(zip(range(j, n, p), out))

        try:
            for k in range(0, n, p):
                for j in [j for j, f in futures.items() if f.done()]:
                    take(j)
                if any(isinstance(v, Exception) for i, v in got.items() if i < k):
                    break  # a lower k failed, so this one is not needed
                try:
                    got[k] = local(k)
                except Exception as exc:
                    got[k] = exc
                    break
            results = []
            for k in range(n):  # a failure raises before any k that was not computed
                if k not in got:
                    take(k % p)
                if isinstance(got[k], Exception):
                    raise got[k]
                results.append(got[k])
            return results
        except BaseException:
            self._kill()
            raise


def _train_in_worker(k):
    """Train sub-model k into the parameters the caller laid out for it, and
    return its history."""
    job, shared = _worker
    params, history = _train_one(job, k)
    for key, a in params.items():
        np.copyto(shared[k][key], a)
    return history


def _train_all(job, n_models, trainers):
    """(params, history) per sub-model in k order, trained on P trainers,
    the caller's BLAS threads shared among them while they train.  The
    lowest failing k raises, as in a serial loop."""
    model, images, _, bags, train = job[:5]
    n_procs = _within_memory(_trainer_count(n_models), n_models, lambda: network.training_bytes(
        model, min(train.batch_size, len(bags[0])), images.dtype))
    if n_procs == 1:
        return [_train_one(job, k) for k in range(n_models)]
    with _shared_blas_threads(n_procs):
        # A worker's sub-models are laid out here over one shared anonymous
        # mapping each (none without parameters), for the worker to fill.
        # This process's resident set grows only when it reads them, so its
        # peak does not depend on when a worker finishes, as it did with
        # parameters unpickled on arrival.  Forked workers inherit the job
        # and the mappings, so only k is pickled; pickling the arrays would
        # copy them in this process too.  The pool forks every worker before
        # it starts its own thread; OpenBLAS stops its threads before a fork.
        size = network.count_params(model) * images.dtype.itemsize
        shared = {k: network.zero_params(model, images.dtype, mmap.mmap(-1, size) if size else None)
                  for k in range(n_models) if k % n_procs}
        trainers.fork(n_procs, (job, shared))
        results = trainers.run(n_models, functools.partial(_train_one, job), _train_in_worker,
                               "sub-model {k}: its training process ended without a result")
    return [(shared[k], r) if k % n_procs else r for k, r in enumerate(results)]


def train_ensemble(images, labels, model, bagging: BaggingConfig,
                   train: training.TrainConfig, val=None, trainers=None):
    """Train n_models sub-models on their bags.

    Returns (EnsembleModel without combiner, BagAssignment, histories).
    The sub-models train on P processes (`_trainer_count`): one per
    sub-model up to C, the CPUs this process may run on, and above C the
    fewest, below 2C, of which none trains more than n_models // C; trainers
    above min(n_models, C) only while the available memory holds P of
    `network.training_bytes` each.  This one trains k = 0 (mod P), P - 1
    forked workers the rest.
    The workers are forked on trainers, a Trainers, and live until its block
    ends; without one, they have ended when this returns.  Before the fork
    this process lays out each of a worker's sub-models in the model's parameter
    order over a shared memory mapping; the worker fills it and sends back
    only the history, and the sub-model's arrays are views of the mapping.
    With P > 1 each trainer runs at max(1, t // P) BLAS threads, t being
    the caller's count, and sub-model k's bytes depend on that count alone,
    not on P; it is 1 with at least as many sub-models as CPUs and
    OpenBLAS's default t, one per CPU, and can fall below t // C where
    t > C and P > C.  With P = 1 the sub-models train one after another at
    t threads.  When sub-models fail, the lowest k raises, its library
    error prefixed `sub-model k:`; a worker that dies raises WorkerError.
    """
    training.check_training_set(images, labels)  # before parameters are laid out in their dtype
    assignment = assign_bags(len(labels), bagging)
    job = (model, images, np.asarray(labels), assignment.bags, train, bagging.seed, val)
    with Trainers() if trainers is None else contextlib.nullcontext(trainers) as trainers:
        results = _train_all(job, bagging.n_models, trainers)
    param_sets = [params for params, _ in results]
    histories = [hist for _, hist in results]
    return EnsembleModel(model=model, param_sets=param_sets), assignment, histories


def ensemble_predict_probs(ensemble: EnsembleModel, batch):
    """Stacked softmax outputs of every sub-model: [n_models, B, C], float64."""
    probs = network.predict_probs(ensemble.model, ensemble.param_sets, batch)
    return probs.astype(np.float64, copy=False)
