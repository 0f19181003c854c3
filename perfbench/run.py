"""baggedcnn benchmark: desk, paper and serve workloads.

    python3 perfbench/run.py --workload {desk,paper,serve} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  Each
workload is a closed loop with one caller in one process.  It repeats its
pass until --seconds have elapsed and checks every output.  It prints the
environment (cores, Python, numpy, BLAS and its threads), each metric with
its unit, report lines for numbers that only some workloads have
(train_samples_per_s, request_ms.p50/p90, accuracy), a sha256 of the
predicted probabilities and labels, and as its last line one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
`attempted` counts output checks and `failed` those that failed; the exit
code is 1 when any failed.

--trace 0 reports the end-to-end metrics, which every workload has:
  setup_s     median set-up time, set-up repeated for at least SETUP_SECONDS
              (desk: write the dataset container; paper: make the images and
              build the network; serve: load_checkpoint plus load_container)
  wall_adj_s  median pass time
  predict_adj_samples_per_s
              median over passes of images per second inside
              bagging.ensemble_predict_probs
  peak_rss_mb peak resident set size of the process
The three timings are adjusted to the speed of the machine.  A fixed
reference kernel that does not use baggedcnn is timed after the set-ups and
after every pass.  A pass's times are divided by (mean reference time around
it / REF_NOMINAL_S), and set-up times by (median reference time of the run /
REF_NOMINAL_S).  On a shared machine whose cores change speed by up to 2x
over minutes, raw times of runs minutes apart differ by more than any useful
bound; adjusted times differ much less.  The raw times are printed as report
lines (setup_raw_s, wall_s, predict_samples_per_s).

Only bagging.train_ensemble and bagging.ensemble_predict_probs are wrapped,
for the throughput numbers.  --trace 1 reports the per-layer metrics of
tracing.py, per pass (set-up spans per set-up).  Passes alternate traced and
untraced, and the difference of their median wall times is the tracing
overhead.

Workloads (the ROADMAP reference run, the paper-size network, a server):
  desk   1000 synthetic 32x32x1 images, split 0.6/0.1/0.2/0.1.  The same
         calls as `baggedcnn train`: cli.run_pipeline (5 sub-models, ratio
         0.7, 4 epochs, batch 32, 50-tree depth-10 stacking forest), then
         evaluate_ensemble on the test split, the other two combiners, and
         save_checkpoint.
  paper  build_paper_cnn (224x224x3).  2 sub-models train one epoch on 16
         synthetic images at batch 8, then predict 8 held-out images with
         the average combiner.
  serve  A desk ensemble is trained and checkpointed first (not timed).
         Set-up is load_checkpoint plus load_container, as `baggedcnn eval`
         does.  A pass is 10 sequential 64-image requests on 640 held-out
         images; each request is ensemble_predict_probs then combine
         (stacking).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "baggedcnn", "__init__.py")):
    sys.exit(f"perfbench: no baggedcnn sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from baggedcnn import (bagging, checkpoint, cli, combiners, data, metrics,  # noqa: E402
                       network, training)

import tracing  # noqa: E402

SETUP_REPEATS = 5  # at least this many set-ups, and for at least SETUP_SECONDS
SETUP_SECONDS = 1.0
REQUEST_SIZE = 64

SIZES = {
    "full": {
        "desk": dict(n_per_class=200, image_size=32, widths=(8, 16), dense_units=64,
                     n_models=5, epochs=4, n_trees=50, max_depth=10),
        "paper": dict(n_train=16, n_predict=8, n_models=2, batch_size=8),
        "serve": dict(requests_per_pass=10),
    },
    # a few-second size for the benchmark's own tests
    "tiny": {
        "desk": dict(n_per_class=60, image_size=16, widths=(4,), dense_units=16,
                     n_models=2, epochs=3, n_trees=10, max_depth=5),
        "paper": dict(n_train=2, n_predict=1, n_models=2, batch_size=2),
        "serve": dict(requests_per_pass=2),
    },
}

MIN_STACKING_ACCURACY = 0.90  # acceptance criterion 7

# Spans each workload must reach when traced; zero calls fails the run.
_FORWARD = [f"layers.{k}.fwd" for k in tracing.LAYER_KINDS] + [
    "layers.softmax", "network.forward_batch", "bagging.ensemble_predict_probs"]
_TRAIN = [f"layers.{k}.bwd" for k in tracing.LAYER_KINDS] + [
    "network.forward_vjp", "network.backward", "training.train_submodel",
    "training.adam_step", "training.softmax_cce", "bagging.train_ensemble"]
REACHED = {
    "desk": _FORWARD + _TRAIN + [
        "training.evaluate", "forest.fit_forest", "forest.RandomForest.predict",
        "combiners.fit_stacking", "combiners.combine_stacking", "combiners.combine_vote",
        "combiners.combine_average", "data.load_container", "data.split",
        "metrics.confusion", "checkpoint.save_checkpoint"],
    "paper": _FORWARD + _TRAIN + ["combiners.combine_average"],
    "serve": _FORWARD + ["forest.RandomForest.predict", "combiners.combine_stacking",
                         "data.load_container", "checkpoint.load_checkpoint"],
}


_REF_A = np.random.default_rng(0).random((192, 192))
_REF_X = np.random.default_rng(1).random(1 << 18)
REF_NOMINAL_S = 0.02


def reference_seconds():
    """Median time of three runs of a fixed kernel that does not use baggedcnn:
    interpreter arithmetic, BLAS matmuls, memory-bound and many small numpy
    calls, the mix a pass does.  Its ratio to REF_NOMINAL_S is the speed of
    the machine at the moment."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i
        for _ in range(24):
            _REF_A @ _REF_A
        for _ in range(12):
            np.maximum(_REF_X, 0.5).sum()
        small = _REF_X[:64]
        for _ in range(3000):
            small + 1.0
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def derived_seed(seed, stream):
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def probs_ok(probs):
    """Finite probabilities whose rows each sum to 1."""
    probs = np.asarray(probs)
    return bool(np.all(np.isfinite(probs)) and np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Outcome:
    """Output checks attempted, and a description of each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- desk ---------------------------------------------------------------------

def write_desk_dataset(size, seed, path):
    """Write the desk dataset container; returns the run config that reads it."""
    ds = data.synth_dataset(size["n_per_class"], n_classes=5, image_size=size["image_size"],
                            seed=derived_seed(seed, 0), noise=0.1)
    data.save_container(ds, path)
    return cli.RunConfig(dataset=path, split=(0.6, 0.1, 0.2, 0.1), model_size="scaled",
                         widths=size["widths"], dense_units=size["dense_units"], n_classes=5,
                         n_models=size["n_models"], bagging_ratio=0.7, epochs=size["epochs"],
                         batch_size=32, combiner="stacking", n_trees=size["n_trees"],
                         max_depth=size["max_depth"], seed=seed)


def desk_pass(cfg, ckpt_path):
    """The calls of `baggedcnn train`, plus the two other combiners.

    Returns (ensemble, test probs, labels per combiner, accuracy per combiner).
    """
    _, views, ensemble, _, _ = cli.run_pipeline(cfg)
    _, stacking, probs, y = cli.evaluate_ensemble(cfg, ensemble, views[3])
    labels = {"stacking": stacking, "average": combiners.combine_average(probs),
              "vote": combiners.combine_vote(probs)}
    accuracy = {k: metrics.accuracy(metrics.confusion(v, y, ensemble.n_classes))
                for k, v in labels.items()}
    checkpoint.save_checkpoint(ckpt_path, ensemble, cli.config_snapshot(cfg))
    return ensemble, probs, labels, accuracy


class Desk:
    def __init__(self, sizes, seed, work):
        self.size, self.seed = sizes["desk"], seed
        self.path = os.path.join(work, "desk.bsec")
        self.ckpt = os.path.join(work, "desk.ckpt")

    def setup(self):
        self.cfg = write_desk_dataset(self.size, self.seed, self.path)

    def run_pass(self, outcome):
        _, probs, labels, accuracy = desk_pass(self.cfg, self.ckpt)
        self.accuracy, self.n_test = accuracy, probs.shape[1]
        outcome.check("desk probabilities finite, rows sum to 1", probs_ok(probs))
        stacking = accuracy["stacking"]
        outcome.check(f"desk stacking accuracy {stacking:.4f} >= {MIN_STACKING_ACCURACY}",
                      stacking >= MIN_STACKING_ACCURACY)
        return digest(probs, labels["stacking"], labels["average"], labels["vote"])

    def report(self):
        a = self.accuracy
        return {"accuracy": (a["stacking"], "", f"stacking, {self.n_test} test images; "
                             f"average {a['average']:.4f}, vote {a['vote']:.4f}")}


# -- paper --------------------------------------------------------------------

class Paper:
    def __init__(self, sizes, seed, work):
        self.size, self.seed = sizes["paper"], seed

    def setup(self):
        s = self.size
        n = s["n_train"] + s["n_predict"]
        ds = data.synth_dataset(math.ceil(n / 5), n_classes=5, image_size=224,
                                seed=derived_seed(self.seed, 0), noise=0.1, channels=3)
        order = np.random.default_rng(derived_seed(self.seed, 1)).permutation(len(ds))[:n]
        self.x = ds.images[order]
        self.y = ds.labels_multi[order].astype(np.int64)
        self.model = network.build_paper_cnn(5)

    def run_pass(self, outcome):
        s = self.size
        n = s["n_train"]
        ensemble, _, _ = bagging.train_ensemble(
            self.x[:n], self.y[:n], self.model,
            bagging.BaggingConfig(n_models=s["n_models"], bagging_ratio=1.0, seed=self.seed),
            training.TrainConfig(epochs=1, batch_size=s["batch_size"], seed=self.seed))
        probs = bagging.ensemble_predict_probs(ensemble, self.x[n:])
        labels = combiners.combine(ensemble, probs)  # the default combiner, average
        outcome.check("paper probabilities finite, rows sum to 1", probs_ok(probs))
        return digest(probs, labels)

    def final_checks(self, outcome):
        # the classifier head starts at zero, so the initial loss is ln(n_classes)
        params = network.init_params(self.model, self.seed)
        loss, _ = training.evaluate(self.model, params, self.x[:1], self.y[:1])
        outcome.check(f"paper initial loss {loss:.7f} is ln(n_classes)",
                      abs(loss - math.log(self.model.n_classes)) < 1e-5)

    def report(self):
        return {}


# -- serve --------------------------------------------------------------------

class Serve:
    def __init__(self, sizes, seed, work):
        self.desk, self.seed = sizes["desk"], seed
        self.n_images = sizes["serve"]["requests_per_pass"] * REQUEST_SIZE
        self.work = work
        self.ckpt = os.path.join(work, "serve.ckpt")
        self.pool_path = os.path.join(work, "pool.bsec")
        self.latencies = []

    def build_fixture(self):
        """Train and checkpoint a desk ensemble and keep its in-memory answers."""
        cfg = write_desk_dataset(self.desk, self.seed, os.path.join(self.work, "fixture.bsec"))
        ensemble, _, _, _ = desk_pass(cfg, self.ckpt)
        ds = data.synth_dataset(math.ceil(self.n_images / 5), n_classes=5,
                                image_size=self.desk["image_size"],
                                seed=derived_seed(self.seed, 2), noise=0.1)
        order = np.random.default_rng(derived_seed(self.seed, 3)).permutation(len(ds))
        pool = data.DatasetContainer(ds.images[order], ds.labels_multi[order],
                                     ds.labels_binary[order], ds.metadata)
        data.save_container(pool, self.pool_path)
        self.expected = []
        for lo in range(0, self.n_images, REQUEST_SIZE):
            probs = bagging.ensemble_predict_probs(ensemble, pool.images[lo:lo + REQUEST_SIZE])
            self.expected.append((probs, combiners.combine(ensemble, probs)))

    def setup(self):
        self.ensemble, _ = checkpoint.load_checkpoint(self.ckpt)
        self.pool = data.load_container(self.pool_path)

    def run_pass(self, outcome):
        """One sweep of sequential requests; each request is one operation."""
        x, y = self.pool.images, self.pool.labels_multi
        parts, correct = [], 0
        for i, (want_probs, want_labels) in enumerate(self.expected):
            lo = i * REQUEST_SIZE
            start = time.perf_counter()
            probs = bagging.ensemble_predict_probs(self.ensemble, x[lo:lo + REQUEST_SIZE])
            labels = combiners.combine(self.ensemble, probs)
            self.latencies.append(time.perf_counter() - start)
            outcome.check(f"serve request {i}: finite probabilities summing to 1, equal to "
                          "the in-memory ensemble's",
                          probs_ok(probs) and np.array_equal(probs, want_probs)
                          and np.array_equal(labels, want_labels))
            correct += int(np.sum(labels == y[lo:lo + REQUEST_SIZE]))
            parts += [probs, labels]
        self.accuracy = correct / self.n_images
        return digest(*parts)

    def report(self):
        lat = self.latencies
        n = f"n={len(lat)} requests of {REQUEST_SIZE} images"
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
        return {"request_ms.p50": (statistics.median(lat) * 1e3, "ms", n),
                "request_ms.p90": (p90 * 1e3, "ms", n),
                "accuracy": (self.accuracy, "", f"stacking, {self.n_images} held-out images")}


WORKLOADS = {"desk": Desk, "paper": Paper, "serve": Serve}


# -- environment --------------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # unset means OpenBLAS uses one thread per core
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- running a workload --------------------------------------------------------

def timed_setups(workload, tracer=None):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            times.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
    return times


def run(name, seed, seconds, traced, size_name, work):
    workload = WORKLOADS[name](SIZES[size_name], seed, work)
    clock = tracing.Tracer(tracing.CLOCK_SPANS)
    full = tracing.Tracer(tracing.ALL_SPANS)
    outcome = Outcome()
    if name == "serve":
        workload.build_fixture()

    setup_times = timed_setups(workload, full if traced else None)
    ref = [reference_seconds()]  # before and after every pass
    setup_stats = full.take()

    passes = []  # (traced, wall seconds, stats)
    digests = []
    start = time.perf_counter()
    while len(passes) < (2 if traced else 1) or time.perf_counter() - start < seconds:
        tracer = full if traced and len(passes) % 2 == 0 else clock
        tracer.install()
        t0 = time.perf_counter()
        try:
            dig = workload.run_pass(outcome)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        ref.append(reference_seconds())
        passes.append((tracer is full, wall, tracer.take()))
        if digests:
            outcome.check(f"{name} pass {len(passes)} digest equals pass 1's", dig == digests[0])
        digests.append(dig)
    if hasattr(workload, "final_checks"):
        workload.final_checks(outcome)

    # speed of the machine around each pass, 1.0 at the nominal speed
    speeds = [(a + b) / 2 / REF_NOMINAL_S for a, b in zip(ref, ref[1:])]

    raw = [1.0] * len(passes)

    def rate(span, scale):  # samples per second, median over passes
        return statistics.median(p[2][span].items / p[2][span].total * k
                                 for p, k in zip(passes, scale))

    if traced:
        traced_passes = [p for p in passes if p[0]]
        stats = tracing.average([([setup_stats], len(setup_times)),
                                 ([p[2] for p in traced_passes], len(traced_passes))])
        missing = tracing.unreached(stats, REACHED[name])
        outcome.check(f"traced spans reached (zero calls: {missing})", not missing)
        values = tracing.per_layer_values(stats)
        values["trace.wall_s"] = statistics.median(p[1] for p in traced_passes)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            p[1] for p in passes if not p[0])
        result = {n: {"value": values[n], "unit": u} for n, u, _ in tracing.per_layer_names()}
    else:
        values = {
            "setup_s": (statistics.median(setup_times) * REF_NOMINAL_S / statistics.median(ref),
                        "s"),
            "wall_adj_s": (statistics.median(p[1] / k for p, k in zip(passes, speeds)), "s"),
            "predict_adj_samples_per_s": (rate("bagging.ensemble_predict_probs", speeds),
                                          "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
    report = workload.report()
    report["setup_raw_s"] = (statistics.median(setup_times), "s", "median set-up")
    report["wall_s"] = (statistics.median(p[1] for p in passes), "s", "median pass")
    report["predict_samples_per_s"] = (rate("bagging.ensemble_predict_probs", raw), "1/s",
                                       "images / ensemble_predict_probs time")
    report["reference_ms"] = (statistics.median(ref) * 1e3, "ms",
                              f"reference kernel, n={len(ref)}")
    if name != "serve":
        report["train_samples_per_s"] = (rate("bagging.train_ensemble", raw), "1/s",
                                         "bag samples x epochs / train_ensemble time")
    walls = [round(p[1], 4) for p in passes]
    return outcome, result, report, digests[0], walls, len(setup_times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(), sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        outcome, result_metrics, report, dig, walls, n_setups = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"setups={n_setups} passes={len(walls)}")
    print(f"pass_s {walls}")
    for k, m in result_metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    for k, (value, unit, note) in report.items():
        print(f"report {k} = {value:.6g} {unit} ({note})")
    print(f"digest {args.workload} sha256:{dig}")
    for what in outcome.failures:
        print(f"FAILED {what}", file=sys.stderr)
    failed = len(outcome.failures)
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
