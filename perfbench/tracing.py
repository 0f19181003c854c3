"""Spans around baggedcnn's public functions, recorded from outside the library.

Each span wraps one function under the name it is looked up by: every
``baggedcnn`` module attribute bound to the function is replaced, so a name
imported directly (``training`` and ``bagging`` import ``softmax``) is wrapped
too.  A function bound somewhere else at import time, such as in a dict built
when a module loads, is not reached; such a span records zero calls, which the
benchmark reports as a failure for the spans a workload must reach.

A span records calls, total seconds, self seconds (total minus the time of
the spans it directly contains) and an item count whose meaning depends on
the span: samples, FLOPs, tree nodes or file bytes.
"""

import os
import sys
import time
from dataclasses import dataclass

from baggedcnn import (bagging, checkpoint, combiners, data, forest, layers, metrics,
                       network, training)


@dataclass(frozen=True)
class Span:
    name: str
    owner: object  # module or class holding the function
    attr: str
    count: object = None  # (args, result) -> items, or None
    backward: str = ""  # span name for the backward closure of a *_vjp function
    has_children: bool = False


class Stat:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0.0

    def add(self, other, divisor=1):
        self.calls += other.calls / divisor
        self.total += other.total / divisor
        self.self_time += other.self_time / divisor
        self.items += other.items / divisor


def _conv_flops(args, out):
    kh, kw, cin, _ = args[1].weights.shape
    return 2.0 * out.size * kh * kw * cin


def _dense_flops(args, out):
    return 2.0 * out.size * args[1].shape[0]


def _vjp_flops(flops):
    return lambda args, result: flops(args, result[0])


def _train_samples(args, result):
    labels, bag, cfg = args[1], args[3], args[4]
    return bag.n_models * int(round(bag.bagging_ratio * len(labels))) * cfg.epochs


def _predict_samples(args, result):
    return len(args[1])


def _tree_nodes(tree):
    # a node list, or a tree stored as parallel arrays with one feature per node
    nodes = getattr(tree, "nodes", None)
    return len(nodes) if nodes is not None else len(tree.feature)


def _forest_nodes(args, rf):
    return sum(_tree_nodes(t) for t in rf.trees)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _layer_spans(kind, forward, vjp, flops=None):
    name = f"layers.{kind}"
    return [
        Span(f"{name}.fwd", layers, forward, count=flops),
        Span(f"{name}.fwd", layers, vjp, count=flops and _vjp_flops(flops),
             backward=f"{name}.bwd"),
    ]


# The two spans the end-to-end metrics need; installed on untraced runs too.
CLOCK_SPANS = [
    Span("bagging.train_ensemble", bagging, "train_ensemble", count=_train_samples,
         has_children=True),
    Span("bagging.ensemble_predict_probs", bagging, "ensemble_predict_probs",
         count=_predict_samples, has_children=True),
]

ALL_SPANS = (
    _layer_spans("conv2d", "conv2d_forward", "conv2d_vjp", _conv_flops)
    + _layer_spans("maxpool2d", "maxpool2d_forward", "maxpool2d_vjp")
    + _layer_spans("relu", "relu", "relu_vjp")
    + _layer_spans("dense", "dense_forward", "dense_vjp", _dense_flops)
    + _layer_spans("flatten", "flatten", "flatten_vjp")
    + [
        Span("layers.softmax", layers, "softmax"),
        Span("network.forward_vjp", network, "forward_vjp", backward="network.backward",
             has_children=True),
        Span("network.forward_batch", network, "forward_batch", has_children=True),
        Span("training.train_submodel", training, "train_submodel", has_children=True),
        Span("training.adam_step", training, "adam_step"),
        Span("training.softmax_cce", training, "softmax_cce", has_children=True),
        Span("training.evaluate", training, "evaluate", has_children=True),
    ]
    + CLOCK_SPANS
    + [
        Span("forest.fit_forest", forest, "fit_forest", count=_forest_nodes),
        Span("forest.RandomForest.predict", forest.RandomForest, "predict"),
        Span("combiners.fit_stacking", combiners, "fit_stacking", has_children=True),
        Span("combiners.combine_stacking", combiners, "combine_stacking", has_children=True),
        Span("combiners.combine_vote", combiners, "combine_vote"),
        Span("combiners.combine_average", combiners, "combine_average"),
        Span("data.load_container", data, "load_container"),
        Span("data.split", data, "split"),
        Span("metrics.confusion", metrics, "confusion"),
        Span("checkpoint.save_checkpoint", checkpoint, "save_checkpoint", count=_file_bytes),
        Span("checkpoint.load_checkpoint", checkpoint, "load_checkpoint", count=_file_bytes),
    ]
)

LAYER_KINDS = ("conv2d", "maxpool2d", "relu", "dense", "flatten")
FLOP_KINDS = ("conv2d", "dense")


def _reported_spans():
    """(span name, has children) for the spans reported as <name>.ms/.calls."""
    for span in ALL_SPANS:
        if span.name.startswith("layers."):
            continue
        yield span.name, span.has_children
        if span.backward:
            yield span.backward, True


def per_layer_names():
    """(metric name, unit, better) for every per-layer metric, in report order."""
    out = []
    for kind in LAYER_KINDS:
        out += [(f"layers.{kind}.fwd_ms", "ms", "lower"),
                (f"layers.{kind}.bwd_ms", "ms", "lower"),
                (f"layers.{kind}.calls", "count", "lower")]
        if kind in FLOP_KINDS:
            out.append((f"layers.{kind}.gflop_per_s", "GFLOP/s", "higher"))
    out += [("layers.softmax.ms", "ms", "lower"), ("layers.softmax.calls", "count", "lower")]
    for name, has_children in _reported_spans():
        out += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "count", "lower")]
        if has_children:
            out.append((f"{name}.self_ms", "ms", "lower"))
    out += [("forest.nodes", "count", "lower"), ("checkpoint.bytes", "bytes", "lower"),
            ("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def per_layer_values(stats):
    """Per-layer metric values from averaged stats (everything but trace.*)."""
    def get(name):
        return stats.get(name, Stat())

    out = {}
    for kind in LAYER_KINDS:
        fwd, bwd = get(f"layers.{kind}.fwd"), get(f"layers.{kind}.bwd")
        out[f"layers.{kind}.fwd_ms"] = fwd.total * 1e3
        out[f"layers.{kind}.bwd_ms"] = bwd.total * 1e3
        out[f"layers.{kind}.calls"] = fwd.calls
        if kind in FLOP_KINDS:
            busy = fwd.total + bwd.total
            flops = fwd.items + bwd.items
            out[f"layers.{kind}.gflop_per_s"] = flops / busy / 1e9 if busy else 0.0
    out["layers.softmax.ms"] = get("layers.softmax").total * 1e3
    out["layers.softmax.calls"] = get("layers.softmax").calls
    for name, has_children in _reported_spans():
        st = get(name)
        out[f"{name}.ms"] = st.total * 1e3
        out[f"{name}.calls"] = st.calls
        if has_children:
            out[f"{name}.self_ms"] = st.self_time * 1e3
    fit = get("forest.fit_forest")
    out["forest.nodes"] = fit.items / fit.calls if fit.calls else 0
    files = Stat()
    files.add(get("checkpoint.save_checkpoint"))
    files.add(get("checkpoint.load_checkpoint"))
    out["checkpoint.bytes"] = files.items / files.calls if files.calls else 0
    return out


class Tracer:
    """Installs wrappers for a list of spans and aggregates what they record."""

    def __init__(self, spans):
        self.spans = spans
        self.stats = {}
        self._stack = []  # [span name, seconds spent in child spans]
        self._patched = []

    def take(self):
        """Return the stats recorded so far and start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "baggedcnn" or n.startswith("baggedcnn.")]
        for span in self.spans:
            if isinstance(span.owner, type):
                original = span.owner.__dict__[span.attr]
                self._patch(span.owner, span.attr, original, self._wrap(span, original))
                continue
            original = getattr(span.owner, span.attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _record(self, name, seconds, child_seconds, items):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total += seconds
        st.self_time += seconds - child_seconds
        st.items += items

    def _timed(self, name, fn, args, kwargs, count):
        stack = self._stack
        if stack and stack[-1][0] == name:  # e.g. dense_vjp calling dense_forward
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += seconds
        items = count(args, result) if count else 0
        self._record(name, seconds, frame[1], items)
        return result

    def _wrap(self, span, fn):
        def wrapper(*args, **kwargs):
            result = self._timed(span.name, fn, args, kwargs, span.count)
            if not span.backward:
                return result
            out, backward = result
            # backward does two matmuls the size of forward's: dInput and dWeights
            items = 2 * span.count(args, result) if span.count else 0

            def traced_backward(*bargs, **bkwargs):
                return self._timed(span.backward, backward, bargs, bkwargs,
                                   lambda a, r: items)

            return out, traced_backward

        wrapper.__wrapped__ = fn
        return wrapper


def average(groups):
    """Per-repetition stats: sum each [(list of stats, repetitions)] group,
    divide it by its repetitions, and add the groups."""
    out = {}
    for stats_list, n in groups:
        total = {}
        for stats in stats_list:
            for name, st in stats.items():
                total.setdefault(name, Stat()).add(st)
        for name, st in total.items():
            out.setdefault(name, Stat()).add(st, n)
    return out


def unreached(stats, required):
    """Names in `required` that recorded no calls."""
    return sorted(name for name in required if stats.get(name, Stat()).calls == 0)
