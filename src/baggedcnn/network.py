"""Model specs: composing layer kernels into a full CNN classifier.

A ModelSpec is an ordered list of LayerSpecs, walked once when it is built:
the walk checks that the shapes fit and keeps each layer's running name,
output shape and weight shape, which everything else here reads.  Each
layer kind's rules sit in its row of _LAYER_TABLE.  Parameters live outside
the spec in a flat dict mapping "layername/w" / "layername/b" to arrays, so
the optimizer can treat them uniformly.
"""

import ctypes
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BuildError, DimensionError, InputError
from . import layers


# Output-shape rules: (error prefix, layer, input shape) -> output shape, or
# BuildError for a layer that does not fit its input.
def _image_input(name, cur):
    if len(cur) != 3:
        raise BuildError(f"{name}: expects [H,W,C] input, got {cur}")
    return cur


def _conv_shape(name, layer, cur):
    h, w, _ = _image_input(name, cur)
    kh, kw = layer.kernel
    if min(kh, kw, layer.stride, layer.out_channels) < 1:
        raise BuildError(
            f"{name}: kernel {layer.kernel}, stride {layer.stride} and "
            f"out_channels {layer.out_channels} must all be >= 1")
    oh = (h - kh) // layer.stride + 1
    ow = (w - kw) // layer.stride + 1
    if h < kh or w < kw or oh < 1 or ow < 1:
        raise BuildError(f"{name}: kernel {layer.kernel} does not fit input {h}x{w}")
    return (oh, ow, layer.out_channels)


def _pool_shape(name, layer, cur):
    h, w, c = _image_input(name, cur)
    if h < 2 or w < 2:
        raise BuildError(f"{name}: 2x2 window does not fit input {h}x{w}")
    return (h // 2, w // 2, c)


def _dense_shape(name, layer, cur):
    if len(cur) != 1:
        raise BuildError(f"{name}: expects flat input, got {cur}")
    if layer.units < 1:
        raise BuildError(f"{name}: units must be >= 1, got {layer.units}")
    return (layer.units,)


# The kernels are named, not bound, and looked up on `layers` at call time, so
# a wrapper installed on the module is called.
class _Kind(NamedTuple):
    base: str  # base of the keras-style running name
    label: str  # summary() label
    forward: str  # forward kernel
    vjp: str  # vjp kernel
    out_shape: object  # output-shape rule
    weight_shape: object = None  # (layer, input shape) -> weight shape; None: no parameters
    args: object = None  # (layer, weights, bias) -> extra kernel arguments


_LAYER_TABLE = {
    "conv2d": _Kind("conv2d", "Conv2D", "conv2d_forward", "conv2d_vjp", _conv_shape,
                    lambda layer, cur: (*layer.kernel, cur[2], layer.out_channels),
                    lambda layer, w, b: (layers.ConvKernelSet(w, b), layer.stride)),
    "maxpool2d": _Kind("max_pooling2d", "MaxPooling2D", "maxpool2d_forward", "maxpool2d_vjp",
                       _pool_shape),
    "relu": _Kind("relu", "ReLU", "relu", "relu_vjp", lambda name, layer, cur: cur),
    "flatten": _Kind("flatten", "Flatten", "flatten", "flatten_vjp",
                     lambda name, layer, cur: (int(np.prod(cur)),)),
    "dense": _Kind("dense", "Dense", "dense_forward", "dense_vjp", _dense_shape,
                   lambda layer, cur: (cur[0], layer.units), lambda layer, w, b: (w, b)),
}
LAYER_KINDS = tuple(_LAYER_TABLE)


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: tuple = ()  # (kh, kw) for conv2d
    out_channels: int = 0  # conv2d
    stride: int = 1  # conv2d
    units: int = 0  # dense

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InputError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    input_shape: tuple  # (H, W, C)
    layers: tuple  # LayerSpec sequence
    n_classes: int
    # (running name, layer, output shape, weight shape or None) per layer,
    # from the one walk that validates the spec
    _rows: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # tuples, so the rows cannot go stale
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "_rows", _walk(self))
        if count_params(self) * 8 > np.iinfo(np.intp).max:  # numpy refuses a larger float64 array
            raise BuildError(f"{count_params(self)} parameters are more than one array can hold")


def _walk(model):
    cur = model.input_shape
    if len(cur) != 3 or min(cur) < 1:
        raise BuildError(f"input shape must be positive [H,W,C], got {cur}")
    rows, counts = [], {}
    for li, layer in enumerate(model.layers):
        kind = _LAYER_TABLE[layer.kind]
        n = counts.get(kind.base, 0)
        counts[kind.base] = n + 1
        out = kind.out_shape(f"layer {li} ({layer.kind})", layer, cur)
        weights = kind.weight_shape(layer, cur) if kind.weight_shape else None
        rows.append((kind.base if n == 0 else f"{kind.base}_{n}", layer, out, weights))
        cur = out
    if cur != (model.n_classes,):
        raise BuildError(f"final layer produces {cur}, expected ({model.n_classes},)")
    return tuple(rows)


def conv(kh, kw, out_channels, stride=1):
    return LayerSpec("conv2d", kernel=(kh, kw), out_channels=out_channels, stride=stride)


def pool():
    return LayerSpec("maxpool2d")


def relu():
    return LayerSpec("relu")


def flat():
    return LayerSpec("flatten")


def dense(units):
    return LayerSpec("dense", units=units)


def infer_shapes(model):
    """Per-layer output shapes (excluding the batch axis)."""
    return [out for _, _, out, _ in model._rows]


def layer_names(model):
    """Keras-style running names: conv2d, conv2d_1, ..., dense, dense_1, ..."""
    return [name for name, *_ in model._rows]


def build_paper_cnn(n_classes=10):
    """The reference architecture: 224x224x3 in, four conv/pool blocks
    (32, 64, 128, 128 filters of 3x3), dense 512, dense n_classes.
    Total parameter count for n_classes=10 is 9,683,658."""
    return build_scaled_cnn((224, 224, 3), (32, 64, 128, 128), n_classes, dense_units=512)


def build_scaled_cnn(input_shape, widths, n_classes, dense_units=64):
    """Same layer pattern as build_paper_cnn with configurable conv widths."""
    if n_classes < 2:
        raise InputError("n_classes must be >= 2")
    if not widths:
        raise InputError("widths must be non-empty")
    seq = []
    for w in widths:
        seq += [conv(3, 3, w), relu(), pool()]
    seq += [flat(), dense(dense_units), relu(), dense(n_classes)]
    return ModelSpec(input_shape=input_shape, layers=seq, n_classes=n_classes)


def _param_shapes(model):
    """"name/w" and "name/b" -> shape of every parameter, in spec order: the
    keys and order of every parameter dict."""
    shapes = {}
    for name, _, _, w in model._rows:
        if w:
            shapes[f"{name}/w"], shapes[f"{name}/b"] = w, w[-1:]
    return shapes


def count_params(model):
    return sum(count for _, _, count in summary_rows(model))


def zero_params(model, dtype, buffer=None):
    """Zeroed parameters laid out in the order of _param_shapes over one flat
    array: a new one, or the zeroed `buffer`, which must hold
    count_params(model) elements of dtype."""
    flat = np.zeros(count_params(model), dtype) if buffer is None else np.frombuffer(buffer, dtype)
    params, start = {}, 0
    for key, shape in _param_shapes(model).items():
        params[key] = flat[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return params


def init_params(model, seed, dtype=np.float32):
    """Uniform(+-sqrt(6/fan_in)) weights, zero biases, deterministic per seed.

    The final classifier layer starts at zero so initial class probabilities
    are exactly uniform (loss ln C) regardless of the activation scale the
    stack produces.
    """
    rng = np.random.default_rng(seed)
    params = zero_params(model, dtype)
    for key in [key for key in params if key.endswith("/w")][:-1]:
        limit = np.sqrt(6.0 / math.prod(params[key].shape[:-1]))
        flat = params[key].reshape(-1)  # a view: the parameters are contiguous
        # draws of layers.BLOCK_VALUES at a time: each takes one value of the
        # stream whatever the call size, so the bytes do not depend on it;
        # 512 kB chunks took a paper init 48 against 68 ms for whole-weight
        # draws (2 vCPU), which make a 75 MB temporary at the paper dense layer
        for lo in range(0, flat.size, layers.BLOCK_VALUES):
            part = flat[lo : lo + layers.BLOCK_VALUES]
            part[...] = rng.uniform(-limit, limit, size=part.size)
    return params


def forward_batch(model, params, batch):
    """Logits [B, n_classes] for batch [B,H,W,C] under one parameter dict, or
    [M, B, n_classes] under a sequence of M dicts; every array must share
    one dtype.  A batch narrower than the parameters is first cast to their
    dtype, as `predict_probs` casts its images."""
    single = isinstance(params, Mapping)
    param_sets = [params] if single else list(params)
    dtype = _param_dtype(param_sets)
    _check_batch(model, batch)
    if dtype is not None:  # a conv's output takes its batch's dtype
        batch = batch.astype(np.result_type(batch, dtype), copy=False)
    logits = _run_forward(model, [_steps(model, p, want_vjp=False) for p in param_sets], batch)
    return logits[0] if single else np.stack(logits)


def forward_vjp(model, params, batch):
    """(logits, backward) where backward(upstream [B,n_classes]) -> grad dict
    with the same keys as params, summed over the batch.  backward runs once:
    it drops each layer's saved arrays as soon as it has used them.

    backward(upstream, update=update) returns None and hands each gradient
    on instead, as update(key, rows, grad) with grad the gradient of
    params[key][rows], as soon as its layer has made it and no longer reads
    the parameter: a conv's whole, a dense weight's in blocks of rows
    (`layers.dense_vjp`).  So update may write params[key] in place, and
    no full set of gradients is ever held.

    The image layers run on spans of whole images (`_span`), each span
    through every image layer before the next starts, and the dense layers
    on the whole batch.  When the batch takes several spans, every conv
    keeps its input and rebuilds its im2col matrix in the backward
    (`layers.conv2d_vjp` with keep_input), so a span's arrays are all that
    exist of it.  The backward runs the dense layers on the whole batch,
    then each span's image layers in span order.  A conv's weight and bias
    gradients add up over the spans in that order and are handed on after
    the last span; they round differently from a one-span pass's, while
    the logits, pooled outputs, pool indices and dense gradients keep its
    bytes at the paper shapes."""
    _check_batch(model, batch)
    n_image, span = _span(model, training=True)
    steps = _steps(model, params, want_vjp=True)
    keep = {"keep_input": True} if span < len(batch) else {}
    spans, parts = [], []  # per span: (its rows, its image layers' tape); its output
    for lo in range(0, len(batch), span):
        rows, x, tape = slice(lo, lo + span), batch[lo : lo + span], []
        for name, vjp, args in steps[:n_image]:  # a named image layer is a conv
            x, bwd = getattr(layers, vjp)(x, *args, **(keep if name else {}))
            tape.append((name, bwd))
        spans.append((rows, tape))
        parts.append(x)
    x = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts
    tape = []  # the dense layers' (parameter name prefix or None, backward)
    for name, vjp, args in steps[n_image:]:
        x, bwd = getattr(layers, vjp)(x, *args)
        tape.append((name, bwd))
    logits = x
    spans.reverse()  # popped from the end, in span order

    def backward(upstream, update=None):
        if upstream.shape != logits.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match logits {logits.shape}"
            )
        if not tape:
            raise InputError("backward already ran for this forward pass")
        grads = {}
        g = upstream
        while tape:
            name, bwd = tape.pop()
            if not name:
                if tape or n_image:  # the gradient of the batch itself is never used
                    g = bwd(g)
            elif update is None:
                g, grads[f"{name}/w"], grads[f"{name}/b"] = bwd(g)
            else:
                g, _, db = bwd(g, weight_rows=functools.partial(update, f"{name}/w"))
                update(f"{name}/b", slice(None), db)
        sums = {}  # a conv's weight and bias gradients over the spans so far
        while spans:
            rows, span_tape = spans.pop()
            h = g[rows]
            if not spans:
                del g  # its last span's view holds it alone, until the view is used
            while span_tape:
                name, bwd = span_tape.pop()
                first = not span_tape
                if not name:
                    if not first:
                        h = bwd(h)
                    continue
                h, dw, db = bwd(h, input_grad=not first)  # a conv
                if name in sums:
                    sums[name][0] += dw
                    sums[name][1] += db
                else:
                    sums[name] = [dw, db]
                if spans:
                    continue
                dw, db = sums.pop(name)
                if update is None:
                    grads[f"{name}/w"], grads[f"{name}/b"] = dw, db
                else:
                    update(f"{name}/w", slice(None), dw)
                    update(f"{name}/b", slice(None), db)
        return None if update else grads

    return logits, backward


# Images per forward pass in `predict_probs`.  Not a tuning value: a GEMM
# over another number of rows can round some rows differently, so another
# size changes the bytes of the predictions.
PREDICT_BATCH = 64


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises instead
def predict_probs(model, param_sets, images):
    """Softmax probabilities [M, B, n_classes] of images [B,H,W,C] under each
    of a sequence of M parameter dicts, which must share one dtype.

    The images are checked against the model input and cast to the
    parameters' dtype, which the result takes (a model without parameters
    keeps theirs, made floating).  They run PREDICT_BATCH at a time; no
    images give [M, 0, n_classes].  Parameters large enough to overflow
    the forward pass raise NumericError at the softmax's finiteness check.
    """
    _check_shape(model, images)
    if isinstance(param_sets, Mapping):
        raise InputError("predict_probs takes a sequence of parameter dicts")
    param_sets = list(param_sets)  # read here and again per slice
    dtype = _param_dtype(param_sets)
    if dtype is not None:
        images = images.astype(dtype, copy=False)
    out = np.empty((len(param_sets), len(images), model.n_classes), np.result_type(images, 1.0))
    # forward_batch and softmax are looked up per slice, so a wrapper
    # installed on either module is called
    for lo in range(0, len(images), PREDICT_BATCH):
        rows = slice(lo, lo + PREDICT_BATCH)
        out[:, rows] = layers.softmax(forward_batch(model, param_sets, images[rows]))
    return out


def _param_dtype(param_sets):
    """The one dtype of every array in param_sets, or None when they hold
    none.  Sub-models of two dtypes cannot share the first conv: its
    concatenated kernels would take the wider one."""
    if not param_sets:
        raise InputError("no parameter sets")
    dtypes = {value.dtype for params in param_sets for value in params.values()}
    if len(dtypes) > 1:
        raise InputError(f"parameter sets mix dtypes {sorted(map(str, dtypes))}")
    return next(iter(dtypes), None)


# glibc's malloc serves a block of at least _MMAP_THRESHOLD bytes with mmap and
# returns the heap top to the kernel once _TRIM_THRESHOLD bytes of it are free.
# By default it moves the first as blocks are freed and trims at 128 kB, so a
# desk sub-model's training step (batch 32) gave back and faulted in again
# 140-220 pages; with both fixed, 0-2.  Setting one alone also stops the
# moving threshold, and left 1175 (mmap) or 2157 (trim) faults per step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _keep_heap_resident():
    """Fix glibc's mmap and trim thresholds for the whole process; a no-op
    under any other C library."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc's own symbol
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _span(model, training):
    """(count of leading layers with [H,W,C] output, images per span): a
    pass runs those layers on spans of whole images, as many as keep the
    largest per-image array one of them builds within `layers.STREAM_VALUES`,
    at least one.  A conv's arrays are its im2col matrix, its output and,
    in training, its corner-order input gradient's planes
    (`layers.conv_image_values`); any other layer's is its output."""
    count, largest = 0, 1
    for (_, layer, shape, weights), corners, image in _run_order(model):
        if len(shape) != 3:
            break
        sizes = (math.prod(shape),)
        if weights:
            sizes = layers.conv_image_values(image, weights, layer.stride, corners,
                                             training and count > 0)
        largest = max(largest, *sizes)
        count += 1
    return count, max(1, layers.STREAM_VALUES // largest)


def _check_shape(model, batch):
    if batch.ndim != 4 or batch.shape[1:] != model.input_shape:
        raise DimensionError(
            f"batch shape {batch.shape} does not match model input {model.input_shape}"
        )


def _check_batch(model, batch):
    _check_shape(model, batch)
    if len(batch) == 0:
        raise InputError("batch holds no images")


def _run_order(model):
    """(row of model._rows, corners, input shape) per layer, in the order a
    pass runs them; the input shape is the spec order's.

    A relu directly before a pool runs after it, on a quarter of the
    elements, with the same bytes out: relu is monotone and never returns
    -0.0, a positive window maximum keeps its first corner, and every other
    gradient element is a zero with the sign of its upstream in either order.
    A conv whose next layer in this order is a pool runs with corners: it
    returns the pool's window corners, which the pool reads as contiguous
    slabs (and returns its gradient in).
    """
    order = list(range(len(model.layers)))
    for i in range(len(order) - 1):
        if model.layers[i].kind == "relu" and model.layers[i + 1].kind == "maxpool2d":
            order[i], order[i + 1] = order[i + 1], order[i]
    kinds = [model.layers[i].kind for i in order] + [None]
    rows = model._rows
    return [(rows[i], kinds[n] == "conv2d" and kinds[n + 1] == "maxpool2d",
             rows[i - 1][2] if i else model.input_shape) for n, i in enumerate(order)]


def _steps(model, params, want_vjp):
    """(parameter name prefix or None, kernel name, arguments) per layer, in
    `_run_order`.  Forward-only, the pool after a conv with corners adds the
    conv's bias after its max, to a quarter of the elements, with the same
    bytes (see `layers`).  Training keeps the add in the conv: corners that
    tie only once it is added would move the pool's index, and so the
    gradient."""
    steps, bias = [], None  # bias: the one the next (pool) step adds
    for (name, layer, _, weights), corners, _ in _run_order(model):
        kind = _LAYER_TABLE[layer.kind]
        args = kind.args(layer, params[f"{name}/w"], params[f"{name}/b"]) if weights else ()
        if bias is not None:
            args, bias = (bias,), None
        if corners:
            args += (True,) if want_vjp else (True, False)
            bias = None if want_vjp else args[0].bias
        steps.append((name if weights else None, kind.vjp if want_vjp else kind.forward, args))
    return steps


def training_bytes(model, batch, dtype):
    """Estimated bytes one training step on `batch` images in `dtype` holds
    at its peak: what each conv keeps for its backward pass, its im2col
    matrix or, when the batch takes several spans (`_span`), its input; the
    largest array one span's conv builds (`layers.conv_image_values`); three
    arrays the size of the parameters (the parameters and Adam's two
    moments); and the largest gradient piece one layer holds (`forward_vjp`
    with update): a conv's weight and bias gradients, or a dense layer's
    bias gradient and one block of rows of its weight gradient.  Other
    activations, masks, pool indices and the rest of the backward's own
    arrays are left out, so it reads below a traced step's peak (see the
    tests)."""
    span = _span(model, training=True)[1]
    images = span if span < batch else 0  # per span, or 0 when the batch runs whole
    kept = work = piece = 0  # values
    for n, ((_, layer, _, weights), corners, image) in enumerate(_run_order(model)):
        if layer.kind == "conv2d":
            sizes = layers.conv_image_values(image, weights, layer.stride, corners, n > 0)
            kept += batch * (math.prod(image) if images else sizes[0])
            work = max(work, images * max(sizes))
        if layer.kind == "dense":
            rows = max(block.stop - block.start for block in layers.row_blocks(*weights))
            piece = max(piece, (rows + 1) * weights[1])
        elif weights:
            piece = max(piece, math.prod(weights) + weights[-1])
    return (kept + work + 3 * count_params(model) + piece) * np.dtype(dtype).itemsize


def _first_stage(model):
    """Count of leading layers that every sub-model can run as one wide
    layer: a first conv and the relus and pools straight after it, which act
    on each channel alone.  0 when the first layer is not a conv."""
    if model.layers[0].kind != "conv2d":
        return 0
    n = 1
    while model.layers[n].kind in ("relu", "maxpool2d"):
        n += 1
    return n


def _widen(step_sets, n_wide):
    """The first n_wide steps of every step list as one: the first conv's
    kernels side by side along Cout, in step-list order."""
    if len(step_sets) == 1:
        return step_sets[0][:n_wide]
    # a conv step is (name, kernel name, (ConvKernelSet, stride[, corners[,
    # add_bias]])), and a pool that adds its bias (None, kernel name, (bias,))
    (name, forward, (_, *options)), *rest = step_sets[0][:n_wide]
    kernels = [steps[0][2][0] for steps in step_sets]
    wide = layers.ConvKernelSet(np.concatenate([k.weights for k in kernels], axis=3),
                                np.concatenate([k.bias for k in kernels]))
    if rest and rest[0][2]:
        rest[0] = (None, rest[0][1], (wide.bias,))
    return [(name, forward, (wide, *options)), *rest]


def _run_forward(model, step_sets, batch):
    """Logits [B, n_classes] of each step list in step_sets.

    The image layers run on spans of the batch (`_span`, as in training)
    and the dense layers on the whole batch: a conv's output rows came out
    the same bytes at every span size tried, a dense layer's did not.  One
    model may run `fits` images at once.  Sub-models run in groups of up to
    `fits`; a group runs its first stage (`_first_stage`) on every model's
    kernels side by side, in chunks of 1/group of a span, so the wide
    arrays stay about one model's size.  The chunks fill one model-major
    array for the span, and each model runs its other image layers once on
    its own channels of it.  A lone model takes the spans and kernel calls
    of a model run alone.
    """
    def run(x, part):
        for _, forward, args in part:
            x = getattr(layers, forward)(x, *args)
        return x

    n_image, fits = _span(model, training=False)
    n_wide = _first_stage(model)
    group = min(len(step_sets), fits) if n_wide else 1
    span = min(len(batch), fits)
    chunk = -(-span // group)
    logits = []
    for g in range(0, len(step_sets), group):
        sets = step_sets[g : g + group]
        first = _widen(sets, n_wide)
        parts = [[] for _ in sets]  # per model, its image-layer output per span
        for lo in range(0, len(batch), span):
            images = batch[lo : lo + span]
            for c in range(0, len(images), chunk):
                y = run(images[c : c + chunk], first)
                y = np.moveaxis(y.reshape(*y.shape[:3], len(sets), -1), 3, 0)
                if c == 0:
                    wide = np.empty((len(sets), len(images), *y.shape[2:]), y.dtype)
                wide[:, c : c + chunk] = y  # model-major: each model's channels contiguous
            for part, steps, x in zip(parts, sets, wide):
                part.append(run(x, steps[n_wide:n_image]))
        for steps, part in zip(sets, parts):
            x = part[0] if len(part) == 1 else np.concatenate(part)
            logits.append(run(x, steps[n_image:]))
    return logits


def backward_batch(model, params, batch, upstream):
    _, bwd = forward_vjp(model, params, batch)
    return bwd(upstream)


def shape_trace(model):
    """Output shapes per summary row (activation layers folded into the
    preceding parameterized layer, as a framework summary prints them)."""
    return [shape for _, shape, _ in summary_rows(model)]


def summary_rows(model):
    """(display name, output shape, param count) per row; relu rows are folded
    into the preceding layer so the table mirrors a framework model summary."""
    return [(name, shape, math.prod(w) + w[-1] if w else 0)
            for name, layer, shape, w in model._rows if layer.kind != "relu"]


def summary(model):
    """Three-column textual model summary: layer, output shape, param count."""
    header = f"{'Layer (type)':<30}{'Output Shape':<22}{'Param #':>10}"
    lines = [header, "=" * len(header)]
    labels = {name: _LAYER_TABLE[layer.kind].label for name, layer, *_ in model._rows}
    for name, shape, count in summary_rows(model):
        shape_s = "(None, " + ", ".join(str(s) for s in shape) + ")"
        lines.append(f"{name + ' (' + labels[name] + ')':<30}{shape_s:<22}{count:>10}")
    lines.append("=" * len(header))
    lines.append(f"Total params: {count_params(model):,}")
    return "\n".join(lines)
