"""Model specs: composing layer kernels into a full CNN classifier.

A ModelSpec is an ordered list of LayerSpecs validated for shape
compatibility at build time.  Parameters live outside the spec in a flat
dict mapping "layername/w" / "layername/b" to arrays, so the optimizer can
treat them uniformly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BuildError, DimensionError, InputError
from . import layers

LAYER_KINDS = ("conv2d", "maxpool2d", "relu", "flatten", "dense")


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

    def __post_init__(self):
        shapes = infer_shapes(self)
        if shapes[-1] != (self.n_classes,):
            raise BuildError(
                f"final layer produces {shapes[-1]}, expected ({self.n_classes},)"
            )


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
    """Per-layer output shapes (excluding the batch axis), validated."""
    shapes = []
    cur = tuple(model.input_shape)
    if len(cur) != 3 or min(cur) < 1:
        raise BuildError(f"input shape must be positive [H,W,C], got {cur}")
    for li, layer in enumerate(model.layers):
        name = f"layer {li} ({layer.kind})"
        if layer.kind == "conv2d":
            if len(cur) != 3:
                raise BuildError(f"{name}: expects [H,W,C] input, got {cur}")
            h, w, _ = cur
            kh, kw = layer.kernel
            oh = (h - kh) // layer.stride + 1
            ow = (w - kw) // layer.stride + 1
            if h < kh or w < kw or oh < 1 or ow < 1:
                raise BuildError(f"{name}: kernel {layer.kernel} does not fit input {h}x{w}")
            cur = (oh, ow, layer.out_channels)
        elif layer.kind == "maxpool2d":
            if len(cur) != 3:
                raise BuildError(f"{name}: expects [H,W,C] input, got {cur}")
            h, w, c = cur
            if h < 2 or w < 2:
                raise BuildError(f"{name}: 2x2 window does not fit input {h}x{w}")
            cur = (h // 2, w // 2, c)
        elif layer.kind == "relu":
            pass
        elif layer.kind == "flatten":
            cur = (int(np.prod(cur)),)
        elif layer.kind == "dense":
            if len(cur) != 1:
                raise BuildError(f"{name}: expects flat input, got {cur}")
            cur = (layer.units,)
        shapes.append(cur)
    return shapes


def layer_names(model):
    """Keras-style running names: conv2d, conv2d_1, ..., dense, dense_1, ..."""
    base = {"conv2d": "conv2d", "maxpool2d": "max_pooling2d", "relu": "relu",
            "flatten": "flatten", "dense": "dense"}
    counts = {}
    names = []
    for layer in model.layers:
        b = base[layer.kind]
        n = counts.get(b, 0)
        counts[b] = n + 1
        names.append(b if n == 0 else f"{b}_{n}")
    return names


def build_paper_cnn(n_classes=10):
    """The reference architecture: 224x224x3 in, four conv/pool blocks
    (32, 64, 128, 128 filters of 3x3), dense 512, dense n_classes.
    Total parameter count for n_classes=10 is 9,683,658."""
    if n_classes < 2:
        raise InputError("n_classes must be >= 2")
    return ModelSpec(
        input_shape=(224, 224, 3),
        layers=(
            conv(3, 3, 32), relu(), pool(),
            conv(3, 3, 64), relu(), pool(),
            conv(3, 3, 128), relu(), pool(),
            conv(3, 3, 128), relu(), pool(),
            flat(),
            dense(512), relu(),
            dense(n_classes),
        ),
        n_classes=n_classes,
    )


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
    return ModelSpec(input_shape=tuple(input_shape), layers=tuple(seq), n_classes=n_classes)


def _param_shapes(model):
    """name -> (w_shape, b_shape) for every parameterized layer."""
    out = {}
    cur = tuple(model.input_shape)
    shapes = infer_shapes(model)
    names = layer_names(model)
    for layer, name, shape in zip(model.layers, names, shapes):
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            out[name] = ((kh, kw, cur[2], layer.out_channels), (layer.out_channels,))
        elif layer.kind == "dense":
            out[name] = ((cur[0], layer.units), (layer.units,))
        cur = shape
    return out


def count_params(model):
    total = 0
    for wsh, bsh in _param_shapes(model).values():
        total += int(np.prod(wsh)) + int(np.prod(bsh))
    return total


def init_params(model, seed, dtype=np.float32):
    """Uniform(+-sqrt(6/fan_in)) weights, zero biases, deterministic per seed.

    The final classifier layer starts at zero so initial class probabilities
    are exactly uniform (loss ln C) regardless of the activation scale the
    stack produces.
    """
    rng = np.random.default_rng(seed)
    params = {}
    names = list(_param_shapes(model).items())
    for i, (name, (wsh, bsh)) in enumerate(names):
        if i == len(names) - 1:
            params[f"{name}/w"] = np.zeros(wsh, dtype=dtype)
        else:
            fan_in = int(np.prod(wsh[:-1]))
            limit = np.sqrt(6.0 / fan_in)
            params[f"{name}/w"] = rng.uniform(-limit, limit, size=wsh).astype(dtype)
        params[f"{name}/b"] = np.zeros(bsh, dtype=dtype)
    return params


def forward_batch(model, params, batch):
    """Logits [B, n_classes] for batch [B,H,W,C]."""
    return _forward(model, params, batch, want_vjp=False)


def forward_vjp(model, params, batch):
    """(logits, backward) where backward(upstream [B,n_classes]) -> grad dict
    with the same keys as params, summed over the batch."""
    return _forward(model, params, batch, want_vjp=True)


# kind -> (forward, vjp, extra arguments from (layer, weights, bias) or None for
# a layer without parameters).  The kernels are named, not bound, and looked up
# on `layers` at call time, so a wrapper installed on the module is called.
_LAYER_TABLE = {
    "conv2d": ("conv2d_forward", "conv2d_vjp",
               lambda layer, w, b: (layers.ConvKernelSet(w, b), layer.stride)),
    "maxpool2d": ("maxpool2d_forward", "maxpool2d_vjp", None),
    "relu": ("relu", "relu_vjp", None),
    "flatten": ("flatten", "flatten_vjp", None),
    "dense": ("dense_forward", "dense_vjp", lambda layer, w, b: (w, b)),
}


# Bytes one image layer may allocate for a chunk of a forward-only batch.  A
# batch whose largest per-layer array (an im2col matrix included) would pass
# this runs its image layers a few samples at a time.  The allocator serves
# arrays above 32 MB from fresh pages that the kernel zeroes on every call;
# chunks below that reuse the previous chunk's heap memory.  The dense layers
# still see the whole batch.
_CHUNK_BYTES = 16 << 20


def _image_layers(model, itemsize):
    """(count of leading layers with [H,W,C] output, bytes per sample of the
    largest array one of them makes, im2col matrices included)."""
    count, largest = 0, 1
    cur = model.input_shape
    for layer, shape in zip(model.layers, infer_shapes(model)):
        if len(shape) != 3:
            break
        size = int(np.prod(shape))
        if layer.kind == "conv2d":
            size = max(size, shape[0] * shape[1] * int(np.prod(layer.kernel)) * cur[2])
        largest = max(largest, size)
        count, cur = count + 1, shape
    return count, largest * itemsize


def _forward(model, params, batch, want_vjp):
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(model.input_shape):
        raise DimensionError(
            f"batch shape {batch.shape} does not match model input {model.input_shape}"
        )
    steps = []  # (parameter name prefix or None, kernel name, arguments)
    for layer, name in zip(model.layers, layer_names(model)):
        forward, vjp, param_args = _LAYER_TABLE[layer.kind]
        args = param_args(layer, params[f"{name}/w"], params[f"{name}/b"]) if param_args else ()
        steps.append((name if param_args else None, vjp if want_vjp else forward, args))
    if not want_vjp:
        return _run_forward(model, steps, batch)
    x = batch
    tape = []  # (parameter name prefix or None, backward)
    for name, vjp, args in steps:
        x, bwd = getattr(layers, vjp)(x, *args)
        tape.append((name, bwd))
    logits = x

    def backward(upstream):
        if upstream.shape != logits.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match logits {logits.shape}"
            )
        grads = {}
        g = upstream
        for i in range(len(tape) - 1, -1, -1):
            name, bwd = tape[i]
            first = i == 0  # the gradient of the batch itself is never used
            if name:
                # a first layer with parameters is a conv: dense needs flat input
                result = bwd(g, input_grad=False) if first else bwd(g)
                g, grads[f"{name}/w"], grads[f"{name}/b"] = result
            elif not first:
                g = bwd(g)
        return grads

    return logits, backward


def _run_forward(model, steps, batch):
    def run(x, part):
        for _, forward, args in part:
            x = getattr(layers, forward)(x, *args)
        return x

    n_image, sample_bytes = _image_layers(model, batch.dtype.itemsize)
    chunk = max(1, _CHUNK_BYTES // sample_bytes)
    if chunk >= len(batch):
        return run(batch, steps)
    x = np.concatenate([run(batch[lo : lo + chunk], steps[:n_image])
                        for lo in range(0, len(batch), chunk)])
    return run(x, steps[n_image:])


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
    names = layer_names(model)
    shapes = infer_shapes(model)
    pshapes = _param_shapes(model)
    rows = []
    for layer, name, shape in zip(model.layers, names, shapes):
        if layer.kind == "relu":
            continue
        if name in pshapes:
            wsh, bsh = pshapes[name]
            count = int(np.prod(wsh)) + int(np.prod(bsh))
        else:
            count = 0
        rows.append((name, shape, count))
    return rows


_KIND_LABEL = {"conv2d": "Conv2D", "max_pooling2d": "MaxPooling2D",
               "flatten": "Flatten", "dense": "Dense"}


def summary(model):
    """Three-column textual model summary: layer, output shape, param count."""
    lines = []
    header = f"{'Layer (type)':<30}{'Output Shape':<22}{'Param #':>10}"
    lines.append(header)
    lines.append("=" * len(header))
    for name, shape, count in summary_rows(model):
        base = name.rsplit("_", 1)[0] if name[-1].isdigit() else name
        label = _KIND_LABEL.get(base, base)
        shape_s = "(None, " + ", ".join(str(s) for s in shape) + ")"
        lines.append(f"{name + ' (' + label + ')':<30}{shape_s:<22}{count:>10}")
    lines.append("=" * len(header))
    lines.append(f"Total params: {count_params(model):,}")
    return "\n".join(lines)
