"""Dense n-d array kernels: forward and backward passes for every layer type.

All image tensors are channels-last, row-major: [H, W, C] for a single sample
or [B, H, W, C] for a batch.  Every op accepts either form and returns the
matching one.  Convolution is valid (unpadded) sliding-window
cross-correlation; pooling is 2x2/stride-2 max with floor semantics.

Each `*_vjp` function returns `(output, backward)` where `backward` maps an
upstream gradient of the output's shape to gradients of the inputs, summed
over the batch for parameter gradients.  The conv backward takes
`input_grad=False` to skip the input gradient, which a network's first layer
never needs.  The conv, pool and relu backward closures keep masks, indices
and shapes rather than forward activations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError


@dataclass(frozen=True)
class ConvKernelSet:
    """Convolution weights [k_h, k_w, in_channels, out_channels] plus bias [out_channels]."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise DimensionError(
                f"conv weights must be 4-d [kh, kw, cin, cout], got shape {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[3],):
            raise DimensionError(
                f"conv bias shape {self.bias.shape} does not match out_channels axis "
                f"{self.weights.shape[3]}"
            )


def _as_batch(x, name):
    """Promote [H,W,C] to [1,H,W,C]; return (batched, was_single)."""
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise DimensionError(f"{name} must be 3-d [H,W,C] or 4-d [B,H,W,C], got {x.ndim}-d")


def _patches(x, kh, kw, stride):
    """Sliding windows of x [B,H,W,C] -> [B,H',W',kh,kw,C]."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    # sliding_window_view yields [B, H-kh+1, W-kw+1, C, kh, kw]
    win = win[:, ::stride, ::stride]
    return np.moveaxis(win, 3, 5)  # -> [B, H', W', kh, kw, C]


def _check_conv_shapes(xb, w, kh, kw):
    if xb.shape[3] != w.shape[2]:
        raise DimensionError(
            f"channel axis mismatch: input has {xb.shape[3]} channels, kernels expect {w.shape[2]}"
        )
    if xb.shape[1] < kh or xb.shape[2] < kw:
        axis = "height" if xb.shape[1] < kh else "width"
        raise DimensionError(
            f"{axis} axis smaller than kernel: input {xb.shape[1:3]}, kernel {(kh, kw)}"
        )


def _conv_core(xb, w, b, stride):
    """im2col forward: returns (out [B,H',W',Cout], col [B*H'*W', kh*kw*Cin])."""
    kh, kw, cin, cout = w.shape
    pat = _patches(xb, kh, kw, stride)
    bsz, hp, wp = pat.shape[:3]
    col = np.ascontiguousarray(pat).reshape(bsz * hp * wp, kh * kw * cin)
    out = col @ w.reshape(kh * kw * cin, cout)
    out += b
    return out.reshape(bsz, hp, wp, cout).astype(xb.dtype, copy=False), col


def conv2d_forward(x, kernels: ConvKernelSet, stride=1):
    """Valid cross-correlation of x [(B,)H,W,Cin] with kernels -> [(B,)H',W',Cout]."""
    xb, single = _as_batch(x, "conv input")
    w, b = kernels.weights, kernels.bias
    _check_conv_shapes(xb, w, w.shape[0], w.shape[1])
    out, _ = _conv_core(xb, w, b, stride)
    return out[0] if single else out


def conv2d_vjp(x, kernels: ConvKernelSet, stride=1):
    """Forward pass plus backward(upstream, input_grad=True) -> (dInput, dWeights, dBias).

    input_grad=False skips dInput, the costliest part of the backward pass,
    and returns None in its place.
    """
    xb, single = _as_batch(x, "conv input")
    w, b = kernels.weights, kernels.bias
    kh, kw, cin, cout = w.shape
    _check_conv_shapes(xb, w, kh, kw)
    out, col = _conv_core(xb, w, b, stride)
    in_shape, in_dtype, out_shape = xb.shape, xb.dtype, out.shape

    def backward(upstream, input_grad=True):
        up, _ = _as_batch(upstream, "conv upstream")
        if up.shape != out_shape:
            raise DimensionError(
                f"upstream shape {up.shape} does not match forward output {out_shape}"
            )
        bsz, hp, wp, _ = up.shape
        up_flat = up.reshape(bsz * hp * wp, cout)
        dw = (col.T @ up_flat).reshape(w.shape).astype(w.dtype, copy=False)
        db = up_flat.sum(axis=0).astype(w.dtype, copy=False)
        if not input_grad:
            return None, dw, db
        # scatter dcol back onto the overlapping input windows
        dcol = (up_flat @ w.reshape(kh * kw * cin, cout).T).reshape(bsz, hp, wp, kh, kw, cin)
        dx = np.zeros(in_shape, dtype=in_dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, i : i + hp * stride : stride, j : j + wp * stride : stride, :] += dcol[
                    :, :, :, i, j, :
                ]
        return (dx[0], dw, db) if single else (dx, dw, db)

    return (out[0] if single else out), backward


# the corners of a 2x2 window in row-major order; a tie goes to the first
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_corners(x):
    """The four window corners of x as stride-2 views [B,H2,W2,C], row-major order."""
    xb, single = _as_batch(x, "pool input")
    h, w = xb.shape[1:3]
    if h < 2 or w < 2:
        axis = "height" if h < 2 else "width"
        raise DimensionError(f"pool window 2x2 larger than input on {axis} axis ({h}x{w})")
    h2, w2 = h // 2, w // 2
    corners = [xb[:, i : 2 * h2 : 2, j : 2 * w2 : 2] for i, j in _CORNERS]
    return corners, xb.shape, single


def maxpool2d_forward(x):
    """2x2/stride-2 max pooling; odd trailing rows/cols dropped."""
    (a, b, c, d), _, single = _pool_corners(x)
    # np.maximum returns its second argument on a tie (which only shows for
    # -0.0 against +0.0), so the earlier corner goes second throughout
    out = np.maximum(b, a)
    np.maximum(np.maximum(d, c), out, out=out)
    return out[0] if single else out


def maxpool2d_vjp(x):
    """Forward pass plus backward(upstream) -> dInput, routed to the first
    maximum of each window in row-major order."""
    (a, b, c, d), in_shape, single = _pool_corners(x)
    top, bottom = np.maximum(b, a), np.maximum(d, c)
    # corner index (row << 1) | col of the first maximum, kept as uint8; strict
    # comparisons keep ties in the top row and the left column
    row = np.greater(bottom, top)
    # col = where(row, d > c, b > a) as bit operations: np.where on booleans
    # is about 3x slower, 5% of a paper-net training pass (2 vCPU)
    left = np.greater(b, a)
    col = left ^ (row & (np.greater(d, c) ^ left))
    idx = row.view(np.uint8) << 1
    idx |= col.view(np.uint8)
    out = np.maximum(bottom, top, out=top)
    h2, w2 = idx.shape[1:3]

    def backward(upstream):
        up, _ = _as_batch(upstream, "pool upstream")
        if up.shape != idx.shape:
            raise DimensionError(
                f"upstream shape {up.shape} does not match pooled output {idx.shape}"
            )
        dx = np.empty(in_shape, dtype=up.dtype)
        dx[:, 2 * h2 :] = 0
        dx[:, :, 2 * w2 :] = 0
        for k, (i, j) in enumerate(_CORNERS):
            # a multiply, so a negative upstream leaves -0.0 off the maximum
            np.multiply(up, idx == k, out=dx[:, i : 2 * h2 : 2, j : 2 * w2 : 2])
        return dx[0] if single else dx

    return (out[0] if single else out), backward


def relu(x):
    return np.maximum(x, 0)


def relu_vjp(x):
    out = np.maximum(x, 0)
    mask = x > 0  # subgradient 0 at x == 0

    def backward(upstream):
        if upstream.shape != mask.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match input {mask.shape}"
            )
        # a multiply, so a negative upstream gives -0.0 where x <= 0
        return upstream * mask

    return out, backward


def dense_forward(x, weights, bias):
    """x [(B,)n] @ weights [n,m] + bias [m]."""
    if x.shape[-1] != weights.shape[0]:
        raise DimensionError(
            f"inner axis mismatch: input {x.shape[-1]} vs weights {weights.shape[0]}"
        )
    if bias.shape != (weights.shape[1],):
        raise DimensionError(f"bias shape {bias.shape} does not match units {weights.shape[1]}")
    return x @ weights + bias


def dense_vjp(x, weights, bias):
    """Forward pass plus backward(upstream) -> (dInput, dWeights, dBias)."""
    out = dense_forward(x, weights, bias)

    def backward(upstream):
        if upstream.shape != out.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match output {out.shape}"
            )
        dx = upstream @ weights.T
        if x.ndim == 1:
            return dx, np.outer(x, upstream), upstream.copy()
        return dx, x.T @ upstream, upstream.sum(axis=0)

    return out, backward


def flatten(x):
    """Row-major linearization of the trailing [H,W,C] axes."""
    if x.ndim == 3:
        return x.reshape(-1)
    if x.ndim == 4:
        return x.reshape(x.shape[0], -1)
    raise DimensionError(f"flatten expects 3-d or 4-d input, got {x.ndim}-d")


def flatten_vjp(x):
    out = flatten(x)

    def backward(upstream):
        if upstream.shape != out.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match flattened {out.shape}"
            )
        return upstream.reshape(x.shape)

    return out, backward


def softmax(logits):
    """Max-shifted softmax over the last axis; rows sum to 1."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax input contains non-finite values")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
