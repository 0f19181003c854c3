"""Dense n-d array kernels: forward and backward passes for every layer type.

Every kernel takes a batch: images channels-last and row-major as
[B, H, W, C], dense inputs as [B, n].  An input of any other rank raises
DimensionError naming it; a lone sample is a batch of one, `x[None]`.
Convolution is valid (unpadded) sliding-window cross-correlation; pooling is
2x2/stride-2 max with floor semantics.  `relu` and `softmax` are elementwise
and last-axis, so they take any shape.

Each `*_vjp` function returns `(output, backward)` where `backward` maps an
upstream gradient of the output's shape to gradients of the inputs, summed
over the batch for parameter gradients.  The conv backward takes
`input_grad=False` to skip the input gradient, which a network's first layer
never needs.  The conv, pool and relu backward closures keep masks, indices
and shapes rather than forward activations.

At Cin 1 the row-major im2col matrix is filled one kernel offset at a time,
and a pool vjp on at most _GATHER_MAX_C channels works on a contiguous copy of
its window corners.  Both are chosen by channel count and change no
arithmetic; `_im2col` and `_GATHER_MAX_C` give the measurements behind each
cutoff.

The conv input gradient is scattered channel-first: `W @ upstream.T` gives
one contiguous [Cin, B, H', W'] plane per kernel offset, added into a
[Cin, B, H, W] buffer that one copy turns channels-last.  A channels-last
scatter moves Cin floats per run.  Each plane goes onto the stride grid of a
zero-bordered buffer and into one contiguous add (`_scatter_contiguous`),
the same sums in the same order as a strided add.  The bias
gradient is an einsum row sum, which adds in the same order as
`sum(axis=0)` but faster.  In float32 both give the bytes of the row-major
backward (8832 shapes swept).  In float64 the input gradient can round
differently, by at most 1e-13 of its largest element (4.6e-16 seen).

`relu` is monotone and never returns -0.0, so a relu then a max pool gives
the bytes of the pool then the relu, backward included; a network runs
the pair in the second order, its relu on a quarter of the elements.

A forward-only conv that feeds a pool can build its im2col rows in 2x2
window-corner order and return [2, 2, B, H'//2, W'//2, Cout], which
`maxpool2d_forward` reads as four contiguous slabs; the rows the pool's
floor drops are never built.  Only the GEMM's row order changes, and each
row came out the bytes of the plain order's.
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


def _check_batch(x, name, ndim=4):
    if x.ndim != ndim:
        raise DimensionError(f"{name} must be a {ndim}-d batch, got shape {x.shape}")


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


# A forward-only conv whose input has at most this many channels builds its
# im2col matrix planar.  A row-major copy moves Cin floats per run, so for a
# narrow input it is mostly per-run overhead; the planar copy runs along
# image rows.  Measured per conv, GEMM included (2 vCPU, OpenBLAS 0.3.31): at
# Cin 1 to 3 the planar layout took 0.3-0.9x the time of the row-major one, at
# Cin 8 1.2-1.3x and at Cin 16 1.3-2.2x.  Cin 4 was still faster, but there the
# planar GEMM rounded differently from the row-major one in float32.  With
# the planes copied from one window view, in either row order, Cin 1 to 3
# took 0.45-1.0x at desk and paper conv1 shapes, with two runs of 1.3x.
_PLANAR_MAX_CIN = 3


def _windows(xb, kh, kw, stride, corners):
    """Sliding windows of x [B,H,W,C] as a read-only view [*rows, kh, kw, C].
    The rows are the output positions [B, H', W'], or with corners those a
    2x2 pool reads, in window-corner order [2, 2, B, H'//2, W'//2]: row
    (r, c, b, y, x) is output position (2y + r, 2x + c) of image b."""
    bsz, h, w, cin = xb.shape
    hp, wp = (h - kh) // stride + 1, (w - kw) // stride + 1
    sb, sh, sw, sc = xb.strides
    rows, steps = (bsz, hp, wp), (sb, sh * stride, sw * stride)
    if corners:
        rows = (2, 2, bsz, hp // 2, wp // 2)
        steps = (sh * stride, sw * stride, sb, 2 * sh * stride, 2 * sw * stride)
    # the last window starts at row (H'-1)*stride <= H-kh, so every read is in x
    return np.lib.stride_tricks.as_strided(xb, (*rows, kh, kw, cin), (*steps, sh, sw, sc),
                                           writeable=False)


def _im2col(xb, kh, kw, stride, corners=False):
    """Row-major im2col matrix [rows, kh*kw*Cin] of x [B,H,W,C]; returns
    (matrix, row shape), the rows as `_windows` orders them.

    At Cin 1 a window copy moves kw floats per run, so the matrix is filled
    one kernel offset at a time instead, each offset one strided image copy.
    Measured per build (float32, 2 vCPU): 0.35-0.56x the time of the window
    copy at Cin 1, but 2.4-3.3x at Cin 2, 3 and 8, so wider inputs keep it.
    """
    win = _windows(xb, kh, kw, stride, corners)
    if xb.shape[3] == 1:
        col = np.empty(win.shape[:-1], dtype=xb.dtype)
        for i in range(kh):
            for j in range(kw):
                col[..., i, j] = win[..., i, j, 0]
    else:
        col = np.ascontiguousarray(win)
    return col.reshape(-1, kh * kw * xb.shape[3]), win.shape[:-3]


def _im2col_planar(xb, kh, kw, stride, corners=False):
    """The same matrix as _im2col, copied from the window view as planes
    [kh, kw, Cin, rows] and returned as the transposed view of their
    [kh*kw*Cin, rows] reshape."""
    win = _windows(xb, kh, kw, stride, corners)
    planes = np.ascontiguousarray(np.moveaxis(win, (-3, -2, -1), (0, 1, 2)))
    return planes.reshape(kh * kw * xb.shape[3], -1).T, win.shape[:-3]


def _conv_core(xb, w, b, stride, im2col, corners=False):
    """im2col forward: returns (out [*rows, Cout], col [rows, kh*kw*Cin])."""
    kh, kw, cin, cout = w.shape
    col, rows = im2col(xb, kh, kw, stride, corners)
    out = col @ w.reshape(kh * kw * cin, cout)
    # the adds of `out += b`, run along rows of W'*Cout values rather than Cout
    lines = out.reshape(-1, rows[-1] * cout)
    lines += np.tile(b, rows[-1])
    return out.reshape(*rows, cout).astype(xb.dtype, copy=False), col


def conv2d_forward(x, kernels: ConvKernelSet, stride=1, corners=False):
    """Valid cross-correlation of x [B,H,W,Cin] with kernels -> [B,H',W',Cout].

    With corners the output comes in the order a 2x2 max pool reads it,
    [2, 2, B, H'//2, W'//2, Cout]: corner (r, c) of pool window (y, x) is
    output position (2y + r, 2x + c), and an odd last output row or column,
    which the pool drops, is never computed.  Each row is the bytes of the
    plain order's.  A narrow input (Cin <= _PLANAR_MAX_CIN) takes the planar
    im2col matrix.
    """
    _check_batch(x, "conv input")
    w, b = kernels.weights, kernels.bias
    _check_conv_shapes(x, w, w.shape[0], w.shape[1])
    if corners:
        _check_pool_window((x.shape[1] - w.shape[0]) // stride + 1,
                           (x.shape[2] - w.shape[1]) // stride + 1)
    im2col = _im2col_planar if w.shape[2] <= _PLANAR_MAX_CIN else _im2col
    return _conv_core(x, w, b, stride, im2col, corners)[0]


def _bias_grad(up_flat):
    """up_flat [N, Cout] summed over its rows, as up_flat.sum(axis=0) sums them.

    Over a non-contiguous axis, sum adds the rows in sequence, and so does
    einsum, in 0.25-0.76x the time for Cout 8 to 128 (float32, 2 vCPU); the
    bytes matched in all 1988 cases tried at Cout 2 to 512, both dtypes.  At
    Cout 1 the axis is contiguous and sum adds pairwise, which einsum does
    not, so that case keeps sum.
    """
    if up_flat.shape[1] == 1:
        return up_flat.sum(axis=0)
    return np.einsum("ij->j", up_flat)


def _scatter_contiguous(dxc, dcol, stride):
    """dxc [Cin, B, H, W] += each plane dcol[i, j] [Cin, B, H', W'] on the
    stride grid at offset (i, j), in (i, j) order, each as one contiguous add.

    A plane is copied onto the stride grid of a zero buffer shaped like dxc,
    and the flat buffer adds into flat dxc at offset i*W + j.  The zeros
    change nothing: dxc starts at +0.0 and a sum is -0.0 only when both terms
    are.  A strided add of the plane took about 7x as long (numpy 2.4.6).
    """
    kh, kw, _, _, hp, wp = dcol.shape
    width = dxc.shape[3]
    flat = dxc.reshape(-1)
    buf = np.zeros_like(dxc)
    buf_flat = buf.reshape(-1)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, : hp * stride : stride, : wp * stride : stride] = dcol[i, j]
            offset = i * width + j
            flat[offset:] += buf_flat[: flat.size - offset]


def conv2d_vjp(x, kernels: ConvKernelSet, stride=1):
    """Forward pass plus backward(upstream, input_grad=True) -> (dInput, dWeights, dBias).

    input_grad=False skips dInput, the costliest part of the backward pass,
    and returns None in its place.
    """
    _check_batch(x, "conv input")
    w, b = kernels.weights, kernels.bias
    kh, kw, cin, cout = w.shape
    _check_conv_shapes(x, w, kh, kw)
    # row-major always: the dW GEMM on the planar matrix rounds differently
    out, col = _conv_core(x, w, b, stride, _im2col)
    in_shape, in_dtype, out_shape = x.shape, x.dtype, out.shape

    def backward(upstream, input_grad=True):
        if upstream.shape != out_shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match forward output {out_shape}"
            )
        bsz, hp, wp, _ = out_shape
        up_flat = upstream.reshape(bsz * hp * wp, cout)
        dw = (col.T @ up_flat).reshape(w.shape).astype(w.dtype, copy=False)
        db = _bias_grad(up_flat).astype(w.dtype, copy=False)
        if not input_grad:
            return None, dw, db
        # dcol transposed: one contiguous [Cin, B, H', W'] plane per kernel
        # offset, scattered back onto the overlapping windows of a
        # channel-first dx in the same (i, j) order as the row-major scatter
        dcol = (w.reshape(kh * kw * cin, cout) @ up_flat.T).reshape(kh, kw, cin, bsz, hp, wp)
        dxc = np.zeros((cin, *in_shape[:3]), dtype=in_dtype)
        _scatter_contiguous(dxc, dcol, stride)
        del dcol  # so the peak is dcol + dx, not dcol + dxc + dx
        return np.ascontiguousarray(np.moveaxis(dxc, 0, 3)), dw, db

    return out, backward


# the corners of a 2x2 window in row-major order; a tie goes to the first
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


# The pool vjp of an input with at most this many channels copies the window
# corners into one contiguous [2, 2, B, H2, W2, C] array first.  On stride-2
# views of a narrow input numpy's loops run C values at a time; on the copy
# they run whole planes.  Measured per vjp (float32, 2 vCPU), gathered over
# strided: 0.69-0.81x at C 8 and 16, 0.81-0.98x at C 32 on images up to 30x30,
# but 1.12-1.34x on each of the paper net's pools (C 32 to 128).  The pool
# forward took 1.1-1.26x as long gathered at the desk net's C 8 and 16.
_GATHER_MAX_C = 16


def _check_pool_window(h, w):
    if h < 2 or w < 2:
        axis = "height" if h < 2 else "width"
        raise DimensionError(f"pool window 2x2 larger than input on {axis} axis ({h}x{w})")


def _pool_corners(x, gather_max_c=0):
    """The four window corners of x [B,H,W,C] in row-major order: stride-2
    views, or slices of one contiguous copy when C <= gather_max_c."""
    _check_batch(x, "pool input")
    bsz, h, w, c = x.shape
    _check_pool_window(h, w)
    h2, w2 = h // 2, w // 2
    if c <= gather_max_c:
        win = x[:, : 2 * h2, : 2 * w2].reshape(bsz, h2, 2, w2, 2, c)
        g = np.empty((2, 2, bsz, h2, w2, c), dtype=x.dtype)
        np.copyto(g, win.transpose(2, 4, 0, 1, 3, 5))
        return [g[i, j] for i, j in _CORNERS]
    return [x[:, i : 2 * h2 : 2, j : 2 * w2 : 2] for i, j in _CORNERS]


def maxpool2d_forward(x):
    """2x2/stride-2 max pooling of x [B,H,W,C]; odd trailing rows/cols
    dropped.  Also takes a conv's corner-order output [2, 2, B, H2, W2, C]
    (`conv2d_forward` with corners), whose corners are contiguous slabs."""
    if x.ndim == 6 and x.shape[:2] == (2, 2):
        (a, b), (c, d) = x
    else:
        a, b, c, d = _pool_corners(x)
    # np.maximum returns its second argument on a tie (which only shows for
    # -0.0 against +0.0), so the earlier corner goes second throughout
    out = np.maximum(b, a)
    np.maximum(np.maximum(d, c), out, out=out)
    return out


def maxpool2d_vjp(x):
    """Forward pass plus backward(upstream) -> dInput, routed to the first
    maximum of each window in row-major order."""
    a, b, c, d = _pool_corners(x, _GATHER_MAX_C)
    in_shape = x.shape
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
        if upstream.shape != idx.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match pooled output {idx.shape}"
            )
        dx = np.empty(in_shape, dtype=upstream.dtype)
        dx[:, 2 * h2 :] = 0
        dx[:, :, 2 * w2 :] = 0
        for k, (i, j) in enumerate(_CORNERS):
            # a multiply, so a negative upstream leaves -0.0 off the maximum
            np.multiply(upstream, idx == k, out=dx[:, i : 2 * h2 : 2, j : 2 * w2 : 2])
        return dx

    return out, backward


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
    """x [B,n] @ weights [n,m] + bias [m] -> [B,m]."""
    _check_batch(x, "dense input", 2)
    if x.shape[1] != weights.shape[0]:
        raise DimensionError(
            f"inner axis mismatch: input {x.shape[1]} vs weights {weights.shape[0]}"
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
        return upstream @ weights.T, x.T @ upstream, upstream.sum(axis=0)

    return out, backward


def flatten(x):
    """Row-major linearization of x [B,H,W,C] -> [B, H*W*C]."""
    _check_batch(x, "flatten input")
    return x.reshape(x.shape[0], -1)


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
