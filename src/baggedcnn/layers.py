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
never needs.  A conv keeps its im2col matrix only until the weight gradient,
so the input gradient's arrays never sit beside it, and its backward runs
once.  With keep_input it keeps its input instead and rebuilds the matrix
in the backward.  A network sets that switch on every conv of a training
batch that it runs on spans of whole images, which it does when the batch
would build an array larger than STREAM_VALUES (`network.forward_vjp`);
`conv_image_values` gives a conv's per-image sizes it compares.  The pool
and relu backward closures keep masks and indices rather than forward
activations.

A conv that feeds a pool builds its im2col rows in 2x2 window-corner order
and returns [2, 2, B, H'//2, W'//2, Cout], which the pool reads as four
contiguous slabs and returns its gradient in; the rows the pool's floor
drops are never built.  Both conv kernels build the im2col matrix planar at
Cin <= _PLANAR_MAX_CIN and row-major above it.

The conv input gradient is built channel-first, one contiguous plane per
kernel offset added onto a channel-first buffer in (i, j) order, then made
channels-last by one copy; in corner order each add is contiguous
(`_corner_input_grad`).  The bias gradient is an einsum row sum in the
order of `sum(axis=0)`.  In float32 the input gradient is the bytes of the
row-major backward at the desk and paper conv shapes; in float64 it can
round differently, by at most 1e-13 of its largest element.

`relu` is monotone and never returns -0.0, so a relu then a max pool gives
the bytes of the pool then the relu, backward included; a network runs
the pair in the second order, its relu on a quarter of the elements.

A max pool also commutes with adding one finite value per channel:
rounding a + b never decreases as a grows, even where it overflows to
+-inf, NaN propagates either way, and -0.0 only comes from -0.0 + -0.0.
So a forward-only pass runs a conv that feeds a pool without its bias
(`add_bias=False`) and the pool adds it to each window's maximum, a
quarter of the adds, with the same bytes.  Training keeps the add in the
conv: corners that tie only once the bias is added would move the pool's
first-maximum index, and with it the gradient.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DimensionError, InputError, NumericError


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


# A conv whose input has at most this many channels builds its im2col
# matrix planar: a row-major copy moves Cin floats per run, mostly per-run
# overhead for a narrow input, while the planar copy runs along image rows.
# Per conv, GEMM included (2 vCPU, OpenBLAS 0.3.31), planar took 0.3-1.0x
# the row-major time at Cin 1 to 3 but 1.2-2.2x at Cin 8 and 16; Cin 4 was
# faster but rounded differently in float32.  A corner-order training step
# (conv and pool vjps and backwards) took 0.55-0.65x at desk conv1, 0.9x at
# paper conv1 and 1.2x at desk conv2.
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


def _matrix(win, planar):
    """The im2col matrix [rows, kh*kw*Cin] of a window view [*rows, kh, kw,
    Cin]: planar, the transposed view of planes [kh*kw*Cin, rows] copied
    from it, or row-major, one window copy."""
    k = math.prod(win.shape[-3:])
    if planar:
        return np.ascontiguousarray(np.moveaxis(win, (-3, -2, -1), (0, 1, 2))).reshape(k, -1).T
    return np.ascontiguousarray(win).reshape(-1, k)


# Values the largest array of one image layer may hold before a network
# runs its image layers on spans of whole images (`network._span`), in
# training and in prediction alike; a training conv then keeps its input
# and rebuilds its im2col matrix in the backward.  Part of the numerics, as
# network.PREDICT_BATCH is: a conv's weight and bias gradients sum the
# spans one at a time, so another size rounds them differently.  At 1 << 20
# (4 MB in float32) a desk step at batch 32 and a 64-image desk request
# run whole, and the paper net runs one image a span in both passes.
STREAM_VALUES = 1 << 20


def _plane_rows(w_shape, h2, w2, stride):
    """(hq, wq): the rows and columns of each phase plane that
    `_corner_input_grad` builds for kernels of w_shape and h2 x w2 pool rows,
    the pool rows and a zero border."""
    per = 2 * stride
    return h2 + (stride + w_shape[0] - 1) // per, w2 + (stride + w_shape[1] - 1) // per


def conv_image_values(image_shape, w_shape, stride, corners, input_grad):
    """(matrix, output, planes): the values per image of the largest arrays
    a training conv on images of image_shape [H,W,Cin] builds: its im2col
    matrix and its output, with corners only the rows a pool reads, and its
    corner-order input gradient's planes, 0 without corners or input_grad
    (the plain order's per-offset planes are the matrix's size)."""
    h, w, _ = image_shape
    kh, kw, cin, cout = w_shape
    hp, wp = (h - kh) // stride + 1, (w - kw) // stride + 1
    rows = 4 * (hp // 2) * (wp // 2) if corners else hp * wp
    planes = 0
    if corners and input_grad:
        planes = 4 * kh * kw * cin * math.prod(_plane_rows(w_shape, hp // 2, wp // 2, stride))
    return rows * kh * kw * cin, rows * cout, planes


def _add_bias(out, bias):
    """out [..., W, C] += bias [C] for a contiguous out, the adds run along
    rows of W*C values rather than C."""
    lines = out.reshape(-1, out.shape[-2] * out.shape[-1])
    lines += np.tile(bias, out.shape[-2])


def _conv_core(x, kernels, stride, corners, add_bias=True):
    """im2col forward of x [B,H,W,Cin] on the matrix _PLANAR_MAX_CIN picks:
    returns (out [*rows, Cout], col [rows, kh*kw*Cin])."""
    _check_batch(x, "conv input")
    w, b = kernels.weights, kernels.bias
    kh, kw, cin, cout = w.shape
    if x.shape[3] != cin:
        raise DimensionError(
            f"channel axis mismatch: input has {x.shape[3]} channels, kernels expect {cin}")
    if x.shape[1] < kh or x.shape[2] < kw:
        axis = "height" if x.shape[1] < kh else "width"
        raise DimensionError(
            f"{axis} axis smaller than kernel: input {x.shape[1:3]}, kernel {(kh, kw)}")
    if corners:
        _check_pool_window((x.shape[1] - kh) // stride + 1, (x.shape[2] - kw) // stride + 1)
    win = _windows(x, kh, kw, stride, corners)
    col = _matrix(win, cin <= _PLANAR_MAX_CIN)
    out = (col @ w.reshape(kh * kw * cin, cout)).reshape(*win.shape[:-3], cout)
    if add_bias:
        _add_bias(out, b)
    return out.astype(x.dtype, copy=False), col


def conv2d_forward(x, kernels: ConvKernelSet, stride=1, corners=False, add_bias=True):
    """Valid cross-correlation of x [B,H,W,Cin] with kernels -> [B,H',W',Cout].

    With corners the output comes in the order a 2x2 max pool reads it,
    [2, 2, B, H'//2, W'//2, Cout]: corner (r, c) of pool window (y, x) is
    output position (2y + r, 2x + c), and an odd last output row or column,
    which the pool drops, is never computed.  Each row holds the plain
    order's sums, its bytes at the desk and paper conv shapes; a small GEMM
    can round a last bit differently.  add_bias=False leaves out the bias,
    for a pool that adds it after its max (`maxpool2d_forward`).
    """
    return _conv_core(x, kernels, stride, corners, add_bias)[0]


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


def _corner_input_grad(w, upstream, in_shape, stride):
    """dInput [B,H,W,Cin] of a corner-order upstream [2, 2, B, H2, W2, Cout].

    Input row 2*stride*y + t, t = r*stride + i, takes corner row r of pool
    row y through kernel row i (and so for columns): row y + t // (2*stride)
    of phase t % (2*stride), a channel-first plane [Cin, B, hq, wq].  A GEMM
    per corner on its upstream zero-padded to hq x wq gives planes that carry
    a zero border, so each adds into its phase as one contiguous add, in its
    (i, j) order.  At paper conv2 this took 0.6x the time of four slab copies
    per offset onto a zero-bordered grid of the plain order.

    The border a shifted add carries into the next image holds only zeros,
    so the images of any span of the batch get the bytes they get in the
    whole batch (`network.forward_vjp` runs spans).  An empty batch makes
    an empty dx.
    """
    kh, kw, cin, cout = w.shape
    bsz, h2, w2 = upstream.shape[2:5]
    per = 2 * stride
    hq, wq = _plane_rows(w.shape, h2, w2, stride)
    size = cin * bsz * hq * wq
    pad = np.zeros((bsz, hq, wq, cout), upstream.dtype)
    planes = np.empty((4, kh, kw, size), upstream.dtype)
    for (r, c), plane in zip(_CORNERS, planes):
        pad[:, :h2, :w2] = upstream[r, c]
        np.matmul(w.reshape(-1, cout), pad.reshape(-1, cout).T,
                  out=plane.reshape(kh * kw * cin, bsz * hq * wq))
    phases = np.zeros((per, per, size), upstream.dtype)
    for i in range(kh):
        for j in range(kw):
            for (r, c), plane in zip(_CORNERS, planes):
                ty, tx = r * stride + i, c * stride + j
                offset = ty // per * wq + tx // per
                phases[ty % per, tx % per, offset:] += plane[i, j, : size - offset]
    del planes, plane, pad  # the loop's last plane is a view that keeps planes
    phases = phases.reshape(per, per, cin, bsz, hq, wq)
    dx = np.zeros(in_shape, upstream.dtype)
    for p in range(per):
        for q in range(per):
            view = dx[:, p::per, q::per]  # rows past the last window stay 0
            h, w_ = min(hq, view.shape[1]), min(wq, view.shape[2])
            view[:, :h, :w_] = np.moveaxis(phases[p, q, :, :, :h, :w_], 0, 3)
    return dx


def conv2d_vjp(x, kernels: ConvKernelSet, stride=1, corners=False, keep_input=False):
    """Forward pass plus backward(upstream, input_grad=True) -> (dInput, dWeights, dBias).

    The forward is `conv2d_forward`'s, corners included, and upstream
    takes its output's layout; in corner order the rows a pool drops enter
    no gradient.  input_grad=False skips dInput, the costliest part of the
    backward pass, and returns None in its place.

    The conv holds its im2col matrix from the forward to the backward, or
    with keep_input lets it go after the forward, keeps x, and rebuilds
    the same matrix in the backward: the same bytes either way.  A network
    sets keep_input on every conv of a training batch it runs in spans of
    whole images (`network.forward_vjp`).

    backward runs once: it lets go of the im2col matrix (or the input) as
    soon as it has dWeights, so the input gradient's arrays never sit beside
    it, and a second call raises InputError.
    """
    out, kept = _conv_core(x, kernels, stride, corners)
    if keep_input:
        kept = x  # the matrix goes; the backward rebuilds it from x
    w = kernels.weights
    kh, kw, cin, cout = w.shape
    in_shape, in_dtype, out_shape = x.shape, x.dtype, out.shape

    def backward(upstream, input_grad=True):
        nonlocal kept
        if upstream.shape != out_shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match forward output {out_shape}"
            )
        if kept is None:
            raise InputError("backward already ran for this conv forward pass")
        up_flat = upstream.reshape(-1, cout)
        if keep_input:
            kept = _matrix(_windows(kept, kh, kw, stride, corners), cin <= _PLANAR_MAX_CIN)
        dw = (kept.T @ up_flat).reshape(w.shape).astype(w.dtype, copy=False)
        kept = None  # so the input gradient's arrays never sit beside it
        db = _bias_grad(up_flat).astype(w.dtype, copy=False)
        if not input_grad:
            return None, dw, db
        if corners:
            return _corner_input_grad(w, upstream, in_shape, stride), dw, db
        # dcol transposed: one contiguous [Cin, B, H', W'] plane per kernel
        # offset, added onto the overlapping windows of a channel-first dx
        # in the same (i, j) order as the row-major scatter
        dcol = (w.reshape(kh * kw * cin, cout) @ up_flat.T).reshape(kh, kw, cin, *out_shape[:3])
        hp, wp = out_shape[1:3]
        dxc = np.zeros((cin, *in_shape[:3]), dtype=in_dtype)
        for i in range(kh):
            for j in range(kw):
                dxc[:, :, i : i + hp * stride : stride, j : j + wp * stride : stride] += dcol[i, j]
        del dcol  # so the peak is dcol + dx, not dcol + dxc + dx
        return np.ascontiguousarray(np.moveaxis(dxc, 0, 3)), dw, db

    return out, backward


# the corners of a 2x2 window in row-major order; a tie goes to the first
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _check_pool_window(h, w):
    if h < 2 or w < 2:
        axis = "height" if h < 2 else "width"
        raise DimensionError(f"pool window 2x2 larger than input on {axis} axis ({h}x{w})")


def _pool_corners(x):
    """The four window corners of x in row-major order: the slabs of a
    conv's corner-order output [2, 2, B, H2, W2, C], or stride-2 views of
    x [B,H,W,C]."""
    if x.ndim == 6 and x.shape[:2] == (2, 2):
        return [x[i, j] for i, j in _CORNERS]
    _check_batch(x, "pool input")
    _check_pool_window(*x.shape[1:3])
    h2, w2 = x.shape[1] // 2, x.shape[2] // 2
    return [x[:, i : 2 * h2 : 2, j : 2 * w2 : 2] for i, j in _CORNERS]


def maxpool2d_forward(x, bias=None):
    """2x2/stride-2 max pooling of x [B,H,W,C]; odd trailing rows/cols
    dropped.  Also takes a conv's corner-order output [2, 2, B, H2, W2, C]
    (`conv2d_forward` with corners), whose corners are contiguous slabs.
    A bias [C] is added to each window's maximum: a conv's, left out of its
    output (`conv2d_forward` with add_bias=False)."""
    a, b, c, d = _pool_corners(x)
    # np.maximum returns its second argument on a tie (which only shows for
    # -0.0 against +0.0), so the earlier corner goes second throughout
    out = np.maximum(b, a)
    np.maximum(np.maximum(d, c), out, out=out)
    if bias is not None:
        _add_bias(out, bias)
    return out


def maxpool2d_vjp(x):
    """Forward pass plus backward(upstream) -> dInput in the layout of x,
    routed to the first maximum of each window in row-major order."""
    a, b, c, d = _pool_corners(x)
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

    def backward(upstream):
        if upstream.shape != idx.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match pooled output {idx.shape}"
            )
        # a 4-d input's rows and columns past the last window get 0
        dx = (np.zeros if len(in_shape) == 4 else np.empty)(in_shape, upstream.dtype)
        for k, corner in enumerate(_pool_corners(dx)):
            # a multiply, so a negative upstream leaves -0.0 off the maximum
            np.multiply(upstream, idx == k, out=corner)
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


# Values per block of a weight gradient handed on in pieces (`dense_vjp`),
# and of the in-place Adam update: a block's gradient, moments and work
# arrays stay in cache between its passes (256 kB in float32).
BLOCK_VALUES = 1 << 16


def row_blocks(n_rows, row_values):
    """Slices of n_rows rows of row_values values each, in order, about
    BLOCK_VALUES values a slice.  None holds a lone row unless n_rows is 1:
    a product with one row runs as a GEMV, which can round differently from
    the GEMM of the whole (float64 did at the desk dense shape)."""
    step = max(2, BLOCK_VALUES // max(1, row_values))
    starts = range(0, max(n_rows - 1, 1), step)  # a lone last row joins the block before
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n_rows])]


def dense_vjp(x, weights, bias):
    """Forward pass plus backward(upstream, weight_rows=None) -> (dInput,
    dWeights, dBias).

    With weight_rows, dWeights is not returned (None takes its place) but
    handed on after dInput is made, as weight_rows(rows, dWeights[rows])
    per slice of `row_blocks`: the caller may then write the weights.  The
    blocks are the bytes of the whole product's rows.
    """
    out = dense_forward(x, weights, bias)

    def backward(upstream, weight_rows=None):
        if upstream.shape != out.shape:
            raise DimensionError(
                f"upstream shape {upstream.shape} does not match output {out.shape}"
            )
        dx, db = upstream @ weights.T, upstream.sum(axis=0)
        if weight_rows is None:
            return dx, x.T @ upstream, db
        for rows in row_blocks(*weights.shape):
            weight_rows(rows, x.T[rows] @ upstream)
        return dx, None, db

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
