"""Differentiable primitive operations.

Every op validates shapes up front, computes the forward result with numpy,
and registers a tape node whose backward closure produces the input gradients
and accumulates parameter gradients. Closures capture parameters and small
saved statistics only; voxel-sized inputs are fetched from the producing
node's retained output at backward time. The closures carry no test hook:
the gradient checker corrupts gradients by op name in ``tape.backward``.

Convolution is a shift-GEMM over the flattened zero-padded grid: one matrix
product per kernel offset, each reading a strided view of the input, so no
im2col window matrix is materialised (algebraically equivalent to the direct
six-loop sum; the test suite checks forward and backward against that oracle).
The products run over column tiles of the flattened output, about
``_TILE_BYTES`` of accumulator each, and all kernel offsets are applied to
one tile before the next: the tile and the input columns it reads stay in
the L2 cache instead of streaming the whole accumulator once per offset
(cache blocking after Goto and van de Geijn 2008). A grid that fits one
tile runs a single iteration.
"""

import numpy as np

from .tape import record
from .tensor import Parameter, ShapeError, Tensor

# Accumulator bytes per column tile of the shift-GEMM convolution: with the
# input columns a tile reads, it fits a 2 MiB L2 cache.
_TILE_BYTES = 256 * 1024


def _check_axes(t, what: str):
    if not isinstance(t, Tensor):
        raise TypeError(f"{what} must be a Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# convolution


def _same_padding(kernel_shape):
    pads = []
    for k in kernel_shape:
        if k % 2 == 0:
            raise ShapeError(
                f"'same' padding requires odd kernel extents, got {kernel_shape}"
            )
        pads.append((k - 1) // 2)
    return tuple(pads)


def conv3d(x: Tensor, kernel: Parameter, bias: Parameter | None = None,
           padding="same") -> Tensor:
    """Stride-1 cross-correlation with per-axis zero padding plus bias."""
    _check_axes(x, "conv3d input")
    w = kernel.value.data
    out_ch, in_ch, kd, kh, kw = w.shape
    b, c, d, h, wdt = x.shape
    if c != in_ch:
        raise ShapeError(
            f"conv3d channel mismatch: input has shape {x.shape} "
            f"(channels={c}) but kernel has shape {w.shape} (in_channels={in_ch})"
        )
    if bias is not None and bias.value.shape != (1, out_ch, 1, 1, 1):
        raise ShapeError(
            f"conv3d bias shape {bias.value.shape} does not match out_channels={out_ch}"
        )
    if padding == "same":
        pads = _same_padding((kd, kh, kw))
    else:
        pads = tuple(int(p) for p in padding)
        if len(pads) != 3 or any(p < 0 for p in pads):
            raise ShapeError(f"padding must be three nonnegative ints, got {padding!r}")
    out_spatial = (d + 2 * pads[0] - kd + 1, h + 2 * pads[1] - kh + 1,
                   wdt + 2 * pads[2] - kw + 1)
    if any(e < 0 for e in out_spatial):
        raise ShapeError(
            f"conv3d kernel {w.shape[2:]} with padding {pads} does not fit "
            f"input spatial extents {x.shape[2:]}"
        )

    if x.element_count == 0 or out_ch == 0 or any(e == 0 for e in out_spatial):
        out_data = np.zeros((b, out_ch) + out_spatial, dtype=np.float32)
        if bias is not None and out_data.size:
            out_data += bias.value.data
        out = Tensor(out_data)
    else:
        out = Tensor(_conv_forward(x.data, w, pads, bias))

    kernel_ref, bias_ref = kernel, bias

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        if g.size == 0 or x_val.size == 0:
            if bias_ref is not None and g.size:
                bias_ref.grad.data += g.sum(axis=(0, 2, 3, 4), keepdims=True)
            return (np.zeros_like(x_val),)
        gx, gw, gb = _conv_backward(g, x_val, w, pads)
        kernel_ref.grad.data += gw
        if bias_ref is not None:
            bias_ref.grad.data += gb
        return (gx,)

    node_params = (kernel,) if bias is None else (kernel, bias)
    return record("conv3d", out, [x], backward_fn, needs_inputs=(True,),
                  params=node_params)


def _padded_grid(x, pads):
    """``x`` zero-padded on its spatial axes; a contiguous unpadded ``x`` as is."""
    if not any(pads):
        return np.ascontiguousarray(x)
    return np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pads))


def _shift_gemm_plan(w, hp, wp, out_spatial):
    """Per-offset kernel matrices and column shifts on a flattened grid.

    On a padded grid (Dp, Hp, Wp) flattened to one axis, the input read by
    kernel offset (dz, dy, dx) for every output voxel is the contiguous column
    range [s, s + n) with s = dz*Hp*Wp + dy*Wp + dx, where n spans the output
    corner (od, oh, ow). Each offset is then one GEMM over a view of the grid,
    and no C_in*k^3 window matrix is formed. Columns whose (y, x) lies outside
    the output's oh x ow corner belong to no output voxel.

    Returns the (k^3, C_out, C_in) offset matrices, the shifts and n.
    """
    out_ch, in_ch, kd, kh, kw = w.shape
    od, oh, ow = out_spatial
    mats = np.ascontiguousarray(np.moveaxis(w.reshape(out_ch, in_ch, -1), 2, 0))
    shifts = [dz * hp * wp + dy * wp + dx
              for dz, dy, dx in np.ndindex(kd, kh, kw)]
    return mats, shifts, (od - 1) * hp * wp + (oh - 1) * wp + ow


def _column_tiles(n, rows):
    """Column ranges [t0, t1) covering [0, n), about ``_TILE_BYTES`` of a
    ``rows``-row float32 matrix each; the last one may be shorter."""
    step = max(1, _TILE_BYTES // (4 * rows))
    for t0 in range(0, n, step):
        yield t0, min(t0 + step, n)


def _conv_forward(x, w, pads, bias):
    xp = _padded_grid(x, pads)
    b, c, dp, hp, wp = xp.shape
    out_ch, _, kd, kh, kw = w.shape
    od, oh, ow = dp - kd + 1, hp - kh + 1, wp - kw + 1
    mats, shifts, n = _shift_gemm_plan(w, hp, wp, (od, oh, ow))
    out = np.empty((b, out_ch, od, oh, ow), dtype=np.float32)
    # when output rows span whole grid rows the accumulator is the output
    direct = (oh, ow) == (hp, wp)
    acc = None if direct else np.empty((out_ch, od * hp * wp), dtype=np.float32)
    for i in range(b):
        xf = xp[i].reshape(c, -1)
        buf = out[i].reshape(out_ch, -1) if direct else acc
        # every offset lands on one tile before the next tile starts; each
        # output element still sums its offsets in order 0..k^3-1
        for t0, t1 in _column_tiles(n, out_ch):
            tile = buf[:, t0:t1]
            np.matmul(mats[0], xf[:, shifts[0] + t0:shifts[0] + t1], out=tile)
            for k in range(1, len(shifts)):
                tile += mats[k] @ xf[:, shifts[k] + t0:shifts[k] + t1]
        if not direct:
            out[i] = acc.reshape(out_ch, od, hp, wp)[:, :, :oh, :ow]
    if bias is not None:
        out += bias.value.data
    return out


def _conv_backward(g, x, w, pads):
    xp = _padded_grid(x, pads)
    b, c, dp, hp, wp = xp.shape
    _, _, d, h, wdt = x.shape
    out_ch = w.shape[0]
    od, oh, ow = g.shape[2:]
    mats, shifts, n = _shift_gemm_plan(w, hp, wp, (od, oh, ow))
    gmats = np.zeros_like(mats)
    gb = g.sum(axis=(0, 2, 3, 4), keepdims=True).reshape(1, -1, 1, 1, 1)
    # g laid out on the padded grid, zero in the columns no output voxel owns
    embed = (oh, ow) != (hp, wp)
    gpad = np.zeros((out_ch, od, hp, wp), dtype=np.float32) if embed else None
    # without padding the grid is the input, so gx accumulates in place
    direct = not any(pads)
    gx = (np.zeros if direct else np.empty)(x.shape, dtype=np.float32)
    gxf = None if direct else np.empty((c, dp * hp * wp), dtype=np.float32)
    for i in range(b):
        if embed:
            gpad[:, :, :oh, :ow] = g[i]
            gf = gpad.reshape(out_ch, -1)[:, :n]
        else:
            gf = g[i].reshape(out_ch, -1)
        xf = xp[i].reshape(c, -1)
        if direct:
            gxf = gx[i].reshape(c, -1)
        else:
            gxf.fill(0.0)
        # tiled like the forward: the kernel gradient sums over tiles, and
        # each tile scatters into the input-gradient columns it was read from
        for t0, t1 in _column_tiles(n, out_ch):
            gf_tile = gf[:, t0:t1]
            for k, s in enumerate(shifts):
                gmats[k] += gf_tile @ xf[:, s + t0:s + t1].T
                gxf[:, s + t0:s + t1] += mats[k].T @ gf_tile
        if not direct:
            gx[i] = gxf.reshape(c, dp, hp, wp)[:, pads[0]:pads[0] + d,
                                               pads[1]:pads[1] + h,
                                               pads[2]:pads[2] + wdt]
    gw = np.ascontiguousarray(np.moveaxis(gmats, 0, 2).reshape(w.shape))
    return gx, gw, gb


def conv1x1x1(x: Tensor, kernel: Parameter, bias: Parameter | None = None) -> Tensor:
    """Channel-mixing convolution; kernel extents must all be one."""
    if kernel.value.shape[2:] != (1, 1, 1):
        raise ShapeError(
            f"conv1x1x1 requires kernel spatial extents (1, 1, 1), got {kernel.value.shape}"
        )
    return conv3d(x, kernel, bias, padding=(0, 0, 0))


# ---------------------------------------------------------------------------
# normalization and activations


def group_norm(x: Tensor, gamma: Parameter, beta: Parameter, group_size: int,
               epsilon: float = 1e-5) -> Tensor:
    """Normalize over channel groups within each sample, then apply the
    per-channel affine transform gamma * x_hat + beta.

    ``group_size`` is the number of channels per group.
    """
    _check_axes(x, "group_norm input")
    b, c, d, h, w = x.shape
    if group_size <= 0 or c % group_size != 0:
        raise ShapeError(
            f"group_norm channels ({c}) not divisible by group size ({group_size})"
        )
    if gamma.value.shape != (1, c, 1, 1, 1) or beta.value.shape != (1, c, 1, 1, 1):
        raise ShapeError(
            f"group_norm affine parameters must have {c} channels, got "
            f"gamma {gamma.value.shape}, beta {beta.value.shape}"
        )
    groups = c // group_size

    if x.element_count == 0:
        out = Tensor(np.zeros_like(x.data))
        return record("group_norm", out, [x],
                      lambda g, inputs, _o: (np.zeros_like(g),),
                      needs_inputs=(False,), params=(gamma, beta))

    xg = x.data.reshape(b, groups, group_size, d, h, w)
    mu = xg.mean(axis=(2, 3, 4, 5), keepdims=True)
    var = xg.var(axis=(2, 3, 4, 5), keepdims=True)
    istd = 1.0 / np.sqrt(var + np.float32(epsilon))
    x_hat = (xg - mu) * istd
    out_data = x_hat.reshape(x.shape) * gamma.value.data + beta.value.data
    out = Tensor(np.ascontiguousarray(out_data))

    gamma_ref, beta_ref = gamma, beta
    saved_mu, saved_istd = mu, istd  # (B, G, 1, 1, 1, 1) each: negligible bytes

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        xg = x_val.reshape(b, groups, group_size, d, h, w)
        x_hat = (xg - saved_mu) * saved_istd
        gg = g.reshape(b, groups, group_size, d, h, w)
        gam = gamma_ref.value.data.reshape(1, groups, group_size, 1, 1, 1)

        beta_ref.grad.data += g.sum(axis=(0, 2, 3, 4), keepdims=True)
        gamma_ref.grad.data += (gg * x_hat).reshape(x_val.shape).sum(
            axis=(0, 2, 3, 4), keepdims=True)

        gy_gam = gg * gam
        mean_gy = gy_gam.mean(axis=(2, 3, 4, 5), keepdims=True)
        mean_gy_xhat = (gy_gam * x_hat).mean(axis=(2, 3, 4, 5), keepdims=True)
        gx = saved_istd * (gy_gam - mean_gy - x_hat * mean_gy_xhat)
        return (np.ascontiguousarray(gx.reshape(x_val.shape)),)

    return record("group_norm", out, [x], backward_fn, needs_inputs=(True,),
                  params=(gamma, beta))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """x for x >= 0, slope * x otherwise."""
    _check_axes(x, "leaky_relu input")
    s = np.float32(slope)
    out = Tensor(np.where(x.data >= 0, x.data, s * x.data))

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        return (np.where(x_val >= 0, g, s * g),)

    return record("leaky_relu", out, [x], backward_fn, needs_inputs=(True,))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function 1 / (1 + exp(-x))."""
    _check_axes(x, "sigmoid input")
    with np.errstate(over="ignore"):
        out = Tensor(1.0 / (1.0 + np.exp(-x.data)))

    def backward_fn(g, _inputs, output):
        return (g * output * (1.0 - output),)

    return record("sigmoid", out, [x], backward_fn, needs_output=True)


# ---------------------------------------------------------------------------
# resampling


def max_pool2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2x2 max pooling; ties go to the first voxel in scan
    order, and the backward routes the whole gradient there."""
    _check_axes(x, "max_pool2 input")
    b, c, d, h, w = x.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError(f"max_pool2 requires even spatial extents, got {x.shape[2:]}")
    d2, h2, w2 = d // 2, h // 2, w // 2

    def blocks(arr):
        v = arr.reshape(b, c, d2, 2, h2, 2, w2, 2)
        return v.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(b, c, d2, h2, w2, 8)

    if x.element_count == 0:
        out = Tensor(np.zeros((b, c, d2, h2, w2), dtype=np.float32))
        return record("max_pool2", out, [x],
                      lambda g, inputs, _o: (np.zeros((b, c, d, h, w), dtype=np.float32),),
                      needs_inputs=(False,))

    # three pairwise maxima over strided views (z, then y, then x); no copy
    # of the input is formed, and a NaN in a block still wins
    v = x.data.reshape(b, c, d2, 2, h2, 2, w2, 2)
    m = np.maximum(v[:, :, :, 0], v[:, :, :, 1])
    m = np.maximum(m[:, :, :, :, 0], m[:, :, :, :, 1])
    out = Tensor(np.ascontiguousarray(np.maximum(m[..., 0], m[..., 1])))

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        v = blocks(x_val)
        winners = v.argmax(axis=-1)  # first maximum in (dz, dy, dx) scan order
        scattered = np.zeros_like(v)
        np.put_along_axis(scattered, winners[..., None], g[..., None], axis=-1)
        gx = scattered.reshape(b, c, d2, h2, w2, 2, 2, 2)
        gx = gx.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(b, c, d, h, w)
        return (np.ascontiguousarray(gx),)

    return record("max_pool2", out, [x], backward_fn, needs_inputs=(True,))


_interp_cache = {}


def _interp_matrix(n_in: int) -> np.ndarray:
    """Row-stochastic (2n x n) trilinear upsampling weights for one axis.

    Output voxel centers sit at input coordinate (o + 0.5) / 2 - 0.5,
    clamped into the valid range (the align-corners-false convention).
    """
    m = _interp_cache.get(n_in)
    if m is not None:
        return m
    n_out = 2 * n_in
    m = np.zeros((n_out, n_in), dtype=np.float32)
    for o in range(n_out):
        src = max((o + 0.5) / 2.0 - 0.5, 0.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        frac = np.float32(src - i0)
        m[o, i0] += np.float32(1.0) - frac
        m[o, i1] += frac
    _interp_cache[n_in] = m
    return m


def _apply_axis(arr, mat, axis):
    moved = np.tensordot(arr, mat, axes=([axis], [1]))
    return np.moveaxis(moved, -1, axis)


def upsample2(x: Tensor) -> Tensor:
    """Trilinear upsampling that doubles every spatial extent; the backward
    pass is the exact transpose scatter."""
    _check_axes(x, "upsample2 input")
    b, c, d, h, w = x.shape
    mats = (_interp_matrix(d), _interp_matrix(h), _interp_matrix(w))

    data = x.data
    for axis, mat in zip((2, 3, 4), mats):
        data = _apply_axis(data, mat, axis)
    out = Tensor(np.ascontiguousarray(data))

    def backward_fn(g, _inputs, _output):
        gx = g
        for axis, mat in zip((2, 3, 4), mats):
            gx = _apply_axis(gx, mat.T, axis)
        return (np.ascontiguousarray(gx),)

    return record("upsample2", out, [x], backward_fn)


# ---------------------------------------------------------------------------
# channel plumbing and arithmetic


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    _check_axes(a, "concat_channels input")
    _check_axes(b, "concat_channels input")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(
            f"concat_channels requires matching batch/spatial extents, "
            f"got {a.shape} and {b.shape}"
        )
    ca = a.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def backward_fn(g, _inputs, _output):
        return (np.ascontiguousarray(g[:, :ca]), np.ascontiguousarray(g[:, ca:]))

    return record("concat_channels", out, [a, b], backward_fn)


def _slice_channels(x: Tensor, lo: int, hi: int) -> Tensor:
    in_shape = x.shape
    out = Tensor(np.ascontiguousarray(x.data[:, lo:hi]))

    def backward_fn(g, _inputs, _output):
        gx = np.zeros(in_shape, dtype=np.float32)
        gx[:, lo:hi] = g
        return (gx,)

    return record("slice_channels", out, [x], backward_fn)


def split_channels(x: Tensor, at: int):
    """Split along the channel axis; the exact inverse of concat_channels."""
    _check_axes(x, "split_channels input")
    c = x.shape[1]
    if not 0 < at < c:
        raise ShapeError(f"split_channels position {at} outside (0, {c})")
    return _slice_channels(x, 0, at), _slice_channels(x, at, c)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    return record("add", out, [a, b], lambda g, _i, _o: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    return record("sub", out, [a, b], lambda g, _i, _o: (g, -g))


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements as a scalar tensor."""
    _check_axes(x, "reduce_sum input")
    out = Tensor.scalar(float(x.data.sum(dtype=np.float64)))
    shape = x.shape

    def backward_fn(g, _inputs, _output):
        return (np.full(shape, g.reshape(()), dtype=np.float32),)

    return record("reduce_sum", out, [x], backward_fn)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Inner product with a fixed weight array; handy for gradient probing."""
    _check_axes(x, "weighted_sum input")
    w = np.ascontiguousarray(weights, dtype=np.float32)
    if w.shape != x.shape:
        raise ShapeError(f"weights shape {w.shape} does not match input {x.shape}")
    out = Tensor.scalar(float((x.data.astype(np.float64) * w).sum()))

    def backward_fn(g, _inputs, _output):
        return (w * g.reshape(()),)

    return record("weighted_sum", out, [x], backward_fn)
