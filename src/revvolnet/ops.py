"""Differentiable primitive operations.

Every op validates shapes up front, computes the forward result with numpy,
and registers a tape node whose backward closure produces the input gradients
and accumulates parameter gradients. Each op declares what its closure reads
(``saves``): ``conv3d``, ``upsample_merge``, ``group_norm`` and
``leaky_relu`` their inputs, ``sigmoid`` its output, ``max_pool2`` both, and
the upsampling, channel plumbing, arithmetic and reductions nothing. The
tape retains and hands over only those values, so closures capture
parameters and small saved statistics only. The closures carry no test hook:
the gradient checker corrupts gradients by op name in ``tape.backward``.
Empty tensors (batch 0 or a zero spatial extent) run through the general
kernels; only ``group_norm``, whose statistics are undefined there, keeps a
branch for them.

Convolution is a shift-GEMM over the flattened zero-padded grid: one matrix
product per kernel offset, each reading a strided view of the input, so no
im2col window matrix is materialised (algebraically equivalent to the direct
six-loop sum; the test suite checks forward and backward against that oracle).
The products run over column tiles of the flattened output, about
``_TILE_BYTES`` of accumulator each, and all kernel offsets are applied to
one tile before the next: the tile and the input columns it reads stay in
the L2 cache instead of streaming the whole accumulator once per offset
(cache blocking after Goto and van de Geijn 2008). A grid that fits one
tile runs a single iteration. The padded grid is a zeroed array with the
input assigned to its interior.

The pointwise and resampling kernels make as few full-size passes as they
can, since each pass streams the whole activation:

- ``group_norm`` forward: the group means, one centred copy ``x - mu``, the
  sum of its squares by one BLAS dot per group (no product array, and no
  cancellation of E[x^2] - E[x]^2 at a large mean), then a per-channel
  scale and shift in place on the centred copy, which becomes the output.
  Backward: the centred copy again, per-channel sums of ``g`` and of
  ``g * (x - mu)``, and ``gx = a*g + k*(x - mu) + c`` with a per channel
  and k, c per group.
- ``leaky_relu`` forward: one product ``s*x`` and one elementwise maximum
  (minimum for s > 1) in place, with no boolean select; a slope <= 0 adds
  one masked copy to stay exact at signed zeros and infinities. Backward:
  the factor ``[s, 1][x >= 0]`` by one ``take``, then ``*= g`` in place.
- ``max_pool2``: the forward takes pairwise maxima over strided views. The
  backward walks the eight block positions in scan order with a mask of
  blocks not yet routed, and writes ``g`` into a strided view of a zeroed
  gradient.
- ``upsample2``: one contiguous batched matmul per axis (W, H, then D, each
  reading a reshaped view of the previous result, so nothing is transposed
  or copied); the backward applies the transposed matrices in reverse.
- ``upsample_merge``: the 1x1x1 conv of ``concat(skip, upsample2(d))``
  without the concatenation, as ``W_s @ skip + upsample2(W_u @ d) + b``.
  Forward: one channel GEMM at low resolution, the three upsampling
  matmuls on its ``C_out`` channels, one GEMM over the skip, two in-place
  adds. Backward: the upsampling adjoint once, on ``g``; one GEMM per input
  gradient and one per kernel slice, the kernel slice for ``d`` at low
  resolution; one sum for the bias. It saves its inputs, the skip and
  ``d``, which in a reversible U-Net are sequence outputs the tape keeps
  anyway.
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
    _, c, d, h, wdt = x.shape
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

    out = Tensor(_conv_forward(x.data, w, pads, bias))
    kernel_ref, bias_ref = kernel, bias

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx, gw, gb = _conv_backward(g, x_val, w, pads)
        kernel_ref.grad.data += gw
        if bias_ref is not None:
            bias_ref.grad.data += gb
        return (gx,)

    node_params = (kernel,) if bias is None else (kernel, bias)
    return record("conv3d", out, [x], backward_fn, params=node_params,
                  saves=("inputs",))


def _padded_grid(x, pads):
    """``x`` zero-padded on its spatial axes; a contiguous unpadded ``x`` as is."""
    if not any(pads):
        return np.ascontiguousarray(x)
    b, c, d, h, w = x.shape
    pd, ph, pw = pads
    xp = np.zeros((b, c, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=np.float32)
    xp[:, :, pd:pd + d, ph:ph + h, pw:pw + w] = x
    return xp


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
        # declares what the general path does, so an empty-batch trace
        # retains what a real step does
        return record("group_norm", out, [x],
                      lambda g, _i, _o: (np.zeros_like(g),), params=(gamma, beta),
                      saves=("inputs",))

    gshape = (b, groups, group_size, d * h * w)
    xg = x.data.reshape(gshape)
    mu = xg.reshape(b, groups, -1).mean(axis=2)[:, :, None, None]
    # the centred copy gives the variance without the cancellation of
    # E[x^2] - E[x]^2, and then becomes the output in place
    xc = xg - mu
    n = group_size * d * h * w
    var = _row_dots(xc.reshape(b, groups, n), xc.reshape(b, groups, n)) / n
    istd = (1.0 / np.sqrt(var + np.float32(epsilon)))[:, :, None]
    gam = gamma.value.data.reshape(groups, group_size)
    xc *= (gam * istd)[..., None]
    xc += beta.value.data.reshape(groups, group_size, 1)
    out = Tensor(xc.reshape(x.shape))

    gamma_ref, beta_ref = gamma, beta
    saved_mu, saved_istd = mu, istd  # (B, G, 1, 1) and (B, G, 1): negligible bytes

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gg = g.reshape(gshape)
        xc = x_val.reshape(gshape) - saved_mu
        # per (sample, channel) sums of g and of g * (x - mu)
        sg = gg.sum(axis=3)
        sgx = _row_dots(gg, xc)
        gam = gamma_ref.value.data.reshape(groups, group_size)
        beta_ref.grad.data += sg.sum(axis=0).reshape(beta_ref.grad.shape)
        gamma_ref.grad.data += (sgx * saved_istd).sum(axis=0).reshape(
            gamma_ref.grad.shape)
        # istd * (gamma*g - mean(gamma*g) - x_hat * mean(gamma*g*x_hat))
        # = a*g + k*(x - mu) + c: a per channel, k and c per group
        m1 = (gam * sg).sum(axis=2, keepdims=True) / n
        m2 = (gam * sgx).sum(axis=2, keepdims=True) / n
        gx = gg * (gam * saved_istd)[..., None]
        xc *= (-saved_istd ** 3 * m2)[..., None]
        gx += xc
        gx += (-saved_istd * m1)[..., None]
        return (gx.reshape(x_val.shape),)

    return record("group_norm", out, [x], backward_fn, params=(gamma, beta),
                  saves=("inputs",))


def _row_dots(a, b):
    """Sum over the last axis of ``a * b``: one BLAS dot per row, with no
    product array formed."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """x for x >= 0, slope * x otherwise."""
    _check_axes(x, "leaky_relu input")
    s = np.float32(slope)
    # for s <= 1 the branch taken is the larger of x and s*x (the smaller for
    # s > 1), so one product and one elementwise max replace the select
    out_data = s * x.data
    (np.minimum if s > 1 else np.maximum)(x.data, out_data, out=out_data)
    if s <= 0:
        # here x = +-0 ties s*x = -+0 (numpy leaves the winner open) and
        # 0 * inf is NaN, so x >= 0 takes x itself
        np.copyto(out_data, x.data, where=x.data >= 0)
    out = Tensor(out_data)

    # the branch's factor, picked by indexing [s, 1] with the sign test, then
    # scaled by g in place: no select over three full-size arrays
    factors = np.array([s, 1], dtype=np.float32)

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx = factors.take((x_val >= 0).view(np.uint8))
        gx *= g
        return (gx,)

    return record("leaky_relu", out, [x], backward_fn, saves=("inputs",))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function 1 / (1 + exp(-x))."""
    _check_axes(x, "sigmoid input")
    with np.errstate(over="ignore"):
        out = Tensor(1.0 / (1.0 + np.exp(-x.data)))

    def backward_fn(g, _inputs, output):
        return (g * output * (1.0 - output),)

    return record("sigmoid", out, [x], backward_fn, saves=("output",))


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

    # three pairwise maxima over strided views (z, then y, then x); no copy
    # of the input is formed, and a NaN in a block still wins
    v = x.data.reshape(b, c, d2, 2, h2, 2, w2, 2)
    m = np.maximum(v[:, :, :, 0], v[:, :, :, 1])
    m = np.maximum(m[:, :, :, :, 0], m[:, :, :, :, 1])
    out = Tensor(np.ascontiguousarray(np.maximum(m[..., 0], m[..., 1])))

    def backward_fn(g, inputs, output):
        (x_val,) = inputs
        v = x_val.reshape(b, c, d2, 2, h2, 2, w2, 2)
        gx = np.zeros(x_val.shape, dtype=np.float32)
        gv = gx.reshape(v.shape)
        # the eight block positions in (dz, dy, dx) scan order: each block's
        # gradient goes to the first voxel equal to its maximum, or to its
        # first NaN, and the block is then no longer free
        free = np.ones(output.shape, dtype=bool)
        for dz, dy, dx in np.ndindex(2, 2, 2):
            xk = v[:, :, :, dz, :, dy, :, dx]
            hit = (xk == output) | np.isnan(xk)
            hit &= free
            np.copyto(gv[:, :, :, dz, :, dy, :, dx], g, where=hit)
            free ^= hit
        return (gx,)

    return record("max_pool2", out, [x], backward_fn,
                  saves=("inputs", "output"))


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


def _upsample_data(x: np.ndarray) -> np.ndarray:
    """Trilinear 2x upsampling of a (B, C, D, H, W) array.

    One contiguous batched matmul per axis, W then H then D; each result is
    already in the layout the next one reads, so nothing is transposed.
    """
    b, c, d, h, w = x.shape
    md, mh, mw = _interp_matrix(d), _interp_matrix(h), _interp_matrix(w)
    y = x.reshape(b * c * d * h, w) @ mw.T
    y = np.matmul(mh, y.reshape(b * c * d, h, 2 * w))
    y = np.matmul(md, y.reshape(b * c, d, 4 * h * w))
    return y.reshape(b, c, 2 * d, 2 * h, 2 * w)


def _upsample_adjoint(g: np.ndarray) -> np.ndarray:
    """The transpose of ``_upsample_data``: a (B, C, 2D, 2H, 2W) gradient
    summed back onto the (B, C, D, H, W) grid, the axes in reverse order."""
    b, c, d2, h2, w2 = g.shape
    d, h, w = d2 // 2, h2 // 2, w2 // 2
    md, mh, mw = _interp_matrix(d), _interp_matrix(h), _interp_matrix(w)
    gx = np.matmul(md.T, g.reshape(b * c, d2, 4 * h * w))
    gx = np.matmul(mh.T, gx.reshape(b * c * d, h2, w2))
    gx = gx.reshape(b * c * d * h, w2) @ mw
    return gx.reshape(b, c, d, h, w)


def upsample2(x: Tensor) -> Tensor:
    """Trilinear upsampling that doubles every spatial extent; the backward
    pass is the exact transpose scatter."""
    _check_axes(x, "upsample2 input")
    out = Tensor(_upsample_data(x.data))

    def backward_fn(g, _inputs, _output):
        return (_upsample_adjoint(g),)

    return record("upsample2", out, [x], backward_fn)


def upsample_merge(skip: Tensor, d: Tensor, kernel: Parameter,
                   bias: Parameter) -> Tensor:
    """``conv1x1x1(concat_channels(skip, upsample2(d)), kernel, bias)`` without
    the concatenation: ``W_s @ skip + upsample2(W_u @ d) + bias``.

    ``W_s`` and ``W_u`` are the kernel's first ``C_skip`` and last ``C_d``
    input columns. A 1x1x1 conv mixes channels and the upsampling mixes
    voxels, so they commute, and the interpolation rows sum to one, so the
    bias passes through. ``d`` is mixed down to the output width at low
    resolution, and only that is upsampled; the backward applies the
    upsampling adjoint once, to ``g``, and writes the two kernel gradients
    into their column slices of ``kernel.grad``.
    """
    _check_axes(skip, "upsample_merge skip")
    _check_axes(d, "upsample_merge input")
    b, cs, sd, sh, sw = skip.shape
    _, cd, dd, dh, dw = d.shape
    if d.shape[0] != b or (sd, sh, sw) != (2 * dd, 2 * dh, 2 * dw):
        raise ShapeError(
            f"upsample_merge needs a skip of the input's batch and twice its "
            f"spatial extents, got skip {skip.shape} and input {d.shape}")
    w = kernel.value.data
    out_ch = w.shape[0]
    if w.shape != (out_ch, cs + cd, 1, 1, 1):
        raise ShapeError(
            f"upsample_merge kernel must have shape ({out_ch}, {cs + cd}, 1, 1, 1) "
            f"for {cs} skip and {cd} input channels, got {w.shape}")
    if bias.value.shape != (1, out_ch, 1, 1, 1):
        raise ShapeError(
            f"upsample_merge bias shape {bias.value.shape} does not match "
            f"out_channels={out_ch}")
    w2 = w.reshape(out_ch, cs + cd)
    w_s, w_u = w2[:, :cs], w2[:, cs:]
    n_hi, n_lo = sd * sh * sw, dd * dh * dw

    u = np.matmul(w_u, d.data.reshape(b, cd, n_lo))
    y = _upsample_data(u.reshape(b, out_ch, dd, dh, dw))
    y += np.matmul(w_s, skip.data.reshape(b, cs, n_hi)).reshape(y.shape)
    y += bias.value.data
    out = Tensor(y)
    kernel_ref, bias_ref = kernel, bias

    def backward_fn(g, inputs, _output):
        skip_val, d_val = inputs
        gf = g.reshape(b, out_ch, n_hi)
        gu = _upsample_adjoint(g).reshape(b, out_ch, n_lo)
        sf = skip_val.reshape(b, cs, n_hi)
        df = d_val.reshape(b, cd, n_lo)
        gw = kernel_ref.grad.data.reshape(out_ch, cs + cd)
        gw[:, :cs] += (gf @ sf.transpose(0, 2, 1)).sum(axis=0)
        gw[:, cs:] += (gu @ df.transpose(0, 2, 1)).sum(axis=0)
        bias_ref.grad.data += g.sum(axis=(0, 2, 3, 4)).reshape(bias_ref.grad.shape)
        return (np.matmul(w_s.T, gf).reshape(skip_val.shape),
                np.matmul(w_u.T, gu).reshape(d_val.shape))

    return record("upsample_merge", out, [skip, d], backward_fn,
                  params=(kernel, bias), saves=("inputs",))


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
    # einsum casts to float64 through small buffers, not a whole-input copy
    out = Tensor.scalar(float(np.einsum("i,i->", x.data.ravel(), w.ravel(),
                                        dtype=np.float64, casting="safe")))

    def backward_fn(g, _inputs, _output):
        return (w * g.reshape(()),)

    return record("weighted_sum", out, [x], backward_fn)
