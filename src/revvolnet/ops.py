"""Differentiable primitive operations.

Every op validates shapes up front, computes the forward result with numpy,
and registers a tape node whose backward closure produces the input gradients
and accumulates parameter gradients. Each op declares what its closure reads
(``saves``): ``conv3d``, ``upsample_merge`` and ``group_norm_leaky_relu``
their inputs, ``sigmoid`` its output, ``max_pool2`` both, and the
upsampling, channel plumbing, arithmetic and reductions nothing. The tape
retains and hands over only those values, so closures capture parameters
and small saved statistics only. The closures carry no test hook: the
gradient checker corrupts gradients by op name in ``tape.backward``. Empty
tensors (batch 0 or a zero spatial extent) run through the general kernels;
GroupNorm statistics are undefined there, so ``group_norm_leaky_relu``
keeps a branch for them and ``conv3d`` skips its ``norm`` prologue, which
maps an empty tensor to itself.

Convolution has one padding rule: stride 1 and "same" zero padding, so
every kernel extent must be odd (3x3x3 units, 1x1x1 channel changes) and
the output keeps the input's spatial extents. It is a shift-GEMM over the
flattened zero-padded grid: one matrix product per kernel offset, each
reading a strided view of the input, so no im2col window matrix is
materialised (algebraically equivalent to the direct six-loop sum; the test
suite checks forward and backward against that oracle).
The products run over column tiles of the flattened output, about
``_TILE_BYTES`` of accumulator each, and all kernel offsets are applied to
one tile before the next: the tile and the input columns it reads stay in
the L2 cache instead of streaming the whole accumulator once per offset
(cache blocking after Goto and van de Geijn 2008). A grid that fits one
tile runs a single iteration. The padded grid is a zeroed array with the
input assigned to its interior; the forward and backward kernels take the
grid, which with a ``norm`` prologue holds the normalised input instead.

The pointwise and resampling kernels make as few full-size passes as they
can, since each pass streams the whole activation:

- ``group_norm_leaky_relu``, the paper's GroupNorm then LeakyReLU as one
  op (In-Place ABN's idea, Rota Bulò et al. 2018). Forward: the group
  means, one centred copy ``x - mu``, the sum of its squares by one BLAS
  dot per group (no product array, and no cancellation of E[x^2] - E[x]^2
  at a large mean), a per-channel scale and shift in place on the centred
  copy, then the LeakyReLU in place on it, chunk by chunk through one chunk
  of scratch: one product ``s*x`` and one elementwise maximum (minimum for
  s > 1), no boolean select; a slope <= 0 adds one masked copy to stay
  exact at signed zeros and infinities. It saves only its input.
  Backward: the normalised tensor ``z`` recomputed from the centred copy
  with the forward's scale and shift; the factor ``[s, 1][z >= 0]`` by one
  ``take`` into ``z``'s own buffer, then ``*= g``, per chunk of about
  ``_TILE_BYTES`` (``take`` widens its indices to intp, so a whole-tensor
  call would form twice the input's bytes); per-channel sums of that
  gradient ``gz`` and of ``gz * (x - mu)``; and ``gx = a*gz + k*(x - mu) +
  c`` in the same buffer, with a per channel and k, c per group.
- ``conv3d(x, kernel, bias, norm=Norm(...))``, the paper's
  GN-LeakyReLU-conv unit as one op, bit for bit
  ``conv3d(group_norm_leaky_relu(x, *norm), kernel, bias)`` (the backward
  recompute of memory-efficient DenseNets, Pleiss et al. 2017). It records
  as ``conv3d`` and saves only ``x``, so the tape keeps one activation per
  unit. Forward: the normalisation above, then its output copied into the
  conv's zeroed padded grid and freed before the products. Backward: the
  centred copy rebuilt from ``x`` and the forward's statistics, normalised
  and placed in the grid by the same helper as in the forward, the conv
  backward on that grid, the grid freed, and the normalisation backward
  above on the gradient it returns.
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

from typing import NamedTuple

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


class Norm(NamedTuple):
    """The arguments of ``group_norm_leaky_relu`` after ``x``: the
    normalisation ``conv3d`` applies to its input when given one."""

    gamma: Parameter
    beta: Parameter
    group_size: int
    epsilon: float = 1e-5
    slope: float = 0.01


def conv3d(x: Tensor, kernel: Parameter, bias: Parameter | None = None,
           norm: Norm | None = None) -> Tensor:
    """Stride-1 cross-correlation with "same" zero padding, plus bias.

    Every kernel extent must be odd; each axis is padded by (k - 1) // 2 on
    both sides, so the output has the input's spatial extents.

    With ``norm``, the convolution reads ``group_norm_leaky_relu(x, *norm)``,
    bit for bit, and the op still keeps only ``x``: its backward rebuilds
    the normalised input in the padded grid (see the module docstring).
    """
    _check_axes(x, "conv3d input")
    pads = _conv_pads(x.shape, kernel, bias)
    params = (kernel,) if bias is None else (kernel, bias)
    if norm is not None:
        _check_norm("conv3d", x, norm.gamma, norm.beta, norm.group_size)
        params += (norm.gamma, norm.beta)
    # the normalisation maps an empty tensor to itself
    stats = None
    if norm is not None and x.element_count:
        xc, stats = _norm_stats(x.data, norm.gamma, norm.beta, norm.group_size,
                                norm.epsilon)
        grid = _normalised_grid(xc, stats, norm.slope, pads)
        del xc  # unpadded, the grid is xc's own buffer
    else:
        grid = _padded_grid(x.data, pads)
    out = Tensor(_conv_forward(grid, kernel, bias))
    del grid

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        if stats is None:
            return (_conv_backward(g, _padded_grid(x_val, pads), pads, kernel,
                                   bias),)
        xc = _centred(x_val, stats[0]).reshape(x_val.shape)
        grid = _normalised_grid(xc, stats, norm.slope, pads)
        del xc
        gh = _conv_backward(g, grid, pads, kernel, bias)
        del grid
        return (_norm_backward(x_val, gh, stats, norm.gamma, norm.beta,
                               norm.slope),)

    return record("conv3d", out, [x], backward_fn, params=params,
                  saves=("inputs",))


def _conv_pads(x_shape, kernel, bias):
    """The "same" padding per spatial axis, once the kernel and the bias are
    checked against the input's channels."""
    w = kernel.value.data
    out_ch, in_ch = w.shape[:2]
    extents = w.shape[2:]
    c = x_shape[1]
    if c != in_ch:
        raise ShapeError(
            f"conv3d channel mismatch: input has shape {x_shape} "
            f"(channels={c}) but kernel has shape {w.shape} (in_channels={in_ch})"
        )
    if bias is not None and bias.value.shape != (1, out_ch, 1, 1, 1):
        raise ShapeError(
            f"conv3d bias shape {bias.value.shape} does not match out_channels={out_ch}"
        )
    if any(k % 2 == 0 for k in extents):
        raise ShapeError(f"'same' padding requires odd kernel extents, got {extents}")
    return tuple((k - 1) // 2 for k in extents)


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


def _conv_forward(xp, kernel, bias):
    """The convolution of the zero-padded grid ``xp`` (``_padded_grid``)."""
    w = kernel.value.data
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


def _conv_backward(g, xp, pads, kernel, bias):
    """The input gradient of the convolution of the padded grid ``xp`` at
    output gradient ``g``; the kernel and bias gradients are added to
    ``kernel.grad`` and ``bias.grad``."""
    w = kernel.value.data
    b, c, dp, hp, wp = xp.shape
    d, h, wdt = (e - 2 * p for e, p in zip((dp, hp, wp), pads))
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
    gx = (np.zeros if direct else np.empty)((b, c, d, h, wdt), dtype=np.float32)
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
    kernel.grad.data += np.moveaxis(gmats, 0, 2).reshape(w.shape)
    if bias is not None:
        bias.grad.data += gb
    return gx


# ---------------------------------------------------------------------------
# normalization and activations


def group_norm_leaky_relu(x: Tensor, gamma: Parameter, beta: Parameter,
                          group_size: int, epsilon: float = 1e-5,
                          slope: float = 0.01) -> Tensor:
    """GroupNorm over channel groups within each sample, the per-channel
    affine map gamma * x_hat + beta, then LeakyReLU of ``slope``, as one op
    that keeps only ``x``.

    ``group_size`` is the number of channels per group. The LeakyReLU runs in
    place on the op's own normalised buffer, and the backward recomputes that
    buffer from ``x`` in the forward's operation order, so no tape slot holds
    the normalised tensor. At ``slope=1`` the op is GroupNorm, bit for bit.
    """
    op = "group_norm_leaky_relu"
    _check_axes(x, f"{op} input")
    _check_norm(op, x, gamma, beta, group_size)
    if x.element_count == 0:
        out = Tensor(np.zeros_like(x.data))
        # declares what the general path does, so an empty-batch trace
        # retains what a real step does
        return record(op, out, [x],
                      lambda g, _i, _o: (np.zeros_like(g),), params=(gamma, beta),
                      saves=("inputs",))

    xc, stats = _norm_stats(x.data, gamma, beta, group_size, epsilon)
    out = _normalised_grid(xc, stats, slope, (0, 0, 0))

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        return (_norm_backward(x_val, g, stats, gamma, beta, slope),)

    return record(op, Tensor(out), [x], backward_fn, params=(gamma, beta),
                  saves=("inputs",))


def _check_norm(op, x, gamma, beta, group_size):
    c = x.shape[1]
    if group_size <= 0 or c % group_size != 0:
        raise ShapeError(
            f"{op} channels ({c}) not divisible by group size ({group_size})"
        )
    if gamma.value.shape != (1, c, 1, 1, 1) or beta.value.shape != (1, c, 1, 1, 1):
        raise ShapeError(
            f"{op} affine parameters must have {c} channels, got "
            f"gamma {gamma.value.shape}, beta {beta.value.shape}"
        )


def _norm_stats(x, gamma, beta, group_size, epsilon):
    """The centred copy ``x - mu`` of the non-empty array ``x`` (shape of
    ``x``) and the group statistics ``(mu, istd, scale, shift)`` that
    ``_normalised_grid`` and ``_norm_backward`` read, a few floats per group
    or channel.

    In the grouped layout ``(B, G, group_size, DHW)``: ``mu`` and ``istd``
    per (sample, group), ``scale = gamma * istd`` per (sample, channel) and
    ``shift`` (a view of beta) per channel.
    """
    b, c = x.shape[:2]
    groups = c // group_size
    n = x.size // (b * groups)
    mu = x.reshape(b, groups, n).mean(axis=2)[:, :, None, None]
    # the centred copy gives the variance without the cancellation of
    # E[x^2] - E[x]^2, and then becomes the output
    xc = _centred(x, mu)
    var = _row_dots(xc.reshape(b, groups, n), xc.reshape(b, groups, n)) / n
    istd = (1.0 / np.sqrt(var + np.float32(epsilon)))[:, :, None]
    scale = (gamma.value.data.reshape(groups, group_size) * istd)[..., None]
    shift = beta.value.data.reshape(groups, group_size, 1)
    return xc.reshape(x.shape), (mu, istd, scale, shift)


def _centred(x, mu):
    """``x - mu`` in the grouped layout ``(B, G, group_size, DHW)``."""
    b, groups = mu.shape[:2]
    return x.reshape(b, groups, x.shape[1] // groups, -1) - mu


def _normalised_grid(xc, stats, slope, pads):
    """LeakyReLU(GroupNorm(x)) from the centred copy ``xc`` (shape of ``x``)
    and the statistics, formed in ``xc``'s own buffer and then placed in a
    zero-padded grid (``_padded_grid``; ``xc`` itself without padding).

    The forward and the backward's rebuild both go through here, so they
    round alike. The passes run over the contiguous copy, in the grouped
    layout: writing them straight into the grid's strided interior
    measured slower than one copy into it.
    """
    _mu, _istd, scale, shift = stats
    z = xc.reshape(scale.shape[:3] + (-1,))
    _scale_shift(z, scale, shift, out=z)
    _leaky_relu_in_place(z, np.float32(slope))
    return _padded_grid(xc, pads)


def _norm_backward(x, g, stats, gamma, beta, slope):
    """The input gradient of ``_normalised_grid`` at output gradient ``g``;
    gamma's and beta's gradients are added to their ``grad``.

    The normalised tensor ``z`` is recomputed from the centred copy with the
    forward's scale and shift; its sign picks each LeakyReLU factor, and its
    buffer then holds the gradient at it, and then the input gradient.
    """
    mu, istd, scale, shift = stats
    b, groups, group_size = scale.shape[:3]
    gshape = (b, groups, group_size, -1)
    xc = _centred(x, mu)
    n = group_size * xc.shape[3]
    z = _scale_shift(xc, scale, shift, out=np.empty_like(xc))
    factors = np.array([slope, 1], dtype=np.float32)
    gg = _leaky_relu_grad(z, factors, g.reshape(gshape), out=z)
    # per (sample, channel) sums of gg and of gg * (x - mu)
    sg = gg.sum(axis=3)
    sgx = _row_dots(gg, xc)
    gam = gamma.value.data.reshape(groups, group_size)
    beta.grad.data += sg.sum(axis=0).reshape(beta.grad.shape)
    gamma.grad.data += (sgx * istd).sum(axis=0).reshape(gamma.grad.shape)
    # istd * (gamma*gg - mean(gamma*gg) - x_hat * mean(gamma*gg*x_hat))
    # = a*gg + k*(x - mu) + c: a per channel, k and c per group, formed in
    # gg's own buffer
    m1 = (gam * sg).sum(axis=2, keepdims=True) / n
    m2 = (gam * sgx).sum(axis=2, keepdims=True) / n
    gx = np.multiply(gg, scale, out=gg)
    xc *= (-istd ** 3 * m2)[..., None]
    gx += xc
    gx += (-istd * m1)[..., None]
    return gx.reshape(x.shape)


def _scale_shift(xc, scale, shift, out):
    """``xc * scale + shift``, the GroupNorm affine step, into ``out``
    (which may be ``xc``); the forward and the backward's recompute share
    it, so both round alike."""
    y = np.multiply(xc, scale, out=out)
    y += shift
    return y


def _row_dots(a, b):
    """Sum over the last axis of ``a * b``: one BLAS dot per row, with no
    product array formed."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _leaky_relu_in_place(z, s):
    """LeakyReLU of float32 slope ``s`` over the contiguous ``z`` in place,
    one ``_TILE_BYTES`` chunk at a time through a scratch of that size."""
    flat = z.reshape(-1)
    scratch = np.empty(min(flat.size, _TILE_BYTES // 4), dtype=np.float32)
    for t0, t1 in _column_tiles(flat.size, 1):
        x, out = flat[t0:t1], scratch[:t1 - t0]
        # for s <= 1 the branch taken is the larger of x and s*x (the smaller
        # for s > 1), so one product and one elementwise max replace the select
        np.multiply(x, s, out=out)
        (np.minimum if s > 1 else np.maximum)(x, out, out=out)
        if s <= 0:
            # here x = +-0 ties s*x = -+0 (numpy leaves the winner open) and
            # 0 * inf is NaN, so x >= 0 takes x itself
            np.copyto(out, x, where=x >= 0)
        x[...] = out


def _leaky_relu_grad(x, factors, g, out):
    """``g`` times the factor of ``x``'s branch, ``factors = [s, 1]`` picked
    by the sign test ``x >= 0``, into the contiguous ``out`` (which may be
    ``x``): one ``take`` and one in-place product, no select over three
    full-size arrays. It runs one ``_TILE_BYTES`` chunk at a time, because
    ``take`` converts its indices to a full intp array (twice the float32
    bytes), and ``mode="clip"`` lets it write into ``out`` unbuffered."""
    xf, gf, of = x.reshape(-1), g.reshape(-1), out.reshape(-1)
    for t0, t1 in _column_tiles(of.size, 1):
        chunk = of[t0:t1]
        factors.take((xf[t0:t1] >= 0).view(np.uint8), out=chunk, mode="clip")
        chunk *= gf[t0:t1]
    return out


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
    """The 1x1x1 ``conv3d(concat_channels(skip, upsample2(d)), kernel, bias)``
    without the concatenation: ``W_s @ skip + upsample2(W_u @ d) + bias``.

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
