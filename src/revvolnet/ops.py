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
GroupNorm statistics are undefined there, so the normalisation's setup
gives none and both ``group_norm_leaky_relu`` and ``conv3d``'s ``norm``
prologue map an empty tensor to itself.

Convolution has one padding rule: stride 1 and "same" zero padding, so
every kernel extent must be odd (3x3x3 units, 1x1x1 channel changes) and
the output keeps the input's spatial extents. It is a shift-GEMM over a
flattened zero-padded grid: one matrix product per kernel offset, each
reading a strided view of the grid, so no im2col window matrix is
materialised (algebraically equivalent to the direct six-loop sum; the test
suite checks forward and backward against that oracle).
Each sample runs in depth slabs of output planes, and only the output (in
the forward) or the unpadded input gradient (in the backward) is ever
whole. A slab's grid holds the input planes it reads, its planes plus a
(k - 1) / 2 halo, zero outside the volume; one buffer serves every slab,
and the halo planes that neighbouring slabs share are moved, not rebuilt.
A slab is sized like a cache tile, about ``_TILE_BYTES`` of its matrices,
and all kernel offsets are applied to it before the next: the slab and the
grid columns it reads stay in the L2 cache instead of streaming a whole
accumulator once per offset (cache blocking after Goto and van de Geijn
2008). The backward holds two grids, so its slabs are about half as thick;
a small sample runs as one slab. Working in slabs of scratch instead of
whole-tensor buffers trades calls for memory, as cuDNN trades convolution
workspace for speed (Chetlur et al. 2014). The backward lays ``g`` on the
padded grid: the kernel gradient is ``g @ grid^T`` per offset, summed over
the slabs, and the slab's input gradient is the convolution of the padded
``g`` with the flipped, transposed kernel.

The pointwise and resampling kernels make as few full-size passes as they
can, since each pass streams the whole activation:

- ``group_norm_leaky_relu``, the paper's GroupNorm then LeakyReLU as one
  op (In-Place ABN's idea, Rota Bulò et al. 2018). Forward: the group
  means, one centred copy ``x - mu`` whose sum of squares, by one BLAS dot
  per group, gives the variance (no product array, and no cancellation of
  E[x^2] - E[x]^2 at a large mean), freed before the output exists; then
  each sample through ``_normalised_planes``, the helper every ConvUnit
  runs: its centred rows, the per-channel scale and shift in place, then
  the LeakyReLU straight into the op's output, as one product ``s*x`` and
  one elementwise maximum (minimum for s > 1), no boolean select; a slope
  <= 0 adds one masked copy to stay exact at signed zeros and infinities.
  It saves only its input.
  Backward, in one gradient-sized buffer that becomes the input gradient
  (a copy of ``g``; in a unit, the conv's input gradient), in blocks of
  whole (sample, channel) rows: each block's centred rows and ``z``
  recomputed from ``x`` with the forward's scale and shift; the factor
  ``[s, 1][z >= 0]`` formed exactly in ``z``'s buffer from the two bit
  patterns (wrapping uint32 arithmetic, no select and no index array),
  then ``*= g``; per-row sums of that gradient ``gz`` and of ``gz * (x -
  mu)``, each over the whole row; and, once every group's sums are known,
  ``gx = a*gz + k*(x - mu) + c``, with a per channel and k, c per group.
  No network records it. It stays as the whole-sample reference the
  slabbed ``norm`` prologue is composed against, and for its special-value
  tests, which an identity 1x1x1 kernel behind the prologue would spoil:
  ``0 * inf`` in the channel matmul spreads one channel's inf as NaN
  (``eye(3) @ [inf, 1, -0]`` is ``[inf, nan, nan]``), and ``-0 + 0 = +0``
  loses a zero's sign. Since it normalises through the network's helper,
  those tests check the code every unit runs.
- ``conv3d(x, kernel, bias, norm=Norm(...))``, the paper's
  GN-LeakyReLU-conv unit as one op, bit for bit
  ``conv3d(group_norm_leaky_relu(x, *norm), kernel, bias)`` (the backward
  recompute of memory-efficient DenseNets, Pleiss et al. 2017). It records
  as ``conv3d`` and saves only ``x``, so the tape keeps one activation per
  unit. Forward: the group statistics by the same setup as above, then
  each slab's new input planes normalised and copied into its grid.
  Backward: each slab's grid rebuilt from ``x`` and the statistics by the
  same helper, so the forward, the reversible recompute and the rebuild
  round alike; the conv backward into the unpadded input gradient; then
  the normalisation backward above in that gradient's buffer.
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

from .tape import current_tape, record
from .tensor import Parameter, ShapeError, Tensor

# Bytes of one depth slab's matrices in the shift-GEMM convolution, and of
# one chunk or block of the pointwise kernels: with the grid columns a slab
# reads, it fits a 2 MiB L2 cache.
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
    bit for bit, and the op still keeps only ``x``: each depth slab rebuilds
    its normalised input planes (see the module docstring).
    """
    _check_axes(x, "conv3d input")
    pads = _conv_pads(x.shape, kernel, bias)
    params = (kernel,) if bias is None else (kernel, bias)
    stats = norms = None
    if norm is not None:
        _check_norm("conv3d", x, norm.gamma, norm.beta, norm.group_size)
        params += (norm.gamma, norm.beta)
        stats, norms = _norm_setup(x.data, norm)
    out = Tensor(_conv_forward(x.data, pads, kernel, bias, norms))

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx = _conv_backward(g, x_val, pads, kernel, bias, norms)
        if stats is not None:
            _norm_backward(x_val, gx, stats, norm.gamma, norm.beta, norm.slope)
        return (gx,)

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


def _shift_gemm_plan(w, hp, wp):
    """Per-offset kernel matrices and column shifts on a flattened grid.

    On a padded grid (Dp, Hp, Wp) flattened to one axis, the input read by
    kernel offset (dz, dy, dx) for every output voxel is the contiguous column
    range [s, s + n) with s = dz*Hp*Wp + dy*Wp + dx, where n spans the output
    corner (``_slab_columns``). Each offset is then one GEMM over a view of
    the grid, and no C_in*k^3 window matrix is formed. Columns whose (y, x)
    lies outside the output's H x W corner belong to no output voxel.

    Returns the (k^3, C_out, C_in) offset matrices and the shifts.
    """
    out_ch, in_ch, kd, kh, kw = w.shape
    mats = np.ascontiguousarray(np.moveaxis(w.reshape(out_ch, in_ch, -1), 2, 0))
    shifts = [dz * hp * wp + dy * wp + dx
              for dz, dy, dx in np.ndindex(kd, kh, kw)]
    return mats, shifts


def _offset_views(grid, extents, n):
    """Every kernel offset's columns of the padded ``grid`` (C, P, Hp, Wp),
    ``[s, s + n)`` with s = dz*Hp*Wp + dy*Wp + dx, as one read-only
    (kd, kh, kw, C, n) view."""
    c, _, hp, wp = grid.shape
    src = grid.reshape(c, -1)
    item = src.itemsize
    return np.lib.stride_tricks.as_strided(
        src, shape=tuple(extents) + (c, n),
        strides=(hp * wp * item, wp * item, item, src.strides[0], item),
        writeable=False)


def _slab_columns(planes, h, w, hp, wp):
    """The flattened-grid columns that ``planes`` output planes of extents
    (h, w) span on a (Hp, Wp) grid."""
    return (planes - 1) * hp * wp + (h - 1) * wp + w


def _slab_planes(rows, hp, wp):
    """Output planes per depth slab: about ``_TILE_BYTES`` of a ``rows``-row
    matrix over the padded planes, at least one plane. The forward counts
    the rows of its widest slab matrix, grid or accumulator; the backward
    those of its two grids together, input and output channels."""
    return max(1, _TILE_BYTES // (4 * rows * hp * wp))


def _column_tiles(n, rows):
    """Column ranges [t0, t1) covering [0, n), about ``_TILE_BYTES`` of a
    ``rows``-row float32 matrix each; the last one may be shorter."""
    step = max(1, _TILE_BYTES // (4 * rows))
    for t0 in range(0, n, step):
        yield t0, min(t0 + step, n)


def _grid_slabs(v, pads, step, norm=None):
    """The depth slabs of one sample ``v`` (C, D, H, W), ``step`` output
    planes each (the last may be shorter).

    Yields ``(lo, hi, grid)``: ``grid`` is the (C, hi - lo + 2*pd, Hp, Wp)
    zero-padded block of input planes [lo - pd, hi + pd) that output planes
    [lo, hi) read, zero outside the volume. ``norm``, the arguments of
    ``_normalised_planes`` after the planes, normalises them as they enter.
    Without padding the grid is ``v``'s own planes (or their normalised
    copy). Otherwise it is one buffer for all slabs: the 2*pd planes that
    neighbouring slabs share are moved to its front, not rebuilt.
    """
    c, d, h, w = v.shape
    pd, ph, pw = pads
    if not any(pads):
        for lo in range(0, d, step):
            hi = min(lo + step, d)
            planes = v[:, lo:hi]
            if norm is not None:
                planes = _normalised_planes(planes, *norm)
            yield lo, hi, planes
        return
    buf = np.zeros((c, min(step, d) + 2 * pd, h + 2 * ph, w + 2 * pw),
                   dtype=np.float32)
    size = 0
    for lo in range(0, d, step):
        hi = min(lo + step, d)
        # buffer plane j holds input plane lo - pd + j; planes [0, first)
        # are the previous slab's last ones
        first = 0
        if lo:
            first = 2 * pd
            buf[:, :first] = buf[:, size - first:size]
        size = hi - lo + 2 * pd
        grid = buf[:, :size]
        a, b = max(lo - pd + first, 0), min(hi + pd, d)  # new volume planes
        grid[:, first:a - lo + pd] = 0
        if b > a:
            inner = grid[:, a - lo + pd:b - lo + pd, ph:ph + h, pw:pw + w]
            inner[...] = (v[:, a:b] if norm is None
                          else _normalised_planes(v[:, a:b], *norm))
        grid[:, max(a, b) - lo + pd:] = 0
        yield lo, hi, grid


def _slab_gemm(mats, shifts, grid, dst):
    """One slab's output planes ``dst`` (R, planes, H, W) from ``grid``, the
    padded planes they read (``_grid_slabs``): the sum of the offsets'
    GEMMs, ``mats[k] @ grid[:, shifts[k]:shifts[k] + n]``, in offset order,
    each product in one scratch matrix.

    When output rows span whole grid rows the accumulator is ``dst``;
    otherwise the slab's H x W corner is cropped from it.
    """
    r, planes, h, w = dst.shape
    c, _, hp, wp = grid.shape
    n = _slab_columns(planes, h, w, hp, wp)
    src = grid.reshape(c, -1)
    direct = (h, w) == (hp, wp)
    acc = (dst.reshape(r, -1) if direct
           else np.empty((r, planes * hp * wp), dtype=np.float32))
    tile, tmp = acc[:, :n], np.empty((r, n), dtype=np.float32)
    np.matmul(mats[0], src[:, shifts[0]:shifts[0] + n], out=tile)
    for k in range(1, len(shifts)):
        tile += np.matmul(mats[k], src[:, shifts[k]:shifts[k] + n], out=tmp)
    if not direct:
        dst[...] = acc.reshape(r, planes, hp, wp)[:, :, :h, :w]


def _conv_forward(x, pads, kernel, bias, norms):
    """The convolution of ``x``, one depth slab at a time; with ``norms``
    (per sample, the ``_normalised_planes`` arguments after the planes) of
    the normalised ``x``."""
    w = kernel.value.data
    b, c, d, h, wdt = x.shape
    out_ch = w.shape[0]
    hp, wp = h + 2 * pads[1], wdt + 2 * pads[2]
    mats, shifts = _shift_gemm_plan(w, hp, wp)
    step = _slab_planes(max(c, out_ch), hp, wp)
    out = np.empty((b, out_ch, d, h, wdt), dtype=np.float32)
    for i in range(b if out.size else 0):
        for lo, hi, grid in _grid_slabs(x[i], pads, step,
                                        None if norms is None else norms[i]):
            _slab_gemm(mats, shifts, grid, out[i, :, lo:hi])
    if bias is not None:
        out += bias.value.data
    return out


def _conv_backward(g, x, pads, kernel, bias, norms):
    """The input gradient of ``_conv_forward`` at output gradient ``g``; the
    kernel and bias gradients are added to ``kernel.grad`` and ``bias.grad``.

    Each slab rebuilds the forward's grid of ``x`` and lays ``g``'s planes
    on the same padded layout. The kernel gradient sums ``g @ grid^T`` per
    offset over the slabs; the slab's input gradient is the convolution of
    the padded ``g`` with the flipped, transposed kernel, written straight
    into the unpadded gradient.
    """
    w = kernel.value.data
    b, c, d, h, wdt = x.shape
    out_ch = w.shape[0]
    hp, wp = h + 2 * pads[1], wdt + 2 * pads[2]
    mats, shifts = _shift_gemm_plan(w, hp, wp)
    # offset k of the flipped kernel is offset k^3 - 1 - k of the kernel
    flipped = np.ascontiguousarray(mats[::-1].transpose(0, 2, 1))
    # on g's grid, output voxel (z, y, x) sits at the centre offset's shift
    # past column z*Hp*Wp + y*Wp + x, with zeros in the columns no voxel owns
    centre = shifts[len(shifts) // 2]
    # the two grids share the slab budget, unless the forward's slab
    # already holds the whole sample: a small sample runs as one slab
    step = _slab_planes(max(c, out_ch), hp, wp)
    if step < d:
        step = _slab_planes(c + out_ch, hp, wp)
    # the kernel gradient, offsets first: (kd, kh, kw, C_out, C_in)
    gw = np.zeros(w.shape[2:] + w.shape[:2], dtype=np.float32)
    gx = np.empty(x.shape, dtype=np.float32)
    for i in range(b if x.size else 0):
        slabs = zip(_grid_slabs(x[i], pads, step,
                                None if norms is None else norms[i]),
                    _grid_slabs(g[i], pads, step))
        for (lo, hi, xgrid), (_, _, ggrid) in slabs:
            n = _slab_columns(hi - lo, h, wdt, hp, wp)
            gf = ggrid.reshape(out_ch, -1)[:, centre:centre + n]
            # every offset's product in one batched call
            gw += np.matmul(gf, _offset_views(xgrid, w.shape[2:], n)
                            .swapaxes(-1, -2))
            _slab_gemm(flipped, shifts, ggrid, gx[i, :, lo:hi])
    kernel.grad.data += np.moveaxis(gw, (0, 1, 2), (2, 3, 4))
    if bias is not None:
        bias.grad.data += g.sum(axis=(0, 2, 3, 4)).reshape(1, -1, 1, 1, 1)
    return gx


# ---------------------------------------------------------------------------
# normalization and activations


class _NormStats(NamedTuple):
    """GroupNorm statistics of a (B, C, ...) input in the grouped layout
    (B, G, group_size, ...): ``mu`` (B, G, 1, 1) and ``istd`` (B, G, 1) per
    (sample, group), ``scale`` = gamma * istd (B, G, group_size, 1) per
    (sample, channel), and ``shift``, beta, (G, group_size, 1)."""

    mu: np.ndarray
    istd: np.ndarray
    scale: np.ndarray
    shift: np.ndarray


def group_norm_leaky_relu(x: Tensor, gamma: Parameter, beta: Parameter,
                          group_size: int, epsilon: float = 1e-5,
                          slope: float = 0.01) -> Tensor:
    """GroupNorm over channel groups within each sample, the per-channel
    affine map gamma * x_hat + beta, then LeakyReLU of ``slope``, as one op
    that keeps only ``x``.

    ``group_size`` is the number of channels per group. Each sample is
    normalised straight into the output by ``_normalised_planes``, the
    helper the ``conv3d`` prologue runs, and the backward recomputes it from
    ``x`` in the same operation order, so no tape slot holds the normalised
    tensor. At ``slope=1`` the op is GroupNorm, bit for bit.
    """
    op = "group_norm_leaky_relu"
    _check_axes(x, f"{op} input")
    _check_norm(op, x, gamma, beta, group_size)
    stats, norms = _norm_setup(x.data, Norm(gamma, beta, group_size, epsilon,
                                            slope))
    out = np.empty(x.shape, dtype=np.float32)
    for i, args in enumerate(norms or ()):
        _normalised_planes(x.data[i], *args, out=out[i])

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx = g.copy()  # the engine's gradient is read-only here
        if stats is not None:
            _norm_backward(x_val, gx, stats, gamma, beta, slope)
        return (gx,)

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


def _norm_setup(x, norm):
    """The ``_NormStats`` of the array ``x`` under ``norm``, a few floats
    per group or channel, and per sample the arguments of
    ``_normalised_planes`` after the planes; ``(None, None)`` for an empty
    ``x``, which the normalisation maps to itself."""
    if not x.size:
        return None, None
    b, c = x.shape[:2]
    groups = c // norm.group_size
    n = x.size // (b * groups)
    mu = x.reshape(b, groups, n).mean(axis=2)[:, :, None, None]
    # a centred copy gives the variance without the cancellation of
    # E[x^2] - E[x]^2; it is freed before any output exists
    xc = (x.reshape(b, groups, norm.group_size, -1) - mu).reshape(b, groups, n)
    var = _row_dots(xc, xc) / n
    istd = (1.0 / np.sqrt(var + np.float32(norm.epsilon)))[:, :, None]
    scale = (norm.gamma.value.data.reshape(groups, norm.group_size)
             * istd)[..., None]
    shift = norm.beta.value.data.reshape(groups, norm.group_size, 1)
    slope = np.float32(norm.slope)
    return _NormStats(mu, istd, scale, shift), [
        (mu[i], scale[i], shift, slope) for i in range(b)]


def _normalised_planes(planes, mu, scale, shift, slope, out=None):
    """LeakyReLU(GroupNorm(x)) of one sample's planes ``planes`` (C, ...)
    from its ``_NormStats`` (``mu``, ``scale`` for the sample), into
    ``out`` (a new array if None).

    The unit's forward, its reversible recompute, its backward's rebuild and
    ``group_norm_leaky_relu`` all form the normalised input here, so they
    round alike: the centred rows, the affine step in place, then the
    LeakyReLU.
    """
    z = planes.reshape(scale.shape[:2] + (-1,)) - mu
    _scale_shift(z, scale, shift)
    if out is None:
        out = np.empty(planes.shape, dtype=np.float32)
    _leaky_relu(z, slope, out=out.reshape(z.shape))
    return out


def _norm_backward(x, gh, stats, gamma, beta, slope):
    """The input gradient of ``_normalised_planes``, formed in place in the
    gradient ``gh`` at its output; gamma's and beta's gradients are added to
    their ``grad``.

    Two passes over blocks of whole (sample, channel) rows, about
    ``_TILE_BYTES`` of one row block each. The first recomputes each
    block's ``z`` from ``x``, multiplies ``gh``'s rows by the LeakyReLU
    factor of its sign (the gradient at ``z``), then forms each row's sums
    of that and of it times ``x - mu`` over the whole row. The second, once
    every group's sums are known, turns the rows into the input gradient.
    The last block's centred rows are still at hand for it and the others
    are recomputed, so a tensor of one block runs one pass.
    """
    b, groups, group_size = stats.scale.shape[:3]
    c = groups * group_size
    xr, gr = x.reshape(b, c, -1), gh.reshape(b, c, -1)
    n = group_size * xr.shape[2]
    # the statistics per (sample, channel) row
    mu = np.repeat(stats.mu[..., 0], group_size, axis=1)
    scale, shift = stats.scale.reshape(b, c, 1), stats.shift.reshape(c, 1)
    blocks = [(i, slice(c0, c1)) for i in range(b)
              for c0, c1 in _column_tiles(c, xr.shape[2])]
    kept = blocks[-1]
    factors = np.array([slope, 1], dtype=np.float32)
    sg = np.empty((b, c), dtype=np.float32)
    sgx = np.empty((b, c), dtype=np.float32)
    for i, rows in blocks:
        gg = gr[i, rows]
        # z, then its LeakyReLU factor, in one buffer freed before x - mu
        z = _scale_shift(xr[i, rows] - mu[i, rows], scale[i, rows],
                         shift[rows])
        gg *= _leaky_relu_factor(z, factors, out=z)
        del z
        xc = xr[i, rows] - mu[i, rows]
        sg[i, rows] = gg.sum(axis=1)
        sgx[i, rows] = _row_dots(gg, xc)
        if (i, rows) != kept:
            del xc  # before the next block's
    sg = sg.reshape(b, groups, group_size)
    sgx = sgx.reshape(b, groups, group_size)
    istd = stats.istd
    gam = gamma.value.data.reshape(groups, group_size)
    beta.grad.data += sg.sum(axis=0).reshape(beta.grad.shape)
    gamma.grad.data += (sgx * istd).sum(axis=0).reshape(gamma.grad.shape)
    # istd * (gamma*gg - mean(gamma*gg) - x_hat * mean(gamma*gg*x_hat))
    # = a*gg + k*(x - mu) + c: a per channel, k and c per group
    m1 = (gam * sg).sum(axis=2, keepdims=True) / n
    m2 = (gam * sgx).sum(axis=2, keepdims=True) / n
    k = np.repeat(-istd ** 3 * m2, group_size, axis=1)
    const = np.repeat(-istd * m1, group_size, axis=1)
    for i, rows in reversed(blocks):
        if (i, rows) != kept:
            xc = xr[i, rows] - mu[i, rows]
        gx = gr[i, rows]
        gx *= scale[i, rows]
        xc *= k[i, rows]
        gx += xc
        gx += const[i, rows]
        del xc


def _scale_shift(xc, scale, shift):
    """``xc * scale + shift``, the GroupNorm affine step, in place in ``xc``;
    the forward and the backward's recompute share it, so both round alike."""
    xc *= scale
    xc += shift
    return xc


def _row_dots(a, b):
    """Sum over the last axis of ``a * b``: one BLAS dot per row, with no
    product array formed."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _leaky_relu(x, s, out):
    """LeakyReLU of float32 slope ``s`` of ``x`` into ``out``, another array:
    for s <= 1 the branch taken is the larger of x and s*x (the smaller for
    s > 1), so one product and one elementwise max replace the select."""
    np.multiply(x, s, out=out)
    (np.minimum if s > 1 else np.maximum)(x, out, out=out)
    if s <= 0:
        # here x = +-0 ties s*x = -+0 (numpy leaves the winner open) and
        # 0 * inf is NaN, so x >= 0 takes x itself
        np.copyto(out, x, where=x >= 0)
    return out


def _leaky_relu_factor(x, factors, out):
    """The LeakyReLU derivative at ``x``, ``factors = [s, 1]`` picked by the
    sign test ``x >= 0``, into the contiguous float32 ``out`` (which may be
    ``x``), with no select over full-size arrays.

    The factor is formed exactly in ``out``'s bits: s + (x >= 0) * (1 - s)
    in wrapping uint32 arithmetic on the two bit patterns is one or the
    other, and a NaN, which fails the test, takes s. Beside ``out`` only
    the boolean test is formed, a quarter of the float32 bytes.
    """
    s, one = (int(v) for v in factors.view(np.uint32))
    step = np.uint32((one - s) % 2 ** 32)
    bits = out.reshape(-1).view(np.uint32)
    np.multiply((x.reshape(-1) >= 0).view(np.uint8), step, out=bits)
    bits += np.uint32(s)
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
    part = x.data[:, lo:hi]
    # Recorded, a slice is a copy: a view that some backward saves would
    # keep its whole input alive. Unrecorded (the reversible forward) it is
    # a view at batch 1.
    out = Tensor(part.copy() if current_tape() is not None else part)

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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    return record("add", out, [a, b], lambda g, _i, _o: (g, g))


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
