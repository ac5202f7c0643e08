"""Differentiable primitive operations.

Every op validates shapes up front, computes the forward result with numpy,
and registers a tape node whose backward closure produces the input gradients
and accumulates parameter gradients. Each op declares what its closure reads
(``saves``): ``conv3d`` (what enters its prologue), ``upsample_merge``
and ``group_norm_leaky_relu`` their inputs, ``sigmoid`` its output,
``max_pool2`` both, and the upsampling, channel plumbing, arithmetic and
reductions nothing. The tape retains and hands over only those values, so
closures capture parameters and small saved statistics only. The closures
carry no test hook: the gradient checker corrupts gradients by op name in
``tape.backward``. Empty tensors (batch 0 or a zero spatial extent) run
through the general kernels; GroupNorm statistics are undefined there, so
the normalisation's setup gives none and both ``group_norm_leaky_relu``
and ``conv3d``'s ``norm`` prologue map an empty tensor to itself.

Convolution has one padding rule: stride 1 and "same" zero padding, so
every kernel extent must be odd (3x3x3 units, 1x1x1 channel changes) and
the output keeps the input's spatial extents. It is a shift-GEMM over a
flattened zero-padded grid: one matrix product per kernel offset, each
reading a strided view of the grid (``_offset_views``), so no im2col window
matrix is materialised; the test suite checks forward and backward against
the direct six-loop sum. Each sample runs in depth slabs of output planes
(``_grid_slabs``), all kernel offsets applied to one slab before the next,
and only the output (in the forward) or the unpadded input gradient (in
the backward) is ever whole. The offset views of a slab thickness are built
once per call, since every padded slab reads one grid buffer. With
``add_to``, the forward adds each slab into a given array (with
``subtract``, subtracts it), so not even the output is whole: the
reversible coupling's y1 = x1 + F(x2) (Gomez et al. 2017) forms no F(x2),
and its recorded inverse x2 = y2 - G(y1) no G(y1). Two prologues transform
the input planes a slab reads as they enter, and the backward rebuilds
them, so the op saves only its input: with ``norm``, ``conv3d`` is the
paper's GN-LeakyReLU-conv unit as one op, and with ``pool`` it convolves
``max_pool2`` of its input (the reversible net's down step), whose pooled
copy is then never formed whole. ``max_pool2`` and the pooling prologue
pool through one helper (``_pool_blocks``) and route the gradient through
another (``_route_blocks``).

Every kernel that works in pieces takes its ranges from ``_tiles``: the
convolution's depth slabs, the normalisation backward's row blocks, the
pooling's plane or channel chunks, the upsampling's slice groups and
output plane chunks, and ``upsample_merge``'s column and output channel
chunks. A piece holds about ``_TILE_BYTES`` of
scratch, so it and what it reads stay in the L2 cache instead of a whole
array streaming once per pass (cache blocking after Goto and van de Geijn
2008), and the scratch is a small fraction of the tensors: calls are traded
for memory, as cuDNN trades convolution workspace for speed (Chetlur et al.
2014). Chunking changes no bit of a result the tests pin: each chunked
forward, and the normalisation backward, gives every element the float32
operations of one whole-array pass, and the tests compare them bit for bit.
Only the convolution's kernel gradient is summed over the slabs.
"""

from typing import NamedTuple

import numpy as np

from .tape import record
from .tensor import Parameter, ShapeError, Tensor

# Bytes of one ``_tiles`` range: with the grid columns a convolution slab
# reads, it fits a 2 MiB L2 cache.
_TILE_BYTES = 256 * 1024


def _check_axes(t, what: str):
    if not isinstance(t, Tensor):
        raise TypeError(f"{what} must be a Tensor, got {type(t).__name__}")


# ---------------------------------------------------------------------------
# convolution


class Norm(NamedTuple):
    """The arguments of ``group_norm_leaky_relu`` after ``x``: the
    normalisation ``conv3d`` applies to its input when given one. A
    ``ConvUnit`` holds one, with its GroupNorm parameters."""

    gamma: Parameter
    beta: Parameter
    group_size: int
    epsilon: float = 1e-5
    slope: float = 0.01


def conv3d(x: Tensor, kernel: Parameter, bias: Parameter | None = None,
           norm: Norm | None = None, add_to: np.ndarray | None = None,
           subtract: bool = False, pool: bool = False) -> Tensor:
    """Stride-1 cross-correlation with "same" zero padding, plus bias.

    Every kernel extent must be odd; each axis is padded by (k - 1) // 2 on
    both sides, so the output has the input's spatial extents.

    With ``norm``, the convolution reads ``group_norm_leaky_relu(x, *norm)``,
    bit for bit, and the op still records as ``conv3d`` and keeps only
    ``x``: each depth slab normalises its input planes as they enter, and
    the backward rebuilds them the same way (the backward recompute of
    memory-efficient DenseNets, Pleiss et al. 2017). A ``ConvUnit`` builds
    its ``Norm`` once and hands it to every call.

    With ``pool``, the convolution reads ``max_pool2(x)`` the same way, bit
    for bit, and has its extents: each slab pools the input planes it reads
    as they enter, the node keeps only ``x``, and the backward rebuilds the
    pooled planes to route the pooled-domain gradient by ``max_pool2``'s
    rule. No pooled copy of ``x`` is retained or formed whole. A call takes
    ``norm`` or ``pool``, not both.

    With ``add_to``, a contiguous float32 array of the output's shape that
    ``x`` does not overlap, the output is added into it slab by slab (with
    ``subtract``, subtracted from it) and the op returns a Tensor over
    ``add_to``: no output-sized buffer exists (the reversible coupling's
    y1 = x1 + F(x2), and its inverse's x2 = y2 - G(y1)). Every element gets
    ``add_to + (conv + b)``, or ``add_to - (conv + b)``, the float32
    operations of ``add_to + conv3d(x)`` or ``add_to - conv3d(x)``. A
    recording tape records the convolution term alone: the node saves
    ``x``, its backward is that of ``conv3d(x)`` (the gradient is not
    negated under ``subtract``), and the earlier contents of ``add_to`` are
    no input of it.
    """
    if subtract and add_to is None:
        raise ValueError("conv3d(subtract=True) needs add_to")
    if pool and norm is not None:
        raise ValueError("conv3d takes a norm or a pool prologue, not both")
    _check_axes(x, "conv3d input")
    in_shape = _pooled_shape(x.shape, "conv3d(pool=True)") if pool else x.shape
    pads = _conv_pads(in_shape, kernel, bias)
    if add_to is not None:
        shape = in_shape[:1] + kernel.value.shape[:1] + in_shape[2:]
        if (add_to.shape != shape or add_to.dtype != np.float32
                or not add_to.flags.c_contiguous):
            raise ShapeError(
                f"conv3d add_to must be a contiguous float32 array of the "
                f"output shape {shape}, got {add_to.dtype} {add_to.shape}")
    params = (kernel,) if bias is None else (kernel, bias)
    stats = None
    if norm is not None:
        _check_norm("conv3d", x, norm.gamma, norm.beta, norm.group_size)
        params += (norm.gamma, norm.beta)
        stats = _norm_setup(x.data, norm)
    out = Tensor(_conv_forward(x.data, pads, kernel, bias, stats, add_to,
                               subtract, pool))

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx = _conv_backward(g, x_val, pads, kernel, bias, stats, pool)
        if stats is not None:
            _norm_backward(x_val, gx, stats)
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


def _offset_matrices(w):
    """The kernel ``w`` (C_out, C_in, kd, kh, kw) as one (C_out, C_in) matrix
    per offset, in ``np.ndindex`` order: (kd*kh*kw, C_out, C_in)."""
    out_ch, in_ch = w.shape[:2]
    return np.ascontiguousarray(np.moveaxis(w.reshape(out_ch, in_ch, -1), 2, 0))


def _offset_views(grid, extents, n):
    """Every kernel offset's columns of the padded ``grid`` (C, P, Hp, Wp),
    as one read-only (kd, kh, kw, C, n) view.

    On the grid flattened to (C, P*Hp*Wp), the input that offset (dz, dy,
    dx) reads for every output voxel is the contiguous column range
    ``[s, s + n)`` with s = dz*Hp*Wp + dy*Wp + dx, where n spans the output
    corner (``_slab_columns``). Each offset is then one GEMM over a view of
    the grid, and no C_in*k^3 window matrix is formed. Columns whose (y, x)
    lies outside the output's H x W corner belong to no output voxel.
    """
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


def _tiles(n, item_bytes, least=1):
    """The ranges [t0, t1) that cover [0, n) with about ``_TILE_BYTES`` of
    ``item_bytes``-byte items each: at least ``least`` items, the last range
    shorter when they do not divide, unless it would hold fewer than
    ``least``, when it joins the range before. Every chunked kernel sizes
    its chunks here."""
    step = max(least, _TILE_BYTES // max(1, item_bytes))
    t0 = 0
    while t0 < n:
        t1 = n if n - t0 < step + least else t0 + step
        yield t0, t1
        t0 = t1


class _SlabGrid(NamedTuple):
    """A slab's zero-padded grid as its GEMMs read it: ``offsets``, its
    ``_offset_views`` (kd, kh, kw, C, n), ``views``, those (C, n) matrices
    in ``np.ndindex`` order, and ``planes``, the (C, hi - lo, H, W) input
    planes of the slab's own output planes, as they entered."""

    offsets: np.ndarray
    views: list
    planes: np.ndarray


def _grid_slabs(x, pads, slabs, stats=None, pool=False):
    """The depth slabs of every sample of the convolution input ``x`` (B,
    C, D, H, W), one per output plane range [lo, hi) of ``slabs``
    (``_tiles`` over D; the first is the thickest); none when ``x`` is
    empty. With ``pool``, the input is ``max_pool2`` of ``x`` (B, C, 2D,
    2H, 2W).

    Yields ``(i, lo, hi, grid)``: ``grid`` is the ``_SlabGrid`` of the (C,
    hi - lo + 2*pd, Hp, Wp) zero-padded block of sample ``i``'s input
    planes [lo - pd, hi + pd) that output planes [lo, hi) read, zero
    outside the volume. The planes enter through the prologue: with
    ``stats``, ``x``'s ``_NormStats``, they are normalised, and with
    ``pool`` each is pooled from its two planes of ``x``. Without padding
    the grid is the sample's own planes (or their prologue's copy).
    Otherwise it is one buffer for every slab of the call: the 2*pd planes
    that neighbouring slabs share are moved to its front, not rebuilt, and
    the views of each slab thickness are built once.
    """
    b, c, d, h, w = x.shape
    if pool:
        d, h, w = d // 2, h // 2, w // 2
    pd, ph, pw = pads
    hp, wp = h + 2 * ph, w + 2 * pw
    extents = tuple(2 * p + 1 for p in pads)

    def slab_grid(grid, planes):
        offsets = _offset_views(grid, extents,
                                _slab_columns(planes, h, w, hp, wp))
        return _SlabGrid(offsets, [offsets[k] for k in np.ndindex(extents)],
                         grid[:, pd:pd + planes, ph:ph + h, pw:pw + w])

    def enter(i, p0, p1, out=None):
        """Input planes [p0, p1) of sample ``i``, into ``out`` if given."""
        if pool:
            return _pool_blocks(_blocks(x[i, :, 2 * p0:2 * p1]), out)
        planes = x[i, :, p0:p1]
        if stats is not None:
            planes = _normalised_planes(planes, stats, i)
        if out is None:
            return planes
        out[...] = planes
        return out

    if not x.size:
        return
    if not any(pads):
        for i in range(b):
            for lo, hi in slabs:
                yield i, lo, hi, slab_grid(enter(i, lo, hi), hi - lo)
        return
    buf = np.zeros((c, slabs[0][1] + 2 * pd, hp, wp), dtype=np.float32)
    grids = {}  # by slab thickness: each reads the front of ``buf``
    for i in range(b):
        size = 0
        for lo, hi in slabs:
            # buffer plane j holds input plane lo - pd + j; planes [0, first)
            # are the previous slab's last ones
            first = 0
            if lo:
                first = 2 * pd
                buf[:, :first] = buf[:, size - first:size]
            size = hi - lo + 2 * pd
            grid = buf[:, :size]
            p0, p1 = max(lo - pd + first, 0), min(hi + pd, d)  # new volume planes
            grid[:, first:p0 - lo + pd] = 0
            if p1 > p0:
                enter(i, p0, p1, out=grid[:, p0 - lo + pd:p1 - lo + pd,
                                          ph:ph + h, pw:pw + w])
            grid[:, max(p0, p1) - lo + pd:] = 0
            if size not in grids:
                grids[size] = slab_grid(grid, hi - lo)
            yield i, lo, hi, grids[size]


def _slab_gemm(mats, grid, dst):
    """One slab's output planes ``dst`` (R, planes, H, W) from ``grid``, the
    ``_SlabGrid`` of the padded planes they read (``_grid_slabs``): the sum
    of the offsets' GEMMs, ``mats[k]`` times ``grid.views[k]``, in offset
    order, each product in one scratch matrix.

    When output rows span whole grid rows the accumulator is ``dst``, which
    must then reshape to (R, planes*H*W) as a view; otherwise the slab's
    H x W corner is cropped from it.
    """
    r, planes, h, w = dst.shape
    _, kh, kw, _, n = grid.offsets.shape
    hp, wp = h + kh - 1, w + kw - 1
    direct = (h, w) == (hp, wp)
    acc = (dst.reshape(r, -1) if direct
           else np.empty((r, planes * hp * wp), dtype=np.float32))
    tile, tmp = acc[:, :n], np.empty((r, n), dtype=np.float32)
    np.matmul(mats[0], grid.views[0], out=tile)
    for m, view in zip(mats[1:], grid.views[1:]):
        tile += np.matmul(m, view, out=tmp)
    if not direct:
        dst[...] = acc.reshape(r, planes, hp, wp)[:, :, :h, :w]


def _conv_forward(x, pads, kernel, bias, stats, add_to=None, subtract=False,
                  pool=False):
    """The convolution of ``x`` plus the bias, one depth slab at a time;
    with ``stats``, ``x``'s ``_NormStats``, of the normalised ``x``, and
    with ``pool`` of ``max_pool2(x)``.

    Each slab's GEMM sum gets the bias in place. With ``add_to`` the slab
    is formed in one slab-sized scratch and then added into ``add_to`` (with
    ``subtract``, subtracted from it), which is returned; otherwise it is
    formed in a new output array.
    """
    w = kernel.value.data
    b, c, d, h, wdt = _pooled_shape(x.shape) if pool else x.shape
    out_ch = w.shape[0]
    hp, wp = h + 2 * pads[1], wdt + 2 * pads[2]
    mats = _offset_matrices(w)
    # a slab's output plane costs the rows of its widest matrix, grid or
    # accumulator
    slabs = list(_tiles(d, 4 * max(c, out_ch) * hp * wp))
    if add_to is None:
        out = np.empty((b, out_ch, d, h, wdt), dtype=np.float32)
    else:
        out = add_to
        scratch = np.empty((out_ch, slabs[0][1] if slabs else 0, h, wdt),
                           dtype=np.float32)
    for i, lo, hi, grid in _grid_slabs(x, pads, slabs, stats, pool):
        dst = out[i, :, lo:hi] if add_to is None else scratch[:, :hi - lo]
        _slab_gemm(mats, grid, dst)
        if bias is not None:
            dst += bias.value.data[0]
        if subtract:
            out[i, :, lo:hi] -= dst
        elif add_to is not None:
            out[i, :, lo:hi] += dst
    return out


def _conv_backward(g, x, pads, kernel, bias, stats, pool=False):
    """The input gradient of ``_conv_forward`` at output gradient ``g``; the
    kernel and bias gradients are added to ``kernel.grad`` and ``bias.grad``.

    Each slab rebuilds the forward's grid of ``x`` and lays ``g``'s planes
    on the same padded layout. The kernel gradient sums ``g @ grid^T`` per
    offset over the slabs; the slab's input gradient is the convolution of
    the padded ``g`` with the flipped, transposed kernel, written straight
    into the unpadded gradient. With ``pool`` that is the gradient at the
    slab's pooled planes, formed in a slab-sized scratch, which
    ``_route_blocks`` then hands to the maxima of ``x``'s blocks in the
    full-resolution gradient.
    """
    w = kernel.value.data
    b, c, d, h, wdt = _pooled_shape(x.shape) if pool else x.shape
    out_ch = w.shape[0]
    hp, wp = h + 2 * pads[1], wdt + 2 * pads[2]
    # offset k of the flipped kernel is offset k^3 - 1 - k of the kernel
    flipped = np.ascontiguousarray(_offset_matrices(w)[::-1].transpose(0, 2, 1))
    # the two grids share the slab budget, unless the forward's slab
    # already holds the whole sample: a small sample runs as one slab
    slabs = list(_tiles(d, 4 * max(c, out_ch) * hp * wp))
    if len(slabs) > 1:
        slabs = list(_tiles(d, 4 * (c + out_ch) * hp * wp))
    # the kernel gradient, offsets first: (kd, kh, kw, C_out, C_in)
    gw = np.zeros(w.shape[2:] + w.shape[:2], dtype=np.float32)
    if pool:
        # every voxel that is no block's maximum gets zero
        gx = np.zeros(x.shape, dtype=np.float32)
        scratch = np.empty((c, slabs[0][1] if slabs else 0, h, wdt),
                           dtype=np.float32)
    else:
        gx = np.empty(x.shape, dtype=np.float32)
    grids = zip(_grid_slabs(x, pads, slabs, stats, pool),
                _grid_slabs(g, pads, slabs))
    for (i, lo, hi, xgrid), (_, _, _, ggrid) in grids:
        # column z*Hp*Wp + y*Wp + x of the centre offset's view holds g at
        # output voxel (z, y, x); the columns no voxel owns are zero
        gf = ggrid.offsets[pads]
        # every offset's product in one batched call
        gw += np.matmul(gf, xgrid.offsets.swapaxes(-1, -2))
        if not pool:
            _slab_gemm(flipped, ggrid, gx[i, :, lo:hi])
            continue
        gp = scratch[:, :hi - lo]
        _slab_gemm(flipped, ggrid, gp)
        _route_blocks(_blocks(x[i, :, 2 * lo:2 * hi]), xgrid.planes, gp,
                      _blocks(gx[i, :, 2 * lo:2 * hi]))
    kernel.grad.data += np.moveaxis(gw, (0, 1, 2), (2, 3, 4))
    if bias is not None:
        bias.grad.data += g.sum(axis=(0, 2, 3, 4)).reshape(1, -1, 1, 1, 1)
    return gx


# ---------------------------------------------------------------------------
# normalization and activations


class _NormStats(NamedTuple):
    """Everything the normalisation of one (B, C, ...) input reads, held
    once per op call: its ``Norm``, and the GroupNorm statistics in the
    grouped layout (B, G, group_size, ...), ``mu`` (B, G, 1, 1) and ``istd``
    (B, G, 1) per (sample, group), ``scale`` = gamma * istd
    (B, G, group_size, 1) per (sample, channel), ``shift``, beta,
    (G, group_size, 1), and ``slope``, the float32 LeakyReLU slope."""

    norm: Norm
    mu: np.ndarray
    istd: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    slope: np.float32


def group_norm_leaky_relu(x: Tensor, gamma: Parameter, beta: Parameter,
                          group_size: int, epsilon: float = 1e-5,
                          slope: float = 0.01) -> Tensor:
    """GroupNorm over channel groups within each sample, the per-channel
    affine map gamma * x_hat + beta, then LeakyReLU of ``slope``, as one op
    that keeps only ``x`` (In-Place ABN's idea, Rota Bulò et al. 2018).

    ``group_size`` is the number of channels per group. Each sample is
    normalised straight into the output by ``_normalised_planes``, the
    helper the ``conv3d`` prologue runs, and the backward recomputes it from
    ``x`` in the same operation order, so no tape slot holds the normalised
    tensor. At ``slope=1`` the op is GroupNorm, bit for bit.

    No network records it. It stays as the whole-sample reference the
    slabbed ``norm`` prologue is composed against, and for its special-value
    tests, which an identity 1x1x1 kernel behind the prologue would spoil:
    ``0 * inf`` in the channel matmul spreads one channel's inf as NaN
    (``eye(3) @ [inf, 1, -0]`` is ``[inf, nan, nan]``), and ``-0 + 0 = +0``
    loses a zero's sign. Since it normalises through the network's helper,
    those tests check the code every unit runs.
    """
    op = "group_norm_leaky_relu"
    _check_axes(x, f"{op} input")
    _check_norm(op, x, gamma, beta, group_size)
    stats = _norm_setup(x.data, Norm(gamma, beta, group_size, epsilon, slope))
    out = np.empty(x.shape, dtype=np.float32)
    for i in range(0 if stats is None else x.shape[0]):
        _normalised_planes(x.data[i], stats, i, out=out[i])

    def backward_fn(g, inputs, _output):
        (x_val,) = inputs
        gx = g.copy()  # the engine's gradient is read-only here
        if stats is not None:
            _norm_backward(x_val, gx, stats)
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
    per group or channel; None for an empty ``x``, which the normalisation
    maps to itself."""
    if not x.size:
        return None
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
    return _NormStats(norm, mu, istd, scale, shift, np.float32(norm.slope))


def _normalised_planes(planes, stats, i, out=None):
    """LeakyReLU(GroupNorm(x)) of planes ``planes`` (C, ...) of sample ``i``
    of the input whose ``_NormStats`` are ``stats``, into ``out`` (a new
    array if None).

    The unit's forward, its reversible recompute, its backward's rebuild and
    ``group_norm_leaky_relu`` all form the normalised input here, so they
    round alike: the centred rows, the affine step in place, then the
    LeakyReLU.
    """
    z = planes.reshape(stats.scale.shape[1:3] + (-1,)) - stats.mu[i]
    _scale_shift(z, stats.scale[i], stats.shift)
    if out is None:
        out = np.empty(planes.shape, dtype=np.float32)
    _leaky_relu(z, stats.slope, out=out.reshape(z.shape))
    return out


def _norm_backward(x, gh, stats):
    """The input gradient of ``_normalised_planes`` over all of ``x``, whose
    ``_NormStats`` are ``stats``, formed in place in the gradient ``gh`` at
    its output; the gradients of ``stats.norm``'s gamma and beta are added
    to their ``grad``.

    Two passes over ``_tiles`` blocks of whole (sample, channel) rows. The
    first recomputes each block's ``z`` from ``x``, multiplies ``gh``'s rows
    by the LeakyReLU factor of its sign (the gradient at ``z``), then forms
    each row's sums of that and of it times ``x - mu`` over the whole row.
    The second, once every group's sums are known, recomputes each block's
    centred rows and turns the rows into the input gradient.
    """
    b, groups, group_size = stats.scale.shape[:3]
    c = groups * group_size
    xr, gr = x.reshape(b, c, -1), gh.reshape(b, c, -1)
    n = group_size * xr.shape[2]
    # the statistics per (sample, channel) row
    mu = np.repeat(stats.mu[..., 0], group_size, axis=1)
    scale, shift = stats.scale.reshape(b, c, 1), stats.shift.reshape(c, 1)
    blocks = [(i, slice(c0, c1)) for i in range(b)
              for c0, c1 in _tiles(c, 4 * xr.shape[2])]
    factors = np.array([stats.slope, 1], dtype=np.float32)
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
        del xc  # before the next block's
    sg = sg.reshape(b, groups, group_size)
    sgx = sgx.reshape(b, groups, group_size)
    istd = stats.istd
    gamma, beta = stats.norm.gamma, stats.norm.beta
    gam = gamma.value.data.reshape(groups, group_size)
    beta.grad.data += sg.sum(axis=0).reshape(beta.grad.shape)
    gamma.grad.data += (sgx * istd).sum(axis=0).reshape(gamma.grad.shape)
    # istd * (gamma*gg - mean(gamma*gg) - x_hat * mean(gamma*gg*x_hat))
    # = a*gg + k*(x - mu) + c: a per channel, k and c per group
    m1 = (gam * sg).sum(axis=2, keepdims=True) / n
    m2 = (gam * sgx).sum(axis=2, keepdims=True) / n
    k = np.repeat(-istd ** 3 * m2, group_size, axis=1)
    const = np.repeat(-istd * m1, group_size, axis=1)
    for i, rows in blocks:
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
    """Logistic function 1 / (1 + exp(-x)), each step in place in the
    output's one buffer."""
    _check_axes(x, "sigmoid input")
    o = np.negative(x.data)
    with np.errstate(over="ignore"):
        np.exp(o, out=o)
    o += 1
    np.divide(1.0, o, out=o)
    out = Tensor(o)

    def backward_fn(g, _inputs, output):
        return (g * output * (1.0 - output),)

    return record("sigmoid", out, [x], backward_fn, saves=("output",))


# ---------------------------------------------------------------------------
# resampling


def max_pool2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2x2 max pooling; ties go to the first voxel in scan
    order, and the backward routes the whole gradient there."""
    _check_axes(x, "max_pool2 input")
    shape = _pooled_shape(x.shape, "max_pool2")
    b, c, d2, h2, w2 = shape
    # the blocks of each output plane
    blocks, planes = (b * c * d2, 2, h2, 2, w2, 2), (b * c * d2, h2, w2)
    out = Tensor(_pool_blocks(x.data.reshape(blocks)).reshape(shape))

    def backward_fn(g, inputs, output):
        (x_val,) = inputs
        gx = np.zeros(x_val.shape, dtype=np.float32)
        _route_blocks(x_val.reshape(blocks), output.reshape(planes),
                      g.reshape(planes), gx.reshape(blocks))
        return (gx,)

    return record("max_pool2", out, [x], backward_fn,
                  saves=("inputs", "output"))


def _pooled_shape(shape, op="max_pool2"):
    """``max_pool2``'s output shape for an input of ``shape``, whose spatial
    extents must be even."""
    if any(e % 2 for e in shape[2:]):
        raise ShapeError(f"{op} requires even spatial extents, got {shape[2:]}")
    return tuple(shape[:2]) + tuple(e // 2 for e in shape[2:])


def _blocks(x):
    """The (C, D, H, W) planes ``x`` as a view of its 2x2x2 blocks: (C,
    D/2, 2, H/2, 2, W/2, 2), ``(dz, dy, dx)`` the axes -5, -3 and -1."""
    d, h, w = x.shape[-3:]
    return x.reshape(x.shape[:-3] + (d // 2, 2, h // 2, 2, w // 2, 2))


def _pool_blocks(v, out=None):
    """The maximum of each 2x2x2 block of ``v`` (N, ..., 2, h, 2, w, 2), a
    ``_blocks`` view, into ``out`` (N, ..., h, w), a new array if None, and
    returned: ``max_pool2``'s forward and ``conv3d``'s pooling prologue.

    Three pairwise maxima over strided views (z, then y, then x), one
    ``_tiles`` chunk along N at a time, the last straight into ``out``; no
    copy of the input is formed, and a NaN in a block wins.
    """
    if out is None:
        out = np.empty(v.shape[:-5] + v.shape[-4:-3] + v.shape[-2:-1],
                       dtype=np.float32)
    # a chunk's z and y maxima are 4 and 2 output elements per output element
    for t0, t1 in _tiles(len(v), 4 * 6 * out[:1].size):
        m = v[t0:t1]
        m = np.maximum(m[..., 0, :, :, :, :], m[..., 1, :, :, :, :])
        m = np.maximum(m[..., 0, :, :], m[..., 1, :, :])
        np.maximum(m[..., 0], m[..., 1], out=out[t0:t1])
    return out


def _route_blocks(v, pooled, g, gv):
    """``max_pool2``'s backward rule: the gradient ``g`` at the block maxima
    ``pooled`` (N, ..., h, w) of ``v`` (N, ..., 2, h, 2, w, 2) is written
    into ``gv``, the zeroed gradient of ``v``, one ``_tiles`` chunk along N
    at a time.

    The eight block positions go in (dz, dy, dx) scan order: each block's
    gradient goes to the first voxel equal to its maximum, or to its first
    NaN, and the block is then no longer free.
    """
    # the free and hit masks and two comparisons, a byte each per element
    for t0, t1 in _tiles(len(v), 4 * pooled[:1].size):
        free = np.ones(pooled[t0:t1].shape, dtype=bool)
        for dz, dy, dx in np.ndindex(2, 2, 2):
            xk = v[t0:t1, ..., dz, :, dy, :, dx]
            hit = (xk == pooled[t0:t1]) | np.isnan(xk)
            hit &= free
            np.copyto(gv[t0:t1, ..., dz, :, dy, :, dx], g[t0:t1], where=hit)
            free ^= hit


def _interp_matrix(n_in: int) -> np.ndarray:
    """Row-stochastic (2n x n) trilinear upsampling weights for one axis.

    Output voxel centers sit at input coordinate (o + 0.5) / 2 - 0.5,
    clamped into the valid range (the align-corners-false convention).
    Row o weighs its two neighbours i0 = floor(src) and i1 = min(i0 + 1,
    n - 1) by 1 - frac and frac; at the clamped ends they are one column,
    which gets 1 - frac first, then frac.
    """
    o = np.arange(2 * n_in)
    src = np.maximum((o + 0.5) / 2.0 - 0.5, 0.0)
    i0 = np.floor(src).astype(np.intp)
    frac = (src - i0).astype(np.float32)
    m = np.zeros((2 * n_in, n_in), dtype=np.float32)
    np.add.at(m, (o, i0), np.float32(1.0) - frac)
    np.add.at(m, (o, np.minimum(i0 + 1, n_in - 1)), frac)
    return m


def _upsample_data(x: np.ndarray, add_to: np.ndarray | None = None) -> np.ndarray:
    """Trilinear 2x upsampling of a (B, C, D, H, W) array; with ``add_to``,
    a contiguous float32 array of the result's shape, the upsampling is
    added into it, and it is returned.

    One contiguous batched matmul per axis, W then H then D; each result is
    already in the layout the next one reads, so nothing is transposed.
    The output is the one full-size buffer: the passes run over ``_tiles``
    groups of (sample, channel) slices, sized by each slice's W, H and D
    results together. The D pass writes straight into the group's slices of
    the output, or, for ``add_to``, forms ``_tiles`` chunks of at least two
    output depth planes, each added into ``add_to``'s as it is formed. Each
    slice gets the matrix products one whole-array pass gives it, so the
    result is the same bit for bit whatever the grouping.
    """
    b, c, d, h, w = x.shape
    md, mh, mw = _interp_matrix(d), _interp_matrix(h), _interp_matrix(w)
    out = add_to
    if out is None:
        out = np.empty((b, c, 2 * d, 2 * h, 2 * w), dtype=np.float32)
    slices = x.reshape(b * c, d * h, w)
    planes = out.reshape(b * c, 2 * d, 4 * h * w)
    # the W, H and D results are 2, 4 and 8 times a slice
    for s0, s1 in _tiles(b * c, 4 * 14 * d * h * w):
        n = s1 - s0
        y = slices[s0:s1].reshape(n * d * h, w) @ mw.T
        y = np.matmul(mh, y.reshape(n * d, h, 2 * w))
        y = y.reshape(n, d, 4 * h * w)
        if add_to is None:
            np.matmul(md, y, out=planes[s0:s1])
            continue
        # the D results in chunks of output depth planes, each added as it
        # is formed; no chunk is one plane, which numpy would hand to gemv
        # instead of the whole pass's gemm
        for r0, r1 in _tiles(2 * d, 4 * n * 4 * h * w, least=2):
            planes[s0:s1, r0:r1] += md[r0:r1] @ y
    return out


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
                   bias: Parameter, consume_skip: bool = False) -> Tensor:
    """The 1x1x1 ``conv3d(concat_channels(skip, upsample2(d)), kernel, bias)``
    without the concatenation: ``W_s @ skip + upsample2(W_u @ d) + bias``.

    ``W_s`` and ``W_u`` are the kernel's first ``C_skip`` and last ``C_d``
    input columns. A 1x1x1 conv mixes channels and the upsampling mixes
    voxels, so they commute, and the interpolation rows sum to one, so the
    bias passes through. ``d`` is mixed down to the output width at low
    resolution, and only that, ``u = W_u @ d``, is upsampled.

    With ``consume_skip`` the output is written into the skip's own buffer,
    which needs a skip of ``C_out`` channels; the caller sets it only when
    nothing reads the skip afterwards: not when a tape records the merge,
    whose backward reads it.

    The forward holds one full-resolution buffer, the output: ``W_s @
    skip`` is written into it per sample, one ``_tiles`` chunk of output
    columns (runs of depth planes) at a time, each chunk's skip columns
    read before they are overwritten; then ``u`` is formed one ``_tiles``
    chunk of output channels at a time, and ``_upsample_data`` adds each
    chunk's upsampling into its channel slice; the bias comes last. No
    chunk is one row or one column, so every product is a gemm, as in the
    whole-array sum. Every element gets the
    float32 operations of the whole-array sum ``(W_s @ skip + up) + b``,
    which IEEE addition makes ``(up + W_s @ skip) + b`` bit for bit. The
    backward applies the upsampling adjoint once, to ``g``, and writes the
    two kernel gradients into their column slices of ``kernel.grad``. It
    still forms whole-size products (the adjoint's, the skip gradient
    ``W_s^T @ g``) and the kernel gradient ``g @ skip^T`` as one product:
    splitting that product's columns would reorder its sums and change the
    gradient's bits, and training peaks in the reversible block backward,
    not here.
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
    if consume_skip and cs != out_ch:
        raise ShapeError(
            f"upsample_merge can write its {out_ch} output channels only into "
            f"a skip of as many, got {cs}")
    out = (skip.data if consume_skip
           else np.empty((b, out_ch, sd, sh, sw), dtype=np.float32))
    w2 = w.reshape(out_ch, cs + cd)
    w_s, w_u = w2[:, :cs], w2[:, cs:]
    n_hi, n_lo = sd * sh * sw, dd * dh * dw

    yf, sf = out.reshape(b, out_ch, n_hi), skip.data.reshape(b, cs, n_hi)
    df = d.data.reshape(b, cd, n_lo)
    # no product here has one row or one column: numpy hands that to BLAS
    # gemv, which orders its sums unlike the gemm of a whole-array product
    for i in range(b):
        for t0, t1 in _tiles(n_hi, 4 * out_ch, least=2):
            # in the skip's buffer, each chunk reads only the columns it writes
            np.matmul(w_s, sf[i, :, t0:t1], out=yf[i, :, t0:t1])
        for o0, o1 in _tiles(out_ch, 4 * n_lo, least=2):
            u = w_u[o0:o1] @ df[i]
            _upsample_data(u.reshape(1, o1 - o0, dd, dh, dw),
                           add_to=out[i:i + 1, o0:o1])
    out += bias.value.data
    out = Tensor(out)
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
        return g[:, :ca], g[:, ca:]

    return record("concat_channels", out, [a, b], backward_fn)


def _slice_channels(x: Tensor, lo: int, hi: int) -> Tensor:
    in_shape = x.shape
    # a copy: a view that some backward saves would keep its whole input alive
    out = Tensor(x.data[:, lo:hi].copy())

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
