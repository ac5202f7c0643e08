"""Reversible blocks and sequences with recompute-on-backward.

A reversible block splits its activation channels into two halves and couples
them additively:

    forward:  y1 = x1 + F(x2)        inverse:  x2 = y2 - G(y1)
              y2 = x2 + G(y1)                  x1 = y1 - F(x2)

Because the inverse is closed-form, a chain of blocks (a reversible sequence)
only has to keep its final output on the tape, and needs no buffer but its
input's: the forward couples in place in it, each F and G adding its output
into the other half slab by slab (``conv3d``'s ``add_to``), so no
sub-network output exists whole. The backward pass walks the blocks in
reverse: it re-executes F and G once each with recording on a short-lived
local tape, each subtracting its output slab by slab from the half it
rebuilds (``add_to`` with ``subtract``), so the block's inputs are rebuilt
in place in the same buffer and no recomputed output exists whole either;
the tapes give exact parameter and input gradients, and everything is
released before moving to the previous block. Transient memory is
therefore bounded by a single block regardless of depth. The
inverse exists once, in ``block_backward``, that step for one block; the
inversion checks run it, through ``sequence_backward``, with zero gradients.
"""

import numpy as np

from . import ops
from .tape import Tape, backward, no_record, record
from .tensor import Parameter, ShapeError, Tensor


class Module:
    """Minimal parameter container: its parameters are the Parameters among
    its attributes, those of its sub-Modules, and those held in lists and
    tuples, at any depth, in attribute order."""

    def parameters(self):
        return _parameters(vars(self).values())

    def __call__(self, x):
        return self.forward(x)


def _parameters(values):
    for value in values:
        if isinstance(value, Parameter):
            yield value
        elif isinstance(value, Module):
            yield from value.parameters()
        elif isinstance(value, (list, tuple)):
            yield from _parameters(value)


def he_kernel(rng, out_ch, in_ch, k, name=None) -> Parameter:
    """Fan-in scaled normal initialization for a (k, k, k) convolution."""
    fan_in = in_ch * k * k * k
    std = np.sqrt(2.0 / fan_in)
    data = rng.standard_normal((out_ch, in_ch, k, k, k), dtype=np.float32) * np.float32(std)
    return Parameter(data, id=name)


class ConvUnit(Module):
    """GroupNorm -> LeakyReLU -> conv3d with 'same' padding, as one
    ``ops.conv3d`` op with a ``norm`` prologue, which keeps only the unit's
    input and rebuilds the normalised activation in its backward.

    ``norm``, the unit's ``ops.Norm``, holds the GroupNorm affine
    parameters and the group size, epsilon and slope; it is built once and
    handed to every call, so its parameters come first: gamma, beta,
    kernel, bias.

    ``forward``'s ``add_to`` and ``subtract`` are ``conv3d``'s: the output
    added into, or subtracted from, that array.

    The standard residual sub-network used for both F and G, and at full
    width for the non-reversible baseline stacks.
    """

    def __init__(self, in_channels, out_channels, rng, kernel_size=3,
                 group_size=10, slope=0.01, epsilon=1e-5, name="unit"):
        if in_channels % group_size:
            raise ShapeError(
                f"{name}: input channels ({in_channels}) not divisible by "
                f"group size ({group_size})"
            )
        gamma = Parameter(np.ones((1, in_channels, 1, 1, 1), dtype=np.float32),
                          id=f"{name}.gamma")
        beta = Parameter(np.zeros((1, in_channels, 1, 1, 1), dtype=np.float32),
                         id=f"{name}.beta")
        self.norm = ops.Norm(gamma, beta, group_size, epsilon, slope)
        self.kernel = he_kernel(rng, out_channels, in_channels, kernel_size,
                                name=f"{name}.kernel")
        self.bias = Parameter(np.zeros((1, out_channels, 1, 1, 1), dtype=np.float32),
                              id=f"{name}.bias")

    def forward(self, x: Tensor, add_to=None, subtract=False) -> Tensor:
        return ops.conv3d(x, self.kernel, self.bias, norm=self.norm,
                          add_to=add_to, subtract=subtract)


class ReversibleBlock(Module):
    """Two coupled half-width sub-networks F and G of identical shape."""

    def __init__(self, f: Module, g: Module):
        self.f = f
        self.g = g


def make_block(channels, rng, kernel_size=3, group_size=10, slope=0.01,
               epsilon=1e-5, name="block") -> ReversibleBlock:
    if channels % 2:
        raise ShapeError(f"{name}: reversible width must be even, got {channels}")
    half = channels // 2
    f, g = (ConvUnit(half, half, rng, kernel_size, group_size, slope, epsilon,
                     name=f"{name}.{sub}") for sub in "fg")
    return ReversibleBlock(f, g)


def block_forward(block: ReversibleBlock, x1: Tensor, x2: Tensor):
    if x1.shape != x2.shape:
        raise ShapeError(
            f"block_forward halves must match, got {x1.shape} and {x2.shape}"
        )
    y1 = ops.add(x1, block.f(x2))
    y2 = ops.add(x2, block.g(y1))
    return y1, y2


class ReversibleSequence(Module):
    """Chain of reversible blocks of one channel width.

    ``forward`` couples in its input's buffer, which becomes its output: for
    each sample, over the channel halves of that buffer (contiguous views at
    any batch size), x1 += F(x2), then x2 += G(x1), block by block. F and G
    are ``ConvUnit``s, whose convolution adds each depth slab of its output
    into the half (``add_to``), so neither output is ever formed whole; each
    element gets the float32 operations of ``x1 + F(x2)``. It registers a
    single tape node retaining only that output, whose backward,
    ``sequence_backward``, rebuilds each block's inputs in the same buffer.
    So a sequence holds one buffer, whatever its depth. A caller that reads
    ``x`` after the forward copies it first.

    ``forward_stored`` records every interior op and serves as the
    stored-activation reference implementation.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def forward(self, x: Tensor) -> Tensor:
        y = x.data
        with no_record():
            for h1, h2 in _sample_halves(y):
                x1, x2 = Tensor(h1), Tensor(h2)
                for block in self.blocks:
                    block.f.forward(x2, add_to=x1.data)
                    block.g.forward(x1, add_to=x2.data)

        def backward_fn(grad_out, _inputs, output):
            return (sequence_backward(self, grad_out, output),)

        return record("reversible_sequence", Tensor(y), [x], backward_fn,
                      params=tuple(self.parameters()), saves=("output",))

    def forward_stored(self, x: Tensor) -> Tensor:
        x1, x2 = ops.split_channels(x, _half_width(x))
        for block in self.blocks:
            x1, x2 = block_forward(block, x1, x2)
        return ops.concat_channels(x1, x2)


def _half_width(x) -> int:
    c = x.shape[1]
    if c % 2:
        raise ShapeError(f"reversible sequence needs an even channel count, got {c}")
    return c // 2


def _sample_halves(a: np.ndarray) -> list:
    """Each sample's two channel halves of ``a``: contiguous views."""
    half = _half_width(a)
    return [(a[i:i + 1, :half], a[i:i + 1, half:]) for i in range(a.shape[0])]


def block_backward(block: ReversibleBlock, y1: Tensor, y2: Tensor,
                   g1: np.ndarray, g2: np.ndarray) -> None:
    """A block's inverse and backward in one step, in place, as in RevNet's
    Algorithm 1: x2 = y2 - G(y1), then x1 = y1 - F(x2), rebuilt in the
    buffers of ``y1`` and ``y2``; the input gradient halves in those of the
    output gradient halves ``g1`` and ``g2``; F's and G's parameter
    gradients added. With zero gradient halves it is the inverse alone.

    Each sub-network is re-executed exactly once on a short-lived local
    tape, its convolution subtracting slab by slab from the half it rebuilds
    (``conv3d``'s ``add_to`` with ``subtract``): G's recording turns y2 into
    x2 = y2 - G(y1) and, seeded with ``g2``, yields the gradient flowing
    into y1; F's recording then turns y1 into x1 = y1 - F(x2) and yields
    the gradient flowing into x2. No recomputed output exists whole:
    beside the gradient, the block backward holds only each sub-network's
    input gradient, one half, until it is added into ``g1`` (``g2``). Each
    recorded node saves only its input, the half the other sub-network
    rebuilds afterwards: y1 is overwritten only once G's backward, its last
    reader, is done.
    """
    if y1.shape != y2.shape:
        raise ShapeError(
            f"block_backward halves must match, got {y1.shape} and {y2.shape}"
        )
    with Tape() as tg:
        x2 = block.g.forward(y1, add_to=y2.data, subtract=True)
    (dy1,) = backward(tg, x2, g2, wrt=[y1])
    g1 += dy1
    del dy1

    with Tape() as tf:
        x1 = block.f.forward(y2, add_to=y1.data, subtract=True)
    (dx2,) = backward(tf, x1, g1, wrt=[y2])
    g2 += dx2


def sequence_backward(seq: ReversibleSequence, grad_out: np.ndarray, y) -> np.ndarray:
    """Gradient of a reversible sequence given only its output, computed in
    the buffers of ``y`` and ``grad_out``: for each sample, as the forward
    walks them, ``block_backward`` for each block, last block first, on
    Tensors over the sample's channel halves of ``y`` and the same views of
    ``grad_out`` (contiguous at any batch), so each block's inputs are
    rebuilt in ``y``, parameter gradients are summed sample by sample and
    ``grad_out`` is returned as the input gradient. A caller that still
    needs ``y`` or ``grad_out`` copies it first; the tape engine hands it a
    gradient buffer nothing else holds (see ``tape.record``).
    """
    y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float32)
    grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
    if grad_out.shape != y_data.shape:
        raise ShapeError(f"sequence gradient shape {grad_out.shape} does not match "
                         f"output shape {y_data.shape}")
    for (h1, h2), (g1, g2) in zip(_sample_halves(y_data), _sample_halves(grad_out)):
        y1, y2 = Tensor(h1), Tensor(h2)
        for block in reversed(seq.blocks):
            block_backward(block, y1, y2, g1, g2)
    return grad_out
