"""Reversible blocks and sequences with recompute-on-backward.

A reversible block splits its activation channels into two halves and couples
them additively:

    forward:  y1 = x1 + F(x2)        inverse:  x2 = y2 - G(y1)
              y2 = x2 + G(y1)                  x1 = y1 - F(x2)

Because the inverse is closed-form, a chain of blocks (a reversible sequence)
only has to keep its final output on the tape. The backward pass walks the
blocks in reverse: it reconstructs each block's inputs, re-executes F and G
once with recording on a short-lived local tape to obtain exact parameter and
input gradients, and releases everything before moving to the previous block.
Transient memory is therefore bounded by a single block regardless of depth.
"""

import numpy as np

from . import ops
from .tape import Tape, backward, no_record, record
from .tensor import Parameter, ShapeError, Tensor


class Module:
    """Minimal parameter container."""

    def parameters(self):
        for value in vars(self).values():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()

    def __call__(self, x):
        return self.forward(x)


def he_kernel(rng, out_ch, in_ch, k, name=None) -> Parameter:
    """Fan-in scaled normal initialization for a (k, k, k) convolution."""
    fan_in = in_ch * k * k * k
    std = np.sqrt(2.0 / fan_in)
    data = rng.standard_normal((out_ch, in_ch, k, k, k), dtype=np.float32) * np.float32(std)
    return Parameter(data, id=name)


class ConvUnit(Module):
    """group_norm -> leaky_relu -> conv3d with 'same' padding.

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
        self.group_size = group_size
        self.slope = slope
        self.epsilon = epsilon
        self.gamma = Parameter(np.ones((1, in_channels, 1, 1, 1), dtype=np.float32),
                               id=f"{name}.gamma")
        self.beta = Parameter(np.zeros((1, in_channels, 1, 1, 1), dtype=np.float32),
                              id=f"{name}.beta")
        self.kernel = he_kernel(rng, out_channels, in_channels, kernel_size,
                                name=f"{name}.kernel")
        self.bias = Parameter(np.zeros((1, out_channels, 1, 1, 1), dtype=np.float32),
                              id=f"{name}.bias")

    def forward(self, x: Tensor) -> Tensor:
        h = ops.group_norm(x, self.gamma, self.beta, self.group_size, self.epsilon)
        h = ops.leaky_relu(h, self.slope)
        return ops.conv3d(h, self.kernel, self.bias, padding="same")


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


def block_inverse(block: ReversibleBlock, y1: Tensor, y2: Tensor):
    if y1.shape != y2.shape:
        raise ShapeError(
            f"block_inverse halves must match, got {y1.shape} and {y2.shape}"
        )
    x2 = ops.sub(y2, block.g(y1))
    x1 = ops.sub(y1, block.f(x2))
    return x1, x2


class ReversibleSequence(Module):
    """Chain of reversible blocks of one channel width.

    ``forward`` registers a single tape node retaining only the final output;
    ``forward_stored`` records every interior op and serves as the
    stored-activation reference implementation.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def forward(self, x: Tensor) -> Tensor:
        c = x.shape[1]
        if c % 2:
            raise ShapeError(f"reversible sequence needs an even channel count, got {c}")
        with no_record():
            y = self._run_forward(x)
        seq = self

        def backward_fn(grad_out, _inputs, output):
            return (sequence_backward(seq, grad_out, output),)

        return record("reversible_sequence", y, [x], backward_fn,
                      params=tuple(self.parameters()), saves=("output",))

    def forward_stored(self, x: Tensor) -> Tensor:
        c = x.shape[1]
        if c % 2:
            raise ShapeError(f"reversible sequence needs an even channel count, got {c}")
        return self._run_forward(x)

    def _run_forward(self, x: Tensor) -> Tensor:
        if not self.blocks:
            # Identity; still a fresh tensor so the caller owns its buffer.
            out = Tensor(x.data.copy())
            return record("identity", out, [x], lambda g, _i, _o: (g,))
        x1, x2 = ops.split_channels(x, x.shape[1] // 2)
        for block in self.blocks:
            x1, x2 = block_forward(block, x1, x2)
        return ops.concat_channels(x1, x2)


def sequence_backward(seq: ReversibleSequence, grad_out: np.ndarray, y) -> np.ndarray:
    """Gradient of a reversible sequence given only its output.

    Walks the blocks in reverse. For each block the two sub-networks are
    re-executed exactly once on short-lived local tapes: G's recording both
    yields the reconstruction term y2 - G(y1) and, seeded with the incoming
    gradient of y2, the gradient flowing into y1; F's recording then yields
    x1 = y1 - F(x2) and the gradient flowing into x2. The tapes record only
    the sub-network, and the subtraction runs unrecorded, so no tape slot
    holds the consumed half once its name is dropped. The reconstructed pair
    becomes the "output" of the preceding block, so no whole-sequence buffer
    ever exists.
    """
    y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float32)
    grad_out = np.ascontiguousarray(grad_out, dtype=np.float32)
    if grad_out.shape != y_data.shape:
        raise ShapeError(
            f"sequence gradient shape {grad_out.shape} does not match "
            f"output shape {y_data.shape}"
        )
    c = y_data.shape[1]
    if not seq.blocks:
        return grad_out.copy()
    half = c // 2

    with no_record():
        y1 = Tensor(np.ascontiguousarray(y_data[:, :half]))
        y2 = Tensor(np.ascontiguousarray(y_data[:, half:]))
        g1 = Tensor(np.ascontiguousarray(grad_out[:, :half]))
        g2 = Tensor(np.ascontiguousarray(grad_out[:, half:]))

    for block in reversed(seq.blocks):
        with Tape() as tg:
            gy1 = block.g(y1)
        with no_record():
            x2 = ops.sub(y2, gy1)
        y2 = None
        (dy1_g,) = backward(tg, gy1, g2.data, wrt=[y1])
        del tg, gy1
        dy1 = Tensor(g1.data + dy1_g)
        g1 = None
        del dy1_g

        with Tape() as tf:
            fx2 = block.f(x2)
        with no_record():
            x1 = ops.sub(y1, fx2)
        y1 = None
        (dx2_f,) = backward(tf, fx2, dy1.data, wrt=[x2])
        del tf, fx2
        dx2 = Tensor(g2.data + dx2_f)
        del dx2_f

        y1, y2, g1, g2 = x1, x2, dy1, dx2

    return np.concatenate([g1.data, g2.data], axis=1)
