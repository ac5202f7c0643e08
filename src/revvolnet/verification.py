"""Correctness checks: finite-difference gradient tests for every primitive
op, reversible-vs-stored gradient equivalence, and block inversion trials.

The finite-difference oracle never touches the backward implementations: it
re-runs forward passes on perturbed copies. Op inputs are drawn as permuted
lattices so that kinked ops (leaky_relu, max_pool2) are probed away from
their kinks and pooling windows have no near-ties.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .reversible import ReversibleSequence, block_forward, block_inverse, make_block
from .tape import Tape, backprop, no_record
from .tensor import Parameter, Tensor

FD_STEP = 1e-3
FD_RTOL = 1e-3
FD_ATOL = 1e-5


def lattice(rng, shape, lo=-1.0, hi=1.0):
    """Random permutation of evenly spaced values: all entries distinct,
    pairwise gaps well above the finite-difference step."""
    n = int(np.prod(shape))
    values = np.linspace(lo, hi, n, dtype=np.float32)
    return rng.permutation(values).reshape(shape)


def fd_gradient(forward, arrays, key, h=FD_STEP):
    """Central finite differences of ``forward(arrays)`` wrt ``arrays[key]``."""
    base = arrays[key]
    grad = np.zeros_like(base, dtype=np.float64)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + np.float32(h)
        hi = forward(arrays)
        flat[i] = orig - np.float32(h)
        lo = forward(arrays)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


@dataclass
class GradCheckResult:
    name: str
    worst_rel_error: float
    passed: bool


def _compare(analytic, fd, rtol=FD_RTOL, atol=FD_ATOL):
    analytic = np.asarray(analytic, dtype=np.float64)
    err = np.abs(analytic - fd)
    ok = bool(np.all(err <= rtol * np.abs(fd) + atol))
    worst = float((err / (np.abs(fd) + atol)).max()) if err.size else 0.0
    return worst, ok


def _probe_weights(rng, shape):
    return (rng.standard_normal(shape) * 0.05).astype(np.float32)


def _probe_value(y, w):
    """Oracle-side float64 inner product; avoids rounding the probe loss
    through the engine's float32 scalar."""
    return float((y.data.astype(np.float64) * w).sum())


def _dice_value(pred, target, eps=1e-5):
    """Oracle-side float64 soft Dice sum, written from the definition."""
    p = pred.astype(np.float64)
    g = target.astype(np.float64)
    axes = (0, 2, 3, 4)
    num = 2.0 * (p * g).sum(axis=axes) + eps
    den = p.sum(axis=axes) + g.sum(axis=axes) + eps
    return float((1.0 - num / den).sum())


def _case(rng, name, fn, arrays, params=()):
    """Probe-loss case for ``fn``, called on the named ``arrays`` in order,
    wrapped as Parameters for the keys in ``params`` and as Tensors otherwise.

    The probe weights are drawn for ``fn``'s output shape. The analytic side
    reads the Tensor gradients from the tape and the Parameter gradients from
    their buffers.
    """

    def wrap(a):
        return {k: Parameter(v) if k in params else Tensor(v)
                for k, v in a.items()}

    with no_record():
        w = _probe_weights(rng, fn(*wrap(arrays).values()).shape)

    def forward(a):
        with no_record():
            return _probe_value(fn(*wrap(a).values()), w)

    def analytic(a):
        leaves = wrap(a)
        tensors = [k for k in leaves if k not in params]
        with Tape() as tape:
            loss = ops.weighted_sum(fn(*leaves.values()), w)
            grads = backprop(tape, loss, wrt=[leaves[k] for k in tensors])
        return {**dict(zip(tensors, grads)),
                **{k: leaves[k].grad.data for k in params}}

    return (name, arrays, forward, analytic)


def _case_dice(rng):
    from .training import dice_loss

    pred = (0.05 + 0.9 * rng.random((1, 3, 4, 4, 4))).astype(np.float32)
    target = (rng.random((1, 3, 4, 4, 4)) < 0.4).astype(np.float32)

    def forward(a):
        return _dice_value(a["pred"], target)

    def analytic(a):
        pt = Tensor(a["pred"])
        with Tape() as tape:
            loss = dice_loss(pt, target)
            (gp,) = backprop(tape, loss, wrt=[pt])
        return {"pred": gp}

    return ("dice_loss", {"pred": pred}, forward, analytic)


def _op_cases(rng):
    """Each case: (name, arrays, forward(arrays)->float, analytic(arrays)->dict).

    Cases are built in order, each drawing its arrays and then its probe
    weights from ``rng``.
    """

    def conv_arrays(in_shape, kernel_shape):
        return {"input": lattice(rng, in_shape),
                "kernel": (rng.standard_normal(kernel_shape) * 0.1
                           ).astype(np.float32),
                "bias": (rng.standard_normal((1, kernel_shape[0], 1, 1, 1))
                         * 0.1).astype(np.float32)}

    def split_then_concat(t):
        a, b = ops.split_channels(t, 2)
        return ops.concat_channels(ops.leaky_relu(a, 0.2), b)

    def input_lattice(shape):
        return {"input": lattice(rng, shape)}

    conv_params = ("kernel", "bias")
    return [
        _case(rng, "conv3d", ops.conv3d,
              conv_arrays((1, 2, 4, 4, 4), (2, 2, 3, 3, 3)), conv_params),
        _case(rng, "conv1x1x1", ops.conv1x1x1,
              conv_arrays((1, 3, 3, 3, 3), (2, 3, 1, 1, 1)), conv_params),
        # Conditioning: small inputs make 1/std amplify the input gradients,
        # and a small gamma keeps the outputs (hence their float32 rounding,
        # the noise floor of the difference quotient) well below the
        # gradients.
        _case(rng, "group_norm",
              lambda x, gamma, beta: ops.group_norm(x, gamma, beta, group_size=2),
              {"input": lattice(rng, (2, 4, 3, 3, 3), lo=-0.25, hi=0.25),
               "gamma": (0.1 * (1.0 + rng.standard_normal((1, 4, 1, 1, 1)) * 0.1)
                         ).astype(np.float32),
               "beta": (rng.standard_normal((1, 4, 1, 1, 1)) * 0.01
                        ).astype(np.float32)},
              ("gamma", "beta")),
        _case(rng, "leaky_relu", lambda t: ops.leaky_relu(t, 0.01),
              input_lattice((1, 2, 4, 4, 4))),
        _case(rng, "sigmoid", ops.sigmoid, input_lattice((1, 2, 3, 3, 3))),
        _case(rng, "max_pool2", ops.max_pool2, input_lattice((1, 2, 4, 4, 4))),
        _case(rng, "upsample2", ops.upsample2, input_lattice((1, 2, 3, 3, 3))),
        _case(rng, "upsample_merge", ops.upsample_merge,
              {"skip": lattice(rng, (1, 2, 4, 2, 6)),
               **conv_arrays((1, 3, 2, 1, 3), (2, 5, 1, 1, 1))}, conv_params),
        _case(rng, "reduce_sum", ops.reduce_sum, input_lattice((1, 2, 3, 3, 3))),
        _case(rng, "split_concat", split_then_concat,
              input_lattice((1, 4, 3, 3, 3))),
        _case(rng, "add_sub", lambda a, b: ops.sub(ops.add(a, b), b),
              {"a": lattice(rng, (1, 2, 3, 3, 3)),
               "b": lattice(rng, (1, 2, 3, 3, 3))}),
        _case(rng, "weighted_sum", lambda t: t, input_lattice((1, 2, 3, 3, 3))),
        _case_dice(rng),
    ]


def run_op_gradchecks(seed: int = 0):
    """Finite-difference check of every primitive op; returns per-op results."""
    rng = np.random.default_rng(seed)
    results = []
    for name, arrays, forward, analytic in _op_cases(rng):
        grads = analytic(arrays)
        worst = 0.0
        passed = True
        for key in arrays:  # every case returns a gradient per array
            fd = fd_gradient(forward, arrays, key)
            w, ok = _compare(grads[key], fd)
            worst = max(worst, w)
            passed = passed and ok
        results.append(GradCheckResult(name, worst, passed))
    return results


# ---------------------------------------------------------------------------
# reversible checks


def toy_block(channels, rng, kernel_size=3, scale=0.1):
    """Random reversible block: conv weights/biases from scale*N(0,1),
    normalization affine jittered around identity."""
    half = channels // 2
    # one normalization group spanning the half width keeps any width legal
    block = make_block(channels, rng, kernel_size=kernel_size, group_size=half)
    for unit in (block.f, block.g):
        unit.kernel.value.data[...] = (rng.standard_normal(unit.kernel.shape)
                                       * scale).astype(np.float32)
        unit.bias.value.data[...] = (rng.standard_normal(unit.bias.shape)
                                     * scale).astype(np.float32)
        unit.gamma.value.data[...] = (1.0 + rng.standard_normal(unit.gamma.shape)
                                      * scale).astype(np.float32)
        unit.beta.value.data[...] = (rng.standard_normal(unit.beta.shape)
                                     * scale).astype(np.float32)
    return block


def inversion_trials(seed: int = 0, trials: int = 100, width: int = 8,
                     spatial: int = 8, batch: int = 1) -> float:
    """Max abs round-trip error of block_inverse(block_forward(x)) over random
    blocks and inputs."""
    rng = np.random.default_rng(seed)
    half = width // 2
    worst = 0.0
    for _ in range(trials):
        block = toy_block(width, rng)
        x1 = Tensor((rng.standard_normal((batch, half, spatial, spatial, spatial))
                     * 0.1).astype(np.float32))
        x2 = Tensor((rng.standard_normal((batch, half, spatial, spatial, spatial))
                     * 0.1).astype(np.float32))
        with no_record():
            y1, y2 = block_forward(block, x1, x2)
            r1, r2 = block_inverse(block, y1, y2)
        err = max(np.abs(r1.data - x1.data).max(), np.abs(r2.data - x2.data).max())
        worst = max(worst, float(err))
    return worst


def toy_sequence(depth, width, rng, kernel_size=3):
    return ReversibleSequence([toy_block(width, rng, kernel_size)
                               for _ in range(depth)])


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Infinity-norm error of a against reference b, relative to b's scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(b).max()) if b.size else 0.0, 1e-12)
    return float(np.abs(a - b).max() / scale) if a.size else 0.0


def sequence_equivalence(seed: int = 0, depth: int = 3, width: int = 8,
                         spatial=(4, 4, 4), batch: int = 2) -> dict:
    """Compare the recompute-on-backward gradients of a reversible sequence
    against a reference that stores every interior activation.

    Returns per-quantity relative errors (input gradient plus every
    parameter gradient) and the worst one.
    """
    rng = np.random.default_rng(seed)
    seq = toy_sequence(depth, width, rng)
    x_data = (rng.standard_normal((batch, width) + tuple(spatial)) * 0.1
              ).astype(np.float32)
    probe = _probe_weights(rng, (batch, width) + tuple(spatial))
    params = list(seq.parameters())

    def run(stored: bool):
        for p in params:
            p.zero_grad()
        xt = Tensor(x_data.copy())
        with Tape() as tape:
            y = seq.forward_stored(xt) if stored else seq.forward(xt)
            loss = ops.weighted_sum(y, probe)
            (gx,) = backprop(tape, loss, wrt=[xt])
        grads = {"input": gx if gx is not None else np.zeros_like(x_data)}
        for p in params:
            grads[p.id] = p.grad.data.copy()
        return grads

    ref = run(stored=True)
    rev = run(stored=False)
    errors = {key: relative_error(rev[key], ref[key]) for key in ref}
    worst = max(errors.values()) if errors else 0.0
    return {"errors": errors, "worst": worst, "depth": depth}
