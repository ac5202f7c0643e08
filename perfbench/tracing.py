"""Per-layer tracing for the benchmark's traced run.

``install`` replaces the public functions each revvolnet layer exposes with
wrappers that time them; ``uninstall`` puts the originals back. The untraced
run never calls ``install``, so its timed path runs the program's own
functions (``wrapped_targets`` lets it check that).

Each wrapped call is a span. A span's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all spans
in one operation add up to the part of that operation spent in named layers.
"""

import time
from collections import defaultdict

from revvolnet import ops, reversible, tape, training, unet

OP_CATEGORIES = ("conv3d_k3", "conv3d_k1", "group_norm", "leaky_relu",
                 "max_pool2", "upsample2", "other")
_MARK = "__perfbench_span__"
# ops.*: the public functions ops defines, listed before anything is wrapped
OP_FUNCTIONS = sorted(name for name, obj in vars(ops).items()
                      if callable(obj) and not name.startswith("_")
                      and getattr(obj, "__module__", None) == ops.__name__
                      and not isinstance(obj, type))


def conv_flops(out_shape, kernel_shape) -> int:
    """Multiply-add FLOPs of one stride-1 convolution forward call."""
    b, _, d, h, w = out_shape
    out_ch, in_ch, kd, kh, kw = kernel_shape
    return 2 * b * d * h * w * out_ch * in_ch * kd * kh * kw


def window_bytes(out_shape, kernel_shape) -> int:
    """Bytes of the float32 im2col window matrix one convolution call
    materialises: in_channels * k^3 values per output voxel."""
    b, _, d, h, w = out_shape
    _, in_ch, kd, kh, kw = kernel_shape
    return 4 * b * d * h * w * in_ch * kd * kh * kw


def _conv_category(kernel_shape) -> str:
    return "conv3d_k1" if tuple(kernel_shape[2:]) == (1, 1, 1) else "conv3d_k3"


def _op_category(name: str) -> str:
    return name if name in OP_CATEGORIES else "other"


class Tracer:
    """Accumulates inclusive time, self time and counters per span key."""

    def __init__(self):
        self._open = []  # time spent in child spans, one entry per open span
        self._in_sequence_backward = 0
        self.reset()

    def reset(self) -> None:
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)

    def span(self, key, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            own = dt - self._open.pop()
            self.inclusive[key] += dt
            self.self_time[key] += own
            if self._open:
                self._open[-1] += dt
            if self._in_sequence_backward and key.endswith(".fwd"):
                self.counts["reversible.recompute_fwd_s"] += own

    def conv_call(self, phase, out_shape, kernel_shape, flop_factor):
        cat = _conv_category(kernel_shape)
        self.counts[f"ops.{cat}.{phase}_flop"] += (
            flop_factor * conv_flops(out_shape, kernel_shape))
        key = f"ops.{cat}.window_bytes"
        self.counts[key] = max(self.counts[key],
                               window_bytes(out_shape, kernel_shape))

    def layer_metrics(self, op_s: float) -> dict:
        """Per-layer numbers of one operation that took ``op_s`` seconds."""
        inc, own, cnt = self.inclusive, self.self_time, self.counts
        m = {}
        for cat in OP_CATEGORIES:
            m[f"ops.{cat}.fwd_s"] = own[f"ops.{cat}.fwd"]
            m[f"ops.{cat}.bwd_s"] = own[f"ops.{cat}.bwd"]
        fwd_flop = cnt["ops.conv3d_k3.fwd_flop"]
        bwd_flop = cnt["ops.conv3d_k3.bwd_flop"]
        m["ops.conv3d.calls"] = cnt["ops.conv3d.calls"]
        m["ops.conv3d_k3.gflop"] = (fwd_flop + bwd_flop) / 1e9
        m["ops.conv3d_k3.fwd_gflops"] = _rate(fwd_flop, m["ops.conv3d_k3.fwd_s"])
        m["ops.conv3d_k3.bwd_gflops"] = _rate(bwd_flop, m["ops.conv3d_k3.bwd_s"])
        m["ops.conv3d_k3.window_bytes"] = cnt["ops.conv3d_k3.window_bytes"]
        m["reversible.forward_s"] = inc["reversible.forward"]
        m["reversible.sequence_backward_s"] = inc["reversible.sequence_backward"]
        m["reversible.recompute_fwd_s"] = cnt["reversible.recompute_fwd_s"]
        m["reversible.blocks_recomputed"] = cnt["reversible.blocks_recomputed"]
        m["reversible.recompute_share"] = inc["reversible.sequence_backward"] / op_s
        m["tape.backprop_s"] = inc["tape.backprop"]
        m["tape.self_s"] = own["tape.backprop"]
        m["unet.forward_s"] = inc["unet.forward"]
        for name in ("augment", "standardize", "dice_loss", "adam_step"):
            m[f"training.{name}_s"] = inc[f"training.{name}"]
        m["trace.attributed_share"] = sum(own.values()) / op_s
        return m


def _rate(flop, seconds):
    return flop / seconds / 1e9 if seconds > 0 else 0.0


def wrapped_targets() -> list:
    """Names of the traced functions that are currently wrapped."""
    return [f"{owner.__name__}.{attr}" for owner, attr, _make in _targets()
            if getattr(getattr(owner, attr), _MARK, False)]


def _mark(fn):
    setattr(fn, _MARK, True)
    return fn


def _wrap_op(tracer, name, orig):
    if name in ("conv3d", "conv1x1x1"):
        def conv(x, kernel, *args, **kwargs):
            kshape = kernel.value.shape
            out = tracer.span(f"ops.{_conv_category(kshape)}.fwd", orig,
                              x, kernel, *args, **kwargs)
            if name == "conv3d":
                tracer.counts["ops.conv3d.calls"] += 1
                tracer.conv_call("fwd", out.shape, kshape, 1)
            return out
        return conv
    return _span(f"ops.{_op_category(name)}.fwd")(tracer, orig)


def _wrap_record(tracer, orig, bwd_key_of):
    def record(op, out, inputs, backward_fn, **kwargs):
        key = bwd_key_of(op, kwargs)
        conv_shapes = None
        if op == "conv3d":
            conv_shapes = (out.shape, kwargs["params"][0].value.shape)

        def traced_backward(g, input_values, output_value):
            if conv_shapes is not None:
                # the weight and the input gradient each cost one forward
                tracer.conv_call("bwd", *conv_shapes, 2)
            return tracer.span(key, backward_fn, g, input_values, output_value)

        return orig(op, out, inputs, traced_backward, **kwargs)
    return record


def _ops_bwd_key(op, kwargs):
    if op == "conv3d":
        return f"ops.{_conv_category(kwargs['params'][0].value.shape)}.bwd"
    return f"ops.{_op_category(op)}.bwd"


def _wrap_sequence_backward(tracer, orig):
    def sequence_backward(seq, grad_out, y):
        tracer.counts["reversible.blocks_recomputed"] += len(seq.blocks)
        tracer._in_sequence_backward += 1
        try:
            return tracer.span("reversible.sequence_backward", orig,
                               seq, grad_out, y)
        finally:
            tracer._in_sequence_backward -= 1
    return sequence_backward


def _span(key):
    def make(tracer, orig):
        return lambda *args, **kwargs: tracer.span(key, orig, *args, **kwargs)
    return make


def _targets():
    """(owner, attribute, wrapper factory) for every traced function."""
    pairs = [(ops, name, lambda tracer, orig, name=name: _wrap_op(tracer, name, orig))
             for name in OP_FUNCTIONS]
    pairs += [
        (ops, "record", lambda tracer, orig: _wrap_record(tracer, orig, _ops_bwd_key)),
        (training, "record", lambda tracer, orig: _wrap_record(
            tracer, orig, lambda op, _kwargs: f"training.{op}")),
        (reversible, "sequence_backward", _wrap_sequence_backward),
        (reversible.ReversibleSequence, "forward", _span("reversible.forward")),
        (reversible.ReversibleSequence, "forward_stored", _span("reversible.forward")),
        (tape, "backprop", _span("tape.backprop")),
        (unet.Network, "forward", _span("unet.forward")),
        (unet, "forward_full_volume", _span("unet.forward_full_volume")),
        (unet, "load_checkpoint", _span("unet.load_checkpoint")),
    ]
    pairs += [(training, name, _span(f"training.{name}")) for name in
              ("augment", "standardize", "dice_loss", "adam_step",
               "generate_synthetic")]
    return pairs


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns what ``uninstall`` needs."""
    saved = []
    for owner, attr, make in _targets():
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _mark(make(tracer, orig)))
    return saved


def uninstall(saved) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
