"""Analytic training-memory estimates and the runtime peak accountant.

Two closed-form totals are computed from a network's trace (the activations
its stored-activation execution records, see ``Network.trace``), all in exact
integer bytes:

* stored-activation training (every saved layer output retained)::

      total_nonrev = sum(M_A + M_P over layers) + max(M_D over layers)

* partially reversible training (sequence interiors recomputed)::

      total_prev = sum(M_N over non-reversible layers)
                 + sum(M_S over sequence boundaries)
                 + sum(M_P over layers)
                 + max(M_B over sequences)

where M_A/M_N/M_S are activation bytes, M_P is parameter-related bytes
(PARAM_COPIES copies of the raw parameter bytes: the value, its gradient
and Adam's two moments, as a training step holds them; a test pins the two
together) and M_D is one activation-gradient buffer.

The tape retains only the outputs some backward reads, and the model mirrors
it: each term carries the trace's ``saved`` flag, and M_A and M_N sum the
activation bytes of saved terms only. M_S sums every boundary, saved in the
stored trace or not, because a reversible sequence's node always keeps its
output for its backward. So ``sum(M_A)`` is what the stored-mode tape retains
after the forward pass, and ``sum(M_N) + sum(M_S)`` what the reversible-mode
tape retains.

M_B models this engine's per-block backward strategy as
BLOCK_BACKWARD_HALF_BUFFERS half-width buffers, memtrack's count at the peak
of one block's backward through the tape at any batch (a test pins the two
together): the incoming gradient's two halves. G's seed is a view of that
gradient and adds nothing. The block's input halves are rebuilt in the
boundary's output, so they stay in M_S: each recomputed sub-network, one
``conv3d`` op with a ``norm`` prologue, subtracts its output slab by slab
from the half it rebuilds, so no recomputed output exists whole, and it
saves only its input and rebuilds its normalised activation in its
backward. memtrack does not count the sub-network's input gradient, a whole
half that the nested ``tape.backward`` returns for ``wrt`` (the engine holds
only the gradients it keeps) and the block adds into a gradient half, so
three half-width buffers are live at that moment. Counted by tracemalloc,
one width-10 block at 32^3 allocates 1.90 halves beside the output and the
incoming gradient: that input gradient and kernel scratch (another test
pins that).
A non-reversible layer's backward transient is simply its
activation-derivative buffer, so the max-term of the second formula runs
over both kinds; with no sequences present it degenerates to max(M_D) and
the two totals coincide. Both formulas assume a non-branching chain; the report
additionally carries the max over concurrently live gradient buffers on the
real graph so the delta of the naive max-term is documented.

The closed forms leave out two things: kernel scratch (a unit's slab
grids, accumulator and product), which memtrack does not see and
tracemalloc does, and allocator slack. A reversible sequence couples in
place in its input's buffer, and its sub-networks add their outputs into
it slab by slab, so its forward adds no buffer. memtrack's desk reversible
step at 32^3, after a warm-up step that allocates M_P, reads exactly the
model less M_P plus batch x 393,216 + 4 B at 1, 2 and 4 blocks per level
and batch 1 and 2 (tests pin this; the stored step too, the twin +4 B):
the head conv's backward holds its 3-channel output gradient beside its
input gradient where the sum + max form counts one M_D, plus the 4 B loss.
"""

import json
import tracemalloc
from dataclasses import asdict, dataclass

from . import memtrack

BYTES = 4  # float32
BLOCK_BACKWARD_HALF_BUFFERS = 2  # memtrack's count, see above
PARAM_COPIES = 4  # value, gradient and Adam's two moments


@dataclass
class LayerCost:
    layer: str
    kind: str  # input | nonrev | interior | boundary
    activation_bytes: int
    param_bytes: int
    derivative_bytes: int
    backward_transient_bytes: int = 0
    saved: bool = False  # the stored-mode tape retains this activation


@dataclass
class MemoryReport:
    total_nonrev_bytes: int
    total_prev_bytes: int
    terms: list
    breakdown: dict
    measured_peak_bytes: int | None = None  # memtrack's, see measure_peaks
    measured_numpy_peak_bytes: int | None = None  # tracemalloc's
    # the same two of one forward_full_volume at the input shape
    measured_inference_peak_bytes: int | None = None
    measured_inference_numpy_peak_bytes: int | None = None

    def to_json(self) -> str:
        doc = {
            "total_nonrev_bytes": self.total_nonrev_bytes,
            "total_prev_bytes": self.total_prev_bytes,
            "measured_peak_bytes": self.measured_peak_bytes,
            "measured_numpy_peak_bytes": self.measured_numpy_peak_bytes,
            "measured_inference_peak_bytes": self.measured_inference_peak_bytes,
            "measured_inference_numpy_peak_bytes":
                self.measured_inference_numpy_peak_bytes,
            "breakdown": self.breakdown,
            "terms": [asdict(t) for t in self.terms],
        }
        return json.dumps(doc, indent=2)

    def to_table(self) -> str:
        header = f"{'layer':<28}{'kind':<10}{'M_A bytes':>14}{'saved':>7}" \
                 f"{'M_P bytes':>14}{'M_D bytes':>14}{'M_B bytes':>14}"
        lines = [header, "-" * len(header)]
        for t in self.terms:
            lines.append(
                f"{t.layer:<28}{t.kind:<10}{t.activation_bytes:>14}"
                f"{'yes' if t.saved else 'no':>7}"
                f"{t.param_bytes:>14}{t.derivative_bytes:>14}"
                f"{t.backward_transient_bytes:>14}"
            )
        lines.append("-" * len(header))
        lines.append(f"stored-activation total (eq. sum+max): {self.total_nonrev_bytes}")
        lines.append(f"partially reversible total:            {self.total_prev_bytes}")
        if self.measured_peak_bytes is not None:
            # the measurement starts after a warm-up step has allocated M_P
            lines.append(f"model less M_P:                        "
                         f"{self.total_prev_bytes - self.breakdown['sum_m_p_bytes']}")
            lines.append(f"measured peak:                         {self.measured_peak_bytes}")
        if self.measured_numpy_peak_bytes is not None:
            lines.append(f"measured numpy peak:                   "
                         f"{self.measured_numpy_peak_bytes}")
        if self.measured_inference_peak_bytes is not None:
            lines.append(f"measured inference peak:               "
                         f"{self.measured_inference_peak_bytes}")
        if self.measured_inference_numpy_peak_bytes is not None:
            lines.append(f"measured inference numpy peak:         "
                         f"{self.measured_inference_numpy_peak_bytes}")
        return "\n".join(lines)


def estimate(network, input_shape) -> MemoryReport:
    """Both closed-form totals for ``network`` at ``input_shape``.

    For a network without reversible sequences the two totals coincide.
    """
    entries = network.trace(input_shape)
    terms = []
    for e in entries:
        # The input volume is externally owned: it is neither a layer
        # activation nor does training materialize its gradient.
        act = 0 if e.kind == "input" else e.out_elems * BYTES
        if e.kind == "boundary":
            transient = e.out_elems // 2 * BYTES * BLOCK_BACKWARD_HALF_BUFFERS
        elif e.kind == "nonrev":
            transient = act  # its derivative buffer
        else:
            transient = 0  # interiors are costed inside their sequence
        terms.append(
            LayerCost(
                layer=e.name,
                kind=e.kind,
                activation_bytes=act,
                param_bytes=e.param_elems * BYTES * PARAM_COPIES,
                derivative_bytes=act,
                backward_transient_bytes=transient,
                saved=e.saved,
            )
        )

    sum_m_a = sum(t.activation_bytes for t in terms if t.saved)
    sum_m_p = sum(t.param_bytes for t in terms)
    max_m_d = max((t.derivative_bytes for t in terms), default=0)
    total_nonrev = sum_m_a + sum_m_p + max_m_d

    sum_m_n = sum(t.activation_bytes for t in terms
                  if t.saved and t.kind in ("input", "nonrev"))
    sum_m_s = sum(t.activation_bytes for t in terms if t.kind == "boundary")
    max_m_b = max((t.backward_transient_bytes for t in terms), default=0)
    total_prev = sum_m_n + sum_m_s + sum_m_p + max_m_b

    concurrent = _max_concurrent_derivative_bytes(entries)
    breakdown = {
        "sum_m_a_bytes": sum_m_a,
        "sum_m_p_bytes": sum_m_p,
        "max_m_d_bytes": max_m_d,
        "sum_m_n_bytes": sum_m_n,
        "sum_m_s_bytes": sum_m_s,
        "max_m_b_bytes": max_m_b,
        "max_m_d_concurrent_bytes": concurrent,
        "branching_delta_bytes": concurrent - max_m_d,
        "param_copies": PARAM_COPIES,
    }
    return MemoryReport(total_nonrev, total_prev, terms, breakdown)


def _max_concurrent_derivative_bytes(entries) -> int:
    """Peak of simultaneously live activation-gradient buffers.

    Replays the backward schedule on the trace graph: an entry's gradient
    buffer appears when the first consumer hands a contribution back and is
    freed once the entry itself has been processed.
    """
    sizes = [0 if e.kind == "input" else e.out_elems * BYTES for e in entries]
    if not entries:
        return 0
    live = {len(entries) - 1: sizes[-1]}
    current = sizes[-1]
    peak = current
    for idx in range(len(entries) - 1, -1, -1):
        if idx not in live:
            continue
        for src in entries[idx].inputs:
            if src not in live:
                live[src] = sizes[src]
                current += sizes[src]
        peak = max(peak, current)
        current -= live.pop(idx)
    return peak


# Names kept for callers that pick a total by the network's kind.
estimate_nonreversible = estimate
estimate_partially_reversible = estimate


def measure_peak(run) -> int:
    """High-water mark of live tensor bytes above entry while ``run`` executes."""
    return memtrack.GLOBAL.measure(run)


def measure_peaks(run) -> tuple:
    """Peak bytes above entry while ``run`` executes, by two accountants.

    The first is ``measure_peak``'s memtrack figure, which counts each
    buffer a Tensor or a pending gradient holds once, by the array that owns
    it, and leaves out kernel scratch. The second is tracemalloc's, which
    counts each numpy buffer once (with Python's own allocations) but only
    what is allocated after entry.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracked = measure_peak(run)
        return tracked, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
