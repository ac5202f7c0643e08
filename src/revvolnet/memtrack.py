"""High-water-mark accounting of live tensor bytes.

Every Tensor registers its buffer size on creation and deregisters it when the
last reference dies (CPython refcounting makes this deterministic; the engine
keeps its object graph cycle-free for exactly that reason), so two Tensors
over one buffer count it twice (at batch 1 ``split_channels``' halves view its
input). A backward pass reports the gradient buffers it holds, each once; a
nested one (a sub-network's, in the block backward) counts its seed too, even
where it views a buffer the outer pass holds. Raw numpy workspaces inside op
kernels are deliberately not counted.

Code outside the engine may still leave reference cycles that hold Tensors.
`AllocationTracker.reset_peak` collects them before it reads its baseline, so
that the cyclic collector cannot free them inside the measured region and
subtract their bytes from its peak. `measure` and the training loop both take
their baseline from it.
"""

import gc
import threading


class AllocationTracker:
    def __init__(self):
        self._lock = threading.Lock()
        self.live_bytes = 0
        self.peak_bytes = 0

    def on_change(self, nbytes: int) -> None:
        """Add ``nbytes`` to the live bytes; a negative change frees."""
        with self._lock:
            self.live_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def reset_peak(self) -> int:
        """Collect pending cyclic garbage, restart the high-water mark at the
        live level and return that level."""
        gc.collect()
        with self._lock:
            self.peak_bytes = self.live_bytes
            return self.live_bytes

    def measure(self, run) -> int:
        """Run a closure and return its peak live bytes above the entry level."""
        baseline = self.reset_peak()
        run()
        with self._lock:
            return self.peak_bytes - baseline


GLOBAL = AllocationTracker()


def on_change(nbytes: int) -> None:
    GLOBAL.on_change(nbytes)


def live_bytes() -> int:
    return GLOBAL.live_bytes
