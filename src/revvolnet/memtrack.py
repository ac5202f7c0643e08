"""High-water-mark accounting of live buffer bytes.

One registry, keyed by the array that owns a buffer (a view counts as the
array its ``.base`` names), decides what a live byte is. ``hold`` adds a
holder and ``drop`` removes one; a buffer counts once, by its owner's bytes,
while any holder refers to it, and each call returns the bytes it added or
freed. Every Tensor holds its array from ``__init__`` to ``__del__`` (CPython
refcounting makes the release deterministic; the engine keeps its object
graph cycle-free for exactly that reason), so a channel view Tensor adds
nothing beside the Tensor it views. A backward pass holds each gradient it
keeps, so a gradient that views a counted buffer (a nested pass's seed, in
the block backward) adds nothing either. Raw numpy workspaces inside op
kernels are deliberately not counted.

The registry keeps a reference to each owner it counts, so that no ``id``
is reused while it is a key.

Code outside the engine may still leave reference cycles that hold Tensors.
`AllocationTracker.reset_peak` collects them before it reads its baseline, so
that the cyclic collector cannot free them inside the measured region and
subtract their bytes from its peak. `measure` and the training loop both take
their baseline from it.
"""

import gc
import threading

import numpy as np


class AllocationTracker:
    def __init__(self):
        # reentrant: the cyclic collector may run a Tensor's __del__, and so
        # a drop, inside a hold
        self._lock = threading.RLock()
        self._held = {}  # id(owner) -> [owner, number of holders]
        self.live_bytes = 0
        self.peak_bytes = 0

    def hold(self, arr: np.ndarray) -> int:
        """Add a holder of ``arr``'s buffer; return the bytes this adds."""
        owner = _owner(arr)
        with self._lock:
            entry = self._held.setdefault(id(owner), [owner, 0])
            entry[1] += 1
            if entry[1] > 1:
                return 0
            self.live_bytes += owner.nbytes
            self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            return owner.nbytes

    def drop(self, arr: np.ndarray) -> int:
        """Remove a holder of ``arr``'s buffer; return the bytes this frees."""
        owner = _owner(arr)
        with self._lock:
            entry = self._held[id(owner)]
            entry[1] -= 1
            if entry[1]:
                return 0
            del self._held[id(owner)]
            self.live_bytes -= owner.nbytes
            return owner.nbytes

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


def _owner(arr: np.ndarray) -> np.ndarray:
    # numpy points a view's base at the array that owns the memory
    return arr.base if isinstance(arr.base, np.ndarray) else arr


GLOBAL = AllocationTracker()


def live_bytes() -> int:
    return GLOBAL.live_bytes
