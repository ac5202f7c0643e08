"""Dense 5-axis float32 tensors and trainable parameters."""

import itertools

import numpy as np

from . import memtrack

NAXES = 5  # (batch, channels, depth, height, width)


class ShapeError(ValueError):
    """Raised when an operation receives tensors of incompatible shape."""


_param_ids = itertools.count()


class Tensor:
    """A contiguous float32 array with exactly five axes.

    Zero extents are legal; such tensors are empty and flow through every
    operation. The optional back-link to the tape node that produced the
    tensor is weak, so dropping a tape never leaks activations.
    """

    __slots__ = ("data", "_node_ref", "__weakref__")

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim != NAXES:
            raise ShapeError(
                f"tensor must have {NAXES} axes (batch, channels, depth, height, width), "
                f"got shape {tuple(arr.shape)}"
            )
        self.data = arr
        self._node_ref = None
        memtrack.GLOBAL.hold(arr)

    def __del__(self):
        if hasattr(self, "data"):  # unset when __init__ raised
            memtrack.GLOBAL.drop(self.data)

    @property
    def shape(self):
        return tuple(self.data.shape)

    @property
    def element_count(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def node(self):
        """Tape node that produced this tensor, if it is still alive."""
        if self._node_ref is None:
            return None
        return self._node_ref()

    def item(self) -> float:
        if self.element_count != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    @staticmethod
    def zeros(shape) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32))

    @staticmethod
    def scalar(value: float) -> "Tensor":
        return Tensor(np.full((1, 1, 1, 1, 1), value, dtype=np.float32))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter:
    """A trainable value with a same-shaped gradient buffer and a unique id."""

    __slots__ = ("value", "grad", "id")

    def __init__(self, value, id=None):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.grad = Tensor.zeros(self.value.shape)
        self.id = id if id is not None else f"param{next(_param_ids)}"

    @property
    def shape(self):
        return self.value.shape

    @property
    def element_count(self) -> int:
        return self.value.element_count

    def zero_grad(self) -> None:
        self.grad.data.fill(0.0)

    def __repr__(self):
        return f"Parameter(id={self.id!r}, shape={self.shape})"
