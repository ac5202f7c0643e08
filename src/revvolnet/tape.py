"""Operation tape and the reverse-mode backward engine.

A tape is an ordered record of executed operations. Each node keeps its
output tensor alive so that consumers can read it during the backward pass;
once released, reading its output raises ``MissingActivationError``.
``retained_bytes`` tracks the activation bytes currently held by the tape.

The backward pass walks the node list in reverse. A node's gradient buffer is
complete once all of its consumers (which appear later on the tape) have been
processed, so the buffer is consumed and released immediately when the node
itself is visited; at completion no gradient buffer is live. Retained
activations are released the same way, as soon as no remaining backward step
can read them.

``FAULTS`` is the gradient checker's fault hook (``gradcheck
--inject-fault``): for a node whose op name is a key, ``backward``
multiplies the first gradient the node's backward returns by ``1 + value``
and adds the op name to ``FAULTS_APPLIED``. Any recorded op can be
corrupted this way, by the name it records under.
"""

import contextlib
import weakref

import numpy as np

from . import memtrack
from .tensor import ShapeError, Tensor


FAULTS = {}
FAULTS_APPLIED = set()


class MissingActivationError(RuntimeError):
    """A backward step needed an activation that was already released."""


class TapeNode:
    __slots__ = (
        "name",
        "op",
        "input_slots",  # tuple of ("node", TapeNode) / ("leaf", Tensor) entries
        "retained_out",
        "backward_fn",
        "needs_inputs",
        "needs_output",
        "params",  # parameters whose gradients this node's backward writes
        "_tape_ref",
        "__weakref__",
    )

    def __init__(self, name, op, input_slots, retained_out, backward_fn,
                 needs_inputs, needs_output, params, tape):
        self.name = name
        self.op = op
        self.input_slots = input_slots
        self.retained_out = retained_out
        self.backward_fn = backward_fn
        self.needs_inputs = needs_inputs
        self.needs_output = needs_output
        self.params = params
        self._tape_ref = weakref.ref(tape)

    def tape(self):
        return self._tape_ref()

    def output_value(self) -> np.ndarray:
        if self.retained_out is None:
            raise MissingActivationError(
                f"activation of node '{self.name}' was released before its "
                f"backward step read it")
        return self.retained_out.data


class Tape:
    """Ordered, topologically sorted record of one step's operations."""

    def __init__(self):
        self.nodes = []
        self.retained_bytes = 0
        self._counter = 0
        self.last_backward_stats = None

    def add(self, node: TapeNode) -> None:
        self.nodes.append(node)
        if node.retained_out is not None:
            self.retained_bytes += node.retained_out.nbytes

    def next_name(self, op: str) -> str:
        name = f"{op}#{self._counter}"
        self._counter += 1
        return name

    def release_node(self, node: TapeNode) -> None:
        if node.retained_out is not None:
            self.retained_bytes -= node.retained_out.nbytes
            node.retained_out = None

    def release(self) -> None:
        for node in self.nodes:
            self.release_node(node)
        self.nodes.clear()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK = []


def current_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def no_record():
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def record(op, out, inputs, backward_fn, *, needs_inputs=None, needs_output=False,
           params=()):
    """Register an executed op on the ambient tape, if one is active.

    ``backward_fn(grad_out, input_values, output_value)`` must return one
    gradient array (or None) per input and must not mutate ``grad_out``.
    """
    tape = current_tape()
    if tape is None:
        return out
    slots = []
    for t in inputs:
        node = t.node()
        if node is not None and node.tape() is tape:
            slots.append(("node", node))
        else:
            slots.append(("leaf", t))
    if needs_inputs is None:
        needs_inputs = (False,) * len(inputs)
    node = TapeNode(
        name=tape.next_name(op),
        op=op,
        input_slots=tuple(slots),
        retained_out=out,
        backward_fn=backward_fn,
        needs_inputs=tuple(needs_inputs),
        needs_output=needs_output,
        params=tuple(params),
        tape=tape,
    )
    tape.add(node)
    out._node_ref = weakref.ref(node)
    return out


def backward(tape: Tape, output: Tensor, seed: np.ndarray, wrt=()) -> list:
    """Propagate ``seed`` (the gradient at ``output``) back through ``tape``.

    Returns one gradient array (or None) per tensor in ``wrt``; those tensors
    are matched by identity against leaf inputs. Parameter gradients are
    accumulated by the op closures as a side effect.
    """
    root = output.node()
    if root is None or root.tape() is not tape:
        raise ValueError("output tensor was not produced on this tape")
    seed = np.ascontiguousarray(seed, dtype=np.float32)
    if seed.shape != output.shape:
        raise ShapeError(f"gradient seed shape {seed.shape} does not match output shape {output.shape}")

    grads = {root: seed}
    grad_bytes = {root: seed.nbytes}
    live = seed.nbytes
    peak = live
    memtrack.on_alloc(seed.nbytes)
    wrt = list(wrt)  # holds the identity keys alive; a generator is read once
    leaf_grads = {id(t): None for t in wrt}

    with no_record():
        for node in reversed(tape.nodes):
            g = grads.pop(node, None)
            if g is None:
                continue
            input_values = []
            for needed, slot in zip(node.needs_inputs, node.input_slots):
                if not needed:
                    input_values.append(None)
                elif slot[0] == "leaf":
                    input_values.append(slot[1].data)
                else:
                    input_values.append(slot[1].output_value())
            out_value = node.output_value() if node.needs_output else None
            in_grads = node.backward_fn(g, tuple(input_values), out_value)
            if len(in_grads) != len(node.input_slots):
                raise RuntimeError(
                    f"backward of '{node.name}' returned {len(in_grads)} gradients "
                    f"for {len(node.input_slots)} inputs"
                )
            if node.op in FAULTS and in_grads[0] is not None:
                in_grads = (in_grads[0] * (1.0 + FAULTS[node.op]), *in_grads[1:])
                FAULTS_APPLIED.add(node.op)
            for slot, ig in zip(node.input_slots, in_grads):
                if ig is None:
                    continue
                if slot[0] == "leaf":
                    key = id(slot[1])
                    if key in leaf_grads:
                        prev = leaf_grads[key]
                        leaf_grads[key] = ig if prev is None else prev + ig
                    continue
                src = slot[1]
                prev = grads.get(src)
                if prev is None:
                    grads[src] = ig
                    grad_bytes[src] = ig.nbytes
                    live += ig.nbytes
                    memtrack.on_alloc(ig.nbytes)
                    if live > peak:
                        peak = live
                else:
                    grads[src] = prev + ig  # fresh buffer: refs may be shared
            nbytes = grad_bytes.pop(node)
            live -= nbytes
            memtrack.on_free(nbytes)
            tape.release_node(node)

    assert not grads, "gradient buffers left over after backward"
    tape.last_backward_stats = {"peak_grad_bytes": peak, "final_grad_bytes": live}
    return [leaf_grads[id(t)] for t in wrt]


def backprop(tape: Tape, loss: Tensor, wrt=()) -> list:
    """Backward pass from a scalar loss; seeds the traversal with 1.0."""
    if loss.element_count != 1:
        raise ShapeError(f"loss must be a scalar tensor, got shape {loss.shape}")
    seed = np.ones(loss.shape, dtype=np.float32)
    return backward(tape, loss, seed, wrt=wrt)
