"""Operation tape and the reverse-mode backward engine.

A tape is an ordered record of executed operations. Each op declares once,
in ``record``, what its backward reads: the values of its inputs
(``saves=("inputs",)``), its own output (``("output",)``), both, or nothing
(the default). The tape keeps only what some backward reads:

* a node keeps its own output only if it saves ``"output"``;
* a consumer that saves ``"inputs"`` makes each producer node it reads keep
  its output (``retained_out``) from the moment the consumer is recorded;
* a leaf input (a tensor from outside the tape) stays referenced by its slot.

Every node also keeps its output shape, which ``Network.trace`` reads.
``retained_bytes`` is the sum of the outputs the tape still holds.

The backward pass walks the node list in reverse. A node's gradient buffer is
complete once all of its consumers (which appear later on the tape) have been
processed, so the buffer is consumed and released immediately when the node
itself is visited; at completion no gradient buffer is live. A node's backward
receives its input values and its output if it declared them, and ``None`` in
their place otherwise, so a declaration that leaves out a value the backward
reads fails loudly. A retained output is released after its node's own
backward, which runs after every consumer's; reading a released output raises
``MissingActivationError``.

The pass holds in ``memtrack`` each gradient buffer it keeps (the seed and
every pending gradient, not those it returns for ``wrt``), and
``last_backward_stats`` reports the bytes these holds add. memtrack counts
a buffer once, by the array that owns it, however many Tensors and
gradients refer to it, so a gradient that views a counted buffer adds
nothing: a nested pass (a sub-network's, in the block backward) whose seed
views the outer pass's gradient counts its seed as 0.

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
SAVES = ("inputs", "output")  # what a backward may declare that it reads
IN_PLACE_OPS = ("reversible_sequence",)  # overwrite their input and gradient, see record


class MissingActivationError(RuntimeError):
    """A backward step needed an activation that was already released."""


class TapeNode:
    __slots__ = (
        "name",
        "op",
        "input_slots",  # tuple of ("node", TapeNode) / ("leaf", Tensor) entries
        "saves",  # the subset of SAVES its backward reads
        "retained_out",  # its output while some backward may read it, else None
        "out_shape",
        "backward_fn",
        "params",  # parameters whose gradients this node's backward writes
        "_tape_ref",
        "__weakref__",
    )

    def __init__(self, name, op, input_slots, saves, retained_out, out_shape,
                 backward_fn, params, tape):
        self.name = name
        self.op = op
        self.input_slots = input_slots
        self.saves = saves
        self.retained_out = retained_out
        self.out_shape = out_shape
        self.backward_fn = backward_fn
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
        self._counter = 0
        self.last_backward_stats = None

    @property
    def retained_bytes(self) -> int:
        return sum(n.retained_out.nbytes for n in self.nodes
                   if n.retained_out is not None)

    def next_name(self, op: str) -> str:
        name = f"{op}#{self._counter}"
        self._counter += 1
        return name

    def release_node(self, node: TapeNode) -> None:
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


def record(op, out, inputs, backward_fn, *, params=(), saves=()):
    """Register an executed op on the ambient tape, if one is active.

    ``backward_fn(grad_out, input_values, output_value)`` must return one
    gradient array (or None) per input. It must not mutate ``grad_out`` or
    the values it reads, with one exception: an op in ``IN_PLACE_OPS``
    (``reversible_sequence``) may overwrite both its incoming gradient and
    its retained output, and may return the gradient buffer itself. The
    engine hands such an op a gradient buffer nothing else holds: it copies
    the buffer only when it may share memory with another pending gradient
    (two do when ``concat_channels`` returns its gradient's channel views),
    a leaf gradient or the caller's seed. It releases the node's output
    after the call, as it does every node's, so the output stays counted
    while the op overwrites it; a caller that reads a sequence's output
    after backprop, or calls ``sequence_backward`` directly, copies what it
    still needs first. Such an op's forward works in place too: the
    sequence's output is its input's buffer, so a caller that still reads
    the input after the forward, or records it under an op whose backward
    does, copies it first. In a network none does: each sequence's input is
    the output of a ``conv3d`` or ``upsample_merge``, which saves its input,
    not its output. Unrecorded merges overwrite skips (``unet._run_step``).
    ``saves`` declares what it reads: with ``"inputs"`` it receives the value
    of every input, in order, and with ``"output"`` the op's own output; an
    undeclared value arrives as None (one None per input for the inputs).
    ``params`` are the parameters whose gradients it accumulates.
    """
    saves = tuple(saves)
    for entry in saves:
        if entry not in SAVES:
            raise ValueError(f"record({op!r}): saves entry {entry!r} is not one of {SAVES}")
    tape = current_tape()
    if tape is None:
        return out
    slots = []
    for t in inputs:
        node = t.node()
        if node is not None and node.tape() is tape:
            slots.append(("node", node))
            if "inputs" in saves:
                node.retained_out = t
        else:
            slots.append(("leaf", t))
    node = TapeNode(
        name=tape.next_name(op),
        op=op,
        input_slots=tuple(slots),
        saves=saves,
        retained_out=out if "output" in saves else None,
        out_shape=out.shape,
        backward_fn=backward_fn,
        params=tuple(params),
        tape=tape,
    )
    tape.nodes.append(node)
    out._node_ref = weakref.ref(node)
    return out


def backward(tape: Tape, output: Tensor, seed: np.ndarray, wrt=()) -> list:
    """Propagate ``seed`` (the gradient at ``output``) back through ``tape``.

    Returns one gradient array (or None) per tensor in ``wrt``; those tensors
    are matched by identity against leaf inputs. Parameter gradients are
    accumulated by the op closures as a side effect. ``output`` is used only
    to find the root node and is dropped before the traversal.
    """
    root = output.node()
    if root is None or root.tape() is not tape:
        raise ValueError("output tensor was not produced on this tape")
    # the root node knows the shape; a caller that passed its last reference
    # to the output frees it here, unless some backward reads it
    del output
    seed = np.ascontiguousarray(seed, dtype=np.float32)
    if seed.shape != root.out_shape:
        raise ShapeError(f"gradient seed shape {seed.shape} does not match output shape {root.out_shape}")

    grads = {root: seed}
    # bytes the pass's own holds add to memtrack (see the module docstring)
    live = peak = memtrack.GLOBAL.hold(seed)
    wrt = list(wrt)  # holds the identity keys alive; a generator is read once
    leaf_grads = {id(t): None for t in wrt}

    g = None
    try:
        with no_record():
            for node in reversed(tape.nodes):
                g = grads.pop(node, None)
                if g is None:
                    continue
                if "inputs" in node.saves:
                    input_values = tuple(src.data if kind == "leaf" else src.output_value()
                                         for kind, src in node.input_slots)
                else:
                    input_values = (None,) * len(node.input_slots)
                output_value = node.output_value() if "output" in node.saves else None
                if node.op in IN_PLACE_OPS and any(
                        o is not None and np.may_share_memory(g, o)
                        for o in (seed, *grads.values(), *leaf_grads.values())):
                    copy = g.copy()
                    live += memtrack.GLOBAL.hold(copy) - memtrack.GLOBAL.drop(g)
                    g = copy
                in_grads = node.backward_fn(g, input_values, output_value)
                del input_values, output_value
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
                    prev = grads.get(slot[1])
                    if prev is not None:
                        ig = prev + ig  # a sum is a fresh buffer: refs may be shared
                        live -= memtrack.GLOBAL.drop(prev)
                    grads[slot[1]] = ig
                    live += memtrack.GLOBAL.hold(ig)
                peak = max(peak, live)
                live -= memtrack.GLOBAL.drop(g)
                # no local keeps a gradient alive into the next node's backward
                g = in_grads = ig = prev = None
                tape.release_node(node)
    except BaseException:
        # let go of the gradients the pass still holds
        for pending in (g, *grads.values()):
            if pending is not None:
                memtrack.GLOBAL.drop(pending)
        raise

    assert not grads, "gradient buffers left over after backward"
    tape.last_backward_stats = {"peak_grad_bytes": peak}
    return [leaf_grads[id(t)] for t in wrt]


def backprop(tape: Tape, loss: Tensor, wrt=()) -> list:
    """Backward pass from a scalar loss; seeds the traversal with 1.0."""
    if loss.element_count != 1:
        raise ShapeError(f"loss must be a scalar tensor, got shape {loss.shape}")
    seed = np.ones(loss.shape, dtype=np.float32)
    return backward(tape, loss, seed, wrt=wrt)
