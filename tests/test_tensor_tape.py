"""Tensor invariants, tape retention accounting, and the backward engine."""

from pathlib import Path

import numpy as np
import pytest

from revvolnet import memtrack, ops
from revvolnet.tape import (MissingActivationError, Tape, backprop, backward,
                            no_record, record)
from revvolnet.tensor import Parameter, ShapeError, Tensor
from revvolnet.unet import build, load_spec

from conftest import randn5

DESK_SPEC = Path(__file__).resolve().parents[1] / "specs" / "desk_reversible.spec"


class TestTensor:
    def test_requires_five_axes(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    def test_data_length_matches_element_count(self, rng):
        t = Tensor(randn5(rng, (2, 3, 4, 5, 6)))
        assert t.element_count == 2 * 3 * 4 * 5 * 6
        assert t.data.size == t.element_count
        assert t.nbytes == 4 * t.element_count
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]

    def test_zero_extent_is_legal(self):
        t = Tensor(np.zeros((0, 3, 4, 4, 4), dtype=np.float32))
        assert t.element_count == 0
        assert t.nbytes == 0

    def test_scalar_item(self):
        assert Tensor.scalar(2.5).item() == 2.5
        with pytest.raises(ShapeError):
            Tensor.zeros((1, 2, 1, 1, 1)).item()

    def test_parameter_gradient_matches_value_shape(self, rng):
        p = Parameter(randn5(rng, (4, 2, 3, 3, 3)))
        assert p.grad.shape == p.value.shape
        p.grad.data += 1.0
        p.zero_grad()
        assert np.all(p.grad.data == 0)

    def test_parameter_ids_unique(self, rng):
        a = Parameter(randn5(rng, (1, 1, 1, 1, 1)))
        b = Parameter(randn5(rng, (1, 1, 1, 1, 1)))
        assert a.id != b.id


class TestMemtrack:
    def test_alloc_free_cycle(self):
        base = memtrack.live_bytes()
        t = Tensor.zeros((1, 1, 10, 10, 10))
        assert memtrack.live_bytes() == base + 4000
        del t
        assert memtrack.live_bytes() == base

    def test_measure_counts_peak_above_entry(self):
        def run():
            t = Tensor.zeros((1, 1, 10, 10, 10))
            del t

        assert memtrack.GLOBAL.measure(run) == 4000

    def test_alloc_free_alloc_peaks_once(self):
        def run():
            a = Tensor.zeros((1, 1, 10, 10, 10))
            del a
            b = Tensor.zeros((1, 1, 10, 10, 10))
            del b

        assert memtrack.GLOBAL.measure(run) == 4000


class TestTapeAccounting:
    def test_retained_bytes_equals_sum_over_retained_nodes(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            a = ops.leaky_relu(x)
            b = ops.max_pool2(a)
            c = ops.sigmoid(b)
        expected = sum(t.nbytes for t in (a, b, c))
        assert tape.retained_bytes == expected
        # independent recompute from the node records
        assert tape.retained_bytes == sum(
            n.retained_out.nbytes for n in tape.nodes if n.retained_out is not None)

    def test_stored_desk_forward_retains_only_what_a_backward_reads(self, rng):
        spec = load_spec(DESK_SPEC)
        x = Tensor(randn5(rng, (1, 4, 16, 16, 16)))
        # the reversible net's merge steps upsample inside one op; its twin
        # still upsamples and concatenates
        for net_spec, ops_seen in (
                (spec, {"concat_channels", "slice_channels", "add"}),
                (spec.paired(), {"upsample2", "concat_channels"})):
            with Tape() as tape:
                build(net_spec, seed=0).forward(x, stored_activations=True)
            read = set()  # producers whose output some saving consumer reads
            for node in tape.nodes:
                if "inputs" in node.saves:
                    read.update(src for kind, src in node.input_slots
                                if kind == "node")
            plumbing = [n for n in tape.nodes if n.op in (
                "upsample2", "concat_channels", "slice_channels", "add", "sub")]
            assert {n.op for n in plumbing} == ops_seen
            for node in plumbing:
                assert (node.retained_out is not None) == (node in read), node.name
            assert any(node.retained_out is None for node in plumbing)

    def test_release_clears_accounting(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            ops.sigmoid(x)
        tape.release()
        assert tape.retained_bytes == 0

    def test_no_record_context_skips_registration(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            with no_record():
                y = ops.sigmoid(x)
        assert tape.nodes == []
        assert y.node() is None

    def test_nodes_record_parameter_refs(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        k = Parameter(randn5(rng, (2, 2, 3, 3, 3)))
        b = Parameter(randn5(rng, (1, 2, 1, 1, 1)))
        with Tape() as tape:
            y = ops.conv3d(x, k, b)
            ops.max_pool2(y)
        assert tape.nodes[0].params == (k, b)
        assert tape.nodes[1].params == ()

    def test_nodes_are_topologically_ordered(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            y = ops.leaky_relu(x)
            z = ops.add(y, y)
            ops.sigmoid(z)
        seen = set()
        for node in tape.nodes:
            for kind, src in node.input_slots:
                if kind == "node":
                    assert src in seen
            seen.add(node)


class TestBackprop:
    def test_identity_chain_gradient_is_one(self, rng):
        p = Parameter(randn5(rng, (1, 1, 1, 1, 1)))
        x = Tensor(np.ones((1, 1, 1, 1, 1), np.float32))
        with Tape() as tape:
            y = ops.conv3d(x, p, None, padding=(0, 0, 0))
            loss = ops.reduce_sum(y)
            backprop(tape, loss)
        assert p.grad.data.reshape(()) == pytest.approx(1.0)

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            y = ops.sigmoid(x)
            with pytest.raises(ShapeError):
                backprop(tape, y)

    def test_two_consumers_accumulate_additively(self, rng):
        # f(x) used twice, summed, must equal 2 * grad of a single use
        data = randn5(rng, (1, 2, 4, 4, 4))
        x1 = Tensor(data.copy())
        with Tape() as tape:
            y = ops.leaky_relu(x1)
            loss = ops.add(ops.reduce_sum(y), ops.reduce_sum(y))
            (g_double,) = backprop(tape, loss, wrt=[x1])
        x2 = Tensor(data.copy())
        with Tape() as tape:
            loss = ops.reduce_sum(ops.leaky_relu(x2))
            (g_single,) = backprop(tape, loss, wrt=[x2])
        np.testing.assert_allclose(g_double, 2.0 * g_single, rtol=1e-6)

    def test_shared_kernel_two_paths(self, rng):
        x = Tensor(randn5(rng, (1, 1, 4, 4, 4)))
        k = Parameter(randn5(rng, (1, 1, 3, 3, 3)))
        with Tape() as tape:
            y1 = ops.conv3d(x, k, None)
            y2 = ops.conv3d(x, k, None)
            loss = ops.add(ops.reduce_sum(y1), ops.reduce_sum(y2))
            backprop(tape, loss)
        double = k.grad.data.copy()
        k.zero_grad()
        with Tape() as tape:
            loss = ops.reduce_sum(ops.conv3d(x, k, None))
            backprop(tape, loss)
        np.testing.assert_allclose(double, 2.0 * k.grad.data, rtol=1e-6)

    def test_gradient_buffers_all_released(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        k = Parameter(randn5(rng, (2, 2, 3, 3, 3)))
        with Tape() as tape:
            y = ops.conv3d(x, k, None)
            loss = ops.reduce_sum(ops.sigmoid(y))
            backprop(tape, loss)
        assert tape.last_backward_stats["final_grad_bytes"] == 0
        assert tape.last_backward_stats["peak_grad_bytes"] > 0

    def test_backprop_releases_retained_activations(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            loss = ops.reduce_sum(ops.sigmoid(x))
            assert tape.retained_bytes > 0
            backprop(tape, loss)
        assert tape.retained_bytes == 0

    def test_missing_activation_without_reconstruction_fails(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        k = Parameter(randn5(rng, (2, 2, 3, 3, 3)))
        with Tape() as tape:
            h = ops.leaky_relu(x)
            node = h.node()
            loss = ops.reduce_sum(ops.conv3d(h, k, None))
            tape.release_node(node)  # conv's backward needs h's value
            with pytest.raises(MissingActivationError) as err:
                backprop(tape, loss)
        assert "leaky_relu" in str(err.value)

    def test_seed_from_foreign_tape_rejected(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            y = ops.sigmoid(x)
        with Tape() as other:
            with pytest.raises(ValueError):
                backward(other, y, np.ones(y.shape, np.float32))

    def test_wrt_may_be_a_generator(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            y = ops.leaky_relu(x)
        grads = backward(tape, y, np.ones(y.shape, np.float32),
                         wrt=(v for v in [x]))
        assert len(grads) == 1
        np.testing.assert_array_equal(
            grads[0], np.where(x.data >= 0, 1.0, 0.01).astype(np.float32))

    def test_backward_receives_every_input_and_its_output(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        seen = {}

        def backward_fn(g, inputs, output):
            seen["inputs"], seen["output"] = inputs, output
            return (g * inputs[1], g * inputs[0])

        with Tape() as tape:
            y = ops.leaky_relu(x)
            z = record("mul", Tensor(x.data * y.data), [x, y], backward_fn,
                       saves=("inputs", "output"))
            backprop(tape, ops.reduce_sum(z))
        leaf, node = seen["inputs"]
        np.testing.assert_array_equal(leaf, x.data)
        np.testing.assert_array_equal(node, y.data)
        np.testing.assert_array_equal(seen["output"], z.data)

    def test_undeclared_values_reach_backward_as_none(self, rng):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        seen = {}

        def backward_fn(g, inputs, output):
            seen["inputs"], seen["output"] = inputs, output
            return (g, g)

        with Tape() as tape:
            y = ops.leaky_relu(x)
            z = record("plus", Tensor(x.data + y.data), [x, y], backward_fn)
            assert tape.nodes[-1].retained_out is None
            # leaky_relu's own backward reads only its input, a leaf
            assert y.node().retained_out is None
            backprop(tape, ops.reduce_sum(z))
        assert seen["inputs"] == (None, None)
        assert seen["output"] is None

    @pytest.mark.parametrize("saves", [("input",), ("outputs",), ("grad",),
                                       ("inputs", "weights")])
    def test_unknown_saves_entry_raises(self, rng, saves):
        x = Tensor(randn5(rng, (1, 2, 4, 4, 4)))
        with Tape() as tape:
            with pytest.raises(ValueError, match="saves entry"):
                record("bad", Tensor(x.data.copy()), [x],
                       lambda g, _i, _o: (g,), saves=saves)
        assert tape.nodes == []

    def test_zero_extent_flows_through_backward(self):
        x = Tensor(np.zeros((0, 2, 4, 4, 4), np.float32))
        k = Parameter(np.zeros((2, 2, 3, 3, 3), np.float32))
        with Tape() as tape:
            y = ops.conv3d(x, k, None)
            loss = ops.reduce_sum(y)
            (gx,) = backprop(tape, loss, wrt=[x])
        assert gx.shape == x.shape
