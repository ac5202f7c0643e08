"""Reversible block/sequence semantics, inversion accuracy, gradient
equivalence against the stored-activation reference, and memory behavior."""

import numpy as np
import pytest

from revvolnet import memtrack, ops
from revvolnet.reversible import (Module, ReversibleBlock, ReversibleSequence,
                                  block_forward, block_inverse, make_block)
from revvolnet.tape import Tape, backprop, no_record
from revvolnet.tensor import Parameter, ShapeError, Tensor
from revvolnet.verification import (inversion_trials, relative_error,
                                    sequence_equivalence, toy_block,
                                    toy_sequence)

from conftest import randn5


class KernelOnly(Module):
    """Bare 1x1x1 conv sub-network for hand-checkable couplings."""

    def __init__(self, scale):
        self.kernel = Parameter(np.full((1, 1, 1, 1, 1), scale, np.float32))

    def forward(self, x):
        return ops.conv3d(x, self.kernel, None, padding=(0, 0, 0))


def zero_block(channels, rng):
    block = make_block(channels, rng, group_size=channels // 2)
    for unit in (block.f, block.g):
        unit.kernel.value.data.fill(0.0)
        unit.bias.value.data.fill(0.0)
    return block


class TestBlock:
    def test_zero_subnets_give_identity(self, rng):
        block = zero_block(8, rng)
        x1 = Tensor(randn5(rng, (1, 4, 4, 4, 4)))
        x2 = Tensor(randn5(rng, (1, 4, 4, 4, 4)))
        with no_record():
            y1, y2 = block_forward(block, x1, x2)
        np.testing.assert_array_equal(y1.data, x1.data)
        np.testing.assert_array_equal(y2.data, x2.data)

    def test_scalar_toy_forward(self):
        # F(x) = x, G(y) = 2y: (1, 2) -> y1 = 1+2 = 3, y2 = 2+6 = 8
        block = ReversibleBlock(KernelOnly(1.0), KernelOnly(2.0))
        x1 = Tensor(np.full((1, 1, 1, 1, 1), 1.0, np.float32))
        x2 = Tensor(np.full((1, 1, 1, 1, 1), 2.0, np.float32))
        with no_record():
            y1, y2 = block_forward(block, x1, x2)
        assert (y1.item(), y2.item()) == (3.0, 8.0)

    def test_scalar_toy_inverse(self):
        block = ReversibleBlock(KernelOnly(1.0), KernelOnly(2.0))
        y1 = Tensor(np.full((1, 1, 1, 1, 1), 3.0, np.float32))
        y2 = Tensor(np.full((1, 1, 1, 1, 1), 8.0, np.float32))
        with no_record():
            x1, x2 = block_inverse(block, y1, y2)
        assert (x1.item(), x2.item()) == (1.0, 2.0)

    def test_zero_subnets_inverse_identity(self, rng):
        block = zero_block(6, rng)
        y1 = Tensor(randn5(rng, (2, 3, 2, 2, 2)))
        y2 = Tensor(randn5(rng, (2, 3, 2, 2, 2)))
        with no_record():
            x1, x2 = block_inverse(block, y1, y2)
        np.testing.assert_array_equal(x1.data, y1.data)
        np.testing.assert_array_equal(x2.data, y2.data)

    def test_mismatched_halves_rejected(self, rng):
        block = zero_block(8, rng)
        with pytest.raises(ShapeError):
            block_forward(block, Tensor(randn5(rng, (1, 4, 4, 4, 4))),
                          Tensor(randn5(rng, (1, 4, 2, 4, 4))))

    def test_round_trip_oracle(self, rng):
        worst = 0.0
        for _ in range(20):
            block = toy_block(8, rng)
            x1 = Tensor(randn5(rng, (1, 4, 8, 8, 8)))
            x2 = Tensor(randn5(rng, (1, 4, 8, 8, 8)))
            with no_record():
                y1, y2 = block_forward(block, x1, x2)
                r1, r2 = block_inverse(block, y1, y2)
            worst = max(worst,
                        float(np.abs(r1.data - x1.data).max()),
                        float(np.abs(r2.data - x2.data).max()))
        assert worst <= 1e-4


class TestSequenceForward:
    def test_empty_sequence_is_identity(self, rng):
        seq = ReversibleSequence([])
        x = Tensor(randn5(rng, (1, 4, 4, 4, 4)))
        with no_record():
            y = seq.forward(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_odd_channels_rejected(self, rng):
        seq = toy_sequence(1, 8, rng)
        with pytest.raises(ShapeError):
            seq.forward(Tensor(randn5(rng, (1, 7, 4, 4, 4))))

    def test_depth_one_matches_manual_composition(self, rng):
        block = toy_block(8, rng)
        seq = ReversibleSequence([block])
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with no_record():
            y = seq.forward(x)
            x1, x2 = ops.split_channels(x, 4)
            y1, y2 = block_forward(block, x1, x2)
            manual = ops.concat_channels(y1, y2)
        np.testing.assert_array_equal(y.data, manual.data)

    def test_single_tape_node_retains_only_final_output(self, rng):
        seq = toy_sequence(4, 8, rng)
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with Tape() as tape:
            y = seq.forward(x)
        assert len(tape.nodes) == 1
        assert tape.nodes[0].retained_out is y
        assert tape.retained_bytes == y.nbytes

    def test_retained_bytes_do_not_grow_with_depth(self, rng):
        sizes = {}
        for depth in (1, 4):
            seq = toy_sequence(depth, 8, rng)
            x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
            with Tape() as tape:
                seq.forward(x)
            sizes[depth] = tape.retained_bytes
        assert sizes[1] == sizes[4]

    def test_stored_reference_retains_interiors(self, rng):
        seq = toy_sequence(2, 8, rng)
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with Tape() as tape:
            seq.forward_stored(x)
        assert len(tape.nodes) > 1
        with Tape() as tape_rev:
            seq.forward(x)
        assert tape.retained_bytes > tape_rev.retained_bytes


class TestSequenceBackward:
    def test_zero_subnets_pass_gradient_through(self, rng):
        seq = ReversibleSequence([zero_block(8, rng)])
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        probe = randn5(rng, (1, 8, 4, 4, 4))
        with Tape() as tape:
            y = seq.forward(x)
            loss = ops.weighted_sum(y, probe)
            (gx,) = backprop(tape, loss, wrt=[x])
        np.testing.assert_array_equal(gx, probe)

    def test_gradients_match_stored_reference(self):
        result = sequence_equivalence(seed=3, depth=3, width=8,
                                      spatial=(4, 4, 4), batch=2)
        assert result["worst"] <= 1e-4, result["errors"]

    def test_mismatched_output_gradient_rejected(self, rng):
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 8, rng)
        y = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with pytest.raises(ShapeError):
            sequence_backward(seq, np.zeros((1, 8, 2, 4, 4), np.float32), y)

    def test_backward_transient_peak_is_depth_independent(self, rng):
        peaks = {}
        for depth in (1, 6):
            seq = toy_sequence(depth, 8, rng)
            x = Tensor(randn5(rng, (1, 8, 8, 8, 8)))
            probe = randn5(rng, (1, 8, 8, 8, 8))
            with Tape() as tape:
                y = seq.forward(x)
                loss = ops.weighted_sum(y, probe)
            peaks[depth] = memtrack.GLOBAL.measure(lambda: backprop(tape, loss))
        assert peaks[6] <= peaks[1] * 1.05, peaks

    def test_transient_peak_in_half_buffers_is_pinned(self, rng):
        # One block, width 10, 8^3. At the peak, inside G's backward: y1, the
        # two output-gradient halves, G's three recorded outputs, the
        # reconstructed x2 and two engine gradient buffers. The consumed y2
        # is gone: recording y2 - G(y1) on G's tape kept it alive, at 10.
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 10, rng)
        y = Tensor(randn5(rng, (1, 10, 8, 8, 8)))
        grad = randn5(rng, (1, 10, 8, 8, 8))
        half = y.nbytes // 2
        peak = memtrack.GLOBAL.measure(lambda: sequence_backward(seq, grad, y))
        assert peak == 9 * half

    def test_stored_reference_backward_peak_grows_with_depth(self, rng):
        peaks = {}
        for depth in (1, 6):
            seq = toy_sequence(depth, 8, rng)
            x = Tensor(randn5(rng, (1, 8, 8, 8, 8)))
            probe = randn5(rng, (1, 8, 8, 8, 8))

            def run():
                with Tape() as tape:
                    y = seq.forward_stored(x)
                    loss = ops.weighted_sum(y, probe)
                    backprop(tape, loss)

            peaks[depth] = memtrack.GLOBAL.measure(run)
        assert peaks[6] > peaks[1] * 1.4, peaks


class TestInversionAndEquivalenceSweeps:
    def test_hundred_block_inversion_under_tolerance(self):
        worst = inversion_trials(seed=7, trials=30, width=8, spatial=8)
        assert worst <= 1e-4

    def test_equivalence_across_depths(self):
        for depth in (1, 2, 4):
            result = sequence_equivalence(seed=depth, depth=depth)
            assert result["worst"] <= 1e-4, (depth, result["worst"])

    def test_relative_error_helper(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a) == 0.0
        assert relative_error(np.array([1.1, 2.0]), a) == pytest.approx(0.05)
