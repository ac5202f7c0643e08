"""Reversible block/sequence semantics, inversion accuracy, gradient
equivalence against the stored-activation reference, and memory behavior."""

import numpy as np
import pytest

from revvolnet import memory_model, memtrack, ops, reversible
from revvolnet.reversible import (Module, ReversibleBlock, ReversibleSequence,
                                  block_backward, block_forward, make_block)
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

    def forward(self, x, add_to=None, subtract=False):
        return ops.conv3d(x, self.kernel, None, add_to=add_to,
                          subtract=subtract)


class WatchedOutput(Module):
    """A sub-network that keeps the output of each recorded call."""

    def __init__(self, unit):
        self.unit = unit
        self.recorded = []

    def forward(self, x, add_to=None, subtract=False):
        out = self.unit.forward(x, add_to=add_to, subtract=subtract)
        if out.node() is not None:
            self.recorded.append(out)
        return out


def zero_block(channels, rng):
    block = make_block(channels, rng, group_size=channels // 2)
    for unit in (block.f, block.g):
        unit.kernel.value.data.fill(0.0)
        unit.bias.value.data.fill(0.0)
    return block


def zero_halves(y1):
    """Zero output gradient halves: block_backward then only inverts."""
    return np.zeros((2,) + y1.shape, np.float32)


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
        block_backward(block, y1, y2, *zero_halves(y1))
        assert (y1.item(), y2.item()) == (1.0, 2.0)

    def test_zero_subnets_inverse_identity(self, rng):
        block = zero_block(6, rng)
        y1 = Tensor(randn5(rng, (2, 3, 2, 2, 2)))
        y2 = Tensor(randn5(rng, (2, 3, 2, 2, 2)))
        x1, x2 = y1.data.copy(), y2.data.copy()
        block_backward(block, y1, y2, *zero_halves(y1))
        np.testing.assert_array_equal(y1.data, x1)
        np.testing.assert_array_equal(y2.data, x2)

    def test_mismatched_halves_rejected(self, rng):
        block = zero_block(8, rng)
        with pytest.raises(ShapeError):
            block_forward(block, Tensor(randn5(rng, (1, 4, 4, 4, 4))),
                          Tensor(randn5(rng, (1, 4, 2, 4, 4))))
        y1, y2 = (Tensor(randn5(rng, (1, 4, d, 4, 4))) for d in (4, 2))
        with pytest.raises(ShapeError):
            block_backward(block, y1, y2, *zero_halves(y1))

    def test_round_trip_oracle(self, rng):
        worst = 0.0
        for _ in range(20):
            block = toy_block(8, rng)
            x1 = Tensor(randn5(rng, (1, 4, 8, 8, 8)))
            x2 = Tensor(randn5(rng, (1, 4, 8, 8, 8)))
            with no_record():
                y1, y2 = block_forward(block, x1, x2)
            block_backward(block, y1, y2, *zero_halves(y1))
            worst = max(worst,
                        float(np.abs(y1.data - x1.data).max()),
                        float(np.abs(y2.data - x2.data).max()))
        assert worst <= 1e-4

    def test_inversion_checks_run_the_training_backward(self, rng,
                                                        monkeypatch):
        # the inversion trials run the sequence backward, which calls the
        # block backward once per block
        calls = []

        def spy(*args):
            calls.append(args[0])
            return block_backward(*args)

        monkeypatch.setattr(reversible, "block_backward", spy)
        inversion_trials(trials=2, width=4, spatial=2)
        assert len(calls) == 2
        calls.clear()
        seq = toy_sequence(3, 8, rng)
        y = Tensor(randn5(rng, (1, 8, 2, 2, 2)))
        reversible.sequence_backward(seq, randn5(rng, y.shape), y)
        assert calls == seq.blocks[::-1]


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
        x_before = Tensor(x.data.copy())  # the forward couples in x's buffer
        with no_record():
            y = seq.forward(x)
            x1, x2 = ops.split_channels(x_before, 4)
            y1, y2 = block_forward(block, x1, x2)
            manual = ops.concat_channels(y1, y2)
        np.testing.assert_array_equal(y.data, manual.data)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_forward_couples_in_its_input_buffer(self, rng, batch):
        # the output is x's buffer, and it holds the stored reference's values
        seq = toy_sequence(3, 8, rng)
        x = Tensor(randn5(rng, (batch, 8, 4, 4, 4)))
        with no_record():
            ref = seq.forward_stored(Tensor(x.data.copy()))
        with Tape():
            y = seq.forward(x)
        assert y.data is x.data
        np.testing.assert_array_equal(y.data, ref.data)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_forward_holds_no_buffer_beside_its_input(self, rng, batch):
        # F and G add their outputs into the input's halves slab by slab,
        # so no sub-network output half is ever live
        seq = toy_sequence(3, 10, rng)
        x = Tensor(randn5(rng, (batch, 10, 8, 8, 8)))
        with Tape():
            peak = memtrack.GLOBAL.measure(lambda: seq.forward(x))
        assert peak == 0

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

    @pytest.mark.parametrize("depth", [0, 1])
    def test_odd_width_output_rejected(self, rng, depth):
        # the forward's check, also for an empty sequence, which returned
        # the gradient in silence
        from revvolnet.reversible import sequence_backward

        y = Tensor(randn5(rng, (1, 9, 4, 4, 4)))
        with pytest.raises(ShapeError, match="even channel count"):
            sequence_backward(toy_sequence(depth, 8, rng), randn5(rng, y.shape), y)

    def test_mismatched_output_gradient_rejected(self, rng):
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 8, rng)
        y = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with pytest.raises(ShapeError):
            sequence_backward(seq, np.zeros((1, 8, 2, 4, 4), np.float32), y)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_empty_sequence_backward_holds_nothing(self, rng, batch):
        from revvolnet.reversible import sequence_backward

        y = Tensor(randn5(rng, (batch, 8, 4, 4, 4)))
        grad = randn5(rng, y.shape)
        expected = grad.copy()
        peak = memtrack.GLOBAL.measure(
            lambda: sequence_backward(ReversibleSequence([]), grad, y))
        assert peak == 0
        np.testing.assert_array_equal(grad, expected)

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
        # One block, width 10, 8^3, the gradient held outside memtrack. The
        # Tensors over y's halves (y1 and x2, rebuilt in y2's buffer) view y,
        # which is counted before entry. At the peak, inside G's backward:
        # G's seed, a view of the gradient, which G's backward pass holds by
        # the whole buffer it views. G's output is a Tensor over y2's
        # buffer, and G's one op, conv3d with a norm prologue, saves only
        # its input (4 while each Tensor and each pass counted its own
        # buffer, 7 while the conv saved the normalised activation). The
        # gradient halves, the gradient sums and the rebuilt halves are no
        # Tensors of their own (at 6, while each was wrapped in one).
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 10, rng)
        y = Tensor(randn5(rng, (1, 10, 8, 8, 8)))
        grad = randn5(rng, (1, 10, 8, 8, 8))
        half = y.nbytes // 2
        peak = memtrack.GLOBAL.measure(lambda: sequence_backward(seq, grad, y))
        assert peak == 2 * half

    def test_transient_peak_in_numpy_buffers_is_pinned(self, rng):
        # One block, width 10, 32^3, batch 1, counted by tracemalloc: each
        # recompute subtracts into the half it rebuilds and each gradient sum
        # goes into its incoming half, so the buffers beside y and grad are
        # the engine's gradients and kernel scratch, one depth slab of the
        # unit's grids among them (1.90 halves; 2.26 while each recompute
        # formed its whole output half, 4.95 while the conv built whole
        # padded grids, 5.96 while the unit's conv saved the normalised
        # activation, 8.96 with a fresh buffer per half and per sum).
        # memtrack reads 2, as above.
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 10, rng)
        y = Tensor(randn5(rng, (1, 10, 32, 32, 32)))
        grad = randn5(rng, y.shape)
        half = y.nbytes // 2
        tracked, numpy_peak = memory_model.measure_peaks(
            lambda: sequence_backward(seq, grad, y))
        assert tracked == 2 * half
        assert half < numpy_peak <= 2 * half, numpy_peak / half

    def test_batch_two_numpy_peak_is_pinned(self, rng):
        # At batch 2 the backward walks the samples over views of y and
        # grad, so the buffers beside them are one sample's, as at batch 1:
        # 1.91 halves of one sample (4.58 of the whole batch's halves while
        # the halves of y were copies; 6.58 while the conv built whole
        # padded grids, 7.58 while the gradient halves were copies
        # concatenated at the end). memtrack reads 2 of the whole batch's
        # halves, the gradient's.
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(1, 10, rng)
        y = Tensor(randn5(rng, (2, 10, 32, 32, 32)))
        grad = randn5(rng, y.shape)
        half = y.nbytes // 2
        sample_half = half // 2
        tracked, numpy_peak = memory_model.measure_peaks(
            lambda: sequence_backward(seq, grad, y))
        assert tracked == 2 * half, tracked / half
        assert sample_half < numpy_peak <= 2 * sample_half, (
            numpy_peak / sample_half)

    @pytest.mark.parametrize("batch,halves", [(1, 2), (2, 2)])
    def test_backprop_peak_in_half_buffers(self, rng, batch, halves):
        # Through the tape the sequence's node holds y, counted before entry,
        # until its backward returns. Above entry, in the block backward: the
        # incoming gradient, held once by the engine (the model's M_B, where
        # G's seed views the gradient, y's halves view y and each recompute
        # subtracts into y's buffer; the unit's input gradient, which the
        # nested pass returns, is not held). The loss's backward holds the
        # same gradient beside its 4 B seed, so that is the pass's peak. The
        # backward walks the samples over views of y and the gradient, so
        # the count is the same at batch 2 (5 while the Tensors over y's
        # halves and G's seed were one-half copies each at batch 2; 3 and 5
        # while each recompute formed its whole output half; 4 and 3 while
        # every Tensor and every pass counted its own buffer and the engine
        # released y before the call; 8 at both while every half was a
        # Tensor of its own and `add`'s gradient was counted per consumer).
        seq = toy_sequence(1, 10, rng)
        x = Tensor(randn5(rng, (batch, 10, 8, 8, 8)))
        probe = randn5(rng, x.shape)
        half = x.nbytes // 2
        with Tape() as tape:
            loss = ops.weighted_sum(seq.forward(x), probe)
        peak = memtrack.GLOBAL.measure(lambda: backprop(tape, loss))
        assert peak == max(halves * half, 2 * half + 4), peak / half
        # the memory model's M_B is this measured count
        assert memory_model.BLOCK_BACKWARD_HALF_BUFFERS == halves

    def test_recorded_halves_are_copies(self, rng):
        # a recorded half that F's conv saves must not keep the whole input
        seq = toy_sequence(1, 8, rng)
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        with Tape() as tape:
            seq.forward_stored(x)
        halves = [n.retained_out for n in tape.nodes
                  if n.op == "slice_channels" and n.retained_out is not None]
        assert halves
        assert not any(np.shares_memory(h.data, x.data) for h in halves)

    def test_in_place_backward_overwrites_output_and_returns_gradient(self, rng):
        # batch 1: the halves are views, so the block's input is rebuilt in
        # y's buffer and the input gradient is returned in grad's, the same
        # as from copies of both
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(2, 8, rng)
        x = Tensor(randn5(rng, (1, 8, 4, 4, 4)))
        x_before = x.data.copy()  # the forward couples in x's buffer
        with no_record():
            y = seq.forward(x)
        assert not np.array_equal(y.data, x_before)
        grad = randn5(rng, y.shape)
        expected = sequence_backward(seq, grad.copy(), Tensor(y.data.copy()))
        assert sequence_backward(seq, grad, y) is grad
        np.testing.assert_array_equal(grad, expected)
        np.testing.assert_allclose(y.data, x_before, atol=1e-5)

    def test_batch_two_returns_gradient_buffer(self, rng):
        # each sample's halves are views at any batch, so at batch 2 too the
        # block's input is rebuilt in y's buffer and the input gradient
        # lands in grad's, the same as from copies of both
        from revvolnet.reversible import sequence_backward

        seq = toy_sequence(2, 8, rng)
        x = Tensor(randn5(rng, (2, 8, 4, 4, 4)))
        x_before = x.data.copy()  # the forward couples in x's buffer
        with no_record():
            y = seq.forward(x)
        assert not np.array_equal(y.data, x_before)
        grad = randn5(rng, y.shape)
        expected = sequence_backward(seq, grad.copy(), Tensor(y.data.copy()))
        assert sequence_backward(seq, grad, y) is grad
        np.testing.assert_array_equal(grad, expected)
        np.testing.assert_allclose(y.data, x_before, atol=1e-5)

    def test_gradient_shared_with_a_pending_input_is_not_overwritten(self, rng):
        # add's backward hands one buffer to both of its inputs; the sequence
        # is visited first and must not overwrite what `other`'s producer
        # still reads
        seq = toy_sequence(2, 8, rng)
        x_data = randn5(rng, (1, 8, 4, 4, 4))
        o_data = randn5(rng, (1, 8, 4, 4, 4))
        probe = randn5(rng, (1, 8, 4, 4, 4))
        params = list(seq.parameters())

        def run(stored):
            for p in params:
                p.zero_grad()
            x, o = Tensor(x_data.copy()), Tensor(o_data.copy())
            with Tape() as tape:
                other = ops.sigmoid(o)
                y = seq.forward_stored(x) if stored else seq.forward(x)
                loss = ops.weighted_sum(ops.add(y, other), probe)
                grads = backprop(tape, loss, wrt=[x, o])
            return grads + [p.grad.data.copy() for p in params]

        for rev, ref in zip(run(stored=False), run(stored=True)):
            assert relative_error(rev, ref) <= 1e-4

    def test_recomputed_outputs_are_written_into_y(self, rng):
        # One block, width 10, 8^3. Each recorded recompute subtracts into
        # the half of its sample that it rebuilds, so its node's output is a
        # Tensor over y's buffer and no sub-network output exists beside it
        # (at batch 2, a copy while y's halves were copies; at batch 1, a
        # half-width Tensor of its own, dropped once the subtraction had
        # read it, until then).
        from revvolnet.reversible import sequence_backward

        for batch in (1, 2):
            seq = toy_sequence(1, 10, rng)
            block = seq.blocks[0]
            block.f, block.g = WatchedOutput(block.f), WatchedOutput(block.g)
            y = Tensor(randn5(rng, (batch, 10, 8, 8, 8)))
            sequence_backward(seq, randn5(rng, y.shape), y)
            for sub, half in ((block.g, slice(5, None)), (block.f, slice(None, 5))):
                assert len(sub.recorded) == batch
                for i, out in enumerate(sub.recorded):
                    assert np.shares_memory(out.data, y.data[i, half])
                    assert out.data.base is y.data

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
