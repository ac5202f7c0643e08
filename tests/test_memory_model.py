"""Analytic estimates: term accounting, internal consistency, comparative
direction, and agreement with the runtime allocation accountant."""

import gc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from revvolnet import memory_model
from revvolnet.memory_model import (estimate_nonreversible,
                                    estimate_partially_reversible,
                                    measure_peak)
from revvolnet.tape import Tape
from revvolnet.tensor import Tensor
from revvolnet.training import AdamState, train_step
from revvolnet.unet import (ArchitectureSpec, ConvLayer, Network, build,
                            forward_full_volume, load_spec, parameter_count)

from conftest import closed_form_count

DESK_SPEC = Path(__file__).resolve().parents[1] / "specs" / "desk_reversible.spec"
DESK_BASE = ArchitectureSpec(levels=[10, 20, 40], group_size=5, reversible=False)
DESK_REV = ArchitectureSpec(levels=[10, 20, 40], group_size=5, reversible=True)
SHAPE = (1, 4, 32, 32, 32)


def single_conv_network():
    rng = np.random.default_rng(0)
    layer = ConvLayer(1, 1, 3, rng, "solo")
    spec = ArchitectureSpec(levels=[2, 4], group_size=1)
    return Network(spec, [("conv", "solo", layer)])


def training_step_closure(net, shape, stored, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape, dtype=np.float32) * 0.1)
    target = (rng.random((shape[0], 3) + shape[2:]) < 0.3).astype(np.float32)
    params = list(net.parameters())
    state = AdamState()

    def run():
        train_step(net, params, state, x, target, 1e-4, 1e-5,
                   stored_activations=stored)

    return run


class TestHandAccounting:
    def test_single_conv_layer_totals(self):
        # 512-voxel output: M_A = 2048, M_P = 28*4*4 = 448, M_D = 2048. No
        # backward reads a lone conv's output, so the tape does not retain
        # it and the total leaves its M_A out.
        report = estimate_nonreversible(single_conv_network(), (1, 1, 8, 8, 8))
        assert report.total_nonrev_bytes == 448 + 2048
        conv = [t for t in report.terms if t.kind == "nonrev"][0]
        assert conv.activation_bytes == 2048
        assert conv.saved is False
        assert conv.param_bytes == 448
        assert conv.derivative_bytes == 2048

    def test_empty_network_is_zero(self):
        spec = ArchitectureSpec(levels=[2, 4], group_size=1)
        empty = Network(spec, [])
        report = estimate_nonreversible(empty, (1, 1, 8, 8, 8))
        assert report.total_nonrev_bytes == 0
        assert report.total_prev_bytes == 0

    def test_batch_doubling_doubles_activation_terms_only(self):
        net = single_conv_network()
        one = estimate_nonreversible(net, (1, 1, 8, 8, 8))
        two = estimate_nonreversible(net, (2, 1, 8, 8, 8))
        a1 = [t for t in one.terms if t.kind == "nonrev"][0]
        a2 = [t for t in two.terms if t.kind == "nonrev"][0]
        assert a2.activation_bytes == 2 * a1.activation_bytes
        assert a2.derivative_bytes == 2 * a1.derivative_bytes
        assert a2.param_bytes == a1.param_bytes


class TestInternalConsistency:
    @pytest.mark.parametrize("spec", [DESK_BASE, DESK_REV])
    def test_totals_recompute_exactly_from_terms(self, spec):
        net = build(spec, seed=0)
        report = estimate_partially_reversible(net, SHAPE)
        sum_m_a = sum(t.activation_bytes for t in report.terms if t.saved)
        sum_m_p = sum(t.param_bytes for t in report.terms)
        max_m_d = max(t.derivative_bytes for t in report.terms)
        assert report.total_nonrev_bytes == sum_m_a + sum_m_p + max_m_d
        sum_m_n = sum(t.activation_bytes for t in report.terms
                      if t.saved and t.kind in ("input", "nonrev"))
        sum_m_s = sum(t.activation_bytes for t in report.terms
                      if t.kind == "boundary")
        max_m_b = max(t.backward_transient_bytes for t in report.terms)
        assert report.total_prev_bytes == sum_m_n + sum_m_s + sum_m_p + max_m_b

    def test_all_terms_are_nonnegative_integers(self):
        report = estimate_partially_reversible(build(DESK_REV, 0), SHAPE)
        for t in report.terms:
            for value in (t.activation_bytes, t.param_bytes,
                          t.derivative_bytes, t.backward_transient_bytes):
                assert isinstance(value, int) and value >= 0

    def test_network_without_sequences_has_equal_totals(self):
        net = build(DESK_BASE, seed=0)
        report = estimate_partially_reversible(net, SHAPE)
        assert report.total_prev_bytes == report.total_nonrev_bytes

    def test_param_bytes_are_what_a_train_step_holds(self):
        # after one step every parameter holds its value, its gradient and
        # Adam's two moments, and M_P counts exactly those bytes
        net = build(DESK_REV, seed=0)
        params = list(net.parameters())
        state = AdamState()
        shape = (1, 4, 8, 8, 8)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape, dtype=np.float32))
        target = (rng.random((1, 3) + shape[2:]) < 0.3).astype(np.float32)
        train_step(net, params, state, x, target, 1e-4, 1e-5)
        held = sum(p.value.nbytes + p.grad.nbytes + m.nbytes + v.nbytes
                   for p in params for m, v in [state.moments[p.id]])
        assert len(state.moments) == len(params)
        report = estimate_partially_reversible(net, shape)
        assert report.breakdown["sum_m_p_bytes"] == held
        assert report.breakdown["param_copies"] == memory_model.PARAM_COPIES


class TestComparativeDirection:
    def test_prev_estimate_below_nonrev_estimate_same_network(self):
        net = build(DESK_REV, seed=0)
        report = estimate_partially_reversible(net, SHAPE)
        assert report.total_prev_bytes < report.total_nonrev_bytes

    def test_reversible_beats_baseline_by_at_least_quarter(self):
        rev = estimate_partially_reversible(build(DESK_REV, 0), SHAPE)
        base = estimate_nonreversible(build(DESK_BASE, 0), SHAPE)
        reduction = 1.0 - rev.total_prev_bytes / base.total_nonrev_bytes
        assert rev.total_prev_bytes < base.total_nonrev_bytes
        assert reduction >= 0.25, f"reduction {reduction:.1%}"

    def test_depth_changes_only_param_terms(self):
        shallow = ArchitectureSpec(levels=[10, 20], group_size=5,
                                   encoder_blocks=1)
        deep = ArchitectureSpec(levels=[10, 20], group_size=5, encoder_blocks=4)
        r1 = estimate_partially_reversible(build(shallow, 0), SHAPE)
        r4 = estimate_partially_reversible(build(deep, 0), SHAPE)
        assert r4.breakdown["sum_m_s_bytes"] == r1.breakdown["sum_m_s_bytes"]
        assert r4.breakdown["max_m_b_bytes"] == r1.breakdown["max_m_b_bytes"]
        delta = r4.total_prev_bytes - r1.total_prev_bytes
        assert delta == r4.breakdown["sum_m_p_bytes"] - r1.breakdown["sum_m_p_bytes"]

    def test_twin_follows_depth_while_reversible_stays_flat(self):
        # The paper's depth claim: extra reversible blocks cost parameters
        # only, while the stored-activation twin keeps every new interior.
        rev, twin_total = {}, {}
        for n in (1, 4):
            spec = replace(load_spec(DESK_SPEC), encoder_blocks=n, decoder_blocks=n)
            rev[n] = estimate_partially_reversible(build(spec, 0), SHAPE)
            twin_total[n] = estimate_nonreversible(
                build(spec.paired(), 0), SHAPE).total_nonrev_bytes
        growth = {n: r.total_prev_bytes - r.breakdown["sum_m_p_bytes"]
                  for n, r in rev.items()}
        assert growth[4] == growth[1], growth
        assert twin_total[4] > 2 * twin_total[1], twin_total

    def test_branching_delta_documented(self):
        report = estimate_nonreversible(build(DESK_BASE, 0), SHAPE)
        assert report.breakdown["max_m_d_concurrent_bytes"] >= \
            report.breakdown["max_m_d_bytes"]
        assert report.breakdown["branching_delta_bytes"] == (
            report.breakdown["max_m_d_concurrent_bytes"]
            - report.breakdown["max_m_d_bytes"])


class TestMeasurePeak:
    def test_single_allocation(self):
        assert measure_peak(lambda: Tensor.zeros((1, 1, 10, 10, 10))) == 4000

    def test_alloc_free_alloc_counts_once(self):
        def run():
            a = Tensor.zeros((1, 1, 10, 10, 10))
            del a
            b = Tensor.zeros((1, 1, 10, 10, 10))
            del b

        assert measure_peak(run) == 4000

    def test_pending_cyclic_garbage_does_not_lower_peak(self):
        def run():
            gc.collect()  # the cyclic collector may fire at any allocation
            Tensor.zeros((1, 1, 10, 10, 10))

        clean = measure_peak(run)
        box = [Tensor.zeros((1, 8, 64, 32, 32))]  # 2 MB held by a cycle
        box.append(box)
        del box
        assert measure_peak(run) == clean == 4000

    @pytest.mark.parametrize("spec,stored,total_field", [
        (DESK_BASE, True, "total_nonrev_bytes"),
        (DESK_REV, False, "total_prev_bytes"),
    ], ids=["baseline", "reversible"])
    def test_measured_peak_within_band_of_estimate(self, spec, stored, total_field):
        net = build(spec, seed=0)
        report = estimate_partially_reversible(net, SHAPE)
        estimate = getattr(report, total_field)
        run = training_step_closure(net, SHAPE, stored)
        run()  # warm-up: parameters/optimizer state pre-allocated
        measured = measure_peak(run)
        factor = measured / estimate
        assert 0.8 <= factor <= 1.5, f"measured/estimate factor {factor:.3f}"

    def test_deeper_encoder_barely_moves_measured_peak(self):
        peaks = {}
        for depth in (1, 4):
            spec = ArchitectureSpec(levels=[10, 20], group_size=5,
                                    encoder_blocks=depth)
            net = build(spec, seed=0)
            run = training_step_closure(net, SHAPE, stored=False)
            run()
            peaks[depth] = measure_peak(run)
        assert peaks[4] == peaks[1], peaks

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_desk_reversible_peak_is_model_less_m_p(self, blocks):
        # The paper's depth claim, exactly: the step measured after a
        # warm-up (which allocates M_P) peaks at the same figure at every
        # depth, the model less M_P plus batch x 393,216 B + 4 B, at batch 1
        # and 2. With M_B at 2 halves (memtrack's count, which leaves out the
        # unit's input gradient the nested backward returns) the block
        # backward no longer sets the peak: the head conv's backward does,
        # its 3-channel output gradient (393,216 B a sample) beside its
        # input gradient, which the sum + max form counts once (M_D), as in
        # stored mode, plus the 4 B loss scalar. (At batch 2, +3,932,164 B
        # while the sequence backward's Tensors over y's halves and the
        # merge's gradient halves were copies; at batch 1, +4 B while each
        # recompute formed its whole output half and M_B was 3 halves, and
        # +262,144 B at 1 block and +917,504 B at 2 and 4 while each
        # sequence's forward built fresh halves and concatenated them.)
        # 5,660,676 B at batch 1 while the tape retained each level's
        # pooled copy before its down conv.
        from revvolnet import cli

        spec = replace(load_spec(DESK_SPEC), encoder_blocks=blocks,
                       decoder_blocks=blocks)
        net = build(spec, seed=0)
        for batch, pinned in ((1, 5_455_876), (2, 10_911_748)):
            shape = (batch,) + SHAPE[1:]
            report = estimate_partially_reversible(net, shape)
            _, tracked, _ = cli._step_peak(net, shape, 0)
            assert tracked == (report.total_prev_bytes
                               - report.breakdown["sum_m_p_bytes"]
                               + batch * 3 * 32 ** 3 * 4 + 4) == pinned

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("twin", [False, True], ids=["stored", "twin"])
    def test_desk_stored_and_twin_peaks_are_model_less_m_p(self, twin, batch):
        # The stored step peaks as the reversible one does, at the head
        # conv's backward, the model less M_P plus batch x 393,216 B + 4 B;
        # the twin at the model less M_P plus the 4 B loss scalar. (At batch
        # 2, 19,464,196 and 36,749,316 B while the merge's gradient halves
        # were copies.)
        from revvolnet import cli

        spec = load_spec(DESK_SPEC)
        net = build(spec.paired() if twin else spec, seed=0)
        shape = (batch,) + SHAPE[1:]
        report = estimate_partially_reversible(net, shape)
        _, tracked, _ = cli._step_peak(net, shape, 0, stored=not twin)
        head = 0 if twin else batch * 3 * 32 ** 3 * 4
        pinned = {(False, 1): 8_814_596, (False, 2): 17_629_188,
                  (True, 1): 17_063_940, (True, 2): 34_127_876}
        assert tracked == (report.total_nonrev_bytes
                           - report.breakdown["sum_m_p_bytes"]
                           + head + 4) == pinned[twin, batch]

    def test_desk_inference_peak_is_flat_in_depth(self):
        # The paper's depth claim at inference: each sequence couples in its
        # input's buffer, F and G adding their outputs into it slab by slab,
        # so forward_full_volume's tracked peak at desk 16^3 is the same at
        # 1, 2 and 4 blocks per level: 1.3125 level-0 buffers, the level-0
        # and level-1 skips beside the level-2 buffer (1.375, at down0,
        # while each down conv read a whole pooled copy)
        volume = Tensor(np.random.default_rng(0).standard_normal(
            (1, 4, 16, 16, 16), dtype=np.float32))
        peaks = {}
        for blocks in (1, 2, 4):
            spec = replace(load_spec(DESK_SPEC), encoder_blocks=blocks,
                           decoder_blocks=blocks)
            net = build(spec, seed=0)
            peaks[blocks] = measure_peak(lambda: forward_full_volume(net, volume))
        assert peaks == dict.fromkeys((1, 2, 4), 215_040)

    @pytest.mark.parametrize("stored,bound", [(False, 10_500_000),
                                              (True, 14_000_000)],
                             ids=["reversible", "stored"])
    def test_desk_step_peak_keeps_only_what_backward_reads(self, stored, bound):
        # A tape that kept every recorded output measured 23,371,780 B
        # (reversible) and 34,922,500 B (stored) for this step; one that
        # retained the concatenation before each merge conv, 16,736,260 B
        # and 21,159,940 B; one that kept each GroupNorm output for the
        # LeakyReLU after it, 11,165,700 B and 16,654,340 B.
        net = build(load_spec(DESK_SPEC), seed=0)
        run = training_step_closure(net, SHAPE, stored)
        run()
        measured = measure_peak(run)
        assert measured < bound, measured

    @pytest.mark.parametrize("twin,stored", [(False, False), (False, True),
                                             (True, False)],
                             ids=["reversible", "stored", "twin"])
    def test_tracked_peak_within_numpy_peak(self, twin, stored):
        # the desk 32^3 step as `bench` measures it: memtrack counts a subset
        # of the buffers tracemalloc sees, so a tracked peak above the numpy
        # one counts some buffer twice (the reversible step read 9,199,620
        # against 8,909,032 B while the block backward wrapped views of its
        # incoming gradient in Tensors of their own)
        from revvolnet import cli

        spec = load_spec(DESK_SPEC)
        net = build(spec.paired() if twin else spec, seed=0)
        _, tracked, numpy_peak = cli._step_peak(net, SHAPE, 0, stored=stored)
        assert 0 < tracked <= numpy_peak, (tracked, numpy_peak)

    def test_stored_reference_grows_markedly_with_depth(self):
        peaks = {}
        for depth in (1, 4):
            spec = ArchitectureSpec(levels=[10, 20], group_size=5,
                                    encoder_blocks=depth)
            net = build(spec, seed=0)
            run = training_step_closure(net, SHAPE, stored=True)
            run()
            peaks[depth] = measure_peak(run)
        assert peaks[4] >= 1.4 * peaks[1], peaks


ZERO_BLOCK = ArchitectureSpec(levels=[4, 8], group_size=2, encoder_blocks=0,
                              decoder_blocks=0)


EXECUTOR_SPECS = pytest.mark.parametrize("spec", [
    ArchitectureSpec(levels=[4, 8], group_size=2),
    ArchitectureSpec(levels=[4, 8], group_size=2, reversible=False),
    ZERO_BLOCK,
    ArchitectureSpec(levels=[4, 8, 16], group_size=2, encoder_blocks=3,
                     decoder_blocks=2),
    ArchitectureSpec(levels=[4, 8, 16], group_size=2, encoder_blocks=3,
                     decoder_blocks=2, reversible=False),
], ids=["reversible", "baseline", "zero_block", "deep", "deep_baseline"])


def forward_retained_bytes(net, shape, stored):
    x = Tensor(np.random.default_rng(0).standard_normal(shape, dtype=np.float32))
    with Tape() as tape:
        net.forward(x, stored_activations=stored)
        return tape.retained_bytes


class TestExecutorMatch:
    """The model's activation terms are what the tape retains in each mode."""

    @EXECUTOR_SPECS
    def test_sum_m_a_equals_stored_tape_retained_bytes(self, spec):
        shape = (2, 4, 8, 8, 8)
        net = build(spec, seed=0)
        assert parameter_count(net) == closed_form_count(spec)  # the spec's depth
        retained = forward_retained_bytes(net, shape, stored=True)
        report = memory_model.estimate(net, shape)
        assert report.breakdown["sum_m_a_bytes"] == retained

    @EXECUTOR_SPECS
    def test_sum_m_n_plus_m_s_equals_reversible_tape_retained_bytes(self, spec):
        shape = (2, 4, 8, 8, 8)
        net = build(spec, seed=0)
        retained = forward_retained_bytes(net, shape, stored=False)
        b = memory_model.estimate(net, shape).breakdown
        assert b["sum_m_n_bytes"] + b["sum_m_s_bytes"] == retained

    def test_desk_trace_marks_what_some_backward_reads(self):
        report = memory_model.estimate(build(DESK_REV, seed=0), SHAPE)
        saved = {t.layer: t.saved for t in report.terms}
        # read by a pooled down conv, a merge or a conv, or by their own
        # backward
        assert all(saved[n] for n in ("enc0", "enc1", "enc2", "dec1", "dec0",
                                      "output"))
        # read only by backwards that read no input: a reversible sequence
        # or the sigmoid
        assert not any(saved[n] for n in ("stem", "down0", "merge1", "merge0",
                                          "head"))
        # the merge step reads the skip and the coarser output directly,
        # and each down conv pools its skip as it reads it
        assert not {"up0", "cat0", "up1", "cat1", "pool0", "pool1"} & set(saved)

    def test_desk_reversible_tape_keeps_no_pooled_copy(self):
        # the down steps pool inside their conv, so the trace has no pool
        # term and the tape retains the sequence outputs, the skips the
        # down convs save among them, and the output alone: 3,751,936 B
        # at 1x4x32^3 (3,956,736 B while it kept both pooled copies)
        net = build(DESK_REV, seed=0)
        layers = [t.layer for t in memory_model.estimate(net, SHAPE).terms]
        assert not [n for n in layers if n.startswith("pool")], layers
        assert "down0" in layers and "down1" in layers
        assert forward_retained_bytes(net, SHAPE, stored=False) == 3_751_936

    @pytest.mark.parametrize("spec", [DESK_REV, DESK_BASE, ZERO_BLOCK],
                             ids=["reversible", "baseline", "zero_block"])
    def test_layer_names_are_unique_strings(self, spec):
        report = memory_model.estimate(build(spec, seed=0), SHAPE)
        layers = [t.layer for t in report.terms]
        assert all(isinstance(layer, str) for layer in layers), layers
        assert len(set(layers)) == len(layers), layers
        # the twin concatenates before its first GroupNorm; the reversible
        # net merges after upsampling, in one step
        assert ("merge0" if spec.reversible else "cat0") in layers
        assert ("cat0" in layers) != spec.reversible


class TestReportFormats:
    def test_json_has_stable_field_names(self):
        report = estimate_partially_reversible(build(DESK_REV, 0), SHAPE)
        import json

        doc = json.loads(report.to_json())
        assert set(doc) == {"total_nonrev_bytes", "total_prev_bytes",
                            "measured_peak_bytes",
                            "measured_numpy_peak_bytes",
                            "measured_inference_peak_bytes",
                            "measured_inference_numpy_peak_bytes",
                            "breakdown", "terms"}
        assert set(doc["terms"][0]) == {"layer", "kind", "activation_bytes",
                                        "param_bytes", "derivative_bytes",
                                        "backward_transient_bytes", "saved"}

    def test_table_is_aligned_text(self):
        report = estimate_nonreversible(single_conv_network(), (1, 1, 8, 8, 8))
        table = report.to_table()
        lines = table.splitlines()
        assert "layer" in lines[0] and "M_A bytes" in lines[0]
        assert str(report.total_nonrev_bytes) in table
        assert "model less M_P" not in table

    def test_table_names_the_compared_figure_beside_the_peaks(self):
        report = estimate_partially_reversible(build(DESK_REV, 0), SHAPE)
        report.measured_peak_bytes = 1
        report.measured_numpy_peak_bytes = 2
        lines = report.to_table().splitlines()
        model = report.total_prev_bytes - report.breakdown["sum_m_p_bytes"]
        assert lines[-3].split() == ["model", "less", "M_P:", str(model)]
        assert lines[-2].split()[-1] == "1" and lines[-1].split()[-1] == "2"
