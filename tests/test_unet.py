"""Architecture builder: validation, shapes, structure, parameter counts,
spec files, and checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from revvolnet import ops
from revvolnet.reversible import ConvUnit, Module
from revvolnet.tape import Tape, no_record
from revvolnet.tensor import Parameter, ShapeError, Tensor
from revvolnet.unet import (ArchitectureSpec, ConvLayer, _run_step, build,
                            forward_full_volume, load_checkpoint, load_spec,
                            parameter_count, parse_spec_text, save_checkpoint,
                            spec_to_text)
from revvolnet.verification import relative_error

from conftest import closed_form_count, randn5

DESK_SPEC = Path(__file__).resolve().parents[1] / "specs" / "desk_reversible.spec"


class TestSpecValidation:
    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            ArchitectureSpec(levels=[30]).validate()

    def test_odd_reversible_width_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            ArchitectureSpec(levels=[30, 61], group_size=1).validate()

    def test_group_size_divisibility_enforced(self):
        with pytest.raises(ValueError, match="group_size"):
            ArchitectureSpec(levels=[30, 60], group_size=4).validate()

    def test_even_kernel_rejected(self):
        # every conv pads "same", so each kernel field must be odd, and the
        # error names the field
        for field in ("kernel_size", "stem_kernel_size", "head_kernel_size"):
            spec = ArchitectureSpec(levels=[20, 40], group_size=10, **{field: 2})
            with pytest.raises(ValueError, match=f"^{field} must be odd"):
                spec.validate()

    @pytest.mark.parametrize("field", ["encoder_blocks", "decoder_blocks"])
    def test_twin_without_blocks_rejected(self, field):
        spec = ArchitectureSpec(levels=[10, 20], group_size=5, reversible=False,
                                **{field: 0})
        with pytest.raises(ValueError, match=field):
            spec.validate()

    @pytest.mark.parametrize("field, value", [
        ("norm_epsilon", 0.0), ("norm_epsilon", -1.0),
        ("norm_epsilon", float("nan")), ("norm_epsilon", float("inf")),
        ("leaky_slope", float("nan")), ("leaky_slope", float("inf")),
        ("leaky_slope", float("-inf"))])
    def test_epsilon_and_slope_must_be_usable(self, field, value):
        spec = ArchitectureSpec(levels=[10, 20], group_size=5, **{field: value})
        with pytest.raises(ValueError, match=field):
            spec.validate()

    def test_paired_flips_reversibility(self):
        spec = ArchitectureSpec(levels=[10, 20], group_size=5)
        assert spec.paired().reversible is False
        assert spec.paired().levels == spec.levels


class TestBuildAndForward:
    def test_tiny_spec_output_shape(self):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        y = forward_full_volume(net, Tensor(np.zeros((1, 4, 8, 8, 8), np.float32)))
        assert y.shape == (1, 3, 8, 8, 8)

    def test_zero_head_outputs_half(self):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        # biases start at zero; with zero input every layer stays at zero
        y = forward_full_volume(net, Tensor(np.zeros((1, 4, 8, 8, 8), np.float32)))
        np.testing.assert_allclose(y.data, 0.5, atol=1e-7)

    def test_baseline_variant_builds_and_runs(self, rng):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2,
                                     reversible=False), seed=0)
        y = forward_full_volume(net, Tensor(randn5(rng, (1, 4, 8, 8, 8))))
        assert y.shape == (1, 3, 8, 8, 8)
        assert np.all(y.data > 0) and np.all(y.data < 1)

    def test_batch_duplication_invariance(self, rng):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=1)
        v = randn5(rng, (1, 4, 8, 8, 8))
        single = forward_full_volume(net, Tensor(v)).data
        double = forward_full_volume(net, Tensor(np.concatenate([v, v]))).data
        np.testing.assert_allclose(double[0], single[0], atol=1e-6)
        np.testing.assert_allclose(double[1], single[0], atol=1e-6)

    def test_caller_volume_is_untouched(self, rng):
        # every sequence couples in place in its input, which is never the
        # caller's volume: that enters through the stem conv
        from revvolnet.training import AdamState, train_step

        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        v = randn5(rng, (2, 4, 8, 8, 8))
        x = Tensor(v.copy())
        forward_full_volume(net, x)
        np.testing.assert_array_equal(x.data, v)
        target = (rng.random((2, 3, 8, 8, 8)) < 0.3).astype(np.float32)
        train_step(net, list(net.parameters()), AdamState(), x, target,
                   1e-3, 0.0)
        np.testing.assert_array_equal(x.data, v)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_inference_equals_recorded_forward(self, rng, monkeypatch, batch):
        # forward_full_volume writes each merge into its skip's buffer; a
        # recorded forward writes no merge in place, since the merge's
        # backward reads its skip. Both give the same output bit for bit.
        net = build(load_spec(DESK_SPEC), seed=0)
        for p in net.parameters():
            if p.id.endswith(".bias"):  # the bias must pass through the merge
                p.value.data[...] = randn5(rng, p.shape)
        v = randn5(rng, (batch, 4, 16, 16, 16), scale=1.0)
        merge, calls = ops.upsample_merge, []

        def spy(skip, d, kernel, bias, consume_skip=False):
            y = merge(skip, d, kernel, bias, consume_skip=consume_skip)
            calls.append((consume_skip, np.may_share_memory(y.data, skip.data)))
            return y

        monkeypatch.setattr(ops, "upsample_merge", spy)
        fast = forward_full_volume(net, Tensor(v.copy())).data
        assert calls == [(True, True)] * 2
        calls.clear()
        with Tape():
            slow = net.forward(Tensor(v.copy())).data
        assert calls == [(False, False)] * 2
        assert np.array_equal(fast.view(np.uint32), slow.view(np.uint32))

    def test_indivisible_volume_rejected_with_divisor(self):
        net = build(ArchitectureSpec(levels=[4, 8, 16], group_size=2), seed=0)
        with pytest.raises(ShapeError, match="divisible by 4"):
            forward_full_volume(net, Tensor(np.zeros((1, 4, 6, 8, 8), np.float32)))

    def test_wrong_input_channels_rejected(self):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        with pytest.raises(ShapeError):
            forward_full_volume(net, Tensor(np.zeros((1, 3, 8, 8, 8), np.float32)))

    def test_build_is_seed_deterministic(self):
        spec = ArchitectureSpec(levels=[4, 8], group_size=2)
        a = build(spec, seed=5)
        b = build(spec, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.value.data, pb.value.data)


class TestStructure:
    def test_one_sequence_per_level_each_path(self):
        spec = ArchitectureSpec(levels=[10, 20, 40], group_size=5)
        net = build(spec, seed=0)
        seqs = net.sequences()
        enc = sorted(level for path, level, _ in seqs if path == "encoder")
        dec = sorted(level for path, level, _ in seqs if path == "decoder")
        assert enc == [0, 1, 2]
        assert dec == [0, 1]

    def test_sequence_depth_follows_spec(self):
        spec = ArchitectureSpec(levels=[10, 20], group_size=5,
                                encoder_blocks=3, decoder_blocks=2)
        net = build(spec, seed=0)
        for path, _level, seq in net.sequences():
            expect = 3 if path == "encoder" else 2
            assert len(seq.blocks) == expect

    def test_parameters_follow_the_steps(self, rng):
        # the network holds no parameter list of its own: a step's new
        # layer is what it trains and saves
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        kind, name, old = net.steps[0]
        new = ConvLayer(4, 4, 1, rng, "stem")
        net.steps[0] = (kind, name, new)
        params = list(net.parameters())
        assert params[0] is new.kernel and params[1] is new.bias
        assert not any(p is q for p in params for q in old.parameters())

    def test_conv_unit_parameters_are_norm_then_conv(self, rng):
        unit = ConvUnit(4, 6, rng, group_size=2, name="u")
        params = list(unit.parameters())
        want = [unit.norm.gamma, unit.norm.beta, unit.kernel, unit.bias]
        assert len(params) == 4
        assert all(p is q for p, q in zip(params, want))
        assert [p.id for p in params] == ["u.gamma", "u.beta", "u.kernel",
                                          "u.bias"]

    def test_shape_algebra_halves_and_restores(self):
        spec = ArchitectureSpec(levels=[10, 20, 40], group_size=5)
        net = build(spec, seed=0)
        entries = net.trace((1, 4, 16, 16, 16))
        by_name = {e.name: e.shape for e in entries}
        assert by_name["enc0"][2:] == (16, 16, 16)
        assert by_name["enc1"][2:] == (8, 8, 8)
        assert by_name["enc2"][2:] == (4, 4, 4)
        assert by_name["dec1"][2:] == (8, 8, 8)
        assert by_name["dec0"][2:] == (16, 16, 16)
        assert entries[-1].shape == (1, 3, 16, 16, 16)

    @pytest.mark.parametrize("reversible", [True, False],
                             ids=["reversible", "twin"])
    def test_every_conv_unit_carries_spec_epsilon(self, reversible):
        spec = ArchitectureSpec(levels=[4, 8], group_size=2, encoder_blocks=2,
                                reversible=reversible, norm_epsilon=0.5)

        def conv_units(obj):
            if isinstance(obj, ConvUnit):
                yield obj
            elif isinstance(obj, Module):
                for value in vars(obj).values():
                    for item in value if isinstance(value, list) else [value]:
                        yield from conv_units(item)

        units = [u for step in build(spec, seed=0).steps if len(step) > 2
                 for u in conv_units(step[2])]
        # two units per block: 2 blocks at each of 2 encoder levels, 1 decoder
        assert len(units) == 2 * (2 * 2 + 1)
        assert all(u.norm.epsilon == 0.5 for u in units)

    def test_trace_output_matches_real_forward(self, rng):
        for reversible in (True, False):
            spec = ArchitectureSpec(levels=[4, 8], group_size=2,
                                    reversible=reversible)
            net = build(spec, seed=0)
            x = randn5(rng, (2, 4, 8, 8, 8))
            y = forward_full_volume(net, Tensor(x))
            assert net.trace(x.shape)[-1].shape == y.shape


class TestParameterCount:
    def test_single_conv_with_bias_is_28(self, rng):
        p = Parameter(randn5(rng, (1, 1, 3, 3, 3)))
        b = Parameter(randn5(rng, (1, 1, 1, 1, 1)))
        assert p.element_count + b.element_count == 28

    def test_group_norm_layer_is_two_c(self):
        c = 30
        gamma = Parameter(np.ones((1, c, 1, 1, 1), np.float32))
        beta = Parameter(np.zeros((1, c, 1, 1, 1), np.float32))
        assert gamma.element_count + beta.element_count == 2 * c

    @pytest.mark.parametrize("spec", [
        ArchitectureSpec(levels=[10, 20, 40], group_size=5),
        ArchitectureSpec(levels=[10, 20, 40], group_size=5, reversible=False),
        ArchitectureSpec(levels=[4, 8], group_size=2, encoder_blocks=2,
                         decoder_blocks=3),
        ArchitectureSpec(levels=[30, 60, 120, 240, 480], reversible=False),
        ArchitectureSpec(levels=[60, 120, 240, 480, 960]),
        ArchitectureSpec(levels=[4, 8], group_size=2, encoder_blocks=2,
                         decoder_blocks=3, reversible=False),
    ], ids=["rev-desk", "base-desk", "rev-deep", "base-full", "rev-full",
            "base-deep"])
    def test_builder_matches_closed_form_oracle(self, spec):
        net = build(spec, seed=0)
        assert parameter_count(net) == closed_form_count(spec)

    def test_full_scale_counts_recorded(self):
        base = closed_form_count(
            ArchitectureSpec(levels=[30, 60, 120, 240, 480], reversible=False))
        rev = closed_form_count(
            ArchitectureSpec(levels=[60, 120, 240, 480, 960]))
        # Frozen from the closed-form table; acceptance criterion 6 pins the
        # built full-scale pair to the same table.
        assert base == 20_713_023
        assert rev == 22_245_063

    def test_depth_increment_is_per_block_cost(self):
        shallow = ArchitectureSpec(levels=[10, 20], group_size=5,
                                   encoder_blocks=1)
        deep = ArchitectureSpec(levels=[10, 20], group_size=5, encoder_blocks=4)
        diff = closed_form_count(deep) - closed_form_count(shallow)
        block_cost = sum(2 * (2 * (w // 2) + (w // 2) ** 2 * 27 + w // 2)
                         for w in (10, 20))
        assert diff == 3 * block_cost
        assert parameter_count(build(deep, 0)) - parameter_count(build(shallow, 0)) == diff


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        # Every field differs from its default, so a field that the writer
        # or the parser drops fails the comparison.
        spec = ArchitectureSpec(levels=[10, 20, 40], encoder_blocks=2,
                                decoder_blocks=3, reversible=False,
                                in_channels=2, out_regions=1, kernel_size=5,
                                group_size=5, stem_kernel_size=3,
                                head_kernel_size=3, leaky_slope=0.2,
                                norm_epsilon=1e-3)
        path = tmp_path / "arch.spec"
        path.write_text(spec_to_text(spec))
        loaded = load_spec(path)
        assert loaded == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_spec_text("levels=4,8\nbogus=3\n")

    def test_repeated_key_rejected(self):
        # the last one won silently: this built levels (20, 40)
        with pytest.raises(ValueError,
                           match=r"line 3: 'levels' already set on line 1"):
            parse_spec_text("levels=10,20\ngroup_size=5\nlevels=20,40\n")

    def test_missing_levels_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            parse_spec_text("encoder_blocks=1\n")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_spec_text(
            "# tiny\nlevels=4,8\n\ngroup_size=2  # per-group channels\n")
        assert spec.levels == (4, 8)
        assert spec.group_size == 2


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path, rng):
        spec = ArchitectureSpec(levels=[4, 8], group_size=2)
        net = build(spec, seed=3)
        x = Tensor(randn5(rng, (1, 4, 8, 8, 8)))
        before = forward_full_volume(net, x).data.copy()
        save_checkpoint(net, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        after = forward_full_volume(restored, x).data
        np.testing.assert_array_equal(before, after)

    def test_fused_merge_evaluates_as_upsample_concat_conv(self, tmp_path, rng):
        # The reversible decoder's merge steps apply each merge conv after
        # upsampling, in one op. A saved desk network, reloaded, gives what
        # the upsample -> concat -> 1x1x1 conv composition of the same
        # merge ConvLayer gives, at every step.
        net = build(load_spec(DESK_SPEC), seed=0)
        for p in net.parameters():
            if p.id.endswith(".bias"):  # the bias must pass through the merge
                p.value.data[...] = randn5(rng, p.shape)
        save_checkpoint(net, tmp_path / "ckpt")
        restored = load_checkpoint(tmp_path / "ckpt")
        assert [s[1] for s in restored.steps if s[0] == "merge"] == [
            "merge1", "merge0"]
        assert not [s for s in restored.steps if s[0] in ("upsample", "concat_skip")]
        x = Tensor(randn5(rng, (1, 4, 16, 16, 16), scale=1.0))

        def run(fused):
            h, skips, outs = x, {}, []
            with no_record():
                for step in restored.steps:
                    if step[0] == "merge" and not fused:
                        up = ops.upsample2(h)
                        h = step[2](ops.concat_channels(skips.pop(step[3]), up))
                    else:
                        h = _run_step(step, h, skips, stored=False)
                    # a snapshot: later steps work in place, and an
                    # unrecorded merge writes into its skip's buffer
                    outs.append(h.data.copy())
            return outs

        fused, composed = run(True), run(False)
        # float32 rounding only: the activations reach about 18 here
        for step, a, b in zip(restored.steps, fused, composed):
            assert relative_error(a, b) <= 1e-6, step[1]
        np.testing.assert_allclose(fused[-1], composed[-1], rtol=0, atol=1e-5)
        np.testing.assert_array_equal(forward_full_volume(restored, x).data,
                                      fused[-1])

    def test_failed_save_leaves_old_checkpoint_whole(self, tmp_path, monkeypatch):
        from revvolnet import tensorio

        spec = ArchitectureSpec(levels=[4, 8], group_size=2)
        old = build(spec, seed=3)
        save_checkpoint(old, tmp_path / "ckpt")
        files = sorted(p.name for p in tmp_path.iterdir())
        write_tensor, calls = tensorio.write_tensor, []

        def failing_write(fh, data):
            calls.append(1)
            if len(calls) == 5:
                raise OSError("disk full")
            write_tensor(fh, data)

        monkeypatch.setattr(tensorio, "write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build(spec, seed=4), tmp_path / "ckpt")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        restored = load_checkpoint(tmp_path / "ckpt")
        for a, b in zip(old.parameters(), restored.parameters()):
            assert a.id == b.id
            np.testing.assert_array_equal(a.value.data, b.value.data)

    def test_bytes_after_last_record_rejected(self, tmp_path):
        from revvolnet import tensorio

        save_checkpoint(build(ArchitectureSpec(levels=[4, 8], group_size=2)),
                        tmp_path / "ckpt")
        with open(tmp_path / "ckpt.rvt", "ab") as fh:
            tensorio.write_tensor(fh, np.zeros((1, 1, 1, 1, 1)))
        with pytest.raises(ValueError, match="ckpt.rvt: bytes after the last"):
            load_checkpoint(tmp_path / "ckpt")

    def test_desk_manifest_is_pinned(self, tmp_path):
        def conv(name):
            return [f"{name}.kernel", f"{name}.bias"]

        def block(name):
            return [f"{name}.b0.{sub}.{p}" for sub in "fg"
                    for p in ("gamma", "beta", "kernel", "bias")]

        want = (conv("stem") + block("enc0") + conv("down0") + block("enc1")
                + conv("down1") + block("enc2") + conv("merge1")
                + block("dec1") + conv("merge0") + block("dec0")
                + conv("head"))
        save_checkpoint(build(load_spec(DESK_SPEC), seed=0), tmp_path / "ckpt")
        assert (tmp_path / "ckpt.manifest").read_text().split() == want

    def test_manifest_lists_ids_in_registry_order(self, tmp_path):
        net = build(ArchitectureSpec(levels=[4, 8], group_size=2), seed=0)
        save_checkpoint(net, tmp_path / "ckpt")
        ids = (tmp_path / "ckpt.manifest").read_text().split()
        assert ids == [p.id for p in net.parameters()]
