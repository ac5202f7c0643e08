"""Tests of the benchmark's own logic: tail selection, the convolution
formulas, and that tracing wraps and unwraps the layer functions.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import random
import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from revvolnet import ops, reversible  # noqa: E402
from revvolnet.tape import Tape, backprop  # noqa: E402
from revvolnet.tensor import Tensor  # noqa: E402
from revvolnet.verification import toy_sequence  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == (90.0, 90, 10)
    assert run.tail(list(range(1, 26))) == (60.0, 15, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_conv_formulas_match_hand_count_and_materialised_windows():
    out_shape, kernel_shape = (1, 3, 4, 4, 4), (3, 2, 3, 3, 3)
    # 64 output voxels x 3 outputs x (2 channels x 27 offsets) multiply-adds
    assert tracing.conv_flops(out_shape, kernel_shape) == 2 * 64 * 3 * 2 * 27
    assert tracing.window_bytes(out_shape, kernel_shape) == 4 * 64 * 2 * 27 == 13824
    xp = np.zeros((1, 2, 6, 6, 6), dtype=np.float32)
    win = sliding_window_view(xp, (3, 3, 3), axis=(2, 3, 4))
    im2col = np.ascontiguousarray(win.transpose(0, 2, 3, 4, 1, 5, 6, 7))
    assert im2col.nbytes == tracing.window_bytes(out_shape, kernel_shape)


def test_untraced_run_sees_the_original_functions():
    original = ops.conv3d
    assert tracing.wrapped_targets() == []
    saved = tracing.install(tracing.Tracer())
    try:
        assert ops.conv3d is not original
        assert "revvolnet.ops.conv3d" in tracing.wrapped_targets()
    finally:
        tracing.uninstall(saved)
    assert ops.conv3d is original
    assert tracing.wrapped_targets() == []


def test_traced_reversible_step_counts_recompute():
    depth = 2
    seq = toy_sequence(depth, 8, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((1, 8, 4, 4, 4),
                                                        dtype=np.float32))
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        with Tape() as tape:
            y = seq.forward(x)
            backprop(tape, ops.reduce_sum(y))
    finally:
        tracing.uninstall(saved)
    m = tracer.layer_metrics(op_s=1.0)
    assert m["reversible.blocks_recomputed"] == depth
    # F and G per block, once forward and once recomputed in backward
    assert m["ops.conv3d.calls"] == 4 * depth
    # a backward call costs two forwards: weight and input gradients
    one = tracing.conv_flops((1, 4, 4, 4, 4), (4, 4, 3, 3, 3))
    assert tracer.counts["ops.conv3d_k3.fwd_flop"] == 4 * depth * one
    assert tracer.counts["ops.conv3d_k3.bwd_flop"] == 2 * depth * 2 * one
    assert 0 < m["reversible.recompute_fwd_s"] < m["reversible.sequence_backward_s"]
    assert reversible.sequence_backward.__module__ == "revvolnet.reversible"
