"""Primitive op semantics against hand values and independent oracles."""

import tracemalloc

import numpy as np
import pytest

from revvolnet import ops
from revvolnet.tape import Tape, backprop, backward, no_record
from revvolnet.tensor import Parameter, ShapeError, Tensor
from revvolnet.verification import run_op_gradchecks

from conftest import randn5


def conv3d_direct(x, w, b, pads):
    """Six-loop reference convolution (cross-correlation), the oracle."""
    bs, ci, d, h, wd = x.shape
    co, _, kd, kh, kw = w.shape
    pd, ph, pw = pads
    od, oh, ow = d + 2 * pd - kd + 1, h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    xp = np.zeros((bs, ci, d + 2 * pd, h + 2 * ph, wd + 2 * pw), np.float64)
    xp[:, :, pd:pd + d, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((bs, co, od, oh, ow), np.float64)
    for n in range(bs):
        for o in range(co):
            for z in range(od):
                for y in range(oh):
                    for q in range(ow):
                        acc = 0.0
                        for i in range(ci):
                            for dz in range(kd):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        acc += (w[o, i, dz, dy, dx]
                                                * xp[n, i, z + dz, y + dy, q + dx])
                        out[n, o, z, y, q] = acc + (b[0, o, 0, 0, 0] if b is not None else 0.0)
    return out


class TestConv3d:
    def test_scalar_product(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 2.0, np.float32))
        k = Parameter(np.full((1, 1, 1, 1, 1), 3.0, np.float32))
        b = Parameter(np.zeros((1, 1, 1, 1, 1), np.float32))
        with no_record():
            y = ops.conv3d(x, k, b, padding=(0, 0, 0))
        assert y.item() == 6.0

    def test_zero_input_yields_bias_everywhere(self, rng):
        x = Tensor(np.zeros((1, 2, 4, 4, 4), np.float32))
        k = Parameter(randn5(rng, (3, 2, 3, 3, 3)))
        b = Parameter(np.array([1.5, -2.0, 0.25], np.float32).reshape(1, 3, 1, 1, 1))
        with no_record():
            y = ops.conv3d(x, k, b)
        for c, v in enumerate((1.5, -2.0, 0.25)):
            assert np.all(y.data[:, c] == np.float32(v))

    def test_all_ones_same_padding_center_and_corner(self):
        x = Tensor(np.ones((1, 1, 3, 3, 3), np.float32))
        k = Parameter(np.ones((1, 1, 3, 3, 3), np.float32))
        with no_record():
            y = ops.conv3d(x, k, None)
        assert y.data[0, 0, 1, 1, 1] == 27.0
        assert y.data[0, 0, 0, 0, 0] == 8.0

    def test_matches_direct_loop_oracle(self, rng):
        x = randn5(rng, (2, 3, 4, 5, 4))
        k = randn5(rng, (2, 3, 3, 3, 3))
        b = randn5(rng, (1, 2, 1, 1, 1))
        with no_record():
            got = ops.conv3d(Tensor(x), Parameter(k), Parameter(b)).data
        want = conv3d_direct(x, k, b, (1, 1, 1))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_asymmetric_padding_matches_oracle(self, rng):
        x = randn5(rng, (1, 2, 5, 4, 6))
        k = randn5(rng, (2, 2, 3, 1, 3))
        with no_record():
            got = ops.conv3d(Tensor(x), Parameter(k), None, padding=(0, 0, 2)).data
        want = conv3d_direct(x, k, None, (0, 0, 2))
        assert got.shape == (1, 2, 3, 4, 8)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_channel_mismatch_names_both_shapes(self, rng):
        x = Tensor(randn5(rng, (1, 3, 4, 4, 4)))
        k = Parameter(randn5(rng, (2, 2, 3, 3, 3)))
        with pytest.raises(ShapeError) as err:
            ops.conv3d(x, k, None)
        assert "(1, 3, 4, 4, 4)" in str(err.value)
        assert "(2, 2, 3, 3, 3)" in str(err.value)

    def test_even_kernel_same_padding_rejected(self, rng):
        x = Tensor(randn5(rng, (1, 1, 4, 4, 4)))
        k = Parameter(randn5(rng, (1, 1, 2, 2, 2)))
        with pytest.raises(ShapeError):
            ops.conv3d(x, k, None, padding="same")

    def test_zero_extent_propagates(self, rng):
        x = Tensor(np.zeros((1, 2, 0, 4, 4), np.float32))
        k = Parameter(randn5(rng, (3, 2, 3, 3, 3)))
        with no_record():
            y = ops.conv3d(x, k, None)
        assert y.shape == (1, 3, 0, 4, 4)


def conv3d_direct_backward(g, x, w, pads):
    """Six-loop adjoint of ``conv3d_direct``: the input, kernel and bias
    gradients of sum(g * conv3d_direct(x, w, b, pads)), in float64."""
    bs, ci, d, h, wd = x.shape
    co, _, kd, kh, kw = w.shape
    pd, ph, pw = pads
    xp = np.zeros((bs, ci, d + 2 * pd, h + 2 * ph, wd + 2 * pw), np.float64)
    xp[:, :, pd:pd + d, ph:ph + h, pw:pw + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, np.float64)
    for n in range(bs):
        for o in range(co):
            for z in range(g.shape[2]):
                for y in range(g.shape[3]):
                    for q in range(g.shape[4]):
                        go = float(g[n, o, z, y, q])
                        for i in range(ci):
                            for dz in range(kd):
                                for dy in range(kh):
                                    for dx in range(kw):
                                        gxp[n, i, z + dz, y + dy, q + dx] += (
                                            w[o, i, dz, dy, dx] * go)
                                        gw[o, i, dz, dy, dx] += (
                                            xp[n, i, z + dz, y + dy, q + dx] * go)
    gx = gxp[:, :, pd:pd + d, ph:ph + h, pw:pw + wd]
    gb = g.astype(np.float64).sum(axis=(0, 2, 3, 4)).reshape(1, co, 1, 1, 1)
    return gx, gw, gb


# (input shape, kernel shape, padding) of the backward oracle cases
ADJOINT_CASES = pytest.mark.parametrize("x_shape, k_shape, padding", [
    ((2, 3, 4, 5, 6), (4, 3, 3, 3, 3), "same"),
    ((1, 3, 5, 4, 6), (2, 3, 3, 1, 3), (0, 0, 2)),
    ((1, 2, 5, 4, 6), (2, 2, 3, 3, 3), (0, 0, 0)),
    ((2, 3, 3, 4, 5), (4, 3, 1, 1, 1), (0, 0, 0)),
], ids=["batched_non_cubic", "asymmetric_kernel", "unpadded", "conv1x1x1"])


class TestConvBackward:
    @ADJOINT_CASES
    def test_gradients_match_direct_adjoint(self, rng, x_shape, k_shape, padding):
        x = randn5(rng, x_shape)
        k = Parameter(randn5(rng, k_shape))
        b = Parameter(randn5(rng, (1, k_shape[0], 1, 1, 1)))
        xt = Tensor(x.copy())
        with Tape() as tape:
            if k_shape[2:] == (1, 1, 1):
                y = ops.conv1x1x1(xt, k, b)
            else:
                y = ops.conv3d(xt, k, b, padding=padding)
            probe = randn5(rng, y.shape, scale=1.0)
            (gx,) = backprop(tape, ops.weighted_sum(y, probe), wrt=[xt])
        pads = (1, 1, 1) if padding == "same" else padding
        want_gx, want_gw, want_gb = conv3d_direct_backward(
            probe, x, k.value.data, pads)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(k.grad.data, want_gw, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad.data, want_gb, rtol=1e-5, atol=1e-6)

    @ADJOINT_CASES
    def test_ragged_column_tiles_match_one_tile_and_adjoint(
            self, rng, monkeypatch, x_shape, k_shape, padding):
        x = randn5(rng, x_shape)
        k = Parameter(randn5(rng, k_shape))
        b = Parameter(randn5(rng, (1, k_shape[0], 1, 1, 1)))
        pads = (1, 1, 1) if padding == "same" else padding
        with no_record():
            one_tile = ops.conv3d(Tensor(x), k, b, padding=pads).data
        # 7 accumulator columns per tile; every case's column count is not
        # a multiple of 7, so the last tile is ragged
        cols = 7
        monkeypatch.setattr(ops, "_TILE_BYTES", 4 * k_shape[0] * cols)
        hp, wp = (e + 2 * p for e, p in zip(x_shape[3:], pads[1:]))
        n = ops._shift_gemm_plan(k.value.data, hp, wp, one_tile.shape[2:])[2]
        assert n > cols and n % cols
        xt = Tensor(x.copy())
        with Tape() as tape:
            y = ops.conv3d(xt, k, b, padding=pads)
            probe = randn5(rng, y.shape, scale=1.0)
            (gx,) = backprop(tape, ops.weighted_sum(y, probe), wrt=[xt])
        np.testing.assert_array_equal(y.data, one_tile)
        want_gx, want_gw, want_gb = conv3d_direct_backward(
            probe, x, k.value.data, pads)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(k.grad.data, want_gw, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(b.grad.data, want_gb, rtol=1e-5, atol=1e-6)

    def test_kernel_scratch_stays_below_half_the_window_matrix(self, rng):
        # one forward and one backward at 1x5x32^3 with a 5x5x3^3 kernel; an
        # im2col kernel materialises the C_in*27 x voxels window matrix
        x = Tensor(randn5(rng, (1, 5, 32, 32, 32)))
        k = Parameter(randn5(rng, (5, 5, 3, 3, 3)))
        b = Parameter(randn5(rng, (1, 5, 1, 1, 1)))
        probe = randn5(rng, (1, 5, 32, 32, 32))
        window_bytes = 5 * 27 * 32 ** 3 * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = ops.conv3d(x, k, b)
                backprop(tape, ops.weighted_sum(y, probe), wrt=[x])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < window_bytes / 2, (peak, window_bytes)


class TestConv1x1x1:
    def test_identity_kernel(self, rng):
        x = Tensor(randn5(rng, (1, 3, 2, 2, 2)))
        eye = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1, 1)
        with no_record():
            y = ops.conv1x1x1(x, Parameter(eye), None)
        np.testing.assert_array_equal(y.data, x.data)

    def test_two_channel_matrix_by_hand(self):
        x = Tensor(np.array([1.0, 2.0], np.float32).reshape(1, 2, 1, 1, 1))
        k = Parameter(np.array([[1.0, 1.0], [1.0, -1.0]], np.float32
                               ).reshape(2, 2, 1, 1, 1))
        with no_record():
            y = ops.conv1x1x1(x, k, None)
        np.testing.assert_array_equal(y.data.ravel(), [3.0, -1.0])

    def test_random_case_matches_conv3d(self, rng):
        x = randn5(rng, (2, 3, 3, 3, 3))
        k = randn5(rng, (4, 3, 1, 1, 1))
        b = randn5(rng, (1, 4, 1, 1, 1))
        with no_record():
            a = ops.conv1x1x1(Tensor(x), Parameter(k), Parameter(b)).data
            c = ops.conv3d(Tensor(x), Parameter(k), Parameter(b),
                           padding=(0, 0, 0)).data
        np.testing.assert_array_equal(a, c)

    def test_wide_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            ops.conv1x1x1(Tensor(randn5(rng, (1, 2, 2, 2, 2))),
                          Parameter(randn5(rng, (2, 2, 3, 3, 3))), None)


class TestGroupNorm:
    def _params(self, c, gamma=1.0, beta=0.0):
        g = Parameter(np.full((1, c, 1, 1, 1), gamma, np.float32))
        b = Parameter(np.full((1, c, 1, 1, 1), beta, np.float32))
        return g, b

    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((1, 4, 2, 2, 2), 3.7, np.float32))
        g, b = self._params(4)
        with no_record():
            y = ops.group_norm(x, g, b, group_size=2)
        np.testing.assert_allclose(y.data, 0.0, atol=1e-4)

    def test_two_values_hand_case(self):
        # one group holding {1, 3}: mean 2, population std 1 -> {-1, +1}
        x = Tensor(np.array([1.0, 3.0], np.float32).reshape(1, 2, 1, 1, 1))
        g, b = self._params(2)
        with no_record():
            y = ops.group_norm(x, g, b, group_size=2, epsilon=1e-12)
        np.testing.assert_allclose(y.data.ravel(), [-1.0, 1.0], atol=1e-4)

    def test_zero_gamma_collapses_to_beta(self, rng):
        x = Tensor(randn5(rng, (2, 4, 3, 3, 3), scale=1.0))
        g, b = self._params(4, gamma=0.0, beta=0.77)
        with no_record():
            y = ops.group_norm(x, g, b, group_size=4)
        np.testing.assert_allclose(y.data, 0.77, rtol=1e-6)

    def test_indivisible_channels_rejected(self, rng):
        x = Tensor(randn5(rng, (1, 3, 2, 2, 2)))
        g, b = self._params(3)
        with pytest.raises(ShapeError):
            ops.group_norm(x, g, b, group_size=2)

    def test_zero_extent(self):
        x = Tensor(np.zeros((1, 4, 0, 2, 2), np.float32))
        g, b = self._params(4)
        with no_record():
            y = ops.group_norm(x, g, b, group_size=2)
        assert y.shape == x.shape

    def test_forward_and_gradients_match_float64_oracle_at_mean_100(self, rng):
        # B=2, 2 groups of 3 channels, inputs offset by 100: E[x^2] - E[x]^2
        # in float32 would lose the variance to cancellation here
        x = (rng.standard_normal((2, 6, 3, 4, 5)) + 100.0).astype(np.float32)
        gam = rng.uniform(0.5, 1.5, (1, 6, 1, 1, 1)).astype(np.float32)
        bet = randn5(rng, (1, 6, 1, 1, 1), scale=1.0)
        probe = randn5(rng, x.shape, scale=1.0)
        eps = 1e-5
        g, b = Parameter(gam.copy()), Parameter(bet.copy())
        xt = Tensor(x.copy())
        with Tape() as tape:
            y = ops.group_norm(xt, g, b, group_size=3, epsilon=eps)
            (gx,) = backprop(tape, ops.weighted_sum(y, probe), wrt=[xt])

        x64 = x.astype(np.float64).reshape(2, 2, -1)
        x_hat = ((x64 - x64.mean(axis=2, keepdims=True))
                 / np.sqrt(x64.var(axis=2, keepdims=True) + eps)).reshape(x.shape)
        want_y = x_hat * gam + bet
        gy = probe.astype(np.float64)
        want_gb = gy.sum(axis=(0, 2, 3, 4), keepdims=True)
        want_gg = (gy * x_hat).sum(axis=(0, 2, 3, 4), keepdims=True)
        gh = (gy * gam).reshape(2, 2, -1)
        xh = x_hat.reshape(2, 2, -1)
        istd = 1.0 / np.sqrt(x64.var(axis=2, keepdims=True) + eps)
        want_gx = (istd * (gh - gh.mean(axis=2, keepdims=True)
                           - xh * (gh * xh).mean(axis=2, keepdims=True))
                   ).reshape(x.shape)
        # errors relative to the largest magnitude; float32 rounding of the
        # mean near 100 alone costs about 5e-6 in y and 3e-5 in d_gamma
        for got, want, tol in ((y.data, want_y, 2e-5), (gx, want_gx, 1e-5),
                               (g.grad.data, want_gg, 1e-4),
                               (b.grad.data, want_gb, 1e-6)):
            assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestLeakyRelu:
    def test_positive_passthrough(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), 1.0, np.float32))
        with no_record():
            assert ops.leaky_relu(x).item() == 1.0

    def test_negative_scaled(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), -2.0, np.float32))
        with no_record():
            assert ops.leaky_relu(x, 0.01).item() == pytest.approx(-0.02)

    def test_gradient_at_negative_two(self):
        x = Tensor(np.full((1, 1, 1, 1, 1), -2.0, np.float32))
        with Tape() as tape:
            loss = ops.reduce_sum(ops.leaky_relu(x, 0.01))
            (gx,) = backprop(tape, loss, wrt=[x])
        assert gx.reshape(()) == pytest.approx(0.01)
        # central finite difference oracle
        fd = (((-2.0 + 1e-3) * 0.01) - ((-2.0 - 1e-3) * 0.01)) / 2e-3
        assert gx.reshape(()) == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0, 2.0, -0.5, 0.0])
    def test_matches_where_bit_for_bit(self, rng, slope):
        # 105 elements: the specials sit in vector lanes and in the tail
        x = randn5(rng, (1, 1, 3, 5, 7), scale=3.0)
        specials = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45]
        x.flat[:7] = x.flat[-7:] = specials
        s = np.float32(slope)
        with no_record(), np.errstate(invalid="ignore"):  # 0 * inf
            y = ops.leaky_relu(Tensor(x.copy()), slope).data
            want = np.where(x >= 0, x, s * x)
        np.testing.assert_array_equal(y.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0, 2.0, -0.5])
    def test_backward_matches_where_bit_for_bit(self, rng, slope):
        x = randn5(rng, (1, 1, 3, 5, 7), scale=3.0)
        g = randn5(rng, x.shape, scale=3.0)
        specials = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45]
        # every special input meets every special gradient, in the vector
        # lanes and in the tail
        x.flat[:49] = np.repeat(specials, 7)
        g.flat[:49] = np.tile(specials, 7)
        x.flat[-7:] = g.flat[-7:] = specials
        s = np.float32(slope)
        xt = Tensor(x.copy())
        with Tape() as tape, np.errstate(invalid="ignore"):
            y = ops.leaky_relu(xt, slope)
            (gx,) = backward(tape, y, g, wrt=[xt])
            want = np.where(x >= 0, g, s * g)
        np.testing.assert_array_equal(gx.view(np.uint32), want.view(np.uint32))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        with no_record():
            assert ops.sigmoid(Tensor.scalar(0.0)).item() == 0.5

    def test_saturates_at_forty(self):
        with no_record():
            assert ops.sigmoid(Tensor.scalar(40.0)).item() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_at_zero_is_quarter(self):
        x = Tensor.scalar(0.0)
        with Tape() as tape:
            loss = ops.reduce_sum(ops.sigmoid(x))
            (gx,) = backprop(tape, loss, wrt=[x])
        assert gx.reshape(()) == pytest.approx(0.25, abs=1e-5)


class TestMaxPool2:
    def test_constant_block(self):
        x = Tensor(np.full((1, 1, 2, 2, 2), 4.25, np.float32))
        with no_record():
            assert ops.max_pool2(x).item() == 4.25

    def test_scan_order_block_takes_max(self):
        x = Tensor(np.arange(1.0, 9.0, dtype=np.float32).reshape(1, 1, 2, 2, 2))
        with no_record():
            assert ops.max_pool2(x).item() == 8.0

    def test_tie_routes_gradient_to_first_in_scan_order(self):
        x = Tensor(np.full((1, 1, 2, 2, 2), 5.0, np.float32))
        with Tape() as tape:
            loss = ops.reduce_sum(ops.max_pool2(x))
            (gx,) = backprop(tape, loss, wrt=[x])
        expect = np.zeros((1, 1, 2, 2, 2), np.float32)
        expect[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(gx, expect)
        assert gx.sum() == 1.0  # gradient mass preserved

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError):
            ops.max_pool2(Tensor(randn5(rng, (1, 1, 3, 4, 4))))

    def test_many_blocks_match_per_block_loop(self, rng):
        x = randn5(rng, (2, 3, 6, 4, 8), scale=1.0)
        x[0, 0, 0:2, 0:2, 0:2] = 0.5                 # whole block tied
        x[1, 2, 2:4, 2:4, 4:6] = -3.0
        x[1, 2, 2, 3, 4] = x[1, 2, 3, 2, 5] = 9.0    # two maxima, scan 2 and 5
        x[0, 1, 5, 1, 3] = np.nan                    # block (0, 1, 2, 0, 1)
        xt = Tensor(x.copy())
        with Tape() as tape:
            y = ops.max_pool2(xt)
            probe = randn5(rng, y.shape, scale=1.0)
            (gx,) = backprop(tape, ops.weighted_sum(y, probe), wrt=[xt])

        want = np.zeros(y.shape, np.float32)
        want_gx = np.zeros(x.shape, np.float32)
        for idx in np.ndindex(*y.shape):
            n, c, z, r, q = idx
            sl = (n, c, slice(2 * z, 2 * z + 2), slice(2 * r, 2 * r + 2),
                  slice(2 * q, 2 * q + 2))
            block = x[sl].ravel()  # (dz, dy, dx) scan order
            want[idx] = block.max()
            routed = np.zeros(8, np.float32)
            routed[np.argmax(block)] = probe[idx]
            want_gx[sl] = routed.reshape(2, 2, 2)
        np.testing.assert_array_equal(y.data, want)
        assert np.isnan(y.data[0, 1, 2, 0, 1])
        assert np.isnan(y.data).sum() == 1
        np.testing.assert_array_equal(gx, want_gx)
        assert gx[0, 0, 0, 0, 0] == probe[0, 0, 0, 0, 0]
        assert gx[1, 2, 2, 3, 4] == probe[1, 2, 1, 1, 2]
        assert gx[1, 2, 3, 2, 5] == 0.0


def trilinear_oracle(x):
    """Per-voxel float64 trilinear upsampling by 2 (align-corners-false,
    source coordinates clamped into the input)."""
    b, c = x.shape[:2]
    ext = x.shape[2:]

    def taps(o, n):
        src = min(max((o + 0.5) / 2.0 - 0.5, 0.0), n - 1)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n - 1)
        return ((i0, 1.0 - (src - i0)), (i1, src - i0))

    out = np.zeros((b, c) + tuple(2 * n for n in ext), np.float64)
    for oz, oy, ox in np.ndindex(*out.shape[2:]):
        acc = np.zeros((b, c), np.float64)
        for iz, wz in taps(oz, ext[0]):
            for iy, wy in taps(oy, ext[1]):
                for ix, wx in taps(ox, ext[2]):
                    acc += wz * wy * wx * x[:, :, iz, iy, ix]
        out[:, :, oz, oy, ox] = acc
    return out


class TestUpsample2:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 2, 2, 2), -1.25, np.float32))
        with no_record():
            y = ops.upsample2(x)
        assert y.shape == (1, 2, 4, 4, 4)
        np.testing.assert_allclose(y.data, -1.25, rtol=1e-6)

    def test_backward_of_ones_sums_to_output_count(self, rng):
        x = Tensor(randn5(rng, (1, 2, 2, 4, 2)))
        with Tape() as tape:
            y = ops.upsample2(x)
            loss = ops.reduce_sum(y)
            (gx,) = backprop(tape, loss, wrt=[x])
        per_channel = y.element_count / y.shape[1]
        np.testing.assert_allclose(gx.sum(axis=(0, 2, 3, 4)),
                                   per_channel, rtol=1e-5)

    def test_degenerate_axis_hand_values(self):
        # one axis of extent 2 holding (0, 1): centers at
        # (o+0.5)/2-0.5 -> weights 0, 0.25, 0.75, 1.0
        x = Tensor(np.array([0.0, 1.0], np.float32).reshape(1, 1, 2, 1, 1))
        with no_record():
            y = ops.upsample2(x)
        np.testing.assert_allclose(y.data[0, 0, :, 0, 0],
                                   [0.0, 0.25, 0.75, 1.0], atol=1e-6)
        np.testing.assert_allclose(y.data[0, 0, :, 1, 1],
                                   [0.0, 0.25, 0.75, 1.0], atol=1e-6)

    @pytest.mark.parametrize("shape", [(2, 3, 1, 2, 3), (2, 2, 5, 3, 1),
                                       (2, 1, 3, 5, 2), (2, 2, 2, 1, 5)])
    def test_forward_matches_trilinear_formula(self, rng, shape):
        x = randn5(rng, shape, scale=1.0)
        with no_record():
            y = ops.upsample2(Tensor(x.copy()))
        want = trilinear_oracle(x.astype(np.float64))
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(2, 3, 1, 2, 3), (2, 2, 5, 3, 1),
                                       (2, 1, 3, 5, 2)])
    def test_backward_is_the_adjoint(self, rng, shape):
        # <up(x), g> = <x, up^T(g)>, both sides in float64 from the oracle
        x = randn5(rng, shape, scale=1.0)
        xt = Tensor(x.copy())
        with Tape() as tape:
            y = ops.upsample2(xt)
            probe = randn5(rng, y.shape, scale=1.0)
            (gx,) = backprop(tape, ops.weighted_sum(y, probe), wrt=[xt])
        lhs = (trilinear_oracle(x.astype(np.float64)) * probe).sum()
        rhs = (x.astype(np.float64) * gx).sum()
        assert rhs == pytest.approx(lhs, rel=1e-6, abs=1e-6)
        # and voxel by voxel: the gradient is the oracle's transpose
        basis = np.zeros(shape, np.float64)
        for idx in np.ndindex(*shape):
            basis[idx] = 1.0
            want = (trilinear_oracle(basis) * probe).sum()
            basis[idx] = 0.0
            assert gx[idx] == pytest.approx(want, rel=1e-5, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(2, 2, 0, 3, 5), (2, 2, 3, 5, 0)])
    def test_zero_depth_and_width(self, shape):
        xt = Tensor(np.zeros(shape, np.float32))
        with Tape() as tape:
            y = ops.upsample2(xt)
            (gx,) = backprop(tape, ops.reduce_sum(y), wrt=[xt])
        assert y.shape == shape[:2] + tuple(2 * n for n in shape[2:])
        assert gx.shape == shape


def merge_oracle(skip, d, w, b):
    """Float64 ``conv1x1x1(concat_channels(skip, upsample2(d)), w, b)``."""
    cat = np.concatenate([skip, trilinear_oracle(d)], axis=1)
    return np.einsum("oc,bc...->bo...", w[:, :, 0, 0, 0], cat) + b


class TestUpsampleMerge:
    @staticmethod
    def _arrays(rng, batch, cs=3, cd=4, co=2, low=(2, 3, 1)):
        skip = randn5(rng, (batch, cs) + tuple(2 * n for n in low), scale=1.0)
        d = randn5(rng, (batch, cd) + low, scale=1.0)
        w = randn5(rng, (co, cs + cd, 1, 1, 1), scale=1.0)
        b = randn5(rng, (1, co, 1, 1, 1), scale=1.0)
        return skip, d, w, b

    @pytest.mark.parametrize("batch", [1, 2, 0])
    def test_forward_matches_float64_composition(self, rng, batch):
        skip, d, w, b = self._arrays(rng, batch)
        with no_record():
            y = ops.upsample_merge(Tensor(skip), Tensor(d), Parameter(w),
                                   Parameter(b))
        want = merge_oracle(*(a.astype(np.float64) for a in (skip, d, w, b)))
        assert y.shape == want.shape
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 2, 0])
    def test_backward_is_the_adjoint(self, rng, batch):
        # <L(s, d), g> = <s, gs> + <d, gd> for the linear part L (no bias),
        # and the parameter gradients are the oracle's, all in float64
        skip, d, w, b = self._arrays(rng, batch)
        st, dt, k, bias = Tensor(skip), Tensor(d), Parameter(w), Parameter(b)
        with Tape() as tape:
            y = ops.upsample_merge(st, dt, k, bias)
            probe = randn5(rng, y.shape, scale=1.0)
            gs, gd = backprop(tape, ops.weighted_sum(y, probe), wrt=[st, dt])
        s64, d64, w64, p64 = (a.astype(np.float64) for a in (skip, d, w, probe))
        lhs = (merge_oracle(s64, d64, w64, 0.0) * p64).sum()
        rhs = (s64 * gs).sum() + (d64 * gd).sum()
        assert rhs == pytest.approx(lhs, rel=1e-5, abs=1e-5)
        cat = np.concatenate([s64, trilinear_oracle(d64)], axis=1)
        gw = np.einsum("bozyx,bczyx->oc", p64, cat)
        np.testing.assert_allclose(k.grad.data[:, :, 0, 0, 0], gw,
                                   rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(bias.grad.data.reshape(-1),
                                   p64.sum(axis=(0, 2, 3, 4)), rtol=1e-5, atol=1e-5)
        # and element by element against the composed ops' gradients
        st2, dt2 = Tensor(skip), Tensor(d)
        with Tape() as tape:
            y2 = ops.conv1x1x1(ops.concat_channels(st2, ops.upsample2(dt2)),
                               Parameter(w), Parameter(b))
            gs2, gd2 = backprop(tape, ops.weighted_sum(y2, probe), wrt=[st2, dt2])
        np.testing.assert_allclose(gs, gs2, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(gd, gd2, rtol=1e-5, atol=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_empty_batch_records_and_leaves_parameters(self, rng):
        skip, d, w, b = self._arrays(rng, 0)
        st, dt, k, bias = Tensor(skip), Tensor(d), Parameter(w), Parameter(b)
        with Tape() as tape:
            y = ops.upsample_merge(st, dt, k, bias)
            gs, gd = backprop(tape, ops.reduce_sum(y), wrt=[st, dt])
        assert y.shape == (0, 2, 4, 6, 2)
        assert (gs.shape, gd.shape) == (skip.shape, d.shape)
        assert not k.grad.data.any() and not bias.grad.data.any()

    def test_saves_its_inputs(self, rng):
        skip, d, w, b = self._arrays(rng, 1)
        st, dt = Tensor(skip), Tensor(d)
        with Tape() as tape:
            a = ops.leaky_relu(st)
            c = ops.leaky_relu(dt)
            ops.upsample_merge(a, c, Parameter(w), Parameter(b))
        node = tape.nodes[-1]
        assert node.op == "upsample_merge" and node.saves == ("inputs",)
        assert node.retained_out is None
        assert tape.retained_bytes == a.nbytes + c.nbytes

    @pytest.mark.parametrize("skip_shape,d_shape,k_shape", [
        ((1, 3, 4, 6, 2), (1, 4, 2, 3, 2), (2, 7, 1, 1, 1)),  # not 2x the input
        ((2, 3, 4, 6, 2), (1, 4, 2, 3, 1), (2, 7, 1, 1, 1)),  # batch mismatch
        ((1, 3, 4, 6, 2), (1, 4, 2, 3, 1), (2, 6, 1, 1, 1)),  # kernel columns
        ((1, 3, 4, 6, 2), (1, 4, 2, 3, 1), (2, 7, 3, 3, 3)),  # not 1x1x1
    ])
    def test_shape_mismatch_rejected(self, skip_shape, d_shape, k_shape):
        with pytest.raises(ShapeError):
            ops.upsample_merge(Tensor(np.zeros(skip_shape, np.float32)),
                               Tensor(np.zeros(d_shape, np.float32)),
                               Parameter(np.zeros(k_shape, np.float32)),
                               Parameter(np.zeros((1, 2, 1, 1, 1), np.float32)))


class TestKernelScratch:
    """tracemalloc peak of one forward plus backward at 1x10x32^3, as a
    multiple of the input bytes: the kernels' full-size temporaries."""

    @staticmethod
    def _peak_ratio(fn, rng):
        x = Tensor(randn5(rng, (1, 10, 32, 32, 32), scale=1.0))
        tracemalloc.start()
        try:
            with Tape() as tape:
                backprop(tape, ops.reduce_sum(fn(x)), wrt=[x])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / x.nbytes

    def test_group_norm(self, rng):
        g = Parameter(np.ones((1, 10, 1, 1, 1), np.float32))
        b = Parameter(np.zeros((1, 10, 1, 1, 1), np.float32))
        assert self._peak_ratio(lambda t: ops.group_norm(t, g, b, 5), rng) < 4.5

    def test_max_pool2(self, rng):
        assert self._peak_ratio(ops.max_pool2, rng) < 2.0

    def test_upsample2(self, rng):
        assert self._peak_ratio(ops.upsample2, rng) < 24.0

    def test_upsample_merge(self, rng):
        # the level-0 desk merge, 20 -> 10 and 10 -> 10 channels; the
        # composition conv1x1x1(concat(x, upsample2(d))) peaks at 7.6x
        d = Tensor(randn5(rng, (1, 20, 16, 16, 16), scale=1.0))
        k = Parameter(randn5(rng, (10, 30, 1, 1, 1), scale=1.0))
        b = Parameter(randn5(rng, (1, 10, 1, 1, 1), scale=1.0))
        assert self._peak_ratio(lambda t: ops.upsample_merge(t, d, k, b),
                                rng) < 2.5

    def test_weighted_sum_forms_no_float64_copy(self, rng):
        # a float64 copy of the input alone would be 2x its bytes
        x = Tensor(randn5(rng, (1, 10, 32, 32, 32), scale=1.0))
        w = randn5(rng, x.shape, scale=1.0)
        tracemalloc.start()
        try:
            with no_record():
                value = ops.weighted_sum(x, w).item()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / x.nbytes < 0.5
        oracle = float((x.data.astype(np.float64) * w).sum())
        assert value == pytest.approx(oracle, rel=1e-6)


class TestConcatSplit:
    def test_split_of_concat_is_exact_inverse(self, rng):
        a = Tensor(randn5(rng, (1, 2, 3, 3, 3)))
        b = Tensor(randn5(rng, (1, 3, 3, 3, 3)))
        with no_record():
            joined = ops.concat_channels(a, b)
            ra, rb = ops.split_channels(joined, 2)
        assert joined.shape == (1, 5, 3, 3, 3)
        np.testing.assert_array_equal(ra.data, a.data)
        np.testing.assert_array_equal(rb.data, b.data)

    def test_gradient_round_trip_preserves_every_element(self, rng):
        data = randn5(rng, (1, 4, 2, 2, 2))
        probe = randn5(rng, (1, 4, 2, 2, 2))
        x = Tensor(data)
        with Tape() as tape:
            a, b = ops.split_channels(x, 1)
            y = ops.concat_channels(a, b)
            loss = ops.weighted_sum(y, probe)
            (gx,) = backprop(tape, loss, wrt=[x])
        np.testing.assert_array_equal(gx, probe)

    def test_mismatched_extents_rejected(self, rng):
        a = Tensor(randn5(rng, (1, 2, 3, 3, 3)))
        b = Tensor(randn5(rng, (1, 2, 4, 3, 3)))
        with pytest.raises(ShapeError):
            ops.concat_channels(a, b)

    def test_split_bounds_checked(self, rng):
        x = Tensor(randn5(rng, (1, 4, 2, 2, 2)))
        for at in (0, 4, 5):
            with pytest.raises(ShapeError):
                ops.split_channels(x, at)


class TestZeroExtentEverywhere:
    def test_all_ops_accept_empty_tensors(self):
        x = Tensor(np.zeros((0, 4, 4, 4, 4), np.float32))
        g = Parameter(np.ones((1, 4, 1, 1, 1), np.float32))
        b = Parameter(np.zeros((1, 4, 1, 1, 1), np.float32))
        k = Parameter(np.zeros((4, 4, 3, 3, 3), np.float32))
        with no_record():
            assert ops.group_norm(x, g, b, 2).element_count == 0
            assert ops.leaky_relu(x).element_count == 0
            assert ops.sigmoid(x).element_count == 0
            assert ops.max_pool2(x).element_count == 0
            assert ops.upsample2(x).element_count == 0
            assert ops.conv3d(x, k, b).element_count == 0
            a, c = ops.split_channels(x, 2)
            assert ops.concat_channels(a, c).element_count == 0
            assert ops.add(x, x).element_count == 0
            assert ops.reduce_sum(x).item() == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0, 2, 4, 4, 4), (1, 2, 0, 4, 4),
                                       (1, 2, 4, 4, 0)])
    def test_conv3d_and_max_pool2_backward_on_empty_tensors(self, rng, shape):
        x = Tensor(np.zeros(shape, np.float32))
        k = Parameter(randn5(rng, (3, 2, 3, 3, 3)))
        b = Parameter(randn5(rng, (1, 3, 1, 1, 1)))
        with Tape() as tape:
            y = ops.conv3d(x, k, b)
            p = ops.max_pool2(y)
            (gx,) = backprop(tape, ops.reduce_sum(p), wrt=[x])
        d, h, w = shape[2:]
        assert y.shape == (shape[0], 3, d, h, w)
        assert p.shape == (shape[0], 3, d // 2, h // 2, w // 2)
        assert gx.shape == shape
        assert not k.grad.data.any()
        assert not b.grad.data.any()


class TestFiniteDifferences:
    def test_every_primitive_op_passes(self):
        results = run_op_gradchecks(seed=2024)
        failed = [r.name for r in results if not r.passed]
        assert not failed, f"finite-difference failures: {failed}"

    def test_case_table_is_pinned(self):
        # a case silently dropped from the table would still pass
        assert [r.name for r in run_op_gradchecks(seed=0)] == [
            "conv3d", "conv1x1x1", "group_norm", "leaky_relu", "sigmoid",
            "max_pool2", "upsample2", "upsample_merge", "reduce_sum",
            "split_concat", "add_sub", "weighted_sum", "dice_loss"]

    def test_sum_of_conv_gradient_on_batched_input(self, rng):
        # loss = sum(conv3d(x)) on a 2x2x4x4x4 input, input gradient against
        # central differences at relative 1e-3
        x = randn5(rng, (2, 2, 4, 4, 4))
        k = randn5(rng, (2, 2, 3, 3, 3))
        b = randn5(rng, (1, 2, 1, 1, 1))
        xt = Tensor(x.copy())
        with Tape() as tape:
            loss = ops.reduce_sum(ops.conv3d(xt, Parameter(k), Parameter(b)))
            (gx,) = backprop(tape, loss, wrt=[xt])

        # float64 oracle: float32 rounding of the kernel's sums at h=1e-3
        # would sit at the tolerance
        def value(arr):
            return float(conv3d_direct(arr, k, b, (1, 1, 1)).sum())

        h = 1e-3
        x = x.astype(np.float64)
        flat = x.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = value(x)
            flat[i] = orig - h
            lo = value(x)
            flat[i] = orig
            fd[i] = (hi - lo) / (2 * h)
        np.testing.assert_allclose(gx.reshape(-1), fd, rtol=1e-3, atol=1e-5)
