"""Tensor engine: forward oracles, gradient checks, tape semantics."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mambamoe import tensor as tt
from mambamoe.tensor import (
    NonDeterministicError,
    NumericalError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    grad_check,
    parameter,
)

F64 = np.float64


def rand(rng, *shape, dtype=F64):
    return rng.normal(size=shape).astype(dtype)


class TestElementwise:
    def test_relu_definition(self):
        out = tt.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_relu_bits_and_gradient(self, dtype):
        x = parameter(np.array([-2.0, -0.0, 0.0, 1e-30, 3.0], dtype=dtype))
        with Tape() as tape:
            out = tt.relu(x)
            tape.backward(tt.sum_all(tt.mul(out, Tensor(np.arange(1.0, 6.0, dtype=dtype)))))
        assert out.data.tobytes() == np.array([0.0, 0.0, 0.0, 1e-30, 3.0], dtype=dtype).tobytes()  # -0.0 -> +0.0
        assert x.grad.tolist() == [0.0, 0.0, 0.0, 4.0, 5.0]

    def test_add_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            tt.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_no_broadcasting(self):
        with pytest.raises(ShapeError):
            tt.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((3,))))

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tt.add(Tensor([1.0], dtype=np.float32), Tensor([1.0], dtype=np.float64))

    def test_nonfinite_output_raises(self):
        big = Tensor(np.array([1e38], dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            tt.mul(big, big)

    def test_split_concat_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rand(rng, 8, 5, 3))
        parts = tt.split(x, 2, axis=0)
        assert parts[0].shape == (4, 5, 3)
        back = tt.concat(parts, axis=0)
        assert back.data.tobytes() == x.data.tobytes()

    def test_split_requires_divisible(self):
        with pytest.raises(ShapeError):
            tt.split(Tensor(np.ones((7, 2))), 2, axis=0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_split_concat_property(self, seed, parts, per):
        rng = np.random.default_rng(seed)
        x = Tensor(rand(rng, parts * per, 3))
        back = tt.concat(tt.split(x, parts, axis=0), axis=0)
        assert back.data.tobytes() == x.data.tobytes()


class TestMatmul:
    def test_matmul_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = parameter(rand(rng, 3, 4))
        w = parameter(rand(rng, 4, 2))
        rep = grad_check(lambda: tt.sum_all(tt.matmul(x, w)), [x, w])
        assert rep.max_rel_err < 1e-6

    def test_matvec(self):
        x = Tensor(np.arange(6, dtype=F64).reshape(2, 3))
        v = Tensor(np.array([1.0, 0.0, -1.0]))
        assert tt.matmul(x, v).data.tolist() == [-2.0, -2.0]

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            tt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestConv2d:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rand(rng, 3, 5, 4))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        b = Tensor(np.zeros(3))
        out = tt.conv2d(x, w, b)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_kernel_gives_bias_map(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5]))
        out = tt.conv2d(x, w, b)
        for c, v in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_allclose(out.data[c], v)

    @staticmethod
    def loop_oracle(x, w, b, g):
        """Output and the gradients of sum(g * output), by nested loops."""
        c_out, c_in, k, _ = w.shape
        _, h, wd = x.shape
        p = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (p, p), (p, p)))
        out = np.zeros((c_out, h, wd))
        dxp, dw = np.zeros_like(xp), np.zeros_like(w)
        for o in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = b[o]
                    for c in range(c_in):
                        for di in range(k):
                            for dj in range(k):
                                acc += w[o, c, di, dj] * xp[c, i + di, j + dj]
                                dw[o, c, di, dj] += g[o, i, j] * xp[c, i + di, j + dj]
                                dxp[c, i + di, j + dj] += w[o, c, di, dj] * g[o, i, j]
                    out[o, i, j] = acc
        return out, dxp[:, p : p + h, p : p + wd], dw, g.sum(axis=(1, 2))

    # the last map is three rows taller than one block of a 3x3 conv
    @pytest.mark.parametrize("h, w", [(4, 4), (3, 5), (1, 4), (tt.CONV_BLOCK_PIXELS // 4 + 3, 2)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_nested_loop_oracle(self, k, h, w):
        rng = np.random.default_rng(4)
        x, wt, b, g = rand(rng, 2, h, w), rand(rng, 3, 2, k, k), rand(rng, 3), rand(rng, 3, h, w)
        xt, wtt, bt = parameter(x), parameter(wt), parameter(b)
        with Tape() as tape:
            out = tt.conv2d(xt, wtt, bt)
            tape.backward(tt.sum_all(tt.mul(out, Tensor(g))))
        ref = self.loop_oracle(x, wt, b, g)
        for got, want in zip((out.data, xt.grad, wtt.grad, bt.grad), ref):
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_input_gradient_only_for_an_input_on_the_tape(self, k):
        rng = np.random.default_rng(5)
        x, wt, b, g = rand(rng, 2, 3, 5), rand(rng, 3, 2, k, k), rand(rng, 3), rand(rng, 3, 3, 5)
        _, dx_ref, dw_ref, _ = self.loop_oracle(x, wt, b, g)
        with Tape() as tape:
            tt.conv2d(Tensor(x), parameter(wt), parameter(b))
            dx, dw, _ = tape.ops[-1].backward(g)
        assert dx is None
        np.testing.assert_allclose(dw, dw_ref, atol=1e-12)
        with Tape() as tape:
            tt.conv2d(tt.scale(parameter(x), 1.0), parameter(wt), parameter(b))
            dx, _, _ = tape.ops[-1].backward(g)
        np.testing.assert_allclose(dx, dx_ref, atol=1e-12)

    def test_forward_holds_no_full_size_accumulator(self):
        # (32, 128, 128) -> 48 channels in float32: the output is 3.1 MB and
        # the padded input 2.2 MB; a full-size accumulator and its product
        # buffer would add 3.2 MB each
        rng = np.random.default_rng(6)
        x = Tensor(rand(rng, 32, 128, 128, dtype=np.float32))
        wt = Tensor(rand(rng, 48, 32, 3, 3, dtype=np.float32))
        b = Tensor(rand(rng, 48, dtype=np.float32))
        tracemalloc.start()
        try:
            out = tt.conv2d(x, wt, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = 32 * (130 * 130 + 2) * 4
        assert peak < out.data.nbytes + padded + 2**20

    def test_kernel_size_and_pad_contract(self):
        x = Tensor(np.ones((1, 4, 4)))
        with pytest.raises(ShapeError):
            tt.conv2d(x, Tensor(np.ones((1, 1, 5, 5))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):
            tt.conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), pad=0)
        with pytest.raises(ShapeError):
            tt.conv2d(x, Tensor(np.ones((1, 2, 3, 3))), Tensor(np.zeros(1)))


class TestPool:
    def test_constant_map(self):
        out = tt.avg_pool2(Tensor(np.full((2, 4, 6), 3.5)))
        np.testing.assert_allclose(out.data, 3.5)
        assert out.shape == (2, 2, 3)

    def test_2x2_mean(self):
        out = tt.avg_pool2(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
        assert out.data.tolist() == [[[2.5]]]

    def test_odd_extent_drops_trailing(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 1, 5, 5)
        out = tt.avg_pool2(Tensor(x)).data
        ref = np.zeros((1, 2, 2))
        for i in range(2):
            for j in range(2):
                ref[0, i, j] = x[0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            tt.avg_pool2(Tensor(np.ones((1, 1, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(48, 128, 128), (2, 6, 4), (3, 5, 7), (2, 6, 5), (1, 3, 4)])
    def test_forward_bit_equals_5d_mean(self, shape, dtype):
        x = rand(np.random.default_rng(sum(shape)), *shape, dtype=dtype)
        out = tt.avg_pool2(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == self.mean_5d(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 7, 3)])
    def test_pooled_width_one_within_rounding_of_mean(self, shape, dtype):
        # numpy's mean sums a window in a row here, ((x00 + x01) + x10) + x11
        x = rand(np.random.default_rng(sum(shape)), *shape, dtype=dtype)
        out = tt.avg_pool2(Tensor(x)).data
        np.testing.assert_allclose(out, self.mean_5d(x), rtol=0, atol=4 * np.finfo(dtype).eps * np.abs(x).max())

    @staticmethod
    def mean_5d(x):
        c, h, w = x.shape
        return x[:, : h - h % 2, : w - w % 2].reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    @pytest.mark.parametrize("shape", [(2, 5, 7), (1, 3, 3), (2, 6, 5), (1, 5, 4)])
    def test_backward_odd_extents_matches_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        c, h, w = shape
        x = parameter(rand(rng, *shape))
        probe = rand(rng, c, h // 2, w // 2)
        with Tape() as tape:
            loss = tt.sum_all(tt.mul(tt.avg_pool2(x), Tensor(probe)))
            tape.backward(loss)
        ref = np.zeros(shape)
        for i in range(h // 2):
            for j in range(w // 2):
                ref[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = probe[:, i, j, None, None] * 0.25
        assert x.grad.tobytes() == ref.tobytes()
        assert not x.grad[:, h - h % 2 :].any() and not x.grad[:, :, w - w % 2 :].any()


class TestLayerNorm:
    def test_constant_input_zeros(self):
        x = Tensor(np.full((3, 2, 2), 7.0))
        out = tt.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_closed_form(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        out = tt.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        expected = (np.array([1.0, 2.0, 3.0, 4.0]) - 2.5) / np.sqrt(1.25 + 1e-5)
        np.testing.assert_allclose(out.data[:, 0, 0], expected, atol=1e-7)

    def test_zero_gamma_collapses_to_beta(self):
        rng = np.random.default_rng(6)
        x = Tensor(rand(rng, 3, 4, 4))
        out = tt.layer_norm(x, Tensor(np.zeros(3)), Tensor(np.array([1.0, 2.0, 3.0])))
        for c, v in enumerate([1.0, 2.0, 3.0]):
            np.testing.assert_allclose(out.data[c], v)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0, 2.0, size=(6, 3, 3)))
        out = tt.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).data
        assert np.abs(out.mean(axis=0)).max() < 1e-5
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-3


class TestUpsample:
    def test_constant_any_target(self):
        out = tt.bilinear_upsample(Tensor(np.full((2, 3, 3), 1.25)), (7, 9))
        assert out.shape == (2, 7, 9)
        np.testing.assert_allclose(out.data, 1.25, atol=1e-7)

    def test_single_pixel_source(self):
        out = tt.bilinear_upsample(Tensor(np.array([[[3.0]]])), (4, 5))
        np.testing.assert_allclose(out.data, 3.0)

    def test_2x2_to_4x4_half_pixel_oracle(self):
        x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        out = tt.bilinear_upsample(Tensor(x), (4, 4)).data[0]

        def axis_mix(i):  # half-pixel source positions clamped to [0, 1]
            s = min(max((i + 0.5) / 2 - 0.5, 0.0), 1.0)
            return s

        ref = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                ref[i, j] = 2 * axis_mix(i) + axis_mix(j)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        np.testing.assert_allclose(out[0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    def test_shrink_rejected(self):
        with pytest.raises(ShapeError):
            tt.bilinear_upsample(Tensor(np.ones((1, 4, 4))), (3, 4))

    def test_matches_gather_formula(self):
        # the four-neighbour blend, written out per output pixel
        rng = np.random.default_rng(16)
        x = rand(rng, 2, 5, 3)
        y0, y1, ty = tt._axis_weights(5, 12)
        x0, x1, tx = tt._axis_weights(3, 7)
        ref = np.empty((2, 12, 7))
        for i in range(12):
            for j in range(7):
                top = (1 - tx[j]) * x[:, y0[i], x0[j]] + tx[j] * x[:, y0[i], x1[j]]
                bottom = (1 - tx[j]) * x[:, y1[i], x0[j]] + tx[j] * x[:, y1[i], x1[j]]
                ref[:, i, j] = (1 - ty[i]) * top + ty[i] * bottom
        np.testing.assert_allclose(tt.bilinear_upsample(Tensor(x), (12, 7)).data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("src,dst", [((3, 4), (9, 11)), ((16, 16), (128, 128)), ((5, 5), (5, 5))])
    def test_backward_is_the_adjoint(self, src, dst):
        # <Up x, g> == <x, Up^T g>, with Up^T g the backward pass
        rng = np.random.default_rng(17)
        x = parameter(rand(rng, 3, *src))
        g = rand(rng, 3, *dst)
        with Tape() as tape:
            y = tt.bilinear_upsample(x, dst)
            tape.backward(tt.sum_all(tt.mul(y, Tensor(g))))
        np.testing.assert_allclose(np.vdot(y.data, g), np.vdot(x.data, x.grad), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("n_src, n_dst", [(1, 1), (1, 7), (3, 7), (5, 5), (4, 9), (16, 128), (17, 128)])
    def test_interpolation_rows_sum_to_one(self, n_src, n_dst, dtype):
        # the condition under which a 1x1 conv and its bias commute with the upsample
        r = tt._interpolation_matrix(n_src, n_dst, dtype)
        assert r.shape == (n_dst, n_src) and r.dtype == dtype
        assert np.abs(r.sum(axis=1) - 1).max() <= n_src * np.finfo(dtype).eps

    def test_values_are_convex_combinations(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 2, 3, 4)
        out = tt.bilinear_upsample(Tensor(x), (9, 11)).data
        assert out.min() >= x.min() - 1e-9 and out.max() <= x.max() + 1e-9


class TestSoftmax:
    def test_equal_logits(self):
        out = tt.softmax(Tensor(np.zeros(4)), axis=0)
        np.testing.assert_allclose(out.data, 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 5)
        a = tt.softmax(Tensor(x), axis=0).data
        b = tt.softmax(Tensor(x + 123.456), axis=0).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_analytic_pair(self):
        out = tt.softmax(Tensor(np.array([0.0, np.log(3.0)])), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 100.0, 1e4]))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one_even_for_extreme_logits(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = Tensor(scale * rng.normal(size=(6, 3)))
        out = tt.softmax(x, axis=0).data
        assert out.min() >= 0
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)


class TestMaskedCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = np.zeros((3, 2, 2))
        labels = np.array([[1, 2], [3, 1]])
        for i in range(2):
            for j in range(2):
                logits[labels[i, j] - 1, i, j] = 30.0
        loss = tt.masked_cross_entropy(Tensor(logits), labels, np.ones((2, 2)))
        assert loss.item() < 1e-3

    def test_uniform_logits_ln_k(self):
        k = 5
        labels = np.full((3, 3), 2)
        loss = tt.masked_cross_entropy(Tensor(np.zeros((k, 3, 3))), labels, np.ones((3, 3)))
        np.testing.assert_allclose(loss.item(), np.log(k), atol=1e-6)

    def test_mask_excludes_pixel_hand_oracle(self):
        rng = np.random.default_rng(9)
        logits = rand(rng, 4, 1, 2)
        labels = np.array([[2, 3]])
        mask = np.array([[1, 0]])
        loss = tt.masked_cross_entropy(Tensor(logits), labels, mask).item()
        col = logits[:, 0, 0]
        hand = np.log(np.exp(col).sum()) - col[1]
        np.testing.assert_allclose(loss, hand, atol=1e-9)

    def test_empty_position_set_is_exact_zero(self):
        loss = tt.masked_cross_entropy(Tensor(np.ones((2, 2, 2))), np.zeros((2, 2), int), np.ones((2, 2)))
        assert loss.item() == 0.0

    def test_label_above_k_rejected(self):
        with pytest.raises(ValueError, match="label id"):
            tt.masked_cross_entropy(Tensor(np.zeros((2, 1, 1))), np.array([[3]]), np.ones((1, 1)))

    def test_invariant_to_logits_outside_positions(self):
        rng = np.random.default_rng(10)
        logits = rand(rng, 3, 4, 4)
        labels = rng.integers(0, 4, size=(4, 4))
        mask = rng.integers(0, 2, size=(4, 4))
        base = tt.masked_cross_entropy(Tensor(logits), labels, mask).item()
        outside = ~((mask != 0) & (labels > 0))
        mutated = logits.copy()
        mutated[:, outside] += rng.normal(size=(3, int(outside.sum()))) * 100
        changed = tt.masked_cross_entropy(Tensor(mutated), labels, mask).item()
        assert base == changed

    def test_gradient(self):
        rng = np.random.default_rng(11)
        logits = parameter(rand(rng, 3, 3, 3))
        labels = rng.integers(0, 4, size=(3, 3))
        mask = rng.integers(0, 2, size=(3, 3))
        if not ((mask != 0) & (labels > 0)).any():
            labels[0, 0], mask[0, 0] = 1, 1
        rep = grad_check(lambda: tt.masked_cross_entropy(logits, labels, mask), [logits])
        assert rep.max_rel_err < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        with Tape() as tape:
            tape.backward(tt.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_unused_parameter_keeps_zero_grad(self):
        x = parameter(np.ones(3))
        unused = parameter(np.ones(4))
        with Tape() as tape:
            tape.backward(tt.sum_all(tt.scale(x, 2.0)))
        np.testing.assert_array_equal(unused.grad, np.zeros(4))

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3))
        with Tape() as tape:
            y = tt.scale(x, 1.0)
            with pytest.raises(TapeError):
                tape.backward(y)

    def test_second_replay_rejected(self):
        x = parameter(np.ones(3))
        with Tape() as tape:
            loss = tt.sum_all(x)
            tape.backward(loss)
            with pytest.raises(TapeError):
                tape.backward(loss)

    def test_grad_accumulates_across_uses(self):
        x = parameter(np.array([2.0]))
        with Tape() as tape:
            tape.backward(tt.sum_all(tt.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_composite_graph_finite_differences(self):
        rng = np.random.default_rng(12)
        x = parameter(rand(rng, 2, 5, 5))
        w = parameter(rand(rng, 3, 2, 3, 3) * 0.4)
        b = parameter(rand(rng, 3))
        gamma = parameter(rand(rng, 3))
        beta = parameter(rand(rng, 3))
        labels = rng.integers(1, 4, size=(5, 5))
        mask = np.ones((5, 5))

        def fn():
            y = tt.relu(tt.conv2d(x, w, b))
            y = tt.layer_norm(y, gamma, beta)
            return tt.masked_cross_entropy(y, labels, mask)

        rep = grad_check(fn, [x, w, b, gamma, beta], names=["x", "w", "b", "gamma", "beta"])
        assert rep.passed, rep.per_param


def _recording(rule, seen):
    """Wrap a backward rule so that each gradient it is given, and a copy
    taken on entry, land in ``seen``."""

    def run(g):
        seen.append((g, g.copy()))
        return rule(g)

    return run


class TestTapeMemory:
    """The tape holds what the backward pass reads, and drops it once read."""

    LABELS = np.array([[1, 2, 0, 3], [2, 2, 1, 0], [3, 1, 1, 2]])

    # backward rules that read only their input's shape, each on an input of its rank
    SHAPE_ONLY = {
        "element": ((5,), lambda y: tt.element(y, 2)),
        "sum_all": ((2, 3, 4), tt.sum_all),
        "narrow": ((2, 3, 4), lambda y: tt.sum_all(tt.narrow(y, 1, 1, 2))),
        "concat": ((2, 3, 4), lambda y: tt.sum_all(tt.concat([Tensor(np.ones((1, 3, 4))), y], axis=0))),
        "spatial_mean": ((2, 3, 4), lambda y: tt.sum_all(tt.spatial_mean(y))),
        "avg_pool2": ((2, 3, 4), lambda y: tt.sum_all(tt.avg_pool2(y))),
        "masked_cross_entropy": (
            (3, 3, 4),
            lambda y: tt.masked_cross_entropy(y, TestTapeMemory.LABELS, np.ones((3, 4))),
        ),
    }

    @pytest.mark.parametrize("rule", sorted(SHAPE_ONLY))
    def test_an_activation_no_closure_reads_dies_while_the_tape_lives(self, rule):
        shape, fn = self.SHAPE_ONLY[rule]
        rng = np.random.default_rng(18)
        x = parameter(rand(rng, *shape))
        with Tape() as tape:
            y = tt.scale(x, 1.5)  # scale's own rule keeps only the factor
            alive = weakref.ref(y.data)
            loss = fn(y)
            del y
            assert alive() is None
            tape.backward(loss)
        analytic = x.grad.copy()
        x.zero_grad()
        rep = grad_check(lambda: fn(tt.scale(x, 1.5)), [x])
        assert rep.max_rel_err < 1e-7
        np.testing.assert_array_equal(x.grad, analytic)

    def test_a_closure_held_array_is_freed_by_the_replay(self):
        rng = np.random.default_rng(19)
        x, q = parameter(rand(rng, 3, 4)), parameter(rand(rng, 3, 4))
        with Tape() as tape:
            y = tt.scale(x, 2.0)
            alive = weakref.ref(y.data)
            loss = tt.sum_all(tt.mul(y, q))
            del y
            assert alive() is not None  # mul's rule reads it
            tape.backward(loss)
            assert alive() is None
        assert len(tape.ops) == 3
        assert all(op.backward is None and op.routes == () for op in tape.ops)
        np.testing.assert_array_equal(q.grad, 2.0 * x.data)

    @pytest.mark.parametrize("graph", ["add-self", "diamond"])
    def test_shared_gradients_match_finite_differences_and_stay_unwritten(self, graph):
        rng = np.random.default_rng(20)
        x = parameter(rand(rng, 3, 4))
        probe = Tensor(rand(rng, 3, 4))

        def fn():
            y = tt.scale(x, 0.7)  # a node: its gradients meet in the replay, not in x.grad
            if graph == "add-self":
                z = tt.add(y, y)
            else:
                z = tt.add(tt.scale(y, 2.0), tt.mul(y, y))
            return tt.sum_all(tt.mul(z, probe))

        assert grad_check(fn, [x]).max_rel_err < 1e-8
        seen: list = []
        with Tape() as tape:
            loss = fn()
            for op in tape.ops:
                op.backward = _recording(op.backward, seen)
            tape.backward(loss)
        assert len(seen) == len(tape.ops)
        for g, on_entry in seen:
            assert g.tobytes() == on_entry.tobytes()

    def test_a_tensor_from_an_earlier_tape_enters_as_a_constant(self):
        rng = np.random.default_rng(21)
        x = parameter(rand(rng, 2, 3, 3))
        with Tape():
            y = tt.scale(x, 2.0)  # op 0 of that tape
        wt, b = parameter(rand(rng, 3, 2, 3, 3)), parameter(rand(rng, 3))
        with Tape() as tape:
            out = tt.conv2d(y, wt, b)  # op 0 of this tape
            assert tape.ops[0].routes[0] is None
            dx, _, _ = tape.ops[0].backward(np.ones(out.shape))
            assert dx is None
            tape.backward(tt.sum_all(out))
        assert not x.grad.any()
        assert b.grad.tolist() == [9.0, 9.0, 9.0]


class TestGradCheckContract:
    def test_linear_map_is_nearly_exact(self):
        rng = np.random.default_rng(13)
        w = parameter(rand(rng, 4))
        x = Tensor(rand(rng, 4))
        rep = grad_check(lambda: tt.sum_all(tt.mul(w, x)), [w])
        assert rep.max_rel_err < 1e-10

    def test_rejects_float32(self):
        w = parameter(np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: tt.sum_all(w), [w])

    def test_rejects_nondeterministic_sampling(self):
        rng = np.random.default_rng(14)
        w = parameter(np.ones(3))

        def fn():
            mask = Tensor((rng.random(3) < 0.5).astype(np.float64))
            return tt.sum_all(tt.mul(w, mask))

        with pytest.raises(NonDeterministicError):
            grad_check(fn, [w])


class TestPrimitiveGradientsProperty:
    """Every primitive against central differences over many random shapes."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_shapes_and_seeds(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, 4))
        h = int(rng.integers(2, 5))
        w = int(rng.integers(2, 5))
        x = parameter(rng.normal(size=(c, h, w)))
        gamma = parameter(rng.normal(size=c))
        beta = parameter(rng.normal(size=c))
        kw = parameter(rng.normal(size=(2, c, 3, 3)) * 0.5)
        kb = parameter(rng.normal(size=2))
        probe = Tensor(rng.normal(size=(2, h, w)))
        # a ReLU kink within the finite-difference step breaks the oracle, not the code
        pre_relu = tt.conv2d(tt.layer_norm(x, gamma, beta), kw, kb).data
        assume(np.abs(pre_relu).min() > 1e-3)

        def fn():
            y = tt.layer_norm(x, gamma, beta)
            y = tt.conv2d(y, kw, kb)
            y = tt.relu(y)
            y = tt.softmax(y, axis=0)
            return tt.sum_all(tt.mul(y, probe))

        rep = grad_check(fn, [x, gamma, beta, kw, kb])
        assert rep.max_rel_err < 1e-4, rep.per_param
