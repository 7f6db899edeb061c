"""Tensor engine: forward oracles, gradient checks, tape semantics."""

import concurrent.futures
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mambamoe import tensor as tt
from mambamoe.moe import RouterParams, mlp, route
from mambamoe.network import NetSpec, ResBlockParams, init_network_params, residual_block
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

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_add_of_n_equals_the_chained_binary_adds_bit_for_bit(self, n, dtype):
        rng = np.random.default_rng(n)
        xs = [parameter(rand(rng, 3, 4, 5, dtype=dtype)) for _ in range(n)]
        probe = Tensor(rand(rng, 3, 4, 5, dtype=dtype))
        with Tape() as tape:
            out = tt.add(*xs)
            tape.backward(tt.sum_all(tt.mul(out, probe)))
        chained = xs[0]
        for x in xs[1:]:
            chained = tt.add(chained, x)
        assert out.data.tobytes() == chained.data.tobytes()
        for x in xs:
            assert x.grad.tobytes() == probe.data.tobytes()

    def test_a_tensor_passed_twice_gets_twice_the_gradient(self):
        rng = np.random.default_rng(6)
        x, y = parameter(rand(rng, 2, 3)), parameter(rand(rng, 2, 3))
        probe = Tensor(rand(rng, 2, 3))
        with Tape() as tape:
            z = tt.scale(y, 1.0)  # a tape node, not a parameter
            tape.backward(tt.sum_all(tt.mul(tt.add(x, z, x, z), probe)))
        assert x.grad.tobytes() == (2 * probe.data).tobytes()
        assert y.grad.tobytes() == (2 * probe.data).tobytes()

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "odd", [Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3)), dtype=np.float32)], ids=["shape", "dtype"]
    )
    def test_add_rejects_a_mismatch_at_any_position(self, position, odd):
        xs = [Tensor(np.ones((2, 3))) for _ in range(3)]
        xs.insert(position, odd)
        with pytest.raises(ShapeError, match="^add: "):
            tt.add(*xs)

    def test_add_needs_two_tensors(self):
        with pytest.raises(ShapeError, match="at least two"):
            tt.add(Tensor([1.0]))

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


def window_bytes(c, h, w, itemsize=4):
    """One padded window of a 3x3 conv: the largest row block and the rows
    above and below it, at row stride w+2."""
    n = min(h, tt.CONV_BLOCK_PIXELS // (w + 2))
    return c * ((n + 2) * (w + 2) + 2) * itemsize


def block_buffer_bytes(c_out, h, w, itemsize=4):
    """A 3x3 conv's sum and product buffer over its largest row block."""
    return 2 * c_out * min(h, tt.CONV_BLOCK_PIXELS // (w + 2)) * (w + 2) * itemsize


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
        # (32, 128, 128) -> 48 channels in float32: the output is 3.1 MB, one
        # padded window 0.28 MB and a padded copy of the whole input 2.2 MB; a
        # full-size accumulator and its product buffer would add 3.2 MB each
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
        assert peak < out.data.nbytes + window_bytes(32, 128, 128) + 2**20

    def test_backward_pads_one_row_block_at_a_time(self):
        # (48, 64, 64) float32: dx is 0.75 MiB, one window of x or g 0.4 MiB;
        # padded copies of the whole x and g would add 1.6 MiB
        rng = np.random.default_rng(7)
        x = parameter(rand(rng, 48, 64, 64, dtype=np.float32))
        wt = parameter(rand(rng, 48, 48, 3, 3, dtype=np.float32))
        b = parameter(rand(rng, 48, dtype=np.float32))
        g = rand(rng, 48, 64, 64, dtype=np.float32)
        with Tape() as tape:
            tt.conv2d(x, wt, b)
            rule = tape.ops[-1].backward
            tracemalloc.start()
            try:
                dx, _, _ = rule(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < dx.nbytes + 2 * window_bytes(48, 64, 64) + 2**20

    def test_kernel_size_and_pad_contract(self):
        x = Tensor(np.ones((1, 4, 4)))
        with pytest.raises(ShapeError):
            tt.conv2d(x, Tensor(np.ones((1, 1, 5, 5))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):
            tt.conv2d(x, Tensor(np.ones((1, 2, 3, 3))), Tensor(np.zeros(1)))


def avg_pool2(x: Tensor) -> Tensor:
    """The 2x2 mean pool that the stem ran after its conv and ReLU, kept as
    an oracle: the horizontal pair sums, then the row pair sums, scaled by
    0.25; a trailing odd row or column is dropped and gets zero gradient."""
    c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    rows = x.data[:, : 2 * h2]
    cols = rows[:, :, 0 : 2 * w2 : 2] + rows[:, :, 1 : 2 * w2 : 2]
    out = cols[:, 0::2] + cols[:, 1::2]
    out *= out.dtype.type(0.25)

    def bwd(g):
        quarter = g * g.dtype.type(0.25)
        dx = np.zeros((c, h, w), g.dtype)
        for i in (0, 1):
            for j in (0, 1):
                dx[:, i : 2 * h2 : 2, j : 2 * w2 : 2] = quarter
        return (dx,)

    return tt.custom_op("avg_pool2", (x,), out, bwd)


def composition(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The unfused stem stage that ``conv_relu_pool`` replaces."""
    return avg_pool2(tt.relu(tt.conv2d(x, w, b)))


class TestPool:
    """The pooling of ``conv_relu_pool``, seen through a conv whose kernel is
    the identity at its centre tap, on inputs that the ReLU passes: the
    conv and the ReLU then return their input bit for bit."""

    @staticmethod
    def pool(x, on_tape=False):
        c = x.shape[0]
        w = np.zeros((c, c, 3, 3), x.dtype)
        w[range(c), range(c), 1, 1] = 1
        xt = parameter(x) if on_tape else Tensor(x)
        return xt, tt.conv_relu_pool(xt, Tensor(w), Tensor(np.zeros(c, x.dtype)))

    def test_constant_map(self):
        _, out = self.pool(np.full((2, 4, 6), 3.5))
        np.testing.assert_allclose(out.data, 3.5)
        assert out.shape == (2, 2, 3)

    def test_2x2_mean(self):
        _, out = self.pool(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert out.data.tolist() == [[[2.5]]]

    def test_odd_extent_drops_trailing(self):
        rng = np.random.default_rng(5)
        x = np.abs(rand(rng, 1, 5, 5))
        out = self.pool(x)[1].data
        ref = np.zeros((1, 2, 2))
        for i in range(2):
            for j in range(2):
                ref[0, i, j] = x[0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            self.pool(np.ones((1, 1, 4)))
        with pytest.raises(ShapeError):
            self.pool(np.ones((1, 4, 1)))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(48, 128, 128), (2, 6, 4), (3, 5, 7), (2, 6, 5), (1, 3, 4)])
    def test_forward_bit_equals_5d_mean(self, shape, dtype):
        x = np.abs(rand(np.random.default_rng(sum(shape)), *shape, dtype=dtype))
        out = self.pool(x)[1].data
        assert out.dtype == dtype
        assert out.tobytes() == self.mean_5d(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 7, 3)])
    def test_pooled_width_one_within_rounding_of_mean(self, shape, dtype):
        # numpy's mean sums a window in a row here, ((x00 + x01) + x10) + x11
        x = np.abs(rand(np.random.default_rng(sum(shape)), *shape, dtype=dtype))
        out = self.pool(x)[1].data
        np.testing.assert_allclose(out, self.mean_5d(x), rtol=0, atol=4 * np.finfo(dtype).eps * np.abs(x).max())

    @staticmethod
    def mean_5d(x):
        c, h, w = x.shape
        return x[:, : h - h % 2, : w - w % 2].reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    @pytest.mark.parametrize("shape", [(2, 5, 7), (1, 3, 3), (2, 6, 5), (1, 5, 4)])
    def test_backward_odd_extents_matches_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        c, h, w = shape
        probe = rand(rng, c, h // 2, w // 2)
        with Tape() as tape:
            x, out = self.pool(np.abs(rand(rng, *shape)) + 0.5, on_tape=True)
            tape.backward(tt.sum_all(tt.mul(out, Tensor(probe))))
        ref = np.zeros(shape)
        for i in range(h // 2):
            for j in range(w // 2):
                ref[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = probe[:, i, j, None, None] * 0.25
        assert x.grad.tobytes() == ref.tobytes()
        assert not x.grad[:, h - h % 2 :].any() and not x.grad[:, :, w - w % 2 :].any()


class TestConvReluPool:
    """``conv_relu_pool`` is the composition ``avg_pool2(relu(conv2d))``, bit
    for bit; its forward pass never holds a full-resolution map, and its
    backward pass holds one, the conv's output gradient."""

    @staticmethod
    def operands(rng, c_in, h, w, c_out, dtype, k=3):
        x = rand(rng, c_in, h, w, dtype=dtype)
        wt = (rand(rng, c_out, c_in, k, k) / np.sqrt(k * k * c_in)).astype(dtype)
        return x, wt, rand(rng, c_out, dtype=dtype), rand(rng, c_out, h // 2, w // 2, dtype=dtype)

    @staticmethod
    def run(op, x, wt, b, g):
        """Output, dx, dW and db of sum(g * op(x, w, b))."""
        xt, wtt, bt = parameter(x), parameter(wt), parameter(b)
        with Tape() as tape:
            out = op(xt, wtt, bt)
            tape.backward(tt.sum_all(tt.mul(out, Tensor(g))))
        return out.data, xt.grad, wtt.grad, bt.grad

    # the three stem stages at train-128 sizes; odd extents, whose trailing row
    # and column are dropped, in one block of 9 rows; and a map three rows
    # taller than one block, whose first block has an odd row count
    SHAPES = [
        (32, 128, 128, 48),
        (48, 64, 64, 48),
        (48, 32, 32, 48),
        (2, 9, 7, 3),
        (2, tt.CONV_BLOCK_PIXELS // 4 + 3, 2, 3),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("c_in, h, w, c_out", SHAPES)
    def test_bits_equal_the_composition(self, c_in, h, w, c_out, dtype):
        x, wt, b, g = self.operands(np.random.default_rng(h * w), c_in, h, w, c_out, dtype)
        got, want = self.run(tt.conv_relu_pool, x, wt, b, g), self.run(composition, x, wt, b, g)
        for name, a, e in zip(("out", "dx", "dW", "db"), got, want):
            assert a.dtype == dtype and a.tobytes() == e.tobytes(), name

    @pytest.mark.parametrize("k, seed", [(3, 8), (1, 12)])
    def test_input_gradient_only_for_an_input_on_the_tape(self, k, seed):
        x, wt, b, g = self.operands(np.random.default_rng(seed), 2, 7, 6, 3, F64, k)
        # a 1x1 stage equals the composition only to float rounding
        reference = composition if k == 3 else tt.conv_relu_pool
        _, dx_ref, dw_ref, db_ref = self.run(reference, x, wt, b, g)
        with Tape() as tape:
            tt.conv_relu_pool(Tensor(x), parameter(wt), parameter(b))
            dx, dw, db = tape.ops[-1].backward(g)
        assert dx is None
        assert dw.tobytes() == dw_ref.tobytes() and db.tobytes() == db_ref.tobytes()
        with Tape() as tape:
            tt.conv_relu_pool(tt.scale(parameter(x), 1.0), parameter(wt), parameter(b))
            dx, _, _ = tape.ops[-1].backward(g)
        assert dx.tobytes() == dx_ref.tobytes()

    def test_contract(self):
        x = Tensor(np.ones((2, 4, 4)))
        b = Tensor(np.zeros(3))
        tt.conv_relu_pool(x, Tensor(np.ones((3, 2, 3, 3))), b)
        tt.conv_relu_pool(x, Tensor(np.ones((3, 2, 1, 1))), b)
        for bad_x, bad_w in [
            (np.ones((2, 1, 4)), np.ones((3, 2, 3, 3))),  # an extent below 2
            (np.ones((2, 4, 1)), np.ones((3, 2, 3, 3))),
            (np.ones((2, 4, 4)), np.ones((3, 2, 2, 2))),  # a 2x2 kernel
            (np.ones((2, 4, 4)), np.ones((3, 2, 5, 5))),  # a 5x5 kernel
            (np.ones((2, 4, 4)), np.ones((3, 1, 3, 3))),  # C_in mismatch
        ]:
            with pytest.raises(ShapeError):
                tt.conv_relu_pool(Tensor(bad_x), Tensor(bad_w), b)

    def test_nonfinite_convolution_raises_though_the_relu_hides_it(self):
        x = np.ones((1, 4, 5))
        x[0, 0, 4] = -np.inf  # in the dropped column: only the conv sees it
        with pytest.raises(NumericalError, match="conv_relu_pool"):
            tt.conv_relu_pool(Tensor(x), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("k, seed", [(3, 9), (1, 15)])
    def test_inference_builds_no_full_resolution_map(self, k, seed):
        # (32, 128, 128) -> 48 in float32: the conv's map is 3 MiB and the
        # pooled output 0.75 MiB; a 3x3 stage adds one window (0.28 MiB) and
        # one block buffer (0.75 MiB), a 1x1 stage one block (0.35 MiB)
        x, wt, b, _ = self.operands(np.random.default_rng(seed), 32, 128, 128, 48, np.float32, k)
        xt, wtt, bt = Tensor(x), Tensor(wt), Tensor(b)
        rows = tt.CONV_BLOCK_PIXELS // 130
        tracemalloc.start()
        try:
            out = tt.conv_relu_pool(xt, wtt, bt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        staging = 48 * (rows + 1) * 64 * 4
        if k == 3:
            buffers = window_bytes(32, 128, 128) + block_buffer_bytes(48, 128, 128)
        else:
            buffers = 48 * rows * 128 * 4
        assert peak < out.data.nbytes + buffers + staging + 2**20

    def test_backward_holds_one_conv_output_gradient(self):
        # (48, 128, 128) -> 48 in float32: dx and the conv's output gradient
        # are 3 MiB each, one window 0.41 MiB and one block buffer 0.71 MiB
        x, wt, b, g = self.operands(np.random.default_rng(10), 48, 128, 128, 48, np.float32)
        xt = parameter(x)
        with Tape() as tape:
            tt.conv_relu_pool(xt, parameter(wt), parameter(b))
            rule = tape.ops[-1].backward
            tracemalloc.start()
            try:
                dx, _, _ = rule(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        g_conv_bytes = 48 * 128 * 128 * 4
        assert peak < dx.nbytes + g_conv_bytes + 2 * window_bytes(48, 128, 128) + block_buffer_bytes(48, 128, 128) + 2**20

    @pytest.mark.parametrize("k, seed", [(3, 11), (1, 14)])
    def test_closure_keeps_the_input_the_weight_and_a_packed_mask(self, k, seed):
        # the Tensors, not the taps or any other weight-sized array
        x, wt, b, _ = self.operands(np.random.default_rng(seed), 3, 12, 20, 4, F64, k)
        xt, wtt = parameter(x), parameter(wt)
        with Tape() as tape:
            y = tt.conv_relu_pool(xt, wtt, parameter(b))
            alive = weakref.ref(y.data)
            held = [cell.cell_contents for cell in tape.ops[-1].backward.__closure__]
            loss = tt.sum_all(tt.scale(y, 1.5))  # scale's rule keeps only the factor
            del y
            assert alive() is None
            tensors = [v for v in held if isinstance(v, Tensor)]
            arrays = [v for v in held if isinstance(v, np.ndarray)]
            assert len(tensors) == 2 and {id(v) for v in tensors} == {id(xt), id(wtt)}
            relu_out = tt.relu(tt.conv2d(Tensor(x), Tensor(wt), Tensor(b))).data
            assert len(arrays) == 1 and arrays[0].dtype == np.uint8
            assert arrays[0].tobytes() == np.packbits(relu_out > 0, axis=2).tobytes()
            tape.backward(loss)


class TestConvReluPool1x1:
    """With a 1x1 kernel, ``conv_relu_pool`` is one product per row block
    over a view of x's rows: it equals ``avg_pool2(relu(conv2d))`` to float
    rounding, and its gradients those of the full-map composition."""

    # the stem's first stage at train-128 size, whose 15-row blocks stage a
    # row; odd extents; and a map three rows taller than one block
    SHAPES = [(32, 128, 128, 48), (2, 9, 7, 3), (2, tt.CONV_BLOCK_PIXELS // 4 + 3, 2, 3)]

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("c_in, h, w, c_out", SHAPES)
    def test_output_and_gradients_equal_the_full_map_composition(self, c_in, h, w, c_out, dtype):
        x, wt, b, g = TestConvReluPool.operands(np.random.default_rng(h * w + 1), c_in, h, w, c_out, dtype, k=1)
        got = TestConvReluPool.run(tt.conv_relu_pool, x, wt, b, g)
        want = TestConvReluPool.run(composition, x, wt, b, g)
        tol = 4 * np.finfo(dtype).eps
        for name, a, e in zip(("out", "dx", "dW", "db"), got, want):
            assert a.dtype == dtype and a.shape == e.shape, name
            assert np.max(np.abs(a - e)) <= tol * np.max(np.abs(e)), name

    @pytest.mark.parametrize("h, w", [(9, 8), (8, 7), (9, 7)])
    def test_an_odd_extent_drops_the_trailing_row_or_column(self, h, w):
        x, wt, b, g = TestConvReluPool.operands(np.random.default_rng(h + w), 3, h, w, 4, F64, k=1)
        out, dx, dw, db = TestConvReluPool.run(tt.conv_relu_pool, x, wt, b, g)
        even = np.ascontiguousarray(x[:, : h - h % 2, : w - w % 2])
        out_even, dx_even, dw_even, db_even = TestConvReluPool.run(tt.conv_relu_pool, even, wt, b, g)
        assert out.tobytes() == out_even.tobytes()
        assert not dx[:, h - h % 2 :].any() and not dx[:, :, w - w % 2 :].any()
        assert dx[:, : h - h % 2, : w - w % 2].tobytes() == dx_even.tobytes()
        np.testing.assert_allclose(dw, dw_even, rtol=1e-12)
        np.testing.assert_allclose(db, db_even, rtol=1e-12)

    def test_nonfinite_weight_raises_naming_the_op(self):
        x, wt, b, _ = TestConvReluPool.operands(np.random.default_rng(13), 32, 64, 64, 48, np.float32, k=1)
        wt[47, 5, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="conv_relu_pool"):
            tt.conv_relu_pool(Tensor(x), Tensor(wt), Tensor(b))


class InlineLane:
    """A stand-in for the lane's executor: ``submit`` runs the task at once,
    in the caller, and returns its settled future."""

    def __init__(self):
        self.tasks = 0

    def submit(self, fn):
        self.tasks += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn())
        except BaseException as exc:
            future.set_exception(exc)
        return future


class CountingLane:
    """The real lane, counting the tasks handed to it."""

    def __init__(self):
        self.lane, self.tasks = tt._lane_executor(), 0

    def submit(self, fn):
        self.tasks += 1
        return self.lane.submit(fn)


def full_channel_conv3(x, w, b):
    """A 3x3 conv by nine full-channel products over a padded copy of x."""
    c_out, c_in = w.shape[:2]
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c_out, h * wd), x.dtype)
    for di in range(3):
        for dj in range(3):
            out += w[:, :, di, dj] @ xp[:, di : di + h, dj : dj + wd].reshape(c_in, -1)
    return (out + b[:, None]).reshape(c_out, h, wd)


def full_channel_conv3_backward(x, w, g):
    """dx, dW and db of sum(g * conv) for the conv of ``full_channel_conv3``."""
    c_out, c_in = w.shape[:2]
    _, h, wd = x.shape
    xp, gp = np.pad(x, ((0, 0), (1, 1), (1, 1))), np.pad(g, ((0, 0), (1, 1), (1, 1)))
    g2 = g.reshape(c_out, -1)
    dx, dw = np.zeros((c_in, h * wd), x.dtype), np.empty_like(w)
    for di in range(3):
        for dj in range(3):
            dw[:, :, di, dj] = g2 @ xp[:, di : di + h, dj : dj + wd].reshape(c_in, -1).T
            dx += w[:, :, 2 - di, 2 - dj].T @ gp[:, di : di + h, dj : dj + wd].reshape(c_out, -1)
    return dx.reshape(c_in, h, wd), dw, g.sum(axis=(1, 2))


def full_channel_reference(op, x, w, b, g):
    """Output, dx, dW and db of sum(g * op(x, w, b)), op being conv2d or
    conv_relu_pool, from the full-channel conv."""
    conv = full_channel_conv3(x, w, b)
    if op is tt.conv2d:
        return (conv, *full_channel_conv3_backward(x, w, g))
    h2, w2 = g.shape[1:]
    rows = np.maximum(conv, 0)[:, : 2 * h2, : 2 * w2]
    cols = rows[:, :, 0::2] + rows[:, :, 1::2]
    out = (cols[:, 0::2] + cols[:, 1::2]) * 0.25
    g_conv = np.zeros_like(conv)
    g_conv[:, : 2 * h2, : 2 * w2] = np.repeat(np.repeat(g * 0.25, 2, axis=1), 2, axis=2) * (rows > 0)
    return (out, *full_channel_conv3_backward(x, w, g_conv))


class TestLane:
    """The 3x3 convs share large blocks with the lane, a worker thread, and
    keep the bits of one thread."""

    OPS = [tt.conv2d, tt.conv_relu_pool]

    @staticmethod
    def operands(c_in, size, c_out, dtype, op):
        rng = np.random.default_rng(size + c_in)
        x = rand(rng, c_in, size, size, dtype=dtype)
        wt = (rand(rng, c_out, c_in, 3, 3) / np.sqrt(9 * c_in)).astype(dtype)
        g_size = size if op is tt.conv2d else size // 2
        return x, wt, rand(rng, c_out, dtype=dtype), rand(rng, c_out, g_size, g_size, dtype=dtype)

    @staticmethod
    def run(op, x, wt, b, g, need_dx=True):
        """Output, dx (or None), dW and db of sum(g * op(x, w, b))."""
        xt = parameter(x) if need_dx else Tensor(x)
        with Tape() as tape:
            out = op(xt, parameter(wt), parameter(b))
            return (out.data, *tape.ops[-1].backward(g))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("c_in, size, c_out", [(32, 128, 48), (48, 64, 48)])
    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_bits_equal_an_inline_lane_and_values_the_full_channel_conv(self, monkeypatch, op, c_in, size, c_out, dtype):
        x, wt, b, g = self.operands(c_in, size, c_out, dtype, op)
        want = full_channel_reference(op, x, wt, b, g)
        lanes = {"threaded": CountingLane(), "inline": InlineLane()}
        got = {}
        for name, lane in lanes.items():
            monkeypatch.setattr(tt, "_lane_executor", lambda lane=lane: lane)
            got[name] = self.run(op, x, wt, b, g), self.run(op, x, wt, b, g, need_dx=False)
            assert lane.tasks > 0, name
        (threaded, threaded_no_dx), (inline, inline_no_dx) = got["threaded"], got["inline"]
        names = ("out", "dx", "dW", "db")
        for name, a, e in zip(names, threaded, inline):
            assert a.dtype == dtype and a.tobytes() == e.tobytes(), name
        assert threaded_no_dx[1] is None and inline_no_dx[1] is None
        for name, a, e, full in zip(names, threaded_no_dx, inline_no_dx, threaded):
            if name != "dx":
                assert a.tobytes() == e.tobytes() == full.tobytes(), name
        for name, a, e in zip(names, threaded, want):
            assert np.max(np.abs(a - e)) <= 1e-6 * np.max(np.abs(e)), name

    def test_a_backward_without_dx_leaves_the_lane_idle(self, monkeypatch):
        # 48 -> 48 on 64x64: with dx, the blocks of 31 rows go to the lane
        x, wt, _, g = self.operands(48, 64, 48, np.float32, tt.conv2d)
        lane = CountingLane()
        monkeypatch.setattr(tt, "_lane_executor", lambda: lane)
        dx, dw, db = tt._conv3_backward(x, wt, g, False)
        assert dx is None and lane.tasks == 0
        _, dw_full, db_full = tt._conv3_backward(x, wt, g, True)
        assert lane.tasks > 0
        assert dw.tobytes() == dw_full.tobytes() and db.tobytes() == db_full.tobytes()

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    def test_nonfinite_weight_in_either_channel_half_raises_alike(self, op):
        x, wt, b, _ = self.operands(48, 64, 48, np.float32, op)
        before = op(Tensor(x), Tensor(wt), Tensor(b)).data
        messages = []
        for channel in (0, 47):  # the caller's half, then the lane's
            bad = wt.copy()
            bad[channel, 5, 1, 1] = np.nan
            with pytest.raises(NumericalError, match=op.__name__) as exc:
                op(Tensor(x), Tensor(bad), Tensor(b))
            messages.append(str(exc.value))
            assert op(Tensor(x), Tensor(wt), Tensor(b)).data.tobytes() == before.tobytes()
        assert messages[0] == messages[1]

    def test_fifty_convs_start_at_most_one_thread(self):
        x, wt, b, g = self.operands(48, 64, 48, np.float32, tt.conv2d)
        threads = threading.active_count()
        for _ in range(25):
            self.run(tt.conv2d, x, wt, b, g)
            self.run(tt.conv_relu_pool, x, wt, b, g[:, :32, :32])
        assert threading.active_count() <= threads + 1

    def test_callers_on_several_threads_share_the_lane(self):
        # four callers on two cores, switching threads often: each caller's
        # conv and gradients keep the bits of a lone call
        x, wt, b, g = self.operands(48, 64, 48, np.float32, tt.conv2d)

        def conv():
            out = tt.conv2d(Tensor(x), Tensor(wt), Tensor(b)).data
            return (out, *tt._conv3_backward(x, wt, g, True))

        want, results, errors = conv(), [], []

        def caller():
            try:
                results.extend(conv() for _ in range(3))
            except BaseException as exc:  # re-raised below, in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert len(results) == 12
        for got in results:
            assert all(a.tobytes() == e.tobytes() for a, e in zip(got, want))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_lane(self):
        x, wt, b, _ = self.operands(48, 64, 48, np.float32, tt.conv2d)
        want = tt.conv2d(Tensor(x), Tensor(wt), Tensor(b)).data  # the lane has run
        pid = os.fork()
        if pid == 0:
            same = tt.conv2d(Tensor(x), Tensor(wt), Tensor(b)).data.tobytes() == want.tobytes()
            os._exit(0 if same else 1)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on the parent's lane")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_lane_error_is_raised_after_the_caller_task(self):
        done = []

        def fail():
            raise ValueError("in the lane")

        with pytest.raises(ValueError, match="in the lane"):
            tt._beside(fail, lambda: done.append("caller"))
        assert done == ["caller"]

    def test_caller_error_waits_for_the_lane_and_wins(self):
        done, started = [], threading.Event()

        def slow():
            started.set()
            time.sleep(0.05)
            done.append("lane")

        def fail():
            assert started.wait(timeout=60)
            raise KeyError("in the caller")

        with pytest.raises(KeyError, match="in the caller"):
            tt._beside(slow, fail)
        assert done == ["lane"]


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

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("side", [16, 32, 64])
    def test_forward_equals_the_var_formula_bit_for_bit(self, side, dtype):
        rng = np.random.default_rng(side)
        x = rand(rng, 48, side, side, dtype=dtype)
        gamma, beta = rand(rng, 48, dtype=dtype), rand(rng, 48, dtype=dtype)
        mu = x.mean(axis=0)
        inv_std = dtype(1.0) / np.sqrt(x.var(axis=0) + dtype(tt.LAYER_NORM_EPS))
        want = (x - mu) * inv_std * gamma[:, None, None] + beta[:, None, None]
        with Tape() as tape:
            out = tt.layer_norm(parameter(x), parameter(gamma), parameter(beta)).data
            held = _held_arrays(tape.ops[-1].backward)
        assert out.tobytes() == want.tobytes()
        assert {a.tobytes() for a in held if a.shape == (side, side)} == {mu.tobytes(), inv_std.tobytes()}

    def test_keeps_its_input_not_xhat_with_the_same_gradients(self):
        rng = np.random.default_rng(7)
        x = parameter(rand(rng, 5, 6, 7, dtype=np.float32))
        gamma, beta = parameter(rand(rng, 5, dtype=np.float32)), parameter(rand(rng, 5, dtype=np.float32))
        g = rand(rng, 5, 6, 7, dtype=np.float32)
        with Tape() as tape:
            tt.layer_norm(x, gamma, beta)
            rule = tape.ops[-1].backward
            held = _held_arrays(rule)
            grads = rule(g)
        maps = [a for a in held if a.shape == x.shape]
        assert maps and all(a is x.data for a in maps)
        # the form that kept the forward's xhat
        inv_std = np.float32(1.0) / np.sqrt(x.data.var(axis=0) + np.float32(1e-5))
        xhat = (x.data - x.data.mean(axis=0)) * inv_std
        dxhat = g * gamma.data[:, None, None]
        dx = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) * inv_std
        for got, want in zip(grads, (dx, (g * xhat).sum(axis=(1, 2)), g.sum(axis=(1, 2)))):
            assert got.tobytes() == want.tobytes()


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
        # the message names the offending id: the minimum when one is negative
        for labels, bad in (([[3]], 3), ([[-1, 1]], -1), ([[-2, 3]], -2)):
            labels = np.array(labels)
            with pytest.raises(ValueError, match=rf"label id {bad} outside \[0, 2\]"):
                tt.masked_cross_entropy(Tensor(np.zeros((2, *labels.shape))), labels, np.ones(labels.shape))

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


def _held_arrays(fn) -> list:
    """The arrays that a closure holds, and those of the closures it holds."""
    held = []
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            held.append(v)
        elif callable(v) and getattr(v, "__closure__", None):
            held += _held_arrays(v)
    return held


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
    ROUTER = RouterParams(
        parameter([[0.5, -0.3]]), parameter([2.0]), parameter([[1.0], [-0.5], [0.3], [0.2]]), parameter(np.zeros(4))
    )

    # backward rules that read only their input's shape, each on an input of its rank
    SHAPE_ONLY = {
        "sum_all": ((2, 3, 4), tt.sum_all),
        "narrow": ((2, 3, 4), lambda y: tt.sum_all(tt.narrow(y, 1, 1, 2))),
        "concat": ((2, 3, 4), lambda y: tt.sum_all(tt.concat([Tensor(np.ones((1, 3, 4))), y], axis=0))),
        # the router keeps its pooled vector, not the map (pre-activation near 2, far from the ReLU kink)
        "route": ((2, 3, 4), lambda y: tt.sum_all(tt.mul(route(TestTapeMemory.ROUTER, y, 4)[1], Tensor(np.arange(4.0))))),
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

    def test_relu_keeps_the_map_that_its_conv_keeps(self):
        rng = np.random.default_rng(23)
        res = ResBlockParams(*(parameter(rand(rng, *shape)) for shape in ((3, 3, 3, 3), (3,)) * 2))
        x = parameter(rand(rng, 3, 4, 5))
        with Tape() as tape:
            residual_block(res, x)
            ops = tape.ops
            assert [op.name for op in ops] == ["relu", "conv2d", "relu", "conv2d", "add"]
            for relu_op, conv_op, weight in ((ops[0], ops[1], res.conv1_w), (ops[2], ops[3], res.conv2_w)):
                held = _held_arrays(relu_op.backward)
                conv_held = [cell.cell_contents for cell in conv_op.backward.__closure__]
                # the conv's input is the Tensor that the relu op made
                conv_inputs = [v for v in conv_held if isinstance(v, Tensor) and v._node == relu_op.out]
                assert len(held) == 1 and held[0].dtype != bool
                assert len(conv_inputs) == 1 and held[0] is conv_inputs[0].data
                # besides its input, the conv keeps its weight, not a copy of the taps
                assert [v for v in conv_held if isinstance(v, Tensor) and v is not conv_inputs[0]] == [weight]
                assert not _held_arrays(conv_op.backward)

    def test_mlp_keeps_neither_the_ln_output_nor_the_hidden_map(self, monkeypatch):
        # the closure keeps its input and LN2's mu and inv_std; the LN output
        # and the (2C, h, w) hidden map die in the forward pass
        block = init_network_params(NetSpec(bands=1, channels=6, state_dim=2, n_class=1), np.random.default_rng(25)).momeb[0]
        g = parameter(rand(np.random.default_rng(26), 6, 5, 7, dtype=np.float32))
        made = []
        real_ln, real_conv = tt.layer_norm_forward, tt.conv1x1

        def ln_recorded(*args):
            out = real_ln(*args)
            made.append(weakref.ref(out[0]))
            return out

        def conv_recorded(weight, bias, x):
            out = real_conv(weight, bias, x)
            if out.shape[0] == 2 * 6:  # the hidden map, not the op's output
                made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(tt, "layer_norm_forward", ln_recorded)
        monkeypatch.setattr(tt, "conv1x1", conv_recorded)
        with Tape() as tape:
            out = mlp(block, g)
            assert len(made) == 2 and all(ref() is None for ref in made)
            (op,) = tape.ops
            maps = [a for a in _held_arrays(op.backward) if a.size >= 5 * 7]
            assert sorted(a.shape for a in maps) == [(5, 7), (5, 7), (6, 5, 7)]
            assert [a for a in maps if a.ndim == 3][0] is g.data
            tape.backward(tt.sum_all(out))
        assert np.all(np.isfinite(g.grad))

    def test_relu_without_a_tape_makes_no_mask(self):
        x = Tensor(rand(np.random.default_rng(24), 64, 64, dtype=np.float32))
        tracemalloc.start()
        try:
            y = tt.relu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and the finite check's bool temporary; a mask would add a quarter more
        assert peak < 1.4 * y.data.nbytes

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
            return tt.sum_all(tt.mul(y, probe))

        rep = grad_check(fn, [x, gamma, beta, kw, kb])
        assert rep.max_rel_err < 1e-4, rep.per_param
