"""Scan orders, the state-space recurrence, and the directional experts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe import tensor as tt
from mambamoe.network import NetSpec, init_network_params
from mambamoe.scan import (
    SPATIAL_DIRECTIONS,
    _decay_slope,
    _grid,
    _linear_scan,
    _tokens,
    ScanDirection,
    SsmParams,
    spatial_expert_forward,
    spectral_bidirectional,
)
from mambamoe.tensor import ShapeError, Tensor, grad_check, parameter

F64 = np.float64


def make_expert(state_dim, embed_dim, rng, dtype=F64):
    """A first-block spatial expert of a network whose spatial half is embed_dim wide."""
    spec = NetSpec(bands=1, channels=2 * embed_dim, state_dim=state_dim, n_class=1)
    return init_network_params(spec, rng, dtype).momeb[0].spatial[0]


def run_expert(p, x, direction, gate=1.0):
    """spatial_expert_forward on the map ``x`` with the one-entry gate vector [gate]."""
    return spatial_expert_forward(p, x, direction, Tensor(np.array([gate], dtype=x.dtype)), 0)


def gather_order(direction, h, w):
    """Flat row-major grid indices in visit order, built as an index
    permutation: the oracle for the strided layouts of ``_tokens``."""
    if direction is ScanDirection.TL_BR:
        return np.arange(h * w)
    if direction is ScanDirection.BR_TL:
        return np.arange(h * w)[::-1]
    if direction is ScanDirection.TR_BL:
        return (np.arange(h)[None, :] * w + np.arange(w - 1, -1, -1)[:, None]).reshape(-1)
    return gather_order(ScanDirection.TR_BL, h, w)[::-1]


def row_major_map(seq, h=1):
    """A (T, E) sequence as the (E, h, T / h) map that TL_BR reads as it lies."""
    return np.ascontiguousarray(seq.T).reshape(seq.shape[1], h, -1)


def row_major_seq(grid):
    """Inverse of ``row_major_map``: an (E, h, w) map as its (h*w, E) sequence."""
    return grid.reshape(grid.shape[0], -1).T


def recurrence(p, seq, h=1):
    """The expert's (T, E) output sequence for a (T, E) input sequence,
    read as the row-major (h, T / h) map."""
    y = run_expert(p, Tensor(row_major_map(seq, h), dtype=seq.dtype), ScanDirection.TL_BR)
    return row_major_seq(y.data)


def dense(p):
    """The expert's (A_bar, B_bar, C_out) for the dense loop oracles: A_bar = diag(lam)."""
    return np.diag(p.decay), p.b_bar.data, p.c_out.data


def oracle_grads(p, f, g):
    """loop_reference_grads on dense(p), with dA's diagonal carried to
    a_log by d lam / d a_log = -lam exp(a_log)."""
    da, db, dc, df = loop_reference_grads(*dense(p), f, g)
    return np.diag(da) * -p.decay * np.exp(p.a_log.data), db, dc, df


def unrolled_reference(a, b, c, seq):
    """Independent step-by-step recurrence (plain numpy loops), y_t = C h_t:
    no skip term."""
    d = a.shape[0]
    h = np.zeros(d)
    out = np.zeros_like(seq)
    for t in range(seq.shape[0]):
        h = a @ h + b @ seq[t]
        out[t] = c @ h
    return out


def batched_reference(a, b, c, seq):
    """unrolled_reference applied to each column of a (T, E, N) batch."""
    return np.stack([unrolled_reference(a, b, c, seq[:, :, i]) for i in range(seq.shape[2])], axis=2)


def loop_reference_grads(a, b, c, f, g):
    """Step-by-step reverse sweep: gradients of sum(g * y) for a (T, E, N)
    batch, y_t = C h_t with no skip term."""
    t_len, _, n = f.shape
    states = np.zeros((t_len, a.shape[0], n))
    h = np.zeros((a.shape[0], n))
    for t in range(t_len):
        h = a @ h + b @ f[t]
        states[t] = h
    da, db, dc, df = np.zeros_like(a), np.zeros_like(b), np.zeros_like(c), np.zeros_like(f)
    dh = np.zeros_like(h)
    for t in range(t_len - 1, -1, -1):
        dc += g[t] @ states[t].T
        dh += c.T @ g[t]
        if t > 0:
            da += dh @ states[t - 1].T
        db += dh @ f[t].T
        df[t] = b.T @ dh
        dh = a.T @ dh
    return da, db, dc, df


def scan_with_grads(p, seq, probe, h=1):
    """The expert's (T, E) output for a (T, E) sequence read as the
    row-major (h, T / h) map, and the gradients of sum(probe * output),
    the sequence's as (T, E)."""
    x = parameter(row_major_map(seq, h))
    for t in (p.a_log, p.b_bar, p.c_out):
        t.zero_grad()
    with tt.Tape() as tape:
        y = run_expert(p, x, ScanDirection.TL_BR)
        tape.backward(tt.sum_all(tt.mul(y, Tensor(row_major_map(probe, h)))))
    return row_major_seq(y.data), (p.a_log.grad, p.b_bar.grad, p.c_out.grad, row_major_seq(x.grad))


def sqrt_t_scan(lam, u):
    """The scan of a (T, D) stack with T a square, in chunks of sqrt(T)
    steps, as ``_linear_scan`` chunked every stack before it took the map's
    (h, w): a chunk-major copy, the fix-up as one broadcast product, and a
    copy back into u.  This form rounds like the in-place kernel, bit for bit."""
    t_len, d = u.shape
    step = math.isqrt(t_len)
    assert step * step == t_len
    w = np.ascontiguousarray(u.reshape(step, step, d).transpose(1, 0, 2))
    for j in range(1, step):
        w[j] += w[j - 1] * lam
    powers = lam ** np.arange(1, step + 1, dtype=u.dtype)[:, None]
    ends = w[step - 1]
    for c in range(1, step):
        ends[c] += ends[c - 1] * powers[-1]
    w[: step - 1, 1:] += ends[:-1] * powers[:-1, None]
    u[...] = w.transpose(1, 0, 2).reshape(t_len, d)


def token_form(p, x, g_grid, direction, scan, gate=1.0):
    """The expert's output grid at ``gate`` and the backward rule's five
    gradients for the output gradient ``g_grid``, computed on (T, E) tokens,
    with ``scan(lam, u)`` carrying a (T, D) stack in place.  The output is
    gate * C h with no skip term; the gate's gradient is sum(G * C h) for
    the ungated token gradient G, as a one-entry vector."""
    _, h, w = x.shape
    gate = x.dtype.type(gate)
    lam, f, g_ungated = p.decay, _tokens(x, direction), _tokens(g_grid, direction)
    states = f @ p.b_bar.data.T
    scan(lam, states)
    y = states @ p.c_out.data.T
    g = g_ungated * gate
    dh = g @ p.c_out.data
    scan(lam, dh[::-1])
    d_a = (dh[1:] * states[:-1]).sum(axis=0) * _decay_slope(p.a_log.data)
    d_gate = np.array([np.vdot(g_ungated @ p.c_out.data, states)])
    df = _grid(dh @ p.b_bar.data, direction, h, w)
    return _grid(y * gate, direction, h, w), (d_a, dh.T @ f, g.T @ states, df, d_gate)


def expert_with_rule(p, x, g_grid, direction, gate=1.0):
    """spatial_expert_forward's output grid at ``gate``, the arrays its
    backward rule holds, and the rule's five gradients for the output
    gradient ``g_grid``."""
    with tt.Tape() as tape:
        out = run_expert(p, Tensor(x), direction, gate).data
        rule = tape.ops[-1].backward
        held = [cell.cell_contents for cell in rule.__closure__]
        return out, held, rule(g_grid)


def rel_err(x, ref):
    """Largest deviation relative to the largest reference entry (0 when both vanish)."""
    return float(np.abs(x - ref).max() / max(np.abs(ref).max(), np.finfo(np.float64).tiny))


class TestScanOrders:
    def test_2x2_orders(self):
        # grid [[a,b],[c,d]] read per direction; the column-major pair
        # (TR_BL/BL_TR) is what makes those experts sweep vertically
        grid = np.arange(4.0).reshape(1, 2, 2)
        expect = {
            ScanDirection.TL_BR: [0, 1, 2, 3],  # a b c d
            ScanDirection.BR_TL: [3, 2, 1, 0],  # d c b a
            ScanDirection.TR_BL: [1, 3, 0, 2],  # b d a c
            ScanDirection.BL_TR: [2, 0, 3, 1],  # c a d b
        }
        for direction, order in expect.items():
            assert _tokens(grid, direction)[:, 0].tolist() == order

    def test_corner_semantics(self):
        h, w = 5, 7
        corners = {
            ScanDirection.TL_BR: (0, (h - 1) * w + (w - 1)),
            ScanDirection.BR_TL: ((h - 1) * w + (w - 1), 0),
            ScanDirection.TR_BL: (w - 1, (h - 1) * w),
            ScanDirection.BL_TR: ((h - 1) * w, w - 1),
        }
        cells = np.arange(float(h * w)).reshape(1, h, w)
        for direction, (first, last) in corners.items():
            order = _tokens(cells, direction)[:, 0]
            assert (order[0], order[-1]) == (first, last)

    def test_reversal_pairs(self):
        for h, w in [(3, 4), (5, 5), (1, 6)]:
            x = np.random.default_rng(h * w).normal(size=(2, h, w))
            np.testing.assert_array_equal(_tokens(x, ScanDirection.BR_TL), _tokens(x, ScanDirection.TL_BR)[::-1])
            np.testing.assert_array_equal(_tokens(x, ScanDirection.BL_TR), _tokens(x, ScanDirection.TR_BL)[::-1])

    def test_orders_are_bijections(self):
        cells = np.arange(30.0).reshape(1, 6, 5)
        for direction in SPATIAL_DIRECTIONS:
            assert sorted(_tokens(cells, direction)[:, 0].tolist()) == list(range(30))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_layouts_match_the_gather_oracle(self, seed, h, w):
        x = np.random.default_rng(seed).normal(size=(3, h, w))
        for direction in SPATIAL_DIRECTIONS:
            seq = _tokens(x, direction)
            assert seq.flags.c_contiguous and seq.shape == (h * w, 3)
            assert seq.tobytes() == x.reshape(3, h * w)[:, gather_order(direction, h, w)].T.copy().tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_bit_exact(self, seed, h, w):
        x = np.random.default_rng(seed).normal(size=(3, h, w))
        for direction in SPATIAL_DIRECTIONS:
            assert _grid(_tokens(x, direction), direction, h, w).tobytes() == x.tobytes()

    def test_unflatten_length_mismatch(self):
        # five tokens do not cover a 2x3 grid: refused, not laid out in part
        with pytest.raises(ValueError):
            _grid(np.ones((5, 2)), ScanDirection.TL_BR, 2, 3)

    def test_constant_sequence_gives_constant_grid(self):
        seq = np.full((12, 2), 3.25)
        for direction in SPATIAL_DIRECTIONS:
            np.testing.assert_array_equal(_grid(seq, direction, 3, 4), np.full((2, 3, 4), 3.25))


class TestRecurrence:
    def test_memoryless_when_a_zero(self):
        rng = np.random.default_rng(0)
        p = make_expert(3, 2, rng)
        p.a_log.data[...] = 50.0  # lam = exp(-exp(50)) = 0
        seq = rng.normal(size=(5, 2))
        out = recurrence(p, seq)
        for t in range(5):
            expected = p.c_out.data @ (p.b_bar.data @ seq[t])
            np.testing.assert_allclose(out[t], expected, atol=1e-12)

    def test_zero_map_when_b_zero(self):
        rng = np.random.default_rng(1)
        p = make_expert(4, 3, rng)
        p.b_bar.data[...] = 0.0
        seq = rng.normal(size=(6, 3))
        out = recurrence(p, seq)
        np.testing.assert_array_equal(out, np.zeros_like(seq))

    def test_matches_unrolled_oracle_and_gradient(self):
        rng = np.random.default_rng(2)
        p = make_expert(3, 2, rng)
        seq = rng.normal(size=(4, 2))
        ref = unrolled_reference(*dense(p), seq)
        np.testing.assert_allclose(recurrence(p, seq), ref, atol=1e-6)
        x = parameter(row_major_map(seq))
        fn = lambda: tt.sum_all(run_expert(p, x, ScanDirection.TL_BR))
        rep = grad_check(fn, [p.a_log, p.b_bar, p.c_out, x])
        assert rep.passed, rep.per_param

    def test_200_random_cases_against_unrolled_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            e = int(rng.integers(1, 9))
            t = int(rng.integers(1, 65))
            p = make_expert(d, e, rng)
            seq = rng.normal(size=(t, e))
            out = recurrence(p, seq)
            ref = unrolled_reference(*dense(p), seq)
            np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_width_mismatch(self):
        p = make_expert(2, 3, np.random.default_rng(0), dtype=np.float32)
        # wrong width; a (T, E) sequence, not a map; a float64 map for float32 parameters
        for bad in (np.ones((2, 1, 4), np.float32), np.ones((4, 3), np.float32), np.ones((3, 1, 4))):
            with pytest.raises(ShapeError):
                run_expert(p, Tensor(bad), ScanDirection.TL_BR)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_input(self, seed, pow2):
        # exact for power-of-two scales; floating scaling by 2**k commutes
        # with every arithmetic op bitwise
        rng = np.random.default_rng(seed)
        p = make_expert(3, 2, rng)
        seq = rng.normal(size=(6, 2))
        scale = float(2**pow2)
        base = recurrence(p, seq)
        scaled = recurrence(p, seq * scale)
        assert (scale * base).tobytes() == scaled.tobytes()

    def test_linearity_general_scalar(self):
        rng = np.random.default_rng(4)
        p = make_expert(3, 2, rng)
        seq = rng.normal(size=(6, 2))
        for a in rng.normal(size=5):
            base = recurrence(p, seq)
            scaled = recurrence(p, seq * a)
            np.testing.assert_allclose(scaled, a * base, rtol=1e-9, atol=1e-12)


class TestChunkedScan:
    """The chunked kernel against step-by-step loops, across chunk boundaries."""

    # (h, w) maps: h chunks of w steps; a one-row map is one chunk, and a
    # one-column map is chunks of one step
    SHAPES = ((1, 1), (1, 2), (2, 1), (7, 9), (9, 7), (1, 67), (67, 1), (63, 1), (64, 1), (65, 1), (4096, 1), (64, 64))

    @pytest.mark.parametrize("h, w", SHAPES)
    def test_kernel_matches_loop(self, h, w):
        t_len = h * w
        rng = np.random.default_rng(t_len * 10 + w)
        lam = rng.uniform(0.5, 1.0, 4)
        u = rng.normal(size=(t_len, 4))
        ref = u.copy()
        for t in range(1, t_len):
            ref[t] += np.diag(lam) @ ref[t - 1]
        forward = u.copy()
        _linear_scan(lam, forward.reshape(h, w, 4))
        assert rel_err(forward, ref) < 1e-10
        # the adjoint scans a reversed view in place
        reversed_store = u[::-1].copy()
        _linear_scan(lam, reversed_store[::-1].reshape(h, w, 4))
        assert rel_err(reversed_store[::-1], ref) < 1e-10

    def test_scan_of_whole_chunks_makes_no_copy_of_the_stack(self):
        rng = np.random.default_rng(44)
        lam = rng.uniform(0.5, 1.0, 24).astype(np.float32)
        for h, w in ((64, 64), (305, 170), (152, 85), (7, 9)):
            u = rng.normal(size=(h * w, 24)).astype(np.float32)
            for view in (lambda a: a, lambda a: a[::-1]):
                tracemalloc.start()
                try:
                    _linear_scan(lam, view(u).reshape(h, w, 24))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < u.nbytes, (h, w)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("side", [4, 16, 64])
    def test_square_maps_bitwise_equal_the_sqrt_t_form(self, side, dtype):
        rng = np.random.default_rng(side)
        p = make_expert(4, 3, rng, dtype=dtype)
        x = rng.normal(size=(3, side, side)).astype(dtype)
        g_grid = rng.normal(size=x.shape).astype(dtype)
        for direction in SPATIAL_DIRECTIONS:
            out, _, grads = expert_with_rule(p, x, g_grid, direction, 0.7)
            want_out, want_grads = token_form(p, x, g_grid, direction, sqrt_t_scan, 0.7)
            assert out.tobytes() == want_out.tobytes()
            for got, want in zip(grads, want_grads, strict=True):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h, w", SHAPES)
    def test_recurrence_and_adjoint_match_loops_float64(self, h, w):
        rng = np.random.default_rng(h * w * 10 + w + 1)
        p = make_expert(5, 3, rng)
        seq = rng.normal(size=(h * w, 3))
        probe = rng.normal(size=seq.shape)
        out, grads = scan_with_grads(p, seq, probe, h)
        assert rel_err(out, unrolled_reference(*dense(p), seq)) < 1e-10
        ref_grads = oracle_grads(p, seq[:, :, None], probe[:, :, None])
        for got, ref in zip(grads, ref_grads):
            assert rel_err(got, ref.reshape(got.shape)) < 1e-10

    def test_float32_long_scan_near_unit_radius(self):
        # lam = 0.96 in every state, the largest decay a trained 128x128
        # model reached with a dense A_bar; float32 against a float64 oracle
        rng = np.random.default_rng(43)
        p64 = make_expert(24, 24, rng)
        p64.a_log.data[...] = np.log(-np.log(0.96))
        p32 = SsmParams(*(parameter(t.data, dtype=np.float32) for t in (p64.a_log, p64.b_bar, p64.c_out)))
        np.testing.assert_allclose(p32.decay, 0.96, rtol=1e-6)
        seq = rng.normal(size=(64 * 64, 24))
        probe = rng.normal(size=seq.shape)
        out64, grads64 = scan_with_grads(p64, seq, probe, 64)
        out32, grads32 = scan_with_grads(p32, seq.astype(np.float32), probe.astype(np.float32), 64)
        assert out32.dtype == np.float32
        # 1e-5 is about 100 float32 epsilons
        assert rel_err(out32, out64) < 1e-5
        for got, ref in zip(grads32, grads64):
            assert rel_err(got, ref) < 1e-5


class TestSpatialExpert:
    def test_one_call_records_one_tape_op(self):
        rng = np.random.default_rng(22)
        p = make_expert(3, 2, rng)
        x = parameter(rng.normal(size=(2, 3, 4)))
        for direction in SPATIAL_DIRECTIONS:
            with tt.Tape() as tape:
                run_expert(p, x, direction)
            assert [op.name for op in tape.ops] == ["spatial_expert_forward"]

    def test_gate_is_one_entry_of_a_vector_of_the_map_dtype(self):
        p = make_expert(2, 3, np.random.default_rng(23))
        x = Tensor(np.ones((3, 2, 2)))
        for gates, i in ((np.ones(2), 2), (np.ones(2), -1), (np.ones((2, 1)), 0), (np.ones(2, np.float32), 0)):
            with pytest.raises(ShapeError, match="gate"):
                spatial_expert_forward(p, x, ScanDirection.TL_BR, Tensor(gates), i)

    def test_zero_params_zero_map_every_direction(self):
        rng = np.random.default_rng(5)
        zero = SsmParams(parameter(np.zeros(3)), parameter(np.zeros((3, 2))), parameter(np.zeros((2, 3))))
        x = Tensor(rng.normal(size=(2, 4, 5)))
        for direction in SPATIAL_DIRECTIONS:
            out = run_expert(zero, x, direction)
            np.testing.assert_array_equal(out.data, np.zeros_like(x.data))

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_zero_output_projection_gives_zeros_and_no_gate_gradient(self, dtype):
        # the output is gate * C h alone, so with C = 0 nothing of the map
        # reaches it, and the gate, which scales only C h, learns nothing
        rng = np.random.default_rng(24)
        p = make_expert(3, 2, rng, dtype=dtype)
        p.c_out.data[...] = 0.0
        x = rng.normal(size=(2, 5, 6)).astype(dtype)
        g_grid = rng.normal(size=x.shape).astype(dtype)
        for direction in SPATIAL_DIRECTIONS:
            out, _, grads = expert_with_rule(p, x, g_grid, direction, 0.7)
            assert out.tobytes() == np.zeros_like(x).tobytes()
            assert grads[-1].tolist() == [0.0]

    def test_directions_differ_on_asymmetric_input_and_match_oracles(self):
        rng = np.random.default_rng(6)
        p = make_expert(3, 2, rng)
        x = rng.normal(size=(2, 3, 4))
        outs = {}
        for direction in SPATIAL_DIRECTIONS:
            order = gather_order(direction, 3, 4)
            seq = x.reshape(2, 12)[:, order].T
            ref_seq = unrolled_reference(*dense(p), seq)
            ref = np.empty((2, 12))
            ref[:, order] = ref_seq.T
            out = run_expert(p, Tensor(x), direction).data
            np.testing.assert_allclose(out, ref.reshape(2, 3, 4), atol=1e-9)
            outs[direction] = out
        assert not np.allclose(outs[ScanDirection.TL_BR], outs[ScanDirection.BR_TL])

    def test_constant_input_directions_see_identical_sequences(self):
        # A constant map reads as the same token sequence in every direction,
        # so the output sequences, each read in its own visit order, coincide
        # bitwise.  The grids are that shared sequence laid out along each
        # scan path (the state accumulates over steps, so the grid itself is
        # not constant).
        rng = np.random.default_rng(7)
        p = make_expert(3, 2, rng)
        x = Tensor(np.tile(rng.normal(size=(2, 1, 1)), (1, 4, 4)))
        grids = {d: run_expert(p, x, d).data for d in SPATIAL_DIRECTIONS}
        seqs = [_tokens(grid, d) for d, grid in grids.items()]
        for other in seqs[1:]:
            assert seqs[0].tobytes() == other.tobytes()
        np.testing.assert_array_equal(seqs[0], recurrence(p, _tokens(x.data, ScanDirection.TL_BR), 4))
        for direction, grid in grids.items():
            order = gather_order(direction, 4, 4)
            np.testing.assert_array_equal(grid.reshape(2, 16)[:, order].T, seqs[0])

    def test_direction_reversal_invariant(self):
        # BR_TL on x == 180-degree rotation of TL_BR on rotated x (shared params)
        rng = np.random.default_rng(8)
        p = make_expert(4, 3, rng)
        x = rng.normal(size=(3, 4, 5))
        rot = x[:, ::-1, ::-1].copy()
        out_brtl = run_expert(p, Tensor(x), ScanDirection.BR_TL).data
        out_rot = run_expert(p, Tensor(rot), ScanDirection.TL_BR).data
        assert out_brtl.tobytes() == out_rot[:, ::-1, ::-1].copy().tobytes()
        out_bltr = run_expert(p, Tensor(x), ScanDirection.BL_TR).data
        out_rot2 = run_expert(p, Tensor(rot), ScanDirection.TR_BL).data
        assert out_bltr.tobytes() == out_rot2[:, ::-1, ::-1].copy().tobytes()

    def test_keeps_its_map_not_tokens_with_the_same_gradients(self):
        rng = np.random.default_rng(10)
        p = make_expert(3, 2, rng)  # D = 3, E = 2: no other held array is token-shaped
        x = rng.normal(size=(2, 5, 6))
        g_grid = rng.normal(size=(2, 5, 6))
        scan = lambda lam, u: _linear_scan(lam, u.reshape(5, 6, -1))
        for direction in SPATIAL_DIRECTIONS:
            _, held, grads = expert_with_rule(p, x, g_grid, direction)
            arrays = [a for a in held if isinstance(a, np.ndarray)]
            assert any(a is x for a in arrays)
            assert not any(a.shape == (30, 2) for a in arrays)
            # the form that kept the forward's tokens
            _, want_grads = token_form(p, x, g_grid, direction, scan)
            for got, want in zip(grads, want_grads, strict=True):
                assert got.tobytes() == want.tobytes()


class TestSpectralExpert:
    def make_params(self, d, rng):
        return make_expert(d, 1, rng)

    def test_zero_params_doubles_input(self):
        rng = np.random.default_rng(10)
        zero = SsmParams(parameter(np.zeros(2)), parameter(np.zeros((2, 1))), parameter(np.zeros((1, 2))))
        zero2 = SsmParams(parameter(np.zeros(2)), parameter(np.zeros((2, 1))), parameter(np.zeros((1, 2))))
        x = rng.normal(size=(3, 2, 2))
        out = spectral_bidirectional(zero, zero2, Tensor(x)).data
        assert out.tobytes() == (2.0 * x).tobytes()

    def test_single_band_directions_coincide(self):
        rng = np.random.default_rng(11)
        p = self.make_params(3, rng)
        x = Tensor(rng.normal(size=(1, 3, 3)))
        out = spectral_bidirectional(p, p, x).data
        fwd = batched_reference(*dense(p), x.data.reshape(1, 1, 9)).reshape(1, 3, 3)
        np.testing.assert_allclose(out, 2.0 * (fwd + x.data), atol=1e-12)

    @staticmethod
    def run_with_grads(fwd, bwd, x, probe):
        """Output of spectral_bidirectional and the gradients of sum(probe * output)."""
        xt = parameter(x)
        params = [fwd.a_log, fwd.b_bar, fwd.c_out, bwd.a_log, bwd.b_bar, bwd.c_out]
        for t in params:
            t.zero_grad()
        with tt.Tape() as tape:
            y = spectral_bidirectional(fwd, bwd, xt)
            tape.backward(tt.sum_all(tt.mul(y, Tensor(probe))))
        return y.data, [t.grad for t in params] + [xt.grad]

    @pytest.mark.parametrize("t_len, d", [(1, 3), (2, 3), (24, 24)])
    def test_matches_per_pixel_unrolled_oracle(self, t_len, d):
        rng = np.random.default_rng(12 + t_len)
        fwd, bwd = self.make_params(d, rng), self.make_params(d, rng)
        x = rng.normal(size=(t_len, 2, 3))
        probe = rng.normal(size=x.shape)
        out, grads = self.run_with_grads(fwd, bwd, x, probe)
        # per-pixel band sequences (T, E=1, N=6); the backward scan runs on
        # the reversed bands, and each direction adds its skip term f
        f, g = x.reshape(t_len, 1, 6), probe.reshape(t_len, 1, 6)
        ref = batched_reference(*dense(fwd), f)
        ref += batched_reference(*dense(bwd), f[::-1])[::-1]
        ref += 2.0 * f
        assert rel_err(out, ref.reshape(x.shape)) < 1e-10
        *grads_f, df_f = oracle_grads(fwd, f, g)
        *grads_b, df_b = oracle_grads(bwd, f[::-1], g[::-1])
        ref_grads = grads_f + grads_b + [(df_f + df_b[::-1] + 2.0 * g).reshape(x.shape)]
        for got, want in zip(grads, ref_grads):
            assert rel_err(got, want) < 1e-10

    def test_float32_matches_float64(self):
        rng = np.random.default_rng(16)
        p64 = [self.make_params(24, rng) for _ in range(2)]
        p32 = [SsmParams(*(parameter(t.data, dtype=np.float32) for t in (p.a_log, p.b_bar, p.c_out))) for p in p64]
        x = rng.normal(size=(24, 8, 8))
        probe = rng.normal(size=x.shape)
        out64, grads64 = self.run_with_grads(*p64, x, probe)
        out32, grads32 = self.run_with_grads(*p32, x.astype(np.float32), probe.astype(np.float32))
        assert out32.dtype == np.float32
        assert rel_err(out32, out64) < 1e-5
        for got, want in zip(grads32, grads64):
            assert rel_err(got, want) < 1e-5

    def test_scalar_token_contract(self):
        rng = np.random.default_rng(13)
        wide = make_expert(2, 3, rng)
        with pytest.raises(ShapeError):
            spectral_bidirectional(wide, wide, Tensor(np.ones((3, 2, 2))))

    def test_rank_dtype_and_state_dim_contract(self):
        rng = np.random.default_rng(17)
        p = self.make_params(2, rng)
        with pytest.raises(ShapeError):
            spectral_bidirectional(p, p, Tensor(np.ones((3, 4))))
        with pytest.raises(ShapeError):
            spectral_bidirectional(p, p, Tensor(np.ones((3, 2, 2), dtype=np.float32)))
        with pytest.raises(ShapeError):
            spectral_bidirectional(p, self.make_params(3, rng), Tensor(np.ones((3, 2, 2))))


class TestInitialization:
    SIDE = 64
    T = SIDE * SIDE

    @given(
        st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_decay_in_unit_interval_and_long_scans_bounded(self, a_log, dtype, seed):
        d = len(a_log)
        rng = np.random.default_rng(seed)
        p = SsmParams(
            parameter(a_log, dtype=dtype),
            parameter(rng.normal(size=(d, 1)) / d, dtype=dtype),
            parameter(rng.normal(size=(1, d)), dtype=dtype),
        )
        lam = p.decay
        assert lam.dtype == dtype and np.all((lam >= 0) & (lam <= 1))
        # |h_t| <= sum_{i<T} lam^i <= min(T, 1 / (1 - lam)) for inputs bounded by 1,
        # up to the rounding of a T-term sum; the all-ones input reaches it
        with np.errstate(divide="ignore"):
            bound = np.minimum(self.T, 1.0 / (1.0 - lam.astype(np.float64)))
        for u in (np.ones((self.T, d)), rng.uniform(-1.0, 1.0, (self.T, d))):
            states = u.astype(dtype)
            _linear_scan(lam, states.reshape(self.SIDE, self.SIDE, d))
            assert np.all(np.isfinite(states))
            assert np.all(np.abs(states) <= bound * (1 + self.T * np.finfo(dtype).eps))
        # the whole expert, forward and backward, on a bounded sequence
        seq = rng.uniform(-1.0, 1.0, (self.T, 1))
        out, grads = scan_with_grads(p, seq.astype(dtype), np.ones_like(seq, dtype=dtype), self.SIDE)
        assert np.all(np.isfinite(out)) and all(np.all(np.isfinite(g)) for g in grads)

    def test_mixed_dtypes_rejected(self):
        f32, f64 = np.zeros(2, dtype=np.float32), np.zeros((2, 1))
        with pytest.raises(ShapeError):
            SsmParams(parameter(f32), parameter(f64), parameter(np.zeros((1, 2), dtype=np.float32)))

    def test_inconsistent_params_rejected(self):
        with pytest.raises(ShapeError):  # a dense transition matrix in place of the decay vector
            SsmParams(parameter(np.zeros((2, 2))), parameter(np.zeros((2, 1))), parameter(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            SsmParams(parameter(np.zeros(2)), parameter(np.zeros((2, 2))), parameter(np.zeros((1, 2))))
