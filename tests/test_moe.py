"""Router, sparse expert selection and the expert block."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe import moe
from mambamoe import tensor as tt
from mambamoe.moe import mlp, momeb_forward, route, sre_forward, sse_forward, topk_select
from mambamoe.network import NetSpec, init_network_params
from mambamoe.scan import SPATIAL_DIRECTIONS, _linear_scan, _tokens, spatial_expert_forward
from mambamoe.tensor import Tensor

F64 = np.float64


def make_network(channels=4, state=3, seed=0, dtype=F64):
    """A one-band network; ``seed`` may be a Generator."""
    spec = NetSpec(bands=1, channels=channels, state_dim=state, n_class=1)
    return init_network_params(spec, np.random.default_rng(seed), dtype=dtype)


def make_block(channels=4, state=3, seed=0, dtype=F64):
    """The first expert block of ``make_network``."""
    return make_network(channels, state, seed, dtype).momeb[0]


def ungated(expert, x, direction):
    """One spatial expert's map at a unit gate: its scan C h, with no skip term."""
    return spatial_expert_forward(expert, x, direction, Tensor(np.ones(1, dtype=x.dtype)), 0)


def response_grad(expert, x, direction):
    """The map G -> sum(G * C h) for the expert's ungated map C h, computed as
    the expert's backward rule computes it: the token gradient times C,
    dotted with the (T, D) states."""
    _, h, w = x.shape
    states = _tokens(x.data, direction) @ expert.b_bar.data.T
    _linear_scan(expert.decay, states.reshape(h, w, -1))
    return lambda g: np.vdot(_tokens(g, direction) @ expert.c_out.data, states)


def make_router(channels_half, rng):
    return make_block(channels=2 * channels_half, state=1, seed=rng).router


def zero_router(channels_half):
    r = make_router(channels_half, 0)
    for t in (r.w1, r.b1, r.w2, r.b2):
        t.data[...] = 0.0
    return r


class TestRoute:
    def test_zero_router_uniform(self):
        router = zero_router(2)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 3)))
        for shift in (0.0, 123.456):  # equal logits at any offset
            router.b2.data[...] = shift
            np.testing.assert_allclose(route(router, x, 4)[1].data, 0.25)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e4]))
    @settings(max_examples=30, deadline=None)
    def test_weights_positive_sum_to_one(self, seed, spread):
        rng = np.random.default_rng(seed)
        router = make_router(4, rng)
        x = Tensor(rng.normal(size=(4, 2, 5)))
        if spread:  # logits up to 2e4 apart: the smallest weights underflow to 0
            router.b2.data[...] = rng.uniform(-spread, spread, size=4)
        w = route(router, x, 4)[1].data
        assert w.min() > 0 or (spread and w.min() == 0)
        assert abs(w.sum() - 1.0) < 1e-6

    def test_hand_computed_pool_mlp_softmax(self):
        rng = np.random.default_rng(2)
        router = make_router(2, rng)
        x = rng.normal(size=(2, 2, 2))
        w = route(router, Tensor(x), 4)[1].data

        pooled = x.mean(axis=(1, 2))
        hidden = np.maximum(router.w1.data @ pooled + router.b1.data, 0.0)
        logits = router.w2.data @ hidden + router.b2.data
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(w, e / e.sum(), atol=1e-6)

    @pytest.mark.parametrize("name, value, what", [("w1", -3e38, "pre-activation"), ("b2", -np.inf, "logits")])
    def test_non_finite_layer_raises_though_the_weights_would_be_finite(self, name, value, what):
        # the ReLU maps a -inf pre-activation to 0, the softmax a -inf logit to weight 0
        router = make_block(channels=4, state=1, dtype=np.float32).router
        getattr(router, name).data[0] = value
        x = Tensor(np.ones((2, 3, 3), dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(tt.NumericalError, match=f"^route: non-finite values in the {what}$"):
            route(router, x, 4)

    def test_width_and_dtype_mismatch_rejected(self):
        router = make_router(2, 0)
        with pytest.raises(tt.ShapeError, match="router width"):
            route(router, Tensor(np.ones((3, 2, 2))), 4)
        with pytest.raises(tt.ShapeError, match="dtype"):
            route(router, Tensor(np.ones((2, 2, 2), dtype=np.float32)), 4)

    def test_expert_ids_carry_directions(self):
        assert [d.name for d in SPATIAL_DIRECTIONS] == ["TL_BR", "BR_TL", "TR_BL", "BL_TR"]
        assert [d.orientation for d in SPATIAL_DIRECTIONS] == ["horizontal", "horizontal", "vertical", "vertical"]


class TestTopkSelect:
    def test_selects_largest(self):
        assert topk_select(np.array([0.1, 0.6, 0.2, 0.1]), 1) == [1]
        assert topk_select(np.array([0.1, 0.6, 0.2, 0.1]), 2) == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        assert topk_select(np.array([0.25, 0.25, 0.25, 0.25]), 2) == [0, 1]
        assert topk_select(np.array([0.2, 0.3, 0.3, 0.2]), 1) == [1]

    def test_k_range(self):
        with pytest.raises(ValueError):
            topk_select(np.ones(4), 0)
        with pytest.raises(ValueError):
            topk_select(np.ones(4), 5)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_argsort_oracle(self, seed, k):
        w = np.random.default_rng(seed).random(4)
        sel = topk_select(w, k)
        oracle = sorted(sorted(range(4), key=lambda j: (-w[j], j))[:k])
        assert sel == oracle


def former_mix(weights, outputs, selected, x_spa, response_grads):
    """The ungated expert maps C h and the skip term combined as one op, in
    ``selected`` order: the weights renormalized below k = 4, y_0 w_0 then
    + y_j w_j, then + x_spa; the router gradient of map j is
    ``response_grads[j](g)``."""
    ys = [y.data for y in outputs]
    p = weights.data
    w = p[selected]
    total = sum(w[1:], w[0])
    dense = len(selected) == 4
    if not dense:
        w = w / total
    acc = ys[0] * w[0]
    for y, w_j in zip(ys[1:], w[1:]):
        acc = acc + y * w_j
    acc = acc + x_spa.data

    def bwd(g):
        dw = np.array([grad(g) for grad in response_grads])
        dp = np.zeros_like(p)
        dp[selected] = dw if dense else (dw - sum(w * dw)) / total
        return (dp, *(g * w_j for w_j in w), g)

    return tt.custom_op("former_mix", (weights, *outputs, x_spa), acc, bwd)


def former_sre(experts, router, x_spa, k):
    weights = route(router, x_spa, 4)[1]
    selected = topk_select(weights.data, k)
    maps = [ungated(experts[j], x_spa, SPATIAL_DIRECTIONS[j]) for j in selected]
    grads = [response_grad(experts[j], x_spa, SPATIAL_DIRECTIONS[j]) for j in selected]
    return former_mix(weights, maps, selected, x_spa, grads)


class TestSreForward:
    def make(self, seed=3):
        rng = np.random.default_rng(seed)
        experts = make_block(channels=4, state=3, seed=rng).spatial
        router = make_router(2, rng)
        x = Tensor(rng.normal(size=(2, 4, 4)))
        return experts, router, x

    def test_identical_experts_collapse_to_shared_output(self):
        rng = np.random.default_rng(4)
        one = make_block(channels=4, state=3, seed=rng).spatial[0]
        one.a_log.data[...] = 50.0  # lam = 0, memoryless: every direction gives the same map
        experts = (one, one, one, one)
        router = make_router(2, rng)
        x = Tensor(rng.normal(size=(2, 3, 3)))

        single = ungated(one, x, SPATIAL_DIRECTIONS[0]).data + x.data
        for k in (1, 2, 3, 4):
            out = sre_forward(experts, router, x, k)
            np.testing.assert_allclose(out.data, single, atol=1e-6)

    def test_topk1_equals_argmax_expert_alone(self):
        experts, router, x = self.make(seed=5)
        w = route(router, x, 4)[1].data
        best = int(np.argmax(w))

        alone = ungated(experts[best], x, SPATIAL_DIRECTIONS[best]).data + x.data
        out = sre_forward(experts, router, x, 1).data
        assert out.tobytes() == alone.tobytes()

    def test_topk_renormalization_against_hand_oracle(self):
        experts, router, x = self.make(seed=6)
        w = route(router, x, 4)[1].data
        sel = topk_select(w, 2)

        outs = {j: ungated(experts[j], x, SPATIAL_DIRECTIONS[j]).data for j in sel}
        total = sum(w[j] for j in sel)
        ref = sum((w[j] / total) * outs[j] for j in sel) + x.data
        np.testing.assert_allclose(sre_forward(experts, router, x, 2).data, ref, atol=1e-7)

    def test_eval_counter_counts_k_per_call(self, monkeypatch):
        experts, router, x = self.make(seed=7)
        calls = []
        real = moe.spatial_expert_forward

        def counted(expert, x_spa, direction, *gate):
            calls.append(direction.name)
            return real(expert, x_spa, direction, *gate)

        monkeypatch.setattr(moe, "spatial_expert_forward", counted)
        w = route(router, x, 4)[1].data
        for k in (1, 2, 3, 4):
            calls.clear()
            sre_forward(experts, router, x, k)
            assert calls == [SPATIAL_DIRECTIONS[j].name for j in topk_select(w, k)]

    def test_one_add_op_per_call(self):
        experts, router, x = self.make(seed=9)
        for k in (1, 2, 3, 4):
            with tt.Tape() as tape:
                sre_forward(experts, router, x, k)
            assert [op.name for op in tape.ops] == ["route"] + ["spatial_expert_forward"] * k + ["add"]

    def test_runtime_flops_are_router_scans_and_add(self):
        # each of the k experts scales its map by its gate and one add sums
        # the k - 1 other maps and the skip term: 2k operations per map
        # element beyond the router and scans
        experts, router, x = self.make(seed=10)
        e, h, w = x.shape
        d = experts[0].state_dim
        scan_flops = h * w * (2 * d + 4 * d * e)
        with tt.FLOPS:
            route(router, x, 4)
            router_flops = tt.FLOPS.total
        for k in (1, 2, 3, 4):
            with tt.FLOPS:
                sre_forward(experts, router, x, k)
                assert tt.FLOPS.total == router_flops + k * scan_flops + 2 * k * e * h * w

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_output_and_every_gradient_equal_the_former_mix_bit_for_bit(self, k, dtype):
        rng = np.random.default_rng(30 + k)
        block = make_block(channels=6, state=3, seed=rng, dtype=dtype)
        x = rng.normal(size=(3, 5, 6)).astype(dtype)
        probe = Tensor(rng.normal(size=x.shape).astype(dtype))
        params = [block.router.w1, block.router.b1, block.router.w2, block.router.b2]
        params += [t for expert in block.spatial for t in (expert.a_log, expert.b_bar, expert.c_out)]

        def run(fn):
            for t in params:
                t.zero_grad()
            xp = tt.parameter(x)
            with tt.Tape() as tape:
                out = fn(block.spatial, block.router, xp, k)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            return [out.data] + [t.grad.copy() for t in params] + [xp.grad]

        got, want = run(sre_forward), run(former_sre)
        assert got[0].dtype == dtype
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_zero_output_projections_pass_the_view_through_and_train_no_router(self, dtype):
        # every expert's scan is 0, so the block is its skip term alone, bit
        # for bit, whatever the gates; and no gate gradient reaches the router
        rng = np.random.default_rng(40)
        block = make_block(channels=6, state=3, seed=rng, dtype=dtype)
        for expert in block.spatial:
            expert.c_out.data[...] = 0.0
        router = block.router
        x = tt.parameter(rng.normal(size=(3, 5, 6)).astype(dtype))
        probe = Tensor(rng.normal(size=x.shape).astype(dtype))
        for k in (1, 2, 3, 4):
            for t in (router.w1, router.b1, router.w2, router.b2):
                t.zero_grad()
            with tt.Tape() as tape:
                out = sre_forward(block.spatial, router, x, k)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            assert np.array_equal(out.data, x.data)
            for t in (router.w1, router.b1, router.w2, router.b2):
                assert not t.grad.any()

    def test_unselected_experts_not_evaluated(self):
        experts, router, x = self.make(seed=8)
        w = route(router, x, 4)[1].data
        (excluded,) = set(range(4)) - set(topk_select(w, 3))
        experts[excluded].a_log.data[...] = np.nan  # would raise if touched
        sre_forward(experts, router, x, 3)


class TestMomebCore:
    """The split/expert/concat/fuse core of ``momeb_forward``, seen through
    a block whose MLP branch adds exactly zero."""

    def core_block(self, seed, channels=4):
        block = make_block(channels=channels, state=2, seed=seed)
        block.mlp_w2.data[...] = 0.0
        block.mlp_b2.data[...] = 0.0
        return block

    def test_split_halves_and_concat_order(self):
        block = self.core_block(seed=10, channels=8)
        # zero SSMs and identity fuse: the spatial half is the block's skip
        # term alone, and the spectral half doubles (each direction's skip)
        for expert in block.spatial:
            for t in (expert.a_log, expert.b_bar, expert.c_out):
                t.data[...] = 0.0
        for expert in (block.spectral_fwd, block.spectral_bwd):
            for t in (expert.a_log, expert.b_bar, expert.c_out):
                t.data[...] = 0.0
        block.fuse_w.data[...] = np.eye(8).reshape(8, 8, 1, 1)
        block.fuse_b.data[...] = 0.0
        f = Tensor(np.random.default_rng(11).normal(size=(8, 3, 3)))
        delta = momeb_forward(block, f, 4).data - f.data
        x_norm = tt.layer_norm(f, block.ln1_gamma, block.ln1_beta).data
        np.testing.assert_allclose(delta[:4], x_norm[:4], atol=1e-6)
        np.testing.assert_allclose(delta[4:], 2.0 * x_norm[4:], atol=1e-6)

    def test_odd_channels_rejected(self):
        block = make_block(channels=4, state=2)
        # an odd width that LN1 accepts, so only the split can reject it
        block.ln1_gamma, block.ln1_beta = Tensor(np.ones(5)), Tensor(np.zeros(5))
        with pytest.raises(tt.ShapeError, match="split"):
            momeb_forward(block, Tensor(np.ones((5, 2, 2), dtype=np.float64)), 4)

    def test_matches_hand_composed_pipeline(self):
        block = self.core_block(seed=12)
        f = Tensor(np.random.default_rng(13).normal(size=(4, 3, 3)))
        out = momeb_forward(block, f, 4).data

        x_norm = tt.layer_norm(f, block.ln1_gamma, block.ln1_beta).data
        x_spa, x_spe = Tensor(x_norm[:2].copy()), Tensor(x_norm[2:].copy())
        w = route(block.router, x_spa, 4)[1].data
        spa = sum(w[j] * ungated(block.spatial[j], x_spa, SPATIAL_DIRECTIONS[j]).data for j in range(4)) + x_spa.data
        spe = sse_forward(block.spectral_fwd, block.spectral_bwd, x_spe).data
        stacked = Tensor(np.concatenate([spa, spe], axis=0))
        ref = f.data + tt.conv2d(stacked, block.fuse_w, block.fuse_b).data
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_ablation_passthrough(self):
        block = self.core_block(seed=14)
        f = Tensor(np.random.default_rng(15).normal(size=(4, 3, 3)))
        out = momeb_forward(block, f, 4, sre_on=False, sse_on=False).data
        x_norm = tt.layer_norm(f, block.ln1_gamma, block.ln1_beta)
        ref = f.data + tt.conv2d(x_norm, block.fuse_w, block.fuse_b).data
        np.testing.assert_allclose(out, ref, atol=1e-12)


def composed_mlp(block, g):
    """The block's tail on primitives: LN2, the 1x1 conv C -> 2C, ReLU, the 1x1 conv 2C -> C."""
    normed = tt.layer_norm(g, block.ln2_gamma, block.ln2_beta)
    return tt.conv2d(tt.relu(tt.conv2d(normed, block.mlp_w1, block.mlp_b1)), block.mlp_w2, block.mlp_b2)


class TestMlp:
    """``moe.mlp``, the block's LN2 -> MLP tail as one tape op."""

    def tail_block(self, seed, dtype=F64, channels=6):
        # random LN2 affine and MLP biases, so that every gradient is nonzero
        rng = np.random.default_rng(seed)
        block = make_block(channels=channels, state=2, seed=rng, dtype=dtype)
        block.ln2_gamma.data[...] = 1.0 + 0.3 * rng.normal(size=channels)
        for t in (block.ln2_beta, block.mlp_b1, block.mlp_b2):
            t.data[...] = rng.normal(size=t.shape)
        return block

    @pytest.mark.parametrize("shape", [(6, 5, 7), (6, 16, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_output_and_every_gradient_equal_the_composed_chain_bit_for_bit(self, dtype, shape):
        # inside the block's residual, so the tape sums the map's two gradients as it does in a block
        block = self.tail_block(40, dtype)
        rng = np.random.default_rng(41)
        x = rng.normal(size=shape).astype(dtype)
        probe = Tensor(rng.normal(size=shape).astype(dtype))
        params = [block.ln2_gamma, block.ln2_beta, block.mlp_w1, block.mlp_b1, block.mlp_w2, block.mlp_b2]

        def run(tail):
            for t in params:
                t.zero_grad()
            xp = tt.parameter(x)
            with tt.Tape() as tape:
                g = tt.scale(xp, 1.5)
                m = tail(block, g)
                tape.backward(tt.sum_all(tt.mul(tt.add(g, m), probe)))
            return [m.data, xp.grad] + [t.grad.copy() for t in params]

        got, want = run(mlp), run(composed_mlp)
        assert got[0].dtype == dtype
        assert all(np.any(a != 0) for a in got)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_a_hidden_pre_activation_overflowing_to_minus_inf_raises(self):
        # LN2 outputs 1 everywhere (gamma 0, beta 1), so hidden unit 0 sums six
        # times -1e38 past float32's range; its ReLU would output 0, and so
        # would every later value that it feeds
        block = self.tail_block(42, np.float32)
        block.ln2_gamma.data[...] = 0.0
        block.ln2_beta.data[...] = 1.0
        block.mlp_w1.data[0] = -1e38
        block.mlp_b1.data[0] = 0.0
        g = Tensor(np.random.default_rng(43).normal(size=(6, 4, 4)).astype(np.float32))
        with np.errstate(over="ignore"):
            pre = block.mlp_w1.data[0, :, 0, 0].sum()
            assert pre == -np.inf and np.maximum(pre, 0) == 0
            with pytest.raises(tt.NumericalError, match="^mlp: non-finite values in the hidden pre-activation$"):
                mlp(block, g)

    def test_parameters_that_do_not_fit_the_map_rejected(self):
        block = self.tail_block(44)
        g = Tensor(np.ones((6, 2, 2)))
        block.mlp_b2 = tt.parameter(np.zeros(5))
        with pytest.raises(tt.ShapeError, match="mlp"):
            mlp(block, g)
        block = self.tail_block(44, np.float32)
        with pytest.raises(tt.ShapeError, match="mlp"):
            mlp(block, g)

    def test_block_records_the_tail_as_one_op(self):
        block = self.tail_block(47)
        x = tt.parameter(np.random.default_rng(48).normal(size=(6, 4, 4)))
        with tt.Tape() as tape:
            momeb_forward(block, x, 4)
        names = [op.name for op in tape.ops]
        assert names[-3:] == ["add", "mlp", "add"]
        assert names.count("layer_norm") == 1 and "relu" not in names and "conv2d" in names


class TestMomebForward:
    def test_zero_branches_pure_residual(self):
        block = make_block(channels=4, state=2, seed=16)
        block.fuse_w.data[...] = 0.0
        block.fuse_b.data[...] = 0.0
        block.mlp_w2.data[...] = 0.0
        block.mlp_b2.data[...] = 0.0
        x = np.random.default_rng(17).normal(size=(4, 4, 4))
        out = momeb_forward(block, Tensor(x), 4).data
        np.testing.assert_array_equal(out, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_shape_contract(self, seed):
        rng = np.random.default_rng(seed)
        c = 2 * int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        block = make_block(channels=c, state=2, seed=rng)
        out = momeb_forward(block, Tensor(rng.normal(size=(c, h, w))), int(rng.integers(1, 5)))
        assert out.shape == (c, h, w)

    @pytest.mark.parametrize("k", [2, 4])
    def test_no_op_keeps_an_expert_map(self, k, monkeypatch):
        # the router gradient reads each expert's states, not its map: once
        # the block has returned, no map is alive
        block = make_block(channels=4, state=3, seed=20)
        x = tt.parameter(np.random.default_rng(21).normal(size=(4, 5, 5)))
        maps = []
        real = moe.spatial_expert_forward

        def recorded(*args):
            out = real(*args)
            maps.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(moe, "spatial_expert_forward", recorded)
        with tt.Tape() as tape:
            out = momeb_forward(block, x, k)
            gc.collect()
            assert len(maps) == k
            assert all(ref() is None for ref in maps)
            tape.backward(tt.sum_all(out))
        assert np.all(np.isfinite(x.grad))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tape_records_one_route_and_one_add_of_the_expert_maps(self, k):
        block = make_block(channels=4, state=3, seed=22)
        x = tt.parameter(np.random.default_rng(23).normal(size=(4, 5, 5)))
        with tt.Tape() as tape:
            momeb_forward(block, x, k)
        assert [op.name for op in tape.ops] == (
            ["layer_norm", "narrow", "narrow", "route"]
            + ["spatial_expert_forward"] * k
            + ["add", "spectral_bidirectional", "concat", "conv2d", "add", "mlp", "add"]
        )

    def test_matches_composed_oracle(self):
        # the whole block at k = 2, on primitives: the gradients are gradcheck_suite's "momeb" entry
        block = make_block(channels=4, state=3, seed=18)
        x = Tensor(np.random.default_rng(19).normal(size=(4, 4, 4)))
        out = momeb_forward(block, x, 2).data

        x_norm = tt.layer_norm(x, block.ln1_gamma, block.ln1_beta).data
        x_spa, x_spe = Tensor(x_norm[:2].copy()), Tensor(x_norm[2:].copy())
        w = route(block.router, x_spa, 4)[1].data
        sel = topk_select(w, 2)
        outs = {j: ungated(block.spatial[j], x_spa, SPATIAL_DIRECTIONS[j]).data for j in sel}
        spa = sum(w[j] / (w[sel[0]] + w[sel[1]]) * outs[j] for j in sel) + x_spa.data
        spe = sse_forward(block.spectral_fwd, block.spectral_bwd, x_spe).data
        f_hat = tt.conv2d(Tensor(np.concatenate([spa, spe], axis=0)), block.fuse_w, block.fuse_b)
        g = tt.add(x, f_hat)
        g_norm = tt.layer_norm(g, block.ln2_gamma, block.ln2_beta)
        m = tt.conv2d(tt.relu(tt.conv2d(g_norm, block.mlp_w1, block.mlp_b1)), block.mlp_w2, block.mlp_b2)
        np.testing.assert_allclose(out, tt.add(g, m).data, atol=1e-6)
