"""Router, sparse expert selection, DSSEM and the block wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe import moe
from mambamoe import tensor as tt
from mambamoe.moe import (
    HORIZONTAL_EXPERTS,
    VERTICAL_EXPERTS,
    MoMebParams,
    dssem_forward,
    momeb_forward,
    route,
    sre_forward,
    topk_select,
)
from mambamoe.network import NetSpec, init_network_params
from mambamoe.scan import SPATIAL_DIRECTIONS, spatial_expert_forward
from mambamoe.tensor import Tensor, grad_check, parameter

F64 = np.float64


def make_network(channels=4, state=3, seed=0, dtype=F64):
    """A one-band network; ``seed`` may be a Generator."""
    spec = NetSpec(bands=1, channels=channels, state_dim=state, n_class=1)
    return init_network_params(spec, np.random.default_rng(seed), dtype=dtype)


def make_block(channels=4, state=3, seed=0, dtype=F64):
    """The first expert block of ``make_network``."""
    return make_network(channels, state, seed, dtype).momeb[0]


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
            np.testing.assert_allclose(route(router, x).data, 0.25)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e4]))
    @settings(max_examples=30, deadline=None)
    def test_weights_positive_sum_to_one(self, seed, spread):
        rng = np.random.default_rng(seed)
        router = make_router(4, rng)
        x = Tensor(rng.normal(size=(4, 2, 5)))
        if spread:  # logits up to 2e4 apart: the smallest weights underflow to 0
            router.b2.data[...] = rng.uniform(-spread, spread, size=4)
        w = route(router, x).data
        assert w.min() > 0 or (spread and w.min() == 0)
        assert abs(w.sum() - 1.0) < 1e-6

    def test_hand_computed_pool_mlp_softmax(self):
        rng = np.random.default_rng(2)
        router = make_router(2, rng)
        x = rng.normal(size=(2, 2, 2))
        w = route(router, Tensor(x)).data

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
            route(router, x)

    def test_width_and_dtype_mismatch_rejected(self):
        router = make_router(2, 0)
        with pytest.raises(tt.ShapeError, match="router width"):
            route(router, Tensor(np.ones((3, 2, 2))))
        with pytest.raises(tt.ShapeError, match="dtype"):
            route(router, Tensor(np.ones((2, 2, 2), dtype=np.float32)))

    def test_expert_ids_carry_directions(self):
        assert [d.name for d in SPATIAL_DIRECTIONS] == ["TL_BR", "BR_TL", "TR_BL", "BL_TR"]
        assert [d.orientation for d in SPATIAL_DIRECTIONS] == ["horizontal", "horizontal", "vertical", "vertical"]
        assert VERTICAL_EXPERTS == (2, 3) and HORIZONTAL_EXPERTS == (0, 1)


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

        single = spatial_expert_forward(one, x, SPATIAL_DIRECTIONS[0]).data
        for topk in (None, 1, 2, 3, 4):
            out = sre_forward(experts, router, x, topk=topk)
            np.testing.assert_allclose(out.data, single, atol=1e-6)

    def test_topk4_bitwise_equals_dense(self):
        experts, router, x = self.make()
        with tt.Tape() as dense_tape:
            dense = sre_forward(experts, router, x, topk=None)
        with tt.Tape() as top4_tape:
            top4 = sre_forward(experts, router, x, topk=4)
        assert dense.data.tobytes() == top4.data.tobytes()
        # no renormalization at k=4: the tape records the dense ops, in the dense order
        assert [op.name for op in top4_tape.ops] == [op.name for op in dense_tape.ops]

    def test_topk1_equals_argmax_expert_alone(self):
        experts, router, x = self.make(seed=5)
        w = route(router, x).data
        best = int(np.argmax(w))

        alone = spatial_expert_forward(experts[best], x, SPATIAL_DIRECTIONS[best]).data
        out = sre_forward(experts, router, x, topk=1).data
        assert out.tobytes() == alone.tobytes()

    def test_topk_renormalization_against_hand_oracle(self):
        experts, router, x = self.make(seed=6)
        w = route(router, x).data
        sel = topk_select(w, 2)

        outs = {j: spatial_expert_forward(experts[j], x, SPATIAL_DIRECTIONS[j]).data for j in sel}
        total = sum(w[j] for j in sel)
        ref = sum((w[j] / total) * outs[j] for j in sel)
        np.testing.assert_allclose(sre_forward(experts, router, x, topk=2).data, ref, atol=1e-7)

    def test_eval_counter_counts_k_per_call(self, monkeypatch):
        experts, router, x = self.make(seed=7)
        calls = []
        real = moe.spatial_expert_forward

        def counted(expert, x_spa, direction):
            calls.append(direction.name)
            return real(expert, x_spa, direction)

        monkeypatch.setattr(moe, "spatial_expert_forward", counted)
        w = route(router, x).data
        for k in (1, 2, 3, 4, None):
            calls.clear()
            sre_forward(experts, router, x, topk=k)
            assert calls == [SPATIAL_DIRECTIONS[j].name for j in topk_select(w, k or 4)]

    def test_one_mix_op_per_call(self):
        experts, router, x = self.make(seed=9)
        for k in (1, 2, 3, 4):
            with tt.Tape() as tape:
                sre_forward(experts, router, x, topk=k)
            assert [op.name for op in tape.ops] == ["route"] + ["spatial_expert_forward"] * k + ["mix"]

    def test_runtime_flops_are_router_scans_and_mix(self):
        experts, router, x = self.make(seed=10)
        e, h, w = x.shape
        with tt.FLOPS:
            route(router, x)
            router_flops = tt.FLOPS.total
        with tt.FLOPS:
            spatial_expert_forward(experts[0], x, SPATIAL_DIRECTIONS[0])
            scan_flops = tt.FLOPS.total
        for k in (1, 2, 3, 4):
            with tt.FLOPS:
                sre_forward(experts, router, x, topk=k)
                assert tt.FLOPS.total == router_flops + k * scan_flops + (2 * k - 1) * e * h * w

    def test_unselected_experts_not_evaluated(self):
        experts, router, x = self.make(seed=8)
        w = route(router, x).data
        (excluded,) = set(range(4)) - set(topk_select(w, 3))
        experts[excluded].a_log.data[...] = np.nan  # would raise if touched
        sre_forward(experts, router, x, topk=3)


class TestDssem:
    def test_split_halves_and_concat_order(self):
        block = make_block(channels=8, state=2, seed=10)
        # zero SSMs and identity fuse: spatial half passes through, spectral half doubles
        for expert in block.spatial:
            for t in (expert.a_log, expert.b_bar, expert.c_out):
                t.data[...] = 0.0
        for expert in (block.spectral_fwd, block.spectral_bwd):
            for t in (expert.a_log, expert.b_bar, expert.c_out):
                t.data[...] = 0.0
        block.fuse_w.data[...] = np.eye(8).reshape(8, 8, 1, 1)
        block.fuse_b.data[...] = 0.0
        x = Tensor(np.random.default_rng(11).normal(size=(8, 3, 3)))
        out = dssem_forward(block, x).data
        np.testing.assert_allclose(out[:4], x.data[:4], atol=1e-6)
        np.testing.assert_allclose(out[4:], 2.0 * x.data[4:], atol=1e-6)

    def test_odd_channels_rejected(self):
        block = make_block(channels=4, state=2)
        with pytest.raises(tt.ShapeError):
            dssem_forward(block, Tensor(np.ones((5, 2, 2), dtype=np.float64)))

    def test_matches_hand_composed_pipeline(self):
        block = make_block(channels=4, state=2, seed=12)
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 3, 3)))
        out = dssem_forward(block, x).data

        from mambamoe.moe import sse_forward

        x_spa, x_spe = Tensor(x.data[:2].copy()), Tensor(x.data[2:].copy())
        w = route(block.router, x_spa).data
        spa = sum(
            w[j] * spatial_expert_forward(block.spatial[j], x_spa, SPATIAL_DIRECTIONS[j]).data for j in range(4)
        )
        spe = sse_forward(block.spectral_fwd, block.spectral_bwd, x_spe).data
        stacked = Tensor(np.concatenate([spa, spe], axis=0))
        ref = tt.conv2d(stacked, block.fuse_w, block.fuse_b).data
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_ablation_passthrough(self):
        block = make_block(channels=4, state=2, seed=14)
        x = Tensor(np.random.default_rng(15).normal(size=(4, 3, 3)))
        out = dssem_forward(block, x, sre_on=False, sse_on=False).data
        ref = tt.conv2d(Tensor(x.data.copy()), block.fuse_w, block.fuse_b).data
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestMomebForward:
    def test_zero_branches_pure_residual(self):
        block = make_block(channels=4, state=2, seed=16)
        block.fuse_w.data[...] = 0.0
        block.fuse_b.data[...] = 0.0
        block.mlp_w2.data[...] = 0.0
        block.mlp_b2.data[...] = 0.0
        x = np.random.default_rng(17).normal(size=(4, 4, 4))
        out = momeb_forward(block, Tensor(x)).data
        np.testing.assert_array_equal(out, x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_shape_contract(self, seed):
        rng = np.random.default_rng(seed)
        c = 2 * int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        block = make_block(channels=c, state=2, seed=rng)
        out = momeb_forward(block, Tensor(rng.normal(size=(c, h, w))))
        assert out.shape == (c, h, w)

    def test_matches_composed_oracle_and_gradient(self):
        net = make_network(channels=4, state=3, seed=18)
        block = net.momeb[0]
        rng = np.random.default_rng(19)
        x = parameter(rng.normal(size=(4, 4, 4)))
        out = momeb_forward(block, x).data

        x_norm = tt.layer_norm(x, block.ln1_gamma, block.ln1_beta)
        f_hat = dssem_forward(block, x_norm)
        g = tt.add(x, f_hat)
        g_norm = tt.layer_norm(g, block.ln2_gamma, block.ln2_beta)
        m = tt.conv2d(tt.relu(tt.conv2d(g_norm, block.mlp_w1, block.mlp_b1)), block.mlp_w2, block.mlp_b2)
        ref = tt.add(g, m).data
        np.testing.assert_allclose(out, ref, atol=1e-6)

        probe = Tensor(rng.normal(size=(4, 4, 4)))
        tensors = [t for name, t in net.named_params() if name.startswith("momeb1.")]
        rep = grad_check(lambda: tt.sum_all(tt.mul(momeb_forward(block, x), probe)), tensors + [x])
        assert rep.max_rel_err < 1e-4, rep.per_param
