"""Analytic parameter/FLOP accounting against constructed networks and the
runtime instrumentation counter."""

import numpy as np
import pytest

from mambamoe import tensor as tt
from mambamoe.data import HsiScene, SceneHeader, normalize_scene
from mambamoe.moe import mlp, route
from mambamoe.network import NetSpec, classify_head, forward_full, init_network_params, stage_sizes
from mambamoe.profiler import _conv_flops, _router_flops, count_flops, count_params, report_csv
from mambamoe.tensor import FLOPS, Tensor

# the published-scale configuration: a 103-band scene with 9 classes, at paper widths
PAPER_SCALE = NetSpec(bands=103, channels=48, state_dim=24, n_class=9)


def random_spec(rng):
    return NetSpec(
        bands=int(rng.integers(1, 20)),
        channels=2 * int(rng.integers(2, 16)),
        state_dim=int(rng.integers(1, 16)),
        n_class=int(rng.integers(2, 17)),
    )


class TestParams:
    def test_single_conv_arithmetic(self):
        # a 1x1 conv from 2 bands to C=4, then two 3x3 convs from 4 to 4
        spec = NetSpec(bands=2, channels=4, state_dim=2, n_class=2)
        _, by_module = count_params(spec)
        assert by_module["stem"] == (4 * 2 + 4) + 2 * (4 * 4 * 9 + 4)

    def test_ssm_param_arithmetic(self):
        # D=4, E=2: the decay vector 4, plus 4*2 + 2*4 = 20
        from mambamoe.profiler import _ssm_params

        assert _ssm_params(4, 2) == 20

    def test_analytic_equals_constructed_for_20_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = random_spec(rng)
            analytic, _ = count_params(spec)
            constructed = init_network_params(spec, np.random.default_rng(1)).param_count()
            assert analytic == constructed, spec

    def test_paper_scale_brackets_published_size(self):
        total, _ = count_params(PAPER_SCALE)
        assert 0.14e6 <= total <= 0.56e6


class TestFlops:
    def test_router_counts_its_analytic_term(self):
        # at a half-width of 12 the router's hidden width is 6
        spec = NetSpec(bands=3, channels=24, state_dim=4, n_class=3)
        router = init_network_params(spec, np.random.default_rng(8)).momeb[0].router
        x = Tensor(np.random.default_rng(9).normal(size=(12, 5, 7)).astype(np.float32))
        with FLOPS:
            route(router, x, 4)
        assert FLOPS.total == _router_flops(12, 5, 7)

    @pytest.mark.parametrize("h, w", [(5, 7), (16, 12)])
    def test_mlp_counts_its_analytic_term(self, h, w):
        # LN2 -> 1x1 conv C -> 2C -> ReLU -> 1x1 conv 2C -> C, one op: count_flops' ln and mlp terms
        spec = NetSpec(bands=3, channels=8, state_dim=4, n_class=3)
        block = init_network_params(spec, np.random.default_rng(12)).momeb[0]
        g = Tensor(np.random.default_rng(13).normal(size=(8, h, w)).astype(np.float32))
        with FLOPS:
            mlp(block, g)
        ln = h * w * (7 * 8 + 4)
        assert FLOPS.total == ln + _conv_flops(16, 8, 1, h, w) + 16 * h * w + _conv_flops(8, 16, 1, h, w)

    def test_topk_savings_equal_runtime_savings(self):
        # each unselected expert saves its scan and its share of the combine, exactly
        spec = NetSpec(bands=3, channels=8, state_dim=4, n_class=3)
        params = init_network_params(spec, np.random.default_rng(10))
        x = Tensor(np.random.default_rng(11).normal(size=(3, 16, 12)).astype(np.float32))
        _, per_k, _ = count_flops(spec, (3, 16, 12))
        runtime = {}
        for k in (1, 2, 3, 4):
            with FLOPS:
                forward_full(params, x, train=False, topk=k)
                runtime[k] = FLOPS.total
        for k in (1, 2, 3):
            assert per_k[4] - per_k[k] == runtime[4] - runtime[k]

    def test_topk4_equals_dense_and_monotone(self):
        dense, per_k, _ = count_flops(PAPER_SCALE, (103, 13, 13))
        assert per_k[4] == dense
        assert per_k[1] < per_k[2] < per_k[3] < per_k[4]

    def test_monotone_in_widths_and_extent(self):
        base = NetSpec(bands=8, channels=8, state_dim=4, n_class=4)
        d0, _, _ = count_flops(base, (8, 16, 16))
        for grown in (
            NetSpec(bands=8, channels=16, state_dim=4, n_class=4),
            NetSpec(bands=8, channels=8, state_dim=8, n_class=4),
        ):
            d1, _, _ = count_flops(grown, (8, 16, 16))
            assert d1 > d0
        d2, _, _ = count_flops(base, (8, 32, 32))
        assert d2 > d0

    def test_doubling_extent_scales_conv_and_scan(self):
        spec = NetSpec(bands=4, channels=8, state_dim=4, n_class=4)
        _, _, c1 = count_flops(spec, (4, 16, 16))
        _, _, c2 = count_flops(spec, (4, 32, 32))
        # convolution cost is quadratic in linear extent, scans double per axis
        assert c2["stem"] == 4 * c1["stem"]
        assert c2["spatial_experts"] == 4 * c1["spatial_experts"]

    def test_band_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_flops(PAPER_SCALE, (5, 13, 13))

    @pytest.mark.parametrize("height, width", [(4, 4), (-16, 16), (13, 7)])
    def test_scene_under_8x8_rejected(self, height, width):
        # the network's third stage would vanish; extract_features refuses it too
        with pytest.raises(tt.ShapeError, match="too small"):
            count_flops(PAPER_SCALE, (103, height, width))

    def test_head_counts_its_analytic_term(self):
        spec = NetSpec(bands=3, channels=8, state_dim=4, n_class=3)
        head = init_network_params(spec, np.random.default_rng(4)).head
        h1, w1 = stage_sizes(17, 14)[0]
        l1 = Tensor(np.random.default_rng(5).normal(size=(8, h1, w1)).astype(np.float32))
        with FLOPS:
            classify_head(head, l1, (17, 14))
        assert FLOPS.total == count_flops(spec, (3, 17, 14))[2]["head"]

    def test_stem_counts_its_analytic_term_per_stage(self):
        # each stage is one conv_relu_pool: the conv (1x1, then 3x3 twice),
        # c*h*w for the ReLU and 4*c*h2*w2 for the pool; 17x14 drops a row at
        # the first stage
        spec = NetSpec(bands=3, channels=8, state_dim=4, n_class=3)
        stem = init_network_params(spec, np.random.default_rng(6)).stem
        f = Tensor(np.random.default_rng(7).normal(size=(3, 17, 14)).astype(np.float32))
        sizes = stage_sizes(17, 14)
        total = 0
        for (w, b), (h, wd), (h2, w2) in zip(
            [(stem.conv1_w, stem.conv1_b), (stem.conv2_w, stem.conv2_b), (stem.conv3_w, stem.conv3_b)],
            [(17, 14)] + sizes[:2],
            sizes,
        ):
            with FLOPS:
                f = tt.conv_relu_pool(f, w, b)
            assert FLOPS.total == _conv_flops(8, w.shape[1], w.shape[2], h, wd) + 8 * h * wd + 4 * 8 * h2 * w2
            total += FLOPS.total
        assert total == count_flops(spec, (3, 17, 14))[2]["stem"]

    def test_instrumented_forward_within_5_percent(self):
        spec = NetSpec(bands=3, channels=8, state_dim=4, n_class=3)
        params = init_network_params(spec, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 4, size=(16, 16)).astype(np.uint16)
        cube = rng.normal(size=(3, 16, 16)).astype(np.float32)
        scene = HsiScene(SceneHeader(3, 16, 16, 3, ["a", "b", "c"], "t"), cube, labels)
        x = normalize_scene(scene)

        analytic_dense, analytic_topk, _ = count_flops(spec, (3, 16, 16))
        with FLOPS:
            forward_full(params, x, train=False, topk=None)
            measured_dense = FLOPS.total
        with FLOPS:
            forward_full(params, x, train=False, topk=2)
            measured_top2 = FLOPS.total
        assert abs(measured_dense - analytic_dense) / analytic_dense < 0.05
        assert abs(measured_top2 - analytic_topk[2]) / analytic_topk[2] < 0.05


class TestReport:
    def test_report_round_numbers(self):
        # one line per fact, each read from count_params / count_flops
        lines = report_csv(PAPER_SCALE, (103, 13, 13)).splitlines()
        assert lines[0] == "key,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert len(rows) == len(lines) - 1
        total, by_module = count_params(PAPER_SCALE)
        dense, per_k, comp = count_flops(PAPER_SCALE, (103, 13, 13))
        expected = {"input": "103x13x13", "params_total": str(total), "flops_dense": str(dense)}
        expected.update({f"params_{name}": str(v) for name, v in by_module.items()})
        expected.update({f"flops_topk{k}": str(v) for k, v in per_k.items()})
        expected.update({f"flops_{name}": str(v) for name, v in comp.items()})
        assert rows == expected
