"""Encoder/decoder assembly, uncertainty sampling, loss, checkpoints."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mambamoe import tensor as tt
from mambamoe.network import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    HeadParams,
    NetSpec,
    NetworkParams,
    ResBlockParams,
    StageOutput,
    _build_network_params,
    classify_head,
    extract_features,
    ffb,
    forward_full,
    init_network_params,
    load_checkpoint,
    residual_block,
    save_checkpoint,
    stage_sizes,
    total_loss,
    uarb,
    uncertainty_map,
)
from mambamoe.tensor import ShapeError, Tape, Tensor, parameter

F64 = np.float64


def tiny_spec(bands=2, channels=4, state=3, classes=2):
    return NetSpec(bands=bands, channels=channels, state_dim=state, n_class=classes)


def tiny_params(seed=0, dtype=F64, **kw):
    return init_network_params(tiny_spec(**kw), np.random.default_rng(seed), dtype=dtype)


@pytest.mark.parametrize("channels", [0, -2, 3])
def test_spec_refuses_a_channel_width_that_is_not_even_and_at_least_2(channels):
    with pytest.raises(ShapeError, match="channel width"):
        tiny_spec(channels=channels)


class TestEncoder:
    def test_stage_extent_arithmetic(self):
        assert stage_sizes(32, 32) == [(16, 16), (8, 8), (4, 4)]

    def test_pavia_shaped_extents(self):
        # 610x340 halves to (305,170), (152,85), (76,42) by floor division
        assert stage_sizes(610, 340) == [(305, 170), (152, 85), (76, 42)]

    def test_scene_too_small(self):
        params = tiny_params()
        with pytest.raises(ShapeError):
            extract_features(params.stem, Tensor(np.ones((2, 6, 12))))

    def test_zero_stem_gives_constant_relu_bias(self):
        params = tiny_params(seed=1)
        params.stem.conv1_w.data[...] = 0.0
        params.stem.conv1_b.data[...] = np.array([1.5, -2.0, 0.0, 3.0])
        x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 8)))
        f1 = extract_features(params.stem, x)[0]
        for c, v in enumerate([1.5, 0.0, 0.0, 3.0]):
            np.testing.assert_allclose(f1.data[c], v, atol=1e-12)

    def test_shapes_per_stage(self):
        params = tiny_params(seed=3)
        feats = extract_features(params.stem, Tensor(np.random.default_rng(4).normal(size=(2, 32, 32))))
        assert [f.shape for f in feats] == [(4, 16, 16), (4, 8, 8), (4, 4, 4)]


class TestResidualAndFfb:
    def test_zero_convs_identity(self):
        p = ResBlockParams(
            parameter(np.zeros((3, 3, 3, 3))), parameter(np.zeros(3)),
            parameter(np.zeros((3, 3, 3, 3))), parameter(np.zeros(3)),
        )
        x = np.random.default_rng(5).normal(size=(3, 4, 4))
        out = residual_block(p, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_outer_conv_kills_branch(self):
        rng = np.random.default_rng(6)
        p = ResBlockParams(
            parameter(rng.normal(size=(3, 3, 3, 3))), parameter(rng.normal(size=3)),
            parameter(np.zeros((3, 3, 3, 3))), parameter(np.zeros(3)),
        )
        x = -np.abs(rng.normal(size=(3, 4, 4)))
        out = residual_block(p, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_residual_matches_composed_oracle(self):
        rng = np.random.default_rng(7)
        p = ResBlockParams(
            parameter(rng.normal(size=(2, 2, 3, 3))), parameter(rng.normal(size=2)),
            parameter(rng.normal(size=(2, 2, 3, 3))), parameter(rng.normal(size=2)),
        )
        x = Tensor(rng.normal(size=(2, 4, 4)))
        ref = tt.add(
            x, tt.conv2d(tt.relu(tt.conv2d(tt.relu(x), p.conv1_w, p.conv1_b)), p.conv2_w, p.conv2_b)
        ).data
        np.testing.assert_allclose(residual_block(p, x).data, ref, atol=1e-12)

    def test_ffb_deepest_stage(self):
        p = ResBlockParams(
            parameter(np.zeros((2, 2, 3, 3))), parameter(np.zeros(2)),
            parameter(np.zeros((2, 2, 3, 3))), parameter(np.zeros(2)),
        )
        m3 = Tensor(np.random.default_rng(8).normal(size=(2, 3, 3)))
        np.testing.assert_array_equal(ffb(p, m3).data, m3.data)

    def test_ffb_constant_deeper_stage(self):
        p = ResBlockParams(
            parameter(np.zeros((2, 2, 3, 3))), parameter(np.zeros(2)),
            parameter(np.zeros((2, 2, 3, 3))), parameter(np.zeros(2)),
        )
        rng = np.random.default_rng(9)
        m2 = Tensor(rng.normal(size=(2, 6, 6)))
        l3 = Tensor(np.full((2, 3, 3), 4.0))
        out = ffb(p, m2, l3).data
        np.testing.assert_allclose(out, m2.data + 4.0, atol=1e-6)

    def test_ffb_random_pair_matches_oracle(self):
        rng = np.random.default_rng(10)
        p = ResBlockParams(
            parameter(rng.normal(size=(2, 2, 3, 3)) * 0.3), parameter(rng.normal(size=2)),
            parameter(rng.normal(size=(2, 2, 3, 3)) * 0.3), parameter(rng.normal(size=2)),
        )
        m2 = Tensor(rng.normal(size=(2, 4, 4)))
        l3 = Tensor(rng.normal(size=(2, 2, 2)))
        up = tt.bilinear_upsample(l3, (4, 4))
        ref = tt.add(m2, residual_block(p, up)).data
        np.testing.assert_allclose(ffb(p, m2, l3).data, ref, atol=1e-12)


def log_probs(probs):
    """Logits whose softmax is ``probs``; a zero probability is a -inf logit."""
    with np.errstate(divide="ignore"):
        return np.log(probs)


def decode(params, m, hw):
    """The decoder and stage 1's head over given stage maps ``m``."""
    l3 = ffb(params.ffb[2], m[2])
    l2 = ffb(params.ffb[1], m[1], l3)
    l1 = ffb(params.ffb[0], m[0], l2)
    return classify_head(params.head, l1, hw)


class TestHeadAndUncertainty:
    def test_zero_head_uniform_probabilities(self):
        head = HeadParams(parameter(np.zeros((3, 4, 1, 1))), parameter(np.zeros(3)))
        logits = classify_head(head, Tensor(np.random.default_rng(11).normal(size=(4, 5, 5))), (9, 10))
        assert logits.shape == (3, 9, 10)
        np.testing.assert_array_equal(logits.data, 0.0)
        np.testing.assert_allclose(uncertainty_map(logits.data), np.log(3.0) / 3.0, atol=1e-6)

    def test_head_hand_oracle_two_class(self):
        head = HeadParams(
            parameter(np.array([[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]])), parameter(np.array([0.5, -0.5]))
        )
        feats = np.random.default_rng(13).normal(size=(2, 2, 2))
        logits = classify_head(head, Tensor(feats), (2, 2))  # the upsample to the same size is the identity
        np.testing.assert_allclose(logits.data, feats + np.array([0.5, -0.5])[:, None, None], atol=1e-12)

    @pytest.mark.parametrize("dtype, tol", [(F64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("src, dst", [((4, 4), (8, 8)), ((3, 5), (7, 11)), ((1, 1), (3, 4))])
    def test_head_commutes_with_upsample(self, dtype, tol, src, dst):
        # oracle: upsample the features, then the head, with a non-zero bias
        rng = np.random.default_rng(14)
        head = HeadParams(parameter(rng.normal(size=(3, 6, 1, 1)), dtype), parameter(rng.normal(size=3), dtype))
        feats = parameter(rng.normal(size=(6, *src)), dtype)
        probe = Tensor(rng.normal(size=(3, *dst)), dtype=dtype)

        def run(forward):
            for t in (head.w, head.b, feats):
                t.zero_grad()
            with Tape() as tape:
                logits = forward()
                tape.backward(tt.sum_all(tt.mul(logits, probe)))
            return [logits.data] + [t.grad.copy() for t in (head.w, head.b, feats)]

        upsample_first = lambda: tt.conv2d(tt.bilinear_upsample(feats, dst), head.w, head.b)
        for got, ref in zip(run(lambda: classify_head(head, feats, dst)), run(upsample_first)):
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, F64])
    def test_max_probability_is_the_softmax_max_bitwise(self, dtype):
        # P = 1 / sum(exp(l - max l)) against the max of the softmax itself
        rng = np.random.default_rng(15)
        for _ in range(20):
            logits = (rng.normal(size=(5, 9, 7)) * rng.uniform(0.1, 20.0)).astype(dtype)
            e = np.exp(logits - logits.max(axis=0, keepdims=True))
            p = (e / e.sum(axis=0, keepdims=True)).max(axis=0)
            expected = np.clip(-np.log(p + 1e-6) * p, 0.0, 1.0)
            assert uncertainty_map(logits).tobytes() == expected.tobytes()

    def test_uncertainty_confident_pixel_clamps_to_zero(self):
        assert uncertainty_map(log_probs(np.array([1.0, 0.0]).reshape(2, 1, 1)))[0, 0] == 0.0

    def test_uncertainty_binary_uniform(self):
        logits = log_probs(np.full((2, 1, 1), 0.5))
        np.testing.assert_allclose(uncertainty_map(logits)[0, 0], 0.5 * np.log(2.0), atol=1e-6)

    def test_uncertainty_maximum_at_inverse_e(self):
        probs = np.zeros((10, 1, 1))
        probs[0] = 1.0 / np.e
        probs[1:] = (1.0 - 1.0 / np.e) / 9.0
        np.testing.assert_allclose(uncertainty_map(log_probs(probs))[0, 0], 1.0 / np.e, atol=1e-5)

    def test_uncertainty_formula_grid_and_raw_bound(self):
        # 10^4-point analytic oracle over the reachable max-probability range
        p_grid = np.linspace(0.1, 1.0, 10_000)
        probs = np.zeros((10, 100, 100))
        probs[0] = p_grid.reshape(100, 100)
        probs[1:] = (1.0 - probs[0]) / 9.0
        u = uncertainty_map(log_probs(probs))
        raw = -np.log(p_grid + 1e-6) * p_grid
        np.testing.assert_allclose(u.reshape(-1), np.clip(raw, 0.0, 1.0), atol=1e-12)
        assert raw.max() <= 1.0 / np.e + 1e-6


class TestSampleMask:
    def test_zero_uncertainty_never_selects(self):
        logits = np.zeros((2, 50, 50))
        logits[1] = -1e4  # exp underflows to 0: P = 1 at every pixel
        assert not uarb(Tensor(logits), np.random.default_rng(0)).mask.any()

    def test_bernoulli_rate_within_three_sigma(self):
        st = uarb(Tensor(np.zeros((2, 100, 100))), np.random.default_rng(2))  # U = P log(1/P) at P = 1/2
        u = float(st.uncertainty[0, 0])
        bound = 3.0 * np.sqrt(u * (1.0 - u) / 10_000)
        assert abs(st.mask.mean() - u) < bound

    def test_draw_provenance(self):
        # each call takes the next h*w uniforms of the generator, in row-major pixel order
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for logits in np.random.default_rng(4).normal(size=(3, 3, 4, 5)):
            st = uarb(Tensor(logits), rng)
            assert st.mask.dtype == bool
            assert st.mask.tobytes() == (twin.random((4, 5)) < uncertainty_map(logits)).tobytes()
        assert rng.random() == twin.random()


class TestUarb:
    def test_requires_rng_in_training(self):
        params = tiny_params(seed=14)
        l1 = Tensor(np.random.default_rng(15).normal(size=(4, 4, 4)))
        with pytest.raises(RuntimeError, match="omitted at inference"):
            uarb(classify_head(params.head, l1, (8, 8)), None)

    def test_mask_zero_contributes_empty_supervision(self):
        params = tiny_params(seed=16)
        rng = np.random.default_rng(17)
        l1 = Tensor(rng.normal(size=(4, 4, 4)))
        y_trn = rng.integers(0, 3, size=(8, 8)).astype(np.int64)
        logits = classify_head(params.head, l1, (8, 8))
        st = StageOutput(logits, uncertainty_map(logits.data), np.zeros((8, 8), dtype=bool))
        assert tt.masked_cross_entropy(st.logits, y_trn, st.mask).item() == 0.0

    def test_mask_one_reproduces_training_labels(self):
        params = tiny_params(seed=18)
        rng = np.random.default_rng(19)
        l1 = Tensor(rng.normal(size=(4, 4, 4)))
        y_trn = rng.integers(0, 3, size=(8, 8)).astype(np.int64)
        logits = classify_head(params.head, l1, (8, 8))
        st = StageOutput(logits, uncertainty_map(logits.data), np.ones((8, 8), dtype=bool))
        term = tt.masked_cross_entropy(st.logits, y_trn, st.mask).item()
        assert term == tt.masked_cross_entropy(st.logits, y_trn, y_trn > 0).item()

    def test_seeded_masks_reproducible_bitwise(self):
        params = tiny_params(seed=20)
        l1_data = np.random.default_rng(21).normal(size=(4, 4, 4))

        def run():
            st = uarb(classify_head(params.head, Tensor(l1_data.copy()), (8, 8)), np.random.default_rng(99))
            return st.mask.tobytes(), st.uncertainty.tobytes()

        assert run() == run()


class TestForwardFull:
    def test_shape_contract_and_stage_outputs(self):
        params = tiny_params(seed=22)
        x = Tensor(np.random.default_rng(23).normal(size=(2, 16, 16)))
        res = forward_full(params, x, train=True, mask_rng=np.random.default_rng(0))
        assert res.final_logits.shape == (2, 16, 16)
        assert len(res.stages) == 3
        for st in res.stages:
            assert st.logits.shape == (2, 16, 16)
            assert st.uncertainty.shape == st.mask.shape == (16, 16)
            assert st.mask.dtype == bool
        assert res.stages[0].logits is res.final_logits

    def test_training_forward_records_only_the_router_softmaxes(self):
        params = tiny_params(seed=22)
        x = Tensor(np.random.default_rng(23).normal(size=(2, 16, 16)))
        with Tape() as tape:
            forward_full(params, x, train=True, mask_rng=np.random.default_rng(0))
        assert [op.name for op in tape.ops].count("route") == 3  # one router per expert block

    def test_inference_consumes_no_randomness_and_is_deterministic(self):
        params = tiny_params(seed=24)
        x_data = np.random.default_rng(25).normal(size=(2, 16, 16))
        a = forward_full(params, Tensor(x_data.copy()), train=False, topk=3)
        b = forward_full(params, Tensor(x_data.copy()), train=False, topk=3)
        assert a.final_logits.data.tobytes() == b.final_logits.data.tobytes()
        assert a.stages == [] and b.stages == []

    def test_uniform_router_topk4_equals_dense(self):
        params = tiny_params(seed=26)
        for block in params.momeb:
            for t in (block.router.w1, block.router.b1, block.router.w2, block.router.b2):
                t.data[...] = 0.0
        x_data = np.random.default_rng(27).normal(size=(2, 16, 16))
        dense = forward_full(params, Tensor(x_data.copy()), train=False, topk=None)
        top4 = forward_full(params, Tensor(x_data.copy()), train=False, topk=4)
        assert dense.final_logits.data.tobytes() == top4.final_logits.data.tobytes()

    def test_momeb_off_bypasses_blocks(self):
        spec = replace(tiny_spec(), momeb_on=False)
        params = init_network_params(spec, np.random.default_rng(28), dtype=F64)
        x = Tensor(np.random.default_rng(29).normal(size=(2, 16, 16)))
        res = forward_full(params, x, train=False, topk=3)
        ref = decode(params, extract_features(params.stem, x), (16, 16))
        assert res.final_logits.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("switch", ["sre_on", "sse_on"])
    def test_expert_switches_come_from_the_spec(self, switch):
        from mambamoe.moe import momeb_forward

        params = init_network_params(replace(tiny_spec(), **{switch: False}), np.random.default_rng(30), dtype=F64)
        x = Tensor(np.random.default_rng(31).normal(size=(2, 16, 16)))
        res = forward_full(params, x, train=False, topk=2)
        feats = extract_features(params.stem, x)
        blocks = lambda **on: [momeb_forward(params.momeb[i], feats[i], topk=2, **on) for i in range(3)]
        ablated = decode(params, blocks(**{switch: False}), (16, 16))
        full = decode(params, blocks(), (16, 16))
        assert res.final_logits.data.tobytes() == ablated.data.tobytes()
        assert not np.allclose(ablated.data, full.data)

    def test_tiny_network_matches_hand_composed_pipeline(self):
        from mambamoe.moe import momeb_forward

        params = tiny_params(seed=30)
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 16, 16)))
        res = forward_full(params, x, train=False, topk=None)

        feats = extract_features(params.stem, x)
        m = [momeb_forward(params.momeb[i], feats[i]) for i in range(3)]
        l3 = ffb(params.ffb[2], m[2])
        l2 = ffb(params.ffb[1], m[1], l3)
        l1 = ffb(params.ffb[0], m[0], l2)
        logits = tt.conv2d(tt.bilinear_upsample(l1, (16, 16)), params.head.w, params.head.b)  # upsample, then head
        np.testing.assert_allclose(res.final_logits.data, logits.data, rtol=1e-12, atol=1e-12)


class TestTotalLoss:
    def make_stage(self, logits, mask):
        return StageOutput(logits=logits, uncertainty=np.zeros(mask.shape), mask=np.asarray(mask, dtype=bool))

    def test_empty_stages_collapse_to_final_term(self):
        rng = np.random.default_rng(32)
        final = Tensor(rng.normal(size=(3, 4, 4)))
        y_trn = rng.integers(1, 4, size=(4, 4))
        stages = [self.make_stage(Tensor(rng.normal(size=(3, 4, 4))), np.zeros((4, 4))) for _ in range(3)]
        loss = total_loss(stages, y_trn, final)
        assert loss.item() == tt.masked_cross_entropy(final, y_trn, np.ones((4, 4))).item()

    def test_identical_stages_quadruple_final_term(self):
        rng = np.random.default_rng(33)
        logits_data = rng.normal(size=(3, 4, 4))
        y_trn = rng.integers(1, 4, size=(4, 4))
        stages = [self.make_stage(Tensor(logits_data.copy()), np.ones((4, 4))) for _ in range(3)]
        loss = total_loss(stages, y_trn, Tensor(logits_data.copy()))
        single = tt.masked_cross_entropy(Tensor(logits_data.copy()), y_trn, np.ones((4, 4))).item()
        np.testing.assert_allclose(loss.item(), 4.0 * single, rtol=1e-6)

    def test_term_by_term_summation_oracle(self):
        # oracle: each stage's term over its sampled label map q (training labels
        # where the mask fires, else 0), the final term over labels and train mask;
        # the same pixels in the same order, so value and gradients agree bitwise
        rng = np.random.default_rng(34)
        labels = rng.integers(0, 4, size=(6, 5))
        train_mask = rng.random((6, 5)) < 0.5
        y_trn = np.where(train_mask, labels, 0)
        masks = [rng.random((6, 5)) < 0.5 for _ in range(3)]
        for dtype in (np.float32, F64):
            logits = [parameter(rng.normal(size=(3, 6, 5)), dtype) for _ in range(4)]

            def run(loss_fn):
                for t in logits:
                    t.zero_grad()
                with Tape() as tape:
                    loss = loss_fn()
                    tape.backward(loss)
                return [loss.data.tobytes()] + [t.grad.tobytes() for t in logits]

            def q_form():
                ones = np.ones((6, 5))
                terms = [tt.masked_cross_entropy(l, np.where(m, y_trn, 0), ones) for l, m in zip(logits, masks)]
                terms.append(tt.masked_cross_entropy(logits[3], labels, train_mask))
                return tt.add(tt.add(tt.add(terms[0], terms[1]), terms[2]), terms[3])

            stages = [self.make_stage(l, m) for l, m in zip(logits, masks)]
            assert run(lambda: total_loss(stages, y_trn, logits[3])) == run(q_form)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_network_params(tiny_spec(), np.random.default_rng(37), dtype=np.float32)
        path = tmp_path / "model.mmoe"
        save_checkpoint(path, params, extra_meta={"seed": 7})
        loaded, meta = load_checkpoint(path)
        assert meta["seed"] == 7
        for (name_a, a), (name_b, b) in zip(params.named_params(), loaded.named_params()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()
        # saving the loaded params reproduces the file byte for byte
        path2 = tmp_path / "model2.mmoe"
        save_checkpoint(path2, loaded, extra_meta={"seed": 7})
        assert path.read_bytes() == path2.read_bytes()

    def test_version_1_dense_decay_refused(self, tmp_path, write_v1_checkpoint):
        params = init_network_params(tiny_spec(), np.random.default_rng(42), dtype=np.float32)
        path = tmp_path / "dense.mmoe"
        write_v1_checkpoint(path, params)
        with pytest.raises(CheckpointError, match="version 1 is not 2.*a_bar.*do not convert"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [None, 3, "2"], ids=["missing", "3", "string-2"])
    def test_other_versions_refused(self, tmp_path, version):
        def set_version(meta):
            if version is None:
                del meta["version"]
            else:
                meta["version"] = version

        with pytest.raises(CheckpointError, match="version"):
            self.load_edited(tmp_path, 0, self.edit_meta(set_version))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmoe"
        path.write_bytes(b"NOPE!\n123")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        params = init_network_params(tiny_spec(), np.random.default_rng(38), dtype=np.float32)
        path = tmp_path / "model.mmoe"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_network_params(tiny_spec(), np.random.default_rng(39), dtype=np.float32)
        path = tmp_path / "model.mmoe"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flags", [(False, True, True), (True, False, True), (True, True, False)])
    def test_ablation_switches_round_trip(self, tmp_path, flags):
        spec = replace(tiny_spec(), **dict(zip(("momeb_on", "sre_on", "sse_on"), flags)))
        path = tmp_path / "model.mmoe"
        params = init_network_params(spec, np.random.default_rng(41), dtype=np.float32)
        save_checkpoint(path, params, extra_meta={"sre_on": not spec.sre_on})  # the spec wins
        loaded, meta = load_checkpoint(path)
        assert loaded.spec == spec
        assert (meta["momeb_on"], meta["sre_on"], meta["sse_on"]) == flags

    @staticmethod
    def edit_meta(edit):
        def rewrite(line):
            meta = json.loads(line)
            edit(meta)
            return json.dumps(meta).encode()

        return rewrite

    @pytest.mark.parametrize("key", ["momeb_on", "sre_on", "sse_on"])
    def test_meta_without_a_switch_refused(self, tmp_path, key):
        with pytest.raises(CheckpointError, match=f"bad meta line.*{key}"):
            self.load_edited(tmp_path, 0, self.edit_meta(lambda meta: meta.pop(key)))

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_switch_that_is_not_a_json_bool(self, tmp_path, value):
        with pytest.raises(CheckpointError, match="sre_on must be a bool"):
            self.load_edited(tmp_path, 0, self.edit_meta(lambda meta: meta.update(sre_on=value)))

    @staticmethod
    def load_edited(tmp_path, part: int, edit):
        """Load a valid checkpoint after ``edit`` rewrote one of its first
        lines: 0 is the meta line, 2 the first manifest line."""
        params = init_network_params(tiny_spec(), np.random.default_rng(40), dtype=np.float32)
        path = tmp_path / "model.mmoe"
        save_checkpoint(path, params)
        parts = path.read_bytes()[len(CHECKPOINT_MAGIC) :].split(b"\n", 3)
        parts[part] = edit(parts[part])
        path.write_bytes(CHECKPOINT_MAGIC + b"\n".join(parts))
        return load_checkpoint(path)

    def test_manifest_line_with_extra_space(self, tmp_path):
        with pytest.raises(CheckpointError, match="malformed manifest"):
            self.load_edited(tmp_path, 2, lambda line: line.replace(b" ", b"  ", 1))

    def test_meta_without_bands(self, tmp_path):
        with pytest.raises(CheckpointError, match="bands"):
            self.load_edited(tmp_path, 0, self.edit_meta(lambda meta: meta.pop("bands")))

    def test_non_ascii_byte_in_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="malformed manifest"):
            self.load_edited(tmp_path, 2, lambda line: b"\xff" + line)

    def test_negative_extent(self, tmp_path):
        # an empty payload passes the length check, so only the shape can reject it
        with pytest.raises(CheckpointError, match="negative extent"):
            self.load_edited(tmp_path, 2, lambda line: line.rsplit(b" ", 1)[0] + b" 0,-1")

    def test_zero_channel_width_refused(self, tmp_path):
        # meta and manifest agree on C = 0, so every C-sized payload is empty
        spec = tiny_spec()
        object.__setattr__(spec, "channels", 0)  # past the NetSpec check, as a hand-written file is
        path = tmp_path / "zero.mmoe"
        save_checkpoint(path, _build_network_params(spec, lambda name, shape: np.zeros(shape), np.float32))
        with pytest.raises(CheckpointError, match="channel width"):
            load_checkpoint(path)

    def test_unknown_dtype_code(self, tmp_path):
        with pytest.raises(CheckpointError, match="dtype code 'q9'"):
            self.load_edited(tmp_path, 2, lambda line: line.replace(b" f4 ", b" q9 "))
