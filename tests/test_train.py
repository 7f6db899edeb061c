"""Split sampling, Adam, metrics, scoring, and short training runs."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe import data as dataio
from mambamoe import network
from mambamoe import train as training
from mambamoe.train import (
    AdamState,
    Metrics,
    SplitError,
    TrainConfig,
    adam_init,
    adam_step,
    confusion_matrix,
    evaluate,
    format_history_csv,
    format_metrics_report,
    metrics_from_confusion,
    nearest_centroid_predict,
    predict_labels,
    score,
    split_for_seed,
    split_per_class,
    topk_sweep,
    train,
)
from mambamoe.tensor import parameter


def small_scene(seed=11, h=16, w=16):
    """Fast fixture scene: quadrant classes, trivially separable."""
    rng = np.random.default_rng(seed)
    bands = 4
    labels = np.ones((h, w), dtype=np.uint16)
    labels[:, w // 2 :] = 2
    labels[h // 2 :, : w // 2] = 3
    sigs = np.array([[0, 0, 0, 0], [2, 0, 0, -2], [0, 2, 0, -2], [0, 0, 2, -2]], dtype=np.float64)
    cube = sigs[labels].transpose(2, 0, 1) + 0.1 * rng.standard_normal((bands, h, w))
    header = dataio.SceneHeader(bands, h, w, 3, ["a", "b", "c"], "test")
    return dataio.HsiScene(header, cube.astype(np.float32), labels)


class TestSplit:
    def test_exact_counts(self):
        labels = np.repeat(np.array([1, 2]), 100).reshape(2, 100)
        train_mask, test_mask = split_per_class(labels, 15, 0)
        assert train_mask.sum() == 30
        assert test_mask.sum() == 170
        assert not (train_mask & test_mask).any()
        assert ((train_mask | test_mask) == (labels > 0)).all()

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 4, size=(20, 20))
        a, _ = split_per_class(labels, 5, 42)
        b, _ = split_per_class(labels, 5, 42)
        assert a.tobytes() == b.tobytes()

    def test_class_too_small_names_class(self):
        labels = np.zeros((5, 5), dtype=int)
        labels[0, :3] = 2
        with pytest.raises(SplitError, match="class 2"):
            split_per_class(labels, 3, 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_histogram_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        labels = rng.integers(0, k + 1, size=(30, 30))
        n = int(rng.integers(1, 6))
        for cls in range(1, k + 1):  # guarantee enough pixels
            if (labels == cls).sum() <= n:
                labels[cls - 1, : n + 1] = cls
        train_mask, test_mask = split_per_class(labels, n, seed)
        for cls in range(1, k + 1):
            assert (labels[train_mask] == cls).sum() == n
            assert (labels[test_mask] == cls).sum() == (labels == cls).sum() - n
        assert (labels[train_mask] > 0).all()


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = parameter(np.array([1.0, -2.0], dtype=np.float32))
        state = adam_init([p])
        before = p.data.copy()
        adam_step(state, [p], lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude(self):
        p = parameter(np.array([0.0], dtype=np.float64))
        state = adam_init([p])
        p.grad[...] = 1.0
        adam_step(state, [p], lr=1e-3)
        np.testing.assert_allclose(p.data, [-1e-3], rtol=1e-7)

    def test_five_step_trajectory_vs_independent_reference(self):
        # independent scalar Adam written from the update equations
        def reference(theta0, lr, steps):
            theta, m, v = theta0, 0.0, 0.0
            traj = []
            for t in range(1, steps + 1):
                g = 2.0 * theta  # d/dtheta of theta^2
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                m_hat = m / (1 - 0.9**t)
                v_hat = v / (1 - 0.999**t)
                theta -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                traj.append(theta)
            return traj

        p = parameter(np.array([1.5], dtype=np.float64))
        state = adam_init([p])
        ours = []
        for _ in range(5):
            p.grad[...] = 2.0 * p.data
            adam_step(state, [p], lr=0.05)
            ours.append(float(p.data[0]))
        np.testing.assert_allclose(ours, reference(1.5, 0.05, 5), atol=1e-10)


class TestMetrics:
    def test_perfect_prediction(self):
        m = metrics_from_confusion(np.diag([5, 7, 3]))
        assert m.oa == m.aa == m.kappa == 1.0

    def test_worked_kappa_example(self):
        m = metrics_from_confusion(np.array([[2, 0], [1, 1]]))
        assert m.oa == 0.75
        assert m.aa == 0.75
        assert m.kappa == 0.5

    def test_constant_prediction_chance_kappa(self):
        # balanced two-class data, everything predicted class 1
        m = metrics_from_confusion(np.array([[10, 0], [10, 0]]))
        assert m.kappa == 0.0

    def test_brute_force_oracle_100_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            conf = rng.integers(0, 30, size=(k, k))
            conf[0, 0] += 1  # nonempty
            m = metrics_from_confusion(conf)

            total = conf.sum()
            oa = sum(conf[i, i] for i in range(k)) / total
            recalls = [conf[i, i] / conf[i].sum() for i in range(k) if conf[i].sum() > 0]
            aa = float(np.mean(recalls))
            p_e = sum(conf[i].sum() * conf[:, i].sum() for i in range(k)) / total**2
            kappa = (oa - p_e) / (1 - p_e) if abs(1 - p_e) > 1e-15 else (1.0 if oa == 1.0 else 0.0)
            assert abs(m.oa - oa) < 1e-12
            assert abs(m.aa - aa) < 1e-12
            assert abs(m.kappa - kappa) < 1e-12

    def test_confusion_row_sums_are_true_counts(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(1, 4, size=200)
        y_pred = rng.integers(1, 4, size=200)
        conf = confusion_matrix(y_true, y_pred, 3)
        for cls in range(1, 4):
            assert conf[cls - 1].sum() == (y_true == cls).sum()


class TestNearestCentroid:
    @pytest.mark.parametrize("seed", range(8))
    def test_reaches_100_percent_on_the_bundled_scene(self, seed):
        # the class signatures lie >= 1.0 apart at noise sigma 0.25: the
        # spectra alone separate the classes, before any network is trained
        scene = dataio.generate_synthetic(dataio.default_synthetic_spec())
        labels = scene.labels.astype(np.int64)
        train_mask, test_mask = split_for_seed(labels, 15, seed)
        pred = nearest_centroid_predict(scene, train_mask)
        assert pred.dtype == np.uint16 and pred.shape == labels.shape
        assert (pred[test_mask] == labels[test_mask]).mean() == 1.0

    def test_matches_per_pixel_oracle_and_skips_untrained_classes(self):
        rng = np.random.default_rng(5)
        scene = small_scene(seed=5)
        scene.cube[...] = rng.normal(size=scene.cube.shape)  # overlapping classes: a real choice per pixel
        train_mask = (rng.random(scene.labels.shape) < 0.2) & (scene.labels != 3)
        pred = nearest_centroid_predict(scene, train_mask)
        cube = scene.cube.astype(np.float64)
        centroids = {c: cube[:, train_mask & (scene.labels == c)].mean(axis=1) for c in (1, 2)}
        for i in range(scene.labels.shape[0]):
            for j in range(scene.labels.shape[1]):
                dist = {c: ((cube[:, i, j] - m) ** 2).sum() for c, m in centroids.items()}
                assert pred[i, j] == min(dist, key=dist.get)
        with pytest.raises(ValueError, match="no labeled training pixel"):
            nearest_centroid_predict(scene, np.zeros(scene.labels.shape, dtype=bool))


class TestScore:
    def test_oa_is_the_hand_rolled_hit_rate_bit_for_bit(self):
        # both are a count over n in float64
        rng = np.random.default_rng(6)
        scene = small_scene(seed=6)
        for _ in range(20):
            pred = rng.integers(1, 4, size=scene.labels.shape).astype(np.uint16)
            test_mask = rng.random(scene.labels.shape) < 0.7
            assert score(pred, scene, test_mask).oa == (pred[test_mask] == scene.labels[test_mask]).mean()

    def test_empty_test_mask_raises(self):
        scene = small_scene()
        with pytest.raises(ValueError, match="empty test mask"):
            score(scene.labels, scene, np.zeros(scene.labels.shape, dtype=bool))


class TestSummaries:
    def fake_metrics(self, oa):
        return Metrics(confusion=np.eye(2, dtype=np.int64), oa=oa, aa=oa, kappa=oa, per_class_acc=np.array([oa, oa]))

    def test_report_formats(self):
        m = self.fake_metrics(0.875)
        report = format_metrics_report(m, ["alpha", "beta"])
        assert "OA" in report and "kappa" in report and "87.50" in report

    def test_history_csv(self):
        text = format_history_csv([(1, 2.5, 0.25), (2, 1.25, 0.5)])
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,train_oa"
        assert lines[1].startswith("1,2.5")


class TestTrainingLoop:
    def test_short_run_decreases_loss_and_is_deterministic(self):
        scene = small_scene()
        cfg = TrainConfig(epochs=12, seed=3, samples_per_class=10, channels=8, state_dim=4)
        a = train(cfg, scene)
        b = train(cfg, scene)
        assert a.history[-1][1] < a.history[0][1]
        for (_, ta), (_, tb) in zip(a.params.named_params(), b.params.named_params()):
            assert ta.data.tobytes() == tb.data.tobytes()
        assert a.history == b.history

    def test_ablation_flags_still_train(self):
        scene = small_scene()
        for flags in ({"momeb_on": False}, {"uarb_on": False}, {"sre_on": False}, {"sse_on": False}):
            cfg = TrainConfig(epochs=4, seed=0, samples_per_class=5, channels=8, state_dim=4, **flags)
            result = train(cfg, scene)
            spec = result.params.spec
            assert (spec.momeb_on, spec.sre_on, spec.sse_on) == (cfg.momeb_on, cfg.sre_on, cfg.sse_on)
            m = evaluate(result.params, scene, result.test_mask, topk=3)
            assert 0.0 <= m.oa <= 1.0

    def test_evaluate_rejects_empty_test_mask(self):
        scene = small_scene()
        cfg = TrainConfig(epochs=1, seed=0, samples_per_class=5, channels=8, state_dim=4)
        result = train(cfg, scene)
        with pytest.raises(ValueError):
            evaluate(result.params, scene, np.zeros_like(result.test_mask), topk=3)

    def test_predict_matches_eval_argmax(self):
        scene = small_scene()
        cfg = TrainConfig(epochs=4, seed=1, samples_per_class=5, channels=8, state_dim=4)
        result = train(cfg, scene)
        pred = predict_labels(result.params, scene, topk=3)
        m = evaluate(result.params, scene, result.test_mask, topk=3)
        labels = scene.labels.astype(np.int64)
        conf = confusion_matrix(labels[result.test_mask], pred[result.test_mask], 3)
        np.testing.assert_array_equal(conf, m.confusion)
        np.testing.assert_array_equal(score(pred, scene, result.test_mask).confusion, m.confusion)

    def test_predict_frees_the_scene_and_each_stem_map_once_consumed(self, monkeypatch):
        scene = small_scene()
        params = network.init_network_params(network.NetSpec(4, 8, 4, 3), np.random.default_rng(0))
        extract, momeb, ffb = network.extract_features, network.momeb_forward, network.ffb
        maps, seen = [], []

        def watched_extract(stem, x):
            feats = extract(stem, x)
            maps.extend(weakref.ref(t.data) for t in (x, *feats))
            return feats

        def watched_momeb(p, f, *args, **kw):
            seen.append(("momeb", maps[0]() is not None))  # the normalized scene
            return momeb(p, f, *args, **kw)

        def watched_ffb(p, m, l_next=None):
            seen.append(("ffb", any(r() is not None for r in maps)))
            return ffb(p, m, l_next)

        monkeypatch.setattr(network, "extract_features", watched_extract)
        monkeypatch.setattr(network, "momeb_forward", watched_momeb)
        monkeypatch.setattr(network, "ffb", watched_ffb)
        predict_labels(params, scene, topk=3)
        assert seen == [("momeb", False)] * 3 + [("ffb", False)] * 3

    def test_topk_sweep_shapes(self):
        scene = small_scene()
        cfg = TrainConfig(epochs=3, seed=2, samples_per_class=5, channels=8, state_dim=4)
        result = train(cfg, scene)
        rows = topk_sweep(result.params, scene, result.test_mask)
        assert [k for k, _ in rows] == [1, 2, 3, 4]
        for _, m in rows:
            assert 0.0 <= m.oa <= 1.0

    def test_config_validation(self):
        for bad in ({"topk_infer": 5}, {"samples_per_class": 0}, {"seed": -1}, {"epochs": 0}, {"channels": 7}, {"channels": 0}, {"state_dim": 0}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_rejects_a_label_outside_the_declared_classes(self, bad):
        # before the split, which would name the stray id as a class
        scene = dataio.generate_synthetic(dataio.default_synthetic_spec(seed=0))
        labels = scene.labels.astype(np.int64)
        labels[0, 0] = bad
        cfg = TrainConfig(epochs=1, seed=0, samples_per_class=5, channels=8, state_dim=4)
        with pytest.raises(dataio.ExtentError, match=f"label id {bad} "):
            train(cfg, dataio.HsiScene(scene.header, scene.cube, labels))
