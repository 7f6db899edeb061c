"""Scene container round-trips, synthetic generation, normalization, PPM."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe.data import (
    BadMagicError,
    ExtentError,
    HscError,
    HsiScene,
    PaletteError,
    SceneHeader,
    SynthClass,
    SyntheticSpec,
    TruncatedFileError,
    default_palette,
    default_synthetic_spec,
    generate_synthetic,
    load_hsc,
    load_palette,
    nearest_signature_predict,
    normalize_scene,
    render_map,
    save_hsc,
    synthetic_label_map,
)

def random_scene(rng, bands=None, h=None, w=None, k=None):
    bands = bands or int(rng.integers(1, 6))
    h = h or int(rng.integers(1, 10))
    w = w or int(rng.integers(1, 10))
    k = k or int(rng.integers(1, 4))
    k = min(k, h * w)
    labels = rng.integers(0, k + 1, size=(h, w)).astype(np.uint16)
    for cls in range(1, k + 1):  # every declared class present, distinct cells
        labels[np.unravel_index(cls - 1, (h, w))] = cls
    cube = rng.normal(size=(bands, h, w)).astype(np.float32)
    header = SceneHeader(bands, h, w, k, [f"class{i}" for i in range(1, k + 1)], "test scene")
    return HsiScene(header, cube, labels)


class TestHscRoundTrip:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        scene = random_scene(rng, bands=4, h=8, w=8, k=3)
        path = tmp_path / "scene.hsc"
        save_hsc(scene, path)
        loaded = load_hsc(path)
        assert loaded.cube.tobytes() == scene.cube.tobytes()
        assert loaded.labels.tobytes() == scene.labels.tobytes()
        assert loaded.header == scene.header

    def test_50_random_scenes_including_edge_extents(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(50):
            if i == 0:
                scene = random_scene(rng, bands=1, h=3, w=3, k=1)  # single band
            elif i == 1:
                scene = random_scene(rng, bands=3, h=1, w=7, k=1)  # single row
            else:
                scene = random_scene(rng)
            path = tmp_path / f"scene{i}.hsc"
            save_hsc(scene, path)
            loaded = load_hsc(path)
            assert loaded.cube.tobytes() == scene.cube.tobytes()
            assert loaded.labels.tobytes() == scene.labels.tobytes()

    def test_header_line_matches_pavia_extents(self, tmp_path):
        # 103 bands, 610 x 340, 9 classes: the header grammar carries it
        rng = np.random.default_rng(2)
        scene = random_scene(rng, bands=2, h=3, w=3, k=2)
        path = tmp_path / "h.hsc"
        save_hsc(scene, path)
        header_line = path.read_bytes().split(b"\n")[1]
        assert header_line == b"2 3 3 2"
        parsed = [int(t) for t in b"103 610 340 9".split()]
        assert parsed == [103, 610, 340, 9]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hsc"
        path.write_bytes(b"XXXX\n1 1 1 1\n")
        with pytest.raises(BadMagicError):
            load_hsc(path)

    def test_truncation_by_one_byte(self, tmp_path):
        rng = np.random.default_rng(3)
        scene = random_scene(rng, bands=2, h=4, w=4, k=2)
        path = tmp_path / "t.hsc"
        save_hsc(scene, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFileError):
            load_hsc(path)

    def test_extent_overflow(self, tmp_path):
        path = tmp_path / "e.hsc"
        path.write_bytes(b"HSC1\n0 4 4 1\nclass1\nprov\n")
        with pytest.raises(ExtentError):
            load_hsc(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        scene = random_scene(rng, bands=1, h=2, w=2, k=1)
        path = tmp_path / "g.hsc"
        save_hsc(scene, path)
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(HscError):
            load_hsc(path)

    @pytest.mark.parametrize("line, what", [(0, "header"), (1, "class name 1"), (5, "provenance")])
    def test_non_utf8_text_line(self, tmp_path, line, what):
        path = tmp_path / "u.hsc"
        save_hsc(generate_synthetic(default_synthetic_spec()), path)
        blob = path.read_bytes()
        at = len(b"HSC1\n")
        for _ in range(line):  # first byte of the chosen text line (4 class names, then provenance)
            at = blob.index(b"\n", at) + 1
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1 :])
        with pytest.raises(HscError, match=f"{what} is not UTF-8"):
            load_hsc(path)

    def test_label_above_declared_classes_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, bands=1, h=2, w=2, k=2)
        scene.labels[0, 0] = 9
        with pytest.raises(ExtentError):
            save_hsc(scene, tmp_path / "l.hsc")


class TestSynthetic:
    def test_noiseless_pixels_equal_signatures(self):
        spec = default_synthetic_spec()
        spec = SyntheticSpec(spec.height, spec.width, spec.bands, spec.classes, 0.0, spec.seed)
        scene = generate_synthetic(spec)
        sigs = np.stack([np.zeros(spec.bands)] + [c.signature for c in spec.classes])
        expected = sigs[scene.labels].transpose(2, 0, 1).astype(np.float32)
        np.testing.assert_array_equal(scene.cube, expected)

    def test_deterministic_same_seed(self):
        a = generate_synthetic(default_synthetic_spec(seed=5))
        b = generate_synthetic(default_synthetic_spec(seed=5))
        assert a.cube.tobytes() == b.cube.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_fully_labeled_and_all_classes_present(self):
        scene = generate_synthetic(default_synthetic_spec())
        assert scene.labels.min() >= 1
        assert set(np.unique(scene.labels)) == {1, 2, 3, 4}

    def test_class_areas_match_partition(self):
        spec = default_synthetic_spec()
        scene = generate_synthetic(spec)
        implied = synthetic_label_map(spec)
        counts = np.bincount(scene.labels.ravel(), minlength=5)[1:]
        implied_counts = np.bincount(implied.ravel(), minlength=5)[1:]
        # generator realizes the partition exactly, well within the +/-10% bound
        np.testing.assert_array_equal(counts, implied_counts)
        assert np.all(np.abs(counts - implied_counts) <= 0.1 * implied_counts)

    def test_nearest_signature_oracle_reaches_100_percent(self):
        # sigma 0.1 with signatures >= 1.0 apart: the scene must be learnable
        # before any network training enters the picture
        base = default_synthetic_spec()
        spec = SyntheticSpec(base.height, base.width, base.bands, base.classes, 0.1, base.seed)
        scene = generate_synthetic(spec)
        pred = nearest_signature_predict(spec, scene.cube)
        assert (pred == scene.labels).mean() == 1.0

    def test_signature_separation_enforced(self):
        bands = 4
        close = [
            SynthClass("a", "vertical", np.array([1.0, 0, 0, 0])),
            SynthClass("b", "background", np.array([1.05, 0, 0, 0])),
        ]
        spec = SyntheticSpec(16, 16, bands, close, noise_sigma=0.1, seed=0)
        with pytest.raises(ValueError, match="5 \\* noise_sigma"):
            spec.validate()

    def test_background_required(self):
        spec = SyntheticSpec(
            16, 16, 2, [SynthClass("v", "vertical", np.array([1.0, 0.0]))], noise_sigma=0.0, seed=0
        )
        with pytest.raises(ValueError, match="background"):
            spec.validate()

    def test_orientation_structure(self):
        spec = default_synthetic_spec()
        labels = synthetic_label_map(spec)
        ids = {c.orientation: i + 1 for i, c in enumerate(spec.classes)}
        vertical = labels == ids["vertical"]
        cols_with_v = np.where(vertical.any(axis=0))[0]
        for col in cols_with_v:  # vertical stripes span full column runs
            assert vertical[:, col].all() or not vertical[:, col].any() or vertical[:, col].sum() >= 16
        horizontal = labels == ids["horizontal"]
        rows_with_h = np.where(horizontal.any(axis=1))[0]
        assert len(rows_with_h) > 0 and len(cols_with_v) > 0


class TestNormalize:
    def test_constant_band_maps_to_zeros(self):
        rng = np.random.default_rng(6)
        scene = random_scene(rng, bands=2, h=4, w=4, k=1)
        scene.cube[0] = 3.14
        out = normalize_scene(scene).data
        np.testing.assert_array_equal(out[0], 0.0)

    def test_two_point_band(self):
        scene = random_scene(np.random.default_rng(7), bands=1, h=1, w=2, k=1)
        scene.cube[0] = np.array([[0.0, 2.0]], dtype=np.float32)
        out = normalize_scene(scene).data
        np.testing.assert_allclose(out[0], [[-1.0, 1.0]], atol=1e-6)

    def test_band_statistics(self):
        rng = np.random.default_rng(8)
        scene = random_scene(rng, bands=5, h=16, w=16, k=1)
        out = normalize_scene(scene).data.astype(np.float64)
        assert np.abs(out.mean(axis=(1, 2))).max() < 1e-5
        assert np.abs(out.std(axis=(1, 2)) - 1.0).max() < 1e-3

    def test_bit_equal_to_whole_cube_formula(self):
        rng = np.random.default_rng(10)
        scene = random_scene(rng, bands=6, h=13, w=17, k=1)
        scene.cube *= rng.uniform(0.01, 100.0, size=(6, 1, 1)).astype(np.float32)
        scene.cube += rng.normal(0.0, 50.0, size=(6, 1, 1)).astype(np.float32)
        scene.cube[2] = -7.5  # constant band
        cube = scene.cube.astype(np.float64)
        mu = cube.mean(axis=(1, 2), keepdims=True)
        sigma = np.maximum(cube.std(axis=(1, 2), keepdims=True), 1e-8)
        ref = ((cube - mu) / sigma).astype(np.float32)
        out = normalize_scene(scene).data
        assert out.dtype == np.float32
        assert out.tobytes() == ref.tobytes()

    def test_peak_memory_below_twice_the_output(self):
        rng = np.random.default_rng(11)
        scene = random_scene(rng, bands=32, h=128, w=128, k=1)
        tracemalloc.start()
        try:
            out = normalize_scene(scene).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, (peak, out.nbytes)

    def test_idempotent_to_tolerance(self):
        rng = np.random.default_rng(9)
        scene = random_scene(rng, bands=3, h=8, w=8, k=1)
        once = normalize_scene(scene).data
        scene2 = HsiScene(scene.header, once.copy(), scene.labels)
        twice = normalize_scene(scene2).data
        np.testing.assert_allclose(twice, once, atol=1e-6)


class TestRenderMap:
    def test_all_zero_labels_black_image(self, tmp_path):
        path = tmp_path / "black.ppm"
        render_map(np.zeros((2, 3), dtype=int), {}, path)
        blob = path.read_bytes()
        assert blob == b"P6\n3 2\n255\n" + b"\x00" * 18

    def test_checkerboard_matches_handwritten_bytes(self, tmp_path):
        labels = np.array([[1, 2], [2, 1]])
        palette = {1: (255, 0, 0), 2: (0, 255, 0)}
        path = tmp_path / "check.ppm"
        render_map(labels, palette, path)
        expected = (
            b"P6\n2 2\n255\n"
            + bytes([255, 0, 0]) + bytes([0, 255, 0])
            + bytes([0, 255, 0]) + bytes([255, 0, 0])
        )
        assert path.read_bytes() == expected

    def test_deterministic_re_render(self, tmp_path):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 4, size=(9, 7))
        palette = default_palette(3)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_map(labels, palette, a)
        render_map(labels, palette, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_palette_entry(self, tmp_path):
        with pytest.raises(PaletteError):
            render_map(np.array([[5]]), {1: (0, 0, 0)}, tmp_path / "x.ppm")

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_p6_size_grammar(self, h, w):
        import io
        import tempfile, os

        labels = np.zeros((h, w), dtype=int)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "size.ppm")
            render_map(labels, {}, path)
            size = os.path.getsize(path)
        header_digits = len(str(w)) + len(str(h))
        assert size == 9 + header_digits + 3 * h * w

    def test_palette_file_parsing(self, tmp_path):
        path = tmp_path / "pal.txt"
        path.write_text("# comment\n0 0 0 0\n1 255 0 0  # red\n2 0 255 0\n")
        pal = load_palette(path)
        assert pal == {0: (0, 0, 0), 1: (255, 0, 0), 2: (0, 255, 0)}

    def test_palette_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "pal.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(PaletteError):
            load_palette(path)
        path.write_text("1 300 0 0\n")
        with pytest.raises(PaletteError):
            load_palette(path)

    @pytest.mark.parametrize("body", [b"1 \xff 0 0\n", b"1 a 2 3\n"], ids=["non-utf8", "non-integer"])
    def test_palette_rejects_non_utf8_and_non_integers(self, tmp_path, body):
        path = tmp_path / "pal.txt"
        path.write_bytes(b"0 0 0 0\n" + body)
        with pytest.raises(PaletteError):
            load_palette(path)
