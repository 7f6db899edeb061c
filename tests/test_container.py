"""The scene and checkpoint container and the palette under hostile bytes
(truncation, byte flips, splices), their exact bytes, and their load memory."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe.cli import main
from mambamoe.data import (
    HscError,
    HsiScene,
    PaletteError,
    SceneHeader,
    default_synthetic_spec,
    generate_synthetic,
    load_hsc,
    load_palette,
    save_hsc,
)
from mambamoe.network import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    NetSpec,
    _build_network_params,
    init_network_params,
    load_checkpoint,
    save_checkpoint,
)

PALETTE = b"# id r g b\n0 0 0 0\n1 230 25 75\n2 60 180 75  # stripes\n3 255 225 25\n4 0 130 200\n"
OTHER_PALETTE = b"1 10 20 30\n\n7 255 0 255\n"


def bundled_scene():
    return generate_synthetic(default_synthetic_spec())


def small_scene():
    labels = np.array([[1, 2, 0], [2, 1, 1]], dtype=np.uint16)
    cube = np.random.default_rng(0).normal(size=(3, 2, 3)).astype(np.float32)
    return HsiScene(SceneHeader(3, 2, 3, 2, ["a", "b"], "small"), cube, labels)


def hsc_bytes(path, scene):
    save_hsc(scene, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Two valid files of each format, and a directory for the mutants."""
    tmp = tmp_path_factory.mktemp("container")
    spec = NetSpec(bands=2, channels=4, state_dim=3, n_class=2)
    mmoe = []
    for seed, dtype in ((0, np.float32), (1, np.float64)):
        save_checkpoint(tmp / "m.mmoe", init_network_params(spec, np.random.default_rng(seed), dtype=dtype))
        mmoe.append((tmp / "m.mmoe").read_bytes())
    hsc = [hsc_bytes(tmp / "s.hsc", scene) for scene in (bundled_scene(), small_scene())]
    return tmp, {"hsc": hsc, "mmoe": mmoe, "palette": [PALETTE, OTHER_PALETTE]}


LOADERS = {
    "hsc": (load_hsc, HscError),
    "mmoe": (load_checkpoint, CheckpointError),
    "palette": (load_palette, PaletteError),
}


def mutant(draw, a: bytes, b: bytes) -> bytes:
    """``a`` truncated, with one byte flipped, or spliced with ``b`` (either
    way round); two offsets in three fall in the first 100 or 4000 bytes,
    where the text lines are."""

    def offset(n):
        return draw(st.one_of(st.integers(0, n - 1), *(st.integers(0, min(n, head) - 1) for head in (100, 4000))))

    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return a[: offset(len(a))]
    if kind == "flip":
        at = offset(len(a))
        return a[:at] + bytes([a[at] ^ draw(st.integers(1, 255))]) + a[at + 1 :]
    head, tail = draw(st.permutations([a, b]))
    return head[: offset(len(head) + 1)] + tail[offset(len(tail) + 1) :]


@pytest.mark.parametrize("fmt", list(LOADERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mutant_loads_or_raises_its_domain_error(valid, fmt, data):
    tmp, files = valid
    load, error = LOADERS[fmt]
    path = tmp / f"mutant.{fmt}"
    path.write_bytes(mutant(data.draw, *files[fmt]))
    try:
        load(path)
    except error:
        pass


def write_cfg(tmp_path, **keys):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return str(path)


def synthetic_fit_params():
    """A small network for the bundled scene's 8 bands and 4 classes."""
    return init_network_params(NetSpec(bands=8, channels=4, state_dim=2, n_class=4), np.random.default_rng(3))


def nested_meta(path):
    save_checkpoint(path, synthetic_fit_params())
    blob = path.read_bytes()
    meta_end = blob.index(b"\n", len(CHECKPOINT_MAGIC))
    path.write_bytes(CHECKPOINT_MAGIC + b"[" * 200_000 + blob[meta_end:])


def mixed_dtypes(path):
    params = synthetic_fit_params()
    params.head.b.data = np.full(params.head.b.shape, 1e300)  # finite in f8, inf in f4
    save_checkpoint(path, params)


class TestMalformedFileExitsTwo:
    """Each format's fault reaches the CLI as one ``error: data:`` line."""

    @staticmethod
    def exit_2_one_line(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: "), err
        return err[0]

    def test_truncated_scene(self, tmp_path, capsys, valid):
        scene = tmp_path / "cut.hsc"
        scene.write_bytes(valid[1]["hsc"][0][:20_000])
        cfg = write_cfg(tmp_path, dataset=scene)
        shown = self.exit_2_one_line(capsys, ["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert "truncated in cube" in shown

    @pytest.mark.parametrize(
        "edit, shown",
        [(nested_meta, "malformed header"), (mixed_dtypes, "head.b is f8 but stem.conv1.w is f4")],
        ids=["nested-json-meta", "f4-and-f8"],
    )
    def test_checkpoint(self, tmp_path, capsys, edit, shown):
        ckpt = tmp_path / "model.mmoe"
        edit(ckpt)
        cfg = write_cfg(tmp_path, checkpoint=ckpt)
        assert shown in self.exit_2_one_line(capsys, ["predict", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_palette_with_a_flipped_byte(self, tmp_path, capsys):
        palette = tmp_path / "bad.pal"
        palette.write_bytes(PALETTE.replace(b"230", b"2\xb30"))
        cfg = write_cfg(tmp_path, palette=palette)
        assert "not UTF-8" in self.exit_2_one_line(capsys, ["train", "--config", cfg, "--out", str(tmp_path / "o")])


def fixed_network(dtype):
    """A C=16 network of uniform draws: no libm call, so the same bits everywhere."""
    rng = np.random.default_rng(0)
    spec = NetSpec(bands=8, channels=16, state_dim=8, n_class=4)
    return _build_network_params(spec, lambda name, shape: rng.random(shape) - 0.5, dtype)


class TestFormatBytes:
    """The files' digests are pinned: a writer change that moves one byte
    of either format fails here."""

    def test_bundled_scene(self, tmp_path):
        blob = hsc_bytes(tmp_path / "s.hsc", bundled_scene())
        assert hashlib.sha256(blob).hexdigest() == "20f5cdd12561e4330895944f30322a6d8b0ad5f4cac0fe28e1ec28c5807b5398"

    @pytest.mark.parametrize(
        "dtype, digest",
        [
            (np.float32, "a1b5da75db6a8e5e486b4f18bca2712c5a95bed8d9b79b2d9372e8b8e4e5244b"),
            (np.float64, "f213ef7ceef6768386b6af3e4e14d26552d15ad953abacf987a6fcce10bfd2ac"),
        ],
    )
    def test_checkpoint(self, tmp_path, dtype, digest):
        path = tmp_path / "m.mmoe"
        save_checkpoint(path, fixed_network(dtype), extra_meta={"seed": 0})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def load_peak(load, path) -> float:
    """Traced peak of ``load(path)`` as a multiple of the file's size."""
    tracemalloc.start()
    try:
        load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / path.stat().st_size


class TestLoadMemory:
    """The file is read once and parsed by offset; copying the rest of the
    file at each header line peaked at 3.9x (scene) and 5.1x (checkpoint)."""

    def test_scene(self, tmp_path):
        path = tmp_path / "s.hsc"
        save_hsc(bundled_scene(), path)
        assert load_peak(load_hsc, path) < 2.5

    def test_checkpoint_at_paper_widths(self, tmp_path):
        path = tmp_path / "m.mmoe"
        spec = NetSpec(bands=32, channels=48, state_dim=24, n_class=8)
        save_checkpoint(path, init_network_params(spec, np.random.default_rng(0)))
        assert load_peak(load_checkpoint, path) < 3.5
