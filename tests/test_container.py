"""The scene and checkpoint container and the palette under hostile bytes
(truncation, byte flips, splices) and under rewrites that know the layout
(one dtype code, extent or meta value), their exact bytes, and their load
memory."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe.cli import main
from mambamoe.data import (
    HSC_MAGIC,
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


def split_layout(blob: bytes) -> tuple[bytes, list[bytes], bytes]:
    """A ``.hsc`` or ``.mmoe`` file as its magic, its text lines and its
    payload bytes."""
    magic = HSC_MAGIC if blob.startswith(HSC_MAGIC) else CHECKPOINT_MAGIC
    head = blob[len(magic) :]
    first, second = head.split(b"\n", 2)[:2]
    if magic == HSC_MAGIC:  # header, one line per class name, provenance
        n_lines = 2 + int(first.split()[3])
    else:  # meta, entry count, one manifest line per entry
        n_lines = 2 + int(second)
    *lines, payload = head.split(b"\n", n_lines)
    return magic, lines, payload


def rewrite_meta(line: bytes, key: str, raw: str) -> bytes:
    """The checkpoint's meta line with the value of ``key`` replaced by the
    JSON text ``raw``, in ``save_checkpoint``'s key order and separators."""
    meta = json.loads(line)
    items = (f"{json.dumps(k)}: {raw if k == key else json.dumps(meta[k])}" for k in sorted(meta))
    return ("{" + ", ".join(items) + "}").encode()


def rewrite(blob: bytes, kind: str, line: int, field: int | str, value: str) -> bytes:
    """``blob`` with one value of its text lines replaced by ``value``: a
    manifest entry's dtype ``code`` or one ``extent`` of its shape (``line``
    counts the manifest lines from 0), an ``extent`` of the ``.hsc`` header,
    a ``meta`` value of the checkpoint (``field`` is its key), or a ``.hsc``
    text value (a class name or the provenance: ``line`` counts from the
    first class name).  The payload bytes are unchanged."""
    magic, lines, payload = split_layout(blob)
    if magic == HSC_MAGIC:
        if kind == "extent":
            extents = lines[0].split(b" ")
            extents[field] = value.encode()
            lines[0] = b" ".join(extents)
        else:
            lines[1 + line] = value.encode("utf-8", "surrogateescape")
    elif kind == "meta":
        lines[0] = rewrite_meta(lines[0], field, value)
    else:
        name, code, shape = lines[2 + line].decode().split(" ")
        if kind == "code":
            code = value
        else:
            dims = shape.split(",")
            dims[field] = value
            shape = ",".join(dims)
        lines[2 + line] = f"{name} {code} {shape}".encode()
    return magic + b"\n".join(lines + [payload])


EXTENTS = st.one_of(
    st.integers(-2, 40),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**24, 2**24 + 1, 2**31, 2**32 + 3, 2**63, 2**64 + 1]),
).map(str)
CODES = st.one_of(
    st.sampled_from(["f4", "f8", "f2", "f16", "i4", "u2", "b1", "c8", "O", "V8", "S4", "M8", "<f4", ">f8", "q9", ""]),
    st.text(alphabet="fiucbOVSUMm<>|=?0123456789", max_size=4),
)
JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
META_VALUES = st.one_of(JSON_VALUES.map(json.dumps), st.integers(-4, 40).map(str))
# past the parser's stack, past the int digit limit, beyond float64, and the right number in the wrong type
SPECIAL_META = ["[" * 200_000 + "]" * 200_000, "9" * 5000, "1e400", "-1e400", "NaN", "2.0", "true", '"2"']
# a class name or provenance of any bytes but a newline, UTF-8 or not
TEXT_VALUES = st.binary(max_size=12).filter(lambda b: b"\n" not in b).map(lambda b: b.decode(errors="surrogateescape"))


@st.composite
def layout_mutant(draw, blob: bytes) -> bytes:
    """``blob`` with exactly one dtype code, extent or meta value rewritten."""
    magic, lines, _ = split_layout(blob)
    if magic == HSC_MAGIC:
        kind = draw(st.sampled_from(["extent", "meta"]))
        if kind == "extent":
            return rewrite(blob, kind, 0, draw(st.integers(0, 3)), draw(EXTENTS))
        return rewrite(blob, kind, draw(st.integers(0, len(lines) - 2)), 0, draw(TEXT_VALUES))
    kind = draw(st.sampled_from(["code", "extent", "meta"]))
    if kind == "meta":
        key = draw(st.sampled_from(sorted(json.loads(lines[0]))))
        return rewrite(blob, kind, 0, key, draw(META_VALUES))
    entry = draw(st.integers(0, len(lines) - 3))
    if kind == "code":
        return rewrite(blob, kind, entry, 0, draw(CODES))
    rank = len(lines[2 + entry].split(b" ")[2].split(b","))
    return rewrite(blob, kind, entry, draw(st.integers(0, rank - 1)), draw(EXTENTS))


@pytest.mark.parametrize("fmt", ["hsc", "mmoe"])
def test_rewriting_a_value_to_itself_keeps_every_byte(valid, fmt):
    for blob in valid[1][fmt]:
        magic, lines, _ = split_layout(blob)
        if magic == HSC_MAGIC:
            assert rewrite(blob, "extent", 0, 2, lines[0].split(b" ")[2].decode()) == blob
            assert rewrite(blob, "meta", 0, 0, lines[1].decode()) == blob
        else:
            name, code, shape = lines[3].decode().split(" ")
            assert rewrite(blob, "code", 1, 0, code) == blob
            assert rewrite(blob, "extent", 1, 0, shape.split(",")[0]) == blob
            assert rewrite(blob, "meta", 0, "bands", json.dumps(json.loads(lines[0])["bands"])) == blob


def loads_or_raises_its_domain_error(tmp, fmt, blob):
    """A mutant that loads must hold what its format's writer would write:
    saved back, it gives the mutant's bytes."""
    load, error = LOADERS[fmt]
    path = tmp / f"layout-mutant.{fmt}"
    path.write_bytes(blob)
    try:
        loaded = load(path)
    except error:
        return
    if fmt == "hsc":
        save_hsc(loaded, path)
    else:
        save_checkpoint(path, loaded[0])
    assert path.read_bytes() == blob


@pytest.mark.parametrize("fmt", ["hsc", "mmoe"])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_layout_mutant_loads_or_raises_its_domain_error(valid, fmt, data):
    tmp, files = valid
    loads_or_raises_its_domain_error(tmp, fmt, data.draw(layout_mutant(data.draw(st.sampled_from(files[fmt])))))


@pytest.mark.parametrize("raw", SPECIAL_META, ids=["deep", "digits", "1e400", "-1e400", "nan", "2.0", "true", "string"])
def test_every_meta_value_rewritten_to_a_special_loads_or_raises_checkpoint_error(valid, raw):
    tmp, files = valid
    for blob in files["mmoe"]:
        for key in json.loads(split_layout(blob)[1][0]):
            loads_or_raises_its_domain_error(tmp, "mmoe", rewrite(blob, "meta", 0, key, raw))


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

    def test_bundled_scene(self, tmp_path, bundled_scene_sha256):
        blob = hsc_bytes(tmp_path / "s.hsc", bundled_scene())
        assert hashlib.sha256(blob).hexdigest() == bundled_scene_sha256

    @pytest.mark.parametrize(
        "dtype, digest",
        [
            (np.float32, "134cdf65d9f8ba4cafb18b327848d234f4f72fe1eed1750ae60a48773271a957"),
            (np.float64, "e4f5bdddceb451343b863ff98f3f5e8c0d4b28897edd7bdead1ac6ca6249f042"),
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
