"""Scene and checkpoint container, synthetic scene generator,
normalization, map rendering.

The container is deliberately minimal: a magic line, text lines, then raw
little-endian payloads and no trailing bytes, so round-trips are bit-exact
and loaders need no third-party format stack.  ``ContainerReader`` and
``write_container`` own it for ``.hsc`` scenes and ``network``'s ``.mmoe``
checkpoints.  The synthetic generator paints orientation patterns (vertical
stripes, horizontal stripes, a disc) whose class signatures are separated
well beyond the noise level, so a nearest-signature classifier can verify
the scene is learnable before any training happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensor import Tensor

HSC_MAGIC = b"HSC1\n"
MAX_EXTENT = 1 << 24  # sanity bound on header extents


class HscError(ValueError):
    """Malformed scene container file."""


class ExtentError(HscError):
    """Header extents or label values outside their valid range."""


class PaletteError(ValueError):
    pass


@dataclass
class SceneHeader:
    bands: int
    height: int
    width: int
    n_class: int
    class_names: list[str]
    provenance: str


@dataclass
class HsiScene:
    """Spectral cube (bands, H, W) float32 + label raster (H, W) uint16.

    Label 0 means unlabeled; classes are 1..n_class, no label is negative,
    and every declared class must appear at least once.
    """

    header: SceneHeader
    cube: np.ndarray
    labels: np.ndarray

    def validate(self) -> None:
        h = self.header
        if self.cube.shape != (h.bands, h.height, h.width):
            raise ExtentError(f"cube shape {self.cube.shape} does not match header {h.bands}x{h.height}x{h.width}")
        if self.labels.shape != (h.height, h.width):
            raise ExtentError(f"label shape {self.labels.shape} does not match header {h.height}x{h.width}")
        if len(h.class_names) != h.n_class:
            raise ExtentError(f"{len(h.class_names)} class names declared for {h.n_class} classes")
        if self.labels.min(initial=0) < 0:
            raise ExtentError(f"label id {int(self.labels.min())} is negative")
        if self.labels.max(initial=0) > h.n_class:
            raise ExtentError(f"label id {int(self.labels.max())} exceeds declared class count {h.n_class}")
        present = np.unique(self.labels)
        for cls in range(1, h.n_class + 1):
            if cls not in present:
                raise ExtentError(f"declared class {cls} has no labeled pixel")


def _check_finite(cube: np.ndarray, path) -> None:
    """Refuse a (bands, H, W) cube holding NaN or Inf, naming the first one."""
    if not np.isfinite(cube).all():
        band, row, col = (int(i) for i in np.argwhere(~np.isfinite(cube))[0])
        value = cube[band, row, col]
        raise HscError(f"{path}: non-finite value {value} in band {band} at pixel (row {row}, col {col})")


class ContainerReader:
    """Parser of one container file, read once and walked by offset.

    ``line``, ``array`` and ``end`` consume the file in order; each fault
    raises ``error`` (the format's own error class) naming the file.
    """

    def __init__(self, path, magic: bytes, error: type[ValueError]):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path, self.error = path, error
        if not self.blob.startswith(magic):
            raise error(f"{path}: bad magic; expected {magic!r}")
        self.at = len(magic)

    def line(self, what: str) -> str:
        """The next newline-terminated line, decoded as UTF-8."""
        end = self.blob.find(b"\n", self.at)
        if end < 0:
            raise self.error(f"{self.path}: truncated in {what}")
        try:
            text = self.blob[self.at : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{self.path}: {what} is not UTF-8 (byte {exc.start})") from exc
        self.at = end + 1
        return text

    def array(self, code: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A native-order copy of the next little-endian payload of dtype
        ``code`` and ``shape``."""
        if any(s < 0 for s in shape):
            raise self.error(f"{self.path}: negative extent in shape {shape} of {what}")
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a short payload
        dt = np.dtype("<" + code)
        if len(self.blob) - self.at < count * dt.itemsize:
            raise self.error(f"{self.path}: truncated in {what}")
        arr = np.frombuffer(self.blob, dtype=dt, count=count, offset=self.at)
        self.at += count * dt.itemsize
        return arr.reshape(shape).astype(np.dtype(code), copy=True)

    def end(self) -> None:
        """Refuse bytes after the last payload."""
        if self.at != len(self.blob):
            raise self.error(f"{self.path}: {len(self.blob) - self.at} trailing bytes after payload")


def write_container(path, magic: bytes, lines: Iterable[str], payloads: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write ``magic``, each line UTF-8 encoded and newline-terminated, then
    each ``(code, array)`` payload as little-endian ``code`` in C order.
    Lines must hold no newline."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))
        for code, arr in payloads:
            fh.write(arr.astype("<" + code, copy=False).tobytes())


def save_hsc(scene: HsiScene, path) -> None:
    scene.validate()
    h = scene.header
    for name in h.class_names:
        if "\n" in name:
            raise HscError(f"class name {name!r} must not contain newlines")
    with np.errstate(over="ignore"):  # a finite float64 beyond the float32 range becomes inf, refused below
        cube = scene.cube.astype("<f4", copy=False)
    _check_finite(cube, path)
    lines = [f"{h.bands} {h.height} {h.width} {h.n_class}", *h.class_names, h.provenance.replace("\n", " ")]
    write_container(path, HSC_MAGIC, lines, [("f4", cube), ("u2", scene.labels)])


def load_hsc(path) -> HsiScene:
    reader = ContainerReader(path, HSC_MAGIC, HscError)
    header_line = reader.line("header")
    try:
        bands, height, width, n_class = (int(tok) for tok in header_line.split())
    except ValueError as exc:
        raise HscError(f"{path}: malformed header line {header_line!r}") from exc
    for name, value in (("bands", bands), ("height", height), ("width", width), ("classes", n_class)):
        if not 1 <= value <= MAX_EXTENT:
            raise ExtentError(f"{path}: header {name}={value} outside [1, {MAX_EXTENT}]")
    class_names = [reader.line(f"class name {i + 1}") for i in range(n_class)]
    provenance = reader.line("provenance")
    cube = reader.array("f4", (bands, height, width), "cube")
    labels = reader.array("u2", (height, width), "labels")
    reader.end()
    del reader  # the file's bytes go before the finite check's mask is made
    _check_finite(cube, path)
    scene = HsiScene(SceneHeader(bands, height, width, n_class, class_names, provenance), cube, labels)
    scene.validate()
    return scene


# --- synthetic scenes ---------------------------------------------------------

ORIENTATIONS = ("vertical", "horizontal", "blob", "background")


@dataclass
class SynthClass:
    name: str
    orientation: str
    signature: np.ndarray  # (bands,)
    stripe_period: int = 8

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        self.signature = np.asarray(self.signature, dtype=np.float64)


@dataclass
class SyntheticSpec:
    """Recipe for a deterministic orientation-patterned scene.

    At most one class per orientation; a background class is mandatory.
    The grid splits into a top band (vertical stripes alternating with
    background), a bottom-left quadrant (horizontal stripes) and a
    bottom-right quadrant (a disc); background fills everything else.
    """

    height: int
    width: int
    bands: int
    classes: list[SynthClass]
    noise_sigma: float
    seed: int

    def validate(self) -> None:
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        by_orient = {}
        for cls in self.classes:
            if cls.signature.shape != (self.bands,):
                raise ValueError(f"class {cls.name}: signature length {cls.signature.shape} != bands {self.bands}")
            if not np.isfinite(cls.signature).all():
                raise ValueError(f"class {cls.name}: signature holds a non-finite value")
            if cls.stripe_period < 1:
                raise ValueError(f"class {cls.name}: stripe_period must be >= 1, got {cls.stripe_period}")
            if cls.orientation in by_orient:
                raise ValueError(f"duplicate orientation {cls.orientation}")
            by_orient[cls.orientation] = cls
        if "background" not in by_orient:
            raise ValueError("a background class is required")
        sigs = [cls.signature for cls in self.classes]
        for i in range(len(sigs)):
            for j in range(i + 1, len(sigs)):
                dist = float(np.linalg.norm(sigs[i] - sigs[j]))
                if dist <= 5.0 * self.noise_sigma:
                    raise ValueError(
                        f"signatures of {self.classes[i].name} and {self.classes[j].name} are "
                        f"{dist:.3f} apart; need > 5 * noise_sigma = {5 * self.noise_sigma:.3f}"
                    )


def synthetic_label_map(spec: SyntheticSpec) -> np.ndarray:
    """Deterministic class raster implied by the spec's partition."""
    spec.validate()
    ids = {cls.orientation: i + 1 for i, cls in enumerate(spec.classes)}
    h, w = spec.height, spec.width
    labels = np.full((h, w), ids["background"], dtype=np.uint16)
    top = h // 2
    if "vertical" in ids:
        cls = next(c for c in spec.classes if c.orientation == "vertical")
        cols = (np.arange(w) // cls.stripe_period) % 2 == 0
        labels[:top, cols] = ids["vertical"]
    if "horizontal" in ids:
        cls = next(c for c in spec.classes if c.orientation == "horizontal")
        rows = (np.arange(top, h) // cls.stripe_period) % 2 == 0
        labels[top:, : w // 2][rows, :] = ids["horizontal"]
    if "blob" in ids:
        cy, cx = top + (h - top) // 2, w // 2 + (w - w // 2) // 2
        radius = min(h - top, w - w // 2) * 0.34
        yy, xx = np.mgrid[0:h, 0:w]
        disc = ((yy - cy) ** 2 + (xx - cx) ** 2) <= radius**2
        disc[:top] = False
        disc[:, : w // 2] = False
        labels[disc] = ids["blob"]
    return labels


def generate_synthetic(spec: SyntheticSpec) -> HsiScene:
    """Signature-per-class cube plus per-band Gaussian noise; fully labeled.

    Draws the cube band by band from one generator seeded with
    ``spec.seed``: each band's noise fills one reused float64 (H, W)
    buffer, is scaled by ``noise_sigma``, gets the band's class signatures
    through the label map, and is cast into that band of the float32 cube.
    That is the same stream, in the same order, and the same two float64
    operations per element as a whole-cube draw of
    ``sig_table[labels].transpose(2, 0, 1) + noise_sigma * noise``, so the
    bits are the same.  The peak is about the float32 cube plus three
    (H, W) arrays of 8-byte items: the buffer, the label index and one
    band's gathered signatures.
    """
    labels = synthetic_label_map(spec)
    band_sigs = np.zeros((spec.bands, len(spec.classes) + 1))  # row b: band b of every class, label 0 first
    for i, cls in enumerate(spec.classes):
        band_sigs[:, i + 1] = cls.signature
    rng = np.random.default_rng(spec.seed)
    cube = np.empty((spec.bands, spec.height, spec.width), dtype=np.float32)
    band = np.empty((spec.height, spec.width))
    index = labels.astype(np.intp)  # indexing by the uint16 labels would convert them in every band
    for sigs, dst in zip(band_sigs, cube):
        rng.standard_normal(out=band)
        band *= spec.noise_sigma
        band += sigs[index]
        dst[...] = band
    header = SceneHeader(
        bands=spec.bands,
        height=spec.height,
        width=spec.width,
        n_class=len(spec.classes),
        class_names=[cls.name for cls in spec.classes],
        provenance=f"synthetic seed={spec.seed} sigma={spec.noise_sigma}",
    )
    scene = HsiScene(header, cube, labels)
    scene.validate()
    return scene


def default_synthetic_spec(seed: int = 11) -> SyntheticSpec:
    """The bundled 4-class 32x32 scene used by the experiment scripts."""
    bands = 8

    def sig(*hot):
        s = np.zeros(bands)
        for i in hot:
            s[i] = 1.25
        return s

    return SyntheticSpec(
        height=32,
        width=32,
        bands=bands,
        classes=[
            SynthClass("stripes-vertical", "vertical", sig(0, 1), stripe_period=8),
            SynthClass("stripes-horizontal", "horizontal", sig(2, 3), stripe_period=8),
            SynthClass("disc", "blob", sig(4, 5)),
            SynthClass("background", "background", sig(6, 7)),
        ],
        noise_sigma=0.25,
        seed=seed,
    )


# --- normalization ------------------------------------------------------------


def normalize_scene(scene: HsiScene) -> Tensor:
    """Per-band z-score over the whole scene; constant bands map to zeros.

    Works one band at a time in float64, so the only cube-sized array is the
    float32 result.  Per band it computes what the whole-cube formula
    ``(cube - mu) / max(cube.std(), 1e-8)`` computes, in the same order, so
    the bits are the same.
    """
    out = np.empty(scene.cube.shape, dtype=np.float32)
    for band, dst in zip(scene.cube, out):
        d = band.astype(np.float64)
        d -= d.mean()
        sigma = max(np.sqrt(np.mean(d * d)), 1e-8)
        np.divide(d, sigma, out=dst)
    return Tensor(out)


# --- rendering ------------------------------------------------------------------

_DEFAULT_COLORS = [
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (210, 245, 60),
    (250, 190, 212),
    (0, 128, 128),
    (220, 190, 255),
    (170, 110, 40),
    (255, 250, 200),
    (128, 0, 0),
    (170, 255, 195),
]


def default_palette(n_class: int) -> dict[int, tuple[int, int, int]]:
    palette = {0: (0, 0, 0)}
    for cls in range(1, n_class + 1):
        palette[cls] = _DEFAULT_COLORS[(cls - 1) % len(_DEFAULT_COLORS)]
    return palette


def load_palette(path) -> dict[int, tuple[int, int, int]]:
    """Text palette: one `id r g b` line per class; `#` starts a comment.
    A class id below 0, which no label holds, or a second line for one id
    is a ``PaletteError`` naming the line."""
    palette: dict[int, tuple[int, int, int]] = {}
    first_line: dict[int, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PaletteError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        if len(toks) != 4:
            raise PaletteError(f"{path}:{lineno}: expected `id r g b`, got {line.rstrip()!r}")
        try:
            cid, r, g, b = (int(t) for t in toks)
        except ValueError as exc:
            raise PaletteError(f"{path}:{lineno}: expected integers `id r g b`, got {line.rstrip()!r}") from exc
        if not all(0 <= v <= 255 for v in (r, g, b)):
            raise PaletteError(f"{path}:{lineno}: rgb components must be in [0, 255]")
        if cid < 0:
            raise PaletteError(f"{path}:{lineno}: class id {cid} is below 0")
        if cid in first_line:
            raise PaletteError(f"{path}:{lineno}: class id {cid} already has a color on line {first_line[cid]}")
        first_line[cid] = lineno
        palette[cid] = (r, g, b)
    return palette


def render_map(labels: np.ndarray, palette: dict[int, tuple[int, int, int]], path) -> None:
    """Write a binary P6 PPM of the class map (8 bits per channel)."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise PaletteError(f"render_map: expects (H,W) integer raster, got {labels.shape}")
    h, w = labels.shape
    ids = np.unique(labels)
    lut = np.zeros((int(ids.max(initial=0)) + 1, 3), dtype=np.uint8)
    for cid in ids:
        cid = int(cid)
        if cid in palette:
            lut[cid] = palette[cid]
        elif cid == 0:
            lut[0] = (0, 0, 0)
        else:
            raise PaletteError(f"render_map: class id {cid} has no palette entry")
    rgb = lut[labels]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
