"""Scene container format, synthetic scene generator, normalization, map
rendering.

The ``.hsc`` container is deliberately minimal: a text header followed by
raw little-endian payloads, so round-trips are bit-exact and loaders need
no third-party format stack.  The synthetic generator paints orientation
patterns (vertical stripes, horizontal stripes, a disc) whose class
signatures are separated well beyond the noise level, so a
nearest-signature classifier can verify the scene is learnable before any
training happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

HSC_MAGIC = b"HSC1\n"
MAX_EXTENT = 1 << 24  # sanity bound on header extents


class HscError(ValueError):
    """Base class for scene container errors."""


class BadMagicError(HscError):
    pass


class TruncatedFileError(HscError):
    pass


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

    Label 0 means unlabeled; classes are 1..n_class and every declared
    class must appear at least once.
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
        if self.labels.max(initial=0) > h.n_class:
            raise ExtentError(f"label id {int(self.labels.max())} exceeds declared class count {h.n_class}")
        present = np.unique(self.labels)
        for cls in range(1, h.n_class + 1):
            if cls not in present:
                raise ExtentError(f"declared class {cls} has no labeled pixel")


def save_hsc(scene: HsiScene, path) -> None:
    scene.validate()
    h = scene.header
    for name in h.class_names:
        if "\n" in name:
            raise HscError(f"class name {name!r} must not contain newlines")
    with open(path, "wb") as fh:
        fh.write(HSC_MAGIC)
        fh.write(f"{h.bands} {h.height} {h.width} {h.n_class}\n".encode("ascii"))
        for name in h.class_names:
            fh.write((name + "\n").encode("utf-8"))
        fh.write((h.provenance.replace("\n", " ") + "\n").encode("utf-8"))
        fh.write(scene.cube.astype("<f4", copy=False).tobytes())
        fh.write(scene.labels.astype("<u2", copy=False).tobytes())


def load_hsc(path) -> HsiScene:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(HSC_MAGIC):
        raise BadMagicError(f"{path}: not an HSC file (bad magic)")
    rest = blob[len(HSC_MAGIC) :]

    def take_line(buf: bytes, what: str) -> tuple[str, bytes]:
        idx = buf.find(b"\n")
        if idx < 0:
            raise TruncatedFileError(f"{path}: truncated in {what}")
        try:
            return buf[:idx].decode("utf-8"), buf[idx + 1 :]
        except UnicodeDecodeError as exc:
            raise HscError(f"{path}: {what} is not UTF-8 (byte {exc.start})") from exc

    header_line, rest = take_line(rest, "header")
    try:
        bands, height, width, n_class = (int(tok) for tok in header_line.split())
    except ValueError as exc:
        raise HscError(f"{path}: malformed header line {header_line!r}") from exc
    for name, value in (("bands", bands), ("height", height), ("width", width), ("classes", n_class)):
        if not 1 <= value <= MAX_EXTENT:
            raise ExtentError(f"{path}: header {name}={value} outside [1, {MAX_EXTENT}]")
    class_names = []
    for i in range(n_class):
        name, rest = take_line(rest, f"class name {i + 1}")
        class_names.append(name)
    provenance, rest = take_line(rest, "provenance")

    cube_bytes = 4 * bands * height * width
    label_bytes = 2 * height * width
    if len(rest) < cube_bytes + label_bytes:
        raise TruncatedFileError(f"{path}: payload is {len(rest)} bytes, expected {cube_bytes + label_bytes}")
    if len(rest) > cube_bytes + label_bytes:
        raise HscError(f"{path}: {len(rest) - cube_bytes - label_bytes} trailing bytes after payload")
    cube = np.frombuffer(rest[:cube_bytes], dtype="<f4").reshape(bands, height, width).astype(np.float32, copy=True)
    if not np.isfinite(cube).all():
        band, row, col = (int(i) for i in np.argwhere(~np.isfinite(cube))[0])
        value = cube[band, row, col]
        raise HscError(f"{path}: non-finite value {value} in band {band} at pixel (row {row}, col {col})")
    labels = (
        np.frombuffer(rest[cube_bytes:], dtype="<u2").reshape(height, width).astype(np.uint16, copy=True)
    )
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
        by_orient = {}
        for cls in self.classes:
            if cls.signature.shape != (self.bands,):
                raise ValueError(f"class {cls.name}: signature length {cls.signature.shape} != bands {self.bands}")
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
    """Signature-per-class cube plus per-band Gaussian noise; fully labeled."""
    labels = synthetic_label_map(spec)
    sig_table = np.zeros((len(spec.classes) + 1, spec.bands))
    for i, cls in enumerate(spec.classes):
        sig_table[i + 1] = cls.signature
    cube = sig_table[labels].transpose(2, 0, 1)  # (bands, H, W)
    rng = np.random.default_rng(spec.seed)
    cube = cube + spec.noise_sigma * rng.standard_normal(cube.shape)
    header = SceneHeader(
        bands=spec.bands,
        height=spec.height,
        width=spec.width,
        n_class=len(spec.classes),
        class_names=[cls.name for cls in spec.classes],
        provenance=f"synthetic seed={spec.seed} sigma={spec.noise_sigma}",
    )
    scene = HsiScene(header, cube.astype(np.float32), labels)
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


def nearest_signature_predict(spec: SyntheticSpec, cube: np.ndarray) -> np.ndarray:
    """Independent per-pixel classifier: argmin distance to class signatures."""
    sigs = np.stack([cls.signature for cls in spec.classes])  # (K, B)
    flat = cube.reshape(cube.shape[0], -1).T  # (N, B)
    d2 = ((flat[:, None, :] - sigs[None, :, :]) ** 2).sum(axis=2)
    return (d2.argmin(axis=1) + 1).astype(np.uint16).reshape(cube.shape[1:])


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
    """Text palette: one `id r g b` line per class; `#` starts a comment."""
    palette: dict[int, tuple[int, int, int]] = {}
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
