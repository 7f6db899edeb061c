"""Full network assembly: encoder, fusion decoder, uncertainty-guided stage
supervision, total loss, and checkpoint serialization.

The encoder is three conv+ReLU+avgpool stages, each one fused op whose
forward pass never builds its full-resolution map, and each followed by a
mixture-of-expert block; the decoder fuses stages coarse-to-fine through
residual blocks and bilinear upsampling; stage 1's head is the prediction.
The head is a 1x1 conv and the upsample of its logits, which it commutes
with because every interpolation row sums to 1; no softmax is taken.
During training each decoder stage additionally feeds a cross-entropy term
over the training labels at pixels sampled by the uncertainty of its
logits; at inference those blocks are skipped entirely and no randomness
is consumed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as tt
from .moe import MoMebParams, RouterParams, momeb_forward
from .scan import SsmParams
from .tensor import ShapeError, Tensor, parameter

CHECKPOINT_MAGIC = b"MMOE1\n"
CHECKPOINT_VERSION = 2  # version 1 held dense (D, D) transition matrices
_DTYPE_CODES = {"float32": "f4", "float64": "f8"}
UNCERTAINTY_EPS = 1e-6
N_STAGES = 3


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass(frozen=True)
class NetSpec:
    """What defines a network: input bands, channel width C, SSM state dim D
    and class count, plus the ablation switches for the expert blocks
    (``momeb_on``) and, inside them, the spatial (``sre_on``) and spectral
    (``sse_on``) experts.  A switched-off part passes its input through; its
    parameters still exist, so the parameter tree never depends on them."""

    bands: int
    channels: int
    state_dim: int
    n_class: int
    momeb_on: bool = True
    sre_on: bool = True
    sse_on: bool = True

    def __post_init__(self):
        if self.channels < 2 or self.channels % 2 != 0:
            raise ShapeError(f"NetSpec: channel width must be even and >= 2, got {self.channels}")
        if min(self.bands, self.state_dim, self.n_class) < 1:
            raise ShapeError(f"NetSpec: widths must be positive, got {self}")
        for name in ("momeb_on", "sre_on", "sse_on"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"NetSpec: {name} must be a bool, got {getattr(self, name)!r}")


@dataclass
class StemParams:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    conv3_w: Tensor
    conv3_b: Tensor


@dataclass
class ResBlockParams:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor


@dataclass
class HeadParams:
    w: Tensor  # (K, C, 1, 1)
    b: Tensor  # (K,)


@dataclass
class NetworkParams:
    spec: NetSpec
    stem: StemParams
    momeb: tuple[MoMebParams, MoMebParams, MoMebParams]
    ffb: tuple[ResBlockParams, ResBlockParams, ResBlockParams]
    head: HeadParams
    named: list[tuple[str, Tensor]] = field(repr=False)  # every parameter as built, checkpoint order

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self.named)

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def param_count(self) -> int:
        return sum(t.size for t in self.tensors())


def _build_network_params(spec: NetSpec, alloc: Callable[[str, tuple[int, ...]], np.ndarray], dtype) -> NetworkParams:
    """Construct the parameter tree, pulling every array from ``alloc``.

    The same builder serves random initialization and checkpoint loading,
    so the parameter layout cannot drift between the two.  Each tensor is
    recorded under its name as it is allocated.
    """
    named: list[tuple[str, Tensor]] = []

    def p(name, shape):
        arr = alloc(name, shape)
        if arr.shape != shape:
            raise CheckpointError(f"{name}: expected shape {shape}, got {arr.shape}")
        t = parameter(arr, dtype=dtype)
        named.append((name, t))
        return t

    c, d, k_cls, bands = spec.channels, spec.state_dim, spec.n_class, spec.bands
    half = c // 2
    hidden = max(half // 2, 1)

    stem = StemParams(
        p("stem.conv1.w", (c, bands, 3, 3)),
        p("stem.conv1.b", (c,)),
        p("stem.conv2.w", (c, c, 3, 3)),
        p("stem.conv2.b", (c,)),
        p("stem.conv3.w", (c, c, 3, 3)),
        p("stem.conv3.b", (c,)),
    )

    def ssm(prefix, e):
        return SsmParams(
            p(f"{prefix}.a_log", (d,)),
            p(f"{prefix}.b_bar", (d, e)),
            p(f"{prefix}.c_out", (e, d)),
        )

    def momeb(prefix):
        return MoMebParams(
            ln1_gamma=p(f"{prefix}.ln1.gamma", (c,)),
            ln1_beta=p(f"{prefix}.ln1.beta", (c,)),
            ln2_gamma=p(f"{prefix}.ln2.gamma", (c,)),
            ln2_beta=p(f"{prefix}.ln2.beta", (c,)),
            spatial=tuple(ssm(f"{prefix}.spatial{j}", half) for j in range(4)),
            spectral_fwd=ssm(f"{prefix}.spectral_fwd", 1),
            spectral_bwd=ssm(f"{prefix}.spectral_bwd", 1),
            router=RouterParams(
                p(f"{prefix}.router.w1", (hidden, half)),
                p(f"{prefix}.router.b1", (hidden,)),
                p(f"{prefix}.router.w2", (4, hidden)),
                p(f"{prefix}.router.b2", (4,)),
            ),
            fuse_w=p(f"{prefix}.fuse.w", (c, c, 1, 1)),
            fuse_b=p(f"{prefix}.fuse.b", (c,)),
            mlp_w1=p(f"{prefix}.mlp1.w", (2 * c, c, 1, 1)),
            mlp_b1=p(f"{prefix}.mlp1.b", (2 * c,)),
            mlp_w2=p(f"{prefix}.mlp2.w", (c, 2 * c, 1, 1)),
            mlp_b2=p(f"{prefix}.mlp2.b", (c,)),
        )

    def res(prefix):
        return ResBlockParams(
            p(f"{prefix}.conv1.w", (c, c, 3, 3)),
            p(f"{prefix}.conv1.b", (c,)),
            p(f"{prefix}.conv2.w", (c, c, 3, 3)),
            p(f"{prefix}.conv2.b", (c,)),
        )

    return NetworkParams(
        spec=spec,
        stem=stem,
        momeb=tuple(momeb(f"momeb{i}") for i in (1, 2, 3)),
        ffb=tuple(res(f"ffb{i}.res") for i in (1, 2, 3)),
        head=HeadParams(p("head.w", (k_cls, c, 1, 1)), p("head.b", (k_cls,))),
        named=named,
    )


def init_network_params(spec: NetSpec, rng: np.random.Generator, dtype=np.float32) -> NetworkParams:
    """He-normal convs with zero biases; LN affine at identity; SSM decays
    near 0.9 and projections N(0, 1/D)."""

    def alloc(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith(".b") or name.endswith(".beta") or name.endswith(".b1") or name.endswith(".b2"):
            return np.zeros(shape)
        if name.endswith(".gamma"):
            return np.ones(shape)
        if name.endswith(".a_log"):  # decay lam = exp(-exp(a_log)) = 0.9 + N(0, 0.01^2)
            return np.log(-np.log(0.9 + rng.normal(0.0, 0.01, shape)))
        if name.endswith(".b_bar") or name.endswith(".c_out"):
            return rng.normal(0.0, 1.0 / np.sqrt(spec.state_dim), shape)
        if ".router.w1" in name:
            return rng.normal(0.0, np.sqrt(2.0 / shape[1]), shape)
        if ".router.w2" in name:
            return rng.normal(0.0, np.sqrt(1.0 / shape[1]), shape)
        if name.endswith(".w"):  # conv kernels (C_out, C_in, k, k)
            fan_in = shape[1] * shape[2] * shape[3]
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        raise ShapeError(f"init_network_params: no rule for parameter {name}")

    return _build_network_params(spec, alloc, dtype)


# --- encoder / decoder -------------------------------------------------------


def stage_sizes(height: int, width: int) -> list[tuple[int, int]]:
    """Spatial extents after each of the three pooling stages; a scene under
    8x8, whose third stage would vanish, raises ShapeError."""
    if height < 8 or width < 8:
        raise ShapeError(f"scene {height}x{width} too small; the third stage would vanish")
    sizes = []
    h, w = height, width
    for _ in range(N_STAGES):
        h, w = h // 2, w // 2
        sizes.append((h, w))
    return sizes


def extract_features(stem: StemParams, x: Tensor) -> list[Tensor]:
    """Three conv+ReLU+avgpool stages; each halves the spatial extent.

    Each stage is one ``tt.conv_relu_pool`` op, which pools each row block
    of the conv as it is made: no stage's forward pass builds its
    full-resolution map.  A scene under 8x8 raises ShapeError
    (``stage_sizes``)."""
    if x.ndim != 3:
        raise ShapeError(f"extract_features: expects (B,H,W), got {x.shape}")
    try:
        stage_sizes(*x.shape[1:])
    except ShapeError as exc:
        raise ShapeError(f"extract_features: {exc}") from None
    f1 = tt.conv_relu_pool(x, stem.conv1_w, stem.conv1_b)
    f2 = tt.conv_relu_pool(f1, stem.conv2_w, stem.conv2_b)
    f3 = tt.conv_relu_pool(f2, stem.conv3_w, stem.conv3_b)
    return [f1, f2, f3]


def residual_block(p: ResBlockParams, x: Tensor) -> Tensor:
    """x + Conv2(ReLU(Conv1(ReLU(x))))."""
    y = tt.relu(x)
    y = tt.conv2d(y, p.conv1_w, p.conv1_b)
    y = tt.relu(y)
    y = tt.conv2d(y, p.conv2_w, p.conv2_b)
    return tt.add(x, y)


def ffb(p: ResBlockParams, m_i: Tensor, l_next: Tensor | None = None) -> Tensor:
    """Deepest stage: Res(M_3).  Other stages: M_i + Res(Up(L_{i+1}))."""
    if l_next is None:
        return residual_block(p, m_i)
    _, h, w = m_i.shape
    up = tt.bilinear_upsample(l_next, (h, w))
    return tt.add(m_i, residual_block(p, up))


def classify_head(head: HeadParams, feats: Tensor, target_hw: tuple[int, int]) -> Tensor:
    """1x1-head logits of ``feats`` upsampled to ``target_hw``: the head of the
    upsampled features, as interpolation rows sum to 1."""
    return tt.bilinear_upsample(tt.conv2d(feats, head.w, head.b), target_hw)


# --- uncertainty-guided stage supervision ------------------------------------


def uncertainty_map(logits: np.ndarray) -> np.ndarray:
    """Per-pixel uncertainty in [0, 1] of (K, h, w) logits: -log(P + eps) * P
    of the max class probability P, clamped (the raw value dips just below 0
    at P = 1).  P = 1 / sum(exp(l - max l)) is the softmax's max bit for bit:
    the max entry's exp is exactly 1, and division is monotone."""
    a = np.asarray(logits)
    if a.ndim != 3:
        raise ShapeError(f"uncertainty_map: expects (K,h,w) logits, got {a.shape}")
    p = 1 / np.exp(a - a.max(axis=0)).sum(axis=0)
    return np.clip(-np.log(p + UNCERTAINTY_EPS) * p, 0.0, 1.0)


@dataclass
class StageOutput:
    """One decoder stage's supervision: its logits, uncertainty and the
    Bernoulli mask of pixels whose training labels it is fitted to."""

    logits: Tensor
    uncertainty: np.ndarray  # (h, w) in [0, 1]
    mask: np.ndarray  # (h, w) bool


def uarb(logits: Tensor, rng: np.random.Generator | None) -> StageOutput:
    """Uncertainty-sampled stage supervision (training only).

    Takes one stage's ``classify_head`` logits (stage 1's are the
    prediction) and selects each pixel independently with probability equal
    to its uncertainty: selected iff ``rng.random() < U``, drawn in row-major
    pixel order.  Reads only ``logits.data`` and records no tape op.  A
    generator seeded the same way draws the same mask.
    """
    if rng is None:
        raise RuntimeError("uarb: training rng required (block is omitted at inference)")
    u = uncertainty_map(logits.data)
    return StageOutput(logits=logits, uncertainty=u, mask=rng.random(u.shape) < u)


# --- full forward and loss ----------------------------------------------------


@dataclass
class ForwardResult:
    final_logits: Tensor
    stages: list[StageOutput] = field(default_factory=list)


def forward_full(
    params: NetworkParams,
    x: Tensor,
    *,
    train: bool,
    topk: int | None = None,
    mask_rng: np.random.Generator | None = None,
    uarb_on: bool = True,
) -> ForwardResult:
    """Run the whole pipeline on one scene.

    Training mode uses dense experts (topk ignored) and, when enabled,
    the uncertainty-sampled stage supervision, whose three masks are drawn
    from ``mask_rng`` in stage order (a fresh generator from the same seed
    gives the same masks); inference uses top-k expert selection and
    consumes no randomness.  The ablation switches come from ``params.spec``.
    """
    _, h, w = x.shape
    effective_topk = None if train else topk
    spec = params.spec
    feats = extract_features(params.stem, x)
    del x  # at inference nothing else holds the scene, so it is freed here
    if spec.momeb_on:
        # each stage's map gives way to its MoMEB output
        for i in range(N_STAGES):
            feats[i] = momeb_forward(
                params.momeb[i], feats[i], topk=effective_topk, sre_on=spec.sre_on, sse_on=spec.sse_on
            )
    l3 = ffb(params.ffb[2], feats[2])
    l2 = ffb(params.ffb[1], feats[1], l3)
    l1 = ffb(params.ffb[0], feats[0], l2)

    final_logits = classify_head(params.head, l1, (h, w))
    stages: list[StageOutput] = []
    if train and uarb_on:
        heads = [final_logits] + [classify_head(params.head, l_i, (h, w)) for l_i in (l2, l3)]
        stages = [uarb(logits, mask_rng) for logits in heads]
    return ForwardResult(final_logits=final_logits, stages=stages)


def total_loss(stages: Sequence[StageOutput], y_trn: np.ndarray, final_logits: Tensor) -> Tensor:
    """Sum of each stage's cross-entropy over the training labels its mask
    selects, plus the final prediction's over every training label, all
    equally weighted; stages with empty masks contribute exactly 0.
    ``y_trn`` holds the training labels, 0 elsewhere."""
    loss = None
    for st in stages:
        term = tt.masked_cross_entropy(st.logits, y_trn, st.mask)
        loss = term if loss is None else tt.add(loss, term)
    final_term = tt.masked_cross_entropy(final_logits, y_trn, np.ones(y_trn.shape, dtype=bool))
    return final_term if loss is None else tt.add(loss, final_term)


# --- checkpoint io -------------------------------------------------------------


def save_checkpoint(path, params: NetworkParams, extra_meta: dict | None = None) -> None:
    """Versioned binary container: magic, JSON meta line, manifest, payloads.

    Payloads are raw little-endian in manifest order; round-trips are
    bit-exact.  The meta line holds every ``NetSpec`` field, which
    ``extra_meta`` cannot override.
    """
    meta = {**(extra_meta or {}), "version": CHECKPOINT_VERSION, **asdict(params.spec)}
    entries = params.named_params()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(f"{len(entries)}\n".encode("ascii"))
        for name, t in entries:
            dtype_code = _DTYPE_CODES[t.data.dtype.name]
            shape_txt = ",".join(str(s) for s in t.shape)
            fh.write(f"{name} {dtype_code} {shape_txt}\n".encode("ascii"))
        for _, t in entries:
            le = t.data.astype("<" + _DTYPE_CODES[t.data.dtype.name], copy=False)
            fh.write(le.tobytes())


def load_checkpoint(path) -> tuple[NetworkParams, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    body = blob[len(CHECKPOINT_MAGIC) :]
    try:
        meta_line, rest = body.split(b"\n", 1)
        meta = json.loads(meta_line.decode("utf-8"))
        count_line, rest = rest.split(b"\n", 1)
        n_entries = int(count_line)
    except (ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r} is not {CHECKPOINT_VERSION}; version-1 files hold dense "
            "a_bar matrices, which do not convert to the diagonal decay a_log: retrain the model"
        )
    manifest = []
    for _ in range(n_entries):
        try:
            line, rest = rest.split(b"\n", 1)
        except ValueError as exc:
            raise CheckpointError(f"{path}: truncated manifest") from exc
        try:  # UnicodeDecodeError is a ValueError too
            name, dtype_code, shape_txt = line.decode("ascii").split(" ")
            shape = tuple(int(s) for s in shape_txt.split(",")) if shape_txt else ()
        except ValueError as exc:
            raise CheckpointError(f"{path}: malformed manifest line {line[:80]!r}") from exc
        if dtype_code not in _DTYPE_CODES.values():
            raise CheckpointError(f"{path}: unknown dtype code {dtype_code!r} for {name}")
        if any(s < 0 for s in shape):
            raise CheckpointError(f"{path}: negative extent in shape {shape} of {name}")
        manifest.append((name, dtype_code, shape))
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype_code, shape in manifest:
        dt = np.dtype("<" + dtype_code)
        nbytes = dt.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dt.itemsize
        chunk = rest[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at {name}")
        arrays[name] = np.frombuffer(chunk, dtype=dt).reshape(shape).astype(np.dtype(dtype_code), copy=True)
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
        offset += nbytes
    if offset != len(rest):
        raise CheckpointError(f"{path}: {len(rest) - offset} trailing bytes after payloads")

    try:
        spec = NetSpec(
            bands=int(meta["bands"]),
            channels=int(meta["channels"]),
            state_dim=int(meta["state_dim"]),
            n_class=int(meta["n_class"]),
            momeb_on=meta["momeb_on"],
            sre_on=meta["sre_on"],
            sse_on=meta["sse_on"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad meta line ({exc!r})") from exc
    dtype = np.float32 if manifest and manifest[0][1] == "f4" else np.float64

    def alloc(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing parameter {name}")
        return arrays[name]

    params = _build_network_params(spec, alloc, dtype)
    built = {name for name, _ in params.named_params()}
    extra = set(arrays) - built
    if extra:
        raise CheckpointError(f"{path}: unexpected parameters {sorted(extra)}")
    return params, meta
