"""Training protocol, optimizer, split sampling, and evaluation metrics.

One optimization step per epoch processes the whole scene (image-level
paradigm).  Runs are deterministic given the config seed: initialization,
the per-class split and the Bernoulli supervision masks each draw from
independent child streams of one seed sequence.  They are bit-reproducible
for a given seed and BLAS thread count: a threaded BLAS sums matrix
products in another order, so one and two OpenBLAS threads train to
different parameter bits.  The 3x3 convs' second thread (the lane of
``tensor``) does not: its split of each conv is fixed, whatever the CPU
count, and leaves every product and sum in its order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import HsiScene, normalize_scene
from .moe import N_SPATIAL_EXPERTS
from .network import NetSpec, NetworkParams, forward_full, init_network_params, total_loss
from .tensor import NumericalError, Tape, Tensor


class SplitError(ValueError):
    pass


class TrainingAbort(RuntimeError):
    """Raised when an epoch produces non-finite values."""

    def __init__(self, epoch: int, message: str):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """All hyperparameters, seeds and ablation switches for one run.

    ``momeb_on``, ``sre_on`` and ``sse_on`` become part of the trained
    model's ``NetSpec``; ``uarb_on`` only shapes the training loss.
    """

    lr: float = 5e-4
    epochs: int = 200
    samples_per_class: int = 15
    seed: int = 0
    topk_infer: int = 3
    channels: int = 16
    state_dim: int = 8
    momeb_on: bool = True
    uarb_on: bool = True
    sre_on: bool = True
    sse_on: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 1 <= self.topk_infer <= N_SPATIAL_EXPERTS:
            raise ValueError(f"topk_infer must be in [1, {N_SPATIAL_EXPERTS}], got {self.topk_infer}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.channels < 2 or self.channels % 2 != 0:
            raise ValueError(f"channels must be even and >= 2, got {self.channels}")
        if self.state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {self.state_dim}")
        if not isinstance(self.uarb_on, bool):
            raise TypeError(f"TrainConfig: uarb_on must be a bool, got {self.uarb_on!r}")


def split_per_class(labels: np.ndarray, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw exactly n training pixels per class; the rest of the labeled
    pixels form the test set.  Masks are boolean, disjoint, and their union
    is the labeled set."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train = np.zeros(labels.shape, dtype=bool)
    for cls in np.unique(labels):
        if cls == 0:
            continue
        flat = np.flatnonzero(labels == cls)
        if flat.size <= n:
            raise SplitError(f"class {int(cls)} has only {flat.size} labeled pixels; need more than {n}")
        chosen = rng.choice(flat.size, size=n, replace=False)
        train[np.unravel_index(flat[chosen], labels.shape)] = True
    test = (labels > 0) & ~train
    return train, test


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The run seed's independent child streams: (init, split, mask)."""
    return np.random.SeedSequence(seed).spawn(3)


def split_for_seed(labels: np.ndarray, samples_per_class: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (train, test) split that ``train`` draws for this config seed."""
    return split_per_class(labels, samples_per_class, _seed_streams(seed)[1])


# --- Adam ----------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(params: list[Tensor]) -> AdamState:
    return AdamState(m=[np.zeros_like(p.data) for p in params], v=[np.zeros_like(p.data) for p in params])


def adam_step(state: AdamState, params: list[Tensor], lr: float) -> None:
    """Standard bias-corrected Adam update of each parameter from its
    ``grad``, in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


# --- training loop ---------------------------------------------------------------


@dataclass
class TrainResult:
    params: NetworkParams
    history: list[tuple[int, float, float]]  # (epoch, loss, train_oa)
    train_mask: np.ndarray
    test_mask: np.ndarray
    config: TrainConfig
    seconds: float = 0.0


def train(config: TrainConfig, scene: HsiScene) -> TrainResult:
    """Full-scene training per the experimental protocol: dense experts,
    stage supervision when enabled, one Adam step per epoch.

    The scene is validated first (``HsiScene.validate``): a label outside
    0..n_class, or a declared class with no pixel, raises ``ExtentError``.

    The trained parameters are bit-identical across runs only at a fixed
    seed and a fixed BLAS thread count: another thread count sums the
    matrix products in another order.  The worker thread that shares each
    large 3x3 conv (``tensor.conv2d``) splits it the same way on every
    machine and keeps every sum's order, so it changes no bit."""
    scene.validate()
    ss_init, _, ss_mask = _seed_streams(config.seed)

    x = normalize_scene(scene)
    labels = scene.labels.astype(np.int64)
    train_mask, test_mask = split_for_seed(labels, config.samples_per_class, config.seed)
    y_trn = np.where(train_mask, labels, 0)

    spec = NetSpec(
        bands=scene.header.bands,
        channels=config.channels,
        state_dim=config.state_dim,
        n_class=scene.header.n_class,
        momeb_on=config.momeb_on,
        sre_on=config.sre_on,
        sse_on=config.sse_on,
    )
    params = init_network_params(spec, np.random.default_rng(ss_init))
    tensors = params.tensors()
    state = adam_init(tensors)
    mask_rng = np.random.default_rng(ss_mask)

    history: list[tuple[int, float, float]] = []
    started = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        for p in tensors:
            p.zero_grad()
        try:
            with Tape() as tape:
                result = forward_full(params, x, train=True, mask_rng=mask_rng, uarb_on=config.uarb_on)
                loss = total_loss(result.stages, y_trn, result.final_logits)
                tape.backward(loss)
        except NumericalError as exc:
            raise TrainingAbort(epoch, str(exc)) from exc
        adam_step(state, tensors, config.lr)
        pred = result.final_logits.data.argmax(axis=0) + 1
        train_oa = float((pred[train_mask] == labels[train_mask]).mean())
        history.append((epoch, loss.item(), train_oa))
    return TrainResult(
        params=params,
        history=history,
        train_mask=train_mask,
        test_mask=test_mask,
        config=config,
        seconds=time.perf_counter() - started,
    )


# --- metrics ----------------------------------------------------------------------


@dataclass
class Metrics:
    confusion: np.ndarray
    oa: float
    aa: float
    kappa: float
    per_class_acc: np.ndarray


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_class: int) -> np.ndarray:
    """Rows index the true class, columns the prediction (classes 1..K)."""
    conf = np.zeros((n_class, n_class), dtype=np.int64)
    np.add.at(conf, (np.asarray(y_true) - 1, np.asarray(y_pred) - 1), 1)
    return conf


def metrics_from_confusion(conf: np.ndarray) -> Metrics:
    conf = np.asarray(conf, dtype=np.int64)
    total = conf.sum()
    if total == 0:
        raise ValueError("metrics_from_confusion: empty confusion matrix")
    row = conf.sum(axis=1)
    col = conf.sum(axis=0)
    diag = np.diag(conf)
    oa = float(diag.sum() / total)
    with np.errstate(invalid="ignore", divide="ignore"):
        recalls = np.where(row > 0, diag / np.maximum(row, 1), np.nan)
    aa = float(np.nanmean(recalls))
    p_e = float((row.astype(np.float64) * col.astype(np.float64)).sum() / (float(total) ** 2))
    if abs(1.0 - p_e) < 1e-15:
        kappa = 1.0 if oa == 1.0 else 0.0
    else:
        kappa = (oa - p_e) / (1.0 - p_e)
    return Metrics(confusion=conf, oa=oa, aa=aa, kappa=float(kappa), per_class_acc=recalls)


def predict_labels(params: NetworkParams, scene: HsiScene, topk: int) -> np.ndarray:
    """Inference-mode argmax class map for the whole scene (no randomness)."""
    result = forward_full(params, normalize_scene(scene), train=False, topk=topk)
    return (result.final_logits.data.argmax(axis=0) + 1).astype(np.uint16)


def score(pred: np.ndarray, scene: HsiScene, test_mask: np.ndarray) -> Metrics:
    """Held-out metrics of a class map against the scene's labels over the
    test mask, which must select at least one pixel."""
    if not np.asarray(test_mask).any():
        raise ValueError("score: empty test mask")
    labels = scene.labels.astype(np.int64)
    return metrics_from_confusion(confusion_matrix(labels[test_mask], pred[test_mask], scene.header.n_class))


def evaluate(params: NetworkParams, scene: HsiScene, test_mask: np.ndarray, topk: int) -> Metrics:
    """``score`` of ``predict_labels``: the held-out metrics of the model's
    class map at k experts."""
    return score(predict_labels(params, scene, topk=topk), scene, test_mask)


def topk_sweep(params: NetworkParams, scene: HsiScene, test_mask: np.ndarray) -> list[tuple[int, Metrics]]:
    """Evaluate one trained model at every expert-selection level."""
    return [(k, evaluate(params, scene, test_mask, topk=k)) for k in range(1, N_SPATIAL_EXPERTS + 1)]


def nearest_centroid_predict(scene: HsiScene, train_mask: np.ndarray) -> np.ndarray:
    """Spectral baseline: each pixel takes the class whose mean training
    spectrum is nearest in Euclidean distance.  It reads no spatial layout
    and runs on any scene; a class with no training pixel is never
    predicted."""
    labels = scene.labels[train_mask]
    classes = np.unique(labels[labels > 0])
    if classes.size == 0:
        raise ValueError("nearest_centroid_predict: no labeled training pixel")
    pixels = scene.cube.reshape(scene.header.bands, -1).T.astype(np.float64)  # (N, B)
    train_pixels = pixels[train_mask.ravel()]
    centroids = np.stack([train_pixels[labels == c].mean(axis=0) for c in classes])  # (K, B)
    # |x - c|^2 less the |x|^2 that every class shares
    d2 = (centroids * centroids).sum(axis=1) - 2.0 * pixels @ centroids.T
    return classes[d2.argmin(axis=1)].astype(np.uint16).reshape(scene.labels.shape)


# --- report formatting ---------------------------------------------------------------


def format_history_csv(history: list[tuple[int, float, float]]) -> str:
    lines = ["epoch,loss,train_oa"]
    lines += [f"{epoch},{loss:.6f},{oa:.6f}" for epoch, loss, oa in history]
    return "\n".join(lines) + "\n"


def format_metrics_report(metrics: Metrics, class_names: list[str]) -> str:
    """Single-run report: per-class accuracy rows then OA/AA/kappa."""
    width = max((len(n) for n in class_names), default=8)
    lines = []
    for i, name in enumerate(class_names):
        acc = metrics.per_class_acc[i]
        shown = "n/a" if np.isnan(acc) else f"{100 * acc:6.2f}"
        lines.append(f"{name:<{width}}  {shown}")
    lines.append(f"{'OA (%)':<{width}}  {100 * metrics.oa:6.2f}")
    lines.append(f"{'AA (%)':<{width}}  {100 * metrics.aa:6.2f}")
    lines.append(f"{'kappa (%)':<{width}}  {100 * metrics.kappa:6.2f}")
    return "\n".join(lines) + "\n"
