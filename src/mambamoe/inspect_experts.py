"""Router-weight and expert-response inspection for a trained model.

Two views are reported per scene:

* per-stage router weights: the gate's softmax over the four directions for
  that stage's feature map (one weight vector per map);
* per-class expert response shares at the finest stage: each expert's
  output magnitude at a pixel, normalized across experts, averaged over the
  pixels of one class.  A scan direction aligned with a class's spatial
  structure accumulates more state along its runs, so its response share
  rises on that class; this is what makes stripe orientation visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import HsiScene, normalize_scene
from .moe import HORIZONTAL_EXPERTS, N_SPATIAL_EXPERTS, VERTICAL_EXPERTS, route
from .network import NetworkParams, extract_features
from .scan import SPATIAL_DIRECTIONS, spatial_expert_forward
from .tensor import Tensor, layer_norm, split


@dataclass
class ClassExpertRow:
    class_id: int
    class_name: str
    shares: np.ndarray  # (4,) mean normalized response magnitudes
    pixels: int

    @property
    def vertical_sum(self) -> float:
        return float(sum(self.shares[j] for j in VERTICAL_EXPERTS))

    @property
    def horizontal_sum(self) -> float:
        return float(sum(self.shares[j] for j in HORIZONTAL_EXPERTS))


@dataclass
class InspectReport:
    stage_weights: list[np.ndarray]  # router weights per stage, each (4,)
    class_rows: list[ClassExpertRow]

    def format(self) -> str:
        names = [d.name for d in SPATIAL_DIRECTIONS]
        tags = [d.orientation[:1] for d in SPATIAL_DIRECTIONS]
        header = "  ".join(f"{n}({t})" for n, t in zip(names, tags))
        lines = [f"{'':24s}  {header}"]
        for i, w in enumerate(self.stage_weights, start=1):
            cells = "  ".join(f"{v:10.6f}" for v in w)
            lines.append(f"stage {i} router weights   {cells}")
        lines.append("per-class stage-1 expert response shares:")
        for row in self.class_rows:
            cells = "  ".join(f"{v:10.6f}" for v in row.shares)
            lines.append(
                f"  class {row.class_id} {row.class_name:<14s} {cells}"
                f"   [vertical {row.vertical_sum:.6f} vs horizontal {row.horizontal_sum:.6f}]"
            )
        return "\n".join(lines)


def downsample_labels(labels: np.ndarray, factor: int = 2) -> np.ndarray:
    """Majority label of each factor x factor block (ties to the lower id,
    unlabeled pixels ignored unless the block is entirely unlabeled)."""
    h2, w2 = labels.shape[0] // factor, labels.shape[1] // factor
    n_ids = int(labels.max(initial=0)) + 1
    blocks = labels[: h2 * factor, : w2 * factor].reshape(h2, factor, w2, factor).transpose(0, 2, 1, 3)
    pairs = np.arange(h2 * w2).reshape(h2, w2, 1, 1) * n_ids + blocks  # (block, label) as one index
    counts = np.bincount(pairs.ravel(), minlength=h2 * w2 * n_ids).reshape(h2, w2, n_ids)
    counts[..., 0] = 0  # argmax of an all-zero row is 0: an entirely unlabeled block stays unlabeled
    return counts.argmax(axis=-1).astype(labels.dtype)


def stage1_expert_shares(params: NetworkParams, f1: Tensor) -> np.ndarray:
    """Per-pixel normalized expert response magnitudes of the stage-1
    features ``f1``: (4, h1, w1)."""
    block = params.momeb[0]
    x_norm = layer_norm(f1, block.ln1_gamma, block.ln1_beta)
    x_spa, _ = split(x_norm, 2, axis=0)
    mags = []
    for j in range(N_SPATIAL_EXPERTS):
        out_j = spatial_expert_forward(block.spatial[j], x_spa, SPATIAL_DIRECTIONS[j])
        mags.append(np.sqrt((out_j.data.astype(np.float64) ** 2).sum(axis=0)))
    mags = np.stack(mags)  # (4, h1, w1)
    total = mags.sum(axis=0)
    total[total == 0] = 1.0
    return mags / total


def inspect_expert_weights(params: NetworkParams, scene: HsiScene) -> InspectReport:
    x = normalize_scene(scene)
    feats = extract_features(params.stem, x)
    stage_weights = []
    for i in range(3):
        block = params.momeb[i]
        x_norm = layer_norm(feats[i], block.ln1_gamma, block.ln1_beta)
        x_spa, _ = split(x_norm, 2, axis=0)
        stage_weights.append(route(block.router, x_spa).data.astype(np.float64))

    shares = stage1_expert_shares(params, feats[0])
    labels_s1 = downsample_labels(scene.labels.astype(np.int64))
    rows = []
    for cls in range(1, scene.header.n_class + 1):
        sel = labels_s1 == cls
        if not sel.any():
            continue
        rows.append(
            ClassExpertRow(
                class_id=cls,
                class_name=scene.header.class_names[cls - 1],
                shares=shares[:, sel].mean(axis=1),
                pixels=int(sel.sum()),
            )
        )
    return InspectReport(stage_weights=stage_weights, class_rows=rows)
