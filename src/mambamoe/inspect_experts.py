"""Router-weight and expert-response inspection for a trained model.

Two views are reported per scene:

* per-stage router weights: the gate's softmax over the four directions for
  that stage's feature map (one weight vector per map);
* per-class expert response shares at the finest stage: each expert's own
  scan magnitude at a pixel (no skip term), normalized across experts,
  averaged over the pixels of one class.  A share is the size of one
  expert's response relative to the others' on that class's pixels; it
  does not say which direction suits the class.  A trained model need not
  give an aligned direction the larger share: at seed 0 (bundled scene,
  default config) both stripe classes read more horizontal than vertical
  share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import HsiScene, normalize_scene
from .moe import N_SPATIAL_EXPERTS, MoMebParams, expert_views, route
from .network import NetworkParams, extract_features
from .scan import SPATIAL_DIRECTIONS, spatial_expert_forward
from .tensor import Tensor


@dataclass
class ClassExpertRow:
    class_id: int
    class_name: str
    shares: np.ndarray  # (4,) mean normalized response magnitudes
    pixels: int

    def orientation_sum(self, orientation: str) -> float:
        """Summed share of the experts that scan in ``orientation``."""
        return float(sum(s for s, d in zip(self.shares, SPATIAL_DIRECTIONS) if d.orientation == orientation))


@dataclass
class InspectReport:
    stage_weights: list[np.ndarray]  # router weights per stage, each (4,)
    class_rows: list[ClassExpertRow]

    def format(self) -> str:
        """One row per stage and per class; every row pads its label to the
        longest one, so each expert's column lines up under its header."""
        stage_labels = [f"stage {i} router weights" for i in range(1, len(self.stage_weights) + 1)]
        class_labels = [f"  class {row.class_id} {row.class_name}" for row in self.class_rows]
        width = max(map(len, stage_labels + class_labels), default=0)

        def line(label: str, cells) -> str:
            return f"{label:<{width}s}  " + "  ".join(cells)

        names = (f"{d.name}({d.orientation[:1]})" for d in SPATIAL_DIRECTIONS)
        lines = [line("", (f"{n:>10s}" for n in names))]
        lines += [line(label, (f"{v:10.6f}" for v in w)) for label, w in zip(stage_labels, self.stage_weights)]
        lines.append("per-class stage-1 expert response shares:")
        for label, row in zip(class_labels, self.class_rows):
            lines.append(
                line(label, (f"{v:10.6f}" for v in row.shares))
                + f"   [vertical {row.orientation_sum('vertical'):.6f}"
                f" vs horizontal {row.orientation_sum('horizontal'):.6f}]"
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


def expert_shares(block: MoMebParams, x_spa: Tensor) -> np.ndarray:
    """Per-pixel normalized response magnitudes of ``block``'s spatial
    experts on its spatial view ``x_spa``: (4, h, w).  Each expert runs
    with a unit gate, so its map is its own response C h, without the skip
    term that the block adds once for all experts."""
    unit = Tensor(np.ones(1, dtype=x_spa.dtype))
    mags = []
    for expert, direction in zip(block.spatial, SPATIAL_DIRECTIONS):
        out = spatial_expert_forward(expert, x_spa, direction, unit, 0)
        mags.append(np.sqrt((out.data.astype(np.float64) ** 2).sum(axis=0)))
    mags = np.stack(mags)  # (4, h, w)
    total = mags.sum(axis=0)
    total[total == 0] = 1.0
    return mags / total


def inspect_expert_weights(params: NetworkParams, scene: HsiScene) -> InspectReport:
    x = normalize_scene(scene)
    feats = extract_features(params.stem, x)
    views = [expert_views(block, f)[0] for block, f in zip(params.momeb, feats)]
    # at k = 4 the gates are the router's softmax in expert order
    gates = [route(block.router, x_spa, N_SPATIAL_EXPERTS)[1] for block, x_spa in zip(params.momeb, views)]
    stage_weights = [g.data.astype(np.float64) for g in gates]
    shares = expert_shares(params.momeb[0], views[0])
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
