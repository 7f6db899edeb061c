"""Mixture-of-Mamba-expert block: routed spatial scans, shared spectral scans.

The block wraps a split/expert/concat/fuse core in the usual transformer
skeleton: LN -> experts -> residual -> LN -> MLP -> residual.  One ``route``
op gives the four spatial experts (one per scan direction) their softmax
weights, and one ``mix`` op combines them; at inference only the top-k
experts are evaluated, and their weights are renormalized.  Two spectral
experts are always on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .scan import (
    SPATIAL_DIRECTIONS,
    SsmParams,
    spatial_expert_forward,
    spectral_bidirectional,
)
from .tensor import NumericalError, ShapeError, Tensor

N_SPATIAL_EXPERTS = 4

# expert index -> scan direction is frozen so weight dumps are comparable
# across runs: 0=TL_BR, 1=BR_TL (horizontal pair), 2=TR_BL, 3=BL_TR (vertical pair)
HORIZONTAL_EXPERTS = (0, 1)
VERTICAL_EXPERTS = (2, 3)


@dataclass
class RouterParams:
    """Two-layer gate: pooled features -> hidden (ReLU) -> 4 expert logits."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def __post_init__(self):
        if self.w2.shape[0] != N_SPATIAL_EXPERTS:
            raise ShapeError(f"RouterParams: output logits must be {N_SPATIAL_EXPERTS}, got {self.w2.shape[0]}")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]


@dataclass
class MoMebParams:
    """Full parameter set of one mixture-of-Mamba-expert block."""

    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    spatial: tuple[SsmParams, SsmParams, SsmParams, SsmParams]
    spectral_fwd: SsmParams
    spectral_bwd: SsmParams
    router: RouterParams
    fuse_w: Tensor  # (C, C, 1, 1)
    fuse_b: Tensor
    mlp_w1: Tensor  # (2C, C, 1, 1)
    mlp_b1: Tensor
    mlp_w2: Tensor  # (C, 2C, 1, 1)
    mlp_b2: Tensor


def route(router: RouterParams, x_spa: Tensor) -> Tensor:
    """Router weights for one feature map, as one tape op: the channel
    means -> linear -> ReLU -> linear -> softmax over the 4 experts.

    One weight vector per map (global average pooling first), so skipping
    an unselected expert skips its whole directional scan.  A non-finite
    pooled vector, pre-activation or logit raises ``NumericalError``: the
    ReLU or the softmax would map some of them to finite weights.

    The backward pass applies the softmax, linear, ReLU, linear and mean
    rules in turn; the closure keeps the pooled and hidden vectors and the
    output.
    """
    w1, b1, w2, b2 = router.w1.data, router.b1.data, router.w2.data, router.b2.data
    if x_spa.shape[0] != router.in_dim:
        raise ShapeError(f"route: input channels {x_spa.shape[0]} != router width {router.in_dim}")
    if any(a.dtype != x_spa.dtype for a in (w1, b1, w2, b2)):
        raise ShapeError(f"route: router parameters must share the map's dtype {x_spa.dtype}")
    c, h, w = x_spa.shape
    pooled = _finite("pooled features", x_spa.data.mean(axis=(1, 2)))
    pre = _finite("pre-activation", w1 @ pooled + b1)
    hidden = np.maximum(pre, pre.dtype.type(0))  # -0.0 maps to +0.0
    logits = _finite("logits", w2 @ hidden + b2)
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    inv = x_spa.dtype.type(1.0 / (h * w))

    def bwd(g):
        d_logits = (g - (g * p).sum()) * p
        d_pre = (w2.T @ d_logits) * (hidden > 0)
        dx = np.broadcast_to((w1.T @ d_pre)[:, None, None] * inv, (c, h, w)).copy()
        return np.outer(d_pre, pooled), d_pre, np.outer(d_logits, hidden), d_logits, dx

    # the mean, both products, both bias adds, the ReLU and 4 terms per softmax entry
    flops = x_spa.size + 2 * (w1.size + w2.size) + 2 * b1.size + 5 * b2.size
    return tt.custom_op("route", (router.w1, router.b1, router.w2, router.b2, x_spa), p, bwd, flops=flops)


def _finite(what: str, v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericalError(f"route: non-finite values in the {what}")
    return v


def topk_select(weights: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest weights; ties go to the lower expert index."""
    if not 1 <= k <= N_SPATIAL_EXPERTS:
        raise ValueError(f"topk_select: k must be in [1, {N_SPATIAL_EXPERTS}], got {k}")
    order = np.lexsort((np.arange(len(weights)), -np.asarray(weights)))
    return sorted(int(i) for i in order[:k])


def mix(weights: Tensor, outputs: list[Tensor], selected: list[int]) -> Tensor:
    """The gated sum of the selected experts' maps, as one tape op.

    outputs[i] is the map of expert selected[i], and weights is the
    router's softmax.  With every expert selected, w_j is the router weight
    p_j: the weights already sum to one.  Otherwise w_j = p_j / total, with
    total summed in ``selected`` order.  The sum runs in ``selected`` order:
    y_0 w_0, then + y_j w_j.

    The backward pass gives each map g w_j.  With dw_j = sum(g y_j), the
    router weight p_j gets dw_j when dense, else (dw_j - sum_i w_i dw_i) /
    total; an unselected weight gets 0.  The closure keeps the maps, which
    dw reads.
    """
    ys = [y.data for y in outputs]
    if any(y.shape != ys[0].shape or y.dtype != weights.dtype for y in ys):
        raise ShapeError(f"mix: expert maps {[y.shape for y in ys]} must share one shape and the weights' dtype")
    p = weights.data
    w = p[selected]
    total = sum(w[1:], w[0])
    dense = len(selected) == N_SPATIAL_EXPERTS
    if not dense:
        w = w / total
    acc = ys[0] * w[0]
    for y, w_j in zip(ys[1:], w[1:]):
        acc = acc + y * w_j

    def bwd(g):
        dw = np.array([(g * y).sum() for y in ys])
        dp = np.zeros_like(p)
        dp[selected] = dw if dense else (dw - sum(w * dw)) / total
        return (dp, *(g * w_j for w_j in w))

    return tt.custom_op("mix", (weights, *outputs), acc, bwd, flops=(2 * len(ys) - 1) * acc.size)


def sre_forward(
    experts: tuple[SsmParams, ...],
    router: RouterParams,
    x_spa: Tensor,
    topk: int | None = None,
) -> Tensor:
    """Weighted combination of directional scan experts.

    topk=None (or 4) runs all experts weighted by the router (training
    mode).  With topk=k < 4 only the selected experts are evaluated, and
    ``mix`` renormalizes their weights to sum to one; at k=4 it uses the
    router weights as they are, so the result is bit-identical to dense.
    All selected experts run before the combine.
    """
    weights = route(router, x_spa)
    selected = topk_select(weights.data, N_SPATIAL_EXPERTS if topk is None else topk)
    outputs = [spatial_expert_forward(experts[j], x_spa, SPATIAL_DIRECTIONS[j]) for j in selected]
    return mix(weights, outputs, selected)


def sse_forward(fwd: SsmParams, bwd: SsmParams, x_spe: Tensor) -> Tensor:
    return spectral_bidirectional(fwd, bwd, x_spe)


def dssem_forward(
    p: MoMebParams,
    x_norm: Tensor,
    topk: int | None = None,
    sre_on: bool = True,
    sse_on: bool = True,
) -> Tensor:
    """Split channels, run spatial/spectral experts, concat, fuse with 1x1 conv.

    The first half of the channels is the spatial view, the second half the
    spectral view; a disabled expert branch passes its view through
    unchanged (ablation switch).
    """
    if x_norm.shape[0] % 2 != 0:
        raise ShapeError(f"dssem_forward: channel width must be even, got {x_norm.shape[0]}")
    x_spa, x_spe = tt.split(x_norm, 2, axis=0)
    spa_out = sre_forward(p.spatial, p.router, x_spa, topk=topk) if sre_on else x_spa
    spe_out = sse_forward(p.spectral_fwd, p.spectral_bwd, x_spe) if sse_on else x_spe
    return tt.conv2d(tt.concat([spa_out, spe_out], axis=0), p.fuse_w, p.fuse_b)


def momeb_forward(
    p: MoMebParams,
    f: Tensor,
    topk: int | None = None,
    sre_on: bool = True,
    sse_on: bool = True,
) -> Tensor:
    """LN -> DSSEM -> residual -> LN -> MLP -> residual."""
    x_norm = tt.layer_norm(f, p.ln1_gamma, p.ln1_beta)
    f_hat = dssem_forward(p, x_norm, topk=topk, sre_on=sre_on, sse_on=sse_on)
    g = tt.add(f, f_hat)
    g_norm = tt.layer_norm(g, p.ln2_gamma, p.ln2_beta)
    m = tt.conv2d(g_norm, p.mlp_w1, p.mlp_b1)
    m = tt.relu(m)
    m = tt.conv2d(m, p.mlp_w2, p.mlp_b2)
    return tt.add(g, m)
