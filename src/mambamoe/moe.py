"""Mixture-of-Mamba-expert block: routed spatial scans, shared spectral scans.

``momeb_forward`` is the whole block, one function over one routed path:
LN -> split -> experts -> concat -> fuse -> residual -> LN -> MLP ->
residual, where LN2 -> MLP is one ``mlp`` op that keeps only its input
and LN2's statistics.  One ``route`` op gives the four spatial experts
(one per scan direction) selects the top-k experts and hands them their
gates, its softmax weights renormalized when k < 4, and only those
experts run.  Each expert scales its own map by its gate, and one ``add``
sums the gated maps and then the skip term x_spa, once for all experts:
the gates sum to one.  k = 4 is the dense mixture that training runs.
Two spectral experts are always on.

No op keeps an expert's output map: an expert reads its gate's gradient
from the states it keeps anyway.
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

# expert j scans in SPATIAL_DIRECTIONS[j], a frozen order, so weight dumps
# are comparable across runs
N_SPATIAL_EXPERTS = len(SPATIAL_DIRECTIONS)


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


def route(router: RouterParams, x_spa: Tensor, k: int) -> tuple[list[int], Tensor]:
    """The top-k experts of one feature map and their gates, as one tape
    op: the channel means -> linear -> ReLU -> linear -> softmax p over
    the 4 experts, then ``topk_select``.  Gate i belongs to expert
    selected[i]; below k = 4 the gates are p_j / total, with total summed
    in ``selected`` order, and at k = 4 they are p itself, the dense
    mixture.

    One weight vector per map (global average pooling first), so skipping
    an unselected expert skips its whole directional scan.  A non-finite
    pooled vector, pre-activation or logit raises ``NumericalError``: the
    ReLU or the softmax would map some of them to finite weights.

    The backward pass maps dw, the gradient of each gate w_i, to the
    gradient of p_j: dw_j when dense, else (dw_j - sum_i w_i dw_i) /
    total, and 0 for an unselected expert; it then applies the softmax,
    linear, ReLU, linear and mean rules in turn.  The closure keeps the
    pooled and hidden vectors, p and the gates.
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
    selected = topk_select(p, k)
    gates = p[selected]
    total = sum(gates[1:], gates[0])
    dense = k == N_SPATIAL_EXPERTS
    if not dense:
        gates = gates / total
    inv = x_spa.dtype.type(1.0 / (h * w))

    def bwd(dw):
        dp = np.zeros_like(p)
        dp[selected] = dw if dense else (dw - sum(gates * dw)) / total
        d_logits = (dp - (dp * p).sum()) * p
        d_pre = (w2.T @ d_logits) * (hidden > 0)
        dx = np.broadcast_to((w1.T @ d_pre)[:, None, None] * inv, (c, h, w)).copy()
        return np.outer(d_pre, pooled), d_pre, np.outer(d_logits, hidden), d_logits, dx

    # the mean, both products, both bias adds, the ReLU and 4 terms per softmax entry
    flops = x_spa.size + 2 * (w1.size + w2.size) + 2 * b1.size + 5 * b2.size
    return selected, tt.custom_op("route", (router.w1, router.b1, router.w2, router.b2, x_spa), gates, bwd, flops=flops)


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


def sre_forward(experts: tuple[SsmParams, ...], router: RouterParams, x_spa: Tensor, k: int) -> Tensor:
    """The router's top-k directional scan experts, gated and summed, plus
    ``x_spa`` once: the D skip of a Mamba block, with D = 1.

    Only the k selected experts run, all before the one ``add``; ``route``
    hands them their gates, which sum to one.
    """
    selected, g = route(router, x_spa, k)
    outputs = [spatial_expert_forward(experts[j], x_spa, SPATIAL_DIRECTIONS[j], g, i) for i, j in enumerate(selected)]
    return tt.add(*outputs, x_spa)


def sse_forward(fwd: SsmParams, bwd: SsmParams, x_spe: Tensor) -> Tensor:
    return spectral_bidirectional(fwd, bwd, x_spe)


def expert_views(p: MoMebParams, f: Tensor) -> tuple[Tensor, Tensor]:
    """The block's LN1 of ``f`` split by channel into the spatial view (the
    first half) and the spectral view; an odd width is a ``ShapeError``."""
    return tt.split(tt.layer_norm(f, p.ln1_gamma, p.ln1_beta), 2, axis=0)


def mlp(p: MoMebParams, g: Tensor) -> Tensor:
    """The block's tail, LN2 -> 1x1 conv C -> 2C -> ReLU -> 1x1 conv 2C -> C,
    as one tape op, bit for bit the chain of ``layer_norm``, ``conv2d``,
    ``relu`` and ``conv2d``, whose 1x1 rule (``tt.conv1x1``) it runs.

    LN2's output dies once the first product has read it.  The ReLU runs in
    place, after the finite check of the hidden pre-activation: a
    non-finite value there raises ``NumericalError`` though the ReLU might
    zero it.  The closure keeps g, LN2's per-pixel mu and inv_std and the
    six parameter Tensors; the backward pass rebuilds LN2's output and the
    hidden map with the forward's operations, then applies the conv, ReLU,
    conv and LN rules in turn.
    """
    gamma, beta, w1, b1, w2, b2 = p.ln2_gamma, p.ln2_beta, p.mlp_w1, p.mlp_b1, p.mlp_w2, p.mlp_b2
    tt.check_layer_norm("mlp", g, gamma, beta)
    c, h, w = g.shape
    hid = w1.shape[0]
    shapes = (w1.shape, b1.shape, w2.shape, b2.shape)
    if shapes != ((hid, c, 1, 1), (hid,), (c, hid, 1, 1), (c,)):
        raise ShapeError(f"mlp: weight and bias shapes {shapes} do not fit a 1x1 MLP of width {c}")
    if any(t.dtype != g.dtype for t in (w1, b1, w2, b2)):
        raise ShapeError(f"mlp: parameters must share the map's dtype {g.dtype}")
    x = g.data
    zero = x.dtype.type(0)
    normed, mu, inv_std = tt.layer_norm_forward(x, gamma.data, beta.data)
    hidden = tt.conv1x1(w1.data, b1.data, normed)
    del normed
    if not np.all(np.isfinite(hidden)):
        raise NumericalError("mlp: non-finite values in the hidden pre-activation")
    np.maximum(hidden, zero, out=hidden)  # -0.0 maps to +0.0
    out = tt.conv1x1(w2.data, b2.data, hidden)
    del hidden

    def bwd(g_out):
        xhat = tt.layer_norm_xhat(x, mu, inv_std)
        normed = tt.layer_norm_affine(xhat.copy(), gamma.data, beta.data)
        hidden = tt.conv1x1(w1.data, b1.data, normed)
        np.maximum(hidden, zero, out=hidden)
        d_hidden, d_w2, d_b2 = tt.conv1x1_backward(hidden, w2.data, g_out, True)
        d_hidden *= hidden > 0
        del hidden
        d_normed, d_w1, d_b1 = tt.conv1x1_backward(normed, w1.data, d_hidden, True)
        del normed, d_hidden
        dx, d_gamma, d_beta = tt.layer_norm_backward(d_normed, xhat, gamma.data, inv_std)
        return dx, d_gamma, d_beta, d_w1, d_b1, d_w2, d_b2

    # LN, both 1x1 products with their biases, and the ReLU
    flops = tt.layer_norm_flops(c, h, w) + (4 * hid * c + 2 * hid + c) * h * w
    return tt.custom_op("mlp", (g, gamma, beta, w1, b1, w2, b2), out, bwd, flops=flops)


def momeb_forward(p: MoMebParams, f: Tensor, k: int, sre_on: bool = True, sse_on: bool = True) -> Tensor:
    """The block on the (C, h, w) map ``f`` with the top-k spatial experts;
    a disabled expert branch passes its view through (ablation switch).

    Each map is dropped once its last reader has run, so that with no tape
    nothing holds it: the two views once both branches have run, the
    branch outputs after the concat, the concat after the fuse conv, ``f``
    after the residual add (if the caller holds no reference to it); ``mlp``
    drops LN2's output and its hidden map itself.  A tape's closures keep
    what its backward pass reads, whatever is dropped here.
    """
    x_spa, x_spe = expert_views(p, f)
    spa_out = sre_forward(p.spatial, p.router, x_spa, k) if sre_on else x_spa
    spe_out = sse_forward(p.spectral_fwd, p.spectral_bwd, x_spe) if sse_on else x_spe
    del x_spa, x_spe
    mixed = tt.concat([spa_out, spe_out], axis=0)
    del spa_out, spe_out
    fused = tt.conv2d(mixed, p.fuse_w, p.fuse_b)
    del mixed
    g = tt.add(f, fused)
    del f, fused
    return tt.add(g, mlp(p, g))
