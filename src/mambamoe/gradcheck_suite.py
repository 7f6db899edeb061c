"""Finite-difference audit of every differentiable block.

Each entry builds a tiny float64 instance of one block, checks its analytic
gradients against central differences, and reports the worst relative
error.  The full-pipeline entry freezes the Bernoulli supervision masks so
the loss is a deterministic function of the parameters.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .moe import dssem_forward, momeb_forward, route
from .network import NetSpec, classify_head, ffb, forward_full, init_network_params, total_loss
from .scan import (
    SPATIAL_DIRECTIONS,
    init_ssm_params,
    spatial_expert_forward,
    spectral_bidirectional,
    ssm_recurrence,
)
from .tensor import GradCheckReport, Tensor, grad_check, parameter

F64 = np.float64
THRESHOLD = 1e-4


def _report(name: str, rep: GradCheckReport, lines: list[str]) -> bool:
    status = "ok" if rep.passed else "FAIL"
    lines.append(f"{name:<16s} max_rel_err {rep.max_rel_err:.3e} [{status}]")
    return rep.passed


def run_suite(seed: int = 0) -> tuple[list[str], bool]:
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    ok = True

    # conv2d on a non-square map, where swapping h and w would show in the padded row stride
    for name, k in (("conv2d", 3), ("conv2d_1x1", 1)):
        x = parameter(rng.normal(size=(2, 3, 5)), dtype=F64)
        w = parameter(rng.normal(size=(3, 2, k, k)), dtype=F64)
        b = parameter(rng.normal(size=3), dtype=F64)
        probe = Tensor(rng.normal(size=(3, 3, 5)), dtype=F64)
        ok &= _report(name, grad_check(lambda: tt.sum_all(tt.mul(tt.conv2d(x, w, b), probe)), [x, w, b]), lines)

    # layer_norm
    x = parameter(rng.normal(size=(3, 3, 3)), dtype=F64)
    gamma = parameter(rng.normal(size=3), dtype=F64)
    beta = parameter(rng.normal(size=3), dtype=F64)
    probe_ln = Tensor(rng.normal(size=(3, 3, 3)), dtype=F64)
    ok &= _report(
        "layer_norm",
        grad_check(lambda: tt.sum_all(tt.mul(tt.layer_norm(x, gamma, beta), probe_ln)), [x, gamma, beta]),
        lines,
    )

    # bilinear upsample
    x = parameter(rng.normal(size=(2, 3, 3)), dtype=F64)
    probe = Tensor(rng.normal(size=(2, 7, 5)), dtype=F64)
    ok &= _report("upsample", grad_check(lambda: tt.sum_all(tt.mul(tt.bilinear_upsample(x, (7, 5)), probe)), [x]), lines)

    # ssm scan over the full flatten -> recurrence -> unflatten path
    p = init_ssm_params(3, 2, rng, dtype=F64)
    xs = parameter(rng.normal(size=(2, 4, 4)), dtype=F64)
    probe = Tensor(rng.normal(size=(2, 4, 4)), dtype=F64)
    ok &= _report(
        "ssm_scan",
        grad_check(
            lambda: tt.sum_all(tt.mul(spatial_expert_forward(p, xs, SPATIAL_DIRECTIONS[2]), probe)),
            [p.a_bar, p.b_bar, p.c_out, xs],
        ),
        lines,
    )

    # ssm scan long enough for the chunked kernel: T = 67 is 8 chunks of 9, the last padded
    p = init_ssm_params(3, 2, rng, dtype=F64)
    seq = parameter(rng.normal(size=(67, 2)), dtype=F64)
    probe = Tensor(rng.normal(size=(67, 2)), dtype=F64)
    ok &= _report(
        "ssm_scan_long",
        grad_check(lambda: tt.sum_all(tt.mul(ssm_recurrence(p, seq), probe)), [p.a_bar, p.b_bar, p.c_out, seq]),
        lines,
    )

    # both spectral directions as one Toeplitz product
    fwd, bwd = init_ssm_params(3, 1, rng, dtype=F64), init_ssm_params(3, 1, rng, dtype=F64)
    xs = parameter(rng.normal(size=(5, 2, 3)), dtype=F64)
    probe = Tensor(rng.normal(size=(5, 2, 3)), dtype=F64)
    ok &= _report(
        "spectral",
        grad_check(
            lambda: tt.sum_all(tt.mul(spectral_bidirectional(fwd, bwd, xs), probe)),
            [fwd.a_bar, fwd.b_bar, fwd.c_out, bwd.a_bar, bwd.b_bar, bwd.c_out, xs],
        ),
        lines,
    )

    # router
    router = init_network_params(NetSpec(bands=1, channels=8, state_dim=1, n_class=1), rng, F64).momeb[0].router
    xr = parameter(rng.normal(size=(4, 3, 3)), dtype=F64)
    probe4 = Tensor(rng.normal(size=(4,)), dtype=F64)
    ok &= _report(
        "router",
        grad_check(lambda: tt.sum_all(tt.mul(route(router, xr), probe4)), [router.w1, router.b1, router.w2, router.b2, xr]),
        lines,
    )

    # dssem + momeb (block-level)
    block = init_network_params(NetSpec(bands=1, channels=4, state_dim=3, n_class=1), rng, F64).momeb[0]
    xb = parameter(rng.normal(size=(4, 4, 4)), dtype=F64)
    probe_b = Tensor(rng.normal(size=(4, 4, 4)), dtype=F64)
    block_params = [t for _, t in block.named("blk")]
    ok &= _report(
        "dssem",
        grad_check(lambda: tt.sum_all(tt.mul(dssem_forward(block, xb), probe_b)), block_params[:4] + [xb]),
        lines,
    )
    ok &= _report(
        "momeb",
        grad_check(lambda: tt.sum_all(tt.mul(momeb_forward(block, xb), probe_b)), block_params + [xb]),
        lines,
    )

    # ffb (fuse two stages through the residual block)
    from .network import ResBlockParams

    res = ResBlockParams(
        parameter(rng.normal(0, 0.3, (3, 3, 3, 3)), dtype=F64),
        parameter(rng.normal(size=3), dtype=F64),
        parameter(rng.normal(0, 0.3, (3, 3, 3, 3)), dtype=F64),
        parameter(rng.normal(size=3), dtype=F64),
    )
    m_i = parameter(rng.normal(size=(3, 4, 4)), dtype=F64)
    l_next = parameter(rng.normal(size=(3, 2, 2)), dtype=F64)
    probe_f = Tensor(rng.normal(size=(3, 4, 4)), dtype=F64)
    res_params = [t for _, t in res.named("res")]
    ok &= _report(
        "ffb",
        grad_check(lambda: tt.sum_all(tt.mul(ffb(res, m_i, l_next), probe_f)), res_params + [m_i, l_next]),
        lines,
    )

    # classification head
    from .network import HeadParams

    head = HeadParams(parameter(rng.normal(size=(3, 4, 1, 1)), dtype=F64), parameter(rng.normal(size=3), dtype=F64))
    xh = parameter(rng.normal(size=(4, 3, 3)), dtype=F64)
    labels = rng.integers(1, 4, size=(3, 3))
    mask = np.ones((3, 3), dtype=np.uint8)
    ok &= _report(
        "head",
        grad_check(lambda: tt.masked_cross_entropy(classify_head(head, xh)[0], labels, mask), [head.w, head.b, xh]),
        lines,
    )

    # total loss through the whole tiny network, masks frozen
    spec = NetSpec(bands=2, channels=4, state_dim=3, n_class=2)
    params = init_network_params(spec, rng, dtype=F64)
    scene_labels = rng.integers(1, 3, size=(8, 8)).astype(np.int64)
    cube = rng.normal(size=(2, 8, 8)).astype(np.float64)
    x_scene = Tensor(cube, dtype=F64)
    train_mask = rng.random((8, 8)) < 0.4
    y_trn = np.where(train_mask, scene_labels, 0)
    frozen = [(rng.random((8, 8)) < 0.5).astype(np.uint8) for _ in range(3)]

    def full_loss():
        result = forward_full(params, x_scene, train=True, y_trn=y_trn, mask_rng=None, frozen_masks=frozen)
        return total_loss(result.stages, scene_labels, train_mask, result.final_logits)

    net_tensors = params.tensors()
    ok &= _report("total_loss", grad_check(full_loss, net_tensors, threshold=1e-3), lines)

    lines.append(f"suite: {'PASS' if ok else 'FAIL'} (threshold {THRESHOLD:g}, total-loss threshold 1e-3)")
    return lines, bool(ok)
