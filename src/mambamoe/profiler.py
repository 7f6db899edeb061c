"""Closed-form parameter and FLOP accounting for any network configuration.

Conventions: a multiply-accumulate is 2 FLOPs; elementwise ops, softmax
terms and pooling cost 1 FLOP per scalar operation; pure bookkeeping
(splits, concats, scan reorderings) is free.  One directional scan over T
tokens of width E with D states costs T * (2D + 4DE): the elementwise
decay and state update and the two projections.  A spatial expert scales
its T E outputs by its gate; its block, and each spectral scan, add a skip.
An expert holds D + 2DE parameters (the decay vector a_log and the two
projections).  The head is a 1x1 conv at stage 1, then the upsample
of its K logits; no softmax is taken.  FLOPs are counted for the inference
forward pass (stage supervision is a training-only construct).

The parameter formulas are written independently of the network builder
and must agree with a constructed network exactly; the FLOP formulas must
agree with the runtime instrumentation counter within a few percent (the
counter additionally sees small bookkeeping terms).
"""

from __future__ import annotations

from .network import NetSpec, stage_sizes

N_EXPERTS = 4


def _conv_params(c_out: int, c_in: int, k: int) -> int:
    return c_out * c_in * k * k + c_out


def _ssm_params(d: int, e: int) -> int:
    return d + 2 * d * e


def count_params(spec: NetSpec) -> tuple[int, dict[str, int]]:
    """Closed-form parameter count; equals the allocated count exactly."""
    c, d, k_cls, bands = spec.channels, spec.state_dim, spec.n_class, spec.bands
    half = c // 2
    hidden = max(half // 2, 1)

    stem = _conv_params(c, bands, 1) + 2 * _conv_params(c, c, 3)
    router = hidden * half + hidden + N_EXPERTS * hidden + N_EXPERTS
    momeb_one = (
        4 * c  # two LayerNorm affine pairs
        + N_EXPERTS * _ssm_params(d, half)
        + 2 * _ssm_params(d, 1)
        + router
        + _conv_params(c, c, 1)  # fuse
        + _conv_params(2 * c, c, 1)
        + _conv_params(c, 2 * c, 1)  # MLP
    )
    ffb = 3 * 2 * _conv_params(c, c, 3)
    head = _conv_params(k_cls, c, 1)
    by_module = {"stem": stem, "momeb": 3 * momeb_one, "ffb": ffb, "head": head}
    return sum(by_module.values()), by_module


def _conv_flops(c_out: int, c_in: int, k: int, h: int, w: int) -> int:
    return h * w * c_out * (2 * c_in * k * k) + h * w * c_out


def _scan_flops(t: int, d: int, e: int) -> int:
    return t * (2 * d + 4 * d * e)


def _router_flops(e: int, h: int, w: int) -> int:
    """The channel means of an (e, h, w) map, both linear layers with their
    biases, the ReLU and the softmax over the experts."""
    hidden = max(e // 2, 1)
    return e * h * w + (2 * e * hidden + hidden) + hidden + (2 * hidden * N_EXPERTS + N_EXPERTS) + 4 * N_EXPERTS


def count_flops(spec: NetSpec, input_shape: tuple[int, int, int]) -> tuple[int, dict[int, int], dict[str, int]]:
    """Inference-forward FLOPs: dense total, per-k totals, and a component
    breakdown.  Top-k reduces only the spatial-expert scans and the combine."""
    bands, height, width = input_shape
    if bands != spec.bands:
        raise ValueError(f"count_flops: input bands {bands} != config bands {spec.bands}")
    c, d = spec.channels, spec.state_dim
    half = c // 2
    sizes = stage_sizes(height, width)

    comp: dict[str, int] = {}
    # stem: conv+relu at the incoming resolution, pooled output per stage;
    # the first conv is 1x1 (bands -> C), the other two 3x3 (C -> C)
    comp["stem"] = 0
    in_sizes = [(height, width), sizes[0], sizes[1]]
    for (h, w), (ci, k), (h2, w2) in zip(in_sizes, [(bands, 1), (c, 3), (c, 3)], sizes):
        comp["stem"] += _conv_flops(c, ci, k, h, w) + c * h * w + 4 * c * h2 * w2

    ln = lambda h, w: h * w * (7 * c + 4)
    spatial_experts = 0
    momeb_other = 0
    for h, w in sizes:
        spatial_experts += N_EXPERTS * (_scan_flops(h * w, d, half) + half * h * w)  # scan + gate scale
        spectral = 2 * (h * w) * (_scan_flops(half, d, 1) + half) + half * h * w  # both with skips + fuse
        router = _router_flops(half, h, w)
        combine = N_EXPERTS * half * h * w  # the block's add sums the gated maps and the skip term
        mlp = _conv_flops(2 * c, c, 1, h, w) + 2 * c * h * w + _conv_flops(c, 2 * c, 1, h, w)
        momeb_other += (
            2 * ln(h, w) + spectral + router + combine + _conv_flops(c, c, 1, h, w) + mlp + 2 * c * h * w
        )  # trailing term: the two residual adds
    comp["spatial_experts"] = spatial_experts
    comp["momeb_other"] = momeb_other

    res_flops = lambda h, w: 2 * _conv_flops(c, c, 3, h, w) + 3 * c * h * w  # two ReLUs + residual add
    upsample = lambda h, w: 7 * c * h * w
    ffb_total = res_flops(*sizes[2])
    for i in (1, 0):
        h, w = sizes[i]
        ffb_total += upsample(h, w) + res_flops(h, w) + c * h * w
    comp["ffb"] = ffb_total

    k_cls = spec.n_class
    comp["head"] = _conv_flops(k_cls, c, 1, *sizes[0]) + 7 * k_cls * height * width

    dense = sum(comp.values())
    # each unselected expert saves its scan, its gate scale and one term of the add
    per_expert = spatial_experts // N_EXPERTS + half * sum(h * w for h, w in sizes)
    per_k = {k: dense - (N_EXPERTS - k) * per_expert for k in range(1, N_EXPERTS + 1)}
    return dense, per_k, comp


def report_csv(spec: NetSpec, input_shape: tuple[int, int, int]) -> str:
    """`key,value` lines: the input size, the parameter total and per-module
    counts, the dense and per-k FLOPs, and the FLOPs per component."""
    params_total, by_module = count_params(spec)
    dense, per_k, comp = count_flops(spec, input_shape)
    b, h, w = input_shape
    lines = ["key,value", f"input,{b}x{h}x{w}", f"params_total,{params_total}"]
    lines += [f"params_{name},{value}" for name, value in by_module.items()]
    lines.append(f"flops_dense,{dense}")
    lines += [f"flops_topk{k},{per_k[k]}" for k in sorted(per_k)]
    lines += [f"flops_{name},{value}" for name, value in comp.items()]
    return "\n".join(lines) + "\n"
