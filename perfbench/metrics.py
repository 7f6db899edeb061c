"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.  Every workload reports every end-to-end metric (an
untraced run) and every per-layer metric (a traced run).  A per-layer metric
that a workload does not exercise reads 0: inference has no backward pass,
so ``train.bwd_ms`` is 0 on ``infer-128``.

End to end, a step is one epoch of public ``train()`` on ``train-128`` and
one ``predict_labels`` call at k=3 on ``infer-128``, where ``step_ms`` is
therefore ``infer_ms_k3`` by construction.  ``train-128`` follows each
``train()`` call with three rounds of ``predict_labels`` calls at k=1..4 on the
trained parameters, each round as ``train.topk_sweep`` makes it.  ``step_ms_tail`` is the
highest order statistic with ten samples above it; a run has at least 24
steps (three calls of nine epochs, the first of each untimed; about 40
rounds on ``infer-128``), so it lies above the median.

Every end-to-end timing is scaled to the reference speed of
``reference.py``: the run's wall time times ``REF_MS`` over the median of a
fixed kernel timed between the run's steps.  On a shared host this takes
out the drift of the machine's speed over minutes, which a median over one
run cannot.  The wall times are in the run's metadata.

Per layer, values are means per traced step.  ``<layer>.fwd_ms`` is forward
self time (the span minus its child spans), ``<layer>.bwd_ms`` the backward
time of the tape ops the layer recorded itself; ``train.fwd_ms``,
``train.bwd_ms`` and ``train.adam_ms`` are whole phases.

Which end-to-end metric a change to each layer should move:

* ``scan.spatial{i}``: ``step_ms`` on train-128; on infer-128
  ``infer_ms_k4`` much more than ``infer_ms_k1``.
* ``tensor.upsample``: ``step_ms`` on train-128 only; no change on infer-128,
  which has no backward pass.
* ``network.uarb``, ``network.loss``: ``step_ms`` on train-128 only.
* ``network.stem``, ``tensor.conv2d``, ``scan.spectral{i}``: ``infer_ms_k1``
  on infer-128.
* ``moe.router{i}``, ``moe.block{i}`` (LN, fuse, MLP and combine as self
  time), ``moe.experts_frac{i}`` (k/4 at inference, 1 in training):
  ``infer_ms_k*``.
* ``network.ffb{i}``, ``network.head``: ``step_ms`` and ``infer_ms_k*``, as a
  small share.
* ``train.*``, ``tensor.tape_ops``, ``tensor.bwd_*``: ``step_ms`` on
  train-128, as the per-op and tape overhead that dominates small scenes.
* ``train.test_oa``: the held-out OA of the bundled 32x32 scene after 100
  untimed epochs, checked in every train-128 run; 0 on infer-128.
* ``network.ckpt_load_ms``, ``network.init_ms``, ``data.scene_ms``:
  ``setup_s``.
* ``<component>.mflop`` / ``.gflops`` join the runtime ``tensor.FLOPS`` of
  the spans with the ``profiler.count_flops`` components.
"""

from __future__ import annotations

STAGES = (1, 2, 3)

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("step_ms", "ms", "lower"),
    ("step_ms_tail", "ms", "lower"),
    ("infer_ms_k1", "ms", "lower"),
    ("infer_ms_k2", "ms", "lower"),
    ("infer_ms_k3", "ms", "lower"),
    ("infer_ms_k4", "ms", "lower"),
    ("peak_mem_mib", "MiB", "lower"),
]

# Layer spans: each reports forward self time and backward self time per step.
LAYER_SPANS = (
    ["network.forward", "network.stem"]
    + [f"moe.block{i}" for i in STAGES]
    + [f"moe.router{i}" for i in STAGES]
    + [f"scan.spatial{i}" for i in STAGES]
    + [f"scan.spectral{i}" for i in STAGES]
    + [f"network.ffb{i}" for i in STAGES]
    + ["network.head", "network.uarb", "network.loss"]
)
# Primitive spans overlay the layer tree: they time every call of one tensor
# primitive wherever it happens, and take no time away from the layer that
# called it.
OVERLAY_SPANS = ["tensor.conv2d", "tensor.upsample"]
# Components of ``profiler.count_flops``.
FLOP_COMPONENTS = ["stem", "spatial_experts", "momeb_other", "ffb", "head"]


def _per_layer() -> list[tuple[str, str, str]]:
    rows = [
        ("train.step_ms", "ms", "lower"),
        ("train.fwd_ms", "ms", "lower"),
        ("train.bwd_ms", "ms", "lower"),
        ("train.adam_ms", "ms", "lower"),
        ("train.test_oa", "fraction", "higher"),
        ("data.normalize.fwd_ms", "ms", "lower"),
    ]
    for name in LAYER_SPANS:
        rows += [(f"{name}.fwd_ms", "ms", "lower"), (f"{name}.bwd_ms", "ms", "lower")]
    for i in STAGES:
        rows += [
            (f"scan.spatial{i}.calls", "count", "lower"),
            (f"scan.spatial{i}.ns_per_token", "ns", "lower"),
            (f"moe.experts_frac{i}", "fraction", "lower"),
        ]
    for name in OVERLAY_SPANS:
        rows += [(f"{name}.fwd_ms", "ms", "lower"), (f"{name}.bwd_ms", "ms", "lower"), (f"{name}.calls", "count", "lower")]
    rows += [
        ("tensor.tape_ops", "count", "lower"),
        ("tensor.bwd_unowned_ms", "ms", "lower"),
        ("tensor.bwd_engine_ms", "ms", "lower"),
        ("data.scene_ms", "ms", "lower"),
        ("network.init_ms", "ms", "lower"),
        ("network.ckpt_load_ms", "ms", "lower"),
    ]
    for comp in FLOP_COMPONENTS:
        rows += [(f"{comp}.mflop", "MFLOP", "lower"), (f"{comp}.gflops", "GFLOP/s", "higher")]
    rows += [
        ("profiler.runtime_vs_analytic", "ratio", "lower"),
        ("bench.root_self_ms", "ms", "lower"),
        ("bench.root_self_frac", "fraction", "lower"),
        ("bench.trace_overhead_ms", "ms", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
