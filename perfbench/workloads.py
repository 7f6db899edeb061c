"""The benchmark's workloads and their correctness gate.

Each workload drives only the public API: ``train.train``,
``train.predict_labels``, ``train.evaluate``, ``network.save_checkpoint`` /
``load_checkpoint``, ``network.forward_full`` (the dense reference) and
``data.generate_synthetic``.  The seed picks the scene noise, the training
seeds and the initial parameters; the program only ever sees the generated
scene.

The bundled 32x32 scene is not a timed workload: its epochs of about 50 ms
spread too widely between runs on a shared machine to bound.  Its held-out
accuracy after 100 epochs, the benchmark's one quality outcome, is checked
untimed in every ``train-128`` run.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from mambamoe import data, moe, network, profiler, tensor as tt, train

from . import metrics
from .reference import Reference
from .spans import Patcher, Probe, Tracer, tail

N_CLASS = 4
K_VALUES = (1, 2, 3, 4)
TOPK = 3  # the paper's setting: a step of infer-128, traced inference, held-out OA
FLOP_TOLERANCE = 0.05  # the tolerance of the analytic-vs-runtime FLOP test
N_EXPERT_CALLS = moe.N_SPATIAL_EXPERTS * network.N_STAGES  # per dense forward
# Three calls of nine epochs give at least 24 timed epochs, so that the tail,
# with ten samples above it, lies above the median.
MIN_TRAIN_CALLS = 3
# Timed predict rounds over k=1..4 after each train() call: at least nine
# calls per k in a run.
PREDICT_ROUNDS = 3
# Reference-kernel samples after each train() call; one follows every
# predict_labels call and every set-up repeat.
REF_AFTER_TRAIN = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "infer"
    height: int  # square scenes
    bands: int
    channels: int
    state_dim: int
    cycle_epochs: int = 0  # epochs of one train() call
    quality_epochs: int = 0  # epochs of the untimed held-out OA check; 0 skips it
    setup_reps: int = 15

    @property
    def net_spec(self) -> network.NetSpec:
        return network.NetSpec(bands=self.bands, channels=self.channels, state_dim=self.state_dim, n_class=N_CLASS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-128",
            why="128x128x32 scene at paper widths C=48 D=24, each train() call followed by k=1..4 predict rounds: the spatial scan over 4096 tokens and the upsample backward dominate",
            kind="train",
            height=128,
            bands=32,
            channels=48,
            state_dim=24,
            cycle_epochs=9,
            quality_epochs=100,
        ),
        Workload(
            name="infer-128",
            why="same scene and widths, checkpoint-loaded, predict_labels swept over k=1..4: no tape, backward, Adam or upsample backward, so it bypasses them; the scan share grows with k",
            kind="infer",
            height=128,
            bands=32,
            channels=48,
            state_dim=24,
        ),
    )
}


def scene_spec(w: Workload, seed: int) -> data.SyntheticSpec:
    """A four-class square scene from the generator of the bundled scene,
    with one block of bands//4 bright bands per class."""
    block = w.bands // N_CLASS

    def sig(i):
        s = np.zeros(w.bands)
        s[i * block : (i + 1) * block] = 1.25
        return s

    period = max(2, w.height // 4)  # the bundled 32x32 scene uses 8
    return data.SyntheticSpec(
        height=w.height,
        width=w.height,
        bands=w.bands,
        classes=[
            data.SynthClass("stripes-vertical", "vertical", sig(0), stripe_period=period),
            data.SynthClass("stripes-horizontal", "horizontal", sig(1), stripe_period=period),
            data.SynthClass("disc", "blob", sig(2)),
            data.SynthClass("background", "background", sig(3)),
        ],
        noise_sigma=0.25,
        seed=seed,
    )


def build_scene(w: Workload, seed: int) -> data.HsiScene:
    return data.generate_synthetic(scene_spec(w, seed))


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Runner:
    """One run of one workload: set-up, timed loop, correctness gate."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.res = Result()
        self.patcher = Patcher()
        self.probe = Probe(self.patcher)
        self.ref = Reference()
        self.missing: set[str] = set()

    # --- bookkeeping -------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.res.failed += 1
            self.res.problems.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def check_labels(self, pred: np.ndarray, what: str) -> None:
        self.check(pred.min() >= 1 and pred.max() <= N_CLASS, f"{what}: labels outside 1..{N_CLASS}")

    def train_once(self, scene, cfg: train.TrainConfig) -> train.TrainResult | None:
        what = f"train seed {cfg.seed}"
        experts = self.probe.experts
        try:
            result = train.train(cfg, scene)
        except train.TrainingAbort as exc:
            self.res.attempted += exc.epoch
            self.check(False, f"{what}: {exc}")
            return None
        self.res.attempted += len(result.history)
        self.check(all(math.isfinite(loss) for _, loss, _ in result.history), f"{what}: non-finite loss")
        if self.probe.has_experts:
            ran = self.probe.experts - experts
            expected = N_EXPERT_CALLS * cfg.epochs
            self.check(ran == expected, f"{what}: experts_frac {ran / expected} != 1")
        return result

    def predict_once(self, params, scene, k: int) -> np.ndarray | None:
        experts = self.probe.experts
        self.res.attempted += 1
        try:
            pred = train.predict_labels(params, scene, topk=k)
        except tt.NumericalError as exc:
            self.check(False, f"predict k={k}: {exc}")
            return None
        self.check_labels(pred, f"predict k={k}")
        if self.probe.has_experts:
            ran = self.probe.experts - experts
            self.check(ran == network.N_STAGES * k, f"predict k={k}: experts_frac {ran / N_EXPERT_CALLS} != {k}/4")
        return pred

    # --- phases ------------------------------------------------------------------

    def setup(self, ckpt_path: str | None):
        """Median over repeats of scene build plus parameter init (train) or
        checkpoint load (infer)."""
        scene_s, param_s, params = [], [], None
        for _ in range(self.w.setup_reps):
            t0 = time.perf_counter()
            scene = build_scene(self.w, self.seed)
            t1 = time.perf_counter()
            if ckpt_path is None:
                params = network.init_network_params(self.w.net_spec, np.random.default_rng(self.seed))
            else:
                params, _ = network.load_checkpoint(ckpt_path)
            t2 = time.perf_counter()
            scene_s.append(t1 - t0)
            param_s.append(t2 - t1)
            self.ref.sample()
        total = [a + b for a, b in zip(scene_s, param_s)]
        m = self.res.metrics
        m["setup_s"] = float(np.median(total))
        m["data.scene_ms"] = 1e3 * float(np.median(scene_s))
        m["network.init_ms"] = 1e3 * float(np.median(param_s)) if ckpt_path is None else 0.0
        m["network.ckpt_load_ms"] = 1e3 * float(np.median(param_s)) if ckpt_path is not None else 0.0
        return scene, params

    def gate(self, params, scene) -> None:
        """k=4 equals the dense argmax bit for bit, and its runtime FLOPs are
        within 5% of the analytic count."""
        with tt.FLOPS:
            pred4 = self.predict_once(params, scene, 4)
            measured = tt.FLOPS.total
        if pred4 is None:
            return
        x = data.normalize_scene(scene)
        dense = network.forward_full(params, x, train=False, topk=None).final_logits.data.argmax(axis=0) + 1
        self.check(np.array_equal(pred4, dense.astype(pred4.dtype)), "predict k=4 differs from the dense forward argmax")
        _, per_k, _ = profiler.count_flops(self.w.net_spec, scene.cube.shape)
        self.check(
            abs(measured - per_k[4]) <= FLOP_TOLERANCE * per_k[4],
            f"runtime FLOPs {measured} not within 5% of analytic {per_k[4]} at k=4",
        )

    def quality(self) -> float | None:
        """Untimed: held-out OA at k=3 of the bundled 32x32 scene after
        ``quality_epochs`` of train() at C=16, D=8, which must beat the
        majority-class rate of the held-out pixels."""
        scene = data.generate_synthetic(data.default_synthetic_spec(seed=self.seed))
        cfg = train.TrainConfig(channels=16, state_dim=8, epochs=self.w.quality_epochs, seed=self.seed)
        result = self.train_once(scene, cfg)
        if result is None:
            return None
        oa = train.evaluate(result.params, scene, result.test_mask, topk=TOPK).oa
        self.res.attempted += 1
        labels = scene.labels[result.test_mask]
        chance = np.bincount(labels).max() / labels.size
        self.check(oa > chance, f"bundled scene: test OA {oa:.3f} not above chance {chance:.3f}")
        self.res.meta["test_oa"] = oa
        return oa

    def sweep(self, params, scene, samples: dict[int, list[float]]) -> bool:
        """One timed predict_labels call at each k=1..4, as train.topk_sweep
        makes them; False once a call has failed."""
        for k in K_VALUES:
            t = time.perf_counter()
            if self.predict_once(params, scene, k) is None:
                return False
            samples[k].append(1e3 * (time.perf_counter() - t))
            self.ref.sample()
        return True

    def report_infer(self, samples: dict[int, list[float]]) -> None:
        for k in K_VALUES:
            self.res.metrics[f"infer_ms_k{k}"] = float(np.median(samples[k]))
        self.res.meta["infer_samples_per_k"] = len(samples[K_VALUES[0]])

    def report_steps(self, step_ms: list[float]) -> None:
        value, pct = tail(step_ms)
        self.res.metrics["step_ms"] = float(np.median(step_ms))
        self.res.metrics["step_ms_tail"] = value
        self.res.meta["step_samples"] = len(step_ms)
        self.res.meta["step_ms_tail_percentile"] = round(pct, 2)

    def scale_timings(self) -> None:
        """Scale the end-to-end timings to the reference speed (see
        ``reference``); the wall times go to the metadata."""
        scale = self.ref.scale()
        m = self.res.metrics
        wall = {name: m[name] for name, unit, _ in metrics.END_TO_END if unit in ("s", "ms") and name in m}
        m.update({name: value * scale for name, value in wall.items()})
        self.res.meta.update(wall=wall, ref_ms=self.ref.median_ms(), ref_samples=len(self.ref.samples))

    def peak_mem(self, params, scene) -> None:
        """tracemalloc peak over one extra untimed epoch or inference call."""
        tracemalloc.start()
        try:
            if self.w.kind == "train":
                self.train_once(scene, self.config(1, seed=99))  # a seed no timed call uses
            else:
                self.predict_once(params, scene, TOPK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.res.metrics["peak_mem_mib"] = peak / 2**20

    def config(self, epochs: int, seed: int) -> train.TrainConfig:
        return train.TrainConfig(
            channels=self.w.channels, state_dim=self.w.state_dim, epochs=epochs, seed=self.seed * 100 + seed
        )

    # --- workloads -----------------------------------------------------------------

    def run(self) -> Result:
        try:
            if self.w.kind == "train":
                self.run_train()
            else:
                with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.workdir) as tmp:
                    self.run_infer(f"{tmp}/params.mmoe")
        finally:
            self.patcher.restore()
        self.missing.update(self.patcher.missing)
        for name in sorted(self.missing):
            print(f"perfbench: warning: {name} no longer exists; its rows are dropped", file=sys.stderr)
        self.res.meta["missing"] = sorted(self.missing)
        if self.res.failed:
            self.res.meta["problems"] = self.res.problems
        return self.res

    @contextmanager
    def traced(self, tracer: Tracer | None):
        """Install ``tracer``, if given, and count FLOPs for the calls inside."""
        if tracer is None:
            yield
            return
        tracing = Patcher()
        tracer.install(tracing)
        try:
            with tt.FLOPS:
                yield
        finally:
            tracing.restore()
            self.missing.update(tracing.missing)

    def run_train(self) -> None:
        w = self.w
        scene, _ = self.setup(None)
        # Whole train() calls of cycle_epochs each, at least MIN_TRAIN_CALLS
        # and until the time is up.  An untraced run follows each call with
        # PREDICT_ROUNDS timed rounds over k=1..4 of the trained parameters.  A
        # traced run alternates untraced and traced calls, so that drift on a
        # shared machine does not read as overhead.
        tracer = Tracer(w.height) if self.trace else None
        epoch_ms: dict[bool, list[float]] = {False: [], True: []}
        infer_ms: dict[int, list[float]] = {k: [] for k in K_VALUES}
        t0 = time.perf_counter()
        call, params = 0, None
        while call < MIN_TRAIN_CALLS or time.perf_counter() - t0 < self.seconds:
            traced = tracer is not None and call % 2 == 1
            first = len(self.probe.boundaries)
            t_call = time.perf_counter()
            with self.traced(tracer if traced else None):
                result = self.train_once(scene, self.config(w.cycle_epochs, call))
            if result is None:
                break
            if self.probe.has_boundaries:
                # The first epoch of a call also pays for split and init: not timed.
                epoch_ms[traced] += list(1e3 * np.diff(self.probe.boundaries[first:]))
            else:
                epoch_ms[traced].append(1e3 * (time.perf_counter() - t_call) / w.cycle_epochs)
            params = result.params
            call += 1
            self.ref.sample(REF_AFTER_TRAIN)
            if tracer is None and not all(self.sweep(params, scene, infer_ms) for _ in range(PREDICT_ROUNDS)):
                break
        if params is None:
            return
        self.res.meta["train_calls"] = call
        self.gate(params, scene)
        oa = self.quality() if w.quality_epochs else None
        if tracer is not None:
            analytic = profiler.count_flops(w.net_spec, scene.cube.shape)[2]
            self.report_trace(tracer, epoch_ms[False], epoch_ms[True], analytic)
            self.res.metrics["train.test_oa"] = oa or 0.0
            return
        self.report_steps(epoch_ms[False])
        if infer_ms[K_VALUES[-1]]:
            self.report_infer(infer_ms)
        self.scale_timings()
        self.peak_mem(params, scene)

    def run_infer(self, ckpt_path: str) -> None:
        w = self.w
        network.save_checkpoint(ckpt_path, network.init_network_params(w.net_spec, np.random.default_rng(self.seed)))
        scene, params = self.setup(ckpt_path)
        self.gate(params, scene)
        if not self.trace:
            samples: dict[int, list[float]] = {k: [] for k in K_VALUES}
            t0 = time.perf_counter()
            while True:
                if not self.sweep(params, scene, samples):
                    return
                if time.perf_counter() - t0 >= self.seconds:
                    break
            self.report_infer(samples)
            self.report_steps(samples[TOPK])
            self.scale_timings()
            self.peak_mem(params, scene)
            return
        # Traced and untraced calls alternate, as in a traced training run.
        tracer = Tracer(w.height)
        call_ms: dict[bool, list[float]] = {False: [], True: []}
        t0 = time.perf_counter()
        call = 0
        while call < 2 or time.perf_counter() - t0 < self.seconds:
            traced = call % 2 == 1
            with self.traced(tracer if traced else None):
                t = time.perf_counter()
                with tracer.step() if traced else nullcontext():
                    pred = self.predict_once(params, scene, TOPK)
                call_ms[traced].append(1e3 * (time.perf_counter() - t))
            if pred is None:
                return
            call += 1
        _, _, analytic = profiler.count_flops(w.net_spec, scene.cube.shape)
        analytic["spatial_experts"] = analytic["spatial_experts"] * TOPK // moe.N_SPATIAL_EXPERTS
        self.report_trace(tracer, call_ms[False], call_ms[True], analytic)
        self.res.metrics["train.test_oa"] = 0.0

    def report_trace(self, tracer: Tracer, untraced_ms, traced_ms, analytic) -> None:
        self.res.metrics.update(tracer.layer_metrics(analytic))
        overhead = float(np.median(traced_ms) - np.median(untraced_ms)) if traced_ms and untraced_ms else 0.0
        self.res.metrics["bench.trace_overhead_ms"] = overhead
        self.res.meta.update(
            traced_steps=tracer.steps,
            untraced_step_ms=float(np.median(untraced_ms)) if untraced_ms else None,
            trace_overhead_ms=overhead,
        )
