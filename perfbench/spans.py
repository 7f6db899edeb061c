"""Outside-in instrumentation of the mambamoe public API.

Everything here patches module attributes of the program from the
benchmark's side and restores them afterwards; the program itself carries
no instrumentation.

* ``Probe`` is the only instrumentation of an untraced run: a timestamp at
  each epoch boundary (after every ``train.adam_step``) and a count of
  ``moe.spatial_expert_forward`` calls, the spatial experts actually run.
* ``Tracer`` records a span at each layer boundary for the traced run.  A
  span keeps its wall time, the ``tensor.FLOPS`` count and the range of tape
  ops recorded while it was open.  Before the tape is replayed, every
  ``TapeOp.backward`` closure is wrapped so that the innermost span that
  recorded the op owns its backward time.  A span's self time is its
  duration minus the duration of its child spans.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from mambamoe import moe, network, tensor as tt, train

from . import metrics


class Patcher:
    """Replaces module attributes with wrappers and puts them back.

    A target that no longer exists is skipped and named in ``missing``; the
    metrics it fed read 0.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, module, attr: str, make_wrapper) -> bool:
        """Wrap ``module.attr``; False, and named in ``missing``, if it is gone."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Probe:
    """Epoch-boundary timestamps and spatial-expert call counts."""

    def __init__(self, patcher: Patcher):
        self.boundaries: list[float] = []
        self.experts = 0
        self.has_boundaries = patcher.patch(train, "adam_step", self._after)
        self.has_experts = patcher.patch(moe, "spatial_expert_forward", self._counted)

    def _after(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.boundaries.append(time.perf_counter())
            return out

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.experts += 1
            return fn(*args, **kwargs)

        return wrapper


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    overlay: bool
    t0: float
    flops0: int
    tape: object
    op0: int
    t1: float = 0.0
    flops1: int = 0
    op1: int = 0
    tokens: int = 0
    child_s: float = 0.0
    bwd_s: float = 0.0


@dataclass
class Step:
    """One root span: a training epoch or one inference call."""

    t0: float
    spans: list[Span] = field(default_factory=list)
    unowned_bwd_s: float = 0.0
    closure_s: float = 0.0
    tape_ops: int = 0


@dataclass
class Totals:
    """Per-name sums over the closed steps."""

    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    bwd_s: float = 0.0
    flops: int = 0
    tokens: int = 0


class Tracer:
    """Span tracer over one scene size.

    Steps are training epochs (from one ``adam_step`` exit to the next; the
    first, partial epoch of each ``train()`` call is dropped) or the
    inference calls the benchmark wraps in ``step()``.
    """

    def __init__(self, scene_height: int, clock=time.perf_counter):
        self.clock = clock
        self.scene_height = scene_height
        self.totals: dict[str, Totals] = {}
        self.steps = 0
        self.step_s = 0.0
        self.top_s = 0.0
        self.unowned_s = 0.0
        self.engine_s = 0.0
        self.tape_ops = 0
        self._stack: list[Span] = []
        self._step: Step | None = None
        self._tape_spans: dict[int, list[Span]] = {}

    def install(self, patcher: Patcher) -> None:
        """Wrap every layer boundary; ``patcher.restore()`` removes them."""

        def stage_of(args) -> str:
            # Stage i works at 1/2**i of the scene height.
            h, _ = _map_hw(args)
            i = round(math.log2(self.scene_height / h)) if h else 0
            return str(i) if i in metrics.STAGES else "?"

        def enclosing_stage() -> str:
            for span in reversed(self._stack):
                if span.name.startswith("moe.block"):
                    return span.name[len("moe.block") :]
            return "?"

        self._step = None
        p = patcher.patch
        p(train, "normalize_scene", self._spanned(lambda a: "data.normalize"))
        p(train, "forward_full", self._spanned(lambda a: "network.forward"))
        p(train, "total_loss", self._spanned(lambda a: "network.loss"))
        p(train, "adam_step", self._spanned(lambda a: "train.adam", after=self._boundary))
        p(tt, "backward", self._backward)
        p(network, "extract_features", self._spanned(lambda a: "network.stem"))
        p(network, "momeb_forward", self._spanned(lambda a: f"moe.block{stage_of(a)}"))
        p(network, "ffb", self._spanned(lambda a: f"network.ffb{stage_of(a)}"))
        p(network, "classify_head", self._spanned(lambda a: "network.head"))
        p(network, "uarb", self._spanned(lambda a: "network.uarb"))
        p(moe, "route", self._spanned(lambda a: f"moe.router{enclosing_stage()}"))
        p(moe, "spatial_expert_forward", self._spanned(lambda a: f"scan.spatial{enclosing_stage()}", tokens=True))
        p(moe, "sse_forward", self._spanned(lambda a: f"scan.spectral{enclosing_stage()}"))
        p(tt, "conv2d", self._spanned(lambda a: "tensor.conv2d", overlay=True))
        p(tt, "bilinear_upsample", self._spanned(lambda a: "tensor.upsample", overlay=True))

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str, overlay: bool) -> Span:
        tape = tt.active_tape()
        span = Span(
            name=name,
            parent=self._stack[-1] if self._stack else None,
            overlay=overlay,
            t0=self.clock(),
            flops0=tt.FLOPS.total,
            tape=tape,
            op0=len(tape.ops) if tape is not None else 0,
        )
        if not overlay:
            self._stack.append(span)
        if self._step is not None:
            self._step.spans.append(span)
        if tape is not None:
            self._tape_spans.setdefault(id(tape), []).append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = self.clock()
        span.flops1 = tt.FLOPS.total
        span.op1 = len(span.tape.ops) if span.tape is not None else 0
        if span.overlay:
            return
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.t1 - span.t0

    def _spanned(self, name_of, overlay: bool = False, tokens: bool = False, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                span = self._open(name_of(args), overlay)
                if tokens:
                    h, w = _map_hw(args)
                    span.tokens = h * w
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span)
                    if after is not None:
                        after()

            return wrapper

        return make

    def _backward(self, fn):
        def wrapper(tape, loss):
            self._attribute(tape)
            span = self._open("train.bwd", overlay=False)
            try:
                return fn(tape, loss)
            finally:
                self._close(span)
                self._tape_spans.pop(id(tape), None)

        return wrapper

    def _attribute(self, tape) -> None:
        """Wrap each recorded op's backward closure so its time lands on the
        innermost span that recorded it (and on its primitive overlay)."""
        n = len(tape.ops)
        owner: list[Span | None] = [None] * n
        overlay: list[Span | None] = [None] * n
        # Spans are listed in entry order, so a child overwrites its parent.
        for span in self._tape_spans.pop(id(tape), []):
            target = overlay if span.overlay else owner
            for i in range(span.op0, span.op1):
                target[i] = span
        step = self._step
        if step is not None:
            step.tape_ops += n
        for op, own, ov in zip(tape.ops, owner, overlay):
            op.backward = self._timed(op.backward, own, ov, step)

    def _timed(self, fn, own: Span | None, ov: Span | None, step: Step | None):
        clock = self.clock

        def timed(g):
            t0 = clock()
            try:
                return fn(g)
            finally:
                dt = clock() - t0
                if own is not None:
                    own.bwd_s += dt
                elif step is not None:
                    step.unowned_bwd_s += dt
                if ov is not None:
                    ov.bwd_s += dt
                if step is not None:
                    step.closure_s += dt

        return timed

    # --- steps -----------------------------------------------------------------

    def _boundary(self) -> None:
        if self._stack:
            return
        now = self.clock()
        if self._step is not None:
            self._fold(self._step, now)
        self._step = Step(t0=now)

    @contextmanager
    def step(self):
        """Make the calls inside one step (one inference call)."""
        self._step = Step(t0=self.clock())
        try:
            yield
        finally:
            self._fold(self._step, self.clock())
            self._step = None

    def _fold(self, step: Step, t1: float) -> None:
        self.steps += 1
        self.step_s += t1 - step.t0
        self.unowned_s += step.unowned_bwd_s
        self.tape_ops += step.tape_ops
        for span in step.spans:
            incl = span.t1 - span.t0
            tot = self.totals.setdefault(span.name, Totals())
            tot.calls += 1
            tot.incl_s += incl
            tot.self_s += incl - span.child_s
            tot.bwd_s += span.bwd_s
            tot.flops += span.flops1 - span.flops0
            tot.tokens += span.tokens
            if span.parent is None and not span.overlay:
                self.top_s += incl
            if span.name == "train.bwd":
                self.engine_s += incl - step.closure_s

    # --- report ----------------------------------------------------------------

    def _per_step(self, value: float) -> float:
        return value / self.steps if self.steps else 0.0

    def _get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def layer_metrics(self, analytic: dict[str, int] | None = None) -> dict[str, float]:
        """Per-step means of every span-derived per-layer metric.

        ``analytic`` maps ``profiler.count_flops`` components to the FLOPs of
        one traced step's forward; with it the result carries the ratio of
        runtime to analytic FLOPs.
        """
        ms = lambda s: 1e3 * self._per_step(s)
        out: dict[str, float] = {}
        for name in metrics.LAYER_SPANS:
            tot = self._get(name)
            out[f"{name}.fwd_ms"] = ms(tot.self_s)
            out[f"{name}.bwd_ms"] = ms(tot.bwd_s)
        out["data.normalize.fwd_ms"] = ms(self._get("data.normalize").incl_s)
        fwd, loss = self._get("network.forward"), self._get("network.loss")
        out["train.step_ms"] = ms(self.step_s)
        out["train.fwd_ms"] = ms(fwd.incl_s + loss.incl_s)
        out["train.bwd_ms"] = ms(self._get("train.bwd").incl_s)
        out["train.adam_ms"] = ms(self._get("train.adam").incl_s)
        for i in metrics.STAGES:
            spa = self._get(f"scan.spatial{i}")
            block = self._get(f"moe.block{i}")
            out[f"scan.spatial{i}.calls"] = self._per_step(spa.calls)
            out[f"scan.spatial{i}.ns_per_token"] = 1e9 * (spa.incl_s + spa.bwd_s) / spa.tokens if spa.tokens else 0.0
            out[f"moe.experts_frac{i}"] = spa.calls / (moe.N_SPATIAL_EXPERTS * block.calls) if block.calls else 0.0
        for name in metrics.OVERLAY_SPANS:
            tot = self._get(name)
            out[f"{name}.fwd_ms"] = ms(tot.incl_s)
            out[f"{name}.bwd_ms"] = ms(tot.bwd_s)
            out[f"{name}.calls"] = self._per_step(tot.calls)
        out["tensor.tape_ops"] = self._per_step(self.tape_ops)
        out["tensor.bwd_unowned_ms"] = ms(self.unowned_s)
        out["tensor.bwd_engine_ms"] = ms(self.engine_s)
        root_self = self.step_s - self.top_s
        out["bench.root_self_ms"] = ms(root_self)
        out["bench.root_self_frac"] = root_self / self.step_s if self.step_s else 0.0

        runtime = self.component_flops()
        for comp in metrics.FLOP_COMPONENTS:
            flops, secs = runtime[comp]
            out[f"{comp}.mflop"] = self._per_step(flops) / 1e6
            out[f"{comp}.gflops"] = flops / secs / 1e9 if secs > 0 else 0.0
        if analytic:
            measured = sum(flops for flops, _ in runtime.values())
            out["profiler.runtime_vs_analytic"] = self._per_step(measured) / sum(analytic.values())
        return out

    def component_flops(self) -> dict[str, tuple[int, float]]:
        """Runtime (FLOPs, forward seconds) summed over the steps for each
        ``profiler.count_flops`` component.

        The head component is the forward outside stem, blocks, decoder and
        stage supervision: the final upsample and the final classifier.
        """

        def total(names):
            tots = [self._get(n) for n in names]
            return sum(t.flops for t in tots), sum(t.incl_s for t in tots)

        stem = total(["network.stem"])
        spatial = total([f"scan.spatial{i}" for i in metrics.STAGES])
        blocks = total([f"moe.block{i}" for i in metrics.STAGES])
        ffb = total([f"network.ffb{i}" for i in metrics.STAGES])
        uarb = total(["network.uarb"])
        fwd = total(["network.forward"])
        inner = [stem, blocks, ffb, uarb]
        return {
            "stem": stem,
            "spatial_experts": spatial,
            "momeb_other": (blocks[0] - spatial[0], blocks[1] - spatial[1]),
            "ffb": ffb,
            "head": (fwd[0] - sum(f for f, _ in inner), fwd[1] - sum(s for _, s in inner)),
        }


def _map_hw(args) -> tuple[int, int]:
    """Extent of the (C, h, w) feature map passed second, or (0, 0)."""
    x = args[1] if len(args) > 1 else None
    return x.shape[1:] if getattr(x, "ndim", 0) == 3 else (0, 0)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile; never below the median, so with fewer than 21 samples it is
    the median."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    idx = max(n - 11, n // 2)
    return float(xs[idx]), 100.0 * (idx + 1) / n
