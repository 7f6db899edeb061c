"""Tests of the benchmark itself: contract, tracer arithmetic, failure counting."""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mambamoe import moe, tensor as tt  # noqa: E402

from perfbench import metrics, reference, run, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str) -> workloads.Workload:
    """The workload at 16x16 with narrow widths, in well under a second.

    The tiny runs skip the 100-epoch held-out accuracy check of the bundled
    scene; the full-size runs make it.
    """
    w = workloads.WORKLOADS[name]
    return replace(
        w, height=16, bands=4, channels=8, state_dim=4,
        cycle_epochs=3 if w.kind == "train" else 0, quality_epochs=0, setup_reps=2,
    )


def run_tiny(name: str, trace: bool, tmp_path, seconds: float = 0.05) -> workloads.Result:
    return workloads.Runner(tiny(name), seed=0, seconds=seconds, trace=trace, workdir=str(tmp_path)).run()


class TestContract:
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert bench["paths"] == ["perfbench"]
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
        for w in bench["workloads"]:
            assert w["why"] == workloads.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
        assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == metrics.END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metrics.PER_LAYER
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
        assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
        assert all(UNIT.match(u) for u in metrics.UNITS.values())

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-128", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "cannot import the program under test" in proc.stderr
        assert proc.stdout == ""


class TestSmoke:
    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    @pytest.mark.parametrize("trace", [False, True])
    def test_tiny_run_is_correct_and_complete(self, name, trace, tmp_path):
        res = run_tiny(name, trace, tmp_path)
        assert res.correct, res.problems
        assert res.attempted >= 1
        expected = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert {n for n, _, _ in expected} <= set(res.metrics)
        assert all(np.isfinite(v) for v in res.metrics.values())
        if not trace:
            assert all(res.metrics[n] > 0 for n, _, _ in metrics.END_TO_END)
        assert not list(tmp_path.iterdir()), "the checkpoint directory is removed"

    def test_traced_inference_runs_k_of_four_experts(self, tmp_path):
        res = run_tiny("infer-128", True, tmp_path)
        for i in metrics.STAGES:
            assert res.metrics[f"moe.experts_frac{i}"] == 3 / 4
        assert res.metrics["train.bwd_ms"] == 0.0
        assert abs(res.metrics["profiler.runtime_vs_analytic"] - 1) < workloads.FLOP_TOLERANCE

    def test_traced_training_owns_every_op_and_explains_the_step(self, tmp_path):
        res = run_tiny("train-128", True, tmp_path)
        m = res.metrics
        assert m["tensor.bwd_unowned_ms"] == 0.0
        assert m["moe.experts_frac1"] == 1.0
        bwd_parts = sum(m[f"{n}.bwd_ms"] for n in metrics.LAYER_SPANS) + m["tensor.bwd_engine_ms"]
        assert bwd_parts == pytest.approx(m["train.bwd_ms"], rel=1e-9)
        assert m["bench.root_self_frac"] < 0.10


class FakeClock:
    """Every reading is one tick later than the last."""

    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return float(next(self._ticks))


class TestTracerArithmetic:
    def test_self_time_and_backward_ownership(self):
        clock = FakeClock()
        tracer = spans.Tracer(scene_height=16, clock=clock)
        x = tt.parameter(np.ones(3))

        @tracer._spanned(lambda a: "scan.spatial1")
        def leaf():
            return tt.relu(tt.scale(x, 2.0))

        @tracer._spanned(lambda a: "moe.block1")
        def block():
            y = leaf()
            return tt.sum_all(tt.add(y, y))

        with tracer.step():
            with tt.Tape() as tape:
                loss = tt.scale(block(), 0.5)  # recorded outside every span
                tracer._backward(tt.backward)(tape, loss)

        # Readings: block opens 1, leaf 2-3, block closes 4; bwd span 5..
        # each op closure reads the clock twice, so each op costs one tick.
        assert tracer.totals["moe.block1"].incl_s == 3
        assert tracer.totals["moe.block1"].self_s == 2
        assert tracer.totals["scan.spatial1"].self_s == 1
        assert tracer.totals["scan.spatial1"].bwd_s == 2  # scale, relu
        assert tracer.totals["moe.block1"].bwd_s == 2  # add, sum_all
        assert tracer.unowned_s == 1  # the outer scale
        assert tracer.tape_ops == 5
        assert len(tape.ops) == 5
        m = tracer.layer_metrics()
        assert m["bench.root_self_ms"] == pytest.approx(1e3 * (tracer.step_s - tracer.top_s))
        assert x.grad.tolist() == [2.0, 2.0, 2.0]

    def test_tail_keeps_ten_samples_beyond(self):
        value, pct = spans.tail(list(range(100)))
        assert value == 89 and pct == 90
        value, pct = spans.tail(list(range(15)))
        assert value == 7 and pct == pytest.approx(100 * 8 / 15)


class TestReferenceScaling:
    def test_timings_scale_to_the_reference_speed(self, tmp_path):
        runner = workloads.Runner(tiny("infer-128"), seed=0, seconds=0.05, trace=False, workdir=str(tmp_path))
        runner.ref.samples = [2 * reference.REF_MS, 2 * reference.REF_MS, 1e3]
        runner.res.metrics.update(setup_s=0.5, step_ms=300.0, infer_ms_k4=400.0, peak_mem_mib=20.0)
        runner.scale_timings()
        m = runner.res.metrics
        assert (m["setup_s"], m["step_ms"], m["infer_ms_k4"]) == (0.25, 150.0, 200.0)
        assert m["peak_mem_mib"] == 20.0
        assert runner.res.meta["wall"] == {"setup_s": 0.5, "step_ms": 300.0, "infer_ms_k4": 400.0}


class TestFailures:
    def test_injected_nonfinite_value_is_a_failure(self, monkeypatch, capsys, tmp_path):
        build = workloads.build_scene

        def poisoned(w, seed):
            scene = build(w, seed)
            scene.cube[0, 3, 3] = np.nan
            return scene

        monkeypatch.setattr(workloads, "build_scene", poisoned)
        monkeypatch.setitem(workloads.WORKLOADS, "train-128", tiny("train-128"))
        code = run.main(["--workload", "train-128", "--seed", "0", "--seconds", "0.05"])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert result["correct"] is False and result["failed"] >= 1 and result["attempted"] >= 1

    def test_missing_target_is_dropped_with_a_warning(self, monkeypatch, capsys, tmp_path):
        install = spans.Tracer.install

        def install_and_miss(self, patcher):
            install(self, patcher)
            patcher.patch(moe, "renamed_away", lambda fn: fn)

        monkeypatch.setattr(spans.Tracer, "install", install_and_miss)
        res = run_tiny("infer-128", True, tmp_path)
        assert res.correct
        assert res.meta["missing"] == ["mambamoe.moe.renamed_away"]
        assert {n for n, _, _ in metrics.PER_LAYER} <= set(res.metrics)
        assert "mambamoe.moe.renamed_away no longer exists" in capsys.readouterr().err
