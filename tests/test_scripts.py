"""The experiment script: smoke runs that exit 0, print its sections and
repeat their stdout, argument checks, and its repeat helpers loaded
without running ``main``."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mambamoe.data import default_synthetic_spec, generate_synthetic
from mambamoe.train import Metrics, TrainConfig, TrainResult, evaluate

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENT = ROOT / "scripts" / "run_synth_experiment.py"


def launch(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_script(name: str, *args: str) -> str:
    proc = launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "name, args, headers",
    [
        (
            "run_synth_experiment.py",
            ("--seeds", "1", "--epochs", "2"),
            (
                "=== full model ===",
                "=== ablation: expert blocks off ===",
                "=== ablation: stage supervision off ===",
                "=== ablation ordering ===",
                "nearest-centroid baseline mean OA 1.0000 (same splits)",
                "=== top-k sweep (first checkpoint) ===",
                "=== expert weights (first checkpoint) ===",
            ),
        ),
    ],
)
def test_script_runs_and_prints_its_sections(name, args, headers):
    lines = run_script(name, *args).splitlines()
    for header in headers:
        assert any(line.startswith(header) for line in lines), header


def test_experiment_stdout_repeats():
    args = ("--seeds", "1", "--epochs", "2")
    assert run_script(EXPERIMENT.name, *args) == run_script(EXPERIMENT.name, *args)


@pytest.mark.parametrize("flag, value", [("--seeds", "0"), ("--seeds", "-1"), ("--epochs", "0")])
def test_experiment_rejects_a_count_below_one(flag, value):
    proc = launch(EXPERIMENT.name, flag, value)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and f"{flag}: must be >= 1, got {value}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def experiment():
    return runpy.run_path(str(EXPERIMENT))  # defines the helpers; main runs only as __main__


def fake_run(seed, oa):
    result = TrainResult(params=None, history=[], train_mask=None, test_mask=None, config=TrainConfig(seed=seed))
    return result, Metrics(confusion=np.eye(2, dtype=np.int64), oa=oa, aa=oa, kappa=oa, per_class_acc=np.array([oa, oa]))


class TestRepeatHelpers:
    def test_mean_and_population_std_oracle(self, experiment):
        mean_std = experiment["mean_std"]
        assert mean_std([0.9])[1] == 0.0
        mean, std = mean_std([0.9, 0.92, 0.94])
        np.testing.assert_allclose(mean, 0.92, atol=1e-12)
        np.testing.assert_allclose(std, np.sqrt(2 * 0.02**2 / 3), atol=1e-5)

    def test_mean_std_permutation_invariant(self, experiment):
        values = [0.8, 0.85, 0.95]
        assert experiment["mean_std"](values) == experiment["mean_std"](values[::-1])

    def test_summary_report_rows_are_mean_plus_minus_std(self, experiment):
        report = experiment["format_summary_report"]([fake_run(3, 0.875), fake_run(4, 0.875)], ["alpha", "beta"])
        lines = report.splitlines()
        assert lines[0] == "runs: 2 (seeds [3, 4])"
        assert lines[1].split() == ["alpha", "87.50", "+/-", "0.00"]
        assert [line.split()[0] for line in lines[3:]] == ["OA", "AA", "kappa"]

    def test_run_seeds_pairs_each_model_with_its_evaluation(self, experiment):
        scene = generate_synthetic(default_synthetic_spec())
        cfg = TrainConfig(epochs=3, seed=5, samples_per_class=5, channels=8, state_dim=4)
        runs = experiment["run_seeds"](cfg, scene, 2)
        assert [r.config.seed for r, _ in runs] == [5, 6]
        for r, m in runs:
            assert r.config.epochs == 3 and len(r.history) == 3
            np.testing.assert_array_equal(evaluate(r.params, scene, r.test_mask, topk=cfg.topk_infer).confusion, m.confusion)
