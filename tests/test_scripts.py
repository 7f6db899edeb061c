"""Smoke runs of the experiment scripts: each exits 0 and prints its sections."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
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
