#!/usr/bin/env python3
"""Full experiment battery on the bundled synthetic scene.

Runs the repeated-seed protocol, both module ablations, the top-k sweep on
one checkpoint, and the expert-weight inspection, printing one summary
block per experiment, and beside the ablation order the nearest-centroid
spectral baseline's mean OA over the same splits.  About two minutes on
one CPU core at the defaults.

Usage: python3 scripts/run_synth_experiment.py [--seeds 16] [--epochs 200]
"""

import argparse
from dataclasses import replace

import numpy as np

from mambamoe.data import HsiScene, default_synthetic_spec, generate_synthetic
from mambamoe.inspect_experts import inspect_expert_weights
from mambamoe.train import Metrics, TrainConfig, TrainResult, evaluate, nearest_centroid_predict, score, topk_sweep, train

# (section header, name on the ablation-ordering line, switches off the full model)
VARIANTS = (
    ("full model", "full", {}),
    ("ablation: expert blocks off", "no-expert-blocks", {"momeb_on": False}),
    ("ablation: stage supervision off", "no-stage-supervision", {"uarb_on": False}),
)

Run = tuple[TrainResult, Metrics]


def run_seeds(config: TrainConfig, scene: HsiScene, seeds: int) -> list[Run]:
    """Train with seeds seed+0 .. seed+seeds-1, each run paired with its
    held-out metrics at ``topk_infer``."""
    runs = []
    for seed in range(config.seed, config.seed + seeds):
        result = train(replace(config, seed=seed), scene)
        runs.append((result, evaluate(result.params, scene, result.test_mask, topk=config.topk_infer)))
    return runs


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and population std over the seeds."""
    v = np.array(values, dtype=np.float64)
    return float(v.mean()), float(v.std())


def format_summary_report(runs: list[Run], class_names: list[str]) -> str:
    """Per-class and aggregate rows as mean +/- std over the runs."""
    width = max((len(n) for n in class_names), default=8)
    per_class = np.stack([m.per_class_acc for _, m in runs])
    lines = [f"runs: {len(runs)} (seeds {[r.config.seed for r, _ in runs]})"]
    for i, name in enumerate(class_names):
        col = per_class[:, i]
        lines.append(f"{name:<{width}}  {100 * np.nanmean(col):6.2f} +/- {100 * np.nanstd(col):5.2f}")
    for metric, label in (("oa", "OA (%)"), ("aa", "AA (%)"), ("kappa", "kappa (%)")):
        mean, std = mean_std([getattr(m, metric) for _, m in runs])
        lines.append(f"{label:<{width}}  {100 * mean:6.2f} +/- {100 * std:5.2f}")
    return "\n".join(lines) + "\n"


def at_least_one(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=at_least_one, default=16)
    parser.add_argument("--epochs", type=at_least_one, default=200)
    args = parser.parse_args()

    scene = generate_synthetic(default_synthetic_spec())
    base = TrainConfig(epochs=args.epochs)  # seeds 0 .. seeds-1

    runs = {}
    for header, name, switches in VARIANTS:
        print(f"=== {header} ===")
        runs[name] = run_seeds(replace(base, **switches), scene, args.seeds)
        print(format_summary_report(runs[name], scene.header.class_names))

    print("=== ablation ordering ===")
    print("mean OA  " + "  ".join(f"{name} {mean_std([m.oa for _, m in rs])[0]:.4f}" for name, rs in runs.items()))
    full = runs["full"]
    baseline = [score(nearest_centroid_predict(scene, r.train_mask), scene, r.test_mask).oa for r, _ in full]
    print(f"nearest-centroid baseline mean OA {sum(baseline) / len(baseline):.4f} (same splits)")

    print("\n=== top-k sweep (first checkpoint) ===")
    first, _ = full[0]
    for k, metrics in topk_sweep(first.params, scene, first.test_mask):
        print(f"k={k}  OA {100 * metrics.oa:6.2f}  AA {100 * metrics.aa:6.2f}  kappa {100 * metrics.kappa:6.2f}")

    print("\n=== expert weights (first checkpoint) ===")
    print(inspect_expert_weights(first.params, scene).format())


if __name__ == "__main__":
    main()
