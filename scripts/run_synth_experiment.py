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

from mambamoe.data import default_synthetic_spec, generate_synthetic
from mambamoe.inspect_experts import inspect_expert_weights
from mambamoe.train import TrainConfig, format_summary_report, nearest_centroid_predict, run_repeats, topk_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args()

    scene = generate_synthetic(default_synthetic_spec())
    base = TrainConfig(epochs=args.epochs)  # seeds 0 .. seeds-1

    print("=== full model ===")
    summary_full, results_full = run_repeats(base, scene, args.seeds)
    print(format_summary_report(summary_full, scene.header.class_names))

    print("=== ablation: expert blocks off ===")
    summary_nm, _ = run_repeats(replace(base, momeb_on=False), scene, args.seeds)
    print(format_summary_report(summary_nm, scene.header.class_names))

    print("=== ablation: stage supervision off ===")
    summary_nu, _ = run_repeats(replace(base, uarb_on=False), scene, args.seeds)
    print(format_summary_report(summary_nu, scene.header.class_names))

    print("=== ablation ordering ===")
    print(f"mean OA  full {summary_full.mean['oa']:.4f}  "
          f"no-expert-blocks {summary_nm.mean['oa']:.4f}  no-stage-supervision {summary_nu.mean['oa']:.4f}")
    baseline = [
        (nearest_centroid_predict(scene, r.train_mask)[r.test_mask] == scene.labels[r.test_mask]).mean()
        for r in results_full
    ]
    print(f"nearest-centroid baseline mean OA {sum(baseline) / len(baseline):.4f} (same splits)")

    print("\n=== top-k sweep (first checkpoint) ===")
    first = results_full[0]
    for k, metrics in topk_sweep(first.params, scene, first.test_mask):
        print(f"k={k}  OA {100 * metrics.oa:6.2f}  AA {100 * metrics.aa:6.2f}  kappa {100 * metrics.kappa:6.2f}")

    print("\n=== expert weights (first checkpoint) ===")
    print(inspect_expert_weights(first.params, scene).format())


if __name__ == "__main__":
    main()
