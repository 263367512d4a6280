#!/usr/bin/env python3
"""Outlier score floor and shrinking-edge trends over a growing ball sample."""

import argparse
import json
from pathlib import Path

from delo.simulation import run_consistency_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--schedule", default="50,100,200,400,800")
    ap.add_argument("--replicates", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="consistency_report.json")
    ap.add_argument("--processes", type=int, default=None)
    args = ap.parse_args()

    report = run_consistency_experiment(
        dim=2, radius=1.0, center=(0.0, 0.0), outliers=[(3.0, 0.0)],
        n_schedule=[int(n) for n in args.schedule.split(",")],
        replicates=args.replicates, seed=args.seed, processes=args.processes)
    Path(args.out).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    print(f"delta={report.delta}  violations={report.violations}")
    for n, lam, gam in zip(report.n_schedule, report.lambda_medians,
                           report.gamma_medians):
        print(f"  n={n:4d}  median max inlier-inlier edge={lam:.4f}  "
              f"median max inlier score={gam:.4f}")
    print(f"strictly decreasing: edges={report.lambda_strictly_decreasing} "
          f"scores={report.gamma_strictly_decreasing}  "
          f"runtime={report.runtime_seconds:.1f}s  -> {args.out}")


if __name__ == "__main__":
    main()
