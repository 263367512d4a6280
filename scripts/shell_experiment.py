#!/usr/bin/env python3
"""Reproduce the spherical-shell experiments at desk or full scale.

Desk scale (default) runs 200 replicates per dimension; --full-scale runs
the original 5000. Writes one JSON report per dimension and prints the
headline fractions.
"""

import argparse
import json
from pathlib import Path

from delo.simulation import SimulationConfig, run_relative_outlyingness_experiment

SETTINGS = {3: 199, 4: 299, 5: 199}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="3,4,5", help="dimensions to run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--full-scale", action="store_true",
                    help="5000 replicates per dimension (slow)")
    ap.add_argument("--out-dir", default="shell_reports")
    ap.add_argument("--processes", type=int, default=None)
    args = ap.parse_args()

    reps = 5000 if args.full_scale else args.replicates
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for dim in (int(d) for d in args.dims.split(",")):
        cfg = SimulationConfig(dim=dim, n_inliers=SETTINGS[dim], replicates=reps,
                               seed=args.seed)
        report = run_relative_outlyingness_experiment(cfg, processes=args.processes)
        path = outdir / f"shell_dim{dim}_n{cfg.n_inliers}_r{reps}.json"
        path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"dim {dim}: n={cfg.n_inliers} replicates={reps} "
              f"ratios>=0.9: {report.threshold_counts[0.9]} "
              f"({100 * report.threshold_fractions[0.9]:.4f}%)  "
              f"ratios>=1: {report.threshold_counts[1.0]}  "
              f"median={report.median_ratio:.4f}  "
              f"runtime={report.runtime_seconds:.1f}s  -> {path}")


if __name__ == "__main__":
    main()
