#!/usr/bin/env python3
"""Compare the benchmark on a parent commit and on the working tree.

    python scripts/bench_pair.py --parent HEAD --seeds 1,2,3,4,5,6,7,8,9,10 \\
        --output BENCH_10.json

The parent commit's files are exported with ``git archive`` into a temporary
directory, as the benchmark compares committed trees; the working tree is
the change. Each seed makes one pair on every workload of ``BENCHMARK.json``,
so no workload's regression is left out: ``perfbench/run.py --trace 0``
runs once on each side for the benchmark's ``run_seconds``, the side that
runs first alternating from pair to pair, each side with its own
``perfbench`` and ``src``. The output file holds, per workload and
end-to-end metric, both sides' runs, medians and quartiles, the ratio of
the medians, how many pairs the change won (ties count for neither),
whether every run was correct, and the provenance of every run.

Each workload also gets three ``--trace 1`` runs per side on the held-out
seed of ``perfbench/baseline.json``, the sides alternating as above: per
per-layer metric the median, minimum and maximum of the runs (each a median
over its traced passes), so one busy stretch of the host shows as spread,
and whether every output hash equals the baseline's. Last, the Tier-1 suite
runs once per side, timed, with its summary line and its slowest tests as
pytest's ``--durations`` prints them. Run it on an otherwise idle machine:
it takes about 2 x (seeds + 3) x workloads x run_seconds, plus two Tier-1
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3


def run_side(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run in a checkout: its provenance and result."""
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    *_, prov, result = out.stdout.strip().splitlines()
    return {**json.loads(prov)["provenance"], **json.loads(result)}


def traced_heldout(trees: dict[str, Path], workload: str, seed: int, seconds: int,
                   baseline_sha: str) -> dict:
    """TRACED_RUNS traced runs per side on the held-out seed, the sides
    alternating: per-layer metrics (median, min and max over the runs), and
    whether every output hash is the baseline's."""
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for i in range(TRACED_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            r = run_side(trees[side], workload, seed, seconds, trace=1)
            runs[side].append(r)
            print(f"{workload} held-out traced {side}: "
                  f"{json.dumps({m: v['value'] for m, v in r['metrics'].items()})}",
                  file=sys.stderr)
    out = {"seed": seed}
    for side, rs in runs.items():
        shas = sorted({r["output_sha256"] for r in rs})
        values = {m: [r["metrics"][m]["value"] for r in rs] for m in rs[0]["metrics"]}
        out[side] = {"correct": all(r["correct"] for r in rs),
                     "output_sha256": shas[0] if len(shas) == 1 else shas,
                     "output_sha256_is_baseline": shas == [baseline_sha],
                     "git_commit": rs[0]["git_commit"], "passes": [r["passes"] for r in rs],
                     "metrics": {m: {"median": statistics.median(vs), "min": min(vs),
                                     "max": max(vs)} for m, vs in values.items()}}
    return out


def tier1(tree: Path) -> dict:
    """One timed Tier-1 run in a checkout: wall time, summary line and the
    slowest tests' durations."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    durations = {}
    for line in lines:
        m = re.fullmatch(r"([\d.]+)s (call|setup|teardown) +(\S+)", line.strip())
        if m:
            durations[f"{m[3]} ({m[2]})"] = float(m[1])
    return {"wall_s": wall, "exit_code": out.returncode,
            "summary": lines[-1] if lines else "", "durations_s": durations}


def summarize(runs: dict[str, list[dict]], declared: list[dict]) -> dict:
    """Per metric: both sides' values, medians, quartiles and pair wins."""
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        stats = {}
        for side, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            stats[side] = {"median": med, "q1": q1, "q3": q3, "runs": vs}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **stats,
                     "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
                     "change_wins": wins, "pairs": len(values["change"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    ap.add_argument("--output", required=True, type=Path)
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    seconds = benchmark["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                            capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                           capture_output=True, text=True, check=True).stdout.splitlines()

    report = {"parent_commit": parent, "change": "working tree",
              "change_modified_files": [line[3:] for line in dirty],
              "seeds": seeds, "seconds": seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_side(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
            report["workloads"][workload] = {
                "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
                "metrics": summarize(runs, benchmark["end_to_end"]),
                "provenance": {side: [{"seed": r["seed"], "git_commit": r["git_commit"],
                                       "output_sha256": r["output_sha256"],
                                       "passes": r["passes"], "correct": r["correct"],
                                       "nproc": r["nproc"], "cpus_usable": r["cpus_usable"],
                                       "python": r["python"], "numpy": r["numpy"],
                                       "scipy": r["scipy"], "platform": r["platform"]}
                                      for r in rs] for side, rs in runs.items()},
                "traced_heldout": traced_heldout(
                    trees, workload, baseline["heldout_seed"], seconds,
                    baseline["workloads"][workload]["heldout_trace1"]["output_sha256"]),
            }
        report["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
        print(f"tier-1: {json.dumps(report['tier1'])}", file=sys.stderr)
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
