#!/usr/bin/env python3
"""Run one delo benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload shell_d4 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports delo from the
checkout's ``src`` and exits with code 2, printing no result, when that is
missing. It makes the workload's inputs from ``--seed``, repeats passes over
them for about ``--seconds`` seconds, checks the first pass's output against
an independent reference and every later pass for byte identity, and prints
one provenance line and then one JSON result line.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus tracing overhead. The spans of
the first traced pass are written to ``perfbench/_runs/``. See README.md
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "_runs"
SETUP_REPEATS = 9

# per-layer time metrics read from spans: metric -> span name (self time, ms per pass)
SPAN_MS = {
    "geometry.pointset_ms": "geometry.pointset",
    "geometry.jitter_ms": "geometry.jitter",
    "triangulation.delaunay_ms": "triangulation.delaunay",
    "outlyingness.score_ms": "outlyingness.score",
    "outlyingness.relative_ms": "outlyingness.relative",
    "outlyingness.flag_ms": "outlyingness.flag",
    "simulation.sample_ms": "simulation.sample",
    "cli.ingest_ms": "cli.ingest",
    "cli.emit_ms": "cli.main",
    "oracle.bruteforce_ms": "oracle.bruteforce",
    "oracle.witness_ms": "oracle.witness",
}
# counts that must repeat exactly for a workload and seed
EXACT_COUNTS = ("triangulation.facets_created", "triangulation.edges",
                "geometry.exact_fallbacks", "triangulation.delaunay_calls",
                "oracle.lp_calls")


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    digest: str
    spans: list
    extras: dict


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_passes(wl, seconds: float, trace: bool, tracer_cls):
    """Repeat passes over the workload's inputs for about `seconds`.

    With tracing, passes alternate untraced and traced, at least one of each.
    Returns (passes, first pass's output bytes, whether a pass raised).
    """
    passes: list[Pass] = []
    first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracer_cls() if traced else None
        p0 = time.perf_counter()
        gc.collect()  # every pass starts from the same heap, as a fresh process does
        try:
            with tracer.installed() if traced else nullcontext():
                c0, t0 = _cpu_s(), time.perf_counter()
                raw = wl.run()
                wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
                extras = wl.traced_extras(wall) if traced else {}
            data = wl.serialize(raw)
        except Exception:  # a failed pass is reported, not fatal
            traceback.print_exc()
            return passes, first, True
        if first is None:
            first = data
        passes.append(Pass(traced, wall, cpu, hashlib.sha256(data).hexdigest(),
                           tracer.spans if traced else [], extras))
        # stop when the next pass would end more than half a pass late
        last = time.perf_counter() - p0
        if (len(passes) >= (2 if trace else 1)
                and time.perf_counter() - start + last / 2 > seconds):
            return passes, first, False


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing delo.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import delo.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one only warms the file cache
        t0 = time.perf_counter()
        # no timeout: with one, waiting polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, per pool worker, the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def layer_counts(p: Pass) -> dict[str, int]:
    tri = [sp for sp in p.spans if sp.name == "triangulation.delaunay"]
    return {
        "triangulation.facets_created": sum(sp.attrs["facets_created"] for sp in tri),
        "triangulation.edges": sum(sp.attrs["edges"] for sp in tri),
        "geometry.exact_fallbacks": sum(sp.attrs["exact_fallbacks"] for sp in tri),
        "triangulation.delaunay_calls": len(tri),
        "oracle.lp_calls": sum(sp.name == "oracle.witness" for sp in p.spans),
        "triangulation.gc_collections": sum(sp.gc_collections for sp in tri),
    }


def per_layer(traced: list[Pass], plain: list[Pass]) -> tuple[dict, bool]:
    """Per-layer metrics (medians over traced passes) and whether counts repeat."""
    from perfbench.tracer import self_ms_by_name

    rows, calls = [], []
    for p in traced:
        own = self_ms_by_name(p.spans)
        row = {m: sum(own.get(name, [])) for m, name in SPAN_MS.items()}
        row["triangulation.gc_ms"] = sum(
            sp.gc_ns for sp in p.spans if sp.name == "triangulation.delaunay") / 1e6
        row.update(p.extras)
        row.update(layer_counts(p))
        rows.append(row)
        calls += own.get("triangulation.delaunay", [])
    out = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    repeat = all(r[c] == rows[0][c] for r in rows for c in EXACT_COUNTS)
    for c in EXACT_COUNTS:
        out[c] = rows[0][c]
    facets = out["triangulation.facets_created"]
    out["geometry.fallbacks_per_kfacet"] = (
        1000.0 * out["geometry.exact_fallbacks"] / facets if facets else 0.0)
    out["triangulation.delaunay_p50_ms"] = float(np.percentile(calls, 50)) if calls else 0.0
    out["triangulation.delaunay_p90_ms"] = float(np.percentile(calls, 90)) if calls else 0.0
    t_wall = statistics.median(p.wall_s for p in traced)
    u_wall = statistics.median(p.wall_s for p in plain)
    out["trace.overhead_ms"] = 1000.0 * (t_wall - u_wall)
    out["trace.overhead_frac"] = t_wall / u_wall - 1.0
    return out, repeat


def qhull_ms(wl) -> tuple[float, int]:
    """Qhull (scipy) on the pass's point sets, as a yardstick; (0, 0) if absent."""
    from perfbench import reference

    if not reference.qhull_available():
        return 0.0, 0
    inputs = wl.triangulation_inputs()
    try:
        t0 = time.perf_counter()
        for pts in inputs:
            reference.qhull_delaunay(pts)
        return 1000.0 * (time.perf_counter() - t0), 1
    except Exception:  # the yardstick never fails the run
        traceback.print_exc()
        return 0.0, 0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(args, wl, passes, identical: bool) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "items_per_pass": wl.items, "item": wl.item,
        "passes": len(passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "output_sha256": passes[0].digest if passes else None,
        "byte_identical": identical,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def write_trace(path: Path, prov: dict, p: Pass):
    from perfbench.tracer import self_ns

    own = self_ns(p.spans)
    t0 = p.spans[0].start_ns if p.spans else 0
    spans = [{"id": sp.id, "parent": sp.parent, "name": sp.name,
              "start_ms": (sp.start_ns - t0) / 1e6, "dur_ms": sp.duration_ns / 1e6,
              "self_ms": own[sp.id] / 1e6, "gc_ms": sp.gc_ns / 1e6, "attrs": sp.attrs}
             for sp in p.spans]
    path.write_text(json.dumps({"provenance": prov, "spans": spans}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "delo" / "__init__.py").is_file():
        print(f"no delo sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # DELO_THREADS would cap the pool below the workload's fixed worker count
    os.environ.pop("DELO_THREADS", None)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import delo

    if not Path(delo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"delo imported from {delo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        passes, first, crashed = run_passes(wl, args.seconds, bool(args.trace), Tracer)
        peak = peak_rss_mb(wl.workers)
        try:
            first_failed = wl.check(first) if first is not None else wl.items
        except Exception:  # an unreadable output counts as wrong, not as a crash
            traceback.print_exc()
            first_failed = wl.items
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    identical = all(p.digest == passes[0].digest for p in passes)
    attempted = wl.items * (len(passes) + crashed)
    failed = wl.items * crashed + sum(
        first_failed if p.digest == passes[0].digest else wl.items for p in passes)

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    if args.trace:
        metrics, repeat = per_layer(traced, plain) if traced and plain else ({}, False)
        if not repeat:
            failed = max(failed, wl.items)
        metrics["triangulation.qhull_ms"], metrics["triangulation.qhull_available"] = qhull_ms(wl)
        metrics["failed_frac"] = failed / attempted
    else:
        # throughput is work over time: ratios of sums over the passes, which
        # on a host whose speed drifts spread less across runs than medians
        done = wl.items * len(plain)
        metrics = {
            "items_per_s": done / sum(p.wall_s for p in plain) if plain else 0.0,
            "cpu_s_per_item": sum(p.cpu_s for p in plain) / done if plain else 0.0,
            "peak_rss_mb": peak,
            "setup_s": setup_seconds(),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        print(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}", file=sys.stderr)
        return 2

    prov = provenance(args, wl, passes, identical)
    if traced:
        write_trace(RUNS / f"trace-{args.workload}-s{args.seed}.json", prov, traced[0])
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not crashed and failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        # a metric a failed run could not measure reads 0
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
