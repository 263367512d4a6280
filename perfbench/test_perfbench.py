"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about 3 minutes).

The exact-count test runs every workload's traced run twice in fresh
processes; the counts it compares must repeat exactly for a workload and seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import delo.cli  # noqa: E402
import delo.triangulation  # noqa: E402
from perfbench import reference  # noqa: E402
from perfbench.run import EXACT_COUNTS  # noqa: E402
from perfbench.tracer import Span, Tracer, self_ns  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, None, "a", 0, 100), Span(1, 0, "b", 10, 60),
             Span(2, 1, "c", 20, 30), Span(3, 0, "d", 70, 90)]
    assert self_ns(spans) == {0: 30, 1: 40, 2: 10, 3: 20}


def test_tracer_records_parents_and_restores_functions():
    original = delo.triangulation.delaunay
    tracer = Tracer()
    with tracer.installed():
        assert delo.cli.delaunay is not original
        with tracer.span("outer"):
            graph = delo.cli.delaunay(np.random.default_rng(0).uniform(size=(12, 2)))
    assert delo.cli.delaunay is original and delo.triangulation.delaunay is original
    names = {sp.name: sp for sp in tracer.spans}
    tri = names["triangulation.delaunay"]
    assert tri.parent == names["outer"].id
    assert names["geometry.pointset"].parent == tri.id
    assert tri.attrs == {"facets_created": graph.stats.facets_created,
                         "exact_fallbacks": graph.stats.exact_fallbacks,
                         "edges": len(graph.edge_set())}


def test_hull_vertex_count_is_exact():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.5, 0.0]])
    assert reference.hull_vertex_count_2d(square) == 4


def test_workloads_are_declared():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run("--workload", "shell_d4", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_and_output_repeat_across_runs(workload):
    runs = [_run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    results = [_result(p) for p in runs]
    for proc, (prov, res) in zip(runs, results):
        assert proc.returncode == 0, proc.stderr
        assert res["correct"] and res["failed"] == 0
        assert prov["byte_identical"]
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    (prov_a, res_a), (prov_b, res_b) = results
    assert prov_a["output_sha256"] == prov_b["output_sha256"]
    for name in EXACT_COUNTS:
        assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"], name
    assert res_a["metrics"]["triangulation.delaunay_calls"]["value"] > 0
