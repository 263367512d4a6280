"""In-memory spans around the calls that cross into a delo layer.

A traced pass replaces each layer's public functions, wherever a delo module
or the benchmark refers to them by name, with a wrapper that opens a span.
A call from one layer into another therefore opens a span, while a call a
module makes to its own functions does not. Spans stay in memory with their
parent's id; self time is a span's duration minus the time its child spans
cover. Cyclic-GC pauses are read through ``gc.callbacks`` and charged to the
innermost open span. Nothing here changes how delo computes.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> (defining module, function name). PointSet construction is
# traced separately through the dataclass's __post_init__.
LAYER_FUNCTIONS = {
    "geometry.jitter": ("delo.geometry", "jitter_points"),
    "triangulation.delaunay": ("delo.triangulation", "delaunay"),
    "outlyingness.score": ("delo.outlyingness", "score"),
    "outlyingness.relative": ("delo.outlyingness", "relative_outlyingness"),
    "outlyingness.flag": ("delo.outlyingness", "flag"),
    "simulation.sample": ("delo.simulation", "sample_shell"),
    "simulation.experiment": ("delo.simulation", "run_relative_outlyingness_experiment"),
    "cli.main": ("delo.cli", "main"),
    "cli.ingest": ("delo.cli", "ingest_csv"),
    "oracle.bruteforce": ("delo.oracle", "delaunay_bruteforce"),
    "oracle.witness": ("delo.oracle", "adjacent_witness"),
}
POINTSET_SPAN = "geometry.pointset"
COUNTERS_SPAN = "trace.counters"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    gc_ns: int = 0
    gc_collections: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _graph_counts(graph) -> dict:
    return {"facets_created": graph.stats.facets_created,
            "exact_fallbacks": graph.stats.exact_fallbacks,
            "edges": len(graph.edge_set())}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._gc_start: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counted = name == "triangulation.delaunay"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counted:
                # its own span, so reading counters is not charged to the caller
                with self.span(COUNTERS_SPAN):
                    sp.attrs.update(_graph_counts(result))
            return result

        return traced

    def _on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            if self._stack:
                self._stack[-1].gc_ns += time.perf_counter_ns() - self._gc_start
                self._stack[-1].gc_collections += 1
            self._gc_start = None

    @contextmanager
    def installed(self):
        """Wrap every layer function at each place a delo module names it."""
        from delo.geometry import PointSet

        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "delo" or name.startswith("delo."))]
        for span_name, (mod_name, fn_name) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        post_init = PointSet.__post_init__
        PointSet.__post_init__ = self.wrap(POINTSET_SPAN, post_init)
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            PointSet.__post_init__ = post_init
            for mod, attr, original in restore:
                setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def self_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    out = {sp.id: sp.duration_ns for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.duration_ns
    return out


def self_ms_by_name(spans: list[Span]) -> dict[str, list[float]]:
    """Span name -> self time in ms of each span with that name, in call order."""
    own = self_ns(spans)
    out: dict[str, list[float]] = {}
    for sp in spans:
        out.setdefault(sp.name, []).append(own[sp.id] / 1e6)
    return out

