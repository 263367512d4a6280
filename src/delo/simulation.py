"""Seeded samplers and replicated score experiments.

Each replicate draws from its own counter-based RNG stream keyed by
(seed, replicate index), so results are identical whether replicates run
serially or in a process pool, and aggregation is order-insensitive.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .geometry import MAX_DIM, GeneralPositionError, PointSet
from .outlyingness import relative_outlyingness, score
from .triangulation import delaunay


def _stream(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


def resolve_processes(requested: int | None = None) -> int:
    """Worker count: requested (or cpu count), capped by DELO_THREADS."""
    cpus = os.cpu_count() or 1
    procs = cpus if requested is None else max(1, requested)
    cap = os.environ.get("DELO_THREADS")
    if cap:
        try:
            procs = min(procs, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"DELO_THREADS must be an integer, got {cap!r}") from None
    return min(procs, cpus)


@dataclass(frozen=True)
class SimulationConfig:
    """Spherical-shell experiment: inliers R*Theta, R ~ U[r_lo, r_hi], plus
    a fixed outlier set (defaults to the origin)."""

    dim: int
    n_inliers: int
    replicates: int
    seed: int
    r_lo: float = 0.7
    r_hi: float = 1.1
    outliers: tuple[tuple[float, ...], ...] = ()
    thresholds: tuple[float, ...] = (0.9, 1.0)

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} unsupported (1 <= dim <= {MAX_DIM})")
        if not self.outliers:
            object.__setattr__(self, "outliers", (tuple([0.0] * self.dim),))
        object.__setattr__(self, "outliers",
                           tuple(tuple(float(c) for c in o) for o in self.outliers))
        object.__setattr__(self, "thresholds",
                           tuple(float(t) for t in self.thresholds))
        if not 0 <= self.r_lo < self.r_hi:
            raise ValueError("need 0 <= r_lo < r_hi")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n_inliers < self.dim + 1:
            raise ValueError("need n_inliers >= dim + 1")
        for o in self.outliers:
            if len(o) != self.dim:
                raise ValueError(f"outlier {o} does not have dimension {self.dim}")


def sample_shell(cfg: SimulationConfig, replicate_index: int) -> PointSet:
    """One replicate's sample: n_inliers shell draws, then the outliers."""
    rng = _stream(cfg.seed, (replicate_index,))
    g = rng.normal(size=(cfg.n_inliers, cfg.dim))
    norms = np.linalg.norm(g, axis=1)
    if not np.all(norms > 0):
        raise RuntimeError("degenerate gaussian draw")
    radii = rng.uniform(cfg.r_lo, cfg.r_hi, cfg.n_inliers)
    pts = g / norms[:, None] * radii[:, None]
    return PointSet(np.vstack([pts, np.array(cfg.outliers)]))


def _ball_array(dim: int, n: int, radius: float, center, rng):
    """Uniform ball draws by cube rejection; returns (points, proposals, accepted)."""
    center = np.asarray(center, dtype=np.float64)
    out = np.empty((n, dim))
    have = 0
    proposals = 0
    accepted = 0
    while have < n:
        need = n - have
        block = max(need * 2, 32)
        cand = rng.uniform(-radius, radius, size=(block, dim))
        proposals += block
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= radius * radius]
        accepted += len(keep)
        take = min(len(keep), need)
        out[have:have + take] = keep[:take]
        have += take
    return out + center, proposals, accepted


def sample_ball(dim: int, n: int, radius: float, center, seed: int,
                spawn_key: tuple[int, ...] = ()) -> PointSet:
    """n uniform draws from a closed ball, by rejection from the cube."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    arr, _, _ = _ball_array(dim, n, radius, center, _stream(seed, spawn_key))
    return PointSet(arr)


# ---------------------------------------------------------------------------
# shell experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    config: SimulationConfig
    total_ratios: int
    threshold_counts: dict[float, int]
    threshold_fractions: dict[float, float]
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    median_ratio: float
    max_ratio: float
    failed_replicates: int
    runtime_seconds: float = field(compare=False)
    replicate_ratios: tuple[tuple[float, ...], ...] | None = None

    def to_dict(self, include_runtime: bool = False) -> dict:
        cfg = self.config
        out = {
            "schema_version": "delo.experiment.v1",
            "kind": "relative_outlyingness",
            "config": {
                "dim": cfg.dim, "n_inliers": cfg.n_inliers,
                "replicates": cfg.replicates, "seed": cfg.seed,
                "r_lo": cfg.r_lo, "r_hi": cfg.r_hi,
                "outliers": [list(o) for o in cfg.outliers],
                "thresholds": list(cfg.thresholds),
            },
            "total_ratios": self.total_ratios,
            "threshold_counts": {repr(t): c for t, c in self.threshold_counts.items()},
            "threshold_fractions": {repr(t): f for t, f in self.threshold_fractions.items()},
            "histogram": {"edges": list(self.histogram_edges),
                          "counts": list(self.histogram_counts)},
            "median_ratio": self.median_ratio,
            "max_ratio": self.max_ratio,
            "failed_replicates": self.failed_replicates,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def _shell_replicate(args) -> np.ndarray | None:
    cfg, rep = args
    ps = sample_shell(cfg, rep)
    try:
        graph = delaunay(ps)
    except GeneralPositionError:
        return None
    table = score(graph)
    return relative_outlyingness(table, cfg.n_inliers)[: cfg.n_inliers]


def run_relative_outlyingness_experiment(cfg: SimulationConfig, *,
                                         processes: int | None = None,
                                         keep_ratios: bool = False) -> ExperimentReport:
    """Replicated shell experiment: ratios of inlier scores to the outlier's,
    with a 50-bin histogram over [0, max ratio]."""
    if len(cfg.outliers) != 1:
        raise ValueError("the ratio reference requires exactly one outlier")
    t0 = time.perf_counter()
    args = [(cfg, r) for r in range(cfg.replicates)]
    procs = resolve_processes(processes)
    if procs > 1 and cfg.replicates > 1:
        with Pool(procs) as pool:
            results = pool.map(_shell_replicate, args,
                               chunksize=max(1, cfg.replicates // (4 * procs)))
    else:
        results = [_shell_replicate(a) for a in args]

    failed = sum(1 for r in results if r is None)
    kept = [r for r in results if r is not None]
    ratios = np.concatenate(kept) if kept else np.empty(0)
    total = int(ratios.size)
    counts = {t: int((ratios >= t).sum()) for t in cfg.thresholds}
    fracs = {t: (c / total if total else math.nan) for t, c in counts.items()}
    max_ratio = float(ratios.max()) if total else math.nan
    hist, edges = np.histogram(ratios, bins=50,
                               range=(0.0, max_ratio if total else 1.0))
    return ExperimentReport(
        config=cfg,
        total_ratios=total,
        threshold_counts=counts,
        threshold_fractions=fracs,
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in hist),
        median_ratio=float(np.median(ratios)) if total else math.nan,
        max_ratio=max_ratio,
        failed_replicates=failed,
        runtime_seconds=time.perf_counter() - t0,
        replicate_ratios=tuple(tuple(map(float, r)) for r in kept) if keep_ratios else None,
    )


# ---------------------------------------------------------------------------
# consistency experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    dim: int
    radius: float
    center: tuple[float, ...]
    outliers: tuple[tuple[float, ...], ...]
    n_schedule: tuple[int, ...]
    replicates: int
    seed: int
    delta: float
    min_outlier_scores: tuple[tuple[float, ...], ...]  # per n, per replicate
    max_inlier_scores: tuple[tuple[float, ...], ...]
    lambda_inlier: tuple[tuple[float, ...], ...]
    lambda_all: tuple[tuple[float, ...], ...]
    violations: int
    lambda_medians: tuple[float, ...]
    gamma_medians: tuple[float, ...]
    lambda_strictly_decreasing: bool
    gamma_strictly_decreasing: bool
    runtime_seconds: float = field(compare=False)

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "schema_version": "delo.experiment.v1",
            "kind": "consistency",
            "config": {
                "dim": self.dim, "radius": self.radius,
                "center": list(self.center),
                "outliers": [list(o) for o in self.outliers],
                "n_schedule": list(self.n_schedule),
                "replicates": self.replicates, "seed": self.seed,
            },
            "delta": self.delta,
            "violations": self.violations,
            "min_outlier_scores": [list(v) for v in self.min_outlier_scores],
            "max_inlier_scores": [list(v) for v in self.max_inlier_scores],
            "lambda_inlier": [list(v) for v in self.lambda_inlier],
            "lambda_all": [list(v) for v in self.lambda_all],
            "lambda_medians": list(self.lambda_medians),
            "gamma_medians": list(self.gamma_medians),
            "lambda_strictly_decreasing": self.lambda_strictly_decreasing,
            "gamma_strictly_decreasing": self.gamma_strictly_decreasing,
        }
        if include_runtime:
            out["runtime_seconds"] = self.runtime_seconds
        return out


def _consistency_replicate(args):
    dim, radius, center, outliers, n, seed, n_idx, rep = args
    rng = _stream(seed, (n_idx, rep))
    inliers, _, _ = _ball_array(dim, n, radius, center, rng)
    ps = PointSet(np.vstack([inliers, np.array(outliers)]))
    graph = delaunay(ps)
    table = score(graph)
    # rows are i < j, so an edge joins two inliers iff j < n
    lam_in = float(graph.lengths[graph.edges[:, 1] < n].max(initial=0.0))
    return (float(table.scores[n:].min()), float(table.scores[:n].max()),
            lam_in, graph.max_edge_length())


def run_consistency_experiment(*, dim: int, radius: float, center, outliers,
                               n_schedule, replicates: int, seed: int,
                               processes: int | None = None) -> ConsistencyReport:
    """Scores of fixed outliers vs growing uniform-ball samples.

    Checks the guaranteed floor: every outlier score is at least
    delta = min(separation from the ball, min pairwise outlier distance).
    Raises ValueError for inputs that would make that check meaningless.
    """
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} unsupported (1 <= dim <= {MAX_DIM})")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    schedule = tuple(int(n) for n in n_schedule)
    if not schedule or min(schedule) < dim + 1:  # fewer inliers cannot span R^dim
        raise ValueError(f"need at least one sample size, each at least dim + 1 = {dim + 1}")
    center = tuple(float(c) for c in np.asarray(center, dtype=np.float64).reshape(-1))
    if len(center) != dim:
        raise ValueError("center dimension mismatch")
    outliers = tuple(tuple(float(c) for c in o) for o in outliers)
    if not outliers:
        raise ValueError("need at least one outlier")
    for o in outliers:
        if len(o) != dim:
            raise ValueError(f"outlier {o} does not have dimension {dim}")
    if len(set(outliers)) < len(outliers):
        raise ValueError("outliers must be distinct")
    outs = np.array(outliers)
    if not (np.isfinite(center).all() and np.isfinite(outs).all()):
        raise ValueError("center and outliers must be finite")
    gaps = np.linalg.norm(outs - np.array(center), axis=1) - radius
    if np.any(gaps <= 0):
        bad = int(np.argmin(gaps))
        raise ValueError(f"outlier {bad} intersects the ball (gap {gaps[bad]:.3g})")
    delta = float(gaps.min())
    if len(outs) > 1:
        pair = min(float(np.linalg.norm(a - b))
                   for idx, a in enumerate(outs) for b in outs[idx + 1:])
        delta = min(delta, pair)

    t0 = time.perf_counter()
    args = [(dim, radius, center, outliers, n, seed, n_idx, rep)
            for n_idx, n in enumerate(schedule) for rep in range(replicates)]
    procs = resolve_processes(processes)
    if procs > 1 and len(args) > 1:
        with Pool(procs) as pool:
            rows = pool.map(_consistency_replicate, args,
                            chunksize=max(1, len(args) // (4 * procs)))
    else:
        rows = [_consistency_replicate(a) for a in args]

    per_n = [rows[i * replicates:(i + 1) * replicates] for i in range(len(schedule))]
    min_out = tuple(tuple(r[0] for r in block) for block in per_n)
    max_in = tuple(tuple(r[1] for r in block) for block in per_n)
    lam_in = tuple(tuple(r[2] for r in block) for block in per_n)
    lam_all = tuple(tuple(r[3] for r in block) for block in per_n)
    violations = sum(1 for block in min_out for v in block if v < delta)
    lam_med = tuple(float(np.median(block)) for block in lam_in)
    gam_med = tuple(float(np.median(block)) for block in max_in)
    dec = lambda xs: all(b < a for a, b in zip(xs, xs[1:]))
    return ConsistencyReport(
        dim=dim, radius=float(radius), center=center, outliers=outliers,
        n_schedule=schedule, replicates=replicates, seed=seed, delta=delta,
        min_outlier_scores=min_out, max_inlier_scores=max_in,
        lambda_inlier=lam_in, lambda_all=lam_all, violations=violations,
        lambda_medians=lam_med, gamma_medians=gam_med,
        lambda_strictly_decreasing=dec(lam_med),
        gamma_strictly_decreasing=dec(gam_med),
        runtime_seconds=time.perf_counter() - t0,
    )
