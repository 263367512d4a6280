"""Seeded samplers and replicated score experiments.

Each replicate draws from its own counter-based RNG stream keyed by
(seed, replicate index), so results are identical whether replicates run
serially or in a process pool, and aggregation is order-insensitive.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from multiprocessing import Pool

import numpy as np

from .geometry import MAX_DIM, GeneralPositionError, PointSet, _stream
from .outlyingness import relative_outlyingness, score
from .triangulation import _qhull, delaunay


def _map_replicates(fn, args: list, processes: int | None) -> list:
    """[fn(a) for a in args], in a pool of `processes` workers (default and
    cap: the CPU count) when that and len(args) both exceed one."""
    if processes is not None and processes < 1:
        raise ValueError(f"need at least one worker process, got {processes}")
    cpus = os.cpu_count() or 1
    procs = cpus if processes is None else min(processes, cpus)
    if procs > 1 and len(args) > 1:
        _qhull()  # import scipy once here, not in every forked worker
        with Pool(procs) as pool:
            return pool.map(fn, args, chunksize=max(1, len(args) // (4 * procs)))
    return [fn(a) for a in args]


def _check_seed(seed):
    """Refuse a seed the replicate streams cannot take, before any runs."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")


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
        if not 0 <= self.r_lo < self.r_hi < math.inf:
            raise ValueError("need 0 <= r_lo < r_hi, both finite")
        if not all(map(math.isfinite, self.thresholds)):
            raise ValueError(f"thresholds must be finite, got {self.thresholds}")
        if len(set(self.thresholds)) < len(self.thresholds):
            raise ValueError(f"thresholds must be distinct, got {self.thresholds}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        _check_seed(self.seed)
        if self.n_inliers < self.dim + 1:
            raise ValueError("need n_inliers >= dim + 1")
        for o in self.outliers:
            if len(o) != self.dim:
                raise ValueError(f"outlier {o} does not have dimension {self.dim}")
            if not all(map(math.isfinite, o)):
                raise ValueError(f"outlier {o} has a non-finite coordinate")


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
    """n uniform draws from the ball, by rejection from its bounding cube."""
    center = np.asarray(center, dtype=np.float64)
    out = np.empty((n, dim))
    have = 0
    while have < n:
        need = n - have
        block = max(need * 2, 32)
        cand = rng.uniform(-radius, radius, size=(block, dim))
        keep = cand[np.einsum("ij,ij->i", cand, cand) <= radius * radius]
        take = min(len(keep), need)
        out[have:have + take] = keep[:take]
        have += take
    return out + center


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
    replicate_ratios: tuple[tuple[float, ...], ...] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": "delo.experiment.v1",
            "kind": "relative_outlyingness",
            "config": asdict(self.config),
            "total_ratios": self.total_ratios,
            "threshold_counts": {repr(t): c for t, c in self.threshold_counts.items()},
            "threshold_fractions": {repr(t): f for t, f in self.threshold_fractions.items()},
            "histogram": {"edges": list(self.histogram_edges),
                          "counts": list(self.histogram_counts)},
            "median_ratio": self.median_ratio,
            "max_ratio": self.max_ratio,
            "failed_replicates": self.failed_replicates,
        }


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
    results = _map_replicates(_shell_replicate, [(cfg, r) for r in range(cfg.replicates)],
                              processes)

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
        replicate_ratios=tuple(tuple(map(float, r)) for r in kept) if keep_ratios else None,
    )


# ---------------------------------------------------------------------------
# consistency experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    config: dict  # the validated inputs, as to_dict writes them
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

    def to_dict(self) -> dict:
        return {
            "schema_version": "delo.experiment.v1",
            "kind": "consistency",
            "config": self.config,
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


def _consistency_replicate(args):
    dim, radius, center, outliers, n, seed, n_idx, rep = args
    rng = _stream(seed, (n_idx, rep))
    inliers = _ball_array(dim, n, radius, center, rng)
    ps = PointSet(np.vstack([inliers, np.array(outliers)]))
    graph = delaunay(ps)
    table = score(graph)
    # rows are i < j, so an edge joins two inliers iff j < n
    lam_in = float(graph.lengths[graph.edges[:, 1] < n].max(initial=0.0))
    return (float(table.scores[n:].min()), float(table.scores[:n].max()),
            lam_in, float(graph.lengths.max()))


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
    _check_seed(seed)
    schedule = tuple(int(n) for n in n_schedule)
    if not schedule or min(schedule) < dim + 1:  # fewer inliers cannot span R^dim
        raise ValueError(f"need at least one sample size, each at least dim + 1 = {dim + 1}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"the sample sizes must strictly increase, got {list(schedule)}")
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

    args = [(dim, radius, center, outliers, n, seed, n_idx, rep)
            for n_idx, n in enumerate(schedule) for rep in range(replicates)]
    rows = _map_replicates(_consistency_replicate, args, processes)

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
        config={"dim": dim, "radius": float(radius), "center": list(center),
                "outliers": [list(o) for o in outliers], "n_schedule": list(schedule),
                "replicates": replicates, "seed": seed},
        delta=delta,
        min_outlier_scores=min_out, max_inlier_scores=max_in,
        lambda_inlier=lam_in, lambda_all=lam_all, violations=violations,
        lambda_medians=lam_med, gamma_medians=gam_med,
        lambda_strictly_decreasing=dec(lam_med),
        gamma_strictly_decreasing=dec(gam_med),
    )
