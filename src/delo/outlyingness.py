"""Outlyingness scores: geometric mean of incident Delaunay edge lengths.

Scores are computed and stored in log space. Raw geometric means of many
short edges underflow to zero in double precision, which shows up as a
spurious spike at zero in score histograms; the log-domain values stay
informative and exp() is applied only for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .triangulation import DelaunayGraph


@dataclass(frozen=True)
class ScoreTable:
    """Per-point outlyingness. log_scores is authoritative; scores = exp(log)."""

    scores: np.ndarray
    log_scores: np.ndarray
    n: int
    dim: int

    def __post_init__(self):
        self.scores.setflags(write=False)
        self.log_scores.setflags(write=False)


@dataclass(frozen=True)
class FlagReport:
    threshold: float
    flagged: tuple[int, ...]


def score(graph: DelaunayGraph) -> ScoreTable:
    """Geometric mean of the lengths of the edges incident to each point."""
    if graph.n < 2:
        raise ValueError("scores need at least 2 points")
    log_scores = np.empty(graph.n)
    for i, nbrs in enumerate(graph.adjacency):
        acc = 0.0
        for j in nbrs:
            acc += math.log(graph.edge_lengths[(i, j) if i < j else (j, i)])
        log_scores[i] = acc / len(nbrs)
    return ScoreTable(scores=np.exp(log_scores), log_scores=log_scores,
                      n=graph.n, dim=graph.dim)


def score_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> ScoreTable:
    """Scores from an explicit (i, j, length) edge list; dim is unknown (0)."""
    logs: list[list[float]] = [[] for _ in range(n)]
    for i, j, length in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range")
        if length <= 0:
            raise ValueError(f"edge ({i},{j}) has non-positive length")
        val = math.log(length)
        logs[i].append(val)
        logs[j].append(val)
    if any(not l for l in logs):
        bad = next(i for i, l in enumerate(logs) if not l)
        raise ValueError(f"point {bad} has no incident edges")
    log_scores = np.array([sum(l) / len(l) for l in logs])
    return ScoreTable(scores=np.exp(log_scores), log_scores=log_scores, n=n, dim=0)


def relative_outlyingness(table: ScoreTable, ref: int) -> np.ndarray:
    """Per-point score ratios against a reference point; ratio[ref] == 1."""
    if not 0 <= ref < table.n:
        raise IndexError(f"reference index {ref} out of range")
    if not math.isfinite(table.log_scores[ref]):
        raise ValueError("reference score is zero or non-finite")
    ratios = np.exp(table.log_scores - table.log_scores[ref])
    ratios[ref] = 1.0
    return ratios


def flag(table: ScoreTable, alpha: float) -> FlagReport:
    """Indices whose score is at least alpha (ties are flagged)."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    flagged = tuple(int(i) for i in np.nonzero(table.scores >= alpha)[0])
    return FlagReport(threshold=float(alpha), flagged=flagged)
