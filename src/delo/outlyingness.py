"""Outlyingness scores: geometric mean of incident Delaunay edge lengths.

Scores are computed and stored in log space. Raw geometric means of many
short edges underflow to zero in double precision, which shows up as a
spurious spike at zero in score histograms; the log-domain values stay
informative and exp() is applied only for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _table(n: int, ends: np.ndarray, lengths: np.ndarray, dim: int) -> ScoreTable:
    """Mean log length of the edges at each point; edge e joins the points
    ends[e] and has length lengths[e].

    Each point's logs are added in edge order, starting from 0.0. math.log,
    not np.log: the two differ in the last bit on some lengths.
    """
    logs = np.fromiter(map(math.log, lengths.tolist()), dtype=np.float64, count=len(lengths))
    ends = ends.ravel()
    degree = np.bincount(ends, minlength=n)
    if not degree.all():
        raise ValueError(f"point {int(np.argmin(degree))} has no incident edges")
    log_scores = np.bincount(ends, weights=np.repeat(logs, 2), minlength=n) / degree
    return ScoreTable(scores=np.exp(log_scores), log_scores=log_scores, n=n, dim=dim)


def score(graph: DelaunayGraph) -> ScoreTable:
    """Geometric mean of the lengths of the edges incident to each point."""
    return _table(graph.n, graph.edges, graph.lengths, graph.dim)


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
