"""Delaunay outlyingness: nonparametric outlier scores from Delaunay edge lengths."""

from .geometry import (
    DuplicatePointError,
    GeneralPositionError,
    GeometryError,
    PointSet,
    jitter_points,
)
from .triangulation import DelaunayGraph, delaunay

__all__ = [
    "DelaunayGraph",
    "DuplicatePointError",
    "GeneralPositionError",
    "GeometryError",
    "PointSet",
    "delaunay",
    "jitter_points",
]

__version__ = "0.1.0"
