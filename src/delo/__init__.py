"""Delaunay outlyingness: nonparametric outlier scores from Delaunay edge lengths."""

from .geometry import (
    DegenerateSimplexError,
    DuplicatePointError,
    GeneralPositionError,
    GeometryError,
    PointSet,
    Sign,
    in_sphere,
    in_sphere_many,
    jitter_points,
    orient,
)
from .triangulation import DelaunayGraph, delaunay

__all__ = [
    "DegenerateSimplexError",
    "DelaunayGraph",
    "DuplicatePointError",
    "GeneralPositionError",
    "GeometryError",
    "PointSet",
    "Sign",
    "delaunay",
    "in_sphere",
    "in_sphere_many",
    "jitter_points",
    "orient",
]

__version__ = "0.1.0"
