"""Delaunay outlyingness: nonparametric outlier scores from Delaunay edge lengths."""

from .geometry import (
    DegenerateSimplexError,
    DuplicatePointError,
    GeneralPositionError,
    GeneralPositionReport,
    GeometryError,
    PointSet,
    Sign,
    check_general_position,
    distance,
    in_sphere,
    in_sphere_many,
    jitter_points,
    lift,
    orient,
)
from .triangulation import DelaunayGraph, delaunay

__all__ = [
    "DegenerateSimplexError",
    "DelaunayGraph",
    "DuplicatePointError",
    "GeneralPositionError",
    "GeneralPositionReport",
    "GeometryError",
    "PointSet",
    "Sign",
    "check_general_position",
    "delaunay",
    "distance",
    "in_sphere",
    "in_sphere_many",
    "jitter_points",
    "lift",
    "orient",
]

__version__ = "0.1.0"
