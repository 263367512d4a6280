"""References for the correctness checks that do not run delo's code.

Edge sets come from Qhull through scipy when it imports, scores are
recomputed from an edge list with numpy, and 2-D hull vertices are counted
with exact rational orientation signs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

try:
    from scipy.spatial import Delaunay as _QhullDelaunay
except ImportError:  # scipy is optional; callers fall back to other checks
    _QhullDelaunay = None


def qhull_available() -> bool:
    return _QhullDelaunay is not None


def qhull_delaunay(coords: np.ndarray):
    """scipy's Delaunay object for the points (Qhull's default options)."""
    return _QhullDelaunay(coords)


def qhull_edges(coords: np.ndarray) -> set[tuple[int, int]]:
    """Delaunay edge set from Qhull; raises if Qhull left a point out."""
    tri = qhull_delaunay(coords)
    if len(tri.coplanar):
        raise ValueError(f"Qhull dropped {len(tri.coplanar)} coplanar points")
    simplices = tri.simplices
    k1 = simplices.shape[1]
    pairs = np.concatenate([simplices[:, [a, b]]
                            for a in range(k1) for b in range(a + 1, k1)])
    pairs.sort(axis=1)
    return set(map(tuple, np.unique(pairs, axis=0).tolist()))


def log_scores(coords: np.ndarray, edges) -> np.ndarray:
    """Mean log length of the edges incident to each point."""
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    logs = np.log(np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1))
    n = coords.shape[0]
    total = np.bincount(e[:, 0], logs, n) + np.bincount(e[:, 1], logs, n)
    degree = np.bincount(e[:, 0], minlength=n) + np.bincount(e[:, 1], minlength=n)
    return total / degree


def hull_vertex_count_2d(coords: np.ndarray) -> int:
    """Number of strict convex-hull vertices, by exact orientation signs."""
    pts = sorted(tuple(Fraction(float(c)) for c in row) for row in coords)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(chain(pts)) + len(chain(pts[::-1])) - 2
