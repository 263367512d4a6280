"""Slow, independent references for Delaunay adjacency.

Two routes that must agree with the hull-based triangulation and share only
the exact predicates of delo.geometry with it. Exhaustive empty-circumsphere
enumeration over all (k+1)-subsets lifts each subset to one hyperplane and
tests every sample point with a dot product; a sign within the forward error
bound is decided in exact arithmetic, so every sign is the true one. A
linear-program feasibility test decides a single pair (is there a point
equidistant from both that no other sample point beats?). Sizes are guarded;
these exist for validation, not performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    DegenerateSimplexError,
    GeneralPositionError,
    GeometryError,
    PointSet,
    _exact_insphere_signs,
    _exact_orient_signs,
    _filter_bound,
    distance,
)

BRUTEFORCE_MAX_N = 40
WITNESS_MAX_N = 200


@dataclass(frozen=True)
class WitnessResult:
    adjacent: bool
    witness: np.ndarray | None


def _as_pointset(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(np.asarray(points, dtype=np.float64))


def bruteforce_simplices(points) -> list[tuple[int, ...]]:
    """All (k+1)-subsets whose circumsphere is empty of other sample points."""
    ps = _as_pointset(points)
    n, k = ps.n, ps.dim
    if n < k + 1:
        raise GeometryError(f"need at least k+1={k + 1} points, got {n}")
    if n > BRUTEFORCE_MAX_N:
        raise GeometryError(f"brute-force oracle is guarded to n <= {BRUTEFORCE_MAX_N}")
    coords = ps.coords
    subsets = np.array(list(combinations(range(n), k + 1)))
    # lifted[a, q] = (x_q - x_a, |x_q - x_a|^2), rows scaled exactly to entries below 1
    diffs = coords[None] - coords[:, None]
    lifted = np.concatenate([diffs, np.einsum("aqi,aqi->aq", diffs, diffs)[..., None]], axis=2)
    if not np.isfinite(lifted).all():  # the error bound below needs finite entries
        raise OverflowError("squared distance overflows a float")
    lifted *= np.ldexp(1.0, -np.frexp(np.abs(lifted).max(axis=2))[1])[..., None]
    # A subset's rows lifted[p_0, p_i], i = 1..k, have k+1 cofactors h (h_j is
    # (-1)^(k+j) times the minor without column j). h_k is the orientation
    # determinant o, D(q) = h . lifted[p_0, q] is the in-sphere determinant
    # with lifted[p_0, q] as last row, and q is strictly inside the
    # circumsphere iff o D(q) < 0. Error of D: entries are below 1 and off by
    # at most u = 2(k+3) EPS, as in the in-sphere filter, so each h_j is off
    # by at most c = _filter_bound(k, 2(k+3)) and is below k!. The k+1
    # products add (k+1)(c + k! u), their sum 1.01 (k+1)^2 EPS (k! + c)
    # (Higham's gamma); as c >= 8 k (k+3) k! EPS, all is below 4 (k+1) c.
    c = _filter_bound(k, 2.0 * (k + 3))
    cols = [[i for i in range(k + 1) if i != j] for j in range(k + 1)]
    cof_sign = (-1.0) ** (k + np.arange(k + 1))
    accepted, spans = [], False
    block = max(1, 2 ** 17 // n)
    for start in range(0, len(subsets), block):
        sub = subsets[start:start + block]
        h = np.linalg.det(lifted[sub[:, :1], sub[:, 1:]][:, :, cols].swapaxes(1, 2)) * cof_sign
        orients = np.sign(h[:, k]).astype(np.int64)
        unsure = np.abs(h[:, k]) <= c
        orients[unsure] = _exact_orient_signs(coords[sub[unsure]])
        dets = np.einsum("bj,bqj->bq", h, lifted[sub[:, 0]])
        inside = -np.sign(dets).astype(np.int64) * orients[:, None]
        skip = np.zeros(dets.shape, dtype=bool)  # members, and every q of a flat subset
        np.put_along_axis(skip, sub, True, axis=1)
        skip[orients == 0] = True
        r, q = np.nonzero((np.abs(dets) <= 4 * (k + 1) * c) & ~skip)
        # the exact determinant has rows (p_i - q, |p_i - q|^2): sign (-1)^(k+1) D
        exact = np.array(_exact_insphere_signs(coords[sub[r]], coords[q]), dtype=np.int64)
        inside[r, q] = exact * orients[r] * (-1) ** k
        inside[skip] = -1
        zeros = np.argwhere(inside == 0)
        if len(zeros):
            subset = tuple(sorted(sub[zeros[0, 0]].tolist() + [int(zeros[0, 1])]))
            raise GeneralPositionError("cospherical", subset,
                                       f"points {subset} lie on a common sphere")
        spans |= bool(orients.any())
        accepted += sub[(orients != 0) & (inside < 0).all(axis=1)].tolist()
    if not spans:
        raise GeneralPositionError("affine_span", tuple(range(n)),
                                   "points do not span the ambient space")
    return list(map(tuple, accepted))


def delaunay_bruteforce(points) -> set[tuple[int, int]]:
    """Delaunay edge set by exhaustive empty-circumsphere enumeration."""
    return {pair for verts in bruteforce_simplices(points) for pair in combinations(verts, 2)}


# ---------------------------------------------------------------------------
# LP adjacency witness
# ---------------------------------------------------------------------------

def _phase1_feasible(A: np.ndarray, b: np.ndarray, tol: float = 1e-9,
                     max_iter: int = 20_000):
    """Find t with A t <= b (t free) via a phase-1 simplex, Bland's rule.

    Returns t or None if infeasible.
    """
    m, v = A.shape
    if m == 0:
        return np.zeros(v)
    flip = np.where(b < 0, -1.0, 1.0)
    A2 = A * flip[:, None]
    rhs = b * flip
    neg = b < 0
    n_art = int(neg.sum())
    if n_art == 0:
        return np.zeros(v)  # t = 0 already satisfies every constraint
    ncols = 2 * v + m + n_art
    T = np.zeros((m, ncols))
    T[:, :v] = A2
    T[:, v:2 * v] = -A2
    T[np.arange(m), 2 * v + np.arange(m)] = flip
    basis = np.empty(m, dtype=int)
    ai = 0
    for r in range(m):
        if neg[r]:
            c = 2 * v + m + ai
            T[r, c] = 1.0
            basis[r] = c
            ai += 1
        else:
            basis[r] = 2 * v + r
    # phase-1 reduced costs c - z: cost 1 on artificials, basic rows priced out
    cbar = np.zeros(ncols)
    cbar[2 * v + m:] = 1.0
    cbar -= T[neg].sum(axis=0)
    obj = float(rhs[neg].sum())  # current sum of artificials

    for _ in range(max_iter):
        entering = -1
        for jcol in range(ncols):  # Bland: lowest eligible index
            if cbar[jcol] < -tol:
                entering = jcol
                break
        if entering < 0:
            break
        col = T[:, entering]
        ratios = np.full(m, np.inf)
        pos = col > tol
        ratios[pos] = rhs[pos] / col[pos]
        best = float(ratios.min())
        if not np.isfinite(best):
            raise RuntimeError("phase-1 objective unbounded; should not happen")
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        leave = int(min(ties, key=lambda r: basis[r]))  # Bland tie-break
        piv = T[leave, entering]
        T[leave] /= piv
        rhs[leave] /= piv
        coef = T[:, entering].copy()
        coef[leave] = 0.0
        T -= np.outer(coef, T[leave])
        rhs -= coef * rhs[leave]
        delta = cbar[entering]
        cbar -= delta * T[leave]
        obj += delta * rhs[leave]
        basis[leave] = entering
    else:
        raise RuntimeError("phase-1 simplex did not converge")

    if obj > tol:
        return None
    x = np.zeros(ncols)
    x[basis] = rhs
    return x[:v] - x[v:2 * v]


def adjacent_witness(points, i: int, j: int) -> WitnessResult:
    """Decide Delaunay adjacency of points i and j by LP feasibility.

    Adjacent iff some p is equidistant from both and at least as close to
    them as to every other sample point; a feasible p is returned.
    """
    ps = _as_pointset(points)
    n, k = ps.n, ps.dim
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("point index out of range")
    if i == j:
        raise GeometryError("indices must differ")
    if n > WITNESS_MAX_N:
        raise GeometryError(f"witness oracle is guarded to n <= {WITNESS_MAX_N}")
    coords = ps.coords
    mid = 0.5 * (coords[i] + coords[j])
    shifted = coords - mid
    scale = float(np.abs(shifted).max())
    if scale == 0.0:
        scale = 1.0
    shifted = shifted / scale

    u = shifted[i] - shifted[j]
    full, _, _ = np.linalg.svd(u[:, None])
    basisV = full[:, 1:]  # (k, k-1) orthonormal complement of the pair axis

    others = [z for z in range(n) if z not in (i, j)]
    if others:
        dz = shifted[others] - shifted[i]
        A = 2.0 * dz @ basisV
        b = (np.einsum("ij,ij->i", shifted[others], shifted[others])
             - float(shifted[i] @ shifted[i]))
        # at t: d(p, z) >= d(p, x_i) becomes 2 (Vt) . (x_z - x_i) <= |x_z|^2 - |x_i|^2
        # in midpoint-centered coordinates, where |x_i| = |x_j|
        t = _phase1_feasible(A, b)
    else:
        t = np.zeros(k - 1) if k > 1 else np.zeros(0)
    if t is None:
        return WitnessResult(False, None)
    p = mid + scale * (basisV @ t)
    return WitnessResult(True, p)


def circumcenter(simplex) -> np.ndarray:
    """The point equidistant from all k+1 affinely independent simplex points."""
    pts = np.asarray(simplex, dtype=np.float64)
    k = pts.shape[1]
    if pts.shape[0] != k + 1:
        raise GeometryError(f"circumcenter needs k+1={k + 1} points")
    rel = pts[1:] - pts[0]
    try:
        sol = np.linalg.solve(2.0 * rel, np.einsum("ij,ij->i", rel, rel))
    except np.linalg.LinAlgError as err:
        raise DegenerateSimplexError("simplex is affinely dependent") from err
    center = pts[0] + sol
    dists = np.linalg.norm(pts - center, axis=1)
    diam = max(distance(a, b) for a, b in combinations(pts, 2))
    if dists.max() - dists.min() > 1e-9 * diam:
        raise DegenerateSimplexError(
            "circumcenter system too ill-conditioned for a reliable center")
    return center


def bisector_pythagoras_check(x, y, p, rel_tol: float = 1e-9) -> bool:
    """Check d(x,p)^2 = d(x,a)^2 + d(a,p)^2 with a the midpoint of x and y.

    Requires p (approximately) equidistant from x and y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    dxp = distance(x, p)
    dyp = distance(y, p)
    span = max(dxp, dyp, distance(x, y))
    if abs(dxp - dyp) > 1e-9 * max(span, 1e-300):
        raise GeometryError("p is not equidistant from x and y")
    a = 0.5 * (x + y)
    lhs = dxp ** 2
    rhs = distance(x, a) ** 2 + distance(a, p) ** 2
    return abs(lhs - rhs) <= rel_tol * max(lhs, rhs, 1e-300)
