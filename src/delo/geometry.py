"""Point sets and exact geometric predicates.

Predicates (orientation, in-sphere) are evaluated with a floating-point
filter first: determinants are computed on row-scaled matrices and accepted
only when they clear a conservative forward error bound. Inconclusive cases
fall back to exact integer arithmetic over the rational values of the input
floats, so every returned sign is the true sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

EPS = 2.0 ** -53
MAX_DIM = 6

_FACT = [math.factorial(i) for i in range(10)]


class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class GeometryError(ValueError):
    """Base class for geometric input errors."""


class DuplicatePointError(GeometryError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} have identical coordinates; "
                         "scores are undefined for duplicates (consider jitter)")
        self.indices = (i, j)


class DegenerateSimplexError(GeometryError):
    """Simplex points are affinely dependent where independence is required."""


class GeneralPositionError(GeometryError):
    """Input violates the general-position requirements.

    kind is 'affine_span' (points do not span), 'cospherical' (k+2 points on a
    common sphere) or 'degenerate_flat' (a lower-dimensional coincidence the
    triangulation cannot tile; jitter resolves it).
    """

    def __init__(self, kind: str, subset: tuple[int, ...], message: str):
        super().__init__(message)
        self.kind = kind
        self.subset = subset


@dataclass(frozen=True)
class PointSet:
    """n distinct points in R^k, k <= 6, stored as an (n, k) float64 array."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 2:
            raise GeometryError(f"expected an (n, k) array, got shape {arr.shape}")
        n, k = arr.shape
        if n < 1:
            raise GeometryError("a point set needs at least one point")
        if not 1 <= k <= MAX_DIM:
            raise GeometryError(f"dimension {k} unsupported (1 <= k <= {MAX_DIM})")
        if not np.all(np.isfinite(arr)):
            bad = int(np.argwhere(~np.isfinite(arr).all(axis=1))[0][0])
            raise GeometryError(f"point {bad} has a non-finite coordinate")
        arr = arr + 0.0  # normalize -0.0 so bitwise duplicate detection is exact
        seen: dict[bytes, int] = {}
        for i in range(n):
            key = arr[i].tobytes()
            if key in seen:
                raise DuplicatePointError(seen[key], i)
            seen[key] = i
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def __len__(self):
        return self.n


# ---------------------------------------------------------------------------
# determinant kernels: row-scaled float filters + exact integer fallback
# ---------------------------------------------------------------------------

def _unit_rows(mats: np.ndarray) -> np.ndarray:
    """mats with each row (last axis) scaled by a power of two so that its
    largest entry is below 1 in magnitude.

    The scaling is exact except for entries below 2^-1022 times the row
    maximum, which round by less than 2^-1074 of it.
    """
    # a maximum per column is much faster than a reduction over a short axis
    _, e = np.frexp(functools.reduce(np.maximum, np.abs(np.moveaxis(mats, -1, 0))))
    return np.ldexp(mats, -e[..., None])


def _filter_bound(d: int, entry_ulps) -> np.ndarray | float:
    # Conservative forward bound for a partial-pivoted LU determinant of a
    # matrix whose rows were scaled to max-entry < 1, plus the effect of
    # entry construction error (entry_ulps units of EPS per scaled entry).
    eval_term = 64.0 * d ** 3 * 2.0 ** (d - 1) * _FACT[d - 1]
    entry_term = 4.0 * d * d * _FACT[d - 1]
    return EPS * (eval_term + entry_term * entry_ulps)


def _filtered_det_signs(mats: np.ndarray, entry_ulps=1.0):
    """Signs of determinants of a (m, d, d) batch.

    entry_ulps bounds relative entry construction error (units of EPS per
    row maximum). Returns (signs, inconclusive): signs are certified except
    where inconclusive is True, which callers must resolve exactly.
    """
    d = mats.shape[1]
    dets = np.linalg.det(_unit_rows(mats))
    signs = np.sign(dets).astype(np.int64)
    return signs, np.abs(dets) <= _filter_bound(d, entry_ulps)


@functools.cache
def _laplace_tables(r: int):
    """Index tables for _cofactors with r rows and r+1 columns.

    Level t lists the t-subsets of the columns in combinations order, with
    each subset's columns, the positions one level down of the subsets
    without each of them, and the signs of the expansion along row t-1.
    last[j] is the position of the r-subset without column j.
    """
    levels, down = [], {(): 0}
    for t in range(1, r + 1):
        subsets = list(combinations(range(r + 1), t))
        levels.append((np.array(subsets),
                       np.array([[down[s[:p] + s[p + 1:]] for p in range(t)] for s in subsets]),
                       (-1.0) ** (t - 1 + np.arange(t))))
        down = {s: i for i, s in enumerate(subsets)}
    last = [down[tuple(c for c in range(r + 1) if c != j)] for j in range(r + 1)]
    return levels, np.array(last), (-1.0) ** (r + np.arange(r + 1))


def _cofactors(rows: np.ndarray) -> np.ndarray:
    """The r+1 cofactors h of each r x (r+1) matrix of an (m, r, r+1) batch.

    h_j is (-1)^(r+j) times the minor without column j, so h . x is the
    determinant of the matrix with x appended as its last row. A Laplace
    expansion along one row per level, vectorised over the column subsets;
    for rows with entries at most 1 in magnitude, _cofactor_bound bounds its
    error.
    """
    levels, last, signs = _laplace_tables(rows.shape[1])
    minors = np.ones((len(rows), 1))
    for t, (cols, down, expand) in enumerate(levels):
        row = rows[:, t]
        minors = sum(e * row[:, c] * minors[:, d] for e, c, d in zip(expand, cols.T, down.T))
    return minors[:, last] * signs


def _cofactor_bound(d: int, entry_ulps: float) -> float:
    """Forward error bound of h . x = det([rows; x]), d = r + 1, with h from
    _cofactors and all entries computed to within entry_ulps * EPS of exact
    values at most 1 in magnitude; it bounds each cofactor as well.

    Level t of the expansion computes t x t minors as sums of t rounded
    products +-a * M, M a level t-1 minor, and the dot product with x is
    level d. Such a sum is within gamma_t = t EPS / (1 - t EPS) of its exact
    value relative to the sum of the magnitudes (in any order, with or
    without FMA). With u = entry_ulps * EPS, B_t bounding the computed
    level-t minors and e_t their error (B_0 = 1, e_0 = 0):

        B_t <= t (1 + gamma_t) B_(t-1),
        e_t <= t ((gamma_t + u) B_(t-1) + (1 + u) e_(t-1)).

    So B_t <= t! G with G = prod(1 + gamma_i), and f_t = e_t / t! satisfies
    f_t <= (gamma_t + u) G + (1 + u) f_(t-1), giving

        e_d <= d! G (1 + u)^d (d u + sum_t gamma_t).

    For d <= 7 and u <= 20 EPS, G (1 + u)^d and the 1 / (1 - t EPS) in
    gamma_t stay below 1.001, and sum_t t = d (d + 1) / 2; the remaining
    slack covers underflow, below 2^-1074 per operation.
    """
    return 1.01 * _FACT[d] * EPS * (d * entry_ulps + d * (d + 1) / 2)


def _bareiss_sign(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivval = m[col][col]
        for r in range(col + 1, n):
            row, ref = m[r], m[col]
            lead = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * pivval - lead * ref[c]) // prev
            row[col] = 0
        prev = pivval
    return sign if prev > 0 else -sign


def _scaled_ints(arr: np.ndarray) -> list:
    """The floats of arr as exact Python ints, all scaled by one power of
    two, in nested lists shaped like arr.

    Differences, products and determinants of the ints have the signs of
    those of the floats, without the gcd work of Fraction arithmetic.
    """
    mant, e = np.frexp(arr)
    mant = np.ldexp(mant, 53).astype(np.int64)  # exact: 53-bit significands
    nonzero = mant != 0
    low = int(e[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, e - low, 0)
    return (mant.astype(object) << shift.astype(object)).tolist()


def exact_det_sign(rows: Sequence[Sequence]) -> int:
    """Exact sign of a determinant with Fraction/int/float entries."""
    fr = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in fr for x in row))
    ints = [[int(x.numerator * (den // x.denominator)) for x in row] for row in fr]
    return _bareiss_sign(ints)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _as_points(points, expect: int | None = None) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise GeometryError(f"expected a sequence of points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("non-finite coordinate in predicate input")
    if expect is not None and arr.shape[0] != expect:
        raise GeometryError(f"expected {expect} points, got {arr.shape[0]}")
    return arr


def orient(simplex) -> Sign:
    """Exact sign of the orientation determinant of k+1 points in R^k.

    ZERO iff the points are affinely dependent.
    """
    pts = _as_points(simplex)
    k = pts.shape[1]
    if pts.shape[0] != k + 1:
        raise GeometryError(f"orientation in R^{k} needs {k + 1} points, got {pts.shape[0]}")
    mat = (pts[1:] - pts[0])[None, :, :]
    signs, bad = _filtered_det_signs(mat)
    if not bad[0]:
        return Sign(int(signs[0]))
    return Sign(_exact_orient_signs(pts[None])[0])


def _exact_orient_signs(simplices: np.ndarray) -> list[int]:
    """Exact orientation signs of an (m, k+1, k) batch of simplices."""
    return [_bareiss_sign([[a - b for a, b in zip(row, base)] for row in rest])
            for base, *rest in _scaled_ints(simplices)]


def _face_planes(faces: np.ndarray) -> np.ndarray:
    """One hyperplane per face of an (m, k, k) batch, k points each: the
    _cofactors of the rows f_j - f_0, j = 1..k-1, each scaled by a power of
    two, for _plane_orient_signs."""
    return _cofactors(_unit_rows(faces[:, 1:] - faces[:, :1]))


def _plane_orient_signs(faces: np.ndarray, h: np.ndarray, which: np.ndarray,
                        queries: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact orientation signs of (queries[i], *faces[which[i]]) for an
    (m, k, k) batch of faces with hyperplanes h from _face_planes, one dot
    product per query, and how many of them the float filter left to exact
    arithmetic."""
    k = queries.shape[1]
    dots = np.einsum("ij,ij->i", h[which], _unit_rows(queries - faces[which, 0]))
    # the query row comes last in the dot product: k swaps move it first
    signs = np.sign(dots).astype(np.int64) * (-1) ** k
    unsure = np.abs(dots) <= _cofactor_bound(k, 1.0)  # differences: within 1 EPS
    if unsure.any():
        signs[unsure] = _exact_orient_signs(
            np.concatenate([queries[unsure][:, None], faces[which[unsure]]], axis=1))
    return signs, int(unsure.sum())


def _orient_signs(simplices: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact orientation signs of an (m, k+1, k) batch of simplices, and how
    many of them the float filter left to exact arithmetic."""
    faces = simplices[:, 1:]
    return _plane_orient_signs(faces, _face_planes(faces), np.arange(len(faces)),
                               simplices[:, 0])


def _insphere_mats(pts: np.ndarray, queries: np.ndarray):
    # rows i: (p_i - q, |p_i - q|^2); one (k+1)x(k+1) matrix per query. pts is
    # one simplex (k+1, k) shared by every query, or one simplex per query
    # (m, k+1, k). Entries are within 2 (k + 3) EPS of the row maximum: one
    # rounding per difference, about k + 3 for |p - q|^2, doubled for safety
    diffs = pts - queries[:, None, :]
    norms = np.einsum("mij,mij->mi", diffs, diffs)
    return np.concatenate([diffs, norms[:, :, None]], axis=2)


def _exact_insphere_signs(simplices: np.ndarray, queries: np.ndarray) -> list[int]:
    """Exact signs of the _insphere_mats determinants of an (m, k+1, k)
    batch of simplices, one query each."""
    signs = []
    for *rows, top in _scaled_ints(np.concatenate([simplices, queries[:, None]], axis=1)):
        mat = []
        for row in rows:
            d = [a - b for a, b in zip(row, top)]
            mat.append(d + [sum(x * x for x in d)])
        signs.append(_bareiss_sign(mat))
    return signs


def _insphere_det_signs(pts: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact signs of the _insphere_mats determinants, and how many of them
    the float filter left to exact arithmetic."""
    k = queries.shape[1]
    mats = _insphere_mats(pts, queries)
    signs, bad = _filtered_det_signs(mats, entry_ulps=2.0 * (k + 3))
    if bad.any():
        simplices = np.broadcast_to(pts, (len(mats), k + 1, k))
        signs[bad] = _exact_insphere_signs(simplices[bad], queries[bad])
    return signs, int(bad.sum())


def _lifted_planes(simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """One lifted hyperplane per simplex of an (m, k+1, k) batch.

    h holds the _cofactors of the rows (v_i - v_0, |v_i - v_0|^2), i = 1..k,
    each scaled by a power of two. For a query q, h . (q - v_0, |q - v_0|^2)
    then has the sign of the lifted orientation of (v_0, ..., v_k, q), which
    is (-1)^(k+1) times the _insphere_mats determinant, and h_k that of the
    orientation determinant. Returns h, the exact orientation signs and how
    many of them the float filter left to exact arithmetic.
    """
    k = simplices.shape[2]
    h = _cofactors(_unit_rows(_insphere_mats(simplices[:, 1:], simplices[:, 0])))
    signs = np.sign(h[:, k]).astype(np.int64)
    unsure = np.abs(h[:, k]) <= _cofactor_bound(k + 1, 2.0 * (k + 3))
    if unsure.any():
        signs[unsure] = _exact_orient_signs(simplices[unsure])
    return h, signs, int(unsure.sum())


def _plane_insphere_signs(simplices: np.ndarray, h: np.ndarray, orients: np.ndarray,
                          which: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, int]:
    """Position of queries[i] relative to the circumsphere of
    simplices[which[i]] (1 strictly inside, 0 on, -1 outside), from the
    simplices' _lifted_planes h and orientation signs: one dot product per
    query, resolved exactly where it is within the bound. Returns the signs
    and how many of them the float filter left to exact arithmetic.
    """
    k = queries.shape[1]
    lifted = _unit_rows(_insphere_mats(queries[:, None], simplices[which, 0]))[:, 0]
    dots = np.einsum("ij,ij->i", h[which], lifted)
    signs = np.sign(dots).astype(np.int64)
    unsure = np.abs(dots) <= _cofactor_bound(k + 1, 2.0 * (k + 3))
    if unsure.any():
        exact = _exact_insphere_signs(simplices[which[unsure]], queries[unsure])
        signs[unsure] = np.multiply(exact, (-1) ** (k + 1))
    # in_sphere is (-1)^k * orientation * _insphere_mats det (in_sphere_many)
    return -signs * orients[which], int(unsure.sum())


def in_sphere_many(simplex, queries) -> np.ndarray:
    """Position of each of m query points relative to the circumsphere of a simplex.

    Returns an (m,) int64 array: 1 strictly inside, 0 on the sphere, -1
    strictly outside, independent of the order in which the simplex points
    are given. queries must be an (m, k) array of finite points.
    """
    pts = _as_points(simplex)
    k = pts.shape[1]
    if pts.shape[0] != k + 1:
        raise GeometryError(f"in_sphere in R^{k} needs a {k + 1}-point simplex")
    qs = _as_points(queries)
    if qs.shape[1] != k:
        raise GeometryError("query dimension does not match the simplex")
    s_or = orient(pts)
    if s_or is Sign.ZERO:
        raise DegenerateSimplexError("in_sphere needs an affinely independent simplex")
    signs, _ = _insphere_det_signs(pts, qs)
    # parity: the translated determinant equals the homogeneous one up to
    # the k row swaps that move the query row into place
    return signs * (int(s_or) * (-1 if k % 2 else 1))


def in_sphere(simplex, query) -> Sign:
    """Position of a query point relative to the circumsphere of a simplex,
    as a Sign (see in_sphere_many)."""
    return Sign(int(in_sphere_many(simplex, [query])[0]))


def lift(point) -> np.ndarray:
    """Map x in R^k to (x, |x|^2) on the paraboloid in R^(k+1)."""
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(p)):
        raise GeometryError("non-finite coordinate")
    with np.errstate(over="ignore"):
        sq = float(p @ p)
    if not math.isfinite(sq):
        raise OverflowError("squared norm overflows a float")
    return np.concatenate([p, [sq]])


def distance(x, y) -> float:
    """Euclidean distance, the length of the segment between x and y."""
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(y, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise GeometryError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return math.dist(a, b)


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralPositionReport:
    in_general_position: bool
    spans: bool
    violation: tuple[int, ...] | None
    kind: str | None
    mode: str


def is_affinely_independent(pts) -> bool:
    """Exact affine-independence test for up to k+1 points in R^k.

    The j difference rows have rank j iff j <= k and some j x j column minor
    is nonsingular.
    """
    arr = _as_points(pts)
    if len(arr) <= 1:
        return True
    j, k = len(arr) - 1, arr.shape[1]
    base = [Fraction(c) for c in arr[0]]
    rows = [[Fraction(c) - b for c, b in zip(row, base)] for row in arr[1:]]
    return j <= k and any(
        exact_det_sign([[row[c] for c in cols] for row in rows]) != 0
        for cols in combinations(range(k), j))


def affinely_independent_subset(coords) -> list[int]:
    """Greedy indices of a maximal (size <= k+1) affinely independent subset."""
    arr = np.asarray(coords, dtype=np.float64)
    n, k = arr.shape
    chosen = [0]
    for i in range(1, n):
        if len(chosen) == k + 1:
            break
        if is_affinely_independent(arr[chosen + [i]]):
            chosen.append(i)
    return chosen


def check_general_position(ps: PointSet, exhaustive: bool = False) -> GeneralPositionReport:
    """Report whether a point set is in general position.

    Exhaustive mode (n <= 20) enumerates every k+2 subset for cosphericality
    and every affine-dependence pattern. The default lazy mode runs the
    triangulation and reports the degeneracies it encounters.
    """
    n, k = ps.n, ps.dim
    if exhaustive:
        if n > 20:
            raise GeometryError("exhaustive general-position check is limited to n <= 20")
        basis = affinely_independent_subset(ps.coords)
        spans = len(basis) == k + 1
        if not spans and n >= k + 1:
            return GeneralPositionReport(False, False, tuple(range(n)), "affine_span",
                                         "exhaustive")
        for subset in combinations(range(n), k + 2):
            pts = ps.coords[list(subset)]
            simplex_idx = None
            for sub in combinations(range(k + 2), k + 1):
                if orient(pts[list(sub)]) is not Sign.ZERO:
                    simplex_idx = sub
                    break
            if simplex_idx is None:
                continue  # all on a hyperplane: no genuine sphere through them
            rest = next(i for i in range(k + 2) if i not in simplex_idx)
            if in_sphere(pts[list(simplex_idx)], pts[rest]) is Sign.ZERO:
                return GeneralPositionReport(False, spans, subset, "cospherical",
                                             "exhaustive")
        return GeneralPositionReport(spans, spans, None if spans else tuple(range(n)),
                                     None if spans else "affine_span", "exhaustive")

    from . import triangulation  # deferred: triangulation imports this module

    try:
        triangulation.delaunay(ps)
    except GeneralPositionError as err:
        spans = err.kind != "affine_span"
        return GeneralPositionReport(False, spans, err.subset, err.kind, "lazy")
    except DuplicatePointError:
        raise
    return GeneralPositionReport(True, True, None, None, "lazy")


def jitter_points(points, seed: int) -> PointSet:
    """Perturb each coordinate by a uniform offset of 1e-9 x bbox diameter.

    Accepts a PointSet or a raw (n, k) array; raw arrays may contain exact
    duplicates, which the perturbation resolves.
    """
    if isinstance(points, PointSet):
        arr = points.coords
    else:
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim != 2 or not np.all(np.isfinite(arr)):
            raise GeometryError("jitter needs a finite (n, k) coordinate array")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    if diam == 0.0:
        diam = 1.0
    mag = 1e-9 * diam
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    offsets = rng.uniform(-mag, mag, size=arr.shape)
    return PointSet(arr + offsets)
