"""Point sets and exact geometric predicates.

Every sign (orientation, in-sphere, affine independence) comes from one
determinant kernel. A group of points gives one hyperplane: the cofactors,
by a Laplace expansion, of its difference rows p_i - p_0, with |p_i - p_0|^2
appended for the paraboloid lift; a query's sign is then one dot product
with its own row. In floating point, on rows scaled by powers of two, a sign
is accepted when the dot product clears a derived forward error bound.
Otherwise the same expansion runs on the input floats as exact integers, so
every returned sign is the true sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import combinations

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

    kind is 'affine_span' (points do not span) or 'cospherical' (k+2 points
    on a sphere with no point strictly inside, or all points on one sphere),
    so the Delaunay triangulation is not unique; jitter resolves it.
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
# one determinant kernel: hyperplanes from cofactors, a float filter, and the
# same expansion on exact integers
# ---------------------------------------------------------------------------

def _unit_rows(mats: np.ndarray) -> np.ndarray:
    """mats with each row (last axis) scaled by a power of two so that its
    largest entry is below 1 in magnitude.

    The scaling is exact except for entries below 2^-1022 times the row
    maximum, which round by less than 2^-1074 of it.
    """
    # a maximum per column is much faster than a reduction over a short axis
    _, e = np.frexp(functools.reduce(np.maximum, np.abs(mats.T)).T)
    return np.ldexp(mats, -e[..., None])


@functools.cache
def _laplace_tables(r: int):
    """Index tables for _cofactors with r rows and r+1 columns.

    Level t lists the t-subsets of the columns in combinations order, with
    each subset's columns, the positions one level down of the subsets
    without each of them, and the signs of the expansion along row t-1.
    last[j] is the position of the r-subset without column j. The signs are
    ints, so that the expansion stays exact on Python ints.
    """
    levels, down = [], {(): 0}
    for t in range(1, r + 1):
        subsets = list(combinations(range(r + 1), t))
        levels.append((np.array(subsets),
                       np.array([[down[s[:p] + s[p + 1:]] for p in range(t)] for s in subsets]),
                       [(-1) ** (t - 1 + p) for p in range(t)]))
        down = {s: i for i, s in enumerate(subsets)}
    last = [down[tuple(c for c in range(r + 1) if c != j)] for j in range(r + 1)]
    return levels, np.array(last), (-1) ** (r + np.arange(r + 1))


def _cofactors(rows, parents=None) -> np.ndarray:
    """The r+1 cofactors h of each r x (r+1) matrix of an (m, r, r+1) batch.

    h_j is (-1)^(r+j) times the minor without column j, so h . x is the
    determinant of the matrix with x appended as its last row. A Laplace
    expansion along one row per level, vectorised over the column subsets:
    level t turns the minors of rows 0..t-1 into those of rows 0..t. On
    floats with entries at most 1 in magnitude, _cofactor_bound bounds its
    error; on an object array of Python ints it is exact.

    Level t reads no row below row t, so matrices with the same first rows
    can share those levels. In this prefix form, rows and parents are lists
    of r arrays: rows[t] holds row t of each distinct (t+1)-row prefix, and
    parents[t] the position at level t-1 of the t-row prefix it extends
    (parents[0] is None: the empty prefix is one). h is that of the last
    level's matrices, bit for bit as if each were expanded alone; a batch is
    the case where no prefix is shared.
    """
    if parents is None:
        minors = np.ones((len(rows), 1), dtype=rows.dtype)
        rows, parents = rows.transpose(1, 0, 2), [None] * rows.shape[1]
    else:
        minors = np.ones((1, 1), dtype=rows[0].dtype)
    levels, last, signs = _laplace_tables(len(rows))
    for (cols, down, expand), row, parent in zip(levels, rows, parents):
        below = minors if parent is None else minors[parent]
        minors = sum(e * row[:, c] * below[:, d] for e, c, d in zip(expand, cols.T, down.T))
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


def _entry_ulps(k: int, lift: bool) -> float:
    """The error of the entries of _rows in R^k, scaled by _unit_rows, in
    EPS of the row maximum: 1 for differences, and 2 (k + 3) for lifted
    rows, about k + 3 roundings for |p - q|^2, doubled."""
    return 2.0 * (k + 3) if lift else 1.0


def _scaled_ints(arr: np.ndarray) -> np.ndarray:
    """The floats of arr as exact Python ints in an object array shaped like
    arr, all scaled by one power of two.

    Differences, products and determinants of the ints have the signs of
    those of the floats, without the gcd work of rational arithmetic.
    """
    mant, e = np.frexp(arr)
    mant = np.ldexp(mant, 53).astype(np.int64)  # exact: 53-bit significands
    nonzero = mant != 0
    low = int(e[nonzero].min()) if nonzero.any() else 0
    shift = np.where(nonzero, e - low, 0)
    return mant.astype(object) << shift.astype(object)


def _rows(pts: np.ndarray, base: np.ndarray, lift: bool) -> np.ndarray:
    """The rows p - b of an (m, r, k) batch of points p against (m, k) bases
    b, each followed by |p - b|^2 if lift; floats and exact ints alike."""
    diffs = pts - base[:, None]
    if not lift:
        return diffs
    return np.concatenate([diffs, np.einsum("mij,mij->mi", diffs, diffs)[..., None]], axis=2)


def _planes(pts: np.ndarray) -> np.ndarray:
    """One hyperplane per group of an (m, g, k) batch of points, g = k or
    k + 1: the _cofactors h of the rows p_i - p_0, i = 1..g-1, each scaled
    by a power of two, with |p_i - p_0|^2 appended when g = k + 1.

    For a query q and its row x against p_0, built alike, h . x has the sign
    of the orientation of (p_0, ..., p_(g-1), q): in R^k when g = k, and of
    the points lifted to the paraboloid in R^(k+1) when g = k + 1. In the
    lifted case h_k is the orientation determinant of the group itself, and
    q is strictly inside its circumsphere iff h . x and h_k have opposite
    signs (lifted q lies below the plane, and a point far above lies on the
    side h_k).
    """
    k = pts.shape[2]
    return _cofactors(_unit_rows(_rows(pts[:, 1:], pts[:, 0], pts.shape[1] > k)))


_exact_count = 0  # signs _exact_plane_signs has resolved in this process


def _exact_plane_signs(pts: np.ndarray, which: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The exact signs of _plane_signs: the same rows and the same expansion
    on the input floats as exact ints (_scaled_ints, one scale for groups
    and queries), one plane per group used, then one integer dot product
    per query. Each query adds one to _exact_count."""
    global _exact_count
    _exact_count += len(queries)
    used, inv = np.unique(which, return_inverse=True)
    m, g, k = len(used), pts.shape[1], pts.shape[2]
    ints = _scaled_ints(np.concatenate([pts[used].reshape(-1, k), queries]))
    groups = ints[:m * g].reshape(m, g, k)
    h = _cofactors(_rows(groups[:, 1:], groups[:, 0], g > k))
    x = _rows(ints[m * g:, None], groups[inv, 0], g > k)[:, 0]
    return np.sign((h[inv] * x).sum(axis=1)).astype(np.int64)


def _plane_signs(pts: np.ndarray, h: np.ndarray, which: np.ndarray,
                 queries: np.ndarray) -> np.ndarray:
    """Exact signs of h[which[i]] . x_i, for the _planes h of the groups pts
    and x_i the row of queries[i] against pts[which[i], 0], built alike: one
    float dot product per query, and _exact_plane_signs where it is within
    _cofactor_bound.
    """
    k = queries.shape[1]
    lift = pts.shape[1] > k
    x = _unit_rows(_rows(queries[:, None], pts[which, 0], lift))[:, 0]
    dots = np.einsum("ij,ij->i", h[which], x)
    signs = np.sign(dots).astype(np.int64)
    unsure = np.abs(dots) <= _cofactor_bound(h.shape[1], _entry_ulps(k, lift))
    if unsure.any():
        signs[unsure] = _exact_plane_signs(pts, which[unsure], queries[unsure])
    return signs


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise GeometryError(f"expected a sequence of points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("non-finite coordinate in predicate input")
    return arr


def _plane_orient_signs(faces: np.ndarray, h: np.ndarray, which: np.ndarray,
                        queries: np.ndarray) -> np.ndarray:
    """Exact orientation signs of (queries[i], *faces[which[i]]) for an
    (m, k, k) batch of faces with hyperplanes h from _planes."""
    # the query row comes last in the dot product: k swaps move it first
    return _plane_signs(faces, h, which, queries) * (-1) ** faces.shape[2]


def _orient_signs(simplices: np.ndarray) -> np.ndarray:
    """Exact orientation signs of an (m, k+1, k) batch of simplices."""
    faces = simplices[:, 1:]
    return _plane_orient_signs(faces, _planes(faces), np.arange(len(faces)), simplices[:, 0])


def orient(simplex) -> Sign:
    """Exact sign of the orientation determinant of k+1 points in R^k.

    ZERO iff the points are affinely dependent.
    """
    pts = _as_points(simplex)
    k = pts.shape[1]
    if pts.shape[0] != k + 1:
        raise GeometryError(f"orientation in R^{k} needs {k + 1} points, got {pts.shape[0]}")
    return Sign(int(_orient_signs(pts[None])[0]))


def _lifted_planes(simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One lifted hyperplane h per simplex of an (m, k+1, k) batch (_planes),
    with the exact orientation signs (_lifted_orients): returns (h, signs).
    """
    h = _planes(simplices)
    return h, _lifted_orients(h, simplices.__getitem__)


def _lifted_orients(h: np.ndarray, simplices) -> np.ndarray:
    """Exact orientation signs of simplices from their lifted hyperplanes h:
    those of h_k, or where h_k is within the bound, the exact sign. Only
    there are the points needed: simplices(unsure) gives them, (u, k+1, k)
    for a boolean mask over the rows of h.
    """
    k = h.shape[1] - 1
    signs = np.sign(h[:, k]).astype(np.int64)
    unsure = np.abs(h[:, k]) <= _cofactor_bound(k + 1, _entry_ulps(k, True))
    if unsure.any():
        rest = simplices(unsure)
        signs[unsure] = _exact_plane_signs(rest[:, 1:], np.arange(len(rest)),
                                           rest[:, 0]) * (-1) ** k
    return signs


def _plane_insphere_signs(simplices: np.ndarray, h: np.ndarray, orients: np.ndarray,
                          which: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Position of queries[i] relative to the circumsphere of
    simplices[which[i]] (1 strictly inside, 0 on, -1 outside), from the
    simplices' _lifted_planes h and orientation signs: one dot product per
    query.
    """
    return -_plane_signs(simplices, h, which, queries) * orients[which]


def in_sphere_many(simplex, queries) -> np.ndarray:
    """Position of each of m query points relative to the circumsphere of a simplex.

    Returns an (m,) int64 array: 1 strictly inside, 0 on the sphere, -1
    strictly outside, independent of the order in which the simplex points
    are given. queries must be an (m, k) array of finite points. Points
    whose squared distances overflow a float raise OverflowError.
    """
    pts = _as_points(simplex)
    k = pts.shape[1]
    if pts.shape[0] != k + 1:
        raise GeometryError(f"in_sphere in R^{k} needs a {k + 1}-point simplex")
    qs = _as_points(queries)
    if qs.shape[1] != k:
        raise GeometryError("query dimension does not match the simplex")
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * k * max(np.abs(pts).max(), np.abs(qs).max(initial=0)) ** 2):
            raise OverflowError("squared distances between the points overflow a float")
    h, orients = _lifted_planes(pts[None])
    if not orients[0]:
        raise DegenerateSimplexError("in_sphere needs an affinely independent simplex")
    return _plane_insphere_signs(pts[None], h, orients, np.zeros(len(qs), dtype=np.int64), qs)


def in_sphere(simplex, query) -> Sign:
    """Position of a query point relative to the circumsphere of a simplex,
    as a Sign (see in_sphere_many)."""
    return Sign(int(in_sphere_many(simplex, [query])[0]))


# ---------------------------------------------------------------------------
# general position
# ---------------------------------------------------------------------------

def is_affinely_independent(pts) -> bool:
    """Exact affine-independence test for up to k+1 points in R^k.

    The difference rows D are independent iff the Gram determinant
    det(D D^T) is nonzero, expanded by _cofactors over exact ints.
    """
    arr = _as_points(pts)
    if len(arr) <= 1:
        return True
    ints = _scaled_ints(arr)
    diffs = ints[1:] - ints[0]
    gram = diffs @ diffs.T
    return bool(_cofactors(gram[None, 1:])[0] @ gram[0] != 0)


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


def _stream(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """The seeded Philox stream of every random draw in delo: the jitter,
    the builder's insertion order and each experiment replicate's sample."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


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
    offsets = _stream(seed).uniform(-mag, mag, size=arr.shape)
    return PointSet(arr + offsets)
