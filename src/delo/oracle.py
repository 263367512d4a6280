"""Independent references for Delaunay adjacency.

Two routes that must agree with the triangulation. Exhaustive
empty-circumsphere enumeration goes over all (k+1)-subsets one first
vertex a at a time: in combinations order the subsets (a, i_1, ..., i_k)
are contiguous, and their rows are the lifted differences x_i - x_a,
|x_i - x_a|^2, built once for the set. Each subset's lifted hyperplane
comes from the certificate's cofactor expansion (geometry._cofactors), in
its prefix form: level t reads only rows 1..t, so it runs once per
distinct prefix (i_1, ..., i_t), and only the last level once per subset.
The hyperplanes are bit for bit those of geometry._lifted_planes. Every
sample point is then tested with one dot product per subset, all of a's
subsets against all points in one einsum, in runs of a bounded number of
subsets. A sign within the forward error bound is decided by the same
expansion on exact integers (geometry._exact_plane_signs), one exact
hyperplane per subset that needs one, so every sign is the true one. It
shares that kernel with the triangulation's certificate, but not the
enumeration: it never sees the cells it is compared with.

A linear-program feasibility test decides a single pair (is there a point
equidistant from both that no other sample point beats?); it shares
nothing with the other two. Each pair's LP lives on its bisector, in an
orthonormal basis from one Householder reflection, and is decided by a
phase-1 simplex under Bland's rule with 1e-9 tolerances, on a condensed
tableau: one column per nonbasic variable, not one per variable. The LPs
run in lockstep, a batch of consecutive pairs at a time. The module keeps
the last point set it was given, validated, with the batches solved for
it; a call whose set has the same shape and float64 bytes reuses them, and
any other set replaces them.

Both are guarded in size (n <= 40 and n <= 200): brute force grows like
n^(k+2), and they exist to check the triangulation on small sets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (
    GeneralPositionError,
    GeometryError,
    PointSet,
    _cofactor_bound,
    _cofactors,
    _entry_ulps,
    _exact_plane_signs,
    _lifted_orients,
    _rows,
    _unit_rows,
)

BRUTEFORCE_MAX_N = 40
WITNESS_MAX_N = 200
_BLOCK_ENTRIES = 2 ** 17  # signs D(q) one run of brute-force subsets may take


@dataclass(frozen=True)
class WitnessResult:
    adjacent: bool
    witness: np.ndarray | None


def _as_pointset(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(np.asarray(points, dtype=np.float64))


def _lifted_rows(coords: np.ndarray) -> np.ndarray:
    """lifted[a, q] = (x_q - x_a, |x_q - x_a|^2), the rows geometry._planes
    builds, scaled alike to entries below 1."""
    n, k = coords.shape
    lifted = _rows(np.broadcast_to(coords, (n, n, k)), coords, True)
    if not np.isfinite(lifted).all():  # the error bound needs finite entries
        raise OverflowError("squared distance overflows a float")
    return _unit_rows(lifted)


def _prefix_tree(n: int, k: int, a: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The subsets (a, i_1, ..., i_k), a < i_1 < ... < i_k < n, as the tree
    of their prefixes: level t lists each distinct (i_1, ..., i_(t+1)) that
    some subset extends, in combinations order, by its last vertex i_(t+1)
    and the position at level t-1 of its parent (i_1, ..., i_t). The last
    level lists the subsets themselves.
    """
    first_level = np.arange(a + 1, n - k + 1)
    last, parent = [first_level], [np.zeros_like(first_level)]
    for t in range(1, k):
        children = n - k + t - last[-1]  # i_(t+1) = i_t + 1, ..., n - k + t
        up = np.repeat(np.arange(len(children)), children)
        first = np.cumsum(children) - children  # position of each parent's first child
        last.append(last[-1][up] + 1 + np.arange(len(up)) - first[up])
        parent.append(up)
    return last, parent


def _base_planes(lifted: np.ndarray, a: int, k: int, block: int):
    """The subsets with first vertex a and their lifted hyperplanes, in
    combinations order and in runs of at most `block` subsets: yields
    (subsets (B, k+1), h (B, k+1)).

    The rows of subset (a, i_1, ..., i_k) are lifted[a, i_1..i_k], so level t
    of _cofactors is shared by the subsets with the same i_1, ..., i_(t+1):
    each run expands every prefix it needs once (a prefix that two runs
    share, once in each). h is bit for bit geometry._lifted_planes of the
    subsets' points, as lifted holds the rows that builds (_lifted_rows).
    """
    last, parent = _prefix_tree(len(lifted), k, a)
    for lo in range(0, len(last[-1]), block):
        hi = min(lo + block, len(last[-1]))
        # the run's prefixes at each level are one contiguous range, [s[t], e[t])
        s, e = [0] * (k - 1) + [lo], [0] * (k - 1) + [hi]
        for t in range(k - 1, 0, -1):
            s[t - 1], e[t - 1] = parent[t][s[t]], parent[t][e[t] - 1] + 1
        h = _cofactors([lifted[a, last[t][s[t]:e[t]]] for t in range(k)],
                       [None] + [parent[t][s[t]:e[t]] - s[t - 1] for t in range(1, k)])
        subsets = np.empty((hi - lo, k + 1), dtype=np.int64)
        subsets[:, 0], at = a, np.arange(lo, hi)
        for t in range(k - 1, -1, -1):
            subsets[:, t + 1] = last[t][at]
            at = parent[t][at]
        yield subsets, h


def bruteforce_simplices(points) -> list[tuple[int, ...]]:
    """All (k+1)-subsets whose circumsphere is empty of other sample points.

    A point on a subset's circumsphere, with none strictly inside, puts k+2
    points on an empty sphere: the Delaunay triangulation is not unique, and
    the first such subset, in combinations order, is refused with its first
    point on the sphere (cospherical). Points that do not span raise
    affine_span.
    """
    ps = _as_pointset(points)
    n, k = ps.n, ps.dim
    if n < k + 1:
        raise GeometryError(f"need at least k+1={k + 1} points, got {n}")
    if n > BRUTEFORCE_MAX_N:
        raise GeometryError(f"brute-force oracle is guarded to n <= {BRUTEFORCE_MAX_N}")
    coords = ps.coords
    lifted = _lifted_rows(coords)
    # A subset's lifted hyperplane h makes D(q) = h . lifted[p_0, q] the
    # lifted orientation of the subset and q, and q is strictly inside the
    # circumsphere iff o D(q) < 0 for the orientation o. D is within
    # _cofactor_bound of its exact value, as the rows of h and lifted[p_0, q]
    # are built alike.
    bound = _cofactor_bound(k + 1, _entry_ulps(k, True))
    accepted, spans = [], False
    block = max(1, _BLOCK_ENTRIES // n)
    for a in range(n - k):
        for sub, h in _base_planes(lifted, a, k, block):
            simplices = coords.take(sub, axis=0)  # much faster than coords[sub]
            orients = _lifted_orients(h, simplices)
            # o D(q) for every q at once, by einsum: `@` would go to BLAS,
            # which may run threaded for more CPU time and no less wall time
            dets = np.einsum("bj,qj->bq", h * orients[:, None], lifted[a])
            # members and flat subsets are decided without D
            ar = np.arange(len(sub))[:, None]
            near = np.abs(dets) <= bound
            near[ar, sub] = False
            near[orients == 0] = False
            outside = dets > 0
            outside[ar, sub] = True
            if near.any():
                r, q = np.nonzero(near)
                signs = _exact_plane_signs(simplices, r, coords[q]) * orients[r]
                outside[r, q] = signs > 0
                if not signs.all():  # refused only with no point strictly inside
                    on = np.zeros_like(outside)
                    on[r, q] = signs == 0
                    empty = on.any(axis=1) & (outside | on).all(axis=1)
                    if empty.any():
                        b = int(np.argmax(empty))
                        subset = tuple(sorted(sub[b].tolist() + [int(np.argmax(on[b]))]))
                        raise GeneralPositionError("cospherical", subset,
                                                   f"points {subset} lie on a common sphere")
            spans |= bool(orients.any())
            accepted += sub[(orients != 0) & outside.all(axis=1)].tolist()
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

_LP_BATCH_ENTRIES = 2 ** 18  # array entries one batch of pair LPs may take
FEASIBLE, INFEASIBLE, UNBOUNDED, NO_CONVERGENCE = range(4)  # _phase1 outcomes


def _phase1(A: np.ndarray, b: np.ndarray, tol: float = 1e-9, max_iter: int = 20_000):
    """For each of B systems, find t with A t <= b (t free) by a phase-1
    simplex under Bland's rule; the systems pivot in lockstep.

    A is (B, m, v) and b is (B, m). With t = t+ - t-, rows with b_r >= 0
    read y_r = b_r - A_r t and the others a_r = A_r t + y_r - b_r, every
    variable nonnegative; phase 1 minimises the sum of the artificials a_r.
    Bland's rule takes the lowest eligible index in the order t+, t-, y, a.
    The tableau is condensed: a row per basic variable plus the objective
    row last, the right-hand side first, then a column per nonbasic
    variable. Column 2v + r starts as y_r where b_r < 0 and empty (zero, so
    never eligible) otherwise. Returns (outcome (B,), t (B, v)): FEASIBLE
    with its t, INFEASIBLE, or the failure that stopped that system.
    """
    B, m, v = A.shape
    neg = b < 0
    outcome = np.where(neg.any(axis=1), INFEASIBLE, FEASIBLE)  # t = 0 if no b_r < 0
    x = np.zeros((B, 2 * v))
    live = np.flatnonzero(outcome == INFEASIBLE)
    neg, A, b = neg[live], A[live], b[live]
    rows = np.arange(m)
    M = np.zeros((len(live), m + 1, 1 + 2 * v + m))
    flip = np.where(neg, -1.0, 1.0)
    M[:, :m, 0] = flip * b
    M[:, :m, 1:1 + v] = -flip[..., None] * A
    M[:, :m, 1 + v:1 + 2 * v] = -M[:, :m, 1:1 + v]
    M[:, rows, 1 + 2 * v + rows] = neg
    M[:, m] = (neg[:, None, :] @ M[:, :m])[:, 0]  # the sum of the rows of the a_r
    basic = np.where(neg, 2 * v + m + rows, 2 * v + rows)
    never = 2 * (v + m)
    nonbasic = np.concatenate(
        [np.broadcast_to(np.arange(2 * v), (len(live), 2 * v)), np.where(neg, 2 * v + rows, never)],
        axis=1)

    def finish(stop, code=None):
        nonlocal live, M, basic, nonbasic
        idx, Ms, bs = live[stop], M[stop], basic[stop]
        if code is None:
            outcome[idx] = np.where(Ms[:, m, 0] <= tol, FEASIBLE, INFEASIBLE)
            r, s = np.nonzero(bs < 2 * v)
            x[idx[r], bs[r, s]] = Ms[r, s, 0]
        else:
            outcome[idx] = code
        go = ~stop
        live, M, basic, nonbasic = live[go], M[go], basic[go], nonbasic[go]
        return go

    for _ in range(max_iter):
        if not len(live):
            break
        eligible = M[:, m, 1:] < -tol
        enter = np.where(eligible, nonbasic, never).argmin(axis=1)
        optimal = ~eligible[np.arange(len(live)), enter]
        if optimal.any():
            enter = enter[finish(optimal)]
        col = M[np.arange(len(live)), :m, enter + 1]
        ratios = np.divide(M[:, :m, 0], -col, out=np.full(col.shape, np.inf), where=col < -tol)
        unbounded = np.isinf(ratios.min(axis=1))
        if unbounded.any():
            keep = finish(unbounded, UNBOUNDED)
            enter, ratios = enter[keep], ratios[keep]
        ar, c = np.arange(len(live)), enter + 1
        best = ratios.min(axis=1)
        ties = ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None]
        leave = np.where(ties, basic, never).argmin(axis=1)  # Bland tie-break
        prow = M[ar, leave]
        piv = prow[ar, c]
        new = prow / -piv[:, None]
        new[ar, c] = 1.0 / piv
        colv = M[ar, :, c]
        M[ar, :, c] = 0.0
        M += np.einsum("br,bc->brc", colv, new)
        M[ar, leave] = new
        entering = nonbasic[ar, enter]
        nonbasic[ar, enter] = basic[ar, leave]
        basic[ar, leave] = entering
    else:
        finish(np.ones(len(live), dtype=bool), NO_CONVERGENCE)
    return outcome, x[:, :v] - x[:, v:]


def _pair_witnesses(coords: np.ndarray, I: np.ndarray, J: np.ndarray):
    """The LP outcomes and witnesses of the pairs (I[p], J[p]), I < J, by
    one batch of LPs: (outcome (P,), witness (P, k))."""
    n, k = coords.shape
    ar = np.arange(len(I))
    mid = 0.5 * (coords[I] + coords[J])
    shifted = coords - mid[:, None]
    scale = np.abs(shifted).max(axis=(1, 2))
    shifted /= scale[:, None, None]
    xi = shifted[ar, I]
    # a Householder reflection maps the pair axis u to a multiple of e_0; its
    # other k-1 columns are an orthonormal basis of the bisector's directions
    h = xi - shifted[ar, J]
    h /= np.linalg.norm(h, axis=1)[:, None]
    h[:, 0] += np.where(h[:, 0] < 0, -1.0, 1.0)
    basis = (np.eye(k)[:, 1:]
             - (2.0 / np.einsum("pi,pi->p", h, h))[:, None, None] * h[:, :, None] * h[:, None, 1:])
    q = np.arange(n - 2)
    xz = shifted[ar[:, None], q + (q >= I[:, None]) + (q >= J[:, None] - 1)]
    # at p = V t: d(p, z) >= d(p, x_i) becomes 2 (Vt) . (x_z - x_i) <= |x_z|^2 - |x_i|^2
    # in midpoint-centred coordinates, where |x_i| = |x_j|
    A = 2.0 * (xz - xi[:, None]) @ basis
    b = np.einsum("pzi,pzi->pz", xz, xz) - np.einsum("pi,pi->p", xi, xi)[:, None]
    outcome, t = _phase1(A, b)
    return outcome, mid + scale[:, None] * np.einsum("pij,pj->pi", basis, t)


@functools.lru_cache(maxsize=1)
def _solved_for(shape: tuple[int, ...], data: bytes) -> tuple[PointSet, int, dict]:
    """The point set with this shape and float64 bytes, validated, the pairs
    per batch of its LPs and the batches solved for it so far (batch number
    -> (outcome, witness)). An invalid set raises, and is not kept."""
    ps = PointSet(np.frombuffer(data).reshape(shape))
    n, k = ps.n, ps.dim
    per_pair = (n - 1) * (k + n - 2) + n * k  # tableau and centred points
    return ps, max(1, _LP_BATCH_ENTRIES // per_pair), {}


def adjacent_witness(points, i: int, j: int) -> WitnessResult:
    """Decide Delaunay adjacency of points i and j by LP feasibility.

    Adjacent iff some p is equidistant from both and at least as close to
    them as to every other sample point; a feasible p is returned. The pair
    is unordered. The LPs of the set's pairs are solved in batches of
    consecutive pairs (i < j in lexicographic order), kept while the next
    call passes a set with the same contents.
    """
    arr = points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=np.float64)
    ps, size, solved = _solved_for(arr.shape, arr.tobytes())
    n = ps.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("point index out of range")
    if i == j:
        raise GeometryError("indices must differ")
    if n > WITNESS_MAX_N:
        raise GeometryError(f"witness oracle is guarded to n <= {WITNESS_MAX_N}")
    lo, hi = (i, j) if i < j else (j, i)
    batch, pos = divmod(lo * (2 * n - lo - 1) // 2 + hi - lo - 1, size)
    if batch not in solved:
        q = np.arange(batch * size, min((batch + 1) * size, n * (n - 1) // 2))
        starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # first pair of each row
        I = np.searchsorted(starts, q, side="right") - 1
        solved[batch] = _pair_witnesses(ps.coords, I, q - starts[I] + I + 1)
    outcome, witness = solved[batch]
    if outcome[pos] == UNBOUNDED:
        raise RuntimeError("phase-1 objective unbounded; should not happen")
    if outcome[pos] == NO_CONVERGENCE:
        raise RuntimeError("phase-1 simplex did not converge")
    if outcome[pos] == INFEASIBLE:
        return WitnessResult(False, None)
    return WitnessResult(True, witness[pos].copy())
