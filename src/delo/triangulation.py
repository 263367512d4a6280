"""Delaunay triangulation: Qhull proposes the cells, an exact certificate
accepts them, and an exact lifted-hull builder is the fallback.

For 2 <= k <= 6 and more than k+1 points, scipy's Qhull (Barber, Dobkin &
Huhdanpaa 1996) proposes the cells in floating point, and they are used
only after a batched certificate in the style of Mehlhorn et al. (1999) has
checked them with exact signs: every point is a vertex, the cells form a
triangulation of the convex hull, and every interior ridge is strictly
locally Delaunay. Such a triangulation is the unique Delaunay triangulation
of the points. Where Qhull's cells pass every check but a few ridges are
not locally Delaunay (Qhull splits facets it merged for precision in any
order), bistellar flips repair those ridges and the certificate runs again.

Otherwise -- k = 1, scipy missing, Qhull failing, or any check failing or
meeting a zero sign -- the points are lifted to the paraboloid in R^(k+1),
the incremental beneath-beyond algorithm with conflict lists builds their
convex hull, and the downward-facing facets project back to the Delaunay
cells. Every visibility decision is an exact orientation sign (float filter
with exact integer fallback), so the output is the true triangulation
whenever the input is in general position; degeneracies encountered along
the way are reported as errors naming the offending subset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .geometry import (
    EPS,
    GeneralPositionError,
    GeometryError,
    PointSet,
    Sign,
    _filtered_det_signs,
    _insphere_det_signs,
    _orient_signs,
    affinely_independent_subset,
    exact_det_sign,
    full_row_rank,
    in_sphere,
    is_affinely_independent,
    jitter_points,
    lifted_floats,
    orient,
)


@dataclass(frozen=True)
class BuildStats:
    """How a triangulation was obtained.

    backend is "qhull" when Qhull's cells, flipped where a ridge was not
    Delaunay, passed the certificate; then facets_created counts the
    certified cells and exact_fallbacks the signs the certificate resolved
    exactly, summed over both runs where flips were needed. It is
    "incremental" for the exact builder, where they count the hull facets
    created and the exact visibility signs, and for sets of at most k+1
    points, which need no hull.
    """

    facets_created: int
    exact_fallbacks: int
    backend: str


@dataclass(frozen=True, eq=False)
class DelaunayGraph:
    """Undirected Delaunay graph as read-only flat arrays.

    edges is an (E, 2) int64 array of vertex pairs i < j in lexicographic
    order, and lengths[e] is the Euclidean length of edges[e]. The neighbours
    of point i are indices[indptr[i]:indptr[i + 1]] (CSR), in ascending order.
    Graphs compare by identity: their arrays have no single truth value.
    """

    n: int
    dim: int
    edges: np.ndarray
    lengths: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    simplices: tuple[tuple[int, ...], ...]
    insertion_seed: int
    jitter_seed: int | None
    stats: BuildStats = BuildStats(0, 0, "incremental")

    def __post_init__(self):
        for arr in (self.edges, self.lengths, self.indptr, self.indices):
            arr.setflags(write=False)

    def incident_edges(self, i: int) -> list[tuple[int, float]]:
        """E(x_i): (neighbor index, edge length) pairs, sorted by neighbor."""
        if not 0 <= i < self.n:
            raise IndexError(f"point index {i} out of range [0, {self.n})")
        # the rows (a, i), a < i, come before the rows (i, b), as the neighbours do
        rows = np.flatnonzero((self.edges == i).any(axis=1))
        return list(zip(self.indices[self.indptr[i]:self.indptr[i + 1]].tolist(),
                        self.lengths[rows].tolist()))

    def edge_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.tolist()))

    def max_edge_length(self) -> float:
        return float(self.lengths.max())

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in self.indices[self.indptr[i]:self.indptr[i + 1]].tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


class _Facet:
    __slots__ = ("verts", "ref", "neighbors", "conflicts", "uid")

    def __init__(self, verts: tuple[int, ...], uid: int):
        self.verts = verts
        self.ref = 0
        self.neighbors: dict[tuple[int, ...], _Facet] = {}
        self.conflicts: set[int] = set()
        self.uid = uid


class _HullBuilder:
    """Incremental convex hull of the lifted points in R^(k+1)."""

    def __init__(self, ps: PointSet, insertion_seed: int):
        self.ps = ps
        self.coords = ps.coords
        self.lifted = lifted_floats(ps)
        self.d = ps.dim + 1
        self.n = ps.n
        self.facets: set[_Facet] = set()
        self.point_conflicts: dict[int, set[_Facet]] = {}
        self._lift_fr: dict[int, tuple[Fraction, ...]] = {}
        self._uid = 0
        self.fallbacks = 0
        self.created = 0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(insertion_seed)))
        self.order = [int(i) for i in rng.permutation(self.n)]
        mbig = float(np.abs(self.lifted).max())
        self.entry_abs = 32.0 * EPS * max(mbig, 1e-300)
        self.o: np.ndarray | None = None
        self._o_fr: tuple[Fraction, ...] | None = None

    # -- exact helpers ------------------------------------------------------

    def _lift_exact(self, i: int) -> tuple[Fraction, ...]:
        row = self._lift_fr.get(i)
        if row is None:
            cs = [Fraction(x) for x in self.coords[i]]
            row = tuple(cs + [sum(c * c for c in cs)])
            self._lift_fr[i] = row
        return row

    def _exact_sign(self, verts: tuple[int, ...], query) -> int:
        """Exact sign of det([v - v0 rows; query - v0]) in lifted space."""
        base = self._lift_exact(verts[0])
        rows = [[a - b for a, b in zip(self._lift_exact(v), base)] for v in verts[1:]]
        if isinstance(query, int):
            top = self._lift_exact(query)
        else:
            top = query  # already exact Fractions (the interior point)
        rows.append([a - b for a, b in zip(top, base)])
        self.fallbacks += 1
        return exact_det_sign(rows)

    def _lifted_independent(self, idxs: list[int]) -> bool:
        base = self._lift_exact(idxs[0])
        return full_row_rank(
            [[a - b for a, b in zip(self._lift_exact(v), base)] for v in idxs[1:]], self.d)

    # -- batched visibility -------------------------------------------------

    def _batch_signs(self, facet_rows: np.ndarray, repeats: list[int],
                     bases: np.ndarray, tops: np.ndarray,
                     facet_list: list[_Facet], queries: list) -> np.ndarray:
        """Certified det signs for stacked (facet, query) pairs.

        facet_rows: (F, d-1, d) difference rows per facet; repeats: pair count
        per facet; bases: (F, d) lifted base vertex; tops: (M, d) lifted query
        rows. queries holds the query label per pair (point index or 'o').
        """
        m = tops.shape[0]
        mats = np.empty((m, self.d, self.d))
        mats[:, : self.d - 1, :] = np.repeat(facet_rows, repeats, axis=0)
        mats[:, self.d - 1, :] = tops - np.repeat(bases, repeats, axis=0)
        signs, bad = _filtered_det_signs(mats, entry_abs=self.entry_abs)
        if bad.any():
            owner = np.repeat(np.arange(len(facet_list)), repeats)
            for idx in np.nonzero(bad)[0]:
                f = facet_list[int(owner[idx])]
                q = queries[idx]
                signs[idx] = self._exact_sign(f.verts, self._o_fr if q == "o" else q)
        return signs

    def _zero_conflict(self, facet: _Facet, q: int):
        """A query exactly on a facet plane: cospherical unless the facet is
        a vertical wall (its projection is affinely dependent)."""
        if orient(self.coords[list(facet.verts)]) is not Sign.ZERO:
            subset = tuple(sorted(facet.verts + (q,)))
            raise GeneralPositionError(
                "cospherical", subset,
                f"points {subset} lie on a common sphere; jitter to proceed")

    # -- construction -------------------------------------------------------

    def _facet_rows(self, verts: tuple[int, ...]) -> np.ndarray:
        pts = self.lifted[list(verts)]
        return pts[1:] - pts[0]

    def _new_facet(self, verts: tuple[int, ...]) -> _Facet:
        self._uid += 1
        self.created += 1
        return _Facet(verts, self._uid)

    def _init_simplex(self) -> list[int]:
        chosen: list[int] = []
        for i in self.order:
            if self._lifted_independent(chosen + [i]):
                chosen.append(i)
                if len(chosen) == self.d + 1:
                    return chosen
        # every remaining point is affinely dependent on the chosen lifted
        # ones: the whole set is cospherical or fails to span
        if len(affinely_independent_subset(self.coords)) < self.ps.dim + 1:
            raise GeneralPositionError(
                "affine_span", tuple(range(self.n)),
                "points do not span the ambient space")
        spare = next(i for i in self.order if i not in chosen)
        subset = tuple(sorted(chosen + [spare]))
        raise GeneralPositionError(
            "cospherical", subset,
            f"points {subset} are cospherical; jitter to proceed")

    def build(self) -> list[tuple[int, ...]]:
        simplex = self._init_simplex()
        self.o = self.lifted[simplex].mean(axis=0)
        self._o_fr = tuple(
            sum(self._lift_exact(v)[c] for v in simplex) / (self.d + 1)
            for c in range(self.d))

        # initial facets: all d-subsets of the initial simplex
        init_facets = []
        for omit in simplex:
            verts = tuple(sorted(v for v in simplex if v != omit))
            init_facets.append(self._new_facet(verts))
        for fa, fb in combinations(init_facets, 2):
            ridge = tuple(sorted(set(fa.verts) & set(fb.verts)))
            fa.neighbors[ridge] = fb
            fb.neighbors[ridge] = fa
        self.facets.update(init_facets)

        rows = np.stack([self._facet_rows(f.verts) for f in init_facets])
        bases = np.stack([self.lifted[f.verts[0]] for f in init_facets])
        refs = self._batch_signs(rows, [1] * len(init_facets), bases,
                                 np.stack([self.o] * len(init_facets)),
                                 init_facets, ["o"] * len(init_facets))
        for f, r in zip(init_facets, refs):
            if r == 0:
                raise RuntimeError("interior reference point landed on a facet plane")
            f.ref = int(r)

        in_simplex = set(simplex)
        pending = [i for i in self.order if i not in in_simplex]
        if pending:
            counts = [len(pending)] * len(init_facets)
            tops = np.tile(self.lifted[pending], (len(init_facets), 1))
            labels = pending * len(init_facets)
            signs = self._batch_signs(rows, counts, bases, tops, init_facets, labels)
            off = 0
            for f in init_facets:
                block = signs[off:off + len(pending)]
                off += len(pending)
                for q, s in zip(pending, block):
                    if s == 0:
                        self._zero_conflict(f, q)
                    elif s == -f.ref:
                        f.conflicts.add(q)
        for q in pending:
            self.point_conflicts[q] = {f for f in init_facets if q in f.conflicts}

        for p in pending:
            self._insert(p)

        return self._lower_simplices()

    def _insert(self, p: int):
        visible = self.point_conflicts.pop(p)
        if not visible:
            raise GeneralPositionError(
                "degenerate_flat", (p,),
                f"point {p} is not strictly outside the partial hull; jitter to proceed")

        horizon = []
        for f in visible:
            for ridge, g in f.neighbors.items():
                if g not in visible:
                    horizon.append((ridge, f, g))

        new_facets: list[_Facet] = []
        candidates: list[list[int]] = []
        half_ridges: dict[tuple[int, ...], tuple[_Facet, tuple[int, ...]]] = {}
        for ridge, f_vis, g_inv in horizon:
            verts = tuple(sorted(ridge + (p,)))
            nf = self._new_facet(verts)
            nf.neighbors[ridge] = g_inv
            g_inv.neighbors[ridge] = nf
            cands = (f_vis.conflicts | g_inv.conflicts)
            cands.discard(p)
            new_facets.append(nf)
            candidates.append(sorted(cands))
            for omit in ridge:
                key = tuple(sorted(set(verts) - {omit}))
                other = half_ridges.pop(key, None)
                if other is None:
                    half_ridges[key] = (nf, key)
                else:
                    of, _ = other
                    nf.neighbors[key] = of
                    of.neighbors[key] = nf
        if half_ridges:
            stray = sorted({v for key, _ in half_ridges.items() for v in key})
            raise GeneralPositionError(
                "degenerate_flat", tuple(stray),
                "hull boundary is not simplicial around points "
                f"{tuple(stray)}; jitter to proceed")

        rows = np.stack([self._facet_rows(f.verts) for f in new_facets])
        bases = np.stack([self.lifted[f.verts[0]] for f in new_facets])
        refs = self._batch_signs(rows, [1] * len(new_facets), bases,
                                 np.stack([self.o] * len(new_facets)),
                                 new_facets, ["o"] * len(new_facets))
        for f, r in zip(new_facets, refs):
            if r == 0:
                raise RuntimeError("interior reference point landed on a facet plane")
            f.ref = int(r)

        counts = [len(c) for c in candidates]
        if sum(counts):
            flat = [q for block in candidates for q in block]
            tops = self.lifted[flat]
            signs = self._batch_signs(rows, counts, bases, tops, new_facets, flat)
            off = 0
            for f, block in zip(new_facets, candidates):
                for q, s in zip(block, signs[off:off + len(block)]):
                    if s == 0:
                        self._zero_conflict(f, q)
                    elif s == -f.ref:
                        f.conflicts.add(q)
                        self.point_conflicts[q].add(f)
                off += len(block)

        for f in visible:
            for q in f.conflicts:
                if q in self.point_conflicts:
                    self.point_conflicts[q].discard(f)
            self.facets.discard(f)
        self.facets.update(new_facets)

    def _lower_simplices(self) -> list[tuple[int, ...]]:
        """Facets whose outward normal points downward project to Delaunay cells."""
        facets = sorted(self.facets, key=lambda f: f.verts)
        signs, _ = _orient_signs(self.coords[np.array([f.verts for f in facets])])
        lower = [f.verts for f, s in zip(facets, signs) if int(s) == f.ref]
        covered = {v for verts in lower for v in verts}
        if len(covered) != self.n:
            missing = sorted(set(range(self.n)) - covered)
            raise RuntimeError(f"points {missing} missing from the lower hull")
        return lower


@functools.cache
def _qhull():
    """scipy's Qhull Delaunay class and its error type, or None without scipy.

    Imported on first use: scipy adds about half a second to start-up.
    """
    try:
        from scipy.spatial import Delaunay, QhullError
    except ImportError:
        return None
    return Delaunay, QhullError


def _faces(simplices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row without one of its columns, in (row, column) order, and the
    vertex left out of each."""
    d = simplices.shape[1]
    keep = np.array([[c for c in range(d) if c != j] for j in range(d)])
    return simplices[:, keep].reshape(-1, d - 1), simplices.reshape(-1)


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic order of the rows, and whether each sorted row equals the next."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    return order, (ranked[1:] == ranked[:-1]).all(axis=1)


def _certify(coords: np.ndarray, cells) -> tuple[np.ndarray, int] | None:
    """Check exactly that cells are the Delaunay triangulation of coords.

    cells is an (m, k+1) vertex-index array from an untrusted source, for
    2 <= k. Returns the cells with sorted rows in lexicographic order and the
    number of signs resolved in exact arithmetic, or None if a check of
    _check fails or an interior ridge is not strictly locally Delaunay.
    """
    checked = _check(coords, cells)
    if checked is None or checked[2]:
        return None
    return checked[0], checked[1]


def _check(coords: np.ndarray, cells) -> tuple[np.ndarray, int, list] | None:
    """The certificate's checks, reporting the ridges that are not Delaunay.

    Returns the cells with sorted rows in lexicographic order, the number of
    signs resolved in exact arithmetic and the interior ridges (sorted vertex
    tuples) whose opposite apex lies strictly inside the other cell's
    circumsphere; or None if any other check fails or meets a zero sign.
    With every sign exact, the checks are (Mehlhorn et al. 1999, "Checking
    geometric programs or verification of geometric structures"):

    - every point is a vertex and every cell has a nonzero orientation;
    - every ridge lies in at most two cells, and two cells sharing a ridge
      lie on opposite sides of it;
    - the boundary ridges (those in one cell) form a closed surface that is
      strictly locally convex;
    - a point inside one cell lies in no other cell and strictly inside
      every boundary ridge.

    Together these make the cells a triangulation of the convex hull (the
    last check rules out, say, two clusters each triangulated on its own).
    Finally every interior ridge must be strictly locally Delaunay, which
    makes it the unique Delaunay triangulation.
    """
    n, k = coords.shape
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * k * np.abs(coords).max() ** 2):
            return None  # |p - q|^2 in the in-sphere matrices would overflow
    cells = np.sort(np.asarray(cells, dtype=np.int64), axis=1)
    cells = cells[np.lexsort(cells.T[::-1])]
    if cells.shape[1] != k + 1 or not np.array_equal(np.unique(cells), np.arange(n)):
        return None
    pts = coords[cells]
    sigma, exact = _orient_signs(pts)
    if not sigma.all():
        return None

    # ridge j of a cell omits its vertex j (the apex); the cell lies on the
    # side of the ridge where orient(apex, ridge) = sigma * (-1)^j
    m = len(cells)
    ridges, apex = _faces(cells)
    owner = np.repeat(np.arange(m), k + 1)
    side = np.repeat(sigma, k + 1) * np.tile((-1) ** np.arange(k + 1), m)
    order, same = _sorted_rows(ridges)
    if (same[1:] & same[:-1]).any():
        return None  # a ridge in three or more cells
    a, b = order[:-1][same], order[1:][same]
    if (side[a] != -side[b]).any():
        return None
    single = ~(np.r_[same, False] | np.r_[False, same])
    bnd = order[single]

    # closed boundary: every (k-2)-face of a boundary ridge is in exactly two
    # of them; locally convex: each lies strictly on the inner side of the other
    faces, dropped = _faces(ridges[bnd])
    face_ridge = np.repeat(bnd, k)
    order, same = _sorted_rows(faces)
    if len(order) % 2 or not same[0::2].all() or same[1::2].any():
        return None
    x = np.concatenate([order[0::2], order[1::2]])
    y = np.concatenate([order[1::2], order[0::2]])
    convex, e = _orient_signs(np.concatenate(
        [coords[dropped[y]][:, None], coords[ridges[face_ridge[x]]]], axis=1))
    exact += e
    if (convex != side[face_ridge[x]]).any():
        return None

    # one point covered exactly once: strictly inside the largest cell, in
    # no other closed cell, and strictly inside every boundary ridge
    c0 = int(np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])).argmax())
    p = pts[c0].mean(axis=0)
    near = ((pts.min(axis=1) <= p) & (p <= pts.max(axis=1))).all(axis=1)
    near[c0] = True
    cand = np.nonzero(near)[0]
    swapped = np.repeat(pts[cand], k + 1, axis=0)
    swapped[np.arange(len(swapped)), np.tile(np.arange(k + 1), len(cand))] = p
    loc, e = _orient_signs(swapped)
    exact += e
    inside = loc.reshape(len(cand), k + 1) * sigma[cand][:, None]
    mine = cand == c0
    if not (inside[mine] > 0).all() or (inside[~mine] >= 0).all(axis=1).any():
        return None
    wall = np.concatenate([np.broadcast_to(p, (len(bnd), 1, k)), coords[ridges[bnd]]], axis=1)
    seen, e = _orient_signs(wall)
    exact += e
    if (seen != side[bnd]).any():
        return None

    # strictly locally Delaunay: b's apex strictly outside a's circumsphere,
    # where in_sphere = det sign * orientation * (-1)^k
    det, e = _insphere_det_signs(pts[owner[a]], coords[apex[b]])
    exact += e
    inside = det * sigma[owner[a]] * (-1) ** k
    if not inside.all():
        return None
    return cells, exact, [tuple(r) for r in ridges[a[inside > 0]].tolist()]


def _flip_to_delaunay(coords: np.ndarray, cells: np.ndarray,
                      ridges: list) -> np.ndarray | None:
    """Lawson flips from a triangulation until its ridges are locally Delaunay.

    ridges are the interior ridges known to fail. The k+2 vertices of the two
    cells at a failing ridge have one affine dependence; the cells omitting a
    vertex whose coefficient has the sign of the apexes' form one
    triangulation of their hull, the cells omitting the others the second,
    and a flip swaps the first for the second. A flip waits while some cell
    of the first is missing. Returns the flipped cells, or None on a zero
    sign or when no waiting ridge can be flipped. Each flip lowers the
    lifted surface, so the loop ends; the result still has to pass _check.
    """
    n, k = coords.shape
    # cells are read in around a vertex when a flip first comes near it
    flat = cells.ravel()
    by_vertex = np.argsort(flat, kind="stable")
    star = np.searchsorted(flat[by_vertex], np.arange(n + 1))
    by_vertex //= k + 1
    loaded: set[int] = set()
    row_of: dict[tuple[int, ...], int] = {}  # original cells read in so far
    alive: set[tuple[int, ...]] = set()  # read-in and new cells not flipped away
    dropped: list[int] = []
    at_ridge: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def faces(c):
        return [c[:j] + c[j + 1:] for j in range(len(c))]

    def add(c):
        alive.add(c)
        for r in faces(c):
            at_ridge.setdefault(r, set()).add(c)

    def load(v):
        if v not in loaded:
            loaded.add(v)
            for i in by_vertex[star[v]:star[v + 1]].tolist():
                c = tuple(cells[i].tolist())
                if c not in row_of:
                    row_of[c] = i
                    add(c)

    todo, waiting, progressed = list(ridges), [], False
    while todo or waiting:
        if not todo:
            if not progressed:
                return None
            todo, waiting, progressed = waiting, [], False
        ridge = todo.pop()
        load(ridge[0])
        pair = at_ridge.get(ridge, ())
        if len(pair) != 2:
            continue
        c1, c2 = pair
        (u,) = set(c1) - set(ridge)
        (v,) = set(c2) - set(ridge)
        inside = in_sphere(coords[list(c1)], coords[v])
        if inside is Sign.ZERO:
            return None
        if inside is Sign.NEGATIVE:
            continue
        verts = tuple(sorted(ridge + (u, v)))
        for w in verts:
            load(w)
        circuit = faces(verts)
        lam = [(-1) ** i * int(orient(coords[list(c)])) for i, c in enumerate(circuit)]
        if 0 in lam:
            return None
        side = lam[verts.index(u)]
        old = [c for c, s in zip(circuit, lam) if s == side]
        if any(c not in alive for c in old):
            waiting.append(ridge)
            continue
        for c in old:
            alive.remove(c)
            for r in faces(c):
                at_ridge[r].discard(c)
            if c in row_of:
                dropped.append(row_of[c])
        for c in (c for c, s in zip(circuit, lam) if s != side):
            add(c)
            todo += faces(c)
        progressed = True
    created = sorted(c for c in alive if c not in row_of)
    return np.concatenate([np.delete(cells, dropped, axis=0),
                           np.array(created, dtype=np.int64).reshape(-1, k + 1)])


def _qhull_delaunay(ps: PointSet) -> tuple[np.ndarray, BuildStats] | None:
    """Qhull's cells once certified; None where the exact builder must decide."""
    qhull = _qhull()
    if qhull is None or ps.dim < 2:
        return None
    qhull_delaunay, qhull_error = qhull
    try:
        # translation leaves the triangulation unchanged but not Qhull's
        # rounding: on jittered grids far from the origin, raw coordinates
        # gave cells the certificate refused, centred ones did not
        proposed = qhull_delaunay(ps.coords - ps.coords.mean(axis=0)).simplices
    except qhull_error:
        return None
    checked = _check(ps.coords, proposed)
    exact = 0
    if checked is not None and checked[2]:
        # Qhull merges facets of nearly cospherical points and splits them
        # into cells in any order, so a few ridges may not be Delaunay
        cells, exact, failing = checked
        flipped = _flip_to_delaunay(ps.coords, cells, failing)
        checked = None if flipped is None else _check(ps.coords, flipped)
    if checked is None or checked[2]:
        return None
    cells, e, _ = checked
    exact += e
    return cells, BuildStats(len(cells), exact, "qhull")


def delaunay(points, *, jitter_seed: int | None = None,
             insertion_seed: int = 0) -> DelaunayGraph:
    """Delaunay triangulation of distinct points in general position.

    For n <= k+1 affinely independent points the result is the complete
    graph (all Voronoi cells meet). insertion_seed orders the exact
    builder's insertions, so it matters only where Qhull's cells are not
    certified; there it can decide whether a near-degenerate set is refused,
    but never changes the cells returned. Degenerate inputs raise
    GeneralPositionError; opt-in jitter (seeded, 1e-9 x bbox diameter)
    resolves them at the cost of exactness of the coordinates.
    """
    if jitter_seed is not None:
        ps = jitter_points(points, jitter_seed)
    elif isinstance(points, PointSet):
        ps = points
    else:
        ps = PointSet(np.asarray(points, dtype=np.float64))
    if ps.n < 2:
        raise GeometryError("triangulation needs at least 2 points")

    k = ps.dim
    if ps.n <= k + 1:
        if not is_affinely_independent(ps.coords):
            raise GeneralPositionError(
                "affine_span", tuple(range(ps.n)),
                "small point set is affinely dependent; no unique dual graph")
        cells = np.arange(ps.n)[None]  # every pair is an edge
        simplices = (tuple(range(ps.n)),) if ps.n == k + 1 else ()
        stats = BuildStats(0, 0, "incremental")
    else:
        certified = _qhull_delaunay(ps)
        if certified is not None:
            cells, stats = certified
        else:
            builder = _HullBuilder(ps, insertion_seed)
            cells = np.array(sorted(builder.build()), dtype=np.int64)
            stats = BuildStats(builder.created, builder.fallbacks, "incremental")
        simplices = tuple(map(tuple, cells.tolist()))

    # the edges are the vertex pairs of the cells (rows ascend, so i < j),
    # deduplicated and ordered by the key i*n + j; every point has one, as
    # _check and _lower_simplices refuse cells that miss a point
    n = ps.n
    pairs = cells[:, list(combinations(range(cells.shape[1]), 2))]
    keys = np.unique(pairs[..., 0] * n + pairs[..., 1])
    i, j = keys // n, keys % n
    # neighbours of p: the i of rows (i, p), then the j of rows (p, j); both
    # runs ascend, so one stable sort by p keeps every neighbour list sorted
    src, dst = np.concatenate([j, i]), np.concatenate([i, j])

    return DelaunayGraph(
        n=n,
        dim=k,
        edges=np.column_stack([i, j]),
        lengths=np.linalg.norm(ps.coords[i] - ps.coords[j], axis=1),
        indptr=np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]),
        indices=dst[np.argsort(src, kind="stable")],
        simplices=simplices,
        insertion_seed=insertion_seed,
        jitter_seed=jitter_seed,
        stats=stats,
    )
