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

Otherwise -- k = 1, Qhull failing, or any check failing or meeting a zero
sign -- the points are lifted to the paraboloid in R^(k+1), the incremental
beneath-beyond algorithm with conflict lists builds their convex hull, and
the downward-facing facets project back to the Delaunay cells. Every
visibility decision is the exact sign of an in-sphere determinant, from the
kernel the certificate uses (float filter with exact integer fallback), so
the output is the true triangulation whenever the input is in general
position; degeneracies encountered along the way are reported as errors
naming the offending subset.
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
    Sign,
    _insphere_det_signs,
    _orient_signs,
    affinely_independent_subset,
    in_sphere,
    is_affinely_independent,
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
    created and the in-sphere signs it resolved exactly, and for sets of at
    most k+1 points, which need no hull.
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
    cells is the (m, k+1) int array of Delaunay cells, vertices ascending (no
    rows when n < k+1); simplices is the same as a tuple of tuples, built on
    first read. Graphs compare by identity: their arrays have no single truth
    value.
    """

    n: int
    dim: int
    edges: np.ndarray
    lengths: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    cells: np.ndarray
    stats: BuildStats = BuildStats(0, 0, "incremental")

    def __post_init__(self):
        for arr in (self.edges, self.lengths, self.indptr, self.indices, self.cells):
            arr.setflags(write=False)

    @functools.cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.cells.tolist()))

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
    __slots__ = ("verts", "ref", "neighbors", "conflicts")

    def __init__(self, verts: tuple[int, ...], ref: int):
        self.verts = verts
        self.ref = ref  # the side of the facet that the hull lies on
        self.neighbors: dict[tuple[int, ...], _Facet] = {}
        self.conflicts: set[int] = set()


class _HullBuilder:
    """Incremental convex hull of the points lifted to the paraboloid in R^(k+1).

    The side of a facet's lifted hyperplane that a lifted point q lies on is
    the in-sphere determinant sign of the facet's k+1 points (in verts
    order) and q: the lifted orientation det([L_v - L_v0; ...; L_q - L_v0])
    times (-1)^(k+1). q sees the facet iff its side is -ref.
    """

    def __init__(self, ps: PointSet, insertion_seed: int):
        self.coords = ps.coords
        self.k = ps.dim
        self.n = ps.n
        self.facets: set[_Facet] = set()
        self.point_conflicts: dict[int, set[_Facet]] = {}
        self.fallbacks = 0
        self.created = 0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(insertion_seed)))
        self.order = [int(i) for i in rng.permutation(self.n)]

    def _sides(self, pts: np.ndarray, queries: list[int]) -> np.ndarray:
        signs, exact = _insphere_det_signs(pts, self.coords[queries])
        self.fallbacks += exact
        return signs

    def _zero_conflict(self, facet: _Facet, q: int):
        """A query exactly on a facet plane: cospherical unless the facet is
        a vertical wall (its projection is affinely dependent)."""
        if orient(self.coords[list(facet.verts)]) is not Sign.ZERO:
            subset = tuple(sorted(facet.verts + (q,)))
            raise GeneralPositionError(
                "cospherical", subset,
                f"points {subset} lie on a common sphere; jitter to proceed")

    def _assign(self, facets: list[_Facet], candidates: list[list[int]]):
        """Add each facet's candidate points that see it to its conflicts."""
        counts = [len(block) for block in candidates]
        if not sum(counts):
            return
        flat = [q for block in candidates for q in block]
        verts = np.array([f.verts for f in facets])
        signs = self._sides(np.repeat(self.coords[verts], counts, axis=0), flat)
        owner = np.repeat(np.arange(len(facets)), counts)
        for i, q, s in zip(owner.tolist(), flat, signs.tolist()):
            f = facets[i]
            if s == 0:
                self._zero_conflict(f, q)
            elif s == -f.ref:
                f.conflicts.add(q)
                self.point_conflicts[q].add(f)

    def _new_facet(self, verts: tuple[int, ...], ref: int) -> _Facet:
        self.created += 1
        return _Facet(verts, ref)

    def _init_simplex(self) -> list[int]:
        """k+1 affinely independent points in insertion order, then the first
        point off their circumsphere."""
        base = [self.order[i] for i in affinely_independent_subset(self.coords[self.order])]
        if len(base) < self.k + 1:
            raise GeneralPositionError(
                "affine_span", tuple(range(self.n)),
                "points do not span the ambient space")
        chosen = set(base)
        rest = [i for i in self.order if i not in chosen]
        off = np.flatnonzero(self._sides(self.coords[base], rest))
        if not len(off):
            subset = tuple(sorted(base + rest[:1]))
            raise GeneralPositionError(
                "cospherical", subset,
                f"points {subset} are cospherical; jitter to proceed")
        return base + [rest[off[0]]]

    def build(self) -> list[tuple[int, ...]]:
        simplex = self._init_simplex()

        # initial facets: all (k+1)-subsets of the initial simplex; the hull
        # lies on the side of the vertex each one omits
        init = [tuple(sorted(v for v in simplex if v != w)) for w in simplex]
        refs = self._sides(self.coords[np.array(init)], simplex)
        init_facets = [self._new_facet(verts, r) for verts, r in zip(init, refs.tolist())]
        for fa, fb in combinations(init_facets, 2):
            ridge = tuple(sorted(set(fa.verts) & set(fb.verts)))
            fa.neighbors[ridge] = fb
            fb.neighbors[ridge] = fa
        self.facets.update(init_facets)

        in_simplex = set(simplex)
        pending = [i for i in self.order if i not in in_simplex]
        self.point_conflicts = {q: set() for q in pending}
        self._assign(init_facets, [pending] * len(init_facets))

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
        half_ridges: dict[tuple[int, ...], _Facet] = {}
        for ridge, f_vis, g_inv in horizon:
            verts = tuple(sorted(ridge + (p,)))
            # nf's verts plus the apex of f_vis are f_vis's verts plus p,
            # reordered, and the apex lies on the hull's side of nf while p
            # lies on the far side of f_vis: the two in-sphere determinants
            # differ by the parity of the reordering (verts are sorted)
            (apex,) = set(f_vis.verts) - set(ridge)
            swaps = sum(v > apex for v in verts) + sum(v > p for v in f_vis.verts)
            nf = self._new_facet(verts, -f_vis.ref * (-1) ** swaps)
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
                    half_ridges[key] = nf
                else:
                    nf.neighbors[key] = other
                    other.neighbors[key] = nf
        if half_ridges:
            stray = tuple(sorted({v for key in half_ridges for v in key}))
            raise GeneralPositionError(
                "degenerate_flat", stray,
                f"hull boundary is not simplicial around points {stray}; jitter to proceed")

        self._assign(new_facets, candidates)

        for f in visible:
            for q in f.conflicts:
                if q in self.point_conflicts:
                    self.point_conflicts[q].discard(f)
            self.facets.discard(f)
        self.facets.update(new_facets)

    def _lower_simplices(self) -> list[tuple[int, ...]]:
        """Facets whose outward normal points downward project to Delaunay
        cells. The hull lies above them, and a point far above a facet lies
        on the side (-1)^(k+1) times its projected orientation."""
        facets = list(self.facets)
        signs, _ = _orient_signs(self.coords[np.array([f.verts for f in facets])])
        up = (-1) ** (self.k + 1)
        lower = [f.verts for f, s in zip(facets, signs.tolist()) if s == up * f.ref]
        covered = {v for verts in lower for v in verts}
        if len(covered) != self.n:
            missing = sorted(set(range(self.n)) - covered)
            raise RuntimeError(f"points {missing} missing from the lower hull")
        return lower


@functools.cache
def _qhull():
    """scipy's Qhull Delaunay class and its error type.

    Imported on first use: scipy adds about half a second to start-up.
    """
    from scipy.spatial import Delaunay, QhullError
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
    if ps.dim < 2:
        return None
    qhull_delaunay, qhull_error = _qhull()
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


def delaunay(points, *, insertion_seed: int = 0) -> DelaunayGraph:
    """Delaunay triangulation of distinct points in general position.

    For n <= k+1 affinely independent points the result is the complete
    graph (all Voronoi cells meet). insertion_seed orders the exact
    builder's insertions, so it matters only where Qhull's cells are not
    certified; there it can decide whether a near-degenerate set is refused,
    but never changes the cells returned. Degenerate inputs raise
    GeneralPositionError; geometry.jitter_points (seeded, 1e-9 x bbox
    diameter) resolves them at the cost of exactness of the coordinates.
    Coordinates whose squared distances overflow a float raise OverflowError.
    """
    ps = points if isinstance(points, PointSet) else PointSet(np.asarray(points, dtype=np.float64))
    if ps.n < 2:
        raise GeometryError("triangulation needs at least 2 points")
    k = ps.dim
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * k * np.abs(ps.coords).max() ** 2):
            # |p - q|^2, an entry of every in-sphere matrix, would overflow
            raise OverflowError("squared distances between the points overflow a float")

    if ps.n <= k + 1:
        if not is_affinely_independent(ps.coords):
            raise GeneralPositionError(
                "affine_span", tuple(range(ps.n)),
                "small point set is affinely dependent; no unique dual graph")
        cells = np.arange(ps.n)[None]  # every pair is an edge
        stats = BuildStats(0, 0, "incremental")
    else:
        certified = _qhull_delaunay(ps)
        if certified is not None:
            cells, stats = certified
        else:
            builder = _HullBuilder(ps, insertion_seed)
            cells = np.array(sorted(builder.build()), dtype=np.int64)
            stats = BuildStats(builder.created, builder.fallbacks, "incremental")

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
        cells=cells if ps.n > k else np.empty((0, k + 1), dtype=np.int64),
        stats=stats,
    )
