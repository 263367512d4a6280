"""Delaunay triangulation: Qhull proposes the cells, an exact certificate
accepts them, and an exact lifted-hull builder is the fallback.

For 2 <= k <= 6 and more than k+1 points, scipy's Qhull (Barber, Dobkin &
Huhdanpaa 1996) proposes the cells in floating point, and they are used
only after a batched certificate in the style of Mehlhorn et al. (1999) has
checked them with exact signs: every point is a vertex, the cells form a
triangulation of the convex hull, and at no interior ridge does the vertex
across it lie strictly inside a cell's circumsphere. Where Qhull's cells
pass every check but a few ridges are not locally Delaunay (Qhull splits
facets it merged for precision in any order), bistellar flips repair them
on the certificate's ridge table, signing only the ridges they create.

Otherwise -- Qhull failing, or a check or a flip failing -- the points are
lifted to the paraboloid in R^(k+1), the incremental
beneath-beyond algorithm with conflict lists builds their convex hull, and
the downward-facing facets project back to the cells. Every visibility
decision is the exact side of a lifted point relative to a facet's lifted
hyperplane, one hyperplane per facet from the kernel the certificate, the
flips and the predicates share (geometry._planes: cofactors, a float
filter, and the same expansion on exact integers). A point on a facet's
hyperplane does not see it, so the builder always finishes, and its cells
go through the same certificate.

Certified cells with no positive in-sphere sign are weakly Delaunay: no
point lies strictly inside any cell's circumsphere. If every sign is
negative they are the unique Delaunay triangulation. A zero sign at a ridge
puts the cell and the vertex across it, k+2 points, on a sphere with no
point strictly inside; that subset is the one degeneracy refusal, besides
points that do not span R^k or all lie on one sphere. In 1-D no three
distinct values are cospherical, and each value joins the next in sorted
order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from . import geometry
from .geometry import (
    GeneralPositionError,
    GeometryError,
    PointSet,
    _lifted_planes,
    _orient_signs,
    _plane_insphere_signs,
    _plane_orient_signs,
    _plane_signs,
    _planes,
    _stream,
    affinely_independent_subset,
    is_affinely_independent,
)


@dataclass(frozen=True)
class BuildStats:
    """How a triangulation was obtained.

    backend is "qhull" when Qhull's cells passed the certificate, flipped
    where a ridge was not Delaunay, and facets_created counts the certified
    cells. It is "incremental" for the exact builder, where facets_created
    counts the hull facets created, and for 1-D sets and sets of at most
    k+1 points, which need no hull (0 facets). exact_fallbacks counts every
    sign of the call that the float filter left to exact arithmetic,
    whichever backend answered: a failed Qhull certificate, the builder and
    the certificate of its cells included.
    """

    facets_created: int
    exact_fallbacks: int
    backend: str


@dataclass(frozen=True, eq=False)
class DelaunayGraph:
    """Undirected Delaunay graph as read-only flat arrays.

    edges is an (E, 2) int64 array of vertex pairs i < j in lexicographic
    order, and lengths[e] is the Euclidean length of edges[e]. cells is the
    (m, k+1) int array of Delaunay cells, vertices ascending (no rows when
    n < k+1); simplices is the same as a tuple of tuples, built on first
    read. Graphs compare by identity: their arrays have no single truth
    value.
    """

    n: int
    dim: int
    edges: np.ndarray
    lengths: np.ndarray
    cells: np.ndarray
    stats: BuildStats = BuildStats(0, 0, "incremental")

    def __post_init__(self):
        for arr in (self.edges, self.lengths, self.cells):
            arr.setflags(write=False)

    @functools.cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.cells.tolist()))

    def incident_edges(self, i: int) -> list[tuple[int, float]]:
        """E(x_i): (neighbor index, edge length) pairs, sorted by neighbor."""
        if not 0 <= i < self.n:
            raise IndexError(f"point index {i} out of range [0, {self.n})")
        # the rows (a, i), a < i, come before the rows (i, b), i < b, so the
        # other ends of the rows holding i ascend
        rows = np.flatnonzero((self.edges == i).any(axis=1))
        ends = self.edges[rows]
        return list(zip(ends[ends != i].tolist(), self.lengths[rows].tolist()))

    def edge_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.edges.tolist()))


class _Facet:
    """A hull facet of the lifted points: k+1 point indices, ordered so that
    the hull lies on the positive side of their lifted hyperplane, and
    nbr[j], the facet across the ridge without verts[j] (_Ridges' face rule).
    conflicts holds the points not yet inserted that see it."""

    __slots__ = ("verts", "nbr", "conflicts", "alive")

    def __init__(self, verts: tuple[int, ...]):
        self.verts = verts
        self.nbr: list[_Facet] = [None] * len(verts)
        self.conflicts: set[int] = set()
        self.alive = True


class _HullBuilder:
    """Incremental convex hull of the points lifted to the paraboloid in R^(k+1).

    The side of a facet's lifted hyperplane that a lifted point q lies on is
    the lifted orientation of the facet's k+1 points (in verts order) and q,
    det([L_v - L_v0; ...; L_q - L_v0]): one dot product with the facet's
    hyperplane, computed once per facet (geometry._planes). q sees the facet
    iff its side is negative. Each point keeps the facets it saw when they
    were made; those removed since are marked dead and skipped.

    Every lifted point lies strictly outside the hull of the others, so
    insertion never fails: the result is the placing triangulation of the
    lifted points in insertion order, whose lower facets are weakly Delaunay.
    """

    def __init__(self, ps: PointSet, insertion_seed: int):
        self.coords = ps.coords
        self.k = ps.dim
        self.n = ps.n
        # facets hash by identity, so every container whose order can decide
        # a refusal is an insertion-ordered dict or a list, never a set
        self.facets: dict[_Facet, None] = {}
        self.point_conflicts: dict[int, list[_Facet]] = {}
        self.created = 0
        self.order = _stream(insertion_seed).permutation(self.n).tolist()

    def _sides(self, verts: np.ndarray, which: np.ndarray, queries: list[int]) -> np.ndarray:
        """The side of the facet verts[which[i]] that point queries[i] lies on."""
        pts = self.coords[verts]
        return _plane_signs(pts, _planes(pts), which, self.coords[queries])

    def _assign(self, facets: list[_Facet], candidates: list):
        """Add new facets to the hull, and each one's candidate points that
        see it to its conflicts. A point on a facet's hyperplane does not see
        it: on a vertical wall, or on a lifted sphere through the facet's
        points, cospherical with them."""
        self.created += len(facets)
        self.facets.update(dict.fromkeys(facets))
        counts = [len(block) for block in candidates]
        if not sum(counts):
            return
        flat = [q for block in candidates for q in block]
        owner = np.repeat(np.arange(len(facets)), counts)
        sees = self._sides(np.array([f.verts for f in facets]), owner, flat) < 0
        for i, q in compress(zip(owner.tolist(), flat), sees.tolist()):
            facets[i].conflicts.add(q)
            self.point_conflicts[q].append(facets[i])

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
        off = np.flatnonzero(self._sides(np.array([base]), np.zeros(len(rest), dtype=np.int64),
                                         rest))
        if not len(off):
            subset = tuple(sorted(base + rest[:1]))
            raise GeneralPositionError(
                "cospherical", subset,
                f"points {subset} are cospherical; jitter to proceed")
        return base + [rest[off[0]]]

    def build(self) -> list[tuple[int, ...]]:
        """The lower facets' vertices, each tuple sorted: the cells."""
        simplex = self._init_simplex()

        # initial facets: the simplex without each of its points w, which lies
        # on the hull's side; swapping two vertices turns a negative side
        # positive. The facet across the ridge without v omits v.
        init = [[v for v in simplex if v != w] for w in simplex]
        sides = self._sides(np.array(init), np.arange(len(init)), simplex)
        for verts, side in zip(init, sides.tolist()):
            if side < 0:
                verts[0], verts[1] = verts[1], verts[0]
        omitting = {w: _Facet(tuple(verts)) for w, verts in zip(simplex, init)}
        for f in omitting.values():
            f.nbr = [omitting[v] for v in f.verts]

        chosen = set(simplex)
        pending = [i for i in self.order if i not in chosen]
        self.point_conflicts = {q: [] for q in pending}
        self._assign(list(omitting.values()), [pending] * len(omitting))

        for p in pending:
            self._insert(p)

        # the hull lies above a lower facet, and a point far above a facet
        # lies on the side of its projected orientation
        facets = list(self.facets)
        signs = _orient_signs(self.coords[np.array([f.verts for f in facets])])
        return [tuple(sorted(f.verts)) for f, s in zip(facets, signs.tolist()) if s > 0]

    def _insert(self, p: int):
        # lifted p lies strictly outside the hull of the others (the paraboloid
        # is strictly convex), so it sees a facet, and the facets it sees form
        # a ball whose boundary ridges pair up below
        visible = [f for f in self.point_conflicts.pop(p) if f.alive]
        for f in visible:
            f.alive = False
            del self.facets[f]

        new_facets: list[_Facet] = []
        candidates: list[set[int]] = []
        half_ridges: dict[tuple[int, ...], tuple[_Facet, int]] = {}
        for f in visible:
            for j, g in enumerate(f.nbr):
                if not g.alive:
                    continue
                # p replaces verts[j]: exchanging the two flips the lifted
                # orientation, and p lies on f's negative side, so verts[j]
                # lies on nf's positive side, the hull's
                nf = _Facet(f.verts[:j] + (p,) + f.verts[j + 1:])
                nf.nbr[j] = g
                g.nbr[g.nbr.index(f)] = nf
                new_facets.append(nf)
                cands = f.conflicts | g.conflicts
                cands.discard(p)
                candidates.append(cands)
                # the ridges of nf through p pair up among the new facets
                for i in range(len(nf.verts)):
                    if i == j:
                        continue
                    key = tuple(sorted(nf.verts[:i] + nf.verts[i + 1:]))
                    other = half_ridges.pop(key, None)
                    if other is None:
                        half_ridges[key] = (nf, i)
                    else:
                        nf.nbr[i] = other[0]
                        other[0].nbr[other[1]] = nf

        self._assign(new_facets, candidates)


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


def _sorted_rows(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An order of rows of ints in [0, n) that sorts them lexicographically,
    and whether each sorted row equals the next.

    Each run of floor(63 / b) columns, b = (n - 1).bit_length(), is packed
    into one int64 word, first column highest, so that the words compare as
    the rows do; every benchmark input needs one word per row. Further words
    are folded in by rank: (rank of the key so far) * len(rows) + (rank of
    the word), so one argsort of one key orders the rows.
    """
    bits = max(1, (n - 1).bit_length())
    per = 63 // bits
    words = [functools.reduce(lambda w, col: (w << bits) | col, rows[:, c:c + per].T)
             for c in range(0, rows.shape[1], per)]
    key = words[0]
    for w in words[1:]:
        key = (np.unique(key, return_inverse=True)[1] * len(rows)
               + np.unique(w, return_inverse=True)[1])
    order = np.argsort(key)
    ranked = key[order]
    return order, ranked[1:] == ranked[:-1]


@dataclass
class _Ridges:
    """The ridge table of cells that passed _check. Face f = c*(k+1) + j of
    cells[c] omits its vertex j; opposite[f] is the face across it (-1 on
    the hull boundary), and signs[f] the exact in-sphere sign (1 inside, 0
    on, -1 outside) of the vertex across f against cells[c]'s circumsphere,
    -1 on the boundary.
    """

    cells: np.ndarray
    opposite: np.ndarray
    signs: np.ndarray


def _check(coords: np.ndarray, cells) -> _Ridges | None:
    """Check exactly that cells triangulate the convex hull of coords.

    cells is an (m, k+1) vertex-index array from an untrusted source, for
    2 <= k. Returns the ridge table, its cells' rows sorted and in
    lexicographic order, or None if a check fails or meets a zero sign where
    it needs a strict one. With every sign exact, the checks are (after
    Mehlhorn et al. 1999, "Checking geometric programs or verification of
    geometric structures"):

    (a) every point is a vertex and every cell has a nonzero orientation;
    (b) every ridge lies in at most two cells, and two cells sharing a ridge
        lie on opposite sides of it;
    (c) the boundary ridges (those in one cell) form a closed surface B:
        each of their (k-2)-faces lies in exactly two of them;
    (d) B is weakly locally convex: at each such face, the vertex of either
        ridge that the other lacks lies on the other's inner side (that of
        its cell) or on its hyperplane, as points on the hull boundary that
        are not hull vertices make it;
    (e) a point p lies strictly inside one cell, in no other closed cell,
        and strictly on the inner side of every boundary ridge.

    Then the cells triangulate the convex hull. Let c(x) count the cells
    holding x. By (b) it does not change across an interior ridge. A ray
    from p crosses each boundary ridge at most once, from its inner side to
    its outer, leaving that ridge's cell: along a ray avoiding the
    (k-2)-faces, c only falls, from 1 at p (e) to 0 far away, so the ray
    meets B exactly once. The cells thus cover the region K that B bounds,
    star-shaped about p, exactly once, and nothing outside it. A generic
    2-plane through p cuts B in a closed polygon that every ray from p in it
    meets once and that never turns outward (d); where the sign in (d) is
    zero the two edges run straight on, since a fold would put p strictly
    on both sides of one hyperplane. Such a polygon is convex, so it lies on
    the inner side of each edge line; hence K lies on the inner side of
    every boundary ridge, is their intersection and is convex, and by (a)
    it is the convex hull of the points. If moreover every sign is negative,
    every interior ridge is strictly locally Delaunay, which makes the
    lifted cells a strictly convex lower hull: the unique Delaunay
    triangulation. If no sign is positive, the lifted cells are a convex
    lower hull, on or below which no lifted point lies: no point is strictly
    inside any cell's circumsphere.

    Each cell's orientation and in-sphere signs come from one lifted
    hyperplane (geometry._lifted_planes); each interior ridge costs one dot
    product.
    """
    n, k = coords.shape
    cells = np.sort(np.asarray(cells, dtype=np.int64), axis=1)
    if (cells.shape[1] != k + 1 or cells.min(initial=0) < 0 or cells.max(initial=0) >= n
            or not np.bincount(cells.ravel(), minlength=n).all()):
        return None
    cells = cells[_sorted_rows(cells, n)[0]]
    pts = coords[cells]
    h, sigma = _lifted_planes(pts)
    if not sigma.all():
        return None

    # ridge j of a cell omits its vertex j (the apex); the cell lies on the
    # side of the ridge where orient(apex, ridge) = sigma * (-1)^j
    m = len(cells)
    ridges, apex = _faces(cells)
    side = np.repeat(sigma, k + 1) * np.tile((-1) ** np.arange(k + 1), m)
    order, same = _sorted_rows(ridges, n)
    if (same[1:] & same[:-1]).any():
        return None  # a ridge in three or more cells
    a, b = order[:-1][same], order[1:][same]
    if (side[a] != -side[b]).any():
        return None
    single = ~(np.r_[same, False] | np.r_[False, same])
    bnd = order[single]

    # closed boundary: every (k-2)-face of a boundary ridge is in exactly two
    # of them; weakly locally convex: each lies on the inner side of the
    # other or on its hyperplane. One hyperplane per boundary ridge serves
    # these signs and the covered point's.
    walls = coords[ridges[bnd]]
    planes = _planes(walls)
    faces, dropped = _faces(ridges[bnd])
    order, same = _sorted_rows(faces, n)
    if len(order) % 2 or not same[0::2].all() or same[1::2].any():
        return None
    x = np.concatenate([order[0::2], order[1::2]]) // k  # face i is of wall i // k
    y = np.concatenate([order[1::2], order[0::2]])
    convex = _plane_orient_signs(walls, planes, x, coords[dropped[y]])
    if ((convex != side[bnd[x]]) & (convex != 0)).any():
        return None

    # one point covered exactly once: strictly inside the cell with the
    # largest |h_k| (the fattest against its lifted rows), in no other
    # closed cell, and strictly inside every boundary ridge
    c0 = int(np.abs(h[:, k]).argmax())
    p = pts[c0].mean(axis=0)
    lo, hi = (functools.reduce(f, pts.swapaxes(0, 1)) for f in (np.minimum, np.maximum))
    near = ((lo <= p) & (p <= hi)).all(axis=1)
    near[c0] = True
    cand = np.nonzero(near)[0]
    swapped = np.repeat(pts[cand], k + 1, axis=0)
    swapped[np.arange(len(swapped)), np.tile(np.arange(k + 1), len(cand))] = p
    loc = _orient_signs(swapped)
    inside = loc.reshape(len(cand), k + 1) * sigma[cand][:, None]
    mine = cand == c0
    if not (inside[mine] > 0).all() or (inside[~mine] >= 0).all(axis=1).any():
        return None
    seen = _plane_orient_signs(walls, planes, np.arange(len(bnd)),
                               np.broadcast_to(p, (len(bnd), k)))
    if (seen != side[bnd]).any():
        return None

    # b's apex against a's circumsphere: the sign of the lifted orientation
    # of the ridge and both apexes, so a's apex against b's is the same
    inside = _plane_insphere_signs(pts, h, sigma, a // (k + 1), coords[apex[b]])
    opposite, signs = np.full((2, m * (k + 1)), -1)
    opposite[a], opposite[b] = b, a
    signs[a] = signs[b] = inside
    return _Ridges(cells, opposite, signs)


def _flip_to_delaunay(coords: np.ndarray, table: _Ridges) -> bool:
    """Lawson flips on a ridge table from _check until no sign is positive.

    At a face of cell c with a positive sign, c and the vertex v across it
    make k+2 points with one affine dependence. The cells omitting a vertex
    whose coefficient has v's sign triangulate their hull, and so do the
    cells omitting the others; a flip swaps the first for the second. The
    first are c and, for each other w of v's sign, the cell across c's face
    omitting w if it omits w; while one is missing, the flip waits. The new
    cell omitting w meets, at its face omitting x, the new cell omitting x,
    or else what lay across the old cell omitting x at its face omitting w.
    Returns False on a zero coefficient or when no waiting face can be
    flipped, else True with the table edited in place, its cells sorted.

    The flipped table is still certified. Both triangulations of a circuit
    cover its hull once and have the same boundary faces, so the cells still
    triangulate the convex hull, and only ridges of new cells change.
    Lifted, the new cells are the lower hull of the circuit (lifted v lies
    strictly below c's lifted hyperplane), and every point on the paraboloid
    is a vertex of it; no coefficient is zero, so no new cell is flat. So
    what (a)-(e) establish still holds, and only the new ridges need signs.
    Each flip lowers the lifted surface, so the loop ends.
    """
    n, k = coords.shape
    d = k + 1
    # face f omits the vertex cells.flat[f]; a cell flipped away becomes -1s
    cells, opposite, signs = table.cells.copy(), table.opposite.copy(), table.signs.copy()

    def across(c, w):
        return int(opposite[c * d + cells[c].tolist().index(w)])

    todo = np.flatnonzero((signs > 0) & (opposite > np.arange(len(signs)))).tolist()
    waiting, progressed = [], False
    while todo or waiting:
        if not todo:
            if not progressed:
                return False
            todo, waiting, progressed = waiting, [], False
        f = todo.pop()
        c = f // d
        if cells[c, 0] < 0 or signs[f] <= 0:
            continue  # flipped away, or no longer failing
        v = int(cells.flat[opposite[f]])
        verts = sorted(cells[c].tolist() + [v])
        circuit = [verts[:i] + verts[i + 1:] for i in range(k + 2)]
        lam = (_orient_signs(coords[np.array(circuit)]) * (-1) ** np.arange(k + 2)).tolist()
        if 0 in lam:
            return False
        side = lam[verts.index(v)]
        old = {w: across(c, w) for w, s in zip(verts, lam) if s == side and w != v}
        if any(g < 0 or cells.flat[g] != v for g in old.values()):
            waiting.append(f)
            continue
        old = {w: g // d for w, g in old.items()} | {v: c}
        first = len(cells)
        new = {w: first + i for i, w in enumerate(w for w, s in zip(verts, lam) if s != side)}
        made = np.array([circuit[verts.index(w)] for w in new])
        links = [new[x] * d + circuit[verts.index(x)].index(w) if x in new
                 else across(old[x], w) for w in new for x in circuit[verts.index(w)]]
        cells = np.concatenate([cells, made])
        cells[list(old.values())] = -1
        opposite = np.concatenate([opposite, links])
        signs = np.concatenate([signs, np.full(len(links), -1)])
        # one face per interior ridge of the new cells
        faces = np.arange(first * d, len(opposite))
        other = opposite[faces]
        faces = faces[(other > faces) | ((0 <= other) & (other < first * d))]
        h, sigma = _lifted_planes(coords[made])
        inside = _plane_insphere_signs(coords[made], h, sigma, faces // d - first,
                                       coords[cells.flat[opposite[faces]]])
        opposite[opposite[faces]] = faces
        signs[faces] = signs[opposite[faces]] = inside
        todo += faces[inside > 0].tolist()
        progressed = True

    live = np.flatnonzero(cells[:, 0] >= 0)
    live = live[_sorted_rows(cells[live], n)[0]]
    faces = (live[:, None] * d + np.arange(d)).ravel()
    renum = np.full(len(opposite) + 1, -1)  # its last entry maps -1 to -1
    renum[faces] = np.arange(len(faces))
    table.cells, table.opposite, table.signs = cells[live], renum[opposite[faces]], signs[faces]
    return True


def _qhull_delaunay(ps: PointSet) -> _Ridges | None:
    """The ridge table of Qhull's cells once certified and flipped until no
    sign is positive; None where the exact builder must decide."""
    qhull_delaunay, qhull_error = _qhull()
    try:
        # translation leaves the triangulation unchanged but not Qhull's
        # rounding: on jittered grids far from the origin, raw coordinates
        # gave cells the certificate refused, centred ones did not
        proposed = qhull_delaunay(ps.coords - ps.coords.mean(axis=0)).simplices
    except qhull_error:
        return None
    table = _check(ps.coords, proposed)
    # Qhull merges facets of nearly cospherical points and splits them into
    # cells in any order, so a few ridges may not be Delaunay
    if table is None or ((table.signs > 0).any() and not _flip_to_delaunay(ps.coords, table)):
        return None
    return table


def delaunay(points, *, insertion_seed: int = 0) -> DelaunayGraph:
    """Delaunay triangulation of distinct points in general position.

    For n <= k+1 affinely independent points the result is the complete
    graph (all Voronoi cells meet). insertion_seed orders the exact
    builder's insertions, which run only where Qhull's cells are not
    certified; it never changes the cells returned, nor whether a set is
    refused or the kind of the refusal, but it can change the subset named.
    Degenerate inputs raise GeneralPositionError: k+2 points on a sphere
    with no point strictly inside, so the triangulation is not unique;
    geometry.jitter_points (seeded, 1e-9 x bbox diameter) resolves them at
    the cost of exactness of the coordinates. Coordinates whose squared
    distances overflow a float raise OverflowError.
    """
    # checked before either engine runs, so the seed never decides a refusal
    if not isinstance(insertion_seed, (int, np.integer)) or insertion_seed < 0:
        raise ValueError(f"insertion_seed must be a non-negative int, got {insertion_seed!r}")
    ps = points if isinstance(points, PointSet) else PointSet(np.asarray(points, dtype=np.float64))
    if ps.n < 2:
        raise GeometryError("triangulation needs at least 2 points")
    n, k = ps.n, ps.dim
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * k * np.abs(ps.coords).max() ** 2):
            # |p - q|^2, an entry of every in-sphere matrix, would overflow
            raise OverflowError("squared distances between the points overflow a float")

    exact = geometry._exact_count
    facets, backend = 0, "incremental"
    if n <= k + 1:
        if not is_affinely_independent(ps.coords):
            raise GeneralPositionError(
                "affine_span", tuple(range(n)),
                "small point set is affinely dependent; no unique dual graph")
        cells = np.arange(n)[None]  # every pair is an edge
    elif k == 1:
        # distinct values on a line, never three on a sphere: each cell joins
        # a value to the next in sorted order, rows ordered as _check's
        order = np.argsort(ps.coords[:, 0])
        cells = np.sort(np.column_stack([order[:-1], order[1:]]), axis=1)
        cells = cells[_sorted_rows(cells, n)[0]]
    else:
        table = _qhull_delaunay(ps)
        if table is not None:
            facets, backend = len(table.cells), "qhull"
        else:
            builder = _HullBuilder(ps, insertion_seed)
            table = _check(ps.coords, builder.build())
            if table is None or (table.signs > 0).any():
                raise RuntimeError("the exact builder's cells failed the certificate")
            facets = builder.created
        # certified with no positive sign, the cells are weakly Delaunay: no
        # point lies strictly inside a circumsphere. A zero sign puts the
        # vertex across a face on its cell's: k+2 points on an empty sphere.
        zero = np.flatnonzero(table.signs == 0)
        if len(zero):
            f = int(zero[0])
            subset = tuple(sorted(table.cells[f // (k + 1)].tolist()
                                  + [int(table.cells.flat[table.opposite[f]])]))
            raise GeneralPositionError(
                "cospherical", subset,
                f"points {subset} lie on a common sphere; jitter to proceed")
        cells = table.cells

    # the edges are the vertex pairs of the cells (rows ascend, so i < j),
    # deduplicated and ordered by the key i*n + j; every point has one, as
    # _check refuses cells that miss a point and in 1-D every value joins
    # its neighbours
    pairs = cells[:, list(combinations(range(cells.shape[1]), 2))]
    keys = np.sort(pairs[..., 0] * n + pairs[..., 1], axis=None)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    i, j = keys // n, keys % n

    return DelaunayGraph(
        n=n,
        dim=k,
        edges=np.column_stack([i, j]),
        lengths=np.linalg.norm(ps.coords[i] - ps.coords[j], axis=1),
        cells=cells if n > k else np.empty((0, k + 1), dtype=np.int64),
        stats=BuildStats(facets, geometry._exact_count - exact, backend),
    )
