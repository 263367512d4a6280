import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delo
from delo import (
    DuplicatePointError,
    GeneralPositionError,
    GeometryError,
    PointSet,
    delaunay,
    geometry,
    in_sphere_many,
    jitter_points,
    triangulation,
)
from delo.oracle import bruteforce_simplices, delaunay_bruteforce
from delo.simulation import SimulationConfig, sample_shell
from delo.geometry import (
    Sign,
    _lifted_planes,
    _plane_insphere_signs,
    _plane_signs,
    _planes,
    in_sphere,
    is_affinely_independent,
    orient,
)
from delo.triangulation import (
    BuildStats,
    _HullBuilder,
    _check,
    _flip_to_delaunay,
    _sorted_rows,
)

from conftest import random_pointset


def _connected(g) -> bool:
    seen, stack = {0}, [0]
    while stack:
        for j, _ in g.incident_edges(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == g.n


def test_triangle_is_complete_with_expected_lengths():
    g = delaunay([(0, 0), (3, 0), (0, 4)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert sorted(g.lengths.tolist()) == [3.0, 4.0, 5.0]
    assert g.simplices == ((0, 1, 2),)


def test_four_point_example_matches_oracle():
    pts = [(0, 0), (1, 0), (0, 1), (0.9, 0.9)]
    g = delaunay(pts)
    assert g.edge_set() == delaunay_bruteforce(pts)
    assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
    assert (1, 2) not in g.edge_set()


def test_4d_minimal_sample_matches_oracle(rng):
    pts = rng.uniform(-1, 1, (6, 4))
    g = delaunay(pts)
    assert g.edge_set() == delaunay_bruteforce(pts)


def test_incident_edges_triangle():
    g = delaunay([(0, 0), (3, 0), (0, 4)])
    assert g.incident_edges(0) == [(1, 3.0), (2, 4.0)]


def test_graph_arrays_are_read_only_and_edge_set_has_python_ints():
    g = delaunay(random_pointset(5, 30, 2))
    for arr in (g.edges, g.lengths, g.cells):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    edges = g.edge_set()
    assert all(type(i) is int and type(j) is int for i, j in edges)
    # plain ints serialise (the benchmark hands edge sets to json.dumps)
    assert json.loads(json.dumps(sorted(edges))) == g.edges.tolist()


def test_graph_array_orders():
    ps = random_pointset(6, 40, 3)
    g = delaunay(ps)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(g.lengths), 2)
    assert (g.edges[:, 0] < g.edges[:, 1]).all()
    keys = g.edges[:, 0] * g.n + g.edges[:, 1]
    assert (np.diff(keys) > 0).all()  # lexicographic, no repeats
    assert sum(len(g.incident_edges(i)) for i in range(g.n)) == 2 * len(g.edges)
    for i in range(g.n):
        nbrs = [j for j, _ in g.incident_edges(i)]
        assert (np.diff(nbrs) > 0).all()
        for j, length in g.incident_edges(i):
            assert length == pytest.approx(np.linalg.norm(ps.coords[i] - ps.coords[j]), rel=1e-15)


def test_incident_edges_two_points():
    g = delaunay([(0.0,), (7.0,)])
    assert g.incident_edges(0) == [(1, 7.0)]
    assert g.incident_edges(1) == [(0, 7.0)]


def test_incident_edges_index_error():
    g = delaunay([(0, 0), (3, 0), (0, 4)])
    with pytest.raises(IndexError):
        g.incident_edges(3)


def test_incident_edges_match_oracle_random(rng):
    pts = rng.uniform(-1, 1, (10, 2))
    g = delaunay(pts)
    assert g.edge_set() == delaunay_bruteforce(pts)


def test_max_edge_length():
    # the longest edge, as the consistency experiment reads it
    assert float(delaunay([(0, 0), (3, 0), (0, 4)]).lengths.max()) == 5.0
    assert float(delaunay([(0.0,), (7.0,)]).lengths.max()) == 7.0


def test_max_edge_shrinks_with_sample_size():
    # qualitative form of the vanishing longest edge over a disk
    meds = {}
    for n in (50, 500):
        lams = []
        for rep in range(20):
            rng = np.random.default_rng(1000 + rep)
            pts = rng.normal(size=(n, 2))
            pts = pts / np.linalg.norm(pts, axis=1)[:, None] * np.sqrt(rng.uniform(0, 1, n))[:, None]
            lams.append(float(delaunay(pts).lengths.max()))
        meds[n] = float(np.median(lams))
    assert meds[500] < meds[50]


def test_small_sets_complete_graph():
    assert delaunay([(0, 0, 0), (1, 2, 2)]).edges.tolist() == [[0, 1]]
    g = delaunay([(0, 0, 0), (1, 0, 0), (0, 1, 0)])  # n = 3 < k+1 = 4
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.simplices == () and g.cells.shape == (0, 4)
    g2 = delaunay([(0, 0), (1, 0), (0, 1)])  # n = k+1
    assert g2.simplices == ((0, 1, 2),)


def test_simplices_built_on_first_read_from_cells():
    g = delaunay(random_pointset(7, 40, 3))
    assert "simplices" not in vars(g)  # scoring never pays for the tuples
    simplices = g.simplices
    assert simplices is g.simplices
    assert simplices == tuple(tuple(row) for row in g.cells.tolist())
    assert all(type(v) is int for s in simplices for v in s)
    assert all(list(s) == sorted(s) for s in simplices)


def test_small_affinely_dependent_set_refused():
    with pytest.raises(GeneralPositionError) as exc:
        delaunay([(0, 0), (1, 1), (2, 2)])
    assert exc.value.kind == "affine_span"


def test_collinear_set_refused_with_every_point():
    # more than k+1 points on a line: Qhull declines, and the builder refuses
    with pytest.raises(GeneralPositionError) as exc:
        delaunay([(0.0, 0), (1, 1), (2, 2), (3, 3)])
    assert (exc.value.kind, exc.value.subset) == ("affine_span", (0, 1, 2, 3))


def test_cocircular_refused_with_subset():
    with pytest.raises(GeneralPositionError) as exc:
        delaunay([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert exc.value.kind == "cospherical"
    assert exc.value.subset == (0, 1, 2, 3)


def test_jitter_mode_resolves_cocircularity():
    g = delaunay(jitter_points([(0, 0), (1, 0), (0, 1), (1, 1)], 11))
    assert len(g.edges) == 5
    assert _connected(g)


def test_needs_two_points():
    with pytest.raises(GeometryError):
        delaunay([(0, 0)])


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePointError):
        delaunay([(0, 0), (1, 1), (0, 0)])


def test_collinear_subset_is_handled():
    # a collinear triple inside a spanning set is legal input
    g = delaunay([(0, 0), (1, 1), (2, 2), (3, 0.0)])
    assert _connected(g)
    assert g.edge_set() == delaunay_bruteforce([(0, 0), (1, 1), (2, 2), (3, 0.0)])


@pytest.mark.parametrize("k,n,seed", [(1, 12, 0), (2, 25, 1), (3, 25, 2), (4, 20, 3)])
def test_structural_invariants_random(k, n, seed):
    g = delaunay(random_pointset(seed, n, k))
    adjacency = [[j for j, _ in g.incident_edges(i)] for i in range(n)]
    # symmetry and no self-loops
    for i, nbrs in enumerate(adjacency):
        assert i not in nbrs
        for j in nbrs:
            assert i in adjacency[j]
    assert _connected(g)
    # nearest neighbor is adjacent
    coords = random_pointset(seed, n, k).coords
    for i in range(n):
        d = np.linalg.norm(coords - coords[i], axis=1)
        d[i] = np.inf
        assert int(np.argmin(d)) in adjacency[i]
    # every edge appears in a simplex
    from_simplices = {tuple(sorted(p)) for s in g.simplices
                      for p in __import__("itertools").combinations(s, 2)}
    assert from_simplices == g.edge_set()


def test_insertion_order_does_not_change_output():
    ps = random_pointset(7, 40, 2)
    base = delaunay(ps)
    for seed in (1, 2, 3):
        g = delaunay(ps, insertion_seed=seed)
        assert g.edge_set() == base.edge_set()
        assert g.simplices == base.simplices
        assert np.array_equal(g.edges, base.edges)
        assert np.array_equal(g.lengths, base.lengths)


def test_euler_counts_2d(rng):
    for _ in range(5):
        n = int(rng.integers(10, 200))
        ps = PointSet(rng.uniform(-1, 1, (n, 2)))
        g = delaunay(ps)
        h = _hull_vertex_count(ps.coords)
        assert len(g.lengths) == 3 * n - 3 - h
        assert len(g.simplices) == 2 * n - 2 - h


def _hull_vertex_count(coords: np.ndarray) -> int:
    """Convex hull vertex count via a monotone chain with exact turns."""
    from delo import Sign, orient

    pts = sorted(map(tuple, coords))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient([out[-2], out[-1], p]) is not Sign.POSITIVE:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return len(lower) + len(upper) - 2


def test_1d_delaunay_is_path():
    xs = [3.0, 1.0, 2.0, 0.0, 10.0]
    g = delaunay([(x,) for x in xs])
    order = np.argsort(xs)
    expected = {tuple(sorted((int(order[i]), int(order[i + 1])))) for i in range(4)}
    assert g.edge_set() == expected


def test_1d_delaunay_equals_builder():
    # sorted order gives the builder's cells, rows in the same order, on
    # heavy-tailed values, some rounded to a 0.01 tick
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 9, 60, 300):
        for tick in (False, True):
            xs = rng.standard_t(3, n)
            if tick:
                xs = np.unique(np.round(xs, 2))
                xs = xs[rng.permutation(len(xs))]
            ps = PointSet(xs[:, None])
            g = delaunay(ps)
            want = [[0, 1]] if ps.n == 2 else sorted(map(list, _HullBuilder(ps, 0).build()))
            assert g.cells.tolist() == want
            assert g.stats == BuildStats(0, 0, "incremental")


def test_interior_point_fan():
    # one point inside a triangle: three cells fan around it
    g = delaunay([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert g.edge_set() == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert len(g.simplices) == 3


# --- Qhull proposal, exact certificate, builder fallback -------------------------

def _builder_simplices(ps):
    return tuple(sorted(_HullBuilder(ps, 0).build()))


@pytest.mark.parametrize("k, created", [
    (1, (97, 97)), (2, (303, 309)), (3, (521, 551)),
    (4, (1000, 906)), (5, (335, 393)), (6, (152, 147))])
def test_builder_hull_is_convex_with_neighbours_by_position(k, created):
    # every point lies on the non-negative side of every live facet, whose
    # nbr[j] is the live facet across the ridge without verts[j], pointing
    # back; the facet counts pin the hulls built on the way, which the
    # insertion order alone decides
    ps = random_pointset(100 * k, {1: 50, 2: 60, 3: 40, 4: 30, 5: 16, 6: 12}[k], k)
    for insertion_seed, want in zip((0, 1), created):
        builder = _HullBuilder(ps, insertion_seed)
        builder.build()
        assert builder.created == want
        facets = list(builder.facets)
        pts = ps.coords[np.array([f.verts for f in facets])]
        which = np.repeat(np.arange(len(facets)), ps.n)
        signs = _plane_signs(pts, _planes(pts), which, np.tile(ps.coords, (len(facets), 1)))
        assert (signs >= 0).all()
        for f in facets:
            assert f.alive
            for j, g in enumerate(f.nbr):
                (apex,) = set(g.verts) - set(f.verts)
                assert g.alive and set(f.verts) - {f.verts[j]} < set(g.verts)
                assert g.nbr[g.verts.index(apex)] is f


def _tick_grid(rng, shape):
    # prices on a 0.25 tick from an origin drawn in [10, 11), one row per point
    origin = np.round(rng.uniform(10.0, 11.0, len(shape)), 2)
    axes = [np.round(origin[d] + 0.25 * np.arange(m), 2) for d, m in enumerate(shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))


def _jittered_grid(shape, seed):
    rng = np.random.default_rng(seed)
    grid = _tick_grid(rng, shape)
    return jitter_points(grid[rng.permutation(len(grid))], seed)


def _certify(coords, cells):
    """The certified cells, sorted, if the certificate passes them with every
    in-sphere sign negative; None otherwise."""
    table = _check(np.asarray(coords, dtype=float), cells)
    return None if table is None or (table.signs >= 0).any() else table.cells.tolist()


def _certified_cells(pts):
    certified = _certify(pts, delaunay(pts).simplices)
    assert certified is not None
    return certified


def test_certificate_rejects_non_delaunay_diagonal():
    quad = np.array([(0, 0), (4, 0), (5, 3), (0, 1)], dtype=float)
    assert _certify(quad, [(0, 1, 2), (0, 2, 3)]) is None
    assert _certify(quad, [(0, 1, 3), (1, 2, 3)]) == [[0, 1, 3], [1, 2, 3]]


def test_certificate_rejects_dropped_and_duplicated_cells():
    pts = random_pointset(5, 15, 2).coords
    cells = _certified_cells(pts)
    for drop in range(len(cells)):
        assert _certify(pts, cells[:drop] + cells[drop + 1:]) is None
    assert _certify(pts, cells + cells[:1]) is None


def test_certificate_rejects_flat_cell_and_unused_point():
    line = np.array([(0, 0), (1, 0), (2, 0), (1, 1)], dtype=float)
    assert _certify(line, [(0, 1, 3), (1, 2, 3), (0, 1, 2)]) is None
    fan = np.array([(0, 0), (4, 0), (0, 4), (1, 1)], dtype=float)
    assert _certify(fan, [(0, 1, 2)]) is None


def test_certificate_rejects_branched_double_cover():
    # a pentagram fanned from the centre: every ridge, boundary turn and
    # in-sphere sign is fine, but the inner pentagon is covered twice
    a = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    pts = np.vstack([np.c_[np.cos(a), np.sin(a)], [(0.0, 0.0)]])
    assert _certify(pts, [(5, i, (i + 2) % 5) for i in range(5)]) is None


def test_certificate_rejects_separately_triangulated_clusters():
    pts = np.array([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)], dtype=float)
    assert _certify(pts, [(0, 1, 2), (3, 4, 5)]) is None


def _slit_cells(k):
    """Points and cells covering a convex hull once, but cut along a slit.

    The slit lies in x_k = 0: the cells above it and those below it meet it
    in different boundary ridges, so the boundary folds back on itself there
    and every convexity sign at the slit is zero. In 2-D the slit runs along
    the collinear vertices (0, 0), (1, 0), (2, 0), one edge above and two
    below; in 3-D it is a convex quadrilateral, cut by one diagonal above
    and by the other below. The annulus around the slit and the two apexes make the
    rest of a double pyramid.
    """
    if k == 2:
        plane = np.array([(-1,), (0,), (1,), (2,), (3,)], dtype=float)
        around = [(0, 1), (3, 4)]
        above, below = [(1, 3)], [(1, 2), (2, 3)]
    else:
        plane = np.array([(0, 0), (1, 0), (1.1, 1.2), (0, 1),
                          (-1, -1.3), (2.2, -1), (2.1, 2.3), (-1.2, 2)])
        around = [f for i in range(4) for f in ((4 + i, 4 + (i + 1) % 4, i),
                                                (4 + (i + 1) % 4, (i + 1) % 4, i))]
        above, below = [(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]
    m = len(plane)
    apexes = np.c_[np.tile(plane.mean(axis=0), (2, 1)), [1.0, -1.0]]
    pts = np.vstack([np.c_[plane, np.zeros(m)], apexes])
    cells = ([f + (m,) for f in around + above] + [f + (m + 1,) for f in around + below])
    return pts, cells


@pytest.mark.parametrize("k", [2, 3])
def test_certificate_rejects_boundary_folded_over_a_slit(monkeypatch, k):
    # every check up to (d) passes, (d) only on zero signs; the covered point
    # cannot lie strictly above and strictly below the slit's plane, so the
    # boundary sides of (e) refuse the cells before any in-sphere sign
    pts, cells = _slit_cells(k)
    signs, insphere = [], []

    def plane_orient(*args):
        signs.append(plane_orient_signs(*args))
        return signs[-1]

    plane_orient_signs = triangulation._plane_orient_signs
    monkeypatch.setattr(triangulation, "_plane_orient_signs", plane_orient)
    monkeypatch.setattr(triangulation, "_plane_insphere_signs",
                        lambda *args: insphere.append(args))
    assert _check(pts, cells) is None
    convex, _ = signs  # (d)'s signs, then (e)'s boundary sides
    assert (convex == 0).any()
    assert not insphere


def _interior_ridges(cells):
    seen = {}
    for c in cells:
        for j in range(len(c)):
            r = c[:j] + c[j + 1:]
            seen[r] = seen.get(r, 0) + 1
    return sorted(r for r, count in seen.items() if count == 2)


def _unflip(coords, cells, ridge):
    """The cells with the two at ridge replaced by the other triangulation of
    their k+2 vertices, or None if that needs more than these two cells."""
    c1, c2 = [c for c in cells if set(ridge) <= set(c)]
    verts = tuple(sorted(set(c1) | set(c2)))
    circuit = [tuple(v for v in verts if v != w) for w in verts]
    lam = [(-1) ** i * int(orient(coords[list(c)])) for i, c in enumerate(circuit)]
    (u,) = set(c1) - set(ridge)
    side = lam[verts.index(u)]
    old = {c for c, s in zip(circuit, lam) if s == side}
    if old != {c1, c2}:
        return None
    return sorted((set(cells) - old) | {c for c, s in zip(circuit, lam) if s != side})


def _flipped_table(coords, cells):
    """The certificate's table of cells that fail only the Delaunay check,
    flipped, after checking that it equals the table the full certificate
    makes of the flipped cells."""
    table = _check(coords, cells)
    assert table is not None and (table.signs > 0).any() and table.signs.all()
    assert _flip_to_delaunay(coords, table)
    fresh = _check(coords, table.cells)
    assert fresh is not None
    for field in ("cells", "opposite", "signs"):
        assert np.array_equal(getattr(table, field), getattr(fresh, field))
    return table


def _flips_restore(coords, cells, want):
    table = _flipped_table(coords, cells)
    assert (table.signs < 0).all()
    assert tuple(map(tuple, table.cells.tolist())) == want


def test_flips_repair_non_delaunay_diagonal():
    quad = np.array([(0, 0), (4, 0), (5, 3), (0, 1)], dtype=float)
    table = _check(quad, [(0, 1, 2), (0, 2, 3)])
    # face 1 of (0, 1, 2) and face 2 of (0, 2, 3) are the ridge (0, 2)
    assert table.opposite.tolist() == [-1, 5, -1, -1, -1, 1]
    assert table.signs.tolist() == [-1, 1, -1, -1, -1, 1]
    _flips_restore(quad, [(0, 1, 2), (0, 2, 3)], ((0, 1, 3), (1, 2, 3)))


def test_flips_sign_both_faces_of_a_new_ridge_zeros_included():
    # flipping (0, 4) makes (0, 2) a ridge between the cells of a cocircular
    # square: the flips leave its zero sign, on both faces, to the caller
    pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0.5)])
    table = _flipped_table(pts, [(0, 1, 4), (0, 2, 4), (0, 2, 3)])
    assert table.cells.tolist() == [[0, 1, 2], [0, 2, 3], [1, 2, 4]]
    assert table.signs.tolist() == [-1, 0, -1, -1, -1, 0, -1, -1, -1]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_flips_undo_wrong_flips(k):
    # a 2 -> k flip of a Delaunay ridge makes a triangulation that fails only
    # the Delaunay check; in 3-D and up the repair needs k -> 2 flips
    ps = random_pointset(40 + k, {2: 30, 3: 25}.get(k, 20), k)
    want = delaunay(ps).simplices
    undone = 0
    for ridge in _interior_ridges(want):
        cells = _unflip(ps.coords, want, ridge)
        if cells is None:
            continue
        assert _certify(ps.coords, cells) is None
        _flips_restore(ps.coords, cells, want)
        undone += 1
        if undone == 5:
            break
    assert undone == 5


@pytest.mark.parametrize("k", [3, 4])
def test_flips_wait_for_a_cell_another_flip_restores(monkeypatch, k):
    # two chained 2 -> k unflips, the second taking one of the first's new
    # cells: the first circuit's k -> 2 flip has to wait for that cell
    # until the second circuit is flipped back
    ps = random_pointset(40 + k, {3: 25, 4: 20}[k], k)
    want = delaunay(ps).simplices
    orient_signs, lifted_planes = triangulation._orient_signs, triangulation._lifted_planes
    circuits, flips = [], []
    waited = 0
    for r1 in _interior_ridges(want):
        first = _unflip(ps.coords, want, r1)
        if first is None:
            continue
        made = set(first) - set(want)
        for r2 in _interior_ridges(first):
            if sum(set(r2) <= set(c) for c in made) != 1:
                continue
            cells = _unflip(ps.coords, first, r2)
            if cells is None:
                continue
            table = _check(ps.coords, cells)
            circuits.clear()
            flips.clear()
            with monkeypatch.context() as m:
                m.setattr(triangulation, "_orient_signs",
                          lambda *args: circuits.append(1) or orient_signs(*args))
                m.setattr(triangulation, "_lifted_planes",
                          lambda *args: flips.append(1) or lifted_planes(*args))
                assert _flip_to_delaunay(ps.coords, table)
            # each circuit signed is flipped, unless it waits
            waited += len(circuits) > len(flips)
            _flips_restore(ps.coords, cells, want)
            if waited == 3:
                return
    pytest.fail(f"only {waited} chained unflips made a flip wait")


def _benchmark_grids(seed):
    # the jittered grids of the benchmark's grid_jitter workload
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 3])))
    grids = []
    for shape in ((50, 50), (8, 8, 8)):
        grid = _tick_grid(rng, shape)
        coords = grid[rng.permutation(len(grid))]
        grids.append(jitter_points(coords, int(rng.integers(2 ** 31))))
    return grids


@pytest.mark.parametrize("seed, which", [(4, 0), (6, 1)])
def test_qhull_path_on_grids_qhull_splits_badly(seed, which):
    # with scipy 1.17, Qhull's cells for these grids have 1-3 ridges that are
    # not Delaunay; the flips keep them off the slow builder
    ps = _benchmark_grids(seed)[which]
    g = delaunay(ps)
    assert g.stats.backend == "qhull"
    assert g.simplices == _builder_simplices(ps)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_qhull_path_matches_builder_random(k):
    for seed in range(3):
        n = {2: 60, 3: 40, 4: 30, 5: 16, 6: 12}[k] + seed
        ps = random_pointset(100 * k + seed, n, k)
        g = delaunay(ps)
        assert g.stats.backend == "qhull"
        assert g.stats.facets_created == len(g.simplices)
        assert g.simplices == _builder_simplices(ps)


@pytest.mark.parametrize("shape", [(50, 50), (8, 8, 8)])
def test_qhull_path_matches_builder_jittered_grid(shape):
    ps = _jittered_grid(shape, 3)
    g = delaunay(ps)
    assert g.stats.backend == "qhull"
    assert g.simplices == _builder_simplices(ps)


def test_qhull_path_on_shell_replicate():
    cfg = SimulationConfig(dim=4, n_inliers=299, replicates=1, seed=7)
    assert delaunay(sample_shell(cfg, 0)).stats.backend == "qhull"


def test_builder_fallback_when_qhull_declines(monkeypatch):
    ps = random_pointset(3, 30, 3)
    want = delaunay(ps)
    monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
    g = delaunay(ps)
    assert g.stats.backend == "incremental"
    assert g.simplices == want.simplices
    assert np.array_equal(g.edges, want.edges) and np.array_equal(g.lengths, want.lengths)


def test_builder_far_from_origin_needs_no_exact_signs(monkeypatch):
    # the in-sphere kernel translates to the query, so an offset of 1e4 leaves
    # the float filter nothing to defer to exact arithmetic
    ps = PointSet(random_pointset(11, 300, 2).coords + 1e4)
    want = delaunay(ps)
    assert want.stats.backend == "qhull"
    monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
    g = delaunay(ps)
    assert g.stats.backend == "incremental"
    assert g.simplices == want.simplices
    assert g.stats.exact_fallbacks == 0


def _counting_exact_signs(monkeypatch):
    """The number of queries each call of geometry._exact_plane_signs gets,
    recorded as the calls come."""
    counted = []
    exact_plane_signs = geometry._exact_plane_signs

    def counting(pts, which, queries):
        counted.append(len(queries))
        return exact_plane_signs(pts, which, queries)

    monkeypatch.setattr(geometry, "_exact_plane_signs", counting)
    return counted


@pytest.mark.parametrize("qhull", [True, False], ids=["qhull-refused", "qhull-patched-out"])
def test_exact_fallbacks_count_every_exact_sign_of_a_builder_call(monkeypatch, qhull):
    # the certificate of Qhull's cells, which fails here, the builder's side
    # signs, its lower-facet orientations and the certificate of its cells
    counted = _counting_exact_signs(monkeypatch)
    if not qhull:
        monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
    g = delaunay(_near_tick_grid((3, 3, 3), 1e-13, 0))
    assert g.stats.backend == "incremental"
    assert g.stats.exact_fallbacks == sum(counted) > 0


def test_exact_fallbacks_count_every_exact_sign_of_a_qhull_call(monkeypatch):
    counted = _counting_exact_signs(monkeypatch)
    g = delaunay(_jittered_grid((8, 8, 8), 3))
    assert g.stats.backend == "qhull"
    assert g.stats.exact_fallbacks == sum(counted) > 0


def test_overflowing_squared_distances_raise():
    # raised before either engine runs, as the in-sphere matrices hold |p - q|^2
    pts = np.random.default_rng(0).uniform(-1, 1, (8, 2)) * 1e160
    for subset in (pts, pts[:3]):
        with pytest.raises(OverflowError):
            delaunay(subset)


def _near_tick_grid(shape, jitter, seed):
    # off the tick by at most jitter: the certificate refuses Qhull's cells
    # for most of these, so the builder decides
    rng = np.random.default_rng(seed)
    grid = _tick_grid(rng, shape)
    return grid + rng.uniform(-jitter, jitter, grid.shape)


@pytest.mark.parametrize("shape, jitter, seed", [
    *(pytest.param((2, 2, 2, 2), 1e-14, seed, id=f"4d-{seed}") for seed in range(5)),
    *(pytest.param((3, 3, 3), 1e-13, seed, id=f"3d-{seed}") for seed in (0, 3, 5))])
def test_builder_triangulates_tick_grids(shape, jitter, seed):
    pts = _near_tick_grid(shape, jitter, seed)
    g = delaunay(pts)
    assert g.stats.backend == "incremental"
    assert g.cells.tolist() == sorted(map(list, bruteforce_simplices(pts)))


@pytest.mark.parametrize("shape", [(6, 6), (3, 3, 3), (2, 2, 2, 2)], ids=["2d", "3d", "4d"])
def test_builder_refuses_tick_grids_with_exact_cospherical_subset(shape):
    # jitter of at most 1e-15, under an ulp at 10, leaves many coordinates
    # on the tick, so some grid cells stay exactly cospherical
    pts = _near_tick_grid(shape, 1e-15, 6)
    with pytest.raises(GeneralPositionError) as exc:
        delaunay(pts)
    assert exc.value.kind == "cospherical"
    _assert_exactly_cospherical(pts, exc.value.subset)


def _assert_exactly_cospherical(pts, subset):
    # k+2 points on a sphere with no point strictly inside: proof that the
    # Delaunay triangulation is not unique
    k = pts.shape[1]
    sub = pts[list(subset)]
    assert len(sub) == k + 2
    j = next(j for j in range(k + 2) if orient(np.delete(sub, j, axis=0)) is not Sign.ZERO)
    simplex = np.delete(sub, j, axis=0)
    assert in_sphere(simplex, sub[j]) is Sign.ZERO
    assert (in_sphere_many(simplex, np.delete(pts, list(subset), axis=0)) <= 0).all()


def test_refused_subset_is_the_same_in_every_run(tmp_path):
    # the builder used to keep its facets in sets hashed by id(), so which
    # zero sign it met first, and the subset it named, changed between runs
    pts = _near_tick_grid((2, 2, 2, 2), 1e-15, 76)
    path = tmp_path / "grid.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
    runs = [subprocess.run([sys.executable, "-m", "delo.cli", "score", str(path)],
                           env=_subprocess_env(), capture_output=True, text=True,
                           timeout=120)
            for _ in range(5)]
    assert [r.returncode for r in runs] == [2] * 5
    assert len({r.stderr for r in runs}) == 1
    detail = json.loads(runs[0].stderr)["detail"]
    assert detail["kind"] == "cospherical"
    _assert_exactly_cospherical(pts, detail["subset"])


@pytest.mark.parametrize("shape", [(6, 6), (3, 3, 3), (2, 2, 2, 2)], ids=["2d", "3d", "4d"])
@pytest.mark.parametrize("jitter", [1e-9, 1e-11, 1e-13, 1e-15])
def test_certificate_insphere_signs_equal_in_sphere_on_tick_grids(shape, jitter):
    # near-cospherical and (at 1e-15) exactly cospherical cells: the sign
    # from a cell's lifted hyperplane equals in_sphere's at every interior
    # ridge of Qhull's proposal, both ways, zeros included
    qhull_delaunay, _ = triangulation._qhull()
    for seed in range(3):
        pts = _near_tick_grid(shape, jitter, seed)
        cells = np.sort(qhull_delaunay(pts).simplices, axis=1)
        h, sigma = _lifted_planes(pts[cells])
        assert sigma.tolist() == [int(orient(pts[c])) for c in cells]
        at = {}
        for i, c in enumerate(cells.tolist()):
            for j in range(len(c)):
                at.setdefault(tuple(c[:j] + c[j + 1:]), []).append((i, c[j]))
        pairs = [(i, w) for both in at.values() if len(both) == 2
                 for (i, _), (_, w) in (both, both[::-1]) if sigma[i]]
        which = np.array([i for i, _ in pairs])
        signs = _plane_insphere_signs(pts[cells], h, sigma, which,
                                      pts[[w for _, w in pairs]])
        assert signs.tolist() == [int(in_sphere(pts[cells[i]], pts[w])) for i, w in pairs]


def test_certificate_and_brute_force_need_no_lu_determinant(monkeypatch):
    # every sign, the builder's, the flips' and the predicates' included,
    # comes from the cofactor kernel and exact integers
    ps = random_pointset(12, 30, 3)
    cells = triangulation._qhull()[0](ps.coords).simplices

    def no_det(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", no_det)
    certified = _certify(ps.coords, cells)
    assert certified is not None
    assert bruteforce_simplices(ps)

    quad = np.array([(0, 0), (4, 0), (5, 3), (0, 1)], dtype=float)
    _flips_restore(quad, [(0, 1, 2), (0, 2, 3)], ((0, 1, 3), (1, 2, 3)))
    assert orient(quad[:3]) is Sign.POSITIVE
    assert in_sphere_many(quad[:3], quad[3:]).tolist() == [1]
    assert is_affinely_independent(quad[:3])
    assert not is_affinely_independent([(0, 0), (1, 1), (2, 2)])

    monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
    g = delaunay(ps)
    assert g.stats.backend == "incremental"
    assert g.cells.tolist() == certified


def _flat_hull_edge(n, seed):
    # uniform points in the unit square, and five on the hull edge y = -1 of
    # which three are not hull vertices
    pts = np.random.default_rng(seed).uniform(0, 1, (n, 2))
    return np.vstack([pts, [(x, -1.0) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]])


def _point_in_hull_face(n, seed):
    # uniform points in the unit cube under the hull face z = -1, a triangle
    # with a fourth point inside it
    pts = np.random.default_rng(seed).uniform(0, 1, (n, 3))
    return np.vstack([pts, [(0, 0, -1), (2, 0, -1), (0, 2, -1), (0.5, 0.5, -1)]])


def test_points_on_hull_edge_stay_on_qhull():
    # collinear hull points used to make a convexity sign zero, and the
    # builder took about 1 s here instead of Qhull's 0.03 s
    ps = PointSet(_flat_hull_edge(2000, 0))
    g = delaunay(ps)
    assert g.stats.backend == "qhull"
    assert g.simplices == _builder_simplices(ps)


@pytest.mark.parametrize("make, n", [(_flat_hull_edge, 30), (_point_in_hull_face, 30)],
                         ids=["2d-hull-edge", "3d-hull-face"])
def test_flat_hull_boundary_matches_builder_and_brute_force(monkeypatch, make, n):
    # with Qhull patched out, the certificate checks the builder's cells,
    # whose boundary has collinear or coplanar hull points
    graphs = {}
    for seed in range(3):
        pts = make(n, seed)
        g = graphs[seed] = delaunay(pts)
        assert g.stats.backend == "qhull"
        assert g.simplices == _builder_simplices(PointSet(pts))
        assert g.cells.tolist() == sorted(map(list, bruteforce_simplices(pts)))
    monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
    for seed in range(3):
        g = delaunay(make(n, seed))
        assert g.stats.backend == "incremental"
        assert g.simplices == graphs[seed].simplices


def test_subnormal_squared_distances_keep_the_triangulation():
    # squared distances near 1e-320 are subnormal: every in-sphere sign
    # falls to exact arithmetic, and the edges stay those of the unscaled set
    pts = np.random.default_rng(8).uniform(-1, 1, (12, 2))
    tiny = pts * 1e-160
    g = delaunay(tiny)
    assert g.stats.exact_fallbacks > 0
    assert g.edge_set() == delaunay(pts).edge_set() == delaunay_bruteforce(tiny)


@pytest.mark.parametrize("n", [2, 300, 2 ** 12, 2 ** 20, 2 ** 40],
                         ids=["1-word", "1-word-9-bits", "2-words", "3-words", "7-words"])
def test_packed_row_order_equals_lexsort(n):
    # rows of k + 1 = 7 columns, as cells at k = 6; the values 0 and n - 1
    # use every bit of a column, and repeats tie leading columns
    rng = np.random.default_rng(n % 997)
    values = np.unique([0, 1, n // 2, max(n - 2, 0), n - 1])
    rows = values[rng.integers(0, len(values), (400, 7))]
    order, same = _sorted_rows(rows, n)
    want = rows[np.lexsort(rows.T[::-1])]
    assert np.array_equal(rows[order], want)
    assert np.array_equal(same, (want[1:] == want[:-1]).all(axis=1))


def test_builder_fallback_when_qhull_raises(monkeypatch):
    class Failed(Exception):
        pass

    def qhull_delaunay(coords):
        raise Failed

    monkeypatch.setattr(triangulation, "_qhull", lambda: (qhull_delaunay, Failed))
    g = delaunay(random_pointset(4, 20, 2))
    assert g.stats.backend == "incremental"


def test_unique_triangulation_for_every_insertion_seed(monkeypatch):
    # the circle through the square's corners holds (0.5, 0.5): the Delaunay
    # triangulation is unique, whatever the builder meets on the way, from
    # Qhull's cells or from the builder's alone
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5), (3, 0.2), (-2, 0.7)]
    for backend in ("qhull", "incremental"):
        if backend == "incremental":
            monkeypatch.setattr(triangulation, "_qhull_delaunay", lambda ps: None)
        graphs = [delaunay(pts, insertion_seed=seed) for seed in range(20)]
        assert {g.stats.backend for g in graphs} == {backend}
        assert {g.simplices for g in graphs} == {
            ((0, 1, 4), (0, 2, 4), (0, 2, 6), (1, 3, 4), (1, 3, 5), (2, 3, 4))}
        for seed in range(20):
            with pytest.raises(GeneralPositionError) as exc:
                delaunay(pts[:4], insertion_seed=seed)
            assert (exc.value.kind, exc.value.subset) == ("cospherical", (0, 1, 2, 3))


def test_bad_insertion_seed_raises_whichever_engine_would_answer():
    # refused before either engine runs: Qhull's cells are certified on the
    # random set, the builder decides the near-tick grid
    for pts, backend in ((random_pointset(0, 20, 2), "qhull"),
                         (_near_tick_grid((3, 3, 3), 1e-13, 0), "incremental")):
        assert delaunay(pts).stats.backend == backend
        for seed in (-1, 1.5, "0"):
            with pytest.raises(ValueError, match="insertion_seed") as exc:
                delaunay(pts, insertion_seed=seed)
            assert not isinstance(exc.value, GeometryError)


def _subprocess_env():
    src = Path(delo.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_import_does_not_load_scipy():
    # scipy adds about half a second to start-up, and fractions is not needed
    # since every exact sign is computed on ints; the experiments and their
    # process pool load only for the commands that run them
    subprocess.run([sys.executable, "-c",
                    "import delo.cli, sys; "
                    "assert 'scipy' not in sys.modules; assert 'fractions' not in sys.modules; "
                    "assert 'delo.simulation' not in sys.modules; "
                    "assert 'multiprocessing' not in sys.modules"],
                   env=_subprocess_env(), check=True, timeout=120)
