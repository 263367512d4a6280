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
    jitter_points,
    triangulation,
)
from delo.oracle import bruteforce_simplices, delaunay_bruteforce
from delo.simulation import SimulationConfig, sample_shell
from delo.geometry import Sign, in_sphere, orient
from delo.triangulation import _HullBuilder, _certify, _check, _flip_to_delaunay

from conftest import random_pointset


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
    for arr in (g.edges, g.lengths, g.indptr, g.indices, g.cells):
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
    assert g.indptr[0] == 0 and g.indptr[-1] == 2 * len(g.edges)
    for i in range(g.n):
        nbrs = g.indices[g.indptr[i]:g.indptr[i + 1]]
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
    assert delaunay([(0, 0), (3, 0), (0, 4)]).max_edge_length() == 5.0
    assert delaunay([(0.0,), (7.0,)]).max_edge_length() == 7.0


def test_max_edge_shrinks_with_sample_size():
    # qualitative form of the vanishing longest edge over a disk
    meds = {}
    for n in (50, 500):
        lams = []
        for rep in range(20):
            rng = np.random.default_rng(1000 + rep)
            pts = rng.normal(size=(n, 2))
            pts = pts / np.linalg.norm(pts, axis=1)[:, None] * np.sqrt(rng.uniform(0, 1, n))[:, None]
            lams.append(delaunay(pts).max_edge_length())
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


def test_cocircular_refused_with_subset():
    with pytest.raises(GeneralPositionError) as exc:
        delaunay([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert exc.value.kind == "cospherical"
    assert exc.value.subset == (0, 1, 2, 3)


def test_jitter_mode_resolves_cocircularity():
    g = delaunay(jitter_points([(0, 0), (1, 0), (0, 1), (1, 1)], 11))
    assert len(g.edges) == 5
    assert g.is_connected()


def test_needs_two_points():
    with pytest.raises(GeometryError):
        delaunay([(0, 0)])


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePointError):
        delaunay([(0, 0), (1, 1), (0, 0)])


def test_collinear_subset_is_handled():
    # a collinear triple inside a spanning set is legal input
    g = delaunay([(0, 0), (1, 1), (2, 2), (3, 0.0)])
    assert g.is_connected()
    assert g.edge_set() == delaunay_bruteforce([(0, 0), (1, 1), (2, 2), (3, 0.0)])


@pytest.mark.parametrize("k,n,seed", [(1, 12, 0), (2, 25, 1), (3, 25, 2), (4, 20, 3)])
def test_structural_invariants_random(k, n, seed):
    g = delaunay(random_pointset(seed, n, k))
    adjacency = np.split(g.indices, g.indptr[1:-1])
    # symmetry and no self-loops
    for i, nbrs in enumerate(adjacency):
        assert i not in nbrs
        for j in nbrs:
            assert i in adjacency[j]
    assert g.is_connected()
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


def test_interior_point_fan():
    # one point inside a triangle: three cells fan around it
    g = delaunay([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert g.edge_set() == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert len(g.simplices) == 3


# --- Qhull proposal, exact certificate, builder fallback -------------------------

def _builder_simplices(ps):
    return tuple(sorted(_HullBuilder(ps, 0).build()))


def _tick_grid(rng, shape):
    # prices on a 0.25 tick from an origin drawn in [10, 11), one row per point
    origin = np.round(rng.uniform(10.0, 11.0, len(shape)), 2)
    axes = [np.round(origin[d] + 0.25 * np.arange(m), 2) for d, m in enumerate(shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))


def _jittered_grid(shape, seed):
    rng = np.random.default_rng(seed)
    grid = _tick_grid(rng, shape)
    return jitter_points(grid[rng.permutation(len(grid))], seed)


def _certified_cells(pts):
    certified = _certify(np.asarray(pts, dtype=float), delaunay(pts).simplices)
    assert certified is not None
    return certified[0].tolist()


def test_certificate_rejects_non_delaunay_diagonal():
    quad = np.array([(0, 0), (4, 0), (5, 3), (0, 1)], dtype=float)
    assert _certify(quad, [(0, 1, 2), (0, 2, 3)]) is None
    assert _certify(quad, [(0, 1, 3), (1, 2, 3)])[0].tolist() == [[0, 1, 3], [1, 2, 3]]


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


def test_flips_repair_non_delaunay_diagonal():
    quad = np.array([(0, 0), (4, 0), (5, 3), (0, 1)], dtype=float)
    cells, _, failing = _check(quad, [(0, 1, 2), (0, 2, 3)])
    assert failing == [(0, 2)]
    flipped = _flip_to_delaunay(quad, cells, failing)
    assert _certify(quad, flipped)[0].tolist() == [[0, 1, 3], [1, 2, 3]]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_flips_undo_wrong_flips(k):
    # a 2 -> k flip of a Delaunay ridge makes a triangulation that fails only
    # the Delaunay check; in 3-D and up the repair needs k -> 2 flips
    ps = random_pointset(40 + k, {2: 30, 3: 25, 4: 20}[k], k)
    want = delaunay(ps).simplices
    undone = 0
    for ridge in _interior_ridges(want):
        cells = _unflip(ps.coords, want, ridge)
        if cells is None:
            continue
        assert _certify(ps.coords, cells) is None
        checked = _check(ps.coords, cells)
        assert checked is not None and checked[2]
        flipped = _flip_to_delaunay(ps.coords, checked[0], checked[2])
        assert tuple(map(tuple, _certify(ps.coords, flipped)[0].tolist())) == want
        undone += 1
        if undone == 5:
            break
    assert undone == 5


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
    k = len(shape)
    with pytest.raises(GeneralPositionError) as exc:
        delaunay(pts)
    assert exc.value.kind == "cospherical"
    sub = pts[list(exc.value.subset)]
    assert len(sub) == k + 2
    simplex = next(j for j in range(k + 2)
                   if orient(np.delete(sub, j, axis=0)) is not Sign.ZERO)
    assert in_sphere(np.delete(sub, simplex, axis=0), sub[simplex]) is Sign.ZERO


def test_builder_fallback_when_qhull_raises(monkeypatch):
    class Failed(Exception):
        pass

    def qhull_delaunay(coords):
        raise Failed

    monkeypatch.setattr(triangulation, "_qhull", lambda: (qhull_delaunay, Failed))
    g = delaunay(random_pointset(4, 20, 2))
    assert g.stats.backend == "incremental"


def test_unique_triangulation_for_every_insertion_seed():
    # the circle through the square's corners holds (0.5, 0.5): the Delaunay
    # triangulation is unique, whatever the builder would meet on the way
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5), (3, 0.2), (-2, 0.7)]
    results = {delaunay(pts, insertion_seed=seed).simplices for seed in range(20)}
    assert results == {((0, 1, 4), (0, 2, 4), (0, 2, 6), (1, 3, 4), (1, 3, 5), (2, 3, 4))}
    for seed in range(20):
        with pytest.raises(GeneralPositionError) as exc:
            delaunay(pts[:4], insertion_seed=seed)
        assert (exc.value.kind, exc.value.subset) == ("cospherical", (0, 1, 2, 3))


def test_import_does_not_load_scipy():
    src = Path(delo.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import delo.cli, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)
