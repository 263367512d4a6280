from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delo.oracle
from delo import (
    DegenerateSimplexError,
    GeneralPositionError,
    GeometryError,
    Sign,
    delaunay,
    distance,
    in_sphere_many,
    orient,
)
from delo.oracle import (
    adjacent_witness,
    bisector_pythagoras_check,
    bruteforce_simplices,
    circumcenter,
    delaunay_bruteforce,
    _phase1_feasible,
)

from conftest import random_pointset

QUAD = [(0, 0), (1, 0), (0, 1), (0.9, 0.9)]


# --- brute force -------------------------------------------------------------

def test_bruteforce_triangle():
    assert delaunay_bruteforce([(0, 0), (3, 0), (0, 4)]) == {(0, 1), (0, 2), (1, 2)}


def test_bruteforce_quad_excludes_one_diagonal():
    edges = delaunay_bruteforce(QUAD)
    assert len(edges) == 5
    assert (1, 2) not in edges and (0, 3) in edges


def test_bruteforce_matches_hull_3d(rng):
    pts = rng.uniform(-1, 1, (12, 3))
    assert delaunay_bruteforce(pts) == delaunay(pts).edge_set()


def test_bruteforce_guards():
    with pytest.raises(GeometryError):
        delaunay_bruteforce(random_pointset(0, 41, 2))
    with pytest.raises(GeometryError):
        delaunay_bruteforce([(0, 0), (1, 0)])  # n < k+1


def test_bruteforce_refuses_overflowing_squared_distances():
    pts = np.random.default_rng(0).uniform(-1, 1, (8, 2)) * 1e160
    with pytest.raises(OverflowError):
        delaunay_bruteforce(pts)  # returned the complete graph before


def test_bruteforce_detects_cosphericality():
    with pytest.raises(GeneralPositionError) as exc:
        delaunay_bruteforce([(0, 0), (1, 0), (0, 1), (1, 1), (5, 5)])
    assert exc.value.kind == "cospherical"
    assert exc.value.subset == (0, 1, 2, 3)


CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


@pytest.mark.parametrize("pts,kind,subset", [
    # (0, 1, 2, 3) is the flat face x = 0; the first live subset meets corner 3
    (CUBE + [(0.5, 0.5, 0.4)], "cospherical", (0, 1, 2, 3, 4)),
    ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], "cospherical", (0, 1, 2, 3)),
    ([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], "affine_span", (0, 1, 2, 3, 4)),
    ([(0, 0), (1, 1), (2, 2)], "affine_span", (0, 1, 2)),  # n = k+1
], ids=["cube-corners", "circle-with-centre", "collinear", "collinear-n=k+1"])
def test_bruteforce_refusals_name_kind_and_subset(pts, kind, subset):
    with pytest.raises(GeneralPositionError) as exc:
        delaunay_bruteforce(pts)
    assert (exc.value.kind, exc.value.subset) == (kind, subset)
    with pytest.raises(GeneralPositionError) as ref:
        _reference_simplices(np.asarray(pts, dtype=float))
    assert (ref.value.kind, ref.value.subset) == (kind, subset)


def _reference_simplices(pts):
    """The definition, one subset at a time: every (k+1)-subset with nonzero
    orientation and no other point inside or on its circumsphere. The first
    subset, in lexicographic order, with a point on its circumsphere is
    refused; a set with no full-dimensional subset does not span."""
    n, k = pts.shape
    subsets = [s for s in combinations(range(n), k + 1)
               if orient(pts[list(s)]) is not Sign.ZERO]
    if not subsets:
        raise GeneralPositionError("affine_span", tuple(range(n)), "flat")
    accepted = []
    for s in subsets:
        others = [q for q in range(n) if q not in s]
        signs = in_sphere_many(pts[list(s)], pts[others]) if others else np.zeros(0)
        if (signs == 0).any():
            q = others[int(np.argmax(signs == 0))]
            raise GeneralPositionError("cospherical", tuple(sorted(s + (q,))), "on sphere")
        if not (signs > 0).any():
            accepted.append(s)
    return accepted


def _outcome(oracle, pts):
    try:
        return oracle(pts)
    except GeneralPositionError as err:
        return err.kind, err.subset


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_bruteforce_equals_per_subset_reference(k, seed):
    rng = np.random.default_rng(100 * k + seed)
    n = int(rng.integers(k + 1, 21 - 2 * k if k <= 4 else 13))
    pts = rng.uniform(-1, 1, (n, k))
    assert bruteforce_simplices(pts) == _reference_simplices(pts)


def test_bruteforce_near_cocircular_grid_takes_exact_path(monkeypatch):
    counted = []
    exact = delo.oracle._exact_insphere_signs

    def counting(simplices, queries):
        counted.append(len(queries))
        return exact(simplices, queries)

    monkeypatch.setattr(delo.oracle, "_exact_insphere_signs", counting)
    rng = np.random.default_rng(3)
    grid = np.array(list(product(range(4), repeat=2)), dtype=float)
    pts = grid + rng.uniform(-1e-12, 1e-12, grid.shape)
    assert bruteforce_simplices(pts) == _reference_simplices(pts)
    assert sum(counted) > 0  # signs inside the error bound were decided exactly


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([0.0, 1e-12, 1e-9]),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_bruteforce_matches_reference_on_near_cospherical_sets(k, jitter, extra, seed):
    # a small grid (all 16 or 8 points cospherical by fours or more), jittered
    # or not, plus a few random points
    rng = np.random.default_rng(seed)
    grid = np.array(list(product(range(4 if k == 2 else 2), repeat=k)), dtype=float)
    pts = np.vstack([grid + rng.uniform(-jitter, jitter, grid.shape),
                     rng.uniform(0, 3 if k == 2 else 1, (extra, k))])
    assert _outcome(bruteforce_simplices, pts) == _outcome(_reference_simplices, pts)


def test_bruteforce_simplices_partition_hull_area(rng):
    pts = rng.uniform(-1, 1, (15, 2))
    simplices = bruteforce_simplices(pts)
    total = sum(_tri_area(pts[list(s)]) for s in simplices)
    hull_area = _hull_area(pts)
    assert total == pytest.approx(hull_area, rel=1e-9)


def _tri_area(tri):
    (ax, ay), (bx, by), (cx, cy) = tri
    return abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0


def _hull_area(pts):
    from delo import Sign, orient

    ordered = sorted(map(tuple, pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient([out[-2], out[-1], p]) is not Sign.POSITIVE:
                out.pop()
            out.append(p)
        return out

    lower = chain(ordered)
    upper = chain(reversed(ordered))
    hull = lower[:-1] + upper[:-1]
    area = 0.0
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        area += ax * by - bx * ay
    return abs(area) / 2.0


# --- LP witness --------------------------------------------------------------

def test_witness_all_pairs_of_triangle_adjacent():
    pts = [(0, 0), (3, 0), (0, 4)]
    for i, j in combinations(range(3), 2):
        res = adjacent_witness(pts, i, j)
        assert res.adjacent and res.witness is not None


def test_witness_nearest_neighbor_pair(rng):
    pts = rng.uniform(-1, 1, (15, 3))
    d = np.linalg.norm(pts[0] - pts[1:], axis=1)
    j = int(np.argmin(d)) + 1
    assert adjacent_witness(pts, 0, j).adjacent


def test_witness_rejects_excluded_diagonal():
    assert not adjacent_witness(QUAD, 1, 2).adjacent
    assert adjacent_witness(QUAD, 0, 3).adjacent


def test_witness_guards():
    with pytest.raises(GeometryError):
        adjacent_witness(QUAD, 1, 1)
    with pytest.raises(IndexError):
        adjacent_witness(QUAD, 0, 9)
    with pytest.raises(GeometryError):
        adjacent_witness(random_pointset(0, 201, 2), 0, 1)


def test_witness_properties_on_random_set(rng):
    pts = rng.uniform(-1, 1, (12, 2))
    diam = max(distance(a, b) for a, b in combinations(pts, 2))
    edges = delaunay(pts).edge_set()
    for i, j in combinations(range(12), 2):
        res = adjacent_witness(pts, i, j)
        assert res.adjacent == ((i, j) in edges)
        if res.adjacent:
            p = res.witness
            di, dj = distance(p, pts[i]), distance(p, pts[j])
            assert abs(di - dj) <= 1e-9 * max(diam, di)
            others = np.linalg.norm(pts - p, axis=1)
            assert others.min() >= di - 1e-9 * max(diam, di)
            assert bisector_pythagoras_check(pts[i], pts[j], p)


def test_phase1_simplex_basic():
    # t <= 1 and t >= 0.5 feasible; t <= 1 and t >= 2 infeasible
    A = np.array([[1.0], [-1.0]])
    assert _phase1_feasible(A, np.array([1.0, -0.5])) is not None
    assert _phase1_feasible(A, np.array([1.0, -2.0])) is None
    # unbounded-but-feasible region
    assert _phase1_feasible(np.array([[1.0, 0.0]]), np.array([-3.0])) is not None
    # zero-variable systems degrade to sign checks on b
    assert _phase1_feasible(np.empty((2, 0)), np.array([1.0, 0.0])) is not None
    assert _phase1_feasible(np.empty((1, 0)), np.array([-1.0])) is None


def test_witness_1d_midpoint():
    pts = [(0.0,), (1.0,), (3.0,)]
    assert adjacent_witness(pts, 0, 1).adjacent
    assert adjacent_witness(pts, 1, 2).adjacent
    assert not adjacent_witness(pts, 0, 2).adjacent


# --- circumcenter ------------------------------------------------------------

def test_circumcenter_examples():
    assert circumcenter([(0, 0), (1, 0), (0, 1)]) == pytest.approx([0.5, 0.5])
    assert circumcenter([(0, 0), (3, 0), (0, 4)]) == pytest.approx([1.5, 2.0])
    tet = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    assert circumcenter(tet) == pytest.approx([0, 0, 0], abs=1e-12)


def test_circumcenter_equidistance(rng):
    pts = rng.uniform(-1, 1, (5, 4))
    c = circumcenter(pts)
    d = np.linalg.norm(pts - c, axis=1)
    assert d.max() - d.min() <= 1e-9 * d.max()


def test_circumcenter_degenerate():
    with pytest.raises(DegenerateSimplexError):
        circumcenter([(0, 0), (1, 1), (2, 2)])


# --- Pythagorean identity ------------------------------------------------------

def test_pythagoras_examples():
    assert bisector_pythagoras_check((0, 0), (2, 0), (1, 5))
    assert bisector_pythagoras_check((0, 0), (2, 0), (1, 0))


def test_pythagoras_random_4d(rng):
    x = rng.uniform(-1, 1, 4)
    y = rng.uniform(-1, 1, 4)
    for _ in range(20):
        q = rng.uniform(-2, 2, 4)
        u = (y - x) / np.linalg.norm(y - x)
        a = 0.5 * (x + y)
        p = q - ((q - a) @ u) * u  # project onto the bisector hyperplane
        assert bisector_pythagoras_check(x, y, p)


def test_pythagoras_precondition():
    with pytest.raises(GeometryError):
        bisector_pythagoras_check((0, 0), (2, 0), (5, 5))


# --- triple agreement (small smoke; the acceptance suite scales this up) ------

@pytest.mark.parametrize("k,seed", [(2, 10), (3, 11), (4, 12), (5, 20), (5, 21), (5, 22),
                                    (6, 23), (6, 24), (6, 25)])
def test_triple_agreement_smoke(k, seed):
    rng = np.random.default_rng(seed)
    # brute force grows like n^(k+2): keep n <= 12 in dimensions 5 and 6
    n = int(rng.integers(k + 2, 20 if k <= 4 else 13))
    pts = rng.uniform(-1, 1, (n, k))
    hull = delaunay(pts).edge_set()
    assert hull == delaunay_bruteforce(pts)
    witness = {(i, j) for i, j in combinations(range(n), 2)
               if adjacent_witness(pts, i, j).adjacent}
    assert witness == hull

