from itertools import combinations

import numpy as np
import pytest

from delo import DegenerateSimplexError, GeometryError, delaunay, distance
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


def test_bruteforce_detects_cosphericality():
    from delo import GeneralPositionError

    with pytest.raises(GeneralPositionError):
        delaunay_bruteforce([(0, 0), (1, 0), (0, 1), (1, 1), (5, 5)])


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

