import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delo.oracle
from delo import (
    DuplicatePointError,
    GeneralPositionError,
    GeometryError,
    Sign,
    delaunay,
    in_sphere_many,
    orient,
)
from delo.geometry import _lifted_planes
from delo.oracle import (
    FEASIBLE,
    INFEASIBLE,
    NO_CONVERGENCE,
    UNBOUNDED,
    _base_planes,
    _lifted_rows,
    _phase1,
    adjacent_witness,
    bruteforce_simplices,
    delaunay_bruteforce,
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
    # (0, 1, 2, 3) is the flat face x = 0, and the cube's circumsphere holds
    # point 8 strictly inside: the first empty sphere is that of (0, 1, 2, 8),
    # with corner 3 on it
    (CUBE + [(0.5, 0.5, 0.4)], "cospherical", (0, 1, 2, 3, 8)),
    ([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], "affine_span", (0, 1, 2, 3, 4)),
    ([(0, 0), (1, 1), (2, 2)], "affine_span", (0, 1, 2)),  # n = k+1
], ids=["cube-corners", "collinear", "collinear-n=k+1"])
def test_bruteforce_refusals_name_kind_and_subset(pts, kind, subset):
    with pytest.raises(GeneralPositionError) as exc:
        delaunay_bruteforce(pts)
    assert (exc.value.kind, exc.value.subset) == (kind, subset)
    with pytest.raises(GeneralPositionError) as ref:
        _reference_simplices(np.asarray(pts, dtype=float))
    assert (ref.value.kind, ref.value.subset) == (kind, subset)


CIRCLE_WITH_CENTRE = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]


def test_bruteforce_accepts_cospherical_points_around_a_point_inside():
    # four points on the unit circle, every circle through three of them
    # holding (0, 0) strictly inside: the triangulation is unique, the fan
    assert bruteforce_simplices(CIRCLE_WITH_CENTRE) == [(0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)]
    assert bruteforce_simplices(CIRCLE_WITH_CENTRE) == _reference_simplices(
        np.asarray(CIRCLE_WITH_CENTRE, dtype=float))
    assert delaunay(CIRCLE_WITH_CENTRE).simplices == tuple(
        bruteforce_simplices(CIRCLE_WITH_CENTRE))


def _reference_simplices(pts):
    """The definition, one subset at a time: every (k+1)-subset with nonzero
    orientation and no other point inside or on its circumsphere. The first
    subset, in lexicographic order, with a point on its circumsphere and
    none strictly inside is refused, naming its first point on the sphere:
    k+2 points on an empty sphere. A set with no full-dimensional subset
    does not span."""
    n, k = pts.shape
    subsets = [s for s in combinations(range(n), k + 1)
               if orient(pts[list(s)]) is not Sign.ZERO]
    if not subsets:
        raise GeneralPositionError("affine_span", tuple(range(n)), "flat")
    accepted = []
    for s in subsets:
        others = [q for q in range(n) if q not in s]
        signs = in_sphere_many(pts[list(s)], pts[others]) if others else np.zeros(0)
        if (signs > 0).any():
            continue
        if (signs == 0).any():
            q = others[int(np.argmax(signs == 0))]
            raise GeneralPositionError("cospherical", tuple(sorted(s + (q,))), "on sphere")
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
    exact = delo.oracle._exact_plane_signs

    def counting(pts, which, queries):
        counted.append(len(queries))
        return exact(pts, which, queries)

    monkeypatch.setattr(delo.oracle, "_exact_plane_signs", counting)
    rng = np.random.default_rng(3)
    grid = np.array(list(product(range(4), repeat=2)), dtype=float)
    pts = grid + rng.uniform(-1e-12, 1e-12, grid.shape)
    assert bruteforce_simplices(pts) == _reference_simplices(pts)
    assert sum(counted) > 0  # signs inside the error bound were decided exactly


def _assert_shared_planes_are_per_subset_planes(pts):
    # every base vertex's subsets, in combinations order, whole and in runs
    # of three; each prefix-built h is bit for bit the per-subset kernel's
    n, k = pts.shape
    lifted = _lifted_rows(pts)
    for a in range(n - k):
        want = [(a, *rest) for rest in combinations(range(a + 1, n), k)]
        for block in (len(want), 3):
            runs = list(_base_planes(lifted, a, k, block))
            assert [len(sub) for sub, _ in runs] == [
                min(block, len(want) - lo) for lo in range(0, len(want), block)]
            sub = np.concatenate([sub for sub, _ in runs])
            h = np.concatenate([h for _, h in runs])
            assert list(map(tuple, sub.tolist())) == want
            assert h.tobytes() == _lifted_planes(pts[sub])[0].tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_shared_minors_equal_per_subset_planes_bit_for_bit(k):
    rng = np.random.default_rng(700 + k)
    for n in (k + 1, k + 2, 16 if k <= 3 else 12):
        _assert_shared_planes_are_per_subset_planes(rng.uniform(-1, 1, (n, k)))


@pytest.mark.parametrize("jitter", [0.0, 1e-12])
def test_shared_minors_equal_per_subset_planes_on_a_grid(jitter):
    rng = np.random.default_rng(7)
    grid = np.array(list(product(range(4), repeat=2)), dtype=float)
    _assert_shared_planes_are_per_subset_planes(grid + rng.uniform(-jitter, jitter, grid.shape))


def _runs_of_a_few_subsets(monkeypatch, entries):
    """Brute force with runs of max(1, entries // n) subsets. Returns, per
    base vertex, its runs' sizes, recorded as brute force goes."""
    runs = []
    base_planes = delo.oracle._base_planes

    def recording(lifted, a, k, block):
        assert block == max(1, entries // len(lifted))
        runs.append([])
        for sub, h in base_planes(lifted, a, k, block):
            runs[-1].append(len(sub))
            yield sub, h

    monkeypatch.setattr(delo.oracle, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(delo.oracle, "_base_planes", recording)
    return runs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_bruteforce_in_runs_of_a_few_subsets_equals_reference(k, monkeypatch):
    runs = _runs_of_a_few_subsets(monkeypatch, 30)
    rng = np.random.default_rng(800 + k)
    for _ in range(2):
        n = int(rng.integers(k + 3, 21 - 2 * k if k <= 4 else 13))
        pts = rng.uniform(-1, 1, (n, k))
        assert bruteforce_simplices(pts) == _reference_simplices(pts)
    assert max(map(len, runs)) > 1  # a base vertex took several runs


@pytest.mark.parametrize("entries", [1, 30])
@pytest.mark.parametrize("pts,subset", [
    (CUBE + [(0.5, 0.5, 0.4)], (0, 1, 2, 3, 8)),
    ([(0, 0), (1, 0), (0, 1), (1, 1), (5, 5)], (0, 1, 2, 3)),
], ids=["cube-corners", "square-and-far-point"])
def test_bruteforce_in_runs_of_a_few_subsets_names_the_same_subset(pts, subset, entries,
                                                                    monkeypatch):
    # with one subset per run, the cube's refusal comes in a later run than
    # the subsets before it whose spheres hold point 8
    _runs_of_a_few_subsets(monkeypatch, entries)
    with pytest.raises(GeneralPositionError) as exc:
        bruteforce_simplices(pts)
    assert (exc.value.kind, exc.value.subset) == ("cospherical", subset)


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
    diam = max(math.dist(a, b) for a, b in combinations(pts, 2))
    edges = delaunay(pts).edge_set()
    for i, j in combinations(range(12), 2):
        res = adjacent_witness(pts, i, j)
        assert res.adjacent == ((i, j) in edges)
        if res.adjacent:
            p = res.witness
            di, dj = math.dist(p, pts[i]), math.dist(p, pts[j])
            assert abs(di - dj) <= 1e-9 * max(diam, di)
            others = np.linalg.norm(pts - p, axis=1)
            assert others.min() >= di - 1e-9 * max(diam, di)


def test_phase1_simplex_basic():
    # t <= 1 and t >= 0.5 feasible; t <= 1 and t >= 2 infeasible
    A = np.array([[1.0], [-1.0]])
    outcome, t = _phase1(np.stack([A, A]), np.array([[1.0, -0.5], [1.0, -2.0]]))
    assert outcome.tolist() == [FEASIBLE, INFEASIBLE]
    assert 0.5 <= t[0, 0] <= 1.0
    assert _reference_phase1(A, np.array([1.0, -0.5])) is not None
    assert _reference_phase1(A, np.array([1.0, -2.0])) is None
    # unbounded-but-feasible region
    outcome, t = _phase1(np.array([[[1.0, 0.0]]]), np.array([[-3.0]]))
    assert outcome.tolist() == [FEASIBLE] and t[0, 0] <= -3.0
    # zero-variable systems degrade to sign checks on b
    outcome, _ = _phase1(np.empty((2, 2, 0)), np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert outcome.tolist() == [FEASIBLE, INFEASIBLE]


def test_phase1_failures_stay_with_their_system():
    # t >= 1/6e-10 is feasible, but no pivot entry is beyond the tolerance,
    # so the reference stops as unbounded; the system batched with it does not
    A = np.array([[[-6e-10], [-6e-10]], [[1.0], [-1.0]]])
    b = np.array([[-1.0, -1.0], [1.0, -0.5]])
    with pytest.raises(RuntimeError, match="unbounded"):
        _reference_phase1(A[0], b[0])
    assert _phase1(A, b)[0].tolist() == [UNBOUNDED, FEASIBLE]
    # a system that needs a pivot does not finish in none; one that needs none does
    outcome, _ = _phase1(A[[1, 1]], np.array([[1.0, -0.5], [1.0, 0.5]]), max_iter=1)
    assert outcome.tolist() == [NO_CONVERGENCE, FEASIBLE]


def test_witness_raises_for_a_failed_lp(monkeypatch):
    def failing(A, b):
        return np.full(len(A), UNBOUNDED), np.zeros(A.shape[::2])

    monkeypatch.setattr(delo.oracle, "_phase1", failing)
    pts = random_pointset(7, 9, 2).coords
    for _ in range(2):  # a failure is not remembered as an answer
        with pytest.raises(RuntimeError, match="unbounded"):
            adjacent_witness(pts, 0, 1)


def test_witness_1d_midpoint():
    pts = [(0.0,), (1.0,), (3.0,)]
    assert adjacent_witness(pts, 0, 1).adjacent
    assert adjacent_witness(pts, 1, 2).adjacent
    assert not adjacent_witness(pts, 0, 2).adjacent


def _reference_phase1(A: np.ndarray, b: np.ndarray, tol: float = 1e-9,
                      max_iter: int = 20_000):
    """Find t with A t <= b (t free) by a phase-1 simplex under Bland's rule
    on the full dense tableau, t split as t+ - t-; None if infeasible. The
    per-pair solver the batched one replaced, kept as its reference."""
    m, v = A.shape
    if m == 0:
        return np.zeros(v)
    flip = np.where(b < 0, -1.0, 1.0)
    A2 = A * flip[:, None]
    rhs = b * flip
    neg = b < 0
    n_art = int(neg.sum())
    if n_art == 0:
        return np.zeros(v)
    ncols = 2 * v + m + n_art
    T = np.zeros((m, ncols))
    T[:, :v] = A2
    T[:, v:2 * v] = -A2
    T[np.arange(m), 2 * v + np.arange(m)] = flip
    basis = np.empty(m, dtype=int)
    ai = 0
    for r in range(m):
        if neg[r]:
            c = 2 * v + m + ai
            T[r, c] = 1.0
            basis[r] = c
            ai += 1
        else:
            basis[r] = 2 * v + r
    cbar = np.zeros(ncols)
    cbar[2 * v + m:] = 1.0
    cbar -= T[neg].sum(axis=0)
    obj = float(rhs[neg].sum())
    for _ in range(max_iter):
        eligible = np.flatnonzero(cbar < -tol)
        if not len(eligible):
            break
        entering = int(eligible[0])
        col = T[:, entering]
        ratios = np.full(m, np.inf)
        pos = col > tol
        ratios[pos] = rhs[pos] / col[pos]
        best = float(ratios.min())
        if not np.isfinite(best):
            raise RuntimeError("phase-1 objective unbounded; should not happen")
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        leave = int(min(ties, key=lambda r: basis[r]))
        piv = T[leave, entering]
        T[leave] /= piv
        rhs[leave] /= piv
        coef = T[:, entering].copy()
        coef[leave] = 0.0
        T -= np.outer(coef, T[leave])
        rhs -= coef * rhs[leave]
        delta = cbar[entering]
        cbar -= delta * T[leave]
        obj += delta * rhs[leave]
        basis[leave] = entering
    else:
        raise RuntimeError("phase-1 simplex did not converge")
    if obj > tol:
        return None
    x = np.zeros(ncols)
    x[basis] = rhs
    return x[:v] - x[v:2 * v]


def _reference_adjacent(pts: np.ndarray, i: int, j: int) -> bool:
    """The per-pair LP on the bisector, its basis from an SVD."""
    mid = 0.5 * (pts[i] + pts[j])
    shifted = pts - mid
    shifted = shifted / np.abs(shifted).max()
    full, _, _ = np.linalg.svd((shifted[i] - shifted[j])[:, None])
    others = [z for z in range(len(pts)) if z not in (i, j)]
    A = 2.0 * (shifted[others] - shifted[i]) @ full[:, 1:]
    b = np.einsum("ij,ij->i", shifted[others], shifted[others]) - shifted[i] @ shifted[i]
    return _reference_phase1(A, b) is not None


def _assert_witness(pts, i, j, p):
    """p is on the bisector of i and j and no sample point is closer, within
    the witness tolerance."""
    diam = max(math.dist(a, b) for a, b in combinations(pts, 2))
    di, dj = math.dist(p, pts[i]), math.dist(p, pts[j])
    assert abs(di - dj) <= 1e-9 * max(diam, di)
    assert np.linalg.norm(pts - p, axis=1).min() >= di - 1e-9 * max(diam, di)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_equals_reference_and_bruteforce(k, seed):
    rng = np.random.default_rng(1000 * k + seed)
    n = int(rng.integers(k + 2, 20 if k <= 4 else 13))
    pts = rng.uniform(-1, 1, (n, k))
    witness = set()
    for i, j in combinations(range(n), 2):
        res = adjacent_witness(pts, i, j)
        assert res.adjacent == _reference_adjacent(pts, i, j)
        assert res.adjacent == adjacent_witness(pts, j, i).adjacent
        if res.adjacent:
            _assert_witness(pts, i, j, res.witness)
            witness.add((i, j))
    assert witness == delaunay_bruteforce(pts)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("jitter", [0.0, 1e-12])
@pytest.mark.parametrize("seed", range(5))
def test_witness_equals_reference_on_near_cospherical_grids(k, jitter, seed):
    # the grids of the brute-force test above. Weak adjacency within the
    # tolerance is not brute force's strict answer here, so only the
    # reference is compared
    rng = np.random.default_rng(seed)
    grid = np.array(list(product(range(4 if k == 2 else 2), repeat=k)), dtype=float)
    pts = np.vstack([grid + rng.uniform(-jitter, jitter, grid.shape),
                     rng.uniform(0, 3 if k == 2 else 1, (int(rng.integers(0, 4)), k))])
    for i, j in combinations(range(len(pts)), 2):
        res = adjacent_witness(pts, i, j)
        assert res.adjacent == _reference_adjacent(pts, i, j)
        if res.adjacent:
            _assert_witness(pts, i, j, res.witness)


def test_witness_follows_in_place_changes():
    pts = np.array(QUAD, dtype=float)
    assert not adjacent_witness(pts, 1, 2).adjacent
    pts[3] = (5.0, 5.0)  # the circle through 0, 1 and 2 is now empty
    assert adjacent_witness(pts, 1, 2).adjacent
    pts[3] = (0.9, 0.9)
    assert not adjacent_witness(pts, 1, 2).adjacent


def test_witness_refuses_invalid_sets_on_every_call():
    adjacent_witness(QUAD, 0, 1)
    for _ in range(2):
        with pytest.raises(DuplicatePointError):
            adjacent_witness(QUAD + [QUAD[0]], 0, 1)
        with pytest.raises(GeometryError, match="non-finite"):
            adjacent_witness(QUAD[:3] + [(np.nan, 0.0)], 0, 1)


def test_witness_int_and_float_input_agree():
    ints = np.array([(0, 0), (4, 1), (1, 5), (6, 6), (3, 2), (-2, 3)])
    floats = ints.astype(np.float64)
    for i, j in combinations(range(len(ints)), 2):
        a, b = adjacent_witness(ints, i, j), adjacent_witness(floats, i, j)
        assert a.adjacent == b.adjacent
        if a.adjacent:
            np.testing.assert_array_equal(a.witness, b.witness)


def test_witness_guards_hold_on_a_remembered_set():
    adjacent_witness(QUAD, 0, 1)
    with pytest.raises(GeometryError):
        adjacent_witness(QUAD, 2, 2)
    with pytest.raises(IndexError):
        adjacent_witness(QUAD, 4, 0)
    with pytest.raises(IndexError):
        adjacent_witness(QUAD, -1, 0)
    big = random_pointset(1, 201, 2)
    for _ in range(2):
        with pytest.raises(GeometryError, match="guarded"):
            adjacent_witness(big, 0, 1)


def test_witness_is_a_fresh_array():
    pts = random_pointset(3, 10, 3).coords
    i, j = next((i, j) for i, j in combinations(range(10), 2)
                if adjacent_witness(pts, i, j).adjacent)
    first = adjacent_witness(pts, i, j).witness
    first[:] = np.inf
    _assert_witness(pts, i, j, adjacent_witness(pts, i, j).witness)


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

