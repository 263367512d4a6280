import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delo import (
    DuplicatePointError,
    GeometryError,
    PointSet,
    jitter_points,
)
from delo.geometry import (
    _cofactor_bound,
    _cofactors,
    _exact_plane_signs,
    _orient_signs,
    _unit_rows,
    is_affinely_independent,
)

from conftest import insphere_signs, orient_sign, random_pointset


# --- orientation -------------------------------------------------------------

def test_orient_ccw_triangle():
    assert orient_sign([(0, 0), (1, 0), (0, 1)]) == 1


def test_orient_collinear():
    assert orient_sign([(0, 0), (1, 1), (2, 2)]) == 0


def test_orient_standard_3d_simplex():
    assert orient_sign([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


coord = st.integers(min_value=-50, max_value=50)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=4),
       st.integers(0, 3), st.integers(0, 3))
def test_orient_swap_flips_sign(pts, a, b):
    if a == b:
        return
    s = orient_sign(pts)
    swapped = list(pts)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert orient_sign(swapped) == -s


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=3),
       st.tuples(coord, coord), st.tuples(coord, coord))
def test_orient_and_insphere_translation_invariant(pts, q, shift):
    arr = np.array(pts, dtype=float)
    t = np.array(shift, dtype=float)
    assert orient_sign(arr) == orient_sign(arr + t)
    if orient_sign(arr):
        assert (insphere_signs(arr, q).tolist()
                == insphere_signs(arr + t, np.array(q, dtype=float) + t).tolist())


def test_orient_exactness_against_rational():
    # entries engineered so the float filter must defer to exact arithmetic
    eps = 2.0 ** -50
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, eps)]
    truth = _fraction_det([[1.0, 0.0], [2.0, eps]])
    assert orient_sign(pts) == np.sign(truth) == 1


# --- in-sphere ---------------------------------------------------------------

UNIT_TRI = [(0, 0), (1, 0), (0, 1)]


def test_insphere_inside():
    assert insphere_signs(UNIT_TRI, (0.9, 0.9)) == 1


def test_insphere_cospherical():
    assert insphere_signs(UNIT_TRI, (1, 1)) == 0


def test_insphere_outside():
    assert insphere_signs(UNIT_TRI, (2, 2)) == -1


def test_insphere_permutation_invariant():
    for perm in [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        pts = [UNIT_TRI[i] for i in perm]
        assert insphere_signs(pts, [(0.9, 0.9), (2, 2)]).tolist() == [1, -1]


def test_insphere_3d_tetrahedron():
    tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # (1, 1, 1) is the opposite corner of the circumsphere
    assert insphere_signs(tet, [(0.25, 0.25, 0.25), (5, 5, 5), (1, 1, 1)]).tolist() == [1, -1, 0]


def test_insphere_near_cospherical_resolved_exactly():
    # (1, 1) is exactly on the circumcircle; a 2^-50 nudge decides the sign
    off = 2.0 ** -50
    assert insphere_signs(UNIT_TRI, [(1.0, 1.0 + off), (1.0, 1.0 - off)]).tolist() == [-1, 1]


def _fraction_det(rows) -> Fraction:
    """Exact determinant of a square matrix of floats, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _rational_rows(pts, base, lift):
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in pts]
    return [r + [sum(x * x for x in r)] for r in rows] if lift else rows


def test_exact_int_signs_match_rational(rng):
    # near- and exactly degenerate batches over a wide exponent range: the
    # exact planes (the same expansion on scaled ints) give the signs of
    # rational determinants, for faces (k points) and lifted simplices
    # (k + 1), each plane serving several queries
    for k in range(1, 7):
        zeros = 0
        for trial in range(30):
            scale = 10.0 ** rng.integers(-150, 150)
            pts = rng.standard_normal((4, k + 1, k)) * scale
            queries = rng.standard_normal((12, k)) * scale
            if trial % 2:  # half-integer grid: flat faces, cospherical points
                pts = np.round(pts / scale * 2) / 2 * scale
                queries = np.round(queries / scale * 2) / 2 * scale
            if trial % 3 == 0:  # hypercube corners: every k + 2 of them cospherical
                pts = rng.integers(0, 2, pts.shape) * scale
                queries = rng.integers(0, 2, queries.shape) * scale
            queries[0] = pts[0, -1]  # on every plane through its group
            which = rng.integers(0, 4, len(queries))
            which[0] = 0
            for groups in (pts[:, 1:], pts):
                lift = groups.shape[1] > k
                want = [int(np.sign(_fraction_det(
                    _rational_rows(list(groups[w, 1:]) + [q], groups[w, 0], lift))))
                    for w, q in zip(which, queries)]
                assert _exact_plane_signs(groups, which, queries).tolist() == want
                zeros += want.count(0)
        assert zeros > 60  # more than the 60 that queries[0] forces


def test_affine_independence_matches_rational(rng):
    # integer points times a power of two, so that an exact affine
    # combination stays exact; truth from the rational Gram determinant
    for k in range(1, 7):
        seen = set()
        for trial in range(30):
            j = int(rng.integers(1, k + 1))
            pts = rng.integers(-2, 3, (j + 1, k)) * 2.0 ** rng.integers(-500, 500)
            if trial % 2 and j >= 2:
                pts[-1] = 2 * pts[1] - pts[0]
            rows = _rational_rows(pts[1:], pts[0], False)
            want = _fraction_det([[sum(a * b for a, b in zip(r, s)) for s in rows]
                                  for r in rows]) != 0
            assert is_affinely_independent(pts) == want
            seen.add(want)
        assert seen == {True, False}


@pytest.mark.parametrize("r", range(1, 7))
def test_cofactors_within_bound_of_exact_minors(r):
    # random rows, and rows whose last one is a combination of the others
    # up to 1e-12 (tiny minors, where only an absolute bound can hold); the
    # entries are exact, so the bound is taken with entry_ulps = 0
    rng = np.random.default_rng(r)
    rows = rng.uniform(-1, 1, (30, r, r + 1))
    near = rows.copy()
    near[:, -1] = (np.einsum("mi,mij->mj", rng.uniform(-1, 1, (30, r - 1)), rows[:, :-1])
                   + rng.uniform(-1e-12, 1e-12, (30, r + 1)))
    batch = _unit_rows(np.concatenate([rows, near]))
    x = rng.uniform(-1, 1, (len(batch), r + 1))
    h = _cofactors(batch)
    dots = np.einsum("ij,ij->i", h, x)
    for mat, hi, xi, dot in zip(batch, h, x, dots):
        for j in range(r + 1):
            minor = _fraction_det(np.delete(mat, j, axis=1)) * (-1) ** (r + j)
            assert abs(Fraction(hi[j]) - minor) <= _cofactor_bound(r, 0.0)
        exact = _fraction_det(np.vstack([mat, xi]))
        assert abs(Fraction(dot) - exact) <= _cofactor_bound(r + 1, 0.0)


@pytest.mark.parametrize("k", range(1, 7))
def test_batched_orientation_matches_orient(k, rng):
    # nearly flat simplices: the last vertex within 1e-14 of the span of the
    # others; truth from the rational determinant of the rows p_i - p_0
    simplices = rng.uniform(-1, 1, (60, k + 1, k))
    w = rng.dirichlet(np.ones(k), 30)
    simplices[30:, -1] = (np.einsum("mi,mij->mj", w, simplices[30:, :-1])
                          + rng.uniform(-1e-14, 1e-14, (30, k)))
    signs = _orient_signs(simplices)
    assert signs.tolist() == [int(np.sign(_fraction_det(_rational_rows(s[1:], s[0], False))))
                              for s in simplices]


def test_insphere_many_matches_scalar(rng):
    # one batch of queries against the sign of each query's rational lifted
    # determinant, taken alone and times the orientation
    pts = rng.uniform(-1, 1, (4, 3))
    o = orient_sign(pts)
    assert o
    qs = rng.uniform(-2, 2, (40, 3))
    batch = insphere_signs(pts, qs)
    assert set(batch.tolist()) == {-1, 1}
    for q, s in zip(qs, batch):
        lifted = _fraction_det(_rational_rows(list(pts[1:]) + [q], pts[0], True))
        assert s == -o * np.sign(lifted)


# --- PointSet ----------------------------------------------------------------

def test_pointset_rejects_duplicates():
    with pytest.raises(DuplicatePointError) as exc:
        PointSet(np.array([[0.0, 0], [1, 2], [0, 0]]))
    assert exc.value.indices == (0, 2)


def test_pointset_negative_zero_is_duplicate():
    with pytest.raises(DuplicatePointError):
        PointSet(np.array([[0.0, 0.0], [-0.0, 0.0]]))


def test_pointset_rejects_nan_and_high_dim():
    with pytest.raises(GeometryError):
        PointSet(np.array([[0.0, np.nan]]))
    with pytest.raises(GeometryError):
        PointSet(np.zeros((3, 7)))
    with pytest.raises(GeometryError):
        PointSet(np.zeros((0, 2)))


def test_pointset_is_immutable():
    ps = PointSet(np.array([[0.0, 0], [1, 1]]))
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 5.0


# --- jitter ------------------------------------------------------------------

def test_jitter_deterministic_and_bounded():
    ps = random_pointset(1, 20, 2, lo=0.0, hi=10.0)
    a = jitter_points(ps, seed=5)
    b = jitter_points(ps, seed=5)
    assert np.array_equal(a.coords, b.coords)
    diam = math.dist(ps.coords.min(axis=0), ps.coords.max(axis=0))
    assert np.abs(a.coords - ps.coords).max() <= 1e-9 * diam


def test_jitter_resolves_duplicates():
    arr = np.array([[0.0, 0], [0, 0], [1, 0], [0, 1]])
    ps = jitter_points(arr, seed=2)
    assert ps.n == 4
