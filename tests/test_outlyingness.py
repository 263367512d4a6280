import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delo import delaunay
from delo.outlyingness import (
    _table,
    flag,
    relative_outlyingness,
    score,
)

from conftest import random_pointset

TRIANGLE = [(0, 0), (3, 0), (0, 4)]


def table_for(pts, **kw):
    return score(delaunay(pts, **kw))


def test_triangle_scores_are_pairwise_geometric_means():
    t = table_for(TRIANGLE)
    assert t.scores == pytest.approx([math.sqrt(12), math.sqrt(15), math.sqrt(20)],
                                     rel=1e-12)


def test_two_points_score_is_their_distance():
    t = table_for([(0.0,), (7.5,)])
    assert t.scores == pytest.approx([7.5, 7.5], rel=1e-12)


def test_scores_match_exp_of_log():
    t = table_for(random_pointset(5, 30, 2))
    assert np.allclose(t.scores, np.exp(t.log_scores), rtol=1e-15)


@pytest.mark.parametrize("c", [0.25, 3.0, 1e6])
def test_positive_homogeneity(c):
    ps = random_pointset(8, 25, 2)
    base = score(delaunay(ps))
    scaled = score(delaunay(ps.coords * c))
    assert scaled.scores == pytest.approx(base.scores * c, rel=1e-12)
    # a tie-free threshold: strictly between two consecutive score values
    ordered = np.sort(base.scores)
    alpha = float(0.5 * (ordered[10] + ordered[11]))
    assert flag(scaled, c * alpha).flagged == flag(base, alpha).flagged


def test_rigid_motion_invariance(rng):
    ps = random_pointset(9, 30, 3)
    base = score(delaunay(ps))
    theta = 0.7
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shifted = ps.coords @ q.T + rng.uniform(-5, 5, 3)
    moved = score(delaunay(shifted))
    assert moved.scores == pytest.approx(base.scores, rel=1e-9)


def test_geometric_mean_sandwich(rng):
    g = delaunay(random_pointset(10, 40, 2))
    t = score(g)
    for i in range(g.n):
        lengths = [l for _, l in g.incident_edges(i)]
        assert min(lengths) - 1e-12 <= t.scores[i] <= max(lengths) + 1e-12


def test_log_space_agrees_with_direct_product(rng):
    g = delaunay(random_pointset(11, 25, 2))
    t = score(g)
    for i in range(g.n):
        lengths = [l for _, l in g.incident_edges(i)]
        direct = math.prod(lengths) ** (1.0 / len(lengths))
        assert t.scores[i] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_scores_equal_a_per_point_loop(k):
    # reference: each point's logs added in neighbour order, then divided
    g = delaunay(random_pointset(20 + k, 30, k))
    want = []
    for i in range(g.n):
        acc = 0.0
        for _, length in g.incident_edges(i):
            acc += math.log(length)
        want.append(acc / len(g.incident_edges(i)))
    assert score(g).log_scores.tolist() == want


def test_log_space_survives_product_underflow():
    # a star of many short edges: the raw product underflows to zero but the
    # log-domain geometric mean stays exact
    n = 12
    ends = np.array([(0, j) for j in range(1, n)])
    t = _table(n, ends, np.full(n - 1, 1e-40), dim=2)
    assert math.prod([1e-40] * (n - 1)) == 0.0
    assert t.scores[0] == pytest.approx(1e-40, rel=1e-12)


def test_table_refuses_a_point_without_edges():
    with pytest.raises(ValueError, match="point 2 has no incident edges"):
        _table(3, np.array([(0, 1)]), np.array([1.0]), dim=1)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(6, 60), st.integers(0, 2**32 - 1))
def test_permuting_rows_permutes_edges_and_scores(k, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, k))
    perm = rng.permutation(n)  # row r of the permuted set is point perm[r]
    g, gp = delaunay(pts), delaunay(pts[perm])
    mapped = {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in gp.edge_set()}
    assert mapped == g.edge_set()
    # each point's logs are summed in another order, so not bit for bit
    assert score(gp).log_scores == pytest.approx(score(g).log_scores[perm], rel=1e-12)


# --- relative outlyingness -----------------------------------------------------

def test_relative_reference_is_one():
    t = table_for(TRIANGLE)
    ratios = relative_outlyingness(t, 2)
    assert ratios[2] == 1.0
    assert ratios == pytest.approx([math.sqrt(12 / 20), math.sqrt(15 / 20), 1.0],
                                   rel=1e-12)


def test_relative_bad_reference():
    t = table_for(TRIANGLE)
    with pytest.raises(IndexError):
        relative_outlyingness(t, 5)


def test_relative_center_outlier_ratios_below_one(rng):
    # shell of inliers with the reference planted at the center
    g = rng.normal(size=(120, 2))
    pts = g / np.linalg.norm(g, axis=1)[:, None] * rng.uniform(0.7, 1.1, 120)[:, None]
    pts = np.vstack([pts, [[0.0, 0.0]]])
    t = score(delaunay(pts))
    ratios = relative_outlyingness(t, 120)[:120]
    assert np.median(ratios) < 1.0


# --- flagging -------------------------------------------------------------------

def test_flag_zero_threshold_flags_all():
    t = table_for(TRIANGLE)
    assert flag(t, 0.0).flagged == (0, 1, 2)


def test_flag_above_max_flags_none():
    t = table_for(TRIANGLE)
    assert flag(t, float(t.scores.max()) * 1.001).flagged == ()


def test_flag_triangle_at_four():
    t = table_for(TRIANGLE)
    assert flag(t, 4.0).flagged == (2,)


def test_flag_ties_included():
    t = table_for(TRIANGLE)
    exact = float(t.scores[1])
    assert 1 in flag(t, exact).flagged


def test_flag_negative_alpha_rejected():
    for alpha in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            flag(table_for(TRIANGLE), alpha)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                min_size=2, max_size=10))
def test_flag_monotone_in_alpha(alphas):
    t = table_for(TRIANGLE)
    alphas = sorted(alphas)
    flagged = [set(flag(t, a).flagged) for a in alphas]
    for smaller, larger in zip(flagged, flagged[1:]):
        assert larger <= smaller
