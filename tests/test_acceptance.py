"""End-to-end acceptance criteria, one test per criterion.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.
Monte Carlo criteria run at desk scale with fixed seeds; the module-scope
fixtures are shared where several criteria read the same experiment.
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from delo import PointSet, delaunay
from delo.oracle import adjacent_witness, delaunay_bruteforce
from delo.outlyingness import flag, score
from delo.simulation import (
    SimulationConfig,
    run_consistency_experiment,
    run_relative_outlyingness_experiment,
)

pytestmark = pytest.mark.acceptance

SEED = 7


# --- shared experiment runs -----------------------------------------------------

@pytest.fixture(scope="module")
def dim4_report():
    cfg = SimulationConfig(dim=4, n_inliers=299, replicates=200, seed=SEED)
    return run_relative_outlyingness_experiment(cfg)


@pytest.fixture(scope="module")
def consistency_report():
    return run_consistency_experiment(
        dim=2, radius=1.0, center=(0.0, 0.0), outliers=[(3.0, 0.0)],
        n_schedule=[50, 100, 200, 400], replicates=50, seed=SEED)


# --- criterion 1 ------------------------------------------------------------------

def test_criterion_01_oracle_triple_agreement():
    """Hull edges == brute-force edges == LP-witness adjacency, exactly."""
    mismatches = 0
    rng = np.random.default_rng(2024)
    for k in (2, 3, 4):
        for _ in range(200):
            n = int(rng.integers(k + 2, 31))
            pts = rng.uniform(-1.0, 1.0, size=(n, k))
            hull = delaunay(pts).edge_set()
            brute = delaunay_bruteforce(pts)
            witness = {(i, j) for i, j in combinations(range(n), 2)
                       if adjacent_witness(pts, i, j).adjacent}
            if not (hull == brute == witness):
                mismatches += 1
    assert mismatches == 0


# --- criterion 2 ------------------------------------------------------------------

def test_criterion_02_analytic_triangle_scores():
    table = score(delaunay([(0, 0), (3, 0), (0, 4)]))
    expected = [math.sqrt(12), math.sqrt(15), math.sqrt(20)]
    assert table.scores == pytest.approx(expected, rel=1e-12)


# --- criterion 3 ------------------------------------------------------------------

def _hull_vertex_count(coords) -> int:
    """Vertices of the convex hull by Andrew's monotone chain. Every float is
    p / 2^e, so one power of two scales the coordinates exactly to integers,
    and each turn is the sign of an exact integer cross product."""
    ratios = [x.as_integer_ratio() for x in coords.ravel().tolist()]
    den = max(q for _, q in ratios)
    ints = [p * (den // q) for p, q in ratios]
    pts = sorted(zip(ints[0::2], ints[1::2]))

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:  # a left turn
                    break
                out.pop()
            out.append((x, y))
        return out

    return len(chain(pts)) + len(chain(reversed(pts))) - 2


def test_criterion_03_euler_counts_2d():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 501))
        coords = rng.uniform(-1.0, 1.0, size=(n, 2))
        g = delaunay(coords)
        h = _hull_vertex_count(coords)
        assert len(g.lengths) == 3 * n - 3 - h
        assert len(g.simplices) == 2 * n - 2 - h


# --- criteria 4-6: scaled shell experiments ----------------------------------------

def test_criterion_04_dim4_shell(dim4_report):
    rep = dim4_report
    assert rep.failed_replicates == 0
    assert rep.total_ratios == 200 * 299
    assert rep.threshold_fractions[0.9] < 0.001  # desk-scale bound (paper: 0.02%)
    assert rep.median_ratio < 0.5


def test_criterion_05_dim3_shell():
    cfg = SimulationConfig(dim=3, n_inliers=199, replicates=200, seed=SEED)
    rep = run_relative_outlyingness_experiment(cfg)
    assert rep.failed_replicates == 0
    # ratios over 1 essentially never occur in dimension 3; allow one at desk scale
    assert rep.threshold_counts[1.0] <= 1


def test_criterion_06_dim5_shell():
    cfg = SimulationConfig(dim=5, n_inliers=199, replicates=100, seed=SEED)
    rep = run_relative_outlyingness_experiment(cfg)
    assert rep.failed_replicates == 0
    assert rep.threshold_fractions[0.9] < 0.01  # desk-scale bound (paper: 0.2%)


# --- criteria 7-8: consistency guarantee and trends ---------------------------------

def test_criterion_07_outlier_score_floor(consistency_report):
    rep = consistency_report
    assert rep.delta == 2.0
    assert rep.violations == 0
    for block in rep.min_outlier_scores:
        assert all(v >= 2.0 for v in block)  # sure bound, zero tolerance


def test_criterion_08_lambda_and_gamma_trends(consistency_report):
    rep = consistency_report
    assert rep.lambda_strictly_decreasing
    assert rep.gamma_strictly_decreasing
    assert list(rep.lambda_medians) == sorted(rep.lambda_medians, reverse=True)
    assert list(rep.gamma_medians) == sorted(rep.gamma_medians, reverse=True)


# --- criterion 9: invariance suite ---------------------------------------------------

def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(4321)
    for trial in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(20, 50))
        ps = PointSet(rng.uniform(-1.0, 1.0, size=(n, k)))
        base = score(delaunay(ps))

        c = float(rng.uniform(0.1, 10.0))
        scaled = score(delaunay(ps.coords * c))
        assert scaled.scores == pytest.approx(base.scores * c, rel=1e-12)
        ordered = np.sort(base.scores)
        cut = n // 2
        alpha = float(0.5 * (ordered[cut - 1] + ordered[cut]))
        assert flag(scaled, c * alpha).flagged == flag(base, alpha).flagged

        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        shift = rng.uniform(-5.0, 5.0, size=k)
        moved = score(delaunay(ps.coords @ q.T + shift))
        assert moved.scores == pytest.approx(base.scores, rel=1e-9)

        alphas = np.sort(rng.uniform(0.0, float(base.scores.max()) * 1.1, size=10))
        flag_sets = [set(flag(base, float(a)).flagged) for a in alphas]
        for bigger, smaller in zip(flag_sets, flag_sets[1:]):
            assert smaller <= bigger


# --- criterion 10: determinism --------------------------------------------------------

def test_criterion_10_byte_identical_reports(dim4_report, consistency_report):
    cfg = SimulationConfig(dim=4, n_inliers=299, replicates=200, seed=SEED)
    again = run_relative_outlyingness_experiment(cfg)
    blob_a = json.dumps(dim4_report.to_dict(), sort_keys=True, indent=2).encode()
    blob_b = json.dumps(again.to_dict(), sort_keys=True, indent=2).encode()
    assert blob_a == blob_b

    cons_again = run_consistency_experiment(
        dim=2, radius=1.0, center=(0.0, 0.0), outliers=[(3.0, 0.0)],
        n_schedule=[50, 100, 200, 400], replicates=50, seed=SEED)
    blob_c = json.dumps(consistency_report.to_dict(), sort_keys=True, indent=2).encode()
    blob_d = json.dumps(cons_again.to_dict(), sort_keys=True, indent=2).encode()
    assert blob_c == blob_d
