import json
import math

import numpy as np
import pytest

from delo.geometry import GeometryError
from delo.simulation import (
    SimulationConfig,
    _ball_array,
    _map_replicates,
    _stream,
    run_consistency_experiment,
    run_relative_outlyingness_experiment,
    sample_shell,
)


def small_cfg(**kw):
    base = dict(dim=2, n_inliers=40, replicates=6, seed=7)
    base.update(kw)
    return SimulationConfig(**base)


# --- config -------------------------------------------------------------------

def test_config_defaults_origin_outlier():
    cfg = small_cfg(dim=3, n_inliers=10)
    assert cfg.outliers == ((0.0, 0.0, 0.0),)


@pytest.mark.parametrize("kw", [
    dict(r_lo=1.1, r_hi=0.7),
    dict(r_lo=-0.1),
    dict(replicates=0),
    dict(n_inliers=2),
    dict(outliers=((0.0,),)),
    dict(dim=0),
    dict(dim=7),
    dict(thresholds=(0.9, 0.9)),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        small_cfg(**kw)


# --- shell sampler --------------------------------------------------------------

def test_shell_norms_inside_interval():
    cfg = small_cfg(n_inliers=500)
    ps = sample_shell(cfg, 3)
    norms = np.linalg.norm(ps.coords[:500], axis=1)
    assert norms.min() >= cfg.r_lo and norms.max() <= cfg.r_hi


def test_shell_mean_norm_matches_uniform_radius():
    cfg = SimulationConfig(dim=3, n_inliers=100_000, replicates=1, seed=11)
    ps = sample_shell(cfg, 0)
    norms = np.linalg.norm(ps.coords[:-1], axis=1)
    assert abs(norms.mean() - 0.9) < 0.01  # E[R] for R ~ U[0.7, 1.1]


def test_shell_bitwise_reproducible():
    cfg = small_cfg()
    a = sample_shell(cfg, 4)
    b = sample_shell(cfg, 4)
    c = sample_shell(cfg, 5)
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)


def test_shell_appends_outliers_last():
    cfg = small_cfg(outliers=((0.0, 0.0), (5.0, 5.0)))
    ps = sample_shell(cfg, 0)
    assert ps.n == 42
    assert tuple(ps.coords[40]) == (0.0, 0.0)
    assert tuple(ps.coords[41]) == (5.0, 5.0)


# --- ball sampler -----------------------------------------------------------------

def test_ball_norms_bounded_and_reproducible():
    pts = _ball_array(3, 2000, 2.5, (1.0, -1.0, 0.0), _stream(3, ()))
    norms = np.linalg.norm(pts - np.array([1.0, -1.0, 0.0]), axis=1)
    assert pts.shape == (2000, 3) and norms.max() <= 2.5
    pts2 = _ball_array(3, 2000, 2.5, (1.0, -1.0, 0.0), _stream(3, ()))
    assert np.array_equal(pts, pts2)


def test_ball_inner_half_volume_holds_half_the_draws():
    # the ball of radius r * 2^(-1/d) has half the volume of the ball of radius r
    for dim in (2, 3, 4):
        center = np.linspace(-1.0, 1.0, dim)
        pts = _ball_array(dim, 40_000, 1.5, center, _stream(99, ()))
        inner = np.linalg.norm(pts - center, axis=1) <= 1.5 * 2.0 ** (-1 / dim)
        assert abs(inner.mean() - 0.5) < 0.01, (dim, inner.mean())


def test_ball_rejects_bad_radius():
    # the ball is sampled only inside the consistency experiment, which checks
    # the radius first; test_consistency_validation covers -1 and inf
    for radius in (0.0, math.nan):
        with pytest.raises(ValueError, match="radius"):
            run_consistency_experiment(dim=2, radius=radius, center=(0.0, 0.0),
                                       outliers=[(3.0, 0.0)], n_schedule=(5,), replicates=1,
                                       seed=1, processes=1)


# --- shell experiment ----------------------------------------------------------------

def test_experiment_report_structure():
    cfg = small_cfg(thresholds=(0.5, 0.9, 1.0))
    rep = run_relative_outlyingness_experiment(cfg, processes=1)
    assert rep.total_ratios == cfg.replicates * cfg.n_inliers
    assert rep.failed_replicates == 0
    assert sum(rep.histogram_counts) == rep.total_ratios
    counts = [rep.threshold_counts[t] for t in sorted(rep.threshold_counts)]
    assert counts == sorted(counts, reverse=True)  # monotone in the cutoff
    assert rep.max_ratio >= 0


def test_experiment_requires_single_outlier():
    cfg = small_cfg(outliers=((0.0, 0.0), (3.0, 3.0)))
    with pytest.raises(ValueError):
        run_relative_outlyingness_experiment(cfg, processes=1)


def test_experiment_parallel_schedule_is_deterministic():
    cfg = small_cfg(replicates=8)
    a = run_relative_outlyingness_experiment(cfg, processes=1)
    b = run_relative_outlyingness_experiment(cfg, processes=2)
    ja = json.dumps(a.to_dict(), sort_keys=True)
    jb = json.dumps(b.to_dict(), sort_keys=True)
    assert ja == jb


def test_map_replicates_worker_setting():
    args = list(range(12))
    with pytest.raises(ValueError, match="worker"):
        _map_replicates(math.factorial, args, 0)
    want = [math.factorial(a) for a in args]
    assert all(_map_replicates(math.factorial, args, p) == want for p in (None, 1, 2))


def test_experiment_keep_ratios():
    cfg = small_cfg(replicates=3)
    rep = run_relative_outlyingness_experiment(cfg, processes=1, keep_ratios=True)
    assert len(rep.replicate_ratios) == 3
    assert all(len(r) == cfg.n_inliers for r in rep.replicate_ratios)


def test_runtime_not_in_canonical_dict():
    cfg = small_cfg(replicates=2)
    rep = run_relative_outlyingness_experiment(cfg, processes=1)
    assert "runtime_seconds" not in rep.to_dict()


# --- consistency experiment -------------------------------------------------------------

def test_consistency_delta_and_floor():
    rep = run_consistency_experiment(
        dim=2, radius=1.0, center=(0, 0), outliers=[(3, 0)],
        n_schedule=[40, 80], replicates=4, seed=5, processes=1)
    assert rep.delta == 2.0
    assert rep.violations == 0
    for block in rep.min_outlier_scores:
        assert all(v >= rep.delta for v in block)


def test_consistency_pairwise_outlier_distance_enters_delta():
    rep = run_consistency_experiment(
        dim=2, radius=1.0, center=(0, 0), outliers=[(3, 0), (3, 0.5)],
        n_schedule=[40], replicates=2, seed=5, processes=1)
    assert rep.delta == 0.5


def test_consistency_rejects_outlier_inside_ball():
    with pytest.raises(ValueError):
        run_consistency_experiment(
            dim=2, radius=1.0, center=(0, 0), outliers=[(0.5, 0)],
            n_schedule=[40], replicates=2, seed=5, processes=1)


@pytest.mark.parametrize("kw", [
    dict(outliers=[(3, 0, 4, 0)]),
    dict(replicates=0),
    dict(n_schedule=[40, 0]),
    dict(n_schedule=[2]),
    dict(radius=-1.0),
    dict(radius=math.inf),
    dict(outliers=[(3, 0), (3, 0)]),
    dict(outliers=[]),
    dict(center=(math.nan, 0)),
    dict(dim=7, center=(0,) * 7, outliers=[(3,) + (0,) * 6]),
    dict(n_schedule=[100, 50]),
    dict(n_schedule=[50, 50]),
], ids=["outlier-dimension", "no-replicates", "schedule-size-0", "schedule-size-2",
        "negative-radius", "infinite-radius", "duplicate-outliers", "no-outliers",
        "nan-center", "dim-7", "schedule-decreasing", "schedule-repeated"])
def test_consistency_validation(kw):
    base = dict(dim=2, radius=1.0, center=(0, 0), outliers=[(3, 0)],
                n_schedule=[40], replicates=2, seed=5, processes=1)
    base.update(kw)
    with pytest.raises(ValueError) as exc:
        run_consistency_experiment(**base)
    assert not isinstance(exc.value, GeometryError)  # refused as input, before sampling


def test_consistency_lambda_restricted_to_inliers():
    rep = run_consistency_experiment(
        dim=2, radius=1.0, center=(0, 0), outliers=[(3, 0)],
        n_schedule=[60], replicates=3, seed=2, processes=1)
    for lam_in, lam_all in zip(rep.lambda_inlier[0], rep.lambda_all[0]):
        assert lam_in < lam_all  # outlier edges are the long ones
        assert lam_all >= 2.0


def test_consistency_parallel_schedule_is_deterministic():
    kw = dict(dim=2, radius=1.0, center=(0, 0), outliers=[(3, 0)],
              n_schedule=[40, 80], replicates=4, seed=5)
    a = run_consistency_experiment(**kw, processes=1)
    b = run_consistency_experiment(**kw, processes=2)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
