import json
import math

import numpy as np
import pytest

from delo.geometry import GeometryError
from delo.simulation import (
    SimulationConfig,
    _ball_array,
    _stream,
    resolve_processes,
    run_consistency_experiment,
    run_relative_outlyingness_experiment,
    sample_ball,
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
    ps = sample_ball(3, 2000, 2.5, (1.0, -1.0, 0.0), seed=3)
    norms = np.linalg.norm(ps.coords - np.array([1.0, -1.0, 0.0]), axis=1)
    assert norms.max() <= 2.5
    ps2 = sample_ball(3, 2000, 2.5, (1.0, -1.0, 0.0), seed=3)
    assert np.array_equal(ps.coords, ps2.coords)


def test_ball_acceptance_rate_matches_volume_ratio():
    rng = _stream(99, ())
    n = 40_000
    _, proposals, accepted = _ball_array(2, n, 1.0, (0.0, 0.0), rng)
    rate = accepted / proposals
    assert abs(rate - math.pi / 4) < 0.01


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        sample_ball(2, 5, 0.0, (0, 0), seed=1)


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


def test_experiment_keep_ratios():
    cfg = small_cfg(replicates=3)
    rep = run_relative_outlyingness_experiment(cfg, processes=1, keep_ratios=True)
    assert len(rep.replicate_ratios) == 3
    assert all(len(r) == cfg.n_inliers for r in rep.replicate_ratios)


def test_runtime_not_in_canonical_dict():
    cfg = small_cfg(replicates=2)
    rep = run_relative_outlyingness_experiment(cfg, processes=1)
    assert "runtime_seconds" not in rep.to_dict()
    assert "runtime_seconds" in rep.to_dict(include_runtime=True)


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
], ids=["outlier-dimension", "no-replicates", "schedule-size-0", "schedule-size-2",
        "negative-radius", "infinite-radius", "duplicate-outliers", "no-outliers",
        "nan-center", "dim-7"])
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


# --- process resolution --------------------------------------------------------------

def test_resolve_processes_env_cap(monkeypatch):
    monkeypatch.setenv("DELO_THREADS", "1")
    assert resolve_processes(8) == 1
    monkeypatch.delenv("DELO_THREADS")
    assert resolve_processes(1) == 1
