"""Risk engine: entropy posteriors, hedge ratios, and path simulation."""

import json

import numpy as np
import pytest

from cdo_compat.dpm_core import DPM
from cdo_compat.market_model import calibrate_hazard
from cdo_compat.risk_engine import (_row_tilt_duals, posterior_dpm,
                                    read_samples, simulate_npv, spread_delta)
from cdo_compat.tranche_valuation import DimensionMismatch


def test_tilt_duals_reproduce_the_target_means():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.05, 1.0, size=(3, 7))
    targets = np.array([1.5, 2.0, 3.25])
    nu_row, nu_mean = _row_tilt_duals(ref, targets)
    j = np.arange(7.0)
    tilted = ref * np.exp(-1.0 - nu_row[:, None] - nu_mean[:, None] * j)
    np.testing.assert_allclose(tilted.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(tilted @ j, targets, atol=1e-10)


def test_posterior_is_the_prior_when_nothing_moves(snapshot, curve, weak_result):
    post, _ = posterior_dpm(weak_result.dpm, curve, snapshot.schedule)
    assert np.max(np.abs(post.q - weak_result.dpm.q)) < 1e-6


def test_posterior_marginals_track_the_bumped_curve(snapshot, weak_result):
    # a widening bump leaves the monotonicity rows slack at the tilted warm
    # start; a tightening one violates about 1100 of them
    for shift in (1e-4, -1e-4):
        bumped = calibrate_hazard(snapshot.index_spread + shift,
                                  snapshot.schedule, snapshot.discount,
                                  snapshot.portfolio.recovery)
        post, solver = posterior_dpm(weak_result.dpm, bumped, snapshot.schedule)
        np.testing.assert_allclose(post.means(),
                                   125 * bumped.grid(snapshot.schedule),
                                   atol=1e-7)
        np.testing.assert_allclose(post.q.sum(axis=1), 1.0, atol=1e-9)
        assert solver["kkt"] < 1e-8


def test_hedge_report_values_and_schema(snapshot, weak_result, tmp_path):
    report = spread_delta(snapshot, weak_result.dpm)
    assert report.dv_cds > 0.0
    assert all(d > 0.0 for d in report.delta)
    assert 0.9 < sum(report.delta) < 1.1
    payload = report.as_dict()
    assert set(payload) == {"shift_bps", "dv_cds", "tranches", "solver"}
    assert len(payload["tranches"]) == 4
    assert set(payload["tranches"][0]) == {"attach", "detach", "dv", "delta"}
    assert set(payload["solver"]) == {"iterations", "evaluations", "kkt", "wall_s"}
    assert payload["solver"]["kkt"] < 1e-8
    target = tmp_path / "hedge.json"
    report.to_json(target)
    assert json.loads(target.read_text()) == payload


def test_hedge_rejects_a_mispriced_prior(snapshot):
    flat = DPM(np.full((20, 126), 1.0 / 126.0))
    with pytest.raises(ValueError):
        spread_delta(snapshot, flat)


def test_simulation_summary_is_internally_consistent(snapshot, strong_100):
    summary = simulate_npv(strong_100.solution, snapshot, 4000, seed=9)
    assert summary.n_paths == 4000
    assert summary.labels[-1] == "portfolio"
    assert len(summary.labels) == 5
    assert summary.count_hist.shape == (20, 126)
    np.testing.assert_array_equal(summary.count_hist.sum(axis=1), 4000)
    assert np.all(np.abs(summary.t_stat) < 6.0)
    assert np.all(summary.std > 0.0)
    assert set(summary.quantiles) == {1, 5, 50, 95, 99}
    assert np.all(summary.quantiles[1] <= summary.quantiles[50])
    assert np.all(summary.quantiles[50] <= summary.quantiles[99])
    json.dumps(summary.as_dict())


def test_fixed_seed_reproduces_identical_sample_files(snapshot, strong_100,
                                                      tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    simulate_npv(strong_100.solution, snapshot, 2000, seed=123, csv_path=a)
    simulate_npv(strong_100.solution, snapshot, 2000, seed=123, csv_path=b)
    simulate_npv(strong_100.solution, snapshot, 2000, seed=124, csv_path=c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulation_rejects_misshaped_positions(snapshot, strong_100):
    with pytest.raises(DimensionMismatch):
        simulate_npv(strong_100.solution, snapshot, 100, seed=0,
                     positions=[1.0, 2.0])


def test_sample_file_round_trips(snapshot, strong_100, tmp_path):
    target = tmp_path / "paths.csv"
    summary = simulate_npv(strong_100.solution, snapshot, 1500, seed=4,
                           csv_path=target)
    ids, counts, values = read_samples(target)
    np.testing.assert_array_equal(ids, np.arange(1500))
    assert counts.shape == (1500, 20)
    assert values.shape == (1500, 5)
    for i in range(20):
        np.testing.assert_array_equal(np.bincount(counts[:, i], minlength=126),
                                      summary.count_hist[i])
    assert np.all(np.diff(counts, axis=1) >= 0)


def test_portfolio_column_weights_the_positions(snapshot, strong_100, tmp_path):
    target = tmp_path / "weighted.csv"
    simulate_npv(strong_100.solution, snapshot, 400, seed=11,
                 positions=[2.0, 0.0, 0.0, 0.0], csv_path=target)
    _, _, values = read_samples(target)
    np.testing.assert_allclose(values[:, 4], 2.0 * values[:, 0],
                               rtol=1e-8, atol=1e-12)
