"""Risk engine: entropy posteriors, hedge ratios, and path simulation."""

import csv
import io
import json

import numpy as np
import pytest

from cdo_compat.dpm_core import DPM, repair_structure
from cdo_compat.market_model import calibrate_hazard
from cdo_compat.opt_backend import SolveStatus, solve_relative_entropy
from cdo_compat.risk_engine import (EPS_REG, _format_rows,
                                    _nested_binomial_counts, posterior_dpm,
                                    read_samples, simulate_npv, spread_delta)
from cdo_compat.strong_compat import h_matrix, qij_from_p
from cdo_compat.tranche_valuation import DimensionMismatch
from cdo_compat.weak_compat import structure_rows

from conftest import tail_rows


def test_posterior_is_the_prior_when_nothing_moves(snapshot, curve, weak_result):
    post, _ = posterior_dpm(weak_result.law, curve, snapshot.schedule)
    assert np.max(np.abs(post.q - weak_result.law.q)) < 1e-6


def _assert_posterior_tracks_bumped_curves(snapshot, prior):
    for shift in (1e-4, -1e-4):
        bumped = calibrate_hazard(snapshot.index_spread + shift,
                                  snapshot.schedule, snapshot.discount,
                                  snapshot.portfolio.recovery)
        post, solver = posterior_dpm(prior, bumped, snapshot.schedule)
        np.testing.assert_allclose(post.means(),
                                   125 * bumped.grid(snapshot.schedule),
                                   atol=1e-7)
        np.testing.assert_allclose(post.q.sum(axis=1), 1.0, atol=1e-9)
        assert solver["kkt"] < 1e-8


def test_posterior_marginals_track_the_bumped_curve(snapshot, weak_result):
    # the dual starts at zero multipliers; at the optimum a widening bump
    # binds 398 of the 2375 monotonicity rows and a tightening one 1337
    _assert_posterior_tracks_bumped_curves(snapshot, weak_result.law)


def test_posterior_is_the_one_over_the_tail_rows(snapshot, weak_result):
    # the shorter monotonicity rows agree with the tail rows on unit rows,
    # so the entropy program over either has the same optimum
    prior = weak_result.law
    m, n = prior.m, prior.n
    for shift in (1e-4, -1e-4):
        bumped = calibrate_hazard(snapshot.index_spread + shift,
                                  snapshot.schedule, snapshot.discount,
                                  snapshot.portfolio.recovery)
        post, _ = posterior_dpm(prior, bumped, snapshot.schedule)
        A_eq, b_eq, _, _ = structure_rows(m, np.arange(n + 1.0),
                                          n * bumped.grid(snapshot.schedule))
        tail = tail_rows(m, n)
        res = solve_relative_entropy((prior.q + EPS_REG).ravel(), A_eq, b_eq,
                                     A_ub=tail, b_ub=np.zeros(tail.shape[0]))
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(
            post.q, repair_structure(res.x.reshape(m, n + 1)), rtol=0, atol=1e-12)


def test_posterior_from_a_strong_prior_tracks_the_bumped_curve(snapshot,
                                                               strong_100):
    # the count law of the N=100 generator law: a tightening bump re-solves
    # the Newton system after multipliers cross zero on most steps
    prior = qij_from_p(strong_100.law, h_matrix(snapshot.portfolio.n, 100))
    _assert_posterior_tracks_bumped_curves(snapshot, prior)


def test_hedge_report_values_and_schema(snapshot, weak_result):
    report = spread_delta(snapshot, weak_result.law)
    assert report.dv_cds > 0.0
    assert all(d > 0.0 for d in report.delta)
    assert 0.9 < sum(report.delta) < 1.1
    payload = report.as_dict()
    assert set(payload) == {"shift_bps", "dv_cds", "tranches", "solver"}
    assert len(payload["tranches"]) == 4
    assert set(payload["tranches"][0]) == {"attach", "detach", "dv", "delta"}
    assert set(payload["solver"]) == {"iterations", "evaluations", "kkt", "wall_s"}
    assert payload["solver"]["kkt"] < 1e-8


def test_hedge_rejects_a_mispriced_prior(snapshot):
    flat = DPM(np.full((20, 126), 1.0 / 126.0))
    with pytest.raises(ValueError):
        spread_delta(snapshot, flat)


def test_simulation_summary_is_internally_consistent(snapshot, strong_100):
    summary = simulate_npv(strong_100.law, snapshot, 4000, seed=9)
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
    simulate_npv(strong_100.law, snapshot, 2000, seed=123, csv_path=a)
    simulate_npv(strong_100.law, snapshot, 2000, seed=123, csv_path=b)
    simulate_npv(strong_100.law, snapshot, 2000, seed=124, csv_path=c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulation_rejects_misshaped_positions(snapshot, strong_100):
    with pytest.raises(DimensionMismatch):
        simulate_npv(strong_100.law, snapshot, 100, seed=0,
                     positions=[1.0, 2.0])


def test_sample_file_round_trips(snapshot, strong_100, tmp_path):
    target = tmp_path / "paths.csv"
    summary = simulate_npv(strong_100.law, snapshot, 1500, seed=4,
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
    simulate_npv(strong_100.law, snapshot, 400, seed=11,
                 positions=[2.0, 0.0, 0.0, 0.0], csv_path=target)
    _, _, values = read_samples(target)
    np.testing.assert_allclose(values[:, 4], 2.0 * values[:, 0],
                               rtol=1e-8, atol=1e-12)


def test_nested_binomial_counts_saturate_once_x_reaches_one():
    x = np.array([[0.0, 0.2, 0.5, 1.0, 1.0, 1.0],
                  [0.0, 0.3, 1.0, 1.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.4, 0.9, 1.0]])
    counts = _nested_binomial_counts(np.random.default_rng(8), 125,
                                     np.repeat(x, 50, axis=0))
    assert counts.shape == (200, 4)
    assert np.all(np.diff(counts, axis=1) >= 0)
    assert np.all(counts[:50, 2:] == 125)
    assert np.all(counts[50:100, 1:] == 125)
    assert np.all(counts[100:150] == 125)
    assert np.all(counts[150:, :2] == 0)
    assert np.all(counts <= 125)


def test_nested_binomial_counts_have_mean_n_x():
    # given X, N_i is Bin(n, x_i) whatever the earlier dates drew
    n, draws = 125, 40000
    x_row = np.array([0.0, 0.01, 0.1, 0.1, 0.35, 0.8, 0.999, 1.0])
    counts = _nested_binomial_counts(np.random.default_rng(31), n,
                                     np.tile(x_row, (draws, 1)))
    x_dates = x_row[1:-1]
    stderr = np.sqrt(n * x_dates * (1.0 - x_dates) / draws)
    assert np.all(np.abs(counts.mean(axis=0) - n * x_dates) < 4.0 * stderr)


def test_sample_rows_match_the_csv_module_byte_for_byte():
    ids = np.array([0, 7, 65535, 1_000_000])
    counts = np.array([[0, 0, 3], [1, 5, 125], [0, 125, 125], [2, 2, 2]])
    values = np.array([[0.0, -0.0, 1.5],
                       [1e-300, -2.345678901234e17, 0.1],
                       [1.0 / 3.0, -1e-7, 123456789.0123],
                       [np.nan, np.inf, -np.inf]])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    for r in range(len(ids)):
        writer.writerow([ids[r], *counts[r].tolist(),
                         *(f"{v:.10g}" for v in values[r])])
    assert _format_rows(ids, counts, values) == expected.getvalue()
