"""Schedule, discounting, index calibration, and snapshot serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdo_compat.market_model import (DiscountCurve, InvalidRecovery,
                                     MarginalDefaultCurve, NoRoot,
                                     PaymentSchedule, PortfolioSpec,
                                     TrancheSpec, calibrate_hazard,
                                     cds_value_change, implied_index_spread,
                                     load_snapshot, pv01, snapshot_from_dict,
                                     snapshot_to_dict)

# Independently computed reference values for the quoted market
# (58 bps index, r = 2.417%, R = 0.4, 5y quarterly).
HAZARD_58 = 0.009637545116761553
F_AT_MATURITY_58 = 0.04704512372552838
HAZARD_59 = 0.009803710468833824
PV01_59 = 4.584522038350754


def test_quarterly_schedule_grid():
    sched = PaymentSchedule.quarterly()
    assert sched.m == 20
    assert sched.payment_dates[0] == pytest.approx(0.25)
    assert sched.maturity == pytest.approx(5.0)
    assert sched.post_maturity == pytest.approx(5.25)
    np.testing.assert_allclose(sched.accruals, 0.25)
    all_dates = sched.all_dates
    assert all_dates[0] == 0.0 and len(all_dates) == 22
    np.testing.assert_allclose(sched.midpoints,
                               (all_dates[:-1] + all_dates[1:]) / 2.0)


def test_schedule_rejects_non_increasing_dates():
    with pytest.raises(ValueError):
        PaymentSchedule(payment_dates=(0.25, 0.25, 0.75), post_maturity=1.0)
    with pytest.raises(ValueError):
        PaymentSchedule(payment_dates=(0.25, 0.5), post_maturity=0.5)


def test_flat_discount_curve():
    disc = DiscountCurve(rate=0.02417)
    t = np.array([0.0, 0.25, 5.0])
    np.testing.assert_allclose(disc(t), np.exp(-0.02417 * t), rtol=1e-15)


def test_recovery_validation():
    with pytest.raises(InvalidRecovery):
        PortfolioSpec(125, 1.0)


def test_tranche_spec_validation():
    with pytest.raises(ValueError):
        TrancheSpec(0.06, 0.03, "spread")
    with pytest.raises(ValueError):
        TrancheSpec(0.0, 0.03, "spread", running_spread=0.01)
    with pytest.raises(ValueError):
        TrancheSpec(0.0, 0.03, "points")
    tr = TrancheSpec(0.03, 0.06, "upfront", running_spread=0.01)
    assert tr.width == pytest.approx(0.03)
    assert tr.label == "[0.03,0.06]"


def test_hazard_calibration_against_reference(snapshot, curve):
    assert curve.hazard == pytest.approx(HAZARD_58, rel=1e-12)
    assert curve(5.0) == pytest.approx(F_AT_MATURITY_58, rel=1e-12)
    implied = implied_index_spread(curve, snapshot.schedule, snapshot.discount,
                                   snapshot.portfolio.recovery)
    assert implied == pytest.approx(58e-4, abs=1e-16)


def test_hazard_calibration_shifted_reference(snapshot):
    shifted = calibrate_hazard(59e-4, snapshot.schedule, snapshot.discount, 0.4)
    assert shifted.hazard == pytest.approx(HAZARD_59, rel=1e-12)
    assert pv01(shifted, snapshot.schedule, snapshot.discount) == pytest.approx(
        PV01_59, rel=1e-12)


def test_zero_spread_maps_to_zero_hazard(snapshot):
    curve = calibrate_hazard(0.0, snapshot.schedule, snapshot.discount, 0.4)
    assert curve.hazard == 0.0
    assert curve(5.0) == 0.0


def test_unattainable_spread_raises(snapshot):
    # the fair spread stays below (1 - R) times the hazard cap of the bracket
    with pytest.raises(NoRoot):
        calibrate_hazard(8.0, snapshot.schedule, snapshot.discount, 0.4)


@settings(max_examples=60, deadline=None)
@given(spread=st.floats(min_value=1e-4, max_value=0.15),
       recovery=st.floats(min_value=0.0, max_value=0.8))
def test_calibration_reprices_the_index(spread, recovery):
    sched = PaymentSchedule.quarterly()
    disc = DiscountCurve(rate=0.02417)
    curve = calibrate_hazard(spread, sched, disc, recovery)
    implied = implied_index_spread(curve, sched, disc, recovery)
    assert abs(implied - spread) < 1e-10


def test_marginal_curve_boundary_convention():
    curve = MarginalDefaultCurve(hazard=0.01, boundary_time=5.25)
    assert curve(5.25) == 1.0
    assert curve(5.2499999) == pytest.approx(-math.expm1(-0.01 * 5.2499999))
    assert curve(0.0) == 0.0


def test_marginal_grid_is_increasing(curve, snapshot):
    grid = curve.grid(snapshot.schedule)
    assert grid.shape == (20,)
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] == pytest.approx(F_AT_MATURITY_58, rel=1e-12)


def test_pv01_decreases_with_hazard(snapshot):
    sched, disc = snapshot.schedule, snapshot.discount
    low = pv01(MarginalDefaultCurve(0.001, sched.post_maturity), sched, disc)
    high = pv01(MarginalDefaultCurve(0.05, sched.post_maturity), sched, disc)
    assert high < low


def test_cds_value_change_uses_shifted_annuity(snapshot):
    sched, disc = snapshot.schedule, snapshot.discount
    shifted = calibrate_hazard(59e-4, sched, disc, 0.4)
    change = cds_value_change(shifted, sched, disc, 1e-4)
    assert change == pytest.approx(PV01_59 * 1e-4, rel=1e-12)


def test_snapshot_calibrates_its_curve_once(snapshot):
    assert snapshot.curve is snapshot.curve
    direct = calibrate_hazard(snapshot.index_spread, snapshot.schedule,
                              snapshot.discount, snapshot.portfolio.recovery)
    assert snapshot.curve.hazard == direct.hazard
    assert snapshot.curve.boundary_time == direct.boundary_time


def test_a_moved_index_quote_recalibrates_the_curve(snapshot):
    moved = dataclasses.replace(snapshot, index_spread=59e-4)
    assert moved.curve.hazard != snapshot.curve.hazard
    assert moved.curve.hazard == pytest.approx(HAZARD_59, rel=1e-12)


def test_snapshot_parsing(snapshot):
    assert snapshot.portfolio.n == 125
    assert snapshot.index_spread == pytest.approx(58e-4)
    assert snapshot.quotes.upfront[0] == pytest.approx(0.28438)
    assert snapshot.quotes.spread[0] == pytest.approx(0.01)
    assert snapshot.quotes.upfront[2] == 0.0
    assert snapshot.quotes.spread[2] == pytest.approx(106.32e-4)
    kinds = [t.quote_kind for t in snapshot.tranches]
    assert kinds == ["upfront", "upfront", "spread", "spread"]


def test_snapshot_round_trip(snapshot):
    again = snapshot_from_dict(snapshot_to_dict(snapshot))
    assert again.as_of == snapshot.as_of
    assert again.index_spread == pytest.approx(snapshot.index_spread)
    for a, b in zip(again.tranches, snapshot.tranches):
        assert (a.attach, a.detach, a.quote_kind) == (b.attach, b.detach, b.quote_kind)
    np.testing.assert_allclose(again.quotes.upfront, snapshot.quotes.upfront)
    np.testing.assert_allclose(again.quotes.spread, snapshot.quotes.spread)


def test_snapshot_with_bands(tmp_path):
    raw = {
        "as_of": "2025-03-28",
        "index_spread_bps": 58.0,
        "rate_pct": 2.417,
        "recovery": 0.4,
        "n_names": 125,
        "schedule": {"freq": "quarterly", "years": 5},
        "tranches": [
            {"attach": 0.0, "detach": 0.03, "quote": "upfront",
             "fixed_running_bps": 100.0, "quote_value": 28.438,
             "bid_value": 28.2, "ask_value": 28.7},
            {"attach": 0.03, "detach": 1.0, "quote": "spread",
             "quote_value": 40.0, "bid_value": 39.0, "ask_value": 41.0},
        ],
    }
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(raw))
    snap = load_snapshot(path)
    assert snap.bid is not None and snap.ask is not None
    assert snap.bid.upfront[0] == pytest.approx(0.282)
    assert snap.ask.spread[1] == pytest.approx(41e-4)
