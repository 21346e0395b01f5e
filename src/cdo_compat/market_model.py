"""Market inputs and the index-implied marginal default distribution.

Holds the payment schedule, discounting, portfolio and tranche terms, and
the quote vectors for one trading date, and calibrates the single hazard
rate that reprices the CDS index. All rates and spreads are decimals per
year internally; bps and percent appear only at the I/O boundary.

The quote convention lives here alone. A tranche is quoted up-front (a
fraction of its notional, on top of a fixed running spread) or as a running
spread, and may carry a bid/ask band. `TrancheSpec.terms` gives the
(up-front, running spread) pair of a quote of its kind, `MarketSnapshot.quote`
reads a quote from the mid, bid or ask vector, and `QUOTE_UNITS` gives each
kind's display units: percent of notional for up-front quotes, bp for spreads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


class NoRoot(ValueError):
    """Hazard bracketing failed on [0, 10]; inputs are inconsistent."""


class InvalidRecovery(ValueError):
    """Recovery rate at or above 1 leaves no loss to price."""


@dataclass(frozen=True)
class PaymentSchedule:
    """Payment dates T_1 < ... < T_m plus the post-maturity horizon T_{m+1}.

    T_0 = 0 by convention. Midpoints (T_{i-1} + T_i)/2 are the assumed loss
    times; ``midpoints[i-1]`` is mid_i for i = 1..m+1.
    """

    payment_dates: tuple
    post_maturity: float

    def __post_init__(self):
        t = np.asarray(self.payment_dates, float)
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("payment_dates must be a non-empty 1-d sequence")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("payment dates must be strictly increasing and positive")
        if self.post_maturity <= t[-1]:
            raise ValueError("post_maturity must exceed the last payment date")
        object.__setattr__(self, "payment_dates", tuple(float(x) for x in t))

    @classmethod
    def quarterly(cls, years=5.0):
        dates = tuple((i + 1) * 0.25 for i in range(int(round(years * 4))))
        return cls(dates, (len(dates) + 1) * 0.25)

    @property
    def m(self):
        return len(self.payment_dates)

    @property
    def maturity(self):
        return self.payment_dates[-1]

    @property
    def all_dates(self):
        """T_0, T_1, ..., T_m, T_{m+1} as an array of length m+2."""
        return np.concatenate([[0.0], self.payment_dates, [self.post_maturity]])

    @property
    def accruals(self):
        """Year fractions T_i - T_{i-1} for i = 1..m."""
        d = self.all_dates
        return np.diff(d[: self.m + 1])

    @property
    def midpoints(self):
        """mid_i = (T_{i-1} + T_i)/2 for i = 1..m+1."""
        d = self.all_dates
        return 0.5 * (d[:-1] + d[1:])


@dataclass(frozen=True)
class DiscountCurve:
    """Risk-free discounting at a flat continuous rate: D(t) = exp(-rate * t)."""

    rate: float

    def __call__(self, t):
        out = np.exp(-self.rate * np.asarray(t, float))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PortfolioSpec:
    """Homogeneous pool: n names, equal notionals 1/n, common recovery."""

    n: int
    recovery: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one name")
        if not 0.0 <= self.recovery:
            raise ValueError("recovery must be non-negative")
        if self.recovery >= 1.0:
            raise InvalidRecovery(f"recovery {self.recovery} leaves no loss")


class QuoteUnits(NamedTuple):
    scale: float    # decimals per display unit
    display: float  # display units per decimal
    label: str      # the display unit
    noun: str       # the quote kind, in messages


QUOTE_UNITS = {"upfront": QuoteUnits(1e-2, 1e2, "pct", "up-front"),
               "spread": QuoteUnits(1e-4, 1e4, "bps", "spread")}

SIDES = ("mid", "bid", "ask")


@dataclass(frozen=True)
class TrancheSpec:
    """Loss slice [attach, detach] with its quoting convention.

    quote_kind "upfront": quoted as an up-front fraction plus the fixed
    ``running_spread``. quote_kind "spread": quoted as a running spread,
    no up-front.
    """

    attach: float
    detach: float
    quote_kind: str
    running_spread: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.attach < self.detach <= 1.0:
            raise ValueError(f"need 0 <= attach < detach <= 1, got [{self.attach}, {self.detach}]")
        if self.quote_kind not in ("upfront", "spread"):
            raise ValueError("quote_kind must be 'upfront' or 'spread'")
        if self.quote_kind == "spread" and self.running_spread != 0.0:
            raise ValueError("spread-quoted tranches carry no fixed running spread")
        if not self.label:
            object.__setattr__(self, "label", f"[{self.attach:g},{self.detach:g}]")

    @property
    def width(self):
        return self.detach - self.attach

    @property
    def units(self):
        return QUOTE_UNITS[self.quote_kind]

    def terms(self, x):
        """(up-front, running spread) of a quote x, in decimals, of this kind."""
        return (x, self.running_spread) if self.quote_kind == "upfront" else (0.0, x)


@dataclass(frozen=True)
class QuoteVector:
    """Resolved per-tranche quotes: (upfront fraction, running spread)/tranche.

    For spread-quoted tranches upfront is 0 and spread is the quote; for
    upfront-quoted tranches upfront is the quote and spread is the fixed
    running spread. Everything is in decimals.
    """

    upfront: tuple
    spread: tuple

    def __post_init__(self):
        if len(self.upfront) != len(self.spread):
            raise ValueError("upfront and spread must have equal length")
        object.__setattr__(self, "upfront", tuple(float(x) for x in self.upfront))
        object.__setattr__(self, "spread", tuple(float(x) for x in self.spread))

    def __len__(self):
        return len(self.upfront)


@dataclass(frozen=True)
class MarketSnapshot:
    """Everything observed on one date: terms, curve inputs, and quotes."""

    as_of: str
    schedule: PaymentSchedule
    discount: DiscountCurve
    portfolio: PortfolioSpec
    index_spread: float
    tranches: tuple
    quotes: QuoteVector
    bid: QuoteVector | None = None
    ask: QuoteVector | None = None

    def __post_init__(self):
        if len(self.tranches) != len(self.quotes):
            raise ValueError("one quote per tranche required")
        for qv in (self.bid, self.ask):
            if qv is not None and len(qv) != len(self.tranches):
                raise ValueError("bid/ask vectors must match the tranche count")

    @property
    def n_tranches(self):
        return len(self.tranches)

    def quote(self, l, side="mid"):
        """Tranche l's quote in its own kind, in decimals, on one of SIDES."""
        vector = {"mid": self.quotes, "bid": self.bid, "ask": self.ask}[side]
        upfront = self.tranches[l].quote_kind == "upfront"
        return (vector.upfront if upfront else vector.spread)[l]

    @cached_property
    def curve(self):
        """The marginal curve calibrated to ``index_spread``, once per snapshot."""
        return calibrate_hazard(self.index_spread, self.schedule, self.discount,
                                self.portfolio.recovery)


@dataclass(frozen=True)
class MarginalDefaultCurve:
    """Common marginal F(t) = 1 - exp(-hazard t), with F(T_{m+1}) := 1.

    The boundary convention is exact: at or beyond ``boundary_time`` the
    distribution returns 1 regardless of the hazard.
    """

    hazard: float
    boundary_time: float = field(default=float("inf"))

    def __post_init__(self):
        if self.hazard < 0.0:
            raise ValueError("hazard must be non-negative")

    def F(self, t):
        t = np.asarray(t, float)
        out = np.where(t >= self.boundary_time, 1.0, -np.expm1(-self.hazard * t))
        return out if out.ndim else float(out)

    __call__ = F

    def grid(self, sched):
        """F at the payment dates T_1..T_m."""
        return self.F(np.asarray(sched.payment_dates))


def _leg_sums(surv, sched, disc, recovery):
    """The three premium/protection sums of survival values at T_0..T_m.

    J1 discounts full-period premium on survival, J2 the half-period accrual
    of names defaulting in the period, J3 the protection payments at period
    midpoints. All sums run over the m payment periods. They are linear in
    ``surv``, so the derivative of ``surv`` gives their derivatives.
    """
    acc = sched.accruals
    d_pay = disc(np.asarray(sched.payment_dates))
    d_mid = disc(sched.midpoints[: sched.m])
    dead = surv[:-1] - surv[1:]
    j1 = float(np.sum(surv[1:] * acc * d_pay))
    j2 = 0.5 * float(np.sum(dead * acc * d_mid))
    j3 = (1.0 - recovery) * float(np.sum(dead * d_mid))
    return j1, j2, j3


def _index_legs(mu, sched, disc, recovery):
    """J1, J2, J3 of a flat-hazard index (see `_leg_sums`)."""
    return _leg_sums(np.exp(-mu * sched.all_dates[: sched.m + 1]), sched, disc,
                     recovery)


def implied_index_spread(curve, sched, disc, recovery):
    """Fair index spread for a given marginal curve: J3 / (J1 + J2)."""
    j1, j2, j3 = _index_legs(curve.hazard, sched, disc, recovery)
    return j3 / (j1 + j2)


def calibrate_hazard(index_spread, sched, disc, recovery):
    """Hazard rate whose index repricing error s (J1+J2) - J3 vanishes.

    Bisection on [0, 10] to 1e-14 followed by one Newton polish; the returned
    root satisfies |s (J1+J2) - J3| < 1e-12.

    Raises NoRoot when the bracket fails and InvalidRecovery for recovery >= 1.
    """
    if recovery >= 1.0:
        raise InvalidRecovery(f"recovery {recovery} leaves no loss")
    if index_spread < 0.0:
        raise ValueError("index spread must be non-negative")
    boundary = sched.post_maturity
    if index_spread == 0.0:
        return MarginalDefaultCurve(0.0, boundary)

    def gap(mu):
        j1, j2, j3 = _index_legs(mu, sched, disc, recovery)
        return index_spread * (j1 + j2) - j3

    lo, hi = 0.0, 10.0
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return MarginalDefaultCurve(0.0, boundary)
    if g_lo * g_hi > 0.0:
        raise NoRoot(f"no hazard in [0, 10] reprices the index at {index_spread:.6g}")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if gap(mid) * g_lo > 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    dates = sched.all_dates[: sched.m + 1]
    dj1, dj2, dj3 = _leg_sums(-dates * np.exp(-mu * dates), sched, disc, recovery)
    slope = index_spread * (dj1 + dj2) - dj3
    if slope != 0.0:
        mu = mu - gap(mu) / slope
    mu = max(mu, 0.0)
    if not abs(gap(mu)) < 1e-12:  # NaN fails too
        raise NoRoot(f"hazard root did not converge, residual {gap(mu):.3e}")
    return MarginalDefaultCurve(mu, boundary)


def pv01(curve, sched, disc):
    """Risky annuity: survival-weighted accruals plus half-period accrued premium.

    PV01 = sum_i dT_i (1 - F(T_i)) D(T_i) + 0.5 sum_i dT_i (F(T_i) - F(T_{i-1})) D(mid_i)
    """
    t = np.asarray(sched.payment_dates)
    acc = sched.accruals
    f = -np.expm1(-curve.hazard * sched.all_dates[: sched.m + 1])
    d_pay = disc(t)
    d_mid = disc(sched.midpoints[: sched.m])
    return float(np.sum(acc * (1.0 - f[1:]) * d_pay)
                 + 0.5 * np.sum(acc * np.diff(f) * d_mid))


def cds_value_change(curve_after, sched, disc, ds):
    """Index value change for a spread move ds: PV01 at the shifted curve times ds.

    The annuity is evaluated after the shift; the difference against the
    pre-shift annuity is second order in ds.
    """
    return pv01(curve_after, sched, disc) * ds


# JSON snapshot format. Units follow market convention: index and running
# spreads in bps, the flat rate in percent, quotes in QUOTE_UNITS. A bid or
# ask defaults to the mid quote; with neither on any tranche there is no band.

_KEYS = {"mid": "quote_value", "bid": "bid_value", "ask": "ask_value"}


def _finite(doc, key, default=None):
    """``doc[key]`` as a float (``default`` if given and the key is absent).

    A NaN or infinite value raises ValueError naming the key.
    """
    value = float(doc[key] if default is None else doc.get(key, default))
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def snapshot_from_dict(doc):
    sched_doc = doc.get("schedule", {})
    if sched_doc.get("freq", "quarterly") != "quarterly":
        raise ValueError("only quarterly schedules are supported")
    sched = PaymentSchedule.quarterly(years=float(sched_doc.get("years", 5)))
    disc = DiscountCurve(rate=_finite(doc, "rate_pct") / 100.0)
    port = PortfolioSpec(int(doc["n_names"]), _finite(doc, "recovery"))

    tranches = []
    for td in doc["tranches"]:
        kind = td["quote"]
        if kind not in QUOTE_UNITS:
            raise ValueError(f"unknown quote kind {kind!r}")
        running = _finite(td, "fixed_running_bps", 0.0) if kind == "upfront" else 0.0
        tranches.append(TrancheSpec(float(td["attach"]), float(td["detach"]), kind,
                                    running / 1e4))
    vectors = {}
    for side in SIDES:
        terms = [tr.terms(_finite(td, _KEYS[side], td["quote_value"]) * tr.units.scale)
                 for tr, td in zip(tranches, doc["tranches"])]
        vectors[side] = QuoteVector(tuple(uf for uf, _ in terms),
                                    tuple(s for _, s in terms))
    banded = any(_KEYS[side] in td for td in doc["tranches"] for side in ("bid", "ask"))
    return MarketSnapshot(
        as_of=str(doc.get("as_of", "")),
        schedule=sched,
        discount=disc,
        portfolio=port,
        index_spread=_finite(doc, "index_spread_bps") / 1e4,
        tranches=tuple(tranches),
        quotes=vectors["mid"],
        bid=vectors["bid"] if banded else None,
        ask=vectors["ask"] if banded else None,
    )


def load_snapshot(path):
    """Read a market snapshot from its JSON file; a malformed one raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return snapshot_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed snapshot: {exc}") from exc


def snapshot_to_dict(snap):
    doc = {
        "as_of": snap.as_of,
        "index_spread_bps": snap.index_spread * 1e4,
        "rate_pct": snap.discount.rate * 100.0,
        "recovery": snap.portfolio.recovery,
        "n_names": snap.portfolio.n,
        "schedule": {"freq": "quarterly", "years": snap.schedule.maturity},
        "tranches": [],
    }
    for l, tr in enumerate(snap.tranches):
        td = {"attach": tr.attach, "detach": tr.detach, "quote": tr.quote_kind}
        if tr.quote_kind == "upfront":
            td["fixed_running_bps"] = tr.running_spread * 1e4
        for side in SIDES if snap.bid is not None else ("mid",):
            td[_KEYS[side]] = snap.quote(l, side) * tr.units.display
        doc["tranches"].append(td)
    return doc
