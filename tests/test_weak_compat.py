"""Weak compatibility: feasibility verdicts, constraint blocks, quote bounds."""

import copy
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from cdo_compat import opt_backend, weak_compat
from cdo_compat.dpm_core import tail_sums, validate_dpm
from cdo_compat.market_model import snapshot_from_dict, snapshot_to_dict
from cdo_compat.opt_backend import (FEASIBILITY_TOL, LinearProgram, SolverError,
                                    SolveStatus, solve_lp)
from cdo_compat.strong_compat import (StrongFeasibilityProblem, iterative_verify,
                                      nonstandard_names_bounds, range_at_N,
                                      verify_strong_at_N, verify_strong_bid_ask)
from cdo_compat.tranche_valuation import (TrancheCoefficients, beta_coeffs,
                                          coefficients_for, expected_npv,
                                          gamma_coeff, lambda_coeffs)
from cdo_compat.weak_compat import (InfeasibleRegion, InvalidQuotes,
                                    UnboundedRatio, WeakFeasibilityProblem,
                                    _assemble, _bounds, _target, _verify,
                                    kink_states, nonstandard_tranche_bounds,
                                    structure_rows, verify_weak,
                                    verify_weak_bid_ask, weak_range)

from conftest import full_elastic_lp, tail_rows

INDEX_LIMIT_SPREAD_BPS = 57.49461928448669


def _with_quotes(snapshot, edits):
    raw = snapshot_to_dict(snapshot)
    for l, value in edits.items():
        raw["tranches"][l]["quote_value"] = value
    return snapshot_from_dict(raw)


def _torn_snapshot(snapshot):
    """Two copies of the equity tranche quoted at contradictory prices."""
    raw = snapshot_to_dict(snapshot)
    clone = copy.deepcopy(raw["tranches"][0])
    clone["quote_value"] = 50.0
    raw["tranches"].append(clone)
    return snapshot_from_dict(raw)


def _banded(snapshot, bands):
    raw = snapshot_to_dict(snapshot)
    for l, (bid, ask) in bands.items():
        raw["tranches"][l]["bid_value"] = bid
        raw["tranches"][l]["ask_value"] = ask
    return snapshot_from_dict(raw)


def test_market_snapshot_is_weakly_compatible(weak_result):
    assert weak_result.feasible
    assert weak_result.status is SolveStatus.FEASIBLE
    assert weak_result.law is not None


def test_certificate_reprices_every_tranche(snapshot, weak_result):
    for coeffs in coefficients_for(snapshot):
        assert abs(expected_npv(weak_result.law, coeffs)) < 1e-8


def test_certificate_matches_calibrated_marginals(snapshot, curve, weak_result):
    means = weak_result.law.means()
    np.testing.assert_allclose(means, 125 * curve.grid(snapshot.schedule),
                               atol=1e-7)


@pytest.mark.parametrize("edits", [
    pytest.param(None, id="torn"),
    # near the arbitrage-free boundary and far equity moves, where a
    # zero-objective feasibility LP ended in numerical failure
    pytest.param({0: 28.1}, id="equity-28.1"),
    pytest.param({0: 30.0}, id="equity-30"),
    pytest.param({0: 16.706295424899928}, id="equity-16.706"),
    pytest.param({0: 40.0}, id="equity-40"),
    pytest.param({2: 125.0}, id="6-12-at-125bp"),
])
@pytest.mark.parametrize("verify", [
    pytest.param(verify_weak, id="weak"),
    pytest.param(lambda snap: verify_strong_at_N(snap, 50), id="strong-50"),
])
def test_contradictory_quotes_are_infeasible(snapshot, verify, edits):
    snap = (_torn_snapshot(snapshot) if edits is None
            else _with_quotes(snapshot, edits))
    res = verify(snap)
    assert res.status is SolveStatus.INFEASIBLE
    assert not res.feasible and res.law is None
    assert len(res.slack) == snap.n_tranches
    assert max(abs(s) for s in res.slack) > opt_backend.FEASIBILITY_TOL


def test_verdicts_are_run_to_run_stable(snapshot):
    a = verify_weak(snapshot)
    b = verify_weak(snapshot)
    assert a.status == b.status
    np.testing.assert_array_equal(a.law.q, b.law.q)


def test_bid_ask_band_around_quotes_is_feasible(snapshot):
    banded = _banded(snapshot, {0: (28.2, 28.7), 1: (4.3, 4.8),
                                2: (105.0, 108.0), 3: (27.0, 28.0)})
    res = verify_weak_bid_ask(banded)
    assert res.feasible
    coeffs = coefficients_for(banded)
    for l, c in enumerate(coeffs):
        tr = banded.tranches[l]
        from cdo_compat.tranche_valuation import TrancheCoefficients
        cb = TrancheCoefficients.build(tr, banded.bid.upfront[l],
                                       banded.bid.spread[l], banded)
        ca = TrancheCoefficients.build(tr, banded.ask.upfront[l],
                                       banded.ask.spread[l], banded)
        assert expected_npv(res.law, cb) >= -1e-8
        assert expected_npv(res.law, ca) <= 1e-8


def test_missing_bands_raise(snapshot):
    with pytest.raises(InvalidQuotes):
        verify_weak_bid_ask(snapshot)


def test_crossed_bands_raise(snapshot):
    crossed = _banded(snapshot, {0: (28.7, 28.2), 1: (4.3, 4.8),
                                 2: (105.0, 108.0), 3: (27.0, 28.0)})
    with pytest.raises(InvalidQuotes):
        verify_weak_bid_ask(crossed)


@pytest.mark.parametrize("verify", [
    pytest.param(verify_weak_bid_ask, id="weak"),
    pytest.param(lambda snap: verify_strong_bid_ask(snap, 50), id="strong"),
])
@pytest.mark.parametrize("l, band, noun", [
    (0, (28.7, 28.2), "up-front"),
    (2, (108.0, 105.0), "spread"),
])
def test_a_crossed_band_names_its_kind_and_tranche(snapshot, verify, l, band, noun):
    bands = {0: (28.2, 28.7), 1: (4.3, 4.8), 2: (105.0, 108.0), 3: (27.0, 28.0)}
    with pytest.raises(InvalidQuotes, match=f"^crossed {noun} quotes on tranche {l}$"):
        verify(_banded(snapshot, {**bands, l: band}))


@pytest.mark.parametrize("verify", [
    pytest.param(verify_weak_bid_ask, id="weak"),
    # strong laws map into the weak polytope, so the bands conflict there too
    pytest.param(lambda snap: verify_strong_bid_ask(snap, 50), id="strong"),
])
def test_disjoint_duplicate_bands_are_infeasible(snapshot, verify):
    raw = snapshot_to_dict(snapshot)
    for l, (bid, ask) in {0: (10.0, 11.0), 1: (4.3, 4.8),
                          2: (105.0, 108.0), 3: (27.0, 28.0)}.items():
        raw["tranches"][l]["bid_value"] = bid
        raw["tranches"][l]["ask_value"] = ask
    clone = copy.deepcopy(raw["tranches"][0])
    clone["bid_value"], clone["ask_value"] = 40.0, 41.0
    raw["tranches"].append(clone)
    res = verify(snapshot_from_dict(raw))
    assert res.status is SolveStatus.INFEASIBLE
    assert not res.feasible


@pytest.mark.parametrize("verify, bid_ask", [
    pytest.param(verify_weak, False, id="weak"),
    pytest.param(verify_weak_bid_ask, True, id="weak-bid-ask"),
    pytest.param(lambda snap: verify_strong_at_N(snap, 50), False, id="strong"),
    pytest.param(lambda snap: verify_strong_bid_ask(snap, 50), True,
                 id="strong-bid-ask"),
])
def test_a_point_that_misses_the_quotes_is_a_solver_failure(snapshot, monkeypatch,
                                                            verify, bid_ask):
    # phase 1 says yes with every slack at zero on a law of ones: it
    # repairs to uniform rows, a valid law that prices no quote, so the
    # certificate check must refuse it instead of reporting a verdict
    def lying(rows, rhs, sides):
        return opt_backend.SolveResult(SolveStatus.FEASIBLE, np.ones(rows[0].size),
                                       0.0, extra={"slack": np.zeros(len(sides))})
    monkeypatch.setattr(opt_backend, "solve_path_elastic", lying)
    snap = _banded(snapshot, {0: (28.2, 28.7), 1: (4.3, 4.8), 2: (105.0, 108.0),
                              3: (27.0, 28.0)}) if bid_ask else snapshot
    res = verify(snap)
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert not res.feasible
    assert res.certificate.startswith(
        "solution violates a quote band by" if bid_ask
        else "solution misprices a tranche by")


# (tranche, quote in display units): the moves near the arbitrage-free
# boundary and far from it on which the full elastic LP once failed, then
# the senior far above its range
KNOWN_FAILING_MOVES = [(0, 28.1), (0, 30.0), (2, 125.0), (0, 16.706295424899928),
                       (0, 40.0)]
FAR_MOVES = [(3, 80.0), (3, 300.0)]


@pytest.mark.parametrize("move", [
    pytest.param(move, id=f"{move[0]}-{move[1]:.4g}")
    for move in KNOWN_FAILING_MOVES + FAR_MOVES] + ["torn"])
@pytest.mark.parametrize("verify", [
    pytest.param(verify_weak, id="weak"),
    pytest.param(lambda snap: verify_strong_at_N(snap, 50), id="strong-50"),
    pytest.param(lambda snap: verify_strong_at_N(snap, 100), id="strong-100"),
])
def test_every_no_carries_a_checked_bound(snapshot, verify, move):
    # a lower bound on the least total slack that trusts no solver: above
    # FEASIBILITY_TOL, so it proves the "no", and not above the total slack
    # of the law phase 1 found, but for rounding in the last digit
    snap = (_torn_snapshot(snapshot) if move == "torn"
            else _with_quotes(snapshot, {move[0]: move[1]}))
    res = verify(snap)
    assert res.status is SolveStatus.INFEASIBLE
    total = float(np.abs(res.slack).sum())
    assert FEASIBILITY_TOL < res.bound <= total * (1 + 1e-12)
    assert f"(checked lower bound {res.bound:.3e})" in res.certificate


def test_a_no_without_a_checked_bound_is_a_solver_failure(snapshot, monkeypatch):
    monkeypatch.setattr(opt_backend, "_elastic_bound", lambda *args: FEASIBILITY_TOL)
    res = verify_weak(_torn_snapshot(snapshot))
    assert res.status is SolveStatus.NUMERICAL_FAILURE
    assert (res.law, res.slack, res.bound) == (None, None, None)
    assert res.certificate.endswith("but its checked lower bound is 1.000e-08")


def _monotonicity_rows(m, n):
    _, _, a_ub, b_ub = structure_rows(m, np.arange(n + 1.0), np.zeros(m))
    return a_ub, b_ub


def test_monotonicity_block_signs():
    m, n = 3, 2
    a_ub, b_ub = _monotonicity_rows(m, n)
    assert a_ub.shape == ((m - 1) * n, m * (n + 1))
    assert np.all(b_ub == 0.0)
    good = np.array([[0.8, 0.1, 0.1],
                     [0.6, 0.2, 0.2],
                     [0.5, 0.2, 0.3]])
    assert np.max(a_ub @ good.ravel()) <= 1e-15
    bad = good[::-1]
    assert np.max(a_ub @ bad.ravel()) > 0.0
    # on unit rows, row (i, j) is Theta_{i,j} - Theta_{i+1,j}, checked bit
    # for bit on a valid law in 64ths, whose partial sums are all exact:
    # distinct tail sums, strictly decreasing in j and increasing in i
    m, n = 4, 6
    rng = np.random.default_rng(11)
    ranked = np.sort(rng.choice(np.arange(1, 64), size=m * n, replace=False))
    tails = np.hstack([np.full((m, 1), 64), ranked.reshape(n, m)[::-1].T])
    q = np.diff(np.hstack([tails, np.zeros((m, 1), int)]), axis=1) / -64.0
    assert validate_dpm(q).valid
    a_ub, b_ub = _monotonicity_rows(m, n)
    theta = tail_sums(q)
    np.testing.assert_array_equal(a_ub @ q.ravel(),
                                  (theta[:-1, 1:] - theta[1:, 1:]).ravel())
    assert b_ub.shape == (a_ub.shape[0],)
    # one date leaves nothing to compare
    a_one, b_one = _monotonicity_rows(1, n)
    assert a_one.shape == (0, n + 1) and b_one.shape == (0,)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(strong=st.booleans(), N=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       t=st.sampled_from([1.0, 0.0, 0.37, 4.0]) | st.floats(0.01, 10.0))
def test_assembled_monotonicity_rows_equal_the_tail_rows_and_are_shorter(
        snapshot, strong, N, seed, t):
    # on points whose date rows share one sum t, as mid-quote and elastic
    # LPs (t = 1) and Charnes-Cooper LFPs (t > 0) keep them, each assembled
    # row is its tail-sum row; row j has min(j, S - j) entries per date
    rng = np.random.default_rng(seed)
    n = snapshot.portfolio.n
    problem = (StrongFeasibilityProblem.from_snapshot(snapshot, N) if strong else
               _over(snapshot, np.union1d([0, n], rng.choice(n + 1, N, replace=False))))
    m, S = problem.m, len(problem.states)
    tail = tail_rows(m, S - 1)
    rows = problem.A_ub[:tail.shape[0]]
    np.testing.assert_array_equal(problem.b_ub[:tail.shape[0]], 0.0)
    x = rng.random((m, S))
    x *= t / x.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(rows @ x.ravel(), tail @ x.ravel(), rtol=0, atol=1e-12)
    j = np.tile(np.arange(1, S), m - 1)
    np.testing.assert_array_equal(np.diff(rows.indptr), 2 * np.minimum(j, S - j))


def test_the_strong_n100_polytope_has_half_the_monotonicity_nonzeros(snapshot):
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, 100)
    m = problem.m
    assert tail_rows(m, 100).nnz == 191_900
    assert problem.A_ub[:(m - 1) * 100].nnz == 96_900


def test_marginal_blocks_reproduce_row_sums_and_means():
    m, n = 3, 2
    means = np.array([0.3, 0.4, 0.5])
    a_eq, b_eq, _, _ = structure_rows(m, np.arange(n + 1.0), means)
    q = np.array([[0.8, 0.1, 0.1],
                  [0.6, 0.2, 0.2],
                  [0.5, 0.2, 0.3]])
    got = a_eq @ q.ravel()
    np.testing.assert_allclose(got[:m], 1.0)
    np.testing.assert_allclose(got[m:], q @ np.arange(n + 1))
    np.testing.assert_allclose(b_eq, np.concatenate([np.ones(m), means]))
    assert a_eq.nnz == 2 * m * (n + 1) - m  # no stored zeros at j = 0


def test_index_tranche_bounds_pin_the_portfolio_spread(snapshot):
    lo, hi = nonstandard_tranche_bounds(snapshot, 0.0, 1.0, "spread")
    assert lo * 1e4 == pytest.approx(INDEX_LIMIT_SPREAD_BPS, abs=1e-6)
    assert hi * 1e4 == pytest.approx(INDEX_LIMIT_SPREAD_BPS, abs=1e-6)


def test_quoted_tranche_bounds_pin_to_the_quote(snapshot):
    # the tranche's own pricing equality is part of the polytope, so the
    # interval collapses onto the quoted spread up to solver precision
    lo, hi = nonstandard_tranche_bounds(snapshot, 0.06, 0.12, "spread")
    assert lo == pytest.approx(106.32e-4, abs=1e-10)
    assert hi == pytest.approx(106.32e-4, abs=1e-10)
    # an unquoted mezzanine slice gets a proper interval
    lo2, hi2 = nonstandard_tranche_bounds(snapshot, 0.04, 0.08, "upfront",
                                          fixed_running=0.01)
    assert lo2 < hi2


def test_bounds_on_infeasible_quotes_raise(snapshot):
    torn = _torn_snapshot(snapshot)
    with pytest.raises(InfeasibleRegion):
        nonstandard_tranche_bounds(torn, 0.0, 0.05, "spread")


@pytest.mark.parametrize("kind", ["upfront", "spread"])
def test_the_torn_snapshot_is_empty_in_path_form(snapshot, monkeypatch, kind):
    # phase 1 of the path master finds no mixture that prices both equity
    # quotes; no bound LP goes to linprog
    ends, lps = [], []
    real_master, real_linprog = opt_backend.solve_path_lfp, opt_backend.linprog

    def master(*args, **kwargs):
        ends.extend(real_master(*args, **kwargs))
        return ends[-2:]

    def linprog(*args, **kwargs):
        lps.append(args)
        return real_linprog(*args, **kwargs)
    monkeypatch.setattr(opt_backend, "solve_path_lfp", master)
    monkeypatch.setattr(opt_backend, "linprog", linprog)
    with pytest.raises(InfeasibleRegion, match="DPM polytope is empty"):
        nonstandard_tranche_bounds(_torn_snapshot(snapshot), 0.0, 0.05, kind,
                                   fixed_running=0.01)
    assert [res.status for res in ends] == [SolveStatus.INFEASIBLE] * 2
    assert lps == []


@pytest.mark.parametrize("bound", [
    lambda snap: nonstandard_tranche_bounds(snap, 0.04, 0.08, "upfront",
                                            fixed_running=0.01),
    lambda snap: range_at_N(snap, [1, 2, 3], 0, 50),
], ids=["tranche", "range"])
def test_an_unchecked_empty_region_is_a_solver_failure(snapshot, monkeypatch, bound):
    # a bound's phase 1 that says "no law" on the fixture, whose polytope is
    # not empty: the elastic LP on the same rows does not confirm it, so no
    # InfeasibleRegion is raised
    def lying(*args):
        res = opt_backend.SolveResult(SolveStatus.INFEASIBLE,
                                      message="no path mixture meets the rows")
        return res, res
    monkeypatch.setattr(opt_backend, "solve_path_lfp", lying)
    with pytest.raises(SolverError, match="did not confirm it: feasible"):
        bound(snapshot)


@pytest.mark.parametrize("phase", ["phase-1", "phase-2"])
@pytest.mark.parametrize("kind", ["upfront", "spread"])
def test_a_master_that_ends_non_optimal_is_a_solver_failure(snapshot, monkeypatch,
                                                            kind, phase):
    # the fixture's polytope is not empty: a master run that ends
    # "infeasible" anyway, in phase 1 or in the min solve after it, is a
    # solver failure, never an empty region
    class Failing(opt_backend.highs._Highs):
        costs_changed = False

        def changeColsCost(self, *args):
            self.costs_changed = True
            return super().changeColsCost(*args)

        def getModelStatus(self):
            if self.costs_changed == (phase == "phase-2"):
                return opt_backend.highs.HighsModelStatus.kInfeasible
            return super().getModelStatus()

    monkeypatch.setattr(opt_backend, "highs", types.SimpleNamespace(
        **{**vars(opt_backend.highs), "_Highs": Failing}))
    with pytest.raises(SolverError, match="path master: model status Infeasible"):
        nonstandard_tranche_bounds(snapshot, 0.04, 0.08, kind,
                                   fixed_running=0.01)


def test_no_bound_builds_the_monotonicity_rows(snapshot, monkeypatch):
    # no verdict, range or bound in the package builds the full polytope; only
    # the hedge's entropy program writes the structure rows
    def refuse(*args):
        raise AssertionError("the full polytope was built")
    monkeypatch.setattr(weak_compat, "structure_rows", refuse)
    range_at_N(snapshot, [1, 2, 3], 0, 50)
    nonstandard_names_bounds(snapshot, 50, 100, 0.06, 0.12, "spread")
    nonstandard_tranche_bounds(snapshot, 0.04, 0.08, "upfront", fixed_running=0.01)
    weak_range(snapshot, [0, 1, 2], 3)
    banded = _banded(snapshot, {0: (28.2, 28.7), 1: (4.3, 4.8), 2: (105.0, 108.0),
                                3: (27.0, 28.0)})
    for verdict in (verify_weak(snapshot), verify_weak(_torn_snapshot(snapshot)),
                    verify_weak_bid_ask(banded), verify_strong_at_N(snapshot, 50),
                    verify_strong_bid_ask(banded, 50)):
        assert verdict.status is not SolveStatus.NUMERICAL_FAILURE
    assert iterative_verify(snapshot, (50, 75)).compatible
    with pytest.raises(AssertionError, match="full polytope"):
        WeakFeasibilityProblem.from_snapshot(snapshot).A_eq


def _full_polytope_range(snapshot, problem, tranche):
    """The tranche's quote range over the full polytope, in display units.

    An up-front quote is affine in the law: one LP per end. A spread is the
    Charnes-Cooper LP in (y, t) = (t x, t): the rows made homogeneous, and
    the outstanding-notional annuity times t equal to 1.
    """
    sched, disc = snapshot.schedule, snapshot.discount
    loss = problem.H.T @ beta_coeffs(tranche, snapshot.portfolio)
    if tranche.quote_kind == "upfront":
        run = tranche.running_spread
        gamma0 = gamma_coeff(tranche, 0.0, run, sched, disc)
        ends = [solve_lp(LinearProgram(
            c=np.outer(lambda_coeffs(run, sched, disc), loss).ravel(), sense=sense,
            A_ub=problem.A_ub, b_ub=problem.b_ub, A_eq=problem.A_eq,
            b_eq=problem.b_eq)).objective for sense in ("min", "max")]
        return [(end - gamma0) / tranche.width * 100.0 for end in ends]
    acc_disc = disc(np.asarray(sched.payment_dates)) * sched.accruals
    den = np.append(-np.outer(acc_disc, loss).ravel(), tranche.width * acc_disc.sum())
    A_eq = sp.vstack([sp.hstack([problem.A_eq, -problem.b_eq[:, None]]),
                      sp.csr_matrix(den[None, :])])
    ends = [solve_lp(LinearProgram(
        c=np.append(np.outer(lambda_coeffs(0.0, sched, disc), loss).ravel(), 0.0),
        A_ub=sp.hstack([problem.A_ub, -problem.b_ub[:, None]]),
        b_ub=np.zeros(problem.A_ub.shape[0]),
        A_eq=A_eq, b_eq=np.append(np.zeros(problem.A_eq.shape[0]), 1.0),
        sense=sense)).objective for sense in ("min", "max")]
    return [end * 1e4 for end in ends]


@pytest.mark.parametrize("form, l, tol", [
    # measured: strong N=50 ends within 1.6e-7, weak ends within 3.6e-12
    pytest.param(form, l, tol, id=f"{form}-{l}")
    for form, tol in (("strong", 1e-6), ("weak", 1e-10)) for l in range(4)])
def test_path_form_agrees_with_the_full_polytope(snapshot, form, l, tol):
    # each tranche's range over the laws that price the other three, in
    # display units (pct, bp), against the full polytope's LPs at HiGHS's
    # default tolerances
    others = [k for k in range(4) if k != l]
    if form == "strong":
        problem = StrongFeasibilityProblem.from_snapshot(snapshot, 50, priced=others)
        got = range_at_N(snapshot, others, l, 50)
    else:
        problem = WeakFeasibilityProblem.from_snapshot(snapshot, priced=others)
        got = weak_range(snapshot, others, l)
    scale = 100.0 if snapshot.tranches[l].quote_kind == "upfront" else 1e4
    ref = _full_polytope_range(snapshot, problem, snapshot.tranches[l])
    np.testing.assert_allclose(np.multiply(got, scale), ref, rtol=0, atol=tol)


def test_bounds_reject_bad_inputs(snapshot):
    with pytest.raises(ValueError):
        nonstandard_tranche_bounds(snapshot, 0.05, 0.03, "spread")
    with pytest.raises(ValueError):
        nonstandard_tranche_bounds(snapshot, 0.0, 0.05, "price")


# Exactness of the kink states: the weak LPs over K against the same LPs over
# every default count (K = 0..n, the oracle).

def _over(snapshot, states, bid_ask=False):
    """The weak polytope over the default counts ``states``."""
    return _assemble(WeakFeasibilityProblem, snapshot,
                     np.eye(snapshot.portfolio.n + 1)[:, states],
                     np.asarray(states, float), range(snapshot.n_tranches), bid_ask)


def _all_states(snapshot, bid_ask, target):
    return _over(snapshot, np.arange(snapshot.portfolio.n + 1), bid_ask)


def _kink_states(snapshot, bid_ask, target):
    return WeakFeasibilityProblem.from_snapshot(snapshot, bid_ask, target)


def _weak_answers(snapshot, problem, targets):
    """Verdict and total elastic slack per quote kind, then each target's bounds.

    ``problem(snapshot, bid_ask, target)`` gives the polytope; a bound that
    raises is answered by the exception's name. Verdicts and bounds are
    solved in path form, whose laws meet their rows within FEASIBILITY_TOL
    or are not answers.
    """
    out = []
    for bid_ask in (False, True) if snapshot.bid is not None else (False,):
        verdict = _verify(snapshot, problem(snapshot, bid_ask, None))
        out.append((verdict.status, None if verdict.slack is None
                    else float(np.abs(verdict.slack).sum())))
    for target in targets:
        p = problem(snapshot, False, target)
        try:
            out.append(_bounds(snapshot, p, target,
                               p.H.T @ beta_coeffs(target, snapshot.portfolio)))
        except (InfeasibleRegion, UnboundedRatio, SolverError) as exc:
            out.append(type(exc).__name__)
    return out


def _gap(a, b):
    """Largest difference between two `_weak_answers`; inf where they disagree in kind."""
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, str) or isinstance(y, str):
            worst = max(worst, 0.0 if x == y else np.inf)
        elif isinstance(x[0], SolveStatus):
            if x[0] is not y[0] or (x[1] is None) != (y[1] is None):
                return np.inf
            worst = max(worst, 0.0 if x[1] is None else abs(x[1] - y[1]))
        else:
            worst = max(worst, float(np.max(np.abs(np.subtract(x, y)))))
    return worst


def _targets(attach, detach):
    return [_target(attach, detach, "upfront", 0.01), _target(attach, detach, "spread", 0.0)]


def _fair_quote(snapshot, l, q):
    """Tranche l's quote (display units) at which the law q prices it at zero value."""
    tr = snapshot.tranches[l]
    upfront = tr.quote_kind == "upfront"

    def value(x):
        return expected_npv(q, TrancheCoefficients.build(
            tr, x if upfront else 0.0, tr.running_spread if upfront else x, snapshot))
    v0 = value(0.0)
    return -v0 / (value(1.0) - v0) * (100.0 if upfront else 1e4)


@st.composite
def _kinked_snapshots(draw):
    """A pool, 2-5 tranche edges (some on integer kinks), quotes and a target.

    The quotes are those of a two-point binomial mixture with the calibrated
    means, each moved by a drawn fraction, so some lie inside the range of
    the other quotes and some outside it; so do the optional bid/ask bands.
    """
    recovery = draw(st.sampled_from([0.0, 0.4]) | st.floats(0.05, 0.7))
    n = draw(st.integers(10, 200))

    def edge():
        if draw(st.booleans()):
            return draw(st.integers(1, n - 1)) * (1.0 - recovery) / n
        return draw(st.floats(0.001, 0.5))
    points = np.unique([0.0] + [edge() for _ in range(draw(st.integers(2, 5)))])
    points = points[np.concatenate([[True], np.diff(points) > 1e-4])]
    kinds = [draw(st.sampled_from(["upfront", "spread"])) for _ in points[1:]]
    raw = {"index_spread_bps": draw(st.floats(20.0, 300.0)), "rate_pct": 2.0,
           "recovery": recovery, "n_names": n,
           "schedule": {"freq": "quarterly", "years": draw(st.sampled_from([1, 2]))},
           "tranches": [{"attach": a, "detach": d, "quote": kind,
                         "fixed_running_bps": 100.0, "quote_value": 0.0}
                        for a, d, kind in zip(points[:-1], points[1:], kinds)]}
    snap = snapshot_from_dict(raw)
    spread = draw(st.floats(0.0, 0.9))
    j = np.arange(n + 1)
    q = np.array([0.5 * binom.pmf(j, n, f * (1 - spread))
                  + 0.5 * binom.pmf(j, n, f * (1 + spread))
                  for f in snap.curve.grid(snap.schedule)])
    moves = st.sampled_from([0.0, 0.0, 0.01, -0.01, 0.2, -0.2])
    bands = draw(st.booleans())
    for l, tranche in enumerate(raw["tranches"]):
        fair = _fair_quote(snap, l, q)
        tranche["quote_value"] = fair * (1 + draw(moves))
        if bands:
            mid = fair * (1 + draw(moves))
            half = abs(fair) * draw(st.sampled_from([0.001, 0.02]))
            tranche["bid_value"], tranche["ask_value"] = mid - half, mid + half
    attach = draw(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.001, 0.3))
    if attach == 1.0:  # on an integer kink
        attach = draw(st.integers(1, n - 1)) * (1.0 - recovery) / n
    detach = attach + draw(st.floats(0.005, 0.3))
    return snapshot_from_dict(raw), _targets(attach, min(detach, 1.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_kinked_snapshots())
def test_kink_states_give_the_answers_of_every_count(case):
    # the verdicts, the total elastic slacks and the upfront and spread
    # bounds of a target tranche over K equal those over all n + 1 counts
    snapshot, targets = case
    kinks = _weak_answers(snapshot, _kink_states, targets)
    every = _weak_answers(snapshot, _all_states, targets)
    assert _gap(kinks, every) <= 1e-9, (kinks, every)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_kinked_snapshots(), st.sampled_from([None, 2, 3, 5]), st.booleans())
def test_path_form_verdicts_agree_with_the_full_elastic_lp(case, N, bands):
    # the verdict in path form against the elastic LP over the full polytope,
    # weak (N None) or strong at a small N, at mid quotes or at the bands: the
    # same status, and the same least total slack. Over 300 such draws the
    # totals were at most 4.9e-11 apart, where the full LP at HiGHS's
    # default 1e-7 tolerances stops short of its optimum
    snapshot, _ = case
    bid_ask = bands and snapshot.bid is not None
    problem = (WeakFeasibilityProblem.from_snapshot(snapshot, bid_ask) if N is None
               else StrongFeasibilityProblem.from_snapshot(snapshot, N, bid_ask=bid_ask))
    verdict = _verify(snapshot, problem)
    ref = solve_lp(full_elastic_lp(problem))
    n, k = problem.A_eq.shape[1], problem.n_quotes
    slack = ref.x[n:] if bid_ask else ref.x[n:n + k] - ref.x[n + k:]
    assert verdict.status is (SolveStatus.INFEASIBLE
                              if np.max(np.abs(slack), initial=0.0) > FEASIBILITY_TOL
                              else SolveStatus.FEASIBLE)
    assert float(np.abs(verdict.slack).sum()) == pytest.approx(ref.objective, rel=0,
                                                              abs=2e-10)


@pytest.mark.parametrize("attach, detach, dropped", [
    (0.04, 0.08, 6),   # the floor of the equity detachment's kink 6.25
    (0.02, 0.10, 25),  # the integer kink 0.12 * 125 / 0.6 of the 6-12% detachment
])
def test_dropping_a_kink_state_changes_the_answers(snapshot, attach, detach, dropped):
    # the oracle comparison sees a missing kink state: without it the
    # target's bounds move
    targets = _targets(attach, detach)
    states = kink_states(snapshot.portfolio, list(snapshot.tranches) + targets[:1])
    assert dropped in states

    def without(snap, bid_ask, target):
        return _over(snap, states[states != dropped], bid_ask)
    every = _weak_answers(snapshot, _all_states, targets)
    assert _gap(_weak_answers(snapshot, _kink_states, targets), every) <= 1e-9
    assert _gap(_weak_answers(snapshot, without, targets), every) > 1e-6


def test_the_fixture_poses_the_weak_lp_on_seven_states_per_date(snapshot):
    assert kink_states(snapshot.portfolio, snapshot.tranches).tolist() == [
        0, 6, 7, 12, 13, 25, 125]
    problem = WeakFeasibilityProblem.from_snapshot(snapshot)
    assert problem.A_eq.shape[1] == problem.A_ub.shape[1] == 7 * 20
