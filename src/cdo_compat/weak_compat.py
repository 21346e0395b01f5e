"""The default-count polytope under a column map, and weak compatibility.

Weak and strong compatibility are one linear system over the default-count
law q, posed over two sets of columns, each mapped onto q = p H' by an
(n + 1)-row matrix H. Strong poses it over a generator law p at resolution
N, N + 1 states per date, through the beta-binomial matrix h of
`strong_compat`: H = h. Weak poses it over the kink states K of the n + 1
default counts, H the selection of those columns: K holds 0, n and the
floor and ceiling of every loss kink x = t n / (1 - R), 0 < x < n, t an
attachment or detachment of a quoted tranche or of a bound's target. The
restriction is exact. Every weak row (unit row sums, the means, each
quote's and a target's loss beta) is affine in j between adjacent states
of K. Splitting the mass at j onto those two states in the proportions
that keep j's mean is a stochastically monotone kernel (Shaked and
Shanthikumar, Stochastic Orders, 2007, ch. 1.A), so it keeps tail sums
ordered across dates and every row's value. So a law over all counts and
its image over K meet the same rows, every law over K is one over all
counts, and the LPs over K have the same verdicts, optima and elastic
slacks as over all n + 1 counts.

This module assembles that polytope once for both maps: the structure
rows of `structure_rows`, which the hedge's entropy program shares (unit
row sums, marginal means sum_c s_c p_ic = s_last F(T_i) over the columns'
state values s, the last state the whole pool, and non-decreasing tail
sums), non-negativity, and one pricing row ``outer(lambda, H' beta)`` per quote,
an equality at a mid quote or a pair of inequalities for a bid/ask band.
Both questions share the rest too: the elastic decision LP, which gives
each quote row a non-negative slack and minimizes their total, with its
certificate check (repair, validate, map through H, reprice) and its
`Verdict`, whose law is the default-count `DPM` q under the weak map and
the generator law p under h; and quote bounds for a tranche that is not
quoted, an LP for up-front quotes and a linear fractional program for
running spreads.
`WeakFeasibilityProblem` selects the kink states here;
`strong_compat.StrongFeasibilityProblem` selects H = h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import opt_backend
from .dpm_core import DPM, InvalidDPM, repair_structure
from .market_model import TrancheSpec
from .opt_backend import (DegenerateDenominator, LinearProgram, SolveResult,
                          SolveStatus, SolverError)
from .tranche_valuation import (TrancheCoefficients, beta_coeffs,
                                expected_npv, gamma_coeff, lambda_coeffs)


class InvalidQuotes(ValueError):
    """Bid/ask quotes missing or crossed."""


class InfeasibleRegion(RuntimeError):
    """The polytope for this snapshot is empty."""


class UnboundedRatio(RuntimeError):
    """The spread program's denominator can collapse on the feasible region."""


def structure_rows(m, states, means):
    """The rows every program shares over m dates of one column per state.

    ``states`` holds each column's state value s_c, ``means`` the m
    marginal means. Returns ``(A_eq, b_eq, A_ub, b_ub)``: the unit row
    sums and the means sum_c s_c x_ic = means_i as equalities, and the
    non-decreasing tail sums as inequalities. Row (i, j) of A_ub takes the
    shorter of two equal forms over the S states of a date. One is the
    tail-sum difference Theta_{i,j} - Theta_{i+1,j} over states j..S-1.
    Where j < S - j, the row less the difference of dates i and i+1's
    unit-row-sum rows is shorter: date i+1's sum over states 0..j-1 less
    date i's. So row j has min(j, S - j) entries per date, and on 20
    dates the block has 96,900 nonzeros at S = 101 (191,900 in tail form).
    The forms agree on every point whose date rows share one sum: the unit
    row sums hold it at 1 in the LPs and the entropy program, and the
    Charnes-Cooper LFP's y = t x gives each date row the sum t.
    """
    S = len(states)
    dates = sp.eye(m)
    A_eq = sp.vstack([sp.kron(dates, np.ones(S)), sp.kron(dates, states)],
                     format="csr")
    A_eq.eliminate_zeros()  # the state-0 mean coefficients
    # one date's rows: ones on states j..S-1, less its row sum where j < S - j
    j, k = np.arange(1, S)[:, None], np.arange(S)
    per_date = (k >= j) - 1.0 * (j < S - j)
    A_ub = sp.kron(sp.eye(m - 1, m) - sp.eye(m - 1, m, k=1), per_date, format="csr")
    return A_eq, np.concatenate([np.ones(m), means]), A_ub, np.zeros(A_ub.shape[0])


def kink_states(portfolio, tranches):
    """K: 0, n and the floor and ceiling of each loss kink x = t n / (1 - R).

    t runs over the tranches' attachments and detachments; kinks outside
    0 < x < n add nothing. Every tranche loss is affine in j between
    adjacent states of K. Plain floor and ceiling: an x that rounds to
    either side of an integer kink still yields that integer.
    """
    n = portfolio.n
    x = np.array([t for tr in tranches for t in (tr.attach, tr.detach)])
    x = x * n / (1.0 - portfolio.recovery)
    x = x[(x > 0) & (x < n)]
    return np.unique(np.concatenate([[0, n], np.floor(x), np.ceil(x)]).astype(int))


def _check_not_crossed(tranche, bid, ask, l):
    if tranche.quote_kind == "upfront":
        if bid.upfront[l] > ask.upfront[l]:
            raise InvalidQuotes(f"crossed up-front quotes on tranche {l}")
    elif bid.spread[l] > ask.spread[l]:
        raise InvalidQuotes(f"crossed spread quotes on tranche {l}")


def _quote_constraints(snapshot, priced, bid_ask):
    """``(coeffs, side)`` per quote constraint on the seller value v.

    v = lam' q beta - gamma. ``side`` 0 asks v = 0 at the mid quote. A
    bid/ask band gives two rows with side * v <= 0: side -1 keeps v >= 0
    at the bid, side +1 keeps v <= 0 at the ask.
    """
    if not bid_ask:
        return [(TrancheCoefficients.from_snapshot(snapshot, l), 0) for l in priced]
    bid, ask = snapshot.bid, snapshot.ask
    if bid is None or ask is None:
        raise InvalidQuotes("snapshot carries no bid/ask quotes")
    out = []
    for l in priced:
        tr = snapshot.tranches[l]
        _check_not_crossed(tr, bid, ask, l)
        out.append((TrancheCoefficients.build(tr, bid.upfront[l], bid.spread[l],
                                              snapshot), -1))
        out.append((TrancheCoefficients.build(tr, ask.upfront[l], ask.spread[l],
                                              snapshot), 1))
    return out


@dataclass
class _Polytope:
    """Constraint blocks A_eq x = b_eq, A_ub x <= b_ub, x >= 0 of one snapshot.

    ``x`` holds m rows of one column per state: column c has the state
    value ``states[c]`` and maps onto the default counts through column c
    of the (n + 1)-row matrix ``H``, q = p H'. ``generator`` says whether
    the columns' law p is the certificate (a generator law) or q is. The
    last ``n_quotes`` rows of A_ub (``bands``) or of A_eq (mid quotes) are
    the quote rows.
    """

    A_eq: object
    b_eq: np.ndarray
    A_ub: object
    b_ub: np.ndarray
    m: int
    H: np.ndarray
    states: np.ndarray
    n_quotes: int
    bands: bool
    generator = False


def _assemble(cls, snapshot, H, states, priced, bid_ask):
    """`structure_rows` (the last state is the whole pool), then the quote rows.

    Equalities are the marginals then the mid quotes; inequalities the
    monotonicity rows then the bands.
    """
    m = snapshot.schedule.m
    A_eq, b_eq, A_ub, b_ub = structure_rows(
        m, states, states[-1] * snapshot.curve.grid(snapshot.schedule))
    eq_rows, eq_rhs = [A_eq], [b_eq]
    ub_rows, ub_rhs = [A_ub], [b_ub]
    constraints = _quote_constraints(snapshot, priced, bid_ask)
    for coeffs, side in constraints:
        row = np.outer(coeffs.lam, H.T @ coeffs.beta).ravel()
        if side == 0:
            eq_rows.append(sp.csr_matrix(row[None, :]))
            eq_rhs.append(np.array([coeffs.gamma]))
        else:
            ub_rows.append(sp.csr_matrix(side * row[None, :]))
            ub_rhs.append(np.array([side * coeffs.gamma]))
    return cls(A_eq=sp.vstack(eq_rows, format="csr"), b_eq=np.concatenate(eq_rhs),
               A_ub=sp.vstack(ub_rows, format="csr"), b_ub=np.concatenate(ub_rhs),
               m=m, H=H, states=states, n_quotes=len(constraints), bands=bid_ask)


class WeakFeasibilityProblem(_Polytope):
    """The polytope over DPM entries at the kink states that price quoted tranches.

    ``priced`` lists the quoted tranches priced, all of them by default.
    ``target``, a tranche to bound, adds its own kinks to the states.
    """

    @classmethod
    def from_snapshot(cls, snapshot, bid_ask=False, target=None, priced=None):
        if priced is None:
            priced = range(snapshot.n_tranches)
        tranches = list(snapshot.tranches) + ([] if target is None else [target])
        states = kink_states(snapshot.portfolio, tranches)
        return _assemble(cls, snapshot, np.eye(snapshot.portfolio.n + 1)[:, states],
                         states.astype(float), priced, bid_ask)


@dataclass
class Verdict:
    """Verification outcome; ``law`` (q, or p at resolution N) is the certificate.

    ``slack`` holds, per quote constraint in `_quote_constraints` order, the
    seller value v that the elastic LP leaves it with: 0 where the quote is
    met, positive where the quote is too low and negative where it is too
    high. It is None when no verdict was reached (numerical failure).
    """

    status: SolveStatus
    law: DPM | None
    certificate: str
    slack: list | None

    @property
    def feasible(self):
        return self.status is SolveStatus.FEASIBLE


def _elastic(problem):
    """The polytope with a non-negative slack on each quote row.

    Marginal and monotonicity rows stay exact; a mid-quote row gets one
    slack per sign (v = s_up - s_down), a band row one on its own side
    (side * v <= s). The objective is the total slack in value units, so
    the LP is always feasible and bounded below (Chinneck's elastic
    filter). Returns the decision, INFEASIBLE when a row needs more than
    FEASIBILITY_TOL of slack, and the rows' slacks (None if the solve failed).
    """
    k, n = problem.n_quotes, problem.A_eq.shape[1]
    signs = (1.0,) if problem.bands else (1.0, -1.0)
    quoted, other = ((problem.A_ub, problem.A_eq) if problem.bands
                     else (problem.A_eq, problem.A_ub))
    own = sp.vstack([sp.csr_matrix((quoted.shape[0] - k, k)), sp.identity(k)])
    cols = sp.hstack([-sign * own for sign in signs])
    none = sp.csr_matrix((other.shape[0], cols.shape[1]))
    ub, eq = (cols, none) if problem.bands else (none, cols)
    res = opt_backend.solve_lp(LinearProgram(
        c=np.concatenate([np.zeros(n), np.ones(cols.shape[1])]),
        A_ub=sp.hstack([problem.A_ub, ub], format="csr"), b_ub=problem.b_ub,
        A_eq=sp.hstack([problem.A_eq, eq], format="csr"), b_eq=problem.b_eq,
        bounds=(0, None)))
    if res.status is not SolveStatus.OPTIMAL:
        return SolveResult(SolveStatus.NUMERICAL_FAILURE, message=res.message), None
    slack = np.asarray(signs) @ res.x[n:].reshape(len(signs), k)
    if np.max(np.abs(slack), initial=0.0) > opt_backend.FEASIBILITY_TOL:
        return SolveResult(SolveStatus.INFEASIBLE, message=(
            f"no law prices every quote: total slack {np.abs(slack).sum():.3e}")), slack
    return SolveResult(SolveStatus.FEASIBLE, res.x[:n], message=res.message), slack


def _largest_slack(snapshot, slack, bid_ask):
    """The quote constraint with the largest slack, in its quote's units.

    Up-front quotes move gamma by the width per unit, so the slack over the
    width is exact. A spread moves gamma by width * sum_i D(T_i) dT_i, the
    riskless annuity, but v by the smaller risky one, so the bp figure is a
    lower bound.
    """
    i = int(np.argmax(np.abs(slack)))
    l, side = (i // 2, ("bid", "ask")[i % 2]) if bid_ask else (i, "quote")
    tranche, v = snapshot.tranches[l], slack[i]
    upfront = tranche.quote_kind == "upfront"
    unit = gamma_coeff(tranche, float(upfront), float(not upfront),
                       snapshot.schedule, snapshot.discount)
    size = (f"{abs(v) / unit * 100:.4f} pct of width" if upfront else
            f"at least {abs(v) / unit * 1e4:.4f} bp (over the riskless annuity)")
    return (f"largest slack: tranche {tranche.label} {side} too "
            f"{'low' if v > 0 else 'high'} by {size}")


def _verify(snapshot, problem, bid_ask):
    """Decide with the elastic LP and check its point as a certificate.

    Returns the `Verdict`. The point is
    repaired, validated as a law, mapped onto q = p H' and repriced against
    every quote; one that fails validation or misses a quote by more
    than FEASIBILITY_TOL is a solver failure, never a verdict.
    """
    res, slack = _elastic(problem)
    constraints = _quote_constraints(snapshot, range(snapshot.n_tranches), bid_ask)
    if slack is not None:  # + 0.0 turns a bid row's -0.0 into 0.0
        slack = [float(s) * (side or 1) + 0.0
                 for s, (_, side) in zip(slack, constraints)]
    if res.status is SolveStatus.INFEASIBLE:
        return Verdict(SolveStatus.INFEASIBLE, None,
                       f"{res.message}; {_largest_slack(snapshot, slack, bid_ask)}",
                       slack)
    if res.status is not SolveStatus.FEASIBLE:
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None, res.message, None)
    try:
        law = DPM(repair_structure(res.x.reshape(problem.m, -1)))
        dpm = DPM(law.q @ problem.H.T)
    except InvalidDPM as exc:
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None,
                       f"solution failed validation: {exc}", None)
    worst = 0.0
    for coeffs, side in constraints:
        v = expected_npv(dpm, coeffs)
        worst = max(worst, side * v if side else abs(v))
    if worst > opt_backend.FEASIBILITY_TOL:
        what = "violates a quote band" if bid_ask else "misprices a tranche"
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None,
                       f"solution {what} by {worst:.3e}", None)
    what = "band violation" if bid_ask else "repricing error"
    return Verdict(SolveStatus.FEASIBLE, law if problem.generator else dpm,
                   f"{res.message}; worst {what} {worst:.3e}", slack)


def verify_weak(snapshot):
    """Decide weak compatibility; a Feasible result carries a certifying DPM."""
    problem = WeakFeasibilityProblem.from_snapshot(snapshot)
    return _verify(snapshot, problem, bid_ask=False)


def verify_weak_bid_ask(snapshot):
    """Weak compatibility with two-sided quotes: v(bid) >= 0 >= v(ask) per tranche."""
    problem = WeakFeasibilityProblem.from_snapshot(snapshot, bid_ask=True)
    return _verify(snapshot, problem, bid_ask=True)


def _target(attach, detach, quote_kind, fixed_running):
    running = fixed_running if quote_kind == "upfront" else 0.0
    return TrancheSpec(attach, detach, quote_kind, running)


def _bounds(snapshot, problem, target, loss):
    """(lower, upper) of the target tranche's quote over the problem's polytope.

    ``loss`` is the target's loss vector in the problem's columns, H' beta.
    An up-front quote is affine in the columns, one LP per end; a running
    spread is a ratio of affine forms, one Charnes-Cooper LFP per end, whose
    denominator is the outstanding-notional annuity. A bound solve that ends
    other than optimal, infeasible included, asks `_elastic`: a quote row
    that needs more than FEASIBILITY_TOL of slack raises InfeasibleRegion,
    anything else SolverError, so a solver's "infeasible" on a polytope
    that is not empty is never reported as one.
    """
    sched, disc = snapshot.schedule, snapshot.discount
    blocks = dict(A_ub=problem.A_ub, b_ub=problem.b_ub,
                  A_eq=problem.A_eq, b_eq=problem.b_eq)
    if target.quote_kind == "upfront":
        running = target.running_spread
        c = np.outer(lambda_coeffs(running, sched, disc), loss).ravel()
        gamma0 = gamma_coeff(target, 0.0, running, sched, disc)

        def solve(sense):
            return opt_backend.solve_lp(LinearProgram(
                c=c, bounds=(0, None), sense=sense, **blocks))

        def quote(res):
            return (res.objective - gamma0) / target.width
    else:
        acc_disc = disc(np.asarray(sched.payment_dates)) * sched.accruals
        c_num = np.outer(lambda_coeffs(0.0, sched, disc), loss).ravel()
        c_den = -np.outer(acc_disc, loss).ravel()
        d_den = target.width * float(acc_disc.sum())

        def solve(sense):
            return opt_backend.solve_lfp(c_num, 0.0, c_den, d_den, sense=sense,
                                         **blocks)

        def quote(res):
            return res.objective
    out = []
    for sense in ("min", "max"):
        try:
            res = solve(sense)
        except DegenerateDenominator as exc:
            raise UnboundedRatio(str(exc)) from exc
        if res.status is not SolveStatus.OPTIMAL:
            if _elastic(problem)[0].status is SolveStatus.INFEASIBLE:
                law = "generator" if problem.generator else "DPM"
                raise InfeasibleRegion(f"the constrained {law} polytope is empty")
            raise SolverError(f"bound solve failed: {res.status.value}: {res.message}")
        out.append(quote(res))
    return tuple(out)


def nonstandard_tranche_bounds(snapshot, attach, detach, quote_kind,
                               fixed_running=0.0):
    """Arbitrage-free quote bounds for a tranche [attach, detach] over the polytope.

    Every quoted tranche constrains the polytope at its market price; the
    target tranche's implied quote is then minimized and maximized. Up-front
    quotes are affine in the matrix (two LPs); running spreads are a ratio of
    affine forms, optimized through the fractional-program backend.

    Returns (lower, upper) in decimal units. Raises InfeasibleRegion when the
    polytope is empty and UnboundedRatio when the spread denominator (the
    outstanding-notional annuity) can reach zero.
    """
    target = _target(attach, detach, quote_kind, fixed_running)
    problem = WeakFeasibilityProblem.from_snapshot(snapshot, target=target)
    return _bounds(snapshot, problem, target,
                   problem.H.T @ beta_coeffs(target, snapshot.portfolio))


def weak_range(snapshot, fixed, target):
    """Quote range of one quoted tranche over DPMs that price a fixed set.

    The weak counterpart of `strong_compat.range_at_N`: ``fixed`` lists the
    quoted tranches pinned at their market prices and ``target`` the one
    bounded. Every strong law is a DPM, so this range holds every strong
    range over the same set, at every N. Returns (lower, upper) in the
    target's decimal quote units.
    """
    problem = WeakFeasibilityProblem.from_snapshot(
        snapshot, priced=[l for l in fixed if l != target])
    tranche = snapshot.tranches[target]
    return _bounds(snapshot, problem, tranche,
                   problem.H.T @ beta_coeffs(tranche, snapshot.portfolio))
