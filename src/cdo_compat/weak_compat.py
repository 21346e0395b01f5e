"""The default-count polytope under a column map, and weak compatibility.

Weak and strong compatibility are one linear system over the default-count
law q, posed over two sets of columns. Weak poses it over q itself, n + 1
states per date: the column map H is the identity. Strong poses it over a
generator law p at resolution N, N + 1 states per date, which the
beta-binomial matrix h of `strong_compat` maps onto q = p h': H = h. This
module assembles that polytope once for both maps: unit row sums, marginal
means ``states * F(T_i)``, non-decreasing tail sums, non-negativity, and one
pricing row ``outer(lambda, H' beta)`` per quote, an equality at a mid quote
or a pair of inequalities for a bid/ask band. Both questions share the rest
too: the feasibility solve with its certificate check (repair, validate,
reprice) and its `Verdict`, whose law is a `DPM` over the columns' states
under either map, and quote bounds for a tranche that is not quoted, an LP
for up-front quotes and a linear fractional program for running spreads.
`WeakFeasibilityProblem` selects H = I here;
`strong_compat.StrongFeasibilityProblem` selects H = h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import opt_backend
from .dpm_core import DPM, InvalidDPM, repair_structure
from .market_model import TrancheSpec
from .opt_backend import (DegenerateDenominator, LinearProgram, SolveStatus,
                          SolverError)
from .tranche_valuation import (TrancheCoefficients, beta_coeffs,
                                expected_npv, gamma_coeff, lambda_coeffs)


class InvalidQuotes(ValueError):
    """Bid/ask quotes missing or crossed."""


class InfeasibleRegion(RuntimeError):
    """The polytope for this snapshot is empty."""


class UnboundedRatio(RuntimeError):
    """The spread program's denominator can collapse on the feasible region."""


def monotonicity_block(m, n):
    """Sparse rows for Theta_{i,j} <= Theta_{i+1,j}, i = 1..m-1, j = 1..n.

    A date difference (row i: +1 at date i, -1 at date i+1) times the
    per-date tail-sum operator (row j: ones on states j..n).
    """
    A = sp.kron(sp.eye(m - 1, m) - sp.eye(m - 1, m, k=1),
                np.triu(np.ones((n, n + 1)), k=1), format="csr")
    return A, np.zeros(A.shape[0])


def marginal_blocks(m, n, marginal_means):
    """Row-sum and mean equality rows: sum_j q_ij = 1, sum_j j q_ij = mean_i."""
    dates = sp.eye(m)
    A = sp.vstack([sp.kron(dates, np.ones(n + 1)),
                   sp.kron(dates, np.arange(n + 1.0))], format="csr")
    A.eliminate_zeros()  # the j = 0 mean coefficients
    return A, np.concatenate([np.ones(m), marginal_means])


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

    ``x`` holds m rows of states + 1 columns; ``h`` is None when the
    columns are the DPM itself and the h coefficients when they are a
    generator law.
    """

    A_eq: object
    b_eq: np.ndarray
    A_ub: object
    b_ub: np.ndarray
    m: int
    h: object


def _assemble(cls, snapshot, h, priced, bid_ask):
    """Equalities are marginals then pricing; inequalities monotonicity then bands."""
    m = snapshot.schedule.m
    states = snapshot.portfolio.n if h is None else h.N
    A_marg, b_marg = marginal_blocks(m, states,
                                     states * snapshot.curve.grid(snapshot.schedule))
    A_mono, b_mono = monotonicity_block(m, states)
    eq_rows, eq_rhs = [A_marg], [b_marg]
    ub_rows, ub_rhs = [A_mono], [b_mono]
    for coeffs, side in _quote_constraints(snapshot, priced, bid_ask):
        loss = coeffs.beta if h is None else h.h.T @ coeffs.beta
        row = np.outer(coeffs.lam, loss).ravel()
        if side == 0:
            eq_rows.append(sp.csr_matrix(row[None, :]))
            eq_rhs.append(np.array([coeffs.gamma]))
        else:
            ub_rows.append(sp.csr_matrix(side * row[None, :]))
            ub_rhs.append(np.array([side * coeffs.gamma]))
    return cls(A_eq=sp.vstack(eq_rows, format="csr"), b_eq=np.concatenate(eq_rhs),
               A_ub=sp.vstack(ub_rows, format="csr"), b_ub=np.concatenate(ub_rhs),
               m=m, h=h)


class WeakFeasibilityProblem(_Polytope):
    """The polytope over DPM entries q_ij, every quoted tranche priced."""

    @classmethod
    def from_snapshot(cls, snapshot, bid_ask=False):
        return _assemble(cls, snapshot, None, range(snapshot.n_tranches), bid_ask)


@dataclass
class Verdict:
    """Verification outcome; ``law`` (q, or p at resolution N) is the certificate."""

    status: SolveStatus
    law: DPM | None
    certificate: str

    @property
    def feasible(self):
        return self.status is SolveStatus.FEASIBLE


def _relaxed_point(problem):
    """Find a point with each equality relaxed by EQUALITY_SLACK either way.

    The relaxed set contains the polytope, so INFEASIBLE proves it empty.
    """
    A_rel, b_rel = opt_backend.relax_equalities(problem.A_eq, problem.b_eq)
    return opt_backend.solve_lp(LinearProgram(
        A_ub=sp.vstack([problem.A_ub, A_rel], format="csr"),
        b_ub=np.concatenate([problem.b_ub, b_rel]), bounds=(0, None)))


def _verify(snapshot, problem, bid_ask):
    """Find a point of the polytope and check it as a certificate.

    Returns ``(status, law, message)``. The point is repaired, validated as
    a law and repriced (through q = p h' under H = h) against every quote;
    one that fails validation or misses a quote by more than FEASIBILITY_TOL
    is a solver failure, never a verdict.
    """
    res = _relaxed_point(problem)
    if res.status is SolveStatus.INFEASIBLE:
        return SolveStatus.INFEASIBLE, None, res.message
    if res.status is not SolveStatus.FEASIBLE:
        return SolveStatus.NUMERICAL_FAILURE, None, res.message
    try:
        law = DPM(repair_structure(res.x.reshape(problem.m, -1)))
        dpm = law if problem.h is None else DPM(law.q @ problem.h.h.T)
    except InvalidDPM as exc:
        return (SolveStatus.NUMERICAL_FAILURE, None,
                f"solution failed validation: {exc}")
    worst = 0.0
    for coeffs, side in _quote_constraints(snapshot, range(snapshot.n_tranches),
                                           bid_ask):
        v = expected_npv(dpm, coeffs)
        worst = max(worst, side * v if side else abs(v))
    if worst > opt_backend.FEASIBILITY_TOL:
        what = "violates a quote band" if bid_ask else "misprices a tranche"
        return SolveStatus.NUMERICAL_FAILURE, None, f"solution {what} by {worst:.3e}"
    what = "band violation" if bid_ask else "repricing error"
    return SolveStatus.FEASIBLE, law, f"{res.message}; worst {what} {worst:.3e}"


def verify_weak(snapshot):
    """Decide weak compatibility; a Feasible result carries a certifying DPM."""
    problem = WeakFeasibilityProblem.from_snapshot(snapshot)
    return Verdict(*_verify(snapshot, problem, bid_ask=False))


def verify_weak_bid_ask(snapshot):
    """Weak compatibility with two-sided quotes: v(bid) >= 0 >= v(ask) per tranche."""
    problem = WeakFeasibilityProblem.from_snapshot(snapshot, bid_ask=True)
    return Verdict(*_verify(snapshot, problem, bid_ask=True))


def _target(attach, detach, quote_kind, fixed_running):
    running = fixed_running if quote_kind == "upfront" else 0.0
    return TrancheSpec(attach, detach, quote_kind, running)


def _bounds(snapshot, problem, target, loss):
    """(lower, upper) of the target tranche's quote over the problem's polytope.

    ``loss`` is the target's loss vector in the problem's columns (beta, or
    h' beta). An up-front quote is affine in the columns, one LP per end; a
    running spread is a ratio of affine forms, one Charnes-Cooper LFP per
    end, whose denominator is the outstanding-notional annuity. A failed
    solve raises InfeasibleRegion if `_relaxed_point` proves the polytope
    empty, SolverError otherwise.
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
        status = res.status
        if status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            status = _relaxed_point(problem).status
        if status is SolveStatus.INFEASIBLE:
            law = "DPM" if problem.h is None else "generator"
            raise InfeasibleRegion(f"the constrained {law} polytope is empty")
        if res.status is not SolveStatus.OPTIMAL:
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
    problem = WeakFeasibilityProblem.from_snapshot(snapshot)
    return _bounds(snapshot, problem, target,
                   beta_coeffs(target, snapshot.portfolio))
