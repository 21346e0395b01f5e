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

This module poses that polytope once for both maps: the structure rows
of `structure_rows`, which the hedge's entropy program shares (unit row
sums, marginal means sum_c s_c p_ic = s_last F(T_i) over the columns'
state values s, the last state the whole pool, and non-decreasing tail
sums), non-negativity, and one pricing row ``outer(lambda, H' beta)`` per
quote, an equality at a mid quote or a pair of inequalities for a bid/ask
band. Every law of the polytope is a mixture of non-decreasing state paths
(Strassen 1965), on which the monotonicity rows hold by construction, so
both questions are solved in path form, over the mass, the means and the
quotes alone, by column generation on one `opt_backend` master. The
verdict is the master's phase 1, the elastic decision LP, which gives each
quote row a slack and minimizes their total; a "no" carries a checked
lower bound on that total, and a "yes" law goes through the certificate
check (repair, validate, map through H, reprice) into the `Verdict`,
whose law is the default-count `DPM` q under the weak map and the
generator law p under h. The quote bounds of a tranche are the min and max
of a ratio of affine forms in the law on the same master
(`opt_backend.solve_path_lfp`). No verdict, range or bound builds the
monotonicity rows; the full polytope stays as the reference that tests
compare the path form with. `WeakFeasibilityProblem` selects the kink
states here; `strong_compat.StrongFeasibilityProblem` selects H = h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import opt_backend
from .dpm_core import DPM, InvalidDPM, repair_structure
from .market_model import TrancheSpec
from .opt_backend import DegenerateDenominator, SolveStatus, SolverError
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


def _quote_constraints(snapshot, priced, bid_ask):
    """``(coeffs, side)`` per quote constraint on the seller value v.

    v = lam' q beta - gamma. ``side`` 0 asks v = 0 at the mid quote. A
    bid/ask band gives two rows with side * v <= 0: side -1 keeps v >= 0
    at the bid, side +1 keeps v <= 0 at the ask.
    """
    if bid_ask and (snapshot.bid is None or snapshot.ask is None):
        raise InvalidQuotes("snapshot carries no bid/ask quotes")
    out = []
    for l in priced:
        tr = snapshot.tranches[l]
        if bid_ask and snapshot.quote(l, "bid") > snapshot.quote(l, "ask"):
            raise InvalidQuotes(f"crossed {tr.units.noun} quotes on tranche {l}")
        for side, sign in (("bid", -1), ("ask", 1)) if bid_ask else (("mid", 0),):
            out.append((TrancheCoefficients.build(
                tr, *tr.terms(snapshot.quote(l, side)), snapshot), sign))
    return out


@dataclass
class _Polytope:
    """The polytope of one snapshot, over m rows of one column per state.

    Column c has the state value ``states[c]`` and maps onto the default
    counts through column c of the (n + 1)-row matrix ``H``, q = p H'.
    ``generator`` says whether the columns' law p is the certificate (a
    generator law) or q is. ``quotes`` holds the `_quote_constraints`,
    bands if ``bands``, and ``means`` the m marginal means.

    It has two forms. `path_rows` is the one every verdict, range and bound
    solves: every law of the polytope is a mixture of non-decreasing state
    paths (Strassen, Ann. Math. Stat. 36, 1965), on which the monotonicity
    rows hold by construction, so only the rows that are sums over dates
    are left. `A_eq` x = `b_eq`, `A_ub` x <= `b_ub`, x >= 0 is the full one,
    the reference that tests compare it with, built on first use:
    `structure_rows`, then the quote rows, the last ``n_quotes`` rows of
    A_ub (bands) or of A_eq (mid quotes).
    """

    m: int
    H: np.ndarray
    states: np.ndarray
    means: np.ndarray
    quotes: list
    bands: bool
    generator = False

    @property
    def n_quotes(self):
        return len(self.quotes)

    def _quote_row(self, coeffs):
        return np.outer(coeffs.lam, self.H.T @ coeffs.beta)

    @cached_property
    def _blocks(self):
        """(A_eq, b_eq, A_ub, b_ub): the marginals, then the mid quotes; the
        monotonicity rows, then the bands."""
        A_eq, b_eq, A_ub, b_ub = structure_rows(self.m, self.states, self.means)
        eq_rows, eq_rhs = [A_eq], [b_eq]
        ub_rows, ub_rhs = [A_ub], [b_ub]
        for coeffs, side in self.quotes:
            row = self._quote_row(coeffs).ravel()
            if side == 0:
                eq_rows.append(sp.csr_matrix(row[None, :]))
                eq_rhs.append(np.array([coeffs.gamma]))
            else:
                ub_rows.append(sp.csr_matrix(side * row[None, :]))
                ub_rhs.append(np.array([side * coeffs.gamma]))
        return (sp.vstack(eq_rows, format="csr"), np.concatenate(eq_rhs),
                sp.vstack(ub_rows, format="csr"), np.concatenate(ub_rhs))

    A_eq = property(lambda self: self._blocks[0])
    b_eq = property(lambda self: self._blocks[1])
    A_ub = property(lambda self: self._blocks[2])
    b_ub = property(lambda self: self._blocks[3])

    def path_rows(self):
        """The rows of the path form, (R, m, S), and their right-hand sides.

        The mass (date 1's row sum), the m means and the quote rows, in
        ``quotes`` order, whose sides say which are bands: a path's value on
        each is a sum over dates of a function of its state.
        """
        m, S = self.m, len(self.states)
        rows = np.zeros((1 + m + self.n_quotes, m, S))
        rows[0, 0] = 1.0
        rows[1 + np.arange(m), np.arange(m)] = self.states
        for r, (coeffs, _) in enumerate(self.quotes, 1 + m):
            rows[r] = self._quote_row(coeffs)
        return rows, np.concatenate([[1.0], self.means,
                                     [coeffs.gamma for coeffs, _ in self.quotes]])


def _assemble(cls, snapshot, H, states, priced, bid_ask):
    """The problem over the columns ``states``, mapped onto q by ``H``.

    The last state is the whole pool, so the means are its multiples of F.
    """
    return cls(m=snapshot.schedule.m, H=H, states=states,
               means=states[-1] * snapshot.curve.grid(snapshot.schedule),
               quotes=_quote_constraints(snapshot, priced, bid_ask), bands=bid_ask)


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
    high. On a "no", ``bound`` is a checked lower bound on the least total
    slack, above FEASIBILITY_TOL (`opt_backend._elastic_bound`); it is None
    otherwise, and ``slack`` is None when no verdict was reached (numerical
    failure).
    """

    status: SolveStatus
    law: DPM | None
    certificate: str
    slack: list | None
    bound: float | None = None

    @property
    def feasible(self):
        return self.status is SolveStatus.FEASIBLE


def _largest_slack(snapshot, slack, bands):
    """The quote constraint with the largest slack, in its quote's units.

    Up-front quotes move gamma by the width per unit, so the slack over the
    width is exact. A spread moves gamma by width * sum_i D(T_i) dT_i, the
    riskless annuity, but v by the smaller risky one, so the bp figure is a
    lower bound.
    """
    i = int(np.argmax(np.abs(slack)))
    l, side = (i // 2, ("bid", "ask")[i % 2]) if bands else (i, "quote")
    tranche, v = snapshot.tranches[l], slack[i]
    upfront = tranche.quote_kind == "upfront"
    unit = gamma_coeff(tranche, float(upfront), float(not upfront),
                       snapshot.schedule, snapshot.discount)
    size = (f"{abs(v) / unit * 100:.4f} pct of width" if upfront else
            f"at least {abs(v) / unit * 1e4:.4f} bp (over the riskless annuity)")
    return (f"largest slack: tranche {tranche.label} {side} too "
            f"{'low' if v > 0 else 'high'} by {size}")


def _verify(snapshot, problem):
    """Decide with the elastic LP in path form and check its law as a certificate.

    `opt_backend.solve_path_elastic` gives each quote row a slack and
    minimizes their total over mixtures of non-decreasing state paths; a row
    that needs more than FEASIBILITY_TOL of slack is the "no", which carries
    a checked lower bound on that total. Returns the `Verdict`. The law is
    repaired, validated, mapped onto q = p H' and repriced against every
    quote constraint of ``problem``; one that fails validation or misses a
    quote by more than FEASIBILITY_TOL is a solver failure, never a verdict.
    """
    rows, rhs = problem.path_rows()
    res = opt_backend.solve_path_elastic(rows, rhs, [side for _, side in problem.quotes])
    if res.status not in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE):
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None, res.message, None)
    slack = [float(s) + 0.0 for s in res.extra["slack"]]  # + 0.0: no -0.0 on a bid row
    if res.status is SolveStatus.INFEASIBLE:
        bound = res.extra["bound"]
        return Verdict(SolveStatus.INFEASIBLE, None, (
            f"no law prices every quote: total slack {res.objective:.3e} (checked "
            f"lower bound {bound:.3e}); "
            f"{_largest_slack(snapshot, slack, problem.bands)}"),
            slack, bound)
    try:
        law = DPM(repair_structure(res.x.reshape(problem.m, -1)))
        dpm = DPM(law.q @ problem.H.T)
    except InvalidDPM as exc:
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None,
                       f"solution failed validation: {exc}", None)
    worst = 0.0
    for coeffs, side in problem.quotes:
        v = expected_npv(dpm, coeffs)
        worst = max(worst, side * v if side else abs(v))
    if worst > opt_backend.FEASIBILITY_TOL:
        what = "violates a quote band" if problem.bands else "misprices a tranche"
        return Verdict(SolveStatus.NUMERICAL_FAILURE, None,
                       f"solution {what} by {worst:.3e}", None)
    what = "band violation" if problem.bands else "repricing error"
    return Verdict(SolveStatus.FEASIBLE, law if problem.generator else dpm,
                   f"{res.message}; worst {what} {worst:.3e}", slack)


def verify_weak(snapshot):
    """Decide weak compatibility; a Feasible result carries a certifying DPM."""
    return _verify(snapshot, WeakFeasibilityProblem.from_snapshot(snapshot))


def verify_weak_bid_ask(snapshot):
    """Weak compatibility with two-sided quotes: v(bid) >= 0 >= v(ask) per tranche."""
    problem = WeakFeasibilityProblem.from_snapshot(snapshot, bid_ask=True)
    return _verify(snapshot, problem)


def _target(attach, detach, quote_kind, fixed_running):
    running = fixed_running if quote_kind == "upfront" else 0.0
    return TrancheSpec(attach, detach, quote_kind, running)


def _bounds(snapshot, problem, target, loss):
    """(lower, upper) of the target tranche's quote over the problem's laws.

    ``loss`` is the target's loss vector in the problem's columns, H' beta.
    The target's value v(x) = lambda(x)' q loss - gamma(x) at quote x is
    affine in x, so its fair quote x = v(0) / (v(0) - v(1)) is a ratio of
    affine forms in the law; for an up-front quote the denominator is the
    width. Both ends are solved in path form by
    `opt_backend.solve_path_lfp`, which never builds the monotonicity rows.
    Its phase 1 decides whether any law prices the problem's quotes; its
    "no" raises InfeasibleRegion only once `opt_backend.solve_path_elastic`
    on the same rows proves it with a checked bound. Any other failure
    raises SolverError, so a solver's failure is never reported as an empty
    polytope, and a denominator that can reach zero raises UnboundedRatio.
    """
    sched, disc = snapshot.schedule, snapshot.discount

    def value(x):
        """(lambda, gamma) of the target at quote x."""
        upfront, spread = target.terms(x)
        return (lambda_coeffs(spread, sched, disc),
                gamma_coeff(target, upfront, spread, sched, disc))
    (lam0, gamma0), (lam1, gamma1) = value(0.0), value(1.0)
    rows, rhs = problem.path_rows()
    try:
        ends = opt_backend.solve_path_lfp(
            rows, rhs, problem.n_quotes, np.outer(lam0, loss), -gamma0,
            np.outer(lam0 - lam1, loss), gamma1 - gamma0)
    except DegenerateDenominator as exc:
        raise UnboundedRatio(str(exc)) from exc
    if ends[0].status is SolveStatus.INFEASIBLE:
        proof = opt_backend.solve_path_elastic(rows, rhs, np.zeros(problem.n_quotes))
        if proof.status is not SolveStatus.INFEASIBLE:
            raise SolverError(f"bound phase 1 found no law, but the elastic LP "
                              f"did not confirm it: {proof.status.value}: "
                              f"{proof.message}")
        law = "generator" if problem.generator else "DPM"
        raise InfeasibleRegion(f"the constrained {law} polytope is empty")
    for res in ends:
        if res.status is not SolveStatus.OPTIMAL:
            raise SolverError(f"bound solve failed: {res.status.value}: {res.message}")
    return tuple(res.objective for res in ends)


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
