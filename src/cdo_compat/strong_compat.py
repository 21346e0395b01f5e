"""Strong compatibility through discrete gamma distortions.

Strong compatibility restricts the perfect-fit question to conditionally
i.i.d. models. At resolution N those are parametrized by a generator law
p_{ik} on {0..N} per payment date; the default-count law it induces mixes
Beta distributions through the h coefficients, q = p h', so tranche
pricing stays linear in p. The generator law obeys the DPM constraints
over N + 1 states, so it is a `DPM` whose n is N. The question is then the
weak polytope under the column map h instead of the kink-state selection:
`StrongFeasibilityProblem` selects that map, and the assembly, certificate
check, `Verdict` and bound routine are the ones in `weak_compat`. This
module supplies h, computes N-dependent price ranges (the iterative
verification algorithm walks them across a resolution sequence) and quote
bounds for pools with a nonstandard number of names, and builds the
generator sampler and the two-gamma-process distortion used for simulation.
Verdicts, ranges and bounds are solved in path form: over mixtures of
non-decreasing generator-state paths, on one column-generation master per
call, so they never build the (m - 1) N monotonicity rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import betaln, gammaln

from .dpm_core import DPM, AugmentedDPM
from .market_model import PortfolioSpec
from .opt_backend import SolverError, SolveStatus
from .tranche_valuation import DimensionMismatch, beta_coeffs
from .weak_compat import (InfeasibleRegion, UnboundedRatio, _assemble, _bounds,
                          _Polytope, _target, _verify, verify_weak, weak_range)

DEFAULT_N_SEQUENCE = (50, 75, 100, 125, 150, 175, 200)
DEFAULT_EPS_SPREAD = 1e-6    # 0.01 bp, on decimals per year
DEFAULT_EPS_UPFRONT = 1e-5   # 0.001 per cent, on decimal fractions


class IterationLimit(RuntimeError):
    """The resolution sequence was exhausted before the algorithm could decide."""


@lru_cache(maxsize=64)
def h_matrix(n, N):
    """Beta-mixture coefficients h_{jk}: P(j defaults of n | generator state k of N).

    Interior columns are Beta-binomial pmfs, C(n,j) B(k+j, N+n-k-j) / B(k, N-k),
    computed in log-gamma space; the k = 0 and k = N columns degenerate to
    indicators at j = 0 and j = n. Returns the read-only (n + 1, N + 1) array.
    """
    if n < 1 or N < 2:
        raise ValueError("need n >= 1 and N >= 2")
    j = np.arange(n + 1)
    h = np.zeros((n + 1, N + 1))
    h[0, 0] = 1.0
    h[n, N] = 1.0
    log_choose = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
    for k in range(1, N):
        h[:, k] = np.exp(log_choose + betaln(k + j, N + n - k - j) - betaln(k, N - k))
    col_dev = np.max(np.abs(h.sum(axis=0) - 1.0))
    mean_dev = np.max(np.abs(j @ h - n * np.arange(N + 1) / N))
    if col_dev > 1e-10 or mean_dev > 1e-9:
        raise SolverError(f"h identities failed: columns {col_dev:.2e}, means {mean_dev:.2e}")
    h.setflags(write=False)
    return h


def qij_from_p(law, h):
    """Mix the generator law p = law.q through h: q_{ij} = sum_k h_{jk} p_{ik}."""
    N = h.shape[1] - 1
    if N != law.n:
        raise DimensionMismatch(f"h resolution {N} vs law resolution {law.n}")
    return DPM(law.q @ h.T)


class StrongFeasibilityProblem(_Polytope):
    """The polytope over generator weights p_ik at resolution N, mapped onto q by h."""

    generator = True

    @classmethod
    def from_snapshot(cls, snapshot, N, priced=None, bid_ask=False):
        if priced is None:
            priced = range(snapshot.n_tranches)
        return _assemble(cls, snapshot, h_matrix(snapshot.portfolio.n, N),
                         np.arange(N + 1.0), priced, bid_ask)


def verify_strong_at_N(snapshot, N):
    """Decide resolution-N strong compatibility; Feasible carries the generator law."""
    return _verify(snapshot, StrongFeasibilityProblem.from_snapshot(snapshot, N))


def verify_strong_bid_ask(snapshot, N):
    """Strong compatibility against two-sided quotes at resolution N."""
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, N, bid_ask=True)
    return _verify(snapshot, problem)


def range_at_N(snapshot, fixed, target, N):
    """Quote range of one tranche over generator laws that price a fixed set.

    ``fixed`` lists quoted-tranche indices pinned at their market prices;
    ``target`` is the tranche whose implied quote is bounded. Returns
    (lower, upper) in the target's decimal quote units.
    """
    fixed = [l for l in fixed if l != target]
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, N, priced=fixed)
    tranche = snapshot.tranches[target]
    return _bounds(snapshot, problem, tranche,
                   problem.H.T @ beta_coeffs(tranche, snapshot.portfolio))


@dataclass
class RangeRecord:
    tranche: int
    N: int
    lower: float
    upper: float


@dataclass
class IterativeResult:
    """Outcome of the resolution-sequence verification walk.

    ``rule`` names what ended the walk: "accepted" (every quote in range,
    ``law`` the generator law at ``final_N``), "weak_bound" (the failing
    tranche's quote lies outside ``weak_range``, its range over DPMs that
    price the tranches before it, so no law prices the quotes at any N and
    ``final_N`` is None) or "stabilized" (the failing tranche's strong range
    stopped moving at ``final_N`` with the quote outside it: no law up to
    that N, which is not a proof for larger N).
    """

    compatible: bool
    law: DPM | None
    final_N: int | None
    failing_tranche: int | None
    rule: str
    history: list = field(default_factory=list)
    weak_range: tuple | None = None


def _weak_bound(snapshot, l):
    """Tranche l's weak range over tranches 0..l-1, or None if it is not known.

    A failed solve, an unbounded spread or an empty polytope (which the
    strong walk has just refuted by accepting tranches 0..l-1) decides
    nothing, so none of them is a verdict.
    """
    try:
        return weak_range(snapshot, range(l), l)
    except (SolverError, InfeasibleRegion, UnboundedRatio):
        return None


def iterative_verify(snapshot, N_sequence=DEFAULT_N_SEQUENCE):
    """Walk tranches in seniority order, growing N until each quote is in range.

    For tranche l the range is computed over generator laws pricing tranches
    0..l-1 exactly. A quote inside its range advances to the next tranche.
    Tranche l-1 is accepted at the first N whose range holds its quote, so
    no coarser N prices tranches 0..l-1, while a law at N lifts to one at
    every larger N with the same q. So tranche l's walk starts there, and
    the full system is solved once, at the last accepted N; an empty range
    or a failed joint solve there is a SolverError, never a verdict.

    Every strong law is a DPM, so tranche l's strong ranges at every N lie
    inside its weak range over tranches 0..l-1. When the weak elastic LP
    finds the quotes weakly incompatible, that weak range is computed
    before tranche l is walked; a quote outside it by more than eps
    (DEFAULT_EPS_SPREAD or DEFAULT_EPS_UPFRONT, by quote kind) proves
    that no law prices the quotes at any N, and the walk stops there
    (rule "weak_bound"). Otherwise a quote still outside its strong range
    once both endpoints have stabilized (successive changes below eps)
    stops the walk (rule "stabilized"): no law up to that N prices the
    quotes, which is the paper's rule, not a proof. A weak LP that fails
    leaves the walk as it would be without it.

    Raises IterationLimit when the sequence ends before a decision.
    """
    if len(N_sequence) == 0 or any(b <= a for a, b in zip(N_sequence, N_sequence[1:])):
        raise ValueError("N_sequence must be non-empty and strictly increasing")
    weakly_incompatible = verify_weak(snapshot).status is SolveStatus.INFEASIBLE
    history = []
    accepted = N_sequence[0]
    for l, tranche in enumerate(snapshot.tranches):
        quote = snapshot.quote(l)
        eps = (DEFAULT_EPS_UPFRONT if tranche.quote_kind == "upfront"
               else DEFAULT_EPS_SPREAD)
        bound = _weak_bound(snapshot, l) if weakly_incompatible else None
        if bound is not None and not bound[0] - eps <= quote <= bound[1] + eps:
            return IterativeResult(False, None, None, l, "weak_bound", history,
                                   weak_range=bound)
        prev = None
        for N in (N for N in N_sequence if N >= accepted):
            try:
                lo, hi = range_at_N(snapshot, range(l), l, N)
            except InfeasibleRegion as exc:
                raise SolverError(f"tranche {l} has an empty range at N={N}, "
                                  "where the tranches before it are priced") from exc
            history.append(RangeRecord(l, N, lo, hi))
            if lo - 1e-12 <= quote <= hi + 1e-12:
                accepted = N
                break
            if prev is not None and abs(lo - prev[0]) < eps and abs(hi - prev[1]) < eps:
                return IterativeResult(False, None, N, l, "stabilized", history)
            prev = (lo, hi)
        else:
            raise IterationLimit(
                f"resolution sequence exhausted on tranche {l} without stabilization")

    res = verify_strong_at_N(snapshot, accepted)
    if not res.feasible:
        raise SolverError(f"joint solve at the accepted N={accepted}: "
                          f"{res.status.value}: {res.certificate}")
    return IterativeResult(True, res.law, accepted, None, "accepted", history)


def nonstandard_names_bounds(snapshot, N, n_names, attach, detach, quote_kind,
                             fixed_running=0.0):
    """Quote bounds for a tranche on a pool of ``n_names`` names.

    The feasible region is the full resolution-N system for the quoted
    snapshot (all standard tranches priced at the standard pool size); the
    target tranche's payoff is rebuilt at the nonstandard pool size through
    its own loss vector and h coefficients, then bounded over that region.
    """
    target = _target(attach, detach, quote_kind, fixed_running)
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, N)
    pool = PortfolioSpec(int(n_names), snapshot.portfolio.recovery)
    return _bounds(snapshot, problem, target,
                   h_matrix(pool.n, N).T @ beta_coeffs(target, pool))


# The generator sampler and the gamma distortion.

class GeneratorSampler:
    """Samples generator paths from a generator law via one uniform per path.

    The paths are the count paths of the law's `AugmentedDPM`: the common
    uniform is compared against each row's tail sums, which makes every path
    non-decreasing and gives phi(F(T_i)) the law p_i row by row, with the
    exact boundary values phi(F(T_0)) = 0 and phi(F(T_{m+1})) = N.
    """

    def __init__(self, law):
        self.N = law.n
        self._aug = AugmentedDPM.from_dpm(law)

    def sample_matrix(self, u):
        """phi values for an array of uniforms, shape (len(u), m+2)."""
        return self._aug.count_paths(u)


@dataclass
class GammaDistortion:
    """Generator sampler plus the two independent unit gamma processes.

    ``sample`` draws ``size`` joint realizations: generator paths on the
    augmented grid and the distortion values X(F(T_i)) along each path.
    X(F(T_0)) = 0 and X(F(T_{m+1})) = 1 hold exactly, and each path is
    non-decreasing.
    """

    sampler: GeneratorSampler

    def sample(self, rng, size):
        """Draw ``size`` paths: returns ``(phi, x)``, both of shape (size, m+2).

        Draw order: one uniform per path drives the generator, then the xi
        increments, then the eta increments. Only xi at phi_1 <= .. <= phi_m
        and eta at N - phi_m <= .. <= N - phi_1 are read, and a unit-gamma
        process has independent Gamma(k' - k) increments between states k
        and k', so xi is the cumulative sum of ``standard_gamma(phi_i -
        phi_{i-1})`` along the dates and eta the same sum in reverse date
        order (``standard_gamma(0)`` is 0). The pair has the law of the full
        processes read at those states, from m draws each instead of N.
        """
        N = self.sampler.N
        u = rng.uniform(size=size)
        phi = self.sampler.sample_matrix(u)
        steps = np.diff(phi, axis=1)
        xi = rng.standard_gamma(steps[:, :-1]).cumsum(axis=1)
        eta = rng.standard_gamma(steps[:, :0:-1]).cumsum(axis=1)[:, ::-1]
        inner = phi[:, 1:-1]
        den = xi + eta
        x = np.empty(phi.shape)
        x[:, 0] = 0.0
        x[:, -1] = 1.0
        x[:, 1:-1] = np.where(inner == 0, 0.0, np.where(
            inner == N, 1.0, xi / np.where(den == 0.0, 1.0, den)))
        return phi, x

