"""Solver backends behind one narrow contract.

Every linear program, linear-fractional program, and relative-entropy
program in the package is solved through this module, so the modeling
code never names a solver. Every LP goes to scipy's HiGHS
(``method="highs"``) with no setting to select, so its result depends on
its inputs alone. The relative-entropy program is solved on its dual by
projected Newton, with the primal recovered in closed form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, minimize  # noqa: F401, perfbench rebinds minimize
from scipy.sparse.linalg import splu

# Centralized tolerances. Everything downstream quotes these.
FEASIBILITY_TOL = 1e-8     # max constraint violation accepted in a returned solution
KKT_TOL = 1e-8             # residual bound for the entropy solver
T_FLOOR = 1e-12            # Charnes-Cooper auxiliary variable lower acceptance
T_CEILING = 1e9            # Charnes-Cooper auxiliary variable upper bound

# Projected Newton on the entropy dual (solve_relative_entropy).
_NEWTON_STEPS = 100        # Newton steps per solve
_BACKTRACKS = 40           # step halvings per line search
_ARMIJO = 1e-4             # sufficient-decrease fraction of the predicted decrease
_HESS_RIDGE = 1e-14        # relative ridge keeping the Newton system nonsingular
_NOISE_ULPS = 64           # rounding noise of the dual objective, in ulps of its terms
_KKT_FLOOR = 1e-13         # polishing past KKT_TOL stops here


class SolverError(RuntimeError):
    """Numerical failure inside a backend, distinct from model infeasibility."""


class DegenerateDenominator(RuntimeError):
    """The fractional program's denominator collapsed (t below T_FLOOR)."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class LinearProgram:
    """min/max c'x subject to A_ub x <= b_ub, A_eq x = b_eq, bounds on x.

    ``c`` may be None for pure feasibility questions. ``bounds`` follows the
    scipy convention: a single (lo, hi) pair applied to every variable, or a
    sequence of pairs. Matrices may be dense or scipy.sparse.
    """

    c: np.ndarray | None = None
    A_ub: object | None = None
    b_ub: np.ndarray | None = None
    A_eq: object | None = None
    b_eq: np.ndarray | None = None
    bounds: object = (0, None)
    sense: str = "min"

    def n_vars(self):
        for a in (self.A_eq, self.A_ub):
            if a is not None:
                return a.shape[1]
        if self.c is not None:
            return len(self.c)
        raise ValueError("empty linear program")


@dataclass
class SolveResult:
    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None
    message: str = ""
    extra: dict = field(default_factory=dict)


def solve_lp(lp):
    """Solve a LinearProgram; statuses follow SolveStatus semantics.

    Feasibility problems (c is None) report FEASIBLE on success, optimization
    problems report OPTIMAL. Deterministic for fixed inputs.
    """
    n = lp.n_vars()
    c = np.zeros(n) if lp.c is None else np.asarray(lp.c, float)
    sign = -1.0 if lp.sense == "max" else 1.0
    res = linprog(
        sign * c,
        A_ub=lp.A_ub, b_ub=lp.b_ub,
        A_eq=lp.A_eq, b_eq=lp.b_eq,
        bounds=lp.bounds, method="highs",
    )
    if res.status == 0:
        status = SolveStatus.FEASIBLE if lp.c is None else SolveStatus.OPTIMAL
        return SolveResult(status, np.asarray(res.x), float(sign * res.fun),
                           res.message)
    if res.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE, message=res.message)
    if res.status == 3:
        return SolveResult(SolveStatus.UNBOUNDED, message=res.message)
    return SolveResult(SolveStatus.NUMERICAL_FAILURE, message=res.message)


def solve_lfp(c_num, d_num, c_den, d_den, A_ub=None, b_ub=None,
              A_eq=None, b_eq=None, sense="max"):
    """Optimize (c_num'x + d_num) / (c_den'x + d_den) over x >= 0.

    Constraints are A_ub x <= b_ub and A_eq x = b_eq. The denominator must be
    positive on the feasible region; solved by the Charnes-Cooper substitution
    y = t x, t = 1 / (c_den'x + d_den), which linearizes the ratio. Every
    constraint is homogenized through t, and the denominator normalization
    becomes the extra equality c_den'y + d_den t = 1.

    Raises DegenerateDenominator if the recovered t is at or below T_FLOOR.
    """
    c_num = np.asarray(c_num, float)
    c_den = np.asarray(c_den, float)
    n = len(c_num)

    eq_blocks, eq_rhs = [], []
    if A_eq is not None:
        A = sp.csr_matrix(A_eq)
        eq_blocks.append(sp.hstack([A, sp.csr_matrix(-np.asarray(b_eq, float)[:, None])]))
        eq_rhs.append(np.zeros(A.shape[0]))
    eq_blocks.append(sp.csr_matrix(np.concatenate([c_den, [d_den]])[None, :]))
    eq_rhs.append(np.array([1.0]))
    A_eq_t = sp.vstack(eq_blocks, format="csr")
    b_eq_t = np.concatenate(eq_rhs)

    A_ub_t = b_ub_t = None
    if A_ub is not None:
        A = sp.csr_matrix(A_ub)
        A_ub_t = sp.hstack([A, sp.csr_matrix(-np.asarray(b_ub, float)[:, None])], format="csr")
        b_ub_t = np.zeros(A.shape[0])

    lp = LinearProgram(
        c=np.concatenate([c_num, [d_num]]),
        A_ub=A_ub_t, b_ub=b_ub_t, A_eq=A_eq_t, b_eq=b_eq_t,
        bounds=[(0, None)] * n + [(0, T_CEILING)],
        sense=sense,
    )
    res = solve_lp(lp)
    if res.status is not SolveStatus.OPTIMAL:
        return res
    t = res.x[-1]
    if t <= T_FLOOR:
        raise DegenerateDenominator(f"Charnes-Cooper t = {t:.3e} at optimum")
    x = res.x[:-1] / t
    ratio = (c_num @ x + d_num) / (c_den @ x + d_den)
    return SolveResult(SolveStatus.OPTIMAL, x, float(ratio), res.message,
                       extra={"t": float(t)})


def _entropy_dual(v, logref, A, b, n_eq):
    """Dual objective, its gradient b - A q, the primal q and the KKT residual at v."""
    q = np.exp(np.minimum(logref - 1.0 - A.T @ v, 700.0))
    g = b - A @ q
    slack = g[n_eq:]
    kkt = max(float(np.max(np.abs(g[:n_eq]))),
              float(np.max(-slack, initial=0.0)),
              float(np.max(np.abs(v[n_eq:] * slack), initial=0.0)))
    return q.sum() + float(v @ b), g, q, kkt


def _newton_direction(A, A_sq, q, g, v, n_eq):
    """Projected Newton direction for the entropy dual at multipliers v.

    Bertsekas's eps-active set with a per-row eps: a multiplier whose slack
    g_i > 0 pushes it down goes to zero when one diagonal Newton step
    g_i / H_ii reaches zero (multipliers span orders of magnitude, so no
    fixed eps fits). The rest take the Newton step on H_F = A_F diag(q) A_F',
    factored sparse; one whose Newton value crosses zero is sent to zero too
    and the step recomputed, since the projection would drop its pull on the
    others and the step overshoot. Falls back to the plain step if not descent.
    """
    ineq = np.arange(len(g)) >= n_eq
    held = ineq & (g > 0.0) & (v * (A_sq @ q) <= g)
    rows = np.flatnonzero(~held)
    A_F = A[rows]
    hess = (A_F.multiply(q) @ A_F.T).tocsr()
    hess = hess + sp.identity(len(rows), format="csr") * (
        _HESS_RIDGE * max(1.0, float(hess.diagonal().max())))
    d = np.where(held, -v, 0.0)
    bound = np.zeros(len(rows), dtype=bool)
    plain = None
    while True:
        keep, out = np.flatnonzero(~bound), np.flatnonzero(bound)
        rhs = hess[keep][:, out] @ v[rows[out]] - g[rows[keep]]
        sub = hess[keep][:, keep] if out.size else hess
        step = splu(sub.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
        d[rows[keep]] = step
        d[rows[out]] = -v[rows[out]]
        if plain is None:
            plain = d.copy()
        cross = ineq[rows[keep]] & (v[rows[keep]] + step < 0.0)
        if not cross.any():
            return d if g @ d < 0.0 else plain
        bound[keep[cross]] = True


def solve_relative_entropy(reference, A_eq, b_eq, A_ub=None, b_ub=None):
    """min sum_k q_k log(q_k / reference_k) s.t. A_eq q = b_eq, A_ub q <= b_ub, q >= 0.

    The reference weights must be strictly positive (callers regularize zeros
    before passing them in). Solved in the dual: q = ref * exp(-1 - A_eq'nu
    - A_ub'lam), and v = (nu, lam >= 0) minimizes sum(q) + b_eq'nu + b_ub'lam
    by Bertsekas's projected Newton method (SIAM J. Control Optim. 20(2),
    1982), starting at zero multipliers, where q is the reference over e.
    Steps backtrack along the projection arc under the Armijo rule (Boyd &
    Vandenberghe 2004, ch. 10), or, once the predicted decrease is below the
    objective's rounding noise, until the KKT residual falls; past KKT_TOL,
    full steps continue while it falls. OPTIMAL means every residual
    is below KKT_TOL; otherwise an LP tells INFEASIBLE from numerical
    failure. ``extra`` holds ``iterations`` (Newton steps), ``evaluations``
    (dual evaluations), ``kkt`` and ``wall_s``.
    """
    start = time.perf_counter()
    reference = np.asarray(reference, float).ravel()
    if np.any(reference <= 0.0):
        raise ValueError("reference weights must be strictly positive")
    logref = np.log(reference)
    A_eq = sp.csr_matrix(A_eq)
    b_eq = np.asarray(b_eq, float)
    n_eq = A_eq.shape[0]
    A, b = A_eq, b_eq
    if A_ub is not None:
        A = sp.vstack([A_eq, sp.csr_matrix(A_ub)], format="csr")
        b = np.concatenate([b_eq, np.asarray(b_ub, float)])
    A_sq = A.multiply(A).tocsr()
    lower = np.where(np.arange(len(b)) < n_eq, -np.inf, 0.0)

    v = np.zeros(len(b))
    f, g, q, kkt = _entropy_dual(v, logref, A, b, n_eq)
    evaluations, iterations = 1, 0
    best = (kkt, v, q)
    while iterations < _NEWTON_STEPS and kkt > _KKT_FLOOR:
        try:
            d = _newton_direction(A, A_sq, q, g, v, n_eq)
        except RuntimeError:
            break  # singular factor: the LP below tells infeasible from failure
        noise = _NOISE_ULPS * np.finfo(float).eps * (q.sum() + np.abs(v) @ np.abs(b))
        t, step = 1.0, None
        for _ in range(_BACKTRACKS):
            v_t = np.maximum(v + t * d, lower)
            f_t, g_t, q_t, kkt_t = _entropy_dual(v_t, logref, A, b, n_eq)
            evaluations += 1
            predicted = float(g @ (v - v_t))
            if predicted > noise and kkt > KKT_TOL:
                ok = f - f_t >= _ARMIJO * predicted
            else:
                ok = kkt_t < kkt
            if ok:
                step = (v_t, f_t, g_t, q_t, kkt_t)
                break
            if kkt < KKT_TOL:
                break  # polishing takes full steps only
            t *= 0.5
        if step is None:
            break
        iterations += 1
        v, f, g, q, kkt = step
        if kkt < best[0]:
            best = (kkt, v, q)

    kkt, v, q = best
    stats = {"kkt": kkt, "iterations": iterations, "evaluations": evaluations}
    if kkt < KKT_TOL:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(q > 0.0, q * (np.log(np.maximum(q, 1e-300)) - logref), 0.0)
        return SolveResult(SolveStatus.OPTIMAL, q, float(terms.sum()),
                           f"projected Newton converged, kkt {kkt:.2e}",
                           extra={**stats, "duals": v,
                                  "wall_s": time.perf_counter() - start})

    # Dual did not close; decide between infeasible constraints and failure.
    feas = solve_lp(LinearProgram(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                  bounds=(0, None)))
    stats["wall_s"] = time.perf_counter() - start
    if feas.status is SolveStatus.INFEASIBLE:
        return SolveResult(SolveStatus.INFEASIBLE,
                           message="constraint set infeasible (LP certificate)",
                           extra=stats)
    return SolveResult(SolveStatus.NUMERICAL_FAILURE, q,
                       message=f"projected Newton stalled, kkt {kkt:.2e}",
                       extra=stats)
