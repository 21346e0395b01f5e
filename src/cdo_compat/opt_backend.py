"""Solver backends behind one narrow contract.

Every linear program, linear-fractional program, and relative-entropy
program in the package is solved through this module, so the modeling
code never names a solver. Every LP goes to scipy's HiGHS
(``method="highs"``) with no setting to select, so its result depends on
its inputs alone. The relative-entropy program is solved on its dual by
projected Newton, with the primal recovered in closed form. Each Newton
system H d = r, H = A_F Q A_F' over the free rows, is factored as
(D A_F) Q (D A_F)' y = D r, d = D'y, where D subtracts each free inequality
row from the next. D is invertible, so the step is exact for any A. The
monotonicity rows of `weak_compat.structure_rows` (m dates of S states)
come per date pair as nested head rows, then nested tail rows. Two
consecutive rows of one kind differ in one state per date, two nonzeros;
the difference at the head/tail switch holds 2(S - 1), once per date
pair. So the factored matrix holds O(m S) nonzeros, not the O(m S^2) of H.
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
_HESS_RIDGE = 1e-14        # relative ridge keeping the Newton system nonsingular;
                           # ridge I on H is ridge D D' on the differenced system
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
    fixed eps fits). The rest (F) take the Newton step H_F d = r on
    H_F = A_F Q A_F' + ridge I, Q = diag(q), r = -g_F; one whose Newton
    value crosses zero is sent to zero too and the step recomputed with
    its d fixed at -v, since the projection would drop its pull on the
    others and the step overshoot. Falls back to the plain step if not
    descent.

    H_F is never formed. With D_F the unit upper-bidiagonal matrix that
    subtracts each free inequality row from the next (equality rows keep
    an identity block), the step solves
    (D_F A_F) Q (D_F A_F)' y + ridge D_F D_F' y = D_F r and takes
    d = D_F'y. D_F is invertible, so this is the same step for any A; on
    the nested head and tail rows of `weak_compat.structure_rows` D_F A_F
    has two nonzeros per row but for one row of 2(S - 1) per date pair at
    the head/tail switch, so the factor holds O(m S) nonzeros where H_F
    holds O(m S^2). Both terms come
    from one product, E [A, I] = D_F [A_F, I_F] with E = D_F P_F
    (``_row_differences``), its identity columns weighted by the ridge. A
    re-solve drops the rows sent to zero by summing runs of its rows
    (``_merge``): the difference of two free rows is the sum of the
    differences between them.
    """
    ineq = np.arange(len(g)) >= n_eq
    diag = A_sq @ q
    held = ineq & (g > 0.0) & (v * diag <= g)
    rows = np.flatnonzero(~held)
    E = _row_differences(rows, len(g), n_eq)
    # D_F [A_F, I_F] diag(q, ridge)^(1/2), so DA DA' is the system
    DA_F = sp.hstack([E @ A, E], format="csr")
    root = np.sqrt(np.concatenate(
        [q, np.full(len(g), _HESS_RIDGE * max(1.0, float(diag[rows].max())))]))
    DA_F.data *= root[DA_F.indices]
    Dg = E @ g
    d = np.where(held, -v, 0.0)
    bound = np.zeros(len(rows), dtype=bool)
    keep, out = rows, rows[bound]
    DA, rhs = DA_F, -Dg
    plain = None
    while True:
        # the system is symmetric positive definite: its transpose is the csc
        # form splu takes, and pivoting on the diagonal with a symmetric
        # ordering keeps the factors sparse
        y = splu((DA @ DA.T).T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                 options={"SymmetricMode": True}).solve(rhs)
        step = y.copy()
        step[n_eq + 1:] -= y[n_eq:-1]  # D'y
        d[keep] = step
        d[out] = -v[out]
        if plain is None:
            plain = d.copy()
        cross = ineq[keep] & (v[keep] + step < 0.0)
        if not cross.any():
            return d if g @ d < 0.0 else plain
        bound[np.flatnonzero(~bound)[cross]] = True
        keep, out = rows[~bound], rows[bound]
        # DA_F'z = [A_out' v_out; v_out] diag(q, ridge)^(1/2), the pull of
        # the rows sent to zero: z = D_F^(-T) (v on them, 0 elsewhere)
        z = np.where(bound, v[rows], 0.0)
        z[n_eq:] = np.cumsum(z[n_eq:])
        S = _merge(np.flatnonzero(~bound), len(rows), n_eq)
        DA = S @ DA_F
        rhs = DA @ (DA_F.T @ z) - S @ Dg


def _row_differences(rows, size, n_eq):
    """E = D_F P_F: rows ``rows`` (sorted) of the size-``size`` identity.

    The first n_eq are equalities and stay as they are; each later one
    becomes itself minus the next, and the last stays.
    """
    n = len(rows)
    pair = np.arange(n) >= n_eq
    pair[-1] = False
    indptr = np.concatenate([[0], np.cumsum(1 + pair)])
    second = indptr[:-1][pair] + 1
    cols = np.empty(indptr[-1], dtype=rows.dtype)
    cols[indptr[:-1]] = rows
    cols[second] = rows[1:][pair[:-1]]
    vals = np.ones(indptr[-1])
    vals[second] = -1.0
    return sp.csr_matrix((vals, cols, indptr), shape=(n, size))


def _merge(keep, size, n_eq):
    """S with S D = D_K P_K, where D differences ``size`` rows as above.

    P_K picks the sorted positions ``keep`` and D_K differences them alike.
    Row i of S sums rows keep[i] .. keep[i+1] - 1 of D, through the last
    for the last, since e_a - e_b = sum_{a <= c < b} (e_c - e_{c+1}). The
    first n_eq rows, the equalities, are always kept and pick themselves.
    """
    ends = np.append(keep[1:], size)
    ends[:n_eq] = keep[:n_eq] + 1
    counts = ends - keep
    indptr = np.concatenate([[0], np.cumsum(counts)])
    cols = np.arange(indptr[-1]) + np.repeat(keep - indptr[:-1], counts)
    return sp.csr_matrix((np.ones(len(cols)), cols, indptr),
                         shape=(len(keep), size))


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

    Each Newton system is factored in differenced rows (see
    ``_newton_direction``): D, which subtracts each free inequality row
    from the next, is invertible, so the step is the one H_F d = r gives,
    while on the monotonicity rows of `weak_compat.structure_rows` the
    factored matrix has O(m S) nonzeros instead of the O(m S^2) of H_F.
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
