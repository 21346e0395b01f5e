"""Solver backends behind one narrow contract.

Every linear program, linear-fractional program, and relative-entropy
program in the package is solved through this module, so the modeling code
never names a solver. Every LP goes to the HiGHS that scipy bundles through
its binding, with no setting to select, so its result depends on its
inputs alone. The verdicts' elastic LP and the bounds' LFPs run over
mixtures of monotone state paths, on one column-generation master
(`_PathMaster`: `solve_path_elastic`, `solve_path_lfp`); an LP in matrix
form goes to HiGHS in one call (`linprog`). The relative-entropy program is
solved on its dual by projected Newton, with the primal recovered in
closed form. Each Newton system H d = r, H = A_F Q A_F' over the free
rows, is factored as (D A_F) Q (D A_F)' y = D r, d = D'y, where D
subtracts each free inequality row from the next. D is invertible, so the
step is exact for any A. The monotonicity rows of
`weak_compat.structure_rows` (m dates of S states) come per date pair as
nested head rows, then nested tail rows. Two consecutive rows of one kind
differ in one state per date, two nonzeros; the difference at the
head/tail switch holds 2(S - 1), once per date pair. So the factored
matrix holds O(m S) nonzeros, not the O(m S^2) of H.

Only the HiGHS binding's extension module is loaded from scipy's
optimize package (`_load_highs`); ``scipy.optimize`` itself is never
imported, and ``scipy.sparse.linalg`` (for the sparse LU) only by the
first entropy solve. Every command therefore starts without them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.sparse as sp

# Centralized tolerances. Everything downstream quotes these.
FEASIBILITY_TOL = 1e-8     # max constraint violation accepted in a returned solution
KKT_TOL = 1e-8             # residual bound for the entropy solver
T_FLOOR = 1e-12            # Charnes-Cooper auxiliary variable lower acceptance
T_CEILING = 1e9            # Charnes-Cooper auxiliary variable upper bound
_RECHECK_TOL = np.sqrt(1e-9) * 10  # scipy linprog's re-check of an optimal point

# Projected Newton on the entropy dual (solve_relative_entropy).
_NEWTON_STEPS = 100        # Newton steps per solve
_BACKTRACKS = 40           # step halvings per line search
_ARMIJO = 1e-4             # sufficient-decrease fraction of the predicted decrease
_HESS_RIDGE = 1e-14        # relative ridge keeping the Newton system nonsingular;
                           # ridge I on H is ridge D D' on the differenced system
_NOISE_ULPS = 64           # rounding noise of the dual objective, in ulps of its terms
_KKT_FLOOR = 1e-13         # polishing past KKT_TOL stops here

# Column generation over monotone paths (solve_path_lfp).
_MASTER_TOL = 1e-10        # the master's primal and dual feasibility tolerances; at
                           # HiGHS's 1e-7 the loop stalls above the pricing threshold
_PRICE_TOL = 1e-9          # a path enters when its reduced cost is below -_PRICE_TOL
_PATHS_PER_ROUND = 10      # the cheapest paths added per round, one per end state
_ROUNDS = 5000             # pricing rounds per call before the master counts as stalled


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


def _load_highs():
    """scipy's HiGHS binding, without running ``scipy.optimize``'s __init__.

    The extension module is loaded from its file under its own name and
    registered in ``sys.modules``, so a later ``import scipy.optimize`` gets
    this module, not a second copy of the pybind11 module; one already
    there is reused.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = pathlib.Path(scipy.__file__).parent / "optimize" / "_highspy"
    paths = [folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy {scipy.__version__} has no HiGHS core: "
                          f"{paths[0]} is missing", name=name, path=str(paths[0]))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


highs = _load_highs()


def __getattr__(name):
    # perfbench's tracer reads and rebinds `minimize`, which the package never
    # calls; importing it on access leaves scipy.optimize out of every untraced
    # process. ROADMAP direction 5 deletes the name.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_Model = highs.HighsModelStatus
# HiGHS model status -> scipy linprog's status and message head; any other
# status is (4, "The HiGHS status code was not recognized. "). A model that
# HiGHS refuses is status 4, a solver failure, where scipy says 2.
_STATUS = {
    _Model.kOptimal: (0, "Optimization terminated successfully. "),
    _Model.kTimeLimit: (1, "Time limit reached. "),
    _Model.kIterationLimit: (1, "Iteration limit reached. "),
    _Model.kInfeasible: (2, "The problem is infeasible. "),
    _Model.kUnbounded: (3, "The problem is unbounded. "),
    _Model.kUnboundedOrInfeasible: (4, "The problem is unbounded or infeasible. "),
    **dict.fromkeys((_Model.kNotset, _Model.kLoadError, _Model.kModelError,
                     _Model.kPresolveError, _Model.kSolveError,
                     _Model.kPostsolveError, _Model.kModelEmpty,
                     _Model.kObjectiveBound, _Model.kObjectiveTarget), (4, "")),
}


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """min c'x s.t. A_ub x <= b_ub, A_eq x = b_eq, bounds, by HiGHS's dual simplex.

    Answers as scipy's ``linprog(method="highs")`` does, with the same
    options (presolve on, dual simplex, no output), so ``status``,
    ``message``, ``x``, ``fun`` and ``nit`` (simplex iterations) are its,
    returned as the attributes of a plain namespace.
    The rows go to HiGHS as one CSC matrix [A_ub; A_eq] with row bounds
    (-inf, b_ub] and [b_eq, b_eq], through the binding's array form of
    ``passModel``. ``bounds`` is one (lo, hi) pair for every variable or one
    per variable, None for no bound. Non-finite costs, right-hand sides or
    matrix entries raise ValueError. As in scipy, an optimal point that
    misses a bound or row by more than sqrt(1e-9) * 10, or holds a NaN, is
    status 4. So is a model that HiGHS refuses, where scipy says 2
    (infeasible): a refused model is a solver failure, not a verdict.
    """
    c = np.ascontiguousarray(c, float).reshape(-1)  # HiGHS reads raw buffers
    n = len(c)
    blocks = [sp.csc_array(a) for a in (A_ub, A_eq) if a is not None]
    A = sp.vstack(blocks, format="csc") if blocks else sp.csc_array((0, n))
    A.sum_duplicates()  # HiGHS refuses repeated entries as a model error
    b_ub = np.asarray([] if b_ub is None else b_ub, float).reshape(-1)
    b_eq = np.asarray([] if b_eq is None else b_eq, float).reshape(-1)
    if not (np.isfinite(c).all() and np.isfinite(b_ub).all()
            and np.isfinite(b_eq).all() and np.isfinite(A.data).all()):
        raise ValueError("linprog: c, b_ub, b_eq, A_ub and A_eq must be finite")
    if A.shape != (len(b_ub) + len(b_eq), n):
        raise ValueError(f"linprog: {A.shape} constraint matrix for "
                         f"{len(b_ub)} + {len(b_eq)} rows and {n} columns")
    lb, ub = np.broadcast_to(np.array(bounds, float), (n, 2)).T
    lb = np.where(np.isnan(lb), -np.inf, lb)
    ub = np.where(np.isnan(ub), np.inf, ub)
    row_lower = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    row_upper = np.concatenate([b_ub, b_eq])

    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "on")
    h.setOptionValue("simplex_strategy", 1)  # dual
    loaded = h.passModel(
        n, len(row_upper), A.nnz, highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize, 0.0, c, lb, ub, row_lower, row_upper,
        A.indptr, A.indices, A.data, np.zeros(n, np.int32)) != highs.HighsStatus.kError
    ran = loaded and h.run() != highs.HighsStatus.kError
    model = h.getModelStatus() if loaded else _Model.kModelError
    text = h.modelStatusToString(model)
    x = fun = None
    nit = 0
    if ran:
        info = h.getInfo()
        nit = info.simplex_iteration_count or info.ipm_iteration_count
        if model == _Model.kOptimal:
            solution = h.getSolution()
            x = np.array(solution.col_value)
            row = np.array(solution.row_value)
            fun = info.objective_function_value
        else:
            text = (f"model_status is {text}; primal_status is "
                    f"{h.solutionStatusToString(info.primal_solution_status)}")
    status, head = _STATUS.get(model, (4, "The HiGHS status code was not recognized. "))
    message = f"{head}(HiGHS Status {int(model)}: {text})"
    if x is not None:
        tol, k = _RECHECK_TOL, len(b_ub)
        # every comparison with a NaN is False, so a NaN fails the check too
        if not (np.all((x >= lb - tol) & (x <= ub + tol))
                and np.all(row[:k] - b_ub <= tol)
                and np.all(np.abs(row[k:] - b_eq) <= tol) and not np.isnan(fun)):
            status = 4
            message = (
                "The solution does not satisfy the constraints within the "
                f"required tolerance of {tol:.2E}, yet no errors were raised "
                "and there is no certificate of infeasibility or unboundedness. "
                "Check whether the slack and constraint residuals are "
                "acceptable; if not, consider enabling presolve, adjusting the "
                "tolerance option(s), and/or using a different method. Please "
                "consider submitting a bug report.")
    return SimpleNamespace(status=status, message=message, x=x, fun=fun, nit=nit)


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
        bounds=lp.bounds,
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


def _cheapest_paths(cost, k, below):
    """The paths that price below ``below``: the cheapest to each of k end states.

    ``cost`` is (m, S), and the path s_1 <= ... <= s_m over states 0..S-1
    costs sum_i cost[i, s_i]. The prefix-minimum dynamic program V_1 =
    cost_1, V_i(s) = cost_i(s) + min_{s' <= s} V_{i-1}(s') gives the
    cheapest path to every end state in O(m S). Returns those of the k
    cheapest end states that cost less than ``below``, as a (j, m) array of
    states, cheapest first, and the cheapest cost of all.
    """
    m, S = cost.shape
    V = cost.copy()
    best = np.empty_like(cost)
    for i in range(1, m):
        np.minimum.accumulate(V[i - 1], out=best[i - 1])
        V[i] += best[i - 1]
    # back[i, s]: the last s' <= s at which V_i reaches its prefix minimum
    back = np.maximum.accumulate(
        np.where(V[:-1] == best[:-1], np.arange(S), 0), axis=1)
    v = V[-1]
    ends = np.argsort(v, kind="stable")[:k]
    ends = ends[v[ends] < below]
    paths = np.empty((len(ends), m), dtype=np.intp)
    paths[:, -1] = ends
    for i in range(m - 2, -1, -1):
        paths[:, i] = back[i][paths[:, i + 1]]
    return paths, float(v.min())


def _elastic_bound(rows, rhs, sides, y):
    """A checked lower bound on the least total slack of `solve_path_elastic`.

    ``rows`` (R, m, S), ``rhs`` and ``sides`` are that function's, and ``y``
    any R row multipliers. Each elastic row's multiplier is clipped to what
    its artificials' reduced costs allow: [-1, 1] on an equality, [-1, 0] on
    an upper band and [0, 1] on a lower one; the others are free. Every
    mixture of unit mass then has a total slack of at least y'rhs plus its
    reduced cost, by weak duality, so y'rhs + min(0, cheapest path), priced
    by `_cheapest_paths` over every monotone path, bounds the least total
    slack without trusting the solver that gave y.
    """
    rows = np.asarray(rows, float)
    sides = np.asarray(sides, float)
    y = np.array(y, float)
    k = len(sides)
    y[len(y) - k:] = np.clip(y[len(y) - k:], np.where(sides < 0, 0.0, -1.0),
                             np.where(sides > 0, 0.0, 1.0))
    _, cheapest = _cheapest_paths(-np.tensordot(y, rows, 1), 1, np.inf)
    return float(y @ np.asarray(rhs, float) + min(0.0, cheapest))


class _PathMaster:
    """One HiGHS master over mixtures of non-decreasing state paths.

    A path is a non-decreasing sequence s_1 <= ... <= s_m of states 0..S-1.
    An (m, S) array f takes the value f(s) = sum_i f[i, s_i] on a path and
    sum_s w_s f(s) on a mixture w >= 0 of paths. The mixtures are to meet
    the rows f_r(w) = rhs_r of ``rows`` (R, m, S); the last len(``sides``)
    are elastic, each an equality (side 0), the upper band f_r(w) <= rhs_r
    (side 1) or the lower band f_r(w) >= rhs_r (side -1).

    Column generation (Gilmore and Gomory, Oper. Res. 9, 1961). The
    master's columns are y = t w over the paths found so far, the
    Charnes-Cooper t in [0, T_CEILING] and the artificials; its rows are the
    R rows made homogeneous, f_r(y) - rhs_r t, and the normalization
    c_den(y) + d_den t = 1. An elastic equality gets one artificial per
    sign, a band one that widens it, side (f_r(y) - rhs_r t) - a <= 0. The
    master starts from the m + 1 paths that jump from state 0 to S - 1 at
    one date or never, which must meet every row but the elastic ones. Each
    round prices every path against the master's row multipliers with
    `_cheapest_paths` and adds the (at most _PATHS_PER_ROUND) paths whose
    reduced cost is below -_PRICE_TOL; a solve ends when there is none. The
    master runs primal simplex without presolve at _MASTER_TOL, each run
    from the last basis. ``record`` counts the ``rounds``, path ``columns``
    and ``simplex_iterations`` since it was made, with the
    ``cheapest_reduced_cost`` of the last pricing. Raises SolverError if
    HiGHS refuses the model or a column.
    """

    def __init__(self, rows, rhs, sides, c_den, d_den):
        self.start = time.perf_counter()
        rows, sides = np.asarray(rows, float), np.asarray(sides, float)
        self.rhs, self.d_den, self.k = np.asarray(rhs, float), d_den, len(sides)
        R, self.m, self.S = rows.shape
        k = self.k
        # column i S + s of W holds every row's value at state s on date i; a
        # path's master column is the sum of its m cells
        self.W = np.concatenate([rows, np.asarray(c_den, float)[None]]).reshape(
            R + 1, self.m * self.S)
        self.cells = np.ascontiguousarray(self.W.T)
        self.flat = np.arange(self.m) * self.S  # a path's cells are flat + its states
        self.side = np.append(np.zeros(R - k), sides)
        elastic = np.arange(R - k, R)
        plus, minus = elastic[sides <= 0], elastic[sides >= 0]
        # t, then the artificials: +1 on each elastic row not bounded above,
        # then -1 on each not bounded below; then the paths
        self.n = n = 1 + len(plus) + len(minus)
        fixed = np.zeros((R + 1, n))
        fixed[:, 0] = np.append(-self.rhs, d_den)
        fixed[plus, 1 + np.arange(len(plus))] = 1.0
        fixed[minus, 1 + len(plus) + np.arange(len(minus))] = -1.0
        A = sp.csc_array(fixed)
        lower = np.append(np.where(self.side > 0, -np.inf, 0.0), 1.0)
        upper = np.append(np.where(self.side < 0, np.inf, 0.0), 1.0)
        self.h = h = highs._Highs()
        for option, value in (("output_flag", False), ("presolve", "off"),
                              ("simplex_strategy", 4),  # primal
                              ("primal_feasibility_tolerance", _MASTER_TOL),
                              ("dual_feasibility_tolerance", _MASTER_TOL)):
            h.setOptionValue(option, value)
        if h.passModel(n, R + 1, A.nnz, highs.MatrixFormat.kColwise,
                       highs.ObjSense.kMinimize, 0.0, np.append(0.0, np.ones(n - 1)),
                       np.zeros(n), np.append(T_CEILING, np.full(n - 1, np.inf)),
                       lower, upper, A.indptr, A.indices, A.data,
                       np.zeros(n, np.int32)) == highs.HighsStatus.kError:
            raise SolverError("path master: HiGHS refused the model")
        self.found = []  # each round's paths, as (j, m) arrays of cells
        self.y = None  # the row multipliers of the last run
        self.record = {"rounds": 0, "columns": 0, "simplex_iterations": 0,
                       "cheapest_reduced_cost": None}
        self._add((np.arange(self.m + 1)[:, None] <= np.arange(self.m)) * (self.S - 1),
                  np.zeros(self.m * self.S))

    def _add(self, paths, cost):
        new = self.flat + paths
        cols = self.cells[new].sum(axis=1)
        nz = cols != 0.0
        per_col = nz.sum(axis=1)
        if self.h.addCols(len(new), cost[new].sum(axis=1), np.zeros(len(new)),
                          np.full(len(new), np.inf), int(per_col.sum()),
                          np.append(0, np.cumsum(per_col)[:-1]).astype(np.int32),
                          np.nonzero(nz)[1].astype(np.int32),
                          cols[nz]) == highs.HighsStatus.kError:
            raise SolverError("path master: HiGHS refused a path column")
        self.found.append(new)
        self.record["columns"] += len(new)

    def _solve(self, cost, enough=-np.inf):
        """Price and grow until no path enters; a failure's message, or None."""
        h, record = self.h, self.record
        while True:
            ran = h.run() != highs.HighsStatus.kError
            model = h.getModelStatus()
            info = h.getInfo()
            record["simplex_iterations"] += info.simplex_iteration_count
            if not ran or model != _Model.kOptimal:
                return f"path master: model status {h.modelStatusToString(model)}"
            self.y = np.asarray(h.getSolution().row_dual)
            paths, record["cheapest_reduced_cost"] = _cheapest_paths(
                (cost - self.y @ self.W).reshape(self.m, self.S), _PATHS_PER_ROUND,
                -_PRICE_TOL)
            if not len(paths) or info.objective_function_value <= enough:
                return None
            if record["rounds"] == _ROUNDS:
                return f"path master: no optimum after {_ROUNDS} rounds"
            self._add(paths, cost)
            record["rounds"] += 1

    def _result(self, status, x=None, objective=None, message="", **extra):
        return SolveResult(status, x, objective, message,
                           {**self.record, **extra,
                            "wall_s": time.perf_counter() - self.start})

    def _read(self):
        """t, the mixture's law over (date, state), ravelled, and its rows' slack.

        A row's slack is f_r - rhs_r on an equality and the part of it
        outside the band on a band. Raises DegenerateDenominator if t is at
        or below T_FLOOR.
        """
        x = np.asarray(self.h.getSolution().col_value)
        t = float(x[0])
        if t <= T_FLOOR:
            raise DegenerateDenominator(f"Charnes-Cooper t = {t:.3e} at optimum")
        law = np.bincount(np.concatenate(self.found).ravel(),
                          np.repeat(x[self.n:] / t, self.m), minlength=self.m * self.S)
        value = self.W[:-1] @ law - self.rhs
        side = self.side
        return t, law, np.where(side == 0.0, value, side * np.maximum(side * value, 0.0))

    def phase1(self):
        """Minimize the artificials' total, then decide on the mixture's law.

        INFEASIBLE when an elastic row's slack exceeds FEASIBILITY_TOL,
        FEASIBLE otherwise, and then the artificials are fixed at 0 for the
        solves that follow; a law that misses another row by more than
        FEASIBILITY_TOL is NUMERICAL_FAILURE. ``x`` is the law,
        ``objective`` its total slack, and ``extra`` adds ``t``, each
        elastic row's ``slack`` and the last ``row_dual`` of the R rows.
        """
        failure = self._solve(np.zeros(self.m * self.S), enough=_MASTER_TOL)
        if failure:
            return self._result(SolveStatus.NUMERICAL_FAILURE, message=failure)
        t, law, slack = self._read()
        slack, exact = slack[len(slack) - self.k:], slack[:len(slack) - self.k]
        miss = float(np.max(np.abs(exact), initial=0.0))
        if miss > FEASIBILITY_TOL:
            return self._result(SolveStatus.NUMERICAL_FAILURE, t=t,
                                message=f"path mixture misses a row by {miss:.3e}")
        total = float(np.abs(slack).sum())
        if np.max(np.abs(slack), initial=0.0) > FEASIBILITY_TOL:
            status = SolveStatus.INFEASIBLE
            message = f"no path mixture meets the rows: total slack {total:.3e}"
        else:
            status, message = SolveStatus.FEASIBLE, "path master: Optimal"
            n = self.n
            self.h.changeColsBounds(n - 1, np.arange(1, n, dtype=np.int32),
                                    np.zeros(n - 1), np.zeros(n - 1))
        return self._result(status, law, total, message, t=t, slack=slack,
                            row_dual=self.y[:-1])

    def end(self, sign, c_num, d_num):
        """The min (sign 1) or max (sign -1) of the ratio, from the current master.

        A law that misses a row by more than FEASIBILITY_TOL is
        NUMERICAL_FAILURE.
        """
        n = self.n
        cost = sign * c_num
        paths = np.concatenate(self.found)
        self.h.changeColsCost(n + len(paths), np.arange(n + len(paths), dtype=np.int32),
                              np.concatenate([[sign * d_num], np.zeros(n - 1),
                                              cost[paths].sum(axis=1)]))
        failure = self._solve(cost)
        if failure:
            return self._result(SolveStatus.NUMERICAL_FAILURE, message=failure)
        t, law, slack = self._read()
        miss = float(np.max(np.abs(slack), initial=0.0))
        if miss > FEASIBILITY_TOL:
            return self._result(SolveStatus.NUMERICAL_FAILURE, t=t,
                                message=f"path mixture misses a row by {miss:.3e}")
        ratio = (c_num @ law + d_num) / (self.W[-1] @ law + self.d_den)
        return self._result(SolveStatus.OPTIMAL, law, float(ratio), t=t,
                            message="path master: Optimal")


def solve_path_elastic(rows, rhs, sides):
    """Least total slack over path mixtures: phase 1 of `_PathMaster` alone.

    ``rows`` (R, m, S) and ``rhs`` as in `_PathMaster`, the last
    len(``sides``) rows elastic with those sides; the master has t = 1. This
    is the elastic LP (Chinneck, *Feasibility and Infeasibility in
    Optimization*, 2008) over mixtures of monotone paths. Returns phase 1's
    SolveResult: FEASIBLE, INFEASIBLE or NUMERICAL_FAILURE, with the law
    and each elastic row's slack (see `_PathMaster.phase1`) on a decision.
    An INFEASIBLE result's ``extra`` adds the ``bound`` of `_elastic_bound`
    at the master's last multipliers, and one whose bound is at or below
    FEASIBILITY_TOL proves nothing, so it is NUMERICAL_FAILURE. So is a
    model or column that HiGHS refuses.
    """
    try:
        res = _PathMaster(rows, rhs, sides, np.zeros(np.shape(rows)[1:]), 1.0).phase1()
    except SolverError as exc:
        return SolveResult(SolveStatus.NUMERICAL_FAILURE, message=str(exc))
    if res.status is SolveStatus.INFEASIBLE:
        bound = res.extra["bound"] = _elastic_bound(rows, rhs, sides,
                                                    res.extra["row_dual"])
        if bound <= FEASIBILITY_TOL:
            res.status = SolveStatus.NUMERICAL_FAILURE
            res.message = (f"{res.message}, but its checked lower bound is "
                           f"{bound:.3e}")
    return res


def solve_path_lfp(rows, rhs, n_elastic, c_num, d_num, c_den, d_den):
    """Min and max of (c_num(w) + d_num) / (c_den(w) + d_den) over path mixtures w.

    The mixtures meet the rows of ``rows`` (R, m, S) at ``rhs``, as in
    `_PathMaster`, the last ``n_elastic`` elastic equalities; the
    denominator must be positive on them. One master serves both solves:
    its phase 1 decides whether a mixture meets the rows, and the min and
    the max solve run in turn from where it ends.

    Returns the (min, max) SolveResults; an end that a failure kept from
    running repeats that failure, and an INFEASIBLE phase 1 is both ends,
    without a law. ``x`` is the mixture's law over (date, state), ravelled,
    and ``objective`` the ratio on it, both recomputed here. ``extra`` is
    the master's record when the result was read, with ``wall_s`` since the
    call began (and ``t`` at an end). Raises DegenerateDenominator if t is
    at or below T_FLOOR at an end, and SolverError if HiGHS refuses the
    model or a column.
    """
    master = _PathMaster(rows, rhs, np.zeros(n_elastic), c_den, d_den)
    first = master.phase1()
    if first.status is not SolveStatus.FEASIBLE:
        res = SolveResult(first.status, message=first.message, extra=first.extra)
        return res, res
    c_num = np.asarray(c_num, float).ravel()
    lo = master.end(1.0, c_num, d_num)
    if lo.status is not SolveStatus.OPTIMAL:
        return lo, lo
    return lo, master.end(-1.0, c_num, d_num)


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
    from scipy.sparse.linalg import splu

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
    # the first solve loads the sparse LU (about 50 ms) before its clock starts
    import scipy.sparse.linalg  # noqa: F401
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
