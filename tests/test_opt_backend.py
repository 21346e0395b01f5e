"""LP, linear-fractional, and relative-entropy backends on toy instances."""

import copy
import json
import sys
import types

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdo_compat import opt_backend, range_at_N
from cdo_compat.cli import main
from cdo_compat.market_model import snapshot_from_dict, snapshot_to_dict
from cdo_compat.opt_backend import (_HESS_RIDGE, T_CEILING, DegenerateDenominator,
                                    LinearProgram, SolveStatus,
                                    _newton_direction, solve_lfp, solve_lp,
                                    solve_relative_entropy)
from cdo_compat.weak_compat import (InfeasibleRegion, nonstandard_tranche_bounds,
                                    structure_rows, verify_weak,
                                    verify_weak_bid_ask)

from conftest import SNAPSHOT_PATH, tail_rows


def test_lp_min_and_max_on_a_triangle():
    # max x + y over the simplex x + y <= 1, x, y >= 0
    lp = LinearProgram(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 1.0]]),
                       b_ub=np.array([1.0]), sense="max")
    res = solve_lp(lp)
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    lp.sense = "min"
    res = solve_lp(lp)
    assert res.objective == pytest.approx(0.0)


def test_lp_feasibility_and_infeasibility():
    feas = LinearProgram(A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    res = solve_lp(feas)
    assert res.status is SolveStatus.FEASIBLE
    assert res.x.sum() == pytest.approx(1.0)

    infeas = LinearProgram(A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                           b_eq=np.array([1.0, 2.0]))
    assert solve_lp(infeas).status is SolveStatus.INFEASIBLE


def test_lp_unbounded():
    lp = LinearProgram(c=np.array([1.0]), sense="max", bounds=(0, None))
    assert solve_lp(lp).status is SolveStatus.UNBOUNDED


def test_lp_accepts_sparse_matrices():
    a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]))
    lp = LinearProgram(c=np.array([1.0, 1.0, 1.0]), A_eq=a,
                       b_eq=np.array([2.0, 1.0]))
    res = solve_lp(lp)
    assert res.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(a @ res.x, [2.0, 1.0], atol=1e-9)


def _edited(snapshot, edit):
    raw = snapshot_to_dict(snapshot)
    edit(raw["tranches"])
    return snapshot_from_dict(raw)


def _banded(tranches):
    for t, (bid, ask) in zip(tranches, [(28.2, 28.7), (4.3, 4.8), (105.0, 108.0),
                                        (27.0, 28.0)]):
        t["bid_value"], t["ask_value"] = bid, ask


def _torn(tranches):
    # a second equity quote far above the first: no law prices both
    tranches.append(dict(copy.deepcopy(tranches[0]), quote_value=50.0))


def _empty_polytope_bound(snapshot):
    with pytest.raises(InfeasibleRegion):
        nonstandard_tranche_bounds(_edited(snapshot, _torn), 0.0, 0.05, "upfront")


# (what `call(snapshot)` solves, which of its LPs to compare)
PACKAGE_LPS = {
    "weak-elastic-mid": (verify_weak, [0]),
    "weak-elastic-bid-ask": (lambda snap: verify_weak_bid_ask(_edited(snap, _banded)),
                             [0]),
    "strong-n50-bound-min-max": (lambda snap: range_at_N(snap, [1, 2, 3], 0, N=50),
                                 [0, 1]),
    "charnes-cooper-lfp": (lambda snap: nonstandard_tranche_bounds(
        snap, 0.04, 0.08, "spread"), [0]),
    "torn-infeasible": (_empty_polytope_bound, [0]),
}

TOY_LPS = {
    "unbounded": dict(c=[-1.0, 0.0]),
    "a-ub-only": dict(c=[-1.0, -2.0], A_ub=np.array([[1.0, 1.0], [1.0, 3.0]]),
                      b_ub=[4.0, 6.0]),
    "a-eq-only": dict(c=[1.0, 2.0, 0.5], A_eq=sp.csr_matrix([[1.0, 1.0, 1.0]]),
                      b_eq=[1.0], bounds=[(0, None), (0.2, None), (0, 0.3)]),
    # x0's coefficient stored as two entries of 0.5
    "repeated-entries": dict(c=[-1.0, -1.0], A_ub=sp.csr_matrix(
        ([0.5, 0.5, 1.0], [0, 0, 1], [0, 3]), shape=(1, 2)), b_ub=[1.0]),
}


def _package_lps(snapshot, call, picks):
    """The arguments of the LPs numbered ``picks`` that ``call`` hands to linprog."""
    calls, real = [], opt_backend.linprog

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt_backend, "linprog", record)
        call(snapshot)
    return [calls[i] for i in picks]


def _assert_same_answer(args, kwargs):
    ours = opt_backend.linprog(*args, **kwargs)
    ref = scipy.optimize.linprog(*args, **kwargs, method="highs")
    assert (ours.status, ours.message, ours.nit) == (ref.status, ref.message, ref.nit)
    if ref.x is None:
        assert ours.x is None and ours.fun is None
    else:
        assert ours.x.tobytes() == ref.x.tobytes()
        assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    return ours


@pytest.mark.parametrize("case", PACKAGE_LPS)
def test_linprog_answers_as_scipy_linprog_on_the_package_lps(snapshot, case):
    lps = _package_lps(snapshot, *PACKAGE_LPS[case])
    statuses = [_assert_same_answer(args, kwargs).status for args, kwargs in lps]
    assert statuses == ([2] if case == "torn-infeasible" else [0] * len(lps))
    if case == "charnes-cooper-lfp":
        bounds = lps[0][1]["bounds"]
        assert isinstance(bounds, list) and bounds[-1] == (0, T_CEILING)


@pytest.mark.parametrize("case", TOY_LPS)
def test_linprog_answers_as_scipy_linprog_on_toy_lps(case):
    res = _assert_same_answer((), TOY_LPS[case])
    assert res.status == (3 if case == "unbounded" else 0)


@pytest.mark.parametrize("field", ["c", "b_ub", "b_eq", "A_ub", "A_eq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linprog_rejects_non_finite_inputs(field, bad):
    lp = dict(c=np.ones(2), A_ub=sp.csr_matrix([[1.0, 1.0]]), b_ub=np.ones(1),
              A_eq=np.array([[1.0, -1.0]]), b_eq=np.zeros(1))
    value = lp[field].copy()
    (value.data if sp.issparse(value) else value.reshape(-1))[0] = bad
    lp[field] = value
    with pytest.raises(ValueError):
        opt_backend.linprog(**lp)


RECHECK_TOL = np.sqrt(1e-9) * 10


@pytest.mark.parametrize("where, shift, status", [
    pytest.param("ub-row", 2 * RECHECK_TOL, 4, id="ub-row-off"),
    pytest.param("eq-row", -2 * RECHECK_TOL, 4, id="eq-row-off"),
    pytest.param("column", -2 * RECHECK_TOL, 4, id="bound-off"),
    pytest.param("column", np.nan, 4, id="nan"),
    pytest.param("ub-row", 0.5 * RECHECK_TOL, 0, id="ub-row-within"),
    pytest.param("eq-row", -0.5 * RECHECK_TOL, 0, id="eq-row-within"),
])
def test_an_optimal_point_off_its_rows_is_status_4(monkeypatch, where, shift, status):
    # min x0 + x1 s.t. x0 + x1 <= 2, x0 - x1 = 0, x >= 0 is optimal at 0; the
    # solution HiGHS hands back is moved off one row or bound after the solve
    class Shifted(opt_backend.highs._Highs):
        def getSolution(self):
            sol = super().getSolution()
            if where == "column":
                sol.col_value = [sol.col_value[0] + shift, sol.col_value[1]]
            else:
                row = sol.row_value
                i = 0 if where == "ub-row" else 1
                row[i] = 2.0 + shift if where == "ub-row" else row[i] + shift
                sol.row_value = row
            return sol

    monkeypatch.setattr(opt_backend, "highs", types.SimpleNamespace(
        **{**vars(opt_backend.highs), "_Highs": Shifted}))
    res = opt_backend.linprog([1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[2.0],
                              A_eq=[[1.0, -1.0]], b_eq=[0.0])
    assert res.status == status
    if status == 4:
        assert res.message == (
            "The solution does not satisfy the constraints within the required "
            "tolerance of 3.16E-04, yet no errors were raised and there is no "
            "certificate of infeasibility or unboundedness. Check whether the "
            "slack and constraint residuals are acceptable; if not, consider "
            "enabling presolve, adjusting the tolerance option(s), and/or using "
            "a different method. Please consider submitting a bug report.")
        assert solve_lp(LinearProgram(
            c=np.ones(2), A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([2.0]),
            A_eq=np.array([[1.0, -1.0]]), b_eq=np.zeros(1),
        )).status is SolveStatus.NUMERICAL_FAILURE
    else:
        assert res.message == ("Optimization terminated successfully. "
                               "(HiGHS Status 7: Optimal)")


def test_a_model_highs_refuses_is_a_solver_failure(monkeypatch):
    # scipy reports a refused model as infeasible (status 2); here it must
    # not become an "incompatible" verdict
    class Refusing(opt_backend.highs._Highs):
        def passModel(self, *args):
            return opt_backend.highs.HighsStatus.kError

    monkeypatch.setattr(opt_backend, "highs", types.SimpleNamespace(
        **{**vars(opt_backend.highs), "_Highs": Refusing}))
    res = opt_backend.linprog([1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[2.0])
    assert (res.status, res.x, res.nit) == (4, None, 0)
    assert res.message == "(HiGHS Status 2: Model error)"
    assert solve_lp(LinearProgram(
        c=np.ones(2), A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([2.0]),
    )).status is SolveStatus.NUMERICAL_FAILURE
    out = CliRunner().invoke(main, ["verify-weak", "-i", SNAPSHOT_PATH, "--json"])
    assert out.exit_code == 2
    assert json.loads(out.output)["status"] == "numerical_failure"


def test_a_missing_highs_core_names_the_scipy_version_and_the_path(monkeypatch,
                                                                    tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(opt_backend, "scipy", types.SimpleNamespace(
        __file__=str(tmp_path / "__init__.py"), __version__="0.0"))
    with pytest.raises(ImportError, match="scipy 0.0 has no HiGHS core") as err:
        opt_backend._load_highs()
    assert str(tmp_path / "optimize" / "_highspy" / "_core") in str(err.value)


def _grid_ratio(c_num, d_num, c_den, d_den, points):
    vals = [(c_num @ x + d_num) / (c_den @ x + d_den) for x in points]
    return min(vals), max(vals)


def test_lfp_matches_grid_search_on_a_box():
    # extremize (2x + y + 1) / (x + 3y + 2) over the unit box
    c_num, d_num = np.array([2.0, 1.0]), 1.0
    c_den, d_den = np.array([1.0, 3.0]), 2.0
    a_ub = np.vstack([np.eye(2)])
    b_ub = np.ones(2)
    grid = np.linspace(0.0, 1.0, 201)
    points = [np.array([x, y]) for x in grid for y in grid]
    lo_ref, hi_ref = _grid_ratio(c_num, d_num, c_den, d_den, points)
    lo = solve_lfp(c_num, d_num, c_den, d_den, A_ub=a_ub, b_ub=b_ub,
                   sense="min").objective
    hi = solve_lfp(c_num, d_num, c_den, d_den, A_ub=a_ub, b_ub=b_ub,
                   sense="max").objective
    assert lo == pytest.approx(lo_ref, abs=1e-3)
    assert hi == pytest.approx(hi_ref, abs=1e-3)
    # a linear-fractional extremum sits at a vertex; the exact values here
    assert lo == pytest.approx(2.0 / 5.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_lfp_homogenizes_equalities():
    # fix x1 + x2 = 1 and extremize x1 / (x1 + 2 x2 + 1)
    res = solve_lfp(np.array([1.0, 0.0]), 0.0, np.array([1.0, 2.0]), 1.0,
                    A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
                    sense="max")
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.extra["t"] > 0.0
    x = res.x
    assert x.sum() == pytest.approx(1.0, abs=1e-8)


def test_lfp_degenerate_denominator():
    # the denominator is x1, which is forced huge: the normalization t x1 = 1
    # pins the auxiliary variable below the acceptance floor
    with pytest.raises(DegenerateDenominator):
        solve_lfp(np.array([0.0, 1.0]), 0.0, np.array([1.0, 0.0]), 0.0,
                  A_ub=np.array([[-1.0, 0.0], [0.0, 1.0]]),
                  b_ub=np.array([-1e13, 1.0]), sense="min")


def test_entropy_projection_is_normalized_reference():
    ref = np.array([3.0, 1.0, 1.0])
    res = solve_relative_entropy(ref, A_eq=np.ones((1, 3)), b_eq=np.array([1.0]))
    assert res.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(res.x, ref / ref.sum(), atol=1e-9)
    # generalized divergence against the unnormalized weights: -log(sum ref)
    assert res.objective == pytest.approx(-np.log(5.0), abs=1e-9)
    assert res.extra["kkt"] < 1e-8


def test_entropy_tilts_to_a_mean_constraint():
    ref = np.ones(3)
    j = np.arange(3.0)
    a_eq = np.vstack([np.ones(3), j])
    res = solve_relative_entropy(ref, A_eq=a_eq, b_eq=np.array([1.0, 0.4]))
    assert res.status is SolveStatus.OPTIMAL
    q = res.x
    assert q.sum() == pytest.approx(1.0, abs=1e-8)
    assert j @ q == pytest.approx(0.4, abs=1e-8)
    # exponential-family form: log-ratios are affine in j
    ratios = np.log(q / ref)
    assert ratios[2] - ratios[1] == pytest.approx(ratios[1] - ratios[0], abs=1e-6)


def test_entropy_respects_active_inequality():
    ref = np.array([1.0, 1.0])
    res = solve_relative_entropy(
        ref, A_eq=np.ones((1, 2)), b_eq=np.array([1.0]),
        A_ub=np.array([[1.0, 0.0]]), b_ub=np.array([0.2]))
    assert res.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(res.x, [0.2, 0.8], atol=1e-7)


def test_entropy_reports_infeasible_constraints():
    res = solve_relative_entropy(
        np.ones(2), A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b_eq=np.array([1.0, 2.0]))
    assert res.status is SolveStatus.INFEASIBLE


def test_entropy_requires_positive_reference():
    with pytest.raises(ValueError):
        solve_relative_entropy(np.array([1.0, 0.0]), A_eq=np.ones((1, 2)),
                               b_eq=np.array([1.0]))


def _newton_instance(rng, kind):
    """A dual point over unit row sums plus one kind of inequality rows.

    ``tail``: the nested tail-sum monotonicity rows of an m-date, n-name
    DPM; ``structure``: the same rows in `structure_rows`' shorter form;
    ``shuffled``: the tail rows in random order; ``random``: Gaussian rows.
    Every A has full row rank, so the dense reference is well posed.
    """
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
    A_eq = np.kron(np.eye(m), np.ones(n + 1))
    A_ub = tail_rows(m, n).toarray()
    if kind == "structure":
        A_ub = structure_rows(m, np.arange(n + 1.0), np.zeros(m))[2].toarray()
    elif kind == "shuffled":
        A_ub = A_ub[rng.permutation(len(A_ub))]
    elif kind == "random":
        A_ub = rng.standard_normal(A_ub.shape)
    A = np.vstack([A_eq, A_ub])
    q = rng.uniform(0.2, 2.0, A.shape[1])
    g = rng.standard_normal(len(A))
    v = np.concatenate([rng.standard_normal(m),
                        rng.exponential(size=len(A_ub)) * (rng.random(len(A_ub)) < 0.6)])
    return A, q, g, v, m


def _dense_direction(A, q, g, v, n_eq):
    """The projected Newton direction by dense solves on H = A Q A' + ridge I.

    Also returns the number of solves and the smallest gap that decided a
    held or crossing multiplier, so a test can skip rounding ties.
    """
    H = (A * q) @ A.T
    ineq = np.arange(len(g)) >= n_eq
    held_gap = g - v * np.diag(H)
    held = ineq & (g > 0.0) & (held_gap >= 0.0)
    margin = np.min(np.abs(held_gap[ineq & (g > 0.0)]), initial=np.inf)
    free = np.flatnonzero(~held)
    H = H + _HESS_RIDGE * max(1.0, np.diag(H)[free].max()) * np.eye(len(g))
    d = np.where(held, -v, 0.0)
    keep, plain, solves = free, None, 0
    while True:
        out = np.setdiff1d(free, keep)
        d[out] = -v[out]
        d[keep] = np.linalg.solve(H[np.ix_(keep, keep)],
                                  -g[keep] - H[np.ix_(keep, out)] @ d[out])
        solves += 1
        if plain is None:
            plain = d.copy()
        gap = v[keep] + d[keep]
        margin = min(margin, np.min(np.abs(gap[ineq[keep]]), initial=np.inf))
        cross = ineq[keep] & (gap < 0.0)
        if not cross.any():
            return (d if g @ d < 0.0 else plain), solves, margin
        keep = keep[~cross]


def _assert_same_direction(A, q, g, v, n_eq, ref):
    A = sp.csr_matrix(A)
    d = _newton_direction(A, A.multiply(A).tocsr(), q, g, v, n_eq)
    assert np.linalg.norm(d - ref) <= 1e-9 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from(["tail", "structure", "shuffled", "random"]))
def test_newton_direction_solves_the_undifferenced_system(seed, kind):
    # the step is factored in differenced rows; D is invertible, so it must
    # be the step H_F d = r gives for any row order and any rows
    instance = _newton_instance(np.random.default_rng(seed), kind)
    ref, _, margin = _dense_direction(*instance)
    assume(margin > 1e-6)
    _assert_same_direction(*instance, ref)


@pytest.mark.parametrize("kind", ["tail", "structure", "shuffled", "random"])
def test_newton_direction_after_a_multiplier_crosses_zero(kind):
    rng = np.random.default_rng(11)
    for _ in range(100):
        instance = _newton_instance(rng, kind)
        ref, solves, margin = _dense_direction(*instance)
        if solves > 1:
            break
    assert solves > 1 and margin > 1e-6
    _assert_same_direction(*instance, ref)
