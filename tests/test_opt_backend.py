"""LP, linear-fractional, path and relative-entropy backends on toy instances."""

import itertools
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

from cdo_compat import opt_backend
from cdo_compat.cli import main
from cdo_compat.dpm_core import validate_dpm
from cdo_compat.market_model import snapshot_from_dict, snapshot_to_dict
from cdo_compat.opt_backend import (_HESS_RIDGE, FEASIBILITY_TOL, T_CEILING,
                                    DegenerateDenominator, LinearProgram,
                                    SolveStatus, _cheapest_paths,
                                    _elastic_bound, _newton_direction,
                                    solve_lfp, solve_lp, solve_path_elastic,
                                    solve_path_lfp, solve_relative_entropy)
from cdo_compat.strong_compat import StrongFeasibilityProblem
from cdo_compat.tranche_valuation import (TrancheCoefficients, beta_coeffs,
                                          lambda_coeffs)
from cdo_compat.weak_compat import (WeakFeasibilityProblem, _target,
                                    structure_rows)

from conftest import SNAPSHOT_PATH, full_elastic_lp, tail_rows


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


def _charnes_cooper_bound(snapshot):
    """`solve_lfp`'s lower 4-8% spread bound over the full weak polytope."""
    target = _target(0.04, 0.08, "spread", 0.0)
    problem = WeakFeasibilityProblem.from_snapshot(snapshot, target=target)
    sched, disc = snapshot.schedule, snapshot.discount
    loss = problem.H.T @ beta_coeffs(target, snapshot.portfolio)
    acc_disc = disc(np.asarray(sched.payment_dates)) * sched.accruals
    return solve_lfp(np.outer(lambda_coeffs(0.0, sched, disc), loss).ravel(), 0.0,
                     -np.outer(acc_disc, loss).ravel(), target.width * acc_disc.sum(),
                     A_ub=problem.A_ub, b_ub=problem.b_ub, A_eq=problem.A_eq,
                     b_eq=problem.b_eq, sense="min")


def _full_elastic(problem):
    """Solve the elastic LP of ``problem(snapshot)`` in its full form."""
    return lambda snap: solve_lp(full_elastic_lp(problem(snap)))


def _banded_weak(snapshot):
    return WeakFeasibilityProblem.from_snapshot(_edited(snapshot, _banded), bid_ask=True)


def _strong_50(snapshot):
    return StrongFeasibilityProblem.from_snapshot(snapshot, 50)


# (what `call(snapshot)` solves, which of its LPs to compare); verdicts,
# ranges and bounds are solved in path form, not through linprog, so the
# elastic LPs are the full-form reference that the tests compare them with
PACKAGE_LPS = {
    "weak-elastic-mid": (_full_elastic(WeakFeasibilityProblem.from_snapshot), [0]),
    "weak-elastic-bid-ask": (_full_elastic(_banded_weak), [0]),
    "strong-n50-elastic": (_full_elastic(_strong_50), [0]),
    "charnes-cooper-lfp": (_charnes_cooper_bound, [0]),
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
    # x0 + x1 <= 1 and x0 + 2 x1 >= 3 have no point in common with x >= 0
    "infeasible": dict(c=[1.0, 1.0], A_ub=np.array([[1.0, 1.0], [-1.0, -2.0]]),
                       b_ub=[1.0, -3.0]),
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
    assert statuses == [0] * len(lps)
    if case == "charnes-cooper-lfp":
        bounds = lps[0][1]["bounds"]
        assert isinstance(bounds, list) and bounds[-1] == (0, T_CEILING)


@pytest.mark.parametrize("case", TOY_LPS)
def test_linprog_answers_as_scipy_linprog_on_toy_lps(case):
    res = _assert_same_answer((), TOY_LPS[case])
    assert res.status == {"unbounded": 3, "infeasible": 2}.get(case, 0)


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


def _monotone_paths(m, S):
    """Every non-decreasing path of m states out of 0..S-1, one per row."""
    return np.array(list(itertools.combinations_with_replacement(range(S), m)))


def _on_paths(f, paths):
    """Each path's value sum_i f[i, s_i] of an (m, S) array f."""
    return f[np.arange(f.shape[0]), paths].sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1), st.sampled_from([np.inf, 0.0, -1.0]))
def test_cheapest_paths_match_enumeration(m, S, k, seed, below):
    # the prefix-minimum program against every monotone path; integer costs
    # (odd seeds) make ties between paths and between end states common
    rng = np.random.default_rng(seed)
    cost = (rng.integers(-3, 4, (m, S)).astype(float) if seed % 2
            else rng.standard_normal((m, S)))
    every = _monotone_paths(m, S)
    totals = _on_paths(cost, every)
    by_end = np.array([totals[every[:, -1] == s].min() for s in range(S)])
    paths, cheapest = _cheapest_paths(cost, k, below)
    assert cheapest == pytest.approx(totals.min(), abs=1e-12)
    assert paths.shape[1] == m and np.all(np.diff(paths, axis=1) >= 0)
    assert np.all((paths >= 0) & (paths < S))
    assert len(set(paths[:, -1])) == len(paths)
    got = _on_paths(cost, paths)
    np.testing.assert_allclose(got, by_end[paths[:, -1]], rtol=0, atol=1e-12)
    want = np.sort(by_end)[:k]
    np.testing.assert_allclose(got, want[want < below], rtol=0, atol=1e-12)


def _path_rows(rng, m, S, n_quotes):
    """The mass, the means of states 0..S-1 and random quote rows, with the
    right-hand sides of a random mixture of three monotone paths."""
    every = _monotone_paths(m, S)
    law = np.zeros((m, S))
    np.add.at(law, (np.arange(m), every[rng.choice(len(every), 3)]),
              rng.dirichlet(np.ones(3))[:, None])
    rows = np.zeros((1 + m + n_quotes, m, S))
    rows[0, 0] = 1.0
    rows[1 + np.arange(m), np.arange(m)] = np.arange(S)
    rows[1 + m:] = rng.standard_normal((n_quotes, m, S))
    return rows, rows.reshape(len(rows), -1) @ law.ravel()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(0, 2), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_path_lfp_ends_are_those_of_the_lfp_over_every_path(m, S, n_quotes, ratio,
                                                            seed):
    # column generation against `solve_lfp` over every monotone path at once;
    # the ends agreed to 8.9e-14 at most over 2,000 seeded draws of this kind
    rng = np.random.default_rng(seed)
    rows, rhs = _path_rows(rng, m, S, n_quotes)
    num, d_num = rng.standard_normal((m, S)), float(rng.standard_normal())
    den, d_den = ((rng.uniform(0.0, 1.0, (m, S)), 0.5) if ratio
                  else (np.zeros((m, S)), 1.0))
    every = _monotone_paths(m, S)
    cols = np.array([_on_paths(row, every) for row in rows])
    ends = solve_path_lfp(rows, rhs, n_quotes, num, d_num, den, d_den)
    for res, sense in zip(ends, ("min", "max")):
        ref = solve_lfp(_on_paths(num, every), d_num, _on_paths(den, every), d_den,
                        A_eq=cols, b_eq=rhs, sense=sense)
        assert res.status is ref.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.objective, rel=0, abs=1e-9)
        # a mixture of monotone paths is a law with ordered tail sums
        assert validate_dpm(res.x.reshape(m, S)).valid
        np.testing.assert_allclose(rows.reshape(len(rows), -1) @ res.x, rhs,
                                   rtol=0, atol=1e-8)


def test_path_lfp_reports_rows_that_no_mixture_meets():
    rng = np.random.default_rng(3)
    rows, rhs = _path_rows(rng, 3, 4, 2)
    rows[-1] = 0.0
    rows[-1, 0] = 1.0  # every path's mass, asked to be 2
    rhs[-1] = 2.0
    lo, hi = solve_path_lfp(rows, rhs, 2, rng.standard_normal((3, 4)), 0.0,
                            np.zeros((3, 4)), 1.0)
    assert lo is hi and lo.status is SolveStatus.INFEASIBLE and lo.x is None


def _elastic_over_every_path(rows, rhs, sides):
    """The least total slack of `solve_path_elastic`'s LP, over every path at once.

    A band row is written side (f_r(w) - rhs_r) - a_r <= 0, with one
    artificial; an elastic equality gets one per sign.
    """
    R, m, S = rows.shape
    every = _monotone_paths(m, S)
    side = np.append(np.zeros(R - len(sides)), sides)
    sign = np.where(side == 0.0, 1.0, side)
    elastic = np.arange(R - len(sides), R)
    mid, band = elastic[side[elastic] == 0.0], elastic[side[elastic] != 0.0]
    eye = np.eye(R)
    A = np.hstack([np.array([_on_paths(row, every) for row in rows]) * sign[:, None],
                   eye[:, mid], -eye[:, mid], -eye[:, band]])
    b, eq = rhs * sign, side == 0.0
    return solve_lp(LinearProgram(
        c=np.append(np.zeros(len(every)), np.ones(A.shape[1] - len(every))),
        A_eq=A[eq], b_eq=b[eq], A_ub=A[~eq] if len(band) else None,
        b_ub=b[~eq] if len(band) else None))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5),
       st.lists(st.sampled_from([0, 1, -1]), max_size=3),
       st.sampled_from([0.0, 1e-3, 0.3]), st.integers(0, 2 ** 31 - 1))
def test_path_elastic_is_the_elastic_lp_over_every_path(m, S, sides, shift, seed):
    # phase 1 alone against the elastic LP over every monotone path, on rows
    # that a mixture meets before the elastic rows' right-hand sides move
    rng = np.random.default_rng(seed)
    rows, rhs = _path_rows(rng, m, S, len(sides))
    rhs[1 + m:] += shift * rng.standard_normal(len(sides))
    res = solve_path_elastic(rows, rhs, sides)
    ref = _elastic_over_every_path(rows, rhs, np.array(sides, float))
    assert ref.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(ref.objective, rel=0, abs=1e-9)
    slack = res.extra["slack"]
    assert len(slack) == len(sides) and res.objective == pytest.approx(
        np.abs(slack).sum(), rel=0, abs=1e-15)
    # a band row's slack lies outside its band: positive above, negative below
    assert all(s * side >= 0.0 for s, side in zip(slack, sides))
    value = rows.reshape(len(rows), -1) @ res.x - rhs
    np.testing.assert_allclose(value[1 + m:][np.equal(sides, 0)],
                               slack[np.equal(sides, 0)], rtol=0, atol=1e-15)
    np.testing.assert_allclose(value[:1 + m], 0.0, rtol=0, atol=FEASIBILITY_TOL)
    assert validate_dpm(res.x.reshape(m, S)).valid
    if np.max(np.abs(slack), initial=0.0) > FEASIBILITY_TOL:
        assert res.status is SolveStatus.INFEASIBLE
        assert FEASIBILITY_TOL < res.extra["bound"] <= ref.objective + 1e-12
        assert res.extra["bound"] == pytest.approx(ref.objective, rel=0, abs=1e-9)
    else:
        assert res.status is SolveStatus.FEASIBLE and "bound" not in res.extra


def test_path_elastic_without_elastic_rows_says_yes_with_no_slack():
    rows, rhs = _path_rows(np.random.default_rng(5), 3, 4, 0)
    res = solve_path_elastic(rows, rhs, [])
    assert res.status is SolveStatus.FEASIBLE and res.objective == 0.0
    assert res.extra["slack"].tolist() == []


def test_a_corrupted_multiplier_lowers_the_checked_bound(snapshot):
    # the elastic LP's own multipliers give the best bound the check allows;
    # moving any one of them gives a smaller one, so a bound computed from
    # wrong multipliers errs on the safe side. Two moves change nothing:
    # raising the mass row's shifts y'rhs and every path's reduced cost
    # alike, and a quote row's clipped back to where it was
    raw = snapshot_to_dict(snapshot)
    raw["tranches"][3]["quote_value"] = 80.0
    problem = StrongFeasibilityProblem.from_snapshot(snapshot_from_dict(raw), 50)
    rows, rhs = problem.path_rows()
    sides = [side for _, side in problem.quotes]
    res = solve_path_elastic(rows, rhs, sides)
    y = res.extra["row_dual"]
    bound = res.extra["bound"]
    assert res.status is SolveStatus.INFEASIBLE
    assert _elastic_bound(rows, rhs, sides, y) == bound
    assert FEASIBILITY_TOL < bound <= res.objective
    quotes = len(y) - len(sides)
    for r in range(len(y)):
        for step in (-0.5, 0.5):
            moved = y.copy()
            moved[r] += step * max(1.0, abs(y[r]))
            got = _elastic_bound(rows, rhs, sides, moved)
            if (r == 0 and step > 0) or (r >= quotes and np.clip(moved[r], -1, 1) == y[r]):
                assert got == pytest.approx(bound, rel=0, abs=1e-15), (r, step)
            else:
                assert got < bound - 1e-9, (r, step)


def test_a_path_solve_carries_its_record(snapshot):
    # the equity tranche's value over N=50 generator laws pricing the others
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, 50, priced=[1, 2, 3])
    rows, rhs = problem.path_rows()
    coeffs = TrancheCoefficients.from_snapshot(snapshot, 0)
    num = np.outer(coeffs.lam, problem.H.T @ coeffs.beta)
    lo, hi = solve_path_lfp(rows, rhs, problem.n_quotes, num, -coeffs.gamma,
                            np.zeros_like(num), 1.0)
    keys = {"rounds", "columns", "simplex_iterations", "wall_s",
            "cheapest_reduced_cost", "t"}
    assert set(lo.extra) == set(hi.extra) == keys
    m = problem.m
    for res in (lo, hi):
        extra = res.extra
        assert res.status is SolveStatus.OPTIMAL and extra["t"] == 1.0
        assert extra["rounds"] > 0 and extra["simplex_iterations"] > 0
        assert m + 1 + extra["rounds"] <= extra["columns"] <= m + 1 + 10 * extra["rounds"]
        assert extra["cheapest_reduced_cost"] >= -1e-9 and extra["wall_s"] > 0.0
    # the record is the master's since the call began, which both ends share
    for key in ("rounds", "columns", "simplex_iterations", "wall_s"):
        assert hi.extra[key] > lo.extra[key]
    assert lo.objective < 0.0 < hi.objective  # the equity quote lies inside


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
