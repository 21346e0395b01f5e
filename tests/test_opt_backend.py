"""LP, linear-fractional, and relative-entropy backends on toy instances."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdo_compat.opt_backend import (_HESS_RIDGE, DegenerateDenominator,
                                    LinearProgram, SolveStatus,
                                    _newton_direction, solve_lfp, solve_lp,
                                    solve_relative_entropy)
from cdo_compat.weak_compat import structure_rows

from conftest import tail_rows


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
