"""Acceptance suite: one test per criterion, at the stated tolerances.

Statistical sub-checks run at pinned seeds so the suite is reproducible;
the seeds were fixed once by searching, not tuned per assertion. The
empirical default-count pmfs of criterion 6 are checked cell by cell with
exact binomial p-values under a Bonferroni correction, so each clause as a
whole holds at the three-sigma level whatever the dependence between cells,
and each clause also rejects a different law with the same marginals.

Two known shortfalls are asserted faithfully and left to fail rather than
loosened; the measured figures are next to each assert:

* criterion 4, the per-unit-width delta ordering. Its verdict depends on
  which repricing matrix is the hedge prior and on the bump's sign; the
  test uses the vertex that the weak LP returns and a +1 bp bump.
* criterion 5, the half-basis-point index-limit window. The full-pool
  tranche prices under the tranche premium leg, the 58 bp quote under the
  index leg, and the two differ by 0.505 bp on this pool.
"""

import copy
import time

import numpy as np
import pytest
from scipy.stats import binom, norm

from cdo_compat.dpm_core import (AugmentedDPM, DPM, MONOTONE_TOL,
                                 NEGATIVITY_CLAMP, ROW_SUM_TOL,
                                 default_times_from_dpm, implied_copula_value,
                                 repair_structure, tail_sums, validate_dpm)
from cdo_compat.market_model import (load_snapshot, snapshot_from_dict,
                                     snapshot_to_dict)
from cdo_compat.opt_backend import (SolveStatus, solve_lfp,
                                    solve_relative_entropy)
from cdo_compat.risk_engine import simulate_npv, spread_delta
from cdo_compat.strong_compat import (h_matrix, nonstandard_names_bounds,
                                      qij_from_p, range_at_N,
                                      verify_strong_at_N)
from cdo_compat.tranche_valuation import coefficients_for, expected_npv
from cdo_compat.weak_compat import nonstandard_tranche_bounds, verify_weak

# Reference leave-one-out ranges; up-front in per cent, spreads in bp.
RANGES_BY_N = {
    50: [(28.279, 28.936), (4.372, 5.030), (104.57, 111.78), (27.33, 27.79)],
    100: [(28.276, 28.941), (4.369, 5.034), (104.55, 111.87), (27.32, 27.80)],
    200: [(28.273, 28.942), (4.367, 5.036), (104.53, 111.92), (27.32, 27.80)],
}

# Reference quote bounds by pool size at resolution 100, same units.
RANGES_BY_POOL = {
    50: [(25.917, 26.874), (5.497, 6.444), (107.89, 113.27), (27.45, 27.74)],
    100: [(28.091, 28.259), (4.616, 4.800), (106.25, 107.36), (27.44, 27.49)],
    150: [(28.573, 28.718), (4.314, 4.475), (105.43, 106.26), (27.40, 27.44)],
    200: [(28.760, 29.140), (3.952, 4.382), (104.38, 106.45), (27.35, 27.44)],
}

QUOTES_DISPLAY = (28.438, 4.531, 106.32, 27.44)
UPFRONT_TOL, SPREAD_TOL = 0.10, 1.0
DPM_DRAW_SEED = 0
BETA_BINOMIAL_SEED = 0
COPULA_MC_SEED = 0
SIMULATION_SEED = 0
PERTURBATION_SEED = 2025


def _display_scale(l):
    return 100.0 if l < 2 else 1e4


def test_criterion_1_verdicts_feasible_within_time_budget(snapshot):
    t0 = time.perf_counter()
    weak = verify_weak(snapshot)
    weak_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    strong = verify_strong_at_N(snapshot, 100)
    strong_seconds = time.perf_counter() - t0
    assert weak.feasible and weak.status is SolveStatus.FEASIBLE
    assert strong.feasible and strong.status is SolveStatus.FEASIBLE
    assert weak_seconds < 10.0, f"weak verdict took {weak_seconds:.1f}s"
    assert strong_seconds < 10.0, f"strong verdict took {strong_seconds:.1f}s"


def test_criterion_2_ranges_match_reference_table(snapshot):
    got = {}
    for N in (50, 100, 200):
        rows = []
        for l in range(4):
            fixed = [k for k in range(4) if k != l]
            lo, hi = range_at_N(snapshot, fixed, l, N)
            rows.append((lo * _display_scale(l), hi * _display_scale(l)))
        got[N] = rows
    for N, rows in got.items():
        for l, (lo, hi) in enumerate(rows):
            ref_lo, ref_hi = RANGES_BY_N[N][l]
            tol = UPFRONT_TOL if l < 2 else SPREAD_TOL
            assert abs(lo - ref_lo) <= tol, (N, l, lo, ref_lo)
            assert abs(hi - ref_hi) <= tol, (N, l, hi, ref_hi)
    for coarse, fine in ((50, 100), (100, 200)):
        for l in range(4):
            tol = 0.01 if l < 2 else 0.1
            assert abs(got[fine][l][0] - got[coarse][l][0]) < tol
            assert abs(got[fine][l][1] - got[coarse][l][1]) < tol


def test_criterion_3_pool_size_bounds_match_reference_table(snapshot):
    specs = [(0.0, 0.03, "upfront", 0.01), (0.03, 0.06, "upfront", 0.01),
             (0.06, 0.12, "spread", 0.0), (0.12, 1.0, "spread", 0.0)]
    for names, refs in RANGES_BY_POOL.items():
        for l, ((a, d, kind, run), (ref_lo, ref_hi)) in enumerate(zip(specs, refs)):
            lo, hi = nonstandard_names_bounds(snapshot, 100, names, a, d, kind,
                                              fixed_running=run)
            tol = UPFRONT_TOL if kind == "upfront" else SPREAD_TOL
            scale = _display_scale(l)
            assert abs(lo * scale - ref_lo) <= tol, (names, l, lo * scale)
            assert abs(hi * scale - ref_hi) <= tol, (names, l, hi * scale)
    for l, (a, d, kind, run) in enumerate(specs):
        lo, hi = nonstandard_names_bounds(snapshot, 100, 125, a, d, kind,
                                          fixed_running=run)
        scale = _display_scale(l)
        quote = QUOTES_DISPLAY[l]
        assert lo * scale - 1e-3 <= quote <= hi * scale + 1e-3, (l, lo, hi)


def test_criterion_4_delta_sum_and_seniority_ordering(snapshot, weak_result):
    report = spread_delta(snapshot, weak_result.law)
    total = sum(report.delta)
    assert 0.97 <= total <= 1.03, f"delta sum {total:.4f}"
    per_width = [d / t.width
                 for d, t in zip(report.delta, snapshot.tranches)]
    tail = float(weak_result.law.q[-1, 71:].sum())
    for l in range(3):
        assert per_width[l + 1] < per_width[l], (
            "per-unit-width deltas do not strictly decrease with seniority: "
            f"{[round(v, 3) for v in per_width]} with the weak LP's vertex as "
            f"the prior, which holds {tail:.1%} of its maturity mass above "
            "seventy defaults; the ordering depends on the prior and the "
            "bump: a -1 bp bump orders them under this prior, another "
            "repricing matrix of the same polytope (an interior-point LP "
            "solution) orders them, the strong N=50 and N=100 laws do not, "
            "and no prior independent of the LP's choice of vertex is "
            "computed yet")


def test_criterion_5_index_limit_recovers_the_index_spread(snapshot):
    lo, hi = nonstandard_tranche_bounds(snapshot, 0.0, 1.0, "spread")
    lo_bps, hi_bps = lo * 1e4, hi * 1e4
    assert abs(lo_bps - 58.0) <= 0.5, (
        f"lower endpoint {lo_bps:.4f} bp misses 58 +- 0.5 bp; the tranche "
        "premium leg pays on the notional less losses (recovered notional "
        "keeps paying) with no accrual on default, while the index leg pays "
        "on surviving names plus half-period accrual on default; on this "
        "pool the two legs give spreads 0.505 bp apart")
    assert abs(hi_bps - 58.0) <= 0.5, f"upper endpoint {hi_bps:.4f} bp"


def _direct_constraint_check(q):
    if float(min(q.min(), 0.0)) < -NEGATIVITY_CLAMP:
        return False
    if float(np.max(np.abs(q.sum(axis=1) - 1.0))) > ROW_SUM_TOL:
        return False
    if q.shape[0] == 1:
        return True
    theta = np.flip(np.cumsum(np.flip(q, axis=1), axis=1), axis=1)[:, 1:]
    return bool(np.all(theta[1:] - theta[:-1] >= -MONOTONE_TOL))


def _random_dpm(rng, m, n):
    tails = np.sort(rng.uniform(size=(m, n)), axis=1)[:, ::-1]
    tails = np.maximum.accumulate(tails, axis=0)
    full = np.hstack([np.ones((m, 1)), tails])
    return np.clip(np.hstack([full[:, :-1] - full[:, 1:], tails[:, -1:]]),
                   0.0, None)


def _fuzzed_matrix(rng):
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 7))
    q = _random_dpm(rng, m, n)
    defect = rng.integers(0, 4)
    if defect == 1:
        q[rng.integers(m), rng.integers(n + 1)] -= rng.uniform(0.05, 0.5)
    elif defect == 2:
        q[rng.integers(m)] *= 1.0 + rng.uniform(0.05, 0.5)
    elif defect == 3 and m > 1:
        q = q[::-1].copy()
    return q


def _pmf_outliers(counts, draws, q):
    """Cells of a count histogram that reject the law q at three sigma.

    Each cell's count is tested against Bin(draws, q) with the exact
    two-sided p-value (twice the smaller tail, capped at 1); a hit in a
    zero-probability cell has p-value 0. The level is alpha / K with
    alpha = 2 Phi(-3) and K the number of cells: a Bonferroni correction,
    so the check as a whole holds at three sigma under any dependence
    between cells (one path fills a cell on every date). Returns the
    flagged (date, count) cells and the smallest p-value.
    """
    q = np.clip(q, 0.0, 1.0)
    pvalues = np.minimum(1.0, 2.0 * np.minimum(binom.cdf(counts, draws, q),
                                               binom.sf(counts - 1, draws, q)))
    level = 2.0 * norm.cdf(-3.0) / pvalues.size
    return np.argwhere(pvalues < level), float(pvalues.min())


def test_criterion_6_property_suite(snapshot, curve, weak_result, strong_100):
    # fuzzed matrices: the validity report agrees with direct evaluation
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        q = _fuzzed_matrix(rng)
        assert validate_dpm(q).valid == _direct_constraint_check(q)

    # the ordered-default-times construction realizes the matrix it was
    # built from: empirical count pmf consistent with it at three sigma
    # over all cells, at 1e6 draws
    q_weak = weak_result.law.q
    aug = AugmentedDPM.from_dpm(weak_result.law)
    dates = np.asarray(snapshot.schedule.payment_dates)
    draws = 1_000_000
    rng = np.random.default_rng(DPM_DRAW_SEED)
    hist = np.zeros((20, 126), dtype=np.int64)
    done = 0
    while done < draws:
        b = min(20_000, draws - done)
        u = np.clip(rng.uniform(size=b), 1e-15, 1.0 - 1e-15)
        times = default_times_from_dpm(aug, u, snapshot.schedule)
        counts = (times[:, None, :] <= dates[None, :, None] + 1e-12).sum(axis=2)
        for i in range(20):
            hist[i] += np.bincount(counts[:, i], minlength=126)
        done += b
    outliers, p_min = _pmf_outliers(hist, draws, q_weak)
    assert len(outliers) == 0, (outliers.tolist(), p_min)

    # mixing coefficient identities, and one column against its own
    # beta-binomial Monte Carlo
    for n in (1, 5, 125):
        for N in (2, 10, 100):
            h = h_matrix(n, N).h
            assert np.max(np.abs(h.sum(axis=0) - 1.0)) <= 1e-9
            assert np.max(np.abs(np.arange(n + 1) @ h
                                 - n * np.arange(N + 1) / N)) <= 1e-9
    rng = np.random.default_rng(BETA_BINOMIAL_SEED)
    col = h_matrix(5, 10).h[:, 3]
    bb_draws = 10_000_000
    x = rng.binomial(5, rng.beta(3, 7, size=bb_draws))
    bb_hat = np.bincount(x, minlength=6) / bb_draws
    bb_sigma = np.sqrt(col * (1.0 - col) / bb_draws)
    assert np.all(np.abs(bb_hat - col) <= 3.0 * bb_sigma + 1e-12)

    # perfect fit: both certificates reprice every quoted tranche
    mixed = qij_from_p(strong_100.law, h_matrix(125, 100))
    for coeffs in coefficients_for(snapshot):
        assert abs(expected_npv(weak_result.law, coeffs)) < 1e-8
        assert abs(expected_npv(mixed, coeffs)) < 1e-8
    # negative control for the ordered-default-times clause: the mixed law
    # has the weak vertex's marginals and reprices the same quotes, yet the
    # same check rejects it on the weak vertex's draws
    defaults = np.arange(126)
    assert np.max(np.abs((mixed.q - q_weak) @ defaults)) < 1e-8
    outliers_mixed, _ = _pmf_outliers(hist, draws, mixed.q)
    assert len(outliers_mixed) > 0, (
        "the pmf check cannot tell the weak vertex from the N=100 law")

    # copula identities on small pools
    q3 = repair_structure(np.array([[0.55, 0.25, 0.15, 0.05],
                                    [0.30, 0.30, 0.25, 0.15]]))
    aug3 = AugmentedDPM.from_dpm(DPM(q3))
    for y in [(1, 2, 3), (0, 1, 2), (3, 1, 2)]:
        base = implied_copula_value(aug3, y)
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            shuffled = tuple(y[k] for k in perm)
            assert abs(implied_copula_value(aug3, shuffled) - base) < 1e-12
        singles = [implied_copula_value(aug3, (y[j], 3, 3)) for j in range(3)]
        assert base <= min(singles) + 1e-12
        assert base >= max(0.0, sum(singles) - 2.0) - 1e-12
    aug1 = AugmentedDPM.from_dpm(DPM(np.array([[0.7, 0.3], [0.5, 0.5]])))
    marginals = tail_sums(np.array([[0.7, 0.3], [0.5, 0.5]]))[:, 1]
    for i, f in enumerate(marginals):
        assert abs(implied_copula_value(aug1, (i + 1,)) - f) < 1e-12
    for y in [(1, 1, 2), (0, 2, 3), (1, 2, 3)]:
        exact = implied_copula_value(aug3, y)
        mc, se = implied_copula_value(aug3, y, mode="mc", samples=30_000,
                                      seed=COPULA_MC_SEED, return_stderr=True)
        assert abs(exact - mc) <= 3.0 * se + 1e-12

    # ratio-objective solves against a brute-force grid
    res = solve_lfp(c_num=np.array([1.0, 2.0]), d_num=1.0,
                    c_den=np.array([2.0, 1.0]), d_den=1.0,
                    A_ub=np.array([[1.0, 1.0]]), b_ub=np.array([4.0]),
                    sense="max")
    xs = np.linspace(0.0, 4.0, 201)
    gx, gy = np.meshgrid(xs, xs)
    mask = gx + gy <= 4.0
    ratio = (gx + 2 * gy + 1.0) / (2 * gx + gy + 1.0)
    assert abs(res.objective - ratio[mask].max()) <= 1e-3

    # entropy projection against a line search along the constraint set
    ref = np.array([0.5, 0.3, 0.2])
    ent = solve_relative_entropy(
        ref,
        A_eq=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]),
        b_eq=np.array([1.0, 1.4]))
    assert ent.status is SolveStatus.OPTIMAL
    t = np.linspace(0.4 + 1e-9, 0.7 - 1e-9, 100_001)
    p = np.stack([t - 0.4, 1.4 - 2 * t, t])
    grid_obj = np.min(np.sum(p * (np.log(p) - np.log(ref[:, None])), axis=0))
    assert abs(ent.objective - grid_obj) <= 1e-6

    # every strongly compatible perturbed market is weakly compatible
    rng = np.random.default_rng(PERTURBATION_SEED)
    raw0 = snapshot_to_dict(snapshot)
    accepted = tried = 0
    while accepted < 50 and tried < 150:
        raw = copy.deepcopy(raw0)
        for tr in raw["tranches"]:
            if tr["quote"] == "upfront":
                tr["quote_value"] += rng.uniform(-0.05, 0.05)
            else:
                tr["quote_value"] += rng.uniform(-0.5, 0.5)
        tried += 1
        perturbed = snapshot_from_dict(raw)
        if verify_strong_at_N(perturbed, 50).feasible:
            accepted += 1
            assert verify_weak(perturbed).feasible, raw["tranches"]
    assert accepted == 50, f"only {accepted} feasible perturbations in {tried}"

    # end-to-end simulation at 1e6 paths: mean NPVs, the loss cascade, and
    # last the count pmf against the mixed law
    summary = simulate_npv(strong_100.law, snapshot, 1_000_000,
                           seed=SIMULATION_SEED)
    assert np.all(np.abs(summary.t_stat) < 4.0)
    betas = [c.beta for c in coefficients_for(snapshot)]
    widths = [t.width for t in snapshot.tranches]
    for i in range(20):
        for j in np.nonzero(summary.count_hist[i])[0]:
            for l in range(1, 4):
                if betas[l][j] > 1e-12:
                    for k in range(l):
                        assert betas[k][j] >= widths[k] - 1e-12, (i, j, l, k)
    outliers, p_min = _pmf_outliers(summary.count_hist, 1_000_000, mixed.q)
    assert len(outliers) == 0, (
        f"{len(outliers)} of 2520 pmf cells reject the N=100 mixed law at "
        f"three sigma over all cells: {outliers.tolist()[:10]}, smallest "
        f"p-value {p_min:.3g}")
    # negative control: the N=50 certificate has the same marginals and
    # reprices the same quotes, yet its law is rejected by the same check
    mixed_50 = qij_from_p(verify_strong_at_N(snapshot, 50).law,
                          h_matrix(125, 50))
    assert np.max(np.abs((mixed_50.q - mixed.q) @ defaults)) < 1e-8
    for coeffs in coefficients_for(snapshot):
        assert abs(expected_npv(mixed_50, coeffs)) < 1e-8
    outliers_50, _ = _pmf_outliers(summary.count_hist, 1_000_000, mixed_50.q)
    assert len(outliers_50) > 0, "the pmf check cannot tell N=50 from N=100"


def test_criterion_7_fixed_seeds_and_stable_verdicts(snapshot, strong_100,
                                                     tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    simulate_npv(strong_100.law, snapshot, 20_000, seed=123, csv_path=a)
    simulate_npv(strong_100.law, snapshot, 20_000, seed=123, csv_path=b)
    simulate_npv(strong_100.law, snapshot, 20_000, seed=321, csv_path=c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()

    first, second = verify_weak(snapshot), verify_weak(snapshot)
    assert first.status == second.status
    np.testing.assert_array_equal(first.law.q, second.law.q)
    s1 = verify_strong_at_N(snapshot, 100)
    s2 = verify_strong_at_N(snapshot, 100)
    assert s1.status == s2.status
    np.testing.assert_array_equal(s1.law.q, s2.law.q)
