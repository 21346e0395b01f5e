"""Strong compatibility: mixing coefficients, resolution walks, path sampling."""

import copy

import numpy as np
import pytest
from scipy.stats import betabinom, ks_2samp

from cdo_compat.dpm_core import (DPM, InvalidDPM, dpm_from_csv, dpm_to_csv,
                                 validate_dpm)
from cdo_compat.market_model import snapshot_from_dict, snapshot_to_dict
from cdo_compat.opt_backend import FEASIBILITY_TOL, SolveStatus
from cdo_compat.strong_compat import (DEFAULT_EPS_SPREAD, GammaDistortion,
                                      GeneratorSampler, IterationLimit,
                                      StrongFeasibilityProblem, h_matrix,
                                      iterative_verify,
                                      nonstandard_names_bounds, qij_from_p,
                                      range_at_N, verify_strong_at_N,
                                      verify_strong_bid_ask)
from cdo_compat.tranche_valuation import (DimensionMismatch,
                                          TrancheCoefficients,
                                          coefficients_for, expected_npv)
from cdo_compat.weak_compat import (InfeasibleRegion, InvalidQuotes,
                                    WeakFeasibilityProblem, _assemble,
                                    verify_weak, weak_range)

QUOTES = {0: (0.28438, "upfront"), 1: (0.04531, "upfront"),
          2: (106.32e-4, "spread"), 3: (27.44e-4, "spread")}


def _toy_law():
    p = np.array([[0.5, 0.3, 0.2, 0.0, 0.0],
                  [0.3, 0.3, 0.2, 0.1, 0.1]])
    return DPM(p)


def test_h_identities_hold_across_sizes():
    for n in (1, 5, 10):
        for N in (2, 10, 50):
            h = h_matrix(n, N)
            np.testing.assert_allclose(h.sum(axis=0), 1.0, atol=1e-10)
            np.testing.assert_allclose(np.arange(n + 1) @ h,
                                       n * np.arange(N + 1) / N, atol=1e-9)
            assert h[0, 0] == 1.0 and h[n, N] == 1.0
            assert np.all(h[1:, 0] == 0.0) and np.all(h[:-1, N] == 0.0)


def test_single_name_h_is_linear():
    h = h_matrix(1, 8)
    np.testing.assert_allclose(h[1], np.arange(9) / 8.0, atol=1e-12)


def test_h_matrix_is_cached_and_write_protected():
    a = h_matrix(5, 10)
    assert h_matrix(5, 10) is a
    with pytest.raises(ValueError):
        a[0, 0] = 2.0


def test_mixing_yields_a_valid_dpm_with_scaled_means():
    sol = _toy_law()
    dpm = qij_from_p(sol, h_matrix(3, 4))
    assert validate_dpm(dpm.q).valid
    p_means = sol.q @ np.arange(5)
    np.testing.assert_allclose(dpm.means(), 3.0 / 4.0 * p_means, atol=1e-12)


def test_mixing_rejects_mismatched_resolution():
    with pytest.raises(DimensionMismatch):
        qij_from_p(_toy_law(), h_matrix(3, 5))


def test_snapshot_is_strongly_compatible_at_50(snapshot):
    res = verify_strong_at_N(snapshot, 50)
    assert res.feasible
    assert res.law.n == 50


def test_strong_solution_reprices_through_mixing(snapshot, strong_100):
    dpm = qij_from_p(strong_100.law, h_matrix(125, 100))
    for coeffs in coefficients_for(snapshot):
        assert abs(expected_npv(dpm, coeffs)) < 1e-8


def test_strong_certificate_satisfies_weak_constraints(snapshot, strong_100):
    dpm = qij_from_p(strong_100.law, h_matrix(125, 100))
    # the weak polytope over every default count, not only the kink states
    problem = _assemble(WeakFeasibilityProblem, snapshot,
                        np.eye(126), np.arange(126.0), range(4), False)
    x = dpm.q.ravel()
    assert np.max(problem.A_ub @ x - problem.b_ub) <= 1e-9
    assert np.max(np.abs(problem.A_eq @ x - problem.b_eq)) <= 1e-7


def test_leave_one_out_ranges_contain_the_quotes(snapshot):
    for target in range(4):
        fixed = [l for l in range(4) if l != target]
        lo, hi = range_at_N(snapshot, fixed, target, 50)
        quote, _ = QUOTES[target]
        assert lo - 1e-10 <= quote <= hi + 1e-10
        assert hi - lo > 1e-5


def test_ranges_shrink_as_the_fixed_set_grows(snapshot):
    wide = range_at_N(snapshot, [], 3, 50)
    mid = range_at_N(snapshot, [0], 3, 50)
    tight = range_at_N(snapshot, [0, 1, 2], 3, 50)
    assert wide[0] <= mid[0] + 1e-10 and mid[0] <= tight[0] + 1e-10
    assert tight[1] <= mid[1] + 1e-10 and mid[1] <= wide[1] + 1e-10


def test_iterative_verification_accepts_the_market(snapshot):
    res = iterative_verify(snapshot)
    assert res.compatible
    assert res.failing_tranche is None
    assert res.rule == "accepted" and res.weak_range is None
    assert res.final_N in (50, 75, 100, 125, 150, 175, 200)
    assert res.law.n == res.final_N
    assert res.history
    for rec in res.history:
        assert rec.lower <= rec.upper + 1e-12
        assert rec.tranche in range(4)


def _banded(snapshot, bands):
    raw = snapshot_to_dict(snapshot)
    for l, (bid, ask) in enumerate(bands):
        raw["tranches"][l]["bid_value"] = bid
        raw["tranches"][l]["ask_value"] = ask
    return snapshot_from_dict(raw)


BANDS = ((28.2, 28.7), (4.3, 4.8), (105.0, 108.0), (27.0, 28.0))


def test_strong_bid_ask_band_around_quotes_is_feasible_at_50(snapshot):
    banded = _banded(snapshot, BANDS)
    res = verify_strong_bid_ask(banded, 50)
    assert res.feasible
    assert res.law.n == 50
    dpm = qij_from_p(res.law, h_matrix(125, 50))
    for l, tr in enumerate(banded.tranches):
        cb = TrancheCoefficients.build(tr, banded.bid.upfront[l],
                                       banded.bid.spread[l], banded)
        ca = TrancheCoefficients.build(tr, banded.ask.upfront[l],
                                       banded.ask.spread[l], banded)
        assert expected_npv(dpm, cb) >= -FEASIBILITY_TOL
        assert expected_npv(dpm, ca) <= FEASIBILITY_TOL


def test_strong_bid_ask_rejects_crossed_quotes(snapshot):
    crossed = _banded(snapshot, ((28.7, 28.2),) + BANDS[1:])
    with pytest.raises(InvalidQuotes):
        verify_strong_bid_ask(crossed, 50)


def _torn(snapshot):
    raw = snapshot_to_dict(snapshot)
    clone = copy.deepcopy(raw["tranches"][0])
    clone["quote_value"] = 50.0
    raw["tranches"].insert(1, clone)
    return snapshot_from_dict(raw)


def test_iterative_verification_pins_down_the_failing_tranche(snapshot):
    res = iterative_verify(_torn(snapshot), N_sequence=(50, 75))
    assert not res.compatible
    assert res.failing_tranche == 1
    assert res.law is None


def _moved(snapshot, tranche, value):
    raw = snapshot_to_dict(snapshot)
    raw["tranches"][tranche]["quote_value"] = value
    return snapshot_from_dict(raw)


def test_short_sequence_cannot_stabilize(snapshot):
    # the torn snapshot's second equity quote lies outside its weak range, a
    # proof for every N, so even a one-resolution walk decides it
    res = iterative_verify(_torn(snapshot), N_sequence=(50,))
    assert (res.compatible, res.failing_tranche, res.rule) == (False, 1, "weak_bound")
    assert res.final_N is None and res.law is None
    # 27.80 bp lies inside the senior tranche's weak range but outside its
    # N=50 strong range, so one resolution can neither accept nor stabilize
    snap = _moved(snapshot, 3, 27.80)
    quote = snap.quotes.spread[3]
    assert weak_range(snap, range(3), 3)[1] > quote
    assert range_at_N(snap, range(3), 3, 50)[1] < quote
    with pytest.raises(IterationLimit):
        iterative_verify(snap, N_sequence=(50,))


@pytest.mark.parametrize("N", (10, 50))
def test_strong_ranges_lie_inside_the_weak_range(snapshot, N):
    # every strong law is a DPM, so over the same priced prefix no strong
    # range leaves the weak one; at N=10 no law prices tranches 0 and 1, so
    # the later prefixes have no strong range there
    checked = 0
    for l in range(snapshot.n_tranches):
        w_lo, w_hi = weak_range(snapshot, range(l), l)
        try:
            lo, hi = range_at_N(snapshot, range(l), l, N)
        except InfeasibleRegion:
            continue
        assert w_lo - 1e-9 <= lo <= hi <= w_hi + 1e-9, l
        checked += 1
    assert checked == (2 if N == 10 else 4)


def test_free_strong_ranges_widen_with_the_resolution(snapshot):
    # a law at N lifts to one at 2N with the same default-count law
    for l in range(snapshot.n_tranches):
        lo10, hi10 = range_at_N(snapshot, [], l, 10)
        lo20, hi20 = range_at_N(snapshot, [], l, 20)
        assert lo20 - 1e-9 <= lo10 <= hi10 <= hi20 + 1e-9, l


def _lift_kernel(N, M):
    """The Polya urn from N to M > N: K[k + i, k] = BetaBinomial(i; M - N, k, N - k).

    State k of N is an urn of k red and N - k black balls; M - N more draws,
    each adding a ball of the colour drawn, reach state k + i of M. The
    k = 0 and k = N urns hold one colour, so their columns are point masses.
    """
    K = np.zeros((M + 1, N + 1))
    K[0, 0] = K[M, N] = 1.0
    i = np.arange(M - N + 1)
    for k in range(1, N):
        K[k + i, k] = betabinom.pmf(i, M - N, k, N - k)
    return K


@pytest.mark.parametrize("n, N, M", [(125, 50, 75), (125, 50, 100), (5, 10, 13)])
def test_h_at_N_is_h_at_a_larger_M_through_the_lift_kernel(n, N, M):
    np.testing.assert_allclose(h_matrix(n, M) @ _lift_kernel(N, M),
                               h_matrix(n, N), rtol=0, atol=1e-12)


def test_a_strong_law_lifts_to_a_larger_N_with_the_same_q(snapshot):
    # the claim behind iterative_verify's walk: a law at N lifts to one at
    # every larger N with the same default-count law q
    law = verify_strong_at_N(snapshot, 50).law
    lifted = DPM(law.q @ _lift_kernel(50, 100).T)
    n = snapshot.portfolio.n
    np.testing.assert_allclose(qij_from_p(lifted, h_matrix(n, 100)).q,
                               qij_from_p(law, h_matrix(n, 50)).q, rtol=0, atol=1e-12)
    problem = StrongFeasibilityProblem.from_snapshot(snapshot, 100)
    x = lifted.q.ravel()
    assert np.max(np.abs(problem.A_eq @ x - problem.b_eq)) <= FEASIBILITY_TOL
    assert np.max(problem.A_ub @ x - problem.b_ub) <= FEASIBILITY_TOL


# The far moves of the senior tranche and the moves that perfbench keeps as
# known failing: each is weakly incompatible, and the senior quote lies
# outside its weak range over the tranches before it.
WEAKLY_INCOMPATIBLE_MOVES = ((3, 80.0), (3, 300.0), (0, 28.1), (0, 30.0),
                             (2, 125.0), (0, 16.706295424899928), (0, 40.0))


@pytest.mark.parametrize("tranche, value", WEAKLY_INCOMPATIBLE_MOVES)
def test_weakly_incompatible_walks_end_on_the_weak_bound(snapshot, tranche, value):
    snap = _moved(snapshot, tranche, value)
    assert verify_weak(snap).status is SolveStatus.INFEASIBLE
    res = iterative_verify(snap)
    assert (res.compatible, res.failing_tranche, res.rule) == (False, 3, "weak_bound")
    assert res.final_N is None and res.law is None
    assert verify_strong_at_N(snap, 50).status is SolveStatus.INFEASIBLE
    assert {r.tranche for r in res.history} == {0, 1, 2}
    lo, hi = res.weak_range
    assert not lo - DEFAULT_EPS_SPREAD <= snap.quotes.spread[3] <= hi + DEFAULT_EPS_SPREAD


def test_iterative_verification_rejects_bad_controls(snapshot):
    with pytest.raises(ValueError):
        iterative_verify(snapshot, N_sequence=(50, 50))


def test_matching_pool_size_pins_bounds_to_the_quote(snapshot):
    lo, hi = nonstandard_names_bounds(snapshot, 50, 125, 0.06, 0.12, "spread")
    assert lo == pytest.approx(106.32e-4, abs=1e-6)
    assert hi == pytest.approx(106.32e-4, abs=1e-6)


def test_nonstandard_names_bounds_reject_unknown_kind(snapshot):
    with pytest.raises(ValueError):
        nonstandard_names_bounds(snapshot, 50, 100, 0.0, 0.03, "price")


def test_sampler_hits_the_boundary_states_exactly():
    sampler = GeneratorSampler(_toy_law())
    u = np.linspace(0.01, 0.99, 200)
    phi = sampler.sample_matrix(u)
    assert np.all(phi[:, 0] == 0)
    assert np.all(phi[:, -1] == 4)
    assert np.all(np.diff(phi, axis=1) >= 0)


def test_sampler_reproduces_the_grid_law():
    sol = _toy_law()
    sampler = GeneratorSampler(sol)
    rng = np.random.default_rng(1347)
    draws = 40000
    phi = sampler.sample_matrix(rng.uniform(size=draws))
    for i in range(2):
        counts = np.bincount(phi[:, i + 1], minlength=5)
        for k in range(5):
            p = sol.q[i, k]
            sigma = np.sqrt(max(p * (1 - p) / draws, 1e-12))
            assert abs(counts[k] / draws - p) < 4 * sigma + 1e-9


def test_sampler_rejects_boundary_uniforms():
    sampler = GeneratorSampler(_toy_law())
    with pytest.raises(InvalidDPM):
        sampler.sample_matrix(np.array([0.0, 0.5]))
    with pytest.raises(InvalidDPM):
        sampler.sample_matrix(1.0)


def _full_path_distortion(rng, draws, N, states):
    # the distortion read off whole unit-gamma paths on 0..N
    xi = np.hstack([np.zeros((draws, 1)),
                    rng.standard_exponential((draws, N)).cumsum(axis=1)])
    eta = np.hstack([np.zeros((draws, 1)),
                     rng.standard_exponential((draws, N)).cumsum(axis=1)])
    return np.column_stack([xi[:, k] / (xi[:, k] + eta[:, N - k])
                            for k in states])


def test_distortion_matches_the_beta_mean():
    # X at state k is Beta(k, N - k) distributed, so E[X | k] = k / N
    N, k, draws = 8, 3, 60000
    x = _full_path_distortion(np.random.default_rng(5), draws, N, (k,))[:, 0]
    mean, sd = x.mean(), x.std(ddof=1)
    assert abs(mean - k / N) < 4 * sd / np.sqrt(draws)


def test_gamma_distortion_samples_are_monotone_with_exact_endpoints():
    dist = GammaDistortion(GeneratorSampler(_toy_law()))
    rng = np.random.default_rng(77)
    phi, x = dist.sample(rng, 500)
    assert phi.shape == x.shape == (500, 4)
    assert np.all(x[:, 0] == 0.0) and np.all(x[:, -1] == 1.0)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.all(np.diff(x, axis=1) >= 0.0)


def test_distortion_matches_the_full_path_construction():
    # phi sits at k1 on the first date and k2 on the second, so the
    # increment sampler must give (X(t1), X(t2)) the joint law of the
    # full-path construction; the difference checks the dependence
    N, k1, k2, draws = 12, 4, 9, 20000
    p = np.zeros((2, N + 1))
    p[0, k1] = p[1, k2] = 1.0
    _, x = GammaDistortion(GeneratorSampler(DPM(p))).sample(
        np.random.default_rng(2024), draws)
    ref = _full_path_distortion(np.random.default_rng(4202), draws, N,
                                (k1, k2))
    level = 1e-3
    for sample, reference in ((x[:, 1], ref[:, 0]), (x[:, 2], ref[:, 1]),
                              (x[:, 2] - x[:, 1], ref[:, 1] - ref[:, 0])):
        assert ks_2samp(sample, reference).pvalue > level
    # negative control: the same marginals with xi and eta drawn afresh per
    # date lose the dependence, and the difference test sees it
    loose = np.column_stack([
        _full_path_distortion(np.random.default_rng(seed), draws, N, (k,))
        for seed, k in ((11, k1), (12, k2))])
    assert ks_2samp(loose[:, 1], ref[:, 1]).pvalue > level
    assert ks_2samp(loose[:, 1] - loose[:, 0],
                    ref[:, 1] - ref[:, 0]).pvalue < level


def test_sampler_paths_stay_monotone_within_the_tail_tolerance():
    # the first date's upper tail exceeds the second's by 5e-10, which
    # MONOTONE_TOL admits; a uniform in that sliver must not step down
    p = np.array([[0.5 - 5e-10, 0.5 + 5e-10, 0.0],
                  [0.5, 0.0, 0.5]])
    sampler = GeneratorSampler(DPM(p))
    phi = sampler.sample_matrix(np.array([0.5 + 2.5e-10, 0.25, 0.75]))
    assert np.all(np.diff(phi, axis=1) >= 0)
    _, x = GammaDistortion(sampler).sample(np.random.default_rng(3), 1000)
    assert np.all(np.diff(x, axis=1) >= 0.0)


def test_solution_round_trips_through_csv(snapshot, strong_100, tmp_path):
    target = tmp_path / "law.csv"
    dpm_to_csv(strong_100.law, snapshot.schedule, target)
    times, law = dpm_from_csv(target)
    np.testing.assert_array_equal(law.q, strong_100.law.q)
    assert law.n == 100
    np.testing.assert_allclose(times, snapshot.schedule.payment_dates,
                               atol=1e-9)
