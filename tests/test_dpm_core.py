"""Default-probability matrices, realized default times, implied copula."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdo_compat.dpm_core import (DPM, AugmentedDPM, InvalidDPM,
                                 default_times_from_dpm, dpm_from_csv,
                                 dpm_to_csv, implied_copula_value,
                                 repair_structure, tail_sums, validate_dpm)
from cdo_compat.market_model import PaymentSchedule
from cdo_compat.strong_compat import GeneratorSampler

TOY_Q = np.array([[0.6, 0.3, 0.1],
                  [0.4, 0.4, 0.2]])
TOY_SCHED = PaymentSchedule(payment_dates=(0.5, 1.0), post_maturity=1.5)


def test_tail_sums_by_hand():
    theta = tail_sums(TOY_Q)
    np.testing.assert_allclose(theta, [[1.0, 0.4, 0.1], [1.0, 0.6, 0.2]])


def test_validate_flags_each_constraint_group():
    ok = validate_dpm(TOY_Q)
    assert ok.valid and ok.worst_row_sum_dev < 1e-15

    bad_sum = TOY_Q.copy()
    bad_sum[0, 0] += 1e-6
    rep = validate_dpm(bad_sum)
    assert not rep.row_sums_ok and rep.nonnegative_ok

    negative = TOY_Q.copy()
    negative[1, 0] = -1e-6
    negative[1, 1] += 1e-6
    rep = validate_dpm(negative)
    assert not rep.nonnegative_ok

    # swap the rows so tails shrink over time
    rep = validate_dpm(TOY_Q[::-1])
    assert not rep.monotone_ok
    assert rep.worst_monotone_violation == pytest.approx(0.2)


def test_dpm_clamps_and_freezes():
    q = TOY_Q.copy()
    q[0, 2] -= 1e-13
    q[0, 0] += 1e-13
    dpm = DPM(q)
    assert dpm.q.min() >= 0.0
    assert dpm.m == 2 and dpm.n == 2
    with pytest.raises(ValueError):
        dpm.q[0, 0] = 0.5
    np.testing.assert_allclose(dpm.means(), [0.5, 0.8])


def test_dpm_rejects_out_of_tolerance():
    with pytest.raises(InvalidDPM):
        DPM(TOY_Q * 1.01)
    with pytest.raises(InvalidDPM):
        DPM(TOY_Q[::-1])


def test_repair_structure_snaps_solver_noise():
    q = TOY_Q.copy()
    q[0] += 3e-10          # row sum drifts to 1 + 9e-10
    q[1, 0] -= 1e-13       # hair of negativity
    fixed = repair_structure(q)
    rep = validate_dpm(fixed)
    assert rep.valid
    np.testing.assert_allclose(fixed, TOY_Q, atol=5e-10)
    # repairing a clean matrix is a no-op
    np.testing.assert_allclose(repair_structure(TOY_Q), TOY_Q, atol=1e-15)


def test_augmented_boundary_rows():
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    assert aug.m == 2 and aug.n == 2
    np.testing.assert_array_equal(aug.rows[0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(aug.rows[-1], [0.0, 0.0, 1.0])
    with pytest.raises(InvalidDPM):
        AugmentedDPM(np.vstack([TOY_Q, [[0, 0, 1.0]]]))  # missing top indicator


def test_default_times_toy_brackets():
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    times = default_times_from_dpm(aug, 0.5, TOY_SCHED)
    # rank-1 tails are (0.4, 0.6, 1): u = 0.5 falls in the second period;
    # rank-2 tails are (0.1, 0.2, 1): only the boundary row exceeds u
    np.testing.assert_allclose(times, [0.75, 1.25])
    low = default_times_from_dpm(aug, 0.05, TOY_SCHED)
    np.testing.assert_allclose(low, [0.25, 0.25])


def test_default_times_vectorized_and_sorted():
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    u = np.array([0.05, 0.15, 0.5, 0.99])
    times = default_times_from_dpm(aug, u, TOY_SCHED)
    assert times.shape == (4, 2)
    assert np.all(np.diff(times, axis=1) >= 0.0)
    mids = set(np.asarray(TOY_SCHED.midpoints))
    assert set(times.ravel()) <= mids
    with pytest.raises(InvalidDPM):
        default_times_from_dpm(aug, 0.0, TOY_SCHED)


def test_default_time_counts_recover_the_matrix():
    # counting realized times up to each date inverts the construction
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    rng = np.random.default_rng(42)
    u = rng.uniform(size=40_000)
    times = default_times_from_dpm(aug, u, TOY_SCHED)
    for i, t in enumerate(TOY_SCHED.payment_dates):
        counts = (times <= t).sum(axis=1)
        pmf = np.bincount(counts, minlength=3) / len(u)
        sigma = np.sqrt(TOY_Q[i] * (1 - TOY_Q[i]) / len(u))
        assert np.all(np.abs(pmf - TOY_Q[i]) <= 4.0 * sigma + 1e-12)


@pytest.mark.parametrize("law", ["toy", "weak", "strong_100"])
def test_times_and_generator_states_are_the_count_path(law, snapshot,
                                                       weak_result, strong_100):
    # an identity, not a statistical check: counting the times up to each
    # date gives back the count path for every single draw
    if law == "toy":
        dpm, sched = DPM(TOY_Q), TOY_SCHED
    else:
        dpm = (weak_result if law == "weak" else strong_100).law
        sched = snapshot.schedule
    aug = AugmentedDPM.from_dpm(dpm)
    u = np.random.default_rng(3).uniform(size=20_000)
    paths = aug.count_paths(u)
    times = default_times_from_dpm(aug, u, sched)
    for i, t in enumerate(sched.payment_dates):
        np.testing.assert_array_equal((times <= t).sum(axis=1), paths[:, i + 1])
    np.testing.assert_array_equal(GeneratorSampler(dpm).sample_matrix(u), paths)


def test_copula_single_name_is_the_marginal():
    q1 = np.array([[0.7, 0.3], [0.5, 0.5]])
    aug = AugmentedDPM.from_dpm(DPM(q1))
    theta = aug.tail_sums()
    for y in range(4):
        assert implied_copula_value(aug, [y]) == pytest.approx(theta[y, 1])


def test_copula_exchange_symmetry_and_frechet_bound():
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    v12 = implied_copula_value(aug, [1, 2])
    v21 = implied_copula_value(aug, [2, 1])
    assert v12 == pytest.approx(v21, rel=1e-14)
    top = aug.m + 1
    for y in ([1, 2], [2, 1], [1, 1], [2, 2]):
        val = implied_copula_value(aug, y)
        for j in range(2):
            marg = [top, top]
            marg[j] = y[j]
            assert val <= implied_copula_value(aug, marg) + 1e-12


def test_copula_grid_and_size_validation():
    aug = AugmentedDPM.from_dpm(DPM(TOY_Q))
    with pytest.raises(ValueError):
        implied_copula_value(aug, [0.5, 1])
    with pytest.raises(ValueError):
        implied_copula_value(aug, [1, 99])
    with pytest.raises(ValueError):
        implied_copula_value(aug, [1])
    with pytest.raises(ValueError):
        implied_copula_value(aug, [1, 2], mode="quadrature")
    for samples in (0, 1):
        with pytest.raises(ValueError):
            implied_copula_value(aug, [1, 2], mode="mc", samples=samples)


def test_copula_exact_cap():
    n = 9
    row = np.full(n + 1, 1.0 / (n + 1))
    aug = AugmentedDPM.from_dpm(DPM(row[None, :]))
    # at y = (1, ..., 1) every permutation gives the same minimum, so the mc
    # standard error is 0; y with two distinct rows averages over them
    for y in ([1] * n, [1] * 4 + [2] * 5):
        exact = implied_copula_value(aug, y)
        mc, stderr = implied_copula_value(aug, y, mode="mc", samples=500,
                                          seed=3, return_stderr=True)
        assert abs(mc - exact) <= 3.0 * stderr + 1e-12
    assert exact == pytest.approx(0.2, abs=1e-12) and stderr > 0.0


def test_copula_mc_matches_exact_within_three_sigma():
    aug = AugmentedDPM.from_dpm(DPM(repair_structure(np.array([
        [0.70, 0.15, 0.10, 0.05],
        [0.55, 0.20, 0.15, 0.10],
        [0.40, 0.25, 0.20, 0.15],
    ]))))
    y = [1, 2, 3]
    exact = implied_copula_value(aug, y)
    mc, stderr = implied_copula_value(aug, y, mode="mc", samples=30_000,
                                      seed=11, return_stderr=True)
    assert abs(mc - exact) <= 3.0 * stderr + 1e-12


def _valid_law(rng, m, n):
    # sorting tail sums over time yields a valid matrix by construction
    theta = np.sort(tail_sums(rng.dirichlet(np.ones(n + 1), size=m)), axis=0)
    return np.hstack([theta[:, :-1] - theta[:, 1:], theta[:, -1:]])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_copula_exact_mode_equals_the_permutation_average(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 4), rng.integers(1, 7)
    aug = AugmentedDPM.from_dpm(DPM(_valid_law(rng, m, n)))
    y = rng.integers(0, m + 2, size=n)
    theta = aug.tail_sums()
    perms = np.array(list(itertools.permutations(range(1, n + 1))))
    oracle = theta[y[None, :], perms].min(axis=1).mean()
    assert abs(implied_copula_value(aug, y) - oracle) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_valid_matrices_pass_validation(seed):
    rng = np.random.default_rng(seed)
    q = _valid_law(rng, rng.integers(1, 6), rng.integers(1, 8))
    assert validate_dpm(q).valid
    DPM(q)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    dpm = DPM(TOY_Q)
    dpm_to_csv(dpm, TOY_SCHED, path)
    times, back = dpm_from_csv(path)
    np.testing.assert_allclose(times, TOY_SCHED.payment_dates)
    np.testing.assert_array_equal(back.q, dpm.q)
    with pytest.raises(ValueError):
        dpm_to_csv(dpm, PaymentSchedule.quarterly(), tmp_path / "bad.csv")
