"""Hedging and Monte Carlo on top of calibrated default-probability models.

Spread deltas come from a minimum relative entropy update: bump the index
spread, recalibrate the marginal curve, and move the prior default
distribution the least (in Kullback-Leibler divergence) that the bumped
marginals and the structural constraints allow. Tranche value changes
against the posterior, scaled by the CDS value change, give hedge ratios.

Simulation draws portfolio paths from a generator law and the two-gamma
distortion, prices every tranche on each path, and streams online
summaries so path counts in the millions stay cheap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import opt_backend
from .dpm_core import DPM, repair_structure
from .market_model import calibrate_hazard, cds_value_change
from .opt_backend import SolveStatus, SolverError
from .strong_compat import (GammaDistortion, GeneratorSampler, h_matrix,
                            qij_from_p)
from .tranche_valuation import (DimensionMismatch, coefficients_for,
                                expected_npv)
from .weak_compat import structure_rows

PRICE_CHECK_TOL = 1e-6
QUANTILE_LEVELS = (1, 5, 50, 95, 99)
RETAIN_CAP = 1 << 20
EPS_REG = 1e-20          # reference floor of the entropy update, see posterior_dpm
CHUNK = 65536            # paths drawn, priced and written per step of simulate_npv


class InfeasibleConstraints(RuntimeError):
    """No distribution satisfies the bumped marginals and the structure."""


def posterior_dpm(prior, shifted_curve, sched):
    """Minimum relative entropy update of a prior DPM to bumped marginals.

    Constraints: the LPs' structure rows (`weak_compat.structure_rows`):
    unit rows, per-date means n F~(T_i) from the shifted curve, and
    non-decreasing tail sums. The reference measure is the prior with an
    EPS_REG floor so zero prior cells stay essentially forbidden rather than
    undefined. The entropy solve starts at zero multipliers. Returns the
    posterior DPM and the solver record: Newton steps (``iterations``), dual
    evaluations (``evaluations``), the final KKT residual (``kkt``) and the
    solve's wall time (``wall_s``).
    """
    m, n = prior.m, prior.n
    A_eq, b_eq, A_ub, b_ub = structure_rows(m, np.arange(n + 1.0),
                                            n * shifted_curve.grid(sched))
    res = opt_backend.solve_relative_entropy(
        (prior.q + EPS_REG).ravel(), A_eq, b_eq, A_ub=A_ub, b_ub=b_ub)
    if res.status is SolveStatus.INFEASIBLE:
        raise InfeasibleConstraints(res.message)
    if res.status is not SolveStatus.OPTIMAL:
        raise SolverError(f"entropy solve failed: {res.message}")
    record = {key: res.extra[key]
              for key in ("iterations", "evaluations", "kkt", "wall_s")}
    return DPM(repair_structure(res.x.reshape(m, n + 1))), record


@dataclass
class HedgeReport:
    """Index-hedge ratios for every tranche at one spread bump size.

    ``solver`` is the entropy solve's record (see ``posterior_dpm``).
    """

    shift_bps: float
    dv_cds: float
    attach: tuple
    detach: tuple
    dv: tuple
    delta: tuple
    posterior: DPM
    solver: dict

    def as_dict(self):
        return {
            "shift_bps": self.shift_bps,
            "dv_cds": self.dv_cds,
            "tranches": [
                {"attach": a, "detach": d, "dv": v, "delta": h}
                for a, d, v, h in zip(self.attach, self.detach, self.dv, self.delta)
            ],
            "solver": self.solver,
        }


def _check_reprices(values, law, consequence):
    """ValueError if a law misprices a quoted tranche by more than PRICE_CHECK_TOL."""
    worst = float(np.max(np.abs(values)))
    if worst > PRICE_CHECK_TOL:
        raise ValueError(f"{law} misprices a quoted tranche by {worst:.3e}; "
                         f"{consequence}")


def check_bump(shift_bps):
    """A zero or non-finite bump has no response to divide by: ValueError."""
    if not math.isfinite(shift_bps) or shift_bps == 0.0:
        raise ValueError(
            f"spread bump must be finite and non-zero, got {shift_bps} bp")


def spread_delta(snapshot, prior, shift_bps=1.0):
    """Hedge ratios of all quoted tranches against the index at one bump.

    The prior must reprice the quotes (checked against PRICE_CHECK_TOL); the
    posterior is its entropy projection onto marginals recalibrated at the
    bumped index spread. delta_l = dv_l / dv_cds where dv_cds is the value
    change of a unit-notional index swap under the same bump. The bump is
    checked (``check_bump``) before anything is solved.
    """
    check_bump(shift_bps)
    coeffs = coefficients_for(snapshot)
    prior_values = [expected_npv(prior, c) for c in coeffs]
    _check_reprices(prior_values, "prior", "hedge ratios against it would mix "
                    "calibration error into the bump response")
    ds = shift_bps * 1e-4
    shifted_curve = calibrate_hazard(
        snapshot.index_spread + ds, snapshot.schedule, snapshot.discount,
        snapshot.portfolio.recovery)
    posterior, solver = posterior_dpm(prior, shifted_curve, snapshot.schedule)
    dv = tuple(expected_npv(posterior, c) - v for c, v in zip(coeffs, prior_values))
    dv_cds = cds_value_change(shifted_curve, snapshot.schedule,
                              snapshot.discount, ds)
    return HedgeReport(
        shift_bps=shift_bps,
        dv_cds=dv_cds,
        attach=tuple(t.attach for t in snapshot.tranches),
        detach=tuple(t.detach for t in snapshot.tranches),
        dv=dv,
        delta=tuple(v / dv_cds for v in dv),
        posterior=posterior,
        solver=solver,
    )


@dataclass
class SimulationSummary:
    """Online summaries of simulated tranche and portfolio NPVs.

    Columns are the quoted tranches in order followed by the portfolio.
    ``expected`` holds model values under the generator's default law, and
    ``t_stat`` the studentized gap between the sample mean and that value.
    ``count_hist[i - 1, j]`` counts paths with j defaults by payment date i.
    """

    n_paths: int
    seed: int
    labels: tuple
    expected: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    stderr: np.ndarray
    t_stat: np.ndarray
    quantiles: dict
    count_hist: np.ndarray

    def as_dict(self):
        return {
            "n_paths": self.n_paths,
            "seed": self.seed,
            "labels": list(self.labels),
            "expected": self.expected.tolist(),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "stderr": self.stderr.tolist(),
            "t_stat": self.t_stat.tolist(),
            "quantiles": {str(k): v.tolist() for k, v in self.quantiles.items()},
        }


def _nested_binomial_counts(rng, n, x):
    """Default counts N_1..N_m of n names given distortion paths x.

    ``x`` has shape (paths, m+2) with x[:, 0] = 0 and is non-decreasing
    along each row. Given X, a name defaults by date i when its uniform is
    at most x_i, so of the n - N_{i-1} names alive after date i-1 each
    defaults by date i with probability (x_i - x_{i-1}) / (1 - x_{i-1}),
    independently: N_i = N_{i-1} + Bin(n - N_{i-1}, that probability). The
    probability is 0 once x_{i-1} = 1 (no name is left) and is clipped to
    [0, 1] against rounding. One binomial per path and date, in date order.
    """
    paths, width = x.shape
    counts = np.empty((paths, width - 2), dtype=np.int64)
    alive = np.full(paths, n, dtype=np.int64)
    for i in range(1, width - 1):
        rest = 1.0 - x[:, i - 1]
        prob = np.divide(x[:, i] - x[:, i - 1], rest, out=np.zeros(paths),
                         where=rest > 0.0)
        alive -= rng.binomial(alive, np.clip(prob, 0.0, 1.0))
        counts[:, i - 1] = n - alive
    return counts


def _format_rows(ids, counts, values):
    """Sample-file rows of one chunk as a single string.

    Byte for byte what ``csv.writer`` writes for the rows
    ``[id, *counts, *(f"{v:.10g}" for v in values)]``: integer ids and
    counts, ``%.10g`` values and CRLF line ends.
    """
    m, n_cols = counts.shape[1], values.shape[1]
    row = "%d" + ",%d" * m + ",%.10g" * n_cols + "\r\n"
    # an object table keeps ids and counts Python ints: "%d" formats an int
    # about three times faster than it converts a float
    table = np.empty((len(ids), 1 + m + n_cols), dtype=object)
    table[:, 0] = ids
    table[:, 1:1 + m] = counts
    table[:, 1 + m:] = values
    return (row * len(ids)) % tuple(table.ravel().tolist())


def check_simulation(snapshot, n_paths, positions=None):
    """The book's tranche weights (unit notional in each by default), inputs checked."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    n_tr = snapshot.n_tranches
    if positions is None:
        return np.ones(n_tr)
    positions = np.asarray(positions, float)
    if positions.shape != (n_tr,):
        raise DimensionMismatch(f"{positions.shape} positions for {n_tr} tranches")
    if not np.all(np.isfinite(positions)):
        raise ValueError(f"positions must be finite, got {positions.tolist()}")
    return positions


def simulate_npv(law, snapshot, n_paths, seed, positions=None, csv_path=None):
    """Simulate default paths from a generator law and price the book.

    Per path and chunk, in this draw order: one uniform drives the
    generator, then xi increments and eta increments build the distortion
    X at the m dates (``GammaDistortion.sample``), then one binomial per
    date gives the default count (``_nested_binomial_counts``). Both steps
    are exact: the gamma processes are only ever read at the path's m
    generator states, and given X the names default independently with
    P(default by T_i) = x_i, which the nested binomials reproduce date by
    date. A seed pins the full stream. ``positions`` weights the tranches
    in the portfolio column. A law that misprices a quote raises ValueError.
    """
    positions = check_simulation(snapshot, n_paths, positions)
    coeffs = coefficients_for(snapshot)
    n_tr = len(coeffs)
    n = snapshot.portfolio.n
    m = snapshot.schedule.m
    if law.m != m:
        raise DimensionMismatch("law grid does not match the schedule")
    dist = GammaDistortion(GeneratorSampler(law))
    dpm = qij_from_p(law, h_matrix(n, law.n))
    beta_mat = np.stack([c.beta for c in coeffs])
    lam_mat = np.stack([c.lam for c in coeffs])
    gamma_vec = np.array([c.gamma for c in coeffs])
    expected_tr = np.array([expected_npv(dpm, c) for c in coeffs])
    _check_reprices(expected_tr, "law", "simulated tranche values would "
                    "disagree with the quotes")
    expected = np.append(expected_tr, positions @ expected_tr)

    rng = np.random.default_rng(seed)
    n_cols = n_tr + 1
    count = 0
    mean = np.zeros(n_cols)
    m2 = np.zeros(n_cols)
    count_hist = np.zeros((m, n + 1), dtype=np.int64)
    stride = max(1, math.ceil(n_paths / RETAIN_CAP))
    retained = []
    hist_offsets = np.arange(m) * (n + 1)
    fh = None
    if csv_path is not None:
        fh = open(csv_path, "w", newline="")
        fh.write(",".join(["path_id"]
                          + [f"N_T{i}" for i in range(1, m + 1)]
                          + [f"V_tranche_{l}" for l in range(1, n_tr + 1)]
                          + ["V_portfolio"]) + "\r\n")
    try:
        done = 0
        while done < n_paths:
            b = min(CHUNK, n_paths - done)
            _, x = dist.sample(rng, b)
            counts = _nested_binomial_counts(rng, n, x)
            count_hist += np.bincount(
                (counts + hist_offsets).ravel(),
                minlength=m * (n + 1)).reshape(m, n + 1)
            values = np.empty((b, n_cols))
            for l in range(n_tr):
                values[:, l] = beta_mat[l][counts] @ lam_mat[l] - gamma_vec[l]
            values[:, -1] = values[:, :-1] @ positions

            batch_mean = values.mean(axis=0)
            batch_m2 = ((values - batch_mean) ** 2).sum(axis=0)
            delta = batch_mean - mean
            total = count + b
            mean += delta * b / total
            m2 += batch_m2 + delta ** 2 * count * b / total
            count = total

            first = (-done) % stride
            retained.append(values[first::stride])
            if fh is not None:
                fh.write(_format_rows(np.arange(done, done + b), counts,
                                      values))
            done += b
    finally:
        if fh is not None:
            fh.close()

    std = np.sqrt(m2 / (count - 1)) if count > 1 else np.zeros(n_cols)
    stderr = std / math.sqrt(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = np.where(stderr > 0, (mean - expected) / stderr, 0.0)
    kept = np.vstack(retained)
    quantiles = {
        lvl: np.quantile(kept, lvl / 100.0, axis=0) for lvl in QUANTILE_LEVELS
    }
    labels = tuple(t.label for t in snapshot.tranches) + ("portfolio",)
    return SimulationSummary(
        n_paths=n_paths, seed=seed, labels=labels, expected=expected,
        mean=mean, std=std, stderr=stderr, t_stat=t_stat,
        quantiles=quantiles, count_hist=count_hist)


def read_samples(csv_path):
    """Read back a sample file written by simulate_npv.

    Returns (path_ids, counts, values) with values holding the tranche
    columns and the portfolio column last.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for name in header if name.startswith("N_T"))
        ids, counts, values = [], [], []
        for row in reader:
            ids.append(int(row[0]))
            counts.append([int(v) for v in row[1:1 + m]])
            values.append([float(v) for v in row[1 + m:]])
    return np.asarray(ids), np.asarray(counts), np.asarray(values)
