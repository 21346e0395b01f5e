"""The default-probability matrix and its derived constructions.

A DPM stores P(N_{T_i} = j) for the payment-date grid. This module checks
the linear constraints that make a matrix a legitimate default-count law
(rows on the simplex, default counts stochastically non-decreasing) and
augments it with the t = 0 and post-maturity boundary rows. One common
uniform u gives the count path N_i(u) = #{j >= 1 : Theta_ij > u}, which has
the law of the matrix row by row; the ordered default times and the
exchangeable copula they induce on the grid of marginal probabilities are
read off it. A generator law at resolution N obeys the same constraints
over N + 1 states, so it is a DPM whose n is N, and its count paths are
the generator states.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NEGATIVITY_CLAMP = 1e-12
ROW_SUM_TOL = 1e-9
MONOTONE_TOL = 1e-9


class InvalidDPM(ValueError):
    """The matrix violates the default-count-law constraints."""


@dataclass(frozen=True)
class ValidityReport:
    """Per-constraint-group verdicts, with worst violation magnitudes."""

    row_sums_ok: bool
    worst_row_sum_dev: float
    nonnegative_ok: bool
    worst_negative: float
    monotone_ok: bool
    worst_monotone_violation: float

    @property
    def valid(self):
        return self.row_sums_ok and self.nonnegative_ok and self.monotone_ok


def tail_sums(q):
    """Theta_{ij} = sum_{k >= j} q_{ik}; column 0 is the row sum."""
    return np.asarray(q, float)[:, ::-1].cumsum(axis=1)[:, ::-1]


def repair_structure(q):
    """Snap solver-tolerance noise onto the exact structure.

    HiGHS meets the equalities and inequalities of a returned vertex only
    to its feasibility tolerance, so the vertex can sit that far from unit
    rows or monotone tails. This projects it back: backward-min the tail
    sums, difference, clip, renormalize. The perturbation is on the order
    of that tolerance, far inside every validation tolerance.
    """
    q = np.asarray(q, float)
    theta = tail_sums(q)
    for i in range(q.shape[0] - 2, -1, -1):
        theta[i] = np.minimum(theta[i], theta[i + 1])
    q = np.clip(theta[:, :-1] - theta[:, 1:], 0.0, None)
    q = np.hstack([q, np.clip(theta[:, -1:], 0.0, None)])
    return q / q.sum(axis=1, keepdims=True)


def validate_dpm(q):
    """Report-style check of the three constraint groups on an m x (n+1) matrix."""
    q = np.asarray(q, float)
    if q.ndim != 2 or q.shape[1] < 2:
        raise ValueError("expect an m x (n+1) matrix with n >= 1")
    row_dev = float(np.max(np.abs(q.sum(axis=1) - 1.0)))
    worst_neg = float(min(q.min(), 0.0))
    theta = tail_sums(q)
    if q.shape[0] > 1:
        mono_viol = float(max(np.max(theta[:-1, 1:] - theta[1:, 1:]), 0.0))
    else:
        mono_viol = 0.0
    return ValidityReport(
        row_sums_ok=row_dev <= ROW_SUM_TOL,
        worst_row_sum_dev=row_dev,
        nonnegative_ok=worst_neg >= -NEGATIVITY_CLAMP,
        worst_negative=worst_neg,
        monotone_ok=mono_viol <= MONOTONE_TOL,
        worst_monotone_violation=mono_viol,
    )


@dataclass(frozen=True)
class DPM:
    """Validated default-probability matrix q_{ij} = P(N_{T_i} = j).

    Construction clamps negative entries above -1e-12 to zero and raises
    InvalidDPM for anything outside the tolerance envelope.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, float)
        report = validate_dpm(q)
        if not report.valid:
            raise InvalidDPM(f"matrix fails DPM constraints: {report}")
        q = np.clip(q, 0.0, None)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def m(self):
        return self.q.shape[0]

    @property
    def n(self):
        return self.q.shape[1] - 1

    def means(self):
        """E[N_{T_i}] per row."""
        return self.q @ np.arange(self.n + 1)


@dataclass(frozen=True)
class AugmentedDPM:
    """DPM with the exact boundary rows for t = 0 and the post-maturity date.

    Row 0 is the indicator at j = 0 (nothing has defaulted at time zero) and
    row m+1 the indicator at j = n (every name defaults by the horizon).
    """

    rows: np.ndarray

    @classmethod
    def from_dpm(cls, dpm):
        n = dpm.n
        top = np.zeros((1, n + 1))
        top[0, 0] = 1.0
        bottom = np.zeros((1, n + 1))
        bottom[0, n] = 1.0
        rows = np.vstack([top, dpm.q, bottom])
        rows.setflags(write=False)
        return cls(rows)

    def __post_init__(self):
        rows = np.asarray(self.rows, float)
        n = rows.shape[1] - 1
        if not (rows[0, 0] == 1.0 and np.all(rows[0, 1:] == 0.0)):
            raise InvalidDPM("first boundary row must be the indicator at j = 0")
        if not (rows[-1, n] == 1.0 and np.all(rows[-1, :n] == 0.0)):
            raise InvalidDPM("last boundary row must be the indicator at j = n")
        report = validate_dpm(rows)
        if not report.valid:
            raise InvalidDPM(f"augmented matrix fails DPM constraints: {report}")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self):
        return self.rows.shape[0] - 2

    @property
    def n(self):
        return self.rows.shape[1] - 1

    def tail_sums(self):
        return tail_sums(self.rows)

    @cached_property
    def rev_tails(self):
        """Reversed tail sums per date, running maxima along rows and dates.

        Rounding, or a matrix within MONOTONE_TOL of monotone, must not let a
        count path step down.
        """
        rev = np.maximum.accumulate(self.rows[:, ::-1].cumsum(axis=1), axis=1)
        rev = np.maximum.accumulate(rev, axis=0)
        rev.setflags(write=False)
        return rev

    def count_paths(self, u):
        """Count paths N_i(u) = #{j >= 1 : Theta_ij > u}, shape (len(u), m+2).

        Non-decreasing, N_0 = 0 and N_{m+1} = n; N_i(u) has the law of row i.
        """
        u = np.atleast_1d(np.asarray(u, float))
        if not np.all((u > 0.0) & (u < 1.0)):
            raise InvalidDPM("uniform draws must lie strictly inside (0, 1)")
        out = np.empty((len(u), self.m + 2), dtype=np.int64)
        for i in range(self.m + 2):
            out[:, i] = self.n - np.searchsorted(self.rev_tails[i, :-1], u,
                                                 side="right")
        return out


def default_times_from_dpm(aug, u, sched):
    """Ordered default times realizing the matrix from one uniform draw.

    Ranks N_{i-1}(u) + 1 .. N_i(u) of the count path (`count_paths`) default
    at the midpoint of period i; ranks never reached before maturity default
    in the post-maturity period. The same u drives all ranks, which is what
    makes the count law match the matrix row by row.

    ``u`` may be a scalar (returns shape (n,)) or a 1-d array of draws
    (returns shape (len(u), n)). Times are non-decreasing across ranks.
    """
    mids = sched.midpoints  # mid_1 .. mid_{m+1}
    if len(mids) != aug.m + 1:
        raise InvalidDPM("schedule and matrix disagree on the period count")
    counts = aug.count_paths(u)
    out = np.repeat(np.tile(mids, len(counts)),
                    np.diff(counts, axis=1).ravel()).reshape(len(counts), aug.n)
    return out[0] if np.ndim(u) == 0 else out


def implied_copula_value(aug, y, mode="exact", samples=100_000, seed=0,
                         return_stderr=False):
    """Exchangeable copula of the realized default times, on the marginal grid.

    ``y`` gives the grid indices: coordinate j of the copula argument is
    F(T_{y_j}), y_j in {0, ..., m+1}. The value averages, over permutations
    sigma of the ranks, min_j Theta_{y_j, sigma(j)}: the integral over u of
    P(sigma(j) <= c_j for all j), c_j = N_{y_j}(u), which is prod_k
    (c_(k) - k)+ / (n - k) over the sorted c. Exact mode sums it over the
    intervals between the rows' tail sums, where the path is constant, at
    any n; mc mode averages over ``samples`` >= 2 sampled permutations and
    can report the standard error of that average.

    Off-grid arguments are by design not accepted; the construction defines
    the copula only at the grid of marginal probabilities.
    """
    y = np.asarray(y)
    n = aug.n
    if len(y) != n:
        raise ValueError(f"need one grid index per name, got {len(y)} for n = {n}")
    if np.any(y != np.round(y)) or np.any((y < 0) | (y > aug.m + 1)):
        raise ValueError("grid indices must be integers in {0..m+1}")
    y = y.astype(int)
    if mode == "exact":
        cuts = np.unique(np.clip(np.append(aug.rev_tails[y], [0.0, 1.0]), 0.0, 1.0))
        counts = np.sort(aug.count_paths((cuts[:-1] + cuts[1:]) / 2)[:, y], axis=1)
        k = np.arange(n)
        prob = np.prod(np.clip(counts - k, 0, None) / (n - k), axis=1)
        value = float(np.diff(cuts) @ prob)
        return (value, 0.0) if return_stderr else value
    if mode == "mc":
        if samples < 2:
            raise ValueError(f"mc mode needs at least 2 samples, got {samples}")
        rng = np.random.default_rng(seed)
        base = np.arange(1, n + 1)
        perms = rng.permuted(np.tile(base, (int(samples), 1)), axis=1)
        mins = aug.tail_sums()[y[None, :], perms].min(axis=1)
        value = float(mins.mean())
        stderr = float(mins.std(ddof=1) / np.sqrt(len(mins)))
        return (value, stderr) if return_stderr else value
    raise ValueError("mode must be 'exact' or 'mc'")


def dpm_to_csv(dpm, sched, path):
    """Write a law (q, or p at resolution N) with a header: time, j=0, ..., j=n."""
    if sched.m != dpm.m:
        raise ValueError("schedule and matrix disagree on the period count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"j={j}" for j in range(dpm.n + 1)])
        for i, t in enumerate(sched.payment_dates):
            writer.writerow([f"{t:.6g}"] + [f"{x:.17g}" for x in dpm.q[i]])


def dpm_from_csv(path):
    """Read a law written by dpm_to_csv; returns (times, DPM), n = columns - 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "time":
            raise ValueError("missing times header")
        times, rows = [], []
        for rec in reader:
            times.append(float(rec[0]))
            rows.append([float(x) for x in rec[1:]])
    return np.asarray(times), DPM(np.asarray(rows))
