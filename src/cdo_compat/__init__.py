"""Compatibility checks, bounds, hedging and simulation for CDO tranche quotes."""

from .dpm_core import (DPM, AugmentedDPM, InvalidDPM, default_times_from_dpm,
                       dpm_from_csv, dpm_to_csv, implied_copula_value,
                       validate_dpm)
from .market_model import (DiscountCurve, InvalidRecovery, MarginalDefaultCurve,
                           MarketSnapshot, NoRoot, PaymentSchedule,
                           PortfolioSpec, QuoteVector, TrancheSpec,
                           calibrate_hazard, cds_value_change,
                           implied_index_spread, load_snapshot, pv01,
                           snapshot_from_dict, snapshot_to_dict)
from .opt_backend import (DegenerateDenominator, SolveStatus, SolverError,
                          solve_lfp, solve_lp, solve_relative_entropy)
from .risk_engine import (HedgeReport, InfeasibleConstraints,
                          SimulationSummary, posterior_dpm, read_samples,
                          simulate_npv, spread_delta)
from .strong_compat import (GammaDistortion, GeneratorSampler, HCoefficients,
                            IterationLimit, IterativeResult, h_matrix,
                            iterative_verify, nonstandard_names_bounds,
                            qij_from_p, range_at_N, verify_strong_at_N,
                            verify_strong_bid_ask)
from .tranche_valuation import (DimensionMismatch, NonMonotonePath,
                                TrancheCoefficients, beta_coeffs,
                                coefficients_for, expected_npv, gamma_coeff,
                                lambda_coeffs, realized_npv)
from .weak_compat import (InfeasibleRegion, InvalidQuotes, UnboundedRatio,
                          Verdict, nonstandard_tranche_bounds, verify_weak,
                          verify_weak_bid_ask, weak_range)

__version__ = "0.1.0"

__all__ = [
    "AugmentedDPM", "DPM", "DegenerateDenominator", "DimensionMismatch",
    "DiscountCurve", "GammaDistortion", "GeneratorSampler", "HCoefficients",
    "HedgeReport", "InfeasibleConstraints", "InfeasibleRegion", "InvalidDPM",
    "InvalidQuotes", "InvalidRecovery", "IterationLimit", "IterativeResult",
    "MarginalDefaultCurve", "MarketSnapshot", "NoRoot", "NonMonotonePath",
    "PaymentSchedule", "PortfolioSpec", "QuoteVector", "SimulationSummary",
    "SolveStatus", "SolverError", "TrancheCoefficients",
    "TrancheSpec", "Verdict", "beta_coeffs", "calibrate_hazard",
    "cds_value_change", "coefficients_for", "default_times_from_dpm",
    "dpm_from_csv", "dpm_to_csv", "expected_npv", "gamma_coeff", "h_matrix",
    "implied_copula_value", "implied_index_spread", "iterative_verify",
    "lambda_coeffs", "load_snapshot", "nonstandard_names_bounds",
    "nonstandard_tranche_bounds", "posterior_dpm", "pv01", "qij_from_p",
    "range_at_N", "read_samples", "realized_npv", "simulate_npv",
    "snapshot_from_dict", "snapshot_to_dict", "solve_lfp", "solve_lp",
    "solve_relative_entropy", "spread_delta", "validate_dpm",
    "verify_strong_at_N", "verify_strong_bid_ask", "verify_weak",
    "verify_weak_bid_ask", "weak_range",
]
