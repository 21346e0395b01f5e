"""Command line front end.

Every command reads a market snapshot (JSON) through --input and reports to
stdout, either as short human-readable lines or, with --json, as a single
JSON document. Artifacts (fitted distributions, generator laws, sample
files, reports) go to --out. Exit status encodes the verdict: 0 for success
or a compatible market, 1 for an incompatible market, 2 for input or solver
errors (a verification whose solver failed decides nothing and exits 2).
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .dpm_core import InvalidDPM, dpm_from_csv, dpm_to_csv
from .market_model import NoRoot, implied_index_spread, load_snapshot, pv01
from .opt_backend import SolverError, SolveStatus
from .risk_engine import InfeasibleConstraints, simulate_npv, spread_delta
from .strong_compat import (DEFAULT_EPS_SPREAD, DEFAULT_EPS_UPFRONT,
                            DEFAULT_N_SEQUENCE, InvalidSolution,
                            IterationLimit, iterative_verify,
                            nonstandard_names_bounds, range_at_N,
                            strong_from_csv, strong_to_csv,
                            verify_strong_at_N, verify_strong_bid_ask)
from .weak_compat import (InfeasibleRegion, InvalidQuotes, UnboundedRatio,
                          nonstandard_tranche_bounds, verify_weak,
                          verify_weak_bid_ask)

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_ERROR = 2

_input_opt = click.option("--input", "-i", "input_path", required=True,
                          type=click.Path(exists=True, dir_okay=False),
                          help="Market snapshot JSON.")
_out_opt = click.option("--out", "out_path", default=None,
                        type=click.Path(dir_okay=False), help="Artifact path.")
_fmt_opt = click.option("--format", "fmt", default="json",
                        type=click.Choice(["json", "csv"]),
                        help="Artifact format where both make sense.")
_json_opt = click.option("--json", "as_json", is_flag=True,
                         help="Structured report on stdout.")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except (InvalidQuotes, NoRoot, InvalidDPM, InvalidSolution,
                UnboundedRatio, IterationLimit, ValueError, OSError,
                json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_ERROR
        except (SolverError, InfeasibleConstraints) as exc:
            click.echo(f"solver error: {exc}", err=True)
            code = EXIT_ERROR
        sys.exit(code)
    return wrapper


def _emit(payload, as_json, lines):
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        for line in lines:
            click.echo(line)


def _verdict(res):
    """Verdict word and exit code of a verification result.

    A solver failure decides nothing, so it is an error (exit 2), never an
    incompatible verdict.
    """
    if res.feasible:
        return "yes", EXIT_OK
    if res.status is SolveStatus.NUMERICAL_FAILURE:
        return "undecided (solver failure)", EXIT_ERROR
    return "no", EXIT_INCOMPATIBLE


def _no_certificate(res, label, task, as_json):
    """Report a certificate solve that found no law; returns the exit code.

    ``hedge`` and ``simulate`` solve for the law they need (a prior, a
    generator law) unless given one; a failed solve is reported as that
    verification would report it, with its verdict and exit code.
    """
    word, code = _verdict(res)
    _emit({"compatible": False, "status": res.status.value,
           "certificate": res.certificate},
          as_json, [f"{label}: {word}; no {task}", res.certificate])
    return code


def _quote_display(tranche, quotes, l):
    if tranche.quote_kind == "upfront":
        return quotes.upfront[l] * 100.0, "pct"
    return quotes.spread[l] * 1e4, "bps"


def _to_display(kind, value):
    return value * 100.0 if kind == "upfront" else value * 1e4


@click.group()
@click.version_option(__version__)
def main():
    """Tranche-quote compatibility checks, bounds, hedging and simulation."""


@main.command()
@_input_opt
@_out_opt
@_fmt_opt
@_json_opt
@_guarded
def calibrate(input_path, out_path, fmt, as_json):
    """Fit the marginal default curve to the index quote."""
    snap = load_snapshot(input_path)
    curve = snap.curve
    grid = curve.grid(snap.schedule)
    payload = {
        "hazard": curve.hazard,
        "implied_index_spread_bps": implied_index_spread(
            curve, snap.schedule, snap.discount,
            snap.portfolio.recovery) * 1e4,
        "pv01": pv01(curve, snap.schedule, snap.discount),
        "marginals": [
            {"time": t, "default_probability": float(f)}
            for t, f in zip(snap.schedule.payment_dates, grid)
        ],
    }
    if out_path:
        if fmt == "json":
            with open(out_path, "w") as fh:
                json.dump(payload, fh, indent=2)
        else:
            with open(out_path, "w") as fh:
                fh.write("time,default_probability\n")
                for row in payload["marginals"]:
                    fh.write(f"{row['time']:.6g},{row['default_probability']:.17g}\n")
    _emit(payload, as_json, [
        f"hazard rate: {curve.hazard:.10g}",
        f"implied index spread: {payload['implied_index_spread_bps']:.4f} bps",
        f"pv01: {payload['pv01']:.8f}",
        f"default probability at maturity: {grid[-1]:.8f}",
    ])
    return EXIT_OK


@main.command("verify-weak")
@_input_opt
@_out_opt
@_json_opt
@_guarded
def cmd_verify_weak(input_path, out_path, as_json):
    """Decide weak compatibility of the quoted tranches."""
    snap = load_snapshot(input_path)
    res = verify_weak(snap)
    if res.feasible and out_path:
        dpm_to_csv(res.dpm, snap.schedule, out_path)
    word, code = _verdict(res)
    _emit({"compatible": res.feasible, "status": res.status.value,
           "certificate": res.certificate},
          as_json,
          [f"weakly compatible: {word}", res.certificate])
    return code


@main.command("verify-strong")
@_input_opt
@_out_opt
@_json_opt
@click.option("--n-seq", default=None,
              help="Comma-separated resolution sequence, e.g. 50,75,100.")
@click.option("--resolution", default=None, type=int,
              help="Single-resolution check instead of the iterative walk.")
@click.option("--eps", default=None, type=float,
              help="Stabilization tolerance override (decimal units).")
@_guarded
def cmd_verify_strong(input_path, out_path, as_json, n_seq, resolution, eps):
    """Decide strong compatibility via the resolution sequence."""
    snap = load_snapshot(input_path)
    if resolution is not None:
        res = verify_strong_at_N(snap, resolution)
        feasible, solution = res.feasible, res.solution
        word, code = _verdict(res)
        payload = {"compatible": feasible, "resolution": resolution,
                   "status": res.status.value, "certificate": res.certificate}
        lines = [f"strongly compatible at N={resolution}: {word}",
                 res.certificate]
    else:
        seq = DEFAULT_N_SEQUENCE if n_seq is None else tuple(
            int(v) for v in n_seq.split(","))
        kw = {}
        if eps is not None:
            kw = {"eps_spread": eps, "eps_upfront": eps}
        out = iterative_verify(snap, N_sequence=seq, **kw)
        feasible, solution = out.compatible, out.solution
        code = EXIT_OK if feasible else EXIT_INCOMPATIBLE
        payload = {
            "compatible": out.compatible,
            "final_resolution": out.final_N,
            "failing_tranche": out.failing_tranche,
            "ranges": [
                {"tranche": r.tranche, "N": r.N, "lower": r.lower,
                 "upper": r.upper} for r in out.history
            ],
        }
        verdict = "yes" if out.compatible else (
            f"no (tranche {out.failing_tranche} out of range)")
        lines = [f"strongly compatible: {verdict}",
                 f"final resolution: {out.final_N}"]
    if feasible and solution is not None and out_path:
        strong_to_csv(solution, snap.schedule, out_path, as_of=snap.as_of)
    _emit(payload, as_json, lines)
    return code


@main.command("verify-bid-ask")
@_input_opt
@_out_opt
@_json_opt
@click.option("--mode", default="weak", type=click.Choice(["weak", "strong"]))
@click.option("--resolution", default=100, type=int, show_default=True,
              help="Resolution for --mode strong.")
@_guarded
def cmd_verify_bid_ask(input_path, out_path, as_json, mode, resolution):
    """Compatibility against two-sided quotes."""
    snap = load_snapshot(input_path)
    if mode == "weak":
        res = verify_weak_bid_ask(snap)
        if res.feasible and out_path:
            dpm_to_csv(res.dpm, snap.schedule, out_path)
    else:
        res = verify_strong_bid_ask(snap, resolution)
        if res.feasible and res.solution is not None and out_path:
            strong_to_csv(res.solution, snap.schedule, out_path,
                          as_of=snap.as_of)
    word, code = _verdict(res)
    _emit({"compatible": res.feasible, "mode": mode,
           "status": res.status.value, "certificate": res.certificate},
          as_json,
          [f"{mode} bid-ask compatible: {word}", res.certificate])
    return code


@main.command()
@_input_opt
@_out_opt
@_fmt_opt
@_json_opt
@click.option("--n-seq", default=None,
              help="Comma-separated resolutions (default 50,75,...,200).")
@_guarded
def ranges(input_path, out_path, fmt, as_json, n_seq):
    """Implied quote range of each tranche given the other quotes."""
    snap = load_snapshot(input_path)
    seq = DEFAULT_N_SEQUENCE if n_seq is None else tuple(
        int(v) for v in n_seq.split(","))
    payload = {}
    lines = []
    rows = []
    for N in seq:
        entries = []
        for l, tranche in enumerate(snap.tranches):
            fixed = [k for k in range(snap.n_tranches) if k != l]
            try:
                lo, hi = range_at_N(snap, fixed, l, N)
            except InfeasibleRegion:
                click.echo(f"no strong solution at N={N} prices the quotes "
                           f"other than tranche {tranche.label}", err=True)
                return EXIT_INCOMPATIBLE
            quote, units = _quote_display(tranche, snap.quotes, l)
            lo_d = _to_display(tranche.quote_kind, lo)
            hi_d = _to_display(tranche.quote_kind, hi)
            inside = lo_d - 1e-9 <= quote <= hi_d + 1e-9
            entries.append({"tranche": tranche.label, "kind": tranche.quote_kind,
                            "units": units, "lower": lo_d, "upper": hi_d,
                            "quote": quote, "inside": inside})
            rows.append((N, tranche.label, tranche.quote_kind, units,
                         lo_d, hi_d, quote, inside))
            lines.append(f"N={N} {tranche.label}: [{lo_d:.4f}, {hi_d:.4f}] "
                         f"{units}, quote {quote:.4f} "
                         f"({'inside' if inside else 'outside'})")
        payload[str(N)] = entries
    if out_path:
        if fmt == "json":
            with open(out_path, "w") as fh:
                json.dump(payload, fh, indent=2)
        else:
            with open(out_path, "w") as fh:
                fh.write("N,tranche,kind,units,lower,upper,quote,inside\n")
                for r in rows:
                    fh.write(",".join(str(v) for v in r) + "\n")
    _emit(payload, as_json, lines)
    return EXIT_OK


def _bounds_payload(kind, lower, upper, label):
    units = "pct" if kind == "upfront" else "bps"
    return {"tranche": label, "kind": kind, "units": units,
            "lower": _to_display(kind, lower), "upper": _to_display(kind, upper)}


@main.command("bounds-tranche")
@_input_opt
@_out_opt
@_json_opt
@click.option("--attach", required=True, type=float, help="Attachment, decimal.")
@click.option("--detach", required=True, type=float, help="Detachment, decimal.")
@click.option("--kind", default="spread", type=click.Choice(["upfront", "spread"]))
@click.option("--running-bps", default=0.0, type=float,
              help="Fixed running spread for upfront quotes, bps.")
@click.option("--sweep-detach", default=None,
              help="Comma-separated detachment sweep replacing --detach.")
@_guarded
def cmd_bounds_tranche(input_path, out_path, as_json, attach, detach, kind,
                       running_bps, sweep_detach):
    """Arbitrage-free quote bounds for a nonstandard tranche."""
    snap = load_snapshot(input_path)
    detaches = ([float(v) for v in sweep_detach.split(",")]
                if sweep_detach else [detach])
    results = []
    lines = []
    for d in detaches:
        try:
            lo, hi = nonstandard_tranche_bounds(
                snap, attach, d, kind, fixed_running=running_bps * 1e-4)
        except InfeasibleRegion:
            click.echo("quoted tranches are not weakly compatible", err=True)
            return EXIT_INCOMPATIBLE
        entry = _bounds_payload(kind, lo, hi, f"[{attach:g},{d:g}]")
        results.append(entry)
        lines.append(f"{entry['tranche']}: [{entry['lower']:.4f}, "
                     f"{entry['upper']:.4f}] {entry['units']}")
    payload = results[0] if len(results) == 1 else results
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
    _emit(payload, as_json, lines)
    return EXIT_OK


@main.command("bounds-names")
@_input_opt
@_out_opt
@_json_opt
@click.option("--names", required=True, type=int, help="Nonstandard pool size.")
@click.option("--attach", required=True, type=float)
@click.option("--detach", required=True, type=float)
@click.option("--kind", default="spread", type=click.Choice(["upfront", "spread"]))
@click.option("--running-bps", default=0.0, type=float)
@click.option("--resolution", default=100, type=int, show_default=True)
@_guarded
def cmd_bounds_names(input_path, out_path, as_json, names, attach, detach,
                     kind, running_bps, resolution):
    """Quote bounds for a tranche on a pool with a nonstandard name count."""
    snap = load_snapshot(input_path)
    try:
        lo, hi = nonstandard_names_bounds(
            snap, resolution, names, attach, detach, kind,
            fixed_running=running_bps * 1e-4)
    except InfeasibleRegion:
        click.echo(f"no strong solution at N={resolution}", err=True)
        return EXIT_INCOMPATIBLE
    payload = _bounds_payload(kind, lo, hi, f"[{attach:g},{detach:g}]")
    payload["names"] = names
    payload["resolution"] = resolution
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
    _emit(payload, as_json,
          [f"{payload['tranche']} on {names} names: "
           f"[{payload['lower']:.4f}, {payload['upper']:.4f}] {payload['units']}"])
    return EXIT_OK


@main.command()
@_input_opt
@_out_opt
@_json_opt
@click.option("--shift-bps", default=1.0, type=float, show_default=True)
@click.option("--prior", "prior_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Stored default-probability matrix CSV; defaults to the "
                   "weak-compatibility certificate.")
@_guarded
def hedge(input_path, out_path, as_json, shift_bps, prior_path):
    """Index hedge ratios from the minimum relative entropy bump response."""
    snap = load_snapshot(input_path)
    if prior_path is not None:
        _, prior = dpm_from_csv(prior_path)
    else:
        res = verify_weak(snap)
        if not res.feasible:
            return _no_certificate(res, "weakly compatible", "hedge", as_json)
        prior = res.dpm
    report = spread_delta(snap, prior, shift_bps=shift_bps)
    if out_path:
        report.to_json(out_path)
    _emit(report.as_dict(), as_json,
          [f"index cds value change: {report.dv_cds:.8g}"] + [
              f"[{a:g},{d:g}]: dv {v:.8g}, delta {h:.6f}"
              for a, d, v, h in zip(report.attach, report.detach,
                                    report.dv, report.delta)
          ] + [f"delta sum: {sum(report.delta):.6f}",
               f"entropy solve: {report.solver['iterations']} Newton steps, "
               f"kkt {report.solver['kkt']:.2e}, {report.solver['wall_s']:.2f} s"])
    return EXIT_OK


@main.command()
@_input_opt
@_out_opt
@_json_opt
@click.option("--paths", default=100_000, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--positions", default=None,
              help="Comma-separated tranche weights for the portfolio column.")
@click.option("--resolution", default=100, type=int, show_default=True,
              help="Resolution of the generator law when solving afresh.")
@click.option("--solution", "solution_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Stored generator law CSV instead of a fresh solve.")
@_guarded
def simulate(input_path, out_path, as_json, paths, seed, positions,
             resolution, solution_path):
    """Draw default paths from a strong solution and price the book."""
    snap = load_snapshot(input_path)
    if solution_path is not None:
        _, solution, _ = strong_from_csv(solution_path)
    else:
        res = verify_strong_at_N(snap, resolution)
        if not res.feasible:
            return _no_certificate(res, f"strongly compatible at N={resolution}",
                                   "simulation", as_json)
        solution = res.solution
    pos = (np.array([float(v) for v in positions.split(",")])
           if positions else None)
    summary = simulate_npv(solution, snap, paths, seed, positions=pos,
                           csv_path=out_path)
    lines = [f"paths: {summary.n_paths}, seed: {summary.seed}"]
    for k, label in enumerate(summary.labels):
        lines.append(
            f"{label}: mean {summary.mean[k]:.6g} (model {summary.expected[k]:.6g}), "
            f"sd {summary.std[k]:.6g}, t {summary.t_stat[k]:.2f}")
    _emit(summary.as_dict(), as_json, lines)
    return EXIT_OK


if __name__ == "__main__":
    main()
