"""Command line front end.

Every command reads a market snapshot (JSON) through --input and reports to
stdout, either as short human-readable lines or, with --json, as a single
JSON document. Artifacts (fitted distributions, laws in one CSV format,
sample files, reports) go to --out; a JSON artifact holds the bytes that
--json prints. Exit status encodes the verdict: 0 for success or a
compatible market, 1 for an incompatible market, 2 for input or solver
errors (a verification whose solver failed decides nothing and exits 2).
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import __version__
from .dpm_core import InvalidDPM, dpm_from_csv, dpm_to_csv
from .market_model import (QUOTE_UNITS, NoRoot, implied_index_spread,
                           load_snapshot, pv01)
from .opt_backend import SolverError, SolveStatus
from .risk_engine import (InfeasibleConstraints, check_bump, check_simulation,
                          simulate_npv, spread_delta)
from .strong_compat import (DEFAULT_N_SEQUENCE, IterationLimit,
                            iterative_verify, nonstandard_names_bounds,
                            range_at_N, verify_strong_at_N,
                            verify_strong_bid_ask)
from .weak_compat import (InfeasibleRegion, InvalidQuotes, UnboundedRatio,
                          nonstandard_tranche_bounds, verify_weak,
                          verify_weak_bid_ask)

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_ERROR = 2

_fmt_opt = click.option("--format", "fmt", default="json",
                        type=click.Choice(["json", "csv"]),
                        help="Artifact format where both make sense.")
_n_seq_opt = click.option("--n-seq", default=",".join(map(str, DEFAULT_N_SEQUENCE)),
                          show_default=True,
                          help="Comma-separated resolution sequence.")
_kind_opt = click.option("--kind", default="spread",
                         type=click.Choice(list(QUOTE_UNITS)))
_running_opt = click.option("--running-bps", default=0.0, type=float,
                            help="Fixed running spread for upfront quotes, bps.")


@click.group()
@click.version_option(__version__)
def main():
    """Tranche-quote compatibility checks, bounds, hedging and simulation."""


def _command(name):
    """Register a subcommand of ``main`` that reports on one snapshot.

    The decorated function takes the snapshot read from --input, the --out
    path and its own options, and returns (payload, lines, exit code): --json
    prints the payload, otherwise the lines are printed. Bad input exits 2
    with one ``error:`` line on stderr and a failed solve with one ``solver
    error:`` line; an empty polytope under a bound (InfeasibleRegion) exits 1
    with its message as the one stderr line.
    """
    def register(fn):
        @functools.wraps(fn)
        def run(input_path, out_path, as_json, **options):
            try:
                payload, lines, code = fn(load_snapshot(input_path), out_path,
                                          **options)
            except InfeasibleRegion as exc:
                click.echo(str(exc), err=True)
                sys.exit(EXIT_INCOMPATIBLE)
            except (InvalidQuotes, NoRoot, InvalidDPM, UnboundedRatio,
                    IterationLimit, ValueError, OSError,
                    json.JSONDecodeError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_ERROR)
            except (SolverError, InfeasibleConstraints) as exc:
                click.echo(f"solver error: {exc}", err=True)
                sys.exit(EXIT_ERROR)
            if as_json:
                click.echo(_json(payload), nl=False)
            else:
                click.echo("\n".join(lines))
            sys.exit(code)

        for opt in (click.option("--json", "as_json", is_flag=True,
                                 help="Structured report on stdout."),
                    click.option("--out", "out_path", default=None,
                                 type=click.Path(dir_okay=False),
                                 help="Artifact path."),
                    click.option("--input", "-i", "input_path", required=True,
                                 type=click.Path(exists=True, dir_okay=False),
                                 help="Market snapshot JSON.")):
            run = opt(run)
        return main.command(name)(run)
    return register


def _json(payload):
    return json.dumps(payload, indent=2) + "\n"


def _csv(header, rows):
    return header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


def _save(path, artifact):
    """Write the --out artifact, if asked for: CSV text as is, else as JSON."""
    if path:
        with open(path, "w") as fh:
            fh.write(artifact if isinstance(artifact, str) else _json(artifact))


def _numbers(text, cast=float):
    """The numbers of a comma-separated option value, e.g. 50,75,100."""
    return tuple(cast(v) for v in text.split(","))


def _verdict(res, label, task=None, **fields):
    """(payload, lines, exit code) reporting a verification result.

    ``fields`` follow "compatible" in the payload. ``hedge`` and
    ``simulate`` solve for the law they need unless given one; a solve that
    finds none is reported with the ``task`` it leaves undone. A solver
    failure decides nothing, so it is an error (exit 2), never an
    incompatible verdict.
    """
    if res.feasible:
        word, code = "yes", EXIT_OK
    elif res.status is SolveStatus.NUMERICAL_FAILURE:
        word, code = "undecided (solver failure)", EXIT_ERROR
    else:
        word, code = "no", EXIT_INCOMPATIBLE
    if task is not None:
        word += f"; no {task}"
    payload = {"compatible": res.feasible, **fields,
               "status": res.status.value, "certificate": res.certificate,
               "slack": res.slack, "bound": res.bound}
    return payload, [f"{label}: {word}", res.certificate], code


def _bounds_payload(kind, lower, upper, label):
    """A quote range of one kind, in that kind's display units."""
    units = QUOTE_UNITS[kind]
    return {"tranche": label, "kind": kind, "units": units.label,
            "lower": lower * units.display, "upper": upper * units.display}


def _quoted_range(snap, l, lower, upper):
    """`_bounds_payload` of quoted tranche l plus its ``quote``, in display units."""
    tranche = snap.tranches[l]
    entry = _bounds_payload(tranche.quote_kind, lower, upper, tranche.label)
    entry["quote"] = snap.quote(l) * tranche.units.display
    return entry


@_command("calibrate")
@_fmt_opt
def calibrate(snap, out_path, fmt):
    """Fit the marginal default curve to the index quote."""
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
    _save(out_path, payload if fmt == "json" else _csv(
        "time,default_probability",
        [(f"{row['time']:.6g}", f"{row['default_probability']:.17g}")
         for row in payload["marginals"]]))
    return payload, [
        f"hazard rate: {curve.hazard:.10g}",
        f"implied index spread: {payload['implied_index_spread_bps']:.4f} bps",
        f"pv01: {payload['pv01']:.8f}",
        f"default probability at maturity: {grid[-1]:.8f}",
    ], EXIT_OK


@_command("verify-weak")
def cmd_verify_weak(snap, out_path):
    """Decide weak compatibility of the quoted tranches."""
    res = verify_weak(snap)
    if out_path and res.law is not None:
        dpm_to_csv(res.law, snap.schedule, out_path)
    return _verdict(res, "weakly compatible")


@_command("verify-strong")
@_n_seq_opt
@click.option("--resolution", default=None, type=int,
              help="Single-resolution check instead of the iterative walk.")
def cmd_verify_strong(snap, out_path, n_seq, resolution):
    """Decide strong compatibility via the resolution sequence."""
    if resolution is not None:
        res = verify_strong_at_N(snap, resolution)
        report = _verdict(res, f"strongly compatible at N={resolution}",
                          resolution=resolution)
    else:
        res = iterative_verify(snap, N_sequence=_numbers(n_seq, int))
        verdict = "yes" if res.compatible else (
            f"no (tranche {res.failing_tranche} out of range)")
        payload = {
            "compatible": res.compatible,
            "final_resolution": res.final_N,
            "failing_tranche": res.failing_tranche,
            "rule": res.rule,
            "weak_range": None if res.weak_range is None else dict(
                zip(("lower", "upper"), res.weak_range)),
            "ranges": [
                {"tranche": r.tranche, "N": r.N, "lower": r.lower,
                 "upper": r.upper} for r in res.history
            ],
        }
        lines = [f"strongly compatible: {verdict}"]
        if res.rule == "weak_bound":
            lines.append(
                f"{_outside(snap, res.failing_tranche, res.weak_range)}, its "
                "range over every DPM that prices the tranches before it: "
                "no law prices the quotes at any N")
        else:
            lines.append(f"final resolution: {res.final_N}")
        if res.rule == "stabilized":
            last = res.history[-1]
            lines.append(
                f"{_outside(snap, last.tranche, (last.lower, last.upper))}, "
                f"its range at N={last.N}, which stopped moving: no law up to "
                f"N = {res.final_N} (not a proof for larger N)")
        report = (payload, lines,
                  EXIT_OK if res.compatible else EXIT_INCOMPATIBLE)
    if out_path and res.law is not None:
        dpm_to_csv(res.law, snap.schedule, out_path)
    return report


def _outside(snap, l, bounds):
    """Says that tranche l's quote lies outside ``bounds``, in display units."""
    return ("tranche {tranche} quote {quote:.4f} {units} lies outside [{lower:.4f}, "
            "{upper:.4f}] {units}".format(**_quoted_range(snap, l, *bounds)))


@_command("verify-bid-ask")
@click.option("--mode", default="weak", type=click.Choice(["weak", "strong"]))
@click.option("--resolution", default=100, type=int, show_default=True,
              help="Resolution for --mode strong.")
def cmd_verify_bid_ask(snap, out_path, mode, resolution):
    """Compatibility against two-sided quotes."""
    res = (verify_weak_bid_ask(snap) if mode == "weak"
           else verify_strong_bid_ask(snap, resolution))
    if out_path and res.law is not None:
        dpm_to_csv(res.law, snap.schedule, out_path)
    return _verdict(res, f"{mode} bid-ask compatible", mode=mode)


@_command("ranges")
@_fmt_opt
@_n_seq_opt
def ranges(snap, out_path, fmt, n_seq):
    """Implied quote range of each tranche given the other quotes."""
    payload = {}
    lines = []
    for N in _numbers(n_seq, int):
        entries = []
        for l, tranche in enumerate(snap.tranches):
            fixed = [k for k in range(snap.n_tranches) if k != l]
            try:
                lo, hi = range_at_N(snap, fixed, l, N)
            except InfeasibleRegion as exc:
                raise InfeasibleRegion(
                    f"no strong solution at N={N} prices the quotes other "
                    f"than tranche {tranche.label}") from exc
            entry = _quoted_range(snap, l, lo, hi)
            entry["inside"] = (entry["lower"] - 1e-9 <= entry["quote"]
                               <= entry["upper"] + 1e-9)
            entries.append(entry)
            lines.append(f"N={N} {tranche.label}: [{entry['lower']:.4f}, "
                         f"{entry['upper']:.4f}] {entry['units']}, quote "
                         f"{entry['quote']:.4f} "
                         f"({'inside' if entry['inside'] else 'outside'})")
        payload[str(N)] = entries
    _save(out_path, payload if fmt == "json" else _csv(
        "N,tranche,kind,units,lower,upper,quote,inside",
        [(N, *e.values()) for N, entries in payload.items() for e in entries]))
    return payload, lines, EXIT_OK


@_command("bounds-tranche")
@click.option("--attach", required=True, type=float, help="Attachment, decimal.")
@click.option("--detach", required=True,
              help="Detachment, decimal; a comma-separated list sweeps it.")
@_kind_opt
@_running_opt
def cmd_bounds_tranche(snap, out_path, attach, detach, kind, running_bps):
    """Arbitrage-free quote bounds for a nonstandard tranche."""
    results = []
    for d in _numbers(detach):
        try:
            lo, hi = nonstandard_tranche_bounds(
                snap, attach, d, kind, fixed_running=running_bps * 1e-4)
        except InfeasibleRegion as exc:
            raise InfeasibleRegion(
                "quoted tranches are not weakly compatible") from exc
        results.append(_bounds_payload(kind, lo, hi, f"[{attach:g},{d:g}]"))
    payload = results[0] if len(results) == 1 else results
    _save(out_path, payload)
    return payload, [f"{e['tranche']}: [{e['lower']:.4f}, {e['upper']:.4f}] "
                     f"{e['units']}" for e in results], EXIT_OK


@_command("bounds-names")
@click.option("--names", required=True, type=int, help="Nonstandard pool size.")
@click.option("--attach", required=True, type=float)
@click.option("--detach", required=True, type=float)
@_kind_opt
@_running_opt
@click.option("--resolution", default=100, type=int, show_default=True)
def cmd_bounds_names(snap, out_path, names, attach, detach, kind, running_bps,
                     resolution):
    """Quote bounds for a tranche on a pool with a nonstandard name count."""
    try:
        lo, hi = nonstandard_names_bounds(
            snap, resolution, names, attach, detach, kind,
            fixed_running=running_bps * 1e-4)
    except InfeasibleRegion as exc:
        raise InfeasibleRegion(f"no strong solution at N={resolution}") from exc
    payload = _bounds_payload(kind, lo, hi, f"[{attach:g},{detach:g}]")
    payload["names"] = names
    payload["resolution"] = resolution
    _save(out_path, payload)
    return payload, [f"{payload['tranche']} on {names} names: "
                     f"[{payload['lower']:.4f}, {payload['upper']:.4f}] "
                     f"{payload['units']}"], EXIT_OK


@_command("hedge")
@click.option("--shift-bps", default=1.0, type=float, show_default=True)
@click.option("--prior", "prior_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Stored default-probability matrix CSV; defaults to the "
                   "weak-compatibility certificate.")
def hedge(snap, out_path, shift_bps, prior_path):
    """Index hedge ratios from the minimum relative entropy bump response."""
    check_bump(shift_bps)
    if prior_path is not None:
        _, prior = dpm_from_csv(prior_path)
    else:
        res = verify_weak(snap)
        if not res.feasible:
            return _verdict(res, "weakly compatible", task="hedge")
        prior = res.law
    report = spread_delta(snap, prior, shift_bps=shift_bps)
    payload = report.as_dict()
    _save(out_path, payload)
    return payload, [f"index cds value change: {report.dv_cds:.8g}"] + [
        f"[{a:g},{d:g}]: dv {v:.8g}, delta {h:.6f}"
        for a, d, v, h in zip(report.attach, report.detach, report.dv,
                              report.delta)
    ] + [f"delta sum: {sum(report.delta):.6f}",
         f"entropy solve: {report.solver['iterations']} Newton steps, "
         f"kkt {report.solver['kkt']:.2e}, {report.solver['wall_s']:.2f} s"
         ], EXIT_OK


@_command("simulate")
@click.option("--paths", default=100_000, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--positions", default=None,
              help="Comma-separated tranche weights for the portfolio column.")
@click.option("--resolution", default=100, type=int, show_default=True,
              help="Resolution of the generator law when solving afresh.")
@click.option("--solution", "solution_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Stored generator law CSV instead of a fresh solve.")
def simulate(snap, out_path, paths, seed, positions, resolution,
             solution_path):
    """Draw default paths from a generator law and price the book."""
    pos = check_simulation(snap, paths,
                           _numbers(positions) if positions else None)
    if solution_path is not None:
        _, law = dpm_from_csv(solution_path)
    else:
        res = verify_strong_at_N(snap, resolution)
        if not res.feasible:
            return _verdict(res, f"strongly compatible at N={resolution}",
                            task="simulation")
        law = res.law
    summary = simulate_npv(law, snap, paths, seed, positions=pos,
                           csv_path=out_path)
    lines = [f"paths: {summary.n_paths}, seed: {summary.seed}"]
    for k, label in enumerate(summary.labels):
        lines.append(
            f"{label}: mean {summary.mean[k]:.6g} (model {summary.expected[k]:.6g}), "
            f"sd {summary.std[k]:.6g}, t {summary.t_stat[k]:.2f}")
    return summary.as_dict(), lines, EXIT_OK


if __name__ == "__main__":
    main()
