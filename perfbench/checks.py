"""Output checks for one perfbench operation.

`check(op, code, stdout, workdir)` returns None when the operation's exit
code and `--json` payload agree with what the workload generator expects,
and otherwise a short reason. A solver that gives up (status
`numerical_failure`) fails the operation even though the CLI exits 1, the
code it also uses for a proven incompatibility.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXIT_OK, EXIT_INCOMPATIBLE = 0, 1
QUOTE_SLACK = 1e-3        # display units, as in acceptance criterion 3
DELTA_SUM = (0.97, 1.03)  # acceptance criterion 4


def check(op, code, stdout, workdir="."):
    try:
        payload = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return "stdout is not JSON"
    return _CHECKS[op.kind](op, code, payload, Path(workdir))


def _verdict(op, code, payload, _):
    if payload is None:
        return f"exit {code} without a payload"
    status = payload.get("status")
    if status == "numerical_failure":
        return "numerical_failure"
    want = op.expect["compatible"]
    if code != (EXIT_OK if want else EXIT_INCOMPATIBLE):
        return f"exit {code}, expected {'compatible' if want else 'incompatible'}"
    if payload.get("compatible") is not want:
        return f"payload says compatible={payload.get('compatible')}"
    if status is not None and status != ("feasible" if want else "infeasible"):
        return f"status {status}"
    if "failing_tranche" in payload and (payload["failing_tranche"] is None) != want:
        return f"failing_tranche {payload['failing_tranche']}"
    return None


def _within(got, ref, tol):
    return abs(got[0] - ref[0]) <= tol and abs(got[1] - ref[1]) <= tol


def _bound(op, code, payload, _):
    if code != EXIT_OK or payload is None:
        return f"exit {code}"
    exp = op.expect
    if op.group == "ranges":
        rows = payload.get(str(exp["N"]), [])
        if len(rows) != len(exp["reference"]):
            return f"{len(rows)} ranges"
        for row, ref, tol in zip(rows, exp["reference"], exp["tols"]):
            if not _within((row["lower"], row["upper"]), ref, tol):
                return (f"{row['tranche']} range [{row['lower']:.4f}, "
                        f"{row['upper']:.4f}] vs reference {ref} +- {tol}")
        return None
    lo, hi = payload["lower"], payload["upper"]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "non-finite bound"
    if "reference" in exp and not _within((lo, hi), exp["reference"], exp["tol"]):
        return f"bounds [{lo:.4f}, {hi:.4f}] vs reference {exp['reference']}"
    if "contains" in exp and not lo - QUOTE_SLACK <= exp["contains"] <= hi + QUOTE_SLACK:
        return f"bounds [{lo:.4f}, {hi:.4f}] miss the quote {exp['contains']}"
    if "window" in exp and not (exp["window"][0] <= lo and hi <= exp["window"][1]):
        return f"bounds [{lo:.4f}, {hi:.4f}] outside {exp['window']}"
    if lo > hi + QUOTE_SLACK:
        return f"lower {lo:.4f} above upper {hi:.4f}"
    return None


def _hedge(op, code, payload, _):
    if code != EXIT_OK or payload is None:
        return f"exit {code}"
    total = sum(t["delta"] for t in payload["tranches"])
    if not DELTA_SUM[0] <= total <= DELTA_SUM[1]:
        return f"delta sum {total:.4f}"
    return None


def _sim(op, code, payload, workdir):
    if code != EXIT_OK or payload is None:
        return f"exit {code}"
    if payload["n_paths"] != op.expect["paths"]:
        return f"{payload['n_paths']} paths"
    if not all(math.isfinite(t) for t in payload["t_stat"]):
        return "non-finite t statistic"
    if "csv" in op.expect:
        path = workdir / op.expect["csv"]
        if not path.exists():
            return "no CSV written"
        with open(path, "rb") as fh:
            rows = sum(1 for _ in fh)
        if rows != op.expect["paths"] + 1:
            return f"{rows} CSV rows for {op.expect['paths']} paths"
    return None


_CHECKS = {"verdict": _verdict, "bound": _bound, "hedge": _hedge,
           "sim": _sim, "csv": _sim}
