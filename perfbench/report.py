"""Desk report: every workload, untraced then traced, in one command.

    python3 perfbench/report.py [--seed 1]

For each of verdicts, bounds and risk this runs run.py's workload with
tracing off, checks every operation, and prints each end-to-end metric with
its unit, workload and sample count; then it runs the workload again with
the tracing shim and prints the per-layer metrics and the tracing overhead
(traced wall_s minus untraced wall_s). Runs last BENCHMARK.json's
run_seconds. The untraced runs add the extra operations, those that fail
today or are too slow for a pass, so `ops_failed_share` on verdicts and
bounds is above zero at the seed commit; see README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, BenchError, run_workload
from workloads import WORKLOADS


def unit(name):
    for suffix, u in (("_per_s", "paths/s"), ("_s", "s"), ("_mb", "MB"),
                      ("_ratio", "ratio"), ("_share", "ratio"),
                      ("_kkt_max", "residual")):
        if name.endswith(suffix):
            return u
    return "count"


def e2e_rows(workload, result):
    detail = result["detail"]
    counts = {"setup_s": f"{detail['setups']} set-ups",
              "wall_s": f"{detail['passes']} passes",
              "peak_rss_mb": "1 process"}
    rows = [(workload, k, v, unit(k), counts[k]) for k, v in result["e2e"].items()]
    rows.append((workload, "ops_failed_share", detail["ops_failed_share"],
                 "ratio", f"{result['failed']} of {result['attempted']} ops"))
    for k, v in detail.items():
        if isinstance(v, dict):
            note = f"{v['n']} ops" + (f", p{v['pct']}" if "pct" in v else "")
            if v["value"] is None:
                note += ", too few for a tail"
            rows.append((workload, k, v["value"], unit(k), note))
    return rows


def show(rows, header):
    print(f"\n{header}")
    for workload, name, value, u, note in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {workload:<9} {name:<38} {text:>14} {u:<8} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    untraced, traced = {}, {}
    try:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        for w in WORKLOADS:
            untraced[w] = run_workload(w, args.seed, seconds, trace=0, full=1)
            traced[w] = run_workload(w, args.seed, seconds, trace=1)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    show([row for w, r in untraced.items() for row in e2e_rows(w, r)],
         "end-to-end metrics (tracing off)")
    for w, r in untraced.items():
        for fail in r["failures"]:
            print(f"  {w:<9} failed [{fail['group']}] {' '.join(fail['argv'])}: "
                  f"{fail['error']} ({fail['seconds']:.2f} s)")
    for w, r in traced.items():
        rows = [(w, k, v, unit(k), "") for k, v in sorted(r["layers"].items())]
        base, with_trace = untraced[w]["e2e"]["wall_s"], r["e2e"]["wall_s"]
        rows.append((w, "trace.overhead_s", with_trace - base, "s",
                     f"traced wall_s {with_trace:.4g} - untraced {base:.4g}"))
        show(rows, f"per-layer metrics, {w} (traced run, "
                   f"{r['detail']['passes']} passes, {r['attempted']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
