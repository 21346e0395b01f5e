"""One perfbench run inside a fresh process; started by run.py.

Set-up is repeated SETUP_REPS times and its median reported: each
repetition writes the workload's snapshot files, starts a cold `cdo-compat
calibrate` in a new interpreter (the price every shell invocation pays) and,
for `risk`, writes the weak certificate and the N=100 generator law with the
CLI in new interpreters, so their LP solves stay out of this process's peak
resident set. Then one single-threaded client runs passes over the operation
list in a closed loop, each `cdo-compat` subcommand called in-process with
`--json` only after the previous one returned. It makes the first
workloads.TIMED_PASSES passes, over which wall_s is taken, and goes on while
the next pass would end within `--seconds`; the extra passes add samples to
the per-kind figures only. A traced run makes exactly the TIMED_PASSES
passes, so its counts describe a fixed amount of work. Every operation is
timed around the CLI call alone and checked afterwards.

With `--full 1` and tracing off, the workload's extra operations (those that
fail today or are too slow for a pass) run after the passes, each in its own
interpreter, stopped and counted as failed after workloads.EXTRA_OP_CAP
seconds. They count towards `attempted` and `failed`, not towards wall_s or
the peak resident set.

Prints one JSON line: correct, attempted, failed, end-to-end metrics, and,
with `--trace 1`, the per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

SETUP_REPS = 3
MAX_PASSES = 40
TAIL_BEYOND = 10        # samples a reported tail percentile leaves above it
SUBPROCESS_TIMEOUT = 60


def invoke(main, argv):
    """(exit code, stdout, seconds, exception text or None) of one CLI call."""
    out = io.StringIO()
    code = raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the operation fails; the run goes on
            raised = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds, raised


def invoke_fresh(argv, timeout):
    """invoke()'s result for one CLI call in a new interpreter."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "cdo_compat.cli", *argv],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - t0, f"stopped after {timeout} s"
    seconds = time.perf_counter() - t0
    lines = proc.stderr.strip().splitlines()
    raised = (f"raised {lines[-1]}" if lines and "Traceback" in proc.stderr
              else None)
    return proc.returncode, proc.stdout, seconds, raised


def set_up(workload, docs, workdir):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workloads.write_inputs(docs, workdir)
    fixture = str(workdir / "fixture.json")
    steps = [["calibrate", "-i", fixture, "--json"]]
    if workload == "risk":
        steps += [["verify-weak", "-i", fixture, "--out",
                   str(workdir / "prior.csv")],
                  ["verify-strong", "-i", fixture, "--resolution", "100",
                   "--out", str(workdir / "law.csv")]]
    for argv in steps:
        code, _, _, raised = invoke_fresh(argv, SUBPROCESS_TIMEOUT)
        if code != 0:
            raise RuntimeError(f"set-up step {argv[0]} exited {code}: {raised}")


def tail_pct(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    return max(0, math.floor(100.0 * (n - TAIL_BEYOND) / n)) if n else 0


def summarize(records, pass_walls, setup_times):
    """End-to-end metrics of one run; `detail` adds the per-kind figures.

    `pass_walls` are the walls of the TIMED_PASSES passes only.
    """
    failed = sum(r["error"] is not None for r in records)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = {"setup_s": statistics.median(setup_times),
           "wall_s": statistics.median(pass_walls),
           "peak_rss_mb": rss_kb / 1024.0}
    detail = {"setups": len(setup_times), "passes": len(pass_walls),
              "ops": len(records), "ops_failed_share": failed / len(records)}
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    for kind, rows in sorted(by_kind.items()):
        secs = [r["seconds"] for r in rows]
        if kind in ("sim", "csv"):
            paths = sum(r["paths"] for r in rows)
            detail[f"{kind}_paths_per_s"] = {"value": paths / sum(secs),
                                             "n": len(rows)}
            continue
        detail[f"{kind}_p50_s"] = {"value": statistics.median(secs), "n": len(rows)}
        pct = tail_pct(len(rows))
        tail = (statistics.quantiles(secs, n=100, method="inclusive")[pct - 1]
                if len(rows) > TAIL_BEYOND else None)
        detail[f"{kind}_tail_s"] = {"value": tail, "pct": pct, "n": len(rows)}
    return e2e, detail, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--full", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    from cdo_compat.cli import main as cli_main

    workdir = Path(args.workdir)
    docs, passes, extras = workloads.build(args.workload, args.seed,
                                           MAX_PASSES, bool(args.full))
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        set_up(args.workload, docs, workdir)
        setup_times.append(time.perf_counter() - t0)
    os.chdir(workdir)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    def record(op, code, out, seconds, raised):
        error = raised or checks.check(op, code, out, workdir)
        if "csv" in op.expect:
            (workdir / op.expect["csv"]).unlink(missing_ok=True)
        records.append({"kind": op.kind, "group": op.group, "argv": op.argv,
                        "seconds": seconds, "error": error,
                        "paths": op.expect.get("paths", 0)})
        return seconds

    timed = workloads.TIMED_PASSES[args.workload]
    records, pass_walls = [], []
    start = time.perf_counter()
    for k, ops in enumerate(passes):
        elapsed = time.perf_counter() - start
        if k >= timed and (tracer is not None or
                           elapsed + statistics.median(pass_walls) > args.seconds):
            break
        wall = 0.0
        for op in ops:
            if tracer is None:
                result = invoke(cli_main, op.argv)
            else:
                result = tracer.run_op(len(records), op.argv[0],
                                       lambda: invoke(cli_main, op.argv))
            wall += record(op, *result)
        pass_walls.append(wall)
    if tracer is None:
        for op in extras:
            record(op, *invoke_fresh(op.argv, workloads.EXTRA_OP_CAP))

    e2e, detail, failed = summarize(records, pass_walls[:timed], setup_times)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "e2e": e2e, "detail": detail,
              "failures": [{"group": r["group"], "argv": r["argv"],
                            "error": r["error"], "seconds": r["seconds"]}
                           for r in records if r["error"] is not None]}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
