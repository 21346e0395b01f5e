"""Run one perfbench workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/`, and
the workloads are derived from `tests/data/snapshot.json` and the reference
tables in `tests/test_acceptance.py`. The run happens in a fresh child
process (worker.py) with BLAS and OpenMP pinned to one thread and the
package's solver variables (CDO_COMPAT_SOLVER, CDO_COMPAT_LP_DUMP) cleared;
`peak_rss_mb` is that child's peak resident set. Scratch files go to
`.perfbench/` in the checkout and are removed at exit.

The last line is `{"correct", "attempted", "failed", "metrics"}` with the
`end_to_end` metrics of BENCHMARK.json (`--trace 0`) or its `per_layer`
metrics (`--trace 1`); the lines above it list every figure of the run.
report.py calls `run_workload(..., full=1)`, which adds the operations that
fail today or are too slow for a pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
CHILD_TIMEOUT = 170
EXTRA_OP_SLACK = 10     # interpreter start and check of one extra operation
REQUIRED = (ROOT / "BENCHMARK.json", ROOT / "src" / "cdo_compat" / "cli.py",
            ROOT / "tests" / "data" / "snapshot.json",
            ROOT / "tests" / "test_acceptance.py")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLEARED = ("CDO_COMPAT_SOLVER", "CDO_COMPAT_LP_DUMP")


class BenchError(RuntimeError):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload, seed, seconds, trace=0, full=0):
    """Run one workload in a child process; returns the child's result dict."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        raise BenchError(f"not a cdo-compat checkout, missing {missing}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--full", str(full), "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans", str(SCRATCH / f"spans_{workload}.jsonl")]
    timeout = CHILD_TIMEOUT
    if full and not trace:
        n_extra = len(workloads.extra_ops(workload)[1])
        timeout += n_extra * (workloads.EXTRA_OP_CAP + EXTRA_OP_SLACK)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run exceeded {timeout} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def contract_line(result, spec, trace):
    """The result line: BENCHMARK.json's metrics for this trace mode only."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layers"] if trace else result["e2e"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        line = contract_line(result, spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key in ("e2e", "detail", "layers"):
        for name, value in sorted(result.get(key, {}).items()):
            print(f"{args.workload} {key} {name} {json.dumps(value)}")
    for fail in result["failures"]:
        print(f"{args.workload} failed [{fail['group']}] "
              f"{' '.join(fail['argv'])}: {fail['error']} "
              f"({fail['seconds']:.2f} s)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
